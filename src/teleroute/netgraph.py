"""Networks of two-qubit channels and fidelity-optimal route search.

Two search modes are provided. The additive mode requires every link to
have mu = 1 and nu >= 0 (fidmodel.link_weights); then maximising path
fidelity is the same as minimising the sum of -ln nu link weights, a
shortest-path scan is exact, and a second, distance-only scan certifies
its value (_certified_bound). The exact mode works for arbitrary
X-shaped links by a branch-and-bound over simple paths on the pair of
running products, one iterative walk per destination. The substructure
check runs that same search once for each node it needs. Each search
visits at most MAX_SEARCH_PATHS paths, else CapExceededError.

Only the joint (mu, nu) objective breaks Bellman's principle; each
product alone is a max-product problem. So, A*-style (Hart, Nilsson and
Raphael 1968), one sweep back from the destination bounds the |mu| and
|nu| products (hmu, hnu) and the hops still to come at every node. A
branch is dropped when it cannot reach dst, when (2 + |mu| hmu +
|nu| hnu) / 4 plus a rounding slack is below the incumbent fidelity, or
when (2 + |mu| + |nu|) / 4 is at most the incumbent fidelity and it
needs more hops than the incumbent (the hop tie rule). Every factor
lies in [-1, 1] (fidmodel.link_weights), so no product rises along a
path and both bounds hold for any hops still to come. No dropped branch
can beat an incumbent, so the answer does not depend on the visit order.
Moves are sorted best bound first and the incumbent only rises, so the
first move that fails the bound ends its node.

Ties are always broken the same way: higher fidelity, then fewer hops,
then lexicographically smallest node sequence, then smallest link-id
sequence. The substructure check relies on this canonical choice.

The searches walk integer positions (see Network), which sort as the
names do, read link weights by link position, and name only the path
they return; the exact search reads a move table built once per network.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .errors import (
    CapExceededError,
    DomainError,
    GenerationError,
    NoPathError,
    ValidationError,
    brief,
)
from .fidmodel import LinkWeights, PathObjective, fold_weights, link_weights
from .qcore import ChannelState, PureSchmidtChannel, WernerGenChannel, random_x_state

# numpy only for annotations: the generators use it only when it is loaded already
if TYPE_CHECKING:
    import numpy as np

VIOLATION_MARGIN = 1e-9
# partial paths (one per extension by a link) an exact search may visit
MAX_SEARCH_PATHS = 1_000_000
# relative rounding allowed per floating-point product in the search bounds
ROUND_REL = 4.0 * sys.float_info.epsilon
# the most nodes a random network may have: 499,500 node pairs to draw
MAX_RANDOM_NODES = 1000


class Link(Frozen):
    """Undirected channel between two named nodes."""

    __slots__ = ("u", "v", "link_id", "channel")


class Path(Frozen):
    """A simple path: node sequence plus the link ids joining it."""

    __slots__ = ("nodes", "link_ids")

    def __init__(self, nodes: tuple[str, ...], link_ids: tuple[str, ...]):
        if len(nodes) != len(link_ids) + 1:
            raise ValidationError("node/link counts do not line up")
        if len(nodes) < 2:
            raise ValidationError("a path needs at least one link")
        if len(set(nodes)) != len(nodes):
            raise ValidationError("path revisits a node")
        super().__init__(nodes, link_ids)

    @property
    def hops(self) -> int:
        return len(self.link_ids)


class RouteResult(Frozen):
    """A route's path, its objective and the method that found it."""

    __slots__ = ("path", "objective", "method")


class ViolationWitness(Frozen):
    """Evidence that greedy prefix reuse is unsound on a network.

    The canonical best source->ext path passes through mid, but its
    prefix at mid scores strictly worse than the canonical best
    source->mid path.
    """

    __slots__ = (
        "source",
        "mid",
        "ext",
        "best_to_mid",
        "best_to_ext",
        "mid_objective",
        "prefix_objective",
        "ext_objective",
    )

    @property
    def margin(self) -> float:
        return self.mid_objective.fidelity - self.prefix_objective.fidelity


class Network:
    """Undirected multigraph whose edges carry two-qubit channels.

    Each node has a position, its index in the sorted nodes tuple, and
    each link one, its index in the id-sorted links tuple. So tuples of
    positions sort as the names and ids they stand for. Per-link data is
    kept by link position (weights), the searches walk positions, and
    names are built only for the paths a caller gets back.
    """

    def __init__(self, nodes, links):
        node_tuple = tuple(nodes)
        for name in node_tuple:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"bad node name: {brief(name)}")
        node_tuple = tuple(sorted(node_tuple))
        position = {name: i for i, name in enumerate(node_tuple)}
        if len(position) != len(node_tuple):
            raise ValidationError("duplicate node names")
        link_tuple = tuple(links)
        for link in link_tuple:
            if not isinstance(link.link_id, str) or not link.link_id:
                raise ValidationError(f"bad link id: {brief(link.link_id)}")
            if not isinstance(link.channel, ChannelState):
                raise ValidationError(f"link {brief(link.link_id)} has a bad channel: {brief(link.channel)}")
        link_tuple = tuple(sorted(link_tuple, key=lambda l: l.link_id))
        ids = [l.link_id for l in link_tuple]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate link ids")
        incident: list[list] = [[] for _ in node_tuple]
        for i, link in enumerate(link_tuple):
            a = link.u
            b = link.v
            if not (isinstance(a, str) and isinstance(b, str) and a and b):
                bad = b if isinstance(a, str) and a else a
                raise ValidationError(f"link {brief(link.link_id)} has a bad endpoint: {brief(bad)}")
            if a == b:
                raise ValidationError(f"link {brief(link.link_id)} is a self-loop")
            u = position.get(a)
            v = position.get(b)
            if u is None or v is None:
                raise ValidationError(f"link {brief(link.link_id)} references unknown nodes")
            incident[u].append((v, i))
            incident[v].append((u, i))
        for entries in incident:
            entries.sort()
        self.nodes = node_tuple
        self.links = link_tuple
        self._position = position
        # per node position, its (other position, link position) pairs
        # sorted by (other, link id)
        self._adj = tuple([tuple(entries) for entries in incident])

    @cached_property
    def _by_id(self) -> dict[str, int]:
        """Link positions by id, built on first lookup; searches never need it."""
        return {l.link_id: i for i, l in enumerate(self.links)}

    @cached_property
    def weights(self) -> tuple[LinkWeights, ...]:
        """link_weights of every link, by link position; computed on first use."""
        return tuple([link_weights(l.channel) for l in self.links])

    @cached_property
    def _moves(self):
        """The exact search's move table, built on first search.

        Returns (rows, slack). rows[p] holds one record
        (other, link, mu, nu, |mu|, |nu|) per end of a link at node p, in
        the adjacency's order; the two ends of a link share its floats,
        and a nonnegative factor is its own magnitude. Every factor lies
        in [-1, 1] (fidmodel.link_weights), so no product rises along a
        path; slack is the bound's allowance for rounding over the V - 1
        hops a simple path can have.
        """
        values = []
        for w in self.weights:
            mu = w.mu
            nu = w.nu
            values.append((mu, nu, mu if mu >= 0.0 else -mu, nu if nu >= 0.0 else -nu))
        rows = tuple(tuple([(other, link, *values[link]) for other, link in pairs]) for pairs in self._adj)
        return rows, ROUND_REL * len(self.nodes)

    def __repr__(self):
        return f"Network(nodes={len(self.nodes)}, links={len(self.links)})"

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return self.nodes == other.nodes and self.links == other.links

    def link(self, link_id: str) -> Link:
        try:
            return self.links[self._by_id[link_id]]
        except KeyError:
            raise DomainError(f"unknown link id {link_id!r}") from None

    def _at(self, node: str) -> int:
        """A node's position; DomainError for an unknown node."""
        try:
            return self._position[node]
        except KeyError:
            raise DomainError(f"unknown node {node!r}") from None

    def _names(self, nodes, links) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The node names and link ids that node and link positions stand for."""
        return tuple([self.nodes[p] for p in nodes]), tuple([self.links[p].link_id for p in links])

    def neighbors(self, node: str):
        """Sorted (other endpoint, link) pairs incident to a node."""
        return tuple((self.nodes[o], self.links[l]) for o, l in self._adj[self._at(node)])

    def _derived(self, links) -> "Network":
        """A network on the same nodes whose weight table starts from this
        one's, so only links that are not this network's own Link objects
        get link_weights, even where they reuse one of its ids."""
        net = Network(self.nodes, links)
        weights = self.weights
        own = self._by_id
        mine = self.links
        net.weights = tuple([
            weights[i] if (i := own.get(l.link_id)) is not None and mine[i] is l else link_weights(l.channel)
            for l in net.links
        ])
        return net


def path_channels(network: Network, path: Path) -> list[ChannelState]:
    """Resolve a path's links to channels, checking it fits the network."""
    channels = []
    for i, link_id in enumerate(path.link_ids):
        link = network.link(link_id)
        if {link.u, link.v} != {path.nodes[i], path.nodes[i + 1]}:
            raise ValidationError(
                f"link {link_id!r} does not join {path.nodes[i]!r} and {path.nodes[i + 1]!r}"
            )
        channels.append(link.channel)
    return channels


def _require_endpoints(network: Network, src: str, dst: str) -> tuple[int, int]:
    """The positions of src and dst, which must be distinct nodes."""
    s = network._at(src)
    d = network._at(dst)
    if s == d:
        raise DomainError("source and destination must differ")
    return s, d


def additive_model_applies(network: Network) -> bool:
    """True when every link passes the additive rule of link_weights
    (mu = 1, nu >= 0), so the -ln nu model is exact on this network."""
    return all(w.log_neg_weight is not None for w in network.weights)


def dijkstra_route(network: Network, src: str, dst: str) -> RouteResult:
    """Best route under the additive -ln nu model.

    Every link must pass the additive rule or NotAdditiveError is raised.
    A link with nu = 0 weighs inf, which sorts after every finite distance,
    so a path through one is taken only where no finite path exists.
    Where the path found sits at the fidelity floor (2 + mu product) / 4,
    its nu product is too small to move the fidelity, so no path does
    better and all tie, a path through a nu = 0 link among them; the
    scan then runs once more on zero weights. NoPathError is raised only
    where no path joins the endpoints. The heap key (distance, hops, node
    sequence, link ids) applies the canonical tie-break ordering directly.
    """
    s, d = _require_endpoints(network, src, dst)
    weights = network.weights
    # by link position; a link with nu = 0 costs inf
    cost = [w.require_additive(l.link_id) for w, l in zip(weights, network.links)]
    adj = network._adj
    tied = False
    while True:
        heap = [(0.0, 0, (s,), ())]
        done = [False] * len(adj)
        while heap:
            dist, hops, nodes, links = heapq.heappop(heap)
            node = nodes[-1]
            if done[node]:
                continue
            done[node] = True
            if node == d:
                break
            for other, link in adj[node]:
                if not done[other]:
                    heapq.heappush(heap, (dist + cost[link], hops + 1, nodes + (other,), links + (link,)))
        else:
            raise NoPathError(f"no usable path from {src!r} to {dst!r}")
        objective = fold_weights(weights[link] for link in links)
        if tied or objective.fidelity != (2.0 + objective.mu_product) / 4.0:
            break
        tied = True
        cost = [0.0] * len(cost)  # every path ties: fewest hops, then names
    return RouteResult(Path(*network._names(nodes, links)), objective, "dijkstra")


def _certified_bound(network: Network, src: str, dst: str) -> float:
    """The highest fidelity any src -> dst path reaches on an additive
    network, certified by LP duality for shortest paths (McConnell,
    Mehlhorn, Naeher and Schweitzer 2011). A distance-only scan from src
    over the -ln nu weights, sharing no code with dijkstra_route, gives
    each node a potential d. Where d[v] <= d[u] + w holds on every link
    end, no path weighs less than d[dst] and none beats
    (3 + exp(-d[dst])) / 4; else the trivial bound 1.0 is returned."""
    s, t = _require_endpoints(network, src, dst)
    cost = [w.require_additive(l.link_id) for w, l in zip(network.weights, network.links)]
    adj = network._adj
    d = [math.inf] * len(adj)
    d[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist == d[node]:
            for other, link in adj[node]:
                if dist + cost[link] < d[other]:
                    d[other] = dist + cost[link]
                    heapq.heappush(heap, (d[other], other))
    for node, row in enumerate(adj):
        if any(d[other] > d[node] + cost[link] for other, link in row):
            return 1.0
    return (3.0 + math.exp(-d[t])) / 4.0


def _dst_bounds(network: Network, src: int, dst: int) -> tuple[list, list, list]:
    """Bounds on the rest of any simple path v -> dst that avoids src.

    Returns three lists by node position, (rest, hmu, hnu): the fewest
    links from v to dst, and the largest products of |mu| and of |nu|
    over walks to dst, which bound what any suffix multiplies them by.
    rest is None, and hmu and hnu 0.0, for every node that cannot reach
    dst without passing src, and for src itself. One label-correcting
    sweep (Bellman-Ford on a FIFO queue) over the move table's records
    sets all three: no factor exceeds 1, so no label improves around a
    cycle, and each node is queued at most once per pass, O(V E) in all.
    rest is set once, when a node is first labelled: each node labels all
    its unlabelled neighbours at its first pop, so first labels come in
    breadth-first order. Only hmu and hnu are corrected later.
    """
    rows, _ = network._moves
    size = len(rows)
    rest: list = [None] * size
    hmu = [0.0] * size
    hnu = [0.0] * size
    rest[dst] = 0
    hmu[dst] = 1.0
    hnu[dst] = 1.0
    queued = [False] * size
    queued[dst] = True
    queue = deque([dst])
    while queue:
        node = queue.popleft()
        queued[node] = False
        hops = rest[node] + 1
        m0 = hmu[node]
        n0 = hnu[node]
        for other, _, _, _, amu, anu in rows[node]:
            if other == src:
                continue
            m = m0 * amu
            n = n0 * anu
            if rest[other] is None:
                rest[other] = hops
                hmu[other] = m
                hnu[other] = n
            elif m > hmu[other] or n > hnu[other]:
                if m > hmu[other]:
                    hmu[other] = m
                if n > hnu[other]:
                    hnu[other] = n
            else:
                continue
            if not queued[other]:
                queued[other] = True
                queue.append(other)
    return rest, hmu, hnu


def _toward(row, rest, hmu, hnu, on_path, mu: float, nu: float):
    """The moves off the current path toward dst, as an iterator of
    (key, record) pairs sorted by key = -(|mu| hmu + |nu| hnu), the
    move's bound, computed only here. From the records' stored |mu| and
    |nu|, it is the moved-to path's bound bit for bit. A record starts
    with (other, link), unique in its row, so ties fall to the adjacency
    order and strong incumbents come early."""
    am = abs(mu)
    an = abs(nu)
    ahead = []
    for record in row:
        other, _, _, _, amu, anu = record
        if on_path[other] or rest[other] is None:
            continue
        ahead.append((-(am * amu * hmu[other] + an * anu * hnu[other]), record))
    ahead.sort()
    return iter(ahead)


def _best_path(network: Network, src: int, dst: int):
    """Canonical best simple path between two node positions, by one
    explicit-stack walk over the move table.

    Returns (-fidelity, hops, nodes, links, mu, nu), with nodes and links
    as position tuples, whose tuple order is the canonical tie-break (they
    sort as the names do), or None when no path reaches dst. Nothing is
    named here; callers name the paths they report. Branches are dropped
    by the bounds of the module docstring, read off _toward's keys; the
    first move that fails the bound pops its node. The path so far is
    positions in two lists pushed and popped with the stack, and on_path
    is a list indexed by position. Position tuples are built only at
    dst, for a path whose (fidelity, hops) at least ties the incumbent's.
    """
    rows, slack = network._moves
    limit = MAX_SEARCH_PATHS
    rest, hmu, hnu = _dst_bounds(network, src, dst)
    best = None
    floor = None  # incumbent fidelity at dst; no bound pruning until there is one
    floor_hops = 0
    visited = 0
    on_path = [False] * len(rows)
    on_path[src] = True
    nodes = [src]
    links: list[int] = []
    stack = [(_toward(rows[src], rest, hmu, hnu, on_path, 1.0, 1.0), 1.0, 1.0)]
    while stack:
        moves, mu, nu = stack[-1]
        hops = len(nodes)  # links on a path one move longer
        for key, (other, link, link_mu, link_nu, _, _) in moves:
            mu2 = mu * link_mu
            nu2 = nu * link_nu
            if floor is not None:
                if (2.0 - key) / 4.0 + slack < floor:
                    break  # the moves left bound no higher, and floor only rises
                if hops + rest[other] > floor_hops and (2.0 + abs(mu2) + abs(nu2)) / 4.0 <= floor:
                    continue
            visited += 1
            if visited > limit:
                raise CapExceededError(f"search visited more than {limit} paths from {network.nodes[src]!r}")
            if other == dst:
                fidelity = (2.0 + mu2 + nu2) / 4.0
                if best is None or (-fidelity, hops) <= best[:2]:
                    entry = (-fidelity, hops, (*nodes, other), (*links, link), mu2, nu2)
                    if best is None or entry < best:
                        best = entry
                        floor = fidelity
                        floor_hops = hops
                continue
            on_path[other] = True
            nodes.append(other)
            links.append(link)
            stack.append((_toward(rows[other], rest, hmu, hnu, on_path, mu2, nu2), mu2, nu2))
            break
        if len(nodes) == hops:  # no move taken: the node is done
            stack.pop()
            on_path[nodes.pop()] = False
            del links[-1:]
    return best


def exact_route(network: Network, src: str, dst: str) -> RouteResult:
    """Best route over all simple paths, by branch and bound; raises
    CapExceededError past MAX_SEARCH_PATHS visited paths."""
    best = _best_path(network, *_require_endpoints(network, src, dst))
    if best is None:
        raise NoPathError(f"no path from {src!r} to {dst!r}")
    _, _, nodes, links, mu, nu = best
    return RouteResult(Path(*network._names(nodes, links)), PathObjective(mu, nu), "exact")


def all_simple_paths(network: Network, src: str, dst: str):
    """List every simple path src -> dst as a Path, without pruning.

    Kept apart from the search core as the oracle it is checked against.
    """
    s, d = _require_endpoints(network, src, dst)
    adj = network._adj
    out: list[Path] = []
    on_path = [False] * len(adj)
    on_path[s] = True
    stack = [(iter(adj[s]), (s,), ())]
    while stack:
        moves, nodes, links = stack[-1]
        for other, link in moves:
            if on_path[other]:
                continue
            if other == d:
                out.append(Path(*network._names(nodes + (other,), links + (link,))))
                continue
            on_path[other] = True
            stack.append((iter(adj[other]), nodes + (other,), links + (link,)))
            break
        else:
            stack.pop()
            on_path[nodes[-1]] = False
    return out


def check_optimal_substructure(network: Network, source: str):
    """Search for a prefix-optimality violation from one source.

    Takes the canonical best path from the source to every reachable node
    (ext, in sorted order) and to every node along it (mid), each from
    one bounded search per destination, run on first need and kept. It
    reports the first pair where the best path to ext passes through mid
    but its prefix scores worse than the best path to mid by more than
    VIOLATION_MARGIN. Returns a ViolationWitness or None; each search
    may raise CapExceededError as exact_route does. The budget applies
    per destination, so one check may visit up to (V - 1) times
    MAX_SEARCH_PATHS paths. The searches are kept by node position and
    nothing is named unless a witness is found.
    """
    s = network._at(source)
    weights = network.weights
    unsearched = object()
    best: list = [unsearched] * len(network.nodes)

    def best_to(node):
        if best[node] is unsearched:
            best[node] = _best_path(network, s, node)
        return best[node]

    for ext in range(len(network.nodes)):
        if ext == s or best_to(ext) is None:
            continue
        _, _, nodes, links, mu, nu = best[ext]
        prefix_mu = 1.0
        prefix_nu = 1.0
        for i, link in enumerate(links[:-1]):
            w = weights[link]
            prefix_mu *= w.mu
            prefix_nu *= w.nu
            mid = nodes[i + 1]
            mid_fid, _, mid_nodes, mid_links, mid_mu, mid_nu = best_to(mid)
            prefix_fid = (2.0 + prefix_mu + prefix_nu) / 4.0
            if -mid_fid - prefix_fid > VIOLATION_MARGIN:
                return ViolationWitness(
                    source=source,
                    mid=network.nodes[mid],
                    ext=network.nodes[ext],
                    best_to_mid=Path(*network._names(mid_nodes, mid_links)),
                    best_to_ext=Path(*network._names(nodes, links)),
                    mid_objective=PathObjective(mid_mu, mid_nu),
                    prefix_objective=PathObjective(prefix_mu, prefix_nu),
                    ext_objective=PathObjective(mu, nu),
                )
    return None


def _pure_channel(rng: np.random.Generator) -> PureSchmidtChannel:
    return PureSchmidtChannel(math.asin(rng.uniform(0.05, 1.0)) / 2.0)


def _werner_channel(rng: np.random.Generator) -> WernerGenChannel:
    return WernerGenChannel(rng.uniform(0.4, 1.0), math.asin(rng.uniform(0.3, 1.0)) / 2.0)


# random_network's channel sampler for each family
_SAMPLERS = {"pure": _pure_channel, "x": random_x_state, "werner": _werner_channel}


def _connected(names, edges) -> bool:
    adj = {n: set() for n in names}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {names[0]}
    stack = [names[0]]
    while stack:
        for other in adj[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(names)


def _integer(value, name: str) -> int:
    """value as an int through operator.index, else a DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {brief(value)}") from None


def _generator(seed):
    """default_rng(seed) for a nonnegative integer seed: numpy's when numpy
    is already loaded, else the plain-Python port, which draws the same
    numbers bit for bit. A numpy Generator is used as it is."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(seed, np.random.Generator):
        return seed
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer or a numpy Generator, got {brief(seed)}") from None
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if np is not None:
        return np.random.default_rng(seed)
    from ._pcg64 import Generator

    return Generator(seed)


def random_network(
    seed,
    node_count: int,
    link_density: float = 0.6,
    channel_family: str = "x",
) -> Network:
    """Draw a connected random network with one channel per kept pair.

    seed may be a nonnegative int or a numpy Generator; an int seed draws
    what numpy's default_rng(seed) draws, bit for bit, whether or not
    numpy is loaded (see _generator). Node names are N00, N01... and link
    ids L000, L001... in sorted pair order. node_count runs from 2 to
    MAX_RANDOM_NODES. Gives up after 100 disconnected draws.
    """
    rng = _generator(seed)
    node_count = _integer(node_count, "node_count")
    if not 2 <= node_count <= MAX_RANDOM_NODES:
        raise DomainError(f"need 2 to {MAX_RANDOM_NODES} nodes, got {node_count}")
    if not isinstance(link_density, (int, float)) or not 0.0 < link_density <= 1.0:
        raise DomainError(f"link_density must be in (0, 1], got {brief(link_density)}")
    sample = _SAMPLERS.get(channel_family) if isinstance(channel_family, str) else None
    if sample is None:
        raise DomainError(f"unknown channel family {brief(channel_family)}")
    # every network drawn reuses these names and ids, so they are interned
    names = [sys.intern(f"N{i:02d}") for i in range(node_count)]
    pairs = [(names[i], names[j]) for i in range(node_count) for j in range(i + 1, node_count)]
    for _ in range(100):
        kept = [pair for pair, u in zip(pairs, rng.random(len(pairs)).tolist()) if u < link_density]
        if not _connected(names, kept):
            continue
        links = [
            Link(u, v, sys.intern(f"L{index:03d}"), sample(rng))
            for index, (u, v) in enumerate(kept)
        ]
        return Network(names, links)
    raise GenerationError("could not draw a connected network in 100 attempts")


def find_violation(
    seed: int,
    attempts: int = 1000,
    channel_family: str = "x",
    node_range: tuple[int, int] = (4, 6),
):
    """Search random networks for a prefix-optimality violation.

    Draws networks from a master seed and scans sources in sorted order;
    the first witness wins, so a given seed always reproduces the same
    (network, witness, attempts_used) triple, the same whether numpy or
    its plain-Python port draws (see _generator). Raises GenerationError
    when the attempt budget runs out.
    """
    master = _generator(seed)
    attempts = _integer(attempts, "attempts")
    if attempts < 1:
        raise DomainError(f"attempts must be positive, got {attempts}")
    try:
        lo, hi = node_range
    except (TypeError, ValueError):
        raise DomainError(f"node_range must be a pair (LO, HI), got {brief(node_range)}") from None
    lo, hi = _integer(lo, "node_range LO"), _integer(hi, "node_range HI")
    if not 2 <= lo <= hi <= MAX_RANDOM_NODES:
        raise DomainError(f"bad node range {node_range}: need 2 <= LO <= HI <= {MAX_RANDOM_NODES}")
    for attempt in range(1, attempts + 1):
        node_count = int(master.integers(lo, hi + 1))
        net_seed = int(master.integers(0, 2**32))
        network = random_network(net_seed, node_count, channel_family=channel_family)
        for source in network.nodes:
            witness = check_optimal_substructure(network, source)
            if witness is not None:
                return network, witness, attempt
    raise GenerationError(f"no violation found in {attempts} attempts")
