"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the numpy Generator it is given,
so one seed always yields the same files, networks and query lists.
Channels are built from the package's own constructors; only geometry,
endpoint choice and the expansion counts that select instances live
here. The counts never call the search code under test.
"""

from __future__ import annotations

import math

import numpy as np

from teleroute import netgraph
from teleroute.netgraph import Link, Network
from teleroute.qcore import PureSchmidtChannel

# -ln N of a link grows with the square of its length, so the best route
# takes many short hops, as it would between real nearby repeaters.
_NEG_MAX = 0.999
_NEG_FALL = 2.0


def geometric_data(rng: np.random.Generator, node_count: int, radius: float):
    """Pure-channel network file data for nodes placed in the unit square.

    Nodes closer than radius are linked; link negativity falls with link
    length. Returns (file data, {node name: (x, y)}).
    """
    pts = rng.uniform(0.0, 1.0, size=(node_count, 2))
    names = [f"G{i:04d}" for i in range(node_count)]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    iu, ju = np.triu_indices(node_count, 1)
    keep = dist[iu, ju] < radius
    links = []
    for k, (i, j) in enumerate(zip(iu[keep].tolist(), ju[keep].tolist())):
        neg = _NEG_MAX * math.exp(-_NEG_FALL * (dist[i, j] / radius) ** 2)
        links.append(
            {
                "id": f"E{k:05d}",
                "u": names[i],
                "v": names[j],
                "channel": {"type": "pure", "theta": math.asin(neg) / 2.0},
            }
        )
    data = {"format_version": 1, "nodes": names, "links": links}
    return data, {name: (float(x), float(y)) for name, (x, y) in zip(names, pts)}


def giant_component(network: Network) -> list[str]:
    """Sorted node names of the largest connected component."""
    seen: set[str] = set()
    best: list[str] = []
    for start in network.nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            for other, _ in network.neighbors(stack.pop()):
                if other not in seen:
                    seen.add(other)
                    comp.append(other)
                    stack.append(other)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def stratified_pairs(rng, positions, nodes, count: int, d_lo: float, d_hi: float):
    """count (src, dst) pairs whose straight-line distances cover
    [d_lo, d_hi] evenly, one per stratum.

    Stratifying by distance keeps the per-query cost mix nearly the same
    from seed to seed, which random pairs do not.
    """
    xy = np.array([positions[n] for n in nodes])
    pairs = []
    for i in range(count):
        target = d_lo + (d_hi - d_lo) * (i + rng.uniform()) / count
        s = int(rng.integers(len(nodes)))
        d = np.abs(np.hypot(*(xy - xy[s]).T) - target)
        d[s] = np.inf
        pairs.append((nodes[s], nodes[int(np.argmin(d))]))
    return pairs


class TooManyExpansions(Exception):
    pass


def _adjacency(network: Network) -> dict:
    """{node: [(other, link), ...]}, sorted by (other, link id)."""
    adj: dict[str, list] = {n: [] for n in network.nodes}
    for link in network.links:
        adj[link.u].append((link.v, link))
        adj[link.v].append((link.u, link))
    return {n: sorted(e, key=lambda e: (e[0], e[1].link_id)) for n, e in adj.items()}


def simple_path_expansions(network: Network, src: str, dst: str | None, cap: int) -> int:
    """Nodes expanded by a depth-first enumeration of every simple path
    from src (ending at dst, which is not expanded, when dst is given).

    Raises TooManyExpansions past cap. This reads only the network's
    links, so it measures an instance's size whatever the search code
    under test does.
    """
    adj = _adjacency(network)
    visited = {src}
    expanded = 0

    def visit(node):
        nonlocal expanded
        if node == dst:
            return
        expanded += 1
        if expanded > cap:
            raise TooManyExpansions
        for other, _ in adj[node]:
            if other not in visited:
                visited.add(other)
                visit(other)
                visited.discard(other)

    visit(src)
    return expanded


def pure_bound_expansions(network: Network, src: str, dst: str, cap: int) -> int:
    """Nodes expanded by a reference branch and bound for the best path
    src -> dst on a pure network.

    On pure links the path fidelity is (3 + product of negativities) / 4,
    so a branch is dropped when its negativity product falls strictly
    below the best complete path's. Raises TooManyExpansions past cap.
    """
    adj = _adjacency(network)
    neg = {link.link_id: math.sin(2.0 * link.channel.theta) for link in network.links}
    visited = {src}
    expanded = 0
    best = None

    def visit(node, product):
        nonlocal expanded, best
        if node == dst:
            best = product if best is None else max(best, product)
            return
        expanded += 1
        if expanded > cap:
            raise TooManyExpansions
        for other, link in adj[node]:
            if other in visited:
                continue
            extended = product * neg[link.link_id]
            if best is not None and extended < best:
                continue
            visited.add(other)
            visit(other, extended)
            visited.discard(other)

    visit(src, 1.0)
    return expanded


def complete_bell_network(size: int) -> Network:
    """Complete graph of Bell links: nothing prunes, the direct link wins."""
    names = [f"K{i}" for i in range(size)]
    bell = PureSchmidtChannel(math.pi / 4.0)
    links = [
        Link(names[i], names[j], f"k{i}-{j}", bell)
        for i in range(size)
        for j in range(i + 1, size)
    ]
    return Network(names, links)


HUB = "HUB"
LEAF = "LEAF"


def hub_network(seed: int, core_nodes: int, core_density: float, spokes: int) -> Network:
    """A random pure core plus a hub joined to it by weak pure spokes
    (N <= 0.28) and by one Bell spoke to a leaf that only the hub reaches.

    No route between core nodes can use the Bell spoke, so the planner's
    best spare pair is always the Bell spoke and a weak one, and that
    pair merges to a physical link (n' <= 0.94).
    """
    rng = np.random.default_rng(seed)
    core = netgraph.random_network(rng, core_nodes, core_density, "pure")
    ends = sorted(rng.choice(len(core.nodes), size=spokes, replace=False).tolist())
    negs = rng.uniform(0.05, 0.28, size=spokes).tolist()
    links = list(core.links) + [Link(HUB, LEAF, "S-bell", PureSchmidtChannel(math.pi / 4.0))]
    for k, (end, neg) in enumerate(zip(ends, negs)):
        links.append(Link(HUB, core.nodes[end], f"S{k}", PureSchmidtChannel(math.asin(neg) / 2.0)))
    return Network(list(core.nodes) + [HUB, LEAF], links)
