"""exact-search: a fixed rotation of small non-additive and hostile
instances for the branch-and-bound core, the generators and swap planning.

Classes (per pass):
  exact-easy     exact_route on random x / werner networks, n = 14
  exact-hostile  exact_route on a complete Bell graph K8 (nothing prunes)
                 and on random pure networks of 48 nodes, the unbudgeted
                 exact twin that `verify` runs on every additive network
  substructure   check_optimal_substructure on random x networks, n = 10
  find-violation find_violation on seeds
  swap-plan      propose_plan + preparation_expected_fidelity on a hub network

Random instances are drawn from the seed and kept only when their size,
counted untimed in prepare() by the benchmark's own searches in gen.py,
falls inside a fixed band: simple-path enumeration for exact-easy and
substructure, a reference branch and bound for the 48-node twins. That
fixes the work per instance the way a node count fixes a size, and it
never runs the search code under test, so a faster search sees the same
instances. Without it, one seed in a few dozen draws a twin that runs for
seconds (the defect documented in README.md), and the brute force's
memory would vary with the seed.
"""

from __future__ import annotations

import statistics

import numpy as np

import gen
from stats import calls_per_op, distribution, median_ms
from teleroute import fidmodel, netgraph, swapprep

EASY_NODES, EASY_DENSITY, EASY_BAND = 14, 0.3, (0, 6000)
TWIN_NODES, TWIN_DENSITY, TWIN_BAND = 48, 0.08, (1500, 3000)
SUBS_NODES, SUBS_DENSITY, SUBS_BAND = 10, 0.6, (6000, 8000)
K_SIZE = 8
HUB_CORE, HUB_DENSITY, HUB_SPOKES = 10, 0.4, 5

# operations per pass. Every class takes at least a tenth of the time.
# Sorted by latency, the classes run easy < find-violation < swap-plan <
# hostile < substructure, so op_ms_p50 falls inside the easy searches and
# op_ms_p90 among the twins, away from the steps in the latency
# distribution between classes.
PASS = {
    "exact-easy": 140,
    "find-violation": 48,
    "swap-plan": 24,
    "exact-hostile": 30,  # TWINS 48-node twins, the rest K8
    "substructure": 6,
}
# Every K8 call is the same search, so the K8 latencies form one spike,
# and the twins' latencies spread around it. A percentile on a spike
# jumps between its fast and slow value when the host's speed changes
# during a run; among the twins it moves smoothly. So K8 stays a small
# share of the class.
TWINS = 26
TOL = 1e-9
MAX_DRAWS = 400


def _pick(rng, count, draw, band, size):
    """Draw instances until count of them have size(network, *args, cap)
    inside band. Returns (spec, network, size) for each.

    Fails after MAX_DRAWS draws per instance, so a band that no draw
    reaches stops the run instead of spinning.
    """
    out = []
    for _ in range(MAX_DRAWS * count):
        spec, network, args = draw(int(rng.integers(2**32)))
        try:
            n = size(network, *args, cap=band[1])
        except gen.TooManyExpansions:
            continue
        if n >= band[0]:
            out.append((spec, network, n))
            if len(out) == count:
                return out
    raise RuntimeError(f"only {len(out)} of {count} draws fell in the expansion band {band}")


def _best_path(network, paths):
    """Canonical best of the given paths, folding mu and nu link by link."""
    weights = {l.link_id: fidmodel.link_weights(l.channel) for l in network.links}
    best = None
    for path in paths:
        mu = nu = 1.0
        for link_id in path.link_ids:
            w = weights[link_id]
            mu *= w.mu
            nu *= w.nu
        key = (-(2.0 + mu + nu) / 4.0, path.hops, path.nodes, path.link_ids)
        if best is None or key < best:
            best = key
    return best


class ExactSearch:
    name = "exact-search"

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def prepare(self):
        """Seeded instance selection and brute-force references (untimed)."""
        rng = np.random.default_rng([self.seed, 3])

        def easy(sub):
            family = ("x", "werner")[sub % 2]
            net = netgraph.random_network(sub, EASY_NODES, EASY_DENSITY, family)
            src, dst = _endpoints(sub, net)
            return ("easy", sub, family, src, dst), net, (src, dst)

        self.easy = []
        self.easy_paths = []
        for spec, net, _ in _pick(rng, PASS["exact-easy"], easy, EASY_BAND, gen.simple_path_expansions):
            paths = netgraph.all_simple_paths(net, spec[3], spec[4])
            self.easy.append((spec, _best_path(net, paths)))
            self.easy_paths.append(len(paths))

        def twin(sub):
            net = netgraph.random_network(sub, TWIN_NODES, TWIN_DENSITY, "pure")
            src, dst = _endpoints(sub, net)
            return ("twin", sub, src, dst), net, (src, dst)

        self.twins = _pick(rng, TWINS, twin, TWIN_BAND, gen.pure_bound_expansions)

        def subs(sub):
            net = netgraph.random_network(sub, SUBS_NODES, SUBS_DENSITY, "x")
            source = net.nodes[sub % len(net.nodes)]
            return ("subs", sub, source), net, (source, None)

        self.subs = _pick(rng, PASS["substructure"], subs, SUBS_BAND, gen.simple_path_expansions)
        self.fv_seeds = [int(rng.integers(2**31)) for _ in range(PASS["find-violation"])]
        self.hub_seeds = [int(rng.integers(2**32)) for _ in range(PASS["swap-plan"])]
        self.k8_paths = len(netgraph.all_simple_paths(gen.complete_bell_network(K_SIZE), "K0", f"K{K_SIZE - 1}"))
        ops = (
            [("exact-easy", i) for i in range(PASS["exact-easy"])]
            + [("k8", i) for i in range(PASS["exact-hostile"] - TWINS)]
            + [("twin", i) for i in range(TWINS)]
            + [("substructure", i) for i in range(PASS["substructure"])]
            + [("find-violation", i) for i in range(PASS["find-violation"])]
            + [("swap-plan", i) for i in range(PASS["swap-plan"])]
        )
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def setup(self):
        """Build every network of the pass from its seed, then warm up."""
        self.easy_nets = [
            netgraph.random_network(spec[1], EASY_NODES, EASY_DENSITY, spec[2]) for spec, _ in self.easy
        ]
        self.twin_nets = [
            netgraph.random_network(spec[1], TWIN_NODES, TWIN_DENSITY, "pure") for spec, _, _ in self.twins
        ]
        self.subs_nets = [
            netgraph.random_network(spec[1], SUBS_NODES, SUBS_DENSITY, "x") for spec, _, _ in self.subs
        ]
        self.k8 = gen.complete_bell_network(K_SIZE)
        self.hubs = [gen.hub_network(s, HUB_CORE, HUB_DENSITY, HUB_SPOKES) for s in self.hub_seeds]
        for kind in ("exact-easy", "k8", "twin", "substructure", "find-violation", "swap-plan"):
            self.run((kind, 0))

    def reference(self):
        """Twins are pure networks, so Dijkstra gives their answer. A
        substructure answer must repeat the one computed here."""
        self.twin_ref = [
            netgraph.dijkstra_route(net, spec[2], spec[3]).objective.fidelity
            for net, (spec, _, _) in zip(self.twin_nets, self.twins)
        ]
        self.subs_ref = [
            _canon_witness(netgraph.check_optimal_substructure(net, spec[2]))
            for net, (spec, _, _) in zip(self.subs_nets, self.subs)
        ]

    def kind(self, op):
        return "exact-hostile" if op[0] in ("k8", "twin") else op[0]

    def run(self, op):
        kind, i = op
        if kind == "exact-easy":
            spec, _ = self.easy[i]
            return netgraph.exact_route(self.easy_nets[i], spec[3], spec[4])
        if kind == "k8":
            return netgraph.exact_route(self.k8, "K0", f"K{K_SIZE - 1}")
        if kind == "twin":
            spec = self.twins[i][0]
            return netgraph.exact_route(self.twin_nets[i], spec[2], spec[3])
        if kind == "substructure":
            return netgraph.check_optimal_substructure(self.subs_nets[i], self.subs[i][0][2])
        if kind == "find-violation":
            return netgraph.find_violation(self.fv_seeds[i])
        net = self.hubs[i]
        src, dst = _hub_endpoints(net)
        plan = swapprep.propose_plan(net, src, dst, gen.HUB)
        return swapprep.preparation_expected_fidelity(net, src, dst, plan)

    def check(self, op, answer):
        kind, i = op
        if kind == "exact-easy":
            key = self.easy[i][1]
            return (
                answer.path.nodes == key[2]
                and answer.path.link_ids == key[3]
                and abs(answer.objective.fidelity + key[0]) <= TOL
            )
        if kind == "k8":
            return answer.path.nodes == ("K0", f"K{K_SIZE - 1}") and abs(answer.objective.fidelity - 1.0) <= TOL
        if kind == "twin":
            return abs(answer.objective.fidelity - self.twin_ref[i]) <= TOL
        if kind == "substructure":
            ok = answer is None or answer.margin > netgraph.VIOLATION_MARGIN
            return ok and _canon_witness(answer) == self.subs_ref[i]
        if kind == "find-violation":
            return answer[1].margin > netgraph.VIOLATION_MARGIN
        return (
            answer.expected_fidelity >= answer.base_fidelity
            and 0.0 <= answer.plan.new_negativity <= 1.0
        )

    def canon(self, op, answer):
        kind = op[0]
        if kind in ("exact-easy", "k8", "twin"):
            return [list(answer.path.link_ids), f"{answer.objective.fidelity:.12g}"]
        if kind == "substructure":
            return _canon_witness(answer)
        if kind == "find-violation":
            return [answer[2], _canon_witness(answer[1])]
        return [list(answer.plan.consumed_link_ids), f"{answer.expected_fidelity:.12g}"]

    def sizes(self, records):
        return {
            "ops_per_pass": dict(PASS),
            "exact_easy": {"nodes": EASY_NODES, "density": EASY_DENSITY,
                           "simple_paths": distribution(self.easy_paths)},
            "k8_simple_paths": self.k8_paths,
            "twin": {"nodes": TWIN_NODES, "density": TWIN_DENSITY, "expansion_band": list(TWIN_BAND),
                     "links": [len(n.links) for n in self.twin_nets],
                     "expansions": [n for _, _, n in self.twins]},
            "substructure": {"nodes": SUBS_NODES, "density": SUBS_DENSITY, "expansion_band": list(SUBS_BAND),
                             "links": [len(n.links) for n in self.subs_nets],
                             "expansions": [n for _, _, n in self.subs]},
            "swap_hub": {"core_nodes": HUB_CORE, "spokes": HUB_SPOKES,
                         "links": distribution([len(n.links) for n in self.hubs])},
        }

    def trace_targets(self, tracer):
        for attr in ("exact_route", "check_optimal_substructure", "find_violation", "random_network"):
            tracer.spans_on("netgraph", attr)
        for attr in ("propose_plan", "preparation_expected_fidelity"):
            tracer.spans_on("swapprep", attr)

    def layer_probes(self, tracer):
        pass

    def layer_metrics(self, summary, counts, records, probes):
        ids: dict[str, set] = {}
        for r in records:
            ids.setdefault(r["op"][0], set()).add(r["op_id"])
        fv = [r["answer"][2] for r in records if r["op"][0] == "find-violation"]
        plan_ms = {}
        for name in ("swapprep.propose_plan", "swapprep.preparation_expected_fidelity"):
            for ms, op_id in summary[name]["each"]:
                plan_ms[op_id] = plan_ms.get(op_id, 0.0) + ms
        return {
            "netgraph.exact_route_ms.easy": median_ms(summary, "netgraph.exact_route", ids["exact-easy"]),
            "netgraph.exact_route_ms.hostile": median_ms(
                summary, "netgraph.exact_route", ids["k8"] | ids["twin"]
            ),
            "netgraph.check_optimal_substructure_ms": median_ms(
                summary, "netgraph.check_optimal_substructure", ids["substructure"]
            ),
            "netgraph.find_violation_ms": median_ms(summary, "netgraph.find_violation"),
            "netgraph.find_violation_attempts": sum(fv) / len(fv),
            "swapprep.plan_ms": statistics.median(plan_ms.values()),
            "swapprep.exact_route_calls_per_plan": calls_per_op(
                summary, "netgraph.exact_route", ids["swap-plan"]
            ),
        }


def _endpoints(sub, network):
    nodes = network.nodes
    rng = np.random.default_rng(sub)
    a, b = rng.choice(len(nodes), size=2, replace=False)
    return nodes[int(a)], nodes[int(b)]


def _hub_endpoints(network):
    core = [n for n in network.nodes if n not in (gen.HUB, gen.LEAF)]
    return core[0], core[-1]


def _canon_witness(w):
    if w is None:
        return None
    return [w.source, w.mid, w.ext, list(w.best_to_ext.link_ids), f"{w.margin:.12g}"]

