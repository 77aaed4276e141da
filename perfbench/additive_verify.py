"""additive-verify: in-process route-and-verify queries on one large
geometric pure network.

An operation is `verify --method dijkstra` without the exact twin:
additive_model_applies, dijkstra_route, path_channels and the simulator's
average_azimuthal_fidelity, checked against the closed form.
"""

from __future__ import annotations

import json

import numpy as np

from gen import geometric_data, giant_component, stratified_pairs
from stats import distribution, median_ms
from teleroute import fidmodel, netfile, netgraph, telesim

NODES = 1000
RADIUS = 0.05
QUERIES = 60  # distinct (src, dst) pairs, one pass
D_LO, D_HI = 0.05, 0.7  # straight-line distance range of the queries
TOL = 1e-9
PROBE_REPEATS = 5


class AdditiveVerify:
    name = "additive-verify"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.file = workdir / f"geometric-{NODES}-seed{seed}.json"

    def prepare(self):
        pass

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        data, positions = geometric_data(rng, NODES, RADIUS)
        self.file.write_text(json.dumps(data))
        self.network = netfile.parse_network(json.loads(self.file.read_text()))
        self.giant = giant_component(self.network)
        self.ops = stratified_pairs(rng, positions, self.giant, QUERIES, D_LO, D_HI)
        self.run(self.ops[0])

    def reference(self):
        pass

    def kind(self, op):
        return "verify"

    def run(self, op):
        src, dst = op
        net = self.network
        applies = netgraph.additive_model_applies(net)
        route = netgraph.dijkstra_route(net, src, dst)
        channels = netgraph.path_channels(net, route.path)
        simulated = telesim.average_azimuthal_fidelity(channels)
        return applies, route, channels, simulated.value

    def check(self, op, answer):
        applies, route, channels, simulated = answer
        path = route.path
        closed = fidmodel.pure_path_fidelity(channels)
        return (
            applies
            and path.nodes[0] == op[0]
            and path.nodes[-1] == op[1]
            and abs(route.objective.fidelity - closed) <= TOL
            and abs(simulated - closed) <= TOL
        )

    def canon(self, op, answer):
        _, route, _, simulated = answer
        return [list(route.path.link_ids), f"{route.objective.fidelity:.12g}", f"{simulated:.12g}"]

    def sizes(self, records):
        hops = [len(r["answer"][1].path.link_ids) for r in records]
        return {
            "nodes": len(self.network.nodes),
            "links": len(self.network.links),
            "giant_component_nodes": len(self.giant),
            "queries_per_pass": len(self.ops),
            "hops": distribution(hops),
        }

    def trace_targets(self, tracer):
        for attr in ("additive_model_applies", "dijkstra_route", "path_channels"):
            tracer.spans_on("netgraph", attr)
        tracer.spans_on("telesim", "average_azimuthal_fidelity")
        tracer.count_on("telesim", "teleport_once")

    def layer_probes(self, tracer):
        """Time the one-off layers of setup on the large network."""
        data = json.loads(self.file.read_text())
        for _ in range(PROBE_REPEATS):
            with tracer.span("netfile.parse_network"):
                net = netfile.parse_network(data)
        for _ in range(PROBE_REPEATS):
            with tracer.span("netgraph.Network"):
                netgraph.Network(net.nodes, net.links)

    def layer_metrics(self, summary, counts, records, probes):
        ops = len(records)
        hops = sum(len(r["answer"][1].path.link_ids) for r in records)
        sim = summary["telesim.average_azimuthal_fidelity"]
        return {
            "netfile.parse_network_ms.large": median_ms(probes, "netfile.parse_network"),
            "netgraph.Network_ms.large": median_ms(probes, "netgraph.Network"),
            "netgraph.additive_model_applies_ms": median_ms(summary, "netgraph.additive_model_applies"),
            "netgraph.dijkstra_route_ms": median_ms(summary, "netgraph.dijkstra_route"),
            "telesim.average_azimuthal_fidelity_ms": median_ms(summary, "telesim.average_azimuthal_fidelity"),
            "telesim.ms_per_hop": sim["total_ms"] / hops,
            "telesim.teleport_once_calls_per_op": counts["telesim.teleport_once"] / ops,
        }

