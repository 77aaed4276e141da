"""cli-oneshot: sequential `python -m teleroute.cli` processes over a fixed
mix, one child at a time, timed from spawn to exit.

This is the only workload where interpreter start and imports count.
Every answer is checked against the library answer computed in the
parent process, untimed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
from stats import median_ms
from teleroute import netfile, netgraph, swapprep

FILE_NODES = 300
FILE_RADIUS = 0.09  # about 1100 links on 300 nodes
ROUTES_ON_FILE = 3
FIND_VIOLATION_SEEDS = 3
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 60
TOL = 1e-9
ROOT = Path(__file__).resolve().parents[1]

FIXTURES = {
    "triangle_pure": ("A", "B"),
    "witness": ("A", "D"),
    "swap_triangle": ("A", "B"),
}


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.file = workdir / f"geometric-{FILE_NODES}-seed{seed}.json"
        src = str(ROOT / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        self.fv_seeds = [int(s) for s in rng.integers(0, 10_000, size=FIND_VIOLATION_SEEDS)]
        ops = []
        for name, (src, dst) in FIXTURES.items():
            path = f"fixtures/{name}.json"
            ops.append(("validate", "--network", path))
            ops.append(("route", "--network", path, "--src", src, "--dst", dst))
            ops.append(("verify", "--network", path, "--src", src, "--dst", dst))
        ops.append(("swap-prepare", "--network", "fixtures/swap_triangle.json",
                    "--src", "A", "--dst", "B", "--swap-node", "C"))
        ops += [("find-violation", "--seed", str(s)) for s in self.fv_seeds]
        self.base_ops = ops

    def setup(self):
        rng = np.random.default_rng([self.seed, 1, 1])
        data, positions = gen.geometric_data(rng, FILE_NODES, FILE_RADIUS)
        self.file.write_text(json.dumps(data))
        self.data = data
        network = netfile.parse_network(data)
        rel = str(self.file.relative_to(ROOT))
        pairs = gen.stratified_pairs(rng, positions, gen.giant_component(network), ROUTES_ON_FILE, 0.4, 0.7)
        self.ops = self.base_ops + [("route", "--network", rel, "--src", s, "--dst", d) for s, d in pairs]
        self.run(self.ops[0])

    def reference(self):
        """Library answers, computed in this process."""
        self.expected = {}
        for op in self.ops:
            argv = _argv_dict(op)
            if op[0] == "find-violation":
                _, witness, attempts = netgraph.find_violation(int(argv["--seed"]))
                self.expected[op] = (witness.margin, attempts)
                continue
            network = netfile.load_network(ROOT / argv["--network"])
            if op[0] == "validate":
                self.expected[op] = len(network.links)
            elif op[0] == "swap-prepare":
                plan = swapprep.propose_plan(network, argv["--src"], argv["--dst"], argv["--swap-node"])
                self.expected[op] = swapprep.preparation_expected_fidelity(
                    network, argv["--src"], argv["--dst"], plan
                ).expected_fidelity
            else:
                route = (
                    netgraph.dijkstra_route
                    if netgraph.additive_model_applies(network)
                    else netgraph.exact_route
                )(network, argv["--src"], argv["--dst"])
                self.expected[op] = route.objective.fidelity

    def kind(self, op):
        if op[0] == "route" and not op[2].startswith("fixtures/"):
            return "route-file"
        return op[0]

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "teleroute.cli", *op],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def check(self, op, answer):
        code, stdout = answer
        if code != 0:
            return False
        result = json.loads(stdout)["result"]
        want = self.expected[op]
        if op[0] == "validate":
            return result["valid"] is True and result["link_count"] == want
        if op[0] == "route":
            return abs(result["objective"]["fidelity"] - want) <= TOL
        if op[0] == "verify":
            return result["verified"] is True and abs(result["fidelity"] - want) <= TOL
        if op[0] == "swap-prepare":
            f = result["fidelity"]
            return abs(f["expected"] - want) <= TOL and f["expected"] >= f["base"]
        margin, attempts = want
        w = result["witness"]
        return (
            result["attempts_used"] == attempts
            and abs(w["margin"] - margin) <= TOL
            and w["margin"] > netgraph.VIOLATION_MARGIN
        )

    def canon(self, op, answer):
        return json.loads(answer[1])["result"]

    def sizes(self, records):
        network = netfile.parse_network(self.data)
        hops = [
            json.loads(r["answer"][1])["result"]["path"]["hops"]
            for r in records
            if self.kind(r["op"]) == "route-file"
        ]
        return {
            "ops_per_pass": len(self.ops),
            "file_nodes": len(network.nodes),
            "file_links": len(network.links),
            "file_route_hops": sorted(hops),
            "find_violation_seeds": self.fv_seeds,
        }

    def trace_targets(self, tracer):
        pass

    def layer_probes(self, tracer):
        """Process floor, import cost and the in-process parse of the file."""
        for name, code in (("cli.interp", "pass"), ("cli.import", "import teleroute.cli")):
            for _ in range(PROBE_REPEATS):
                with tracer.span(name):
                    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                                   check=True, timeout=CHILD_TIMEOUT_S)
        for _ in range(PROBE_REPEATS):
            with tracer.span("netfile.parse_network"):
                netfile.parse_network(self.data)

    def layer_metrics(self, summary, counts, records, probes):
        handler = [json.loads(r["answer"][1])["runtime_s"] * 1e3 for r in records]
        on_file = [h for r, h in zip(records, handler) if self.kind(r["op"]) == "route-file"]
        interp = median_ms(probes, "cli.interp")
        return {
            "cli.interp_ms": interp,
            "cli.import_ms": median_ms(probes, "cli.import") - interp,
            "cli.handler_ms": statistics.median(handler),
            "cli.handler_ms.route-file": statistics.median(on_file),
            "cli.outside_handler_ms": statistics.median(
                r["op_ms"] - h for r, h in zip(records, handler)
            ),
            "netfile.parse_network_ms.medium": median_ms(probes, "netfile.parse_network"),
        }


def _argv_dict(op):
    return dict(zip(op[1::2], op[2::2]))
