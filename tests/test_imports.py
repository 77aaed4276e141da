"""What the package loads: the public names, and numpy only where needed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import teleroute

from conftest import FIXTURES

SRC = Path(teleroute.__file__).resolve().parent.parent

# every public name of the package, the simulator's among them
PUBLIC_NAMES = (
    "ADDITIVE_TOL", "CapExceededError", "ChannelState",
    "DegenerateError", "DomainError", "EmptyPathError", "FORMAT_VERSION",
    "FidelityEstimate", "GenerationError", "Link", "LinkReport", "LinkWeights",
    "MeasurementBasis", "Network", "NoPathError", "NotAdditiveError",
    "ParseError", "Path", "PathObjective", "PlanConflictError",
    "PreparationAssessment", "PreparationPlan", "PureSchmidtChannel",
    "RouteResult", "SwapBranch", "SwapFormulaResult", "TelerouteError",
    "UnphysicalSwapError", "VIOLATION_MARGIN", "ValidationError",
    "ViolationWitness", "WernerGenChannel", "XState", "additive_model_applies",
    "all_simple_paths", "as_x_state",
    "average_azimuthal_fidelity", "bell_basis",
    "check_optimal_substructure", "computational_basis", "dijkstra_route",
    "exact_route", "find_violation", "link_reports", "link_weights",
    "load_network", "negativity", "network_to_data",
    "parse_network", "partial_transpose", "path_channels", "path_objective",
    "preparation_expected_fidelity", "propose_plan", "pure_path_fidelity",
    "random_basis", "random_network", "random_x_state", "save_network",
    "simulate_swap", "swap_formula", "teleport_once",
    "to_density_matrix", "validate_density_matrix", "werner_path_fidelity",
)

# Runs in a fresh interpreter: the test process has numpy loaded already.
# "import" records whether importing the package, the CLI and the simulator
# loaded numpy.
_PROBE = """
import contextlib, io, json, sys
import teleroute, teleroute.cli, teleroute.telesim
seen = {"import": "numpy" in sys.modules}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = teleroute.cli.main(argv)
    seen[name] = "numpy" in sys.modules if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


def _probe(commands):
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_every_public_name_imports():
    for name in PUBLIC_NAMES:
        assert getattr(teleroute, name) is not None, name
    namespace = {}
    exec(f"from teleroute import {', '.join(PUBLIC_NAMES)}", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(teleroute))


def test_simulator_names_are_the_simulator_module_attributes():
    from teleroute import telesim

    assert teleroute.telesim is telesim
    assert teleroute.average_azimuthal_fidelity is telesim.average_azimuthal_fidelity
    assert teleroute.FidelityEstimate is telesim.FidelityEstimate


def test_routing_commands_do_not_load_numpy():
    triangle = str(FIXTURES / "triangle_pure.json")
    witness = str(FIXTURES / "witness.json")
    swap = str(FIXTURES / "swap_triangle.json")
    seen = _probe([
        ["route", ["route", "--network", triangle, "--src", "A", "--dst", "B"]],
        ["route-exact", ["route", "--network", witness, "--src", "A", "--dst", "D"]],
        ["swap-prepare", ["swap-prepare", "--network", swap, "--src", "A", "--dst", "B",
                          "--swap-node", "C"]],
        ["validate", ["validate", "--network", triangle]],
    ])
    assert seen == {
        "import": False, "route": False, "route-exact": False, "swap-prepare": False,
        "validate": False,
    }


def test_verify_loads_the_simulator_on_first_use():
    # the simulator is plain Python: running it first in a process loads no numpy
    triangle = str(FIXTURES / "triangle_pure.json")
    seen = _probe([["verify", ["verify", "--network", triangle, "--src", "A", "--dst", "B"]]])
    assert seen == {"import": False, "verify": False}
