"""What the package loads: the public names, each module only where a
command runs it, and numpy nowhere: the random generators draw with the
package's plain-Python port of it unless numpy is loaded already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleroute

from conftest import FIXTURES

SRC = Path(teleroute.__file__).resolve().parent.parent

# every public name of the package, the simulator's among them
PUBLIC_NAMES = (
    "CapExceededError", "ChannelState",
    "DegenerateError", "DomainError", "EmptyPathError", "FORMAT_VERSION",
    "FidelityEstimate", "GenerationError", "Link", "LinkWeights",
    "Network", "NoPathError", "NotAdditiveError",
    "ParseError", "Path", "PathObjective", "PlanConflictError",
    "PreparationAssessment", "PreparationPlan", "PureSchmidtChannel",
    "RouteResult", "SwapFormulaResult", "TelerouteError",
    "UnphysicalSwapError", "VIOLATION_MARGIN", "ValidationError",
    "ViolationWitness", "WernerGenChannel", "XState", "additive_model_applies",
    "all_simple_paths", "as_x_state",
    "average_azimuthal_fidelity",
    "check_optimal_substructure", "dijkstra_route",
    "exact_route", "find_violation", "link_weights",
    "load_network", "negativity", "network_to_data",
    "parse_network", "path_channels", "path_objective",
    "preparation_expected_fidelity", "propose_plan", "pure_path_fidelity",
    "random_network", "random_x_state", "save_network",
    "swap_formula", "teleport_once", "werner_path_fidelity",
)
# the dense-matrix and swap-simulator oracles, which only the tests use
# and which live with them in tests/oracles.py
ORACLE_NAMES = (
    "MeasurementBasis", "SwapBranch", "bell_basis", "computational_basis",
    "partial_transpose", "random_basis", "simulate_swap", "to_density_matrix",
    "validate_density_matrix",
)

# Runs in a fresh interpreter: the test process has numpy loaded already.
# It imports the given modules, then runs each command in turn. It
# records, after the imports ("import") and after each command, whether
# numpy is loaded or, with watch set, which of the package's submodules
# and of the watched modules are.
_PROBE = """
import contextlib, importlib, io, json, sys
imports, commands, watch = json.loads(sys.argv[1])

def seen_now():
    if watch is None:
        return "numpy" in sys.modules
    return sorted(m for m in sys.modules if m.startswith("teleroute.") or m in watch)

for module in imports:
    importlib.import_module(module)
seen = {"import": seen_now()}
import teleroute.cli
for name, argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = teleroute.cli.main(argv)
    seen[name] = seen_now() if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


def _run(script, *args):
    """Run script in a fresh interpreter that imports the package from SRC
    and return what it prints, parsed as JSON."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def _probe(commands, imports=("teleroute", "teleroute.cli", "teleroute.telesim"), watch=None):
    return _run(_PROBE, json.dumps([imports, commands, watch]))


def test_every_public_name_imports():
    for name in PUBLIC_NAMES:
        assert getattr(teleroute, name) is not None, name
    namespace = {}
    exec(f"from teleroute import {', '.join(PUBLIC_NAMES)}", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(teleroute))


def test_the_oracles_are_not_package_names():
    for name in ORACLE_NAMES:
        with pytest.raises(AttributeError):
            getattr(teleroute, name)


def _numpy_import_scopes(node, scope=()):
    """Yield, for each import of numpy under node, the names of the
    functions and classes around it, with "TYPE_CHECKING" for a guard."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        modules = []
    if any(module.partition(".")[0] == "numpy" for module in modules):
        yield scope
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope += (node.name,)
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
        for child in node.body:
            yield from _numpy_import_scopes(child, scope + ("TYPE_CHECKING",))
        for child in node.orelse:
            yield from _numpy_import_scopes(child, scope)
        return
    for child in ast.iter_child_nodes(node):
        yield from _numpy_import_scopes(child, scope)


def test_no_module_imports_numpy_outside_type_checking():
    found = []
    for path in sorted((SRC / "teleroute").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, scope) for scope in _numpy_import_scopes(tree)]
    assert [f for f in found if f[1] != ("TYPE_CHECKING",)] == []
    # the annotations of the generators' rng
    assert {("netgraph", ("TYPE_CHECKING",)), ("qcore", ("TYPE_CHECKING",))} <= set(found)


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


# the modules a routing command must not load: the swap planner, the
# simulator, and the standard library's dataclasses with its inspect
WATCHED = ["dataclasses", "inspect", "numpy"]
# what route and validate load: the file reader, the search and its models
ROUTING_MODULES = [
    "teleroute._frozen", "teleroute.cli", "teleroute.errors", "teleroute.fidmodel",
    "teleroute.netfile", "teleroute.netgraph", "teleroute.qcore",
]


def test_importing_the_package_loads_no_submodule():
    seen = _probe([], imports=["teleroute"], watch=WATCHED)
    assert seen == {"import": []}


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from teleroute import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_each_command_loads_only_the_modules_it_runs():
    triangle = str(FIXTURES / "triangle_pure.json")
    witness = str(FIXTURES / "witness.json")
    swap = str(FIXTURES / "swap_triangle.json")
    route = ["route", "--network", triangle, "--src", "A", "--dst", "B"]
    route_exact = ["route", "--network", witness, "--src", "A", "--dst", "D"]
    validate = ["--format", "csv", "validate", "--network", witness]
    verify = ["verify", "--network", triangle, "--src", "A", "--dst", "B"]
    find = ["find-violation", "--seed", "3", "--attempts", "200"]
    swap_prepare = ["swap-prepare", "--network", swap, "--src", "A", "--dst", "B", "--swap-node", "C"]
    # one fresh process per command, so each sees only its own imports
    seen = {}
    for name, argv in (("route", route), ("route-exact", route_exact), ("validate", validate),
                       ("verify", verify), ("find-violation", find), ("swap-prepare", swap_prepare)):
        probe = _probe([[name, argv]], imports=["teleroute.cli"], watch=WATCHED)
        assert probe["import"] == ["teleroute.cli", "teleroute.errors"]
        seen[name] = probe[name]
    for name in ("route", "route-exact", "validate"):
        assert seen[name] == ROUTING_MODULES, name
    assert seen["verify"] == sorted(ROUTING_MODULES + ["teleroute.telesim"])
    # find-violation draws its networks with the plain-Python port of numpy's generator
    assert seen["find-violation"] == sorted(ROUTING_MODULES + ["teleroute._pcg64"])
    assert seen["swap-prepare"] == sorted(ROUTING_MODULES + ["teleroute.swapprep"])


# Runs find-violation for each seed given, with numpy blocked, and prints
# the list of their JSON records.
_BLOCKED_FIND = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import teleroute.cli
records = []
for seed in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = teleroute.cli.main(["find-violation", "--seed", seed])
    records.append(json.loads(out.getvalue()) if code == 0 else f"exit {code}")
print(json.dumps(records))
"""


def test_find_violation_without_numpy_writes_numpys_record(capsys):
    seeds = ["1", "2", "3"]
    blocked = _run(_BLOCKED_FIND, *seeds)
    # with numpy loaded, the generators in this process draw with numpy
    import numpy  # noqa: F401

    from teleroute.cli import main

    for seed, record in zip(seeds, blocked, strict=True):
        assert main(["find-violation", "--seed", seed]) == 0
        reference = json.loads(capsys.readouterr().out)
        del record["runtime_s"], reference["runtime_s"]
        assert record == reference
