"""Fidelity-aware routing and entanglement swapping over networks of
two-qubit channels.

The public names are loaded on first use (PEP 562): importing the package
loads none of its modules, and reading a name imports only the module
that defines it (and what that module imports), so a command line run
pays only for the modules it uses.
"""

__version__ = "0.1.0"

# each submodule, with the public names it defines
_EXPORTS = {
    "errors": (
        "CapExceededError",
        "DegenerateError",
        "DomainError",
        "EmptyPathError",
        "GenerationError",
        "NoPathError",
        "NotAdditiveError",
        "ParseError",
        "PlanConflictError",
        "TelerouteError",
        "UnphysicalSwapError",
        "ValidationError",
    ),
    "fidmodel": (
        "LinkWeights",
        "PathObjective",
        "link_weights",
        "path_objective",
        "pure_path_fidelity",
        "werner_path_fidelity",
    ),
    "netfile": (
        "FORMAT_VERSION",
        "load_network",
        "network_to_data",
        "parse_network",
        "save_network",
    ),
    "netgraph": (
        "VIOLATION_MARGIN",
        "Link",
        "Network",
        "Path",
        "RouteResult",
        "ViolationWitness",
        "additive_model_applies",
        "all_simple_paths",
        "check_optimal_substructure",
        "dijkstra_route",
        "exact_route",
        "find_violation",
        "path_channels",
        "random_network",
    ),
    "qcore": (
        "ChannelState",
        "PureSchmidtChannel",
        "WernerGenChannel",
        "XState",
        "as_x_state",
        "negativity",
        "random_x_state",
    ),
    "swapprep": (
        "PreparationAssessment",
        "PreparationPlan",
        "SwapFormulaResult",
        "preparation_expected_fidelity",
        "propose_plan",
        "swap_formula",
    ),
    "telesim": ("FidelityEstimate", "average_azimuthal_fidelity", "teleport_once"),
}
# the one name -> module table the lookups read
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# teleroute.<module> resolves without an explicit import, as it did when
# the package imported every module
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
