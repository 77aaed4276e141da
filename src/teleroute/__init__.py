"""Fidelity-aware routing and entanglement swapping over networks of
two-qubit channels."""

from .errors import (
    CapExceededError,
    DegenerateError,
    DomainError,
    EmptyPathError,
    GenerationError,
    NoPathError,
    NotAdditiveError,
    ParseError,
    PlanConflictError,
    TelerouteError,
    UnphysicalSwapError,
    ValidationError,
)
from .fidmodel import (
    ADDITIVE_TOL,
    LinkWeights,
    PathObjective,
    link_weights,
    path_objective,
    pure_path_fidelity,
    werner_path_fidelity,
)
from .netfile import (
    FORMAT_VERSION,
    LinkReport,
    link_reports,
    load_network,
    network_to_data,
    parse_network,
    save_network,
)
from .netgraph import (
    VIOLATION_MARGIN,
    Link,
    Network,
    Path,
    RouteResult,
    ViolationWitness,
    additive_model_applies,
    all_simple_paths,
    check_optimal_substructure,
    dijkstra_route,
    exact_route,
    find_violation,
    path_channels,
    random_network,
)
from .qcore import (
    ChannelState,
    PureSchmidtChannel,
    WernerGenChannel,
    XState,
    as_x_state,
    negativity,
    partial_transpose,
    random_x_state,
    to_density_matrix,
    validate_density_matrix,
)
from .swapprep import (
    MeasurementBasis,
    PreparationAssessment,
    PreparationPlan,
    SwapBranch,
    SwapFormulaResult,
    bell_basis,
    computational_basis,
    preparation_expected_fidelity,
    propose_plan,
    random_basis,
    simulate_swap,
    swap_formula,
)
from .telesim import FidelityEstimate, average_azimuthal_fidelity, teleport_once

__version__ = "0.1.0"
