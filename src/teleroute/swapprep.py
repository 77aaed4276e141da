"""Entanglement swapping: closed-form model and route preparation.

The closed-form model (swap_formula) turns the negativities of two pure
links joined at a node into the negativity of the merged link, a success
probability and the physicality of that projection. Its independent
check, a simulator that builds the four-qubit state and measures the
middle pair, lives with the tests (tests/oracles.py). The two are
cross-checked only through inequalities, so neither may be expressed
through the other.

Preparation plans use the closed-form model: consume two spare pure
links at a node, on success insert a merged link between their far
endpoints, and report what that does to the expected fidelity of a
source-destination route.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .errors import (
    DegenerateError,
    DomainError,
    PlanConflictError,
    UnphysicalSwapError,
    ValidationError,
)
from .netgraph import Link, Network, exact_route
from .qcore import PureSchmidtChannel, negativity


class SwapFormulaResult(Frozen):
    """Outputs of the closed-form swap model for input negativities."""

    __slots__ = ("delta_1", "delta_2", "gamma", "new_negativity", "success_probability", "physical")


def swap_formula(n1: float, n2: float) -> SwapFormulaResult:
    """Closed-form merge of two pure links with negativities n1, n2.

    delta_k = arcsin(n_k) / 2
    gamma   = 2 - cos(delta_1 - delta_2) - cos(delta_1 + delta_2)
    n'      = 2 n1 n2 / gamma
    p       = (1 - sqrt(1 - n1) sqrt(1 - n2)) / 2

    n' is reported as computed; physical is False when it leaves [0, 1],
    and such a result cannot seed a preparation plan.
    """
    for name, n in (("n1", n1), ("n2", n2)):
        if not 0.0 <= n <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {n}")
    if n1 == 0.0 and n2 == 0.0:
        raise DegenerateError("both inputs are separable: the merge denominator vanishes")
    delta_1 = math.asin(n1) / 2.0
    delta_2 = math.asin(n2) / 2.0
    gamma = 2.0 - math.cos(delta_1 - delta_2) - math.cos(delta_1 + delta_2)
    new_negativity = 2.0 * n1 * n2 / gamma
    success_probability = (1.0 - math.sqrt(1.0 - n1) * math.sqrt(1.0 - n2)) / 2.0
    physical = 0.0 <= new_negativity <= 1.0
    return SwapFormulaResult(delta_1, delta_2, gamma, new_negativity, success_probability, physical)


class PreparationPlan(Frozen):
    """Consume two spare pure links at swap_node; on success a merged
    pure link appears between their far endpoints."""

    __slots__ = ("swap_node", "consumed_link_ids", "endpoints", "new_negativity", "success_probability")

    def __init__(
        self,
        swap_node: str,
        consumed_link_ids: tuple[str, str],
        endpoints: tuple[str, str],
        new_negativity: float,
        success_probability: float,
    ):
        if len(set(consumed_link_ids)) != 2:
            raise ValidationError("plan must consume two distinct links")
        if endpoints[0] == endpoints[1]:
            raise ValidationError("merged link endpoints must differ")
        super().__init__(swap_node, consumed_link_ids, endpoints, new_negativity, success_probability)


class PreparationAssessment(Frozen):
    """Fidelity accounting of a plan for a fixed source-destination pair."""

    __slots__ = (
        "plan",
        "success_link_id",
        "base_fidelity",
        "success_fidelity",
        "failure_fidelity",
        "expected_fidelity",
    )


def propose_plan(network: Network, src: str, dst: str, swap_node: str) -> PreparationPlan:
    """Pick the two best spare pure links at swap_node.

    Spare means: not on the canonical best src->dst route. Links are
    ranked by negativity (ties by link id) and the runner-up must reach a
    different far endpoint than the leader. Raises PlanConflictError when
    no valid pair exists and UnphysicalSwapError when the best pair
    projects outside [0, 1].
    """
    network._at(swap_node)  # DomainError for an unknown swap node, before any search
    base = exact_route(network, src, dst)
    on_route = set(base.path.link_ids)
    candidates = []
    for other, link in network.neighbors(swap_node):
        if link.link_id in on_route:
            continue
        if not isinstance(link.channel, PureSchmidtChannel):
            continue
        n = negativity(link.channel)
        if n <= 0.0:
            continue
        candidates.append((-n, link.link_id, other))
    candidates.sort()
    if len(candidates) < 2:
        raise PlanConflictError(f"fewer than two spare entangled pure links at {swap_node!r}")
    lead = candidates[0]
    partner = next((c for c in candidates[1:] if c[2] != lead[2]), None)
    if partner is None:
        raise PlanConflictError(f"all spare links at {swap_node!r} reach the same far endpoint")
    formula = swap_formula(-lead[0], -partner[0])
    if not formula.physical:
        raise UnphysicalSwapError(
            f"merged negativity {formula.new_negativity} lies outside [0, 1]"
        )
    id_pair = tuple(sorted((lead[1], partner[1])))
    endpoint_pair = tuple(sorted((lead[2], partner[2])))
    return PreparationPlan(
        swap_node=swap_node,
        consumed_link_ids=id_pair,
        endpoints=endpoint_pair,
        new_negativity=formula.new_negativity,
        success_probability=formula.success_probability,
    )


def preparation_expected_fidelity(
    network: Network, src: str, dst: str, plan: PreparationPlan
) -> PreparationAssessment:
    """Expected best-route fidelity after attempting a plan.

    Both branches consume the two links. Success additionally inserts the
    merged link between the plan endpoints. Because consumed links are
    required to be off the best route, the failure branch keeps the base
    route (removing links cannot add a better one), so the expectation
    never drops below the base fidelity.
    """
    id1, id2 = plan.consumed_link_ids
    links = (network.link(id1), network.link(id2))
    far = []
    for link in links:
        if not isinstance(link.channel, PureSchmidtChannel):
            raise DomainError(f"consumed link {link.link_id!r} is not a pure channel")
        if plan.swap_node not in (link.u, link.v):
            raise DomainError(f"link {link.link_id!r} is not incident to {plan.swap_node!r}")
        far.append(link.v if link.u == plan.swap_node else link.u)
    if far[0] == far[1]:
        raise PlanConflictError("consumed links reach the same far endpoint")
    if tuple(sorted(far)) != tuple(sorted(plan.endpoints)):
        raise DomainError("plan endpoints do not match the consumed links")
    base = exact_route(network, src, dst)
    if set(plan.consumed_link_ids) & set(base.path.link_ids):
        raise PlanConflictError("plan consumes a link on the best route")
    formula = swap_formula(negativity(links[0].channel), negativity(links[1].channel))
    if not formula.physical:
        raise UnphysicalSwapError(
            f"merged negativity {formula.new_negativity} lies outside [0, 1]"
        )
    success_link_id = f"swap:{id1}+{id2}"
    merged = PureSchmidtChannel(math.asin(formula.new_negativity) / 2.0)
    u, v = sorted(far)
    success_net = network._derived(
        [l for l in network.links if l.link_id not in plan.consumed_link_ids]
        + [Link(u, v, success_link_id, merged)]
    )
    success_fidelity = exact_route(success_net, src, dst).objective.fidelity
    base_fidelity = base.objective.fidelity
    p = formula.success_probability
    return PreparationAssessment(
        plan=plan,
        success_link_id=success_link_id,
        base_fidelity=base_fidelity,
        success_fidelity=success_fidelity,
        failure_fidelity=base_fidelity,
        expected_fidelity=p * success_fidelity + (1.0 - p) * base_fidelity,
    )
