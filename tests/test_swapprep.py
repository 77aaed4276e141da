import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from teleroute import (
    DegenerateError,
    Link,
    Network,
    PlanConflictError,
    PureSchmidtChannel,
    UnphysicalSwapError,
    ValidationError,
    WernerGenChannel,
    preparation_expected_fidelity,
    propose_plan,
    swap_formula,
)
from teleroute import netgraph, swapprep
from teleroute.errors import DomainError
from teleroute.fidmodel import link_weights
from teleroute.swapprep import PreparationPlan

from conftest import pure_n
from oracles import (
    MeasurementBasis,
    bell_basis,
    computational_basis,
    negativity,
    random_basis,
    simulate_swap,
    validate_density_matrix,
)

BELL = PureSchmidtChannel(math.pi / 4)


class TestSwapFormula:
    def test_frozen_reference_point(self):
        r = swap_formula(1.0, 0.2)
        assert r.delta_1 == pytest.approx(math.pi / 4, abs=1e-15)
        assert r.delta_2 == pytest.approx(0.1006789603951654, abs=1e-12)
        assert r.gamma == pytest.approx(0.5929477987248407, abs=1e-12)
        assert r.new_negativity == pytest.approx(0.6745956403923193, abs=1e-12)
        assert r.success_probability == pytest.approx(0.5, abs=1e-15)
        assert r.physical

    def test_two_bell_pairs_project_unphysically(self):
        r = swap_formula(1.0, 1.0)
        assert r.gamma == pytest.approx(1.0, abs=1e-12)
        assert r.new_negativity == pytest.approx(2.0, abs=1e-12)
        assert r.success_probability == pytest.approx(0.5, abs=1e-15)
        assert not r.physical

    def test_one_separable_input(self):
        r = swap_formula(0.3, 0.0)
        assert r.new_negativity == 0.0
        assert r.success_probability == pytest.approx(0.08166998673296222, abs=1e-12)
        assert r.physical

    def test_is_symmetric(self):
        a = swap_formula(0.7, 0.25)
        b = swap_formula(0.25, 0.7)
        assert a.gamma == pytest.approx(b.gamma, abs=1e-15)
        assert a.new_negativity == pytest.approx(b.new_negativity, abs=1e-15)
        assert a.success_probability == pytest.approx(b.success_probability, abs=1e-15)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateError):
            swap_formula(0.0, 0.0)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            swap_formula(-0.1, 0.5)
        with pytest.raises(DomainError):
            swap_formula(0.5, 1.1)

    @given(
        n1=st.floats(1e-6, 1.0),
        n2=st.floats(1e-6, 1.0),
    )
    def test_outputs_are_sane(self, n1, n2):
        r = swap_formula(n1, n2)
        assert r.gamma > 0.0
        assert r.new_negativity >= 0.0
        assert 0.0 <= r.success_probability <= 0.5


class TestBases:
    def test_bell_basis_is_orthonormal(self):
        b = bell_basis()
        gram = np.array([[np.vdot(x, y) for y in b.vectors] for x in b.vectors])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-15

    def test_computational_basis(self):
        b = computational_basis()
        assert np.allclose(np.array(b.vectors), np.eye(4), atol=0)

    def test_random_basis_is_orthonormal_and_seeded(self):
        b1 = random_basis(np.random.default_rng(5))
        b2 = random_basis(np.random.default_rng(5))
        for v1, v2 in zip(b1.vectors, b2.vectors):
            assert np.array_equal(v1, v2)
        gram = np.array([[np.vdot(x, y) for y in b1.vectors] for x in b1.vectors])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_rejects_non_orthonormal_vectors(self):
        with pytest.raises(ValidationError):
            MeasurementBasis((np.eye(4)[0], np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]))
        with pytest.raises(ValidationError):
            MeasurementBasis((np.eye(4)[0], np.eye(4)[1], np.eye(4)[2]))


class TestSimulateSwap:
    def test_bell_pair_of_bell_pairs(self):
        branches = simulate_swap(BELL, BELL)
        assert len(branches) == 4
        for b in branches:
            assert b.probability == pytest.approx(0.25, abs=1e-12)
            assert negativity(b.post_state) == pytest.approx(1.0, abs=1e-12)

    def test_equal_pure_inputs_in_bell_basis(self):
        theta = 0.4
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        branches = simulate_swap(PureSchmidtChannel(theta), PureSchmidtChannel(theta))
        # outcomes 0, 1 keep the Schmidt form with tan' = tan^2
        p_phi = (c2 * c2 + s2 * s2) / 2
        n_phi = 2 * c2 * s2 / (c2 * c2 + s2 * s2)
        for b in branches[:2]:
            assert b.probability == pytest.approx(p_phi, abs=1e-12)
            assert negativity(b.post_state) == pytest.approx(n_phi, abs=1e-12)
        # outcomes 2, 3 land on maximally entangled states
        for b in branches[2:]:
            assert b.probability == pytest.approx(c2 * s2, abs=1e-12)
            assert negativity(b.post_state) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            ch1 = PureSchmidtChannel(float(rng.uniform(0, math.pi / 4)))
            ch2 = PureSchmidtChannel(float(rng.uniform(0, math.pi / 4)))
            basis = random_basis(rng)
            total = sum(b.probability for b in simulate_swap(ch1, ch2, basis))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_post_states_are_valid(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            ch1 = PureSchmidtChannel(float(rng.uniform(0, math.pi / 4)))
            ch2 = PureSchmidtChannel(float(rng.uniform(0, math.pi / 4)))
            for b in simulate_swap(ch1, ch2, random_basis(rng)):
                if b.post_state is not None:
                    validate_density_matrix(b.post_state)

    def test_zero_probability_branch_has_no_state(self):
        # product inputs measured in the computational basis never land
        # on outcomes whose middle bits mismatch the source amplitudes
        branches = simulate_swap(PureSchmidtChannel(0.0), PureSchmidtChannel(0.0), computational_basis())
        assert branches[0].probability == pytest.approx(1.0, abs=1e-15)
        for b in branches[1:]:
            assert b.probability < 1e-15
            assert b.post_state is None

    def test_average_negativity_never_beats_the_inputs(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            t1 = float(rng.uniform(0.05, math.pi / 4))
            t2 = float(rng.uniform(0.05, math.pi / 4))
            basis = bell_basis() if rng.uniform() < 0.5 else random_basis(rng)
            branches = simulate_swap(PureSchmidtChannel(t1), PureSchmidtChannel(t2), basis)
            avg = sum(
                b.probability * negativity(b.post_state)
                for b in branches
                if b.post_state is not None
            )
            cap = min(math.sin(2 * t1), math.sin(2 * t2))
            assert avg <= cap + 1e-9

    def test_rejects_non_pure_channels(self):
        with pytest.raises(DomainError):
            simulate_swap(BELL, WernerGenChannel(0.9, 0.5))


class TestProposePlan:
    def test_swap_triangle_plan(self, swap_triangle):
        plan = propose_plan(swap_triangle, "A", "B", "C")
        assert plan.swap_node == "C"
        assert plan.consumed_link_ids == ("ac", "cb")
        assert plan.endpoints == ("A", "B")
        assert plan.new_negativity == pytest.approx(0.6745956403923193, abs=1e-12)
        assert plan.success_probability == pytest.approx(0.5, abs=1e-15)

    def test_needs_two_spare_links(self, triangle):
        # best A->B route is A-C-B, so both of C's links are on the route
        with pytest.raises(PlanConflictError):
            propose_plan(triangle, "A", "B", "C")

    def test_rejects_shared_far_endpoint(self):
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "ab", pure_n(0.5)),
                Link("C", "B", "cb1", pure_n(0.4)),
                Link("C", "B", "cb2", pure_n(0.3)),
            ],
        )
        with pytest.raises(PlanConflictError):
            propose_plan(net, "A", "B", "C")

    def test_unphysical_projection_is_refused(self):
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "ab", pure_n(0.999)),
                Link("A", "C", "ac", pure_n(0.99)),
                Link("C", "B", "cb", pure_n(0.99)),
            ],
        )
        with pytest.raises(UnphysicalSwapError):
            propose_plan(net, "A", "B", "C")

    def test_picks_the_two_strongest_spares(self):
        net = Network(
            ["A", "B", "C", "D", "E"],
            [
                Link("A", "B", "ab", pure_n(0.9)),
                Link("C", "A", "ca", pure_n(0.95)),
                Link("C", "B", "cb", pure_n(0.2)),
                Link("C", "D", "cd", pure_n(0.15)),
                Link("C", "E", "ce", pure_n(0.1)),
            ],
        )
        plan = propose_plan(net, "A", "B", "C")
        assert plan.consumed_link_ids == ("ca", "cb")
        assert plan.endpoints == ("A", "B")

    def test_skips_non_pure_and_separable_spares(self):
        # the Werner link is the strongest spare: taken, it would pair
        # with ca into an unphysical merge
        links = [
            Link("A", "B", "ab", pure_n(0.5)),
            Link("C", "A", "ca", pure_n(0.95)),
            Link("C", "D", "cd", WernerGenChannel(1.0, math.pi / 4)),
            Link("C", "E", "ce", pure_n(0.1)),
        ]
        nodes = ["A", "B", "C", "D", "E"]
        plan = propose_plan(Network(nodes, links), "A", "B", "C")
        assert plan.consumed_link_ids == ("ca", "ce")
        assert plan.endpoints == ("A", "E")
        # a separable ce would merge with ca into negativity 0
        links[3] = Link("C", "E", "ce", pure_n(0.0))
        with pytest.raises(PlanConflictError, match="fewer than two"):
            propose_plan(Network(nodes, links), "A", "B", "C")

    def test_unknown_swap_node_is_checked_before_any_search(self, swap_triangle, monkeypatch):
        searches = []
        monkeypatch.setattr(swapprep, "exact_route", lambda *args: searches.append(args))
        with pytest.raises(DomainError, match="unknown node 'Z'"):
            propose_plan(swap_triangle, "A", "B", "Z")
        assert searches == []

    def test_swap_node_neighbours_are_listed_once(self, swap_triangle, monkeypatch):
        listed = []
        neighbors = netgraph.Network.neighbors

        def counted(self, node):
            listed.append(node)
            return neighbors(self, node)

        monkeypatch.setattr(netgraph.Network, "neighbors", counted)
        propose_plan(swap_triangle, "A", "B", "C")
        assert listed == ["C"]


class TestPreparationExpectedFidelity:
    def test_swap_triangle_accounting(self, swap_triangle):
        plan = propose_plan(swap_triangle, "A", "B", "C")
        a = preparation_expected_fidelity(swap_triangle, "A", "B", plan)
        assert a.base_fidelity == pytest.approx(0.875, abs=1e-12)
        assert a.failure_fidelity == pytest.approx(0.875, abs=1e-12)
        assert a.success_fidelity == pytest.approx(0.9186489100980798, abs=1e-12)
        assert a.expected_fidelity == pytest.approx(0.8968244550490399, abs=1e-12)
        assert a.success_link_id == "swap:ac+cb"

    def test_derived_networks_reuse_the_weight_table(self, swap_triangle, monkeypatch):
        plan = propose_plan(swap_triangle, "A", "B", "C")  # caches the table
        calls = []

        def counted(channel):
            calls.append(channel)
            return link_weights(channel)

        monkeypatch.setattr(netgraph, "link_weights", counted)
        a = preparation_expected_fidelity(swap_triangle, "A", "B", plan)
        merged = PureSchmidtChannel(math.asin(plan.new_negativity) / 2.0)
        assert calls == [merged]
        assert a.success_fidelity == pytest.approx(0.9186489100980798, abs=1e-12)

    def test_one_network_is_built_per_assessment(self, swap_triangle, monkeypatch):
        plan = propose_plan(swap_triangle, "A", "B", "C")
        built = []
        init = netgraph.Network.__init__

        def counted(self, nodes, links):
            init(self, nodes, links)
            built.append(self)

        monkeypatch.setattr(netgraph.Network, "__init__", counted)
        a = preparation_expected_fidelity(swap_triangle, "A", "B", plan)
        (success_net,) = built
        assert [l.link_id for l in success_net.links] == ["ab", "swap:ac+cb"]
        assert a.success_fidelity == pytest.approx(0.9186489100980798, abs=1e-12)

    def test_failure_branch_never_hurts(self):
        rng = np.random.default_rng(73)
        found = 0
        while found < 25:
            n_strong = 1.0 - float(rng.uniform(0.0, 0.05))
            n_weak = float(rng.uniform(0.02, 0.28))
            n_route = float(rng.uniform(n_strong * n_weak + 0.05, 1.0))
            net = Network(
                ["A", "B", "C"],
                [
                    Link("A", "B", "ab", pure_n(n_route)),
                    Link("A", "C", "ac", pure_n(n_strong)),
                    Link("C", "B", "cb", pure_n(n_weak)),
                ],
            )
            try:
                plan = propose_plan(net, "A", "B", "C")
            except (PlanConflictError, UnphysicalSwapError):
                continue
            a = preparation_expected_fidelity(net, "A", "B", plan)
            assert a.expected_fidelity >= a.base_fidelity - 1e-12
            assert a.failure_fidelity == a.base_fidelity
            found += 1

    def test_rejects_plans_touching_the_route(self, triangle):
        plan = PreparationPlan(
            swap_node="C",
            consumed_link_ids=("ac", "cb"),
            endpoints=("A", "B"),
            new_negativity=0.5,
            success_probability=0.5,
        )
        with pytest.raises(PlanConflictError):
            preparation_expected_fidelity(triangle, "A", "B", plan)

    def test_rejects_mismatched_endpoints(self, swap_triangle):
        plan = PreparationPlan(
            swap_node="C",
            consumed_link_ids=("ac", "cb"),
            endpoints=("A", "C"),
            new_negativity=0.6745956403923193,
            success_probability=0.5,
        )
        with pytest.raises(DomainError):
            preparation_expected_fidelity(swap_triangle, "A", "B", plan)

    def test_rejects_non_pure_consumed_links(self, swap_triangle):
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "ab", pure_n(0.5)),
                Link("A", "C", "ac", WernerGenChannel(1.0, math.pi / 4)),
                Link("C", "B", "cb", pure_n(0.2)),
            ],
        )
        plan = PreparationPlan(
            swap_node="C",
            consumed_link_ids=("ac", "cb"),
            endpoints=("A", "B"),
            new_negativity=0.5,
            success_probability=0.5,
        )
        with pytest.raises(DomainError):
            preparation_expected_fidelity(net, "A", "B", plan)

    def test_rejects_a_link_away_from_the_swap_node(self, swap_triangle):
        plan = PreparationPlan("C", ("ab", "cb"), ("A", "B"), 0.5, 0.5)
        with pytest.raises(DomainError, match="'ab' is not incident to 'C'"):
            preparation_expected_fidelity(swap_triangle, "A", "B", plan)

    def test_rejects_links_to_one_far_endpoint(self):
        net = Network(
            ["A", "B", "C"],
            [
                Link("A", "B", "ab", pure_n(0.5)),
                Link("C", "B", "cb1", pure_n(0.95)),
                Link("C", "B", "cb2", pure_n(0.1)),
            ],
        )
        plan = PreparationPlan("C", ("cb1", "cb2"), ("A", "B"), 0.5, 0.5)
        with pytest.raises(PlanConflictError, match="same far endpoint"):
            preparation_expected_fidelity(net, "A", "B", plan)

    def test_rejects_two_bell_spares(self):
        net = Network(
            ["A", "B", "C", "D", "E"],
            [
                Link("A", "B", "ab", pure_n(0.5)),
                Link("C", "D", "cd", BELL),
                Link("C", "E", "ce", BELL),
            ],
        )
        plan = PreparationPlan("C", ("cd", "ce"), ("D", "E"), 0.5, 0.5)
        with pytest.raises(UnphysicalSwapError):
            preparation_expected_fidelity(net, "A", "B", plan)


class TestPreparationPlanValidation:
    def test_rejects_duplicate_links(self):
        with pytest.raises(ValidationError):
            PreparationPlan("C", ("x", "x"), ("A", "B"), 0.5, 0.5)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValidationError):
            PreparationPlan("C", ("x", "y"), ("A", "A"), 0.5, 0.5)
