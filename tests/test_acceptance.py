"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s pytest shows them for failing criteria only.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from teleroute import (
    Link,
    Network,
    PureSchmidtChannel,
    WernerGenChannel,
    average_azimuthal_fidelity,
    check_optimal_substructure,
    dijkstra_route,
    exact_route,
    find_violation,
    negativity,
    path_objective,
    preparation_expected_fidelity,
    propose_plan,
    pure_path_fidelity,
    random_network,
    random_x_state,
    swap_formula,
    werner_path_fidelity,
)

from conftest import build_swap_triangle, build_witness_net, pure_n
from oracles import bell_basis, simulate_swap, to_density_matrix
from oracles import negativity as dense_negativity


@contextmanager
def report(index, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {index} ({label}): FAIL [{time.perf_counter() - start:.2f}s]")
        raise
    print(f"criterion {index} ({label}): PASS [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_pure_chain_law():
    with report(1, "pure-chain fidelity law"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        thetas = [0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4]
        chains = [[t] for t in thetas]
        chains += [[a, b] for a in thetas[::2] for b in thetas[::2]]
        chains += [list(rng.uniform(0, math.pi / 4, size=k)) for k in (3, 4) for _ in range(5)]
        for chain in chains:
            channels = [PureSchmidtChannel(float(t)) for t in chain]
            law = pure_path_fidelity(channels)
            sim = average_azimuthal_fidelity(channels).value
            assert abs(law - sim) <= 1e-10
        assert time.perf_counter() - start <= 1.0


def test_criterion_2_x_chain_law():
    with report(2, "x-chain fidelity law"):
        rng = np.random.default_rng(102)
        for _ in range(30):
            chain = [random_x_state(rng) for _ in range(int(rng.integers(1, 5)))]
            law = path_objective(chain).fidelity
            sim = average_azimuthal_fidelity(chain).value
            assert abs(law - sim) <= 1e-10


def test_criterion_3_werner_law_identity():
    with report(3, "werner fidelity law identity"):
        rng = np.random.default_rng(103)
        grid = [
            [WernerGenChannel(p, t)]
            for p in (0.0, 0.3, 0.5, 0.9, 1.0)
            for t in (0.0, 0.4, math.pi / 4)
        ]
        grid += [
            [
                WernerGenChannel(float(rng.uniform(0, 1)), float(rng.uniform(0, math.pi / 4)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            for _ in range(25)
        ]
        for chain in grid:
            law = werner_path_fidelity(chain)
            generic = path_objective(chain).fidelity
            assert abs(law - generic) <= 1e-12
            sim = average_azimuthal_fidelity(chain).value
            assert abs(law - sim) <= 1e-10


def test_criterion_4_negativity_anchors():
    with report(4, "negativity anchors"):
        assert abs(negativity(PureSchmidtChannel(math.pi / 4)) - 1.0) <= 1e-12
        for theta in np.linspace(0, math.pi / 4, 21):
            n = negativity(PureSchmidtChannel(float(theta)))
            assert abs(n - math.sin(2 * theta)) <= 1e-12
        for p in np.linspace(0, 1, 21):
            n = negativity(WernerGenChannel(float(p), math.pi / 4))
            assert abs(n - max(0.0, (3 * p - 1) / 2)) <= 1e-12
        assert abs(negativity(WernerGenChannel(0.5, math.pi / 4)) - 0.25) <= 1e-12
        rng = np.random.default_rng(104)
        for _ in range(200):
            x = random_x_state(rng)
            assert abs(negativity(x) - dense_negativity(to_density_matrix(x))) <= 1e-12


def test_criterion_5_route_method_agreement():
    with report(5, "additive route method agreement"):
        start = time.perf_counter()
        rng = np.random.default_rng(105)
        for _ in range(50):
            node_count = int(rng.integers(4, 11))
            density = float(rng.uniform(0.3, 0.7))
            net = random_network(int(rng.integers(0, 2**32)), node_count, density, "pure")
            src, dst = net.nodes[0], net.nodes[-1]
            d = dijkstra_route(net, src, dst)
            e = exact_route(net, src, dst)
            assert abs(d.objective.fidelity - e.objective.fidelity) <= 1e-12
            assert d.path == e.path
        assert time.perf_counter() - start <= 5.0


def test_criterion_6_substructure_witness():
    with report(6, "prefix-optimality witness"):
        start = time.perf_counter()
        net = build_witness_net()
        w = check_optimal_substructure(net, "A")
        assert w is not None
        assert (w.mid, w.ext) == ("B", "D")
        assert abs(w.mid_objective.fidelity - 0.75) <= 1e-12
        assert abs(w.ext_objective.fidelity - 0.6625) <= 1e-12
        assert abs(w.prefix_objective.fidelity - 0.725) <= 1e-12
        found_net, found_w, attempts = find_violation(42, attempts=1000)
        assert found_w.margin > 1e-9
        assert check_optimal_substructure(found_net, found_w.source) == found_w
        assert time.perf_counter() - start <= 30.0


def test_criterion_7_swap_formula_rederivation():
    with report(7, "swap formula against re-derivation"):
        def rederive(n1, n2):
            half_1 = np.arcsin(n1) / 2.0
            half_2 = np.arcsin(n2) / 2.0
            denom = 2.0 - np.cos(half_1 - half_2) - np.cos(half_1 + half_2)
            merged = 2.0 * n1 * n2 / denom
            prob = (1.0 - np.sqrt((1.0 - n1) * (1.0 - n2))) / 2.0
            return float(denom), float(merged), float(prob)

        rng = np.random.default_rng(107)
        pairs = [(1.0, 0.2), (1.0, 1.0), (0.3, 1e-9), (0.5, 0.5)]
        pairs += [tuple(rng.uniform(1e-3, 1.0, size=2)) for _ in range(50)]
        for n1, n2 in pairs:
            r = swap_formula(float(n1), float(n2))
            denom, merged, prob = rederive(n1, n2)
            assert abs(r.gamma - denom) <= 1e-5
            assert abs(r.new_negativity - merged) <= 1e-5
            assert abs(r.success_probability - prob) <= 1e-5
            assert r.physical == (0.0 <= merged <= 1.0)


def test_criterion_8_preparation_floor():
    with report(8, "preparation fidelity floor"):
        start = time.perf_counter()
        rng = np.random.default_rng(108)
        checked = 0
        while checked < 100:
            n_strong = 1.0 - float(rng.uniform(0.0, 0.05))
            n_weak = float(rng.uniform(0.02, 0.28))
            n_route = float(rng.uniform(min(n_strong * n_weak + 0.05, 0.99), 1.0))
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
            except Exception:
                continue
            a = preparation_expected_fidelity(net, "A", "B", plan)
            assert a.expected_fidelity >= a.base_fidelity - 1e-12
            checked += 1
        # worked reference instance
        net = build_swap_triangle()
        plan = propose_plan(net, "A", "B", "C")
        a = preparation_expected_fidelity(net, "A", "B", plan)
        assert abs(a.base_fidelity - 0.875) <= 1e-12
        assert abs(a.expected_fidelity - 0.8968244550490399) <= 1e-12
        assert time.perf_counter() - start <= 20.0


def test_criterion_9_swap_branch_probabilities():
    with report(9, "swap branch probabilities"):
        bell = PureSchmidtChannel(math.pi / 4)
        for branch in simulate_swap(bell, bell):
            assert abs(branch.probability - 0.25) <= 1e-12
        grid = np.linspace(0, math.pi / 4, 9)
        for t1 in grid:
            for t2 in grid:
                c1, s1 = math.cos(t1) ** 2, math.sin(t1) ** 2
                c2, s2 = math.cos(t2) ** 2, math.sin(t2) ** 2
                branches = simulate_swap(
                    PureSchmidtChannel(float(t1)), PureSchmidtChannel(float(t2)), bell_basis()
                )
                p_phi = (c1 * c2 + s1 * s2) / 2
                p_psi = (c1 * s2 + s1 * c2) / 2
                assert abs(branches[0].probability - p_phi) <= 1e-12
                assert abs(branches[1].probability - p_phi) <= 1e-12
                assert abs(branches[2].probability - p_psi) <= 1e-12
                assert abs(branches[3].probability - p_psi) <= 1e-12
                assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-12
