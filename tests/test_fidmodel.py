import math

import numpy as np
import pytest

from teleroute import (
    Link,
    Network,
    NotAdditiveError,
    PureSchmidtChannel,
    WernerGenChannel,
    XState,
    average_azimuthal_fidelity,
    dijkstra_route,
    exact_route,
    link_weights,
    path_objective,
    pure_path_fidelity,
    random_x_state,
    werner_path_fidelity,
)
from teleroute.errors import DomainError, EmptyPathError

from conftest import pure_n


class TestLinkWeights:
    def test_pure_channel(self):
        w = link_weights(PureSchmidtChannel(0.3))
        assert w.mu == pytest.approx(1.0, abs=1e-15)
        assert w.nu == pytest.approx(math.sin(0.6), abs=1e-15)
        assert w.log_neg_weight == pytest.approx(-math.log(math.sin(0.6)), abs=1e-12)

    def test_bell_weight_is_zero(self):
        w = link_weights(PureSchmidtChannel(math.pi / 4))
        assert w.log_neg_weight == pytest.approx(0.0, abs=1e-12)

    def test_werner_channel(self):
        p, theta = 0.8, 0.5
        w = link_weights(WernerGenChannel(p, theta))
        assert w.mu == pytest.approx(p, abs=1e-15)
        assert w.nu == pytest.approx(p * math.sin(2 * theta), abs=1e-15)
        assert w.log_neg_weight is None  # inner levels populated

    def test_complex_corners_use_real_parts(self):
        x = XState(0.3, 0.2, 0.2, 0.3, 0.1 + 0.1j, 0.05j)
        w = link_weights(x)
        assert w.mu == pytest.approx(0.2, abs=1e-15)
        assert w.nu == pytest.approx(0.2, abs=1e-15)

    def test_magnitudes_never_exceed_one(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            w = link_weights(random_x_state(rng))
            assert abs(w.mu) <= 1.0
            assert abs(w.nu) <= 1.0

    @pytest.mark.parametrize("state, factors", [
        (XState(0.5 + 5e-13, 0.0, 0.0, 0.5, 0.5 + 0.99e-10), (1.0, 1.0)),
        (XState(0.0, 0.5 + 5e-13, 0.5, 0.0, 0j, -0.5 - 0.99e-10), (-1.0, -1.0)),
    ])
    def test_factors_past_one_are_clamped(self, state, factors):
        # the types let the trace pass 1 by TRACE_TOL and a block eigenvalue
        # dip to -PSD_TOL, so the raw factors pass 1 in magnitude here
        raw_mu = state.a11 - state.a22 - state.a33 + state.a44
        raw_nu = 2.0 * state.a14.real + 2.0 * state.a23.real
        assert abs(raw_mu) > 1.0 and abs(raw_nu) > 1.0
        w = link_weights(state)
        assert (w.mu, w.nu) == factors
        if factors == (1.0, 1.0):
            assert math.copysign(1.0, w.log_neg_weight) == 1.0 and w.log_neg_weight == 0.0
        else:
            assert w.log_neg_weight is None

    def test_pure_links_have_mu_exactly_one(self):
        # a44 = 1 - a11 is exact, so the population balance is 1 bit for bit
        quarter = math.pi / 4
        thetas = [k * quarter / 997 for k in range(998)]
        below = [quarter]
        for _ in range(40):
            below.append(math.nextafter(below[-1], 0.0))
        tiny = [math.ldexp(1.0, -e) for e in range(1, 1075, 7)]
        for theta in thetas + below + tiny + [0.0, 1e-8, 0.1, 0.3]:
            assert link_weights(PureSchmidtChannel(theta)).mu == 1.0, theta


class TestAdditiveRule:
    # empty inner levels keep mu = 1; the phase of a14 sets nu = 2 Re a14,
    # weighted -ln nu where it is not negative
    @pytest.mark.parametrize(
        "a14,weight",
        [
            (0.45, -math.log(0.9)),
            (-0.45, None),
            (0.5j, math.inf),
            (0.45 * 1j ** 0.5, -math.log(0.9 * math.cos(math.pi / 4))),
        ],
    )
    def test_corner_phase_decides(self, a14, weight):
        w = link_weights(XState(0.5, 0.0, 0.0, 0.5, a14, 0.0))
        assert w.mu == pytest.approx(1.0, abs=1e-15)
        assert w.nu == pytest.approx(2.0 * a14.real, abs=1e-15)
        if weight is None:
            assert w.log_neg_weight is None
        else:
            assert w.log_neg_weight == pytest.approx(weight, abs=1e-12)

    def test_separable_link_has_infinite_weight(self):
        assert link_weights(PureSchmidtChannel(0.0)).log_neg_weight == math.inf

    def test_require_additive_names_the_link(self):
        with pytest.raises(NotAdditiveError) as exc:
            link_weights(XState(0.5, 0.0, 0.0, 0.5, -0.45, 0.0)).require_additive("ab")
        assert exc.value.link_id == "ab"
        assert "nu >= 0" in exc.value.reason


class TestAdditiveWeight:
    def test_matches_negativity_log(self):
        weight = link_weights(pure_n(0.5)).require_additive("e")
        assert weight == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_rejects_populated_inner_levels(self):
        with pytest.raises(NotAdditiveError) as exc:
            link_weights(WernerGenChannel(0.9, 0.5)).require_additive("w1")
        assert exc.value.link_id == "w1"

    def test_separable_channel_is_taken_only_as_a_last_resort(self):
        # weight inf sorts after every finite distance, so the shortest-path
        # route takes the link only where nothing else joins its ends, and
        # then agrees with the exact search
        net = Network(["A", "B"], [Link("A", "B", "e", PureSchmidtChannel(0.0))])
        route = dijkstra_route(net, "A", "B")
        assert route.objective.fidelity == exact_route(net, "A", "B").objective.fidelity == 0.75

    def test_complex_corner_weighs_minus_log_nu(self):
        # N = 2 |a14| = 1, but only nu = 2 Re a14 = 0.6 reaches the fidelity
        weight = link_weights(XState(0.5, 0.0, 0.0, 0.5, 0.3 + 0.4j, 0.0)).require_additive("e")
        assert weight == pytest.approx(-math.log(0.6), abs=1e-12)


class TestPathObjective:
    def test_products_accumulate(self):
        obj = path_objective([pure_n(0.9), pure_n(0.8)])
        assert obj.mu_product == pytest.approx(1.0, abs=1e-15)
        assert obj.nu_product == pytest.approx(0.72, abs=1e-12)
        assert obj.fidelity == pytest.approx(0.93, abs=1e-12)

    def test_empty_path_rejected(self):
        with pytest.raises(DomainError):
            path_objective([])

    def test_every_law_rejects_an_empty_chain(self):
        for law in (path_objective, pure_path_fidelity, werner_path_fidelity, average_azimuthal_fidelity):
            with pytest.raises(EmptyPathError):
                law([])


class TestClosedForms:
    def test_pure_law_equals_generic_law(self):
        thetas = [0.2, 0.5, math.pi / 4, 0.7]
        chain = [PureSchmidtChannel(t) for t in thetas]
        assert pure_path_fidelity(chain) == pytest.approx(path_objective(chain).fidelity, abs=1e-14)

    def test_pure_law_value(self):
        chain = [pure_n(0.9), pure_n(0.8)]
        assert pure_path_fidelity(chain) == pytest.approx((3 + 0.72) / 4, abs=1e-12)

    def test_pure_law_rejects_other_channels(self):
        with pytest.raises(DomainError):
            pure_path_fidelity([WernerGenChannel(1.0, 0.3)])

    def test_werner_law_equals_generic_law(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            chain = [
                WernerGenChannel(float(rng.uniform(0, 1)), float(rng.uniform(0, math.pi / 4)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            assert werner_path_fidelity(chain) == pytest.approx(
                path_objective(chain).fidelity, abs=1e-12
            )

    def test_werner_law_rejects_other_channels(self):
        with pytest.raises(DomainError):
            werner_path_fidelity([PureSchmidtChannel(0.3)])

    def test_generic_law_matches_the_simulator(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            chain = [random_x_state(rng) for _ in range(int(rng.integers(1, 4)))]
            sim = average_azimuthal_fidelity(chain).value
            assert path_objective(chain).fidelity == pytest.approx(sim, abs=1e-10)

    def test_fidelity_stays_in_unit_interval(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            chain = [random_x_state(rng) for _ in range(int(rng.integers(1, 5)))]
            fid = path_objective(chain).fidelity
            assert 0.0 <= fid <= 1.0 + 1e-12
