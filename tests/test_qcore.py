import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from teleroute import (
    PureSchmidtChannel,
    ValidationError,
    WernerGenChannel,
    XState,
    as_x_state,
    negativity,
    random_x_state,
)
from teleroute.qcore import PSD_TOL

from oracles import negativity as dense_negativity
from oracles import partial_transpose, to_density_matrix, validate_density_matrix

THETAS = [0.0, 0.1, math.pi / 8, 0.5, math.pi / 4]


class TestConstructors:
    def test_pure_rejects_theta_out_of_range(self):
        with pytest.raises(ValidationError):
            PureSchmidtChannel(-0.01)
        with pytest.raises(ValidationError):
            PureSchmidtChannel(math.pi / 4 + 0.01)

    def test_werner_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            WernerGenChannel(1.2, 0.3)
        with pytest.raises(ValidationError):
            WernerGenChannel(-0.1, 0.3)
        with pytest.raises(ValidationError):
            WernerGenChannel(0.5, 1.0)

    def test_xstate_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            XState(0.5, 0.0, 0.0, 0.4)

    def test_xstate_rejects_negative_population(self):
        with pytest.raises(ValidationError):
            XState(1.1, 0.0, 0.0, -0.1)

    def test_xstate_rejects_oversized_corners(self):
        with pytest.raises(ValidationError):
            XState(0.5, 0.0, 0.0, 0.5, 0.6, 0.0)
        with pytest.raises(ValidationError):
            XState(0.3, 0.2, 0.2, 0.3, 0.0, 0.3)

    def test_boundary_corner_is_accepted(self):
        XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
        XState(0.3, 0.2, 0.2, 0.3, 0.0, 0.2)

    def test_corner_on_an_empty_block_is_rejected(self):
        # |a14| = 0.99e-5 with a11 = a44 = 0: the block's eigenvalue is
        # -0.99e-5, far past -PSD_TOL, though |a14|^2 is below PSD_TOL
        with pytest.raises(ValidationError, match="a14 block"):
            XState(0.0, 0.5, 0.5, 0.0, 0.99e-5)

    @pytest.mark.parametrize(
        "fields",
        [
            (math.nan, 0.0, 0.0, 0.0),
            (0.5, math.nan, 0.0, 0.5),
            (0.5, 0.0, 0.0, 0.5, math.nan),
            (0.5, 0.0, 0.0, 0.5, complex(0.0, math.nan)),
            (0.5, 0.0, 0.0, 0.5, 0.0, math.nan),
        ],
    )
    def test_nan_is_rejected(self, fields):
        with pytest.raises(ValidationError):
            XState(*fields)

    @pytest.mark.parametrize(
        "a14", [1e200, -1e200j, complex(1.7e308, 1.7e308), complex(1.7e308, -1.7e308), 1.5]
    )
    def test_huge_corners_are_rejected_without_overflow(self, a14):
        with pytest.raises(ValidationError, match="parts in"):
            XState(0.5, 0.0, 0.0, 0.5, a14)
        with pytest.raises(ValidationError, match="parts in"):
            XState(0.25, 0.25, 0.25, 0.25, 0.0, a14)


class TestConversion:
    def test_pure_as_x_state(self):
        theta = math.pi / 8
        x = as_x_state(PureSchmidtChannel(theta))
        c, s = math.cos(theta), math.sin(theta)
        assert x.a11 == pytest.approx(c * c, abs=1e-15)
        assert x.a44 == pytest.approx(s * s, abs=1e-15)
        assert x.a22 == 0.0 and x.a33 == 0.0
        assert x.a14 == pytest.approx(c * s, abs=1e-15)
        assert x.a23 == 0.0

    def test_x_state_is_its_own_x_state(self):
        x = XState(0.4, 0.1, 0.2, 0.3, 0.1 - 0.05j, 0.02 + 0.01j)
        assert as_x_state(x) is x

    def test_werner_as_x_state_entries(self):
        x = as_x_state(WernerGenChannel(0.9, math.pi / 4))
        assert x.a11 == pytest.approx(0.475, abs=1e-15)
        assert x.a44 == pytest.approx(0.475, abs=1e-15)
        assert x.a22 == pytest.approx(0.025, abs=1e-15)
        assert x.a33 == pytest.approx(0.025, abs=1e-15)
        assert x.a14 == pytest.approx(0.45, abs=1e-15)
        assert x.a23 == 0.0

    def test_as_x_state_rejects_other_types(self):
        # negativity takes channels only: raw matrices go to the tests' oracle
        for convert in (as_x_state, negativity):
            with pytest.raises(TypeError):
                convert(np.eye(4) / 4)

    @pytest.mark.parametrize("theta", THETAS)
    def test_density_matrices_are_valid(self, theta):
        validate_density_matrix(to_density_matrix(PureSchmidtChannel(theta)))
        validate_density_matrix(to_density_matrix(WernerGenChannel(0.7, theta)))

    def test_random_x_density_matrices_are_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            validate_density_matrix(to_density_matrix(random_x_state(rng)))


class TestValidateDensityMatrix:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            validate_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValidationError):
            validate_density_matrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            validate_density_matrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            validate_density_matrix(m)


class TestPartialTranspose:
    def test_is_an_involution(self):
        rng = np.random.default_rng(3)
        m = to_density_matrix(random_x_state(rng))
        assert np.allclose(partial_transpose(partial_transpose(m)), m, atol=0)

    def test_swaps_x_corners(self):
        m = to_density_matrix(XState(0.3, 0.2, 0.2, 0.3, 0.1 + 0.05j, 0.15))
        pt = partial_transpose(m)
        assert pt[0, 3] == 0.15
        assert pt[1, 2] == 0.1 + 0.05j
        assert np.allclose(np.diag(pt), np.diag(m), atol=0)


class TestNegativity:
    def test_bell_pair_scores_one(self):
        assert negativity(PureSchmidtChannel(math.pi / 4)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_pure_matches_sin_two_theta(self, theta):
        assert negativity(PureSchmidtChannel(theta)) == pytest.approx(
            math.sin(2 * theta), abs=1e-12
        )

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_at_max_angle(self, p):
        expected = max(0.0, (3 * p - 1) / 2)
        assert negativity(WernerGenChannel(p, math.pi / 4)) == pytest.approx(expected, abs=1e-12)

    def test_werner_half_is_one_quarter(self):
        assert negativity(WernerGenChannel(0.5, math.pi / 4)) == pytest.approx(0.25, abs=1e-12)

    def test_closed_form_matches_eigensolver(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            x = random_x_state(rng)
            direct = negativity(x)
            dense = dense_negativity(to_density_matrix(x))
            assert direct == pytest.approx(dense, abs=1e-12)

    def test_random_states_score_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = negativity(random_x_state(rng))
            assert 0.0 <= n <= 1.0 + 1e-12

    def test_separable_diagonal_state_scores_zero(self):
        assert negativity(XState(0.4, 0.1, 0.2, 0.3)) == 0.0


@given(
    p=st.floats(0.0, 1.0),
    theta=st.floats(0.0, math.pi / 4),
)
def test_werner_negativity_formula_everywhere(p, theta):
    # inner PT block gives N = max(0, p sin 2 theta - (1 - p) / 2)
    expected = max(0.0, p * math.sin(2 * theta) - (1 - p) / 2)
    assert negativity(WernerGenChannel(p, theta)) == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_random_x_state_always_constructs(seed):
    x = random_x_state(np.random.default_rng(seed))
    assert abs(x.a11 + x.a22 + x.a33 + x.a44 - 1.0) <= 1e-12


def test_random_x_state_diagonal_is_numpys_flat_dirichlet_bit_for_bit():
    for seed in range(2000):
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            x = random_x_state(drawn)
            assert [x.a11, x.a22, x.a33, x.a44] == reference.dirichlet((1.0, 1.0, 1.0, 1.0)).tolist()
            reference.random(4)


def _unchecked_x_state(*fields) -> XState:
    """An XState that skips its own checks, so the dense oracle can judge
    parameters the type rejects."""
    x = object.__new__(XState)
    for name, value in zip(("a11", "a22", "a33", "a44", "a14", "a23"), fields):
        object.__setattr__(x, name, value)
    return x


# cut points of the unit interval, often close to its ends: the rules
# |a14|^2 <= a11 a44 + PSD_TOL and eigenvalue >= -PSD_TOL differ only
# where both populations of a block are tiny
_CUT = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-4), st.floats(1.0 - 1e-4, 1.0))
_RATIO = st.floats(0.0, 1.5)
_PHASE = st.floats(0.0, 2.0 * math.pi)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_CUT, _CUT, _CUT, _RATIO, _PHASE, _RATIO, _PHASE)
@example(1e-5, 0.5, 1.0 - 1e-5, 1.2, 0.0, 0.0, 0.0)
@example(0.0, 1e-5, 2e-5, 0.0, 0.0, 1.2, 1.0)
def test_xstate_accepts_exactly_what_the_dense_check_accepts(u1, u2, u3, r14, p14, r23, p23):
    # diagonal: the gaps of three sorted cut points, a point of the simplex;
    # corners: r times the block's geometric mean, so r = 1 is the edge
    c1, c2, c3 = sorted((u1, u2, u3))
    a11, a22, a33, a44 = c1, c2 - c1, c3 - c2, 1.0 - c3
    a14 = r14 * math.sqrt(a11 * a44) * cmath.exp(1j * p14)
    a23 = r23 * math.sqrt(a22 * a33) * cmath.exp(1j * p23)
    dense = to_density_matrix(_unchecked_x_state(a11, a22, a33, a44, a14, a23))
    assume(abs(np.linalg.eigvalsh(dense)[0] + PSD_TOL) > 1e-12)
    try:
        validate_density_matrix(dense)
        oracle = True
    except ValidationError:
        oracle = False
    try:
        XState(a11, a22, a33, a44, a14, a23)
        built = True
    except ValidationError:
        built = False
    assert built == oracle
