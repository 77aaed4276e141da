import math
from unittest import mock

import numpy as np
import pytest

from teleroute import (
    FidelityEstimate,
    PureSchmidtChannel,
    ValidationError,
    WernerGenChannel,
    XState,
    average_azimuthal_fidelity,
    random_x_state,
    telesim,
    teleport_once,
)
from teleroute.errors import EmptyPathError
from teleroute.qcore import PSD_TOL

from oracles import to_density_matrix

BELL = PureSchmidtChannel(math.pi / 4)

_S2 = 1.0 / math.sqrt(2.0)
PAULIS = tuple(
    np.array(m, dtype=complex)
    for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
)
# Bell vectors Phi+, Phi-, Psi+, Psi- and the Pauli C_k with
# (I x C_k)|Phi+> = |B_k>
BELL_PAIRS = (
    (np.array([1, 0, 0, 1]) * _S2, PAULIS[0]),
    (np.array([1, 0, 0, -1]) * _S2, PAULIS[3]),
    (np.array([0, 1, 1, 0]) * _S2, PAULIS[1]),
    (np.array([0, 1, -1, 0]) * _S2, PAULIS[1] @ PAULIS[3]),
)


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def equatorial(phi):
    v = np.array([math.cos(phi), math.sin(phi)], dtype=complex)
    return v, np.outer(v, v.conj())


def per_point_average(channels, points):
    """The average as a per-point loop: each equatorial input is sent hop
    by hop through teleport_once and overlapped with itself."""
    total = 0.0
    for k in range(points):
        v, rho = equatorial(2.0 * math.pi * k / points)
        for channel in channels:
            rho = teleport_once(rho, channel)
        total += float(np.real(v.conj() @ rho @ v))
    return total / points


def bowen_bose_image(channel, rho):
    """rho under the Pauli channel sum_k <B_k|channel|B_k> C_k . C_k^dag."""
    dense = to_density_matrix(channel)
    weights = [float(np.real(b.conj() @ dense @ b)) for b, _ in BELL_PAIRS]
    return sum(w * c @ rho @ c.conj().T for w, (_, c) in zip(weights, BELL_PAIRS))


def numpy_teleport_once(rho_in, channel):
    """The hop as the simulator once computed it in numpy, kept as an
    oracle: joint state by Kronecker product, dense Bell projectors on the
    measured pair, and the partial trace as an einsum."""
    if isinstance(channel, np.ndarray):
        rho_ch = np.asarray(channel, dtype=complex)
    else:
        rho_ch = to_density_matrix(channel)
    joint = np.kron(np.asarray(rho_in, dtype=complex), rho_ch)
    out = np.zeros((2, 2), dtype=complex)
    for b, corr in BELL_PAIRS:
        proj = np.kron(np.outer(b, b.conj()), PAULIS[0])
        piece = proj @ joint @ proj
        # trace out the measured pair (first 4-dim factor)
        reduced = np.einsum("kikj->ij", piece.reshape(4, 2, 4, 2))
        out += corr @ reduced @ corr.conj().T
    return out


def corner_channels():
    """Bell, pure, Werner and x channels, with real, negative and complex corners."""
    yield BELL
    yield PureSchmidtChannel(0.2)
    yield PureSchmidtChannel(0.0)
    yield WernerGenChannel(0.7, 0.5)
    yield WernerGenChannel(0.0, 0.3)
    yield XState(0.5, 0.0, 0.0, 0.5, -0.5 + 0j, 0j)
    yield XState(0.5, 0.0, 0.0, 0.5, 0.5j, 0j)
    yield XState(0.4, 0.1, 0.2, 0.3, -0.1 - 0.2j, 0.1j)
    yield XState(0.0, 0.5, 0.5, 0.0, 0j, -0.5 + 0j)
    rng = np.random.default_rng(8)
    for _ in range(20):
        yield random_x_state(rng)


class TestTeleportOnce:
    def test_bell_channel_is_the_identity_map(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = random_qubit(rng)
            out = teleport_once(rho, BELL)
            assert np.max(np.abs(out - rho)) < 1e-12

    def test_plus_state_through_pi_over_8(self):
        # direct overlap value for an equal-superposition input
        theta = math.pi / 8
        v, rho = equatorial(math.pi / 4)
        out = teleport_once(rho, PureSchmidtChannel(theta))
        fid = float(np.real(v.conj() @ out @ v))
        assert fid == pytest.approx((1 + math.sin(2 * theta)) / 2, abs=1e-12)
        assert fid == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_output_is_a_density_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rho = random_qubit(rng)
            out = np.asarray(teleport_once(rho, random_x_state(rng)))
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-12

    def test_accepts_raw_channel_matrix(self):
        rng = np.random.default_rng(3)
        rho = random_qubit(rng)
        x = random_x_state(rng)
        a = np.asarray(teleport_once(rho, x))
        b = np.asarray(teleport_once(rho, to_density_matrix(x)))
        assert np.max(np.abs(a - b)) == 0.0

    def test_map_is_linear(self):
        rng = np.random.default_rng(4)
        ch = random_x_state(rng)
        r1, r2 = random_qubit(rng), random_qubit(rng)
        mix = 0.3 * r1 + 0.7 * r2
        direct = np.asarray(teleport_once(mix, ch))
        split = 0.3 * np.asarray(teleport_once(r1, ch)) + 0.7 * np.asarray(teleport_once(r2, ch))
        assert np.max(np.abs(direct - split)) < 1e-13

    def test_orientation_of_x_channel_does_not_matter(self):
        # swapping the two channel qubits leaves the map unchanged
        swap = np.eye(4)[[0, 2, 1, 3]]
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_qubit(rng)
            m = to_density_matrix(random_x_state(rng))
            a = np.asarray(teleport_once(rho, m))
            b = np.asarray(teleport_once(rho, swap @ m @ swap))
            assert np.max(np.abs(a - b)) < 1e-13


    def test_matches_the_numpy_hop(self):
        rng = np.random.default_rng(10)
        for channel in corner_channels():
            for rho in [*PAULIS, *(random_qubit(rng) for _ in range(4))]:
                out = np.asarray(teleport_once(rho, channel))
                assert np.max(np.abs(out - numpy_teleport_once(rho, channel))) < 1e-15


_RAGGED_CHANNEL = [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0.25]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: teleport_once(np.eye(3), PureSchmidtChannel(0.3)),
        lambda: teleport_once(np.eye(2), np.eye(3)),
        lambda: teleport_once(np.array([1.0, 0.0]), BELL),
        lambda: teleport_once([[1.0, 0.0], [0.0]], BELL),
        lambda: teleport_once(np.ones((2, 2, 2)), BELL),
        lambda: teleport_once(np.eye(2), np.eye(4).ravel() / 4),
        lambda: teleport_once(np.eye(2), _RAGGED_CHANNEL),
        lambda: teleport_once(["10", "01"], BELL),
        lambda: teleport_once([["1", "0"], ["0", "1"]], BELL),
    ],
    ids=[
        "3x3-input", "3x3-channel", "1d-input", "ragged-input", "3d-input",
        "1d-channel", "ragged-channel", "string-rows", "string-entries",
    ],
)
def test_rejects_matrices_of_the_wrong_shape(call):
    with pytest.raises(ValidationError):
        call()


class TestTransferMatrix:
    """The hop's linear map, fixed by its images of the four Paulis."""

    def test_hop_is_the_bowen_bose_pauli_channel(self):
        for channel in corner_channels():
            for p in PAULIS:
                out = np.asarray(teleport_once(p, channel))
                assert np.max(np.abs(out - bowen_bose_image(channel, p))) < 1e-14

    def test_four_teleport_once_calls_per_hop(self, monkeypatch):
        counted = mock.Mock(wraps=telesim.teleport_once)
        monkeypatch.setattr(telesim, "teleport_once", counted)
        chain = [BELL, WernerGenChannel(0.8, 0.5), PureSchmidtChannel(0.3)]
        average_azimuthal_fidelity(chain)
        assert counted.call_count == 4 * len(chain)


class TestTeleportChain:
    def test_empty_chain_is_rejected(self):
        with pytest.raises(EmptyPathError):
            average_azimuthal_fidelity([])

    def test_chain_equals_repeated_hops(self):
        # the four-input average against the per-point loop
        rng = np.random.default_rng(6)
        for _ in range(60):
            chs = [random_x_state(rng) for _ in range(int(rng.integers(1, 6)))]
            points = int(rng.integers(5, 17))
            est = average_azimuthal_fidelity(chs)
            assert est.value == pytest.approx(per_point_average(chs, points), abs=1e-13)

    def test_dense_channels_match_the_per_point_loop(self):
        # raw full density matrices, not X-shaped, through chains of 1-5
        rng = np.random.default_rng(11)
        for hops in range(1, 6):
            chs = []
            for _ in range(hops):
                g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                m = g @ g.conj().T
                chs.append(m / np.trace(m).real)
            est = average_azimuthal_fidelity(chs)
            for points in (5, 7, 16):
                assert est.value == pytest.approx(per_point_average(chs, points), abs=1e-13)

    def test_bell_hops_keep_a_state_exactly(self):
        # each Bell weight is exactly 1/2, so no trace leaks hop by hop
        rho = ((1.0, 0.0), (0.0, 0.0))
        for _ in range(30):
            rho = teleport_once(rho, BELL)
        assert rho == ((1.0, 0.0), (0.0, 0.0))

    def test_bell_chain_preserves_equatorial_inputs(self):
        est = average_azimuthal_fidelity([BELL, BELL, BELL])
        assert est.value == pytest.approx(1.0, abs=1e-12)


class TestAverageAzimuthalFidelity:
    def test_matches_pure_chain_law(self):
        thetas = [0.3, math.pi / 8, 0.6]
        est = average_azimuthal_fidelity([PureSchmidtChannel(t) for t in thetas])
        product = math.prod(math.sin(2 * t) for t in thetas)
        assert est.value == pytest.approx((3 + product) / 4, abs=1e-12)

    def test_point_count_does_not_change_the_value(self):
        rng = np.random.default_rng(7)
        chain = [random_x_state(rng), WernerGenChannel(0.8, 0.5)]
        value = average_azimuthal_fidelity(chain).value
        for points in range(5, 17):
            assert value == pytest.approx(per_point_average(chain, points), abs=1e-13)


class TestStateTolerances:
    """average_azimuthal_fidelity clamps what XState's PSD_TOL and
    TRACE_TOL let a chain's fidelity pass [0, 1] by, and only that."""

    def test_the_largest_corner_a_state_accepts_reads_one(self):
        edge = XState(0.5, 0.0, 0.0, 0.5, 0.5 + 0.99 * PSD_TOL)
        assert average_azimuthal_fidelity([edge]).value == 1.0
        assert average_azimuthal_fidelity([edge] * 40).value == 1.0

    @staticmethod
    def scaled(monkeypatch, factor):
        # every hop's output scaled by factor: a chain of L Bell hops reads factor**L
        hop = telesim.teleport_once
        monkeypatch.setattr(
            telesim, "teleport_once", lambda rho, ch: tuple(tuple(factor * v for v in row) for row in hop(rho, ch))
        )

    @pytest.mark.parametrize("hops", [1, 3, 1000])
    def test_drift_within_the_allowance_is_clamped(self, monkeypatch, hops):
        # e = 4 PSD_TOL + 5 TRACE_TOL a hop, the allowance about L e / 2
        self.scaled(monkeypatch, 1.0 + 2.0 * PSD_TOL)
        assert average_azimuthal_fidelity([BELL] * hops).value == 1.0

    @pytest.mark.parametrize("hops", [1, 3, 1000])
    def test_drift_beyond_the_allowance_raises(self, monkeypatch, hops):
        self.scaled(monkeypatch, 1.0 + 2.1 * PSD_TOL)
        with pytest.raises(ValidationError, match="outside"):
            average_azimuthal_fidelity([BELL] * hops)


class TestFidelityEstimate:
    def test_clamps_rounding_spill(self):
        est = FidelityEstimate(1.0 + 5e-13)
        assert est.value == 1.0
        est = FidelityEstimate(-5e-13)
        assert est.value == 0.0

    def test_rejects_real_violations(self):
        with pytest.raises(ValidationError):
            FidelityEstimate(1.1)
        with pytest.raises(ValidationError):
            FidelityEstimate(-0.2)

