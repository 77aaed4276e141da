"""Dense-matrix oracles the tests check the package against.

The package computes with closed forms: the X-block spectrum for
positivity and negativity, and the swap formula for merged links. The
helpers here reach the same answers the long way, with numpy: a 4x4
density matrix and a Hermitian eigensolver, and a four-qubit state
measured branch by branch. They share no code with the closed forms, so
agreement between the two is evidence for both. They raise the package's
own errors, so a test asserts the same exceptions either way.
"""

import math
from collections import namedtuple

import numpy as np

from teleroute.errors import DomainError, ValidationError
from teleroute.qcore import PSD_TOL, TRACE_TOL, PureSchmidtChannel, _density_rows

HERMITICITY_TOL = 1e-12
ORTHONORMAL_TOL = 1e-12
BRANCH_EPS = 1e-15


def to_density_matrix(channel) -> np.ndarray:
    """Return the channel as a 4x4 complex density matrix."""
    return np.array(_density_rows(channel), dtype=complex)


def validate_density_matrix(m: np.ndarray) -> None:
    """Check shape, Hermiticity, unit trace and positivity; raise if bad."""
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
        raise ValidationError(f"trace must be 1, got {np.trace(m)}")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -PSD_TOL:
        raise ValidationError(f"matrix has negative eigenvalue {eigs[0]}")


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second qubit of a 4x4 matrix."""
    return np.asarray(m, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(m: np.ndarray) -> float:
    """Negativity of a 4x4 density matrix from the eigenvalues of its
    partial transpose, normalised to 1 for Bell pairs."""
    eigs = np.linalg.eigvalsh(partial_transpose(m))
    return float(-2.0 * eigs[eigs < 0.0].sum())


class MeasurementBasis:
    """Orthonormal basis of the measured two-qubit pair."""

    def __init__(self, vectors, label: str = "custom"):
        vecs = tuple(np.asarray(v, dtype=complex).reshape(4) for v in vectors)
        if len(vecs) != 4:
            raise ValidationError(f"need exactly 4 basis vectors, got {len(vecs)}")
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        if np.max(np.abs(gram - np.eye(4))) > ORTHONORMAL_TOL:
            raise ValidationError("basis vectors are not orthonormal")
        self.vectors = vecs
        self.label = label

    def __repr__(self):
        return f"MeasurementBasis({self.label})"


def bell_basis() -> MeasurementBasis:
    s2 = 1.0 / math.sqrt(2.0)
    return MeasurementBasis(
        (
            np.array([1, 0, 0, 1]) * s2,
            np.array([1, 0, 0, -1]) * s2,
            np.array([0, 1, 1, 0]) * s2,
            np.array([0, 1, -1, 0]) * s2,
        ),
        label="bell",
    )


def computational_basis() -> MeasurementBasis:
    return MeasurementBasis(tuple(np.eye(4)), label="computational")


def random_basis(rng: np.random.Generator) -> MeasurementBasis:
    """Haar-style random orthonormal basis from a QR decomposition."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # fix column phases
    return MeasurementBasis(tuple(q.T), label="random")


# One measurement outcome: its probability and the conditional two-qubit
# state of the far endpoints (None if the branch has essentially zero
# probability).
SwapBranch = namedtuple("SwapBranch", ("outcome_index", "probability", "post_state"))


def _schmidt_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)


def simulate_swap(
    channel1: PureSchmidtChannel,
    channel2: PureSchmidtChannel,
    basis: MeasurementBasis | None = None,
) -> list:
    """Measure the middle pair of two joined pure links.

    Qubit order is (A, C1, C2, B): channel1 spans A-C1, channel2 spans
    C2-B, and the measurement acts on (C1, C2). Returns the four
    branches in basis order with probabilities that sum to 1.
    """
    for ch in (channel1, channel2):
        if not isinstance(ch, PureSchmidtChannel):
            raise DomainError(f"swap simulation needs pure channels, got {type(ch).__name__}")
    if basis is None:
        basis = bell_basis()
    psi = np.kron(_schmidt_vector(channel1.theta), _schmidt_vector(channel2.theta))
    psi = psi.reshape(2, 2, 2, 2)
    branches = []
    for index, b in enumerate(basis.vectors):
        chi = np.einsum("ij,aijb->ab", b.conj().reshape(2, 2), psi).reshape(4)
        probability = float(np.vdot(chi, chi).real)
        if probability < BRANCH_EPS:
            branches.append(SwapBranch(index, probability, None))
        else:
            post = np.outer(chi, chi.conj()) / probability
            branches.append(SwapBranch(index, probability, post))
    return branches
