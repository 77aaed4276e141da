"""Density-matrix simulation of teleportation along channel chains.

The sender holds the input qubit and the near half of the channel, does a
Bell-basis measurement on that pair, and the receiver applies the paired
Pauli correction to the far half. Summing the four corrected branches
gives the average output state as a completely positive map of the input.

A chain runs its hops in turn, and no hop is taken from a closed form.

The hop is plain Python complex arithmetic on nested tuples, so the
simulator never loads numpy: at a 2x2 input and a 4x4 channel, numpy's
per-call overhead and import cost far more than the arithmetic. Matrices
may come in as numpy arrays or nested sequences and leave as tuples.

Averaging the input-output fidelity over the equatorial family
cos(phi)|0> + sin(phi)|1> needs no numerical integration. The input
(I + sin(2 phi) X + cos(2 phi) Z) / 2 and its image under the linear
chain map are both of degree 1 in 2 phi, so their overlap is a
trigonometric polynomial of degree 2 in 2 phi. Its average over the 4
equispaced values 0, pi/2, pi and 3 pi/2 of 2 phi, the inputs |0>, |+>,
|1> and |->, is exact.
"""

from __future__ import annotations

from ._frozen import Frozen
from .errors import EmptyPathError, ValidationError, brief
from .qcore import ChannelState, _density_rows, _drift_allowance


def _matrix(m, size: int, what: str) -> tuple:
    """m as a size x size tuple of complex rows; ValidationError for any
    other shape, ragged and 1-D input included."""
    # numpy arrays, np.matrix included, as nested lists of Python numbers
    entries = m.tolist() if hasattr(m, "tolist") else m
    try:
        # + 0j refuses strings, which complex() alone would parse
        rows = tuple(tuple(complex(v + 0j) for v in row) for row in entries)
    except (TypeError, ValueError):
        rows = ()
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValidationError(f"{what} must be a {size}x{size} matrix, got {brief(m)}")
    return rows


def _mul(a, b):
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11), (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


_I, _X, _Y, _Z = (
    _matrix(m, 2, "Pauli") for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
)
# Each Bell outcome (Phi+, Phi-, Psi+, Psi-) on the measured pair, input
# qubit first, as the signs of its vector's nonzero entries, each of
# magnitude 1/sqrt(2), by index, with the correction the receiver
# applies. Psi- takes Y = i XZ, which acts as XZ does; so every
# correction is Hermitian as well as unitary, and its own adjoint.
_OUTCOMES = tuple(
    (tuple((n, sign) for n, sign in enumerate(vector) if sign), fix)
    for vector, fix in (
        ((1, 0, 0, 1), _I),
        ((1, 0, 0, -1), _Z),
        ((0, 1, 1, 0), _X),
        ((0, 1, -1, 0), _Y),
    )
)

# |0>, |+>, |1> and |->, the equatorial inputs at 2 phi = 0, pi/2, pi and
# 3 pi/2, as density matrices with exact entries
_INPUTS = (
    ((1.0, 0.0), (0.0, 0.0)),
    ((0.5, 0.5), (0.5, 0.5)),
    ((0.0, 0.0), (0.0, 1.0)),
    ((0.5, -0.5), (-0.5, 0.5)),
)


class FidelityEstimate(Frozen):
    """The simulator's average equatorial fidelity of a chain.

    Values may drift past [0, 1] by rounding only; anything worse is
    rejected. average_azimuthal_fidelity clamps the drift its states'
    tolerances allow before it builds one.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise ValidationError(f"fidelity {value} outside [0, 1]")
        super().__init__(min(max(value, 0.0), 1.0))


def teleport_once(rho_in, channel):
    """Teleport a single-qubit state through one two-qubit channel.

    Parameters
    ----------
    rho_in : 2x2 density matrix of the qubit to send, as a numpy array or
        nested sequence. Any 2x2 matrix is accepted, since the map is
        linear.
    channel : channel object, or a raw 4x4 density matrix.

    Returns the 2x2 output matrix, a tuple of rows of complex, after
    averaging the four measurement branches with their corrections
    applied. Raises ValidationError for any other shape.
    """
    rho = _matrix(rho_in, 2, "input state")
    ch = _density_rows(channel) if isinstance(channel, ChannelState) else _matrix(channel, 4, "channel")
    branches = []
    for support, fix in _OUTCOMES:
        # Projecting the measured pair onto |B> and tracing it out leaves
        # (<B| x I) J (|B> x I) on the far half, J = rho_in x channel with
        # index (input, near, far): a sum over the pair's entries n, m,
        # each weighted by conj(B_n) B_m = sign_n sign_m / 2, exactly.
        terms = [
            (sn * sm * 0.5 * rho[n >> 1][m >> 1], 2 * (n & 1), 2 * (m & 1))
            for n, sn in support
            for m, sm in support
        ]
        far = tuple(tuple(sum(w * ch[r + i][c + j] for w, r, c in terms) for j in (0, 1)) for i in (0, 1))
        branches.append(_mul(_mul(fix, far), fix))
    return tuple(tuple(sum(b[i][j] for b in branches) for j in (0, 1)) for i in (0, 1))


def average_azimuthal_fidelity(channels) -> FidelityEstimate:
    """Average equatorial fidelity of a chain, from the four inputs that
    make the average exact.

    The chain's raw states may pass [0, 1] by what their tolerances let
    through (qcore.XState), at most qcore._drift_allowance of the hop
    count. A value within that allowance is clamped to [0, 1]; any other
    raises ValidationError.
    """
    channels = list(channels)
    if not channels:
        raise EmptyPathError("cannot teleport through an empty chain")
    total = 0.0
    for rho_in in _INPUTS:
        rho = rho_in
        for channel in channels:
            rho = teleport_once(rho, channel)
        # a pure input's fidelity with the output is tr(rho_in rho)
        total += sum(rho_in[i][j] * rho[j][i] for i in (0, 1) for j in (0, 1)).real
    value = total / 4
    allowance = _drift_allowance(len(channels))
    if -allowance <= value <= 1.0 + allowance:
        value = min(max(value, 0.0), 1.0)
    return FidelityEstimate(value)
