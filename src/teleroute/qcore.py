"""Two-qubit channel states and entanglement measures.

Conventions used throughout the package:

- A 4x4 density matrix is indexed in the product basis 00, 01, 10, 11
  (first qubit slowest).
- Partial transposition acts on the second qubit.
- Negativity is normalised so a maximally entangled state scores 1:
  N(rho) = -2 * (sum of negative eigenvalues of the partial transpose).

The X-shaped family (diagonal and anti-diagonal only) is closed under
partial transposition, and its spectrum splits into two 2x2 blocks: they
give negativity and XState's one positivity rule without an eigensolver.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .errors import ValidationError

TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def _drift_allowance(hops: int) -> float:
    """How far rounding and the state tolerances may move the fidelity of
    a chain of hops read from the raw states, against [0, 1] or against
    the clamped factors. A hop's raw mu is at most 1 + 5 TRACE_TOL and its
    raw nu at most 1 + TRACE_TOL + 4 PSD_TOL, so over L hops the fidelity
    (2 + prod mu + prod nu) / 4 moves by at most ((1 + e)^L - 1) / 2,
    e = 4 PSD_TOL + 5 TRACE_TOL, plus 1e-12 for the arithmetic."""
    return ((1.0 + 4.0 * PSD_TOL + 5.0 * TRACE_TOL) ** hops - 1.0) / 2.0 + 1e-12


# numpy only for the annotation of random_x_state's generator: the module
# computes with math alone, and the generator may be numpy's or the
# package's plain-Python port of it (_pcg64), which draws the same numbers
if TYPE_CHECKING:
    import numpy as np


class PureSchmidtChannel(Frozen):
    """Pure resource state cos(theta)|00> + sin(theta)|11>.

    theta in [0, pi/4]; theta = pi/4 is maximally entangled, theta = 0 is
    a product state.
    """

    __slots__ = ("theta",)

    def __init__(self, theta: float):
        if not 0.0 <= theta <= math.pi / 4:
            raise ValidationError(f"theta must lie in [0, pi/4], got {theta}")
        super().__init__(theta)


class XState(Frozen):
    """Mixed two-qubit state with X-shaped support.

    Diagonal a11..a44 (real, nonnegative, unit trace) plus anti-diagonal
    corners a14 and a23, their mirrors conjugate. Both 2x2 blocks need
    smallest eigenvalue >= -PSD_TOL, the dense check's rule; NaN fails every
    check, and corner parts past 1, beyond any state, fail before abs().
    """

    __slots__ = ("a11", "a22", "a33", "a44", "a14", "a23")

    def __init__(self, a11: float, a22: float, a33: float, a44: float, a14: complex = 0j, a23: complex = 0j):
        for name, value in (("a11", a11), ("a22", a22), ("a33", a33), ("a44", a44)):
            if not value >= -TRACE_TOL:
                raise ValidationError(f"{name} must be nonnegative, got {value}")
        trace = a11 + a22 + a33 + a44
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValidationError(f"trace must be 1, got {trace}")
        for name, p, q, corner in (("a14", a11, a44, a14), ("a23", a22, a33, a23)):
            if not (abs(corner.real) <= 1.0 and abs(corner.imag) <= 1.0):
                raise ValidationError(f"{name} must have parts in [-1, 1], got {corner}")
            low = _block_eigen(p, q, abs(corner))[1]
            if not low >= -PSD_TOL:
                raise ValidationError(f"{name} block has eigenvalue {low}: state not positive")
        super().__init__(a11, a22, a33, a44, a14, a23)


class WernerGenChannel(Frozen):
    """Convex mix of a pure Schmidt state with the maximally mixed state.

    p_w * |phi(theta)><phi(theta)| + (1 - p_w) * I/4, with p_w in [0, 1]
    and theta in [0, pi/4].
    """

    __slots__ = ("p_w", "theta")

    def __init__(self, p_w: float, theta: float):
        if not 0.0 <= p_w <= 1.0:
            raise ValidationError(f"p_w must lie in [0, 1], got {p_w}")
        if not 0.0 <= theta <= math.pi / 4:
            raise ValidationError(f"theta must lie in [0, pi/4], got {theta}")
        super().__init__(p_w, theta)


ChannelState = PureSchmidtChannel | XState | WernerGenChannel


def _x_fields(channel: ChannelState) -> tuple:
    """The six X fields (a11, a22, a33, a44, a14, a23) of a supported
    channel, read from a channel that was checked where it was built. A
    pure channel's a44 = 1 - a11 is exact (Sterbenz: a11 = cos(theta)**2
    lies in [0.5, 1]), so its trace and mu are exactly 1; a Werner channel
    with p_w = 1 is that pure channel and takes the same fields."""
    if isinstance(channel, XState):
        return channel.a11, channel.a22, channel.a33, channel.a44, channel.a14, channel.a23
    if isinstance(channel, PureSchmidtChannel) or (isinstance(channel, WernerGenChannel) and channel.p_w == 1.0):
        c, s = math.cos(channel.theta), math.sin(channel.theta)
        a11 = c * c
        return a11, 0.0, 0.0, 1.0 - a11, complex(c * s), 0j
    if isinstance(channel, WernerGenChannel):
        c, s = math.cos(channel.theta), math.sin(channel.theta)
        p = channel.p_w
        q = (1.0 - p) / 4.0
        return p * c * c + q, q, q, p * s * s + q, complex(p * c * s), 0j
    raise TypeError(f"unsupported channel type: {type(channel).__name__}")


def as_x_state(channel: ChannelState) -> XState:
    """Express any supported channel in the X-shaped parametrisation."""
    if isinstance(channel, XState):
        return channel
    return XState(*_x_fields(channel))


def _density_rows(channel: ChannelState) -> tuple:
    """The channel's 4x4 density matrix as a tuple of rows, without numpy."""
    a11, a22, a33, a44, a14, a23 = _x_fields(channel)
    return (
        (a11, 0.0, 0.0, a14),
        (0.0, a22, a23, 0.0),
        (0.0, a23.conjugate(), a33, 0.0),
        (a14.conjugate(), 0.0, 0.0, a44),
    )


def _block_eigen(p: float, q: float, off: float) -> tuple[float, float]:
    # eigenvalues of [[p, c], [conj(c), q]] with |c| = off
    mid = (p + q) / 2.0
    h = math.hypot((p - q) / 2.0, off)
    return mid + h, mid - h


def negativity(state: ChannelState) -> float:
    """Negativity of a channel, normalised to 1 for Bell pairs, from the
    closed-form X-block spectrum of its partial transpose. Anything but a
    channel raises TypeError."""
    a11, a22, a33, a44, a14, a23 = _x_fields(state)
    # partial transpose swaps the two anti-diagonal corners
    eigs = _block_eigen(a11, a44, abs(a23)) + _block_eigen(a22, a33, abs(a14))
    return -2.0 * sum(min(e, 0.0) for e in eigs)


def random_x_state(rng: np.random.Generator) -> XState:
    """Draw a valid X-shaped state.

    Diagonal from a flat Dirichlet; each corner sampled uniformly in
    magnitude inside its positivity disk, with a uniform phase, so no
    rejection loop is needed.

    The diagonal is four standard exponentials times one over their sum,
    added left to right: numpy's rng.dirichlet((1, 1, 1, 1)) bit for bit,
    as numpy draws a unit-shape gamma as a standard exponential and
    scales by the inverse of the running sum, at a fifth of its cost. The
    corners' four uniform draws come from one rng.random(4) call, bit for
    bit those of rng.uniform(0, 1, 2) and rng.uniform(0, 2 pi, 2), which
    numpy computes as low + (high - low) * rng.random().

    rng is a numpy Generator or its plain-Python port (_pcg64.Generator),
    which draws the same numbers from the same seed.
    """
    e0, e1, e2, e3 = rng.standard_exponential(4).tolist()
    scale = 1.0 / (((e0 + e1) + e2) + e3)
    d = (e0 * scale, e1 * scale, e2 * scale, e3 * scale)
    r14, r23, u14, u23 = rng.random(4).tolist()
    phase = (2.0 * math.pi * u14, 2.0 * math.pi * u23)
    a14 = r14 * math.sqrt(d[0] * d[3]) * complex(math.cos(phase[0]), math.sin(phase[0]))
    a23 = r23 * math.sqrt(d[1] * d[2]) * complex(math.cos(phase[1]), math.sin(phase[1]))
    return XState(d[0], d[1], d[2], d[3], a14, a23)
