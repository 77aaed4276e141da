"""Density-matrix simulation of teleportation along channel chains.

The sender holds the input qubit and the near half of the channel, does a
Bell-basis measurement on that pair, and the receiver applies the paired
Pauli correction to the far half. Summing the four corrected branches
gives the average output state as a completely positive map of the input.

That map is linear, so one hop is fixed by where it sends the four Pauli
matrices: its real 4x4 Pauli transfer matrix T[i, j] = tr(P_i E(P_j)) / 2
acts on Bloch vectors (1, x, y, z), and a chain is the product of its
hops' matrices. Each matrix comes from four runs of the measurement-level
hop, never from a closed form.

Averaging the input-output fidelity over the equatorial family
cos(phi)|0> + sin(phi)|1> needs no numerical integration: the integrand
is a trigonometric polynomial with harmonics at most 4, so an equispaced
average with 5 or more points is already exact. The simulator averages
over a fixed 8 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .errors import EmptyPathError, ValidationError
from .qcore import ChannelState, to_density_matrix

# numpy is imported inside the functions that use it, so importing the
# simulator does not load it.
if TYPE_CHECKING:
    import numpy as np

# equispaced inputs of the equatorial average; any count from 5 up is exact
_QUADRATURE_POINTS = 8


@cache
def _basis():
    """The correction the receiver applies for each Bell outcome, the
    projector onto each outcome (identity on the channel's far half), and
    the Pauli matrices I, X, Y, Z."""
    import numpy as np

    s2 = 1.0 / math.sqrt(2.0)
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    # Bell vectors in the order Phi+, Phi-, Psi+, Psi-
    bell_vectors = (
        np.array([1, 0, 0, 1], dtype=complex) * s2,
        np.array([1, 0, 0, -1], dtype=complex) * s2,
        np.array([0, 1, 1, 0], dtype=complex) * s2,
        np.array([0, 1, -1, 0], dtype=complex) * s2,
    )
    corrections = (i2, z, x, x @ z)
    projectors = tuple(np.kron(np.outer(b, b.conj()), i2) for b in bell_vectors)
    return corrections, projectors, (i2, x, y, z)


@dataclass(frozen=True)
class FidelityEstimate:
    """The simulator's average equatorial fidelity of a chain.

    Values may drift past [0, 1] by rounding only; anything worse is
    rejected.
    """

    value: float

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValidationError(f"fidelity {self.value} outside [0, 1]")
        object.__setattr__(self, "value", min(max(self.value, 0.0), 1.0))


def teleport_once(rho_in: np.ndarray, channel: ChannelState | np.ndarray) -> np.ndarray:
    """Teleport a single-qubit state through one two-qubit channel.

    Parameters
    ----------
    rho_in : 2x2 density matrix of the qubit to send. Any 2x2 matrix is
        accepted, since the map is linear.
    channel : channel object, or a raw 4x4 density matrix.

    Returns the 2x2 output matrix after averaging the four measurement
    branches with their corrections applied.
    """
    import numpy as np

    corrections, projectors, _ = _basis()
    if isinstance(channel, np.ndarray):
        rho_ch = np.asarray(channel, dtype=complex)
    else:
        rho_ch = to_density_matrix(channel)
    joint = np.kron(np.asarray(rho_in, dtype=complex), rho_ch)
    out = np.zeros((2, 2), dtype=complex)
    for proj, corr in zip(projectors, corrections):
        piece = proj @ joint @ proj
        # trace out the measured pair (first 4-dim factor)
        reduced = np.einsum("kikj->ij", piece.reshape(4, 2, 4, 2))
        out += corr @ reduced @ corr.conj().T
    return out


def transfer_matrix(channel: ChannelState | np.ndarray) -> np.ndarray:
    """Pauli transfer matrix T[i, j] = tr(P_i E(P_j)) / 2 of one hop.

    E is the hop's teleportation map, run once on each Pauli matrix P_j.
    """
    import numpy as np

    paulis = _basis()[2]
    if not isinstance(channel, np.ndarray):
        channel = to_density_matrix(channel)
    images = [teleport_once(p, channel) for p in paulis]
    return 0.5 * np.einsum("iab,jba->ij", np.array(paulis), np.array(images)).real


def average_azimuthal_fidelity(channels) -> FidelityEstimate:
    """Average equatorial fidelity of a chain by equispaced quadrature,
    exact for this integrand."""
    import numpy as np

    channels = list(channels)
    if not channels:
        raise EmptyPathError("cannot teleport through an empty chain")
    chain = np.eye(4)
    for channel in channels:
        chain = transfer_matrix(channel) @ chain
    # Bloch vectors (1, sin 2phi, 0, cos 2phi) of the inputs; a pure input's
    # fidelity with the output is s . (T s) / 2
    points = _QUADRATURE_POINTS
    two_phi = 4.0 * math.pi * np.arange(points) / points
    s = np.stack([np.ones(points), np.sin(two_phi), np.zeros(points), np.cos(two_phi)], axis=1)
    fidelities = 0.5 * np.einsum("pi,ij,pj->p", s, chain, s)
    return FidelityEstimate(float(fidelities.mean()))
