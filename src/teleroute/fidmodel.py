"""Closed-form fidelity laws for teleportation paths and link weights.

Every supported channel is X-shaped, and a hop multiplies two scalars:

    mu = a11 - a22 - a33 + a44      (population balance)
    nu = 2 Re a14 + 2 Re a23       (coherence)

so an L-hop path delivers average equatorial fidelity

    F = (2 + prod(mu_i) + prod(nu_i)) / 4.

Pure chains reduce to F = (3 + prod(sin 2 theta_i)) / 4. Where every
link has mu = 1, the best route maximises prod(nu), so a link with
mu = 1 and nu >= 0 adds -ln nu to a path (-ln N on a pure link), and a
shortest-path search finds the best route. link_weights alone applies
that rule; a negative real corner (nu < 0) fails it.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .errors import DomainError, EmptyPathError, NotAdditiveError
from .qcore import ChannelState, PureSchmidtChannel, WernerGenChannel, _x_fields

ADDITIVE_TOL = 1e-12


class LinkWeights(Frozen):
    """Per-link scalars: mu and nu in [-1, 1], and log_neg_weight, the
    additive -ln nu weight (-ln N on a pure link): inf where nu = 0, None
    when the link does not qualify for the additive single-weight model.
    Networks keep one per link, by link position (Network.weights)."""

    __slots__ = ("mu", "nu", "log_neg_weight")

    def require_additive(self, link_id: str) -> float:
        """log_neg_weight, or NotAdditiveError naming the link when it is None."""
        if self.log_neg_weight is None:
            raise NotAdditiveError(link_id, f"mu={self.mu}, nu={self.nu}; needs mu = 1 and nu >= 0")
        return self.log_neg_weight


class PathObjective(Frozen):
    """Accumulated products along a path, with the fidelity they imply."""

    __slots__ = ("mu_product", "nu_product")

    @property
    def fidelity(self) -> float:
        return (2.0 + self.mu_product + self.nu_product) / 4.0


def link_weights(channel: ChannelState) -> LinkWeights:
    """Compute mu and nu, clamped to [-1, 1], and the additive weight.

    Only XState's PSD_TOL slack or rounding gives a factor past 1. The
    link is additive when mu = 1 within ADDITIVE_TOL and nu >= 0; its
    weight is then -ln nu (+0.0 at nu = 1, inf at nu = 0), else None.
    """
    a11, a22, a33, a44, a14, a23 = _x_fields(channel)
    mu = a11 - a22 - a33 + a44
    nu = 2.0 * a14.real + 2.0 * a23.real
    mu = 1.0 if mu > 1.0 else -1.0 if mu < -1.0 else mu
    nu = 1.0 if nu > 1.0 else -1.0 if nu < -1.0 else nu
    weight = None
    if abs(mu - 1.0) <= ADDITIVE_TOL and nu >= 0.0:
        weight = 0.0 - math.log(nu) if nu > 0.0 else math.inf
    return LinkWeights(mu, nu, weight)


def fold_weights(weights) -> PathObjective:
    """Multiply the mu and nu of consecutive links into a PathObjective."""
    mu_product = 1.0
    nu_product = 1.0
    for w in weights:
        mu_product *= w.mu
        nu_product *= w.nu
    return PathObjective(mu_product, nu_product)


def _chain(channels) -> list:
    """The channels of a chain as a list; EmptyPathError when there are none."""
    channels = list(channels)
    if not channels:
        raise EmptyPathError("path must contain at least one channel")
    return channels


def path_objective(channels) -> PathObjective:
    """Fold link weights along a chain into a PathObjective; its fidelity
    is the chain's average equatorial fidelity."""
    return fold_weights(link_weights(channel) for channel in _chain(channels))


def pure_path_fidelity(channels) -> float:
    """Average equatorial fidelity of a chain of pure Schmidt channels."""
    product = 1.0
    for channel in _chain(channels):
        if not isinstance(channel, PureSchmidtChannel):
            raise DomainError(f"expected a pure channel, got {type(channel).__name__}")
        product *= math.sin(2.0 * channel.theta)
    return (3.0 + product) / 4.0


def werner_path_fidelity(channels) -> float:
    """Average equatorial fidelity of a chain of Werner-type channels.

    Reads only the mixing weight p_w and Schmidt angle of each hop:
    F = (2 + prod(p_i) + prod(p_i sin 2 theta_i)) / 4.
    """
    p_product = 1.0
    coh_product = 1.0
    for channel in _chain(channels):
        if not isinstance(channel, WernerGenChannel):
            raise DomainError(f"expected a Werner-type channel, got {type(channel).__name__}")
        p_product *= channel.p_w
        coh_product *= channel.p_w * math.sin(2.0 * channel.theta)
    return (2.0 + p_product + coh_product) / 4.0
