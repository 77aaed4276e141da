"""Exception hierarchy shared across the package.

Everything raised on purpose derives from TelerouteError so callers can
catch one base type. DomainError covers inputs that are well-formed but
outside what an operation accepts; ValidationError covers objects that
fail their own consistency checks; ParseError covers malformed files.
"""

from __future__ import annotations

import reprlib

_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 3
_BRIEF.maxstring = 40
_BRIEF.maxother = 40
_BRIEF.maxlong = 40


def brief(value) -> str:
    """repr of an offending value for an error message, cut to a few
    dozen characters (reprlib limits: nesting, string and number length,
    container items), so a huge input value cannot make a huge message."""
    return _BRIEF.repr(value)


class TelerouteError(Exception):
    """Base class for all package errors."""


class DomainError(TelerouteError):
    """Input is structurally fine but outside the operation's domain."""


class ValidationError(TelerouteError):
    """An object failed its consistency checks (trace, PSD, pattern...)."""


class ParseError(TelerouteError):
    """A network file is malformed or uses unknown fields."""


class EmptyPathError(DomainError):
    """A chain operation was given zero channels."""


class NoPathError(DomainError):
    """No usable path exists between the requested endpoints."""


class NotAdditiveError(DomainError):
    """A link does not qualify for the additive single-weight route model.

    Carries the offending link id and a short reason so callers can report
    which channel broke the assumption.
    """

    def __init__(self, link_id: str, reason: str):
        self.link_id = link_id
        self.reason = reason
        super().__init__(f"link {brief(link_id)} not admissible for additive routing: {reason}")


class CapExceededError(DomainError):
    """An exhaustive check or search exceeds its size or path budget."""


class GenerationError(TelerouteError):
    """Random instance generation could not satisfy its constraints."""


class DegenerateError(DomainError):
    """A formula's denominator vanished (both inputs unentangled)."""


class UnphysicalSwapError(DomainError):
    """A swap outcome left the physical range and cannot seed a plan."""


class PlanConflictError(DomainError):
    """No valid pair of spare links exists at the requested swap node."""
