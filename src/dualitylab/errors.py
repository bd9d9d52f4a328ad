"""Exception types shared across the package."""

from __future__ import annotations


class DualityLabError(Exception):
    """Base class for every error raised by dualitylab."""


class ValidationError(DualityLabError):
    """A state object failed one of its structural invariants.

    Carries the name of the failed check together with the measured
    residual and the tolerance it was held against, so callers can report
    the offending quantity instead of a bare message.  ``residual`` is the
    compared quantity, a magnitude where the message quotes a signed value;
    a negative ``tolerance`` is a floor it had to reach, any other a ceiling
    it had to stay under, and NaN meets neither.
    """

    def __init__(self, message: str, *, check: str | None = None,
                 residual: float | None = None,
                 tolerance: float | None = None) -> None:
        super().__init__(message)
        self.check = check
        self.residual = residual
        self.tolerance = tolerance


class NormalizationError(ValidationError):
    """Amplitudes, state vectors or traces are not normalized to one."""


class DimensionError(ValidationError):
    """Array shapes are inconsistent or below the minimum path count."""


class DarkPairError(DualityLabError):
    """Both paths of a requested pair carry (numerically) zero probability."""


class DarkPatternError(DualityLabError):
    """A fringe profile has zero total intensity; contrast is undefined."""


class RegimeError(DualityLabError):
    """Priors/overlap fall outside the regime where the unambiguous
    discrimination failure bound is attainable by a valid POVM."""


class ConfigError(DualityLabError):
    """A scenario config failed to parse; carries every collected message."""

    def __init__(self, messages: list[str]) -> None:
        super().__init__("; ".join(messages))
        self.messages = list(messages)
