"""Optimal unambiguous discrimination of two pure detector states.

A three-outcome POVM {E1, E2, E_fail} unambiguously discriminates |d1> and
|d2> when E1 annihilates |d2> and E2 annihilates |d1>: outcome 1 or 2 then
identifies the state with certainty and only the fail outcome is
uninformative.  With priors p1, p2 and overlap s = |<d1|d2>|, the minimal
failure probability 2 sqrt(p1 p2) s (equivalently, maximal success
probability 1 - 2 sqrt(p1 p2) s) is attainable by a valid POVM exactly when
s <= min(sqrt(p1/p2), sqrt(p2/p1)); outside that regime the optimum is a
projective measurement and this module refuses to build the POVM rather
than return something sub-optimal.

The construction works in an orthonormal basis of span{d1, d2} (the ambient
detector dimension is irrelevant to discrimination):

    E1 = a1 |u1><u1|,  u1 _|_ d2,  a1 = (1 - sqrt(p2/p1) s) / (1 - s^2)
    E2 = a2 |u2><u2|,  u2 _|_ d1,  a2 = (1 - sqrt(p1/p2) s) / (1 - s^2)
    E_fail = I - E1 - E2.

A seeded Monte Carlo harness samples the measurement record; wrong
identifications are structurally impossible, not merely rare, because the
corresponding Born probabilities are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NormalizationError, RegimeError, ValidationError

PRIOR_SUM_TOL = 1e-12
STATE_NORM_TOL = 1e-12
POVM_PSD_TOL = 1e-10
UNAMBIGUITY_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
# Born probabilities below this are exact zeros of the construction polluted
# by rounding; they are clamped to 0 before sampling so that structurally
# forbidden outcomes can never be drawn.
STRUCTURAL_ZERO = 1e-12
# Largest trial count numpy's binomial sampler accepts (int64).
MAX_TRIALS = 2**63 - 1


class SuccessProbability(NamedTuple):
    """Formula value plus whether it is attainable by a valid POVM."""

    value: float
    in_optimal_regime: bool


def _as_unit_vector(values, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-d vector", check="vector")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name} contains non-finite entries", check="finite")
    # A norm past the float limit overflows to inf, which fails its check.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise NormalizationError(f"{name} has norm {norm!r}, expected 1",
                                 check="state_norm", residual=abs(norm - 1.0),
                                 tolerance=STATE_NORM_TOL)
    return vec


@dataclass(frozen=True, eq=False)
class UqsdProblem:
    """Two normalized detector states with prior probabilities.

    Identical (|overlap| = 1) states are rejected: they carry no which-path
    information and cannot be discriminated at all.
    """

    d1: np.ndarray
    d2: np.ndarray
    p1: float
    p2: float

    def __post_init__(self) -> None:
        d1 = _as_unit_vector(self.d1, "d1")
        d2 = _as_unit_vector(self.d2, "d2")
        if d1.size != d2.size:
            raise DimensionError(
                f"d1 and d2 must share a dimension, got {d1.size} vs {d2.size}",
                check="state_dimension")
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValidationError(f"priors ({self.p1}, {self.p2}) must lie in [0, 1]",
                                  check="prior_range")
        if abs(self.p1 + self.p2 - 1.0) > PRIOR_SUM_TOL:
            raise NormalizationError(
                f"priors sum to {self.p1 + self.p2!r}, expected 1",
                check="prior_sum", residual=abs(self.p1 + self.p2 - 1.0),
                tolerance=PRIOR_SUM_TOL)
        if abs(np.vdot(d1, d2)) >= 1.0 - STATE_NORM_TOL:
            raise ValidationError(
                "d1 and d2 are (numerically) identical and cannot be "
                "unambiguously discriminated", check="overlap_strict")
        d1.setflags(write=False)
        d2.setflags(write=False)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    @property
    def overlap(self) -> complex:
        """<d1|d2>."""
        return complex(np.vdot(self.d1, self.d2))


@dataclass(frozen=True, eq=False)
class UqsdPovm:
    """Three positive operators on span{d1, d2}, expressed in an orthonormal
    basis of that span (rows of ``basis`` are the basis vectors in the
    ambient detector space)."""

    e1: np.ndarray
    e2: np.ndarray
    e_fail: np.ndarray
    basis: np.ndarray
    in_optimal_regime: bool

    def __post_init__(self) -> None:
        for name in ("e1", "e2", "e_fail", "basis"):
            arr = np.array(getattr(self, name), dtype=complex, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def success_probability(p1: float, p2: float,
                        overlap_magnitude: float) -> SuccessProbability:
    """Optimal unambiguous-discrimination success probability.

    Returns 1 - 2 sqrt(p1 p2) s together with the flag telling whether this
    bound is attainable (s <= min(sqrt(p1/p2), sqrt(p2/p1))).  The formula
    value is returned regardless of the flag.
    """
    if abs(p1 + p2 - 1.0) > PRIOR_SUM_TOL:
        raise NormalizationError(f"priors sum to {p1 + p2!r}, expected 1",
                                 check="prior_sum")
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValidationError(f"priors ({p1}, {p2}) must lie in [0, 1]",
                              check="prior_range")
    s = float(overlap_magnitude)
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"overlap magnitude {s!r} must lie in [0, 1]",
                              check="overlap_range")
    value = 1.0 - 2.0 * math.sqrt(p1 * p2) * s
    if p1 <= 0.0 or p2 <= 0.0:
        regime = s == 0.0
    else:
        regime = s <= min(math.sqrt(p1 / p2), math.sqrt(p2 / p1))
    return SuccessProbability(value=value, in_optimal_regime=bool(regime))


def _span_coordinates(problem: UqsdProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt basis of span{d1, d2} plus both states' coordinates."""
    omega = problem.overlap
    b1 = problem.d1
    residual = problem.d2 - omega * b1
    t = float(np.linalg.norm(residual))
    b2 = residual / t
    basis = np.vstack([b1, b2])
    d1c = np.array([1.0, 0.0], dtype=complex)
    d2c = np.array([omega, t], dtype=complex)
    return basis, d1c, d2c


def build_povm(problem: UqsdProblem) -> UqsdPovm:
    """Construct the optimal unambiguous-discrimination POVM.

    Raises RegimeError outside the optimal regime, where the minimal-failure
    bound is not attainable by any valid POVM.
    """
    s = abs(problem.overlap)
    analytic = success_probability(problem.p1, problem.p2, s)
    if not analytic.in_optimal_regime:
        raise RegimeError(
            f"overlap {s!r} exceeds min(sqrt(p1/p2), sqrt(p2/p1)) for priors "
            f"({problem.p1}, {problem.p2}); the minimal-failure POVM does not "
            "exist there")

    basis, d1c, d2c = _span_coordinates(problem)
    omega, t = d2c[0], d2c[1].real
    if s == 0.0:
        a1 = a2 = 1.0
    else:
        a1 = (1.0 - math.sqrt(problem.p2 / problem.p1) * s) / (1.0 - s * s)
        a2 = (1.0 - math.sqrt(problem.p1 / problem.p2) * s) / (1.0 - s * s)
    a1 = max(a1, 0.0)
    a2 = max(a2, 0.0)

    u1 = np.array([t, -np.conj(omega)], dtype=complex)   # exactly _|_ d2c
    u2 = np.array([0.0, 1.0], dtype=complex)             # exactly _|_ d1c
    e1 = a1 * np.outer(u1, u1.conj())
    e2 = a2 * np.outer(u2, u2.conj())
    e_fail = np.eye(2, dtype=complex) - e1 - e2

    for name, element in (("e1", e1), ("e2", e2), ("e_fail", e_fail)):
        min_eig = float(np.linalg.eigvalsh(0.5 * (element + element.conj().T))[0])
        if min_eig < -POVM_PSD_TOL:
            raise ValidationError(
                f"POVM element {name} has eigenvalue {min_eig!r}",
                check="povm_psd", residual=min_eig, tolerance=-POVM_PSD_TOL)
    for name, element, coords in (("e1", e1, d2c), ("e2", e2, d1c)):
        leak = float(np.vdot(coords, element @ coords).real)
        if abs(leak) > UNAMBIGUITY_TOL:
            raise ValidationError(
                f"POVM element {name} leaks probability {leak!r} onto the "
                "forbidden state", check="povm_unambiguity",
                residual=leak, tolerance=UNAMBIGUITY_TOL)
    success = (problem.p1 * float(np.vdot(d1c, e1 @ d1c).real)
               + problem.p2 * float(np.vdot(d2c, e2 @ d2c).real))
    if abs(success - analytic.value) > COMPLETENESS_TOL:
        raise ValidationError(
            f"POVM success probability {success!r} deviates from the analytic "
            f"value {analytic.value!r}", check="povm_success",
            residual=abs(success - analytic.value), tolerance=COMPLETENESS_TOL)

    return UqsdPovm(e1=e1, e2=e2, e_fail=e_fail, basis=basis,
                    in_optimal_regime=True)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical outcome frequencies of a seeded measurement run.

    ``freq_wrong`` counts outcome 1 on state 2 or outcome 2 on state 1; it
    is exactly zero for every valid POVM because those Born probabilities
    are clamped structural zeros, not small numbers.
    """

    trials: int
    seed: int
    freq_correct_1: float
    freq_correct_2: float
    freq_fail: float
    freq_wrong: float

    @property
    def success_frequency(self) -> float:
        return self.freq_correct_1 + self.freq_correct_2


def _born_probabilities(problem: UqsdProblem, povm: UqsdPovm) -> np.ndarray:
    """(2, 3) matrix of outcome probabilities (E1, E2, fail) per state."""
    coords = povm.basis.conj() @ np.vstack([problem.d1, problem.d2]).T  # (2, 2)
    probs = np.empty((2, 3), dtype=float)
    for k in range(2):
        vec = coords[:, k]
        for m, element in enumerate((povm.e1, povm.e2, povm.e_fail)):
            probs[k, m] = float(np.vdot(vec, element @ vec).real)
    if probs.min() < -POVM_PSD_TOL:
        raise ValidationError(
            f"negative Born probability {probs.min()!r}; POVM is invalid",
            check="born_probability", residual=float(probs.min()),
            tolerance=-POVM_PSD_TOL)
    probs[probs < STRUCTURAL_ZERO] = 0.0
    rows = probs.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > COMPLETENESS_TOL:
        raise ValidationError(
            f"Born probabilities sum to {rows!r}; POVM is incomplete",
            check="born_completeness")
    return probs / rows[:, None]


def simulate(problem: UqsdProblem, povm: UqsdPovm, trials: int,
             seed: int) -> SimulationResult:
    """Draw the d1 count by the prior, then each state's outcome counts by its
    Born probabilities: O(1) in ``trials``, deterministic given (seed, trials)."""
    if (not isinstance(trials, (int, np.integer)) or isinstance(trials, bool)
            or not 0 < trials <= MAX_TRIALS):
        raise ValueError(f"trials must be an integer in [1, {MAX_TRIALS}], got {trials!r}")
    probs = _born_probabilities(problem, povm)

    rng = np.random.default_rng(seed)
    on_d1 = int(rng.binomial(trials, problem.p1))
    # (E1, E2, fail) outcome counts on d1, then on d2.
    (right_1, wrong_1, fail_1), (wrong_2, right_2, fail_2) = (
        rng.multinomial(count, row).tolist()
        for count, row in zip((on_d1, trials - on_d1), probs))
    return SimulationResult(
        trials=int(trials), seed=int(seed),
        freq_correct_1=right_1 / trials, freq_correct_2=right_2 / trials,
        freq_fail=(fail_1 + fail_2) / trials, freq_wrong=(wrong_1 + wrong_2) / trials)
