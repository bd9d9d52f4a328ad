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

from .core_state import PSD_TOL, TRACE_TOL, UNIT_DIAGONAL_TOL, _check, _check_invariant, \
    _detector_gram, _is_integer, _quiet, _spectra, _store_read_only, _unit_diagonal_defect
from .errors import DimensionError, NormalizationError, RegimeError, ValidationError

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


def _check_priors(p1: float, p2: float) -> None:
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValidationError(f"priors ({p1}, {p2}) must lie in [0, 1]",
                              check="prior_range")
    _check(abs(p1 + p2 - 1.0), TRACE_TOL, "prior_sum",
           lambda: f"priors sum to {p1 + p2!r}, expected 1", NormalizationError)


@dataclass(frozen=True, eq=False)
class UqsdProblem:
    """Two normalized detector states with prior probabilities.

    Identical (|overlap| = 1) states are rejected: they carry no which-path
    information and cannot be discriminated at all.  ``d1`` and ``d2`` are
    stored as read-only copies and held to a pure state's detector rule:
    ``detector_dimension``, then ``gram_unit_diagonal`` on their Gram matrix.
    """

    d1: np.ndarray
    d2: np.ndarray
    p1: float
    p2: float

    @_quiet
    def __post_init__(self) -> None:
        _store_read_only(self, complex, "d1", "d2")
        gram = _detector_gram((self.d1, self.d2), ("d1", "d2"))
        _check_invariant("gram_unit_diagonal", float(_unit_diagonal_defect(gram)),
                         " for d1 and d2")
        _check_priors(self.p1, self.p2)
        if abs(np.vdot(self.d1, self.d2)) >= 1.0 - UNIT_DIAGONAL_TOL:
            raise ValidationError(
                "d1 and d2 are (numerically) identical and cannot be "
                "unambiguously discriminated", check="overlap_strict")

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

    def __post_init__(self) -> None:
        _store_read_only(self, complex, "e1", "e2", "e_fail", "basis")


def success_probability(p1: float, p2: float,
                        overlap_magnitude: float) -> SuccessProbability:
    """Optimal unambiguous-discrimination success probability.

    Returns 1 - 2 sqrt(p1 p2) s together with the flag telling whether this
    bound is attainable (s <= min(sqrt(p1/p2), sqrt(p2/p1))).  The formula
    value is returned regardless of the flag.
    """
    _check_priors(p1, p2)
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


def _span_coordinates(problem: UqsdProblem) -> tuple[np.ndarray, complex, float]:
    """Gram-Schmidt basis of span{d1, d2} plus d2's coordinates (omega, t)."""
    omega = problem.overlap
    residual = problem.d2 - omega * problem.d1
    t = float(np.linalg.norm(residual))
    return np.vstack([problem.d1, residual / t]), omega, t


def build_povm(problem: UqsdProblem) -> UqsdPovm:
    """Construct the optimal unambiguous-discrimination POVM.

    Raises RegimeError outside the optimal regime, where the minimal-failure
    bound is not attainable by any valid POVM.  The POVM has passed the Born
    checks ``simulate`` runs, and its success the analytic value, when returned.
    """
    s = abs(problem.overlap)
    analytic = success_probability(problem.p1, problem.p2, s)
    if not analytic.in_optimal_regime:
        raise RegimeError(
            f"overlap {s!r} exceeds min(sqrt(p1/p2), sqrt(p2/p1)) for priors "
            f"({problem.p1}, {problem.p2}); the minimal-failure POVM does not "
            "exist there")

    basis, omega, t = _span_coordinates(problem)
    if s == 0.0:
        a1 = a2 = 1.0
    else:
        # 1 - s and p1 - p2 are exact where 1 - s * s and 1 - sqrt(p2/p1) s cancel.
        q1, q2 = math.sqrt(problem.p1), math.sqrt(problem.p2)
        skew = (problem.p1 - problem.p2) / (q1 + q2)  # q1 - q2
        a1 = (skew + q2 * (1.0 - s)) / (q1 * (1.0 - s) * (1.0 + s))
        a2 = (q1 * (1.0 - s) - skew) / (q2 * (1.0 - s) * (1.0 + s))
    a1, a2 = max(a1, 0.0), max(a2, 0.0)

    u1 = np.array([t, -np.conj(omega)], dtype=complex)   # exactly _|_ (omega, t)
    u2 = np.array([0.0, 1.0], dtype=complex)             # exactly _|_ (1, 0)
    e1 = a1 * np.outer(u1, u1.conj())
    e2 = a2 * np.outer(u2, u2.conj())
    e_fail = np.eye(2, dtype=complex) - e1 - e2

    for name, eigs in zip(("e1", "e2", "e_fail"), _spectra(e1, e2, e_fail)):
        min_eig = float(eigs[0])
        _check(min_eig, -PSD_TOL, "povm_psd",
               lambda: f"POVM element {name} has eigenvalue {min_eig!r}")
    povm = UqsdPovm(e1=e1, e2=e2, e_fail=e_fail, basis=basis)
    probs = _born_probabilities(problem, povm)
    success = float(problem.p1 * probs[0, 0] + problem.p2 * probs[1, 1])
    _check(abs(success - analytic.value), COMPLETENESS_TOL, "povm_success",
           lambda: f"POVM success probability {success!r} deviates from the "
                   f"analytic value {analytic.value!r}")
    return povm


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical outcome frequencies of a seeded measurement run.

    ``freq_wrong`` counts outcome 1 on state 2 or outcome 2 on state 1; it
    is exactly zero, because ``simulate`` refuses a POVM whose Born
    probabilities for those outcomes exceed STRUCTURAL_ZERO and clamps the
    rest to exact zeros.
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
    for name, columns in (("e1", 2), ("e2", 2), ("e_fail", 2), ("basis", problem.d1.size)):
        shape = getattr(povm, name).shape
        if shape != (2, columns):
            raise DimensionError(f"POVM {name} has shape {shape}, expected (2, {columns})",
                                 check="povm_shape")
    coords = povm.basis.conj() @ np.vstack([problem.d1, problem.d2]).T  # (2, 2)
    probs = np.array([[np.vdot(vec, element @ vec).real
                       for element in (povm.e1, povm.e2, povm.e_fail)] for vec in coords.T])
    _check(float(probs.min()), -PSD_TOL, "born_probability",
           lambda: f"negative Born probability {probs.min()!r}; POVM is invalid")
    # A POVM built for other states can name the wrong one.
    leak = np.maximum(probs[0, 1], probs[1, 0])
    _check(float(leak), STRUCTURAL_ZERO, "born_unambiguity",
           lambda: f"POVM identifies the wrong state with probability {leak!r}; "
                   "it was not built for this problem")
    probs[probs < STRUCTURAL_ZERO] = 0.0
    rows = probs.sum(axis=1)
    _check(float(np.max(np.abs(rows - 1.0))), COMPLETENESS_TOL, "born_completeness",
           lambda: f"Born probabilities sum to {rows!r}; POVM is incomplete")
    return probs / rows[:, None]


@_quiet
def simulate(problem: UqsdProblem, povm: UqsdPovm, trials: int,
             seed: int) -> SimulationResult:
    """Draw the d1 count by the prior, then each state's outcome counts by its
    Born probabilities: O(1) in ``trials``, deterministic given (seed, trials).

    Raises ValidationError (check ``born_unambiguity``) when ``povm`` can
    identify the wrong state of ``problem``, as a POVM built for another
    problem does, and DimensionError (check ``povm_shape``) when its elements
    are not 2 x 2 or its two basis rows are not of ``problem``'s detector length.
    """
    if not _is_integer(trials) or not 0 < trials <= MAX_TRIALS:
        raise ValueError(f"trials must be an integer in [1, {MAX_TRIALS}], got {trials!r}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    probs = _born_probabilities(problem, povm)

    rng = np.random.default_rng(seed)
    on_d1 = int(rng.binomial(trials, problem.p1))
    # (E1, E2, fail) outcome counts on d1, then on d2.
    (right_1, wrong_1, fail_1), (wrong_2, right_2, fail_2) = rng.multinomial(
        [on_d1, trials - on_d1], probs).tolist()
    return SimulationResult(
        trials=int(trials), seed=int(seed),
        freq_correct_1=right_1 / trials, freq_correct_2=right_2 / trials,
        freq_fail=(fail_1 + fail_2) / trials, freq_wrong=(wrong_1 + wrong_2) / trials)
