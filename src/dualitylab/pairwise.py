"""Metrics for a single pair of open interferometer paths.

Blocking all paths except i and j leaves the renormalized 2x2 state

    [[rho_ii,            rho_ij gram_ij],
     [rho_ji gram_ji,    rho_jj        ]] / (rho_ii + rho_jj),

whose fringe visibility and Ivanovic-Dieks-Peres (IDP) unambiguous
path-discrimination probability are

    V_ij = 2 |rho_ij| |gram_ij| / (rho_ii + rho_jj)
    D_ij = 1 - 2 sqrt(rho_ii rho_jj) |gram_ij| / (rho_ii + rho_jj).

D_ij is the optimal success probability only while
|gram_ij| <= min(sqrt(rho_ii/rho_jj), sqrt(rho_jj/rho_ii)), the
``in_optimal_regime`` rule of ``uqsd.success_probability``.  Outside that
range the optimum is p_max (1 - |gram_ij|^2), with p_max the larger of the
two renormalized path probabilities (Jaeger and Shimony, Phys. Lett. A 197,
83 (1995)), and D_ij exceeds it.

They close to an exact identity V_ij + D_ij + slack_ij = 1 with

    slack_ij = 2 (sqrt(rho_ii rho_jj) - |rho_ij|) |gram_ij| / (rho_ii + rho_jj),

non-negative because every 2x2 principal minor of a PSD matrix satisfies
|rho_ij| <= sqrt(rho_ii rho_jj); it vanishes identically for a pure quanton.
Hence V_ij + D_ij <= 1 always, with equality in the pure case.

Path indices are 0-based throughout the API (human-readable CLI tables are
1-based).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core_state import InterferometerState, _check, _is_integer, _quiet
from .errors import DarkPairError, ValidationError

# Below this total pair probability the 2x2 renormalization is numerically
# meaningless.
DARK_PAIR_THRESHOLD = 1e-14
# Closure of V + D + slack onto 1.
IDENTITY_TOL = 1e-10
SLACK_FLOOR = -1e-12


class PairMetrics(NamedTuple):
    """Visibility/distinguishability bundle for one pair of open paths.

    ``pair_weight`` is rho_ii + rho_jj, the probability that the quanton is
    found in either path.  The renormalized 2x2 pair state behind these
    numbers comes from ``open_pair``.
    """

    i: int
    j: int
    visibility: float
    distinguishability: float
    slack: float
    pair_weight: float


class _PairTable(NamedTuple):
    """The PairMetrics columns of every lit pair i < j in ascending (i, j)
    order, and the (i, j) of each dark pair (weight <= DARK_PAIR_THRESHOLD)."""

    i: np.ndarray
    j: np.ndarray
    visibility: np.ndarray
    distinguishability: np.ndarray
    slack: np.ndarray
    weight: np.ndarray
    dark: tuple[tuple[int, int], ...]


def _pair_values(p_i, p_j, rho_ij, gram_ij, weight):
    """(V, D, slack) of the formulas above, for scalars or arrays of pairs.

    The ufuncs round a scalar pair exactly as its row of the pair table,
    where the builtin ``abs`` of a complex scalar can differ by an ulp."""
    abs_gram = np.abs(gram_ij)
    abs_rho = np.abs(rho_ij)
    root = np.sqrt(p_i * p_j)
    visibility = 2.0 * abs_rho * abs_gram / weight
    distinguishability = 1.0 - 2.0 * root * abs_gram / weight
    slack = 2.0 * (root - abs_rho) * abs_gram / weight
    return visibility, distinguishability, slack


def _pair_parts(state: InterferometerState, i: int, j: int):
    """Shared index validation plus the raw entries a pair metric needs."""
    n = state.n
    if not (_is_integer(i) and _is_integer(j)):
        raise IndexError(f"pair ({i!r}, {j!r}) needs integer path indices")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair ({i}, {j}) out of range for {n} paths")
    if i == j:
        raise ValueError(f"pair indices must differ, got ({i}, {j})")
    p_i, p_j = state.rho[i, i].real, state.rho[j, j].real
    weight = p_i + p_j
    if weight <= DARK_PAIR_THRESHOLD:
        raise DarkPairError(
            f"paths ({i}, {j}) carry total probability {weight!r}; "
            "the renormalized pair state is undefined")
    return max(p_i, 0.0), max(p_j, 0.0), state.rho[i, j], state.gram[i, j], weight


# Each cached n holds 8 n(n-1) bytes of indices (0.5 MiB at n = 256).
@lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of every pair i < j in ascending (i, j) order,
    read-only because every table built at this n shares them."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_table(state: InterferometerState, diag: np.ndarray) -> _PairTable:
    """All pair metrics of ``state``, whose real rho diagonal is ``diag``, at
    once through the same formulas; lit masks are made only if a pair is dark."""
    i, j = _pair_indices(state.n)
    probs = np.maximum(diag, 0.0)
    weight = diag[i] + diag[j]
    dark = weight <= DARK_PAIR_THRESHOLD
    dark_pairs = tuple(zip(i[dark].tolist(), j[dark].tolist())) if dark.any() else ()
    if dark_pairs:
        i, j, weight = (column[~dark] for column in (i, j, weight))
    values = _pair_values(probs[i], probs[j], state.rho[i, j], state.gram[i, j], weight)
    return _PairTable(i, j, *values, weight, dark_pairs)


def _check_pairs(i, j, visibility, distinguishability, slack) -> None:
    """Raise for the first pair (scalars or arrays) whose closure or slack
    leaves tolerance, which means the state escaped validation."""
    closure = visibility + distinguishability + slack - 1.0
    bad = ~((abs(closure) <= IDENTITY_TOL) & (slack >= SLACK_FLOOR))
    if not bad.any():
        return
    k = np.flatnonzero(bad)[0]
    i, j, closure, slack = (np.ravel(column)[k] for column in (i, j, closure, slack))
    _check(float(abs(closure)), IDENTITY_TOL, "pair_identity",
           lambda: f"pair ({i}, {j}): V + D + slack deviates from 1 by {float(closure)!r}")
    _check(float(slack), SLACK_FLOOR, "pair_slack",
           lambda: f"pair ({i}, {j}): negative slack {float(slack)!r} implies a non-PSD minor")


@_quiet
def open_pair(state: InterferometerState, i: int, j: int) -> np.ndarray:
    """Renormalized 2x2 state of paths (i, j) with all other paths blocked.

    Returns the physical reduced state, i.e. with the detector overlap
    folded into the off-diagonal, so its fringe pattern is directly
    comparable with the full simulation.

    Raises DarkPairError when rho_ii + rho_jj is numerically zero, and
    ValidationError (check ``finite``) when it is not finite.
    """
    weight = _pair_parts(state, i, j)[-1]
    if not np.isfinite(weight):
        raise ValidationError(f"paths ({i}, {j}) carry non-finite total probability "
                              f"{float(weight)!r}", check="finite")
    return _pair_entries(state, i, j, weight).reshape(2, 2)


def _pair_entries(state: InterferometerState, i, j, weight) -> np.ndarray:
    """R_00, R_01, R_10, R_11 of the renormalized pair state of paths (i, j),
    whose total probability is ``weight``, stacked along the first axis.

    ``i``, ``j`` and ``weight`` are scalars or equal-length arrays of pairs;
    nothing is validated, so callers pass valid, lit pairs.
    """
    rho, gram = state.rho, state.gram
    entries = np.array([rho[i, i], rho[i, j], rho[j, i], rho[j, j]])
    # Each coherence term times its overlap, rounded as one complex scalar
    # product is: numpy's array loop may fuse a multiply-add, so a stack of
    # pairs would not match each pair alone.
    terms, overlaps = entries[1:3], np.array([gram[i, j], gram[j, i]])
    entries.real[1:3], entries.imag[1:3] = (
        terms.real * overlaps.real - terms.imag * overlaps.imag,
        terms.real * overlaps.imag + terms.imag * overlaps.real)
    return entries / weight


@_quiet
def pair_visibility(state: InterferometerState, i: int, j: int) -> float:
    """Fringe visibility of the two-path pattern from paths (i, j)."""
    return _pair_values(*_pair_parts(state, i, j))[0]


@_quiet
def pair_distinguishability(state: InterferometerState, i: int, j: int) -> float:
    """IDP probability of unambiguously telling path i from path j.

    Evaluates 1 - 2 sqrt(rho_ii rho_jj) |gram_ij| / (rho_ii + rho_jj), the
    Ivanovic-Dieks-Peres two-state unambiguous-discrimination success
    probability with priors rho_ii/(rho_ii+rho_jj) and rho_jj/(rho_ii+rho_jj).
    It is the optimum only where ``uqsd.success_probability`` reports
    ``in_optimal_regime``; elsewhere it exceeds what any measurement attains.
    """
    return _pair_values(*_pair_parts(state, i, j))[1]


@_quiet
def pair_metrics(state: InterferometerState, i: int, j: int) -> PairMetrics:
    """Full metric bundle for one pair, with the closure identity checked.

    Verifies V + D + slack = 1 within IDENTITY_TOL and slack >= SLACK_FLOOR;
    a violation would mean the input state escaped validation and is
    reported as a ValidationError.
    """
    parts = _pair_parts(state, i, j)
    visibility, distinguishability, slack = _pair_values(*parts)
    _check_pairs(i, j, visibility, distinguishability, slack)
    return PairMetrics(i, j, visibility, distinguishability, slack, parts[-1])
