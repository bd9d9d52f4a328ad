"""n-path coherence, distinguishability and their duality relations.

The n-path wave measure is the overlap-damped l1-type coherence

    C   = (1/(n-1)) sum_{i != j} |rho_ij| |gram_ij|

and the particle measure is

    D_Q = 1 - (1/(n-1)) sum_{i != j} sqrt(rho_ii rho_jj) |gram_ij|,

bounded by C + D_Q <= 1 with equality for a pure quanton.  Both quantities
are also exact aggregates of the two-path metrics:

    equal path probabilities:   C = (2/(n(n-1))) sum_pairs V_ij
                                D_Q = (2/(n(n-1))) sum_pairs D_ij
    general path probabilities: C = (1/(n-1)) sum_pairs (rho_ii+rho_jj) V_ij
                                D_Q = (1/(n-1)) sum_pairs (rho_ii+rho_jj) D_ij

so both are measurable by opening one pair of paths at a time.  The report
computes the direct formulas AND the pairwise aggregates so the identity can
be checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core_state import InterferometerState, _check, _quiet
from .pairwise import PairMetrics, _check_pairs, _pair_table, _PairTable

# Below this deviation of max|rho_ii - 1/n| the state counts as symmetric
# (equal path probabilities).
SYMMETRY_TOL = 1e-10
# Pairwise aggregates must match the direct formulas this tightly.
AGGREGATION_TOL = 1e-10
DUALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Complete duality bookkeeping for one state.

    ``duality_margin`` is 1 - (coherence + distinguishability), non-negative
    for every valid state and zero (within tolerance) for a pure quanton.
    ``symmetric_sum_lhs`` is the plain pair average of (D_ij + V_ij) and is
    only populated when the state is symmetric; ``weighted_sum_lhs`` is the
    intensity-weighted pair sum of (D_ij + V_ij)/(n-1), valid universally.
    Pairs whose total probability is numerically zero cannot be renormalized
    and are listed in ``dark_pairs`` instead of ``pairwise``; they carry zero
    weight in every aggregate.
    """

    n: int
    coherence: float
    distinguishability: float
    pairwise: tuple[PairMetrics, ...]
    dark_pairs: tuple[tuple[int, int], ...]
    symmetric_sum_lhs: float | None
    weighted_sum_lhs: float
    duality_margin: float
    is_symmetric: bool


def _is_symmetric(probs: np.ndarray) -> bool:
    return bool(np.abs(probs - 1.0 / probs.size).max() <= SYMMETRY_TOL)


def is_symmetric(state: InterferometerState) -> bool:
    """True when all path probabilities equal 1/n within SYMMETRY_TOL."""
    return _is_symmetric(state.rho.diagonal().real)


def _coherence(rho: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """C over the leading axes of broadcasting (..., n, n) rho and gram."""
    weights = np.abs(rho) * np.abs(gram)
    off_diagonal = weights.sum(axis=(-2, -1)) - np.trace(weights, axis1=-2, axis2=-1)
    return off_diagonal / (weights.shape[-1] - 1)


def _distinguishability(rho: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """D_Q over the leading axes of broadcasting (..., n, n) rho and gram."""
    probs = np.maximum(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0)
    geo = np.sqrt(probs[..., :, None] * probs[..., None, :]) * np.abs(gram)
    off_diagonal = geo.sum(axis=(-2, -1)) - np.trace(geo, axis1=-2, axis2=-1)
    return 1.0 - off_diagonal / (geo.shape[-1] - 1)


@_quiet
def coherence(state: InterferometerState) -> float:
    """Overlap-damped l1 coherence C of the effective state, in [0, 1]."""
    return float(_coherence(state.rho, state.gram))


@_quiet
def distinguishability(state: InterferometerState) -> float:
    """n-path distinguishability D_Q, in [0, 1].

    Defined through the same pair sums that remain meaningful even when the
    detector states are linearly dependent (rank-deficient Gram matrix).
    """
    return float(_distinguishability(state.rho, state.gram))


def _aggregate(table: _PairTable, values: np.ndarray, n: int, symmetric: bool) -> float:
    """Sum per-pair values into an n-path quantity: the plain pair average
    for symmetric states (every weight is 2/n, so no pair is dark), else the
    lit pairs weighted by rho_ii + rho_jj over (n-1)."""
    if symmetric:
        return 2.0 * math.fsum(values.tolist()) / (n * (n - 1))
    return math.fsum((table.weight * values).tolist()) / (n - 1)


@_quiet
def coherence_from_pair_visibilities(state: InterferometerState) -> float:
    """Aggregate the two-path visibilities back into the n-path coherence."""
    diag = state.rho.diagonal().real
    table = _pair_table(state, diag)
    return _aggregate(table, table.visibility, state.n, _is_symmetric(diag))


@_quiet
def distinguishability_from_pairs(state: InterferometerState) -> float:
    """Aggregate the two-path distinguishabilities into the n-path D_Q."""
    diag = state.rho.diagonal().real
    table = _pair_table(state, diag)
    return _aggregate(table, table.distinguishability, state.n, _is_symmetric(diag))


@_quiet
def duality_report(state: InterferometerState) -> DualityReport:
    """Evaluate every duality quantity and cross-check the aggregates.

    Every pair number comes from one read of the pair table, whose rows run
    in ascending (i, j) order; its columns are masked down to the lit pairs
    only when a pair is dark.  Each pair sum is an exactly rounded
    ``math.fsum``, so the report is deterministic per state.
    """
    n = state.n
    coh = float(_coherence(state.rho, state.gram))
    dist = float(_distinguishability(state.rho, state.gram))
    margin = 1.0 - (coh + dist)
    _check(margin, -DUALITY_TOL, "duality_bound",
           lambda: f"coherence + distinguishability exceeds 1 by {-margin!r}")
    diag = state.rho.diagonal().real
    table = _pair_table(state, diag)
    _check_pairs(*table[:5])

    symmetric = _is_symmetric(diag)
    for label, direct, values in (("coherence", coh, table.visibility),
                                  ("distinguishability", dist, table.distinguishability)):
        aggregated = _aggregate(table, values, n, symmetric)
        _check(abs(direct - aggregated), AGGREGATION_TOL, f"{label}_aggregation",
               lambda: f"pairwise-aggregated {label} {aggregated!r} deviates from "
                       f"the direct value {direct!r}")
    both = table.distinguishability + table.visibility
    symmetric_sum = _aggregate(table, both, n, True) if symmetric else None
    weighted_sum = _aggregate(table, both, n, False)

    rows = zip(*(column.tolist() for column in table[:6]))
    return DualityReport(
        n=n, coherence=coh, distinguishability=dist,
        pairwise=tuple(map(partial(tuple.__new__, PairMetrics), rows)),
        dark_pairs=table.dark, symmetric_sum_lhs=symmetric_sum,
        weighted_sum_lhs=weighted_sum, duality_margin=margin, is_symmetric=symmetric)
