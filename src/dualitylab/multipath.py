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

import numpy as np

from .core_state import InterferometerState
from .errors import ValidationError
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


def is_symmetric(state: InterferometerState) -> bool:
    """True when all path probabilities equal 1/n within SYMMETRY_TOL."""
    probs = np.diag(state.rho).real
    return bool(np.max(np.abs(probs - 1.0 / state.n)) <= SYMMETRY_TOL)


def _coherence(rho: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """C over the leading axes of broadcasting (..., n, n) rho and gram."""
    weights = np.abs(rho) * np.abs(gram)
    off_diagonal = weights.sum(axis=(-2, -1)) - np.trace(weights, axis1=-2, axis2=-1)
    return off_diagonal / (weights.shape[-1] - 1)


def _distinguishability(rho: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """D_Q over the leading axes of broadcasting (..., n, n) rho and gram."""
    probs = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    geo = np.sqrt(probs[..., :, None] * probs[..., None, :]) * np.abs(gram)
    off_diagonal = geo.sum(axis=(-2, -1)) - np.trace(geo, axis1=-2, axis2=-1)
    return 1.0 - off_diagonal / (geo.shape[-1] - 1)


def coherence(state: InterferometerState) -> float:
    """Overlap-damped l1 coherence C of the effective state, in [0, 1]."""
    return float(_coherence(state.rho, state.gram))


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
    lit = ~table.dark
    return math.fsum((table.weight[lit] * values[lit]).tolist()) / (n - 1)


def coherence_from_pair_visibilities(state: InterferometerState) -> float:
    """Aggregate the two-path visibilities back into the n-path coherence."""
    table = _pair_table(state)
    return _aggregate(table, table.visibility, state.n, is_symmetric(state))


def distinguishability_from_pairs(state: InterferometerState) -> float:
    """Aggregate the two-path distinguishabilities into the n-path D_Q."""
    table = _pair_table(state)
    return _aggregate(table, table.distinguishability, state.n, is_symmetric(state))


def duality_report(state: InterferometerState) -> DualityReport:
    """Evaluate every duality quantity and cross-check the aggregates.

    Every pair number comes from one pair table whose rows run in ascending
    (i, j) order, and each pair sum is an exactly rounded ``math.fsum``, so
    the report is deterministic per state.
    """
    n = state.n
    coh = coherence(state)
    dist = distinguishability(state)
    margin = 1.0 - (coh + dist)
    if margin < -DUALITY_TOL:
        raise ValidationError(
            f"coherence + distinguishability exceeds 1 by {-margin!r}",
            check="duality_bound", residual=margin, tolerance=DUALITY_TOL)

    table = _pair_table(state)
    lit = table._make(column[~table.dark] for column in table)
    _check_pairs(lit.i, lit.j, lit.visibility, lit.distinguishability, lit.slack)

    symmetric = is_symmetric(state)
    for label, direct, values in (("coherence", coh, table.visibility),
                                  ("distinguishability", dist, table.distinguishability)):
        aggregated = _aggregate(table, values, n, symmetric)
        if abs(direct - aggregated) > AGGREGATION_TOL:
            raise ValidationError(
                f"pairwise-aggregated {label} {aggregated!r} deviates from the "
                f"direct value {direct!r}",
                check=f"{label}_aggregation",
                residual=abs(direct - aggregated), tolerance=AGGREGATION_TOL)
    both = table.distinguishability + table.visibility
    symmetric_sum = _aggregate(table, both, n, True) if symmetric else None
    weighted_sum = _aggregate(table, both, n, False)

    rows = zip(lit.i.tolist(), lit.j.tolist(), lit.visibility.tolist(),
               lit.distinguishability.tolist(), lit.slack.tolist(), lit.weight.tolist())
    dark = zip(table.i[table.dark].tolist(), table.j[table.dark].tolist())
    return DualityReport(
        n=n, coherence=coh, distinguishability=dist,
        pairwise=tuple(PairMetrics(*row) for row in rows), dark_pairs=tuple(dark),
        symmetric_sum_lhs=symmetric_sum, weighted_sum_lhs=weighted_sum,
        duality_margin=margin, is_symmetric=symmetric)
