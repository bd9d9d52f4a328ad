"""Quanton-detector states for n-path interference.

An interferometer snapshot is a pair of n x n matrices: ``rho``, the quanton
density matrix in the path basis, and ``gram``, the Gram matrix of the
normalized which-path detector states with the ordering convention

    gram[i, j] = <d_j | d_i>.

Only ``|gram[i, j]|`` enters any visibility or distinguishability formula,
and ``|gram|`` is symmetric, so the ordering convention never affects a
magnitude-based result.  The observable (detector-traced) state is the
entrywise product ``rho * gram``, again Hermitian, positive semi-definite
and trace one because the Schur product of PSD matrices is PSD.

States are built either from explicit amplitudes and detector vectors (pure
quanton) or from a raw ``(rho, gram)`` pair, since experiments typically
quote overlaps rather than detector vectors.  Path states are an abstract
orthonormal label basis; there is no time evolution here, only snapshots
after the quanton-detector coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NormalizationError, ValidationError

# Equality-type tolerances (exceed double-precision accumulation error for
# the n <= 16 matrices this package targets).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
UNIT_DIAGONAL_TOL = 1e-12
DETECTOR_NORM_TOL = 1e-12
# Spectral tolerances.
PSD_TOL = 1e-10          # smallest eigenvalue may not drop below -PSD_TOL
AMPLITUDE_NORM_TOL = 1e-10
PURITY_TOL = 1e-10       # rank-one detection: top eigenvalue within this of 1


def _as_complex_matrix(values, name: str) -> np.ndarray:
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {mat.shape}",
                             check="square")
    if mat.shape[0] < 2:
        raise DimensionError(f"{name} needs at least 2 paths, got {mat.shape[0]}",
                             check="path_count")
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{name} contains non-finite entries", check="finite")
    return mat


def _as_complex_vector(values, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-d vector, got shape {vec.shape}",
                             check="vector")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name} contains non-finite entries", check="finite")
    return vec


def _hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part, so eigvalsh sees an
    exactly Hermitian operand."""
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Outcome of a single invariant check with its measured residual."""

    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class StateDiagnostics:
    """Per-invariant pass/fail report for an interferometer state.

    ``gram_rank`` is reported because a rank-deficient Gram matrix means the
    detector states are linearly dependent; every formula here remains well
    defined in that case, but downstream interpretation may care.
    """

    checks: tuple[CheckResult, ...]
    gram_rank: int

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


@dataclass(frozen=True, eq=False)
class InterferometerState:
    """Immutable (rho, gram) pair describing one interferometer snapshot.

    ``purity_flag`` is True when rho is (numerically) rank one, i.e. the
    quanton itself is in a pure state; every pairwise duality relation then
    saturates to an equality.  The arrays are stored read-only, so instances
    are safe to share across threads.
    """

    rho: np.ndarray
    gram: np.ndarray
    purity_flag: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _frozen(self.rho))
        object.__setattr__(self, "gram", _frozen(self.gram))

    @property
    def n(self) -> int:
        """Number of interferometer paths."""
        return self.rho.shape[0]

    @cached_property
    def diagnostics(self) -> StateDiagnostics:
        """Invariant checks: stored by build_mixed_state, else made on first read."""
        return _run_checks(self.rho, self.gram)[0]


def _run_checks(rho: np.ndarray, gram: np.ndarray) -> tuple[StateDiagnostics, float]:
    """Evaluate every structural invariant in one pass; returns the top rho
    eigenvalue too so the builder can reuse it for the rank-one test."""
    if rho.shape != gram.shape:
        raise DimensionError(
            f"rho and gram must share dimensions, got {rho.shape} vs {gram.shape}",
            check="shared_dimension")

    rho_eigs = _spectrum(rho)
    gram_eigs = _spectrum(gram)
    effective = rho * gram

    residuals = [
        ("rho_hermitian", _hermiticity_defect(rho), HERMITICITY_TOL),
        ("rho_trace", float(abs(np.trace(rho).real - 1.0)), TRACE_TOL),
        ("rho_psd", float(rho_eigs[0]), -PSD_TOL),
        ("gram_hermitian", _hermiticity_defect(gram), HERMITICITY_TOL),
        ("gram_unit_diagonal", float(np.max(np.abs(np.diag(gram) - 1.0))),
         UNIT_DIAGONAL_TOL),
        ("gram_psd", float(gram_eigs[0]), -PSD_TOL),
        ("effective_trace", float(abs(np.trace(effective).real - 1.0)), TRACE_TOL),
        ("effective_psd", float(_spectrum(effective)[0]), -PSD_TOL),
    ]
    # Defect-style residuals must stay below tolerance; spectral ones
    # (negative tolerance) must stay above it.
    checks = tuple(CheckResult(name, bool(res >= tol if tol < 0 else res <= tol),
                               float(res), float(tol)) for name, res, tol in residuals)
    # matrix_rank's rule for Hermitian input: |lambda| > max|lambda| * n * eps.
    size = np.abs(gram_eigs)
    rank = int(np.count_nonzero(size > size.max() * gram.shape[0] * np.finfo(float).eps))
    return StateDiagnostics(checks=checks, gram_rank=rank), float(rho_eigs[-1])


_ERROR_BY_CHECK = {
    "rho_trace": NormalizationError,
    "effective_trace": NormalizationError,
}


def build_pure_state(amplitudes, detectors) -> InterferometerState:
    """Build the state of a pure quanton entangled with one detector state
    per path.

    Parameters
    ----------
    amplitudes : array_like of complex, length n
        Path amplitudes c_k with sum |c_k|^2 = 1.
    detectors : sequence of n array_like complex vectors, common length m
        Normalized detector states |d_k>.

    Returns
    -------
    InterferometerState
        rho[i, j] = c_i conj(c_j) and gram[i, j] = <d_j|d_i>, purity_flag True.

    Raises
    ------
    NormalizationError
        Amplitudes or a detector vector are not normalized.
    DimensionError
        Fewer than two paths, or detector vectors of mismatched length.
    """
    c = _as_complex_vector(amplitudes, "amplitudes")
    n = c.size
    if n < 2:
        raise DimensionError(f"need at least 2 paths, got {n}", check="path_count")
    norm2 = float(np.sum(np.abs(c) ** 2))
    if abs(norm2 - 1.0) > AMPLITUDE_NORM_TOL:
        raise NormalizationError(
            f"amplitudes have squared norm {norm2!r}, expected 1",
            check="amplitude_norm", residual=abs(norm2 - 1.0),
            tolerance=AMPLITUDE_NORM_TOL)

    vecs = [_as_complex_vector(d, f"detectors[{k}]") for k, d in enumerate(detectors)]
    if len(vecs) != n:
        raise DimensionError(
            f"got {len(vecs)} detector states for {n} paths", check="detector_count")
    dim = vecs[0].size
    for k, vec in enumerate(vecs):
        if vec.size != dim:
            raise DimensionError(
                f"detectors[{k}] has length {vec.size}, expected {dim}",
                check="detector_dimension")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > DETECTOR_NORM_TOL:
            raise NormalizationError(
                f"detectors[{k}] has norm {norm!r}, expected 1",
                check="detector_norm", residual=abs(norm - 1.0),
                tolerance=DETECTOR_NORM_TOL)

    stacked = np.vstack(vecs)
    # gram[i, j] = <d_j|d_i> = sum_k conj(d_j[k]) d_i[k]
    gram = stacked @ stacked.conj().T
    rho = np.outer(c, c.conj())
    return InterferometerState(rho=rho, gram=gram, purity_flag=True)


def build_mixed_state(rho, gram) -> InterferometerState:
    """Build a state from a raw density matrix and detector Gram matrix.

    Both matrices must pass their structural invariants (Hermitian, PSD,
    unit trace / unit diagonal).  ``purity_flag`` is set iff rho is rank one
    (top eigenvalue within PURITY_TOL of 1).

    Raises
    ------
    NormalizationError
        Trace of rho differs from 1 beyond tolerance.
    DimensionError
        Non-square input, mismatched shapes, or fewer than two paths.
    ValidationError
        Any other invariant failure; carries the failed check name.
    """
    rho = _as_complex_matrix(rho, "rho")
    gram = _as_complex_matrix(gram, "gram")
    diagnostics, top_eigenvalue = _run_checks(rho, gram)
    for check in diagnostics.failed():
        err_cls = _ERROR_BY_CHECK.get(check.name, ValidationError)
        raise err_cls(
            f"invariant '{check.name}' failed: residual {check.residual!r} "
            f"vs tolerance {check.tolerance!r}",
            check=check.name, residual=check.residual,
            tolerance=check.tolerance)
    state = InterferometerState(rho, gram, bool(top_eigenvalue >= 1.0 - PURITY_TOL))
    object.__setattr__(state, "diagnostics", diagnostics)
    return state


def effective_density(state: InterferometerState) -> np.ndarray:
    """Entrywise product rho * gram: the detector-traced density matrix
    whose far-field pattern the fringe simulator renders."""
    return state.rho * state.gram


def validate(state: InterferometerState) -> StateDiagnostics:
    """Diagnostic (never-raising) version of the construction checks.

    Reports each invariant with its measured residual, plus the rank of the
    Gram matrix: the state's ``diagnostics``, so a built state is not checked
    again and one assembled by hand around the builders is checked once.
    """
    return state.diagnostics
