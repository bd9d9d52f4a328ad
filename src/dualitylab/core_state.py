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

# The structural invariants in report order, each with its tolerance.
_CHECKS = (
    ("rho_hermitian", HERMITICITY_TOL),
    ("rho_trace", TRACE_TOL),
    ("rho_psd", -PSD_TOL),
    ("gram_hermitian", HERMITICITY_TOL),
    ("gram_unit_diagonal", UNIT_DIAGONAL_TOL),
    ("gram_psd", -PSD_TOL),
    ("effective_trace", TRACE_TOL),
    ("effective_psd", -PSD_TOL),
)
_TOLERANCES = np.array([tolerance for _, tolerance in _CHECKS])
# Defect-style residuals must stay at or below their positive tolerance and
# spectral ones (the smallest eigenvalue) at or above their negative one.
# Scaled by this sign, both read residual >= tolerance, which NaN fails.
_SIGNS = np.where(_TOLERANCES < 0, 1.0, -1.0)


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


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return mat.swapaxes(-1, -2).conj()


def _hermiticity_defect(mat: np.ndarray) -> np.ndarray:
    return abs(mat - _adjoint(mat)).max(axis=(-2, -1))


def _trace_defect(mat: np.ndarray) -> np.ndarray:
    return abs(mat.trace(axis1=-2, axis2=-1).real - 1.0)


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each stacked matrix, so
    eigvalsh sees an exactly Hermitian operand.  Halving before the sum keeps
    entries near the float limit finite."""
    half = 0.5 * mat
    return np.linalg.eigvalsh(half + _adjoint(half))


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
        residuals, _, gram_eigs = _run_checks(self.rho, self.gram)
        return _diagnostics(residuals, gram_eigs)


def _run_checks(rho: np.ndarray,
                gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of every structural invariant, over stacks of states.

    ``rho`` and ``gram`` are (n, n) or (k, n, n) and broadcast against each
    other, so a rho shared by a whole stack is decomposed once.  Returns the
    (..., len(_CHECKS)) residuals, one column per check, and the rho and
    gram spectra.
    """
    if rho.shape[-2:] != gram.shape[-2:]:
        raise DimensionError(
            f"rho and gram must share dimensions, got {rho.shape} vs {gram.shape}",
            check="shared_dimension")

    rho_eigs = _spectrum(rho)
    gram_eigs = _spectrum(gram)
    # Entries near the float limit may overflow a defect or the effective
    # state to inf or NaN; either fails its check, as it should.
    with np.errstate(over="ignore", invalid="ignore"):
        effective = rho * gram
        columns = (
            _hermiticity_defect(rho), _trace_defect(rho), rho_eigs[..., 0],
            _hermiticity_defect(gram),
            abs(gram.diagonal(axis1=-2, axis2=-1) - 1.0).max(axis=-1),
            gram_eigs[..., 0],
            _trace_defect(effective), _spectrum(effective)[..., 0],
        )
    residuals = np.empty(effective.shape[:-2] + (len(_CHECKS),))
    for column, values in enumerate(columns):
        residuals[..., column] = values
    return residuals, rho_eigs, gram_eigs


def _failed(residuals: np.ndarray) -> np.ndarray:
    return ~(_SIGNS * residuals >= _SIGNS * _TOLERANCES)


def _diagnostics(residuals: np.ndarray, gram_eigs: np.ndarray) -> StateDiagnostics:
    """The record of one state's checks."""
    checks = tuple(
        CheckResult(name, not failed, residual, tolerance)
        for (name, tolerance), failed, residual
        in zip(_CHECKS, _failed(residuals).tolist(), residuals.tolist()))
    # matrix_rank's rule for Hermitian input: |lambda| > max|lambda| * n * eps,
    # scaled by eps first so a huge max cannot overflow.
    size = np.abs(gram_eigs)
    rank = int(np.count_nonzero(size > size.max() * np.finfo(float).eps * size.size))
    return StateDiagnostics(checks=checks, gram_rank=rank)


_ERROR_BY_CHECK = {
    "rho_trace": NormalizationError,
    "effective_trace": NormalizationError,
}


def _raise_first_failure(residuals: np.ndarray, start: int | None = None) -> None:
    """Raise for the first failed check of the first failing state.

    For the residuals of a (k, n, n) stack, ``start`` is the grid index of
    its first state, and the message names the grid point that failed.
    """
    failed = _failed(residuals)
    if not failed.any():
        return
    table = failed.reshape(-1, len(_CHECKS))
    point = int(np.argmax(table.any(axis=1)))
    column = int(np.argmax(table[point]))
    name, tolerance = _CHECKS[column]
    residual = float(residuals.reshape(-1, len(_CHECKS))[point, column])
    where = "" if start is None else f" at grid point {start + point}"
    raise _ERROR_BY_CHECK.get(name, ValidationError)(
        f"invariant '{name}' failed{where}: residual {residual!r} "
        f"vs tolerance {tolerance!r}",
        check=name, residual=residual, tolerance=tolerance)


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
    # Norms past the float limit overflow to inf, which fails their checks.
    with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore"):
        norms = [float(np.linalg.norm(vec)) for vec in vecs]
    for k, (vec, norm) in enumerate(zip(vecs, norms)):
        if vec.size != dim:
            raise DimensionError(
                f"detectors[{k}] has length {vec.size}, expected {dim}",
                check="detector_dimension")
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
    residuals, rho_eigs, gram_eigs = _run_checks(rho, gram)
    diagnostics = _diagnostics(residuals, gram_eigs)
    if not diagnostics.ok:
        _raise_first_failure(residuals)
    state = InterferometerState(rho, gram, bool(rho_eigs[-1] >= 1.0 - PURITY_TOL))
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
