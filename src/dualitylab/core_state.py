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

# Equality-type tolerances.  Each must exceed the rounding error of the
# quantity it checks: a sum of n terms of size at most 1, such as a trace,
# is off by up to about n * 2.2e-16.  A pure state's amplitudes and detectors
# meet them through the trace and unit diagonal of the rho and gram they form,
# and a UQSD problem's two detector states through the same unit diagonal.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
UNIT_DIAGONAL_TOL = 1e-12
# Spectral tolerances.
PSD_TOL = 1e-10          # smallest eigenvalue may not drop below -PSD_TOL
PURITY_TOL = 1e-10       # rank-one detection: top eigenvalue within this of 1
_EPS = np.finfo(float).eps  # for the Gram rank rule of _diagnostics

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
# The pass rule of every tolerance check: a negative tolerance is a floor the
# residual must stay at or above (a smallest eigenvalue, a slack), any other
# a ceiling it must stay at or below (a defect).  NaN meets neither.  Scaled
# by this sign, both read residual >= tolerance, the table form of the rule.
_SIGNS = np.where(_TOLERANCES < 0, 1.0, -1.0)


def _failed(residuals: np.ndarray) -> np.ndarray:
    return ~(_SIGNS * residuals >= _SIGNS * _TOLERANCES)


def _check(residual: float, tolerance: float, check: str, message,
           error=ValidationError) -> None:
    """Raise ``error`` unless ``residual`` passes ``tolerance`` by the rule
    above (``_failed`` is its table form); ``message()`` runs only on failure."""
    if residual >= tolerance if tolerance < 0 else residual <= tolerance:
        return
    raise error(message(), check=check, residual=residual, tolerance=tolerance)


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} contains non-finite entries", check="finite")


def _as_array(values, dtype, name: str) -> np.ndarray:
    """``values`` as a ``dtype`` array, as np.asarray gives it; input numpy
    cannot convert, such as ragged rows, text or an integer past the float
    range, raises ValidationError (check ``array``) naming ``name``."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as error:
        raise ValidationError(f"{name} cannot be converted to a {np.dtype(dtype).name} array",
                              check="array") from error


def _as_complex_vector(values, name: str) -> np.ndarray:
    vec = _as_array(values, complex, name)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-d vector, got shape {vec.shape}",
                             check="vector")
    _check_finite(vec, name)
    return vec


def _quiet(fn):
    """``fn`` under the overflow rule of hand-built records: overflow and
    invalid operations give inf or NaN, never a numpy warning.  numpy >= 2
    sets and resets the error state per call, so concurrent calls of ``fn``
    cannot restore each other's state (numpy 1.x saved it on the instance)."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


def _is_integer(value) -> bool:
    """A Python or numpy integer; bools are not counts or indices."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _store_read_only(instance, dtype, *names: str) -> None:
    """Replace each named array field of a frozen dataclass by a read-only
    ``dtype`` copy, so the instance neither aliases nor alters its inputs."""
    for name in names:
        arr = _as_array(getattr(instance, name), dtype, name).copy(order="K")
        arr.setflags(write=False)
        object.__setattr__(instance, name, arr)


def _record(cls, **fields):
    """An instance of the dataclass ``cls`` that owns ``fields`` as given:
    no __init__, so no guarded setattr per frozen field and no copies."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return mat.swapaxes(-1, -2).conj()


def _hermiticity_defect(mat: np.ndarray) -> np.ndarray:
    return abs(mat - _adjoint(mat)).max(axis=(-2, -1))


def _trace_defect(mat: np.ndarray) -> np.ndarray:
    return abs(mat.trace(axis1=-2, axis2=-1).real - 1.0)


def _unit_diagonal_defect(mat: np.ndarray) -> np.ndarray:
    """The worst unit-diagonal defect of a matrix or a stack of them."""
    return abs(mat.diagonal(axis1=-2, axis2=-1) - 1.0).max()


def _spectra(*mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each of ``mats``, which
    share one shape, stacked along a new first axis and found in one eigvalsh
    call on an exactly Hermitian operand.  Each Hermitian part is written
    straight into the stack through one buffer the size of a matrix.
    Halving before the sum keeps entries near the float limit finite.  A
    matrix with a non-finite entry has a non-finite Hermitian part and NaN
    eigenvalues, which fail every spectral check; eigvalsh would return
    finite values for it, so it decomposes zeros in its place."""
    hermitian = np.empty((len(mats),) + mats[0].shape, dtype=complex)
    half = np.empty_like(hermitian[0])
    for out, mat in zip(hermitian, mats):
        np.multiply(mat, 0.5, out=half)
        np.conjugate(half.swapaxes(-1, -2), out=out)
        out += half
    if np.isfinite(hermitian).all():
        return np.linalg.eigvalsh(hermitian)
    finite = np.isfinite(hermitian).all(axis=(-2, -1))
    hermitian[~finite] = 0.0
    return np.where(finite[..., None], np.linalg.eigvalsh(hermitian), np.nan)


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
    are safe to share across threads.  This is every state's shape rule, the
    builders' too: square, at least 2 paths, shared, else DimensionError.
    """

    rho: np.ndarray
    gram: np.ndarray
    purity_flag: bool

    def __post_init__(self) -> None:
        for name in ("rho", "gram"):
            _store_read_only(self, complex, name)
            mat = getattr(self, name)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise DimensionError(
                    f"{name} must be a square matrix, got shape {mat.shape}", check="square")
            if mat.shape[0] < 2:
                raise DimensionError(f"{name} needs at least 2 paths, got {mat.shape[0]}",
                                     check="path_count")
        if self.rho.shape != self.gram.shape:
            raise DimensionError(f"rho and gram must share dimensions, got "
                                 f"{self.rho.shape} vs {self.gram.shape}",
                                 check="shared_dimension")

    @property
    def n(self) -> int:
        """Number of interferometer paths."""
        return self.rho.shape[0]

    @cached_property
    def diagnostics(self) -> StateDiagnostics:
        """Invariant checks: stored by build_mixed_state, else made on first read."""
        residuals, _, gram_eigs = _run_checks(self.rho, self.gram)
        return _diagnostics(residuals, gram_eigs)


@_quiet
def _run_checks(rho: np.ndarray,
                gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of every structural invariant of one (n, n) state, one per
    check in report order, and the spectra of rho and gram.  rho, gram and
    the effective state are decomposed in one eigvalsh call; shapes are the
    caller's to check.
    """
    effective = rho * gram
    rho_eigs, gram_eigs, effective_eigs = _spectra(rho, gram, effective)
    residuals = np.array([
        _hermiticity_defect(rho), _trace_defect(rho), rho_eigs[0],
        _hermiticity_defect(gram), _unit_diagonal_defect(gram), gram_eigs[0],
        _trace_defect(effective), effective_eigs[0],
    ])
    return residuals, rho_eigs, gram_eigs


def _diagnostics(residuals: np.ndarray, gram_eigs: np.ndarray) -> StateDiagnostics:
    """The record of one state's checks."""
    checks = tuple(
        _record(CheckResult, name=name, passed=not failed, residual=residual,
                tolerance=tolerance)
        for (name, tolerance), failed, residual
        in zip(_CHECKS, _failed(residuals).tolist(), residuals.tolist()))
    # matrix_rank's rule for Hermitian input: |lambda| > max|lambda| * n * eps,
    # scaled by eps first so a huge max cannot overflow.
    size = np.abs(gram_eigs)
    rank = int(np.count_nonzero(size > size.max() * _EPS * size.size))
    return StateDiagnostics(checks=checks, gram_rank=rank)


# The invariants that hold a quantity to 1 fail as a NormalizationError.
_NORMALIZATION_CHECKS = ("rho_trace", "gram_unit_diagonal", "effective_trace")


def _check_invariant(name: str, residual: float, where: str = "") -> None:
    """Raise unless ``residual`` passes the invariant ``name`` of ``_CHECKS``."""
    tolerance = dict(_CHECKS)[name]
    _check(residual, tolerance, name, lambda: f"invariant '{name}' failed{where}: "
           f"residual {residual!r} vs tolerance {tolerance!r}",
           NormalizationError if name in _NORMALIZATION_CHECKS else ValidationError)


def _raise_first_failure(residuals: np.ndarray) -> None:
    """Raise for the first failed check of one state's residuals."""
    failed = _failed(residuals)
    if failed.any():
        column = int(np.argmax(failed))
        _check_invariant(_CHECKS[column][0], float(residuals[column]))


def _check_formed(rho: np.ndarray, gram: np.ndarray) -> None:
    """Hold a formed state, rho = c c^H with a Gram matrix of detector vectors,
    to the record's ``rho_trace``, ``gram_unit_diagonal`` and ``effective_trace``
    checks, in that order.  Hermiticity and positivity hold by construction, so
    this makes no eigensolve.  ``gram`` may be a (k, n, n) stack sharing rho;
    each check then holds its worst residual over the stack."""
    for name, residual in (("rho_trace", _trace_defect(rho)),
                           ("gram_unit_diagonal", _unit_diagonal_defect(gram)),
                           ("effective_trace", _trace_defect(rho * gram).max())):
        _check_invariant(name, float(residual))


def _detector_gram(vectors, names) -> np.ndarray:
    """gram[i, j] = <d_j|d_i> of the detector ``vectors``, each checked under its
    name in ``names``; all share one length, else ``detector_dimension``."""
    vecs = [_as_complex_vector(vec, name) for vec, name in zip(vectors, names)]
    dim = vecs[0].size
    for vec, name in zip(vecs, names):
        if vec.size != dim:
            raise DimensionError(f"{name} has length {vec.size}, expected {dim}",
                                 check="detector_dimension")
    stacked = np.vstack(vecs)
    return stacked @ stacked.conj().T


@_quiet
def build_pure_state(amplitudes, detectors) -> InterferometerState:
    """Build the state of a pure quanton entangled with one detector state
    per path.

    The state formed must pass the record's ``rho_trace``, ``gram_unit_diagonal``
    and ``effective_trace`` checks; Hermiticity and positivity hold by
    construction, so building makes no eigensolve.

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
        A trace (of rho or rho * gram) or a detector's squared norm (a Gram
        diagonal entry) is not 1.
    DimensionError
        Detector count or lengths mismatched, or the record's shape error.
    """
    c = _as_complex_vector(amplitudes, "amplitudes")
    detectors = list(detectors)
    if len(detectors) != c.size:
        raise DimensionError(f"got {len(detectors)} detector states for {c.size} paths",
                             check="detector_count")
    gram = _detector_gram(detectors, [f"detectors[{k}]" for k in range(c.size)])
    state = InterferometerState(rho=np.outer(c, c.conj()), gram=gram, purity_flag=True)
    _check_formed(state.rho, state.gram)
    return state


def build_mixed_state(rho, gram) -> InterferometerState:
    """Build a state from a raw density matrix and detector Gram matrix.

    The record, built first, checks the shapes; then both matrices must be
    finite and pass their structural invariants (Hermitian, PSD, unit trace
    / unit diagonal).  ``purity_flag`` is set iff rho is rank one.

    Raises
    ------
    NormalizationError
        A trace (of rho or rho * gram) or a Gram diagonal entry is not 1.
    DimensionError
        The record's: non-square input, mismatched shapes, or < 2 paths.
    ValidationError
        Any other invariant failure; carries the failed check name.
    """
    state = InterferometerState(rho, gram, False)
    _check_finite(state.rho, "rho")
    _check_finite(state.gram, "gram")
    residuals, rho_eigs, gram_eigs = _run_checks(state.rho, state.gram)
    diagnostics = _diagnostics(residuals, gram_eigs)
    if not diagnostics.ok:
        _raise_first_failure(residuals)
    vars(state).update(purity_flag=bool(rho_eigs[-1] >= 1.0 - PURITY_TOL),
                       diagnostics=diagnostics)
    return state


@_quiet
def effective_density(state: InterferometerState) -> np.ndarray:
    """Entrywise product rho * gram, the detector-traced density matrix the
    fringe simulator renders."""
    return state.rho * state.gram


def validate(state: InterferometerState) -> StateDiagnostics:
    """Diagnostic (never-raising) version of the construction checks.

    Reports each invariant with its measured residual, plus the rank of the
    Gram matrix: the state's ``diagnostics``, so a built state is not checked
    again and one assembled by hand around the builders is checked once.
    """
    return state.diagnostics
