"""Far-field fringe patterns and Michelson visibility extraction.

Screen model: n equally spaced slits with no single-slit envelope; slit j
contributes phase j*delta at screen parameter delta in [0, 2*pi).  The
pattern of the effective (detector-traced) state R is

    I(delta) = sum_{j,k} R_jk exp(i (j - k) delta),

an exactly periodic trigonometric polynomial of degree <= n-1, real by
Hermiticity and non-negative by positivity of R, with period mean equal to
trace(R) = 1.  Michelson contrast (I_max - I_min)/(I_max + I_min) over one
period is therefore well defined and, for a two-slit pattern, equals
2 |R_01| exactly.

Samples and extrema both come from the harmonics c_m = sum_{j-k=m} R_jk.
Samples are one inverse FFT of the harmonics folded onto the grid, exact for
any sample count.  The extrema are exact: I is evaluated at delta = 0 and at
the angle of every root of z^(n-1) I'(z), a degree-2(n-1) polynomial in
z = exp(i delta) whose unit-circle roots are the critical points (companion
matrix rootfinding, J. P. Boyd, J. Eng. Math. 56, 2006).  Every point of the
circle lies between the extrema, so off-circle roots need no tolerance.
Harmonics and extrema work on stacks of patterns; a single pattern is the
stack of one.

The selective-decoherence scan reproduces the anomaly seen when one path's
phase is flipped by pi and only selected paths are decohered: the contrast
of the full pattern can RISE as which-path information increases, while the
n-path coherence falls monotonically, and no single pair's visibility moves
at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_state import InterferometerState, _raise_first_failure, _run_checks, \
    effective_density
from .errors import DarkPatternError, DimensionError, ValidationError
from .multipath import _coherence, _distinguishability
from .pairwise import open_pair

DEFAULT_PHASE_STEPS = 2048
MIN_PHASE_STEPS = 64
# Bounds the complex spectrum of one profile at 16 MiB.
MAX_PHASE_STEPS = 2**20
# One scan point costs about n^3 once n is large (the companion eigensolve of
# degree 2(n-1)): 0.06 ms at n = 4, 0.9 ms at 16, 4 ms at 32 and 32 ms at 64
# on a 2-core x86 host.  64 paths keep an 11-point scan under half a second.
MAX_SCAN_PATHS = 64
# The worst scan, 1024 points at n = 64, takes 40 s on the same host.
MAX_SCAN_POINTS = 1024
# Grid points solved per stacked pass.  Peak memory follows the block, not the
# grid: at n = 64 a 32-point block peaks at 26 MiB, mostly its (32, 126, 126)
# companion stack and (32, 127, 127) evaluation matrix.
SCAN_BLOCK_POINTS = 32


@dataclass(frozen=True, eq=False)
class SlitGeometry:
    """Equally spaced slit layout and the sample count of one profile."""

    n: int
    phase_step_count: int = DEFAULT_PHASE_STEPS

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DimensionError(f"need at least 2 slits, got {self.n}",
                                 check="slit_count")
        if not MIN_PHASE_STEPS <= self.phase_step_count <= MAX_PHASE_STEPS:
            raise ValidationError(
                f"phase_step_count {self.phase_step_count} outside "
                f"[{MIN_PHASE_STEPS}, {MAX_PHASE_STEPS}]", check="phase_step_count")


@dataclass(frozen=True, eq=False)
class FringeProfile:
    """Sampled intensity over one fringe period plus extracted contrast.

    Intensities are normalized so that the incoherent background (the mean
    over one period) is 1.  ``i_max``/``i_min`` are the exact extrema of the
    pattern, whatever the sample count; ``visibility`` is their Michelson ratio.
    """

    delta: np.ndarray
    intensity: np.ndarray
    i_max: float
    i_min: float
    visibility: float

    def __post_init__(self) -> None:
        for name in ("delta", "intensity"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class MeiWeitzScan:
    """Overlap scan of the phase-flipped, selectively decohered pattern.

    For every overlap magnitude g in ``gamma_grid`` the scan records the
    full-pattern visibility, the n-path coherence and the n-path
    distinguishability.
    """

    gamma_grid: np.ndarray
    visibilities: np.ndarray
    coherences: np.ndarray
    distinguishabilities: np.ndarray
    flipped_path: int
    decohered_paths: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("gamma_grid", "visibilities", "coherences",
                     "distinguishabilities"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _harmonics(stack: np.ndarray) -> np.ndarray:
    """c[r, m + n - 1] = sum_{j-k=m} R_jk of the r-th of k stacked (n, n)
    matrices, for m = -(n-1)..n-1."""
    k, n = stack.shape[:2]
    width = 2 * n - 1
    offsets = (np.subtract.outer(np.arange(n), np.arange(n)).ravel() + (n - 1)
               + width * np.arange(k)[:, None]).ravel()
    flat = stack.ravel()
    return (np.bincount(offsets, flat.real, k * width)
            + 1j * np.bincount(offsets, flat.imag, k * width)).reshape(k, width)


def _sample_pattern(harmonics: np.ndarray, count: int) -> np.ndarray:
    """I at delta = 2 pi a / count, with aliased harmonics folded in."""
    n = (harmonics.size + 1) // 2
    spectrum = np.zeros(count, dtype=complex)
    np.add.at(spectrum, np.arange(1 - n, n) % count, harmonics)
    return np.fft.ifft(spectrum, norm="forward").real


def _extrema(harmonics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (max, min) over one period of I(delta) = sum_m c_m e^{i m delta},
    for each row of a (k, 2n-1) stack of harmonics."""
    k, width = harmonics.shape
    n = (width + 1) // 2
    m = np.arange(1 - n, n)
    # Harmonics below eps^2 of the largest change I by far less than rounding,
    # and a subnormal leading coefficient would overflow the companion matrix,
    # so they count as zero.  The coefficients of z^(n-1) I'(z) go lowest
    # power first.  Each row is cut to its own nonzero span, since outer
    # harmonics can vanish (the scan's at g = 0); dividing by a zero leading
    # coefficient would give inf.  Rows of one degree share one eigensolve.
    magnitude = np.abs(harmonics)
    floor = np.finfo(float).eps ** 2 * magnitude.max(axis=1, keepdims=True)
    coefficients = np.where(magnitude > floor, 1j * m * harmonics, 0.0)
    nonzero = coefficients != 0.0
    lowest = nonzero.argmax(axis=1)
    highest = width - 1 - nonzero[:, ::-1].argmax(axis=1)
    degree = np.where(nonzero.any(axis=1), highest - lowest, 0)
    # The m = 0 coefficient is 0, so a row has at most width - 1 roots and the
    # zero padding keeps delta = 0 among the candidates.
    delta = np.zeros((k, width))
    for d in sorted(set(degree.tolist()) - {0}):
        rows = np.flatnonzero(degree == d)
        # Highest power first, as in np.roots.
        top = coefficients[rows[:, None], highest[rows, None] - np.arange(d + 1)]
        companion = np.zeros((rows.size, d, d), dtype=complex)
        companion[:, 1:, :-1] = np.eye(d - 1)
        companion[:, 0, :] = -top[:, 1:] / top[:, :1]
        delta[rows, :d] = np.angle(np.linalg.eigvals(companion))
    values = (np.exp(1j * delta[:, :, None] * m) @ harmonics[:, :, None])[..., 0].real
    return values.max(axis=1), values.min(axis=1)


def _michelson(i_max, i_min):
    """Contrast of one pattern's extrema, or of arrays of them."""
    total = i_max + i_min
    if np.any(total <= 0.0):
        raise DarkPatternError("pattern has zero total intensity")
    return (i_max - i_min) / total


def _profile_from_matrix(matrix: np.ndarray, count: int) -> FringeProfile:
    harmonics = _harmonics(matrix[None])
    i_max, i_min = (float(value[0]) for value in _extrema(harmonics))
    return FringeProfile(
        delta=np.linspace(0.0, 2.0 * np.pi, count, endpoint=False),
        intensity=_sample_pattern(harmonics[0], count),
        i_max=i_max, i_min=i_min, visibility=_michelson(i_max, i_min))


def intensity_profile(state: InterferometerState,
                      geometry: SlitGeometry | None = None) -> FringeProfile:
    """Far-field pattern of the full effective state over one period."""
    if geometry is None:
        geometry = SlitGeometry(n=state.n)
    if geometry.n != state.n:
        raise DimensionError(
            f"geometry has {geometry.n} slits but the state has {state.n} paths",
            check="slit_count")
    return _profile_from_matrix(effective_density(state), geometry.phase_step_count)


def extract_visibility(profile: FringeProfile) -> float:
    """Michelson contrast of the profile's stored extrema.

    Raises DarkPatternError when the profile carries no intensity.
    """
    return _michelson(profile.i_max, profile.i_min)


def two_slit_pattern(state: InterferometerState, i: int, j: int,
                     geometry: SlitGeometry | None = None) -> FringeProfile:
    """Pattern of the renormalized pair state on slit positions 0 and 1.

    The visibility of this profile equals the closed-form pair visibility
    2 |R_01| to rounding.
    """
    if geometry is None:
        geometry = SlitGeometry(n=2)
    if geometry.n != 2:
        raise DimensionError(
            f"two-slit geometry must have n=2, got {geometry.n}",
            check="slit_count")
    reduced = open_pair(state, i, j)
    return _profile_from_matrix(reduced, geometry.phase_step_count)


def flipped_symmetric_amplitudes(n: int, flipped_path: int) -> np.ndarray:
    """Equal-magnitude amplitudes 1/sqrt(n) with one path flipped by pi."""
    amplitudes = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    amplitudes[flipped_path] *= -1.0
    return amplitudes


def selective_decoherence_gram(n: int, decohered_paths, g: float) -> np.ndarray:
    """Gram matrix with overlap g on every pair crossing the decohered set.

    Pairs with exactly one index in ``decohered_paths`` get overlap g; all
    other pairs keep overlap 1.  Realizable with two detector vectors of
    real overlap g, hence PSD for g in [0, 1].  An array of overlaps shaped
    (k, 1, 1) gives the (k, n, n) stack of their Gram matrices.
    """
    inside = np.isin(np.arange(n), list(decohered_paths))
    return np.where(inside[:, None] != inside[None, :], g, 1.0).astype(complex)


def mei_weitz_scan(n: int, flipped_path: int, decohered_paths,
                   gamma_grid) -> MeiWeitzScan:
    """Scan overlap magnitudes for the phase-flip/selective-decoherence setup.

    For each g the quanton is prepared pure and symmetric with amplitude
    -1/sqrt(n) on ``flipped_path`` and +1/sqrt(n) elsewhere, the detector
    Gram matrix couples the decohered set to the rest with overlap g, and
    the full-pattern visibility, coherence and distinguishability are
    recorded.  Each visibility comes from the exact extrema, so the scan
    samples no pattern and takes no geometry.

    The grid is evaluated in stacked blocks of SCAN_BLOCK_POINTS: rho is
    checked once per block, and the Gram matrices, effective states and
    extrema of a block are each solved in one pass.  A grid may hold at most
    MAX_SCAN_POINTS values.
    """
    if not 3 <= n <= MAX_SCAN_PATHS:
        raise DimensionError(f"scan needs 3 to {MAX_SCAN_PATHS} paths, got {n}",
                             check="path_count")
    if not (0 <= flipped_path < n):
        raise IndexError(f"flipped_path {flipped_path} out of range for {n} paths")
    decohered = tuple(sorted(set(int(p) for p in decohered_paths)))
    if not decohered:
        raise ValueError("decohered_paths must be a non-empty subset")
    if any(p < 0 or p >= n for p in decohered):
        raise IndexError(f"decohered_paths {decohered} out of range for {n} paths")
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("gamma_grid must be a non-empty 1-d sequence")
    if grid.size > MAX_SCAN_POINTS:
        raise ValueError(f"gamma_grid has {grid.size} points, at most "
                         f"{MAX_SCAN_POINTS} allowed")
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("gamma_grid values must lie in [0, 1]")

    amplitudes = flipped_symmetric_amplitudes(n, flipped_path)
    rho = np.outer(amplitudes, amplitudes.conj())

    vis, coh, dist = [], [], []
    for start in range(0, grid.size, SCAN_BLOCK_POINTS):
        grams = selective_decoherence_gram(
            n, decohered, grid[start:start + SCAN_BLOCK_POINTS, None, None])
        _raise_first_failure(_run_checks(rho, grams)[0], start)
        vis.append(_michelson(*_extrema(_harmonics(rho * grams))))
        coh.append(_coherence(rho, grams))
        dist.append(_distinguishability(rho, grams))

    return MeiWeitzScan(
        gamma_grid=grid, visibilities=np.concatenate(vis),
        coherences=np.concatenate(coh), distinguishabilities=np.concatenate(dist),
        flipped_path=flipped_path, decohered_paths=decohered)
