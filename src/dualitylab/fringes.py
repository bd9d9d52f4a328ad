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

Extrema are located on a uniform sample grid and refined by a quadratic fit
through the extremal sample and its two neighbours; at the default 2048
samples this gives sub-1e-8 extremum error for the low-degree trigonometric
polynomials produced here (cheaper than exact root finding in cos(delta),
and far below the 1e-6 budget used when validating the extracted visibility
against the closed-form pair visibility).

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

from .core_state import InterferometerState, build_mixed_state, effective_density
from .errors import DarkPatternError, DimensionError, ValidationError
from .multipath import coherence, distinguishability
from .pairwise import open_pair

DEFAULT_PHASE_STEPS = 2048
MIN_PHASE_STEPS = 64
# Curvature below this (relative to the sample magnitude) means the profile
# is flat at sampling precision; quadratic refinement would divide noise by
# noise, so the raw sample is returned instead.
_FLAT_CURVATURE = 1e-13


@dataclass(frozen=True, eq=False)
class SlitGeometry:
    """Equally spaced slit layout and sampling resolution for one pattern."""

    n: int
    phase_step_count: int = DEFAULT_PHASE_STEPS

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DimensionError(f"need at least 2 slits, got {self.n}",
                                 check="slit_count")
        if self.phase_step_count < MIN_PHASE_STEPS:
            raise ValidationError(
                f"phase_step_count {self.phase_step_count} below minimum "
                f"{MIN_PHASE_STEPS}", check="phase_step_count")


@dataclass(frozen=True, eq=False)
class FringeProfile:
    """Sampled intensity over one fringe period plus extracted contrast.

    Intensities are normalized so that the incoherent background (the mean
    over one period) is 1.  ``i_max``/``i_min`` are the quadratic-refined
    extrema; ``visibility`` is their Michelson ratio.
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


def _sample_pattern(matrix: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    n = matrix.shape[0]
    delta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    phases = np.exp(1j * np.outer(delta, np.arange(n)))
    intensity = np.einsum("aj,jk,ak->a", phases, matrix, phases.conj()).real
    return delta, intensity


def _refine_extremum(samples: np.ndarray, index: int) -> float:
    """Quadratic fit through the extremal sample and its two (periodic)
    neighbours; returns the fitted extremum value."""
    y0 = samples[index]
    y_prev = samples[index - 1]
    y_next = samples[(index + 1) % samples.size]
    curvature = y_prev - 2.0 * y0 + y_next
    if abs(curvature) <= _FLAT_CURVATURE * max(1.0, abs(y0)):
        return float(y0)
    return float(y0 - (y_prev - y_next) ** 2 / (8.0 * curvature))


def _extrema(intensity: np.ndarray) -> tuple[float, float]:
    i_max = _refine_extremum(intensity, int(np.argmax(intensity)))
    i_min = _refine_extremum(intensity, int(np.argmin(intensity)))
    # The true pattern is pointwise non-negative; the parabola may undershoot
    # a touching zero by O(h^4).
    if i_min < 0.0 and intensity.min() >= -1e-12:
        i_min = 0.0
    return i_max, i_min


def _profile_from_matrix(matrix: np.ndarray, count: int) -> FringeProfile:
    delta, intensity = _sample_pattern(matrix, count)
    i_max, i_min = _extrema(intensity)
    total = i_max + i_min
    if total <= 0.0:
        raise DarkPatternError("pattern has zero total intensity")
    visibility = (i_max - i_min) / total
    return FringeProfile(delta=delta, intensity=intensity,
                         i_max=i_max, i_min=i_min, visibility=visibility)


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
    """Michelson contrast of a sampled profile, re-derived from its samples.

    Raises DarkPatternError when the profile carries no intensity.
    """
    i_max, i_min = _extrema(profile.intensity)
    total = i_max + i_min
    if total <= 0.0:
        raise DarkPatternError("pattern has zero total intensity")
    return (i_max - i_min) / total


def two_slit_pattern(state: InterferometerState, i: int, j: int,
                     geometry: SlitGeometry | None = None) -> FringeProfile:
    """Pattern of the renormalized pair state on slit positions 0 and 1.

    The extracted visibility of this profile reproduces the closed-form pair
    visibility to well below 1e-6.
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
    real overlap g, hence PSD for g in [0, 1].
    """
    decohered = frozenset(decohered_paths)
    gram = np.ones((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j and ((i in decohered) != (j in decohered)):
                gram[i, j] = g
    return gram


def mei_weitz_scan(n: int, flipped_path: int, decohered_paths, gamma_grid,
                   geometry: SlitGeometry | None = None) -> MeiWeitzScan:
    """Scan overlap magnitudes for the phase-flip/selective-decoherence setup.

    For each g the quanton is prepared pure and symmetric with amplitude
    -1/sqrt(n) on ``flipped_path`` and +1/sqrt(n) elsewhere, the detector
    Gram matrix couples the decohered set to the rest with overlap g, and
    the full-pattern visibility, coherence and distinguishability are
    recorded.
    """
    if n < 3:
        raise DimensionError(f"scan needs n >= 3 paths, got {n}", check="path_count")
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
    if np.any((grid < 0.0) | (grid > 1.0)):
        raise ValueError("gamma_grid values must lie in [0, 1]")
    if geometry is None:
        geometry = SlitGeometry(n=n)
    if geometry.n != n:
        raise DimensionError(
            f"geometry has {geometry.n} slits but the scan has {n} paths",
            check="slit_count")

    amplitudes = flipped_symmetric_amplitudes(n, flipped_path)
    rho = np.outer(amplitudes, amplitudes.conj())

    vis, coh, dist = [], [], []
    for g in grid:
        gram = selective_decoherence_gram(n, decohered, float(g))
        state = build_mixed_state(rho, gram)
        vis.append(intensity_profile(state, geometry).visibility)
        coh.append(coherence(state))
        dist.append(distinguishability(state))

    return MeiWeitzScan(
        gamma_grid=grid, visibilities=np.asarray(vis),
        coherences=np.asarray(coh), distinguishabilities=np.asarray(dist),
        flipped_path=flipped_path, decohered_paths=decohered)
