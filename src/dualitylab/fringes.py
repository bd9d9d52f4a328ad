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
any sample count.  The extrema are exact: a two-slit pattern takes its closed
form, and any other pattern is evaluated at every critical point, found by a
real eigensolve along one of two paths chosen per pattern.  A real pattern
(c_-m = c_m, as for real rho and Gram matrices) is a Chebyshev series in
x = cos(delta); its critical points are x = +-1 and the roots of dI/dx, the
eigenvalues of a colleague matrix (J. P. Boyd, SIAM Rev. 55, 2013).  For a
complex pattern they are the unit-circle roots of z^M I'(z); the Cayley
transform of that polynomial's companion matrix has eigenvalues
tan(delta / 2) and, by the polynomial's symmetry, is a real matrix in a
suitable basis.  Every point of the circle lies between the extrema, so
spurious candidates, from complex or off-circle roots, need no tolerance.
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

from .core_state import InterferometerState, _as_array, _check_finite, _check_formed, \
    _is_integer, _quiet, _record, _store_read_only, effective_density
from .errors import DarkPatternError, DimensionError, ValidationError
from .multipath import _coherence, _distinguishability
from .pairwise import open_pair

DEFAULT_PHASE_STEPS = 2048
MIN_PHASE_STEPS = 64
# Bounds each of a profile's two arrays, and the transform's scratch, at 8 MiB.
MAX_PHASE_STEPS = 2**20
# One scan point costs about n^3 once n is large (the scan's patterns are
# real, so this is the colleague eigensolve of degree n - 2; the checks make
# no eigensolve): 0.010 ms at n = 4, 0.045 ms at 16, 0.19 ms at 32 and 0.9 ms
# at 64 on a 2-core x86 host.  64 paths keep an 11-point scan at 11 ms.
MAX_SCAN_PATHS = 64
# The worst scan, 1024 points at n = 64, takes 0.9 s on the same host.
MAX_SCAN_POINTS = 1024
# Harmonics below this fraction of a row's largest count as zero.
NEGLIGIBLE_HARMONIC = np.finfo(float).eps ** 2
# Grid points solved per stacked pass.  Peak memory follows the block, not the
# grid: at n = 64 a 32-point block peaks at 6.1 MiB, mostly its (32, 64, 64)
# complex Gram and effective-state stacks; the extrema take 2 MiB.
SCAN_BLOCK_POINTS = 32


@dataclass(frozen=True, eq=False)
class SlitGeometry:
    """Equally spaced slit layout and the sample count of one profile."""

    n: int
    phase_step_count: int = DEFAULT_PHASE_STEPS

    def __post_init__(self) -> None:
        if not _is_integer(self.n) or self.n < 2:
            raise DimensionError(f"need an integer count of at least 2 slits, "
                                 f"got {self.n!r}", check="slit_count")
        steps = self.phase_step_count
        if not _is_integer(steps) or not MIN_PHASE_STEPS <= steps <= MAX_PHASE_STEPS:
            raise ValidationError(
                f"phase_step_count {steps!r} is not an integer in "
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
        _store_read_only(self, float, "delta", "intensity")


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
        _store_read_only(self, float, "gamma_grid", "visibilities", "coherences",
                         "distinguishabilities")


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
    # The folded spectrum is Hermitian, so its real inverse is the pattern.
    # Only the bins irfft reads, 0..count // 2, are folded, into at most n
    # entries, which irfft pads with zeros.
    bins = np.arange(1 - n, n) % count
    read = bins <= count // 2
    bins, kept = bins[read], harmonics[read]
    folded = np.bincount(bins, kept.real) + 1j * np.bincount(bins, kept.imag)
    return np.fft.irfft(folded, count, norm="forward")


def _extrema(harmonics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (max, min) over one period of I(delta) = sum_m c_m e^{i m delta},
    for each row of a (k, 2n-1) stack of harmonics."""
    k, width = harmonics.shape
    n = (width + 1) // 2
    if n == 2:
        # I = c_0 + 2 |h_1| cos(delta - arg h_1), h_1 = (c_1 + conj c_-1) / 2.
        # The eps^2 floor cannot move c_0 +- 2 |h_1| by a rounding step, so it
        # is not applied.
        c0 = harmonics[:, 1].real
        amplitude = np.abs(0.5 * (harmonics[:, 2] + harmonics[:, 0].conj()))
        return c0 + 2.0 * amplitude, c0 - 2.0 * amplitude
    # The pattern is the real part of the sum, which only sees the Hermitian
    # part (c_m + conj c_-m) / 2, so each row is made exactly Hermitian and
    # kept as c_0..c_(n-1).  Harmonics below eps^2 of the largest change I by
    # far less than rounding, and a subnormal leading coefficient would
    # overflow the matrices below, so they count as zero.  Each row is cut to
    # its own highest harmonic M, since outer harmonics can vanish (the
    # scan's at g = 0); dividing by a zero leading coefficient would give inf.
    # Each row is first divided by a power of two, which is exact, taken from
    # its largest real or imaginary part (a modulus can overflow where both
    # are finite), so no sum below overflows; a trace-one row's scale is 1 or 1/2.
    top = np.maximum(np.abs(harmonics.real), np.abs(harmonics.imag)).max(axis=1)
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
    harmonics = harmonics / scale[:, None]
    half = 0.5 * (harmonics[:, n - 1:] + harmonics[:, n - 1::-1].conj())
    magnitude = np.abs(half)
    kept = magnitude > NEGLIGIBLE_HARMONIC * magnitude.max(axis=1, keepdims=True)
    half = np.where(kept, half, 0.0)
    kept[:, 0] = True
    degree = n - 1 - kept[:, ::-1].argmax(axis=1)
    real = ~half.imag.any(axis=1)
    all_real = bool(real.all())
    # Candidate angles per row; the zero padding keeps delta = 0 among them.
    # Rows of one path and degree share one eigensolve.
    delta = np.zeros((k, n if all_real else width))
    for path, critical in ((real, _chebyshev_critical), (~real, _cayley_critical)):
        for m in sorted(set(degree[path].tolist()) - {0}):
            rows = np.flatnonzero(path & (degree == m))
            angles = critical(half[rows, :m + 1])
            delta[rows, :angles.shape[1]] = angles
    # I = c_0 + 2 sum_(m>0) (Re c_m cos(m delta) - Im c_m sin(m delta)).
    phase = delta[:, :, None] * np.arange(1, n)
    series = np.cos(phase) @ half[:, 1:, None].real
    if not all_real:
        series -= np.sin(phase) @ half[:, 1:, None].imag
    values = half[:, :1].real + 2.0 * series[..., 0]
    return values.max(axis=1) * scale, values.min(axis=1) * scale


def _chebyshev_critical(half: np.ndarray) -> np.ndarray:
    """Candidate extremum angles of real rows c_0..c_M, M >= 1, c_M != 0.

    With x = cos(delta), I = c_0 + 2 sum_m c_m T_m(x), so the extrema sit at
    x = +-1 and at the real roots in [-1, 1] of p = dI/dx, a Chebyshev series
    of degree M - 1 whose roots are the eigenvalues of its colleague matrix
    (I. J. Good, Quart. J. Math. 12, 1961; J. P. Boyd, SIAM Rev. 55, 2013).
    Nothing is squared, so no root is doubled.  Returns (r, M + 1) angles:
    delta = 0, pi and the arccos of each root clipped to [-1, 1].
    """
    c = half.real
    r, m = c.shape[0], c.shape[1] - 1
    # p = sum_j b_j T_j by the derivative recurrence b_(j-1) = b_(j+1) + 2 j a_j
    # on the Chebyshev coefficients a_j = 2 c_j, with b_0 halved.
    b = np.zeros((r, m + 2))
    for j in range(m, 0, -1):
        b[:, j - 1] = b[:, j + 1] + 4.0 * j * c[:, j]
    b[:, 0] *= 0.5
    x = np.ones((r, m + 1))
    x[:, 1] = -1.0
    d = m - 1
    if d:
        # x T_0 = T_1 and x T_j = (T_(j+1) + T_(j-1)) / 2, with T_d replaced
        # through p(x) = 0 in the last row.
        colleague = np.zeros((r, d, d))
        flat = colleague.reshape(r, d * d)
        flat[:, 1::d + 1] = flat[:, d::d + 1] = 0.5
        flat[:, 1:2] = 1.0
        colleague[:, -1, :] -= (0.5 if d > 1 else 1.0) * b[:, :d] / b[:, d:d + 1]
        x[:, 2:] = np.clip(np.linalg.eigvals(colleague).real, -1.0, 1.0)
    return np.arccos(x)


def _cayley_critical(half: np.ndarray) -> np.ndarray:
    """Candidate extremum angles of complex rows c_0..c_M, M >= 1, c_M != 0.

    The critical points are the unit-circle roots of z^M I'(z), a degree-2M
    polynomial with a_(2M-j) = conj(a_j).  Its companion Z (ones below the
    diagonal, last column -a_j / a_2M) has the Cayley transform
    K = i (I - Z)(I + Z)^-1, whose eigenvalues are mu = tan(delta / 2), real
    on the circle.  K commutes with the antilinear map b -> reverse(conj b),
    so in the orthonormal basis u_j = (e_j + e_(2M-1-j)) / sqrt 2,
    v_j = i (e_j - e_(2M-1-j)) / sqrt 2, j < M, it is a real matrix.  Each
    row is first rotated so that the transform's pole, delta = pi, falls
    where |I'| is largest.  Returns (r, 2M + 1) angles in the row's own
    frame: delta = 0 and 2 arctan(Re mu) for each eigenvalue.
    """
    r, width = half.shape
    m = width - 1
    orders = np.arange(width)
    slope = 1j * orders * half
    samples = 4 * m + 2
    peak = np.abs(np.fft.irfft(slope, samples, norm="forward")).argmax(axis=1)
    theta = (2.0 * np.pi / samples) * peak - np.pi
    rotated = slope * np.exp(1j * theta[:, None] * orders)
    # a_0..a_(2M-1) of z^M I'(z) in the rotated frame over a_2M, lowest
    # power first, times sign_j = (-1)^j.
    ratio = np.concatenate([rotated[:, :0:-1].conj(), rotated[:, :-1]], axis=1) \
        / rotated[:, -1:]
    ratio[:, 1::2] *= -1.0
    # With s the running sum of ratio, Sherman-Morrison gives
    # (I + Z)^-1 = L + g sign^T / (1 + s_(2M-1)) with g_j = -sign_j s_j, where
    # L = (I + shift)^-1 holds sign_i sign_j on and below the diagonal.  Under
    # diag(sign), the real part of K in the basis (u, v) is then
    # [[0, T^T + 2 Re(s - s')], [T, 2 Im(s + s')]]: T is 1 on and 2 below the
    # diagonal, s'_j = s_(2M-1-j), both sums are over 1 + s_(2M-1), and each
    # is repeated along its row.
    s = np.cumsum(ratio, axis=1)
    s = s / (1.0 + s[:, -1:])
    s, mirror = s[:, :m], s[:, :m - 1:-1]
    lower = 2.0 * np.tri(m)
    lower.flat[::m + 1] = 1.0
    cayley = np.zeros((r, 2 * m, 2 * m))
    cayley[:, :m, m:] = lower.T + 2.0 * (s - mirror).real[:, :, None]
    cayley[:, m:, :m] = lower
    cayley[:, m:, m:] = 2.0 * (s + mirror).imag[:, :, None]
    angles = np.zeros((r, 2 * m + 1))
    angles[:, 1:] = 2.0 * np.arctan(np.linalg.eigvals(cayley).real) + theta[:, None]
    return angles


def _michelson(i_max, i_min):
    """Contrast of one pattern's extrema, or of arrays of them."""
    total = i_max + i_min
    if np.any(total <= 0.0):
        raise DarkPatternError("pattern has zero total intensity")
    return (i_max - i_min) / total


def _phase_steps(geometry: SlitGeometry | None, n: int) -> int:
    """Sample count of ``geometry``, which must have ``n`` slits, or of the
    default n-slit geometry when it is None."""
    geometry = SlitGeometry(n=n) if geometry is None else geometry
    if geometry.n != n:
        raise DimensionError(
            f"geometry has {geometry.n} slits but the pattern needs {n}",
            check="slit_count")
    return geometry.phase_step_count


def _profile(harmonics: np.ndarray, count: int, matrix: np.ndarray) -> FringeProfile:
    """The profile of the (1, 2n-1) harmonics of the effective state
    ``matrix``, which is read only to name a non-finite pattern."""
    finite = np.isfinite(harmonics).all()
    if finite:
        i_max, i_min = (float(value[0]) for value in _extrema(harmonics))
    if not (finite and math.isfinite(i_max - i_min)):
        # A hand-built state is only shape-checked: a non-finite entry is
        # named first, else the finite entries overflow the pattern.
        _check_finite(matrix, "effective state")
        raise ValidationError("effective state's pattern overflows the float range",
                              check="finite")
    intensity = _sample_pattern(harmonics[0], count)
    # Made after the transform, so the grid can take its freed scratch.
    delta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    # Nothing else holds these new arrays, so the profile owns them read-only
    # instead of taking the copies FringeProfile(...) makes of its inputs.
    delta.setflags(write=False)
    intensity.setflags(write=False)
    return _record(FringeProfile, delta=delta, intensity=intensity, i_max=i_max,
                   i_min=i_min, visibility=_michelson(i_max, i_min))


@_quiet
def intensity_profile(state: InterferometerState,
                      geometry: SlitGeometry | None = None) -> FringeProfile:
    """Far-field pattern of the full effective state over one period."""
    matrix = effective_density(state)
    return _profile(_harmonics(matrix[None]), _phase_steps(geometry, state.n), matrix)


@_quiet
def extract_visibility(profile: FringeProfile) -> float:
    """Michelson contrast of the profile's stored extrema.

    Raises DarkPatternError when the profile carries no intensity.
    """
    return _michelson(profile.i_max, profile.i_min)


@_quiet
def two_slit_pattern(state: InterferometerState, i: int, j: int,
                     geometry: SlitGeometry | None = None) -> FringeProfile:
    """Pattern of the renormalized pair state on slit positions 0 and 1.

    The visibility of this profile equals the closed-form pair visibility
    2 |R_01| to rounding.  Raises as ``open_pair`` does.
    """
    count = _phase_steps(geometry, 2)
    pair = open_pair(state, i, j)
    (r00, r01), (r10, r11) = pair
    return _profile(np.array([[r01, r00 + r11, r10]]), count, pair)


def _path_index(value, n: int, name: str) -> int:
    """``value`` as the index of one of n paths: TypeError, naming ``name``,
    unless it is an integer, and IndexError unless it lies in [0, n)."""
    if not _is_integer(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < n:
        raise IndexError(f"{name} {value} out of range for {n} paths")
    return int(value)


def _path_count(n) -> int:
    """``n`` as a count of paths: TypeError, naming ``n``, unless it is an
    integer, and DimensionError (check ``path_count``) below 2."""
    if not _is_integer(n):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise DimensionError(f"n needs at least 2 paths, got {n}", check="path_count")
    return int(n)


def flipped_symmetric_amplitudes(n: int, flipped_path: int) -> np.ndarray:
    """Equal-magnitude amplitudes 1/sqrt(n) with one path flipped by pi."""
    n = _path_count(n)
    amplitudes = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    amplitudes[_path_index(flipped_path, n, "flipped_path")] *= -1.0
    return amplitudes


def selective_decoherence_gram(n: int, decohered_paths, g: float) -> np.ndarray:
    """Gram matrix with overlap g on every pair crossing the decohered set.

    Pairs with exactly one index in ``decohered_paths`` get overlap g; all
    other pairs keep overlap 1.  Realizable with two detector vectors of
    real overlap g, hence PSD for g in [0, 1].  An array of overlaps shaped
    (k, 1, 1) gives the (k, n, n) stack of their Gram matrices.
    """
    inside = np.zeros(_path_count(n), dtype=bool)
    inside[[_path_index(p, n, "decohered_paths entry") for p in decohered_paths]] = True
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

    Each grid point's state is formed, as build_pure_state forms one, and
    held to the same checks: trace and unit diagonal, with no eigensolve.
    The grid is evaluated in stacked blocks of SCAN_BLOCK_POINTS, and the
    checks, Gram matrices, effective states and extrema of a block are each
    made in one pass.  A grid may hold at most MAX_SCAN_POINTS values.
    ``n``, ``flipped_path`` and every decohered path
    must be an integer (numpy integers included), or TypeError is raised; a
    path outside [0, n) raises IndexError and a repeated decohered path
    raises ValueError.  A grid numpy cannot convert to floats (ragged rows,
    text, complex values, an integer past the float range) raises
    ValidationError (check ``array``); one that is not 1-d, is empty or too
    long, or holds a value outside [0, 1] raises ValueError.
    """
    n = _path_count(n)
    if not 3 <= n <= MAX_SCAN_PATHS:
        raise DimensionError(f"scan needs 3 to {MAX_SCAN_PATHS} paths, got {n}",
                             check="path_count")
    flipped_path = _path_index(flipped_path, n, "flipped_path")
    decohered = tuple(sorted(_path_index(p, n, "decohered_paths entry")
                             for p in decohered_paths))
    if not decohered or len(set(decohered)) < len(decohered):
        raise ValueError("decohered_paths must be a non-empty subset of distinct "
                         f"paths, got {list(decohered)}")
    grid = _as_array(gamma_grid, float, "gamma_grid")
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
        _check_formed(rho, grams)
        vis.append(_michelson(*_extrema(_harmonics(rho * grams))))
        coh.append(_coherence(rho, grams))
        dist.append(_distinguishability(rho, grams))

    return MeiWeitzScan(
        gamma_grid=grid, visibilities=np.concatenate(vis),
        coherences=np.concatenate(coh), distinguishabilities=np.concatenate(dist),
        flipped_path=flipped_path, decohered_paths=decohered)
