"""Independent closed-form oracles used to freeze expected test values.

These deliberately avoid the library's code paths: a cosine series is
converted to a power polynomial in c = cos(delta) via Chebyshev algebra
(cos(k delta) = T_k(c)) and optimized exactly on [-1, 1] through the roots of
its derivative, and any pattern, complex or not, is optimized through the
complex companion matrix of its derivative.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev, polynomial


def cosine_series_extrema(coefficients) -> tuple[float, float]:
    """Exact (max, min) over one period of I(delta) = sum_k a_k cos(k delta)."""
    poly = chebyshev.cheb2poly(np.asarray(coefficients, dtype=float))
    candidates = [-1.0, 1.0]
    derivative = polynomial.polyder(poly)
    if np.any(derivative != 0.0):
        for root in polynomial.polyroots(derivative):
            if abs(root.imag) < 1e-12 and -1.0 <= root.real <= 1.0:
                candidates.append(float(root.real))
    values = polynomial.polyval(np.asarray(candidates), poly)
    return float(values.max()), float(values.min())


def companion_extrema(effective) -> tuple[float, float]:
    """Exact (max, min) over one period of I(delta) = sum_jk R_jk e^{i(j-k)delta}.

    The critical points are the unit-circle roots of z^(n-1) I'(z), found as
    the eigenvalues of its complex companion matrix (np.roots; J. P. Boyd,
    J. Eng. Math. 56, 2006), and I is evaluated at their angles and at 0.
    Harmonics below eps^2 of the largest count as zero, so that a subnormal
    leading coefficient cannot overflow the companion matrix.
    """
    effective = np.asarray(effective, dtype=complex)
    n = effective.shape[0]
    m = np.arange(1 - n, n)
    harmonics = np.array([np.trace(effective, -k) for k in m])
    magnitude = np.abs(harmonics)
    kept = magnitude > np.finfo(float).eps ** 2 * magnitude.max()
    # Highest power first; np.roots drops the zero leading coefficients.
    roots = np.roots(np.where(kept, 1j * m * harmonics, 0.0)[::-1])
    delta = np.append(np.angle(roots), 0.0)
    values = (np.exp(1j * np.outer(delta, m)) @ harmonics).real
    return float(values.max()), float(values.min())


def michelson(i_max: float, i_min: float) -> float:
    return (i_max - i_min) / (i_max + i_min)


def flip_scan_cosine_coefficients(g: float) -> list[float]:
    """Cosine-series coefficients of the 4-path pattern with the phase of
    path 3 flipped and path 3 decohered to overlap g against the others.

    Derived by collecting harmonics of sum_jk s_j s_k gamma_jk e^{i(j-k)d}/4
    with s = (1, 1, 1, -1): at g=1 the pattern is 1 + 2c - 2c^3 in c=cos(d),
    at g=0 it is 1 + cos(d) + cos(2d)/2.
    """
    return [1.0, 1.0 - g / 2.0, (1.0 - g) / 2.0, -g / 2.0]


def flip_scan_visibility(g: float) -> float:
    """Exact full-pattern visibility of the scan configuration above."""
    return michelson(*cosine_series_extrema(flip_scan_cosine_coefficients(g)))


def pair_sum_lhs(rows, n: int) -> tuple[float, float]:
    """A duality report's (symmetric_sum_lhs, weighted_sum_lhs), rebuilt from
    one ``PairMetrics`` per lit pair in ascending (i, j) order: the plain
    pair average of D_ij + V_ij, and the sum of (rho_ii + rho_jj)(D_ij + V_ij)
    over n - 1, each one ``math.fsum``.  The first is the report's value
    only for a symmetric state."""
    both = [row.distinguishability + row.visibility for row in rows]
    weighted = [row.pair_weight * value for row, value in zip(rows, both)]
    return 2.0 * math.fsum(both) / (n * (n - 1)), math.fsum(weighted) / (n - 1)


def circulant_gram(eigenvalues) -> np.ndarray:
    """The circulant Gram matrix Gamma_jk = c_((j - k) mod n) of n symmetric
    detector states, built from its eigenvalues: c is their inverse DFT, so
    eigenvalues that sum to n give a unit diagonal."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    n = eigenvalues.size
    first_column = np.fft.ifft(eigenvalues)
    gram = first_column[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    return 0.5 * (gram + gram.conj().T)


def random_circulant_gram(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random circulant Gram matrix and its eigenvalues, seeded by ``rng``.

    The eigenvalues are n Dirichlet weights scaled to sum to n; in about half
    the draws a random subset of them (never all) is zeroed first, so rank-
    deficient Gram matrices and a zero smallest eigenvalue occur too.
    """
    eigenvalues = rng.dirichlet(np.ones(n))
    if rng.random() < 0.5:
        eigenvalues[rng.permutation(n)[:int(rng.integers(1, n))]] = 0.0
    eigenvalues *= n / eigenvalues.sum()
    return circulant_gram(eigenvalues), eigenvalues
