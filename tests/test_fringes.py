"""Fringe pattern simulation, contrast extraction and the flip/decohere scan."""

import tracemalloc

import numpy as np
import pytest

from dualitylab import (
    DarkPatternError,
    DimensionError,
    FringeProfile,
    SlitGeometry,
    ValidationError,
    build_mixed_state,
    build_pure_state,
    coherence,
    distinguishability,
    extract_visibility,
    intensity_profile,
    mei_weitz_scan,
    pair_visibility,
    two_slit_pattern,
)
from dualitylab.fringes import MAX_SCAN_PATHS, MAX_SCAN_POINTS, SCAN_BLOCK_POINTS, \
    flipped_symmetric_amplitudes, selective_decoherence_gram
from dualitylab.sampling import random_mixed_state, random_pure_state

from oracles import cosine_series_extrema, flip_scan_visibility, michelson

ISQ2 = 1.0 / np.sqrt(2.0)
ISQ3 = 1.0 / np.sqrt(3.0)


class TestSlitGeometry:
    def test_defaults(self):
        geometry = SlitGeometry(n=4)
        assert geometry.phase_step_count == 2048

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            SlitGeometry(n=2, phase_step_count=32)

    def test_too_many_samples(self):
        SlitGeometry(n=2, phase_step_count=2**20)
        with pytest.raises(ValidationError) as info:
            SlitGeometry(n=2, phase_step_count=2**20 + 1)
        assert info.value.check == "phase_step_count"

    def test_too_few_slits(self):
        with pytest.raises(DimensionError):
            SlitGeometry(n=1)

    def test_mismatch_with_state(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        with pytest.raises(DimensionError):
            intensity_profile(state, SlitGeometry(n=3))


class TestIntensityProfile:
    def test_textbook_two_slit(self):
        # I(delta) = 1 + cos(delta)
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        profile = intensity_profile(state)
        np.testing.assert_allclose(profile.intensity,
                                   1.0 + np.cos(profile.delta), atol=1e-12)
        assert profile.i_max == pytest.approx(2.0, abs=1e-9)
        assert profile.i_min == pytest.approx(0.0, abs=1e-9)
        assert profile.visibility == pytest.approx(1.0, abs=1e-9)

    def test_fully_decohered_is_flat(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1)])
        profile = intensity_profile(state)
        np.testing.assert_allclose(profile.intensity, 1.0, atol=1e-12)
        assert profile.visibility == pytest.approx(0.0, abs=1e-12)

    def test_three_slit_alternating_signs(self):
        # c = (1, -1, 1)/sqrt(3), full overlap: I(delta) = 1 - (4/3)cos(delta)
        # + (2/3)cos(2 delta), so I(0) = 1/3 and the maximum 3 sits at pi.
        state = build_pure_state([ISQ3, -ISQ3, ISQ3], [(1, 0)] * 3)
        profile = intensity_profile(state)
        assert profile.intensity[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert profile.i_max == pytest.approx(3.0, abs=1e-8)
        i_max, i_min = cosine_series_extrema([1.0, -4.0 / 3.0, 2.0 / 3.0])
        assert profile.visibility == pytest.approx(michelson(i_max, i_min), abs=1e-8)

    def test_mean_intensity_is_one(self):
        rng = np.random.default_rng(211)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            profile = intensity_profile(random_mixed_state(n, rng))
            assert profile.intensity.mean() == pytest.approx(1.0, abs=1e-10)

    def test_intensity_nonnegative(self):
        rng = np.random.default_rng(223)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            profile = intensity_profile(random_mixed_state(n, rng))
            assert profile.intensity.min() >= -1e-12

    def test_visibility_matches_stored_extrema(self):
        rng = np.random.default_rng(227)
        profile = intensity_profile(random_mixed_state(3, rng))
        expected = (profile.i_max - profile.i_min) / (profile.i_max + profile.i_min)
        assert profile.visibility == pytest.approx(expected, abs=1e-12)


def direct_pattern(rho, delta):
    """I(delta) = sum_jk R_jk exp(i (j - k) delta), summed term by term."""
    phases = np.exp(1j * np.outer(delta, np.arange(rho.shape[0])))
    return np.einsum("aj,jk,ak->a", phases, rho, phases.conj()).real


def real_state(n, rng):
    """Mixed state with real rho and real Gram matrix, so I is a cosine series."""
    factor = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    rho = factor @ factor.T
    detectors = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    detectors /= np.linalg.norm(detectors, axis=1, keepdims=True)
    return build_mixed_state(rho / np.trace(rho), detectors @ detectors.T)


class TestHarmonicSampling:
    def test_samples_equal_direct_sum(self):
        rng = np.random.default_rng(401)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            state = random_mixed_state(n, rng)
            profile = intensity_profile(state)
            np.testing.assert_allclose(
                profile.intensity, direct_pattern(state.rho * state.gram, profile.delta),
                rtol=0.0, atol=1e-12)

    def test_aliased_harmonics_are_folded(self):
        # Harmonics up to 39 on a 64-point grid: 8..39 alias onto lower ones.
        state = random_mixed_state(40, np.random.default_rng(409))
        profile = intensity_profile(state, SlitGeometry(n=40, phase_step_count=64))
        np.testing.assert_allclose(
            profile.intensity, direct_pattern(state.rho * state.gram, profile.delta),
            rtol=0.0, atol=1e-12)


class TestExactExtrema:
    def test_fivefold_critical_point(self):
        # (1, 3, 3, 1)/sqrt(20) with full overlap: I = (2 + 2 cos delta)^3 / 20,
        # whose derivative has a 5-fold zero at delta = pi.
        state = build_pure_state(np.array([1.0, 3.0, 3.0, 1.0]) / np.sqrt(20.0),
                                 [(1, 0)] * 4)
        profile = intensity_profile(state)
        assert abs(profile.i_max - 3.2) <= 1e-12
        assert abs(profile.i_min) <= 1e-12
        assert abs(profile.visibility - 1.0) <= 1e-12

    def test_dark_outer_paths_lower_the_degree(self):
        # Slits 0 and 4 carry nothing: the pattern is the three-slit
        # 1 - (4/3)cos(delta) + (2/3)cos(2 delta).
        state = build_pure_state([0.0, ISQ3, -ISQ3, ISQ3, 0.0], [(1, 0)] * 5)
        profile = intensity_profile(state)
        i_max, i_min = cosine_series_extrema([1.0, -4.0 / 3.0, 2.0 / 3.0])
        assert abs(profile.i_max - i_max) <= 1e-12
        assert abs(profile.i_min - i_min) <= 1e-12
        assert abs(profile.visibility - michelson(i_max, i_min)) <= 1e-12

    def test_flat_pattern(self):
        profile = intensity_profile(build_mixed_state(np.eye(5) / 5, np.ones((5, 5))))
        assert profile.i_max == profile.i_min == 1.0
        assert profile.visibility == 0.0

    def test_subnormal_harmonic(self):
        rho = np.eye(5, dtype=complex) / 5
        rho[0, 4] = rho[4, 0] = 1e-320
        state = build_mixed_state(rho, np.ones((5, 5)))
        assert intensity_profile(state).visibility == 0.0
        rho[1, 2] = rho[2, 1] = 0.1
        state = build_mixed_state(rho, np.ones((5, 5)))
        assert abs(intensity_profile(state).visibility - 0.2) <= 1e-12

    def test_real_patterns_against_oracle(self):
        rng = np.random.default_rng(419)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            state = real_state(n, rng)
            effective = (state.rho * state.gram).real
            cosines = [np.trace(effective)] + [2.0 * np.trace(effective, k)
                                               for k in range(1, n)]
            i_max, i_min = cosine_series_extrema(cosines)
            profile = intensity_profile(state)
            assert abs(profile.i_max - i_max) <= 1e-12
            assert abs(profile.i_min - i_min) <= 1e-12

    def test_visibility_independent_of_sample_count(self):
        rng = np.random.default_rng(421)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            state = random_mixed_state(n, rng)
            profiles = [intensity_profile(state, SlitGeometry(n=n, phase_step_count=count))
                        for count in (64, 2048, 32768)]
            assert len({(p.i_max, p.i_min, p.visibility) for p in profiles}) == 1


class TestExtractVisibility:
    def test_flat_profile(self):
        delta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        profile = FringeProfile(delta=delta, intensity=np.ones(64),
                                i_max=1.0, i_min=1.0, visibility=0.0)
        assert extract_visibility(profile) == 0.0

    def test_unit_contrast(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        assert extract_visibility(intensity_profile(state)) == pytest.approx(1.0, abs=1e-9)

    def test_dark_pattern(self):
        delta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        profile = FringeProfile(delta=delta, intensity=np.zeros(64),
                                i_max=0.0, i_min=0.0, visibility=0.0)
        with pytest.raises(DarkPatternError):
            extract_visibility(profile)

    def test_off_grid_two_slit_is_exact(self):
        # I = 1 + 0.5 cos(delta - 0.7): no sample of the coarse grid hits an
        # extremum, yet the extracted contrast is exact.
        off = 0.25 * np.exp(-0.7j)
        state = build_mixed_state([[0.5, np.conj(off)], [off, 0.5]], np.ones((2, 2)))
        profile = intensity_profile(state, SlitGeometry(n=2, phase_step_count=64))
        assert abs(extract_visibility(profile) - 0.5) <= 1e-12
        assert abs(profile.i_max - 1.5) <= 1e-12
        assert abs(profile.i_min - 0.5) <= 1e-12


class TestTwoSlitOracle:
    def test_matches_pair_visibility_examples(self):
        detectors = [(1, 0), (0.5, np.sqrt(3) / 2), (0.5, -np.sqrt(3) / 2)]
        state = build_pure_state([ISQ3] * 3, detectors)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            profile = two_slit_pattern(state, i, j)
            assert extract_visibility(profile) == pytest.approx(
                pair_visibility(state, i, j), abs=1e-6)

    def test_matches_pair_visibility_random(self):
        rng = np.random.default_rng(307)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            state = random_mixed_state(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            i, j = map(int, rng.choice(n, size=2, replace=False))
            profile = two_slit_pattern(state, i, j)
            assert abs(extract_visibility(profile)
                       - pair_visibility(state, i, j)) <= 1e-6

    def test_rejects_wide_geometry(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        with pytest.raises(DimensionError):
            two_slit_pattern(state, 0, 1, SlitGeometry(n=3))


class TestScanHelpers:
    def test_flipped_amplitudes(self):
        amplitudes = flipped_symmetric_amplitudes(4, 3)
        np.testing.assert_allclose(amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_selective_decoherence_gram(self):
        gram = selective_decoherence_gram(4, [3], 0.25)
        expected = np.ones((4, 4), dtype=complex)
        expected[3, :3] = expected[:3, 3] = 0.25
        np.testing.assert_allclose(gram, expected, atol=1e-15)

    def test_gram_is_psd_across_subsets(self):
        rng = np.random.default_rng(311)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            size = int(rng.integers(1, n))
            subset = rng.choice(n, size=size, replace=False)
            g = float(rng.random())
            gram = selective_decoherence_gram(n, subset, g)
            assert np.linalg.eigvalsh(gram)[0] >= -1e-12


class TestMeiWeitzScan:
    def test_endpoints_match_closed_form(self):
        scan = mei_weitz_scan(4, 3, [3], [0.0, 1.0])
        # Frozen oracle values: 9/11 at g=0 and 4/(3 sqrt 3) at g=1.
        assert scan.visibilities[0] == pytest.approx(9.0 / 11.0, abs=1e-8)
        assert scan.visibilities[1] == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-8)
        assert scan.visibilities[0] == pytest.approx(flip_scan_visibility(0.0), abs=1e-8)
        assert scan.visibilities[1] == pytest.approx(flip_scan_visibility(1.0), abs=1e-8)

    def test_full_grid_against_oracle(self):
        grid = np.linspace(0.0, 1.0, 11)
        scan = mei_weitz_scan(4, 3, [3], grid)
        for g, visibility in zip(scan.gamma_grid, scan.visibilities):
            assert visibility == pytest.approx(flip_scan_visibility(g), abs=1e-6)

    def test_coherence_is_half_one_plus_g(self):
        grid = np.linspace(0.0, 1.0, 11)
        scan = mei_weitz_scan(4, 3, [3], grid)
        np.testing.assert_allclose(scan.coherences, (1.0 + grid) / 2.0, atol=1e-10)
        np.testing.assert_allclose(scan.distinguishabilities,
                                   1.0 - (1.0 + grid) / 2.0, atol=1e-10)
        assert np.all(np.diff(scan.coherences) >= -1e-12)

    def test_anomaly_region_visibility_rises_as_overlap_falls(self):
        # On [0, 0.6] the full-pattern contrast increases monotonically as g
        # decreases, even though coherence decreases: the anomaly this scan
        # exists to exhibit.  (Beyond g ~ 0.64 the contrast turns around and
        # grows with g again, so the rise is not global.)
        grid = np.linspace(0.0, 0.6, 7)
        scan = mei_weitz_scan(4, 3, [3], grid)
        assert np.all(np.diff(scan.visibilities) < 0.0)
        assert scan.visibilities[0] > scan.visibilities[-1]

    def test_net_anomaly_between_endpoints(self):
        scan = mei_weitz_scan(4, 3, [3], [0.0, 1.0])
        assert scan.visibilities[0] > scan.visibilities[1]

    def test_pairwise_visibilities_flip_invariant(self):
        for g in np.linspace(0.0, 1.0, 5):
            gram = selective_decoherence_gram(4, [3], float(g))
            flipped = build_mixed_state(
                np.outer(flipped_symmetric_amplitudes(4, 3),
                         flipped_symmetric_amplitudes(4, 3).conj()), gram)
            plain_amplitudes = np.full(4, 0.5)
            plain = build_mixed_state(
                np.outer(plain_amplitudes, plain_amplitudes), gram)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(pair_visibility(flipped, i, j)
                               - pair_visibility(plain, i, j)) <= 1e-10

    def test_argument_validation(self):
        with pytest.raises(DimensionError):
            mei_weitz_scan(2, 0, [0], [0.5])
        with pytest.raises(IndexError):
            mei_weitz_scan(4, 4, [0], [0.5])
        with pytest.raises(ValueError):
            mei_weitz_scan(4, 0, [], [0.5])
        with pytest.raises(IndexError):
            mei_weitz_scan(4, 0, [5], [0.5])
        with pytest.raises(ValueError):
            mei_weitz_scan(4, 0, [1], [1.5])
        with pytest.raises(ValueError):
            mei_weitz_scan(4, 0, [1], [float("nan")])
        # The scan takes no geometry: it samples no pattern.
        with pytest.raises(TypeError):
            mei_weitz_scan(4, 0, [1], [0.5], SlitGeometry(n=3))

    def test_path_count_cap(self):
        assert mei_weitz_scan(MAX_SCAN_PATHS, 0, [1], [0.5]).visibilities.size == 1
        with pytest.raises(DimensionError) as excinfo:
            mei_weitz_scan(MAX_SCAN_PATHS + 1, 0, [1], [0.5])
        assert excinfo.value.check == "path_count"

    def test_grid_length_cap(self):
        # The longest grid spans several stacked blocks.
        grid = np.linspace(0.0, 1.0, MAX_SCAN_POINTS)
        scan = mei_weitz_scan(4, 3, [3], grid)
        assert max(abs(v - flip_scan_visibility(g))
                   for g, v in zip(grid, scan.visibilities)) <= 1e-12
        with pytest.raises(ValueError):
            mei_weitz_scan(4, 3, [3], np.append(grid, 0.5))


class TestStackedScan:
    def test_one_decomposition_per_matrix_per_block(self, spectral_calls):
        # rho once, the Gram stack once and the effective stack once.
        for points in (1, 21, SCAN_BLOCK_POINTS):
            spectral_calls["eigvalsh"] = 0
            mei_weitz_scan(4, 3, [3], np.linspace(0.0, 1.0, points))
            assert spectral_calls["eigvalsh"] == 3, points
        spectral_calls["eigvalsh"] = 0
        mei_weitz_scan(4, 3, [3], np.linspace(0.0, 1.0, 2 * SCAN_BLOCK_POINTS + 1))
        assert spectral_calls["eigvalsh"] == 9

    def test_rows_of_different_degree_match_oracle(self):
        # At g = 0 the outer harmonic vanishes, so those rows have degree 4
        # in one extrema call with degree-6 rows.
        grid = [0.0, 0.3, 0.0, 1.0, 0.0, 0.7, 0.5]
        scan = mei_weitz_scan(4, 3, [3], grid)
        for g, visibility in zip(grid, scan.visibilities):
            assert abs(visibility - flip_scan_visibility(g)) <= 1e-12

    def test_every_point_equals_the_single_state_results(self):
        rng = np.random.default_rng(433)
        for n in range(5, MAX_SCAN_PATHS + 1):
            flipped = int(rng.integers(n))
            decohered = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            grid = [0.0, float(rng.random()), 1.0]
            scan = mei_weitz_scan(n, flipped, decohered, grid)
            amplitudes = flipped_symmetric_amplitudes(n, flipped)
            rho = np.outer(amplitudes, amplitudes.conj())
            for k, g in enumerate(grid):
                state = build_mixed_state(rho, selective_decoherence_gram(n, decohered, g))
                profile = intensity_profile(state, SlitGeometry(n=n, phase_step_count=64))
                assert abs(scan.visibilities[k] - profile.visibility) <= 1e-12, (n, g)
                assert abs(scan.coherences[k] - coherence(state)) <= 1e-15, (n, g)
                assert abs(scan.distinguishabilities[k]
                           - distinguishability(state)) <= 1e-15, (n, g)

    def test_peak_memory_follows_the_block_not_the_grid(self):
        def peak(points):
            grid = np.linspace(0.0, 1.0, points)
            tracemalloc.start()
            try:
                mei_weitz_scan(16, 0, [1, 2], grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mei_weitz_scan(16, 0, [1, 2], [0.5])
        assert peak(256) <= 1.5 * peak(64)


class TestExactExtremaAccuracy:
    def test_two_slit_visibility_error_budget(self):
        # Randomized phases and contrasts: the exact extrema reproduce
        # 2 |R_01| to rounding at the default 2048 samples.
        rng = np.random.default_rng(313)
        worst = 0.0
        for _ in range(200):
            contrast = float(rng.random())
            weight = rng.uniform(0.2, 0.8)
            rho = np.array([[weight, 0.0], [0.0, 1.0 - weight]], dtype=complex)
            off = contrast * np.exp(1j * rng.uniform(0, 2 * np.pi)) \
                * np.sqrt(weight * (1.0 - weight))
            rho[0, 1] = off
            rho[1, 0] = np.conj(off)
            state = build_mixed_state(rho, np.ones((2, 2)))
            profile = intensity_profile(state)
            expected = 2.0 * abs(rho[0, 1])
            worst = max(worst, abs(profile.visibility - expected))
        assert worst <= 1e-12
