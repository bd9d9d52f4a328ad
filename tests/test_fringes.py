"""Fringe pattern simulation, contrast extraction and the flip/decohere scan."""

import tracemalloc

import numpy as np
import pytest

from dualitylab import (
    DarkPairError,
    DarkPatternError,
    DimensionError,
    FringeProfile,
    InterferometerState,
    SlitGeometry,
    ValidationError,
    build_mixed_state,
    build_pure_state,
    coherence,
    distinguishability,
    extract_visibility,
    intensity_profile,
    mei_weitz_scan,
    open_pair,
    pair_visibility,
    two_slit_pattern,
)
from dualitylab import fringes
from dualitylab.fringes import MAX_SCAN_PATHS, MAX_SCAN_POINTS, SCAN_BLOCK_POINTS, \
    _extrema, _harmonics, flipped_symmetric_amplitudes, selective_decoherence_gram
from dualitylab.pairwise import DARK_PAIR_THRESHOLD, _pair_entries, _pair_indices
from dualitylab.sampling import random_density_matrix, random_gram, random_mixed_state, \
    random_pure_state, random_symmetric_mixed_state

from oracles import companion_extrema, cosine_series_extrema, flip_scan_visibility, \
    michelson

ISQ2 = 1.0 / np.sqrt(2.0)
ISQ3 = 1.0 / np.sqrt(3.0)


class TestSlitGeometry:
    def test_defaults(self):
        geometry = SlitGeometry(n=4)
        assert geometry.phase_step_count == 2048

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            SlitGeometry(n=2, phase_step_count=32)
        # A count must be an integer, not a float in range.
        with pytest.raises(ValidationError) as info:
            SlitGeometry(n=2, phase_step_count=100.5)
        assert info.value.check == "phase_step_count"

    def test_too_many_samples(self):
        SlitGeometry(n=2, phase_step_count=2**20)
        with pytest.raises(ValidationError) as info:
            SlitGeometry(n=2, phase_step_count=2**20 + 1)
        assert info.value.check == "phase_step_count"

    def test_too_few_slits(self):
        with pytest.raises(DimensionError):
            SlitGeometry(n=1)
        for n in (2.5, 3.0):
            with pytest.raises(DimensionError) as info:
                SlitGeometry(n=n)
            assert info.value.check == "slit_count"

    def test_mismatch_with_state(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        with pytest.raises(DimensionError) as info:
            intensity_profile(state, SlitGeometry(n=3))
        assert info.value.check == "slit_count"


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

    def test_profiles_hold_read_only_arrays_of_their_own(self):
        state = random_mixed_state(4, np.random.default_rng(229))
        profiles = [intensity_profile(state), intensity_profile(state),
                    two_slit_pattern(state, 0, 1), two_slit_pattern(state, 0, 1)]
        arrays = [arr for profile in profiles
                  for arr in (profile.delta, profile.intensity)]
        assert not any(arr.flags.writeable for arr in arrays)
        for a, arr in enumerate(arrays):
            assert not any(np.shares_memory(arr, other) for other in arrays[a + 1:])

    def test_constructor_copies_its_inputs(self):
        delta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        intensity = 1.0 + np.cos(delta)
        profile = FringeProfile(delta=delta, intensity=intensity,
                                i_max=2.0, i_min=0.0, visibility=1.0)
        expected = (delta.copy(), intensity.copy())
        delta[:] = 7.0
        intensity[:] = 7.0
        np.testing.assert_array_equal(profile.delta, expected[0])
        np.testing.assert_array_equal(profile.intensity, expected[1])
        assert not (profile.delta.flags.writeable or profile.intensity.flags.writeable)

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


def ramped_phases(n, ramp):
    """exp(i ramp j^2): a nonlinear phase ramp, which no translation undoes."""
    return np.exp(1j * ramp * np.arange(n) ** 2)


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

    def test_profile_holds_only_its_own_arrays(self):
        # tracemalloc sees numpy's buffers but not the FFT's internal scratch:
        # the traced peak is the profile's delta and intensity plus small parts.
        steps = 2**16
        state = random_mixed_state(4, np.random.default_rng(17))
        intensity_profile(state, SlitGeometry(4, 64))
        tracemalloc.start()
        try:
            intensity_profile(state, SlitGeometry(4, steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * steps * 8 + 16 * 1024


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

    @pytest.mark.parametrize("phi", [0.0, 1e-9, 1e-5])
    def test_clustered_critical_points_near_pi(self, phi):
        # I = 1 + cos(delta) + b cos(2 delta), shifted by phi.  At b = 1/4 the
        # derivative has a triple zero at delta = pi; just above it, three
        # critical points cluster there.  In x = cos(delta), I is a parabola
        # with its vertex at x = -1/(4b), so the minimum is b (at x = -1) or
        # 1 - 1/(8b) - b (at the vertex).
        phase = np.exp(1j * phi * np.arange(3))
        for eps in np.logspace(-10, -2, 41):
            b = 0.25 + eps
            rho = np.array([[1 / 3, 1 / 4, b / 2], [1 / 4, 1 / 3, 1 / 4],
                            [b / 2, 1 / 4, 1 / 3]]) * np.outer(phase, phase.conj())
            profile = intensity_profile(build_mixed_state(rho, np.ones((3, 3))))
            assert abs(profile.i_min - min(b, 1.0 - 1.0 / (8.0 * b) - b)) <= 1e-12
            assert abs(profile.i_max - (2.0 + b)) <= 1e-12

    @pytest.mark.parametrize("ramp", [0.0, 0.3])
    def test_dark_outer_paths_lower_the_degree(self, ramp):
        # Slits 0 and 4 carry nothing, so the pattern has degree 2: at ramp 0
        # the three-slit 1 - (4/3)cos(delta) + (2/3)cos(2 delta).  The phase
        # ramp exp(i ramp j^2) keeps the harmonics complex.
        amplitudes = np.array([0.0, ISQ3, -ISQ3, ISQ3, 0.0]) * ramped_phases(5, ramp)
        state = build_pure_state(amplitudes, [(1, 0)] * 5)
        profile = intensity_profile(state)
        i_max, i_min = companion_extrema(state.rho * state.gram)
        if ramp == 0.0:
            assert (i_max, i_min) == pytest.approx(
                cosine_series_extrema([1.0, -4.0 / 3.0, 2.0 / 3.0]), abs=1e-12)
        assert abs(profile.i_max - i_max) <= 1e-12
        assert abs(profile.i_min - i_min) <= 1e-12
        assert abs(profile.visibility - michelson(i_max, i_min)) <= 1e-12

    @pytest.mark.parametrize("ramp", [0.0, 0.3])
    def test_flat_pattern(self, ramp):
        # A flat pattern has no harmonics; the ramp makes its Gram matrix complex.
        phases = ramped_phases(5, ramp)
        state = build_mixed_state(np.eye(5) / 5, np.outer(phases, phases.conj()))
        profile = intensity_profile(state)
        assert profile.i_max == profile.i_min == 1.0
        assert profile.visibility == 0.0

    @pytest.mark.parametrize("ramp", [0.0, 0.3])
    def test_subnormal_harmonic(self, ramp):
        phases = ramped_phases(5, ramp)
        ramp_matrix = np.outer(phases, phases.conj())
        rho = np.eye(5, dtype=complex) / 5
        rho[0, 4] = rho[4, 0] = 1e-320
        state = build_mixed_state(rho * ramp_matrix, np.ones((5, 5)))
        assert intensity_profile(state).visibility == 0.0
        rho[1, 2] = rho[2, 1] = 0.1
        state = build_mixed_state(rho * ramp_matrix, np.ones((5, 5)))
        assert abs(intensity_profile(state).visibility - 0.2) <= 1e-12
        # A second pair keeps the ramped pattern from being a translate of a
        # real one.
        rho[1, 3] = rho[3, 1] = 0.05
        state = build_mixed_state(rho * ramp_matrix, np.ones((5, 5)))
        profile = intensity_profile(state)
        i_max, i_min = companion_extrema(state.rho * state.gram)
        assert abs(profile.i_max - i_max) <= 1e-12
        assert abs(profile.i_min - i_min) <= 1e-12

    def test_stack_mixing_real_and_complex_rows(self):
        # Real, complex, one-pair, translated-real and flat rows of one n in
        # one call give what each row gives alone.
        rng = np.random.default_rng(439)
        n = 6
        effectives = [state.rho * state.gram for state in (
            real_state(n, rng), random_mixed_state(n, rng), random_pure_state(n, rng))]
        effectives.append(effectives[0] * np.outer(ramped_phases(n, 0.3),
                                                   ramped_phases(n, 0.3).conj()))
        shift = np.exp(0.7j * np.arange(n))
        effectives.append(effectives[0] * np.outer(shift, shift.conj()))
        pair = np.eye(n, dtype=complex) / n
        pair[1, 4], pair[4, 1] = 0.05j, -0.05j
        effectives += [pair, np.eye(n) / n]
        stack = _harmonics(np.array(effectives))
        i_max, i_min = _extrema(stack)
        for row, harmonics in enumerate(stack):
            assert _extrema(harmonics[None]) == (i_max[row], i_min[row]), row

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


class TestTwoSlitExtrema:
    """Two-slit rows take the closed form c_0 +- 2 |h_1|, with
    h_1 = (c_1 + conj c_-1) / 2, in place of an eigensolve.  A row of more
    slits with one harmonic pair c_(+-M) has the same extrema c_0 +- 2 |h_M|,
    which the eigensolves must reach."""

    EDGE_ROWS = {
        "zero_c1": [[0.6, 0.0], [0.0, 0.4]],
        "subnormal_c1": [[0.5, 5e-324], [1e-320, 0.5]],
        "c1_below_floor": [[0.5, 1e-33], [1e-33, 0.5]],
        "non_hermitian": [[0.3 + 0.2j, 0.1 - 0.4j], [0.25 + 0.1j, 0.7 - 0.5j]],
        "all_zero": [[0.0, 0.0], [0.0, 0.0]],
    }

    def test_closed_form_and_oracle(self):
        rng = np.random.default_rng(331)
        random = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        matrices = np.concatenate(
            [np.array(list(self.EDGE_ROWS.values()), dtype=complex), 0.3 * random])
        harmonics = _harmonics(matrices)
        i_max, i_min = _extrema(harmonics)
        c0 = matrices[:, 0, 0].real + matrices[:, 1, 1].real
        amplitude = np.abs(0.5 * (matrices[:, 1, 0] + matrices[:, 0, 1].conj()))
        np.testing.assert_array_equal(i_max, c0 + 2.0 * amplitude)
        np.testing.assert_array_equal(i_min, c0 - 2.0 * amplitude)
        for row, matrix in enumerate(matrices):
            # The pattern only sees the Hermitian part, which the oracle needs.
            expected = companion_extrema(0.5 * (matrix + matrix.conj().T))
            assert abs(i_max[row] - expected[0]) <= 1e-15, row
            assert abs(i_min[row] - expected[1]) <= 1e-15, row

    def test_one_pair_rows_at_more_slits(self):
        # The two-slit inputs of the test above, real and complex, moved onto
        # slits (j, j + M) of n: the row keeps c_0 and gains c_(+-M) alone.
        rng = np.random.default_rng(337)
        pairs = np.concatenate([
            np.array(list(self.EDGE_ROWS.values()), dtype=complex),
            0.3 * (rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))),
            0.3 * rng.normal(size=(50, 2, 2))])
        c0 = pairs[:, 0, 0].real + pairs[:, 1, 1].real
        amplitude = np.abs(0.5 * (pairs[:, 1, 0] + pairs[:, 0, 1].conj()))
        for n in range(3, 9):
            for m in range(1, n):
                j = n - 1 - m
                matrices = np.zeros((len(pairs), n, n), dtype=complex)
                matrices[:, [[j], [j + m]], [j, j + m]] = pairs
                i_max, i_min = _extrema(_harmonics(matrices))
                assert np.abs(i_max - (c0 + 2.0 * amplitude)).max() <= 1e-15, (n, m)
                assert np.abs(i_min - (c0 - 2.0 * amplitude)).max() <= 1e-15, (n, m)

    def test_each_row_alone_equals_the_stack(self):
        matrices = np.array(list(self.EDGE_ROWS.values()), dtype=complex)
        stacked = _extrema(_harmonics(matrices))
        for row, matrix in enumerate(matrices):
            alone = _extrema(_harmonics(matrix[None]))
            assert (alone[0][0], alone[1][0]) == (stacked[0][row], stacked[1][row])


class TestCompanionOracle:
    SIZES = [*range(2, 33), 64, 64, 64]

    def states(self, kind, rng):
        """Seeded states of one kind at every n of SIZES."""
        for n in self.SIZES:
            if kind == "mixed":
                yield random_mixed_state(n, rng)
            elif kind == "pure":
                yield random_pure_state(n, rng)
            else:
                state = real_state(n, rng)
                if kind == "translated":
                    shift = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi) * np.arange(n))
                    state = build_mixed_state(state.rho * np.outer(shift, shift.conj()),
                                              state.gram)
                yield state

    @pytest.mark.parametrize("kind, seed", [("mixed", 443), ("pure", 444), ("real", 445),
                                            ("translated", 446)])
    def test_extrema_match_oracle_and_bound_the_samples(self, kind, seed, monkeypatch):
        # Two-slit rows take the closed form, other real rows the Chebyshev
        # path, and the other rows the Cayley path.
        cayley_rows = []

        def counted(half, _original=fringes._cayley_critical):
            cayley_rows.append(half.shape[0])
            return _original(half)

        monkeypatch.setattr(fringes, "_cayley_critical", counted)
        for state in self.states(kind, np.random.default_rng(seed)):
            profile = intensity_profile(state)
            i_max, i_min = companion_extrema(state.rho * state.gram)
            assert abs(profile.i_max - i_max) <= 1e-12, state.n
            assert abs(profile.i_min - i_min) <= 1e-12, state.n
            # A missed critical point would let a sample pass an extremum.
            assert profile.intensity.max() - profile.i_max <= 1e-12, state.n
            assert profile.i_min - profile.intensity.min() <= 1e-12, state.n
        assert len(cayley_rows) == (0 if kind == "real" else sum(n > 2 for n in self.SIZES))


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


class TestNonFiniteInput:
    """A hand-built state is only shape-checked, so the pattern's own state
    meets the builders' finiteness rule before any extremum is taken."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_entry_raises(self, n, value):
        rho = np.full((n, n), 1.0 / n, dtype=complex)
        rho[0, 1] = value
        state = InterferometerState(rho, np.ones((n, n)), True)
        for pattern in (intensity_profile, lambda s: two_slit_pattern(s, 0, 1)):
            with pytest.raises(ValidationError) as info:
                pattern(state)
            assert info.value.check == "finite"
            assert str(info.value) == "effective state contains non-finite entries"
        if n == 3:
            # Pair (0, 2) reads no non-finite entry.
            assert two_slit_pattern(state, 0, 2).visibility == pytest.approx(1.0, abs=1e-12)


class TestTwoSlitOracle:
    def test_matches_pair_visibility_examples(self):
        detectors = [(1, 0), (0.5, np.sqrt(3) / 2), (0.5, -np.sqrt(3) / 2)]
        state = build_pure_state([ISQ3] * 3, detectors)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            profile = two_slit_pattern(state, i, j)
            assert extract_visibility(profile) == pytest.approx(
                pair_visibility(state, i, j), abs=1e-12)

    def test_matches_pair_visibility_random(self):
        rng = np.random.default_rng(307)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            state = random_mixed_state(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            i, j = map(int, rng.choice(n, size=2, replace=False))
            profile = two_slit_pattern(state, i, j)
            assert abs(extract_visibility(profile)
                       - pair_visibility(state, i, j)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
    def test_every_pair_at_once(self, n):
        # All lit pairs of a state in one call of the entries open_pair, and so
        # two_slit_pattern, is built from, their visibilities from one stack
        # of harmonics.
        rng = np.random.default_rng(401 + n)
        states = [random_mixed_state(n, rng), random_pure_state(n, rng, gram_rank=1),
                  random_symmetric_mixed_state(n, rng)]
        if n > 2:
            # Paths 0 and 1 carry nothing, so the pair (0, 1) is dark.
            rho = random_density_matrix(n, rng)
            rho[:2, :] = rho[:, :2] = 0.0
            states.append(build_mixed_state(rho / np.trace(rho).real, random_gram(n, rng)))
        for k, state in enumerate(states):
            i, j = _pair_indices(n)
            diag = state.rho.diagonal().real
            weight = diag[i] + diag[j]
            lit = weight > DARK_PAIR_THRESHOLD
            assert np.flatnonzero(~lit).tolist() == ([0] if k == 3 else [])
            i, j, weight = i[lit], j[lit], weight[lit]
            r00, r01, r10, r11 = _pair_entries(state, i, j, weight)
            visibilities = fringes._michelson(
                *_extrema(np.stack([r01, r00 + r11, r10], axis=1)))
            for a, b, visibility in zip(i.tolist(), j.tolist(), visibilities):
                assert visibility == two_slit_pattern(state, a, b).visibility
                assert abs(visibility - pair_visibility(state, a, b)) <= 1e-12

    @pytest.mark.parametrize("i, j, error", [
        (0, 1.0, IndexError), (0, 3, IndexError), (-1, 2, IndexError),
        (2, 2, ValueError), (0, 1, DarkPairError)],
        ids=["non_integer", "out_of_range", "negative", "equal", "dark"])
    def test_raises_as_open_pair(self, i, j, error):
        # Paths 0 and 1 carry nothing, so the pair (0, 1) is dark.
        state = build_mixed_state(np.diag([0.0, 0.0, 1.0]), np.eye(3))
        raised = []
        for call in (open_pair, two_slit_pattern):
            with pytest.raises(Exception) as info:
                call(state, i, j)
            raised.append((type(info.value), getattr(info.value, "check", None),
                           str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] is error

    def test_rejects_wide_geometry(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        with pytest.raises(DimensionError) as info:
            two_slit_pattern(state, 0, 1, SlitGeometry(n=3))
        assert info.value.check == "slit_count"


class TestScanHelpers:
    def test_flipped_amplitudes(self):
        amplitudes = flipped_symmetric_amplitudes(4, 3)
        np.testing.assert_allclose(amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_selective_decoherence_gram(self):
        gram = selective_decoherence_gram(4, [3], 0.25)
        expected = np.ones((4, 4), dtype=complex)
        expected[3, :3] = expected[:3, 3] = 0.25
        np.testing.assert_allclose(gram, expected, atol=1e-15)

    @pytest.mark.parametrize("path, error", [
        (-1, IndexError), (4, IndexError), (True, TypeError), (1.5, TypeError),
        ("1", TypeError)], ids=["negative", "past_end", "bool", "float", "str"])
    @pytest.mark.parametrize("helper", ["flipped", "decohered"])
    def test_path_index_rule(self, helper, path, error):
        # The scan's rule: an integer path in [0, n), named when it fails.
        if helper == "flipped":
            name, call = "flipped_path", lambda: flipped_symmetric_amplitudes(4, path)
        else:
            name, call = "decohered_paths", lambda: selective_decoherence_gram(4, [path], 0.5)
        with pytest.raises(error, match=rf"^{name}\b"):
            call()

    @pytest.mark.parametrize("call, error", [
        (lambda: flipped_symmetric_amplitudes(0, 0), DimensionError),
        (lambda: flipped_symmetric_amplitudes(1, 0), DimensionError),
        (lambda: flipped_symmetric_amplitudes(2.0, 0), TypeError),
        (lambda: selective_decoherence_gram(2.5, [0], 0.5), TypeError),
        (lambda: selective_decoherence_gram(True, [0], 0.5), TypeError),
        (lambda: selective_decoherence_gram(-1, [], 0.5), DimensionError),
        (lambda: mei_weitz_scan(0, 0, [1], [0.5]), DimensionError),
        (lambda: mei_weitz_scan(1, 0, [1], [0.5]), DimensionError),
        (lambda: mei_weitz_scan(True, 0, [1], [0.5]), TypeError),
    ], ids=["flipped_zero", "flipped_one", "flipped_float", "decohered_float",
            "decohered_bool", "decohered_negative", "scan_zero", "scan_one", "scan_bool"])
    def test_path_count_rule(self, call, error):
        # An integer count of at least 2 paths, named when it fails; the scan
        # holds the same rule before its own range of 3 to MAX_SCAN_PATHS.
        with pytest.raises(error, match=r"^n\b") as info:
            call()
        if error is DimensionError:
            assert info.value.check == "path_count"

    def test_valid_paths(self):
        np.testing.assert_array_equal(flipped_symmetric_amplitudes(4, np.int64(3)),
                                      flipped_symmetric_amplitudes(4, 3))
        # An empty decohered set is valid: every overlap stays 1.
        np.testing.assert_array_equal(selective_decoherence_gram(4, [], 0.5),
                                      np.ones((4, 4), dtype=complex))

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
        # A repeated path is not a subset: the scan refuses it, as the CLI does.
        for paths in ([3, 3], [1, 3, 1]):
            with pytest.raises(ValueError, match="distinct paths"):
                mei_weitz_scan(4, 3, paths, [0.5])
        with pytest.raises(IndexError):
            mei_weitz_scan(4, 0, [5], [0.5])
        with pytest.raises(ValueError):
            mei_weitz_scan(4, 0, [1], [1.5])
        with pytest.raises(ValueError):
            mei_weitz_scan(4, 0, [1], [float("nan")])
        for grid in ([], [[0.5]]):
            with pytest.raises(ValueError, match="non-empty 1-d"):
                mei_weitz_scan(4, 0, [1], grid)
        # The scan takes no geometry: it samples no pattern.
        with pytest.raises(TypeError):
            mei_weitz_scan(4, 0, [1], [0.5], SlitGeometry(n=3))
        # Counts and path indices are integers; the error names the argument.
        for args, name in [((4, 3, [1.5], [0.5]), "decohered_paths"),
                           ((4, 3, ["3"], [0.5]), "decohered_paths"),
                           ((4, True, [1], [0.5]), "flipped_path"),
                           ((4, 2.0, [1], [0.5]), "flipped_path"),
                           ((4.5, 0, [1], [0.5]), "n")]:
            with pytest.raises(TypeError, match=rf"^{name}\b"):
                mei_weitz_scan(*args)

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
    def test_scan_decomposes_no_state(self, spectral_calls):
        # Its states are formed, so they are checked for trace and unit
        # diagonal only, as build_pure_state checks the states it forms.
        for points in (1, 21, SCAN_BLOCK_POINTS, 2 * SCAN_BLOCK_POINTS + 1):
            mei_weitz_scan(4, 3, [3], np.linspace(0.0, 1.0, points))
            assert spectral_calls == {"eigvalsh": 0, "matrix_rank": 0, "matrices": 0}, points

    def test_rows_of_different_degree_match_oracle(self):
        # At g = 0 the outer harmonic vanishes, so those rows have degree 4
        # in one extrema call with degree-6 rows.
        grid = [0.0, 0.3, 0.0, 1.0, 0.0, 0.7, 0.5]
        scan = mei_weitz_scan(4, 3, [3], grid)
        for g, visibility in zip(grid, scan.visibilities):
            assert abs(visibility - flip_scan_visibility(g)) <= 1e-12

    def test_every_point_equals_the_single_state_results(self):
        # build_mixed_state runs every check, so this also cross-checks that
        # the scan's states are valid; at n = 16 the grid crosses a block.
        rng = np.random.default_rng(433)
        for n in range(3, MAX_SCAN_PATHS + 1):
            flipped = int(rng.integers(n))
            decohered = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            inner = rng.random(SCAN_BLOCK_POINTS - 1 if n == 16 else 1)
            grid = [0.0, *inner.tolist(), 1.0]
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
