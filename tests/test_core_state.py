"""Construction, validation and diagnostics of quanton-detector states."""

import numpy as np
import pytest

from dualitylab import (
    DimensionError,
    InterferometerState,
    NormalizationError,
    ValidationError,
    build_mixed_state,
    build_pure_state,
    effective_density,
    validate,
)
from dualitylab.core_state import _raise_first_failure, _run_checks
from dualitylab.sampling import (
    random_amplitudes,
    random_detectors,
    random_gram,
    random_mixed_state,
    random_pure_state,
    random_symmetric_mixed_state,
    random_symmetric_pure_state,
)

ISQ2 = 1.0 / np.sqrt(2.0)
ISQ3 = 1.0 / np.sqrt(3.0)


class TestBuildPureState:
    def test_identical_detectors(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        np.testing.assert_allclose(state.rho, np.full((2, 2), 0.5), atol=1e-15)
        np.testing.assert_allclose(state.gram, np.ones((2, 2)), atol=1e-15)
        assert state.purity_flag
        assert state.n == 2

    def test_orthogonal_detectors(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1)])
        np.testing.assert_allclose(state.gram, np.eye(2), atol=1e-15)

    def test_three_path_overlaps(self):
        # Frozen from direct inner products: <d2|d1> = 1/2, <d3|d1> = 1/2,
        # <d3|d2> = 1/4 - 3/4 = -1/2, so all magnitudes are 0.5.
        detectors = [(1, 0),
                     (0.5, np.sqrt(3) / 2),
                     (0.5, -np.sqrt(3) / 2)]
        state = build_pure_state([ISQ3] * 3, detectors)
        off = np.abs(state.gram[~np.eye(3, dtype=bool)])
        np.testing.assert_allclose(off, 0.5, atol=1e-12)
        np.testing.assert_allclose(state.gram[2, 1].real, -0.5, atol=1e-12)

    def test_gram_ordering_convention(self):
        # gram[i, j] = <d_j|d_i>, i.e. conjugate-linear in the j state.
        d2 = np.array([(1 + 1j) / np.sqrt(2), 0.0])
        state = build_pure_state([ISQ2, ISQ2], [np.array([1.0, 0.0]), d2])
        np.testing.assert_allclose(state.gram[0, 1], np.conj(d2[0]), atol=1e-15)
        np.testing.assert_allclose(state.gram[1, 0], d2[0], atol=1e-15)

    def test_rho_is_amplitude_outer_product(self):
        rng = np.random.default_rng(7)
        c = random_amplitudes(4, rng)
        state = build_pure_state(c, random_detectors(4, 3, rng))
        np.testing.assert_allclose(state.rho, np.outer(c, c.conj()), atol=1e-15)

    def test_non_normalized_amplitudes(self):
        with pytest.raises(NormalizationError):
            build_pure_state([0.9, 0.1], [(1, 0), (0, 1)])

    def test_mismatched_detector_dimensions(self):
        with pytest.raises(DimensionError):
            build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1, 0)])

    def test_wrong_detector_count(self):
        with pytest.raises(DimensionError):
            build_pure_state([ISQ2, ISQ2], [(1, 0)])

    def test_non_unit_detector(self):
        with pytest.raises(NormalizationError):
            build_pure_state([ISQ2, ISQ2], [(1, 0), (0.5, 0.5)])

    def test_single_path_rejected(self):
        with pytest.raises(DimensionError):
            build_pure_state([1.0], [(1, 0)])


class TestBuildMixedState:
    def test_maximally_mixed(self):
        state = build_mixed_state(np.eye(2) / 2, np.ones((2, 2)))
        assert not state.purity_flag

    def test_rank_one_input_is_pure(self):
        c = np.array([0.6, 0.8j])
        state = build_mixed_state(np.outer(c, c.conj()), np.eye(2))
        assert state.purity_flag

    def test_trace_defect(self):
        with pytest.raises(NormalizationError) as info:
            build_mixed_state(0.9 * np.eye(2) / 2, np.ones((2, 2)))
        assert info.value.check == "rho_trace"

    def test_not_psd(self):
        # Eigenvalues of [[.5, .6], [.6, .5]] are -0.1 and 1.1.
        with pytest.raises(ValidationError) as info:
            build_mixed_state([[0.5, 0.6], [0.6, 0.5]], np.ones((2, 2)))
        assert info.value.check == "rho_psd"
        assert info.value.residual == pytest.approx(-0.1, abs=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(ValidationError) as info:
            build_mixed_state([[0.5, 0.5], [0.1, 0.5]], np.eye(2))
        assert info.value.check == "rho_hermitian"

    def test_gram_diagonal(self):
        with pytest.raises(ValidationError) as info:
            build_mixed_state(np.eye(2) / 2, [[0.9, 0.0], [0.0, 1.0]])
        assert info.value.check == "gram_unit_diagonal"

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            build_mixed_state(np.eye(2) / 2, np.eye(3))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            build_mixed_state(np.ones((2, 3)) / 6, np.eye(3))

    def test_non_finite(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = np.nan
        with pytest.raises(ValidationError) as info:
            build_mixed_state(rho, np.eye(2))
        assert info.value.check == "finite"

    @pytest.mark.parametrize("rho,gram,check", [
        # Hermitian part, defect, trace and effective state each overflow.
        ([[1e308, 0], [0, 0]], np.eye(2), "rho_trace"),
        ([[0.5, 1e308], [-1e308, 0.5]], np.ones((2, 2)), "rho_hermitian"),
        ([[1e308, 0], [0, 1e308]], np.eye(2), "rho_trace"),
        ([[0.5, 1e308], [1e308, 0.5]], [[1, 1e308], [1e308, 1]], "rho_psd"),
    ])
    def test_entries_near_float_limit_fail_their_check(self, rho, gram, check):
        # The suite turns RuntimeWarnings into errors, so an overflow warning
        # from any residual fails this test too.
        with pytest.raises(ValidationError) as info:
            build_mixed_state(rho, gram)
        assert info.value.check == check

    def test_input_arrays_not_aliased(self):
        rho = np.eye(2, dtype=complex) / 2
        state = build_mixed_state(rho, np.eye(2))
        rho[0, 0] = 99.0
        assert state.rho[0, 0] == 0.5
        with pytest.raises(ValueError):
            state.rho[0, 0] = 0.0  # read-only


class TestEffectiveDensity:
    def test_all_ones_gram_is_identity_operation(self):
        rng = np.random.default_rng(3)
        state = random_mixed_state(3, rng)
        full = build_mixed_state(state.rho, np.ones((3, 3)))
        np.testing.assert_allclose(effective_density(full), full.rho, atol=1e-15)

    def test_identity_gram_decoheres(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1)])
        np.testing.assert_allclose(effective_density(state),
                                   np.diag([0.5, 0.5]), atol=1e-15)

    def test_entrywise_product(self):
        # Frozen by hand: [[.5, .5], [.5, .5]] * [[1, .3], [.3, 1]].
        state = build_mixed_state([[0.5, 0.5], [0.5, 0.5]],
                                  [[1.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(effective_density(state),
                                   [[0.5, 0.15], [0.15, 0.5]], atol=1e-15)


class TestValidateDiagnostics:
    def _checks_by_name(self, state):
        diagnostics = validate(state)
        return {check.name: check for check in diagnostics.checks}, diagnostics

    def test_valid_state_all_pass(self):
        state = build_mixed_state(np.eye(2) / 2, np.ones((2, 2)))
        checks, diagnostics = self._checks_by_name(state)
        assert diagnostics.ok
        assert not diagnostics.failed()
        assert checks["rho_trace"].residual <= 1e-15
        assert diagnostics.gram_rank == 1

    def test_trace_defect_reported(self):
        state = InterferometerState(rho=0.9 * np.eye(2) / 2,
                                    gram=np.ones((2, 2)), purity_flag=False)
        checks, diagnostics = self._checks_by_name(state)
        assert not diagnostics.ok
        assert not checks["rho_trace"].passed
        assert checks["rho_trace"].residual == pytest.approx(0.1, abs=1e-12)

    def test_psd_defect_reported(self):
        state = InterferometerState(rho=np.array([[0.5, 0.6], [0.6, 0.5]]),
                                    gram=np.ones((2, 2)), purity_flag=False)
        checks, diagnostics = self._checks_by_name(state)
        assert not checks["rho_psd"].passed
        assert checks["rho_psd"].residual == pytest.approx(-0.1, abs=1e-12)

    def test_gram_rank_reported(self):
        rng = np.random.default_rng(11)
        state = random_mixed_state(4, rng, gram_rank=2)
        assert validate(state).gram_rank == 2

    @pytest.mark.parametrize("sampler", [random_pure_state, random_mixed_state,
                                         random_symmetric_pure_state,
                                         random_symmetric_mixed_state])
    def test_gram_rank_matches_matrix_rank(self, sampler):
        # Detector dimensions 1..n+1: rank-deficient and full-rank Grams.
        rng = np.random.default_rng(12)
        deficient = 0
        for n in range(2, 33):
            for dim in sorted({1, n // 2 + 1, n - 1, n, n + 1} - {0}):
                state = sampler(n, rng, gram_rank=dim)
                expected = int(np.linalg.matrix_rank(state.gram, hermitian=True))
                assert validate(state).gram_rank == expected, (n, dim)
                deficient += expected < n
        assert deficient > 60

    def test_built_state_is_checked_once(self, spectral_calls):
        state = build_mixed_state(np.eye(3) / 3, random_gram(3, np.random.default_rng(4)))
        # rho, gram and the effective state, one decomposition each.
        assert spectral_calls == {"eigvalsh": 3, "matrix_rank": 0}
        assert validate(state) is state.diagnostics
        assert validate(state).ok
        assert spectral_calls == {"eigvalsh": 3, "matrix_rank": 0}

    def test_hand_built_state_is_checked_on_first_read(self, spectral_calls):
        state = InterferometerState(rho=np.eye(2) / 2, gram=np.eye(2), purity_flag=False)
        assert spectral_calls["eigvalsh"] == 0
        first = validate(state)
        assert validate(state) is first is state.diagnostics
        assert spectral_calls == {"eigvalsh": 3, "matrix_rank": 0}
        assert first.ok and first.gram_rank == 2


class TestStackedChecks:
    """The checks over a (k, n, n) Gram stack with one shared rho, as the
    flip/decohere scan runs them."""

    @staticmethod
    def _stack():
        rng = np.random.default_rng(21)
        return np.eye(3, dtype=complex) / 3, np.array([random_gram(3, rng) for _ in range(7)])

    def test_residuals_equal_the_single_state_record(self):
        rho, grams = self._stack()
        grams[4] *= 1.1
        residuals = _run_checks(rho, grams)[0]
        for point, gram in enumerate(grams):
            state = InterferometerState(rho=rho, gram=gram, purity_flag=False)
            expected = [check.residual for check in validate(state).checks]
            np.testing.assert_array_equal(residuals[point], expected)

    def test_first_failing_point_is_named(self):
        rho, grams = self._stack()
        # Point 2 fails gram_psd; point 5 fails the earlier gram_unit_diagonal.
        grams[2] = [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]
        grams[5] = 1.5 * np.eye(3)
        for start in (0, 40):
            with pytest.raises(ValidationError) as info:
                _raise_first_failure(_run_checks(rho, grams)[0], start)
            assert info.value.check == "gram_psd"
            assert f"at grid point {start + 2}:" in str(info.value)

    def test_shared_rho_fails_at_the_first_point(self):
        rho, grams = self._stack()
        with pytest.raises(NormalizationError) as info:
            _raise_first_failure(_run_checks(0.9 * rho, grams)[0], 10)
        assert info.value.check == "rho_trace"
        assert "at grid point 10:" in str(info.value)
        assert info.value.residual == pytest.approx(0.1, abs=1e-12)


class TestRandomEnsembleProperties:
    def test_pure_states_are_rank_one(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            state = build_pure_state(random_amplitudes(n, rng),
                                     random_detectors(n, int(rng.integers(1, n + 2)), rng))
            eigs = np.linalg.eigvalsh(state.rho)
            assert abs(eigs[-1] - 1.0) <= 1e-10
            assert abs(np.trace(state.rho).real - 1.0) <= 1e-12
            assert state.purity_flag

    def test_grams_from_vectors_are_psd_unit_diagonal(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            gram = random_gram(n, rng, rank=int(rng.integers(1, n + 2)))
            assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-12
            assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_effective_density_psd_trace_one(self):
        # 1000 random states across n in {2..6}.
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            state = random_mixed_state(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            eff = effective_density(state)
            assert np.linalg.eigvalsh(0.5 * (eff + eff.conj().T))[0] >= -1e-10
            assert abs(np.trace(eff).real - 1.0) <= 1e-12
            assert np.max(np.abs(eff - eff.conj().T)) <= 1e-12
