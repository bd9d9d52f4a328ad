"""Construction, validation and diagnostics of quanton-detector states."""

import numpy as np
import pytest

from dualitylab import (
    DimensionError,
    InterferometerState,
    NormalizationError,
    UqsdProblem,
    ValidationError,
    build_mixed_state,
    build_pure_state,
    effective_density,
    validate,
)
from dualitylab.core_state import (
    _CHECKS,
    PSD_TOL,
    TRACE_TOL,
    _check,
    _check_formed,
    _failed,
    _raise_first_failure,
)
from dualitylab.pairwise import IDENTITY_TOL, SLACK_FLOOR, _check_pairs
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
        with pytest.raises(DimensionError) as info:
            build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1, 0)])
        assert info.value.check == "detector_dimension"

    def test_wrong_detector_count(self):
        with pytest.raises(DimensionError) as info:
            build_pure_state([ISQ2, ISQ2], [(1, 0)])
        assert info.value.check == "detector_count"

    def test_non_unit_detector(self):
        with pytest.raises(NormalizationError) as info:
            build_pure_state([ISQ2, ISQ2], [(1, 0), (0.5, 0.5)])
        assert info.value.check == "gram_unit_diagonal"

    def test_single_path_rejected(self):
        with pytest.raises(DimensionError) as info:
            build_pure_state([1.0], [(1, 0)])
        assert info.value.check == "path_count"

    @pytest.mark.parametrize("amplitudes,detectors,check", [
        ([0.7071067812] * 2, [(1, 0), (0.6, 0.8)], "rho_trace"),
        ([ISQ2] * 2, [(1 + 0.9e-12, 0), (0, 1)], "gram_unit_diagonal"),
    ])
    def test_rejects_what_the_mixed_builder_rejects(self, amplitudes, detectors, check):
        # Each state passed the amplitude or detector norm rule it replaced
        # and failed its own validate.
        c, d = np.asarray(amplitudes, dtype=complex), np.asarray(detectors, dtype=complex)
        with pytest.raises(ValidationError) as mixed:
            build_mixed_state(np.outer(c, c.conj()), d @ d.conj().T)
        with pytest.raises(ValidationError) as pure:
            build_pure_state(amplitudes, detectors)
        assert type(pure.value) is type(mixed.value) is NormalizationError
        assert pure.value.check == mixed.value.check == check
        assert str(pure.value) == str(mixed.value)
        assert pure.value.residual == mixed.value.residual

    def test_every_built_state_passes_validate(self):
        # Squared norms perturbed across the 1e-12 tolerances: a state is
        # either refused or passes every check it is later reported against.
        rng = np.random.default_rng(29)
        built = 0
        for _ in range(5000):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            c = random_amplitudes(n, rng) * np.sqrt(1 + rng.uniform(-2e-12, 2e-12))
            d = random_detectors(n, m, rng) * np.sqrt(1 + rng.uniform(-2e-12, 2e-12, (n, 1)))
            try:
                state = build_pure_state(c, d)
            except NormalizationError:
                continue
            built += 1
            assert validate(state).ok, validate(state).failed()
        assert 0 < built < 5000

    @pytest.mark.parametrize("amplitudes,detectors,error,check", [
        ([[ISQ2, ISQ2]], [(1, 0), (0, 1)], DimensionError, "vector"),
        ([ISQ2, ISQ2], [(1, 0), [(0, 1)]], DimensionError, "vector"),
        ([ISQ2, ISQ2], [(1, 0), (np.nan, 1)], ValidationError, "finite"),
        ([ISQ2, ISQ2], [[(1, 0), (1,)], (0, 1)], ValidationError, "array"),
        (["a", 0], [(1, 0), (0, 1)], ValidationError, "array"),
        ([10**400, 0], [(1, 0), (0, 1)], ValidationError, "array"),
    ])
    def test_rejection_names_its_check(self, amplitudes, detectors, error, check):
        with pytest.raises(ValidationError) as info:
            build_pure_state(amplitudes, detectors)
        assert type(info.value) is error
        assert info.value.check == check


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

    def test_single_path_rejected(self):
        with pytest.raises(DimensionError) as info:
            build_mixed_state([[1]], [[1]])
        assert info.value.check == "path_count"

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

        # Complex views pass through asarray uncopied, so a stored view
        # would follow later edits of the caller's array.
        base = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]], dtype=complex)
        d1, d2 = base
        problem = UqsdProblem(d1=d1, d2=d2, p1=0.5, p2=0.5)
        base[1] = [0.0, 1.0]
        np.testing.assert_array_equal(problem.d1, [1.0, 0.0])
        np.testing.assert_array_equal(problem.d2, [0.5, np.sqrt(3.0) / 2.0])
        assert abs(problem.overlap) == 0.5
        assert d1.flags.writeable and d2.flags.writeable
        with pytest.raises(ValueError):
            problem.d1[0] = 0.0  # read-only


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
        # rho, gram and the effective state, once each in one call.
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}
        assert validate(state) is state.diagnostics
        assert validate(state).ok
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}

    def test_built_pure_state_is_checked_once(self, spectral_calls):
        rng = np.random.default_rng(4)
        state = build_pure_state(random_amplitudes(3, rng), random_detectors(3, 2, rng))
        # Hermitian and PSD by construction: building decomposes nothing.
        assert spectral_calls == {"eigvalsh": 0, "matrix_rank": 0, "matrices": 0}
        assert validate(state) is state.diagnostics
        assert validate(state).ok
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}

    def test_hand_built_state_is_checked_on_first_read(self, spectral_calls):
        state = InterferometerState(rho=np.eye(2) / 2, gram=np.eye(2), purity_flag=False)
        assert spectral_calls["eigvalsh"] == 0
        first = validate(state)
        assert validate(state) is first is state.diagnostics
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}
        assert first.ok and first.gram_rank == 2

    @pytest.mark.parametrize("matrix", ["rho", "gram"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_non_finite_entry_fails_its_spectral_check(self, spectral_calls, matrix,
                                                       value, entry):
        # eigvalsh returns finite eigenvalues for a NaN matrix, so a spectral
        # check that trusted it would pass with residual 0.
        arrays = {"rho": np.full((2, 2), 0.5, dtype=complex),
                  "gram": np.eye(2, dtype=complex)}
        arrays[matrix][entry] = value
        diagnostics = validate(InterferometerState(purity_flag=False, **arrays))
        checks = {check.name: check for check in diagnostics.checks}
        assert not diagnostics.ok
        assert not checks[f"{matrix}_psd"].passed
        assert np.isnan(checks[f"{matrix}_psd"].residual)
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}


class TestFormedStateChecks:
    """The checks of a formed state, as build_pure_state and the
    flip/decohere scan run them, here over a (k, n, n) Gram stack."""

    def test_gram_stack_raises_its_first_failing_check(self):
        rng = np.random.default_rng(21)
        # Trace off by 0.9e-12: rho_trace passes, and so does a unit
        # diagonal off by as much, but their product's trace is off by twice.
        rho = np.full((3, 3), (1 + 0.9e-12) / 3, dtype=complex)
        grams = np.array([random_gram(3, rng) for _ in range(7)])
        _check_formed(rho, grams)
        grams[2][np.diag_indices(3)] = 1 + 0.9e-12
        grams[5][np.diag_indices(3)] = 1.5
        for stack, scale, check, residual in [
                (grams, 1.0, "gram_unit_diagonal", 0.5),
                (np.delete(grams, 5, axis=0), 1.0, "effective_trace", 1.8e-12),
                (grams, 0.9, "rho_trace", 0.1)]:
            with pytest.raises(NormalizationError) as info:
                _check_formed(scale * rho, stack)
            assert info.value.check == check
            assert info.value.residual == pytest.approx(residual, rel=1e-3)


def _rule_cases(tolerance):
    """(residual, passes) around one tolerance under the pass rule: a
    negative tolerance is a floor, any other a ceiling, NaN meets neither."""
    floor = tolerance < 0
    outward = -np.inf if floor else np.inf
    return [(tolerance, True),
            (float(np.nextafter(tolerance, outward)), False),
            (float(np.nextafter(tolerance, -outward)), True),
            (np.nan, False), (np.inf, floor), (-np.inf, not floor)]


def _passes(residual, tolerance):
    try:
        _check(residual, tolerance, "probe", str)
    except ValidationError:
        return False
    return True


def _pair_outcome(visibility, distinguishability, slack):
    """The check the pair pass raises for one pair (0, 1), or None; the
    same pair as the middle row (0, 2) of an array pass must fare alike."""
    values = [np.float64(value) for value in (visibility, distinguishability, slack)]
    good = (0.5, 0.5, 0.0)
    outcomes = []
    for pair, args in [("(0, 1)", (0, 1, *values)),
                       ("(0, 2)", (np.array([0, 0, 1]), np.array([1, 2, 2]),
                                   *(np.array([g, v, g]) for g, v in zip(good, values))))]:
        try:
            _check_pairs(*args)
            outcomes.append(None)
        except ValidationError as error:
            assert str(error).startswith(f"pair {pair}: ")
            outcomes.append(error.check)
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestPassRule:
    """One rule for every residual held against a tolerance: the helper, the
    state table and the pair pass decide each case alike."""

    @pytest.mark.parametrize("tolerance", [-PSD_TOL, TRACE_TOL, SLACK_FLOOR, IDENTITY_TOL])
    def test_helper_applies_the_rule(self, tolerance):
        for residual, passes in _rule_cases(tolerance):
            built = []

            def message():
                built.append(residual)
                return "text"

            if passes:
                _check(residual, tolerance, "probe", message)
                assert built == [], residual
                continue
            with pytest.raises(NormalizationError) as info:
                _check(residual, tolerance, "probe", message, NormalizationError)
            error = info.value
            assert (str(error), error.check, error.tolerance) == ("text", "probe", tolerance)
            np.testing.assert_array_equal(error.residual, residual)

    @pytest.mark.parametrize("check", ["rho_trace", "rho_psd"])
    def test_state_table_agrees(self, check):
        column = [name for name, _ in _CHECKS].index(check)
        tolerance = _CHECKS[column][1]
        for residual, passes in _rule_cases(tolerance):
            row = np.zeros(len(_CHECKS))
            row[column] = residual
            assert _failed(row).tolist() == [k == column and not passes
                                             for k in range(len(_CHECKS))], residual
            assert _passes(residual, tolerance) == passes
            if not passes:
                with pytest.raises(ValidationError) as info:
                    _raise_first_failure(row)
                assert info.value.check == check

    def test_pair_pass_agrees(self):
        # closure = V + D + slack - 1 near zero is a multiple of 2^-52, so the
        # identity is probed at the last closure inside IDENTITY_TOL and the
        # next one; V carries the closure with D = 1 and slack = 0.
        ulp = 2.0 ** -52
        inside = np.floor(IDENTITY_TOL / ulp) * ulp
        for closure, passes in [(inside, True), (inside + ulp, False),
                                (-inside, True), (-inside - ulp, False),
                                (np.nan, False), (np.inf, False), (-np.inf, False)]:
            assert _passes(abs(closure), IDENTITY_TOL) == passes
            expected = None if passes else "pair_identity"
            assert _pair_outcome(closure, 1.0, 0.0) == expected, closure
        # The slack with V = 1 and D = 0; a non-finite slack makes the closure
        # non-finite too, and the identity is checked first.
        for (slack, passes), identity in zip(_rule_cases(SLACK_FLOOR),
                                             [True, True, True, False, False, False]):
            assert _passes(slack, SLACK_FLOOR) == passes
            expected = ("pair_identity" if not identity
                        else None if passes else "pair_slack")
            assert _pair_outcome(1.0, 0.0, slack) == expected, slack


class TestHandBuiltShapes:
    """The record holds the one shape rule, so a state assembled by hand is
    one ``validate`` can always report on, and the builders raise the
    record's own error."""

    @pytest.mark.parametrize("rho,gram,check,message", [
        ((2, 2), (3, 3), "shared_dimension",
         "rho and gram must share dimensions, got (2, 2) vs (3, 3)"),
        ((2, 3), (2, 3), "square", "rho must be a square matrix, got shape (2, 3)"),
        ((2, 2), (2, 3), "square", "gram must be a square matrix, got shape (2, 3)"),
        ((2,), (2,), "square", "rho must be a square matrix, got shape (2,)"),
        ((), (), "square", "rho must be a square matrix, got shape ()"),
        ((0, 0), (0, 0), "path_count", "rho needs at least 2 paths, got 0"),
        ((2, 2), (1, 1), "path_count", "gram needs at least 2 paths, got 1"),
    ])
    def test_bad_shape_raises_the_builders_error(self, rho, gram, check, message):
        for build in (lambda r, g: InterferometerState(r, g, False), build_mixed_state):
            with pytest.raises(DimensionError) as info:
                build(np.zeros(rho), np.zeros(gram))
            assert (info.value.check, str(info.value)) == (check, message)

    def test_one_path_pure_state_raises_the_records_error(self):
        def raised(build):
            with pytest.raises(DimensionError) as info:
                build()
            return type(info.value), info.value.check, str(info.value)

        assert raised(lambda: build_pure_state([1.0], [(1, 0)])) == \
            raised(lambda: InterferometerState(np.ones((1, 1)), np.ones((1, 1)), True))


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
