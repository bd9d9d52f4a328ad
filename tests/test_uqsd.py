"""Optimal two-state unambiguous discrimination: POVM and Monte Carlo."""

import numpy as np
import pytest

from dualitylab import (
    DimensionError,
    NormalizationError,
    RegimeError,
    UqsdPovm,
    UqsdProblem,
    ValidationError,
    build_mixed_state,
    build_povm,
    build_pure_state,
    pair_distinguishability,
    simulate,
    success_probability,
)
from dualitylab.sampling import random_detectors
from dualitylab.uqsd import MAX_TRIALS, _born_probabilities

D60 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)  # overlap 1/2 with e1
E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def random_problem(rng, dim=None):
    """Random problem drawn inside the optimal regime."""
    dim = dim if dim is not None else int(rng.integers(2, 5))
    while True:
        d1, d2 = random_detectors(2, dim, rng)
        s = abs(np.vdot(d1, d2))
        if s >= 1.0 - 1e-6:
            continue
        # Priors compatible with the optimal regime: s <= sqrt(p_min/p_max).
        lo = s * s / (1.0 + s * s)
        p1 = float(rng.uniform(lo, 1.0 - lo))
        problem = UqsdProblem(d1=d1, d2=d2, p1=p1, p2=1.0 - p1)
        if success_probability(p1, 1.0 - p1, s).in_optimal_regime:
            return problem


class TestSuccessProbability:
    def test_orthogonal_states(self):
        result = success_probability(0.3, 0.7, 0.0)
        assert result.value == 1.0
        assert result.in_optimal_regime

    def test_identical_states_equal_priors(self):
        result = success_probability(0.5, 0.5, 1.0)
        assert result.value == pytest.approx(0.0, abs=1e-15)
        assert result.in_optimal_regime

    def test_half_overlap_equal_priors(self):
        result = success_probability(0.5, 0.5, 0.5)
        assert result.value == pytest.approx(0.5, abs=1e-15)
        assert result.in_optimal_regime

    def test_regime_flag_for_skewed_priors(self):
        # Threshold is sqrt(p2/p1) = 1/3 for p1 = 0.9.
        assert success_probability(0.9, 0.1, 0.3).in_optimal_regime
        assert not success_probability(0.9, 0.1, 0.4).in_optimal_regime

    def test_zero_prior(self):
        assert success_probability(0.0, 1.0, 0.0).in_optimal_regime
        assert not success_probability(0.0, 1.0, 0.5).in_optimal_regime

    def test_bad_priors(self):
        with pytest.raises(NormalizationError) as info:
            success_probability(0.5, 0.6, 0.1)
        assert info.value.check == "prior_sum"
        # These sum to 1, so only the range rule fails.
        with pytest.raises(ValidationError) as info:
            success_probability(1.2, -0.2, 0.1)
        assert type(info.value) is ValidationError
        assert info.value.check == "prior_range"
        with pytest.raises(ValidationError) as info:
            success_probability(0.5, 0.5, 1.5)
        assert info.value.check == "overlap_range"
        # Each prior and the overlap is one real number, or the error names it.
        for args, name in [(("a", 0.5, 0.3), "p1"), ((0.5, [0.5], 0.3), "p2"),
                           ((0.5j, 0.5, 0.3), "p1"), ((0.5, 0.5, 10**400), "overlap_magnitude"),
                           ((0.5, 0.5, [0.3]), "overlap_magnitude")]:
            with pytest.raises(ValidationError, match=rf"^{name}\b") as info:
                success_probability(*args)
            assert type(info.value) is ValidationError
            assert info.value.check == "array"


class TestProblemValidation:
    def test_identical_states_rejected(self):
        with pytest.raises(ValidationError) as info:
            UqsdProblem(d1=E1, d2=E1, p1=0.5, p2=0.5)
        assert info.value.check == "overlap_strict"

    def test_non_unit_state(self):
        with pytest.raises(NormalizationError) as info:
            UqsdProblem(d1=np.array([0.5, 0.5]), d2=E2, p1=0.5, p2=0.5)
        assert info.value.check == "gram_unit_diagonal"

    def test_dimension_mismatch(self):
        # d1 and d2 are converted as one array, so unequal lengths cannot be.
        with pytest.raises(ValidationError) as info:
            UqsdProblem(d1=E1, d2=np.array([0, 0, 1.0]), p1=0.5, p2=0.5)
        assert type(info.value) is ValidationError
        assert info.value.check == "array"
        assert str(info.value).startswith("d1 and d2 ")

    def test_dimension_is_checked_before_norm(self):
        with pytest.raises(ValidationError) as info:
            UqsdProblem(d1=np.array([0.5, 0.5]), d2=np.array([0, 0, 1.0]), p1=0.5, p2=0.5)
        assert type(info.value) is ValidationError
        assert info.value.check == "array"

    def test_prior_sum(self):
        with pytest.raises(NormalizationError) as info:
            UqsdProblem(d1=E1, d2=E2, p1=0.5, p2=0.6)
        assert info.value.check == "prior_sum"

    @pytest.mark.parametrize("changes,error,check", [
        ({"d1": [[1, 0]]}, ValidationError, "array"),
        ({"d2": [np.nan, 1]}, ValidationError, "finite"),
        ({"d1": iter([1, 0])}, ValidationError, "array"),
        ({"d1": [], "d2": []}, DimensionError, "vector"),
        ({"d1": [[1, 0]], "d2": [[0, 1]]}, DimensionError, "vector"),
        ({"d1": np.array([np.nan, 1])}, ValidationError, "finite"),
        ({"d1": [[1, 0], [1]]}, ValidationError, "array"),
        ({"d1": ["a", 0]}, ValidationError, "array"),
        # These sum to 1, so only the range rule fails.
        ({"p1": 1.2, "p2": -0.2}, ValidationError, "prior_range"),
        # A prior is one real number, converted as the records convert.
        ({"p1": "a"}, ValidationError, "array"),
        ({"p1": [0.5]}, ValidationError, "array"),
        ({"p1": 0.5j}, ValidationError, "array"),
        ({"p1": np.complex128(0.5 + 0.5j)}, ValidationError, "array"),
        ({"p2": 10**400}, ValidationError, "array"),
    ])
    def test_rejection_names_its_check(self, changes, error, check):
        with pytest.raises(ValidationError) as info:
            UqsdProblem(**{"d1": E1, "d2": E2, "p1": 0.5, "p2": 0.5, **changes})
        assert type(info.value) is error
        assert info.value.check == check

    def test_priors_are_stored_as_the_floats_checked(self):
        problem = UqsdProblem(d1=E1, d2=E2, p1=1, p2=np.float32(0.0))
        assert [(type(p), p) for p in (problem.p1, problem.p2)] == [(float, 1.0), (float, 0.0)]


class TestPureStateDetectorRule:
    """A problem's d1 and d2 are the detectors of a two-path pure state and
    meet that state's rule: same verdict, same check."""

    @staticmethod
    def _verdicts(d1, d2):
        verdicts = []
        for build in (lambda: UqsdProblem(d1, d2, 0.5, 0.5),
                      lambda: build_pure_state([2**-0.5] * 2, [d1, d2])):
            try:
                build()
            except ValidationError as error:
                verdicts.append((type(error), error.check))
            else:
                verdicts.append(None)
        return verdicts

    def test_squared_norm_is_held_like_a_pure_states(self):
        d1, d2 = [1 + 0.9e-12, 0], [0, 1]
        assert self._verdicts(d1, d2) == [(NormalizationError, "gram_unit_diagonal")] * 2

    def test_seeded_pairs_get_one_verdict(self):
        # Squared norms perturbed across the 1e-12 tolerance.
        rng = np.random.default_rng(31)
        accepted = 0
        for _ in range(20_000):
            d1, d2 = random_detectors(2, int(rng.integers(2, 5)), rng) \
                * np.sqrt(1 + rng.uniform(-2e-12, 2e-12, (2, 1)))
            problem, pure = self._verdicts(d1, d2)
            assert problem == pure, (d1, d2)
            accepted += problem is None
        assert 0 < accepted < 20_000


class TestBuildPovm:
    def test_orthogonal_states_give_projectors(self):
        problem = UqsdProblem(d1=E1, d2=E2, p1=0.4, p2=0.6)
        povm = build_povm(problem)
        np.testing.assert_allclose(povm.e1, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(povm.e2, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(povm.e_fail, np.zeros((2, 2)), atol=1e-12)

    def test_sixty_degree_equal_priors(self):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        coords_d2 = povm.basis.conj() @ problem.d2
        coords_d1 = povm.basis.conj() @ problem.d1
        # Unambiguity: no probability of calling d2 "state 1" and vice versa.
        assert abs(np.vdot(coords_d2, povm.e1 @ coords_d2).real) <= 1e-12
        assert abs(np.vdot(coords_d1, povm.e2 @ coords_d1).real) <= 1e-12
        success = 0.5 * np.vdot(coords_d1, povm.e1 @ coords_d1).real \
            + 0.5 * np.vdot(coords_d2, povm.e2 @ coords_d2).real
        assert success == pytest.approx(0.5, abs=1e-12)

    def test_near_identical_states_mostly_fail(self):
        overlap = 1.0 - 1e-6
        d2 = np.array([overlap, np.sqrt(1.0 - overlap ** 2)], dtype=complex)
        problem = UqsdProblem(d1=E1, d2=d2, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        coords_d1 = povm.basis.conj() @ problem.d1
        coords_d2 = povm.basis.conj() @ problem.d2
        success_1 = np.vdot(coords_d1, povm.e1 @ coords_d1).real
        success_2 = np.vdot(coords_d2, povm.e2 @ coords_d2).real
        fail_1 = np.vdot(coords_d1, povm.e_fail @ coords_d1).real
        assert success_1 == pytest.approx(0.0, abs=2e-6)
        assert success_2 == pytest.approx(0.0, abs=2e-6)
        assert fail_1 == pytest.approx(1.0, abs=2e-6)

    @pytest.mark.parametrize("k", range(5, 12))
    @pytest.mark.parametrize("where", [None, 0.1, 0.9], ids=["equal", "near_edge", "skewed"])
    def test_nearly_identical_states(self, k, where):
        # 1 - s * s and 1 - sqrt(p2/p1) s cancel as s -> 1; a POVM element
        # then read as negative and failed povm_psd.  ``where`` places p1
        # between the regime's edge (0) and equal priors (1); None is 1/2.
        s = 1.0 - 10.0 ** -k
        low = s * s / (1.0 + s * s)
        p1 = 0.5 if where is None else low + (0.5 - low) * where
        problem = UqsdProblem(d1=E1, d2=np.array([s, np.sqrt(1.0 - s * s)]),
                              p1=p1, p2=1.0 - p1)
        povm = build_povm(problem)
        for element in (povm.e1, povm.e2, povm.e_fail):
            assert np.linalg.eigvalsh(element)[0] >= -1e-14
        probs = _born_probabilities(problem, povm)
        assert probs[0, 1] == probs[1, 0] == 0.0
        success = p1 * probs[0, 0] + (1.0 - p1) * probs[1, 1]
        assert success == pytest.approx(1.0 - 2.0 * np.sqrt(p1 * (1.0 - p1)) * s, abs=1e-12)
        if where is None:
            # Each state is identified with probability 1 - s.
            assert probs[0, 0] == pytest.approx(1.0 - s, rel=1e-6)
            assert probs[1, 1] == pytest.approx(1.0 - s, rel=1e-6)

    def test_out_of_regime_raises(self):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.95, p2=0.05)
        assert not success_probability(0.95, 0.05, 0.5).in_optimal_regime
        with pytest.raises(RegimeError):
            build_povm(problem)

    def test_one_spectral_call(self, spectral_calls):
        build_povm(UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5))
        assert spectral_calls == {"eigvalsh": 1, "matrix_rank": 0, "matrices": 3}

    def test_nan_element_fails_povm_psd(self, monkeypatch):
        # No valid problem gives a NaN element, so E_fail = I - E1 - E2 is
        # given a NaN identity.
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        monkeypatch.setattr(np, "eye", lambda *args, **kwargs: np.full((2, 2), np.nan, complex))
        with pytest.raises(ValidationError) as info:
            build_povm(problem)
        assert info.value.check == "povm_psd"
        assert str(info.value) == "POVM element e_fail has eigenvalue nan"
        assert np.isnan(info.value.residual)

    def test_povm_invariants_random(self):
        rng = np.random.default_rng(401)
        identity = np.eye(2)
        for _ in range(300):
            problem = random_problem(rng)
            povm = build_povm(problem)
            total = povm.e1 + povm.e2 + povm.e_fail
            assert np.max(np.abs(total - identity)) <= 1e-10
            for element in (povm.e1, povm.e2, povm.e_fail):
                assert np.linalg.eigvalsh(element)[0] >= -1e-10
            coords_d1 = povm.basis.conj() @ problem.d1
            coords_d2 = povm.basis.conj() @ problem.d2
            assert abs(np.vdot(coords_d2, povm.e1 @ coords_d2).real) <= 1e-10
            assert abs(np.vdot(coords_d1, povm.e2 @ coords_d1).real) <= 1e-10


class TestSimulate:
    def test_orthogonal_states_never_fail(self):
        problem = UqsdProblem(d1=E1, d2=E2, p1=0.5, p2=0.5)
        result = simulate(problem, build_povm(problem), 10_000, seed=1)
        assert result.freq_wrong == 0.0
        assert result.freq_fail == 0.0
        assert result.success_frequency == 1.0

    def test_sixty_degree_matches_analytic(self):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        result = simulate(problem, build_povm(problem), 1_000_000, seed=42)
        # 4 sigma binomial band around 0.5 at 1e6 trials is 0.002.
        assert result.success_frequency == pytest.approx(0.5, abs=0.002)
        assert result.freq_wrong == 0.0

    def test_deterministic_per_seed(self):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        a = simulate(problem, povm, 50_000, seed=7)
        b = simulate(problem, povm, 50_000, seed=7)
        c = simulate(problem, povm, 50_000, seed=8)
        assert (a.freq_correct_1, a.freq_correct_2, a.freq_fail) == \
            (b.freq_correct_1, b.freq_correct_2, b.freq_fail)
        assert (a.freq_correct_1, a.freq_correct_2) != (c.freq_correct_1, c.freq_correct_2)

    def test_wrong_is_structurally_zero(self):
        rng = np.random.default_rng(431)
        for _ in range(25):
            problem = random_problem(rng)
            result = simulate(problem, build_povm(problem), 20_000,
                              seed=int(rng.integers(0, 2**32)))
            assert result.freq_wrong == 0.0

    def test_povm_of_another_problem_rejected(self):
        other = build_povm(UqsdProblem(d1=E1, d2=E2, p1=0.5, p2=0.5))
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        with pytest.raises(ValidationError) as info:
            simulate(problem, other, 100_000, 1)
        assert info.value.check == "born_unambiguity"

    @pytest.mark.parametrize("field", ["e1", "e2", "e_fail", "basis"])
    def test_nan_povm_entry_rejected(self, field):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        fields = {name: np.array(getattr(povm, name))
                  for name in ("e1", "e2", "e_fail", "basis")}
        fields[field][0, 0] = np.nan
        with pytest.raises(ValidationError) as info:
            simulate(problem, UqsdPovm(**fields), 1000, seed=1)
        assert info.value.check == "born_probability"
        assert np.isnan(info.value.residual)

    def test_incomplete_povm_carries_its_residual(self):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        doubled = UqsdPovm(e1=povm.e1, e2=povm.e2, e_fail=2 * povm.e_fail, basis=povm.basis)
        with pytest.raises(ValidationError) as info:
            simulate(problem, doubled, 1000, seed=1)
        assert info.value.check == "born_completeness"
        assert str(info.value).startswith("Born probabilities sum to array([")
        # Each state fails with probability 1/2, now counted twice.
        assert info.value.residual == pytest.approx(0.5, abs=1e-12)
        assert info.value.tolerance == 1e-10

    def test_zero_trials_rejected(self):
        problem = UqsdProblem(d1=E1, d2=E2, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        with pytest.raises(ValueError):
            simulate(problem, povm, 0, seed=1)
        with pytest.raises(ValueError):
            simulate(problem, povm, -5, seed=1)

    @pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
    def test_invalid_seed_rejected(self, seed):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        with pytest.raises(ValueError, match="seed"):
            simulate(problem, build_povm(problem), 1000, seed=seed)

    def test_trials_bounded_by_int64(self):
        problem = UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5)
        povm = build_povm(problem)
        result = simulate(problem, povm, MAX_TRIALS, seed=3)
        assert result.trials == 2**63 - 1 and result.freq_wrong == 0.0
        assert result.success_frequency == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(ValueError):
            simulate(problem, povm, MAX_TRIALS + 1, seed=3)


def reference_draw(problem, povm, trials, seed):
    """Counts drawn one call per state: the d1 count, then (E1, E2, fail) on
    d1 and on d2."""
    probs = _born_probabilities(problem, povm)
    rng = np.random.default_rng(seed)
    on_d1 = int(rng.binomial(trials, problem.p1))
    return [rng.multinomial(count, row).tolist()
            for count, row in zip((on_d1, trials - on_d1), probs)]


@pytest.mark.parametrize("trials", [1, 10, 10**6, MAX_TRIALS])
def test_sampler_matches_one_draw_per_state(trials):
    rng = np.random.default_rng(437)
    problems = [UqsdProblem(d1=E1, d2=D60, p1=0.5, p2=0.5),
                UqsdProblem(d1=E1, d2=E2, p1=0.3, p2=0.7),
                *(random_problem(rng) for _ in range(3))]
    for problem in problems:
        povm = build_povm(problem)
        for seed in range(200):
            (right_1, wrong_1, fail_1), (wrong_2, right_2, fail_2) = \
                reference_draw(problem, povm, trials, seed)
            result = simulate(problem, povm, trials, seed)
            assert (result.freq_correct_1, result.freq_correct_2, result.freq_fail,
                    result.freq_wrong) == (right_1 / trials, right_2 / trials,
                                           (fail_1 + fail_2) / trials,
                                           (wrong_1 + wrong_2) / trials)


class TestConsistencyWithPairMetrics:
    def test_success_probability_equals_pair_distinguishability(self):
        rng = np.random.default_rng(433)
        for _ in range(200):
            d1, d2 = random_detectors(2, 3, rng)
            w1 = float(rng.uniform(0.05, 0.95))
            probs = np.array([w1, 1.0 - w1])
            amplitudes = np.sqrt(probs)
            state = build_mixed_state(
                np.outer(amplitudes, amplitudes),
                np.array([[1.0, np.vdot(d2, d1)], [np.vdot(d1, d2), 1.0]]))
            expected = success_probability(w1, 1.0 - w1, abs(np.vdot(d1, d2))).value
            assert abs(pair_distinguishability(state, 0, 1) - expected) <= 1e-12
