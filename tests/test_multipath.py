"""n-path coherence/distinguishability, duality bound and pair aggregation."""

import math

import numpy as np
import pytest

from dualitylab import (
    DarkPairError,
    InterferometerState,
    ValidationError,
    build_mixed_state,
    build_pure_state,
    coherence,
    coherence_from_pair_visibilities,
    distinguishability,
    distinguishability_from_pairs,
    duality_report,
    is_symmetric,
    pair_distinguishability,
    pair_metrics,
    pair_visibility,
)
from dualitylab.multipath import DUALITY_TOL
from dualitylab.sampling import (
    random_amplitudes,
    random_detectors,
    random_gram,
    random_mixed_state,
    random_pure_state,
    random_symmetric_mixed_state,
    random_symmetric_pure_state,
)

from oracles import circulant_gram, pair_sum_lhs, random_circulant_gram

ISQ3 = 1.0 / np.sqrt(3.0)
TRINE_DETECTORS = [(1, 0), (0.5, np.sqrt(3) / 2), (0.5, -np.sqrt(3) / 2)]
STATE_KINDS = ("mixed", "pure", "symmetric", "dark_pair")


def state_of_kind(kind: str, n: int, rng) -> InterferometerState:
    """A random state of ``kind``; a dark_pair state (n >= 4) has paths 0
    and n - 1 blocked, so its one dark pair is (0, n - 1)."""
    if kind == "mixed":
        return random_mixed_state(n, rng)
    if kind == "pure":
        return random_pure_state(n, rng)
    if kind == "symmetric":
        return random_symmetric_mixed_state(n, rng)
    rho = np.zeros((n, n), dtype=complex)
    rho[1:-1, 1:-1] = random_mixed_state(n - 2, rng).rho
    return build_mixed_state(rho, random_gram(n, rng))


class TestDirectFormulas:
    def test_maximal_coherence(self):
        state = build_pure_state([0.5] * 4, [(1, 0)] * 4)
        assert coherence(state) == pytest.approx(1.0, abs=1e-12)
        assert distinguishability(state) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_detectors(self):
        state = build_pure_state([0.5] * 4, np.eye(4))
        assert coherence(state) == 0.0
        assert distinguishability(state) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap_three_paths(self):
        # (1/2) * 6 * (1/3) * 0.5 = 0.5 for both quantities.
        state = build_pure_state([ISQ3] * 3, TRINE_DETECTORS)
        assert coherence(state) == pytest.approx(0.5, abs=1e-12)
        assert distinguishability(state) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_margin_one(self):
        for n in range(2, 6):
            state = build_mixed_state(np.eye(n) / n, np.ones((n, n)))
            report = duality_report(state)
            assert report.coherence == pytest.approx(0.0, abs=1e-12)
            assert report.distinguishability == pytest.approx(0.0, abs=1e-12)
            assert report.duality_margin == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_pure_full_overlap(self):
        # C = sqrt(.15) + sqrt(.10) + sqrt(.06), frozen from the pair sums.
        expected = math.sqrt(0.15) + math.sqrt(0.10) + math.sqrt(0.06)
        state = build_pure_state(np.sqrt([0.5, 0.3, 0.2]), [(1, 0)] * 3)
        assert coherence(state) == pytest.approx(expected, abs=1e-12)
        assert distinguishability(state) == pytest.approx(1.0 - expected, abs=1e-12)


class TestAggregation:
    def test_symmetric_average_matches(self):
        state = build_pure_state([ISQ3] * 3, TRINE_DETECTORS)
        assert is_symmetric(state)
        assert coherence_from_pair_visibilities(state) == pytest.approx(
            coherence(state), abs=1e-12)
        assert distinguishability_from_pairs(state) == pytest.approx(
            distinguishability(state), abs=1e-12)

    def test_asymmetric_weighted_sum_matches(self):
        state = build_pure_state(np.sqrt([0.5, 0.3, 0.2]), [(1, 0)] * 3)
        assert not is_symmetric(state)
        # Independent evaluation of the weighted pair sum.
        by_hand = 0.0
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            weight = state.rho[i, i].real + state.rho[j, j].real
            by_hand += weight * pair_visibility(state, i, j)
        by_hand /= state.n - 1
        assert coherence_from_pair_visibilities(state) == pytest.approx(by_hand, abs=1e-15)
        assert by_hand == pytest.approx(coherence(state), abs=1e-10)

    def test_orthogonal_detectors_aggregate(self):
        state = build_pure_state([ISQ3] * 3, np.eye(3))
        assert coherence_from_pair_visibilities(state) == pytest.approx(0.0, abs=1e-12)
        assert distinguishability_from_pairs(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sampler,seed", [(random_mixed_state, 1001),
                                              (random_pure_state, 1002),
                                              (random_symmetric_mixed_state, 1003),
                                              (random_symmetric_pure_state, 1004)])
    def test_aggregation_identity_random(self, sampler, seed):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            n = int(rng.integers(2, 7))
            state = sampler(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            assert abs(coherence_from_pair_visibilities(state)
                       - coherence(state)) <= 1e-10
            assert abs(distinguishability_from_pairs(state)
                       - distinguishability(state)) <= 1e-10

    def test_symmetric_weighted_equals_plain_average(self):
        # With equal path probabilities every weight is 2/n, so the weighted
        # sum collapses to the plain pair average.
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            state = random_symmetric_mixed_state(n, rng)
            report = duality_report(state)
            assert report.is_symmetric
            assert report.symmetric_sum_lhs is not None
            assert report.symmetric_sum_lhs == pytest.approx(
                report.weighted_sum_lhs, abs=1e-10)


class TestDualityReport:
    def test_pure_state_margin_zero(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            report = duality_report(random_pure_state(n, rng))
            assert abs(report.duality_margin) <= 1e-10

    def test_orthogonal_detectors_margin_zero(self):
        state = build_pure_state([ISQ3] * 3, np.eye(3))
        report = duality_report(state)
        assert report.coherence == 0.0
        assert report.distinguishability == pytest.approx(1.0, abs=1e-12)
        assert report.duality_margin == pytest.approx(0.0, abs=1e-12)

    def test_report_carries_all_pairs(self):
        rng = np.random.default_rng(59)
        state = random_mixed_state(5, rng)
        report = duality_report(state)
        assert len(report.pairwise) == 10
        assert report.dark_pairs == ()
        assert [(m.i, m.j) for m in report.pairwise] == sorted(
            (i, j) for i in range(5) for j in range(i + 1, 5))

    def test_dark_pairs_reported_not_raised(self):
        state = build_mixed_state(np.diag([0.0, 0.0, 1.0]), np.ones((3, 3)))
        report = duality_report(state)
        assert report.dark_pairs == ((0, 1),)
        assert len(report.pairwise) == 2
        assert report.symmetric_sum_lhs is None

    def test_report_decomposes_nothing(self, spectral_calls):
        # The rank and the PSD checks live in the state's diagnostics.
        state = random_mixed_state(6, np.random.default_rng(61), gram_rank=2)
        spectral_calls.update(eigvalsh=0, matrix_rank=0, matrices=0)
        duality_report(state)
        assert spectral_calls == {"eigvalsh": 0, "matrix_rank": 0, "matrices": 0}

    def test_symmetric_sum_only_for_symmetric_states(self):
        state = build_pure_state(np.sqrt([0.5, 0.3, 0.2]), [(1, 0)] * 3)
        report = duality_report(state)
        assert not report.is_symmetric
        assert report.symmetric_sum_lhs is None
        assert report.weighted_sum_lhs == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("sampler,seed", [(random_mixed_state, 1101),
                                              (random_pure_state, 1102),
                                              (random_symmetric_mixed_state, 1103)])
    def test_rows_equal_pair_metrics(self, sampler, seed):
        rng = np.random.default_rng(seed)
        states = [sampler(int(rng.integers(2, 9)), rng) for _ in range(30)]
        states.append(build_mixed_state(np.diag([0.0, 0.5, 0.0, 0.5]), np.ones((4, 4))))
        for state in states:
            report = duality_report(state)
            for row in report.pairwise:
                single = pair_metrics(state, row.i, row.j)
                for name in ("visibility", "distinguishability", "slack", "pair_weight"):
                    assert abs(getattr(row, name) - getattr(single, name)) <= 1e-15
            for i, j in report.dark_pairs:
                with pytest.raises(DarkPairError):
                    pair_metrics(state, i, j)
            n = state.n
            assert len(report.pairwise) + len(report.dark_pairs) == n * (n - 1) // 2

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_rows_hold_python_numbers(self, kind):
        # The CLI's json.dumps rejects numpy integers.
        rng = np.random.default_rng(1201)
        for n in (4, 5, 9):
            report = duality_report(state_of_kind(kind, n, rng))
            assert report.dark_pairs == (((0, n - 1),) if kind == "dark_pair" else ())
            for row in report.pairwise:
                assert [type(value) for value in row] == [int, int] + [float] * 4
            for pair in report.dark_pairs:
                assert [type(value) for value in pair] == [int, int]

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_pair_sums_equal_the_one_pair_oracle(self, kind):
        rng = np.random.default_rng(1202)
        for n in (4, 5, 9, 16):
            state = state_of_kind(kind, n, rng)
            report = duality_report(state)
            assert report.is_symmetric == (kind == "symmetric")
            rows = []
            for i in range(n):
                for j in range(i + 1, n):
                    try:
                        rows.append(pair_metrics(state, i, j))
                    except DarkPairError:
                        pass
            symmetric_sum, weighted_sum = pair_sum_lhs(rows, n)
            assert report.weighted_sum_lhs == weighted_sum
            assert report.symmetric_sum_lhs == (symmetric_sum if report.is_symmetric
                                                else None)

    def test_negative_slack_is_rejected(self):
        # |rho_01| = 1/2 exceeds sqrt(rho_00 rho_11) = 1/3: a non-PSD minor
        # that only a hand-built state can carry past validation.
        rho = np.diag([1.0 / 3.0] * 3).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.5
        state = InterferometerState(rho=rho, gram=np.ones((3, 3)), purity_flag=False)
        with pytest.raises(ValidationError) as info:
            duality_report(state)
        assert info.value.check == "pair_slack"
        assert "pair (0, 1)" in str(info.value)


    @pytest.mark.parametrize("matrix", ["rho", "gram"])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_nan_entry_fails_the_duality_bound(self, matrix, entry):
        off_diagonal = 1.0 - np.eye(3)
        arrays = {"rho": (np.eye(3) / 3 + 0.1 * off_diagonal).astype(complex),
                  "gram": (np.eye(3) + 0.5 * off_diagonal).astype(complex)}
        arrays[matrix][entry] = np.nan
        state = InterferometerState(purity_flag=False, **arrays)
        with pytest.raises(ValidationError) as info:
            duality_report(state)
        assert info.value.check == "duality_bound"
        assert str(info.value) == "coherence + distinguishability exceeds 1 by nan"
        assert np.isnan(info.value.residual)

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_entries_fail_the_duality_bound_without_a_warning(self, n):
        # Every direct sum overflows to inf - inf = NaN; the suite raises any
        # RuntimeWarning on the way.
        state = InterferometerState(rho=np.full((n, n), 1e308), gram=np.ones((n, n)),
                                    purity_flag=False)
        with pytest.raises(ValidationError) as info:
            duality_report(state)
        assert info.value.check == "duality_bound"
        assert np.isnan(info.value.residual)

    def test_duality_bound_is_a_floor(self):
        # C = 1.2 and D_Q = 0 from a non-PSD rho with a full-overlap Gram.
        state = InterferometerState(rho=np.array([[0.5, 0.6], [0.6, 0.5]]),
                                    gram=np.ones((2, 2)), purity_flag=False)
        with pytest.raises(ValidationError) as info:
            duality_report(state)
        assert str(info.value) == "coherence + distinguishability exceeds 1 by 0.20000000000000018"
        assert info.value.residual == pytest.approx(-0.2, abs=1e-15)
        assert info.value.tolerance == -DUALITY_TOL


class TestCirculantOracle:
    """D_Q against the optimal unambiguous discrimination of n symmetric
    detector states with equal priors, lambda_min(Gamma) (Chefles and
    Barnett, Phys. Lett. A 250, 223 (1998)); D_Q is an upper bound on it
    (Zhang, Feng, Sun and Ying, Phys. Rev. A 64, 062103 (2001))."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_d_q_bounds_the_optimum(self, n):
        rng = np.random.default_rng(3200 + n)
        for _ in range(300):
            gram, eigenvalues = random_circulant_gram(n, rng)
            d_q = distinguishability(build_mixed_state(np.eye(n) / n, gram))
            assert eigenvalues.min() <= d_q + 1e-12
            if n == 2:
                assert abs(eigenvalues.min() - d_q) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_equal_real_overlaps_attain_the_optimum(self, n):
        for s in np.linspace(0.0, 1.0, 21):
            gram = circulant_gram([1.0 + (n - 1) * s] + [1.0 - s] * (n - 1))
            np.testing.assert_allclose(gram, (1.0 - s) * np.eye(n) + s, atol=1e-15)
            d_q = distinguishability(build_mixed_state(np.eye(n) / n, gram))
            assert abs(d_q - (1.0 - s)) <= 1e-12, s


class TestInvarianceProperties:
    def test_phase_flip_leaves_everything_unchanged(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            amplitudes = random_amplitudes(n, rng)
            detectors = random_detectors(n, n, rng)
            base = build_pure_state(amplitudes, detectors)
            flipped_amplitudes = amplitudes.copy()
            k = int(rng.integers(0, n))
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) if rng.random() < 0.5 else -1.0
            flipped_amplitudes[k] *= phase
            flipped = build_pure_state(flipped_amplitudes, detectors)
            assert coherence(flipped) == pytest.approx(coherence(base), abs=1e-12)
            assert distinguishability(flipped) == pytest.approx(
                distinguishability(base), abs=1e-12)
            for i in range(n):
                for j in range(i + 1, n):
                    assert pair_visibility(flipped, i, j) == pytest.approx(
                        pair_visibility(base, i, j), abs=1e-12)
                    assert pair_distinguishability(flipped, i, j) == pytest.approx(
                        pair_distinguishability(base, i, j), abs=1e-12)

    def test_overlap_scaling_monotonicity(self):
        # Shrinking every off-diagonal overlap by t in [0, 1] removes
        # which-path overlap, so C grows with t and D_Q falls with t.
        rng = np.random.default_rng(73)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rho = random_mixed_state(n, rng).rho
            gram = random_gram(n, rng)
            grid = np.linspace(0.0, 1.0, 9)
            coh_values, dist_values = [], []
            for t in grid:
                gram_t = t * gram + (1.0 - t) * np.eye(n)
                state = build_mixed_state(rho, gram_t)
                coh_values.append(coherence(state))
                dist_values.append(distinguishability(state))
            assert np.all(np.diff(coh_values) >= -1e-12)
            assert np.all(np.diff(dist_values) <= 1e-12)

    def test_duality_bound_random(self):
        rng = np.random.default_rng(79)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            state = random_mixed_state(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            assert coherence(state) + distinguishability(state) <= 1.0 + 1e-10
