"""Two-path visibility, distinguishability and the closure identity."""

import numpy as np
import pytest

from dualitylab import (
    DarkPairError,
    InterferometerState,
    PairMetrics,
    ValidationError,
    build_mixed_state,
    build_pure_state,
    duality_report,
    open_pair,
    pair_distinguishability,
    pair_metrics,
    pair_visibility,
    validate,
)
from dualitylab.pairwise import _pair_indices
from dualitylab.sampling import random_mixed_state, random_pure_state

ISQ2 = 1.0 / np.sqrt(2.0)
ISQ3 = 1.0 / np.sqrt(3.0)


def symmetric_three_path(gamma_offdiag=1.0):
    gram = np.full((3, 3), gamma_offdiag, dtype=complex)
    np.fill_diagonal(gram, 1.0)
    rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    return build_mixed_state(rho, gram)


class TestOpenPair:
    def test_symmetric_fully_coherent(self):
        state = symmetric_three_path(1.0)
        np.testing.assert_allclose(open_pair(state, 0, 1),
                                   np.full((2, 2), 0.5), atol=1e-12)

    def test_decohered_pair(self):
        # Realize gram_01 = 0 with actual detector vectors; an all-ones Gram
        # matrix with a single zeroed pair would not be PSD.
        detectors = [(1, 0), (0, 1), (ISQ2, ISQ2)]
        state = build_pure_state([ISQ3] * 3, detectors)
        assert abs(state.gram[0, 1]) == 0.0
        np.testing.assert_allclose(open_pair(state, 0, 1),
                                   np.diag([0.5, 0.5]), atol=1e-12)

    def test_asymmetric_pure_pair(self):
        # rho_00 = 0.8 k, rho_11 = 0.2 k with k = 0.5; renormalization kills k,
        # leaving [[0.8, 0.4], [0.4, 0.2]] by hand evaluation.
        k = 0.5
        amplitudes = np.sqrt([0.8 * k, 0.2 * k, 1.0 - k])
        state = build_pure_state(amplitudes, [(1, 0)] * 3)
        np.testing.assert_allclose(open_pair(state, 0, 1),
                                   [[0.8, 0.4], [0.4, 0.2]], atol=1e-12)

    def test_reduced_is_normalized_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            state = random_mixed_state(n, rng)
            i, j = rng.choice(n, size=2, replace=False)
            reduced = open_pair(state, int(i), int(j))
            assert abs(np.trace(reduced).real - 1.0) <= 1e-12
            assert np.max(np.abs(reduced - reduced.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(reduced)[0] >= -1e-10


class TestPairVisibility:
    def test_full_coherence(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        assert pair_visibility(state, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_detectors(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1)])
        assert pair_visibility(state, 0, 1) == 0.0

    def test_half_overlap(self):
        # 2 * (1/3) * 0.5 / (2/3) = 0.5
        detectors = [(1, 0), (0.5, np.sqrt(3) / 2), (0.5, -np.sqrt(3) / 2)]
        state = build_pure_state([ISQ3] * 3, detectors)
        assert pair_visibility(state, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_unbalanced_pure(self):
        # 2 sqrt(0.8 * 0.2) = 0.8
        state = build_pure_state(np.sqrt([0.8, 0.2]), [(1, 0), (1, 0)])
        assert pair_visibility(state, 0, 1) == pytest.approx(0.8, abs=1e-12)


class TestPairDistinguishability:
    def test_orthogonal_detectors(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (0, 1)])
        assert pair_distinguishability(state, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_equal_pair_full_overlap(self):
        state = build_pure_state([ISQ2, ISQ2], [(1, 0), (1, 0)])
        assert pair_distinguishability(state, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_pure(self):
        # 1 - 2 sqrt(0.16) = 0.2
        state = build_pure_state(np.sqrt([0.8, 0.2]), [(1, 0), (1, 0)])
        assert pair_distinguishability(state, 0, 1) == pytest.approx(0.2, abs=1e-12)


class TestPairMetrics:
    def test_pure_state_saturates(self):
        rng = np.random.default_rng(17)
        state = random_pure_state(4, rng)
        for i in range(4):
            for j in range(i + 1, 4):
                m = pair_metrics(state, i, j)
                assert abs(m.slack) <= 1e-10
                assert m.visibility + m.distinguishability == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_with_partial_overlap(self):
        # V = 0, D = 1 - 0.7 = 0.3, slack = 0.7 by hand.
        state = build_mixed_state(np.eye(2) / 2, [[1.0, 0.7], [0.7, 1.0]])
        m = pair_metrics(state, 0, 1)
        assert m.visibility == pytest.approx(0.0, abs=1e-12)
        assert m.distinguishability == pytest.approx(0.3, abs=1e-12)
        assert m.slack == pytest.approx(0.7, abs=1e-12)
        assert m.pair_weight == pytest.approx(1.0, abs=1e-12)

    def test_decohered_pair(self):
        state = build_mixed_state(np.eye(2) / 2, np.eye(2))
        m = pair_metrics(state, 0, 1)
        assert m.visibility == 0.0
        assert m.distinguishability == pytest.approx(1.0, abs=1e-12)
        assert m.slack == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_in_indices(self):
        rng = np.random.default_rng(23)
        state = random_mixed_state(5, rng)
        a = pair_metrics(state, 1, 3)
        b = pair_metrics(state, 3, 1)
        assert a.visibility == pytest.approx(b.visibility, abs=1e-15)
        assert a.distinguishability == pytest.approx(b.distinguishability, abs=1e-15)
        assert a.slack == pytest.approx(b.slack, abs=1e-15)
        assert a.pair_weight == pytest.approx(b.pair_weight, abs=1e-15)


    @pytest.mark.parametrize("matrix,entry", [("rho", (0, 0)), ("rho", (1, 1)),
                                              ("rho", (0, 1)), ("gram", (0, 1))])
    def test_nan_entry_fails_the_identity(self, matrix, entry):
        off_diagonal = 1.0 - np.eye(3)
        arrays = {"rho": (np.eye(3) / 3 + 0.1 * off_diagonal).astype(complex),
                  "gram": (np.eye(3) + 0.5 * off_diagonal).astype(complex)}
        arrays[matrix][entry] = np.nan
        state = InterferometerState(purity_flag=False, **arrays)
        with pytest.raises(ValidationError) as info:
            pair_metrics(state, 0, 1)
        assert info.value.check == "pair_identity"
        assert str(info.value) == "pair (0, 1): V + D + slack deviates from 1 by nan"
        assert np.isnan(info.value.residual)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("overlap", [0.5, 0.0])
    def test_inf_entry_fails_the_identity_without_a_warning(self, n, overlap):
        # V and slack are inf and -inf (or NaN, against a zero overlap), so
        # the closure is NaN; the suite raises any RuntimeWarning on the way.
        off_diagonal = 1.0 - np.eye(n)
        rho = (np.eye(n) / n + 0.1 * off_diagonal).astype(complex)
        rho[0, 1] = np.inf
        gram = (np.eye(n) + overlap * off_diagonal).astype(complex)
        state = InterferometerState(rho=rho, gram=gram, purity_flag=False)
        with pytest.raises(ValidationError) as info:
            pair_metrics(state, 0, 1)
        assert info.value.check == "pair_identity"
        assert str(info.value) == "pair (0, 1): V + D + slack deviates from 1 by nan"
        assert np.isnan(info.value.residual)

    def test_nan_gram_diagonal_is_not_read_by_a_pair(self):
        # No pair formula reads gram's diagonal, so the pair's numbers stay
        # those of the valid state; validate() names the broken invariant.
        rho = np.eye(2, dtype=complex) / 2
        gram = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        broken = gram.copy()
        broken[0, 0] = np.nan
        state = InterferometerState(rho=rho, gram=broken, purity_flag=False)
        assert pair_metrics(state, 0, 1) == pair_metrics(build_mixed_state(rho, gram), 0, 1)
        assert "gram_unit_diagonal" in [check.name for check in validate(state).failed()]

    def test_identity_residual_is_the_compared_magnitude(self):
        # |rho_01| = 1e17/3 rounds V + slack, so the closure misses 1 by -1.
        rho = np.array([[0.5, 1e17 / 3], [1e17 / 3, 0.5]])
        state = InterferometerState(rho=rho, gram=np.ones((2, 2)), purity_flag=False)
        with pytest.raises(ValidationError) as info:
            pair_metrics(state, 0, 1)
        assert str(info.value) == "pair (0, 1): V + D + slack deviates from 1 by -1.0"
        assert (info.value.check, info.value.residual, info.value.tolerance) == (
            "pair_identity", 1.0, 1e-10)


class TestPairRows:
    def test_row_type(self):
        assert PairMetrics._fields == ("i", "j", "visibility", "distinguishability",
                                       "slack", "pair_weight")
        m = pair_metrics(random_mixed_state(3, np.random.default_rng(29)), 0, 2)
        with pytest.raises(AttributeError):
            m.visibility = 0.5
        with pytest.raises(AttributeError):
            m.label = "pair"

    def test_report_rows_equal_pair_metrics(self):
        rng = np.random.default_rng(31)
        rho = np.zeros((5, 5), dtype=complex)
        rho[1:4, 1:4] = random_mixed_state(3, rng).rho
        states = [random_mixed_state(6, rng), random_pure_state(4, rng),
                  build_mixed_state(rho, np.ones((5, 5)))]
        for state in states:
            report = duality_report(state)
            for row in report.pairwise:
                assert type(row) is PairMetrics
                assert pair_metrics(state, row.i, row.j) == row
            pairs = [(row.i, row.j) for row in report.pairwise] + list(report.dark_pairs)
            assert sorted(pairs) == [(i, j) for i in range(state.n)
                                     for j in range(i + 1, state.n)]
        assert report.dark_pairs == ((0, 4),)

    def test_pair_indices_are_shared_and_read_only(self, monkeypatch):
        calls = []
        triu_indices = np.triu_indices
        monkeypatch.setattr(np, "triu_indices",
                            lambda *args: calls.append(args) or triu_indices(*args))
        state = random_mixed_state(7, np.random.default_rng(37))
        for _ in range(3):
            duality_report(state)
        assert len(calls) <= 1
        for index in _pair_indices(7):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1


class TestErrors:
    def test_dark_pair(self):
        rho = np.diag([0.0, 0.0, 1.0]).astype(complex)
        state = build_mixed_state(rho, np.ones((3, 3)))
        with pytest.raises(DarkPairError):
            pair_metrics(state, 0, 1)
        # Pairs involving the bright path remain fine.
        assert pair_distinguishability(state, 0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_equal_indices(self):
        state = build_mixed_state(np.eye(2) / 2, np.eye(2))
        with pytest.raises(ValueError):
            pair_visibility(state, 1, 1)

    def test_index_out_of_range(self):
        state = build_mixed_state(np.eye(2) / 2, np.eye(2))
        with pytest.raises(IndexError):
            pair_visibility(state, 0, 2)
        # A bool or a float is not a path index; the message names the pair.
        for i, j in [(True, 0), (1.0, 0), (0, 1.0)]:
            with pytest.raises(IndexError, match=rf"pair \({i!r}, {j!r}\)"):
                pair_metrics(state, i, j)


class TestRandomEnsembleProperties:
    def test_bounds_and_identity_mixed(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            state = random_mixed_state(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            for i in range(n):
                for j in range(i + 1, n):
                    m = pair_metrics(state, i, j)
                    assert -1e-12 <= m.visibility <= 1.0 + 1e-12
                    assert -1e-12 <= m.distinguishability <= 1.0 + 1e-12
                    assert m.visibility + m.distinguishability <= 1.0 + 1e-10
                    assert m.slack >= -1e-12
                    assert abs(m.visibility + m.distinguishability + m.slack - 1.0) <= 1e-10

    def test_pure_states_saturate(self):
        rng = np.random.default_rng(100)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            state = random_pure_state(n, rng, gram_rank=int(rng.integers(1, n + 2)))
            for i in range(n):
                for j in range(i + 1, n):
                    m = pair_metrics(state, i, j)
                    assert abs(m.visibility + m.distinguishability - 1.0) <= 1e-10
                    assert abs(m.slack) <= 1e-10
