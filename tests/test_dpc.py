import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import prunepose.dpc as dpc
from prunepose.dpc import (
    DpcConfig,
    delta_distance,
    local_density,
    pairwise_sq_dist,
    prune,
)

from dpc_oracle import oracle_scores


def dense_reference(x, k, tau, epsilon):
    """(rho, delta, kept) from the full N x N ``cdist`` matrix: the definition
    with the oracle's arithmetic, computed densely and without the Gram filter."""
    n = x.shape[0]
    d2 = cdist(x, x, "sqeuclidean")
    k_eff = min(k, n - 1)
    if k_eff == 0:
        rho = np.ones(n)
    else:
        nearest = np.sort(np.partition(d2, k_eff, axis=1)[:, :k_eff + 1], axis=1)[:, 1:]
        sums = [sum(row) for row in nearest.tolist()]  # left to right
        rho = np.array([math.exp(-(s / k_eff) / tau) for s in sums])
    order = np.lexsort((np.arange(n), -rho))
    rank = np.argsort(order)
    delta = np.where(rank[None, :] < rank[:, None], d2, np.inf).min(axis=1)
    delta[order[0]] = d2[order[0]].max()
    delta = np.sqrt(delta)
    kept = np.sort(np.lexsort((np.arange(n), -(rho * delta)))[:max(1, n // epsilon)])
    return rho, delta, kept


def assert_matches_dense_reference(x, cfg):
    scores, sel = prune(x, cfg)
    rho, delta, kept = dense_reference(x, cfg.k, cfg.resolved_tau(x.shape[1]), cfg.epsilon)
    assert np.array_equal(scores.rho, rho)
    assert np.array_equal(scores.delta, delta)
    assert np.array_equal(sel.kept, kept)


class TestPairwiseSqDist:
    def test_hand_example(self):
        d2 = pairwise_sq_dist(np.array([[0.0], [1.0], [3.0]]))
        assert np.array_equal(d2, [[0, 1, 9], [1, 0, 4], [9, 4, 0]])

    def test_single_token(self):
        assert np.array_equal(pairwise_sq_dist(np.array([[2.5]])), [[0.0]])

    def test_duplicates_give_zero_offdiagonal(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]])
        d2 = pairwise_sq_dist(x)
        assert d2[0, 1] == 0.0 and d2[1, 0] == 0.0

    def test_symmetric_zero_diagonal(self):
        x = np.random.default_rng(0).normal(size=(10, 4))
        d2 = pairwise_sq_dist(x)
        assert np.array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)

    def test_large_n_path_agrees_with_small(self):
        x = np.random.default_rng(1).normal(size=(600, 3))
        d2 = pairwise_sq_dist(x)
        sub = pairwise_sq_dist(x[:100])
        assert np.allclose(d2[:100, :100], sub, rtol=1e-9, atol=1e-9)


class TestLocalDensity:
    def test_hand_example(self):
        rho = local_density(np.array([[0.0], [1.0], [3.0]]), DpcConfig(k=1, tau=1.0))
        assert np.allclose(rho, [np.exp(-1), np.exp(-1), np.exp(-4)], rtol=1e-12)

    def test_identical_tokens(self):
        rho = local_density(np.array([[5.0, 5.0], [5.0, 5.0]]), DpcConfig(k=3, tau=2.0))
        assert np.array_equal(rho, [1.0, 1.0])

    def test_single_token(self):
        assert np.array_equal(local_density(np.array([[1.0, 2.0]]), DpcConfig()), [1.0])

    def test_in_unit_interval_property(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = rng.normal(size=(rng.integers(1, 20), rng.integers(1, 5)))
            rho = local_density(x, DpcConfig(k=int(rng.integers(1, 6))))
            assert np.all(rho > 0.0) and np.all(rho <= 1.0)


class TestDeltaDistance:
    def test_hand_example(self):
        x = np.array([[0.0], [1.0], [3.0]])
        rho = local_density(x, DpcConfig(k=1, tau=1.0))
        assert np.allclose(delta_distance(x, rho), [3.0, 1.0, 2.0], rtol=1e-12)

    def test_single_token(self):
        assert np.array_equal(delta_distance(np.array([[7.0]]), np.array([1.0])), [0.0])

    def test_identical_tokens(self):
        x = np.array([[1.0], [1.0]])
        delta = delta_distance(x, np.array([1.0, 1.0]))
        assert np.array_equal(delta, [0.0, 0.0])

    def test_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.normal(size=(rng.integers(2, 20), 3))
            rho = local_density(x, DpcConfig())
            assert np.all(delta_distance(x, rho) >= 0.0)


class TestPrune:
    def test_hand_example(self):
        scores, sel = prune(np.array([[0.0], [1.0], [3.0]]), DpcConfig(k=1, tau=1.0, epsilon=3))
        assert np.allclose(scores.score, [3 * np.exp(-1), np.exp(-1), 2 * np.exp(-4)], rtol=1e-12)
        assert sel.kept.tolist() == [0]

    def test_epsilon_one_identity(self):
        x = np.random.default_rng(0).normal(size=(9, 2))
        _, sel = prune(x, DpcConfig(epsilon=1))
        assert sel.kept.tolist() == list(range(9))

    def test_default_token_budget(self):
        # three 16x12 frames pruned six-to-one
        x = np.random.default_rng(1).normal(size=(576, 4))
        _, sel = prune(x, DpcConfig(epsilon=6))
        assert len(sel.kept) == 96

    def test_fewer_tokens_than_ratio_keeps_one(self):
        x = np.random.default_rng(2).normal(size=(3, 2))
        _, sel = prune(x, DpcConfig(epsilon=10))
        assert len(sel.kept) == 1

    def test_score_is_product(self):
        x = np.random.default_rng(3).normal(size=(12, 3))
        scores, _ = prune(x, DpcConfig())
        assert np.array_equal(scores.score, scores.rho * scores.delta)

    def test_kept_sorted_unique(self):
        x = np.random.default_rng(4).normal(size=(30, 3))
        _, sel = prune(x, DpcConfig(epsilon=4))
        kept = sel.kept
        assert np.all(np.diff(kept) > 0)
        assert len(kept) == 30 // 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tokens_rejected(self, bad):
        x = np.random.default_rng(9).normal(size=(20, 3))
        x[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            prune(x, DpcConfig(epsilon=4))

    def test_constant_tokens_tie_break_keeps_prefix(self):
        x = np.ones((12, 3))
        _, sel = prune(x, DpcConfig(epsilon=3))
        assert sel.kept.tolist() == [0, 1, 2, 3]


class TestSelect:
    def test_epsilon_one_skips_scoring(self, monkeypatch):
        def no_prune(*args):
            raise AssertionError("prune called at epsilon 1")

        monkeypatch.setattr(dpc, "prune", no_prune)
        sel = dpc.select(np.full((9, 2), np.nan), DpcConfig(epsilon=1))
        assert sel.kept.tolist() == list(range(9)) and sel.epsilon == 1

    def test_calls_prune_positionally_through_the_module(self, monkeypatch):
        x = np.random.default_rng(5).normal(size=(30, 3))
        cfg = DpcConfig(epsilon=4)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return prune(*args, **kwargs)

        monkeypatch.setattr(dpc, "prune", spy)
        sel = dpc.select(x, cfg)
        assert len(calls) == 1 and calls[0][0][0] is x and not calls[0][1]
        assert np.array_equal(sel.kept, prune(x, cfg)[1].kept)


class TestOracleEquivalence:
    def test_random_sets_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            c = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            tau = float(rng.choice([1.0, c]))
            eps = int(rng.integers(1, 11))
            x = rng.normal(size=(n, c))
            scores, sel = prune(x, DpcConfig(k=k, tau=tau, epsilon=eps))
            rho_o, delta_o, score_o, kept_o = oracle_scores(x.tolist(), k, tau, eps)
            assert np.allclose(scores.rho, rho_o, rtol=1e-12, atol=1e-15)
            assert np.allclose(scores.delta, delta_o, rtol=1e-12, atol=1e-15)
            assert np.allclose(scores.score, score_o, rtol=1e-12, atol=1e-15)
            assert sel.kept.tolist() == kept_o

    @pytest.mark.parametrize("seed", [10, 11])
    def test_large_tight_sets_with_duplicates_match_exactly(self, seed):
        # past 512 tokens, with a quarter of the rows duplicated and all of
        # them packed closely: distances and density ties must match the
        # definition bit for bit, since the tie-break decides the kept set
        rng = np.random.default_rng(seed)
        n = int(rng.integers(600, 700))
        x = 0.05 * rng.normal(size=(n, 8)) + 3.0
        src = rng.integers(0, n, size=n // 4)
        x[rng.integers(0, n, size=n // 4)] = x[src]
        scores, sel = prune(x, DpcConfig(k=5, epsilon=6))
        rho_o, delta_o, _, kept_o = oracle_scores(x.tolist(), 5, 8.0, 6)
        assert sel.kept.tolist() == kept_o
        assert np.array_equal(scores.rho, rho_o)
        assert np.array_equal(scores.delta, delta_o)


class TestFilterAndRefine:
    """The Gram filter only shortlists; rho, delta and the kept set must equal
    the dense exact computation bit for bit."""

    def test_default_hr_size_with_duplicates(self):
        rng = np.random.default_rng(20)
        n, c = 3072, 32
        x = rng.normal(size=(n, c))
        x[rng.integers(0, n, size=n // 4)] = x[rng.integers(0, n, size=n // 4)]
        assert_matches_dense_reference(x, DpcConfig(k=5, epsilon=6))

    def test_near_cancellation_with_short_lists(self):
        # P's rounding reorders close neighbours here, yet the shortlists stay
        # sparse: only the 2*bound margin keeps the exact nearest in them
        x = 1e3 + 1e-3 * np.random.default_rng(5).normal(size=(1024, 16))
        assert_matches_dense_reference(x, DpcConfig(k=5, epsilon=6))

    def test_cancellation_falls_back_to_dense_blocks_in_bounded_memory(self, monkeypatch):
        # offsets of 1e3 make the bound exceed every gap between distances,
        # so each row shortlists every column and is refined densely
        rng = np.random.default_rng(21)
        n, c = 3072, 32
        x = 1e3 + 1e-4 * rng.normal(size=(n, c))
        _, _, bound = dpc._gram_filter(x)
        gaps = np.diff(np.sort(pairwise_sq_dist(x[:64])[0]))
        assert 2 * bound > gaps.max()
        shapes = []
        exact = dpc._exact_sq

        def spy(a, b):
            out = exact(a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(dpc, "_exact_sq", spy)
        tracemalloc.start()
        try:
            scores, sel = prune(x, DpcConfig(k=5, epsilon=6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dpc.ROW_CHUNK, n) in shapes  # a dense block was refined
        assert peak < n * n * 8 / 2  # never an N x N matrix
        rho, delta, kept = dense_reference(x, 5, float(c), 6)
        assert np.array_equal(scores.rho, rho)
        assert np.array_equal(scores.delta, delta)
        assert np.array_equal(sel.kept, kept)

    def test_all_identical_rows(self):
        x = np.tile(np.random.default_rng(22).normal(size=(1, 8)), (3072, 1))
        scores, sel = prune(x, DpcConfig(k=5, epsilon=6))
        assert np.array_equal(scores.rho, np.ones(3072))
        assert np.array_equal(scores.delta, np.zeros(3072))
        assert sel.kept.tolist() == list(range(512))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_squares_skip_the_filter(self):
        # squares of 1e155 overflow, so the bound is infinite and every block
        # is refined densely; rho is 0 and the scores are NaN, as in the definition
        x = 1e155 * np.random.default_rng(3).normal(size=(300, 4))
        x[:10] *= 1e-150
        assert not np.isfinite(dpc._gram_filter(x)[2])
        scores, sel = prune(x, DpcConfig(k=3, epsilon=6))
        rho, delta, kept = dense_reference(x, 3, 4.0, 6)
        assert np.array_equal(scores.rho, rho)
        assert np.array_equal(scores.delta, delta)
        assert np.array_equal(sel.kept, kept)

    @pytest.mark.parametrize("n,c,k", [(1, 1, 5), (1, 4, 1), (2, 1, 1), (2, 3, 5),
                                       (5, 1, 5), (6, 1, 9), (40, 1, 3)])
    def test_edge_sizes_match_oracle(self, n, c, k):
        x = np.round(np.random.default_rng(n * 10 + c).normal(size=(n, c)), 1)
        scores, sel = prune(x, DpcConfig(k=k, epsilon=2))
        rho_o, delta_o, _, kept_o = oracle_scores(x.tolist(), k, float(c), 2)
        assert np.array_equal(scores.rho, rho_o)
        assert np.array_equal(scores.delta, delta_o)
        assert sel.kept.tolist() == kept_o

    @pytest.mark.parametrize("case", ["normal", "offset", "mixed_scale", "tiny", "huge",
                                      "duplicates", "one_column", "wide"])
    def test_filter_error_within_bound(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        x = {
            "normal": lambda: rng.normal(size=(40, 8)),
            "offset": lambda: 1e3 + 1e-4 * rng.normal(size=(40, 8)),
            "mixed_scale": lambda: rng.normal(size=(40, 8)) * 10.0 ** rng.integers(-8, 8, size=(40, 1)),
            "tiny": lambda: 1e-160 * rng.normal(size=(40, 8)),
            "huge": lambda: 1e150 * rng.normal(size=(40, 8)),
            "duplicates": lambda: np.repeat(rng.normal(size=(10, 8)), 4, axis=0),
            "one_column": lambda: rng.normal(size=(40, 1)),
            "wide": lambda: rng.normal(size=(20, 96)),
        }[case]()
        left, right, bound = dpc._gram_filter(x)
        p = left @ right
        e = pairwise_sq_dist(x)
        bound = Fraction(bound)
        for i in range(x.shape[0]):
            norm = sum(Fraction(v) ** 2 for v in x[i].tolist())  # |x_i|^2 exactly
            for j in range(x.shape[0]):
                assert abs(Fraction(p[i, j]) - (Fraction(e[i, j]) - norm)) <= bound


class TestInvariances:
    def test_permutation_consistency(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 4))
        cfg = DpcConfig(k=3, epsilon=4)
        scores, sel = prune(x, cfg)
        perm = rng.permutation(20)
        scores_p, sel_p = prune(x[perm], cfg)
        assert np.allclose(scores_p.rho, scores.rho[perm], rtol=1e-12)
        # distinct scores: the selected token vectors are the same multiset
        kept_vectors = np.sort(x[sel.kept], axis=0)
        kept_vectors_p = np.sort(x[perm][sel_p.kept], axis=0)
        assert np.allclose(kept_vectors, kept_vectors_p, rtol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 3))
        shift = x + rng.normal(size=3)
        cfg = DpcConfig(k=4, epsilon=3)
        a, sel_a = prune(x, cfg)
        b, sel_b = prune(shift, cfg)
        assert np.allclose(a.rho, b.rho, rtol=1e-9, atol=1e-12)
        assert np.allclose(a.delta, b.delta, rtol=1e-9, atol=1e-12)
        assert np.allclose(a.score, b.score, rtol=1e-9, atol=1e-12)
        assert sel_a.kept.tolist() == sel_b.kept.tolist()

    def test_monotone_epsilon_nesting(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(24, 4))
        kept = {}
        for eps in (1, 2, 3, 4, 6):
            _, sel = prune(x, DpcConfig(epsilon=eps))
            kept[eps] = set(sel.kept.tolist())
        for small, big in [(1, 2), (2, 3), (3, 4), (4, 6)]:
            assert kept[big] <= kept[small]

    def test_budget_law_property(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            eps = int(rng.integers(1, 12))
            _, sel = prune(rng.normal(size=(n, 2)), DpcConfig(epsilon=eps))
            assert len(sel.kept) == max(1, n // eps)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"tau": 0.0}, {"tau": -1.0}, {"epsilon": 0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DpcConfig(**kwargs)
