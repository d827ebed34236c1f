import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import prunepose.dpc as dpc
from prunepose.dpc import (
    DpcConfig,
    NonFiniteTokens,
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


def assert_matches_oracle(x, cfg):
    scores, sel = prune(x, cfg)
    rho, delta, _, kept = oracle_scores(x.tolist(), cfg.k, cfg.resolved_tau(x.shape[1]), cfg.epsilon)
    assert np.array_equal(scores.rho, rho)
    assert np.array_equal(scores.delta, delta)
    assert sel.kept.tolist() == kept


def local_peaks(x, k):
    """The local peaks at k, rows whose entry in ``prune``'s neighbour table
    lists no denser token, with that table (sorted d2, indices) and the
    density rank of every row."""
    n = x.shape[0]
    dist, idx = dpc._nearest(x, k)
    rho = local_density(x, DpcConfig(k=k))
    rank = np.argsort(np.lexsort((np.arange(n), -rho)))
    return np.flatnonzero(~(rank[idx] < rank[:, None]).any(axis=1)), dist, idx, rank


def spy_exact_sq(monkeypatch):
    """The output shapes of every ``_exact_sq`` call from here on: 1-D for a
    shortlist, 2-D for a densely refined block."""
    shapes = []
    exact = dpc._exact_sq

    def spy(a, b):
        out = exact(a, b)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(dpc, "_exact_sq", spy)
    return shapes


def spy_refine(monkeypatch):
    """The (a, b, cand) of every ``_refine`` call from here on."""
    calls = []
    refine = dpc._refine

    def spy(a, b, cand):
        calls.append((a, b, cand.copy()))
        return refine(a, b, cand)

    monkeypatch.setattr(dpc, "_refine", spy)
    return calls


def assert_every_column_a_candidate(calls, n):
    """The candidate masks of one ``prune`` of N tokens under an infinite
    bound: every column but self for density, every denser token for delta."""
    blocks = -(-n // dpc.ROW_CHUNK)
    lo = 0
    for a, _, cand in calls[:blocks]:  # density, one call per block
        want = np.ones((a.shape[0], n), dtype=bool)
        want[np.arange(a.shape[0]), np.arange(lo, lo + a.shape[0])] = False
        assert np.array_equal(cand, want)
        lo += a.shape[0]
    assert lo == n and len(calls) > blocks
    for a, b, cand in calls[blocks:]:  # delta, in rank order: the rows of b before a row's own
        own = np.array([np.flatnonzero((b == row).all(axis=1))[0] for row in a])
        assert np.array_equal(cand, np.arange(len(b)) < own[:, None])


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


class TestBadInput:
    """Every public pass checks its tokens the way ``prune`` does."""

    PASSES = {
        "local_density": lambda x: local_density(x, DpcConfig()),
        "delta_distance": lambda x: delta_distance(x, np.ones(len(x))),
        "prune": lambda x: prune(x, DpcConfig()),
    }

    @pytest.mark.parametrize("name", PASSES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tokens_raise(self, name, bad):
        x = np.random.default_rng(9).normal(size=(20, 3))
        x[7, 1] = bad
        with pytest.raises(NonFiniteTokens, match="finite"):
            self.PASSES[name](x)

    @pytest.mark.parametrize("name", PASSES)
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (5,), (2, 3, 4)])
    def test_shapes_other_than_non_empty_n_by_c_raise(self, name, shape):
        with pytest.raises(ValueError, match="non-empty NxC matrix"):
            self.PASSES[name](np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_delta_rejects_non_finite_rho(self, bad):
        x = np.random.default_rng(10).normal(size=(6, 2))
        rho = np.full(6, 0.5)
        rho[3] = bad
        with pytest.raises(ValueError, match="rho must be finite"):
            delta_distance(x, rho)

    def test_delta_rejects_a_table_of_another_size(self):
        x = np.random.default_rng(11).normal(size=(6, 2))
        dist, idx = dpc._nearest(x, 2)
        with pytest.raises(ValueError, match="nearest"):
            delta_distance(x, np.ones(6), (dist[:5], idx[:5]))


class TestNeighbourResolvedDelta:
    """delta read from the density pass's table of each token's k nearest
    others, with only the local peaks filtered, equals the definition."""

    def test_denser_token_tied_with_the_kth_neighbour_but_off_the_list(self):
        # coarse grids tie many distances; collect rows whose k-th listed
        # distance is shared by a denser token the list left out
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(60):
            n, k = int(rng.integers(8, 40)), int(rng.integers(1, 4))
            x = rng.integers(0, 4, size=(n, 2)).astype(float)
            peaks, dist, idx, rank = local_peaks(x, k)
            d2 = pairwise_sq_dist(x)
            for i in peaks:
                off_list = np.setdiff1d(np.flatnonzero(rank < rank[i]), idx[i])
                hits += bool(np.any(d2[i, off_list] == dist[i, -1]))
            assert_matches_oracle(x, DpcConfig(k=k, epsilon=3))
        assert hits > 0

    def test_more_duplicates_than_k_plus_one(self):
        rng = np.random.default_rng(32)
        x = np.concatenate([np.tile([[0.5, -1.0]], (12, 1)), rng.normal(size=(20, 2))])
        x = x[rng.permutation(len(x))]
        _, _, idx, _ = local_peaks(x, 5)
        assert not np.any(idx == np.arange(len(x))[:, None])  # no token lists itself
        assert_matches_oracle(x, DpcConfig(k=5, epsilon=4))

    def test_table_free_delta_matches_the_table(self):
        # a table-free call builds the k = 1 table itself; at k = 1, far-apart
        # pairs make each pair's lower index a peak, the most the filter sees
        x = np.array([[10.0 * p + b, 0.0] for p in range(8) for b in (0.0, 1.0)])
        peaks = local_peaks(x, 1)[0]
        assert peaks.tolist() == list(range(0, 16, 2))
        assert_matches_oracle(x, DpcConfig(k=1, epsilon=2))
        rng = np.random.default_rng(33)
        for x in (x, rng.normal(size=(50, 3)), np.round(rng.normal(size=(60, 2)), 1)):
            rho = local_density(x, DpcConfig(k=3))
            with_table = delta_distance(x, rho, dpc._nearest(x, 3))
            assert np.array_equal(delta_distance(x, rho), with_table)
            assert np.array_equal(with_table, oracle_scores(x.tolist(), 3, float(x.shape[1]), 2)[1])

    @pytest.mark.parametrize("k", [11, 12, 40])
    def test_k_at_least_n(self, k):
        x = np.round(np.random.default_rng(k).normal(size=(12, 2)), 1)
        assert_matches_oracle(x, DpcConfig(k=k, epsilon=3))

    def test_density_tie_broken_by_index(self):
        # two far pairs: all four densities tie, the lower index ranks denser,
        # so token 2's only listed neighbour (3) is not denser than it
        for x in ([[0.0], [1.0], [10.0], [11.0]], [[11.0], [10.0], [1.0], [0.0]]):
            x = np.array(x)
            rho, delta, _, kept = oracle_scores(x.tolist(), 1, 1.0, 2)
            assert len(set(rho)) == 1
            assert local_peaks(x, 1)[0].tolist() == [0, 2]
            scores, sel = prune(x, DpcConfig(k=1, epsilon=2))
            assert np.array_equal(scores.rho, rho) and np.array_equal(scores.delta, delta)
            assert scores.delta.tolist() == [11.0, 1.0, 9.0, 1.0]
            assert sel.kept.tolist() == kept


class TestSelect:
    def test_epsilon_one_skips_scoring(self, monkeypatch):
        def no_prune(*args):
            raise AssertionError("prune called at epsilon 1")

        monkeypatch.setattr(dpc, "prune", no_prune)
        sel = dpc.select(np.full((9, 2), np.nan), DpcConfig(epsilon=1))
        assert sel.kept.tolist() == list(range(9))

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
        # at an offset of 1e3 the float32 filter's bound exceeds every gap
        # between distances, so each block is refined densely; the scores
        # must still equal the dense computation
        x = 1e3 + 1e-3 * np.random.default_rng(5).normal(size=(1024, 16))
        assert_matches_dense_reference(x, DpcConfig(k=5, epsilon=6))

    def test_float32_rounding_reorders_neighbours_in_short_lists(self, monkeypatch):
        # tight clusters of 8 far apart: within a cluster the distances differ
        # by about one float32 ulp of P, so P's rounding reorders close
        # neighbours, yet each shortlist holds little more than its cluster;
        # only the 2*bound margin keeps the exact nearest in it
        rng = np.random.default_rng(7)
        n, c, k = 1024, 16, 5
        x = np.repeat(rng.normal(size=(n // 8, c)), 8, axis=0) + 1e-3 * rng.normal(size=(n, c))
        left, right, _, _ = dpc._gram_filter(x)
        p = left @ right
        d2 = pairwise_sq_dist(x)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k + 2]
        reordered = (np.diff(np.take_along_axis(p, nearest, axis=1), axis=1) < 0).any(axis=1)
        assert reordered.sum() > n // 4
        shapes = spy_exact_sq(monkeypatch)
        assert_matches_dense_reference(x, DpcConfig(k=k, epsilon=6))
        assert all(len(s) == 1 for s in shapes)  # no dense block
        assert sum(s[0] for s in shapes) <= 2 * (k + 1) * n

    def test_cancellation_falls_back_to_dense_blocks_in_bounded_memory(self, monkeypatch):
        # offsets of 1e3 make the bound exceed every gap between distances,
        # so each row shortlists every column and is refined densely
        rng = np.random.default_rng(21)
        n, c = 3072, 32
        x = 1e3 + 1e-4 * rng.normal(size=(n, c))
        _, _, bound, e = dpc._gram_filter(x)
        gaps = np.diff(np.sort(pairwise_sq_dist(x[:64])[0]))
        assert 2 * bound > math.ldexp(gaps.max(), -2 * e)  # in the filter's units
        shapes = spy_exact_sq(monkeypatch)
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

    def test_delta_filters_only_the_peaks(self, monkeypatch):
        # prune hands delta the density pass's neighbour table, so the delta
        # filter's Gram product sees only the rows that table leaves
        # unresolved, not all N - 1 rows a second full pass would send it
        n = 3072
        x = np.random.default_rng(30).normal(size=(n, 32))
        rights, delta_rows = [], []
        gram_filter, matmul = dpc._gram_filter, np.matmul

        def filter_spy(tokens):
            factors = gram_filter(tokens)
            rights.append(factors[1])
            return factors

        def matmul_spy(a, b, *args, **kwargs):
            if len(rights) == 2 and (b is rights[1] or b.base is rights[1]):
                delta_rows.append(a.shape[0])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(dpc, "_gram_filter", filter_spy)
        monkeypatch.setattr(np, "matmul", matmul_spy)
        scores, _ = prune(x, DpcConfig(k=5, epsilon=6))
        monkeypatch.undo()
        assert len(rights) == 2
        assert 0 < sum(delta_rows) < 0.15 * n
        assert sum(delta_rows) == len(local_peaks(x, 5)[0]) - 1  # less the densest
        assert np.array_equal(scores.delta, delta_distance(x, scores.rho))

    def test_all_identical_rows(self):
        x = np.tile(np.random.default_rng(22).normal(size=(1, 8)), (3072, 1))
        scores, sel = prune(x, DpcConfig(k=5, epsilon=6))
        assert np.array_equal(scores.rho, np.ones(3072))
        assert np.array_equal(scores.delta, np.zeros(3072))
        assert sel.kept.tolist() == list(range(512))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_squares_skip_the_filter(self, monkeypatch):
        # squares of 1e155 overflow, so the bound is infinite, the limit
        # saturates and every block is refined densely; rho is 0 and the
        # scores are NaN, as in the definition
        x = 1e155 * np.random.default_rng(3).normal(size=(300, 4))
        x[:10] *= 1e-150
        assert not np.isfinite(dpc._gram_filter(x)[2])
        calls = spy_refine(monkeypatch)
        scores, sel = prune(x, DpcConfig(k=3, epsilon=6))
        assert_every_column_a_candidate(calls, len(x))
        rho, delta, kept = dense_reference(x, 3, 4.0, 6)
        assert np.array_equal(scores.rho, rho)
        assert np.array_equal(scores.delta, delta)
        assert np.array_equal(sel.kept, kept)

    def test_underflowing_squares_skip_the_filter(self, monkeypatch):
        # below about 2^-536 the exact kernel's squares are subnormal dust, its
        # underflow term exceeds every scaled distance, the bound is infinite
        # and the limit saturates
        x = 2.0 ** -540 * np.random.default_rng(4).normal(size=(300, 4))
        assert not np.isfinite(dpc._gram_filter(x)[2])
        assert np.isfinite(dpc._gram_filter(2.0 ** 500 * x)[2])
        calls = spy_refine(monkeypatch)
        assert_matches_dense_reference(x, DpcConfig(k=3, epsilon=6))
        assert_every_column_a_candidate(calls, len(x))

    def test_limit_saturates_at_an_infinite_bound(self):
        # every finite float32 P passes the limit, a masked +inf column does not
        best = np.array([-3.0, 0.0, 1e30, np.finfo(np.float32).max], dtype=np.float32)
        lim = dpc._limit(best, math.inf)
        assert lim.dtype == np.float32
        assert np.all(lim == np.finfo(np.float32).max)
        assert not np.any(np.float32(np.inf) <= lim)

    def test_limit_rounds_up_to_float32(self):
        # a float32 compare against a limit rounded to nearest could drop a
        # column whose float64 P lies just below the float64 limit
        best = np.random.default_rng(12).normal(size=1000).astype(np.float32)
        for bound in (1e-9, 1e-7, 3e-6, 0.0):
            want = best.astype(np.float64) + 2.0 * bound
            lim = dpc._limit(best, bound)
            assert lim.dtype == np.float32
            assert np.all(lim >= want)
            assert np.all(np.nextafter(lim, np.float32(-np.inf)) < want)  # the least such float32

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
                                      "duplicates", "one_column", "wide",
                                      "1e30", "1e-30", "1e40", "1e-40"])
    def test_filter_error_within_bound(self, case):
        # the last four would underflow or overflow in float32 unless scaled
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
            "1e30": lambda: 1e30 * rng.normal(size=(40, 8)),
            "1e-30": lambda: 1e-30 * rng.normal(size=(40, 8)),
            "1e40": lambda: 1e40 * rng.normal(size=(40, 8)),
            "1e-40": lambda: 1e-40 * rng.normal(size=(40, 8)),
        }[case]()
        left, right, bound, e = dpc._gram_filter(x)
        assert left.dtype == right.dtype == np.float32 and math.isfinite(bound)
        p = left @ right
        d2 = pairwise_sq_dist(x)
        bound = Fraction(bound)
        scale = Fraction(2) ** (-2 * e)  # P is in units of 2^-2e times a squared distance
        for i in range(x.shape[0]):
            norm = sum(Fraction(v) ** 2 for v in x[i].tolist())  # |x_i|^2 exactly
            for j in range(x.shape[0]):
                assert abs(Fraction(float(p[i, j])) - scale * (Fraction(d2[i, j]) - norm)) <= bound

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_shortlists_stay_short_at_the_hr_size(self, monkeypatch, duplicates):
        # a bound made needlessly loose would shortlist more columns, and
        # lose the filter's gain, while every score stayed right
        rng = np.random.default_rng(40)
        n, c, k = 3072, 32, 5
        x = rng.normal(size=(n, c))
        if duplicates:
            x[rng.integers(0, n, size=n // 4)] = x[rng.integers(0, n, size=n // 4)]
        shapes = spy_exact_sq(monkeypatch)
        prune(x, DpcConfig(k=k, epsilon=6))
        assert all(len(s) == 1 for s in shapes)  # no dense block
        assert sum(s[0] for s in shapes) <= 2 * (k + 1) * n

    @pytest.mark.parametrize("name", ["prune", "local_density", "delta_distance"])
    def test_exact_kernel_sees_only_float64(self, monkeypatch, name):
        # the filter runs in float32; no score may
        x = np.random.default_rng(41).normal(size=(600, 8))
        x[300:] = x[300]  # identical rows shortlist each other: dense blocks
        cfg = DpcConfig(k=5, epsilon=6)
        rho = local_density(x, cfg)
        run = {"prune": lambda: prune(x, cfg), "local_density": lambda: local_density(x, cfg),
               "delta_distance": lambda: delta_distance(x, rho)}[name]
        calls = []
        exact = dpc._exact_sq

        def spy(a, b):
            out = exact(a, b)
            calls.append((a.dtype, b.dtype, out.ndim))
            return out

        monkeypatch.setattr(dpc, "_exact_sq", spy)
        run()
        assert {ndim for _, _, ndim in calls} == {1, 2}  # shortlists and dense blocks
        assert all(a == np.float64 and b == np.float64 for a, b, _ in calls)


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
        {"k": 2.5}, {"k": 5.0}, {"k": True}, {"epsilon": 2.5}, {"epsilon": "6"},
        {"tau": math.nan}, {"tau": math.inf}, {"tau": "1"},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DpcConfig(**kwargs)
