import numpy as np
import pytest

from prunepose.attention import (
    AttentionParams,
    cross_attention,
    init_block,
    init_spatio_temporal,
    multi_head_self_attention,
    spatio_temporal_block,
    transformer_block,
)
from prunepose.tensor import ShapeError, backward, constant, finite_diff_check, mul, sum_all


def identity_params(c, heads=1):
    eye = lambda: constant(np.eye(c))
    return AttentionParams(eye(), eye(), eye(), eye(), heads)


def random_params(rng, c, heads):
    mk = lambda: constant(rng.normal(size=(c, c)))
    return AttentionParams(mk(), mk(), mk(), mk(), heads)


def zero_block(rng, c, heads):
    b = init_block(rng, c, heads)
    for node in (b.attention.w_q, b.attention.w_k, b.attention.w_v, b.attention.w_o,
                 b.mlp_w1, b.mlp_b1, b.mlp_w2, b.mlp_b2):
        node.value[...] = 0.0
    return b


def naive_attention(q, k, v, heads):
    """Per-head loop with explicit softmax, no shared code with the package."""
    n, c = q.shape
    d = c // heads
    out = np.zeros((n, c))
    for h in range(heads):
        qh, kh, vh = (m[:, h * d:(h + 1) * d] for m in (q, k, v))
        logits = qh @ kh.T / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        out[:, h * d:(h + 1) * d] = w @ vh
    return out


class TestSelfAttention:
    def test_single_token_identity_projections(self):
        x = np.array([[1.0, -2.0, 0.5]])
        out = multi_head_self_attention(constant(x), identity_params(3)).value
        assert np.allclose(out, x, atol=1e-15)

    def test_identical_tokens_identical_outputs(self):
        rng = np.random.default_rng(0)
        row = rng.normal(size=4)
        x = np.tile(row, (2, 1))
        out = multi_head_self_attention(constant(x), random_params(rng, 4, 2)).value
        assert np.allclose(out[0], out[1], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 8))
        p = random_params(rng, 8, 2)
        out = multi_head_self_attention(constant(x), p).value
        q = x @ p.w_q.value
        k = x @ p.w_k.value
        v = x @ p.w_v.value
        expected = naive_attention(q, k, v, 2) @ p.w_o.value
        assert np.allclose(out, expected, rtol=1e-10, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            multi_head_self_attention(constant(np.zeros((2, 5))), identity_params(3))

    def test_heads_must_divide_width(self):
        with pytest.raises(ShapeError):
            identity_params(3, heads=2)

    def test_bit_identical_to_cross_attention_on_itself(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(6, 8))
        results = []
        for attend in (multi_head_self_attention, lambda x, p: cross_attention(x, x, p)):
            x = constant(np.random.default_rng(7).normal(size=(6, 8)))
            p = random_params(np.random.default_rng(9), 8, 2)
            out = attend(x, p)
            backward(sum_all(mul(out, constant(g))))
            results.append([out.value, x.grad, p.w_q.grad, p.w_k.grad, p.w_v.grad, p.w_o.grad])
        for got, want in zip(*results):
            assert np.array_equal(got, want)


class TestCrossAttention:
    def test_single_pair_identity(self):
        f = constant(np.array([[3.0]]))
        c = constant(np.array([[-1.5]]))
        out = cross_attention(f, c, identity_params(1)).value
        assert np.allclose(out, [[-1.5]], atol=1e-15)

    def test_constant_coarse_values(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4)
        coarse = np.tile(v, (5, 1))
        fine = rng.normal(size=(3, 4))
        out = cross_attention(constant(fine), constant(coarse), identity_params(4, 2)).value
        assert np.allclose(out, np.tile(v, (3, 1)), rtol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        fine = rng.normal(size=(3, 4))
        coarse = rng.normal(size=(5, 4))
        p = random_params(rng, 4, 2)
        out = cross_attention(constant(fine), constant(coarse), p).value
        q = fine @ p.w_q.value
        k = coarse @ p.w_k.value
        v = coarse @ p.w_v.value
        n, c = q.shape
        d = c // 2
        mixed = np.zeros((n, c))
        for h in range(2):
            logits = q[:, h * d:(h + 1) * d] @ k[:, h * d:(h + 1) * d].T / np.sqrt(d)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            mixed[:, h * d:(h + 1) * d] = (e / e.sum(axis=1, keepdims=True)) @ v[:, h * d:(h + 1) * d]
        assert np.allclose(out, mixed @ p.w_o.value, rtol=1e-10, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cross_attention(constant(np.zeros((2, 4))), constant(np.zeros((3, 6))),
                            identity_params(4))

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(4)
        fine = rng.normal(size=(6, 4))
        coarse = rng.normal(size=(7, 4))
        p = random_params(rng, 4, 1)
        q = fine @ p.w_q.value
        k = coarse @ p.w_k.value
        logits = q @ k.T / 2.0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)


class TestTransformerBlock:
    def test_zero_weights_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        out = transformer_block(constant(x), zero_block(rng, 6, 2)).value
        assert np.allclose(out, x, atol=1e-15)

    @pytest.mark.parametrize("n,c,heads", [(1, 4, 1), (5, 8, 2), (3, 6, 3)])
    def test_shape_contract(self, n, c, heads):
        rng = np.random.default_rng(6)
        out = transformer_block(constant(rng.normal(size=(n, c))), init_block(rng, c, heads))
        assert out.shape == (n, c)

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        p = init_block(rng, 4, 2)
        weights = constant(rng.normal(size=(3, 4)))
        f = lambda x: sum_all(mul(transformer_block(x, p), weights))
        assert finite_diff_check(f, rng.normal(size=(3, 4)), eps=1e-5) < 1e-5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4))
        p = init_block(rng, 4, 2)
        perm = rng.permutation(5)
        out = transformer_block(constant(x), p).value
        out_p = transformer_block(constant(x[perm]), p).value
        assert np.allclose(out_p, out[perm], rtol=1e-10, atol=1e-12)


class TestSpatioTemporalBlock:
    def test_zero_weights_concatenates_inputs(self):
        rng = np.random.default_rng(9)
        st = init_spatio_temporal(rng, 4, 2)
        st.block = zero_block(rng, 4, 2)
        st.frame_embed.value[...] = 0.0
        frame = rng.normal(size=(3, 4))
        out = spatio_temporal_block([constant(frame)] * 3, st).value
        assert np.allclose(out, np.concatenate([frame] * 3, axis=0), atol=1e-15)

    def test_output_token_count(self):
        rng = np.random.default_rng(10)
        st = init_spatio_temporal(rng, 4, 2)
        frames = [constant(rng.normal(size=(192, 4))) for _ in range(3)]
        assert spatio_temporal_block(frames, st).shape == (576, 4)

    def test_residual_path_tracks_frame_permutation(self):
        rng = np.random.default_rng(11)
        st = init_spatio_temporal(rng, 4, 2)
        st.block = zero_block(rng, 4, 2)
        frames = [rng.normal(size=(4, 4)) for _ in range(3)]
        perm = rng.permutation(4)
        out = spatio_temporal_block([constant(f) for f in frames], st).value
        permuted_first = [frames[0][perm], frames[1], frames[2]]
        out_p = spatio_temporal_block([constant(f) for f in permuted_first], st).value
        assert np.allclose(out_p[:4], out[:4][perm], atol=1e-15)
        assert np.allclose(out_p[4:], out[4:], atol=1e-15)

    def test_frame_shape_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        st = init_spatio_temporal(rng, 4, 2)
        frames = [constant(np.zeros((3, 4))), constant(np.zeros((2, 4))), constant(np.zeros((3, 4)))]
        with pytest.raises(ShapeError):
            spatio_temporal_block(frames, st)

    def test_gradient_check(self):
        rng = np.random.default_rng(13)
        st = init_spatio_temporal(rng, 4, 2)
        weights = constant(rng.normal(size=(6, 4)))
        others = [constant(rng.normal(size=(2, 4))) for _ in range(2)]
        f = lambda x: sum_all(mul(spatio_temporal_block([x] + others, st), weights))
        assert finite_diff_check(f, rng.normal(size=(2, 4)), eps=1e-5) < 1e-5
