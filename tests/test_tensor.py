import numpy as np
import pytest

from prunepose.tensor import (
    DiffNode,
    ShapeError,
    _central_diff,
    add,
    attention,
    backward,
    constant,
    finite_diff_check,
    gather_rows,
    gelu,
    layer_norm_rows,
    mac_tally,
    matmul,
    mean_all,
    mul,
    reshape,
    scatter_rows,
    softmax_rows,
    sub,
    sum_all,
    upsample_bilinear,
)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(constant(np.eye(2)), constant(x))
        assert np.array_equal(out.value, x)

    def test_selection_row(self):
        out = matmul(constant([[1.0, 0.0]]), constant([[2.0], [5.0]]))
        assert np.array_equal(out.value, [[2.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(constant(a), constant(b)).value
        assert np.allclose(out, naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))

    def test_associativity_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            b = rng.normal(size=(a.shape[1], rng.integers(1, 6)))
            c = rng.normal(size=(b.shape[1], rng.integers(1, 6)))
            left = matmul(matmul(constant(a), constant(b)), constant(c)).value
            right = matmul(constant(a), matmul(constant(b), constant(c))).value
            assert np.allclose(left, right, rtol=1e-9)

    def test_mac_count(self):
        with mac_tally() as tally:
            matmul(constant(np.zeros((3, 4))), constant(np.zeros((4, 5))))
        assert tally.macs == 3 * 4 * 5


def _leaves(rng, *shapes):
    return [constant(rng.normal(size=s)) for s in shapes]


class TestMatmulBias:
    """``matmul(a, b, bias)`` is one node that equals ``add(matmul(a, b), bias)``."""

    @staticmethod
    def _shared_weight_loss(affine, a1, a2, w, bias, c1, c2):
        # w and bias feed two products, so their gradients accumulate
        return add(sum_all(mul(affine(a1, w, bias), c1)), sum_all(mul(affine(a2, w, bias), c2)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_matmul_then_add(self, seed):
        shapes = [(5, 4), (3, 4), (4, 6), (6,), (5, 6), (3, 6)]
        fused = _leaves(np.random.default_rng(seed), *shapes)
        split = _leaves(np.random.default_rng(seed), *shapes)
        a, _, w, bias = fused[:4]
        assert np.array_equal(matmul(a, w, bias).value, add(matmul(a, w), bias).value)
        loss_f = self._shared_weight_loss(matmul, *fused)
        loss_s = self._shared_weight_loss(lambda a, w, b: add(matmul(a, w), b), *split)
        backward(loss_f)
        backward(loss_s)
        assert loss_f.value == loss_s.value
        for f, s in zip(fused[:4], split[:4]):  # a1, a2, w, bias
            assert np.array_equal(f.grad, s.grad)

    def test_one_node_with_bias_as_third_parent(self):
        a, w, bias = _leaves(np.random.default_rng(3), (2, 3), (3, 4), (4,))
        out = matmul(a, w, bias)
        assert out.parents == (a, w, bias)
        assert matmul(a, w).parents == (a, w)

    @pytest.mark.parametrize("shape", [(3,), (1, 4), (4, 1), (2, 4), (), (5,)])
    def test_bias_shape_must_be_n(self, shape):
        a, w = _leaves(np.random.default_rng(4), (2, 3), (3, 4))
        with pytest.raises(ShapeError, match="bias"):
            matmul(a, w, constant(np.zeros(shape)))

    def test_bias_adds_no_macs(self):
        with mac_tally() as tally:
            matmul(constant(np.zeros((3, 4))), constant(np.zeros((4, 5))), constant(np.zeros(5)))
        assert tally.macs == 3 * 4 * 5

    def test_gradient_check_through_bias(self):
        a, w = _leaves(np.random.default_rng(5), (3, 4), (4, 2))
        f = lambda b: sum_all(mul(m := matmul(a, w, b), m))
        assert finite_diff_check(f, np.random.default_rng(6).normal(size=2)) < 1e-5


def _unbroadcast_reference(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class TestBroadcastOps:
    """``add``, ``sub`` and ``mul`` against numpy broadcasting and the summed
    gradients of each operand."""

    OPS = [(add, np.add, lambda g, a, b: (g, g)),
           (sub, np.subtract, lambda g, a, b: (g, -g)),
           (mul, np.multiply, lambda g, a, b: (g * b, g * a))]
    SHAPES = [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 4), (3, 1)), ((1, 4), (3, 1)),
              ((2, 3, 4), (4,)), ((3, 4), ())]

    @pytest.mark.parametrize("op,np_op,vjp", OPS)
    @pytest.mark.parametrize("shapes", SHAPES)
    def test_value_and_gradients(self, op, np_op, vjp, shapes):
        rng = np.random.default_rng(11)
        a, b = _leaves(rng, *shapes)
        weights = rng.normal(size=np.broadcast_shapes(*shapes))
        out = op(a, b)
        assert np.array_equal(out.value, np_op(a.value, b.value))
        backward(sum_all(mul(out, constant(weights))))
        ga, gb = vjp(weights, a.value, b.value)
        assert np.array_equal(a.grad, _unbroadcast_reference(ga, shapes[0]))
        assert np.array_equal(b.grad, _unbroadcast_reference(gb, shapes[1]))

    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_shapes_that_do_not_broadcast_rejected(self, op):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3,\)"):
            op(constant(np.zeros((3, 4))), constant(np.zeros(3)))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(constant([[0.0, 0.0]])).value
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(constant([[np.log(2.0), 0.0]])).value
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax_rows(constant([[1000.0, 0.0]])).value
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 100.0),
                           size=(rng.integers(1, 10), rng.integers(1, 10)))
            s = softmax_rows(constant(x)).value
            assert np.all(s >= 0)
            assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)


class TestSoftmaxInPlace:
    """The softmax and its VJP write over arrays they made; no input changes."""

    def test_softmax_rows_leaves_its_input(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        node = constant(x)
        want = x.copy()
        out = softmax_rows(node)
        assert node.value is x and np.array_equal(x, want)
        assert np.array_equal(out.value, softmax_rows(constant(want)).value)

    def test_softmax_rows_vjp_leaves_the_incoming_gradient(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(constant(rng.normal(size=(4, 6))))
        g = rng.normal(size=(4, 6))
        want = g.copy()
        out._vjp(g)
        assert np.array_equal(g, want)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_and_its_vjp_leave_their_inputs(self, heads):
        rng = np.random.default_rng(heads)
        q, k, v = rng.normal(size=(5, 8)), rng.normal(size=(7, 8)), rng.normal(size=(7, 8))
        g = rng.normal(size=(5, 8))
        want = [x.copy() for x in (q, k, v, g)]
        out = attention(constant(q), constant(k), constant(v), heads)
        out._vjp(g)
        for x, w in zip((q, k, v, g), want):
            assert np.array_equal(x, w)


def upsample_oracle(x, factor):
    """Direct per-output-pixel interpolation, align-corners=false."""
    h, w, c = x.shape
    out = np.zeros((h * factor, w * factor, c))
    for i in range(h * factor):
        for j in range(w * factor):
            sy = min(max((i + 0.5) / factor - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) / factor - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            wy, wx = sy - y0, sx - x0
            out[i, j] = ((1 - wy) * (1 - wx) * x[y0, x0] + (1 - wy) * wx * x[y0, x1]
                         + wy * (1 - wx) * x[y1, x0] + wy * wx * x[y1, x1])
    return out


def repeat_tile_upsample_vjp(xv, factor, g):
    """The upsample VJP as written before it shared the forward's corner list:
    flattened repeat/tile copies of the corner indices and weights, then four
    ``np.add.at`` scatters of the output gradient ``g``."""
    h, w, _ = xv.shape

    def axis(n):
        coords = np.clip((np.arange(n * factor) + 0.5) / factor - 0.5, 0.0, n - 1.0)
        lo = np.floor(coords).astype(np.intp)
        return lo, np.minimum(lo + 1, n - 1), coords - lo

    (y0, y1, wy), (x0, x1, wx) = axis(h), axis(w)
    gx = np.zeros_like(xv)
    yy0 = np.repeat(y0, w * factor)
    yy1 = np.repeat(y1, w * factor)
    xx0 = np.tile(x0, h * factor)
    xx1 = np.tile(x1, h * factor)
    gflat = g.reshape(-1, g.shape[2])
    wyf = np.repeat(wy.ravel(), w * factor)[:, None]
    wxf = np.tile(wx.ravel(), h * factor)[:, None]
    np.add.at(gx, (yy0, xx0), (1 - wyf) * (1 - wxf) * gflat)
    np.add.at(gx, (yy0, xx1), (1 - wyf) * wxf * gflat)
    np.add.at(gx, (yy1, xx0), wyf * (1 - wxf) * gflat)
    np.add.at(gx, (yy1, xx1), wyf * wxf * gflat)
    return gx


class TestUpsampleBilinear:
    def test_constant_preserved(self):
        x = np.full((2, 2, 1), 7.0)
        out = upsample_bilinear(constant(x), 4).value
        assert out.shape == (8, 8, 1)
        assert np.all(out == 7.0)

    def test_factor_one_identity(self):
        x = np.random.default_rng(1).normal(size=(3, 4, 2))
        out = upsample_bilinear(constant(x), 1).value
        assert np.array_equal(out, x)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            upsample_bilinear(constant(np.zeros((2, 2, 1))), 0)

    def test_matches_interpolation_oracle(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        out = upsample_bilinear(constant(x), 2).value
        assert np.allclose(out, upsample_oracle(x, 2), rtol=0, atol=1e-12)

    def test_matches_oracle_random(self):
        x = np.random.default_rng(5).normal(size=(3, 2, 4))
        out = upsample_bilinear(constant(x), 3).value
        assert np.allclose(out, upsample_oracle(x, 3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
    def test_vjp_bit_identical_to_repeat_tile_reference(self, factor):
        rng = np.random.default_rng(factor)
        shapes = [(1, 1, 1), (1, 5, 2), (4, 1, 3)]
        shapes += [tuple(rng.integers(1, 13, size=2)) + (int(rng.integers(1, 9)),)
                   for _ in range(12)]
        for shape in shapes:
            xv = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            g = rng.normal(size=(shape[0] * factor, shape[1] * factor, shape[2]))
            g *= 10.0 ** rng.uniform(-3, 3)
            x = constant(xv)
            backward(sum_all(mul(upsample_bilinear(x, factor), constant(g))))
            assert np.array_equal(x.grad, repeat_tile_upsample_vjp(xv, factor, g)), shape


class TestGatherScatter:
    def test_identity_permutation(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = gather_rows(constant(x), np.arange(5)).value
        assert np.array_equal(out, x)

    def test_round_trip(self):
        x = np.random.default_rng(1).normal(size=(6, 2))
        idx = [4, 1, 3]
        rows = gather_rows(constant(x), idx)
        back = scatter_rows(constant(x), idx, rows).value
        assert np.array_equal(back, x)

    def test_gather_gradient_is_one_hot(self):
        x = constant(np.random.default_rng(2).normal(size=(4, 3)))
        backward(sum_all(gather_rows(x, [2])))
        expected = np.zeros((4, 3))
        expected[2] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_scatter_gradient_splits(self):
        base = constant(np.zeros((4, 2)))
        rows = constant(np.ones((2, 2)))
        backward(sum_all(scatter_rows(base, [1, 3], rows)))
        assert np.array_equal(rows.grad, np.ones((2, 2)))
        expected_base = np.ones((4, 2))
        expected_base[[1, 3]] = 0.0
        assert np.array_equal(base.grad, expected_base)

    @pytest.mark.parametrize("idx", [[0, 0], [5], [-1]])
    def test_bad_indices_rejected(self, idx):
        x = constant(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            gather_rows(x, idx)

    def test_scatter_full_selection_overwrites_everything(self):
        base = constant(np.random.default_rng(3).normal(size=(5, 2)))
        rows = constant(np.random.default_rng(4).normal(size=(5, 2)))
        out = scatter_rows(base, np.arange(5), rows).value
        assert np.array_equal(out, rows.value)


class TestBackward:
    def test_shared_node_grads_accumulate(self):
        x = constant(np.array([[1.0, 2.0]]))
        backward(sum_all(add(x, x)))
        assert np.array_equal(x.grad, [[2.0, 2.0]])

    def test_every_reachable_node_gets_a_grad(self):
        x = constant(np.ones((2, 2)))
        y = mul(x, x)
        z = sum_all(y)
        backward(z)
        assert x.grad is not None and y.grad is not None and z.grad is not None
        assert z.grad.shape == ()

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            backward(constant(np.zeros((2, 2))))


class TestFiniteDiffCheck:
    def test_linear_function(self):
        err = finite_diff_check(sum_all, np.random.default_rng(0).normal(size=(3, 3)))
        assert err < 1e-10

    def test_squared_norm(self):
        f = lambda x: sum_all(mul(x, x))
        err = finite_diff_check(f, np.random.default_rng(1).normal(size=(3, 3)), eps=1e-5)
        assert err < 1e-6

    def test_column_major_input(self):
        f = lambda x: sum_all(mul(x, x))
        x = np.asfortranarray(np.random.default_rng(1).normal(size=(3, 4)))
        assert finite_diff_check(f, x, eps=1e-5) < 1e-6

    def test_nan_gradient_fails(self):
        x = constant(np.ones(3))
        grads = [np.array([0.0, np.nan, np.nan])]
        err, where = _central_diff(lambda: sum_all(mul(x, x)), [("x", x)], grads, 1e-5)
        assert err == np.inf and where == "x[1]"

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            finite_diff_check(lambda x: x, np.zeros((2, 2)))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(sum_all, np.zeros((2, 2)), eps=0.5)

    @pytest.mark.parametrize("name,f", [
        ("softmax", lambda x: sum_all(mul(softmax_rows(x), constant(np.arange(12.0).reshape(3, 4))))),
        ("gelu", lambda x: sum_all(gelu(x))),
        ("upsample", lambda x: sum_all(mul(u := upsample_bilinear(reshape(x, (3, 4, 1)), 2),
                                           constant(np.arange(48.0).reshape(6, 8, 1))))),
        ("mean", mean_all),
        ("sub_mul", lambda x: mean_all(mul(sub(x, constant(np.ones((3, 4)))), x))),
    ])
    def test_ops_pass_gradient_check(self, name, f):
        x = np.random.default_rng(9).normal(size=(3, 4))
        assert finite_diff_check(f, x, eps=1e-5) < 1e-5

    def test_matmul_gradient(self):
        b = constant(np.random.default_rng(2).normal(size=(4, 2)))
        f = lambda x: sum_all(mul(m := matmul(x, b), m))
        assert finite_diff_check(f, np.random.default_rng(3).normal(size=(3, 4))) < 1e-5

    def test_layer_norm_gradient(self):
        gain = constant(np.random.default_rng(4).normal(size=4))
        bias = constant(np.random.default_rng(5).normal(size=4))
        weights = constant(np.random.default_rng(6).normal(size=(3, 4)))
        f = lambda x: sum_all(mul(layer_norm_rows(x, gain, bias), weights))
        assert finite_diff_check(f, np.random.default_rng(7).normal(size=(3, 4))) < 1e-5

    def test_scatter_gradient_checks(self):
        base = np.random.default_rng(8).normal(size=(5, 2))
        f = lambda x: sum_all(mul(s := scatter_rows(constant(base), [0, 3], x), s))
        assert finite_diff_check(f, np.random.default_rng(9).normal(size=(2, 2))) < 1e-5


def per_head_attention(q, k, v, heads):
    """Each head through the 2-D ``softmax_rows`` kernel on contiguous column
    slices, the heads' outputs joined by columns."""
    d = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        qh, kh, vh = (np.ascontiguousarray(x[:, cols]) for x in (q, k, v))
        logits = (qh @ np.ascontiguousarray(kh.T)) * (1.0 / np.sqrt(d))
        outs.append(softmax_rows(constant(logits)).value @ vh)
    return np.concatenate(outs, axis=1)


class TestAttention:
    NQ, NK, C = 5, 7, 8

    def _qkv(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(self.NQ, self.C)), rng.normal(size=(self.NK, self.C)),
                rng.normal(size=(self.NK, self.C)))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_reference_exactly(self, heads):
        q, k, v = self._qkv(heads)
        out = attention(constant(q), constant(k), constant(v), heads).value
        assert np.array_equal(out, per_head_attention(q, k, v, heads))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_gradient_check(self, heads, wrt):
        qkv = [constant(x) for x in self._qkv(10 + heads)]
        weights = constant(np.random.default_rng(20 + wrt).normal(size=(self.NQ, self.C)))

        def f(x):
            args = list(qkv)
            args[wrt] = x
            return sum_all(mul(attention(*args, heads), weights))

        assert finite_diff_check(f, qkv[wrt].value, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_mac_tally(self, heads):
        q, k, v = self._qkv(0)
        with mac_tally() as tally:
            attention(constant(q), constant(k), constant(v), heads)
        assert tally.macs == 2 * heads * self.NQ * self.NK * (self.C // heads)

    @pytest.mark.parametrize("shapes,heads", [
        (((5, 8), (7, 6), (7, 6)), 2),   # query and key widths differ
        (((5, 8), (7, 8), (6, 8)), 2),   # keys and values disagree on rows
        (((5, 8), (7, 8), (7, 8)), 3),   # heads do not divide the width
        (((5, 8), (7, 8), (7, 8)), 0),
        (((5, 8, 1), (7, 8), (7, 8)), 2),
    ])
    def test_bad_shapes_rejected(self, shapes, heads):
        q, k, v = (constant(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError):
            attention(q, k, v, heads)

    def test_tiny_model_loss_tape_size(self):
        from prunepose.cli import TINY_MODEL, _model_config
        from prunepose.model import forward_full, heatmap_loss, init_model_params
        from prunepose.synth import SynthScene, make_triplet_sample

        cfg = _model_config(TINY_MODEL)
        triplet, target, _ = make_triplet_sample(SynthScene(seed=0, joints=cfg.joints), cfg)
        loss = heatmap_loss(forward_full(triplet, cfg, init_model_params(cfg, 0)),
                            constant(target))
        seen, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert len(seen) <= 270
