import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import prunepose.tensor as tensor
from prunepose.tensor import (
    BILINEAR_TILE_BYTES,
    ROW_TILE,
    DiffNode,
    ShapeError,
    _EXP_SAFE,
    _bilinear,
    _bilinear_axis,
    _central_diff,
    _corners,
    _merge_heads,
    _softmax,
    _softmax_vjp,
    _split_heads,
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
    rows_to_maps,
    scale,
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
        for nq in (5, 2 * ROW_TILE + 3):  # one row tile, then three
            q, k, v = rng.normal(size=(nq, 8)), rng.normal(size=(7, 8)), rng.normal(size=(7, 8))
            g = rng.normal(size=(nq, 8))
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


def ix_corners(rows, cols) -> list:
    """``(np.ix_ index, weight)`` of the four bilinear corners in (y0, x0),
    (y0, x1), (y1, x0), (y1, x1) order, at ``_bilinear_axis`` points."""
    (y0, y1, wy), (x0, x1, wx) = rows, cols
    wy, wx = wy[:, None, None], wx[None, :, None]
    return [(np.ix_(y0, x0), (1 - wy) * (1 - wx)), (np.ix_(y0, x1), (1 - wy) * wx),
            (np.ix_(y1, x0), wy * (1 - wx)), (np.ix_(y1, x1), wy * wx)]


def ix_bilinear(image, rows, cols):
    """The resampler as four 2-D ``np.ix_`` gathers, summed in corner order."""
    (i0, w0), (i1, w1), (i2, w2), (i3, w3) = ix_corners(rows, cols)
    return w0 * image[i0] + w1 * image[i1] + w2 * image[i2] + w3 * image[i3]


class TestBilinear:
    # (y, h, x, w) windows over a 40x30 image: inside it, past each edge in
    # turn, and past all four, so the sample points are clamped on every side
    WINDOWS = [(5.3, 20.7, 4.1, 17.9), (-6.0, 20.0, 3.0, 15.0), (25.0, 22.0, 3.0, 15.0),
               (5.0, 20.0, -7.5, 15.0), (5.0, 20.0, 20.0, 18.0), (-3.0, 46.0, -2.0, 35.0)]

    @pytest.mark.parametrize("tile_bytes", [1, BILINEAR_TILE_BYTES], ids=["row-tiles", "default"])
    @pytest.mark.parametrize("out_size", [(1, 1), (17, 13), (48, 64)])
    @pytest.mark.parametrize("channels", [1, 3, 32])
    def test_takes_equal_ix_gathers(self, channels, out_size, tile_bytes, monkeypatch):
        monkeypatch.setattr(tensor, "BILINEAR_TILE_BYTES", tile_bytes)
        rng = np.random.default_rng(channels * 1000 + out_size[0])
        image = rng.normal(size=(40, 30, channels)) * 10.0 ** rng.uniform(-3, 3)
        for y, h, x, w in self.WINDOWS:
            rows = _bilinear_axis(y, h, 40, out_size[0])
            cols = _bilinear_axis(x, w, 30, out_size[1])
            assert np.array_equal(_bilinear(image, _corners(rows, cols)),
                                  ix_bilinear(image, rows, cols)), (y, h, x, w)


def rows(x):
    """An HxWxC array as the (H*W, C) rows ``upsample_bilinear`` takes."""
    return x.reshape(-1, x.shape[2])


class TestUpsampleBilinear:
    def test_constant_preserved(self):
        x = np.full((4, 1), 7.0)
        out = upsample_bilinear(constant(x), (2, 2), 4).value
        assert out.shape == (64, 1)
        assert np.all(out == 7.0)

    def test_factor_one_identity(self):
        x = np.random.default_rng(1).normal(size=(12, 2))
        out = upsample_bilinear(constant(x), (3, 4), 1).value
        assert np.array_equal(out, x)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            upsample_bilinear(constant(np.zeros((4, 1))), (2, 2), 0)

    @pytest.mark.parametrize("factor", [True, False, 2.0])
    def test_bool_or_float_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="positive integer"):
            upsample_bilinear(constant(np.zeros((4, 1))), (2, 2), factor)

    @pytest.mark.parametrize("shape,grid", [((5, 2), (2, 2)), ((4, 2), (4, 4)),
                                            ((2, 2, 2), (2, 2)), ((4,), (2, 2))])
    def test_rows_that_do_not_fill_the_grid_rejected(self, shape, grid):
        with pytest.raises(ShapeError, match="rows"):
            upsample_bilinear(constant(np.zeros(shape)), grid, 2)

    def test_matches_interpolation_oracle(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        out = upsample_bilinear(constant(rows(x)), (2, 2), 2).value
        assert np.allclose(out, rows(upsample_oracle(x, 2)), rtol=0, atol=1e-12)

    def test_matches_oracle_random(self):
        x = np.random.default_rng(5).normal(size=(3, 2, 4))
        out = upsample_bilinear(constant(rows(x)), (3, 2), 3).value
        assert np.allclose(out, rows(upsample_oracle(x, 3)), rtol=0, atol=1e-12)

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
            x = constant(rows(xv))
            backward(sum_all(mul(upsample_bilinear(x, shape[:2], factor), constant(rows(g)))))
            assert np.array_equal(x.grad, rows(repeat_tile_upsample_vjp(xv, factor, g))), shape


    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_forward_and_vjp_equal_ix_gathers_and_scatter(self, factor):
        rng = np.random.default_rng(10 + factor)
        for shape in [(1, 1, 1), (1, 5, 2), (4, 1, 3), (7, 9, 3), (16, 12, 32)]:
            h, w, _ = shape
            rows_at = _bilinear_axis(0, h, h, h * factor)
            cols = _bilinear_axis(0, w, w, w * factor)
            xv = rng.normal(size=shape)
            g = rng.normal(size=(h * factor, w * factor, shape[2]))
            x = constant(rows(xv))
            out = upsample_bilinear(x, (h, w), factor)
            assert np.array_equal(out.value, rows(ix_bilinear(xv, rows_at, cols))), shape
            backward(sum_all(mul(out, constant(rows(g)))))
            want = np.zeros_like(xv)
            for idx, weight in ix_corners(rows_at, cols):
                np.add.at(want, idx, weight * g)
            assert np.array_equal(x.grad, rows(want)), shape


class TestRowsToMaps:
    def test_value_and_vjp_equal_reshape_then_transpose(self):
        rng = np.random.default_rng(21)
        x, g = rng.normal(size=(12, 5)), rng.normal(size=(5, 3, 4))
        node = rows_to_maps(constant(x), (3, 4))
        assert np.array_equal(node.value, x.reshape(3, 4, 5).transpose(2, 0, 1))
        (gx,) = node._vjp(g)
        assert np.array_equal(gx, g.transpose(1, 2, 0).reshape(12, 5))

    @pytest.mark.parametrize("shape,grid", [((11, 5), (3, 4)), ((3, 4, 5), (3, 4)), ((12,), (3, 4))])
    def test_rows_that_do_not_fill_the_grid_rejected(self, shape, grid):
        with pytest.raises(ShapeError, match="rows"):
            rows_to_maps(constant(np.zeros(shape)), grid)


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


def mean_var_layer_norm(xv, gv, bv, g, eps=1e-5):
    """``layer_norm_rows`` and its VJP written with numpy's ``mean`` and ``var``."""
    mu = xv.mean(axis=1, keepdims=True)
    var = xv.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    gh = g * gv
    g_x = inv * (gh - gh.mean(axis=1, keepdims=True)
                 - xhat * (gh * xhat).mean(axis=1, keepdims=True))
    return (xhat * gv + bv, g_x, _unbroadcast_reference(g * xhat, gv.shape),
            _unbroadcast_reference(g, bv.shape))


class TestLayerNormRows:
    @pytest.mark.parametrize("rows", ["random", "offset", "constant", "one-column"])
    def test_value_and_vjp_equal_mean_var_formula(self, rows):
        rng = np.random.default_rng(17)
        xv = {"random": rng.normal(size=(9, 37)) * 3.0,
              "offset": 1e6 + rng.normal(size=(5, 64)),
              "constant": np.full((4, 6), 2.5),
              "one-column": rng.normal(size=(6, 1))}[rows]
        gv, bv = rng.normal(size=xv.shape[1]), rng.normal(size=xv.shape[1])
        g = rng.normal(size=xv.shape)
        node = layer_norm_rows(constant(xv), constant(gv), constant(bv))
        got = (node.value,) + tuple(node._vjp(g))
        for a, b in zip(got, mean_var_layer_norm(xv, gv, bv, g)):
            assert np.array_equal(a, b)


def exact_gelu(x):
    """x Phi(x) and its derivative Phi(x) + x phi(x), from the stdlib's erf."""
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x * cdf, cdf + x * pdf


class TestGelu:
    def test_within_tanh_approximation_error_of_exact_gelu(self):
        xv = np.linspace(-10.0, 10.0, 20_001)
        x = constant(xv)
        y = gelu(x)
        backward(sum_all(y))
        value, slope = exact_gelu(xv)
        # the tanh form's largest errors: 4.73e-4 near x = 2.70, 8.7e-4 near x = 2.02
        assert np.max(np.abs(y.value - value)) < 5e-4
        assert np.max(np.abs(x.grad - slope)) < 1e-3

    def test_huge_inputs_saturate_without_warning(self):
        # tanh is exactly +-1 from |x| of about 7.2, on both sides of the clip at 10
        big = np.concatenate([[1e200, 1e300, np.finfo(float).max], np.geomspace(7.5, 1e150, 50)])
        xv = np.concatenate([big, -big])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            y = gelu(constant(xv))
            (grad,) = y._vjp(np.ones_like(xv))
        n = big.size
        assert np.array_equal(y.value, np.concatenate([big, np.zeros(n)]))
        assert np.array_equal(grad, np.concatenate([np.ones(n), np.zeros(n)]))


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

    # three consumers of one node, each a different function of it
    CONSUMERS = (lambda h: sum_all(mul(h, h)),
                 lambda h: sum_all(gelu(h)),
                 lambda h: mean_all(scale(h, 3.0)))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_three_consumers_sum_in_any_creation_order(self, order):
        def f(x):
            h = mul(x, constant([[0.5, -2.0, 1.5]]))
            a, b, c = (self.CONSUMERS[i](h) for i in order)
            return add(add(a, b), c)

        x = np.random.default_rng(11).normal(size=(2, 3))
        assert finite_diff_check(f, x) < 1e-6

    def test_long_chain_runs_without_recursion(self):
        x = constant(np.array([1.0, 2.0]))
        y = x
        for _ in range(20_000):  # far deeper than Python's recursion limit
            y = scale(y, 1.0001)
        backward(sum_all(y))
        assert np.allclose(x.grad, 1.0001 ** 20_000, rtol=1e-9)

    def test_vjp_runs_once_after_all_consumers(self):
        x = constant(np.random.default_rng(12).normal(size=(2, 3)))
        h = gelu(x)
        long = scale(scale(scale(h, 2.0), 3.0), 0.5)  # created before h's other consumers
        root = sum_all(add(mul(long, h), h))
        ran, nodes, stack = [], {id(root): root}, [root]
        while stack:
            for p in stack.pop().parents:
                if id(p) not in nodes:
                    nodes[id(p)] = p
                    stack.append(p)

        def spy(node, vjp):
            def recorded(g):
                ran.append(node)
                return vjp(g)
            return recorded

        for node in nodes.values():
            if node._vjp is not None:
                node._vjp = spy(node, node._vjp)
        backward(root)
        # every VJP ran exactly once, and h's after each of its three consumers
        assert sorted(map(id, ran)) == sorted(id(n) for n in nodes.values() if n._vjp)
        consumers = [n for n in nodes.values() if any(p is h for p in n.parents)]
        assert len(consumers) == 3
        assert max(map(ran.index, consumers)) < ran.index(h)

    @staticmethod
    def _tiny_model_samples(count):
        from prunepose.cli import TINY_MODEL, _model_config
        from prunepose.model import init_model_params
        from prunepose.synth import SynthScene, make_triplet_sample

        cfg = _model_config(TINY_MODEL)
        samples = [make_triplet_sample(SynthScene(seed=s, joints=cfg.joints), cfg)[:2]
                   for s in range(count)]
        return cfg, init_model_params(cfg, 0), samples

    def test_parameter_shared_by_two_samples_gets_the_sum(self):
        from prunepose.model import _mean_loss

        cfg, params, samples = self._tiny_model_samples(2)
        named = params.named_parameters()
        each = []
        for sample in samples:
            backward(_mean_loss([sample], cfg, params))
            each.append([p.grad.copy() for _, p in named])
        backward(_mean_loss(samples, cfg, params))
        for (name, p), g0, g1 in zip(named, *each):
            want = 0.5 * (g0 + g1)
            tol = 1e-13 * max(1.0, np.abs(want).max())  # the sums' order may differ
            assert np.allclose(p.grad, want, rtol=0, atol=tol), name

    def test_second_backward_gives_the_same_gradients(self):
        from prunepose.model import _mean_loss

        cfg, params, samples = self._tiny_model_samples(1)
        loss = _mean_loss(samples, cfg, params)
        backward(loss)
        first = [p.grad.copy() for _, p in params.named_parameters()]
        backward(loss)
        for g, (name, p) in zip(first, params.named_parameters()):
            assert np.array_equal(g, p.grad), name


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

    @pytest.mark.parametrize("eps", [0.0, -1e-5, 0.5, 1e9, float("nan")])
    def test_central_diff_rejects_eps_outside_its_range(self, eps):
        x = constant(np.zeros(2))
        with pytest.raises(ValueError, match=r"\(0, 1e-2\]"):
            _central_diff(lambda: sum_all(x), [("x", x)], [np.ones(2)], eps)

    @pytest.mark.parametrize("name,f", [
        ("softmax", lambda x: sum_all(mul(softmax_rows(x), constant(np.arange(12.0).reshape(3, 4))))),
        ("gelu", lambda x: sum_all(gelu(x))),
        ("upsample", lambda x: sum_all(mul(upsample_bilinear(x, (3, 1), 2),
                                           constant(np.arange(48.0).reshape(12, 4))))),
        ("rows_to_maps", lambda x: sum_all(mul(rows_to_maps(x, (3, 1)),
                                               constant(np.arange(12.0).reshape(4, 3, 1))))),
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


def shifts_rows(q, k, heads):
    """Whether the forward takes each row of logits less its max: unless
    the Cauchy–Schwarz bound s·max|q_i|·max|k_j| on every |logit| is within
    ``_EXP_SAFE``. A NaN bound shifts."""
    s = 1.0 / np.sqrt(q.shape[1] // heads)
    bound = s * np.sqrt((q * q).sum(axis=1).max()) * np.sqrt((k * k).sum(axis=1).max())
    return not bound <= _EXP_SAFE


def per_head_attention(q, k, v, heads):
    """Each head on its own contiguous column slices, through 2-D products:
    per tile of ``ROW_TILE`` query rows, the logits against the pre-scaled
    keys, less their row max when :func:`shifts_rows` says so,
    exponentiated, times the values, then divided by the row sums. The
    heads' outputs are joined by columns."""
    d = q.shape[1] // heads
    shift = shifts_rows(q, k, heads)
    outs = []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        qh, kh, vh = (np.ascontiguousarray(x[:, cols]) for x in (q, k, v))
        ks = kh * (1.0 / np.sqrt(d))
        rows = []
        for lo in range(0, len(q), ROW_TILE):
            p = qh[lo:lo + ROW_TILE] @ ks.T
            p = np.exp(p - p.max(axis=1, keepdims=True) if shift else p)
            rows.append((p @ vh) / p.sum(axis=1, keepdims=True))
        outs.append(np.concatenate(rows))
    return np.concatenate(outs, axis=1)


def query_tile_attention(q, k, v, heads):
    """The forward's arithmetic written out on the stacked (heads, N, d)
    layout: K scaled by 1/sqrt(d) first, then per tile of ``ROW_TILE`` query
    rows the logits, less their row max when :func:`shifts_rows` says so,
    exponentiated, summed and multiplied by V; the (heads, Nq, d) output is
    divided by the row sums at the end."""
    qh, kh, vh = (_split_heads(x, heads) for x in (q, k, v))
    ks = kh * (1.0 / np.sqrt(q.shape[1] // heads))
    shift = shifts_rows(q, k, heads)
    out, total = np.empty(qh.shape), np.empty(qh.shape[:2] + (1,))
    for lo in range(0, len(q), ROW_TILE):
        r = slice(lo, lo + ROW_TILE)
        p = qh[:, r] @ ks.transpose(0, 2, 1)
        p = np.exp(p - p.max(axis=-1, keepdims=True) if shift else p)
        total[:, r] = p.sum(axis=-1, keepdims=True)
        out[:, r] = p @ vh
    return _merge_heads(out / total)


def textbook_attention(q, k, v, heads):
    """softmax(s·Q Kᵀ) V with its VJP, every pass over the whole (heads, Nq,
    Nk) array; given longdouble inputs, the extended-precision reference.
    Returns the output and the VJP."""
    qh, kh, vh = (_split_heads(x, heads) for x in (q, k, v))
    s = 1.0 / np.sqrt(q.shape[1] // heads)
    logits = qh @ kh.transpose(0, 2, 1)
    logits *= s
    p = _softmax(logits)

    def vjp(g):
        gh = _split_heads(g, heads)
        g_logits = _softmax_vjp(p, gh @ vh.transpose(0, 2, 1))
        g_logits *= s
        return (_merge_heads(g_logits @ kh),
                _merge_heads(g_logits.transpose(0, 2, 1) @ qh),
                _merge_heads(p.transpose(0, 2, 1) @ gh))

    return _merge_heads(p @ vh), vjp


class TestAttention:
    NQ, NK, C = 5, 7, 8

    def _qkv(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(self.NQ, self.C)), rng.normal(size=(self.NK, self.C)),
                rng.normal(size=(self.NK, self.C)))

    @staticmethod
    def _assert_near_textbook(out, q, k, v, heads):
        # the output in float64 is within 1e-13 of its own largest entry
        # of the exact softmax(s·Q Kᵀ) V
        ref = textbook_attention(*(x.astype(np.longdouble) for x in (q, k, v)), heads)[0]
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_reference_exactly(self, heads, shift_calls):
        # three query tiles, the last of 3 rows, against 70 keys
        self._check_both_references(heads, 1.0)
        assert shift_calls == [False]

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_scaled_queries_take_the_shifted_path_exactly(self, heads, scale, shift_calls):
        # queries scaled by 1e3 or 1e6 put the logit bound past _EXP_SAFE,
        # so the rows are shifted by their max
        self._check_both_references(heads, scale)
        assert shift_calls == [True]

    def _check_both_references(self, heads, scale):
        rng = np.random.default_rng(heads)
        q = rng.normal(size=(2 * ROW_TILE + 3, self.C)) * scale
        k, v = rng.normal(size=(70, self.C)), rng.normal(size=(70, self.C))
        out = attention(constant(q), constant(k), constant(v), heads).value
        assert np.array_equal(out, per_head_attention(q, k, v, heads))
        assert np.array_equal(out, query_tile_attention(q, k, v, heads))
        self._assert_near_textbook(out, q, k, v, heads)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("nk", [1, 7, 192])
    @pytest.mark.parametrize("nq", [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE + 3])
    def test_row_tiles_match_the_whole_array_op_bit_for_bit(self, nq, nk, heads):
        rng = np.random.default_rng(nq * 1000 + nk * 10 + heads)
        q, g = rng.normal(size=(nq, 32)), rng.normal(size=(nq, 32))
        k, v = rng.normal(size=(nk, 32)), rng.normal(size=(nk, 32))
        node = attention(constant(q), constant(k), constant(v), heads)
        grads = node._vjp(g)
        assert np.array_equal(node.value, query_tile_attention(q, k, v, heads))
        self._assert_near_textbook(node.value, q, k, v, heads)
        # the VJP recomputes the softmax per query tile and sums dv over the
        # tiles, so every gradient follows another sum order than the
        # whole-array formulas: compare with them in extended precision, each
        # relative to its own largest entry. At nk = 1 the exact dq and dk are
        # 0 and the row dots leave rounding noise, so the scale there is that
        # of the products' absolute terms, |g||v|ᵀ|k| and (|g||v|ᵀ)ᵀ|q|
        _, exact_vjp = textbook_attention(*(x.astype(np.longdouble) for x in (q, k, v)),
                                          heads)
        refs = exact_vjp(g.astype(np.longdouble))
        qa, ka, va, ga = (np.abs(_split_heads(x, heads)) for x in (q, k, v, g))
        terms = ga @ va.transpose(0, 2, 1) / np.sqrt(32 // heads)
        floors = (terms @ ka, terms.transpose(0, 2, 1) @ qa, np.abs(refs[2]))  # dv is never 0
        for got, ref, floor in zip(grads, refs, floors):
            scale = np.abs(ref).max() or floor.max()
            assert np.abs(got - ref).max() <= 1e-13 * scale
        # and a second call gives the same bits
        for got, again in zip(grads, node._vjp(g)):
            assert np.array_equal(got, again)

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("nk", [1, 7, 192, 512, 576, 768])
    @pytest.mark.parametrize("nq", [1, 7, 192, 512, 576, 768])
    def test_forward_matches_query_tile_reference_at_model_sizes(self, nq, nk, heads,
                                                                 shift_calls):
        # the token counts of the model's blocks: 192 and 576 lr, 512 pruned
        # hr, 768 hr in train_mid
        rng = np.random.default_rng(nq * 1000 + nk * 10 + heads)
        q, k, v = rng.normal(size=(nq, 32)), rng.normal(size=(nk, 32)), rng.normal(size=(nk, 32))
        out = attention(constant(q), constant(k), constant(v), heads).value
        assert shift_calls == [False]
        assert np.array_equal(out, query_tile_attention(q, k, v, heads))
        self._assert_near_textbook(out, q, k, v, heads)

    @pytest.mark.parametrize("v_scale", ["1", "1e-80", "1e80/nk"])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("nk", [7, 70])
    def test_logits_near_the_bound_stay_finite_and_exact(self, nk, heads, v_scale,
                                                         shift_calls):
        # q and k rows of +-45/4 along one direction plus 0/+-1 noise that
        # sums to 0 per row, in head 0's 16 columns (s = 1/4): every logit
        # is exact in float64, 506.25 + n_i·m_j/4 or its negative, and the
        # bound, 510.25 at most, just within _EXP_SAFE; unshifted, exp runs
        # to about e^+-510, near both ends of its safe range, and its
        # products with values from 1e-80 to 1e80/nk stay normal and finite
        rng = np.random.default_rng(nk + heads)
        d, nq = 16, ROW_TILE + 5

        def rows(n, signs):
            noise = rng.integers(-1, 2, size=(n, d // 2))
            x = np.zeros((n, d * heads))
            x[:, :d] = signs[:, None] * 45 / 4 + np.concatenate([noise, -noise], axis=1)
            return x

        q = rows(nq, np.where(np.arange(nq) % 2, -1.0, 1.0))
        k = rows(nk, np.ones(nk))
        v, g = rng.normal(size=(nk, d * heads)), rng.normal(size=(nq, d * heads))
        v *= {"1": 1.0, "1e-80": 1e-80, "1e80/nk": 1e80 / nk}[v_scale]
        logits = q[:, :d] @ k[:, :d].T / 4
        assert 500 < np.abs(logits).max() and shifts_rows(q, k, heads) is False
        node = attention(constant(q), constant(k), constant(v), heads)
        grads = node._vjp(g)
        assert shift_calls == [False]
        assert np.array_equal(node.value, query_tile_attention(q, k, v, heads))
        out, exact_vjp = textbook_attention(*(x.astype(np.longdouble) for x in (q, k, v)),
                                            heads)
        for got, ref in zip((node.value, *grads), (out, *exact_vjp(g.astype(np.longdouble)))):
            assert np.isfinite(got).all()
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("where", ["q", "k"])
    def test_nan_input_takes_the_shifted_path(self, where, shift_calls):
        # a NaN bound shifts, as every call did before the bound existed: a
        # NaN in a query row spoils that row of its head, one in a key row
        # the whole head
        heads, rng = 2, np.random.default_rng(3)
        q, k, v = (rng.normal(size=(n, self.C)) for n in (self.NQ, self.NK, self.NK))
        (q if where == "q" else k)[1, 5] = np.nan
        out = attention(constant(q), constant(k), constant(v), heads).value
        assert shift_calls == [True]
        assert np.array_equal(out, query_tile_attention(q, k, v, heads), equal_nan=True)
        spoiled = np.zeros_like(out, dtype=bool)
        spoiled[1 if where == "q" else slice(None), 4:] = True
        assert np.array_equal(np.isnan(out), spoiled)

    def test_forward_peak_memory_stays_near_one_tile(self):
        # the forward forms its logits one (heads, ROW_TILE, Nk) tile at a
        # time in one reused buffer; the rest is (N, C)-sized
        n, heads = 768, 4
        rng = np.random.default_rng(0)
        q, k, v = (constant(rng.normal(size=(n, 32))) for _ in range(3))
        tracemalloc.start()
        try:
            attention(q, k, v, heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * heads * ROW_TILE * n * 8

    def test_node_keeps_no_score_array(self):
        # the node keeps one log-sum-exp per query row, not the softmax
        n, heads = 768, 4
        rng = np.random.default_rng(0)
        q, k, v = (constant(rng.normal(size=(n, 32))) for _ in range(3))
        tracemalloc.start()
        try:
            node = attention(q, k, v, heads)
            kept = tracemalloc.get_traced_memory()[0] - node.value.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 0.05 * heads * n * n * 8

    def test_vjp_peak_memory_stays_near_two_score_arrays(self):
        # the VJP recomputes the softmax and forms the logit gradient in
        # tile-sized buffers, with no full-size (heads, Nq, Nk) array
        n, heads = 768, 4
        rng = np.random.default_rng(0)
        q, k, v, g = (rng.normal(size=(n, 32)) for _ in range(4))
        tracemalloc.start()
        try:
            node = attention(constant(q), constant(k), constant(v), heads)
            tracemalloc.reset_peak()
            node._vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * heads * n * n * 8

    def test_vjp_allocates_no_full_score_gradient(self):
        # the logit gradient lives one (heads, ROW_TILE, Nk) tile at a time
        n, heads = 768, 4
        rng = np.random.default_rng(0)
        q, k, v, g = (rng.normal(size=(n, 32)) for _ in range(4))
        node = attention(constant(q), constant(k), constant(v), heads)
        tracemalloc.start()
        try:
            node._vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * heads * n * n * 8

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
        (((0, 8), (7, 8), (7, 8)), 2),   # no query rows
        (((5, 8), (0, 8), (0, 8)), 2),   # no key rows
        (((5, 0), (7, 0), (7, 0)), 2),   # no columns
        # head counts that are not integers >= 1
        *((((5, 8), (7, 8), (7, 8)), h) for h in (-1, True, False, 2.0, "2", None)),
    ])
    def test_bad_shapes_rejected(self, shapes, heads):
        q, k, v = (constant(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError):
            attention(q, k, v, heads)

    def test_numpy_integer_head_count_accepted(self):
        q, k, v = (constant(x) for x in self._qkv(0))
        assert np.array_equal(attention(q, k, v, np.int64(2)).value,
                              attention(q, k, v, 2).value)

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
