"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything is plain numpy under the hood. A ``DiffNode`` holds its value as
a float64 ndarray together with the bookkeeping needed to run a backward pass
from a scalar output. All operations are pure: they never modify their inputs.
An affine layer is one node, because ``matmul`` takes the bias, and ``add``,
``sub`` and ``mul`` share one broadcasting op. The central-difference loop of
every gradient check lives here too, and so does the one bilinear corner list:
``upsample_bilinear``'s forward, its VJP and ``synth``'s crops all read the
same four (index, weight) corners; the forward gathers them with 1-D takes.
``attention`` runs its softmax on tiles of ``ROW_TILE`` query rows, which
stay in cache, while its forward products stay whole-array BLAS calls, so
tiling changes no forward bit. It keeps one log-sum-exp per query row, not
the softmax: its VJP recomputes the softmax and forms the logit gradient one
query tile at a time, so no (heads, Nq, Nk) array outlives a call.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import types
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "ShapeError",
    "DiffNode",
    "constant",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "sum_all",
    "mean_all",
    "softmax_rows",
    "attention",
    "gelu",
    "layer_norm_rows",
    "upsample_bilinear",
    "gather_rows",
    "scatter_rows",
    "concat_rows",
    "reshape",
    "permute",
    "finite_diff_check",
    "mac_tally",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------

_tallies: list = []  # the open mac_tally blocks, outermost first


def _record_macs(n: int):
    for tally in _tallies:
        tally.macs += int(n)


@contextlib.contextmanager
def mac_tally():
    """Context manager counting the multiply-accumulates, computed analytically
    from shapes, of the ops run inside the block; it yields an object whose
    ``macs`` holds the count. Nested tallies each count."""
    tally = types.SimpleNamespace(macs=0)
    _tallies.append(tally)
    try:
        yield tally
    finally:
        _tallies.remove(tally)


# ---------------------------------------------------------------------------
# Autodiff graph
# ---------------------------------------------------------------------------

_created = itertools.count()  # creation order of DiffNodes, for backward


class DiffNode:
    """A value in the computation graph.

    ``value`` is a float64 C-contiguous ndarray. ``grad`` is populated (as an
    ndarray of the same shape) by :func:`backward` run from a scalar output.
    Leaf nodes are created with :func:`constant`; interior nodes carry a
    vector-Jacobian-product closure.
    """

    __slots__ = ("value", "grad", "parents", "_vjp", "name", "_order")

    def __init__(self, value, parents=(), vjp=None, name: str | None = None):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim and not value.flags["C_CONTIGUOUS"]:
            value = np.ascontiguousarray(value)
        self.value = value
        self.grad: np.ndarray | None = None
        self.parents: tuple = tuple(parents)
        self._vjp = vjp
        self.name = name
        self._order = next(_created)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"DiffNode(shape={self.shape}{tag})"


def constant(data, name: str | None = None) -> DiffNode:
    """A leaf node; parameters are leaves that training updates in place."""
    return DiffNode(data, name=name)


def backward(root: DiffNode):
    """Populate ``grad`` for every node reachable from the scalar ``root``,
    newest first: an op creates its node after its inputs, so a node runs
    after all of its consumers."""
    if root.value.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {root.shape}")
    grads: dict[int, np.ndarray] = {id(root): np.ones(root.shape)}
    pending = [(-root._order, root)]  # orders are unique: no two nodes compared
    while pending:
        node = heapq.heappop(pending)[1]
        node.grad = g = grads.pop(id(node))
        if node._vjp is None:
            continue
        for p, pg in zip(node.parents, node._vjp(g)):
            acc = grads.get(id(p))
            if acc is None:
                grads[id(p)] = np.array(pg, dtype=np.float64, order="C")
                heapq.heappush(pending, (-p._order, p))
            else:
                acc += pg


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def matmul(a: DiffNode, b: DiffNode, bias: DiffNode | None = None) -> DiffNode:
    """Matrix product of two 2-D nodes, plus ``bias``, of shape (n,), on every
    row of the (m, n) product when given: an affine layer in one node."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul shapes do not conform: {av.shape} x {bv.shape}")
    (m, k), n = av.shape, bv.shape[1]
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"matmul bias shape {bias.shape} != ({n},)")
    _record_macs(m * k * n)
    out = av @ bv
    if bias is None:
        return DiffNode(out, (a, b), lambda g: (g @ bv.T, av.T @ g))
    out += bias.value
    return DiffNode(out, (a, b, bias), lambda g: (g @ bv.T, av.T @ g, g.sum(axis=0)))


def _broadcast(f, a: DiffNode, b: DiffNode, vjp) -> DiffNode:
    """``f(a, b)`` under numpy broadcasting. ``vjp(g, av, bv)`` gives both
    operands' gradients at the output's shape; each is summed to its operand's."""
    av, bv = a.value, b.value
    try:
        out = f(av, bv)
    except ValueError as e:
        raise ShapeError(f"{f.__name__} shapes do not broadcast: {av.shape}, {bv.shape}") from e
    return DiffNode(out, (a, b), lambda g: tuple(
        _unbroadcast(gx, x.shape) for gx, x in zip(vjp(g, av, bv), (av, bv))))


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    return _broadcast(np.add, a, b, lambda g, av, bv: (g, g))


def sub(a: DiffNode, b: DiffNode) -> DiffNode:
    return _broadcast(np.subtract, a, b, lambda g, av, bv: (g, -g))


def mul(a: DiffNode, b: DiffNode) -> DiffNode:
    return _broadcast(np.multiply, a, b, lambda g, av, bv: (g * bv, g * av))


def scale(a: DiffNode, s: float) -> DiffNode:
    out = a.value * s
    return DiffNode(out, (a,), lambda g: (g * s,))


def sum_all(a: DiffNode) -> DiffNode:
    out = np.array(a.value.sum())
    return DiffNode(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def mean_all(a: DiffNode) -> DiffNode:
    n = a.value.size
    out = np.array(a.value.mean())
    return DiffNode(out, (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),))


ROW_TILE = 64  # query rows per tile in attention's softmax and its VJP


def _softmax(x: np.ndarray, lse: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, stabilized by max subtraction, written
    over ``x``. When given, ``lse`` receives each row's log-sum-exp,
    max + log(sum), from the same pass."""
    top = x.max(axis=-1, keepdims=True)
    x -= top
    np.exp(x, out=x)
    total = x.sum(axis=-1, keepdims=True)
    x /= total
    if lse is not None:
        np.log(total, out=lse)
        lse += top
    return x


def _softmax_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``s = _softmax(logits)``, given ``g`` at ``s``,
    written over ``g``."""
    g -= (g * s).sum(axis=-1, keepdims=True)
    g *= s
    return g


def softmax_rows(x: DiffNode) -> DiffNode:
    """Row-wise softmax of a 2-D node, stabilized by max subtraction."""
    xv = x.value
    if xv.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {xv.shape}")
    s = _softmax(xv.copy())
    return DiffNode(s, (x,), lambda g: (_softmax_vjp(s, g.copy()),))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(N, heads * d) -> a (heads, N, d) view; head h holds columns h*d:(h+1)*d."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_split_heads`, as a new (N, heads * d) array."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def attention(q: DiffNode, k: DiffNode, v: DiffNode, heads: int) -> DiffNode:
    """Multi-head scaled dot-product attention, heads split along columns.

    ``q`` is (Nq, C) and ``k``, ``v`` are (Nk, C). Head h attends with columns
    h*d:(h+1)*d, d = C // heads, and writes the same columns of the (Nq, C)
    output. No (heads, Nq, Nk) array outlives the call: the backward pass
    keeps one log-sum-exp per query row and recomputes the softmax.

    The forward softmax is a pass over memory, so it runs on tiles of
    ``ROW_TILE`` query rows, (heads, ROW_TILE, Nk) slices that stay in cache;
    its products stay whole-array calls, the same BLAS calls as untiled, so
    the output's bits do not depend on the tile. Each tile's max and sum give
    the rows' log-sum-exp L. The VJP works one query tile at a time in two
    reused (heads, ROW_TILE, Nk) buffers (FlashAttention): P = exp(s·Q Kᵀ − L)
    is one product of the tile's rows [Q | −L] with [s·K | 1], then
    dV += Pᵀ dO. The softmax backward needs only the row dots
    D = rowsum(dP * P), which equal rowsum(dO * O), so [dO | −D] @ [V | 1]ᵀ
    gives dP − D in one product; times P it is the tile's logit gradient,
    which adds to dq and dk. These take the 1/sqrt(d) scale s once, as
    (N, C) results.
    """
    qv, kv, vv = q.value, k.value, v.value
    if (qv.ndim != 2 or kv.ndim != 2 or kv.shape != vv.shape
            or qv.shape[1] != kv.shape[1]):
        raise ShapeError(f"attention shapes do not conform: q {qv.shape}, "
                         f"k {kv.shape}, v {vv.shape}")
    (nq, c), nk = qv.shape, kv.shape[0]
    for size, what in ((nq, "query rows"), (nk, "key rows"), (c, "columns")):
        if not size:
            raise ShapeError(f"attention got no {what}: q {qv.shape}, k {kv.shape}")
    if heads < 1 or c % heads:
        raise ShapeError(f"width {c} not divisible by {heads} heads")
    d = c // heads
    qh, kh, vh = (_split_heads(x, heads) for x in (qv, kv, vv))
    s = 1.0 / math.sqrt(d)  # a float, not a numpy scalar: cheaper at tiny sizes
    _record_macs(2 * heads * nq * nk * d)
    tiles = [slice(lo, min(lo + ROW_TILE, nq)) for lo in range(0, nq, ROW_TILE)]
    p = qh @ kh.transpose(0, 2, 1)
    lse = np.empty((heads, nq, 1))
    for r in tiles:
        tile = p[:, r]
        tile *= s
        _softmax(tile, lse[:, r])
    out = _merge_heads(p @ vh)

    def vjp(g):
        gh = _split_heads(g, heads)
        dots = (gh * _split_heads(out, heads)).sum(axis=-1, keepdims=True)
        dq = np.empty((nq, c))
        dqh = _split_heads(dq, heads)
        # dk and dv add up over the tiles in contiguous arrays: adding into
        # the strided head views of an (Nk, C) array is slower
        dkh, dvh = np.zeros((heads, nk, d)), np.zeros((heads, nk, d))
        k1, v1 = np.ones((heads, nk, d + 1)), np.ones((heads, nk, d + 1))
        np.multiply(kh, s, out=k1[..., :d])
        v1[..., :d] = vh
        k1t, v1t = k1.transpose(0, 2, 1), v1.transpose(0, 2, 1)
        rows = min(nq, ROW_TILE)
        prob, grad = np.empty((heads, rows, nk)), np.empty((heads, rows, nk))
        q1, g1 = np.empty((heads, rows, d + 1)), np.empty((heads, rows, d + 1))
        for r in tiles:
            t = r.stop - r.start
            qt, gt = q1[:, :t], g1[:, :t]
            qt[..., :d] = qh[:, r]
            np.negative(lse[:, r], out=qt[..., d:])
            pt = np.matmul(qt, k1t, out=prob[:, :t])
            np.exp(pt, out=pt)
            dvh += pt.transpose(0, 2, 1) @ gh[:, r]
            gt[..., :d] = gh[:, r]
            np.negative(dots[:, r], out=gt[..., d:])
            tile = np.matmul(gt, v1t, out=grad[:, :t])
            tile *= pt
            np.matmul(tile, kh, out=dqh[:, r])
            dkh += tile.transpose(0, 2, 1) @ qh[:, r]
        dk = _merge_heads(dkh)
        dq *= s
        dk *= s
        return dq, dk, _merge_heads(dvh)

    return DiffNode(out, (q, k, v), vjp)


def gelu(x: DiffNode) -> DiffNode:
    """Exact (erf-based) GELU, elementwise."""
    xv = x.value
    cdf = 0.5 * (1.0 + erf(xv / np.sqrt(2.0)))
    out = xv * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * xv * xv) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + xv * pdf),)

    return DiffNode(out, (x,), vjp)


def layer_norm_rows(x: DiffNode, gain: DiffNode, bias: DiffNode,
                    eps: float = 1e-5) -> DiffNode:
    """Normalize each row of a 2-D node, then apply elementwise gain and bias."""
    xv = x.value
    if xv.ndim != 2:
        raise ShapeError(f"layer_norm_rows expects a matrix, got shape {xv.shape}")
    # numpy's own mean and var steps, with the rows centred once
    n = xv.shape[1]
    mu = np.add.reduce(xv, axis=1, keepdims=True) / n
    xc = xv - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gv, bv = gain.value, bias.value
    out = xhat * gv + bv

    def vjp(g):
        g_gain = _unbroadcast(g * xhat, gv.shape)
        g_bias = _unbroadcast(g, bv.shape)
        gh = g * gv
        g_x = inv * (gh - gh.mean(axis=1, keepdims=True)
                     - xhat * (gh * xhat).mean(axis=1, keepdims=True))
        return g_x, g_gain, g_bias

    return DiffNode(out, (x, gain, bias), vjp)


def _bilinear_axis(start: float, length: float, n_in: int, n_out: int):
    """Align-corners=false sampling of ``n_out`` pixel centres over the window
    [start, start + length) of an ``n_in``-pixel axis, clamped to the axis:
    the source index below each point, the one above, and the upper weight."""
    coords = start + (np.arange(n_out) + 0.5) * length / n_out - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, coords - lo


def _corners(rows, cols) -> list:
    """``((row indices, column indices), (row factor, column factor))`` of the
    corners (y0, x0), (y0, x1), (y1, x0), (y1, x1) of a bilinear resample at
    the :func:`_bilinear_axis` points ``rows``, ``cols``. A corner's weight is
    the product of its two factors, (H, 1, 1) and (1, W, 1), so any row slice
    of it can be formed on its own with the same bits."""
    (y0, y1, wy), (x0, x1, wx) = rows, cols
    wy, wx = wy[:, None, None], wx[None, :, None]
    return [((y0, x0), (1 - wy, 1 - wx)), ((y0, x1), (1 - wy, wx)),
            ((y1, x0), (wy, 1 - wx)), ((y1, x1), (wy, wx))]


# _bilinear works on row tiles whose row takes and term buffer stay within
# this many bytes: heap memory that is reused, where whole-image temporaries
# are mapped afresh and page-faulted in on every call
BILINEAR_TILE_BYTES = 1 << 17


def _bilinear(image: np.ndarray, corners) -> np.ndarray:
    """Bilinear resample of an HxWxC float64 array: the weighted sum of its
    four :func:`_corners`, the list that the upsample VJP scatters back
    through. Per tile of output rows, the top and bottom source rows are
    taken once each and their columns taken from them; the terms add up in
    corner order, ``((a + b) + c) + d``, so the bits do not depend on the
    tiling. The indices are in range, and ``mode="clip"`` spares the copy of
    ``out`` that ``take`` buffers under its default mode."""
    ((y0, x0), f0), ((_, x1), f1), ((y1, _), f2), (_, f3) = corners
    out = np.empty((len(y0), len(x0), image.shape[2]))
    step = max(1, BILINEAR_TILE_BYTES // (out.itemsize * image.shape[2]
                                          * max(image.shape[1], len(x0))))
    buf = np.empty((step,) + out.shape[1:])
    for r in range(0, len(y0), step):
        rows = slice(r, r + step)
        acc = out[rows]
        term = buf[:len(acc)]
        top, bottom = image.take(y0[rows], axis=0), image.take(y1[rows], axis=0)
        top.take(x0, axis=1, out=acc, mode="clip")
        acc *= f0[0][rows] * f0[1]
        for src, cols, (fy, fx) in ((top, x1, f1), (bottom, x0, f2), (bottom, x1, f3)):
            src.take(cols, axis=1, out=term, mode="clip")
            term *= fy[rows] * fx
            acc += term
    return out


def upsample_bilinear(x: DiffNode, factor: int) -> DiffNode:
    """Upsample an HxWxC node by an integer factor per spatial side."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"upsample factor must be a positive integer, got {factor!r}")
    xv = x.value
    if xv.ndim != 3:
        raise ShapeError(f"upsample_bilinear expects HxWxC, got shape {xv.shape}")
    h, w, _ = xv.shape
    corners = _corners(_bilinear_axis(0, h, h, h * factor),
                       _bilinear_axis(0, w, w, w * factor))
    out = _bilinear(xv, corners)
    _record_macs(4 * out.size)

    def vjp(g):
        gx = np.zeros_like(xv)
        for (ys, xs), (fy, fx) in corners:
            np.add.at(gx, np.ix_(ys, xs), fy * fx * g)
        return (gx,)

    return DiffNode(out, (x,), vjp)


def _check_row_indices(idx, n: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise IndexError(f"row indices must be a flat list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range [0, {n}): {idx}")
    if len(np.unique(idx)) != idx.size:
        raise IndexError("duplicate row indices are not allowed")
    return idx


def gather_rows(x: DiffNode, idx) -> DiffNode:
    """Select rows of a 2-D node in the given order."""
    xv = x.value
    if xv.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {xv.shape}")
    idx = _check_row_indices(idx, xv.shape[0])
    out = xv[idx]

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[idx] = g
        return (gx,)

    return DiffNode(out, (x,), vjp)


def scatter_rows(base: DiffNode, idx, rows: DiffNode) -> DiffNode:
    """Overwrite the given rows of a copy of ``base`` with ``rows``."""
    bv, rv = base.value, rows.value
    if bv.ndim != 2 or rv.ndim != 2 or bv.shape[1] != rv.shape[1]:
        raise ShapeError(f"scatter_rows shapes do not conform: {bv.shape}, {rv.shape}")
    idx = _check_row_indices(idx, bv.shape[0])
    if idx.size != rv.shape[0]:
        raise IndexError(f"got {idx.size} indices for {rv.shape[0]} rows")
    out = bv.copy()
    out[idx] = rv

    def vjp(g):
        g_base = g.copy()
        g_base[idx] = 0.0
        return g_base, g[idx].copy()

    return DiffNode(out, (base, rows), vjp)


def concat_rows(nodes: Sequence[DiffNode]) -> DiffNode:
    nodes = list(nodes)
    widths = {n.value.shape[1] for n in nodes}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows widths differ: {sorted(widths)}")
    sizes = [n.value.shape[0] for n in nodes]
    out = np.concatenate([n.value for n in nodes], axis=0)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=0))

    return DiffNode(out, tuple(nodes), vjp)


def reshape(x: DiffNode, shape) -> DiffNode:
    xv = x.value
    out = xv.reshape(shape)
    return DiffNode(out.copy(), (x,), lambda g: (g.reshape(xv.shape),))


def permute(x: DiffNode, axes) -> DiffNode:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = np.transpose(x.value, axes)
    return DiffNode(out.copy(), (x,), lambda g: (np.transpose(g, inverse),))


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def _central_diff(loss_at: Callable[[], DiffNode], named, grads, eps: float,
                  max_coords: int | None = None):
    """Worst ``|analytic - central| / max(1, |central|)`` over the coordinates
    of each (name, node) in ``named``, or its first ``max_coords``, and its
    ``"name[i]"``. ``grads`` holds each node's analytic gradient; each
    coordinate is moved by +-eps in place for two ``loss_at()`` calls, then
    restored. An eps outside (0, 1e-2] says nothing about the gradient, so it
    raises ``ValueError``."""
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    if max_coords is not None and max_coords < 1:
        raise ValueError(f"coordinates per parameter must be >= 1, got {max_coords}")
    worst, where = 0.0, None
    for (name, node), grad in zip(named, grads):
        flat = node.value.reshape(-1)  # a view: values are C-contiguous
        gflat = grad.reshape(-1)
        for i in range(flat.size if max_coords is None else min(flat.size, max_coords)):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_at().value)
            flat[i] = orig - eps
            lo = float(loss_at().value)
            flat[i] = orig
            central = (hi - lo) / (2.0 * eps)
            err = abs(gflat[i] - central) / max(1.0, abs(central))
            if np.isnan(err):  # a NaN gradient or loss must fail, not compare false
                err = np.inf
            if err > worst:
                worst, where = err, f"{name}[{i}]"
    return worst, where


def finite_diff_check(f: Callable[[DiffNode], DiffNode], x, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    Returns the max over coordinates of
    ``|analytic - central| / max(1, |central|)``.
    """
    leaf = DiffNode(np.array(x, dtype=np.float64))
    out = f(leaf)
    if out.value.size != 1:
        raise ShapeError(f"finite_diff_check needs a scalar function, got shape {out.shape}")
    backward(out)
    return _central_diff(lambda: f(leaf), [("x", leaf)], [leaf.grad], eps)[0]
