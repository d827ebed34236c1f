"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything is plain numpy under the hood. A ``DiffNode`` wraps a ``Tensor``
value together with the bookkeeping needed to run a backward pass from a
scalar output. All operations are pure: they never modify their inputs.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "ShapeError",
    "Tensor",
    "DiffNode",
    "constant",
    "parameter",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "sum_all",
    "mean_all",
    "softmax_rows",
    "gelu",
    "layer_norm_rows",
    "upsample_bilinear",
    "gather_rows",
    "scatter_rows",
    "slice_cols",
    "concat_rows",
    "reshape",
    "permute",
    "finite_diff_check",
    "mac_tally",
    "MacTally",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class Tensor:
    """Immutable-by-convention dense array of float64 values."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------

class MacTally:
    """Accumulates multiply-accumulate counts, computed analytically from shapes."""

    def __init__(self):
        self.macs = 0

    def add(self, n: int):
        self.macs += int(n)


_tally_stack = threading.local()


def _record_macs(n: int):
    stack = getattr(_tally_stack, "stack", None)
    if stack:
        for tally in stack:
            tally.add(n)


@contextlib.contextmanager
def mac_tally():
    """Context manager counting matmul MACs performed inside the block."""
    tally = MacTally()
    stack = getattr(_tally_stack, "stack", None)
    if stack is None:
        stack = _tally_stack.stack = []
    stack.append(tally)
    try:
        yield tally
    finally:
        stack.remove(tally)


# ---------------------------------------------------------------------------
# Autodiff graph
# ---------------------------------------------------------------------------

class DiffNode:
    """A value in the computation graph.

    ``grad`` is populated (as a Tensor of the same shape) by :func:`backward`
    run from a scalar output. Leaf nodes are created with :func:`constant` or
    :func:`parameter`; interior nodes carry a vector-Jacobian-product closure.
    """

    __slots__ = ("value", "grad", "parents", "_vjp", "name")

    def __init__(self, value, parents=(), vjp=None, name: str | None = None):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.grad: Tensor | None = None
        self.parents: tuple = tuple(parents)
        self._vjp = vjp
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"DiffNode(shape={self.shape}{tag})"


def constant(data, name: str | None = None) -> DiffNode:
    return DiffNode(data, name=name)


def parameter(data, name: str | None = None) -> DiffNode:
    """Alias of :func:`constant`; parameters are just leaves that get updated."""
    return DiffNode(data, name=name)


def _toposort(root: DiffNode) -> list[DiffNode]:
    order: list[DiffNode] = []
    seen: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: DiffNode):
    """Populate ``grad`` for every node reachable from the scalar ``root``."""
    if root.value.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {root.shape}")
    order = _toposort(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones(root.shape)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            g = np.zeros(node.shape)
        node.grad = Tensor(g)
        if node._vjp is None:
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            acc = grads.get(id(p))
            if acc is None:
                grads[id(p)] = np.array(pg, dtype=np.float64, copy=True)
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


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    """Matrix product of two 2-D nodes."""
    av, bv = a.value.data, b.value.data
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul shapes do not conform: {av.shape} x {bv.shape}")
    m, k = av.shape
    n = bv.shape[1]
    _record_macs(m * k * n)
    out = av @ bv

    def vjp(g):
        return g @ bv.T, av.T @ g

    return DiffNode(out, (a, b), vjp)


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    av, bv = a.value.data, b.value.data
    try:
        out = av + bv
    except ValueError as e:
        raise ShapeError(f"add shapes do not broadcast: {av.shape} + {bv.shape}") from e

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return DiffNode(out, (a, b), vjp)


def sub(a: DiffNode, b: DiffNode) -> DiffNode:
    av, bv = a.value.data, b.value.data
    try:
        out = av - bv
    except ValueError as e:
        raise ShapeError(f"sub shapes do not broadcast: {av.shape} - {bv.shape}") from e

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return DiffNode(out, (a, b), vjp)


def mul(a: DiffNode, b: DiffNode) -> DiffNode:
    av, bv = a.value.data, b.value.data
    try:
        out = av * bv
    except ValueError as e:
        raise ShapeError(f"mul shapes do not broadcast: {av.shape} * {bv.shape}") from e

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return DiffNode(out, (a, b), vjp)


def scale(a: DiffNode, s: float) -> DiffNode:
    out = a.value.data * s
    return DiffNode(out, (a,), lambda g: (g * s,))


def sum_all(a: DiffNode) -> DiffNode:
    out = np.array(a.value.data.sum())
    return DiffNode(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def mean_all(a: DiffNode) -> DiffNode:
    n = a.value.size
    out = np.array(a.value.data.mean())
    return DiffNode(out, (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),))


def softmax_rows(x: DiffNode) -> DiffNode:
    """Row-wise softmax of a 2-D node, stabilized by max subtraction."""
    xv = x.value.data
    if xv.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {xv.shape}")
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return DiffNode(s, (x,), vjp)


def gelu(x: DiffNode) -> DiffNode:
    """Exact (erf-based) GELU, elementwise."""
    xv = x.value.data
    cdf = 0.5 * (1.0 + erf(xv / np.sqrt(2.0)))
    out = xv * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * xv * xv) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + xv * pdf),)

    return DiffNode(out, (x,), vjp)


def layer_norm_rows(x: DiffNode, gain: DiffNode, bias: DiffNode,
                    eps: float = 1e-5) -> DiffNode:
    """Normalize each row of a 2-D node, then apply elementwise gain and bias."""
    xv = x.value.data
    if xv.ndim != 2:
        raise ShapeError(f"layer_norm_rows expects a matrix, got shape {xv.shape}")
    n = xv.shape[1]
    mu = xv.mean(axis=1, keepdims=True)
    var = xv.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    gv, bv = gain.value.data, bias.value.data
    out = xhat * gv + bv

    def vjp(g):
        g_gain = _unbroadcast(g * xhat, gv.shape)
        g_bias = _unbroadcast(g, bv.shape)
        gh = g * gv
        g_x = inv * (gh - gh.mean(axis=1, keepdims=True)
                     - xhat * (gh * xhat).mean(axis=1, keepdims=True))
        return g_x, g_gain, g_bias

    return DiffNode(out, (x, gain, bias), vjp)


def _bilinear_axis(n_in: int, factor: int):
    """Source indices and weights for align-corners=false upsampling."""
    coords = (np.arange(n_in * factor) + 0.5) / factor - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    w_hi = coords - lo
    return lo, hi, w_hi


def upsample_bilinear(x: DiffNode, factor: int) -> DiffNode:
    """Upsample an HxWxC node by an integer factor per spatial side."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"upsample factor must be a positive integer, got {factor!r}")
    xv = x.value.data
    if xv.ndim != 3:
        raise ShapeError(f"upsample_bilinear expects HxWxC, got shape {xv.shape}")
    if factor == 1:
        return DiffNode(xv.copy(), (x,), lambda g: (g,))
    h, w, _ = xv.shape
    y0, y1, wy = _bilinear_axis(h, factor)
    x0, x1, wx = _bilinear_axis(w, factor)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    out = ((1 - wy) * (1 - wx) * xv[np.ix_(y0, x0)]
           + (1 - wy) * wx * xv[np.ix_(y0, x1)]
           + wy * (1 - wx) * xv[np.ix_(y1, x0)]
           + wy * wx * xv[np.ix_(y1, x1)])
    _record_macs(4 * out.size)

    def vjp(g):
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
    xv = x.value.data
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
    bv, rv = base.value.data, rows.value.data
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


def slice_cols(x: DiffNode, start: int, stop: int) -> DiffNode:
    xv = x.value.data
    if xv.ndim != 2 or not (0 <= start < stop <= xv.shape[1]):
        raise ShapeError(f"bad column slice [{start}:{stop}] for shape {xv.shape}")
    out = xv[:, start:stop].copy()

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[:, start:stop] = g
        return (gx,)

    return DiffNode(out, (x,), vjp)


def concat_rows(nodes: Sequence[DiffNode]) -> DiffNode:
    nodes = list(nodes)
    widths = {n.value.data.shape[1] for n in nodes}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows widths differ: {sorted(widths)}")
    sizes = [n.value.data.shape[0] for n in nodes]
    out = np.concatenate([n.value.data for n in nodes], axis=0)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=0))

    return DiffNode(out, tuple(nodes), vjp)


def concat_cols(nodes: Sequence[DiffNode]) -> DiffNode:
    nodes = list(nodes)
    heights = {n.value.data.shape[0] for n in nodes}
    if len(heights) != 1:
        raise ShapeError(f"concat_cols heights differ: {sorted(heights)}")
    sizes = [n.value.data.shape[1] for n in nodes]
    out = np.concatenate([n.value.data for n in nodes], axis=1)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=1))

    return DiffNode(out, tuple(nodes), vjp)


def reshape(x: DiffNode, shape) -> DiffNode:
    xv = x.value.data
    out = xv.reshape(shape)
    return DiffNode(out.copy(), (x,), lambda g: (g.reshape(xv.shape),))


def permute(x: DiffNode, axes) -> DiffNode:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = np.transpose(x.value.data, axes)
    return DiffNode(out.copy(), (x,), lambda g: (np.transpose(g, inverse),))


def transpose(x: DiffNode) -> DiffNode:
    return permute(x, (1, 0))


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[DiffNode], DiffNode], x, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    Returns the max over coordinates of
    ``|analytic - central| / max(1, |central|)``.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    leaf = DiffNode(base.copy())
    out = f(leaf)
    if out.value.size != 1:
        raise ShapeError(f"finite_diff_check needs a scalar function, got shape {out.shape}")
    backward(out)
    analytic = leaf.grad.data

    worst = 0.0
    flat = base.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(DiffNode(base.copy())).value.data)
        flat[i] = orig - eps
        lo = float(f(DiffNode(base.copy())).value.data)
        flat[i] = orig
        central = (hi - lo) / (2.0 * eps)
        err = abs(analytic.ravel()[i] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst
