"""Density-peaks scoring and token pruning.

Each token gets a local density rho (exp of the negative mean squared
distance to its k nearest neighbors, divided by a temperature tau) and a
separation delta (distance to the nearest strictly-denser token; the densest
token instead takes its largest distance to any token). Tokens with the
highest rho*delta scores are kept.

Scores match that definition bit for bit at every token count: one
exact-difference distance kernel (coordinate differences squared and summed
left to right), the k nearest summed left to right, and rho from
``math.exp`` per token, as ``np.exp``'s vectorized loop can round an ulp away
from it and a density tie decides delta.

Density reads only each token's k nearest and delta only its nearest denser
token, so neither pass forms the N x N distance matrix. Both filter, then
refine, in blocks of ``ROW_CHUNK`` rows:

- filter: one BLAS product gives every pair ``|x_j|^2 - 2 x_i.x_j``, the
  squared distance less a per-row constant. Its error against the exact
  distance has a worst-case bound B (``_gram_filter``) that holds for any
  summation order, thread count or FMA use. Every column within 2B of the
  row's (k+1)-th smallest value (density), or of its smallest over the
  denser tokens (delta), is a candidate; no exact neighbour can fall outside.
- refine: the exact kernel scores the candidates only. A block whose
  candidates would cost more than the block itself (huge common offsets,
  identical rows) is refined densely, still one block at a time.

The filter only decides which pairs the exact kernel sees, so the scores do
not depend on the BLAS library or its settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DpcConfig",
    "DpcScores",
    "PruneSelection",
    "NonFiniteTokens",
    "pairwise_sq_dist",
    "local_density",
    "delta_distance",
    "prune",
    "select",
]

ROW_CHUNK = 256  # rows per block in the density and delta passes
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


class NonFiniteTokens(ValueError):
    """``prune`` was given NaN or infinite tokens."""


@dataclass(frozen=True)
class DpcConfig:
    """Pruner settings: neighbor count k, temperature tau, keep ratio epsilon."""

    k: int = 5
    tau: float | None = None  # None: use the token dimensionality C
    epsilon: int = 6

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.tau is not None and self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.epsilon < 1:
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon}")

    def resolved_tau(self, dim: int) -> float:
        return float(self.tau) if self.tau is not None else float(dim)


@dataclass(frozen=True)
class DpcScores:
    rho: np.ndarray
    delta: np.ndarray
    score: np.ndarray


@dataclass(frozen=True)
class PruneSelection:
    """Kept token indices, ascending, of length max(1, N // epsilon)."""

    kept: np.ndarray
    epsilon: int


def _exact_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b``, which broadcast
    over every axis but the last: coordinate differences squared and summed
    left to right, the arithmetic of the definition."""
    acc = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    diff = np.empty_like(acc)
    for t in range(a.shape[-1]):
        np.subtract(a[..., t], b[..., t], out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    return acc


def pairwise_sq_dist(tokens: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances between token rows,
    from the exact kernel the scoring passes refine with."""
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"tokens must be an NxC matrix, got shape {x.shape}")
    return _exact_sq(x[:, None, :], x[None, :, :])


def _gram_filter(x: np.ndarray):
    """Factors of the Gram filter and its worst-case rounding bound.

    ``left[i] @ right[:, j]`` is ``P_ij = |x_j|^2 - 2 x_i.x_j``, the squared
    distance less the row constant ``|x_i|^2``, from one BLAS product. With
    u = 2^-53, g = (C+2)u / (1-(C+2)u) and M = max |x_j|^2 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 3.1):

    - the C-term norms on ``right``'s last row are off by at most g*M;
    - the (C+1)-term product is off by at most g * (2M + M(1+g)): the
      inner-product bound holds for any summation order, blocking, thread
      count or FMA use, so for any BLAS;
    - the exact kernel's C differences, squares and sums are off by at most
      g * (|x_i| + |x_j|)^2 <= 4gM.

    So |P_ij - (e_ij - |x_i|^2)| <= (8 + g)gM for the exact e_ij. ``bound``
    is 9gM: the spare gM covers M's own rounding and that of adding 2*bound
    to a P value (|P| <= 3M). ``4 (C+2) 2^-1074`` covers the absolute error of
    products that underflow. A non-finite bound (squares that overflow, or
    non-finite tokens) disables the filter.
    """
    n, c = x.shape
    sq = np.einsum("ij,ij->i", x, x)
    left = np.empty((n, c + 1))
    left[:, :c] = x
    left[:, c] = 1.0
    right = np.empty((c + 1, n))
    right[:c] = -2.0 * x.T
    right[c] = sq
    g = (c + 2) * _UNIT_ROUNDOFF / (1.0 - (c + 2) * _UNIT_ROUNDOFF)
    bound = 9.0 * g * sq.max() + 4 * (c + 2) * _SMALLEST_SUBNORMAL
    return left, right, bound


def _refine(a: np.ndarray, b: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Exact squared distances from the rows of ``a`` to the candidate columns
    ``cand`` marks among the rows of ``b``, +inf elsewhere.

    A short list is packed into one row per token, as wide as the longest;
    one that would cost more than the dense block (huge offsets, identical
    rows) is refined as the dense block, so memory stays O(rows * N).
    """
    r, w = cand.shape
    flat = np.flatnonzero(cand)  # much faster than a 2-D np.nonzero
    if flat.size * a.shape[1] > r * w:
        out = _exact_sq(a[:, None, :], b[None, :, :])
        out[~cand] = np.inf
        return out
    i, j = np.divmod(flat, w)
    counts = np.bincount(i, minlength=r)
    out = np.full((r, counts.max()), np.inf)
    out[i, np.arange(i.size) - (np.cumsum(counts) - counts)[i]] = _exact_sq(a[i], b[j])
    return out


def local_density(tokens: np.ndarray, cfg: DpcConfig) -> np.ndarray:
    """Per-token density in (0, 1]; a lone token has density exactly 1."""
    x = np.asarray(tokens, dtype=np.float64)
    n = x.shape[0]
    k_eff = min(cfg.k, n - 1)
    if k_eff <= 0:
        return np.ones(n)
    left, right, bound = _gram_filter(x)
    filtered = np.isfinite(bound)
    buf = np.empty(min(n, ROW_CHUNK) * n)
    # columns j mod ``groups`` form k_eff+1 or more disjoint groups, so the
    # (k_eff+1)-th smallest group minimum bounds the row's (k_eff+1)-th
    # smallest P from above, at a fraction of a full partition's cost
    groups = min(n, max(64, k_eff + 1))
    grouped = n // groups * groups
    nearest = np.empty((n, k_eff))
    for lo in range(0, n, ROW_CHUNK):
        hi = min(n, lo + ROW_CHUNK)
        if filtered:
            p = np.matmul(left[lo:hi], right, out=buf[:(hi - lo) * n].reshape(hi - lo, n))
            # a row's k_eff+1 exact nearest, self included, lie within 2*bound
            # of its (k_eff+1)-th smallest P
            mins = p[:, :grouped].reshape(hi - lo, -1, groups).min(axis=1)
            limit = np.partition(mins, k_eff, axis=1)[:, k_eff] + 2.0 * bound
            cand = p <= limit[:, None]
        else:
            cand = np.ones((hi - lo, n), dtype=bool)
        # the k_eff+1 smallest are self (0) and the k_eff nearest others
        part = np.partition(_refine(x[lo:hi], x, cand), k_eff, axis=1)[:, :k_eff + 1]
        nearest[lo:hi] = np.sort(part, axis=1)[:, 1:]
    mean_knn = np.cumsum(nearest, axis=1)[:, -1] / k_eff  # cumsum adds strictly left to right
    tau = cfg.resolved_tau(x.shape[1])
    return np.array([math.exp(-m / tau) for m in mean_knn.tolist()])


def delta_distance(tokens: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Distance to the nearest denser token; max distance for the densest one.

    Density ties break toward the lower index (the lower index counts as
    denser), which makes the ordering total and the result deterministic.
    """
    x = np.asarray(tokens, dtype=np.float64)
    n = x.shape[0]
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (n,):
        raise ValueError(f"rho must have shape ({n},), got {rho.shape}")
    order = np.lexsort((np.arange(n), -rho))  # densest first, index tie-break
    xo = x[order]  # in rank order a token's denser tokens are the rows before it
    left, right, bound = _gram_filter(xo)
    filtered = np.isfinite(bound)
    buf = np.empty(min(n, ROW_CHUNK) * n)
    later = np.triu(np.ones((ROW_CHUNK, ROW_CHUNK), dtype=bool))  # in-block, not denser
    nearest = np.empty(n)
    nearest[0] = _exact_sq(xo[0], xo).max()
    for lo in range(1, n, ROW_CHUNK):
        hi = min(n, lo + ROW_CHUNK)
        not_denser = later[:hi - lo, :hi - lo]
        if filtered:
            p = np.matmul(left[lo:hi], right[:, :hi], out=buf[:(hi - lo) * hi].reshape(hi - lo, hi))
            p[:, lo:hi][not_denser] = np.inf
            # the exact nearest denser token lies within 2*bound of the smallest P
            cand = p <= (p.min(axis=1) + 2.0 * bound)[:, None]
        else:
            cand = np.ones((hi - lo, hi), dtype=bool)
            cand[:, lo:hi][not_denser] = False
        nearest[lo:hi] = _refine(xo[lo:hi], xo[:hi], cand).min(axis=1)
    out = np.empty(n)
    # sqrt is monotone and correctly rounded: sqrt(min(d2)) == min(sqrt(d2))
    out[order] = np.sqrt(nearest)
    return out


def prune(tokens: np.ndarray, cfg: DpcConfig) -> tuple[DpcScores, PruneSelection]:
    """Score all tokens and keep the max(1, N // epsilon) highest scoring.

    Score ties break toward the lower index. Kept indices are returned in
    ascending order so downstream positional structure survives.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"tokens must be a non-empty NxC matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteTokens("tokens must be finite")
    n = x.shape[0]
    rho = local_density(x, cfg)
    delta = delta_distance(x, rho)
    score = rho * delta
    n_keep = max(1, n // cfg.epsilon)
    by_score = np.lexsort((np.arange(n), -score))
    kept = np.sort(by_score[:n_keep])
    return DpcScores(rho=rho, delta=delta, score=score), PruneSelection(kept=kept, epsilon=cfg.epsilon)


def select(tokens: np.ndarray, cfg: DpcConfig) -> PruneSelection:
    """The tokens to keep: all of them at epsilon 1, without a scoring pass,
    else the selection of :func:`prune`."""
    if cfg.epsilon == 1:
        return PruneSelection(kept=np.arange(len(tokens)), epsilon=1)
    return prune(tokens, cfg)[1]
