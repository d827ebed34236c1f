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

One neighbour pass serves both scores. Density keeps each token's k nearest
other tokens, exact squared distances and indices, and delta reads that
table: a token with a denser token on its list takes the nearest such one's
distance, since every token off the list lies at least as far away as the
list's last. Only the local peaks left over (about 9% of the hr tokens) are
searched against all their denser tokens. Neither search forms the N x N
distance matrix. Both filter, then refine, in blocks of ``ROW_CHUNK`` rows:

- filter: one float32 BLAS product, on the tokens scaled by a power of two,
  gives every pair ``|x_j|^2 - 2 x_i.x_j``, the squared distance less a
  per-row constant, in the scaled units. Its error against the float64 exact
  distance has a worst-case bound B (``_gram_filter``) that holds for any
  summation order, thread count or FMA use; ``prune`` builds it once for both
  passes. Every column within 2B of an upper bound on the row's (k+1)-th
  smallest value (density: the (k+1)-th smallest minimum of about 256 strided
  column groups, the one full read of each block, after which only the groups
  within the limit are compared), or of a peak's smallest over its denser
  tokens (delta), is a candidate; no exact neighbour can fall outside.
  Float32 halves the bytes each block pass reads, and the filter's precision
  only sets how many candidates the refine step scores.
- refine: the exact kernel scores the candidates only. A block whose
  candidates would cost more than the block itself (huge common offsets,
  identical rows, or an infinite bound, whose limit saturates so that every
  column is a candidate) is refined densely, still one block at a time.

The filter only decides which pairs the exact kernel sees, so the scores are
float64 throughout and do not depend on the BLAS library or its settings.
"""

from __future__ import annotations

import functools
import math
import numbers
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
_U32 = 2.0 ** -24  # float32 unit roundoff
_TINY32 = 2.0 ** -126  # smallest normal float32
_MAX32 = np.finfo(np.float32).max  # largest float32


class NonFiniteTokens(ValueError):
    """A scoring pass was given NaN or infinite tokens."""


def _check_int(name: str, value, low: int):
    """Raise ValueError unless ``value`` is an integer, not a bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class DpcConfig:
    """Pruner settings: neighbor count k, temperature tau, keep ratio epsilon."""

    k: int = 5
    tau: float | None = None  # None: use the token dimensionality C
    epsilon: int = 6

    def __post_init__(self):
        _check_int("k", self.k, 1)
        _check_int("epsilon", self.epsilon, 1)
        if self.tau is not None and not (isinstance(self.tau, numbers.Real)
                                         and math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be None or finite and > 0, got {self.tau!r}")

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


def _exact_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b``, which broadcast
    over every axis but the last: coordinate differences squared and summed
    left to right, the arithmetic of the definition."""
    acc = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    if a.shape == b.shape:  # paired rows at once; broadcast ones in O(output) memory
        return functools.reduce(np.add, np.moveaxis(np.square(a - b), -1, 0), acc)
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
    """Float32 factors of the Gram filter, their worst-case rounding bound, and
    the exponent e of their scale.

    The tokens are scaled by 2^-e, which brings the largest coordinate into
    [1/2, 1), and cast to float32. In the scaled units a_i = 2^-e x_i, every
    |a_it| < 1 and M = max |a_j|^2 < C. ``left[i] @ right[:, j]`` is
    ``P_ij = |a_j|^2 - 2 a_i.a_j = 2^-2e (d_ij - |x_i|^2)``, for the squared
    distance d_ij, from one sgemm. With u = 2^-24,
    g = (C+1)u / (1-(C+1)u), g' = (C+2)2^-53 / (1-(C+2)2^-53) and
    eta = 2^-126, the smallest normal float32, which also covers a BLAS that
    flushes subnormals to zero (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, section 3.1):

    - the cast: each float32 coordinate a'_it is off by at most
      u|a_it| + eta, and the norm q_j on ``right``'s last row, summed in
      float64 and rounded once, by at most 2u|a_j|^2 + eta. So the exact
      q_j - 2 a'_i.a'_j is off by at most (6u + 2u^2)M + (6C+1)eta;
    - the (C+1)-term sgemm is off by at most g(q_j + 2|a'_i||a'_j|) +
      (C+1)eta <= 3(1+u)^2 gM + (5C+3)eta, whatever the summation order,
      blocking, thread count or FMA use, so for any BLAS;
    - the float64 exact kernel's C differences, squares and sums are off by at
      most g'(|x_i| + |x_j|)^2, plus C 2^-1075 for squares that underflow; in
      the scaled units that is at most 4g'M + C 2^(-1074-2e).

    For C < 2^22 these sum to less than (6u + 4g)M + 12(C+1)eta +
    C 2^(-1074-2e). ``bound`` adds uM, which covers the float64 rounding of M,
    of the bound itself and of adding 2*bound to a P value (|P| < 4M); the
    callers round that sum up to float32 (``_limit``). The bound is infinite
    where squares come within 2^4 of overflowing (the exact kernel's sums
    could overflow), and where the underflow term exceeds M: the largest
    coordinate is below about 2^-536, and the exact squares are a few
    subnormal steps at most. The limit then saturates, and the blocks are
    refined densely.
    """
    n, c = x.shape
    e = math.frexp(float(np.abs(x).max()))[1]
    a = np.ldexp(x, -e)  # exact unless subnormal
    sq = np.einsum("ij,ij->i", a, a)
    left = np.empty((n, c + 1), dtype=np.float32)
    left[:, :c] = a
    left[:, c] = 1.0
    right = np.empty((c + 1, n), dtype=np.float32)
    right[:c] = -2.0 * left[:, :c].T  # exact
    right[c] = sq
    m = float(sq.max())
    g = (c + 1) * _U32 / (1.0 - (c + 1) * _U32)
    tail = math.ldexp(c, -1074 - 2 * e) if e > -600 else math.inf
    bound = (7 * _U32 + 4 * g) * m + 12 * (c + 1) * _TINY32 + tail
    if tail > m or 2 * e + math.frexp(m)[1] > 1020:
        bound = math.inf
    return left, right, bound, e


def _limit(best: np.ndarray, bound: float) -> np.ndarray:
    """``best + 2*bound`` in float64, rounded up to float32, so comparing
    float32 P values with it never drops a column that float64 would keep.
    It saturates at the largest float32, which every finite P passes and a
    masked (+inf) column does not."""
    lim = np.minimum(best.astype(np.float64) + 2.0 * bound, _MAX32)
    up = lim.astype(np.float32)
    return np.where(up < lim, np.nextafter(up, _MAX32), up)


def _refine(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact squared distances from the rows of ``a`` to the candidate columns
    among the rows of ``b``, given as (row, column) pairs sorted by row, and
    the column of each.

    A short list is packed into one row per token, as wide as the longest and
    padded with +inf at column 0; one that would cost more than the dense
    block (huge offsets, identical rows) is refined as the dense block, +inf
    off the candidates, so memory stays O(rows * N).
    """
    r, w = a.shape[0], b.shape[0]
    if i.size * a.shape[1] > r * w:
        out = _exact_sq(a[:, None, :], b[None, :, :])
        off = np.ones((r, w), dtype=bool)
        off[i, j] = False
        out[off] = np.inf
        return out, np.broadcast_to(np.arange(w), (r, w))
    counts = np.bincount(i, minlength=r)
    slot = np.arange(i.size) - (np.cumsum(counts) - counts)[i]
    out = np.full((r, counts.max()), np.inf)
    out[i, slot] = _exact_sq(a[i], b[j])
    cols = np.zeros(out.shape, dtype=np.intp)
    cols[i, slot] = j
    return out, cols


def _tokens(tokens: np.ndarray) -> np.ndarray:
    """``tokens`` as a float64 matrix, checked to be a finite non-empty NxC one."""
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError(f"tokens must be a non-empty NxC matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteTokens("tokens must be finite")
    return x


def _nearest(x: np.ndarray, k: int, gram: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each token's min(k, N - 1) nearest other tokens: their exact squared
    distances in ascending order, and their row indices (ties in any order),
    through ``gram``, the Gram filter of ``x``, or one built here."""
    n = x.shape[0]
    k_eff = min(k, n - 1)
    dist = np.empty((n, k_eff))
    idx = np.empty((n, k_eff), dtype=np.intp)
    if k_eff == 0:
        return dist, idx
    left, right, bound, _ = _gram_filter(x) if gram is None else gram
    # columns j mod ``groups`` form k_eff+1 or more disjoint groups of ``per``
    # (+inf pads the last few), so the (k_eff+1)-th smallest group minimum
    # bounds the row's (k_eff+1)-th smallest P from above
    per = max(1, n // max(256, k_eff + 1))
    groups = -(-n // per)
    buf = np.empty((min(n, ROW_CHUNK), per * groups), dtype=np.float32)
    buf[:, n:] = np.inf
    for lo in range(0, n, ROW_CHUNK):
        hi = min(n, lo + ROW_CHUNK)
        block = buf[:hi - lo]
        np.matmul(left[lo:hi], right, out=block[:, :n])
        # a row's k_eff+1 exact nearest, self included, lie within 2*bound
        # of its (k_eff+1)-th smallest P
        mins = block.reshape(hi - lo, per, groups).min(axis=1)
        limit = _limit(np.sort(mins, axis=1)[:, k_eff], bound)
        block[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # a token is not its own neighbour
        # only a group whose minimum is within the limit can hold a candidate;
        # ``at`` indexes the flat block at each such group's ``per`` columns
        f = np.flatnonzero(mins <= limit[:, None])
        at = (f + f // groups * (buf.shape[1] - groups))[:, None] + groups * np.arange(per)
        at = at[block.reshape(-1)[at] <= limit[f // groups, None]]
        i, j = np.divmod(at, buf.shape[1])
        del at
        d2, cols = _refine(x[lo:hi], x, i, j)
        top = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
        top = np.take_along_axis(top, np.argsort(np.take_along_axis(d2, top, axis=1), axis=1), axis=1)
        dist[lo:hi] = np.take_along_axis(d2, top, axis=1)
        idx[lo:hi] = np.take_along_axis(cols, top, axis=1)
        del d2, cols, i, j  # a dense block's arrays, not to be held through the next
    return dist, idx


def _density(dist: np.ndarray, tau: float) -> np.ndarray:
    """rho from each token's sorted k nearest squared distances; 1 with none."""
    if dist.shape[1] == 0:
        return np.ones(dist.shape[0])
    mean_knn = np.cumsum(dist, axis=1)[:, -1] / dist.shape[1]  # cumsum adds strictly left to right
    return np.array([math.exp(-m / tau) for m in mean_knn.tolist()])


def local_density(tokens: np.ndarray, cfg: DpcConfig) -> np.ndarray:
    """Per-token density in (0, 1]; a lone token has density exactly 1."""
    x = _tokens(tokens)
    return _density(_nearest(x, cfg.k)[0], cfg.resolved_tau(x.shape[1]))


def delta_distance(tokens: np.ndarray, rho: np.ndarray,
                   nearest: tuple[np.ndarray, np.ndarray] | None = None,
                   gram: tuple | None = None) -> np.ndarray:
    """Distance to the nearest denser token; max distance for the densest one.

    Density ties break toward the lower index (the lower index counts as
    denser), which makes the ordering total and the result deterministic.

    ``nearest`` is the density pass's table of each token's nearest others,
    sorted distances and indices. A token with a denser token on its list
    takes the nearest such one's distance: every token off the list lies at
    least as far away as the list's last. Only the rest, the local peaks, are
    filtered against all their denser tokens. Without a table, one is built
    from each token's nearest other token. ``gram`` is the tokens' Gram filter,
    or None to build one here.
    """
    x = _tokens(tokens)
    n = x.shape[0]
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (n,):
        raise ValueError(f"rho must have shape ({n},), got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("rho must be finite")
    order = np.lexsort((np.arange(n), -rho))  # densest first, index tie-break
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    gram = _gram_filter(x) if gram is None else gram
    dist, idx = _nearest(x, 1, gram) if nearest is None else nearest
    if dist.shape != idx.shape or dist.shape[0] != n:
        raise ValueError(f"nearest must hold two ({n}, k) arrays, got {dist.shape} and {idx.shape}")
    denser = rank[idx] < rank[:, None]
    nearest_d2 = np.empty(n)  # by rank; the densest and the peaks are set below
    nearest_d2[rank] = np.where(denser, dist, np.inf).min(axis=1, initial=np.inf)
    peaks = np.sort(rank[~denser.any(axis=1)])[1:]  # ranks left to the filter, less the densest
    # in rank order a token's denser tokens are the rows before it
    xo, left, right, bound = x[order], gram[0][order], gram[1][:, order], gram[2]
    buf = np.empty(min(n, ROW_CHUNK) * n, dtype=np.float32)
    # the densest token's farthest lies within 2*bound of its largest P
    far = -(left[0] @ right)
    nearest_d2[0] = _exact_sq(xo[0], xo[far <= _limit(far.min(), bound)]).max()
    for lo in range(0, peaks.size, ROW_CHUNK):
        rows = peaks[lo:lo + ROW_CHUNK]
        hi = rows[-1] + 1
        p = np.matmul(left[rows], right[:, :hi], out=buf[:rows.size * hi].reshape(rows.size, hi))
        # the nearest denser token lies within 2*bound of the least P before the row's own
        at = np.arange(0, p.size, hi)
        best = np.minimum.reduceat(p.reshape(-1), np.stack([at, at + rows], axis=1).ravel())[::2]
        f = np.flatnonzero(p <= _limit(best, bound)[:, None])
        f = f[f % hi < rows[f // hi]]
        nearest_d2[rows] = _refine(xo[rows], xo[:hi], *np.divmod(f, hi))[0].min(axis=1)
    out = np.empty(n)
    # sqrt is monotone and correctly rounded: sqrt(min(d2)) == min(sqrt(d2))
    out[order] = np.sqrt(nearest_d2)
    return out


def prune(tokens: np.ndarray, cfg: DpcConfig) -> tuple[DpcScores, PruneSelection]:
    """Score all tokens and keep the max(1, N // epsilon) highest scoring.

    Score ties break toward the lower index. Kept indices are returned in
    ascending order so downstream positional structure survives. One
    neighbour pass and one Gram filter serve both scores.
    """
    x = _tokens(tokens)
    n = x.shape[0]
    gram = _gram_filter(x)
    nearest = _nearest(x, cfg.k, gram)
    rho = _density(nearest[0], cfg.resolved_tau(x.shape[1]))
    delta = delta_distance(x, rho, nearest, gram)
    score = rho * delta
    n_keep = max(1, n // cfg.epsilon)
    by_score = np.lexsort((np.arange(n), -score))
    kept = np.sort(by_score[:n_keep])
    return DpcScores(rho=rho, delta=delta, score=score), PruneSelection(kept=kept)


def select(tokens: np.ndarray, cfg: DpcConfig) -> PruneSelection:
    """The tokens to keep: all of them at epsilon 1, without a scoring pass,
    else the selection of :func:`prune`."""
    if cfg.epsilon == 1:
        return PruneSelection(kept=np.arange(len(tokens)))
    return prune(tokens, cfg)[1]
