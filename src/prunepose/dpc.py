"""Density-peaks scoring and token pruning.

Each token gets a local density rho (exp of the negative mean squared
distance to its k nearest neighbors, divided by a temperature tau) and a
separation delta (distance to the nearest strictly-denser token; the densest
token instead takes its largest distance to any token). Tokens with the
highest rho*delta scores are kept.

Scores match that definition bit for bit at every token count: one
exact-difference distance kernel, the k nearest summed left to right, and
rho from ``math.exp`` per token, as ``np.exp``'s vectorized loop can round an
ulp away from it and a density tie decides delta.
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
]

ROW_CHUNK = 256  # rows per block in the density and delta passes


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


def pairwise_sq_dist(tokens: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances between token rows.

    One exact kernel at every N: squared coordinate differences summed left
    to right (``cdist`` "sqeuclidean"), never ``|a|^2 + |b|^2 - 2ab``, whose
    cancellation gives nearby and duplicate tokens wrong distances.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"tokens must be an NxC matrix, got shape {x.shape}")
    from scipy.spatial.distance import cdist  # here: unpruned paths skip scipy.spatial
    out = cdist(x, x, "sqeuclidean")
    np.fill_diagonal(out, 0.0)
    return out


def local_density(tokens: np.ndarray, cfg: DpcConfig,
                  sq_dist: np.ndarray | None = None) -> np.ndarray:
    """Per-token density in (0, 1]; a lone token has density exactly 1."""
    x = np.asarray(tokens, dtype=np.float64)
    n = x.shape[0]
    d2 = pairwise_sq_dist(x) if sq_dist is None else sq_dist
    k_eff = min(cfg.k, n - 1)
    if k_eff <= 0:
        return np.ones(n)
    # a row's k_eff+1 smallest entries are its self distance 0 and its k_eff
    # nearest others; row blocks keep the partition's copy small
    nearest = np.empty((n, k_eff))
    for lo in range(0, n, ROW_CHUNK):
        part = np.partition(d2[lo:lo + ROW_CHUNK], k_eff, axis=1)[:, :k_eff + 1]
        nearest[lo:lo + ROW_CHUNK] = np.sort(part, axis=1)[:, 1:]
    mean_knn = np.cumsum(nearest, axis=1)[:, -1] / k_eff  # cumsum adds strictly left to right
    tau = cfg.resolved_tau(x.shape[1])
    return np.array([math.exp(-m / tau) for m in mean_knn.tolist()])


def delta_distance(tokens: np.ndarray, rho: np.ndarray,
                   sq_dist: np.ndarray | None = None) -> np.ndarray:
    """Distance to the nearest denser token; max distance for the densest one.

    Density ties break toward the lower index (the lower index counts as
    denser), which makes the ordering total and the result deterministic.
    """
    x = np.asarray(tokens, dtype=np.float64)
    n = x.shape[0]
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (n,):
        raise ValueError(f"rho must have shape ({n},), got {rho.shape}")
    d2 = pairwise_sq_dist(x) if sq_dist is None else sq_dist
    order = np.lexsort((np.arange(n), -rho))  # densest first, index tie-break
    rank = np.argsort(order)  # inverse permutation: rank[i] is token i's place in order
    nearest = np.empty(n)
    for lo in range(0, n, ROW_CHUNK):
        denser = rank[None, :] < rank[lo:lo + ROW_CHUNK, None]
        nearest[lo:lo + ROW_CHUNK] = np.where(denser, d2[lo:lo + ROW_CHUNK], np.inf).min(axis=1)
    nearest[order[0]] = d2[order[0]].max()
    # sqrt is monotone and correctly rounded: sqrt(min(d2)) == min(sqrt(d2))
    return np.sqrt(nearest)


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
    d2 = pairwise_sq_dist(x)
    rho = local_density(x, cfg, sq_dist=d2)
    delta = delta_distance(x, rho, sq_dist=d2)
    score = rho * delta
    n_keep = max(1, n // cfg.epsilon)
    by_score = np.lexsort((np.arange(n), -score))
    kept = np.sort(by_score[:n_keep])
    return DpcScores(rho=rho, delta=delta, score=score), PruneSelection(kept=kept, epsilon=cfg.epsilon)
