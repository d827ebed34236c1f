"""Exact-difference density-peaks selection, independent of ``prunepose.dpc``.

It follows the definition in ``prunepose.dpc``'s docstring:

- squared distances are summed coordinate by coordinate from explicit
  differences, in row chunks, never through ``|a|^2 + |b|^2 - 2ab``;
- rho is ``exp(-mean(k nearest squared distances) / tau)``, ``tau`` defaulting
  to the token width, and a lone token has rho 1;
- delta is the distance to the nearest denser token, a density tie going to
  the lower index; the densest token takes its largest distance instead;
- the ``max(1, N // epsilon)`` highest ``rho * delta`` scores are kept, a
  score tie going to the lower index, and returned in ascending order.

The sums run in the same order as ``tests/dpc_oracle.py``, so equal rows get
bit-identical distances and densities, and their ties are decided by index.
"""

from __future__ import annotations

import math

import numpy as np

ROW_CHUNK = 32


def exact_sq_dist(x: np.ndarray) -> np.ndarray:
    """N x N squared distances, summed over columns left to right."""
    n, c = x.shape
    cols = np.ascontiguousarray(x.T)
    out = np.empty((n, n))
    for lo in range(0, n, ROW_CHUNK):
        rows = x[lo:lo + ROW_CHUNK]
        acc = np.zeros((rows.shape[0], n))
        diff = np.empty_like(acc)
        for a in range(c):
            np.subtract(rows[:, a, None], cols[a][None, :], out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
        out[lo:lo + ROW_CHUNK] = acc
    return out


def reference_scores(tokens, k: int, tau: float | None, epsilon: int):
    """Return (rho, delta, score, kept) for an N x C token matrix."""
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"tokens must be a non-empty N x C matrix, got shape {x.shape}")
    n, c = x.shape
    tau = float(c) if tau is None else float(tau)
    d2 = exact_sq_dist(x)

    k_eff = min(k, n - 1)
    if k_eff == 0:
        rho = np.ones(n)
    else:
        off = d2.copy()
        np.fill_diagonal(off, np.inf)
        nearest = np.sort(np.partition(off, k_eff - 1, axis=1)[:, :k_eff], axis=1)
        sums = np.zeros(n)
        for a in range(k_eff):
            sums += nearest[:, a]
        rho = np.array([math.exp(-(s / k_eff) / tau) for s in sums.tolist()])

    order = np.lexsort((np.arange(n), -rho))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    delta = np.empty(n)
    for lo in range(0, n, ROW_CHUNK):
        hi = min(n, lo + ROW_CHUNK)
        denser = rank[None, :] < rank[lo:hi, None]
        delta[lo:hi] = np.where(denser, d2[lo:hi], np.inf).min(axis=1)
    top = order[0]
    delta[top] = d2[top].max() if n > 1 else 0.0
    delta = np.sqrt(delta)

    score = rho * delta
    n_keep = max(1, n // epsilon)
    kept = np.sort(np.lexsort((np.arange(n), -score))[:n_keep])
    return rho, delta, score, kept
