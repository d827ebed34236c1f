"""The benchmark's exact-difference DPC reference agrees with the pure-Python
oracle in tests/dpc_oracle.py, duplicate rows included.

    python3 -m pytest perfbench/test_dpc_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from dpc_oracle import oracle_scores  # noqa: E402
from dpc_reference import ROW_CHUNK, reference_scores  # noqa: E402


def random_case(rng, duplicates: bool):
    n = int(rng.integers(1, 80))
    c = int(rng.integers(1, 9))
    x = rng.normal(size=(n, c))
    if duplicates and n > 1:
        # copy some rows onto others so that distances and densities tie exactly
        src = rng.integers(0, n, size=max(1, n // 3))
        dst = rng.integers(0, n, size=src.size)
        x[dst] = x[src]
        if rng.random() < 0.3:
            x = np.round(x, 1)  # coarse grid: many equal coordinates and rows
    return x, int(rng.integers(1, 9)), rng.choice([None, 1.0, 0.5]), int(rng.integers(1, 11))


@pytest.mark.parametrize("duplicates", [False, True])
def test_matches_oracle(duplicates):
    rng = np.random.default_rng(17 + duplicates)
    for _ in range(200):
        x, k, tau, eps = random_case(rng, duplicates)
        rho, delta, score, kept = reference_scores(x, k, tau, eps)
        tau_o = float(x.shape[1]) if tau is None else tau
        rho_o, delta_o, score_o, kept_o = oracle_scores(x.tolist(), k, tau_o, eps)
        np.testing.assert_allclose(rho, rho_o, rtol=1e-12, atol=0)
        np.testing.assert_allclose(delta, delta_o, rtol=1e-12, atol=0)
        np.testing.assert_allclose(score, score_o, rtol=1e-12, atol=0)
        assert kept.tolist() == kept_o


def test_spans_several_row_chunks_with_duplicates():
    rng = np.random.default_rng(5)
    n = 3 * ROW_CHUNK + 7
    x = np.round(rng.normal(size=(n, 3)), 1)
    x[n // 2:] = x[: n - n // 2]
    _, _, _, kept = reference_scores(x, 5, None, 6)
    assert kept.tolist() == oracle_scores(x.tolist(), 5, 3.0, 6)[3]


def test_rejects_empty_input():
    with pytest.raises(ValueError):
        reference_scores(np.zeros((0, 3)), 5, None, 6)
