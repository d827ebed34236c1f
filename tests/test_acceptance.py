"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import sys
import time

import numpy as np

from prunepose.bench import BenchConfig, run_bench, run_gradcheck, run_ratio_grid, run_train_smoke
from prunepose.cli import GRID_MODEL, TINY_MODEL, _model_config
from prunepose.dpc import DpcConfig, prune
from prunepose.model import (
    ModelConfig,
    heatmap_loss,
    init_model_params,
    patch_embed_backbone,
    high_res_branch,
    low_res_branch,
)
from prunepose.synth import SynthScene, make_triplet_sample
from prunepose.tensor import constant, softmax_rows

from dpc_oracle import oracle_scores

TINY = _model_config(TINY_MODEL)


def report(criterion, ok):
    # write to the real stdout so the line survives pytest's capture
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}", file=sys.__stdout__)
    assert ok


class TestAcceptance:
    def test_01_dpc_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            c = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            tau = float(rng.choice([1.0, c]))
            eps = int(rng.integers(1, 11))
            x = rng.normal(size=(n, c))
            scores, sel = prune(x, DpcConfig(k=k, tau=tau, epsilon=eps))
            rho_o, delta_o, score_o, kept_o = oracle_scores(x.tolist(), k, tau, eps)
            ok &= np.allclose(scores.rho, rho_o, rtol=1e-12, atol=1e-15)
            ok &= np.allclose(scores.delta, delta_o, rtol=1e-12, atol=1e-15)
            ok &= np.allclose(scores.score, score_o, rtol=1e-12, atol=1e-15)
            ok &= sel.kept.tolist() == kept_o
            if not ok:
                break
        elapsed = time.perf_counter() - t0
        report(f"1 DPC oracle equivalence, 1000 random sets in {elapsed:.1f}s",
               ok and elapsed < 30.0)

    def test_02_token_count_ledger(self):
        cfg = ModelConfig()
        params = init_model_params(cfg, 0)
        triplet, _, _ = make_triplet_sample(SynthScene(seed=0), cfg)
        frames = patch_embed_backbone(triplet, cfg, params)
        f_f, hr_sel, grid = high_res_branch(frames[1], cfg, params)
        f_c, lr_sel = low_res_branch(frames, cfg, params)
        ok = (frames[1].shape == (192, cfg.embed_dim)
              and grid.shape[0] == 3072
              and f_f.shape[0] == 512 and len(hr_sel.kept) == 512
              and cfg.temporal_tokens == 576
              and f_c.shape[0] == 96 and len(lr_sel.kept) == 96)
        report("2 token-count ledger 192/3072/512/576/96", ok)

    def test_03_gradient_validity_all_parameters(self):
        t0 = time.perf_counter()
        result = run_gradcheck(TINY, seed=0, eps=1e-4, tol=1e-4)
        elapsed = time.perf_counter() - t0
        report(f"3 gradient check, max rel err {result['max_rel_error']:.2e} "
               f"({result['worst_parameter']}) in {elapsed:.0f}s",
               result["passed"] and elapsed < 120.0)

    def test_04_softmax_normalization(self):
        rng = np.random.default_rng(7)
        ok = True
        for _ in range(200):
            x = rng.normal(scale=rng.uniform(0.1, 50.0),
                           size=(rng.integers(1, 12), rng.integers(1, 12)))
            s = softmax_rows(constant(x)).value
            ok &= bool(np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-9)) and bool(np.all(s >= 0))
        # the same kernel underlies self- and cross-attention: check the
        # attention weights reconstructed from each
        for _ in range(20):
            c, heads = 8, 2
            fine = rng.normal(size=(4, c))
            coarse = rng.normal(size=(6, c))
            for q_src, k_src in ((fine, fine), (fine, coarse)):
                w_q = rng.normal(size=(c, c))
                w_k = rng.normal(size=(c, c))
                d = c // heads
                q = q_src @ w_q
                k = k_src @ w_k
                for h in range(heads):
                    logits = q[:, h * d:(h + 1) * d] @ k[:, h * d:(h + 1) * d].T / np.sqrt(d)
                    s = softmax_rows(constant(logits)).value
                    ok &= bool(np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-9))
        report("4 softmax rows sum to 1 +/- 1e-9", ok)

    def test_05_speedup_trend(self):
        result = run_bench(BenchConfig(warmup=1, iters=3, seed=0))
        v = result["variants"]
        thr_a = v["multi_grained"]["throughput_per_s"]
        thr_b = v["multi_grained_pruned"]["throughput_per_s"]
        mac_a = v["multi_grained"]["macs"]
        mac_b = v["multi_grained_pruned"]["macs"]
        ok = thr_b >= 1.3 * thr_a and mac_b <= 0.6 * mac_a
        report(f"5 speedup trend: wall {thr_b / thr_a:.2f}x (need >= 1.3), "
               f"MAC ratio {mac_b / mac_a:.3f} (need <= 0.6)", ok)

    def test_06_ratio_grid_structure(self):
        cfg = _model_config(GRID_MODEL)
        result = run_ratio_grid(cfg, ratios=(1, 3, 6, 10), train_steps=5, iters=1)
        cells = result["cells"]
        ok = len(cells) == 16 and all("final_loss" in c for c in cells)
        macs = {(c["eps_hrb"], c["eps_lrb"]): c["macs"] for c in cells}
        ratios = (1, 3, 6, 10)
        for fixed in ratios:
            hr_row = [macs[(e, fixed)] for e in ratios]
            lr_row = [macs[(fixed, e)] for e in ratios]
            ok &= all(a > b for a, b in zip(hr_row, hr_row[1:]))
            ok &= all(a > b for a, b in zip(lr_row, lr_row[1:]))
        report("6 ratio grid: 16 cells, MACs strictly decrease in each ratio", ok)

    def test_07_training_smoke(self):
        t0 = time.perf_counter()
        a = run_train_smoke(TINY, steps=200, lr=0.03, seed=0, batch=2)
        b = run_train_smoke(TINY, steps=200, lr=0.03, seed=0, batch=2)
        elapsed = time.perf_counter() - t0
        ok = (a["passed"] and a["curve"] == b["curve"] and elapsed < 300.0)
        report(f"7 training smoke: loss {a['initial_loss']:.4f} -> "
               f"{a['final_loss']:.4f} in 200 steps, deterministic", ok)

    def test_08_degenerate_inputs(self):
        ok = True
        scores, sel = prune(np.array([[4.0, 2.0]]), DpcConfig(epsilon=6))
        ok &= scores.rho.tolist() == [1.0] and scores.delta.tolist() == [0.0]
        ok &= sel.kept.tolist() == [0]
        scores, sel = prune(np.ones((5, 3)), DpcConfig(epsilon=2))
        ok &= np.all(scores.rho == 1.0) and np.all(scores.delta == 0.0)
        ok &= sel.kept.tolist() == [0, 1]  # tie-break keeps the lowest indices
        _, sel = prune(np.random.default_rng(0).normal(size=(4, 2)), DpcConfig(epsilon=9))
        ok &= len(sel.kept) == 1
        report("8 degenerate inputs: lone token, ties, N < epsilon", ok)

    def test_09_loss_properties(self):
        rng = np.random.default_rng(3)
        ok = True
        h = constant(rng.normal(size=(3, 6, 5)))
        ok &= float(heatmap_loss(h, h).value) == 0.0
        for _ in range(20):
            a = rng.normal(size=(2, 4, 4))
            b = rng.normal(size=(2, 4, 4))
            acc = 0.0
            for j in range(2):
                for y in range(4):
                    for x in range(4):
                        acc += (a[j, y, x] - b[j, y, x]) ** 2
            expected = acc / 32.0
            got = float(heatmap_loss(constant(a), constant(b)).value)
            ok &= abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
            ok &= got >= 0.0
        report("9 heatmap loss: zero iff equal, matches element-loop oracle", ok)
