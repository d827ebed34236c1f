"""Benchmark suites: latency/MAC comparisons across pruning variants, the
pruning-ratio grid, whole-model gradient checking, and training smoke runs."""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dpc import NonFiniteTokens
from .model import (
    FrameTriplet,
    ModelConfig,
    ModelParams,
    TrainingError,
    decode_head,
    forward_full,
    heatmap_loss,
    init_model_params,
    patch_embed_backbone,
    train_step,
)
from .attention import spatio_temporal_block, transformer_block
from .synth import DEFAULT_PARENTS, SynthScene, make_triplet_sample
from .tensor import (
    add,
    backward,
    constant,
    gather_rows,
    mac_tally,
    reshape,
    scale,
    upsample_bilinear,
)

__all__ = [
    "BenchConfig",
    "run_bench",
    "run_ratio_grid",
    "run_gradcheck",
    "run_train_smoke",
    "forward_baseline",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "prunepose-report-v1"


@dataclass(frozen=True)
class BenchConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    warmup: int = 1
    iters: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"timed iterations must be >= 1, got {self.iters}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")


def _with_eps(cfg: ModelConfig, eps_hrb: int | None, eps_lrb: int | None) -> ModelConfig:
    """``cfg`` with the given pruning ratios; None keeps that branch's ratio."""
    hr_cfg = cfg.hr_cfg if eps_hrb is None else replace(cfg.hr_cfg, epsilon=eps_hrb)
    lr_cfg = cfg.lr_cfg if eps_lrb is None else replace(cfg.lr_cfg, epsilon=eps_lrb)
    return replace(cfg, hr_cfg=hr_cfg, lr_cfg=lr_cfg)


def forward_baseline(triplet: FrameTriplet, cfg: ModelConfig, params: ModelParams):
    """Single-resolution reference: temporal encoder only, no pruning, no fusion.

    The key frame's refined tokens are upsampled to heatmap resolution and
    projected by the same head.
    """
    frames = patch_embed_backbone(triplet, cfg, params)
    joint = spatio_temporal_block(frames, params.st)
    for b in params.branch_blocks:
        joint = transformer_block(joint, b)
    n = cfg.tokens_per_frame
    key = gather_rows(joint, np.arange(n, 2 * n))
    gh, gw = cfg.grid
    grid = upsample_bilinear(reshape(key, (gh, gw, cfg.embed_dim)), cfg.upsample_factor)
    return decode_head(reshape(grid, (cfg.hr_tokens, cfg.embed_dim)), cfg, params)


def _time_variant(fn, warmup: int, iters: int):
    for _ in range(warmup):
        fn()
    with mac_tally() as tally:
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times_ms = np.array(times) * 1e3
    total_s = float(np.sum(times))
    return {
        "latency_ms": {
            "mean": float(times_ms.mean()),
            "p50": float(np.percentile(times_ms, 50)),
            "p95": float(np.percentile(times_ms, 95)),
        },
        "throughput_per_s": iters / total_s,
        "macs": tally.macs,
        "iters": iters,
    }


def _config_echo(bench: BenchConfig) -> dict:
    return {
        "model": dataclasses.asdict(bench.model),
        "warmup": bench.warmup,
        "iters": bench.iters,
        "seed": bench.seed,
    }


def run_bench(bench: BenchConfig) -> dict:
    """Time the baseline, unpruned, and pruned pipeline variants."""
    cfg = bench.model
    params = init_model_params(cfg, bench.seed)
    scene = SynthScene(seed=bench.seed, joints=min(cfg.joints, len(DEFAULT_PARENTS)))
    triplet, _, _ = make_triplet_sample(scene, cfg)
    cfg_a = _with_eps(cfg, 1, 1)

    variants = {
        "baseline": lambda: forward_baseline(triplet, cfg, params),
        "multi_grained": lambda: forward_full(triplet, cfg_a, params),
        "multi_grained_pruned": lambda: forward_full(triplet, cfg, params),
    }
    results = {name: _time_variant(fn, bench.warmup, bench.iters)
               for name, fn in variants.items()}
    return {
        "schema": REPORT_SCHEMA,
        "command": "bench",
        "config": _config_echo(bench),
        "variants": results,
    }


def _batch_loss(samples, cfg, params):
    try:
        losses = [heatmap_loss(forward_full(t, cfg, params), constant(g))
                  for t, g in samples]
    except NonFiniteTokens as e:  # features overflowed: treat like a non-finite loss
        raise TrainingError(f"non-finite features: {e}") from e
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    return scale(total, 1.0 / len(losses))


def run_train_smoke(cfg: ModelConfig, steps: int = 200, lr: float = 0.03,
                    seed: int = 0, batch: int = 2) -> dict:
    """Gradient-descend the whole model on a fixed synthetic batch.

    Succeeds when the final loss drops to half the initial loss or less.
    """
    params = init_model_params(cfg, seed)
    samples = []
    for b in range(batch):
        scene = SynthScene(seed=seed + 1000 * b, joints=cfg.joints,
                           image_size=(max(64, cfg.image_size[0]), max(64, cfg.image_size[1])))
        triplet, target, _ = make_triplet_sample(scene, cfg)
        samples.append((triplet, target))

    curve = []
    for step in range(steps):
        loss = _batch_loss(samples, cfg, params)
        loss_val = float(loss.value.data)
        if not np.isfinite(loss_val):
            raise TrainingError(f"non-finite loss at step {step}")
        curve.append(loss_val)
        backward(loss)
        if lr > 0:
            for _, p in params.named_parameters():
                p.value.data -= lr * p.grad.data
    final = float(_batch_loss(samples, cfg, params).value.data)
    curve.append(final)
    return {
        "schema": REPORT_SCHEMA,
        "command": "train-smoke",
        "config": {"model": dataclasses.asdict(cfg), "steps": steps,
                   "lr": lr, "seed": seed, "batch": batch},
        "initial_loss": curve[0],
        "final_loss": final,
        "passed": final <= 0.5 * curve[0],
        "curve": curve,
    }


def run_ratio_grid(cfg: ModelConfig, ratios=(1, 3, 6, 10), seed: int = 0,
                   train_steps: int = 10, lr: float = 0.01, iters: int = 2) -> dict:
    """Train-and-evaluate every (hr, lr) pruning-ratio pair.

    Each cell reports the post-training loss, measured throughput, and the
    exact forward MAC count. Failures in one cell do not stop the grid.
    """
    ratios = list(ratios)
    if not ratios or any(r < 1 for r in ratios):
        raise ValueError(f"ratios must be nonempty and >= 1, got {ratios}")
    cells = []
    for eps_hrb in ratios:
        for eps_lrb in ratios:
            cell_cfg = _with_eps(cfg, eps_hrb, eps_lrb)
            cell = {"eps_hrb": eps_hrb, "eps_lrb": eps_lrb}
            try:
                params = init_model_params(cell_cfg, seed)
                scene = SynthScene(seed=seed, joints=cell_cfg.joints)
                triplet, target, _ = make_triplet_sample(scene, cell_cfg)
                for _ in range(train_steps):
                    _, params = train_step(triplet, target, cell_cfg, params, lr)
                loss = float(heatmap_loss(forward_full(triplet, cell_cfg, params),
                                          constant(target)).value.data)
                timing = _time_variant(lambda: forward_full(triplet, cell_cfg, params),
                                       warmup=1, iters=iters)
                cell.update(final_loss=loss, macs=timing["macs"],
                            throughput_per_s=timing["throughput_per_s"])
            except Exception as e:  # keep going; a bad cell is data too
                cell.update(error=f"{type(e).__name__}: {e}")
            cells.append(cell)
    return {
        "schema": REPORT_SCHEMA,
        "command": "ratio-grid",
        "config": {"model": dataclasses.asdict(cfg), "ratios": ratios,
                   "seed": seed, "train_steps": train_steps, "lr": lr},
        "cells": cells,
    }


def write_grid_csv(report: dict, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "eps_hrb", "eps_lrb", "final_loss", "macs", "throughput_per_s", "error"])
        writer.writeheader()
        for cell in report["cells"]:
            writer.writerow({k: cell.get(k, "") for k in writer.fieldnames})


def write_curve_csv(report: dict, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(report["curve"]):
            writer.writerow([step, loss])


# ---------------------------------------------------------------------------
# Whole-model gradient check
# ---------------------------------------------------------------------------

def run_gradcheck(cfg: ModelConfig, seed: int = 0, eps: float = 1e-4,
                  tol: float = 1e-4, corrupt: str | None = None,
                  max_coords_per_param: int | None = None) -> dict:
    """Finite-difference check of the loss gradient for every parameter.

    Prune selections are frozen at the base point so the function stays
    smooth under the +/-eps probes. ``corrupt`` names a parameter whose
    analytic gradient is deliberately broken (negative-control hook).
    """
    if max(cfg.image_size) > 64:
        raise ValueError(f"gradcheck requires a tiny config (<= 64x64 image), got {cfg.image_size}")
    params = init_model_params(cfg, seed)
    scene = SynthScene(seed=seed, joints=cfg.joints)
    triplet, target, _ = make_triplet_sample(scene, cfg)

    _, hr_sel, lr_sel = forward_full(triplet, cfg, params, details=True)
    frozen = (hr_sel, lr_sel)

    def loss_at():
        return heatmap_loss(forward_full(triplet, cfg, params, frozen=frozen),
                            constant(target))

    loss = loss_at()
    backward(loss)
    grads = {name: p.grad.data.copy() for name, p in params.named_parameters()}
    if corrupt is not None:
        if corrupt not in grads:
            raise KeyError(f"unknown parameter {corrupt!r}")
        grads[corrupt] = grads[corrupt] + 1.0

    worst_err = 0.0
    worst_name = None
    for name, p in params.named_parameters():
        flat = p.value.data.ravel()
        gflat = grads[name].ravel()
        n_coords = flat.size
        if max_coords_per_param is not None:
            n_coords = min(n_coords, max_coords_per_param)
        for i in range(n_coords):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_at().value.data)
            flat[i] = orig - eps
            lo = float(loss_at().value.data)
            flat[i] = orig
            central = (hi - lo) / (2.0 * eps)
            err = abs(gflat[i] - central) / max(1.0, abs(central))
            if err > worst_err:
                worst_err, worst_name = err, f"{name}[{i}]"
    return {
        "schema": REPORT_SCHEMA,
        "command": "gradcheck",
        "config": {"model": dataclasses.asdict(cfg), "seed": seed,
                   "eps": eps, "tol": tol},
        "max_rel_error": float(worst_err),
        "worst_parameter": worst_name,
        "passed": bool(worst_err < tol),
    }
