"""Benchmark suites: latency/MAC comparisons across pruning variants, the
pruning-ratio grid, whole-model gradient checking, and training smoke runs.
Losses and descent steps come from ``model``, central differences from
``tensor``. Every suite draws its synthetic clip from ``_sample``, which
clamps the scene's joints to the skeleton (a model with more joints gets
all-zero targets for the rest), and wraps its result in ``_report``, the
one place that names the report schema."""

from __future__ import annotations

import csv
import dataclasses
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    FrameTriplet,
    ModelConfig,
    ModelParams,
    TrainingError,
    _descend,
    _mean_loss,
    _upsample_grid,
    decode_head,
    forward_full,
    init_model_params,
    patch_embed_backbone,
)
from .attention import spatio_temporal_block, transformer_block
from .synth import DEFAULT_PARENTS, SynthScene, make_triplet_sample
from .tensor import (
    _central_diff,
    backward,
    gather_rows,
    mac_tally,
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


def _sample(cfg: ModelConfig, seed: int, **scene):
    """One (triplet, target) sample of a ``SynthScene`` seeded ``seed``; extra
    keywords go to the scene."""
    scene = SynthScene(seed=seed, joints=min(cfg.joints, len(DEFAULT_PARENTS)), **scene)
    return make_triplet_sample(scene, cfg)[:2]


def _report(command: str, config: dict, **fields) -> dict:
    """Every subcommand's JSON report: schema, command, config, then ``fields``."""
    return {"schema": REPORT_SCHEMA, "command": command, "config": config, **fields}


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
    return decode_head(_upsample_grid(key, cfg), cfg, params)


def _time_variant(fn, warmup: int, iters: int):
    """Latency, MACs and peak memory of ``fn``. One untimed call counts the
    MACs and takes the ``tracemalloc`` peak (MiB above the memory in use when
    it starts); the timed calls run untraced. A trace already running stays
    on, though its peak reading restarts at that call."""
    for _ in range(warmup):
        fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with mac_tally() as tally:
            fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
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
        "peak_mb": peak / 2**20,
        "iters": iters,
    }


def run_bench(bench: BenchConfig) -> dict:
    """Time the baseline, unpruned, and pruned pipeline variants."""
    cfg = bench.model
    params = init_model_params(cfg, bench.seed)
    triplet, _ = _sample(cfg, bench.seed)
    cfg_a = _with_eps(cfg, 1, 1)

    variants = {
        "baseline": lambda: forward_baseline(triplet, cfg, params),
        "multi_grained": lambda: forward_full(triplet, cfg_a, params),
        "multi_grained_pruned": lambda: forward_full(triplet, cfg, params),
    }
    results = {name: _time_variant(fn, bench.warmup, bench.iters)
               for name, fn in variants.items()}
    return _report("bench", dataclasses.asdict(bench), variants=results)


def _train(samples, cfg: ModelConfig, params: ModelParams, steps: int, lr: float) -> list:
    """``steps`` descent steps of ``params`` on ``samples``, in place: the loss
    before each step, then the final loss. A TrainingError names its step;
    the final evaluation is step ``steps``."""
    curve, step = [], 0
    try:
        for step in range(steps):
            curve.append(_descend(samples, cfg, params, lr))
        step = steps
        curve.append(float(_mean_loss(samples, cfg, params).value))
    except TrainingError as e:
        raise TrainingError(f"{e} at step {step}") from e
    return curve


def run_train_smoke(cfg: ModelConfig, steps: int = 200, lr: float = 0.03,
                    seed: int = 0, batch: int = 2) -> dict:
    """Gradient-descend the whole model on a fixed synthetic batch.

    Succeeds when the final loss drops to half the initial loss or less.
    """
    if steps < 1 or batch < 1:
        raise ValueError(f"steps and batch must be >= 1, got {steps} and {batch}")
    params = init_model_params(cfg, seed)
    image_size = (max(64, cfg.image_size[0]), max(64, cfg.image_size[1]))
    samples = [_sample(cfg, seed + 1000 * b, image_size=image_size) for b in range(batch)]

    curve = _train(samples, cfg, params, steps, lr)
    return _report("train-smoke", {"model": dataclasses.asdict(cfg), "steps": steps,
                                   "lr": lr, "seed": seed, "batch": batch},
                   initial_loss=curve[0], final_loss=curve[-1],
                   passed=curve[-1] <= 0.5 * curve[0], curve=curve)


def run_ratio_grid(cfg: ModelConfig, ratios=(1, 3, 6, 10), seed: int = 0,
                   train_steps: int = 10, lr: float = 0.01, iters: int = 2) -> dict:
    """Train-and-evaluate every (hr, lr) pruning-ratio pair.

    Each cell reports the post-training loss, measured throughput, and the
    exact forward MAC count. Failures in one cell do not stop the grid.
    """
    ratios = list(ratios)
    if not ratios or any(r < 1 for r in ratios):
        raise ValueError(f"ratios must be nonempty and >= 1, got {ratios}")
    if iters < 1:
        raise ValueError(f"timed iterations must be >= 1, got {iters}")
    if train_steps < 0:
        raise ValueError(f"training steps must be >= 0, got {train_steps}")
    if not lr >= 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    triplet, target = _sample(cfg, seed)  # a pruning ratio does not change it
    cells = []
    for eps_hrb in ratios:
        for eps_lrb in ratios:
            cell_cfg = _with_eps(cfg, eps_hrb, eps_lrb)
            cell = {"eps_hrb": eps_hrb, "eps_lrb": eps_lrb}
            try:
                params = init_model_params(cell_cfg, seed)
                loss = _train([(triplet, target)], cell_cfg, params, train_steps, lr)[-1]
                timing = _time_variant(lambda: forward_full(triplet, cell_cfg, params),
                                       warmup=1, iters=iters)
                cell.update(final_loss=loss, macs=timing["macs"],
                            throughput_per_s=timing["throughput_per_s"])
            except Exception as e:  # keep going; a bad cell is data too
                cell.update(error=f"{type(e).__name__}: {e}")
            cells.append(cell)
    return _report("ratio-grid", {"model": dataclasses.asdict(cfg), "ratios": ratios,
                                  "seed": seed, "train_steps": train_steps, "lr": lr},
                   cells=cells)


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
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    params = init_model_params(cfg, seed)
    triplet, target = _sample(cfg, seed)

    _, hr_sel, lr_sel = forward_full(triplet, cfg, params, details=True)
    frozen = (hr_sel, lr_sel)

    def loss_at():
        return _mean_loss([(triplet, target)], cfg, params, frozen=frozen)

    backward(loss_at())
    named = params.named_parameters()
    if corrupt is not None and corrupt not in dict(named):
        raise KeyError(f"unknown parameter {corrupt!r}")
    grads = [p.grad + 1.0 if name == corrupt else p.grad for name, p in named]
    worst_err, worst_name = _central_diff(loss_at, named, grads, eps, max_coords_per_param)
    return _report("gradcheck", {"model": dataclasses.asdict(cfg), "seed": seed,
                                 "eps": eps, "tol": tol},
                   max_rel_error=float(worst_err), worst_parameter=worst_name,
                   passed=bool(worst_err < tol))
