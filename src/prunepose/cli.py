"""Command-line interface.

Subcommands: bench, ratio-grid, gradcheck, train-smoke, dump-synth.
Exit codes: 0 success, 1 check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    BenchConfig,
    _with_eps,
    run_bench,
    run_gradcheck,
    run_ratio_grid,
    run_train_smoke,
    write_curve_csv,
    write_grid_csv,
)
from .dpc import DpcConfig
from .model import ModelConfig, TrainingError
from .synth import SynthScene, dump_sequence

# small default geometries so grid sweeps and checks stay desk-scale
TINY_MODEL = dict(image_size=(32, 32), embed_dim=8, joints=2, heads=2,
                  hr_cfg={"epsilon": 4}, lr_cfg={"epsilon": 4})
GRID_MODEL = dict(image_size=(64, 48), embed_dim=16, joints=5, heads=2)


class UsageError(Exception):
    pass


def _model_config(raw: dict) -> ModelConfig:
    raw = dict(raw)
    for key in ("hr_cfg", "lr_cfg"):
        if key in raw and isinstance(raw[key], dict):
            raw[key] = DpcConfig(**raw[key])
    if "image_size" in raw:
        raw["image_size"] = tuple(raw["image_size"])
    try:
        return ModelConfig(**raw)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad model config: {e}") from e


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from e


def _resolve_model(args, defaults: dict | None = None) -> ModelConfig:
    raw = dict(defaults or {})
    raw.update(_load_config(args.config).get("model", {}))
    return _with_eps(_model_config(raw), getattr(args, "eps_hrb", None),
                     getattr(args, "eps_lrb", None))


def _emit(report: dict, out_path):
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


# flags only the subcommands that read them register, so a flag a
# subcommand would ignore is a usage error (exit 2)
_SHARED_FLAGS = {
    "--config": dict(default=None, help="JSON config file; flags win"),
    "--eps-hrb": dict(type=int, default=None, help="high-res branch pruning ratio"),
    "--eps-lrb": dict(type=int, default=None, help="low-res branch pruning ratio"),
    "--iters": dict(type=int, default=None, help="timed iterations"),
}
_MODEL_FLAGS = ("--config", "--eps-hrb", "--eps-lrb")


def _add_common(p, *flags):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prunepose")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="time the baseline / unpruned / pruned variants")
    _add_common(p, *_MODEL_FLAGS, "--iters")
    p.add_argument("--warmup", type=int, default=1)

    p = sub.add_parser("ratio-grid", help="loss/speed over a grid of pruning ratios")
    _add_common(p, "--config", "--iters")  # --ratios sets both epsilons
    p.add_argument("--ratios", type=int, nargs="+", default=[1, 3, 6, 10])
    p.add_argument("--train-steps", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.01)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    _add_common(p, *_MODEL_FLAGS)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)  # test hook
    p.add_argument("--max-coords", type=int, default=None,
                   help="cap checked coordinates per parameter")

    p = sub.add_parser("train-smoke", help="short full-model training run")
    _add_common(p, *_MODEL_FLAGS)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.03)
    p.add_argument("--batch", type=int, default=2)

    p = sub.add_parser("dump-synth", help="write PGM frames + keypoint JSON")
    _add_common(p)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--joints", type=int, default=15)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            model = _resolve_model(args)
            bench = BenchConfig(model=model, warmup=args.warmup,
                                iters=args.iters or 3, seed=args.seed)
            _emit(run_bench(bench), args.out)
            return 0

        if args.command == "ratio-grid":
            model = _resolve_model(args, GRID_MODEL)
            report = run_ratio_grid(model, ratios=args.ratios, seed=args.seed,
                                    train_steps=args.train_steps, lr=args.lr,
                                    iters=args.iters or 2)
            _emit(report, args.out)
            if args.out:
                write_grid_csv(report, str(args.out) + ".csv")
            return 1 if any("error" in c for c in report["cells"]) else 0

        if args.command == "gradcheck":
            model = _resolve_model(args, TINY_MODEL)
            report = run_gradcheck(model, seed=args.seed, eps=args.eps,
                                   tol=args.tol, corrupt=args.corrupt,
                                   max_coords_per_param=args.max_coords)
            _emit(report, args.out)
            return 0 if report["passed"] else 1

        if args.command == "train-smoke":
            model = _resolve_model(args, TINY_MODEL)
            report = run_train_smoke(model, steps=args.steps, lr=args.lr,
                                     seed=args.seed, batch=args.batch)
            if args.out:
                write_curve_csv(report, str(args.out) + ".curve.csv")
            _emit(report, args.out)
            return 0 if report["passed"] else 1

        if args.command == "dump-synth":
            out = args.out or "synth_dump"
            scene = SynthScene(seed=args.seed, joints=args.joints)
            meta = dump_sequence(out, scene, args.length)
            print(json.dumps({"schema": "prunepose-report-v1", "command": "dump-synth",
                              "out": out, "frames": len(meta["frames"])}, indent=2))
            return 0
    except (UsageError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
