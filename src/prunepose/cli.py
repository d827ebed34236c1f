"""Command-line interface.

Subcommands: bench, ratio-grid, gradcheck, train-smoke, dump-synth.
Exit codes: 0 success, 1 check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .bench import (
    _report,
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


def _model_config(raw: dict) -> ModelConfig:
    try:
        raw = dict(raw)
        for key in ("hr_cfg", "lr_cfg"):
            if key in raw and isinstance(raw[key], dict):
                raw[key] = DpcConfig(**raw[key])
        if "image_size" in raw:
            raw["image_size"] = tuple(raw["image_size"])
        return ModelConfig(**raw)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad model config: {e}") from e


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, dict) or not isinstance(raw.get("model", {}), dict):
        raise ValueError(f"config {path} must hold a JSON object whose \"model\" is an object")
    unknown = sorted(raw.keys() - {"model"})
    if unknown:  # a key the run would ignore is a usage error
        raise ValueError(f"config {path}: unknown top-level keys {unknown}")
    return raw


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
}
_MODEL_FLAGS = ("--config", "--eps-hrb", "--eps-lrb")


def _add_common(p, *flags, out_help="write the JSON report here"):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help=out_help)
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prunepose")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="time the baseline / unpruned / pruned variants")
    _add_common(p, *_MODEL_FLAGS)
    p.add_argument("--iters", type=int, default=10, help="timed iterations")
    p.add_argument("--warmup", type=int, default=1)

    p = sub.add_parser("ratio-grid", help="loss/speed over a grid of pruning ratios")
    _add_common(p, "--config")  # --ratios sets both epsilons
    p.add_argument("--iters", type=int, default=2, help="timed iterations per cell")
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
    _add_common(p, out_help="directory for the frames and keypoints.json (default synth_dump)")
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--joints", type=int, default=15)
    return parser


# the suffix of the CSV that these subcommands write next to the --out report
_CSV_SUFFIX = {"ratio-grid": ".csv", "train-smoke": ".curve.csv"}


def _check_writable(args):
    """Raise OSError, creating or truncating nothing, when a file that
    ``--out`` names could not be written: the report, and its CSV."""
    if not args.out or args.command == "dump-synth":  # dump-synth makes a directory
        return
    paths = [str(args.out)]
    if args.command in _CSV_SUFFIX:
        paths.append(paths[0] + _CSV_SUFFIX[args.command])
    for path in paths:
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            err = errno.EISDIR
        elif os.path.exists(path):
            err = 0 if os.access(path, os.W_OK) else errno.EACCES
        elif not os.path.isdir(parent):
            err = errno.ENOENT
        else:
            err = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
        if err:
            raise OSError(err, os.strerror(err), path)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args)
        if args.command == "bench":
            _emit(run_bench(_resolve_model(args), seed=args.seed, warmup=args.warmup,
                            iters=args.iters), args.out)
            return 0

        if args.command == "ratio-grid":
            model = _resolve_model(args, GRID_MODEL)
            report = run_ratio_grid(model, ratios=args.ratios, seed=args.seed,
                                    train_steps=args.train_steps, lr=args.lr,
                                    iters=args.iters)
            _emit(report, args.out)
            if args.out:
                write_grid_csv(report, str(args.out) + _CSV_SUFFIX[args.command])
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
                write_curve_csv(report, str(args.out) + _CSV_SUFFIX[args.command])
            _emit(report, args.out)
            return 0 if report["passed"] else 1

        if args.command == "dump-synth":
            out = args.out or "synth_dump"
            scene = SynthScene(seed=args.seed, joints=args.joints)
            meta = dump_sequence(out, scene, args.length)
            config = {"seed": args.seed, "joints": args.joints, "length": args.length}
            print(json.dumps(_report("dump-synth", config, out=out,
                                     frames=len(meta["frames"])), indent=2))
            return 0
    except (ValueError, KeyError, OSError) as e:  # OSError: an unwritable --out
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
