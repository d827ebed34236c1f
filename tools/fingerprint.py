"""SHA-256 fingerprints of the benchmark's outputs, for bit-identity checks
between two checkouts.

    python3 tools/fingerprint.py --seeds 1 2 3 104729
    python3 tools/fingerprint.py --grads A.npz
    python3 tools/fingerprint.py --compare-grads A.npz B.npz

For each seed, ``--seeds`` builds the ``infer_pruned`` and ``train_mid``
workloads of ``perfbench/workloads.py`` as the benchmark does, runs the
pruned forward on every clip and ``STEPS`` training steps, and prints one
JSON line of digests: the heatmaps, the hr and lr kept indices, the training
losses and the final parameters. Run it from two checkouts and compare the
lines; each checkout's copy imports its own ``src`` and ``perfbench``.

Where gradients are meant to change at rounding level only, ``--grads``
saves the parameter gradients of one ``train_mid`` step (seed ``GRAD_SEED``,
the first clip of its batch, before any update) to an ``.npz``, and
``--compare-grads`` prints one JSON line per parameter with
max|B - A| / max|A|, then a summary line with the worst ratio and how many
parameters are bit-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import prunepose.model as model  # noqa: E402
from workloads import InferPruned, TrainMid  # noqa: E402

STEPS = 12  # train_mid steps per seed
GRAD_SEED = 1  # train_mid seed of --grads


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fingerprint(seed: int) -> dict:
    infer = InferPruned(seed)
    maps, hr_kept, lr_kept = [], [], []
    for c, triplet in enumerate(infer.triplets):
        m = c % 2  # the model that clip meets in InferPruned.op
        heatmap, hr_sel, lr_sel = model.forward_full(triplet, infer.cfgs[m], infer.params[m],
                                                     details=True)
        maps.append(heatmap.maps.value)
        hr_kept.append(np.asarray(hr_sel.kept, dtype=np.int64))
        lr_kept.append(np.asarray(lr_sel.kept, dtype=np.int64))
    train = TrainMid(seed)
    for i in range(STEPS):
        train.op(i)
    return {
        "seed": seed,
        "clips": len(maps),
        "heatmaps": digest(maps),
        "hr_kept": digest(hr_kept),
        "lr_kept": digest(lr_kept),
        "train_steps": STEPS,
        "train_losses": digest([np.array(train.losses)]),
        "train_params": digest(p.value for _, p in train.params.named_parameters()),
    }


def step_grads(seed: int) -> dict:
    """Parameter gradients of one ``train_mid`` step on the first clip."""
    train = TrainMid(seed)
    triplet, target = train.batch[0]
    model.train_step(triplet, target, train.cfg, train.params, 0.0)  # lr 0: no update
    return {name: p.grad for name, p in train.params.named_parameters()}


def compare_grads(a: dict, b: dict) -> list:
    """One row per parameter of ``a`` and a summary row, as dicts."""
    if a.keys() != b.keys():
        raise ValueError(f"parameter names differ: {sorted(a.keys() ^ b.keys())}")
    rows = []
    for name, ga in a.items():
        gb = b[name]
        if ga.shape != gb.shape:
            raise ValueError(f"{name}: shapes differ, {ga.shape} vs {gb.shape}")
        delta, scale = np.abs(gb - ga).max(initial=0.0), np.abs(ga).max(initial=0.0)
        rel = delta / scale if scale else (0.0 if delta == 0 else math.inf)
        rows.append({"param": name, "max_rel": float(rel),
                     "identical": bool(np.array_equal(ga, gb))})
    worst = max(rows, key=lambda row: row["max_rel"])
    rows.append({"params": len(rows), "identical": sum(row["identical"] for row in rows),
                 "worst": worst["max_rel"], "worst_param": worst["param"]})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=int, nargs="+", help="print digests per seed")
    mode.add_argument("--grads", metavar="PATH.npz", help="save one step's gradients")
    mode.add_argument("--compare-grads", nargs=2, metavar=("A.npz", "B.npz"),
                      help="compare two saved gradient files")
    args = ap.parse_args(argv)
    if args.grads is not None:
        grads = step_grads(GRAD_SEED)
        with open(args.grads, "wb") as fh:  # np.savez would append ".npz" to a bare name
            np.savez(fh, **grads)
    elif args.compare_grads:
        a, b = (dict(np.load(path, allow_pickle=False)) for path in args.compare_grads)
        try:
            rows = compare_grads(a, b)
        except ValueError as e:
            ap.error(str(e))
        for row in rows:
            print(json.dumps(row))
    else:
        for seed in args.seeds:
            print(json.dumps(fingerprint(seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
