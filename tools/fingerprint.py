"""SHA-256 fingerprints of the benchmark's outputs, for bit-identity checks
between two checkouts.

    python3 tools/fingerprint.py --seeds 1 2 3 104729

For each seed it builds the ``infer_pruned`` and ``train_mid`` workloads of
``perfbench/workloads.py`` as the benchmark does, runs the pruned forward on
every clip and ``STEPS`` training steps, and prints one JSON line of digests:
the heatmaps, the hr and lr kept indices, the training losses and the final
parameters. Run it from two checkouts and compare the lines; each checkout's
copy imports its own ``src`` and ``perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import prunepose.model as model  # noqa: E402
from workloads import InferPruned, TrainMid  # noqa: E402

STEPS = 12  # train_mid steps per seed


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    for seed in args.seeds:
        print(json.dumps(fingerprint(seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
