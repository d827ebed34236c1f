"""One benchmark child process: set up a workload, run its timed closed loop
and write the result as JSON.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --mode setup|time|measure|trace|memtrace --spawned-at T --out FILE

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the BLAS thread cap in
the environment. ``--spawned-at`` is the parent's ``time.monotonic()`` just
before the spawn, so set-up time covers interpreter start and imports.
``setup`` mode stops after set-up, ``time`` skips the output checks that
follow the timed phase, ``measure`` runs them, ``trace`` records spans and
``memtrace`` records spans with their ``tracemalloc`` peaks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import prunepose
import prunepose.tensor as tensor
import spans
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "measure", "trace", "memtrace"),
                    required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    traced = args.mode in ("trace", "memtrace")
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(prunepose.__file__).resolve().parent != src / "prunepose":
        raise SystemExit(f"imported prunepose from {prunepose.__file__}, not from {src}")

    recorder = None
    if traced:
        recorder = spans.Recorder(memory=args.mode == "memtrace")
        recorder.install()
    span = recorder.span if traced else (lambda name: nullcontext())

    with span("setup"):
        wl = workloads.WORKLOADS[args.workload](args.seed)
        with tensor.mac_tally() as tally:
            warmup_kind = wl.op(wl.warmup_index)
    if traced:
        recorder.take_op_counts()
        recorder.take_heatmaps()

    result = {
        "setup_s": time.monotonic() - args.spawned_at,
        "warmup": {"kind": warmup_kind, "macs": tally.macs},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
    }
    if args.mode != "setup":
        result.update(timed_loop(wl, args.seconds, recorder))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            recorder.uninstall()
            spans_path = args.out.with_suffix(".spans.json")
            recorder.dump(spans_path)
            result["spans_file"] = str(spans_path)
        elif args.mode == "measure":
            result["verify"] = wl.verify()
    args.out.write_text(json.dumps(result))
    return 0


def timed_loop(wl, seconds: float, recorder) -> dict:
    """Closed loop: op ``i + 1`` starts when op ``i`` has returned."""
    latencies, errors, counts = [], [], []
    i = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                wl.op(i)
            else:
                with recorder.span("op"), tensor.mac_tally() as tally:
                    kind = wl.op(i)
        except Exception as exc:  # an op that raises is a failed op; keep going
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            if len(errors) == 1:
                traceback.print_exc()
            if recorder is not None:
                recorder.take_op_counts()
                recorder.take_heatmaps()
        else:
            latencies.append(time.perf_counter() - t0)
            if recorder is not None:
                counts.append(op_counts(kind, tally.macs, recorder))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"elapsed_s": time.perf_counter() - start, "attempted": i,
            "failed": len(errors), "errors": errors[:5], "latencies_s": latencies,
            "op_counts": counts}


def op_counts(kind: str, macs: int, recorder) -> dict:
    """Counts of one traced op; tape size from each forward pass's heatmap."""
    nodes = nbytes = 0
    for heatmap in recorder.take_heatmaps():
        n, b = workloads.tape_size(heatmap.maps)
        nodes += n
        nbytes += b
    return {"kind": kind, "tensor.macs": macs, "tensor.nodes": nodes,
            "tensor.tape_mb": nbytes / 2**20, **recorder.take_op_counts()}


if __name__ == "__main__":
    sys.exit(main())
