"""prunepose benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``infer_pruned``, ``gradcheck_tiny`` and ``train_mid`` (see
``workloads.py`` and ``BENCHMARK.json``). Each runs as a single-client closed
loop in child processes capped at ``nproc`` BLAS threads.

``--trace 0`` spawns ``SETUP_SAMPLES - 1`` set-up-only children and then one
measuring child, and prints the end-to-end metrics. ``--trace 1`` spawns an
untraced child, a child recording spans and a child recording spans with
``tracemalloc`` peaks, for a third of the seconds each. It prints the
per-layer metrics, times from the second child and peaks from the third, and
the tracing overhead: the second child's ``ops_per_s`` against the first's.

Human-readable lines come first, then ``report {...}`` with everything
measured and the environment, and last the result object. Files go to
``.perfbench_out/`` at the repository root. Seed 104729 is held out: a change
claiming a gain confirms it there after tuning on other seeds.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("infer_pruned", "gradcheck_tiny", "train_mid")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COUNT_NAMES = ("tensor.macs", "tensor.nodes", "tensor.tape_mb") + spans.DPC_COUNTS


class Failure(RuntimeError):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """Where the run happened; the checkout may not be a git repository."""
    commit = None
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def spawn(args, mode: str, seconds: float, tag: str, deadline: float) -> dict:
    out = OUT / f"{args.workload}-s{args.seed}-{tag}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    env.update({var: str(nproc()) for var in BLAS_VARS})
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at), "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise Failure(f"{tag} child ran past the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise Failure(f"{tag} child exited with code {code}")
    return json.loads(out.read_text())


def latency_stats(child: dict) -> dict:
    lat_ms = [1e3 * s for s in child["latencies_s"]]
    if len(lat_ms) < 2:
        raise Failure(f"only {len(lat_ms)} ops succeeded; need at least 2 for percentiles")
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    return {"ops_per_s": len(lat_ms) / child["elapsed_s"],
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": p90,
            "samples": len(lat_ms),
            "beyond_p90": sum(1 for x in lat_ms if x > p90)}


def run_untraced(args, deadline: float):
    setups = [spawn(args, "setup", 0, f"setup{k}", deadline)["setup_s"]
              for k in range(SETUP_SAMPLES - 1)]
    child = spawn(args, "measure", args.seconds, "measure", deadline)
    setups.append(child["setup_s"])
    stats = latency_stats(child)
    metrics = {name: stats[name] for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")}
    metrics["peak_rss_mb"] = child["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(setups)
    report = {"latency_samples": stats["samples"], "beyond_p90": stats["beyond_p90"],
              "setup_samples_s": setups, "failed_share": child["failed"] / child["attempted"],
              "errors": child["errors"], "macs_per_op": child["warmup"]["macs"],
              "checks": child["verify"], "env": child["env"]}
    return child["attempted"], child["failed"], metrics, report, []


def per_kind_counts(op_counts: list) -> tuple:
    """Mean over op kinds of each count, and whether it repeats within a kind."""
    by_kind: dict = {}
    for counts in op_counts:
        by_kind.setdefault(counts["kind"], []).append(counts)
    repeats = all(len({c[name] for c in ops}) == 1
                  for ops in by_kind.values() for name in COUNT_NAMES)
    means = {name: statistics.fmean(statistics.fmean(c[name] for c in ops)
                                    for ops in by_kind.values())
             for name in COUNT_NAMES}
    return means, repeats, {kind: ops[0] for kind, ops in by_kind.items()}


def run_traced(args, deadline: float):
    third = args.seconds / 3
    plain = spawn(args, "time", third, "untraced", deadline)
    traced = spawn(args, "trace", third, "traced", deadline)
    mem = spawn(args, "memtrace", third, "memtraced", deadline)
    plain_rate = latency_stats(plain)["ops_per_s"]
    traced_rate = latency_stats(traced)["ops_per_s"]
    mem_rate = latency_stats(mem)["ops_per_s"]

    def layers(child):
        span_list = json.loads(Path(child["spans_file"]).read_text())
        return spans.summarize(span_list, len(child["latencies_s"]))

    peaks = layers(mem)
    metrics = {name: peaks[name] if name.endswith(".peak_mb") else value
               for name, value in layers(traced).items()}
    counts, repeats, first_of_kind = per_kind_counts(traced["op_counts"] + mem["op_counts"])
    metrics.update(counts)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / plain_rate)

    warm = plain["warmup"]
    traced_macs = first_of_kind.get(warm["kind"], {}).get("tensor.macs")
    problems = []
    if traced_macs != warm["macs"]:
        problems.append(f"traced tensor.macs {traced_macs} for {warm['kind']} ops != "
                        f"{warm['macs']} of one untraced op")
    report = {"untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
              "memtraced_ops_per_s": mem_rate,
              "traced_ops": len(traced["latencies_s"]), "untraced_macs_per_op": warm["macs"],
              "counts_repeat_within_kind": repeats, "counts_by_kind": first_of_kind,
              "errors": plain["errors"] + traced["errors"] + mem["errors"],
              "env": traced["env"]}
    children = (plain, traced, mem)
    return (sum(c["attempted"] for c in children), sum(c["failed"] for c in children),
            metrics, report, problems)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so that spawn() kills its child on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "prunepose" / "__init__.py").is_file():
        print(f"no prunepose sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics of each mode and their units
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)

    try:
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics, report, problems = run(args, deadline)
        if set(units) != set(metrics):
            raise Failure(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                          "differ from BENCHMARK.json")
        metrics = {name: metrics[name] for name in units}
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = failed == 0 and not problems
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics, env={**environment(), **report["env"]})
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  env {json.dumps(report['env'])}")
    print(f"  {'failed_share':<42} {failed / attempted:>14.6g} share "
          f"({failed} failed of {attempted} attempted)")
    exact = report.get("checks", {}).get("dpc_exact")
    if exact:
        print(f"  {'dpc_exact_share':<42} {report['checks']['dpc_exact_share']:>14.6g} share "
              f"({exact['hr_equal']} hr and {exact['lr_equal']} lr of {exact['selections']} "
              f"selections equal the exact-difference reference)")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    for key in ("latency_samples", "beyond_p90", "traced_ops", "untraced_ops_per_s",
                "traced_ops_per_s", "memtraced_ops_per_s", "counts_repeat_within_kind"):
        if key in report:
            print(f"  {key}: {json.dumps(report[key])}")
    for problem in problems + report["errors"]:
        print(f"  problem: {problem}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
