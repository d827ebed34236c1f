"""Span recorder for the traced child, and the summary of what it wrote.

``Recorder.install`` replaces the traced module-level functions in every
``prunepose`` namespace that holds them (``prunepose.model.prune``, both
``model``'s and ``attention``'s ``transformer_block`` ...) with wrappers that
open a span around the call. Only module attributes in memory change; the
program's files are not touched, and ``uninstall`` puts the originals back.

A span is ``[name, parent, start_s, end_s, peak_bytes]``, ``parent`` being the
index of the enclosing span or -1. With memory tracing on, ``peak_bytes`` is
the highest ``tracemalloc`` reading while the span was open, minus the reading
when it opened. Spans stay in memory until ``dump``; ``summarize`` then derives self
time, a span's duration minus that of its direct children, which cover
disjoint parts of it because the child is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (module, function, span name); dpc.prune is named by its caller instead
TRACED = (
    ("prunepose.model", "patch_embed_backbone", "model.patch_embed_backbone"),
    ("prunepose.model", "high_res_branch", "model.high_res_branch"),
    ("prunepose.model", "low_res_branch", "model.low_res_branch"),
    ("prunepose.model", "fuse_and_decode", "model.fuse_and_decode"),
    ("prunepose.model", "heatmap_loss", "model.heatmap_loss"),
    ("prunepose.dpc", "prune", None),
    ("prunepose.dpc", "pairwise_sq_dist", "dpc.pairwise_sq_dist"),
    ("prunepose.dpc", "local_density", "dpc.local_density"),
    ("prunepose.dpc", "delta_distance", "dpc.delta_distance"),
    ("prunepose.attention", "transformer_block", "attention.transformer_block"),
    ("prunepose.attention", "spatio_temporal_block", "attention.spatio_temporal_block"),
    ("prunepose.attention", "cross_attention", "attention.cross_attention"),
    ("prunepose.tensor", "backward", "tensor.backward"),
    ("prunepose.synth", "make_triplet_sample", "synth.make_triplet_sample"),
)
PRUNE_CALLERS = {"model.high_res_branch": "hr", "model.low_res_branch": "lr"}
SPAN_NAMES = tuple(name for _, _, name in TRACED if name) + ("dpc.prune.hr", "dpc.prune.lr")
# counts kept per op by the prune wrapper
DPC_COUNTS = ("dpc.tokens_in.hr", "dpc.tokens_in.lr", "dpc.kept.hr", "dpc.kept.lr",
              "dpc.pair_macs")


class Recorder:
    """Spans of the traced functions; peaks only when ``memory`` is set,
    because ``tracemalloc`` slows allocation-heavy code several times over."""

    def __init__(self, memory: bool):
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.spans: list = []
        self._open: list = []  # indices of open spans, innermost last
        self._peak: dict = {}  # open span index -> highest reading seen
        self._patched: list = []
        self.counts: dict = dict.fromkeys(DPC_COUNTS, 0)
        self.heatmaps: list = []  # fuse_and_decode outputs since the last take

    # -- spans --------------------------------------------------------------

    def _memory(self) -> int:
        return tracemalloc.get_traced_memory()[0] if self.memory else 0

    def _absorb_peak(self):
        if not self.memory:
            return
        _, peak = tracemalloc.get_traced_memory()
        for idx in self._open:
            if peak > self._peak[idx]:
                self._peak[idx] = peak
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str):
        self._absorb_peak()
        idx = len(self.spans)
        base = self._memory()
        self.spans.append([name, self._open[-1] if self._open else -1,
                           time.perf_counter(), None, 0])
        self._open.append(idx)
        self._peak[idx] = base
        try:
            yield
        finally:
            end = time.perf_counter()
            self._absorb_peak()
            self._open.pop()
            record = self.spans[idx]
            record[3] = end
            record[4] = self._peak.pop(idx) - base

    def _caller(self) -> str | None:
        for idx in reversed(self._open):
            branch = PRUNE_CALLERS.get(self.spans[idx][0])
            if branch:
                return branch
        return None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name):
        if name == "model.fuse_and_decode":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    out = fn(*args, **kwargs)
                self.heatmaps.append(out)
                return out
        elif name is None:  # dpc.prune
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                branch = self._caller()
                with self.span(f"dpc.prune.{branch}" if branch else "dpc.prune"):
                    out = fn(*args, **kwargs)
                n, c = (args[0] if args else kwargs["tokens"]).shape
                if branch:
                    self.counts[f"dpc.tokens_in.{branch}"] += n
                    self.counts[f"dpc.kept.{branch}"] += len(out[1].kept)
                self.counts["dpc.pair_macs"] += n * n * c
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "prunepose" or key.startswith("prunepose."))]
        for module_name, fn_name, span_name in TRACED:
            orig = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(orig, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def take_op_counts(self) -> dict:
        counts, self.counts = self.counts, dict.fromkeys(DPC_COUNTS, 0)
        return counts

    def take_heatmaps(self) -> list:
        out, self.heatmaps = self.heatmaps, []
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list, ops: int) -> dict:
    """Per-layer metrics from a dumped span list.

    Spans under an ``op`` root are reported per op; ``synth.*`` runs only in
    set-up, so it is reported per set-up, from spans under the ``setup`` root.
    """
    n = len(spans)
    root = [0] * n
    child_s = [0.0] * n
    for i, (name, parent, start, end, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_s[parent] += end - start
    totals = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES + ("op",)}
    for i, (name, parent, start, end, peak) in enumerate(spans):
        phase = spans[root[i]][0]
        if name not in totals or phase != ("setup" if name.startswith("synth.") else "op"):
            continue
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_s[i]
        t[3] = max(t[3], peak)
    out = {}
    for name, (calls, dur, self_s, peak) in totals.items():
        per = 1 if name.startswith("synth.") else max(ops, 1)
        if name == "op":
            out["op.ms"] = 1e3 * dur / per
            continue
        out[f"{name}.calls"] = calls / per
        out[f"{name}.ms"] = 1e3 * dur / per
        out[f"{name}.self_ms"] = 1e3 * self_s / per
        out[f"{name}.peak_mb"] = peak / 2**20
    return out
