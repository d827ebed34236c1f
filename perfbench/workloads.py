"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed during set-up and then
exposes ``op(i)``, one unit of timed work, which raises ``OpFailed`` when an
output is wrong. Every call into the program goes through a module attribute
(``model.forward_full``, ``synth.make_triplet_sample`` ...), so the traced
run's wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import prunepose.attention as attention
import prunepose.model as model
import prunepose.synth as synth
import prunepose.tensor as tensor
from prunepose.dpc import DpcConfig

from dpc_reference import reference_scores


class OpFailed(RuntimeError):
    """An op finished but its output is wrong."""


def as_array(x) -> np.ndarray:
    """A node's value or gradient as an ndarray, wrapped in a Tensor or not."""
    return x if isinstance(x, np.ndarray) else x.data


def tape_size(root) -> tuple:
    """Nodes and computed value bytes reachable from ``root`` through ``.parents``."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += as_array(node.value).nbytes
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


def _scene_seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(2**31, size=count, replace=False)]


def _check_selection(sel, n_tokens: int, epsilon: int, branch: str):
    kept = np.asarray(sel.kept)
    want = max(1, n_tokens // epsilon)
    if kept.shape != (want,):
        raise OpFailed(f"{branch} kept {kept.shape}, want ({want},)")
    if kept[0] < 0 or kept[-1] >= n_tokens or np.any(np.diff(kept) <= 0):
        raise OpFailed(f"{branch} kept indices are not ascending within [0, {n_tokens})")


class InferPruned:
    """Pruned default forward, alternating hr position embedding on and off.

    Each op takes the next of ``CLIPS`` distinct clips, and clip ``c`` always
    meets model ``c % 2`` because ``CLIPS`` is even. After the timed phase the
    selections made on the first ``CHECKED_CLIPS`` clips are compared with the
    exact-difference reference, which bounds that check at about 0.7 s per
    clip whatever the op rate.
    """

    name = "infer_pruned"
    CLIPS = 24
    CHECKED_CLIPS = 12
    KINDS = ("pos_embed_on", "pos_embed_off")

    def __init__(self, seed: int):
        base = model.ModelConfig()
        self.cfgs = (base, replace(base, add_hr_pos_embed=False))
        self.params = tuple(model.init_model_params(cfg, seed) for cfg in self.cfgs)
        self.triplets = [synth.make_triplet_sample(synth.SynthScene(seed=s), base)[0]
                         for s in _scene_seeds(seed, self.CLIPS)]
        self.selections = {}
        self.warmup_index = self.CLIPS - 1

    def op(self, i: int):
        m, c = i % 2, i % self.CLIPS
        cfg = self.cfgs[m]
        heatmap, hr_sel, lr_sel = model.forward_full(self.triplets[c], cfg, self.params[m],
                                                     details=True)
        maps = as_array(heatmap.maps.value)
        if maps.shape != (cfg.joints, *cfg.heatmap_size):
            raise OpFailed(f"heatmap shape {maps.shape}")
        if not np.isfinite(maps).all():
            raise OpFailed("non-finite heatmap")
        _check_selection(hr_sel, cfg.hr_tokens, cfg.hr_cfg.epsilon, "hr")
        _check_selection(lr_sel, cfg.temporal_tokens, cfg.lr_cfg.epsilon, "lr")
        if c < self.CHECKED_CLIPS:
            self.selections[c] = (hr_sel, lr_sel)
        return self.KINDS[m]

    def verify(self) -> dict:
        """Compare the checked clips' selections with the exact-difference reference."""
        same = {"hr": 0, "lr": 0}
        for c, (hr_sel, lr_sel) in sorted(self.selections.items()):
            cfg, params = self.cfgs[c % 2], self.params[c % 2]
            frames = model.patch_embed_backbone(self.triplets[c], cfg, params)
            _, _, hr_tokens = model.high_res_branch(frames[1], cfg, params, hr_sel)
            lr_tokens = attention.spatio_temporal_block(frames, params.st)
            for branch, tokens, sel, dcfg in (("hr", hr_tokens, hr_sel, cfg.hr_cfg),
                                              ("lr", lr_tokens, lr_sel, cfg.lr_cfg)):
                kept = reference_scores(as_array(tokens.value), dcfg.k, dcfg.tau,
                                        dcfg.epsilon)[3]
                same[branch] += int(np.array_equal(kept, sel.kept))
        checked = len(self.selections)
        if not checked:
            return {}
        return {
            "dpc_exact_share": (same["hr"] + same["lr"]) / (2 * checked),
            "dpc_exact": {"selections": 2 * checked, "hr_equal": same["hr"],
                          "lr_equal": same["lr"], "per_branch": checked},
        }


class GradcheckTiny:
    """One central-difference probe of one parameter coordinate per op.

    Selections are frozen and the analytic gradient taken by one backward pass
    during set-up; coordinates are visited in a seed-shuffled order. The step
    is 1e-6, not 1e-4: the central difference's truncation error grows as the
    step squared, and at 1e-4 it alone exceeds the tolerance on some
    high-curvature coordinates (``patch_bias`` at seed 12).
    """

    name = "gradcheck_tiny"
    KINDS = ("probe",)
    EPS = 1e-6
    TOL = 1e-4

    def __init__(self, seed: int):
        self.cfg = model.ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2,
                                     hr_cfg=DpcConfig(epsilon=4), lr_cfg=DpcConfig(epsilon=4))
        self.params = model.init_model_params(self.cfg, seed)
        scene = synth.SynthScene(seed=_scene_seeds(seed, 1)[0], joints=self.cfg.joints)
        self.triplet, self.target, _ = synth.make_triplet_sample(scene, self.cfg)
        _, hr_sel, lr_sel = model.forward_full(self.triplet, self.cfg, self.params, details=True)
        self.frozen = (hr_sel, lr_sel)
        tensor.backward(self._loss())
        named = self.params.named_parameters()
        self.values = [as_array(p.value) for _, p in named]
        self.grads = [as_array(p.grad).copy() for _, p in named]
        sizes = [v.size for v in self.values]
        param_of = np.repeat(np.arange(len(sizes)), sizes)
        coord_of = np.concatenate([np.arange(n) for n in sizes])
        order = np.random.default_rng(seed).permutation(param_of.size)
        self.coords = list(zip(param_of[order].tolist(), coord_of[order].tolist()))
        self.names = [name for name, _ in named]
        self.warmup_index = len(self.coords) - 1

    def _loss(self):
        return model.heatmap_loss(
            model.forward_full(self.triplet, self.cfg, self.params, frozen=self.frozen),
            self.target)

    def op(self, i: int):
        p, j = self.coords[i % len(self.coords)]
        value = self.values[p]
        idx = np.unravel_index(j, value.shape)
        orig = value[idx]
        try:
            value[idx] = orig + self.EPS
            hi = float(as_array(self._loss().value))
            value[idx] = orig - self.EPS
            lo = float(as_array(self._loss().value))
        finally:
            value[idx] = orig
        central = (hi - lo) / (2.0 * self.EPS)
        err = abs(self.grads[p][idx] - central) / max(1.0, abs(central))
        if not err < self.TOL:
            raise OpFailed(f"{self.names[p]}[{j}] relative error {err:.3e}")
        return self.KINDS[0]

    def verify(self) -> dict:
        return {}


class TrainMid:
    """One unpruned SGD step at 128x96, cycling over a fixed batch of clips."""

    name = "train_mid"
    KINDS = ("step",)
    BATCH = 4
    LR = 0.01

    def __init__(self, seed: int):
        self.cfg = model.ModelConfig(image_size=(128, 96), hr_cfg=DpcConfig(epsilon=1),
                                     lr_cfg=DpcConfig(epsilon=1))
        self.params = model.init_model_params(self.cfg, seed)
        self.batch = [synth.make_triplet_sample(synth.SynthScene(seed=s), self.cfg)[:2]
                      for s in _scene_seeds(seed, self.BATCH)]
        self.warmup_index = self.BATCH - 1
        self.losses = []

    def op(self, i: int):
        triplet, target = self.batch[i % self.BATCH]
        out = model.train_step(triplet, target, self.cfg, self.params, self.LR)
        loss = float(out[0] if isinstance(out, tuple) else out)
        if not math.isfinite(loss):
            raise OpFailed(f"non-finite loss {loss!r}")
        self.losses.append(loss)
        return self.KINDS[0]

    def verify(self) -> dict:
        return {"loss_first": self.losses[0], "loss_last": self.losses[-1]} if self.losses else {}


WORKLOADS = {cls.name: cls for cls in (InferPruned, GradcheckTiny, TrainMid)}
