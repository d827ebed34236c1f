"""End-to-end video pose model: shared-weight two-branch encoder with token
pruning, cross-attention fusion, and a heatmap head. Both branches prune and
refine through one ``_prune_and_refine``: density-peaks selection, a row
gather, then the branch blocks whose weights the two branches share."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .attention import (
    AttentionParams,
    SpatioTemporalParams,
    cross_attention,
    init_attention,
    init_block,
    init_spatio_temporal,
    transformer_block,
    spatio_temporal_block,
)
from .dpc import DpcConfig, NonFiniteTokens, PruneSelection, _check_int, select
from .tensor import (
    DiffNode,
    ShapeError,
    add,
    backward,
    constant,
    gather_rows,
    gelu,
    matmul,
    mean_all,
    mul,
    permute,
    reshape,
    scale,
    scatter_rows,
    sub,
    upsample_bilinear,
)

__all__ = [
    "ModelConfig",
    "FrameTriplet",
    "Heatmap",
    "ModelParams",
    "TrainingError",
    "init_model_params",
    "patch_embed_backbone",
    "high_res_branch",
    "low_res_branch",
    "fuse_and_decode",
    "decode_head",
    "heatmap_loss",
    "forward_full",
    "train_step",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = "prunepose-checkpoint-v1"


class TrainingError(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


@dataclass(frozen=True)
class ModelConfig:
    image_size: tuple = (256, 192)
    patch: int = 16
    embed_dim: int = 32
    joints: int = 15
    heads: int = 4
    backbone_depth: int = 2
    blocks_per_branch: int = 2
    upsample_factor: int = 4
    hr_cfg: DpcConfig = field(default_factory=lambda: DpcConfig(epsilon=6))
    lr_cfg: DpcConfig = field(default_factory=lambda: DpcConfig(epsilon=6))
    add_hr_pos_embed: bool = True

    def __post_init__(self):
        for name, low in (("patch", 1), ("heads", 1), ("embed_dim", 1), ("joints", 1),
                          ("upsample_factor", 1), ("backbone_depth", 0), ("blocks_per_branch", 0)):
            _check_int(name, getattr(self, name), low)
        if not (isinstance(self.hr_cfg, DpcConfig) and isinstance(self.lr_cfg, DpcConfig)):
            raise ValueError(f"hr_cfg and lr_cfg must be DpcConfigs, "
                             f"got {self.hr_cfg!r} and {self.lr_cfg!r}")
        if not isinstance(self.add_hr_pos_embed, bool):
            raise ValueError(f"add_hr_pos_embed must be a bool, got {self.add_hr_pos_embed!r}")
        h, w = self.image_size
        _check_int("image height", h, 1)
        _check_int("image width", w, 1)
        if h % self.patch or w % self.patch:
            raise ValueError(f"image size {self.image_size} must be multiples "
                             f"of patch {self.patch}")
        if self.embed_dim % self.heads:
            raise ValueError(f"embed dim {self.embed_dim} not divisible by {self.heads} heads")

    @property
    def grid(self) -> tuple:
        return (self.image_size[0] // self.patch, self.image_size[1] // self.patch)

    @property
    def tokens_per_frame(self) -> int:
        gh, gw = self.grid
        return gh * gw

    @property
    def heatmap_size(self) -> tuple:
        """The upsampled hr grid, one heatmap pixel per hr token."""
        gh, gw = self.grid
        return (gh * self.upsample_factor, gw * self.upsample_factor)

    @property
    def hr_tokens(self) -> int:
        hh, hw = self.heatmap_size
        return hh * hw

    @property
    def temporal_tokens(self) -> int:
        return 3 * self.tokens_per_frame


@dataclass(frozen=True)
class FrameTriplet:
    """Three person-centered crops: previous, key, and next frame."""

    images: tuple  # three HxWx3 float arrays

    def __post_init__(self):
        shapes = {np.asarray(im).shape for im in self.images}
        if len(self.images) != 3 or len(shapes) != 1:
            raise ShapeError(f"triplet needs three same-shape images, got {sorted(shapes)}")


@dataclass
class Heatmap:
    """Per-joint maps, channels-first (J, H, W)."""

    maps: DiffNode

    @property
    def shape(self) -> tuple:
        return self.maps.shape


@dataclass
class ModelParams:
    patch_proj: DiffNode
    patch_bias: DiffNode
    pos_embed: DiffNode
    hr_pos_embed: DiffNode | None
    backbone_blocks: list
    st: SpatioTemporalParams
    branch_blocks: list  # shared by both branches, by identity
    fusion: AttentionParams
    head_w1: DiffNode
    head_b1: DiffNode
    head_w2: DiffNode
    head_b2: DiffNode

    def named_parameters(self) -> list:
        """Flat (name, node) list of every trainable leaf, in field declaration
        order; a leaf reached twice (shared blocks) is listed once."""
        out, seen = [], set()

        def walk(x):
            if isinstance(x, DiffNode):
                if id(x) not in seen:
                    seen.add(id(x))
                    out.append((x.name, x))
            elif isinstance(x, list):
                for item in x:
                    walk(item)
            elif is_dataclass(x):
                for f in fields(x):
                    walk(getattr(x, f.name))

        walk(self)
        return out


def init_model_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    c = cfg.embed_dim
    patch_in = cfg.patch * cfg.patch * 3
    hr_pos = None
    if cfg.add_hr_pos_embed:
        hr_pos = constant(rng.normal(0.0, 0.02, (cfg.hr_tokens, c)), "hr_pos_embed")
    return ModelParams(
        patch_proj=constant(rng.normal(0.0, 1.0 / np.sqrt(patch_in), (patch_in, c)), "patch_proj"),
        patch_bias=constant(np.zeros(c), "patch_bias"),
        pos_embed=constant(rng.normal(0.0, 0.02, (cfg.tokens_per_frame, c)), "pos_embed"),
        hr_pos_embed=hr_pos,
        backbone_blocks=[init_block(rng, c, cfg.heads, f"backbone.{i}")
                         for i in range(cfg.backbone_depth)],
        st=init_spatio_temporal(rng, c, cfg.heads),
        branch_blocks=[init_block(rng, c, cfg.heads, f"branch.{i}")
                       for i in range(cfg.blocks_per_branch)],
        fusion=init_attention(rng, c, cfg.heads, "fusion"),
        head_w1=constant(rng.normal(0.0, 1.0 / np.sqrt(c), (c, c)), "head_w1"),
        head_b1=constant(np.zeros(c), "head_b1"),
        head_w2=constant(rng.normal(0.0, 1.0 / np.sqrt(c), (c, cfg.joints)), "head_w2"),
        head_b2=constant(np.zeros(cfg.joints), "head_b2"),
    )


def _patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """Split HxWx3 into row-major PxPx3 patches, flattened per patch."""
    h, w, ch = image.shape
    gh, gw = h // patch, w // patch
    tiles = image.reshape(gh, patch, gw, patch, ch).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(tiles).reshape(gh * gw, patch * patch * ch)


def patch_embed_backbone(triplet: FrameTriplet, cfg: ModelConfig,
                         params: ModelParams) -> list:
    """Per-frame token matrices from the patch projection plus shallow blocks."""
    out = []
    for im in triplet.images:
        im = np.asarray(im, dtype=np.float64)
        if im.shape != (*cfg.image_size, 3):
            raise ShapeError(f"image shape {im.shape} != {(*cfg.image_size, 3)}")
        tokens = matmul(constant(_patchify(im, cfg.patch)), params.patch_proj, params.patch_bias)
        tokens = add(tokens, params.pos_embed)
        for b in params.backbone_blocks:
            tokens = transformer_block(tokens, b)
        out.append(tokens)
    return out


def _upsample_grid(tokens: DiffNode, cfg: ModelConfig) -> DiffNode:
    """One frame's (gh*gw, C) token matrix as its grid, upsampled by
    ``cfg.upsample_factor`` and read back as the (hr_tokens, C) matrix."""
    gh, gw = cfg.grid
    grid = upsample_bilinear(reshape(tokens, (gh, gw, cfg.embed_dim)), cfg.upsample_factor)
    return reshape(grid, (cfg.hr_tokens, cfg.embed_dim))


def _prune_and_refine(tokens: DiffNode, dpc_cfg: DpcConfig, params: ModelParams,
                      selection: PruneSelection | None):
    """Keep the rows ``selection`` names (chosen by density peaks under
    ``dpc_cfg`` when None) and refine them with the shared branch blocks.
    Returns (refined tokens, selection)."""
    if selection is None:
        selection = select(tokens.value, dpc_cfg)
    tokens = gather_rows(tokens, selection.kept)
    for b in params.branch_blocks:
        tokens = transformer_block(tokens, b)
    return tokens, selection


def high_res_branch(f_t: DiffNode, cfg: ModelConfig, params: ModelParams,
                    selection: PruneSelection | None = None):
    """Upsample the key frame tokens, prune, refine with the shared blocks.

    Returns (refined tokens, selection, full pre-pruning grid).
    """
    flat = _upsample_grid(f_t, cfg)
    if params.hr_pos_embed is not None:
        flat = add(flat, params.hr_pos_embed)
    return (*_prune_and_refine(flat, cfg.hr_cfg, params, selection), flat)


def low_res_branch(frames, cfg: ModelConfig, params: ModelParams,
                   selection: PruneSelection | None = None):
    """Joint spatio-temporal attention over all frames, then prune and refine."""
    return _prune_and_refine(spatio_temporal_block(frames, params.st), cfg.lr_cfg,
                             params, selection)


def fuse_and_decode(f_f: DiffNode, sel_f: PruneSelection, hr_grid: DiffNode,
                    f_c: DiffNode, cfg: ModelConfig, params: ModelParams) -> Heatmap:
    """Cross-attend fine tokens onto coarse ones, write them back into the
    dense grid, and project every position to per-joint scores."""
    fused = cross_attention(f_f, f_c, params.fusion)
    return Heatmap(decode_head(scatter_rows(hr_grid, sel_f.kept, fused), cfg, params))


def decode_head(dense: DiffNode, cfg: ModelConfig, params: ModelParams) -> DiffNode:
    """Project each of the hr grid's rows to per-joint scores, as (J, H, W) maps."""
    hidden = gelu(matmul(dense, params.head_w1, params.head_b1))
    logits = matmul(hidden, params.head_w2, params.head_b2)
    hh, hw = cfg.heatmap_size
    return permute(reshape(logits, (hh, hw, cfg.joints)), (2, 0, 1))


def heatmap_loss(h, g) -> DiffNode:
    """Mean squared difference between predicted and target maps."""
    hn = h.maps if isinstance(h, Heatmap) else h
    gn = g.maps if isinstance(g, Heatmap) else g
    if not isinstance(gn, DiffNode):
        gn = constant(np.asarray(gn, dtype=np.float64))
    if hn.shape != gn.shape:
        raise ShapeError(f"heatmap shapes differ: {hn.shape} vs {gn.shape}")
    diff = sub(hn, gn)
    return mean_all(mul(diff, diff))


def forward_full(triplet: FrameTriplet, cfg: ModelConfig, params: ModelParams,
                 frozen=None, details: bool = False):
    """Full pipeline. ``frozen`` optionally pins the (hr, lr) prune selections
    so the map stays smooth under parameter perturbations (gradient checks)."""
    frames = patch_embed_backbone(triplet, cfg, params)
    hr_sel = lr_sel = None
    if frozen is not None:
        hr_sel, lr_sel = frozen
    f_f, hr_sel, hr_grid = high_res_branch(frames[1], cfg, params, hr_sel)
    f_c, lr_sel = low_res_branch(frames, cfg, params, lr_sel)
    heatmap = fuse_and_decode(f_f, hr_sel, hr_grid, f_c, cfg, params)
    if details:
        return heatmap, hr_sel, lr_sel
    return heatmap


def _mean_loss(samples, cfg: ModelConfig, params: ModelParams, frozen=None) -> DiffNode:
    """Mean heatmap loss over (triplet, target) samples; one sample's loss is
    returned as it is. ``frozen`` is passed to :func:`forward_full`. Raises
    TrainingError when the features or the loss are non-finite."""
    try:
        losses = [heatmap_loss(forward_full(t, cfg, params, frozen=frozen), g)
                  for t, g in samples]
    except NonFiniteTokens as e:  # features overflowed: treat like a non-finite loss
        raise TrainingError(f"non-finite features: {e}") from e
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    total = total if len(losses) == 1 else scale(total, 1.0 / len(losses))
    if not np.isfinite(total.value):
        raise TrainingError(f"non-finite loss {float(total.value)!r}")
    return total


def _descend(samples, cfg: ModelConfig, params: ModelParams, lr: float) -> float:
    """One gradient descent step of ``params`` on the mean loss over
    ``samples``, in place; selections are treated as constants of the
    forward pass. Returns the pre-update loss."""
    if not lr >= 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    loss = _mean_loss(samples, cfg, params)
    loss_val = float(loss.value)
    backward(loss)
    if lr > 0:
        for _, p in params.named_parameters():
            p.value -= lr * p.grad
    return loss_val


def train_step(triplet: FrameTriplet, target, cfg: ModelConfig,
               params: ModelParams, lr: float) -> float:
    """One gradient descent step on one sample, in place; returns the
    pre-update loss."""
    return _descend([(triplet, target)], cfg, params, lr)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams):
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "params": {
            name: {"shape": list(p.shape), "data": p.value.ravel().tolist()}
            for name, p in params.named_parameters()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path, params: ModelParams):
    """Restore parameter values in place; names and shapes must match exactly."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("params"), dict):
        raise ValueError("not a recognized checkpoint: not a JSON object with a \"params\" object")
    if payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a recognized checkpoint: magic={payload.get('magic')!r}")
    stored, named = payload["params"], params.named_parameters()
    extra = stored.keys() - {name for name, _ in named}
    if extra:
        raise KeyError(f"checkpoint has parameters the model lacks: {sorted(extra)}")
    for name, p in named:
        if name not in stored:
            raise KeyError(f"checkpoint missing parameter {name!r}")
        entry = stored[name]
        if tuple(entry["shape"]) != p.shape:
            raise ShapeError(f"{name}: checkpoint shape {entry['shape']} != {p.shape}")
        p.value[...] = np.array(entry["data"]).reshape(p.shape)
    return params
