"""End-to-end video pose model: shared-weight two-branch encoder with token
pruning, cross-attention fusion, and a heatmap head."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionParams,
    BlockParams,
    SpatioTemporalParams,
    cross_attention,
    init_attention,
    init_block,
    init_spatio_temporal,
    transformer_block,
    spatio_temporal_block,
)
from .dpc import DpcConfig, NonFiniteTokens, PruneSelection, prune
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
    parameter,
    permute,
    reshape,
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
        h, w = self.image_size
        if h % self.patch or w % self.patch:
            raise ValueError(f"image size {self.image_size} not divisible by patch {self.patch}")
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
    def hr_grid(self) -> tuple:
        gh, gw = self.grid
        return (gh * self.upsample_factor, gw * self.upsample_factor)

    @property
    def hr_tokens(self) -> int:
        hh, hw = self.hr_grid
        return hh * hw

    @property
    def temporal_tokens(self) -> int:
        return 3 * self.tokens_per_frame

    @property
    def heatmap_size(self) -> tuple:
        return self.hr_grid


@dataclass(frozen=True)
class FrameTriplet:
    """Three person-centered crops: previous, key, and next frame."""

    images: tuple  # three HxWx3 float arrays
    person_id: int = 0
    frame_index: int = 0

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
        """Flat (name, node) list covering every trainable leaf."""
        out = []

        def block_items(prefix, b: BlockParams):
            a = b.attention
            yield from [
                (f"{prefix}.attn.w_q", a.w_q), (f"{prefix}.attn.w_k", a.w_k),
                (f"{prefix}.attn.w_v", a.w_v), (f"{prefix}.attn.w_o", a.w_o),
                (f"{prefix}.mlp_w1", b.mlp_w1), (f"{prefix}.mlp_b1", b.mlp_b1),
                (f"{prefix}.mlp_w2", b.mlp_w2), (f"{prefix}.mlp_b2", b.mlp_b2),
                (f"{prefix}.ln1_gain", b.ln1_gain), (f"{prefix}.ln1_bias", b.ln1_bias),
                (f"{prefix}.ln2_gain", b.ln2_gain), (f"{prefix}.ln2_bias", b.ln2_bias),
            ]

        out.append(("patch_proj", self.patch_proj))
        out.append(("patch_bias", self.patch_bias))
        out.append(("pos_embed", self.pos_embed))
        if self.hr_pos_embed is not None:
            out.append(("hr_pos_embed", self.hr_pos_embed))
        for i, b in enumerate(self.backbone_blocks):
            out.extend(block_items(f"backbone.{i}", b))
        out.extend(block_items("st.block", self.st.block))
        out.append(("st.frame_embed", self.st.frame_embed))
        for i, b in enumerate(self.branch_blocks):
            out.extend(block_items(f"branch.{i}", b))
        a = self.fusion
        out.extend([
            ("fusion.w_q", a.w_q), ("fusion.w_k", a.w_k),
            ("fusion.w_v", a.w_v), ("fusion.w_o", a.w_o),
        ])
        out.extend([
            ("head_w1", self.head_w1), ("head_b1", self.head_b1),
            ("head_w2", self.head_w2), ("head_b2", self.head_b2),
        ])
        return out


def init_model_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    c = cfg.embed_dim
    patch_in = cfg.patch * cfg.patch * 3
    hr_pos = None
    if cfg.add_hr_pos_embed:
        hr_pos = parameter(rng.normal(0.0, 0.02, (cfg.hr_tokens, c)), "hr_pos_embed")
    return ModelParams(
        patch_proj=parameter(rng.normal(0.0, 1.0 / np.sqrt(patch_in), (patch_in, c)), "patch_proj"),
        patch_bias=parameter(np.zeros(c), "patch_bias"),
        pos_embed=parameter(rng.normal(0.0, 0.02, (cfg.tokens_per_frame, c)), "pos_embed"),
        hr_pos_embed=hr_pos,
        backbone_blocks=[init_block(rng, c, cfg.heads, f"backbone.{i}")
                         for i in range(cfg.backbone_depth)],
        st=init_spatio_temporal(rng, c, cfg.heads),
        branch_blocks=[init_block(rng, c, cfg.heads, f"branch.{i}")
                       for i in range(cfg.blocks_per_branch)],
        fusion=init_attention(rng, c, cfg.heads, "fusion"),
        head_w1=parameter(rng.normal(0.0, 1.0 / np.sqrt(c), (c, c)), "head_w1"),
        head_b1=parameter(np.zeros(c), "head_b1"),
        head_w2=parameter(rng.normal(0.0, 1.0 / np.sqrt(c), (c, cfg.joints)), "head_w2"),
        head_b2=parameter(np.zeros(cfg.joints), "head_b2"),
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
        tokens = add(add(matmul(constant(_patchify(im, cfg.patch)), params.patch_proj),
                         params.patch_bias),
                     params.pos_embed)
        for b in params.backbone_blocks:
            tokens = transformer_block(tokens, b)
        out.append(tokens)
    return out


def high_res_branch(f_t: DiffNode, cfg: ModelConfig, params: ModelParams,
                    selection: PruneSelection | None = None):
    """Upsample the key frame tokens, prune, refine with the shared blocks.

    Returns (refined tokens, selection, full pre-pruning grid).
    """
    gh, gw = cfg.grid
    c = cfg.embed_dim
    grid = reshape(f_t, (gh, gw, c))
    up = upsample_bilinear(grid, cfg.upsample_factor)
    flat = reshape(up, (cfg.hr_tokens, c))
    if params.hr_pos_embed is not None:
        flat = add(flat, params.hr_pos_embed)
    if selection is None:
        if cfg.hr_cfg.epsilon == 1:  # identity selection; skip the scoring pass
            selection = PruneSelection(kept=np.arange(cfg.hr_tokens), epsilon=1)
        else:
            _, selection = prune(flat.value.data, cfg.hr_cfg)
    tokens = gather_rows(flat, selection.kept)
    for b in params.branch_blocks:
        tokens = transformer_block(tokens, b)
    return tokens, selection, flat


def low_res_branch(frames, cfg: ModelConfig, params: ModelParams,
                   selection: PruneSelection | None = None):
    """Joint spatio-temporal attention over all frames, then prune and refine."""
    joint = spatio_temporal_block(frames, params.st)
    if selection is None:
        if cfg.lr_cfg.epsilon == 1:
            selection = PruneSelection(kept=np.arange(joint.shape[0]), epsilon=1)
        else:
            _, selection = prune(joint.value.data, cfg.lr_cfg)
    tokens = gather_rows(joint, selection.kept)
    for b in params.branch_blocks:
        tokens = transformer_block(tokens, b)
    return tokens, selection


def fuse_and_decode(f_f: DiffNode, sel_f: PruneSelection, hr_grid: DiffNode,
                    f_c: DiffNode, cfg: ModelConfig, params: ModelParams) -> Heatmap:
    """Cross-attend fine tokens onto coarse ones, write them back into the
    dense grid, and project every position to per-joint scores."""
    fused = cross_attention(f_f, f_c, params.fusion)
    return Heatmap(decode_head(scatter_rows(hr_grid, sel_f.kept, fused), cfg, params))


def decode_head(dense: DiffNode, cfg: ModelConfig, params: ModelParams) -> DiffNode:
    """Project each of the hr grid's rows to per-joint scores, as (J, H, W) maps."""
    hidden = gelu(add(matmul(dense, params.head_w1), params.head_b1))
    logits = add(matmul(hidden, params.head_w2), params.head_b2)
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


def train_step(triplet: FrameTriplet, target, cfg: ModelConfig,
               params: ModelParams, lr: float):
    """One full-batch gradient descent step; selections are treated as
    constants of the forward pass. Returns the pre-update loss."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    try:
        loss = heatmap_loss(forward_full(triplet, cfg, params), target)
    except NonFiniteTokens as e:  # features overflowed: treat like a non-finite loss
        raise TrainingError(f"non-finite features: {e}") from e
    loss_val = float(loss.value.data)
    if not np.isfinite(loss_val):
        raise TrainingError(f"non-finite loss {loss_val!r}")
    backward(loss)
    if lr > 0:
        for _, p in params.named_parameters():
            p.value.data -= lr * p.grad.data
    return loss_val, params


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams):
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "params": {
            name: {"shape": list(p.shape), "data": p.value.data.ravel().tolist()}
            for name, p in params.named_parameters()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path, params: ModelParams):
    """Restore parameter values in place; shapes must match exactly."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a recognized checkpoint: magic={payload.get('magic')!r}")
    stored = payload["params"]
    for name, p in params.named_parameters():
        if name not in stored:
            raise KeyError(f"checkpoint missing parameter {name!r}")
        entry = stored[name]
        if tuple(entry["shape"]) != p.shape:
            raise ShapeError(f"{name}: checkpoint shape {entry['shape']} != {p.shape}")
        p.value.data[...] = np.array(entry["data"]).reshape(p.shape)
    return params
