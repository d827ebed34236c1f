"""Multi-head attention, pre-norm transformer blocks, and the fusion layer.
Self-attention and the fusion layer's cross-attention share one projection,
``_attend``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DiffNode,
    ShapeError,
    _check_heads,
    add,
    attention,
    concat_rows,
    constant,
    gather_rows,
    gelu,
    layer_norm_rows,
    matmul,
)

__all__ = [
    "AttentionParams",
    "BlockParams",
    "SpatioTemporalParams",
    "init_attention",
    "init_block",
    "init_spatio_temporal",
    "multi_head_self_attention",
    "cross_attention",
    "transformer_block",
    "spatio_temporal_block",
]


@dataclass
class AttentionParams:
    w_q: DiffNode
    w_k: DiffNode
    w_v: DiffNode
    w_o: DiffNode
    heads: int

    def __post_init__(self):
        _check_heads(self.heads, self.w_q.shape[0])


@dataclass
class BlockParams:
    attention: AttentionParams
    mlp_w1: DiffNode
    mlp_b1: DiffNode
    mlp_w2: DiffNode
    mlp_b2: DiffNode
    ln1_gain: DiffNode
    ln1_bias: DiffNode
    ln2_gain: DiffNode
    ln2_bias: DiffNode


@dataclass
class SpatioTemporalParams:
    block: BlockParams
    frame_embed: DiffNode  # one learned row per frame


def init_attention(rng: np.random.Generator, width: int, heads: int,
                   prefix: str = "attn") -> AttentionParams:
    std = 1.0 / np.sqrt(width)
    mk = lambda name: constant(rng.normal(0.0, std, (width, width)), f"{prefix}.{name}")
    return AttentionParams(mk("w_q"), mk("w_k"), mk("w_v"), mk("w_o"), heads)


def init_block(rng: np.random.Generator, width: int, heads: int,
               prefix: str = "block") -> BlockParams:
    hidden = 4 * width
    std = 1.0 / np.sqrt(width)
    return BlockParams(
        attention=init_attention(rng, width, heads, f"{prefix}.attn"),
        mlp_w1=constant(rng.normal(0.0, std, (width, hidden)), f"{prefix}.mlp_w1"),
        mlp_b1=constant(np.zeros(hidden), f"{prefix}.mlp_b1"),
        mlp_w2=constant(rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, width)), f"{prefix}.mlp_w2"),
        mlp_b2=constant(np.zeros(width), f"{prefix}.mlp_b2"),
        ln1_gain=constant(np.ones(width), f"{prefix}.ln1_gain"),
        ln1_bias=constant(np.zeros(width), f"{prefix}.ln1_bias"),
        ln2_gain=constant(np.ones(width), f"{prefix}.ln2_gain"),
        ln2_bias=constant(np.zeros(width), f"{prefix}.ln2_bias"),
    )


def init_spatio_temporal(rng: np.random.Generator, width: int, heads: int,
                         prefix: str = "st") -> SpatioTemporalParams:
    """A joint block for a clip's three frames, with one frame embedding each."""
    return SpatioTemporalParams(
        block=init_block(rng, width, heads, f"{prefix}.block"),
        frame_embed=constant(rng.normal(0.0, 0.02, (3, width)), f"{prefix}.frame_embed"),
    )


def _attend(q_src: DiffNode, kv_src: DiffNode, p: AttentionParams) -> DiffNode:
    """Queries projected from ``q_src``, keys and values from ``kv_src``,
    attended head by head, then projected out."""
    q = matmul(q_src, p.w_q)
    k = matmul(kv_src, p.w_k)
    v = matmul(kv_src, p.w_v)
    return matmul(attention(q, k, v, p.heads), p.w_o)


def multi_head_self_attention(x: DiffNode, p: AttentionParams) -> DiffNode:
    return _attend(x, x, p)


def cross_attention(f_fine: DiffNode, f_coarse: DiffNode,
                    p: AttentionParams) -> DiffNode:
    """Queries from the fine tokens, keys and values from the coarse tokens."""
    return _attend(f_fine, f_coarse, p)


def _mlp(x: DiffNode, p: BlockParams) -> DiffNode:
    return matmul(gelu(matmul(x, p.mlp_w1, p.mlp_b1)), p.mlp_w2, p.mlp_b2)


def transformer_block(x: DiffNode, p: BlockParams) -> DiffNode:
    """Pre-norm residual block: x + Attn(LN(x)), then + MLP(LN(.))."""
    y = add(x, multi_head_self_attention(
        layer_norm_rows(x, p.ln1_gain, p.ln1_bias), p.attention))
    return add(y, _mlp(layer_norm_rows(y, p.ln2_gain, p.ln2_bias), p))


def spatio_temporal_block(frames, p: SpatioTemporalParams) -> DiffNode:
    """Join per-frame tokens, tag each with its frame embedding, attend jointly."""
    shapes = {f.shape for f in frames}
    if len(shapes) != 1:
        raise ShapeError(f"frames disagree on shape: {sorted(shapes)}")
    if len(frames) != p.frame_embed.shape[0]:
        raise ShapeError(f"{len(frames)} frames but {p.frame_embed.shape[0]} frame embeddings")
    tagged = [add(f, gather_rows(p.frame_embed, [t])) for t, f in enumerate(frames)]
    return transformer_block(concat_rows(tagged), p.block)
