"""Exercise the attention building blocks: multi-head self-attention,
pre-norm transformer blocks, the three-frame spatio-temporal block, and
the cross-attention used to fuse fine and coarse token sets.

All of them attend through one fused op, ``tensor.attention``, which runs
every head in one graph node.
"""

import numpy as np

from prunepose.attention import (
    cross_attention,
    init_attention,
    init_block,
    init_spatio_temporal,
    multi_head_self_attention,
    spatio_temporal_block,
    transformer_block,
)
from prunepose.tensor import attention, backward, constant, mac_tally, mean_all

rng = np.random.default_rng(1)
C, HEADS = 16, 4

tokens = constant(rng.normal(size=(10, C)))
attn = init_attention(rng, C, HEADS)
out = multi_head_self_attention(tokens, attn)
print(f"self-attention: {tokens.shape} -> {out.shape} with {HEADS} heads")

# the fused op: one node over the q, k and v projections, whose MACs are the
# two per-head products, 2 * heads * Nq * Nk * d
q, k, v = (constant(rng.normal(size=(10, C))) for _ in range(3))
with mac_tally() as tally:
    ctx = attention(q, k, v, HEADS)
print(f"fused attention: one node over {len(ctx.parents)} parents, {tally.macs} MACs "
      f"(2 * heads * Nq * Nk * d = {2 * HEADS * 10 * 10 * (C // HEADS)})")

# a transformer block with zeroed weights reduces to the identity, which is
# a quick sanity check that the residual wiring is right
block = init_block(rng, C, HEADS)
zero = init_block(rng, C, HEADS)
for w in (zero.attention.w_q, zero.attention.w_k, zero.attention.w_v,
          zero.attention.w_o, zero.mlp_w1, zero.mlp_w2):
    w.value[:] = 0.0
passthrough = transformer_block(tokens, zero)
print(f"zero-weight block is identity: "
      f"{np.allclose(passthrough.value, tokens.value)}")

refined = transformer_block(tokens, block)
print(f"transformer block output differs from input: "
      f"{not np.allclose(refined.value, tokens.value)}")

# three frames of 10 tokens are tagged with learned frame embeddings and
# attend jointly, so motion context flows between frames
st = init_spatio_temporal(rng, C, HEADS)
frames = [constant(rng.normal(size=(10, C))) for _ in range(3)]
joint = spatio_temporal_block(frames, st)
print(f"spatio-temporal block: 3 x (10, {C}) -> {joint.shape}")

# cross-attention: fine tokens query a smaller coarse set
fine = constant(rng.normal(size=(8, C)))
coarse = constant(rng.normal(size=(4, C)))
fused = cross_attention(fine, coarse, attn)
print(f"cross-attention: queries {fine.shape}, keys/values {coarse.shape}, "
      f"output {fused.shape}")

# gradients reach every weight through the fused output
loss = mean_all(fused)
backward(loss)
print(f"grad w.r.t. query projection is finite and nonzero: "
      f"{np.isfinite(attn.w_q.grad).all() and np.abs(attn.w_q.grad).sum() > 0}")
