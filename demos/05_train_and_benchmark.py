"""Train the full two-branch pose model for a few steps on a tiny synthetic
scene, then compare the pruned pipeline against its unpruned twin.

Uses a reduced configuration (32x32 input, 8-dim embeddings) so the whole
script runs in seconds. The same flow is available from the command line as
`prunepose train-smoke` and `prunepose bench`.
"""

import time
from dataclasses import replace

import numpy as np

from prunepose.dpc import DpcConfig
from prunepose.model import (
    ModelConfig,
    forward_full,
    heatmap_loss,
    init_model_params,
    train_step,
)
from prunepose.synth import SynthScene, make_triplet_sample
from prunepose.tensor import constant, mac_tally

cfg = ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2,
                  hr_cfg=DpcConfig(epsilon=4), lr_cfg=DpcConfig(epsilon=4))
params = init_model_params(cfg, seed=0)
scene = SynthScene(seed=0, joints=cfg.joints)
triplet, target, _ = make_triplet_sample(scene, cfg)

print("step  loss")
for step in range(15):
    loss = train_step(triplet, target, cfg, params, lr=0.03)
    if step % 3 == 0 or step == 14:
        print(f"{step:4d}  {loss:.5f}")

# compare exact MAC counts and wall time with pruning switched off
unpruned = replace(cfg,
                   hr_cfg=replace(cfg.hr_cfg, epsilon=1),
                   lr_cfg=replace(cfg.lr_cfg, epsilon=1))

for label, variant in (("pruned", cfg), ("unpruned", unpruned)):
    with mac_tally() as tally:
        maps = forward_full(triplet, variant, params)
    t0 = time.perf_counter()
    for _ in range(5):
        forward_full(triplet, variant, params)
    ms = (time.perf_counter() - t0) / 5 * 1e3
    final = float(heatmap_loss(maps, constant(target)).value)
    print(f"{label:9s} {tally.macs:>12,d} MACs  {ms:6.1f} ms/forward  "
          f"loss {final:.5f}")
