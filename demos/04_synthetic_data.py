"""Generate a synthetic stick-figure sequence and turn it into model inputs.

The generator draws a 15-joint figure that drifts around the frame, crops a
person box expanded by 25 percent, resizes the crop to the model input size,
and renders one unit-peak Gaussian heatmap per joint.
"""

import tempfile
from pathlib import Path

import numpy as np

from prunepose.model import ModelConfig
from prunepose.synth import (
    SynthScene,
    bbox_from_keypoints,
    clamp_box,
    dump_sequence,
    expand_box,
    generate_sequence,
    make_triplet_sample,
    render_gaussian_heatmaps,
)

scene = SynthScene(seed=7, image_size=(240, 320))
frames = generate_sequence(scene, 5)
print(f"sequence of {len(frames)} frames, each {frames[0][0].shape}, "
      f"{frames[0][1].shape[0]} keypoints per frame")

# the person box is fitted to the keypoints, grown, then clamped to the frame
_, kps = frames[0]
box = bbox_from_keypoints(kps)
grown = clamp_box(expand_box(box), scene.image_size)
print(f"person box {box.w:.0f}x{box.h:.0f} -> expanded+clamped "
      f"{grown.w:.0f}x{grown.h:.0f}")

# heatmaps peak at exactly 1.0 on the quantized keypoint pixel
maps = render_gaussian_heatmaps(np.array([[20.0, 30.0]]), (64, 48), sigma=2.0)
row, col = (int(i) for i in np.unravel_index(maps[0].argmax(), maps[0].shape))
print(f"heatmap peak {maps.max():.1f} at pixel (row {row}, col {col})")

# one call produces the three-frame crop plus training targets sized for
# a given model configuration
cfg = ModelConfig()
triplet, target, crop_kps = make_triplet_sample(scene, cfg)
print(f"model input: 3 frames of {triplet[1].shape}, "
      f"target heatmaps {target.shape}")

# sequences can be dumped as portable graymaps with a JSON keypoint sidecar
with tempfile.TemporaryDirectory() as tmp:
    meta = dump_sequence(tmp, scene, 3)
    written = sorted(p.name for p in Path(tmp).iterdir())
    print(f"dumped {written}")
