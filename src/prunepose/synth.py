"""Procedural stick-figure video generator with ground-truth keypoints,
top-down box expansion/cropping, and Gaussian target heatmaps."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .model import FrameTriplet

__all__ = [
    "DEFAULT_PARENTS",
    "SynthScene",
    "BoundingBox",
    "generate_sequence",
    "bbox_from_keypoints",
    "expand_box",
    "clamp_box",
    "expand_and_crop",
    "map_keypoints_to_crop",
    "render_gaussian_heatmaps",
    "make_triplet_sample",
    "write_pgm",
    "dump_sequence",
]

# pelvis, neck, head, then left/right arm and leg chains
DEFAULT_PARENTS = (-1, 0, 1, 1, 3, 4, 1, 6, 7, 0, 9, 10, 0, 12, 13)

# unit-pose offsets (x right, y down) matching DEFAULT_PARENTS, pelvis at origin
_BASE_POSE = np.array([
    (0, 0), (0, -30), (0, -45),
    (-12, -28), (-20, -14), (-24, 0),
    (12, -28), (20, -14), (24, 0),
    (-8, 0), (-10, 18), (-10, 36),
    (8, 0), (10, 18), (10, 36),
], dtype=np.float64)


@dataclass(frozen=True)
class SynthScene:
    seed: int = 0
    joints: int = 15
    skeleton: tuple = DEFAULT_PARENTS
    amplitude: float = 3.0  # pixels of drift per frame
    image_size: tuple = (256, 256)  # (H, W)
    figure_scale: float = 1.0

    def __post_init__(self):
        if not (1 <= self.joints <= len(self.skeleton)):
            raise ValueError(f"joints must be in [1, {len(self.skeleton)}], got {self.joints}")
        for j, p in enumerate(self.skeleton[:self.joints]):
            if p >= j:
                raise ValueError(f"skeleton parent {p} of joint {j} must precede it")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if min(self.image_size) < 32:
            raise ValueError(f"image size too small: {self.image_size}")


@dataclass(frozen=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"degenerate box: {self}")


def _joint_colors(n: int) -> np.ndarray:
    phase = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    cols = 0.5 + 0.5 * np.stack([np.sin(phase), np.sin(phase + 2.1), np.sin(phase + 4.2)], axis=1)
    return cols


def _disc_pixels(cx: np.ndarray, cy: np.ndarray, radius: float, image_size):
    """(rows, cols) of the in-image pixels within ``radius`` of any center
    (cx[k], cy[k]), each tested as ``(x-cx)^2 + (y-cy)^2 <= radius^2``."""
    h, w = image_size
    span = np.arange(int(np.ceil(2 * radius)) + 2)  # covers floor(c - r) .. ceil(c + r)
    cx, cy = cx[:, None, None], cy[:, None, None]
    xs = np.floor(cx - radius).astype(np.intp) + span[None, None, :]
    ys = np.floor(cy - radius).astype(np.intp) + span[None, :, None]
    hit = ((xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2) & (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    ys, xs = np.broadcast_arrays(ys, xs)
    return ys[hit], xs[hit]


def _render_figure(keypoints: np.ndarray, parents, image_size) -> np.ndarray:
    h, w = image_size
    image = np.zeros((h, w, 3))
    # every bone is drawn in one colour, so its discs are painted as one union
    bones = []
    for j, p in enumerate(parents[:len(keypoints)]):
        if p < 0:
            continue
        a, b = keypoints[p], keypoints[j]
        steps = max(2, int(np.hypot(*(b - a))))
        bones.append(a + np.linspace(0.0, 1.0, steps)[:, None] * (b - a))
    if bones:
        centers = np.concatenate(bones)
        image[_disc_pixels(centers[:, 0], centers[:, 1], 1.5, image_size)] = (0.6, 0.6, 0.6)
    # joints overlap one another, so they are painted in order
    for kp, color in zip(keypoints, _joint_colors(len(keypoints))):
        image[_disc_pixels(kp[:1], kp[1:2], 3.0, image_size)] = color
    return image


def generate_sequence(scene: SynthScene, length: int) -> list:
    """Deterministic list of (image, keypoints) frames for one drifting figure."""
    if length < 3:
        raise ValueError(f"sequence length must be >= 3, got {length}")
    rng = np.random.default_rng(scene.seed)
    h, w = scene.image_size
    pose = _BASE_POSE[:scene.joints] * scene.figure_scale
    half = np.abs(pose).max(axis=0) + 8.0
    lo = half
    hi = np.array([w, h], dtype=np.float64) - half
    center = lo + rng.random(2) * (hi - lo)
    angle = rng.random() * 2.0 * np.pi
    vel = scene.amplitude * np.array([np.cos(angle), np.sin(angle)])
    sway_phase = rng.random(scene.joints) * 2.0 * np.pi
    sway_amp = rng.random((scene.joints, 1)) * 2.0

    frames = []
    for t in range(length):
        # reflect the drift at the walls so every joint stays in frame
        for ax in range(2):
            if center[ax] < lo[ax] or center[ax] > hi[ax]:
                vel[ax] = -vel[ax]
                center[ax] = np.clip(center[ax], lo[ax], hi[ax])
        wiggle = sway_amp * np.column_stack(
            [np.sin(0.7 * t + sway_phase), np.cos(0.9 * t + sway_phase)])
        kps = center + pose + wiggle
        kps[:, 0] = np.clip(kps[:, 0], 0.0, w - 1.0)
        kps[:, 1] = np.clip(kps[:, 1], 0.0, h - 1.0)
        frames.append((_render_figure(kps, scene.skeleton, scene.image_size), kps.copy()))
        center = center + vel
    return frames


# ---------------------------------------------------------------------------
# Top-down cropping
# ---------------------------------------------------------------------------

def bbox_from_keypoints(keypoints: np.ndarray, margin: float = 10.0) -> BoundingBox:
    kps = np.asarray(keypoints, dtype=np.float64)
    x0, y0 = kps.min(axis=0) - margin
    x1, y1 = kps.max(axis=0) + margin
    return BoundingBox(x0, y0, max(x1 - x0, 1.0), max(y1 - y0, 1.0))


def expand_box(box: BoundingBox, factor: float = 1.25) -> BoundingBox:
    """Scale a box about its center (25% enlargement by default)."""
    cx, cy = box.x + box.w / 2.0, box.y + box.h / 2.0
    w, h = box.w * factor, box.h * factor
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def clamp_box(box: BoundingBox, image_size) -> BoundingBox:
    ih, iw = image_size
    x0 = min(max(box.x, 0.0), iw)
    y0 = min(max(box.y, 0.0), ih)
    x1 = min(max(box.x + box.w, 0.0), iw)
    y1 = min(max(box.y + box.h, 0.0), ih)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"box {box} does not intersect image of size {image_size}")
    return BoundingBox(x0, y0, x1 - x0, y1 - y0)


def _crop_resize(image: np.ndarray, region: BoundingBox, out_size) -> np.ndarray:
    """Bilinear resample of a (float) region to out_size (H, W)."""
    ih, iw, _ = image.shape
    oh, ow = out_size
    sy = region.y + (np.arange(oh) + 0.5) * region.h / oh - 0.5
    sx = region.x + (np.arange(ow) + 0.5) * region.w / ow - 0.5
    sy = np.clip(sy, 0.0, ih - 1.0)
    sx = np.clip(sx, 0.0, iw - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    y1 = np.minimum(y0 + 1, ih - 1)
    x1 = np.minimum(x0 + 1, iw - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    return ((1 - wy) * (1 - wx) * image[np.ix_(y0, x0)]
            + (1 - wy) * wx * image[np.ix_(y0, x1)]
            + wy * (1 - wx) * image[np.ix_(y1, x0)]
            + wy * wx * image[np.ix_(y1, x1)])


def expand_and_crop(box: BoundingBox, frames, out_size=(256, 192),
                    factor: float = 1.25):
    """Enlarge the person box, clamp it, and cut the same region from all
    three frames, resized to the model input size.

    Returns (triplet, region) where region is the final crop box.
    """
    if len(frames) != 3:
        raise ValueError(f"expected three frames, got {len(frames)}")
    image_size = frames[0].shape[:2]
    region = clamp_box(expand_box(box, factor), image_size)
    crops = tuple(_crop_resize(np.asarray(f, dtype=np.float64), region, out_size)
                  for f in frames)
    return FrameTriplet(images=crops), region


def map_keypoints_to_crop(keypoints: np.ndarray, region: BoundingBox, out_size) -> np.ndarray:
    """Image-space keypoints -> crop-space pixel coordinates."""
    oh, ow = out_size
    kps = np.asarray(keypoints, dtype=np.float64).copy()
    kps[:, 0] = (kps[:, 0] - region.x) * ow / region.w
    kps[:, 1] = (kps[:, 1] - region.y) * oh / region.h
    return kps


# ---------------------------------------------------------------------------
# Target heatmaps
# ---------------------------------------------------------------------------

def render_gaussian_heatmaps(keypoints: np.ndarray, heatmap_size,
                             sigma: float = 2.0) -> np.ndarray:
    """(J, H, W) maps: unit-peak Gaussian at each keypoint's nearest pixel.

    Keypoints are given in heatmap-scale (x, y); any joint whose quantized
    center falls outside the map yields an all-zero map.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    hh, hw = heatmap_size
    kps = np.asarray(keypoints, dtype=np.float64)
    maps = np.zeros((len(kps), hh, hw))
    ys, xs = np.mgrid[0:hh, 0:hw]
    for j, (kx, ky) in enumerate(kps):
        cx, cy = int(round(kx)), int(round(ky))
        if not (0 <= cx < hw and 0 <= cy < hh):
            continue
        maps[j] = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma ** 2))
    return maps


def make_triplet_sample(scene: SynthScene, cfg, t: int = 1, sigma: float = 2.0):
    """One training sample: cropped triplet plus target heatmaps for frame t."""
    seq = generate_sequence(scene, max(t + 2, 3))
    frames = [seq[t - 1][0], seq[t][0], seq[t + 1][0]]
    kps = seq[t][1]
    triplet, region = expand_and_crop(bbox_from_keypoints(kps), frames,
                                      out_size=cfg.image_size)
    crop_kps = map_keypoints_to_crop(kps, region, cfg.image_size)
    hh, hw = cfg.heatmap_size
    hm_kps = crop_kps * np.array([hw / cfg.image_size[1], hh / cfg.image_size[0]])
    target = render_gaussian_heatmaps(hm_kps[:cfg.joints], cfg.heatmap_size, sigma)
    if len(target) < cfg.joints:  # scene has fewer joints than the model head
        pad = np.zeros((cfg.joints - len(target), hh, hw))
        target = np.concatenate([target, pad], axis=0)
    return triplet, target, crop_kps


# ---------------------------------------------------------------------------
# Inspection dumps
# ---------------------------------------------------------------------------

def write_pgm(path, image: np.ndarray):
    """Write a grayscale view of an image as binary PGM."""
    gray = image.mean(axis=2) if image.ndim == 3 else image
    data = np.clip(gray * 255.0, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def dump_sequence(out_dir, scene: SynthScene, length: int):
    """PGM frames plus a JSON sidecar of keypoints, for eyeballing."""
    os.makedirs(out_dir, exist_ok=True)
    seq = generate_sequence(scene, length)
    meta = {"seed": scene.seed, "joints": scene.joints,
            "image_size": list(scene.image_size), "frames": []}
    for t, (image, kps) in enumerate(seq):
        name = f"frame_{t:03d}.pgm"
        write_pgm(os.path.join(out_dir, name), image)
        meta["frames"].append({"file": name, "keypoints": kps.tolist()})
    with open(os.path.join(out_dir, "keypoints.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    return meta
