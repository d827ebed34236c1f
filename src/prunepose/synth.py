"""Procedural stick-figure video generator with ground-truth keypoints,
top-down box expansion/cropping (with ``tensor``'s bilinear resampler, the
one that upsamples the model's tokens), and Gaussian target heatmaps."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .model import FrameTriplet
from .tensor import _bilinear, _bilinear_axis, _corners

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
    amplitude: float = 3.0  # pixels of drift per frame
    image_size: tuple = (256, 256)  # (H, W)

    def __post_init__(self):
        if not (1 <= self.joints <= len(DEFAULT_PARENTS)):
            raise ValueError(f"joints must be in [1, {len(DEFAULT_PARENTS)}], got {self.joints}")
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


def _disc_hits(cx: np.ndarray, cy: np.ndarray, radius: float, image_size):
    """Rows, columns and hit mask, each (K, span, span), of the pixel box
    around each centre (cx[k], cy[k]): a pixel is hit if it lies in the image
    and ``(x-cx)^2 + (y-cy)^2 <= radius^2``."""
    h, w = image_size
    span = np.arange(int(np.ceil(2 * radius)) + 2)  # covers floor(c - r) .. ceil(c + r)
    cx, cy = cx[:, None, None], cy[:, None, None]
    xs = np.floor(cx - radius).astype(np.intp) + span[None, None, :]
    ys = np.floor(cy - radius).astype(np.intp) + span[None, :, None]
    hit = ((xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2) & (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    ys, xs = np.broadcast_arrays(ys, xs)
    return ys, xs, hit


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
        ys, xs, hit = _disc_hits(centers[:, 0], centers[:, 1], 1.5, image_size)
        image[ys[hit], xs[hit]] = (0.6, 0.6, 0.6)
    # joints overlap one another, so they are painted in order
    ys, xs, hit = _disc_hits(keypoints[:, 0], keypoints[:, 1], 3.0, image_size)
    for y, x, m, color in zip(ys, xs, hit, _joint_colors(len(keypoints))):
        image[y[m], x[m]] = color
    return image


def generate_sequence(scene: SynthScene, length: int) -> list:
    """Deterministic list of (image, keypoints) frames for one drifting figure."""
    if length < 3:
        raise ValueError(f"sequence length must be >= 3, got {length}")
    rng = np.random.default_rng(scene.seed)
    h, w = scene.image_size
    pose = _BASE_POSE[:scene.joints]
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
        frames.append((_render_figure(kps, DEFAULT_PARENTS, scene.image_size), kps.copy()))
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


def expand_and_crop(box: BoundingBox, frames, out_size=(256, 192),
                    factor: float = 1.25):
    """Enlarge the person box, clamp it, and cut the same region from all
    three frames, resized to the model input size.

    Returns (triplet, region) where region is the final crop box.
    """
    shapes = sorted({np.shape(f) for f in frames})
    if len(frames) != 3 or len(shapes) != 1:
        raise ValueError(f"expected three same-size frames, got {len(frames)} of {shapes}")
    ih, iw = shapes[0][:2]
    region = clamp_box(expand_box(box, factor), (ih, iw))
    corners = _corners(_bilinear_axis(region.y, region.h, ih, out_size[0]),
                       _bilinear_axis(region.x, region.w, iw, out_size[1]))
    crops = tuple(_bilinear(np.asarray(f, dtype=np.float64), corners) for f in frames)
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


def make_triplet_sample(scene: SynthScene, cfg):
    """One training sample: the cropped first three frames of the scene plus
    target heatmaps for the middle one."""
    seq = generate_sequence(scene, 3)
    frames = [image for image, _ in seq]
    kps = seq[1][1]
    triplet, region = expand_and_crop(bbox_from_keypoints(kps), frames,
                                      out_size=cfg.image_size)
    crop_kps = map_keypoints_to_crop(kps, region, cfg.image_size)
    hh, hw = cfg.heatmap_size
    hm_kps = crop_kps * np.array([hw / cfg.image_size[1], hh / cfg.image_size[0]])
    target = render_gaussian_heatmaps(hm_kps[:cfg.joints], cfg.heatmap_size)
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
