import hashlib
import json

import numpy as np
import pytest

from prunepose.model import ModelConfig
from prunepose.synth import (
    DEFAULT_PARENTS,
    BoundingBox,
    SynthScene,
    bbox_from_keypoints,
    clamp_box,
    dump_sequence,
    expand_and_crop,
    expand_box,
    generate_sequence,
    make_triplet_sample,
    map_keypoints_to_crop,
    render_gaussian_heatmaps,
    write_pgm,
)
from prunepose.synth import _joint_colors, _render_figure

# SHA-256 of the three float64 frames of generate_sequence(SynthScene(seed,
# image_size=size), 3), recorded when every disc was stamped one at a time
# (numpy 2.4, x86-64); the (64, 96) scenes clip the figure at the borders
FRAME_HASHES = {
    ((256, 256), 0): "650e31d9d6ed554248ad969a9910b28ffaf1812707a560b03a00a7b2916e43db",
    ((256, 256), 1): "1df22b350c6d63bb8edeb90d1df7d4a222cf1327b92d670d2517723b32df6b81",
    ((256, 256), 2): "5847416f516f08d8e6c0f35aaafb73af44c91aba56aad283e7e7268da6afbe5f",
    ((256, 256), 3): "33cd4c6d9d87784a27b8d6f4595d111e9d2b555331f413cddad5eaf245316872",
    ((256, 256), 4): "1787fddf43c14d5ffb90d5c992136a4b3acc14e2063ab22d03b485039a64885f",
    ((256, 256), 12345): "dfda9e5c77fe65105aa95eb5c140950bc8bc608886585a033951d837b65f00d2",
    ((64, 96), 0): "169590eec255ce7159633ec02376353565c2c4dfda9ddc17ef78aafe66695533",
    ((64, 96), 1): "0c1964387a93757ba9a92237305a3c51f88b855381b3a1659419d5965e1664a3",
    ((64, 96), 2): "b06232abb7e9e0e8206e09bdcbd9624ea87021ba6e4483002fac434f3ebfc9f3",
    ((64, 96), 3): "04155de9b1205d1989b4401eb65731b9c077c4040c07d2a62cae1bc23e8ba322",
    ((64, 96), 4): "78fe1023d1385a7c2da4bfbe3fe2200109b3b70bbd15d593aa8156e141b9a1e9",
    ((64, 96), 12345): "8a8c6489836e7b0a2ace57d6ae7e8c014cdfbc0074cb96cf12bf81e21a735179",
}


def stamped_one_disc_at_a_time(keypoints, parents, image_size):
    """Reference painter: every bone step and joint stamped as its own disc."""
    h, w = image_size
    image = np.zeros((h, w, 3))

    def stamp(cx, cy, radius, color):
        x0, x1 = max(0, int(np.floor(cx - radius))), min(w - 1, int(np.ceil(cx + radius)))
        y0, y1 = max(0, int(np.floor(cy - radius))), min(h - 1, int(np.ceil(cy + radius)))
        if x0 > x1 or y0 > y1:
            return
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        image[y0:y1 + 1, x0:x1 + 1][(xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2] = color

    for j, p in enumerate(parents[:len(keypoints)]):
        if p >= 0:
            a, b = keypoints[p], keypoints[j]
            for t in np.linspace(0.0, 1.0, max(2, int(np.hypot(*(b - a))))):
                pt = a + t * (b - a)
                stamp(pt[0], pt[1], 1.5, (0.6, 0.6, 0.6))
    for j, kp in enumerate(keypoints):
        stamp(kp[0], kp[1], 3.0, _joint_colors(len(keypoints))[j])
    return image


class TestGenerateSequence:
    def test_same_seed_identical(self):
        scene = SynthScene(seed=11, image_size=(128, 128))
        a = generate_sequence(scene, 3)
        b = generate_sequence(scene, 3)
        for (img_a, kp_a), (img_b, kp_b) in zip(a, b):
            assert np.array_equal(img_a, img_b)
            assert np.array_equal(kp_a, kp_b)

    def test_zero_amplitude_static(self):
        scene = SynthScene(seed=3, amplitude=0.0, image_size=(128, 128))
        frames = generate_sequence(scene, 4)
        # drift is frozen; only the small per-joint sway remains, so freeze that too
        static = SynthScene(seed=3, amplitude=0.0, image_size=(128, 128))
        again = generate_sequence(static, 4)
        centers = [kp.mean(axis=0) for _, kp in frames]
        drift = np.ptp(np.array(centers), axis=0)
        assert np.all(drift < 5.0)
        assert np.array_equal(frames[0][0], again[0][0])

    def test_keypoints_inside_frame_property(self):
        for seed in range(100):
            scene = SynthScene(seed=seed, image_size=(96, 96))
            for _, kps in generate_sequence(scene, 3):
                h, w = scene.image_size
                assert np.all(kps[:, 0] >= 0) and np.all(kps[:, 0] <= w - 1)
                assert np.all(kps[:, 1] >= 0) and np.all(kps[:, 1] <= h - 1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence(SynthScene(), 2)

    @pytest.mark.parametrize("size,seed", sorted(FRAME_HASHES))
    def test_frames_match_recorded_hashes(self, size, seed):
        digest = hashlib.sha256()
        for image, _ in generate_sequence(SynthScene(seed=seed, image_size=size), 3):
            digest.update(np.ascontiguousarray(image).tobytes())
        assert digest.hexdigest() == FRAME_HASHES[(size, seed)]

    def test_render_matches_one_disc_at_a_time(self):
        rng = np.random.default_rng(13)
        for size in [(48, 40), (96, 128)]:
            for _ in range(10):
                # keypoints anywhere in the frame, some on or just past its edges
                kps = rng.uniform(-3.0, 1.0, size=(15, 2)) + rng.random((15, 2)) * size[::-1]
                assert np.array_equal(_render_figure(kps, DEFAULT_PARENTS, size),
                                      stamped_one_disc_at_a_time(kps, DEFAULT_PARENTS, size))

    def test_bad_scene_rejected(self):
        with pytest.raises(ValueError):
            SynthScene(amplitude=-1.0)
        with pytest.raises(ValueError):
            SynthScene(joints=0)


class TestBoxes:
    def test_expand_25_percent(self):
        box = expand_box(BoundingBox(0, 0, 100, 100))
        assert (box.x, box.y, box.w, box.h) == (-12.5, -12.5, 125.0, 125.0)

    def test_expand_then_clamp(self):
        box = clamp_box(expand_box(BoundingBox(0, 0, 100, 100)), (400, 400))
        assert (box.x, box.y, box.w, box.h) == (0.0, 0.0, 112.5, 112.5)

    def test_full_image_box_clamps_to_full_image(self):
        box = clamp_box(expand_box(BoundingBox(0, 0, 400, 300)), (300, 400))
        assert (box.x, box.y, box.w, box.h) == (0.0, 0.0, 400.0, 300.0)

    def test_clamp_idempotent_on_full_image(self):
        box = clamp_box(BoundingBox(0, 0, 400, 300), (300, 400))
        again = clamp_box(expand_box(box), (300, 400))
        assert (box.x, box.y, box.w, box.h) == (again.x, again.y, again.w, again.h)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)

    def test_no_intersection_rejected(self):
        with pytest.raises(ValueError):
            clamp_box(BoundingBox(500, 500, 10, 10), (100, 100))


class TestExpandAndCrop:
    def test_crops_share_offsets(self):
        rng = np.random.default_rng(0)
        frame = rng.random((100, 100, 3))
        triplet, _ = expand_and_crop(BoundingBox(10, 10, 50, 50), [frame] * 3,
                                     out_size=(32, 32))
        assert np.array_equal(triplet.images[0], triplet.images[1])
        assert np.array_equal(triplet.images[1], triplet.images[2])

    def test_output_size(self):
        frame = np.zeros((80, 60, 3))
        triplet, region = expand_and_crop(BoundingBox(5, 5, 40, 40), [frame] * 3,
                                          out_size=(64, 48))
        assert triplet.images[0].shape == (64, 48, 3)
        assert region.w > 40 and region.h > 40

    def test_keypoint_mapping_round_trip(self):
        region = BoundingBox(10.0, 20.0, 50.0, 40.0)
        kps = np.array([[10.0, 20.0], [60.0, 60.0]])
        mapped = map_keypoints_to_crop(kps, region, (80, 100))
        assert np.allclose(mapped, [[0.0, 0.0], [100.0, 80.0]])


class TestGaussianHeatmaps:
    def test_peak_is_one_at_keypoint_pixel(self):
        maps = render_gaussian_heatmaps(np.array([[5.0, 7.0]]), (16, 12), sigma=2.0)
        assert maps[0, 7, 5] == 1.0
        assert maps.max() == 1.0

    def test_mass_matches_gaussian_integral(self):
        maps = render_gaussian_heatmaps(np.array([[24.0, 32.0]]), (64, 48), sigma=2.0)
        assert maps[0].sum() == pytest.approx(2.0 * np.pi * 4.0, rel=0.01)

    def test_off_map_joint_is_zero(self):
        maps = render_gaussian_heatmaps(np.array([[100.0, 5.0]]), (16, 12))
        assert np.all(maps[0] == 0.0)

    def test_argmax_recovers_quantized_location(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            kx, ky = rng.uniform(2, 9), rng.uniform(2, 13)
            maps = render_gaussian_heatmaps(np.array([[kx, ky]]), (16, 12), sigma=2.0)
            iy, ix = np.unravel_index(maps[0].argmax(), maps[0].shape)
            assert (ix, iy) == (round(kx), round(ky))

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            render_gaussian_heatmaps(np.zeros((1, 2)), (8, 8), sigma=0.0)


class TestTripletSample:
    def test_shapes_match_config(self):
        cfg = ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2)
        scene = SynthScene(seed=0, joints=2, image_size=(96, 96))
        triplet, target, kps = make_triplet_sample(scene, cfg)
        assert triplet.images[1].shape == (32, 32, 3)
        assert target.shape == (2, 8, 8)
        assert kps.shape == (2, 2)

    def test_pads_when_scene_has_fewer_joints(self):
        cfg = ModelConfig(image_size=(32, 32), embed_dim=8, joints=4, heads=2)
        scene = SynthScene(seed=0, joints=2, image_size=(96, 96))
        _, target, _ = make_triplet_sample(scene, cfg)
        assert target.shape == (4, 8, 8)
        assert np.all(target[2:] == 0.0)


class TestDump:
    def test_pgm_header_and_sidecar(self, tmp_path):
        scene = SynthScene(seed=5, image_size=(64, 64))
        meta = dump_sequence(tmp_path, scene, 3)
        assert len(meta["frames"]) == 3
        pgm = (tmp_path / "frame_000.pgm").read_bytes()
        assert pgm.startswith(b"P5\n64 64\n255\n")
        sidecar = json.loads((tmp_path / "keypoints.json").read_text())
        assert sidecar["seed"] == 5
        assert len(sidecar["frames"][0]["keypoints"]) == scene.joints

    def test_write_pgm_grayscale(self, tmp_path):
        img = np.ones((4, 6, 3)) * 0.5
        write_pgm(tmp_path / "x.pgm", img)
        raw = (tmp_path / "x.pgm").read_bytes()
        body = raw.split(b"\n", 3)[3]
        assert len(body) == 24
        assert body[0] == 127


class TestBBoxFromKeypoints:
    def test_contains_all_keypoints(self):
        kps = np.array([[10.0, 20.0], [50.0, 5.0], [30.0, 40.0]])
        box = bbox_from_keypoints(kps, margin=2.0)
        assert box.x <= 10 - 2 and box.y <= 5 - 2
        assert box.x + box.w >= 50 + 2 and box.y + box.h >= 40 + 2
