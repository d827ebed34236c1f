import json
from dataclasses import replace

import numpy as np
import pytest

from prunepose.attention import spatio_temporal_block, transformer_block
from prunepose.dpc import DpcConfig, PruneSelection, select
from prunepose.model import (
    CHECKPOINT_MAGIC,
    FrameTriplet,
    ModelConfig,
    TrainingError,
    forward_full,
    fuse_and_decode,
    heatmap_loss,
    high_res_branch,
    init_model_params,
    load_checkpoint,
    low_res_branch,
    _upsample_grid,
    patch_embed_backbone,
    save_checkpoint,
    train_step,
)
from prunepose.synth import SynthScene, make_triplet_sample
from prunepose.tensor import (
    ShapeError,
    add,
    backward,
    constant,
    gather_rows,
    mac_tally,
    mean_all,
)


TINY = ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2,
                   hr_cfg=DpcConfig(epsilon=4), lr_cfg=DpcConfig(epsilon=4))


@pytest.fixture(scope="module")
def tiny_sample():
    scene = SynthScene(seed=0, joints=2, image_size=(96, 96))
    return make_triplet_sample(scene, TINY)


@pytest.fixture(scope="module")
def default_setup():
    cfg = ModelConfig()
    params = init_model_params(cfg, 0)
    scene = SynthScene(seed=0)
    triplet, target, _ = make_triplet_sample(scene, cfg)
    return cfg, params, triplet, target


@pytest.mark.parametrize("bad", [
    dict(patch=0), dict(heads=0), dict(embed_dim=0), dict(joints=0), dict(upsample_factor=0),
    dict(hr_cfg=6), dict(lr_cfg={"epsilon": 4}),
    dict(image_size=(0, 0)), dict(image_size=(-16, 16)),
    dict(backbone_depth=-2), dict(blocks_per_branch=-1),
    dict(patch=8.0), dict(heads=True), dict(joints=2.5), dict(image_size=(32.0, 32)),
    dict(add_hr_pos_embed="no"), dict(add_hr_pos_embed=1),
])
def test_model_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        ModelConfig(**bad)


class TestPatchEmbed:
    def test_default_token_count(self, default_setup):
        cfg, params, triplet, _ = default_setup
        frames = patch_embed_backbone(triplet, cfg, params)
        assert len(frames) == 3
        assert all(f.shape == (192, cfg.embed_dim) for f in frames)

    def test_zero_images_give_positional_embeddings(self):
        cfg = ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2,
                          backbone_depth=0)
        params = init_model_params(cfg, 0)
        params.patch_bias.value[...] = 0.0
        zeros = np.zeros((32, 32, 3))
        triplet = FrameTriplet(images=(zeros, zeros, zeros))
        frames = patch_embed_backbone(triplet, cfg, params)
        assert np.allclose(frames[0].value, params.pos_embed.value, atol=1e-15)

    def test_patch_projection_is_linear(self):
        cfg = ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2,
                          backbone_depth=0)
        params = init_model_params(cfg, 0)
        params.patch_bias.value[...] = 0.0
        params.pos_embed.value[...] = 0.0
        img = np.random.default_rng(0).random((32, 32, 3))
        single = patch_embed_backbone(FrameTriplet(images=(img,) * 3), cfg, params)
        double = patch_embed_backbone(FrameTriplet(images=(2 * img,) * 3), cfg, params)
        assert np.allclose(double[0].value, 2 * single[0].value, rtol=1e-12)

    def test_size_mismatch_rejected(self, default_setup):
        cfg, params, _, _ = default_setup
        bad = np.zeros((64, 64, 3))
        with pytest.raises(ShapeError):
            patch_embed_backbone(FrameTriplet(images=(bad, bad, bad)), cfg, params)


def inline_branches(frames, cfg, params, hr_sel, lr_sel):
    """Reference: both branches as written before they shared one
    prune-and-refine step; returns (hr tokens, hr selection, hr grid,
    lr tokens, lr selection)."""
    flat = _upsample_grid(frames[1], cfg)
    if params.hr_pos_embed is not None:
        flat = add(flat, params.hr_pos_embed)
    if hr_sel is None:
        hr_sel = select(flat.value, cfg.hr_cfg)
    hr = gather_rows(flat, hr_sel.kept)
    for b in params.branch_blocks:
        hr = transformer_block(hr, b)
    joint = spatio_temporal_block(frames, params.st)
    if lr_sel is None:
        lr_sel = select(joint.value, cfg.lr_cfg)
    lr = gather_rows(joint, lr_sel.kept)
    for b in params.branch_blocks:
        lr = transformer_block(lr, b)
    return hr, hr_sel, flat, lr, lr_sel


def test_model_config_accepts_zero_depth():
    cfg = replace(TINY, backbone_depth=0, blocks_per_branch=0)
    params = init_model_params(cfg, 0)
    assert params.backbone_blocks == [] and params.branch_blocks == []


class TestBranches:
    @pytest.mark.parametrize("cfg", [ModelConfig(), TINY,
                                     replace(TINY, lr_cfg=DpcConfig(epsilon=3))],
                             ids=["default", "tiny", "tiny-lr-eps-3"])
    @pytest.mark.parametrize("frozen", [False, True], ids=["selected", "frozen"])
    def test_bit_identical_to_inline_reference(self, cfg, frozen):
        params = init_model_params(cfg, 5)
        triplet, _, _ = make_triplet_sample(SynthScene(seed=5, joints=cfg.joints), cfg)
        hr_sel = lr_sel = None
        if frozen:  # seeded selections unlike the ones density peaks would pick
            rng = np.random.default_rng(5)
            hr_sel, lr_sel = (
                PruneSelection(kept=np.sort(rng.choice(n, n // d.epsilon, replace=False)))
                for n, d in ((cfg.hr_tokens, cfg.hr_cfg), (cfg.temporal_tokens, cfg.lr_cfg)))
        runs = []
        for branches in (inline_branches, None):
            frames = patch_embed_backbone(triplet, cfg, params)
            if branches is None:
                hr, got_hr_sel, grid = high_res_branch(frames[1], cfg, params, hr_sel)
                lr, got_lr_sel = low_res_branch(frames, cfg, params, lr_sel)
            else:
                hr, got_hr_sel, grid, lr, got_lr_sel = branches(frames, cfg, params,
                                                                hr_sel, lr_sel)
            backward(add(mean_all(hr), mean_all(lr)))
            runs.append([hr.value, got_hr_sel.kept, grid.value, lr.value, got_lr_sel.kept]
                        + [p.grad.copy() for _, p in params.named_parameters()
                           if p.grad is not None])  # fusion and head are not reached
        want, got = runs
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_high_res_budget_default(self, default_setup):
        cfg, params, triplet, _ = default_setup
        frames = patch_embed_backbone(triplet, cfg, params)
        f_f, sel, grid = high_res_branch(frames[1], cfg, params)
        assert grid.shape == (3072, cfg.embed_dim)
        assert f_f.shape == (512, cfg.embed_dim)
        assert len(sel.kept) == 3072 // 6

    def test_high_res_no_pruning(self, default_setup):
        cfg, params, triplet, _ = default_setup
        from dataclasses import replace
        cfg1 = replace(cfg, hr_cfg=replace(cfg.hr_cfg, epsilon=1))
        frames = patch_embed_backbone(triplet, cfg1, params)
        f_f, sel, _ = high_res_branch(frames[1], cfg1, params)
        assert f_f.shape == (3072, cfg.embed_dim)
        assert sel.kept.tolist() == list(range(3072))

    def test_constant_map_keeps_prefix_under_tie_break(self):
        from dataclasses import replace
        cfg = replace(TINY, add_hr_pos_embed=False)
        params = init_model_params(cfg, 0)
        f_t = constant(np.ones((cfg.tokens_per_frame, cfg.embed_dim)))
        _, sel, grid = high_res_branch(f_t, cfg, params)
        assert np.allclose(grid.value, 1.0)
        n_keep = cfg.hr_tokens // cfg.hr_cfg.epsilon
        assert sel.kept.tolist() == list(range(n_keep))

    def test_low_res_budget_default(self, default_setup):
        cfg, params, triplet, _ = default_setup
        frames = patch_embed_backbone(triplet, cfg, params)
        f_c, sel = low_res_branch(frames, cfg, params)
        assert f_c.shape == (96, cfg.embed_dim)
        assert len(sel.kept) == 576 // 6

    def test_branches_share_block_parameters_by_identity(self, tiny_sample):
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        frames = patch_embed_backbone(triplet, TINY, params)
        f_f_before, sel, grid = high_res_branch(frames[1], TINY, params)
        f_c_before, sel_c = low_res_branch(frames, TINY, params)
        params.branch_blocks[0].mlp_w2.value[...] += 0.1
        f_f_after, _, _ = high_res_branch(frames[1], TINY, params, selection=sel)
        f_c_after, _ = low_res_branch(frames, TINY, params, selection=sel_c)
        assert not np.allclose(f_f_before.value, f_f_after.value)
        assert not np.allclose(f_c_before.value, f_c_after.value)


class TestFuseAndDecode:
    def test_output_shape(self, tiny_sample):
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        hm = forward_full(triplet, TINY, params)
        assert hm.shape == (TINY.joints, *TINY.heatmap_size)

    def test_zero_head_weights_give_zero_heatmap(self, tiny_sample):
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 1)
        params.head_w1.value[...] = 0.0
        params.head_b1.value[...] = 0.0
        params.head_w2.value[...] = 0.0
        params.head_b2.value[...] = 0.0
        hm = forward_full(triplet, TINY, params)
        assert np.all(hm.maps.value == 0.0)

    def test_full_selection_overwrites_entire_grid(self, tiny_sample):
        from dataclasses import replace
        from prunepose.attention import cross_attention
        from prunepose.tensor import scatter_rows
        triplet, _, _ = tiny_sample
        cfg = replace(TINY,
                      hr_cfg=replace(TINY.hr_cfg, epsilon=1),
                      lr_cfg=replace(TINY.lr_cfg, epsilon=1))
        params = init_model_params(cfg, 0)
        frames = patch_embed_backbone(triplet, cfg, params)
        f_f, sel, grid = high_res_branch(frames[1], cfg, params)
        f_c, _ = low_res_branch(frames, cfg, params)
        fused = cross_attention(f_f, f_c, params.fusion)
        dense = scatter_rows(grid, sel.kept, fused)
        assert np.array_equal(dense.value, fused.value)


class TestHeatmapLoss:
    def test_zero_iff_equal(self):
        h = constant(np.random.default_rng(0).normal(size=(2, 4, 4)))
        assert float(heatmap_loss(h, h).value) == 0.0
        g = constant(h.value + 1e-6)
        assert float(heatmap_loss(h, g).value) > 0.0

    def test_unit_difference_gives_one(self):
        h = constant(np.ones((3, 5, 5)))
        g = constant(np.zeros((3, 5, 5)))
        assert float(heatmap_loss(h, g).value) == 1.0

    def test_matches_element_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 3, 4))
        acc = 0.0
        for j in range(2):
            for y in range(3):
                for x in range(4):
                    acc += (a[j, y, x] - b[j, y, x]) ** 2
        expected = acc / 24.0
        got = float(heatmap_loss(constant(a), constant(b)).value)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            heatmap_loss(constant(np.zeros((2, 4, 4))), constant(np.zeros((2, 4, 5))))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = constant(rng.normal(size=(2, 3, 3)))
            g = constant(rng.normal(size=(2, 3, 3)))
            assert float(heatmap_loss(h, g).value) >= 0.0


class TestForwardFull:
    def test_deterministic_bitwise(self, tiny_sample):
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        a = forward_full(triplet, TINY, params).maps.value
        b = forward_full(triplet, TINY, params).maps.value
        assert np.array_equal(a, b)

    def test_pruning_changes_but_keeps_finite(self, tiny_sample):
        from dataclasses import replace
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        cfg1 = replace(TINY,
                       hr_cfg=replace(TINY.hr_cfg, epsilon=1),
                       lr_cfg=replace(TINY.lr_cfg, epsilon=1))
        a = forward_full(triplet, cfg1, params).maps.value
        b = forward_full(triplet, TINY, params).maps.value
        assert not np.array_equal(a, b)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))

    def test_pruning_lowers_mac_count(self, tiny_sample):
        from dataclasses import replace
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        cfg1 = replace(TINY,
                       hr_cfg=replace(TINY.hr_cfg, epsilon=1),
                       lr_cfg=replace(TINY.lr_cfg, epsilon=1))
        with mac_tally() as unpruned:
            forward_full(triplet, cfg1, params)
        with mac_tally() as pruned:
            forward_full(triplet, TINY, params)
        assert pruned.macs < unpruned.macs


def graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``.parents``, leaves included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestGraphSize:
    """Pinned tape sizes: each affine layer is one ``matmul`` node with its bias."""

    def test_tiny_forward_loss_graph(self, tiny_sample):
        triplet, target, _ = tiny_sample
        loss = heatmap_loss(forward_full(triplet, TINY, init_model_params(TINY, 0)), target)
        assert graph_nodes(loss) == 242

    @pytest.mark.parametrize("pos_embed,nodes", [(True, 238), (False, 236)])
    def test_default_heatmap_graph(self, default_setup, pos_embed, nodes):
        cfg, _, triplet, _ = default_setup
        cfg = replace(cfg, add_hr_pos_embed=pos_embed)
        heatmap = forward_full(triplet, cfg, init_model_params(cfg, 0))
        assert graph_nodes(heatmap.maps) == nodes


class TestTrainStep:
    def test_zero_lr_leaves_params(self, tiny_sample):
        triplet, target, _ = tiny_sample
        params = init_model_params(TINY, 0)
        before = {n: p.value.copy() for n, p in params.named_parameters()}
        loss = train_step(triplet, target, TINY, params, 0.0)
        assert loss > 0.0
        for n, p in params.named_parameters():
            assert np.array_equal(p.value, before[n])

    def test_loss_decreases_for_small_lr(self, tiny_sample):
        triplet, target, _ = tiny_sample
        params = init_model_params(TINY, 0)
        l0 = train_step(triplet, target, TINY, params, 0.01)
        l1 = train_step(triplet, target, TINY, params, 0.01)
        l2 = train_step(triplet, target, TINY, params, 0.01)
        assert l1 < l0 and l2 < l1

    def test_negative_lr_rejected(self, tiny_sample):
        triplet, target, _ = tiny_sample
        with pytest.raises(ValueError):
            train_step(triplet, target, TINY, init_model_params(TINY, 0), -0.1)

    def test_non_finite_loss_raises(self, tiny_sample):
        triplet, target, _ = tiny_sample
        params = init_model_params(TINY, 0)
        params.patch_proj.value[...] = np.nan
        with pytest.raises(TrainingError):
            train_step(triplet, target, TINY, params, 0.01)

    def test_refined_tokens_depend_only_on_kept_rows(self, tiny_sample):
        # selection is a constant of the forward pass: the branch output's
        # gradient never touches dropped grid positions
        from prunepose.tensor import sum_all
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        frames = patch_embed_backbone(triplet, TINY, params)
        f_f, sel, grid = high_res_branch(frames[1], TINY, params)
        backward(sum_all(f_f))
        grad = grid.grad
        dropped = np.setdiff1d(np.arange(TINY.hr_tokens), sel.kept)
        assert np.all(grad[dropped] == 0.0)
        assert np.any(grad[sel.kept] != 0.0)


def hand_listed_parameters(params):
    """The (name, node) list as it was written out by hand before it was
    derived from the dataclass fields: the reference for names and order."""
    def block_items(prefix, b):
        a = b.attention
        return [
            (f"{prefix}.attn.w_q", a.w_q), (f"{prefix}.attn.w_k", a.w_k),
            (f"{prefix}.attn.w_v", a.w_v), (f"{prefix}.attn.w_o", a.w_o),
            (f"{prefix}.mlp_w1", b.mlp_w1), (f"{prefix}.mlp_b1", b.mlp_b1),
            (f"{prefix}.mlp_w2", b.mlp_w2), (f"{prefix}.mlp_b2", b.mlp_b2),
            (f"{prefix}.ln1_gain", b.ln1_gain), (f"{prefix}.ln1_bias", b.ln1_bias),
            (f"{prefix}.ln2_gain", b.ln2_gain), (f"{prefix}.ln2_bias", b.ln2_bias),
        ]

    out = [("patch_proj", params.patch_proj), ("patch_bias", params.patch_bias),
           ("pos_embed", params.pos_embed)]
    if params.hr_pos_embed is not None:
        out.append(("hr_pos_embed", params.hr_pos_embed))
    for i, b in enumerate(params.backbone_blocks):
        out.extend(block_items(f"backbone.{i}", b))
    out.extend(block_items("st.block", params.st.block))
    out.append(("st.frame_embed", params.st.frame_embed))
    for i, b in enumerate(params.branch_blocks):
        out.extend(block_items(f"branch.{i}", b))
    a = params.fusion
    out.extend([("fusion.w_q", a.w_q), ("fusion.w_k", a.w_k),
                ("fusion.w_v", a.w_v), ("fusion.w_o", a.w_o)])
    out.extend([("head_w1", params.head_w1), ("head_b1", params.head_b1),
                ("head_w2", params.head_w2), ("head_b2", params.head_b2)])
    return out


class TestNamedParameters:
    @pytest.mark.parametrize("cfg", [ModelConfig(), TINY], ids=["default", "tiny"])
    @pytest.mark.parametrize("pos_embed", [True, False])
    def test_matches_hand_listed_names_nodes_and_order(self, cfg, pos_embed):
        params = init_model_params(replace(cfg, add_hr_pos_embed=pos_embed), 0)
        got = [(name, id(node)) for name, node in params.named_parameters()]
        want = [(name, id(node)) for name, node in hand_listed_parameters(params)]
        assert got == want
        assert len(got) == (73 if pos_embed else 72)

    def test_shared_leaf_listed_once(self):
        params = init_model_params(TINY, 0)
        params.backbone_blocks.append(params.branch_blocks[0])
        names = [name for name, _ in params.named_parameters()]
        assert len(names) == len(set(names)) == 73


class TestEndToEndGradient:
    def test_tiny_config_gradcheck_subset(self):
        from prunepose.bench import run_gradcheck
        report = run_gradcheck(TINY, seed=0, max_coords_per_param=2)
        assert report["passed"]
        assert report["max_rel_error"] < 1e-4


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_sample, tmp_path):
        triplet, _, _ = tiny_sample
        params = init_model_params(TINY, 0)
        reference = forward_full(triplet, TINY, params).maps.value.copy()
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        for _, p in params.named_parameters():
            p.value[...] += 1.0
        load_checkpoint(path, params)
        restored = forward_full(triplet, TINY, params).maps.value
        assert np.array_equal(restored, reference)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "something-else", "params": {}}')
        with pytest.raises(ValueError):
            load_checkpoint(path, init_model_params(TINY, 0))

    def test_shape_mismatch_rejected(self, tmp_path):
        params = init_model_params(TINY, 0)
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        other = init_model_params(ModelConfig(image_size=(32, 32), embed_dim=16,
                                              joints=2, heads=2), 0)
        with pytest.raises(ShapeError):
            load_checkpoint(path, other)

    def test_extra_parameters_rejected_by_name(self, tmp_path):
        path = tmp_path / "deep.json"
        save_checkpoint(path, init_model_params(replace(TINY, backbone_depth=3), 0))
        params = init_model_params(TINY, 0)
        before = [p.value.copy() for _, p in params.named_parameters()]
        with pytest.raises(KeyError, match=r"backbone\.2\."):
            load_checkpoint(path, params)
        assert all(np.array_equal(b, p.value)
                   for b, (_, p) in zip(before, params.named_parameters()))

    @pytest.mark.parametrize("payload", [
        [1, 2], {"magic": CHECKPOINT_MAGIC, "params": [1]}, {"magic": CHECKPOINT_MAGIC},
    ], ids=["list", "params-a-list", "no-params"])
    def test_payload_that_is_not_an_object_rejected(self, payload, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path, init_model_params(TINY, 0))


class TestConfigValidation:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(image_size=(250, 192))

    def test_default_geometry(self):
        cfg = ModelConfig()
        assert cfg.grid == (16, 12)
        assert cfg.tokens_per_frame == 192
        assert cfg.hr_tokens == 3072
        assert cfg.temporal_tokens == 576
        assert cfg.heatmap_size == (64, 48)

    def test_triplet_needs_three_matching_images(self):
        with pytest.raises(ShapeError):
            FrameTriplet(images=(np.zeros((4, 4, 3)), np.zeros((4, 4, 3))))
