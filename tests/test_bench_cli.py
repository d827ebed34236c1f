import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from prunepose.attention import spatio_temporal_block, transformer_block
import prunepose.bench as bench
import prunepose.cli as cli
from prunepose.bench import (
    REPORT_SCHEMA,
    _sample,
    forward_baseline,
    run_gradcheck,
    run_ratio_grid,
    run_train_smoke,
)
from prunepose.cli import GRID_MODEL, TINY_MODEL, _model_config, run
from prunepose.dpc import DpcConfig
from prunepose.model import (
    ModelConfig,
    forward_full,
    heatmap_loss,
    init_model_params,
    patch_embed_backbone,
    train_step,
)
from prunepose.synth import SynthScene, make_triplet_sample
from prunepose.tensor import (
    add,
    backward,
    constant,
    gather_rows,
    gelu,
    matmul,
    upsample_bilinear,
)

TINY = _model_config(TINY_MODEL)
SMALL_GRID = ModelConfig(image_size=(32, 32), embed_dim=8, joints=2, heads=2)


@pytest.fixture
def no_sample(monkeypatch):
    """Make drawing a clip fail, so a check that passes this fixture shows
    that it came before any work."""
    def fail(*args, **kwargs):
        raise AssertionError("a clip was drawn before the arguments were checked")

    monkeypatch.setattr(bench, "_sample", fail)


class TestBenchConfig:
    """``run_bench``'s counts, checked before any work."""

    def test_zero_iterations_rejected(self, no_sample):
        with pytest.raises(ValueError):
            bench.run_bench(TINY, iters=0)

    def test_negative_warmup_rejected(self, no_sample):
        with pytest.raises(ValueError):
            bench.run_bench(TINY, warmup=-1)

    @pytest.mark.parametrize("field", ["iters", "warmup"])
    @pytest.mark.parametrize("value", [2.5, True, 2.0])
    def test_non_integer_counts_rejected(self, field, value, no_sample):
        with pytest.raises(ValueError, match="integer"):
            bench.run_bench(TINY, **{field: value})


class TestBench:
    def test_report_config_keeps_the_committed_layout(self):
        report = bench.run_bench(TINY, seed=2, warmup=0, iters=1)
        committed = json.loads((Path(__file__).parents[1] / "BENCH_4.json").read_text())
        assert list(report["config"]) == list(committed["config"]) == [
            "model", "warmup", "iters", "seed"]
        assert list(report["config"]["model"]) == list(committed["config"]["model"])
        assert {k: report["config"][k] for k in ("warmup", "iters", "seed")} == {
            "warmup": 0, "iters": 1, "seed": 2}

    def test_every_variant_reports_its_peak_memory(self):
        variants = bench.run_bench(TINY, warmup=0, iters=1)["variants"]
        assert all(v["peak_mb"] > 0 for v in variants.values())
        assert variants["multi_grained"]["peak_mb"] >= variants["multi_grained_pruned"]["peak_mb"]

    def test_timed_calls_alternate_between_variants(self, monkeypatch):
        # each variant warms up and takes its untimed MAC and memory call in
        # turn; then every timed iteration calls each variant once, so no
        # variant always runs right after the same one
        log = []
        baseline, full, clock = bench.forward_baseline, bench.forward_full, time.perf_counter

        def baseline_spy(*args):
            log.append("baseline")
            return baseline(*args)

        def full_spy(clip, cfg, params):
            log.append("multi_grained_pruned" if cfg is TINY else "multi_grained")
            return full(clip, cfg, params)

        def clock_spy():
            log.append("clock")
            return clock()

        monkeypatch.setattr(bench, "forward_baseline", baseline_spy)
        monkeypatch.setattr(bench, "forward_full", full_spy)
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=clock_spy))
        report = bench.run_bench(TINY, warmup=2, iters=3)
        monkeypatch.undo()
        names = list(report["variants"])
        assert names == ["baseline", "multi_grained", "multi_grained_pruned"]
        timed = [log[i] for i in range(1, len(log) - 1)
                 if log[i - 1] == log[i + 1] == "clock" != log[i]]
        assert timed == names * 3
        first = log.index("clock")
        assert log[:first] == [name for name in names for _ in range(2 + 1)]
        assert log[first:].count("clock") == 2 * len(timed)

    def test_a_running_trace_stays_on(self):
        tracemalloc.start()
        try:
            bench.run_bench(TINY, warmup=0, iters=1)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestBaselineVariant:
    def test_baseline_heatmap_shape(self):
        params = init_model_params(TINY, 0)
        scene = SynthScene(seed=0, joints=TINY.joints)
        triplet, _, _ = make_triplet_sample(scene, TINY)
        out = forward_baseline(triplet, TINY, params)
        assert out.shape == (TINY.joints, *TINY.heatmap_size)

    @pytest.mark.parametrize("cfg", [TINY, ModelConfig(image_size=(64, 48), embed_dim=16,
                                                       joints=5, heads=2)])
    def test_baseline_heatmap_bit_identical_to_inline_head(self, cfg):
        # the baseline's own decode head, as written before it shared fuse_and_decode's
        params = init_model_params(cfg, 3)
        triplet, _, _ = make_triplet_sample(SynthScene(seed=3, joints=cfg.joints), cfg)
        joint = spatio_temporal_block(patch_embed_backbone(triplet, cfg, params), params.st)
        for b in params.branch_blocks:
            joint = transformer_block(joint, b)
        n = cfg.tokens_per_frame
        key = gather_rows(joint, np.arange(n, 2 * n))
        dense = upsample_bilinear(key, cfg.grid, cfg.upsample_factor)
        hidden = gelu(add(matmul(dense, params.head_w1), params.head_b1))
        logits = add(matmul(hidden, params.head_w2), params.head_b2)
        hh, hw = cfg.heatmap_size
        want = logits.value.reshape(hh, hw, cfg.joints).transpose(2, 0, 1)
        got = forward_baseline(triplet, cfg, params)
        assert np.array_equal(got.value, want)


class TestRatioGrid:
    def test_grid_structure_and_mac_monotonicity(self):
        report = run_ratio_grid(SMALL_GRID, ratios=(1, 2), train_steps=1, iters=1)
        assert len(report["cells"]) == 4
        macs = {(c["eps_hrb"], c["eps_lrb"]): c["macs"] for c in report["cells"]}
        assert macs[(2, 1)] < macs[(1, 1)]
        assert macs[(1, 2)] < macs[(1, 1)]
        assert macs[(2, 2)] < macs[(2, 1)]

    def test_identity_cell_present(self):
        report = run_ratio_grid(SMALL_GRID, ratios=(1,), train_steps=1, iters=1)
        cell = report["cells"][0]
        assert (cell["eps_hrb"], cell["eps_lrb"]) == (1, 1)
        assert "final_loss" in cell

    def test_report_names_every_argument(self):
        report = run_ratio_grid(SMALL_GRID, ratios=(1,), seed=4, train_steps=0, lr=0.5, iters=3)
        config = dict(report["config"])
        assert list(config.pop("model")) == list(dataclasses.asdict(SMALL_GRID))
        assert config == {"ratios": [1], "seed": 4, "train_steps": 0, "lr": 0.5, "iters": 3}

    def test_empty_ratios_rejected(self):
        with pytest.raises(ValueError):
            run_ratio_grid(SMALL_GRID, ratios=())

    @pytest.mark.parametrize("count", [dict(iters=2.5), dict(iters=True), dict(train_steps=1.5)])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="integer"):
            run_ratio_grid(SMALL_GRID, ratios=(1,), **count)

    def test_sample_built_once_per_grid(self, monkeypatch):
        calls = []

        def spy(scene, cfg):
            calls.append(scene)
            return make_triplet_sample(scene, cfg)

        monkeypatch.setattr(bench, "make_triplet_sample", spy)
        report = run_ratio_grid(SMALL_GRID, ratios=(1, 2), train_steps=0, iters=1)
        assert len(calls) == 1 and len(report["cells"]) == 4
        assert not any("error" in c for c in report["cells"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cell_error_names_the_step(self):
        report = run_ratio_grid(SMALL_GRID, ratios=(1,), train_steps=1, lr=1e60, iters=1)
        assert re.fullmatch(r"TrainingError: non-finite .* at step 1", report["cells"][0]["error"])


def test_train_curve_ends_with_the_final_loss():
    # the loss before each of the steps, then the loss after the last
    sample = _sample(TINY, 0)
    params, twin = init_model_params(TINY, 0), init_model_params(TINY, 0)
    curve = bench._train([sample], TINY, params, 3, 0.03)
    want = [train_step(*sample, TINY, twin, 0.03) for _ in range(3)]
    want.append(float(heatmap_loss(forward_full(sample[0], TINY, twin), sample[1]).value))
    assert curve == want


def test_sample_pads_joints_beyond_the_skeleton():
    cfg = replace(SMALL_GRID, joints=17)
    triplet, target = _sample(cfg, 0)
    assert target.shape == (17, *cfg.heatmap_size)
    assert not target[15:].any() and target[:15].any()
    want, want_target, _ = make_triplet_sample(SynthScene(seed=0), replace(cfg, joints=15))
    assert all(np.array_equal(a, b) for a, b in zip(triplet, want))
    assert np.array_equal(target[:15], want_target)


def gradcheck_per_parameter_loop(cfg, eps, corrupt, max_coords):
    """Reference: the probe loop ``run_gradcheck`` ran before it shared
    ``finite_diff_check``'s; returns (worst error, "name[i]")."""
    params = init_model_params(cfg, 0)
    triplet, target, _ = make_triplet_sample(SynthScene(seed=0, joints=cfg.joints), cfg)
    _, hr_sel, lr_sel = forward_full(triplet, cfg, params, details=True)

    def loss_at():
        return heatmap_loss(forward_full(triplet, cfg, params, frozen=(hr_sel, lr_sel)),
                            constant(target))

    backward(loss_at())
    grads = {name: p.grad.copy() for name, p in params.named_parameters()}
    if corrupt is not None:
        grads[corrupt] = grads[corrupt] + 1.0
    worst_err, worst_name = 0.0, None
    for name, p in params.named_parameters():
        flat = p.value.ravel()
        gflat = grads[name].ravel()
        for i in range(min(flat.size, max_coords)):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_at().value)
            flat[i] = orig - eps
            lo = float(loss_at().value)
            flat[i] = orig
            central = (hi - lo) / (2.0 * eps)
            err = abs(gflat[i] - central) / max(1.0, abs(central))
            if err > worst_err:
                worst_err, worst_name = err, f"{name}[{i}]"
    return worst_err, worst_name


class TestGradcheckCommand:
    @pytest.mark.parametrize("corrupt", [None, "head_b2"])
    def test_equals_per_parameter_loop(self, corrupt):
        report = run_gradcheck(TINY, corrupt=corrupt, max_coords_per_param=2)
        ref = gradcheck_per_parameter_loop(TINY, 1e-4, corrupt, 2)
        assert (report["max_rel_error"], report["worst_parameter"]) == ref

    def test_oversized_config_rejected(self):
        with pytest.raises(ValueError):
            run_gradcheck(ModelConfig(image_size=(128, 128), embed_dim=8,
                                      joints=2, heads=2))

    def test_subset_passes(self):
        report = run_gradcheck(TINY, max_coords_per_param=2)
        assert report["passed"]

    def test_corrupted_gradient_fails_with_named_parameter(self):
        report = run_gradcheck(TINY, corrupt="patch_bias", max_coords_per_param=2)
        assert not report["passed"]
        assert report["worst_parameter"].startswith("patch_bias")
        # a deliberately broken gradient is told apart from a real bug
        assert report["config"]["corrupt"] == "patch_bias"

    def test_unknown_corrupt_target_rejected(self):
        with pytest.raises(KeyError):
            run_gradcheck(TINY, corrupt="nope", max_coords_per_param=1)

    @pytest.mark.parametrize("cap", [1, None])
    def test_report_names_the_coordinate_cap(self, cap, monkeypatch):
        # a capped check must say so; the uncapped run's probes are stubbed out
        monkeypatch.setattr(bench, "_central_diff", lambda *args: (0.0, None))
        report = run_gradcheck(TINY, max_coords_per_param=cap)
        assert list(report["config"]) == ["model", "seed", "eps", "tol", "max_coords",
                                          "corrupt"]
        assert report["config"]["max_coords"] == cap
        assert report["config"]["corrupt"] is None

    @pytest.mark.parametrize("cap", [0, -1, 1.5, True, 2.0, "2"])
    def test_bad_coordinate_caps_rejected_before_any_work(self, cap, no_sample):
        with pytest.raises(ValueError, match="integer"):
            run_gradcheck(TINY, max_coords_per_param=cap)


class TestTrainSmoke:
    @pytest.mark.parametrize("count", [dict(steps=2.5), dict(batch=True)])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="integer"):
            run_train_smoke(TINY, **count)

    def test_zero_lr_flat_curve_fails_threshold(self):
        report = run_train_smoke(TINY, steps=5, lr=0.0, batch=1)
        assert not report["passed"]
        assert report["initial_loss"] == pytest.approx(report["final_loss"])

    def test_determinism_same_seed(self):
        a = run_train_smoke(TINY, steps=3, lr=0.03, seed=7, batch=1)
        b = run_train_smoke(TINY, steps=3, lr=0.03, seed=7, batch=1)
        assert a["curve"] == b["curve"]

    def test_short_run_reduces_loss(self):
        report = run_train_smoke(TINY, steps=20, lr=0.03, batch=1)
        assert report["final_loss"] < report["curve"][0]


class TestCli:
    def _tiny_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": TINY_MODEL}))
        return str(path)

    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["bench", "--config", self._tiny_config_file(tmp_path),
                    "--iters", "1", "--warmup", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "prunepose-report-v1"
        assert set(report["variants"]) == {"baseline", "multi_grained",
                                           "multi_grained_pruned"}
        assert report["config"]["model"]["embed_dim"] == 8

    def test_bench_macs_reproducible(self, tmp_path, capsys):
        cfg = self._tiny_config_file(tmp_path)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["bench", "--config", cfg, "--iters", "1",
                        "--warmup", "0", "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        for variant in outs[0]["variants"]:
            assert (outs[0]["variants"][variant]["macs"]
                    == outs[1]["variants"][variant]["macs"])

    def test_eps_flags_override(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["bench", "--config", self._tiny_config_file(tmp_path),
                    "--iters", "1", "--warmup", "0",
                    "--eps-hrb", "2", "--eps-lrb", "3", "--out", str(out)])
        assert code == 0
        model = json.loads(out.read_text())["config"]["model"]
        assert model["hr_cfg"]["epsilon"] == 2
        assert model["lr_cfg"]["epsilon"] == 3

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["bench", "--config", str(bad)]) == 2

    def test_bad_model_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"image_size": [30, 30]}}))
        assert run(["bench", "--config", str(bad)]) == 2

    def test_gradcheck_corrupt_exits_1(self, tmp_path, capsys):
        out = tmp_path / "gc.json"
        code = run(["gradcheck", "--corrupt", "patch_bias", "--max-coords", "1",
                    "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["config"]["corrupt"] == "patch_bias"

    def test_gradcheck_subset_exits_0(self, tmp_path, capsys):
        out = tmp_path / "gc.json"
        assert run(["gradcheck", "--max-coords", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["corrupt"] is None

    def test_train_smoke_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        code = run(["train-smoke", "--steps", "25", "--batch", "1",
                    "--out", str(out)])
        report = json.loads(out.read_text())
        assert len(report["curve"]) == 26
        curve_csv = (tmp_path / "smoke.json.curve.csv").read_text().splitlines()
        assert curve_csv[0] == "step,loss"
        assert len(curve_csv) == 27
        assert code in (0, 1)

    def test_train_smoke_divergence_exits_1(self, capsys):
        code = run(["train-smoke", "--lr", "1e8", "--steps", "20", "--batch", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite")
        assert re.search(r"at step \d+$", err.strip())

    def test_nan_tau_named_in_the_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"model": {"hr_cfg": {"tau": float("nan")}}}))
        assert run(["gradcheck", "--max-coords", "1", "--config", str(path)]) == 2
        assert "tau must be" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr, message", [
        ("1e60", "error: non-finite loss nan at step 1"),
        ("1e150", "error: non-finite features: tokens must be finite at step 1"),
    ])
    def test_train_smoke_final_loss_checked_as_a_step(self, lr, message, capsys):
        # one step leaves the parameters huge; the final evaluation is step 1
        assert run(["train-smoke", "--steps", "1", "--lr", lr, "--batch", "1"]) == 1
        out, err = capsys.readouterr()
        assert not out
        assert err.strip().endswith(message)

    def test_ratio_grid_emits_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        cfg = tmp_path / "grid_cfg.json"
        cfg.write_text(json.dumps({"model": {**GRID_MODEL,
                                             "image_size": [32, 32],
                                             "embed_dim": 8, "joints": 2}}))
        code = run(["ratio-grid", "--config", str(cfg), "--ratios", "1", "2",
                    "--train-steps", "1", "--iters", "1", "--out", str(out)])
        assert code == 0
        rows = (tmp_path / "grid.json.csv").read_text().splitlines()
        assert rows[0].startswith("eps_hrb,eps_lrb")
        assert len(rows) == 5

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--iters", "3"],
        ["train-smoke", "--iters", "3"],
        ["dump-synth", "--iters", "3"],
        ["dump-synth", "--config", "cfg.json"],
        ["dump-synth", "--eps-hrb", "2"],
        ["dump-synth", "--eps-lrb", "2"],
        ["ratio-grid", "--eps-hrb", "2"],
        ["ratio-grid", "--eps-lrb", "2"],
    ])
    def test_ignored_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "--iters", "0"],
        ["ratio-grid", "--iters", "0"],
        ["ratio-grid", "--lr", "-0.1"],
        ["gradcheck", "--eps", "0"],
        ["gradcheck", "--max-coords", "0"],
        ["train-smoke", "--lr", "-0.1"],
        ["train-smoke", "--batch", "0"],
        ["train-smoke", "--steps", "0"],
        ["gradcheck", "--tol", "-1"],
        ["gradcheck", "--tol", "0"],
        ["gradcheck", "--tol", "nan"],
        ["gradcheck", "--eps", "1e9", "--max-coords", "1"],
        ["gradcheck", "--eps", "0.5", "--max-coords", "1"],
    ])
    def test_bad_flag_value_exits_2(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, config", [
        (["gradcheck"], {"model": {"hr_cfg": {"kk": 3}}}),
        (["gradcheck"], {"model": {"heads": 0}}),
        (["gradcheck"], {"model": {"patch": 0}}),
        (["gradcheck"], [1]),
        (["gradcheck"], {"model": {"image_size": 5}}),
        (["gradcheck"], {"model": {"hr_cfg": 6}}),
        (["gradcheck"], {"model": {"image_size": [0, 0]}}),
        (["gradcheck"], {"model": [1]}),
        (["ratio-grid", "--train-steps", "-3"], None),
        (["gradcheck", "--max-coords", "1"], {"model": {"backbone_depth": -2}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"blocks_per_branch": -1}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"hr_cfg": {"epsilon": 2.5}}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"lr_cfg": {"k": 2.5}}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"joints": 2.5}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"patch": 8.0}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"heads": True}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"image_size": [32.0, 32]}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"add_hr_pos_embed": "no"}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"hr_cfg": {"tau": float("nan")}}}),
        (["gradcheck", "--max-coords", "1"], {"model": {"joints": 2}, "seed": 9, "iters": 7}),
        (["gradcheck", "--max-coords", "1"], {"modle": {"joints": 2}}),
    ], ids=["hr_cfg-unknown-key", "heads-0", "patch-0", "not-an-object", "image_size-int",
            "hr_cfg-int", "image_size-zero", "model-not-an-object", "train-steps-negative",
            "backbone_depth-negative", "blocks_per_branch-negative", "epsilon-float", "k-float",
            "joints-float", "patch-float", "heads-bool", "image_size-float",
            "add_hr_pos_embed-string", "tau-nan", "ignored-top-level-keys",
            "misspelt-model-key"])
    def test_malformed_input_exits_2(self, argv, config, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "f.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, make_out", [
        (["gradcheck", "--max-coords", "1"], lambda path: path.mkdir()),
        (["dump-synth", "--length", "2"], lambda path: path.write_text("")),
    ], ids=["gradcheck-out-is-a-directory", "dump-synth-out-is-a-file"])
    def test_unwritable_out_exits_2(self, argv, make_out, tmp_path, capsys):
        out = tmp_path / "taken"
        make_out(out)
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @staticmethod
    def _taken_by_a_directory(suffix):
        def make(out):
            out.write_text("kept\n")
            Path(str(out) + suffix).mkdir()
        return make

    @pytest.mark.parametrize("argv, out_name, make_out", [
        (["gradcheck"], "run", lambda out: out.mkdir()),
        (["gradcheck"], "missing/run", lambda out: None),
        (["train-smoke"], "run", _taken_by_a_directory(".curve.csv")),
        (["train-smoke"], "missing/run", lambda out: None),
        (["ratio-grid"], "run", _taken_by_a_directory(".csv")),
    ], ids=["gradcheck-out-is-a-directory", "gradcheck-no-parent",
            "train-smoke-curve-is-a-directory", "train-smoke-no-parent",
            "ratio-grid-csv-is-a-directory"])
    def test_unwritable_out_checked_before_any_work(self, argv, out_name, make_out,
                                                    tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("run_gradcheck", "run_train_smoke", "run_ratio_grid"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        out = tmp_path / out_name
        make_out(out)

        def files():
            return {p: p.is_dir() or p.read_text() for p in tmp_path.rglob("*")}

        before = files()
        assert run(argv + ["--out", str(out)]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error:")
        assert files() == before  # nothing created or truncated

    @pytest.mark.parametrize("argv", [
        ["bench", "--iters", "1", "--warmup", "0"],
        ["ratio-grid", "--ratios", "1", "--train-steps", "0", "--iters", "1"],
        ["gradcheck", "--max-coords", "1"],
        ["train-smoke", "--steps", "1", "--batch", "1"],
        ["dump-synth", "--length", "3"],
    ])
    def test_every_report_carries_the_schema(self, argv, tmp_path, capsys):
        if argv[0] == "dump-synth":
            argv = argv + ["--out", str(tmp_path / "dump")]
        else:
            argv = argv + ["--config", self._tiny_config_file(tmp_path)]
        run(argv)
        report = json.loads(capsys.readouterr().out)
        assert (report["schema"], report["command"]) == (REPORT_SCHEMA, argv[0])

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--max-coords", "1"],
        ["train-smoke", "--steps", "30", "--lr", "0.1", "--batch", "1"],
        ["ratio-grid", "--ratios", "1", "--train-steps", "1", "--iters", "1"],
    ])
    def test_more_joints_than_the_skeleton_exits_0(self, argv, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"model": {"joints": 16}}))
        code = run(argv + ["--config", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["model"]["joints"] == 16
        assert code == 0

    def test_dump_synth_echoes_its_config(self, tmp_path, capsys):
        run(["dump-synth", "--length", "4", "--joints", "4", "--seed", "3",
             "--out", str(tmp_path / "dump")])
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == {"seed": 3, "joints": 4, "length": 4}
        assert report["frames"] == 4

    def test_dump_synth(self, tmp_path, capsys):
        out = tmp_path / "dump"
        code = run(["dump-synth", "--length", "3", "--out", str(out)])
        assert code == 0
        assert (out / "frame_000.pgm").exists()
        assert (out / "keypoints.json").exists()

    @pytest.mark.parametrize("argv", [["--help"],
                                      ["dump-synth", "--length", "3", "--out", "dump"]],
                             ids=["help", "dump-synth"])
    def test_python_m_prunepose_runs_from_a_checkout(self, argv, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "prunepose", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if argv[0] == "dump-synth":
            assert (tmp_path / "dump" / "keypoints.json").exists()
