"""The benchmark's tracing hooks still fit the package: every function that
``perfbench/spans.py`` patches exists, its recorder puts every attribute back,
and ``tensor.mac_tally`` still yields a ``.macs`` count. A rename or deletion
in ``src/`` that would break ``perfbench/run.py --trace 1`` fails here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import prunepose.bench  # noqa: F401  (every module loaded, so install patches them all)
import prunepose.cli  # noqa: F401
from prunepose import model, tensor
from prunepose.cli import TINY_MODEL, _model_config
from prunepose.synth import SynthScene, make_triplet_sample

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _prunepose_attributes() -> dict:
    return {(key, attr): value for key, m in list(sys.modules.items())
            if m is not None and (key == "prunepose" or key.startswith("prunepose."))
            for attr, value in vars(m).items()}


def test_every_traced_function_resolves(spans):
    for module_name, fn_name, _ in spans.TRACED:
        fn = getattr(importlib.import_module(module_name), fn_name, None)
        assert callable(fn), f"{module_name}.{fn_name}"


def test_install_then_uninstall_restores_every_attribute(spans):
    before = _prunepose_attributes()
    recorder = spans.Recorder(memory=False)
    recorder.install()
    try:
        assert model.high_res_branch is not before[("prunepose.model", "high_res_branch")]
        cfg = _model_config(TINY_MODEL)
        params = model.init_model_params(cfg, 0)
        triplet, _, _ = make_triplet_sample(SynthScene(seed=0, joints=cfg.joints), cfg)
        model.forward_full(triplet, cfg, params)
    finally:
        recorder.uninstall()
    after = _prunepose_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, changed
    # both branches' prune calls are attributed to the branch that made them
    names = [span[0] for span in recorder.spans]
    for name in ("model.high_res_branch", "model.low_res_branch",
                 "dpc.prune.hr", "dpc.prune.lr", "attention.cross_attention"):
        assert name in names, name


def test_nested_mac_tallies_both_count():
    a, b = tensor.constant(np.ones((2, 3))), tensor.constant(np.ones((3, 4)))
    with tensor.mac_tally() as outer:
        tensor.matmul(a, b)
        with tensor.mac_tally() as inner:
            tensor.matmul(a, b)
    assert (outer.macs, inner.macs) == (48, 24)
