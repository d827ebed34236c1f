"""The benchmark's own calls into the package still run: each workload of
``perfbench/workloads.py`` builds at one seed and runs one op, and
``InferPruned.verify()`` checks that op's selections against the
exact-difference reference. A change in ``src/`` that breaks what the
workloads read, ``high_res_branch(...)[2]``, ``Heatmap.maps`` or
``PruneSelection.kept``, fails here. The tape of one pruned forward is pinned
as ``workloads.tape_size`` counts it, in nodes and MiB, so a change in the
nodes the model builds shows up on purpose."""

import importlib.util
from pathlib import Path

import pytest

from prunepose import model
from prunepose.cli import TINY_MODEL, _model_config
from prunepose.synth import SynthScene, make_triplet_sample

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # workloads.py imports dpc_reference
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_infer_pruned_op_and_verify(workloads):
    infer = workloads.InferPruned(SEED)
    assert infer.op(0) == "pos_embed_on"
    assert infer.verify() == {"dpc_exact_share": 1.0,
                              "dpc_exact": {"selections": 2, "hr_equal": 1, "lr_equal": 1,
                                            "per_branch": 1}}


@pytest.mark.parametrize("name,kind", [("train_mid", "step"), ("gradcheck_tiny", "probe")])
def test_op_runs(workloads, name, kind):
    assert workloads.WORKLOADS[name](SEED).op(0) == kind


def test_pruned_forward_tape_size(workloads):
    cfg = _model_config(TINY_MODEL)
    triplet, _, _ = make_triplet_sample(SynthScene(seed=0, joints=cfg.joints), cfg)
    heatmap = model.forward_full(triplet, cfg, model.init_model_params(cfg, 0))
    assert workloads.tape_size(heatmap.maps)[0] == 235
    infer = workloads.InferPruned(SEED)
    heatmap = model.forward_full(infer.triplets[0], infer.cfgs[0], infer.params[0])
    nodes, nbytes = workloads.tape_size(heatmap.maps)
    assert nodes == 235 and nbytes <= 23.5 * 2**20  # 24.56 MiB in 238 nodes before
