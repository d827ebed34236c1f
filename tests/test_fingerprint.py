"""``tools/fingerprint.py`` runs from a checkout and prints one line of
SHA-256 digests per seed; ``--grads`` saves one training step's gradients and
``--compare-grads`` compares two such files."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_prints_digests_for_one_seed():
    done = subprocess.run([sys.executable, str(TOOL), "--seeds", "3"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    digests = ("heatmaps", "hr_kept", "lr_kept", "train_losses", "train_params")
    assert line.keys() == {"seed", "clips", "train_steps", *digests}
    assert (line["seed"], line["clips"], line["train_steps"]) == (3, 24, 12)
    for key in digests:
        assert re.fullmatch(r"[0-9a-f]{64}", line[key]), key


def _tool(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True,
                          text=True, timeout=300)


def test_grads_saved_and_compared(tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    done = _tool("--grads", str(a))
    assert done.returncode == 0, done.stderr
    grads = dict(np.load(a))
    assert len(grads) > 1 and all(np.isfinite(g).all() for g in grads.values())
    name = sorted(grads)[0]
    scale = np.abs(grads[name]).max()
    assert scale > 0
    changed = dict(grads)
    changed[name] = grads[name].copy()
    changed[name].flat[0] += 1e-3 * scale
    np.savez(b, **changed)

    done = _tool("--compare-grads", str(a), str(b))
    assert done.returncode == 0, done.stderr
    *rows, summary = (json.loads(line) for line in done.stdout.splitlines())
    assert [row["param"] for row in rows] == list(grads)
    assert {row["param"] for row in rows if not row["identical"]} == {name}
    assert (summary["params"], summary["identical"]) == (len(grads), len(grads) - 1)
    assert summary["worst_param"] == name
    assert summary["worst"] == pytest.approx(1e-3, rel=1e-9)

    done = _tool("--compare-grads", str(a), str(a))
    summary = json.loads(done.stdout.splitlines()[-1])
    assert (summary["identical"], summary["worst"]) == (len(grads), 0.0)


@pytest.mark.parametrize("argv", [["--seeds", "3", "--grads", "a.npz"], ["--compare-grads", "x"]])
def test_bad_mode_flags_exit_2(argv):
    assert _tool(*argv).returncode == 2
