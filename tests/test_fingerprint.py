"""``tools/fingerprint.py`` runs from a checkout and prints one line of
SHA-256 digests per seed."""

import json
import re
import subprocess
import sys
from pathlib import Path

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
