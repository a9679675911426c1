"""tools/output_digests.py: the digests every output-preserving change compares."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digests() -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_digests.py")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_output_digests_are_sorted_unique_and_repeatable():
    first = _digests()
    lines = first.splitlines()
    assert lines
    for line in lines:  # a case, then the digest of each of its outputs
        assert re.fullmatch(r"\S+( [0-9a-f]{64})+", line), line
    keys = [line.split(" ")[0] for line in lines]
    assert keys == sorted(set(keys))
    # same seeds, same outputs (acceptance criterion 8)
    assert _digests() == first
