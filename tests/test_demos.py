"""Smoke test of the demos: each runs to exit 0 and prints its recorded text.

The demos call the public API the way a reader would, so an API change that
breaks one shows here.  The expected stdout of each demo is in
``demo_outputs/<name>.txt``; the wall-clock field ``(<seconds>s,`` that
``compactness_certificate.py`` prints is masked as ``(…s,`` on both sides.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orliczseq

TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
EXPECTED = TESTS / "demo_outputs"
SRC = Path(orliczseq.__file__).resolve().parent.parent
NAMES = ("compactness_certificate", "delta2_and_classification",
         "embedding_certificates", "norms_and_modulars", "schauder_convergence")
_TIMING = re.compile(r"\(\d+(\.\d+)?s,")


def _mask(text: str) -> str:
    return _TIMING.sub("(…s,", text)


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs_and_prints_recorded_text(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
    assert _mask(proc.stdout) == expected
