"""The benchmark's own test: tracing repeats its counts and changes nothing.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
The cli workload is used because its in-process traced pass calls every
traced function of every module.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LIBRARY = ROOT / "src" / "orliczseq"


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split("sha256:", 1)[1] for ln in lines if ln.startswith("# digest"))
    return json.loads(lines[-1]), digest


def _library_hashes():
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(LIBRARY.glob("*.py"))}


def _counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_traced_counts_repeat_and_results_and_library_are_unchanged():
    before = _library_hashes()
    first, digest_first = _run("cli", 7, 1)
    second, digest_second = _run("cli", 7, 1)
    untraced, digest_untraced = _run("cli", 7, 0)
    assert all(r["correct"] and r["failed"] == 0 for r in (first, second, untraced))
    counts = _counts(first)
    assert counts == _counts(second)
    assert all(counts[k] > 0 for k in ("functions.inverse.calls", "luxemburg.norm.calls",
                                       "embeddings.uniform_tail_index.steps"))
    assert digest_first == digest_second == digest_untraced
    assert _library_hashes() == before


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracer
    from orliczseq import SeqVector, SpaceParams, parse_orlicz

    def bindings():
        owners = [*tracer.MODULES, *tracer.orlicz_classes()]
        return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}

    before = bindings()
    with tracer.Tracer() as t:
        tracer.orliczseq.luxemburg_norm(SpaceParams(0.5, parse_orlicz("explin")),
                                        SeqVector({0: 1.0, 3: 0.5}))
        assert bindings() != before
    assert bindings() == before
    metrics = t.metrics()
    assert metrics["luxemburg.norm.calls"] == 1
    assert metrics["functions.inverse.calls"] == 2
