"""orliczseq benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload {covering,large-support,cli} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric that BENCHMARK.json declares; with ``--trace 1`` it holds
every per-layer metric instead.  Lines before it, each starting with ``#``,
record the environment, each metric with its unit and notes, the error rate,
the results digest and, when traced, the full span profile.

The load is a closed loop: one caller, one operation at a time, one thread
(OMP_NUM_THREADS and OPENBLAS_NUM_THREADS pinned to 1).  The library and the
worker run from ``src/`` with PYTHONPATH; nothing is installed.  All files
the run writes live in ``.bench_tmp/`` under the repository root and are
removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from workloads import (CAL_REF_S, WORKLOADS, calibrate, check_cli_output, cli_text,
                       digest, make_spec, out_of_time, scale, scaled)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 6  # fresh interpreters before the workload, and again after it
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with ten samples beyond it
RUN_LIMIT_S = 170

# a fresh interpreter: import, then build the workload's spaces
SETUP_CODE = """\
import sys
import orliczseq
from orliczseq import SpaceParams, parse_orlicz, parse_weights
for arg in sys.argv[1:]:
    phi, k, w = arg.split("|")
    SpaceParams(float(k), parse_orlicz(phi), parse_weights(w))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


class BenchError(Exception):
    """The program could not be set up or run; no result is printed."""


def _out_of_run_time(signum, frame):
    raise BenchError(f"the run exceeded {RUN_LIMIT_S} s")


@contextlib.contextmanager
def child(argv, **kwargs):
    """A subprocess run from the repository root, killed and reaped if the block raises."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, **kwargs)
    try:
        yield proc
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def child_env(tmpdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=tmpdir)
    env.update(THREAD_PINS)
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "threads": THREAD_PINS}


def start_interpreter(args, env) -> float:
    """Seconds from spawning a fresh interpreter to its spaces being built."""
    t0 = time.perf_counter()
    with child([sys.executable, "-c", SETUP_CODE, *args], env=env,
               stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise BenchError(f"set-up interpreter failed with exit code {code}")
    return elapsed


def measure_setup(spec, env, warm: bool = False) -> list:
    """SETUP_REPEATS timed starts, each as (seconds, calibration before, after);
    with ``warm``, after one untimed start that writes the bytecode caches."""
    args = [f"{phi}|{k!r}|{w}" for phi, k, w in spec["spaces"].values()]
    if warm:
        start_interpreter(args, env)
    starts, cal = [], calibrate()
    for _ in range(SETUP_REPEATS):
        elapsed = start_interpreter(args, env)
        starts.append((elapsed, cal, cal := calibrate()))
    return starts


def run_worker(spec, tmpdir, env) -> dict:
    spec_path = os.path.join(tmpdir, "spec.json")
    result_path = os.path.join(tmpdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with child([sys.executable, str(WORKER), spec_path, result_path], env=env,
               stdout=sys.stderr) as proc:
        code = proc.wait()
    if code != 0:
        raise BenchError(f"worker failed with exit code {code}")
    with open(result_path) as fh:
        return json.load(fh)


def cli_pass(ops, tmpdir, env):
    """One pass of CLI subprocesses: (latencies, texts, errors, max RSS in MB,
    calibrations before each invocation and after the last)."""
    out_path, err_path = os.path.join(tmpdir, "stdout"), os.path.join(tmpdir, "stderr")
    lat, texts, errors, rss, cals = [], [], [], 0, []
    for op in ops:
        cals.append(calibrate())
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            with child([sys.executable, "-m", "orliczseq.cli", *op["argv"]], env=env,
                       stdout=out, stderr=err) as proc:
                _, status, usage = os.wait4(proc.pid, 0)
                lat.append(time.perf_counter() - t0)
                proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode()
        rss = max(rss, usage.ru_maxrss)
        texts.append(cli_text(code, stdout))
        errors.append(check_cli_output(op, code, stdout))
    cals.append(calibrate())
    return lat, texts, errors, rss / 1024.0, cals


def run_cli(spec, seconds, tmpdir, env) -> dict:
    """The cli workload untraced: every operation is a fresh `python -m orliczseq.cli`."""
    ops = spec["ops"]
    _, reference, errors, _, _ = cli_pass(ops, tmpdir, env)  # warm-up pass, checked
    failures = [f"op {i} cli: {e}" for i, e in enumerate(errors) if e]
    result = {"digest": digest(reference), "latencies": [], "cals": [],
              "attempted": len(ops), "failed": len(failures), "peak_rss_mb": 0.0}
    start = time.perf_counter()
    while not out_of_time(start, len(result["latencies"]), seconds):
        lat, texts, _, rss, cals = cli_pass(ops, tmpdir, env)
        result["latencies"].append(lat)
        result["cals"].append(cals)
        result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
        result["attempted"] += len(ops)
        for i, t in enumerate(texts):
            if t != reference[i]:
                result["failed"] += 1
                failures.append(f"op {i} cli: output differs from the warm-up pass")
    result["failures"] = failures[:20]
    return result


def end_to_end(workload, result, setup_starts):
    """Metric values, plus the notes printed beside them.

    Every time is scaled to the reference host speed by the calibrations
    timed around it (see workloads.scaled).  Each operation counts at its
    median over the timed passes; a pass is the sum of its operations.
    """
    per_op = scaled(result["latencies"], result["cals"])
    n, passes = len(per_op), len(result["latencies"])
    values = {
        "setup_s": statistics.median(scale(*start) for start in setup_starts),
        "wall_s": math.fsum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * sorted(per_op)[n - TAIL_BEYOND - 1],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_pass = statistics.median(math.fsum(lat) for lat in result["latencies"])
    raw_setup = statistics.median(t for t, _, _ in setup_starts)
    cal = statistics.median(c for cals in result["cals"] for c in cals)
    notes = {
        "setup_s": f"median of {len(setup_starts)} fresh interpreters; unscaled {raw_setup:.4f} s",
        "wall_s": (f"{n} ops, each at its median of {passes} timed passes; unscaled "
                   f"median pass {raw_pass:.4f} s, calibration median {1e3 * cal:.3f} ms "
                   f"against {1e3 * CAL_REF_S:g} ms"),
        "op_p50_ms": f"median of {n} ops",
        "op_tail_ms": f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond it",
        "peak_rss_mb": ("max over CLI invocations" if workload == "cli"
                        else "the worker process"),
    }
    return values, notes


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orliczseq" / "__init__.py").is_file():
        print(f"error: no orliczseq sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    signal.signal(signal.SIGALRM, _out_of_run_time)
    signal.alarm(RUN_LIMIT_S)
    try:
        env = child_env(tmpdir)
        spec = make_spec(args.workload, args.seed, tmpdir)
        spec.update(seconds=args.seconds, trace=args.trace)
        if args.trace:
            kind, result = "per_layer", run_worker(spec, tmpdir, env)
            values, notes = result["layers"], {}
        else:
            kind = "end_to_end"
            setup_starts = measure_setup(spec, env, warm=True)
            if args.workload == "cli":
                result = run_cli(spec, args.seconds, tmpdir, env)
            else:
                result = run_worker(spec, tmpdir, env)
            setup_starts += measure_setup(spec, env)
            values, notes = end_to_end(args.workload, result, setup_starts)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    units = declared(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# environment {json.dumps(environment())}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name} = {values[name]!r} {unit}{note}")
    print(f"# error_rate = {failed / attempted!r} ratio ({failed} failed of {attempted})")
    print(f"# digest sha256:{result['digest']}")
    for line in result.get("failures", []):
        print(f"# failure {line}")
    if args.trace:
        for name in sorted(values):
            if name not in units:
                print(f"# profile {name} = {values[name]!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
