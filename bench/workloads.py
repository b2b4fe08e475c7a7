"""Workload definitions: inputs from the seed, CLI output checks, pass timing.

``make_spec(workload, seed, tmpdir)`` writes every input file (sequence CSVs,
the knot table, a weight table) into ``tmpdir`` and returns a JSON-able spec:
the spaces the workload builds during set-up and the fixed list of
operations one pass runs.  The same seed gives the same spec, files
included, apart from the directory name.  This module does not import
orliczseq.  run.py uses it to generate inputs and to check CLI invocations
run as subprocesses; worker.py uses the same checks for in-process runs.
Both time their passes with ``out_of_time``, ``calibrate`` and ``scaled``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time

WORKLOADS = ("covering", "large-support", "cli")

# calibrate(): fixed pure-Python work, timed beside every timed operation.
# End-to-end times are scaled to a reference host on which it takes CAL_REF_S.
CAL_ROUNDS = 6000
CAL_REF_S = 0.004

# the acceptance suite's knot table
TABLE_KNOTS = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0))

# covering: (generator, source order k', target order k, max_support)
COVERING_CELLS = (("power:2", 1.0, 0.0, 64), ("expsq", 1.0, 0.0, 24),
                  ("explin", 2.0, 0.5, 64))
COVERING_EPSILONS = (1.0, 0.1)
COVERING_JOBS_PER_CELL = 10
COVERING_SAMPLES_PER_JOB = 15

# large-support: space key -> (generator, order); tab:<path> is filled in
LARGE_SPACES = {"power:2/1": ("power:2", 1.0), "expsq/0": ("expsq", 0.0),
                "explin/0.5": ("explin", 0.5), "tab/1": ("tab", 1.0)}
# (space key, supports, max |m|); explin with k = 0.5 keeps mu finite for |m| <= 700
LARGE_NORMS = (("power:2/1", (1000, 3000, 10000), 20000),
               ("expsq/0", (1000, 3000, 10000), 20000),
               ("explin/0.5", (1000, 1401), 700),
               ("tab/1", (1000, 3000, 10000), 20000))
# (space key, support, max |m|): dense supports, so every cut solves a norm
LARGE_CURVES = (("power:2/1", 200, 100), ("explin/0.5", 100, 50),
                ("expsq/0", 150, 75), ("tab/1", 60, 30))
# modular scales as multiples of max |p_m|, where every term stays finite
MODULAR_SCALES = (1.0, 4.0, 16.0)

NORM_KEYS = ("value", "rho_low", "rho_high", "modular_at_value", "iterations")
TAIL_KEYS = ("m_eps_kappa", "m1", "m2", "theta", "c_theta", "t_theta", "covering_dim")
COVERING_KEYS = ("samples", "covering_dim", "m_eps_kappa", "epsilon", "kappa",
                 "max_tail_modular", "max_residual")
CLASSIFY_KEYS = ("in_class", "in_large", "in_small", "large_witness_rho", "note",
                 "certificates")
DELTA2_KEYS = ("limsup_estimate", "sup_ratio", "holds", "probes_used", "truncated")
DOMINATE_KEYS = ("holds", "gamma", "t0", "grid_checked", "first_violation")
EMBED_KEYS = ("mode", "holds", "gamma", "t0", "first_violation", "c", "source_k",
              "target_k")
CHECK_KEYS = ("target_norm", "source_norm", "bound", "ok")
CHAIN_KEYS = ("constant", "compact", "form", "links")


def _value(rng, decades):
    z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    z *= 10.0 ** rng.uniform(*decades)
    return z if z != 0 else complex(1.0, 0.0)


def _write_vector(path, rng, n, max_abs, decades=(-2.0, 2.0)) -> list:
    """Write n distinct indices with |m| <= max_abs; return the (m, p_m) rows."""
    rows = [(m, _value(rng, decades)) for m in rng.sample(range(-max_abs, max_abs + 1), n)]
    with open(path, "w") as fh:
        fh.writelines(f"{m},{z.real!r},{z.imag!r}\n" for m, z in rows)
    return rows


def _write_knots(path) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{t!r},{v!r}\n" for t, v in TABLE_KNOTS)


def _covering(rng, tmpdir):
    spaces, ops = {}, []
    for phi, kprime, k, max_support in COVERING_CELLS:
        key = f"{phi}/{kprime:g}"
        spaces[key] = [phi, kprime, "const:1"]
        for eps in COVERING_EPSILONS:
            for _ in range(COVERING_JOBS_PER_CELL):
                ops.append({"kind": "covering", "space": key, "target_k": k,
                            "kappa": 1.0, "epsilon": eps, "seed": rng.randrange(1 << 30),
                            "count": COVERING_SAMPLES_PER_JOB,
                            "max_support": max_support})
    return spaces, ops


def _large_support(rng, tmpdir):
    knots = os.path.join(tmpdir, "knots.csv")
    _write_knots(knots)
    spaces = {key: [f"tab:{knots}" if phi == "tab" else phi, k, "const:1"]
              for key, (phi, k) in LARGE_SPACES.items()}
    ops = []
    for key, supports, max_abs in LARGE_NORMS:
        for n in supports:
            path = os.path.join(tmpdir, f"norm-{key.replace('/', '_')}-{n}.csv")
            top = max(abs(z) for _, z in _write_vector(path, rng, n, max_abs))
            ops.append({"kind": "norm", "space": key, "vector": path})
            ops.append({"kind": "modular", "space": key, "vector": path,
                        "scales": [s * top for s in MODULAR_SCALES]})
    for key, n, max_abs in LARGE_CURVES:
        path = os.path.join(tmpdir, f"curve-{key.replace('/', '_')}-{n}.csv")
        _write_vector(path, rng, n, max_abs)
        ops.append({"kind": "curve", "space": key, "vector": path})
    return spaces, ops


def _cli(rng, tmpdir):
    vec = os.path.join(tmpdir, "p.csv")
    knots = os.path.join(tmpdir, "knots.csv")
    weights = os.path.join(tmpdir, "w.csv")
    far = os.path.join(tmpdir, "far.csv")
    _write_knots(knots)
    rows = _write_vector(vec, rng, rng.randint(4, 8), 8, decades=(-1.3, 0.0))
    with open(weights, "w") as fh:
        fh.writelines(f"{m},{rng.uniform(0.5, 2.0)!r}\n" for m in rng.sample(range(-8, 9), 5))
    with open(far, "w") as fh:
        fh.write(f"{rng.randint(100, 1000)},{rng.uniform(0.1, 1.0)!r},0\n")
    ratio = 0.7
    env_c = 1.5 * max(abs(z) / ratio ** abs(m) for m, z in rows)
    tab, wtab = f"tab:{knots}", f"table:{weights}:1"
    spaces = {"power:2/1": ["power:2", 1.0, "const:1"],
              "expsq/1.5": ["expsq", 1.5, "const:0.7"],
              "tab/1": [tab, 1.0, wtab],
              "explin/0": ["explin", 0.0, "const:1"],
              "power:1/0.25": ["power:1", 0.25, "const:1"]}
    seed_a, seed_b = rng.randrange(1 << 20), rng.randrange(1 << 20)

    def js(*keys):
        return ["json", sorted(k for group in keys for k in group)]

    empty = ["empty"]
    script = [
        (["norm", "--phi", "power:2", "--k", "1", "--in", vec], 0, js(NORM_KEYS)),
        (["norm", "--phi", "expsq", "--k", "1.5", "--weights", "const:0.7", "--in", vec],
         0, js(NORM_KEYS)),
        (["norm", "--phi", tab, "--k", "1", "--weights", wtab, "--in", vec], 0, js(NORM_KEYS)),
        (["norm", "--phi", "explin", "--in", vec, "--format", "csv"],
         0, ["csv", ",".join(NORM_KEYS)]),
        (["modular", "--phi", "explin", "--in", vec, "--rho", "0.5"], 0, js(("rho", "modular"))),
        (["modular", "--phi", "power:3", "--k", "0.7", "--in", vec, "--rho", "2"],
         0, js(("rho", "modular"))),
        (["classify", "--phi", "power:2", "--in", vec, "--env-c", repr(env_c),
          "--env-r", repr(ratio)], 0, js(CLASSIFY_KEYS)),
        (["classify", "--phi", "expsq", "--env-c", "1", "--env-r", "0.5"], 0, js(CLASSIFY_KEYS)),
        (["classify", "--phi", tab, "--k", "1", "--env-c", "2", "--env-r", "0.6",
          "--format", "csv"], 0, ["csv", "rho,trunc,tail_bound,modular_upper"]),
        (["delta2", "--phi", "power:3"], 0, js(DELTA2_KEYS)),
        (["delta2", "--phi", "expsq", "--depth", "40"], 0, js(DELTA2_KEYS)),
        (["delta2", "--phi", "explin"], 0, js(DELTA2_KEYS)),
        (["dominate", "--phi", "power:2", "--psi", "expsq", "--gamma", "1"], 0, js(DOMINATE_KEYS)),
        (["dominate", "--phi", "power:1", "--psi", "power:2", "--gamma", "1"],
         1, js(DOMINATE_KEYS)),
        (["embed", "--mode", "a", "--phi", "power:2", "--psi", "expsq", "--gamma", "1",
          "--kprime", "1", "--k", "0", "--in", vec], 0, js(EMBED_KEYS, CHECK_KEYS)),
        (["embed", "--mode", "b", "--phi", "power:3", "--psi", "power:2", "--gamma", "1",
          "--t0", "1", "--k", "1", "--weights", "const:0.25"], 0, js(EMBED_KEYS)),
        (["tail-index", "--phi", "expsq", "--kprime", "1", "--k", "0", "--kappa", "1",
          "--epsilon", "0.1"], 0, js(TAIL_KEYS)),
        # linear search over about 160 000 indices
        (["tail-index", "--phi", "power:1", "--kprime", "0.25", "--k", "0", "--kappa", "1",
          "--epsilon", "0.1"], 0, js(TAIL_KEYS)),
        (["tail-index", "--phi", "explin", "--kprime", "2", "--k", "0.5", "--kappa", "1",
          "--epsilon", "0.1"], 0, js(TAIL_KEYS)),
        (["covering", "--phi", "power:2", "--kprime", "1", "--k", "0", "--kappa", "1",
          "--epsilon", "0.5", "--samples", "20", "--seed", str(seed_a), "--max-support", "8"],
         0, js(COVERING_KEYS)),
        (["covering", "--phi", "expsq", "--kprime", "1", "--k", "0", "--kappa", "1",
          "--epsilon", "0.1", "--samples", "20", "--seed", str(seed_b), "--max-support", "24",
          "--format", "csv"], 0, ["csv", "sample,tail_modular,residual"]),
        (["schauder-curve", "--phi", "power:2", "--in", vec, "--format", "csv"],
         0, ["csv", "m,residual"]),
        (["schauder-curve", "--phi", "explin", "--k", "0.5", "--in", vec], 0, js(("points",))),
        (["chain", "--form", "b", "--phi", "power:3", "--psi", "power:2", "--gamma", "1",
          "--t0", "1", "--kprime", "1", "--k", "0.5", "--kappa", "1", "--epsilon", "0.5"],
         0, js(CHAIN_KEYS)),
        (["chain", "--form", "a", "--phi", "power:2", "--psi", "expsq", "--gamma", "1",
          "--kpp", "2", "--kprime", "1", "--k", "0", "--kappa", "1", "--epsilon", "0.5"],
         0, js(CHAIN_KEYS)),
        # error paths, each with its typed exit code and nothing on stdout
        (["norm", "--phi", "expsq", "--k", "1", "--in", far], 3, empty),  # measure overflow
        (["norm", "--phi", "bogus:1", "--in", vec], 2, empty),  # bad descriptor
        (["norm", "--phi", "power:0.5", "--in", vec], 2, empty),  # exponent below 1
        (["classify", "--phi", "power:2", "--in", vec, "--env-c", "1e-3", "--env-r", "0.3"],
         2, empty),  # envelope does not dominate
        (["tail-index", "--phi", "power:2", "--kprime", "0", "--k", "1", "--kappa", "1",
          "--epsilon", "0.1"], 1, empty),  # order precondition
        (["norm", "--phi", "power:2"], 2, empty),  # usage: no --in
    ]
    ops = [{"kind": "cli", "argv": argv, "code": code, "expect": expect}
           for argv, code, expect in script]
    return spaces, ops


def make_spec(workload: str, seed: int, tmpdir: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    build = {"covering": _covering, "large-support": _large_support, "cli": _cli}[workload]
    spaces, ops = build(rng, tmpdir)
    return {"workload": workload, "seed": seed, "spaces": spaces, "ops": ops}


def cli_text(code: int, stdout: str) -> str:
    """The digested output of one CLI invocation: exit code, then stdout verbatim."""
    return f"{code}\n{stdout}"


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\0")
    return h.hexdigest()


def check_cli_output(op, code: int, stdout: str) -> str | None:
    """Exit code and stdout shape of one CLI invocation; None when correct."""
    if code != op["code"]:
        return f"exit code {code}, expected {op['code']}"
    form = op["expect"]
    if form[0] == "empty":
        return None if stdout == "" else "unexpected stdout on an error path"
    if form[0] == "csv":
        lines = stdout.split("\n")
        return None if lines[0] == form[1] and len(lines) > 2 else "bad csv header or rows"
    try:
        keys = sorted(json.loads(stdout))
    except (ValueError, TypeError):
        return "stdout is not one JSON record"
    return None if keys == form[1] else f"json keys {keys}, expected {form[1]}"


def out_of_time(start: float, passes: int, seconds: float) -> bool:
    """True when another pass, as long as the mean so far, would end after `seconds`.

    The first pass always runs.
    """
    if passes == 0:
        return False
    elapsed = time.perf_counter() - start
    return elapsed * (passes + 1) / passes > seconds


def calibrate() -> float:
    """Seconds this host takes for a fixed piece of work that runs no orliczseq code.

    Float arithmetic, complex abs, list appends, an fsum and a sort: the kind
    of interpreter work the library does, so a host slow-down stretches both
    alike.
    """
    t0 = time.perf_counter()
    acc = []
    for i in range(CAL_ROUNDS):
        x = (i % 97) / 31.0
        acc.append(math.exp(-x * x) + abs(complex(x, 1.0)) ** 1.5)
    math.fsum(acc)
    acc.sort()
    return time.perf_counter() - t0


def scale(latency: float, cal_before: float, cal_after: float) -> float:
    """One latency at the reference host speed, by the calibrations around it."""
    return latency * 2.0 * CAL_REF_S / (cal_before + cal_after)


def scaled(latencies, cals) -> list:
    """Each operation's latency at the reference speed, the median over passes.

    ``latencies`` holds one list per pass; ``cals`` one list per pass with a
    calibration before each operation and one after the last.  On a shared
    host the same pass runs up to twice as slow for seconds to minutes at a
    time; the calibrations next to an operation slow down with it, so the
    ratio follows the program's own cost where the raw time follows the
    host's load.
    """
    per_pass = [[scale(t, a, b) for t, a, b in zip(lat, cal, cal[1:])]
                for lat, cal in zip(latencies, cals)]
    return [statistics.median(x) for x in zip(*per_pass)]


def fastest(latencies) -> list:
    """Each operation's fastest latency over the passes (one list per pass).

    The traced run uses it for its unscaled per-layer times: host noise only
    ever adds time, so the minimum over passes is the steadiest raw figure.
    """
    return [min(x) for x in zip(*latencies)]
