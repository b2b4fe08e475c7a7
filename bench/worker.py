"""Run one workload's operations in-process: timed passes, traced passes, checks.

Usage: python3 bench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON is written by run.py (see workloads.make_spec) and adds ``seconds``
and ``trace``.  The worker builds the spaces, runs an untimed warm-up pass
whose outputs are checked, then timed passes for ``seconds``.  With
``trace`` set it alternates untraced and traced passes instead.  Every
pass must reproduce the warm-up outputs exactly.  RESULT_JSON receives the
operation latencies of each pass, the results digest, the failures, the peak
resident memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time

import orliczseq as oz
from orliczseq import SeqVector, SpaceParams, cli, modular, parse_orlicz, parse_weights

from tracer import Tracer
from workloads import calibrate, check_cli_output, cli_text, digest, fastest, out_of_time

# tolerances pinned in the acceptance suite
REL_TOL = 1e-9
TIGHT_SCALE = 0.999


def _f(x) -> str:
    return format(float(x), ".17g")


def build_spaces(spec) -> dict:
    return {key: SpaceParams(k, parse_orlicz(phi), parse_weights(w))
            for key, (phi, k, w) in spec["spaces"].items()}


def load_inputs(spec) -> dict:
    """Sequence files read once, before any timing."""
    return {op["vector"]: SeqVector.from_csv(op["vector"])
            for op in spec["ops"] if "vector" in op}


# -- operations: each returns its raw output -----------------------------
# Library calls go through the package namespace, which the tracer rebinds.
def _run_covering(op, spaces, vectors):
    source = spaces[op["space"]]
    cert = oz.uniform_tail_index(source, op["target_k"], op["kappa"], op["epsilon"])
    samples = oz.sample_ball(source, op["kappa"], seed=op["seed"], count=op["count"],
                             max_support=op["max_support"])
    return cert, samples, oz.covering_check(cert, samples)


def _run_norm(op, spaces, vectors):
    return oz.luxemburg_norm(spaces[op["space"]], vectors[op["vector"]])


def _run_modular(op, spaces, vectors):
    params, p = spaces[op["space"]], vectors[op["vector"]]
    return [oz.modular(params, p, rho) for rho in op["scales"]]


def _run_curve(op, spaces, vectors):
    return oz.schauder_curve(spaces[op["space"]], vectors[op["vector"]])


def _run_cli(op, spaces, vectors):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(op["argv"])
    return code, out.getvalue()


RUN = {"covering": _run_covering, "norm": _run_norm, "modular": _run_modular,
       "curve": _run_curve, "cli": _run_cli}


# -- output text for the digest ------------------------------------------
def render(op, out) -> str:
    kind = op["kind"]
    if kind == "covering":
        cert, samples, rep = out
        head = [cert.m_eps_kappa, cert.m1, cert.m2, _f(cert.bound.c_theta),
                _f(cert.bound.t_theta), rep.samples, _f(rep.max_residual),
                _f(rep.max_tail_modular)]
        body = [f"{m}:{_f(v.real)}:{_f(v.imag)}" for p in samples for m, v in p.items]
        return " ".join(map(str, head + [_f(x) for x in rep.residuals]
                            + [_f(x) for x in rep.tail_modulars] + body))
    if kind == "norm":
        return " ".join([_f(out.value), _f(out.bracket[0]), _f(out.bracket[1]),
                         _f(out.modular_at_value), str(out.iterations)])
    if kind == "modular":
        return " ".join(map(_f, out))
    if kind == "curve":
        return " ".join(f"{m}:{_f(r)}" for m, r in out)
    return cli_text(*out)


# -- output checks --------------------------------------------------------
def _norm_error(params, p, value) -> str | None:
    """The acceptance suite's checks of a solved norm: feasible and tight."""
    if modular(params, p, value) > 1.0 + REL_TOL:
        return f"modular above 1 at the norm {value!r}"
    if not modular(params, p, TIGHT_SCALE * value) > 1.0:
        return f"norm {value!r} not tight: modular at {TIGHT_SCALE}*norm is at most 1"
    return None


def _power_closed_form(params, p):
    s, k, w = params.phi.s, params.k, params.weights.weight
    total = math.fsum(w(m) * (1.0 + abs(m) ** s) ** k * abs(v) ** s for m, v in p.items)
    return total, s


def check(op, out, spaces, vectors) -> str | None:
    """Correctness of one operation's output; None when correct."""
    kind = op["kind"]
    if kind == "cli":
        return check_cli_output(op, *out)
    params = spaces[op["space"]]
    if kind == "covering":
        cert, samples, rep = out
        target = cert.target_params
        if rep.samples != op["count"]:
            return "sample count"
        if rep.max_residual > op["epsilon"] / 2.0 * (1.0 + REL_TOL):
            return f"max residual {rep.max_residual!r} above epsilon/2"
        for p, resid in zip(samples, rep.residuals):
            why = resid > 0 and _norm_error(target, p.tail(cert.m_eps_kappa), resid)
            if why:
                return why
        return None
    p = vectors[op["vector"]]
    if kind == "norm":
        why = _norm_error(params, p, out.value)
        if why:
            return why
        if params.phi.descriptor().startswith("power:"):
            total, s = _power_closed_form(params, p)
            want = total ** (1.0 / s)
            if abs(out.value - want) > REL_TOL * want:
                return f"power norm {out.value!r} vs closed form {want!r}"
        return None
    if kind == "modular":
        scales = op["scales"]
        if not all(math.isfinite(v) and v >= 0 for v in out):
            return "modular not finite and nonnegative"
        # convexity with phi(0) = 0: modular(c*rho) <= modular(rho)/c for c >= 1
        for (r0, v0), (r1, v1) in zip(zip(scales, out), zip(scales[1:], out[1:])):
            if v1 > v0 * r0 / r1 * (1.0 + REL_TOL):
                return "modular violates the convexity bound"
        if params.phi.descriptor().startswith("power:"):
            total, s = _power_closed_form(params, p)
            for rho, v in zip(scales, out):
                want = total / rho ** s
                if abs(v - want) > REL_TOL * want:
                    return f"power modular {v!r} vs closed form {want!r}"
        return None
    # curve
    residuals = [r for _, r in out]
    if [m for m, _ in out] != list(range(p.max_abs_index + 1)):
        return "curve cuts"
    for a, b in zip(residuals, residuals[1:]):
        if b > a * (1.0 + REL_TOL) + 1e-15:
            return "curve increases"
    if residuals[-1] != 0.0:
        return "curve does not end at 0"
    for m_cut, resid in out:
        why = resid > 0 and _norm_error(params, p.tail(m_cut + 1), resid)
        if why:
            return why
    return None


# -- passes ---------------------------------------------------------------
def run_pass(ops, spaces, vectors):
    """One pass over the operations: (latencies, outputs, errors, calibrations).

    A calibration runs before each operation and after the last one.
    """
    lat, outs, errors, cals = [], [], [], []
    for op in ops:
        cals.append(calibrate())
        t0 = time.perf_counter()
        try:
            outs.append(RUN[op["kind"]](op, spaces, vectors))
            errors.append(None)
        except Exception as exc:  # any raise is a failed operation, reported by name
            outs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        lat.append(time.perf_counter() - t0)
    cals.append(calibrate())
    return lat, outs, errors, cals


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    ops, seconds, trace = spec["ops"], spec["seconds"], spec["trace"]
    spaces = build_spaces(spec)
    vectors = load_inputs(spec)
    tally = {"attempted": 0, "failed": 0, "failures": []}

    def fail(i, why):
        tally["failed"] += 1
        if len(tally["failures"]) < 20:
            tally["failures"].append(f"op {i} {ops[i]['kind']}: {why}")

    def text(op, out, err):
        return render(op, out) if err is None else f"error {err}"

    # warm-up pass: its outputs are checked and are the reference for later passes
    _, outs, errors, _ = run_pass(ops, spaces, vectors)
    reference = [text(*t) for t in zip(ops, outs, errors)]
    tally["attempted"] += len(ops)
    for i, (op, out, err) in enumerate(zip(ops, outs, errors)):
        why = err or check(op, out, spaces, vectors)
        if why:
            fail(i, why)

    def replay(pass_outs, pass_errors):
        tally["attempted"] += len(ops)
        for i, t in enumerate(zip(ops, pass_outs, pass_errors)):
            if text(*t) != reference[i]:
                fail(i, "output differs from the warm-up pass")

    result = {"digest": digest(reference), "latencies": [], "cals": []}
    traced, layer_runs = [], []
    start = time.perf_counter()
    while not out_of_time(start, len(result["latencies"]), seconds):
        lat, outs, errors, cals = run_pass(ops, spaces, vectors)
        replay(outs, errors)
        result["latencies"].append(lat)
        result["cals"].append(cals)
        if trace:
            with Tracer() as tracer:
                lat, outs, errors, _ = run_pass(ops, spaces, vectors)
            replay(outs, errors)
            traced.append(lat)
            layer_runs.append(tracer.metrics())
            del tracer

    if trace:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layer_runs]
        if any(c != counts[0] for c in counts):
            tally["failed"] += 1
            tally["failures"].append("work counts differ between traced passes")
        # layer times at their fastest traced pass, unscaled
        layers = {k: min(m[k] for m in layer_runs) for k in layer_runs[0]}
        layers["trace.overhead_s"] = (math.fsum(fastest(traced))
                                      - math.fsum(fastest(result["latencies"])))
        result["layers"] = layers
    result.update(tally)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
