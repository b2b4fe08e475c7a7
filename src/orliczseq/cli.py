"""Command-line interface.

Subcommands mirror the library operations: norm, modular, classify, delta2,
dominate, embed, tail-index, covering, schauder-curve, chain.  Output is one
structured record (json) or a table (csv) on stdout, floats printed with 17
significant digits so values round-trip exactly.  Identical invocations
produce byte-identical output; the only randomness is the explicit --seed.

Exit codes: 0 success, 1 check failure (a witness or verification that does
not hold), 2 usage or parse error, 3 numeric failure (overflow, certificate
breakdown).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from operator import attrgetter

from .embeddings import (BallTailCertificate, EmbeddingCertificate,
                         chain_embeddings, check_domination, covering_check,
                         embedding_constant, sample_ball, uniform_tail_index,
                         verify_embedding)
from .errors import (CertificateError, CertificateRefutedError,
                     CompositionError, ComputationOverflowError, DomainError,
                     PreconditionError)
from .functions import GeometricProbe, delta2_at_zero, parse_orlicz
from .luxemburg import DEFAULT_TOL_REL, luxemburg_norm, schauder_curve
from .spaces import (GeometricEnvelope, SeqVector, SpaceParams,
                     WeightSequence, classify, modular, parse_weights)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dump_json(obj) -> str:
    """Minimal JSON emitter with deterministic key order and .17g floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{dump_json(str(k))}: {dump_json(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _emit(args, record: dict, csv_header=None, csv_rows=None) -> None:
    if args.format == "json":
        sys.stdout.write(dump_json(record) + "\n")
        return
    if csv_rows is None:
        scalars = {k: v for k, v in record.items() if not isinstance(v, (list, tuple, dict))}
        csv_header = list(scalars.keys())
        csv_rows = [list(scalars.values())]
    sys.stdout.write(_csv_text(csv_header, csv_rows))


def _fields(obj, names: str) -> dict:
    """Output record of ``obj``'s named attributes, in order; ``a.b`` is keyed ``b``."""
    return {name.rpartition(".")[2]: attrgetter(name)(obj) for name in names.split()}


def _weights(args) -> WeightSequence:
    return parse_weights(args.weights, inf_override=args.inf_w)


def _space_from(args, k: float) -> SpaceParams:
    phi = parse_orlicz(args.phi)
    return SpaceParams(k, phi, _weights(args))


def _pair_from(args, mode: str, label: str) -> tuple:
    """(phi, psi, weights, window end): the window is global for a, a finite --t0 for b."""
    pair = (parse_orlicz(args.phi), parse_orlicz(args.psi), _weights(args))
    if mode == "a":
        return pair + (math.inf,)
    if args.t0 is None or math.isinf(args.t0):
        raise DomainError(f"{label} b needs a finite --t0")
    return pair + (args.t0,)


def _ball_certificate(args, source: SpaceParams, target_k: float) -> BallTailCertificate:
    """Uniform tail index of the --kappa ball of ``source`` in order target_k."""
    return uniform_tail_index(source, target_k, args.kappa, args.epsilon, args.t_theta)


def _embedding(args, pair, mode, source_k, target_k, record: dict,
               fields: str) -> EmbeddingCertificate | None:
    """Witness to certificate: probe phi(t) <= psi(gamma*t) on (0, t0] and add
    the witness ``fields`` to ``record``; if it holds, certify (source_k, psi,
    weights) -> order target_k, else emit ``record`` and give None.
    """
    phi, psi, weights, t0 = pair
    witness = check_domination(phi, psi, args.gamma, t0, args.grid_points)
    record |= _fields(witness, fields)
    if not witness.holds:
        _emit(args, record)
        return None
    return embedding_constant(mode, witness, SpaceParams(source_k, psi, weights), target_k)


def _cmd_norm(args) -> int:
    res = luxemburg_norm(_space_from(args, args.k), SeqVector.from_csv(args.infile), args.tol)
    rho_low, rho_high = res.bracket
    _emit(args, {"value": res.value, "rho_low": rho_low, "rho_high": rho_high,
                 **_fields(res, "modular_at_value iterations")})
    return EXIT_OK


def _cmd_modular(args) -> int:
    params = _space_from(args, args.k)
    value = modular(params, SeqVector.from_csv(args.infile), args.rho)
    _emit(args, {"rho": args.rho, "modular": value})
    return EXIT_OK


def _cmd_classify(args) -> int:
    params = _space_from(args, args.k)
    p = SeqVector.from_csv(args.infile) if args.infile else SeqVector()
    envelope = None
    if args.env_c is not None or args.env_r is not None:
        if args.env_c is None or args.env_r is None:
            raise DomainError("an envelope needs both --env-c and --env-r")
        envelope = GeometricEnvelope(args.env_c, args.env_r, args.env_from)
    elif args.infile is None:
        raise DomainError("classify needs --in and/or an envelope (--env-c/--env-r)")
    report = classify(params, p, envelope)
    record = _fields(report, "in_class in_large in_small large_witness_rho note")
    record["certificates"] = [_fields(c, "rho trunc tail_bound modular_upper")
                              for c in report.certificates]
    rows = [list(c.values()) for c in record["certificates"]]
    _emit(args, record, ("rho", "trunc", "tail_bound", "modular_upper"), rows)
    return EXIT_OK


def _cmd_delta2(args) -> int:
    rep = delta2_at_zero(parse_orlicz(args.phi), GeometricProbe(args.t_start, args.depth))
    _emit(args, _fields(rep, "limsup_estimate sup_ratio holds probes_used truncated"))
    return EXIT_OK


def _cmd_dominate(args) -> int:
    phi = parse_orlicz(args.phi)
    psi = parse_orlicz(args.psi)
    w = check_domination(phi, psi, args.gamma, args.t0, args.grid_points)
    _emit(args, _fields(w, "holds gamma t0 grid_checked first_violation"))
    return EXIT_OK if w.holds else EXIT_CHECK_FAILED


def _cmd_embed(args) -> int:
    pair = _pair_from(args, args.mode, "mode")
    if args.mode == "a":
        orders = (args.kprime if args.kprime is not None else args.k, args.k)
    else:
        orders = (args.k, 0.0)
    record = {"mode": args.mode}
    cert = _embedding(args, pair, args.mode, *orders, record, "holds gamma t0 first_violation")
    if cert is None:
        return EXIT_CHECK_FAILED
    record |= {"c": cert.c, "source_k": cert.source.k, "target_k": cert.target.k}
    code = EXIT_OK
    if args.infile is not None:
        check = verify_embedding(cert, SeqVector.from_csv(args.infile), args.tol)
        record |= _fields(check, "target_norm source_norm bound ok")
        if not check.ok:
            code = EXIT_CHECK_FAILED
    _emit(args, record)
    return code


def _cmd_tail_index(args) -> int:
    cert = _ball_certificate(args, _space_from(args, args.kprime), args.k)
    _emit(args, _fields(cert, "m_eps_kappa m1 m2 theta bound.c_theta bound.t_theta "
                              "covering_dim"))
    return EXIT_OK


def _cmd_covering(args) -> int:
    cert = _ball_certificate(args, _space_from(args, args.kprime), args.k)
    samples = sample_ball(cert.source, args.kappa, args.seed, args.samples,
                          args.max_support, args.tol)
    report = covering_check(cert, samples, norm_tol=args.tol)
    record = _fields(report, "samples covering_dim m_eps_kappa epsilon kappa "
                             "max_tail_modular max_residual")
    rows = [(i, tm, rs) for i, (tm, rs)
            in enumerate(zip(report.tail_modulars, report.residuals))]
    _emit(args, record, ("sample", "tail_modular", "residual"), rows)
    return EXIT_OK


def _cmd_schauder_curve(args) -> int:
    curve = schauder_curve(_space_from(args, args.k), SeqVector.from_csv(args.infile), args.tol)
    record = {"points": [{"m": m, "residual": r} for m, r in curve]}
    _emit(args, record, ("m", "residual"), curve)
    return EXIT_OK


def _cmd_chain(args) -> int:
    pair = _pair_from(args, args.form, "form")
    if args.form == "a" and args.kpp is None:
        raise DomainError("form a needs --kpp (outer source order)")
    # compact link k0 -> k1, then continuous link k1 -> k2
    if args.form == "a":
        k0, k1, k2 = args.kpp, args.kprime, args.k
    else:
        k0, k1, k2 = args.kprime, args.k, 0.0
    psi, weights = pair[1:3]
    compact = _ball_certificate(args, SpaceParams(k0, psi, weights), k1)
    cont = _embedding(args, pair, args.form, k1, k2, {}, "holds first_violation")
    if cont is None:
        return EXIT_CHECK_FAILED
    report = chain_embeddings(compact, cont)
    _emit(args, _fields(report, "constant compact form") | {
        "links": [_fields(link, "kind constant detail") for link in report.links]})
    return EXIT_OK


def _weight_flags(sp) -> None:
    sp.add_argument("--weights", default="const:1",
                    help="weight descriptor: const:<w> or table:<csv>[:<default>]")
    sp.add_argument("--inf-w", dest="inf_w", type=float, default=None,
                    help="certified weight infimum overriding the listed minimum")


def _phi_flag(sp) -> None:
    sp.add_argument("--phi", required=True, help="generator descriptor, e.g. power:2, expsq")


def _space_flags(sp) -> None:
    """Space group: one weighted space."""
    sp.add_argument("--k", type=float, default=0.0, help="space order k")
    _phi_flag(sp)
    _weight_flags(sp)


def _vector_flag(sp, required=True, text="sequence CSV (m,re,im rows)") -> None:
    sp.add_argument("--in", dest="infile", required=required, default=None, help=text)


def _pair_flags(sp, t0_default=None) -> None:
    """Pair group: phi(t) <= psi(gamma*t) on (0, t0], probed on a grid."""
    sp.add_argument("--phi", required=True, help="dominated (target) generator")
    sp.add_argument("--psi", required=True, help="dominating (source) generator")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--t0", type=float, default=t0_default, help="domination window end")
    sp.add_argument("--grid-points", dest="grid_points", type=int, default=4096)


def _ball_flags(sp) -> None:
    """Ball group: the kappa-ball of order k' and the accuracy epsilon in order k."""
    sp.add_argument("--kprime", type=float, required=True,
                    help="source order k' (chain form a: middle order)")
    sp.add_argument("--k", type=float, required=True, help="target order k < k'")
    _weight_flags(sp)
    sp.add_argument("--kappa", type=float, required=True, help="ball radius")
    sp.add_argument("--epsilon", type=float, required=True, help="target accuracy")
    sp.add_argument("--t-theta", dest="t_theta", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orliczseq",
        description="Weighted Orlicz sequence spaces: norms, modulars, "
                    "embedding and compactness certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *groups):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        for group in groups:
            group(sp)
        return sp

    sp = command("norm", _cmd_norm, "Luxemburg norm of a sequence CSV",
                 _space_flags, _vector_flag)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL_REL)

    sp = command("modular", _cmd_modular, "weighted modular at a given scale",
                 _space_flags, _vector_flag)
    sp.add_argument("--rho", type=float, required=True)

    sp = command("classify", _cmd_classify, "membership in the class and the large/small spaces",
                 _space_flags)
    _vector_flag(sp, required=False)
    sp.add_argument("--env-c", dest="env_c", type=float, default=None,
                    help="envelope amplitude C with |p_m| <= C*r^|m|")
    sp.add_argument("--env-r", dest="env_r", type=float, default=None,
                    help="envelope ratio r in (0,1)")
    sp.add_argument("--env-from", dest="env_from", type=int, default=0,
                    help="least truncation index of the tail bound")

    sp = command("delta2", _cmd_delta2, "doubling-condition probe at zero", _phi_flag)
    sp.add_argument("--t-start", dest="t_start", type=float, default=1.0)
    sp.add_argument("--depth", type=int, default=60)

    sp = command("dominate", _cmd_dominate, "probe phi(t) <= psi(gamma*t) on (0, t0]")
    _pair_flags(sp, t0_default=math.inf)

    sp = command("embed", _cmd_embed, "continuous embedding certificate (modes a/b)")
    sp.add_argument("--mode", choices=("a", "b"), required=True)
    _pair_flags(sp)
    sp.add_argument("--k", type=float, default=0.0,
                    help="target order (mode a) or source order (mode b)")
    sp.add_argument("--kprime", type=float, default=None, help="source order (mode a)")
    _weight_flags(sp)
    _vector_flag(sp, required=False, text="optionally verify the inequality on this sequence")
    sp.add_argument("--tol", type=float, default=1e-9)

    command("tail-index", _cmd_tail_index, "uniform ball truncation index",
            _phi_flag, _ball_flags)

    sp = command("covering", _cmd_covering, "sample the ball and check the tail certificate",
                 _phi_flag, _ball_flags)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-support", dest="max_support", type=int, default=64)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL_REL)

    sp = command("schauder-curve", _cmd_schauder_curve, "truncation residual norms",
                 _space_flags, _vector_flag)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL_REL)

    sp = command("chain", _cmd_chain, "compose a compact link with a continuous one")
    sp.add_argument("--form", choices=("a", "b"), required=True)
    _pair_flags(sp)
    sp.add_argument("--kpp", type=float, default=None, help="outer source order k'' (form a)")
    _ball_flags(sp)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, CompositionError, CertificateRefutedError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ComputationOverflowError, CertificateError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
