"""Embedding certificates between weighted Orlicz sequence spaces and
constructive compactness data for closed balls.

Continuous embeddings come in two modes.  Mode A: a global domination
phi(t) <= psi(gamma*t) with gamma in (0, 1] and orders k' >= k >= 0 gives
||p||_{k,phi} <= gamma * ||p||_{k',psi}.  Mode B: a domination only on
(0, t0] with source order k >= 0 and positive weight infimum embeds into the
order-0 space with constant max(psi^{-1}(1/inf w)/t0, gamma).

Compactness is witnessed constructively: for a closed ball of radius kappa
and a target accuracy epsilon, a finite index m_{eps,kappa} is computed so
that every ball member loses at most epsilon/2 in target norm when truncated
there.  The ball is then covered by a ball in a space of dimension
2*m_{eps,kappa} + 1, which is the certificate a covering argument needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (CertificateError, CertificateRefutedError,
                     CompositionError, DomainError, OrliczSeqError,
                     PreconditionError)
from .functions import (GRID_POINTS_DEFAULT, MAX_GRID_POINTS, GeometricProbe,
                        OrliczFunction, ThetaBound, _PROBE_DEPTH, _probe_grid,
                        _safe_pow, delta2_at_zero, theta_bound)
from .luxemburg import DEFAULT_TOL_REL, _solve, luxemburg_norm, luxemburg_norms
from .spaces import SeqVector, SpaceParams, TermBatch, _scale, measures

GLOBAL_DOMINATION_SPAN = 1e6
_DOMINATION_SLACK = 1.0 + 1e-12
_CHECK_SLACK = 1.0 + 1e-9
_SEARCH_CAP = 10_000_000
MAX_SAMPLE_SUPPORT = 64


@dataclass(frozen=True)
class DominationWitness:
    """Grid evidence for phi(t) <= psi(gamma*t) on (0, t0].

    ``t0 = inf`` means the comparison ran on (0, GLOBAL_DOMINATION_SPAN].
    ``first_violation`` holds the smallest probe refuting the inequality
    when ``holds`` is False.
    """

    phi: OrliczFunction
    psi: OrliczFunction
    gamma: float
    t0: float
    grid_checked: int
    holds: bool
    first_violation: float | None = None


def check_domination(phi: OrliczFunction, psi: OrliczFunction, gamma: float,
                     t0: float = math.inf,
                     grid_points: int = GRID_POINTS_DEFAULT) -> DominationWitness:
    """Probe phi(t) <= psi(gamma*t) on a log-uniform grid over (0, t0].

    A grid cannot prove the inequality, only refute it; the comparison
    carries relative slack 1+1e-12 so exact-equality families are not
    refuted by rounding.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0:
        raise DomainError("gamma must be finite and positive")
    t0 = float(t0)
    if t0 <= 0 or math.isnan(t0):
        raise DomainError("t0 must be positive (inf allowed for global checks)")
    if grid_points < 256:
        raise DomainError("domination grid needs at least 256 points")
    if grid_points > MAX_GRID_POINTS:
        raise DomainError(f"domination grid allows at most {MAX_GRID_POINTS} points")
    span = GLOBAL_DOMINATION_SPAN if math.isinf(t0) else t0
    ts = _probe_grid(span, grid_points, "t0")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        lhs = phi.eval(ts)
        rhs = psi.eval(gamma * ts)
    viol = np.flatnonzero(lhs > rhs * _DOMINATION_SLACK)
    if viol.size:
        return DominationWitness(phi, psi, gamma, t0, grid_points, False,
                                 float(ts[int(viol[0])]))
    return DominationWitness(phi, psi, gamma, t0, grid_points, True)


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Continuous embedding source -> target with operator-norm bound c."""

    mode: str
    c: float
    source: SpaceParams
    target: SpaceParams
    witness: DominationWitness


def embedding_constant(mode: str, witness: DominationWitness,
                       source: SpaceParams, target_k: float,
                       inf_w: float | None = None) -> EmbeddingCertificate:
    """Turn a holding domination witness into an embedding certificate.

    Mode "a" (global): requires t0 = inf, gamma <= 1 and k' >= k >= 0; the
    constant is gamma and the target keeps the source weights and order k.
    Mode "b" (local): requires finite t0, source order k >= 0 and a positive
    weight infimum; the target has order 0 and the constant is
    max(psi^{-1}(1/inf w)/t0, gamma).
    """
    mode = str(mode).lower()
    if mode not in ("a", "b"):
        raise DomainError(f"embedding mode must be 'a' or 'b', got {mode!r}")
    if not witness.holds:
        raise PreconditionError("domination witness does not hold; no certificate")
    if witness.psi.descriptor() != source.phi.descriptor():
        raise PreconditionError("witness upper function differs from the source generator")
    target_k = float(target_k)
    if mode == "a":
        if not math.isinf(witness.t0):
            raise PreconditionError("mode 'a' needs a global witness (t0 = inf)")
        if witness.gamma > 1.0:
            raise PreconditionError("mode 'a' needs gamma in (0, 1]")
        if target_k < 0 or source.k < target_k:
            raise PreconditionError("mode 'a' needs orders k' >= k >= 0")
        target = SpaceParams(target_k, witness.phi, source.weights)
        return EmbeddingCertificate("a", witness.gamma, source, target, witness)
    if math.isinf(witness.t0):
        raise PreconditionError("mode 'b' needs a finite t0")
    if source.k < 0:
        raise PreconditionError("mode 'b' needs source order k >= 0")
    if target_k != 0.0:
        raise PreconditionError("mode 'b' targets the order-0 space")
    inf_w = source.weights.inf_w if inf_w is None else float(inf_w)
    if not math.isfinite(inf_w) or inf_w <= 0:
        raise PreconditionError("mode 'b' needs a positive weight infimum")
    c = max(source.phi.inverse(1.0 / inf_w) / witness.t0, witness.gamma)
    target = SpaceParams(0.0, witness.phi, source.weights)
    return EmbeddingCertificate("b", c, source, target, witness)


@dataclass(frozen=True)
class EmbeddingCheck:
    """One concrete verification ||p||_target <= c * ||p||_source + tol."""

    ok: bool
    target_norm: float
    source_norm: float
    constant: float
    bound: float


def verify_embedding(cert: EmbeddingCertificate, p: SeqVector,
                     tol: float = 1e-9) -> EmbeddingCheck:
    """Check the certified inequality on a concrete vector."""
    if not math.isfinite(tol) or tol < 0:
        raise DomainError("tolerance must be finite and nonnegative")
    n_src = luxemburg_norm(cert.source, p).value
    n_tgt = luxemburg_norm(cert.target, p).value
    bound = cert.c * n_src + tol
    return EmbeddingCheck(n_tgt <= bound, n_tgt, n_src, cert.c, bound)


@dataclass(frozen=True)
class BallTailCertificate:
    """Finite tail index for the closed kappa-ball, at target accuracy epsilon.

    Every p with ||p||_{k',phi,w} <= kappa satisfies
    ||p - truncation(p, m_eps_kappa - 1)||_{k,phi,w} <= epsilon/2, so the
    ball is covered within epsilon by a ball of the (2*m_eps_kappa + 1)-
    dimensional coordinate span.
    """

    kappa: float
    epsilon: float
    theta: float
    bound: ThetaBound
    m1: int
    m2: int
    m_eps_kappa: int
    source: SpaceParams
    target_k: float

    @property
    def target_params(self) -> SpaceParams:
        return SpaceParams(self.target_k, self.source.phi, self.source.weights)

    @property
    def covering_dim(self) -> int:
        return 2 * self.m_eps_kappa + 1


def uniform_tail_index(source: SpaceParams, target_k: float, kappa: float,
                       epsilon: float, t_theta: float = 1.0,
                       probe: GeometricProbe | None = None) -> BallTailCertificate:
    """Compute the uniform truncation index for the closed kappa-ball.

    Requires source order k' strictly above target order k >= 0 and the
    doubling condition at zero for the generator.  With theta = 2*kappa/eps
    and a scaling bound phi(theta*t) <= c_theta*phi(t) on (0, t_theta]
    (t_theta halved automatically until the bound certifies),

      m2 = least n with (1 + phi(n))**(k'-k) >= c_theta,
      m1 = least n with (1/inf w) * (1 + phi(n))**(-k') <= phi(t_theta),

    and m_eps_kappa = max(m1, m2).  The m1 criterion is the monotone
    rewriting of phi^{-1}((1/inf w)*(1+phi(n))**(-k')) <= t_theta; beyond it
    every ball member's entries are small enough for the scaling bound, and
    beyond m2 the measure growth absorbs c_theta, so the tail modular of
    2*(p - truncation)/epsilon stays at most 1.
    """
    kappa = float(kappa)
    epsilon = float(epsilon)
    target_k = float(target_k)
    if not math.isfinite(kappa) or kappa <= 0:
        raise DomainError("kappa must be finite and positive")
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise DomainError("epsilon must be finite and positive")
    if not source.k > target_k:
        raise PreconditionError(
            f"source order {source.k:g} must exceed target order {target_k:g}")
    if target_k < 0:
        raise PreconditionError("target order must be nonnegative")
    phi = source.phi
    d2 = delta2_at_zero(phi, probe)
    if not d2.holds:
        raise PreconditionError(
            "doubling condition at zero fails for the generator; "
            "no uniform tail index exists on this route")

    theta = 2.0 * kappa / epsilon
    tb: ThetaBound | None = None
    tt = float(t_theta)
    if not math.isfinite(tt) or tt <= 0:
        raise DomainError("t_theta must be finite and positive")
    last_err: CertificateError | None = None
    for _ in range(64):
        try:
            tb = theta_bound(phi, theta, tt)
            break
        except CertificateError as exc:
            last_err = exc
            if tt * 0.5 * _PROBE_DEPTH == 0:
                break  # no probe grid below this t_theta
            tt *= 0.5
    if tb is None:
        raise CertificateError(
            f"scaling bound failed down to t_theta={tt:g}: {last_err}")

    gap = source.k - target_k
    inv_w = 1.0 / source.weights.inf_w
    phi_at_tt = phi.eval(tb.t_theta)

    # negated comparisons, so that a nan stops each search
    m2 = _least_index(phi, lambda f: not _safe_pow(1.0 + f, gap) < tb.c_theta,
                      "measure growth did not absorb c_theta at desk scale")
    m1 = _least_index(phi, lambda f: not inv_w * _safe_pow(1.0 + f, -source.k) > phi_at_tt,
                      "ball entries did not enter the scaling window at desk scale")

    return BallTailCertificate(kappa, epsilon, theta, tb, m1, m2,
                               max(m1, m2), source, target_k)


def _least_index(phi: OrliczFunction, holds, message: str) -> int:
    """The least n in [0, _SEARCH_CAP] with holds(phi(n)), else CertificateError.

    phi is evaluated exactly on chunks of consecutive n that grow to at most
    4096 indices, and each n is tested in turn, so no monotonicity is assumed.
    """
    start, size = 0, 8
    while start <= _SEARCH_CAP:
        stop = min(start + size, _SEARCH_CAP + 1)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            values = phi._eval_exact(np.arange(start, stop, dtype=float))
        for n, f in enumerate(values.tolist(), start):
            if holds(f):
                return n
        start, size = stop, min(2 * size, 4096)
    raise CertificateError(message)


def _finite_measure_index(params: SpaceParams, indices) -> dict:
    """Each index m mapped to the first of m, int(m/2), int(int(m/2)/2), ...
    whose measure is finite; the measures are probed in batches."""
    finite = {}
    todo = list(indices)
    while todo:
        _, errors = measures(params, todo)
        finite.update((m, j not in errors) for j, m in enumerate(todo))
        todo = list({int(m / 2) for m in todo if not finite[m]} - finite.keys())
    usable = {}
    for m in indices:
        h = m
        while not finite[h]:
            h = int(h / 2)
        usable[m] = h
    return usable


def sample_ball(source: SpaceParams, kappa: float, seed: int, count: int = 1000,
                max_support: int = MAX_SAMPLE_SUPPORT,
                norm_tol: float = DEFAULT_TOL_REL):
    """Draw deterministic pseudo-random members of the closed kappa-ball.

    Each sample takes a random support (at most 64 indices, magnitudes spread
    dyadically up to max_support), random complex values over several decades,
    and is rescaled to u*kappa/||p|| with u uniform in (0, 1], so the computed
    norm is at most kappa.  Indices whose measure overflows are halved toward
    0 before use, keeping the draw deterministic for a given seed.  All draws
    come first and the radii are solved in one batch afterwards; the solver
    draws nothing, so the samples are those of drawing and solving in turn.
    """
    if int(count) != count or count < 1:
        raise DomainError("sample count must be a positive integer")
    if int(max_support) != max_support or max_support < 1:
        raise DomainError("max_support must be a positive integer")
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0:
        raise DomainError("kappa must be finite and positive")
    rng = random.Random(seed)
    log2_top = math.log2(max_support + 1)
    draws, fractions = [], []
    for _ in range(int(count)):
        n_pts = rng.randint(1, min(MAX_SAMPLE_SUPPORT, 2 * max_support + 1))
        points = []
        for _ in range(n_pts):
            mag = min(max_support, int(2.0 ** rng.uniform(0.0, log2_top)) - 1)
            m = mag if rng.random() < 0.5 else -mag
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * scale
            if z != 0:
                points.append((m, z))
        draws.append(points)
        fractions.append(1.0 - rng.random())
    # halving draws nothing, so it can run after the draws, on all indices at once
    usable = _finite_measure_index(source, {m for points in draws for m, _ in points})
    drawn = []
    for points in draws:
        entries = {}
        for m, z in points:
            entries.setdefault(usable[m], z)
        drawn.append(SeqVector(entries or {0: 1.0 + 0.0j}))
    radii = luxemburg_norms(source, drawn, norm_tol)
    return [p.scaled(u * kappa / r.value) for p, u, r in zip(drawn, fractions, radii)]


@dataclass(frozen=True)
class CoveringReport:
    """Empirical confirmation of a tail certificate on concrete samples."""

    samples: int
    covering_dim: int
    m_eps_kappa: int
    epsilon: float
    kappa: float
    max_tail_modular: float
    max_residual: float
    tail_modulars: tuple = ()
    residuals: tuple = ()


def covering_check(cert: BallTailCertificate, samples,
                   target: SpaceParams | None = None,
                   norm_tol: float = DEFAULT_TOL_REL) -> CoveringReport:
    """Check every sample against the certified truncation residual.

    For each sample the tail beyond m_eps_kappa must have modular at most 1
    at scale epsilon/2 and residual target norm at most epsilon/2 (both with
    relative slack 1+1e-9 for the solver tolerance).  A violation raises
    CertificateRefutedError carrying the offending sample index.  The
    residual norms are solved in one batch; samples are then checked in
    order, so the first failing sample is the one reported.  All tail
    modulars come from one ``TermBatch``; a sample's tail modular error comes
    before its solve error, and both before its refutations.
    """
    expected = cert.target_params
    if target is None:
        target = expected
    if target.space_key() != expected.space_key():
        raise PreconditionError(
            "target parameters do not match the certificate's target space")
    rho = cert.epsilon / 2.0
    cut = cert.m_eps_kappa
    tails = [p.tail(cut) for p in samples]
    solved = _solve(target, tails, norm_tol)
    if any(tails):  # an empty tail has modular 0 at any scale
        rho = _scale(rho)
    tail_mods, errors = TermBatch(target, tails, f"for rho={rho:g}").modulars(rho)
    resids = []
    for i, (tail_mod, res) in enumerate(zip(tail_mods, solved)):
        if i in errors:
            raise errors[i]
        if isinstance(res, OrliczSeqError):
            raise res
        resid = res.value
        resids.append(resid)
        if tail_mod > _CHECK_SLACK:
            raise CertificateRefutedError(
                f"sample {i}: tail modular {tail_mod:.17g} exceeds 1", witness=(i, tail_mod))
        if resid > rho * _CHECK_SLACK:
            raise CertificateRefutedError(
                f"sample {i}: residual {resid:.17g} exceeds epsilon/2", witness=(i, resid))
    return CoveringReport(len(resids), cert.covering_dim, cut, cert.epsilon,
                          cert.kappa, max(tail_mods, default=0.0),
                          max(resids, default=0.0), tuple(tail_mods), tuple(resids))


@dataclass(frozen=True)
class ChainLink:
    """Summary of one factor in a composed embedding."""

    kind: str
    constant: float
    detail: str


@dataclass(frozen=True)
class ChainReport:
    """Composition of two embedding factors sharing the middle space."""

    links: tuple
    constant: float
    compact: bool
    form: str | None


def _endpoints(cert):
    if isinstance(cert, EmbeddingCertificate):
        return cert.source, cert.target
    if isinstance(cert, BallTailCertificate):
        return cert.source, cert.target_params
    raise DomainError(f"cannot chain object of type {type(cert).__name__}")


def chain_embeddings(first, second) -> ChainReport:
    """Compose two certificates through their shared middle space.

    The first factor's target must equal the second factor's source (order,
    generator and weights).  Constants multiply (a compact tail link has
    operator norm at most 1 by order monotonicity) and the composition is
    compact when either factor is.  When the shapes match the two recognized
    patterns - compact order drop then global mode-a embedding, or compact
    order drop then local mode-b embedding - the report names the form
    ("compact+global" or "compact+local").
    """
    mid_out = _endpoints(first)[1]
    mid_in = _endpoints(second)[0]
    if mid_out.space_key() != mid_in.space_key():
        raise CompositionError(
            f"middle spaces differ: {mid_out.space_key()} vs {mid_in.space_key()}")

    links = []
    constant = 1.0
    compact = False
    for cert in (first, second):
        if isinstance(cert, EmbeddingCertificate):
            constant *= cert.c
            links.append(ChainLink("continuous", cert.c,
                                   f"mode {cert.mode}, c={cert.c:.17g}"))
        else:
            compact = True
            links.append(ChainLink(
                "compact", 1.0,
                f"tail index {cert.m_eps_kappa} at kappa={cert.kappa:g}, "
                f"epsilon={cert.epsilon:g}"))

    form = None
    if isinstance(first, BallTailCertificate) and isinstance(second, EmbeddingCertificate):
        form = "compact+global" if second.mode == "a" else "compact+local"
    return ChainReport(tuple(links), constant, compact, form)


__all__ = [
    "DominationWitness", "check_domination", "EmbeddingCertificate",
    "embedding_constant", "EmbeddingCheck", "verify_embedding",
    "BallTailCertificate", "uniform_tail_index", "sample_ball",
    "CoveringReport", "covering_check", "ChainLink", "ChainReport",
    "chain_embeddings", "GLOBAL_DOMINATION_SPAN", "MAX_SAMPLE_SUPPORT",
]
