"""Luxemburg norms of finitely supported sequences, solved in batches.

The norm is inf{rho > 0 : modular(p, rho) <= 1}.  For a finite support the
modular is continuous and strictly decreasing in rho wherever positive, so
the infimum is attained and bracketed bisection resolves it.

``luxemburg_norms`` solves a batch of vectors in one pass and
``luxemburg_norm`` is a batch of one.  The terms come from one
``spaces.TermBatch``, the padded arrays of |p_m| and mu(m) that ``modular``
and ``covering_check`` sum as well, and phi^{-1}(1/mu(m)) from one call of
``phi.inverses`` on the distinct values of 1/mu(m).  Each of its targets
takes the path of a scalar bisection, so a root does not depend on the
batch it is solved in.

Each row is bracketed on its own.  The lower bracket comes from single-term
necessity: each term alone forces mu(m) * phi(|p_m|/rho) <= 1, i.e.
rho >= |p_m| / phi^{-1}(1/mu(m)).  At or above the largest such rho every
individual term is at most 1, so no modular evaluation inside the bracket
can overflow.  The upper bracket doubles from there, and
``functions._bisect``, which the generic inverse runs as well, halves the
bracket to relative width tol_rel.  The rho_low check, the doubling and
the bisection each run in lock-step across the rows: a step evaluates phi
once, on the rows still open, and every row keeps its own bracket, step
count and stopping test.

Summation decision rule.  Each step asks, per row, whether the correctly
rounded modular math.fsum(terms) is at most 1.  The row's np.sum s answers
that unless it lies within its rounding-error bound of 1.  For n terms
summed in any order, |s - sum(terms)| <= gamma_{n-1} * sum|terms| with
gamma_j = j*u / (1 - j*u) and u = 2**-53 (Higham, *Accuracy and Stability of
Numerical Algorithms*, section 4.2).  s is trusted when

    |s - 1| > gamma_{n-1} * sum|terms| + 2**-52,

where sum|terms| is bounded above by its own computed sum over
(1 - gamma_{n-1}), and the 2**-52 covers fsum's final rounding (an exact
sum in (1, 1 + 2**-53] rounds to 1.0).  Otherwise that row falls back to
math.fsum.  Every decision therefore equals the fsum decision, and so does
every bracket, step count and value.  The returned value is the smallest
scale found with modular <= 1, and ``modular_at_value`` is the fsum there:
the correctly rounded sum of the computed terms is at most 1 at the
reported value.  Each term carries its own rounding, so the modular in exact
arithmetic can exceed 1 by a few units in the last place.

A row that fails does not stop the others.  The batch then raises the error
of the lowest failing row, the one a loop over the vectors would meet first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationOverflowError, DomainError, OrliczSeqError
from .functions import _MAX_DOUBLINGS, _bisect
from .spaces import SeqVector, SpaceParams, TermBatch

DEFAULT_TOL_REL = 1e-12
_MAX_BISECTIONS = 4000
_U = 2.0 ** -53
_FSUM_ROUNDING = 2.0 ** -52
_WHERE = "during norm solve"


@dataclass(frozen=True)
class NormResult:
    """Solved norm with its final bracket and diagnostic counters.

    ``value`` is the upper bracket end (smallest scale observed with modular
    at most 1); ``bracket`` is (rho_low, rho_high) with modular > 1 strictly
    below and <= 1 at the top; ``modular_at_value`` is the modular evaluated
    at ``value``; ``iterations`` counts bisection steps.
    """

    value: float
    bracket: tuple
    modular_at_value: float
    iterations: int


_ZERO_NORM = NormResult(0.0, (0.0, 0.0), 0.0, 0)
_NOT_REPRESENTABLE = ("norm bracket not representable: measure weights underflowed "
                      "or single-term scale overflowed double range")


def _sum_slack(n: np.ndarray) -> np.ndarray:
    """Bound factor on |np.sum - exact sum| per unit of computed sum|terms|.

    gamma_{n-1} bounds the error relative to the exact sum|terms|, which is
    itself at most its computed value over (1 - gamma_{n-1}).
    """
    gamma = (n - 1) * _U / (1.0 - (n - 1) * _U)
    return gamma / (1.0 - gamma)


def _at_most_one(terms: np.ndarray, n: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """math.fsum(row[:n]) <= 1 for each row of terms, from np.sum where it decides.

    Entries past n in a row must be 0; ``slack`` is ``_sum_slack(n)``.
    """
    s = terms.sum(axis=1)
    ok = s <= 1.0
    # s is trusted unless |s - 1| <= bound; a nan or inf s is not, and its
    # fsum gives the same answer
    near = np.abs(s - 1.0) <= slack * np.abs(terms).sum(axis=1) + _FSUM_ROUNDING
    if near.any():
        for j in np.flatnonzero(near):
            ok[j] = math.fsum(terms[j, :n[j]].tolist()) <= 1.0
    return ok


class _Batch(TermBatch):
    """The term batch of a solve, with each row's lower bracket ``rho_low``."""

    def __init__(self, params: SpaceParams, vecs):
        super().__init__(params, vecs, _WHERE)
        # phi^{-1}(1/mu(m)) in one call, once per distinct measure; 0 marks an
        # underflowed measure or padding, whose term never binds
        scale = np.zeros(self.mus.shape)
        solvable = self.mus != 0.0
        targets, which = np.unique(1.0 / self.mus[solvable], return_inverse=True)
        roots, failed = self.phi.inverses(targets)
        scale[solvable] = roots[which]
        ratio = np.divide(self.avals, scale, out=np.zeros(scale.shape), where=scale > 0.0)
        self.rho_low = ratio.max(axis=1, initial=0.0)
        if failed:
            # a row fails on its first entry without an inverse, and has no bracket
            target = np.full(scale.shape, -1)
            target[solvable] = which
            for r, c in zip(*np.nonzero(np.isin(target, list(failed)))):
                self.fail(r, failed[int(target[r, c])])
                self.rho_low[r] = math.nan
        self.slack = _sum_slack(self.n)


# overflow, underflow and inf * 0 surface as typed errors naming the index
@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _solve(params: SpaceParams, vecs, tol_rel: float) -> list:
    """The NormResult, or the typed error, of each vector in ``vecs``."""
    tol_rel = float(tol_rel)
    if not math.isfinite(tol_rel) or tol_rel <= 0:
        raise DomainError("tol_rel must be finite and positive")
    batch = _Batch(params, vecs)
    columns = (batch.avals, batch.mus, batch.n, batch.slack)

    def above(rho, rows, avals, mus, n, slack):
        """Per row whether modular > 1 (the norm lies above rho), and the overflowed rows."""
        terms, lost = batch.terms(rows, avals, mus, rho)
        return ~_at_most_one(terms, n, slack), lost

    def probe(rows, rho):
        """``rows`` with modular <= 1 at rho, and the rest (overflowed rows in neither)."""
        up, lost = above(rho, rows, *(x[rows] for x in columns))
        if lost is not None:
            rows, up = rows[~lost], up[~lost]
        return rows[~up], rows[up]

    def fail(rows, message: str) -> None:
        for r in rows.tolist():
            batch.fail(r, ComputationOverflowError(message))

    rho_low = batch.rho_low
    lo, hi = rho_low.copy(), rho_low.copy()
    iters = np.zeros(rho_low.size, dtype=np.int64)
    valid = (rho_low > 0.0) & np.isfinite(rho_low)
    fail(np.flatnonzero(~valid), _NOT_REPRESENTABLE)

    # rho_low itself may already satisfy the modular
    closed, live = probe(np.flatnonzero(valid), rho_low[valid])
    done = [closed]

    # double the upper end until the modular drops to at most 1
    doubled = []
    for _ in range(_MAX_DOUBLINGS):
        if not live.size:
            break
        lo[live] = hi[live]
        hi[live] *= 2.0
        blown = np.isinf(hi[live])
        if blown.any():
            fail(live[blown], "upper norm bracket overflowed double range")
            live = live[~blown]
        closed, live = probe(live, hi[live])
        doubled.append(closed)
    else:
        fail(live, "norm bracket did not close after doubling")

    # bisect every closed bracket; a row that overflows is dropped
    live = np.sort(np.concatenate(doubled)) if doubled else live[:0]
    lo[live], hi[live], iters[live] = _bisect(
        lo[live], hi[live], iters[live], tol_rel, _MAX_BISECTIONS, above,
        (live, *(x[live] for x in columns)))
    done.append(live)

    out = [_ZERO_NORM if not p else None for p in vecs]
    fin = np.sort(np.concatenate(done))
    fin = fin[np.array([batch.pos[r] not in batch.errors for r in fin.tolist()], dtype=bool)]
    terms, _ = batch.terms(fin, batch.avals[fin], batch.mus[fin], hi[fin])
    for r, at_value in zip(fin.tolist(), batch.sums(fin, terms)):
        out[batch.pos[r]] = NormResult(float(hi[r]), (float(lo[r]), float(hi[r])),
                                       at_value, int(iters[r]))
    for i, exc in batch.errors.items():
        out[i] = exc
    return out


def luxemburg_norms(params: SpaceParams, vecs,
                    tol_rel: float = DEFAULT_TOL_REL) -> list:
    """Solve the Luxemburg norms of a batch of vectors to relative width tol_rel.

    Returns one NormResult per vector, in order, each equal to what
    ``luxemburg_norm`` returns for that vector alone.  If any vector fails,
    the error of the first failing vector is raised.
    """
    out = _solve(params, list(vecs), tol_rel)
    for res in out:
        if isinstance(res, OrliczSeqError):
            raise res
    return out


def luxemburg_norm(params: SpaceParams, p: SeqVector,
                   tol_rel: float = DEFAULT_TOL_REL) -> NormResult:
    """Solve the Luxemburg norm to relative bracket width tol_rel (a batch of one)."""
    return luxemburg_norms(params, [p], tol_rel)[0]


@dataclass(frozen=True)
class AxiomReport:
    """Norm-axiom spot check on concrete vectors at a given tolerance."""

    homogeneity_ok: bool
    triangle_ok: bool
    definiteness_ok: bool
    norm_p: float
    norm_q: float
    norm_sum: float
    norm_scaled: float
    scale: complex

    @property
    def all_ok(self) -> bool:
        return self.homogeneity_ok and self.triangle_ok and self.definiteness_ok


def verify_norm_axioms(params: SpaceParams, p: SeqVector, q: SeqVector,
                       lam: complex, tol: float = 1e-9) -> AxiomReport:
    """Check absolute homogeneity, the triangle inequality and definiteness.

    Comparisons carry the relative slack tol*max(1, scale of the quantities);
    failures are report entries, never exceptions.
    """
    if not math.isfinite(tol) or tol <= 0:
        raise DomainError("tolerance must be finite and positive")
    lam = complex(lam)
    n_p, n_q, n_sum, n_scaled = (r.value for r in luxemburg_norms(
        params, [p, q, p + q, p.scaled(lam)]))
    target = abs(lam) * n_p
    hom_ok = abs(n_scaled - target) <= tol * max(1.0, target)
    tri_ok = n_sum <= n_p + n_q + tol * max(1.0, n_p + n_q)
    def_ok = ((n_p == 0.0) == (len(p) == 0)) and ((n_q == 0.0) == (len(q) == 0))
    return AxiomReport(hom_ok, tri_ok, def_ok, n_p, n_q, n_sum, n_scaled, lam)


def schauder_truncate(p: SeqVector, max_abs: int) -> SeqVector:
    """Partial sum keeping indices with |m| <= max_abs."""
    if int(max_abs) != max_abs or max_abs < 0:
        raise DomainError("truncation index must be a nonnegative integer")
    return p.restrict(int(max_abs))


def schauder_curve(params: SpaceParams, p: SeqVector,
                   tol_rel: float = DEFAULT_TOL_REL):
    """Residual norms ||p - truncation(p, M)|| for M = 0 .. max support index.

    The curve is nonincreasing and its last entry is exactly 0 (the final
    truncation keeps the whole support).  The empty sequence yields [(0, 0)].
    All tails are solved in one batch, so mu and the single-term inverse run
    once per support index rather than once per tail.
    """
    if not p:
        return [(0, 0.0)]
    cuts = range(p.max_abs_index + 1)
    tails = luxemburg_norms(params, [p.tail(m_cut + 1) for m_cut in cuts], tol_rel)
    return [(m_cut, r.value) for m_cut, r in zip(cuts, tails)]


__all__ = ["NormResult", "luxemburg_norm", "luxemburg_norms", "AxiomReport",
           "verify_norm_axioms", "schauder_truncate", "schauder_curve",
           "DEFAULT_TOL_REL"]
