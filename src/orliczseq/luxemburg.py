"""Luxemburg norms of finitely supported sequences, solved in batches.

The norm is inf{rho > 0 : modular(p, rho) <= 1}.  For a finite support the
modular is continuous and strictly decreasing in rho wherever positive, so
the infimum is attained and bracketed bisection resolves it.

``luxemburg_norms`` solves a batch of vectors in one pass and
``luxemburg_norm`` is a batch of one.  The solver takes a
``spaces.TermBatch``, the padded arrays of |p_m| and mu(m) that
``covering_check`` also takes its tail modulars from, and gets every term
and its final modulars from it; phi^{-1}(1/mu(m)) comes from one call of
``phi.inverses`` on the distinct values of 1/mu(m).  Each of its targets
takes the path of a scalar bisection, so a root does not depend on the
batch it is solved in; the generic inverse remembers the roots it found, so
later solves in the same space bisect only measures it has not met.

Each row is bracketed on its own.  The lower bracket comes from single-term
necessity: each term alone forces mu(m) * phi(|p_m|/rho) <= 1, i.e.
rho >= |p_m| / phi^{-1}(1/mu(m)).  At or above the largest such rho every
individual term is at most 1, so no modular evaluation inside the bracket
can overflow.  The upper bracket doubles from there, and
``functions._bisect``, which the generic inverse runs as well, halves the
bracket to relative width tol_rel.  The rho_low check and the doubling run
in lock-step across the rows: a step evaluates phi once, on the rows still
open.  The bisection keeps each row's bracket, step count and stopping
test.  For a few small rows it settles many levels of each row's path per
evaluation: the log of the modular sum at each bracket end guides a guess
of the norm, the midpoints of the path that guess implies, up to the row's
stop or the round's cell budget, are evaluated at once, and the row moves
to its first midpoint where the decision differs from the guess.

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
math.fsum's value, which ``spaces.exact_sum`` computes from per-exponent
bucket sums for long rows.  Every decision therefore equals the fsum
decision, and so does every bracket, step count and value.  Of the
midpoints laid out ahead, only those on a row's path up to its first
decision that differs from the guess fall back to fsum or fail the row on
overflow; the others are discarded.
The returned value is the smallest scale found with modular <= 1, and
``modular_at_value`` is the batch's modular there, the fsum: the correctly
rounded sum of the computed terms is at most 1 at the reported value.  Each
term carries its own rounding, so the modular in exact arithmetic can
exceed 1 by a few units in the last place.

A row that fails does not stop the others.  The batch then raises the error
of the lowest failing row, the one a loop over the vectors would meet first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationOverflowError, DomainError, OrliczSeqError
from .functions import MAX_GRID_POINTS, _MAX_DOUBLINGS, _bisect, _positive, _whole
from .spaces import SeqVector, SpaceParams, TermBatch, exact_sum

DEFAULT_TOL_REL = 1e-12
_U = 2.0 ** -53
_FSUM_ROUNDING = 2.0 ** -52
_WHERE = "during norm solve"


@dataclass(frozen=True)
class NormResult:
    """Solved norm with its final bracket and diagnostic counters.

    ``value`` is the upper bracket end (smallest scale observed with modular
    at most 1); ``bracket`` is (rho_low, rho_high) with modular > 1 strictly
    below and <= 1 at the top; ``modular_at_value`` is the modular evaluated
    at ``value``; ``iterations`` counts bisection steps, at most 53: the
    bisection starts from a doubling's [x, 2x].
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


def _near_one(terms: np.ndarray, slack: np.ndarray):
    """The np.sum of each cell's terms (the last axis) and whether it lies
    within its rounding-error bound of 1, where only math.fsum decides.

    ``slack`` is ``_sum_slack(n)`` for each cell.  A nan or inf sum is near:
    its fsum gives the same answer."""
    s = terms.sum(axis=-1)
    return s, np.abs(s - 1.0) <= slack * np.abs(terms).sum(axis=-1) + _FSUM_ROUNDING


def _at_most_one(terms: np.ndarray, n: np.ndarray, slack: np.ndarray):
    """math.fsum(row[:n]) <= 1 for each row of terms, from np.sum where it
    decides, and the np.sum of each row.

    Entries past n in a row must be 0; ``slack`` is ``_sum_slack(n)``.
    """
    s, near = _near_one(terms, slack)
    ok = s <= 1.0
    if near.any():
        for j in np.flatnonzero(near):
            ok[j] = exact_sum(terms[j, :n[j]]) <= 1.0
    return ok, s


def _rho_low(batch: TermBatch) -> np.ndarray:
    """Each row's lower bracket end, max |p_m| / phi^{-1}(1/mu(m)), from one
    ``phi.inverses`` call on the distinct values of 1/mu(m).  A row with a
    measure that has no inverse fails on its first one, and its end is nan."""
    # 1/mu is inf for padding, an underflowed measure and a subnormal one:
    # such a term is left out, as a max over the other terms is still a lower end
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / batch.mus
    scale = np.zeros(inv.shape)
    solvable = inv < math.inf
    targets, which = np.unique(inv[solvable], return_inverse=True)
    roots, failed = batch.phi.inverses(targets)
    scale[solvable] = roots[which]
    ratio = np.divide(batch.avals, scale, out=np.zeros(scale.shape), where=scale > 0.0)
    rho_low = ratio.max(axis=1, initial=0.0)
    if failed:
        target = np.full(scale.shape, -1)
        target[solvable] = which
        for r, c in zip(*np.nonzero(np.isin(target, list(failed)))):
            batch.fail(r, failed[int(target[r, c])])
            rho_low[r] = math.nan
    return rho_low


# overflow, underflow and inf * 0 surface as typed errors naming the index
@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _solve(batch: TermBatch, tol_rel: float) -> list:
    """The NormResult, or the typed error, of each vector of ``batch``; a
    vector that has failed already keeps its first error.  ``tol_rel`` must
    be positive."""
    slack = _sum_slack(batch.n)
    columns = (batch.avals, batch.mus, batch.n, slack)

    def above(rho, rows, avals, mus, n, slack):
        """Per row whether modular > 1 (the norm lies above rho); a row that
        overflows fails in ``batch``, its terms count as 0, and it bisects on.
        For a column of trial scales per row, per cell whether np.sum decides
        that, the log of the sum, and the cells it does not decide, an
        overflowed one included, so only the one-midpoint form fails a row."""
        if rho.ndim == 1:
            return ~_at_most_one(batch.terms(rows, avals, mus, rho, _WHERE)[0], n, slack)[0]
        terms, lost = batch.terms(None, avals[:, None], mus[:, None], rho, _WHERE)
        s, near = _near_one(terms, slack[:, None])
        with np.errstate(divide="ignore"):
            return s > 1.0, np.log(s), near if lost is None else near | lost

    def probe(rows, rho):
        """``rows`` with modular <= 1 at rho, and the rest (overflowed rows in
        neither); the log of each row's sum goes to ``excess``."""
        terms, lost = batch.terms(rows, batch.avals[rows], batch.mus[rows], rho, _WHERE)
        ok, s = _at_most_one(terms, batch.n[rows], slack[rows])
        with np.errstate(divide="ignore"):
            excess[rows] = np.log(s)
        if lost is not None:
            rows, ok = rows[~lost], ok[~lost]
        return rows[ok], rows[~ok]

    def fail(rows, message: str) -> None:
        for r in rows.tolist():
            batch.fail(r, ComputationOverflowError(message))

    rho_low = _rho_low(batch)
    lo, hi = rho_low.copy(), rho_low.copy()
    excess = np.full(rho_low.size, math.nan)  # log of the modular sum at hi, then lo
    lo_excess = excess.copy()
    iters = np.zeros(rho_low.size, dtype=np.int64)
    valid = (rho_low > 0.0) & np.isfinite(rho_low)
    fail(np.flatnonzero(~valid), _NOT_REPRESENTABLE)

    # rho_low itself may already satisfy the modular: such a row is closed
    live = probe(np.flatnonzero(valid), rho_low[valid])[1]

    # double the upper end until the modular drops to at most 1
    doubled = []
    for _ in range(_MAX_DOUBLINGS):
        if not live.size:
            break
        lo[live], lo_excess[live] = hi[live], excess[live]
        hi[live] *= 2.0
        blown = np.isinf(hi[live])
        if blown.any():
            fail(live[blown], "upper norm bracket overflowed double range")
            live = live[~blown]
        closed, live = probe(live, hi[live])
        doubled.append(closed)
    else:
        fail(live, "norm bracket did not close after doubling")

    # bisect every closed bracket; a row that overflows fails there and runs on
    live = np.sort(np.concatenate(doubled)) if doubled else live[:0]
    lo[live], hi[live], iters[live] = _bisect(
        lo[live], hi[live], tol_rel, above, (live, *(x[live] for x in columns)),
        (lo_excess[live], excess[live]), batch.avals.shape[1])

    # every row that has not failed is closed: its modular at the value
    at_value, errors = batch.modulars(hi, _WHERE)
    out = [_ZERO_NORM] * batch.size
    for r, i in enumerate(batch.pos):
        out[i] = NormResult(float(hi[r]), (float(lo[r]), float(hi[r])), at_value[i],
                            int(iters[r]))
    for i, exc in errors.items():
        out[i] = exc
    return out


def luxemburg_norms(params: SpaceParams, vecs,
                    tol_rel: float = DEFAULT_TOL_REL) -> list:
    """Solve the Luxemburg norms of a batch of vectors to relative width tol_rel.

    Returns one NormResult per vector, in order, each equal to what
    ``luxemburg_norm`` returns for that vector alone.  If any vector fails,
    the error of the first failing vector is raised.
    """
    tol_rel = _positive(tol_rel, "tol_rel")
    out = _solve(TermBatch(params, [p._row() for p in vecs]), tol_rel)
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
    tol = _positive(tol, "tolerance")
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
    return p.restrict(_whole(max_abs, 0, "truncation index must be a nonnegative integer"))


def schauder_curve(params: SpaceParams, p: SeqVector,
                   tol_rel: float = DEFAULT_TOL_REL):
    """Residual norms ||p - truncation(p, M)|| for M = 0 .. max support index.

    The curve is nonincreasing and its last entry is exactly 0 (the final
    truncation keeps the whole support).  The empty sequence yields [(0, 0)].
    Cuts between two support indices leave the same tail, so each distinct
    tail, one per distinct |m| >= 1 plus the empty one, is solved once and
    its norm repeated for each of its cuts.  They are solved in one batch, so
    mu and the single-term inverse run once per support index; a failing
    tail raises the error of the first cut that has it.  A curve of more
    than ``MAX_GRID_POINTS`` points is a DomainError naming the index that
    needs them, raised before any solve.
    """
    if not p:
        return [(0, 0.0)]
    if p.max_abs_index + 1 > MAX_GRID_POINTS:
        raise DomainError(f"schauder curve to index {p.support[-1]} needs "
                          f"{p.max_abs_index + 1} points; at most {MAX_GRID_POINTS} are allowed")
    tails, cuts, prev = [], [], 0
    for m in p.support:
        if abs(m) > prev:  # cuts prev .. |m| - 1 keep the tail from |m| on
            tails.append(p.tail(abs(m)))
            cuts.append(abs(m) - prev)
            prev = abs(m)
    tails.append(p.tail(prev + 1))
    cuts.append(1)
    norms = luxemburg_norms(params, tails, tol_rel)
    return list(enumerate(r.value for r, n in zip(norms, cuts) for _ in range(n)))


__all__ = ["NormResult", "luxemburg_norm", "luxemburg_norms", "AxiomReport",
           "verify_norm_axioms", "schauder_truncate", "schauder_curve",
           "DEFAULT_TOL_REL"]
