"""Weighted sequence-space primitives.

The measure of an integer index m under parameters (k, phi, w) is

    mu(m) = w_m * (1 + phi(|m|))**k

and the modular of a finitely supported complex sequence p at scale rho > 0 is

    modular(p, rho) = sum_m mu(m) * phi(|p_m| / rho)

summed in canonical support order: increasing |m|, negative index before
positive at equal |m|.  Canonical order plus exact summation (math.fsum)
makes modular values reproducible bit for bit across runs and input orders.
``measures`` computes mu for a whole support at once, and every caller in
the package goes through it.  Each space remembers its factors
(1 + phi(|m|))**k for |m| < 2**16 in a table on the instance: a
``SpaceParams``, its generator and its weights are immutable values, so the
table never goes stale, and ``dataclasses.replace`` yields a fresh one.

Geometric envelopes |p_m| <= C * r**|m| with a certified polynomial bound on
the measure give closed-form tail majorants, which in turn certify membership
of infinite envelopes in the modular class and in the large and small spaces
without truncating blindly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ComputationOverflowError, DomainError
from .functions import (MAX_GRID_POINTS, ExpCompose, ExpLinear, ExpSquare,
                        OrliczFunction, Power, TabulatedConvex, _check_point,
                        _csv_rows, _libm, _positive, _whole, parse_orlicz)

DYADIC_PROBE_DEPTH = 20
_FACTOR_BLOCK = 4096  # the factor table of a space grows by this many entries
_FACTOR_CAP = 2 ** 16  # tables cover |m| below this: 512 KB at most, whole blocks
_ENVELOPE_SLACK = 1.0 + 1e-12


class WeightSequence:
    """Strictly positive weights w_m with a certified infimum.

    A constant sequence is a table with no entries.  ``inf_override`` lets a
    caller certify a smaller infimum than the listed entries show (a finite
    table is often a window into an infinite weight sequence); it must not
    exceed the minimum of the listed values.
    """

    def __init__(self, default: float, entries=None, inf_override: float | None = None):
        default = _positive(default, "default weight")
        table = {}
        for m, w in (entries.items() if isinstance(entries, dict) else (entries or ())):
            m = _whole(m, -math.inf, f"weight index {m!r} is not an integer")
            w = _positive(w, f"weight at index {m}")
            if m in table:
                raise DomainError(f"duplicate weight index {m}")
            table[m] = w
        self._default = default
        self._table = dict(sorted(table.items()))
        listed_min = min([default, *self._table.values()])
        listed_max = max([default, *self._table.values()])
        if inf_override is not None:
            inf_override = float(inf_override)
            if not (0 < inf_override <= listed_min):
                raise DomainError(
                    "inf override must be positive and no larger than every listed weight")
        self._inf = inf_override if inf_override is not None else listed_min
        self._sup = listed_max
        self._override = inf_override

    @classmethod
    def constant(cls, w: float) -> "WeightSequence":
        return cls(w)

    def weight(self, m: int) -> float:
        """w_m; an index that is not a whole number is a DomainError, as in
        the constructor."""
        return self._table.get(_whole(m, -math.inf, f"weight index {m!r} is not an integer"),
                               self._default)

    def weights(self, support) -> np.ndarray:
        """w_m for each integer index of ``support``."""
        if not self._table:
            return np.full(len(support), self._default)
        get, default = self._table.get, self._default
        return np.array([get(m, default) for m in support], dtype=float)

    @property
    def inf_w(self) -> float:
        return self._inf

    @property
    def sup_w(self) -> float:
        return self._sup

    @property
    def default(self) -> float:
        return self._default

    @property
    def entries(self):
        return dict(self._table)

    def with_inf(self, inf_override: float) -> "WeightSequence":
        return WeightSequence(self._default, self._table, inf_override)

    def descriptor(self) -> str:
        if not self._table and self._override is None:
            return f"const:{self._default:.17g}"
        body = ";".join(f"{m},{w:.17g}" for m, w in self._table.items())
        return f"table:{self._default:.17g}:[{body}]:inf={self._inf:.17g}"

    def __eq__(self, other):
        return (isinstance(other, WeightSequence)
                and self.descriptor() == other.descriptor())

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"WeightSequence[{self.descriptor()}]"


def parse_weights(descriptor: str, inf_override: float | None = None) -> WeightSequence:
    """Build weights from ``const:<w>`` or ``table:<csv-path>[:<default>]``.

    Table CSVs hold ``m,w`` rows; the optional trailing field sets the weight
    at unlisted indices (1.0 if omitted).
    """
    desc = descriptor.strip()
    if desc.startswith("const:"):
        try:
            weights = WeightSequence(float(desc[len("const:"):]))
        except ValueError as exc:
            raise DomainError(f"bad constant weight descriptor {descriptor!r}") from exc
        # a bad override raises its own DomainError, not the descriptor's
        return weights if inf_override is None else weights.with_inf(inf_override)
    if desc.startswith("table:"):
        rest = desc[len("table:"):]
        path, default = rest, 1.0
        if ":" in rest:
            path, tail = rest.rsplit(":", 1)
            try:
                default = float(tail)
            except ValueError:
                path = rest
        entries = _csv_rows(path, "weight table", "m,w",
                            lambda row: (int(row[0]), float(row[1])))
        return WeightSequence(default, entries, inf_override=inf_override)
    raise DomainError(f"unknown weight descriptor {descriptor!r}")


@dataclass(frozen=True)
class SpaceParams:
    """Parameters (k, phi, w) of a weighted Orlicz sequence space."""

    k: float
    phi: OrliczFunction
    weights: WeightSequence = field(default_factory=lambda: WeightSequence(1.0))

    def __post_init__(self):
        k = float(self.k)
        if not math.isfinite(k):
            raise DomainError("order k must be finite")
        object.__setattr__(self, "k", k)
        if not isinstance(self.phi, OrliczFunction):
            raise DomainError("phi must be an OrliczFunction")
        if not isinstance(self.weights, WeightSequence):
            raise DomainError("weights must be a WeightSequence")

    def space_key(self):
        return (self.k, self.phi.descriptor(), self.weights.descriptor())


def _canonical_key(item):
    m = item[0]
    return (abs(m), m >= 0)


def _abs_index(item) -> int:
    return abs(item[0])


class SeqVector:
    """Finitely supported complex sequence in canonical support order.

    Construction accepts an iterable of (index, value) pairs or a dict.
    Duplicate indices are a hard error; exact zero values are dropped so the
    stored support is the true support.  The support tuple and the read-only
    |p_m| array are built on first use and kept.
    """

    __slots__ = ("_items", "_support", "_abs")

    def __init__(self, items=()):
        pairs = items.items() if isinstance(items, dict) else items
        seen = {}
        for m, v in pairs:
            try:
                whole = int(m) == m
            except (TypeError, ValueError, OverflowError):  # an inf or nan index
                whole = False
            if not whole:
                raise DomainError(f"index {m!r} is not an integer")
            m = int(m)
            v = complex(v)
            if m in seen:
                raise DomainError(f"duplicate index {m} in sequence construction")
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError(f"value at index {m} must be finite")
            seen[m] = v
        self._items = tuple(sorted(
            ((m, v) for m, v in seen.items() if v != 0), key=_canonical_key))
        self._support = None
        self._abs = None

    @classmethod
    def from_csv(cls, path) -> "SeqVector":
        return cls(_csv_rows(path, "sequence file", "m,re,im",
                             lambda row: (int(row[0]), complex(float(row[1]), float(row[2])))))

    @property
    def items(self):
        return self._items

    @property
    def support(self):
        if self._support is None:
            self._support = tuple(m for m, _ in self._items)
        return self._support

    @property
    def values(self):
        return tuple(v for _, v in self._items)

    def abs_values(self) -> np.ndarray:
        """|p_m| in support order; the array is shared, so it is read-only."""
        if self._abs is None:
            a = np.array([abs(v) for _, v in self._items], dtype=float)
            a.flags.writeable = False
            self._abs = a
        return self._abs

    @property
    def max_abs_index(self) -> int:
        return abs(self._items[-1][0]) if self._items else 0

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)

    def __eq__(self, other):
        return isinstance(other, SeqVector) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def scaled(self, lam: complex) -> "SeqVector":
        """lam * p; products that underflow to 0 leave the support."""
        lam = complex(lam)
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise DomainError("scale factor must be finite")
        items = tuple((m, lam * v) for m, v in self._items)
        for m, v in items:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError(f"value at index {m} must be finite")
        return SeqVector._canonical(tuple(item for item in items if item[1]))

    def __add__(self, other: "SeqVector") -> "SeqVector":
        if not isinstance(other, SeqVector):
            return NotImplemented
        acc = dict(self._items)
        for m, v in other._items:
            acc[m] = acc.get(m, 0j) + v
        return SeqVector(acc)

    def __sub__(self, other: "SeqVector") -> "SeqVector":
        if not isinstance(other, SeqVector):
            return NotImplemented
        return self + other.scaled(-1.0)

    @classmethod
    def _canonical(cls, items: tuple, support=None, abs_values=None) -> "SeqVector":
        """The vector of items already in canonical order, nonzero and finite."""
        out = cls.__new__(cls)
        out._items, out._support, out._abs = items, support, abs_values
        return out

    def _slice(self, cut: slice) -> "SeqVector":
        """The vector of a slice of the canonical items, viewing this one's arrays."""
        return SeqVector._canonical(self._items[cut], self.support[cut],
                                    self.abs_values()[cut])

    def restrict(self, max_abs: int) -> "SeqVector":
        """Keep indices with |m| <= max_abs: a prefix in canonical order."""
        return self._slice(slice(bisect.bisect_right(self._items, max_abs, key=_abs_index)))

    def tail(self, min_abs: int) -> "SeqVector":
        """Keep indices with |m| >= min_abs: a suffix in canonical order."""
        return self._slice(slice(bisect.bisect_left(self._items, min_abs, key=_abs_index),
                                 None))

    def __repr__(self):
        body = ", ".join(f"{m}: {v}" for m, v in self._items[:6])
        more = "" if len(self._items) <= 6 else f", ... ({len(self._items)} terms)"
        return f"SeqVector({{{body}{more}}})"


def _factors(params: SpaceParams, at: np.ndarray, ms) -> np.ndarray:
    """(1 + phi(t))**k for each t of ``at``, the |m| of the indices ``ms`` as
    floats, through ``_eval_exact`` and ``_libm``'s power, once per distinct
    t.  An inf t (|m| beyond double range) gives nan; a negative phi(t) is a
    DomainError naming the first index with that |m|."""
    ts, slot = np.unique(at, return_inverse=True)
    finite = ts < math.inf
    f = params.phi._eval_exact(ts[finite])
    if (f < 0.0).any():
        j = int(np.argmax(f < 0.0))
        m = int(ms[int(np.argmax(at == ts[finite][j]))])
        raise DomainError(f"measure undefined at index {m}: "
                          f"phi({abs(m)}) = {float(f[j]):g} is negative")
    out = np.full(ts.size, math.nan)
    out[finite] = _libm(pow, (f + 1.0).tolist(), itertools.repeat(params.k))
    return out[slot]


def _remembered_factors(params: SpaceParams, ms: np.ndarray) -> np.ndarray:
    """``_factors`` of the indices ``ms`` (int64, |m| < ``_FACTOR_CAP``)
    through the space's table, indexed by |m|.

    NaN marks an entry not yet computed; a factor that overflows is stored
    as inf, so its error is rebuilt from the index without recomputing it.
    The table grows in blocks of ``_FACTOR_BLOCK`` entries to the largest
    |m| seen, and lives in the instance ``__dict__``.
    """
    a = np.abs(ms)
    table = params.__dict__.get("_mu_factors")
    top = int(a.max()) + 1
    if table is None or table.size < top:
        grown = np.full(-(-top // _FACTOR_BLOCK) * _FACTOR_BLOCK, math.nan)  # <= the cap
        if table is not None:
            grown[:table.size] = table
        table = params.__dict__["_mu_factors"] = grown
    factor = table[a]
    miss = np.isnan(factor)
    if miss.any():
        factor[miss] = table[a[miss]] = _factors(params, a[miss].astype(float), ms[miss])
    return factor


@np.errstate(over="ignore")
def measures(params: SpaceParams, support):
    """The measure w_m * (1 + phi(|m|))**k of each integer index of ``support``.

    Returns ``(mus, errors)``: ``mus[i]`` is the measure of ``support[i]``,
    and ``errors`` maps each position whose measure leaves double range to a
    ComputationOverflowError naming its index, in support order (``mus`` is
    not finite there).  For k < 0 the factor may underflow to exactly 0.0;
    that is accepted, the true value being below anything representable.
    A generator negative at some |m| is a DomainError naming the index.

    Each measure equals w_m * (1.0 + phi.eval(float(|m|)))**k bit for bit.
    The factors of |m| < ``_FACTOR_CAP`` come from the space's table; larger
    |m|, and every index of a support with one beyond int64, are computed on
    each call.  At k = 0 every integer index works; otherwise an index
    beyond double range is an overflow.
    """
    support = list(map(int, support))
    w = params.weights.weights(support)
    k = params.k
    if k == 0 or not support:
        return w, {}
    factor = np.empty(len(support))
    try:
        ms = np.array(support, dtype=np.int64)
        near = (ms > -_FACTOR_CAP) & (ms < _FACTOR_CAP)  # np.abs(-2**63) overflows
    except OverflowError:  # an index beyond int64
        near = np.zeros(len(support), dtype=bool)
    if near.any():
        factor[near] = _remembered_factors(params, ms[near])
    if not near.all():
        beyond = list(itertools.compress(support, (~near).tolist()))
        try:
            at = np.array(beyond, dtype=float)
        except OverflowError:  # an index beyond double range is inf
            at = _libm(float, beyond)
        factor[~near] = _factors(params, np.abs(at), beyond)
    mus = w * factor
    errors = {}
    for i in np.flatnonzero(~np.isfinite(mus)).tolist():
        m = support[i]
        if _libm(float, [abs(m)])[0] == math.inf:
            why = "|m| exceeds double range"
        else:
            why = f"(1 + phi({abs(m)}))**{k:g} exceeds double range"
        errors[i] = ComputationOverflowError(f"measure overflow at index {m}: {why}",
                                             index=m)
    return mus, errors


def mu(params: SpaceParams, m: int) -> float:
    """Measure of index m: ``measures`` on a batch of one.

    Raises the ComputationOverflowError naming m when the measure leaves
    double range (k > 0 with a fast-growing generator, or k != 0 with |m|
    beyond double range).
    """
    mus, errors = measures(params, (m,))
    if errors:
        raise errors[0]
    return float(mus[0])


def _fsum(terms: list, where: str) -> float:
    """math.fsum of the terms; a sum past double range is a ComputationOverflowError."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ComputationOverflowError(f"modular sum overflow {where}") from None


class TermBatch:
    """The modular terms mu(m) * phi(|p_m| / rho) of a batch of vectors.

    One ``measures`` call covers the batch.  Each nonempty vector with finite
    measures is a row (at batch position ``pos[r]``, of length ``n[r]``) of
    padded arrays ``avals`` = |p_m| and ``mus`` = mu(m) in support order;
    padding is 0, so a padded term is exactly 0.  ``errors`` maps a failed
    vector's position to its first ComputationOverflowError: a measure, else
    a scaled argument or a term ("<what> overflow at index <m> <where>"),
    else the sum ("modular sum overflow <where>") that leaves double range.
    """

    def __init__(self, params: SpaceParams, vecs, where: str):
        self.phi, self.where, self.size = params.phi, where, len(vecs)
        supports = [p.support for p in vecs]
        lengths = [len(s) for s in supports]
        mus, mu_errors = measures(params, list(itertools.chain.from_iterable(supports)))
        self.errors = {}
        if mu_errors:
            owner = np.repeat(np.arange(len(vecs)), lengths)
            for j, exc in mu_errors.items():  # in support order: a vector keeps its first
                self.errors.setdefault(int(owner[j]), exc)
            mus = mus[~np.isin(owner, list(self.errors))]
        self.pos = [i for i, n in enumerate(lengths) if n and i not in self.errors]
        self.supports = [supports[i] for i in self.pos]
        n = [lengths[i] for i in self.pos]
        self.n = np.array(n, dtype=np.int64)
        filled = np.arange(max(n, default=0)) < self.n[:, None]
        self.avals, self.mus = np.zeros(filled.shape), np.zeros(filled.shape)
        if self.pos:
            self.avals[filled] = np.concatenate([vecs[i].abs_values() for i in self.pos])
            self.mus[filled] = mus

    def fail(self, r: int, exc) -> None:
        """Fail row r with exc, unless its vector has failed already."""
        self.errors.setdefault(self.pos[r], exc)

    def terms(self, rows, avals: np.ndarray, mus: np.ndarray, rho: np.ndarray):
        """Terms of ``rows`` at scales ``rho`` (``avals``, ``mus``: the arrays of
        ``rows``) and the mask of rows that overflowed, or None.  Such a row
        fails with the error naming its first offending index; its terms are
        0.  Callers hold np.errstate: overflow is an error, not a warning.
        With ``rows`` None nothing fails: rho then has a column per trial
        scale, ``avals`` and ``mus`` an axis of length 1 before their last,
        and the mask covers each (row, scale) cell.

        phi runs through its numpy form ``_raw_eval``, not ``eval``: the
        arguments are nonnegative, and the overflow scan zeroes each row that
        is not finite, so ``eval``'s point check would find nothing."""
        args = avals / rho[..., None]
        lost = None
        if not np.isfinite(args).all():
            lost = self._overflow(rows, args, "scaled argument")
            args[lost] = 0.0
        # terms overwrite args, read no more: a wide solve touches fewer fresh pages
        terms = np.multiply(mus, self.phi._raw_eval(args), out=args)
        if not np.isfinite(terms).all():
            more = self._overflow(rows, terms, "modular term")
            terms[more] = 0.0
            lost = more if lost is None else lost | more
        return terms, lost

    def _overflow(self, rows, values, what: str) -> np.ndarray:
        finite = np.isfinite(values)
        bad = ~finite.all(axis=-1)
        if rows is not None:
            for j in np.flatnonzero(bad).tolist():
                r = int(rows[j])
                m = self.supports[r][int(np.argmin(finite[j]))]
                self.fail(r, ComputationOverflowError(
                    f"{what} overflow at index {m} {self.where}", index=m))
        return bad

    def sums(self, rows: np.ndarray, terms: np.ndarray) -> list:
        """The exact sum of each row's terms; a row whose sum overflows fails (nan)."""
        out = []
        for r, row in zip(rows.tolist(), terms):
            try:
                out.append(_fsum(row[:self.n[r]].tolist(), self.where))
            except ComputationOverflowError as exc:
                self.fail(r, exc)
                out.append(math.nan)
        return out

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def modulars(self, rho: float):
        """The modular of every vector at scale rho (0.0 for an empty one) and
        ``errors``; the value of a vector that failed is meaningless."""
        values = [0.0] * self.size
        rows = np.arange(len(self.pos))
        terms, _ = self.terms(rows, self.avals, self.mus, np.full(rows.size, rho))
        for i, value in zip(self.pos, self.sums(rows, terms)):
            values[i] = value
        return values, self.errors


def modular(params: SpaceParams, p: SeqVector, rho: float) -> float:
    """Weighted modular sum_m mu(m) * phi(|p_m| / rho) at scale rho > 0:
    a ``TermBatch`` of one."""
    rho = _positive(rho, "scale rho")
    values, errors = TermBatch(params, [p], f"for rho={rho:g}").modulars(rho)
    if errors:
        raise errors[0]
    return values[0]


@dataclass(frozen=True)
class GeometricEnvelope:
    """Certificate |p_m| <= amplitude * ratio**|m| with a measure majorant.

    ``poly_w`` and ``poly_a`` certify mu(m) <= poly_w * (1 + |m|)**poly_a for
    every |m| >= valid_from; build envelopes through geometric_envelope so the
    majorant is derived rather than asserted.
    """

    amplitude: float
    ratio: float
    poly_w: float
    poly_a: float
    valid_from: int = 0

    def __post_init__(self):
        amp = float(self.amplitude)
        r = float(self.ratio)
        if not math.isfinite(amp) or amp < 0:
            raise DomainError("envelope amplitude must be finite and nonnegative")
        if not 0.0 < r < 1.0:
            raise DomainError("envelope ratio must lie strictly inside (0, 1)")
        poly_w = _positive(self.poly_w, "measure majorant coefficient")
        if not math.isfinite(self.poly_a) or self.poly_a < 0:
            raise DomainError("measure majorant exponent must be finite and nonnegative")
        valid_from = _whole(self.valid_from, 0, "valid_from must be a nonnegative integer")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "ratio", r)
        object.__setattr__(self, "poly_w", poly_w)
        object.__setattr__(self, "poly_a", float(self.poly_a))
        object.__setattr__(self, "valid_from", valid_from)

    def bound_at(self, m: int) -> float:
        return self.amplitude * self.ratio ** abs(m)

    def dominates(self, p: SeqVector) -> bool:
        return all(abs(v) <= self.bound_at(m) * _ENVELOPE_SLACK for m, v in p.items)


def weight_poly_bound(params: SpaceParams):
    """Certified (W, a) with mu(m) <= W * (1 + |m|)**a for all m.

    k <= 0 gives (sup w, 0).  Powers give (sup w * 2**k, s*k) via
    1 + m**s <= 2 * max(1, m)**s.  Tabulated generators are eventually
    linear, so 1 + phi(m) <= (1 + v_last + slope_last) * (1 + m).  The
    exponential families grow faster than any polynomial, so k > 0 admits no
    such majorant and a CertificateError is raised.
    """
    w_sup = params.weights.sup_w
    k = params.k
    if k <= 0:
        return w_sup, 0.0
    phi = params.phi
    if isinstance(phi, Power):
        return w_sup * 2.0 ** k, phi.s * k
    if isinstance(phi, TabulatedConvex):
        b = 1.0 + phi.final_value + max(phi.final_slope, 0.0)
        return w_sup * b ** k, k
    if isinstance(phi, (ExpSquare, ExpLinear, ExpCompose)):
        raise CertificateError(
            "measure grows superpolynomially (exponential generator with k > 0); "
            "no polynomial majorant exists")
    raise CertificateError(f"no measure majorant rule for {type(phi).__name__}")


def geometric_envelope(params: SpaceParams, amplitude: float, ratio: float,
                       valid_from: int = 0) -> GeometricEnvelope:
    """Build an envelope for (params)-spaces, deriving the measure majorant."""
    poly_w, poly_a = weight_poly_bound(params)
    return GeometricEnvelope(amplitude, ratio, poly_w, poly_a, valid_from)


def _poly_geometric_tail(a: float, r: float, start: int) -> float:
    """Upper bound for sum_{m >= start} (1+m)**a * r**m via a ratio-test majorant.

    Consecutive-term ratios r*((m+2)/(m+1))**a decrease toward r, so once the
    current ratio q drops below (1+r)/2 < 1 the remaining tail is at most
    f(m) * q/(1-q).
    """
    q_cap = 0.5 * (1.0 + r)
    m = start
    f = (1.0 + m) ** a * r ** m
    terms = []
    for _ in range(1_000_000):
        if f == 0.0:
            return math.fsum(terms)
        q = r * ((m + 2.0) / (m + 1.0)) ** a
        terms.append(f)
        if q <= q_cap:
            return math.fsum(terms) + f * q / (1.0 - q)
        f *= q
        m += 1
    raise CertificateError("tail ratio test failed to stabilize (ratio too close to 1)")


def modular_tail_bound(params: SpaceParams, envelope: GeometricEnvelope,
                       rho: float, trunc: int) -> float:
    """Certified upper bound on sum_{|m| > trunc} mu(m) * phi(|p_m|/rho)
    for every p dominated by the envelope.

    Uses phi(x) <= (phi(t*)/t*) * x for x <= t* (convexity through the
    origin) at t* = amplitude * ratio**trunc / rho, then sums the resulting
    polynomial-geometric majorant in closed form.
    """
    rho = _positive(rho, "scale rho")
    trunc = _whole(trunc, 1, "truncation index must be an integer >= 1")
    if trunc < envelope.valid_from:
        raise DomainError(
            f"truncation index {trunc} precedes envelope validity {envelope.valid_from}")
    if envelope.amplitude == 0.0:
        return 0.0
    t_star = envelope.amplitude * envelope.ratio ** trunc / rho
    if t_star == 0.0:
        # Every dominated tail value underflows, so all representable tails are 0.
        return 0.0
    slope = params.phi.eval(t_star) / t_star
    if math.isinf(slope):
        raise ComputationOverflowError(
            f"linearization point {t_star:g} overflows the generator; "
            "increase the truncation index or the scale")
    s = _poly_geometric_tail(envelope.poly_a, envelope.ratio, trunc + 1)
    bound = 2.0 * envelope.poly_w * slope * (envelope.amplitude / rho) * s
    if math.isinf(bound) or math.isnan(bound):
        raise ComputationOverflowError("tail bound overflowed double range")
    return bound


@dataclass(frozen=True)
class TailCertificate:
    """One certified scale: explicit part plus tail majorant at that rho."""

    rho: float
    trunc: int
    tail_bound: float
    modular_upper: float | None


@dataclass(frozen=True)
class MembershipReport:
    """Verdicts for the modular class, the large space and the small space."""

    in_class: bool
    in_large: bool
    in_small: bool
    large_witness_rho: float | None
    certificates: tuple
    note: str = ""


def classify(params: SpaceParams, p: SeqVector | None = None,
             envelope: GeometricEnvelope | None = None,
             probe_depth: int = DYADIC_PROBE_DEPTH) -> MembershipReport:
    """Classify membership of p (or of every envelope-dominated sequence).

    Finitely supported sequences with no envelope belong to all three sets.
    With an envelope the verdicts come from tail certificates: the modular
    class and the large space need some scale rho in {1, 2, 4, ...} with a
    finite certified modular bound, the small space needs every dyadic scale
    down to 2**-probe_depth.  The truncation index is chosen per scale so the
    linearization point stays at or below 1; explicit partial sums may still
    overflow at tiny scales, which is reported (modular_upper = None) without
    affecting the finiteness verdict; so is a window -trunc..trunc of more
    than MAX_GRID_POINTS indices, whose explicit part is not summed.
    """
    probe_depth = _whole(probe_depth, 0, "probe_depth must be a nonnegative integer")
    if p is None:
        p = SeqVector()
    if envelope is None:
        return MembershipReport(True, True, True, 1.0, (),
                                "finitely supported; member of every scale")
    if not envelope.dominates(p):
        bad = next(m for m, v in p.items if abs(v) > envelope.bound_at(m) * _ENVELOPE_SLACK)
        raise DomainError(f"envelope does not dominate the sequence at index {bad}")

    base_trunc = max(1, envelope.valid_from, p.max_abs_index)
    log_r = math.log(envelope.ratio)

    def certify(rho: float) -> TailCertificate:
        trunc = base_trunc
        if envelope.amplitude > rho:
            # smallest M with amplitude * ratio**M <= rho, so t* <= 1
            need = math.ceil(math.log(rho / envelope.amplitude) / log_r)
            trunc = max(trunc, int(need))
        tail = modular_tail_bound(params, envelope, rho, trunc)
        if 2 * trunc + 1 > MAX_GRID_POINTS:
            return TailCertificate(rho, trunc, tail, None)
        supp = set(p.support)
        try:
            explicit = modular(params, p, rho)
            off = [m for m in range(-trunc, trunc + 1) if m not in supp]
            mus, errors = measures(params, off)
            # terms up to the first overflow only: a bad point before it raises
            # first, as in a loop over the indices
            first = next(iter(errors), len(off))
            # the envelope in scalar arithmetic: np.power can differ in the last bit
            args = _check_point(np.array([envelope.bound_at(m) / rho for m in off[:first]]))
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                terms = mus[:first] * params.phi._eval_exact(args)
            if errors:
                raise errors[first]
            upper = explicit + _fsum(terms.tolist(), f"for rho={rho:g}") + tail
            if not math.isfinite(upper):
                upper = None
        except ComputationOverflowError:
            upper = None
        return TailCertificate(rho, trunc, tail, upper)

    certs = []
    in_class = False
    large_witness = None
    for j in range(probe_depth + 1):
        rho = 2.0 ** j
        try:
            certs.append(certify(rho))
            in_class = True
            large_witness = rho
            break
        except (CertificateError, ComputationOverflowError):
            continue
    in_small = True
    for j in range(1, probe_depth + 1):
        rho = 2.0 ** (-j)
        try:
            certs.append(certify(rho))
        except (CertificateError, ComputationOverflowError):
            in_small = False
            break
    note = "tail-certified on dyadic scales" if in_class else "no scale certified"
    return MembershipReport(in_class, in_class, in_small and in_class,
                            large_witness, tuple(certs), note)


__all__ = [
    "WeightSequence", "parse_weights", "SpaceParams", "SeqVector", "measures",
    "mu", "modular", "GeometricEnvelope", "geometric_envelope", "weight_poly_bound",
    "modular_tail_bound", "TailCertificate", "MembershipReport", "classify",
    "parse_orlicz",
]
