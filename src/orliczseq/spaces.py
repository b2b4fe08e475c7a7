"""Weighted sequence-space primitives.

The measure of an integer index m under parameters (k, phi, w) is

    mu(m) = w_m * (1 + phi(|m|))**k

and the modular of a finitely supported complex sequence p at scale rho > 0 is

    modular(p, rho) = sum_m mu(m) * phi(|p_m| / rho)

summed in canonical support order: increasing |m|, negative index before
positive at equal |m|.  Canonical order plus exact summation makes modular
values reproducible bit for bit across runs and input orders: each sum is
math.fsum's correctly rounded value, which ``exact_sum`` computes from
per-exponent bucket sums for long rows.
``measures`` computes mu for a whole support at once, and every caller in
the package goes through it.  Every modular term and sum comes from a
``TermBatch``, whose rows are pairs of arrays: the indices (int64, or
Python ints past int64) and |p_m|.  ``modular`` is a batch of one vector's
row, ``classify`` sums its window off the support as a second row built in
numpy, and ``covering_check`` and the norm solver share one.  Each space
remembers its factors (1 + phi(|m|))**k for |m| < 2**16 in a table on the
instance, which every ``measures`` call reads: a ``SpaceParams``, its
generator and its weights are immutable values, so the table never goes
stale, and ``dataclasses.replace`` yields a fresh one.

An envelope bounds the sequence, the space bounds its measures: a
``GeometricEnvelope`` |p_m| <= C * r**|m| describes a sequence only, and the
polynomial majorant of mu is the space's own, ``weight_poly_bound``.
Together they give closed-form tail majorants, which in turn certify
membership of infinite envelopes in the modular class and in the large and
small spaces without truncating blindly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ComputationOverflowError, DomainError
from .functions import (MAX_GRID_POINTS, OrliczFunction, _csv_rows, _positive,
                        _whole, parse_orlicz)

DYADIC_PROBE_DEPTH = 20
_FACTOR_BLOCK = 4096  # the factor table of a space grows by this many entries
_FACTOR_CAP = 2 ** 16  # tables cover |m| below this: 512 KB at most, whole blocks
_ENVELOPE_SLACK = 1.0 + 1e-12
_BUCKET_SUM_MIN = 700  # terms from which exact_sum's buckets beat math.fsum


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
        if type(m) is not int:
            m = _whole(m, -math.inf, f"weight index {m!r} is not an integer")
        return self._table.get(m, self._default)

    def weights(self, support) -> np.ndarray:
        """w_m for each integer index of ``support``, a sequence or an index array."""
        if not self._table:
            return np.full(len(support), self._default)
        if isinstance(support, np.ndarray):
            support = support.tolist()
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


def _magnitude(m: int) -> float:
    """|m| as a float, inf beyond double range."""
    try:
        return float(abs(m))
    except OverflowError:
        return math.inf


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _index_array(ms) -> np.ndarray:
    """The ints ``ms`` as a read-only array: int64, or Python ints (object)
    when one is beyond int64."""
    try:
        return _read_only(np.array(ms, dtype=np.int64))
    except OverflowError:
        return _read_only(np.array(ms, dtype=object))


def _entry_arrays(items):
    """The read-only index and complex128 value arrays of (index, value) pairs."""
    return (_index_array([m for m, _ in items]),
            _read_only(np.array([v for _, v in items], dtype=complex)))


def _index_list(support) -> list:
    """The indices of ``support`` as ints; one that is not a whole number is
    a DomainError, as in ``SeqVector``.  Ints pass in one list comparison."""
    support = list(support)
    try:
        if (ints := list(map(int, support))) == support:
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    return [_whole(m, -math.inf, f"index {m!r} is not an integer") for m in support]


class SeqVector:
    """Finitely supported complex sequence in canonical support order.

    Construction accepts an iterable of (index, value) pairs or a dict.
    Duplicate indices are a hard error; exact zero values are dropped so the
    stored support is the true support.  The vector is two read-only arrays
    in support order: its indices (``_indices``; int64, or Python ints past
    int64) and its values (complex128).  ``items`` and ``values`` are built
    from them on each call; the support tuple and the read-only |p_m| array
    are built on first use and kept.  Tails and restrictions view the arrays
    of the vector they cut, |p_m| included, and ``scaled`` shares its indices.
    """

    __slots__ = ("_ms", "_vals", "_support", "_abs")

    def __init__(self, items=()):
        pairs = items.items() if isinstance(items, dict) else items
        seen = {}
        for m, v in pairs:
            if type(m) is not int:
                m = _whole(m, -math.inf, f"index {m!r} is not an integer")
            try:
                v = complex(v)
            except (TypeError, ValueError):
                raise DomainError(f"value at index {m} is not a number") from None
            except OverflowError:  # an int or fraction past double range
                raise DomainError(f"value at index {m} must be finite") from None
            if m in seen:
                raise DomainError(f"duplicate index {m} in sequence construction")
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError(f"value at index {m} must be finite")
            seen[m] = v
        items = sorted(((m, v) for m, v in seen.items() if v != 0), key=_canonical_key)
        self._ms, self._vals = _entry_arrays(items)
        self._support = self._abs = None

    @classmethod
    def from_csv(cls, path) -> "SeqVector":
        return cls(_csv_rows(path, "sequence file", "m,re,im",
                             lambda row: (int(row[0]), complex(float(row[1]), float(row[2])))))

    @property
    def items(self):
        return tuple(zip(self._ms.tolist(), self._vals.tolist()))

    @property
    def support(self):
        if self._support is None:
            self._support = tuple(self._ms.tolist())
        return self._support

    @property
    def values(self):
        return tuple(self._vals.tolist())

    def abs_values(self) -> np.ndarray:
        """|p_m| in support order; the array is shared, so it is read-only.
        Each |p_m| is CPython's ``abs``: numpy's vectorised complex abs can
        differ from it in the last bit."""
        if self._abs is None:
            self._abs = _read_only(np.array([abs(v) for v in self._vals.tolist()], dtype=float))
        return self._abs

    def _indices(self) -> np.ndarray:
        """The support as a read-only array: int64, or Python ints (object)
        when an index is beyond int64."""
        return self._ms

    def _row(self):
        """The vector as a term batch row: its indices and |p_m|."""
        return self._ms, self.abs_values()

    @property
    def max_abs_index(self) -> int:
        return abs(int(self._ms[-1])) if len(self._ms) else 0

    def __len__(self):
        return len(self._ms)

    def __bool__(self):
        return len(self._ms) > 0

    def __eq__(self, other):
        return isinstance(other, SeqVector) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def scaled(self, lam: complex) -> "SeqVector":
        """lam * p, each product CPython's; products that underflow to 0
        leave the support."""
        lam = complex(lam)
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise DomainError("scale factor must be finite")
        vals = _read_only(np.array([lam * v for v in self._vals.tolist()], dtype=complex))
        finite = np.isfinite(vals)
        if not finite.all():
            m = self._ms[int(np.argmin(finite))]
            raise DomainError(f"value at index {m} must be finite")
        kept = vals != 0
        if not kept.all():
            return SeqVector._from_arrays(_read_only(self._ms[kept]), _read_only(vals[kept]))
        return SeqVector._from_arrays(self._ms, vals, self._support)

    def __add__(self, other: "SeqVector") -> "SeqVector":
        if not isinstance(other, SeqVector):
            return NotImplemented
        acc = dict(self.items)
        for m, v in other.items:
            acc[m] = acc.get(m, 0j) + v
        return SeqVector(acc)

    def __sub__(self, other: "SeqVector") -> "SeqVector":
        if not isinstance(other, SeqVector):
            return NotImplemented
        return self + other.scaled(-1.0)

    @classmethod
    def _canonical(cls, items) -> "SeqVector":
        """The vector of (index, value) pairs already in canonical order,
        with int indices and nonzero finite complex values."""
        return cls._from_arrays(*_entry_arrays(items))

    @classmethod
    def _from_arrays(cls, ms: np.ndarray, vals: np.ndarray, support=None,
                     abs_values=None) -> "SeqVector":
        """The vector of read-only index and value arrays in canonical order."""
        out = cls.__new__(cls)
        out._ms, out._vals, out._support, out._abs = ms, vals, support, abs_values
        return out

    def _slice(self, cut: slice) -> "SeqVector":
        """The vector of a slice of the canonical entries, viewing this one's
        arrays.  Its |p_m| is built here and shared, so the many tails of a
        Schauder curve compute each |p_m| once."""
        return SeqVector._from_arrays(self._ms[cut], self._vals[cut], self.support[cut],
                                      self.abs_values()[cut])

    def restrict(self, max_abs: int) -> "SeqVector":
        """Keep indices with |m| <= max_abs: a prefix in canonical order."""
        return self._slice(slice(bisect.bisect_right(self.support, max_abs, key=abs)))

    def tail(self, min_abs: int) -> "SeqVector":
        """Keep indices with |m| >= min_abs: a suffix in canonical order."""
        return self._slice(slice(bisect.bisect_left(self.support, min_abs, key=abs), None))

    def __repr__(self):
        body = ", ".join(f"{m}: {v}" for m, v in zip(self._ms[:6].tolist(),
                                                      self._vals[:6].tolist()))
        more = "" if len(self) <= 6 else f", ... ({len(self)} terms)"
        return f"SeqVector({{{body}{more}}})"


def _factors(params: SpaceParams, at: np.ndarray, ms) -> np.ndarray:
    """(1 + phi(t))**k for each t of ``at``, the |m| of the indices ``ms`` as
    floats, in numpy once per distinct t, an overflow giving inf.  An inf t
    (|m| beyond double range) gives nan; a negative phi(t) is a DomainError
    naming the first index with that |m|."""
    ts, slot = np.unique(at, return_inverse=True)
    finite = ts < math.inf
    f = params.phi._raw_eval(ts[finite])
    if (f < 0.0).any():
        j = int(np.argmax(f < 0.0))
        m = int(ms[int(np.argmax(at == ts[finite][j]))])
        raise DomainError(f"measure undefined at index {m}: "
                          f"phi({abs(m)}) = {float(f[j]):g} is negative")
    out = np.full(ts.size, math.nan)
    out[finite] = (f + 1.0) ** params.k
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

    An int64 array is taken as it is; any other iterable, an object array of
    ints past int64 included, is checked as ``SeqVector`` checks indices: one
    that is not a whole number is a DomainError.

    Returns ``(mus, errors)``: ``mus[i]`` is the measure of ``support[i]``,
    and ``errors`` maps each position whose measure leaves double range to a
    ComputationOverflowError naming its index, in support order (``mus`` is
    not finite there).  For k < 0 the factor may underflow to exactly 0.0;
    that is accepted, the true value being below anything representable.
    A generator negative at some |m| is a DomainError naming the index.

    Each measure equals w_m * np.power(1.0 + phi.eval(float(|m|)), k) bit
    for bit.
    The factors of |m| < ``_FACTOR_CAP`` come from the space's table, in
    any call; larger |m| are computed on each call.  At k = 0 every integer
    index works; otherwise an index beyond double range is an overflow.
    """
    if isinstance(support, np.ndarray) and support.dtype == np.int64:
        ms = support
    else:
        ms = _index_array(_index_list(support))
    w = params.weights.weights(ms)
    k = params.k
    if k == 0 or not ms.size:
        return w, {}
    factor = np.empty(ms.size)
    near = (ms > -_FACTOR_CAP) & (ms < _FACTOR_CAP)  # np.abs(-2**63) overflows
    if near.any():
        factor[near] = _remembered_factors(params, ms[near].astype(np.int64, copy=False))
    if not near.all():
        beyond = ms[~near]
        try:
            at = np.abs(beyond.astype(float))
        except OverflowError:  # an index beyond double range
            at = np.array([_magnitude(m) for m in beyond.tolist()])
        factor[~near] = _factors(params, at, beyond)
    mus = w * factor
    errors = {}
    for i in np.flatnonzero(~np.isfinite(mus)).tolist():
        m = int(ms[i])
        if _magnitude(m) == math.inf:
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


def exact_sum(terms: np.ndarray) -> float:
    """``math.fsum(terms.tolist())``, bit for bit, from per-exponent bucket sums.

    With m, e = frexp(x), each term x is hi * 2**(e-26) + lo * 2**(e-53) for
    the integers hi = trunc(m * 2**26) and lo = m * 2**53 - hi * 2**27, with
    |hi| < 2**26 and |lo| < 2**27.  Below 2**26 terms, every partial sum of
    the his, or of the los, is an integer below 2**53, so ``np.bincount``
    adds each exponent's bucket exactly, in any order.  Scaling a bucket sum
    back by its power of two is exact too: it is a sum of multiples of the
    term's last bit, so of 2**-1074, and stays below overflow (below).  The
    nonzero scaled sums, about two per distinct exponent, thus add up to the
    same real number as the terms, and fsum rounds that correctly to the
    same double.

    ``math.fsum`` itself sums the terms, so every error, inf, nan and signed
    zero is fsum's own, for fewer than ``_BUCKET_SUM_MIN`` terms (where it is
    faster), for 2**26 terms or more, where sum|terms| could reach 2**1023
    (n * 2**max(e) could), where a bucket is not finite (an inf or nan
    term), and where every bucket sums to zero.
    """
    n = terms.size
    if n < _BUCKET_SUM_MIN or n >= 2 ** 26:
        return math.fsum(terms.tolist())
    m, e = np.frexp(terms)
    low, top = int(e.min()), int(e.max())
    if top + n.bit_length() > 1023:
        return math.fsum(terms.tolist())
    m *= 2.0 ** 26
    hi = np.trunc(m)
    with np.errstate(invalid="ignore"):  # inf - inf: the nan falls back below
        m -= hi
    m *= 2.0 ** 27  # lo
    e -= low
    exps = np.arange(low, top + 1)
    parts = np.concatenate((np.ldexp(np.bincount(e, weights=hi), exps - 26),
                            np.ldexp(np.bincount(e, weights=m), exps - 53)))
    parts = parts[parts != 0.0]
    if not parts.size or not np.isfinite(parts).all():
        return math.fsum(terms.tolist())
    return math.fsum(parts.tolist())


class TermBatch:
    """The modular terms mu(m) * phi(|p_m| / rho) of a batch of rows, and
    their sums: ``modular``, ``classify``, ``covering_check`` and the norm
    solver take every term and every modular from one.

    Each input row is a pair of arrays in canonical order: the indices m
    (as ``SeqVector._indices`` gives them) and |p_m| as floats;
    ``SeqVector._row`` gives a vector's.  One ``measures`` call on the
    joined indices covers the batch.  Each nonempty input row with finite
    measures is a row (at batch position ``pos[r]``, of length ``n[r]``) of
    padded arrays ``avals`` = |p_m| and ``mus`` = mu(m); padding is 0, so a
    padded term is exactly 0.  ``errors`` maps a failed row's position to
    its first ComputationOverflowError: a measure, else a scaled argument
    or a term ("<what> overflow at index <m> <where>"), else the sum
    ("modular sum overflow <where>") that leaves double range; ``where`` is
    the message suffix of the call that finds it.
    """

    def __init__(self, params: SpaceParams, rows):
        self.phi, self.size = params.phi, len(rows)
        lengths = [len(ms) for ms, _ in rows]
        mus, mu_errors = measures(params, np.concatenate([ms for ms, _ in rows]) if rows else ())
        self.errors = {}
        if mu_errors:
            owner = np.repeat(np.arange(len(rows)), lengths)
            for j, exc in mu_errors.items():  # in support order: a row keeps its first
                self.errors.setdefault(int(owner[j]), exc)
            mus = mus[~np.isin(owner, list(self.errors))]
        self.pos = [i for i, n in enumerate(lengths) if n and i not in self.errors]
        self.indices = [rows[i][0] for i in self.pos]
        n = [lengths[i] for i in self.pos]
        self.n = np.array(n, dtype=np.int64)
        filled = np.arange(max(n, default=0)) < self.n[:, None]
        self.avals, self.mus = np.zeros(filled.shape), np.zeros(filled.shape)
        if self.pos:
            self.avals[filled] = np.concatenate([rows[i][1] for i in self.pos])
            self.mus[filled] = mus

    def fail(self, r: int, exc) -> None:
        """Fail row r with exc, unless it has failed already."""
        self.errors.setdefault(self.pos[r], exc)

    def terms(self, rows, avals: np.ndarray, mus: np.ndarray, rho: np.ndarray, where: str):
        """Terms of ``rows`` at scales ``rho`` (``avals``, ``mus``: the arrays of
        ``rows``) and the mask of rows that overflowed, or None.  Such a row
        fails with the error naming its first offending index; its terms are
        0.  Callers hold np.errstate: overflow is an error, not a warning.
        With ``rows`` None nothing fails: rho then has a column per trial
        scale, ``avals`` and ``mus`` an axis of length 1 before their last,
        and the mask covers each (row, scale) cell.

        phi runs through ``_raw_eval`` directly, not ``eval``: the
        arguments are nonnegative, and the overflow scan zeroes each row that
        is not finite, so ``eval``'s point check would find nothing."""
        args = avals / rho[..., None]
        lost = None
        if not np.isfinite(args).all():
            lost = self._overflow(rows, args, "scaled argument", where)
            args[lost] = 0.0
        # terms overwrite args, read no more: a wide solve touches fewer fresh pages
        terms = np.multiply(mus, self.phi._raw_eval(args), out=args)
        if not np.isfinite(terms).all():
            more = self._overflow(rows, terms, "modular term", where)
            terms[more] = 0.0
            lost = more if lost is None else lost | more
        return terms, lost

    def _overflow(self, rows, values, what: str, where: str) -> np.ndarray:
        finite = np.isfinite(values)
        bad = ~finite.all(axis=-1)
        if rows is not None:
            for j in np.flatnonzero(bad).tolist():
                r = int(rows[j])
                m = int(self.indices[r][int(np.argmin(finite[j]))])
                self.fail(r, ComputationOverflowError(
                    f"{what} overflow at index {m} {where}", index=m))
        return bad

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def modulars(self, rho, where: str):
        """The modular of every input row at scale rho, one float or one per
        row, and ``errors``.  An empty row's modular is 0.0; each row's is
        ``exact_sum`` of its terms, and a sum past double range fails the
        row.  A row that has failed already keeps its first error and is not
        summed; the value of a row that failed is meaningless."""
        values = [0.0] * self.size
        rows = np.array([r for r, i in enumerate(self.pos) if i not in self.errors],
                        dtype=np.int64)
        rho = np.broadcast_to(rho, self.n.shape)[rows]
        terms, _ = self.terms(rows, self.avals[rows], self.mus[rows], rho, where)
        for r, row in zip(rows.tolist(), terms):
            try:
                values[self.pos[r]] = exact_sum(row[:self.n[r]])
            except OverflowError:
                self.fail(r, ComputationOverflowError(f"modular sum overflow {where}"))
        return values, self.errors


def modular(params: SpaceParams, p: SeqVector, rho: float) -> float:
    """Weighted modular sum_m mu(m) * phi(|p_m| / rho) at scale rho > 0:
    a ``TermBatch`` of one."""
    rho = _positive(rho, "scale rho")
    values, errors = TermBatch(params, [p._row()]).modulars(rho, f"for rho={rho:g}")
    if errors:
        raise errors[0]
    return values[0]


@dataclass(frozen=True)
class GeometricEnvelope:
    """The bound |p_m| <= amplitude * ratio**|m| on a sequence.

    An envelope describes the sequence only: a tail bound takes the measure
    majorant from the space it is given (``weight_poly_bound``), so no
    envelope carries one.  ``valid_from`` is the least truncation index a
    tail majorant may start from; ``dominates`` and ``classify``'s window
    still check every index against the bound.
    """

    amplitude: float
    ratio: float
    valid_from: int = 0

    def __post_init__(self):
        amp = float(self.amplitude)
        r = float(self.ratio)
        if not math.isfinite(amp) or amp < 0:
            raise DomainError("envelope amplitude must be finite and nonnegative")
        if not 0.0 < r < 1.0:
            raise DomainError("envelope ratio must lie strictly inside (0, 1)")
        valid_from = _whole(self.valid_from, 0, "valid_from must be a nonnegative integer")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "ratio", r)
        object.__setattr__(self, "valid_from", valid_from)

    def bound_at(self, m: int) -> float:
        """amplitude * ratio**|m|; 0.0 for |m| beyond double range."""
        return self.amplitude * self.ratio ** _magnitude(m)

    def dominates(self, p: SeqVector) -> bool:
        return all(abs(v) <= self.bound_at(m) * _ENVELOPE_SLACK for m, v in p.items)


@np.errstate(over="ignore")
def weight_poly_bound(params: SpaceParams):
    """Certified (W, a) with mu(m) <= W * (1 + |m|)**a for all m: the
    measure majorant of the space, which every tail bound reads.

    k <= 0 gives (sup w, 0).  Otherwise the generator states (base, a) with
    (1 + phi(m))**k <= base**k * (1 + m)**a (``_measure_majorant``), and W
    is sup w * base**k.  A generator that states none (the exponential
    families, whose measures grow faster than any polynomial, and by
    default a user's) raises CertificateError; so does a W past double
    range.
    """
    w_sup = params.weights.sup_w
    k = params.k
    if k <= 0:
        return w_sup, 0.0
    base, a = params.phi._measure_majorant(k)
    w = w_sup * float(np.float64(base) ** k)  # base ** k, but inf past double range
    if w == math.inf:
        raise CertificateError(f"measure majorant overflows double range at k={k:g}")
    return w, a


def _poly_geometric_tail(a: float, r: float, start: int) -> float:
    """Upper bound for sum_{m >= start} (1+m)**a * r**m via a ratio-test majorant.

    Consecutive-term ratios r*((m+2)/(m+1))**a decrease toward r, so once the
    current ratio q drops below (1+r)/2 < 1 the remaining tail is at most
    f(m) * q/(1-q).  A term or a ratio past double range makes the bound inf.
    """
    q_cap = 0.5 * (1.0 + r)
    m = start
    terms = []
    try:
        f = (1.0 + m) ** a * r ** m
        for _ in range(1_000_000):
            if f == 0.0 or f == math.inf:  # no more terms, or one past double range
                return math.fsum(terms) + f
            q = r * ((m + 2.0) / (m + 1.0)) ** a
            terms.append(f)
            if q <= q_cap:
                return math.fsum(terms) + f * q / (1.0 - q)
            f *= q
            m += 1
    except OverflowError:
        return math.inf
    raise CertificateError("tail ratio test failed to stabilize (ratio too close to 1)")


def modular_tail_bound(params: SpaceParams, envelope: GeometricEnvelope,
                       rho: float, trunc: int) -> float:
    """Certified upper bound on sum_{|m| > trunc} mu(m) * phi(|p_m|/rho)
    for every p dominated by the envelope in the space ``params``.

    The measures are bounded by the space's majorant W * (1 + |m|)**a from
    ``weight_poly_bound``, whose CertificateError a space with none raises.
    Uses phi(x) <= (phi(t*)/t*) * x for x <= t* (convexity through the
    origin) at t* = amplitude * ratio**trunc / rho, then sums the resulting
    polynomial-geometric majorant in closed form; a bound past double range
    is a ComputationOverflowError.
    """
    rho = _positive(rho, "scale rho")
    trunc = _whole(trunc, 1, "truncation index must be an integer >= 1")
    if trunc < envelope.valid_from:
        raise DomainError(
            f"truncation index {trunc} precedes envelope validity {envelope.valid_from}")
    coeff, expo = weight_poly_bound(params)
    if envelope.amplitude == 0.0:
        return 0.0
    t_star = envelope.bound_at(trunc) / rho
    if t_star == 0.0:
        # Every dominated tail value underflows, so all representable tails are 0.
        return 0.0
    slope = params.phi.eval(t_star) / t_star
    if math.isinf(slope):
        raise ComputationOverflowError(
            f"linearization point {t_star:g} overflows the generator; "
            "increase the truncation index or the scale")
    s = _poly_geometric_tail(expo, envelope.ratio, trunc + 1)
    bound = 2.0 * coeff * slope * (envelope.amplitude / rho) * s
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
    With an envelope the verdicts come from tail certificates, whose measure
    majorant is the space's: a space with none (``weight_poly_bound``)
    raises its CertificateError before domination is checked.  The modular
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
    weight_poly_bound(params)  # raises for a space with no majorant, before any scale
    if not envelope.dominates(p):
        bad = next(m for m, v in p.items if abs(v) > envelope.bound_at(m) * _ENVELOPE_SLACK)
        raise DomainError(f"envelope does not dominate the sequence at index {bad}")

    base_trunc = max(1, envelope.valid_from, p.max_abs_index)
    log_r = math.log(envelope.ratio)
    by_abs = []  # bound_at(|m|) for each |m| < len(by_abs), shared by every window

    def certify(rho: float) -> TailCertificate:
        trunc = base_trunc
        if envelope.amplitude > rho:
            # smallest M with amplitude * ratio**M <= rho, so t* <= 1
            need = math.ceil(math.log(rho / envelope.amplitude) / log_r)
            trunc = max(trunc, int(need))
        tail = modular_tail_bound(params, envelope, rho, trunc)
        if 2 * trunc + 1 > MAX_GRID_POINTS:
            return TailCertificate(rho, trunc, tail, None)
        # p's row, then the off-support window as one row in canonical order
        # (0, -1, 1, -2, 2, ...), each bound as bound_at gives it for its
        # |m|, by Python's pow, from which np.power can differ in the last
        # bit; a bound that underflows to 0 stays, so its measure is still
        # checked
        by_abs.extend(map(envelope.bound_at, range(len(by_abs), trunc + 1)))
        mags = np.arange(trunc + 1)
        ms = np.stack((-mags, mags), axis=1).ravel()[1:]
        bounds = np.array(by_abs[:trunc + 1])[np.abs(ms)]
        off = ~np.isin(ms, p._indices())
        rows = [p._row(), (ms[off], bounds[off])]
        values, errors = TermBatch(params, rows).modulars(rho, f"for rho={rho:g}")
        upper = math.inf if errors else values[0] + values[1] + tail
        return TailCertificate(rho, trunc, tail, upper if math.isfinite(upper) else None)

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
    "mu", "exact_sum", "modular", "GeometricEnvelope", "weight_poly_bound",
    "modular_tail_bound", "TailCertificate", "MembershipReport", "classify",
    "parse_orlicz",
]
