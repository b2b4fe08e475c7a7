"""Orlicz generator functions and their numeric certificates.

An Orlicz function is a continuous, non-decreasing, convex map
``phi: [0, oo) -> [0, oo)`` with ``phi(0) = 0``, ``phi(t) > 0`` for ``t > 0``
and ``phi(t) -> oo``.  Together these force strict monotonicity.  This module
provides the built-in families used throughout the package, numeric
validation of the defining axioms on probe grids, a probe for the doubling
condition at zero (``limsup_{t->0+} phi(2t)/phi(t) < oo``) and the local
scaling certificate ``phi(theta*t) <= c_theta * phi(t)`` on ``(0, t_theta]``.

Each generator has one evaluation, its numpy form ``_raw_eval`` on an array
(``eval`` on a float is a batch of one), so a value does not depend on the
batch it is computed in; overflow saturates to ``inf`` (consumers that need
finiteness convert that to an indexed error).  Each built-in family states a
bound on its error relative to the exact function.  Inverses
work on arrays of targets (``inverses``; the scalar ``inverse`` is a batch of
one): closed forms where the family admits one, otherwise a bisection on a
doubling bracket, whose roots each generator remembers.  ``_bisect`` is the
one bisection of the package: the generic inverse and the Luxemburg norm
solver both run it over their rows, and each row keeps the midpoints,
decisions, step count and stopping test of a scalar bisection.  Each
bracket it gets is at most one binade wide and closes within 53 halvings,
so it needs no step cap.  A plain round halves every row once.  Once the
rows are few and small, every round looks ahead instead: each row guesses
its root by a secant in log rho through the signed excess at its bracket
ends and lays out the midpoints the plain rounds would visit if that guess
holds, up to its own stop or the round's cell budget; one wide evaluation
decides every row's path.  The row then moves to its first decision that
differs from the guess, or to the end of its path.  Each decision is the same
comparison at the same midpoint as in a plain round, and the cells past it
are discarded, so every result is bit for bit that of the plain rounds,
whatever the guess.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import CertificateError, DomainError

GRID_POINTS_DEFAULT = 4096
MAX_GRID_POINTS = 2 ** 20  # desk scale: a grid of this size takes 8 MiB per array
SAFETY_FACTOR = 1.0 + 1e-6
_INVERSE_REL_WIDTH = 1e-15
_MAX_DOUBLINGS = 1100
_MAX_HALVINGS = 200  # the halving ladder's first part
_MEMO_ROOTS = 2 ** 16  # entries per memo: a generator's roots, a space's tail certificates
_PROBE_DEPTH = 1e-18  # log-uniform probe grids span [top*_PROBE_DEPTH, top]
_WINDOW_CELLS = 2 ** 13  # cells one look-ahead round of _bisect evaluates at most
_WINDOW_MIN = 8  # levels that budget must leave room for before a round looks ahead
_WINDOW_ROWS = 32  # rows a look-ahead round walks at most: beyond, plain rounds cost less
_NO_ROOTS = (np.empty(0), np.empty(0))  # an empty memo of the generic inverse


def _positive(value, what: str) -> float:
    """value as a float; one that is not finite and positive is a DomainError."""
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise DomainError(f"{what} must be finite and positive")
    return value


def _whole(value, least, message: str) -> int:
    """value as an int; one that is not a whole number of at least ``least``
    (an inf, a nan or a fraction included) is a DomainError(message)."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(message)


def _remember(memo: dict, key, value):
    """Store value under key in a memo and return it; as for the inverse's
    roots, a memo keeps at most ``_MEMO_ROOTS`` entries and a full one is
    cleared.  Only results are stored, never a raised error."""
    if len(memo) >= _MEMO_ROOTS:
        memo.clear()
    memo[key] = value
    return value


def _guess(l: float, h: float, e_lo: float, e_hi: float) -> float:
    """The predicted root in the bracket [l, h]: where the secant in log rho
    through (l, e_lo) and (h, e_hi) crosses 0, or the midpoint where that
    point is not in the bracket (an excess unknown, or of the wrong sign)."""
    try:
        g = l * (h / l) ** (e_lo / (e_lo - e_hi))
    except ArithmeticError:  # l = 0, e_lo = e_hi, or an overflow
        g = math.nan
    return g if l <= g <= h else 0.5 * (l + h)


def _bisect(lo, hi, width: float, split, carry, excess, cells: int = 1):
    """Bisect the brackets [lo[i], hi[i]]; each row takes the path of a
    scalar bisection and stops on its own.

    A row stops once hi - lo <= width*hi, or once mid = 0.5*(lo + hi) is
    not strictly inside.  Each step moves an end to a double strictly
    inside the bracket, so every row stops, whatever ``split`` decides.
    Callers hand over brackets at most one binade wide, which close within
    53 steps: [x, 2x] from the norm solver's doubling, [2**(j-1), 2**j]
    from the inverse's doubling, and [2**-(j+1), 2**-j] or [0, 2**-1074]
    from its halving ladder.  Writes the final brackets into lo and hi and
    returns them with each row's step count.  ``carry`` holds arrays with a
    row each, and ``cells`` the cells one row's split evaluates.

    ``split(mid, *carried)`` gets the open rows of each array in ``carry``.
    Given one mid per row it returns whether each row's root lies above mid
    (lo moves there, else hi does); the bisection knows no failure, so a
    row the caller has failed runs on to its own stop.  Given a
    (rows, levels) array of mids it decides each cell the same way, but
    without side effects: it returns the decisions, a signed excess
    (positive where the root lies above; it only guides the guess) and the
    cells it leaves undecided, or None.  ``excess`` holds the excess arrays
    at lo and at hi (nan where the caller does not know it).

    A plain round halves every open row once.  Once the open rows are at
    most ``_WINDOW_ROWS`` and their rows x cells leave room for
    ``_WINDOW_MIN`` levels in ``_WINDOW_CELLS``, every round looks ahead
    instead (``_look_ahead``); rows only leave, so that stays true.
    """
    rows, l, h = np.arange(lo.size), lo, hi
    steps = np.zeros(lo.size, dtype=np.int64)
    done = 0  # the plain rounds every open row has run
    while rows.size and (rows.size > _WINDOW_ROWS
                         or _WINDOW_CELLS // (rows.size * cells) < _WINDOW_MIN):
        mid = 0.5 * (l + h)
        go = (h - l > width * h) & (mid > l) & (mid < h)
        if not go.all():
            stop = rows[~go]
            lo[stop], hi[stop], steps[stop] = l[~go], h[~go], done
            rows, l, h, mid, *carry = (x[go] for x in (rows, l, h, mid, *carry))
            if not rows.size:
                break
        up = split(mid, *carry)
        l, h, done = np.where(up, mid, l), np.where(up, h, mid), done + 1
    # each open row's excess at l and at h; a plain round moved the ends past it
    ends = (zip(*(e.tolist() for e in excess)) if not done
            else repeat((math.nan, math.nan)))
    state = list(zip(l.tolist(), h.tolist(), repeat(done), ends))
    while rows.size:
        rows, state, carry = _look_ahead(lo, hi, steps, rows, state, carry, width, split,
                                         _WINDOW_CELLS // (rows.size * cells))
    return lo, hi, steps


def _look_ahead(lo, hi, steps, rows, state, carry, width: float, split, budget: int):
    """One look-ahead round of ``_bisect``: the open rows, their state and
    their carried arrays after it, with the stopped rows written out.

    A row's state is the tuple (lo, hi, steps, (excess at lo, excess at
    hi)).  Each row guesses its root (``_guess``) and lays out the
    midpoints that plain rounds visit if the guess holds, in their float
    steps (Python's are IEEE's, as numpy's), up to its stop or ``budget``
    levels.  One call of ``split`` evaluates every row's path, padded to
    the longest, and each row then walks its own: every decision is the
    one a plain round makes at the same midpoint, a cell split left
    undecided goes to split's one-midpoint form, and the walk ends
    at the first decision that differs from the guess, or at the end of the
    path, where a path shorter than the budget stops the row.  Cells beyond
    that are discarded, so the result does not depend on the guess.
    """
    guesses, paths, pads = [], [], []
    for a, b, _, (e_lo, e_hi) in state:
        g, path = _guess(a, b, e_lo, e_hi), []
        for _ in range(budget):
            m = 0.5 * (a + b)
            if not (b - a > width * b and a < m < b):
                break
            path.append(m)
            if m < g:
                a = m
            else:
                b = m
        guesses.append(g)
        paths.append(path)
        pads.append(b)
    levels = max(map(len, paths))
    up = excess = undecided = repeat(())  # no cell: every row stops
    if levels:
        mids = []
        for path, b in zip(paths, pads):
            mids += path
            mids += repeat(b, levels - len(path))  # cells no plain round would visit
        up, excess, undecided = split(np.array(mids).reshape(rows.size, levels), *carry)
        up, excess = up.tolist(), excess.tolist()
        undecided = undecided.tolist() if undecided is not None else repeat(repeat(False))
    keep, stop, kept = [], [], []
    for i, (path, g, ups, exs, vague) in enumerate(zip(paths, guesses, up, excess, undecided)):
        a, b, n, (e_lo, e_hi) = state[i]
        for j, (m, u, e, v) in enumerate(zip(path, ups, exs, vague)):
            if v:
                u = bool(split(np.array([m]), *(x[i:i + 1] for x in carry))[0])
            if u:
                a, e_lo = m, e
            else:
                b, e_hi = m, e
            if u != (m < g):
                keep.append(i)
                kept.append((a, b, n + j + 1, (e_lo, e_hi)))
                break
        else:
            if len(path) < budget:  # the row stops
                stop.append((rows[i], a, b, n + len(path)))
            else:
                keep.append(i)
                kept.append((a, b, n + len(path), (e_lo, e_hi)))
    if stop:
        r, lo[r], hi[r], steps[r] = (np.array(x) for x in zip(*stop))
    return rows[keep], kept, [x[keep] for x in carry]


def _csv_rows(path, kind: str, shape: str, parse) -> list:
    """``parse(row)`` of each row of the CSV file ``path`` with a nonblank
    field; a row that does not fit ``shape`` (e.g. 'm,re,im') or that
    ``parse`` rejects, a blank first field included, raises a DomainError
    naming the file, the line and the shape."""
    out = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in filter(lambda row: any(f.strip() for f in row), reader):
                try:
                    if len(row) != shape.count(",") + 1:
                        raise ValueError(f"{len(row)} fields")
                    out.append(parse(row))
                except ValueError as exc:
                    raise DomainError(f"bad row at line {reader.line_num} of {kind} "
                                      f"{path!r}: expected '{shape}', got {row!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {kind} {path!r}: {exc}") from exc
    return out


def _check_point(t: np.ndarray) -> np.ndarray:
    """Validate evaluation points: every entry finite and >= 0."""
    bad = t[~((t >= 0) & (t < math.inf))]
    if bad.size:
        raise DomainError(f"evaluation point must be finite and nonnegative, got {float(bad[0])}")
    return t


class OrliczFunction:
    """Base class for Orlicz generators.

    A subclass defines ``_raw_eval(t)`` on an array of finite nonnegative
    points and ``descriptor``.  ``_raw_eval`` is the generator's one
    evaluation: ``eval``, the generic inverse, ``spaces.measures``, the
    norm engine and the probes all call it, so a value must not depend on
    the batch it is in, nor on the array's shape or strides.  A subclass may
    override ``_invert`` with a closed form: given an array of finite
    nonnegative targets, it returns an array of their roots, nan where a
    target has none, and ``inverses`` names the errors.  ``inverses``, the
    norm engine and ``ExpCompose`` call ``_invert``, so an override of
    ``inverse`` alone is not seen by them.  ``eval`` (alias ``__call__``)
    takes a float or a numpy array.

    Each built-in family states a bound on its error relative to the exact
    function, in u = 2**-53, the unit roundoff of a double.  A bound holds
    where phi(t) is a normal double; it takes numpy's ``power`` and
    ``expm1`` to within one ulp (2u), and the test suite checks it against
    mpmath.

    A generator is an immutable value.  It remembers, on the instance, the
    roots its generic inverse has found; a user generator changed after its
    first use keeps them, so build a new one instead.

    What is proven about a family lives on its class, as two facts:
    ``_measure_majorant`` (every tail bound reads it) and ``_theta_constant``
    (``theta_bound`` reads it).  Their defaults mean "unknown".  A subclass
    inherits them, so one that changes ``_raw_eval`` overrides the facts it
    invalidates.
    """

    def _raw_eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _measure_majorant(self, k: float):
        """(base, a) with (1 + phi(m))**k <= base**k * (1 + m)**a for every
        m >= 0 at order k > 0; unknown by default, a CertificateError."""
        raise CertificateError(f"no measure majorant rule for {type(self).__name__}")

    def _theta_constant(self, theta: float):
        """sup over t > 0 of phi(theta*t)/phi(t) in closed form, inf past double
        range, raising no floating-point warning; None (the default) if unknown."""
        return None

    def eval(self, t):
        """phi(t): ``_raw_eval`` on the array, or on a batch of one for a
        float, which gives a float back."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if isinstance(t, np.ndarray):
                return self._raw_eval(_check_point(t))
            return float(self._raw_eval(_check_point(np.array([float(t)])))[0])

    __call__ = eval

    def descriptor(self) -> str:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        """Solve phi(t) = y for t >= 0: ``inverses`` on a batch of one.

        Raises the target's DomainError or CertificateError.
        """
        t, errors = self.inverses([y])
        if errors:
            raise errors[0]
        return float(t[0])

    def inverses(self, ys):
        """Solve phi(t) = y for every target y; a failing target stops no other.

        Returns ``(t, errors)``: ``t[i]`` solves the i-th target, and
        ``errors`` maps the position of each target that has no solution to
        its typed error (``t`` is nan there).  The finite nonnegative targets
        go to ``_invert``, and this is the one place their errors are named:
        a target that is not finite and nonnegative gets a DomainError, one
        whose root ``_invert`` gives as nan a CertificateError.

        Accuracy of the generic bisection: the bracket [lo, hi] starts at
        [0, 1], or at [2**(j-1), 2**j] for the first j with phi(2**j) >= y,
        and halves until its relative width is at most 1e-15 or its midpoint
        is not strictly inside; ``hi`` is returned.  A halving ladder takes
        [0, 1] to one binade first, so ``_bisect`` runs at most 53 halvings.
        Every root a double can hold gets there, down to the smallest double
        2**-1074: a normal root is within 1e-15 relative of where phi, as
        computed, crosses y, and a subnormal one a neighbouring double
        (``ExpLinear().inverse(1e-152)`` is 1.4142135623730954e-76).  Where phi's values are subnormal, their
        own rounding moves that crossing.

        Each target takes its own doubling, prefix and bisection path, so a
        root does not depend on the batch it is solved in.  That is what lets
        the generic inverse serve a target it has solved before from its
        memo, bit for bit the root a fresh bisection would give.
        """
        ys = np.array(ys, dtype=float).ravel()
        t = np.full(ys.size, math.nan)
        ok = (ys >= 0.0) & (ys < math.inf)
        t[ok] = self._invert(ys[ok])
        errors = {}
        for i in np.flatnonzero(np.isnan(t)).tolist():
            if ok[i]:
                errors[i] = CertificateError("inverse target has no root in double range")
            else:
                errors[i] = DomainError(
                    f"inverse target must be finite and nonnegative, got {float(ys[i])!r}")
        return t, errors

    def _invert(self, y: np.ndarray) -> np.ndarray:
        """``inverses`` on finite nonnegative targets: the root of each, nan
        where a target has none.

        The generic inverse: the targets this generator has solved before
        come from its memo, and only the others are bisected.  The memo is a
        sorted array of targets and one of their roots, searched with
        ``np.searchsorted`` (fastest on sorted targets, as a batch's are).
        A new root is stored, a nan one is not; at most
        ``_MEMO_ROOTS`` roots are kept, and a full memo is cleared.
        """
        keys, roots = self.__dict__.get("_inverse_roots", _NO_ROOTS)
        if keys.size:
            at = np.searchsorted(keys, y).clip(max=keys.size - 1)
            t = roots[at]
            t[keys[at] != y] = math.nan
        else:
            t = np.full(y.size, math.nan)
        miss = np.flatnonzero(np.isnan(t))
        if not miss.size:
            return t
        t[miss] = self._bisect_roots(y[miss])
        solved = miss[~np.isnan(t[miss])]  # nan: the target failed
        new, first = np.unique(y[solved], return_index=True)  # a repeat is stored once
        found = t[solved][first]
        if keys.size + new.size > _MEMO_ROOTS:
            keys, roots = _NO_ROOTS
            new, found = new[:_MEMO_ROOTS], found[:_MEMO_ROOTS]
        at = np.searchsorted(keys, new)
        self.__dict__["_inverse_roots"] = np.insert(keys, at, new), np.insert(roots, at, found)
        return t

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def _bisect_roots(self, y: np.ndarray) -> np.ndarray:
        """The generic bisection of ``_invert``: the root of every target, nan
        where phi stays below it up to the largest double.

        The bracket ends are powers of two shared by every target still
        doubling, so each doubling step evaluates phi once.  A target
        bracketed by [0, 1] first halves hi through 2**-1, 2**-2, ... while
        phi there is not below it: the first j whose running minimum of
        phi(2**-i), i <= j, is below the target ends that target's prefix, so
        no monotone phi is assumed.  The ladder runs to 2**-200, and on to
        2**-1074 only in a call with a target that phi(2**-200) is not below.
        ``_bisect`` then runs every target from the bracket its ladder hands
        over, through ``_raw_eval``, with the path and accuracy of a scalar
        bisection; each bracket is one binade wide, or [0, 2**-1074], so it
        closes within 53 halvings.  Its guesses start from the excess
        log y - log phi at the bracket ends, which the doubling and the ladder
        have evaluated.
        """
        t = np.where(y > 0.0, 1.0, 0.0)  # each upper bracket end, then each root
        live = np.flatnonzero(t)
        top, tops = 1.0, []  # tops[j] = phi(2**j)
        while live.size:  # ends: top reaches inf after 1024 doublings
            tops.append(self._raw_eval(np.array([top]))[0])
            live = live[~(tops[-1] >= y[live])]
            top *= 2.0
            if math.isinf(top):
                break
            t[live] = top
        t[live] = math.nan  # phi stays below the target up to the largest double
        live = np.flatnonzero(t > 0.0)
        h, target = t[live], y[live]
        lo = np.where(h == 1.0, 0.0, h / 2.0)
        unit = np.flatnonzero(h == 1.0)
        at = np.empty(0)  # phi(2**-i), i = 1, 2, ...
        if unit.size:
            # halvings that keep hi: the leading j with min phi(2**-i) >= target;
            # a nan phi is not below the target, as in the comparison below
            at = self._raw_eval(np.ldexp(1.0, -np.arange(1, _MAX_HALVINGS + 1)))
            floor = np.minimum.accumulate(np.where(np.isnan(at), math.inf, at))
            if floor[-1] >= target[unit].min():
                # a target phi(2**-i) has not fallen below yet: the ladder
                # goes on to 2**-1074, the smallest positive double
                at = np.concatenate((at, self._raw_eval(
                    np.ldexp(1.0, -np.arange(_MAX_HALVINGS + 1, 1075)))))
                floor = np.minimum.accumulate(np.where(np.isnan(at), math.inf, at))
            keep = np.searchsorted(-floor, -target[unit], side="right")
            h[unit] = np.ldexp(1.0, -keep)
            lo[unit] = np.ldexp(1.0, -keep - 1)  # 2**-1075 rounds to 0
        # phi at the bracket ends, which are 0 or powers of two evaluated above
        ends = np.concatenate((lo, h))
        known = np.concatenate((at[::-1], tops))[np.frexp(ends)[1] - 1 + at.size]
        with np.errstate(divide="ignore"):
            excess = np.split(np.log(np.tile(target, 2))
                              - np.log(np.where(ends > 0.0, known, 0.0)), 2)

        def split(mid, target):  # see _bisect
            if mid.ndim == 1:
                return self._raw_eval(mid) < target
            f = self._raw_eval(mid.ravel()).reshape(mid.shape)
            with np.errstate(divide="ignore"):
                return f < target[:, None], np.log(target[:, None]) - np.log(f), None

        t[live] = _bisect(lo, h, _INVERSE_REL_WIDTH, split, (target,), excess)[1]
        return t

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.descriptor()}]"


@dataclass(frozen=True, repr=False)
class Power(OrliczFunction):
    """phi(t) = t**s for a fixed exponent s >= 1, by numpy's power.

    Relative error at most 2u.
    """

    s: float = 2.0

    def __post_init__(self):
        s = float(self.s)
        if not math.isfinite(s) or s < 1.0:
            raise DomainError(f"power exponent must be finite and >= 1, got {self.s!r}")
        object.__setattr__(self, "s", s)

    def _raw_eval(self, t):
        return t ** self.s

    def _invert(self, y: np.ndarray) -> np.ndarray:
        return y ** (1.0 / self.s)

    def _measure_majorant(self, k: float):
        return 2.0, self.s * k  # 1 + m**s <= 2 * max(1, m)**s

    @np.errstate(over="ignore", under="ignore")
    def _theta_constant(self, theta: float):
        return float(np.power(theta, self.s))  # exact for every t

    def descriptor(self) -> str:
        return f"power:{self.s:.17g}"


def _superpolynomial(phi, k: float):
    """The measure majorant of an exponential family: none exists at k > 0."""
    raise CertificateError("measure grows superpolynomially (exponential generator "
                           "with k > 0); no polynomial majorant exists")


@dataclass(frozen=True, repr=False)
class ExpSquare(OrliczFunction):
    """phi(t) = exp(t^2) - 1, computed as expm1(t*t) to keep small-t accuracy.

    Relative error at most (t^2 + 3)u: expm1 amplifies the rounding of t*t
    by at most 1 + t^2, and adds its own.
    """

    def _raw_eval(self, t):
        return np.expm1(t * t)

    def _invert(self, y: np.ndarray) -> np.ndarray:
        return np.sqrt(np.log1p(y))

    _measure_majorant = _superpolynomial

    def descriptor(self) -> str:
        return "expsq"


# Taylor coefficients 1/n! for n = 20..2, highest degree first.  The tail past
# degree 20 is below 2*t**19/21! * 22/21.5 of phi(t) >= t*t/2, at most 7.7e-26
# relative on [0, 1/2].
_EXPLIN_COEFFS = tuple(1.0 / math.factorial(n) for n in range(20, 1, -1))
_EXPLIN_SWITCH = 0.5


def _explin_series(x):
    """sum_{n=2}^{20} x^n/n! by Horner's rule, in one array updated in place."""
    y = np.full(x.shape, _EXPLIN_COEFFS[0])
    for c in _EXPLIN_COEFFS[1:]:
        y *= x
        y += c
    y *= x
    y *= x
    return y


@dataclass(frozen=True, repr=False)
class ExpLinear(OrliczFunction):
    """phi(t) = exp(t) - t - 1.

    Direct evaluation loses all relative accuracy as t -> 0 (the difference
    is O(t^2) while exp(t) is O(1)), so at or below t = 1/2 the Taylor
    polynomial sum_{n=2}^{20} t^n/n! is used instead, by Horner's rule, and
    expm1(t) - t above.  The terms past degree 20 are below 7.7e-26 of
    phi(t) on [0, 1/2], far under one rounding.

    Relative error at most 10u.  The polynomial sums positive terms; above
    1/2 the difference amplifies expm1's error by expm1(t)/(expm1(t) - t),
    which is at most 4.4.
    """

    def _raw_eval(self, t):
        small = t <= _EXPLIN_SWITCH
        if small.all():  # the common case: no gather or scatter
            return _explin_series(t)
        out = np.empty(t.shape)
        if small.any():
            out[small] = _explin_series(t[small])
        x = t[~small]
        out[~small] = np.expm1(x) - x
        return out

    _measure_majorant = _superpolynomial

    def descriptor(self) -> str:
        return "explin"


@dataclass(frozen=True, repr=False)
class ExpCompose(OrliczFunction):
    """phi(t) = exp(inner(t)) - 1 for an inner Orlicz function.

    Relative error at most (1 + inner(t)) * e(t) + 2u, where e(t) is the
    inner generator's bound: expm1 amplifies an error of its argument x by
    at most 1 + x.
    """

    inner: OrliczFunction

    def __post_init__(self):
        if not isinstance(self.inner, OrliczFunction):
            raise DomainError("inner generator must be an OrliczFunction")

    def _raw_eval(self, t):
        return np.expm1(self.inner._raw_eval(t))

    def _invert(self, y: np.ndarray) -> np.ndarray:
        # exp(inner(t)) - 1 = y  <=>  inner(t) = log1p(y), both sides monotone
        return self.inner._invert(np.log1p(y))

    _measure_majorant = _superpolynomial

    def descriptor(self) -> str:
        return f"expof:{self.inner.descriptor()}"


class TabulatedConvex(OrliczFunction):
    """Piecewise-linear interpolant through knots, extrapolated at the final slope.

    Knots must start at (0, 0) with strictly increasing abscissae and finite
    nonnegative values.  Monotonicity and convexity are deliberately not
    enforced here; validate_orlicz reports on them so that defective tables
    can be diagnosed rather than rejected unseen.

    Evaluated by np.interp, which returns each knot value exactly.  Between
    knots and past the last one, a table whose values are nondecreasing has
    relative error at most 6u: a slope from two differences and a quotient,
    its product with the distance to the knot, and a sum of nonnegative
    terms.  A falling segment can cancel, and has no relative bound.
    """

    def __init__(self, knots):
        pts = [(float(t), float(v)) for t, v in knots]
        if len(pts) < 2:
            raise DomainError("tabulated generator needs at least two knots")
        if pts[0] != (0.0, 0.0):
            raise DomainError("first knot must be (0, 0)")
        ts = [t for t, _ in pts]
        vs = [v for _, v in pts]
        if any(not math.isfinite(t) for t in ts) or any(not math.isfinite(v) or v < 0 for v in vs):
            raise DomainError("knots must be finite with nonnegative values")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("knot abscissae must be strictly increasing")
        self._ts = np.array(ts)
        self._vs = np.array(vs)
        self._final_slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])

    @property
    def knots(self):
        return tuple(zip(self._ts.tolist(), self._vs.tolist()))

    @classmethod
    def from_csv(cls, path) -> "TabulatedConvex":
        return cls(_csv_rows(path, "knot table", "t,value",
                             lambda row: (float(row[0]), float(row[1]))))

    def _raw_eval(self, t):
        ts, vs = self._ts, self._vs
        inside = np.interp(t, ts, vs)
        beyond = vs[-1] + self._final_slope * (t - ts[-1])
        return np.where(t > ts[-1], beyond, inside)

    def _measure_majorant(self, k: float):
        # phi is at most its largest knot value up to the last knot, and
        # linear past it, so 1 + phi(m) <= base * (1 + m)
        return 1.0 + float(self._vs.max()) + max(self._final_slope, 0.0), k

    def descriptor(self) -> str:
        body = ";".join(f"{t:.17g},{v:.17g}" for t, v in self.knots)
        return f"tab[{body}]"

    def __eq__(self, other):
        return isinstance(other, TabulatedConvex) and self.knots == other.knots

    def __hash__(self):
        return hash(self.knots)


def parse_orlicz(descriptor: str) -> OrliczFunction:
    """Build a generator from a descriptor string.

    Grammar: ``power:<s>``, ``expsq``, ``explin``, ``expof:<descriptor>``
    (recursive) and ``tab:<csv-path>``.
    """
    desc = descriptor.strip()
    if desc == "expsq":
        return ExpSquare()
    if desc == "explin":
        return ExpLinear()
    if desc.startswith("power:"):
        try:
            return Power(float(desc[len("power:"):]))
        except ValueError as exc:
            raise DomainError(f"bad power descriptor {descriptor!r}") from exc
    if desc.startswith("expof:"):
        return ExpCompose(parse_orlicz(desc[len("expof:"):]))
    if desc.startswith("tab:"):
        return TabulatedConvex.from_csv(desc[len("tab:"):])
    raise DomainError(f"unknown function descriptor {descriptor!r}")


def default_probe_grid(n: int = 256, lo: float = 1e-6, hi: float = 10.0) -> np.ndarray:
    """Geometric probe grid used by validate_orlicz when none is supplied."""
    message = "probe grid needs n >= 2 and 0 < lo < hi < oo"
    n = _whole(n, 2, message)
    if not 0 < lo < hi or not math.isfinite(hi):
        raise DomainError(message)
    return np.geomspace(lo, hi, n)


def _probe_grid(top: float, n: int, name: str) -> np.ndarray:
    """Log-uniform grid of n points over [top*_PROBE_DEPTH, top].

    A positive ``top`` so small that its low end underflows to 0 leaves no
    geometric grid; that raises DomainError naming ``name`` and its value.
    """
    lo = top * _PROBE_DEPTH
    if lo == 0:
        raise DomainError(f"{name}={top:g} is too small: the probe grid from "
                          f"{name}*{_PROBE_DEPTH:g} underflows to 0")
    return np.geomspace(lo, top, n)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the axiom probes, with the first offending point per axiom."""

    zero_at_zero: bool
    strictly_increasing: bool
    midpoint_convex: bool
    divergent: bool
    violations: tuple = ()

    @property
    def all_pass(self) -> bool:
        return (self.zero_at_zero and self.strictly_increasing
                and self.midpoint_convex and self.divergent)


def validate_orlicz(phi: OrliczFunction, grid=None, divergence_target: float = 1e9) -> ValidationReport:
    """Probe the Orlicz axioms on a grid.

    Checks phi(0) = 0 exactly, strict increase across consecutive probes,
    midpoint convexity on consecutive pairs (with relative rounding slack),
    and divergence by doubling past the grid maximum until the value clears
    ``divergence_target``.  Grid checks cannot prove the axioms, only refute
    them; the built-in families are convex by construction.
    """
    if grid is None:
        grid = default_probe_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise DomainError("probe grid must be nonempty, positive and finite")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("probe grid must be strictly increasing")

    violations = []
    zero_ok = phi.eval(0.0) == 0.0
    if not zero_ok:
        violations.append(("zero_at_zero", 0.0, phi.eval(0.0)))

    vals = phi.eval(grid)
    bad = np.flatnonzero(~(vals[1:] > vals[:-1]))
    mono_ok = not bad.size
    if bad.size:
        i = bad[0] + 1
        violations.append(("strictly_increasing", float(grid[i]), float(vals[i])))

    mids = 0.5 * (grid[:-1] + grid[1:])
    mid_vals = phi.eval(mids)
    chord = 0.5 * (vals[:-1] + vals[1:])
    bad = np.flatnonzero(mid_vals > chord + 1e-12 * (1.0 + np.abs(vals[:-1]) + np.abs(vals[1:])))
    convex_ok = not bad.size
    if bad.size:
        i = bad[0]
        violations.append(("midpoint_convex", float(mids[i]), float(mid_vals[i] - chord[i])))

    # the doublings grid[-1] * 2**i up to the first that overflows, in one call
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ladder = np.ldexp(grid[-1], np.arange(_MAX_DOUBLINGS + 1))
        n = min(_MAX_DOUBLINGS, int(np.count_nonzero(ladder < math.inf)))
        div_ok = bool(np.any(phi._raw_eval(ladder[:n]) > divergence_target))
    if not div_ok:
        violations.append(("divergent", float(ladder[n]), divergence_target))

    return ValidationReport(zero_ok, mono_ok, convex_ok, div_ok, tuple(violations))


@dataclass(frozen=True)
class GeometricProbe:
    """Dyadic probe schedule t_j = t_start * 2**(-j), j = 0..depth."""

    t_start: float = 1.0
    depth: int = 60

    def __post_init__(self):
        if not (0 < self.t_start <= 1.0) or not math.isfinite(self.t_start):
            raise DomainError("t_start must lie in (0, 1]")
        depth = _whole(self.depth, 20, "probe depth must be an integer >= 20")
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class Delta2Report:
    """Estimate of limsup_{t->0+} phi(2t)/phi(t) from a dyadic probe."""

    probes: tuple
    ratios: tuple
    sup_ratio: float
    limsup_estimate: float
    holds: bool
    truncated: bool

    @property
    def probes_used(self) -> int:
        return len(self.ratios)


def delta2_at_zero(phi: OrliczFunction, probe: GeometricProbe | None = None) -> Delta2Report:
    """Probe the doubling condition at zero along t_j = t_start * 2**(-j).

    The limsup estimate is the maximum ratio over the last quarter of the
    schedule.  ``holds`` additionally requires every ratio to be finite and
    the last quarter not to exceed the preceding quarter (no upward trend as
    t -> 0), so functions whose ratio blows up are flagged even though a
    finite probe can never prove the limsup finite.  ``probe`` None is the
    default probe.
    """
    probe = GeometricProbe() if probe is None else probe
    # t_start * 2**-j is 0 from j = 1075 on, where phi(0) = 0 ends the probe
    ts = probe.t_start * np.ldexp(1.0, -np.arange(min(probe.depth, 1075) + 1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ft, f2t = np.split(phi._raw_eval(np.concatenate((ts, 2.0 * ts))), 2)
        stop = np.flatnonzero((ft == 0.0) | np.isinf(ft))
        used = int(stop[0]) if stop.size else ts.size
        ratios = (f2t[:used] / ft[:used]).tolist()
    ts = ts[:used].tolist()
    if not ratios:
        return Delta2Report((), (), math.nan, math.nan, False, True)
    sup_ratio = max(ratios)
    q = max(1, len(ratios) // 4)
    last = ratios[-q:]
    prev = ratios[-2 * q:-q] or last
    estimate = max(last)
    holds = math.isfinite(sup_ratio) and max(last) <= max(prev) * (1.0 + 1e-3)
    return Delta2Report(tuple(ts), tuple(ratios), sup_ratio, estimate, holds,
                        stop.size > 0)


@dataclass(frozen=True)
class ThetaBound:
    """Certified constant with phi(theta*t) <= c_theta * phi(t) on (0, t_theta]."""

    theta: float
    c_theta: float
    t_theta: float

    def __post_init__(self):
        for name in ("theta", "c_theta", "t_theta"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))


def theta_bound(phi: OrliczFunction, theta: float, t_theta: float,
                grid_points: int = GRID_POINTS_DEFAULT) -> ThetaBound:
    """Certify phi(theta*t) <= c_theta*phi(t) on (0, t_theta] via a grid sup.

    A generator that states its ``_theta_constant`` gets that constant, which
    holds for every t; otherwise c_theta is the supremum of the ratio over a
    log-uniform grid.  Either is inflated by the 1+1e-6 safety factor, so a
    grid certificate survives re-validation at off-grid points of smooth
    families; a stated constant needs none, but is still inflated.  A
    c_theta that underflows to 0 (a stated constant, or every grid ratio,
    below the smallest double) is rounded up to 2**-1074.
    Overflowing or empty ratios raise CertificateError (the bound cannot be
    certified at this t_theta); so does a theta*t_theta past double range,
    where the grid cannot evaluate phi.
    """
    theta = _positive(theta, "theta")
    t_theta = _positive(t_theta, "t_theta")
    grid_points = _whole(grid_points, 16, "grid_points must be at least 16")
    if grid_points > MAX_GRID_POINTS:
        raise DomainError(f"grid_points must be at most {MAX_GRID_POINTS}")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ratios = phi._theta_constant(theta)
        if ratios is None and theta * t_theta == math.inf:
            ratios = math.inf  # phi cannot be evaluated there: the ratio overflows
        elif ratios is None:
            ts = _probe_grid(t_theta, grid_points, "t_theta")
            num = phi.eval(theta * ts)
            den = phi.eval(ts)
            mask = den > 0
            if not np.any(mask):
                raise CertificateError("generator underflows on the whole probe grid")
            ratios = num[mask] / den[mask]
    c_theta = SAFETY_FACTOR * float(np.max(ratios))
    if not math.isfinite(c_theta):
        raise CertificateError(
            f"scaling ratio overflows on (0, {t_theta:g}] at theta={theta:g}")
    # a ratio that underflowed to 0 rounds up: an upper bound stays one
    c_theta = max(c_theta, math.ulp(0.0))
    return ThetaBound(theta, c_theta, t_theta)
