"""Orlicz generator functions and their numeric certificates.

An Orlicz function is a continuous, non-decreasing, convex map
``phi: [0, oo) -> [0, oo)`` with ``phi(0) = 0``, ``phi(t) > 0`` for ``t > 0``
and ``phi(t) -> oo``.  Together these force strict monotonicity.  This module
provides the built-in families used throughout the package, numeric
validation of the defining axioms on probe grids, a probe for the doubling
condition at zero (``limsup_{t->0+} phi(2t)/phi(t) < oo``) and the local
scaling certificate ``phi(theta*t) <= c_theta * phi(t)`` on ``(0, t_theta]``.

Each generator evaluates exactly through ``_eval_exact`` on an array (``eval``
on a float is a batch of one) and fast through its numpy form ``_raw_eval``
(``eval`` on an array); overflow saturates to ``inf`` (consumers that need
finiteness convert that to an indexed error).  Inverses
work on arrays of targets (``inverses``; the scalar ``inverse`` is a batch of
one): closed forms where the family admits one, otherwise a bisection on a
doubling bracket.  ``_bisect`` is the one bisection of the package: the
generic inverse and the Luxemburg norm solver both run it, in lock-step over
their rows, while each row keeps the bracket, step count and stopping test
of a scalar bisection.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DomainError

GRID_POINTS_DEFAULT = 4096
MAX_GRID_POINTS = 2 ** 20  # desk scale: a grid of this size takes 8 MiB per array
SAFETY_FACTOR = 1.0 + 1e-6
_INVERSE_REL_WIDTH = 1e-15
_MAX_DOUBLINGS = 1100
_MAX_HALVINGS = 200  # bisection steps of one generic inverse
_PROBE_DEPTH = 1e-18  # log-uniform probe grids span [top*_PROBE_DEPTH, top]


def _safe_expm1(x: float) -> float:
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _safe_pow(base: float, exp: float) -> float:
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def _bisect(lo, hi, steps, width: float, cap: int, split, carry=()):
    """Bisect the brackets [lo[i], hi[i]] in lock-step; each row stops on its own.

    Each round halves the open rows at mid = 0.5*(lo + hi); ``split(mid,
    *carried)``, given the open rows of each array in ``carry``, returns the
    rows whose root lies above mid (lo moves there, else hi does) and the
    rows to drop, or None.  A row stops once hi - lo <= width*hi, once mid is
    not strictly inside, or after ``cap`` steps counted from ``steps[i]``.
    Writes the final brackets and step counts into lo, hi and steps, which it
    returns; a dropped row keeps its input values.
    """
    rows, l, h = np.arange(lo.size), lo, hi
    # done: the rounds every open row has run; no row meets its cap before soonest
    soonest, done = cap - steps.max(initial=0), 0
    while rows.size:
        mid = 0.5 * (l + h)
        go = (h - l > width * h) & (mid > l) & (mid < h)
        if done >= soonest:
            go &= steps[rows] + done < cap
        if not go.all():
            stop = rows[~go]
            lo[stop], hi[stop] = l[~go], h[~go]
            steps[stop] += done
            rows, l, h, mid, *carry = (x[go] for x in (rows, l, h, mid, *carry))
            if not rows.size:
                break
        up, drop = split(mid, *carry)
        l, h, done = np.where(up, mid, l), np.where(up, h, mid), done + 1
        if drop is not None:
            rows, l, h, *carry = (x[~drop] for x in (rows, l, h, *carry))
    return lo, hi, steps


def _csv_rows(path, kind: str, shape: str, parse) -> list:
    """``parse(row)`` of each nonblank row of the CSV file ``path``; a row that
    does not fit ``shape`` (e.g. 'm,re,im') or that ``parse`` rejects raises a
    DomainError naming the file, the line and the shape."""
    out = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in filter(lambda row: row and row[0].strip(), reader):
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
    points and ``descriptor``.  ``_eval_exact`` is the reference evaluation;
    it defaults to ``_raw_eval`` and is overridden only where numpy rounds
    differently from the reference formula.  A subclass may override
    ``_invert`` with a closed form.  ``inverses``, the norm engine and
    ``ExpCompose`` call ``_invert``, so an override of ``inverse`` alone is
    not seen by them.  ``eval`` (alias ``__call__``) takes a float or a
    numpy array.
    """

    def _raw_eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_exact(self, t: np.ndarray) -> np.ndarray:
        """phi at each entry of t by the reference formula.

        The entries are finite and nonnegative.  ``eval`` on a float, the
        generic inverse, ``spaces.measures`` and the probes evaluate through
        this method, so a value does not depend on the batch it is in.
        """
        return self._raw_eval(t)

    def eval(self, t):
        """phi(t): ``_eval_exact`` on a batch of one for a float, a float back;
        the numpy form ``_raw_eval`` for an array."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if isinstance(t, np.ndarray):
                return self._raw_eval(_check_point(t))
            return float(self._eval_exact(_check_point(np.array([float(t)])))[0])

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
        its typed error (``t`` is nan there).  A target that is not finite
        and nonnegative gets a DomainError, one whose bracket cannot close a
        CertificateError.

        Accuracy of the generic bisection: the bracket [lo, hi] starts at
        [0, 1], or at [2**(j-1), 2**j] for the first j with phi(2**j) >= y,
        and halves until its relative width is at most 1e-15 or 200 halvings
        have run; ``hi`` is returned.  Roots above about 1e-45 (2**-150)
        reach that width.  Below it the cap stops the bisection first, and
        ``hi`` can be far above the root: ``ExpLinear().inverse(1e-152)``
        returns 6.2e-61, where phi is 1.9e-121, while the root is 1.4e-76.
        """
        ys = np.array(ys, dtype=float).ravel()
        t = np.full(ys.size, math.nan)
        ok = (ys >= 0.0) & (ys < math.inf)
        errors = {int(i): DomainError(
            f"inverse target must be finite and nonnegative, got {float(ys[i])!r}")
            for i in np.flatnonzero(~ok)}
        good = np.flatnonzero(ok)
        t[good], failed = self._invert(ys[good])
        for j, exc in failed.items():
            errors[int(good[j])] = exc
        return t, errors

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def _invert(self, y: np.ndarray):
        """``inverses`` on finite nonnegative targets: (t, {position: error}).

        The bracket ends are powers of two shared by every target still
        doubling, so each doubling step evaluates phi once.  A target
        bracketed by [0, 1] first halves hi through 2**-1, 2**-2, ... while
        phi there is not below it: phi is evaluated once at all 200 points,
        and the first j whose running minimum of phi(2**-i), i <= j, is below
        the target ends that target's prefix, so no monotone phi is assumed.
        ``_bisect`` then runs every target from its own step count, through
        ``_eval_exact``, with the path, accuracy and cap of a scalar bisection.
        """
        t = np.where(y > 0.0, 1.0, 0.0)  # each upper bracket end, then each root
        failed = {}
        live = np.flatnonzero(t)
        top, message = 1.0, "cannot bracket inverse: function grows too slowly"
        for _ in range(_MAX_DOUBLINGS):
            if not live.size:
                break
            live = live[~(self._eval_exact(np.array([top])) >= y[live])]
            top *= 2.0
            if math.isinf(top):
                message = "cannot bracket inverse: target beyond double range"
                break
            t[live] = top
        for j in live.tolist():
            failed[j] = CertificateError(message)
        t[live] = math.nan
        live = np.flatnonzero(t > 0.0)
        h, target = t[live], y[live]
        lo = np.where(h == 1.0, 0.0, h / 2.0)
        steps = np.zeros(live.size, dtype=np.int64)
        unit = np.flatnonzero(h == 1.0)
        if unit.size:
            # halvings that keep hi: the leading j with min phi(2**-i) >= target;
            # a nan phi is not below the target, as in the comparison below
            at = self._eval_exact(np.ldexp(1.0, -np.arange(1, _MAX_HALVINGS + 1)))
            floor = np.minimum.accumulate(np.where(np.isnan(at), math.inf, at))
            keep = np.searchsorted(-floor, -target[unit], side="right")
            h[unit] = np.ldexp(1.0, -keep)
            lo[unit] = np.where(keep < _MAX_HALVINGS, np.ldexp(1.0, -keep - 1), 0.0)
            steps[unit] = np.minimum(keep + 1, _MAX_HALVINGS)
        t[live] = _bisect(lo, h, steps, _INVERSE_REL_WIDTH, _MAX_HALVINGS,
                          lambda mid, target: (self._eval_exact(mid) < target, None),
                          (target,))[1]
        return t, failed

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.descriptor()}]"


@dataclass(frozen=True, repr=False)
class Power(OrliczFunction):
    """phi(t) = t**s for a fixed exponent s >= 1."""

    s: float = 2.0

    def __post_init__(self):
        s = float(self.s)
        if not math.isfinite(s) or s < 1.0:
            raise DomainError(f"power exponent must be finite and >= 1, got {self.s!r}")
        object.__setattr__(self, "s", s)

    def _raw_eval(self, t):
        return t ** self.s

    def _eval_exact(self, t: np.ndarray) -> np.ndarray:
        # scalar pow, which np.power can differ from in the last bit; the
        # first pass makes no call per entry
        s, ts = self.s, t.tolist()
        try:
            return np.array([x ** s for x in ts])
        except OverflowError:
            return np.array([_safe_pow(x, s) for x in ts])

    def _invert(self, y: np.ndarray):
        # scalar pow: np.power differs from it in the last bit at some points
        return np.array([v ** (1.0 / self.s) for v in y.tolist()]), {}

    def descriptor(self) -> str:
        return f"power:{self.s:.17g}"


@dataclass(frozen=True, repr=False)
class ExpSquare(OrliczFunction):
    """phi(t) = exp(t^2) - 1, computed as expm1(t^2) to keep small-t accuracy."""

    def _raw_eval(self, t):
        return np.expm1(t * t)

    def _eval_exact(self, t: np.ndarray) -> np.ndarray:
        # math.expm1: np.expm1 differs from it in the last bit at some points
        return np.array([_safe_expm1(x * x) for x in t.tolist()])

    def _invert(self, y: np.ndarray):
        # scalar log1p: np.log1p differs from it in the last bit at some points
        return np.array([math.sqrt(math.log1p(v)) for v in y.tolist()]), {}

    def descriptor(self) -> str:
        return "expsq"


# Taylor coefficients 1/n! for n = 2..26; degree 26 keeps the truncation error
# below 1e-30 relative on [0, 1/2].
_EXPLIN_COEFFS = tuple(1.0 / math.factorial(n) for n in range(26, 1, -1))
_EXPLIN_SWITCH = 0.5


@dataclass(frozen=True, repr=False)
class ExpLinear(OrliczFunction):
    """phi(t) = exp(t) - t - 1.

    Direct evaluation loses all relative accuracy as t -> 0 (the difference
    is O(t^2) while exp(t) is O(1)), so below t = 1/2 the Taylor polynomial
    sum_{n>=2} t^n/n! is used instead.
    """

    def _raw_eval(self, t):
        small = np.polyval(_EXPLIN_COEFFS, t) * t * t
        return np.where(t <= _EXPLIN_SWITCH, small, np.expm1(t) - t)

    def _eval_exact(self, t: np.ndarray) -> np.ndarray:
        # the Horner loop (y = y*x + c from 0, as np.polyval runs it) at or
        # below 1/2; above it math.expm1, which np.expm1 differs from in the
        # last bit at some points
        out = np.empty(t.size)
        small = t <= _EXPLIN_SWITCH
        if small.any():  # polyval costs two ufunc calls per coefficient
            x = t[small]
            out[small] = np.polyval(_EXPLIN_COEFFS, x) * x * x
        out[~small] = [_safe_expm1(v) - v for v in t[~small].tolist()]
        return out

    def descriptor(self) -> str:
        return "explin"


@dataclass(frozen=True, repr=False)
class ExpCompose(OrliczFunction):
    """phi(t) = exp(inner(t)) - 1 for an inner Orlicz function."""

    inner: OrliczFunction

    def __post_init__(self):
        if not isinstance(self.inner, OrliczFunction):
            raise DomainError("inner generator must be an OrliczFunction")

    def _raw_eval(self, t):
        return np.expm1(self.inner._raw_eval(t))

    def _eval_exact(self, t: np.ndarray) -> np.ndarray:
        # math.expm1: np.expm1 differs from it in the last bit at some points
        return np.array([_safe_expm1(u) for u in self.inner._eval_exact(t).tolist()])

    def _invert(self, y: np.ndarray):
        # exp(inner(t)) - 1 = y  <=>  inner(t) = log1p(y), both sides monotone;
        # scalar log1p, as np.log1p differs from it in the last bit at some points
        return self.inner._invert(np.array([math.log1p(v) for v in y.tolist()]))

    def descriptor(self) -> str:
        return f"expof:{self.inner.descriptor()}"


class TabulatedConvex(OrliczFunction):
    """Piecewise-linear interpolant through knots, extrapolated at the final slope.

    Knots must start at (0, 0) with strictly increasing abscissae and finite
    nonnegative values.  Monotonicity and convexity are deliberately not
    enforced here; validate_orlicz reports on them so that defective tables
    can be diagnosed rather than rejected unseen.
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

    @property
    def final_slope(self) -> float:
        return self._final_slope

    @property
    def final_value(self) -> float:
        return float(self._vs[-1])

    @classmethod
    def from_csv(cls, path) -> "TabulatedConvex":
        return cls(_csv_rows(path, "knot table", "t,value",
                             lambda row: (float(row[0]), float(row[1]))))

    def _raw_eval(self, t):
        ts, vs = self._ts, self._vs
        inside = np.interp(t, ts, vs)
        beyond = vs[-1] + self._final_slope * (t - ts[-1])
        return np.where(t > ts[-1], beyond, inside)

    def _eval_exact(self, t: np.ndarray) -> np.ndarray:
        # the interpolation formula per interval; np.interp rounds differently
        ts, vs = self._ts, self._vs
        last = ts.size - 1
        i = np.minimum(np.searchsorted(ts, t, side="right") - 1, last - 1)
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        inside = np.where(t == ts[last], vs[last], vs[i] + frac * (vs[i + 1] - vs[i]))
        beyond = vs[last] + self._final_slope * (t - ts[last])
        return np.where(t > ts[last], beyond, inside)

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
    if n < 2 or not 0 < lo < hi or not math.isfinite(hi):
        raise DomainError("probe grid needs n >= 2 and 0 < lo < hi < oo")
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
        div_ok = bool(np.any(phi._eval_exact(ladder[:n]) > divergence_target))
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
        if int(self.depth) != self.depth or self.depth < 20:
            raise DomainError("probe depth must be an integer >= 20")
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "depth", int(self.depth))


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
    finite probe can never prove the limsup finite.
    """
    if probe is None:
        probe = GeometricProbe()
    # t_start * 2**-j is 0 from j = 1075 on, where phi(0) = 0 ends the probe
    ts = probe.t_start * np.ldexp(1.0, -np.arange(min(probe.depth, 1075) + 1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ft, f2t = np.split(phi._eval_exact(np.concatenate((ts, 2.0 * ts))), 2)
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
    return Delta2Report(tuple(ts), tuple(ratios), sup_ratio, estimate, holds, stop.size > 0)


@dataclass(frozen=True)
class ThetaBound:
    """Certified constant with phi(theta*t) <= c_theta * phi(t) on (0, t_theta]."""

    theta: float
    c_theta: float
    t_theta: float

    def __post_init__(self):
        for name in ("theta", "c_theta", "t_theta"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0:
                raise DomainError(f"{name} must be finite and positive")
            object.__setattr__(self, name, v)


def theta_bound(phi: OrliczFunction, theta: float, t_theta: float,
                grid_points: int = GRID_POINTS_DEFAULT) -> ThetaBound:
    """Certify phi(theta*t) <= c_theta*phi(t) on (0, t_theta] via a grid sup.

    For pure powers the constant theta**s is exact for every t.  Otherwise
    c_theta is the supremum of the ratio over a log-uniform grid, inflated by
    the 1+1e-6 safety factor so the certificate survives re-validation at
    off-grid points of smooth families.  Overflowing or empty ratios raise
    CertificateError (the bound cannot be certified at this t_theta).
    """
    theta = float(theta)
    t_theta = float(t_theta)
    if not math.isfinite(theta) or theta <= 0:
        raise DomainError("theta must be finite and positive")
    if not math.isfinite(t_theta) or t_theta <= 0:
        raise DomainError("t_theta must be finite and positive")
    if grid_points < 16:
        raise DomainError("grid_points must be at least 16")
    if grid_points > MAX_GRID_POINTS:
        raise DomainError(f"grid_points must be at most {MAX_GRID_POINTS}")
    if isinstance(phi, Power):
        return ThetaBound(theta, SAFETY_FACTOR * theta ** phi.s, t_theta)
    ts = _probe_grid(t_theta, grid_points, "t_theta")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        num = phi.eval(theta * ts)
        den = phi.eval(ts)
        mask = den > 0
        if not np.any(mask):
            raise CertificateError("generator underflows on the whole probe grid")
        ratios = num[mask] / den[mask]
    if not np.all(np.isfinite(ratios)):
        raise CertificateError(
            f"scaling ratio overflows on (0, {t_theta:g}] at theta={theta:g}")
    return ThetaBound(theta, SAFETY_FACTOR * float(np.max(ratios)), t_theta)
