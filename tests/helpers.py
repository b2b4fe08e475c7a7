"""Shared builders and independent oracles for the test suite."""

import functools
import math
import random

import numpy as np

from orliczseq import (CertificateError, ExpCompose, ExpLinear, ExpSquare, NormResult,
                       OrliczFunction, Power, SeqVector, TabulatedConvex, luxemburg_norms)

# explin below 1/2: the Taylor polynomial sum_{n=2..26} t**n/n! by Horner
_EXPLIN_COEFFS = tuple(1.0 / math.factorial(n) for n in range(26, 1, -1))


def _np(f, *args):
    """numpy's scalar ufunc f on floats, one point at a time, as a float;
    an overflow gives inf."""
    with np.errstate(over="ignore"):
        return float(f(*args))


def pow_or_inf(base, exp):
    """base ** exp by np.power on one float, inf where it overflows."""
    return _np(np.power, base, exp)


def scalar_phi_oracle(phi, t):
    """phi(t) for a finite t >= 0 by each family's formula, one point at a time.

    Python float arithmetic and numpy's scalar ufuncs (np.power, np.expm1,
    np.interp): overflow gives inf.  ``eval`` on a float and each entry of
    ``eval`` on an array must return the same float.  A generator of another
    family is evaluated by its ``_raw_eval`` on a batch of one.
    """
    t = float(t)
    if isinstance(phi, Power):
        return pow_or_inf(t, phi.s)
    if isinstance(phi, ExpSquare):
        return _np(np.expm1, t * t)
    if isinstance(phi, ExpLinear):
        if t <= 0.5:
            acc = 0.0
            for c in _EXPLIN_COEFFS:
                acc = acc * t + c
            return acc * t * t
        return _np(np.expm1, t) - t
    if isinstance(phi, ExpCompose):
        return _np(np.expm1, scalar_phi_oracle(phi.inner, t))
    if isinstance(phi, TabulatedConvex):
        ts, vs = phi._ts, phi._vs  # the knots as arrays, which np.interp takes as they are
        if t > ts[-1]:
            slope = float(vs[-1] - vs[-2]) / float(ts[-1] - ts[-2])
            return float(vs[-1]) + slope * (t - float(ts[-1]))
        return float(np.interp(t, ts, vs))
    return _np(lambda x: phi._raw_eval(np.array([x]))[0], t)


class Cube(OrliczFunction):
    """phi(t) = t**3 as a user generator: it states no fact about itself."""

    def _raw_eval(self, t):
        return t ** 3.0

    def descriptor(self):
        return "cube"


class StatedCube(Cube):
    """``Cube`` stating the two facts that ``Power(3.0)`` states."""

    def _measure_majorant(self, k):
        return 2.0, 3.0 * k

    @np.errstate(over="ignore", under="ignore")
    def _theta_constant(self, theta):
        return float(np.power(theta, 3.0))


# phi(2**-j) rises again between 2**-40 and 2**-30 and between 2**-20 and
# 2**-12, so the values the bisection meets while it halves hi from 1 are
# not monotone in j
NON_MONOTONE_TABLE = TabulatedConvex([(0.0, 0.0), (2.0 ** -40, 1e-6), (2.0 ** -30, 1e-9),
                                      (2.0 ** -20, 1e-3), (2.0 ** -12, 1e-5), (1.0, 1.0)])


def power_norm_oracle(k, s, weight_of, p):
    """Closed-form norm for power generators, computed from scratch:
    (sum_m w_m * (1 + |m|**s)**k * |p_m|**s) ** (1/s).
    """
    total = math.fsum(
        weight_of(m) * (1.0 + abs(m) ** s) ** k * abs(v) ** s for m, v in p.items)
    return total ** (1.0 / s)


def scalar_mu_oracle(params, m):
    """w_m * (1 + phi(|m|))**k by the scalar formulas, one index at a time.

    Returns None where the value leaves double range, including an index
    beyond double range at k != 0.  ``spaces.measures`` must return the same
    float for every other index.
    """
    w = params.weights.weight(m)
    if params.k == 0:
        return w
    try:
        val = w * pow_or_inf(1.0 + scalar_phi_oracle(params.phi, abs(m)), params.k)
    except OverflowError:  # float(|m|) in scalar_phi_oracle
        return None
    return val if math.isfinite(val) else None


def classify_upper_oracle(params, p, envelope, rho, trunc, tail):
    """A ``classify`` certificate's ``modular_upper`` by brute force, one
    index at a time: the modular of p at rho, plus the sum of
    mu(m) * phi(bound_at(m) / rho) over the indices of -trunc..trunc off p's
    support (an underflowed bound included), plus ``tail``.  Each part is a
    ``math.fsum`` of its terms, taken from ``scalar_mu_oracle`` and
    ``scalar_phi_oracle``.  None where a measure, a sum or the total leaves
    double range, or a term is not finite.
    """
    supp = set(p.support)
    parts = ([(m, abs(v)) for m, v in p.items],
             [(m, envelope.bound_at(m)) for m in range(-trunc, trunc + 1) if m not in supp])
    sums = []
    for part in parts:
        terms = []
        for m, a in part:
            mu = scalar_mu_oracle(params, m)
            if mu is None:
                return None
            terms.append(mu * scalar_phi_oracle(params.phi, a / rho))
        try:
            sums.append(math.fsum(terms))
        except (OverflowError, ValueError):  # past double range, or inf - inf
            return None
    upper = sums[0] + sums[1] + tail
    return upper if math.isfinite(upper) else None


def random_vector(rng, max_points, max_index, decades=(-3.0, 3.0)):
    """Random finitely supported vector with values spread over decades."""
    n = rng.randint(1, max_points)
    entries = {}
    for _ in range(n):
        m = rng.randint(-max_index, max_index)
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        z *= 10.0 ** rng.uniform(*decades)
        if z != 0:
            entries[m] = z
    if not entries:
        entries[0] = complex(1.0, 0.0)
    return SeqVector(entries)


def mpmath_explin_root(mpmath, y):
    """The root s of expm1(s) - s = y (an mpmath number) to 200 bits.  The
    difference cancels about -2*log2(s) bits, so the working precision
    covers both, down to the root of the smallest double."""
    with mpmath.workprec(1300):
        return mpmath.findroot(lambda s: mpmath.expm1(s) - s - y, mpmath.sqrt(2 * y),
                               solver="newton", df=mpmath.expm1)


def scalar_inverse_oracle(phi, y):
    """phi^{-1}(y) by the scalar bisection the generic inverse used to run.

    The bracket starts at hi = 1 and doubles until phi(hi) >= y; then
    lo = 0 if hi == 1 else hi/2, and halvings stop when hi - lo <= 1e-15*hi
    or the midpoint is not strictly inside, which ends every bracket of
    doubles.  Returns hi, or raises the CertificateError of a bracket that
    cannot close.  The lock-step array inverse must return the same float
    for every finite nonnegative target.
    """
    y = float(y)
    if y == 0.0:
        return 0.0
    hi = 1.0
    while not scalar_phi_oracle(phi, hi) >= y:
        hi *= 2.0
        if math.isinf(hi):
            raise CertificateError("inverse target has no root in double range")
    lo = 0.0 if hi == 1.0 else hi / 2.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if scalar_phi_oracle(phi, mid) < y:
            lo = mid
        else:
            hi = mid
    return hi


@functools.lru_cache(maxsize=None)
def scalar_root(phi, y):
    """phi^{-1}(y) one target at a time: each closed form by numpy's scalar
    ufuncs, every other generator by ``scalar_inverse_oracle``."""
    if isinstance(phi, Power):
        return pow_or_inf(y, 1.0 / phi.s)
    if isinstance(phi, ExpSquare):
        return _np(np.sqrt, _np(np.log1p, y))
    if isinstance(phi, ExpCompose):
        return scalar_root(phi.inner, _np(np.log1p, y))
    return scalar_inverse_oracle(phi, y)


def scalar_norm_oracle(params, p, tol):
    """The Luxemburg norm of p by one scalar loop in Python floats.

    rho_low = max |p_m| / phi^{-1}(1/mu(m)) (``scalar_root`` and
    ``scalar_mu_oracle``); if the modular there exceeds 1, double hi from it
    until the modular is at most 1, then bisect [hi/2, hi] at 0.5*(lo + hi)
    until hi - lo <= tol*hi, the midpoint is not strictly inside, or 4000
    steps have run.  Each decision is math.fsum(terms) <= 1, the terms
    mu(m) * phi(|p_m|/rho) taken from phi's numpy form, as the solver takes
    them.  ``luxemburg_norms`` must return this NormResult field for field,
    in any batch.  The measures must be finite.
    """
    if not p:
        return NormResult(0.0, (0.0, 0.0), 0.0, 0)
    phi = params.phi
    avals = [abs(v) for v in p.values]
    mus = [scalar_mu_oracle(params, m) for m in p.support]

    def modular(rho):
        values = phi._raw_eval(np.array([a / rho for a in avals])).tolist()
        return math.fsum(mu * v for mu, v in zip(mus, values))

    roots = [scalar_root(phi, 1.0 / mu) if mu else 0.0 for mu in mus]
    lo = hi = max((a / r for a, r in zip(avals, roots) if r > 0.0), default=0.0)
    steps = 0
    if modular(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
        while modular(hi) > 1.0:
            lo, hi = hi, 2.0 * hi
        while steps < 4000 and hi - lo > tol * hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if modular(mid) > 1.0:
                lo = mid
            else:
                hi = mid
            steps += 1
    return NormResult(hi, (lo, hi), modular(hi), steps)


def reference_sample_ball(source, kappa, seed, count, max_support, norm_tol=1e-12):
    """The samples of ``sample_ball`` by its draw loop written out literally:
    ``random.uniform``, ``randint`` and ``random`` one draw at a time, each
    index halved toward 0 while ``scalar_mu_oracle`` finds its measure
    overflowing (halving draws nothing), and ``SeqVector(...)`` for each drawn
    vector; the radii come from ``luxemburg_norms``.  ``sample_ball`` must
    return these vectors item for item, the sign of every zero included.
    """
    rng = random.Random(seed)
    log2_top = math.log2(max_support + 1)
    drawn, fractions = [], []
    for _ in range(count):
        n_pts = rng.randint(1, min(64, 2 * max_support + 1))
        entries = {}
        for _ in range(n_pts):
            mag = min(max_support, int(2.0 ** rng.uniform(0.0, log2_top)) - 1)
            m = mag if rng.random() < 0.5 else -mag
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * scale
            if z != 0:
                while scalar_mu_oracle(source, m) is None:
                    m = int(m / 2)
                entries.setdefault(m, z)
        drawn.append(SeqVector(entries or {0: 1.0 + 0.0j}))
        fractions.append(1.0 - rng.random())
    radii = luxemburg_norms(source, drawn, norm_tol)
    return [p.scaled(u * kappa / r.value) for p, u, r in zip(drawn, fractions, radii)]


def exact_items(p):
    """The items of a SeqVector with each part as its hex text, so that a
    zero's sign counts."""
    return [(m, z.real.hex(), z.imag.hex()) for m, z in p.items]


GUESS_NAMES = ("lower", "upper", "midpoint", "random")


def bad_guess(name):
    """A stand-in for ``functions._guess``: the lower end, the upper end, the
    midpoint or a seeded random point of each bracket, whatever the excess."""
    rng = random.Random(20261018)
    return {"lower": lambda l, h, e_lo, e_hi: l,
            "upper": lambda l, h, e_lo, e_hi: h,
            "midpoint": lambda l, h, e_lo, e_hi: 0.5 * (l + h),
            "random": lambda l, h, e_lo, e_hi: l + (h - l) * rng.random()}[name]
