"""Shared builders and independent oracles for the test suite."""

import bisect
import functools
import math
import random

import numpy as np

from orliczseq import (CertificateError, ExpCompose, ExpLinear, ExpSquare, NormResult,
                       Power, SeqVector, TabulatedConvex)

# explin below 1/2: the Taylor polynomial sum_{n=2..26} t**n/n! by Horner
_EXPLIN_COEFFS = tuple(1.0 / math.factorial(n) for n in range(26, 1, -1))


def _expm1_or_inf(x):
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def pow_or_inf(base, exp):
    """base ** exp in float arithmetic, inf where it overflows."""
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def scalar_phi_oracle(phi, t):
    """phi(t) for a finite t >= 0 by each family's scalar formula.

    Python float arithmetic and the math module, one point at a time:
    overflow gives inf.  ``_eval_exact`` and ``eval`` on a float must return
    the same float.  A generator of another family is evaluated by its
    ``_raw_eval`` on the float t, so it must be written with arithmetic that
    floats support too.
    """
    t = float(t)
    if isinstance(phi, Power):
        return pow_or_inf(t, phi.s)
    if isinstance(phi, ExpSquare):
        return _expm1_or_inf(t * t)
    if isinstance(phi, ExpLinear):
        if t <= 0.5:
            acc = 0.0
            for c in _EXPLIN_COEFFS:
                acc = acc * t + c
            return acc * t * t
        return _expm1_or_inf(t) - t
    if isinstance(phi, ExpCompose):
        return _expm1_or_inf(scalar_phi_oracle(phi.inner, t))
    if isinstance(phi, TabulatedConvex):
        ts, vs = zip(*phi.knots)
        if t > ts[-1]:
            return vs[-1] + phi.final_slope * (t - ts[-1])
        i = bisect.bisect_right(ts, t) - 1
        if i >= len(ts) - 1:
            return vs[-1]
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        return vs[i] + frac * (vs[i + 1] - vs[i])
    return float(phi._raw_eval(t))


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
    """w_m * (1 + phi(|m|))**k by the scalar formula, one index at a time.

    Returns None where the value leaves double range, including an index
    beyond double range at k != 0.  ``spaces.measures`` must return the same
    float for every other index.
    """
    w = params.weights.weight(m)
    if params.k == 0:
        return w
    try:
        val = w * (1.0 + scalar_phi_oracle(params.phi, abs(m))) ** params.k
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


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
            raise CertificateError("cannot bracket inverse: target beyond double range")
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
    """phi^{-1}(y) one target at a time: each closed form by its scalar
    formula, every other generator by ``scalar_inverse_oracle``."""
    if isinstance(phi, Power):
        return pow_or_inf(y, 1.0 / phi.s)
    if isinstance(phi, ExpSquare):
        return math.sqrt(math.log1p(y))
    if isinstance(phi, ExpCompose):
        return scalar_root(phi.inner, math.log1p(y))
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


GUESS_NAMES = ("lower", "upper", "midpoint", "random")


def bad_guess(name):
    """A stand-in for ``functions._guess``: the lower end, the upper end, the
    midpoint or a seeded random point of each bracket, whatever the excess."""
    rng = random.Random(20261018)
    return {"lower": lambda l, h, e_lo, e_hi: l,
            "upper": lambda l, h, e_lo, e_hi: h,
            "midpoint": lambda l, h, e_lo, e_hi: 0.5 * (l + h),
            "random": lambda l, h, e_lo, e_hi: l + (h - l) * rng.random()}[name]
