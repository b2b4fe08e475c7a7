"""Shared builders and independent oracles for the test suite."""

import bisect
import math

from orliczseq import (CertificateError, ExpCompose, ExpLinear, ExpSquare, Power,
                       SeqVector, TabulatedConvex)

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


def scalar_inverse_oracle(phi, y):
    """phi^{-1}(y) by the scalar bisection the generic inverse used to run.

    The bracket starts at hi = 1 and doubles (at most 1100 times); then
    lo = 0 if hi == 1 else hi/2, and at most 200 halvings stop when
    hi - lo <= 1e-15*hi or the midpoint equals an end.  Returns hi, or raises
    the CertificateError of a bracket that cannot close.  The lock-step array
    inverse must return the same float for every finite nonnegative target.
    """
    y = float(y)
    if y == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(1100):
        if scalar_phi_oracle(phi, hi) >= y:
            break
        hi *= 2.0
        if math.isinf(hi):
            raise CertificateError("cannot bracket inverse: target beyond double range")
    else:
        raise CertificateError("cannot bracket inverse: function grows too slowly")
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if scalar_phi_oracle(phi, mid) < y:
            lo = mid
        else:
            hi = mid
    return hi
