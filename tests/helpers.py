"""Shared builders and independent oracles for the test suite."""

import math

from orliczseq import CertificateError, SeqVector


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
        val = w * (1.0 + params.phi._raw_eval(float(abs(m)))) ** params.k
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
        if phi._raw_eval(hi) >= y:
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
        if phi._raw_eval(mid) < y:
            lo = mid
        else:
            hi = mid
    return hi
