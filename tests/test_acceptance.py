"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with -s to see the lines as they are produced.  Every tolerance here is
pinned; loosening one is a behavior change, not a test fix.
"""

import math
import random
import time

import numpy as np

from orliczseq import (ExpCompose, ExpLinear, ExpSquare, GeometricEnvelope,
                       Power, SeqVector, SpaceParams, TabulatedConvex,
                       WeightSequence, check_domination, classify,
                       covering_check, delta2_at_zero, embedding_constant,
                       luxemburg_norm, modular, sample_ball, schauder_curve,
                       uniform_tail_index, verify_embedding, verify_norm_axioms)
from helpers import power_norm_oracle, random_vector

W1 = WeightSequence.constant(1.0)
TABLE = TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_table_weights(rng, low=0.1):
    entries = {rng.randint(-50, 50): rng.uniform(low, 5.0) for _ in range(8)}
    return WeightSequence(1.0, entries)


def test_01_power_norms_match_closed_form():
    rng = random.Random(1001)
    start = time.perf_counter()
    worst = 0.0
    weights_pool = [W1, WeightSequence.constant(0.2),
                    _random_table_weights(rng)]
    ss = (1.0, 1.5, 2.0, 3.0)
    ks = (0.0, 1.0, 2.5)
    for i in range(200):
        s = ss[i % 4]
        k = ks[(i // 4) % 3]
        w = weights_pool[(i // 12) % 3]
        p = random_vector(rng, 100, 500)
        want = power_norm_oracle(k, s, w.weight, p)
        got = luxemburg_norm(SpaceParams(k, Power(s), w), p).value
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    _report(1, "power norms vs closed form", ok,
            f"200 cases, max rel err {worst:.3e}, {elapsed:.2f}s")


def _family_cases(rng):
    """Rotating (params, vector) draws across all five generator families."""
    pool = [
        (Power(rng.choice([1.0, 1.5, 2.0, 3.0])), rng.uniform(0.0, 2.5), 500, 40),
        (ExpSquare(), rng.uniform(0.0, 1.0), 12, 10),
        (ExpLinear(), rng.uniform(0.0, 1.0), 12, 10),
        (ExpCompose(Power(1.5)), rng.uniform(0.0, 1.0), 12, 10),
        (TABLE, rng.uniform(0.0, 2.0), 200, 20),
    ]
    for phi, k, max_index, max_points in pool:
        w = W1 if rng.random() < 0.5 else _random_table_weights(rng, 0.2)
        yield SpaceParams(k, phi, w), random_vector(rng, max_points, max_index)


def test_02_modular_at_norm_is_tight():
    rng = random.Random(2002)
    start = time.perf_counter()
    n = 0
    worst_at = 0.0
    while n < 500:
        for params, p in _family_cases(rng):
            value = luxemburg_norm(params, p).value
            at_norm = modular(params, p, value)
            below = modular(params, p, 0.999 * value)
            worst_at = max(worst_at, at_norm)
            assert at_norm <= 1.0 + 1e-9, (params, p)
            assert below > 1.0, (params, p)
            n += 1
    elapsed = time.perf_counter() - start
    ok = worst_at <= 1.0 + 1e-9 and elapsed <= 30.0
    _report(2, "modular tight at the norm", ok,
            f"{n} cases, max modular {worst_at:.12f}, {elapsed:.2f}s")


def test_03_norm_axioms_randomized():
    rng = random.Random(3003)
    start = time.perf_counter()
    n = 0
    while n < 500:
        for params, p in _family_cases(rng):
            q = random_vector(rng, 10, min(12, p.max_abs_index + 5))
            lam = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            lam *= 10.0 ** rng.uniform(-2.0, 2.0)
            if rng.random() < 0.02:
                lam = 0.0
            rep = verify_norm_axioms(params, p, q, lam, tol=1e-9)
            assert rep.all_ok, (params, p, q, lam, rep)
            n += 1
    elapsed = time.perf_counter() - start
    ok = elapsed <= 60.0
    _report(3, "norm axioms", ok, f"{n} triples, {elapsed:.2f}s")


def test_04_norm_monotone_in_weight_order():
    rng = random.Random(4004)
    checked = 0
    for _ in range(20):
        k_lo = rng.uniform(0.0, 2.0)
        k_hi = k_lo + rng.uniform(0.0, 1.5)
        exponential = rng.random() < 0.5
        phi = ExpLinear() if exponential else Power(rng.choice([1.0, 2.0, 3.0]))
        max_index = 10 if exponential else 300
        for _ in range(10):
            p = random_vector(rng, 15, max_index)
            n_lo = luxemburg_norm(SpaceParams(k_lo, phi, W1), p).value
            n_hi = luxemburg_norm(SpaceParams(k_hi, phi, W1), p).value
            assert n_lo <= n_hi * (1.0 + 1e-9), (k_lo, k_hi, phi, p)
            checked += 1
    _report(4, "norm monotone in order", True,
            f"{checked} vectors over 20 order pairs")


def test_05_global_embedding_on_samples():
    rng = random.Random(5005)
    witness = check_domination(Power(2.0), ExpSquare(), 1.0)
    assert witness.holds
    worst_gap = -math.inf
    for _ in range(200):
        k_hi = rng.uniform(0.0, 2.0)
        k_lo = rng.uniform(0.0, k_hi)
        w = W1 if rng.random() < 0.5 else _random_table_weights(rng, 0.2)
        cert = embedding_constant("a", witness, SpaceParams(k_hi, ExpSquare(), w), k_lo)
        p = random_vector(rng, 10, 12, decades=(-2.0, 2.0))
        chk = verify_embedding(cert, p, tol=1e-9)
        worst_gap = max(worst_gap, chk.target_norm - chk.constant * chk.source_norm)
        assert chk.ok, (k_lo, k_hi, p, chk)
    _report(5, "global embedding bound", True,
            f"200 samples, worst slack {worst_gap:.3e}")


def test_06_local_embedding_constant():
    rng = random.Random(6006)
    checked = 0
    for r, s in ((3.0, 2.0), (2.0, 1.0)):
        for inf_w in (1.0, 0.25):
            for gamma in (1.0, 0.7):
                t0 = gamma ** (s / (r - s))
                witness = check_domination(Power(r), Power(s), gamma, t0=t0)
                assert witness.holds, (r, s, gamma)
                weights = WeightSequence.constant(inf_w)
                k = rng.uniform(0.0, 2.0)
                source = SpaceParams(k, Power(s), weights)
                cert = embedding_constant("b", witness, source, 0.0)
                expected = max((1.0 / inf_w) ** (1.0 / s) / t0, gamma)
                assert abs(cert.c - expected) <= 1e-12 * expected
                for _ in range(25):
                    p = random_vector(rng, 30, 100)
                    chk = verify_embedding(cert, p, tol=1e-9)
                    assert chk.ok, (r, s, inf_w, gamma, p, chk)
                    checked += 1
    _report(6, "local embedding constant", True,
            f"{checked} samples over 8 (r,s,inf_w,gamma) settings")


def test_07_doubling_estimates():
    details = []
    ok = True
    for s in (1.0, 1.5, 2.0, 3.0):
        est = delta2_at_zero(Power(s)).limsup_estimate
        ok = ok and abs(est - 2.0 ** s) <= 1e-12
        details.append(f"power:{s:g}->{est:.12g}")
    for phi in (ExpSquare(), ExpLinear()):
        est = delta2_at_zero(phi).limsup_estimate
        ok = ok and abs(est - 4.0) <= 1e-3
        details.append(f"{phi.descriptor()}->{est:.6g}")
    _report(7, "doubling constants", ok, ", ".join(details))


def test_08_compactness_covering():
    start = time.perf_counter()
    settings = [
        (Power(2.0), 1.0, 0.0, 64),
        (ExpSquare(), 1.0, 0.0, 24),
        (ExpLinear(), 2.0, 0.5, 64),
    ]
    details = []
    ok = True
    for i, (phi, k_hi, k_lo, max_support) in enumerate(settings):
        source = SpaceParams(k_hi, phi, W1)
        for eps in (1.0, 0.1):
            cert = uniform_tail_index(source, k_lo, 1.0, eps)
            samples = sample_ball(source, 1.0, seed=800 + i, count=1000,
                                  max_support=max_support)
            rep = covering_check(cert, samples)
            ok = ok and rep.max_residual <= eps / 2.0 * (1.0 + 1e-9)
            details.append(
                f"{phi.descriptor()} eps={eps:g}: m={cert.m_eps_kappa}, "
                f"max resid {rep.max_residual:.3g}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 300.0
    _report(8, "compactness covering", ok,
            "; ".join(details) + f"; {elapsed:.1f}s")


def test_09_basis_residual_curves():
    rng = random.Random(9009)
    checked = 0
    for i in range(100):
        if i % 2 == 0:
            params = SpaceParams(rng.uniform(0.0, 2.0), Power(2.0), W1)
            p = random_vector(rng, 20, 30)
        else:
            params = SpaceParams(rng.uniform(0.0, 0.5), ExpLinear(), W1)
            p = random_vector(rng, 10, 8, decades=(-1.0, 1.0))
        curve = schauder_curve(params, p)
        residuals = [r for _, r in curve]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-15, (params, p, curve)
        assert residuals[-1] == 0.0, (params, p, curve)
        checked += 1
    _report(9, "basis residual curves", True, f"{checked} curves, all to zero")


def _weights_array(w, ms):
    out = np.full(ms.shape, w.weight(10 ** 9), dtype=float)
    for i, m in enumerate(ms):
        out[i] = w.weight(int(m))
    return out


def _brute_tail_partial(params, env, rho, trunc, horizon=10 ** 4):
    ms = np.arange(trunc + 1, horizon + 1, dtype=float)
    with np.errstate(under="ignore"):
        vals = env.amplitude * env.ratio ** ms / rho
    phi_vals = params.phi(np.minimum(vals, 1e300))
    mu_pos = _weights_array(params.weights, np.arange(trunc + 1, horizon + 1))
    mu_neg = _weights_array(params.weights, -np.arange(trunc + 1, horizon + 1))
    factor = (1.0 + params.phi(ms)) ** params.k
    return float(((mu_pos + mu_neg) * factor * phi_vals).sum())


def test_10_classification_coherence():
    rng = random.Random(1010)
    scales = (1.0, 2.0 ** -10, 2.0 ** -20)
    checked_certs = 0
    for i in range(50):
        roll = i % 4
        if roll == 0:
            phi, k = Power(rng.choice([1.0, 1.5, 2.0, 3.0])), rng.uniform(0.0, 2.5)
        elif roll == 1:
            phi, k = ExpSquare(), 0.0
        elif roll == 2:
            phi, k = rng.choice([ExpLinear(), ExpCompose(Power(1.0))]), 0.0
        else:
            phi, k = TABLE, rng.uniform(0.0, 2.0)
        w = W1 if rng.random() < 0.5 else _random_table_weights(rng, 0.2)
        params = SpaceParams(k, phi, w)
        env = GeometricEnvelope(rng.uniform(0.0, 5.0), rng.uniform(0.05, 0.95))
        rep = classify(params, envelope=env)
        assert not (rep.in_large and not rep.in_small), (params, env, rep)
        for cert in rep.certificates:
            if cert.rho not in scales:
                continue
            brute = _brute_tail_partial(params, env, cert.rho, cert.trunc)
            assert brute <= cert.tail_bound * (1.0 + 1e-9), (params, env, cert, brute)
            checked_certs += 1
    _report(10, "classification coherence", True,
            f"50 envelopes, {checked_certs} tail certificates cross-summed")
