"""Luxemburg norm solver, norm axioms and basis truncation."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from orliczseq import (BallTailCertificate, CertificateError,
                       CertificateRefutedError, ComputationOverflowError,
                       DomainError, ExpCompose, ExpLinear, ExpSquare,
                       OrliczFunction, Power, SeqVector, SpaceParams,
                       TabulatedConvex, ThetaBound, WeightSequence,
                       covering_check, luxemburg_norm, luxemburg_norms, modular,
                       schauder_curve, schauder_truncate, uniform_tail_index,
                       verify_norm_axioms)
from orliczseq import functions, luxemburg, spaces
from orliczseq.cli import run
from orliczseq.functions import MAX_GRID_POINTS
from orliczseq.luxemburg import _at_most_one, _rho_low, _solve, _sum_slack
from orliczseq.spaces import TermBatch
from helpers import (GUESS_NAMES, bad_guess, mpmath_explin_root, power_norm_oracle,
                     random_vector, scalar_mu_oracle, scalar_norm_oracle)

# sqrt(ln 2) and its reciprocal, the unit-weight ExpSquare spike constants
SQRT_LN2 = 0.83255461115769775635
INV_SQRT_LN2 = 1.2011224087864497948578

W1 = WeightSequence.constant(1.0)
TOL = 1e-12


def test_spike_norm_is_exact():
    params = SpaceParams(0.0, Power(2.0), W1)
    res = luxemburg_norm(params, SeqVector({0: 1.0}))
    assert res.value == 1.0
    assert res.bracket == (1.0, 1.0)
    assert res.iterations == 0
    assert res.modular_at_value == 1.0


def test_empty_vector_norm_zero():
    params = SpaceParams(1.0, ExpSquare(), W1)
    res = luxemburg_norm(params, SeqVector())
    assert res.value == 0.0 and res.iterations == 0


def test_expsquare_spike_frozen_value():
    params = SpaceParams(0.0, ExpSquare(), W1)
    for a in (1.0, 0.03, 250.0, 1j * 7.0):
        res = luxemburg_norm(params, SeqVector({2: a}))
        assert res.value == pytest.approx(abs(a) * INV_SQRT_LN2, rel=2e-12)
    # cross-check the constant itself: modular(p, a/sqrt(ln2)) = expm1(ln 2) = 1
    res = luxemburg_norm(params, SeqVector({2: 1.0}))
    assert res.value * SQRT_LN2 == pytest.approx(1.0, rel=2e-12)


def test_power_norm_matches_closed_form():
    rng = random.Random(2024)
    weights = WeightSequence(1.0, {0: 0.2, 7: 3.0})
    for s in (1.0, 1.5, 2.0, 3.0):
        for k in (0.0, 1.0, 2.5):
            params = SpaceParams(k, Power(s), weights)
            for _ in range(5):
                p = random_vector(rng, 30, 200)
                want = power_norm_oracle(k, s, weights.weight, p)
                got = luxemburg_norm(params, p).value
                assert got == pytest.approx(want, rel=1e-11)


def test_norm_scaling_bracket_and_crucial_relation():
    rng = random.Random(77)
    params = SpaceParams(1.0, ExpLinear(), W1)
    for _ in range(20):
        p = random_vector(rng, 12, 8, decades=(-2, 2))
        res = luxemburg_norm(params, p)
        lo, hi = res.bracket
        assert 0.0 < lo <= res.value == hi
        assert hi - lo <= TOL * hi * (1.0 + 1e-9)
        # modular at the returned norm never exceeds one
        assert res.modular_at_value <= 1.0
        # just below the norm the modular exceeds one
        assert modular(params, p, res.value * (1.0 - 10.0 * TOL)) > 1.0
        assert modular(params, p, 0.999 * res.value) > 1.0


def test_homogeneity_including_complex_scalars():
    rng = random.Random(5)
    params = SpaceParams(0.5, ExpSquare(), W1)
    p = random_vector(rng, 10, 6, decades=(-1, 1))
    base = luxemburg_norm(params, p).value
    for lam in (0.0, 2.0, -3.5, 1j, complex(0.6, -0.8), complex(3, 4)):
        got = luxemburg_norm(params, p.scaled(lam)).value
        assert got == pytest.approx(abs(lam) * base, rel=1e-11, abs=1e-300)


def test_triangle_inequality_randomized():
    rng = random.Random(13)
    params = SpaceParams(1.0, Power(2.0), WeightSequence(1.0, {2: 0.3}))
    for _ in range(50):
        p = random_vector(rng, 20, 50)
        q = random_vector(rng, 20, 50)
        n_p = luxemburg_norm(params, p).value
        n_q = luxemburg_norm(params, q).value
        n_s = luxemburg_norm(params, p + q).value
        assert n_s <= (n_p + n_q) * (1.0 + 1e-11)


def test_verify_norm_axioms_report():
    rng = random.Random(99)
    params = SpaceParams(0.0, ExpLinear(), W1)
    p = random_vector(rng, 8, 5, decades=(-1, 1))
    q = random_vector(rng, 8, 5, decades=(-1, 1))
    rep = verify_norm_axioms(params, p, q, lam=complex(1.2, -0.7))
    assert rep.all_ok
    assert rep.homogeneity_ok and rep.triangle_ok and rep.definiteness_ok
    assert rep.norm_sum <= rep.norm_p + rep.norm_q + 1e-9 * max(
        1.0, rep.norm_p + rep.norm_q)
    empty = verify_norm_axioms(params, SeqVector(), q, lam=2.0)
    assert empty.all_ok and empty.norm_p == 0.0


def test_norm_monotone_in_weight_order():
    rng = random.Random(31)
    phi = Power(2.0)
    for _ in range(20):
        p = random_vector(rng, 15, 40)
        k_lo, k_hi = sorted(rng.uniform(0.0, 2.5) for _ in range(2))
        n_lo = luxemburg_norm(SpaceParams(k_lo, phi, W1), p).value
        n_hi = luxemburg_norm(SpaceParams(k_hi, phi, W1), p).value
        assert n_lo <= n_hi * (1.0 + 1e-11)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_normalized_vector_has_unit_modular_bound(seed):
    rng = random.Random(seed)
    params = SpaceParams(1.0, Power(2.0), W1)
    p = random_vector(rng, 10, 30)
    res = luxemburg_norm(params, p)
    unit = p.scaled(1.0 / res.value)
    assert modular(params, unit, 1.0) <= 1.0 + 1e-12


def test_norm_overflow_is_reported():
    params = SpaceParams(1.0, ExpSquare(), W1)
    with pytest.raises(ComputationOverflowError) as exc:
        luxemburg_norm(params, SeqVector({1000: 1.0}))
    assert exc.value.index == 1000


def test_norm_rejects_bad_tolerance():
    params = SpaceParams(0.0, Power(2.0), W1)
    p = SeqVector({0: 1.0})
    for bad in (0.0, -1e-3, math.nan):
        with pytest.raises(DomainError):
            luxemburg_norm(params, p, tol_rel=bad)


def test_schauder_truncate():
    p = SeqVector({0: 1.0, -2: 2.0, 2: 3.0, 5: 4.0})
    assert schauder_truncate(p, 2).support == (0, -2, 2)
    assert schauder_truncate(p, 0).support == (0,)
    assert schauder_truncate(p, 99) == p
    with pytest.raises(DomainError):
        schauder_truncate(p, -1)


def test_schauder_curve_spike():
    params = SpaceParams(0.0, Power(2.0), W1)
    curve = schauder_curve(params, SeqVector({5: 2.0}))
    assert len(curve) == 6
    assert all(r == 2.0 for _, r in curve[:5])
    assert curve[5] == (5, 0.0)


def test_schauder_curve_nonincreasing_to_zero():
    rng = random.Random(8)
    params = SpaceParams(1.0, ExpLinear(), W1)
    for _ in range(10):
        p = random_vector(rng, 10, 12, decades=(-1, 1))
        curve = schauder_curve(params, p)
        assert curve[0][0] == 0 and curve[-1] == (p.max_abs_index, 0.0)
        residuals = [r for _, r in curve]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-15
    assert schauder_curve(params, SeqVector()) == [(0, 0.0)]


def test_schauder_curve_solves_each_distinct_tail_once(monkeypatch):
    explin, power = SpaceParams(1.0, ExpLinear(), W1), SpaceParams(1.0, Power(2.0), W1)
    p = SeqVector({0: 1.0, -3: 2.0, 3: 0.5j, 4: 1.0, 9: -0.25, -12: 3.0})
    per_cut = [(c, r.value) for c, r in enumerate(
        luxemburg_norms(explin, [p.tail(c + 1) for c in range(13)]))]
    sparse = SeqVector({0: 1.0, 100000: 0.5})
    lone = luxemburg_norm(power, sparse.tail(1)).value
    solved = []

    def counting(params, vecs, tol_rel):
        solved.append(len(vecs))
        return luxemburg_norms(params, vecs, tol_rel)

    monkeypatch.setattr(luxemburg, "luxemburg_norms", counting)
    assert schauder_curve(explin, p) == per_cut
    assert schauder_curve(power, sparse) == [(c, lone) for c in range(100000)] + [(100000, 0.0)]
    assert schauder_curve(power, SeqVector({0: 2.0})) == [(0, 0.0)]
    assert solved == [5, 2, 1]  # |m| = 3, 4, 9, 12 and the empty tail; 100000 and empty; empty


def test_schauder_curve_refuses_more_points_than_the_grid_allows(capsys, tmp_path, monkeypatch):
    # one point per cut 0..|m|: a billion would not fit in memory
    params = SpaceParams(0.0, Power(2.0), W1)
    monkeypatch.setattr(luxemburg, "luxemburg_norms", None)  # no solve may start
    for m in (10 ** 9, -(10 ** 9), MAX_GRID_POINTS):
        start = time.perf_counter()
        with pytest.raises(DomainError) as exc:
            schauder_curve(params, SeqVector({0: 1.0, m: 1.0}))
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == (f"schauder curve to index {m} needs {abs(m) + 1} points; "
                                  f"at most {MAX_GRID_POINTS} are allowed")
    f = tmp_path / "far.csv"
    f.write_text("1000000000,1,0\n")
    assert run(["schauder-curve", "--phi", "power:2", "--in", str(f)]) == 2
    assert capsys.readouterr() == ("", "error: schauder curve to index 1000000000 needs "
                                       "1000000001 points; at most 1048576 are allowed\n")


def test_schauder_curve_raises_the_first_cuts_error():
    params = SpaceParams(200.0, Power(2.0), W1)  # mu(m) overflows from |m| = 7 on
    p = SeqVector({1: 1.0, -3: 2.0, 3: 1.0, 7: 1.0, -9: 0.5})
    with pytest.raises(ComputationOverflowError) as per_cut:
        luxemburg_norms(params, [p.tail(c + 1) for c in range(10)])
    with pytest.raises(ComputationOverflowError) as curve:
        schauder_curve(params, p)
    assert str(curve.value) == str(per_cut.value) and curve.value.index == 7


GENERATORS = (Power(1.0), Power(2.5), ExpSquare(), ExpLinear(), ExpCompose(Power(2.0)),
              TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]))


@pytest.mark.parametrize("phi", GENERATORS, ids=repr)
def test_batch_rows_equal_single_solves(phi):
    rng = random.Random(606)
    weights = WeightSequence(1.0, {0: 0.2, -3: 4.0, 7: 0.5})
    vecs = [random_vector(rng, n, 12, decades=(-2, 2)) for n in (1, 3, 9, 25, 40)]
    vecs[2:2] = [SeqVector(), SeqVector({-5: 0.7j})]
    vecs += [SeqVector(), vecs[0], vecs[3].tail(4)]
    for k in (0.0, 0.5):
        params = SpaceParams(k, phi, weights)
        for tol in (1e-12, 1e-6):
            batch = luxemburg_norms(params, vecs, tol)
            assert batch == [luxemburg_norm(params, p, tol) for p in vecs]
    assert luxemburg_norms(params, []) == []


# padded with zero terms, each row takes exact_sum's bucket path
@pytest.mark.parametrize("pad", [0, spaces._BUCKET_SUM_MIN])
def test_sum_decision_equals_fsum_on_adversarial_terms(pad):
    rows = ([0.1] * 10,                      # fsum gives exactly 1.0, np.sum less
            [1.0, 2.0 ** -53, 2.0 ** -53],   # np.sum gives 1.0, fsum more
            [0.5, 0.5 + 2.0 ** -53],         # exact sum rounds to 1.0
            [0.75, 0.25 + 2.0 ** -52],
            [1.0 - 2.0 ** -53],
            [1.0])
    rows = [r + [0.0] * pad for r in rows]
    width = max(map(len, rows))
    terms = np.array([r + [0.0] * (width - len(r)) for r in rows])
    n = np.array([len(r) for r in rows])
    got, sums = _at_most_one(terms, n, _sum_slack(n))
    assert got.tolist() == [math.fsum(r) <= 1.0 for r in rows]
    assert got.tolist() == [True, False, True, False, True, True]
    assert sums.tolist() == terms.sum(axis=1).tolist()


def test_sum_decision_equals_fsum_near_one():
    rng = random.Random(71)
    rows = []
    for i in range(400):
        # the last rows are long enough for exact_sum's bucket path
        size = rng.randint(1, 60) if i < 380 else rng.randint(700, 1500)
        r = [rng.random() * 10.0 ** rng.uniform(-8, 0) for _ in range(size)]
        total = math.fsum(r)
        r = [x / total for x in r]
        r[rng.randrange(len(r))] += rng.choice((-1, 0, 1)) * rng.randint(0, 4) * 2.0 ** -53
        rows.append(r)
    width = max(map(len, rows))
    terms = np.array([r + [0.0] * (width - len(r)) for r in rows])
    n = np.array([len(r) for r in rows])
    got, sums = _at_most_one(terms, n, _sum_slack(n))
    assert got.tolist() == [math.fsum(r) <= 1.0 for r in rows]
    assert sums.tolist() == terms.sum(axis=1).tolist()


def _error_of(params, p):
    with pytest.raises(ComputationOverflowError) as exc:
        luxemburg_norm(params, p)
    return str(exc.value), exc.value.index


def test_batch_raises_the_lowest_failing_row():
    params = SpaceParams(1.0, ExpSquare(), W1)
    good = SeqVector({0: 1.0, 3: 0.2})
    far, farther = SeqVector({1000: 1.0}), SeqVector({2000: 1.0})
    for order in ((good, far, farther), (good, farther, far)):
        with pytest.raises(ComputationOverflowError) as exc:
            luxemburg_norms(params, order)
        assert (str(exc.value), exc.value.index) == _error_of(params, order[1])
        assert exc.value.index == order[1].support[0]

    # k < 0: measures underflow to 0, so rows fail inside the solve as well
    params = SpaceParams(-1.0, ExpSquare(), W1)
    term_overflow = SeqVector({30: 100.0, 0: 1.0})
    arg_overflow = SeqVector({30: 1e300, 0: 1e-300})
    no_bracket = SeqVector({30: 1.0})
    assert _error_of(params, term_overflow) == (
        "modular term overflow at index 30 during norm solve", 30)
    assert _error_of(params, arg_overflow) == (
        "scaled argument overflow at index 30 during norm solve", 30)
    for first, second in ((term_overflow, arg_overflow), (arg_overflow, term_overflow),
                          (term_overflow, no_bracket), (no_bracket, arg_overflow)):
        with pytest.raises(ComputationOverflowError) as exc:
            luxemburg_norms(params, [good, first, second, good])
        want = pytest.raises(ComputationOverflowError, luxemburg_norm, params, first)
        assert (str(exc.value), exc.value.index) == (str(want.value), want.value.index)


def test_row_without_an_inverse_fails_alone():
    # phi stays at 1 beyond t = 1, and 1/mu(3) = 4 is never reached
    bounded = TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    params = SpaceParams(0.0, bounded, WeightSequence(1.0, {3: 0.25, -2: 1e-320}))
    stuck, good = SeqVector({0: 1.0, 3: 0.5}), SeqVector({0: 0.5, 1: 0.2})
    with pytest.raises(CertificateError) as alone:
        luxemburg_norm(params, stuck)
    # 1/mu(-2) overflows, so that term never binds, and 1/mu(3) = 4 has no root
    unbounded = SeqVector({3: 0.5, -2: 1.0})
    with pytest.raises(CertificateError) as target:
        luxemburg_norm(params, unbounded)
    assert str(target.value) == str(alone.value)
    vecs = [good, stuck, SeqVector(), good.tail(1), unbounded]
    out = _solve(TermBatch(params, [p._row() for p in vecs]), TOL)
    assert out[0] == luxemburg_norm(params, good)
    assert out[3] == luxemburg_norm(params, good.tail(1))
    assert out[2].value == 0.0
    for got, want in ((out[1], alone.value), (out[4], target.value)):
        assert (type(got), str(got)) == (type(want), str(want))
    with pytest.raises(CertificateError, match=str(alone.value)):
        luxemburg_norms(params, [good, stuck])


def test_a_term_whose_inverse_target_overflows_never_binds():
    # mu(0) = 1e-310 is subnormal: 1/mu(0) overflows, so rho_low comes from
    # the other terms, and the norm solves as usual
    params = SpaceParams(0.0, Power(2.0), WeightSequence(1.0, {0: 1e-310}))
    got = luxemburg_norm(params, SeqVector({0: 1.0, 1: 1e-100}))
    assert got.value == pytest.approx(math.sqrt(1e-200 + 1e-310), rel=1e-12)
    assert got.bracket[0] <= 1e-100 <= got.value
    # alone, no term gives a lower end: not representable, and it fails alone
    lone, good = SeqVector({0: 1.0}), SeqVector({1: 0.5, 2: 0.25})
    with pytest.raises(ComputationOverflowError, match="norm bracket not representable"):
        luxemburg_norm(params, lone)
    out = _solve(TermBatch(params, [p._row() for p in (good, lone, good)]), TOL)
    assert out[0] == out[2] == luxemburg_norm(params, good)
    assert isinstance(out[1], ComputationOverflowError)


def test_covering_check_reports_the_first_failing_sample():
    cert = uniform_tail_index(SpaceParams(2.0, ExpSquare(), W1), 1.0, 1.0, 0.5)
    good = SeqVector({0: 0.1})
    refuted = SeqVector({cert.m_eps_kappa + 1: 0.3})
    overflow = SeqVector({1000: 1.0})
    with pytest.raises(CertificateRefutedError) as exc:
        covering_check(cert, [good, refuted, overflow])
    assert exc.value.witness[0] == 1
    with pytest.raises(ComputationOverflowError) as exc:
        covering_check(cert, [good, overflow, refuted])
    assert exc.value.index == 1000


class _SquareWithHole(OrliczFunction):
    """t**2, except inf on a narrow window: a solve that lands there overflows."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def _raw_eval(self, t):
        return np.where((t >= self.lo) & (t <= self.hi), math.inf, t * t)

    def descriptor(self) -> str:
        return f"hole:{self.lo:.17g},{self.hi:.17g}"


def test_row_that_overflows_inside_the_bisection_fails_alone():
    _check_hole_fails_alone()


def _hole_case():
    """The space, the holed vector and two vectors whose norms miss the hole.

    The norm of {0: 1, 1: c} is sqrt(1 + c**2), where c/norm lies inside
    the hole; rho_low = 1 and the doubling to 2 both step over it, so only
    a bisection midpoint close to the norm lands there."""
    params = SpaceParams(0.0, _SquareWithHole(0.3, 0.30001), W1)
    c = 0.300005 / math.sqrt(1.0 - 0.300005 ** 2)
    return (params, SeqVector({0: 1.0, 1: c}), SeqVector({0: 1.0, 2: 0.5}),
            SeqVector({-1: 0.25}))


def _check_hole_fails_alone():
    params, holed, good, other = _hole_case()
    batch = [good, holed, other]
    out = _solve(TermBatch(params, [p._row() for p in batch]), TOL)
    assert isinstance(out[1], ComputationOverflowError)
    assert (str(out[1]), out[1].index) == (
        "modular term overflow at index 1 during norm solve", 1)
    assert out[0] == luxemburg_norm(params, good)
    assert out[2] == luxemburg_norm(params, other)
    assert out[0].iterations > 0
    assert out[0].value == pytest.approx(math.sqrt(1.25), rel=1e-12)
    with pytest.raises(ComputationOverflowError) as exc:
        luxemburg_norms(params, batch)
    assert (str(exc.value), exc.value.index) == (str(out[1]), 1)


def test_row_that_overflows_in_a_plain_round_fails_alone(monkeypatch):
    # 41 rows to bisect (a lone term closes at rho_low), more than
    # _WINDOW_ROWS: every row, the holed one included, is halved in plain
    # rounds to its own stop, and the holed row fails there with its first
    # error when it meets the hole
    params, holed, good, other = _hole_case()
    batch = [good] * 20 + [other, holed, other] + [good] * 20
    # lone solves first: they fill the inverse's memo, so the only
    # look-ahead rounds below would be the norm solver's
    want = [luxemburg_norm(params, p) for p in batch if p is not holed]
    looked = []

    def look_ahead(*args):
        looked.append(args)
        return look(*args)

    look = functions._look_ahead
    monkeypatch.setattr(functions, "_look_ahead", look_ahead)
    out = _solve(TermBatch(params, [p._row() for p in batch]), TOL)
    assert (type(out[21]), str(out[21]), out[21].index) == (
        ComputationOverflowError, "modular term overflow at index 1 during norm solve", 1)
    assert not looked  # the hole was met in a plain round
    assert [r for r, p in zip(out, batch) if p is not holed] == want


def test_an_overflowing_upper_bracket_fails_its_row_alone():
    # the modular at rho_low = 1.5e308 is 2, and doubling it leaves double range
    params = SpaceParams(0.0, Power(2.0))
    huge, good = SeqVector({0: 1.5e308, 1: 1.5e308}), SeqVector({0: 1.5e308})
    with pytest.raises(ComputationOverflowError) as exc:
        luxemburg_norm(params, huge)
    assert str(exc.value) == "upper norm bracket overflowed double range"
    out = _solve(TermBatch(params, [p._row() for p in (good, huge, good)]), TOL)
    assert out[0] == out[2] == luxemburg_norm(params, good)
    assert (type(out[1]), str(out[1])) == (type(exc.value), str(exc.value))


class _FlatRoot(OrliczFunction):
    """t**0.01: not convex, so a user generator outside the Orlicz axioms."""

    def _raw_eval(self, t):
        return t ** 0.01

    def descriptor(self) -> str:
        return "flat-root"


def test_a_bracket_that_does_not_close_within_the_doublings_fails_its_row_alone():
    # each term alone closes at rho_low = 2**-200, but 4096 terms of 2**-100
    # at weight 1/2 give the modular 1024 * rho**-0.01, at most 1 only from
    # 2**1000: 1200 doublings, more than _MAX_DOUBLINGS, and within double range
    params = SpaceParams(0.0, _FlatRoot(), WeightSequence.constant(0.5))
    flat, good = SeqVector({m: 2.0 ** -100 for m in range(4096)}), SeqVector({0: 1.0})
    assert luxemburg._MAX_DOUBLINGS < 1200
    with pytest.raises(ComputationOverflowError) as exc:
        luxemburg_norm(params, flat)
    assert str(exc.value) == "norm bracket did not close after doubling"
    out = _solve(TermBatch(params, [p._row() for p in (good, flat, good)]), TOL)
    assert out[0] == out[2] == luxemburg_norm(params, good)
    assert (type(out[1]), str(out[1])) == (type(exc.value), str(exc.value))


def _lying_certificate(source, target_k, cut):
    return BallTailCertificate(1.0, 0.5, 4.0, ThetaBound(4.0, 1.0, 1.0),
                               cut, cut, cut, source, target_k)


def test_covering_check_prefers_the_tail_modular_error_of_a_sample():
    # k = -1: mu(30) underflows to 0, so 0 * phi(huge) is a nan term
    cert = _lying_certificate(SpaceParams(0.0, ExpSquare(), W1), -1.0, 1)
    target = cert.target_params
    both = SeqVector({30: 100.0, 1: 1.0})  # tail modular and solve both fail
    solve_only = SeqVector({30: 1.0})  # tail modular 0, solve fails
    with pytest.raises(ComputationOverflowError) as exc, np.errstate(invalid="ignore"):
        modular(target, both, 0.25)
    modular_error = ("modular term overflow at index 30 for rho=0.25", 30)
    assert (str(exc.value), exc.value.index) == modular_error
    assert modular(target, solve_only, 0.25) == 0.0
    assert _error_of(target, both) == (
        "modular term overflow at index 30 during norm solve", 30)
    with pytest.raises(ComputationOverflowError) as exc:
        luxemburg_norm(target, solve_only)
    solve_error = (str(exc.value), exc.value.index)
    assert solve_error[0].startswith("norm bracket not representable")
    for order, want in (([both, solve_only], modular_error),
                        ([solve_only, both], solve_error)):
        with pytest.raises(ComputationOverflowError) as exc, np.errstate(invalid="ignore"):
            covering_check(cert, [SeqVector({0: 0.1}), *order])
        assert (str(exc.value), exc.value.index) == want


class _SquarePlusCube(OrliczFunction):
    """t**2 * (t + 1/2): a user generator with only a numpy form."""

    def _raw_eval(self, t):
        return t * t * (t + 0.5)

    def descriptor(self) -> str:
        return "square-plus-cube"


ORACLE_GENERATORS = (
    Power(1.0), Power(1.5), Power(2.0), Power(3.0), ExpSquare(), ExpLinear(),
    ExpCompose(Power(1.5)), GENERATORS[-1],
    TabulatedConvex([(0.0, 0.0), (0.3, 0.03), (0.31, 0.04), (1.0, 1.0)]), _SquarePlusCube())
ORACLE_WEIGHTS = WeightSequence(1.0, {0: 0.2, -3: 4.0, 7: 0.5, 20: 3.0})


def _oracle_vectors(params, seed: int) -> list:
    """15 vectors of 1-64 terms with finite measures, values over six decades."""
    rng = random.Random(seed)
    top = max(m for m in range(41) if scalar_mu_oracle(params, m) is not None)
    vecs = []
    for _ in range(15):
        support = rng.sample(range(-top, top + 1), min(rng.randint(1, 64), 2 * top + 1))
        vecs.append(SeqVector({m: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                               * 10.0 ** rng.uniform(-3.0, 3.0) for m in support}))
    return vecs


def _check_norms_against_the_oracle(phi, ks, tols, lone=True):
    for k in ks:
        params = SpaceParams(k, phi, ORACLE_WEIGHTS)
        vecs = _oracle_vectors(params, int(10 * k))
        for tol in tols:
            want = [scalar_norm_oracle(params, p, tol) for p in vecs]
            assert luxemburg_norms(params, vecs, tol) == want
            if lone:
                assert [luxemburg_norm(params, p, tol) for p in vecs] == want


@pytest.mark.parametrize("phi", ORACLE_GENERATORS, ids=lambda f: f.descriptor()[:16])
def test_norms_equal_the_scalar_oracle(phi):
    # value, bracket, modular_at_value and iterations, in batches of 15 and 1
    _check_norms_against_the_oracle(phi, (0.0, 0.5, 1.0, 2.0), (1e-12, 1e-6))


@pytest.mark.parametrize("phi", ORACLE_GENERATORS, ids=lambda f: f.descriptor()[:16])
def test_norms_close_within_53_steps_at_the_finest_tolerance(phi):
    # every bisection starts from a doubling's [x, 2x], one binade wide, so
    # at tol_rel = 2**-1074 it stops within 53 steps, subnormal norms included
    for k in (0.0, 1.0):
        params = SpaceParams(k, phi, ORACLE_WEIGHTS)
        vecs = _oracle_vectors(params, int(10 * k)) + [
            SeqVector({0: 1e-310}), SeqVector({0: 5e-324, 7: 1e-320}),
            SeqVector({-3: 1e300, 0: 2e300})]
        got = luxemburg_norms(params, vecs, 5e-324)
        assert got == [scalar_norm_oracle(params, p, 5e-324) for p in vecs]
        assert max(r.iterations for r in got) <= 53


def _check_undecided_sum():
    # at the first midpoint, 1.5, the terms are fl(2/3), fl(1/3), 2**-53 and
    # 2**-53: np.sum gives 1.0, but the exact sum exceeds 1 + 2**-53, so
    # math.fsum says the norm lies above 1.5
    params = SpaceParams(0.0, Power(1.0), W1)
    p = SeqVector({0: 1.0, 1: 0.5, 2: 1.5 * 2.0 ** -53, 3: 1.5 * 2.0 ** -53})
    res = luxemburg_norm(params, p)
    assert res == scalar_norm_oracle(params, p, TOL) and res.bracket[0] >= 1.5


def test_an_undecided_sum_on_the_path_falls_back_to_fsum():
    _check_undecided_sum()


@pytest.mark.parametrize("guess", GUESS_NAMES)
def test_norms_do_not_depend_on_the_guess(guess, monkeypatch):
    monkeypatch.setattr(functions, "_guess", bad_guess(guess))
    for phi in ORACLE_GENERATORS:  # batches of 15; lone solves for power:2 only
        _check_norms_against_the_oracle(phi, (1.0,), (1e-12,), lone=phi == Power(2.0))
    _check_hole_fails_alone()
    _check_undecided_sum()
    # the norm, about 1.118, is bisected from [1, 2]: a guess above 1.5 lays
    # out 1.75 next, where the first term's argument lies in the hole; that
    # cell is past the row's path, so the row does not fail
    params = SpaceParams(0.0, _SquareWithHole(0.5714, 0.5715), W1)
    p = SeqVector({0: 1.0, 1: 0.5})
    assert luxemburg_norm(params, p) == scalar_norm_oracle(params, p, TOL)


class _CountedPower(Power):
    """power counting its numpy evaluations."""

    def _raw_eval(self, t):
        self.__dict__["calls"] = self.__dict__.get("calls", 0) + 1
        return super()._raw_eval(t)


class _CountedExpLinear(ExpLinear):
    """explin counting its evaluations."""

    def _raw_eval(self, t):
        self.__dict__["calls"] = self.__dict__.get("calls", 0) + 1
        return super()._raw_eval(t)


def test_a_lone_solve_takes_a_few_wide_rounds():
    rng = random.Random(3)
    p = SeqVector({m: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                   * 10.0 ** rng.uniform(-2.0, 2.0) for m in rng.sample(range(-30, 31), 20)})
    for phi, k in ((_CountedPower(2.0), 1.0), (_CountedExpLinear(), 0.5)):
        params = SpaceParams(k, phi, W1)
        want = luxemburg_norm(params, p)  # warms the inverse memo and the factor table
        assert want == scalar_norm_oracle(params, p, TOL) and want.iterations == 40
        phi.calls = 0
        assert luxemburg_norm(params, p) == want
        # a rho_low probe, the doublings, the bisection and the final modular;
        # a round per bisection step took 44 and 43 calls
        assert phi.calls <= 8
    cold = _CountedExpLinear()
    assert cold.inverse(1e-3) == ExpLinear().inverse(1e-3)
    assert cold.calls <= 8  # a round per bisection step took 52


@pytest.mark.parametrize("k", [0.5, 1.0])
@pytest.mark.parametrize("m", [300, 455, 600, 700])
def test_one_term_explin_norm_against_mpmath(k, m):
    # ||p_m e_m|| = |p_m| / phi^{-1}(1/mu(m)), with 1/mu(m) from 1e-65 (m = 300,
    # k = 0.5) down to 1e-304 (m = 700, k = 1)
    mpmath = pytest.importorskip("mpmath")
    params, p = SpaceParams(k, ExpLinear(), W1), SeqVector({-m: 3e-5 - 4e-5j})
    got = luxemburg_norm(params, p).value
    with mpmath.workprec(200):
        want = abs(p.values[0]) / mpmath_explin_root(mpmath, 1 / (1 + mpmath.expm1(m) - m) ** k)
        assert abs(got - want) <= 2 * TOL * want
    # the solve starts from a lower bracket end near the norm, not far below it
    assert got / 2 <= _rho_low(TermBatch(params, [p._row()]))[0] <= got
