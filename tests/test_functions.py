"""Generator families: evaluation, inverses, axiom probes, scaling bounds."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczseq import (CertificateError, DomainError, ExpCompose, ExpLinear,
                       ExpSquare, GeometricProbe, OrliczFunction, Power,
                       SpaceParams, TabulatedConvex, default_probe_grid,
                       delta2_at_zero, functions, luxemburg_norms, parse_orlicz,
                       theta_bound, validate_orlicz)
from helpers import (GUESS_NAMES, NON_MONOTONE_TABLE, bad_guess, mpmath_explin_root,
                     random_vector, scalar_inverse_oracle, scalar_phi_oracle)

E_MINUS_2 = 0.71828182845904523536
SQRT_LN2 = 0.83255461115769775635
EXPSQ_RATIO_AT_HALF = 6.04974670400054429947  # expm1(1)/expm1(1/4)
SAFETY = 1.0 + 1e-6

FAMILIES = [
    Power(1.0),
    Power(1.5),
    Power(3.0),
    ExpSquare(),
    ExpLinear(),
    ExpCompose(Power(2.0)),
    TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
]


def test_eval_worked_values():
    assert Power(2.0)(3.0) == 9.0
    assert ExpSquare()(0.0) == 0.0
    assert abs(ExpLinear()(1.0) - E_MINUS_2) <= 1e-15 * E_MINUS_2
    assert ExpCompose(Power(2.0))(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    tab = TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
    assert tab(0.5) == 0.5
    assert tab(1.5) == 2.5
    assert tab(3.0) == 7.0  # final slope 3 continues past the last knot


def test_eval_rejects_bad_points():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            Power(2.0)(bad)
    with pytest.raises(DomainError):
        ExpSquare()(np.array([0.5, -0.25]))


def test_eval_scalar_matches_array():
    ts = np.geomspace(1e-12, 30.0, 200)
    for phi in FAMILIES:
        arr = phi(ts)
        for i in (0, 57, 199):
            scalar = phi(float(ts[i]))
            assert scalar == pytest.approx(float(arr[i]), rel=1e-13, abs=1e-300)


def test_explin_small_argument_accuracy():
    # direct exp(t)-t-1 would lose ~all digits here; the series keeps them
    t = 1e-8
    expected = t * t / 2.0 * (1.0 + t / 3.0)
    assert ExpLinear()(t) == pytest.approx(expected, rel=1e-12)


def test_overflow_saturates_to_inf():
    assert ExpSquare()(40.0) == math.inf
    assert ExpLinear()(1e4) == math.inf
    assert Power(100.0)(1e10) == math.inf


def test_inverse_worked_values():
    assert Power(2.0).inverse(9.0) == 3.0
    assert ExpSquare().inverse(1.0) == pytest.approx(SQRT_LN2, rel=1e-15)
    assert ExpLinear().inverse(0.0) == 0.0
    # exp-compose inverse goes through log1p then the inner closed form
    y = ExpCompose(Power(2.0))(0.75)
    assert ExpCompose(Power(2.0)).inverse(y) == pytest.approx(0.75, rel=1e-12)


CLOSED_FORMS = [
    (Power(1.5), lambda v: v ** (1.0 / 1.5)),
    (Power(3.0), lambda v: v ** (1.0 / 3.0)),
    (ExpSquare(), lambda v: math.sqrt(math.log1p(v))),
    (ExpCompose(Power(2.0)), lambda v: math.log1p(v) ** 0.5),
    (ExpCompose(ExpSquare()), lambda v: math.sqrt(math.log1p(math.log1p(v)))),
    (ExpCompose(ExpLinear()), lambda v: ExpLinear().inverse(math.log1p(v))),
]


@pytest.mark.parametrize("phi,formula", CLOSED_FORMS,
                         ids=[phi.descriptor() for phi, _ in CLOSED_FORMS])
def test_closed_form_inverses_equal_the_scalar_formula(phi, formula):
    # bit for bit: np.power and np.log1p differ from Python's in the last bit
    ys = np.geomspace(1e-300, 1e300, 500)
    t, errors = phi.inverses(ys)
    assert not errors
    assert t.tolist() == [formula(v) for v in ys.tolist()]


def test_inverse_rejects_bad_targets():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ExpLinear().inverse(bad)


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda f: f.descriptor())
def test_inverse_round_trip(phi):
    for t in np.geomspace(1e-6, 20.0, 40):
        y = phi(float(t))
        if y == 0.0 or math.isinf(y):
            continue
        t_back = phi.inverse(y)
        assert phi(t_back) == pytest.approx(y, rel=1e-10)


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda f: f.descriptor())
def test_inverse_contract(phi):
    # |phi(t) - y| <= tol * max(1, y) at the default tolerance
    for y in (1e-9, 0.031, 1.0, 47.0, 1e6):
        t = phi.inverse(y)
        assert abs(phi(t) - y) <= 1e-12 * max(1.0, y)


class ScalarOnly(OrliczFunction):
    """t**2 * (t + 1/2) in arithmetic that floats and arrays share: a user
    generator that defines one evaluation, ``_raw_eval``, and gets the exact
    evaluation and the inverse from the base class."""

    def _raw_eval(self, t):
        return t * t * (t + 0.5)

    def descriptor(self) -> str:
        return "scalar-only"


TABLE = FAMILIES[-1]
# knots that are not exact binary fractions, where np.interp and the scalar
# interpolation formula round differently
INEXACT_TABLE = TabulatedConvex([(0.0, 0.0), (0.3, 0.03), (0.31, 0.04), (1.0, 1.0)])
BISECTED = [ExpLinear(), TABLE, INEXACT_TABLE, ExpCompose(ExpLinear()), ScalarOnly()]


def _targets():
    rng = np.random.default_rng(20261018)
    half = ExpLinear()(0.5)
    near_half = [float(x) for x in np.nextafter(half, [0.0, np.inf])] + [half]
    knot_values = [v for _, v in TABLE.knots + INEXACT_TABLE.knots]
    return [0.0, 1e-320, 1e-152, 1e300, *near_half, *knot_values,
            *10.0 ** rng.uniform(-300.0, 300.0, 60), *rng.uniform(0.0, 20.0, 60)]


def _forget_roots(phi):
    """Clear the generic inverse's memo, so the next inverse bisects."""
    solver = phi.inner if isinstance(phi, ExpCompose) else phi
    vars(solver).pop("_inverse_roots", None)
    return phi


@pytest.mark.parametrize("phi", BISECTED, ids=lambda f: f.descriptor()[:24])
def test_inverses_equal_the_scalar_bisection(phi):
    ys = _targets()
    # exp(inner(t)) - 1 = y is solved as inner(t) = log1p(y)
    want = _check_inverses(phi, ys)
    # each target bisected alone, in a batch of one
    assert [_forget_roots(phi).inverse(y) for y in ys] == want


def _dyadic_targets(phi):
    # targets phi(2**-j) and their neighbours, where the doubling bracket
    # stops (j <= 0) and where a bisection that halves hi from 1 turns: for j
    # up to and past 200, where the halving ladder's first part ends, and up
    # to 1074, where it ends at the smallest double
    at = [scalar_phi_oracle(phi, 2.0 ** -j) for j in (*range(-10, 211), *range(1064, 1075))]
    ys = sorted({y for v in at for y in (v, *np.nextafter(v, [0.0, np.inf]).tolist())
                 if 0.0 <= y < math.inf})
    deep = scalar_phi_oracle(phi, 2.0 ** -210)
    return ys + [0.9 * deep, deep / 3.0, 1e-320]


def _check_inverses(phi, ys):
    inner, arg = ((phi.inner, math.log1p) if isinstance(phi, ExpCompose)
                  else (phi, float))
    want = [scalar_inverse_oracle(inner, arg(y)) for y in ys]
    t, errors = _forget_roots(phi).inverses(ys)
    assert errors == {}
    assert t.tolist() == want
    return want


@pytest.mark.parametrize("phi", BISECTED + [NON_MONOTONE_TABLE],
                         ids=lambda f: f.descriptor()[:24])
def test_inverses_equal_the_scalar_bisection_at_dyadic_points(phi):
    _check_inverses(phi, _dyadic_targets(phi))


def test_inverses_do_not_depend_on_the_guess(monkeypatch):
    for phi in BISECTED + [NON_MONOTONE_TABLE]:
        for ys in (_targets(), _dyadic_targets(phi)):
            want = _check_inverses(phi, ys)
            for guess in GUESS_NAMES:
                monkeypatch.setattr(functions, "_guess", bad_guess(guess))
                t, errors = _forget_roots(phi).inverses(ys)
                assert errors == {} and t.tolist() == want
                assert ExpLinear().inverse(1e-3) == scalar_inverse_oracle(ExpLinear(), 1e-3)
            monkeypatch.undo()


def _scalar_bisection(l, h, root, width, cap):
    """[l, h] bisected toward root with the stop tests of ``_bisect``, and the steps."""
    steps = 0
    while steps < cap and h - l > width * h and l < 0.5 * (l + h) < h:
        mid = 0.5 * (l + h)
        l, h = (mid, h) if mid < root else (l, mid)
        steps += 1
    return l, h, steps


def test_a_narrow_batch_looks_ahead_every_round_once_it_can(monkeypatch):
    # 15 rows of 40 cells leave room for 13 levels a round; the brackets
    # [1, 1 + 2**-j] end 35-39 levels down, and the excess is linear in rho,
    # so the guess (a secant in log rho) is close but not exact
    top = 1.0 + 2.0 ** -(np.arange(15) // 3 + 1)
    roots = 1.0 + (top - 1.0) * np.linspace(0.1, 0.9, 15)
    kinds, windows = [], []

    def split(mid, root):
        kinds.append(mid.ndim)
        if mid.ndim == 1:
            return mid < root, None
        return mid < root[:, None], root[:, None] - mid, None

    def look_ahead(*args):
        windows.append(look(*args))
        return windows[-1]

    look = functions._look_ahead
    monkeypatch.setattr(functions, "_look_ahead", look_ahead)
    lo, hi, steps = np.ones(15), top.copy(), np.zeros(15, dtype=np.int64)
    functions._bisect(lo, hi, steps, 1e-12, 60, split, (roots,), (roots - 1.0, roots - top), 40)
    want = [_scalar_bisection(1.0, h, r, 1e-12, 60) for h, r in zip(top.tolist(), roots.tolist())]
    assert list(zip(lo.tolist(), hi.tolist(), steps.tolist())) == want
    assert kinds[0] == 2 and 1 not in kinds  # no plain round after the first look-ahead
    assert windows and None not in windows  # no planned window was discarded


@pytest.mark.parametrize("phi", FAMILIES + BISECTED[2:], ids=lambda f: f.descriptor()[:24])
def test_eval_exact_equals_scalar_raw_eval(phi):
    rng = np.random.default_rng(7)
    knots = [t for t, _ in TABLE.knots + INEXACT_TABLE.knots]
    ts = np.array([0.0, 0.5, *knots, 4.5, 1e3, 1e300,
                   *rng.uniform(0.0, 5.0, 500), *10.0 ** rng.uniform(-300.0, 2.0, 500)])
    with np.errstate(over="ignore"):
        got = phi._eval_exact(ts)
    want = [scalar_phi_oracle(phi, t) for t in ts.tolist()]
    assert got.tolist() == want
    # eval on a float is a batch of one of _eval_exact
    assert [phi.eval(t) for t in ts.tolist()[:200]] == want[:200]


def test_failing_targets_fail_alone():
    with pytest.raises(DomainError):
        ExpLinear().inverse(math.inf)
    t, errors = ExpLinear().inverses([0.5, math.inf, -1.0, 2.0])
    assert sorted(errors) == [1, 2]
    assert all(isinstance(e, DomainError) for e in errors.values())
    assert [t[0], t[3]] == [ExpLinear().inverse(0.5), ExpLinear().inverse(2.0)]
    # phi stays at 1 beyond t = 1, so the bracket for 2 never closes
    bounded = TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(CertificateError, match="target beyond double range"):
        bounded.inverse(2.0)
    t, errors = bounded.inverses([0.25, 2.0, 1.0])
    assert list(errors) == [1] and isinstance(errors[1], CertificateError)
    assert [t[0], t[2]] == [scalar_inverse_oracle(bounded, 0.25),
                            scalar_inverse_oracle(bounded, 1.0)]


def _memo_generators(tmp_path):
    """Builders of fresh generators whose inverse is the generic bisection."""
    knots = tmp_path / "knots.csv"
    knots.write_text("".join(f"{t!r},{v!r}\n" for t, v in INEXACT_TABLE.knots))
    return {"explin": ExpLinear,
            "tab": lambda: TabulatedConvex(INEXACT_TABLE.knots),
            "expof:tab": lambda: parse_orlicz(f"expof:tab:{knots}")}


def _no_eval(self, t):
    raise AssertionError("a remembered root evaluated phi")


@pytest.mark.parametrize("name", ["explin", "tab", "expof:tab"])
def test_remembered_roots_are_bit_identical(name, tmp_path, monkeypatch):
    make = _memo_generators(tmp_path)[name]
    ys = _targets()
    cold, errors = make().inverses(ys)
    assert errors == {}
    # the same targets split and shuffled across calls on a fresh instance
    phi = make()
    order = np.random.default_rng(5).permutation(len(ys))
    split = np.empty(len(ys))
    for part in np.split(order, [1, 8, 40]):
        split[part] = phi.inverses([ys[i] for i in part])[0]
    assert split.tolist() == cold.tolist()
    assert phi.inverses(ys)[0].tolist() == cold.tolist()
    assert [phi.inverse(y) for y in ys] == cold.tolist()
    # warm, every root comes from the memo: no evaluation of phi
    solver = phi.inner if isinstance(phi, ExpCompose) else phi
    monkeypatch.setattr(type(solver), "_eval_exact", _no_eval)
    assert phi.inverses(ys[::-1])[0].tolist() == cold.tolist()[::-1]


class SlowGrowth(OrliczFunction):
    """log1p(t): a user generator that stays below 1e3 on the whole double range."""

    def _raw_eval(self, t):
        return np.log1p(t)

    def descriptor(self) -> str:
        return "slow"


def test_failing_targets_are_not_remembered():
    phi, explin = SlowGrowth(), ExpLinear()
    for _ in range(2):
        with pytest.raises(CertificateError):
            phi.inverse(1e3)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                explin.inverse(bad)
        t, errors = phi.inverses([0.5, 1e3, math.nan])
        assert isinstance(errors[1], CertificateError) and isinstance(errors[2], DomainError)
        assert t[0] == scalar_inverse_oracle(phi, 0.5) and math.isnan(t[1])
    assert list(vars(phi)["_inverse_roots"]) == [0.5]


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(functions, "_MEMO_ROOTS", 8)
    phi, rng, seen = ExpLinear(), np.random.default_rng(3), []
    for size in (3, 5, 1, 20, 8, 9, 2):
        # new targets mixed with ones solved before
        ys = [*seen[-3:], *(10.0 ** rng.uniform(-30.0, 3.0, size)).tolist()]
        seen += ys
        assert phi.inverses(ys)[0].tolist() == [scalar_inverse_oracle(phi, y) for y in ys]
        assert len(vars(phi)["_inverse_roots"]) <= 8


def test_norms_equal_with_a_cold_and_a_warm_memo():
    # covering-style rows: supports up to 20 with |m| <= 64, explin at k' = 2
    rng = random.Random(11)
    vecs = [random_vector(rng, 20, 64) for _ in range(15)]
    others = [random_vector(rng, 20, 64) for _ in range(30)]
    cold = luxemburg_norms(SpaceParams(2.0, ExpLinear()), vecs)
    params = SpaceParams(2.0, ExpLinear())
    luxemburg_norms(params, others)
    # partly warm from the other rows, then every root remembered
    assert luxemburg_norms(params, vecs) == cold
    assert luxemburg_norms(params, vecs) == cold


def test_explin_inverse_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    phi = ExpLinear()
    with mpmath.workdps(50):
        for y in np.geomspace(1e-40, 1e3, 100).tolist():
            t, target = phi.inverse(y), mpmath.mpf(y)
            # expm1(s) - s keeps the digits that exp(s) - s - 1 cancels
            root = mpmath.findroot(lambda s: mpmath.expm1(s) - s - target, mpmath.mpf(t),
                                   solver="newton", df=mpmath.expm1)
            assert abs((t - root) / root) <= 1e-14, y


# the roots of these targets lie past 2**-150, past 2**-200 and, for the
# table, among the subnormal doubles; from 1e-310 on phi's values are subnormal
TINY_TARGETS = (1e-40, 1e-45, 1e-100, 1e-152, 1e-300, 1e-310, 5e-324)
# phi(t) = 0.3*t below t = 1: one rounding, of the product
SLOPE_TABLE = TabulatedConvex([(0.0, 0.0), (1.0, 0.3), (2.0, 1.0)])


TINY_ROOTS = {
    "explin": (ExpLinear(), mpmath_explin_root),
    "tab": (SLOPE_TABLE, lambda mpmath, y: y / mpmath.mpf(SLOPE_TABLE.knots[1][1])),
    "expof:explin": (ExpCompose(ExpLinear()),
                     lambda mpmath, y: mpmath_explin_root(mpmath, mpmath.log1p(y))),
}


@pytest.mark.parametrize("name", sorted(TINY_ROOTS))
def test_inverse_of_tiny_targets_against_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    phi, root_of = TINY_ROOTS[name]
    with mpmath.workprec(200):
        for y in TINY_TARGETS:
            t = _forget_roots(phi).inverse(y)
            # a subnormal phi(t) is rounded to a multiple of 2**-1074, which
            # moves the target it meets by up to 2**-1075
            slack = mpmath.ldexp(1, -1075) if y < 2.0 ** -1022 else 0
            lo = root_of(mpmath, mpmath.mpf(y) - slack) * (1 - mpmath.mpf(2e-15))
            hi = root_of(mpmath, mpmath.mpf(y) + slack) * (1 + mpmath.mpf(2e-15))
            if t >= 2.0 ** -1022:
                assert lo <= t <= hi, y
            else:  # a subnormal root: t is a double next to [lo, hi] or in it
                assert np.nextafter(t, math.inf) > lo and np.nextafter(t, 0.0) < hi, y


@pytest.mark.parametrize("phi", [TABLE, INEXACT_TABLE], ids=lambda f: f.descriptor()[:24])
def test_tabulated_inverse_against_the_exact_root(phi):
    ts, vs = (tuple(map(Fraction, col)) for col in zip(*phi.knots))
    for y in [*np.geomspace(1e-30, 1e3, 100).tolist(), *(float(v) for v in vs[1:])]:
        # the segment whose values reach y, else the last one extended
        i = next((i for i in range(len(ts) - 1) if vs[i] < Fraction(y) <= vs[i + 1]),
                 len(ts) - 2)
        root = ts[i] + (Fraction(y) - vs[i]) * (ts[i + 1] - ts[i]) / (vs[i + 1] - vs[i])
        assert abs(Fraction(phi.inverse(y)) - root) <= Fraction(1e-14) * root, y


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_monotone_on_pairs(a, b):
    lo, hi = sorted((a, b))
    for phi in (Power(1.0), Power(2.7), ExpSquare(), ExpLinear(), ExpCompose(Power(2.0))):
        assert phi(lo) <= phi(hi)


def test_validate_passes_builtin_families():
    for phi in FAMILIES:
        report = validate_orlicz(phi)
        assert report.all_pass, (phi.descriptor(), report.violations)


def test_validate_flags_concave_table():
    bent = TabulatedConvex([(0.0, 0.0), (1.0, 2.0), (2.0, 3.0)])
    report = validate_orlicz(bent)
    assert not report.midpoint_convex
    assert not report.all_pass
    assert any(v[0] == "midpoint_convex" for v in report.violations)


def test_validate_flags_plateau_table():
    flat = TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    report = validate_orlicz(flat)
    assert not report.strictly_increasing
    assert not report.divergent
    # the doublings stop at the first that overflows, or after 1100 of them
    assert report.violations[-1] == ("divergent", math.inf, 1e9)
    assert validate_orlicz(flat, [5e-324]).violations[-1] == ("divergent", 2.0 ** 26, 1e9)


def test_validate_rejects_bad_grids():
    with pytest.raises(DomainError):
        validate_orlicz(Power(2.0), grid=[])
    with pytest.raises(DomainError):
        validate_orlicz(Power(2.0), grid=[1.0, 0.5])
    with pytest.raises(DomainError):
        validate_orlicz(Power(2.0), grid=[-1.0, 1.0])
    with pytest.raises(DomainError):
        default_probe_grid(n=1)


def test_tabulated_constructor_contract():
    with pytest.raises(DomainError):
        TabulatedConvex([(0.0, 0.0)])
    with pytest.raises(DomainError):
        TabulatedConvex([(0.5, 0.0), (1.0, 1.0)])
    with pytest.raises(DomainError):
        TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(DomainError):
        TabulatedConvex([(0.0, 0.0), (1.0, -1.0)])


def test_delta2_power_is_two_to_s():
    for s in (1.0, 1.5, 2.0, 3.0, 4.5):
        rep = delta2_at_zero(Power(s))
        assert rep.holds
        assert rep.limsup_estimate == pytest.approx(2.0 ** s, rel=1e-12)


def test_delta2_exponential_families_tend_to_four():
    probe = GeometricProbe(1.0, 40)
    for phi in (ExpSquare(), ExpLinear()):
        rep = delta2_at_zero(phi, probe)
        assert rep.holds
        assert abs(rep.limsup_estimate - 4.0) <= 1e-3


def test_delta2_flags_blowup():
    class Collapsing(OrliczFunction):
        """phi(t) = exp(-1/t) for t > 0: the doubling ratio explodes at 0."""

        def _raw_eval(self, t):
            return np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)

        def descriptor(self):
            return "collapsing"

    rep = delta2_at_zero(Collapsing(), GeometricProbe(1.0, 25))
    assert not rep.holds


@pytest.mark.parametrize("phi", FAMILIES + [ScalarOnly(), NON_MONOTONE_TABLE],
                         ids=lambda f: f.descriptor()[:24])
def test_delta2_equals_the_probe_loop(phi):
    # t_start = 0.7 reaches subnormal t, where 2*t_j and t_(j-1) can differ
    for probe in (GeometricProbe(1.0, 60), GeometricProbe(0.7, 1100)):
        ts, ratios, truncated = [], [], False
        for j in range(probe.depth + 1):
            t = probe.t_start * 2.0 ** (-j)
            ft = scalar_phi_oracle(phi, t)
            if ft == 0.0 or math.isinf(ft):
                truncated = True
                break
            ts.append(t)
            ratios.append(scalar_phi_oracle(phi, 2.0 * t) / ft)
        rep = delta2_at_zero(phi, probe)
        assert (list(rep.probes), list(rep.ratios), rep.truncated) == (ts, ratios, truncated)


def test_delta2_depth_beyond_underflow_stops_at_zero():
    # t_start * 2**-j underflows to 0 at j = 1075, where the probe ends
    deep = delta2_at_zero(Power(1.0), GeometricProbe(1.0, 10 ** 9))
    assert deep == delta2_at_zero(Power(1.0), GeometricProbe(1.0, 1100))
    assert deep.truncated and deep.probes_used == 1075


def test_delta2_probe_validation():
    with pytest.raises(DomainError):
        GeometricProbe(2.0, 60)
    with pytest.raises(DomainError):
        GeometricProbe(1.0, 10)


def test_theta_bound_power_closed_form():
    tb = theta_bound(Power(3.0), 2.0, 1.0)
    assert tb.c_theta == SAFETY * 8.0
    assert tb.t_theta == 1.0


def test_theta_bound_identity_scaling():
    tb = theta_bound(ExpSquare(), 1.0, 3.0)
    assert tb.c_theta <= SAFETY


def test_theta_bound_grid_sup_frozen():
    tb = theta_bound(ExpSquare(), 2.0, 0.5)
    assert tb.c_theta == pytest.approx(SAFETY * EXPSQ_RATIO_AT_HALF, rel=1e-9)


def test_theta_bound_underflowing_grid_is_domain_error():
    # t_theta * 1e-18 underflows to 0: no geometric probe grid exists
    with pytest.raises(DomainError, match="t_theta=1e-310"):
        theta_bound(ExpSquare(), 2.0, 1e-310)
    # a power needs no grid, so the same t_theta still certifies
    assert theta_bound(Power(2.0), 2.0, 1e-310).t_theta == 1e-310


def test_theta_bound_overflow_is_certificate_error():
    with pytest.raises(CertificateError):
        theta_bound(ExpSquare(), 100.0, 10.0)
    # finite over tiny overflows in the division: still no numpy warning
    with pytest.raises(CertificateError, match="scaling ratio overflows"):
        theta_bound(ExpSquare(), 800.0, 1.0)


@pytest.mark.parametrize("phi,theta,tt", [
    (ExpSquare(), 2.0, 0.5),
    (ExpLinear(), 20.0, 1.0),
    (ExpCompose(Power(2.0)), 3.0, 0.25),
    (Power(2.5), 7.0, 4.0),
])
def test_theta_bound_revalidates_off_grid(phi, theta, tt):
    tb = theta_bound(phi, theta, tt)
    rng = np.random.default_rng(20260814)
    ts = tt * np.exp(rng.uniform(math.log(1e-15), 0.0, size=10_000))
    lhs = phi(theta * ts)
    rhs = tb.c_theta * phi(ts)
    assert np.all(lhs <= rhs), float(np.max(lhs - rhs))


def test_parse_descriptors(tmp_path):
    assert isinstance(parse_orlicz("expsq"), ExpSquare)
    assert isinstance(parse_orlicz("explin"), ExpLinear)
    assert parse_orlicz("power:2.5").s == 2.5
    nested = parse_orlicz("expof:power:2")
    assert isinstance(nested, ExpCompose) and nested.inner.s == 2.0
    knots = tmp_path / "knots.csv"
    knots.write_text("0,0\n1,1.5\n2,4\n")
    tab = parse_orlicz(f"tab:{knots}")
    assert tab(1.0) == 1.5
    for bad in ("power:zero", "gauss", "tab:/nonexistent/file.csv", "power:0.5"):
        with pytest.raises(DomainError):
            parse_orlicz(bad)


def test_descriptor_round_trip():
    for phi in (Power(2.0), ExpSquare(), ExpLinear(), ExpCompose(Power(3.0))):
        assert parse_orlicz(phi.descriptor()).descriptor() == phi.descriptor()


def test_convexity_of_slope_ratio():
    # phi(x)/x is nondecreasing for convex phi with phi(0)=0; the tail bound
    # linearization leans on it
    for phi in FAMILIES:
        ts = np.geomspace(1e-8, 10.0, 300)
        slopes = phi(ts) / ts
        assert np.all(np.diff(slopes) >= -1e-12 * slopes[:-1])


@pytest.mark.parametrize("text, line, row", [
    ("0,0\n1\n", 2, ['1']),
    ("0,0\n\n1,1,1\n", 3, ['1', '1', '1']),
    ("0,0\n1,x\n", 2, ['1', 'x']),
    ("0,0\n,1\n", 2, ['', '1']),
])
def test_knot_table_errors_name_file_line_and_shape(capsys, tmp_path, text, line, row):
    from orliczseq.cli import run
    f = tmp_path / "knots.csv"
    f.write_text(text)
    f = str(f)
    want = f"bad row at line {line} of knot table {f!r}: expected 't,value', got {row!r}"
    for read in (lambda: TabulatedConvex.from_csv(f), lambda: parse_orlicz(f"tab:{f}")):
        with pytest.raises(DomainError) as exc:
            read()
        assert str(exc.value) == want
    assert run(["delta2", "--phi", f"tab:{f}"]) == 2
    assert capsys.readouterr() == ("", f"error: {want}\n")


def test_unreadable_knot_table_is_a_domain_error(tmp_path):
    missing = str(tmp_path / "missing.csv")
    for read in (lambda: TabulatedConvex.from_csv(missing),
                 lambda: parse_orlicz(f"tab:{missing}")):
        with pytest.raises(DomainError) as exc:
            read()
        assert str(exc.value).startswith(f"cannot read knot table {missing!r}: [Errno 2]")
