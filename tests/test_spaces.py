"""Weights, sequence vectors, measures, modulars and envelope certificates."""

import dataclasses
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczseq import (CertificateError, ComputationOverflowError,
                       DomainError, ExpCompose, ExpLinear, ExpSquare,
                       GeometricEnvelope, GeometricProbe, NormResult, Power,
                       SeqVector, SpaceParams,
                       TabulatedConvex, WeightSequence, check_domination,
                       classify, default_probe_grid,
                       luxemburg_norm, measures, modular, modular_tail_bound,
                       mu, parse_weights, sample_ball, schauder_truncate,
                       theta_bound, weight_poly_bound)
from orliczseq import spaces
from orliczseq.cli import run
from orliczseq.functions import MAX_GRID_POINTS
from orliczseq.luxemburg import _solve
from orliczseq.spaces import DYADIC_PROBE_DEPTH
from helpers import Cube, StatedCube, classify_upper_oracle, pow_or_inf, scalar_mu_oracle

HALF_E_SQUARED = 3.69452804946532511362  # 0.5 * e**2

W1 = WeightSequence.constant(1.0)


def test_weight_sequence_basics():
    w = WeightSequence(1.3, {0: 0.1, 5: 4.0})
    assert w.weight(0) == 0.1
    assert w.weight(5) == 4.0
    assert w.weight(-7) == 1.3
    assert w.inf_w == 0.1
    assert w.sup_w == 4.0
    assert WeightSequence.constant(2.0).inf_w == 2.0


def test_weight_sequence_validation():
    with pytest.raises(DomainError):
        WeightSequence(0.0)
    with pytest.raises(DomainError):
        WeightSequence(1.0, {3: -2.0})
    with pytest.raises(DomainError):
        WeightSequence(1.0, [(3, 1.0), (3, 2.0)])
    with pytest.raises(DomainError):
        WeightSequence(1.0, {0: 0.5}, inf_override=0.7)  # above the listed min
    w = WeightSequence(1.0, {0: 0.5}, inf_override=0.01)
    assert w.inf_w == 0.01


@pytest.mark.parametrize("index", [1.5, "3", math.inf, math.nan, None, np.float64(2.5)],
                         ids=repr)
def test_weight_rejects_an_index_that_is_not_whole(index):
    w = WeightSequence(1.0, {1: 2.0, 3: 4.0})
    assert w.weight(3) == w.weight(3.0) == w.weight(np.int64(3)) == 4.0
    assert w.weight(True) == 2.0 and w.weight(10 ** 30) == 1.0
    with pytest.raises(DomainError, match=f"^weight index {re.escape(repr(index))} is not an integer$"):
        w.weight(index)


def test_parse_weights(tmp_path):
    assert parse_weights("const:0.25").weight(9) == 0.25
    table = tmp_path / "w.csv"
    table.write_text("0,0.5\n-3,2.0\n")
    w = parse_weights(f"table:{table}:1.5")
    assert w.weight(0) == 0.5 and w.weight(-3) == 2.0 and w.weight(8) == 1.5
    w2 = parse_weights(f"table:{table}")
    assert w2.weight(8) == 1.0
    with pytest.raises(DomainError):
        parse_weights("linear:1")
    with pytest.raises(DomainError):
        parse_weights("table:/nonexistent.csv")


INF_OVERRIDE_ERROR = "inf override must be positive and no larger than every listed weight"


def test_bad_inf_override_reports_itself():
    for bad in (0.0, math.nan, 2.0):
        with pytest.raises(DomainError, match=INF_OVERRIDE_ERROR):
            parse_weights("const:1", inf_override=bad)
    with pytest.raises(DomainError, match="bad constant weight descriptor 'const:0'"):
        parse_weights("const:0", inf_override=0.5)
    assert parse_weights("const:2", inf_override=0.5) == WeightSequence(2.0, inf_override=0.5)


@pytest.mark.parametrize("argv", [
    "embed --mode a --phi power:2 --psi expsq --gamma 1 --inf-w 0",
    "tail-index --phi expsq --kprime 1 --k 0 --kappa 1 --epsilon 0.1 --inf-w nan",
])
def test_bad_inf_w_cli_names_the_override(capsys, argv):
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {INF_OVERRIDE_ERROR}\n"


def test_seqvector_canonical_order():
    p = SeqVector([(2, 1.0), (-1, 2.0), (0, 3.0), (1, 4.0), (-2, 5.0)])
    assert p.support == (0, -1, 1, -2, 2)
    # order independent of construction order
    q = SeqVector([(-2, 5.0), (0, 3.0), (1, 4.0), (2, 1.0), (-1, 2.0)])
    assert p == q


def test_seqvector_contract():
    with pytest.raises(DomainError):
        SeqVector([(0, 1.0), (0, 2.0)])
    with pytest.raises(DomainError):
        SeqVector([(0.5, 1.0)])
    with pytest.raises(DomainError):
        SeqVector([(0, complex(math.inf, 0.0))])
    with pytest.raises(DomainError, match="^value at index 3 must be finite$"):
        SeqVector([(3, 10 ** 400)])
    assert len(SeqVector([(0, 0.0), (1, 1.0)])) == 1  # exact zeros dropped
    assert not SeqVector()



@pytest.mark.parametrize("m", [1.5, -0.5, math.inf, -math.inf, math.nan])
def test_an_index_that_is_not_whole_is_a_domain_error(m):
    with pytest.raises(DomainError, match=f"index {m!r} is not an integer"):
        WeightSequence(1.0, {m: 2.0})
    with pytest.raises(DomainError, match=f"index {m!r} is not an integer"):
        SeqVector({0: 1.0, m: 2.0})
    assert WeightSequence(1.0, {2.0: 3.0}).entries == {2: 3.0}
    assert SeqVector({2.0: 3.0}).support == (2,)


@pytest.mark.parametrize("v", [None, "x", "1+", b"1", [1.0]], ids=repr)
def test_a_value_that_is_not_a_number_is_a_domain_error(v):
    with pytest.raises(DomainError, match="^value at index -2 is not a number$"):
        SeqVector([(0, 1.0), (-2, v), (0, 2.0)])
    with pytest.raises(DomainError, match="^index 0.5 is not an integer$"):
        SeqVector([(0.5, v)])  # checked in input order: the index first
    assert SeqVector({0: "1+2j", 1: np.float64(0.5), 2: True, 3: 2}).values == (
        1 + 2j, 0.5 + 0j, 1 + 0j, 2 + 0j)


def test_seqvector_arithmetic():
    p = SeqVector({0: 1.0, 2: 2.0})
    q = SeqVector({0: -1.0, 3: 1j})
    assert (p + q).support == (2, 3)  # cancellation at 0 drops the index
    assert (p - p).support == ()
    assert p.scaled(2j).values == (2j, 4j)
    assert p.restrict(0).support == (0,)
    assert p.tail(1).support == (2,)


def test_seqvector_keeps_support_and_read_only_abs_values():
    p = SeqVector({3: 3 + 4j, -1: -2.0, 0: 0.5, 1: 1j, -3: 0.25})
    a = p.abs_values()
    assert a.tolist() == [0.5, 2.0, 1.0, 0.25, 5.0]
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1.0
    assert p.abs_values() is a
    assert p.support is p.support
    # tails and truncations slice the items and arrays of the vector
    for cut in range(-1, 5):
        for part, keep in ((p.tail(cut), lambda m: abs(m) >= cut),
                           (p.restrict(cut), lambda m: abs(m) <= cut)):
            fresh = SeqVector([(m, v) for m, v in p.items if keep(m)])
            assert part == fresh
            assert part.support == fresh.support
            assert part.abs_values().tolist() == fresh.abs_values().tolist()
            assert not part.abs_values().flags.writeable
    # |p_m| is CPython's abs; numpy's vectorised complex abs (AVX-512) rounds these differently
    q = SeqVector({0: 0.8484211680474587-0.06869985980045334j,
                   1: 0.01568254612454223+0.1747696576997939j,
                   -2: -0.8117530875415631-0.393197474750949j})
    assert [x.hex() for x in q.abs_values().tolist()] == [abs(v).hex() for v in q.values]


def test_seqvector_keeps_two_arrays_not_an_object_per_entry(tmp_path):
    # int64 indices, complex128 values and, once its row is built, float |p_m|:
    # 32 B an entry; a Python (int, complex) pair an entry would keep over 120 B
    rng = random.Random(3)
    f = tmp_path / "p.csv"
    f.write_text("".join(f"{(-1) ** m * m},{rng.uniform(-1, 1)!r},{rng.uniform(-1, 1)!r}\n"
                         for m in range(10_000)))
    tracemalloc.start()
    try:
        p = SeqVector.from_csv(f)
        p._row()
        kept = tracemalloc.get_traced_memory()[0]
        del p
        kept -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / 10_000 <= 48


def test_scaled_equals_a_fresh_vector():
    rng = random.Random(11)
    dropped = overflowed = 0
    for _ in range(300):
        p = SeqVector({rng.randint(-30, 30): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(rng.randint(0, 10))})
        for lam in (1.0, -2.5, 3 - 4j, 1e-300, 1e-200j, 1e300, 0.0):
            try:
                want = SeqVector([(m, complex(lam) * v) for m, v in p.items])
            except DomainError as exc:
                overflowed += 1
                with pytest.raises(DomainError, match=f"^{exc}$"):
                    p.scaled(lam)
                continue
            got = p.scaled(lam)
            dropped += len(got) < len(p)
            assert got == want
            assert got.support == want.support
            assert got.abs_values().tolist() == want.abs_values().tolist()
    assert dropped and overflowed  # products that underflow to 0, products that overflow
    with pytest.raises(DomainError, match="scale factor must be finite"):
        SeqVector({0: 1.0}).scaled(math.inf)


def test_seqvector_csv_round_trip(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("2,1.5,0\n-1,0,2\n0,3,0\n")
    p = SeqVector.from_csv(f)
    assert p.support == (0, -1, 2)
    assert p.values == (3.0, 2j, 1.5)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n")
    with pytest.raises(DomainError):
        SeqVector.from_csv(bad)


def test_mu_worked_values():
    assert mu(SpaceParams(0.0, Power(2.0), W1), 17) == 1.0
    assert mu(SpaceParams(1.0, Power(2.0), W1), 3) == 10.0
    half = WeightSequence.constant(0.5)
    got = mu(SpaceParams(2.0, ExpSquare(), half), 1)
    assert got == pytest.approx(HALF_E_SQUARED, rel=1e-14)
    assert mu(SpaceParams(1.0, Power(2.0), W1), -3) == 10.0  # symmetric in m


def test_mu_overflow_names_index():
    params = SpaceParams(1.0, ExpSquare(), W1)
    with pytest.raises(ComputationOverflowError) as exc:
        mu(params, 1000)
    assert exc.value.index == 1000
    # negative order: the factor underflows to zero instead of overflowing
    assert mu(SpaceParams(-1.0, ExpSquare(), W1), 1000) == 0.0


MEASURE_FAMILIES = [Power(2.0), Power(1.5), ExpSquare(), ExpLinear(),
                    ExpCompose(Power(1.0)),
                    TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0),
                                     (4.0, 16.0)])]
# weights that differ between m and -m unless 5 divides m
SIGNED_WEIGHTS = WeightSequence(0.75, {m: 1.0 + (m % 5) / 4.0 for m in range(-900, 901, 3)})


def _measure_support():
    rng = random.Random(77)
    # duplicates, both signs, indices past int64 that fit a float, and some past it
    return [3, -3, 0, 3, *rng.sample(range(-900, 901), 300), 2 ** 70, -(2 ** 70),
            10 ** 400, 7, -(10 ** 400)]


@pytest.mark.parametrize("phi", MEASURE_FAMILIES, ids=lambda f: f.descriptor()[:12])
@pytest.mark.parametrize("k", [-1.5, 0.0, 0.5, 1.0, 3.0])
def test_measures_equal_the_scalar_formula(phi, k):
    params = SpaceParams(k, phi, SIGNED_WEIGHTS)
    support = _measure_support()
    want = [scalar_mu_oracle(params, m) for m in support]
    mus, errors = measures(params, support)
    # one error per overflowing position, in support order, naming its index
    assert list(errors) == [i for i, w in enumerate(want) if w is None]
    assert all(errors[i].index == support[i] for i in errors)
    assert ([mus[i] for i in range(len(support)) if i not in errors]
            == [w for w in want if w is not None])
    if k < 0 and isinstance(phi, (ExpSquare, ExpLinear, ExpCompose)):
        assert 0.0 in mus.tolist()  # factors that underflow to 0
    if errors:
        first = next(iter(errors))
        with pytest.raises(ComputationOverflowError) as exc:
            mu(params, support[first])
        assert str(exc.value) == str(errors[first])
    else:
        assert [mu(params, m) for m in support] == mus.tolist()


def test_huge_index_has_a_typed_overflow_unless_k_is_zero():
    huge = 10 ** 400
    square = SpaceParams(1.0, Power(2.0), W1)
    assert mu(square, 2 ** 70) == 1.393796574908164e+42
    for params in (square, SpaceParams(-1.0, Power(2.0), W1)):
        with pytest.raises(ComputationOverflowError, match="exceeds double range") as exc:
            mu(params, -huge)
        assert exc.value.index == -huge
    p = SeqVector({0: 1.0, huge: 0.5})
    for solve in (lambda: luxemburg_norm(square, p), lambda: modular(square, p, 1.0)):
        with pytest.raises(ComputationOverflowError) as exc:
            solve()
        assert exc.value.index == huge
    flat = SpaceParams(0.0, Power(2.0), W1)
    assert mu(flat, huge) == 1.0
    assert modular(flat, p, 1.0) == 1.25
    assert luxemburg_norm(flat, p).value == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_envelopes_at_indices_beyond_double_range():
    params = SpaceParams(0.0, Power(2.0), W1)
    env = GeometricEnvelope(1.0, 0.5)
    assert env.bound_at(10 ** 400) == 0.0 and env.bound_at(-(10 ** 400)) == 0.0
    assert env.bound_at(2 ** 70) == 0.0 and env.bound_at(-7) == 0.5 ** 7
    assert modular_tail_bound(params, env, 1.0, 10 ** 400) == 0.0
    for m in (10 ** 400, 2 ** 70):
        with pytest.raises(DomainError,
                           match=f"envelope does not dominate the sequence at index {m}$"):
            classify(params, SeqVector({m: 1e-300}), env)
    far = classify(params, None, GeometricEnvelope(1.0, 0.5, valid_from=10 ** 400), 2)
    assert far.in_class and far.in_small
    assert [(c.trunc, c.tail_bound, c.modular_upper) for c in far.certificates] == [
        (10 ** 400, 0.0, None)] * 3


@pytest.mark.parametrize("m", [10 ** 400, 2 ** 70], ids=["past-double", "past-int64"])
def test_huge_index_outside_the_envelope_cli_exits_two(capsys, tmp_path, m):
    f = tmp_path / "huge.csv"
    f.write_text(f"{m},1e-300,0\n")
    assert run(["classify", "--phi", "power:2", "--in", str(f),
                "--env-c", "1", "--env-r", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: envelope does not dominate the sequence at index {m}\n"


def test_huge_index_cli_exits_three(capsys, tmp_path):
    f = tmp_path / "huge.csv"
    f.write_text(f"{10 ** 400},1.0,0\n")
    assert run(["norm", "--phi", "power:2", "--k", "1", "--in", str(f)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: measure overflow at index 1000")
    assert err.count("\n") == 1


# the remembered factors (1 + phi(|m|))**k of a space

CAP = spaces._FACTOR_CAP
TABLE_FAMILIES = [Power(2.0), ExpSquare(), ExpLinear(), ExpCompose(Power(1.0)),
                  TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (3.0, 4.0)])]
# both block edges of the table, its cap, and indices beyond it
TABLE_SUPPORT = [0, 1, -1, 2, 3, -3, 17, 4095, 4096, -4097, 8191, CAP - 2, CAP - 1,
                 -(CAP - 1), CAP, -CAP, CAP + 1, 3 * CAP + 5, 1, 4096, -CAP,
                 123_456_789, -(2 ** 53 + 2)]
NEGATIVE_TAIL = TabulatedConvex([(0, 0), (1, 1), (2, 0.5)])  # phi(t) < 0 from t = 3


def _factor_oracle(params, m):
    """w_m * np.power(1 + phi.eval(float(|m|)), k), or None where it leaves
    double range."""
    w = params.weights.weight(m)
    if params.k == 0:
        return w
    try:
        value = w * pow_or_inf(1.0 + params.phi.eval(float(abs(m))), params.k)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _measured(params, support):
    """measures as plain values: the finite list, and each error's position,
    index and message."""
    mus, errors = measures(params, support)
    return ([v for i, v in enumerate(mus.tolist()) if i not in errors],
            [(i, e.index, str(e)) for i, e in errors.items()])


@pytest.mark.parametrize("phi", TABLE_FAMILIES, ids=lambda f: f.descriptor()[:12])
@pytest.mark.parametrize("k", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_remembered_measures_equal_cold_ones_and_the_oracle(phi, k):
    support = TABLE_SUPPORT + random.Random(5).sample(range(-CAP - 40, CAP + 40), 200)
    cold = SpaceParams(k, phi, SIGNED_WEIGHTS)
    want = [_factor_oracle(cold, m) for m in support]  # reads no table
    got = _measured(cold, support)
    assert got[0] == [v for v in want if v is not None]
    assert [i for i, _, _ in got[1]] == [i for i, v in enumerate(want) if v is None]
    assert all(m == support[i] for i, m, _ in got[1])
    assert _measured(cold, support) == got  # every finite factor now remembered
    # a space warmed on part of the support mixes remembered and fresh factors
    half = SpaceParams(k, phi, SIGNED_WEIGHTS)
    measures(half, support[::2])
    assert _measured(half, support) == got
    # in any order, each index keeps its own measure
    order = random.Random(6).sample(range(len(support)), len(support))
    mus, errors = measures(half, [support[i] for i in order])
    assert list(errors) == [j for j, i in enumerate(order) if want[i] is None]
    assert ([v for j, v in enumerate(mus.tolist()) if j not in errors]
            == [want[i] for i in order if want[i] is not None])


def test_measures_at_the_edges_keep_their_values_and_messages():
    square = SpaceParams(1.0, Power(2.0), SIGNED_WEIGHTS)
    support = [-3, 3, -9, 9, -(2 ** 63), 2 ** 63 - 1, -70000, 10 ** 400, -(10 ** 400)]
    for _ in range(2):  # cold, then remembered
        mus, errors = measures(square, support)
        assert mus[:7].tolist() == [_factor_oracle(square, m) for m in support[:7]]
        assert mus[:4].tolist() == [15.0, 17.5, 102.5, 164.0]  # table weights
        assert [(i, e.index, str(e)) for i, e in errors.items()] == [
            (7, 10 ** 400, f"measure overflow at index {10 ** 400}: |m| exceeds double range"),
            (8, -(10 ** 400), f"measure overflow at index {-(10 ** 400)}: "
                              "|m| exceeds double range")]
    steep = SpaceParams(1.0, ExpSquare(), W1)
    for _ in range(2):
        _, errors = measures(steep, [3, -1000, 26, -70000, 27])
        assert [(i, e.index, str(e)) for i, e in errors.items()] == [
            (1, -1000, "measure overflow at index -1000: (1 + phi(1000))**1 exceeds double range"),
            (3, -70000, "measure overflow at index -70000: "
                        "(1 + phi(70000))**1 exceeds double range"),
            (4, 27, "measure overflow at index 27: (1 + phi(27))**1 exceeds double range")]
        with pytest.raises(ComputationOverflowError) as exc:
            mu(steep, -70000)
        assert exc.value.index == -70000


# a vector's indices as one int64 array, taken by measures as it is

TAB_KNOTS = TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
INDEX_ARRAY_SPACES = [(1.0, Power(2.0), W1), (2.0, ExpLinear(), W1),  # explin overflows
                      (1.0, TAB_KNOTS, SIGNED_WEIGHTS), (0.0, Power(2.0), SIGNED_WEIGHTS)]


def _bits(mus, errors):
    """measures' result as exact values: the bytes of the array, and each
    error's position, type, message, index and index type."""
    return mus.tobytes(), [(i, type(e), str(e), e.index, type(e.index))
                           for i, e in errors.items()]


@pytest.mark.parametrize("k, phi, weights", INDEX_ARRAY_SPACES,
                         ids=["power2-k1", "explin-k2", "tab-weighted-k1", "power2-k0"])
def test_index_arrays_measure_as_their_lists(k, phi, weights):
    rng = random.Random(15)
    # both sides of the table cap, the explin overflow past |m| = 354, int64's ends
    support = {*rng.sample(range(-CAP - 500, CAP + 500), 600), *range(-360, -340),
               *range(350, 370), CAP - 1, -CAP, CAP, 2 ** 63 - 1, -(2 ** 63 - 1)}
    p = SeqVector({m: 1.0 for m in support})
    ms = p._indices()
    assert ms.dtype == np.int64 and ms.tolist() == list(p.support)
    assert p._indices() is ms and not ms.flags.writeable
    cold_list, cold_array = (SpaceParams(k, phi, weights) for _ in range(2))
    want = _bits(*measures(cold_list, list(p.support)))
    assert _bits(*measures(cold_array, ms)) == want
    assert _bits(*measures(cold_list, ms)) == want  # warm, from the table
    assert _bits(*measures(cold_array, list(p.support))) == want
    for cut in (0, 354, CAP):
        part = p.tail(cut)._indices()
        assert (_bits(*measures(cold_array, part))
                == _bits(*measures(SpaceParams(k, phi, weights), list(p.tail(cut).support))))
    if k == 2.0:
        assert want[1] and all(abs(m) > 354 for _, _, _, m, _ in want[1])


def test_tails_restricts_and_scales_share_the_index_array():
    p = SeqVector({m: 1.0 if m % 3 else 1e-10 for m in range(-40, 41)})
    ms = p._indices()
    for part in (p.tail(7), p.restrict(12), p.tail(41), p.restrict(0)):
        assert np.shares_memory(part._indices(), ms) or not len(part)
        assert part._indices().tolist() == list(part.support)
        assert not part._indices().flags.writeable
        with pytest.raises(ValueError):
            part._indices()[:1] = 5
    same = p.scaled(-2.5j)
    assert same.support is p.support and same._indices() is ms
    # 1e-10 * 1e-320 underflows to 0, so those entries leave the support
    lost = p.scaled(1e-320)
    assert len(lost) < len(p)
    assert lost._indices().tolist() == list(lost.support)
    assert not np.shares_memory(lost._indices(), ms)
    assert not lost._indices().flags.writeable
    # an array not built yet is not shared: the scaled vector builds its own
    fresh = SeqVector({3: 1.0, -8: 2.0})
    assert fresh.scaled(2.0)._indices().tolist() == [3, -8]


def test_a_vector_past_int64_has_an_int_index_array_and_batches_keep_their_results():
    huge = SeqVector({0: 0.5, 2 ** 70: 0.25, -3: 1.0})
    ms = huge._indices()
    assert huge._indices() is ms and ms.dtype == object and not ms.flags.writeable
    assert ms.tolist() == [0, -3, 2 ** 70] and all(type(m) is int for m in ms)
    assert huge.restrict(5)._indices().tolist() == [0, -3]
    assert np.shares_memory(huge.tail(5)._indices(), ms)
    rng = random.Random(70)
    vecs = [SeqVector({rng.randint(-400, 400): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(rng.randint(1, 30))}) for _ in range(6)]
    mixed = vecs[:3] + [huge] + vecs[3:]
    for k, phi in ((0.0, ExpSquare()), (1.0, Power(2.0)), (1.0, ExpSquare()),
                   (1.0, TAB_KNOTS)):
        params = SpaceParams(k, phi, SIGNED_WEIGHTS)
        lone = []
        for p in mixed:
            try:
                lone.append(luxemburg_norm(params, p))
            except ComputationOverflowError as exc:
                lone.append(exc)
        rows = [p._row() for p in mixed]
        batch = _solve(spaces.TermBatch(params, rows), 1e-12)
        assert [(type(r), str(r)) for r in batch] == [(type(r), str(r)) for r in lone]
        assert [r for r in batch if isinstance(r, NormResult)] == [
            r for r in lone if isinstance(r, NormResult)]
        values, errors = spaces.TermBatch(params, rows).modulars(1.0, "for rho=1")
        for i, p in enumerate(mixed):
            try:
                want = modular(params, p, 1.0)
            except ComputationOverflowError as exc:
                assert (str(errors[i]), errors[i].index) == (str(exc), exc.index)
                assert type(errors[i].index) is int
            else:
                assert i not in errors and values[i] == want
        if phi.descriptor() == "expsq" and k == 1.0:
            assert errors[3].index == 2 ** 70


@pytest.mark.parametrize("m", [1.5, 2.7, -0.5, "3", math.nan, math.inf, -math.inf, None,
                               np.float64(4.25)], ids=repr)
def test_measures_and_mu_reject_an_index_that_is_not_whole(m):
    params = SpaceParams(1.0, Power(2.0), W1)
    with pytest.raises(DomainError, match=f"^index {re.escape(repr(m))} is not an integer$"):
        mu(params, m)
    with pytest.raises(DomainError, match=f"^index {re.escape(repr(m))} is not an integer$"):
        measures(params, [0, 3, m, 5])
    # integral floats, bools and numpy integers keep their values
    assert mu(params, 2.0) == mu(params, 2) == 5.0
    assert mu(params, np.int64(-3)) == 10.0
    assert measures(params, [True, False, -1.0])[0].tolist() == [2.0, 1.0, 2.0]
    assert measures(SpaceParams(0.0, Power(2.0), W1), [True])[0].tolist() == [1.0]
    # an array that is not int64 is checked as a list is
    assert measures(params, np.array([2.0, -3.0]))[0].tolist() == [5.0, 10.0]
    with pytest.raises(DomainError, match=r"^index np.float64\(1.5\) is not an integer$"):
        measures(params, np.array([0.0, 1.5]))


def test_factor_table_remembers_overflows_and_stays_capped():
    steep = SpaceParams(1.0, ExpSquare(), W1)
    measures(steep, [1, 30, 1000])
    table = steep.__dict__["_mu_factors"]
    assert table.size == spaces._FACTOR_BLOCK
    assert table[1] == 1.0 + np.expm1(1.0) and np.isnan(table[[0, 2]]).all()
    assert table[[30, 1000]].tolist() == [math.inf, math.inf]  # overflows, remembered
    measures(steep, [CAP - 1, CAP + 100, -(2 ** 63)])
    # an index beyond int64 in the call does not keep 5 from the table
    assert measures(steep, [10 ** 400, 5])[0][1] == 1.0 + np.expm1(25.0)
    table = steep.__dict__["_mu_factors"]
    assert table.size == CAP and table.nbytes == 512 * 1024
    assert np.flatnonzero(~np.isnan(table)).tolist() == [1, 5, 30, 1000, CAP - 1]
    assert table[5] == 1.0 + np.expm1(25.0)

    square = SpaceParams(1.0, Power(2.0), W1)
    measures(square, [4096])  # grown to the block holding 4096
    assert square.__dict__["_mu_factors"].size == 2 * spaces._FACTOR_BLOCK
    measures(square, [5, CAP, 2 ** 62])  # indices beyond the cap are not stored
    table = square.__dict__["_mu_factors"]
    assert table.size == 2 * spaces._FACTOR_BLOCK
    assert np.flatnonzero(~np.isnan(table)).tolist() == [5, 4096]
    # a replaced space is a new value with its own table
    assert "_mu_factors" not in dataclasses.replace(square, k=2.0).__dict__
    assert mu(dataclasses.replace(square, k=2.0), 5) == 26.0 ** 2


class _CountedExpLinear(ExpLinear):
    """explin counting its evaluations."""

    def _raw_eval(self, t):
        self.__dict__["calls"] = self.__dict__.get("calls", 0) + 1
        return super()._raw_eval(t)


def test_overflowing_factors_are_not_recomputed():
    # explin at k = 1 overflows from |m| = 710 on: most of this support
    support = random.Random(8).sample(range(-20000, 20000), 3000)
    phi = _CountedExpLinear()
    params = SpaceParams(1.0, phi, SIGNED_WEIGHTS)
    cold = _measured(params, support)
    assert len(cold[1]) > 2500 and phi.calls == 1
    assert _measured(params, support) == cold
    assert phi.calls == 1  # the warm call reads every factor from the table
    assert cold == _measured(SpaceParams(1.0, ExpLinear(), SIGNED_WEIGHTS), support)


@pytest.mark.parametrize("k", [-1.0, 0.5, 1.0])
def test_negative_generator_makes_measures_a_domain_error(k):
    params = SpaceParams(k, NEGATIVE_TAIL, W1)
    for support, m, value in (([10], 10, "-3.5"), ([1, 3, -10, 10], -10, "-3.5"),
                              ([2, 70000], 70000, "-34998.5"),
                              ([10 ** 20], 10 ** 20, "-5e+19"),
                              ([-(2 ** 63)], -(2 ** 63), "-4.61169e+18")):
        with pytest.raises(DomainError) as exc:
            measures(params, support)
        assert str(exc.value) == (f"measure undefined at index {m}: "
                                  f"phi({abs(m)}) = {value} is negative")
    table = params.__dict__["_mu_factors"]
    assert np.isnan(table[3:]).all()  # no factor of a failed call is stored
    assert measures(params, [1, 2, 3])[0].tolist() == [2.0 ** k, 1.5 ** k, 1.0]
    assert np.isnan(table[4:]).all()
    for call in (lambda: mu(params, 4), lambda: modular(params, SeqVector({10: 1.0}), 1.0),
                 lambda: luxemburg_norm(params, SeqVector({4: 1.0}))):
        with pytest.raises(DomainError, match="is negative"):
            call()
    # k = 0 never evaluates phi at an index
    assert mu(SpaceParams(0.0, NEGATIVE_TAIL, W1), 10) == 1.0


def test_negative_generator_cli_exits_two(capsys, tmp_path):
    knots, seq = tmp_path / "knots.csv", tmp_path / "p.csv"
    knots.write_text("0,0\n1,1\n2,0.5\n")
    seq.write_text("10,1.0,0\n")
    assert run(["modular", "--phi", f"tab:{knots}", "--k", "1", "--in", str(seq),
                "--rho", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: measure undefined at index 10: phi(10) = -3.5 is negative\n"


def test_modular_worked_values():
    params = SpaceParams(0.0, Power(2.0), W1)
    assert modular(params, SeqVector(), 1.0) == 0.0
    assert modular(params, SeqVector({0: 1.0}), 2.0) == 0.25
    two = SpaceParams(1.0, Power(1.0), W1)
    assert modular(two, SeqVector({-1: 1j, 2: 3.0}), 1.0) == 11.0


def test_modular_validation_and_overflow():
    params = SpaceParams(0.0, ExpSquare(), W1)
    p = SeqVector({0: 1.0})
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            modular(params, p, bad)
    with pytest.raises(ComputationOverflowError) as exc:
        modular(params, SeqVector({4: 1.0}), 1e-2)  # expm1(160000) overflows
    assert exc.value.index == 4


def _modular_error(params, p, rho):
    with pytest.raises(ComputationOverflowError) as exc, np.errstate(all="ignore"):
        modular(params, p, rho)
    return str(exc.value), exc.value.index


def test_modular_overflow_messages():
    params = SpaceParams(0.0, ExpSquare(), W1)
    assert _modular_error(params, SeqVector({0: 0.1, 4: 1.0, -5: 1.0}), 1e-2) == (
        "modular term overflow at index 4 for rho=0.01", 4)
    # the scaled argument is checked before any term
    assert _modular_error(params, SeqVector({3: 1.0, -7: 1e300, 8: 1e300}), 1e-10) == (
        "scaled argument overflow at index -7 for rho=1e-10", -7)
    # a measure that overflows comes before both
    grown = SpaceParams(1.0, ExpSquare(), W1)
    assert _modular_error(grown, SeqVector({4: 1e300, 1000: 1.0}), 1e-10) == (
        "measure overflow at index 1000: (1 + phi(1000))**1 exceeds double range", 1000)
    # k < 0: mu(30) underflows to 0 and 0 * inf is not a number
    assert _modular_error(SpaceParams(-1.0, ExpSquare(), W1), SeqVector({30: 100.0}),
                          0.25) == ("modular term overflow at index 30 for rho=0.25", 30)


def test_modular_reproducible_across_input_order():
    rng = random.Random(3)
    items = [(m, complex(rng.gauss(0, 1), rng.gauss(0, 1))) for m in range(-40, 40)]
    params = SpaceParams(1.5, Power(2.0), WeightSequence(1.0, {3: 0.2}))
    a = modular(params, SeqVector(items), 0.7)
    rng.shuffle(items)
    b = modular(params, SeqVector(items), 0.7)
    assert a == b  # bit-identical, not merely close


def test_modular_monotone_in_scale():
    rng = random.Random(11)
    params = SpaceParams(1.0, ExpLinear(), W1)
    p = SeqVector({m: rng.uniform(-2, 2) for m in range(-6, 7)})
    rhos = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [modular(params, p, r) for r in rhos]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2 ** 31))
def test_modular_convex_in_the_sequence(lam, seed):
    rng = random.Random(seed)
    p = SeqVector({m: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for m in range(-4, 5)})
    q = SeqVector({m: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for m in range(-4, 5)})
    params = SpaceParams(1.0, ExpSquare(), W1)
    mix = p.scaled(lam) + q.scaled(1.0 - lam)
    lhs = modular(params, mix, 1.0)
    rhs = lam * modular(params, p, 1.0) + (1.0 - lam) * modular(params, q, 1.0)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


BUCKET_MIN = spaces._BUCKET_SUM_MIN
SPECIAL_TERMS = (1.0, 2.0 ** -53, -2.0 ** -53, 2.0 ** -54, 5e-324, -5e-324,
                 2.2250738585072014e-308, 0.0, -0.0, 1e300, -1e300, 1e-300)


def _sum_outcome(summed, terms):
    """The hex of the sum, or the type and message of what it raised."""
    try:
        return summed(terms).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _fsum_outcome(terms):
    return _sum_outcome(lambda a: math.fsum(a.tolist()), terms)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=-1e300, max_value=1e300),
                          st.sampled_from(SPECIAL_TERMS)), min_size=1, max_size=30),
       st.integers(-1, 2 * BUCKET_MIN), st.integers(0, 600), st.floats(-300.0, 300.0),
       st.integers(0, 2 ** 32 - 1))
def test_exact_sum_is_fsum_bit_for_bit(base, extra, spread, top, seed):
    # a length of at least BUCKET_MIN - 1 (the threshold's both sides):
    # terms drawn from ``base`` (subnormals, ties, +-0.0, +-1e300 among them)
    # and signed log-uniform magnitudes 10**[top - spread, top]
    rng = np.random.default_rng(seed)
    size = BUCKET_MIN + extra
    drawn = rng.integers(0, size + 1)
    logs = rng.uniform(max(top - spread, -300.0), min(top, 300.0), size - drawn)
    terms = np.concatenate((rng.choice(np.array(base), drawn),
                            rng.choice((-1.0, 1.0), logs.size) * 10.0 ** logs))
    rng.shuffle(terms)
    assert _sum_outcome(spaces.exact_sum, terms) == _fsum_outcome(terms)


@pytest.mark.parametrize("size", [BUCKET_MIN - 1, BUCKET_MIN, 5000])
@pytest.mark.parametrize("head", [
    [1.0, 2.0 ** -53],                        # a tie: rounds down to even 1.0
    [1.0 + 2.0 ** -52, 2.0 ** -53],           # a tie: rounds up to even
    [1.0, 2.0 ** -53, 2.0 ** -105],           # just past the tie
    [1.0, -2.0 ** -54, -2.0 ** -54, 2.0 ** -1074],
    [0.0], [-0.0], [0.0, -0.0], [5e-324, -5e-324], [1e300, -1e300, 1.0],
], ids=repr)
def test_exact_sum_of_ties_zeros_and_cancellations_is_fsum(size, head):
    # padded with zeros or with -0.0 to ``size`` terms; a tie spread over many terms
    for pad in (0.0, -0.0):
        terms = np.array(head + [pad] * (size - len(head)))
        assert _sum_outcome(spaces.exact_sum, terms) == _fsum_outcome(terms)
    ulps = np.array([1.0] + [2.0 ** -53] * (size - 1))  # (size - 1)/2 ulps of 1.0
    assert spaces.exact_sum(ulps).hex() == math.fsum(ulps.tolist()).hex()


@pytest.mark.parametrize("size", [BUCKET_MIN - 1, BUCKET_MIN, 5000])
@pytest.mark.parametrize("head, raised", [
    ([math.inf], None), ([-math.inf, 1e300], None), ([math.nan], None),
    ([math.inf, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),          # past double range
    ([1e308, 1e308, -1e308], OverflowError),  # fsum's intermediate overflow
    ([1.7e308, -1.7e308, 1e308], None),
    ([1e303, 1e303, -1e303], None),           # large, on the bucket path
], ids=repr)
def test_exact_sum_errors_and_non_finite_sums_are_fsum_ones(size, head, raised):
    terms = np.array(head + [1.0] * (size - len(head)))
    want = _fsum_outcome(terms)  # nan.hex() is "nan"
    assert _sum_outcome(spaces.exact_sum, terms) == want
    assert isinstance(want, str) == (raised is None)
    if raised is not None:
        assert want[0] is raised
    if raised is OverflowError:
        # the same terms as a modular: phi(t) = t at unit weights and scale
        row = SeqVector({m: a for m, a in enumerate(terms.tolist())})
        batch = spaces.TermBatch(SpaceParams(0.0, Power(1.0), W1),
                                 [SeqVector()._row(), row._row()])
        values, errors = batch.modulars(1.0, "here")
        assert values[0] == 0.0 and list(errors) == [1]
        assert (str(errors[1]), errors[1].index) == ("modular sum overflow here", None)


def test_a_long_modular_is_the_literal_fsum_of_its_terms():
    rng = random.Random(5)
    p = SeqVector({m: complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-8, 0)
                   for m in range(-2500, 2500)})
    assert len(p) == 5000
    for params in (SpaceParams(1.0, Power(2.0), WeightSequence(1.0, {7: 0.3})),
                   SpaceParams(0.0, ExpSquare(), W1)):
        mus, errors = measures(params, p.support)
        assert not errors
        for rho in (0.5, 3.0, 40.0):
            terms = mus * params.phi.eval(p.abs_values() / rho)
            assert modular(params, p, rho).hex() == math.fsum(terms.tolist()).hex()


def test_convex_combination_stays_in_unit_class():
    rng = random.Random(5)
    params = SpaceParams(0.5, ExpLinear(), W1)
    p = SeqVector({m: rng.uniform(-1, 1) for m in range(-5, 6)})
    q = SeqVector({m: rng.uniform(-1, 1) for m in range(-5, 6)})
    lam, nu = 0.3, 0.45  # |lam| + |nu| < 1
    lhs = modular(params, p.scaled(lam) + q.scaled(nu), 1.0)
    rhs = abs(lam) * modular(params, p, 1.0) + abs(nu) * modular(params, q, 1.0)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


def test_weight_poly_bound_rules():
    w = WeightSequence(1.0, {2: 3.0})
    assert weight_poly_bound(SpaceParams(0.0, ExpSquare(), w)) == (3.0, 0.0)
    assert weight_poly_bound(SpaceParams(-2.0, ExpSquare(), w)) == (3.0, 0.0)
    coeff, expo = weight_poly_bound(SpaceParams(2.0, Power(3.0), w))
    assert coeff == 12.0 and expo == 6.0
    tab = TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
    coeff, expo = weight_poly_bound(SpaceParams(1.5, tab, W1))
    assert expo == 1.5
    for phi in (ExpSquare(), ExpLinear(), ExpCompose(Power(2.0))):
        with pytest.raises(CertificateError):
            weight_poly_bound(SpaceParams(1.0, phi, W1))


@pytest.mark.parametrize("k,phi", [
    (0.0, ExpSquare()),
    (2.5, Power(3.0)),
    (1.0, Power(1.0)),
    (1.5, TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])),
    (-1.0, ExpLinear()),
])
def test_weight_poly_bound_certifies(k, phi):
    params = SpaceParams(k, phi, WeightSequence(1.0, {0: 0.3, 4: 2.0}))
    coeff, expo = weight_poly_bound(params)
    for m in (0, 1, 2, 3, 5, 10, 100, 1000):
        assert mu(params, m) <= coeff * (1.0 + m) ** expo * (1.0 + 1e-12)


def test_envelope_validation():
    with pytest.raises(DomainError):
        GeometricEnvelope(1.0, 1.0)
    with pytest.raises(DomainError):
        GeometricEnvelope(-1.0, 0.5)
    env = GeometricEnvelope(2.0, 0.5)
    assert [f.name for f in dataclasses.fields(env)] == ["amplitude", "ratio", "valid_from"]
    assert env.dominates(SeqVector({0: 2.0, 3: 0.25}))
    assert not env.dominates(SeqVector({3: 0.5}))


def test_a_space_with_no_measure_majorant_certifies_no_envelope():
    # the envelope bounds p_m = 0.5**|m|; mu(m) = exp(m**2) grows
    # superpolynomially, and the modular of that p diverges
    params = SpaceParams(1.0, ExpSquare(), W1)
    env = GeometricEnvelope(1.0, 0.5)
    for call in (lambda: classify(params, None, env),
                 lambda: modular_tail_bound(params, env, 1.0, 1),
                 # the majorant is asked for before domination is checked
                 lambda: classify(params, SeqVector({4: 1.0}), env)):
        with pytest.raises(CertificateError, match="measure grows superpolynomially"):
            call()


def test_a_user_generator_states_its_own_measure_majorant():
    env = GeometricEnvelope(1.0, 0.5)
    with pytest.raises(CertificateError, match="^no measure majorant rule for Cube$"):
        classify(SpaceParams(1.0, Cube(), W1), None, env)
    # stating Power(3)'s majorant gives Power(3)'s certificates
    stated = classify(SpaceParams(1.0, StatedCube(), W1), None, env)
    assert stated.certificates
    assert stated == classify(SpaceParams(1.0, Power(3.0), W1), None, env)


@pytest.mark.parametrize("params, k", [
    (SpaceParams(1100.0, Power(2.0), W1), "1100"),  # 2.0 ** k raises
    (SpaceParams(100.0, Power(2.0), WeightSequence.constant(1e300)), "100"),  # the product
    (SpaceParams(400.0, TAB_KNOTS, W1), "400"),
    (SpaceParams(100.0, TAB_KNOTS, WeightSequence.constant(1e300)), "100"),
], ids=["power-pow", "power-product", "table-pow", "table-product"])
def test_a_measure_majorant_past_double_range_is_a_certificate_error(params, k):
    with pytest.raises(CertificateError,
                       match=f"^measure majorant overflows double range at k={k}$"):
        weight_poly_bound(params)
    with pytest.raises(CertificateError, match="majorant overflows"):
        classify(params, None, GeometricEnvelope(1.0, 0.5))


def test_a_tail_sum_past_double_range_certifies_no_scale():
    # a = 400: at trunc 693, classify's at rho = 1/2, (1 + m)**a raises; at
    # trunc 1 the ratio test's running term overflows to inf first
    params = SpaceParams(200.0, Power(2.0), W1)
    env = GeometricEnvelope(1.0, 0.999)
    for trunc in (1, 693):
        with pytest.raises(ComputationOverflowError,
                           match="^tail bound overflowed double range$"):
            modular_tail_bound(params, env, 1.0, trunc)
    report = classify(params, None, env)
    assert not (report.in_class or report.in_large or report.in_small)
    assert report.certificates == () and report.note == "no scale certified"


def test_a_linearization_point_past_the_generator_range_is_an_overflow():
    # t* = 1e3 * 0.5 / 1 = 500, where expm1(500**2) overflows
    with pytest.raises(ComputationOverflowError,
                       match="^linearization point 500 overflows the generator; "):
        modular_tail_bound(SpaceParams(0.0, ExpSquare(), W1), GeometricEnvelope(1e3, 0.5), 1.0, 1)


_P2 = SpaceParams(0.0, Power(2.0), W1)
_ENV = GeometricEnvelope(1.0, 0.5)
# each public count or index argument: a call taking it, and its least value
WHOLE_ARGUMENTS = {
    "schauder_truncate": (lambda n: schauder_truncate(SeqVector({3: 1.0}), n), 0),
    "modular_tail_bound": (lambda n: modular_tail_bound(_P2, _ENV, 1.0, n), 1),
    "GeometricProbe.depth": (lambda n: GeometricProbe(depth=n), 20),
    "GeometricEnvelope.valid_from": (lambda n: dataclasses.replace(_ENV, valid_from=n), 0),
    "sample_ball.count": (lambda n: sample_ball(_P2, 1.0, seed=1, count=n, max_support=4), 1),
    "sample_ball.max_support": (lambda n: sample_ball(_P2, 1.0, seed=1, count=2, max_support=n),
                                1),
    "theta_bound": (lambda n: theta_bound(ExpSquare(), 2.0, 0.5, n), 16),
    "check_domination": (lambda n: check_domination(Power(2.0), ExpSquare(), 1.0, 1.0, n), 256),
    "default_probe_grid": (lambda n: default_probe_grid(n), 2),
    "classify": (lambda n: classify(_P2, SeqVector({0: 0.5}), _ENV, n), 0),
}


@pytest.mark.parametrize("name", sorted(WHOLE_ARGUMENTS))
def test_a_count_or_index_that_is_not_a_whole_number_in_range_is_a_domain_error(name):
    call, least = WHOLE_ARGUMENTS[name]
    for bad in (math.inf, -math.inf, math.nan, 2.5, least + 0.5, least - 1):
        with pytest.raises(DomainError):
            call(bad)
    call(least)
    call(float(least + 1))


def test_classify_probes_no_scale_below_depth_zero():
    report = classify(_P2, SeqVector({0: 0.5}), _ENV, 0)
    assert report.in_class and report.in_small and len(report.certificates) == 1
    with pytest.raises(DomainError, match="probe_depth must be a nonnegative integer"):
        classify(_P2, SeqVector({0: 0.5}), _ENV, -1)


def test_tail_bound_worked_value():
    params = SpaceParams(0.0, Power(1.0), W1)
    env = GeometricEnvelope(1.0, 0.5)
    bound = modular_tail_bound(params, env, 1.0, 10)
    exact = 2.0 * 2.0 ** -11 / (1.0 - 0.5)  # worst-case tail sums exactly
    assert bound == pytest.approx(2.0 ** -9, rel=1e-12)
    assert exact <= bound <= 4.0 * exact


def test_tail_bound_edge_cases():
    params = SpaceParams(0.0, Power(2.0), W1)
    env = GeometricEnvelope(0.0, 0.5)
    assert modular_tail_bound(params, env, 1.0, 5) == 0.0
    env2 = GeometricEnvelope(1.0, 0.5, valid_from=8)
    with pytest.raises(DomainError):
        modular_tail_bound(params, env2, 1.0, 5)
    with pytest.raises(DomainError):
        modular_tail_bound(params, env2, 0.0, 10)
    with pytest.raises(DomainError):
        modular_tail_bound(params, env2, 1.0, 0)


def _brute_tail(params, env, rho, trunc, horizon=1000):
    total = []
    for m in range(trunc + 1, trunc + 1 + horizon):
        for sign in (-1, 1):
            total.append(mu(params, sign * m) * params.phi(env.bound_at(m) / rho))
    return math.fsum(total)


@pytest.mark.parametrize("k,phi,c,r,rho,trunc", [
    (0.0, Power(1.0), 1.0, 0.5, 1.0, 10),
    (1.7, Power(2.0), 3.0, 0.8, 0.37, 12),
    (0.0, ExpSquare(), 0.9, 0.6, 2.0, 4),
    (2.0, Power(1.0), 10.0, 0.3, 5.0, 9),
    (0.0, ExpLinear(), 5.0, 0.9, 7.0, 3),
    # not monotone: phi(3) = 1000 is above the last knot value
    (1.0, TabulatedConvex([(0, 0), (3, 1000), (4, 1), (5, 2)]), 1.0, 0.5, 1.0, 1),
])
def test_tail_bound_dominates_brute_force(k, phi, c, r, rho, trunc):
    # the case's envelope, and one shared by every space: each bound takes
    # the measure majorant of its own space
    params = SpaceParams(k, phi, WeightSequence(1.0, {1: 0.4}))
    for env in (GeometricEnvelope(c, r), _ENV):
        bound = modular_tail_bound(params, env, rho, trunc)
        assert _brute_tail(params, env, rho, trunc) <= bound * (1.0 + 1e-12)


def test_classify_finite_support_is_trivially_member():
    rep = classify(SpaceParams(1.0, ExpSquare(), W1), SeqVector({0: 5.0, 3: 1.0}))
    assert rep.in_class and rep.in_large and rep.in_small


def test_classify_with_envelope():
    params = SpaceParams(0.0, Power(2.0), W1)
    env = GeometricEnvelope(1.0, 0.5)
    p = SeqVector({m: (0.5 ** abs(m)) for m in range(-5, 6)})
    rep = classify(params, p, env)
    assert rep.in_class and rep.in_large and rep.in_small
    assert rep.large_witness_rho == 1.0
    assert rep.certificates
    # the certified upper bound dominates a long brute-force partial sum
    for cert in rep.certificates:
        if cert.modular_upper is None:
            continue
        brute = math.fsum(
            mu(params, m) * params.phi(env.bound_at(m) / cert.rho)
            for m in range(-2000, 2001))
        assert brute <= cert.modular_upper * (1.0 + 1e-9)


def test_classify_skips_the_explicit_part_of_a_huge_window():
    # trunc is about 6.9e8 at every scale: 1.4e9 indices are not summed, and
    # the verdicts still come from the tail bound
    params = SpaceParams(0.0, Power(2.0), W1)
    rep = classify(params, None, GeometricEnvelope(1e300, 0.999999))
    assert rep.in_class and rep.in_large and rep.in_small
    assert len(rep.certificates) == DYADIC_PROBE_DEPTH + 1
    for cert in rep.certificates:
        assert 2 * cert.trunc + 1 > MAX_GRID_POINTS
        assert cert.modular_upper is None and math.isfinite(cert.tail_bound)


@pytest.mark.parametrize("cap", [11, 10])
def test_classify_window_of_max_grid_points_is_summed(monkeypatch, cap):
    monkeypatch.setattr(spaces, "MAX_GRID_POINTS", cap)
    params = SpaceParams(0.0, Power(2.0), W1)
    rep = classify(params, SeqVector({5: 0.5 ** 5}), GeometricEnvelope(1.0, 0.5))
    # trunc is 5 (11 indices) down to rho = 2**-5 and grows below it
    assert [c.trunc for c in rep.certificates[:7]] == [5] * 6 + [6]
    for cert in rep.certificates:
        assert (cert.modular_upper is None) == (2 * cert.trunc + 1 > cap)


def test_classify_envelope_must_dominate():
    params = SpaceParams(0.0, Power(2.0), W1)
    env = GeometricEnvelope(1.0, 0.5)
    with pytest.raises(DomainError):
        classify(params, SeqVector({4: 1.0}), env)


def test_classify_exponential_generator_flat_order():
    params = SpaceParams(0.0, ExpLinear(), WeightSequence.constant(0.5))
    env = GeometricEnvelope(2.0, 0.7)
    rep = classify(params, SeqVector(), env)
    assert rep.in_class and rep.in_small
    assert not (rep.in_large and not rep.in_small)


def test_modular_sum_overflow_is_typed(capsys, tmp_path):
    # every term is 1e308, finite, but their sum leaves double range
    params = SpaceParams(0.0, Power(2.0), W1)
    p = SeqVector({1: 1e154, 2: 1e154, 3: 1e154})
    assert _modular_error(params, p, 1.0) == ("modular sum overflow for rho=1", None)
    f = tmp_path / "big.csv"
    f.write_text("1,1e154,0\n2,1e154,0\n3,1e154,0\n")
    assert run(["modular", "--phi", "power:2", "--rho", "1", "--in", str(f)]) == 3
    assert capsys.readouterr() == ("", "numeric failure: modular sum overflow for rho=1\n")


def test_modular_overflow_raises_no_runtime_warning():
    # RuntimeWarning is an error under this suite's settings
    with pytest.raises(ComputationOverflowError, match="modular term overflow at index 30"):
        modular(SpaceParams(-1.0, ExpSquare(), W1), SeqVector({30: 100.0}), 0.25)
    with pytest.raises(ComputationOverflowError, match="scaled argument overflow at index 3"):
        modular(SpaceParams(0.0, ExpSquare(), W1), SeqVector({3: 1e300}), 1e-10)


@pytest.mark.parametrize("amplitude", [1.2e154, 1e308])
def test_classify_reports_an_overflowing_upper_bound_as_none(capsys, amplitude):
    # the off-support terms of the explicit window are finite, but at
    # amplitude 1.2e154 their sum overflows and at 1e308 some are inf
    params = SpaceParams(0.0, Power(2.0), W1)
    report = classify(params, envelope=GeometricEnvelope(amplitude, 0.5))
    assert report.in_class and report.certificates
    assert report.certificates[0].modular_upper is None
    assert all(c.modular_upper is None or math.isfinite(c.modular_upper)
               for c in report.certificates)
    assert run(["classify", "--phi", "power:2", "--env-c", repr(amplitude),
                "--env-r", "0.5"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "Infinity" not in out and '"modular_upper": null' in out


CLASSIFY_SPACES = [SpaceParams(1.0, Power(2.0), WeightSequence(1.0, {0: 0.5, -3: 2.0})),
                   SpaceParams(0.5, Power(1.5), W1),
                   SpaceParams(0.0, ExpSquare(), WeightSequence.constant(0.5)),
                   SpaceParams(1.0, TAB_KNOTS, SIGNED_WEIGHTS)]
# each space at each envelope, and one power:2 window of 11 981 to 20 297 indices
CLASSIFY_CASES = [
    *(pytest.param(params, amplitude, ratio, (0, 3, 8),
                   id=f"{amplitude}-{ratio}-{params.phi.descriptor()[:8]}")
      for amplitude, ratio in ((1.0, 0.5), (2.0, 0.7), (0.3, 0.9), (1.2e154, 0.5))
      for params in CLASSIFY_SPACES),
    pytest.param(CLASSIFY_SPACES[0], 20.0, 0.9995, (0, 3), id="long-window-power:2"),
]


@pytest.mark.parametrize("params, amplitude, ratio, depths", CLASSIFY_CASES)
def test_classify_upper_bound_is_the_brute_force_sum(params, amplitude, ratio, depths):
    # at 1.2e154 the off-support sum overflows at rho = 1 (the bound is None)
    env = GeometricEnvelope(amplitude, ratio)
    dominated = SeqVector({m: 0.5 * env.bound_at(m) * (1j if m % 2 else 1.0)
                           for m in (0, -1, 2, -4)})
    for p in (SeqVector(), dominated):
        for depth in depths:
            report = classify(params, p, env, depth)
            assert len(report.certificates) == depth + 1
            for cert in report.certificates:
                assert cert.tail_bound == modular_tail_bound(params, env, cert.rho, cert.trunc)
                want = classify_upper_oracle(params, p, env, cert.rho, cert.trunc,
                                             cert.tail_bound)
                got = cert.modular_upper
                assert (None if got is None else got.hex()) == (
                    None if want is None else want.hex())


def test_classify_builds_no_vector_for_its_window(monkeypatch):
    params = SpaceParams(0.0, Power(2.0), W1)
    env = GeometricEnvelope(4.0, 0.9)
    want = classify(params, None, env, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a vector was built")

    monkeypatch.setattr(SeqVector, "_canonical", refuse)
    monkeypatch.setattr(SeqVector, "_from_arrays", refuse)
    got = classify(params, None, env, 3)
    assert got == want and all(c.modular_upper is not None for c in got.certificates)


def test_classify_sums_each_scale_in_one_term_batch(monkeypatch):
    # p's row and the off-support window share one batch: one measures call a scale
    params = CLASSIFY_SPACES[0]
    env = GeometricEnvelope(2.0, 0.7)
    p = SeqVector({0: 1.0, -1: 0.5j, 3: 0.1})
    want = classify(params, p, env, 3)
    calls = []

    def counting(params, support):
        calls.append(len(support))
        return measures(params, support)

    def refuse(*args, **kwargs):
        raise AssertionError("modular was called")

    monkeypatch.setattr(spaces, "modular", refuse)
    monkeypatch.setattr(spaces, "measures", counting)
    got = classify(params, p, env, 3)
    assert got == want and len(calls) == len(got.certificates) == 4
    assert calls == [2 * c.trunc + 1 for c in got.certificates]


def test_classify_checks_the_measure_of_an_underflowed_bound():
    # the bound is 0.0 from |m| = 2 on, and mu(m) overflows from |m| = 6 on:
    # the window's sum is not certified, though every term there would be 0
    params = SpaceParams(200.0, Power(2.0), W1)
    env = GeometricEnvelope(1.0, 1e-200, valid_from=10)
    assert env.bound_at(2) == 0.0
    report = classify(params, None, env, 3)
    assert report.in_class and report.in_small
    assert [c.trunc for c in report.certificates] == [10] * 4
    assert all(c.tail_bound == 0.0 and c.modular_upper is None for c in report.certificates)
    # the same window with every measure finite is summed
    finite = classify(SpaceParams(200.0, Power(2.0), W1), None,
                      GeometricEnvelope(1.0, 1e-200, valid_from=5), 0)
    assert finite.certificates[0].modular_upper == 1.0  # mu(0) * phi(1); phi(1e-200) is 0


def test_classify_of_a_table_negative_beyond_its_knots_names_the_index():
    # phi(t) = 0.5 - 0.5 * (t - 2) beyond the last knot: phi(4) = -0.5
    params = SpaceParams(0.5, TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]), W1)
    env = GeometricEnvelope(1.0, 0.5)
    # the window reaches |m| = 4 at rho = 1/16, where -4 comes first
    with pytest.raises(DomainError) as off_support:
        classify(params, SeqVector({0: 0.5, 1: 0.25}), env, 8)
    assert str(off_support.value) == "measure undefined at index -4: phi(4) = -0.5 is negative"
    # at rho = 1 the window reaches |m| = 4 too, and p's row, with its own
    # index 4, comes first in the scale's one batch
    with pytest.raises(DomainError) as explicit:
        classify(params, SeqVector({0: 0.5, 4: 0.05}), env, 8)
    assert str(explicit.value) == "measure undefined at index 4: phi(4) = -0.5 is negative"


@pytest.mark.parametrize("text, line, row", [
    ("0,1\n", 1, ['0', '1']),
    ("\n0,1,0\n1,2,0,4\n", 3, ['1', '2', '0', '4']),
    ("0,1,0\n1.5,2,0\n", 2, ['1.5', '2', '0']),
    ("0,1,zero\n", 1, ['0', '1', 'zero']),
    ("0,1,0\n,5,0\n", 2, ['', '5', '0']),
    ("0,1,0\n , ,\n 2,,\n", 3, [' 2', '', '']),
])
def test_sequence_csv_errors_name_file_line_and_shape(capsys, tmp_path, text, line, row):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    f = str(f)
    want = (f"bad row at line {line} of sequence file {f!r}: "
            f"expected 'm,re,im', got {row!r}")
    with pytest.raises(DomainError) as exc:
        SeqVector.from_csv(f)
    assert str(exc.value) == want
    assert run(["norm", "--phi", "power:2", "--in", f]) == 2
    assert capsys.readouterr() == ("", f"error: {want}\n")


@pytest.mark.parametrize("text, line, row", [
    ("3\n", 1, ['3']),
    ("0,1\n2,0.5,7\n", 2, ['2', '0.5', '7']),
    ("0,1\n\n2.5,3\n", 3, ['2.5', '3']),
    ("0,1\n,3\n", 2, ['', '3']),
])
def test_weight_table_errors_name_file_line_and_shape(capsys, tmp_path, text, line, row):
    f = tmp_path / "w.csv"
    f.write_text(text)
    f = str(f)
    want = (f"bad row at line {line} of weight table {f!r}: "
            f"expected 'm,w', got {row!r}")
    with pytest.raises(DomainError) as exc:
        parse_weights(f"table:{f}")
    assert str(exc.value) == want
    vec = tmp_path / "p.csv"
    vec.write_text("0,1,0\n")
    assert run(["norm", "--phi", "power:2", "--weights", f"table:{f}", "--in", str(vec)]) == 2
    assert capsys.readouterr() == ("", f"error: {want}\n")


def test_csv_rows_with_a_value_are_never_skipped(capsys, tmp_path):
    # a blank first field is a bad row, not a blank line: the value after it
    # must not drop out of the sum
    f = tmp_path / "p.csv"
    f.write_text("0,1,0\n,5,0\n")
    assert run(["modular", "--phi", "power:2", "--rho", "1", "--in", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad row at line 2 of sequence file")
    # rows whose every field is blank are skipped in every reader
    f.write_text("\n0,1,0\n,,\n \t, ,\n2,3,0\n")
    assert SeqVector.from_csv(f).items == ((0, 1 + 0j), (2, 3 + 0j))
    w = tmp_path / "w.csv"
    w.write_text("0,2\n,\n1,3\n")
    assert [parse_weights(f"table:{w}").weight(m) for m in (0, 1, 2)] == [2.0, 3.0, 1.0]
    k = tmp_path / "k.csv"
    k.write_text("0,0\n , \n1,1\n")
    assert TabulatedConvex.from_csv(k).knots == ((0.0, 0.0), (1.0, 1.0))


def test_unreadable_csv_files_are_domain_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(DomainError, match="^cannot read sequence file .*missing.csv"):
        SeqVector.from_csv(missing)
    with pytest.raises(DomainError, match="^cannot read weight table .*missing.csv"):
        parse_weights(f"table:{missing}")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"0,1,0\n\xff,2,0\n")
    with pytest.raises(DomainError, match="^cannot read sequence file .*latin.csv.*utf-8"):
        SeqVector.from_csv(latin)
