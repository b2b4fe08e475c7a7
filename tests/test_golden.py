"""Golden values: solver results pinned bit for bit.

Every float is compared as its 17-significant-digit text, so any change to a
bisection path, a bracket end or a modular sum shows here even when it stays
inside the other tests' tolerances.  The values were recorded from the
per-vector solver that preceded the batched engine; the engine must
reproduce them exactly.  ``GOLDEN_INVERSE_NORMS`` was recorded from the
scalar generic inverse that preceded the lock-step bisection; its vectors put
the single-term roots phi^{-1}(1/mu(m)) where that inverse is most fragile.
``GOLDEN_LARGE`` was recorded from the engine that computed mu one index at a
time; its supports of 1000 indices on |m| <= 20000 pin the per-support
measure and |p_m| arrays, including weights that differ between m and -m.
"""

import hashlib
import random

import pytest

from orliczseq import (ExpLinear, ExpSquare, Power, SeqVector, SpaceParams,
                       TabulatedConvex, WeightSequence, covering_check,
                       luxemburg_norm, modular, sample_ball, schauder_curve,
                       uniform_tail_index)
from helpers import random_vector

W1 = WeightSequence.constant(1.0)
TABLE = TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
# knots that are not exact binary fractions; np.interp and the scalar
# interpolation formula round differently on them
INEXACT_TABLE = TabulatedConvex([(0.0, 0.0), (0.3, 0.03), (0.31, 0.04), (1.0, 1.0)])
# with k = 0, 1/mu(m) = 1/w_m hits the knot values 1, 0.25, 4, 16, 0.04 and 0.03
KNOT_WEIGHTS = WeightSequence(1.0, {1: 4.0, 2: 0.25, 3: 16.0, 4: 1.0 / 16.0,
                                    -5: 1.0 / 0.04, 6: 1.0 / 0.03})

SPACES = {
    "power:2/1": SpaceParams(1.0, Power(2.0), W1),
    "expsq/0": SpaceParams(0.0, ExpSquare(), W1),
    "explin/0.5": SpaceParams(0.5, ExpLinear(), W1),
    "tab/1": SpaceParams(1.0, TABLE, W1),
}
HAND = SeqVector({0: 0.8, -2: 0.3 + 0.4j, 5: 0.05, 3: -1.7, -7: 0.02j})
VECTORS = {
    "hand": HAND,
    "spike": SeqVector({4: 2.5}),
    "wide": random_vector(random.Random(4242), 25, 40),
}


INVERSE_SPACES = {
    "tabx/1": SpaceParams(1.0, INEXACT_TABLE, W1),
    "explin/0.5": SPACES["explin/0.5"],
    "tab-knots/0": SpaceParams(0.0, TABLE, KNOT_WEIGHTS),
    "tabx-knots/0": SpaceParams(0.0, INEXACT_TABLE, KNOT_WEIGHTS),
}
INVERSE_VECTORS = {
    **VECTORS,
    # explin k=0.5 beyond |m| = 300: 1/mu(m) is below 1e-65, and from
    # |m| ~ 450 on the inverse stops at its 200-step cap
    "far": SeqVector({2: 0.7, 310: 1e-20, -455: 3e-40 + 1e-40j, 520: 2e-45,
                      611: -5e-52, 700: 1e-60j}),
    # explin k=0.5: roots on both sides of 1/2 (1.15 at m=0 down to 0.30 at
    # m=6); under KNOT_WEIGHTS roots on knots
    "roots": SeqVector({0: 0.4, 1: -1.1, -2: 0.25j, 3: 0.9, 4: 2.0, -5: 0.03,
                        6: 0.5 + 0.5j}),
}


def _g(x) -> str:
    return format(x, ".17g")


def _norm_record(res) -> tuple:
    return (_g(res.value), _g(res.bracket[0]), _g(res.bracket[1]),
            _g(res.modular_at_value), res.iterations)


def _covering_report():
    source = SpaceParams(2.0, ExpLinear(), W1)
    cert = uniform_tail_index(source, 0.5, kappa=1.0, epsilon=0.5)
    samples = sample_ball(source, 1.0, seed=11, count=12)
    report = covering_check(cert, samples)
    drawn = hashlib.sha256(repr([p.items for p in samples]).encode()).hexdigest()
    return (cert.m_eps_kappa, drawn, tuple(_g(x) for x in report.tail_modulars),
            tuple(_g(x) for x in report.residuals))


GOLDEN_NORMS = {
    ("explin/0.5", "hand"):
        ("2.837287254822197", "2.8372872548197172", "2.837287254822197",
         "0.99999999999896616", 40),
    ("explin/0.5", "spike"):
        ("5.1308456800843585", "5.1308456800843585", "5.1308456800843585",
         "1", 0),
    ("explin/0.5", "wide"):
        ("367.10407538263928", "367.10407538232766", "367.10407538263928",
         "0.99999999999918721", 40),
    ("expsq/0", "hand"):
        ("2.2101824852567775", "2.2101824852549208", "2.2101824852567775",
         "0.99999999999980194", 40),
    ("expsq/0", "spike"):
        ("3.0028060219661246", "3.0028060219661246", "3.0028060219661246",
         "0.99999999999999978", 0),
    ("expsq/0", "wide"):
        ("200.54417717785748", "200.54417717767512", "200.54417717785748",
         "0.99999999999797518", 40),
    ("power:2/1", "hand"):
        ("5.5565276927266574", "5.5565276927217679", "5.5565276927266574",
         "0.99999999999876177", 40),
    ("power:2/1", "spike"):
        ("10.307764064044152", "10.307764064044152", "10.307764064044152",
         "1", 0),
    ("power:2/1", "wide"):
        ("690.4103301936716", "690.41033019304564", "690.4103301936716",
         "0.99999999999974754", 40),
    ("tab/1", "hand"):
        ("11.925000000001909", "11.924999999993403", "11.925000000001909",
         "0.99999999999983991", 40),
    ("tab/1", "spike"):
        ("21.25000000001932", "21.249999999999996", "21.25000000001932",
         "0.99999999999909084", 40),
    ("tab/1", "wide"):
        ("1671.1537403646416", "1671.1537403633513", "1671.1537403646416",
         "0.99999999999999578", 40),
}

GOLDEN_INVERSE_NORMS = {
    ("explin/0.5", "far"):
        ("7137905773099562", "7137905773095818", "7137905773099562",
         "0.99999999999910483", 40),
    ("explin/0.5", "roots"):
        ("4.9382455290489782", "4.9382455290452452", "4.9382455290489782",
         "0.99999999999892941", 40),
    ("tab-knots/0", "roots"):
        ("21.947613019791632", "21.947613019770195", "21.947613019791632",
         "0.99999999999927836", 39),
    ("tabx-knots/0", "roots"):
        ("4.4422926213678746", "4.4422926213653655", "4.4422926213678746",
         "0.99999999999988365", 40),
    ("tabx/1", "hand"):
        ("4.0467267939466591", "4.0467267939430762", "4.0467267939466591",
         "0.99999999999767597", 40),
    ("tabx/1", "roots"):
        ("5.448324954582894", "5.4483249545783199", "5.448324954582894",
         "0.99999999999822931", 40),
    ("tabx/1", "spike"):
        ("6.2866629773161744", "6.2866629773104563", "6.2866629773161744",
         "0.99999999999689482", 40),
    ("tabx/1", "wide"):
        ("423.6850784433384", "423.68507844295664", "423.6850784433384",
         "0.99999999999847233", 40),
}

# weights that differ between m and -m unless 7 divides m
SIGNED_WEIGHTS = WeightSequence(1.0, {m: 1.0 + (m % 7) / 8.0
                                      for m in range(-20000, 20001, 3)})
LARGE_SPACES = {
    "power:2/1": SPACES["power:2/1"],
    "tab/1-signed": SpaceParams(1.0, TABLE, SIGNED_WEIGHTS),
}


def _large_vector(seed, n=1000, max_abs=20000):
    """n distinct indices with |m| <= max_abs, values over four decades."""
    rng = random.Random(seed)
    entries = {}
    for m in rng.sample(range(-max_abs, max_abs + 1), n):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        entries[m] = z * 10.0 ** rng.uniform(-2.0, 2.0) if z != 0 else 1.0
    return SeqVector(entries)


LARGE_VECTORS = {"big-a": _large_vector(1000), "big-b": _large_vector(1001)}
# modular scales as multiples of max |p_m|
LARGE_SCALES = (1.0, 4.0, 16.0)

# (space, vector) -> (norm record, modular at each scale of LARGE_SCALES)
GOLDEN_LARGE = {
    ("power:2/1", "big-a"):
        (("6263342.8844965789", "6263342.8844928425", "6263342.8844965789",
          "0.99999999999912847", 40),
         ("2677206916.8333397", "167325432.30208373", "10457839.518880233")),
    ("power:2/1", "big-b"):
        (("6749492.7611574288", "6749492.7611538675", "6749492.7611574288",
          "0.9999999999995195", 40),
         ("2955217620.0677409", "184701101.25423381", "11543818.828389613")),
    ("tab/1-signed", "big-a"):
        (("262905926.99937481", "262905926.99924031", "262905926.99937481",
          "0.99999999999948919", 40),
         ("2399780.61419767", "542969.16545056342", "135742.29136264086")),
    ("tab/1-signed", "big-b"):
        (("279541610.50098336", "279541610.50081241", "279541610.50098336",
          "0.99999999999964428", 40),
         ("2555771.5942905429", "562872.54975289351", "140718.13743822338")),
}

GOLDEN_CURVE = (
    (0, "2.7805579639766007"),
    (1, "2.7805579639766007"),
    (2, "2.7301978440623786"),
    (3, "0.15372444547835751"),
    (4, "0.15372444547835751"),
    (5, "0.084584467974757896"),
    (6, "0.084584467974757896"),
    (7, "0"),
)

GOLDEN_COVERING = (
    3,
    "bf57f45a6b94030832631b145f2407871abd590f905e43549a64f9be141c8814",
    ("2.7615026751992286e-38", "3.3303910278593547e-37", "5.747198581609124e-31",
     "9.7706092503791006e-37", "6.2525107122898373e-29", "1.7274257552441371e-09",
     "3.4355638066519286e-40", "1.1493888680381967e-05", "1.6822192101081052e-40",
     "1.0847442913844698e-36", "2.351865118403064e-40", "2.6992165252109893e-34"),
    ("4.1544430370044162e-20", "1.4427388099358366e-19", "1.8953125926296338e-16",
     "2.4711602237754691e-19", "1.9768310318183591e-15", "1.0470151738692293e-05",
     "4.6338186919230949e-21", "0.00088220324165893009", "3.2425199249287182e-21",
     "2.6037768511100484e-19", "3.8339481315856512e-21", "4.1073248328063575e-18"),
)


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("vector", sorted(VECTORS))
def test_norm_fields_are_pinned(space, vector):
    res = luxemburg_norm(SPACES[space], VECTORS[vector])
    assert _norm_record(res) == GOLDEN_NORMS[space, vector]


@pytest.mark.parametrize("space, vector", sorted(GOLDEN_INVERSE_NORMS))
def test_norm_fields_are_pinned_at_fragile_inverses(space, vector):
    res = luxemburg_norm(INVERSE_SPACES[space], INVERSE_VECTORS[vector])
    assert _norm_record(res) == GOLDEN_INVERSE_NORMS[space, vector]


@pytest.mark.parametrize("space, vector", sorted(GOLDEN_LARGE))
def test_large_support_norm_and_modulars_are_pinned(space, vector):
    params, p = LARGE_SPACES[space], LARGE_VECTORS[vector]
    top = max(abs(v) for v in p.values)
    got = (_norm_record(luxemburg_norm(params, p)),
           tuple(_g(modular(params, p, f * top)) for f in LARGE_SCALES))
    assert got == GOLDEN_LARGE[space, vector]


def test_schauder_curve_is_pinned():
    curve = schauder_curve(SPACES["explin/0.5"], HAND)
    assert tuple((m, _g(r)) for m, r in curve) == GOLDEN_CURVE


def test_covering_report_is_pinned():
    assert _covering_report() == GOLDEN_COVERING
