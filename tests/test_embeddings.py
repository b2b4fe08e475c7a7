"""Domination witnesses, embedding constants, tail indices and chains."""

import math

import numpy as np
import pytest

from orliczseq import (CertificateError, CertificateRefutedError,
                       CompositionError, ComputationOverflowError, DomainError,
                       ExpCompose, ExpLinear, ExpSquare, GeometricProbe,
                       OrliczFunction, Power, PreconditionError, SeqVector,
                       SpaceParams, TabulatedConvex, WeightSequence,
                       chain_embeddings, check_domination, covering_check,
                       embedding_constant, luxemburg_norm, modular, sample_ball,
                       schauder_curve, theta_bound, uniform_tail_index,
                       verify_embedding)
from orliczseq import embeddings, functions, spaces
from orliczseq.cli import run
from orliczseq.functions import MAX_GRID_POINTS
from orliczseq.spaces import measures
from helpers import (FLAT_NEAR_ZERO, NON_MONOTONE_TABLE, StatedCube, exact_items,
                     pow_or_inf, reference_sample_ball, scalar_phi_oracle)

W1 = WeightSequence.constant(1.0)
CUBE_ROOT_4 = 1.5874010519681994748  # 4**(1/3), mode-b constant piece


class StrictSquare(OrliczFunction):
    """t**2 through a ``_raw_eval`` that insists on finite nonnegative points,
    the only points the term batch may hand it."""

    def _raw_eval(self, t):
        assert np.isfinite(t).all() and (t >= 0).all(), t
        return t * t

    def descriptor(self):
        return "strict-square"


class Collapsing(OrliczFunction):
    """exp(-1/t) near zero: convexity-shaped but the doubling ratio explodes."""

    def _raw_eval(self, t):
        return np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)

    def descriptor(self):
        return "collapsing"


def test_identity_domination_holds_globally():
    w = check_domination(Power(2.0), Power(2.0), 1.0)
    assert w.holds and w.first_violation is None
    assert math.isinf(w.t0)


def test_square_dominated_by_expsquare():
    # t^2 <= expm1(t^2) everywhere, so gamma = 1 works globally
    w = check_domination(Power(2.0), ExpSquare(), 1.0)
    assert w.holds


def test_power_pair_local_domination():
    # t^3 <= (gamma t)^2 exactly up to t0 = gamma^2; beyond it fails
    for gamma in (1.0, 0.7):
        t0 = gamma ** 2.0
        assert check_domination(Power(3.0), Power(2.0), gamma, t0=t0).holds
        assert not check_domination(Power(3.0), Power(2.0), gamma, t0=4.0 * t0).holds


def test_domination_violation_is_reported():
    w = check_domination(Power(1.0), Power(2.0), 1.0)
    assert not w.holds
    t = w.first_violation
    assert t is not None and 0.0 < t < 1.0
    assert Power(1.0)(t) > Power(2.0)(t)  # the reported point really violates


def test_check_domination_validation():
    with pytest.raises(DomainError):
        check_domination(Power(2.0), Power(2.0), 0.0)
    with pytest.raises(DomainError):
        check_domination(Power(2.0), Power(2.0), 1.0, t0=0.0)
    with pytest.raises(DomainError):
        check_domination(Power(2.0), Power(2.0), 1.0, grid_points=16)
    with pytest.raises(DomainError, match="t0=1e-310"):
        check_domination(Power(2.0), ExpSquare(), 1.0, t0=1e-310)


def test_grid_points_upper_bound():
    with pytest.raises(DomainError, match=f"at most {MAX_GRID_POINTS} points"):
        check_domination(Power(2.0), ExpSquare(), 1.0, grid_points=MAX_GRID_POINTS + 1)
    with pytest.raises(DomainError, match=f"at most {MAX_GRID_POINTS}"):
        theta_bound(ExpSquare(), 2.0, 1.0, grid_points=MAX_GRID_POINTS + 1)
    w = check_domination(Power(2.0), ExpSquare(), 1.0, grid_points=MAX_GRID_POINTS)
    assert w.holds and w.grid_checked == MAX_GRID_POINTS


@pytest.mark.parametrize("argv", [
    "dominate --phi power:2 --psi expsq --gamma 1 --grid-points 100000000000",
    "embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1 --k 1 "
    "--grid-points 1048577",
])
def test_grid_points_upper_bound_cli_exits_two(capsys, argv):
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: domination grid allows at most {MAX_GRID_POINTS} points\n"


def test_tiny_probe_window():
    src = SpaceParams(1.0, ExpSquare(), W1)
    with pytest.raises(DomainError, match="t_theta=1e-310"):
        uniform_tail_index(src, 0.0, 1.0, 0.1, t_theta=1e-310)
    # expsq underflows on every grid down to the last one t_theta can halve
    # to; the search stops there instead of asking for an empty grid
    with pytest.raises(CertificateError, match="underflows on the whole probe grid"):
        uniform_tail_index(src, 0.0, 1.0, 0.1, t_theta=1e-300)


@pytest.mark.parametrize("phi", [Power(2.0), FLAT_NEAR_ZERO], ids=["power", "flat"])
def test_t_theta_is_validated_before_the_doubling_probe(phi):
    src = SpaceParams(1.0, phi, W1)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^t_theta must be finite and positive$"):
            uniform_tail_index(src, 0.0, 1.0, 0.1, t_theta=bad)
    if phi is FLAT_NEAR_ZERO:  # a valid t_theta meets the doubling probe
        with pytest.raises(PreconditionError, match="^doubling condition at zero fails"):
            uniform_tail_index(src, 0.0, 1.0, 0.1)


def test_failed_scaling_bound_retries_only_where_t_theta_matters(monkeypatch):
    tried = []

    def counted(phi, theta, t_theta, *rest):
        tried.append(t_theta)
        return theta_bound(phi, theta, t_theta, *rest)

    monkeypatch.setattr(embeddings, "theta_bound", counted)
    # a power's bound theta**s is the same at every t_theta: one try
    with pytest.raises(CertificateError) as exc:
        uniform_tail_index(SpaceParams(1.0, Power(2.0), W1), 0.0, 1e200, 1.0, t_theta=3.0)
    assert str(exc.value) == ("scaling bound failed down to t_theta=3: "
                              "scaling ratio overflows on (0, 3] at theta=2e+200")
    assert tried == [3.0]
    # so is a user generator's stated constant
    tried.clear()
    with pytest.raises(CertificateError, match="^scaling bound failed down to t_theta=3: "):
        uniform_tail_index(SpaceParams(1.0, StatedCube(), W1), 0.0, 1e200, 1.0, t_theta=3.0)
    assert tried == [3.0]
    # a grid bound is retried at halved t_theta, and the error names the last one tried
    tried.clear()
    with pytest.raises(CertificateError) as exc:
        uniform_tail_index(SpaceParams(1.0, ExpSquare(), W1), 0.0, 1e200, 1.0)
    assert tried == [0.5 ** j for j in range(64)]
    assert str(exc.value) == (f"scaling bound failed down to t_theta={tried[-1]:g}: "
                              f"scaling ratio overflows on (0, {tried[-1]:g}] at theta=2e+200")


@pytest.mark.parametrize("argv,name", [
    ("dominate --phi power:2 --psi expsq --gamma 1 --t0 1e-310", "t0"),
    ("tail-index --phi expsq --kprime 1 --k 0 --kappa 1 --epsilon 0.1 "
     "--t-theta 1e-310", "t_theta"),
    ("embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1e-310 --k 1", "t0"),
])
def test_tiny_probe_window_cli_exits_two(capsys, argv, name):
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {name}=1e-310 is too small") and err.count("\n") == 1


def test_mode_a_constant_is_gamma():
    # t^2 <= expm1(0.9 t) for all t > 0 (grid minimum of the ratio is ~1.25)
    w = check_domination(Power(2.0), ExpCompose(Power(1.0)), 0.9)
    assert w.holds
    src = SpaceParams(2.0, ExpCompose(Power(1.0)), W1)
    cert = embedding_constant("a", w, src, 1.0)
    assert cert.mode == "a" and cert.c == 0.9
    assert cert.target.k == 1.0
    assert cert.target.phi.descriptor() == "power:2"
    assert cert.target.weights is src.weights


def test_mode_a_preconditions():
    w_global = check_domination(Power(2.0), ExpSquare(), 1.0)
    src = SpaceParams(1.0, ExpSquare(), W1)
    with pytest.raises(PreconditionError):
        embedding_constant("a", w_global, src, 2.0)  # k' < k
    with pytest.raises(PreconditionError):
        embedding_constant("a", w_global, src, -1.0)
    w_wide = check_domination(Power(2.0), ExpSquare(), 2.0)
    assert w_wide.holds and math.isinf(w_wide.t0)
    with pytest.raises(PreconditionError, match=r"mode 'a' needs gamma in \(0, 1\]"):
        embedding_constant("a", w_wide, src, 0.0)
    w_local = check_domination(Power(3.0), Power(2.0), 1.0, t0=1.0)
    with pytest.raises(PreconditionError):
        embedding_constant("a", w_local, SpaceParams(1.0, Power(2.0), W1), 0.0)
    failed = check_domination(Power(1.0), Power(2.0), 1.0)
    with pytest.raises(PreconditionError):
        embedding_constant("a", failed, SpaceParams(1.0, Power(2.0), W1), 0.0)
    # witness upper function must be the source generator
    with pytest.raises(PreconditionError):
        embedding_constant("a", w_global, SpaceParams(1.0, Power(2.0), W1), 0.0)
    with pytest.raises(DomainError):
        embedding_constant("c", w_global, src, 0.0)


def test_mode_b_constant_frozen_values():
    # source Power(2), target Power(3), gamma = 1, t0 = 1
    w = check_domination(Power(3.0), Power(2.0), 1.0, t0=1.0)
    src = SpaceParams(1.0, Power(2.0), W1)
    cert = embedding_constant("b", w, src, 0.0)
    assert cert.mode == "b" and cert.c == 1.0  # max(inverse(1)/1, 1) = 1
    assert cert.target.k == 0.0
    # inf w = 1/4 lifts the first branch: max(sqrt(4)/1, 1) = 2
    quarter = WeightSequence.constant(0.25)
    cert2 = embedding_constant("b", w, SpaceParams(1.0, Power(2.0), quarter), 0.0)
    assert cert2.c == pytest.approx(2.0, rel=1e-12)
    # cube-root constant from a Power(3) source with inf w = 1/4
    w3 = check_domination(Power(4.0), Power(3.0), 1.0, t0=1.0)
    cert3 = embedding_constant(
        "b", w3, SpaceParams(0.0, Power(3.0), quarter), 0.0)
    assert cert3.c == pytest.approx(CUBE_ROOT_4, rel=1e-12)
    # gamma branch wins when it is the larger of the two
    w_wide = check_domination(Power(3.0), Power(2.0), 0.7, t0=0.49)
    assert w_wide.holds
    cert4 = embedding_constant("b", w_wide, src, 0.0)
    assert cert4.c == pytest.approx(1.0 / 0.49, rel=1e-12)  # inverse(1)/t0 > gamma


def test_mode_b_preconditions():
    w = check_domination(Power(3.0), Power(2.0), 1.0, t0=1.0)
    src = SpaceParams(1.0, Power(2.0), W1)
    with pytest.raises(PreconditionError):
        embedding_constant("b", w, src, 0.5)  # target must have order zero
    with pytest.raises(PreconditionError):
        embedding_constant("b", w, SpaceParams(-1.0, Power(2.0), W1), 0.0)
    w_global = check_domination(Power(2.0), Power(2.0), 1.0)
    with pytest.raises(PreconditionError):
        embedding_constant("b", w_global, src, 0.0)  # needs finite t0


def test_mode_b_uses_the_certified_weight_infimum():
    # claiming inf w = 1 over weights 0.25 once certified c = 1 here, and
    # {0: 1} refutes that: target norm 0.63 > source norm 0.5
    w = check_domination(Power(3.0), Power(2.0), 1.0, t0=1.0)
    weights = WeightSequence.constant(0.25)
    with pytest.raises(DomainError):
        weights.with_inf(1.0)
    src = SpaceParams(1.0, Power(2.0), weights)
    with pytest.raises(TypeError):
        embedding_constant("b", w, src, 0.0, inf_w=1.0)
    cert = embedding_constant("b", w, src, 0.0)
    assert cert.c == 2.0  # Power(2).inverse(1/0.25) / t0
    chk = verify_embedding(cert, SeqVector({0: 1.0}))
    assert chk.ok and chk.target_norm > chk.source_norm


def test_mode_b_with_a_weight_infimum_whose_reciprocal_overflows_names_it():
    # 1/1e-310 is past double range: no constant psi^{-1}(1/inf w)/t0 exists
    w = check_domination(Power(3.0), Power(2.0), 1.0, t0=1.0)
    for weights in (WeightSequence.constant(1e-310),
                    WeightSequence(1.0, {3: 0.5}, inf_override=1e-310)):
        with pytest.raises(CertificateError) as exc:
            embedding_constant("b", w, SpaceParams(1.0, Power(2.0), weights), 0.0)
        assert str(exc.value) == "mode 'b' needs 1/inf w in double range, got inf w = 1e-310"
    # the smallest normal double still has a reciprocal, so a constant
    tiny = SpaceParams(1.0, Power(2.0), WeightSequence.constant(2.0 ** -1022))
    assert embedding_constant("b", w, tiny, 0.0).c == 2.0 ** 511


def test_verify_embedding_holds_on_samples():
    w = check_domination(Power(2.0), ExpSquare(), 1.0)
    src = SpaceParams(1.0, ExpSquare(), W1)
    cert = embedding_constant("a", w, src, 0.0)
    for i, p in enumerate(sample_ball(src, 2.0, seed=17, count=25, max_support=10)):
        chk = verify_embedding(cert, p)
        assert chk.ok, f"sample {i}: {chk}"
        assert chk.target_norm <= chk.bound
    with pytest.raises(DomainError):
        verify_embedding(cert, SeqVector({0: 1.0}), tol=-1.0)


def test_tail_index_frozen_power_case():
    cert = uniform_tail_index(SpaceParams(1.0, Power(2.0), W1), 0.0, 1.0, 2.0)
    assert (cert.m1, cert.m2, cert.m_eps_kappa) == (0, 1, 1)
    assert cert.covering_dim == 3
    assert cert.theta == 1.0
    assert cert.target_params.k == 0.0


def test_tail_index_frozen_exponential_cases():
    c1 = uniform_tail_index(SpaceParams(1.0, ExpSquare(), W1), 0.0, 1.0, 0.1)
    assert c1.m_eps_kappa == 20
    c2 = uniform_tail_index(SpaceParams(2.0, ExpLinear(), W1), 0.5, 1.0, 0.1)
    assert (c2.m1, c2.m2, c2.m_eps_kappa) == (1, 14, 14)
    assert c2.theta == 20.0


def test_a_scaled_window_past_double_range_is_retried_at_halved_t_theta():
    # theta*t_theta = 2e310 at t_theta = 1e10: the grid cannot evaluate phi
    # there, so t_theta halves until it can
    table = TabulatedConvex([(0, 0), (1, 1), (2, 3)])
    cert = uniform_tail_index(SpaceParams(100.0, table, W1), 0.0, 1e150, 1e-150, t_theta=1e10)
    assert cert.bound.t_theta == 1e10 * 2.0 ** -8 == 39_062_500.0
    assert cert.m_eps_kappa == 507


@pytest.mark.parametrize("phi, kappa, m", [(Power(2.0), 1e-200, 0), (ExpSquare(), 1e-170, 0),
                                           (ExpLinear(), 1e-170, 1)],
                         ids=["power:2", "expsq", "explin"])
def test_a_tiny_ball_gets_a_certificate(phi, kappa, m):
    # theta**s, or every grid ratio, underflows to 0: c_theta rounds up to
    # the smallest double, and the tail searches still hold
    src = SpaceParams(1.0, phi, W1)
    cert = uniform_tail_index(src, 0.0, kappa, 1.0)
    assert cert.bound.c_theta == math.ulp(0.0)
    assert cert.m_eps_kappa == m
    samples = sample_ball(src, kappa, seed=5, count=20, max_support=12)
    assert covering_check(cert, samples).max_tail_modular <= 1.0 + 1e-9


@pytest.mark.parametrize("phi, kp, k, m", [(Power(2.0), 1.0, 0.0, 0), (ExpSquare(), 1.0, 0.0, 0),
                                         (ExpLinear(), 2.0, 0.5, 1)],
                         ids=["power:2", "expsq", "explin"])
def test_a_ball_whose_theta_underflows_gets_a_certificate(phi, kp, k, m):
    # theta = 2*kappa/epsilon underflows to 0: it rounds up to the smallest
    # double, which only enlarges the ball the certificate covers
    src = SpaceParams(kp, phi, W1)
    cert = uniform_tail_index(src, k, 1e-300, 1e300)
    assert (cert.theta, cert.bound.theta) == (math.ulp(0.0), math.ulp(0.0))
    assert cert.m_eps_kappa == m
    samples = sample_ball(src, 1e-300, seed=5, count=20, max_support=12)
    assert covering_check(cert, samples).max_tail_modular <= 1.0 + 1e-9


@pytest.mark.parametrize("kappa, epsilon", [(1e300, 1e-300), (1e308, 1.0)])
def test_a_theta_that_overflows_names_kappa_and_epsilon(kappa, epsilon):
    with pytest.raises(CertificateError) as exc:
        uniform_tail_index(SpaceParams(1.0, ExpSquare(), W1), 0.0, kappa, epsilon)
    assert str(exc.value) == ("theta = 2*kappa/epsilon overflows double range "
                              f"at kappa={kappa:g}, epsilon={epsilon:g}")


def test_term_batch_gives_raw_eval_finite_nonnegative_points_at_overflowing_scales():
    src = SpaceParams(1.0, StrictSquare(), W1)
    p = SeqVector({0: 1e300, 2: 1e-300, -3: 3.0})
    with pytest.raises(ComputationOverflowError, match="scaled argument overflow at index 0"):
        modular(src, p, 1e-10)
    with pytest.raises(ComputationOverflowError, match="modular term overflow at index 0"):
        modular(src, p, 1.0)
    assert modular(src, SeqVector({-3: 3.0}), 3.0) == 10.0
    assert luxemburg_norm(src, p).value == pytest.approx(1e300, rel=1e-12)
    curve = schauder_curve(src, SeqVector({0: 1e300, 1: 1e-300, -2: 3.0, 3: 1e200}))
    assert [m for m, _ in curve] == [0, 1, 2, 3] and curve[-1][1] == 0.0
    cert = uniform_tail_index(src, 0.0, 1.0, 0.5)
    samples = sample_ball(src, 1.0, seed=3, count=20, max_support=12)
    assert covering_check(cert, samples).max_tail_modular <= 1.0 + 1e-9
    far = SeqVector({cert.m_eps_kappa + 1: 1e300})  # its tail modular overflows
    with pytest.raises(ComputationOverflowError, match="modular term overflow"):
        covering_check(cert, [*samples, far])


def test_tail_index_names_a_negative_generator_value_before_any_hit():
    # extrapolated at slope -5 past its last knot, phi(4) = -5
    table = TabulatedConvex([(0, 0), (1, 1), (2, 5), (3, 0)])
    cert = uniform_tail_index(SpaceParams(10.0, table, W1), 0.0, 1.0, 0.1)
    assert (cert.m1, cert.m2) == (0, 1)  # both found before phi turns negative
    with pytest.raises(DomainError) as exc:
        uniform_tail_index(SpaceParams(0.5, table, W1), 0.0, 1.0, 0.1)
    assert str(exc.value) == "measure growth undefined at index 4: phi(4) = -5 is negative"
    falling = TabulatedConvex([(0, 0), (1, 1), (2, 0.5)])
    with pytest.raises(DomainError, match="at index 4: phi\\(4\\) = -0.5 is negative"):
        uniform_tail_index(SpaceParams(0.5, falling, W1), 0.0, 1.0, 0.1)


def _linear_tail_index(cert):
    """(m1, m2) by the search one index at a time, on the scalar formulas."""
    src = cert.source
    phi, c, gap = src.phi, cert.bound.c_theta, src.k - cert.target_k
    inv_w, at_tt = 1.0 / src.weights.inf_w, scalar_phi_oracle(src.phi, cert.bound.t_theta)
    m2 = 0
    while pow_or_inf(1.0 + scalar_phi_oracle(phi, m2), gap) < c:
        m2 += 1
    m1 = 0
    while inv_w * pow_or_inf(1.0 + scalar_phi_oracle(phi, m1), -src.k) > at_tt:
        m1 += 1
    return m1, m2


# phi(n) = n on the integers except phi(3) = 5000: at t_theta = 0.01 both
# tail conditions hold at 3, then fail again until n = 20 (m2) and n = 99 (m1)
INTEGER_SPIKE_TABLE = TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 5000.0),
                                       (4.0, 4.0), (100.0, 100.0)])


def _spike_table(s: int) -> TabulatedConvex:
    """phi(n) = n on the integers except phi(s) = 5000; (m1, m2) = (s, s) as above."""
    return TabulatedConvex([(0.0, 0.0), (s - 1.0, s - 1.0), (s, 5000.0), (s + 1.0, s + 1.0),
                            (100.0, 100.0)])


@pytest.mark.parametrize("phi,kp,k,w,tt", [
    (Power(2.0), 1.0, 0.0, 1e-6, 1.0),  # m1 = 1000: several chunks
    (Power(1.5), 2.0, 0.5, 1.0, 1.0),
    (ExpSquare(), 1.0, 0.0, 1e-9, 1.0),
    (ExpLinear(), 2.0, 0.5, 1e-3, 1.0),
    (ExpCompose(Power(2.0)), 1.0, 0.0, 0.25, 1.0),
    (TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
     1.0, 0.0, 1e-4, 1.0),
    (NON_MONOTONE_TABLE, 1.0, 0.0, 1e-3, 1.0),
    (INTEGER_SPIKE_TABLE, 1.0, 0.0, 1.0, 0.01),
    (_spike_table(7), 1.0, 0.0, 1.0, 0.01),  # the last index of the first chunk
    (_spike_table(8), 1.0, 0.0, 1.0, 0.01),  # the first of the second
], ids=lambda v: v.descriptor()[:24] if isinstance(v, OrliczFunction) else repr(v))
def test_tail_index_equals_the_linear_search(phi, kp, k, w, tt):
    cert = uniform_tail_index(SpaceParams(kp, phi, WeightSequence.constant(w)), k, 1.0, 0.1,
                              t_theta=tt)
    assert (cert.m1, cert.m2) == _linear_tail_index(cert)


# the first index of each chunk of the tail-index search after the first:
# chunks of 8, 16, ..., 4096 indices, then 4096 each
CHUNK_STARTS = [8 * (2 ** j - 1) for j in range(1, 11)]


@pytest.mark.parametrize("n", sorted(b + d for b in CHUNK_STARTS for d in (-1, 0, 1)))
def test_tail_index_equals_the_linear_search_at_chunk_boundaries(n):
    # phi(t) = t: m2 is the least index with 1 + m2 >= theta * (1 + 1e-6),
    # m1 the least with 1 + m1 >= 1/w, and both are n
    src = SpaceParams(1.0, Power(1.0), WeightSequence.constant(1.0 / (n + 0.5)))
    cert = uniform_tail_index(src, 0.0, (n + 0.5) / 2.0 / (1.0 + 1e-6), 1.0)
    assert (cert.m1, cert.m2) == _linear_tail_index(cert) == (n, n)


def test_tail_index_search_finds_the_first_index_not_a_monotone_one():
    cert = uniform_tail_index(SpaceParams(1.0, INTEGER_SPIKE_TABLE, W1), 0.0, 1.0, 0.1,
                              t_theta=0.01)
    assert (cert.m1, cert.m2) == (3, 3)


@pytest.mark.parametrize("w,m1,m2,message", [
    (1.0, 0, 20, "measure growth did not absorb c_theta at desk scale"),
    (1e-6, 1000, 20, "ball entries did not enter the scaling window at desk scale"),
])
def test_tail_index_search_cap_is_inclusive(monkeypatch, w, m1, m2, message):
    src = SpaceParams(1.0, Power(2.0), WeightSequence.constant(w))
    cap = max(m1, m2)
    monkeypatch.setattr(embeddings, "_SEARCH_CAP", cap)
    cert = uniform_tail_index(src, 0.0, 1.0, 0.1)
    assert (cert.m1, cert.m2) == (m1, m2)
    monkeypatch.setattr(embeddings, "_SEARCH_CAP", cap - 1)
    for _ in range(2):
        with pytest.raises(CertificateError, match=message):
            uniform_tail_index(src, 0.0, 1.0, 0.1)
    assert list(src.__dict__["_tail_certificates"].values()) == [cert]  # no error stored
    monkeypatch.setattr(embeddings, "_SEARCH_CAP", cap)
    assert uniform_tail_index(src, 0.0, 1.0, 0.1) is cert


def test_tail_index_monotone_in_accuracy_and_radius():
    src = SpaceParams(1.0, ExpSquare(), W1)
    idx = [uniform_tail_index(src, 0.0, 1.0, eps).m_eps_kappa
           for eps in (2.0, 1.0, 0.5, 0.1, 0.02)]
    assert idx == sorted(idx)  # tighter accuracy never shrinks the index
    rad = [uniform_tail_index(src, 0.0, kap, 1.0).m_eps_kappa
           for kap in (0.5, 1.0, 2.0, 8.0)]
    assert rad == sorted(rad)  # bigger ball never shrinks the index


def test_tail_index_preconditions():
    src = SpaceParams(1.0, Power(2.0), W1)
    with pytest.raises(PreconditionError):
        uniform_tail_index(SpaceParams(1.0, Power(2.0), W1), 1.0, 1.0, 1.0)  # k' = k
    with pytest.raises(PreconditionError):
        uniform_tail_index(SpaceParams(0.5, Power(2.0), W1), -0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        uniform_tail_index(src, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        uniform_tail_index(src, 0.0, 1.0, math.inf)
    # doubling condition at zero is a hard gate for the tail argument
    with pytest.raises(PreconditionError):
        uniform_tail_index(SpaceParams(1.0, Collapsing(), W1), 0.0, 1.0, 1.0,
                           probe=GeometricProbe(1.0, 25))


def test_sample_ball_contract():
    src = SpaceParams(2.0, ExpLinear(), W1)
    a = sample_ball(src, 1.0, seed=7, count=40, max_support=12)
    b = sample_ball(src, 1.0, seed=7, count=40, max_support=12)
    assert a == b  # same seed, same draws
    c = sample_ball(src, 1.0, seed=8, count=40, max_support=12)
    assert a != c
    for p in a:
        assert len(p) <= 64
        assert p.max_abs_index <= 12
        assert luxemburg_norm(src, p).value <= 1.0 * (1.0 + 1e-9)
    with pytest.raises(DomainError):
        sample_ball(src, 0.0, seed=1)
    with pytest.raises(DomainError):
        sample_ball(src, 1.0, seed=1, count=0)


@pytest.mark.parametrize("source,max_support", [
    (SpaceParams(1.0, Power(2.0), W1), 1),
    (SpaceParams(1.0, Power(2.0), W1), 12),
    (SpaceParams(1.0, ExpSquare(), W1), 64),
    (SpaceParams(2.0, ExpLinear(), W1), 700),  # mu overflows beyond |m| ~ 354: halving
    (SpaceParams(0.0, Power(2.0), W1), 2 ** 1023),
], ids=["power-1", "power-12", "expsq-64", "explin-700", "power-2**1023"])
def test_sample_ball_equals_the_literal_draw_loop(source, max_support):
    for seed in (0, 5, -3, 2 ** 70, 900001):
        got = sample_ball(source, 0.5, seed=seed, count=20, max_support=max_support)
        want = reference_sample_ball(source, 0.5, seed, 20, max_support)
        assert list(map(exact_items, got)) == list(map(exact_items, want))


def test_sample_ball_rejects_seeds_and_supports_it_cannot_draw(capsys):
    src = SpaceParams(1.0, Power(2.0), W1)
    # log2(max_support + 1) > 1024: 2.0 ** u would overflow mid-draw
    with pytest.raises(DomainError, match="max_support"):
        sample_ball(src, 1.0, seed=1, max_support=10 ** 400)
    assert run(["covering", "--phi", "power:2", "--kprime", "1", "--k", "0", "--kappa", "1",
                "--epsilon", "1", "--max-support", str(10 ** 400)]) == 2
    assert capsys.readouterr().out == ""
    # no seed would draw from OS entropy; a seed that is not an integer is refused
    for seed in (None, 1.5, "7", math.inf):
        with pytest.raises(DomainError, match="seed"):
            sample_ball(src, 1.0, seed=seed, count=2)
    # an integral float draws as its int
    assert sample_ball(src, 1.0, seed=3.0, count=4) == sample_ball(src, 1.0, seed=3, count=4)


def test_sample_ball_probes_each_index_once(monkeypatch):
    # explin with k = 2: mu overflows beyond |m| ~ 354, so large draws halve
    src = SpaceParams(2.0, ExpLinear(), W1)
    want = sample_ball(src, 1.0, seed=5, count=30, max_support=700)
    probed = []

    def counting_measures(params, support):
        support = list(support)
        probed.extend(support)
        return measures(params, support)

    monkeypatch.setattr(embeddings, "measures", counting_measures)
    assert sample_ball(src, 1.0, seed=5, count=30, max_support=700) == want
    assert len(probed) == len(set(probed))
    assert max(p.max_abs_index for p in want) <= 354 < max(map(abs, probed))


@pytest.mark.parametrize("make,kprime,k", [
    (ExpSquare, 1.0, 0.0),
    (ExpLinear, 2.0, 0.5),
    (lambda: TabulatedConvex([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]),
     1.0, 0.0),
    (lambda: ExpCompose(ExpLinear()), 1.0, 0.0),
], ids=["expsq", "explin", "tab", "expof:explin"])
def test_a_repeated_tail_index_on_one_space_is_the_remembered_certificate(make, kprime, k):
    warm = SpaceParams(kprime, make(), W1)
    for kappa, epsilon in ((1.0, 1.0), (1.0, 0.1), (2.0, 0.05)):
        first = uniform_tail_index(warm, k, kappa, epsilon)
        assert uniform_tail_index(warm, k, kappa, epsilon) is first
        assert first == uniform_tail_index(SpaceParams(kprime, make(), W1), k, kappa, epsilon)
        assert first.target_params is first.target_params
        # a space sharing the generator, with one other input: its own certificate
        for kp, kk, w in ((kprime, k, WeightSequence.constant(1e-3)),
                          (kprime + 1.0, k, W1), (kprime, k + 0.25, W1)):
            shared = uniform_tail_index(SpaceParams(kp, warm.phi, w), kk, kappa, epsilon)
            assert shared == uniform_tail_index(SpaceParams(kp, make(), w), kk, kappa, epsilon)
    # each other argument is its own entry, and equals a cold space's
    for args in ((k, 1.0, 1.0, 0.5), (k, 1.0, 1.0, 1.0, GeometricProbe(0.5, 40))):
        cert = uniform_tail_index(warm, *args)
        assert cert == uniform_tail_index(SpaceParams(kprime, make(), W1), *args)
    assert len(warm.__dict__["_tail_certificates"]) == 5
    assert "_tail_certificates" not in warm.phi.__dict__


def test_a_remembered_certificate_gives_every_covering_check_one_target_space(monkeypatch):
    src = SpaceParams(1.0, ExpSquare(), W1)
    cert = uniform_tail_index(src, 0.0, 1.0, 0.25)
    samples = sample_ball(src, 1.0, seed=3, count=20, max_support=16)
    targets = []
    real = embeddings.TermBatch

    def recording(params, rows):
        targets.append(params)
        return real(params, rows)

    monkeypatch.setattr(embeddings, "TermBatch", recording)
    for _ in range(2):
        covering_check(uniform_tail_index(src, 0.0, 1.0, 0.25), samples)
    assert len(targets) == 2 and targets[0] is targets[1] is cert.target_params


def test_a_raised_tail_index_is_not_remembered():
    src = SpaceParams(1.0, Power(2.0), W1)
    for args in ((0.0, 1e300, 1e-300), (0.0, 1.0, 0.1, -1.0), (0.0, 1.0, 0.1, math.nan)):
        for _ in range(2):
            with pytest.raises((CertificateError, DomainError)):
                uniform_tail_index(src, *args)
    collapsing = SpaceParams(1.0, Collapsing(), W1)
    with pytest.raises(PreconditionError, match="doubling condition"):
        uniform_tail_index(collapsing, 0.0, 1.0, 0.1)
    assert src.__dict__["_tail_certificates"] == {}
    assert collapsing.__dict__["_tail_certificates"] == {}


def test_a_full_certificate_memo_is_cleared_before_a_new_entry(monkeypatch):
    monkeypatch.setattr(functions, "_MEMO_ROOTS", 2)
    src = SpaceParams(1.0, Power(2.0), W1)
    certs = [uniform_tail_index(src, 0.0, 1.0, eps) for eps in (1.0, 0.5, 0.25)]
    assert list(src.__dict__["_tail_certificates"].values()) == [certs[2]]


def test_covering_check_passes_on_sampled_ball():
    src = SpaceParams(1.0, Power(2.0), W1)
    cert = uniform_tail_index(src, 0.0, 1.0, 0.25)
    samples = sample_ball(src, 1.0, seed=3, count=60, max_support=16)
    rep = covering_check(cert, samples)
    assert rep.samples == 60
    assert rep.max_tail_modular <= 1.0 + 1e-9
    assert rep.max_residual <= 0.125 * (1.0 + 1e-9)
    assert rep.covering_dim == cert.covering_dim
    assert len(rep.residuals) == 60 and max(rep.residuals) == rep.max_residual


def test_covering_check_measures_its_tails_once(monkeypatch):
    # one term batch serves both the tail modulars and the residual solve
    src = SpaceParams(1.0, Power(2.0), W1)
    cert = uniform_tail_index(src, 0.0, 1.0, 0.25)
    samples = sample_ball(src, 1.0, seed=3, count=20, max_support=16)
    want = covering_check(cert, samples)
    calls = []

    def counting_measures(params, support):
        calls.append(len(support))
        return measures(params, support)

    monkeypatch.setattr(spaces, "measures", counting_measures)
    assert covering_check(cert, samples) == want
    assert calls == [sum(len(p.tail(cert.m_eps_kappa)) for p in samples)] and calls[0] > 0


def test_covering_check_empty_tails():
    src = SpaceParams(1.0, Power(2.0), W1)
    cert = uniform_tail_index(src, 0.0, 1.0, 0.25)
    inside = [SeqVector({0: 0.1}), SeqVector()]
    rep = covering_check(cert, inside)
    assert rep.max_tail_modular == 0.0 and rep.max_residual == 0.0


def test_covering_check_refutes_undersized_certificate():
    src = SpaceParams(1.0, Power(2.0), W1)
    honest = uniform_tail_index(src, 0.0, 1.0, 0.25)
    lying = type(honest)(honest.kappa, honest.epsilon, honest.theta,
                         honest.bound, 0, 0, 0, honest.source, honest.target_k)
    samples = sample_ball(src, 1.0, seed=3, count=200, max_support=16)
    with pytest.raises(CertificateRefutedError) as exc:
        covering_check(lying, samples)
    idx, value = exc.value.witness
    assert 0 <= idx < 200 and value > 0.0


def test_chain_identity_composition():
    w = check_domination(Power(2.0), Power(2.0), 1.0)
    src = SpaceParams(1.0, Power(2.0), W1)
    cert = embedding_constant("a", w, src, 1.0)
    rep = chain_embeddings(cert, cert)
    assert rep.constant == 1.0
    assert not rep.compact and rep.form is None
    assert [l.kind for l in rep.links] == ["continuous", "continuous"]


def test_chain_compact_then_global():
    psi = ExpCompose(Power(1.0))
    src = SpaceParams(1.0, psi, W1)
    compact = uniform_tail_index(src, 0.5, 1.0, 0.5)
    w = check_domination(Power(2.0), psi, 0.9)
    cont = embedding_constant("a", w, SpaceParams(0.5, psi, W1), 0.0)
    rep = chain_embeddings(compact, cont)
    assert rep.compact and rep.form == "compact+global"
    assert rep.constant == pytest.approx(0.9)
    assert rep.links[0].kind == "compact" and rep.links[0].constant == 1.0


def test_chain_compact_then_local():
    src = SpaceParams(1.0, Power(2.0), W1)
    compact = uniform_tail_index(src, 0.5, 1.0, 0.5)
    w = check_domination(Power(3.0), Power(2.0), 1.0, t0=1.0)
    local = embedding_constant("b", w, SpaceParams(0.5, Power(2.0), W1), 0.0)
    rep = chain_embeddings(compact, local)
    assert rep.compact and rep.form == "compact+local"
    assert rep.constant == 1.0


def test_chain_middle_space_mismatch():
    w = check_domination(Power(2.0), Power(2.0), 1.0)
    a = embedding_constant("a", w, SpaceParams(2.0, Power(2.0), W1), 1.0)
    b = embedding_constant("a", w, SpaceParams(2.0, Power(2.0), W1), 0.0)
    with pytest.raises(CompositionError):
        chain_embeddings(a, b)  # middle orders 1 vs 2 do not meet
    with pytest.raises(DomainError):
        chain_embeddings(a, "not a certificate")
