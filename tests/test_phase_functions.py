"""Gaussian-polynomial calculus: derivatives, moments, Poisson bracket, pi scalars."""

import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforge import (
    AlphaMismatch,
    DimensionMismatch,
    EC_I,
    EC_ONE,
    ExactComplex,
    GaussPoly,
    GaussSum,
    NotIntegrable,
    PhaseContext,
    PiScalar,
    UnknownCoordinate,
    coeff_sign,
    gp_diff,
    gp_eval,
    gp_integrate,
    gp_pair,
    gp_poisson,
    gp_to_json,
    pi_bounds,
    render_gausspoly,
)

import wire
from corpus import ALPHAS, gauss_polys, gp_view, nonzero_poly, rand_gaussian, rand_poly

CTX = PhaseContext(1)
Q = GaussPoly.coordinate(CTX, "q")
P = GaussPoly.coordinate(CTX, "p")


# ---- construction ----

def test_duplicate_exponents_merge():
    f = GaussPoly(CTX, {(1, 0): 2}) + GaussPoly(CTX, {(1, 0): -2})
    assert not f
    assert f.alpha == 0  # the zero function forgets its Gaussian factor


def test_a_polynomial_width_is_the_int_zero():
    # StarFamily.B_into keys a polynomial part by the int 0 and tests widths
    # without Fraction.__bool__; every way to build a polynomial gives that
    g = GaussPoly.gaussian(CTX, 1)
    for f in (Q, GaussPoly.zero(CTX), GaussPoly.constant(CTX, 3, alpha=Fraction(0)),
              GaussPoly.monomial(CTX, (1, 2), alpha="0"), g - g, Q * P, -Q, Q.conj(),
              Q.scale(Fraction(1, 3)), gp_diff(Q * Q, 0)):
        assert type(f.alpha) is int and f.alpha == 0, f
    for f in (g, Q * g, gp_diff(g, 0)):
        assert f.alpha == 1 and isinstance(f.alpha, Fraction)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        GaussPoly(CTX, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        GaussPoly(CTX, {(-1, 0): 1})
    with pytest.raises(ValueError):
        GaussPoly(CTX, {(0, 0): 1}, alpha=-1)
    with pytest.raises(TypeError):
        GaussPoly(CTX, {(0, 0): 1}, alpha=True)
    q1 = GaussPoly.coordinate(PhaseContext(2), "q1")
    with pytest.raises(DimensionMismatch):
        Q + q1
    with pytest.raises(DimensionMismatch):
        Q * q1


def test_exponents_must_be_nonnegative_ints():
    # int() once read 1.5 as 1, "2" as 2 and True as 1, so a bad key merged
    # into another term or printed as a different monomial
    for terms in ({(1.5, 0): 1, (1, 0): 2}, {("2", 0): 1}, {(True, 0): 1}):
        with pytest.raises(ValueError, match="nonnegative ints"):
            GaussPoly(CTX, terms)
    with pytest.raises(ValueError, match="nonnegative ints"):
        GaussPoly.monomial(CTX, (Fraction(3, 2), 0))
    assert str(GaussPoly(CTX, {(1, 0): 2, (0, 2): 1})) == "2*q + p^2"


def test_unknown_coordinate():
    with pytest.raises(UnknownCoordinate):
        GaussPoly.coordinate(CTX, "q2")
    with pytest.raises(UnknownCoordinate):
        gp_diff(Q, "x")
    # an index is a coordinate too: one pair has indices 0 and 1 only
    with pytest.raises(UnknownCoordinate, match="coordinate index 2 out of range"):
        GaussPoly.coordinate(PhaseContext(1), 2)


def test_alpha_mismatch_on_addition():
    with pytest.raises(AlphaMismatch):
        GaussPoly.gaussian(CTX, 1) + GaussPoly.gaussian(CTX, Fraction(1, 2))


def test_multiplication_adds_gaussian_exponents():
    f = GaussPoly.gaussian(CTX, 1) * GaussPoly.gaussian(CTX, Fraction(1, 2))
    assert f.alpha == Fraction(3, 2)
    assert (Q * Q * P).terms == {(2, 1): EC_ONE}


def test_binomial_square():
    f = (Q + P) * (Q + P)
    assert f == GaussPoly(CTX, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


# ---- differentiation ----

def test_polynomial_derivative():
    f = GaussPoly.monomial(CTX, (2, 1))
    assert gp_diff(f, "q") == GaussPoly(CTX, {(1, 1): 2})
    assert gp_diff(f, "p") == GaussPoly.monomial(CTX, (2, 0))


def test_gaussian_chain_rule():
    g = GaussPoly.gaussian(CTX, 1)
    assert gp_diff(g, "q") == GaussPoly.monomial(CTX, (1, 0), -2, alpha=1)
    f = GaussPoly.monomial(CTX, (1, 0), 1, alpha=Fraction(1, 2))
    assert gp_diff(f, "q") == GaussPoly(CTX, {(0, 0): 1, (2, 0): -1}, Fraction(1, 2))


@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0] + list(ALPHAS)))
def test_mixed_partials_commute(a, b, alpha):
    f = GaussPoly.monomial(CTX, (a, b), ExactComplex(2, -1), alpha)
    assert gp_diff(gp_diff(f, "q"), "p") == gp_diff(gp_diff(f, "p"), "q")


def test_leibniz_rule(rng):
    for _ in range(25):
        alpha = rng.choice([0, Fraction(1, 2), 1])
        f = rand_poly(rng, CTX, alpha=alpha)
        g = rand_poly(rng, CTX, alpha=alpha)
        for var in ("q", "p"):
            lhs = gp_diff(f * g, var)
            rhs = gp_diff(f, var) * g + f * gp_diff(g, var)
            assert lhs == rhs


# ---- evaluation ----

def test_eval_polynomial():
    value, exp_arg = gp_eval(Q * Q + P, (Fraction(3, 2), 1))
    assert value == ExactComplex(Fraction(13, 4))
    assert exp_arg == 0


def test_eval_reports_the_gaussian_argument():
    value, exp_arg = gp_eval(GaussPoly.gaussian(CTX, 1), (1, 0))
    assert value == EC_ONE
    assert exp_arg == Fraction(-1)


def test_eval_dimension_check():
    with pytest.raises(DimensionMismatch):
        gp_eval(Q, (1, 2, 3))


# ---- integration ----

def test_gaussian_normalization():
    assert gp_integrate(GaussPoly.gaussian(CTX, 1)) == PiScalar.pi()


def test_second_moment():
    f = Q * Q * GaussPoly.gaussian(CTX, 1)
    assert gp_integrate(f) == PiScalar.pi() * Fraction(1, 2)


def test_odd_moments_vanish():
    g = GaussPoly.gaussian(CTX, Fraction(1, 2))
    for exps in ((1, 0), (0, 1), (1, 2), (3, 0)):
        f = GaussPoly.monomial(CTX, exps, 1, g.alpha)
        assert not gp_integrate(f)


def test_radial_moment():
    g = GaussPoly.gaussian(CTX, 1)
    f = (Q * Q + P * P) * g
    assert gp_integrate(f) == PiScalar.pi()


def test_plain_polynomials_are_not_integrable():
    with pytest.raises(NotIntegrable):
        gp_integrate(Q * Q)


def test_two_pair_volume():
    ctx2 = PhaseContext(2)
    assert gp_integrate(GaussPoly.gaussian(ctx2, 1)) == PiScalar.pi(2)
    f = GaussPoly.monomial(ctx2, (2, 0, 0, 0), 1, 1)
    assert gp_integrate(f) == PiScalar.pi(2) * Fraction(1, 2)


def test_integration_is_linear(rng):
    for _ in range(15):
        f = rand_gaussian(rng, CTX)
        g = nonzero_poly(rng, CTX, alpha=f.alpha)
        c = Fraction(3, 7)
        assert gp_integrate(f + g.scale(c)) == gp_integrate(f) + gp_integrate(g) * PiScalar.const(c)


def test_integration_by_parts(rng):
    # total derivatives integrate to zero
    for _ in range(20):
        f = rand_gaussian(rng, CTX)
        for var in ("q", "p"):
            assert not gp_integrate(gp_diff(f, var))


# ---- the pairing kernel ----

def _moment_oracle(h):
    # term by term with Fractions: each even moment x^e integrates to
    # (e-1)!!/(2a)^(e/2) * sqrt(pi/a), each odd one to 0
    if not h.terms:
        return PiScalar.const(0)
    if h.alpha == 0:
        raise NotIntegrable("polynomial")
    total = ExactComplex(0)
    for exps, c in h.terms.items():
        if any(e % 2 for e in exps):
            continue
        w = Fraction(1)
        for e in exps:
            w *= Fraction(prod(range(e - 1, 0, -2)), (2 * h.alpha) ** (e // 2))
        total = total + c * w
    return PiScalar.pi(h.ctx.n) * (total * Fraction(1, h.alpha ** h.ctx.n))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except NotIntegrable:
        return "NotIntegrable"
    return type(value), value.coeff, value.pi_power


CTX2 = PhaseContext(2)


@settings(max_examples=60)
@given(data=st.data(), ctx=st.sampled_from((CTX, CTX2)))
def test_pairing_kernel_is_the_integral_of_the_product(data, ctx):
    # the reference multiplies out and integrates the product; it never calls
    # gp_pair, and the Fraction oracle shares no code with the kernel at all
    f = data.draw(gauss_polys(ctx), label="f")
    g = data.draw(gauss_polys(ctx), label="g")
    got = _outcome(gp_pair, f, g)
    assert got == _outcome(lambda: (GaussSum.of(f) * GaussSum.of(g)).integrate())
    assert got == _outcome(_moment_oracle, f * g)
    assert got == _outcome(gp_pair, g, f)


def test_pairing_kernel_edge_cases():
    zero, one = GaussPoly.zero(CTX), GaussPoly.constant(CTX, 1)
    assert _outcome(gp_pair, zero, Q) == (PiScalar, ExactComplex(0), 0)
    assert _outcome(gp_pair, Q, one) == "NotIntegrable"
    # odd moments cancel: the zero keeps pi_power 0
    assert _outcome(gp_pair, Q, GaussPoly.gaussian(CTX, 1)) == (PiScalar, ExactComplex(0), 0)
    with pytest.raises(DimensionMismatch):
        gp_pair(Q, GaussPoly.gaussian(CTX2, 1))


def test_moments_against_sympy():
    import sympy

    q, p = sympy.symbols("q p", real=True)
    for a, b, alpha in [(0, 0, 1), (2, 0, 1), (2, 2, Fraction(1, 2)),
                        (4, 0, 2), (2, 4, 1), (6, 0, Fraction(3, 2))]:
        f = GaussPoly.monomial(CTX, (a, b), 1, alpha)
        got = gp_integrate(f)
        al = sympy.Rational(alpha)
        want = sympy.integrate(
            q ** a * p ** b * sympy.exp(-al * (q ** 2 + p ** 2)),
            (q, -sympy.oo, sympy.oo), (p, -sympy.oo, sympy.oo))
        coeff = Fraction(str(want / sympy.pi))
        assert got == PiScalar.pi() * coeff


# ---- Poisson bracket ----

def test_canonical_bracket():
    assert gp_poisson(Q, P) == GaussPoly.constant(CTX, 1)
    assert gp_poisson(P, Q) == GaussPoly.constant(CTX, -1)


def test_bracket_examples():
    assert gp_poisson(Q * Q, P) == Q.scale(2)
    h = (Q * Q + P * P).scale(Fraction(1, 2))
    assert gp_poisson(h, Q) == -P


def test_bracket_is_antisymmetric_and_leibniz(rng):
    for _ in range(15):
        f = rand_poly(rng, CTX)
        g = rand_poly(rng, CTX)
        h = rand_poly(rng, CTX)
        assert gp_poisson(f, g) == -gp_poisson(g, f)
        assert gp_poisson(f * g, h) == f * gp_poisson(g, h) + gp_poisson(f, h) * g


def test_jacobi_identity(rng):
    for _ in range(10):
        f = rand_poly(rng, CTX, degree=3)
        g = rand_poly(rng, CTX, degree=3)
        h = rand_poly(rng, CTX, degree=3)
        total = (gp_poisson(f, gp_poisson(g, h))
                 + gp_poisson(g, gp_poisson(h, f))
                 + gp_poisson(h, gp_poisson(f, g)))
        assert not total


# ---- pi-valued scalars ----

def test_pi_rational_arithmetic():
    pi = PiScalar.pi()
    assert pi + pi == PiScalar.pi() * 2
    assert pi * pi == PiScalar.pi(2)
    assert -pi == PiScalar.pi() * -1
    assert not pi - pi
    assert str(pi) == "pi"
    assert str(PiScalar.pi() * Fraction(1, 2)) == "1/2*pi"
    # a single term c*pi^k reads back its coefficient and power
    assert (pi * 3).coeff == ExactComplex(3) and (pi * 3).pi_power == 1
    assert PiScalar.const(0).coeff == ExactComplex(0) and PiScalar.const(0).pi_power == 0
    for other in (pi + 1, pi.reciprocal()):
        with pytest.raises(ValueError):
            other.coeff
        with pytest.raises(ValueError):
            other.pi_power


def test_pi_scalar_powers_are_repeated_products_and_reciprocals():
    for x in (PiScalar.pi(), PiScalar.pi() * ExactComplex(1, 2) + 3,
              PiScalar((1, 1), (2, 0, 1))):
        for k in range(-3, 6):
            factor = x if k >= 0 else x.reciprocal()
            assert x ** k == prod([factor] * abs(k), start=PiScalar.const(1)), (x, k)
    with pytest.raises(ValueError):
        PiScalar.pi() ** Fraction(1, 2)


def test_pi_rational_validates_at_the_boundary():
    for bad in (1.5, True, "1", None):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            PiScalar((bad,))
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            PiScalar((1,), (bad,))
    # a zero numerator or a bad entry in the other slot does not hide it
    for args in (((), (1.5,)), ((0,), ("junk",)), ((1.5,),)):
        with pytest.raises(TypeError, match="PiScalar coefficients"):
            PiScalar(*args)
    for den in ((0,), ()):
        with pytest.raises(ZeroDivisionError):
            PiScalar((1,), den)
    # a non-monic, unreduced pair is kept in lowest terms over a monic den
    two_pi = PiScalar((0, 2), (2,))
    assert (two_pi.num, two_pi.den) == ((0, 1), (1,)) and two_pi == PiScalar.pi()
    for bad in (-1, 1.5, True, "1", None):
        with pytest.raises(ValueError):
            PiScalar.pi(bad)
    assert PiScalar.pi(0) == 1
    # results of the arithmetic keep the canonical form: a zero is () / (1,)
    pi = PiScalar.pi(3) * ExactComplex(1, 2)
    for zero in (pi - pi, pi * 0, pi * PiScalar.const(0), -(pi - pi), (pi - pi).conj()):
        assert type(zero) is PiScalar and zero.num == () and zero.den == (EC_ONE,)
        assert zero.pi_power == 0 and not zero
        assert zero == 0 and hash(zero) == hash(0)
    assert pi.conj() == PiScalar.pi(3) * ExactComplex(1, -2)
    assert pi / 2 == PiScalar.pi(3) * ExactComplex(Fraction(1, 2), 1)
    assert (pi * (PiScalar.pi() * 2), -pi) == (PiScalar.pi(4) * ExactComplex(2, 4),
                                              PiScalar.pi(3) * ExactComplex(-1, -2))


def test_pi_mixed_powers_promote():
    pi = PiScalar.pi()
    s = pi + 1
    assert isinstance(s, PiScalar) and s.num == (EC_ONE, EC_ONE)
    assert s - 1 == pi
    assert (pi * pi + pi) / pi == pi + 1


def test_pi_scalar_division_cancels():
    pi = PiScalar.pi()
    one_plus = pi + 1
    assert one_plus / one_plus == PiScalar.const(1)
    assert (pi * pi) / pi == pi
    # lowest terms with a monic denominator, whichever way the value is built
    half = (pi * 2 + 2) / (pi * pi * 4 - 4)
    assert half.num == (ExactComplex(Fraction(1, 2)),) and half.den == (-EC_ONE, EC_ONE)
    assert half == PiScalar((1,), (-2, 2)) and hash(half) == hash(PiScalar((1,), (-2, 2)))


def test_sign_decisions_refine_pi_intervals():
    pi = gp_integrate(GaussPoly.gaussian(CTX, 1))
    assert coeff_sign(pi - 3) == 1
    assert coeff_sign(Fraction(22, 7) - pi) == 1
    assert coeff_sign(pi - Fraction(355, 113)) == -1
    assert coeff_sign(pi - pi) == 0
    # terms of one sign decide it at any pi > 0, in a numerator or a denominator
    assert coeff_sign(-pi * pi * 3 - Fraction(1, 2)) == -1
    assert coeff_sign(PiScalar((1,), (0, 1))) == 1
    assert coeff_sign(PiScalar((-1,), (1, 1))) == -1


def test_pi_bounds_bracket_pi():
    lo, hi = pi_bounds(64)
    assert lo < hi
    assert Fraction(314159, 100000) < lo
    assert hi < Fraction(314160, 100000)
    lo2, hi2 = pi_bounds(128)
    assert lo <= lo2 < hi2 <= hi


PI_LEVELS = [1 << k for k in range(5, 14)]  # 32 .. 8192 bits


def test_pi_bounds_contain_pi_to_ten_thousand_bits():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(10240):
        man, exp = (+mpmath.pi).man_exp
    ref = Fraction(man, 1 << -exp)
    slack = Fraction(1, 1 << 10200)  # far above mpmath's rounding error
    for bits in PI_LEVELS:
        lo, hi = pi_bounds(bits)
        assert lo < ref - slack and ref + slack < hi, bits


def test_pi_bounds_width_and_nesting():
    prev = None
    for bits in PI_LEVELS:
        lo, hi = pi_bounds(bits)
        assert hi - lo <= Fraction(1, 1 << (bits + 3))
        if prev is not None:
            assert prev[0] <= lo < hi <= prev[1]
        prev = (lo, hi)


def test_pi_bounds_from_the_cache_match_fresh_ones(monkeypatch):
    from starforge import phase_functions

    pi_bounds(8192)
    levels = (1, 32, 100, 4096, 8192)
    cached = [pi_bounds(bits) for bits in levels]
    monkeypatch.setattr(phase_functions, "_pi_floor", (0, 3))
    assert [pi_bounds(bits) for bits in levels] == cached


def test_pi_bounds_leading_hex_digits():
    lo, hi = pi_bounds(600)
    digits = ("243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89"
              "452821E638D01377BE5466CF34E90C6CC0AC29B7C97C50DD3F84D5B5B5470917"
              "9216D5D98979FB1B")
    scale = 16 ** len(digits)
    assert int(lo * scale) == int(hi * scale) == int("3" + digits, 16)


@pytest.mark.parametrize("bits", [0, -1, 1.5, "64", True, None])
def test_pi_bounds_rejects_bad_bit_levels(bits):
    with pytest.raises(ValueError):
        pi_bounds(bits)


def test_importing_starforge_does_not_load_mpmath():
    import os
    import subprocess
    import sys

    import starforge

    src = os.path.dirname(os.path.dirname(os.path.abspath(starforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, starforge; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# ---- rendering and JSON ----

def test_render_examples():
    assert render_gausspoly(Q * Q * P + GaussPoly.constant(CTX, 2)) == "2 + q^2*p"
    assert render_gausspoly(GaussPoly.gaussian(CTX, 1)) == "exp(-r^2)"
    assert render_gausspoly(GaussPoly.monomial(CTX, (1, 0), 1, Fraction(3, 2))) == "q*exp(-3/2*r^2)"
    assert render_gausspoly(GaussPoly.monomial(CTX, (0, 1), EC_I)) == "I*p"


def test_json_roundtrip(rng):
    for _ in range(20):
        f = rand_poly(rng, CTX, alpha=rng.choice([0, 1, Fraction(1, 2)]))
        assert wire.gauss_poly(gp_to_json(f)) == gp_view(f)


def test_unseparable_pi_value_is_a_typed_engine_error(monkeypatch):
    from starforge import EngineError, PiSeparationError, phase_functions

    # a convergent of pi within 1e-16 cannot be told apart at 32 bits
    near = PiScalar.pi() - Fraction(245850922, 78256779)
    with monkeypatch.context() as m:
        m.setattr(phase_functions, "MAX_PI_BITS", 32)
        with pytest.raises(PiSeparationError) as err:
            coeff_sign(near)
    assert isinstance(err.value, EngineError)
    assert isinstance(err.value, ArithmeticError)
    assert coeff_sign(near) == 1
