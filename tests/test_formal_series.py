"""Function-valued Laurent series and the bullet product."""

from fractions import Fraction

import pytest

from starforge import (
    ExactComplex,
    FormalFunction,
    FormalScalar,
    GaussPoly,
    GaussSum,
    NotIntegrable,
    PhaseContext,
    PiScalar,
    UnknownCoordinate,
    fs_bullet,
    fs_diff,
    fs_integrate,
    fs_linear_comb,
    fs_to_json,
    render_function,
)

import wire
from corpus import function_view, nonzero_coeff, rand_function, rand_poly

CTX = PhaseContext(1)
Q = GaussPoly.coordinate(CTX, "q")
P = GaussPoly.coordinate(CTX, "p")
GAUSS = GaussPoly.gaussian(CTX, 1)


def lam_times(f, power):
    return FormalFunction.of(f, power)


# ---- GaussSum ----

def test_gauss_sum_merges_matching_widths():
    s = GaussSum(CTX, (GAUSS, GAUSS))
    assert len(s.parts) == 1
    assert s.parts[0] == GaussPoly.constant(CTX, 2, alpha=1)


def test_gauss_sum_keeps_distinct_widths_sorted():
    s = GaussSum(CTX, (GAUSS, Q, GaussPoly.gaussian(CTX, Fraction(1, 2))))
    assert [p.alpha for p in s.parts] == [0, Fraction(1, 2), 1]


def test_gauss_sum_cancellation():
    s = GaussSum.of(Q) - GaussSum.of(Q)
    assert not s
    assert str(s) == "0"


def test_gauss_sum_neg_scale_and_conj_match_the_validating_constructor(rng):
    # these build their results trusted: each must be what the public
    # constructor makes of the same mapped parts, and scaling by an exact
    # zero gives the zero sum
    widths = [0, Fraction(1, 2), 1]
    for _ in range(40):
        s = GaussSum(CTX, [rand_poly(rng, CTX, alpha=rng.choice(widths))
                           for _ in range(rng.randint(0, 4))])
        c = nonzero_coeff(rng)
        assert -s == GaussSum(CTX, [-p for p in s.parts])
        assert s.scale(c) == GaussSum(CTX, [p.scale(c) for p in s.parts])
        assert s.conj() == GaussSum(CTX, [p.conj() for p in s.parts])
        for zero in (0, Fraction(0), ExactComplex(0)):
            assert s.scale(zero) == GaussSum.zero(CTX)
            assert s.scale(zero).parts == ()


def test_gauss_sum_add_mul_and_diff_match_the_validating_constructor(rng):
    # these merge their engine-built parts by width without the constructor's
    # type check; the result must be the constructor's
    widths = [0, Fraction(1, 2), 1]
    for _ in range(30):
        s, t = (GaussSum(CTX, [rand_poly(rng, CTX, alpha=rng.choice(widths))
                               for _ in range(rng.randint(0, 3))]) for _ in range(2))
        assert s + t == GaussSum(CTX, s.parts + t.parts)
        assert s * t == GaussSum(CTX, [a * b for a in s.parts for b in t.parts])
        for var in ("q", "p"):
            assert s.diff(var) == GaussSum(CTX, [p.diff(var) for p in s.parts])
        assert (s + (-s)).parts == ()


def test_gauss_sum_products_distribute_over_widths():
    s = GaussSum(CTX, (Q, GAUSS))
    t = s * s
    # q^2, two q*exp crosses, exp^2: widths 0, 1, 2
    assert [p.alpha for p in t.parts] == [0, 1, 2]
    assert t.parts[1] == GaussPoly.monomial(CTX, (1, 0), 2, alpha=1)


def test_gauss_sum_integrate_sums_parts():
    s = GaussSum(CTX, (GAUSS, (Q * Q) * GAUSS))
    assert s.integrate() == PiScalar.pi() * Fraction(3, 2)


# ---- construction ----

def test_leading_zero_coefficients_shift_valuation():
    F = FormalFunction(CTX, -2, (GaussPoly.zero(CTX), Q))
    assert F.valuation == -1
    assert F.coefficient(-1) == GaussSum.of(Q)


def test_valuation_must_be_finite():
    with pytest.raises(ValueError):
        FormalFunction(CTX, Fraction(1, 2), (Q,))


def test_truncated_zero_function():
    F = FormalFunction(CTX, 0, (), tail=4)
    assert F.valuation == 5
    assert F.coeffs == ()
    assert F.coefficient(2) == GaussSum.zero(CTX)
    assert F.coefficient(5) is None


# ---- linear combinations ----

def test_linear_comb_with_scalar_weights():
    F = fs_linear_comb(FormalScalar.lam(), FormalFunction.of(Q),
                       FormalScalar.one(), FormalFunction.of(P))
    assert F.valuation == 0
    assert F.coefficient(0) == GaussSum.of(P)
    assert F.coefficient(1) == GaussSum.of(Q)
    assert render_function(F) == "p + q*lam"


def test_linear_comb_respects_truncation():
    c = FormalScalar.from_coeff_map({0: 1}, tail=1)
    F = fs_linear_comb(c, FormalFunction.of(Q), FormalScalar.zero(), FormalFunction.zero(CTX))
    assert F.tail == 1
    assert F.coefficient(2) is None


# ---- bullet product ----

def test_bullet_on_laurent_monomials():
    F = fs_bullet(lam_times(Q, -1), lam_times(P, -1))
    assert F.valuation == -2
    assert F.coefficient(-2) == GaussSum.of(Q * P)
    assert len(F.coeffs) == 1


def test_bullet_difference_of_squares():
    F = FormalFunction(CTX, 0, (Q, P))   # q + lam p
    G = FormalFunction(CTX, 0, (Q, -P))  # q - lam p
    H = fs_bullet(F, G)
    assert H.coefficient(0) == GaussSum.of(Q * Q)
    assert H.coefficient(1) == GaussSum.zero(CTX)
    assert H.coefficient(2) == GaussSum.of(-(P * P))
    assert render_function(H) == "q^2 - p^2*lam^2"


def test_bullet_unit():
    one = FormalFunction.one(CTX)
    F = FormalFunction(CTX, -1, (Q, GAUSS, Q * P))
    assert fs_bullet(one, F) == F
    assert fs_bullet(F, one) == F


def test_bullet_truncation_bookkeeping():
    F = FormalFunction(CTX, 0, (Q, P), tail=1)
    G = FormalFunction(CTX, 1, (P,))
    H = fs_bullet(F, G)
    assert H.tail == 2
    assert H.coefficient(1) == GaussSum.of(Q * P)
    assert H.coefficient(2) == GaussSum.of(P * P)
    assert H.coefficient(3) is None


def test_bullet_laws(rng):
    for _ in range(10):
        F = rand_function(rng, CTX)
        G = rand_function(rng, CTX)
        H = rand_function(rng, CTX)
        assert fs_bullet(F, G) == fs_bullet(G, F)
        assert fs_bullet(fs_bullet(F, G), H) == fs_bullet(F, fs_bullet(G, H))
        assert fs_bullet(F, G + H) == fs_bullet(F, G) + fs_bullet(F, H)


# ---- differentiation ----

def test_diff_is_termwise():
    F = FormalFunction(CTX, 0, (Q * Q, P))
    D = fs_diff(F, "q")
    assert D.coefficient(0) == GaussSum.of(Q.scale(2))
    assert D.coefficient(1) == GaussSum.zero(CTX)


def test_diff_unknown_coordinate():
    with pytest.raises(UnknownCoordinate):
        fs_diff(FormalFunction.of(Q), "q7")


def test_diff_leibniz_over_bullet(rng):
    for _ in range(10):
        F = rand_function(rng, CTX, alpha=rng.choice([0, 1]))
        G = rand_function(rng, CTX, alpha=rng.choice([0, 1]))
        for var in ("q", "p"):
            lhs = fs_diff(fs_bullet(F, G), var)
            rhs = fs_bullet(fs_diff(F, var), G) + fs_bullet(F, fs_diff(G, var))
            assert lhs == rhs


# ---- integration ----

def test_integrate_gaussian_series():
    F = FormalFunction(CTX, 0, (GAUSS, (Q * Q) * GAUSS))
    s = fs_integrate(F)
    assert s.coefficient(0) == PiScalar.pi()
    assert s.coefficient(1) == PiScalar.pi() * Fraction(1, 2)
    assert s.tail is None


def test_integrate_odd_profile_gives_zero():
    F = FormalFunction.of(Q * GAUSS)
    assert not fs_integrate(F)


def test_integrate_rejects_bare_polynomials():
    F = FormalFunction(CTX, 2, (Q,))
    with pytest.raises(NotIntegrable) as err:
        fs_integrate(F)
    assert "lam^2" in str(err.value)


def test_integrate_total_derivatives(rng):
    for _ in range(10):
        F = rand_function(rng, CTX, alpha=1)
        for var in ("q", "p"):
            assert not fs_integrate(fs_diff(F, var))


# ---- rendering and JSON ----

def test_render_orders_by_lambda_power():
    F = FormalFunction(CTX, -1, (Q, GaussPoly.zero(CTX), GAUSS))
    assert render_function(F) == "q*lam^-1 + exp(-r^2)*lam"
    T = FormalFunction(CTX, 0, (Q,), tail=2)
    assert render_function(T) == "q + O(lam^3)"


def test_function_json_roundtrip(rng):
    for _ in range(15):
        # two widths, so a coefficient may hold two parts
        F = (rand_function(rng, CTX, alpha=rng.choice([0, 1, Fraction(1, 2)]))
             + rand_function(rng, CTX, alpha=Fraction(3, 2)))
        if rng.random() < 0.5:
            F = F.truncate(1)
        assert wire.function_series(fs_to_json(F)) == function_view(F)
