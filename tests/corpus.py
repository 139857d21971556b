"""Seeded random-object builders shared across the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from starforge import (ExactComplex, FormalFunction, FormalScalar, GaussPoly, PiScalar,
                       StarFamily, moyal_family)

ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2))


def rand_fraction(rng, span=4, den=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_coeff(rng, real=False):
    re = rand_fraction(rng)
    im = Fraction(0) if real else rand_fraction(rng)
    return ExactComplex(re, im)


def nonzero_coeff(rng, real=False):
    while True:
        c = rand_coeff(rng, real)
        if c:
            return c


def rand_scalar(rng, lo=-2, hi=3, tail=None):
    coeffs = {}
    for z in range(lo, hi + 1):
        if rng.random() < 0.6:
            coeffs[z] = rand_coeff(rng)
    return FormalScalar.from_coeff_map(coeffs, tail)


def nonzero_scalar(rng, lo=-2, hi=3):
    while True:
        s = rand_scalar(rng, lo, hi)
        if s.coeffs:
            return s


def rand_poly(rng, ctx, degree=2, nterms=3, alpha=0):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = [0] * ctx.dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(ctx.dim)] += 1
        terms[tuple(exps)] = rand_coeff(rng)
    return GaussPoly(ctx, terms, alpha)


def nonzero_poly(rng, ctx, degree=2, nterms=3, alpha=0):
    while True:
        f = rand_poly(rng, ctx, degree, nterms, alpha)
        if f:
            return f


def rand_gaussian(rng, ctx, degree=2, nterms=3):
    return nonzero_poly(rng, ctx, degree, nterms, alpha=rng.choice(ALPHAS))


def rand_function(rng, ctx, lo=-1, hi=2, degree=2, alpha=0):
    coeffs = [rand_poly(rng, ctx, degree, alpha=alpha) for _ in range(lo, hi + 1)]
    return FormalFunction(ctx, lo, coeffs)


def rand_point(rng, ctx, span=2, den=3):
    return tuple(rand_fraction(rng, span, den) for _ in range(ctx.dim))


# hypothesis strategies: widths include 0, so polynomials and the empty
# function are drawn too
PAIR_WIDTHS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
exact_coeffs = st.builds(ExactComplex, small_fractions, small_fractions)


def gauss_polys(ctx, max_terms=4, max_exp=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * ctx.dim)
    return st.builds(lambda terms, alpha: GaussPoly(ctx, terms, alpha),
                     st.dictionaries(exps, exact_coeffs, max_size=max_terms),
                     st.sampled_from(PAIR_WIDTHS))


# engine values as tests/wire.py reads their JSON, built from the values'
# own fields, not from their encoders

def pair(c):
    return (c.re, c.im)


def coeff_view(c):
    if isinstance(c, PiScalar):
        return {"num": [pair(x) for x in c.num], "den": [pair(x) for x in c.den]}
    return pair(c)


def scalar_view(s):
    return (s.valuation, [coeff_view(c) for c in s.coeffs], s.tail)


def gp_view(f):
    return (f.alpha, {exps: pair(c) for exps, c in f.terms.items()})


def function_view(F):
    return ({(z, p.alpha, exps): pair(c)
             for z, gs in enumerate(F.coeffs, F.valuation)
             for p in gs.parts for exps, c in p.terms.items()}, F.tail)


def real_b1_family(ctx):
    """Moyal's table on one pair with a real first-order operator,
    B_1 = (1/2)(f_q g_p - f_p g_q): a family that is not Moyal's, though
    each B_k still differentiates each slot k times, so Moyal's termination
    rule holds for it."""
    moyal = moyal_family(ctx)
    half = ExactComplex(Fraction(1, 2))
    b1 = ((half, (1, 0), (0, 1)), (-half, (0, 1), (1, 0)))
    return StarFamily("real_b1", ctx, lambda k, _: b1 if k == 1 else moyal.terms(k),
                      moyal._termination)
