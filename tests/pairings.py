"""A seeded corpus of pairing outputs, pinned by digest.

Each case is one call of `func_action`, `func_star_action` (Moyal and
bullet), `positivity_check`, `normalize_functional` or `eigencheck_star` on
data drawn with `random.Random`.  A case renders to one canonical text: the
`str` and the JSON of its result, or the type and message of the error it
raises.  `golden_pairings.json` keeps the first 16 hex digits of the sha256
of that text for each case id, so a failure names its case.

    PYTHONPATH=src python tests/pairings.py          # case count and corpus digest
    PYTHONPATH=src python tests/pairings.py --write  # re-pin golden_pairings.json

Re-pinning changes a recorded output and is reported like a golden line.
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from starforge import (Density, EC_I, ExactComplex, FORMAL, FormalFunction,
                       FormalFunctional, FormalScalar, GaussPoly, GaussSum,
                       LambdaBinding, PhaseContext, PiScalar, PointDeriv, bind_functional,
                       bullet_family, eigencheck_star, fs_bullet, func_action,
                       func_star_action, moyal_family, normalize_functional,
                       positivity_check, render_scalar, scalar_to_json, wigner_state)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_pairings.json")

CTXS = {1: PhaseContext(1), 2: PhaseContext(2)}
WIDTHS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
LAMBDAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))
PI_WEIGHTS = (PiScalar.pi(), PiScalar.pi().reciprocal() * 3,
              PiScalar((ExactComplex(1), ExactComplex(0, 1))),
              PiScalar((ExactComplex(2),), (ExactComplex(1), ExactComplex(1))))


# ---- draws ----

def _frac(rng, span=3, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _coeff(rng, real=False):
    while True:
        c = ExactComplex(_frac(rng), _frac(rng) if not real and rng.random() < 0.5 else 0)
        if c:
            return c


def _poly(rng, ctx, alpha, degree=2, nterms=3, real=False):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = [0] * ctx.dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(ctx.dim)] += 1
        terms[tuple(exps)] = _coeff(rng, real)
    return GaussPoly(ctx, terms, alpha)


def _gauss_sum(rng, ctx, widths, nparts=2):
    return GaussSum(ctx, [_poly(rng, ctx, rng.choice(widths))
                          for _ in range(rng.randint(1, nparts))])


def draw_function(rng, ctx, polys=True):
    """1-3 grades of 1-2 parts; polynomial parts only when `polys`; sometimes truncated."""
    widths = ((0,) if polys else ()) + WIDTHS
    grades = [_gauss_sum(rng, ctx, widths) if rng.random() < 0.85 else GaussSum.zero(ctx)
              for _ in range(rng.randint(1, 3))]
    lo = rng.randint(-1, 1)
    tail = lo + rng.randint(0, 3) if rng.random() < 0.25 else None
    return FormalFunction(ctx, lo, grades, tail)


def _weight(rng, pi_weights):
    if pi_weights and rng.random() < 0.3:
        return rng.choice(PI_WEIGHTS)
    return _coeff(rng)


def _term(rng, ctx, pi_weights, gaussian_only):
    if rng.random() < 0.3:
        # a Gaussian part pairs with a point term only at the origin
        point = ((0,) * ctx.dim if rng.random() < 0.8 else
                 tuple(_frac(rng, 2, 2) for _ in range(ctx.dim)))
        index = tuple(rng.randint(0, 1) for _ in range(ctx.dim))
        return PointDeriv(ctx, point, index, _weight(rng, pi_weights))
    widths = WIDTHS if gaussian_only or rng.random() < 0.8 else (0,) + WIDTHS
    return Density(ctx, _gauss_sum(rng, ctx, widths, 3), _weight(rng, pi_weights))


def draw_functional(rng, ctx, pi_weights=True, gaussian_only=False):
    """1-3 grades of 1-3 terms: deltas, point derivatives and multi-part densities."""
    grades = [[_term(rng, ctx, pi_weights, gaussian_only) for _ in range(rng.randint(1, 3))]
              for _ in range(rng.randint(1, 3))]
    return FormalFunctional(ctx, rng.randint(-2, 1), grades)


def draw_cancelling(rng, ctx):
    """Densities whose pairings with 1 cancel: c*(density(gauss(a)) - (2b/a)^n density(gauss(2b)))."""
    a, b = rng.choice(WIDTHS), rng.choice(WIDTHS)
    c = _coeff(rng)
    ratio = (Fraction(2 * b) / a) ** ctx.n
    return (FormalFunctional.density(ctx, GaussPoly.gaussian(ctx, a), c, rng.randint(-1, 1))
            - FormalFunctional.density(ctx, GaussPoly.gaussian(ctx, 2 * b), c * ratio,
                                       rng.randint(-1, 1)))


def _mixed(rng, ctx, real=False):
    """A Wigner-like functional: a delta and Gaussian densities over several lam powers."""
    T = FormalFunctional.delta(ctx).rescale(_coeff(rng, real))
    for power in range(-2, 1):
        if rng.random() < 0.7:
            T = T + FormalFunctional.density(ctx, _poly(rng, ctx, rng.choice(WIDTHS), real=real),
                                             _coeff(rng, real), power)
    return T


# ---- cases ----

def _action_cases(rng, out):
    for n in (1, 2):
        ctx = CTXS[n]
        for i in range(80):
            T, F = draw_functional(rng, ctx), draw_function(rng, ctx)
            out.append(("action/n%d/%d" % (n, i), lambda T=T, F=F: func_action(T, F)))
        for i in range(12):
            T = draw_cancelling(rng, ctx)
            F = FormalFunction(ctx, 0, [GaussPoly.constant(ctx, 1)] * rng.randint(1, 2))
            out.append(("cancel/n%d/%d" % (n, i), lambda T=T, F=F: func_action(T, F)))
    # errors: a lam-width density, two polynomials, two phase spaces
    c1, c2 = CTXS[1], CTXS[2]
    one1, one2 = FormalFunction.one(c1), FormalFunction.one(c2)
    wide = FormalFunctional.density(c1, GaussPoly.gaussian(c1, 1), width_lambda=1)
    poly = FormalFunctional.density(c1, GaussPoly.constant(c1, 1))
    dens2 = FormalFunctional.density(c2, GaussPoly.gaussian(c2, 1))
    for name, T, F in (("width", wide, one1), ("poly", poly, one1),
                       ("dims", dens2, FormalFunction.of(GaussPoly.gaussian(c1, 1))),
                       ("width_before_poly", wide + poly, one1),
                       ("poly_before_width", poly.rescale(1) + wide.rescale(2), one1),
                       ("dims_before_poly", dens2, FormalFunction.of(GaussPoly.constant(c1, 1))),
                       ("delta_only", FormalFunctional.delta(c2), one2)):
        out.append(("action/error/%s" % name, lambda T=T, F=F: func_action(T, F)))


def _star_cases(rng, out):
    for n in (1, 2):
        ctx = CTXS[n]
        moyal, bullet = moyal_family(ctx), bullet_family(ctx)
        for i in range(30):
            T, F = draw_functional(rng, ctx), draw_function(rng, ctx)
            out.append(("moyal/n%d/%d" % (n, i),
                        lambda S=moyal, T=T, F=F: func_star_action(S, T, F)))
        for i in range(30 if n == 1 else 12):
            T = draw_functional(rng, ctx, gaussian_only=True)
            F = draw_function(rng, ctx)
            order = rng.choice((None, 0, 1, 2))
            out.append(("bullet/n%d/%d" % (n, i),
                        lambda S=bullet, T=T, F=F, k=order: func_star_action(S, T, F, k)))


def _positivity_cases(rng, out):
    ctx = CTXS[1]
    S = moyal_family(ctx)
    q, p = FormalFunction.coordinate(ctx, "q"), FormalFunction.coordinate(ctx, "p")
    one = FormalFunction.one(ctx)
    for i in range(40):
        kind = i % 5
        if kind == 0:
            T = FormalFunctional.delta(ctx, (_frac(rng, 2, 2), _frac(rng, 2, 2)))
        elif kind == 1:
            T = FormalFunctional.density(ctx, GaussPoly.gaussian(ctx, rng.choice(WIDTHS)))
        elif kind == 2:
            lam = rng.choice(LAMBDAS)
            T = bind_functional(wigner_state(ctx, rng.randint(0, 4)), LambdaBinding.strict(lam))
        elif kind == 3:
            T = _mixed(rng, ctx, real=True)
        else:
            T = _mixed(rng, ctx)
        # polynomial witnesses: a Gaussian one gives a value that does not terminate
        wits = [one, q + p.scale(EC_I * _frac(rng)), fs_bullet(q, q),
                FormalFunction.of(_poly(rng, ctx, 0))]
        wits = rng.sample(wits, rng.randint(1, len(wits)))
        samples = tuple(rng.sample(LAMBDAS, rng.randint(1, 2)))
        out.append(("positivity/%d" % i,
                    lambda T=T, w=wits, s=samples: positivity_check(S, T, w, s)))


def _normalize_cases(rng, out):
    normalized = []
    for n in (1, 2):
        ctx = CTXS[n]
        S = moyal_family(ctx)
        for i in range(16 if n == 1 else 8):
            kind = i % 4
            if kind == 0 and n == 1:
                lam = rng.choice(LAMBDAS)
                T = bind_functional(wigner_state(ctx, rng.randint(1, 4)), LambdaBinding.strict(lam))
            elif kind == 1:
                T = FormalFunctional.density(ctx, GaussPoly.gaussian(ctx, rng.choice(WIDTHS)))
            elif kind == 2:
                T = _mixed(rng, ctx)
            else:
                T = draw_functional(rng, ctx, pi_weights=False, gaussian_only=True)
            order = rng.randint(2, 4)
            out.append(("normalize/n%d/%d" % (n, i),
                        lambda S=S, T=T, k=order: normalize_functional(S, T, k)))
            try:
                normalized.append((n, normalize_functional(S, T, order)[1]))
            except Exception:
                pass
    # normalized functionals carry PiScalar weights: pair them both ways
    for i, (n, T) in enumerate(normalized):
        ctx = CTXS[n]
        F = draw_function(rng, ctx, polys=False)
        out.append(("normalized/moyal/%d" % i,
                    lambda S=moyal_family(ctx), T=T, F=F: func_star_action(S, T, F)))
        out.append(("normalized/bullet/%d" % i,
                    lambda S=bullet_family(ctx), T=T, F=F: func_star_action(S, T, F, 2)))


def _eigen_cases(rng, out):
    ctx = CTXS[1]
    S = moyal_family(ctx)
    Q, P = GaussPoly.coordinate(ctx, "q"), GaussPoly.coordinate(ctx, "p")
    xis = (FormalFunction.of((Q * Q + P * P).scale(Fraction(1, 2))),
           FormalFunction.of(Q), FormalFunction.of(P), FormalFunction.of(Q * P),
           FormalFunction.of(GaussPoly.gaussian(ctx, 1)))
    for i in range(96):
        kind = i % 6
        if kind < 2:
            level = rng.randint(0, 4)
            T = wigner_state(ctx, level)
            xi = xis[0]
        elif kind == 2:
            T = FormalFunctional.density(ctx, GaussPoly.gaussian(ctx, rng.choice(WIDTHS)))
            xi = rng.choice(xis)
        elif kind == 3:
            T = FormalFunctional.delta(ctx, (_frac(rng, 2, 2), _frac(rng, 2, 2)))
            xi = rng.choice(xis[:4])
        elif kind == 4:
            T = _mixed(rng, ctx)
            xi = rng.choice(xis)
        else:
            T = draw_functional(rng, ctx, gaussian_only=True)
            xi = rng.choice(xis[:4])
        level = rng.randint(0, 4)
        a = rng.choice((FormalScalar.lam(1, Fraction(2 * level + 1, 2)), FormalScalar.zero(),
                        FormalScalar.from_const(_coeff(rng)), FormalScalar.lam(1, 1)))
        binding = FORMAL if rng.random() < 0.3 else LambdaBinding.strict(rng.choice(LAMBDAS))
        degree = rng.choice((1, 3))
        out.append(("eigencheck/%d" % i,
                    lambda xi=xi, a=a, T=T, d=degree, b=binding:
                    eigencheck_star(S, xi, a, T, d, binding=b)))


def cases():
    """Every (case id, thunk) of the corpus, in a fixed order."""
    out = []
    for build in (_action_cases, _star_cases, _positivity_cases, _normalize_cases,
                  _eigen_cases):
        build(random.Random("pairings" + build.__name__), out)
    return out


# ---- rendering ----

def _text(value):
    if isinstance(value, tuple):
        return " ; ".join(map(_text, value))
    if isinstance(value, FormalScalar):
        return "%s | %s" % (render_scalar(value),
                            json.dumps(scalar_to_json(value), sort_keys=True))
    return "%s | %s" % (value, json.dumps(value.to_json(), sort_keys=True))


def render(thunk):
    try:
        value = thunk()
    except Exception as exc:  # an error is an output too
        return "%s: %s" % (type(exc).__name__, exc)
    return _text(value)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests():
    return {cid: digest(render(thunk)) for cid, thunk in cases()}


def main(argv):
    got = digests()
    whole = digest(json.dumps(got, sort_keys=True))
    print("%d cases, corpus digest %s" % (len(got), whole))
    if "--write" in argv:
        with open(GOLDEN, "w") as fh:
            json.dump(got, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
