"""Star products: operator tables, exact products, traces, closedness, axioms."""

from fractions import Fraction

import pytest

from starforge import (
    DimensionMismatch,
    EC_I,
    EC_ONE,
    ExactComplex,
    FormalFunction,
    GaussPoly,
    GaussSum,
    NotIntegrable,
    PhaseContext,
    PiScalar,
    StarFamily,
    TruncationRequired,
    UNBOUNDED,
    axiom_suite,
    bullet_family,
    closedness_check,
    fs_bullet,
    gp_diff,
    gp_poisson,
    moyal_family,
    render_function,
    render_gausspoly,
    star_commutator,
    star_mul,
    star_trace,
)

from starforge import star_products as sp
from starforge.star_products import _poly_bound

from axioms import (BROKEN as _BROKEN, CORRUPTED, complex_family, cut_family as _cut_family,
                    decided, gap_terms as _gap_terms, imaginary_family, pair_sweep,
                    pair_tables_vanish, perturbed_family, poisson_terms, sweep, tensored,
                    unit_sweep)
from corpus import nonzero_poly, rand_function, rand_gaussian, rand_poly, real_b1_family

CTX = PhaseContext(1)
Q = GaussPoly.coordinate(CTX, "q")
P = GaussPoly.coordinate(CTX, "p")
GAUSS = GaussPoly.gaussian(CTX, 1)
MOYAL = moyal_family(CTX)
BULLET = bullet_family(CTX)

HALF_I = ExactComplex(0, Fraction(1, 2))


def fn(f, power=0):
    return FormalFunction.of(f, power)


# ---- operator tables ----

def test_b0_is_the_pointwise_product():
    assert MOYAL.B(0, Q, P) == GaussSum.of(Q * P)
    assert MOYAL.B(0, GAUSS, GAUSS) == GaussSum.of(GAUSS * GAUSS)


def test_b1_on_canonical_coordinates():
    assert MOYAL.B(1, Q, P) == GaussSum.of(GaussPoly.constant(CTX, HALF_I))
    assert MOYAL.B(1, P, Q) == GaussSum.of(GaussPoly.constant(CTX, -HALF_I))
    assert not MOYAL.B(1, Q, Q)


def test_b2_on_squares():
    got = MOYAL.B(2, Q * Q, P * P)
    assert got == GaussSum.of(GaussPoly.constant(CTX, Fraction(-1, 2)))


def test_negative_order_is_rejected_at_the_family():
    # both tables are empty at k = -1, so only the explicit check raises
    for fam in (MOYAL, BULLET):
        with pytest.raises(ValueError):
            fam.B(-1, Q, P)
        with pytest.raises(ValueError):
            fam.B_into({}, -1, Q, P)


def test_b1_matches_the_poisson_bracket(rng):
    # B_1(f,g) - B_1(g,f) = i {f,g} on a random polynomial corpus
    for _ in range(15):
        f = rand_poly(rng, CTX, degree=3)
        g = rand_poly(rng, CTX, degree=3)
        got = MOYAL.B(1, f, g) - MOYAL.B(1, g, f)
        assert got == GaussSum.of(gp_poisson(f, g).scale(EC_I))


def test_moyal_against_a_direct_derivative_expansion(rng):
    # independent table: B_k(f,g) = (1/k!) (i/2)^k sum_j (-1)^j C(k,j)
    #                    d_q^{k-j} d_p^j f * d_p^{k-j} d_q^j g
    from math import comb, factorial

    def direct(k, f, g):
        acc = GaussSum.zero(CTX)
        for j in range(k + 1):
            df = f
            for _ in range(k - j):
                df = df.diff("q")
            for _ in range(j):
                df = df.diff("p")
            dg = g
            for _ in range(k - j):
                dg = dg.diff("p")
            for _ in range(j):
                dg = dg.diff("q")
            c = HALF_I ** k * Fraction(comb(k, j) * (-1) ** j, factorial(k))
            acc = acc + GaussSum.of((df * dg).scale(c))
        return acc

    pairs = [(Q * Q, P * P), (Q * Q * P, Q * P * P), (GAUSS, Q * P)]
    for _ in range(5):
        pairs.append((rand_poly(rng, CTX, degree=3), rand_poly(rng, CTX, degree=3)))
    for f, g in pairs:
        for k in range(5):
            assert MOYAL.B(k, f, g) == direct(k, f, g)


# ---- termination ----

def test_termination_bounds():
    assert MOYAL.termination_bound(Q, P) == 1
    assert MOYAL.termination_bound(Q * Q * P, P) == 1  # the smaller degree rules
    assert MOYAL.termination_bound(Q * Q * P, GAUSS) == 3
    assert MOYAL.termination_bound(GAUSS, P * P) == 2
    assert MOYAL.termination_bound(GAUSS, GAUSS) is UNBOUNDED
    assert BULLET.termination_bound(GAUSS, GAUSS) == 0


def test_unbounded_product_requires_an_order():
    with pytest.raises(TruncationRequired):
        star_mul(MOYAL, fn(GAUSS), fn(GAUSS))


def test_order_below_the_lowest_power_is_a_scope_error():
    from starforge import ScopeError

    F = fn(GAUSS).shift(-2)
    with pytest.raises(ScopeError):
        star_mul(MOYAL, F, fn(GAUSS), order=-3)
    with pytest.raises(ScopeError):
        star_commutator(MOYAL, fn(GAUSS), fn(GAUSS), order=-1)
    # at the lowest power itself one coefficient is certified
    G = star_mul(MOYAL, F, fn(GAUSS), order=-2)
    assert (G.valuation, G.tail) == (-2, -2)
    assert G.coefficient(-2) == GaussSum.of(GAUSS * GAUSS)
    # a terminating product ignores the order, as before
    assert star_mul(MOYAL, fn(Q), fn(P), order=-5) == star_mul(MOYAL, fn(Q), fn(P))


def test_polynomial_products_are_exact():
    F = star_mul(MOYAL, fn(Q * Q), fn(P * P))
    assert F.tail is None


def test_quadratic_factor_terminates_against_a_gaussian():
    h = (Q * Q + P * P).scale(Fraction(1, 2))
    F = star_mul(MOYAL, fn(h), fn(GAUSS))
    assert F.tail is None
    assert F.end() <= 2


# ---- frozen products ----

def test_star_q_p():
    F = star_mul(MOYAL, fn(Q), fn(P))
    assert F.tail is None
    assert F.coefficient(0) == GaussSum.of(Q * P)
    assert F.coefficient(1) == GaussSum.of(GaussPoly.constant(CTX, HALF_I))
    assert render_function(F) == "q*p + 1/2*I*lam"


def test_star_squares():
    F = star_mul(MOYAL, fn(Q * Q), fn(P * P))
    assert render_function(F) == "q^2*p^2 + 2*I*q*p*lam - 1/2*lam^2"


def test_canonical_commutator():
    C = star_commutator(MOYAL, fn(Q), fn(P))
    assert C.valuation == 1
    assert C.coefficient(1) == GaussSum.of(GaussPoly.constant(CTX, EC_I))
    assert len(C.coeffs) == 1
    assert C.tail is None


def test_commutator_with_a_square():
    C = star_commutator(MOYAL, fn(Q * Q), fn(P))
    assert C == fn(Q.scale(ExactComplex(0, 2)), 1)


def test_bullet_commutators_vanish(rng):
    for _ in range(10):
        F = rand_function(rng, CTX)
        G = rand_function(rng, CTX)
        assert star_commutator(BULLET, F, G) == FormalFunction.zero(CTX)


def test_bullet_star_is_the_bullet_product(rng):
    for _ in range(10):
        F = rand_function(rng, CTX, alpha=rng.choice([0, 1]))
        G = rand_function(rng, CTX, alpha=rng.choice([0, 1]))
        assert star_mul(BULLET, F, G) == fs_bullet(F, G)


def test_star_unit():
    one = FormalFunction.one(CTX)
    F = FormalFunction(CTX, -1, (Q, GAUSS, Q * P))
    assert star_mul(MOYAL, one, F) == F
    assert star_mul(MOYAL, F, one) == F


def test_gaussian_square_matches_the_closed_form():
    # exp(-r^2) * exp(-r^2) = (1+lam^2)^-1 exp(-2 r^2/(1+lam^2)); through lam^2
    # that expands to exp(-2r^2) + (2r^2 - 1) exp(-2r^2) lam^2
    F = star_mul(MOYAL, fn(GAUSS), fn(GAUSS), order=2)
    assert F.tail == 2
    g2 = GaussPoly.gaussian(CTX, 2)
    assert F.coefficient(0) == GaussSum.of(g2)
    assert F.coefficient(1) == GaussSum.zero(CTX)
    want = (Q * Q + P * P + GaussPoly.constant(CTX, Fraction(-1, 2))).scale(2) * g2
    assert F.coefficient(2) == GaussSum.of(want)


def test_gaussian_square_against_sympy_series():
    import sympy

    q, p, u = sympy.symbols("q p u")
    r2 = q ** 2 + p ** 2
    closed = sympy.exp(-2 * r2 / (1 + u ** 2)) / (1 + u ** 2)
    series = sympy.series(closed, u, 0, 3).removeO().expand()
    F = star_mul(MOYAL, fn(GAUSS), fn(GAUSS), order=2)
    got = sympy.S.Zero
    for z in range(0, 3):
        c = F.coefficient(z)
        for part in c.parts:
            al = sympy.Rational(part.alpha)
            for exps, w in part.terms.items():
                wre = sympy.Rational(w.re)
                got += wre * q ** exps[0] * p ** exps[1] * sympy.exp(-al * r2) * u ** z
    assert sympy.simplify((series - got).expand()) == 0


# ---- structure of the deformation ----

def test_commutator_deviates_from_poisson_at_order_three(rng):
    for _ in range(10):
        f = nonzero_poly(rng, CTX, degree=3)
        g = nonzero_poly(rng, CTX, degree=3)
        C = star_commutator(MOYAL, fn(f), fn(g))
        D = C - fn(gp_poisson(f, g).scale(EC_I), 1)
        if D.coeffs:
            assert D.valuation >= 2


def test_hermiticity_of_the_product(rng):
    for _ in range(10):
        F = rand_function(rng, CTX)
        G = rand_function(rng, CTX)
        lhs = star_mul(MOYAL, F, G).conj()
        rhs = star_mul(MOYAL, G.conj(), F.conj())
        assert lhs == rhs


def test_truncated_associativity_on_gaussians():
    f, g, h = fn(GAUSS), fn(Q * GAUSS), fn(P * GAUSS)
    lhs = star_mul(MOYAL, star_mul(MOYAL, f, g, 2), h, 2)
    rhs = star_mul(MOYAL, f, star_mul(MOYAL, g, h, 2), 2)
    assert lhs.known_through() >= 2 and rhs.known_through() >= 2
    assert lhs == rhs


# ---- traces ----

def test_trace_of_the_unit_gaussian():
    s = star_trace(MOYAL, fn(GAUSS))
    assert s.valuation == -1
    assert s.coefficient(-1) == PiScalar.pi()


def test_trace_of_odd_profiles_vanishes():
    assert not star_trace(MOYAL, fn(Q * GAUSS))


def test_trace_symmetry_through_order_four(rng):
    for _ in range(10):
        f = fn(rand_gaussian(rng, CTX))
        g = fn(rand_gaussian(rng, CTX))
        left = star_trace(MOYAL, star_mul(MOYAL, f, g, 5))
        right = star_trace(MOYAL, star_mul(MOYAL, g, f, 5))
        assert left.known_through() >= 4
        assert left == right


# ---- closedness ----

def test_closedness_of_the_gaussian_pair():
    rep = closedness_check(MOYAL, GAUSS, GAUSS, 5)
    assert rep.closed
    assert all(not rep.values[k] for k in range(1, 6))
    assert rep.b0_integral == rep.pointwise_integral


def test_closedness_random_corpus(rng):
    for _ in range(20):
        f = rand_gaussian(rng, CTX)
        g = rand_poly(rng, CTX) if rng.random() < 0.4 else rand_gaussian(rng, CTX)
        rep = closedness_check(MOYAL, f, g, 5)
        assert rep.closed


def test_closedness_needs_a_gaussian_side():
    with pytest.raises(NotIntegrable):
        closedness_check(MOYAL, Q, P, 3)


@pytest.mark.parametrize("maxk", [0, -1])
def test_closedness_without_a_positive_order_is_a_scope_error(maxk):
    # closed means B_k integrates to 0 for every k >= 1; with none checked
    # the verdict would be vacuous
    from starforge import ScopeError

    with pytest.raises(ScopeError):
        closedness_check(MOYAL, GAUSS, GAUSS, maxk)


# ---- axiom suites ----

def test_moyal_axiom_suite():
    rep = axiom_suite(MOYAL, 3, 4)
    assert rep.passed
    for axiom in (1, 3, 4, 5, 6, 7, 9):
        assert rep.entries[axiom]["verdict"] == "pass"
    for axiom in (2, 8):
        assert rep.entries[axiom]["verdict"] == "by_construction"
    assert rep.entries[9]["measured_orders"]["4"] == [4, 4]
    payload = rep.to_json()
    assert payload["passed"] is True
    assert [e["axiom"] for e in payload["axioms"]] == list(range(1, 10))


def test_bullet_fails_only_the_commutator_axiom():
    rep = axiom_suite(BULLET, 2, 2)
    failed = [k for k, e in rep.entries.items() if e["verdict"] == "fail"]
    assert failed == [6]
    ce = rep.entries[6]["counterexample"]
    assert ce["inputs"] == ["q", "p"]
    assert ce["order"] == 1


def test_corrupted_family_is_caught():
    # doubling the first-order operator must break associativity or the bracket
    def bad_terms(k, ctx):
        terms = MOYAL.terms(k)
        if k == 1:
            return tuple((c * 2, dl, dr) for c, dl, dr in terms)
        return terms

    bad = StarFamily("bad", CTX, bad_terms)
    rep = axiom_suite(bad, 2, 2)
    failed = [k for k, e in rep.entries.items() if e["verdict"] == "fail"]
    assert 3 in failed or 6 in failed
    which = 3 if 3 in failed else 6
    inputs = rep.entries[which]["counterexample"]["inputs"]
    assert all(len(s.replace("*", "").replace("^", "")) <= 4 for s in inputs)


# ---- several coordinate pairs ----

def test_two_pair_commutators():
    ctx2 = PhaseContext(2)
    S2 = moyal_family(ctx2)
    q1 = fn(GaussPoly.coordinate(ctx2, "q1"))
    q2 = fn(GaussPoly.coordinate(ctx2, "q2"))
    p1 = fn(GaussPoly.coordinate(ctx2, "p1"))
    p2 = fn(GaussPoly.coordinate(ctx2, "p2"))
    iconst = fn(GaussPoly.constant(ctx2, EC_I), 1)
    assert star_commutator(S2, q1, p1) == iconst
    assert star_commutator(S2, q2, p2) == iconst
    assert star_commutator(S2, q1, p2) == FormalFunction.zero(ctx2)
    assert star_commutator(S2, q1, q2) == FormalFunction.zero(ctx2)


# ---- both product paths of B against naive references ----

def _naive_moyal_B(ctx, k, f, g):
    # B_k = (1/k!) (i/2)^k (sum_i dq_i(f) dp_i(g) - dp_i(f) dq_i(g))^k, expanded
    # by multinomial counts; every term takes fresh derivative chains
    from math import factorial
    from itertools import product

    n = ctx.n
    acc = GaussSum.zero(ctx)
    for counts in product(range(k + 1), repeat=2 * n):
        if sum(counts) != k:
            continue
        a, b = counts[:n], counts[n:]  # a: dq f * dp g, b: -dp f * dq g
        weight = factorial(k)
        for e in counts:
            weight //= factorial(e)
        c = HALF_I ** k * Fraction(weight * (-1) ** sum(b), factorial(k))
        df, dg = f, g
        for i in range(n):
            for _ in range(a[i]):
                df = df.diff(i)
                dg = dg.diff(n + i)
            for _ in range(b[i]):
                df = df.diff(n + i)
                dg = dg.diff(i)
        acc = acc + GaussSum.of((df * dg).scale(c))
    return acc


def _naive_table_B(fam, k, f, g):
    # sum c * (d^dl f)(d^dr g) over the family's operator table, every
    # derivative taken afresh and every product expanded in all 2n variables
    f = f if isinstance(f, GaussSum) else GaussSum.of(f)
    g = g if isinstance(g, GaussSum) else GaussSum.of(g)
    acc = GaussSum.zero(fam.ctx)
    for c, dl, dr in fam.terms(k):
        df, dg = f, g
        for i, (a, b) in enumerate(zip(dl, dr)):
            for _ in range(a):
                df = df.diff(i)
            for _ in range(b):
                dg = dg.diff(i)
        acc = acc + (df * dg).scale(c)
    return acc


def _corrupted_family(ctx):
    # Moyal with B_1 doubled and an unbalanced complex term added to B_2
    moyal = moyal_family(ctx)
    zeros = (0,) * (ctx.dim - 1)
    extra = (ExactComplex(1, 3), (2,) + zeros, zeros + (1,))

    def terms(k, ctx):
        t = moyal.terms(k)
        if k == 1:
            return tuple((c * 2, dl, dr) for c, dl, dr in t)
        return t + (extra,) if k == 2 else t

    return StarFamily("corrupted", ctx, terms)


def _factors(ctx):
    # Gaussian-times-polynomial factors, polynomials and one sum of a
    # Gaussian part and a polynomial part
    names = ctx.names
    x = [GaussPoly.coordinate(ctx, v) for v in names]
    g_half = GaussPoly.gaussian(ctx, Fraction(1, 2))
    g_one = GaussPoly.gaussian(ctx, 1)
    return [
        (x[0] + x[-1].scale(EC_I) * x[-1]) * g_half,
        (x[-1] * x[0] - GaussPoly.constant(ctx, 2)) * g_one,
        GaussPoly.gaussian(ctx, Fraction(3, 2)),
        x[0] * x[0] * x[-1] + x[-1].scale(Fraction(-1, 3)),
        GaussSum(ctx, [x[0] * g_one, x[-1] * x[-1]]),
    ]


@pytest.mark.parametrize("n,kmax", [(1, 6), (2, 6)])
def test_B_matches_a_naive_multinomial_expansion(n, kmax):
    ctx = PhaseContext(n)
    fs = _factors(ctx)
    parts = lambda x: x.parts if isinstance(x, GaussSum) else (x,)

    def multinomial(k, f, g):
        want = GaussSum.zero(ctx)
        for fp in parts(f):
            for gp in parts(g):
                want = want + _naive_moyal_B(ctx, k, fp, gp)
        return want

    bullet, corrupted = bullet_family(ctx), _corrupted_family(ctx)
    references = [(moyal_family(ctx), multinomial),
                  (bullet, lambda k, f, g: _naive_table_B(bullet, k, f, g)),
                  (corrupted, lambda k, f, g: _naive_table_B(corrupted, k, f, g))]
    # fs[4] mixes a polynomial part and a Gaussian part: its pairs with the
    # polynomial fs[3], with itself and with Gaussians cross the boundary
    # between the tower path and the per-coordinate path
    pairs = [(fs[0], fs[1]), (fs[1], fs[2]), (fs[3], fs[0]), (fs[4], fs[1]),
             (fs[4], fs[3]), (fs[3], fs[4]), (fs[4], fs[4])]
    for fam, naive in references:
        for f, g in pairs:
            for k in range(kmax + 1):
                assert fam.B(k, f, g) == naive(k, f, g), (fam.name, n, k)


@pytest.mark.parametrize("n,order", [(1, 6), (2, 3)])
def test_star_mul_matches_the_naive_graded_sum(n, order):
    ctx = PhaseContext(n)
    fam = moyal_family(ctx)
    fs = _factors(ctx)
    F = FormalFunction(ctx, -1, (fs[0], fs[3], fs[4]))
    G = FormalFunction(ctx, 0, (fs[1], fs[2]))
    want = FormalFunction(ctx, 0, (), order)
    for l, a in enumerate(F.coeffs):
        for j, b in enumerate(G.coeffs):
            base = F.valuation + l + G.valuation + j
            for m in range(order - base + 1):
                piece = GaussSum.zero(ctx)
                for ap in a.parts:
                    for bp in b.parts:
                        piece = piece + _naive_moyal_B(ctx, m, ap, bp)
                want = want + FormalFunction.of(piece, base + m)
    got = star_mul(fam, F, G, order)
    assert got.tail == order
    assert got == want


def _gauss_gauss_closed_form(a, b, n, order):
    # (1 + ab lam^2)^(-n) exp(-(a+b) r^2 / (1 + ab lam^2)) through lam^order,
    # as {lam power: {exponent tuple: Fraction}} times exp(-(a+b) r^2); plain
    # Fraction arithmetic, nothing from the engine
    from math import comb, factorial

    top = order // 2
    ab = a * b
    # w = 1 - 1/(1+u) = u - u^2 + ...,  u = ab lam^2, as a series in u
    w = [Fraction(0)] + [Fraction((-1) ** (j + 1)) for j in range(1, top + 1)]

    def mul(x, y):
        out = [Fraction(0)] * (top + 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if i + j <= top:
                    out[i + j] += xi * yj
        return out

    pref = [Fraction((-1) ** j * comb(n + j - 1, j)) for j in range(top + 1)]
    # exp(X w) = sum_t X^t w^t / t!,  X = (a+b) r^2; coefficients indexed [u][t]
    series = [[Fraction(0)] * (top + 1) for _ in range(top + 1)]
    wt = [Fraction(1)] + [Fraction(0)] * top
    for t in range(top + 1):
        term = mul(pref, wt)
        for j in range(top + 1):
            series[j][t] += term[j] * (a + b) ** t / factorial(t)
        wt = mul(wt, w)
    dim = 2 * n
    out = {}
    for j in range(top + 1):
        poly = {}
        for t, c in enumerate(series[j]):
            if not c:
                continue
            # r^(2t) = (sum x_i^2)^t by multinomials
            for split in _compositions(t, dim):
                m = factorial(t)
                for e in split:
                    m //= factorial(e)
                key = tuple(2 * e for e in split)
                poly[key] = poly.get(key, 0) + c * m * ab ** j
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            out[2 * j] = poly
    return out


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


@pytest.mark.parametrize("n,order,a,b", [(1, 10, Fraction(1, 2), Fraction(3, 2)),
                                         (1, 10, Fraction(2), Fraction(1)),
                                         (2, 6, Fraction(1), Fraction(1, 2)),
                                         (1, 24, Fraction(1), Fraction(1)),
                                         (1, 24, Fraction(2, 3), Fraction(5, 2)),
                                         (2, 10, Fraction(1), Fraction(1)),
                                         (2, 10, Fraction(3, 2), Fraction(1, 3))])
def test_gaussian_pair_matches_the_closed_form(n, order, a, b):
    ctx = PhaseContext(n)
    F = star_mul(moyal_family(ctx), fn(GaussPoly.gaussian(ctx, a)),
                 fn(GaussPoly.gaussian(ctx, b)), order)
    assert F.tail == order
    want = _gauss_gauss_closed_form(a, b, n, order)
    for z in range(order + 1):
        c = F.coefficient(z)
        if z not in want:
            assert not c, z
            continue
        (part,) = c.parts
        assert part.alpha == a + b
        assert {e: v.re for e, v in part.terms.items()} == want[z]
        assert all(v.im == 0 for v in part.terms.values())


def _count_gp_diff(monkeypatch):
    import starforge.star_products as sp

    calls = []
    real = sp.gp_diff
    monkeypatch.setattr(sp, "gp_diff", lambda f, var: calls.append(var) or real(f, var))
    return calls


def test_star_mul_takes_each_derivative_once(monkeypatch):
    # one derivative memo per polynomial part: d^beta of each side's
    # polynomial is built once for every |beta| <= K, however many orders and
    # terms reuse it; the Gaussian parts go through the 1-D tables instead
    calls = _count_gp_diff(monkeypatch)
    K = 8
    poly = GaussPoly.monomial(CTX, (K, K))
    f = GaussSum.of(poly) + GaussSum.of(GAUSS)
    g = GaussSum.of(GaussPoly.monomial(CTX, (K, K))) + GaussSum.of(GaussPoly.gaussian(CTX, 2))
    star_mul(MOYAL, fn(f), fn(g), K)
    assert len(calls) == 2 * ((K + 1) * (K + 2) // 2 - 1)


def test_star_mul_shares_the_memo_of_a_part_on_both_sides(monkeypatch):
    # the memos of one product are keyed by part object, so a polynomial
    # that is a part of both factors is differentiated once, not twice
    calls = _count_gp_diff(monkeypatch)
    K = 8
    poly = GaussPoly.monomial(CTX, (K, K))
    f = GaussSum.of(poly) + GaussSum.of(GAUSS)
    g = GaussSum.of(poly) + GaussSum.of(GaussPoly.gaussian(CTX, 2))
    assert f.parts[0] is poly and g.parts[0] is poly
    star_mul(MOYAL, fn(f), fn(g), K)
    assert len(calls) == (K + 1) * (K + 2) // 2 - 1


def test_star_mul_builds_each_one_dimensional_factor_once(monkeypatch):
    # one set of 1-D tables per product.  gauss(1) * gauss(2) at n = 1 to
    # order K needs Q_j(x^0) for j <= K at each width (K + 1 rows each, the
    # first given, so 2K built) and one row product per pair (j1, j2) with
    # j1 + j2 <= K, which both coordinates share; no 2-variable derivative
    # is ever expanded
    import starforge.star_products as sp

    steps, products = [], []
    real_step, real_mul = sp._q_next, sp._row_mul
    monkeypatch.setattr(sp, "_q_next",
                        lambda row, u, v: steps.append((u, v)) or real_step(row, u, v))
    monkeypatch.setattr(sp, "_row_mul",
                        lambda x, y: products.append((x, y)) or real_mul(x, y))
    monkeypatch.setattr(sp, "gp_diff", None)
    K = 8
    star_mul(MOYAL, fn(GAUSS), fn(GaussPoly.gaussian(CTX, 2)), K)
    assert sorted(steps) == [(1, 1)] * K + [(2, 1)] * K
    assert len(products) == (K + 1) * (K + 2) // 2


def test_corrupted_second_order_operator_pins_the_associativity_counterexample():
    def bad_terms(k, ctx):
        terms = MOYAL.terms(k)
        if k == 2:
            return tuple((c * 2, dl, dr) for c, dl, dr in terms)
        return terms

    rep = axiom_suite(StarFamily("bad", CTX, bad_terms), 2, 3)
    failed = [k for k, e in rep.entries.items() if e["verdict"] == "fail"]
    assert failed == [3]
    assert rep.entries[3]["counterexample"] == {
        "inputs": ["q", "q", "p^2"], "order": 2, "difference": "-1/2"}


def test_a_gap_in_the_operator_table_is_still_checked():
    # the suite skips the empty B_1, yet still finds that the doubled B_2
    # breaks associativity, with the counterexample of the full loops
    rep = axiom_suite(StarFamily("gap", CTX, _gap_terms), 2, 3)
    failed = [k for k, e in rep.entries.items() if e["verdict"] == "fail"]
    assert sorted(failed) == [3, 6]
    assert rep.entries[3]["counterexample"] == {
        "inputs": ["q", "q", "p^2"], "order": 2, "difference": "-1"}
    assert rep.entries[6]["counterexample"] == {
        "inputs": ["q", "p"], "order": 1, "difference": "-I"}


@pytest.mark.parametrize("name, degree, order", [("bullet", 3, 4), ("gap", 2, 3)])
def test_the_axiom_suite_calls_B_only_where_it_can_add_something(monkeypatch, name,
                                                                   degree, order):
    # no B_into call with an empty operator table or a zero operand: those
    # calls add nothing to any sum the suite compares
    calls = []
    real = StarFamily.B_into

    def counted(self, out, k, f, g, tables=None):
        calls.append((k, bool(self.terms(k)), bool(f) and bool(g)))
        return real(self, out, k, f, g, tables)

    monkeypatch.setattr(StarFamily, "B_into", counted)
    S = bullet_family(PhaseContext(1)) if name == "bullet" else StarFamily("gap", CTX, _gap_terms)
    axiom_suite(S, degree, order)
    assert calls
    assert [c for c in calls if not (c[1] and c[2])] == []


# ---- B_into: accumulation into a caller-owned term dict ----

def _mixed_operands():
    # polynomial parts plus Gaussian parts of widths 1/2 and 1
    f = GaussSum(CTX, [Q * GaussPoly.gaussian(CTX, Fraction(1, 2)),
                       P * P + Q.scale(Fraction(1, 3))])
    g = GaussSum(CTX, [(P + Q.scale(EC_I)) * GAUSS, Q * P])
    return f, g


def test_B_into_accumulates_the_sum_of_B():
    f, g = _mixed_operands()
    out, want = {}, GaussSum.zero(CTX)
    for k in range(4):
        for a, b in ((f, g), (g, f), (f, f)):
            MOYAL.B_into(out, k, a, b)
            want = want + MOYAL.B(k, a, b)
    # the polynomial part is keyed by the int 0, every Gaussian by its width
    assert sorted(out) == [0, Fraction(1, 2), 1, Fraction(3, 2)]
    assert [w for w in out if type(w) is int] == [0]
    got = GaussSum(CTX, [GaussPoly(CTX, terms, w) for w, terms in out.items()])
    assert got == want
    assert len(want.parts) == 4


def test_B_into_cancels_to_zero_slots_that_the_wrapper_drops():
    from starforge.star_products import _sum_of

    f, g = _mixed_operands()
    out = {}
    MOYAL.B_into(out, 2, f, g)
    MOYAL.B_into(out, 2, -f, g)
    assert out and all(not c for terms in out.values() for c in terms.values())
    assert _sum_of(CTX, out).parts == ()


def test_B_is_the_same_for_a_part_and_its_sum():
    # a GaussPoly operand and its GaussSum.of give the same B and B_into,
    # with a fresh CoordinateTables per call or one shared by all of them
    from starforge.star_products import CoordinateTables, _sum_of

    f, g = _mixed_operands()
    polys = [P * P + Q.scale(Fraction(1, 3)), (P + Q.scale(EC_I)) * GAUSS, Q * P]
    shared = CoordinateTables()
    for k in range(4):
        for a in polys:
            for b in (f, g) + tuple(polys):
                want, want_swapped = MOYAL.B(k, a, b), MOYAL.B(k, b, a)
                for tables in (None, shared):
                    assert MOYAL.B(k, GaussSum.of(a), b, tables) == want
                    assert MOYAL.B(k, b, GaussSum.of(a), tables) == want_swapped
                    got, sums = {}, {}
                    MOYAL.B_into(got, k, a, b, tables)
                    MOYAL.B_into(sums, k, GaussSum.of(a), b, tables)
                    assert got == sums
                    assert _sum_of(CTX, got) == want


def test_B_takes_only_gauss_polys_and_sums():
    with pytest.raises(TypeError):
        MOYAL.B(1, fn(Q), P)
    with pytest.raises(TypeError):
        MOYAL.B_into({}, 0, Q, ExactComplex(1))
    # the operands are checked before an empty operator table returns
    with pytest.raises(TypeError):
        bullet_family(PhaseContext(1)).B(1, "junk", None)
    with pytest.raises(TypeError):
        BULLET.B_into({}, 1, Q, "junk")


def test_a_family_refuses_operands_on_another_phase_space():
    # an n = 1 table on n = 2 operands once raised a bare IndexError, and on
    # n = 2 Gaussians printed a wrong product in n = 1 names
    ctx2 = PhaseContext(2)
    q1, p1 = FormalFunction.coordinate(ctx2, "q1"), FormalFunction.coordinate(ctx2, "p1")
    g2 = FormalFunction.of(GaussPoly.gaussian(ctx2, 1))
    for F, G in ((q1, p1), (g2, g2), (fn(Q), p1), (q1, fn(P))):
        with pytest.raises(DimensionMismatch):
            star_mul(MOYAL, F, G, 2)
        with pytest.raises(DimensionMismatch):
            star_commutator(BULLET, F, G, 2)
    with pytest.raises(DimensionMismatch):
        MOYAL.B(1, GaussPoly.gaussian(ctx2, 1), GaussPoly.gaussian(ctx2, 1))
    with pytest.raises(DimensionMismatch):
        MOYAL.B(0, Q, GaussSum.of(GaussPoly.coordinate(ctx2, "p2")))
    # the trace of an n = 1 Gaussian under an n = 2 family was pi*lam^-2
    with pytest.raises(DimensionMismatch):
        star_trace(moyal_family(ctx2), fn(GAUSS))
    # each entry still takes its own phase space
    assert render_function(star_mul(moyal_family(ctx2), q1, p1)) == "q1*p1 + 1/2*I*lam"
    assert str(star_trace(MOYAL, fn(GAUSS))) == "pi*lam^-1"


def test_B_into_leaves_the_dict_alone_on_an_empty_operator_table():
    f, g = _mixed_operands()
    out = {0: {(1, 0): ExactComplex(3)}}
    BULLET.B_into(out, 1, f, g)
    StarFamily("empty", CTX, lambda k, ctx: ()).B_into(out, 0, f, g)
    assert out == {0: {(1, 0): ExactComplex(3)}}


# ---- every reported counterexample is a real one ----

def _input(s):
    from starforge.cli_frontend import lower_expression, parse_expression

    F = lower_expression(parse_expression(s), CTX)
    assert F.valuation == 0 and len(F.coeffs) == 1 and len(F.coeffs[0].parts) == 1
    return F.coeffs[0].parts[0]


def _difference(S, axiom, xs, k):
    # the axiom's defect on these inputs, from B and GaussSum alone
    B, zero = S.B, GaussSum.zero(CTX)
    if axiom == 3:
        f, g, h = xs
        lhs = rhs = zero
        for l in range(k + 1):
            lhs = lhs + B(l, B(k - l, f, g), h)
            rhs = rhs + B(l, f, B(k - l, g, h))
        return lhs - rhs
    if axiom == 4:
        f, g = xs
        return B(0, f, g) - GaussSum.of(f * g)
    if axiom == 5:
        (f,) = xs
        want = GaussSum.of(f) if k == 0 else zero
        one = GaussPoly.constant(CTX, 1)
        left, right = B(k, one, f) - want, B(k, f, one) - want
        return left if left else right
    if axiom == 6:
        f, g = xs
        return B(1, f, g) - B(1, g, f) - GaussSum.of(gp_poisson(f, g).scale(EC_I))
    assert axiom == 7
    f, g = xs
    return B(k, f, g).conj() - B(k, g.conj(), f.conj())


@pytest.mark.parametrize("name", sorted(_BROKEN) + ["bullet"])
def test_every_counterexample_is_a_real_one(name):
    if name == "bullet":
        S, failing = BULLET, [6]
    else:
        terms, failing = _BROKEN[name]
        S = StarFamily(name, CTX, terms)
    rep = axiom_suite(S, 2, 2)
    assert sorted(k for k, e in rep.entries.items() if e["verdict"] == "fail") == failing
    for axiom in failing:
        ce = rep.entries[axiom]["counterexample"]
        k = ce["order"]
        if axiom == 9:
            left = max(sum(dl) for _, dl, _ in S.terms(k))
            assert left > k and ce["difference"].startswith("left order %d" % left)
            continue
        diff = _difference(S, axiom, [_input(s) for s in ce["inputs"]], k)
        assert diff, (name, axiom)
        assert str(diff) == ce["difference"], (name, axiom)


# ---- associativity decided on the operator tables ----

def _brute_associativity(S, degree, order):
    # axiom 3 from its definition: the first triple of monomials, order by
    # order, whose associator is not zero, as the suite reports it, with
    # every B taken through the n-pair table (inner products memoised)
    from starforge.star_products import _monomial_generators

    gens = _monomial_generators(S.ctx, degree)
    inner = {}

    def B(m, i, j):
        if (m, i, j) not in inner:
            inner[(m, i, j)] = S.B(m, gens[i], gens[j])
        return inner[(m, i, j)]

    zero = GaussSum.zero(S.ctx)
    for k in range(order + 1):
        for fi, f in enumerate(gens):
            for gi, g in enumerate(gens):
                for hi, h in enumerate(gens):
                    lhs = rhs = zero
                    for l in range(k + 1):
                        lhs = lhs + S.B(l, B(k - l, fi, gi), h)
                        rhs = rhs + S.B(l, f, B(k - l, gi, hi))
                    if lhs != rhs:
                        return {"inputs": [render_gausspoly(x) for x in (f, g, h)],
                                "order": k, "difference": str(lhs - rhs)}
    return None


_TENSORED = dict({name: terms for name, (terms, _) in _BROKEN.items()}, corrupted=CORRUPTED)


def _family_at(name, n):
    ctx = PhaseContext(n)
    if name == "moyal":
        return moyal_family(ctx)
    if name == "bullet":
        return bullet_family(ctx)
    return tensored(name, _TENSORED[name], n)


@pytest.mark.parametrize("n, degree, order", [(2, 2, 2), (3, 1, 3)])
@pytest.mark.parametrize("name", ["moyal", "bullet"] + sorted(_TENSORED))
def test_the_reduced_associativity_check_equals_the_brute_force_one(name, n, degree, order):
    S = _family_at(name, n)
    entry = axiom_suite(S, degree, order).entries[3]
    want = _brute_associativity(S, degree, order)
    assert entry["verdict"] == ("pass" if want is None else "fail")
    assert entry["counterexample"] == want


def _count_B_into(monkeypatch):
    # (family, k, f, g) of every B_into call
    calls = []
    real = StarFamily.B_into

    def counted(self, out, k, f, g, tables=None):
        calls.append((self, k, f, g))
        return real(self, out, k, f, g, tables)

    monkeypatch.setattr(StarFamily, "B_into", counted)
    return calls


def _witness_calls(calls):
    # the B_into calls with a GaussSum operand: axiom 3's witness takes
    # B_l(B_(k-l)(f, g), h) and B_l(f, B_(k-l)(g, h)), at most 2(k + 1)
    return [c for c in calls if GaussSum in (type(c[2]), type(c[3]))]


@pytest.mark.parametrize("name, n, degree, order", [
    ("moyal", 1, 3, 4), ("moyal", 2, 2, 3), ("moyal", 3, 1, 3),
    ("bullet", 1, 3, 4), ("bullet", 2, 2, 2)])
def test_an_associative_family_hands_B_no_product(monkeypatch, name, n, degree, order):
    S = _family_at(name, n)
    calls = _count_B_into(monkeypatch)
    assert axiom_suite(S, degree, order).entries[3]["verdict"] == "pass"
    # only a failing axiom 3's witness hands B a GaussSum (an inner product)
    assert calls and all(c[0] is S for c in calls)
    assert _witness_calls(calls) == []


@pytest.mark.parametrize("n", [1, 2])
def test_a_corrupted_tensor_power_fails_on_the_tables_and_reports_the_least_key(
        monkeypatch, n):
    S = tensored("corrupted", CORRUPTED, n)
    assert not decided(S, 2, 3)
    calls = _count_B_into(monkeypatch)
    entry = axiom_suite(S, 2, 3).entries[3]
    assert all(c[0] is S for c in calls)
    assert entry["verdict"] == "fail"
    assert 0 < len(_witness_calls(calls)) <= 2 * (entry["counterexample"]["order"] + 1)
    assert entry["counterexample"] == _brute_associativity(S, 2, 3)


def test_a_fail_costs_what_a_pass_costs(monkeypatch):
    # the corrupted square fails axioms 3 and 7 at order 2; past Moyal's own
    # calls it makes only its two witnesses' few B calls
    calls = _count_B_into(monkeypatch)
    moyal = axiom_suite(moyal_family(PhaseContext(2)), 2, 3)
    passed = len(calls)
    corrupted = axiom_suite(tensored("corrupted", CORRUPTED, 2), 2, 3)
    assert moyal.passed
    assert [(k, e["counterexample"]["order"]) for k, e in sorted(corrupted.entries.items())
            if e["verdict"] == "fail"] == [(3, 2), (7, 2)]
    assert len(calls) - passed <= passed + 100


def _with_cross_terms(k, terms):
    # Moyal at n = 2 with terms added to B_k that touch both pairs
    moyal = moyal_family(PhaseContext(2))
    return StarFamily("cross", moyal.ctx,
                      lambda m, _: moyal.terms(m) + (terms if m == k else ()))


_FIFTH = ExactComplex(Fraction(1, 5))


@pytest.mark.parametrize("k, terms, degree, order, verdict", [
    # B_0 gains f_q1 g_q2 / 3: not associative at order 0
    (0, ((ExactComplex(Fraction(1, 3)), (1, 0, 0, 0), (0, 1, 0, 0)),), 2, 2, "fail"),
    # B_3 gains (f_q1q1q1 g_q2q2 + f_q2q2 g_q1q1q1) / 5: associative up to degree 1 only
    (3, ((_FIFTH, (3, 0, 0, 0), (0, 2, 0, 0)), (_FIFTH, (0, 2, 0, 0), (3, 0, 0, 0))),
     1, 3, "pass"),
], ids=["cross_B0", "cross_B3"])
def test_a_table_that_does_not_factor_is_decided_on_the_tables_too(monkeypatch, k, terms,
                                                                    degree, order, verdict):
    S = _with_cross_terms(k, terms)
    assert S._factors(k) is None
    # neither is associative once the degree cut is lifted
    assert not decided(S, 6, order)
    calls = _count_B_into(monkeypatch)
    entry = axiom_suite(S, degree, order).entries[3]
    assert all(c[0] is S for c in calls)
    # only a fail's witness hands B a GaussSum, with a few calls
    assert bool(_witness_calls(calls)) == (verdict == "fail")
    assert len(_witness_calls(calls)) <= 2 * (order + 1)
    assert entry["verdict"] == verdict
    assert entry["counterexample"] == _brute_associativity(S, degree, order)


def test_the_table_decision_equals_the_loop_on_seeded_families():
    # Moyal's table cut, rescaled or given random terms at one order; the
    # passes include tables that are associative only under the degree cut
    counts = sweep(150)
    assert counts["agree"] == 150 and counts["disagree"] == 0
    assert counts["pass"] and counts["fail"] and counts["cut_only"]


def _applied(table, *fs):
    # sum c d^a f d^b g (d^c h) of a two- or three-slot table, through gp_diff
    def d(x, exps):
        for i, e in enumerate(exps):
            for _ in range(e):
                x = gp_diff(x, i)
        return x

    out = GaussSum.zero(fs[0].ctx)
    for key, coeff in table.items():
        term = GaussPoly.constant(fs[0].ctx, 1)
        for x, exps in zip(fs, key):
            term = term * d(x, exps)
        out = out + GaussSum.of(term.scale(coeff))
    return out


@pytest.mark.parametrize("S, degree, order, nonzero", [
    (perturbed_family(CTX), 2, 3, [3]),
    (perturbed_family(PhaseContext(2)), 1, 3, []),
    (tensored("corrupted", CORRUPTED, 1), 2, 3, [2, 3]),
    (tensored("skewed_B0", _BROKEN["skewed_B0"][0], 2), 1, 2, [0, 1]),
    (MOYAL, 2, 3, []),
], ids=["perturbed-n1", "perturbed-n2", "corrupted-n1", "skewed_B0-n2", "moyal-n1"])
def test_the_cut_tables_applied_to_generator_triples_are_the_B_associators(S, degree, order,
                                                                          nonzero):
    gens = sp._monomial_generators(S.ctx, degree)
    for k in range(order + 1):
        table = sp._associator_table(S, k, degree)
        assert bool(table) == (k in nonzero)
        for f in gens:
            for g in gens:
                for h in gens:
                    want = GaussSum.zero(S.ctx)
                    for l in range(k + 1):
                        want = (want + S.B(l, S.B(k - l, f, g), h)
                                - S.B(l, f, S.B(k - l, g, h)))
                    assert _applied(table, f, g, h) == want, (k, f, g, h)


# ---- the pointwise product and the identity decided on the operator tables ----

def test_the_unit_decisions_equal_the_loops_on_seeded_families():
    # Moyal's table given random complex terms, each at B_0 or higher (so two
    # can sit at two orders), half with a zero slot; the passes include
    # tables that vanish only under the cut
    counts = unit_sweep(100)
    for axiom in (4, 5):
        c = counts[axiom]
        assert c["agree"] == 100 and c["disagree"] == 0, axiom
        assert c["pass"] and c["fail"] and c["cut_only"], axiom


# ---- hermiticity and the bracket decided on the operator tables ----

def test_the_pair_decisions_equal_the_loops_on_seeded_families():
    # Moyal's table given random complex terms, half with their hermitian
    # partners; the passes include tables that vanish only under the degree cut
    counts = pair_sweep(100)
    for axiom in (6, 7):
        c = counts[axiom]
        assert c["agree"] == 100 and c["disagree"] == 0, axiom
        assert c["pass"] and c["fail"] and c["cut_only"], axiom


@pytest.mark.parametrize("S, degree, order, fails", [
    (MOYAL, 2, 3, []),
    (moyal_family(PhaseContext(2)), 1, 2, []),
    (StarFamily("skewed_B0", CTX, _BROKEN["skewed_B0"][0]), 2, 2, [7]),
    (tensored("real_B1", _BROKEN["real_B1"][0], 2), 1, 2, [6, 7]),
    (BULLET, 2, 2, [6]),
    (imaginary_family(CTX), 1, 2, []),
    (imaginary_family(CTX), 2, 2, [7]),
    (complex_family(), 1, 2, [7]),
], ids=["moyal-n1", "moyal-n2", "skewed_B0-n1", "real_B1-n2", "bullet-n1", "imaginary-d1",
        "imaginary-d2", "complex-n2"])
def test_the_cut_pair_tables_applied_to_generator_pairs_are_the_defects(S, degree, order,
                                                                       fails):
    gens = sp._monomial_generators(S.ctx, degree)
    assert pair_tables_vanish(S, degree, order) == (6 not in fails, 7 not in fails)
    # axiom 6 on the real generators
    table = sp._swap_table(S.terms(1), False, poisson_terms(S.ctx), degree)
    for f in gens:
        for g in gens:
            want = S.B(1, f, g) - S.B(1, g, f) - GaussSum.of(gp_poisson(f, g).scale(EC_I))
            assert _applied(table, f, g) == want, (f, g)
    # axiom 7 on the real generators and the mixed f + i g of the loop
    # oracle, where the table acts on the conjugates; a failing family fails
    # on a mixed pair too
    mixed = [f + g.scale(EC_I) for f, g in zip(gens, gens[1:])]
    on_mixed = False
    for k in range(order + 1):
        table = sp._swap_table(S.terms(k), True, [], degree)
        for f in gens + mixed:
            for g in gens + mixed:
                want = S.B(k, f, g).conj() - S.B(k, g.conj(), f.conj())
                assert _applied(table, f.conj(), g.conj()) == want, (k, f, g)
                on_mixed = on_mixed or bool(want) and (f in mixed or g in mixed)
    assert on_mixed == (7 in fails)


def _mixed_generators(monkeypatch):
    # render_gausspoly of the loop oracle's mixed generators f + i g and
    # their conjugates, filled in when the suite builds its generators
    out = set()
    real = sp._monomial_generators

    def kept(ctx, degree):
        gens = real(ctx, degree)
        for f, g in zip(gens, gens[1:]):
            out.update(render_gausspoly(x) for x in (f + g.scale(EC_I), f - g.scale(EC_I)))
        return gens

    monkeypatch.setattr(sp, "_monomial_generators", kept)
    return out


@pytest.mark.parametrize("S, hermitian", [
    (MOYAL, True), (moyal_family(PhaseContext(2)), True), (BULLET, True),
    (imaginary_family(CTX), True), (real_b1_family(CTX), False)],
    ids=["moyal-n1", "moyal-n2", "bullet-n1", "imaginary-d1", "real_B1-n1"])
def test_no_family_hands_B_a_mixed_generator(monkeypatch, S, hermitian):
    # axiom 7 holds for f + i g when it holds for real pairs, and its
    # counterexample is a real pair, so no mixed generator reaches B
    mixed = _mixed_generators(monkeypatch)
    calls = _count_B_into(monkeypatch)
    entry = axiom_suite(S, 1, 2).entries[7]
    assert entry["verdict"] == ("pass" if hermitian else "fail")
    on_mixed = [c for c in calls if any(type(x) is GaussPoly and render_gausspoly(x) in mixed
                                        for x in c[2:])]
    assert calls and on_mixed == []


@pytest.mark.parametrize("S, bracket", [
    (MOYAL, True), (moyal_family(PhaseContext(2)), True), (moyal_family(PhaseContext(3)), True),
    (BULLET, False), (real_b1_family(CTX), False)],
    ids=["moyal-n1", "moyal-n2", "moyal-n3", "bullet-n1", "real_B1-n1"])
def test_a_family_with_the_bracket_takes_no_poisson_bracket(monkeypatch, S, bracket):
    # only a failing axiom 6's witness takes gp_poisson, once
    calls = []
    real = sp.gp_poisson
    monkeypatch.setattr(sp, "gp_poisson", lambda f, g: calls.append((f, g)) or real(f, g))
    entry = axiom_suite(S, 2, 2).entries[6]
    assert entry["verdict"] == ("pass" if bracket else "fail")
    assert len(calls) == (0 if bracket else 1)


# ============================================================
# Multi-index enumeration: lexicographic order, no recursion per slot
# ============================================================

@pytest.mark.parametrize("total,slots", [(t, s) for t in range(6) for s in range(1, 6)])
def test_multi_indices_are_the_sorted_compositions(total, slots):
    from itertools import product

    from starforge.star_products import _multi_indices

    want = sorted(x for x in product(range(total + 1), repeat=slots) if sum(x) == total)
    assert list(_multi_indices(total, slots)) == want


def test_multi_indices_take_any_number_of_slots():
    from starforge.star_products import _multi_indices

    assert list(_multi_indices(0, 5000)) == [(0,) * 5000]
    ones = list(_multi_indices(1, 1500))
    assert ones == [(0,) * i + (1,) + (0,) * (1499 - i) for i in range(1499, -1, -1)]


def test_a_product_in_many_pairs_needs_no_deep_recursion():
    # the Moyal tables enumerate multi-indices over n slots for n pairs
    ctx = PhaseContext(1000)
    q1 = FormalFunction.of(GaussPoly.coordinate(ctx, "q1"))
    p1 = FormalFunction.of(GaussPoly.coordinate(ctx, "p1"))
    assert render_function(star_mul(moyal_family(ctx), q1, p1)) == "q1*p1 + 1/2*I*lam"


# ============================================================
# Commutators from the odd operator orders
# ============================================================

def _merged(table):
    # an operator table as {(dl, dr): summed coefficient}, zero sums dropped
    out = {}
    for c, dl, dr in table:
        out[(dl, dr)] = out.get((dl, dr), ExactComplex(0)) + c
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 2])
def test_moyal_and_bullet_operators_have_the_parity_of_their_order(n):
    # B_k(g, f) = (-1)^k B_k(f, g): terms(k) with dl and dr swapped and each
    # coefficient times (-1)^k is the same table
    ctx = PhaseContext(n)
    for fam in (moyal_family(ctx), bullet_family(ctx)):
        for k in range(9):
            table = fam.terms(k)
            swapped = [(-c if k % 2 else c, dr, dl) for c, dl, dr in table]
            assert _merged(swapped) == _merged(table), (fam.name, n, k)
            assert _merged(table) or fam.name == "bullet"


def _two_products(S, F, G, order=None):
    # the commutator by its definition
    return star_mul(S, F, G, order) - star_mul(S, G, F, order)


def _same_series(got, want):
    assert (got.valuation, got.tail) == (want.valuation, want.tail)
    assert got.coeffs == want.coeffs
    assert render_function(got) == render_function(want)


def _graded_operand(rng, ctx):
    # a few consecutive lam-powers from a random (possibly negative, possibly
    # odd) valuation, each a polynomial, a Gaussian or a sum of both; now and
    # then a zero coefficient or a truncated tail
    valuation = rng.randint(-2, 1)
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        parts = []
        if rng.random() < 0.6:
            parts.append(rand_poly(rng, ctx, degree=2, nterms=2))
        if rng.random() < 0.6:
            parts.append(rand_gaussian(rng, ctx, degree=1, nterms=2))
        coeffs.append(GaussSum(ctx, parts))
    tail = None
    if rng.random() < 0.25:
        tail = valuation + rng.randint(0, len(coeffs))
    return FormalFunction(ctx, valuation, coeffs, tail)


@pytest.mark.parametrize("n,draws,depth", [(1, 30, 5), (2, 8, 2)])
def test_the_commutator_is_the_difference_of_two_products(rng, n, draws, depth):
    ctx = PhaseContext(n)
    families = (moyal_family(ctx), bullet_family(ctx), _cut_family(ctx))
    seen_odd_power = False
    for _ in range(draws):
        F, G = _graded_operand(rng, ctx), _graded_operand(rng, ctx)
        seen_odd_power |= any(c and (F.valuation + i) % 2
                              for i, c in enumerate(F.coeffs))
        order = F.valuation + G.valuation + rng.randint(0, depth)
        for S in families:
            _same_series(star_commutator(S, F, G, order), _two_products(S, F, G, order))
    # operands with odd powers of lam are where a split by lam-power fails
    assert seen_odd_power


@pytest.mark.parametrize("S", [MOYAL, BULLET], ids=["moyal", "bullet"])
def test_the_commutator_keeps_the_products_edge_cases(S):
    # exact zeros, truncated zeros, terminating products without an order and
    # a terminating product with an order below its top power
    poly = FormalFunction(CTX, -1, (Q * Q * P, Q + GaussPoly.constant(CTX, 2), P))
    gauss = FormalFunction(CTX, 1, (GAUSS, Q * GAUSS), 2)
    zero = FormalFunction.zero(CTX)
    cut_zero = FormalFunction(CTX, 0, (), 2)
    cases = [(zero, gauss, None), (gauss, zero, None), (cut_zero, poly, None),
             (poly, cut_zero, None), (poly, poly.shift(1), None),
             (fn(Q * Q), poly, None), (poly, fn(P * Q * Q), 0), (gauss, poly, 3),
             (gauss, gauss, 5)]
    for F, G, order in cases:
        _same_series(star_commutator(S, F, G, order), _two_products(S, F, G, order))


def _record_orders(monkeypatch):
    calls = []
    real = StarFamily.B_into

    def recorded(self, out, k, f, g, tables=None):
        calls.append(k)
        return real(self, out, k, f, g, tables)

    monkeypatch.setattr(StarFamily, "B_into", recorded)
    return calls


def test_parity_families_visit_only_the_odd_orders(monkeypatch):
    calls = _record_orders(monkeypatch)
    F = FormalFunction(CTX, 0, (Q * GAUSS, P * P))
    G = FormalFunction(CTX, -1, (GAUSS, GaussPoly.constant(CTX, 3)))
    star_commutator(MOYAL, F, G, 4)
    assert calls and all(k % 2 for k in calls)
    del calls[:]
    star_commutator(BULLET, F, G, 4)
    assert calls == []


def _commutator_orders(S, k_max):
    # the orders m <= k_max where B_m(f, g) - B_m(g, f) has a term
    return {k for k in range(k_max + 1)
            if _merged(S.terms(k) + tuple((-c, dr, dl) for c, dl, dr in S.terms(k)))}


@pytest.mark.parametrize("cut_orders", [(1,), (1, 2)])
def test_a_table_without_the_parity_takes_one_pass(monkeypatch, cut_orders):
    # one pass over B_m(f, g) - B_m(g, f), with B_into called only at the
    # orders where that table is not empty, gives the two products' result
    S = _cut_family(CTX, cut_orders)
    F = FormalFunction(CTX, 0, (Q * GAUSS, P * P))
    G = FormalFunction(CTX, -1, (GAUSS, Q * P))
    calls = _record_orders(monkeypatch)
    got = star_commutator(S, F, G, 3)
    assert calls and set(calls) <= _commutator_orders(S, 4)
    assert (2 in calls) == (2 in cut_orders)
    _same_series(got, _two_products(S, F, G, 3))


def test_families_with_the_parity_visit_only_the_odd_orders(monkeypatch):
    # the pass follows the table, not its object: a copy of Moyal's term
    # function and the real B_1 family have the parity too
    copy = StarFamily("moyal", CTX, lambda k, ctx: MOYAL._term_fn(k, ctx))
    F = FormalFunction(CTX, 0, (Q * GAUSS, P * P))
    G = FormalFunction(CTX, -1, (GAUSS, GaussPoly.constant(CTX, 3)))
    for S in (copy, real_b1_family(CTX)):
        calls = _record_orders(monkeypatch)
        got = star_commutator(S, F, G, 4)
        monkeypatch.undo()
        assert calls and all(k % 2 for k in calls), S.name
        _same_series(got, _two_products(S, F, G, 4))


def test_an_asymmetric_termination_rule_bounds_the_commutator_by_both_sides():
    # a rule that reads only the left factor: P * X terminates for a
    # polynomial P, X * P does not, so [P, X] and [X, P] need an order as X * P does
    S = StarFamily("moyal", CTX, MOYAL._term_fn, termination=lambda f, g: _poly_bound(f))
    poly = FormalFunction(CTX, 0, (Q * Q * P, P + GaussPoly.constant(CTX, 2)))
    gauss = FormalFunction(CTX, -1, (GAUSS, Q * GAUSS))
    assert star_mul(S, poly, gauss).tail is None
    with pytest.raises(TruncationRequired):
        star_mul(S, gauss, poly)
    for F, G in ((poly, gauss), (gauss, poly)):
        with pytest.raises(TruncationRequired):
            star_commutator(S, F, G)
        for order in (-1, 0, 2, 4):
            got = star_commutator(S, F, G, order)
            _same_series(got, _two_products(S, F, G, order))
            _same_series(got, _two_products(MOYAL, F, G).truncate(order))
    other = poly.shift(1) + fn(Q * P)
    _same_series(star_commutator(S, poly, other), _two_products(S, poly, other))


# ---- at n >= 2, an order whose table factors goes pair by pair ----

def _general_path(monkeypatch):
    # no order factors, so every Gaussian pair walks the n-pair table
    monkeypatch.setattr(StarFamily, "_pair_terms", lambda self, k: None)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(sp, name)
    monkeypatch.setattr(sp, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _nonzero(out):
    # a B_into accumulator without its zero slots
    slots = {w: {e: c for e, c in acc.items() if c} for w, acc in out.items()}
    return {w: acc for w, acc in slots.items() if acc}


def _pair_operands(rng, ctx):
    # a pure Gaussian, polynomials times Gaussians, and two graded mixes
    # with polynomial parts, zero coefficients or truncated tails
    pure = fn(rand_gaussian(rng, ctx, degree=0, nterms=1))
    poly_gauss = FormalFunction(ctx, rng.randint(-1, 0),
                                [rand_gaussian(rng, ctx, degree=2, nterms=3) for _ in range(2)])
    return [pure, poly_gauss, _graded_operand(rng, ctx), _graded_operand(rng, ctx)]


@pytest.mark.parametrize("n,depth", [(2, 4), (3, 2)])
def test_the_pair_path_equals_the_n_pair_path(monkeypatch, rng, n, depth):
    ctx = PhaseContext(n)
    S = moyal_family(ctx)
    cases = []
    for _ in range(4):
        operands = _pair_operands(rng, ctx)
        F, G = rng.choice(operands), rng.choice(operands)
        cases.append((F, G, F.valuation + G.valuation + rng.randint(0, depth)))
    # a polynomial factor makes the product terminate without an order
    cases.append((fn(nonzero_poly(rng, ctx, degree=2)), _pair_operands(rng, ctx)[1], None))
    parts = [(GaussSum(ctx, [rand_poly(rng, ctx), rand_gaussian(rng, ctx)]),
              GaussSum(ctx, [rand_gaussian(rng, ctx), rand_gaussian(rng, ctx)]),
              rng.randint(0, depth + 1)) for _ in range(4)]
    pairwise = _count_calls(monkeypatch, "_pairwise_into")
    got = [(star_mul(S, F, G, order), star_commutator(S, F, G, order))
           for F, G, order in cases]
    outs = []
    for f, g, k in parts:
        out = {}
        S.B_into(out, k, f, g)
        outs.append(out)
    assert pairwise
    _general_path(monkeypatch)
    for (F, G, order), (product, commutator) in zip(cases, got):
        _same_series(product, star_mul(S, F, G, order))
        _same_series(commutator, star_commutator(S, F, G, order))
    for (f, g, k), out in zip(parts, outs):
        want = {}
        S.B_into(want, k, f, g)
        assert _nonzero(out) == _nonzero(want)


def _gaussian_operands(ctx):
    q1 = GaussPoly.coordinate(ctx, "q1")
    p2 = GaussPoly.coordinate(ctx, "p2")
    F = FormalFunction(ctx, 0, (GaussPoly.gaussian(ctx, 1) * q1, q1 * p2))
    G = FormalFunction(ctx, -1, (GaussPoly.gaussian(ctx, Fraction(1, 2)) * p2 * p2,
                                 GaussPoly.gaussian(ctx, 2)))
    return F, G


def test_a_copy_of_the_moyal_table_goes_pair_by_pair(monkeypatch):
    # the path follows the table, not its object or its name; B_0 has one
    # composition over the pairs, so it walks the whole table
    ctx = PhaseContext(2)
    moyal = moyal_family(ctx)
    copy = StarFamily("copy", ctx, lambda k, c: moyal._term_fn(k, c))
    assert not copy._pair_terms(0) and all(copy._pair_terms(k) for k in range(1, 7))
    F, G = _gaussian_operands(ctx)
    n_pair = _count_calls(monkeypatch, "_gauss_pair_into")
    got = star_mul(copy, F, G, 4)
    assert n_pair and all(args[1] is copy.terms(0) for args in n_pair)
    monkeypatch.undo()
    _general_path(monkeypatch)
    _same_series(got, star_mul(moyal, F, G, 4))


def test_tables_that_do_not_factor_keep_the_n_pair_path(monkeypatch):
    ctx = PhaseContext(2)
    moyal, cut = moyal_family(ctx), _cut_family(ctx)
    # the cut keeps one pair-2 term of B_1, so no order above the pointwise
    # B_0 (one composition) factors; the commutator table at an odd order
    # lacks the even one-pair orders
    assert not any(cut._pair_terms(k) for k in range(6))
    comm = sp._commutator_family(moyal)
    assert not any(comm._pair_terms(k) for k in (1, 3, 5))
    F, G = _gaussian_operands(ctx)
    pairwise = _count_calls(monkeypatch, "_pairwise_into")
    for S in (moyal, cut):
        got = star_commutator(S, F, G, 3)
        assert pairwise == []
        _same_series(got, _two_products(S, F, G, 3))
        # the products themselves take the pair path where B_k factors and k >= 1
        orders = {args[2] for args in pairwise}
        assert orders == (set() if S is cut else set(range(1, 5)))
        del pairwise[:]


def test_bullet_at_two_pairs_factors_and_keeps_its_output(monkeypatch):
    ctx = PhaseContext(2)
    S = bullet_family(ctx)
    # the empty tables above order 0 factor; the pointwise B_0 has one
    # composition over the pairs, so the product walks the whole table
    assert not S._pair_terms(0) and all(S._pair_terms(k) for k in range(1, 4))
    F, G = _gaussian_operands(ctx)
    pairwise = _count_calls(monkeypatch, "_pairwise_into")
    got = star_mul(S, F, G)
    assert pairwise == []
    _same_series(got, fs_bullet(F, G))
    _general_path(monkeypatch)
    _same_series(got, star_mul(S, F, G))


def _gaussian_pairs_per_call(monkeypatch):
    # the n-pair path's work: one _gauss_pair_into per part pair with a
    # Gaussian factor in every B_into call whose table is not empty
    pairs = []
    real = StarFamily.B_into

    def counted(self, out, k, f, g, tables=None):
        if self.terms(k):
            pairs.extend(k for fp in sp._parts(f) for gp in sp._parts(g)
                         if fp.alpha or gp.alpha)
        return real(self, out, k, f, g, tables)

    monkeypatch.setattr(StarFamily, "B_into", counted)
    return pairs


def test_the_n_pair_path_runs_only_where_the_table_does_not_factor(monkeypatch):
    ctx1, ctx2 = PhaseContext(1), PhaseContext(2)
    F1 = FormalFunction(ctx1, 0, (GAUSS * Q, P * P))
    G1 = FormalFunction(ctx1, -1, (GaussPoly.gaussian(ctx1, Fraction(1, 2)), GAUSS))
    F2, G2 = _gaussian_operands(ctx2)
    moyal2, cut2 = moyal_family(ctx2), _cut_family(ctx2)
    # (product, operands, whether the Gaussian pairs of order k walk the n-pair table)
    every, at_0 = (lambda k: True), (lambda k: k == 0)
    cases = [(lambda F, G: star_mul(MOYAL, F, G, 4), F1, G1, every),
             (lambda F, G: star_commutator(MOYAL, F, G, 4), F1, G1, every),
             (lambda F, G: star_mul(moyal2, F, G, 4), F2, G2, at_0),
             (lambda F, G: star_commutator(moyal2, F, G, 4), F2, G2, every),
             (lambda F, G: star_commutator(cut2, F, G, 4), F2, G2, every),
             (lambda F, G: star_mul(cut2, F, G, 4), F2, G2, every)]
    for product, F, G, walks in cases:
        n_pair = _count_calls(monkeypatch, "_gauss_pair_into")
        pairs = _gaussian_pairs_per_call(monkeypatch)
        product(F, G)
        monkeypatch.undo()
        assert pairs
        assert len(n_pair) == len([k for k in pairs if walks(k)])


def test_each_one_pair_series_is_built_once_per_product(monkeypatch):
    # gauss(1) * gauss(1/2) to order K: every pair has the exponents
    # (0, 0, 0, 0), so the K + 1 series B^1_r, r <= K, serve every pair,
    # order and composition; the next product builds its own.  To order 0
    # there is one composition, so no series is built
    K = 6
    for n in (2, 3):
        ctx = PhaseContext(n)
        S = moyal_family(ctx)
        F = fn(GaussPoly.gaussian(ctx, 1))
        G = fn(GaussPoly.gaussian(ctx, Fraction(1, 2)))
        builds = _count_calls(monkeypatch, "_pair_series")
        pairwise = _count_calls(monkeypatch, "_pairwise_into")
        star_mul(S, F, G, 0)
        assert builds == [] and pairwise == []
        star_mul(S, F, G, K)
        assert len(builds) == K + 1
        star_mul(S, F, G, K)
        assert len(builds) == 2 * (K + 1)
        monkeypatch.undo()
    # with exponents that differ by pair and by term, each (widths,
    # exponents, r) is still built once within a product
    F, G = _gaussian_operands(PhaseContext(2))
    S = moyal_family(PhaseContext(2))
    builds = _count_calls(monkeypatch, "_pair_series")
    star_mul(S, F, G, 4)
    keys = [(u, v, w, z, ex, ops) for ops, u, v, w, z, ex, _ in builds]
    assert len(keys) > 5 and len(set(keys)) == len(keys)
