"""Acceptance gate: the twelve headline guarantees, one test each.

Every check below is an exact computation — no floats, no tolerances.  Each
test prints a single verdict line (visible under `pytest -s` or on failure)
so the gate reads as a checklist.
"""

import functools
from fractions import Fraction

import pytest

from starforge import (
    EC_I,
    EC_ONE,
    EC_ZERO,
    Density,
    ExactComplex,
    FormalFunction,
    FormalFunctional,
    FormalModeError,
    FormalScalar,
    GaussPoly,
    GaussSum,
    InfinitePrincipalPart,
    LambdaBinding,
    PhaseContext,
    PointDeriv,
    axiom_suite,
    bullet_family,
    closedness_check,
    eigencheck_bullet,
    eigencheck_star,
    fs_bullet,
    fs_linear_comb,
    func_action,
    func_star_action,
    moyal_family,
    negative_region,
    normalize_functional,
    positivity_check,
    scalar_invert,
    star_commutator,
    star_mul,
    star_trace,
    wigner_state,
)

from corpus import (nonzero_coeff, nonzero_scalar, rand_gaussian, rand_point,
                    rand_poly)

CTX = PhaseContext(1)
Q = GaussPoly.coordinate(CTX, "q")
P = GaussPoly.coordinate(CTX, "p")
GAUSS = GaussPoly.gaussian(CTX, 1)
MOYAL = moyal_family(CTX)
BULLET = bullet_family(CTX)
DELTA = FormalFunctional.delta(CTX)
ONE = FormalFunction.one(CTX)


def fn(f, power=0):
    return FormalFunction.of(f, power)


def criterion(num, label):
    def deco(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print("criterion %2d FAIL  %s" % (num, label))
                raise
            print("criterion %2d pass  %s" % (num, label))
        return run
    return deco


@criterion(1, "canonical commutators are i*lam*delta_ij, exactly")
def test_criterion_01_canonical_commutator():
    C = star_commutator(MOYAL, fn(Q), fn(P))
    assert C.valuation == 1 and len(C.coeffs) == 1 and C.tail is None
    assert C.coefficient(1) == GaussSum.of(GaussPoly.constant(CTX, EC_I))
    ctx2 = PhaseContext(2)
    fam2 = moyal_family(ctx2)
    coords = [GaussPoly.coordinate(ctx2, name)
              for name in ("q1", "p1", "q2", "p2")]
    iota = GaussSum.of(GaussPoly.constant(ctx2, EC_I))
    for a in range(4):
        for b in range(4):
            C = star_commutator(fam2, FormalFunction.of(coords[a]),
                                FormalFunction.of(coords[b]))
            conjugate_pair = (a % 2 == 0) and b == a + 1
            if conjugate_pair:
                assert C.coefficient(1) == iota
            elif (b % 2 == 0) and a == b + 1:
                assert C.coefficient(1) == iota.scale(ExactComplex(-1))
            else:
                assert not C.coeffs  # zero series


@criterion(2, "Moyal axioms 1,3-7,9 pass at degree <= 3, order <= 4")
def test_criterion_02_moyal_axiom_suite():
    rep = axiom_suite(MOYAL, 3, 4)
    assert rep.passed
    for axiom in (1, 3, 4, 5, 6, 7, 9):
        assert rep.entries[axiom]["verdict"] == "pass"
    for axiom in (2, 8):
        assert rep.entries[axiom]["verdict"] == "by_construction"


@criterion(3, "conjugate-pair product carves the ellipse of area pi*lam")
def test_criterion_03_ellipse_reproduction():
    # conj(g) * g = (q-q0)^2 + a^2 (p-p0)^2 - a*lam for g = (q-q0)+ia(p-p0)
    for a, q0, p0 in [(2, Fraction(1), Fraction(-1, 2)),
                      (1, Fraction(0), Fraction(0)),
                      (3, Fraction(-2, 3), Fraction(5))]:
        dq = Q + GaussPoly.constant(CTX, -q0)
        dp = P + GaussPoly.constant(CTX, -p0)
        g = fn(dq + dp.scale(ExactComplex(0, a)))
        out = star_mul(MOYAL, g.conj(), g)
        expect = FormalFunction(CTX, 0, (dq * dq + (dp * dp).scale(a * a),
                                         GaussPoly.constant(CTX, -a)))
        assert out == expect and out.tail is None
    # formal-mode region: minimum -a*lam at the center, area pi*lam
    f = (Q + GaussPoly.constant(CTX, -1)) \
        + (P + GaussPoly.constant(CTX, Fraction(1, 2))).scale(ExactComplex(0, 2))
    rep = negative_region(fn(f))
    assert rep.verified
    assert rep.center == (1, Fraction(-1, 2))
    assert rep.min_value == FormalScalar.lam(1, -2)
    assert rep.area_str == "pi*lam"
    # strict spot check: a=2, center (1,-1/2), lam=1/3
    rep = negative_region(fn(f), LambdaBinding.strict(Fraction(1, 3)))
    assert rep.verified
    assert rep.center == (1, Fraction(-1, 2))
    assert rep.min_value == Fraction(-2, 3)
    assert rep.area_str == "pi*1/3"


@criterion(4, "the point functional fails Moyal positivity at value -1")
def test_criterion_04_classical_state_no_go():
    f = fn(Q) + fn(P).scale(EC_I)
    v = func_star_action(MOYAL, DELTA, star_mul(MOYAL, f.conj(), f))
    assert v == FormalScalar.from_const(-1)  # lam-free, hence sample-free
    samples = tuple(Fraction(x) for x in ("1/10", "1/2", "1", "3"))
    rep = positivity_check(MOYAL, DELTA, [f], lambda_samples=samples)
    assert rep.verdict == "negative"
    assert rep.negativity == {"witness": "q + I*p", "lambda": "1/10",
                              "value": "-1"}
    assert [e["total_sign"] for e in rep.details[0]["per_lambda"]] == [-1] * 4


@criterion(5, "Moyal is closed: integral of B_k vanishes for k = 1..5")
def test_criterion_05_closedness(rng):
    for _ in range(20):
        f = rand_gaussian(rng, CTX)
        g = rand_poly(rng, CTX) if rng.random() < 0.4 else rand_gaussian(rng, CTX)
        rep = closedness_check(MOYAL, f, g, 5)
        assert rep.closed
        assert all(not rep.values[k] for k in range(1, 6))
        assert rep.b0_integral == rep.pointwise_integral


@criterion(6, "strict oscillator spectrum lam*(n + 1/2) for n = 0..3")
def test_criterion_06_strict_oscillator():
    H = fn((Q * Q + P * P).scale(Fraction(1, 2)))
    for lam in (Fraction(1), Fraction(1, 2)):
        binding = LambdaBinding.strict(lam)
        for n in range(4):
            W = wigner_state(CTX, n)
            a = FormalScalar.lam(1, Fraction(2 * n + 1, 2))
            rep = eigencheck_star(MOYAL, H, a, W, 2, binding=binding)
            assert rep.passed, (lam, n)
            assert all(r == "0" for _, r in rep.residuals)
            assert all(c == "0" for _, c in rep.commutation)
            # and the neighbouring eigenvalue is rejected
            wrong = FormalScalar.lam(1, Fraction(2 * n + 3, 2))
            assert not eigencheck_star(MOYAL, H, wrong, W, 2,
                                       binding=binding).passed


@criterion(7, "scalar inversion: a * invert(a, 8) = 1 through lam^8, x100")
def test_criterion_07_scalar_field(rng):
    for _ in range(100):
        a = nonzero_scalar(rng, lo=-3, hi=4)
        prod = a * scalar_invert(a, 8)
        assert prod.known_through() >= 8
        for z in range(prod.valuation, 9):
            assert prod.coefficient(z) == (EC_ONE if z == 0 else EC_ZERO)


@criterion(8, "trace symmetry through lam^4 on ten random Gaussian pairs")
def test_criterion_08_trace_symmetry(rng):
    for _ in range(10):
        f = fn(rand_gaussian(rng, CTX))
        g = fn(rand_gaussian(rng, CTX))
        left = star_trace(MOYAL, star_mul(MOYAL, f, g, 5))
        right = star_trace(MOYAL, star_mul(MOYAL, g, f, 5))
        assert left.known_through() >= 4
        assert left == right


@criterion(9, "normalization reaches <T', 1>_* = 1 through order 6, x10")
def test_criterion_09_normalization(rng):
    made = 0
    while made < 10:
        grades = []
        for _ in range(rng.randint(1, 3)):
            grade = [PointDeriv(CTX, rand_point(rng, CTX),
                                (rng.randint(0, 2), rng.randint(0, 2)),
                                nonzero_coeff(rng))
                     for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.4:
                grade.append(Density(CTX, rand_poly(rng, CTX, alpha=1)))
            grades.append(grade)
        T = FormalFunctional(CTX, rng.randint(-1, 1), grades)
        c = func_star_action(MOYAL, T, ONE)
        if not c.coeffs or c.valuation != T.valuation - 1:
            continue  # the recurrence needs <T_0, 1> != 0
        made += 1
        A, Tn = normalize_functional(MOYAL, T, 6)
        check = func_star_action(MOYAL, Tn, ONE)
        assert check == FormalScalar.one()
        assert check.known_through() >= 6


@criterion(10, "support collapse: points pass, densities fail, widths block")
def test_criterion_10_support_collapse():
    # bullet genvalues are pointwise: a density cannot satisfy xi = q
    T = FormalFunctional.density(CTX, GAUSS)
    rep = eigencheck_bullet(fn(Q), 1, T, 2)
    assert not rep.passed
    assert rep.first_failure == {"witness": "1", "residual": "-pi"}
    # a point functional passes exactly when the values match
    assert eigencheck_bullet(fn(Q), 1, FormalFunctional.delta(CTX, (1, 0)), 2).passed
    assert not eigencheck_bullet(fn(Q), 2, FormalFunctional.delta(CTX, (1, 0)), 2).passed
    # formal mode cannot even pose the question for lam-dependent widths
    W = wigner_state(CTX, 1)
    H = fn((Q * Q + P * P).scale(Fraction(1, 2)))
    with pytest.raises(FormalModeError):
        eigencheck_star(MOYAL, H, FormalScalar.lam(1, Fraction(3, 2)), W, 2)


@criterion(11, "functionals with infinite principal part are rejected")
def test_criterion_11_principal_part_guard():
    for bad in (float("-inf"), 1.5, "everything", True):
        with pytest.raises(InfinitePrincipalPart):
            FormalFunctional(CTX, bad, ((PointDeriv(CTX, (0, 0)),),))


@criterion(12, "per-power positivity would force <delta, |phi|^2> = 0")
def test_criterion_12_per_power_no_go():
    phi = ONE + fn(Q)
    base = func_action(DELTA, fs_bullet(phi.conj(), phi))
    assert base == FormalScalar.one()  # |phi(0)|^2 is 1, not 0
    up = fs_linear_comb(FormalScalar.one() + FormalScalar.lam(), phi,
                        FormalScalar.zero(), phi)
    down = fs_linear_comb(FormalScalar.one() - FormalScalar.lam(), phi,
                          FormalScalar.zero(), phi)
    plus = func_action(DELTA, fs_bullet(up.conj(), up))
    minus = func_action(DELTA, fs_bullet(down.conj(), down))
    # reading positivity per lambda power, these force 2<d,|phi|^2> <= 0
    # and -2<d,|phi|^2> <= 0 at once, i.e. the pairing would have to vanish
    assert plus.coefficient(1) == ExactComplex(2)
    assert minus.coefficient(1) == ExactComplex(-2)
    # the partial-sum reading adopted by positivity_check accepts both
    rep = positivity_check(BULLET, DELTA, [up, down])
    assert rep.verdict == "positive_on_samples"
