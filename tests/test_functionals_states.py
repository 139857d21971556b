"""Functionals and states: actions, reality, positivity, normalization, genvalue checks."""

import random
import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforge import (
    Density,
    DimensionMismatch,
    EC_I,
    EC_ONE,
    EC_ZERO,
    EngineError,
    ExactComplex,
    FORMAL,
    FormalFunction,
    FormalFunctional,
    FormalModeError,
    FormalScalar,
    GaussPoly,
    GaussSum,
    InfinitePrincipalPart,
    LambdaBinding,
    NotIntegrable,
    NotNormalizable,
    NotSupportedForm,
    PhaseContext,
    PiScalar,
    PointDeriv,
    ScopeError,
    StarFamily,
    TruncationRequired,
    bind_functional,
    bullet_family,
    coeff_sign,
    eigencheck_bullet,
    eigencheck_classical,
    eigencheck_star,
    fs_bullet,
    fs_linear_comb,
    func_action,
    func_star_action,
    gp_pair,
    moyal_family,
    negative_region,
    normalize_functional,
    positivity_check,
    reality_check,
    render_function,
    render_gausspoly,
    render_scalar,
    scalar_eval,
    scalar_invert,
    scalar_to_json,
    star_commutator,
    star_mul,
    wigner_state,
)
from starforge.lambda_scalars import graded_product
from starforge.functionals_states import (_laguerre_coeffs, _star_action_adjoint,
                                         _test_monomials)

import wire
from pairings import draw_cancelling, draw_function, draw_functional
from corpus import (exact_coeffs, gauss_polys, nonzero_coeff, rand_point, rand_poly,
                    rand_scalar, real_b1_family)

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


def rand_functional(rng, with_density=True):
    grades = []
    for _ in range(rng.randint(1, 3)):
        grade = []
        for _ in range(rng.randint(0, 2)):
            idx = (rng.randint(0, 2), rng.randint(0, 2))
            grade.append(PointDeriv(CTX, rand_point(rng, CTX), idx, nonzero_coeff(rng)))
        if with_density and rng.random() < 0.4:
            grade.append(Density(CTX, rand_poly(rng, CTX, alpha=1)))
        grades.append(grade)
    return FormalFunctional(CTX, rng.randint(-1, 1), grades)


# ---- construction ----

def test_infinite_principal_part_is_rejected():
    for bad in (float("-inf"), 1.5, "everything", True):
        with pytest.raises(InfinitePrincipalPart):
            FormalFunctional(CTX, bad, ((PointDeriv(CTX, (0, 0)),),))


def test_functional_terms_take_exact_data_only():
    # points and widths go through the exact-rational check, indices must be
    # ints and weights exact scalars: none of these may round or wait for a
    # pairing to fail
    with pytest.raises(ValueError):
        PointDeriv(CTX, (0, 0), index=(1.9, 0))
    with pytest.raises(ValueError):
        PointDeriv(CTX, (0, 0), index=(True, 0))
    with pytest.raises(TypeError):
        FormalFunctional.delta(CTX, (0.1, 0))
    with pytest.raises(TypeError):
        FormalFunctional.point_deriv(CTX, (0, 0), (1, 0), weight=0.5)
    with pytest.raises(TypeError):
        Density(CTX, GAUSS, weight=0.5)
    with pytest.raises(TypeError):
        Density(CTX, GAUSS, weight=complex(1, 2))
    with pytest.raises(TypeError):
        Density(CTX, GAUSS, width_lambda=0.1)
    # bool is an int, but no point or width is a truth value
    with pytest.raises(TypeError):
        FormalFunctional.delta(CTX, (True, 0))
    with pytest.raises(TypeError):
        Density(CTX, GAUSS, width_lambda=True)
    with pytest.raises(TypeError):
        eigencheck_classical(GAUSS, 1, (0.1, 0))
    # exact inputs still go through, weights of every pairing kind included
    d = PointDeriv(CTX, ("1/2", Fraction(-3)), (1, 0), Fraction(2, 3))
    assert d.point == (Fraction(1, 2), Fraction(-3)) and d.weight == ExactComplex(Fraction(2, 3))
    assert Density(CTX, GAUSS, width_lambda="1/3").width_lambda == Fraction(1, 3)
    for w in (2, ExactComplex(1, 1), PiScalar.pi() * 3, PiScalar.pi().reciprocal()):
        assert Density(CTX, GAUSS, weight=w).act(GaussSum.of(Q * Q)) == w * PiScalar.pi() * Fraction(1, 2)


# every public entry point that takes an exact scalar, and whether it also
# takes a PiScalar (the two-floor gate) or only a complex rational
GATED = {
    "FormalScalar": (True, lambda v: FormalScalar(0, [v])),
    "FormalScalar.from_const": (True, FormalScalar.from_const),
    "FormalScalar.lam": (True, lambda v: FormalScalar.lam(1, v)),
    "FormalScalar.from_coeff_map": (True, lambda v: FormalScalar.from_coeff_map({0: v})),
    "FormalScalar.scale": (True, FormalScalar.one().scale),
    "scalar_invert": (True, lambda v: scalar_invert(FormalScalar(0, [v, 1]), 2)),
    "FormalFunctional.rescale": (True, DELTA.rescale),
    "FormalFunctional.scale_by_scalar": (True, DELTA.scale_by_scalar),
    "PointDeriv weight": (True, lambda v: PointDeriv(CTX, (0, 0), weight=v)),
    "Density weight": (True, lambda v: Density(CTX, GAUSS, weight=v)),
    "eigencheck_classical": (True, lambda v: eigencheck_classical(GAUSS, v, (0, 0))),
    "eigencheck_star": (True, lambda v: eigencheck_star(MOYAL, fn(Q), v, DELTA, 1)),
    # the bullet genvalue shifts a function, whose coefficients are complex rationals
    "eigencheck_bullet": (False, lambda v: eigencheck_bullet(fn(Q), v, DELTA, 1)),
    "eigencheck_bullet series": (False, lambda v: eigencheck_bullet(fn(Q), FormalScalar(0, [v]),
                                                                    DELTA, 1)),
    "GaussPoly": (False, lambda v: GaussPoly(CTX, {(0, 0): v})),
    "GaussPoly.scale": (False, GAUSS.scale),
    "GaussSum.scale": (False, GaussSum.of(Q).scale),
    "FormalFunction.scale": (False, ONE.scale),
    "PiScalar num": (False, lambda v: PiScalar((v,))),
    "PiScalar den": (False, lambda v: PiScalar((1,), (v,))),
}


@pytest.mark.parametrize("entry", sorted(GATED))
def test_exact_scalars_are_gated_at_every_entry_point(entry):
    two_floors, call = GATED[entry]
    # no float, complex, string, None or bool gets past the call itself
    for bad in (0.5, 1j, "1/2", None, True):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            call(bad)
    for good in (1, Fraction(1, 2), ExactComplex(1, 1)):
        call(good)
    if two_floors:
        call(PiScalar.pi())
    else:
        # the error names the value passed, not one built from it
        with pytest.raises(TypeError, match=re.escape(repr(PiScalar.pi()))):
            call(PiScalar.pi())


def test_same_shape_terms_merge():
    two = DELTA + DELTA
    grade = two.coefficient(0)
    assert len(grade) == 1
    assert grade[0].weight == ExactComplex(2)
    assert (DELTA - DELTA) == FormalFunctional.zero(CTX)


def test_a_grade_holds_one_term_per_shape_in_key_order():
    dens = Density(CTX, GAUSS, 3)
    terms = [dens, PointDeriv(CTX, (1, 0)), PointDeriv(CTX, (0, 0), (1, 0), 2),
             Density(CTX, GAUSS, -3), PointDeriv(CTX, (1, 0), None, 5),
             Density(CTX, GAUSS, 1, width_lambda=1), PointDeriv(CTX, (0, 0))]
    grade = FormalFunctional(CTX, 0, (terms,)).coefficient(0)
    assert [str(t) for t in grade] == [
        "delta(0, 0)", "(2) * d^[1, 0] delta(0, 0)", "(6) * delta(1, 0)",
        "density((exp(-r^2)) * exp(-1/lam*r^2))"]
    assert [t.sort_key() for t in grade] == sorted(t.sort_key() for t in grade)


def test_terms_compare_by_shape_and_weight():
    d = PointDeriv(CTX, (1, 0), (0, 1), EC_I)
    assert d == PointDeriv(CTX, (1, 0), (0, 1), EC_I)
    assert hash(d) == hash(PointDeriv(CTX, (1, 0), (0, 1), EC_I))
    assert d != PointDeriv(CTX, (1, 0), (0, 1), 1)
    assert d != PointDeriv(CTX, (1, 0), (1, 0), EC_I)
    assert d.conj() == PointDeriv(CTX, (1, 0), (0, 1), -EC_I)
    assert d.rescale(EC_I) == PointDeriv(CTX, (1, 0), (0, 1), -1)
    g = GaussSum.of((Q * P).scale(EC_I) * GAUSS)
    dens = Density(CTX, g, EC_I, width_lambda=2)
    assert dens.__slots__ == ("ctx", "g", "width_lambda", "weight")
    assert dens == Density(CTX, g, EC_I, 2) and dens != Density(CTX, g, EC_I, 1)
    assert dens != d and d != dens
    assert dens.conj() == Density(CTX, g.conj(), -EC_I, 2)
    assert dens.rescale(2) == Density(CTX, g, ExactComplex(0, 2), 2)


def test_binding_a_density_width_matches_the_validating_constructor():
    g = GaussSum(CTX, [Q * Q, (P * P).scale(3) * GAUSS])
    bound = Density(CTX, g, EC_I, width_lambda=Fraction(1, 3)).bind(LambdaBinding(Fraction(1, 2)))
    moved = GaussSum(CTX, [GaussPoly(CTX, part.terms, part.alpha + Fraction(2, 3))
                           for part in g.parts])
    want = Density(CTX, moved, EC_I)
    assert bound == want and hash(bound) == hash(want) and str(bound) == str(want)
    assert bound.width_lambda == 0 and bound.g.parts == moved.parts


def test_functional_shift_truncate_conj():
    T = DELTA.shift(2)
    assert T.valuation == 2
    T2 = DELTA.rescale(EC_I).conj()
    assert T2 == DELTA.rescale(-EC_I)
    T3 = DELTA.truncate(1)
    assert T3.tail == 1
    assert T3.coefficient(2) is None


def test_scale_by_scalar_moves_grades():
    T = DELTA.scale_by_scalar(FormalScalar.lam())
    assert T.valuation == 1
    assert T.coefficient(1)[0].weight == EC_ONE


# ---- plain actions ----

def test_delta_evaluates_at_its_point():
    F = FormalFunction(CTX, 0, (Q * Q, P))  # q^2 + lam p
    assert not func_action(DELTA, F)
    d = FormalFunctional.delta(CTX, (1, 2))
    assert func_action(d, F) == FormalScalar.from_coeff_map({0: 1, 1: 2})


def test_a_bare_part_pairs_as_its_lam_zero_series():
    # a GaussPoly or a GaussSum pairs as the series FormalFunction.of makes of it
    T = FormalFunctional.density(CTX, GAUSS)
    half_pi = FormalScalar(0, [PiScalar.pi() * Fraction(1, 2)])
    for f in (Q * Q, GaussSum.of(Q * Q)):
        got = func_action(T, f)
        assert got == func_action(T, FormalFunction.of(f)) == half_pi
        assert render_scalar(got) == "1/2*pi"


def test_point_derivative_sign_convention():
    dq = FormalFunctional.point_deriv(CTX, (0, 0), (1, 0))
    assert func_action(dq, fn(Q)) == FormalScalar.from_const(-1)
    d2 = FormalFunctional.point_deriv(CTX, (0, 0), (2, 0))
    assert func_action(d2, fn(Q * Q)) == FormalScalar.from_const(2)


def test_density_action_is_the_gaussian_integral():
    T = FormalFunctional.density(CTX, GAUSS)
    v = func_action(T, fn(Q * Q))
    assert v == FormalScalar(0, (PiScalar.pi() * Fraction(1, 2),))


def _sums(ctx, min_parts, max_parts):
    return st.lists(gauss_polys(ctx, max_terms=3), min_size=min_parts,
                    max_size=max_parts).map(lambda parts: GaussSum(ctx, parts))


@settings(max_examples=40)
@given(g=_sums(CTX, 1, 2), gs=_sums(CTX, 0, 3),
       weight=st.one_of(exact_coeffs, st.builds(lambda c, k: PiScalar.pi(k) * c, exact_coeffs, st.integers(0, 2))))
def test_density_action_pairs_every_part(g, gs, weight):
    # the reference forms the product GaussSum and integrates it
    T = Density(CTX, g, weight)
    try:
        want = weight * (g * gs).integrate()
    except NotIntegrable:
        with pytest.raises(NotIntegrable):
            T.act(gs)
        return
    got = T.act(gs)
    assert type(got) is type(want) and got == want and str(got) == str(want)


def test_density_action_on_sums_of_three_widths():
    g = GaussSum(CTX, [GAUSS, (Q * Q).scale(2) * GaussPoly.gaussian(CTX, Fraction(1, 2))])
    gs = GaussSum(CTX, [Q * Q + P * P, GaussPoly.gaussian(CTX, 2), (Q * P).scale(EC_I) * GAUSS])
    T = Density(CTX, g, ExactComplex(2, 1))
    assert T.act(gs) == ExactComplex(2, 1) * (g * gs).integrate()
    for part in gs.parts:
        assert T.act(gs) != T.act(GaussSum.of(part))


def test_action_mixes_deltas_and_densities():
    T = DELTA + FormalFunctional.density(CTX, GAUSS, power=1)
    v = func_action(T, ONE)
    assert v.coefficient(0) == EC_ONE
    assert v.coefficient(1) == PiScalar.pi()


def test_action_respects_function_truncation():
    F = FormalFunction(CTX, 0, (GaussPoly.constant(CTX, 1), Q), tail=1)
    v = func_action(DELTA, F)
    assert v.coefficient(0) == EC_ONE
    assert v.coefficient(2) is None


def test_action_is_linear(rng):
    # polynomial witnesses: point functionals away from the origin cannot
    # take exact values on Gaussian factors
    for _ in range(10):
        T = rand_functional(rng)
        F = fn(rand_poly(rng, CTX))
        G = fn(rand_poly(rng, CTX))
        c1 = rand_scalar(rng, lo=0, hi=2)
        c2 = rand_scalar(rng, lo=0, hi=2)
        lhs = func_action(T, fs_linear_comb(c1, F, c2, G))
        rhs = c1 * func_action(T, F) + c2 * func_action(T, G)
        assert lhs == rhs


def test_delta_on_a_gaussian_needs_a_rational_value():
    away = FormalFunctional.delta(CTX, (1, 0))
    with pytest.raises(NotSupportedForm):
        func_action(away, fn(GAUSS))
    # fine when the polynomial part kills the transcendental value
    shifted = (Q + GaussPoly.constant(CTX, -1)) * GAUSS
    assert not func_action(away, fn(shifted))
    # and at the origin the exponential is exactly 1
    assert func_action(DELTA, fn(GAUSS)) == FormalScalar.one()


def _per_term_action(T, F):
    # the reference sum: one term.act(f) at a time, added as scalars
    def add(acc, grade, f):
        for term in grade:
            acc = acc + term.act(f)
        return acc
    return graded_product(T, FormalFunction.of(F) if isinstance(F, GaussPoly) else F,
                          add, FormalScalar, EC_ZERO)


def _action_outcome(action, T, F):
    try:
        v = action(T, F)
    except EngineError as exc:
        return type(exc).__name__, str(exc)
    return str(v), scalar_to_json(v)


def test_func_action_matches_the_per_term_sum():
    # seeded draws at n = 1, 2: deltas and point derivatives, multi-part
    # densities with complex and PiScalar weights over several lam powers,
    # truncated functions, and errors (polynomial pairs, off-origin points)
    rng = random.Random(20261020)
    kinds = set()
    for n in (1, 2):
        ctx = PhaseContext(n)
        for _ in range(120):
            T, F = draw_functional(rng, ctx), draw_function(rng, ctx)
            got = _action_outcome(func_action, T, F)
            assert got == _action_outcome(_per_term_action, T, F)
            kinds.add(got[0] if got[0] in ("NotIntegrable", "NotSupportedForm") else "value")
        for _ in range(10):
            T = draw_cancelling(rng, ctx)
            F = FormalFunction(ctx, 0, [GaussPoly.constant(ctx, 1)] * rng.randint(1, 2))
            assert _action_outcome(func_action, T, F) == _action_outcome(_per_term_action, T, F)
    assert kinds == {"value", "NotIntegrable", "NotSupportedForm"}
    # the power of pi is the phase space's the parts are on
    ctx2 = PhaseContext(2)
    g2 = GaussPoly.gaussian(ctx2, 1)
    T = FormalFunctional.density(CTX, g2)
    assert func_action(T, fn(g2)) == FormalScalar(0, (gp_pair(g2, g2),)) == _per_term_action(T, fn(g2))


def test_a_density_sum_that_cancels_keeps_its_pi_zero():
    # pi - 2 * pi/2 = 0 at lam^0, between two delta values: the interior zero
    # stays a PiScalar, so its JSON is the pi-valued one
    dens = (FormalFunctional.density(CTX, GAUSS)
            - FormalFunctional.density(CTX, GaussPoly.gaussian(CTX, 2)).rescale(2))
    T = DELTA.scale_by_scalar(FormalScalar.lam(-1)) + dens + DELTA.scale_by_scalar(FormalScalar.lam())
    v = func_action(T, ONE)
    assert type(v.coefficient(0)) is PiScalar and not v.coefficient(0)
    assert scalar_to_json(v)["coeffs"][1] == {"num": [], "den": [[1, 1, 0, 1]]}
    assert _action_outcome(func_action, T, ONE) == _action_outcome(_per_term_action, T, ONE)


def test_func_action_errors_keep_their_types_and_order():
    ctx2 = PhaseContext(2)
    wide = FormalFunctional.density(CTX, GAUSS, width_lambda=1)
    poly = FormalFunctional.density(CTX, GaussPoly.constant(CTX, 1))
    far = FormalFunctional.density(ctx2, GaussPoly.gaussian(ctx2, 1))
    cases = [(wide, ONE, FormalModeError), (poly, ONE, NotIntegrable),
             (far, fn(GAUSS), DimensionMismatch),
             # the first term in grade order raises: "0|1" sorts before "1|..."
             (wide + poly, ONE, NotIntegrable),
             (poly.scale_by_scalar(FormalScalar.lam()) + wide, ONE, FormalModeError),
             # across phase spaces, DimensionMismatch comes before NotIntegrable
             (FormalFunctional.density(ctx2, GaussPoly.constant(ctx2, 1)), ONE,
              DimensionMismatch)]
    for T, F, err in cases:
        with pytest.raises(err) as info:
            func_action(T, F)
        assert _action_outcome(_per_term_action, T, F) == (err.__name__, str(info.value))
    with pytest.raises(NotIntegrable, match="a nonzero polynomial is not summable"):
        func_action(poly, ONE)


def test_width_markers_block_formal_actions():
    W = wigner_state(CTX, 0)
    assert W.has_width()
    with pytest.raises(FormalModeError):
        func_action(W, ONE)


# ---- star actions ----

def test_density_star_action_gains_the_volume_power():
    T = FormalFunctional.density(CTX, GAUSS)
    v = func_star_action(MOYAL, T, ONE)
    assert v == FormalScalar(-1, (PiScalar.pi(),))


def test_delta_is_not_a_moyal_state():
    f = fn(Q) + fn(P).scale(EC_I)
    v = func_star_action(MOYAL, DELTA, star_mul(MOYAL, f.conj(), f))
    assert v == FormalScalar.from_const(-1)


def test_bullet_star_action_is_the_plain_action_shifted():
    T = DELTA + FormalFunctional.density(CTX, GAUSS, power=1)
    v = func_star_action(BULLET, T, ONE)
    assert v == func_action(T, ONE).shift(-1)


def test_star_action_refuses_a_family_on_another_phase_space():
    # under an n = 2 Moyal family an n = 1 density once paired to 1/2*pi*lam^-2
    ctx2 = PhaseContext(2)
    T = FormalFunctional.density(CTX, GAUSS)
    for S in (moyal_family(ctx2), bullet_family(ctx2)):
        with pytest.raises(DimensionMismatch):
            func_star_action(S, T, GAUSS, 2)
        with pytest.raises(DimensionMismatch):
            func_star_action(S, FormalFunctional.delta(ctx2), GAUSS, 2)
    with pytest.raises(DimensionMismatch):
        func_star_action(MOYAL, T, GaussPoly.gaussian(ctx2, 1))
    # a bare GaussSum pairs on its own phase space, not the family's
    with pytest.raises(DimensionMismatch):
        func_star_action(MOYAL, T, GaussSum.of(GaussPoly.gaussian(ctx2, 1)))
    assert func_star_action(MOYAL, T, GaussSum.of(GAUSS)) == FormalScalar(-1, (PiScalar.pi() / 2,))


def test_positivity_checks_phase_spaces_before_squaring_a_witness():
    # an n = 1 functional under an n = 2 family was reported as a value that
    # does not terminate when the witness was a Gaussian
    ctx2 = PhaseContext(2)
    S2 = moyal_family(ctx2)
    T1 = FormalFunctional.density(CTX, GAUSS)
    for witness in (GaussPoly.gaussian(ctx2, 1), GaussPoly.constant(ctx2, 1)):
        with pytest.raises(DimensionMismatch):
            positivity_check(S2, T1, [fn(witness)])
    # a later witness on another phase space, before the first one is squared
    T2 = FormalFunctional.density(ctx2, GaussPoly.gaussian(ctx2, 1))
    one2 = fn(GaussPoly.constant(ctx2, 1))
    for witness in (GAUSS, GaussPoly.constant(CTX, 1)):
        with pytest.raises(DimensionMismatch):
            positivity_check(S2, T2, [one2, fn(witness)])
    assert positivity_check(S2, T2, [one2]).verdict == "positive_on_samples"


def test_functionals_on_two_phase_spaces_do_not_add():
    ctx2 = PhaseContext(2)
    with pytest.raises(DimensionMismatch):
        FormalFunctional.delta(CTX) + FormalFunctional.delta(ctx2)
    with pytest.raises(DimensionMismatch):
        DELTA - FormalFunctional.density(ctx2, GaussPoly.gaussian(ctx2, 1))
    assert str(DELTA + FormalFunctional.delta(PhaseContext(1))) == "(2) * delta(0, 0)"


def test_moyal_reduction_identity(rng):
    # the moyal fast path and the adjoint-route pairing agree
    for _ in range(8):
        T = rand_functional(rng)
        F = fn(rand_poly(rng, CTX))
        fast = func_star_action(MOYAL, T, F)
        slow = _star_action_adjoint(MOYAL, T, F)
        assert fast == func_action(T, F).shift(-1)
        assert slow == fast


# a family that is not Moyal, so it pairs through _star_action_adjoint
REAL_B1 = real_b1_family(CTX)


def test_the_adjoint_pairing_takes_each_derivative_once(rng, monkeypatch):
    # a family that is not Moyal pairs by parts: the sum over the terms
    # (c, dl, dr) of B_k of c (-1)^|dr| lam^(k-n) <T, d^(dl+dr) F>.  Its
    # derivatives are memoised by multi-index, so a degree-3 F takes the
    # nine d^beta on the prefix chains of (1,1), (2,2) and (3,3) once each
    import starforge.functionals_states as fsmod
    from starforge import fs_diff

    S = REAL_B1
    F = fn(Q * Q * P + P * P * P.scale(3) + Q.scale(EC_I) + GaussPoly.constant(CTX, 2))
    diffs = []
    monkeypatch.setattr(fsmod, "fs_diff", lambda u, i: diffs.append(i) or fs_diff(u, i))
    for _ in range(6):
        T = rand_functional(rng)
        want = FormalScalar.zero()
        for k in range(4):
            for c, dl, dr in S.terms(k):
                u = F
                for i, e in enumerate(map(add, dl, dr)):
                    for _ in range(e):
                        u = fs_diff(u, i)
                sign = -1 if sum(dr) % 2 else 1
                want = want + func_action(T, u).scale(c * sign).shift(k)
        diffs.clear()
        assert func_star_action(S, T, F) == want.shift(-1)
        assert len(diffs) == 9


def test_the_moyal_shortcut_follows_the_operator_table_not_the_name():
    # Moyal's table with only the first term kept at k = 1 is no Moyal
    # product, whatever its name; only the Moyal table itself pairs as Moyal
    from starforge import StarFamily

    def cut(k, ctx):
        terms = MOYAL.terms(k)
        return terms[:1] if k == 1 else terms

    want = FormalScalar.from_const(ExactComplex(0, Fraction(-1, 2)))
    for name in ("moyal", "cut"):
        S = StarFamily(name, CTX, cut)
        assert func_star_action(S, DELTA, fn(Q * P)) == want
    renamed = StarFamily("other", CTX, MOYAL._term_fn)
    assert func_star_action(renamed, DELTA, fn(Q * P)) == func_action(DELTA, fn(Q * P)).shift(-1)


def test_a_terminating_adjoint_pairing_is_exact_whatever_the_order():
    # a polynomial ends the expansion at k = 3, so an order below that cuts nothing
    F = fn(Q * Q * P + P * P * P.scale(3) + Q.scale(EC_I) + GaussPoly.constant(CTX, 2))
    T = FormalFunctional.delta(CTX, (1, 2))
    exact = func_star_action(REAL_B1, T, F)
    assert exact.tail is None
    for order in (-1, 0, 1, 5):
        got = func_star_action(REAL_B1, T, F, order)
        assert got.tail is None
        assert render_scalar(got) == render_scalar(exact)


def test_a_gaussian_adjoint_pairing_is_still_truncated():
    F = fn((Q * Q + P + GaussPoly.constant(CTX, 1)) * GAUSS)
    T = DELTA
    with pytest.raises(TruncationRequired):
        func_star_action(REAL_B1, T, F)
    got = func_star_action(REAL_B1, T, F, 2)
    assert got.tail == 2
    assert got == func_star_action(REAL_B1, T, F, 4).truncate(2)
    assert got.coeffs


def test_an_adjoint_truncation_below_the_lowest_power_is_a_scope_error():
    # star_mul's rule: a cut below the lowest power would know no coefficient
    F = fn(GAUSS)
    with pytest.raises(ScopeError, match="below the pairing's lowest power -1"):
        func_star_action(REAL_B1, DELTA, F, -5)
    assert func_star_action(REAL_B1, DELTA, F, -1).tail == -1


def test_bullet_positivity_keeps_the_terms_above_the_order():
    # <delta - lam^3 delta, 1>_* = lam^-1 - lam^2, negative at lambda = 2;
    # cutting it at lam^1 would drop the term that makes it negative
    T = DELTA - DELTA.scale_by_scalar(FormalScalar.lam(3))
    rep = positivity_check(BULLET, T, [ONE])
    assert rep.verdict == "negative"
    assert rep.negativity == {"witness": "1", "lambda": "2", "value": "lam^-1 - lam^2"}


def test_bullet_star_eigencheck_keeps_the_residual_above_the_order():
    a = FormalScalar.one() + FormalScalar.lam(3)
    rep = eigencheck_star(bullet_family(CTX), fn(Q), a, FormalFunctional.delta(CTX, (1, 0)), 2)
    assert not rep.passed
    assert rep.first_failure == {"witness": "1", "residual": "-lam^2"}


def test_normalize_delta_over_bullet_is_exact():
    A, T = normalize_functional(BULLET, DELTA, 6)
    assert A == FormalScalar.lam()
    assert A.tail is None
    assert func_star_action(BULLET, T, ONE) == FormalScalar.one()


# ---- reality ----

def test_point_functionals_are_real():
    d = FormalFunctional.delta(CTX, (1, 2))
    rep = reality_check(d, [ONE, fn(Q), fn(Q * P)])
    assert rep.verdict == "real"
    assert rep.structural
    assert all(ok for _, ok, _ in rep.witness_results)


def test_imaginary_weight_fails_reality():
    rep = reality_check(DELTA.rescale(EC_I), [ONE])
    assert rep.verdict == "fail"
    assert not rep.structural
    witness, ok, value = rep.witness_results[0]
    assert witness == "1"
    assert not ok
    assert value == "I"


def test_mixed_real_functional():
    T = FormalFunctional.density(CTX, Q * GAUSS) + DELTA.scale_by_scalar(FormalScalar.lam())
    rep = reality_check(T, [ONE, fn(Q), fn(P * P)])
    assert rep.verdict == "real"


def test_reality_witnesses_must_be_real():
    with pytest.raises(ValueError):
        reality_check(DELTA, [fn(Q) + fn(P).scale(EC_I)])


def test_formal_functionals_are_unhashable():
    # equal up to the shorter known tail, which no hash can follow
    truncated = DELTA.shift(1).truncate(0)
    assert truncated == FormalFunctional.zero(CTX).truncate(0)
    for T in (truncated, DELTA, FormalFunctional.zero(CTX)):
        with pytest.raises(TypeError):
            hash(T)


# ---- positivity ----

def test_delta_is_negative_over_moyal():
    f = fn(Q) + fn(P).scale(EC_I)
    rep = positivity_check(MOYAL, DELTA, [f])
    assert rep.verdict == "negative"
    assert rep.negativity == {"witness": "q + I*p", "lambda": "1/10", "value": "-1"}
    # the witness value is the lambda-independent constant -1
    for entry in rep.details[0]["per_lambda"]:
        assert entry["total_sign"] == -1


def test_delta_is_positive_over_bullet():
    fns = [ONE + fn(Q), fn(Q) + fn(P).scale(EC_I), fn(P * P)]
    rep = positivity_check(BULLET, DELTA, fns)
    assert rep.verdict == "positive_on_samples"
    assert rep.negativity is None


def test_gaussian_density_is_positive_over_moyal():
    T = FormalFunctional.density(CTX, GAUSS)
    f = fn(Q) + fn(P).scale(EC_I)
    samples = (Fraction(1, 10), Fraction(1, 2), Fraction(1))
    rep = positivity_check(MOYAL, T, [f], lambda_samples=samples)
    assert rep.verdict == "positive_on_samples"
    assert rep.details[0]["value"] == "pi*lam^-1 - pi"


def test_classical_and_bullet_positivity_agree(rng):
    # the bullet verdict coincides with the verdict of the plain action
    monos = [ONE + fn(Q), fn(Q), fn(Q) + fn(P).scale(EC_I), fn(Q * P)]
    samples = (Fraction(1, 2), Fraction(1), Fraction(2))
    for _ in range(8):
        T = rand_functional(rng)
        T = (T + T.conj()).rescale(Fraction(1, 2))  # real part
        if not T:
            # a draw with no real part: the zero functional certifies nothing
            with pytest.raises(ScopeError, match="nonzero functional"):
                positivity_check(BULLET, T, monos, lambda_samples=samples)
            continue
        rep = positivity_check(BULLET, T, monos, lambda_samples=samples)
        classical_negative = False
        for f in monos:
            value = func_action(T, fs_bullet(f.conj(), f))
            for s in samples:
                if coeff_sign(scalar_eval(value, LambdaBinding.strict(s))) < 0:
                    classical_negative = True
        assert (rep.verdict == "negative") == classical_negative


def test_per_power_positivity_is_the_wrong_reading():
    # demanding nonnegativity per lambda power would force <delta, |f|^2> = 0
    phi = ONE + fn(Q)
    value = func_action(DELTA, fs_bullet(phi.conj(), phi))
    assert value == FormalScalar.one()  # |phi(0)|^2
    up = fs_linear_comb(FormalScalar.one() + FormalScalar.lam(), phi,
                        FormalScalar.zero(), phi)
    down = fs_linear_comb(FormalScalar.one() - FormalScalar.lam(), phi,
                          FormalScalar.zero(), phi)
    plus = func_action(DELTA, fs_bullet(up.conj(), up))
    minus = func_action(DELTA, fs_bullet(down.conj(), down))
    # the lam coefficients have opposite signs, so both can only be
    # nonnegative when the witness value vanishes
    assert plus.coefficient(1) == ExactComplex(2)
    assert minus.coefficient(1) == ExactComplex(-2)
    # while the adopted partial-sum reading accepts both witnesses
    rep = positivity_check(BULLET, DELTA, [up, down])
    assert rep.verdict == "positive_on_samples"


@pytest.mark.parametrize("T", [DELTA, FormalFunctional.density(CTX, GAUSS)],
                         ids=["delta", "density"])
@pytest.mark.parametrize("f", [fn(GAUSS), fn((Q + P.scale(EC_I)) * GaussPoly.gaussian(
    CTX, Fraction(1, 2)))], ids=["gauss", "q+ip_gauss"])
def test_positivity_refuses_a_value_that_does_not_terminate(T, f):
    # the star square of a Gaussian witness has no last term; a sign read off
    # its cut-off tail once made <delta, gauss(1) * gauss(1)>_* = lam^-1/(1+lam^2)
    # "negative" at two orders and positive at two others
    from starforge import TruncatedTailError

    with pytest.raises(TruncatedTailError) as err:
        positivity_check(MOYAL, T, [fn(Q), f])
    message = str(err.value)
    assert message.startswith("positivity decides exact values only")
    assert render_function(f) in message and "order" not in message


def test_positivity_refuses_a_witness_with_a_tail():
    from starforge import TruncatedTailError

    f = FormalFunction(CTX, 0, [GaussSum.of(Q), GaussSum.of(P)], 1)
    for S in (MOYAL, BULLET):
        with pytest.raises(TruncatedTailError) as err:
            positivity_check(S, DELTA, [f])
        assert "witness q + p*lam + O(lam^2) does not terminate" in str(err.value)


def test_positivity_refuses_a_value_that_is_not_real():
    # coeff_sign keeps its own ValueError; positivity names the witness instead
    from starforge import EngineError

    T = DELTA.rescale(EC_I)
    with pytest.raises(EngineError) as err:
        positivity_check(MOYAL, T, [ONE])
    assert not isinstance(err.value, ValueError)
    assert str(err.value) == ("positivity needs real values, and the value for "
                              "witness 1 is I*lam^-1")
    with pytest.raises(ValueError, match="sign of a non-real value"):
        coeff_sign(EC_I)


def test_positivity_without_a_witness_is_a_scope_error():
    with pytest.raises(ScopeError):
        positivity_check(MOYAL, DELTA, [])


def test_a_zero_functional_or_witness_is_a_scope_error(monkeypatch):
    # 0 >= 0 says nothing about a state, a zero witness pairs to 0, and the
    # zero functional satisfies every eigen-equation; all fail before a product
    from starforge import functionals_states

    def no_products(*args):
        raise AssertionError("a zero functional or witness must fail before any product")

    monkeypatch.setattr(functionals_states, "star_mul", no_products)
    zero = DELTA - DELTA
    assert not zero and not DELTA.rescale(0)
    with pytest.raises(ScopeError, match="nonzero functional"):
        positivity_check(MOYAL, DELTA.rescale(0), [fn(Q)])
    with pytest.raises(ScopeError, match="nonzero witness"):
        positivity_check(MOYAL, DELTA, [fn(Q), FormalFunction.zero(CTX)])
    with pytest.raises(ScopeError, match="eigenfunctional must be nonzero"):
        eigencheck_bullet(fn(Q), 0, zero, 1)
    with pytest.raises(ScopeError, match="eigenfunctional must be nonzero"):
        eigencheck_star(MOYAL, fn(Q), 0, zero, 1)


def test_positivity_without_a_lambda_sample_is_a_scope_error():
    with pytest.raises(ScopeError):
        positivity_check(MOYAL, DELTA, [fn(Q)], lambda_samples=())


def test_positivity_reads_one_shot_samples_once(monkeypatch):
    from starforge import functionals_states

    f = fn(Q) + fn(P.scale(EC_I))
    samples = (Fraction(1, 2), Fraction(3))
    want = positivity_check(MOYAL, DELTA, [f, fn(Q)], lambda_samples=samples)
    got = positivity_check(MOYAL, DELTA, [f, fn(Q)], lambda_samples=iter(samples))
    assert got.to_json() == want.to_json()
    assert got.samples == samples

    def no_products(*args):
        raise AssertionError("an empty sample list must fail before any product")

    monkeypatch.setattr(functionals_states, "star_mul", no_products)
    with pytest.raises(ScopeError):
        positivity_check(MOYAL, DELTA, [f], lambda_samples=(s for s in ()))


# ---- normalization ----

def test_normalize_delta_over_moyal():
    A, T = normalize_functional(MOYAL, DELTA, 4)
    assert A == FormalScalar.lam()
    assert A.tail is None
    assert func_star_action(MOYAL, T, ONE) == FormalScalar.one()


def test_normalize_gaussian_density():
    T0 = FormalFunctional.density(CTX, GAUSS)
    A, T = normalize_functional(MOYAL, T0, 4)
    assert render_scalar(A) == "1/pi*lam"
    assert A.coefficient(1) * PiScalar.pi() == PiScalar.const(1)
    assert func_star_action(MOYAL, T, ONE) == FormalScalar.one()


def test_normalize_series_weights():
    # <T, 1> = 2 + lam inverts into the alternating geometric series
    T = FormalFunctional(CTX, 0, ((PointDeriv(CTX, (0, 0), None, ExactComplex(2)),),
                                  (PointDeriv(CTX, (0, 0)),)))
    A, Tn = normalize_functional(BULLET, T, 6)
    assert A.coefficient(1) == ExactComplex(Fraction(1, 2))
    assert A.coefficient(2) == ExactComplex(Fraction(-1, 4))
    assert A.coefficient(3) == ExactComplex(Fraction(1, 8))
    check = func_star_action(BULLET, Tn, ONE)
    assert check == FormalScalar.one()
    assert check.known_through() >= 6


def test_normalize_random_functionals(rng):
    # the lowest grade must pair nonzero with 1, as in the recurrence setup
    made = 0
    while made < 10:
        T = rand_functional(rng)
        c = func_star_action(MOYAL, T, ONE)
        if not c.coeffs or c.valuation != T.valuation - 1:
            continue
        made += 1
        A, Tn = normalize_functional(MOYAL, T, 6)
        check = func_star_action(MOYAL, Tn, ONE)
        assert check == FormalScalar.one()
        assert check.known_through() >= 6


def test_unnormalizable_functional():
    T = FormalFunctional.point_deriv(CTX, (0, 0), (1, 0))
    with pytest.raises(NotNormalizable):
        normalize_functional(MOYAL, T, 4)


# ---- classical genvalue check ----

def test_classical_eigen_examples():
    h = Q * Q + P * P
    assert eigencheck_classical(h, 5, (1, 2)).passed
    assert eigencheck_classical(h, 0, (0, 0)).passed
    rep = eigencheck_classical(Q, 2, (1, 0))
    assert not rep.passed
    assert rep.first_failure["witness"] == "1"


def test_classical_eigen_decides_transcendental_values():
    rep = eigencheck_classical(GAUSS, 0, (1, 0))
    assert not rep.passed
    assert "exp" in rep.first_failure["residual"]
    # a vanishing polynomial factor hides the exponential entirely
    f = (Q + GaussPoly.constant(CTX, -1)) * GAUSS
    assert eigencheck_classical(f, 0, (1, 0)).passed


# ---- bullet genvalue check ----

def test_bullet_eigen_accepts_matching_points():
    assert eigencheck_bullet(fn(Q), 1, FormalFunctional.delta(CTX, (1, 0)), 2).passed
    xi = FormalFunction(CTX, 0, (Q, P))  # q + lam p
    a = FormalScalar.from_coeff_map({0: 1, 1: 2})
    assert eigencheck_bullet(xi, a, FormalFunctional.delta(CTX, (1, 2)), 2).passed


def test_bullet_eigen_rejects_value_mismatch():
    rep = eigencheck_bullet(fn(Q), 2, FormalFunctional.delta(CTX, (1, 0)), 2)
    assert not rep.passed


def test_bullet_eigen_rejects_density_support():
    T = FormalFunctional.density(CTX, GAUSS)
    rep = eigencheck_bullet(fn(Q), 1, T, 2)
    assert not rep.passed
    assert rep.first_failure == {"witness": "1", "residual": "-pi"}


def test_bullet_eigen_evaluates_residuals_at_a_strict_lambda():
    # xi = 1 with genvalue lam leaves the residual 1 - lam at the test function 1
    lam = FormalScalar.lam(1, 1)
    assert eigencheck_bullet(ONE, lam, DELTA, 1).first_failure == {
        "witness": "1", "residual": "1 - lam"}
    rep = eigencheck_bullet(ONE, lam, DELTA, 1, binding=LambdaBinding.strict(1))
    assert rep.passed and [r for _, r in rep.residuals] == ["0", "0", "0"]
    rep = eigencheck_bullet(ONE, lam, DELTA, 1, binding=LambdaBinding.strict(Fraction(1, 2)))
    assert rep.first_failure == {"witness": "1", "residual": "1/2"}


def test_bullet_eigen_binds_lambda_widths():
    W = wigner_state(CTX, 1)
    with pytest.raises(FormalModeError):
        eigencheck_bullet(fn(Q), 1, W, 1)
    binding = LambdaBinding.strict(Fraction(1, 3))
    rep = eigencheck_bullet(fn(Q), 1, W, 1, binding=binding)
    bound = eigencheck_bullet(fn(Q), 1, bind_functional(W, binding), 1, binding=binding)
    assert rep.to_json() == bound.to_json()
    assert (rep.kind, rep.commutation) == ("bullet", ())
    assert not rep.passed


def test_bullet_eigen_solutions_form_a_module():
    # scalar multiples of a solution stay solutions
    T = FormalFunctional.delta(CTX, (1, 0))
    c = FormalScalar.from_coeff_map({0: ExactComplex(2, -3), 1: 5})
    assert eigencheck_bullet(fn(Q), 1, T.scale_by_scalar(c), 2).passed


# ---- star genvalue check ----

def oscillator():
    return fn((Q * Q + P * P).scale(Fraction(1, 2)))


def test_strict_oscillator_spectrum():
    for lam in (Fraction(1), Fraction(1, 2)):
        binding = LambdaBinding.strict(lam)
        for n in range(4):
            W = wigner_state(CTX, n)
            a = FormalScalar.lam(1, Fraction(2 * n + 1, 2))
            rep = eigencheck_star(MOYAL, oscillator(), a, W, 2, binding=binding)
            assert rep.passed, (lam, n)
            assert all(r == "0" for _, r in rep.residuals)
            assert all(c == "0" for _, c in rep.commutation)


def test_strict_oscillator_rejects_wrong_eigenvalues():
    binding = LambdaBinding.strict(Fraction(1))
    W = wigner_state(CTX, 0)
    a = FormalScalar.lam(1, Fraction(3, 2))
    rep = eigencheck_star(MOYAL, oscillator(), a, W, 2, binding=binding)
    assert not rep.passed


def test_formal_star_eigen_support_collapse():
    rep = eigencheck_star(MOYAL, fn(Q), FormalScalar.zero(), DELTA, 1)
    assert not rep.passed
    assert rep.first_failure["witness"] == "p"
    assert rep.first_failure["residual"] == "-1/2*I"


def _commutation_by_star_commutator(S, xi, T, test_degree, order, binding):
    # each entry as it was defined: <T, psi * xi - xi * psi>_* through star_commutator
    Tb = bind_functional(T, binding)
    out = []
    for psi in _test_monomials(CTX, test_degree):
        c = func_star_action(S, Tb, star_commutator(S, fn(psi), xi, order), order)
        out.append((render_gausspoly(psi),
                    str(scalar_eval(c, binding)) if binding.is_strict else render_scalar(c)))
    return out


@pytest.mark.parametrize("level", range(4))
def test_star_commutation_entries_equal_the_star_commutator(level):
    binding = LambdaBinding.strict(Fraction(1, 2))
    W = wigner_state(CTX, level)
    xi = fn(Q * P + Q)
    rep = eigencheck_star(MOYAL, xi, FormalScalar.lam(1, Fraction(2 * level + 1, 2)), W, 3,
                          binding=binding)
    want = _commutation_by_star_commutator(MOYAL, xi, W, 3, None, binding)
    assert list(rep.commutation) == want
    assert any(c != "0" for _, c in want)


def test_truncated_star_commutation_entries_equal_the_star_commutator():
    T = FormalFunctional.density(CTX, GaussPoly.gaussian(CTX, Fraction(1, 2)))
    xi = FormalFunction(CTX, 0, [Q * P * GAUSS, (Q * Q * P).scale(3) * GAUSS], 1)
    rep = eigencheck_star(MOYAL, xi, 0, T, 2)
    want = _commutation_by_star_commutator(MOYAL, xi, T, 2, 1, FORMAL)
    assert list(rep.commutation) == want
    assert all(c.endswith("O(lam^1)") for _, c in want)
    assert any(not c.startswith("0") for _, c in want)


def test_formal_mode_rejects_lambda_widths():
    W = wigner_state(CTX, 1)
    a = FormalScalar.lam(1, Fraction(3, 2))
    with pytest.raises(FormalModeError):
        eigencheck_star(MOYAL, oscillator(), a, W, 1, binding=FORMAL)


# ---- oscillator states ----

def test_laguerre_recurrence_against_sympy():
    import sympy

    x = sympy.Symbol("x")
    for n in range(6):
        got = _laguerre_coeffs(n)
        poly = sympy.laguerre_poly(n, x)
        want = [Fraction(str(poly.coeff(x, k))) for k in range(n + 1)]
        assert got == want


def test_wigner_profiles_match_the_laguerre_expansion():
    import sympy

    x = sympy.Symbol("x")
    for n in range(4):
        W = wigner_state(CTX, n)
        assert W.valuation == -n
        poly = sympy.laguerre_poly(n, x)
        r2 = Q * Q + P * P
        for j in range(n + 1):
            grade = W.coefficient(-j)  # (r^2)^j rides at lam^-j
            c = Fraction(str(poly.coeff(x, j))) * 2 ** j * (-1) ** n
            expect = GaussPoly.constant(CTX, 1)
            for _ in range(j):
                expect = expect * r2
            expect = expect.scale(c)
            if not expect:
                assert grade == ()
                continue
            assert len(grade) == 1
            term = grade[0]
            assert isinstance(term, Density)
            assert term.width_lambda == 1
            assert term.g == expect


def test_wigner_binding_resolves_widths():
    W = wigner_state(CTX, 0)
    bound = bind_functional(W, LambdaBinding.strict(Fraction(1, 2)))
    assert not bound.has_width()
    term = bound.coefficient(0)[0]
    assert [p.alpha for p in term.g.parts] == [2]  # 1 / lam
    with pytest.raises(FormalModeError):
        bind_functional(W, FORMAL)


def test_wigner_state_guards():
    with pytest.raises(NotSupportedForm):
        wigner_state(PhaseContext(2), 0)
    with pytest.raises(ValueError):
        wigner_state(CTX, -1)


# ---- negative regions ----

def test_negative_region_formal():
    f = Q + P.scale(EC_I)
    rep = negative_region(fn(f))
    assert rep.verified
    assert rep.center == (0, 0)
    assert rep.min_value == FormalScalar.lam(1, -1)
    assert rep.area_str == "pi*lam"
    assert rep.to_json()["min"] == "-lam"


def test_negative_region_strict_spot_check():
    f = (Q + GaussPoly.constant(CTX, -1)) \
        + (P + GaussPoly.constant(CTX, Fraction(1, 2))).scale(ExactComplex(0, 2))
    rep = negative_region(fn(f), LambdaBinding.strict(Fraction(1, 3)))
    assert rep.verified
    assert rep.center == (1, Fraction(-1, 2))
    assert rep.min_value == Fraction(-2, 3)
    assert rep.semi_axes_squared == (Fraction(2, 3), Fraction(1, 6))
    assert rep.area_str == "pi*1/3"


def test_negative_region_guards():
    with pytest.raises(NotSupportedForm):
        negative_region(fn(Q))  # no imaginary part
    with pytest.raises(NotSupportedForm):
        negative_region(fn(Q * Q))  # not degree one
    with pytest.raises(NotSupportedForm):
        negative_region(fn(Q.scale(2) + P.scale(EC_I)))  # q coefficient not 1
    with pytest.raises(NotSupportedForm, match="one pair only"):
        negative_region(fn(GaussPoly.coordinate(PhaseContext(2), "q1")))


# ---- JSON ----

def test_functional_json_schema():
    payload = DELTA.to_json()
    assert payload == {
        "valuation": 0,
        "coeffs": [[{"kind": "point_deriv", "point": [[0, 1], [0, 1]],
                     "index": [0, 0], "weight": [1, 1, 0, 1]}]],
        "tail": "exact",
    }
    wj = wigner_state(CTX, 1).to_json()
    assert wj["valuation"] == -1
    kinds = [t["kind"] for grade in wj["coeffs"] for t in grade]
    assert kinds == ["density", "density"]
    assert wire.functional_series(payload)[1] == [[{
        "kind": "point_deriv", "point": (0, 0), "index": (0, 0), "weight": (1, 0)}]]
    valuation, grades, tail = wire.functional_series(wj)
    assert (valuation, tail) == (-1, None)
    assert [[(t["profile"], t["width_lambda"]) for t in grade] for grade in grades] == [
        [("2*q^2 + 2*p^2", 1)], [("-1", 1)]]
