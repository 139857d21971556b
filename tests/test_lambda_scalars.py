"""Laurent scalars: frozen arithmetic examples, tail bookkeeping, field laws."""

import ast
import operator
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import starforge
from starforge import lambda_scalars, star_products
from starforge import (
    EC_I,
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    FORMAL,
    FormalModeError,
    FormalScalar,
    LambdaBinding,
    PiScalar,
    TruncatedTailError,
    ZeroNotInvertible,
    agree,
    agreement_depth,
    render_scalar,
    scalar_eval,
    scalar_invert,
    scalar_to_json,
)

import wire
from corpus import nonzero_scalar, rand_scalar, scalar_view


def series(mapping, tail=None):
    return FormalScalar.from_coeff_map(mapping, tail)


# ---- coefficient field ----

def test_exact_complex_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    b = ExactComplex(2, 1)
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(2, 3))
    assert a * b == ExactComplex(Fraction(4, 3), Fraction(-1, 6))
    assert (a / b) * b == a
    assert -a + a == EC_ZERO
    assert EC_I * EC_I == ExactComplex(-1)
    assert a.conj().conj() == a
    assert (a * a.conj()).is_real()


def test_exact_complex_reciprocal_and_pow():
    c = ExactComplex(3, -4)
    assert c * c.reciprocal() == EC_ONE
    assert c ** 3 == c * c * c
    assert c ** 0 == EC_ONE
    with pytest.raises(ZeroDivisionError):
        EC_ZERO.reciprocal()


def test_exact_complex_json_roundtrip():
    c = ExactComplex(Fraction(-7, 3), Fraction(5, 11))
    assert c.to_json() == [-7, 3, 5, 11]
    assert wire.complex_rational(c.to_json()) == (Fraction(-7, 3), Fraction(5, 11))


# ---- ExactComplex against a plain (Fraction, Fraction) reference ----
# The reference below is the oracle: pair arithmetic written out here, with
# the rendering rules spelled out on Fractions, independent of how
# ExactComplex stores its parts.

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_reciprocal(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    unit = {1: "I", -1: "-I"}.get(im, "%s*I" % im)
    if re == 0:
        return unit
    return "%s%s%s" % (re, "" if unit.startswith("-") else "+", unit)


def assert_matches(value, want):
    """value is the canonical ExactComplex of the pair want, in every view."""
    assert type(value) is ExactComplex
    a, b, d = value.a, value.b, value.d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == want
    assert (value.re, value.im) == want
    twin = ExactComplex(*want)
    assert value == twin and hash(value) == hash(twin)
    if want[1] == 0:
        assert value == want[0] and hash(value) == hash(want[0])
    else:
        assert value != want[0]
    assert str(value) == ref_str(want)
    assert value.to_json() == [want[0].numerator, want[0].denominator,
                               want[1].numerator, want[1].denominator]
    assert bool(value) == (want != (0, 0))
    assert value.is_real() == (want[1] == 0)


big = st.integers(-10 ** 30, 10 ** 30)
ref_fracs = st.builds(Fraction, st.integers(-40, 40) | big,
                      st.integers(1, 60) | st.integers(1, 10 ** 20))
ref_pairs = st.tuples(ref_fracs, ref_fracs)
# an operand and its reference pair: ExactComplex, int or Fraction
operands = st.one_of(
    ref_pairs.map(lambda x: (ExactComplex(*x), x)),
    (st.integers(-40, 40) | big).map(lambda n: (n, (Fraction(n), Fraction(0)))),
    ref_fracs.map(lambda f: (f, (f, Fraction(0)))),
)


@given(ref_pairs, operands)
def test_binary_operations_match_the_pair_reference(x, y):
    ex = ExactComplex(*x)
    other, y = y
    assert_matches(ex + other, ref_add(x, y))
    assert_matches(other + ex, ref_add(y, x))
    assert_matches(ex - other, ref_sub(x, y))
    assert_matches(other - ex, ref_sub(y, x))
    assert_matches(ex * other, ref_mul(x, y))
    assert_matches(other * ex, ref_mul(y, x))
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            ex / other
    else:
        assert_matches(ex / other, ref_mul(x, ref_reciprocal(y)))
    if x == (0, 0):
        with pytest.raises(ZeroDivisionError):
            other / ex
    else:
        assert_matches(other / ex, ref_mul(y, ref_reciprocal(x)))
    assert (ex == other) == (x == y) == (other == ex)
    assert (ex != other) == (x != y)
    if x == y:
        assert hash(ex) == hash(other)


@given(ref_pairs, st.integers(0, 6))
def test_unary_operations_match_the_pair_reference(x, k):
    ex = ExactComplex(*x)
    assert_matches(ex, x)
    assert_matches(-ex, (-x[0], -x[1]))
    assert_matches(ex.conj(), (x[0], -x[1]))
    assert_matches(ex ** k, ref_pow(x, k))
    assert wire.complex_rational(ex.to_json()) == x
    if x == (0, 0):
        with pytest.raises(ZeroDivisionError):
            ex.reciprocal()
    else:
        assert_matches(ex.reciprocal(), ref_reciprocal(x))


def test_exact_complex_constructor_validates():
    assert_matches(ExactComplex("6/4", "-2"), (Fraction(3, 2), Fraction(-2)))
    assert_matches(ExactComplex(), (Fraction(0), Fraction(0)))
    assert (EC_ZERO.a, EC_ZERO.b, EC_ZERO.d) == (0, 0, 1)
    for bad in (0.5, 1j, None, [1], True):
        with pytest.raises(TypeError):
            ExactComplex(bad)
        with pytest.raises(TypeError):
            ExactComplex(1, bad)
    with pytest.raises(AttributeError):
        EC_ONE.a = 2
    with pytest.raises(AttributeError):
        EC_ONE.re = 2


def test_equal_values_hash_equal_across_the_coefficient_floors():
    cases = [
        (ExactComplex(2), 2),
        (ExactComplex(Fraction(5, 3)), Fraction(5, 3)),
        (PiScalar.pi(0) * ExactComplex(3), 3),
        (PiScalar.pi(0) * ExactComplex(3), ExactComplex(3)),
        (PiScalar.const(3), 3),
        (PiScalar.const(3), ExactComplex(3)),
        (PiScalar.const(3), PiScalar((ExactComplex(3),), (EC_ONE,))),
        (PiScalar.const(ExactComplex(1, 2)), ExactComplex(1, 2)),
        (PiScalar.pi(2) * Fraction(-1, 3), PiScalar((0, 0, Fraction(-1, 3)))),
        (PiScalar.const(0), 0),
        (PiScalar.pi(4) * 0, EC_ZERO),
    ]
    for left, right in cases:
        assert left == right and right == left, (left, right)
        assert hash(left) == hash(right), (left, right)
        assert len({left, right}) == 1, (left, right)
    assert len({2, Fraction(2), ExactComplex(2), PiScalar.pi(0) * 2, PiScalar.const(2)}) == 1
    # values that differ stay apart
    assert len({PiScalar.pi() * 3, PiScalar.const(3), ExactComplex(3, 1)}) == 3


@pytest.mark.parametrize("one", [EC_ONE, PiScalar.const(1), FormalScalar.one()],
                         ids=["ExactComplex", "PiScalar", "FormalScalar"])
def test_equality_answers_every_operand_as_exact_complex_does(one):
    # a bool is the int it is, anything that is not exact is unequal, and no
    # operand makes == or != raise
    for other, equal in ((True, True), (False, False), (1, True), (1.0, False),
                         ("1", False), (None, False)):
        assert (one == other) is equal and (other == one) is equal, other
        assert (one != other) is not equal, other
        assert (EC_ONE == other) is equal, other
    # a PiScalar still refuses arithmetic with a bool
    if isinstance(one, PiScalar):
        with pytest.raises(TypeError, match="True"):
            one + True


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "div"])
def test_arithmetic_refuses_a_bool_on_either_side(op, flag):
    # as the constructors do: a bool is no coefficient, though == reads it as its int
    for one in (EC_ONE, PiScalar.const(1), FormalScalar.one()):
        with pytest.raises(TypeError):
            op(one, flag)
        with pytest.raises(TypeError):
            op(flag, one)


def test_formal_scalars_are_unhashable():
    # truncated agreement: both pairs are equal, and no hash could follow
    # an equality that is not transitive
    assert FormalScalar(0, [1, 2], 1) == FormalScalar(0, [1], 0)
    assert FormalScalar.from_const(3) == 3
    for value in (FormalScalar(0, [1, 2], 1), FormalScalar.from_const(3), FormalScalar.zero()):
        with pytest.raises(TypeError):
            hash(value)


def test_coefficient_brackets_in_rendered_scalars():
    def render(c):
        return render_scalar(FormalScalar(0, [c], None)), render_scalar(FormalScalar(1, [c], None))

    # a product brackets its own sum; a sum or a quotient with a sum is bracketed
    assert render(PiScalar.pi() * ExactComplex(Fraction(44, 63), Fraction(16, 27))) == (
        "(44/63+16/27*I)*pi", "(44/63+16/27*I)*pi*lam")
    assert render(ExactComplex(1, -2)) == ("(1-2*I)", "(1-2*I)*lam")
    assert render(PiScalar((EC_ONE, EC_ONE))) == ("(1 + pi)", "(1 + pi)*lam")
    assert render(PiScalar((EC_ONE,), (ExactComplex(-1), EC_ONE))) == (
        "(1/(-1 + pi))", "(1/(-1 + pi))*lam")
    assert render(PiScalar.pi(2) * Fraction(-3, 4)) == ("-3/4*pi^2", "-3/4*pi^2*lam")


def test_print_rules_that_differ_between_callers():
    import starforge as sf

    # a pi polynomial prints its constant term unbracketed, a lam series does not
    assert str(PiScalar((ExactComplex(1, 1), 1))) == "1+I + pi"
    assert str(PiScalar((ExactComplex(1, 1), -EC_I), (1, 1))) == "(1+I - I*pi)/(1 + pi)"
    assert str(FormalScalar(0, (PiScalar((ExactComplex(1, 1), 1)), -1))) == "(1+I + pi) - lam"
    # a Gaussian part brackets a negative constant before its exp factor
    ctx = sf.PhaseContext(1)
    two_widths = sf.GaussSum(ctx, (sf.GaussPoly.constant(ctx, ExactComplex(1, -1)),
                                   sf.GaussPoly.gaussian(ctx, 1).scale(-1)))
    assert str(two_widths) == "(1-I) + (-1)*exp(-r^2)"


def _frozen_instances():
    import starforge as sf

    ctx = sf.PhaseContext(1)
    gauss = sf.GaussPoly.gaussian(ctx, 1)
    moyal = sf.moyal_family(ctx)
    delta = sf.FormalFunctional.delta(ctx)
    return {
        "ExactComplex": (EC_ONE, "a"),
        "LaurentSeries": (FormalScalar.one(), "coeffs"),
        "LambdaBinding": (LambdaBinding(1), "value"),
        "PhaseContext": (ctx, "n"),
        "PiScalar": (PiScalar.pi(), "num"),
        "GaussPoly": (gauss, "alpha"),
        "GaussSum": (sf.GaussSum.of(gauss), "parts"),
        "StarFamily": (moyal, "name"),
        "ClosednessReport": (sf.closedness_check(moyal, gauss, gauss, 1), "closed"),
        "AxiomReport": (sf.AxiomReport("moyal", {}, {}), "entries"),
        "PointDeriv": (sf.PointDeriv(ctx, (0, 0)), "weight"),
        "Density": (sf.Density(ctx, gauss), "g"),
        "RealityReport": (sf.reality_check(delta), "verdict"),
        "PositivityReport": (sf.PositivityReport("negative", (), (), None, {}), "verdict"),
        "EigenReport": (sf.eigencheck_classical(gauss, 1, (0, 0)), "verdict"),
        "RegionReport": (sf.RegionReport((0, 0), 0, "0", (), "pi", True), "verified"),
    }


@pytest.mark.parametrize("name", sorted(_frozen_instances()))
def test_every_value_and_report_class_is_immutable(name):
    import starforge as sf

    value, slot = _frozen_instances()[name]
    assert isinstance(value, getattr(sf.lambda_scalars, name, None) or getattr(sf, name))
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match="%s is immutable" % type(value).__name__):
        setattr(value, slot, None)
    with pytest.raises(AttributeError):
        value.not_a_slot = 1
    assert getattr(value, slot) is before


def _slot_values(value):
    return [getattr(value, name)
            for c in type(value).__mro__ for name in c.__dict__.get("__slots__", ())]


@pytest.mark.parametrize("name", sorted(_frozen_instances()))
def test_every_value_and_report_class_copies(name):
    import copy

    value, slot = _frozen_instances()[name]
    shallow = copy.copy(value)
    assert type(shallow) is type(value)
    assert all(a is b for a, b in zip(_slot_values(shallow), _slot_values(value), strict=True))
    deep = copy.deepcopy(value)
    assert type(deep) is type(value)
    if type(value).__eq__ is object.__eq__:
        # records without a value equality compare by what they print
        assert str(deep) == str(value)
    else:
        assert deep == value
    with pytest.raises(AttributeError, match="immutable"):
        setattr(deep, slot, None)


@pytest.mark.parametrize("name", ["ExactComplex", "LaurentSeries", "LambdaBinding",
                                  "PhaseContext", "PiScalar", "GaussPoly", "GaussSum",
                                  "PointDeriv", "Density"])
def test_a_value_survives_a_pickle_round_trip(name):
    import copy
    import pickle

    value, _ = _frozen_instances()[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value and copy.deepcopy(value) == value


def test_functions_and_functionals_survive_a_pickle_round_trip():
    import pickle

    import starforge as sf

    ctx = sf.PhaseContext(1)
    F = sf.FormalFunction(ctx, -1, (sf.GaussPoly.coordinate(ctx, "q"),
                                    sf.GaussPoly.gaussian(ctx, 2)), tail=3)
    T = sf.wigner_state(ctx, 2) + sf.FormalFunctional.delta(ctx, (1, "1/2"))
    for value in (F, T, FormalScalar.from_coeff_map({-1: 2, 0: EC_ONE}, tail=4)):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and str(back) == str(value) and back.tail == value.tail


def test_a_frozen_record_takes_exactly_its_fields():
    import starforge as sf

    with pytest.raises(ValueError):
        sf.AxiomReport("moyal", {})
    with pytest.raises(ValueError):
        sf.AxiomReport("moyal", {}, {}, None)


# ---- construction and canonical form ----

def test_leading_zeros_are_pruned():
    s = FormalScalar(-2, (0, 0, 1, 1))
    assert s.valuation == 0
    assert s.coeffs == (EC_ONE, EC_ONE)


def test_trailing_zeros_are_pruned_when_exact():
    s = FormalScalar(0, (1, 0, 0))
    assert s.coeffs == (EC_ONE,)
    assert s.end() == 0


def test_truncated_zero_canonical_form():
    s = series({}, tail=5)
    assert s.coeffs == ()
    assert s.valuation == 6
    assert s.tail == 5
    assert not s


def test_truncation_pads_known_zeros():
    s = FormalScalar(0, (1,), tail=2)
    assert s.coefficient(1) == EC_ZERO
    assert s.coefficient(2) == EC_ZERO
    assert s.coefficient(3) is None


def test_valuation_must_be_an_integer():
    with pytest.raises(ValueError):
        FormalScalar("-inf", (1,))


# ---- addition ----

def test_add_example_merges_powers():
    s = series({0: 1, 1: 1}) + series({-1: 1})
    assert s == series({-1: 1, 0: 1, 1: 1})
    assert s.tail is None
    assert render_scalar(s) == "lam^-1 + 1 + lam"


def test_add_keeps_the_weaker_tail():
    a = series({0: 1, 1: -1}, tail=3)
    b = series({3: 1, 4: 1})
    s = a + b
    assert s.tail == 3
    assert s.coefficient(0) == EC_ONE
    assert s.coefficient(1) == -EC_ONE
    assert s.coefficient(2) == EC_ZERO
    assert s.coefficient(3) == EC_ONE
    assert s.coefficient(4) is None
    assert render_scalar(s) == "1 - lam + lam^3 + O(lam^4)"


# ---- multiplication ----

def test_mul_difference_of_squares():
    s = series({0: 1, 1: 1}) * series({0: 1, 1: -1})
    assert s == series({0: 1, 2: -1})


def test_mul_shifts_the_valuation():
    s = series({-1: 1, 0: 1}) * FormalScalar.lam()
    assert s == series({0: 1, 1: 1})


def test_mul_cauchy_example():
    s = series({0: 1, 1: 1, 2: 1}) * series({0: 1, 1: 1})
    assert s == series({0: 1, 1: 2, 2: 2, 3: 1})


def test_mul_truncation_shifts_by_partner_valuation():
    a = series({0: 1, 1: 1}, tail=2)
    b = series({1: 1})
    assert (a * b).tail == 3  # tail 2 shifted by the partner's valuation 1
    assert (a * b).coefficient(4) is None


def test_scale_shift_truncate():
    s = series({0: 1, 1: 2})
    assert s.scale(Fraction(1, 2)) == series({0: Fraction(1, 2), 1: 1})
    assert s.shift(-2) == series({-2: 1, -1: 2})
    t = s.truncate(0)
    assert t.tail == 0
    assert t.coefficient(1) is None


def test_integer_powers():
    s = series({0: 1, 1: 1})
    assert s ** 3 == series({0: 1, 1: 3, 2: 3, 3: 1})
    assert FormalScalar.lam(1, 2) ** -1 == series({-1: Fraction(1, 2)})


# ---- conjugation ----

def test_conj_changes_coefficients_not_lam():
    s = series({-1: ExactComplex(2, 3), 1: EC_I})
    c = s.conj()
    assert c.coefficient(-1) == ExactComplex(2, -3)
    assert c.coefficient(1) == -EC_I
    assert c.conj() == s


# ---- inversion ----

def test_invert_monomial_is_exact():
    inv = scalar_invert(FormalScalar.lam(), 0)
    assert inv == series({-1: 1})
    assert inv.tail is None
    inv2 = scalar_invert(series({2: 2}), 0)
    assert inv2 == series({-2: Fraction(1, 2)})
    assert inv2.tail is None


def test_invert_geometric_series():
    inv = scalar_invert(series({0: 1, 1: 1}), 3)
    assert inv.tail == 3
    assert inv == series({0: 1, 1: -1, 2: 1, 3: -1}, tail=3)


def test_invert_zero_raises():
    with pytest.raises(ZeroNotInvertible):
        scalar_invert(FormalScalar.zero(), 4)
    with pytest.raises(ZeroNotInvertible):
        scalar_invert(series({}, tail=3), 4)


def test_invert_contract_on_random_scalars(rng):
    # a * invert(a, 8) = 1 through lam^8, for 100 random leading-nonzero scalars
    for _ in range(100):
        a = nonzero_scalar(rng, lo=-3, hi=4)
        prod = a * scalar_invert(a, 8)
        assert prod.known_through() >= 8
        for z in range(prod.valuation, 9):
            want = EC_ONE if z == 0 else EC_ZERO
            assert prod.coefficient(z) == want


# ---- evaluation ----

def test_eval_polynomial_case():
    v = scalar_eval(series({0: 1, 1: 1, 2: 1}), LambdaBinding.strict(Fraction(1, 2)))
    assert v == ExactComplex(Fraction(7, 4))


def test_eval_negative_powers():
    v = scalar_eval(series({-1: 1}), LambdaBinding.strict(Fraction(1, 4)))
    assert v == ExactComplex(4)


def test_eval_refuses_truncated_series():
    with pytest.raises(TruncatedTailError):
        scalar_eval(series({0: 1}, tail=2), LambdaBinding.strict(1))


def test_eval_refuses_formal_binding():
    with pytest.raises(FormalModeError):
        scalar_eval(series({0: 1}), FORMAL)


def test_binding_equality():
    assert LambdaBinding.strict(Fraction(1, 2)) == LambdaBinding.strict(Fraction(1, 2))
    assert FORMAL != LambdaBinding.strict(1)
    assert not FORMAL.is_strict
    with pytest.raises(TypeError):
        LambdaBinding.strict(True)


# ---- agreement and convergence ----

def test_agree_compares_only_known_powers():
    a = series({0: 1, 1: 1}, tail=1)
    b = series({0: 1, 1: 1, 3: 5})
    assert agree(a, b)
    assert agreement_depth(a, b) == 1
    assert not agree(a, series({0: 1, 1: 2}))


# ---- JSON ----

def test_scalar_json_roundtrip(rng):
    for _ in range(20):
        s = rand_scalar(rng, tail=rng.choice([None, 3]))
        assert wire.scalar_series(scalar_to_json(s)) == scalar_view(s)


def test_scalar_json_carries_pi_valued_and_mixed_coefficients():
    # each coefficient in its own wire form: four ints, or a num/den object
    quotient = PiScalar((ExactComplex(1, 1), -EC_I), (1, 1))
    for s in (FormalScalar(-1, [PiScalar.pi(2) * Fraction(-3, 4)]),
              FormalScalar(-1, [PiScalar.pi(), ExactComplex(1, 2), quotient], 3),
              FormalScalar(0, [quotient, 0, PiScalar.const(5)])):
        data = scalar_to_json(s)
        assert [type(c) for c in data["coeffs"]] == [
            list if isinstance(c, ExactComplex) else dict for c in s.coeffs]
        assert wire.scalar_series(data) == scalar_view(s)
    assert scalar_to_json(FormalScalar(0, [PiScalar.pi()]))["coeffs"] == [
        {"num": [[0, 1, 0, 1], [1, 1, 0, 1]], "den": [[1, 1, 0, 1]]}]


# ---- algebraic laws ----

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coeff_maps = st.dictionaries(st.integers(-3, 4), st.tuples(fracs, fracs), max_size=5)
scalars = st.builds(
    lambda d: FormalScalar.from_coeff_map(
        {z: ExactComplex(re, im) for z, (re, im) in d.items()}),
    coeff_maps)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_additive_and_multiplicative_units(a):
    assert a + FormalScalar.zero() == a
    assert a * FormalScalar.one() == a
    assert a - a == FormalScalar.zero()


@given(scalars, scalars)
def test_valuation_is_additive(a, b):
    if a.coeffs and b.coeffs:
        assert (a * b).valuation == a.valuation + b.valuation


@given(scalars, scalars)
def test_conj_is_a_ring_homomorphism(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def test_the_engine_has_no_float_or_complex_literal_or_conversion():
    # the one float is the infinity sentinel, defined once and shared
    found = []
    for path in sorted(Path(starforge.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, str(path))):
            literal = isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "complex"))
            if literal or call:
                found.append((path.name, lines[node.lineno - 1].strip()))
    assert found == [("lambda_scalars.py", 'UNBOUNDED = float("inf")')]
    assert star_products.UNBOUNDED is lambda_scalars.UNBOUNDED
