"""The shared series core against a naive model written with plain dicts.

A series is modelled as ({power: coefficient}, tail): the dict holds the
nonzero coefficients known so far, and tail is None (exact) or the last
known power.  The model never calls the series classes; it only uses the
coefficient arithmetic (ExactComplex, GaussSum) underneath them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforge import (
    ExactComplex,
    FormalFunction,
    FormalFunctional,
    FormalScalar,
    GaussPoly,
    GaussSum,
    InfinitePrincipalPart,
    PhaseContext,
    PointDeriv,
    agree,
    agreement_depth,
    fs_bullet,
    fs_linear_comb,
    func_action,
)

CTX = PhaseContext(1)
ORIGIN = (0, 0)
INF = float("inf")


# ---- the model ----

def _depth(tail):
    return INF if tail is None else tail


def _low(m, tail):
    # lowest power that may be nonzero: inf for an exact zero
    return min(m) if m else _depth(tail) + 1


class Kind(object):
    """How the model reads, normalises and adds the coefficients of one kind."""

    def __init__(self, build, read, norm, add, coeffs):
        self.build, self.read, self.norm, self.add = build, read, norm, add
        self.coeffs = coeffs  # strategy for one coefficient

    def clean(self, m, tail):
        out = {}
        for z, c in m.items():
            c = self.norm(c)
            if c and z <= _depth(tail):
                out[z] = c
        return out

    def model_of(self, S):
        return {S.valuation + i: self.read(c) for i, c in enumerate(S.coeffs) if c}

    def sum(self, m1, t1, m2, t2):
        tail = None if t1 is None and t2 is None else min(_depth(t1), _depth(t2))
        out = dict(m1)
        for z, c in m2.items():
            out[z] = self.add(out[z], c) if z in out else c
        return self.clean(out, tail), tail

    def check(self, S, m, tail):
        """S holds exactly the model's coefficients in canonical form."""
        m = self.clean(m, tail)
        assert S.tail == tail
        assert self.model_of(S) == m
        if tail is None:
            v, n = (min(m), max(m) - min(m) + 1) if m else (0, 0)
        else:
            v = min(m) if m else tail + 1
            n = tail - v + 1
        assert (S.valuation, len(S.coeffs)) == (v, n)
        assert S.known_through() == _depth(tail)


def _terms_read(grade):
    out = {}
    for t in grade:
        out[t.index] = out.get(t.index, 0) + t.weight
    return out


def _terms_add(x, y):
    out = dict(x)
    for k, w in y.items():
        out[k] = out.get(k, 0) + w
    return out


def _terms_norm(c):
    return {k: w for k, w in c.items() if w}


def _build_functional(lo, coeffs, tail):
    return FormalFunctional(CTX, lo, [[PointDeriv(CTX, ORIGIN, k, w) for k, w in c.items()]
                                      if c else [] for c in coeffs], tail)


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
ec = st.builds(ExactComplex, small, st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
BASIS = [GaussPoly.constant(CTX, 1), GaussPoly.coordinate(CTX, "q"),
         GaussPoly.coordinate(CTX, "p"), GaussPoly.gaussian(CTX, 1),
         GaussPoly.monomial(CTX, (1, 1), 1, alpha=Fraction(1, 2))]
gauss_sums = st.lists(st.tuples(st.sampled_from(BASIS), ec), max_size=2).map(
    lambda parts: GaussSum(CTX, [f.scale(c) for f, c in parts]))
INDICES = [(0, 0), (1, 0), (0, 1), (2, 0)]
term_maps = st.dictionaries(st.sampled_from(INDICES), ec, max_size=2)


def _same(c):
    return c


def _plus(x, y):
    return x + y


SCALAR = Kind(FormalScalar, _same, _same, _plus, ec)
FUNCTION = Kind(lambda lo, cs, t: FormalFunction(CTX, lo, [c or GaussSum.zero(CTX) for c in cs],
                                                  t),
                _same, _same, _plus, gauss_sums)
FUNCTIONAL = Kind(_build_functional, _terms_read, _terms_norm, _terms_add, term_maps)
KINDS = {"scalar": SCALAR, "function": FUNCTION, "functional": FUNCTIONAL}

tails = st.one_of(st.none(), st.integers(-4, 4))


def draw_series(data, K):
    """A raw (unstripped) coefficient map, its tail and the series built from it."""
    m = data.draw(st.dictionaries(st.integers(-3, 3), K.coeffs, max_size=4))
    tail = data.draw(tails)
    pad = data.draw(st.integers(0, 2))
    lo = (min(m) if m else 0) - pad
    hi = max(m) if m else lo - 1
    zero = {} if K is FUNCTIONAL else None
    cs = [m.get(z, zero) for z in range(lo, hi + 1)]
    if K is SCALAR:
        cs = [0 if c is None else c for c in cs]
    return K.clean(m, tail), tail, K.build(lo, cs, tail)


def model_product(ma, ta, mb, tb, pair, add):
    """Graded Cauchy product: an exact zero factor annihilates, otherwise a
    factor known through N leaves N plus the partner's lowest power known."""
    t = min(_depth(ta) + _low(mb, tb), _depth(tb) + _low(ma, ta))
    tail = None if t == INF else t
    out = {}
    for i, x in ma.items():
        for j, y in mb.items():
            if i + j <= _depth(tail):
                p = pair(x, y)
                out[i + j] = add(out[i + j], p) if i + j in out else p
    return out, tail


def model_agree(m1, t1, m2, t2):
    d = min(_depth(t1), _depth(t2))
    return all(m1.get(z, None) == m2.get(z, None)
               for z in set(m1) | set(m2) if z <= d)


# ---- canonical form, sums, shift, truncation, equality ----

@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25)
@given(data=st.data())
def test_canonical_form_and_linear_operations_match_the_model(kind, data):
    K = KINDS[kind]
    m1, t1, A = draw_series(data, K)
    m2, t2, B = draw_series(data, K)
    K.check(A, m1, t1)
    K.check(A + B, *K.sum(m1, t1, m2, t2))
    if K is FUNCTIONAL:
        neg = {z: {k: -w for k, w in c.items()} for z, c in m2.items()}
    else:
        neg = {z: -c for z, c in m2.items()}
    K.check(A - B, *K.sum(m1, t1, neg, t2))
    k = data.draw(st.integers(-3, 3))
    K.check(A.shift(k), {z + k: c for z, c in m1.items()}, None if t1 is None else t1 + k)
    order = data.draw(st.integers(-4, 4))
    cut = order if t1 is None else min(t1, order)
    K.check(A.truncate(order), m1, cut)
    assert (A == B) is model_agree(m1, t1, m2, t2)
    assert A == A.truncate(order)
    assert agreement_depth(A, B) == min(_depth(t1), _depth(t2))


# ---- graded products ----

def _at_origin(gs, index):
    # (-1)^|index| (d^index gs)(0), the delta pairing of one coefficient
    for var, e in enumerate(index):
        for _ in range(e):
            gs = gs.diff(var)
    value = sum((v for v, _ in gs.eval_pairs(ORIGIN)), ExactComplex(0))
    return -value if sum(index) % 2 else value


PRODUCTS = {
    "scalar*scalar": (SCALAR, SCALAR, SCALAR, lambda a, b: a * b, lambda x, y: x * y),
    "scalar*function": (SCALAR, FUNCTION, FUNCTION,
                        lambda a, F: fs_linear_comb(a, F, FormalScalar.zero(),
                                                    FormalFunction.zero(CTX)),
                        lambda c, f: f.scale(c)),
    "function.function": (FUNCTION, FUNCTION, FUNCTION, fs_bullet, lambda x, y: x * y),
    "scalar*functional": (SCALAR, FUNCTIONAL, FUNCTIONAL,
                          lambda a, T: T.scale_by_scalar(a),
                          lambda c, w: {k: c * v for k, v in w.items()}),
    "<functional,function>": (FUNCTIONAL, FUNCTION, SCALAR, func_action,
                              lambda w, f: sum((v * _at_origin(f, k) for k, v in w.items()),
                                               ExactComplex(0))),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
@settings(max_examples=25)
@given(data=st.data())
def test_graded_products_match_the_model(name, data):
    KA, KB, KOUT, op, pair = PRODUCTS[name]
    ma, ta, A = draw_series(data, KA)
    mb, tb, B = draw_series(data, KB)
    KOUT.check(op(A, B), *model_product(ma, ta, mb, tb, pair, KOUT.add))


# ---- one valuation check and one tail rule for every kind ----

@pytest.mark.parametrize("build, error", [
    (lambda v: FormalScalar(v, [1]), ValueError),
    (lambda v: FormalFunction(CTX, v, [BASIS[1]]), ValueError),
    (lambda v: FormalFunctional(CTX, v, [[PointDeriv(CTX, ORIGIN)]]), InfinitePrincipalPart),
], ids=["scalar", "function", "functional"])
def test_bool_valuation_is_rejected_by_every_series_kind(build, error):
    for bad in (True, False, 1.0, None):
        with pytest.raises(error):
            build(bad)
    assert build(1).valuation == 1


@pytest.mark.parametrize("build, error", [
    (lambda t: FormalScalar(0, [1, 2, 3], t), ValueError),
    (lambda t: FormalFunction(CTX, 0, [BASIS[1], BASIS[2]], t), ValueError),
    (lambda t: FormalFunctional(CTX, 0, [[PointDeriv(CTX, ORIGIN)]] * 3, t),
     InfinitePrincipalPart),
], ids=["scalar", "function", "functional"])
def test_non_integer_tail_is_rejected_by_every_series_kind(build, error):
    # int() used to floor these: 1.9 became a tail at 1 and True a tail at 1
    for bad in (1.9, 2.0, True, False, "2", Fraction(2)):
        with pytest.raises(error):
            build(bad)
    assert build(1).tail == 1 and build(None).tail is None


def test_agree_on_exact_and_truncated_functionals():
    delta = FormalFunctional.delta(CTX)
    assert delta.known_through() == INF
    assert agree(delta, delta) and agreement_depth(delta, delta) == INF
    longer = delta + delta.shift(2)
    assert not agree(longer, delta)
    assert agree(longer.truncate(1), delta) and agreement_depth(longer.truncate(1), delta) == 1
    assert not agree(delta.truncate(3), delta.rescale(2))
    assert agree(delta.shift(5).truncate(4), FormalFunctional.zero(CTX))
