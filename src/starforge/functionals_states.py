"""Functionals on phase space and the state calculus built from them.

A functional is a formal Laurent series whose coefficients are finite lists of
elementary terms: point evaluations with derivatives, and integrals against a
Gaussian density.  Pairings come in two flavours: the plain one <T, f>, and the
star pairing <T, f>_* that routes the argument through a product family's
trace.  On top of the pairings sit the checks: reality, positivity on
witness sets, normalization, and the three classical/bullet/star genvalue
tests, all exact.
"""

from fractions import Fraction
from math import comb, factorial
from operator import add

from .lambda_scalars import (EngineError, FormalModeError, ZeroNotInvertible,
                             TruncatedTailError, ScopeError, ExactComplex, EC_ZERO,
                             EC_ONE, as_coeff, as_scalar, _frac, Frozen, _built, FormalScalar,
                             FORMAL, LaurentSeries, graded_product, scalar_invert,
                             scalar_eval, render_scalar, render_series, series_to_json)
from .phase_functions import (GaussPoly, coeff_sign, DimensionMismatch,
                              render_gausspoly, _check_same_ctx, _gp,
                              _moment_sum, _parity_groups, _pi_term)
from .formal_series import (GaussSum, FormalFunction, fs_bullet, fs_diff,
                            fs_linear_comb, render_function)
from .star_products import (star_mul, star_commutator, moyal_family, truncation_order,
                            TruncationRequired, UNBOUNDED, _derivative,
                            _monomial_generators, _moyal_terms)


class NotNormalizable(EngineError):
    """The functional pairs to zero against the constant function."""


class NotSupportedForm(EngineError):
    """The requested operation leaves the decidable fragment."""


class InfinitePrincipalPart(EngineError):
    """Functionals must have finitely many negative lambda powers."""


# ============================================================
# Elementary terms
# ============================================================

def _gaussian_free_value(gs, index, point):
    """Sum at point of the parts of d^index gs whose Gaussian argument is 0 there.

    Any other part must vanish at the point; a nonzero one raises
    NotSupportedForm.
    """
    for i, e in enumerate(index):
        for _ in range(e):
            gs = gs.diff(i)
    total = EC_ZERO
    for value, exp_arg in gs.eval_pairs(point):
        if exp_arg == 0:
            total = total + value
        elif value:
            raise NotSupportedForm(
                "point evaluation would produce %s * exp(%s); only vanishing "
                "Gaussian arguments are supported" % (value, exp_arg))
    return total


class _Term(Frozen):
    """An elementary term: its weight (the last slot) times a shape (the rest).

    Terms of one shape add by adding weights; sort_key() names the shape.
    """

    __slots__ = ()

    def _with(self, weight):
        # the same shape with a new weight, built trusted
        return _built(type(self), *[getattr(self, s) for s in self.__slots__[:-1]],
                      weight)

    def rescale(self, c):
        return self._with(self.weight * c)

    def __bool__(self):
        # a zero term drops out of its grade
        return bool(self.weight)

    def conj(self):
        return self._with(self.weight.conj())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__[1:])

    def __hash__(self):
        return hash((self.sort_key(), str(self.weight)))


class PointDeriv(_Term):
    """weight * (-1)^|index| * (d^index f)(point)."""

    __slots__ = ("ctx", "point", "index", "weight")

    def __init__(self, ctx, point, index=None, weight=EC_ONE):
        point = tuple(_frac(x) for x in point)
        if len(point) != ctx.dim:
            raise DimensionMismatch("point has %d entries, phase space needs %d"
                                    % (len(point), ctx.dim))
        if index is None:
            index = (0,) * ctx.dim
        index = tuple(index)
        if len(index) != ctx.dim or any(type(e) is not int or e < 0 for e in index):
            raise ValueError("derivative index must be %d nonnegative ints" % ctx.dim)
        Frozen.__init__(self, ctx, point, index, as_scalar(weight, "weight"))

    def act(self, gs):
        """Pair with one GaussSum coefficient."""
        total = _gaussian_free_value(gs, self.index, self.point)
        if sum(self.index) % 2:
            total = -total
        return self.weight * total

    def sort_key(self):
        return (0, self.point, self.index, "")

    def __str__(self):
        name = "delta(%s)" % ", ".join(str(x) for x in self.point)
        if any(self.index):
            name = "d^%s %s" % (list(self.index), name)
        if self.weight == EC_ONE:
            return name
        return "(%s) * %s" % (self.weight, name)

    def to_json(self):
        return {
            "kind": "point_deriv",
            "point": [[x.numerator, x.denominator] for x in self.point],
            "index": list(self.index),
            "weight": self.weight.to_json(),
        }


class Density(_Term):
    """weight * integral of g * f.

    width_lambda marks an extra lam^(-1)-sized Gaussian width: the effective
    exponent is alpha + width_lambda / lam, which only becomes a number once a
    strict lambda is bound.  Formal-mode pairings refuse such terms.
    """

    __slots__ = ("ctx", "g", "width_lambda", "weight")

    def __init__(self, ctx, g, weight=EC_ONE, width_lambda=0):
        if isinstance(g, GaussPoly):
            g = GaussSum.of(g)
        if not isinstance(g, GaussSum):
            raise TypeError("density profile must be a Gaussian-polynomial function")
        weight = as_scalar(weight, "weight")
        width_lambda = _frac(width_lambda)
        if width_lambda < 0:
            raise ValueError("width_lambda must be nonnegative")
        Frozen.__init__(self, ctx, g, width_lambda, weight)

    def __bool__(self):
        return bool(self.weight) and bool(self.g)

    def act(self, gs):
        return self.weight * _pi_term(gs.ctx.n, *self._sum(gs, EC_ONE, (0, 0, 1), {}))

    def _sum(self, gs, weight, acc, groups):
        # acc + weight * <density(g), gs> / pi^n as (a, b, d) ints; groups: by part id
        if self.width_lambda != 0:
            raise FormalModeError(
                "density carries a lam-dependent width; bind a strict lambda first")
        for f in self.g.parts:
            for h in gs.parts:
                _check_same_ctx(f, h)
                hg = groups.get(id(h))
                if hg is None:
                    hg = groups[id(h)] = _parity_groups(h.terms)
                # a polynomial part's width is the int 0: no Fraction sum
                alpha = f.alpha + h.alpha if h.alpha else f.alpha
                acc = _moment_sum(f.ctx.n, f.terms, hg, alpha, weight, acc)
        return acc

    def conj(self):
        return _built(Density, self.ctx, self.g.conj(), self.width_lambda,
                      self.weight.conj())

    def bind(self, binding):
        """Resolve the lam-width against a strict binding."""
        if self.width_lambda == 0:
            return self
        # one positive shift keeps the parts nonzero, distinct and sorted
        shift = self.width_lambda / binding.value
        moved = [_gp(self.ctx, poly.terms, poly.alpha + shift) for poly in self.g.parts]
        return _built(Density, self.ctx, GaussSum._trusted(self.ctx, moved),
                      Fraction(0), self.weight)

    def sort_key(self):
        return (1, (), (), "%s|%s" % (self.width_lambda, self.g))

    def __str__(self):
        core = "density(%s)" % self.g
        if self.width_lambda:
            core = "density((%s) * exp(-%s/lam*r^2))" % (self.g, self.width_lambda)
        if self.weight == EC_ONE:
            return core
        return "(%s) * %s" % (self.weight, core)

    def to_json(self):
        return {
            "kind": "density",
            "profile": str(self.g),
            "weight": self.weight.to_json(),
            "width_lambda": [self.width_lambda.numerator,
                             self.width_lambda.denominator],
        }


class _Terms(tuple):
    """One coefficient of a functional: its elementary terms, merged and sorted."""

    __slots__ = ()

    def rescale(self, c):
        return _Terms(t.rescale(c) for t in self)

    def __neg__(self):
        return self.rescale(ExactComplex(-1, 0))

    def conj(self):
        return _Terms(t.conj() for t in self)


_NO_TERMS = _Terms()


def _merge_terms(terms):
    # one entry per shape key; terms of one shape add their weights
    by_key = {}
    for t in terms:
        key = t.sort_key()
        prev = by_key.get(key)
        by_key[key] = t if prev is None else prev._with(prev.weight + t.weight)
    return _Terms(t for _, t in sorted(by_key.items()) if t)


# ============================================================
# Graded functionals
# ============================================================

class FormalFunctional(LaurentSeries):
    """Laurent series in lam whose coefficients are finite term lists."""

    __slots__ = ("ctx",)
    _invalid = InfinitePrincipalPart
    _norm = staticmethod(_merge_terms)

    def __init__(self, ctx, valuation, coeffs, tail=None):
        object.__setattr__(self, "ctx", ctx)
        self._set(valuation, coeffs, tail)

    def _like(self, valuation, coeffs, tail):
        return FormalFunctional(self.ctx, valuation, coeffs, tail)

    def __add__(self, other):
        if type(other) is FormalFunctional:
            _check_same_ctx(self, other)
        return LaurentSeries.__add__(self, other)

    @staticmethod
    def _zero():
        return _NO_TERMS

    # ---- constructors ----

    @staticmethod
    def zero(ctx):
        return FormalFunctional(ctx, 0, ())

    @staticmethod
    def delta(ctx, point=None):
        if point is None:
            point = (0,) * ctx.dim
        return FormalFunctional(ctx, 0, ((PointDeriv(ctx, point),),))

    @staticmethod
    def point_deriv(ctx, point, index, weight=EC_ONE, power=0):
        return FormalFunctional(ctx, power,
                                ((PointDeriv(ctx, point, index, weight),),))

    @staticmethod
    def density(ctx, g, weight=EC_ONE, power=0, width_lambda=0):
        return FormalFunctional(ctx, power,
                                ((Density(ctx, g, weight, width_lambda),),))

    # ---- structure ----

    def has_width(self):
        return any(isinstance(t, Density) and t.width_lambda != 0
                   for grade in self.coeffs for t in grade)

    # ---- algebra ----

    def rescale(self, c):
        """Multiply every weight by a plain scalar."""
        c = as_scalar(c, "weight")
        return self._map(lambda grade: grade.rescale(c))

    def scale_by_scalar(self, A):
        """Multiply by a formal scalar, grading included."""
        if not isinstance(A, FormalScalar):
            return self.rescale(A)
        return graded_product(A, self, _rescale_add, self._like, _NO_TERMS)

    def __str__(self):
        return render_series(self, _functional_piece)

    def to_json(self):
        return series_to_json(self, _grade_json)


def _functional_piece(grade, lam):
    body = " + ".join(str(t) for t in grade)
    if lam:
        return "(%s)*%s" % (body, lam)
    return body if len(grade) == 1 else "(%s)" % body


def _grade_json(grade):
    return [t.to_json() for t in grade]


def _rescale_add(acc, c, grade):
    return acc + grade.rescale(c)


def bind_functional(T, binding):
    """Resolve lam-marked widths.  Strict bindings substitute; the formal
    binding refuses if any width is present."""
    if not binding.is_strict:
        if T.has_width():
            raise FormalModeError(
                "functional has lam-dependent Gaussian widths; they only "
                "resolve under a strict lambda binding")
        return T
    return T._map(lambda grade: [t.bind(binding) if isinstance(t, Density) else t
                                 for t in grade])


# ============================================================
# Pairings
# ============================================================

def func_action(T, F):
    """Plain pairing <T, F> as a formal scalar.  Per lam power, complex-weighted densities
    add up as (a, b, d) ints into one PiScalar, zero or not; other terms add term.act(f)."""
    F = _as_function(F)
    n, groups = F.ctx.n, {}

    def pair(acc, grade, f):
        acc, ints = acc
        for term in grade:
            if type(term) is Density and type(term.weight) is ExactComplex:
                ints = term._sum(f, term.weight, ints or (0, 0, 1), groups)
            else:
                acc = acc + term.act(f)
        return acc, ints

    def make(valuation, coeffs, tail):
        # acc joins only when nonzero: 0 + PiScalar would cost a full PiScalar sum
        return FormalScalar(valuation, [acc if ints is None else
                                        acc + _pi_term(n, *ints) if acc else _pi_term(n, *ints)
                                        for acc, ints in coeffs], tail)

    return graded_product(T, F, pair, make, (EC_ZERO, None))


def _as_function(f):
    # a function series on its own phase space
    if isinstance(f, FormalFunction):
        return f
    if isinstance(f, (GaussPoly, GaussSum)):
        return FormalFunction.of(f)
    raise TypeError("expected a phase-space function")


def func_star_action(S, T, F, order=None):
    """Star pairing <T, F>_*: lam^(-n) <T, F> for Moyal, by parts otherwise."""
    F = _as_function(F)
    _check_same_ctx(S, T)
    _check_same_ctx(S, F)
    if S._term_fn is _moyal_terms:
        return func_action(T, F).shift(-S.ctx.n)
    return _star_action_adjoint(S, T, F, order)


def _star_action_adjoint(S, T, F, order=None):
    # move the derivatives of each B_k off the functional side by parts:
    # <T, F>_* = lam^(-n) sum_k lam^k sum_(c,dl,dr) c (-1)^|dr| <T, d^(dl+dr) F>
    F = _as_function(F)
    n = S.ctx.n
    # the family's own termination rule, driven by the function side only
    # (the functional side is opaque, so both slots get the same factor); as
    # in star_mul, a pairing that terminates is exact whatever the order
    k_stop = max((S.termination_bound(gs, gs) for gs in F.coeffs if gs), default=0)
    unbounded = k_stop == UNBOUNDED
    if unbounded:
        lowest = T.valuation + F.valuation - n
        k_stop = truncation_order("pairing", order, lowest) - lowest
    total = FormalScalar.zero()
    # d^beta F by multi-index, shared by every term and order
    derivs = {(0,) * S.ctx.dim: F}
    for k in range(0, k_stop + 1):
        piece = None
        for c, dl, dr in S.terms(k):
            u = _derivative(derivs, tuple(map(add, dl, dr)), fs_diff)
            if sum(dr) % 2:
                c = -c
            contrib = func_action(T, u).scale(c)
            piece = contrib if piece is None else piece + contrib
        if piece is not None:
            total = total + piece.shift(k)
    total = total.shift(-n)
    return total.truncate(order) if unbounded else total


# ============================================================
# Reality and positivity
# ============================================================

class RealityReport(Frozen):
    __slots__ = ("structural", "witness_results", "verdict")

    def __init__(self, structural, witness_results):
        ok = structural and all(r[1] for r in witness_results)
        Frozen.__init__(self, structural, tuple(witness_results), "real" if ok else "fail")

    def __repr__(self):
        return "RealityReport(%s)" % self.verdict


def reality_check(T, witnesses=()):
    """Structural self-conjugacy plus real pairings against real witnesses."""
    structural = (T.conj() == T)
    results = []
    for w in witnesses:
        wf = _as_function(w)
        if wf.conj() != wf:
            raise ValueError("reality witnesses must be real functions")
        v = func_action(T, wf)
        results.append((render_function(wf), v.conj() == v, render_scalar(v)))
    return RealityReport(structural, results)


class PositivityReport(Frozen):
    __slots__ = ("verdict", "samples", "details", "negativity", "scope")

    def to_json(self):
        return {
            "verdict": self.verdict,
            "lambda_samples": [str(s) for s in self.samples],
            "witnesses": list(self.details),
            "negativity": self.negativity,
            "scope": self.scope,
        }

    def __repr__(self):
        return "PositivityReport(%s)" % self.verdict


DEFAULT_SAMPLES = (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2))


def positivity_check(S, T, witness_fns, lambda_samples=DEFAULT_SAMPLES):
    """Partial-sum positivity of <T, conj(f) * f>_* at sample lambdas.

    Each value must be exact (else TruncatedTailError) and real.  For each
    witness and sample, the partial sums of the value series are scanned for a
    stabilization index past which they stay nonnegative; a strictly negative
    total is a negativity certificate.  The verdict only covers the finite
    witness set and sample list.
    """
    witness_fns = [_as_function(f) for f in witness_fns]
    lambda_samples = tuple(lambda_samples)
    if not witness_fns:
        raise ScopeError("positivity needs at least one witness function")
    if not lambda_samples:
        raise ScopeError("positivity needs at least one lambda sample")
    # 0 >= 0 says nothing about a state, and a zero witness pairs to 0
    if not T:
        raise ScopeError("positivity needs a nonzero functional")
    if not all(witness_fns):
        raise ScopeError("positivity needs nonzero witness functions")
    # one phase space, checked before any witness is squared
    for x in [T] + witness_fns:
        _check_same_ctx(S, x)
    details = []
    negativity = None
    for ff in witness_fns:
        witness = render_function(ff)
        try:
            val = func_star_action(S, T, star_mul(S, ff.conj(), ff))
        except TruncationRequired:
            val = None
        if val is None or val.tail is not None:
            raise TruncatedTailError(
                "positivity decides exact values only, and the value for witness "
                "%s does not terminate" % witness)
        if val.conj() != val:
            raise EngineError("positivity needs real values, and the value for witness "
                              "%s is %s" % (witness, render_scalar(val)))
        entry = {"witness": witness, "value": render_scalar(val), "per_lambda": []}
        for s in lambda_samples:
            run = EC_ZERO
            k0 = val.valuation
            total_sign = 0
            for z, c in enumerate(val.coeffs, val.valuation):
                run = run + c * (s ** z)
                total_sign = coeff_sign(run)
                if total_sign < 0:
                    k0 = z + 1
            entry["per_lambda"].append({"lambda": str(s), "k0": k0,
                                        "total_sign": total_sign})
            if total_sign < 0 and negativity is None:
                negativity = {"witness": witness, "lambda": str(s),
                              "value": render_scalar(val)}
        details.append(entry)
    verdict = "negative" if negativity else "positive_on_samples"
    scope = {"witnesses": len(details), "samples": len(lambda_samples),
             "note": "verdict covers the listed witnesses and lambda samples only"}
    return PositivityReport(verdict, lambda_samples, tuple(details), negativity, scope)


def normalize_functional(S, T, order):
    """Rescale so the functional pairs to 1 with the constant function."""
    one = FormalFunction.one(S.ctx)
    c = func_star_action(S, T, one, order)
    try:
        A = scalar_invert(c, order)
    except ZeroNotInvertible:
        raise NotNormalizable("functional pairs to 0 against the constant 1")
    return A, T.scale_by_scalar(A)


# ============================================================
# Genvalue checks
# ============================================================

class EigenReport(Frozen):
    __slots__ = ("kind", "verdict", "test_degree", "residuals", "commutation",
                 "first_failure")

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "test_degree": self.test_degree,
            "residuals": [{"witness": w, "residual": r} for w, r in self.residuals],
            "commutation_residuals": [{"witness": w, "residual": r}
                                      for w, r in self.commutation],
            "first_failure": self.first_failure,
        }

    def __repr__(self):
        return "EigenReport(%s, %s)" % (self.kind, self.verdict)


def _test_monomials(ctx, test_degree):
    tests = _monomial_generators(ctx, test_degree)
    if not tests:
        # a verdict over no test functions would certify nothing
        raise ScopeError("test degree %d leaves no test monomials" % test_degree)
    return tests


def eigencheck_classical(phi, a, point):
    """Decide phi(point) == a for a Gaussian-polynomial phi and rational a.

    Decidability leans on the exponentials being transcendental at nonzero
    rational arguments: a part P * exp(x) with x != 0 contributes a rational
    number only when P vanishes at the point.
    """
    gs = phi if isinstance(phi, GaussSum) else GaussSum.of(phi)
    a = as_scalar(a, "genvalue")
    point = tuple(_frac(x) for x in point)
    rational = EC_ZERO
    for value, exp_arg in gs.eval_pairs(point):
        if exp_arg == 0:
            rational = rational + value
        elif value:
            # nonzero * exp(nonzero rational) is irrational, so equality with
            # the rational target fails outright
            residual = "(%s)*exp(%s)" % (value, exp_arg)
            return EigenReport("classical", "fail", 0, (("1", residual),), (),
                               {"witness": "1", "residual": residual})
    residual = rational - a
    if not residual:
        return EigenReport("classical", "pass", 0, (("1", "0"),), (), None)
    return EigenReport("classical", "fail", 0, (("1", str(residual)),), (),
                       {"witness": "1", "residual": str(residual)})


def eigencheck_bullet(xi, a, T, test_degree, binding=FORMAL):
    """Check <T, (xi - a) . psi> = 0 over all monomials of bounded degree.

    Under a strict binding, widths are resolved first and residual series are
    evaluated at the bound lambda; formally, residuals must vanish as series.
    """
    ctx = T.ctx
    if not T:
        # the zero functional satisfies every eigen-equation
        raise ScopeError("an eigenfunctional must be nonzero")
    xi = _as_function(xi)
    if not isinstance(a, FormalScalar):
        a = FormalScalar.from_const(a)
    # the genvalue shifts a function, whose coefficients are complex rationals
    for c in a.coeffs:
        as_coeff(c, "genvalue")
    shifted = fs_linear_comb(FormalScalar.one(), xi, -a, FormalFunction.one(ctx))
    Tb = bind_functional(T, binding)
    residuals = []
    first = None
    for psi in _test_monomials(ctx, test_degree):
        r = func_action(Tb, fs_bullet(shifted, FormalFunction.of(psi, 0)))
        if binding.is_strict:
            r = scalar_eval(r, binding)
        residuals.append((render_gausspoly(psi), str(r)))
        if r and first is None:
            first = {"witness": render_gausspoly(psi), "residual": str(r)}
    verdict = "pass" if first is None else "fail"
    return EigenReport("bullet", verdict, test_degree, tuple(residuals), (), first)


def eigencheck_star(S, xi, a, T, test_degree, binding=FORMAL):
    """Star-genvalue test: <T, psi * xi>_* = a <T, psi>_* over monomials,
    plus the commutation residual <T, psi * xi - xi * psi>_*.

    Under a strict binding, widths are resolved first and residual series are
    evaluated at the bound lambda; formally, residuals must vanish as series.
    """
    ctx = S.ctx
    if not T:
        raise ScopeError("an eigenfunctional must be nonzero")
    xi = _as_function(xi)
    if not isinstance(a, FormalScalar):
        a = FormalScalar.from_const(a)
    Tb = bind_functional(T, binding)
    residuals = []
    commutation = []
    first = None
    for psi in _test_monomials(ctx, test_degree):
        psif = FormalFunction.of(psi, 0)
        r = func_star_action(S, Tb, star_mul(S, psif, xi)) - a * func_star_action(S, Tb, psif)
        cres = func_star_action(S, Tb, star_commutator(S, psif, xi))
        if binding.is_strict:
            r, cres = scalar_eval(r, binding), scalar_eval(cres, binding)
        witness = render_gausspoly(psi)
        residuals.append((witness, str(r)))
        commutation.append((witness, str(cres)))
        if first is None and (r or cres):
            first = {"witness": witness, "residual": str(r or cres)}
    verdict = "pass" if first is None else "fail"
    return EigenReport("star", verdict, test_degree, tuple(residuals),
                       tuple(commutation), first)


# ============================================================
# States
# ============================================================

def _laguerre_coeffs(n):
    # L_n(x) = sum_j (-1)^j C(n, j) x^j / j!
    return [Fraction((-1) ** j * comb(n, j), factorial(j)) for j in range(n + 1)]


def wigner_state(ctx, level):
    """Oscillator state functional at the given level.

    The profile is a Laguerre polynomial in 2 r^2 / lam against a Gaussian of
    width 1/lam; the inverse powers of lam give the functional a principal
    part of depth equal to the level.
    """
    if ctx.n != 1:
        raise NotSupportedForm("oscillator states are built for one pair of coordinates")
    if level < 0:
        raise ValueError("level must be nonnegative")
    coeffs = _laguerre_coeffs(level)
    sign = -1 if level % 2 else 1
    r2 = GaussPoly.monomial(ctx, (2, 0)) + GaussPoly.monomial(ctx, (0, 2))
    grades = [[] for _ in range(level + 1)]
    power = GaussPoly.constant(ctx, 1)
    for j, c in enumerate(coeffs):
        # coefficient of lam^(-j): c * (2 r^2)^j, graded at -j
        w = c * (2 ** j) * sign
        if w:
            grades[level - j].append(Density(ctx, power.scale(w),
                                             EC_ONE, width_lambda=1))
        power = power * r2
    return FormalFunctional(ctx, -level, grades)


# ============================================================
# Negative regions
# ============================================================

class RegionReport(Frozen):
    __slots__ = ("center", "min_value", "min_value_str", "semi_axes_squared",
                 "area_str", "verified")

    def to_json(self):
        return {
            "center": [str(x) for x in self.center],
            "min": self.min_value_str,
            "semi_axes_squared": [str(x) for x in self.semi_axes_squared],
            "area": self.area_str,
            "verified": self.verified,
        }

    def __repr__(self):
        return "RegionReport(min=%s, area=%s)" % (self.min_value_str, self.area_str)


def negative_region(f, binding=FORMAL):
    """Where conj(f) * f dips negative for f = (q - q0) + i a (p - p0), a > 0.

    The star square is (q - q0)^2 + a^2 (p - p0)^2 - a lam: an ellipse of
    negativity with area pi lam, independent of a.
    """
    ctx = f.ctx
    if ctx.n != 1:
        raise NotSupportedForm("negative regions are computed for one pair only")
    if isinstance(f, FormalFunction):
        if f.valuation != 0 or len(f.coeffs) != 1:
            raise NotSupportedForm("expected a lam-free linear expression")
        f = f.coefficient(0)
    if isinstance(f, GaussSum):
        if len(f.parts) != 1:
            raise NotSupportedForm("expected a single polynomial part")
        f = f.parts[0]
    if not f.is_poly() or (f.total_degree() or 0) != 1:
        raise NotSupportedForm(
            "expected a degree-1 complex coordinate: (q - q0) + i*a*(p - p0)")
    # degree 1 in one pair: the only exponents are (0, 0), (1, 0) and (0, 1)
    c0, cq, cp = (f.terms.get(exps, EC_ZERO) for exps in ((0, 0), (1, 0), (0, 1)))
    if cq != EC_ONE:
        raise NotSupportedForm("normalize so the q coefficient is exactly 1")
    if not cp.re == 0 or cp.im <= 0:
        raise NotSupportedForm("the p coefficient must be i*a with rational a > 0")
    a = cp.im
    q0 = -c0.re
    p0 = -c0.im / a

    S = moyal_family(ctx)
    ff = FormalFunction.of(f, 0)
    square = star_mul(S, ff.conj(), ff)
    qs = GaussPoly.coordinate(ctx, "q") + GaussPoly.constant(ctx, -q0)
    ps = GaussPoly.coordinate(ctx, "p") + GaussPoly.constant(ctx, -p0)
    expect0 = qs * qs + (ps * ps).scale(a * a)
    expected = FormalFunction(ctx, 0, (GaussSum.of(expect0),
                                       GaussSum.of(GaussPoly.constant(ctx, -a))))
    verified = (square == expected)

    min_series = FormalScalar.lam(1, -a)
    semi = (FormalScalar.lam(1, a), FormalScalar.lam(1, 1 / a))
    if binding.is_strict:
        lam = binding.value
        min_val = scalar_eval(min_series, binding).re
        semi = tuple(scalar_eval(x, binding).re for x in semi)
        area = "pi" if lam == 1 else "pi*%s" % lam
        return RegionReport((q0, p0), min_val, str(min_val), semi, area, verified)
    return RegionReport((q0, p0), min_series, render_scalar(min_series),
                        tuple(render_scalar(x) for x in semi), "pi*lam", verified)
