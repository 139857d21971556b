"""Smooth functions on flat phase space that the engine can compute with exactly.

The working class is P(q,p) * exp(-alpha*(q1^2+p1^2+...+qn^2+pn^2)) with P a
polynomial over complex rationals and alpha a nonnegative rational.  It is
closed under sums (equal alpha), products (alphas add), partial derivatives,
conjugation, and has closed-form Gaussian moment integrals, which keeps every
downstream identity machine-checkable.

Integration values (c*pi^n) and the quotients of them that normalising
needs live in PiScalar: the field of rational functions in pi over the
Gaussian rationals, with sign decisions made through refinable rational
bounds on pi.
"""

from fractions import Fraction
from math import gcd
from operator import add

from .lambda_scalars import (EngineError, ExactComplex, EC_ZERO, EC_ONE, Frozen,
                             as_coeff, coeff_piece, join_signed, power, _frac,
                             _parts, _reduced, _accumulate)

_ONE_DEN = (EC_ONE,)


class AlphaMismatch(EngineError):
    pass


class NotIntegrable(EngineError):
    pass


class UnknownCoordinate(EngineError, KeyError):
    __str__ = Exception.__str__  # KeyError's repr-style message reads badly


class DimensionMismatch(EngineError):
    pass


class PiSeparationError(EngineError, ArithmeticError):
    """A value at pi could not be told apart from zero within the bit budget."""


# ============================================================
# Phase context
# ============================================================

class PhaseContext(Frozen):
    """n canonical pairs; coordinates ordered q1..qn, p1..pn."""

    __slots__ = ("n", "names", "_index")

    def __init__(self, n=1):
        if not isinstance(n, int) or n < 1:
            raise ValueError("need a positive number of canonical pairs")
        if n == 1:
            names = ("q", "p")
            index = {"q": 0, "p": 1, "q1": 0, "p1": 1}
        else:
            names = tuple("q%d" % (i + 1) for i in range(n)) + \
                    tuple("p%d" % (i + 1) for i in range(n))
            index = {name: i for i, name in enumerate(names)}
        Frozen.__init__(self, n, names, index)

    @property
    def dim(self):
        return 2 * self.n

    def index(self, var):
        if isinstance(var, int):
            if 0 <= var < self.dim:
                return var
            raise UnknownCoordinate("coordinate index %d out of range" % var)
        try:
            return self._index[var]
        except KeyError:
            raise UnknownCoordinate("unknown coordinate %r" % (var,)) from None

    def __eq__(self, other):
        return isinstance(other, PhaseContext) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return "PhaseContext(n=%d)" % self.n


def monomial_key(exps):
    # graded order, q-heavy monomials first inside a degree
    return (sum(exps), tuple(-e for e in exps))


# ============================================================
# pi bounds (for sign decisions only; values stay symbolic)
# ============================================================

def _atan_inv(m, x, work):
    """(S, E) with |S - m * 2^work * atan(1/x)| < E, for integers m >= 1, x >= 2.

    atan(1/x) = sum_k (-1)^k / ((2k+1) x^(2k+1)).  Let a_k be the k-th term
    times m * 2^work.  t runs through floor(m 2^work / x^(2k+1)) exactly,
    because floor(floor(y) / n) = floor(y / n) for a positive integer n; by
    the same identity t // (2k+1) = floor(a_k), so each kept term is off by
    less than one unit.  The loop stops at the first K with t = 0, that is
    m 2^work < x^(2K+1), so a_K < 1; the dropped tail alternates with
    decreasing terms and is therefore smaller than a_K.  With K terms kept
    the error is below K + 1 = E.
    """
    x2 = x * x
    t = (m << work) // x
    s = 0
    k = 0
    while t:
        s += -(t // (2 * k + 1)) if k & 1 else t // (2 * k + 1)
        t //= x2
        k += 1
    return s, k + 1


# (w, floor(pi * 2^w)) for the widest w computed so far.  Every cached value
# is exact, so the cache never changes a result: two threads racing on it can
# at worst repeat a computation.
_pi_floor = (0, 3)


def _pi_floor_at(w):
    """floor(pi * 2^w), exactly.

    Gauss's formula pi = 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239)
    gives P with |P - pi * 2^(w+g)| < E, E the sum of the three series'
    bounds from _atan_inv.  floor is monotone, so floor(pi * 2^w) lies
    between (P - E) >> g and (P + E) >> g; when the two agree that is the
    answer, otherwise g doubles and the sum is redone.  18^2 > 2^8, so each
    series keeps fewer than (w+g)/8 + 2 terms and E < (w+g)/2 + 9, while the
    guard g = 2 log2(w) + 16 makes 2^g > 2^16 w^2.  The two ends can only
    disagree if pi * 2^(w+g) is within E of a multiple of 2^g, i.e. if pi's
    binary expansion has a run of about g - log2(w) equal bits right after
    bit w.
    """
    global _pi_floor
    top, floor_top = _pi_floor
    if w <= top:
        return floor_top >> (top - w)
    g = 2 * w.bit_length() + 16
    while True:
        work = w + g
        s18, e18 = _atan_inv(48, 18, work)
        s57, e57 = _atan_inv(32, 57, work)
        s239, e239 = _atan_inv(20, 239, work)
        p = s18 + s57 - s239
        e = e18 + e57 + e239
        lo = (p - e) >> g
        if lo == (p + e) >> g:
            _pi_floor = (w, lo)
            return lo
        g *= 2


def pi_bounds(bits):
    """Exact rationals lo < pi < hi with hi - lo = 2^-(bits+8).

    lo = floor(pi * 2^(bits+8)) / 2^(bits+8) and hi = lo + 2^-(bits+8);
    pi is irrational, so both inequalities are strict.  The intervals are
    nested as bits grows, and repeat calls shift one cached value.
    """
    if not isinstance(bits, int) or isinstance(bits, bool) or bits < 1:
        raise ValueError("bits must be a positive integer, got %r" % (bits,))
    w = bits + 8
    f = _pi_floor_at(w)
    return Fraction(f, 1 << w), Fraction(f + 1, 1 << w)


def _real_poly_interval(coeffs, lo, hi):
    # interval image of sum c_k x^k over [lo, hi], 0 < lo
    flo = Fraction(0)
    fhi = Fraction(0)
    plo = Fraction(1)
    phi = Fraction(1)
    for c in coeffs:
        r = c.re
        if r >= 0:
            flo += r * plo
            fhi += r * phi
        else:
            flo += r * phi
            fhi += r * plo
        plo *= lo
        phi *= hi
    return flo, fhi


# the widest pi enclosure a sign decision may ask for before it gives up
MAX_PI_BITS = 4096


def _poly_sign_at_pi(coeffs):
    if not coeffs:
        return 0
    # pi > 0: terms that all share one sign decide it without bounds
    signs = {c.a > 0 for c in coeffs if c}
    if len(signs) == 1:
        return 1 if signs.pop() else -1
    bits = 32
    while bits <= MAX_PI_BITS:
        lo, hi = pi_bounds(bits)
        flo, fhi = _real_poly_interval(coeffs, lo, hi)
        if flo > 0:
            return 1
        if fhi < 0:
            return -1
        bits *= 2
    raise PiSeparationError("could not separate polynomial value at pi from zero")


# ============================================================
# PiScalar: rational functions in pi
# ============================================================

def _pstrip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    # a and b are stripped, so only equal lengths can cancel at the top
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _pstrip(out) if not out[-1] else tuple(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    if len(b) == 1:
        # a constant factor: no zero can appear at the top
        c = b[0]
        return tuple(x * c if x else x for x in a)
    out = [EC_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return _pstrip(out)


def _pdivmod(a, b):
    # coefficients form a field, so plain long division works
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [EC_ZERO] * max(0, len(a) - len(b) + 1)
    inv = b[-1].reciprocal()
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] * inv
        if c:
            quo[shift] = c
            for j, bc in enumerate(b):
                rem[shift + j] = rem[shift + j] - c * bc
    return _pstrip(quo), _pstrip(rem)


def _pmonic(a):
    if not a:
        return a
    lc = a[-1]
    if lc == EC_ONE:
        return a
    inv = lc.reciprocal()
    return tuple(c * inv for c in a)


def _pgcd(a, b):
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _pmonic(a)


def _lowest(num, den):
    # (num, den) in lowest terms with a monic den, for stripped polynomials
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), _ONE_DEN
    if len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
    lc = den[-1]
    if lc != EC_ONE:
        inv = lc.reciprocal()
        num = tuple(c * inv for c in num)
        den = tuple(c * inv for c in den)
    return num, den


_PI_NOUN = "PiScalar coefficients"


class PiScalar(Frozen):
    """Element of the field of rational functions in pi, kept in lowest terms.

    num and den are coefficient tuples, constant term first; den is monic,
    so a polynomial in pi (every integral c*pi^n among them) has den (1,).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_DEN):
        Frozen.__init__(self, *_lowest(_pstrip(as_coeff(c, _PI_NOUN) for c in num),
                                       _pstrip(as_coeff(c, _PI_NOUN) for c in den)))

    @staticmethod
    def const(c):
        return PiScalar((c,))

    @staticmethod
    def pi(power=1):
        if isinstance(power, bool) or not isinstance(power, int) or power < 0:
            raise ValueError("pi power must be an int >= 0, got %r" % (power,))
        return _ps((EC_ZERO,) * power + (EC_ONE,), _ONE_DEN)

    @staticmethod
    def _coerce(other):
        if isinstance(other, PiScalar):
            return other
        if isinstance(other, (int, ExactComplex, Fraction)):
            c = as_coeff(other)
            return _ps((c,) if c else (), _ONE_DEN)
        return None

    def _term(self):
        num = self.num
        if len(self.den) > 1 or any(num[:-1]):
            raise ValueError("%s is not a single term c*pi^k" % self)
        return (num[-1], len(num) - 1) if num else (EC_ZERO, 0)

    @property
    def coeff(self):
        """c of a single-term value c*pi^k; ValueError on any other value."""
        return self._term()[0]

    @property
    def pi_power(self):
        """k of a single-term value c*pi^k (0 for zero); ValueError on any other value."""
        return self._term()[1]

    def __bool__(self):
        return bool(self.num)

    def conj(self):
        # pi is real, so conjugation keeps lowest terms and a monic den
        return _ps(tuple(c.conj() for c in self.num), tuple(c.conj() for c in self.den))

    def is_real(self):
        return self == self.conj()

    def reciprocal(self):
        if not self.num:
            raise ZeroDivisionError("division by exact zero")
        inv = self.num[-1].reciprocal()
        return _ps(tuple(c * inv for c in self.den), tuple(c * inv for c in self.num))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return _ps(_padd(self.num, o.num), _ONE_DEN)
        return _ps(*_lowest(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                            _pmul(self.den, o.den)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return _ps(_pneg(self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return _ps(_pmul(self.num, o.num), _ONE_DEN)
        return _ps(*_lowest(_pmul(self.num, o.num), _pmul(self.den, o.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("integer power expected")
        if k < 0:
            return self.reciprocal() ** (-k)
        return power(self, k, _PI_ONE)

    def __eq__(self, other):
        if isinstance(other, PiScalar):
            return self.num == other.num and self.den == other.den
        # a plain number (a bool as the int it is) compares as ExactComplex.__eq__ reads it
        o = _parts(int(other) if type(other) is bool else other)
        if o is None:
            return NotImplemented
        return self.den == _ONE_DEN and self.num == _pstrip((_reduced(*o),))

    def __hash__(self):
        # a constant hashes as the ExactComplex it equals
        if len(self.num) <= 1 and len(self.den) == 1:
            return hash(self.num[0] if self.num else EC_ZERO)
        return hash((self.num, self.den))

    def sign(self):
        """Sign of a real value; decided through rational pi intervals."""
        if not self.is_real():
            raise ValueError("sign of a non-real value")
        if not self.num:
            return 0
        return _poly_sign_at_pi(self.num) * _poly_sign_at_pi(self.den)

    @staticmethod
    def _poly_str(coeffs):
        # the constant term prints unbracketed: "1+I + pi"
        return join_signed([coeff_piece(c, "pi" if k == 1 else "pi^%d" % k) if k else str(c)
                            for k, c in enumerate(coeffs) if c]) or "0"

    def __str__(self):
        num = self._poly_str(self.num)
        if self.den == (EC_ONE,):
            return num
        den = self._poly_str(self.den)
        if " " in num or "*" in num:
            num = "(%s)" % num
        if " " in den or "*" in den:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self):
        return "PiScalar(%s)" % self

    def to_json(self):
        return {"num": [c.to_json() for c in self.num],
                "den": [c.to_json() for c in self.den]}


_set_num = PiScalar.num.__set__
_set_den = PiScalar.den.__set__


def _ps(num, den):
    # trusted constructor for values the arithmetic has just computed:
    # stripped ExactComplex tuples in lowest terms, den monic; zero has den (1,)
    x = object.__new__(PiScalar)
    _set_num(x, num)
    _set_den(x, den)
    return x


_PI_ONE = _ps((EC_ONE,), _ONE_DEN)
_PI_ZERO = _ps((), _ONE_DEN)


def coeff_sign(value):
    """Sign of a real ExactComplex or PiScalar."""
    if isinstance(value, (int, Fraction)):
        return (value > 0) - (value < 0)
    if isinstance(value, ExactComplex):
        if not value.is_real():
            raise ValueError("sign of a non-real value")
        return (value.re > 0) - (value.re < 0)
    if isinstance(value, PiScalar):
        return value.sign()
    raise TypeError("no sign for %r" % (value,))


# ============================================================
# GaussPoly
# ============================================================

class GaussPoly(Frozen):
    """P(q1..qn, p1..pn) * exp(-alpha * sum(qi^2 + pi^2)) with exact data.

    terms maps exponent tuples (length 2n, coordinates ordered q1..qn,p1..pn)
    to complex-rational coefficients; never mutated after construction.
    alpha is a positive Fraction, or the int 0 for a polynomial: the width
    key StarFamily.B_into uses, cheap to test and hash.
    """

    __slots__ = ("ctx", "alpha", "terms")

    def __init__(self, ctx, terms, alpha=0):
        alpha = _frac(alpha)
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        clean = {}
        for exps, c in terms.items():
            if len(exps) != ctx.dim:
                raise DimensionMismatch("exponent tuple %r does not match 2n=%d" % (exps, ctx.dim))
            # ints only (no bool, float or str), so distinct keys are distinct monomials
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative ints, got %r" % (exps,))
            c = as_coeff(c, "GaussPoly coefficients")
            if c:
                clean[exps] = c
        if not clean or not alpha:
            alpha = 0
        Frozen.__init__(self, ctx, alpha, clean)

    # ---- constructors ----

    @staticmethod
    def zero(ctx):
        return GaussPoly(ctx, {})

    @staticmethod
    def constant(ctx, c, alpha=0):
        return GaussPoly(ctx, {(0,) * ctx.dim: c}, alpha)

    @staticmethod
    def coordinate(ctx, var):
        i = ctx.index(var)
        exps = [0] * ctx.dim
        exps[i] = 1
        return GaussPoly(ctx, {tuple(exps): EC_ONE})

    @staticmethod
    def monomial(ctx, exps, c=1, alpha=0):
        return GaussPoly(ctx, {tuple(exps): c}, alpha)

    @staticmethod
    def gaussian(ctx, alpha):
        return GaussPoly(ctx, {(0,) * ctx.dim: EC_ONE}, alpha)

    # ---- queries ----

    def __bool__(self):
        return bool(self.terms)

    def is_poly(self):
        return self.alpha == 0

    def total_degree(self):
        """Largest monomial degree, or None for the zero function."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    # ---- arithmetic ----

    def __add__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        if self.alpha != other.alpha:
            raise AlphaMismatch("cannot add Gaussian factors exp(-%s*r^2) and exp(-%s*r^2)"
                                % (self.alpha, other.alpha))
        _check_same_ctx(self, other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            prev = out.get(exps)
            out[exps] = c if prev is None else prev + c
        return _gp(self.ctx, out, self.alpha)

    def __sub__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _gp(self.ctx, {e: -c for e, c in self.terms.items()}, self.alpha)

    def __mul__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        _check_same_ctx(self, other)
        out = {}
        gp_mul_into(out, EC_ONE, self.terms, other.terms)
        return _gp(self.ctx, out, self.alpha + other.alpha)

    def scale(self, c):
        c = as_coeff(c, "GaussPoly coefficients")
        if not c:
            return GaussPoly.zero(self.ctx)
        return _gp(self.ctx, {e: c * x for e, x in self.terms.items()}, self.alpha)

    def conj(self):
        return _gp(self.ctx, {e: c.conj() for e, c in self.terms.items()}, self.alpha)

    def diff(self, var):
        return gp_diff(self, var)

    def eval(self, point):
        return gp_eval(self, point)

    def integrate(self):
        return gp_integrate(self)

    def __eq__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return self.alpha == other.alpha and self.terms == other.terms

    def __str__(self):
        return render_gausspoly(self)

    def __repr__(self):
        return "GaussPoly(%s)" % self


_set_ctx = GaussPoly.ctx.__set__
_set_alpha = GaussPoly.alpha.__set__
_set_terms = GaussPoly.terms.__set__


def _gp(ctx, terms, alpha):
    # trusted constructor for terms the arithmetic has just computed: exponent
    # tuples of length 2n, ExactComplex coefficients and a width alpha that is
    # a positive Fraction or the int 0; only zeros are dropped
    f = object.__new__(GaussPoly)
    terms = {e: c for e, c in terms.items() if c}
    _set_ctx(f, ctx)
    _set_alpha(f, alpha if terms else 0)
    _set_terms(f, terms)
    return f


def _check_same_ctx(f, g):
    if f.ctx is not g.ctx and f.ctx != g.ctx:
        raise DimensionMismatch("functions on %r and %r do not combine" % (f.ctx, g.ctx))


def gp_mul_into(out, coeff, left, right):
    """out[e1 + e2] += coeff * c1 * c2 over two term dicts; zeros may remain.

    Works on the (a, b, d) ints of the coefficients: each product is added
    to its slot unreduced and the sum is reduced once.
    """
    for e1, c1 in left.items():
        c1 = coeff * c1
        a1, b1, d1 = c1.a, c1.b, c1.d
        for e2, c2 in right.items():
            key = tuple(map(add, e1, e2))
            a2, b2, d = c2.a, c2.b, c2.d
            d *= d1
            if not b2:
                a, b = a1 * a2, b1 * a2
            elif not b1:
                a, b = a1 * a2, a1 * b2
            else:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            _accumulate(out, key, a, b, d)


def gp_diff(f, var):
    """Exact partial derivative, chain rule through the Gaussian factor.

    d/dx (c x^e exp(-alpha r^2)) = c e x^(e-1) - 2 alpha c x^(e+1), both
    terms times the Gaussian; sums are formed on the coefficients' ints and
    reduced once per slot.
    """
    i = f.ctx.index(var)
    out = {}
    m2a = -2 * f.alpha
    mn, md = m2a.numerator, m2a.denominator
    for exps, c in f.terms.items():
        a, b, d = c.a, c.b, c.d
        e = exps[i]
        if e:
            _accumulate(out, exps[:i] + (e - 1,) + exps[i + 1:], a * e, b * e, d)
        if mn:
            _accumulate(out, exps[:i] + (e + 1,) + exps[i + 1:], a * mn, b * mn, d * md)
    return _gp(f.ctx, out, f.alpha)


def gp_eval(f, point):
    """Exact pair (P(point), -alpha*|point|^2); no transcendental evaluation."""
    if len(point) != f.ctx.dim:
        raise DimensionMismatch("point dimension %d, expected %d" % (len(point), f.ctx.dim))
    point = [_frac(x) for x in point]
    total = EC_ZERO
    for exps, c in f.terms.items():
        m = Fraction(1)
        for x, e in zip(point, exps):
            if e:
                m *= x ** e
        total = total + c * m
    exp_arg = -f.alpha * sum(x * x for x in point)
    return total, exp_arg


def gp_integrate(f):
    """Exact integral over the whole phase space; always a PiScalar c*pi^n."""
    if not f.terms:
        return _PI_ZERO
    n, z = f.ctx.n, (0,) * f.ctx.dim
    return _pi_term(n, *_moment_sum(n, f.terms, _parity_groups({z: EC_ONE}), f.alpha))


def gp_pair(f, g):
    """Exact integral of f * g over phase space, without forming the product.

    Value and type are those of (f * g).integrate(): a PiScalar c*pi^n, zero
    when either side is zero, NotIntegrable when both are nonzero polynomials.
    """
    _check_same_ctx(f, g)
    if not f.terms or not g.terms:
        return _PI_ZERO
    n = f.ctx.n
    return _pi_term(n, *_moment_sum(n, f.terms, _parity_groups(g.terms), f.alpha + g.alpha))


def _pi_term(n, a, b, d):
    """The PiScalar (a + b*I)/d * pi^n, for ints with d > 0."""
    if not a and not b:
        return _PI_ZERO
    return _ps((EC_ZERO,) * n + (_reduced(a, b, d),), _ONE_DEN)


def _parity_groups(terms):
    """The (exponents, coefficient) pairs of a term dict, keyed by exponent parities."""
    groups = {}
    for e, c in terms.items():
        groups.setdefault(tuple([x & 1 for x in e]), []).append((e, c))
    return groups


def _moment_sum(n, left, groups, alpha, weight=EC_ONE, acc=(0, 0, 1)):
    """acc plus weight times the integral of sum c1 c2 x^(e1 + e2) exp(-alpha r^2)
    over phase space, over pi^n, as unreduced ints (a, b, d) with d > 0.

    left is a nonempty term dict and groups the _parity_groups of another.
    Per coordinate: int x^(2m) e^(-a x^2) dx = (2m-1)!!/(2a)^m * sqrt(pi/a),
    odd moments vanish; the 2n sqrt factors assemble to (pi/a)^n.  A pair of
    terms has no odd moment exactly when its exponents agree in parity, so
    only those pairs are visited.  With alpha = u/v a pair of total degree 2m
    adds c1 c2 prod (s-1)!! v^m / (2u)^m, on the coefficients' ints, to one
    unreduced sum whose denominator grows by lcm; times weight * (v/u)^n,
    that sum joins acc over the product of the two denominators.
    """
    if not alpha:
        raise NotIntegrable("a nonzero polynomial is not summable over phase space")
    u, v = alpha.numerator, alpha.denominator
    u2 = 2 * u
    ta = tb = 0
    td = 1
    for e1, c1 in left.items():
        group = groups.get(tuple([x & 1 for x in e1]))
        if group is None:
            continue
        a1, b1, d1 = c1.a, c1.b, c1.d
        for e2, c2 in group:
            # p = prod (s-1)!! over the coordinate sums s, 2m = sum of the s
            p = 1
            m = 0
            for x, y in zip(e1, e2):
                s = x + y
                m += s
                s -= 1
                while s > 1:
                    p *= s
                    s -= 2
            m >>= 1
            a2, b2 = c2.a, c2.b
            p *= v ** m
            d = d1 * c2.d * u2 ** m
            if d != td:
                g = gcd(td, d)
                p *= td // g
                d //= g
                ta *= d
                tb *= d
                td *= d
            ta += (a1 * a2 - b1 * b2) * p
            tb += (a1 * b2 + b1 * a2) * p
    if not ta and not tb:
        return acc
    vn, wa, wb = v ** n, weight.a, weight.b
    ta, tb, td = (ta * wa - tb * wb) * vn, (ta * wb + tb * wa) * vn, td * weight.d * u ** n
    sa, sb, sd = acc
    return sa * td + ta * sd, sb * td + tb * sd, sd * td


def gp_poisson(f, g):
    """{f,g} = sum_i df/dqi dg/dpi - df/dpi dg/dqi, exact in the class."""
    n = f.ctx.n
    out = GaussPoly.zero(f.ctx)
    for i in range(n):
        term = gp_diff(f, i) * gp_diff(g, n + i) - (gp_diff(f, n + i) * gp_diff(g, i))
        out = term if not out else out + term
    return out


# ============================================================
# Rendering and JSON
# ============================================================

def render_monomial(ctx, exps):
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = ctx.names[i]
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def render_gausspoly(f):
    if not f.terms:
        return "0"
    out = join_signed([coeff_piece(c, render_monomial(f.ctx, exps))
                       for exps, c in f.sorted_terms()])
    if f.alpha:
        if len(f.terms) > 1 or out.startswith("-"):
            out = "(%s)" % out
        arg = "r^2" if f.alpha == 1 else "%s*r^2" % f.alpha
        out = "%s*exp(-%s)" % (out, arg) if out != "1" else "exp(-%s)" % arg
    return out


def gp_to_json(f):
    return {
        "alpha": [f.alpha.numerator, f.alpha.denominator],
        "terms": [{"exps": list(exps), "coeff": c.to_json()} for exps, c in f.sorted_terms()],
    }
