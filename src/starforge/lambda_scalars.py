"""Exact arithmetic in the scalar field of formal Laurent series in lam.

A scalar is sum_{z >= v} c_z * lam^z with complex-rational coefficients,
finitely many negative powers, and a tail marker recording whether the stored
coefficients are the whole series (tail None, "exact") or only correct through
lam^N (tail N, "truncated").  Everything here is immutable and pure; no
floating point anywhere.
"""

import operator
from fractions import Fraction
from functools import cache
from math import gcd

# the depth of an exact tail and the termination bound of a product that
# never terminates: the one float in the engine, compared and never computed with
UNBOUNDED = float("inf")


class EngineError(Exception):
    """Common base for engine-level failures (CLI maps these to exit 2)."""


class ZeroNotInvertible(EngineError, ZeroDivisionError):
    pass


class FormalModeError(EngineError):
    """Raised when an operation needs a concrete lambda but got formal mode."""


class TruncatedTailError(EngineError):
    """Raised when an operation refuses to drop unknown tail coefficients."""


class ScopeError(EngineError, ValueError):
    """A check or truncation was asked for an empty or negative scope."""


_set_slot = object.__setattr__


class Frozen(object):
    """Base of every immutable value and report class.

    A subclass lists its fields in __slots__; the positional __init__ sets
    them in slot order, and no attribute can be assigned afterwards.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            _set_slot(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        # copy and pickle rebuild through _built, past the refusing __setattr__
        cls = type(self)
        return (_built, (cls, *[getattr(self, name) for name in _slot_names(cls)]))


@cache
def _slot_names(cls):
    return tuple(name for c in reversed(cls.__mro__)
                 for name in c.__dict__.get("__slots__", ()))


def _built(cls, *values):
    # trusted constructor: values already valid, one per slot along the MRO
    out = object.__new__(cls)
    for name, value in zip(_slot_names(cls), values, strict=True):
        _set_slot(out, name, value)
    return out


def power(base, k, one, mul=operator.mul):
    """base^k for an int k >= 0 by square-and-multiply: one product per set
    bit of k and one square per bit but the last."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


# ============================================================
# Complex rationals
# ============================================================

def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


class ExactComplex(object):
    """A Gaussian rational (a + b*I)/d held as three ints.

    Canonical form: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1) and
    equal values have equal slots.  Every operation reduces its result with
    one math.gcd(a, b, d).  `re` and `im` read the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        re, im = _frac(re), _frac(im)
        return _reduced(re.numerator * im.denominator, im.numerator * re.denominator,
                        re.denominator * im.denominator)

    __setattr__ = Frozen.__setattr__

    def __reduce__(self):
        return (_ec, (self.a, self.b, self.d))

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_real(self):
        return self.b == 0

    def conj(self):
        return _ec(self.a, -self.b, self.d)

    def reciprocal(self):
        a, b = self.a, self.b
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        d = self.d
        return _reduced(d * a, -d * b, n)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        oa, ob, od = o
        d = self.d
        if d == od:
            return _reduced(self.a + oa, self.b + ob, d)
        return _reduced(self.a * od + oa * d, self.b * od + ob * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        oa, ob, od = o
        d = self.d
        if d == od:
            return _reduced(self.a - oa, self.b - ob, d)
        return _reduced(self.a * od - oa * d, self.b * od - ob * d, d * od)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _ec(*o) - self

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        oa, ob, od = o
        a, b = self.a, self.b
        # a real factor on either side halves the integer work
        if not ob:
            return _reduced(a * oa, b * oa, self.d * od)
        if not b:
            return _reduced(a * oa, a * ob, self.d * od)
        return _reduced(a * oa - b * ob, a * ob + b * oa, self.d * od)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self * _ec(*o).reciprocal()

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _ec(*o) * self.reciprocal()

    def __neg__(self):
        return _ec(-self.a, -self.b, self.d)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("integer power >= 0 expected")
        return power(self, k, EC_ONE)

    def __eq__(self, other):
        if type(other) is ExactComplex:
            return self.a == other.a and self.b == other.b and self.d == other.d
        # arithmetic refuses a bool, equality reads it as its int
        o = _parts(int(other) if type(other) is bool else other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.d) == o

    def __hash__(self):
        # a real value hashes as the rational it equals, so 2, Fraction(2)
        # and ExactComplex(2) fall into one set slot
        if self.b == 0:
            return hash(self.re)
        return hash((self.a, self.b, self.d))

    def __str__(self):
        # canonical flat form; callers parenthesise when embedding in products
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        ims = "I" if im == 1 else ("-I" if im == -1 else "%s*I" % im)
        if re == 0:
            return ims
        return "%s%s%s" % (re, "" if im < 0 else "+", ims)

    def __repr__(self):
        return "ExactComplex(%s)" % self

    def to_json(self):
        re, im = self.re, self.im
        return [re.numerator, re.denominator, im.numerator, im.denominator]


_set_a = ExactComplex.a.__set__
_set_b = ExactComplex.b.__set__
_set_d = ExactComplex.d.__set__
_new = object.__new__


def _ec(a, b, d):
    # trusted constructor for ints already in canonical form
    x = _new(ExactComplex)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a, b, d):
    # trusted constructor for freshly computed ints with d > 0: one gcd
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(ExactComplex)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _accumulate(out, key, a, b, d):
    # out[key] += (a + b*I)/d for freshly computed ints with d > 0: the sum
    # is formed unreduced and reduced with one gcd
    prev = out.get(key)
    if prev is not None:
        pd = prev.d
        if pd == d:
            a += prev.a
            b += prev.b
        else:
            a = a * pd + prev.a * d
            b = b * pd + prev.b * d
            d *= pd
    out[key] = _reduced(a, b, d)


def _parts(x):
    # (a, b, d) of an exact operand, or None for anything else, a bool too;
    # ExactComplex comes first: isinstance(x, Fraction) is an ABC check for it
    if type(x) is ExactComplex:
        return x.a, x.b, x.d
    if isinstance(x, int) and type(x) is not bool:
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)
_EC_MINUS_ONE = ExactComplex(-1)


def as_coeff(c, noun="coefficient"):
    """The complex-rational floor: an ExactComplex as it is, an int (not a
    bool) or a Fraction lifted to one; TypeError naming anything else."""
    if type(c) is ExactComplex:
        return c
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return ExactComplex(c)
    raise TypeError("%s must be an int, Fraction or ExactComplex, got %r" % (noun, c))


def as_scalar(c, noun="scalar"):
    """The two-floor gate: what as_coeff accepts, and a PiScalar as it is."""
    if type(c) is ExactComplex or type(c) is PiScalar:
        return c
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return ExactComplex(c)
    raise TypeError("%s must be an int, Fraction, ExactComplex or PiScalar, got %r"
                    % (noun, c))


# ============================================================
# Tail markers
# ============================================================
# tail None  -> exact (all unstored coefficients are zero)
# tail N int -> coefficients are only known through lam^N

def tail_depth(tail):
    return UNBOUNDED if tail is None else tail


def tail_min(t1, t2):
    d = min(tail_depth(t1), tail_depth(t2))
    return None if d == UNBOUNDED else int(d)


def mul_tail(a_val, a_tail, b_val, b_tail):
    # a known through Na, b exact from b_val up: product known through Na + b_val
    d = min(tail_depth(a_tail) + b_val, tail_depth(b_tail) + a_val)
    return None if d == UNBOUNDED else int(d)


# ============================================================
# The series core
# ============================================================

class LaurentSeries(Frozen):
    """A formal Laurent series in lam: FormalScalar, FormalFunction and
    FormalFunctional are this one representation over different coefficients.

    coeffs[i] is the coefficient of lam^(valuation + i); the tail marker is
    None when the stored coefficients are the whole series and N when they
    are only known through lam^N.  The canonical form has no leading zero,
    no trailing zero when exact, stores exactly the powers valuation..N when
    truncated, and puts an empty series at lam^0 when exact and at
    lam^(N + 1) when truncated.  A subclass supplies its coefficient
    normaliser `_norm`, the error `_invalid` for a bad valuation, `_like` to
    build a series of its own kind and `_zero` for its zero coefficient.
    """

    __slots__ = ("valuation", "coeffs", "tail")
    _invalid = ValueError

    def _set(self, valuation, coeffs, tail):
        if isinstance(valuation, bool) or not isinstance(valuation, int):
            raise self._invalid("valuation must be a finite integer")
        if tail is not None and (isinstance(tail, bool) or not isinstance(tail, int)):
            raise self._invalid("tail must be None or a finite integer")
        coeffs = list(map(self._norm, coeffs))
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        valuation += lead
        if tail is None:
            end = len(coeffs)
            while end > lead and not coeffs[end - 1]:
                end -= 1
            coeffs = coeffs[lead:end]
            if not coeffs:
                valuation = 0
        else:
            keep = tail - valuation + 1
            if lead == len(coeffs) or keep <= 0:
                coeffs = []
                valuation = tail + 1
            else:
                coeffs = coeffs[lead:lead + keep]
                coeffs.extend([self._zero()] * (keep - len(coeffs)))
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "tail", tail)

    def _map(self, fn):
        # the same grading and tail with fn applied to every coefficient
        return self._like(self.valuation, [fn(c) for c in self.coeffs], self.tail)

    # ---- queries ----

    def __bool__(self):
        # zero as far as this representation knows
        return bool(self.coeffs)

    def end(self):
        # highest stored power
        return self.valuation + len(self.coeffs) - 1

    def coefficient(self, z):
        """Coefficient of lam^z, or None when z lies beyond the known tail."""
        if self.tail is not None and z > self.tail:
            return None
        if self.valuation <= z <= self.end():
            return self.coeffs[z - self.valuation]
        return self._zero()

    def known_through(self):
        return tail_depth(self.tail)

    # ---- arithmetic ----

    def __add__(self, other):
        """Coefficientwise sum; the weaker tail marker wins."""
        if type(other) is not type(self):
            return NotImplemented
        t = tail_min(self.tail, other.tail)
        lo = min(self.valuation, other.valuation)
        hi = max(self.end(), other.end())
        if t is not None:
            hi = min(hi, t)
        return self._like(lo, [self.coefficient(z) + other.coefficient(z)
                               for z in range(lo, hi + 1)], t)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._map(operator.neg)

    def conj(self):
        """Coefficientwise complex conjugate (lam itself is real)."""
        return self._map(_conj)

    def shift(self, k):
        """Multiply by lam^k."""
        t = None if self.tail is None else self.tail + k
        return self._like(self.valuation + k, self.coeffs, t)

    def truncate(self, order):
        """Forget everything above lam^order."""
        return self._like(self.valuation, self.coeffs, tail_min(self.tail, order))

    # ---- comparison ----

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return agree(self, other)

    # equality is agreement up to the shorter known tail, which is not
    # transitive, so no hash can be consistent with it
    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


_conj = operator.methodcaller("conj")


def mul_add(acc, x, y):
    return acc + x * y


def graded_product(a, b, pair, make, zero):
    """Graded Cauchy product of two series.

    The coefficient of lam^z starts at `zero` and becomes pair(acc, x, y)
    for every nonzero x at lam^i of a and y at lam^j of b with i + j = z,
    in order of i, then j; make(valuation, coeffs, tail) builds the result.
    An exact zero factor gives an exact zero; a truncated factor known
    through N leaves the product known through N plus the partner's
    valuation.
    """
    if (not a.coeffs and a.tail is None) or (not b.coeffs and b.tail is None):
        return make(0, (), None)
    t = mul_tail(a.valuation, a.tail, b.valuation, b.tail)
    lo = a.valuation + b.valuation
    if not a.coeffs or not b.coeffs:
        return make(lo, (), t)
    hi = a.end() + b.end()
    if t is not None:
        hi = min(hi, t)
    n = hi - lo + 1
    out = [zero] * n
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for k, y in enumerate(b.coeffs, i):
            if k >= n:
                break
            if y:
                out[k] = pair(out[k], x, y)
    return make(lo, out, t)


# ============================================================
# Formal Laurent scalars
# ============================================================

class FormalScalar(LaurentSeries):
    """Formal Laurent series in lam with complex-rational coefficients (or
    the pi-valued ones integration produces) and a finite principal part."""

    __slots__ = ()
    _norm = staticmethod(as_scalar)

    def __init__(self, valuation, coeffs, tail=None):
        self._set(valuation, coeffs, tail)

    def _like(self, valuation, coeffs, tail):
        return FormalScalar(valuation, coeffs, tail)

    @staticmethod
    def _zero():
        return EC_ZERO

    # ---- constructors ----

    @staticmethod
    def zero():
        return FormalScalar(0, ())

    @staticmethod
    def one():
        return FormalScalar(0, (EC_ONE,))

    @staticmethod
    def from_const(c):
        return FormalScalar(0, (c,))

    @staticmethod
    def lam(power=1, coeff=1):
        return FormalScalar(power, (coeff,))

    @staticmethod
    def from_coeff_map(mapping, tail=None):
        if not mapping:
            return FormalScalar(0, (), tail)
        lo = min(mapping)
        hi = max(mapping)
        return FormalScalar(lo, [mapping.get(z, 0) for z in range(lo, hi + 1)], tail)

    # ---- arithmetic ----

    def __mul__(self, other):
        if not isinstance(other, FormalScalar):
            return NotImplemented
        # Cauchy product; truncation bounds shift by the partner's valuation
        return graded_product(self, other, mul_add, FormalScalar, EC_ZERO)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("integer power expected")
        if k < 0:
            return scalar_invert(self ** (-k), 0)  # monomials only in practice
        return power(self, k, FormalScalar.one())

    def scale(self, c):
        c = as_scalar(c)
        return self._map(lambda x: c * x)

    def __eq__(self, other):
        # a plain number compares as the constant series, a bool as the int
        # it is, as in ExactComplex.__eq__
        o = _parts(int(other) if type(other) is bool else other)
        if o is not None:
            other = FormalScalar(0, (_ec(*o),))
        return LaurentSeries.__eq__(self, other)

    def __str__(self):
        return render_scalar(self)


def scalar_invert(a, order):
    """Multiplicative inverse, correct so that a * invert(a, order) = 1 through lam^order.

    Monomials invert exactly; everything else gets a truncation tag.  The
    recurrence solves sum_{j<=m} c_j b_{m-j} = [m == 0] coefficient by
    coefficient.
    """
    if not a.coeffs:
        raise ZeroNotInvertible("cannot invert a scalar with no known nonzero coefficient")
    if not isinstance(order, int) or order < 0:
        raise ScopeError("truncation order must be a nonnegative integer")
    v = a.valuation
    if len(a.coeffs) == 1 and a.tail is None:
        return FormalScalar(-v, (a.coeffs[0].reciprocal(),))
    # coefficients of a relative to lam^v, known through index j_max
    j_max = len(a.coeffs) - 1 if a.tail is None else a.tail - v
    m_max = min(order, j_max) if a.tail is not None else order
    inv0 = a.coeffs[0].reciprocal()
    bs = [inv0]
    for m in range(1, m_max + 1):
        acc = None
        for j in range(1, m + 1):
            cj = a.coeffs[j] if j < len(a.coeffs) else EC_ZERO
            if not cj:
                continue
            term = cj * bs[m - j]
            acc = term if acc is None else acc + term
        bs.append(EC_ZERO if acc is None else -(inv0 * acc))
    return FormalScalar(-v, bs, m_max - v)


def scalar_eval(a, binding):
    """Substitute the strict rational lambda into an exact-tailed scalar."""
    if not binding.is_strict:
        raise FormalModeError("evaluation requires a strict lambda binding")
    if a.tail is not None:
        raise TruncatedTailError("refusing to evaluate a series with unknown tail coefficients")
    v = binding.value
    total = EC_ZERO
    for i, c in enumerate(a.coeffs):
        total = total + c * (v ** (a.valuation + i))
    return total


class LambdaBinding(Frozen):
    """Formal mode (lam stays a symbol) or strict mode (lam = positive rational)."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is not None:
            value = _frac(value)
            if value <= 0:
                raise ValueError("strict lambda must be positive")
        Frozen.__init__(self, value)

    @property
    def is_strict(self):
        return self.value is not None

    @staticmethod
    def strict(value):
        return LambdaBinding(value)

    def __eq__(self, other):
        return isinstance(other, LambdaBinding) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        if self.value is None:
            return "LambdaBinding(formal)"
        return "LambdaBinding(lam=%s)" % self.value


FORMAL = LambdaBinding(None)


# ============================================================
# Comparison and convergence
# ============================================================

def agreement_depth(a, b):
    """Highest power through which the two series can be compared (inf if both exact)."""
    return min(a.known_through(), b.known_through())


def agree(a, b):
    """Mathematical equality as far as both tails allow."""
    d = agreement_depth(a, b)
    if d == UNBOUNDED:
        return a.valuation == b.valuation and a.coeffs == b.coeffs
    for z in range(min(a.valuation, b.valuation), int(d) + 1):
        if a.coefficient(z) != b.coefficient(z):
            return False
    return True


# ============================================================
# Rendering and JSON
# ============================================================

def _coeff_str(c):
    # brackets for a sum, and for a quotient with a sum in it; a product such
    # as "(1+2*I)*pi" brackets its own sums
    s = top = str(c)
    if "(" in s:
        # top keeps the characters outside brackets
        depth, top = 0, ""
        for ch in s:
            depth += (ch == "(") - (ch == ")")
            if not depth:
                top += ch
    signed = "+" in s[1:] or "-" in s[1:]
    if "+" in top[1:] or "-" in top[1:] or (signed and "/" in top):
        return "(%s)" % s
    return s


def join_signed(pieces):
    """The rendered terms of a sum joined by " + ", or by " - " before a
    term that starts with "-"."""
    out = []
    for p in pieces:
        if not out:
            out.append(p)
        elif p.startswith("-"):
            out.append(" - " + p[1:])
        else:
            out.append(" + " + p)
    return "".join(out)


def coeff_piece(c, name):
    """c times name as one term of a sum: name for 1, -name for -1, c alone
    for an empty name, and the bracketed coefficient times name otherwise."""
    if not name:
        return _coeff_str(c)
    if c == EC_ONE:
        return name
    if c == _EC_MINUS_ONE:
        return "-" + name
    return "%s*%s" % (_coeff_str(c), name)


def render_series(a, piece):
    """Canonical string of any series, lam-powers ascending.

    piece(c, lam) renders one nonzero coefficient times lam, which is ""
    at lam^0; a piece starting with "-" joins as a difference.
    """
    if not a.coeffs:
        return "0" if a.tail is None else "0 + O(lam^%d)" % (a.tail + 1)
    out = join_signed([piece(c, "" if z == 0 else "lam" if z == 1 else "lam^%d" % z)
                       for z, c in enumerate(a.coeffs, a.valuation) if c])
    if a.tail is not None:
        out += " + O(lam^%d)" % (a.tail + 1)
    return out


def series_to_json(a, coeff_json):
    return {
        "valuation": a.valuation,
        "coeffs": [coeff_json(c) for c in a.coeffs],
        "tail": "exact" if a.tail is None else {"truncated_at": a.tail},
    }


def render_scalar(a):
    """Canonical string, lam-powers ascending."""
    return render_series(a, coeff_piece)


def scalar_to_json(a):
    """Each coefficient in its own wire form: an ExactComplex as a list of four
    ints, a PiScalar as a {"num", "den"} object."""
    return series_to_json(a, lambda c: c.to_json())


# phase_functions imports this module, so its PiScalar is bound last, once
from .phase_functions import PiScalar  # noqa: E402
