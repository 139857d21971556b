"""Formal Laurent series in lam whose coefficients are phase-space functions.

A coefficient is a finite sum of GaussPoly parts with pairwise different
Gaussian decay rates (single GaussPoly addition needs equal alpha; sums of
different alphas live here instead).  The bullet product is the graded Cauchy
convolution with pointwise products — the trivial commutative extension of
multiplication to series.
"""

from .lambda_scalars import (as_coeff, FormalScalar, Frozen, LaurentSeries,
                             graded_product, join_signed, mul_add, render_series,
                             series_to_json)
from .phase_functions import (GaussPoly, NotIntegrable, _PI_ZERO,
                              render_gausspoly, gp_to_json)


# ============================================================
# GaussSum: finite sums of GaussPoly parts, merged by alpha
# ============================================================

def _merge_by_width(parts):
    # GaussPoly parts summed per width, zeros dropped, sorted by width
    by_alpha = {}
    for p in parts:
        if not p:
            continue
        prev = by_alpha.get(p.alpha)
        merged = p if prev is None else prev + p
        if merged:
            by_alpha[p.alpha] = merged
        elif p.alpha in by_alpha:
            del by_alpha[p.alpha]
    return tuple(by_alpha[a] for a in sorted(by_alpha))


class GaussSum(Frozen):
    __slots__ = ("ctx", "parts")

    def __init__(self, ctx, parts=()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, GaussPoly):
                raise TypeError("GaussSum parts must be GaussPoly")
        Frozen.__init__(self, ctx, _merge_by_width(parts))

    @staticmethod
    def of(f):
        return GaussSum(f.ctx, (f,))

    @staticmethod
    def _trusted(ctx, parts):
        # parts built by the engine: nonzero, distinct widths, sorted by alpha
        out = object.__new__(GaussSum)
        object.__setattr__(out, "ctx", ctx)
        object.__setattr__(out, "parts", tuple(parts))
        return out

    @staticmethod
    def zero(ctx):
        return GaussSum._trusted(ctx, ())

    def __bool__(self):
        return bool(self.parts)

    def is_poly(self):
        return all(p.alpha == 0 for p in self.parts)

    def total_degree(self):
        degs = [p.total_degree() for p in self.parts]
        return max(degs) if degs else None

    def __add__(self, other):
        if isinstance(other, GaussPoly):
            other = GaussSum.of(other)
        if not isinstance(other, GaussSum):
            return NotImplemented
        return GaussSum._trusted(self.ctx, _merge_by_width(self.parts + other.parts))

    def __sub__(self, other):
        if isinstance(other, GaussPoly):
            other = GaussSum.of(other)
        if not isinstance(other, GaussSum):
            return NotImplemented
        return self + (-other)

    # negating, scaling by a nonzero constant and conjugating keep every
    # part nonzero and its width, so the results are built trusted

    def __neg__(self):
        return GaussSum._trusted(self.ctx, [-p for p in self.parts])

    def __mul__(self, other):
        if isinstance(other, GaussPoly):
            other = GaussSum.of(other)
        if not isinstance(other, GaussSum):
            return NotImplemented
        return GaussSum._trusted(self.ctx, _merge_by_width(
            [a * b for a in self.parts for b in other.parts]))

    def scale(self, c):
        c = as_coeff(c)
        if not c:
            return GaussSum.zero(self.ctx)
        return GaussSum._trusted(self.ctx, [p.scale(c) for p in self.parts])

    def conj(self):
        return GaussSum._trusted(self.ctx, [p.conj() for p in self.parts])

    def diff(self, var):
        return GaussSum._trusted(self.ctx, _merge_by_width([p.diff(var) for p in self.parts]))

    def integrate(self):
        total = _PI_ZERO
        for p in self.parts:
            total = total + p.integrate()
        return total

    def eval_pairs(self, point):
        """Per-part exact (poly_value, exp_argument) pairs at the point."""
        return [p.eval(point) for p in self.parts]

    def __eq__(self, other):
        if isinstance(other, GaussPoly):
            other = GaussSum.of(other)
        if not isinstance(other, GaussSum):
            return NotImplemented
        return self.parts == other.parts

    def __str__(self):
        return join_signed([render_gausspoly(p) for p in self.parts]) or "0"

    def __repr__(self):
        return "GaussSum(%s)" % self


# ============================================================
# FormalFunction
# ============================================================

def _as_sum(c):
    if isinstance(c, GaussPoly):
        return GaussSum.of(c)
    if not isinstance(c, GaussSum):
        raise TypeError("coefficients must be GaussSum/GaussPoly")
    return c


class FormalFunction(LaurentSeries):
    """Laurent series in lam with GaussSum coefficients and a finite principal part."""

    __slots__ = ("ctx",)
    _norm = staticmethod(_as_sum)

    def __init__(self, ctx, valuation, coeffs, tail=None):
        object.__setattr__(self, "ctx", ctx)
        self._set(valuation, coeffs, tail)

    def _like(self, valuation, coeffs, tail):
        return FormalFunction(self.ctx, valuation, coeffs, tail)

    def _zero(self):
        return GaussSum.zero(self.ctx)

    # ---- constructors ----

    @staticmethod
    def zero(ctx):
        return FormalFunction(ctx, 0, ())

    @staticmethod
    def one(ctx):
        return FormalFunction(ctx, 0, (GaussPoly.constant(ctx, 1),))

    @staticmethod
    def of(f, power=0):
        """Wrap a GaussPoly/GaussSum as the lam^power coefficient."""
        ctx = f.ctx
        return FormalFunction(ctx, power, (f,))

    @staticmethod
    def coordinate(ctx, var):
        return FormalFunction.of(GaussPoly.coordinate(ctx, var))

    # ---- queries and arithmetic ----

    def scale(self, c):
        c = as_coeff(c)
        return self._map(lambda s: s.scale(c))

    def __eq__(self, other):
        # a single GaussPoly/GaussSum compares as the lam^0 series
        if isinstance(other, (GaussPoly, GaussSum)):
            other = FormalFunction.of(other)
        return LaurentSeries.__eq__(self, other)

    def __str__(self):
        return render_function(self)


# ============================================================
# Operations
# ============================================================

def _scale_add(acc, c, f):
    return acc + f.scale(c)


def _scalar_times_function(c, F):
    """Graded Cauchy action of a FormalScalar on a FormalFunction."""
    return graded_product(c, F, _scale_add, F._like, GaussSum.zero(F.ctx))


def fs_linear_comb(c1, F1, c2, F2):
    """c1*F1 + c2*F2 with formal-scalar coefficients."""
    return _scalar_times_function(c1, F1) + _scalar_times_function(c2, F2)


def fs_bullet(F, G):
    """The commutative bullet product: graded Cauchy with pointwise products."""
    return graded_product(F, G, mul_add, F._like, GaussSum.zero(F.ctx))


def fs_diff(F, var):
    """Termwise partial derivative; grading unchanged."""
    F.ctx.index(var)  # raises UnknownCoordinate early
    return F._map(lambda c: c.diff(var))


def fs_integrate(F):
    """Termwise Gaussian integration; a Laurent scalar with c*pi^n PiScalar coefficients."""
    out = []
    for i, c in enumerate(F.coeffs):
        try:
            out.append(c.integrate())
        except NotIntegrable as exc:
            raise NotIntegrable("coefficient of lam^%d is not integrable: %s"
                                % (F.valuation + i, exc)) from None
    return FormalScalar(F.valuation, out, F.tail)


# ============================================================
# Rendering and JSON
# ============================================================

def _function_piece(c, lam):
    base = str(c)
    if not lam:
        return base
    if base == "1":
        return lam
    if base == "-1":
        return "-" + lam
    return "%s*%s" % ("(%s)" % base if " " in base else base, lam)


def render_function(F):
    return render_series(F, _function_piece)


def _sum_json(c):
    return [gp_to_json(p) for p in c.parts]


def fs_to_json(F):
    return series_to_json(F, _sum_json)
