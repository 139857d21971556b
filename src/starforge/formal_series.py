"""Formal Laurent series in lam whose coefficients are phase-space functions.

A coefficient is a finite sum of GaussPoly parts with pairwise different
Gaussian decay rates (single GaussPoly addition needs equal alpha; sums of
different alphas live here instead).  The bullet product is the graded Cauchy
convolution with pointwise products — the trivial commutative extension of
multiplication to series.
"""

from .lambda_scalars import (EC_ZERO, as_coeff, FormalScalar,
                             tail_min, mul_tail)
from .phase_functions import (GaussPoly, PiRational, NotIntegrable,
                              render_gausspoly)


# ============================================================
# GaussSum: finite sums of GaussPoly parts, merged by alpha
# ============================================================

class GaussSum(object):
    __slots__ = ("ctx", "parts")

    def __init__(self, ctx, parts=()):
        by_alpha = {}
        for p in parts:
            if not isinstance(p, GaussPoly):
                raise TypeError("GaussSum parts must be GaussPoly")
            if not p:
                continue
            prev = by_alpha.get(p.alpha)
            merged = p if prev is None else prev + p
            if merged:
                by_alpha[p.alpha] = merged
            elif p.alpha in by_alpha:
                del by_alpha[p.alpha]
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "parts", tuple(by_alpha[a] for a in sorted(by_alpha)))

    def __setattr__(self, name, value):
        raise AttributeError("GaussSum is immutable")

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
        return GaussSum(ctx, ())

    def __bool__(self):
        return bool(self.parts)

    def is_zero(self):
        return not self.parts

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
        return GaussSum(self.ctx, self.parts + other.parts)

    def __sub__(self, other):
        if isinstance(other, GaussPoly):
            other = GaussSum.of(other)
        if not isinstance(other, GaussSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GaussSum(self.ctx, tuple(-p for p in self.parts))

    def __mul__(self, other):
        if isinstance(other, GaussPoly):
            other = GaussSum.of(other)
        if not isinstance(other, GaussSum):
            return NotImplemented
        out = []
        for a in self.parts:
            for b in other.parts:
                out.append(a * b)
        return GaussSum(self.ctx, out)

    def scale(self, c):
        c = as_coeff(c)
        return GaussSum(self.ctx, tuple(p.scale(c) for p in self.parts))

    def conj(self):
        return GaussSum(self.ctx, tuple(p.conj() for p in self.parts))

    def diff(self, var):
        return GaussSum(self.ctx, tuple(p.diff(var) for p in self.parts))

    def integrate(self):
        total = PiRational(EC_ZERO, 0)
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
        if not self.parts:
            return "0"
        out = render_gausspoly(self.parts[0])
        for p in self.parts[1:]:
            s = render_gausspoly(p)
            out += (" - " + s[1:]) if s.startswith("-") else (" + " + s)
        return out

    def __repr__(self):
        return "GaussSum(%s)" % self


# ============================================================
# FormalFunction
# ============================================================

class FormalFunction(object):
    """Laurent series in lam with GaussSum coefficients and a finite principal part."""

    __slots__ = ("ctx", "valuation", "coeffs", "tail")

    def __init__(self, ctx, valuation, coeffs, tail=None):
        if not isinstance(valuation, int):
            raise ValueError("valuation must be a finite integer")
        clean = []
        for c in coeffs:
            if isinstance(c, GaussPoly):
                c = GaussSum.of(c)
            if not isinstance(c, GaussSum):
                raise TypeError("coefficients must be GaussSum/GaussPoly")
            clean.append(c)
        while clean and not clean[0]:
            clean.pop(0)
            valuation += 1
        if tail is None:
            while clean and not clean[-1]:
                clean.pop()
            if not clean:
                valuation = 0
        else:
            tail = int(tail)
            keep = tail - valuation + 1
            if keep < 0:
                clean = []
            else:
                del clean[keep:]
                clean.extend([GaussSum.zero(ctx)] * (keep - len(clean)))
            while clean and not clean[0]:
                clean.pop(0)
                valuation += 1
            if not clean:
                valuation = tail + 1
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", tuple(clean))
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, name, value):
        raise AttributeError("FormalFunction is immutable")

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

    # ---- queries ----

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def end(self):
        return self.valuation + len(self.coeffs) - 1

    def coefficient(self, z):
        """GaussSum at lam^z, or None beyond the known tail."""
        if self.tail is not None and z > self.tail:
            return None
        if self.valuation <= z <= self.end():
            return self.coeffs[z - self.valuation]
        return GaussSum.zero(self.ctx)

    def is_poly(self):
        return all(c.is_poly() for c in self.coeffs)

    # ---- arithmetic ----

    def __add__(self, other):
        if not isinstance(other, FormalFunction):
            return NotImplemented
        t = tail_min(self.tail, other.tail)
        if not self.coeffs and not other.coeffs:
            return FormalFunction(self.ctx, 0 if t is None else t + 1, (), t)
        lo = min(self.valuation, other.valuation)
        hi = max(self.end(), other.end())
        if t is not None:
            hi = min(hi, t)
        out = []
        for z in range(lo, hi + 1):
            a = self.coefficient(z)
            b = other.coefficient(z)
            a = GaussSum.zero(self.ctx) if a is None else a
            b = GaussSum.zero(self.ctx) if b is None else b
            out.append(a + b)
        return FormalFunction(self.ctx, lo, out, t)

    def __sub__(self, other):
        if not isinstance(other, FormalFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalFunction(self.ctx, self.valuation,
                              tuple(-c for c in self.coeffs), self.tail)

    def scale(self, c):
        c = as_coeff(c)
        if not c:
            return FormalFunction(self.ctx, 0, (), self.tail) if self.tail is not None \
                else FormalFunction.zero(self.ctx)
        return FormalFunction(self.ctx, self.valuation,
                              tuple(s.scale(c) for s in self.coeffs), self.tail)

    def shift(self, k):
        t = None if self.tail is None else self.tail + k
        return FormalFunction(self.ctx, self.valuation + k, self.coeffs, t)

    def conj(self):
        return FormalFunction(self.ctx, self.valuation,
                              tuple(c.conj() for c in self.coeffs), self.tail)

    def truncate(self, order):
        return FormalFunction(self.ctx, self.valuation, self.coeffs,
                              tail_min(self.tail, order))

    def diff(self, var):
        return fs_diff(self, var)

    def __eq__(self, other):
        if isinstance(other, (GaussPoly, GaussSum)):
            other = FormalFunction.of(other)
        if not isinstance(other, FormalFunction):
            return NotImplemented
        d = min(self.known_through(), other.known_through())
        if d == float("inf"):
            return (self.valuation == other.valuation and self.coeffs == other.coeffs) \
                if (self.coeffs or other.coeffs) else True
        lo = min(self.valuation, other.valuation)
        for z in range(lo, int(d) + 1):
            a = self.coefficient(z)
            b = other.coefficient(z)
            if a is None or b is None:
                continue
            if a != b:
                return False
        return True

    def known_through(self):
        return float("inf") if self.tail is None else self.tail

    def __str__(self):
        return render_function(self)

    def __repr__(self):
        return "FormalFunction(%s)" % self


# ============================================================
# Operations
# ============================================================

def _scalar_times_function(c, F):
    """Graded Cauchy action of a FormalScalar on a FormalFunction."""
    if (not c.coeffs and c.tail is None) or (not F.coeffs and F.tail is None):
        return FormalFunction.zero(F.ctx)
    t = mul_tail(c.valuation, c.tail, F.valuation, F.tail)
    if not c.coeffs or not F.coeffs:
        return FormalFunction(F.ctx, 0 if t is None else t + 1, (), t)
    lo = c.valuation + F.valuation
    hi = c.end() + F.end()
    if t is not None:
        hi = min(hi, t)
    out = [GaussSum.zero(F.ctx) for _ in range(hi - lo + 1)]
    for i, cc in enumerate(c.coeffs):
        if not cc:
            continue
        for j, fc in enumerate(F.coeffs):
            z = lo + i + j
            if z > hi:
                break
            if fc:
                out[z - lo] = out[z - lo] + fc.scale(cc)
    return FormalFunction(F.ctx, lo, out, t)


def fs_linear_comb(c1, F1, c2, F2):
    """c1*F1 + c2*F2 with formal-scalar coefficients."""
    return _scalar_times_function(c1, F1) + _scalar_times_function(c2, F2)


def fs_bullet(F, G):
    """The commutative bullet product: graded Cauchy with pointwise products."""
    if (not F.coeffs and F.tail is None) or (not G.coeffs and G.tail is None):
        return FormalFunction.zero(F.ctx)
    t = mul_tail(F.valuation, F.tail, G.valuation, G.tail)
    if not F.coeffs or not G.coeffs:
        return FormalFunction(F.ctx, 0 if t is None else t + 1, (), t)
    lo = F.valuation + G.valuation
    hi = F.end() + G.end()
    if t is not None:
        hi = min(hi, t)
    out = [GaussSum.zero(F.ctx) for _ in range(hi - lo + 1)]
    for i, a in enumerate(F.coeffs):
        if not a:
            continue
        for j, b in enumerate(G.coeffs):
            z = lo + i + j
            if z > hi:
                break
            if b:
                out[z - lo] = out[z - lo] + a * b
    return FormalFunction(F.ctx, lo, out, t)


def fs_diff(F, var):
    """Termwise partial derivative; grading unchanged."""
    F.ctx.index(var)  # raises UnknownCoordinate early
    return FormalFunction(F.ctx, F.valuation,
                          tuple(c.diff(var) for c in F.coeffs), F.tail)


def fs_integrate(F):
    """Termwise Gaussian integration; a Laurent scalar with PiRational coefficients."""
    out = []
    for i, c in enumerate(F.coeffs):
        try:
            out.append(c.integrate())
        except NotIntegrable as exc:
            raise NotIntegrable("coefficient of lam^%d is not integrable: %s"
                                % (F.valuation + i, exc)) from None
    return FormalScalar(F.valuation if F.coeffs else 0, out, F.tail)


# ============================================================
# Rendering and JSON
# ============================================================

def render_function(F):
    if not F.coeffs:
        if F.tail is None:
            return "0"
        return "0 + O(lam^%d)" % (F.tail + 1)
    parts = []
    for i, c in enumerate(F.coeffs):
        if not c:
            continue
        z = F.valuation + i
        base = str(c)
        if z == 0:
            piece = base
        else:
            lam = "lam" if z == 1 else "lam^%d" % z
            if base == "1":
                piece = lam
            elif base == "-1":
                piece = "-" + lam
            else:
                if " " in base:
                    base = "(%s)" % base
                piece = "%s*%s" % (base, lam)
        parts.append(piece)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    if F.tail is not None:
        out += " + O(lam^%d)" % (F.tail + 1)
    return out


def fs_to_json(F):
    from .phase_functions import gp_to_json
    return {
        "valuation": F.valuation,
        "coeffs": [[gp_to_json(p) for p in c.parts] for c in F.coeffs],
        "tail": "exact" if F.tail is None else {"truncated_at": F.tail},
    }


def fs_from_json(ctx, data):
    from .phase_functions import gp_from_json
    tail = data["tail"]
    tail = None if tail == "exact" else int(tail["truncated_at"])
    coeffs = [GaussSum(ctx, [gp_from_json(ctx, p) for p in entry])
              for entry in data["coeffs"]]
    return FormalFunction(ctx, int(data["valuation"]), coeffs, tail)
