"""Star products as bidifferential-operator families.

A family is the sequence {B_k} with B_k(f,g) = sum c * (d^beta f)(d^gamma g);
the star product of two series is the graded triple sum lam^(l+j+m) *
B_m(F_l, G_j).  Two members are built in: the bullet family (B_0 pointwise,
nothing else) and the Moyal family, whose k-th operator differentiates each
factor exactly k times, so products terminate whenever either factor is a
polynomial — that termination is what makes the oscillator checks exact.

One row walk (_row_walk) multiplies Gaussian terms.  At n >= 2 and k >= 1, a
B_k whose table is a sum of products of one one-pair table over the canonical
pairs (q_i, p_i), as Moyal's is, walks each pair alone and convolves.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, lcm, prod
from operator import add, sub

from .lambda_scalars import (EngineError, ScopeError, ExactComplex, EC_ZERO, EC_ONE,
                             UNBOUNDED, Frozen, tail_min, mul_tail, _accumulate)
from .phase_functions import (GaussPoly, NotIntegrable, gp_diff, gp_pair,
                              gp_poisson, gp_mul_into, render_gausspoly, monomial_key,
                              _check_same_ctx, _gp)
from .formal_series import GaussSum, FormalFunction, fs_integrate


class TruncationRequired(EngineError):
    """A non-terminating star expansion was requested without an order."""


def _multi_indices(total, slots):
    # stars and bars: the slots - 1 bar cells among total + slots - 1, taken
    # in lexicographic order, split total into parts in lexicographic order;
    # a loop, not a recursion per slot, so any number of pairs enumerates
    cells = total + slots - 1
    for cuts in combinations(range(cells), slots - 1):
        prev = -1
        parts = []
        for cut in cuts:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(cells - 1 - prev)
        yield tuple(parts)


def _derivative(memo, beta, diff):
    # d^beta of the function memo[(0, ..., 0)]; each new entry is built from
    # its prefix (beta with its last nonzero exponent lowered by one) with a
    # single diff(function, coordinate index), so a memo shared across the
    # terms and orders of B_k takes every derivative once
    chain = []
    while beta not in memo:
        i = len(beta) - 1
        while not beta[i]:
            i -= 1
        chain.append((beta, i))
        beta = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
    poly = memo[beta]
    for beta, i in reversed(chain):
        poly = memo[beta] = diff(poly, i)
    return poly


def _q_next(row, u, v):
    # v^(j+1) Q_{j+1} from v^j Q_j, with Q_{j+1} = Q_j' - 2(u/v) x Q_j
    acc = {}
    for p, c in row:
        if p:
            acc[p - 1] = acc.get(p - 1, 0) + v * p * c
        if u:
            acc[p + 1] = acc.get(p + 1, 0) - 2 * u * c
    return tuple((p, c) for p, c in acc.items() if c)


def _row_mul(x, y):
    # the product of two one-variable rows
    acc = {}
    for p, c in x:
        for r, d in y:
            acc[p + r] = acc.get(p + r, 0) + c * d
    return tuple((p, c) for p, c in acc.items() if c)


class CoordinateTables(object):
    """Every derivative memo of StarFamily.B, shared by the B calls of one product.

    Pairs of polynomial parts multiply whole derivatives d^beta of each
    part, memoised per part object by `derivatives`.

    Pairs with a Gaussian factor are multiplied coordinate by coordinate.
    A term c x^e exp(-a r^2) is a product over coordinates of the pieces
    x_i^e_i exp(-a x_i^2), and a derivative d^beta acts on each piece alone:
    d^j (x^e exp(-a x^2)) = Q_j(x) exp(-a x^2) with Q_0 = x^e and
    Q_{j+1} = Q_j' - 2a x Q_j.  For a = u/v the polynomial v^j Q_j has
    integer coefficients; rows hold them as ((power, int), ...).  So every
    term of B_k on such a pair is a product over coordinates of one
    product of two such rows.  Their keys are ints.  On the pair path
    (StarFamily._pair_terms), `_pairs` keeps the int ops of each one-pair
    table T_r and the one-pair series B^1_r walked from the same rows.
    """

    __slots__ = ("_q", "_products", "_derivatives", "_pairs")

    def __init__(self):
        self._q = {}            # (u, v, e) -> [v^j Q_j for j = 0, 1, ...]
        self._products = {}     # (u, v, w, z) -> {(e1, j1, e2, j2): row}
        self._derivatives = {}  # id(poly) -> {beta: d^beta poly}
        self._pairs = {}        # (S, u, v, w, z) -> ([T_r ints], {(a, b, c, d): [B^1_r]})

    def derivatives(self, poly):
        """{beta: d^beta poly} for a polynomial part, filled by B.

        The memo holds poly itself at beta = 0, so its id cannot be reused
        while these tables are alive.
        """
        memo = self._derivatives.get(id(poly))
        if memo is None:
            memo = self._derivatives[id(poly)] = {(0,) * poly.ctx.dim: poly}
        return memo

    def q(self, u, v, e, j):
        rows = self._q.get((u, v, e))
        if rows is None:
            rows = self._q[(u, v, e)] = [((e, 1),)]
        while len(rows) <= j:
            rows.append(_q_next(rows[-1], u, v))
        return rows[j]


def _parts(f):
    # the nonzero parts of one operand of B, sorted by width
    if isinstance(f, GaussSum):
        return f.parts
    if isinstance(f, GaussPoly):
        return (f,) if f.terms else ()
    raise TypeError("B takes a GaussPoly or a GaussSum, not %s" % type(f).__name__)


def _expand(rows, c):
    # the tensor product of one-variable rows: (exponent tuple, c * coefficient)
    out = [((p,), c * x) for p, x in rows[0]]
    for row in rows[1:]:
        out = [(e + (p,), y * x) for e, y in out for p, x in row]
    return out


def _int_terms(part):
    # the common denominator l of a part's coefficients, and its terms as
    # (exps, re, im) ints over l
    l = lcm(*(c.d for c in part.terms.values()))
    return l, [(e, c.a * (l // c.d), c.b * (l // c.d)) for e, c in part.terms.items()]


def _int_ops(terms, v, z):
    # an operator table as ints over one denominator l: on rows of widths
    # u/v and w/z, c * d^dl(x^es) d^dr(x^et) sits over c.d * v^|dl| * z^|dr|
    dens = [c.d * v ** sum(dl) * z ** sum(dr) for c, dl, dr in terms]
    l = lcm(*dens)
    return l, tuple((c.a * (l // m), c.b * (l // m), dl, dr)
                    for (c, dl, dr), m in zip(terms, dens))


def _row_walk(ops, fterms, gterms, u, v, w, z, tables):
    """({exps: re}, {exps: im}) of the int table ops on every pair of int
    terms (exps, re, im) of two parts of widths u/v and w/z: the one place
    where rows from `tables` become terms, each a product over coordinates."""
    table = tables._products.setdefault((u, v, w, z), {})
    re, im = {}, {}
    for ca, cb, dl, dr in ops:
        for es, sa, sb in fterms:
            xa, xb = ca * sa - cb * sb, ca * sb + cb * sa
            for et, ta, tb in gterms:
                rows = []
                for key in zip(es, dl, et, dr):
                    row = table.get(key)
                    if row is None:
                        e1, j1, e2, j2 = key
                        row = table[key] = _row_mul(tables.q(u, v, e1, j1),
                                                    tables.q(w, z, e2, j2))
                    if not row:
                        break
                    rows.append(row)
                else:
                    a, b = xa * ta - xb * tb, xa * tb + xb * ta
                    if a:
                        for e, x in _expand(rows, a):
                            re[e] = re.get(e, 0) + x
                    if b:
                        for e, x in _expand(rows, b):
                            im[e] = im.get(e, 0) + x
    return re, im


def _gauss_pair_into(out, terms, fp, gp, tables):
    """out[exps] += the terms of one B_k on a pair of parts with a Gaussian
    factor, walking the whole n-pair table over the parts' terms.

    Every contribution is put over one common denominator d and summed as
    ints; each slot of out then takes one _accumulate.
    """
    u, v = fp.alpha.numerator, fp.alpha.denominator
    w, z = gp.alpha.numerator, gp.alpha.denominator
    l_op, ops = _int_ops(terms, v, z)
    l_s, fterms = _int_terms(fp)
    l_t, gterms = _int_terms(gp)
    re, im = _row_walk(ops, fterms, gterms, u, v, w, z, tables)
    d = l_op * l_s * l_t
    for e, a in re.items():
        _accumulate(out, e, a, im.pop(e, 0), d)
    for e, b in im.items():
        _accumulate(out, e, 0, b, d)


def _pair_series(ops, u, v, w, z, ex, tables):
    # B^1_r(q^a p^b exp(-(u/v) r^2), q^c p^d exp(-(w/z) r^2)) for ex = (a, b, c, d),
    # T_r's int ops walked over the two pieces: ((q power, p power), re, im)
    re, im = _row_walk(ops, (((ex[0], ex[1]), 1, 0),), (((ex[2], ex[3]), 1, 0),),
                       u, v, w, z, tables)
    return tuple((e, re.get(e, 0), im.get(e, 0)) for e in {**re, **im} if re.get(e) or im.get(e))


def _pairwise_into(out, one, k, fp, gp, S, tables):
    """out[exps] += the terms of B_k on a pair of parts with a Gaussian
    factor, where S's B_k factors over the canonical pairs: one = (T_0, ..., T_k).

    A term c x^e exp(-alpha r^2) is a product over the pairs i of pieces
    q_i^a p_i^b exp(-alpha (q_i^2 + p_i^2)), so on a term pair B_k is the sum
    over the compositions r_1 + ... + r_n = k of the products over i of
    B^1_(r_i) on pair i's pieces, kept per family and widths in `tables`.
    Every composition goes over one common denominator and is summed as
    ints, so each slot of out takes one _accumulate.
    """
    n = fp.ctx.n
    u, v = fp.alpha.numerator, fp.alpha.denominator
    w, z = gp.alpha.numerator, gp.alpha.denominator
    # T_r's int ops over ints[r][0], the order-r series' denominator; the
    # compositions of k with no empty T_r, with factors to their lcm l_op
    ints, memo = tables._pairs.setdefault((S, u, v, w, z), ([], {}))
    ints += [_int_ops(one[r], v, z) for r in range(len(ints), k + 1)]
    comps = [(comp, prod(ints[r][0] for r in comp)) for comp in _multi_indices(k, n)
             if all(one[r] for r in comp)]
    l_op = lcm(*(m for _, m in comps))
    comps = [(comp, l_op // m) for comp, m in comps]
    l_s, fterms = _int_terms(fp)
    l_t, gterms = _int_terms(gp)
    re, im = {}, {}
    for es, sa, sb in fterms:
        for et, ta, tb in gterms:
            a0, b0 = sa * ta - sb * tb, sa * tb + sb * ta
            series = []
            for i in range(n):
                ex = (es[i], es[n + i], et[i], et[n + i])
                s = memo.setdefault(ex, [])
                for r in range(len(s), k + 1):
                    s.append(_pair_series(ints[r][1], u, v, w, z, ex, tables))
                series.append(s)
            for comp, f in comps:
                # the terms of one composition, exponents interleaved (q1, p1, q2, p2, ...)
                acc = [((), a0 * f, b0 * f)]
                for s, r in zip(series, comp):
                    acc = [(e + e1, a * x - b * y, a * y + b * x)
                           for e, a, b in acc for e1, x, y in s[r]]
                for e, a, b in acc:
                    e = e[0::2] + e[1::2]
                    re[e] = re.get(e, 0) + a
                    im[e] = im.get(e, 0) + b
    d = l_op * l_s * l_t
    for e, a in re.items():
        _accumulate(out, e, a, im[e], d)


def _merged(terms, degree_bound=UNBOUNDED):
    # an operator table as {(dl, dr): coefficient}, terms merged, zeros
    # dropped, cut at |dl|, |dr| <= degree_bound
    merged = {}
    for c, dl, dr in terms:
        if sum(dl) <= degree_bound and sum(dr) <= degree_bound:
            merged[(dl, dr)] = merged.get((dl, dr), EC_ZERO) + c
    return {key: c for key, c in merged.items() if c}


def _swapped(terms, conj=False):
    # the terms of B(f, g) - B(g, f) from B's terms (c, a, b): each with its
    # swap (-c, b, a); with conj, of conj(B(f, g)) - B(g, f) on real f and g
    return [t for c, a, b in terms for t in ((c.conj() if conj else c, a, b), (-c, b, a))]


def _sum_of(ctx, out):
    # the GaussSum of a B_into accumulator
    parts = [_gp(ctx, out[w], w) for w in sorted(out)]
    return GaussSum._trusted(ctx, [p for p in parts if p])


def _poly_bound(x):
    # Moyal's termination rule: its B_k differentiates each slot exactly k
    # times, so B_k(x, .) and B_k(., x) vanish once k > deg x
    deg = x.total_degree()
    if deg is None:
        return 0
    return deg if x.is_poly() else UNBOUNDED


class StarFamily(Frozen):
    """Bidifferential family; its trace integrates against the density 1.

    term_fn(k, ctx) returns the k-th operator as a tuple of
    (coefficient, left_derivative_exponents, right_derivative_exponents).
    terms(k) is that table merged by exponent pair, zero sums dropped, once
    per order: every reader sees the operator, not how its terms were written.

    termination(x), when given, is a K (or UNBOUNDED) with B_k(x, .) and
    B_k(., x) zero for every k > K; it is a declaration, never checked.
    A family that declares none claims nothing, so its products and
    pairings of nonzero operands need a truncation order.
    """

    __slots__ = ("name", "ctx", "_term_fn", "_termination", "_cache")

    def __init__(self, name, ctx, term_fn, termination=None):
        Frozen.__init__(self, name, ctx, term_fn, termination, {})

    def terms(self, k):
        if k not in self._cache:
            # exponent tables become tuples: they key the merge and the derivative memos
            self._cache[k] = tuple((c, dl, dr) for (dl, dr), c in _merged(
                (c, tuple(dl), tuple(dr)) for c, dl, dr in self._term_fn(k, self.ctx)).items())
        return self._cache[k]

    def _factors(self, k):
        """(T_0, ..., T_k) when B_k factors over the canonical pairs, else None.

        T_r is B_r's table on pair 1 alone (coordinates 0 and n), as
        (c, (jq, jp), (kq, kp)); the terms on pair 1 alone project to
        distinct keys.  B_k factors when its table equals the sum, merged,
        over the compositions r_1 + ... + r_n = k of every product of one
        T_(r_i) term per pair i, placed on pair i.  Worked out once per k.
        """
        key = ("factors", k)
        if key not in self._cache:
            n = self.ctx.n
            one = tuple(tuple((c, (dl[0], dl[n]), (dr[0], dr[n])) for c, dl, dr in self.terms(r)
                              if sum(dl) + sum(dr) == dl[0] + dl[n] + dr[0] + dr[n])
                        for r in range(k + 1))
            built = []
            for comp in _multi_indices(k, n):
                prods = [(EC_ONE, (), ())]
                for r in comp:
                    prods = [(c * c1, dl + dl1, dr + dr1)
                             for c, dl, dr in prods for c1, dl1, dr1 in one[r]]
                built += [(c, dl[0::2] + dl[1::2], dr[0::2] + dr[1::2]) for c, dl, dr in prods]
            self._cache[key] = one if _merged(built) == _merged(self.terms(k)) else None
        return self._cache[key]

    def _pair_terms(self, k):
        # (T_0, ..., T_k) when the pair path takes B_k: it factors, and k has
        # more than one composition (n >= 2, k >= 1) to convolve
        return self._factors(k) if k and self.ctx.n > 1 else None

    def B(self, k, f, g, tables=None):
        """The k-th bidifferential operator applied to a pair of functions, as a GaussSum.

        f and g are GaussPoly or GaussSum; see B_into.
        """
        # B_into type-checks the operands; the phase space is checked here
        for x in (f, g):
            if isinstance(x, (GaussPoly, GaussSum)):
                _check_same_ctx(self, x)
        out = {}
        self.B_into(out, k, f, g, tables)
        return _sum_of(self.ctx, out)

    def B_into(self, out, k, f, g, tables=None):
        """Add the terms of B_k(f, g) into out, a {width: {exps: coefficient}} dict.

        f and g are GaussPoly or GaussSum.  The polynomial part is keyed by
        the int 0, a Gaussian part by its width (a Fraction); zero slots may
        remain.  Each pair of parts takes its path from the two widths: a
        pair of polynomials multiplies their memoised derivatives, a pair
        with a Gaussian factor walks coordinate rows, pair by pair where
        _pair_terms(k) says so (n >= 2, k >= 1, B_k factors).  The
        memos live in `tables`, a CoordinateTables (a fresh one when None);
        pass one tables object and one out dict to share that work between
        calls.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        # the parts of each operand; _parts type-checks anything but the
        # common cases, a GaussSum and a nonzero GaussPoly
        fparts = (f.parts if type(f) is GaussSum else
                  (f,) if type(f) is GaussPoly and f.terms else _parts(f))
        gparts = (g.parts if type(g) is GaussSum else
                  (g,) if type(g) is GaussPoly and g.terms else _parts(g))
        terms = self.terms(k)
        if not terms:
            return
        if tables is None:
            tables = CoordinateTables()
        memos = tables._derivatives
        for fp in fparts:
            for gp in gparts:
                # a polynomial's width is the int 0, so this test stays in C
                if fp.alpha or gp.alpha:
                    alpha = fp.alpha + gp.alpha
                    acc = out.get(alpha)
                    if acc is None:
                        acc = out[alpha] = {}
                    one = self._pair_terms(k)
                    if one:
                        _pairwise_into(acc, one, k, fp, gp, self, tables)
                    else:
                        _gauss_pair_into(acc, terms, fp, gp, tables)
                    continue
                # a part's memo, never empty, is read without a method call
                # once the first B call on that part has made it
                fmemo = memos.get(id(fp)) or tables.derivatives(fp)
                gmemo = memos.get(id(gp)) or tables.derivatives(gp)
                for coeff, dleft, dright in terms:
                    left = (fmemo[dleft] if dleft in fmemo
                            else _derivative(fmemo, dleft, gp_diff))
                    if left.terms:
                        right = (gmemo[dright] if dright in gmemo
                                 else _derivative(gmemo, dright, gp_diff))
                        if right.terms:
                            acc = out.get(0)
                            if acc is None:
                                acc = out[0] = {}
                            gp_mul_into(acc, coeff, left.terms, right.terms)

    def termination_bound(self, f, g):
        """A K with B_k(f, g) = 0 for all k > K: the smaller of the family's
        rule on f and on g, or UNBOUNDED when it declares none."""
        rule = self._termination
        return UNBOUNDED if rule is None else min(rule(f), rule(g))

    def __repr__(self):
        return "StarFamily(%s, n=%d)" % (self.name, self.ctx.n)


# ============================================================
# Built-in families
# ============================================================

def _bullet_terms(k, ctx):
    if k == 0:
        zero = (0,) * ctx.dim
        return ((EC_ONE, zero, zero),)
    return ()


def bullet_family(ctx):
    return StarFamily("bullet", ctx, _bullet_terms, termination=lambda x: 0)


def _moyal_terms(k, ctx):
    n = ctx.n
    half_i = ExactComplex(0, Fraction(1, 2))
    neg_half_i = ExactComplex(0, Fraction(-1, 2))
    out = []
    for a in range(k + 1):
        b = k - a
        base = (neg_half_i ** a) * (half_i ** b)
        for mu in _multi_indices(a, n):
            for nu in _multi_indices(b, n):
                fact = 1
                for e in mu:
                    fact *= factorial(e)
                for e in nu:
                    fact *= factorial(e)
                coeff = base * Fraction(1, fact)
                # left factor: nu q-derivatives and mu p-derivatives; right swaps
                out.append((coeff, nu + mu, mu + nu))
    return tuple(out)


def moyal_family(ctx):
    return StarFamily("moyal", ctx, _moyal_terms, termination=_poly_bound)


# ============================================================
# Star product on series
# ============================================================

def truncation_order(what, order, lowest):
    """The order at which an expansion that does not terminate is cut: one
    is needed, and it may not lie below the expansion's lowest power."""
    if order is None:
        raise TruncationRequired(
            "star %s does not terminate here; pass a truncation order" % what)
    if order < lowest:
        raise ScopeError(
            "truncation order %d is below the %s's lowest power %d, "
            "so no coefficient would be known" % (order, what, lowest))
    return order


def star_mul(S, F, G, order=None):
    """Graded star product; exact when every coefficient pair terminates."""
    return _graded_product(S, F, G, order)


def _graded_product(S, F, G, order):
    # the graded triple sum over lam^(l+j+m) B_m(F_l, G_j), skipping the
    # orders m whose operator table is empty; one phase space for all three
    _check_same_ctx(S, F)
    _check_same_ctx(S, G)
    ctx = S.ctx
    if (not F.coeffs and F.tail is None) or (not G.coeffs and G.tail is None):
        return FormalFunction.zero(ctx)
    t = mul_tail(F.valuation, F.tail, G.valuation, G.tail)
    if not F.coeffs or not G.coeffs:
        return FormalFunction(ctx, 0 if t is None else t + 1, (), t)

    lo = F.valuation + G.valuation
    bounds = {(l, j): S.termination_bound(a, b)
              for l, a in enumerate(F.coeffs) if a for j, b in enumerate(G.coeffs) if b}
    # (l, j) = (0, 0) always pairs two nonzero coefficients, so bounds is not
    # empty; an unbounded top always comes with a tail, never below lo
    top = max(lo + l + j + k_bound for (l, j), k_bound in bounds.items())
    if top == UNBOUNDED:
        t = tail_min(t, truncation_order("product", order, lo))
    hi = top if t is None else t
    acc = [{} for _ in range(hi - lo + 1)]
    # one set of derivative memos, shared by every (l, j) and order m
    tables = CoordinateTables()
    for (l, j), k_bound in bounds.items():
        base = lo + l + j
        for m in range(min(k_bound, hi - base) + 1):
            if S.terms(m):
                S.B_into(acc[base + m - lo], m, F.coeffs[l], G.coeffs[j], tables)
    return FormalFunction(ctx, lo, [_sum_of(ctx, out) for out in acc], t)


def _commutator_family(S):
    # the family whose B_m(f, g) is S's B_m(f, g) - B_m(g, f): each term
    # (c, dl, dr) with its swap (-c, dr, dl), which the family merges.  It
    # lives in S's cache, so each of its tables is built once.  S's rule
    # holds for it: where B_m(f, g) and B_m(g, f) vanish, so does their difference.
    C = S._cache.get("commutator")
    if C is None:
        C = S._cache["commutator"] = StarFamily("[%s]" % S.name, S.ctx,
                                                lambda k, ctx: _swapped(S.terms(k)),
                                                S._termination)
    return C


def star_commutator(S, F, G, order=None):
    """F * G - G * F, as one graded product over B_m(f, g) - B_m(g, f).

    It needs a truncation order where F * G or G * F does, and takes their
    tail and lowest power.  Under the Moyal and bullet tables,
    B_m(g, f) = (-1)^m B_m(f, g), so only the odd orders m are visited, at
    2 B_m (under bullet, none).
    """
    return _graded_product(_commutator_family(S), F, G, order)


def star_trace(S, F):
    """Trace: lam^(-n) times the integral of F."""
    _check_same_ctx(S, F)
    return fs_integrate(F).shift(-S.ctx.n)


# ============================================================
# Closedness
# ============================================================

class ClosednessReport(Frozen):
    __slots__ = ("values", "b0_integral", "pointwise_integral", "closed")

    def __init__(self, values, b0_integral, pointwise_integral):
        Frozen.__init__(self, values, b0_integral, pointwise_integral,
                        all(not v for k, v in values.items() if k >= 1)
                        and b0_integral == pointwise_integral)

    def __repr__(self):
        return "ClosednessReport(closed=%s)" % self.closed


def closedness_check(S, f, g, maxk):
    """Exact integrals of B_k(f,g) for k = 0..maxk; closed means all vanish for k >= 1."""
    if maxk < 1:
        # with no k >= 1 to check, "closed" would certify nothing
        raise ScopeError("closedness needs maxk >= 1")
    if f.alpha + g.alpha == 0:
        raise NotIntegrable("closedness needs a Gaussian factor on at least one side")
    values = {}
    tables = CoordinateTables()
    for k in range(0, maxk + 1):
        values[k] = S.B(k, f, g, tables).integrate()
    pointwise = gp_pair(f, g)
    return ClosednessReport(values, values[0], pointwise)


# ============================================================
# Axiom suite
# ============================================================

class AxiomReport(Frozen):
    """Per-axiom verdicts with the finite scope they certify."""

    __slots__ = ("family", "scope", "entries")

    @property
    def passed(self):
        return all(e["verdict"] != "fail" for e in self.entries.values())

    @property
    def verdict(self):
        return "pass" if self.passed else "fail"

    def to_json(self):
        return {
            "family": self.family,
            "scope": self.scope,
            "axioms": [dict(axiom=k, **self.entries[k]) for k in sorted(self.entries)],
            "passed": self.passed,
            "verdict": self.verdict,
        }

    def __repr__(self):
        bad = [k for k, e in self.entries.items() if e["verdict"] == "fail"]
        return "AxiomReport(%s, %s)" % (self.family,
                                        "all pass" if not bad else "fail at %s" % bad)


def _monomial_generators(ctx, degree_bound):
    exp_list = []
    for total in range(degree_bound + 1):
        exp_list.extend(_multi_indices(total, ctx.dim))
    exp_list.sort(key=monomial_key)
    return [GaussPoly.monomial(ctx, exps) for exps in exp_list]


def _splits(gamma, memo):
    # (s, gamma - s, C(gamma, s), |s|) for every s <= gamma: the terms of the
    # Leibniz rule for d^gamma, where a zero coordinate of gamma has one choice
    if gamma not in memo:
        memo[gamma] = [(s, tuple(map(sub, gamma, s)), prod(map(comb, gamma, s)), sum(s))
                       for s in product(*(range(e + 1) for e in gamma))]
    return memo[gamma]


def _associator_table(S, k, degree_bound):
    # axiom 3's order-k associator as {(a, b, c): coefficient of d^a f d^b g
    # d^c h}, zeros dropped, cut at |a|, |b|, |c| <= degree_bound while it is
    # composed (see axiom_suite)
    d, diff, memo = degree_bound, {}, {}
    ops = [[(c, dl, dr, sum(dl), sum(dr)) for c, dl, dr in S.terms(m)] for m in range(k + 1)]
    for l in range(k + 1):
        inner = [t for t in ops[k - l] if t[3] <= d and t[4] <= d]
        for c1, a1, b1, n1, m1 in ops[l]:
            for c2, a2, b2, n2, m2 in inner:
                c = c1 * c2
                if m1 <= d:  # d^a1 on d^a2 f d^b2 g, d^b1 on h
                    for s, t, x, w in _splits(a1, memo):
                        if n2 + w <= d and m2 + n1 - w <= d:
                            key = (tuple(map(add, a2, s)), tuple(map(add, b2, t)), b1)
                            diff[key] = diff.get(key, EC_ZERO) + c * x
                if n1 <= d:  # d^a1 on f, d^b1 on d^a2 g d^b2 h
                    for s, t, x, w in _splits(b1, memo):
                        if n2 + w <= d and m2 + m1 - w <= d:
                            key = (a1, tuple(map(add, a2, s)), tuple(map(add, b2, t)))
                            diff[key] = diff.get(key, EC_ZERO) - c * x
    return {key: c for key, c in diff.items() if c}


def _least_key(tables):
    # (k, key) for the first nonzero table of the (k, table) pairs and its
    # least key, slot by slot in the generators' order; None if all are zero
    for k, table in tables:
        if table:
            return k, min(table, key=lambda key: tuple(map(monomial_key, key)))
    return None


def axiom_suite(S, degree_bound, order_bound):
    """Check the star-product axioms on all monomials of total degree <= degree_bound
    through operator order <= order_bound.  Locality and bidifferentiality hold by
    construction (the representation cannot express anything else).

    Axioms 3 to 7 are decided on operator tables cut at the degree bound
    (Gerstenhaber 1964; Bayen et al. 1978), and each fail reads its
    counterexample from them.  B_k(f, g) = sum c d^a f d^b g, so by the
    Leibniz rule d^y(uv) = sum_(s <= y) C(y, s) d^s u d^(y-s) v the order-k
    associator sum_l B_l(B_(k-l)(f, g), h) - B_l(f, B_(k-l)(g, h)) is a
    tridifferential table sum t_abc d^a f d^b g d^c h.  On real monomials
    conj(B_k(f, g)) - B_k(g, f) is the two-slot table conj(c_ab) - c_ba,
    B_1(f, g) - B_1(g, f) - i{f, g} is c_ab - c_ba less i times the Poisson
    table (+1 at (q_i, p_i), -1 at (p_i, q_i)), and B_0(f, g) - fg is B_0's
    table less 1 at (0, 0).  Axiom 5's B_k(1, f) - [k = 0] f and
    B_k(f, 1) - [k = 0] f are the keys (0, b) and (a, 0) of B_k's table,
    less 1 at (0, 0) for k = 0.

    On monomials x^A, x^B, x^C a key vanishes where a exceeds A (or b B, or
    c C) in some coordinate, so only the keys with |a|, |b|, |c| <=
    degree_bound act on the generators; on (x^a, x^b, x^c) itself the
    constant term is a! b! c! t_abc.  So a nonzero cut key fails on its own
    monomials, and an input that fails has a nonzero key at or below it in
    every coordinate.  The generators are sorted by monomial_key, which is
    graded, so that key comes no later.  An axiom thus holds on every
    generator exactly when its cut tables are zero, and the first
    counterexample of a loop over the orders, and inside each over the
    inputs in generator order, is the least key at the least order whose
    table is nonzero.  Axiom 5 reports as a loop over the generators, and
    inside each over the orders, so its witness is the least (generator,
    order).  Axiom 7 holds for complex inputs when it holds for
    real ones: with H(f, g) the real-pair defect, the defect of f + i g and
    u + i v is H(f, u) - i H(f, v) - i H(g, u) - H(g, v), as B applies its
    table.  A fail's difference is B's own, on its witness.

    No check calls B_l where the operator table of order l is empty or an
    operand is zero: such a call is exactly zero (an empty table is the zero
    operator, and B_l is bilinear), so it changes no verdict or difference.
    """
    if degree_bound < 1 or order_bound < 1:
        raise ScopeError("degree_bound and order_bound must be >= 1")
    ctx, d = S.ctx, degree_bound
    gens = _monomial_generators(ctx, degree_bound)
    # one set of derivative memos for every B call of the suite
    tables = CoordinateTables()
    one = GaussPoly.constant(ctx, 1)
    i_unit = ExactComplex(0, 1)
    zero = GaussSum.zero(ctx)
    scope = {"degree_bound": degree_bound, "order_bound": order_bound,
             "generators": len(gens)}
    entries = {}

    def record(axiom, found):
        # found: the first (inputs, order, difference) that fails the axiom, or None
        if found is None:
            entries[axiom] = {"verdict": "pass", "scope": scope, "counterexample": None}
            return
        inputs, k, diff = found
        entries[axiom] = {
            "verdict": "fail",
            "scope": scope,
            "counterexample": {
                "inputs": [render_gausspoly(x) if isinstance(x, GaussPoly) else str(x)
                           for x in inputs],
                "order": k,
                "difference": str(diff),
            },
        }

    def B(m, f, g):
        # B_m(f, g), with no call where it is zero: an empty table or a zero operand
        return S.B(m, f, g, tables) if S.terms(m) and f and g else zero

    def at(found, defect):
        # the (inputs, order, difference) of a least key found = (k, exponent
        # tuples): its monomials, and defect(k, *monomials) computed by B
        if found is not None:
            k, key = found
            xs = [GaussPoly.monomial(ctx, e) for e in key]
            return xs, k, defect(k, *xs)

    # the orders whose operator table is not empty; B is zero at the others
    live = [m for m in range(order_bound + 1) if S.terms(m)]

    # axiom 1: bilinearity over the coefficient field
    def bilinearity():
        c = ExactComplex(2, 1)
        # c*f + g, shared by every order
        mixes = [[f.scale(c) + g for g in gens] for f in gens]
        for k in live:
            pair = [[S.B(k, f, g, tables) for g in gens] for f in gens]
            for fi, f in enumerate(gens):
                for gi, g in enumerate(gens):
                    hi = (gi + 1) % len(gens)
                    h = gens[hi]
                    mixed = mixes[fi][gi]
                    lhs = S.B(k, mixed, h, tables)
                    rhs = pair[fi][hi].scale(c) + pair[gi][hi]
                    if lhs != rhs:
                        yield [f, g, h], k, lhs - rhs
                    lhs = S.B(k, h, mixed, tables)
                    rhs = pair[hi][fi].scale(c) + pair[hi][gi]
                    if lhs != rhs:
                        yield [h, f, g], k, lhs - rhs
    record(1, next(bilinearity(), None))

    # axiom 2: locality — certified structurally
    entries[2] = {"verdict": "by_construction", "scope": scope, "counterexample": None,
                  "note": "operators are finite derivative combinations; supports cannot grow"}

    # axiom 3: associativity order by order
    record(3, at(_least_key((k, _associator_table(S, k, d)) for k in range(order_bound + 1)),
                 lambda k, f, g, h: sum((B(l, B(k - l, f, g), h) - B(l, f, B(k - l, g, h))
                                         for l in range(k + 1)), zero)))

    # axioms 4 and 5: B_0 is the pointwise product and the constant 1 the identity
    o = (0,) * ctx.dim

    def unit(k):
        # B_k's table, less the pointwise product at k = 0, cut at the degree bound
        return _merged(S.terms(k) + (((-EC_ONE, o, o),) if k == 0 else ()), d)

    record(4, at(_least_key([(0, unit(0))]),
                 lambda k, f, g: B(0, f, g) - GaussSum.of(f * g)))

    def identity(k, f):
        want = GaussSum.of(f) if k == 0 else zero
        return (B(k, one, f) - want) or (B(k, f, one) - want)
    # the least (generator, order) among the keys with a zero slot
    found = min(((monomial_key(x), k, (x,)) for k in range(order_bound + 1)
                 for a, b in unit(k) for x, other in ((a, b), (b, a)) if not any(other)),
                default=None)
    record(5, found and at(found[1:], identity))

    # axiom 6: first-order commutator is i times the Poisson bracket
    e = [tuple(int(j == i) for j in range(ctx.dim)) for i in range(ctx.dim)]
    poisson = [t for j in range(ctx.n)
               for t in ((-i_unit, e[j], e[ctx.n + j]), (i_unit, e[ctx.n + j], e[j]))]
    record(6, at(_least_key([(1, _merged(_swapped(S.terms(1)) + poisson, d))]),
                 lambda k, f, g: (B(1, f, g) - B(1, g, f)
                                  - GaussSum.of(gp_poisson(f, g).scale(i_unit)))))

    # axiom 7: Hermiticity conj(B_k(f,g)) = B_k(conj g, conj f)
    record(7, at(_least_key((k, _merged(_swapped(S.terms(k), True), d)) for k in live),
                 lambda k, f, g: B(k, f, g).conj() - B(k, g.conj(), f.conj())))

    # axiom 8: bidifferential — certified structurally
    entries[8] = {"verdict": "by_construction", "scope": scope, "counterexample": None,
                  "note": "the family is stored as derivative exponent tables"}

    # axiom 9: naturality — differential order of B_k at most k in each argument
    orders = {}
    for k in range(order_bound + 1):
        terms = S.terms(k)
        left = max((sum(dl) for _, dl, _ in terms), default=0)
        right = max((sum(dr) for _, _, dr in terms), default=0)
        orders[k] = (left, right)
        if left > k or right > k:
            record(9, (["operator table"], k,
                       "left order %d / right order %d exceeds %d" % (left, right, k)))
            break
    else:
        entries[9] = {"verdict": "pass", "scope": scope, "counterexample": None,
                      "measured_orders": {str(k): list(v) for k, v in orders.items()}}

    return AxiomReport(S.name, scope, entries)
