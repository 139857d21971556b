"""Known answers for the benchmark, computed without the engine.

Everything here is plain `fractions.Fraction` arithmetic.  Complex rationals
are (re, im) pairs, a polynomial on 2n phase-space coordinates is a dict
{exponent tuple: (re, im)} with coordinates ordered q1..qn, p1..pn, and a
series is a dict {(lam power, alpha, exponent tuple): (re, im)} with no zero
entries.  The renderers at the bottom reproduce the engine's printed forms for
the few values the CLI prints as text only.
"""

from fractions import Fraction
from math import comb, factorial

ZERO = (Fraction(0), Fraction(0))


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _bump(out, key, c):
    acc = cadd(out.get(key, ZERO), c)
    if acc == ZERO:
        out.pop(key, None)
    else:
        out[key] = acc


def _i_power(k):
    # i^k as an exact pair
    return ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))[k % 4]


# ------------------------------------------------------------
# Polynomials
# ------------------------------------------------------------

def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _bump(out, tuple(a + b for a, b in zip(e1, e2)), cmul(c1, c2))
    return out


def poly_diff(f, multi):
    """Apply d^multi (one exponent per coordinate)."""
    out = {}
    for exps, c in f.items():
        factor = 1
        lowered = []
        for e, d in zip(exps, multi):
            if d > e:
                break
            factor *= factorial(e) // factorial(e - d)
            lowered.append(e - d)
        else:
            _bump(out, tuple(lowered), (c[0] * factor, c[1] * factor))
    return out


def _multi_indices(total, slots):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(total - head, slots - 1):
            yield (head,) + rest


def moyal_star_poly(f, g, n):
    """Moyal product of two polynomials: {lam power: polynomial}.

    f * g = sum_k (i lam/2)^k sum_{|a|+|b|=k} (-1)^|b| / (a! b!)
            (d_q^a d_p^b f)(d_p^a d_q^b g), which terminates for polynomials.
    """
    deg = max((sum(e) for e in f), default=0) + max((sum(e) for e in g), default=0)
    out = {}
    for k in range(deg + 1):
        term = {}
        for ka in range(k + 1):
            for a in _multi_indices(ka, n):
                for b in _multi_indices(k - ka, n):
                    w = Fraction((-1) ** (k - ka), _fact_prod(a) * _fact_prod(b))
                    left = poly_diff(f, a + b)
                    right = poly_diff(g, b + a)
                    for exps, c in poly_mul(left, right).items():
                        _bump(term, exps, (c[0] * w, c[1] * w))
        scale = cmul(_i_power(k), (Fraction(1, 2 ** k), Fraction(0)))
        term = {e: cmul(c, scale) for e, c in term.items()}
        if term:
            out[k] = term
    return out


def _fact_prod(idx):
    out = 1
    for e in idx:
        out *= factorial(e)
    return out


def poly_series(by_power, alpha=Fraction(0)):
    """{lam power: polynomial} -> series dict."""
    out = {}
    for z, poly in by_power.items():
        for exps, c in poly.items():
            _bump(out, (z, alpha, exps), c)
    return out


def series_sub(x, y):
    out = dict(x)
    for key, c in y.items():
        _bump(out, key, (-c[0], -c[1]))
    return out


def r2_power(j, n):
    """(q1^2 + ... + pn^2)^j expanded by the multinomial theorem."""
    out = {}
    for split in _multi_indices(j, 2 * n):
        coeff = factorial(j)
        for s in split:
            coeff //= factorial(s)
        out[tuple(2 * s for s in split)] = (Fraction(coeff), Fraction(0))
    return out


def gauss_gauss(a, b, n, order):
    """exp(-a r^2) * exp(-b r^2) through lam^order as a series dict.

    Closed form (1 + ab lam^2)^(-n) exp(-(a+b) r^2 / (1 + ab lam^2)): with
    s = ab lam^2 and u = s/(1+s) this is
    (1+s)^(-n) exp((a+b) r^2 u) exp(-(a+b) r^2), expanded in s.
    """
    a, b = Fraction(a), Fraction(b)
    m_max = order // 2
    # u^j as a power series in s, truncated at s^m_max
    u = [Fraction(0)] + [Fraction((-1) ** (m - 1)) for m in range(1, m_max + 1)]
    u_pow = [[Fraction(1)] + [Fraction(0)] * m_max]
    for _ in range(m_max):
        prev = u_pow[-1]
        u_pow.append([sum(prev[i] * u[m - i] for i in range(m + 1))
                      for m in range(m_max + 1)])
    pre = [_binom_neg(n, i) for i in range(m_max + 1)]
    # exp((a+b) x u) = sum_j ((a+b) x)^j / j! u^j, x = r^2
    by_s = [dict() for _ in range(m_max + 1)]   # s power -> {j: coeff of x^j}
    for j in range(m_max + 1):
        w = (a + b) ** j / factorial(j)
        for m in range(m_max + 1):
            if u_pow[j][m]:
                by_s[m][j] = by_s[m].get(j, 0) + w * u_pow[j][m]
    out = {}
    alpha = a + b
    for m in range(m_max + 1):
        poly_x = {}
        for i in range(m + 1):
            for j, c in by_s[m - i].items():
                poly_x[j] = poly_x.get(j, 0) + pre[i] * c
        lam_scale = (a * b) ** m
        for j, c in poly_x.items():
            if not c:
                continue
            for exps, mult in r2_power(j, n).items():
                _bump(out, (2 * m, alpha, exps), (c * lam_scale * mult[0], Fraction(0)))
    return out


def _binom_neg(n, i):
    # coefficient of s^i in (1+s)^(-n)
    return (-1) ** i * comb(n + i - 1, i)


def series_from_json(data):
    """The engine's series wire format -> (series dict, tail)."""
    out = {}
    for i, parts in enumerate(data["coeffs"]):
        z = data["valuation"] + i
        for part in parts:
            alpha = Fraction(*part["alpha"])
            for t in part["terms"]:
                rn, rd, im_n, im_d = t["coeff"]
                _bump(out, (z, alpha, tuple(t["exps"])),
                      (Fraction(rn, rd), Fraction(im_n, im_d)))
    tail = data["tail"]
    return out, (None if tail == "exact" else tail["truncated_at"])


# ------------------------------------------------------------
# Gaussian integrals
# ------------------------------------------------------------

def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gauss_integral(poly, alpha, n):
    """Integral of poly * exp(-alpha r^2) over R^2n, as c with value c * pi^n."""
    alpha = Fraction(alpha)
    total = ZERO
    for exps, c in poly.items():
        if any(e % 2 for e in exps):
            continue
        w = Fraction(1)
        for e in exps:
            w *= Fraction(_double_factorial(e - 1), (2 * alpha) ** (e // 2))
        total = cadd(total, (c[0] * w, c[1] * w))
    return (total[0] / alpha ** n, total[1] / alpha ** n)


# ------------------------------------------------------------
# pi, independently of the engine and its dependencies
# ------------------------------------------------------------

def _arctan_inv(x, scale):
    # arctan(1/x) * scale by the alternating Taylor series; each term is off
    # by less than two units (two floor divisions) and the dropped tail by
    # less than one
    total = 0
    term = scale // x
    k = 0
    x2 = x * x
    while term:
        total += term // (2 * k + 1) if k % 2 == 0 else -(term // (2 * k + 1))
        term //= x2
        k += 1
    return total, 2 * k + 1


def pi_interval(bits):
    """Rational lo < pi < hi from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239)."""
    scale = 1 << bits
    a, ea = _arctan_inv(5, scale)
    b, eb = _arctan_inv(239, scale)
    mid = 16 * a - 4 * b
    err = 16 * ea + 4 * eb
    return Fraction(mid - err, scale), Fraction(mid + err, scale)


def _cf(x, limit):
    out = []
    for _ in range(limit):
        whole = x.numerator // x.denominator
        out.append(whole)
        x -= whole
        if not x:
            break
        x = 1 / x
    return out


def pi_convergents(bits=512):
    """Convergents p/q of pi's continued fraction, as many as the bounds certify.

    Even-indexed convergents lie below pi and odd-indexed ones above.
    """
    lo, hi = pi_interval(bits)
    a_lo, a_hi = _cf(lo, 200), _cf(hi, 200)
    terms = []
    for x, y in zip(a_lo[:-1], a_hi[:-1]):
        if x != y:
            break
        terms.append(x)
    out = []
    p0, q0, p1, q1 = 1, 0, terms[0], 1
    out.append((p1, q1))
    for t in terms[1:]:
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        out.append((p1, q1))
    return out


# ------------------------------------------------------------
# Oscillator (Wigner) states
# ------------------------------------------------------------

def laguerre(level):
    """Coefficients of L_level(x) = sum_k C(level, k) (-x)^k / k!."""
    return [Fraction((-1) ** k * comb(level, k), factorial(k)) for k in range(level + 1)]


def wigner_pairing_one(level, lam0):
    """<W_level bound at lam0, 1>_* as {lam power: c}, value sum c * pi * lam^z.

    W_level has grade lam^(-j) profile (-1)^level c_j (2 r^2)^j exp(-r^2/lam0)
    with c_j the Laguerre coefficients; the integral of r^(2j) exp(-beta r^2)
    over the plane is pi j! / beta^(j+1); the star pairing adds lam^(-1).
    """
    lam0 = Fraction(lam0)
    sign = (-1) ** level
    out = {}
    for j, c in enumerate(laguerre(level)):
        w = sign * c * 2 ** j * factorial(j) * lam0 ** (j + 1)
        if w:
            out[-j - 1] = w
    return out


def invert_series(coeffs, order):
    """1 / sum c_z lam^z through `order` terms past the leading one.

    Returns (leading power, [b_0 .. b_order]) with the inverse
    lam^lead * sum b_m lam^m; for a monomial the single term is exact.
    """
    v = min(coeffs)
    top = max(coeffs)
    a = [coeffs.get(v + i, Fraction(0)) for i in range(top - v + 1)]
    if len(a) == 1:
        return -v, [1 / a[0]], True
    b = [1 / a[0]]
    for m in range(1, order + 1):
        acc = sum(a[j] * b[m - j] for j in range(1, min(m, len(a) - 1) + 1))
        b.append(-b[0] * acc)
    return -v, b, False


# ------------------------------------------------------------
# The engine's text forms for a few scalar results
# ------------------------------------------------------------

def _lam(z):
    return "lam" if z == 1 else "lam^%d" % z


def _pi(k):
    return "pi" if k == 1 else "pi^%d" % k


def pi_multiple(c, k):
    """Real c * pi^k as the engine prints it (k >= 1, c != 0)."""
    if c == 1:
        return _pi(k)
    if c == -1:
        return "-" + _pi(k)
    return "%s*%s" % (c, _pi(k))


def lam_multiple(c, z):
    """c * lam^z for a nonzero rational c."""
    if c == 1:
        return _lam(z)
    if c == -1:
        return "-" + _lam(z)
    return "%s*%s" % (c, _lam(z))


def pi_lam_text(c, n, z):
    """c * pi^n * lam^z for a real rational c, as a whole scalar."""
    if c == 0:
        return "0"
    return scalar_text([(pi_multiple(c, n), z)])


def scalar_text(pieces, tail=None):
    """Join (coefficient text, lam power) pieces the way the engine does."""
    parts = []
    for text, z in pieces:
        parts.append(text if z == 0 else "%s*%s" % (text, _lam(z)))
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    if tail is not None:
        out += " + O(lam^%d)" % (tail + 1)
    return out


def over_pi(c, k):
    """c / pi^k with c a nonzero rational."""
    return "%s/%s" % (c, _pi(k))


def normalizer_text(pairing, order, pi_power=1):
    """Render 1 / (pi^k * sum c_z lam^z) as the engine's normalize prints it."""
    lead, bs, exact = invert_series(pairing, order)
    pieces = [(over_pi(b, pi_power), lead + m) for m, b in enumerate(bs) if b]
    return scalar_text(pieces, None if exact else lead + order)
