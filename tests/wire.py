"""A reader for starforge's JSON wire format that does not use the engine.

The engine writes its values as JSON and never reads them back; this module
is the reader the tests use instead.  It imports nothing from starforge, so a
round trip through it checks each encoder against a decoder written apart
from it: a mistake the encoder shared with an engine-side inverse would show
here.  Each reader also refuses any payload that is not in the engine's
canonical form, with a ValueError.

- A complex rational `[re_num, re_den, im_num, im_den]`, each part in lowest
  terms over a positive denominator, reads as a `(Fraction, Fraction)` pair.
- A rational function in pi `{"num": [...], "den": [...]}`, complex rationals
  for ascending powers of pi, with no trailing zero and a monic `den` (so zero
  is `{"num": [], "den": [1]}`), reads as a dict of two lists of pairs.
- A series `{"valuation", "coeffs", "tail"}` reads as `(valuation, coeffs,
  tail)` with tail None when exact.  Its canonical form is the one of
  `LaurentSeries`: no leading zero coefficient, no trailing zero when exact,
  exactly the powers valuation..N when truncated at N, and an empty series at
  lam^0 when exact and at lam^(N + 1) when truncated.
- A function series goes on to `bench/oracle.series_from_json`, whose dict
  `{(lam power, alpha, exponents): pair}` is what `function_series` returns.
"""

import os
import sys
from fractions import Fraction

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
try:
    import oracle
finally:
    sys.path.remove(BENCH)
    sys.dont_write_bytecode = _dont_write

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _require(ok, what, data):
    if not ok:
        raise ValueError("%s: %r" % (what, data))


def _int(x):
    return type(x) is int


def rational(data):
    """`[num, den]` in lowest terms with den > 0 -> Fraction."""
    _require(isinstance(data, list) and len(data) == 2 and all(map(_int, data))
             and data[1] > 0, "not a [num, den] pair", data)
    value = Fraction(*data)
    _require([value.numerator, value.denominator] == data, "not in lowest terms", data)
    return value


def complex_rational(data):
    """`[re_num, re_den, im_num, im_den]` -> (Fraction, Fraction)."""
    _require(isinstance(data, list) and len(data) == 4, "not a complex rational", data)
    return rational(data[:2]), rational(data[2:])


def pi_rational(data):
    """`{"num", "den"}` -> {"num": [pairs], "den": [pairs]}."""
    _require(isinstance(data, dict) and set(data) == {"num", "den"}, "not a num/den object", data)
    num = [complex_rational(c) for c in data["num"]]
    den = [complex_rational(c) for c in data["den"]]
    _require(not num or num[-1] != ZERO, "num has a trailing zero", data)
    _require(den and den[-1] == ONE, "den is not monic", data)
    _require(num or den == [ONE], "zero has a den other than 1", data)
    return {"num": num, "den": den}


def coefficient(data):
    """A scalar coefficient or weight in either wire form."""
    return pi_rational(data) if isinstance(data, dict) else complex_rational(data)


def is_zero_coefficient(c):
    return c == ZERO or (isinstance(c, dict) and not c["num"])


def series(data, read, is_zero):
    """`{"valuation", "coeffs", "tail"}` -> (valuation, [read(c)], tail)."""
    _require(isinstance(data, dict) and set(data) == {"valuation", "coeffs", "tail"},
             "not a series", data)
    valuation, tail = data["valuation"], data["tail"]
    _require(_int(valuation), "valuation is not an int", data)
    if tail == "exact":
        tail = None
    else:
        _require(isinstance(tail, dict) and set(tail) == {"truncated_at"}
                 and _int(tail["truncated_at"]), "bad tail", data)
        tail = tail["truncated_at"]
    coeffs = [read(c) for c in data["coeffs"]]
    if coeffs:
        _require(not is_zero(coeffs[0]), "leading zero coefficient", data)
    if tail is None:
        _require(not coeffs or not is_zero(coeffs[-1]), "trailing zero of an exact series", data)
        _require(coeffs or valuation == 0, "exact zero away from lam^0", data)
    else:
        _require(len(coeffs) == max(tail - valuation + 1, 0), "stored powers stop short of the tail", data)
        _require(coeffs or valuation == tail + 1, "truncated zero away from lam^(N + 1)", data)
    return valuation, coeffs, tail


def scalar_series(data):
    return series(data, coefficient, is_zero_coefficient)


def gauss_poly(data):
    """`{"alpha", "terms"}` -> (alpha, {exponents: pair}) with no zero term."""
    _require(isinstance(data, dict) and set(data) == {"alpha", "terms"}, "not a GaussPoly", data)
    alpha = rational(data["alpha"])
    _require(alpha >= 0, "negative width", data)
    terms = {}
    for t in data["terms"]:
        exps = tuple(t["exps"])
        _require(all(_int(e) and e >= 0 for e in exps), "bad exponents", t)
        _require(exps not in terms, "repeated exponents", t)
        terms[exps] = complex_rational(t["coeff"])
        _require(terms[exps] != ZERO, "zero term", t)
    _require(alpha == 0 or terms, "zero function with a width", data)
    _require(len({len(e) for e in terms}) <= 1, "mixed dimensions", data)
    return alpha, terms


def gauss_sum(data):
    """A list of nonzero GaussPoly parts, widths strictly ascending."""
    parts = [gauss_poly(p) for p in data]
    _require(all(terms for _, terms in parts), "zero part", data)
    widths = [alpha for alpha, _ in parts]
    _require(widths == sorted(set(widths)), "widths not strictly ascending", data)
    return parts


def function_series(data):
    """A FormalFunction payload -> (oracle series dict, tail)."""
    series(data, gauss_sum, lambda parts: not parts)
    return oracle.series_from_json(data)


def functional_term(data):
    """A point-derivative or density term with a nonzero weight in either form."""
    kind = data.get("kind")
    if kind == "point_deriv":
        _require(set(data) == {"kind", "point", "index", "weight"}, "bad point_deriv", data)
        _require(all(_int(e) and e >= 0 for e in data["index"])
                 and len(data["index"]) == len(data["point"]), "bad index", data)
        out = {"point": tuple(rational(x) for x in data["point"]), "index": tuple(data["index"])}
    else:
        _require(kind == "density" and set(data) == {"kind", "profile", "weight", "width_lambda"},
                 "not a functional term", data)
        out = {"profile": data["profile"], "width_lambda": rational(data["width_lambda"])}
    out["kind"] = kind
    out["weight"] = coefficient(data["weight"])
    _require(not is_zero_coefficient(out["weight"]), "zero weight", data)
    return out


def functional_series(data):
    """A FormalFunctional payload -> (valuation, [[term]], tail)."""
    return series(data, lambda grade: [functional_term(t) for t in grade],
                  lambda grade: not grade)
