"""A corpus of axiom-suite reports, pinned by digest, and the families it runs.

Each case is one `axiom_suite` call on a small scope: Moyal at n = 1, 2 and 3,
bullet at n = 1 and 2, four broken one-pair tables tensored to n = 2, a
corrupted tensor power at n = 1 and 2, the cut and gap tables, a
perturbed Moyal table whose associativity holds only up to a degree, an
imaginary B_2 term whose hermiticity holds only up to a degree, a
complex B_2 term at n = 2 that breaks hermiticity at degree 1, and four
tables that break the pointwise B_0 (axiom 4) or the identity (axiom 5):
a term added at B_0, B_1 or B_2, or B_0 doubled.  A case
renders to one canonical text: the repr and the JSON of its report, or the
type and message of the error it raises.  `golden_axioms.json` keeps the
first 16 hex digits of the sha256 of that text for each case id, so a
failure names its case.

The generator loops of axioms 3 to 7 (`_searches`) are the axioms as
their definitions read, walked in the suite's order; `axiom_suite` decides
them on operator tables and reads each counterexample from the least key.
`sweep` draws seeded random families, Moyal's table with one order cut,
rescaled or given extra terms, and compares the suite's axiom-3 entry
(verdict, counterexample and scope) with the loop's.  `pair_sweep` does
the same for axioms 6 and 7, on Moyal's table given random complex terms,
with or without their hermitian partners, and `unit_sweep` for axioms 4
and 5, on random complex terms at B_0 or at a higher order, half of them
with a zero slot.

    PYTHONPATH=src python tests/axioms.py          # corpus digest and the three sweeps
    PYTHONPATH=src python tests/axioms.py --write  # re-pin golden_axioms.json

Re-pinning changes a recorded output and is reported like a golden line.
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from itertools import product

from starforge import (EC_I, EC_ONE, ExactComplex, GaussPoly, GaussSum, PhaseContext,
                       StarFamily, axiom_suite, bullet_family, gp_poisson, moyal_family,
                       render_gausspoly)
from starforge.star_products import (CoordinateTables, _associator_table, _merged,
                                     _monomial_generators, _sum_of, _swapped)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_axioms.json")

MOYAL1 = moyal_family(PhaseContext(1))


# ---- families ----

def _moyal_with(k_bad, table):
    # Moyal's one-pair table with the order k_bad replaced by table(moyal's)
    def terms(k, ctx):
        t = MOYAL1.terms(k)
        return table(t) if k == k_bad else t
    return terms


_HALF = ExactComplex(Fraction(1, 2))

# one-pair tables that break the axioms, each with the axioms it fails at n = 1
BROKEN = {
    "doubled_B1": (_moyal_with(1, lambda t: tuple((c * 2, l, r) for c, l, r in t)),
                   [3, 6]),
    "doubled_B2": (_moyal_with(2, lambda t: tuple((c * 2, l, r) for c, l, r in t)),
                   [3]),
    # B_0(f, g) = fg + f_q g: B_0(1, f) = f still, but B_0(f, 1) != f
    "skewed_B0": (_moyal_with(0, lambda t: t + ((EC_ONE, (1, 0), (0, 0)),)),
                  [3, 4, 5, 7, 9]),
    # B_1 = (1/2)(f_q g_p - f_p g_q), real where Moyal's is imaginary
    "real_B1": (_moyal_with(1, lambda t: ((_HALF, (1, 0), (0, 1)),
                                          (-_HALF, (0, 1), (1, 0)))),
                [3, 6, 7]),
}

# Moyal's one-pair table with the first coefficient of B_2 scaled by 3/2
CORRUPTED = _moyal_with(2, lambda t: ((t[0][0] * Fraction(3, 2),) + t[0][1:],) + t[1:])


def gap_terms(k, ctx):
    # Moyal's one-pair table with no first-order operator and a doubled second-order one
    if k == 1:
        return ()
    terms = MOYAL1.terms(k)
    return tuple((c * 2, dl, dr) for c, dl, dr in terms) if k == 2 else terms


def cut_family(ctx, cut_orders=(1,)):
    # Moyal's table with only its first term kept at each order in cut_orders:
    # no parity there, so B_m(f, g) - B_m(g, f) has even terms too
    moyal = moyal_family(ctx)

    def terms(k, _):
        return moyal.terms(k)[:1] if k in cut_orders else moyal.terms(k)

    return StarFamily("cut", ctx, terms)


def moyal_plus(name, ctx, k, extra):
    """Moyal's table with the terms extra added at order k."""
    moyal = moyal_family(ctx)
    return StarFamily(name, ctx, lambda m, _: moyal.terms(m) + (extra if m == k else ()))


def perturbed_family(ctx):
    """Moyal's table with B_3 gaining (1/5)(d_q1^3 f d_p1^2 g + d_p1^2 f d_q1^3 g).

    The term is real and symmetric, so hermiticity holds, and its Hochschild
    coboundary against the pointwise B_0 puts d^3 or d^2 on one slot of
    every associator term whose two other slots share the rest.  So axiom 3
    holds on monomials of degree <= 1 and fails at degree 2, on q, q^2, p^2.
    """
    n = ctx.n
    cubed = tuple(3 if i == 0 else 0 for i in range(2 * n))
    squared = tuple(2 if i == n else 0 for i in range(2 * n))
    fifth = ExactComplex(Fraction(1, 5))
    return moyal_plus("perturbed", ctx, 3, ((fifth, cubed, squared), (fifth, squared, cubed)))


def imaginary_family(ctx):
    """Moyal's table with B_2 gaining (i/5)(d_q1^2 f d_p1^2 g + d_p1^2 f d_q1^2 g).

    The term is imaginary and symmetric, so conj(B_2(f, g)) - B_2(g, f) gains
    -(2i/5)(d_q1^2 f d_p1^2 g + d_p1^2 f d_q1^2 g): zero on monomials of
    degree <= 1, so hermiticity holds at degree 1 and fails at degree 2.
    """
    n = ctx.n
    q2 = tuple(2 if i == 0 else 0 for i in range(2 * n))
    p2 = tuple(2 if i == n else 0 for i in range(2 * n))
    fifth_i = ExactComplex(0, Fraction(1, 5))
    return moyal_plus("imaginary", ctx, 2, ((fifth_i, q2, p2), (fifth_i, p2, q2)))


def complex_family():
    """Moyal's table at n = 2 with B_2 gaining ((1 + 2i)/3) d_q1 f d_p2 g.

    The term has no hermitian partner, so conj(B_2(f, g)) - B_2(g, f)
    gains ((1 - 2i)/3) d_q1 f d_p2 g - ((1 + 2i)/3) d_p2 f d_q1 g, which is
    not zero on q1, p2, nor on the mixed generators built from them.
    """
    return moyal_plus("complex", PhaseContext(2), 2, (
        (ExactComplex(Fraction(1, 3), Fraction(2, 3)), (1, 0, 0, 0), (0, 0, 0, 1)),))


def tensored(name, one_pair, n):
    """The n-pair family whose B_k sums, over the compositions
    r_1 + ... + r_n = k, every product of one one_pair(r_i) term per pair i,
    placed on pair i (coordinates i and n + i)."""
    one = PhaseContext(1)

    def terms(k, ctx):
        out = []
        for comp in product(range(k + 1), repeat=n):
            if sum(comp) != k:
                continue
            for picks in product(*(one_pair(r, one) for r in comp)):
                c, dl, dr = EC_ONE, [0] * (2 * n), [0] * (2 * n)
                for i, (ci, li, ri) in enumerate(picks):
                    c = c * ci
                    dl[i], dl[n + i], dr[i], dr[n + i] = li[0], li[1], ri[0], ri[1]
                out.append((c, tuple(dl), tuple(dr)))
        return tuple(out)

    return StarFamily(name, PhaseContext(n), terms)


def _random_exps(rng, ctx):
    # derivative exponents of total degree <= 3, drawn one coordinate at a time
    e = [0] * ctx.dim
    for _ in range(rng.randint(0, 3)):
        e[rng.randrange(ctx.dim)] += 1
    return tuple(e)


def _random_coeff(rng):
    # a nonzero complex rational: real, imaginary or both
    re, im = rng.choice((-2, -1, 0, 1, 3)), rng.choice((-1, 0, 1, 2))
    re = re if re or im else 1
    return ExactComplex(Fraction(re, rng.randint(1, 4)), Fraction(im, rng.randint(1, 4)))


def random_family(rng):
    """(family, degree bound, order bound) of one draw: Moyal's table at
    n = 1 (degree <= 2) or n = 2 (degree 1), order <= 3, with one order k >= 1
    cut to a random subset of its terms, one term rescaled, or one or two
    random rational terms c d^a f d^b g (|a|, |b| <= 3) added."""
    n = rng.choice((1, 2))
    degree, order = rng.randint(1, 3 - n), rng.randint(1, 3)
    ctx, k, kind = PhaseContext(n), rng.randint(1, order), rng.choice(("cut", "scaled", "added"))
    moyal = moyal_family(ctx)
    table = list(moyal.terms(k))
    if kind == "cut":
        table = rng.sample(table, rng.randrange(len(table)))
    elif kind == "scaled":
        i = rng.randrange(len(table))
        table[i] = (table[i][0] * Fraction(rng.choice((-1, 3, 5)), 2),) + table[i][1:]
    else:
        for _ in range(rng.randint(1, 2)):
            c = ExactComplex(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5)))
            table.append((c, _random_exps(rng, ctx), _random_exps(rng, ctx)))
    return (StarFamily("%s_B%d" % (kind, k), ctx,
                       lambda m, _: tuple(table) if m == k else moyal.terms(m)),
            degree, order)


def random_pair_family(rng):
    """(family, degree bound, order bound) of one draw: Moyal's table at
    n = 1 (degree <= 2) or n = 2 (degree 1), order <= 3, with one or two
    random complex terms c d^a f d^b g (|a|, |b| <= 3) added at one order
    k <= order, each with its hermitian partner conj(c) d^b f d^a g half the
    time."""
    n = rng.choice((1, 2))
    degree, order = rng.randint(1, 3 - n), rng.randint(1, 3)
    ctx, k = PhaseContext(n), rng.randint(0, order)
    extra = []
    for _ in range(rng.randint(1, 2)):
        c = _random_coeff(rng)
        a, b = _random_exps(rng, ctx), _random_exps(rng, ctx)
        extra.append((c, a, b))
        if rng.random() < 0.5:
            extra.append((c.conj(), b, a))
    return moyal_plus("added_B%d" % k, ctx, k, tuple(extra)), degree, order


def random_unit_family(rng):
    """(family, degree bound, order bound) of one draw: Moyal's table at
    n = 1 (degree <= 2) or n = 2 (degree 1), order <= 3, with one or two
    random complex terms c d^a f d^b g (|a|, |b| <= 3), each added at B_0
    or, as often, at an order 1 <= k <= order; half the terms have a zero
    slot, a = 0 or b = 0, the keys that axiom 5 reads.  Two terms at two
    orders tell axiom 5's order (generator outer, order inner) from the
    other axioms'."""
    n = rng.choice((1, 2))
    degree, order = rng.randint(1, 3 - n), rng.randint(1, 3)
    ctx = PhaseContext(n)
    moyal, none, extra = moyal_family(ctx), (0,) * ctx.dim, {}
    for _ in range(rng.randint(1, 2)):
        k, c = rng.choice((0, rng.randint(1, order))), _random_coeff(rng)
        a, b = _random_exps(rng, ctx), _random_exps(rng, ctx)
        if rng.random() < 0.5:
            a, b = (none, b) if rng.random() < 0.5 else (a, none)
        extra[k] = extra.get(k, ()) + ((c, a, b),)
    return (StarFamily("unit_B" + "".join(map(str, sorted(extra))), ctx,
                       lambda m, _: moyal.terms(m) + extra.get(m, ())),
            degree, order)


def poisson_terms(ctx):
    """-i times the Poisson table: -i d_qj f d_pj g + i d_pj f d_qj g for each pair j."""
    n, out = ctx.n, []
    for j in range(n):
        q, p = [0] * ctx.dim, [0] * ctx.dim
        q[j], p[n + j] = 1, 1
        out += [(-EC_I, tuple(q), tuple(p)), (EC_I, tuple(p), tuple(q))]
    return out


# ---- the tables and the loops ----

def decided(S, degree, order):
    """Axiom 3's verdict on the operator tables: True for a pass."""
    return not any(_associator_table(S, k, degree) for k in range(order + 1))


def bracket_table(S, degree):
    """Axiom 6's two-slot table, cut at degree: c_ab - c_ba of B_1 less i
    times the Poisson table."""
    return _merged(_swapped(S.terms(1)) + poisson_terms(S.ctx), degree)


def hermiticity_table(S, k, degree):
    """Axiom 7's two-slot table at order k, cut at degree: conj(c_ab) - c_ba."""
    return _merged(_swapped(S.terms(k), True), degree)


def pair_tables_vanish(S, degree, order):
    """(axiom 6, axiom 7) decided on the two-slot tables: True for a pass."""
    return (not bracket_table(S, degree),
            not any(hermiticity_table(S, k, degree) for k in range(order + 1)))


def unit_tables_vanish(S, degree, order):
    """(axiom 4, axiom 5) decided on B_k's merged table, less 1 at (0, 0) for
    k = 0 and cut at degree: axiom 4 passes when B_0's is empty, axiom 5
    when no table has a key (0, b) or (a, 0).  True for a pass."""
    none = (0,) * S.ctx.dim

    def unit(k):
        return _merged(S.terms(k) + (((-EC_ONE, none, none),) if k == 0 else ()), degree)

    return (not unit(0),
            not any(a == none or b == none for k in range(order + 1) for a, b in unit(k)))


def _searches(S, degree, order):
    """{axiom: generator of (inputs, order, difference)} for axioms 3 to 7,
    as their definitions read, on the suite's generators and in its order
    (axiom 7 also on the mixed generators f + i g of consecutive ones), so
    each one's first yield is the suite's counterexample."""
    ctx = S.ctx
    gens, tables = _monomial_generators(ctx, degree), CoordinateTables()
    memo, zero = {}, GaussSum.zero(ctx)

    def pair(m, i, j):
        # B_m(gens[i], gens[j]), memoised
        if (m, i, j) not in memo:
            memo[(m, i, j)] = S.B(m, gens[i], gens[j], tables)
        return memo[(m, i, j)]

    def associativity():
        idx = range(len(gens))
        for k in range(order + 1):
            # ops[a][b]: the l <= k with their nonzero B_(k-l)(gens[a], gens[b])
            ops = [[[(l, x) for l in range(k + 1) for x in (pair(k - l, a, b),) if x]
                    for b in idx] for a in idx]
            for fi, f in enumerate(gens):
                for gi, g in enumerate(gens):
                    for hi, h in enumerate(gens):
                        lhs, rhs = {}, {}
                        for l, x in ops[fi][gi]:
                            S.B_into(lhs, l, x, h, tables)
                        for l, y in ops[gi][hi]:
                            S.B_into(rhs, l, f, y, tables)
                        if lhs != rhs:
                            left, right = _sum_of(ctx, lhs), _sum_of(ctx, rhs)
                            if left != right:
                                yield [f, g, h], k, left - right

    def pointwise():
        for fi, f in enumerate(gens):
            for gi, g in enumerate(gens):
                diff = pair(0, fi, gi) - GaussSum.of(f * g)
                if diff:
                    yield [f, g], 0, diff

    def identity():
        one = GaussPoly.constant(ctx, 1)
        for f in gens:
            for k in range(order + 1):
                want = GaussSum.of(f) if k == 0 else zero
                left, right = S.B(k, one, f, tables) - want, S.B(k, f, one, tables) - want
                if left or right:
                    yield [f], k, left or right

    def bracket():
        for fi, f in enumerate(gens):
            for gi, g in enumerate(gens):
                diff = (pair(1, fi, gi) - pair(1, gi, fi)
                        - GaussSum.of(gp_poisson(f, g).scale(EC_I)))
                if diff:
                    yield [f, g], 1, diff

    def hermiticity():
        both = gens + [f + g.scale(EC_I) for f, g in zip(gens, gens[1:])]
        conj = [f.conj() for f in both]
        for k in range(order + 1):
            for fi, f in enumerate(both):
                for gi, g in enumerate(both):
                    diff = S.B(k, f, g, tables).conj() - S.B(k, conj[gi], conj[fi], tables)
                    if diff:
                        yield [f, g], k, diff

    return {3: associativity(), 4: pointwise(), 5: identity(), 6: bracket(),
            7: hermiticity()}


def _looped(S, degree, order, axioms):
    """axiom_suite's entries for the axioms, as the loops of _searches give
    them: a fail at each one's first yield, else a pass."""
    scope = {"degree_bound": degree, "order_bound": order,
             "generators": len(_monomial_generators(S.ctx, degree))}
    searches, out = _searches(S, degree, order), []
    for axiom in axioms:
        found = next(searches[axiom], None)
        if found is None:
            out.append({"verdict": "pass", "scope": scope, "counterexample": None})
            continue
        inputs, k, diff = found
        out.append({"verdict": "fail", "scope": scope, "counterexample": {
            "inputs": [render_gausspoly(x) for x in inputs], "order": k,
            "difference": str(diff)}})
    return tuple(out)


def looped(S, degree, order):
    """axiom_suite's axiom 3 entry, from its loop."""
    return _looped(S, degree, order, (3,))[0]


def looped_pairs(S, degree, order):
    """axiom_suite's axiom 6 and 7 entries, from their loops."""
    return _looped(S, degree, order, (6, 7))


def looped_units(S, degree, order):
    """axiom_suite's axiom 4 and 5 entries, from their loops."""
    return _looped(S, degree, order, (4, 5))


# ---- sweeps ----

def _tally(draw, axioms, vanish, loops, count, seed):
    """{axiom: {"agree", "disagree", "pass", "fail", "cut_only"} counts} over
    count seeded draws: agree when the suite's entry (verdict,
    counterexample, scope) is the loop's; cut_only counts the passes whose
    table decision, vanish(S, degree, order), fails once the degree cut is
    lifted."""
    rng = random.Random(seed)
    out = {axiom: dict.fromkeys(("agree", "disagree", "pass", "fail", "cut_only"), 0)
           for axiom in axioms}
    for _ in range(count):
        S, degree, order = draw(rng)
        entries = axiom_suite(S, degree, order).entries
        # no key of these tables differentiates one slot past 6
        uncut = vanish(S, 6, order)
        for axiom, loop, holds in zip(axioms, loops(S, degree, order), uncut):
            tally, entry = out[axiom], entries[axiom]
            tally["agree" if entry == loop else "disagree"] += 1
            tally[entry["verdict"]] += 1
            tally["cut_only"] += entry["verdict"] == "pass" and not holds
    return out


def sweep(count, seed=0):
    """Axiom 3's tally (see _tally) over count draws of random_family."""
    return _tally(random_family, (3,), lambda *a: (decided(*a),),
                  lambda *a: _looped(*a, (3,)), count, seed)[3]


def pair_sweep(count, seed=0):
    """Axioms 6 and 7's tallies (see _tally) over count draws of random_pair_family."""
    return _tally(random_pair_family, (6, 7), pair_tables_vanish, looped_pairs, count, seed)


def unit_sweep(count, seed=0):
    """Axioms 4 and 5's tallies (see _tally) over count draws of random_unit_family."""
    return _tally(random_unit_family, (4, 5), unit_tables_vanish, looped_units, count, seed)


# ---- cases ----

def cases():
    """Every (case id, thunk) of the corpus, in a fixed order."""
    out = []

    def add(cid, S, degree, order):
        out.append((cid, lambda: axiom_suite(S, degree, order)))

    ctxs = {n: PhaseContext(n) for n in (1, 2, 3)}
    add("moyal/n1/d3k4", moyal_family(ctxs[1]), 3, 4)
    add("moyal/n2/d2k2", moyal_family(ctxs[2]), 2, 2)
    add("moyal/n2/d1k3", moyal_family(ctxs[2]), 1, 3)
    add("moyal/n3/d1k3", moyal_family(ctxs[3]), 1, 3)
    add("bullet/n1/d3k4", bullet_family(ctxs[1]), 3, 4)
    add("bullet/n2/d2k2", bullet_family(ctxs[2]), 2, 2)
    for name in sorted(BROKEN):
        add("broken/%s/n2/d2k2" % name, tensored(name, BROKEN[name][0], 2), 2, 2)
    for n in (1, 2):
        add("corrupted/n%d/d2k3" % n, tensored("corrupted", CORRUPTED, n), 2, 3)
    add("cut/n1/d2k2", cut_family(ctxs[1]), 2, 2)
    add("cut/n2/d2k2", cut_family(ctxs[2]), 2, 2)
    add("gap/n1/d2k3", StarFamily("gap", ctxs[1], gap_terms), 2, 3)
    add("gap/n2/d2k3", tensored("gap", gap_terms, 2), 2, 3)
    add("perturbed/n1/d1k3", perturbed_family(ctxs[1]), 1, 3)
    add("perturbed/n2/d1k3", perturbed_family(ctxs[2]), 1, 3)
    add("perturbed/n1/d2k3", perturbed_family(ctxs[1]), 2, 3)
    add("imaginary/n1/d1k2", imaginary_family(ctxs[1]), 1, 2)
    add("imaginary/n1/d2k2", imaginary_family(ctxs[1]), 2, 2)
    add("complex/n2/d1k2", complex_family(), 1, 2)
    # axioms 4 and 5: B_0 gains (1/3) f_q g_q, B_2 gains (1/3) f g_pp, B_1
    # gains (i/2) f_p2 g, or B_0 is doubled
    third = ExactComplex(Fraction(1, 3))
    add("b0_qq/n1/d2k2", moyal_plus("b0_qq", ctxs[1], 0, ((third, (1, 0), (1, 0)),)), 2, 2)
    add("b2_left_unit/n1/d2k3",
        moyal_plus("b2_left_unit", ctxs[1], 2, ((third, (0, 0), (0, 2)),)), 2, 3)
    add("b1_right_unit/n2/d1k2", moyal_plus("b1_right_unit", ctxs[2], 1, (
        (ExactComplex(0, Fraction(1, 2)), (0, 0, 0, 1), (0, 0, 0, 0)),)), 1, 2)
    add("b0_doubled/n1/d1k2", StarFamily("b0_doubled", ctxs[1], _moyal_with(
        0, lambda t: tuple((c * 2, l, r) for c, l, r in t))), 1, 2)
    add("error/degree0", moyal_family(ctxs[2]), 0, 2)
    add("error/order0", moyal_family(ctxs[2]), 1, 0)
    return out


# ---- rendering ----

def render(thunk):
    try:
        report = thunk()
    except Exception as exc:  # an error is an output too
        return "%s: %s" % (type(exc).__name__, exc)
    return "%r | %s" % (report, json.dumps(report.to_json(), sort_keys=True))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests():
    return {cid: digest(render(thunk)) for cid, thunk in cases()}


def main(argv):
    got = digests()
    whole = digest(json.dumps(got, sort_keys=True))
    print("%d cases, corpus digest %s" % (len(got), whole))
    if "--write" in argv:
        with open(GOLDEN, "w") as fh:
            json.dump(got, fh, indent=0, sort_keys=True)
            fh.write("\n")
        return
    line = ("%(agree)d agree, %(disagree)d disagree (%(pass)d pass, %(fail)d fail, "
            "%(cut_only)d pass only under the degree cut)")
    print("2000 families: " + line % sweep(2000))
    for name, axioms, tallies in (("pair", (6, 7), pair_sweep(400)),
                                  ("unit", (4, 5), unit_sweep(400))):
        print("400 %s families: " % name
              + "; ".join("axiom %d %s" % (axiom, line % tallies[axiom]) for axiom in axioms))


if __name__ == "__main__":
    main(sys.argv[1:])
