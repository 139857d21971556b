"""A corpus of axiom-suite reports, pinned by digest, and the families it runs.

Each case is one `axiom_suite` call on a small scope: Moyal at n = 1, 2 and 3,
bullet at n = 1 and 2, four broken one-pair tables tensored to n = 2, a
corrupted tensor power at n = 1 and 2, the cut and gap tables, a
perturbed Moyal table whose associativity holds only up to a degree, an
imaginary B_2 term whose hermiticity holds only up to a degree, and a
complex B_2 term at n = 2 that breaks hermiticity at degree 1.  A case
renders to one canonical text: the repr and the JSON of its report, or the
type and message of the error it raises.  `golden_axioms.json` keeps the
first 16 hex digits of the sha256 of that text for each case id, so a
failure names its case.

`sweep` draws seeded random families, Moyal's table with one order cut,
rescaled or given extra terms, and compares axiom 3 decided on the operator
tables with the monomial loop that reports counterexamples.  `pair_sweep`
does the same for axioms 6 and 7, on Moyal's table given random complex
terms, with or without their hermitian partners.

    PYTHONPATH=src python tests/axioms.py          # corpus digest and both sweeps
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

from starforge import (EC_I, EC_ONE, ExactComplex, PhaseContext, StarFamily, axiom_suite,
                       bullet_family, moyal_family)
from starforge import star_products
from starforge.star_products import (CoordinateTables, _associativity, _associator_table,
                                     _monomial_generators, _pair_memo, _swap_table)

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


def perturbed_family(ctx):
    """Moyal's table with B_3 gaining (1/5)(d_q1^3 f d_p1^2 g + d_p1^2 f d_q1^3 g).

    The term is real and symmetric, so hermiticity holds, and its Hochschild
    coboundary against the pointwise B_0 puts d^3 or d^2 on one slot of
    every associator term whose two other slots share the rest.  So axiom 3
    holds on monomials of degree <= 1 and fails at degree 2, on q, q^2, p^2.
    """
    moyal, n = moyal_family(ctx), ctx.n
    cubed = tuple(3 if i == 0 else 0 for i in range(2 * n))
    squared = tuple(2 if i == n else 0 for i in range(2 * n))
    fifth = ExactComplex(Fraction(1, 5))
    extra = ((fifth, cubed, squared), (fifth, squared, cubed))

    def terms(k, _):
        return moyal.terms(k) + (extra if k == 3 else ())

    return StarFamily("perturbed", ctx, terms)


def imaginary_family(ctx):
    """Moyal's table with B_2 gaining (i/5)(d_q1^2 f d_p1^2 g + d_p1^2 f d_q1^2 g).

    The term is imaginary and symmetric, so conj(B_2(f, g)) - B_2(g, f) gains
    -(2i/5)(d_q1^2 f d_p1^2 g + d_p1^2 f d_q1^2 g): zero on monomials of
    degree <= 1, so hermiticity holds at degree 1 and fails at degree 2.
    """
    moyal, n = moyal_family(ctx), ctx.n
    q2 = tuple(2 if i == 0 else 0 for i in range(2 * n))
    p2 = tuple(2 if i == n else 0 for i in range(2 * n))
    fifth_i = ExactComplex(0, Fraction(1, 5))
    extra = ((fifth_i, q2, p2), (fifth_i, p2, q2))

    def terms(k, _):
        return moyal.terms(k) + (extra if k == 2 else ())

    return StarFamily("imaginary", ctx, terms)


def complex_family():
    """Moyal's table at n = 2 with B_2 gaining ((1 + 2i)/3) d_q1 f d_p2 g.

    The term has no hermitian partner, so conj(B_2(f, g)) - B_2(g, f)
    gains ((1 - 2i)/3) d_q1 f d_p2 g - ((1 + 2i)/3) d_p2 f d_q1 g, which is
    not zero on q1, p2, nor on the mixed generators built from them.
    """
    moyal = moyal_family(PhaseContext(2))
    extra = ((ExactComplex(Fraction(1, 3), Fraction(2, 3)), (1, 0, 0, 0), (0, 0, 0, 1)),)

    def terms(k, _):
        return moyal.terms(k) + (extra if k == 2 else ())

    return StarFamily("complex", moyal.ctx, terms)


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

    def exps():
        e = [0] * ctx.dim
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(ctx.dim)] += 1
        return tuple(e)

    if kind == "cut":
        table = rng.sample(table, rng.randrange(len(table)))
    elif kind == "scaled":
        i = rng.randrange(len(table))
        table[i] = (table[i][0] * Fraction(rng.choice((-1, 3, 5)), 2),) + table[i][1:]
    else:
        for _ in range(rng.randint(1, 2)):
            c = ExactComplex(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5)))
            table.append((c, exps(), exps()))
    return (StarFamily("%s_B%d" % (kind, k), ctx,
                       lambda m, _: tuple(table) if m == k else moyal.terms(m)),
            degree, order)


def decided(S, degree, order):
    """Axiom 3's verdict on the operator tables: True for a pass."""
    return not any(_associator_table(S, k, degree) for k in range(order + 1))


def looped(S, degree, order):
    """Axiom 3's verdict from the monomial loop: True for a pass."""
    gens, tables = _monomial_generators(S.ctx, degree), CoordinateTables()
    return next(_associativity(S, gens, order, _pair_memo(S, gens, tables), tables),
                None) is None


def sweep(count, seed=0):
    """{"agree", "disagree", "pass", "fail", "cut_only"} counts over count
    seeded random families; cut_only counts the passes whose table is not
    associative once the degree cut is lifted."""
    rng, out = random.Random(seed), dict.fromkeys(("agree", "disagree", "pass", "fail",
                                                   "cut_only"), 0)
    for _ in range(count):
        S, degree, order = random_family(rng)
        verdict = decided(S, degree, order)
        out["agree" if verdict == looped(S, degree, order) else "disagree"] += 1
        out["pass" if verdict else "fail"] += 1
        # no key of an order <= 3 composition differentiates one slot past 6
        out["cut_only"] += verdict and not decided(S, 6, order)
    return out


def random_pair_family(rng):
    """(family, degree bound, order bound) of one draw: Moyal's table at
    n = 1 (degree <= 2) or n = 2 (degree 1), order <= 3, with one or two
    random complex terms c d^a f d^b g (|a|, |b| <= 3) added at one order
    k <= order, each with its hermitian partner conj(c) d^b f d^a g half the
    time."""
    n = rng.choice((1, 2))
    degree, order = rng.randint(1, 3 - n), rng.randint(1, 3)
    ctx, k = PhaseContext(n), rng.randint(0, order)
    moyal = moyal_family(ctx)

    def exps():
        e = [0] * ctx.dim
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(ctx.dim)] += 1
        return tuple(e)

    extra = []
    for _ in range(rng.randint(1, 2)):
        # a nonzero coefficient: real, imaginary or both
        re, im = rng.choice((-2, -1, 0, 1, 3)), rng.choice((-1, 0, 1, 2))
        re = re if re or im else 1
        c = ExactComplex(Fraction(re, rng.randint(1, 4)), Fraction(im, rng.randint(1, 4)))
        a, b = exps(), exps()
        extra.append((c, a, b))
        if rng.random() < 0.5:
            extra.append((c.conj(), b, a))
    extra = tuple(extra)
    return (StarFamily("added_B%d" % k, ctx,
                       lambda m, _: moyal.terms(m) + (extra if m == k else ())),
            degree, order)


def poisson_terms(ctx):
    """-i times the Poisson table: -i d_qj f d_pj g + i d_pj f d_qj g for each pair j."""
    n, out = ctx.n, []
    for j in range(n):
        q, p = [0] * ctx.dim, [0] * ctx.dim
        q[j], p[n + j] = 1, 1
        out += [(-EC_I, tuple(q), tuple(p)), (EC_I, tuple(p), tuple(q))]
    return out


def pair_tables_vanish(S, degree, order):
    """(axiom 6, axiom 7) decided on the two-slot tables: True for a pass."""
    return (not _swap_table(S.terms(1), False, poisson_terms(S.ctx), degree),
            not any(_swap_table(S.terms(k), True, [], degree) for k in range(order + 1)))


def looped_pairs(S, degree, order):
    """axiom_suite's axiom 6 and 7 entries with their monomial loops run
    whatever the tables say."""
    real = star_products._swap_table
    star_products._swap_table = lambda *args: {None: EC_ONE}
    try:
        entries = axiom_suite(S, degree, order).entries
    finally:
        star_products._swap_table = real
    return entries[6], entries[7]


def pair_sweep(count, seed=0):
    """{axiom: {"agree", "disagree", "pass", "fail", "cut_only"} counts} for
    axioms 6 and 7 over count seeded random pair families: agree when the
    suite's entry (verdict, counterexample, scope) is the loop's; cut_only
    counts the passes whose table is not empty once the degree cut is lifted."""
    rng = random.Random(seed)
    out = {axiom: dict.fromkeys(("agree", "disagree", "pass", "fail", "cut_only"), 0)
           for axiom in (6, 7)}
    for _ in range(count):
        S, degree, order = random_pair_family(rng)
        entries = axiom_suite(S, degree, order).entries
        # no key of these tables differentiates one slot past 3
        uncut = pair_tables_vanish(S, 6, order)
        for axiom, loop, holds in zip((6, 7), looped_pairs(S, degree, order), uncut):
            tally, entry = out[axiom], entries[axiom]
            tally["agree" if entry == loop else "disagree"] += 1
            tally[entry["verdict"]] += 1
            tally["cut_only"] += entry["verdict"] == "pass" and not holds
    return out


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
    pairs = pair_sweep(400)
    print("400 pair families: " + "; ".join("axiom %d %s" % (axiom, line % pairs[axiom])
                                            for axiom in (6, 7)))


if __name__ == "__main__":
    main(sys.argv[1:])
