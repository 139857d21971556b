"""A corpus of axiom-suite reports, pinned by digest, and the families it runs.

Each case is one `axiom_suite` call on a small scope: Moyal at n = 1, 2 and 3,
bullet at n = 1 and 2, four broken one-pair tables tensored to n = 2, a
corrupted tensor power at n = 1 and 2, and the cut and gap tables.  A case
renders to one canonical text: the repr and the JSON of its report, or the
type and message of the error it raises.  `golden_axioms.json` keeps the
first 16 hex digits of the sha256 of that text for each case id, so a
failure names its case.

    PYTHONPATH=src python tests/axioms.py          # case count and corpus digest
    PYTHONPATH=src python tests/axioms.py --write  # re-pin golden_axioms.json

Re-pinning changes a recorded output and is reported like a golden line.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import product

from starforge import (EC_ONE, ExactComplex, PhaseContext, StarFamily, axiom_suite,
                       bullet_family, moyal_family)

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


if __name__ == "__main__":
    main(sys.argv[1:])
