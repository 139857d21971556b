"""A seeded differential of star products against their operator tables.

`product_sweep` draws a family from `axioms.py`'s `random_family` (Moyal's
table with one order cut, rescaled or given extra terms) and two random
polynomials f and g at its phase space, and compares `star_mul(S, f, g, K)`
with the oracle sum_{k <= K} lam^k B_k(f, g), which reads `S.B` alone.  Such
a family declares no termination rule, so the product is cut at K and must
agree with the oracle on every power through lam^K: a term of B_k that
differentiates a slot fewer than k times reaches past min(deg f, deg g).

    PYTHONPATH=src python tests/products.py    # the 300-draw count
"""

import random

from starforge import FormalFunction, star_mul

from axioms import random_family
from pairings import _poly

# the order of every product: past each extra term's reach on cubics
K = 4


def product_sweep(count, seed=0):
    """(agree, count) over count seeded draws: f and g have 1-3 terms of
    degree <= 3, and agree counts the products equal (==) to the oracle."""
    rng = random.Random("products product_sweep %d" % seed)
    agree = 0
    for _ in range(count):
        S = random_family(rng)[0]
        f, g = _poly(rng, S.ctx, 0, degree=3), _poly(rng, S.ctx, 0, degree=3)
        want = FormalFunction(S.ctx, 0, [S.B(k, f, g) for k in range(K + 1)], K)
        agree += star_mul(S, FormalFunction.of(f), FormalFunction.of(g), K) == want
    return agree, count


if __name__ == "__main__":
    print("300 draws: %d of %d agree" % product_sweep(300))
