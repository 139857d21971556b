"""The pinned pairing corpus: every case renders as it did when it was pinned.

See `pairings.py` for what the corpus holds and how to re-pin it, and for
the seeded sweep of a copy of Moyal's table against its shortcut.
"""

import json

from pairings import GOLDEN, copy_sweep, digests


def test_pairing_corpus_matches_its_pins():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    got = digests()
    assert len(pinned) >= 400
    assert sorted(got) == sorted(pinned)
    changed = [cid for cid in pinned if got[cid] != pinned[cid]]
    assert not changed, "pairing outputs changed: %s" % ", ".join(changed)


def test_a_copy_of_the_moyal_table_pairs_by_parts_like_the_shortcut():
    # Moyal's adjoint tables are empty above order 0 (closedness), so by
    # parts a copy of its table pairs as lam^-n <T, F>; read term by term,
    # it would differentiate F and refuse some pairings the shortcut gives
    agree, count = copy_sweep(100)
    assert agree == count
