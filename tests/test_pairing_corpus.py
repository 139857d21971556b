"""The pinned pairing corpus: every case renders as it did when it was pinned.

See `pairings.py` for what the corpus holds and how to re-pin it.
"""

import json

from pairings import GOLDEN, digests


def test_pairing_corpus_matches_its_pins():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    got = digests()
    assert len(pinned) >= 400
    assert sorted(got) == sorted(pinned)
    changed = [cid for cid in pinned if got[cid] != pinned[cid]]
    assert not changed, "pairing outputs changed: %s" % ", ".join(changed)
