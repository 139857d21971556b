"""The pinned axiom corpus: every case renders as it did when it was pinned.

See `axioms.py` for what the corpus holds and how to re-pin it.
"""

import json

from axioms import GOLDEN, digests


def test_axiom_corpus_matches_its_pins():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    got = digests()
    assert len(pinned) >= 18
    assert sorted(got) == sorted(pinned)
    changed = [cid for cid in pinned if got[cid] != pinned[cid]]
    assert not changed, "axiom reports changed: %s" % ", ".join(changed)
