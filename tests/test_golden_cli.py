"""Golden CLI corpus: stdout bytes and exit status of fixed invocations.

`golden_cli.json` holds about thirty invocations (every README example plus
products, commutators, traces, integrals, regions, functionals and axiom
suites whose outputs print non-trivial complex-rational coefficients), each
with the exact stdout line and exit status recorded before the integer-backed
`ExactComplex` replaced the Fraction-backed one.  Any change to coefficient
arithmetic or rendering that moves a single byte fails here.
"""

import json
import os

import pytest

from starforge.cli_frontend import run_command

with open(os.path.join(os.path.dirname(__file__), "golden_cli.json")) as fh:
    GOLDEN = json.load(fh)


def test_corpus_is_substantial():
    assert len(GOLDEN) >= 30
    assert len({tuple(c["argv"]) for c in GOLDEN}) == len(GOLDEN)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_invocation(capsys, case):
    res = run_command(list(case["argv"]))
    out = capsys.readouterr().out
    assert out == case["stdout"]
    assert res.status == case["status"]
