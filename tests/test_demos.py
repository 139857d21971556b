"""The demo scripts: each runs as its own process and prints the same bytes.

`golden_demos.json` maps each `demos/*.py` to the stdout it printed when the
file was recorded.  The demos drive `star_mul`, closedness, traces and
functionals end to end, so a change anywhere on those paths that moves a
single printed byte fails here.
"""

import json
import os
import sys

import pytest

from test_cli import _run_proc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

with open(os.path.join(os.path.dirname(__file__), "golden_demos.json")) as fh:
    GOLDEN = json.load(fh)


def test_every_demo_is_recorded():
    assert sorted(GOLDEN) == sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_prints_the_recorded_output(name):
    proc = _run_proc([sys.executable, os.path.join(DEMOS, name)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN[name]
