"""The benchmark's library workloads still run against this API.

`bench/workloads.py` builds its operations from the public starforge API and
checks each result against an answer it does not compute with starforge.  One
pass of every library workload must run with no failed operation: a renamed
function, a dropped attribute or a changed value shows up here, not first as
a lower `ok_frac` in a benchmark run.  The bench modules are only imported;
no bytecode is written next to them.
"""

import os
import subprocess
import sys
import time

import starforge

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _workloads():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = dont_write
    return workloads


class _NoProbe(object):
    # run_pass asks a speed probe before each operation; none is needed here
    def due(self):
        return 0.0


def test_one_pass_of_each_library_workload_has_no_failure():
    W = _workloads()
    failures = {}
    for name in ("axioms_poly", "gauss_series", "states"):
        ops = W.LIBRARY_BUILDERS[name](starforge, 1)
        assert ops, name
        _, _, results = W.run_pass(ops, lambda i, op: op.run(), time.perf_counter, _NoProbe())
        failed, _ = W.check_pass(ops, results)
        if failed:
            failures[name] = failed
    assert not failures


_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import starforge
from tracer import SPAN_FUNCTIONS, Tracer
Tracer().install()
for targets in SPAN_FUNCTIONS.values():
    for module, attr in targets:
        assert hasattr(getattr(sys.modules["starforge." + module], attr), "__wrapped__"), attr
"""


def test_tracer_installs_over_every_wrapped_name():
    # bench/tracer.py patches starforge by module and attribute name, so a
    # renamed function fails here; the child process keeps the patches out
    # of this suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(starforge.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-B", "-c", _INSTALL, BENCH],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
