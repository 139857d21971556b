"""Per-layer tracing of starforge from outside the package.

`Tracer.install()` replaces public functions and methods of the imported
starforge modules with wrappers; nothing under src/ changes.  Layer
boundaries record spans (name, start, end, parent, request) in memory; the
hottest fine-grained calls (ExactComplex arithmetic, the GaussPoly and
GaussSum constructors) only bump counters, so they add no spans and leave the
self times of the other spans meaningful.

Every binding of a wrapped name is replaced, wherever it was imported to
(`star_mul` lives on in functionals_states and cli_frontend, `gp_poisson` in
star_products, and the package re-exports most names), so calls made through
any of them are seen.
"""

import gzip
import json
import sys
import time

# span name -> (module, attribute) of the module-level functions it wraps
SPAN_FUNCTIONS = {
    "star_mul": [("star_products", "star_mul")],
    "star_commutator": [("star_products", "star_commutator")],
    "star_trace": [("star_products", "star_trace")],
    "axiom_suite": [("star_products", "axiom_suite")],
    "fs_integrate": [("formal_series", "fs_integrate")],
    "gp_diff": [("phase_functions", "gp_diff")],
    "gp_integrate": [("phase_functions", "gp_integrate")],
    "coeff_sign": [("phase_functions", "coeff_sign")],
    "scalar_invert": [("lambda_scalars", "scalar_invert")],
    "func_action": [("functionals_states", "func_action")],
    "star_action": [("functionals_states", "func_star_action")],
    "positivity": [("functionals_states", "positivity_check")],
    "eigencheck": [("functionals_states", "eigencheck_star"),
                   ("functionals_states", "eigencheck_bullet"),
                   ("functionals_states", "eigencheck_classical")],
    "normalize": [("functionals_states", "normalize_functional")],
    "negative_region": [("functionals_states", "negative_region")],
    "wigner_state": [("functionals_states", "wigner_state")],
    "run_command": [("cli_frontend", "run_command")],
    "parse": [("cli_frontend", "parse_expression")],
    "lower": [("cli_frontend", "lower_expression"), ("cli_frontend", "lower_functional")],
    "render": [("formal_series", "render_function"), ("lambda_scalars", "render_scalar"),
               ("cli_frontend", "_emit")],
}
# span name -> (module, class, method)
SPAN_METHODS = {
    "B": [("star_products", "StarFamily", "B")],
    "gp_mul": [("phase_functions", "GaussPoly", "__mul__")],
}
# counter name -> (module, class, method); aliases such as __rmul__ follow
COUNT_METHODS = {
    "gausspoly_new": [("phase_functions", "GaussPoly", "__init__")],
    "gausssum_new": [("formal_series", "GaussSum", "__init__")],
    "gausssum_mul": [("formal_series", "GaussSum", "__mul__")],
    "gausssum_diff": [("formal_series", "GaussSum", "diff")],
    "ec_mul": [("lambda_scalars", "ExactComplex", "__mul__")],
    # __rsub__ subtracts through __sub__, so it is counted there
    "ec_add": [("lambda_scalars", "ExactComplex", "__add__"),
               ("lambda_scalars", "ExactComplex", "__sub__")],
}
# spans whose results' term counts add up to phase_functions.terms_out
TERM_SPANS = ("gp_diff", "gp_mul")


class Tracer(object):
    """Spans and counters for one process; `reset()` starts a new window."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, outermost, request]
        self.counts = {}
        self.request = 0
        self._stack = []
        self._depth = {}

    def reset(self):
        del self.spans[:]
        self.counts.clear()

    # ---- wrappers ----

    def _span(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counts, clock = self.counts, time.perf_counter
        terms = name in TERM_SPANS

        def wrapper(*args, **kwargs):
            d = depth.get(name, 0)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, d == 0, self.request]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] = d + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                depth[name] = d
            if terms and out is not NotImplemented:
                counts["terms_out"] = counts.get("terms_out", 0) + len(out.terms)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _pi_bounds(self, fn):
        counts = self.counts

        def wrapper(bits):
            counts["pi_bounds"] = counts.get("pi_bounds", 0) + 1
            if bits > counts.get("pi_bits_max", 0):
                counts["pi_bits_max"] = bits
            return fn(bits)
        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation ----

    def install(self):
        import starforge  # noqa: F401  (loads every module that gets patched)
        mod = lambda name: sys.modules["starforge." + name]
        for name, targets in SPAN_FUNCTIONS.items():
            for m, attr in targets:
                orig = getattr(mod(m), attr)
                _rebind(orig, self._span(name, orig))
        orig = mod("phase_functions").pi_bounds
        _rebind(orig, self._pi_bounds(orig))
        for table, make in ((SPAN_METHODS, self._span), (COUNT_METHODS, self._count)):
            for name, targets in table.items():
                for m, cls_name, meth in targets:
                    cls = getattr(mod(m), cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = make(name, orig)
                    for key, value in list(cls.__dict__.items()):
                        if value is orig:
                            setattr(cls, key, wrapped)

    # ---- summaries ----

    def records(self):
        """The spans of the current window as [name, start, end, parent, request]."""
        return [[n, t0, t1, parent, req] for n, t0, t1, parent, _, req in self.spans]

    def _child_time(self):
        # time each span spends inside its direct children
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return child

    def summary(self):
        """Per-name totals of the current window.

        calls: spans recorded; total_s: summed duration of the outermost
        spans of that name (recursion counted once); self_s: summed duration
        minus the time covered by child spans.
        """
        spans, child = self.spans, self._child_time()
        out = {}
        for i, (name, start, end, parent, outermost, _) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            if outermost:
                s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def cli_phases(self):
        """Per-request CLI phase times in seconds: run_command self time, and
        parse / lower / render spans called from the command layer itself."""
        spans, child = self.spans, self._child_time()
        out = {}
        for i, (name, start, end, parent, outermost, req) in enumerate(spans):
            phases = out.setdefault(req, {"run_command_self": 0.0, "parse": 0.0,
                                          "lower": 0.0, "render": 0.0})
            if name == "run_command":
                phases["run_command_self"] += end - start - child[i]
            elif name in ("parse", "lower", "render") and outermost and parent >= 0 \
                    and spans[parent][0] == "run_command":
                phases[name] += end - start
        return out


def write_spans(path, spans):
    """Spans as gzipped JSON lines: [name, start, end, parent index, request]."""
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _rebind(orig, wrapped):
    """Point every binding of `orig` in the starforge modules at `wrapped`."""
    for name, module in list(sys.modules.items()):
        if name != "starforge" and not name.startswith("starforge."):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapped)
