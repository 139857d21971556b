"""The starforge benchmark.

    python3 bench/run.py --workload states --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; it measures the code under src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it ("detail: {...}") adds
quartiles, sample counts, the raw times behind the scaled ones (speed.py) and
the environment, and the same record is written to bench/out/.  See
bench/NOTES.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
import speed as S  # noqa: E402
from tracer import write_spans  # noqa: E402

SETUP_PROBES = 5          # fresh interpreters timed for setup_s
CLI_MIN_OPS = 100         # cli_quick runs at least this many invocations
IMPORT_PROBES = 3         # -X importtime children in a traced run
CHILD_TIMEOUT = 120       # seconds for any single child process

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


class BenchError(Exception):
    """The benchmark could not run; nothing is printed as a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, timeout=CHILD_TIMEOUT):
    # subprocess.run kills and reaps the child if it overruns
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=timeout)


def worker_cmd(workload, seed, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--t0", repr(time.monotonic())] + list(extra)


def last_json_line(proc, what):
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload, seed, env):
    """Fresh interpreter -> first operation ready, several times, with speed
    probes in this process before each.  Returns (set-up times, SpeedProbe)."""
    out, probe = [], S.SpeedProbe(time.perf_counter)
    for _ in range(SETUP_PROBES):
        for _ in range(S.OP_WINDOW):
            probe.take()
        probe.marks.append(len(probe.samples))
        proc = run_child(worker_cmd(workload, seed, "--setup-only"), env)
        out.append(last_json_line(proc, "set-up probe")["setup_s"])
    return out, probe


def import_times(env):
    """Median `-X importtime` split of `import starforge`, in ms."""
    rows = []
    for _ in range(IMPORT_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import starforge"], env)
        if proc.returncode != 0:
            raise BenchError("import probe failed: %s" % proc.stderr[-2000:])
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1000.0)
        total = cumulative["starforge"]
        mpmath = cumulative.get("mpmath", 0.0)
        rows.append((total, mpmath, total - mpmath))
    return [statistics.median(col) for col in zip(*rows)]


# ------------------------------------------------------------
# cli_quick: one `python -m starforge` per operation
# ------------------------------------------------------------

def run_cli(seed, seconds, trace, env):
    ops = W.cli_ops(seed)
    clock = time.perf_counter
    start = clock()
    untraced_end = start + (seconds / 2 if trace else seconds)
    probe, traced_probe = S.SpeedProbe(clock), S.SpeedProbe(clock)
    out = {"walls": [], "lats": [], "probes": probe.samples, "marks": probe.marks,
           "traced_walls": [], "traced_lats": [], "traced_probes": traced_probe.samples,
           "traced_marks": traced_probe.marks,
           "attempted": 0, "failures": [], "layers": [], "max_coeff_bits": 0}

    def finish_pass(results):
        failures, texts = W.check_pass(ops, results)
        out["attempted"] += len(ops)
        out["failures"].extend(failures)
        out["max_coeff_bits"] = max(out["max_coeff_bits"], W.max_int_bits(texts))

    def plain(i, op):
        proc = run_child([sys.executable, "-m", "starforge"] + op.run, env)
        return proc.returncode, proc.stdout

    while True:
        wall, lats, results = W.run_pass(ops, plain, clock, probe)
        out["walls"].append(wall)
        out["lats"].extend(lats)
        finish_pass(results)
        # an untraced run needs 100 samples for op_p90_ms
        if clock() >= untraced_end and (trace or out["attempted"] >= CLI_MIN_OPS):
            break
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if trace:
        stats = os.path.join(OUT, "cli_stats.json")

        def traced(i, op):
            proc = run_child([sys.executable, os.path.join(HERE, "cli_child.py"), stats,
                              "--"] + op.run, env)
            with open(stats) as fh:
                per_op.append(json.load(fh))
            return proc.returncode, proc.stdout
        while True:
            per_op = []
            wall, lats, results = W.run_pass(ops, traced, clock, traced_probe)
            out["traced_walls"].append(wall)
            out["traced_lats"].extend(lats)
            out["layers"].append(merge_cli_stats(per_op))
            if len(out["layers"]) == 1:
                write_spans(os.path.join(OUT, "spans-cli_quick-seed%d.jsonl.gz" % seed),
                            [[n, t0, t1, parent, i] for i, rec in enumerate(per_op)
                             for n, t0, t1, parent, _ in rec["spans"]])
            finish_pass(results)
            if clock() >= start + seconds:
                break
        os.remove(stats)
    return out


def merge_cli_stats(per_op):
    """Sum the per-invocation records of one pass into one layer record."""
    summary, counts, phases = {}, {}, []
    for rec in per_op:
        for name, s in rec["summary"].items():
            acc = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, c in rec["counts"].items():
            counts[name] = max(counts.get(name, 0), c) if name == "pi_bits_max" \
                else counts.get(name, 0) + c
        phases.extend(rec["phases"])
    return {"summary": summary, "counts": counts, "phases": phases}


def run_library(workload, seed, seconds, trace, env):
    spans = os.path.join(OUT, "spans-%s-seed%d.jsonl.gz" % (workload, seed))
    proc = run_child(worker_cmd(workload, seed, "--seconds", str(seconds), "--trace",
                                str(trace), "--spans", spans),
                     env, timeout=seconds + CHILD_TIMEOUT)
    return last_json_line(proc, "worker")


# ------------------------------------------------------------
# Metrics
# ------------------------------------------------------------

def spread(xs):
    """(median, first quartile, third quartile, samples)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0], len(xs)
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q1, q3, len(xs)


def percentile(xs, p):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def end_to_end(res, setup):
    """Metrics and their spreads, and the raw medians behind them.  Times are
    scaled by the speed factor of the probes taken around them (speed.py)."""
    setup_times, setup_probe = setup
    setup_s = S.scale_ops(setup_times, setup_probe.samples, setup_probe.marks)
    walls = S.scale_passes(res["walls"], res["lats"], res["probes"], res["marks"])
    lats_ms = [x * 1000.0 for x in S.scale_ops(res["lats"], res["probes"], res["marks"])]
    failed = len(res["failures"])
    detail = {
        "setup_s": spread(setup_s),
        "wall_s": spread(walls),
        "op_p50_ms": spread(lats_ms),
        "op_p90_ms": (percentile(lats_ms, 90), None, None, len(lats_ms)),
        "peak_rss_mb": (res["rss_mb"], None, None, 1),
        "ok_frac": ((res["attempted"] - failed) / res["attempted"], None, None,
                    res["attempted"]),
    }
    raw = {"setup_s": statistics.median(setup_times),
           "wall_s": statistics.median(res["walls"]),
           "op_p50_ms": 1000.0 * statistics.median(res["lats"]),
           "op_p90_ms": 1000.0 * percentile(res["lats"], 90),
           "speed_factor": S.factor(res["probes"], 0, len(res["probes"])),
           "probes": len(res["probes"])}
    metrics = {name: {"value": detail[name][0], "unit": unit} for name, unit in END_TO_END}
    return metrics, detail, raw


PER_LAYER_UNITS = {"_ms": "ms", "_s": "s", "_bits": "bits", "_bits_max": "bits",
                   "_frac": "ratio"}


def per_layer(res, imports):
    layers = res["layers"]
    first = layers[0]
    span_calls = lambda name: first["summary"].get(name, {}).get("calls", 0)
    count = lambda name: first["counts"].get(name, 0)
    timed = lambda name, field: statistics.median(
        rec["summary"].get(name, {}).get(field, 0.0) for rec in layers)
    phase = lambda key: 1000.0 * statistics.median(
        p[key] for p in first["phases"]) if first["phases"] else 0.0
    values = {
        "import.total_ms": imports[0],
        "import.mpmath_ms": imports[1],
        "import.starforge_own_ms": imports[2],
        "cli_frontend.run_command_self_ms": phase("run_command_self"),
        "cli_frontend.parse_ms": phase("parse"),
        "cli_frontend.lower_ms": phase("lower"),
        "cli_frontend.render_ms": phase("render"),
        "star_products.B_calls": span_calls("B"),
        "star_products.B_self_s": timed("B", "self_s"),
        "star_products.star_mul_calls": span_calls("star_mul"),
        "star_products.star_mul_s": timed("star_mul", "total_s"),
        "star_products.axiom_suite_self_s": timed("axiom_suite", "self_s"),
        "formal_series.gausssum_new": count("gausssum_new"),
        "formal_series.gausssum_mul_calls": count("gausssum_mul"),
        "formal_series.gausssum_diff_calls": count("gausssum_diff"),
        "formal_series.fs_integrate_s": timed("fs_integrate", "total_s"),
        "phase_functions.gausspoly_new": count("gausspoly_new"),
        "phase_functions.gp_diff_calls": span_calls("gp_diff"),
        "phase_functions.gp_diff_s": timed("gp_diff", "total_s"),
        "phase_functions.gp_mul_calls": span_calls("gp_mul"),
        "phase_functions.gp_mul_s": timed("gp_mul", "total_s"),
        "phase_functions.terms_out": count("terms_out"),
        "phase_functions.gp_integrate_s": timed("gp_integrate", "total_s"),
        "phase_functions.coeff_sign_calls": span_calls("coeff_sign"),
        "phase_functions.coeff_sign_s": timed("coeff_sign", "total_s"),
        "phase_functions.pi_bounds_calls": count("pi_bounds"),
        "phase_functions.pi_bits_max": count("pi_bits_max"),
        "lambda_scalars.ec_mul_calls": count("ec_mul"),
        "lambda_scalars.ec_add_calls": count("ec_add"),
        "lambda_scalars.scalar_invert_s": timed("scalar_invert", "total_s"),
        "lambda_scalars.max_coeff_bits": res["max_coeff_bits"],
        "functionals_states.func_action_calls": span_calls("func_action"),
        "functionals_states.func_action_s": timed("func_action", "total_s"),
        "functionals_states.star_action_s": timed("star_action", "total_s"),
        "functionals_states.positivity_s": timed("positivity", "total_s"),
        "functionals_states.eigencheck_s": timed("eigencheck", "total_s"),
        "functionals_states.normalize_s": timed("normalize", "total_s"),
        "trace.overhead_frac": statistics.median(
            S.scale_passes(res["traced_walls"], res["traced_lats"], res["traced_probes"],
                           res["traced_marks"]))
        / statistics.median(S.scale_passes(res["walls"], res["lats"], res["probes"],
                                           res["marks"])) - 1.0,
    }
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)),
                    "count")
        metrics[name] = {"value": value, "unit": unit}
    counts_repeat = all(rec["counts"] == first["counts"] and
                        {k: v["calls"] for k, v in rec["summary"].items()} ==
                        {k: v["calls"] for k, v in first["summary"].items()}
                        for rec in layers)
    return metrics, counts_repeat


def environment(seed):
    # git may not look above the checkout: outside a repository there is no commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT, env=env,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "starforge"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starforge", "__init__.py")):
        print("bench: no starforge sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    try:
        if args.workload == "cli_quick":
            res = run_cli(args.seed, args.seconds, args.trace, env)
        else:
            res = run_library(args.workload, args.seed, args.seconds, args.trace, env)
        if args.trace:
            metrics, counts_repeat = per_layer(res, import_times(env))
            detail = {"counts_repeat": counts_repeat, "traced_passes": len(res["layers"])}
        else:
            metrics, spreads, raw = end_to_end(res, setup_samples(args.workload, args.seed,
                                                                  env))
            detail = {name: dict(zip(("median", "p25", "p75", "n"), s))
                      for name, s in spreads.items()}
            detail["raw"] = raw
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print("bench: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    unexpected = [f for f in res["failures"] if not f[1]]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "passes": len(res["walls"]),
              "operations_per_pass": res["attempted"] // max(1, len(res["walls"])
                                                             + len(res["traced_walls"])),
              "metrics": metrics, "detail": detail,
              "known_defect_failures": sorted({f[0] for f in res["failures"] if f[1]}),
              "unexpected_failures": unexpected[:20]}
    print("detail: " + json.dumps(record, sort_keys=True))
    # the record file also keeps the raw samples behind the medians
    record["samples"] = {"pass_walls_s": res["walls"], "op_latencies_s": res["lats"],
                         "probe_s": res["probes"], "probe_marks": res["marks"]}
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                             args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not unexpected, "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
