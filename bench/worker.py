"""One fresh interpreter running a library workload (or only its set-up).

    python3 bench/worker.py --workload states --seed 1 --seconds 25 --trace 0 \
        --t0 <time.monotonic() of the parent just before it started this process>

Prints one JSON line: the set-up time with --setup-only; otherwise per-pass
wall times, per-operation latencies, speed-probe times (see speed.py),
failures, peak RSS and, with --trace 1, the per-layer records of the traced
passes.  run.py starts it; it is not
meant to be run by hand.
"""

import argparse
import json
import resource
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import starforge as sf
    import workloads as W
    from speed import SpeedProbe
    if args.workload == "cli_quick":
        ops = W.cli_ops(args.seed)
    else:
        ops = W.LIBRARY_BUILDERS[args.workload](sf, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    clock = time.perf_counter
    start = clock()
    untraced_end = start + (args.seconds / 2 if args.trace else args.seconds)
    probe, traced_probe = SpeedProbe(clock), SpeedProbe(clock)
    out = {"walls": [], "lats": [], "probes": probe.samples, "marks": probe.marks,
           "traced_walls": [], "traced_lats": [], "traced_probes": traced_probe.samples,
           "traced_marks": traced_probe.marks,
           "attempted": 0, "failures": [], "layers": [], "max_coeff_bits": 0}

    def finish_pass(results):
        failures, texts = W.check_pass(ops, results)
        out["attempted"] += len(ops)
        out["failures"].extend(failures)
        out["max_coeff_bits"] = max(out["max_coeff_bits"], W.max_int_bits(texts))

    run = lambda i, op: op.run()
    while True:
        wall, lats, results = W.run_pass(ops, run, clock, probe)
        out["walls"].append(wall)
        out["lats"].extend(lats)
        finish_pass(results)
        if clock() >= untraced_end:
            break
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracer import Tracer, write_spans
        tracer = Tracer()
        tracer.install()

        def traced_run(i, op):
            tracer.request = i
            return op.run()
        while True:
            tracer.reset()
            wall, lats, results = W.run_pass(ops, traced_run, clock, traced_probe)
            out["traced_walls"].append(wall)
            out["traced_lats"].extend(lats)
            out["layers"].append({"summary": tracer.summary(), "counts": dict(tracer.counts),
                                  "phases": []})
            if args.spans and len(out["layers"]) == 1:
                write_spans(args.spans, tracer.records())
            tracer.reset()
            finish_pass(results)
            if clock() >= start + args.seconds:
                break
    print(json.dumps(out))


if __name__ == "__main__":
    main()
