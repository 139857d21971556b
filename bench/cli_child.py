"""A traced `starforge` command: python3 bench/cli_child.py STATS -- ARGV...

Installs the tracer, runs the command through cli_frontend.run_command
exactly as `python -m starforge ARGV...` would, writes the spans, counters
and phase times to the JSON file STATS and exits with the command's status.
"""

import json
import sys


def main():
    stats_path, argv = sys.argv[1], sys.argv[3:]
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from starforge import cli_frontend
    status = 2
    try:
        status = cli_frontend.run_command(argv).status
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump({"summary": tracer.summary(), "counts": tracer.counts,
                       "phases": list(tracer.cli_phases().values()),
                       "spans": tracer.records()}, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
