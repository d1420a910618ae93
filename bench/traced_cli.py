"""Run one cobcalc CLI command with the per-layer tracer installed.

    PYTHONPATH=src python3 bench/traced_cli.py verify --theorem all ...

The command's own output goes to stdout unchanged and its exit code is kept;
the tracer's record is written to stderr as the last line, prefixed by
TRACE_PREFIX.
"""

import json
import sys

import tracer

TRACE_PREFIX = "cobcalc-bench-trace "


def main():
    tracer.install()
    import cobcalc.cli

    try:
        code = cobcalc.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.raw()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
