"""One `homsurf` CLI call with spans recorded, for the traced cli-cold run.

Usage: python perfbench/cli_child.py SUMMARY.json ARGS...
ARGS are those of `python -m homsurf.cli`.  The call's exit code is this
process's exit code, and the span summary is written to SUMMARY.json.
"""

from __future__ import annotations

import json
import sys

import harness


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    harness.use_sources()
    from homsurf import cli

    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
