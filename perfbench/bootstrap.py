"""Run ``repro.cli.main`` in a fresh process with the benchmark's wrappers.

Usage::

    python perfbench/bootstrap.py --report OUT.json [--trace] -- <repro args>
    python perfbench/bootstrap.py --import-only

The experiment spans of ``repro run`` are always recorded (six calls,
for the per-experiment times and the accuracy errors); ``--trace``
additionally installs every layer wrapper from :mod:`layers`.  The
spans and counters are written to ``--report`` when the command returns,
which for ``repro serve`` is after ``POST /shutdown``.
``--import-only`` imports the CLI and builds its parser, then exits: the
cold start that every fresh ``repro`` process pays.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import repro.cli

    if args.import_only:
        repro.cli.build_parser()
        return 0

    from layers import collect, install, install_experiments
    from tracer import Tracer

    tracer = Tracer()
    install_experiments(tracer)
    if args.trace:
        install(tracer)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        code = repro.cli.main(argv)
    finally:
        if args.trace:
            collect(tracer)
        report = tracer.dump()
        report["pid"] = os.getpid()
        report["worker_stats"] = tracer.instances["worker_stats"]
        args.report.write_text(json.dumps(report))
        tracer.restore()
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
