"""Traced stand-in for ``python -m ptcs.cli``, one process per operation.

Usage: ``python perfbench/cli_child.py FD -- <pt-cs arguments>``, run from
the repository root with ``src`` on ``PYTHONPATH``.  It times
``import ptcs``, installs the span wrappers, calls ``ptcs.cli.main`` and
exits with its return code, so stdout and the exit code match the untraced
command.  The spans stay in memory and are written once, as JSON, to the
inherited pipe FD.
"""

import time

SCRIPT_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    fd = int(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py FD -- <pt-cs arguments>")
    t0 = time.perf_counter()
    import ptcs  # noqa: F401
    import ptcs.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    tracer.begin_op()
    try:
        code = ptcs.cli.main(sys.argv[3:])
    finally:
        profile = tracer.end_op()
        tracer.uninstall()
    sys.stdout.flush()
    report = {
        "import_s": import_s,
        "profile": profile.to_json(),
        "script_s": time.perf_counter() - SCRIPT_T0,
    }
    with os.fdopen(fd, "w") as pipe:
        json.dump(report, pipe)
    return code


if __name__ == "__main__":
    sys.exit(main())
