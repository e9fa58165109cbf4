"""Run one sleeplog command in-process with spans around its cross-module calls.

Usage: python3 perfbench/trace_child.py SPANS_FILE SLEEPLOG_ARGS...

Executes ``sleeplog.cli.main(SLEEPLOG_ARGS)`` and writes the recorded spans
to SPANS_FILE when it returns; exits with the command's exit code.
"""

from __future__ import annotations

import sys

from spans import Recorder, install


def main(argv: list[str]) -> int:
    recorder = Recorder()
    install(recorder)
    from sleeplog import cli

    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
