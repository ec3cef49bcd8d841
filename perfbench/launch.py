"""Traced launcher: ``python perfbench/launch.py --spans-out F <repro CLI args>``.

Installs the span wrappers of :mod:`spans` around the program's public
functions, then runs ``repro.cli.main`` with the remaining arguments —
the same daemon as ``python -m repro ...``, only traced.  The spans are
written to ``F`` when the process exits (a daemon exits after its
SIGTERM drain).
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory clean
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: launch.py --spans-out FILE <repro arguments>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[2:]
    recorder = spans.Recorder()
    recorder.install()
    atexit.register(recorder.write, out)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
