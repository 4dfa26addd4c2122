"""Benchmark for the striptok CLI.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` (untimed), then calls
``striptok.cli.main`` -- the console script's entry point -- in a closed loop
for ``--seconds`` seconds and checks every call's outputs.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
calls with traced ``--jobs 1`` calls and reports per-layer self times and
counters.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs and
the span file live in ``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_WAIT_S = 30.0


def reap_children(timeout_s: float = CHILD_WAIT_S) -> bool:
    """Wait until every child process has ended; False if one outlives ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.05)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("roundtrip", "decode_generated", "evaluate"))
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1; confirm claims on seed 2)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="a few small inputs, for the harness self-check")
    args = parser.parse_args(argv)

    if not (SRC / "striptok" / "cli.py").is_file():
        print(f"perfbench: no striptok sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import spans

    try:
        result, summary = harness.run(ROOT / ".perfbench_work" / args.workload, args)
    except spans.TraceError as exc:
        print(f"perfbench: trace failed: {exc}", file=sys.stderr)
        return 3
    finally:
        children_ended = reap_children()
    if not children_ended:
        print("perfbench: a child process is still running after the run", file=sys.stderr)
        return 4
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
