"""Harness self-check: every workload at tiny sizes, untraced and traced.

    python3 perfbench/selfcheck.py

Runs ``run.py --tiny --seconds 1`` for each workload and trace mode and checks
the result line against ``BENCHMARK.json``: the metric names and units, a
correct run with no failures, and end-to-end metrics that are not 0.  Exits
non-zero on the first problem.  Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(workload: str, trace: int) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))} or units")
    if not trace:
        problems += [f"{name} is 0" for name, m in result["metrics"].items() if m["value"] == 0]
    elif result["metrics"]["trace.coverage"]["value"] != 1.0:
        problems.append("trace coverage below 1")
    return problems


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    failed = False
    for workload in names:
        for trace in (0, 1):
            problems = check(workload, trace)
            print(f"{workload:18s} trace={trace}  {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"    {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
