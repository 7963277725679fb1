#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced with ``--size tiny`` and
checks that the run exits 0, that all its output checks pass, that it
prints exactly the metrics ``BENCHMARK.json`` names, each with its unit,
and that the only failed operation is the counted missing-store command of
the query mix (one per round of eight commands).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
QUERY_MIX = 8


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [*spec["command"], "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            run = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}\n{run.stderr}")
                continue
            result = json.loads(run.stdout.splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(printed.items())} differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{label}: output checks failed\n{run.stderr}")
            allowed = result["attempted"] // QUERY_MIX if workload == "query" else 0
            if result["attempted"] < 1 or not 0 <= result["failed"] <= allowed:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            print(f"ok  {label}: {result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
