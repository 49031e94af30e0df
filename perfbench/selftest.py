"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs, one at a time, two traced runs of every workload at seed 1 and one
at seed 2, and checks that:

- every count metric repeats exactly between the two seed-1 runs;
- on certify-q2 and function-grid, whose seeds change only vertex labels,
  the ``*.yielded`` counts are equal across seeds;
- every run reports correct answers;
- run.py exits nonzero, printing no result, in a copy of the benchmark
  that lacks the program's sources.

Takes about three minutes.  Exit code 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RELABEL_ONLY = ("certify-q2", "function-grid")


def traced(workload, seed, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout.strip().splitlines()


def counts(workload, seed):
    code, lines = traced(workload, seed)
    result = json.loads(lines[-1]) if lines else {}
    if code != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: exit {code}, {lines[-1:]}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    problems = []
    for workload in ("realize-tail", "certify-q2", "function-grid"):
        first, again, other = counts(workload, 1), counts(workload, 1), counts(workload, 2)
        problems += [f"{workload}: {k} = {v} then {again[k]} at one seed"
                     for k, v in first.items() if again[k] != v]
        if workload in RELABEL_ONLY:
            problems += [f"{workload}: {k} = {v} at seed 1, {other[k]} at seed 2"
                         for k, v in first.items() if k.endswith(".yielded") and other[k] != v]
        print(f"{workload}: {len(first)} counts compared")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    code, lines = traced("realize-tail", 1, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without the program's sources: exit {code}, output {lines[-1:]}")

    for problem in problems:
        print(problem)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
