"""Determinism test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it runs the benchmark three times at one seed with a
one-second budget (one result per run): twice untraced, once traced.  It
asserts that the two untraced runs record identical result digests (price
values, and the CSV artifacts on `informed-cli`), and that the traced run's
traced results carry the same digests as its untraced pass and as the
untraced runs, so tracing changes no result.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    """The run's full record; a run that fails a gate (exit 1) still writes one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=300)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr[-2000:]}")
    path = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def digests(records: list) -> list:
    return [r.get("digests") for r in records]


def check(workload: str, seed: int) -> list:
    runs = [bench(workload, seed, 0), bench(workload, seed, 0), bench(workload, seed, 1)]
    first, second, traced = runs
    problems = [f"run {k} failed a gate" for k, run in enumerate(runs, 1) if not run["correct"]]
    if digests(first["results"]) != digests(second["results"]):
        problems.append("repeat runs differ")
    if digests(traced["traced_results"]) != digests(traced["results"]):
        problems.append("tracing changed a result digest")
    if digests(traced["results"])[:1] != digests(first["results"])[:1]:
        problems.append("the traced run's first result differs from the untraced runs'")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    failed = False
    for workload in args.workload or sorted(WORKLOADS):
        problems = check(workload, args.seed)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
