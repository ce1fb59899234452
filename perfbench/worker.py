"""One benchmark process: set up a workload, then make results in a closed loop.

Started by run.py in a fresh interpreter.  It prints `ready` once
`import mfpricelab` is done and the workload's model or config is built, so
the parent can time set-up from outside.  With `--setup-only` it exits there.
Otherwise it makes one result at a time for `--seconds` (at least one
result), checks the first result's accuracy further outside the timed loop,
and prints one JSON line with the per-result records.

With `--trace 1` the loop runs twice over the same result seeds: untraced,
then with every layer wrapped by the tracer.  The second pass gives the
per-layer metrics, and its digests must equal the first pass's.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads


def make_result(work, run_seed: int, index: int, out_root: Path) -> dict:
    """One result, timed; an exception counts as a failed result."""
    out_dir = out_root / f"r{index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        rec = work.result(run_seed, index, out_dir)
        rec["seconds"] = time.perf_counter() - t0
    except Exception as exc:  # a failed result must not stop the benchmark
        traceback.print_exc(file=sys.stderr)
        rec = {"gates": {"no exception": False}, "error": f"{type(exc).__name__}: {exc}",
               "seconds": time.perf_counter() - t0}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rec["index"] = index
    rec["passed"] = all(rec["gates"].values())
    return rec


def closed_loop(work, run_seed: int, seconds: float, out_root: Path) -> list:
    """Results one at a time for `seconds`: the next result starts only if,
    at the median duration so far, it ends in time (at least one result)."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(make_result(work, run_seed, len(records), out_root))
        typical = statistics.median(r["seconds"] for r in records)
        if time.perf_counter() - start + typical > seconds:
            return records


def check_accuracy(work, run_seed: int, records: list) -> None:
    """The workload's further accuracy checks of the first result, untimed
    and after the loop, so that they depend only on the seed."""
    first = records[0]
    if first["passed"]:
        more = work.more_accuracy(run_seed)
        if more:
            first["accuracy_ratio"] = statistics.fmean(more)


def traced_pass(lab, work, run_seed: int, count: int, out_root: Path) -> dict:
    """Rebuild the workload under tracing, then rerun the same result seeds."""
    from tracer import Tracer, reduce_spans, result_metrics, self_time_split

    tracer = Tracer()
    tracer.install(lab)
    work.model = work.build()
    work.trace_model(tracer)
    setup = reduce_spans(tracer.spans)
    parse = setup.get(("cli", "parse_config"))
    per_result, records = [], []
    for index in range(count):
        tracer.reset()
        rec = make_result(work, run_seed, index, out_root)
        records.append(rec)
        per_result.append(result_metrics(tracer, rec))
    metrics = {name: statistics.fmean(m[name] for m in per_result) for name in per_result[0]}
    metrics["cli.parse_s"] = parse.total_s if parse else 0.0
    return {"records": records, "metrics": metrics, "split": self_time_split(tracer)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import mfpricelab as lab
    work = workloads.WORKLOADS[args.workload](lab)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        # half the time untraced, then the same result seeds traced
        out = {"untraced": closed_loop(work, args.seed, args.seconds / 2, args.out_dir)}
        out["traced"] = traced_pass(lab, work, args.seed, len(out["untraced"]), args.out_dir)
    else:
        out = {"untraced": closed_loop(work, args.seed, args.seconds, args.out_dir)}
        check_accuracy(work, args.seed, out["untraced"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
