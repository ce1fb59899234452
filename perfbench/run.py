"""mfpricelab benchmark: time to a validated equilibrium.

    python3 perfbench/run.py --workload convex-prefix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
The benchmark is a closed loop: one worker process makes one result at a
time, with BLAS limited to one thread.  The workloads are described in
`workloads.py` and README.md.

With `--trace 0` it reports the end-to-end metrics:

- `setup_s`: time from a fresh interpreter to `import mfpricelab` done and the
  workload's model or config built; median of several fresh processes;
- `result_s`: median wall time per validated result;
- `peak_rss_mb`: peak resident memory of the worker process;
- `accuracy_ratio`: the mean gap over allowance in the workload's check of
  the run's first result, so it depends only on the seed (README.md says why
  the mean and not the worst).

With `--trace 1` it reports the per-layer metrics of `tracer.py` plus the
cumulative import time of each module (`python -X importtime`) and
`trace.overhead_s`, the traced minus the untraced `result_s`.

Every result is gated (see `workloads.py`); failed results are counted in
`failed`, `failed_share` is printed, and the exit status is 1 if any gate
failed.  The last line of standard output is one JSON object; the full record
(per-result digests, gates and the environment) is written under
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3        # set-up-only processes per run, after one warm-up
BLAS_THREADS = 1
DEADLINE_S = 170.0      # the whole run, set-up probes included


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def wait_ready(proc, t0: float) -> float:
    """Seconds from process start to its `ready` line."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not set up (read {line!r})")
    return time.perf_counter() - t0


def setup_probe(args, env) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE,
                          text=True, env=env, cwd=ROOT) as proc:
        try:
            elapsed = wait_ready(proc, t0)
        finally:
            proc.wait(timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def run_worker(args, env, out_dir: Path, timeout: float) -> tuple[float, dict]:
    t0 = time.perf_counter()
    with subprocess.Popen(worker_cmd(args, "--out-dir", str(out_dir)),
                          stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            setup = wait_ready(proc, t0)
            out, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def import_times(env) -> dict:
    """Cumulative import time of the package and each module."""
    from tracer import parse_importtime
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import mfpricelab; import mfpricelab.cli"],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importtime probe failed: {proc.stderr[-500:]}")
    return parse_importtime(proc.stderr)


def environment(args) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "not a git checkout"


def summarize(args, setups: list, worker: dict, imports: dict) -> tuple[dict, dict]:
    """End-to-end (or per-layer) metrics plus the run's bookkeeping."""
    records = worker["untraced"]
    passed = [r for r in records if r["passed"]]
    failed = len(records) - len(passed)
    book = {"attempted": len(records), "failed": failed,
            "failed_share": failed / len(records)}
    if args.trace:
        traced = worker["traced"]
        metrics = dict(traced["metrics"])
        metrics.update(imports)
        metrics["trace.overhead_s"] = (
            statistics.median(r["seconds"] for r in traced["records"])
            - statistics.median(r["seconds"] for r in records))
        pairs = zip(records, traced["records"])
        book["trace_changes_digests"] = any(a.get("digests") != b.get("digests") for a, b in pairs)
        book["traced_failed"] = sum(not r["passed"] for r in traced["records"])
        book["split"] = traced["split"]
        return metrics, book
    metrics = {
        "setup_s": statistics.median(setups),
        "result_s": statistics.median(r["seconds"] for r in passed) if passed else None,
        "peak_rss_mb": worker["peak_rss_mb"],
        "accuracy_ratio": records[0].get("accuracy_ratio"),
    }
    return metrics, book


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mfpricelab" / "__init__.py").is_file():
        print(f"error: no mfpricelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = HERE / "out" / f"{tag}-{os.getpid()}"
    try:
        setup_probe(args, env)  # warm-up: byte-code and file caches
        setups = [setup_probe(args, env) for _ in range(SETUP_PROBES)]
        left = DEADLINE_S - (time.perf_counter() - start) - (10.0 if args.trace else 0.0)
        setup, worker = run_worker(args, env, out_dir, timeout=left)
        setups.append(setup)
        imports = import_times(env) if args.trace else {}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics, book = summarize(args, setups, worker, imports)
    correct = book["failed"] == 0 and not book.get("trace_changes_digests") \
        and not book.get("traced_failed")
    record = {"environment": environment(args), "correct": correct, **book,
              "setup_samples_s": setups, "metrics": metrics,
              "results": worker["untraced"],
              "traced_results": worker.get("traced", {}).get("records", [])}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for rec in record["results"] + record["traced_results"]:
        bad = [name for name, ok in rec["gates"].items() if not ok]
        if bad:
            print(f"result {rec['index']}: FAILED {', '.join(bad)} {rec.get('error', '')}")
    if book.get("trace_changes_digests"):
        print("FAILED: tracing changed a result digest")
    if args.trace:
        print("self-time split: " + ", ".join(
            f"{row['function']}={row['self_s']:.3f}s" for row in book["split"][:6]))
    for name, value in {**metrics, "failed_share": book["failed_share"]}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit_of(name)}")
    print(json.dumps({
        "correct": correct, "attempted": book["attempted"], "failed": book["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


_UNITS = {"s": "s", "mb": "MB", "gb": "GB", "gflop": "GFLOP", "bytes": "B",
          "share": "1", "ratio": "1", "residual": "1", "excess": "1"}


def unit_of(name: str) -> str:
    """Unit of a metric, from the last word of its name (default: count)."""
    return _UNITS.get(re.split(r"[._]", name)[-1], "count")


if __name__ == "__main__":
    sys.exit(main())
