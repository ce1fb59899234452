"""The benchmark's three workloads.

A workload builds its model or config once (set-up) and then makes results.
A result is one seed taken through `sample_batch`, `solve_fixed_point` to the
preset `tol` and the workload's check.  Every result is gated like
`mfpricelab solve` and `tests/test_acceptance.py` gate it:

- the fixed-point iteration converged;
- every iterate's sup of the price and of both adjoints is <= C_B, exactly;
- the within-interval time-Lipschitz excess over 2L + 10 SE is <= 0;
- on `informed-cli`, the CLI exit status is 0 and its identity check passed.

Why each workload exists (and which ROADMAP item it should show):

- `convex-prefix`: the `general-convex` preset, prefix keys, 4,000 samples,
  tol 5e-4, checked by `consistency_residual` on a fresh seed.  It is bound by
  the within-bucket least-squares kernel (`TreeConditioner.regress_slab`), so
  it shows item 3 (contiguous-bucket kernel) and the inner and outer Picard
  counts that item 4 (Anderson acceleration) should cut.
- `informed-cli`: `mfpricelab informed` on the `single-informed` preset,
  driven through `cli.parse_config` and `cli.run` from `informed-cli.ini`.
  It is the lab's user-facing path and makes no `regress_slab` call
  (`informed_state=False`), so item 3 should leave it unchanged.  It shows
  item 2 (array-backed price, lazy Euler pass, one run-default table) and
  item 4 (fewer map evaluations).
- `deep-markov`: `single-informed` moved onto `GridSpec(n=4, l=2, m=4)` with
  the library's automatic key mode (Markov for n > 2), 10,000 samples,
  checked by `consistency_residual`.  Sixteen intervals and hundreds of keys
  make per-interval and per-key costs and memory dominate, which is what
  item 5 (bounded memory at depth) is about.  The preset's 20,000 samples
  make a result take 10-12 s, two per run, and the run medians of so few
  results spread by over a fifth across seeds on a shared 2-core host; at
  10,000 samples a run makes four to six results.

A deep prefix workload is absent on purpose: at n=3, l=2 with 20,000 samples
the prefix tree exhausts memory, and at n=3, l=1 it pools about half of the
samples of its last intervals.  Both are item 5 defects; a prefix workload at
depth waits until item 5 fixes them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
INFORMED_CONFIG = HERE / "informed-cli.ini"
ACCURACY_CHECKS = 6     # fresh-seed consistency checks of the first result, untimed
DEEP_SAMPLES = 10_000


def derived_seed(run_seed: int, index: int, purpose: str) -> int:
    """Seed of one result's batch, fixed by the run seed and result index."""
    text = f"{run_seed}/{index}/{purpose}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little")


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def equilibrium_gates(report, model) -> dict:
    C_B = model.bounds.C_B
    bounded = (max(report.iterate_sup_price) <= C_B
               and all(max(sup.values()) <= C_B for sup in report.iterate_sup_Y))
    return {
        "converged": bool(report.converged),
        "boundedness C_B": bool(bounded),
        "time-Lipschitz": bool(report.diagnostics.time_lipschitz_bound_excess <= 0.0),
    }


class Workload:
    """Set-up in the constructor; `result` makes one timed result."""

    def __init__(self, lab):
        from mfpricelab import price
        self.lab = lab
        # the untraced writer, so digests add no spans to a traced result
        self.price_to_csv = price.price_to_csv
        self.model = self.build()

    def build(self):
        raise NotImplementedError

    def trace_model(self, tracer) -> None:
        self.model = tracer.wrap_model(self.model)

    def price_digest(self, price, out_dir: Path) -> str:
        """Digest of the equilibrium price values, keys sorted (as the CLI
        writes them to equilibrium.csv)."""
        path = out_dir.with_name(out_dir.name + "-price.csv")
        self.price_to_csv(path, price)
        try:
            return file_digest(path)
        finally:
            path.unlink()

    def more_accuracy(self, run_seed: int) -> list:
        """Accuracy ratios of further untimed checks of the first result."""
        return []


class ModelWorkload(Workload):
    """Library path: sample, solve, then `consistency_residual` on a fresh seed.

    `accuracy_ratio` is the mean gap over allowance of the consistency check
    over the (key, sub-time) entries it judges, averaged over six fresh
    checks of the run's first result.  Its worst entry, the library's
    `worst_ratio`, is a maximum of Monte Carlo gaps whose quartiles over
    seeds spread by a quarter of the median even as a median of five fresh
    checks; the mean of six checks spreads by under a tenth.  The worst ratio
    is still recorded per result.
    """

    def check_ratios(self, price, seed: int):
        """Gap over allowance, tol + 3*sqrt(2)*se, of the price map on a fresh
        batch against the stored price, for the keys `consistency_residual`
        judges (stored exactly and not pooled in the fresh batch)."""
        import numpy as np
        lab, model = self.lab, self.model
        fresh = lab.sample_batch(model.grid, seed, model.solver.samples, model.factor)
        buckets = lab.TreeConditioner(model.grid, fresh.node_path, mode=price.mode,
                                      min_count=model.solver.min_bucket)
        phi, stats, _ = lab.apply_phi(price, fresh, model, buckets=buckets,
                                      return_internals=True)
        ratios = []
        for i in range(model.grid.n_intervals):
            for k, key in enumerate(buckets.keys(i)):
                stored = price.values.get(key)
                if stored is None or stats.fallback[i][k]:
                    continue
                se = np.where(np.isfinite(stats.se[i][k]), stats.se[i][k], 0.0)
                gap = np.abs(phi.values[key] - stored)
                ratios.append(gap / (model.solver.tol + 3.0 * np.sqrt(2.0) * se))
        return np.concatenate(ratios)

    def result(self, run_seed: int, index: int, out_dir: Path) -> dict:
        lab, model = self.lab, self.model
        batch = lab.sample_batch(model.grid, derived_seed(run_seed, index, "solve"),
                                 model.solver.samples, model.factor)
        report = lab.solve_fixed_point(batch, model)
        check = lab.consistency_residual(report.price, model,
                                         seed=derived_seed(run_seed, index, "fresh"))
        if index == 0:
            self.first_price = report.price
        return {"gates": equilibrium_gates(report, model),
                "worst_ratio": check.worst_ratio,
                "outer_iters": report.iterations,
                "digests": {"price": self.price_digest(report.price, out_dir)}}

    def more_accuracy(self, run_seed: int) -> list:
        return [float(self.check_ratios(self.first_price,
                                        derived_seed(run_seed, 0, f"fresh{k}")).mean())
                for k in range(ACCURACY_CHECKS)]


class ConvexPrefix(ModelWorkload):
    def build(self):
        return self.lab.preset("general-convex")


class DeepMarkov(ModelWorkload):
    def build(self):
        from mfpricelab.tree import GridSpec
        model = self.lab.preset("single-informed").with_grid(GridSpec(n=4, l=2, m=4, T=1.0))
        return dataclasses.replace(
            model, solver=dataclasses.replace(model.solver, samples=DEEP_SAMPLES))


class InformedCli(Workload):
    """CLI path: `cli.run` of the `informed` command; the equilibrium report
    is captured from `equilibrium.solve_fixed_point`, which the informed check
    looks up at call time."""

    def __init__(self, lab):
        from mfpricelab import cli, equilibrium
        self.cli = cli
        self.reports: list = []
        solve = equilibrium.solve_fixed_point

        @functools.wraps(solve)
        def capture(*args, **kwargs):
            report = solve(*args, **kwargs)
            self.reports.append(report)
            return report

        equilibrium.solve_fixed_point = capture
        super().__init__(lab)

    def build(self):
        self.spec = self.cli.parse_config(INFORMED_CONFIG)
        return self.spec.model

    def result(self, run_seed: int, index: int, out_dir: Path) -> dict:
        run = dict(self.spec.run, seed=derived_seed(run_seed, index, "solve"),
                   out_dir=str(out_dir))
        spec = self.cli.RunSpec(command=self.spec.command, model=self.model, run=run)
        self.reports.clear()
        status, manifest = self.cli.run(spec)
        (report,) = self.reports
        gates = equilibrium_gates(report, self.model)
        gates["exit status 0"] = status == 0
        gates["identity check"] = all(c["passed"] for c in manifest["checks"])
        with open(out_dir / "informed.csv", newline="", encoding="utf-8") as fh:
            rows = [(float(r["gap"]), float(r["tol"])) for r in csv.DictReader(fh)]
        # keys with fewer than two samples have no standard error (tol = inf)
        ratios = [gap / tol for gap, tol in rows if math.isfinite(tol)]
        csvs = [out_dir / name for name in sorted(manifest["artifacts"]) if name.endswith(".csv")]
        return {"gates": gates,
                "accuracy_ratio": statistics.fmean(ratios),
                "worst_ratio": max(ratios),
                "outer_iters": report.iterations,
                "artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
                "digests": {"price": self.price_digest(report.price, out_dir),
                            "csv": file_digest(*csvs)}}


WORKLOADS = {
    "convex-prefix": ConvexPrefix,
    "informed-cli": InformedCli,
    "deep-markov": DeepMarkov,
}
