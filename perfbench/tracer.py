"""Span tracing of mfpricelab from outside the program.

The tracer wraps the public functions of each layer module and the public
methods of the classes those modules define, and installs every wrapper in
each namespace of the package that holds the original (so `solve_agent` is
traced whether `equilibrium` or `market` calls it).  A span records its layer,
its function, its parent span, start and end; a layer's self time is a span's
duration minus the part its child spans cover.  Hooks read counts from the
arguments and return values at the same boundaries (Picard iterations from the
returned FbsdeSolution, clip excess from PhiStats, missing keys from PriceEnv),
and computed operation and byte counts from argument shapes.

Spans stay in memory and are reduced per result by `result_metrics`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import re
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("tree", "sampling", "conditioning", "models", "price", "fbsde",
          "equilibrium", "market", "cli")

# coefficient slots of an AgentSpec; the callables are wrapped on the model
COEFF_FIELDS = ("drift", "vol_common", "vol_idio", "running_cost", "terminal_cost",
                "running_cost_dx", "terminal_cost_dx")

PRICE_OPS = ("blend", "price_metric", "interval_matrix", "zero_price")


class Tracer:
    """In-memory span recorder plus counters filled by return-value hooks."""

    def __init__(self):
        self.spans: list = []      # [id, parent, layer, name, start, end]
        self._stack: list = []
        self.counters = defaultdict(float)
        self.conditioners: list = []
        self.regressions: list = []
        self.last_price_keys = 0

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.conditioners.clear()
        self.regressions.clear()

    def wrap(self, layer: str, name: str, fn):
        hook = _HOOKS.get((layer, name))
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, layer, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every public function and method of the layer modules, in
        every module of the package that holds them."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(prefix) and m is not None]
        wrapped = {}
        for mod in modules[1:]:
            layer = mod.__name__[len(prefix):]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(layer, name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _install_methods(self, layer: str, cls) -> None:
        """Public methods, and the constructor of a class that is not a
        dataclass (TreeConditioner's build)."""
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if not name.startswith("_") or (name == "__init__" and not dataclasses.is_dataclass(cls)):
                setattr(cls, name, self.wrap(layer, f"{cls.__name__}.{name}", obj))

    def wrap_model(self, model):
        """A copy of the model whose agents' coefficient callables are traced."""
        def agent(spec):
            slots = {f: self.wrap("models", f"coeff.{f}", getattr(spec, f))
                     for f in COEFF_FIELDS if getattr(spec, f) is not None}
            return dataclasses.replace(spec, **slots)
        return dataclasses.replace(model, informed=agent(model.informed),
                                   standard=agent(model.standard))


# ---------------------------------------------------------------------------
# hooks: counts read where the work happens

def _poly_terms(d: int, degree: int) -> int:
    return d + (d * (d + 1) // 2 if degree >= 2 else 0)


def _on_regress_slab(tracer, args, kwargs, out):
    conditioner, interval, state = args[0], args[1], args[2]
    degree = kwargs.get("degree", args[4] if len(args) > 4 else 2)
    tracer.regressions.append((conditioner, interval, state.shape, degree))


def regress_work(regressions: list) -> tuple[float, float]:
    """Computed operations and bytes of the within-bucket least-squares calls,
    from argument shapes.  Per sample and column: the p x p outer products and
    their segment sums (2 p^2), right-hand sides, centring and predictions
    (~7 p); per bucket and column, a p x p solve.  Bytes: state and values
    in, predictions out, basis and centred basis written and read, outer
    products written, gathered and reduced."""
    flops = nbytes = 0.0
    for conditioner, interval, (count, k, d), degree in regressions:
        p = _poly_terms(d, degree)
        nk = len(conditioner.counts(interval))
        flops += count * k * (2 * p * p + 7 * p) + nk * k * (2 * p ** 3 / 3 + 2 * p * p)
        nbytes += 8 * count * k * (d + 2 + 4 * p + 3 * p * p)
    return flops, nbytes


def _on_sample_batch(tracer, args, kwargs, out):
    arrays = (out.b, out.c, out.w_I, out.w_S, out.xi_I, out.xi_S, out.node_path)
    tracer.counters["sampling_bytes"] += sum(a.nbytes for a in arrays)


def _on_conditioner_init(tracer, args, kwargs, out):
    tracer.conditioners.append(args[0])


def _on_materialize(tracer, args, kwargs, out):
    tracer.counters["missing_keys"] += out.missing_keys
    tracer.last_price_keys = len(args[0].values)


def _on_apply_phi(tracer, args, kwargs, out):
    if isinstance(out, tuple):
        tracer.counters["clip_excess"] = max(tracer.counters["clip_excess"], out[1].clip_excess)


def _on_solve_convex(tracer, args, kwargs, out):
    tracer.counters["picard_iters"] += out.picard_iters
    tracer.counters["picard_iters_max"] = max(tracer.counters["picard_iters_max"], out.picard_iters)


def _on_solve_fixed_point(tracer, args, kwargs, out):
    tracer.counters["outer_iters"] += out.iterations
    tracer.counters["final_residual"] = out.residual_trace[-1]


_HOOKS = {
    ("conditioning", "TreeConditioner.regress_slab"): _on_regress_slab,
    ("conditioning", "TreeConditioner.__init__"): _on_conditioner_init,
    ("sampling", "sample_batch"): _on_sample_batch,
    ("price", "materialize"): _on_materialize,
    ("equilibrium", "apply_phi"): _on_apply_phi,
    ("equilibrium", "solve_fixed_point"): _on_solve_fixed_point,
    ("fbsde", "solve_convex"): _on_solve_convex,
}


# ---------------------------------------------------------------------------
# reduction of one result's spans into per-layer metrics

@dataclasses.dataclass
class FunctionTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outer_s: float = 0.0   # time of calls made from outside the function's layer


def reduce_spans(spans: list) -> dict:
    """(layer, name) -> FunctionTotals."""
    child = [0.0] * len(spans)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = defaultdict(FunctionTotals)
    for sid, parent, layer, name, t0, t1 in spans:
        dur = t1 - t0
        tot = out[(layer, name)]
        tot.calls += 1
        tot.total_s += dur
        tot.self_s += dur - child[sid]
        if parent < 0 or spans[parent][2] != layer:
            tot.outer_s += dur
    return out


def result_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics of one traced result (times in s, counts as counts)."""
    f = reduce_spans(tracer.spans)
    n_spans = len(tracer.spans)   # calls below add spans of their own
    c = tracer.counters
    regress_flop, regress_bytes = regress_work(tracer.regressions)

    def get(layer, *names, field="total_s"):
        return sum(getattr(f[(layer, n)], field) for n in names if (layer, n) in f)

    def layer_sum(layer, field):
        return sum(getattr(v, field) for (lay, _), v in f.items() if lay == layer)

    keys = pooled = 0
    pooled_share = 0.0
    for cond in tracer.conditioners:
        n_int = cond.spec.n_intervals
        counts = [cond.counts(i) for i in range(n_int)]
        keys = max(keys, sum(len(cnt) for cnt in counts))
        pooled = max(pooled, cond.n_fallback_keys())
        in_pool = sum(int(cnt[cnt < cond.min_count].sum()) for cnt in counts if len(cnt) > 1)
        pooled_share = max(pooled_share, in_pool / (cond.count * n_int))
    coeff_names = [n for (lay, n) in f if lay == "models" and n.startswith("coeff.")]
    # the CSV writers the CLI emits artifacts with (digests use untraced ones)
    artifact_s = sum(v.total_s for (_, n), v in f.items() if n.endswith("_csv"))
    price_ops = sum(f[("price", n)].outer_s for n in PRICE_OPS if ("price", n) in f)

    m = {
        "conditioning.regress_s": get("conditioning", "TreeConditioner.regress_slab"),
        "conditioning.regress_calls": get("conditioning", "TreeConditioner.regress_slab", field="calls"),
        "conditioning.regress_gflop": regress_flop / 1e9,
        "conditioning.regress_gb": regress_bytes / 1e9,
        "conditioning.means_s": get("conditioning", "TreeConditioner.bucket_stats",
                                    "TreeConditioner.smooth", field="self_s"),
        "conditioning.means_calls": get("conditioning", "TreeConditioner.bucket_stats", field="calls"),
        "conditioning.build_s": get("conditioning", "TreeConditioner.__init__"),
        "conditioning.builds": get("conditioning", "TreeConditioner.__init__", field="calls"),
        "conditioning.keys": keys,
        "conditioning.pooled_keys": pooled,
        "conditioning.pooled_sample_share": pooled_share,
        "conditioning.rank_fallbacks": sum(cond.rank_fallbacks for cond in tracer.conditioners),
        "fbsde.euler_s": get("fbsde", "euler_state"),
        "fbsde.euler_calls": get("fbsde", "euler_state", field="calls"),
        "fbsde.backward_s": get("fbsde", "backward_integral"),
        "fbsde.solve_self_s": get("fbsde", "solve_agent", "solve_affine", "solve_convex",
                                  field="self_s"),
        "fbsde.picard_iters": c["picard_iters"],
        "fbsde.picard_iters_max": c["picard_iters_max"],
        "equilibrium.outer_iters": c["outer_iters"],
        "equilibrium.map_evals": get("equilibrium", "apply_phi", field="calls"),
        "equilibrium.phi_self_s": get("equilibrium", "apply_phi", field="self_s"),
        "equilibrium.final_residual": c["final_residual"],
        "equilibrium.clip_excess": c["clip_excess"],
        "equilibrium.diagnostics_s": get("equilibrium", "diagnostics"),
        "equilibrium.consistency_self_s": get("equilibrium", "consistency_residual", field="self_s"),
        "price.materialize_s": get("price", "materialize"),
        "price.materialize_calls": get("price", "materialize", field="calls"),
        "price.ops_s": price_ops,
        "price.keys": tracer.last_price_keys,
        "price.missing_keys": c["missing_keys"],
        "sampling.s": layer_sum("sampling", "outer_s"),
        "sampling.calls": get("sampling", "sample_batch", field="calls"),
        "sampling.mb": c["sampling_bytes"] / 1e6,
        "models.coeff_s": get("models", *coeff_names),
        "models.coeff_calls": get("models", *coeff_names, field="calls"),
        "market.informed_check_self_s": get("market", "informed_inference_check", field="self_s"),
        "cli.artifact_s": artifact_s,
        "cli.artifact_bytes": extra.get("artifact_bytes", 0),
        "trace.spans": n_spans,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_sum(layer, "self_s")
    return m


def self_time_split(tracer: Tracer, top: int = 12) -> list:
    """The functions with the largest self time in the current spans."""
    f = reduce_spans(tracer.spans)
    rows = sorted(f.items(), key=lambda kv: -kv[1].self_s)[:top]
    return [{"function": f"{layer}.{name}", "calls": v.calls, "self_s": v.self_s,
             "total_s": v.total_s} for (layer, name), v in rows]


# ---------------------------------------------------------------------------
# import-time attribution

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str, package: str = "mfpricelab") -> dict:
    """Cumulative import time in seconds of the package and each of its
    modules, from `python -X importtime` output."""
    out = {f"{name}.import_s": 0.0 for name in (package,) + LAYERS}
    for line in stderr.splitlines():
        hit = _IMPORTTIME.match(line)
        if not hit:
            continue
        name = hit.group(4)
        short = name[len(package) + 1:] if name.startswith(package + ".") else name
        if f"{short}.import_s" in out:
            out[f"{short}.import_s"] = int(hit.group(2)) / 1e6
    return out
