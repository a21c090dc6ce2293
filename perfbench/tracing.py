"""Spans around the public functions of each ``fairpr`` module.

The functions are wrapped where they are looked up: every ``fairpr``
module attribute that is the original function object is replaced by a
recording wrapper, so calls between modules are seen as well. Nothing in
the package itself changes; the wrappers only exist inside the process
that calls ``install``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans; the layer is the module.
TRACED = {
    "graph": ("load_graph", "load_labels", "build_transition", "serialize_matrix", "parse_matrix"),
    "pagerank": ("pagerank_power", "neumann_y"),
    "loss": ("loss_fair", "loss_group_adapted", "grad_fair", "grad_group_adapted"),
    "projection": ("project_matrix",),
    "optimizer": ("fair_gd", "adapt_gd"),
    "experiment": ("run_sweep", "run_cell", "tune_step_size", "evaluate_matrices", "rows_to_csv"),
    "baselines": ("fairwalk", "lfpr_n", "lfpr_u"),
    "metrics": ("delta_p", "rho_bar", "rho_tilde", "spearman"),
    "cli": ("main",),
}
ROOT = "bench.protocol"


def span_names() -> list[str]:
    """Every span name a traced run can report, ``project_matrix`` split in two."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            if func == "project_matrix":
                names += [f"{module}.{func}.plain", f"{module}.{func}.box"]
            else:
                names.append(f"{module}.{func}")
    return names


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, info];
    ``parent`` is the index of the enclosing span, -1 for none."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def write_jsonl(path, runs: list[tuple[str, list[list]]]) -> None:
    """One JSON line per span of each (run id, spans) pair."""
    with open(path, "w") as fh:
        for run_id, spans in runs:
            for i, (name, start, end, parent, info) in enumerate(spans):
                rec = {"run": run_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
                if info:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")


def _info_for(module: str, func: str, args, kwargs, result, exc) -> tuple[str, dict | None]:
    """Span name suffix and the counts each boundary reports."""
    name = f"{module}.{func}"
    if func == "project_matrix":
        P_hat = args[0]
        bounded = (args[2] if len(args) > 2 else kwargs.get("delta")) is not None
        rows = int(P_hat.n - P_hat.sink_mask.sum())
        return name + (".box" if bounded else ".plain"), {"rows": rows}
    if module == "optimizer":
        if exc is not None:
            return name, {"iterations": int(getattr(exc, "iteration", 0)), "diverged": True}
        return name, {"iterations": int(result.iterations_run), "diverged": False}
    if func == "tune_step_size" and exc is None:
        return name, {"winner_iterations": int(result[1].iterations_run)}
    if exc is not None:
        return name, {"raised": type(exc).__name__}
    return name, None


def _wrap(tracer: Tracer, module: str, func: str, fn):
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(f"{module}.{func}")
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            tracer.close(idx)
            span = tracer.spans[idx]
            span[0], span[4] = _info_for(module, func, args, kwargs, result, exc)

    traced.__wrapped__ = fn
    return traced


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op
    (best of three, since host noise only ever adds time)."""
    tracer = Tracer()
    tracer.enabled = True

    def noop():
        return None

    traced = _wrap(tracer, "calibration", "noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - t1) - (t1 - t0))
        tracer.spans.clear()
    return max(best, 0.0) / calls


def install(tracer: Tracer) -> None:
    """Replace each traced function at every ``fairpr`` import site."""
    import importlib

    for module in TRACED:
        importlib.import_module(f"fairpr.{module}")
    for module, funcs in TRACED.items():
        home = sys.modules[f"fairpr.{module}"]
        for func in funcs:
            original = getattr(home, func)
            wrapper = _wrap(tracer, module, func, original)
            for name, mod in list(sys.modules.items()):
                if name == "fairpr" or name.startswith("fairpr."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def layer_metrics(spans: list[list], solve_s: float, cost: float) -> dict[str, float]:
    """Calls and self time per span name, plus the derived layer counts.

    Self time is a span's duration minus the time covered by its direct
    children; spans nest strictly (one thread), so the children's
    durations can be summed.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]

    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out[f"{ROOT}.self_s"] = self_s[ROOT]

    rows = sum(s[4]["rows"] for s in spans if s[0].startswith("projection.project_matrix"))
    proj_s = self_s["projection.project_matrix.plain"] + self_s["projection.project_matrix.box"]
    out["projection.rows"] = rows
    out["projection.us_per_row"] = proj_s / rows * 1e6 if rows else 0.0

    opt = [(i, s) for i, s in enumerate(spans) if s[0].startswith("optimizer.")]
    iters = sum(s[4]["iterations"] for _, s in opt)
    opt_s = sum(s[2] - s[1] for _, s in opt)
    out["optimizer.iterations"] = iters
    out["optimizer.ms_per_iteration"] = opt_s / iters * 1e3 if iters else 0.0
    out["optimizer.diverged_ratio"] = sum(s[4]["diverged"] for _, s in opt) / len(opt) if opt else 0.0

    # useful iterations: those of runs whose report reached the caller,
    # i.e. grid winners plus every run made outside a grid
    tunes = {i for i, s in enumerate(spans) if s[0] == "experiment.tune_step_size"}
    useful = sum(s[4]["iterations"] for _, s in opt if s[3] not in tunes)
    useful += sum(spans[i][4].get("winner_iterations", 0) for i in tunes if spans[i][4])
    out["experiment.grid_useful_ratio"] = useful / iters if iters else 0.0

    # traced solve_s over the same pass without the spans' own cost (``span_cost``)
    out["trace.overhead_ratio"] = solve_s / (solve_s - len(spans) * cost)
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
