"""One workload run in a process of its own, so that its peak RSS is the
run's. Usage: ``python3 worker.py SPEC.json RESULT.json``.

It alternates set-ups and protocol passes until ``seconds`` have been
measured: a batch of timed set-ups, a calibration, then one pass, timed as
a whole; a last calibration follows the last pass. Every pass after the
first must return and write the same as the first; its files are then
deleted. In a traced run every pass is traced, and one
``tracemalloc`` pass follows.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

MIN_PASSES = 3
CALIBRATION_WORK = (300_000, 450, 15_000)  # interpreter steps, matvecs, formatted lines
SETUP_BATCH_S = 0.05  # set-ups before each pass: at least one, then until this long


def time_setups(wl, edges_text: str, labels_text: str):
    """One batch of set-up times, and the last instance built."""
    from workloads import build_instance

    times = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        inst = build_instance(edges_text, labels_text, wl.undirected)
        times.append(time.perf_counter() - t0)
        if t0 - started >= SETUP_BATCH_S:
            return times, inst


def calibration_matrix():
    """A fixed 1000 x 1000 CSR matrix with 50 entries per row."""
    import numpy as np
    import scipy.sparse

    rng = np.random.default_rng(0)
    n, per_row = 1000, 50
    cols = rng.integers(0, n, size=n * per_row)
    return scipy.sparse.csr_matrix((rng.random(n * per_row), cols, np.arange(0, n * per_row + 1, per_row)), shape=(n, n))


def calibrate(A) -> float:
    """Seconds taken by fixed work of the three kinds the workloads spend
    their time on: interpreter steps, sparse matvecs and text formatting.
    It slows with the host as they do."""
    py_steps, matvecs, lines = CALIBRATION_WORK
    t0 = time.perf_counter()
    acc = 0
    for i in range(py_steps):
        acc += i * i
    x = A[0].toarray().ravel()
    for _ in range(matvecs):
        x = A @ x
        x /= x.sum()
    coo = A.tocoo()
    "".join(f"{i}\t{j}\t{v:.17g}\n" for i, j, v in zip(coo.row[:lines].tolist(), coo.col[:lines].tolist(),
                                                       coo.data[:lines].tolist()))
    return time.perf_counter() - t0


def run_pass(wl, spec: dict, out: Path) -> dict:
    t0 = time.perf_counter()
    ops = wl.protocol(spec["edges"], spec["labels"], out, spec["tiny"])
    solve_s = time.perf_counter() - t0
    for op in ops:  # the pass directory is the only thing allowed to differ between passes
        if "stdout" in op:
            op["stdout"] = op["stdout"].replace(str(out), "<pass>")
    return {"dir": str(out), "solve_s": solve_s, "ops": ops}


def compare_to_first(p: dict, first: dict) -> None:
    """Record on each op of a repeated pass whether it matches the first pass."""
    import checks

    before = {op["name"]: op for op in first["ops"]}
    for op in p["ops"]:
        if op["name"] in before:
            op["repeat"] = checks.same_outputs(op, before[op["name"]], Path(p["dir"]), Path(first["dir"]))
        else:
            op["repeat"] = (False, "op missing from the first pass")


def alloc_pass(wl, inst, edges_text: str) -> dict:
    """Peak traced allocation of a matrix build, a serialization and a
    short fixed-step descent, each measured on its own."""
    from fairpr import DivergedError, OptimizerConfig, build_transition, fair_gd, load_graph, serialize_matrix
    from fairpr.experiment import build_target

    def peak_mb(fn):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20

    phi, alpha = wl.alloc
    g = load_graph(edges_text, undirected=wl.undirected)
    target = build_target(phi, inst.groups.K)
    opt = OptimizerConfig(alpha=alpha, kappa=0.0, max_iters=3)

    def descend():
        try:
            fair_gd(inst.P, inst.cfg, inst.groups, target, opt)
        except DivergedError:
            pass

    tracemalloc.start()
    try:
        return {
            "graph.build_transition.peak_alloc_mb": peak_mb(lambda: build_transition(g, inst.cfg)),
            "graph.serialize_matrix.peak_alloc_mb": peak_mb(lambda: serialize_matrix(inst.P)),
            "optimizer.peak_alloc_mb": peak_mb(descend),
        }
    finally:
        tracemalloc.stop()


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import fairpr

    if not Path(fairpr.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"fairpr imported from {fairpr.__file__}, not from {spec['src']}")
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    edges_text = Path(spec["edges"]).read_text()
    labels_text = Path(spec["labels"]).read_text()
    work = Path(spec["workdir"])
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cost = tracing.span_cost()
        traced = []
    A = calibration_matrix()
    setup_batches, calibrations, passes = [], [], []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < spec["seconds"]:
        times, inst = time_setups(wl, edges_text, labels_text)
        setup_batches.append(times)
        calibrations.append(calibrate(A))
        out = work / f"pass{len(passes)}"
        if tracer:
            tracer.spans, tracer.enabled = [], True
            root = tracer.open(tracing.ROOT)
        p = run_pass(wl, spec, out)
        if tracer:
            tracer.close(root)
            tracer.enabled = False
            p["layers"] = tracing.layer_metrics(tracer.spans, p["solve_s"], cost)
            traced.append((f"{spec['workload']}-s{spec['seed']}-pass{len(passes)}", tracer.spans))
        if passes:
            compare_to_first(p, passes[0])
            shutil.rmtree(out, ignore_errors=True)
        passes.append(p)
    calibrations.append(calibrate(A))
    result = {
        "setup_batches": setup_batches,
        "calibrations": calibrations,
        "stored_entries": inst.P.nnz,
        "sink_entries": int(inst.P.sink_mask[inst.P.entry_rows()].sum()),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracing.write_jsonl(spec["trace_file"], traced)
        result["alloc"] = alloc_pass(wl, inst, edges_text)
    return result


if __name__ == "__main__":
    Path(sys.argv[2]).write_text(json.dumps(main(json.loads(Path(sys.argv[1]).read_text()))))
