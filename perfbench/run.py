"""fairpr benchmark: the paper protocols through the CLI and the sweep
harness, a sink-heavy 10k-vertex CLI pipeline, and per-module timings.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload karate_cli --seed 3 --seconds 30 --trace 1

Each workload runs in a worker process of its own (one call at a time,
BLAS/OpenMP pinned to one thread), which repeats a short pass of the
workload's protocol for ``--seconds``. Afterwards the outputs of the first
pass are checked here; every later pass must have matched it. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: one thread, never more than nproc
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0

END_TO_END = {  # name -> (unit, better)
    "solve_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "loss": ("loss", "lower"),
    "rho_bar": ("rho", "higher"),
}
DERIVED = {  # per-layer metrics beyond calls and self time -> (unit, better)
    "bench.protocol.self_s": ("s", "lower"),
    "graph.stored_entries": ("count", "lower"),
    "graph.sink_entry_share": ("ratio", "lower"),
    "graph.build_transition.peak_alloc_mb": ("MB", "lower"),
    "graph.serialize_matrix.peak_alloc_mb": ("MB", "lower"),
    "projection.rows": ("count", "lower"),
    "projection.us_per_row": ("us", "lower"),
    "optimizer.iterations": ("count", "lower"),
    "optimizer.ms_per_iteration": ("ms", "lower"),
    "optimizer.diverged_ratio": ("ratio", "lower"),
    "optimizer.peak_alloc_mb": ("MB", "lower"),
    "experiment.grid_useful_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    import tracing

    out = {}
    for name in tracing.span_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(DERIVED)
    return out


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def cache_sizes() -> str:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size") + ("" if level == "3" else " per core")
    return ", ".join(f"{k} {v}" for k, v in sorted(caches.items())) or "cache sizes unknown"


def header(seed: int) -> list[str]:
    import numpy
    import scipy

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return [
        f"# nproc {len(os.sched_getaffinity(0))}, cpu {model}, {cache_sizes()}",
        f"# python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"threads {'/'.join(os.environ[v] for v in THREAD_VARS[:2])} (OMP/OpenBLAS), jobs 1",
        f"# commit {commit}, seed {seed}",
    ]


REFERENCE_CALIBRATION_S = 0.08


def host_scaled(times: list[float], calibrations: list[float]) -> float:
    """Median over samples of time / calibration taken next to it, in seconds
    of a host on which the worker's calibration takes REFERENCE_CALIBRATION_S
    (its typical time on a 2-vCPU Xeon VM at 2.0 GHz).
    Other tenants of a shared host slow both alike, by up to 1.7x for minutes
    at a time, so the ratio stays put where raw wall time does not."""
    return REFERENCE_CALIBRATION_S * statistics.median(t / c for t, c in zip(times, calibrations))


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool, deadline: float) -> dict:
    """Generate inputs, run the worker, check what it wrote."""
    from workloads import WORKLOADS, build_instance

    wl = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        edges_text, labels_text = wl.generate(seed, tiny)
        spec = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
            "src": str(SRC), "workdir": str(work),
            "edges": str(work / "inputs" / "edges.txt"), "labels": str(work / "inputs" / "labels.txt"),
            "trace_file": str(WORK / f"trace-{name}-s{seed}.jsonl"),
        }
        Path(spec["edges"]).write_text(edges_text)
        Path(spec["labels"]).write_text(labels_text)
        (work / "spec.json").write_text(json.dumps(spec))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"), str(work / "result.json")],
            check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        res = json.loads((work / "result.json").read_text())
        inst = build_instance(edges_text, labels_text, wl.undirected)
        first = res["passes"][0]
        res["checks"], res["quality"] = wl.check(first["ops"], Path(first["dir"]), inst)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return res


def summarize(name: str, res: dict, trace: bool) -> tuple[dict, int, int, list[str]]:
    """(metrics, attempted, failed, report lines) of one workload run."""
    from workloads import op_error

    lines = []
    passes = res["passes"]
    # an op is a command, sweep cell or library call; each batch of set-ups counts as one
    attempted = len(res["setup_batches"]) + sum(len(p["ops"]) for p in passes)
    # a failed check on the built matrix counts once, against the set-ups
    failed = sum(not ok for ok, _ in res["checks"].get("setup", []))
    for i, p in enumerate(passes):
        for op in p["ops"]:
            if i == 0:
                verdicts = res["checks"].get(op["name"], [(False, "not checked")])
            else:
                err = op_error(op)
                verdicts = [(err is None, err), op["repeat"]]
            bad = [d for ok, d in verdicts if not ok]
            failed += bool(bad)
            for detail in bad:
                lines.append(f"  FAIL pass {i} {op['name']}: {detail}")
    solve = [p["solve_s"] for p in passes]
    cal = res["calibrations"]  # one before each pass and one after the last
    setups = [statistics.median(b) for b in res["setup_batches"]]
    lines.append(f"  {len(solve)} passes: wall time median {statistics.median(solve):.4g} s, "
                 f"range {min(solve):.4g}-{max(solve):.4g} s; {sum(map(len, res['setup_batches']))} set-ups: "
                 f"median {statistics.median(setups):.4g} s; calibration median {statistics.median(cal):.4g} s, "
                 f"range {min(cal):.4g}-{max(cal):.4g} s")
    if trace:
        # the layers of the pass with the median traced solve_s
        _, mid = sorted((p["solve_s"], i) for i, p in enumerate(passes))[(len(passes) - 1) // 2]
        m = dict(passes[mid]["layers"], **res["alloc"])
        m["graph.stored_entries"] = res["stored_entries"]
        m["graph.sink_entry_share"] = res["sink_entries"] / res["stored_entries"]
        lines.append(f"  per-layer metrics of traced pass {mid} (the median): solve_s "
                     f"{passes[mid]['solve_s']:.4f} s, self times sum to {m.pop('trace.self_sum_s'):.4f} s; "
                     f"spans of every pass in {WORK.name}/trace-{name}-s*.jsonl")
        units = per_layer_metrics()
    else:
        q = res["quality"]
        m = {
            "solve_s": host_scaled(solve, [(a + b) / 2 for a, b in zip(cal, cal[1:])]),
            "setup_s": host_scaled(setups, cal),
            "peak_rss_mb": res["peak_rss_mb"],
            "loss": q["loss"],
            "rho_bar": q["rho_bar"],
        }
        extra = ", ".join(f"{k} {v:.6g}" for k, v in q.items() if k not in m and v is not None)
        if extra:
            lines.append(f"  also {extra}")
        units = END_TO_END
    ws = res["stored_entries"] * 16
    lines.append(f"  fail_ratio {failed}/{attempted}; stored entries {res['stored_entries']} "
                 f"({res['sink_entries'] / res['stored_entries']:.1%} in sink rows), "
                 f"working set {ws / 2**20:.3g} MiB at 16 B per entry against {cache_sizes()}")
    metrics = {k: {"value": m[k], "unit": units[k][0]} for k in units}
    for k, v in metrics.items():
        lines.append(f"  {k:44s} {v['value']!s:>24} {v['unit']}")
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30, help="measure at least this long (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "fairpr" / "__init__.py").is_file() or not (ROOT / "data" / "karate_edges.txt").is_file():
        print(f"error: no fairpr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("\n".join(header(args.seed)), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, deadline)
        metrics, attempted, failed, lines = summarize(name, res, bool(args.trace))
        print(f"{name}:\n" + "\n".join(lines), flush=True)
        total["attempted"] += attempted
        total["failed"] += failed
        total["correct"] = total["correct"] and failed == 0
        prefix = f"{name}." if args.workload == "all" else ""
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
