"""Self-test of the benchmark: every check rejects a planted wrong answer,
the mind-like generator reproduces the criterion-11 test instance, the
metric lists agree with BENCHMARK.json and catalog.json, a tiny-size run
of all three workloads completes, and a directory without the program
makes the benchmark fail. Run: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import generators
import run
import tracing
from workloads import mind_checks

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.ROOT / "tests"))

from fairpr import TransitionMatrix, parse_matrix, serialize_matrix  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def planted_wrong_answers() -> None:
    ok, _ = checks.scores_within([0.121, 0.879], [0.12, 0.88], 0.05)
    expect(ok, "scores within tolerance pass")
    ok, _ = checks.scores_within([0.171, 0.829], [0.12, 0.88], 0.05)
    expect(not ok, "score shifted past tolerance is rejected")

    P = TransitionMatrix.from_dense([[0.0, 0.5, 0.5], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
    expect(checks.rows_in_boxes(P, P.copy(), 0.1, 0.1)[0], "unchanged matrix lies in its boxes")
    bad = P.copy()
    bad.data[bad.indptr[1]] += 1e-6
    expect(not checks.rows_in_boxes(P, bad, 0.1, 0.1)[0], "row that does not sum to 1 is rejected")
    bad = P.copy()
    bad.data[0:2] = [0.75, 0.25]  # still sums to 1, but 0.75 > 1.1*0.5 + 0.1
    expect(not checks.rows_in_boxes(P, bad, 0.1, 0.1)[0], "entry outside its box is rejected")

    ops = [
        {"name": "fairgd@0.2", "method": "fairgd", "phi": 0.2, "rho_bar": 0.99, "loss": 1e-9, "reason": ""},
        {"name": "fairwalk@0.2", "method": "fairwalk", "phi": 0.2, "rho_bar": 0.93, "loss": 0.01, "reason": ""},
    ]
    res, _ = mind_checks(ops, Path("."), None)
    expect(all(ok for v in res.values() for ok, _ in v), "fairgd above every baseline passes")
    ops[0]["rho_bar"], ops[1]["rho_bar"] = ops[1]["rho_bar"], ops[0]["rho_bar"]
    res, _ = mind_checks(ops, Path("."), None)
    expect(not all(ok for ok, _ in res["fairgd@0.2"]), "swapped rho_bar order is rejected")

    Q = parse_matrix(serialize_matrix(P))
    expect(checks.bit_exact(P, Q)[0], "serialize/parse round trip is bit-exact")
    Q.data[3] = np.nextafter(Q.data[3], 1.0)
    expect(not checks.bit_exact(P, Q)[0], "one-ulp weight change in the round trip is rejected")

    expect(checks.nonincreasing([0.3, 0.2, 0.2, 0.1])[0], "non-increasing loss trace passes")
    expect(not checks.nonincreasing([0.3, 0.2, 0.2000001])[0], "rising loss trace is rejected")
    repeated_pass_differs()
    out = "loss: 2.398822e-02\nrho_bar: 0.999462\n"
    expect(checks.printed_equals(out, "loss", 0.023988216903517018)[0], "printed loss matching the report passes")
    expect(not checks.printed_equals(out, "loss", 0.0239883)[0], "printed loss differing from the report is rejected")


def repeated_pass_differs() -> None:
    root = run.WORK / "selftest-repeat"
    shutil.rmtree(root, ignore_errors=True)
    try:
        for p in ("pass0", "pass1"):
            (root / p / "fairgd").mkdir(parents=True)
            (root / p / "fairgd" / "revised.tsv").write_text("0\t1\t0.5\n")
        op = {"name": "fairgd", "rc": 0, "out": "fairgd", "stdout": "ok", "wall_time_ms": 3.0}
        again = dict(op, wall_time_ms=4.0)
        expect(checks.same_outputs(again, op, root / "pass1", root / "pass0")[0], "repeated pass matching the first one passes")
        expect(not checks.same_outputs(dict(op, stdout="other"), op, root / "pass1", root / "pass0")[0],
               "repeated pass returning other fields is rejected")
        (root / "pass1" / "fairgd" / "revised.tsv").write_text("0\t1\t0.6\n")
        expect(not checks.same_outputs(again, op, root / "pass1", root / "pass0")[0],
               "repeated pass writing another file is rejected")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def generator_matches_tests() -> None:
    from conftest import mind_like_instance

    from fairpr import load_graph, load_labels

    g, groups, _, P = mind_like_instance(seed=7)
    for seed in (1, 2):
        edges, labels = generators.shuffled(generators.mind_like(7), seed)
        g2 = load_graph(edges)
        same = np.array_equal(g.edges, g2.edges) and np.array_equal(groups.labels, load_labels(labels, g2.n).labels)
        expect(same and P.nnz == 1242, f"mind_like(7), shuffled by seed {seed}, is the criterion-11 instance")
    a, b = generators.synth_sinks(3, n=500), generators.synth_sinks(3, n=500)
    expect(a == b and a != generators.synth_sinks(4, n=500), "synth_sinks is a function of its seed")


def metric_lists_agree() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((run.HERE / "catalog.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layers == run.per_layer_metrics(), "BENCHMARK.json per_layer matches run.py")
    listed = {m["name"] for m in catalog["metrics"]}
    expect(listed == set(e2e) | set(layers), "catalog.json describes every metric")
    expect(set(catalog["layers"]) == {n.split(".")[0] for n in layers}, "catalog.json describes every layer")
    expect({w["name"] for w in bench["workloads"]} == set(catalog["workloads"]), "workloads agree")
    expect(len(tracing.span_names()) == len(set(tracing.span_names())), "span names are unique")


def smoke() -> None:
    for trace in (0, 1):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--seed", "5",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        names = run.END_TO_END if trace == 0 else run.per_layer_metrics()
        want = {f"{w}.{m}" for w in ("karate_cli", "mind_sweep", "synth_sinks") for m in names}
        expect(proc.returncode == 0 and last["failed"] == 0 and set(last["metrics"]) == want,
               f"tiny run of all workloads, trace {trace}: {last['failed']}/{last['attempted']} failed")


def bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "karate_cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout, "without the program the run fails and prints no result")


if __name__ == "__main__":
    planted_wrong_answers()
    generator_matches_tests()
    metric_lists_agree()
    bare_directory_fails()
    smoke()
    print("selftest passed")
