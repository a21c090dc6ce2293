import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR
from fairpr.cli import main

KARATE = [
    "--edges", str(DATA_DIR / "karate_edges.txt"),
    "--labels", str(DATA_DIR / "karate_labels.txt"),
    "--undirected",
]


def toy_files(tmp_path, edges="0 1\n1 0\n1 2\n2 0", labels="0 0\n1 1\n2 1"):
    e = tmp_path / "edges.txt"
    l = tmp_path / "labels.txt"
    e.write_text(edges)
    l.write_text(labels)
    return str(e), str(l)


def test_pagerank_karate_scores(capsys):
    assert main(["pagerank", *KARATE]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    scores = [float(tok) for tok in line.split(":")[1].split()]
    assert abs(scores[0] - 0.52) <= 0.01
    assert abs(scores[1] - 0.48) <= 0.01


def test_pagerank_missing_file(capsys):
    code = main(["pagerank", "--edges", "/no/such/file", "--labels", "/no/such/labels"])
    assert code == 2
    assert "/no/such/file" in capsys.readouterr().err


def test_pagerank_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 0"))
    _, labels = toy_files(tmp_path, labels="0 0\n1 1")
    assert main(["pagerank", "--edges", "-", "--labels", labels]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out


def test_optimize_writes_matrix_and_report(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    out = tmp_path / "run"
    code = main([
        "optimize", "--edges", edges, "--labels", labels,
        "--method", "fairgd", "--phi", "0.4", "--alpha", "0.5",
        "--max-iters", "50", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] in ("kappa", "max_iters")
    assert len(report["loss_trace"]) == report["iterations"] + 1
    assert (out / "revised.tsv").exists() and (out / "original.tsv").exists()


def test_optimize_round_trip_identical_loss(tmp_path):
    from fairpr import (
        OptimizerConfig,
        PageRankConfig,
        build_transition,
        load_graph,
        load_labels,
        loss_fair,
        parse_matrix,
        serialize_matrix,
    )
    from fairpr.experiment import build_target, run_optimizer_method

    edges, labels = toy_files(tmp_path)
    g = load_graph(Path(edges).read_text())
    groups = load_labels(Path(labels).read_text(), g.n)
    cfg = PageRankConfig.uniform(g.n, 0.15)
    P = build_transition(g, cfg)
    target = build_target(0.4, groups.K)
    rep = run_optimizer_method(
        "fairgd", P, 0.15, groups, target, OptimizerConfig(alpha=0.5, max_iters=40)
    )
    mem_loss = loss_fair(rep.final_matrix, cfg, groups, target, t1=400, tol=1e-14)
    reloaded = parse_matrix(serialize_matrix(rep.final_matrix))
    file_loss = loss_fair(reloaded, cfg, groups, target, t1=400, tol=1e-14)
    assert abs(mem_loss - file_loss) <= 1e-12


def test_run_optimizer_method_picks_as_fair_gd_and_adapt_gd(tmp_path):
    """optimize's one-target stack picks, bitwise, what fair_gd and adapt_gd
    pick over the same restarts, grid and all."""
    from fairpr import OptimizerConfig, PageRankConfig, adapt_gd, fair_gd
    from fairpr.experiment import build_target, load_instance, run_optimizer_method

    edges, labels = toy_files(tmp_path, edges="0 1\n1 0\n1 2\n2 0\n2 3\n3 1\n3 0", labels="0 0\n1 1\n2 1\n3 0")
    groups, cfg, P = load_instance(Path(edges).read_text(), Path(labels).read_text(), False, 0.15)
    target = build_target(0.7, groups.K)
    for opt in (OptimizerConfig(max_iters=12), OptimizerConfig(max_iters=12, delta=0.2, epsilon=0.05)):
        for method, alone in (
            ("fairgd", fair_gd(P, PageRankConfig.uniform(P.n, 0.15), groups, target, opt)),
            ("adaptgd", adapt_gd(P, 0.15, groups, target, opt)),
        ):
            got = run_optimizer_method(method, P, 0.15, groups, target, opt)
            assert got.loss_trace == alone.loss_trace and got.stop_reason == alone.stop_reason
            assert got.alpha == alone.alpha and got.grid == alone.grid
            assert got.final_matrix.data.tobytes() == alone.final_matrix.data.tobytes()


def test_optimize_adaptgd_single_group_byte_identical(tmp_path):
    edges, labels = toy_files(tmp_path, labels="0 0\n1 0\n2 0")
    out = tmp_path / "run"
    code = main([
        "optimize", "--edges", edges, "--labels", labels,
        "--method", "adaptgd", "--phi", "1", "--alpha", "0.5", "--out", str(out),
    ])
    assert code == 0
    assert (out / "revised.tsv").read_bytes() == (out / "original.tsv").read_bytes()


def test_optimize_divergence_exit_code(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    code = main([
        "optimize", "--edges", edges, "--labels", labels,
        "--method", "fairgd", "--phi", "0.9", "--alpha", "1e8",
        "--out", str(tmp_path / "run"),
    ])
    assert code == 3
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["1.5", "0"])
def test_optimize_lead_share_out_of_range_exit_code(tmp_path, capsys, phi):
    # a single --phi is a lead share in (0,1) for every group count; the
    # two-group target (0, 1) is spelled out as --phi 0,1
    code = main(["optimize", *KARATE, "--method", "fairgd", "--phi", phi, "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"lead share must be in (0,1), got {float(phi)}" in capsys.readouterr().err


def test_optimize_alpha_with_alpha_auto_exit_code(tmp_path, capsys):
    # --alpha-auto derives the step instead of --alpha: the pair is ambiguous
    argv = ["optimize", *KARATE, "--method", "fairgd", "--phi", "0.1", "--alpha", "5", "--alpha-auto"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert "give alpha or alpha_auto, not both" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_optimize_tiny_gamma_runs_at_the_zero_safe_step(tmp_path, capsys):
    # K gamma^2 underflows to 0: the smoothness bound is inf, not a ZeroDivisionError
    argv = ["optimize", *KARATE, "--method", "fairgd", "--phi", "0.1", "--gamma", "1e-300", "--max-iters", "2"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["iterations"] == 2


def test_optimize_alpha_auto_refuses_a_zero_step(tmp_path, capsys):
    # K gamma^2 underflows to 0, so C is inf and 2/C is 0.0: no step would be taken
    argv = ["optimize", *KARATE, "--method", "fairgd", "--phi", "0.1", "--gamma", "1e-300", "--alpha-auto"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "alpha_auto derives no step size > 0 at gamma = 1e-300" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_main_builds_the_parser_once(capsys):
    from fairpr import cli

    cli.build_parser.cache_clear()
    assert main(["pagerank", *KARATE]) == 0
    assert main(["pagerank", *KARATE, "--t1", "3"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["optimize", *KARATE, "--method", "fairgd", "--phi", "0.1"], ["sweep", *KARATE]])
def test_optimizer_flag_defaults_are_optimizer_config(argv):
    from fairpr import OptimizerConfig
    from fairpr.cli import _build_opt, build_parser

    assert _build_opt(build_parser().parse_args(argv)) == OptimizerConfig()


def test_optimize_grid_in_report(tmp_path):
    from fairpr import ALPHA_GRID

    argv = ["optimize", *KARATE, "--method", "fairgd", "--phi", "0.1", "--max-iters", "5"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    grid = report["grid"]
    assert [g["alpha"] for g in grid] == list(ALPHA_GRID)
    assert {g["outcome"] for g in grid} == {"max_iters", "diverged"}
    for g in grid:
        assert (g["loss"] is None) == (g["outcome"] == "diverged")
        assert 1 <= g["iterations"] <= 5
    # the winner is the lowest final loss, and its own run is the report's
    finished = [g for g in grid if g["loss"] is not None]
    best = min(finished, key=lambda g: g["loss"])
    assert best["loss"] == report["loss_trace"][-1] and best["iterations"] == report["iterations"]
    assert report["stop_reason"] == best["outcome"]
    # deterministic: a second run writes the same bytes
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "revised.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # a fixed or derived step size is no grid search
    for flag in (["--alpha", "1"], ["--alpha-auto"]):
        assert main([*argv, *flag, "--out", str(tmp_path / "c")]) == 0
        assert "grid" not in json.loads((tmp_path / "c" / "report.json").read_text())


def test_optimize_restricted_respects_box(tmp_path):
    from fairpr import parse_matrix

    edges, labels = toy_files(tmp_path)
    out = tmp_path / "run"
    code = main([
        "optimize", "--edges", edges, "--labels", labels,
        "--method", "fairgd", "--phi", "0.8", "--alpha", "0.5",
        "--delta", "0.1", "--epsilon", "0.1", "--max-iters", "60", "--out", str(out),
    ])
    assert code == 0
    orig = parse_matrix((out / "original.tsv").read_text())
    revised = parse_matrix((out / "revised.tsv").read_text())
    lo = np.maximum(0.0, 0.9 * orig.data - 0.1)
    hi = np.minimum(1.0, 1.1 * orig.data + 0.1)
    assert (revised.data >= lo - 1e-12).all()
    assert (revised.data <= hi + 1e-12).all()


def test_baseline_and_evaluate_flow(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    out = tmp_path / "base"
    assert main([
        "baseline", "--edges", edges, "--labels", labels,
        "--method", "lfpr_n", "--phi", "0.3", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = main([
        "evaluate", "--original", str(out / "original.tsv"),
        "--revised", str(out / "revised.tsv"),
        "--labels", labels, "--phi", "0.3",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "pattern_extended:" in text
    assert "loss:" in text


def test_baseline_pattern_flag_matches_evaluate(tmp_path, capsys):
    # vertex 3 has no group-0 neighbor, but its group-0 share is 0: lfpr_n adds no entry
    edges, labels = toy_files(
        tmp_path, edges="0 1\n1 0\n1 2\n2 0\n2 3\n3 2\n0 3", labels="0 0\n1 0\n2 1\n3 1"
    )
    out = tmp_path / "base"
    assert main(["baseline", "--edges", edges, "--labels", labels,
                 "--method", "lfpr_n", "--phi", "0,1", "--out", str(out)]) == 0
    assert "pattern_extended: false" in capsys.readouterr().out
    assert main(["evaluate", "--original", str(out / "original.tsv"), "--revised", str(out / "revised.tsv"),
                 "--labels", labels, "--phi", "0,1"]) == 0
    assert "pattern_extended: false" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["lfpr_n", "lfpr_u"])
def test_baseline_writes_sink_vector_once(tmp_path, capsys, method):
    # vertices 3 and 4 are sinks: their rows stand for the fair sink vector
    edges, labels = toy_files(tmp_path, edges="0 1\n0 2\n1 0\n2 3\n0 4", labels="0 0\n1 0\n2 1\n3 1\n4 0")
    out = tmp_path / "base"
    assert main(["baseline", "--edges", edges, "--labels", labels,
                 "--method", method, "--phi", "0.3", "--out", str(out)]) == 0
    text = (out / "revised.tsv").read_text()
    assert "# sink\t3\n# sink\t4\n" in text and text.count("# sink_row\t") == 5
    assert not any(line.startswith(("3\t", "4\t")) for line in text.splitlines())
    capsys.readouterr()
    assert main(["evaluate", "--original", str(out / "original.tsv"), "--revised", str(out / "revised.tsv"),
                 "--labels", labels, "--phi", "0.3"]) == 0
    assert "loss:" in capsys.readouterr().out


def test_evaluate_rejects_differing_sink_rows(tmp_path, capsys):
    _, labels = toy_files(tmp_path)
    original = tmp_path / "original.tsv"
    original.write_text("# n\t3\n# sink\t2\n# sink_row\t0\t0.5\n# sink_row\t1\t0.5\n0\t1\t1\n1\t0\t1\n")
    revised = tmp_path / "revised.tsv"
    # sink row 2 is spelled out in entry lines, here not even as the '# sink_row' vector: a '# sink' row has none
    revised.write_text("# n\t3\n# sink\t2\n# sink_row\t0\t0.5\n# sink_row\t1\t0.5\n"
                       "0\t1\t1\n1\t0\t1\n2\t0\t0.25\n2\t1\t0.75\n")
    code = main(["evaluate", "--original", str(original), "--revised", str(revised), "--labels", labels, "--phi", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "sink row 2 has entry lines" in err and "Traceback" not in err


def test_evaluate_identity_metrics(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    out = tmp_path / "base"
    main(["baseline", "--edges", edges, "--labels", labels,
          "--method", "fairwalk", "--phi", "0.5", "--out", str(out)])
    capsys.readouterr()
    code = main([
        "evaluate", "--original", str(out / "original.tsv"),
        "--revised", str(out / "original.tsv"),
        "--labels", labels, "--phi", "0.5",
    ])
    assert code == 0
    lines = dict(
        line.split(":", 1) for line in capsys.readouterr().out.splitlines() if ":" in line
    )
    assert float(lines["delta_p"]) == 0.0
    assert float(lines["rho_bar"]) == 1.0
    assert lines["pattern_extended"].strip() == "false"


def test_evaluate_dimension_mismatch(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    out1 = tmp_path / "a"
    main(["baseline", "--edges", edges, "--labels", labels,
          "--method", "fairwalk", "--phi", "0.5", "--out", str(out1)])
    (tmp_path / "sub").mkdir(exist_ok=True)
    e2, l2 = toy_files(tmp_path / "sub", edges="0 1\n1 0", labels="0 0\n1 1")
    out2 = tmp_path / "b"
    main(["baseline", "--edges", e2, "--labels", l2,
          "--method", "fairwalk", "--phi", "0.5", "--out", str(out2)])
    code = main([
        "evaluate", "--original", str(out1 / "original.tsv"),
        "--revised", str(out2 / "original.tsv"),
        "--labels", labels, "--phi", "0.5",
    ])
    assert code == 2


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_sweep_row_count_and_reasons(tmp_path):
    edges, labels = toy_files(tmp_path)
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--edges", edges, "--labels", labels,
        "--methods", "fairgd,fairwalk,lfpr_n",
        "--phi", "0.3,0.6", "--alpha", "0.5", "--max-iters", "40",
        "--out", str(out),
    ])
    assert code == 0
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == (
        "dataset,method,phi,loss,loss_group_adapted,delta_p,rho_bar,"
        "rho_tilde,iterations,stop_reason,wall_time_ms,reason"
    )
    rows = read_rows(out / "results.csv")
    assert len(rows) == 6  # 3 methods x 2 phis
    fairgd = [r for r in rows if r["method"] == "fairgd"]
    assert all(r["loss"] != "" for r in fairgd)
    # crosswalk is not a method: naming it is bad input
    assert main([
        "sweep", "--edges", edges, "--labels", labels,
        "--methods", "fairgd,fairwalk,lfpr_n,crosswalk",
        "--phi", "0.3", "--alpha", "0.5", "--out", str(tmp_path / "cw"),
    ]) == 2


def test_sweep_unsupported_k_reason(tmp_path):
    edges, labels = toy_files(
        tmp_path, edges="0 1\n1 2\n2 0", labels="0 0\n1 1\n2 2"
    )
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--edges", edges, "--labels", labels,
        "--methods", "lfpr_n", "--phi", "0.3", "--alpha", "0.5", "--out", str(out),
    ]) == 0
    rows = read_rows(out / "results.csv")
    assert len(rows) == 1 and "unsupported K" in rows[0]["reason"]


def test_sweep_deterministic_and_parallel_equivalent(tmp_path):
    edges, labels = toy_files(tmp_path)
    outs = []
    for jobs, name in (("1", "s1"), ("1", "s2"), ("2", "s3")):
        out = tmp_path / name
        main([
            "sweep", "--edges", edges, "--labels", labels,
            "--methods", "fairgd,fairwalk", "--phi", "0.3,0.7",
            "--alpha", "0.5", "--max-iters", "30", "--jobs", jobs, "--out", str(out),
        ])
        rows = read_rows(out / "results.csv")
        for r in rows:
            r.pop("wall_time_ms")
        outs.append(rows)
    assert outs[0] == outs[1] == outs[2]


def test_sweep_cell_matches_standalone(tmp_path):
    from fairpr.experiment import ExperimentSpec, load_instance, run_cell

    edges, labels = toy_files(tmp_path)
    out = tmp_path / "sweep"
    main([
        "sweep", "--edges", edges, "--labels", labels,
        "--methods", "fairwalk,fairgd", "--phi", "0.4", "--out", str(out),
    ])
    rows = {r["method"]: r for r in read_rows(out / "results.csv")}
    groups, _, P = load_instance(Path(edges).read_text(), Path(labels).read_text(), False, 0.15)
    cell = run_cell(ExperimentSpec(edges, labels), groups, P, "fairwalk", 0.4)
    assert f"{cell.loss:.6g}" == rows["fairwalk"]["loss"]
    assert f"{cell.delta_p:.6g}" == rows["fairwalk"]["delta_p"]
    cell = run_cell(ExperimentSpec(edges, labels), groups, P, "fairgd", 0.4)
    assert cell.stop_reason in ("kappa", "max_iters")
    assert (str(cell.iterations), cell.stop_reason) == (rows["fairgd"]["iterations"], rows["fairgd"]["stop_reason"])


def test_run_cell_method_name_sets_the_box(tmp_path, monkeypatch):
    """A *_restricted name gets a 0.1/0.1 box when none is set and keeps a
    set one; a plain name drops it. The optimizer sees the plain name."""
    from fairpr import OptimizerConfig, experiment

    seen = []

    def record(method, P, gamma, groups, targets, opt):
        seen.append((method, opt.delta, opt.epsilon))
        raise RuntimeError("recorded")

    monkeypatch.setattr(experiment, "run_optimizer_stack", record)
    edges, labels = toy_files(tmp_path)
    groups, _, P = experiment.load_instance(Path(edges).read_text(), Path(labels).read_text(), False, 0.15)
    boxed = OptimizerConfig(delta=0.2, epsilon=0.05)
    for method, opt in [
        ("fairgd_restricted", OptimizerConfig()),
        ("adaptgd_restricted", boxed),
        ("fairgd", boxed),
        ("adaptgd", OptimizerConfig()),
    ]:
        row = experiment.run_cell(experiment.ExperimentSpec(edges, labels, optimizer=opt), groups, P, method, 0.4)
        assert row.reason == "error: recorded"
    assert seen == [
        ("fairgd", 0.1, 0.1),
        ("adaptgd", 0.2, 0.05),
        ("fairgd", None, None),
        ("adaptgd", None, None),
    ]


def test_sweep_solves_the_original_once(monkeypatch):
    """The sweep solves the unchanged original's PageRank once, before its
    cells, and every row is bitwise what the cell gives with its own solve."""
    import dataclasses

    from fairpr import experiment

    edges, labels = str(DATA_DIR / "karate_edges.txt"), str(DATA_DIR / "karate_labels.txt")
    spec = experiment.ExperimentSpec(
        edges, labels, undirected=True, methods=("fairwalk", "lfpr_n", "fairgd"), phi_grid=(0.2, 0.3),
        optimizer=experiment.OptimizerConfig(max_iters=5),
    )
    loaded, solved = [], []
    load_instance, pagerank_power = experiment.load_instance, experiment.pagerank_power

    def loading(*args):
        loaded.append(load_instance(*args))
        return loaded[-1]

    def solving(M, *args, **kwargs):
        solved.append(M)
        return pagerank_power(M, *args, **kwargs)

    monkeypatch.setattr(experiment, "load_instance", loading)
    monkeypatch.setattr(experiment, "pagerank_power", solving)
    rows = experiment.run_sweep(spec)
    monkeypatch.undo()
    groups, _, P = loaded[0]
    assert [M is P for M in solved] == [True] + [False] * len(rows)
    for row in rows:
        alone = experiment.run_cell(spec, groups, P, row.method, row.phi)
        assert dataclasses.replace(alone, wall_time_ms=None) == dataclasses.replace(row, wall_time_ms=None)


def test_sweep_config_file_with_flag_override(tmp_path):
    edges, labels = toy_files(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"edges={edges}\nlabels={labels}\nmethods=fairwalk\nphi=0.2\nout={tmp_path/'c1'}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "c1" / "results.csv").exists()
    # flag overrides the config file's phi
    assert main(["sweep", "--config", str(cfg), "--phi", "0.2,0.8", "--out", str(tmp_path / "c2")]) == 0
    assert len(read_rows(tmp_path / "c2" / "results.csv")) == 2


@pytest.mark.parametrize("key", ["bogus", "config"])
def test_sweep_config_unknown_key(tmp_path, capsys, key):
    edges, labels = toy_files(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"edges={edges}\nlabels={labels}\n{key}=x\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_sweep_config_undirected_matches_flag(tmp_path):
    edges, labels = toy_files(tmp_path, edges="0 1\n1 2\n2 0\n0 2")
    run = ["--methods", "fairgd,lfpr_n", "--phi", "0.3", "--alpha", "0.5", "--max-iters", "20"]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"edges={edges}\nlabels={labels}\nundirected=true\n")
    outs = []
    for argv, name in (
        (["--config", str(cfg)], "file"),
        (["--edges", edges, "--labels", labels, "--undirected"], "flag"),
        (["--edges", edges, "--labels", labels], "directed"),
    ):
        assert main(["sweep", *argv, *run, "--out", str(tmp_path / name)]) == 0
        rows = read_rows(tmp_path / name / "results.csv")
        for r in rows:
            r.pop("wall_time_ms")
        outs.append(rows)
    assert outs[0] == outs[1] != outs[2]


def test_sweep_flag_overrides_config_number(tmp_path):
    edges, labels = toy_files(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"edges={edges}\nlabels={labels}\nmethods=fairgd\nphi=0.9\nalpha=0.5\nmax_iters=2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert read_rows(tmp_path / "a" / "results.csv")[0]["iterations"] == "2"
    assert main(["sweep", "--config", str(cfg), "--max-iters", "3", "--out", str(tmp_path / "b")]) == 0
    assert read_rows(tmp_path / "b" / "results.csv")[0]["iterations"] == "3"


@pytest.mark.parametrize(
    "edges,labels,fragment",
    [("0 1\n1 0\n1 x", "0 0\n1 1", "line 3"), ("0 1\n1 2\n2 0", "0 0\n1 1", "vertex 2")],
)
def test_sweep_bad_input_exits_2(tmp_path, capsys, edges, labels, fragment):
    e, l = toy_files(tmp_path, edges=edges, labels=labels)
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--edges", e, "--labels", l,
        "--methods", "fairwalk,lfpr_n", "--phi", "0.3,0.6", "--out", str(out),
    ])
    assert code == 2
    assert fragment in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_sweep_records_a_diverged_cell_and_goes_on(tmp_path, capsys):
    """A cell whose every descent diverges keeps its row, with empty metrics
    and the reason; the sweep exits 0 and writes the other cells."""
    out = tmp_path / "sweep"
    code = main([
        "sweep", *KARATE, "--methods", "fairgd,fairwalk", "--phi", "0.1",
        "--alpha", "1e4", "--max-iters", "5", "--out", str(out),
    ])
    assert code == 0
    assert "(2 rows, 1 without metrics)" in capsys.readouterr().out
    rows = {r["method"]: r for r in read_rows(out / "results.csv")}
    assert set(rows) == {"fairgd", "fairwalk"}
    diverged = rows["fairgd"]
    assert diverged["reason"].startswith("diverged: diverged at iteration 1: ")
    empty = ("loss", "loss_group_adapted", "delta_p", "rho_bar", "rho_tilde", "iterations", "stop_reason")
    assert all(diverged[col] == "" for col in empty)
    assert rows["fairwalk"]["loss"] and not rows["fairwalk"]["reason"]


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (
            ["optimize", *KARATE, "--method", "fairgd", "--phi", "0.1,0.2,0.7"],
            None,
            "error: --phi needs 1 or 2 comma-separated values, got 3",
        ),
        (["sweep"], "methods=fairwalk\nphi 0.2\n", "error: config line 2: expected key=value, got 'phi 0.2'"),
        (
            ["sweep", "--labels", str(DATA_DIR / "karate_labels.txt")],
            None,
            "error: sweep needs --edges and --labels (flags or config file)",
        ),
    ],
    ids=["three-phis-two-groups", "config-line-without-equals", "sweep-without-edges"],
)
def test_bad_command_input_exits_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "phi_grid,fragment",
    [((), "^phi grid must be non-empty$"), ((0.5, 1.0), r"^phi values must be in \(0,1\), got 1.0$")],
    ids=["empty", "phi-of-one"],
)
def test_experiment_spec_refuses_bad_phi_grids(phi_grid, fragment):
    from fairpr.experiment import ExperimentSpec

    with pytest.raises(ValueError, match=fragment):
        ExperimentSpec("edges.txt", "labels.txt", phi_grid=phi_grid)


def test_sweep_jobs_capped_at_cell_count(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    asked = []

    class SerialPool:
        """Records the worker count it is asked for and maps in this process."""

        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    edges, labels = toy_files(tmp_path)
    run = ["sweep", "--edges", edges, "--labels", labels, "--methods", "fairwalk", "--phi", "0.3,0.7"]
    assert main([*run, "--jobs", "64", "--out", str(tmp_path / "a")]) == 0
    assert asked == [2]
    assert len(read_rows(tmp_path / "a" / "results.csv")) == 2
    assert main([*run, "--jobs", "0", "--out", str(tmp_path / "b")]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert asked == [2]


def _rows_without_times(out):
    rows = read_rows(out / "results.csv")
    for r in rows:
        assert float(r.pop("wall_time_ms")) >= 0.0
    return rows


def test_sweep_stacks_give_the_same_rows_for_any_jobs(tmp_path):
    """Each optimizer method's phis descend as one stack, or as at most
    --jobs stacks of contiguous phis: the rows, but for wall_time_ms, are
    the same for 1, 2 and 3 jobs, and each is its cell run alone."""
    from fairpr.experiment import ExperimentSpec, OptimizerConfig, load_instance, run_cell

    methods, phis = ("fairgd", "fairgd_restricted", "adaptgd", "fairwalk"), (0.1, 0.2, 0.3)
    outs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        assert main([
            "sweep", *KARATE, "--methods", ",".join(methods), "--phi", ",".join(map(str, phis)),
            "--max-iters", "5", "--jobs", jobs, "--out", str(out),
        ]) == 0
        outs.append(_rows_without_times(out))
    assert outs[0] == outs[1] == outs[2]
    assert [(r["method"], float(r["phi"])) for r in outs[0]] == [(m, phi) for m in sorted(methods) for phi in phis]
    assert all(r["loss"] and r["rho_bar"] for r in outs[0])
    groups, _, P = load_instance(
        (DATA_DIR / "karate_edges.txt").read_text(), (DATA_DIR / "karate_labels.txt").read_text(), True, 0.15
    )
    spec = ExperimentSpec(KARATE[1], KARATE[3], undirected=True, optimizer=OptimizerConfig(max_iters=5))
    for r in outs[0]:
        if r["method"] != "fairwalk":
            alone = run_cell(spec, groups, P, r["method"], float(r["phi"]))
            assert (f"{alone.loss:.6g}", str(alone.iterations), alone.stop_reason) == (
                r["loss"], r["iterations"], r["stop_reason"]
            )


def test_sweep_stack_failure_is_its_cells_reason_only(tmp_path, monkeypatch):
    """An exception raised inside one stack's descent becomes the reason of
    that stack's cells; the other stack of the method and the baseline's
    cells keep their metrics."""
    import concurrent.futures

    import fairpr.optimizer

    class SerialPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    descend = fairpr.optimizer._descend

    def failing(P, restarts, groups, targets, opt):
        if any(t.phi[0] == 0.2 for t in targets):
            raise RuntimeError("stack failed")
        return descend(P, restarts, groups, targets, opt)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(fairpr.optimizer, "_descend", failing)
    out = tmp_path / "sweep"
    assert main([
        "sweep", *KARATE, "--methods", "fairgd,fairwalk", "--phi", "0.1,0.2,0.3",
        "--max-iters", "5", "--jobs", "2", "--out", str(out),
    ]) == 0
    rows = {(r["method"], r["phi"]): r for r in read_rows(out / "results.csv")}
    # two stacks per method: (0.1,) and (0.2, 0.3)
    assert rows["fairgd", "0.1"]["loss"] and not rows["fairgd", "0.1"]["reason"]
    for phi in ("0.2", "0.3"):
        assert rows["fairgd", phi]["reason"] == "error: stack failed"
        assert rows["fairgd", phi]["loss"] == rows["fairgd", phi]["iterations"] == ""
    assert all(rows["fairwalk", phi]["loss"] for phi in ("0.1", "0.2", "0.3"))


def test_sweep_duplicate_phis_give_one_row_each(tmp_path):
    out = tmp_path / "sweep"
    assert main([
        "sweep", *KARATE, "--methods", "fairgd,fairwalk", "--phi", "0.2,0.3,0.2",
        "--max-iters", "5", "--out", str(out),
    ]) == 0
    rows = _rows_without_times(out)
    assert [(r["method"], r["phi"]) for r in rows] == [
        (m, phi) for m in ("fairgd", "fairwalk") for phi in ("0.2", "0.2", "0.3")
    ]
    assert rows[0] == rows[1] and rows[3] == rows[4]
    assert rows[0]["loss"] and rows[0] != rows[2]


def test_evaluate_loss_is_the_plain_loss(karate):
    from conftest import random_sinky_instance
    from fairpr import fairwalk, loss_fair
    from fairpr.experiment import EVAL_T1, EVAL_TOL, build_target, evaluate_matrices

    rng = np.random.default_rng(3)
    for _, groups, cfg, P in (karate, random_sinky_instance(rng, 40, 2)):
        target = build_target(0.3, groups.K)
        revised = fairwalk(P, groups, target).matrix
        for new in (P, revised):
            bundle = evaluate_matrices(P, new, cfg.gamma, groups, target)[0]
            assert bundle.loss == loss_fair(new, cfg, groups, target, t1=EVAL_T1, tol=EVAL_TOL)


def test_sweep_three_group_targets(tmp_path):
    # lead share phi expands to (phi, (1-phi)/2, (1-phi)/2) for K=3
    edges = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n1 4\n2 5"
    labels = "0 0\n1 0\n2 1\n3 1\n4 2\n5 2"
    e, l = toy_files(tmp_path, edges=edges, labels=labels)
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--edges", e, "--labels", l,
        "--methods", "fairgd,fairwalk", "--phi", "0.6",
        "--alpha", "0.5", "--max-iters", "60", "--out", str(out),
    ]) == 0
    rows = read_rows(out / "results.csv")
    assert len(rows) == 2
    assert all(r["loss"] != "" for r in rows)
    fairgd = next(r for r in rows if r["method"] == "fairgd")
    assert float(fairgd["loss"]) < 0.3


def test_pagerank_dump_vector(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    dump = tmp_path / "p.tsv"
    assert main(["pagerank", "--edges", edges, "--labels", labels, "--dump", str(dump)]) == 0
    values = [float(line.split("\t")[1]) for line in dump.read_text().splitlines()]
    assert len(values) == 3
    assert abs(sum(values) - 1.0) <= 1e-10


def test_pagerank_dump_bytes_match_per_vertex_format(tmp_path, karate):
    # the block formatter writes what one f-string per vertex wrote
    from fairpr import pagerank_power

    _, _, cfg, P = karate
    dump = tmp_path / "p.tsv"
    assert main(["pagerank", *KARATE, "--dump", str(dump)]) == 0
    p = pagerank_power(P, cfg, t1=100, tol=1e-13)
    assert dump.read_text() == "".join(f"{i}\t{x:.17g}\n" for i, x in enumerate(p))


def test_sweep_rejects_unknown_method(tmp_path, capsys):
    edges, labels = toy_files(tmp_path)
    code = main([
        "sweep", "--edges", edges, "--labels", labels,
        "--methods", "bogus", "--phi", "0.5", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header,weight,fragment",
    [("", "nan", "non-finite weight"), ("# sink\t5\n", "1", "line 2: sink row 5 out of range")],
)
def test_evaluate_rejects_bad_revised_file(tmp_path, capsys, header, weight, fragment):
    _, labels = toy_files(tmp_path)
    original = tmp_path / "original.tsv"
    original.write_text("# n\t3\n0\t1\t1\n1\t0\t0.5\n1\t2\t0.5\n2\t0\t1\n")
    revised = tmp_path / "revised.tsv"
    revised.write_text(f"# n\t3\n{header}0\t1\t{weight}\n1\t0\t0.5\n1\t2\t0.5\n2\t0\t1\n")
    code = main([
        "evaluate", "--original", str(original), "--revised", str(revised),
        "--labels", labels, "--phi", "0.5",
    ])
    assert code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--method", "fairgd", "--phi", "0.1", "--kappa", "nan"],
        ["optimize", "--method", "fairgd", "--phi", "0.1", "--delta", "nan", "--epsilon", "0.1"],
        ["optimize", "--method", "fairgd", "--phi", "nan,0.5"],
    ],
)
def test_optimize_rejects_non_finite_input(tmp_path, capsys, argv):
    code = main([*argv, *KARATE, "--alpha", "1", "--max-iters", "3", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_evaluate_rejects_non_finite_phi(tmp_path, capsys):
    _, labels = toy_files(tmp_path)
    original = tmp_path / "original.tsv"
    original.write_text("# n\t3\n0\t1\t1\n1\t0\t0.5\n1\t2\t0.5\n2\t0\t1\n")
    code = main([
        "evaluate", "--original", str(original), "--revised", str(original),
        "--labels", labels, "--phi", "nan,0.5",
    ])
    assert code == 2
    assert "target scores must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vertex,fragment", [(10**15, "vertex 2 has no group label"), (10**20, "does not fit in 64 bits")]
)
def test_pagerank_huge_vertex_id_is_input_error(tmp_path, capsys, vertex, fragment):
    edges, labels = toy_files(tmp_path, edges=f"0 1\n1 0\n0 {vertex}", labels="0 0\n1 1")
    assert main(["pagerank", "--edges", edges, "--labels", labels]) == 2
    assert fragment in capsys.readouterr().err


def test_evaluate_huge_matrix_size_is_input_error(tmp_path, capsys):
    _, labels = toy_files(tmp_path)
    original = tmp_path / "original.tsv"
    original.write_text(f"# n\t{10**15}\n# sink\t5\n0\t1\t1\n1\t0\t0.5\n1\t2\t0.5\n2\t0\t1\n")
    code = main([
        "evaluate", "--original", str(original), "--revised", str(original),
        "--labels", labels, "--phi", "0.5",
    ])
    assert code == 2
    assert "row 3 has no entries" in capsys.readouterr().err


def test_evaluate_huge_dense_part_is_input_error(tmp_path, capsys):
    # 40,000 share lines, each naming a new vector, would ask for a 40,001 x 40,000 dense part
    _, labels = toy_files(tmp_path)
    original = tmp_path / "original.tsv"
    shares = "".join(f"# share\t{i}\t{i + 1}\t1\n" for i in range(40000))
    original.write_text(f"# n\t40000\n{shares}0\t1\t1\n")
    code = main([
        "evaluate", "--original", str(original), "--revised", str(original),
        "--labels", labels, "--phi", "0.5",
    ])
    assert code == 2
    assert "40001 dense vectors of length 40000 are too many" in capsys.readouterr().err
