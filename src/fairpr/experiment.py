"""Sweep protocol: run (method, phi) cells over a graph, tune the step size
per cell (the optimizer runs the step-size grid in lockstep), evaluate the
metric bundle, and assemble a deterministic CSV."""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import io
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import baselines
from .graph import (
    FairnessTarget,
    PageRankConfig,
    build_transition,
    load_graph,
    load_labels,
)
from .loss import loss_from_scores, loss_group_adapted
from .metrics import MetricBundle, UndefinedCoefficientError, delta_p, rho_bar, rho_tilde
from .optimizer import DivergedError, OptimizerConfig, adapt_gd, fair_gd
from .pagerank import group_scores, pagerank_power

OPTIMIZER_METHODS = ("fairgd", "fairgd_restricted", "adaptgd", "adaptgd_restricted")
BASELINE_METHODS = ("fairwalk", "lfpr_n", "lfpr_u")
KNOWN_METHODS = OPTIMIZER_METHODS + BASELINE_METHODS

# Evaluation uses a deeper power iteration than the optimizer defaults so
# reported numbers do not depend on where the solver stopped.
EVAL_T1 = 500
EVAL_TOL = 1e-13


@dataclass
class ExperimentSpec:
    graph_path: str
    labels_path: str
    undirected: bool = False
    gamma: float = 0.15
    phi_grid: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    methods: tuple = ("fairgd", "fairwalk")
    output_dir: str = "."
    dataset: str = "dataset"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    jobs: int = 1

    def __post_init__(self):
        if not self.phi_grid:
            raise ValueError("phi grid must be non-empty")
        for phi in self.phi_grid:
            if not 0.0 < phi < 1.0:
                raise ValueError(f"phi values must be in (0,1), got {phi}")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}; known: {', '.join(KNOWN_METHODS)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass
class ResultRow:
    dataset: str
    method: str
    phi: float
    loss: float | None = None
    loss_group_adapted: float | None = None
    delta_p: float | None = None
    rho_bar: float | None = None
    rho_tilde: float | None = None
    iterations: int | None = None
    stop_reason: str | None = None
    wall_time_ms: float | None = None
    reason: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def load_instance(edges_text: str, labels_text: str, undirected: bool, gamma: float):
    """(groups, uniform restart config, transition matrix) of an edge list
    and a label file."""
    g = load_graph(edges_text, undirected=undirected)
    groups = load_labels(labels_text, g.n)
    cfg = PageRankConfig.uniform(g.n, gamma)
    return groups, cfg, build_transition(g, cfg)


# the target of a lead share phi, (phi, (1-phi)/(K-1), ...); kept by name for perfbench
build_target = FairnessTarget.from_lead_share


# kept as a function: perfbench/tracing.py wraps it by name and derives grid_useful_ratio from its span
def tune_step_size(run, opt: OptimizerConfig):
    """Grid-search the step size: ``run`` (fair_gd or adapt_gd bound to its
    instance) is called once with ``opt``, whose step size is unset, so it
    runs the whole ALPHA_GRID in lockstep. Returns (the step size with the
    lowest final loss, its report); raises DivergedError when all diverge."""
    report = run(opt)
    return report.alpha, report


def run_optimizer_method(method, P, gamma, groups, target, opt: OptimizerConfig):
    """Dispatch one optimizer cell, grid-searching alpha when unset."""
    restricted = method.endswith("_restricted")
    if restricted and not opt.restricted:
        opt = replace(opt, delta=0.1, epsilon=0.1)
    if not restricted and opt.restricted:
        opt = replace(opt, delta=None, epsilon=None)
    if method.startswith("adaptgd"):
        run = functools.partial(adapt_gd, P, gamma, groups, target)
    else:
        run = functools.partial(fair_gd, P, PageRankConfig.uniform(P.n, gamma), groups, target)
    if opt.alpha is None and not opt.alpha_auto:
        return tune_step_size(run, opt)[1]
    return run(opt)


def evaluate_matrices(P_orig, P_new, gamma, groups, target, p_orig=None):
    """(MetricBundle, rho_tilde reason, revised group scores) for a revised
    matrix against the original, all under the uniform restart vector.
    ``p_orig``, when given, is the original's vector as solved here."""
    cfg = PageRankConfig.uniform(P_orig.n, gamma)
    p_new = pagerank_power(P_new, cfg, t1=EVAL_T1, tol=EVAL_TOL)
    scores = group_scores(p_new, groups)
    loss = loss_from_scores(scores, target.phi)
    loss_g = loss_group_adapted(P_new, gamma, groups, target, t1=EVAL_T1, tol=EVAL_TOL)
    dp = delta_p(P_new, P_orig)
    p_old = pagerank_power(P_orig, cfg, t1=EVAL_T1, tol=EVAL_TOL) if p_orig is None else p_orig
    rb = rho_bar(p_old, p_new, groups)
    try:
        rt = rho_tilde(P_orig, P_new)
        rt_reason = ""
    except UndefinedCoefficientError as exc:
        rt = None
        rt_reason = f"rho_tilde undefined: {exc}"
    bundle = MetricBundle(loss=loss, loss_group_adapted=loss_g, delta_p=dp, rho_bar=rb, rho_tilde=rt)
    return bundle, rt_reason, scores


def run_cell(spec: ExperimentSpec, groups, P, method: str, phi: float, p_orig=None) -> ResultRow:
    """One (method, phi) cell on the sweep's loaded instance; ``p_orig`` is
    the instance's PageRank when the sweep has solved it. A failure inside
    the cell is recorded as the row's reason; the sweep goes on."""
    started = time.perf_counter()
    row = ResultRow(dataset=spec.dataset, method=method, phi=phi)
    try:
        target = FairnessTarget.from_lead_share(phi, groups.K)
        if method in BASELINE_METHODS:
            # looked up at call time so that replaced module attributes are seen
            revised = getattr(baselines, method)(P, groups, target).matrix
        else:
            report = run_optimizer_method(method, P, spec.gamma, groups, target, spec.optimizer)
            revised = report.final_matrix
            row.iterations = report.iterations_run
            row.stop_reason = report.stop_reason

        bundle, rt_reason, _ = evaluate_matrices(P, revised, spec.gamma, groups, target, p_orig)
        row = replace(row, **asdict(bundle), reason=rt_reason)
    except baselines.UnsupportedGroupCountError as exc:
        row.reason = f"unsupported K: {exc}"
    except DivergedError as exc:
        row.reason = f"diverged: {exc}"
    except Exception as exc:  # per-cell isolation: the sweep must go on
        row.reason = f"error: {exc}"
    finally:
        row.wall_time_ms = (time.perf_counter() - started) * 1000.0
    return row


def run_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Load the instance and solve its PageRank once, then run every
    (method, phi) cell on it; input errors raise before any cell runs."""
    groups, cfg, P = load_instance(
        Path(spec.graph_path).read_text(), Path(spec.labels_path).read_text(), spec.undirected, spec.gamma
    )
    p_orig = pagerank_power(P, cfg, t1=EVAL_T1, tol=EVAL_TOL)  # as evaluate_matrices solves it
    cell = functools.partial(run_cell, spec, groups, P, p_orig=p_orig)
    methods = [m for m in spec.methods for _ in spec.phi_grid]
    phis = [phi for _ in spec.methods for phi in spec.phi_grid]
    if spec.jobs > 1:
        # a fork-started pool starts every worker at the first submit: no more than one per cell
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(spec.jobs, len(phis))) as pool:
            rows = list(pool.map(cell, methods, phis))
    else:
        rows = list(map(cell, methods, phis))
    rows.sort(key=lambda r: (r.method, r.phi))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_fmt(getattr(r, col)) for col in CSV_COLUMNS])
    return buf.getvalue()
