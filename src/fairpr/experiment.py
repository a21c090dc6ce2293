"""Sweep protocol: run (method, phi) cells over a graph, evaluate the metric
bundle, and assemble a deterministic CSV. An optimizer method descends its
phis' targets in lockstep stacks, each target over its own step-size grid
and as many targets per stack as fit in a fixed count of weight entries
(``optimizer.descend_targets``), and evaluates each cell from its target's
report; a baseline runs cell by cell. ``optimize`` is the one-target case."""

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
from .loss import _group_restarts, _mean_loss, loss_from_scores
from .metrics import MetricBundle, UndefinedCoefficientError, aligned, delta_p, rho_bar, rho_tilde
from .optimizer import DivergedError, OptimizerConfig, descend_targets, target_stacks
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


# kept as a function: perfbench/tracing.py wraps it by name and derives grid_useful_ratio from its
# span; no fairpr path calls it, since the descent picks each target's step size itself
def tune_step_size(run, opt: OptimizerConfig):
    """Grid-search one target's step size: ``run`` (fair_gd or adapt_gd
    bound to its instance and target) is called once with ``opt``, whose
    step size is unset, so it runs the whole ALPHA_GRID in lockstep. Returns
    (the step size with the lowest final loss, its report); raises
    DivergedError when all diverge."""
    report = run(opt)
    return report.alpha, report


def run_optimizer_stack(method, P, gamma, groups, targets, opt: OptimizerConfig):
    """Run ``method`` ("fairgd" or "adaptgd") with ``opt`` as given for
    every target in lockstep (``optimizer.descend_targets``), grid-searching
    alpha when unset: each target's report, or the DivergedError of a
    target whose every step size diverged."""
    restarts = _group_restarts(groups, gamma) if method == "adaptgd" else [PageRankConfig.uniform(P.n, gamma)]
    return descend_targets(P, restarts, groups, targets, opt)


def run_optimizer_method(method, P, gamma, groups, target, opt: OptimizerConfig):
    """``run_optimizer_stack`` for one target; raises its DivergedError."""
    (pick,) = run_optimizer_stack(method, P, gamma, groups, [target], opt)
    if isinstance(pick, DivergedError):
        raise pick
    return pick


def evaluate_matrices(P_orig, P_new, gamma, groups, target, p_orig=None):
    """(MetricBundle, rho_tilde reason, revised group scores) for a revised
    matrix against the original. ``loss_group_adapted`` is the mean loss
    over the K restarts inside each group; every other number is under the
    uniform restart vector. The revised matrix's uniform and group restarts
    are solved in one block. ``delta_p`` and ``rho_tilde`` read both
    matrices' rows as ``metrics.aligned``'s items, shares counted over
    column classes instead of written out, aligned once for both.
    ``p_orig``, when given, is the original's vector as solved here."""
    cfg = PageRankConfig.uniform(P_orig.n, gamma)
    solved = pagerank_power(P_new, [cfg, *_group_restarts(groups, gamma)], t1=EVAL_T1, tol=EVAL_TOL)
    p_new = solved[0]
    all_scores = group_scores(solved, groups)
    scores = all_scores[0]
    loss = loss_from_scores(scores, target.phi)
    loss_g = float(_mean_loss(all_scores[1:], target.phi))
    pair = aligned(P_new, P_orig)
    dp = delta_p(P_new, P_orig, pair)
    p_old = pagerank_power(P_orig, cfg, t1=EVAL_T1, tol=EVAL_TOL) if p_orig is None else p_orig
    rb = rho_bar(p_old, p_new, groups)
    try:
        rt = rho_tilde(P_orig, P_new, pair)
        rt_reason = ""
    except UndefinedCoefficientError as exc:
        rt = None
        rt_reason = f"rho_tilde undefined: {exc}"
    bundle = MetricBundle(loss=loss, loss_group_adapted=loss_g, delta_p=dp, rho_bar=rb, rho_tilde=rt)
    return bundle, rt_reason, scores


def run_cells(spec: ExperimentSpec, groups, P, method: str, phis, p_orig=None) -> list[ResultRow]:
    """The (method, phi) cells of one method over ``phis`` on the sweep's
    loaded instance; ``p_orig`` is the instance's PageRank when the sweep
    has solved it. An optimizer method descends its phis' targets in
    lockstep stacks (``optimizer.target_stacks``), one
    ``run_optimizer_stack`` call each, and evaluates a stack's cells before
    the next stack descends; each cell's ``wall_time_ms`` is an equal share
    of its stack's descent plus its own evaluation. A baseline runs cell by
    cell. A failure is recorded as the reason of the cells it hits, every
    cell of a stack whose descent raised; the sweep goes on."""
    optimizer, opt = method in OPTIMIZER_METHODS, spec.optimizer
    restricted = method.endswith("_restricted")
    if optimizer and restricted != opt.restricted:
        # a *_restricted name sets a 0.1/0.1 box when none is given; a plain name drops the box
        box = 0.1 if restricted else None
        opt = replace(opt, delta=box, epsilon=box)
    rows = []
    for stack in target_stacks(P, phis, opt) if optimizer else [[phi] for phi in phis]:
        started = time.perf_counter()
        picks = [None] * len(stack)  # a baseline's cell runs on its own
        if optimizer:
            try:
                targets = [FairnessTarget.from_lead_share(phi, groups.K) for phi in stack]
                picks = run_optimizer_stack(method.removesuffix("_restricted"), P, spec.gamma, groups, targets, opt)
            except Exception as exc:  # the stack's failure is each of its cells'
                picks = [exc] * len(stack)
        shared = (time.perf_counter() - started) / len(stack)
        rows += [_cell(spec, groups, P, method, phi, pick, p_orig, shared) for phi, pick in zip(stack, picks)]
    return rows


def _cell(spec: ExperimentSpec, groups, P, method: str, phi: float, pick, p_orig, shared: float) -> ResultRow:
    """One cell's row from its optimizer pick (a report or the exception
    its stack raised) or, for a baseline (``pick`` None), from the
    baseline's run here; ``shared`` is the cell's share of its stack's
    descent, in seconds."""
    started = time.perf_counter()
    row = ResultRow(dataset=spec.dataset, method=method, phi=phi)
    try:
        if isinstance(pick, Exception):
            raise pick
        target = FairnessTarget.from_lead_share(phi, groups.K)
        if pick is None:
            # looked up at call time so that replaced module attributes are seen
            revised = getattr(baselines, method)(P, groups, target).matrix
        else:
            revised, row.iterations, row.stop_reason = pick.final_matrix, pick.iterations_run, pick.stop_reason
        bundle, rt_reason, _ = evaluate_matrices(P, revised, spec.gamma, groups, target, p_orig)
        row = replace(row, **asdict(bundle), reason=rt_reason)
    except baselines.UnsupportedGroupCountError as exc:
        row.reason = f"unsupported K: {exc}"
    except DivergedError as exc:
        row.reason = f"diverged: {exc}"
    except Exception as exc:  # per-cell isolation: the sweep must go on
        row.reason = f"error: {exc}"
    row.wall_time_ms = (shared + time.perf_counter() - started) * 1000.0
    return row


# kept as a function: perfbench/tracing.py wraps it by name, though run_sweep calls run_cells
def run_cell(spec: ExperimentSpec, groups, P, method: str, phi: float, p_orig=None) -> ResultRow:
    """One (method, phi) cell: ``run_cells`` over the one phi."""
    return run_cells(spec, groups, P, method, [phi], p_orig)[0]


def _split(phis, parts: int) -> list:
    """``phis`` in at most ``parts`` contiguous groups of near-equal length."""
    k = min(parts, len(phis))
    return [phis[i * len(phis) // k : (i + 1) * len(phis) // k] for i in range(k)]


def run_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Load the instance and solve its PageRank once, then run every
    (method, phi) cell on it; input errors raise before any cell runs.
    Each method's phis run as one ``run_cells`` call, or with ``jobs`` > 1
    as at most ``jobs`` calls over contiguous groups of them, in a pool of
    at most one worker per call."""
    groups, cfg, P = load_instance(
        Path(spec.graph_path).read_text(), Path(spec.labels_path).read_text(), spec.undirected, spec.gamma
    )
    p_orig = pagerank_power(P, cfg, t1=EVAL_T1, tol=EVAL_TOL)  # as evaluate_matrices solves it
    cells = functools.partial(run_cells, spec, groups, P, p_orig=p_orig)
    parts = _split(spec.phi_grid, spec.jobs)
    methods = [m for m in spec.methods for _ in parts]
    phis = [group for _ in spec.methods for group in parts]
    if spec.jobs > 1:
        # a fork-started pool starts every worker at the first submit: no more than one per call
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(spec.jobs, len(phis))) as pool:
            stacks = list(pool.map(cells, methods, phis))
    else:
        stacks = list(map(cells, methods, phis))
    rows = [row for stack in stacks for row in stack]
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
