"""Projected gradient descent over edge weights, with optional per-entry
modification bounds. One loop, ``_descend``, minimizes the mean fairness
loss over a list of restarts: ``fair_gd`` passes its one restart and
``adapt_gd`` the K restarts inside each group.

The loop runs one descent per (target, step size), in lockstep: a fixed
``alpha`` (or 2/C with ``alpha_auto``) is one copy of the pattern per
target, and without either the whole ALPHA_GRID runs for each target, as
stacked copies over one block WalkOperator, each with its own target, warm
starts, stop tests and divergence checks. ``fair_gd`` and ``adapt_gd`` stack
one target; ``descend_targets`` stacks several, as a sweep does with its
phis, as many per stack as fit in STACK_BUDGET weight entries. Every copy
ends bitwise as its target and step size would alone; each target's lowest
final loss wins, ties (within LOSS_TIE_RTOL) going to the earlier step
size. A copy diverges only when a step throws an entry past
ENTRY_CEILING: the projection lands every row on sum 1 to rounding, and the
loss, taken only at projected matrices, stays at most 1."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import FairnessTarget, GroupAssignment, PageRankConfig, TransitionMatrix, WalkOperator, _check_target
from .loss import _group_restarts, _indicators, _mean_loss, _terms, lipschitz_bound
from .pagerank import group_scores, pagerank_power
from .projection import project_rows, row_boxes, stack_boxes

log = logging.getLogger(__name__)

# A step that throws an entry this far out of [0, 1] ends its copy as
# diverged. The projection would land it on the feasible set, but such a
# step is no gradient step: its later terms summed series on a matrix already
# moved far past 1. Without the ceiling, karate's fairgd copies at
# alpha >= 100 stop at a near-vertex matrix (loss 0.62) and alpha 10 wins the
# grid at rho_bar 0.70 instead of 0.84. adaptgd's grid would lose the same
# copies at the same iterations, to non-finite entries.
ENTRY_CEILING = 1e12

ALPHA_GRID = tuple(10.0**k for k in range(-4, 5))
LOSS_TIE_RTOL = 1e-9  # final losses this close, relatively, tie in the grid
# Most weight entries (copies x nnz) in one stack of several targets; a
# target's grid is never split, so a stack holds at least one target. A
# stack's buffers take about 100 bytes per entry (tracemalloc), so this keeps
# a sweep's peak within about 3 MB of one target's. Stacking pays only while
# the per-call bookkeeping outweighs the products, which grow with the
# copies: a 9-phi fairgd sweep of the mind-like graph (1242 entries) ran 8%
# faster in stacks of 2 targets than of 1, and on 5k entries 6% slower.
STACK_BUDGET = 2**15


class DivergedError(RuntimeError):
    """A gradient step threw an entry past ENTRY_CEILING; the step size is
    too large."""

    def __init__(self, iteration: int, safe_alpha: float):
        self.iteration = iteration
        self.safe_alpha = safe_alpha
        super().__init__(
            f"diverged at iteration {iteration}: a step threw an entry past {ENTRY_CEILING:g}; "
            f"try a step size alpha <= {safe_alpha:.6g} (= 2/C)"
        )


@dataclass
class OptimizerConfig:
    """Knobs of the descent loop.

    ``alpha`` is the constant step size; with ``alpha_auto`` it is derived
    as 2/C from the smoothness bound instead, so the two are not given
    together; with neither, the descent runs ALPHA_GRID. ``delta``/``epsilon``
    switch on the restricted (bounded-modification) feasible set.
    """

    alpha: float | None = None
    t1: int = 100
    t2: int = 50
    kappa: float = 1e-8
    max_iters: int = 1000
    delta: float | None = None
    epsilon: float | None = None
    alpha_auto: bool = False
    power_tol: float = 1e-12

    def __post_init__(self):
        # written so that NaN fails each test
        if self.alpha is not None and not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")
        if self.alpha is not None and self.alpha_auto:
            raise ValueError("give alpha or alpha_auto, not both")
        if not 0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.t1 < 1 or self.t2 < 0:
            raise ValueError("t1 must be >= 1 and t2 >= 0")
        if (self.delta is None) != (self.epsilon is None):
            raise ValueError("delta and epsilon must be given together")
        if self.delta is not None and not (0 <= self.delta < math.inf and 0 <= self.epsilon < math.inf):
            raise ValueError("delta and epsilon must be finite and >= 0")

    @property
    def restricted(self) -> bool:
        return self.delta is not None


@dataclass(frozen=True)
class GridPoint:
    """One step size's descent: the loss of the matrix it returned (None when
    it diverged), its steps (for a diverged one, the iteration that diverged)
    and how it stopped: "kappa", "max_iters" or "diverged"."""

    alpha: float
    loss: float | None
    iterations: int
    outcome: str


@dataclass
class OptimizationReport:
    """Outcome of one descent run: the reweighted matrix, the loss after
    0, 1, ... steps (the last is the matrix's), why the descent stopped
    ("kappa" when |dL| <= kappa, "max_iters" after max_iters steps), the step
    size ``alpha`` it took and, in ``grid``, every step size tried with it."""

    final_matrix: TransitionMatrix
    loss_trace: list[float]
    stop_reason: str
    alpha: float | None = None
    grid: list[GridPoint] = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return len(self.loss_trace) - 1

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1]


def _descend(
    P: TransitionMatrix,
    restarts: list[PageRankConfig],
    groups: GroupAssignment,
    targets: list[FairnessTarget],
    opt: OptimizerConfig,
) -> tuple[tuple[float, ...], list[list[OptimizationReport | DivergedError]]]:
    """Descend on the mean fairness loss over the R ``restarts`` once per
    target and step size, all in lockstep; return the step sizes and, per
    target, each step size's report or DivergedError.

    The step sizes are ``opt.alpha``, else 2/C with ``alpha_auto``, else all
    of ALPHA_GRID. Each copy of the pattern (one per target and step size,
    target-major) is a row of one (C, nnz) weight block, with its target's
    (K,) row of phi, and every solve runs on the block's stacked
    WalkOperator, so one product serves all copies and each copy's sequence
    of operations, and so its result, is bitwise that of its run alone.

    Per iteration: refresh every p_l on every copy by one warm-started
    power solve over the restarts' (R, C, n) block, score it once, and
    evaluate the loss at the current feasible matrix; only here does a copy
    stop, so its last loss is its matrix's: "kappa" when |dL| <= kappa,
    "max_iters" after max_iters steps. Then subtract, one after another,
    each restart l's ``loss._terms`` at that p_l and its scores, scaled by
    the copies' step sizes: each term's y_k is summed at the current
    unprojected matrix. A copy diverges, and leaves the stack, only when an
    entry is past ENTRY_CEILING (or not finite) after all the terms. Project
    every copy once per iteration, which lands each row on sum 1 to
    rounding; rows without edges never change. The series' starts (group
    k's indicator on every copy) and the projection's row ids and boxes,
    tiled over the copies of one piece, are built once per descent; the
    starts, targets and scores shrink with the stack, and the tiles serve
    any smaller stack by a prefix. The loss needs no check: it is only
    evaluated at projected matrices, where it is at most 1. No target, a
    target of other than K scores, or a matrix in which a row with edges
    carries a share (``has_spreads``) raises ValueError before any work, as
    does ``alpha_auto`` when 2/C is not > 0 (C is inf for gamma below about
    1e-162), which would take no step.
    """
    if P.has_spreads:
        raise ValueError("the descent reweights edges only; a matrix with group spreads cannot be descended on")
    if not targets:
        raise ValueError("no target to descend for")
    for target in targets:
        _check_target(groups, target)
    gamma = restarts[0].gamma
    K = groups.K
    safe_alpha = 2.0 / lipschitz_bound(P.n, K, gamma)
    if opt.alpha_auto and not safe_alpha > 0:
        raise ValueError(f"alpha_auto derives no step size > 0 at gamma = {gamma!r}: 2/C is {safe_alpha!r}")
    alphas = (opt.alpha,) if opt.alpha is not None else (safe_alpha,) if opt.alpha_auto else ALPHA_GRID
    rows, box = row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        # the loss is identically zero on the feasible set: nothing to do
        return alphas, [[OptimizationReport(P.copy(), [0.0], "kappa", a) for a in alphas] for _ in targets]

    A = len(alphas)
    n, C = P.n, len(targets) * A
    ids = np.arange(C)  # copy i is target i // A at step size i % A
    step_sizes = np.tile(alphas, len(targets))
    phi = np.repeat([t.phi for t in targets], A, axis=0)  # (C, K): each copy's target
    W = np.tile(P.data, (C, 1))
    op = WalkOperator(P, W)
    warm = np.full((len(restarts), C, n), 1.0 / n)  # each restart's vector on each copy
    starts = np.repeat(_indicators(groups)[:, None], C, axis=1)  # (K, C, n): group k's series start per copy
    boxes = stack_boxes(rows, box.lower, box.upper, C)  # a fewer-copy stack projects with a prefix of them
    loss_prev = np.full(C, math.inf)
    traces: list[list[float]] = [[] for _ in range(C)]
    outcomes: list = [None] * C

    def keep(mask):
        """Drop the copies outside ``mask`` from the stack."""
        nonlocal ids, step_sizes, phi, W, op, warm, scores, starts, loss_prev
        ids, step_sizes, phi, W, loss_prev = ids[mask], step_sizes[mask], phi[mask], W[mask], loss_prev[mask]
        warm, scores, starts = warm[:, mask], scores[:, mask], starts[:, mask]
        op = WalkOperator(P, W)

    for it in range(opt.max_iters + 1):
        warm = pagerank_power(op, restarts, t1=opt.t1, tol=opt.power_tol, start=warm)
        scores = group_scores(warm, groups)  # (R, C, K), read by the losses and by every term
        # as (copies, R, K), contiguous as the reductions read them
        losses = _mean_loss(np.ascontiguousarray(scores.swapaxes(0, 1)), phi)
        for i, loss in zip(ids, losses.tolist()):
            traces[i].append(loss)
        last = it == opt.max_iters
        done = last | (np.abs(losses - loss_prev) <= opt.kappa)
        loss_prev = losses
        if any(done.tolist()):
            reason = "max_iters" if last else "kappa"
            for j, i in zip(np.flatnonzero(done), ids[done]):
                outcomes[i] = OptimizationReport(P.with_data(W[j].copy()), traces[i], reason, alphas[i % A])
            keep(~done)
        if not len(ids):
            break
        log.debug("descent iter=%d losses=%s", it + 1, loss_prev)

        with np.errstate(over="ignore", invalid="ignore"):
            for p, s in zip(warm, scores):
                for coef, step in _terms(op, p, s, step_sizes, restarts, phi, opt.t2, rows, P.indices, starts):
                    if not coef.all():
                        step[coef == 0.0] = 0.0  # x - 0.0 is x: those copies keep their weights bitwise
                    W -= step
        ok = ((W <= ENTRY_CEILING) & (W >= -ENTRY_CEILING)).all(axis=1)  # False for nan too
        if not all(ok.tolist()):  # plain bools: numpy's all/any cost more on a few copies
            for i in ids[~ok]:
                outcomes[i] = DivergedError(it + 1, safe_alpha)
            keep(ok)
        project_rows(W, *boxes)
    return alphas, [outcomes[a : a + A] for a in range(0, C, A)]


def _best(alphas, outcomes) -> OptimizationReport | DivergedError:
    """One target's report with the lowest final loss, ties (within
    LOSS_TIE_RTOL) going to the earlier step size, with every step size's
    outcome in its ``grid``; the last DivergedError when every step size
    diverged."""
    grid = [
        GridPoint(a, None, o.iteration, "diverged")
        if isinstance(o, DivergedError)
        else GridPoint(a, o.final_loss, o.iterations_run, o.stop_reason)
        for a, o in zip(alphas, outcomes)
    ]
    reports = [o for o in outcomes if not isinstance(o, DivergedError)]
    if not reports:
        return outcomes[-1]
    low = min(r.final_loss for r in reports)
    best = next(r for r in reports if r.final_loss <= low * (1.0 + LOSS_TIE_RTOL))
    best.grid = grid
    if len(alphas) > 1:
        log.debug("grid pick alpha=%g final_loss=%.6e", best.alpha, best.final_loss)
    return best


def target_stacks(P: TransitionMatrix, items, opt: OptimizerConfig) -> list:
    """``items``, one per target, in consecutive stacks of as many as fit in
    STACK_BUDGET weight entries (copies x ``P.nnz``), at least one each."""
    grid = 1 if opt.alpha is not None or opt.alpha_auto else len(ALPHA_GRID)
    per = max(1, STACK_BUDGET // (grid * max(P.nnz, 1)))  # a pattern of sinks alone stores no entry
    return [items[a : a + per] for a in range(0, len(items), per)]


def descend_targets(
    P: TransitionMatrix,
    restarts: list[PageRankConfig],
    groups: GroupAssignment,
    targets: list[FairnessTarget],
    opt: OptimizerConfig,
) -> list[OptimizationReport | DivergedError]:
    """Descend for every target over the same restarts, one lockstep stack
    (``_descend``) per ``target_stacks`` group, and pick each target's
    report from its own copies: the lowest final loss, or the DivergedError
    of a target whose every step size diverged, while the other targets
    still report."""
    if not targets:
        raise ValueError("no target to descend for")
    picks = []
    for stack in target_stacks(P, targets, opt):
        alphas, outcomes = _descend(P, restarts, groups, stack, opt)
        picks += [_best(alphas, o) for o in outcomes]
    return picks


def _descend_one(P, restarts, groups, target, opt) -> OptimizationReport:
    """``descend_targets`` for one target; raises its DivergedError."""
    (pick,) = descend_targets(P, restarts, groups, [target], opt)
    if isinstance(pick, DivergedError):
        raise pick
    return pick


def fair_gd(
    P: TransitionMatrix, cfg: PageRankConfig, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the fairness loss over the feasible edge reweightings: the
    descent over the single restart ``cfg``. Without ``opt.alpha`` or
    ``alpha_auto`` it runs every ALPHA_GRID step size in lockstep and reports
    the lowest final loss."""
    return _descend_one(P, [cfg], groups, target, opt)


def adapt_gd(
    P: TransitionMatrix, gamma: float, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the group-adapted loss: the descent over the K restarts
    inside each group, with fair_gd's choice of step sizes."""
    return _descend_one(P, _group_restarts(groups, gamma), groups, target, opt)
