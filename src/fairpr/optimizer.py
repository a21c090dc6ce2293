"""Projected gradient descent over edge weights, with optional per-entry
modification bounds. One loop, ``_descend``, minimizes the mean fairness
loss over a list of restarts: ``fair_gd`` passes its one restart and
``adapt_gd`` the K restarts inside each group.

The loop runs one descent per step size, in lockstep: a fixed ``alpha`` (or
2/C with ``alpha_auto``) is one copy of the pattern, and without either the
whole ALPHA_GRID runs as C stacked copies over one block WalkOperator, each
with its own warm starts, stop tests and divergence checks. Every copy ends
bitwise as its step size would alone; the lowest final loss wins, ties going
to the earlier step size."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ROW_SUM_TOL,
    FairnessTarget,
    GroupAssignment,
    PageRankConfig,
    TransitionMatrix,
    WalkOperator,
)
from .loss import _group_restarts, _mean_loss, _terms, lipschitz_bound
from .pagerank import group_scores, pagerank_power
from .projection import project_rows, row_boxes

log = logging.getLogger(__name__)

# Loss is provably <= 1 on the feasible set; anything above is divergence.
LOSS_CEILING = 1.0 + 1e-9
# A gradient step that throws entries this far out of [0,1] cannot recover
# meaningful precision through the projection; treat it as divergence.
ENTRY_CEILING = 1e12

ALPHA_GRID = tuple(10.0**k for k in range(-4, 5))


class DivergedError(RuntimeError):
    """Gradient step blew the loss up; the step size is too large."""

    def __init__(self, iteration: int, loss: float, safe_alpha: float):
        self.iteration = iteration
        self.loss = loss
        self.safe_alpha = safe_alpha
        super().__init__(
            f"loss {loss!r} at iteration {iteration} is not finite or exceeds 1; "
            f"try a step size alpha <= {safe_alpha:.6g} (= 2/C)"
        )


@dataclass
class OptimizerConfig:
    """Knobs of the descent loop.

    ``alpha`` is the constant step size; with ``alpha_auto`` it is derived
    as 2/C from the smoothness bound instead. ``delta``/``epsilon`` switch
    on the restricted (bounded-modification) feasible set.
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
    target: FairnessTarget,
    opt: OptimizerConfig,
) -> tuple[tuple[float, ...], list[OptimizationReport | DivergedError]]:
    """Descend on the mean fairness loss over the R ``restarts`` once per step
    size, all in lockstep; return the step sizes and each one's report or
    DivergedError.

    The step sizes are ``opt.alpha``, else 2/C with ``alpha_auto``, else all
    of ALPHA_GRID. Each copy of the pattern (one per step size) is a row of
    one (C, nnz) weight block, and every solve runs on the block's stacked
    WalkOperator, so one product serves all copies and each copy's sequence
    of operations, and so its result, is bitwise that of its run alone.

    Per iteration: refresh each p_l by warm-started power steps and evaluate
    the loss at the current feasible matrix; only here does a copy stop, so
    its last loss is its matrix's: "kappa" when |dL| <= kappa, "max_iters"
    after max_iters steps. Then subtract, one after another, each restart
    l's ``loss._terms`` scaled by the copies' step sizes: each term's y_k is
    summed at the current unprojected matrix, and p_l is re-solved there
    after the first restart. Project every copy once per iteration; sink
    rows never change. A copy diverges when its loss is not finite or
    exceeds LOSS_CEILING, when an entry leaves [-ENTRY_CEILING,
    ENTRY_CEILING], or when the projection cannot bring its rows back to sum
    1 within ROW_SUM_TOL. Stopped and diverged copies leave the stack.
    """
    gamma = restarts[0].gamma
    K = groups.K
    safe_alpha = 2.0 / lipschitz_bound(P.n, K, gamma)
    alphas = (opt.alpha,) if opt.alpha is not None else (safe_alpha,) if opt.alpha_auto else ALPHA_GRID
    rows, box = row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        # the loss is identically zero on the feasible set: nothing to do
        return alphas, [OptimizationReport(P.copy(), [0.0], "kappa", a) for a in alphas]

    n, phi, C = P.n, target.phi, len(alphas)
    base = P.copy()
    # the block's projection segments and boxes, and the starts of the rows
    # the row-sum check reads (summed as TransitionMatrix.row_sums does)
    segs = (rows + n * np.arange(C)[:, None]).ravel()
    lower, upper = np.tile(box.lower, C), np.tile(box.upper, C)
    starts = P.indptr[np.flatnonzero(np.diff(P.indptr) > 0)]

    ids = np.arange(C)  # the step-size index of each stacked copy
    step_sizes = np.asarray(alphas)
    W = np.tile(P.data, (C, 1))
    op = WalkOperator(P, W)
    warm = [np.full((C, n), 1.0 / n) for _ in restarts]
    loss_prev = np.full(C, math.inf)
    traces: list[list[float]] = [[] for _ in alphas]
    outcomes: list = [None] * C

    def keep(mask):
        """Drop the copies outside ``mask`` from the stack."""
        nonlocal ids, step_sizes, W, op, warm, loss_prev
        if not all(mask.tolist()):  # plain bools: numpy's all/any cost more on a few copies
            ids, step_sizes, W, loss_prev = ids[mask], step_sizes[mask], W[mask], loss_prev[mask]
            warm = [w[mask] for w in warm]
            op = WalkOperator(P, W)

    def solve(cfg, start):
        return pagerank_power(op, cfg, t1=opt.t1, tol=opt.power_tol, start=start)

    for it in range(opt.max_iters + 1):
        warm = [solve(cfg, w) for cfg, w in zip(restarts, warm)]
        losses = _mean_loss(np.stack([group_scores(w, groups) for w in warm], axis=1), phi)  # scores (copies, R, K)
        for i, loss in zip(ids, losses.tolist()):
            traces[i].append(loss)
        diverged = ~np.isfinite(losses) | (losses > LOSS_CEILING)
        last = it == opt.max_iters
        finished = ~diverged & (last | (np.abs(losses - loss_prev) <= opt.kappa))
        loss_prev = losses
        going = ~(diverged | finished)
        if not all(going.tolist()):
            for i, loss in zip(ids[diverged], losses[diverged].tolist()):
                outcomes[i] = DivergedError(it + 1, loss, safe_alpha)
            reason = "max_iters" if last else "kappa"
            for j, i in zip(np.flatnonzero(finished), ids[finished]):
                outcomes[i] = OptimizationReport(base.with_data(W[j].copy()), traces[i], reason, alphas[i])
            keep(going)
        if not len(ids):
            break
        log.debug("descent iter=%d losses=%s", it + 1, loss_prev)

        alive = np.ones(len(ids), bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for r, (cfg, p) in enumerate(zip(restarts, warm)):
                if r:  # earlier restarts moved the matrices; warm keeps the solutions at the feasible ones
                    p = solve(cfg, p)
                for coef, step in _terms(op, p, step_sizes, restarts, groups, phi, opt.t2, rows, P.indices):
                    moves = alive & (coef != 0.0)
                    flags = moves.tolist()
                    if not any(flags):
                        continue
                    if not all(flags):
                        step[~moves] = 0.0  # x - 0.0 is x: the other copies keep their weights bitwise
                    W -= step
                    bounded = (np.abs(W) <= ENTRY_CEILING).all(axis=1)
                    if not all(bounded.tolist()):
                        alive &= ~(moves & ~bounded)
        sel = np.flatnonzero(alive)
        m = len(sel) * P.nnz
        W[sel] = project_rows(W[sel].ravel(), segs[:m], len(sel) * n, lower[:m], upper[:m]).reshape(len(sel), P.nnz)
        sums = np.add.reduceat(W[sel], starts, axis=1)
        alive[sel[(np.abs(sums - 1.0) > ROW_SUM_TOL).any(axis=1)]] = False
        for i in ids[~alive]:
            outcomes[i] = DivergedError(it + 1, math.inf, safe_alpha)
        keep(alive)
    return alphas, outcomes


def _best(alphas, outcomes) -> OptimizationReport:
    """The report with the lowest final loss, ties going to the earlier step
    size, with every step size's outcome in its ``grid``; raises the last
    DivergedError when every step size diverged."""
    grid = [
        GridPoint(a, None, o.iteration, "diverged")
        if isinstance(o, DivergedError)
        else GridPoint(a, o.final_loss, o.iterations_run, o.stop_reason)
        for a, o in zip(alphas, outcomes)
    ]
    reports = [o for o in outcomes if not isinstance(o, DivergedError)]
    if not reports:
        raise outcomes[-1]
    best = min(reports, key=lambda r: r.final_loss)  # the first of equal losses
    best.grid = grid
    if len(alphas) > 1:
        log.debug("grid pick alpha=%g final_loss=%.6e", best.alpha, best.final_loss)
    return best


def fair_gd(
    P: TransitionMatrix, cfg: PageRankConfig, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the fairness loss over the feasible edge reweightings: the
    descent over the single restart ``cfg``. Without ``opt.alpha`` or
    ``alpha_auto`` it runs every ALPHA_GRID step size in lockstep and reports
    the lowest final loss."""
    return _best(*_descend(P, [cfg], groups, target, opt))


def adapt_gd(
    P: TransitionMatrix, gamma: float, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the group-adapted loss: the descent over the K restarts
    inside each group, with fair_gd's choice of step sizes."""
    return _best(*_descend(P, _group_restarts(groups, gamma), groups, target, opt))
