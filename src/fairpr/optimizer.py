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
from .loss import _group_restarts, _mean_loss, lipschitz_bound
from .pagerank import group_scores, neumann_y, pagerank_power
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
    """One step size's descent: its final loss (None when it diverged), the
    iterations it ran and how it stopped: "kappa", "max_iters" or "diverged"."""

    alpha: float
    loss: float | None
    iterations: int
    outcome: str


@dataclass
class OptimizationReport:
    """Outcome of one descent run: the step size ``alpha`` it took and, in
    ``grid``, every step size tried with it."""

    final_matrix: TransitionMatrix
    loss_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    final_group_scores: np.ndarray = None
    alpha: float | None = None
    grid: list[GridPoint] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1]


def _descend(
    P: TransitionMatrix,
    restarts: list[PageRankConfig],
    report_cfg: PageRankConfig,
    groups: GroupAssignment,
    target: FairnessTarget,
    opt: OptimizerConfig,
) -> tuple[tuple[float, ...], list[OptimizationReport | DivergedError]]:
    """Descend on the mean fairness loss over the R ``restarts`` once per step
    size, all in lockstep; return the step sizes and each one's report (final
    group scores under ``report_cfg``) or DivergedError.

    The step sizes are ``opt.alpha``, else 2/C with ``alpha_auto``, else all
    of ALPHA_GRID. Each copy of the pattern (one per step size) is a row of
    one (C, nnz) weight block, and every solve runs on the block's stacked
    WalkOperator, so one product serves all copies and each copy's sequence
    of operations, and so its result, is bitwise that of its run alone.

    Per iteration: refresh each p_l by warm-started power steps, evaluate the
    loss at the current feasible matrix and test |dL| <= kappa. Then, per
    restart l and group k, step P <- P - alpha (2(1-gamma)/(K R))
    (score_k(p_l) - phi_k) p_l y_k' on the stored pattern, with y_k summed at
    the current unprojected matrix and p_l re-solved there once an earlier
    step has moved it. Project once per iteration; sink rows never change. A
    copy diverges when its loss is not finite or exceeds LOSS_CEILING, when
    an entry leaves [-ENTRY_CEILING, ENTRY_CEILING], or when the projection
    cannot bring its rows back to sum 1 within ROW_SUM_TOL. Stopped and
    diverged copies leave the stack. The report solve warm-starts from
    ``report_cfg``'s vector when it is one of the restarts, else from the
    uniform vector.
    """
    gamma = report_cfg.gamma
    K = groups.K
    safe_alpha = 2.0 / lipschitz_bound(P.n, K, gamma)
    alphas = (opt.alpha,) if opt.alpha is not None else (safe_alpha,) if opt.alpha_auto else ALPHA_GRID
    live, rows, box = row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        # the loss is identically zero on the feasible set: nothing to do
        p = pagerank_power(P, report_cfg, t1=opt.t1, tol=opt.power_tol)
        trivial = [OptimizationReport(P.copy(), [0.0], 1, True, group_scores(p, groups), a) for a in alphas]
        return alphas, trivial

    n, phi, C = P.n, target.phi, len(alphas)
    base = P.copy()
    cols = P.indices[live]
    # block positions of the live entries, copy by copy (1-D indexing is the
    # fast path), the block's projection segments and boxes, and the starts
    # of the rows the row-sum check reads (summed as TransitionMatrix.row_sums does)
    at = (live + P.nnz * np.arange(C)[:, None]).ravel()
    segs = (rows + n * np.arange(C)[:, None]).ravel()
    lower, upper = np.tile(box.lower, C), np.tile(box.upper, C)
    stored = np.flatnonzero(np.diff(P.indptr) > 0)
    checked = ~P.sink_mask[stored]
    report_at = next((i for i, cfg in enumerate(restarts) if cfg is report_cfg), None)

    ids = np.arange(C)  # the step-size index of each stacked copy
    coef0 = np.asarray(alphas) * (2.0 * (1.0 - gamma) / (K * len(restarts)))
    W = np.tile(P.data, (C, 1))
    op = WalkOperator(P, W)
    warm = [np.full((C, n), 1.0 / n) for _ in restarts]
    loss_prev = np.full(C, math.inf)
    traces: list[list[float]] = [[] for _ in alphas]
    outcomes: list = [None] * C
    done = []  # (step-size index, converged, weights, report warm start) of stopped copies

    def keep(mask):
        """Drop the copies outside ``mask`` from the stack."""
        nonlocal ids, coef0, W, op, warm, loss_prev
        if not all(mask.tolist()):  # plain bools: numpy's all/any cost more on a few copies
            ids, coef0, W, loss_prev = ids[mask], coef0[mask], W[mask], loss_prev[mask]
            warm = [w[mask] for w in warm]
            op = WalkOperator(P, W)

    def solve(cfg, start):
        return pagerank_power(op, cfg, t1=opt.t1, tol=opt.power_tol, start=start)

    def stop(mask, converged):
        for j in np.flatnonzero(mask):
            start = None if report_at is None else warm[report_at][j]
            done.append((ids[j], converged, W[j].copy(), start))

    for it in range(opt.max_iters):
        warm = [solve(cfg, w) for cfg, w in zip(restarts, warm)]
        scores = [group_scores(w, groups) for w in warm]
        losses = np.array([_mean_loss([s[j] for s in scores], phi) for j in range(len(ids))])
        for i, loss in zip(ids, losses.tolist()):
            traces[i].append(loss)
        diverged = ~np.isfinite(losses) | (losses > LOSS_CEILING)
        converged = ~diverged & (np.abs(losses - loss_prev) <= opt.kappa)
        loss_prev = losses
        going = ~(diverged | converged)
        if not all(going.tolist()):
            for i, loss in zip(ids[diverged], losses[diverged].tolist()):
                outcomes[i] = DivergedError(it + 1, loss, safe_alpha)
            stop(converged, True)
            scores = [s[going] for s in scores]
            keep(going)
            if not len(ids):
                break
        log.debug("descent iter=%d losses=%s", it + 1, loss_prev)

        stepped = np.zeros(len(ids), bool)
        alive = np.ones(len(ids), bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for cfg, p, s in zip(restarts, warm, scores):
                if any(stepped.tolist()):  # warm keeps the solutions at the feasible matrices
                    p = np.where(stepped[:, None], solve(cfg, p), p)
                    s = group_scores(p, groups)
                prow = np.take(p, rows, axis=1)
                for k in range(K):
                    coef = coef0 * (s[:, k] - phi[k])
                    moves = alive & (coef != 0.0)
                    flags = moves.tolist()
                    if not any(flags):
                        continue
                    y = neumann_y(op, groups.indicator(k), gamma, opt.t2)
                    step = coef[:, None] * prow * np.take(y, cols, axis=1)
                    if not all(flags):
                        step[~moves] = 0.0  # x - 0.0 is x: the other copies keep their weights bitwise
                    W.reshape(-1)[at[: step.size]] -= step.ravel()
                    stepped |= moves
                    bounded = (np.abs(W) <= ENTRY_CEILING).all(axis=1)
                    if not all(bounded.tolist()):
                        blown = moves & ~bounded
                        for i in ids[blown]:
                            outcomes[i] = DivergedError(it + 1, math.inf, safe_alpha)
                        alive &= ~blown
        stepped &= alive
        if any(stepped.tolist()):
            sel = np.flatnonzero(stepped)
            pos, flat = at.reshape(C, -1)[sel].ravel(), W.reshape(-1)
            m = pos.size
            flat[pos] = project_rows(flat[pos], segs[:m], len(sel) * n, lower[:m], upper[:m])
            sums = np.add.reduceat(W[sel], P.indptr[stored], axis=1)
            off = (np.abs(sums[:, checked] - 1.0) > ROW_SUM_TOL).any(axis=1)
            for i in ids[sel[off]]:
                outcomes[i] = DivergedError(it + 1, math.inf, safe_alpha)
            alive[sel[off]] = False
        keep(alive)
    stop(np.ones(len(ids), bool), False)

    if done:
        # the report solves of all stopped copies, as one block
        Wd = np.stack([w for _, _, w, _ in done])
        start = None if report_at is None else np.stack([s for *_, s in done])
        op = WalkOperator(P, Wd)
        final = group_scores(solve(report_cfg, start), groups)
        for (i, converged, w, _), s in zip(done, final):
            trace = traces[i]
            outcomes[i] = OptimizationReport(base.with_data(w), trace, len(trace), converged, s, alphas[i])
    return alphas, outcomes


def _best(alphas, outcomes) -> OptimizationReport:
    """The report with the lowest final loss, ties going to the earlier step
    size, with every step size's outcome in its ``grid``; raises the last
    DivergedError when every step size diverged."""
    grid = [
        GridPoint(a, None, o.iteration, "diverged")
        if isinstance(o, DivergedError)
        else GridPoint(a, o.final_loss, o.iterations_run, "kappa" if o.converged else "max_iters")
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
    return _best(*_descend(P, [cfg], cfg, groups, target, opt))


def adapt_gd(
    P: TransitionMatrix, gamma: float, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the group-adapted loss: the descent over the K restarts
    inside each group, with fair_gd's choice of step sizes. Final scores use
    the uniform restart vector."""
    uniform = PageRankConfig.uniform(P.n, gamma)
    return _best(*_descend(P, _group_restarts(groups, gamma), uniform, groups, target, opt))
