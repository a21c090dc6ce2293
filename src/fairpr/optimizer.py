"""Projected gradient descent over edge weights, with optional per-entry
modification bounds. One loop, ``_descend``, minimizes the mean fairness
loss over a list of restarts: ``fair_gd`` passes its one restart and
``adapt_gd`` the K restarts inside each group."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import FairnessTarget, GroupAssignment, PageRankConfig, TransitionMatrix
from .loss import _group_restarts, _mean_loss, lipschitz_bound
from .pagerank import group_scores, neumann_y, pagerank_power
from .projection import project_matrix, row_boxes

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


@dataclass
class OptimizationReport:
    """Outcome of one descent run."""

    final_matrix: TransitionMatrix
    loss_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    final_group_scores: np.ndarray = None

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
) -> OptimizationReport:
    """Descend on the mean fairness loss over the R ``restarts``; report the
    final group scores under ``report_cfg``.

    Per iteration: refresh each p_l by warm-started power steps, evaluate the
    loss at the current feasible matrix and test |dL| <= kappa. Then, per
    restart l and group k, step P <- P - alpha (2(1-gamma)/(K R))
    (score_k(p_l) - phi_k) p_l y_k' on the stored pattern, with y_k summed at
    the current unprojected matrix and p_l re-solved there once an earlier
    step has moved it. Project once per iteration; sink rows never change.
    The report solve warm-starts from ``report_cfg``'s vector when it is one
    of the restarts, else from the uniform vector.
    """
    gamma = report_cfg.gamma
    K = groups.K
    safe_alpha = 2.0 / lipschitz_bound(P.n, K, gamma)
    alpha = opt.alpha if opt.alpha is not None else safe_alpha if opt.alpha_auto else None
    if alpha is None:
        raise ValueError("no step size: set alpha or alpha_auto (the CLI can grid-search instead)")
    live, rows, _ = row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        # the loss is identically zero on the feasible set: nothing to do
        p = pagerank_power(P, report_cfg, t1=opt.t1, tol=opt.power_tol)
        return OptimizationReport(P.copy(), [0.0], 1, True, group_scores(p, groups))

    phi = target.phi
    P_hat = P.copy()
    cols = P.indices[live]
    c0 = 2.0 * (1.0 - gamma) / (K * len(restarts))
    warm = [np.full(P.n, 1.0 / P.n) for _ in restarts]
    loss_prev = math.inf
    trace: list[float] = []
    converged = False
    for it in range(opt.max_iters):
        warm = [pagerank_power(P_hat, cfg, t1=opt.t1, tol=opt.power_tol, start=w) for cfg, w in zip(restarts, warm)]
        scores = [group_scores(w, groups) for w in warm]
        loss = _mean_loss(scores, phi)
        trace.append(loss)
        if not math.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergedError(it + 1, loss, safe_alpha)
        if abs(loss - loss_prev) <= opt.kappa:
            converged = True
            break
        loss_prev = loss
        stepped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for cfg, p, s in zip(restarts, warm, scores):
                if stepped:  # warm keeps the solution at the feasible matrix
                    p = pagerank_power(P_hat, cfg, t1=opt.t1, tol=opt.power_tol, start=p)
                    s = group_scores(p, groups)
                prow = p[rows]
                for k in range(K):
                    coef = alpha * c0 * (s[k] - phi[k])
                    if coef == 0.0:
                        continue
                    y = neumann_y(P_hat, groups.indicator(k), gamma, opt.t2)
                    P_hat.data[live] -= coef * prow * y[cols]
                    stepped = True
                    if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                        raise DivergedError(it + 1, math.inf, safe_alpha)
        if stepped:
            P_hat = project_matrix(P_hat, P, opt.delta, opt.epsilon)
        log.debug("descent iter=%d loss=%.6e", it + 1, loss)

    start = next((w for cfg, w in zip(restarts, warm) if cfg is report_cfg), None)
    p = pagerank_power(P_hat, report_cfg, t1=opt.t1, tol=opt.power_tol, start=start)
    return OptimizationReport(P_hat, trace, len(trace), converged, group_scores(p, groups))


def fair_gd(
    P: TransitionMatrix, cfg: PageRankConfig, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the fairness loss over the feasible edge reweightings: the
    descent over the single restart ``cfg``."""
    return _descend(P, [cfg], cfg, groups, target, opt)


def adapt_gd(
    P: TransitionMatrix, gamma: float, groups: GroupAssignment, target: FairnessTarget, opt: OptimizerConfig
) -> OptimizationReport:
    """Minimize the group-adapted loss: the descent over the K restarts
    inside each group. Final scores use the uniform restart vector."""
    return _descend(P, _group_restarts(groups, gamma), PageRankConfig.uniform(P.n, gamma), groups, target, opt)
