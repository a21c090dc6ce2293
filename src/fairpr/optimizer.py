"""Projected gradient descent over edge weights, in plain and group-adapted
forms, each with optional per-entry modification bounds."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import FairnessTarget, GroupAssignment, PageRankConfig, TransitionMatrix
from .loss import lipschitz_bound, loss_from_scores
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


def _resolve_alpha(opt: OptimizerConfig, n: int, K: int, gamma: float) -> float:
    if opt.alpha is not None:
        return opt.alpha
    if opt.alpha_auto:
        return 2.0 / lipschitz_bound(n, K, gamma)
    raise ValueError("no step size: set alpha or alpha_auto (the CLI can grid-search instead)")


def _trivial_report(P: TransitionMatrix, cfg: PageRankConfig, groups: GroupAssignment, opt: OptimizerConfig):
    """K = 1 has loss identically zero on the feasible set: nothing to do."""
    p = pagerank_power(P, cfg, t1=opt.t1, tol=opt.power_tol)
    return OptimizationReport(
        final_matrix=P.copy(),
        loss_trace=[0.0],
        iterations_run=1,
        converged=True,
        final_group_scores=group_scores(p, groups),
    )


def fair_gd(
    P: TransitionMatrix,
    cfg: PageRankConfig,
    groups: GroupAssignment,
    target: FairnessTarget,
    opt: OptimizerConfig,
) -> OptimizationReport:
    """Minimize the fairness loss over the feasible edge reweightings.

    Per iteration: refresh p by t1 power steps, evaluate the loss and test
    |dL| <= kappa, then for each group apply the rank-one step
    P <- P - alpha (2(1-gamma)/K)(score_k - phi_k) p y_k' on the stored
    pattern, and project once. Sink rows never change.
    """
    gamma = cfg.gamma
    K = groups.K
    alpha = _resolve_alpha(opt, P.n, K, gamma)
    row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        return _trivial_report(P, cfg, groups, opt)

    phi = target.phi
    P_hat = P.copy()
    entry_rows = P.entry_rows()
    live = np.flatnonzero(~P.sink_mask[entry_rows])
    rows_nz = entry_rows[live]
    cols_nz = P.indices[live]
    c0 = 2.0 * (1.0 - gamma) / K

    p = np.full(P.n, 1.0 / P.n)
    loss_prev = math.inf
    trace: list[float] = []
    converged = False
    for it in range(opt.max_iters):
        p = pagerank_power(P_hat, cfg, t1=opt.t1, tol=opt.power_tol, start=p)
        scores = group_scores(p, groups)
        loss = loss_from_scores(scores, phi)
        trace.append(loss)
        if not math.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergedError(it + 1, loss, 2.0 / lipschitz_bound(P.n, K, gamma))
        if abs(loss - loss_prev) <= opt.kappa:
            converged = True
            break
        loss_prev = loss
        prow = p[rows_nz]
        stepped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(K):
                coef = alpha * c0 * (scores[k] - phi[k])
                if coef == 0.0:
                    continue
                y = neumann_y(P_hat, groups.indicator(k), gamma, opt.t2)
                P_hat.data[live] -= coef * prow * y[cols_nz]
                stepped = True
                if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                    raise DivergedError(it + 1, math.inf, 2.0 / lipschitz_bound(P.n, K, gamma))
        if stepped:
            P_hat = project_matrix(P_hat, P, opt.delta, opt.epsilon)
        log.debug("fair_gd iter=%d loss=%.6e", it + 1, loss)

    p = pagerank_power(P_hat, cfg, t1=opt.t1, tol=opt.power_tol, start=p)
    return OptimizationReport(
        final_matrix=P_hat,
        loss_trace=trace,
        iterations_run=len(trace),
        converged=converged,
        final_group_scores=group_scores(p, groups),
    )


def adapt_gd(
    P: TransitionMatrix,
    gamma: float,
    groups: GroupAssignment,
    target: FairnessTarget,
    opt: OptimizerConfig,
) -> OptimizationReport:
    """Minimize the group-adapted loss: an outer sweep over restart groups.

    Each iteration first evaluates the loss at the current feasible matrix
    (warm-started restart-in-group-l solves) and tests |dL| <= kappa, then
    sweeps: per group l it refreshes p_l and applies the per-(l,k) rank-one
    steps with weight (2(1-gamma)/K^2)(score_k(p_l) - phi_k), projecting
    once after the full double loop. Reported final scores use the uniform
    restart vector.
    """
    K = groups.K
    alpha = _resolve_alpha(opt, P.n, K, gamma)
    row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    uniform_cfg = PageRankConfig.uniform(P.n, gamma)
    if K == 1:
        return _trivial_report(P, uniform_cfg, groups, opt)

    phi = target.phi
    P_hat = P.copy()
    entry_rows = P.entry_rows()
    live = np.flatnonzero(~P.sink_mask[entry_rows])
    rows_nz = entry_rows[live]
    cols_nz = P.indices[live]
    c0 = 2.0 * (1.0 - gamma) / (K * K)
    restart_cfgs = [PageRankConfig.group_restart(groups, ell, gamma) for ell in range(K)]

    warm = [np.full(P.n, 1.0 / P.n) for _ in range(K)]
    loss_prev = math.inf
    trace: list[float] = []
    converged = False
    for it in range(opt.max_iters):
        # the tracked loss is evaluated at the current feasible (projected)
        # matrix; warm vectors make these solves nearly free
        sq = 0.0
        for ell in range(K):
            warm[ell] = pagerank_power(
                P_hat, restart_cfgs[ell], t1=opt.t1, tol=opt.power_tol, start=warm[ell]
            )
            d = group_scores(warm[ell], groups) - phi
            sq += float(d @ d)
        loss = sq / (K * K)
        trace.append(loss)
        if not math.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergedError(it + 1, loss, 2.0 / lipschitz_bound(P.n, K, gamma))
        if abs(loss - loss_prev) <= opt.kappa:
            converged = True
            break
        loss_prev = loss
        stepped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for ell in range(K):
                # solved at the current mid-sweep matrix; not written back to
                # warm, which only ever tracks feasible-state solutions
                p_ell = pagerank_power(P_hat, restart_cfgs[ell], t1=opt.t1, tol=opt.power_tol, start=warm[ell])
                resid = group_scores(p_ell, groups) - phi
                prow = p_ell[rows_nz]
                for k in range(K):
                    coef = alpha * c0 * resid[k]
                    if coef == 0.0:
                        continue
                    y = neumann_y(P_hat, groups.indicator(k), gamma, opt.t2)
                    P_hat.data[live] -= coef * prow * y[cols_nz]
                    stepped = True
                    if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                        raise DivergedError(it + 1, math.inf, 2.0 / lipschitz_bound(P.n, K, gamma))
        if stepped:
            P_hat = project_matrix(P_hat, P, opt.delta, opt.epsilon)
        log.debug("adapt_gd iter=%d loss=%.6e", it + 1, loss)

    p = pagerank_power(P_hat, uniform_cfg, t1=opt.t1, tol=opt.power_tol)
    return OptimizationReport(
        final_matrix=P_hat,
        loss_trace=trace,
        iterations_run=len(trace),
        converged=converged,
        final_group_scores=group_scores(p, groups),
    )
