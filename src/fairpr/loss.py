"""Fairness losses over group scores, their analytic gradients on the sparse
pattern, and the smoothness bound that yields a safe step size.

Both objectives are the mean, over a list of restart configurations, of the
squared gap between group scores and targets: one restart for the plain
loss, one inside each group for the group-adapted loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import FairnessTarget, GroupAssignment, PageRankConfig, TransitionMatrix
from .pagerank import group_scores, neumann_y, pagerank_power
from .projection import row_boxes


@dataclass(frozen=True)
class SparseGradient:
    """Gradient entries on the optimizable pattern (sink rows excluded)."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if len(self.values) else 0.0


def loss_from_scores(scores: np.ndarray, phi: np.ndarray) -> float:
    """(1/K) sum_k (score_k - phi_k)^2."""
    d = np.asarray(scores, float) - np.asarray(phi, float)
    return float(np.mean(d * d))


def _group_restarts(groups: GroupAssignment, gamma: float) -> list[PageRankConfig]:
    """The K restart configurations of the group-adapted objective."""
    return [PageRankConfig.group_restart(groups, ell, gamma) for ell in range(groups.K)]


def _mean_loss(scores: list[np.ndarray], phi: np.ndarray) -> float:
    """The objective: loss_from_scores averaged over the restarts' scores."""
    return sum(loss_from_scores(s, phi) for s in scores) / len(scores)


def _restart_loss(P, restarts, groups, target, t1, tol) -> float:
    return _mean_loss([group_scores(pagerank_power(P, c, t1=t1, tol=tol), groups) for c in restarts], target.phi)


def _restart_grad(P, restarts, groups, target, t1, t2, tol) -> SparseGradient:
    """Entry (i,j): (2(1-gamma)/(K R)) sum_l sum_k (score_k(p_l) - phi_k) p_l[i] y_k[j],
    materialized only on the optimizable pattern; each y_k is summed once."""
    K = groups.K
    gamma = restarts[0].gamma
    live, rows, _ = row_boxes(P)
    cols = P.indices[live]
    values = np.zeros(len(rows))
    c0 = 2.0 * (1.0 - gamma) / (K * len(restarts))
    ycols = {}
    for cfg in restarts:
        p = pagerank_power(P, cfg, t1=t1, tol=tol)
        resid = group_scores(p, groups) - target.phi
        prow = p[rows]
        for k in range(K):
            if resid[k] == 0.0:
                continue
            if k not in ycols:
                ycols[k] = neumann_y(P, groups.indicator(k), gamma, t2)[cols]
            values += (c0 * resid[k]) * prow * ycols[k]
    return SparseGradient(P.n, rows, cols, values)


def loss_fair(
    P: TransitionMatrix,
    cfg: PageRankConfig,
    groups: GroupAssignment,
    target: FairnessTarget,
    t1: int = 100,
    tol: float = 1e-12,
) -> float:
    """Mean squared gap between group scores and their targets."""
    return _restart_loss(P, [cfg], groups, target, t1, tol)


def loss_group_adapted(
    P: TransitionMatrix,
    gamma: float,
    groups: GroupAssignment,
    target: FairnessTarget,
    t1: int = 100,
    tol: float = 1e-12,
) -> float:
    """Average of the fairness loss over walks restarted inside each group.

    (1/K^2) sum_l sum_k (score_k under restart-in-l - phi_k)^2.
    """
    return _restart_loss(P, _group_restarts(groups, gamma), groups, target, t1, tol)


def grad_fair(
    P: TransitionMatrix,
    cfg: PageRankConfig,
    groups: GroupAssignment,
    target: FairnessTarget,
    t1: int = 100,
    t2: int = 50,
    tol: float = 1e-12,
) -> SparseGradient:
    """Entry (i,j): (2(1-gamma)/K) sum_k (score_k - phi_k) p[i] y_k[j]."""
    return _restart_grad(P, [cfg], groups, target, t1, t2, tol)


def grad_group_adapted(
    P: TransitionMatrix,
    gamma: float,
    groups: GroupAssignment,
    target: FairnessTarget,
    t1: int = 100,
    t2: int = 50,
    tol: float = 1e-12,
) -> SparseGradient:
    """Entry (i,j): (2(1-gamma)/K^2) sum_k sum_l (score_k(p_l) - phi_k) p_l[i] y_k[j]."""
    return _restart_grad(P, _group_restarts(groups, gamma), groups, target, t1, t2, tol)


def lipschitz_bound(n: int, K: int, gamma: float) -> float:
    """Smoothness constant C = (2(1-gamma)^2/(K gamma^2)) (n + sqrt(n) + sqrt(Kn)).

    Any constant step size in (0, 2/C] gives monotone descent to a
    stationary point.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0,1)")
    lead = 2.0 * (1.0 - gamma) ** 2 / (K * gamma * gamma)
    return lead * (n + math.sqrt(n) + math.sqrt(K * n))
