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


@dataclass(frozen=True)
class SparseGradient:
    """Gradient entries on the stored pattern: the edges (sink rows store none)."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if len(self.values) else 0.0


def _group_restarts(groups: GroupAssignment, gamma: float) -> list[PageRankConfig]:
    """The K restart configurations of the group-adapted objective."""
    return [PageRankConfig.group_restart(groups, ell, gamma) for ell in range(groups.K)]


def _mean_loss(scores, phi: np.ndarray):
    """The objective: (1/K) sum_k (score_k - phi_k)^2 averaged over the
    restarts, the second-last axis of ``scores``; one loss per leading index."""
    d = np.asarray(scores, float) - np.asarray(phi, float)
    return np.mean(d * d, axis=-1).mean(axis=-1)


def loss_from_scores(scores: np.ndarray, phi: np.ndarray) -> float:
    """(1/K) sum_k (score_k - phi_k)^2: the objective over one restart."""
    return float(_mean_loss([scores], phi))


def _restart_loss(P, restarts, groups, target, t1, tol) -> float:
    scores = [group_scores(pagerank_power(P, c, t1=t1, tol=tol), groups) for c in restarts]
    return float(_mean_loss(scores, target.phi))


def _terms(op, p, scale, restarts, groups, phi, t2, rows, cols):
    """Yield (coef, term) for each group k of one restart's solution ``p``:
    coef = scale (2(1-gamma)/(K R)) (score_k(p) - phi_k), R = len(restarts),
    and term = coef p[i] y_k[j] on the stored entries (i, j) = (rows, cols),
    skipping a k whose coef is zero. ``p`` may be a (C, n) block over ``op``'s
    stacked copies, with ``scale`` one number or one per copy. y_k is
    ``neumann_y`` at op's weights when its term is requested, so weights moved
    between terms count."""
    c = scale * (2.0 * (1.0 - restarts[0].gamma) / (groups.K * len(restarts)))
    s = group_scores(p, groups)
    prow = np.take(p, rows, axis=-1)
    for k in range(groups.K):
        coef = c * (s[..., k] - phi[k])
        if not coef.any():
            continue
        y = neumann_y(op, groups.indicator(k), restarts[0].gamma, t2)
        yield coef, coef[..., None] * prow * np.take(y, cols, axis=-1)


def _restart_grad(P, restarts, groups, target, t1, t2, tol) -> SparseGradient:
    """The mean loss's gradient on the stored pattern: every restart's
    ``_terms`` at P, summed."""
    rows, cols = P.entry_rows(), P.indices
    values = np.zeros(len(rows))
    for cfg in restarts:
        p = pagerank_power(P, cfg, t1=t1, tol=tol)
        for _, term in _terms(P, p, 1.0, restarts, groups, target.phi, t2, rows, cols):
            values += term
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
