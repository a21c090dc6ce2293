"""Fairness losses over group scores, their analytic gradients on the sparse
pattern, and the smoothness bound that yields a safe step size.

Both objectives are the mean, over a list of restart configurations, of the
squared gap between group scores and targets: one restart for the plain
loss, one inside each group for the group-adapted loss."""

from __future__ import annotations

import math

import numpy as np

from .graph import FairnessTarget, GroupAssignment, PageRankConfig, TransitionMatrix, _check_target
from .pagerank import group_scores, neumann_y, pagerank_power


def _group_restarts(groups: GroupAssignment, gamma: float) -> list[PageRankConfig]:
    """The K restart configurations of the group-adapted objective."""
    return [PageRankConfig.group_restart(groups, ell, gamma) for ell in range(groups.K)]


def _mean_loss(scores, phi: np.ndarray):
    """The objective: (1/K) sum_k (score_k - phi_k)^2 averaged over the
    restarts, the second-last axis of ``scores``; one loss per leading index.
    ``phi`` is one (K,) target, or one per leading index."""
    d = np.asarray(scores, float) - np.expand_dims(np.asarray(phi, float), -2)
    return np.mean(d * d, axis=-1).mean(axis=-1)


def loss_from_scores(scores: np.ndarray, phi: np.ndarray) -> float:
    """(1/K) sum_k (score_k - phi_k)^2: the objective over one restart."""
    return float(_mean_loss([scores], phi))


def _restart_loss(P, restarts, groups, target, t1, tol) -> float:
    """The mean loss at P: every restart solved in one block."""
    _check_target(groups, target)
    scores = group_scores(pagerank_power(P, restarts, t1=t1, tol=tol), groups)
    return float(_mean_loss(scores, target.phi))


def _indicators(groups: GroupAssignment) -> np.ndarray:
    """The (K, n) group indicators, row k ``groups.indicator(k)``."""
    return (groups.labels == np.arange(groups.K)[:, None]).astype(float)


def _terms(op, p, s, scale, restarts, phi, t2, rows, cols, starts):
    """Yield (coef, term) for each group k of one restart's solution ``p``,
    whose K group scores ``s`` the caller holds: coef = scale (2(1-gamma)/(K R))
    (s_k - phi_k), R = len(restarts), and term = coef p[i] y_k[j] on the
    stored entries (i, j) = (rows, cols), skipping a k whose coef is zero.
    ``p`` may be a (C, n) block over ``op``'s stacked copies, with ``s`` its
    (C, K) scores, ``scale`` one number or one per copy and ``phi`` one (K,)
    target or a (C, K) one per copy. y_k is
    ``neumann_y`` from ``starts[k]``, group k's indicator (shared, or one per
    copy, as ``neumann_y`` takes it), at op's weights when its term is
    requested, so weights moved between terms count."""
    K = s.shape[-1]
    c = scale * (2.0 * (1.0 - restarts[0].gamma) / (K * len(restarts)))
    prow = np.take(p, rows, axis=-1)
    for k in range(K):
        coef = c * (s[..., k] - phi[..., k])
        if not coef.any():
            continue
        y = neumann_y(op, starts[k], restarts[0].gamma, t2)
        yield coef, coef[..., None] * prow * np.take(y, cols, axis=-1)


def _restart_grad(P, restarts, groups, target, t1, t2, tol) -> np.ndarray:
    """The mean loss's gradient on the stored pattern, one value per entry
    of ``P.data``: every restart's ``_terms`` at P, summed, with the
    restarts solved in one block and scored once."""
    _check_target(groups, target)
    rows, cols, op, starts = P.entry_rows(), P.indices, P.operator(), _indicators(groups)
    block = pagerank_power(op, restarts, t1=t1, tol=tol)
    values = np.zeros(len(rows))
    for p, s in zip(block, group_scores(block, groups)):
        for _, term in _terms(op, p, s, 1.0, restarts, target.phi, t2, rows, cols, starts):
            values += term
    return values


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
) -> np.ndarray:
    """The gradient on the edges, aligned with ``P.data``: entry (i, j) is
    (2(1-gamma)/K) sum_k (score_k - phi_k) p[i] y_k[j]."""
    return _restart_grad(P, [cfg], groups, target, t1, t2, tol)


def grad_group_adapted(
    P: TransitionMatrix,
    gamma: float,
    groups: GroupAssignment,
    target: FairnessTarget,
    t1: int = 100,
    t2: int = 50,
    tol: float = 1e-12,
) -> np.ndarray:
    """The gradient on the edges, aligned with ``P.data``: entry (i, j) is
    (2(1-gamma)/K^2) sum_k sum_l (score_k(p_l) - phi_k) p_l[i] y_k[j]."""
    return _restart_grad(P, _group_restarts(groups, gamma), groups, target, t1, t2, tol)


def lipschitz_bound(n: int, K: int, gamma: float) -> float:
    """Smoothness constant C = (2(1-gamma)^2/(K gamma^2)) (n + sqrt(n) + sqrt(Kn)).

    Any constant step size in (0, 2/C] gives monotone descent to a
    stationary point. C is inf once K gamma^2 underflows to 0 (gamma < ~1e-162).
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0,1)")
    lead = 2.0 * (1.0 - gamma) ** 2 / (K * gamma * gamma) if K * gamma * gamma else math.inf
    return lead * (n + math.sqrt(n) + math.sqrt(K * n))
