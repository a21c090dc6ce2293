"""Random walk with restart: power iteration, a dense direct-solve oracle,
and the truncated geometric-series vectors used by the loss gradients.

Every product with P goes through ``P.operator()``: the stored entries as
scipy views of ``P.data`` (built once per matrix, so no call rebuilds the
matrix) plus the rank-one term of the implicit sink rows,
p'P = p'P_E + (sum of p over the implicit rows) s' and (Pz)_i = s.z on an
implicit row i, where s is the matrix's ``sink_row``.
"""

from __future__ import annotations

import numpy as np

from .graph import GroupAssignment, PageRankConfig, TransitionMatrix

DIRECT_SOLVE_LIMIT = 5000


class OracleSizeError(ValueError):
    """Dense direct solve requested beyond its size guard."""


def pagerank_power(
    P: TransitionMatrix,
    cfg: PageRankConfig,
    t1: int = 100,
    tol: float = 1e-12,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Iterate p' = (1-gamma) p'P + gamma v' for at most t1 steps.

    Stops early once the L1 change between iterates drops below ``tol``.
    Starts from the uniform vector unless ``start`` is given.
    """
    if t1 < 1:
        raise ValueError("t1 must be >= 1")
    gamma = cfg.gamma
    v = cfg.restart_vector
    left = P.operator().left
    p = np.full(P.n, 1.0 / P.n) if start is None else np.array(start, dtype=float)
    for _ in range(t1):
        nxt = (1.0 - gamma) * left(p) + gamma * v
        delta = np.abs(nxt - p).sum()
        p = nxt
        if delta < tol:
            break
    return p


def pagerank_direct(P: TransitionMatrix, cfg: PageRankConfig) -> np.ndarray:
    """Exact stationary vector from the dense linear system (test oracle).

    Solves (I - (1-gamma) P') p = gamma v. Guarded to n <= 5000.
    """
    if P.n > DIRECT_SOLVE_LIMIT:
        raise OracleSizeError(f"direct solve limited to n <= {DIRECT_SOLVE_LIMIT}, got n = {P.n}")
    gamma = cfg.gamma
    A = np.eye(P.n) - (1.0 - gamma) * P.to_dense().T
    return np.linalg.solve(A, gamma * cfg.restart_vector)


def pagerank_residual(P: TransitionMatrix, cfg: PageRankConfig, p: np.ndarray) -> float:
    """L1 residual of the fixed-point equation at p."""
    gamma = cfg.gamma
    rhs = (1.0 - gamma) * P.operator().left(p) + gamma * cfg.restart_vector
    return float(np.abs(rhs - p).sum())


def neumann_y(P: TransitionMatrix, indicator: np.ndarray, gamma: float, t2: int = 50) -> np.ndarray:
    """Truncated series sum_{i=0..t2} (1-gamma)^i P^i 1_k by repeated matvec.

    Approximates (I - (1-gamma) P)^{-1} 1_k; the i = 0 term is included.
    """
    if t2 < 0:
        raise ValueError("t2 must be >= 0")
    right = P.operator().right
    z = np.array(indicator, dtype=float)
    y = z.copy()
    for _ in range(t2):
        z = (1.0 - gamma) * right(z)
        y += z
    return y


def group_scores(p: np.ndarray, groups: GroupAssignment) -> np.ndarray:
    """Total score per group: scores[k] = sum of p over group k's vertices."""
    if len(p) != groups.n:
        raise ValueError("score vector length does not match label count")
    return np.bincount(groups.labels, weights=p, minlength=groups.K)
