"""Random walk with restart: power iteration, a dense direct-solve oracle,
and the truncated geometric-series vectors used by the loss gradients.

Every product with P goes through ``P.operator()``: the stored entries as
raw CSR arrays over ``P.data`` (built once per matrix, so no call rebuilds
the matrix), multiplied by scipy's compiled matvec kernels called directly,
bitwise what ``csr @ x`` and ``csc @ x`` return, plus the rank-one term of
the sink rows, p'P = p'P_E + (sum of p over the sink rows) s' and
(Pz)_i = s.z on a sink row i, where s is the matrix's ``sink_row``.
The power and series steps update their iterates in place, in the same
operations and order as the plain expressions, so their results are too.

``pagerank_power``, ``neumann_y`` and ``group_scores`` also take a
``WalkOperator`` over C stacked copies of one pattern (the descent runs its
step-size grid that way) and then work on (C, n) blocks, one product per
step for all copies. Each copy's row is bitwise what the same call on that
copy alone returns: the power iteration stops each copy on its own, and a
1-D call is the one-copy case.
"""

from __future__ import annotations

import numpy as np

from .graph import GroupAssignment, PageRankConfig, TransitionMatrix, WalkOperator

DIRECT_SOLVE_LIMIT = 5000


class OracleSizeError(ValueError):
    """Dense direct solve requested beyond its size guard."""


def pagerank_power(
    P: TransitionMatrix | WalkOperator,
    cfg: PageRankConfig,
    t1: int = 100,
    tol: float = 1e-12,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Iterate p' = (1-gamma) p'P + gamma v' for at most t1 steps.

    A copy stops early, keeping its iterate, once the L1 change between its
    iterates drops below ``tol``; the others go on. Starts from the uniform
    vector (one row per copy) unless ``start`` is given, which is only read.
    Returns a new vector, or a (C, n) block over C stacked copies.
    """
    if t1 < 1:
        raise ValueError("t1 must be >= 1")
    op = P.operator()
    left, rows = op.left, (op.copies, op.n)
    damp, jump = 1.0 - cfg.gamma, np.tile(cfg.gamma * cfg.restart_vector, op.copies)
    # the copies' vectors one after another, as the operator takes them
    p = np.full(op.copies * op.n, 1.0 / op.n) if start is None else np.asarray(start, float).reshape(-1)
    gap = np.empty(op.copies * op.n)  # |p_next - p|, with a (C, n) view to sum per copy
    gaps = gap.reshape(rows)
    stopped = None  # the copies that met tol, once some but not all have
    for _ in range(t1):
        # each product's output is a new zeroed array: it becomes the next
        # iterate in place, and ``start`` and earlier results are only read
        nxt = left(p)
        np.multiply(nxt, damp, out=nxt)
        np.add(nxt, jump, out=nxt)
        np.subtract(nxt, p, out=gap)
        np.abs(gap, out=gap)
        met = np.add.reduce(gaps, axis=1) < tol
        if stopped is not None:
            nxt.reshape(rows)[stopped] = p.reshape(rows)[stopped]
            met |= stopped
        p = nxt
        flags = met.tolist()  # plain bools: numpy's any/all cost more than a step's arithmetic
        if all(flags):
            break
        if any(flags):
            stopped = met
    return p.reshape(op.shape)


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


def neumann_y(
    P: TransitionMatrix | WalkOperator, indicator: np.ndarray, gamma: float, t2: int = 50
) -> np.ndarray:
    """Truncated series sum_{i=0..t2} (1-gamma)^i P^i 1_k by repeated matvec.

    Approximates (I - (1-gamma) P)^{-1} 1_k; the i = 0 term is included.
    Over stacked copies every copy starts from the same ``indicator``.
    """
    if t2 < 0:
        raise ValueError("t2 must be >= 0")
    op = P.operator()
    right = op.right
    damp = 1.0 - gamma
    z = np.tile(np.asarray(indicator, dtype=float), op.copies)
    y = z.copy()
    for _ in range(t2):
        z = right(z)
        np.multiply(z, damp, out=z)
        y += z
    return y.reshape(op.shape)


def group_scores(p: np.ndarray, groups: GroupAssignment) -> np.ndarray:
    """Total score per group: scores[k] = sum of p over group k's vertices;
    one row of K scores per row of a (C, n) block."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != groups.n:
        raise ValueError("score vector length does not match label count")
    # copy c's groups are bins c K .. c K + K - 1 (a 1-D p is the one copy);
    # bincount sums each bin in index order
    copies = p.size // groups.n
    bins = (groups.labels + groups.K * np.arange(copies)[:, None]).ravel()
    return np.bincount(bins, weights=p.ravel(), minlength=copies * groups.K).reshape(p.shape[:-1] + (groups.K,))
