"""Random walk with restart: power iteration, a dense direct-solve oracle,
and the truncated geometric-series vectors used by the loss gradients.

Every product with P goes through ``P.operator()``: the stored entries as
raw CSR arrays over ``P.data`` (built once per matrix, so no call rebuilds
the matrix), multiplied by scipy's compiled matvec kernels called directly,
bitwise what ``csr @ x`` and ``csc @ x`` return, plus the rank-one term of
the sink rows, p'P = p'P_E + (sum of p over the sink rows) s' and
(Pz)_i = s.z on a sink row i, where s is the matrix's ``sink_row``.
The solvers check their start vector once and then call the operator's
unchecked ``left_into``/``right_into`` products. The power iteration takes
its steps in chunks of up to ``CHUNK_STEPS``, written into the rows of one
new zeroed buffer per chunk, and tests every step of a chunk in one L1
reduction; a chunk's rows stay within ``CHUNK_BUDGET`` entries (1 MiB),
except that a block larger than that still takes one step per chunk. The
series adds each damped term into its sum in place, as ``y += z`` does:
summing a chunk's terms in one reduction down the rows first copies the
partial sum, which made the one-step chunks of large blocks 10% slower,
and writing the terms into chunk rows saved nothing measurable on small
ones. Each step is the same operations in the same order as the plain
expressions, so the results are bitwise those of a step-by-step loop.

``pagerank_power``, ``neumann_y`` and ``group_scores`` also take a
``WalkOperator`` over C stacked copies of one pattern (the descent runs its
step-size grid that way) and then work on (C, n) blocks, one product per
step for all copies. Each copy's row is bitwise what the same call on that
copy alone returns: the power iteration stops each copy on its own, and a
1-D call is the one-copy case.
"""

from __future__ import annotations

import logging

import numpy as np

from .graph import GroupAssignment, PageRankConfig, TransitionMatrix, WalkOperator

DIRECT_SOLVE_LIMIT = 5000
CHUNK_STEPS = 8  # most steps per chunk
CHUNK_BUDGET = 2**17  # most entries in one chunk's steps: 1 MiB of float64

log = logging.getLogger(__name__)


class OracleSizeError(ValueError):
    """Dense direct solve requested beyond its size guard."""


def _chunk_steps(size: int) -> int:
    """Steps per chunk for vectors of ``size`` entries: at most
    ``CHUNK_STEPS``, within ``CHUNK_BUDGET`` entries, and at least one."""
    return max(1, min(CHUNK_STEPS, CHUNK_BUDGET // max(size, 1)))


def pagerank_power(
    P: TransitionMatrix | WalkOperator,
    cfg: PageRankConfig,
    t1: int = 100,
    tol: float = 1e-12,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Iterate p' = (1-gamma) p'P + gamma v' for at most t1 steps.

    A copy stops at its first step whose L1 change drops below ``tol`` and
    returns that step's iterate; the others go on. Starts from the uniform
    vector (one row per copy) unless ``start`` is given, which is only read.
    Returns a new vector, or a (C, n) block over C stacked copies.

    The steps run in chunks (see the module docstring), and every step's
    change is tested once its chunk is done: the steps a chunk takes past
    the last copy's stop, at most ``CHUNK_STEPS - 1``, are discarded. The
    copies that reach t1 without meeting ``tol`` are logged at DEBUG, with
    their largest last L1 change.
    """
    if t1 < 1:
        raise ValueError("t1 must be >= 1")
    op = P.operator()
    copies, n = op.copies, op.n
    damp, jump = 1.0 - cfg.gamma, np.tile(cfg.gamma * cfg.restart_vector, copies)
    # the copies' vectors one after another, as the operator takes them
    p = np.full(copies * n, 1.0 / n) if start is None else op.vector(np.asarray(start, float).reshape(-1))
    m = _chunk_steps(copies * n)
    gaps = np.empty((m, copies * n))  # |step - the step before|
    per_copy = gaps.reshape(m * copies, n)  # the same, one row per step and copy
    result = np.empty((copies, n))
    pending = np.arange(copies)  # the copies that have not met tol
    done = 0
    while pending.size and done < t1:
        k = min(m, t1 - done)
        # a new zeroed buffer per chunk: ``start`` and the last chunk's rows are only read
        rows = np.zeros((k, copies * n))
        prev = p
        for row in rows:
            op.left_into(prev, row)
            np.multiply(row, damp, out=row)
            np.add(row, jump, out=row)
            prev = row
        np.subtract(rows[0], p, out=gaps[0])
        if k > 1:
            np.subtract(rows[1:], rows[:-1], out=gaps[1:k])
        np.abs(gaps[:k], out=gaps[:k])
        change = np.add.reduce(per_copy[: k * copies], axis=1).reshape(k, copies)
        met = change < tol
        # one test per chunk, on plain bools (numpy's any costs more than a small step's arithmetic);
        # a stopped copy's later steps may meet tol again, so only pending copies count
        if True in met.ravel().tolist():
            met = met[:, pending]
            hit = met.any(axis=0)
            # copy by copy: a fancy-indexed read would copy each row once more
            for c, step in zip(pending[hit].tolist(), met.argmax(axis=0)[hit].tolist()):
                result[c] = rows[step, c * n : (c + 1) * n]
            pending = pending[~hit]
        p, done = rows[-1], done + k
    if pending.size:
        for c in pending.tolist():
            result[c] = p[c * n : (c + 1) * n]
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "pagerank_power: %d of %d copies reached t1=%d without meeting tol=%g; largest last L1 change %.3e",
                pending.size, copies, t1, tol, change[-1, pending].max(),
            )
    return result.reshape(op.shape)


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

    One term at a time, each added into the sum as soon as it is damped
    (see the module docstring for why the series takes no chunks).
    """
    if t2 < 0:
        raise ValueError("t2 must be >= 0")
    op = P.operator()
    damp = 1.0 - gamma
    y = op.vector(np.tile(np.asarray(indicator, dtype=float), op.copies))
    z = y  # the i = 0 term, read once before y first changes
    for _ in range(t2):
        term = np.zeros(y.size)  # the unchecked product's zeroed output: y was checked above
        op.right_into(z, term)
        np.multiply(term, damp, out=term)
        y += term
        z = term
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
