"""Random walk with restart: power iteration, a dense direct-solve oracle,
and the truncated geometric-series vectors used by the loss gradients.

Every product with P goes through ``P.operator()``: the stored entries as
raw CSR arrays over a view of ``P.data`` (built once per solve, so no step
rebuilds the matrix), multiplied by scipy's compiled matvec kernels called
directly, plus one low-rank term for the whole dense part S D, p'P = p'P_E
+ (S'p)'D and Pz = P_E z + S(Dz), by the same kernels. A sink row is share
1 of vector 0 like any other share (the dangling rows of Langville & Meyer,
"Deeper Inside PageRank", 2004), and no product calls BLAS.

Both solvers run the fixed-point (Richardson) step x <- c + (1-gamma) P x
(Gleich, "PageRank beyond the Web", SIAM Review 2015) as one kernel call
per step. Each call takes the operator's ``damped(1 - gamma)`` form once,
from its weights as they are then, and the kernels add each damped product
into a row that already holds the constant term c. The power iteration's c
is the jump gamma v. The series' c is 1_k and it starts from 1_k, so its
t2 steps sum the truncated series sum_{i<=t2} ((1-gamma) P)^i 1_k in Horner
order. The steps run in chunks, and ``_fill`` takes a chunk's steps in
both solvers, into the rows of one of two buffers that the chunks take in
turn, filled with c once per chunk. One rule bounds a chunk's steps
(``_chunk_steps``): as many as fit in an eighth of ``CHUNK_BUDGET``
entries (2^14), or else up to ``CHUNK_STEPS`` within the whole budget
(1 MiB), and at least one. So a karate series of t2 = 50 steps over 9
copies is one chunk, and a block past the budget takes one step per chunk.
The series' chunks take that many steps and it tests none; the chunk
length changes no bit of either result. The solvers check their start
vector once, and then each step is one call of the operator's unchecked
product ``WalkOperator.step``: without a dense part, the compiled kernel
itself.

The power iteration tests one step per chunk, its last. The walk contracts
the L1 change: (1-gamma) P is nonnegative with row sums at most 1 +
``ROW_SUM_TOL``, so ||x_{s+1} - x_s||_1 <= (1-gamma)(1 + 1e-12)
||x_s - x_{s-1}||_1, and no copy's change grows from one step to the next,
up to rounding. So a copy whose last change in a chunk is not below tol met
tol at no earlier step of it either. Only when some pending copy's last
change falls below the trigger tol + 64 n eps (eps the float64 epsilon: the
margin keeps rounding-level growth of the change from hiding a stop) is
every step of the chunk tested, in one L1 reduction, for each copy's first
step below tol. The first chunk takes ``CHUNK_STEPS`` steps and measures
its last two; each later chunk ends where the slowest pending copy is
predicted to meet tol, from that copy's last two measured changes at a
rate of at most 1 - gamma per step, within the chunk rule's bound.

``pagerank_power``, ``neumann_y`` and ``group_scores`` also take a
``WalkOperator`` over C stacked copies of one pattern (the descent runs its
step-size grid that way) and then work on (C, n) blocks, one product per
step for all copies; ``neumann_y`` then takes one start shared by the
copies or one per copy. Each copy's row is bitwise what the same call on that
copy alone returns: the power iteration stops each copy on its own, and a
1-D call is the one-copy case.

``pagerank_power`` also solves R restarts that share gamma at once (the
group-adapted objective restarts inside each of the K groups; the batching
of personalized PageRank vectors of Jeh & Widom, "Scaling personalized web
search", WWW 2003). It iterates one (C n, R) block, copy-major with the
restart as the last axis, so that each step is one product call for all
restarts (``step(True, R)``, the kernels' vector axis) into rows that hold
the jump vectors: the weights are shared, never tiled R times. One restart
is the block with R = 1. A chunk's changes are tested for the whole block
at once, each (restart, copy) row of n values reduced contiguously as a
one-restart solve reduces it. Every row stops on its own, so row l is
bitwise restart l's own solve, and the result is an (R, n) or (R, C, n)
block. ``group_scores`` reads any leading axes.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Sequence

import numpy as np

from .graph import GroupAssignment, PageRankConfig, TransitionMatrix, WalkOperator

DIRECT_SOLVE_LIMIT = 5000
CHUNK_STEPS = 8  # the power iteration's first chunk; any chunk's steps when fewer fit in the budget's eighth
CHUNK_BUDGET = 2**17  # entries of a chunk's steps, 1 MiB of float64: past CHUNK_STEPS steps, an eighth of it

log = logging.getLogger(__name__)


class OracleSizeError(ValueError):
    """Dense direct solve requested beyond its size guard."""


def _chunk_steps(size: int) -> int:
    """Most steps per chunk for vectors of ``size`` entries, in both solvers:
    as many as fit in an eighth of ``CHUNK_BUDGET`` entries, or else up to
    ``CHUNK_STEPS`` within the whole budget, and at least one. The eighth
    keeps a chunk's two buffers well inside a 2 MB L2 cache: the whole
    budget made a mind-like sweep slower."""
    size = max(size, 1)
    return max(1, min(CHUNK_STEPS, CHUNK_BUDGET // size), CHUNK_BUDGET // CHUNK_STEPS // size)


def _fill(product, x: np.ndarray, rows: np.ndarray, constant: np.ndarray) -> None:
    """Take one step x <- constant + product(x) per row of the chunk ``rows``
    from ``x``: the rows are filled with ``constant`` once, and each product
    adds into its row from the row before (``x`` for the first, only read)."""
    rows[:] = constant
    for row in rows:
        product(x, row)
        x = row


def pagerank_power(
    P: TransitionMatrix | WalkOperator,
    cfg: PageRankConfig | Sequence[PageRankConfig],
    t1: int = 100,
    tol: float = 1e-12,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Iterate p' = (1-gamma) p'P + gamma v' for at most t1 steps.

    ``cfg`` is one restart, or a sequence of R restarts that share gamma,
    solved together as one (C n, R) block with one product call per step
    (see the module docstring).
    A copy stops at its first step whose L1 change drops below ``tol`` and
    returns that step's iterate; the others go on. Starts from the uniform
    vector (one row per copy) unless ``start`` is given, which is only read.
    Returns a new array: for one restart an (n,) vector, or a (C, n) block
    over C stacked copies; for R restarts an (R, n) or (R, C, n) block,
    whose row l is what restart l alone returns.

    The steps run in chunks, and a chunk's changes are tested once it is
    done (see the module docstring): its last step's change, and each of its
    steps' only when a pending copy's last change is within rounding of
    ``tol``. The chunk after the first ends at the slowest copy's predicted
    stop, so the steps taken past the last copy's stop, which are discarded,
    are few. The copies that reach t1 without meeting ``tol`` are logged at
    DEBUG, with the restarts they belong to (when there are several) and
    their largest last L1 change.
    """
    if t1 < 1:
        raise ValueError("t1 must be >= 1")
    restarts = [cfg] if isinstance(cfg, PageRankConfig) else list(cfg)
    if not restarts:
        raise ValueError("no restart to solve")
    gamma = restarts[0].gamma
    if any(c.gamma != gamma for c in restarts):
        raise ValueError("the restarts of one solve must share gamma")
    op = P.operator().damped(1.0 - gamma)
    R, n, C = len(restarts), op.n, op.copies
    for c in restarts:
        if c.restart_vector.size != n:
            raise ValueError(f"restart vector has length {c.restart_vector.size}, matrix has {n} vertices")
    copies = R * C  # the stop test's rows: restart l's copies are rows l C .. l C + C - 1
    span = C * n  # one restart's vectors, one after another, as the operator takes them
    size = copies * n
    # the block is (C n, R), copy-major with the restart last: entry j R + l is entry j of restart l
    jump = np.tile(gamma * np.array([c.restart_vector for c in restarts]).T, (C, 1)).ravel()
    product = op.step(True, R)
    if start is None:
        p = np.full(size, 1.0 / n)
    else:
        p = np.asarray(start, dtype=float)
        if p.size != size:
            raise ValueError(
                f"dimension mismatch: start of shape {np.shape(start)} for {R} restart(s) "
                f"over an operator of size {span}"
            )
        p = np.ascontiguousarray(p.reshape(R, span).T).ravel()
    most = _chunk_steps(size)  # a predicted chunk's steps; the first takes at most CHUNK_STEPS
    buffers = np.empty((2, most, size))  # two, for the reason neumann_y gives
    gaps = np.empty((most, size))  # |step - the step before|, restart-major
    per_copy = gaps.reshape(most * copies, n)  # the same, one contiguous row per step, restart and copy
    into = gaps.reshape(most, R, span)  # the gaps in the steps' shape
    # a last change below this is scanned: rounding may let a change grow by a few ulps of the n terms
    trigger = tol + 64 * n * sys.float_info.epsilon
    decay = -math.log1p(-gamma)  # the least -log of the per-step rate: the walk contracts by 1 - gamma

    def changes(last: int) -> np.ndarray:
        """The (last, copies) L1 changes of the chunk's last ``last`` steps."""
        first = k - last
        if not first:  # the chunk's first step follows ``before``
            np.subtract(steps[0], before, out=into[0])
            first = 1
        np.subtract(steps[first:], steps[first - 1 : -1], out=into[last - k + first : last])
        np.abs(gaps[:last], out=gaps[:last])
        return np.add.reduce(per_copy[: last * copies], axis=1).reshape(last, copies)

    result = np.empty((copies, n))
    pending = list(range(copies))  # the copies that have not met tol
    done, turn, k, measured = 0, 0, min(CHUNK_STEPS, most, t1), None
    while True:
        rows = buffers[turn, :k]
        _fill(product, p, rows, jump)
        done, turn = done + k, 1 - turn
        # the steps restart-major, as (k, R, C n) views of the (C n, R) rows
        steps = rows.reshape(k, span, R).transpose(0, 2, 1)
        before = p.reshape(span, R).T
        change = changes(2 if measured is None and k > 1 else 1)
        last = change[-1].tolist()
        # one test per chunk: the walk lets no copy's change grow, so a copy whose last change is past
        # the trigger met tol at no step of the chunk; else every step is tested, as a stop needs its first
        if True in [last[r] < trigger for r in pending]:
            change = changes(k)
            met = change[:, pending] < tol
            found = np.where(met.any(axis=0), met.argmax(axis=0), -1).tolist()
            # copy by copy (restart l's copy c is every R-th entry from c n R + l): a
            # fancy-indexed read would copy each row once more
            for r, step in zip(pending, found):
                if step >= 0:
                    l, c = divmod(r, C)
                    result[r] = rows[step, c * n * R + l : (c + 1) * n * R : R]
            pending = [r for r, step in zip(pending, found) if step < 0]
        p = rows[-1]
        if not pending or done == t1:
            break
        # the next chunk ends where the slowest pending copy is predicted to meet tol: its change
        # falls as its last two measured ones did, by a rate of at most 1 - gamma per step
        earlier, apart, measured = measured, k, last
        k = min(most, t1 - done)
        if k > 1 and tol > 0:
            if earlier is None:  # after the first chunk, which measured its last two steps
                earlier, apart = change[-2].tolist(), 1
            ahead = max(  # steps to tol, at -log(rate) = log(earlier / last) / apart, or decay if more
                math.log(c / tol) / (max(decay, math.log(e / c) / apart) if e > c else decay)
                for c, e in ((last[r], earlier[r]) for r in pending)
            )
            if ahead < k:
                k = max(1, math.ceil(ahead))
    for r in pending:
        l, c = divmod(r, C)
        result[r] = p[c * n * R + l : (c + 1) * n * R : R]
    if pending and log.isEnabledFor(logging.DEBUG):
        held = "" if R == 1 else " (restarts %s)" % ", ".join(map(str, sorted({r // C for r in pending})))
        log.debug(
            "pagerank_power: %d of %d copies%s reached t1=%d without meeting tol=%g; largest last L1 change %.3e",
            len(pending), copies, held, t1, tol, change[-1, pending].max(),
        )
    return result.reshape(op.shape if isinstance(cfg, PageRankConfig) else (R,) + op.shape)


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
    ``indicator`` is one (n,) start that every stacked copy shares, or one
    start per copy, exactly of the operator's (C, n) shape; it is only read.
    Each copy's row is bitwise the one-copy call with its start.

    The sum runs in Horner order, t2 steps y <- 1_k + (1-gamma) P y from
    y = 1_k, in chunks of one damped product per step (see the module
    docstring).
    """
    if t2 < 0:
        raise ValueError("t2 must be >= 0")
    op = P.operator().damped(1.0 - gamma)
    indicator = np.asarray(indicator, dtype=float)
    if indicator.shape not in ((op.n,), op.shape):
        raise ValueError(f"dimension mismatch: indicator of shape {indicator.shape} for n = {op.n}")
    if indicator.shape != op.shape:  # one start for every copy, copied to each below
        indicator = np.broadcast_to(indicator, op.shape)
    ind = np.ascontiguousarray(indicator).reshape(-1)  # as the unchecked products read it
    product, most = op.step(False), _chunk_steps(ind.size)
    # two buffers, which the chunks take in turn, not one per chunk: a new one of 128 KiB or
    # more is a fresh mapping under glibc's default malloc, whose pages fault in again at every chunk
    buffers = np.empty((2, min(most, t2), ind.size))
    y = ind  # with t2 = 0, the i = 0 term alone
    for done in range(0, t2, most):
        rows = buffers[done // most % 2, : min(most, t2 - done)]
        _fill(product, y, rows, ind)
        y = rows[-1]
    return y.reshape(op.shape)


def group_scores(p: np.ndarray, groups: GroupAssignment) -> np.ndarray:
    """Total score per group: scores[k] = sum of p over group k's vertices;
    one row of K scores per row of a (C, n) or (R, C, n) block."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != groups.n:
        raise ValueError("score vector length does not match label count")
    # copy c's groups are bins c K .. c K + K - 1 (a 1-D p is the one copy);
    # bincount sums each bin in index order
    copies = p.size // groups.n
    bins = (groups.labels + groups.K * np.arange(copies)[:, None]).ravel()
    return np.bincount(bins, weights=p.ravel(), minlength=copies * groups.K).reshape(p.shape[:-1] + (groups.K,))
