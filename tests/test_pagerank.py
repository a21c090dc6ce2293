import logging
import re

import numpy as np
import pytest
import scipy.sparse as sp

import fairpr.graph
import fairpr.pagerank

from conftest import random_instance, random_sinky_instance
from fairpr import (
    FairnessTarget,
    OracleSizeError,
    PageRankConfig,
    TransitionMatrix,
    group_scores,
    lfpr_n,
    lfpr_u,
    load_graph,
    load_labels,
    build_transition,
    neumann_y,
    pagerank_direct,
    pagerank_power,
    pagerank_residual,
)
from fairpr.graph import WalkOperator

GAMMA = 0.15


def appendix_fixture():
    """The 3-vertex counterexample matrices and their closed-form vectors."""
    P1 = TransitionMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    P2 = TransitionMatrix.from_dense([[0, 0, 1], [0, 0, 1], [1, 0, 0]])
    P3 = TransitionMatrix.from_dense((P1.to_dense() + P2.to_dense()) / 2.0)
    a = (GAMMA**2 - 3 * GAMMA + 3) / (3 * (2 - GAMMA))
    b = (3 - 2 * GAMMA) / (3 * (2 - GAMMA))
    c = GAMMA / 3
    closed = {
        "P1": np.array([a, b, c]),
        "P2": np.array([a, c, b]),
        "P3": np.full(3, 1.0 / 3.0),
    }
    return {"P1": P1, "P2": P2, "P3": P3}, closed


def test_power_two_cycle_symmetric():
    P = build_transition(load_graph("0 1\n1 0"), PageRankConfig.uniform(2))
    p = pagerank_power(P, PageRankConfig.uniform(2), t1=300, tol=1e-14)
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_power_matches_closed_forms():
    mats, closed = appendix_fixture()
    cfg = PageRankConfig.uniform(3, GAMMA)
    for name in ("P1", "P2", "P3"):
        p = pagerank_power(mats[name], cfg, t1=500, tol=1e-14)
        assert np.abs(p - closed[name]).max() <= 1e-9, name


def test_direct_matches_closed_forms():
    mats, closed = appendix_fixture()
    cfg = PageRankConfig.uniform(3, GAMMA)
    for name in ("P1", "P2", "P3"):
        p = pagerank_direct(mats[name], cfg)
        assert np.abs(p - closed[name]).max() <= 1e-12, name


def test_power_vs_direct_randomized():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        _, _, cfg, P = random_sinky_instance(rng, n, 2)
        pp = pagerank_power(P, cfg, t1=600, tol=1e-13)
        pd = pagerank_direct(P, cfg)
        assert np.abs(pp - pd).max() <= 1e-9
        assert abs(pp.sum() - 1.0) <= 1e-10
        assert pagerank_residual(P, cfg, pp) <= 1e-10


def test_direct_size_guard():
    n = 5001
    tm = TransitionMatrix(n, np.arange(n + 1), np.arange(n), np.ones(n))
    with pytest.raises(OracleSizeError):
        pagerank_direct(tm, PageRankConfig.uniform(n))


def test_neumann_geometric_series_on_self_loops():
    n = 6
    tm = TransitionMatrix(n, np.arange(n + 1), np.arange(n), np.ones(n))
    y = neumann_y(tm, np.ones(n), GAMMA, t2=50)
    expect = (1.0 - 0.85**51) / 0.15
    assert np.abs(y - expect).max() <= 1e-12
    assert abs(expect - 6.66493) <= 1e-3


def test_neumann_zero_terms_is_indicator():
    rng = np.random.default_rng(5)
    _, groups, _, P = random_sinky_instance(rng, 8, 2)
    ind = groups.indicator(0)
    assert np.array_equal(neumann_y(P, ind, GAMMA, t2=0), ind)


def test_neumann_truncation_error_bound():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        _, groups, _, P = random_sinky_instance(rng, n, 2)
        ind = groups.indicator(int(rng.integers(2)))
        t2 = int(rng.integers(5, 40))
        y = neumann_y(P, ind, GAMMA, t2)
        exact = np.linalg.solve(np.eye(P.n) - (1 - GAMMA) * P.to_dense(), ind)
        rel = np.linalg.norm(y - exact) / np.linalg.norm(exact)
        # crude geometric envelope: column mass of P^i stays bounded on
        # these generators, so the tail is close to (1-gamma)^(t2+1)/gamma
        assert rel <= (1 - GAMMA) ** (t2 + 1) / GAMMA


def test_group_scores_basic():
    groups = load_labels("0 0\n1 1", 2)
    assert np.allclose(group_scores(np.array([0.5, 0.5]), groups), [0.5, 0.5])


def test_group_scores_remark_bounds():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(4, 50))
        K = int(rng.choice([2, 3]))
        _, groups, cfg, P = random_sinky_instance(rng, n, K)
        p = pagerank_power(P, cfg, t1=400, tol=1e-13)
        scores = group_scores(p, groups)
        assert abs(scores.sum() - 1.0) <= 1e-10
        for k in range(groups.K):
            vk = float(groups.indicator(k) @ cfg.restart_vector)
            assert scores[k] >= cfg.gamma * vk - 1e-12
            assert scores[k] <= 1 - cfg.gamma + cfg.gamma * vk + 1e-12


def dense_power(P, cfg, t1):
    A = P.to_dense()
    p = np.full(P.n, 1.0 / P.n)
    for _ in range(t1):
        p = (1.0 - cfg.gamma) * (A.T @ p) + cfg.gamma * cfg.restart_vector
    return p


def dense_series(P, indicator, gamma, t2):
    A = P.to_dense()
    z = indicator.copy()
    y = z.copy()
    for _ in range(t2):
        z = (1.0 - gamma) * (A @ z)
        y += z
    return y


def sinky_operator_instances(rng, count):
    """Random sinky matrices of four kinds in turn: sink rows standing for
    the uniform restart vector, for a restart vector with zero entries, and
    lfpr_n and lfpr_u outputs, whose sink rows stand for the fair sink
    vector and whose other rows carry shares of the group vectors."""
    for i in range(count):
        g, groups, cfg, P = random_sinky_instance(rng, int(rng.integers(3, 40)), 2)
        if i % 4 == 1:
            v = rng.random(g.n) * (rng.random(g.n) < 0.6) + 1e-3 * (np.arange(g.n) == 0)
            cfg = PageRankConfig(GAMMA, v / v.sum())
            P = build_transition(g, cfg)
        elif i % 4 >= 2:
            P = (lfpr_n, lfpr_u)[i % 2](P, groups, FairnessTarget(phi=rng.dirichlet(np.ones(2)))).matrix
        yield groups, cfg, P


def test_operator_matches_dense_reference():
    rng = np.random.default_rng(606)
    kinds = {"restart sink row": 0, "other sink row": 0, "zeros in sink row": 0, "group spreads": 0}
    for groups, cfg, P in sinky_operator_instances(rng, 160):
        if P.sink_mask.any():
            kinds["restart sink row" if np.array_equal(P.sink_row, cfg.restart_vector) else "other sink row"] += 1
            kinds["zeros in sink row"] += bool((P.sink_row == 0).any())
        kinds["group spreads"] += P.has_spreads
        # L1 gaps relative to the reference's L1 norm (1 for p; y sums to
        # up to n / gamma, and its entries carry rounding of their own size)
        want = dense_power(P, cfg, 60)
        assert np.abs(pagerank_power(P, cfg, t1=60, tol=0.0) - want).sum() <= 1e-14 * np.abs(want).sum()
        ind = groups.indicator(int(rng.integers(2)))
        want = dense_series(P, ind, GAMMA, 40)
        assert np.abs(neumann_y(P, ind, GAMMA, t2=40) - want).sum() <= 1e-14 * np.abs(want).sum()
    assert min(kinds.values()) >= 20, kinds


def test_operator_bitwise_on_sink_free_matrices():
    """Without sink rows each solver step is the damped weights' products,
    entry by entry in the kernels' order, added onto the step's constant
    term. Each solve takes a new operator; an operator's weights are a
    view of ``data``, so it follows changes made in place but not a new
    array."""
    rng = np.random.default_rng(707)

    def power_loop(P, cfg, t1=100, tol=1e-12):
        damp, rows = 1.0 - cfg.gamma, P.entry_rows()
        jump = cfg.gamma * cfg.restart_vector
        p = np.full(P.n, 1.0 / P.n)
        for _ in range(t1):
            nxt = jump.copy()
            np.add.at(nxt, P.indices, (damp * P.data) * p[rows])
            delta = np.abs(nxt - p).sum()
            p = nxt
            if delta < tol:
                break
        return p

    def series_loop(P, indicator, gamma, t2=50):
        damp, rows = 1.0 - gamma, P.entry_rows()
        ind = np.array(indicator, dtype=float)
        y = ind.copy()
        for _ in range(t2):
            z = y
            y = ind.copy()
            np.add.at(y, rows, (damp * P.data) * z[P.indices])
        return y

    for _ in range(40):
        _, groups, cfg, P = random_instance(rng, int(rng.integers(3, 60)), 2)
        assert P.sink_row is None
        ind = groups.indicator(0)
        lo, hi = P.indptr[0], P.indptr[1]
        op = P.operator()
        for step in ("built", "changed in place", "replaced"):
            assert np.array_equal(pagerank_power(P, cfg), power_loop(P, cfg)), step
            assert np.array_equal(neumann_y(P, ind, GAMMA), series_loop(P, ind, GAMMA)), step
            assert (op.data is P.data) == (step != "replaced")
            # reweight row 0, first in place and then as a new array
            w = rng.random(hi - lo) + 0.1
            if step == "built":
                P.data[lo:hi] = w / w.sum()
            else:
                P.data = np.concatenate([w / w.sum(), P.data[hi:]])


def block_products(P, W, x):
    """(left, right) products of the C copies of P's pattern with the rows of
    the weight block W, through scipy's public ``csc @ x`` and ``csr @ x`` on
    block-diagonal matrices: the stored entries P_E, and for each vector v of
    the dense part its shares S_v' (one row per copy) and the vector D_v,
    whose terms (S_v'x)'D_v and S_v(D_v x) add on in vector order."""
    copies = len(np.atleast_2d(W))

    def stack(data, cols):  # one 1 x n CSR row per copy, on the diagonal
        return sp.block_diag([sp.csr_matrix((data, cols, [0, len(cols)]), shape=(1, P.n))] * copies, format="csr")

    PE = sp.block_diag([sp.csr_matrix((w, P.indices, P.indptr), shape=(P.n, P.n)) for w in np.atleast_2d(W)], "csr")
    assert PE.T.format == "csc"
    left, right = PE.T @ x, PE @ x
    for v, vec in enumerate(P.vectors):
        lo, hi = P.share_ptr[v], P.share_ptr[v + 1]
        St = stack(P.share_data[lo:hi], P.share_rows[lo:hi])
        cols = np.flatnonzero(vec)
        D = stack(vec[cols], cols)
        left += D.T @ (St @ x)
        right += St.T @ (D @ x)
    return left, right


def product_instances(rng, sinks, count):
    """``count`` random (groups, cfg, P): without sink rows (``sinks`` False),
    with sink rows (True), or lfpr_u outputs with sink rows and group
    spreads ("lfpr_u")."""
    cases = 0
    while cases < count:
        n = int(rng.integers(3, 60))
        if not sinks:
            _, groups, cfg, P = random_instance(rng, n, 2)
            assert P.sink_row is None
        else:
            _, groups, cfg, P = random_sinky_instance(rng, n, 2)
            if not P.sink_mask.any():
                continue
            if sinks == "lfpr_u":
                P = lfpr_u(P, groups, FairnessTarget(phi=rng.dirichlet(np.ones(2)))).matrix
                if not P.has_spreads:
                    continue
        cases += 1
        yield groups, cfg, P


@pytest.mark.parametrize("copies", [1, 9])
@pytest.mark.parametrize("sinks", [False, True, "lfpr_u"])
def test_kernel_products_match_scipy_bitwise(copies, sinks):
    """``step`` binds scipy's compiled matvec kernels; pin its left and right
    products on zeroed buffers, and ``left`` and ``right``, which call it, to
    the public sparse products of each copy, and its left product over 3
    vectors at once to each vector's, also once the weights change in place
    and once they are replaced. A sink row is a share of vector 0 like any
    other; with ``sinks="lfpr_u"`` the matrix is an lfpr_u output with sink
    rows, so rows share vector 0 (the fair sink vector) and the group
    vectors, whose nonzeros overlap it."""
    rng = np.random.default_rng(808 + copies + 10 * [False, True, "lfpr_u"].index(sinks))
    for _, _, P in product_instances(rng, sinks, 12):
        W = P.data * rng.uniform(0.5, 1.5, size=(copies, P.nnz))
        if copies == 1:
            P.data = W[0]
            op = P.operator()
        else:
            op = WalkOperator(P, W)
        for step in ("built", "changed in place", "replaced"):
            x = rng.standard_normal((3, copies * P.n))
            left, right = block_products(P, op.data, x[0])
            assert np.array_equal(op.left(x[0]), left), step
            assert np.array_equal(op.right(x[0]), right), step
            # the unchecked products add the same into a zeroed buffer
            q, y = np.zeros(copies * P.n), np.zeros(copies * P.n)
            op.step(True)(x[0], q)
            op.step(False)(x[0], y)
            assert np.array_equal(q, left) and np.array_equal(y, right), step
            # three vectors laid out (size, 3): vector r's product is every third entry from r
            q = np.zeros(3 * copies * P.n)
            op.step(True, 3)(np.ascontiguousarray(x.T).ravel(), q)
            for r in range(3):
                assert np.array_equal(q[r::3], block_products(P, op.data, x[r])[0]), (step, r)
            if step == "built":
                op.data *= rng.uniform(0.5, 1.5, size=op.data.shape)
            elif copies == 1:
                P.data = P.data * rng.uniform(0.5, 1.5, size=P.nnz)
                op = P.operator()
            else:
                op = WalkOperator(P, op.data * rng.uniform(0.5, 1.5, size=op.data.shape))


@pytest.mark.parametrize("copies", [1, 9])
@pytest.mark.parametrize("sinks", [False, True, "lfpr_u"])
def test_damped_operator_is_the_scaled_matrix_bitwise(copies, sinks):
    """``damped(f)``'s products are bitwise ``block_products`` of the matrix
    whose weights and shares are scaled by f, and building it leaves the
    operator's ``data`` as it is. The solvers take it from the weights as
    they are at each call, so a solve after an in-place change of the
    weights is the solve on the changed weights (the descent's gradient
    terms, summed one after another, rely on this)."""
    rng = np.random.default_rng(818 + copies + 10 * [False, True, "lfpr_u"].index(sinks))
    for groups, cfg, P in product_instances(rng, sinks, 12):
        op = WalkOperator(P, P.data * rng.uniform(0.5, 1.5, size=(copies, P.nnz)) if copies > 1 else None)
        f = rng.uniform(0.1, 1.0)
        kept = op.data.copy()
        damped = op.damped(f)
        assert np.array_equal(op.data.view(np.int64), kept.view(np.int64))
        assert not np.shares_memory(damped.data, op.data) and damped.shape == op.shape
        scaled = TransitionMatrix(P.n, P.indptr, P.indices, P.data, shares=P.shares[:3] + (P.share_data * f,))
        x = rng.standard_normal(copies * P.n)
        left, right = block_products(scaled, op.data * f, x)
        assert np.array_equal(damped.left(x), left) and np.array_equal(damped.right(x), right)
        ind = groups.indicator(0)
        before = pagerank_power(op, cfg, t1=20, tol=0.0), neumann_y(op, ind, GAMMA, 20)
        op.data *= rng.uniform(0.5, 1.5, size=op.data.shape)
        fresh = WalkOperator(P, op.data.copy())
        after = pagerank_power(op, cfg, t1=20, tol=0.0), neumann_y(op, ind, GAMMA, 20)
        assert np.array_equal(after[0], pagerank_power(fresh, cfg, t1=20, tol=0.0))
        assert np.array_equal(after[1], neumann_y(fresh, ind, GAMMA, 20))
        assert not np.array_equal(after[0], before[0]) and not np.array_equal(after[1], before[1])


def test_wrong_length_vectors_raise_and_inputs_stay_unmodified():
    rng = np.random.default_rng(909)
    _, groups, cfg, P = random_sinky_instance(rng, 20, 2)
    block = WalkOperator(P, np.tile(P.data, (3, 1)))
    for op in (P.operator(), block):
        for bad in (op.copies * P.n - 1, op.copies * P.n + 1, 2):
            with pytest.raises(ValueError):
                op.left(np.ones(bad))
            with pytest.raises(ValueError):
                op.right(np.ones(bad))
            with pytest.raises(ValueError):
                pagerank_power(op, cfg, start=np.full(bad, 1.0 / P.n))
    for bad in (P.n - 1, P.n + 1):
        with pytest.raises(ValueError):
            neumann_y(P, np.ones(bad), GAMMA)
        with pytest.raises(ValueError):
            neumann_y(block, np.ones(bad), GAMMA)
        with pytest.raises(ValueError):
            pagerank_residual(P, cfg, np.full(bad, 1.0 / P.n))
    # a strided or integer vector is read as its contiguous float64 copy
    x = rng.standard_normal(2 * P.n)
    assert np.array_equal(P.operator().left(x[::2]), P.operator().left(x[::2].copy()))
    assert np.array_equal(P.operator().right(np.arange(P.n)), P.operator().right(np.arange(P.n, dtype=float)))
    # the solvers never write into their inputs, and each result is a new array
    start = rng.random((3, P.n))
    start /= start.sum(axis=1, keepdims=True)
    kept = start.copy()
    first = pagerank_power(block, cfg, start=start)
    second = pagerank_power(block, cfg, start=first)
    assert np.array_equal(start, kept)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, start)
    one, two = pagerank_power(P, cfg), pagerank_power(P, cfg)
    assert np.array_equal(one, two) and not np.shares_memory(one, two)
    ind = groups.indicator(0)
    ind_kept = ind.copy()
    neumann_y(P, ind, GAMMA)
    assert np.array_equal(ind, ind_kept)


def test_malformed_pattern_is_refused():
    """The compiled kernels behind the products and ``to_dense`` index without
    bounds checks, so a matrix checks its pattern when it is built."""
    for indptr, indices in (([0, 1, 2], [0, 5]), ([0, 1, 2], [0, -1]), ([0, 2, 1], [0, 1]), ([0, 1, 3], [0, 1])):
        with pytest.raises(ValueError, match="malformed"):
            TransitionMatrix(2, indptr, indices, [1.0, 1.0])
    # nor may the weights outrun the pattern, one copy or a block
    P = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="weights of length 3"):
        WalkOperator(P, np.ones((4, 3)))
    P.data = np.ones(3)
    with pytest.raises(ValueError, match="weights of length 3"):
        P.operator()


def test_wrong_length_vectors_raise_before_any_kernel(monkeypatch):
    """The solvers' products skip the length check, so the solvers check
    ``start`` and ``indicator`` once, before the first product."""
    rng = np.random.default_rng(910)
    _, _, cfg, P = random_sinky_instance(rng, 20, 2)
    block = WalkOperator(P, np.tile(P.data, (3, 1)))

    def kernel(*args):
        raise AssertionError("a kernel ran on an unchecked vector")

    monkeypatch.setattr(fairpr.graph, "csc_matvec", kernel)
    monkeypatch.setattr(fairpr.graph, "csr_matvec", kernel)
    for op in (P, block):
        size = op.operator().copies * P.n
        for bad in (size - 1, size + 1):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pagerank_power(op, cfg, start=np.full(bad, 1.0 / P.n))
        for bad in (P.n - 1, P.n + 1):
            for t2 in (0, 1):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    neumann_y(op, np.ones(bad), GAMMA, t2)


def test_neumann_y_names_the_indicator_and_n(karate):
    """A wrong indicator fails naming its own shape and n, not the vector
    tiled over the copies. The starts are one (n,) vector, or exactly the
    operator's shape: a block of n entries in another shape is refused too."""
    _, _, _, P = karate
    block = WalkOperator(P, np.tile(P.data, (9, 1)))
    with pytest.raises(ValueError, match=r"^dimension mismatch: indicator of shape \(35,\) for n = 34$"):
        neumann_y(block, np.ones(35), GAMMA)
    with pytest.raises(ValueError, match=r"^dimension mismatch: indicator of shape \(2, 17\) for n = 34$"):
        neumann_y(P, np.ones((2, 17)), GAMMA)
    one = WalkOperator(P, P.data[None])  # one stacked copy: its shape is (1, 34)
    for op, shape in (
        (P, (1, 34)), (one, (2, 17)), (one, (2, 34)), (block, (9 * 34,)), (block, (8, 34)),
        (block, (9, 35)), (block, (34, 9)), (block, (1, 34)), (block, (1, 9, 34)),
    ):
        want = re.escape(f"dimension mismatch: indicator of shape {shape} for n = 34")
        with pytest.raises(ValueError, match=f"^{want}$"):
            neumann_y(op, np.ones(shape), GAMMA)
    for op in (P, one, block):  # the accepted shapes
        assert neumann_y(op, np.ones(34), GAMMA, 3).shape == op.operator().shape
        assert neumann_y(op, np.ones(op.operator().shape), GAMMA, 3).shape == op.operator().shape


def test_one_chunk_rule_bounds_both_solvers(monkeypatch, karate):
    """A chunk takes as many steps as fit in an eighth of CHUNK_BUDGET, or
    else up to CHUNK_STEPS within the whole budget, and at least one: a t2 =
    50 series over 9 karate copies is one chunk, a block past the budget
    takes one step per chunk."""
    budget, steps = fairpr.pagerank.CHUNK_BUDGET, fairpr.pagerank.CHUNK_STEPS
    rule = fairpr.pagerank._chunk_steps
    assert rule(0) == rule(1) == budget // steps
    assert rule(9 * 34) == budget // steps // (9 * 34) == 53
    assert rule(budget // steps // steps) == steps
    assert rule(budget // steps // steps + 1) == steps  # fewer fit in the eighth: CHUNK_STEPS in the whole
    assert rule(budget // steps + 1) == steps - 1
    assert rule(budget) == rule(budget + 1) == rule(10**9) == 1
    _, groups, _, P = karate
    block = WalkOperator(P, np.tile(P.data, (9, 1)))
    lengths = []
    fill = fairpr.pagerank._fill

    def counted(product, x, rows, constant):
        lengths.append(len(rows))
        fill(product, x, rows, constant)

    monkeypatch.setattr(fairpr.pagerank, "_fill", counted)
    neumann_y(block, groups.indicator(0), GAMMA, 50)
    assert lengths == [50]
    del lengths[:]
    monkeypatch.setattr(fairpr.pagerank, "CHUNK_BUDGET", 9 * 34 - 1)
    neumann_y(block, groups.indicator(0), GAMMA, 5)
    assert lengths == [1] * 5


def test_restart_vector_of_another_length_is_refused(karate):
    """A restart vector whose length is not the matrix's n fails naming both
    lengths, as ``build_transition`` does, alone, in a block of restarts and
    over stacked copies, instead of failing to broadcast."""
    _, groups, cfg, P = karate
    short = PageRankConfig.uniform(33, GAMMA)
    block = WalkOperator(P, np.tile(P.data, (8, 1)))
    for op, restarts in ((P, short), (P, [cfg, short]), (block, short), (block, [short, cfg])):
        with pytest.raises(ValueError, match="^restart vector has length 33, matrix has 34 vertices$"):
            pagerank_power(op, restarts)
    assert pagerank_power(block, [cfg, cfg]).shape == (2, 8, 34)


def test_solver_step_counts_and_score_lengths_are_checked(karate):
    _, groups, cfg, P = karate
    with pytest.raises(ValueError, match="^t1 must be >= 1$"):
        pagerank_power(P, cfg, t1=0)
    with pytest.raises(ValueError, match="^t2 must be >= 0$"):
        neumann_y(P, groups.indicator(0), GAMMA, t2=-1)
    with pytest.raises(ValueError, match="^score vector length does not match label count$"):
        group_scores(np.full(33, 1 / 33), groups)


# Step-by-step references for the solvers, through the damped operator: one
# product added onto a fresh copy of the step's constant term, and for the
# power iteration one convergence test, per step.


def stepwise_power(P, cfg, t1=100, tol=1e-12, start=None):
    """The power iteration one step at a time; also returns the step at
    which each copy stopped (t1 for a copy that never met tol)."""
    op = P.operator().damped(1.0 - cfg.gamma)
    rows = (op.copies, op.n)
    jump = np.tile(cfg.gamma * cfg.restart_vector, op.copies)
    p = op.vector(np.full(op.copies * op.n, 1.0 / op.n) if start is None else np.reshape(start, -1))
    gap = np.empty(op.copies * op.n)
    gaps = gap.reshape(rows)
    stopped = None
    stops = np.full(op.copies, t1)
    for step in range(1, t1 + 1):
        nxt = jump.copy()
        op.step(True)(p, nxt)
        np.subtract(nxt, p, out=gap)
        np.abs(gap, out=gap)
        met = np.add.reduce(gaps, axis=1) < tol
        if stopped is not None:
            nxt.reshape(rows)[stopped] = p.reshape(rows)[stopped]
            met |= stopped
        stops[met & (stops == t1)] = step
        p = nxt
        flags = met.tolist()
        if all(flags):
            break
        if any(flags):
            stopped = met
    return p.reshape(op.shape), stops


def stepwise_series(P, indicator, gamma, t2=50):
    """The series in Horner order one step at a time: y <- 1_k + (1-gamma) P y,
    from one (n,) start for every copy or one start per copy."""
    op = P.operator().damped(1.0 - gamma)
    ind = op.vector(np.broadcast_to(np.asarray(indicator, dtype=float), op.shape).ravel())
    y = ind.copy()
    for _ in range(t2):
        nxt = ind.copy()
        op.step(False)(y, nxt)
        y = nxt
    return y.reshape(op.shape)


def stochastic_block(rng, P, copies):
    """``copies`` row-stochastic reweightings of P's pattern, one per row, so
    that the copies converge at different steps."""
    W = P.data * rng.uniform(0.2, 5.0, size=(copies, P.nnz))
    counts = np.diff(P.indptr)
    W /= np.repeat(np.add.reduceat(W, P.indptr[:-1][counts > 0], axis=1), counts[counts > 0], axis=1)
    return W


@pytest.mark.parametrize("steps", [None, 1, 2, 3])
@pytest.mark.parametrize("copies", [0, 1, 9])
@pytest.mark.parametrize("sinks", [False, True, "lfpr_u"])
def test_solvers_match_stepwise_loops_bitwise(monkeypatch, steps, copies, sinks):
    """Every result of the solvers is bitwise the step-by-step loops', at
    step counts around the power iteration's first chunk, with copies that
    stop at different steps, with the chunk length forced to 1, 2 and 3
    through the memory budget (None keeps the default, which fits 46 or
    more steps of these blocks in a chunk), on matrices with sink rows and lfpr_u
    outputs (a dense part). gamma is 0.15, 0.01 and 0.5, and tol goes down
    to where the changes are rounding (1e-15, 1e-17) and 0; the start is
    uniform, random, or one step from every copy's stop. The series starts
    from one shared indicator, and from distinct starts per copy, each
    copy's row bitwise its one-copy call."""
    rng = np.random.default_rng(1616 + 10 * copies + [False, True, "lfpr_u"].index(sinks) + (steps or 0))
    distinct = False  # copies of one solve stopped at different steps
    for case, gamma in enumerate((GAMMA, 0.01, 0.5)):
        n = int(rng.integers(20, 40))
        make = random_sinky_instance if sinks else random_instance
        _, groups, cfg, P = make(rng, n, 2, gamma=gamma)
        assert (P.sink_row is not None) == bool(sinks) or case  # the first sinky instance has sinks
        if sinks == "lfpr_u":
            P = lfpr_u(P, groups, FairnessTarget(phi=rng.dirichlet(np.ones(2)))).matrix
            assert P.has_spreads or case
        op = P if copies == 1 else WalkOperator(P, stochastic_block(rng, P, copies))
        size = copies * P.n
        if steps is not None:
            monkeypatch.setattr(fairpr.pagerank, "CHUNK_BUDGET", steps * size + size // 2)
        # the default budget fits more than CHUNK_STEPS steps of these blocks in its eighth
        most = steps or fairpr.pagerank.CHUNK_BUDGET // fairpr.pagerank.CHUNK_STEPS // max(size, 1)
        assert fairpr.pagerank._chunk_steps(size) == most or copies == 0
        start = rng.random((copies, P.n)) + 0.1
        start /= start.sum(axis=1, keepdims=True)
        if copies == 1:
            start = start[0]
        for tol in (0.0, 1e-8, 1e-12, 1e-15, 1e-17):
            starts = [None, start]
            stops = stepwise_power(op, cfg, 1000, tol, start)[1]
            if 1 < stops.max(initial=1000) < 1000:  # the step before the last copy's stop
                starts.append(stepwise_power(op, cfg, int(stops.max()) - 1, 0.0, start)[0])
            for t1 in (1, 7, 8, 9, 17, 100):
                for given in starts:
                    want, stops = stepwise_power(op, cfg, t1, tol, given)
                    got = pagerank_power(op, cfg, t1, tol, given)
                    assert got.shape == want.shape == op.operator().shape
                    assert np.array_equal(got, want), (case, t1, tol, len(starts))
                    distinct |= len(set(stops[stops < t1].tolist())) > 1
        ind = groups.indicator(case % 2)
        starts = rng.random(op.operator().shape) + 0.1  # distinct per copy
        for t2 in (0, 1, 7, 8, 9, 50):
            for given in (ind, starts):
                want = stepwise_series(op, given, GAMMA, t2)
                got = neumann_y(op, given, GAMMA, t2)
                assert got.shape == want.shape == op.operator().shape
                assert np.array_equal(got, want), (case, t2)
            if copies > 1:  # each copy's row is the one-copy call with its start
                for c, weights in enumerate(op.data):
                    assert np.array_equal(got[c], neumann_y(P.with_data(weights), starts[c], GAMMA, t2)), (case, t2, c)
    assert distinct or copies < 9


def test_capped_solves_are_logged(caplog):
    """A solve whose copies reach t1 without meeting tol says so at DEBUG,
    once, with the count and the largest last L1 change; one whose copies
    all converge, or one with DEBUG off, logs nothing."""
    rng = np.random.default_rng(1617)
    _, _, cfg, P = random_sinky_instance(rng, 30, 2)
    block = WalkOperator(P, stochastic_block(rng, P, 3))
    # copy 0 starts at its fixed point and stops at once; copies 1 and 2 need more than 3 steps
    start = np.full((3, P.n), 1.0 / P.n)
    start[0] = pagerank_power(block, cfg, t1=1000, tol=0.0)[0]
    t1, tol = 3, 1e-12
    p2, _ = stepwise_power(block, cfg, t1 - 1, 0.0, start)
    p3, stops = stepwise_power(block, cfg, t1, tol, start)
    assert stops.tolist() == [1, 3, 3]
    largest = np.abs(p3[1:] - p2[1:]).sum(axis=1).max()
    with caplog.at_level(logging.DEBUG, logger="fairpr.pagerank"):
        pagerank_power(block, cfg, t1=t1, tol=tol, start=start)
        pagerank_power(block, cfg, t1=500, tol=tol, start=start)
    lines = [r.getMessage() for r in caplog.records if r.name == "fairpr.pagerank"]
    assert lines == [
        f"pagerank_power: 2 of 3 copies reached t1=3 without meeting tol=1e-12; largest last L1 change {largest:.3e}"
    ]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fairpr.pagerank"):
        pagerank_power(block, cfg, t1=t1, tol=tol, start=start)
    assert not [r for r in caplog.records if r.name == "fairpr.pagerank"]


def restart_list(groups, gamma=GAMMA):
    """The uniform restart and the K restarts inside each group."""
    return [PageRankConfig.uniform(groups.n, gamma)] + [
        PageRankConfig.group_restart(groups, ell, gamma) for ell in range(groups.K)
    ]


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("sinks", [False, True])
def test_restart_block_rows_match_single_restart_solves_bitwise(karate, copies, sinks):
    """Row l of a solve over R restarts is bitwise restart l's own solve from
    the same start: on sink-free and sinky instances, with rows that stop in
    the first chunk and past it, and rows capped at t1; and on karate's R = 3
    at tol 1e-17, where the changes at the stops are rounding."""
    rng = np.random.default_rng(1720 + 10 * copies + sinks)
    make = random_sinky_instance if sinks else random_instance
    for case in range(4):
        _, groups, _, P = make(rng, int(rng.integers(20, 40)), 3) if case < 3 else karate
        restarts = restart_list(groups)
        R = len(restarts)
        op = P if copies == 1 else WalkOperator(P, stochastic_block(rng, P, copies))
        shape = op.operator().shape
        start = rng.random((R,) + shape) + 0.1
        start /= start.sum(axis=-1, keepdims=True)
        # restart 1 starts on its fixed point (every copy stops at step 1), the others far off
        start[1] = pagerank_power(op, restarts[1], t1=1000, tol=0.0)
        tol = 1e-8 if case < 3 else 1e-17
        stops = np.concatenate([stepwise_power(op, cfg, 1000, tol, s)[1] for cfg, s in zip(restarts, start)])
        assert stops.min() == 1 and stops.max() > fairpr.pagerank.CHUNK_STEPS  # in the first chunk and past it
        for t1 in (1, 5, int(stops.max()) - 1, int(stops.max()), 100):
            for given in (None, start):
                got = pagerank_power(op, restarts, t1=t1, tol=tol, start=given)
                assert got.shape == (R,) + shape
                for ell, cfg in enumerate(restarts):
                    alone = pagerank_power(op, cfg, t1=t1, tol=tol, start=None if given is None else given[ell])
                    assert np.array_equal(got[ell], alone), (case, t1, ell)
        # a one-restart sequence is the one-config solve with a leading axis
        one = pagerank_power(op, restarts[:1], start=start[:1])
        assert one.shape == (1,) + shape and np.array_equal(one[0], pagerank_power(op, restarts[0], start=start[0]))


def test_restart_block_checks_its_input_before_any_kernel(monkeypatch):
    """A restart block checks ``start`` against all R restarts, and refuses
    restarts that do not share gamma and an empty list, before any product."""
    rng = np.random.default_rng(1721)
    _, groups, _, P = random_sinky_instance(rng, 20, 2)
    block = WalkOperator(P, np.tile(P.data, (3, 1)))
    restarts = restart_list(groups)

    def kernel(*args):
        raise AssertionError("a kernel ran on an unchecked vector")

    monkeypatch.setattr(fairpr.graph, "csc_matvec", kernel)
    for op in (P, block):
        size = len(restarts) * op.operator().copies * P.n
        for bad in (size - 1, size + 1, size // len(restarts)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pagerank_power(op, restarts, start=np.full(bad, 1.0 / P.n))
        with pytest.raises(ValueError, match="share gamma"):
            pagerank_power(op, [restarts[0], PageRankConfig.uniform(P.n, 0.2)])
        with pytest.raises(ValueError, match="no restart"):
            pagerank_power(op, [])


def test_capped_solves_of_a_restart_block_name_their_restarts(caplog):
    """Over several restarts the capped-solve line also names the restarts
    that hold the capped copies."""
    rng = np.random.default_rng(1722)
    _, groups, _, P = random_sinky_instance(rng, 30, 2)
    restarts = restart_list(groups)
    block = WalkOperator(P, stochastic_block(rng, P, 2))
    start = np.full((3, 2, P.n), 1.0 / P.n)
    start[1] = pagerank_power(block, restarts[1], t1=1000, tol=0.0)  # restart 1 stops at once
    t1, tol = 3, 1e-12
    last = [stepwise_power(block, restarts[ell], t1, tol, start[ell])[0] for ell in (0, 2)]
    before = [stepwise_power(block, restarts[ell], t1 - 1, 0.0, start[ell])[0] for ell in (0, 2)]
    largest = max(np.abs(a - b).sum(axis=1).max() for a, b in zip(last, before))
    with caplog.at_level(logging.DEBUG, logger="fairpr.pagerank"):
        pagerank_power(block, restarts, t1=t1, tol=tol, start=start)
    lines = [r.getMessage() for r in caplog.records if r.name == "fairpr.pagerank"]
    assert lines == [
        "pagerank_power: 4 of 6 copies (restarts 0, 2) reached t1=3 without meeting tol=1e-12; "
        f"largest last L1 change {largest:.3e}"
    ]


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_restart_block_over_nine_copies_matches_stepwise_bitwise(monkeypatch, steps):
    """An R = 3 restart block over 9 copies with sink rows, from a given
    start, with the chunk length forced to 1, 2 and 3 through the memory
    budget: row l of the block is bitwise ``stepwise_power`` of restart l,
    where every step of the (C n, R) block is one product call."""
    rng = np.random.default_rng(1723 + steps)
    _, groups, _, P = random_sinky_instance(rng, 30, 2)
    assert P.sink_mask.any()
    restarts = restart_list(groups)
    R, C = len(restarts), 9
    block = WalkOperator(P, stochastic_block(rng, P, C))
    size = R * C * P.n
    monkeypatch.setattr(fairpr.pagerank, "CHUNK_BUDGET", steps * size + size // 2)
    assert fairpr.pagerank._chunk_steps(size) == steps
    start = rng.random((R, C, P.n)) + 0.1
    start /= start.sum(axis=-1, keepdims=True)
    start[1, :3] = pagerank_power(block, restarts[1], t1=1000, tol=0.0)[:3]  # three copies stop at step 1
    calls = []
    step = WalkOperator.step

    def counted(op, left, vectors=1):
        """The block's product, counting its calls; the one-vector products of the references go uncounted."""
        product = step(op, left, vectors)
        return product if vectors == 1 else lambda x, y: calls.append(1) or product(x, y)

    monkeypatch.setattr(WalkOperator, "step", counted)
    for t1, tol in ((1, 1e-8), (4, 0.0), (7, 1e-8), (100, 1e-10), (300, 1e-10)):
        for given in (None, start):
            del calls[:]
            got = pagerank_power(block, restarts, t1=t1, tol=tol, start=given)
            assert got.shape == (R, C, P.n)
            stops = []
            for ell, cfg in enumerate(restarts):
                want, stop = stepwise_power(block, cfg, t1, tol, None if given is None else given[ell])
                assert np.array_equal(got[ell], want), (t1, tol, ell)
                stops.append(stop)
            # one call per step taken: the final chunk ends at the last copy's predicted stop, which on
            # these solves is its stop, so no step is discarded (whole chunks of ``steps`` took 78 for 77)
            assert len(calls) == min(t1, int(np.max(stops))), (t1, tol)
    assert given is start and np.unique(np.concatenate(stops)).size > 2  # copies stop at several steps
