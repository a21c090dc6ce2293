import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_instance, random_sinky_instance
from fairpr import (
    FairnessTarget,
    OracleSizeError,
    PageRankConfig,
    TransitionMatrix,
    group_scores,
    lfpr_n,
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
    tm = TransitionMatrix(n, np.arange(n + 1), np.arange(n), np.ones(n), np.zeros(n, bool))
    with pytest.raises(OracleSizeError):
        pagerank_direct(tm, PageRankConfig.uniform(n))


def test_neumann_geometric_series_on_self_loops():
    n = 6
    tm = TransitionMatrix(n, np.arange(n + 1), np.arange(n), np.ones(n), np.zeros(n, bool))
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
    """Random sinky matrices of three kinds in turn: sink rows standing for
    the uniform restart vector, for a restart vector with zero entries, and
    lfpr_n outputs, whose sink rows stand for the fair sink vector."""
    for i in range(count):
        g, groups, cfg, P = random_sinky_instance(rng, int(rng.integers(3, 40)), 2)
        if i % 3 == 1:
            v = rng.random(g.n) * (rng.random(g.n) < 0.6) + 1e-3 * (np.arange(g.n) == 0)
            cfg = PageRankConfig(GAMMA, v / v.sum())
            P = build_transition(g, cfg)
        elif i % 3 == 2:
            P = lfpr_n(P, groups, FairnessTarget(phi=rng.dirichlet(np.ones(2)))).matrix
        yield groups, cfg, P


def test_operator_matches_dense_reference():
    rng = np.random.default_rng(606)
    kinds = {"restart sink row": 0, "other sink row": 0, "zeros in sink row": 0}
    for groups, cfg, P in sinky_operator_instances(rng, 120):
        if P.sink_mask.any():
            kinds["restart sink row" if np.array_equal(P.sink_row, cfg.restart_vector) else "other sink row"] += 1
            kinds["zeros in sink row"] += bool((P.sink_row == 0).any())
        # L1 gaps relative to the reference's L1 norm (1 for p; y sums to
        # up to n / gamma, and its entries carry rounding of their own size)
        want = dense_power(P, cfg, 60)
        assert np.abs(pagerank_power(P, cfg, t1=60, tol=0.0) - want).sum() <= 1e-14 * np.abs(want).sum()
        ind = groups.indicator(int(rng.integers(2)))
        want = dense_series(P, ind, GAMMA, 40)
        assert np.abs(neumann_y(P, ind, GAMMA, t2=40) - want).sum() <= 1e-14 * np.abs(want).sum()
    assert min(kinds.values()) >= 20, kinds


def test_operator_bitwise_on_sink_free_matrices():
    """Without sink rows the products are the plain scipy ones; the
    operator is built once and follows in-place changes of ``data``."""
    rng = np.random.default_rng(707)

    def power_loop(P, cfg, t1=100, tol=1e-12):
        PT = P.to_csr().T
        p = np.full(P.n, 1.0 / P.n)
        for _ in range(t1):
            nxt = (1.0 - cfg.gamma) * (PT @ p) + cfg.gamma * cfg.restart_vector
            delta = np.abs(nxt - p).sum()
            p = nxt
            if delta < tol:
                break
        return p

    def series_loop(P, indicator, gamma, t2=50):
        csr = P.to_csr()
        z = np.array(indicator, dtype=float)
        y = z.copy()
        for _ in range(t2):
            z = (1.0 - gamma) * (csr @ z)
            y += z
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
            assert (P.operator() is op) == (step != "replaced")
            # reweight row 0, first in place and then as a new array
            w = rng.random(hi - lo) + 0.1
            if step == "built":
                P.data[lo:hi] = w / w.sum()
            else:
                P.data = np.concatenate([w / w.sum(), P.data[hi:]])


def block_products(P, W, x):
    """(left, right) products of the C copies of P's pattern with the rows of
    the weight block W, through scipy's public ``csc @ x`` and ``csr @ x`` on
    the block-diagonal matrix, plus the sink rows' rank-one term."""
    blocks = [sp.csr_matrix((w, P.indices, P.indptr), shape=(P.n, P.n)) for w in np.atleast_2d(W)]
    csr = sp.block_diag(blocks, format="csr")
    csc = csr.T
    assert csc.format == "csc"
    left, right = csc @ x, csr @ x
    sinks = np.flatnonzero(P.sink_mask)
    for c in range(len(blocks)):
        span = slice(c * P.n, (c + 1) * P.n)
        if len(sinks):
            left[span] += x[sinks + c * P.n].sum() * P.sink_row
            right[sinks + c * P.n] = P.sink_row @ x[span]
    return left, right


@pytest.mark.parametrize("copies", [1, 9])
@pytest.mark.parametrize("sinks", [False, True])
def test_kernel_products_match_scipy_bitwise(copies, sinks):
    """``left`` and ``right`` call scipy's compiled matvec kernels directly;
    pin them to the public sparse products, also once the weights change in
    place and once they are replaced."""
    rng = np.random.default_rng(808 + copies + 10 * sinks)
    cases = 0
    while cases < 12:
        n = int(rng.integers(3, 60))
        if sinks:
            *_, P = random_sinky_instance(rng, n, 2)
            if not P.sink_mask.any():
                continue
        else:
            *_, P = random_instance(rng, n, 2)
            assert P.sink_row is None
        cases += 1
        W = P.data * rng.uniform(0.5, 1.5, size=(copies, P.nnz))
        if copies == 1:
            P.data = W[0]
            op = P.operator()
        else:
            op = WalkOperator(P, W)
        for step in ("built", "changed in place", "replaced"):
            x = rng.standard_normal(copies * P.n)
            left, right = block_products(P, op.data, x)
            assert np.array_equal(op.left(x), left), step
            assert np.array_equal(op.right(x), right), step
            if step == "built":
                op.data *= rng.uniform(0.5, 1.5, size=op.data.shape)
            elif copies == 1:
                P.data = P.data * rng.uniform(0.5, 1.5, size=P.nnz)
                assert P.operator() is not op
                op = P.operator()
            else:
                op = WalkOperator(P, op.data * rng.uniform(0.5, 1.5, size=op.data.shape))


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
            TransitionMatrix(2, indptr, indices, [1.0, 1.0], [False, False])
    # nor may the weights outrun the pattern, one copy or a block
    P = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="weights of length 3"):
        WalkOperator(P, np.ones((4, 3)))
    P.data = np.ones(3)
    with pytest.raises(ValueError, match="weights of length 3"):
        P.operator()
