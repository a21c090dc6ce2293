import numpy as np
import pytest
from conftest import mind_like_instance

from fairpr import (
    Graph,
    PageRankConfig,
    TransitionMatrix,
    UndefinedCoefficientError,
    build_transition,
    delta_p,
    lfpr_n,
    lfpr_u,
    load_graph,
    load_labels,
    rho_bar,
    rho_tilde,
    spearman,
    FairnessTarget,
)
from fairpr.graph import merge_runs, sink_shares
from fairpr.metrics import aligned


def test_spearman_identity_and_reversal():
    assert spearman([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 1.0
    assert spearman([1.0, 2.0, 5.0], [5.0, 2.0, 1.0]) == -1.0


def test_spearman_classical_fixture():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


def test_spearman_symmetric_and_monotone_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0, 1, 12)
        assert spearman(a, b) == pytest.approx(spearman(b, a), abs=1e-15)
        assert spearman(np.exp(a), b) == pytest.approx(spearman(a, b), abs=1e-12)


def test_spearman_ties_average():
    # ties share average ranks; the coefficient still reflects agreement
    assert spearman([1, 1, 2], [1, 1, 2]) == 1.0


def test_spearman_errors():
    with pytest.raises(UndefinedCoefficientError):
        spearman([1.0], [2.0])
    with pytest.raises(UndefinedCoefficientError):
        spearman([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


def test_delta_p_zero_and_hand_value():
    A = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    assert delta_p(A, A) == 0.0
    B = TransitionMatrix.from_dense([[0, 1], [0.5, 0.5]])
    assert abs(delta_p(B, A) - 0.5) <= 1e-12


def test_delta_p_scaling_linearity():
    A = TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    B1 = TransitionMatrix.from_dense([[0.55, 0.45], [0.5, 0.5]])
    B2 = TransitionMatrix.from_dense([[0.6, 0.4], [0.5, 0.5]])
    assert abs(delta_p(B2, A) - 2 * delta_p(B1, A)) <= 1e-12


def test_delta_p_triangle_sanity():
    A = TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    B = TransitionMatrix.from_dense([[0.7, 0.3], [0.5, 0.5]])
    C = TransitionMatrix.from_dense([[0.9, 0.1], [0.4, 0.6]])
    gap = np.linalg.norm(B.to_dense() - C.to_dense()) / np.linalg.norm(A.to_dense())
    assert delta_p(C, A) <= delta_p(B, A) + gap + 1e-12


def test_delta_p_pattern_union():
    # extended pattern contributes through the union of entries
    A = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    B = TransitionMatrix.from_dense([[0.5, 0.5], [1, 0]])
    expect = np.linalg.norm(B.to_dense() - A.to_dense()) / np.linalg.norm(A.to_dense())
    assert abs(delta_p(B, A) - expect) <= 1e-14


def test_rho_bar_identity_and_scaling():
    groups = load_labels("0 0\n1 0\n2 1\n3 1\n4 1", 5)
    p = np.array([0.3, 0.1, 0.2, 0.25, 0.15])
    assert rho_bar(p, p.copy(), groups) == 1.0
    scaled = p.copy()
    scaled[groups.members(0)] *= 3.0
    scaled[groups.members(1)] *= 0.25
    assert rho_bar(p, scaled, groups) == 1.0


def test_rho_bar_singleton_contributes_one():
    groups = load_labels("0 0\n1 1\n2 1", 3)
    p_old = np.array([0.2, 0.5, 0.3])
    p_new = np.array([0.2, 0.3, 0.5])  # group 1 reversed, group 0 singleton
    expect = (1 / 3) * 1.0 + (2 / 3) * (-1.0)
    assert rho_bar(p_old, p_new, groups) == pytest.approx(expect, abs=1e-15)


def test_rho_bar_weighting():
    groups = load_labels("0 0\n1 0\n2 0\n3 1\n4 1", 5)
    p_old = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    p_new = np.array([0.1, 0.2, 0.3, 0.25, 0.15])  # group 1 reversed
    assert rho_bar(p_old, p_new, groups) == pytest.approx(0.6 * 1.0 + 0.4 * -1.0, abs=1e-15)


def test_rho_tilde_identity_and_reversal():
    A = TransitionMatrix.from_dense([[0.7, 0.3], [0.5, 0.5]])
    assert rho_tilde(A, A) == 1.0  # varied row 1.0; tied row counts as preserved
    B = TransitionMatrix.from_dense([[0.3, 0.7], [0.5, 0.5]])
    assert rho_tilde(B, A) == pytest.approx((-1.0 + 1.0) / 2, abs=1e-15)


def test_rho_tilde_skips_thin_and_sink_rows():
    g = load_graph("0 1\n0 2\n1 0\n0 3")  # vertices 2,3 sinks; vertex 1 single edge
    cfg = PageRankConfig.uniform(4)
    P = build_transition(g, cfg)
    Q = P.copy()
    lo, hi = Q.indptr[0], Q.indptr[1]
    Q.data[lo:hi] = [0.5, 0.3, 0.2]
    # only row 0 is eligible: old uniform vs new varied -> one-sided tie, skipped
    with pytest.raises(UndefinedCoefficientError):
        rho_tilde(P, Q)


def test_rho_tilde_union_of_patterns():
    # lfpr output extends patterns; old entries off-pattern count as zero
    g = load_graph("0 1\n0 2\n1 0\n2 0\n2 1")
    groups = load_labels("0 0\n1 0\n2 1", 3)
    P = build_transition(g, PageRankConfig.uniform(3))
    M = lfpr_n(P, groups, FairnessTarget(phi=[0.5, 0.5])).matrix
    value = rho_tilde(P, M)
    assert -1.0 <= value <= 1.0


def test_rho_tilde_no_eligible_vertex():
    A = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    B = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    with pytest.raises(UndefinedCoefficientError):
        rho_tilde(A, B)  # single-entry rows only


def test_rho_tilde_reads_a_revised_sink_row_as_its_sink_row():
    A = [[0, 0.5, 0.5, 0], [0.1, 0.2, 0.3, 0.4], [0, 0, 0, 1], [0.4, 0.3, 0.2, 0.1]]
    revised = [row[:] for row in A]
    revised[3] = [0.1, 0.2, 0.3, 0.4]
    P_old = TransitionMatrix.from_dense(A)
    stored = TransitionMatrix.from_dense(revised)
    sink = TransitionMatrix.from_dense(revised, [False, False, False, True])
    # rows 0 and 1 keep their rankings, row 2 has one entry, row 3 is reversed
    assert rho_tilde(P_old, stored) == pytest.approx((1.0 + 1.0 - 1.0) / 3, abs=1e-15)
    assert rho_tilde(P_old, sink) == rho_tilde(P_old, stored)
    assert delta_p(sink, P_old) == delta_p(stored, P_old)


def bits(x):
    return np.float64(x).view(np.int64)


def sinky_toy():
    """Five vertices, two of them (3 and 4) sinks."""
    g = load_graph("0 1\n0 2\n1 0\n2 3\n0 4")
    return load_labels("0 0\n1 0\n2 1\n3 1\n4 0", 5), build_transition(g, PageRankConfig.uniform(5))


def mind_like_with_sinks():
    """The 60-vertex mind-like graph with the out-edges of every seventh
    vertex (3, 10, ...) dropped, so nine of its rows are sinks."""
    g, groups, cfg, _ = mind_like_instance(n=60)
    return groups, build_transition(Graph(g.n, g.edges[g.edges[:, 0] % 7 != 3]), cfg)


@pytest.mark.parametrize("method", [lfpr_n, lfpr_u])
@pytest.mark.parametrize("instance", [sinky_toy, mind_like_with_sinks])
def test_metrics_read_spreads_as_their_written_out_rows(instance, method):
    """An lfpr output with sink rows and spreads, as the revised matrix and
    as the original: ``delta_p`` and ``rho_tilde`` give bitwise what they
    give for a copy that stores the rows ``entries`` writes out, and
    ``delta_p`` is the dense ||B - A||_F / ||A||_F."""
    groups, P = instance()
    R = method(P, groups, FairnessTarget.from_lead_share(0.3, 2)).matrix
    assert R.has_spreads and R.sink_mask.any()
    keys, weights = R.entries(~R.sink_mask)
    indptr = np.searchsorted(keys, np.arange(R.n + 1) * R.n)
    S = TransitionMatrix(R.n, indptr, keys % R.n, weights, shares=sink_shares(R.sink_mask, R.sink_row))
    assert not S.has_spreads and np.array_equal(S.to_dense(), R.to_dense())
    for old, new, old_s, new_s in ((P, R, P, S), (R, P, S, P)):
        assert bits(delta_p(new, old)) == bits(delta_p(new_s, old_s))
        assert bits(rho_tilde(old, new)) == bits(rho_tilde(old_s, new_s))
        A, B = old.to_dense(), new.to_dense()
        want = np.linalg.norm(B - A) / np.linalg.norm(A)
        assert abs(delta_p(new, old) - want) <= 1e-14 * want


def unique_merge(x, y):
    """The union of two ascending runs by np.unique, the form ``merge_runs``
    stands in for: (keys, where x's keys sit, where y's keys sit)."""
    keys, _, slot = np.unique(np.concatenate([x, y]), return_index=True, return_inverse=True)
    return keys, slot[: len(x)], slot[len(x) :]


def test_merge_matches_unique_on_ascending_runs():
    """``merge_runs`` gives np.unique's union, and through ``aligned``'s
    cumulative count np.unique's slots, on empty, disjoint, equal, nested
    and interleaved runs, either run the longer; equal keys keep run order."""
    rng = np.random.default_rng(91)
    runs = [
        ([], []),
        ([], [3, 8]),
        ([0, 5, 9], [0, 5, 9]),
        ([0, 1, 2], [10, 11]),
        ([10, 11], [0, 1, 2]),
        ([2, 4, 6, 8], [1, 3, 5, 7, 9]),
        ([0, 1000], [1, 2, 3, 999]),
        ([5], [5]),
    ]
    for _ in range(200):
        pool = rng.choice(int(rng.integers(60, 500)), int(rng.integers(0, 60)), replace=False)
        cut = rng.random(pool.size)
        share = rng.random()
        runs.append((np.sort(pool[cut < share + 0.2]), np.sort(pool[cut > share - 0.2])))
    for x, y in runs:
        x, y = np.asarray(x, np.int64), np.asarray(y, np.int64)
        merged, order, first = merge_runs([x, y])
        assert np.array_equal(merged, np.concatenate([x, y])[order]), (x, y)
        assert (np.diff(order)[~first[1:]] > 0).all(), (x, y)
        slot = np.empty(len(order), np.intp)
        slot[order] = np.cumsum(first) - 1
        keys, at_x, at_y = merged[first], slot[: len(x)], slot[len(x) :]
        want = unique_merge(x, y)
        assert np.array_equal(keys, want[0]) and keys.dtype == want[0].dtype, (x, y)
        assert np.array_equal(at_x, want[1]) and np.array_equal(at_y, want[2]), (x, y)


def test_aligned_keeps_keys_that_one_side_has():
    """Keys that only one matrix writes out, stored or as shares, sit in the
    union with weight 0 on the other side; rows that are sinks on both sides
    are left out. The reference is the two dense matrices."""
    sinks = [False, False, False, True]
    old = TransitionMatrix.from_dense([[0, .5, .5, 0], [1, 0, 0, 0], [0, 0, 0, 1], [.25] * 4], sinks)
    # row 0 drops (0, 1) and gains (0, 3); row 1 is half stored, half a share of vector 1
    vectors = np.array([[.25] * 4, [0, 0, .5, .5]])
    shares = (vectors, [3, 1], [0, 1], [1.0, 0.5])
    new = TransitionMatrix(4, [0, 2, 3, 4, 4], [2, 3, 0, 3], [.5, .5, .5, 1.0], shares=shares)
    A, B = old.to_dense()[:3].ravel(), new.to_dense()[:3].ravel()
    want = np.flatnonzero((A != 0) | (B != 0))
    for (P, Q), (a, b) in (((new, old), (B, A)), ((old, new), (A, B))):
        keys, w_p, w_q = aligned(P, Q)
        assert np.array_equal(keys, want) and keys.dtype == np.int64
        assert np.array_equal(w_p, a[want]) and np.array_equal(w_q, b[want])
        assert set(keys.tolist()) - set(P.entries(~P.sink_mask)[0].tolist())
