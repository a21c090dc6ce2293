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


def test_length_and_size_mismatches_are_refused():
    with pytest.raises(ValueError, match="^vectors must have equal length$"):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    groups = load_labels("0 0\n1 1\n2 0", 3)
    for p_old, p_new in ((np.full(3, 1 / 3), np.full(2, 0.5)), (np.full(2, 0.5), np.full(3, 1 / 3))):
        with pytest.raises(ValueError, match="^score vectors must match the label count$"):
            rho_bar(p_old, p_new, groups)
    A = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    B = TransitionMatrix.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError, match="^matrices must have the same dimension$"):
        aligned(A, B)


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
    scaled[groups.labels == 0] *= 3.0
    scaled[groups.labels == 1] *= 0.25
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
    as the original: ``rho_tilde`` gives bitwise what it gives for a copy
    that stores the rows ``entries`` writes out, ``delta_p`` agrees within
    1e-15 relative (a class item adds count x its square, the copy each
    column's square), and ``delta_p`` is the dense ||B - A||_F / ||A||_F."""
    groups, P = instance()
    R = method(P, groups, FairnessTarget.from_lead_share(0.3, 2)).matrix
    assert R.has_spreads and R.sink_mask.any()
    keys, weights = R.entries(~R.sink_mask)
    indptr = np.searchsorted(keys, np.arange(R.n + 1) * R.n)
    S = TransitionMatrix(R.n, indptr, keys % R.n, weights, shares=sink_shares(R.sink_mask, R.sink_row))
    assert not S.has_spreads and np.array_equal(S.to_dense(), R.to_dense())
    for old, new, old_s, new_s in ((P, R, P, S), (R, P, S, P)):
        stored = delta_p(new_s, old_s)
        assert abs(delta_p(new, old) - stored) <= 1e-15 * stored
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


def expand(items, n):
    """``aligned``'s items written out column by column, as (keys, new,
    old) ascending: a column item on its column, a class item on each
    column of its class that no column item of its row takes, as many as
    its count. Plain Python sets, so no np.unique is reached."""
    keys, width, new, old, count, classes = items
    assert (classes is None) == (width == n)
    rows, j = np.divmod(keys, width)
    column = j < n
    assert count is None or (count[column] == 1).all()
    count = np.ones(len(keys), np.int64) if count is None else count
    keys, w_new, w_old = [rows[column] * n + j[column]], [new[column]], [old[column]]
    for t in np.flatnonzero(~column).tolist():
        taken = set(j[column & (rows == rows[t])].tolist())
        spread = [c for c in np.flatnonzero(classes == j[t] - n).tolist() if c not in taken]
        assert len(spread) == count[t] > 0
        keys.append(rows[t] * n + np.array(spread, np.int64))
        w_new.append(np.full(len(spread), new[t]))
        w_old.append(np.full(len(spread), old[t]))
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    assert (np.diff(keys[order]) > 0).all()
    return keys[order], np.concatenate(w_new)[order], np.concatenate(w_old)[order]


def test_aligned_keeps_keys_that_one_side_has():
    """Keys that only one matrix writes out, stored or as shares, sit in the
    union with weight 0 on the other side; rows that are sinks on both sides
    are left out. The items, expanded into columns, are checked against the
    two dense matrices."""
    sinks = [False, False, False, True]
    old = TransitionMatrix.from_dense([[0, .5, .5, 0], [1, 0, 0, 0], [0, 0, 0, 1], [.25] * 4], sinks)
    # row 0 drops (0, 1) and gains (0, 3); row 1 is half stored, half a share of vector 1
    vectors = np.array([[.25] * 4, [0, 0, .5, .5]])
    shares = (vectors, [3, 1], [0, 1], [1.0, 0.5])
    new = TransitionMatrix(4, [0, 2, 3, 4, 4], [2, 3, 0, 3], [.5, .5, .5, 1.0], shares=shares)
    A, B = old.to_dense()[:3].ravel(), new.to_dense()[:3].ravel()
    want = np.flatnonzero((A != 0) | (B != 0))
    for (P, Q), (a, b) in (((new, old), (B, A)), ((old, new), (A, B))):
        items = aligned(P, Q)
        assert (items.keys % items.width >= 4).any()  # row 1's share of vector 1 is a class item
        keys, w_p, w_q = expand(items, 4)
        assert np.array_equal(keys, want) and keys.dtype == np.int64
        assert np.array_equal(w_p, a[want]) and np.array_equal(w_q, b[want])
        assert set(keys.tolist()) - set(P.entries(~P.sink_mask)[0].tolist())


def merged(P_new, P_old):
    """``aligned`` as the merge of the two key sets gives it, by np.unique."""
    rows = ~(P_new.sink_mask & P_old.sink_mask)
    (x, w_x), (y, w_y) = P_new.entries(rows), P_old.entries(rows)
    keys, at_x, at_y = unique_merge(x, y)
    new, old = np.zeros((2, len(keys)))
    new[at_x], old[at_y] = w_x, w_y
    return keys, new, old


def four_by_four(weights, share_row, share, sink_row, vector):
    """Rows 0-2 stored on one pattern (row ``share_row`` half stored),
    ``share_row`` also carrying ``share`` of ``vector``, row 3 a sink of
    ``sink_row``."""
    indptr, cols = [0, 2, 3, 4, 4], [1, 2, 0, 3]
    shares = (np.array([sink_row, vector]), [3, share_row], [0, 1], [1.0, share])
    return TransitionMatrix(4, indptr, cols, weights, shares=shares)


def test_equal_patterns_align_without_a_merge(monkeypatch):
    """Two matrices on one stored pattern with the same shares (rows, vector
    ids, vector nonzeros) but other weights, share values and vector values
    align without a merge and are pattern subsets of each other at once;
    moving a share to another row still aligns without a merge (the stored
    keys are equal) but takes the full subset test. The items, expanded
    into columns, are checked against the merge and the dense matrices."""
    old = four_by_four([0.5, 0.5, 0.5, 1.0], 1, 0.5, [0.25] * 4, [0, 0, 0.5, 0.5])
    same = four_by_four([0.3, 0.7, 0.2, 1.0], 1, 0.8, [0.1, 0.2, 0.3, 0.4], [0, 0, 0.25, 0.75])
    moved = four_by_four([0.5, 0.5, 1.0, 0.5], 2, 0.5, [0.25] * 4, [0, 0, 0.5, 0.5])
    for M in (old, same, moved):
        M.validate()
    assert same.pattern_equals(old) and moved.pattern_equals(old)
    want_subset, refs = {}, {}
    for P, Q in ((same, old), (old, same), (moved, old), (old, moved)):
        A, B = P.to_dense(), Q.to_dense()
        want_subset[id(P), id(Q)] = not ((A != 0) & (B == 0)).any()
        both = P.sink_mask & Q.sink_mask
        want_keys = np.flatnonzero(((A != 0) | (B != 0)) & ~both[:, None])
        keys, w_p, w_q = expand(aligned(P, Q), 4)
        ref = refs[id(P), id(Q)] = merged(P, Q)
        assert np.array_equal(keys, ref[0]) and np.array_equal(keys, want_keys) and keys.dtype == np.int64
        assert np.array_equal(bits(w_p), bits(ref[1])) and np.array_equal(bits(w_q), bits(ref[2]))
        assert np.array_equal(w_p, A.ravel()[keys]) and np.array_equal(w_q, B.ravel()[keys])
        assert P.pattern_subset_of(Q) == want_subset[id(P), id(Q)]
    assert want_subset[id(same), id(old)] and want_subset[id(old), id(same)]
    assert not want_subset[id(moved), id(old)] and not want_subset[id(old), id(moved)]

    def no_merge(*args, **kwargs):
        raise AssertionError("merged two equal key sets")

    # every pair, as above, with no merge and no grouping of rows (np.unique) to reach
    monkeypatch.setattr("fairpr.metrics.merge_runs", no_merge)
    monkeypatch.setattr(np, "unique", no_merge)
    for P, Q in ((same, old), (old, same), (moved, old), (old, moved)):
        for got, want in zip(expand(aligned(P, Q), 4), refs[id(P), id(Q)]):
            assert np.array_equal(bits(got), bits(want))
    for P, Q in ((same, old), (old, same)):
        assert P.pattern_subset_of(Q)
    with pytest.raises(AssertionError, match="merged two equal key sets"):
        moved.pattern_subset_of(old)


def test_added_entries_align_by_searchsorted(monkeypatch, karate):
    """A revision whose stored keys hold every stored key of the original
    aligns on its own keys with no merge. The locally fair baselines'
    outputs store exactly the original's edges, and FairWalk's keep its
    pattern, so either way round they align on equal stored keys, with no
    merge, the lfpr spreads as class items. The original against a revision
    that added entries, and a revision that drops an entry, take the merge.
    Every result, expanded into columns, is bitwise the merge's."""
    from fairpr import fairwalk

    _, groups, _, P = karate
    mind = mind_like_instance(n=80)
    cases = []
    for Q, grp in ((P, groups), (mind[3], mind[1])):
        target = FairnessTarget(phi=np.array([0.3, 0.7]))
        cases += [(method(Q, grp, target).matrix, Q) for method in (lfpr_n, lfpr_u, fairwalk)]
    # two entries added to row 0, and then (0, 1) dropped: more keys than the original, all of its or not
    A = P.to_dense()
    free, w = np.flatnonzero(A[0] == 0)[:2], A[0, 1]
    A[0, free], A[0, 1] = w / 4, w / 2
    added = TransitionMatrix.from_dense(A)
    A[0, free], A[0, 1] = w / 2, 0.0
    dropped = TransitionMatrix.from_dense(A)
    assert added.nnz > P.nnz and dropped.nnz > P.nnz
    cases += [(added, P), (dropped, P)]
    refs, spread = {}, 0
    for pair in cases + [(old, new) for new, old in cases]:
        ref = refs[id(pair[0]), id(pair[1])] = merged(*pair)
        items = aligned(*pair)
        spread += items.classes is not None
        for got, want in zip(expand(items, pair[0].n), ref):
            assert np.array_equal(bits(got), bits(want))
    assert spread == 8  # the lfpr outputs, either way round

    def no_merge(*args, **kwargs):
        raise AssertionError("merged")

    monkeypatch.setattr("fairpr.metrics.merge_runs", no_merge)
    for pair in cases[:-2] + [(old, new) for new, old in cases[:-2]] + [(added, P)]:
        for got, want in zip(expand(aligned(*pair), pair[0].n), refs[id(pair[0]), id(pair[1])]):
            assert np.array_equal(bits(got), bits(want))
    for pair in ((P, added), (dropped, P), (P, dropped)):
        with pytest.raises(AssertionError, match="merged"):
            aligned(*pair)
