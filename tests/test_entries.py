"""``TransitionMatrix.entries`` against per-caller expansions: references
for ``to_csr(expand)``, ``delta_p``, ``rho_tilde`` and ``pattern_subset_of``
that write each share out row by row on the nonzeros of its vector (a sink
row on those of ``sink_row``), run on random pairs of matrices whose sink
sets, patterns and sink vectors differ in every combination, on the locally
fair baselines' outputs, and on rows that carry two shares of dense
vectors."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fairpr import (
    FairnessTarget,
    Graph,
    GroupAssignment,
    PageRankConfig,
    TransitionMatrix,
    UndefinedCoefficientError,
    build_transition,
    delta_p,
    lfpr_n,
    lfpr_u,
    rho_tilde,
)
from fairpr.experiment import evaluate_matrices
from fairpr.graph import sink_shares
from fairpr.metrics import _segment_spearman, aligned


def ref_to_csr(P, expand=None):
    """P with each row that is not a sink written out, its shares added
    onto its stored weights in vector order on the nonzeros of their
    vectors, and the flagged sink rows (every sink row by default) as the
    nonzeros of ``sink_row``; other sink rows are empty. Python floats, row
    by row."""
    expand = P.sink_mask if expand is None else expand
    shares = {}
    for r, v, value in zip(P.share_rows.tolist(), P.share_ids.tolist(), P.share_data.tolist()):
        shares.setdefault(r, []).append((v, value))  # in vector order
    indptr, indices, data = [0], [], []
    for i in range(P.n):
        row = dict(zip(*(a.tolist() for a in P.row(i))))
        for v, value in shares.get(i, []) if expand[i] or not P.sink_mask[i] else []:
            for j in np.flatnonzero(P.vectors[v]).tolist():
                w = value * float(P.vectors[v, j])
                row[j] = row[j] + w if j in row else w
        cols = sorted(row)
        indices += cols
        data += [row[j] for j in cols]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, float), np.array(indices, np.int64), indptr), shape=(P.n, P.n))


def ref_pattern_subset_of(P, other):
    if P.n != other.n:
        return False
    mine, theirs = (ref_to_csr(M).tocoo() for M in (P, other))
    return set(zip(mine.row.tolist(), mine.col.tolist())) <= set(zip(theirs.row.tolist(), theirs.col.tolist()))


def ref_delta_p(P_new, P_old):
    both = P_new.sink_mask & P_old.sink_mask
    old = ref_to_csr(P_old, P_old.sink_mask & ~both)
    num2 = ((ref_to_csr(P_new, P_new.sink_mask & ~both) - old).data ** 2).sum()
    den2 = (old.data**2).sum()
    if both.any():
        num2 += both.sum() * ((P_new.sink_row - P_old.sink_row) ** 2).sum()
        den2 += both.sum() * (P_old.sink_row**2).sum()
    return float(np.sqrt(num2)) / float(np.sqrt(den2))


def ref_rho_tilde(P_old, P_new):
    """Every written-out row of P_old with edges ranked against the same row
    of P_new, over the union of their columns (np.unique)."""
    n = P_old.n
    old, new = (ref_to_csr(M, M.sink_mask & ~P_old.sink_mask).tocoo() for M in (P_old, P_new))
    keep_old, keep_new = P_old.edge_mask[old.row], P_old.edge_mask[new.row]
    keys_old, w_old = (old.row * n + old.col)[keep_old], old.data[keep_old]
    keys_new, w_new = (new.row * n + new.col)[keep_new], new.data[keep_new]
    keys = np.unique(np.concatenate([keys_old, keys_new]))
    a, b = np.zeros(keys.size), np.zeros(keys.size)
    a[np.searchsorted(keys, keys_old)] = w_old
    b[np.searchsorted(keys, keys_new)] = w_new
    seg = keys // n
    rho, tied_old, tied_new = _segment_spearman(seg, n, a, b)
    defined = (np.bincount(seg, minlength=n) >= 2) & (tied_old == tied_new)
    coeffs = np.where(tied_old, 1.0, rho)[defined]
    if not coeffs.size:
        raise UndefinedCoefficientError("no vertex with a defined out-weight rank correlation")
    return float(np.mean(coeffs))


def random_weights(rng, size):
    """Row weights with exact zeros and ties now and then."""
    w = rng.choice([0.0, 0.25, 0.5, 1.0], size) if rng.random() < 0.3 else rng.random(size)
    w[rng.random(size) < 0.15] = 0.0
    return w / w.sum() if w.sum() else np.full(size, 1.0 / size)


def random_matrix(rng, n, sink_mask, columns=None):
    """Stored rows on random column sets (a full row now and then), or on
    ``columns[i]`` where given; the flagged rows are sinks."""
    cols = []
    for i in range(n):
        if sink_mask[i]:
            cols.append(np.empty(0, np.int64))
        elif columns is not None and columns[i] is not None:
            cols.append(columns[i])
        elif rng.random() < 0.25:
            cols.append(np.arange(n))
        else:
            cols.append(np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)))
    indptr = np.concatenate([[0], np.cumsum([len(c) for c in cols])])
    data = np.concatenate([random_weights(rng, len(c)) if len(c) else [] for c in cols])
    sink_row = random_weights(rng, n) if sink_mask.any() else None
    return TransitionMatrix(n, indptr, np.concatenate(cols), data, shares=sink_shares(sink_mask, sink_row))


def random_pair(rng):
    """(P_old, P_new): P_new keeps, extends or replaces P_old's row patterns,
    turns some of its sinks into stored rows and some stored rows into
    sinks, and keeps or redraws its sink vector."""
    n = int(rng.integers(2, 9))
    old_sinks = rng.random(n) < rng.choice([0.0, 0.3, 0.6])
    P_old = random_matrix(rng, n, old_sinks)
    new_sinks = old_sinks.copy()
    flip = rng.random(n) < rng.choice([0.0, 0.2, 0.5])
    new_sinks[flip] = ~new_sinks[flip]
    columns = []
    for i in range(n):
        kept = P_old.row(i)[0]
        mode = rng.integers(3)
        if old_sinks[i] or mode == 2:
            columns.append(None)  # a fresh pattern
        elif mode == 1:  # an extended pattern
            columns.append(np.union1d(kept, rng.choice(n, int(rng.integers(1, n + 1)))))
        else:
            columns.append(kept)
    P_new = random_matrix(rng, n, new_sinks, columns)
    if P_new.sink_row is not None and P_old.sink_row is not None and rng.random() < 0.5:
        P_new.sink_row[:] = P_old.sink_row
    return P_old, P_new


def bits(x):
    return np.asarray(x, float).view(np.int64)


def test_entries_match_the_earlier_expansions():
    """On 400 random pairs, ``entries``, ``to_csr``, ``to_dense``,
    ``pattern_subset_of`` and ``rho_tilde`` give bitwise what the reference
    expansions give, and ``delta_p`` agrees within 1e-15 relative (its terms
    sum in another order)."""
    rng = np.random.default_rng(2101)
    seen = dict.fromkeys(
        ["sinks on one side only", "sinks on both sides", "extended pattern", "subset", "not subset", "undefined"], 0
    )
    for _ in range(400):
        P_old, P_new = random_pair(rng)
        for P in (P_old, P_new):
            want, got = ref_to_csr(P), P.to_csr()
            assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
            assert np.array_equal(bits(got.data), bits(want.data))
            assert np.array_equal(bits(P.to_dense()), bits(want.toarray()))
            rows = rng.random(P.n) < 0.5
            sub = ref_to_csr(P, rows & P.sink_mask)[rows].tocoo()
            keys, weights = P.entries(rows)
            assert np.array_equal(keys, np.flatnonzero(rows)[sub.row] * P.n + sub.col)
            assert np.array_equal(bits(weights), bits(sub.data))
        for a, b in ((P_old, P_new), (P_new, P_old)):
            assert a.pattern_subset_of(b) == ref_pattern_subset_of(a, b)
            seen["subset" if a.pattern_subset_of(b) else "not subset"] += 1
            want, got = ref_delta_p(a, b), delta_p(a, b)
            assert abs(got - want) <= 1e-15 * want
            try:
                want = ref_rho_tilde(a, b)
            except UndefinedCoefficientError:
                seen["undefined"] += 1
                with pytest.raises(UndefinedCoefficientError):
                    rho_tilde(a, b)
            else:
                assert bits(rho_tilde(a, b)) == bits(want)
        seen["sinks on one side only"] += bool((P_old.sink_mask != P_new.sink_mask).any())
        seen["sinks on both sides"] += bool((P_old.sink_mask & P_new.sink_mask).any())
        seen["extended pattern"] += not P_new.pattern_subset_of(P_old)
    assert min(seen.values()) >= 20, seen


def test_entries_of_no_rows_and_of_sink_free_matrices():
    shares = sink_shares([False, False, True], [0.2, 0.0, 0.8])
    P = TransitionMatrix(3, [0, 2, 3, 3], [0, 2, 1], [0.5, 0.5, 1.0], shares=shares)
    keys, weights = P.entries(np.zeros(3, bool))
    assert keys.dtype == np.int64 and len(keys) == len(weights) == 0
    # the sink row on the nonzeros of sink_row, as any other share
    keys, weights = P.entries(np.array([False, True, True]))
    assert keys.tolist() == [4, 6, 8] and weights.tolist() == [1.0, 0.2, 0.8]
    Q = TransitionMatrix.from_dense([[0.0, 1.0], [0.5, 0.5]])
    keys, weights = Q.entries(np.ones(2, bool))
    assert keys.tolist() == [1, 2, 3] and weights.tolist() == [1.0, 0.5, 0.5]


def test_equal_sink_sets_write_no_sink_row_out():
    """20k vertices, 5 out-edges each, 1% sinks, against a revision with the
    same sink rows: the comparisons stay O(edges + n). Written out in full,
    the sink rows would take 4M keys and weights (64 MB) per matrix."""
    rng = np.random.default_rng(21)
    n, sinks = 20_000, 200
    src = np.repeat(np.setdiff1d(np.arange(n), rng.choice(n - 1, sinks, replace=False)), 5)
    edges = np.unique(np.stack([src, rng.integers(0, n, src.size)], axis=1), axis=0)
    P = build_transition(Graph(n, edges), PageRankConfig.uniform(n))
    Q, R = (P.with_data(P.data * rng.uniform(0.5, 1.5, P.nnz)) for _ in range(2))
    tracemalloc.start()
    try:
        assert P.pattern_subset_of(Q) and Q.pattern_subset_of(P)
        assert delta_p(Q, P) > 0
        assert -1.0 <= rho_tilde(Q, R) <= 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def reweighted(rng, P, tied, ties=True):
    """P's pattern with random row-stochastic weights, uniform (so tied) on
    the ``tied`` rows; with ``ties``, a tie-heavy row now and then."""
    counts = np.diff(P.indptr)
    w = rng.random(P.nnz) + 0.5  # distinct: ties have probability 0
    if ties:
        w = np.concatenate([random_weights(rng, int(k)) if k else [] for k in counts])
    rows = P.entry_rows()
    w /= np.bincount(rows, w, P.n)[rows]
    w[tied[rows]] = 1.0 / counts[rows[tied[rows]]]
    return P.with_data(w)


def outcome(metric, *args):
    """The metric's value, or None when it is undefined."""
    try:
        return metric(*args)
    except UndefinedCoefficientError:
        return None


def test_rho_tilde_against_a_built_original_ranks_nothing(monkeypatch):
    """Every row of a ``build_transition`` original is tied, so a revision
    on its pattern scores 1.0 (some row stayed tied) or is undefined (none
    did), as the reference does, and ``_segment_spearman`` never runs."""
    rng = np.random.default_rng(2102)
    n = 60
    edges = np.column_stack([rng.integers(0, n, 240), rng.integers(0, n, 240)])
    P = build_transition(Graph(n, edges), PageRankConfig.uniform(n))
    assert P.sink_mask.any() and (np.diff(P.indptr) >= 2).any()
    revisions = [reweighted(rng, P, rng.random(n) < 0.3), reweighted(rng, P, np.zeros(n, bool), ties=False)]
    want = [outcome(ref_rho_tilde, P, Q) for Q in revisions]
    assert want == [1.0, None]

    def ranked(*args):
        raise AssertionError("a row was ranked")

    monkeypatch.setattr("fairpr.metrics._segment_spearman", ranked)
    for Q, value in zip(revisions, want):
        assert Q.pattern_subset_of(P) and P.pattern_subset_of(Q)
        assert outcome(rho_tilde, P, Q) == value


def test_rho_tilde_of_reweighted_originals_matches_the_reference():
    """Originals that are themselves reweighted leave some rows untied:
    against revisions on the same pattern (aligned without a merge) and on
    an extended one (merged), rows tied on both sides, on one side and on
    neither mix, and ``rho_tilde`` is bitwise the reference, which ranks
    every row."""
    rng = np.random.default_rng(2103)
    seen = dict.fromkeys(["both tied", "one side tied", "untied", "same keys", "merged"], 0)
    for _ in range(60):
        n = int(rng.integers(4, 30))
        sinks = rng.random(n) < 0.2
        P_old = random_matrix(rng, n, sinks)
        old = reweighted(rng, P_old, rng.random(n) < 0.4)
        wider = [None if sinks[i] else np.union1d(P_old.row(i)[0], rng.choice(n, 2)) for i in range(n)]
        for new in (reweighted(rng, P_old, rng.random(n) < 0.4), random_matrix(rng, n, sinks, wider)):
            rows = ~(old.sink_mask & new.sink_mask)
            seen["same keys" if np.array_equal(old.entries(rows)[0], new.entries(rows)[0]) else "merged"] += 1
            for i in np.flatnonzero(old.edge_mask & new.edge_mask & (np.diff(old.indptr) >= 2)).tolist():
                t_old, t_new = (len(set(M.row(i)[1].tolist())) == 1 for M in (old, new))
                seen["both tied" if t_old and t_new else "one side tied" if t_old != t_new else "untied"] += 1
            want = outcome(ref_rho_tilde, old, new)
            got = outcome(rho_tilde, old, new)
            assert (got is None) == (want is None) and (want is None or bits(got) == bits(want))
    assert min(seen.values()) >= 20, seen


def assert_matches_the_references(P_old, P_new, seen):
    """``rho_tilde`` bitwise and ``delta_p`` within 1e-15 relative of the
    references, in both argument orders; ``seen`` counts what was met."""
    for a, b in ((P_old, P_new), (P_new, P_old)):
        seen["class items"] += aligned(b, a).classes is not None
        if (a.to_dense() != 0).any():  # delta_p divides by the old matrix's norm
            want = ref_delta_p(b, a)
            assert abs(delta_p(b, a) - want) <= 1e-15 * want
        want = outcome(ref_rho_tilde, a, b)
        got = outcome(rho_tilde, a, b)
        seen["undefined" if want is None else "defined"] += 1
        assert (got is None) == (want is None) and (want is None or bits(got) == bits(want))


def random_two_groups(rng, n):
    """Labels of two nonempty groups, in random sizes."""
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int64)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    return GroupAssignment(labels)


def test_lfpr_outputs_match_the_references():
    """The locally fair baselines' outputs of random two-group graphs, with
    and without sink rows, on built and on reweighted originals, against
    their original and against each other: the spreads are class items, and
    the metrics are what the written-out rows give."""
    rng = np.random.default_rng(4001)
    seen = dict.fromkeys(["sinks", "no sinks", "class items", "defined", "undefined"], 0)
    for _ in range(120):
        n = int(rng.integers(4, 24))
        sinks = rng.random(n) < rng.choice([0.0, 0.25])
        P = random_matrix(rng, n, sinks)
        if rng.random() < 0.5:
            P = build_transition(Graph(n, np.column_stack([P.entry_rows(), P.indices])), PageRankConfig.uniform(n))
        seen["sinks" if P.sink_mask.any() else "no sinks"] += 1
        groups = random_two_groups(rng, n)
        outputs = [
            method(P, groups, FairnessTarget.from_lead_share(float(rng.uniform(0.1, 0.9)), 2)).matrix
            for method in (lfpr_n, lfpr_u)
        ]
        for R in outputs:
            assert_matches_the_references(P, R, seen)
        assert_matches_the_references(*outputs, seen)
    assert min(seen.values()) >= 20, seen


def dense_share_matrix(rng, n, sinks):
    """Stored rows as ``random_matrix`` draws them, the sink rows share 1 of
    vector 0, and most other rows also carry shares of vectors 1 and 2 (now
    and then of one of them); the three vectors are dense, with entries
    that all differ, so every column is a class of its own."""
    P = random_matrix(rng, n, sinks)
    vectors = rng.random((3, n)) + 0.5
    rows, ids, values = list(np.flatnonzero(sinks)), [0] * int(sinks.sum()), [1.0] * int(sinks.sum())
    for i in np.flatnonzero(~sinks).tolist():
        for v in (1, 2) if rng.random() < 0.7 else (int(rng.integers(1, 3)),) if rng.random() < 0.5 else ():
            rows.append(i)
            ids.append(v)
            values.append(float(rng.random()))
    return TransitionMatrix(n, P.indptr, P.indices, P.data, shares=(vectors, rows, ids, values))


def test_rows_with_two_dense_shares_match_the_references():
    """Rows carrying shares of two dense vectors whose entries all differ,
    on either side: one class per column, so the items are as many as the
    written-out keys, each of count 1 (``count`` None), and the metrics are
    the references'."""
    rng = np.random.default_rng(4002)
    seen = dict.fromkeys(["class items", "defined", "undefined"], 0)
    for _ in range(150):
        n = int(rng.integers(2, 12))
        P_old = dense_share_matrix(rng, n, rng.random(n) < 0.2)
        P_new = dense_share_matrix(rng, n, rng.random(n) < 0.2) if rng.random() < 0.5 else P_old.with_data(
            random_weights(rng, P_old.nnz)
        )
        for a, b in ((P_old, P_new), (P_new, P_old)):
            items = aligned(a, b)
            rows = ~(a.sink_mask & b.sink_mask)
            written = [ref_to_csr(M, M.sink_mask & rows).tocoo() for M in (a, b)]
            written = np.union1d(*((M.row * n + M.col)[rows[M.row]] for M in written))
            assert len(items.keys) == len(written) and items.count is None
        assert_matches_the_references(P_old, P_new, seen)
    assert seen["class items"] >= 20 and seen["defined"] >= 20, seen


def test_lfpr_evaluation_counts_its_spreads():
    """4,000 vertices in two groups, about 5 out-edges each: evaluating the
    lfpr_u output against the original stays O(edges + n) in memory (3 MiB
    traced). Written out, its spreads would take 6M keys and weights per
    side (a 478 MiB traced peak)."""
    rng = np.random.default_rng(40)
    n = 4000
    src = np.repeat(np.arange(n), 5)
    edges = np.unique(np.stack([src, rng.integers(0, n, src.size)], axis=1), axis=0)
    groups = GroupAssignment((rng.random(n) < 0.3).astype(np.int64))
    cfg = PageRankConfig.uniform(n)
    P = build_transition(Graph(n, edges), cfg)
    target = FairnessTarget.from_lead_share(0.5, 2)
    R = lfpr_u(P, groups, target).matrix
    assert int(np.diff(R.share_ptr)[1:] @ groups.group_sizes) > 4_000_000  # what writing out would take
    tracemalloc.start()
    try:
        bundle = evaluate_matrices(P, R, cfg.gamma, groups, target)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.delta_p > 0 and -1.0 <= bundle.rho_tilde <= 1.0
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
