import numpy as np
import pytest

from conftest import label_text, random_sinky_instance
from fairpr import (
    FairnessTarget,
    PageRankConfig,
    TransitionMatrix,
    UnsupportedGroupCountError,
    build_transition,
    fairwalk,
    group_scores,
    lfpr_n,
    lfpr_u,
    load_graph,
    load_labels,
    pagerank_power,
)
from fairpr.graph import sink_shares

GAMMA = 0.15


def two_group_instance(rng, n):
    edges = set()
    for i in range(n):
        for _ in range(int(rng.integers(0, 5))):
            edges.add((i, int(rng.integers(n))))
    edges.add((0, n - 1))
    g = load_graph("\n".join(f"{a} {b}" for a, b in sorted(edges)))
    labels = rng.integers(0, 2, size=g.n)
    labels[:2] = [0, 1]
    groups = load_labels(label_text(labels), g.n)
    return g, groups, build_transition(g, PageRankConfig.uniform(g.n, GAMMA))


def phi_fair_restart(groups, phi):
    v = np.empty(groups.n)
    for k in range(groups.K):
        v[groups.labels == k] = phi[k] / groups.group_sizes[k]
    return PageRankConfig(GAMMA, v)


def test_fairwalk_hand_case():
    # 2 out-edges into group 0, one into group 1, uniform weights
    g = load_graph("0 1\n0 2\n0 3\n1 0\n2 0\n3 0")
    groups = load_labels("0 0\n1 0\n2 0\n3 1", 4)
    P = build_transition(g, PageRankConfig.uniform(4, GAMMA))
    res = fairwalk(P, groups, FairnessTarget(phi=[0.5, 0.5]))
    assert np.allclose(res.matrix.row(0)[1], [0.25, 0.25, 0.5], atol=1e-15)
    assert res.matrix.pattern_subset_of(P)
    assert res.method == "fairwalk"


def test_fairwalk_single_reachable_group_keeps_row():
    g = load_graph("0 1\n0 2\n1 0\n2 0")
    groups = load_labels("0 1\n1 0\n2 0", 3)
    P = build_transition(g, PageRankConfig.uniform(3, GAMMA))
    res = fairwalk(P, groups, FairnessTarget(phi=[0.9, 0.1]))
    assert np.allclose(res.matrix.row(0)[1], [0.5, 0.5], atol=1e-12)


def test_fairwalk_single_group_unchanged():
    g = load_graph("0 1\n1 2\n2 0\n0 2")
    groups = load_labels("0 0\n1 0\n2 0", 3)
    P = build_transition(g, PageRankConfig.uniform(3, GAMMA))
    res = fairwalk(P, groups, FairnessTarget(phi=[1.0]))
    assert np.allclose(res.matrix.data, P.data, rtol=1e-12)


def test_lfpr_requires_two_groups():
    g = load_graph("0 1\n1 2\n2 0")
    groups = load_labels("0 0\n1 1\n2 2", 3)
    P = build_transition(g, PageRankConfig.uniform(3, GAMMA))
    for fn in (lfpr_n, lfpr_u):
        with pytest.raises(UnsupportedGroupCountError):
            fn(P, groups, FairnessTarget(phi=[0.2, 0.3, 0.5]))


def test_lfpr_n_hand_cases():
    # vertex 0 reaches one neighbor per group
    g = load_graph("0 1\n0 2\n1 0\n2 0")
    groups = load_labels("0 0\n1 0\n2 1", 3)
    P = build_transition(g, PageRankConfig.uniform(3, GAMMA))
    res = lfpr_n(P, groups, FairnessTarget(phi=[0.5, 0.5]))
    assert np.allclose(res.matrix.row(0)[1], [0.5, 0.5], atol=1e-15)

    # vertex with out-neighbors only in group 0 spreads phi_1 over group 1
    g2 = load_graph("0 1\n1 0\n2 0\n3 0\n4 0\n5 0\n6 0\n6 1")
    labels = [0, 0] + [1] * 5
    groups2 = load_labels(label_text(labels), 7)
    P2 = build_transition(g2, PageRankConfig.uniform(7, GAMMA))
    res2 = lfpr_n(P2, groups2, FairnessTarget(phi=[0.3, 0.7]))
    row = res2.matrix.to_dense()[0]  # the spread is a share of group 1's indicator, written out here
    assert abs(row[1] - 0.3) <= 1e-15  # the only group-0 out-edge takes all of 0.3
    for j in np.flatnonzero(groups2.labels == 1):
        assert abs(row[j] - 0.7 / 5) <= 1e-15
    assert not res2.matrix.pattern_subset_of(P2)
    assert abs(row.sum() - 1.0) <= 1e-12


def test_lfpr_u_balanced_vertex_has_no_residual():
    # out-neighbor fractions equal the target: row is plain 1/outdeg
    g = load_graph("0 1\n0 2\n1 0\n2 0")
    groups = load_labels("0 0\n1 0\n2 1", 3)
    P = build_transition(g, PageRankConfig.uniform(3, GAMMA))
    res = lfpr_u(P, groups, FairnessTarget(phi=[0.5, 0.5]))
    assert np.allclose(res.matrix.row(0)[1], [0.5, 0.5], atol=1e-15)


def test_lfpr_row_stochastic_randomized():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(350):
        _, groups, P = two_group_instance(rng, int(rng.integers(4, 25)))
        phi0 = float(rng.uniform(0.05, 0.95))
        target = FairnessTarget(phi=[phi0, 1 - phi0])
        for fn in (fairwalk, lfpr_n, lfpr_u):
            M = fn(P, groups, target).matrix
            worst = max(worst, float(np.abs(M.row_sums() - 1.0).max()))
            assert (M.data >= 0).all()
    assert worst <= 1e-10


def test_lfpr_perfect_fairness_with_fair_restart():
    rng = np.random.default_rng(654)
    for _ in range(20):
        _, groups, P = two_group_instance(rng, int(rng.integers(5, 30)))
        phi0 = float(rng.uniform(0.1, 0.9))
        target = FairnessTarget(phi=[phi0, 1 - phi0])
        cfg_fair = phi_fair_restart(groups, target.phi)
        for fn in (lfpr_n, lfpr_u):
            M = fn(P, groups, target).matrix
            p = pagerank_power(M, cfg_fair, t1=400, tol=1e-14)
            d = group_scores(p, groups) - target.phi
            assert float(np.mean(d * d)) <= 1e-8


def test_lfpr_u_group_mass_exact_per_row():
    rng = np.random.default_rng(987)
    _, groups, P = two_group_instance(rng, 15)
    phi0 = 0.35
    res = lfpr_u(P, groups, FairnessTarget(phi=[phi0, 1 - phi0]))
    M = res.matrix
    assert P.sink_mask.any()
    # every row, a sink row as the full row it stands for
    for row in M.to_dense():
        assert abs(row[groups.labels == 0].sum() - phi0) <= 1e-12


# Per-row reference definitions: the array code in fairpr must match them bit
# for bit, since both do the same float operations in the same order.


def ref_build_transition(g, cfg):
    # sink rows store nothing: they stand for the restart vector
    indptr, indices, data = [0], [], []
    outdeg = np.bincount(g.edges[:, 0], minlength=g.n)
    for i in range(g.n):
        cols = g.edges[g.edges[:, 0] == i, 1]
        indices.extend(cols)
        data.extend(np.full(len(cols), 1.0 / max(outdeg[i], 1)))
        indptr.append(len(indices))
    sinks = outdeg == 0
    return TransitionMatrix(g.n, indptr, indices, data, shares=sink_shares(sinks, cfg.restart_vector))


def ref_fairwalk(P, groups, target):
    out = P.data.copy()
    for i in np.flatnonzero(~P.sink_mask):
        lo, hi = P.indptr[i], P.indptr[i + 1]
        gcols = groups.labels[P.indices[lo:hi]]
        w = P.data[lo:hi]
        mass = np.bincount(gcols, weights=w, minlength=groups.K)
        reach = float(target.phi[mass > 0].sum())
        if reach:
            out[lo:hi] = target.phi[gcols] * w / (mass[gcols] * reach)
    return TransitionMatrix(P.n, P.indptr, P.indices, out, shares=sink_shares(P.sink_mask, P.sink_row))


def ref_lfpr_n_rows(P, groups, target):
    """Dense rows as lfpr_n defines them, sink rows written out in full."""
    rows = []
    for i in range(P.n):
        acc = np.zeros(P.n)
        cols = np.empty(0, np.int64) if P.sink_mask[i] else P.indices[P.indptr[i] : P.indptr[i + 1]]
        for k in range(2):
            into_k = cols[groups.labels[cols] == k]
            if len(into_k):
                acc[into_k] += target.phi[k] / len(into_k)
            else:
                acc[groups.labels == k] += target.phi[k] / groups.group_sizes[k]
        rows.append(acc)
    return np.array(rows)


def ref_lfpr_u_rows(P, groups, target):
    """Dense rows as lfpr_u defines them, sink rows written out in full."""
    share = (float(target.phi[0]), 1.0 - float(target.phi[0]))
    sizes = groups.group_sizes
    rows = []
    for i in range(P.n):
        acc = np.zeros(P.n)
        if P.sink_mask[i]:
            for k in range(2):
                acc[groups.labels == k] += share[k] / sizes[k]
        else:
            cols = P.indices[P.indptr[i] : P.indptr[i + 1]]
            d = len(cols)
            out = (int((groups.labels[cols] == 0).sum()), int((groups.labels[cols] == 1).sum()))
            under = [k for k in range(2) if out[k] < share[k] * d][:1]
            if under:
                k = under[0]
                base = share[1 - k] / out[1 - k]
                acc[cols] += base
                acc[groups.labels == k] += (share[k] - base * out[k]) / sizes[k]
            else:
                acc[cols] += 1.0 / d
        rows.append(acc)
    return np.array(rows)


def ref_lfpr_n(P, groups, target):
    return TransitionMatrix.from_dense(ref_lfpr_n_rows(P, groups, target), P.sink_mask)


def ref_lfpr_u(P, groups, target):
    return TransitionMatrix.from_dense(ref_lfpr_u_rows(P, groups, target), P.sink_mask)


@pytest.mark.parametrize("method", ["build_transition", "fairwalk_k2", "fairwalk_k3", "lfpr_n", "lfpr_u"])
def test_array_code_matches_row_reference(method):
    rng = np.random.default_rng(2024)
    K = 3 if method == "fairwalk_k3" else 2
    for _ in range(60):
        g, groups, cfg, P = random_sinky_instance(rng, int(rng.integers(3, 30)), K)
        if rng.random() < 0.5:  # restart vectors with zeros reach the sink rows
            v = rng.random(g.n) * (rng.random(g.n) < 0.7) + 1e-3 * (np.arange(g.n) == 0)
            cfg = PageRankConfig(GAMMA, v / v.sum())
            P = build_transition(g, cfg)
        target = FairnessTarget(phi=rng.dirichlet(np.ones(K)))
        if method == "build_transition":
            got, want = P, ref_build_transition(g, cfg)
        elif method.startswith("fairwalk"):
            got, want = fairwalk(P, groups, target).matrix, ref_fairwalk(P, groups, target)
        else:
            # the spreads are shares of group vectors: compare the rows written out
            fn, ref = (lfpr_n, ref_lfpr_n) if method == "lfpr_n" else (lfpr_u, ref_lfpr_u)
            got, want = fn(P, groups, target).matrix, ref(P, groups, target)
            every = np.ones(P.n, bool)
            (keys, w), (want_keys, want_w) = got.entries(every), want.entries(every)
            assert np.array_equal(keys, want_keys)
            assert np.array_equal(w.view(np.int64), want_w.view(np.int64))
            assert np.array_equal(got.to_dense().view(np.int64), want.to_dense().view(np.int64))
            assert np.array_equal(got.sink_mask, want.sink_mask)
            assert got.sink_row is None or np.array_equal(got.sink_row, want.sink_row)
            continue
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.sink_mask, want.sink_mask)
        assert (got.sink_row is None) == (want.sink_row is None)
        assert got.sink_row is None or np.array_equal(got.sink_row, want.sink_row)


@pytest.mark.parametrize("method", ["lfpr_n", "lfpr_u"])
def test_lfpr_sink_rows_store_nothing(method):
    """On sinky graphs the locally fair matrices store only P's edges: the
    sink rows stand for the fair sink vector, stored once, the spreads are
    shares of the group vectors, and the rows written out are bitwise the
    reference's (which writes each sink row's n nonzeros out, phi being
    inside (0, 1))."""
    fn, ref_rows = (lfpr_n, ref_lfpr_n_rows) if method == "lfpr_n" else (lfpr_u, ref_lfpr_u_rows)
    rng = np.random.default_rng(77)
    sinky = 0
    for _ in range(30):
        _, groups, _, P = random_sinky_instance(rng, int(rng.integers(3, 40)), 2)
        phi0 = float(rng.uniform(0.05, 0.95))
        M = fn(P, groups, FairnessTarget(phi=[phi0, 1 - phi0])).matrix
        spelled = ref_rows(P, groups, FairnessTarget(phi=[phi0, 1 - phi0]))
        sinks = int(P.sink_mask.sum())
        sinky += sinks > 0
        assert not M.sink_mask[M.entry_rows()].any()
        assert M.pattern_equals(P) and M.nnz == P.nnz
        assert np.array_equal(M.to_dense().view(np.int64), spelled.view(np.int64))
        if sinks:
            fair = np.where(groups.labels == 0, phi0, 1 - phi0) / groups.group_sizes[groups.labels]
            assert np.array_equal(M.sink_row, fair)
    assert sinky >= 10


def test_lfpr_outputs_store_exactly_p_edges():
    """The locally fair matrices store P's edges and nothing else, on P's
    own pattern arrays; each row spreads at most one share per group
    vector, and their sink rows are P's."""
    rng = np.random.default_rng(55)
    spread = 0
    for _ in range(40):
        _, groups, _, P = random_sinky_instance(rng, int(rng.integers(3, 40)), 2)
        phi0 = float(rng.uniform(0.05, 0.95))
        for fn in (lfpr_n, lfpr_u):
            M = fn(P, groups, FairnessTarget(phi=[phi0, 1 - phi0])).matrix
            assert M.pattern_equals(P) and M.nnz == P.nnz
            assert M.indptr is P.indptr and M.indices is P.indices
            assert np.array_equal(M.sink_mask, P.sink_mask)
            assert len(M.vectors) <= 1 + groups.K
            assert np.array_equal(M.vectors[1:], groups.labels == np.arange(len(M.vectors) - 1)[:, None])
            spread += M.has_spreads
    assert spread >= 40
