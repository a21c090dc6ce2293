import numpy as np
import pytest

from fairpr import (
    FairnessTarget,
    GraphParseError,
    GroupAssignment,
    PageRankConfig,
    TransitionMatrix,
    build_transition,
    lfpr_n,
    load_graph,
    load_labels,
    parse_matrix,
    serialize_matrix,
)


def test_load_two_cycle():
    g = load_graph("0 1\n1 0")
    assert g.n == 2 and g.m == 2


def test_duplicate_edges_collapse():
    g = load_graph("0 1\n0 1\n1 2")
    assert g.n == 3 and g.m == 2


def test_comments_blanks_and_tabs():
    g = load_graph("# header\n\n0\t1\n1 0\n")
    assert g.m == 2


def test_undirected_mirrors_edges():
    g = load_graph("0 1\n1 2", undirected=True)
    assert g.m == 4
    assert (g.edges == [[0, 1], [1, 0], [1, 2], [2, 1]]).all()


def test_self_loops_allowed():
    g = load_graph("0 0\n0 1")
    assert g.m == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 x", "line 1"),
        ("0 1\n-1 2", "negative"),
        ("0 1 2", "expected"),
        ("", "no edges"),
    ],
)
def test_load_graph_errors(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        load_graph(text)


def test_load_labels_basic():
    groups = load_labels("0 0\n1 1", 2)
    assert groups.K == 2
    assert list(groups.group_sizes) == [1, 1]


def test_group_sizes_are_derived():
    with pytest.raises(TypeError):
        GroupAssignment(np.array([0, 0, 0, 1]), 2, group_sizes=np.array([2, 2]))
    groups = GroupAssignment(np.array([0, 0, 0, 1]), 2)
    assert list(groups.group_sizes) == [3, 1]
    assert PageRankConfig.group_restart(groups, 0).restart_vector.sum() == 1.0


def test_load_labels_dense_remap():
    groups = load_labels("0 5\n1 9", 2)
    assert groups.K == 2
    assert list(groups.labels) == [0, 1]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0", "vertex 1 has no group"),
        ("0 0\n0 1\n1 0", "duplicate label for vertex 0"),
        ("0 0\n5 1", "out of range"),
    ],
)
def test_load_labels_errors(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        load_labels(text, 2)


def test_build_two_cycle():
    g = load_graph("0 1\n1 0")
    P = build_transition(g, PageRankConfig.uniform(2))
    assert np.array_equal(P.to_dense(), [[0.0, 1.0], [1.0, 0.0]])
    assert not P.sink_mask.any()


def test_build_star_uniform_out_weights():
    g = load_graph("0 1\n0 2")
    P = build_transition(g, PageRankConfig.uniform(3))
    assert np.allclose(P.to_dense()[0], [0.0, 0.5, 0.5])


def test_build_sink_substitution():
    g = load_graph("0 1")
    P = build_transition(g, PageRankConfig.uniform(2))
    assert list(P.sink_mask) == [False, True]
    assert np.array_equal(P.to_dense()[1], [0.5, 0.5])


def test_build_validates_rows():
    g = load_graph("0 1\n1 0\n1 2\n2 0")
    P = build_transition(g, PageRankConfig.uniform(3))
    P.validate()
    assert np.abs(P.row_sums() - 1.0).max() <= 1e-12


def test_rebuild_is_bit_identical():
    text = "0 1\n1 2\n2 0\n0 2"
    g1 = load_graph(text)
    g2 = load_graph(text)
    P1 = build_transition(g1, PageRankConfig.uniform(3))
    P2 = build_transition(g2, PageRankConfig.uniform(3))
    assert np.array_equal(P1.data, P2.data)
    assert np.array_equal(P1.indices, P2.indices)


def test_serialize_round_trip_exact():
    # vertex 4 is a sink, so the file carries a sink marker too
    g = load_graph("0 1\n0 2\n1 0\n2 1\n3 0\n0 4")
    P = build_transition(g, PageRankConfig.uniform(g.n))
    back = parse_matrix(serialize_matrix(P))
    assert back.n == P.n
    assert np.array_equal(back.data, P.data)
    assert np.array_equal(back.indices, P.indices)
    assert np.array_equal(back.sink_mask, P.sink_mask)


def test_serialize_drops_exact_zeros():
    # structural zero in row 0 stays in memory but is dropped on disk
    tm = TransitionMatrix(2, [0, 2, 3], [0, 1, 0], [0.0, 1.0, 1.0], [False, False])
    text = serialize_matrix(tm)
    assert "0\t0\t" not in text
    back = parse_matrix(text)
    assert back.nnz == 2


def test_parse_matrix_rejects_bad_rows():
    with pytest.raises(GraphParseError, match="row 1 has no entries"):
        parse_matrix("# n\t2\n0\t0\t1.0")


def test_serialize_golden_bytes():
    # row 0 holds an exact zero (dropped), row 2 is a sink row
    tm = TransitionMatrix(
        3, [0, 2, 3, 6], [0, 1, 2, 0, 1, 2], [0.0, 1.0, 1.0, 0.1, 0.2, 0.7], [False, False, True]
    )
    assert serialize_matrix(tm) == (
        "# n\t3\n# sink\t2\n0\t1\t1\n1\t2\t1\n"
        "2\t0\t0.10000000000000001\n2\t1\t0.20000000000000001\n2\t2\t0.69999999999999996\n"
    )


@pytest.mark.parametrize(
    "text,error,fragment",
    [
        ("# n\t2\n# sink\t5\n0\t1\t1\n1\t0\t1", GraphParseError, "line 2: sink row 5 out of range"),
        ("# n\t2\n0\t1\tnan\n1\t0\t1", ValueError, "non-finite weight"),
        ("# n\t2\n0\t1\tinf\n1\t0\t1", ValueError, "non-finite weight"),
    ],
)
def test_parse_matrix_rejects_bad_headers_and_weights(text, error, fragment):
    with pytest.raises(error, match=fragment):
        parse_matrix(text)


def test_parse_matrix_rejects_duplicates():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_matrix("# n\t2\n0\t1\t0.5\n0\t1\t0.5\n1\t0\t1.0")


def test_parse_matrix_header_wins_over_hint():
    text = "# n\t3\n0\t1\t1\n1\t0\t1\n2\t0\t1"
    assert parse_matrix(text, n=3).n == 3
    headerless = "0\t1\t1\n1\t0\t1\n2\t0\t1"
    assert parse_matrix(headerless, n=3).n == 3


def test_pattern_subset():
    a = TransitionMatrix.from_dense([[0.5, 0.5], [1.0, 0.0]])
    b = TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    assert b.pattern_subset_of(a)
    assert not a.pattern_subset_of(b)
    # lfpr_n spreads vertex 1's group-0 share over all of group 0
    g = load_graph("0 1\n0 2\n1 2\n2 0\n2 1")
    P = build_transition(g, PageRankConfig.uniform(3))
    M = lfpr_n(P, load_labels("0 0\n1 0\n2 1", 3), FairnessTarget(phi=[0.5, 0.5])).matrix
    assert M.nnz > P.nnz
    assert P.pattern_subset_of(M)
    assert not M.pattern_subset_of(P)
    assert not a.pattern_subset_of(P) and not P.pattern_subset_of(a)
