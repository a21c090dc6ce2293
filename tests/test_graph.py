import tracemalloc

import numpy as np
import pytest

import fairpr.graph
from fairpr import (
    FairnessTarget,
    Graph,
    GraphParseError,
    GroupAssignment,
    OptimizerConfig,
    PageRankConfig,
    TransitionMatrix,
    UndefinedCoefficientError,
    adapt_gd,
    build_transition,
    delta_p,
    fair_gd,
    lfpr_n,
    lfpr_u,
    load_graph,
    load_labels,
    pagerank_power,
    parse_matrix,
    rho_tilde,
    serialize_matrix,
)
from conftest import random_sinky_instance
from fairpr.graph import BLOCK_LINES, format_lines, sink_shares


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
        GroupAssignment(np.array([0, 0, 0, 1]), group_sizes=np.array([2, 2]))
    with pytest.raises(TypeError):
        GroupAssignment(np.array([0, 0, 0, 1]), 2)
    groups = GroupAssignment(np.array([0, 0, 0, 1]))
    assert groups.K == 2 and list(groups.group_sizes) == [3, 1]
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
    # the sink row stores nothing: it stands for one shared vector
    assert P.nnz == 1 and list(P.entry_rows()) == [0]
    assert np.array_equal(P.sink_row, [0.5, 0.5])
    assert np.array_equal(P.row_sums(), [1.0, 1.0])


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
    tm = TransitionMatrix(2, [0, 2, 3], [0, 1, 0], [0.0, 1.0, 1.0])
    text = serialize_matrix(tm)
    assert "0\t0\t" not in text
    back = parse_matrix(text)
    assert back.nnz == 2


def test_parse_matrix_rejects_bad_rows():
    with pytest.raises(GraphParseError, match="row 1 has no entries"):
        parse_matrix("# n\t2\n0\t0\t1.0")


def sinky_matrix_with_zeros(seed=3):
    """Built matrix whose sink rows stand for a non-uniform restart vector
    with zero entries."""
    rng = np.random.default_rng(seed)
    g = load_graph("0 1\n0 2\n1 0\n2 1\n3 0\n0 4\n3 6\n5 6")  # sinks 4 and 6
    v = rng.random(g.n) * np.array([1, 0, 1, 1, 0, 1, 1])
    P = build_transition(g, PageRankConfig(0.15, v / v.sum()))
    assert list(np.flatnonzero(P.sink_mask)) == [4, 6] and (P.sink_row == 0).any()
    return P


def test_serialize_round_trip_implicit_rows():
    P = sinky_matrix_with_zeros()
    text = serialize_matrix(P)
    # the sink vector is written once, its zero entries left out
    assert text.count("# sink_row\t") == 5 and text.count("\n4\t") == 0
    back = parse_matrix(text)
    assert np.array_equal(back.indptr, P.indptr)
    assert np.array_equal(back.indices, P.indices)
    assert np.array_equal(back.data.view(np.int64), P.data.view(np.int64))
    assert np.array_equal(back.sink_mask, P.sink_mask)
    assert np.array_equal(back.sink_row.view(np.int64), P.sink_row.view(np.int64))
    assert serialize_matrix(back) == text


def test_serialize_golden_bytes_implicit_rows():
    shares = sink_shares([False, False, True], [0.1, 0.0, 0.9])
    tm = TransitionMatrix(3, [0, 2, 3, 3], [0, 1, 2], [0.5, 0.5, 1.0], shares=shares)
    assert serialize_matrix(tm) == (
        "# n\t3\n# sink\t2\n# sink_row\t0\t0.10000000000000001\n# sink_row\t2\t0.90000000000000002\n"
        "0\t0\t0.5\n0\t1\t0.5\n1\t2\t1\n"
    )


def spelled_out_text(P, sink_header=False):
    """P's TSV as files wrote it before the sink vector had its own header:
    every sink row entry by entry, zeros left out (with ``sink_header``, the
    ``# sink_row`` lines too)."""
    full = P.to_csr().tocoo()
    lines = serialize_matrix(P).splitlines()
    lines = [line for line in lines if line.startswith("#") and (sink_header or "sink_row" not in line)]
    lines += [f"{r}\t{c}\t{w:.17g}" for r, c, w in zip(full.row, full.col, full.data)]
    return "\n".join(lines) + "\n"


def test_parse_spelled_out_sink_rows():
    """A '# sink' row is share 1 of the '# sink_row' vector and has no entry
    lines: files that spell sink rows out entry by entry, as versions before
    the '# sink_row' header wrote them, are refused, naming the first such
    row, whether or not they have the header and whatever the rows hold."""
    P = sinky_matrix_with_zeros()
    for header in (False, True):
        text = spelled_out_text(P, header)
        last = [line for line in text.splitlines() if line.startswith("6\t")][-1]
        for bad in (text, text.replace(last, "6\t1\t" + last.split("\t")[2]), text.replace(last + "\n", "")):
            with pytest.raises(GraphParseError, match="sink row 4 has entry lines"):
                parse_matrix(bad)
        # with row 4's lines gone, row 6 is the first spelled-out sink row
        row4 = "".join(line + "\n" for line in text.splitlines() if line.startswith("4\t"))
        with pytest.raises(GraphParseError, match="sink row 6 has entry lines"):
            parse_matrix(text.replace(row4, ""))


def test_implicit_rows_count_as_full_rows():
    """A sink row counts as the full row it stands for, written out on the
    nonzeros of ``sink_row`` as any share is, against a matrix that stores
    that row as ordinary entries; a matrix that also stores its zeros
    extends that pattern."""
    P = sinky_matrix_with_zeros()
    dense = P.to_dense()
    stored = TransitionMatrix.from_dense(dense)  # the sink rows stored, zeros dropped
    kept = np.where(P.sink_mask[:, None], True, dense != 0)  # and with their zeros kept
    zeros = TransitionMatrix(P.n, np.append(0, np.cumsum(kept.sum(axis=1))), np.nonzero(kept)[1], dense[kept])
    assert not stored.sink_mask.any() and zeros.nnz == stored.nnz + np.count_nonzero(P.sink_row == 0) * 2
    for a, b in ((P, stored), (stored, P), (P, zeros), (zeros, P)):
        assert delta_p(a, b) == 0.0
    assert P.pattern_subset_of(stored) and stored.pattern_subset_of(P)
    assert np.array_equal(P.to_csr().indices, stored.to_csr().indices)
    assert np.abs(P.row_sums() - zeros.row_sums()).max() <= 1e-15
    # `zeros` stores entries where sink_row is 0, which P's sink rows do not cover
    assert P.pattern_subset_of(zeros) and not zeros.pattern_subset_of(P)
    Q = P.copy()
    Q.sink_row[:] = np.roll(P.sink_row, 1)
    gap = np.linalg.norm(Q.to_dense() - P.to_dense()) / np.linalg.norm(P.to_dense())
    assert abs(delta_p(Q, P) - gap) <= 1e-15
    assert abs(delta_p(Q, zeros) - gap) <= 1e-15


def test_memory_grows_with_edges_not_sinks():
    """20k vertices, 5 out-edges each, 1% sinks: the sink rows store
    nothing. Written out in full they would take 7M entries (about 114 MB
    of data and indices)."""
    rng = np.random.default_rng(11)
    n, sinks = 20_000, 200
    src = np.repeat(np.setdiff1d(np.arange(n), rng.choice(n - 1, sinks, replace=False)), 5)
    edges = np.unique(np.stack([src, rng.integers(0, n, src.size)], axis=1), axis=0)
    g = Graph(n, edges)
    cfg = PageRankConfig.uniform(n)
    tracemalloc.start()
    try:
        P = build_transition(g, cfg)
        pagerank_power(P, cfg)
        serialize_matrix(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.nnz == g.m and P.sink_mask.sum() == sinks
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_serialize_golden_bytes():
    # row 0 holds an exact zero (dropped), row 2 is a sink row
    shares = sink_shares([False, False, True], [0.1, 0.2, 0.7])
    tm = TransitionMatrix(3, [0, 2, 3, 3], [0, 1, 2], [0.0, 1.0, 1.0], shares=shares)
    assert serialize_matrix(tm) == (
        "# n\t3\n# sink\t2\n"
        "# sink_row\t0\t0.10000000000000001\n# sink_row\t1\t0.20000000000000001\n"
        "# sink_row\t2\t0.69999999999999996\n0\t1\t1\n1\t2\t1\n"
    )


def test_from_dense_folds_equal_sink_rows():
    P = sinky_matrix_with_zeros()
    dense = P.to_dense()
    M = TransitionMatrix.from_dense(dense, P.sink_mask)
    assert np.array_equal(M.to_dense(), dense)
    assert M.nnz == P.nnz and np.array_equal(M.sink_row.view(np.int64), P.sink_row.view(np.int64))
    dense[6, 0] += 1e-16 if dense[6, 0] else 0.1
    with pytest.raises(ValueError, match="sink row 6 differs from sink row 4"):
        TransitionMatrix.from_dense(dense, P.sink_mask)


@pytest.mark.parametrize(
    "text,error,fragment",
    [
        ("# n\t2\n# sink\t5\n0\t1\t1\n1\t0\t1", GraphParseError, "line 2: sink row 5 out of range"),
        ("# n\t2\n0\t1\tnan\n1\t0\t1", ValueError, "non-finite weight"),
        ("# n\t2\n0\t1\tinf\n1\t0\t1", ValueError, "non-finite weight"),
        # a row without entries that is not a sink row, next to a sink row
        ("# n\t3\n# sink\t1\n# sink_row\t0\t1\n0\t0\t1.0", GraphParseError, "row 2 has no entries"),
        # sink rows need the sink vector
        ("# n\t3\n# sink\t2\n0\t0\t1\n1\t0\t1", GraphParseError, "sink row 2 has no entries and the file has no"),
        ("# n\t2\n# sink\t1\n# sink_row\t7\t1\n0\t0\t1", GraphParseError, "line 3: sink_row column 7 out of range"),
        ("# n\t2\n# sink\t1\n# sink_row\t0\tx\n0\t0\t1", GraphParseError, "line 3: non-numeric weight"),
        ("# n\t2\n# sink\t1\n# sink_row\t0\t1\n# sink_row\t0\t1\n0\t0\t1", GraphParseError, "duplicate '# sink_row'"),
        ("# n\t2\n# sink\t1\n# sink_row\t0\t0.5\n0\t0\t1", ValueError, "row 1 sums to 0.5"),
        ("# n\t2\n# sink\t1\n# sink_row\t0\t2\n# sink_row\t1\t-1\n0\t0\t1", ValueError, "negative weight"),
        # comments only, with a '# n' header or without
        ("# n\t2\n# a comment\n", GraphParseError, "^no matrix entries found in input$"),
        ("# a comment\n#\n", GraphParseError, "^no matrix entries found in input$"),
    ],
)
def test_parse_matrix_rejects_bad_headers_and_weights(text, error, fragment):
    with pytest.raises(error, match=fragment):
        parse_matrix(text)


def test_parse_matrix_rejects_duplicates():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_matrix("# n\t2\n0\t1\t0.5\n0\t1\t0.5\n1\t0\t1.0")


def test_parse_matrix_size_without_header_is_one_past_the_last_row():
    text = "# n\t3\n0\t1\t1\n1\t0\t1\n2\t0\t1"
    assert parse_matrix(text).n == 3
    headerless = "0\t1\t1\n1\t0\t1\n2\t0\t1"
    assert serialize_matrix(parse_matrix(headerless)) == serialize_matrix(parse_matrix(text))
    # the last row may be a '# sink' row or a row that carries '# share' lines
    sink = "# sink\t2\n# sink_row\t0\t1\n0\t1\t1\n1\t0\t1\n"
    assert parse_matrix(sink).n == 3 and parse_matrix(sink).sink_mask[2]
    share = "# vector\t1\t0\t1\n# share\t2\t1\t1\n0\t1\t1\n1\t0\t1\n"
    assert parse_matrix(share).n == 3
    # a column past the last row is out of range
    with pytest.raises(GraphParseError, match=r"entry index 2 out of range \[0, 2\)"):
        parse_matrix("0\t1\t0.5\n0\t2\t0.5\n1\t0\t1\n")


def test_pattern_subset():
    a = TransitionMatrix.from_dense([[0.5, 0.5], [1.0, 0.0]])
    b = TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    assert b.pattern_subset_of(a)
    assert not a.pattern_subset_of(b)
    # lfpr_n spreads vertex 1's group-0 share over all of group 0
    g = load_graph("0 1\n0 2\n1 2\n2 0\n2 1")
    P = build_transition(g, PageRankConfig.uniform(3))
    M = lfpr_n(P, load_labels("0 0\n1 0\n2 1", 3), FairnessTarget(phi=[0.5, 0.5])).matrix
    # the spread is a share of group 0's indicator: stored as P's edges, written out wider
    assert M.nnz == P.nnz and np.count_nonzero(M.to_dense()) > P.nnz
    assert P.pattern_subset_of(M)
    assert not M.pattern_subset_of(P)
    assert not a.pattern_subset_of(P) and not P.pattern_subset_of(a)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FairnessTarget(phi=[np.nan, 0.5]),
        lambda: FairnessTarget(phi=[np.inf, 0.5]),
        lambda: PageRankConfig(0.15, np.array([np.nan, 0.5, 0.5])),
    ],
)
def test_non_finite_targets_and_restarts_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_graph_refuses_rows_of_three_ids():
    with pytest.raises(ValueError, match=r"^edges must have shape \(m, 2\), got \(1, 3\)$"):
        Graph(3, [[0, 1, 2]])


def test_whole_float_ids_and_labels_are_read_as_ints():
    assert Graph(3, np.array([[2.0, 0.0], [0.0, 1.0]])).edges.tolist() == [[0, 1], [2, 0]]
    groups = GroupAssignment(np.array([0.0, 1.0, 1.0]))
    assert groups.labels.dtype == np.int64 and groups.group_sizes.tolist() == [1, 2]


def test_graph_reads_an_empty_edge_sequence_as_no_edges():
    g = Graph(3, [])
    assert g.m == 0 and g.edges.shape == (0, 2) and g.edges.dtype == np.int64
    assert build_transition(g, PageRankConfig.uniform(3)).sink_mask.all()


def test_graph_refuses_a_flat_pair():
    with pytest.raises(ValueError, match=r"^edges must have shape \(m, 2\), got \(2,\)$"):
        Graph(3, [0, 1])


def test_fairness_target_refuses_a_column_of_scores():
    # a (2, 1) phi would broadcast against the (K,) group scores in the loss
    with pytest.raises(ValueError, match=r"^target scores must be 1-D, got shape \(2, 1\)$"):
        FairnessTarget([[0.1], [0.9]])


def test_pagerank_config_refuses_a_block_restart_vector():
    with pytest.raises(ValueError, match=r"^restart vector must be 1-D, got shape \(2, 17\)$"):
        PageRankConfig(0.15, np.full((2, 17), 1 / 34))


@pytest.mark.parametrize(
    "make,fragment",
    [
        (lambda: PageRankConfig(0.0, [0.5, 0.5]), r"restart probability must be in \(0,1\), got 0.0"),
        (lambda: PageRankConfig(1.0, [0.5, 0.5]), r"restart probability must be in \(0,1\), got 1.0"),
        (lambda: PageRankConfig(0.15, [1.5, -0.5]), "restart vector entries must be nonnegative"),
        (lambda: PageRankConfig(0.15, [0.5, 0.25]), "restart vector must sum to 1, got 0.75"),
        (lambda: FairnessTarget([1.5, -0.5]), "target scores must be nonnegative"),
        (lambda: FairnessTarget([0.5, 0.25]), "target scores must sum to 1, got 0.75"),
        (lambda: FairnessTarget.from_lead_share(0.5, 1), "lead-share targets need K >= 2"),
        (lambda: GroupAssignment(np.array([0, 2, 0])), r"every group id in \[0, K\) must label at least one vertex"),
        # not whole numbers: numpy's cast would keep the edge (0, 1), and np.bincount would raise a TypeError
        (lambda: Graph(3, [[0.5, 1.9]]), r"^edge 0 has vertex id 0\.5, which is not a whole number$"),
        (lambda: GroupAssignment(np.array([0.0, 1.0, np.nan])), r"^vertex 2 has label nan, which is not a whole number$"),
        (lambda: TransitionMatrix(2, [0, 1], [1], [1.0]), r"indptr length must be n \+ 1"),
        (lambda: TransitionMatrix(2, [0, 1, 2], [1, 0], [1.0]), "indices and data lengths differ"),
        (
            lambda: TransitionMatrix(2, [0, 1, 1], [1], [1.0], shares=(np.full((1, 3), 1 / 3), [1], [0], [1.0])),
            "the share vectors must have length n",
        ),
        (
            lambda: TransitionMatrix(2, [0, 1, 1], [1], [1.0], shares=(np.full((1, 2), 0.5), [1], [0, 0], [1.0])),
            "share rows, vector ids and values lengths differ",
        ),
        (lambda: TransitionMatrix.from_dense(np.full((2, 3), 1 / 3)), "matrix must be square"),
        (
            lambda: build_transition(load_graph("0 1\n1 0"), PageRankConfig.uniform(3)),
            "restart vector has length 3, graph has 2 vertices",
        ),
    ],
)
def test_value_types_refuse_bad_input(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


def per_line_serialize(tm):
    """serialize_matrix as it formatted one line per ``%`` call, kept as the
    reference for the block writer's bytes."""
    keep = tm.data != 0.0
    entries = zip(tm.entry_rows()[keep].tolist(), tm.indices[keep].tolist(), tm.data[keep].tolist())
    sinks = np.flatnonzero(tm.sink_mask).tolist()
    lines = [f"# n\t{tm.n}", *map("# sink\t%d".__mod__, sinks)]
    if tm.sink_row is not None:
        cols = np.flatnonzero(tm.sink_row)
        lines += map("# sink_row\t%d\t%.17g".__mod__, zip(cols.tolist(), tm.sink_row[cols].tolist()))
    lines += map("%d\t%d\t%.17g".__mod__, entries)
    return "\n".join(lines) + "\n"


def odd_weights(rng, size):
    """Weights with exact zeros (both signs), repeats of short decimals,
    subnormals, huge values and non-finite ones."""
    w = rng.random(size)
    pick = rng.random(size)
    w[pick < 0.2] = 0.0
    w[(0.2 <= pick) & (pick < 0.25)] = -0.0
    w[(0.25 <= pick) & (pick < 0.4)] = 0.1
    w[(0.4 <= pick) & (pick < 0.45)] = 5e-324
    w[(0.45 <= pick) & (pick < 0.5)] = -1.7976931348623157e308
    w[(0.5 <= pick) & (pick < 0.52)] = np.inf
    w[(0.52 <= pick) & (pick < 0.54)] = np.nan
    return w


def repeated_weights(rng, kind, size, rows=None):
    """Weight columns that repeat as the writers' do: ``one`` value (a
    build_transition row's 1/outdeg, over each row of ``rows`` when given),
    a few values ``interleaved`` (FairWalk's group weights), or ``special``
    ones: 0.0 next to -0.0, and repeated nan, inf and the least subnormal."""
    if kind == "one":
        return np.full(size, 1 / 3) if rows is None else 1.0 / np.bincount(rows)[rows]
    if kind == "interleaved":
        return rng.choice([0.1, 0.25, 1 / 7], size)
    return rng.choice([0.0, -0.0, np.nan, np.inf, 5e-324], size)


REPEATED = ("one", "interleaved", "special")


@pytest.fixture
def formatted_once(monkeypatch):
    """For each nonempty column format_lines writes, whether it formatted
    the column's distinct values once (``_format_repeats``)."""
    seen, format_repeats = [], fairpr.graph._format_repeats

    def spy(column, spec):
        out = format_repeats(column, spec)
        if len(column):
            seen.append(out is not None)
        return out

    monkeypatch.setattr(fairpr.graph, "_format_repeats", spy)
    return seen


@pytest.mark.parametrize(
    "n,per_row,sink_share",
    [
        (1, 0, 1.0),  # one sink row, no entry lines
        (40, 3, 0.2),
        (3000, 30, 0.05),  # past 65,536 entry lines: a block boundary in the entries
        (90000, 0, 0.97),  # past 65,536 '# sink' and '# sink_row' lines
    ],
)
def test_serialize_bytes_match_per_line_formatter(n, per_row, sink_share, formatted_once):
    rng = np.random.default_rng(n)
    sinks = rng.random(n) < sink_share
    sinks[0] = sink_share == 1.0
    counts = np.where(sinks, 0, np.minimum(rng.integers(1, 2 * per_row + 2, n), n))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.zeros(0, np.int64)] + [np.sort(rng.choice(n, c, replace=False)) for c in counts[counts > 0]])
    shares = sink_shares(sinks, odd_weights(rng, n))
    tm = TransitionMatrix(n, indptr, indices, odd_weights(rng, len(indices)), shares=shares)
    text = serialize_matrix(tm)
    assert text == per_line_serialize(tm)
    if n > BLOCK_LINES:
        assert min(text.count("# sink\t"), text.count("# sink_row\t")) > BLOCK_LINES
    elif per_row > 10:
        assert np.count_nonzero(tm.data) > BLOCK_LINES
    # the same rows with repeated weights in the entries and in '# sink_row'
    for kind in REPEATED:
        formatted_once.clear()
        vec = repeated_weights(rng, kind, n)
        rtm = TransitionMatrix(n, indptr, indices, repeated_weights(rng, kind, len(indices), tm.entry_rows()),
                               shares=sink_shares(sinks, vec))
        assert serialize_matrix(rtm) == per_line_serialize(rtm), kind
        assert any(formatted_once) == (n > 1), kind


@pytest.mark.parametrize("lines", [0, 1, 65535, 65536, 65537, 2 * 65536 + 3])
def test_format_lines_at_block_edges(lines, formatted_once):
    assert BLOCK_LINES == 65536
    rng = np.random.default_rng(lines)
    ids, w = rng.integers(0, 10**12, lines), odd_weights(rng, lines)
    columns = {"odd": w, "distinct": rng.random(lines)}
    columns.update((kind, repeated_weights(rng, kind, lines)) for kind in REPEATED)
    for kind, w in columns.items():
        formatted_once.clear()
        want = "".join(map("%d\t%.17g\n".__mod__, zip(ids.tolist(), w.tolist())))
        assert format_lines("%d\t%.17g\n", ids, w) == want, kind
        if lines > 1 and kind != "odd":  # odd_weights repeats about half its lines
            assert any(formatted_once) == (kind in REPEATED), kind


# ------------------------------------------------------------ shares of dense vectors


def random_spread_instances(rng, count):
    """lfpr_n and lfpr_u outputs on random sinky graphs, in turn."""
    for i in range(count):
        _, groups, _, P = random_sinky_instance(rng, int(rng.integers(3, 40)), 2)
        phi0 = float(rng.uniform(0.05, 0.95))
        yield (lfpr_n, lfpr_u)[i % 2](P, groups, FairnessTarget(phi=[phi0, 1 - phi0])).matrix, P


def test_spread_tsv_round_trips():
    """A matrix with group spreads writes each vector and each row's shares
    once, and reads back to the same text, the same dense part bit for bit
    and the same rows written out."""
    rng = np.random.default_rng(31)
    spread = 0
    for M, P in random_spread_instances(rng, 40):
        text = serialize_matrix(M)
        back = parse_matrix(text)
        assert serialize_matrix(back) == text
        for a, b in zip(back.shares, M.shares):
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        assert np.array_equal(back.to_dense().view(np.int64), M.to_dense().view(np.int64))
        spread += M.has_spreads
        assert text.count("# share\t") == len(M.share_rows) - M.sink_mask.sum()
        assert text.count("\n") <= 2 + P.nnz + 4 * P.n  # edges, the sinks, 3 vectors' nonzeros and the shares
    assert spread >= 30


def test_old_spread_files_read_to_the_same_rows():
    """Files that write the spreads out as entry lines, as earlier versions
    did, parse to the same dense matrix."""
    rng = np.random.default_rng(32)
    for M, _ in random_spread_instances(rng, 20):
        old = serialize_matrix(TransitionMatrix.from_dense(M.to_dense(), M.sink_mask))
        assert "# share" not in old
        parsed = parse_matrix(old)
        assert not parsed.has_spreads
        assert np.array_equal(parsed.to_dense().view(np.int64), M.to_dense().view(np.int64))


def test_serialize_golden_bytes_with_shares():
    # row 0 spreads 0.25 over group {1, 2} (vector 1) beside its edge; row 2 is a sink row
    vectors = [[0.5, 0.25, 0.25], [0.0, 1.0, 1.0]]
    shares = (vectors, [2, 0], [0, 1], [1.0, 0.25])
    tm = TransitionMatrix(3, [0, 1, 2, 2], [0, 0], [0.5, 1.0], shares=shares)
    tm.validate()
    text = serialize_matrix(tm)
    assert text == (
        "# n\t3\n# sink\t2\n# sink_row\t0\t0.5\n# sink_row\t1\t0.25\n# sink_row\t2\t0.25\n"
        "# vector\t1\t1\t1\n# vector\t1\t2\t1\n# share\t0\t1\t0.25\n0\t0\t0.5\n1\t0\t1\n"
    )
    assert np.array_equal(tm.to_dense(), [[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.5, 0.25, 0.25]])
    assert tm.sink_mask.tolist() == [False, False, True] and tm.has_spreads
    assert np.array_equal(tm.row_sums(), [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("#n 2\n# vector 0 1 1\n# share 0 0 0.5\n0 0 0.5\n1 0 1\n", "vector id 0 out of range"),
        ("#n 2\n# vector 1 1 1\n# share 0 7 0.5\n0 0 0.5\n1 0 1\n", "vector id 7 out of range"),
        ("#n 2\n# vector 1 1 1\n# share 0 1 0.25\n# share 0 1 0.25\n0 0 0.5\n1 0 1\n", "duplicate '# share'"),
        ("#n 2\n# vector 1 1 1\n# vector 1 1 1\n# share 0 1 0.5\n0 0 0.5\n1 0 1\n", "duplicate '# vector'"),
        ("#n 2\n# sink 1\n# sink_row 0 1\n# vector 1 1 1\n# share 1 1 0.5\n0 0 1\n", "sink row 1 has '# share'"),
        ("#n 2\n# sink 1\n# sink 1\n# sink_row 0 1\n0 0 1\n", "duplicate '# sink' line"),
        ("#n 2\n# vector 1 5 1\n# share 0 1 0.5\n0 0 0.5\n1 0 1\n", "vector column 5 out of range"),
        ("#n 3\n# vector 1 1 1\n# share 0 1 0.5\n0 0 0.5\n1 0 1\n", "row 2 has no entries"),
    ],
)
def test_parse_matrix_rejects_bad_share_lines(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_matrix(text)


def test_share_only_rows_parse():
    # row 1 stores nothing and spreads all of its mass over vector 1: it has
    # no edges to reweight, so it is no spread that the descent refuses
    tm = parse_matrix("#n 2\n# vector 1 0 0.5\n# vector 1 1 0.5\n# share 1 1 1\n0 1 1\n")
    assert not tm.sink_mask.any() and not tm.has_spreads
    assert np.array_equal(tm.to_dense(), [[0.0, 1.0], [0.5, 0.5]])


def random_share_spec(rng, n, vector_counts=(1, 4)):
    """(stored columns per row, sink mask, vectors, [(row, vector, share)])
    with zeros in the vectors, empty rows and rows sharing several vectors;
    the number of vectors is drawn from ``vector_counts``, and a row shares
    each with chance 0.3, or 1.5 of them on average when there are more
    than three."""
    sinks = rng.random(n) < 0.25
    stored = [
        np.empty(0, np.int64) if sinks[i] else np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
        for i in range(n)
    ]
    V = int(rng.integers(*vector_counts))
    vectors = rng.random((V, n)) * (rng.random((V, n)) < 0.5)
    chance = 0.3 if V < 4 else 1.5 / V
    shares = [(i, v, float(rng.random())) for i in np.flatnonzero(~sinks) for v in range(V) if rng.random() < chance]
    return stored, sinks, vectors, shares


def spec_matrix(n, spec):
    stored, sinks, vectors, shares = spec
    indptr = np.concatenate([[0], np.cumsum([len(c) for c in stored])])
    indices = np.concatenate([np.empty(0, np.int64), *stored])
    sinks_at = np.flatnonzero(sinks)
    rows = [*sinks_at, *(r for r, _, _ in shares)]
    ids = [*np.zeros(len(sinks_at), np.int64), *(v for _, v, _ in shares)]
    values = [*np.ones(len(sinks_at)), *(s for _, _, s in shares)]
    return TransitionMatrix(n, indptr, indices, np.full(len(indices), 0.5), shares=(vectors, rows, ids, values))


def test_with_data_and_copy_keep_the_checked_fields():
    """``with_data`` and ``copy`` skip the constructor's checks: every field
    is bitwise what the checked constructor makes of the same arrays.
    ``with_data`` shares every array but the weights, ``copy`` none, and
    the operator of either reads its own weights; a wrong weight count is
    still refused."""
    rng = np.random.default_rng(26)
    sinky = spread = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        M = spec_matrix(n, random_share_spec(rng, n))
        sinky += M.sink_row is not None
        spread += M.has_spreads
        data = rng.random(M.nnz)
        for got, weights in ((M.with_data(data), data), (M.copy(), M.data)):
            want = TransitionMatrix(n, M.indptr, M.indices, weights, shares=M.shares)
            assert got.n == want.n and got.operator().data is got.data
            for name in TransitionMatrix.__slots__[1:]:
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None, name
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
                shared = name != "data" and weights is data and b.size > 0
                assert np.shares_memory(a, getattr(M, name)) == shared, name
        with pytest.raises(ValueError, match="lengths differ"):
            M.with_data(np.ones(M.nnz + 1))
    assert sinky >= 50 and spread >= 50, (sinky, spread)


def mutate(rng, n, M, spec):
    """A neighbor of ``spec``: some rows written out as stored entries, some
    stored columns dropped or added, some shares dropped or added, some rows
    made sinks or no longer sinks."""
    stored, sinks, vectors, shares = [list(spec[0]), spec[1].copy(), spec[2], list(spec[3])]
    keys = M.entries(np.ones(n, bool))[0]
    for i in range(n):
        pick = rng.random()
        if pick < 0.15:  # the written-out row, stored
            stored[i], sinks[i] = keys[keys // n == i] % n, False
            shares = [s for s in shares if s[0] != i]
        elif pick < 0.3 and len(stored[i]):
            stored[i] = np.delete(stored[i], int(rng.integers(len(stored[i]))))
        elif pick < 0.45 and not sinks[i]:
            stored[i] = np.union1d(stored[i], [int(rng.integers(n))])
        elif pick < 0.55:
            sinks[i], stored[i] = True, np.empty(0, np.int64)
            shares = [s for s in shares if s[0] != i]
        elif pick < 0.6 and sinks[i]:
            sinks[i] = False
    shares = [s for s in shares if rng.random() < 0.85 and not sinks[s[0]]]
    taken = {(r, v) for r, v, _ in shares}
    for _ in range(int(rng.integers(0, 3))):
        r, v = int(rng.integers(n)), int(rng.integers(len(vectors)))
        if not sinks[r] and (r, v) not in taken:
            shares.append((r, v, 0.5))
            taken.add((r, v))
    return stored, sinks, vectors, shares


def ref_entries(M, rows):
    """``entries`` row by row: a flagged row's stored columns, then its
    shares in vector order, each on the nonzero columns of its vector (a
    sink row's on those of vector 0) and added onto the weight there. Also
    counts the additions onto an earlier weight."""
    keys, weights, adds = [], [], 0
    for i in np.flatnonzero(rows).tolist():
        row = dict(zip(*(a.tolist() for a in M.row(i))))
        for r, v, share in zip(M.share_rows.tolist(), M.share_ids.tolist(), M.share_data.tolist()):
            if r != i:
                continue
            vec = M.vectors[v].tolist()
            for c in np.flatnonzero(M.vectors[v]).tolist():
                adds += c in row
                row[c] = row[c] + share * vec[c] if c in row else share * vec[c]
        keys += [i * M.n + c for c in sorted(row)]
        weights += [row[c] for c in sorted(row)]
    return np.array(keys, np.int64), np.array(weights, float), adds


def test_entries_write_share_rows_out_in_vector_order():
    """On random share matrices (vector 0 shared by sink rows and other
    rows), with no rows, all rows and random rows flagged, ``entries``
    gives bitwise the row-by-row keys and weights."""
    rng = np.random.default_rng(25)
    adds = mixed = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        M = spec_matrix(n, random_share_spec(rng, n))
        M = M.with_data(rng.random(M.nnz))
        mixed += bool(M.sink_mask.any() and ((M.share_ids == 0) & ~M.sink_mask[M.share_rows]).any())
        for rows in (np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.5):
            keys, weights = M.entries(rows)
            want_keys, want_weights, added = ref_entries(M, rows)
            assert keys.dtype == np.int64 and np.array_equal(keys, want_keys)
            assert np.array_equal(weights.view(np.int64), want_weights.view(np.int64))
            adds += added
    assert adds >= 300 and mixed >= 30, (adds, mixed)


@pytest.mark.parametrize("vector_counts", [(1, 4), (64, 72)], ids=["few", "past_63"])
def test_pattern_subset_of_share_rows_matches_written_out_rows(vector_counts):
    """The count-based check on share rows agrees with comparing the keys
    that ``entries`` writes out, row by row, on random neighbors, also with
    vector ids past 63."""
    rng = np.random.default_rng(33)
    answers = []
    for _ in range(400):
        n = int(rng.integers(1, 9))
        spec = random_share_spec(rng, n, vector_counts)
        A = spec_matrix(n, spec)
        B = spec_matrix(n, mutate(rng, n, A, spec))
        for a, b in ((A, B), (B, A), (A, A)):
            rows = np.ones(n, bool)
            (mine, _), (theirs, _) = a.entries(rows), b.entries(rows)
            want = bool(np.isin(mine, theirs).all())
            assert a.pattern_subset_of(b) == want
            answers.append(want)
    assert 0.2 < np.mean(answers) < 0.8


def rho_tilde_or_none(P_old, P_new):
    try:
        return rho_tilde(P_old, P_new)
    except UndefinedCoefficientError:
        return None


# row 2 held as a '# sink' of v = (1/2, 1/2, 0), and as share 1 of a vector 1 equal to v
HELD_PAIR = (
    "# n\t3\n# sink\t2\n# sink_row\t0\t0.5\n# sink_row\t1\t0.5\n0\t1\t1\n1\t0\t1\n",
    "# n\t3\n# sink_row\t0\t0.5\n# sink_row\t1\t0.5\n# vector\t1\t0\t0.5\n# vector\t1\t1\t0.5\n# share\t2\t1\t1\n"
    "0\t1\t1\n1\t0\t1\n",
)


def held_as_shares(n, spec):
    """``spec``'s matrix with every sink row held as share 1 of an appended
    copy of vector 0, so that it has no sink rows."""
    stored, sinks, vectors, shares = spec
    held = [(int(i), len(vectors), 1.0) for i in np.flatnonzero(sinks)]
    return spec_matrix(n, (stored, np.zeros(n, bool), np.vstack([vectors, vectors[0]]), shares + held))


def walk_spec(spec):
    """``spec`` as a walk that the descent takes: the vectors scaled to sum
    1, and only rows without stored entries sharing, each its mass evenly
    over its shares of nonzero vectors (``even_walk`` weighs the entries)."""
    stored, sinks, vectors, shares = spec
    sums = vectors.sum(axis=1)
    shares = [(r, v) for r, v, _ in shares if not len(stored[r]) and sums[v] > 0]
    count = np.bincount([r for r, _ in shares], minlength=len(stored))
    shares = [(r, v, 1.0 / count[r]) for r, v in shares]
    return stored, sinks, vectors / np.where(sums > 0, sums, 1.0)[:, None], shares


def even_walk(M):
    return M.with_data(1.0 / np.diff(M.indptr)[M.entry_rows()])


def assert_held_alike(A, B, groups, target, walks=True):
    """lfpr_n and lfpr_u write out bitwise the same matrix for A and B,
    ``rho_tilde`` between them is the same either way round, and with
    ``walks`` fair_gd and adapt_gd take both, to the same final loss up to
    the rounding of the dense part's sums, which the two hold in a
    different order."""
    for method in (lfpr_n, lfpr_u):
        a, b = (method(M, groups, target).matrix.to_dense() for M in (A, B))
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), method.__name__
    assert rho_tilde_or_none(A, B) == rho_tilde_or_none(B, A)
    if not walks:
        return
    cfg = PageRankConfig.uniform(A.n)
    opt = OptimizerConfig(alpha=0.1, max_iters=2, kappa=0.0, t1=40, t2=10)
    for descend in (lambda P: fair_gd(P, cfg, groups, target, opt), lambda P: adapt_gd(P, cfg.gamma, groups, target, opt)):
        a, b = descend(A).final_loss, descend(B).final_loss
        assert abs(a - b) <= 1e-12 * a, (a, b)


def test_results_do_not_depend_on_how_a_sink_row_is_held():
    """A random share matrix whose sink vector holds zeros, and the same
    matrix with every sink row held as share 1 of an appended copy of
    vector 0 (so it has no sink rows): each is a pattern subset of the
    other, they write out bitwise the same dense matrix, ``delta_p`` between
    them is 0, and against a random neighbor ``rho_tilde``, ``delta_p`` and
    ``pattern_subset_of`` give the same answers for both, with either as
    the original. The lfpr baselines, ``rho_tilde`` between the two, and
    the descents on the two made walks (``walk_spec``) give the same
    results too, as on the two files of one such pair."""
    A, B = (parse_matrix(text) for text in HELD_PAIR)
    assert_held_alike(A, B, GroupAssignment(np.array([0, 1, 0])), FairnessTarget([0.5, 0.5]))
    rng, pick = np.random.default_rng(27), np.random.default_rng(28)
    zeros = sinky_neighbors = share_only = 0
    for _ in range(360):
        n = int(rng.integers(2, 9))
        spec = random_share_spec(rng, n)
        A = spec_matrix(n, spec)
        if not A.sink_mask.any() or not (A.sink_row == 0).any() or not A.to_dense().any():
            continue
        zeros += 1
        B = held_as_shares(n, spec)
        assert not B.sink_mask.any() and np.array_equal(A.share_rows[A.sink_mask[A.share_rows]], np.flatnonzero(spec[1]))
        assert A.pattern_subset_of(B) and B.pattern_subset_of(A)
        assert np.array_equal(A.to_dense().view(np.int64), B.to_dense().view(np.int64))
        assert delta_p(A, B) == 0.0 and delta_p(B, A) == 0.0
        X = spec_matrix(n, mutate(rng, n, A, spec))
        sinky_neighbors += bool((X.sink_mask & A.sink_mask).any())
        assert rho_tilde_or_none(X, A) == rho_tilde_or_none(X, B)
        assert rho_tilde_or_none(A, X) == rho_tilde_or_none(B, X)
        if X.to_dense().any():  # delta_p divides by the old matrix's norm
            assert abs(delta_p(X, A) - delta_p(X, B)) <= 1e-14 * delta_p(X, A)
            assert abs(delta_p(A, X) - delta_p(B, X)) <= 1e-14 * delta_p(A, X)
        assert X.pattern_subset_of(A) == X.pattern_subset_of(B) and A.pattern_subset_of(X) == B.pattern_subset_of(X)
        labels = pick.permutation(np.r_[0, 1, pick.integers(0, 2, n - 2)])
        phi = pick.uniform(0.2, 0.8)
        groups, target = GroupAssignment(labels), FairnessTarget([phi, 1.0 - phi])
        assert_held_alike(A, B, groups, target, walks=False)
        walk = walk_spec(spec)
        W = even_walk(spec_matrix(n, walk))
        share_only += bool((~W.sink_mask[W.share_rows]).any())  # rows the descent refused before
        assert_held_alike(W, even_walk(held_as_shares(n, walk)), groups, target)
    assert zeros >= 200 and sinky_neighbors >= 150 and share_only >= 20, (zeros, sinky_neighbors, share_only)


def test_constructor_checks_shares():
    with pytest.raises(ValueError, match="two shares of vector 0"):
        TransitionMatrix(2, [0, 1, 2], [0, 1], [0.5, 0.5], shares=([[0.5, 0.5]], [0, 0], [0, 0], [0.5, 0.5]))
    with pytest.raises(ValueError, match="out of range"):
        TransitionMatrix(2, [0, 1, 2], [0, 1], [0.5, 0.5], shares=([[0.5, 0.5]], [0], [1], [0.5]))
    # a row that stores entries is no sink row, whatever it shares
    tm = TransitionMatrix(2, [0, 1, 1], [1], [0.5], shares=([[0.5, 0.5]], [0, 1], [0, 0], [1.0, 1.0]))
    assert tm.sink_mask.tolist() == [False, True] and tm.has_spreads
    # vectors that no row shares are dropped from the end
    tm = TransitionMatrix(2, [0, 1, 2], [0, 1], [1.0, 1.0], shares=(np.eye(2), [], [], []))
    assert tm.vectors.shape == (0, 2) and tm.sink_row is None and not tm.has_spreads
