"""The text readers against reference line scanners.

``load_graph``, ``load_labels`` and ``parse_matrix`` read a whole text with
array operations. The ``ref_*`` functions below are the line-by-line
scanners they replaced, kept verbatim as the oracle: on a generated corpus
of valid and invalid texts both must return bitwise equal results or raise
the same error with the same message, line numbers included.
"""

import tracemalloc

import numpy as np
import pytest

import fairpr.text
from fairpr import (
    Graph,
    GraphParseError,
    GroupAssignment,
    PageRankConfig,
    TransitionMatrix,
    build_transition,
    load_graph,
    load_labels,
    parse_matrix,
    serialize_matrix,
)
from fairpr.graph import _first_uncovered, _sort_pairs, _sorted_distinct, sink_shares
from fairpr.text import Lines, _line_end, data_line_count

# ------------------------------------------------------------ reference scanners


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-integer {what} {token!r}") from None
    if value < 0:
        raise GraphParseError(f"line {lineno}: negative {what} {value}")
    if value >= 2**63:
        raise GraphParseError(f"line {lineno}: {what} {value} does not fit in 64 bits")
    return value


def _parse_weight(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-numeric weight {token!r}") from None


def ref_load_graph(text: str, undirected: bool = False) -> Graph:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'src dst', got {raw!r}")
        s = _parse_int(tokens[0], lineno, "vertex id")
        t = _parse_int(tokens[1], lineno, "vertex id")
        pairs.append((s, t))
        if undirected:
            pairs.append((t, s))
    if not pairs:
        raise GraphParseError("no edges found in input")
    edges = np.unique(np.asarray(pairs, dtype=np.int64), axis=0)
    n = int(edges.max()) + 1
    return Graph(n=n, edges=edges)


def ref_load_labels(text: str, n: int) -> GroupAssignment:
    labels: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'vertex group', got {raw!r}")
        v = _parse_int(tokens[0], lineno, "vertex id")
        g = _parse_int(tokens[1], lineno, "group id")
        if v >= n:
            raise GraphParseError(f"line {lineno}: vertex {v} out of range [0, {n})")
        if v in labels:
            raise GraphParseError(f"line {lineno}: duplicate label for vertex {v}")
        labels[v] = g
    if len(labels) < n:
        raise GraphParseError(f"vertex {_first_uncovered(list(labels))} has no group label")
    raw_labels = np.empty(n, dtype=np.int64)
    raw_labels[list(labels)] = list(labels.values())
    uniq, dense = np.unique(raw_labels, return_inverse=True)
    return GroupAssignment(labels=dense.astype(np.int64), K=int(len(uniq)))


def ref_parse_matrix(text: str, n: int | None = None) -> TransitionMatrix:
    header_n = None
    sinks, sink_lines = [], []
    sink_cols, sink_weights, sink_col_lines = [], [], []
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0] == "n":
                header_n = _parse_int(tokens[1], lineno, "matrix size")
            elif len(tokens) == 2 and tokens[0] == "sink":
                sinks.append(_parse_int(tokens[1], lineno, "sink row"))
                sink_lines.append(lineno)
            elif len(tokens) == 3 and tokens[0] == "sink_row":
                sink_cols.append(_parse_int(tokens[1], lineno, "sink_row column"))
                sink_weights.append(_parse_weight(tokens[2], lineno))
                sink_col_lines.append(lineno)
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise GraphParseError(f"line {lineno}: expected 'src dst weight', got {raw!r}")
        r = _parse_int(tokens[0], lineno, "vertex id")
        c = _parse_int(tokens[1], lineno, "vertex id")
        entries.append((r, c, _parse_weight(tokens[2], lineno)))
    size = header_n if header_n is not None else n
    if size is None:
        raise GraphParseError("matrix size unknown: no '# n' header and no explicit n")
    if not entries:
        raise GraphParseError("no matrix entries found in input")
    arr = np.asarray([(r, c) for r, c, _ in entries], dtype=np.int64)
    if arr.max() >= size:
        raise GraphParseError(f"entry index {int(arr.max())} out of range [0, {size})")
    w = np.asarray([w for _, _, w in entries], dtype=float)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr, w = arr[order], w[order]
    dup = np.flatnonzero((np.diff(arr[:, 0]) == 0) & (np.diff(arr[:, 1]) == 0))
    if len(dup):
        r, c = arr[dup[0]]
        raise GraphParseError(f"duplicate matrix entry ({r}, {c})")
    for ids, lines, what in ((sinks, sink_lines, "sink row"), (sink_cols, sink_col_lines, "sink_row column")):
        past = [j for j, x in enumerate(ids) if x >= size]
        if past:
            raise GraphParseError(f"line {lines[past[0]]}: {what} {ids[past[0]]} out of range [0, {size})")
    if len(set(sink_cols)) < len(sink_cols):
        raise GraphParseError("duplicate '# sink_row' column")
    if np.count_nonzero(np.diff(arr[:, 0])) + 1 + len(sinks) < size:
        first = _first_uncovered(np.concatenate([arr[:, 0], np.asarray(sinks, np.int64)]))
        raise GraphParseError(f"row {first} has no entries")
    if len(set(sinks)) < len(sinks):
        raise GraphParseError("duplicate '# sink' line")
    sink_mask = np.zeros(size, bool)
    sink_mask[sinks] = True
    counts = np.bincount(arr[:, 0], minlength=size)
    not_sink = np.flatnonzero((counts == 0) & ~sink_mask)
    if len(not_sink):
        raise GraphParseError(f"row {int(not_sink[0])} has no entries")
    spelled = np.flatnonzero(sink_mask & (counts > 0))
    if len(spelled):
        raise GraphParseError(f"sink row {spelled[0]} has entry lines; a '# sink' row is the '# sink_row' vector alone")
    if sinks and not sink_cols:
        raise GraphParseError(f"sink row {min(sinks)} has no entries and the file has no '# sink_row' lines")
    sink_row = None
    if sink_cols:
        sink_row = np.zeros(size)
        sink_row[sink_cols] = sink_weights
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    tm = TransitionMatrix(size, indptr, arr[:, 1].copy(), w, shares=sink_shares(sink_mask, sink_row))
    tm.validate()
    return tm


# ------------------------------------------------------------ comparison


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())


def _fingerprint(result):
    if isinstance(result, Graph):
        return ("graph", result.n, _bits(result.edges))
    if isinstance(result, GroupAssignment):
        return ("groups", result.K, _bits(result.labels), _bits(result.group_sizes))
    return (
        "matrix",
        result.n,
        *map(_bits, (result.indptr, result.indices, result.data, result.sink_mask, result.sink_row)),
    )


def _outcome(fn, *args):
    try:
        return _fingerprint(fn(*args))
    except (GraphParseError, ValueError) as err:
        return (type(err).__name__, str(err))


def assert_same(fn, ref, *args):
    got, want = _outcome(fn, *args), _outcome(ref, *args)
    assert got == want, (args[0], got, want)
    return want


# ------------------------------------------------------------ corpus

# separators inside a line, line ends, and odd but int()-valid or invalid tokens
SEPS = ["  ", " \t ", "\xa0", "\u3000", "\x1f", "\x0c"]
ENDS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\u2029", "\n\n", "\r\r\n"]
ODD_INTS = ["+5", "1_000", "\u0663", "-0", "007", "-1", "x", "1.0", "1e3", ""]
ODD_INTS += [str(2**63), str(2**63 - 1), str(-(2**63)), str(-(2**63) - 1)]
ODD_WEIGHTS = ["nan", "inf", "-0.0", "1_0.5", "\u0663.5", "+0.5", "1e-400", "0x1p3", "w", "0.5"]


def _join(rng, lines):
    """Lines joined with random line ends, leading and trailing whitespace,
    blank lines and comment lines spliced in."""
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(rng.choice(["", " ", "\t", "#", " # comment", "\t#x 1 2", "#", "  #  1 2 3"]))
        pad = rng.random()
        line = " " + line if pad < 0.1 else "\x0c" + line if pad < 0.15 else line
        out.append(line + " " if rng.random() < 0.1 else line)
    text = "".join(line + str(rng.choice(ENDS)) for line in out)
    return text if rng.random() < 0.8 else text.rstrip("\n\r")


def _row(rng, tokens, odd):
    """``tokens`` joined by random separators; sometimes one token is odd,
    one is dropped or an extra one is added."""
    tokens = list(tokens)
    u = rng.random()
    if u < 0.04:
        tokens[int(rng.integers(len(tokens)))] = str(rng.choice(odd))
    elif u < 0.05:
        tokens.pop()
    elif u < 0.06:
        tokens.append("1")
    elif u < 0.07:
        tokens = [str(rng.choice(odd)) for _ in tokens]
    text = tokens[0]
    for tok in tokens[1:]:
        u = rng.random()
        text += (" " if u < 0.6 else "\t" if u < 0.85 else str(rng.choice(SEPS))) + tok
    return text


def _edge_text(rng, n, m):
    edges = rng.integers(0, n, (m, 2))
    return _join(rng, [_row(rng, map(str, e), ODD_INTS) for e in edges])


def _label_text(rng, n):
    order = rng.permutation(n)
    if rng.random() < 0.2:  # a missing or repeated vertex
        order = order[1:] if rng.random() < 0.5 else np.append(order, order[0])
    if rng.random() < 0.1:  # a vertex out of range
        order = np.append(order, n + int(rng.integers(3)))
    groups = rng.integers(0, 3, len(order)) * 7
    return _join(rng, [_row(rng, (str(v), str(g)), ODD_INTS) for v, g in zip(order, groups)])


def _random_matrix(rng, n, equal=False):
    """A random row-stochastic matrix with some sink rows; with ``equal``,
    each row's weights are equal (build_transition's 1/outdeg) and so are
    the sink row's."""
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    sinks = rng.random(n) < 0.3
    sinks[0] = False
    dense[0, 0] += dense[0].sum() == 0
    for i in np.flatnonzero(~sinks):
        if dense[i].sum() == 0:
            dense[i, i] = 1.0
    dense /= np.where(dense.sum(axis=1) > 0, dense.sum(axis=1), 1)[:, None]
    sink_row = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    sink_row[0] += 1.0 - sink_row.sum()
    if equal:
        dense = (dense > 0) / np.maximum(np.count_nonzero(dense, axis=1), 1)[:, None]
        sink_row = (sink_row > 0) / np.count_nonzero(sink_row)
    dense[sinks] = sink_row
    return TransitionMatrix.from_dense(dense, sinks if sinks.any() else None)


def _matrix_text(rng, n, equal=False):
    """A serialized random matrix, rewritten: headers as '#n' or '# n',
    entry lines shuffled, sink rows sometimes spelled out (which files may
    not do) or altered, duplicates, and odd tokens. With ``equal`` the rows
    hold equal weights and the entry lines keep their row order, with the
    header lines spread among them: runs of equal weight tokens, with
    header and comment lines inside them."""
    tm = _random_matrix(rng, n, equal)
    lines = serialize_matrix(tm).splitlines()
    heads = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if tm.sink_row is not None and rng.random() < 0.3:  # spell the sink rows out
        cols = np.flatnonzero(tm.sink_row)
        for i in np.flatnonzero(tm.sink_mask):
            body += [f"{i}\t{j}\t{tm.sink_row[j]:.17g}" for j in cols]
        if rng.random() < 0.3:
            heads = [h for h in heads if not h.startswith("# sink_row")]
        if rng.random() < 0.2:
            body[-1] = body[-1].rsplit("\t", 1)[0] + "\t0.125"
    if rng.random() < 0.1 and body:
        body.append(body[int(rng.integers(len(body)))])
    if rng.random() < 0.1:
        heads = [h for h in heads if not h.startswith("# n")]
    if rng.random() < 0.1:
        heads.append(f"# n\t{n + int(rng.integers(-1, 3))}")
    if rng.random() < 0.05:  # a nan weight
        body[0] = body[0].rsplit("\t", 1)[0] + "\tnan"
    if not equal:
        rng.shuffle(body)
        body = heads + body
    else:
        for at, head in zip(np.sort(rng.integers(0, len(body) + 1, len(heads)))[::-1], heads[::-1]):
            body.insert(at, head)
    rows = []
    for line in body:
        if line.startswith("#"):
            parts = line[1:].split()
            odd = ODD_WEIGHTS if parts[0] == "sink_row" and rng.random() < 0.5 else ODD_INTS
            rows.append(("#" if rng.random() < 0.3 else "# ") + _row(rng, parts, odd))
        else:
            parts = line.split("\t")
            odd = ODD_WEIGHTS if rng.random() < 0.4 else ODD_INTS
            rows.append(_row(rng, parts, odd))
    return _join(rng, rows)


# ------------------------------------------------------------ tests


@pytest.mark.parametrize("seed", range(6))
def test_load_graph_matches_reference(seed):
    rng = np.random.default_rng(seed)
    outcomes = set()
    for _ in range(150):
        text = _edge_text(rng, int(rng.integers(1, 12)), int(rng.integers(0, 25)))
        undirected = bool(rng.random() < 0.5)
        outcomes.add(assert_same(load_graph, ref_load_graph, text, undirected)[0])
    assert {"graph", "GraphParseError"} <= outcomes


@pytest.mark.parametrize("seed", range(6))
def test_load_labels_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    outcomes = set()
    for _ in range(150):
        n = int(rng.integers(1, 12))
        text = _label_text(rng, n)
        outcomes.add(assert_same(load_labels, ref_load_labels, text, n)[0])
        data = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        assert data_line_count(text) == len(data)
    assert {"groups", "GraphParseError"} <= outcomes


@pytest.fixture
def weight_runs(monkeypatch):
    """For each weight column of two or more tokens, whether it was read by
    its runs of equal tokens (``fairpr.text._runs`` found them)."""
    seen, runs = [], fairpr.text._runs

    def spy(tokens):
        out = runs(tokens)
        if len(tokens) > 1:
            seen.append(out is not None)
        return out

    monkeypatch.setattr(fairpr.text, "_runs", spy)
    return seen


@pytest.mark.parametrize("seed", range(6))
def test_parse_matrix_matches_reference(seed, weight_runs):
    rng = np.random.default_rng(200 + seed)
    outcomes = set()
    for _ in range(120):
        n = int(rng.integers(1, 7))
        text = _matrix_text(rng, n)
        hint = None if rng.random() < 0.5 else n
        outcomes.add(assert_same(parse_matrix, ref_parse_matrix, text, hint)[0])
    assert {"matrix", "GraphParseError"} <= outcomes and not all(weight_runs)
    weight_runs.clear()
    outcomes = set()
    for _ in range(40):
        n = int(rng.integers(2, 7))
        text = _matrix_text(rng, n, equal=True)
        hint = None if rng.random() < 0.5 else n
        outcomes.add(assert_same(parse_matrix, ref_parse_matrix, text, hint)[0])
    assert {"matrix", "GraphParseError"} <= outcomes and sum(weight_runs) >= 20


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "#",
        "# only a comment",
        "0 1\r\n1 0\r\n",
        "\r\n0 1\r\r\n1 x\n",
        "  # indented comment\r\n0\t1\x0c1 0\u20282 0",
        "0 1\n1 +5\n1_000 \u0663\n",
        f"0 {2**63}\n",
        "0 1\n-3 1\n",
        "0 1 2\n1 0\n",
        "0\n",
        "0 1 2 3\n",
        "0 1\n#1 x\n1 x y\n",
        "0\xa01\u20021\u30000\n",
        "0 1\x1c1 0\x1d2 x",
        "0 1\x1f1 0",
        "0 1\r",
        "\ufeff0 1\n",
        "0 1\nx y\n",
        "0 1\n-1 -2\n",
        f"0 1\n{2**63} x\n",
        "0 1\n1\n2 0\n",
        "#c\n0 1\n1 0 2\n",
    ],
)
def test_load_graph_edge_cases(text):
    for undirected in (False, True):
        assert_same(load_graph, ref_load_graph, text, undirected)
    assert_same(load_labels, ref_load_labels, text, 3)


# weight columns with at most half as many runs of equal tokens as tokens
RUN_TEXTS = [
    # runs that go on across '#' header and comment lines, in the entries and in '# sink_row'
    "#n 4\n# sink 3\n# sink_row 0 0.25\n0 1 0.5\n# sink_row 1 0.25\n# c 1 2\n0 2 0.5\n"
    "#sink_row 2 0.25\n1 0 1\n\n# sink_row 3 0.25\n2 0 1\n",
    # 0 next to -0, and 0.001 next to 1e-3: equal values from different tokens
    "#n 6\n0 0 0\n0 1 0\n0 2 0\n0 3 -0\n0 4 -0\n0 5 1\n" + "".join(f"{i} 0 1\n" for i in range(1, 6)),
    "#n 6\n0 0 0.001\n0 1 0.001\n0 2 1e-3\n0 3 1e-3\n0 4 0.996\n" + "".join(f"{i} 0 1\n" for i in range(1, 6)),
    # a bad token repeated through a run, and a bad token right after a run
    "#n 3\n0 0 1\n1 0 x\n1 1 x\n1 2 x\n2 0 1\n2 1 1\n",
    "#n 2\n# sink 1\n# sink_row 0 w\n# sink_row 1 w\n0 0 1\n",
    "#n 3\n0 0 0.5\n0 1 0.5\n1 0 0.5\n1 1 0.5\n2 2 y\n",
]


@pytest.mark.parametrize(
    "text",
    [
        "#n 2\n0 1 1\n1 0 1\n",
        "# n 2\n#n 3\n0 1 1\n1 0 1\n2 2 1\n",
        "#  n  2\n0 1 1\n1 0 1\n",
        "# n\t2\n# sink\t1\n# sink_row\t0\t0.5\n# sink_row\t1\t0.5\n0\t1\t1\n",
        "#n 2\n#sink 1\n#sink_row 0 1\n0 1 1\n1 0 1\n",  # a spelled-out sink row, refused
        "#n 2\n#sink 1\n#sink 1\n#sink_row 0 1\n0 1 1\n",  # a repeated sink row, refused
        "#n 2\n#sink 1\n0 1 1\n1 0 1\n",
        "#n 2\n#sink 1\n#sink_row 0 1\n0 1 1\n1 0 0.5\n1 1 0.5\n",
        "#n 2\n0 1 nan\n1 0 1\n",
        "#n 2\n0 1 1\n0 1 1\n1 0 1\n",
        "#n x\n0 1 1\n1 0 1 extra\n",
        "0 1 1\n#n x\n1 0 1 extra\n",
        "#n 2\n# sink_row 0 x\n0 0 y\n",
        "#n 2\n0 0 y\n# sink_row 0 x\n",
        "#n 2\n# sink -1\n0 0 1\n",
        "#n 2\n# sink_row 0 1 2\n# sink 0 1\n# n\n0 0 1\n1 1 1\n",
        "## n 2\n0 0 1\n",
        "# #n 2\n0 0 1\n",
        "#\n0 0 1\r\n",
        "#n 2\r\n0 0 1\u20281 1 1\u2029",
        "#n +2\n0 0 1_0\n1 1 \u0661\n",
        f"#n {2**63}\n0 0 1\n",
        "#n 3\n# sink 5\n0 0 1\n",
        "#n 3\n# sink 2\n0 0 1\n1 1 1\n",
        "#n 2\n# sink 1\n# sink_row 0 1\n#sink_row 0 1\n0 0 1\n",
        "#n 2\n# sink 1\n# sink_row 5 1\n0 0 1\n",
        "#n 2\n0 x y\n",
        "#n 2\n-1 0 y\n",
        "#n 2\n# sink_row x y\n0 0 1\n",
        *RUN_TEXTS,
    ],
)
def test_parse_matrix_edge_cases(text, weight_runs):
    for hint in (None, 2):
        assert_same(parse_matrix, ref_parse_matrix, text, hint)
    assert any(weight_runs) or text not in RUN_TEXTS


def test_line_ends_are_whitespace():
    # tokens never span lines only because every line end is whitespace to
    # str.split, and "\r\n" is the one two-character line end
    ends = [c for c in map(chr, range(0x110000)) if _line_end(c)]
    assert all(c.isspace() for c in ends)
    pairs = [a + b for a in ends for b in ends if len(f"x{a}{b}x".splitlines()) == 2]
    assert pairs == ["\r\n"]


def test_lines_table_of_a_text():
    text = "  #c\r\n0 1\r\r\n\u2028a\xa0b c\n\n#\x0cd\n"
    lines = Lines(text)
    assert list(lines.tokens) == text.split()
    assert lines.lineno.tolist() == [1, 2, 5, 7, 8]
    assert lines.first.tolist() == [0, 1, 3, 6, 7]
    assert lines.count.tolist() == [1, 2, 3, 1, 1]
    assert lines.comment.tolist() == [True, False, False, True, False]


# ------------------------------------------------------------ plain id files
# A file of ASCII digits and C whitespace outside its comment lines reads in
# one np.fromstring parse (Lines.plain_ids), with no str token made.

PLAIN_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c"]
PLAIN_SEPS = [" ", "\t", "  ", " \t "]
# comment lines, read as spaces whatever they hold, and their line ends
COMMENTS = ["#", "# Nodes: 34 Edges: 78", "#FromNodeId\tToNodeId", " \t# +5 1_000 \u0663\xa0\x1f-1", "\xa0#x 1 2"]
COMMENTS += ["# " + "9" * 25, "##\u00e9t\u00e9"]
COMMENT_ENDS = PLAIN_ENDS + ["\x1c", "\x85", "\u2028"]


def _plain_id(rng, value):
    """``value`` in decimal, sometimes with leading zeros up to 18 digits."""
    digits = str(value)
    return digits.zfill(int(rng.integers(len(digits), 19))) if rng.random() < 0.2 else digits


def _plain_text(rng, rows):
    """The rows as plain id lines: comment lines at the top (SNAP style) and
    between rows, blank lines, leading and trailing whitespace, and
    sometimes no final line end."""
    out = []
    for at, row in enumerate(rows):
        while rng.random() < (0.5 if at == 0 else 0.1):
            if rng.random() < 0.3:
                out.append(str(rng.choice(["", " ", "\t"])) + str(rng.choice(PLAIN_ENDS)))
            else:
                out.append(str(rng.choice(COMMENTS)) + str(rng.choice(COMMENT_ENDS)))
        line = "".join(tok + str(rng.choice(PLAIN_SEPS)) for tok in row[:-1]) + row[-1]
        pad = rng.random()
        line = " " + line if pad < 0.1 else line + "\t" if pad < 0.2 else line
        out.append(line + str(rng.choice(PLAIN_ENDS)))
    text = "".join(out)
    return text if rng.random() < 0.7 else text.rstrip("\n\r\x0b\x0c")


def _no_str_tokens(*args):
    raise AssertionError("a plain id file converted str tokens")


@pytest.mark.parametrize("seed", range(4))
def test_plain_id_files_read_in_one_parse(seed, monkeypatch):
    monkeypatch.setattr(fairpr.text, "_column", _no_str_tokens)
    rng = np.random.default_rng(900 + seed)
    outcomes = set()
    for _ in range(60):
        high = 10 ** int(rng.integers(1, 19)) if rng.random() < 0.5 else int(rng.integers(1, 12))
        edges = rng.integers(0, high, (int(rng.integers(1, 25)), 2))
        text = _plain_text(rng, [[_plain_id(rng, v) for v in e.tolist()] for e in edges])
        assert assert_same(load_graph, ref_load_graph, text, bool(rng.random() < 0.5))[0] == "graph"
        n = int(rng.integers(1, 25))
        order = rng.permutation(n)
        if rng.random() < 0.2:  # a missing or repeated vertex, or one out of range
            order = np.append(order[1:], order[0] if rng.random() < 0.5 else n)
        groups = rng.integers(0, high, len(order))
        text = _plain_text(rng, [[_plain_id(rng, v), _plain_id(rng, g)] for v, g in zip(order.tolist(), groups.tolist())])
        outcomes.add(assert_same(load_labels, ref_load_labels, text, n)[0])
    assert {"groups", "GraphParseError"} <= outcomes


# what sends a file of ids back to str tokens: odd tokens, 19-digit ids, line
# ends and separators that C's isspace does not skip
FALLBACK_TOKENS = ["+5", "1_000", "\u0663", "1" + "0" * 18, "0" * 18 + "7", str(2**63 - 1), str(2**63), str(2**64 + 5)]
FALLBACK_TEXTS = [f"# ids\n0 1\n1 {tok}\n2 0\n" for tok in FALLBACK_TOKENS]
FALLBACK_TEXTS += [f"0 1\n{tok} 2\n2 0" for tok in FALLBACK_TOKENS]
FALLBACK_TEXTS += [f"0 1{end}1 2\n2 0\n" for end in ["\x1c", "\x85"]]
FALLBACK_TEXTS += [f"#x\n0 1\n1{sep}2\n2{sep}0\n" for sep in ["\x1f", "\xa0"]]


@pytest.mark.parametrize("text", FALLBACK_TEXTS)
def test_plain_path_falls_back_to_str_tokens(text):
    assert Lines(text).plain_ids() is None
    for undirected in (False, True):
        assert_same(load_graph, ref_load_graph, text, undirected)
    assert_same(load_labels, ref_load_labels, text, 3)


def test_plain_ids_take_18_digits():
    ids = Lines("#" + "1" * 19 + "\n" + "9" * 18 + "\t" + "0" * 17 + "1\r\n").plain_ids()
    assert ids.tolist() == [10**18 - 1, 1]


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_memory_stays_near_the_text_size():
    # The readers hold a few arrays of one entry per token, and a few of one
    # byte per character; parse_matrix also holds the str tokens (about 60
    # bytes each). On 10^5 edge lines load_graph, which reads these plain ids
    # without str tokens, peaks near 8 x the text size (18 x with them) and
    # parse_matrix near 10 x (its weight tokens are long). A per-line regex
    # stack (~400 bytes a line) breaks both limits; an int64 array per
    # character (+8 x) breaks parse_matrix's.
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 20_000, (100_000, 2))
    text = "".join(f"{a}\t{b}\n" for a, b in edges)
    g = load_graph(text)
    tsv = serialize_matrix(build_transition(g, PageRankConfig.uniform(g.n)))
    for fn, arg, limit in ((load_graph, text, 23), (parse_matrix, tsv, 14)):
        ratio = _peak(fn, arg) / len(arg)
        assert ratio < limit, f"{fn.__name__} peaks at {ratio:.1f} x the text size"


def test_plain_edge_file_loads_without_str_tokens(monkeypatch):
    # one byte per character and one int64 per token or line at a time: near
    # 8 x the text size, against 18 x with the str tokens
    monkeypatch.setattr(fairpr.text, "_column", _no_str_tokens)
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 20_000, (100_000, 2))
    text = "".join(f"{a}\t{b}\n" for a, b in edges)
    ratio = _peak(load_graph, text) / len(text)
    assert ratio < 10, f"load_graph peaks at {ratio:.1f} x the text size"


# ------------------------------------------------------------ pair sort
# Graph (so load_graph) and parse_matrix sort (row, col) pairs as one int64
# key, and build_transition reads a Graph's sorted pairs. The references
# below are the three readers' bodies as they were with np.lexsort; ids past
# the int64 key range take np.lexsort itself.


def lexsort_load_graph(src, dst, undirected):
    pairs = np.column_stack([src, dst])
    if undirected:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    fresh = np.ones(len(pairs), bool)
    fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    edges = pairs[fresh]
    return Graph(n=int(edges.max()) + 1, edges=edges)


def lexsort_build_transition(g, cfg):
    edges = g.edges[np.lexsort((g.edges[:, 1], g.edges[:, 0]))]
    outdeg = np.bincount(edges[:, 0], minlength=g.n)
    indptr = np.concatenate([[0], np.cumsum(outdeg)]).astype(np.int64)
    shares = sink_shares(outdeg == 0, cfg.restart_vector)
    return TransitionMatrix(g.n, indptr, edges[:, 1], 1.0 / outdeg[edges[:, 0]], shares=shares)


@pytest.fixture
def lexsort_calls(monkeypatch):
    """How many times np.lexsort runs."""
    calls = []
    lexsort = np.lexsort

    def counted(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


# (low, high) id ranges: repeat-heavy, wide, just inside the int64 key
# range and just past it (a key of width 3037000500 could reach 2^63), past 2^32
ID_RANGES = [(0, 12), (0, 10**6), (3037000400, 3037000499), (3037000400, 3037000500), (2**32, 2**32 + 40)]
KEY_PATH = [True, True, True, False, False]


def _pairs(rng, low, high, m):
    src = rng.integers(low, high, m)
    dst = rng.integers(low, high, m)
    src[: m // 4] = low  # the extremes appear, so the guard sees the widest key
    dst[m // 4 : m // 2] = high - 1
    repeat = rng.integers(0, m, m // 5)  # repeated pairs
    src, dst = np.append(src, src[repeat]), np.append(dst, dst[repeat])
    order = rng.permutation(len(src))
    return src[order], dst[order]


@pytest.mark.parametrize("ids,key_path", zip(ID_RANGES, KEY_PATH))
@pytest.mark.parametrize("seed", range(3))
def test_sort_pairs_matches_lexsort(seed, ids, key_path, lexsort_calls):
    rng = np.random.default_rng(500 + seed)
    src, dst = _pairs(rng, *ids, int(rng.integers(1, 400)))
    want = np.lexsort((dst, src))
    del lexsort_calls[:]
    rows, cols, order = _sort_pairs(src, dst, with_order=True)
    assert np.array_equal(rows, src[want]) and np.array_equal(cols, dst[want])
    assert np.array_equal(rows, src[order]) and np.array_equal(cols, dst[order])
    rows, cols, order = _sort_pairs(src, dst)
    assert order is None and np.array_equal(rows, src[want]) and np.array_equal(cols, dst[want])
    assert len(lexsort_calls) == (0 if key_path else 2)
    # on distinct pairs the permutation is lexsort's own
    fresh = np.unique(np.column_stack([src, dst]), axis=0)
    shuffled = fresh[rng.permutation(len(fresh))]
    _, _, order = _sort_pairs(shuffled[:, 0], shuffled[:, 1], with_order=True)
    assert np.array_equal(order, np.lexsort((shuffled[:, 1], shuffled[:, 0])))


@pytest.mark.parametrize("ids,key_path", zip(ID_RANGES, KEY_PATH))
@pytest.mark.parametrize("undirected", [False, True])
def test_load_graph_matches_lexsort_reference(ids, key_path, undirected, lexsort_calls):
    rng = np.random.default_rng(ids[0] % 1000 + undirected)
    src, dst = _pairs(rng, *ids, 600)
    text = "".join(f"{s} {t}\n" for s, t in zip(src.tolist(), dst.tolist()))
    want = lexsort_load_graph(src, dst, undirected)
    del lexsort_calls[:]
    got = load_graph(text, undirected)
    assert _fingerprint(got) == _fingerprint(want)
    assert bool(lexsort_calls) != key_path


@pytest.mark.parametrize("seed", range(4))
def test_build_transition_matches_lexsort_reference(seed, lexsort_calls):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(1, 300))
    edges = np.unique(rng.integers(0, n, (int(rng.integers(1, 4 * n)), 2)), axis=0)
    # unsorted edges, as a Graph built by hand may hold them; some vertices are sinks
    g = Graph(n=n, edges=edges[rng.permutation(len(edges))])
    cfg = PageRankConfig(0.15, rng.dirichlet(np.ones(n)))
    want = lexsort_build_transition(g, cfg)
    del lexsort_calls[:]
    assert _fingerprint(build_transition(g, cfg)) == _fingerprint(want)
    assert not lexsort_calls


def test_build_transition_rejects_negative_ids_as_before():
    # a key of a negative id would decode as another pair; such edges take np.lexsort and fail as they did
    g = Graph(n=3, edges=np.array([[0, 1], [1, -1], [2, 0]]))
    with pytest.raises(ValueError, match="malformed sparsity pattern"):
        lexsort_build_transition(g, PageRankConfig.uniform(3))
    with pytest.raises(ValueError, match="malformed sparsity pattern"):
        build_transition(g, PageRankConfig.uniform(3))


def test_hand_built_graph_is_the_loaded_graph(monkeypatch):
    """A Graph made from shuffled, repeated pairs holds the edges load_graph
    reads from them, and build_transition, which sorts nothing, gives the
    loaded graph's matrix bitwise."""
    rng = np.random.default_rng(800)
    src, dst = _pairs(rng, 0, 40, 300)
    loaded = load_graph("".join(f"{s} {t}\n" for s, t in zip(src.tolist(), dst.tolist())))
    made = Graph(n=loaded.n, edges=np.column_stack([src, dst]))
    assert _fingerprint(made) == _fingerprint(loaded)
    cfg = PageRankConfig.uniform(loaded.n)
    want = build_transition(loaded, cfg)

    def no_sort(*args, **kwargs):
        raise AssertionError("build_transition sorted the edge pairs")

    monkeypatch.setattr("fairpr.graph._sort_pairs", no_sort)
    assert _fingerprint(build_transition(made, cfg)) == _fingerprint(want)
    assert want.sink_mask.any()  # some vertex of the 40 has no out-edge


def _entry_lines(rng, low, high, m):
    """Entry lines over pairs in [low, high), shuffled, with repeats."""
    src, dst = _pairs(rng, low, high, m)
    w = rng.random(len(src))
    return [f"{s}\t{t}\t{x!r}" for s, t, x in zip(src.tolist(), dst.tolist(), w.tolist())]


@pytest.mark.parametrize("seed", range(3))
def test_parse_matrix_matches_lexsort_reference(seed, lexsort_calls):
    rng = np.random.default_rng(700 + seed)
    tm = _random_matrix(rng, int(rng.integers(20, 120)))
    lines = serialize_matrix(tm).splitlines()
    body = [line for line in lines if not line.startswith("#")]
    rng.shuffle(body)
    text = "\n".join([line for line in lines if line.startswith("#")] + body)
    assert_same(parse_matrix, ref_parse_matrix, text)
    del lexsort_calls[:]
    assert _fingerprint(parse_matrix(text)) == _fingerprint(tm)
    assert not lexsort_calls


@pytest.mark.parametrize("ids,key_path", zip(ID_RANGES, KEY_PATH))
def test_parse_matrix_duplicate_message_matches_lexsort_reference(ids, key_path, lexsort_calls):
    # repeated pairs: both name the smallest repeated (row, col); ids past the
    # key range fail the same way, before any array of `size` is made
    rng = np.random.default_rng(800 + ids[0] % 1000)
    text = f"# n\t{ids[1]}\n" + "\n".join(_entry_lines(rng, *ids, 300))
    with pytest.raises(GraphParseError, match="duplicate matrix entry"):
        parse_matrix(text)
    del lexsort_calls[:]
    assert_same(parse_matrix, ref_parse_matrix, text)
    assert len(lexsort_calls) == (1 if key_path else 2)  # the reference's own, and ours past the key range


@pytest.mark.parametrize("size", [0, 1, 7, 5000])
def test_sorted_distinct_is_unique(size):
    # the '# sink_row' duplicate check and _first_uncovered sort instead of np.unique
    rng = np.random.default_rng(size)
    ids = rng.integers(0, max(size // 2, 1), size)
    assert _bits(_sorted_distinct(ids)) == _bits(np.unique(ids.astype(np.int64)))
    missing = sorted(set(range(size + 1)) - set(ids.tolist()))[0]
    assert _first_uncovered(ids) == missing
