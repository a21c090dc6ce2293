"""Directed-graph ingestion, group labels, and row-stochastic transition matrices.

A transition matrix stores the rows of the edges it has. Each sink row
(a vertex without out-edges) is implicit: it stands for one shared dense
vector, the restart vector, and ``WalkOperator`` applies those rows as a
rank-one term, so memory and every product grow with the edges and not
with n x #sinks. The TSV form writes that vector once, as ``# sink_row``
headers, instead of n lines per sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

ROW_SUM_TOL = 1e-12


class GraphParseError(ValueError):
    """Malformed edge-list, label, or matrix input."""


@dataclass(frozen=True)
class Graph:
    """Directed graph over vertex ids 0..n-1.

    Edges are unique (source, target) pairs sorted lexicographically;
    duplicates from the input are collapsed. Self-loops are allowed.
    """

    n: int
    edges: np.ndarray  # (m, 2) int64

    @property
    def m(self) -> int:
        return int(len(self.edges))


@dataclass(frozen=True)
class GroupAssignment:
    """Partition of vertices into K groups with dense ids 0..K-1."""

    labels: np.ndarray  # (n,) int64, values in [0, K)
    K: int
    group_sizes: np.ndarray = field(init=False)  # (K,) int64, derived from labels

    def __post_init__(self):
        sizes = np.bincount(self.labels, minlength=self.K)
        object.__setattr__(self, "group_sizes", sizes)
        if len(sizes) != self.K or (sizes == 0).any():
            raise ValueError("every group id in [0, K) must label at least one vertex")

    @property
    def n(self) -> int:
        return int(len(self.labels))

    def indicator(self, k: int) -> np.ndarray:
        """0/1 membership vector of group k as floats."""
        return (self.labels == k).astype(float)

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)


@dataclass(frozen=True)
class PageRankConfig:
    """Restart probability and restart distribution of the random walk."""

    gamma: float
    restart_vector: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"restart probability must be in (0,1), got {self.gamma}")
        v = np.asarray(self.restart_vector, dtype=float)
        object.__setattr__(self, "restart_vector", v)
        if not np.isfinite(v).all():
            raise ValueError("restart vector entries must be finite")
        if (v < 0).any():
            raise ValueError("restart vector entries must be nonnegative")
        if abs(v.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"restart vector must sum to 1, got {v.sum()!r}")

    @classmethod
    def uniform(cls, n: int, gamma: float = 0.15) -> "PageRankConfig":
        return cls(gamma, np.full(n, 1.0 / n))

    @classmethod
    def group_restart(cls, groups: GroupAssignment, ell: int, gamma: float = 0.15) -> "PageRankConfig":
        """Restart uniformly inside group ell only."""
        v = groups.indicator(ell) / groups.group_sizes[ell]
        return cls(gamma, v)


@dataclass(frozen=True)
class FairnessTarget:
    """Target total score per group; entries sum to 1."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if not np.isfinite(phi).all():
            raise ValueError("target scores must be finite")
        if (phi < 0).any():
            raise ValueError("target scores must be nonnegative")
        if abs(phi.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"target scores must sum to 1, got {phi.sum()!r}")

    @classmethod
    def from_lead_share(cls, phi: float, K: int) -> "FairnessTarget":
        """(phi, (1-phi)/(K-1), ...): first group gets phi, the rest split evenly."""
        if not 0.0 < phi < 1.0:
            raise ValueError(f"lead share must be in (0,1), got {phi}")
        if K == 1:
            raise ValueError("lead-share targets need K >= 2")
        rest = (1.0 - phi) / (K - 1)
        return cls(np.concatenate([[phi], np.full(K - 1, rest)]))


class TransitionMatrix:
    """Row-stochastic sparse matrix: CSR-stored rows plus implicit sink rows.

    Sink vertices (no out-edges) are flagged in ``sink_mask``. A sink row
    with no stored entries is implicit: it stands for the dense row
    ``sink_row`` (the restart vector, in matrices from ``build_transition``),
    one vector shared by every such row, so memory grows with the edges and
    not with n x #sinks. ``implicit`` flags these rows; ``sink_row`` is None
    when there are none. A sink row with stored entries (as the locally fair
    baselines write them) is explicit and means what it stores. Sink rows are
    not graph edges and are left untouched by reweighting code.

    The sparsity pattern is fixed: revised matrices keep it and may contain
    exact zeros. Column ids ascend within each row, so the keys
    ``row * n + col`` of the stored entries ascend too. ``nnz``,
    ``entry_rows`` and ``row`` see the stored entries only; ``to_csr``,
    ``to_dense``, ``row_sums``, ``validate`` and ``pattern_subset_of`` treat
    an implicit row as the full row it stands for.
    """

    __slots__ = ("n", "indptr", "indices", "data", "sink_mask", "sink_row", "implicit", "_op")

    def __init__(self, n, indptr, indices, data, sink_mask, sink_row=None):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        # contiguous, so the operator's scipy views share it and see in-place updates
        self.data = np.ascontiguousarray(data, dtype=float)
        self.sink_mask = np.asarray(sink_mask, dtype=bool)
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        if len(self.sink_mask) != self.n:
            raise ValueError("sink_mask length must be n")
        self.implicit = self.sink_mask & (self.indptr[1:] == self.indptr[:-1])
        self.sink_row = None
        if self.implicit.any():
            if sink_row is None:
                i = int(self.implicit.argmax())
                raise ValueError(f"sink row {i} has no entries and no sink_row was given")
            self.sink_row = np.asarray(sink_row, dtype=float)
            if self.sink_row.shape != (self.n,):
                raise ValueError("sink_row length must be n")
        self._op = None

    @property
    def nnz(self) -> int:
        """Number of stored entries (implicit rows store none)."""
        return int(len(self.data))

    def copy(self) -> "TransitionMatrix":
        return TransitionMatrix(
            self.n,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            self.sink_mask.copy(),
            None if self.sink_row is None else self.sink_row.copy(),
        )

    def with_data(self, data) -> "TransitionMatrix":
        """A matrix on this pattern and these sink rows with new stored weights;
        the pattern arrays are shared, not copied."""
        return TransitionMatrix(self.n, self.indptr, self.indices, data, self.sink_mask, self.sink_row)

    def operator(self) -> "WalkOperator":
        """The products p'P and Pz, built once and kept while ``data`` only
        changes in place."""
        if self._op is None or self._op.data is not self.data:
            self._op = WalkOperator(self)
        return self._op

    def to_csr(self, expand: np.ndarray | None = None) -> sp.csr_matrix:
        """CSR form with the implicit rows flagged in ``expand`` (all of them
        by default) written out in full, one entry per column."""
        expand = self.implicit if expand is None else expand
        if not expand.any():
            return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))
        counts = np.diff(self.indptr)
        counts[expand] = self.n
        indptr = np.concatenate([[0], np.cumsum(counts)])
        full = np.repeat(expand, counts)
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.empty(indptr[-1])
        indices[~full], data[~full] = self.indices, self.data
        k = int(expand.sum())
        indices[full] = np.tile(np.arange(self.n, dtype=np.int64), k)
        data[full] = np.tile(self.sink_row, k)
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def row(self, i: int):
        """(column ids, weights) views of the stored entries of row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_sums(self) -> np.ndarray:
        sums = np.zeros(self.n)
        stored = self.indptr[1:] > self.indptr[:-1]
        if stored.any():
            sums[stored] = np.add.reduceat(self.data, self.indptr[:-1][stored])
        if self.sink_row is not None:
            sums[self.implicit] = self.sink_row.sum()
        return sums

    def entry_rows(self) -> np.ndarray:
        """Row id of each stored entry, in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def pattern_equals(self, other: "TransitionMatrix") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def pattern_subset_of(self, other: "TransitionMatrix") -> bool:
        """True when every entry here is stored in ``other`` too; an implicit
        row counts as a full row on either side."""
        if self.n != other.n:
            return False
        # a full row here is covered only by a full row there
        full_here = self.implicit & ~other.implicit
        if (np.diff(other.indptr)[full_here] != self.n).any():
            return False
        rows = self.entry_rows()
        mine = (rows * self.n + self.indices)[~other.implicit[rows]]
        theirs = other.entry_rows() * self.n + other.indices
        # a key is stored in `other` when its sorted insertion range is nonempty
        return bool((np.searchsorted(theirs, mine, "right") > np.searchsorted(theirs, mine)).all())

    def validate(self, tol: float = ROW_SUM_TOL) -> None:
        """Check row-stochasticity and nonnegativity; raise on violation."""
        for w in (self.data,) if self.sink_row is None else (self.data, self.sink_row):
            if not np.isfinite(w).all():
                raise ValueError("non-finite weight in transition matrix")
            if (w < 0).any():
                raise ValueError("negative weight in transition matrix")
        sums = self.row_sums()
        bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"row {i} sums to {float(sums[i])!r}, expected 1 within {tol}")

    @classmethod
    def from_dense(cls, a, sink_mask=None) -> "TransitionMatrix":
        """Every nonzero of ``a`` stored, so sink rows are explicit."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        csr = sp.csr_matrix(a)
        csr.sort_indices()
        mask = np.zeros(n, bool) if sink_mask is None else np.asarray(sink_mask, bool)
        return cls(n, csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data, mask)


class WalkOperator:
    """The random walk's products with one TransitionMatrix P:
    ``left(p)`` = p'P and ``right(z)`` = Pz.

    The stored entries P_E act through scipy CSR (P_E) and CSC (P_E') views
    of P's own ``data``, so in-place weight updates need no rebuild. The
    implicit sink rows add a rank-one term (Langville & Meyer, "Deeper
    Inside PageRank", Internet Math. 2004): p'P = p'P_E + (sum of p over
    the implicit rows) s' and (Pz)_i = s.z on an implicit row i, where s
    is ``sink_row``. Without implicit rows the term is skipped, so the
    products are exactly scipy's.
    """

    __slots__ = ("data", "_rows", "_cols", "_implicit", "_sink_row")

    def __init__(self, P: TransitionMatrix):
        self.data = P.data
        self._rows = sp.csr_matrix((P.data, P.indices, P.indptr), shape=(P.n, P.n))
        self._cols = sp.csc_matrix((P.data, self._rows.indices, self._rows.indptr), shape=(P.n, P.n))
        self._implicit = np.flatnonzero(P.implicit)
        self._sink_row = P.sink_row

    def left(self, p: np.ndarray) -> np.ndarray:
        q = self._cols @ p
        if self._sink_row is not None:
            q += p[self._implicit].sum() * self._sink_row
        return q

    def right(self, z: np.ndarray) -> np.ndarray:
        y = self._rows @ z
        if self._sink_row is not None:
            y[self._implicit] = self._sink_row @ z
        return y


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


def load_graph(text: str, undirected: bool = False) -> Graph:
    """Parse whitespace-separated "src dst" lines into a Graph.

    Blank lines and lines starting with '#' are ignored. Duplicate edges
    collapse to one. With ``undirected=True`` every edge is mirrored.
    """
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


def _first_uncovered(ids) -> int:
    """Smallest nonnegative integer not in ``ids``."""
    u = np.unique(np.asarray(ids, dtype=np.int64))
    gap = np.flatnonzero(u != np.arange(u.size))
    return int(gap[0]) if gap.size else int(u.size)


def load_labels(text: str, n: int) -> GroupAssignment:
    """Parse "vertex group" lines; every vertex in [0, n) must appear once.

    Group ids are remapped to a dense [0, K) range in sorted original order.
    """
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
    # distinct ids in [0, n): fewer than n leave some vertex out, found
    # without allocating n entries (n comes from the largest edge id)
    if len(labels) < n:
        raise GraphParseError(f"vertex {_first_uncovered(list(labels))} has no group label")
    raw_labels = np.empty(n, dtype=np.int64)
    raw_labels[list(labels)] = list(labels.values())
    uniq, dense = np.unique(raw_labels, return_inverse=True)
    return GroupAssignment(labels=dense.astype(np.int64), K=int(len(uniq)))


def build_transition(g: Graph, cfg: PageRankConfig) -> TransitionMatrix:
    """Uniform out-weights 1/outdeg per edge; sink rows are implicit and
    stand for the restart vector."""
    v = cfg.restart_vector
    if len(v) != g.n:
        raise ValueError(f"restart vector has length {len(v)}, graph has {g.n} vertices")
    edges = g.edges[np.lexsort((g.edges[:, 1], g.edges[:, 0]))]
    outdeg = np.bincount(edges[:, 0], minlength=g.n)
    indptr = np.concatenate([[0], np.cumsum(outdeg)]).astype(np.int64)
    # edges are sorted by (src, dst), so they fill the rows in order
    tm = TransitionMatrix(g.n, indptr, edges[:, 1], 1.0 / outdeg[edges[:, 0]], outdeg == 0, v.copy())
    tm.validate()
    return tm


def serialize_matrix(tm: TransitionMatrix) -> str:
    """TSV form: header comments, then src/dst/weight lines.

    The headers are ``# n`` (the size), one ``# sink`` per sink row, and,
    when some sink row is implicit, one ``# sink_row <col> <weight>`` per
    nonzero entry of the sink vector; an implicit row writes no entry
    lines. Weights print with 17 significant digits (exact float64
    round-trip). Entries that are exactly zero are dropped.
    """
    keep = tm.data != 0.0
    entries = zip(tm.entry_rows()[keep].tolist(), tm.indices[keep].tolist(), tm.data[keep].tolist())
    sinks = np.flatnonzero(tm.sink_mask).tolist()
    lines = [f"# n\t{tm.n}", *map("# sink\t%d".__mod__, sinks)]
    if tm.sink_row is not None:
        cols = np.flatnonzero(tm.sink_row)
        lines += map("# sink_row\t%d\t%.17g".__mod__, zip(cols.tolist(), tm.sink_row[cols].tolist()))
    lines += map("%d\t%d\t%.17g".__mod__, entries)
    return "\n".join(lines) + "\n"


def _parse_weight(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-numeric weight {token!r}") from None


def parse_matrix(text: str, n: int | None = None) -> TransitionMatrix:
    """Inverse of serialize_matrix. The '# n' header wins; ``n`` is the
    fallback for headerless files. A row without entry lines must be a
    ``# sink`` row, and it then stands for the ``# sink_row`` vector."""
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
    # every row needs entries or a '# sink' line; when they cannot cover
    # `size` rows, name the first uncovered one before allocating `size`
    if np.count_nonzero(np.diff(arr[:, 0])) + 1 + len(sinks) < size:
        first = _first_uncovered(np.concatenate([arr[:, 0], np.asarray(sinks, np.int64)]))
        raise GraphParseError(f"row {first} has no entries")
    sink_mask = np.zeros(size, bool)
    sink_mask[sinks] = True
    counts = np.bincount(arr[:, 0], minlength=size)
    empty = np.flatnonzero(counts == 0)
    not_sink = empty[~sink_mask[empty]]
    if len(not_sink):
        raise GraphParseError(f"row {int(not_sink[0])} has no entries")
    sink_row = None
    if sink_cols:
        sink_row = np.zeros(size)
        sink_row[sink_cols] = sink_weights
    elif len(empty):
        raise GraphParseError(f"sink row {int(empty[0])} has no entries and the file has no '# sink_row' lines")
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    tm = TransitionMatrix(size, indptr, arr[:, 1].copy(), w, sink_mask, sink_row)
    tm.validate()
    return tm
