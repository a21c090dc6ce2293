"""Directed-graph ingestion, group labels, and row-stochastic transition matrices.

A transition matrix stores the rows of the edges it has. A sink row (a
vertex without out-edges) stores nothing: every sink row stands for one
shared dense vector, ``sink_row``, that ``WalkOperator`` applies as a
rank-one term, so memory and every product grow with the edges and not
with n x #sinks (only ``TransitionMatrix.entries`` writes one out in full).
The TSV form writes that vector once, as ``# sink_row`` headers; sink rows
that a file spells out entry by entry fold into it.

The text readers (``load_graph``, ``load_labels``, ``parse_matrix``) read
a whole text at once through ``fairpr.text.Lines``: ``str.splitlines``
lines of ``str.split`` tokens, found and converted with array operations.
Blank lines are skipped, and a line whose first token starts with '#' is a
comment (the matrix headers live there, as ``# n 5`` or ``#n 5``). A bad
line raises GraphParseError with its line number. (src, dst) pairs sort as
one int64 key, ``_sort_pairs``, and the writers format their lines in
blocks, ``format_lines``: no Python call per edge on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# scipy's compiled matvec kernels, as csr @ x and csc @ x call them; a private
# module, pinned bitwise to the public products by tests/test_pagerank.py
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .text import GraphParseError, Lines

ROW_SUM_TOL = 1e-12
BLOCK_LINES = 65536  # lines per ``%`` in format_lines


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
    """Row-stochastic sparse matrix: CSR-stored edge rows plus sink rows.

    Sink vertices (no out-edges) are flagged in ``sink_mask``. A sink row
    stores no entries, and the constructor refuses one that does: every
    sink row stands for the dense row ``sink_row`` (the restart vector, in
    matrices from ``build_transition``), one vector shared by all of them,
    so memory grows with the edges and not with n x #sinks. ``sink_row`` is
    None when there is no sink row. Every stored entry is an edge, and
    reweighting code leaves the sink rows as they are.

    The sparsity pattern is fixed: revised matrices keep it and may contain
    exact zeros. Column ids ascend within each row, so the keys
    ``row * n + col`` of the stored entries ascend too. ``nnz``,
    ``entry_rows`` and ``row`` see the stored entries only; ``entries``
    writes a sink row out in full, and ``to_csr``, ``to_dense``,
    ``pattern_subset_of`` and the metrics read rows through it.
    """

    __slots__ = ("n", "indptr", "indices", "data", "sink_mask", "sink_row", "_op")

    def __init__(self, n, indptr, indices, data, sink_mask, sink_row=None):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        # contiguous, so the operator's flat view shares it and sees in-place updates
        self.data = np.ascontiguousarray(data, dtype=float)
        self.sink_mask = np.asarray(sink_mask, dtype=bool)
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        if len(self.sink_mask) != self.n:
            raise ValueError("sink_mask length must be n")
        # the compiled sparse kernels index without bounds checks
        rows_ok = self.indptr[0] == 0 and self.indptr[-1] == len(self.data) and (np.diff(self.indptr) >= 0).all()
        if not rows_ok or (len(self.indices) and not 0 <= self.indices.min() <= self.indices.max() < self.n):
            raise ValueError("malformed sparsity pattern: row pointers or column ids out of range")
        stored = self.sink_mask & (self.indptr[1:] > self.indptr[:-1])
        if stored.any():
            raise ValueError(f"sink row {int(stored.argmax())} has stored entries; sink rows stand for sink_row")
        self.sink_row = None
        if self.sink_mask.any():
            if sink_row is None:
                raise ValueError(f"sink row {int(self.sink_mask.argmax())} has no entries and no sink_row was given")
            self.sink_row = np.asarray(sink_row, dtype=float)
            if self.sink_row.shape != (self.n,):
                raise ValueError("sink_row length must be n")
        self._op = None

    @property
    def nnz(self) -> int:
        """Number of stored entries (sink rows store none)."""
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

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(keys, weights) of the flagged rows: the ascending keys ``row * n + col``,
        with each sink row among them written out in full, zeros included."""
        stored, full = np.diff(self.indptr), rows & self.sink_mask
        counts = np.where(full, self.n, stored * rows)
        keys = np.repeat(np.arange(self.n, dtype=np.int64) * self.n, counts)
        weights = np.empty(len(keys))
        spread, keep = np.repeat(full, counts), np.repeat(rows, stored)
        keys[~spread] += self.indices[keep]
        weights[~spread] = self.data[keep]
        if full.any():  # without sink rows there may be no sink_row
            keys[spread] += np.tile(np.arange(self.n), int(full.sum()))
            weights[spread] = np.tile(self.sink_row, int(full.sum()))
        return keys, weights

    def to_csr(self) -> sp.csr_matrix:
        """CSR form with the sink rows written out in full, one entry per column."""
        keys, weights = self.entries(np.ones(self.n, bool))
        return sp.csr_matrix((weights, np.divmod(keys, self.n)), shape=(self.n, self.n))

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
            sums[self.sink_mask] = self.sink_row.sum()
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
        """True when every entry here is stored in ``other`` too; a sink row
        counts as a full row on either side."""
        if self.n != other.n:
            return False
        # a sink row of `other` covers anything; the other rows compare key by key
        (mine, _), (theirs, _) = self.entries(~other.sink_mask), other.entries(~other.sink_mask)
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
        """Every nonzero of ``a`` stored, except in the ``sink_mask`` rows:
        those must be bitwise equal, and they fold into ``sink_row``."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        mask = np.zeros(n, bool) if sink_mask is None else np.asarray(sink_mask, bool)
        rows = a[mask]
        differ = (rows.view(np.int64) != rows[:1].view(np.int64)).any(axis=1)
        if differ.any():
            raise ValueError(f"sink row {np.flatnonzero(mask)[differ.argmax()]} differs from sink row {mask.argmax()}")
        csr = sp.csr_matrix(np.where(mask[:, None], 0.0, a))
        csr.sort_indices()
        sink_row = rows[0] if len(rows) else None
        return cls(n, csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data, mask, sink_row)


class WalkOperator:
    """The random walk's products with C copies of one TransitionMatrix
    pattern: ``left(p)`` = p'P and ``right(z)`` = Pz for each copy. The
    weights are P's own 1-D ``data`` (one copy) or a (C, nnz) block, one
    copy per row; the vectors are flat, copy c's in entries c n .. c n + n - 1,
    and ``shape`` is the (n,) or (C, n) shape of the solvers' results.

    The stored entries P_E act through the raw arrays of one block-diagonal
    CSR matrix (P_E; read column-wise it is the CSC matrix P_E'): copy c's
    rows and columns are offset by c n, so a product serves every copy at
    once, and each copy's result is bitwise the product with that copy
    alone. The weights are a flat view of ``data``, so in-place updates need
    no rebuild. A product calls scipy's compiled ``csr_matvec`` or
    ``csc_matvec`` kernel directly on a zeroed output, as ``csr @ x`` and
    ``csc @ x`` do after their Python dispatch, so it is bitwise scipy's.
    The kernels check nothing: the matrix has checked its pattern, ``left``
    and ``right`` check their vector's length, and ``left_into`` and
    ``right_into``, which add into a zeroed buffer of the caller's, leave
    that check to the caller (``vector`` makes it). The sink rows add a
    rank-one term per copy (Langville & Meyer, "Deeper Inside PageRank",
    Internet Math. 2004): p'P = p'P_E + (sum of p over the sink rows) s' and
    (Pz)_i = s.z on a sink row i, where s is ``sink_row``. Without sink rows
    the term is skipped, so the products are exactly scipy's.
    """

    __slots__ = ("data", "n", "copies", "shape", "_size", "_indptr", "_indices", "_weights", "_spans", "_sink_row")

    def __init__(self, P: TransitionMatrix, data: np.ndarray | None = None):
        data = np.ascontiguousarray(P.data if data is None else data, dtype=float)
        copies = len(data) if data.ndim == 2 else 1
        indptr, indices = P.indptr, P.indices
        nnz = int(indptr[-1])  # the pattern's entry count, whatever ``data`` P holds now
        if data.shape[-1] != nnz:
            raise ValueError(f"weights of length {data.shape[-1]} for a pattern of {nnz} entries")
        size = copies * P.n
        # scipy's index type: 32-bit while the block's offsets fit
        itype = np.int32 if max(size, copies * nnz) < 2**31 else np.int64
        offsets = np.arange(copies)[:, None]
        self.data = data
        self.n = P.n
        self.copies = copies
        self.shape = data.shape[:-1] + (P.n,)
        self._size = size
        self._indptr = np.append((indptr[:-1] + nnz * offsets).ravel(), copies * nnz).astype(itype)
        self._indices = (indices + P.n * offsets).ravel().astype(itype)
        self._weights = data.reshape(-1)  # a view: C-contiguous data reshapes without a copy
        # each copy's span of a flat vector and its sink rows there
        sinks = np.flatnonzero(P.sink_mask)
        self._spans = [(slice(c * P.n, (c + 1) * P.n), sinks + c * P.n) for c in range(copies)]
        self._sink_row = P.sink_row

    def operator(self) -> "WalkOperator":
        """Itself, so that solvers take a matrix or an operator alike."""
        return self

    def vector(self, x) -> np.ndarray:
        """``x`` as the C-contiguous float64 vector the kernels read, or
        ValueError (as scipy's dimension check raises) when its length is wrong."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self._size,):
            raise ValueError(f"dimension mismatch: vector of shape {x.shape} for an operator of size {self._size}")
        return x

    def left(self, p: np.ndarray) -> np.ndarray:
        p = self.vector(p)
        q = np.zeros(self._size)
        self.left_into(p, q)
        return q

    def right(self, z: np.ndarray) -> np.ndarray:
        z = self.vector(z)
        y = np.zeros(self._size)
        self.right_into(z, y)
        return y

    def left_into(self, p: np.ndarray, q: np.ndarray) -> None:
        """Add p'P into ``q``, which the caller has zeroed. Neither vector is
        checked: both must be C-contiguous float64 of the operator's size."""
        csc_matvec(self._size, self._size, self._indptr, self._indices, self._weights, p, q)
        if self._sink_row is not None:
            # copy by copy: a (C, m) gather is not contiguous per row and sums in another order
            for span, sinks in self._spans:
                q[span] += p[sinks].sum() * self._sink_row

    def right_into(self, z: np.ndarray, y: np.ndarray) -> None:
        """Add Pz into ``y``, which the caller has zeroed; unchecked, as ``left_into``."""
        csr_matvec(self._size, self._size, self._indptr, self._indices, self._weights, z, y)
        if self._sink_row is not None:
            # one dot per copy: a matrix-vector product would sum in another order
            for span, sinks in self._spans:
                y[sinks] = self._sink_row @ z[span]


def _sort_pairs(rows: np.ndarray, cols: np.ndarray, with_order: bool = False):
    """``(rows, cols, order)``: the int64 pairs sorted by row, then column,
    and with ``with_order`` the permutation that sorts them (else None).

    The pairs sort as one key ``row * width + col`` (width: the largest
    column id + 1), with ``np.sort``, or ``np.argsort`` when the permutation
    is asked for. On distinct pairs that is exactly ``np.lexsort((cols,
    rows))``'s order, and repeated pairs land next to each other either
    way. Pairs whose keys could leave the int64 range (a negative id, or
    ids from about 3e9 on) sort with ``np.lexsort``.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    width = int(cols.max(initial=0)) + 1
    if int(rows.max(initial=0)) * width + width - 1 > np.iinfo(np.int64).max or (
        min(rows.min(initial=0), cols.min(initial=0)) < 0
    ):
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], order if with_order else None
    key = rows * width + cols
    order = np.argsort(key) if with_order else None
    key = np.sort(key) if order is None else key[order]
    rows, cols = np.divmod(key, width)
    return rows, cols, order


def _sorted_distinct(ids) -> np.ndarray:
    """``np.unique(ids)`` for int64 ids, by a sort and a diff (plain
    ``np.unique`` hashes, many times slower on large id sets)."""
    u = np.sort(np.asarray(ids, dtype=np.int64))
    fresh = np.ones(len(u), bool)
    fresh[1:] = u[1:] != u[:-1]
    return u[fresh]


def load_graph(text: str, undirected: bool = False) -> Graph:
    """Parse whitespace-separated "src dst" lines into a Graph.

    Blank lines and lines starting with '#' are ignored. Duplicate edges
    collapse to one. With ``undirected=True`` every edge is mirrored.
    """
    (src, dst), _, bad = Lines(text).table(("vertex id", "vertex id"), "'src dst'")
    if bad:
        raise bad[1]
    if not len(src):
        raise GraphParseError("no edges found in input")
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    src, dst, _ = _sort_pairs(src, dst)
    fresh = np.ones(len(src), bool)  # differs from the pair before it
    fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    edges = np.column_stack([src[fresh], dst[fresh]])
    return Graph(n=int(edges.max()) + 1, edges=edges)


def _first_uncovered(ids) -> int:
    """Smallest nonnegative integer not in ``ids``."""
    u = _sorted_distinct(ids)
    gap = np.flatnonzero(u != np.arange(u.size))
    return int(gap[0]) if gap.size else int(u.size)


def load_labels(text: str, n: int) -> GroupAssignment:
    """Parse "vertex group" lines; every vertex in [0, n) must appear once.

    Group ids are remapped to a dense [0, K) range in sorted original order.
    """
    (v, g), lineno, bad = Lines(text).table(("vertex id", "group id"), "'vertex group'")
    # the rows stop before `bad`: a row out of range or labelling a vertex again comes first
    order = np.argsort(v, kind="stable")
    again = np.zeros(len(v), bool)
    again[order[1:][v[order[1:]] == v[order[:-1]]]] = True
    wrong = np.flatnonzero((v >= n) | again)
    if len(wrong):
        i = wrong[0]
        if v[i] >= n:
            raise GraphParseError(f"line {lineno[i]}: vertex {v[i]} out of range [0, {n})")
        raise GraphParseError(f"line {lineno[i]}: duplicate label for vertex {v[i]}")
    if bad:
        raise bad[1]
    # distinct ids in [0, n): fewer than n leave some vertex out, found
    # without allocating n entries (n comes from the largest edge id)
    if len(v) < n:
        raise GraphParseError(f"vertex {_first_uncovered(v)} has no group label")
    raw_labels = np.empty(n, dtype=np.int64)
    raw_labels[v] = g
    uniq, dense = np.unique(raw_labels, return_inverse=True)
    return GroupAssignment(labels=dense.astype(np.int64), K=int(len(uniq)))


def build_transition(g: Graph, cfg: PageRankConfig) -> TransitionMatrix:
    """Uniform out-weights 1/outdeg per edge; sink rows stand for the
    restart vector."""
    v = cfg.restart_vector
    if len(v) != g.n:
        raise ValueError(f"restart vector has length {len(v)}, graph has {g.n} vertices")
    src, dst, _ = _sort_pairs(g.edges[:, 0], g.edges[:, 1])
    outdeg = np.bincount(src, minlength=g.n)
    indptr = np.concatenate([[0], np.cumsum(outdeg)]).astype(np.int64)
    # edges are sorted by (src, dst), so they fill the rows in order
    tm = TransitionMatrix(g.n, indptr, dst, 1.0 / outdeg[src], outdeg == 0, v.copy())
    tm.validate()
    return tm


def format_lines(pattern: str, *columns: np.ndarray) -> str:
    """One ``pattern % (a, b, ...)`` line per entry of the columns, the
    same bytes as formatting line by line. Blocks of up to ``BLOCK_LINES``
    lines are formatted with one ``%`` each, on the pattern repeated over
    the block, so no Python call is made per line and the Python objects
    of one block are alive at a time."""
    parts = []
    for lo in range(0, len(columns[0]), BLOCK_LINES):
        block = [c[lo : lo + BLOCK_LINES].tolist() for c in columns]
        values = [None] * (len(columns) * len(block[0]))
        for j, col in enumerate(block):
            values[j :: len(columns)] = col
        parts.append(pattern * len(block[0]) % tuple(values))
    return "".join(parts)


def serialize_matrix(tm: TransitionMatrix) -> str:
    """TSV form: header comments, then src/dst/weight lines.

    The headers are ``# n`` (the size), one ``# sink`` per sink row, and,
    when there are sink rows, one ``# sink_row <col> <weight>`` per nonzero
    entry of the sink vector; sink rows write no entry lines. Weights print
    with ``%.17g``, 17 significant digits (exact float64 round-trip).
    Entries that are exactly zero are dropped. The lines are formatted in
    blocks (``format_lines``), byte for byte as one ``%`` per line would.
    """
    keep = tm.data != 0.0
    parts = [f"# n\t{tm.n}\n", format_lines("# sink\t%d\n", np.flatnonzero(tm.sink_mask))]
    if tm.sink_row is not None:
        cols = np.flatnonzero(tm.sink_row)
        parts.append(format_lines("# sink_row\t%d\t%.17g\n", cols, tm.sink_row[cols]))
    parts.append(format_lines("%d\t%d\t%.17g\n", tm.entry_rows()[keep], tm.indices[keep], tm.data[keep]))
    return "".join(parts)


def parse_matrix(text: str, n: int | None = None) -> TransitionMatrix:
    """Inverse of serialize_matrix. The '# n' header wins; ``n`` is the
    fallback for headerless files. A row without entry lines must be a
    ``# sink`` row. Sink rows stand for the ``# sink_row`` vector, and any
    written out in entry lines must spell it (or the first one) out bit for bit."""
    lines = Lines(text)
    (rows, cols, w), _, bad = lines.table(("vertex id", "vertex id", None), "'src dst weight'")
    ((sizes,), _, bad_n), ((sinks,), sink_lines, bad_sink), ((sink_cols, sink_weights), sink_col_lines, bad_col) = (
        lines.headers(n=("matrix size",), sink=("sink row",), sink_row=("sink_row column", None))
    )
    errors = [e for e in (bad, bad_n, bad_sink, bad_col) if e]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    size = int(sizes[-1]) if len(sizes) else n
    if size is None:
        raise GraphParseError("matrix size unknown: no '# n' header and no explicit n")
    if not len(rows):
        raise GraphParseError("no matrix entries found in input")
    top = max(rows.max(), cols.max())
    if top >= size:
        raise GraphParseError(f"entry index {int(top)} out of range [0, {size})")
    rows, cols, order = _sort_pairs(rows, cols, with_order=True)
    w = w[order]
    dup = np.flatnonzero((np.diff(rows) == 0) & (np.diff(cols) == 0))
    if len(dup):
        raise GraphParseError(f"duplicate matrix entry ({rows[dup[0]]}, {cols[dup[0]]})")
    for ids, at, what in ((sinks, sink_lines, "sink row"), (sink_cols, sink_col_lines, "sink_row column")):
        past = np.flatnonzero(ids >= size)
        if len(past):
            raise GraphParseError(f"line {at[past[0]]}: {what} {ids[past[0]]} out of range [0, {size})")
    if len(_sorted_distinct(sink_cols)) < len(sink_cols):
        raise GraphParseError("duplicate '# sink_row' column")
    # every row needs entries or a '# sink' line; when they cannot cover
    # `size` rows, name the first uncovered one before allocating `size`
    if np.count_nonzero(np.diff(rows)) + 1 + len(sinks) < size:
        raise GraphParseError(f"row {_first_uncovered(np.concatenate([rows, sinks]))} has no entries")
    sink_mask = np.zeros(size, bool)
    sink_mask[sinks] = True
    counts = np.bincount(rows, minlength=size)
    not_sink = np.flatnonzero((counts == 0) & ~sink_mask)
    if len(not_sink):
        raise GraphParseError(f"row {int(not_sink[0])} has no entries")
    sink_row = None
    if len(sink_cols):
        sink_row = np.zeros(size)
        sink_row[sink_cols] = sink_weights
    spelled = sink_mask[rows]
    if spelled.any():
        srows, scols, vals = rows[spelled], cols[spelled], w[spelled]
        source = "the '# sink_row' vector" if len(sink_cols) else f"sink row {srows[0]}"
        if not len(sink_cols):
            sink_row = np.zeros(size)
            sink_row[scols[srows == srows[0]]] = vals[srows == srows[0]]
        # a row spells out the vector when its nonzero entries are the vector's nonzeros, bit for bit
        nz = vals != 0.0
        hits = np.bincount(srows, nz & (sink_row[scols].view(np.int64) == vals.view(np.int64)), size)
        nonzero = np.bincount(srows, nz, size)
        bad_rows = (counts > 0) & sink_mask & ((hits != nonzero) | (nonzero != np.count_nonzero(sink_row)))
        if bad_rows.any():
            raise GraphParseError(f"sink row {int(bad_rows.argmax())} differs from {source}")
        cols, w = cols[~spelled], w[~spelled]
        counts[sink_mask] = 0
    elif len(sinks) and sink_row is None:
        raise GraphParseError(f"sink row {sinks.min()} has no entries and the file has no '# sink_row' lines")
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    tm = TransitionMatrix(size, indptr, cols, w, sink_mask, sink_row)
    tm.validate()
    return tm
