"""Directed-graph ingestion, group labels, and row-stochastic transition matrices."""

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
    """Row-stochastic sparse matrix in CSR form with a sink-row mask.

    Rows of sink vertices (no out-edges) hold a dense copy of the restart
    vector and are flagged in ``sink_mask``; they are not graph edges and
    are left untouched by reweighting code. The sparsity pattern is fixed:
    revised matrices keep the pattern and may contain exact zeros. Column
    ids ascend within each row, so the keys ``row * n + col`` of the stored
    entries ascend too.
    """

    __slots__ = ("n", "indptr", "indices", "data", "sink_mask")

    def __init__(self, n, indptr, indices, data, sink_mask):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self.sink_mask = np.asarray(sink_mask, dtype=bool)
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        if len(self.sink_mask) != self.n:
            raise ValueError("sink_mask length must be n")

    @property
    def nnz(self) -> int:
        return int(len(self.data))

    def copy(self) -> "TransitionMatrix":
        return TransitionMatrix(
            self.n, self.indptr.copy(), self.indices.copy(), self.data.copy(), self.sink_mask.copy()
        )

    def to_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def row(self, i: int):
        """(column ids, weights) views of row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_sums(self) -> np.ndarray:
        sums = np.add.reduceat(self.data, self.indptr[:-1])
        sums[np.diff(self.indptr) == 0] = 0.0
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
        """True when every stored entry here is stored in ``other`` too."""
        if self.n != other.n:
            return False
        mine = self.entry_rows() * self.n + self.indices
        theirs = other.entry_rows() * self.n + other.indices
        # a key is stored in `other` when its sorted insertion range is nonempty
        return bool((np.searchsorted(theirs, mine, "right") > np.searchsorted(theirs, mine)).all())

    def validate(self, tol: float = ROW_SUM_TOL) -> None:
        """Check row-stochasticity and nonnegativity; raise on violation."""
        if not np.isfinite(self.data).all():
            raise ValueError("non-finite weight in transition matrix")
        if (self.data < 0).any():
            raise ValueError("negative weight in transition matrix")
        sums = self.row_sums()
        bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"row {i} sums to {sums[i]!r}, expected 1 within {tol}")

    @classmethod
    def from_dense(cls, a, sink_mask=None) -> "TransitionMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        csr = sp.csr_matrix(a)
        csr.sort_indices()
        mask = np.zeros(n, bool) if sink_mask is None else np.asarray(sink_mask, bool)
        return cls(n, csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data, mask)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-integer {what} {token!r}") from None
    if value < 0:
        raise GraphParseError(f"line {lineno}: negative {what} {value}")
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


def load_labels(text: str, n: int) -> GroupAssignment:
    """Parse "vertex group" lines; every vertex in [0, n) must appear once.

    Group ids are remapped to a dense [0, K) range in sorted original order.
    """
    raw_labels = np.full(n, -1, dtype=np.int64)
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
        if raw_labels[v] != -1:
            raise GraphParseError(f"line {lineno}: duplicate label for vertex {v}")
        raw_labels[v] = g
    missing = np.flatnonzero(raw_labels == -1)
    if len(missing):
        raise GraphParseError(f"vertex {int(missing[0])} has no group label")
    uniq, dense = np.unique(raw_labels, return_inverse=True)
    return GroupAssignment(labels=dense.astype(np.int64), K=int(len(uniq)))


def build_transition(g: Graph, cfg: PageRankConfig) -> TransitionMatrix:
    """Uniform out-weights 1/outdeg per edge; sink rows replaced by the restart vector."""
    v = cfg.restart_vector
    if len(v) != g.n:
        raise ValueError(f"restart vector has length {len(v)}, graph has {g.n} vertices")
    edges = g.edges[np.lexsort((g.edges[:, 1], g.edges[:, 0]))]
    outdeg = np.bincount(edges[:, 0], minlength=g.n)
    sink_mask = outdeg == 0
    counts = np.where(sink_mask, g.n, outdeg)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=float)
    # edges are sorted by (src, dst), so they fill the edge rows in order
    in_sink = np.repeat(sink_mask, counts)
    indices[~in_sink] = edges[:, 1]
    data[~in_sink] = 1.0 / outdeg[edges[:, 0]]
    nsinks = int(sink_mask.sum())
    indices[in_sink] = np.tile(np.arange(g.n, dtype=np.int64), nsinks)
    data[in_sink] = np.tile(v, nsinks)
    tm = TransitionMatrix(g.n, indptr, indices, data, sink_mask)
    tm.validate()
    return tm


def serialize_matrix(tm: TransitionMatrix) -> str:
    """TSV form: header comments with n and sink rows, then src/dst/weight lines.

    Weights print with 17 significant digits (exact float64 round-trip).
    Entries that are exactly zero are dropped.
    """
    keep = tm.data != 0.0
    entries = zip(tm.entry_rows()[keep].tolist(), tm.indices[keep].tolist(), tm.data[keep].tolist())
    sinks = np.flatnonzero(tm.sink_mask).tolist()
    lines = [f"# n\t{tm.n}", *map("# sink\t%d".__mod__, sinks), *map("%d\t%d\t%.17g".__mod__, entries)]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, n: int | None = None) -> TransitionMatrix:
    """Inverse of serialize_matrix. The '# n' header wins; ``n`` is the
    fallback for headerless files."""
    header_n = None
    sinks, sink_lines = [], []
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
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise GraphParseError(f"line {lineno}: expected 'src dst weight', got {raw!r}")
        r = _parse_int(tokens[0], lineno, "vertex id")
        c = _parse_int(tokens[1], lineno, "vertex id")
        try:
            w = float(tokens[2])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-numeric weight {tokens[2]!r}") from None
        entries.append((r, c, w))
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
    counts = np.bincount(arr[:, 0], minlength=size)
    if (counts == 0).any():
        i = int(np.flatnonzero(counts == 0)[0])
        raise GraphParseError(f"row {i} has no entries")
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    sink_rows = np.asarray(sinks, dtype=np.int64)
    bad = np.flatnonzero(sink_rows >= size)
    if len(bad):
        j = int(bad[0])
        raise GraphParseError(f"line {sink_lines[j]}: sink row {sinks[j]} out of range [0, {size})")
    sink_mask = np.zeros(size, bool)
    sink_mask[sink_rows] = True
    tm = TransitionMatrix(size, indptr, arr[:, 1].copy(), w, sink_mask)
    tm.validate()
    return tm
