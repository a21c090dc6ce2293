"""Directed-graph ingestion, group labels, and row-stochastic transition matrices.

A transition matrix stores the entries of the edges it has, plus a dense
part: a few shared dense row vectors, of which each row may carry shares.
A sink row (a vertex without out-edges) stores nothing and carries share 1
of vector 0, ``sink_row``; the locally fair baselines spread a share over a
group as a share of the group's 0/1 indicator vector. ``WalkOperator``
applies all shares as one low-rank term, so memory and every product
grow with the edges and n, not with n x #sinks or rows x group size (one
method, ``TransitionMatrix.add_shares``, weighs shares; ``entries`` writes
them out with it, each on the nonzeros of its vector). The TSV form
writes each vector once and each row's shares once, as header lines.

The text readers (``load_graph``, ``load_labels``, ``parse_matrix``) read
a whole text at once through ``fairpr.text.Lines``: ``str.splitlines``
lines of ``str.split`` tokens, found and converted with array operations.
An edge or label file of plain ASCII ids reads with one C parse and no
``str`` tokens (``Lines.plain_ids``).
Blank lines are skipped, and a line whose first token starts with '#' is a
comment (the matrix headers live there, as ``# n 5`` or ``#n 5``). A bad
line raises GraphParseError with its line number. A ``Graph`` sorts its
(src, dst) pairs once, as one int64 key (``_sort_pairs``), and the writers
format their lines in blocks, ``format_lines``: no Python call per edge on
either side. Most
weights of a file repeat (a row's one 1/outdeg, a uniform sink vector, a
few group weights per row), so the writer formats each distinct weight of
such a column once and the reader converts one token per run of equal
tokens: the bytes written and the arrays read stay the same.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# scipy's compiled matvec kernels, as csr @ x and csc @ x call them; a private
# module, pinned bitwise to the public products by tests/test_pagerank.py
from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvec, csr_matvecs

from .text import GraphParseError, Lines

ROW_SUM_TOL = 1e-12
BLOCK_LINES = 65536  # lines per ``%`` in format_lines
_SPEC = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[a-zA-Z]")  # one conversion of a format_lines pattern
# parse_matrix's dense vectors may hold this many floats per line of the file
# (about what reading the line takes), or DENSE_FLOOR floats in all
DENSE_PER_LINE = 32
DENSE_FLOOR = 2**20


def _whole(ids, message) -> np.ndarray:
    """``ids`` as int64. Float ids must be whole numbers, which numpy's cast
    would truncate: else ValueError with ``message(i, id)`` of the first
    other one, at flat index i."""
    ids = np.asarray(ids)
    if ids.dtype.kind == "f":
        whole = np.isfinite(ids) & (ids == np.trunc(ids))
        if not whole.all():
            i = int(np.argmin(whole.ravel()))
            raise ValueError(message(i, float(ids.flat[i])))
    return ids.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Graph:
    """Directed graph over vertex ids 0..n-1.

    Edges are unique (source, target) pairs, sorted lexicographically and
    collapsed by the constructor (``_sort_pairs``). Self-loops are allowed.
    ``edges`` has shape (m, 2), or is empty for no edges. An id outside
    [0, n) raises ValueError naming the first such edge, in the order given.
    """

    n: int
    edges: np.ndarray  # (m, 2) int64

    def __post_init__(self):
        edges = _whole(self.edges, lambda i, v: f"edge {i // 2} has vertex id {v!r}, which is not a whole number")
        edges = edges if edges.size else edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        src, dst, _ = _sort_pairs(edges[:, 0], edges[:, 1], n=self.n)
        fresh = np.ones(len(src), bool)  # differs from the pair before it
        fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        object.__setattr__(self, "edges", np.column_stack([src[fresh], dst[fresh]]))

    @property
    def m(self) -> int:
        return int(len(self.edges))


@dataclass(frozen=True)
class GroupAssignment:
    """Partition of vertices into K groups with dense ids 0..K-1, K = max label + 1."""

    labels: np.ndarray  # (n,) int64, values in [0, K)
    K: int = field(init=False)  # derived from labels
    group_sizes: np.ndarray = field(init=False)  # (K,) int64, derived from labels

    def __post_init__(self):
        labels = _whole(self.labels, lambda i, v: f"vertex {i} has label {v!r}, which is not a whole number")
        object.__setattr__(self, "labels", labels)
        sizes = np.bincount(labels)
        object.__setattr__(self, "K", len(sizes))
        object.__setattr__(self, "group_sizes", sizes)
        if (sizes == 0).any():
            raise ValueError("every group id in [0, K) must label at least one vertex")

    @property
    def n(self) -> int:
        return int(len(self.labels))

    def indicator(self, k: int) -> np.ndarray:
        """0/1 membership vector of group k as floats."""
        return (self.labels == k).astype(float)


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
        if v.ndim != 1:
            raise ValueError(f"restart vector must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("restart vector entries must be finite")
        if (v < 0).any():
            raise ValueError("restart vector entries must be nonnegative")
        if abs(v.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"restart vector must sum to 1, got {float(v.sum())!r}")

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
        if phi.ndim != 1:
            raise ValueError(f"target scores must be 1-D, got shape {phi.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("target scores must be finite")
        if (phi < 0).any():
            raise ValueError("target scores must be nonnegative")
        if abs(phi.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"target scores must sum to 1, got {float(phi.sum())!r}")

    @classmethod
    def from_lead_share(cls, phi: float, K: int) -> "FairnessTarget":
        """(phi, (1-phi)/(K-1), ...): first group gets phi, the rest split evenly."""
        if not 0.0 < phi < 1.0:
            raise ValueError(f"lead share must be in (0,1), got {phi}")
        if K == 1:
            raise ValueError("lead-share targets need K >= 2")
        rest = (1.0 - phi) / (K - 1)
        return cls(np.concatenate([[phi], np.full(K - 1, rest)]))


def _check_target(groups: GroupAssignment, target: FairnessTarget) -> None:
    """Raise ValueError unless ``target`` holds one score per group."""
    if len(target.phi) != groups.K:
        raise ValueError(f"target has {len(target.phi)} group scores for K = {groups.K} groups")


class TransitionMatrix:
    """Row-stochastic matrix P = P_E + S D: stored entries P_E (the edges,
    CSR) plus a dense part, shares S of a few dense row vectors D.

    ``vectors`` is the (V, n) stack D, and a row may carry a share of any of
    them: ``share_rows``, ``share_ids`` and ``share_data`` list the shares
    (row, vector id, value), sorted by vector id and then by row, so vector
    v's shares are the slice ``share_ptr[v]:share_ptr[v + 1]``. A row's
    edges are its stored entries (``edge_mask``) and the rest of it is its
    shares, however it is held, and every consumer reads a row so. A sink
    row stores no entries, and its only share is 1 on vector 0: the restart
    vector in matrices from ``build_transition``; ``sink_mask`` flags them
    and ``sink_row`` is vector 0 (None without them), views for the TSV form.
    The locally fair baselines spread a row's share over a group as a share
    of the group's 0/1 indicator vector. So memory and every product grow
    with the edges and n x V, not with n x #sinks or with rows x group size.
    Vectors that no row shares are dropped from the end of the stack.

    The constructor takes the dense part as ``shares=(vectors, rows, ids,
    values)``, in any order; ``sink_shares`` gives the shares of a matrix
    whose only shares are its sink rows'. Reweighting code changes the
    stored weights only: fairwalk keeps the dense part, and the descent
    refuses a matrix whose rows with edges carry shares (``has_spreads``).

    The sparsity pattern is fixed: revised matrices keep it and may contain
    exact zeros. Column ids ascend within each row, so the keys
    ``row * n + col`` of the stored entries ascend too. ``nnz``,
    ``entry_rows`` and ``row`` see the stored entries only; ``add_shares``
    alone weighs the dense part, ``entries`` writes it out with it (each
    share on the nonzeros of its vector) for ``to_csr`` and ``to_dense``,
    and the metrics count it with it (``metrics.aligned``).
    ``pattern_subset_of`` decides share rows from counts instead.
    """

    __slots__ = (
        "n", "indptr", "indices", "data", "vectors", "share_rows", "share_ids", "share_data", "share_ptr",
        "sink_mask", "sink_row",
    )

    def __init__(self, n, indptr, indices, data, shares=None):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        # contiguous, so the operator's flat view shares it and sees in-place updates
        self.data = np.ascontiguousarray(data, dtype=float)
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        # the compiled sparse kernels index without bounds checks
        rows_ok = self.indptr[0] == 0 and self.indptr[-1] == len(self.data) and (np.diff(self.indptr) >= 0).all()
        if not rows_ok or (len(self.indices) and not 0 <= self.indices.min() <= self.indices.max() < self.n):
            raise ValueError("malformed sparsity pattern: row pointers or column ids out of range")
        # the dense part, kept sorted by vector id and row, without the vectors past the last one shared
        vectors, rows, ids, values = (np.empty((0, self.n)), [], [], []) if shares is None else shares
        vectors = np.asarray(vectors, dtype=float)
        rows, ids = np.asarray(rows, dtype=np.int64), np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.n:
            raise ValueError("the share vectors must have length n")
        if not len(rows) == len(ids) == len(values):
            raise ValueError("share rows, vector ids and values lengths differ")
        if len(rows) and not (0 <= rows.min() <= rows.max() < self.n and 0 <= ids.min() <= ids.max() < len(vectors)):
            raise ValueError("share row or vector id out of range")
        self.sink_mask, self.sink_row = np.zeros(self.n, bool), None
        self.share_rows, self.share_ids, self.share_data = rows, ids, values
        if not len(rows):  # no dense part
            self.vectors, self.share_ptr = vectors[:0], np.zeros(1, np.int64)
            return
        key = ids * self.n + rows
        if (key[1:] <= key[:-1]).any():
            order = np.argsort(key, kind="stable")
            key, rows, ids, values = key[order], rows[order], ids[order], values[order]
            twice = np.flatnonzero(key[1:] == key[:-1])
            if len(twice):
                raise ValueError(f"row {rows[twice[0]]} carries two shares of vector {ids[twice[0]]}")
            self.share_rows, self.share_ids, self.share_data = rows, ids, values
        self.vectors = vectors[: ids[-1] + 1]
        self.share_ptr = np.searchsorted(ids, np.arange(len(self.vectors) + 1))
        # the sink rows: rows that store nothing and whose only share is 1 on vector 0
        self.sink_mask[rows[(ids == 0) & (values == 1.0)]] = True
        self.sink_mask &= ~self.edge_mask & (np.bincount(rows, minlength=self.n) == 1)
        if self.sink_mask.any():
            self.sink_row = self.vectors[0]

    @property
    def nnz(self) -> int:
        """Number of stored entries (the dense part stores none)."""
        return int(len(self.data))

    @property
    def shares(self) -> tuple:
        """The dense part as the constructor takes it: (vectors, rows, ids, values)."""
        return self.vectors, self.share_rows, self.share_ids, self.share_data

    @property
    def edge_mask(self) -> np.ndarray:
        """Which rows have edges, that is stored entries; the rest of a row is its shares."""
        return self.indptr[1:] > self.indptr[:-1]

    @property
    def has_spreads(self) -> bool:
        """True when some row with edges carries a share."""
        return bool(self.edge_mask[self.share_rows].any())

    def copy(self) -> "TransitionMatrix":
        """A matrix with copies of all of this one's arrays."""
        return self._derived(self.data.copy(), np.copy)

    def with_data(self, data) -> "TransitionMatrix":
        """A matrix on this pattern and this dense part with new stored
        weights; the other arrays are shared, not copied."""
        data = np.ascontiguousarray(data, dtype=float)
        if len(self.indices) != len(data):
            raise ValueError("indices and data lengths differ")
        return self._derived(data, lambda a: a)

    def _derived(self, data: np.ndarray, take) -> "TransitionMatrix":
        """This matrix with ``data`` as its stored weights and ``take`` of
        each other array. The pattern and the dense part were checked when
        this matrix was built, and nothing writes them in place, so they
        are not checked again."""
        tm = TransitionMatrix.__new__(TransitionMatrix)
        tm.n, tm.data = self.n, data
        for name in ("indptr", "indices", "vectors", "share_rows", "share_ids", "share_data", "share_ptr", "sink_mask"):
            setattr(tm, name, take(getattr(self, name)))
        tm.sink_row = None if self.sink_row is None else tm.vectors[0]
        return tm

    def operator(self) -> "WalkOperator":
        """The products p'P and Pz: a new operator on a view of ``data``."""
        return WalkOperator(self)

    def entries(self, rows: np.ndarray, dense: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(keys, weights) of the flagged rows with the dense part written
        out: the ascending keys ``row * n + col`` of the stored entries and
        of each share on the nonzero columns of its vector (a sink row's on
        those of vector 0), merged by ``merge_runs``, and their weights as
        ``add_shares`` gives them. With ``dense`` False, the stored entries
        alone."""
        n, stored = self.n, np.diff(self.indptr)
        keep = np.repeat(rows, stored)
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, stored * rows) + self.indices[keep]
        weights = self.data[keep]
        mine = rows[self.share_rows]
        if not dense or not mine.any():
            return keys, weights
        runs = [keys]
        for v, vec in enumerate(self.vectors):
            lo, hi = self.share_ptr[v], self.share_ptr[v + 1]
            runs.append((self.share_rows[lo:hi][mine[lo:hi]][:, None] * n + np.flatnonzero(vec)).ravel())
        keys, order, first = merge_runs(runs)
        base = np.zeros(len(keys))
        own = order < len(weights)  # a stored key's stored entry comes first among its copies
        base[own] = weights[order[own]]
        keys = keys[first]
        return keys, self.add_shares(*np.divmod(keys, n), base[first])

    def add_shares(self, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The one writer of shares: ``weights``, the stored weights at the
        places (rows[t], cols[t]) (0 where none is stored), plus each share
        of row rows[t] times its vector at cols[t], added in vector order. A
        vector that a row does not share, or that is 0 at the column, adds
        an exact 0.0. So a place's weight is the same whether it is read
        column by column (``entries``) or once for many columns on which
        every vector agrees (``metrics.aligned``)."""
        for v, vec in enumerate(self.vectors):
            lo, hi = self.share_ptr[v], self.share_ptr[v + 1]
            share = np.zeros(self.n)
            share[self.share_rows[lo:hi]] = self.share_data[lo:hi]
            weights = weights + share[rows] * vec[cols]
        return weights

    def to_csr(self) -> sp.csr_matrix:
        """CSR form with the dense part written out (``entries``)."""
        keys, weights = self.entries(np.ones(self.n, bool))
        return sp.csr_matrix((weights, np.divmod(keys, self.n)), shape=(self.n, self.n))

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def row(self, i: int):
        """(column ids, weights) views of the stored entries of row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_sums(self) -> np.ndarray:
        """Each row's stored weights plus its shares times their vectors' sums."""
        sums = np.zeros(self.n)
        stored = self.edge_mask
        if stored.any():
            sums[stored] = np.add.reduceat(self.data, self.indptr[:-1][stored])
        if len(self.share_rows):
            np.add.at(sums, self.share_rows, self.share_data * self.vectors.sum(axis=1)[self.share_ids])
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
        """True when every key that ``entries`` writes out here, ``other``
        writes out too.

        Nothing is written out. A row of ``other`` covers the nonzero
        columns of the vectors it shares (a sink row those of vector 0);
        rows that share the same vectors share one such cover. A stored
        entry here must be stored in ``other`` or covered there. For each
        share here, the nonzero columns of its vector that no cover of its
        row takes must all be stored in ``other``'s row: that is a count per
        row of ``other``'s stored entries on those columns, so O(edges +
        n V) for each kind of share here (its vector, and the set its row
        shares in ``other``), and O(edges V) for the stored entries. When
        both matrices store one pattern and the same shares (rows, vector
        ids and the nonzeros of the vectors), they write out the same keys,
        so the answer is True at once, whatever their weights and share
        values.
        """
        if self.n != other.n:
            return False
        if (
            self.pattern_equals(other)
            and np.array_equal(self.share_rows, other.share_rows)
            and np.array_equal(self.share_ids, other.share_ids)
            and np.array_equal(self.vectors != 0, other.vectors != 0)
        ):
            return True
        n = self.n
        # which vectors each row of other shares, and the rows grouped by that set
        shared = np.zeros((n, len(other.vectors)), bool)
        shared[other.share_rows, other.share_ids] = True
        sets, which = np.unique(shared, axis=0, return_inverse=True)
        at, cols, their_rows = self.entry_rows(), self.indices, other.entry_rows()
        theirs, key = their_rows * n + other.indices, at * n + cols
        found = np.searchsorted(theirs, key, "right") > np.searchsorted(theirs, key)
        for v in np.unique(other.share_ids).tolist():
            found |= shared[at, v] & (other.vectors[v, cols] != 0)
        if not found.all():
            return False
        at = self.share_rows
        groups = self.share_ids * len(sets) + which[at]
        for g in np.unique(groups).tolist():
            v, s = divmod(g, len(sets))
            need = (self.vectors[v] != 0) & ~(other.vectors[sets[s]] != 0).any(axis=0)
            if need.any():
                hits = np.bincount(their_rows, need[other.indices], n)
                if (hits[at[groups == g]] != need.sum()).any():
                    return False
        return True

    def validate(self) -> None:
        """Check nonnegativity and row sums of 1 within ROW_SUM_TOL; raise on violation."""
        for w in (self.data, self.vectors, self.share_data) if len(self.share_rows) else (self.data,):
            if not np.isfinite(w).all():
                raise ValueError("non-finite weight in transition matrix")
            if (w < 0).any():
                raise ValueError("negative weight in transition matrix")
        sums = self.row_sums()
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"row {i} sums to {float(sums[i])!r}, expected 1 within {ROW_SUM_TOL}")

    @classmethod
    def from_dense(cls, a, sink_mask=None) -> "TransitionMatrix":
        """Every nonzero of ``a`` stored, except in the ``sink_mask`` rows:
        those must be bitwise equal, and each becomes share 1 of vector 0,
        their common row."""
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
        shares = sink_shares(mask, rows[0] if len(rows) else None)
        return cls(n, csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data, shares=shares)


def sink_shares(sink_mask, sink_row) -> tuple:
    """The dense part, as ``TransitionMatrix`` takes it, of a matrix whose
    only shares are its sink rows': share 1 of vector 0, ``sink_row`` (None
    without sink rows), for each ``sink_mask`` row."""
    sinks = np.flatnonzero(sink_mask)
    vectors = np.empty((0, len(sink_mask))) if sink_row is None else np.asarray(sink_row, dtype=float)[None]
    return vectors, sinks, np.zeros(len(sinks), np.int64), np.ones(len(sinks))


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
    no rebuild. ``step(left, vectors)`` is the one product: a callable
    ``(x, y)`` that adds p'P (``left``) or Pz into ``y``. Without a dense
    part it is scipy's compiled ``csc_matvec`` or ``csr_matvec`` kernel
    itself with the operator's arrays bound, so a solver's step runs no
    Python frame, and on a zeroed ``y`` (as ``csr @ x`` and ``csc @ x``
    call the kernels after their Python dispatch) it is bitwise scipy's.
    It checks nothing: ``left`` and ``right`` check their vector's length
    (``vector``) and call it on a zeroed one. ``damped(f)`` is the operator
    of f P, which the solvers take once per call with f = 1 - gamma.

    The dense part S D adds one low-rank term, p'P = p'P_E + (S'p)'D and
    Pz = P_E z + S(Dz), two more kernel calls per product over all shares S
    and the nonzeros of the vectors D, block-diagonal over the copies as P_E
    is (S stored by vector, as the matrix keeps it, is S' in CSR form). A
    sink row is share 1 of vector 0 like any other share, so the dangling
    term (Langville & Meyer, "Deeper Inside PageRank", Internet Math. 2004)
    needs no path of its own, and no product calls BLAS. Without a dense
    part the products are exactly scipy's.
    """

    __slots__ = ("data", "n", "copies", "shape", "_size", "_indptr", "_indices", "_weights", "_dense")

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
        # the dense part S D, block-diagonal over the copies: its row count and
        # the CSR triples of S' and D, copy c's vector v in row c V + v of both
        self._dense = None
        if len(P.share_rows):
            nonzero = P.vectors != 0
            self._dense = (
                copies * len(P.vectors),
                (
                    _block_pointers(np.diff(P.share_ptr), copies, itype),
                    (P.share_rows + P.n * offsets).ravel().astype(itype),
                    np.tile(P.share_data, copies),
                ),
                (
                    _block_pointers(nonzero.sum(axis=1), copies, itype),
                    (np.nonzero(nonzero)[1] + P.n * offsets).ravel().astype(itype),
                    np.tile(P.vectors[nonzero], copies),
                ),
            )

    def operator(self) -> "WalkOperator":
        """Itself, so that solvers take a matrix or an operator alike."""
        return self

    def damped(self, factor: float) -> "WalkOperator":
        """The operator of ``factor`` P: the same index arrays, with this
        operator's current weights and shares times ``factor`` in new
        arrays, so its own ``data`` stays as it is."""
        op = WalkOperator.__new__(WalkOperator)
        op.n, op.copies, op.shape, op._size = self.n, self.copies, self.shape, self._size
        op._indptr, op._indices, op._dense = self._indptr, self._indices, self._dense
        op.data = self.data * factor
        op._weights = op.data.reshape(-1)
        if self._dense is not None:
            rows, (s_ptr, s_rows, shares), dense = self._dense
            op._dense = (rows, (s_ptr, s_rows, shares * factor), dense)
        return op

    def vector(self, x) -> np.ndarray:
        """``x`` as the C-contiguous float64 vector the kernels read, or
        ValueError (as scipy's dimension check raises) when its length is wrong."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self._size,):
            raise ValueError(f"dimension mismatch: vector of shape {x.shape} for an operator of size {self._size}")
        return x

    def left(self, p: np.ndarray) -> np.ndarray:
        """p'P for each copy, in a new vector."""
        q = np.zeros(self._size)
        self.step(True)(self.vector(p), q)
        return q

    def right(self, z: np.ndarray) -> np.ndarray:
        """Pz for each copy, in a new vector."""
        y = np.zeros(self._size)
        self.step(False)(self.vector(z), y)
        return y

    def step(self, left: bool, vectors: int = 1):
        """The callable ``(x, y)`` that adds p'P (``left``) or Pz into ``y``,
        for ``vectors`` vectors laid out (size, vectors): entry j vectors + r
        is entry j of vector r, and each vector's result is bitwise the
        one-vector product's. Neither vector is checked: both must be
        C-contiguous float64 of the operator's size times ``vectors``.

        With a dense part it makes the stored product, then gathers S'p (or
        Dz) into a zeroed coefficient per vector and spreads D'(S'p) (or
        S(Dz)) into ``y``: left and right differ only in which of the two
        stored triples each kernel reads."""
        stored = _kernel(not left, self._size, self._size, vectors, self._indptr, self._indices, self._weights)
        if self._dense is None:
            return stored
        rows, shares, dense = self._dense
        gather = _kernel(True, rows, self._size, vectors, *(shares if left else dense))
        spread = _kernel(False, self._size, rows, vectors, *(dense if left else shares))
        width = rows * vectors

        def product(x, y):
            stored(x, y)
            coef = np.zeros(width)
            gather(x, coef)
            spread(coef, y)

        return product


def _kernel(csr: bool, rows: int, cols: int, vectors: int, *arrays):
    """scipy's compiled kernel for the CSR matrix (``csr``) or the CSC matrix
    of shape (rows, cols) held in ``arrays``, bound into a callable ``(x, y)``
    that adds the product into ``y``: ``csr_matvec`` or ``csc_matvec`` for
    one vector, their ``*_matvecs`` forms for more."""
    if vectors == 1:
        return functools.partial(csr_matvec if csr else csc_matvec, rows, cols, *arrays)
    return functools.partial(csr_matvecs if csr else csc_matvecs, rows, cols, vectors, *arrays)


def _block_pointers(counts: np.ndarray, copies: int, itype) -> np.ndarray:
    """Row pointers of ``copies`` blocks of rows holding ``counts`` entries each."""
    return np.append(0, np.cumsum(np.tile(counts, copies))).astype(itype)


def _sort_pairs(rows: np.ndarray, cols: np.ndarray, with_order: bool = False, n: int | None = None):
    """``(rows, cols, order)``: the int64 pairs sorted by row, then column,
    and with ``with_order`` the permutation that sorts them (else None).
    With ``n``, every id must lie in [0, n): else ValueError names the first
    pair, in the order given, with an id outside, before anything is sorted.

    The pairs sort as one key ``row * width + col`` (width: the largest
    column id + 1), with ``np.sort``, or ``np.argsort`` when the permutation
    is asked for. On distinct pairs that is exactly ``np.lexsort((cols,
    rows))``'s order, and repeated pairs land next to each other either
    way. Pairs whose keys could leave the int64 range (a negative id, or
    ids from about 3e9 on) sort with ``np.lexsort``.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    top, width = int(rows.max(initial=0)), int(cols.max(initial=0)) + 1
    low = min(rows.min(initial=0), cols.min(initial=0))
    if n is not None and (low < 0 or max(top, width - 1) >= n):
        i = int(np.argmax((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)))
        raise ValueError(f"edge {i} ({rows[i]}, {cols[i]}) has a vertex id outside [0, {n})")
    if top * width + width - 1 > np.iinfo(np.int64).max or low < 0:
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], order if with_order else None
    key = rows * width + cols
    order = np.argsort(key) if with_order else None
    key = np.sort(key) if order is None else key[order]
    rows, cols = np.divmod(key, width)
    return rows, cols, order


def merge_runs(runs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, order, first) of ascending int64 runs: their keys ascending,
    the permutation of the runs' concatenation that sorts it, and a flag on
    the first of equal keys. One stable argsort (on int64 a timsort, which
    merges the runs in linear time) keeps equal keys in run order."""
    keys = np.concatenate(runs)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys, order, first


def _sorted_distinct(ids) -> np.ndarray:
    """``np.unique(ids)`` for int64 ids, by a sort and a diff (plain
    ``np.unique`` hashes, many times slower on large id sets)."""
    u = np.sort(np.asarray(ids, dtype=np.int64))
    fresh = np.ones(len(u), bool)
    fresh[1:] = u[1:] != u[:-1]
    return u[fresh]


def load_graph(text: str, undirected: bool = False) -> Graph:
    """Parse whitespace-separated "src dst" lines into a Graph.

    Blank lines and lines starting with '#' are ignored. ``undirected=True``
    mirrors every edge, and ``Graph`` sorts the pairs and drops repeats.
    """
    (src, dst), _, bad = Lines(text).table(("vertex id", "vertex id"), "'src dst'")
    if bad:
        raise bad[1]
    if not len(src):
        raise GraphParseError("no edges found in input")
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return Graph(n=int(max(src.max(), dst.max())) + 1, edges=np.column_stack([src, dst]))


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
    dense = np.unique(raw_labels, return_inverse=True)[1]
    return GroupAssignment(dense.astype(np.int64))


def build_transition(g: Graph, cfg: PageRankConfig) -> TransitionMatrix:
    """Uniform out-weights 1/outdeg per edge; sink rows stand for the
    restart vector. The graph's sorted edges fill the rows in order."""
    v = cfg.restart_vector
    if len(v) != g.n:
        raise ValueError(f"restart vector has length {len(v)}, graph has {g.n} vertices")
    src, dst = g.edges.T.copy()
    outdeg = np.bincount(src, minlength=g.n)
    indptr = np.concatenate([[0], np.cumsum(outdeg)]).astype(np.int64)
    tm = TransitionMatrix(g.n, indptr, dst, 1.0 / outdeg[src], shares=sink_shares(outdeg == 0, v.copy()))
    tm.validate()
    return tm


def _format_repeats(column: np.ndarray, spec: str) -> np.ndarray | None:
    """``spec % value`` for each entry of a float64 ``column`` with at most
    half as many distinct bit patterns as entries, as an object array of
    str that formats each distinct pattern once; else None. The patterns
    are counted by a sort (``_sorted_distinct``) and each entry finds its
    string by ``np.searchsorted``. The first half is counted first, and
    when more than half of its entries after the first bring a new pattern
    the column is taken as distinct, without sorting the rest: a column
    that repeats only in its second half is formatted entry by entry, to
    the same bytes."""
    if column.dtype != np.float64:
        return None
    bits = column.view(np.int64)
    half = len(bits) // 2
    head = _sorted_distinct(bits[:half])
    if 2 * len(head) > half + 1:
        return None
    distinct = _sorted_distinct(np.concatenate([head, bits[half:]]))
    if 2 * len(distinct) > len(column):
        return None
    text = [spec % value for value in distinct.view(np.float64).tolist()]
    return np.array(text, dtype=object)[np.searchsorted(distinct, bits)]


def format_lines(pattern: str, *columns: np.ndarray) -> str:
    """One ``pattern % (a, b, ...)`` line per entry of the columns, the
    same bytes as formatting line by line. Blocks of up to ``BLOCK_LINES``
    lines are formatted with one ``%`` each, on the pattern repeated over
    the block, so no Python call is made per line and the Python objects
    of one block are alive at a time.

    A float64 column with at most half as many distinct bit patterns as
    lines (a row's one 1/outdeg, a uniform vector) formats each distinct
    value once (``_format_repeats``), and its lines print those strings
    with ``%s``. Bit patterns, not values, tell the values apart, so 0.0
    and -0.0 stay "0" and "-0"."""
    specs = _SPEC.findall(pattern)
    columns = list(columns)
    for j, col in enumerate(columns):
        text = _format_repeats(col, specs[j])
        if text is not None:
            columns[j], specs[j] = text, "%s"
    specs = iter(specs)
    pattern = _SPEC.sub(lambda _: next(specs), pattern)
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

    The headers are ``# n`` (the size) and one ``# sink`` per sink row.
    The dense part follows: one ``# sink_row <col> <weight>`` per nonzero
    entry of vector 0, one ``# vector <id> <col> <weight>`` per nonzero
    entry of each further vector, and one ``# share <row> <id> <share>`` per
    share of a row that is not a sink row; sink rows write no entry lines.
    A matrix whose only shares are its sink rows has no ``# vector`` or
    ``# share`` lines. Weights print with ``%.17g``, 17 significant digits
    (exact float64 round-trip). Entries that are exactly zero are dropped.
    The lines are formatted in blocks (``format_lines``), byte for byte as
    one ``%`` per line would; a weight column that repeats its values
    formats each distinct value once.
    """
    keep = tm.data != 0.0
    parts = [f"# n\t{tm.n}\n", format_lines("# sink\t%d\n", np.flatnonzero(tm.sink_mask))]
    for v, vec in enumerate(tm.vectors):
        cols = np.flatnonzero(vec)
        if v == 0:
            parts.append(format_lines("# sink_row\t%d\t%.17g\n", cols, vec[cols]))
        else:
            parts.append(format_lines("# vector\t%d\t%d\t%.17g\n", np.full(len(cols), v), cols, vec[cols]))
    spread = ~tm.sink_mask[tm.share_rows]
    parts.append(
        format_lines("# share\t%d\t%d\t%.17g\n", tm.share_rows[spread], tm.share_ids[spread], tm.share_data[spread])
    )
    parts.append(format_lines("%d\t%d\t%.17g\n", tm.entry_rows()[keep], tm.indices[keep], tm.data[keep]))
    return "".join(parts)


def parse_matrix(text: str) -> TransitionMatrix:
    """Inverse of serialize_matrix. The '# n' header gives the size, else n
    is one past the largest row id that an entry, ``# sink`` or ``# share``
    line names: a row without entry lines must be a ``# sink`` row or carry
    ``# share`` lines, so for a valid file the two agree. A ``# sink r``
    line is the share (r, 0, 1) of the ``# sink_row`` vector, vector 0, so
    a sink row has no entry lines and no ``# share`` lines. A file names
    vector ids up to its number of ``# vector`` and ``# share`` lines, and
    its dense vectors hold at most ``DENSE_PER_LINE`` floats per line of
    the file, or ``DENSE_FLOOR`` in all, so that a short file cannot ask
    for a huge dense part. Group spreads written out as entry lines read as
    those entries."""
    lines = Lines(text)
    (rows, cols, w), _, bad = lines.table(("vertex id", "vertex id", None), "'src dst weight'")
    (
        ((sizes,), _, bad_n),
        ((sinks,), sink_lines, bad_sink),
        ((sink_cols, sink_weights), sink_col_lines, bad_col),
        ((vec_ids, vec_cols, vec_weights), vec_lines, bad_vec),
        ((share_rows, share_ids, shares), share_lines, bad_share),
    ) = lines.headers(
        n=("matrix size",),
        sink=("sink row",),
        sink_row=("sink_row column", None),
        vector=("vector id", "vector column", None),
        share=("share row", "vector id", None),
    )
    errors = [e for e in (bad, bad_n, bad_sink, bad_col, bad_vec, bad_share) if e]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    if not len(rows):
        raise GraphParseError("no matrix entries found in input")
    last = max(rows.max(), sinks.max(initial=0), share_rows.max(initial=0))  # the last row a line names
    size = int(sizes[-1]) if len(sizes) else int(last) + 1
    top = max(rows.max(), cols.max())
    if top >= size:
        raise GraphParseError(f"entry index {int(top)} out of range [0, {size})")
    rows, cols, order = _sort_pairs(rows, cols, with_order=True)
    w = w[order]
    dup = np.flatnonzero((np.diff(rows) == 0) & (np.diff(cols) == 0))
    if len(dup):
        raise GraphParseError(f"duplicate matrix entry ({rows[dup[0]]}, {cols[dup[0]]})")
    for ids, at, what in (
        (sinks, sink_lines, "sink row"),
        (sink_cols, sink_col_lines, "sink_row column"),
        (vec_cols, vec_lines, "vector column"),
        (share_rows, share_lines, "share row"),
    ):
        past = np.flatnonzero(ids >= size)
        if len(past):
            raise GraphParseError(f"line {at[past[0]]}: {what} {ids[past[0]]} out of range [0, {size})")
    if len(_sorted_distinct(sink_cols)) < len(sink_cols):
        raise GraphParseError("duplicate '# sink_row' column")
    # every row needs entries, a '# sink' or a '# share' line; when they cannot
    # cover `size` rows, name the first uncovered one before allocating `size`
    if np.count_nonzero(np.diff(rows)) + 1 + len(sinks) + len(share_rows) < size:
        raise GraphParseError(f"row {_first_uncovered(np.concatenate([rows, sinks, share_rows]))} has no entries")
    # vector ids count from 1 (0 is '# sink_row'), no further than the lines that name them
    named = len(vec_ids) + len(share_ids)
    for ids, at, lo in ((vec_ids, vec_lines, 1), (share_ids, share_lines, 0)):
        past = np.flatnonzero((ids < lo) | (ids > named))
        if len(past):
            raise GraphParseError(f"line {at[past[0]]}: vector id {ids[past[0]]} out of range [{lo}, {named}]")
    vector_count = 1 + int(max(vec_ids.max(initial=0), share_ids.max(initial=0)))
    if vector_count * size > max(DENSE_PER_LINE * len(lines.lineno), DENSE_FLOOR):
        raise GraphParseError(
            f"{vector_count} dense vectors of length {size} are too many for a file of {len(lines.lineno)} lines"
        )
    keyed = (("sink", sinks), ("vector", vec_ids * size + vec_cols), ("share", share_ids * size + share_rows))
    for name, keys in keyed:
        if len(_sorted_distinct(keys)) < len(keys):
            raise GraphParseError(f"duplicate '# {name}' line")
    sink_mask = np.zeros(size, bool)
    sink_mask[sinks] = True
    if sink_mask[share_rows].any():
        raise GraphParseError(f"sink row {share_rows[sink_mask[share_rows]].min()} has '# share' lines")
    counts = np.bincount(rows, minlength=size)
    not_sink = np.flatnonzero((counts == 0) & ~sink_mask & (np.bincount(share_rows, minlength=size) == 0))
    if len(not_sink):
        raise GraphParseError(f"row {int(not_sink[0])} has no entries")
    spelled = sink_mask & (counts > 0)
    if spelled.any():
        row = int(spelled.argmax())
        raise GraphParseError(f"sink row {row} has entry lines; a '# sink' row is the '# sink_row' vector alone")
    if len(sinks) and not len(sink_cols):
        raise GraphParseError(f"sink row {sinks.min()} has no entries and the file has no '# sink_row' lines")
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    vectors = np.zeros((vector_count, size))
    vectors[0, sink_cols] = sink_weights
    vectors[vec_ids, vec_cols] = vec_weights
    share_rows, share_ids = np.concatenate([sinks, share_rows]), np.concatenate([np.zeros_like(sinks), share_ids])
    shares = np.concatenate([np.ones(len(sinks)), shares])
    tm = TransitionMatrix(size, indptr, cols, w, shares=(vectors, share_rows, share_ids, shares))
    tm.validate()
    return tm
