"""Outcome measures: relative matrix change and rank-correlation summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import GroupAssignment, TransitionMatrix, merge_runs


class UndefinedCoefficientError(ValueError):
    """Rank correlation has no defined value for this input."""


@dataclass(frozen=True)
class MetricBundle:
    loss: float
    loss_group_adapted: float
    delta_p: float
    rho_bar: float
    rho_tilde: float | None  # None when no vertex has a defined coefficient


def _segment_spearman(seg: np.ndarray, nseg: int, a: np.ndarray, b: np.ndarray, count=None):
    """Spearman coefficient of (a, b) within each segment [0, nseg): the
    Pearson correlation of average ranks, where ties share their mean rank.

    ``seg`` gives the segment of each item, and ``count`` how many equal
    values it stands for (1 each when None): a tie run's ranks run over the
    cumulative counts, and each item weighs its count in the sums. Returns
    (rho, tied_a, tied_b): tied_a marks segments whose a values are all
    equal (empty and one-value segments included), and rho is nan wherever
    either side is. Centered ranks are multiples of 1/2, so the sums are
    exact, in any order, for segments below about 10^5 values.
    """
    m = np.bincount(seg, count, nseg)
    first = np.cumsum(m) - m  # sorted position of each segment's first value

    def tie_runs(x):
        """The order that sorts x within segments, the sorted position where
        each run of equal values starts, and the run's segment."""
        order = np.lexsort((x, seg))
        sx, sseg = x[order], seg[order]
        starts = np.ones(x.size, bool)
        starts[1:] = (sseg[1:] != sseg[:-1]) | (sx[1:] != sx[:-1])
        run = np.flatnonzero(starts)
        return order, run, sseg[run]

    def centered_ranks(x):
        order, run, at = tie_runs(x)  # the sorted copies are gone before the ranks are made
        ends = np.concatenate((run[1:], [x.size]))
        lo, hi = run, ends  # each run's first sorted position and the next run's
        if count is not None:  # sorted item k's values start at position pos[k]
            pos = np.concatenate(([0], np.cumsum(count[order])))
            lo, hi = pos[run], pos[ends]
        # a tie run over sorted positions lo..hi - 1 holds ranks lo + 1..hi less the
        # segment start; centering subtracts the mean rank (m + 1) / 2
        mid = (lo + hi - 1) / 2.0 - first[at] - (m[at] - 1) / 2.0
        out = np.empty(x.size)
        out[order] = np.repeat(mid, ends - run)
        return out

    ca, cb = centered_ranks(np.asarray(a, float)), centered_ranks(np.asarray(b, float))
    wa = ca if count is None else ca * count
    num = np.bincount(seg, wa * cb, nseg)
    ssa = np.bincount(seg, wa * ca, nseg)
    ssb = np.bincount(seg, (cb if count is None else cb * count) * cb, nseg)
    denom = np.sqrt(ssa * ssb)
    rho = np.divide(num, denom, out=np.full(nseg, np.nan), where=denom > 0)
    return rho, ssa == 0.0, ssb == 0.0


def spearman(r1: np.ndarray, r2: np.ndarray) -> float:
    """Pearson correlation of average ranks; ties share their mean rank."""
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have equal length")
    if a.size < 2:
        raise UndefinedCoefficientError("need at least 2 values for a rank correlation")
    rho, tied_a, tied_b = _segment_spearman(np.zeros(a.size, np.int64), 1, a, b)
    if tied_a[0] or tied_b[0]:
        raise UndefinedCoefficientError("zero rank variance")
    return float(rho[0])


class Items(NamedTuple):
    """Rows of two matrices as weighted items (``aligned``): item t stands
    for ``count[t]`` columns (1 each when ``count`` is None), on each of
    which the two sides weigh ``new[t]`` and ``old[t]``. Its key is
    ``row * width + j``: j < n is a column, and j = n + c stands for
    columns of class c, the columns where ``classes`` holds c. Without
    classes (``classes`` None) width is n, and the keys are the ones
    ``entries`` writes."""

    keys: np.ndarray
    width: int
    new: np.ndarray
    old: np.ndarray
    count: np.ndarray | None
    classes: np.ndarray | None


def _stored_union(P_new: TransitionMatrix, P_old: TransitionMatrix, rows: np.ndarray):
    """(keys, new, old): the ascending union of the two matrices' stored
    keys ``row * n + col`` over the flagged rows, and each side's stored
    weights on it (0 where it has none). Equal keys are the union as they
    are; when the new side's keys hold every old one, they are the union and
    the old weights land at their ``np.searchsorted`` places; otherwise the
    union is one ``merge_runs``."""
    (keys_new, w_new), (keys_old, w_old) = P_new.entries(rows, dense=False), P_old.entries(rows, dense=False)
    if np.array_equal(keys_new, keys_old):
        return keys_new, w_new, w_old
    if len(keys_old) < len(keys_new):
        at = np.searchsorted(keys_new, keys_old)
        if np.array_equal(keys_new.take(at, mode="clip"), keys_old):  # every old key is a new one
            old = np.zeros(len(keys_new))
            old[at] = w_old
            return keys_new, w_new, old
    keys, order, first = merge_runs([keys_new, keys_old])
    at = np.empty(len(keys), np.intp)  # each side's keys' places in the union, new's first
    at[order] = np.cumsum(first) - 1
    keys = keys[first]
    new, old = np.zeros((2, len(keys)))
    new[at[: len(keys_new)]] = w_new
    old[at[len(keys_new) :]] = w_old
    return keys, new, old


def aligned(P_new: TransitionMatrix, P_old: TransitionMatrix) -> Items:
    """The rows that are not sinks on both sides, as ``Items``: the union
    of what ``entries`` writes out on either side, counted instead of
    written out. Each column that either side stores in a row is an item of
    its own, its key ``row * n + col`` ascending (``_stored_union``: no
    merge when both sides store the same keys, as a revision on the
    original's pattern and the locally fair baselines' outputs do). When a
    considered row carries shares on either side, the columns are cut into
    classes, the columns on which every vector those rows share (on either
    side) agrees, by one ``np.lexsort`` of the columns (one class per group
    for the locally fair baselines' vectors). Each (row, class) that one of
    the row's shares covers is one more item, after the column items,
    counting the class's columns that neither side stores in the row; the
    keys then take the width n + #classes. Every item's weights come from
    ``add_shares``, the stored weight (0 where none) and then each share in
    vector order, as ``entries`` adds them on each column. So O(edges +
    share rows x classes) items stand for what ``entries`` writes out, and
    nothing is n x classes; vectors whose entries all differ make one class
    per column, as many items as written-out keys, each of count 1 (so
    ``count`` is None). Rows without shares do no class work. ``delta_p``
    and ``rho_tilde`` read the items, so an evaluation aligns its two
    matrices once for both."""
    if P_new.n != P_old.n:
        raise ValueError("matrices must have the same dimension")
    n = P_new.n
    rows = ~(P_new.sink_mask & P_old.sink_mask)
    keys, new, old = _stored_union(P_new, P_old, rows)
    shared = ([], [])  # per side, each vector that considered rows share, with those rows
    for P, part in zip((P_new, P_old), shared):
        mine = rows[P.share_rows]
        for v in range(len(P.vectors)) if mine.any() else ():
            lo, hi = P.share_ptr[v], P.share_ptr[v + 1]
            if mine[lo:hi].any():
                part.append((P.vectors[v], P.share_rows[lo:hi][mine[lo:hi]]))
    if not shared[0] and not shared[1]:
        return Items(keys, n, new, old, None, None)
    vectors = np.array([vec for vec, _ in shared[0] + shared[1]])
    order = np.lexsort(vectors)  # stable: each class's columns ascend, its first column leads
    start = np.ones(n, bool)
    start[1:] = (vectors[:, order[1:]] != vectors[:, order[:-1]]).any(axis=0)
    classes = np.empty(n, np.int64)
    classes[order] = np.cumsum(start) - 1
    lead = order[start]  # each class's first column
    size = np.diff(np.append(np.flatnonzero(start), n))
    C = len(lead)
    # each (row, class) that a share covers, as row * C + class, once: a vector's
    # covered classes for its rows, each such run once (the two sides often share one)
    runs = []
    for vec, at in shared[0] + shared[1]:
        covered = np.flatnonzero(vec[lead])
        if not any(np.array_equal(at, a) and np.array_equal(covered, c) for c, a in runs):
            runs.append((covered, at))
    pairs = [(at[:, None] * C + covered).ravel() for covered, at in runs]
    pairs = np.sort(np.concatenate(pairs), kind="stable")  # a merge of ascending runs
    if not len(pairs):  # shares of vectors without nonzeros cover nothing
        return Items(keys, n, new, old, None, None)
    if len(runs) > 1:
        pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    # a covered class's columns, less those stored in the row, which are column items
    item_rows, cols = np.divmod(keys, n)
    stored = item_rows * C + classes[cols]
    hit = np.searchsorted(pairs, stored)
    hit = hit[pairs.take(hit, mode="clip") == stored]
    count = size[pairs % C] - np.bincount(hit, minlength=len(pairs))
    keep = count > 0
    spread_rows, spread = np.divmod(pairs[keep], C)
    count = count[keep]
    width = n + C
    keys = np.concatenate((item_rows * width + cols, spread_rows * width + n + spread))
    item_rows = np.concatenate((item_rows, spread_rows))
    cols = np.concatenate((cols, lead[spread]))  # a class item weighs what its class's first column does
    new, old = (np.concatenate((w, np.zeros(len(spread)))) for w in (new, old))
    if shared[0]:
        new = P_new.add_shares(item_rows, cols, new)
    if shared[1]:
        old = P_old.add_shares(item_rows, cols, old)
    count = None if (count == 1).all() else np.concatenate((np.ones(len(keys) - len(count), np.int64), count))
    return Items(keys, width, new, old, count, classes)


def delta_p(P_new: TransitionMatrix, P_old: TransitionMatrix, pair=None) -> float:
    """||P_new - P_old||_F / ||P_old||_F over the union of the two patterns,
    with the dense parts counted: a row that is a sink on both sides
    differs by the difference of the sink rows, and the other rows compare
    through ``aligned``'s items, each weighing its count. ||P_old||_F sums
    P_old's side of those items and its sink rows on both sides. ``pair``
    is the two matrices' ``aligned`` when the caller has it."""
    a, b, count = (aligned(P_new, P_old) if pair is None else pair)[2:5]
    d2, b2 = (a - b) ** 2, b**2
    if count is not None:
        d2, b2 = d2 * count, b2 * count
    num2, den2 = d2.sum(), b2.sum()
    both = P_new.sink_mask & P_old.sink_mask
    if both.any():
        num2 += both.sum() * ((P_new.sink_row - P_old.sink_row) ** 2).sum()
        den2 += both.sum() * (P_old.sink_row**2).sum()
    return float(np.sqrt(num2)) / float(np.sqrt(den2))


def rho_bar(p_old: np.ndarray, p_new: np.ndarray, groups: GroupAssignment) -> float:
    """Group-size-weighted mean of within-group Spearman coefficients.

    Size-1 groups contribute 1 (their trivial ranking is unchanged). A
    degenerate group whose scores are all tied contributes 1 when both
    vectors are tied, else 0; skipping would silently change the weights.
    """
    if len(p_old) != groups.n or len(p_new) != groups.n:
        raise ValueError("score vectors must match the label count")
    rho, tied_old, tied_new = _segment_spearman(groups.labels, groups.K, p_old, p_new)
    rho = np.where(tied_old | tied_new, tied_old & tied_new, rho)
    return float(np.sum(groups.group_sizes / groups.n * rho))


def _varied(rows: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Which of the n rows hold two different values of x among their items."""
    some = np.empty(n)
    some[rows] = x  # one of each row's values
    out = np.zeros(n, bool)
    out[rows[x != some[rows]]] = True
    return out


def rho_tilde(P_old: TransitionMatrix, P_new: TransitionMatrix, pair=None) -> float:
    """Mean Spearman coefficient of each vertex's out-weight ranking.

    Per row of P_old with edges (``edge_mask``; a row without them has no
    out-weights to rank), old and new weights are compared over the union
    of the two rows' ``entries``: stored entries plus shares on the
    nonzeros of their vectors, absent entries counting as zero. Vertices
    with fewer than 2 union entries are skipped; a vertex whose weights are
    all tied on both sides contributes 1, tied on exactly one side it is
    skipped as undefined.

    The union is read as ``aligned``'s items, each standing for its count
    of equal columns: a row's size is its items' counts summed, and a row
    is tied on a side when every item holds one value there, found for all
    rows at once against one value per row. Only the rows untied on both
    sides are ranked (``_segment_spearman`` with the counts), so the value
    is what ranking every written-out row gives, bitwise. Against a
    ``build_transition`` original every row is uniform, so tied: a revision
    on the original's pattern then ranks nothing and scores 1.0 when some
    row stayed tied and is undefined when none did, whatever it did to the
    other rows' rankings. ``pair`` is ``aligned(P_new, P_old)`` when the
    caller has it; its rows include every row of P_old with edges.
    """
    n = P_old.n
    keys, width, b, a, count, _ = aligned(P_new, P_old) if pair is None else pair
    rows = keys // width
    varied_old, varied_new = _varied(rows, a, n), _varied(rows, b, n)
    # tied on both sides counts as preserved; tied on one side is undefined
    defined = P_old.edge_mask & (np.bincount(rows, count, n) >= 2) & (varied_old == varied_new)
    if not defined.any():
        raise UndefinedCoefficientError("no vertex with a defined out-weight rank correlation")
    coeffs = np.ones(n)
    untied = defined & varied_old
    if untied.any():  # the untied rows' items, each row its own segment
        at = untied[rows]
        seg = (np.cumsum(untied) - 1)[rows[at]]
        del rows  # freed before the ranking, which holds a few arrays of the items' size
        spread = None if count is None else count[at]
        coeffs[untied] = _segment_spearman(seg, int(untied.sum()), a[at], b[at], spread)[0]
    return float(np.mean(coeffs[defined]))
