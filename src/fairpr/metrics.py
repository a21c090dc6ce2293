"""Outcome measures: relative matrix change and rank-correlation summaries."""

from __future__ import annotations

from dataclasses import dataclass

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


def _segment_spearman(seg: np.ndarray, nseg: int, a: np.ndarray, b: np.ndarray):
    """Spearman coefficient of (a, b) within each segment [0, nseg): the
    Pearson correlation of average ranks, where ties share their mean rank.

    ``seg`` gives the segment of each value. Returns (rho, tied_a, tied_b):
    tied_a marks segments whose a values are all equal (empty and
    one-value segments included), and rho is nan wherever either side is.
    """
    m = np.bincount(seg, minlength=nseg)
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
        last = np.r_[run[1:], x.size] - 1
        # a tie run over sorted positions lo..hi holds ranks lo..hi + 1 less the
        # segment start; centering subtracts the mean rank (m + 1) / 2
        mid = (run + last) / 2.0 - first[at] - (m[at] - 1) / 2.0
        out = np.empty(x.size)
        out[order] = np.repeat(mid, last - run + 1)
        return out

    ca, cb = centered_ranks(np.asarray(a, float)), centered_ranks(np.asarray(b, float))
    num = np.bincount(seg, ca * cb, nseg)
    ssa = np.bincount(seg, ca * ca, nseg)
    ssb = np.bincount(seg, cb * cb, nseg)
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


def aligned(P_new: TransitionMatrix, P_old: TransitionMatrix):
    """(keys, new, old): the ascending union of the two matrices' ``entries``
    over the rows that are not sinks on both sides, and each side's weights
    on it (0 where it has none). When both sides write out the same keys
    (a revision on the original's pattern), those keys are the union and
    each side's weights are its own, with no merge. When the new side's
    keys hold every old one (a revision that only adds entries, as the
    locally fair baselines write), they are the union, and the old weights
    land at their ``np.searchsorted`` places. Otherwise the union is one
    ``merge_runs``, the same stable sort that ``entries`` merges its parts
    by. ``delta_p`` and ``rho_tilde`` read it, so an evaluation aligns its
    two matrices once for both."""
    if P_new.n != P_old.n:
        raise ValueError("matrices must have the same dimension")
    rows = ~(P_new.sink_mask & P_old.sink_mask)
    (keys_new, w_new), (keys_old, w_old) = P_new.entries(rows), P_old.entries(rows)
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


def delta_p(P_new: TransitionMatrix, P_old: TransitionMatrix, pair=None) -> float:
    """||P_new - P_old||_F / ||P_old||_F over the union of the two patterns,
    with the dense parts written out: a row that is a sink on both sides
    differs by the difference of the sink rows, and the other rows compare
    through ``TransitionMatrix.entries``, which writes each share out on
    the nonzeros of its vector. ||P_old||_F sums P_old's side of those
    weights and its sink rows on both sides. ``pair`` is the two matrices'
    ``aligned`` when the caller has it."""
    _, a, b = aligned(P_new, P_old) if pair is None else pair
    num2, den2 = ((a - b) ** 2).sum(), (b**2).sum()
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


def rho_tilde(P_old: TransitionMatrix, P_new: TransitionMatrix, pair=None) -> float:
    """Mean Spearman coefficient of each vertex's out-weight ranking.

    Per row of P_old with edges (``edge_mask``; a row without them has no
    out-weights to rank), old and new weights are compared over the union
    of the two rows' ``entries``: stored entries plus shares written out
    on the nonzeros of their vectors, absent entries counting as zero.
    Vertices with fewer than 2 union entries are skipped; a vertex whose
    weights are all tied on both sides contributes 1, tied on exactly one
    side it is skipped as undefined.

    A row is tied on a side when its smallest and largest weights there are
    equal, found per row by ``np.minimum.reduceat``/``np.maximum.reduceat``
    over the union's ascending row runs, whose bounds ``np.searchsorted``
    finds from the row starts. Only the rows untied on both
    sides are ranked (``_segment_spearman``), so the value is what ranking
    every row gives, bitwise. Against a ``build_transition`` original every
    row is uniform, so tied: a revision on the original's pattern then
    ranks nothing and scores 1.0 when some row stayed tied and is undefined
    when none did, whatever it did to the other rows' rankings. ``pair`` is
    ``aligned(P_new, P_old)`` when the caller has it; its rows include
    every row of P_old with edges.
    """
    n = P_old.n
    keys, b, a = aligned(P_new, P_old) if pair is None else pair
    bounds = np.searchsorted(keys, np.arange(n + 1) * n)  # each row's run of the ascending keys
    count = np.diff(bounds)
    rows = np.flatnonzero(count)
    starts, count = bounds[rows], count[rows]
    tied_old = np.minimum.reduceat(a, starts) == np.maximum.reduceat(a, starts)
    tied_new = np.minimum.reduceat(b, starts) == np.maximum.reduceat(b, starts)
    # tied on both sides counts as preserved; tied on one side is undefined
    defined = P_old.edge_mask[rows] & (count >= 2) & (tied_old == tied_new)
    if not defined.any():
        raise UndefinedCoefficientError("no vertex with a defined out-weight rank correlation")
    coeffs = np.ones(len(rows))
    untied = defined & ~tied_old
    if untied.any():  # the untied rows' entries, each row its own segment
        m, at = count[untied], np.repeat(untied, count)
        coeffs[untied] = _segment_spearman(np.repeat(np.arange(len(m)), m), len(m), a[at], b[at])[0]
    return float(np.mean(coeffs[defined]))
