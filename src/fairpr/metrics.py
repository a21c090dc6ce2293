"""Outcome measures: relative matrix change and rank-correlation summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GroupAssignment, TransitionMatrix


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

    def centered_ranks(x):
        order = np.lexsort((x, seg))
        sx, sseg = x[order], seg[order]
        starts = np.ones(x.size, bool)  # first sorted position of each tie run
        starts[1:] = (sseg[1:] != sseg[:-1]) | (sx[1:] != sx[:-1])
        run = np.flatnonzero(starts)
        last = np.r_[run[1:], x.size] - 1
        # a tie run over sorted positions lo..hi holds ranks lo..hi + 1 less the
        # segment start; centering subtracts the mean rank (m + 1) / 2
        mid = (run + last) / 2.0 - first[sseg[run]] - (m[sseg[run]] - 1) / 2.0
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


def _merge(x: np.ndarray, y: np.ndarray):
    """(keys, at_x, at_y): the ascending union of two ascending runs of
    distinct keys, and where each run's keys sit in it. The shorter run is
    inserted into the longer one at the places binary search finds."""
    if len(x) < len(y):
        keys, at_y, at_x = _merge(y, x)
        return keys, at_x, at_y
    if not len(y):
        return x, np.arange(len(x)), np.arange(0)
    at = np.searchsorted(x, y)
    held = x[np.minimum(at, len(x) - 1)] == y  # y's keys that x holds too
    ins = at[~held]
    keys = np.insert(x, ins, y[~held])
    placed = ins + np.arange(len(ins))  # np.insert keeps equal insertion points in order
    kept = np.ones(len(keys), bool)
    kept[placed] = False
    at_x = np.flatnonzero(kept)
    at_y = np.empty(len(y), np.intp)
    at_y[~held] = placed
    at_y[held] = at_x[at[held]]
    return keys, at_x, at_y


def aligned(P_new: TransitionMatrix, P_old: TransitionMatrix):
    """(keys, new, old): the ascending union of the two matrices' ``entries``
    over the rows that are not sinks on both sides, and each side's weights
    on it (0 where it has none). ``delta_p`` and ``rho_tilde`` read it, so
    an evaluation aligns its two matrices once for both."""
    if P_new.n != P_old.n:
        raise ValueError("matrices must have the same dimension")
    rows = ~(P_new.sink_mask & P_old.sink_mask)
    (keys_new, w_new), (keys_old, w_old) = P_new.entries(rows), P_old.entries(rows)
    keys, at_new, at_old = _merge(keys_new, keys_old)
    new, old = np.zeros((2, len(keys)))
    new[at_new] = w_new
    old[at_old] = w_old
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

    Against a ``build_transition`` original every row is uniform, so tied:
    a revision on the original's pattern then scores 1.0 when some row
    stayed tied and is undefined when none did, whatever it did to the
    other rows' rankings. ``pair`` is ``aligned(P_new, P_old)`` when the
    caller has it; its rows include every row of P_old with edges.
    """
    n = P_old.n
    keys, b, a = aligned(P_new, P_old) if pair is None else pair
    seg = keys // n
    ranked = P_old.edge_mask[seg]
    if not ranked.all():
        seg, a, b = seg[ranked], a[ranked], b[ranked]
    rho, tied_old, tied_new = _segment_spearman(seg, n, a, b)
    # tied on both sides counts as preserved; tied on one side is undefined
    defined = (np.bincount(seg, minlength=n) >= 2) & (tied_old == tied_new)
    coeffs = np.where(tied_old, 1.0, rho)[defined]
    if not coeffs.size:
        raise UndefinedCoefficientError("no vertex with a defined out-weight rank correlation")
    return float(np.mean(coeffs))
