"""Exact Euclidean projections of row weights onto the probability simplex,
and onto its intersection with per-entry box bounds.

Both are one problem, min ||x - s|| subject to sum x = 1 and
lower <= x <= upper (the plain simplex is the box [0, 1]), solved for all
rows of a piece (at most PIECE_BUDGET entries) at once by variable fixing (Bitran & Hax, Management Sci. 1981;
Kiwiel, "Variable fixing algorithms for the continuous quadratic knapsack
problem", J. Optim. Theory Appl. 2008). Each pass shifts the free entries
of a row by one lambda so that the row sums to 1. A row whose shifted
entries stay inside their box is settled; otherwise the entries violating
one side are fixed at those bounds, where the optimum keeps them, and the
next pass solves for the rest. Rows land on sum 1 to rounding, whatever
the magnitude of their entries, unless these span past the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import TransitionMatrix

# Inputs already feasible within this slack pass through unchanged, which
# makes the projections exactly idempotent.
FEAS_TOL = 1e-13

PIECE_BUDGET = 2**17  # most entries projected at once: 1 MiB of float64


class InfeasibleBoxError(ValueError):
    """Box bounds admit no point of the simplex."""


@dataclass(frozen=True)
class BoxBounds:
    """Per-entry interval [lower_i, upper_i] intersected with the simplex."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_reference(cls, reference: np.ndarray, delta: float, epsilon: float) -> "BoxBounds":
        """lower = max(0, (1-delta) r - eps), upper = min(1, (1+delta) r + eps)."""
        r = np.asarray(reference, float)
        if delta < 0 or epsilon < 0:
            raise ValueError("modification bounds must be nonnegative")
        return cls(
            np.maximum(0.0, (1.0 - delta) * r - epsilon),
            np.minimum(1.0, (1.0 + delta) * r + epsilon),
        )

    def validate(self, seg: np.ndarray | None = None) -> None:
        """Raise unless each row's box meets the simplex. ``seg`` gives the
        ascending row id of every entry (one row when omitted) and the error
        then names the first bad row; rows without entries are skipped."""
        rows = np.zeros(self.lower.size, dtype=np.intp) if seg is None else seg
        nseg = int(rows[-1]) + 1 if rows.size else 0
        lo_sum = np.bincount(rows, self.lower, nseg)
        up_sum = np.bincount(rows, self.upper, nseg)
        # NaN bounds would never settle in project_rows
        nonfinite = np.bincount(rows[~(np.isfinite(self.lower) & np.isfinite(self.upper))], minlength=nseg) > 0
        crossed = np.bincount(rows[self.lower > self.upper], minlength=nseg) > 0
        short = (np.bincount(rows, minlength=nseg) > 0) & (up_sum < 1.0 - FEAS_TOL)
        bad = nonfinite | crossed | (lo_sum > 1.0 + FEAS_TOL) | short
        if bad.any():
            i = int(bad.argmax())
            if nonfinite[i]:
                msg = "some bound is not finite"
            elif crossed[i]:
                msg = "some lower bound exceeds its upper bound"
            else:
                msg = f"box excludes the simplex: sum(lower) = {lo_sum[i]!r}, sum(upper) = {up_sum[i]!r}"
            raise InfeasibleBoxError(msg if seg is None else f"row {i}: {msg}")


def project_rows(s: np.ndarray, seg: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Project each row of ``s`` onto {x : sum x = 1, lower <= x <= upper},
    in place, and return ``s``.

    ``s`` is a C-contiguous float64 array: one copy of the pattern, or a
    (C, nnz) block of C copies. ``seg`` gives the row id of each of a copy's
    nnz entries, ascending, and ``lower``/``upper`` their boxes, which must
    meet the simplex (see ``BoxBounds.validate``); every copy shares them.
    They may also come tiled over the k whole copies of one piece, as
    ``stack_boxes`` builds them once for a block that is projected again
    and again; untiled, a block is projected one copy per piece. Rows
    already feasible within FEAS_TOL keep their bits, the others land on
    sum 1 to rounding.

    The rows are projected in pieces of whole copies, or of whole rows of
    one copy, of at most PIECE_BUDGET entries (a longer row is a piece of
    its own), so the work arrays stay within a fixed size; rows do not
    interact, so the pieces change no bit of the result.
    """
    if not np.isfinite(s).all():
        raise ValueError("cannot project a vector with non-finite entries")
    if not s.size:
        return s
    nnz = s.shape[-1]
    flat = s.reshape(-1)  # a view of a C-contiguous block
    if nnz <= PIECE_BUDGET:  # whole copies, k at a time
        k = seg.size // nnz  # the last piece, or a block of fewer copies, reads a prefix
        for a in range(0, flat.size, k * nnz):
            b = min(a + k * nnz, flat.size)
            _project_piece(flat[a:b], seg[: b - a], lower[: b - a], upper[: b - a])
        return s
    cuts = [0]  # whole rows of one copy at a time
    while cuts[-1] < nnz:
        a = cuts[-1]
        b = nnz if a + PIECE_BUDGET >= nnz else int(np.searchsorted(seg, seg[a + PIECE_BUDGET]))
        cuts.append(b if b > a else int(np.searchsorted(seg, seg[a], "right")))
    for c in range(0, flat.size, nnz):
        for a, b in zip(cuts[:-1], cuts[1:]):
            _project_piece(flat[c + a : c + b], seg[a:b] - seg[a], lower[a:b], upper[a:b])
    return s


def stack_boxes(
    seg: np.ndarray, lower: np.ndarray, upper: np.ndarray, copies: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One copy's row ids ``seg`` and boxes, tiled over the whole copies that
    ``project_rows`` takes as one piece of a (``copies``, nnz) block (at most
    PIECE_BUDGET entries), copy j's row ids following copy j - 1's; one
    copy's arrays as they are when a piece holds one copy or none. A block
    of fewer copies reads a prefix, so the tiles serve a stack that shrinks."""
    nnz = seg.size
    k = min(PIECE_BUDGET // nnz, copies) if nnz else 1
    if k <= 1:
        return seg, lower, upper
    return (seg + (seg[-1] + 1) * np.arange(k)[:, None]).ravel(), np.tile(lower, k), np.tile(upper, k)


def _project_piece(x, seg, lo, up):
    """Project the rows of one piece in place: entries ``x`` with ascending
    row ids ``seg`` from 0 and boxes ``lo``/``up``; entries of rows already
    feasible are not written."""
    out = x  # the piece; x narrows to its free entries
    nseg = int(seg[-1]) + 1
    settled = np.abs(np.bincount(seg, x, nseg) - 1.0) <= FEAS_TOL
    settled[seg[(x < lo) | (x > up)]] = False
    pos = None  # where the free entries sit in the piece; None while they are all of it
    if settled.any():
        pos = np.flatnonzero(~settled[seg])
        seg, x, lo, up = seg[pos], x[pos], lo[pos], up[pos]
    fixed = np.zeros(nseg)  # mass of each row's fixed entries
    while seg.size:
        # shifting a row's free entries leaves its projection unchanged; with
        # the largest at 0, lambda never has to cancel large entries
        count = np.bincount(seg, minlength=nseg)
        first = np.empty(seg.size, bool)  # each row's first free entry: a row's entries are adjacent
        first[0] = True
        np.not_equal(seg[1:], seg[:-1], out=first[1:])
        starts = first.nonzero()[0]
        top = np.repeat(np.maximum.reduceat(x, starts), count[seg[starts]])
        with np.errstate(over="ignore"):  # a row that overflows fails below
            z = x - top
        share = 1.0 - fixed
        lam = (share - np.bincount(seg, z, nseg)) / np.maximum(count, 1)
        if not np.isfinite(lam).all():
            raise ValueError("cannot project a row whose entries span more than the float range")
        y = z + lam[seg]
        below, above = y < lo, y > up
        val = np.minimum(np.maximum(y, lo), up)
        has_lo, has_up = np.zeros((2, nseg), bool)
        has_lo[seg[below]] = True
        has_up[seg[above]] = True
        # a row fixes the side that has violators, so each pass makes progress.
        # With both, a row whose clipped sum (unit scale) holds its share cannot
        # raise lambda, so entries under their lower bound stay; else mirror.
        both = has_lo & has_up
        low = np.where(both, np.bincount(seg, val, nseg) >= share, has_lo) if both.any() else has_lo
        done = ~(has_lo | has_up)[seg] | np.where(low[seg], below, above)
        if done.all():
            out[... if pos is None else pos] = val
            return
        out[done if pos is None else pos[done]] = val[done]
        fixed += np.bincount(seg[done], val[done], nseg)
        keep = np.flatnonzero(~done)
        pos = keep if pos is None else pos[keep]
        seg, x, lo, up = seg[keep], x[keep], lo[keep], up[keep]


def project_simplex(s: np.ndarray) -> np.ndarray:
    """Nearest point of the probability simplex under Euclidean distance."""
    s = np.asarray(s, dtype=float)
    return project_simplex_box(s, BoxBounds(np.zeros(s.size), np.ones(s.size)))


def project_simplex_box(s: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Nearest point of simplex-intersect-box: clip(s + lam*, lower, upper)."""
    s = np.array(s, dtype=float)  # a copy, projected in place
    if s.size == 0:
        raise ValueError("cannot project an empty vector")
    if s.size != bounds.lower.size or s.size != bounds.upper.size:
        raise ValueError("bounds length does not match vector length")
    bounds.validate()
    return project_rows(s, np.zeros(s.size, dtype=np.intp), bounds.lower, bounds.upper)


def row_boxes(
    P_ref: TransitionMatrix, delta: float | None = None, epsilon: float | None = None
) -> tuple[np.ndarray, BoxBounds]:
    """Row ids of P_ref's stored entries (its edges) and their boxes: [0, 1]
    without (delta, epsilon), else built from P_ref's weights and
    validated, so an infeasible row fails before any work."""
    seg = P_ref.entry_rows()
    if delta is None:
        return seg, BoxBounds(np.zeros(seg.size), np.ones(seg.size))
    box = BoxBounds.from_reference(P_ref.data, delta, epsilon)
    box.validate(seg)
    return seg, box


def project_matrix(
    P_hat: TransitionMatrix,
    P_orig: TransitionMatrix,
    delta: float | None = None,
    epsilon: float | None = None,
) -> TransitionMatrix:
    """Project every stored row of P_hat back onto its feasible set.

    Without bounds each row lands on the simplex; with (delta, epsilon) the
    box is built from P_orig's row, so revised entries stay within the
    allowed relative/absolute modification of the original weights.
    Rows without edges store nothing and keep their shares; a matrix in
    which a row with edges carries a share (``has_spreads``) raises ValueError.
    """
    if (delta is None) != (epsilon is None):
        raise ValueError("delta and epsilon must be given together")
    if not P_hat.pattern_equals(P_orig):
        raise ValueError("candidate and reference matrices must share their pattern")
    if P_hat.has_spreads or P_orig.has_spreads:
        raise ValueError("projection reweights edges only; a matrix with group spreads cannot be projected")
    seg, box = row_boxes(P_orig, delta, epsilon)
    return P_hat.with_data(project_rows(P_hat.data.copy(), seg, box.lower, box.upper))
