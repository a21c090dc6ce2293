import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_sinky_instance
from fairpr import (
    BoxBounds,
    InfeasibleBoxError,
    PageRankConfig,
    build_transition,
    load_graph,
    project_matrix,
    project_simplex,
    project_simplex_box,
)
from fairpr import projection
from fairpr.projection import FEAS_TOL, project_rows


def oracle_simplex(s):
    """Brute-force QP: enumerate all support patterns, keep the feasible
    candidate nearest to s."""
    d = len(s)
    best = None
    for mask in range(1, 2**d):
        sel = [i for i in range(d) if mask >> i & 1]
        t = np.zeros(d)
        tau = (s[sel].sum() - 1.0) / len(sel)
        t[sel] = s[sel] - tau
        if (t[sel] < -1e-12).any():
            continue
        dist = float(((t - s) ** 2).sum())
        if best is None or dist < best[0] - 1e-15:
            best = (dist, t)
    return best[1]


def dual_gap(s, lo, up, lam):
    return float(np.clip(s + lam, lo, up).sum() - 1.0)


def oracle_box(s, lo, up):
    """Bisection on the monotone dual function."""
    a = float((lo - s).min() - 1.0)
    b = float((up - s).max() + 1.0)
    for _ in range(200):
        m = 0.5 * (a + b)
        if dual_gap(s, lo, up, m) < 0.0:
            a = m
        else:
            b = m
    return np.clip(s + b, lo, up)


def random_box(rng, d):
    r = rng.dirichlet(np.ones(d))
    mode = int(rng.integers(3))
    if mode == 0:
        return BoxBounds(np.zeros(d), np.ones(d))  # vacuous
    if mode == 1:  # tight around a feasible point
        lo = np.maximum(0.0, r - rng.uniform(0.0, 0.02, d))
        up = np.minimum(1.0, r + rng.uniform(0.0, 0.02, d))
        return BoxBounds(lo, up)
    return BoxBounds.from_reference(r, float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3)))


def test_simplex_already_feasible_unchanged():
    s = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(project_simplex(s), s)


def test_simplex_symmetric_shift():
    out = project_simplex(np.array([0.5, 0.5, 0.5]))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_simplex_clips_negative_direction():
    out = project_simplex(np.array([1.2, 0.0, 0.3]))
    assert np.allclose(out, [0.95, 0.0, 0.05], atol=1e-12)


def test_simplex_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        project_simplex(np.array([]))
    with pytest.raises(ValueError):
        project_simplex(np.array([np.nan, 0.5]))


def test_simplex_huge_inputs():
    out = project_simplex(np.array([1e16, 1.0, -1e16]))
    assert np.allclose(out, [1.0, 0.0, 0.0])
    assert abs(out.sum() - 1.0) <= 1e-12


def test_box_hand_case_lambda_zero():
    out = project_simplex_box(np.array([0.6, 0.4]), BoxBounds(np.array([0.5, 0.3]), np.array([0.7, 0.5])))
    assert np.array_equal(out, [0.6, 0.4])


def test_box_vacuous_equals_simplex():
    s = np.array([0.9, 0.3])
    out = project_simplex_box(s, BoxBounds(np.zeros(2), np.ones(2)))
    assert np.allclose(out, [0.8, 0.2], atol=1e-15)
    assert np.allclose(out, project_simplex(s), atol=1e-15)


def test_box_restricted_hand_case():
    box = BoxBounds.from_reference(np.array([0.5, 0.5]), 0.1, 0.1)
    assert np.allclose(box.lower, [0.35, 0.35]) and np.allclose(box.upper, [0.65, 0.65])
    out = project_simplex_box(np.array([0.9, 0.1]), box)
    assert np.allclose(out, [0.65, 0.35], atol=1e-12)


def test_box_infeasible_raises_with_sums():
    with pytest.raises(InfeasibleBoxError, match="sum"):
        project_simplex_box(np.array([0.5, 0.5]), BoxBounds(np.array([0.6, 0.6]), np.array([0.7, 0.7])))


def test_oracle_equivalence_and_idempotence():
    rng = np.random.default_rng(2024)
    for trial in range(1200):
        d = int(rng.integers(1, 7))
        s = rng.normal(0, 1, d) if rng.random() < 0.5 else rng.uniform(0, 2, d)
        if d >= 2:
            got = project_simplex(s)
            assert np.abs(got - oracle_simplex(s)).max() <= 1e-8
            assert np.array_equal(project_simplex(got), got)
        box = random_box(rng, d)
        got = project_simplex_box(s, box)
        expect = oracle_box(s, box.lower, box.upper)
        assert np.abs(got - expect).max() <= 1e-8
        assert np.array_equal(project_simplex_box(got, box), got)
        assert (got >= box.lower - 1e-15).all() and (got <= box.upper + 1e-15).all()
        assert abs(got.sum() - 1.0) <= 1e-12


def test_dual_function_is_monotone():
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        s = rng.normal(0, 1, d)
        box = random_box(rng, d)
        grid = np.linspace((box.lower - s).min() - 0.5, (box.upper - s).max() + 0.5, 40)
        vals = [dual_gap(s, box.lower, box.upper, lam) for lam in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_no_deletion_guarantee():
    rng = np.random.default_rng(88)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        r = rng.dirichlet(np.ones(d)) * 0.5 + 0.5 / d  # bounded away from zero
        delta, epsilon = 0.2, float(0.5 * 0.8 * r.min())
        assert (1 - delta) * r.min() - epsilon > 0
        box = BoxBounds.from_reference(r, delta, epsilon)
        out = project_simplex_box(rng.normal(0, 1, d), box)
        assert (out > 0).all()


def build_pair():
    g = load_graph("0 1\n0 2\n1 0\n2 0\n2 1\n0 3")  # vertex 3 is a sink
    cfg = PageRankConfig.uniform(4)
    P = build_transition(g, cfg)
    return P, P.copy()


def test_project_matrix_fixed_point_both_modes():
    P, Q = build_pair()
    for dl, ep in ((None, None), (0.1, 0.1)):
        out = project_matrix(Q, P, dl, ep)
        assert np.array_equal(out.data, P.data)
        assert np.array_equal(out.sink_mask, P.sink_mask)


def test_project_matrix_unrestricted_row():
    P, Q = build_pair()
    lo, hi = Q.indptr[2], Q.indptr[3]  # row 2 has exactly two out-edges
    Q.data[lo:hi] = 0.7
    out = project_matrix(Q, P)
    np.testing.assert_allclose(out.data[lo:hi], [0.5, 0.5], atol=1e-15)
    out.validate()


def test_project_matrix_sink_rows_copied_bitwise():
    P, Q = build_pair()
    Q.data += 0.3
    out = project_matrix(Q, P, 0.2, 0.2)
    assert np.array_equal(out.indptr, P.indptr)  # sink row 3 still stores nothing
    assert out.sink_mask[3] and np.array_equal(out.sink_row, P.sink_row)
    for i in range(out.n):
        if not out.sink_mask[i]:
            lo, hi = out.indptr[i], out.indptr[i + 1]
            assert abs(out.data[lo:hi].sum() - 1.0) <= 1e-12


def test_project_matrix_requires_matching_pattern():
    P, _ = build_pair()
    g2 = load_graph("0 1\n1 0\n2 0\n2 1\n0 3")
    Q = build_transition(g2, PageRankConfig.uniform(4))
    with pytest.raises(ValueError, match="pattern"):
        project_matrix(Q, P)


def test_project_matrix_infeasible_box_names_row():
    P, Q = build_pair()
    # a delta=epsilon=0 box around a deliberately low-mass row cannot reach sum 1
    ref = P.copy()
    lo, hi = ref.indptr[0], ref.indptr[1]
    ref.data[lo:hi] = 0.1
    with pytest.raises(InfeasibleBoxError, match="row 0"):
        project_matrix(Q, ref, 0.0, 0.0)


def test_project_matrix_infeasible_box_names_later_row():
    P, Q = build_pair()
    ref = P.copy()
    lo, hi = ref.indptr[2], ref.indptr[3]
    ref.data[lo:hi] = 0.1  # rows 0 and 1 keep feasible boxes
    with pytest.raises(InfeasibleBoxError, match="row 2:") as err:
        project_matrix(Q, ref, 0.0, 0.0)
    assert "row 0" not in str(err.value)


def test_project_matrix_rows_are_independent():
    """All rows projected at once match the one-row projections, with a
    huge row (recentred inside the kernel) next to ordinary ones."""
    rng = np.random.default_rng(4)
    _, _, _, P = random_sinky_instance(rng, 200, 2)
    Q = P.copy()
    Q.data += rng.normal(0, 0.5, Q.nnz) * (rng.random(Q.nnz) < 0.7)
    wide = [i for i in range(Q.n) if not Q.sink_mask[i] and Q.indptr[i + 1] - Q.indptr[i] >= 2]
    huge = wide[len(wide) // 2]
    lo, hi = Q.indptr[huge], Q.indptr[huge + 1]
    Q.data[lo:hi] = rng.uniform(-1, 1, hi - lo) * 1e9
    Q.data[lo] = 3e9
    assert P.sink_mask.sum() > 0 and Q.nnz > 300
    for dl, ep in ((None, None), (0.2, 0.05)):
        out = project_matrix(Q, P, dl, ep)
        assert np.array_equal(out.sink_row, Q.sink_row)
        for i in range(Q.n):
            if Q.sink_mask[i]:
                continue
            lo, hi = Q.indptr[i], Q.indptr[i + 1]
            if dl is None:
                expect = project_simplex(Q.data[lo:hi])
            else:
                expect = project_simplex_box(Q.data[lo:hi], BoxBounds.from_reference(P.data[lo:hi], dl, ep))
            np.testing.assert_allclose(out.data[lo:hi], expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_box_validate_rejects_non_finite_bounds(side):
    lower, upper = np.zeros(6), np.ones(6)
    (lower if side == "lower" else upper)[4] = np.nan
    box = BoxBounds(lower, upper)
    with pytest.raises(InfeasibleBoxError, match="not finite"):
        box.validate()
    with pytest.raises(InfeasibleBoxError, match="row 1: some bound is not finite"):
        box.validate(np.array([0, 0, 0, 1, 1, 1]))
    with pytest.raises(InfeasibleBoxError):
        project_simplex_box(np.full(6, 0.5), box)


def test_box_and_projection_inputs_are_checked():
    for delta, epsilon in ((-0.1, 0.1), (0.1, -0.1)):
        with pytest.raises(ValueError, match="^modification bounds must be nonnegative$"):
            BoxBounds.from_reference(np.full(2, 0.5), delta, epsilon)
    crossed = BoxBounds(np.array([0.2, 0.2, 0.6, 0.5]), np.array([0.8, 0.8, 0.4, 0.5]))
    with pytest.raises(InfeasibleBoxError, match="^row 1: some lower bound exceeds its upper bound$"):
        crossed.validate(np.array([0, 0, 1, 1]))
    with pytest.raises(InfeasibleBoxError, match="^some lower bound exceeds its upper bound$"):
        crossed.validate()
    with pytest.raises(ValueError, match="^bounds length does not match vector length$"):
        project_simplex_box(np.full(3, 1 / 3), BoxBounds(np.zeros(2), np.ones(2)))
    P = build_transition(load_graph("0 1\n1 0\n1 2\n2 0"), PageRankConfig.uniform(3))
    with pytest.raises(ValueError, match="^delta and epsilon must be given together$"):
        project_matrix(P, P, delta=0.1)


def random_entries(rng, seg, count):
    """Entries for rows ``seg``: each row has its own scale, up to 1e12, and
    entries of either sign spread over up to 12 decades."""
    scale, spread = 10.0 ** rng.uniform(-2.0, 12.0, count), rng.uniform(0.0, 12.0, count)
    return scale[seg] * rng.uniform(-1.0, 1.0, seg.size) * 10.0 ** (-spread[seg] * rng.random(seg.size))


def random_rows(rng, count, max_len, boxed):
    """(seg, x, lower, upper) for ``count`` rows of 1 to ``max_len`` entries
    (both ends included, log-uniform between): each row has its own scale,
    up to 1e12, and entries of either sign spread over up to 12 decades.
    Boxed rows get ``from_reference`` boxes around a random stochastic row,
    the others [0, 1]."""
    lengths = np.rint(10.0 ** rng.uniform(0.0, np.log10(max_len), count)).astype(int)
    lengths[:2] = 1, max_len
    seg = np.repeat(np.arange(count), lengths)
    x = random_entries(rng, seg, count)
    if not boxed:
        return seg, x, np.zeros(seg.size), np.ones(seg.size)
    r = rng.random(seg.size)
    r /= np.bincount(seg, r, count)[seg]
    delta, epsilon = rng.uniform(0.0, 0.5, count)[seg], (rng.random(count) / lengths)[seg]
    return seg, x, np.maximum(0.0, (1.0 - delta) * r - epsilon), np.minimum(1.0, (1.0 + delta) * r + epsilon)


@pytest.mark.parametrize("boxed", [False, True])
def test_rows_land_on_sum_one(boxed):
    """Every row lands on sum 1 to rounding, whatever the magnitude and
    spread of its entries: within 1e-14 plus one ulp of 1 per entry, since
    lambda comes from a sum over the row's free entries."""
    rng = np.random.default_rng(31 + boxed)
    for _ in range(4):
        seg, x, lower, upper = random_rows(rng, 300, 10_000, boxed)
        out = project_rows(x, seg, lower, upper)
        assert (out >= lower).all() and (out <= upper).all()
        bound = 1e-14 + np.bincount(seg, minlength=300) * np.finfo(float).eps
        assert (np.abs(np.bincount(seg, out, 300) - 1.0) <= bound).all()


@pytest.mark.parametrize("boxed", [False, True])
def test_row_shift_leaves_projection_unchanged(boxed):
    """Adding c to every entry of a row leaves its projection unchanged,
    since every feasible point sums to 1. Entries and shifts lie on a 2^-20
    grid, so x + c is exact for |c| up to 1e9 and any difference is the
    kernel's."""
    rng = np.random.default_rng(41 + boxed)
    count = 400
    seg, _, lower, upper = random_rows(rng, count, 40, boxed)
    x = rng.integers(-2**21, 2**21, seg.size) / 2**20
    c = np.rint(rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(0.0, 9.0, count) * 2**20) / 2**20
    assert np.array_equal((x + c[seg]) - c[seg], x)
    want = project_rows(x.copy(), seg, lower, upper)
    got = project_rows(x + c[seg], seg, lower, upper)
    assert np.abs(got - want).max() <= 1e-12


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "x, upper",
    [
        # the first pass leaves entry 1 alone 5.6e-17 under 0, and the rounded
        # clipped row 2.2e-16 short of 1
        (["0x1.b297285a01fe9p-4", "0x1.c62735ebc9384p-10", "0x1.6b1698794cb78p-3",
          "0x1.c2f8c8958d76bp-2", "0x1.21eebdeefad30p-2"], None),
        # the mirror case: entry 2 alone 5.6e-17 over its upper bound, and the
        # rounded clipped row exactly 1
        (["0x1.c9b0fe05a7d78p-6", "0x1.9589bd0e5e26cp-3", "0x1.a35e0a8229433p-2",
          "0x1.570ed79546738p-3", "-0x1.9375369753e46p-5"], "0x1.d5ccb15513bfcp-2"),
    ],
    ids=["under-lower", "over-upper"],
)
def test_row_with_rounding_violations_on_one_side_terminates(x, upper):
    """A row whose only violations lie on one side fixes that side, whatever
    the rounded clipped sum says, so every pass makes progress."""
    x = np.array([float.fromhex(v) for v in x])
    lower, up = np.zeros(5), np.ones(5)
    if upper is not None:
        up[2] = float.fromhex(upper)
    with deadline(5):
        out = project_simplex_box(x, BoxBounds(lower, up))
    assert (out >= lower).all() and (out <= up).all()
    assert abs(out.sum() - 1.0) <= 1e-15
    assert np.allclose(out, oracle_box(x, lower, up), atol=1e-12)


def test_row_spanning_past_the_float_range_raises():
    """Shifting such a row overflows, so there is no lambda to take."""
    with deadline(5), pytest.raises(ValueError, match="float range"):
        project_simplex(np.array([1e308, -1e308, 0.5]))


def reference_project_rows(s, seg, nseg, lower, upper):
    """The variable-fixing passes as they ran over a whole tiled block in
    one piece, kept verbatim as the bitwise reference of ``project_rows``."""
    if not np.isfinite(s).all():
        raise ValueError("cannot project a vector with non-finite entries")
    out = s.copy()
    outside = np.bincount(seg[(s < lower) | (s > upper)], minlength=nseg) > 0
    off_sum = np.abs(np.bincount(seg, s, nseg) - 1.0) > FEAS_TOL
    pos = np.flatnonzero((outside | off_sum)[seg])
    seg, x, lo, up = seg[pos], s[pos], lower[pos], upper[pos]
    fixed = np.zeros(nseg)  # mass of each row's fixed entries
    while pos.size:
        top = np.full(nseg, -np.inf)
        np.maximum.at(top, seg, x)
        with np.errstate(over="ignore"):
            z = x - top[seg]
        free = np.maximum(np.bincount(seg, minlength=nseg), 1)
        share = 1.0 - fixed
        lam = (share - np.bincount(seg, z, nseg)) / free
        if not np.isfinite(lam).all():
            raise ValueError("cannot project a row whose entries span more than the float range")
        y = z + lam[seg]
        val = np.clip(y, lo, up)
        has_lo = np.bincount(seg[y < lo], minlength=nseg) > 0
        has_up = np.bincount(seg[y > up], minlength=nseg) > 0
        low = np.where(has_lo & has_up, np.bincount(seg, val, nseg) >= share, has_lo)
        done = ~(has_lo | has_up)[seg] | np.where(low[seg], y < lo, y > up)
        out[pos[done]] = val[done]
        fixed += np.bincount(seg[done], val[done], nseg)
        keep = ~done
        pos, seg, x, lo, up = pos[keep], seg[keep], x[keep], lo[keep], up[keep]
    return out


def reference_block(W, seg, nseg, lower, upper):
    """The reference over a (C, nnz) block, its row ids and boxes tiled."""
    C = len(W)
    segs = (seg + nseg * np.arange(C)[:, None]).ravel()
    return reference_project_rows(W.ravel(), segs, C * nseg, np.tile(lower, C), np.tile(upper, C)).reshape(W.shape)


def random_block(rng, copies, count, max_len, boxed):
    """(W, seg, lower, upper): ``copies`` draws of entries on one set of
    ``random_rows`` rows and boxes. Every third row of each copy is set to
    its projection, so most of those pass through unchanged."""
    seg, x, lower, upper = random_rows(rng, count, max_len, boxed)
    W = np.array([x] + [random_entries(rng, seg, count) for _ in range(copies - 1)])
    again = seg % 3 == 0
    for w in W:
        w[again] = reference_project_rows(w, seg, count, lower, upper)[again]
    return W, seg, lower, upper


@pytest.mark.parametrize("boxed", [False, True])
def test_project_rows_matches_the_reference_bitwise(boxed):
    """A (C, nnz) block over one untiled row structure projects in place
    bitwise as the reference does over the tiled block, and so does each
    copy alone. The draws hold rows of length 1, rows already feasible, and
    rows with violators of both sides in one pass."""
    rng = np.random.default_rng(61 + boxed)
    W, seg, lower, upper = random_block(rng, 5, 300, 2000, boxed)
    want = reference_block(W, seg, 300, lower, upper)
    got = W.copy()
    assert project_rows(got, seg, lower, upper) is got
    assert np.array_equal(got, want)
    for w, v in zip(W, want):
        assert np.array_equal(project_rows(w.copy(), seg, lower, upper), v)
    # the coverage the claim rests on
    assert (np.bincount(seg, minlength=300) == 1).any()
    kept = (want == W).all(axis=0)
    assert np.bincount(seg[kept], minlength=300).astype(bool).sum() > 50
    both_sides = 0
    for w in W:  # rows whose first pass has entries under lower and over upper
        top = np.full(300, -np.inf)
        np.maximum.at(top, seg, w)
        z = w - top[seg]
        y = z + ((1.0 - np.bincount(seg, z, 300)) / np.bincount(seg, minlength=300))[seg]
        has_lo = np.bincount(seg[y < lower], minlength=300) > 0
        has_up = np.bincount(seg[y > upper], minlength=300) > 0
        both_sides += (has_lo & has_up).sum()
    assert both_sides > 0


def test_project_rows_pieces_change_no_bit(monkeypatch):
    """Small piece budgets split the block into runs of whole copies (the
    last one short) or into runs of whole rows of one copy (a row longer
    than the budget alone): the result is the one-piece result, bitwise.
    So are the results over ``stack_boxes`` tiles built once for the 7
    copies, for the block and for blocks of fewer copies."""
    rng = np.random.default_rng(71)
    W, seg, lower, upper = random_block(rng, 7, 40, 60, True)
    whole = project_rows(W.copy(), seg, lower, upper)
    assert np.array_equal(whole, reference_block(W, seg, 40, lower, upper))
    longest = np.bincount(seg).max()
    for budget in (None, 3 * seg.size, seg.size + 1, seg.size, seg.size - 1, 2 * longest, longest, longest - 1, 1):
        if budget is not None:
            monkeypatch.setattr(projection, "PIECE_BUDGET", budget)
        assert np.array_equal(project_rows(W.copy(), seg, lower, upper), whole), budget
        tiles = projection.stack_boxes(seg, lower, upper, len(W))
        assert tiles[0].size == seg.size * max(1, min(len(W), projection.PIECE_BUDGET // seg.size))
        for copies in (7, 4, 1):
            block = W[:copies].copy()
            assert np.array_equal(project_rows(block, *tiles), whole[:copies]), (budget, copies)


@pytest.mark.parametrize("boxed", [False, True])
def test_untiled_block_projects_as_its_tiles_bitwise(boxed):
    """A (C, nnz) block with one copy's row ids and boxes, projected one copy
    per piece, lands on the same bits as with the ``stack_boxes`` tiles of
    its C copies, and of more copies than it has, by a prefix."""
    rng = np.random.default_rng(75 + boxed)
    for copies in (1, 2, 5, 9):
        W, seg, lower, upper = random_block(rng, copies, 50, 40, boxed)
        untiled = project_rows(W.copy(), seg, lower, upper)
        for stack in (copies, 9):
            tiles = projection.stack_boxes(seg, lower, upper, stack)
            assert tiles[0].size == stack * seg.size
            assert np.array_equal(project_rows(W.copy(), *tiles), untiled), (copies, stack)
        assert not np.array_equal(untiled, W)


def test_project_rows_errors_unchanged():
    """A block fails with the messages of one vector: non-finite input, and a
    row whose entries span past the float range."""
    seg, lower, upper = np.array([0, 0, 1, 1, 1]), np.zeros(5), np.ones(5)
    W = np.full((3, 5), 0.25)
    W[2, 1] = np.inf
    with pytest.raises(ValueError, match="^cannot project a vector with non-finite entries$"):
        project_rows(W, seg, lower, upper)
    W[2, 1] = 0.25
    W[1, 2:] = 1e308, -1e308, 0.5
    with pytest.raises(ValueError, match="^cannot project a row whose entries span more than the float range$"):
        project_rows(W, seg, lower, upper)


def test_project_rows_memory_is_a_small_multiple_of_the_block():
    """Projecting a (9, 4e5) block in place peaks under tracemalloc within 3
    times the block's bytes; the pieces bound the work arrays (over the
    whole tiled block in one piece the peak was 12.5 times)."""
    rng = np.random.default_rng(81)
    seg = np.repeat(np.arange(80_000), 5)
    W = rng.normal(0.2, 0.3, (9, seg.size))
    lower, upper = np.zeros(seg.size), np.ones(seg.size)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = project_rows(W, seg, lower, upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(out.sum(axis=1) - 80_000).max() < 1e-6
    assert peak < 3 * W.nbytes, peak / W.nbytes
