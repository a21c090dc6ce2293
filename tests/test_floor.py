"""An exact oracle for K = 2: the range of group 0's score over every
reweighting of a matrix's stored pattern, plain or inside the boxes of a
restricted run, and so the lowest loss any such reweighting can reach.

Group 0's score is s = v.V with V = gamma 1_{G0} + (1 - gamma) P V, the
discounted time the walk spends in group 0. Choosing each stored row inside
its simplex, or inside its box and simplex, is a discounted Markov decision
process, so value iteration gives the smallest and largest reachable s,
attained at a vertex of each row's feasible set. Each sweep picks a row's
best vertex by a fractional knapsack; in a plain row that is one column of
smallest (or largest) V. Sink rows are not reweighted and read V through
``sink_row``. The feasible set is convex and s is continuous, so the loss
(s - phi_0)^2 has the global minimum dist(phi_0, [s_min, s_max])^2.
"""

import itertools

import numpy as np
import pytest

from conftest import random_instance, random_sinky_instance
from fairpr import FairnessTarget, OptimizerConfig, fair_gd
from fairpr.projection import row_boxes

GAMMA = 0.15


def score_range(P, cfg, groups, delta=None, epsilon=None):
    """(s_min, s_max): group 0's lowest and highest score over the
    reweightings of P whose rows stay in their ``row_boxes`` ([0, 1]
    without (delta, epsilon)), by value iteration to below 1e-18. A sweep
    sets every entry to its lower bound and then gives the rest of its
    row's unit mass to the entries of smallest V first (largest for the
    maximum), each up to its upper bound."""
    seg, box = row_boxes(P, delta, epsilon)
    gamma, at_zero = cfg.gamma, cfg.gamma * groups.indicator(0)
    slack, room = box.upper - box.lower, 1.0 - np.bincount(seg, box.lower, P.n)
    sweeps = int(np.ceil(np.log(1e-18) / np.log(1.0 - gamma)))
    ends = []
    for sign in (1.0, -1.0):
        V = np.zeros(P.n)
        for _ in range(sweeps):
            # rows stay in CSR order, each one's entries by V (or -V)
            order = np.lexsort((sign * V[P.indices], seg))
            filled = np.cumsum(slack[order])
            before = filled - slack[order] - np.append(0.0, filled)[np.repeat(P.indptr[:-1], np.diff(P.indptr))]
            x = box.lower.copy()
            x[order] += np.clip(room[seg] - before, 0.0, slack[order])
            W = np.bincount(seg, x * V[P.indices], P.n)
            if P.sink_row is not None:
                W[P.sink_mask] = P.sink_row @ V
            V = at_zero + (1.0 - gamma) * W
        ends.append(float(cfg.restart_vector @ V))
    return tuple(ends)


def loss_floor(s_range, phi0):
    """The lowest reachable K = 2 loss: the squared distance from phi_0 to the range."""
    lo, hi = s_range
    return max(lo - phi0, phi0 - hi, 0.0) ** 2


def box_vertices(lower, upper):
    """The vertices of {x : sum x = 1, lower <= x <= upper}: every point with
    at most one entry strictly inside its bounds, as rows of an array."""
    found = set()
    for free in range(len(lower)):
        for at_upper in itertools.product((False, True), repeat=len(lower) - 1):
            x = np.insert(np.where(at_upper, np.delete(upper, free), np.delete(lower, free)), free, 0.0)
            x[free] = 1.0 - x.sum()
            if lower[free] - 1e-12 <= x[free] <= upper[free] + 1e-12:
                found.add(tuple(np.clip(x, lower, upper)))
    return np.array(sorted(found))


def brute_force_range(P, cfg, groups, delta=None, epsilon=None):
    """Group 0's score at every vertex policy (a vertex of its ``row_boxes``
    box and simplex per row, sink rows as ``sink_row``), solved exactly; the
    lowest and highest."""
    n = P.n
    _, box = row_boxes(P, delta, epsilon)
    rows = np.flatnonzero(~P.sink_mask)
    spans = [slice(P.indptr[i], P.indptr[i + 1]) for i in rows]
    options = [box_vertices(box.lower[span], box.upper[span]) for span in spans]
    choices = np.array(list(itertools.product(*(range(len(o)) for o in options)))).reshape(-1, len(rows))
    M = np.zeros((len(choices), n, n))
    if P.sink_row is not None:
        M[:, P.sink_mask] = P.sink_row
    for r, (i, span) in enumerate(zip(rows, spans)):
        M[:, i, P.indices[span]] = options[r][choices[:, r]]
    A = np.eye(n) - (1.0 - cfg.gamma) * M
    V = np.linalg.solve(A, np.broadcast_to(cfg.gamma * groups.indicator(0), (len(choices), n))[..., None])[..., 0]
    s = V @ cfg.restart_vector
    return float(s.min()), float(s.max())


def test_score_range_matches_brute_force_over_vertex_policies():
    """60 small random graphs (n <= 5), half of them drawn with sink rows
    allowed: the value iteration's range is the brute-force range over
    every vertex policy, for plain rows and for the boxes of a random
    (delta, epsilon)."""
    rng = np.random.default_rng(2102)
    worst, sinky = 0.0, 0
    for trial in range(60):
        n = int(rng.integers(2, 6))
        make = random_sinky_instance if trial % 2 else random_instance
        _, groups, cfg, P = make(rng, n, 2, gamma=GAMMA)
        for bounds in ((), (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.3)))):
            got, want = score_range(P, cfg, groups, *bounds), brute_force_range(P, cfg, groups, *bounds)
            worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
        sinky += bool(P.sink_mask.any())
    assert worst <= 1e-14, worst
    assert sinky >= 10


def test_karate_score_range_and_floor(karate):
    _, groups, cfg, P = karate
    s_min, s_max = score_range(P, cfg, groups)
    assert s_min == pytest.approx(0.1194375, abs=1e-14)
    assert s_max == pytest.approx(0.8875, abs=1e-14)
    assert loss_floor((s_min, s_max), 0.1) == pytest.approx(3.7781640625e-4, rel=1e-12)
    assert loss_floor((s_min, s_max), 0.5) == 0.0
    # boxes of (delta, epsilon) = (0.1, 0.1) around the uniform rows
    s_min, s_max = score_range(P, cfg, groups, 0.1, 0.1)
    assert s_min == pytest.approx(0.215435978417089, abs=1e-12)
    assert s_max == pytest.approx(0.8104080695203916, abs=1e-12)


def test_karate_fairgd_grid_stays_above_the_floor(karate):
    """No step size of criterion 8's grid, plain or restricted to the
    boxes of (delta, epsilon) = (0.1, 0.1), ends below the lowest loss
    those rows can reach: every descent that did not diverge stops at or
    above the floor."""
    _, groups, cfg, P = karate
    for delta, epsilon in ((None, None), (0.1, 0.1)):
        floor = loss_floor(score_range(P, cfg, groups, delta, epsilon), 0.1)
        opt = OptimizerConfig(max_iters=30, delta=delta, epsilon=epsilon)
        report = fair_gd(P, cfg, groups, FairnessTarget.from_lead_share(0.1, 2), opt)
        finished = [point for point in report.grid if point.outcome != "diverged"]
        assert finished
        for point in finished:
            assert point.loss >= floor - 1e-12, (delta, point)
