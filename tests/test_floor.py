"""An exact oracle for K = 2: the range of group 0's score over every plain
reweighting of a matrix's stored pattern, and so the lowest loss any
reweighting can reach.

Group 0's score is s = v.V with V = gamma 1_{G0} + (1 - gamma) P V, the
discounted time the walk spends in group 0. Choosing each stored row inside
its simplex is a discounted Markov decision process, so value iteration with
V <- gamma 1_{G0} + (1 - gamma) min (or max) of V over each row's columns
gives the smallest and largest reachable s, attained at a vertex of the
simplices (one column per row). Sink rows are not reweighted and read V
through ``sink_row``. The feasible set is convex and s is continuous, so the
loss (s - phi_0)^2 has the global minimum dist(phi_0, [s_min, s_max])^2.
"""

import itertools

import numpy as np
import pytest

from conftest import random_instance, random_sinky_instance
from fairpr import FairnessTarget, OptimizerConfig, fair_gd

GAMMA = 0.15


def score_range(P, cfg, groups):
    """(s_min, s_max): group 0's lowest and highest score over the plain
    reweightings of P, by value iteration to below 1e-18."""
    gamma, at_zero = cfg.gamma, cfg.gamma * groups.indicator(0)
    rows = np.flatnonzero(~P.sink_mask)
    sweeps = int(np.ceil(np.log(1e-18) / np.log(1.0 - gamma)))
    ends = []
    for pick in (np.minimum, np.maximum):
        V = np.zeros(P.n)
        for _ in range(sweeps):
            W = at_zero.copy()
            W[rows] += (1.0 - gamma) * pick.reduceat(V[P.indices], P.indptr[rows])
            if P.sink_row is not None:
                W[P.sink_mask] += (1.0 - gamma) * (P.sink_row @ V)
            V = W
        ends.append(float(cfg.restart_vector @ V))
    return tuple(ends)


def loss_floor(s_range, phi0):
    """The lowest reachable K = 2 loss: the squared distance from phi_0 to the range."""
    lo, hi = s_range
    return max(lo - phi0, phi0 - hi, 0.0) ** 2


def brute_force_range(P, cfg, groups):
    """Group 0's score at every vertex policy (one stored column per row,
    sink rows as ``sink_row``), solved exactly; the lowest and highest."""
    n = P.n
    rows = np.flatnonzero(~P.sink_mask)
    choices = list(itertools.product(*(P.row(i)[0] for i in rows)))
    M = np.zeros((len(choices), n, n))
    if P.sink_row is not None:
        M[:, P.sink_mask] = P.sink_row
    M[np.arange(len(choices))[:, None], rows, np.array(choices).reshape(len(choices), len(rows))] = 1.0
    A = np.eye(n) - (1.0 - cfg.gamma) * M
    V = np.linalg.solve(A, np.broadcast_to(cfg.gamma * groups.indicator(0), (len(choices), n))[..., None])[..., 0]
    s = V @ cfg.restart_vector
    return float(s.min()), float(s.max())


def test_score_range_matches_brute_force_over_vertex_policies():
    """60 small random graphs (n <= 5), half of them drawn with sink rows
    allowed: the value iteration's range is the brute-force range over
    every vertex policy."""
    rng = np.random.default_rng(2102)
    worst, sinky = 0.0, 0
    for trial in range(60):
        n = int(rng.integers(2, 6))
        make = random_sinky_instance if trial % 2 else random_instance
        _, groups, cfg, P = make(rng, n, 2, gamma=GAMMA)
        got, want = score_range(P, cfg, groups), brute_force_range(P, cfg, groups)
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


def test_karate_fairgd_grid_stays_above_the_floor(karate):
    """No step size of criterion 8's grid ends below the lowest reachable
    loss: every descent that did not diverge stops at or above the floor."""
    _, groups, cfg, P = karate
    floor = loss_floor(score_range(P, cfg, groups), 0.1)
    report = fair_gd(P, cfg, groups, FairnessTarget.from_lead_share(0.1, 2), OptimizerConfig(max_iters=30))
    finished = [point for point in report.grid if point.outcome != "diverged"]
    assert finished
    for point in finished:
        assert point.loss >= floor - 1e-12, point
