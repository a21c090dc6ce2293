import numpy as np
import pytest

from conftest import random_instance, random_sinky_instance, random_target
from fairpr import (
    BoxBounds,
    DivergedError,
    FairnessTarget,
    InfeasibleBoxError,
    OptimizerConfig,
    PageRankConfig,
    adapt_gd,
    build_transition,
    fair_gd,
    group_scores,
    lipschitz_bound,
    load_graph,
    load_labels,
    pagerank_power,
)

GAMMA = 0.15


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(delta=0.1)  # epsilon missing
    with pytest.raises(ValueError):
        OptimizerConfig(delta=-0.1, epsilon=0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": float("nan"), "epsilon": 0.1},
        {"delta": 0.1, "epsilon": float("nan")},
        {"delta": float("inf"), "epsilon": 0.1},
        {"kappa": float("nan")},
        {"kappa": float("inf")},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
    ],
)
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        OptimizerConfig(**kwargs)


def test_alpha_required():
    rng = np.random.default_rng(0)
    _, groups, cfg, P = random_instance(rng, 8, 2)
    with pytest.raises(ValueError, match="alpha"):
        fair_gd(P, cfg, groups, random_target(rng, 2), OptimizerConfig())


def test_self_target_converges_and_keeps_matrix():
    rng = np.random.default_rng(1)
    _, groups, cfg, P = random_instance(rng, 12, 2)
    scores = group_scores(pagerank_power(P, cfg, t1=100, tol=1e-12), groups)
    opt = OptimizerConfig(alpha=0.5)
    rep = fair_gd(P, cfg, groups, FairnessTarget(phi=scores), opt)
    assert rep.converged and rep.iterations_run <= 2
    assert np.array_equal(rep.final_matrix.data, P.data)


def test_fair_gd_reduces_loss():
    rng = np.random.default_rng(2)
    _, groups, cfg, P = random_instance(rng, 20, 2)
    target = FairnessTarget(phi=[0.8, 0.2])
    rep = fair_gd(P, cfg, groups, target, OptimizerConfig(alpha=1.0, max_iters=200))
    assert rep.final_loss < rep.loss_trace[0]
    assert all(np.isfinite(rep.loss_trace))
    rep.final_matrix.validate()


def test_fair_gd_feasible_every_aspect():
    rng = np.random.default_rng(3)
    _, groups, cfg, P = random_sinky_instance(rng, 25, 2)
    target = FairnessTarget(phi=[0.7, 0.3])
    opt = OptimizerConfig(alpha=0.5, max_iters=120, delta=0.2, epsilon=0.05)
    rep = fair_gd(P, cfg, groups, target, opt)
    M = rep.final_matrix
    # pattern preserved, sink rows bitwise, rows stochastic, box respected
    assert np.array_equal(M.indices, P.indices)
    sink_entries = np.flatnonzero(P.sink_mask[P.entry_rows()])
    assert np.array_equal(M.data[sink_entries], P.data[sink_entries])
    assert P.implicit.any() and np.array_equal(M.implicit, P.implicit)
    assert np.array_equal(M.sink_row, P.sink_row)
    live = np.flatnonzero(~P.sink_mask[P.entry_rows()])
    box = BoxBounds.from_reference(P.data[live], opt.delta, opt.epsilon)
    assert (M.data[live] >= box.lower - 1e-15).all()
    assert (M.data[live] <= box.upper + 1e-15).all()
    M.validate()


def test_safe_step_monotone_descent():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(10, 40))
        _, groups, cfg, P = random_instance(rng, n, 2)
        target = random_target(rng, 2)
        opt = OptimizerConfig(alpha_auto=True, max_iters=50, kappa=0.0, t1=200, power_tol=1e-14)
        rep = fair_gd(P, cfg, groups, target, opt)
        tr = np.asarray(rep.loss_trace)
        assert (tr[1:] <= tr[:-1] + 1e-12).all()


def test_adapt_gd_safe_step_monotone_descent():
    rng = np.random.default_rng(44)
    for _ in range(3):
        n = int(rng.integers(8, 30))
        _, groups, cfg, P = random_instance(rng, n, 2)
        target = random_target(rng, 2)
        opt = OptimizerConfig(alpha_auto=True, max_iters=40, kappa=0.0, t1=200, power_tol=1e-14)
        rep = adapt_gd(P, GAMMA, groups, target, opt)
        tr = np.asarray(rep.loss_trace)
        assert (tr[1:] <= tr[:-1] + 1e-12).all()


def test_divergence_detection():
    rng = np.random.default_rng(5)
    _, groups, cfg, P = random_instance(rng, 15, 2)
    target = FairnessTarget(phi=[0.95, 0.05])
    with pytest.raises(DivergedError) as err:
        fair_gd(P, cfg, groups, target, OptimizerConfig(alpha=1e6, max_iters=50))
    assert err.value.iteration >= 1
    assert "2/C" in str(err.value)


def test_adapt_gd_single_group_identity():
    rng = np.random.default_rng(6)
    g, _, cfg, P = random_instance(rng, 10, 2)
    groups = load_labels("\n".join(f"{i} 0" for i in range(10)), 10)
    rep = adapt_gd(P, GAMMA, groups, FairnessTarget(phi=[1.0]), OptimizerConfig(alpha=1.0))
    assert rep.converged
    assert np.array_equal(rep.final_matrix.data, P.data)
    assert np.array_equal(rep.final_matrix.indices, P.indices)


def test_adapt_gd_reduces_group_adapted_loss():
    rng = np.random.default_rng(7)
    _, groups, cfg, P = random_instance(rng, 18, 2)
    target = FairnessTarget(phi=[0.65, 0.35])
    rep = adapt_gd(P, GAMMA, groups, target, OptimizerConfig(alpha=0.5, max_iters=150))
    assert rep.final_loss < rep.loss_trace[0]
    rep.final_matrix.validate()
    assert np.array_equal(rep.final_matrix.indices, P.indices)


def test_adapt_gd_restricted_feasibility():
    rng = np.random.default_rng(8)
    _, groups, cfg, P = random_sinky_instance(rng, 20, 2)
    target = FairnessTarget(phi=[0.3, 0.7])
    opt = OptimizerConfig(alpha=0.2, max_iters=80, delta=0.1, epsilon=0.1)
    rep = adapt_gd(P, GAMMA, groups, target, opt)
    live = np.flatnonzero(~P.sink_mask[P.entry_rows()])
    box = BoxBounds.from_reference(P.data[live], opt.delta, opt.epsilon)
    assert (rep.final_matrix.data[live] >= box.lower - 1e-15).all()
    assert (rep.final_matrix.data[live] <= box.upper + 1e-15).all()
    rep.final_matrix.validate()


def test_infeasible_box_aborts_before_work():
    g = load_graph("0 1\n1 0")
    cfg = PageRankConfig.uniform(2)
    bad = build_transition(g, cfg)
    bad.data[:] = [0.2, 0.2]  # low-mass rows cannot reach sum 1 in a 0-size box
    groups = load_labels("0 0\n1 1", 2)
    with pytest.raises(InfeasibleBoxError, match="row"):
        fair_gd(bad, cfg, groups, FairnessTarget(phi=[0.5, 0.5]), OptimizerConfig(alpha=0.1, delta=0.0, epsilon=0.0))


def test_alpha_auto_uses_lipschitz():
    rng = np.random.default_rng(9)
    _, groups, cfg, P = random_instance(rng, 10, 2)
    target = random_target(rng, 2)
    rep = fair_gd(P, cfg, groups, target, OptimizerConfig(alpha_auto=True, max_iters=5, kappa=0.0))
    assert rep.iterations_run == 5
    assert 2.0 / lipschitz_bound(P.n, 2, GAMMA) > 0


def test_trace_and_report_shape():
    rng = np.random.default_rng(10)
    _, groups, cfg, P = random_instance(rng, 10, 3)
    target = random_target(rng, 3)
    rep = fair_gd(P, cfg, groups, target, OptimizerConfig(alpha=0.5, max_iters=30, kappa=0.0))
    assert rep.iterations_run == len(rep.loss_trace) == 30
    assert not rep.converged
    assert rep.final_group_scores.shape == (3,)
    assert abs(rep.final_group_scores.sum() - 1.0) <= 1e-9
