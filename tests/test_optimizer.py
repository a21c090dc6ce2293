import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_instance, random_sinky_instance, random_target
from fairpr import (
    ALPHA_GRID,
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
from fairpr.loss import loss_from_scores
from fairpr.graph import WalkOperator
from fairpr.loss import _group_restarts
from fairpr.optimizer import ENTRY_CEILING, LOSS_CEILING, OptimizationReport, _descend
from fairpr.pagerank import neumann_y
from fairpr.projection import project_matrix, row_boxes

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


def test_no_alpha_picks_the_grid_winner():
    rng = np.random.default_rng(0)
    _, groups, cfg, P = random_instance(rng, 8, 2)
    target = random_target(rng, 2)
    opt = OptimizerConfig(max_iters=20)
    rep = fair_gd(P, cfg, groups, target, opt)
    runs = [_outcome(fair_gd, P, cfg, groups, target, replace(opt, alpha=a)) for a in ALPHA_GRID]
    losses = [math.inf if isinstance(r, DivergedError) else r.final_loss for r in runs]
    assert rep.alpha == ALPHA_GRID[int(np.argmin(losses))]  # argmin: ties go to the earlier alpha
    assert rep.final_loss == min(losses)
    assert [g.alpha for g in rep.grid] == list(ALPHA_GRID)
    assert [g.loss for g in rep.grid] == [None if math.isinf(x) else x for x in losses]


def test_self_target_converges_and_keeps_matrix():
    rng = np.random.default_rng(1)
    _, groups, cfg, P = random_instance(rng, 12, 2)
    scores = group_scores(pagerank_power(P, cfg, t1=100, tol=1e-12), groups)
    opt = OptimizerConfig(alpha=0.5)
    rep = fair_gd(P, cfg, groups, FairnessTarget(phi=scores), opt)
    assert rep.stop_reason == "kappa" and rep.iterations_run <= 2
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
    assert rep.stop_reason == "kappa"
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
    assert rep.stop_reason == "max_iters"


# Reference copies of the two descent loops as they stood before both
# objectives shared one loop, kept verbatim (names prefixed) so that the
# shared loop can be checked against them.

def ref_resolve_alpha(opt, n, K, gamma):
    if opt.alpha is not None:
        return opt.alpha
    if opt.alpha_auto:
        return 2.0 / lipschitz_bound(n, K, gamma)
    raise ValueError("no step size: set alpha or alpha_auto (the CLI can grid-search instead)")


def ref_trivial_report(P):
    return OptimizationReport(final_matrix=P.copy(), loss_trace=[0.0], stop_reason="kappa")


def ref_fair_gd(P, cfg, groups, target, opt):
    gamma = cfg.gamma
    K = groups.K
    alpha = ref_resolve_alpha(opt, P.n, K, gamma)
    row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        return ref_trivial_report(P)

    phi = target.phi
    P_hat = P.copy()
    entry_rows = P.entry_rows()
    live = np.flatnonzero(~P.sink_mask[entry_rows])
    rows_nz = entry_rows[live]
    cols_nz = P.indices[live]
    c0 = 2.0 * (1.0 - gamma) / K

    p = np.full(P.n, 1.0 / P.n)
    loss_prev = math.inf
    trace = []
    stop_reason = "max_iters"
    for it in range(opt.max_iters):
        p = pagerank_power(P_hat, cfg, t1=opt.t1, tol=opt.power_tol, start=p)
        scores = group_scores(p, groups)
        loss = loss_from_scores(scores, phi)
        trace.append(loss)
        if not math.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergedError(it + 1, loss, 2.0 / lipschitz_bound(P.n, K, gamma))
        if abs(loss - loss_prev) <= opt.kappa:
            stop_reason = "kappa"
            break
        loss_prev = loss
        prow = p[rows_nz]
        stepped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(K):
                coef = alpha * c0 * (scores[k] - phi[k])
                if coef == 0.0:
                    continue
                y = neumann_y(P_hat, groups.indicator(k), gamma, opt.t2)
                P_hat.data[live] -= coef * prow * y[cols_nz]
                stepped = True
                if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                    raise DivergedError(it + 1, math.inf, 2.0 / lipschitz_bound(P.n, K, gamma))
        if stepped:
            P_hat = project_matrix(P_hat, P, opt.delta, opt.epsilon)

    return OptimizationReport(final_matrix=P_hat, loss_trace=trace, stop_reason=stop_reason)


def ref_adapt_gd(P, gamma, groups, target, opt):
    K = groups.K
    alpha = ref_resolve_alpha(opt, P.n, K, gamma)
    row_boxes(P, opt.delta, opt.epsilon)  # infeasible boxes fail before any work
    if K == 1:
        return ref_trivial_report(P)

    phi = target.phi
    P_hat = P.copy()
    entry_rows = P.entry_rows()
    live = np.flatnonzero(~P.sink_mask[entry_rows])
    rows_nz = entry_rows[live]
    cols_nz = P.indices[live]
    c0 = 2.0 * (1.0 - gamma) / (K * K)
    restart_cfgs = [PageRankConfig.group_restart(groups, ell, gamma) for ell in range(K)]

    warm = [np.full(P.n, 1.0 / P.n) for _ in range(K)]
    loss_prev = math.inf
    trace = []
    stop_reason = "max_iters"
    for it in range(opt.max_iters):
        sq = 0.0
        for ell in range(K):
            warm[ell] = pagerank_power(
                P_hat, restart_cfgs[ell], t1=opt.t1, tol=opt.power_tol, start=warm[ell]
            )
            d = group_scores(warm[ell], groups) - phi
            sq += float(d @ d)
        loss = sq / (K * K)
        trace.append(loss)
        if not math.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergedError(it + 1, loss, 2.0 / lipschitz_bound(P.n, K, gamma))
        if abs(loss - loss_prev) <= opt.kappa:
            stop_reason = "kappa"
            break
        loss_prev = loss
        stepped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for ell in range(K):
                p_ell = pagerank_power(P_hat, restart_cfgs[ell], t1=opt.t1, tol=opt.power_tol, start=warm[ell])
                resid = group_scores(p_ell, groups) - phi
                prow = p_ell[rows_nz]
                for k in range(K):
                    coef = alpha * c0 * resid[k]
                    if coef == 0.0:
                        continue
                    y = neumann_y(P_hat, groups.indicator(k), gamma, opt.t2)
                    P_hat.data[live] -= coef * prow * y[cols_nz]
                    stepped = True
                    if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                        raise DivergedError(it + 1, math.inf, 2.0 / lipschitz_bound(P.n, K, gamma))
        if stepped:
            P_hat = project_matrix(P_hat, P, opt.delta, opt.epsilon)

    return OptimizationReport(final_matrix=P_hat, loss_trace=trace, stop_reason=stop_reason)


def _outcome(run, *args):
    try:
        return run(*args)
    except DivergedError as err:
        return err


def guard_cases(seed, count, log_alpha, max_iters):
    """(P, cfg, groups, target, opt) over plain and sinky graphs, K in {2, 3},
    plain and restricted feasible sets, alpha log-uniform in ``log_alpha``."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        build = random_sinky_instance if i % 2 else random_instance
        K = 2 + (i // 2) % 2
        _, groups, cfg, P = build(rng, int(rng.integers(8, 30)), K)
        bounds = {"delta": 0.2, "epsilon": 0.05} if (i // 4) % 2 else {}
        alpha = 10.0 ** rng.uniform(*log_alpha)
        kappa = float(rng.choice([0.0, 1e-8]))
        opt = OptimizerConfig(alpha=alpha, kappa=kappa, max_iters=max_iters, **bounds)
        yield P, cfg, groups, random_target(rng, K), opt


def test_fair_gd_matches_reference_loop_bitwise():
    diverged = unrecoverable = 0
    for P, cfg, groups, target, opt in guard_cases(11, 48, (-2.0, 2.0), 25):
        ref = _outcome(ref_fair_gd, P, cfg, groups, target, opt)
        got = _outcome(fair_gd, P, cfg, groups, target, opt)
        if isinstance(got, DivergedError) and not isinstance(ref, DivergedError):
            # the one disagreement allowed: a projection off its row sums
            # diverges now, where the reference loop returned that matrix
            with pytest.raises(ValueError, match="sums to"):
                ref.final_matrix.validate()
            unrecoverable += 1
            continue
        assert type(got) is type(ref)
        if isinstance(ref, DivergedError):
            diverged += 1
            assert (got.iteration, repr(got.loss)) == (ref.iteration, repr(ref.loss))
            assert got.safe_alpha == ref.safe_alpha
            continue
        assert got.loss_trace == ref.loss_trace
        assert np.array_equal(got.final_matrix.data, ref.final_matrix.data)
        assert got.stop_reason == ref.stop_reason
    assert 0 < diverged < 48  # both outcomes are exercised
    assert unrecoverable <= 1


def test_adapt_gd_matches_reference_loop():
    for P, cfg, groups, target, opt in guard_cases(12, 40, (-2.0, -1.0), 8):
        ref = ref_adapt_gd(P, GAMMA, groups, target, opt)
        got = adapt_gd(P, GAMMA, groups, target, opt)
        assert got.iterations_run == ref.iterations_run and got.stop_reason == ref.stop_reason
        assert np.abs(np.subtract(got.loss_trace, ref.loss_trace)).max() <= 1e-10
        assert np.abs(got.final_matrix.data - ref.final_matrix.data).max() <= 1e-10


def test_unrecoverable_projection_diverges():
    # after one step at alpha 100 the box projection leaves a row 1.6e-7 off
    # sum 1: the reference loop returns that matrix, the descent diverges
    rng = np.random.default_rng(19)
    _, groups, cfg, P = random_instance(rng, int(rng.integers(8, 30)), 2)
    target = random_target(rng, 2)
    opt = OptimizerConfig(alpha=100.0, max_iters=2, delta=0.2, epsilon=0.05)
    with pytest.raises(ValueError, match="sums to"):
        ref_fair_gd(P, cfg, groups, target, opt).final_matrix.validate()
    with pytest.raises(DivergedError) as err:
        fair_gd(P, cfg, groups, target, opt)
    assert err.value.iteration == 1 and err.value.loss == math.inf


def _same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, DivergedError):
        assert (got.iteration, repr(got.loss)) == (want.iteration, repr(want.loss))
        assert got.safe_alpha == want.safe_alpha
        return
    assert got.loss_trace == want.loss_trace
    assert np.array_equal(got.final_matrix.data, want.final_matrix.data)
    assert (got.stop_reason, got.iterations_run, got.alpha) == (want.stop_reason, want.iterations_run, want.alpha)


def test_grid_matches_one_copy_runs_bitwise():
    """Every copy of the lockstep grid ends exactly as its step size run
    alone, and fair_gd/adapt_gd without alpha pick among those runs."""
    rng = np.random.default_rng(21)
    stops = {"kappa": 0, "max_iters": 0, "diverged": 0}
    for i in range(16):
        build = random_sinky_instance if i % 2 else random_instance
        K = 2 + (i // 2) % 2
        _, groups, cfg, P = build(rng, int(rng.integers(6, 25)), K)
        bounds = {"delta": 0.2, "epsilon": 0.05} if (i // 4) % 2 else {}
        target = random_target(rng, K)
        opt = OptimizerConfig(kappa=float(rng.choice([0.0, 1e-4])), max_iters=12, **bounds)
        if i // 8:
            restarts, run, args = _group_restarts(groups, GAMMA), adapt_gd, (P, GAMMA, groups, target)
        else:
            restarts, run, args = [cfg], fair_gd, (P, cfg, groups, target)
        alphas, grid = _descend(P, restarts, groups, target, opt)
        assert alphas == ALPHA_GRID
        alone = []
        for alpha, got in zip(alphas, grid):
            (want,) = _descend(P, restarts, groups, target, replace(opt, alpha=alpha))[1]
            _same_outcome(got, want)
            alone.append(want)
        picked = _outcome(run, *args, opt)
        for point in getattr(picked, "grid", []):
            stops[point.outcome] += 1
        reports = [r for r in alone if not isinstance(r, DivergedError)]
        if reports:
            _same_outcome(picked, min(reports, key=lambda r: r.final_loss))
        else:
            _same_outcome(picked, alone[-1])
    assert min(stops.values()) > 0, stops


def test_stacked_operator_matches_per_copy_products():
    rng = np.random.default_rng(22)
    cases = 0
    for _ in range(30):
        _, groups, cfg, P = random_sinky_instance(rng, int(rng.integers(3, 60)), 2)
        if not P.implicit.any():
            continue
        cases += 1
        C = int(rng.integers(1, 10))
        W = P.data * rng.uniform(0.5, 1.5, size=(C, P.nnz))
        op = WalkOperator(P, W)
        p, z = rng.random((C, P.n)), rng.random((C, P.n))
        start = p / p.sum(axis=1, keepdims=True)
        tol = 10.0 ** rng.uniform(-14, -6)  # so that copies stop after different step counts
        left, right = op.left(p.ravel()).reshape(C, -1), op.right(z.ravel()).reshape(C, -1)
        power = pagerank_power(op, cfg, t1=60, tol=tol, start=start)
        y = neumann_y(op, groups.indicator(1), GAMMA, 20)
        for c in range(C):
            one = P.with_data(W[c].copy())
            assert np.array_equal(left[c], one.operator().left(p[c].copy()))
            assert np.array_equal(right[c], one.operator().right(z[c].copy()))
            assert np.array_equal(power[c], pagerank_power(one, cfg, t1=60, tol=tol, start=start[c].copy()))
            assert np.array_equal(y[c], neumann_y(one, groups.indicator(1), GAMMA, 20))
    assert cases >= 10
