import logging
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
    lfpr_u,
    lipschitz_bound,
    load_graph,
    load_labels,
    loss_fair,
    loss_group_adapted,
    pagerank_power,
)
from fairpr.experiment import build_target
from fairpr.loss import loss_from_scores
from fairpr.graph import WalkOperator
from fairpr.loss import _group_restarts
import fairpr.optimizer
from fairpr.optimizer import ENTRY_CEILING, LOSS_TIE_RTOL, OptimizationReport, _best, _descend, descend_targets
from fairpr.pagerank import neumann_y
import fairpr.projection
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
    with pytest.raises(ValueError, match="give alpha or alpha_auto, not both"):
        OptimizerConfig(alpha=1.0, alpha_auto=True)
    for steps in ({"t1": 0}, {"t2": -1}):
        with pytest.raises(ValueError, match="^t1 must be >= 1 and t2 >= 0$"):
            OptimizerConfig(**steps)


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


def test_grid_ties_within_the_tolerance_go_to_the_earlier_step_size():
    """Final losses within LOSS_TIE_RTOL of the lowest tie with it, and the
    earliest tied step size wins; a loss twice as far off does not tie."""

    def outcomes(*losses):
        return [
            DivergedError(1, 1.0) if x is None else OptimizationReport(None, [1.0, x], "kappa", a)
            for a, x in zip(ALPHA_GRID, losses)
        ]

    low = 0.25
    near, far = low * (1.0 + 0.5 * LOSS_TIE_RTOL), low * (1.0 + 2.0 * LOSS_TIE_RTOL)
    best = _best(ALPHA_GRID[:4], outcomes(None, far, near, low))
    assert best.alpha == ALPHA_GRID[2] and best.final_loss == near
    assert [g.loss for g in best.grid] == [None, far, near, low]
    assert _best(ALPHA_GRID[:3], outcomes(far, low, near)).alpha == ALPHA_GRID[1]
    assert _best(ALPHA_GRID[:2], outcomes(low, low)).alpha == ALPHA_GRID[0]


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
    assert np.array_equal(M.indptr, P.indptr) and np.array_equal(M.indices, P.indices)
    assert P.sink_mask.any() and np.array_equal(M.sink_mask, P.sink_mask)
    assert np.array_equal(M.sink_row, P.sink_row)
    box = BoxBounds.from_reference(P.data, opt.delta, opt.epsilon)
    assert (M.data >= box.lower - 1e-15).all()
    assert (M.data <= box.upper + 1e-15).all()
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
    # the message names the one cause, the entry ceiling, and the safe step
    text = str(err.value)
    assert text == (
        f"diverged at iteration {err.value.iteration}: a step threw an entry past {ENTRY_CEILING:g}; "
        f"try a step size alpha <= {err.value.safe_alpha:.6g} (= 2/C)"
    )


def test_loop_top_solves_skip_diverged_copies(karate, caplog):
    """adapt_gd's loop-top solves run only on the copies whose entries
    passed the ceiling: no capped solve on karate reports a nan change,
    although grid copies diverge."""
    _, groups, _, P = karate
    with caplog.at_level(logging.DEBUG, logger="fairpr"):
        rep = adapt_gd(P, GAMMA, groups, build_target(0.1, groups.K), OptimizerConfig(max_iters=5))
    assert "diverged" in {point.outcome for point in rep.grid}
    capped = [r.getMessage() for r in caplog.records if "without meeting tol" in r.getMessage()]
    assert not [m for m in capped if m.endswith("largest last L1 change nan")]


def test_adapt_gd_solves_each_restart_once_per_iteration(monkeypatch):
    """One warm-started solve at the top of each of the m + 1 iterations,
    given all K restarts at once, and none between the restarts' gradient
    terms."""
    rng = np.random.default_rng(13)
    _, groups, _, P = random_instance(rng, 15, 3)
    calls = []

    def counting(op, restarts, *args, **kwargs):
        calls.append([cfg.restart_vector for cfg in restarts])
        return pagerank_power(op, restarts, *args, **kwargs)

    monkeypatch.setattr("fairpr.optimizer.pagerank_power", counting)
    m = 4
    rep = adapt_gd(P, GAMMA, groups, random_target(rng, 3), OptimizerConfig(alpha=0.1, kappa=0.0, max_iters=m))
    assert rep.stop_reason == "max_iters" and rep.iterations_run == m
    assert len(calls) == m + 1
    for given in calls:
        assert len(given) == groups.K
        for ell, v in enumerate(given):
            assert np.array_equal(v, groups.indicator(ell) / groups.group_sizes[ell])


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
    box = BoxBounds.from_reference(P.data, opt.delta, opt.epsilon)
    assert (rep.final_matrix.data >= box.lower - 1e-15).all()
    assert (rep.final_matrix.data <= box.upper + 1e-15).all()
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
    assert rep.iterations_run == 30 and len(rep.loss_trace) == 31
    assert rep.stop_reason == "max_iters"


@pytest.mark.parametrize("bounds", [{}, {"delta": 0.1, "epsilon": 0.1}])
@pytest.mark.parametrize("adapted,alpha", [(False, None), (False, 1.0), (True, None), (True, 0.1)])
def test_final_loss_is_the_returned_matrix_loss(karate, adapted, alpha, bounds):
    # a fixed step that finishes: adapt_gd diverges at alpha 1 on karate
    _, groups, cfg, P = karate
    target = build_target(0.1, groups.K)
    opt = OptimizerConfig(alpha=alpha, max_iters=5, **bounds)
    if adapted:
        rep = adapt_gd(P, GAMMA, groups, target, opt)
        loss = loss_group_adapted(rep.final_matrix, GAMMA, groups, target, t1=opt.t1, tol=opt.power_tol)
    else:
        rep = fair_gd(P, cfg, groups, target, opt)
        loss = loss_fair(rep.final_matrix, cfg, groups, target, t1=opt.t1, tol=opt.power_tol)
    assert len(rep.loss_trace) == rep.iterations_run + 1
    assert abs(rep.final_loss - loss) <= 1e-10


# Reference copies of the two descent loops as they stood before both
# objectives shared one loop (names prefixed), with two changes: the loss is
# evaluated once more after the last step, so that the trace ends at the
# returned matrix, and ref_adapt_gd takes each restart's terms from its
# loop-top solve instead of re-solving on the moved matrix. The shared loop
# is checked against them.

# the reference loops' own divergence test: the loss is at most 1 on the feasible set
LOSS_CEILING = 1.0 + 1e-9


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
    rows_nz = P.entry_rows()
    cols_nz = P.indices
    c0 = 2.0 * (1.0 - gamma) / K

    p = np.full(P.n, 1.0 / P.n)
    loss_prev = math.inf
    trace = []
    stop_reason = "max_iters"
    for it in range(opt.max_iters + 1):
        p = pagerank_power(P_hat, cfg, t1=opt.t1, tol=opt.power_tol, start=p)
        scores = group_scores(p, groups)
        loss = loss_from_scores(scores, phi)
        trace.append(loss)
        if not math.isfinite(loss) or loss > LOSS_CEILING:
            raise DivergedError(it + 1, 2.0 / lipschitz_bound(P.n, K, gamma))
        if it == opt.max_iters:
            break
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
                P_hat.data -= coef * prow * y[cols_nz]
                stepped = True
                if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                    raise DivergedError(it + 1, 2.0 / lipschitz_bound(P.n, K, gamma))
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
    rows_nz = P.entry_rows()
    cols_nz = P.indices
    c0 = 2.0 * (1.0 - gamma) / (K * K)
    restart_cfgs = [PageRankConfig.group_restart(groups, ell, gamma) for ell in range(K)]

    warm = [np.full(P.n, 1.0 / P.n) for _ in range(K)]
    loss_prev = math.inf
    trace = []
    stop_reason = "max_iters"
    for it in range(opt.max_iters + 1):
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
            raise DivergedError(it + 1, 2.0 / lipschitz_bound(P.n, K, gamma))
        if it == opt.max_iters:
            break
        if abs(loss - loss_prev) <= opt.kappa:
            stop_reason = "kappa"
            break
        loss_prev = loss
        stepped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for ell in range(K):
                p_ell = warm[ell]
                resid = group_scores(p_ell, groups) - phi
                prow = p_ell[rows_nz]
                for k in range(K):
                    coef = alpha * c0 * resid[k]
                    if coef == 0.0:
                        continue
                    y = neumann_y(P_hat, groups.indicator(k), gamma, opt.t2)
                    P_hat.data -= coef * prow * y[cols_nz]
                    stepped = True
                    if not np.all(np.abs(P_hat.data) <= ENTRY_CEILING):
                        raise DivergedError(it + 1, 2.0 / lipschitz_bound(P.n, K, gamma))
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
    diverged = 0
    for P, cfg, groups, target, opt in guard_cases(11, 48, (-2.0, 2.0), 25):
        ref = _outcome(ref_fair_gd, P, cfg, groups, target, opt)
        got = _outcome(fair_gd, P, cfg, groups, target, opt)
        assert type(got) is type(ref)
        if isinstance(ref, DivergedError):
            diverged += 1
            assert (got.iteration, got.safe_alpha) == (ref.iteration, ref.safe_alpha)
            continue
        assert got.loss_trace == ref.loss_trace
        assert np.array_equal(got.final_matrix.data, ref.final_matrix.data)
        assert got.stop_reason == ref.stop_reason
    assert 0 < diverged < 48  # both outcomes are exercised


def test_adapt_gd_matches_reference_loop():
    for P, cfg, groups, target, opt in guard_cases(12, 40, (-2.0, -1.0), 8):
        ref = ref_adapt_gd(P, GAMMA, groups, target, opt)
        got = adapt_gd(P, GAMMA, groups, target, opt)
        assert got.iterations_run == ref.iterations_run and got.stop_reason == ref.stop_reason
        # the reference sums the loss in another order, so the traces agree to rounding
        assert np.abs(np.subtract(got.loss_trace, ref.loss_trace)).max() <= 1e-10
        assert np.array_equal(got.final_matrix.data, ref.final_matrix.data)


def test_large_restricted_step_lands_on_the_rows():
    # both steps at alpha 100 throw entries past 1e10, far out of their
    # boxes; the box projection lands every row back on sum 1, so the
    # descent runs on and returns the reference loop's matrix
    rng = np.random.default_rng(19)
    _, groups, cfg, P = random_instance(rng, int(rng.integers(8, 30)), 2)
    target = random_target(rng, 2)
    opt = OptimizerConfig(alpha=100.0, max_iters=2, delta=0.2, epsilon=0.05)
    want = ref_fair_gd(P, cfg, groups, target, opt)
    got = fair_gd(P, cfg, groups, target, opt)
    got.final_matrix.validate()
    assert got.loss_trace == want.loss_trace and got.stop_reason == want.stop_reason
    assert np.array_equal(got.final_matrix.data, want.final_matrix.data)


def _same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, DivergedError):
        assert (got.iteration, got.safe_alpha) == (want.iteration, want.safe_alpha)
        return
    assert got.loss_trace == want.loss_trace
    assert np.array_equal(got.final_matrix.data, want.final_matrix.data)
    assert (got.stop_reason, got.iterations_run, got.alpha) == (want.stop_reason, want.iterations_run, want.alpha)


def test_grid_matches_one_copy_runs_bitwise(monkeypatch):
    """Every copy of the lockstep grid ends exactly as its step size run
    alone, and fair_gd/adapt_gd without alpha pick among those runs. On a
    second pass PIECE_BUDGET holds 2 to 5 copies' entries, so the grid's
    stack projects in pieces of whole copies through the tiles it built for
    9, also once copies have left it (plain and boxed, fairgd and adaptgd)."""
    sizes = []  # the entries of each projected piece
    piece = fairpr.projection._project_piece
    monkeypatch.setattr(fairpr.projection, "_project_piece", lambda x, *a: sizes.append(x.size) or piece(x, *a))
    for pieces in (False, True):
        rng = np.random.default_rng(21)
        stops = {"kappa": 0, "max_iters": 0, "diverged": 0}
        for i in range(16):
            build = random_sinky_instance if i % 2 else random_instance
            K = 2 + (i // 2) % 2
            _, groups, cfg, P = build(rng, int(rng.integers(6, 25)), K)
            if pieces:
                monkeypatch.setattr(fairpr.projection, "PIECE_BUDGET", P.nnz * (2 + i % 4) + P.nnz // 2)
            bounds = {"delta": 0.2, "epsilon": 0.05} if (i // 4) % 2 else {}
            target = random_target(rng, K)
            opt = OptimizerConfig(kappa=float(rng.choice([0.0, 1e-4])), max_iters=12, **bounds)
            if i // 8:
                restarts, run, args = _group_restarts(groups, GAMMA), adapt_gd, (P, GAMMA, groups, target)
            else:
                restarts, run, args = [cfg], fair_gd, (P, cfg, groups, target)
            del sizes[:]
            alphas, (grid,) = _descend(P, restarts, groups, [target], opt)
            assert alphas == ALPHA_GRID
            if pieces:  # whole copies, at most 2 to 5 of them, and a last piece of fewer
                assert set(sizes) <= {P.nnz * c for c in range(1, 3 + i % 4)} and len(set(sizes)) > 1, sizes
            alone = []
            for alpha, got in zip(alphas, grid):
                ((want,),) = _descend(P, restarts, groups, [target], replace(opt, alpha=alpha))[1]
                _same_outcome(got, want)
                alone.append(want)
            picked = _outcome(run, *args, opt)
            for point in getattr(picked, "grid", []):
                stops[point.outcome] += 1
            _same_outcome(picked, _tie_pick(alone))
        assert min(stops.values()) > 0, (pieces, stops)


def _tie_pick(outcomes):
    """The grid's pick among one target's outcomes, in grid order: the first
    report within LOSS_TIE_RTOL of the lowest final loss, or the last
    DivergedError when every step size diverged."""
    reports = [r for r in outcomes if not isinstance(r, DivergedError)]
    if not reports:
        return outcomes[-1]
    low = min(r.final_loss for r in reports)
    return next(r for r in reports if r.final_loss <= low * (1.0 + LOSS_TIE_RTOL))


def test_stacks_match_one_target_runs_bitwise(monkeypatch):
    """A stack of 1 to 4 targets over ALPHA_GRID: every (target, step size)
    copy ends exactly as in its target's one-target run, and each target
    picks what fair_gd/adapt_gd pick for it alone. Plain and boxed, sinky
    and sink-free, fairgd and adaptgd; on a second pass PIECE_BUDGET holds
    2 to 5 copies' entries, so the stack projects in pieces that mix
    targets."""
    sizes = []  # the entries of each projected piece
    piece = fairpr.projection._project_piece
    monkeypatch.setattr(fairpr.projection, "_project_piece", lambda x, *a: sizes.append(x.size) or piece(x, *a))
    for pieces in (False, True):
        rng = np.random.default_rng(23)
        stops = {"kappa": 0, "max_iters": 0, "diverged": 0}
        for i in range(16):
            build = random_sinky_instance if i % 2 else random_instance
            K = 2 + (i // 2) % 2
            _, groups, cfg, P = build(rng, int(rng.integers(6, 25)), K)
            if pieces:
                monkeypatch.setattr(fairpr.projection, "PIECE_BUDGET", P.nnz * (2 + i % 4) + P.nnz // 2)
            bounds = {"delta": 0.2, "epsilon": 0.05} if (i // 4) % 2 else {}
            targets = [random_target(rng, K) for _ in range(1 + i % 4)]
            opt = OptimizerConfig(kappa=float(rng.choice([0.0, 1e-4])), max_iters=12, **bounds)
            if i // 8:
                restarts, run, args = _group_restarts(groups, GAMMA), adapt_gd, (P, GAMMA, groups)
            else:
                restarts, run, args = [cfg], fair_gd, (P, cfg, groups)
            del sizes[:]
            alphas, stack = _descend(P, restarts, groups, targets, opt)
            assert alphas == ALPHA_GRID and len(stack) == len(targets)
            if pieces:  # whole copies, at most 2 to 5 of them
                assert set(sizes) <= {P.nnz * c for c in range(1, 3 + i % 4)}, sizes
            picks = descend_targets(P, restarts, groups, targets, opt)
            for target, grid, pick in zip(targets, stack, picks):
                _, (alone,) = _descend(P, restarts, groups, [target], opt)
                for got, want in zip(grid, alone, strict=True):
                    _same_outcome(got, want)
                    stops["diverged" if isinstance(want, DivergedError) else want.stop_reason] += 1
                _same_outcome(pick, _tie_pick(alone))
                _same_outcome(pick, _outcome(run, *args, target, opt))
        assert min(stops.values()) > 0, (pieces, stops)


def test_a_stack_target_whose_grid_all_diverges_leaves_the_others(karate, monkeypatch):
    """Beside a target that is already met, a target whose every step size
    diverges gets its own DivergedError, and the met one still reports,
    each as its one-target run."""
    _, groups, cfg, P = karate
    opt = OptimizerConfig(max_iters=5)
    met = FairnessTarget(phi=group_scores(pagerank_power(P, cfg, t1=opt.t1, tol=opt.power_tol), groups))
    monkeypatch.setattr(fairpr.optimizer, "ALPHA_GRID", (1e3, 1e4))
    far = build_target(0.1, groups.K)
    stack = descend_targets(P, [cfg], groups, [far, met, far], opt)
    assert [type(pick) for pick in stack] == [DivergedError, OptimizationReport, DivergedError]
    for target, pick in zip([far, met, far], stack):
        _same_outcome(pick, _outcome(fair_gd, P, cfg, groups, target, opt))
    assert [g.outcome for g in stack[1].grid] == ["kappa", "kappa"]
    with pytest.raises(ValueError, match="^no target to descend for$"):
        descend_targets(P, [cfg], groups, [], opt)


def test_descend_targets_stacks_as_many_targets_as_fit_in_the_budget(karate, monkeypatch):
    """descend_targets runs consecutive targets in stacks of at most
    STACK_BUDGET weight entries, never splitting a target's grid, and each
    target picks what one stack of all of them picks."""
    _, groups, cfg, P = karate
    targets = [build_target(phi, groups.K) for phi in (0.1, 0.2, 0.3, 0.4, 0.5)]
    descend, calls = fairpr.optimizer._descend, []
    monkeypatch.setattr(fairpr.optimizer, "_descend", lambda *a: calls.append(len(a[3])) or descend(*a))
    for opt, copies in ((OptimizerConfig(max_iters=6), len(ALPHA_GRID)), (OptimizerConfig(alpha=0.1, max_iters=6), 1)):
        monkeypatch.setattr(fairpr.optimizer, "STACK_BUDGET", 10**9)
        whole = descend_targets(P, [cfg], groups, targets, opt)
        for per, budget in ((1, 1), (1, 2 * copies * P.nnz - 1), (2, 2 * copies * P.nnz), (3, 3 * copies * P.nnz)):
            monkeypatch.setattr(fairpr.optimizer, "STACK_BUDGET", budget)
            del calls[:]
            picks = descend_targets(P, [cfg], groups, targets, opt)
            assert calls == [min(per, 5 - a) for a in range(0, 5, per)], (budget, calls)
            for got, want in zip(picks, whole, strict=True):
                _same_outcome(got, want)


def test_stacked_operator_matches_per_copy_products():
    rng = np.random.default_rng(22)
    cases = 0
    for _ in range(30):
        _, groups, cfg, P = random_sinky_instance(rng, int(rng.integers(3, 60)), 2)
        if not P.sink_mask.any():
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


def test_descent_rejects_group_spreads():
    """The descent and the projection reweight edges only: a matrix whose
    rows carry shares of group vectors is refused before any work."""
    rng = np.random.default_rng(41)
    _, groups, cfg, P = random_sinky_instance(rng, 20, 2)
    target = FairnessTarget(phi=[0.4, 0.6])
    M = lfpr_u(P, groups, target).matrix
    assert M.has_spreads and not P.has_spreads
    opt = OptimizerConfig(alpha=1.0, max_iters=2)
    for run in (lambda: fair_gd(M, cfg, groups, target, opt), lambda: adapt_gd(M, GAMMA, groups, target, opt)):
        with pytest.raises(ValueError, match="group spreads"):
            run()
    for a, b in ((M, M), (M, M.with_data(M.data)), (P.with_data(M.data), M)):
        with pytest.raises(ValueError, match="group spreads"):
            project_matrix(a, b)
