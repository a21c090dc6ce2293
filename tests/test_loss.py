import math

import numpy as np
import pytest

from conftest import random_instance, random_sinky_instance, random_target
from fairpr import (
    FairnessTarget,
    OptimizerConfig,
    PageRankConfig,
    TransitionMatrix,
    adapt_gd,
    build_transition,
    fair_gd,
    fairwalk,
    grad_fair,
    grad_group_adapted,
    group_scores,
    lfpr_n,
    lfpr_u,
    lipschitz_bound,
    load_graph,
    load_labels,
    loss_fair,
    loss_group_adapted,
    neumann_y,
    pagerank_direct,
    pagerank_power,
)
from fairpr.graph import WalkOperator
from fairpr.loss import _indicators, _terms, loss_from_scores

GAMMA = 0.15


def fd_gradient_entry(P, groups, phi, restart_cfgs, i, j, h=1e-6):
    """Central difference of the (possibly group-averaged) loss via direct
    solves, perturbing one entry without renormalizing the row."""
    vals = []
    for sgn in (1.0, -1.0):
        A = P.to_dense()
        A[i, j] += sgn * h
        M = TransitionMatrix.from_dense(A, sink_mask=P.sink_mask)
        total = 0.0
        for cfg in restart_cfgs:
            p = pagerank_direct(M, cfg)
            total += loss_from_scores(group_scores(p, groups), phi)
        vals.append(total / len(restart_cfgs))
    return (vals[0] - vals[1]) / (2 * h)


def test_two_cycle_loss_value():
    P = build_transition(load_graph("0 1\n1 0"), PageRankConfig.uniform(2))
    groups = load_labels("0 0\n1 1", 2)
    cfg = PageRankConfig.uniform(2, GAMMA)
    L = loss_fair(P, cfg, groups, FairnessTarget(phi=[1.0, 0.0]))
    assert abs(L - 0.25) <= 1e-12


def test_self_target_loss_is_zero():
    rng = np.random.default_rng(3)
    _, groups, cfg, P = random_instance(rng, 12, 2)
    p = pagerank_power(P, cfg, t1=300, tol=1e-13)
    scores = group_scores(p, groups)
    L = loss_fair(P, cfg, groups, FairnessTarget(phi=scores), t1=300, tol=1e-13)
    assert L <= 1e-12


def test_loss_bounds_zero_iff_target_met():
    rng = np.random.default_rng(4)
    for _ in range(20):
        _, groups, cfg, P = random_instance(rng, 10, 2)
        target = random_target(rng, 2)
        L = loss_fair(P, cfg, groups, target)
        assert 0.0 <= L <= 1.0
        scores = group_scores(pagerank_power(P, cfg), groups)
        if L == 0.0:
            assert np.array_equal(scores, target.phi)


def test_group_adapted_single_group_is_zero():
    rng = np.random.default_rng(6)
    _, _, cfg, P = random_instance(rng, 8, 2)
    groups = load_labels("\n".join(f"{i} 0" for i in range(8)), 8)
    assert loss_group_adapted(P, GAMMA, groups, FairnessTarget(phi=[1.0])) <= 1e-24


def test_bridged_two_cycles_losses():
    # two 2-cycles bridged symmetrically: every vertex sends half its mass
    # to each group, so uniform-restart scores are (1/2, 1/2) and restart
    # in group l puts gamma extra mass there: score = gamma + (1-gamma)/2.
    g = load_graph("0 1\n1 0\n2 3\n3 2\n0 2\n2 0\n1 3\n3 1")
    groups = load_labels("0 0\n1 0\n2 1\n3 1", 4)
    cfg = PageRankConfig.uniform(4, GAMMA)
    P = build_transition(g, cfg)
    target = FairnessTarget(phi=[0.5, 0.5])
    L = loss_fair(P, cfg, groups, target, t1=400, tol=1e-14)
    Lg = loss_group_adapted(P, GAMMA, groups, target, t1=400, tol=1e-14)
    assert L <= 1e-24
    assert abs(Lg - (GAMMA / 2) ** 2) <= 1e-12


def test_nonconvexity_witness():
    P1 = TransitionMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    P2 = TransitionMatrix.from_dense([[0, 0, 1], [0, 0, 1], [1, 0, 0]])
    P3 = TransitionMatrix.from_dense((P1.to_dense() + P2.to_dense()) / 2.0)
    groups = load_labels("0 0\n1 1\n2 1", 3)
    cfg = PageRankConfig.uniform(3, GAMMA)
    phi1 = (GAMMA**2 - 3 * GAMMA + 3) / (3 * (2 - GAMMA))
    target = FairnessTarget(phi=[phi1, 1 - phi1])
    losses = [loss_fair(M, cfg, groups, target, t1=500, tol=1e-14) for M in (P1, P2, P3)]
    assert losses[0] <= 1e-12 and losses[1] <= 1e-12
    assert losses[2] > 1e-3  # midpoint strictly worse: the loss is not convex


def test_grad_fair_zero_at_self_target():
    rng = np.random.default_rng(8)
    _, groups, cfg, P = random_instance(rng, 10, 3)
    scores = group_scores(pagerank_power(P, cfg), groups)
    gr = grad_fair(P, cfg, groups, FairnessTarget(phi=scores))
    assert gr.shape == (P.nnz,) and np.abs(gr).max() == 0.0


def test_grad_fair_excludes_sink_rows():
    g = load_graph("0 1\n1 0\n0 2")  # vertex 2 is a sink
    cfg = PageRankConfig.uniform(3, GAMMA)
    P = build_transition(g, cfg)
    groups = load_labels("0 0\n1 1\n2 1", 3)
    gr = grad_fair(P, cfg, groups, FairnessTarget(phi=[0.9, 0.1]))
    assert gr.shape == (P.nnz,) and (P.entry_rows() != 2).all()


def test_grad_fair_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(6):
        n = int(rng.integers(5, 11))
        K = int(rng.choice([2, 3]))
        _, groups, cfg, P = random_instance(rng, n, K)
        target = random_target(rng, K)
        gr = grad_fair(P, cfg, groups, target, t1=400, t2=200, tol=1e-14)
        rows = P.entry_rows()
        for idx in range(len(gr)):
            a = gr[idx]
            if abs(a) <= 1e-8:
                continue
            fd = fd_gradient_entry(P, groups, target.phi, [cfg], rows[idx], P.indices[idx])
            assert abs(fd - a) / abs(a) <= 1e-4


def test_grad_group_adapted_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(4):
        n = int(rng.integers(5, 11))
        K = int(rng.choice([2, 3]))
        _, groups, cfg, P = random_instance(rng, n, K)
        target = random_target(rng, K)
        gr = grad_group_adapted(P, GAMMA, groups, target, t1=400, t2=200, tol=1e-14)
        restarts = [PageRankConfig.group_restart(groups, ell, GAMMA) for ell in range(K)]
        rows = P.entry_rows()
        for idx in range(len(gr)):
            a = gr[idx]
            if abs(a) <= 1e-8:
                continue
            fd = fd_gradient_entry(P, groups, target.phi, restarts, rows[idx], P.indices[idx])
            assert abs(fd - a) / abs(a) <= 1e-4


def test_grad_fair_two_group_identity():
    # with K=2 the residuals are negatives of each other, so the gradient
    # collapses to (2(1-gamma)/2) resid_0 p (y_0 - y_1)'
    rng = np.random.default_rng(14)
    _, groups, cfg, P = random_instance(rng, 9, 2)
    target = random_target(rng, 2)
    gr = grad_fair(P, cfg, groups, target, t1=400, t2=120, tol=1e-14)
    p = pagerank_power(P, cfg, t1=400, tol=1e-14)
    resid0 = float(group_scores(p, groups)[0] - target.phi[0])
    y0 = neumann_y(P, groups.indicator(0), GAMMA, 120)
    y1 = neumann_y(P, groups.indicator(1), GAMMA, 120)
    expect = (1 - GAMMA) * resid0 * p[P.entry_rows()] * (y0 - y1)[P.indices]
    assert np.abs(gr - expect).max() <= 1e-9


def test_grad_group_adapted_is_mean_of_restart_grads():
    rng = np.random.default_rng(15)
    _, groups, cfg, P = random_instance(rng, 8, 2)
    target = random_target(rng, 2)
    ga = grad_group_adapted(P, GAMMA, groups, target, t1=400, t2=120, tol=1e-14)
    acc = np.zeros_like(ga)
    for ell in range(groups.K):
        g_ell = grad_fair(
            P, PageRankConfig.group_restart(groups, ell, GAMMA), groups, target, t1=400, t2=120, tol=1e-14
        )
        acc += g_ell
    assert np.abs(ga - acc / groups.K).max() <= 1e-12
    restarts = [PageRankConfig.group_restart(groups, ell, GAMMA) for ell in range(groups.K)]
    la = loss_group_adapted(P, GAMMA, groups, target, t1=400, tol=1e-14)
    mean = sum(loss_fair(P, c, groups, target, t1=400, tol=1e-14) for c in restarts) / groups.K
    assert abs(la - mean) <= 1e-15 * mean


def test_terms_sum_to_the_gradients_bitwise():
    # the kernel's coefficients and terms are the explicit formula with each
    # y_k summed once, and summed at a fixed matrix they are the gradients
    rng = np.random.default_rng(21)
    for K in (2, 3):
        _, groups, cfg, P = random_sinky_instance(rng, 14, K)
        target = random_target(rng, K)
        rows, cols = P.entry_rows(), P.indices
        ys = [neumann_y(P, groups.indicator(k), GAMMA, 40)[cols] for k in range(K)]
        group_restarts = [PageRankConfig.group_restart(groups, ell, GAMMA) for ell in range(K)]
        for restarts, gr in (
            ([cfg], grad_fair(P, cfg, groups, target, t2=40)),
            (group_restarts, grad_group_adapted(P, GAMMA, groups, target, t2=40)),
        ):
            c0 = 2.0 * (1.0 - GAMMA) / (K * len(restarts))
            want, summed = np.zeros(P.nnz), np.zeros(P.nnz)
            for c in restarts:
                p = pagerank_power(P, c)
                resid = group_scores(p, groups) - target.phi
                coefs = []
                s = group_scores(p, groups)
                for coef, term in _terms(P, p, s, 1.0, restarts, target.phi, 40, rows, cols, _indicators(groups)):
                    coefs.append(coef)
                    summed += term
                assert coefs == [c0 * resid[k] for k in range(K)]
                for k in range(K):
                    want += (c0 * resid[k]) * p[rows] * ys[k]
            assert np.array_equal(summed, gr)
            assert np.array_equal(want, gr)


def test_group_adapted_loss_and_evaluation_match_per_restart_solves_bitwise():
    """The loss and the evaluation solve their restarts in one block; each is
    bitwise the composition of one solve per restart (the gradient's
    composition is checked in test_terms_sum_to_the_gradients_bitwise)."""
    from fairpr.experiment import EVAL_T1, EVAL_TOL, evaluate_matrices
    from fairpr.loss import _mean_loss
    from fairpr.metrics import rho_bar

    rng = np.random.default_rng(23)
    for case in range(6):
        make = random_sinky_instance if case % 2 else random_instance
        K = 2 + case % 3
        _, groups, cfg, P = make(rng, int(rng.integers(12, 30)), K)
        target = random_target(rng, K)
        restarts = [PageRankConfig.group_restart(groups, ell, GAMMA) for ell in range(K)]
        ps = [pagerank_power(P, c) for c in restarts]
        want = float(_mean_loss(np.stack([group_scores(p, groups) for p in ps]), target.phi))
        assert loss_group_adapted(P, GAMMA, groups, target) == want

        # a revised matrix: the same pattern, other weights
        rows = P.entry_rows()
        W = P.data * rng.uniform(0.5, 1.5, P.nnz)
        new = P.with_data(W / np.bincount(rows, weights=W, minlength=P.n)[rows])
        bundle, _, scores = evaluate_matrices(P, new, GAMMA, groups, target)
        p_new = pagerank_power(new, cfg, t1=EVAL_T1, tol=EVAL_TOL)
        assert np.array_equal(scores, group_scores(p_new, groups))
        assert bundle.loss == loss_from_scores(group_scores(p_new, groups), target.phi)
        assert bundle.loss_group_adapted == float(
            _mean_loss(
                np.stack([group_scores(pagerank_power(new, c, t1=EVAL_T1, tol=EVAL_TOL), groups) for c in restarts]),
                target.phi,
            )
        )
        assert bundle.rho_bar == rho_bar(pagerank_power(P, cfg, t1=EVAL_T1, tol=EVAL_TOL), p_new, groups)


def _stochastic_copies(rng, P, C):
    """C row-stochastic weightings of P's pattern, one per row."""
    rows = P.entry_rows()
    W = P.data * rng.uniform(0.2, 1.8, size=(C, P.nnz))
    return np.stack([w / np.bincount(rows, weights=w, minlength=P.n)[rows] for w in W])


def test_terms_over_stacked_copies_match_each_copy_alone_bitwise():
    rng = np.random.default_rng(22)
    _, groups, _, P = random_sinky_instance(rng, 15, 3)
    target = random_target(rng, 3)
    restarts = [PageRankConfig.group_restart(groups, ell, GAMMA) for ell in range(3)]
    rows, cols = P.entry_rows(), P.indices
    W = _stochastic_copies(rng, P, 4)
    scale = np.array([1e-2, 0.5, 3.0, 40.0])
    op = WalkOperator(P, W)
    p = pagerank_power(op, restarts[1])
    shared = _indicators(groups)
    assert all(np.array_equal(shared[k], groups.indicator(k)) for k in range(3))
    # the series starts shared by the copies, and one per copy as the descent holds them
    for starts in (shared, np.repeat(shared[:, None], len(W), axis=1)):
        block = list(_terms(op, p, group_scores(p, groups), scale, restarts, target.phi, 30, rows, cols, starts))
        assert len(block) == 3
        for c in range(len(W)):
            one = P.with_data(W[c])
            s = group_scores(p[c], groups)
            alone = list(_terms(one, p[c], s, scale[c], restarts, target.phi, 30, rows, cols, shared))
            assert len(alone) == len(block)
            for (coefs, terms), (coef, term) in zip(block, alone):
                assert coefs[c] == coef
                assert np.array_equal(terms[c], term)


def test_terms_see_weights_moved_between_terms():
    # the descent subtracts each term before it asks for the next one, and
    # gets it at the moved weights
    rng = np.random.default_rng(23)
    _, groups, cfg, P = random_sinky_instance(rng, 15, 3)
    target = random_target(rng, 3)
    rows, cols = P.entry_rows(), P.indices
    W = _stochastic_copies(rng, P, 2)
    scale = np.array([0.5, 2.0])
    p = pagerank_power(WalkOperator(P, W), cfg)

    s, starts = group_scores(p, groups), _indicators(groups)

    def second_term(weights):
        terms = _terms(WalkOperator(P, weights), p, s, scale, [cfg], target.phi, 30, rows, cols, starts)
        next(terms)
        return next(terms)

    stale = second_term(W.copy())
    terms = _terms(WalkOperator(P, W), p, s, scale, [cfg], target.phi, 30, rows, cols, starts)
    W -= next(terms)[1]
    coef, term = next(terms)
    want_coef, want = second_term(W.copy())
    assert np.array_equal(coef, want_coef) and np.array_equal(term, want)
    assert not np.array_equal(term, stale[1])


TARGET_ENTRY_POINTS = {
    "loss_fair": lambda P, cfg, groups, target: loss_fair(P, cfg, groups, target),
    "loss_group_adapted": lambda P, cfg, groups, target: loss_group_adapted(P, GAMMA, groups, target),
    "grad_fair": lambda P, cfg, groups, target: grad_fair(P, cfg, groups, target),
    "grad_group_adapted": lambda P, cfg, groups, target: grad_group_adapted(P, GAMMA, groups, target),
    "fair_gd": lambda P, cfg, groups, target: fair_gd(P, cfg, groups, target, OptimizerConfig(max_iters=1)),
    "adapt_gd": lambda P, cfg, groups, target: adapt_gd(P, GAMMA, groups, target, OptimizerConfig(max_iters=1)),
    "fairwalk": lambda P, cfg, groups, target: fairwalk(P, groups, target),
    "lfpr_n": lambda P, cfg, groups, target: lfpr_n(P, groups, target),
    "lfpr_u": lambda P, cfg, groups, target: lfpr_u(P, groups, target),
}


@pytest.mark.parametrize("entry", TARGET_ENTRY_POINTS)
def test_a_target_of_other_than_K_scores_is_refused(karate, entry):
    """Every entry point that takes a target refuses one whose length is not
    the group count, naming both, before any work: a shorter target would
    score one group against nothing, a longer one would drop entries."""
    _, groups, cfg, P = karate
    assert groups.K == 2
    call = TARGET_ENTRY_POINTS[entry]
    for phi in ([1.0], [0.2, 0.3, 0.5]):
        with pytest.raises(ValueError, match=f"^target has {len(phi)} group scores for K = 2 groups$"):
            call(P, cfg, groups, FairnessTarget(phi=phi))
    call(P, cfg, groups, FairnessTarget(phi=[0.3, 0.7]))  # K scores pass


def test_lipschitz_bound_values():
    assert abs(lipschitz_bound(4, 2, 0.15) - 283.49) <= 0.01
    lead = 2 * 0.7225 / (3 * 0.0225)
    books = lead * (105 + np.sqrt(105) + np.sqrt(315))
    assert abs(lipschitz_bound(105, 3, 0.15) - books) <= 1e-9


def test_lipschitz_bound_vanishes_as_gamma_to_one():
    assert lipschitz_bound(1, 1, 1 - 1e-9) < 1e-8


def test_lipschitz_bound_is_inf_once_gamma_squared_underflows():
    # K gamma^2 is 0.0 in floats: C is unbounded and the safe step 2/C is 0
    assert lipschitz_bound(34, 2, 1e-300) == math.inf
    assert 2.0 / lipschitz_bound(34, 2, 1e-300) == 0.0
    # just above the underflow the formula still gives a finite value
    assert math.isfinite(lipschitz_bound(34, 2, 1e-150))


def test_lipschitz_bound_value_bitwise_unchanged():
    """The value is the formula's as first written, to the bit, at the
    default gamma (a reordering such as ((1-gamma)/gamma)^2 moves it an ulp)."""
    for n, K, gamma in ((34, 2, 0.15), (250, 2, 0.15), (105, 3, 0.15), (4, 2, 0.5), (1000, 5, 1e-100)):
        lead = 2.0 * (1.0 - gamma) ** 2 / (K * gamma * gamma)
        assert lipschitz_bound(n, K, gamma) == lead * (n + math.sqrt(n) + math.sqrt(K * n))


def test_lipschitz_bound_validation():
    with pytest.raises(ValueError):
        lipschitz_bound(0, 1, 0.15)
    with pytest.raises(ValueError):
        lipschitz_bound(4, 2, 1.5)
