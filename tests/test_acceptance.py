"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Every tolerance is fixed here, not tuned at runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    DATA_DIR,
    mind_like_instance,
    random_instance,
    random_sinky_instance,
    random_target,
)
from fairpr import (
    BoxBounds,
    FairnessTarget,
    OptimizerConfig,
    PageRankConfig,
    TransitionMatrix,
    adapt_gd,
    build_transition,
    delta_p,
    fair_gd,
    fairwalk,
    grad_fair,
    grad_group_adapted,
    group_scores,
    lfpr_n,
    lfpr_u,
    load_graph,
    load_labels,
    loss_fair,
    neumann_y,
    pagerank_direct,
    pagerank_power,
    project_simplex,
    project_simplex_box,
    rho_bar,
    spearman,
)
from fairpr.loss import loss_from_scores
from test_loss import fd_gradient_entry
from test_projection import oracle_box, oracle_simplex, random_box

GAMMA = 0.15


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} -- {detail}"


def test_criterion_01_pagerank_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        _, _, cfg, P = random_sinky_instance(rng, n, 2)
        pp = pagerank_power(P, cfg, t1=600, tol=1e-13)
        pd = pagerank_direct(P, cfg)
        worst = max(worst, float(np.abs(pp - pd).max()))
    elapsed = time.perf_counter() - started
    report(
        1,
        "pagerank power vs direct solve",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst Linf {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_nonconvexity_fixture():
    P1 = TransitionMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    P2 = TransitionMatrix.from_dense([[0, 0, 1], [0, 0, 1], [1, 0, 0]])
    P3 = TransitionMatrix.from_dense((P1.to_dense() + P2.to_dense()) / 2.0)
    cfg = PageRankConfig.uniform(3, GAMMA)
    a = (GAMMA**2 - 3 * GAMMA + 3) / (3 * (2 - GAMMA))
    b = (3 - 2 * GAMMA) / (3 * (2 - GAMMA))
    closed = {
        "P1": np.array([a, b, GAMMA / 3]),
        "P2": np.array([a, GAMMA / 3, b]),
        "P3": np.full(3, 1.0 / 3.0),
    }
    worst = 0.0
    for name, M in (("P1", P1), ("P2", P2), ("P3", P3)):
        p = pagerank_power(M, cfg, t1=600, tol=1e-15)
        worst = max(worst, float(np.abs(p - closed[name]).max()))
    groups = load_labels("0 0\n1 1\n2 1", 3)
    target = FairnessTarget(phi=[a, 1 - a])
    losses = [loss_fair(M, cfg, groups, target, t1=600, tol=1e-15) for M in (P1, P2, P3)]
    ok = worst <= 1e-9 and losses[0] <= 1e-12 and losses[1] <= 1e-12 and losses[2] > 1e-12
    report(
        2,
        "closed-form vectors and non-convexity witness",
        ok,
        f"worst vec err {worst:.2e}, losses {losses[0]:.1e}/{losses[1]:.1e}/{losses[2]:.3e}",
    )


def test_criterion_03_neumann_truncation_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 101))
        _, groups, _, P = random_instance(rng, n, 2)
        ind = groups.indicator(int(rng.integers(2)))
        y = neumann_y(P, ind, GAMMA, t2=50)
        exact = np.linalg.solve(np.eye(P.n) - (1 - GAMMA) * P.to_dense(), ind)
        worst = max(worst, float(np.linalg.norm(y - exact) / np.linalg.norm(exact)))
    elapsed = time.perf_counter() - started
    report(
        3,
        "50-term series truncation error",
        worst <= 3e-4 and elapsed < 5.0,
        f"worst rel L2 {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    checked = 0
    for trial in range(20):
        n = int(rng.integers(5, 11))
        K = int(rng.choice([2, 3]))
        _, groups, cfg, P = random_instance(rng, n, K)
        target = random_target(rng, K)
        if trial % 2 == 0:
            gr = grad_fair(P, cfg, groups, target, t1=400, t2=200, tol=1e-14)
            restarts = [cfg]
        else:
            gr = grad_group_adapted(P, GAMMA, groups, target, t1=400, t2=200, tol=1e-14)
            restarts = [PageRankConfig.group_restart(groups, ell, GAMMA) for ell in range(K)]
        for idx in range(len(gr.values)):
            a = gr.values[idx]
            if abs(a) <= 1e-8:
                continue
            fd = fd_gradient_entry(P, groups, target.phi, restarts, gr.rows[idx], gr.cols[idx], h=1e-6)
            worst = max(worst, abs(fd - a) / abs(a))
            checked += 1
    elapsed = time.perf_counter() - started
    report(
        4,
        "analytic gradients vs central differences",
        worst <= 1e-4 and elapsed < 30.0,
        f"worst rel {worst:.2e} over {checked} entries, {elapsed:.1f}s",
    )


def test_criterion_05_projection_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst = 0.0
    idem_ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        s = rng.normal(0, 1, d) if rng.random() < 0.5 else rng.uniform(0, 2, d)
        if d >= 2:
            got = project_simplex(s)
            worst = max(worst, float(np.abs(got - oracle_simplex(s)).max()))
            idem_ok = idem_ok and np.array_equal(project_simplex(got), got)
        box = random_box(rng, d)
        got = project_simplex_box(s, box)
        worst = max(worst, float(np.abs(got - oracle_box(s, box.lower, box.upper)).max()))
        idem_ok = idem_ok and np.array_equal(project_simplex_box(got, box), got)
    elapsed = time.perf_counter() - started
    report(
        5,
        "projections vs brute-force oracles",
        worst <= 1e-8 and idem_ok and elapsed < 10.0,
        f"worst gap {worst:.2e}, idempotent: {idem_ok}, {elapsed:.1f}s",
    )


def test_criterion_06_safe_step_monotone_descent():
    rng = np.random.default_rng(1006)
    worst_rise = 0.0
    for _ in range(10):
        n = int(rng.integers(8, 51))
        K = int(rng.choice([2, 3]))
        _, groups, cfg, P = random_instance(rng, n, K)
        target = random_target(rng, K)
        opt = OptimizerConfig(alpha_auto=True, max_iters=60, kappa=0.0, t1=200, power_tol=1e-14)
        rep = fair_gd(P, cfg, groups, target, opt)
        tr = np.asarray(rep.loss_trace)
        worst_rise = max(worst_rise, float((tr[1:] - tr[:-1]).max()))
    report(
        6,
        "alpha = 2/C gives non-increasing loss traces",
        worst_rise <= 1e-12,
        f"worst rise {worst_rise:.2e}",
    )


def test_criterion_07_table1_group_scores():
    books_e = DATA_DIR / "books_edges.txt"
    books_l = DATA_DIR / "books_labels.txt"
    blogs_e = DATA_DIR / "blogs_edges.txt"
    blogs_l = DATA_DIR / "blogs_labels.txt"
    missing = [p.name for p in (books_e, books_l, blogs_e, blogs_l) if not p.exists()]
    if missing:
        report(
            7,
            "political-books/blogs group scores",
            False,
            "datasets not bundled (no redistribution here) and this environment "
            f"has no network access; run scripts/fetch_datasets.py to create {missing}",
        )
    cases = [
        ("books", books_e, books_l, True, np.array([0.42, 0.10, 0.48])),
        ("blogs", blogs_e, blogs_l, False, np.array([0.48, 0.52])),
    ]
    detail = []
    ok = True
    for name, epath, lpath, undirected, phi_o in cases:
        g = load_graph(epath.read_text(), undirected=undirected)
        groups = load_labels(lpath.read_text(), g.n)
        cfg = PageRankConfig.uniform(g.n, GAMMA)
        P = build_transition(g, cfg)
        scores = group_scores(pagerank_power(P, cfg, t1=600, tol=1e-13), groups)
        gap = float(np.abs(scores - phi_o).max())
        ok = ok and gap <= 0.01
        detail.append(f"{name} scores {np.round(scores, 3)} gap {gap:.3f}")
    report(7, "political-books/blogs group scores", ok, "; ".join(detail))


def test_criterion_08_karate_fixture(karate):
    started = time.perf_counter()
    g, groups, cfg, P = karate
    target = FairnessTarget(phi=[0.1, 0.9])
    opt = OptimizerConfig()

    def scores(M):
        return group_scores(pagerank_power(M, cfg, t1=600, tol=1e-13), groups)

    checks = [("original", scores(P), np.array([0.52, 0.48]), 0.01)]

    rep_fair = fair_gd(P, cfg, groups, target, opt)
    checks.append(("fairgd", scores(rep_fair.final_matrix), np.array([0.12, 0.88]), 0.05))

    rep_res = fair_gd(P, cfg, groups, target, replace(opt, delta=0.1, epsilon=0.1))
    checks.append(("fairgd(0.1,0.1)", scores(rep_res.final_matrix), np.array([0.22, 0.78]), 0.05))

    rep_adapt = adapt_gd(P, GAMMA, groups, target, opt)
    checks.append(("adaptgd", scores(rep_adapt.final_matrix), np.array([0.13, 0.87]), 0.05))

    for fn, name in ((lfpr_n, "lfpr_n"), (lfpr_u, "lfpr_u")):
        checks.append((name, scores(fn(P, groups, target).matrix), np.array([0.16, 0.84]), 0.03))

    details = []
    ok = True
    for name, got, want, tol in checks:
        gap = float(np.abs(np.asarray(got) - want).max())
        ok = ok and gap <= tol
        details.append(f"{name} {np.round(np.asarray(got), 3)} (tol {tol})")
    dp_full = delta_p(rep_fair.final_matrix, P)
    dp_restricted = delta_p(rep_res.final_matrix, P)
    ok = ok and dp_restricted < dp_full
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    details.append(f"dP {dp_restricted:.3f} < {dp_full:.3f}, {elapsed:.0f}s")
    report(8, "karate-club endpoint scores", ok, "; ".join(details))


def test_criterion_09_perfect_local_fairness():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 30))
        _, groups, _, P = random_sinky_instance(rng, n, 2)
        phi0 = float(rng.uniform(0.1, 0.9))
        target = FairnessTarget(phi=[phi0, 1 - phi0])
        v = np.empty(P.n)
        for k in range(2):
            v[groups.members(k)] = target.phi[k] / groups.group_sizes[k]
        cfg_fair = PageRankConfig(GAMMA, v)
        for fn in (lfpr_n, lfpr_u):
            M = fn(P, groups, target).matrix
            p = pagerank_power(M, cfg_fair, t1=400, tol=1e-14)
            worst = max(worst, loss_from_scores(group_scores(p, groups), target.phi))
    report(9, "locally fair baselines reach zero loss", worst <= 1e-8, f"worst loss {worst:.2e}")


def test_criterion_10_restricted_feasibility():
    rng = np.random.default_rng(1010)
    ok = True
    details = []
    for trial in range(6):
        n = int(rng.integers(8, 30))
        _, groups, cfg, P = random_sinky_instance(rng, n, 2)
        target = random_target(rng, 2)
        delta = 0.2
        live = np.flatnonzero(~P.sink_mask[P.entry_rows()])
        epsilon = float(0.5 * (1 - delta) * P.data[live].min())
        assert (1 - delta) * P.data[live].min() - epsilon > 0
        opt = OptimizerConfig(alpha=0.3, max_iters=60, delta=delta, epsilon=epsilon)
        rep = (fair_gd(P, cfg, groups, target, opt) if trial % 2 == 0
               else adapt_gd(P, GAMMA, groups, target, opt))
        M = rep.final_matrix
        box = BoxBounds.from_reference(P.data[live], delta, epsilon)
        in_box = (M.data[live] >= box.lower - 1e-15).all() and (M.data[live] <= box.upper + 1e-15).all()
        sums_ok = float(np.abs(M.row_sums() - 1.0).max()) <= 1e-12
        no_deletion = (M.data[live] > 0.0).all()
        ok = ok and in_box and sums_ok and no_deletion
        if not (in_box and sums_ok and no_deletion):
            details.append(f"trial {trial}: box={in_box} sums={sums_ok} positive={no_deletion}")
    report(10, "restricted runs stay inside their boxes", ok, "; ".join(details) or "6 runs clean")


def test_criterion_11_rank_preservation_dominance():
    g, groups, cfg, P = mind_like_instance(seed=7, n=250)
    p_old = pagerank_power(P, cfg, t1=600, tol=1e-13)
    ok = True
    details = []
    for phi0 in (0.2, 0.3):
        target = FairnessTarget(phi=[phi0, 1 - phi0])
        rep = fair_gd(P, cfg, groups, target, OptimizerConfig(max_iters=400))
        p_new = pagerank_power(rep.final_matrix, cfg, t1=600, tol=1e-13)
        rb_ours = rho_bar(p_old, p_new, groups)
        rows = [f"phi={phi0} fairgd {rb_ours:.3f}"]
        for fn in (fairwalk, lfpr_n, lfpr_u):
            M = fn(P, groups, target).matrix
            rb = rho_bar(p_old, pagerank_power(M, cfg, t1=600, tol=1e-13), groups)
            ok = ok and rb_ours > rb
            rows.append(f"{fn.__name__} {rb:.3f}")
        details.append(" ".join(rows))
    report(11, "within-group rank preservation dominance", ok, "; ".join(details))


def test_criterion_12_metric_fixtures():
    s = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    A = TransitionMatrix.from_dense([[0, 1], [1, 0]])
    B = TransitionMatrix.from_dense([[0, 1], [0.5, 0.5]])
    d0 = delta_p(A, A)
    d1 = delta_p(B, A)
    ok = s == 0.8 and d0 == 0.0 and abs(d1 - 0.5) <= 1e-12
    report(12, "metric fixtures exact", ok, f"spearman {s}, delta_p {d0}/{d1}")
