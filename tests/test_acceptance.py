"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance and scale is pinned here; run with ``pytest -v`` (add ``-s``
to see the per-criterion lines as they complete).
"""

import time

import numpy as np

from helpers import REPORTED_BUDGETS, REPORTED_C_STAR, random_feasible_profile, undirected_game
from katzforge import (
    AllocationProfile,
    BrdConfig,
    Scheduler,
    best_response,
    check_cycle_parity,
    check_hierarchy,
    check_scc_uniformity,
    equilibrium_centralities,
    generate_random_instance,
    is_nash,
    katz_solve,
    run_brd,
    scc_condensation,
    v_map,
    walk_decomposition,
)
from katzforge.instance import topology_from_edges, GameInstance
from oracles import (
    best_response_oracle,
    fractional_linear_centrality,
    katz_series,
    series_pq,
    series_tail_bound,
)


def _report(num, name, elapsed, violations, detail=""):
    status = "PASS" if not violations else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{tail} ({elapsed:.2f}s)", flush=True)
    assert not violations, f"criterion {num}: {violations[:5]}"


def _complete_instance(budgets):
    n = len(budgets)
    return GameInstance(
        topology_from_edges(n, [(i, j) for i in range(n) for j in range(n)]), budgets
    )


def test_c01_complete_topology_closed_form():
    t0 = time.perf_counter()
    violations = []
    worst = 0.0
    for seed in range(1, 51):
        n = 2 + (seed % 29)  # n <= 30
        g = generate_random_instance(n, 1.0, True, (0.05, 0.95), seed)
        cert = equilibrium_centralities(g, tol=1e-10)
        dev = float(np.max(np.abs(cert.c_star - g.budget_array / (1.0 - g.b_max))))
        worst = max(worst, dev)
        if dev > 1e-9:
            violations.append((seed, dev))
    elapsed = time.perf_counter() - t0
    _report(1, "complete-topology closed form", elapsed, violations,
            f"max dev {worst:.2e} over 50 instances")
    assert elapsed < 1.0


def test_c02_reported_complete_experiment():
    t0 = time.perf_counter()
    violations = []
    g = _complete_instance(REPORTED_BUDGETS)
    cfg = BrdConfig(scheduler=Scheduler.uniform_random(1), tol=1e-9)
    trace = run_brd(g, AllocationProfile.zeros(10), cfg)
    if not trace.converged:
        violations.append("BRD did not converge")
    c = trace.steps[-1].centralities
    rel = float(np.max(np.abs(c - REPORTED_C_STAR) / REPORTED_C_STAR))
    if rel > 0.05:
        violations.append(f"relative deviation {rel} from reported vector")
    ratios = c / g.budget_array
    spread = float(np.max(ratios) - np.min(ratios))
    if spread > 1e-9:
        violations.append(f"c_i/B_i spread {spread}")
    elapsed = time.perf_counter() - t0
    _report(2, "reported complete-topology experiment", elapsed, violations,
            f"rel dev {rel:.3f}, ratio spread {spread:.1e}")
    assert elapsed < 1.0


def test_c03_brd_monotone_convergence():
    t0 = time.perf_counter()
    violations = []
    for seed in range(1, 101):
        n = 2 + (seed % 14)  # n <= 15
        density = 0.2 + 0.8 * ((seed * 37) % 100) / 100
        g = generate_random_instance(n, density, seed % 2 == 0, (0.1, 0.85), seed)
        for sched in (Scheduler.round_robin(), Scheduler.uniform_random(seed)):
            trace = run_brd(g, AllocationProfile.zeros(n), BrdConfig(scheduler=sched, tol=1e-8))
            if not trace.converged or trace.total_steps > 500 * n:
                violations.append((seed, sched.kind, "no convergence in 500n steps"))
            hist = np.array([s.centralities for s in trace.steps])
            if not np.all(np.diff(hist, axis=0) >= -1e-12):
                violations.append((seed, sched.kind, "non-monotone centralities"))
    elapsed = time.perf_counter() - t0
    _report(3, "BRD monotone convergence", elapsed, violations,
            "100 instances x 2 schedulers")
    assert elapsed < 30.0


def test_c04_equilibrium_uniqueness_across_schedules():
    t0 = time.perf_counter()
    tol = 1e-9
    violations = []
    for seed in range(1, 26):
        n = 2 + (seed % 11)
        g = generate_random_instance(n, 0.3 + 0.07 * (seed % 10), seed % 3 == 0, (0.1, 0.85), seed)
        combos = [
            (Scheduler.round_robin(), AllocationProfile.zeros(n)),
            (Scheduler.uniform_random(seed + 1), AllocationProfile.zeros(n)),
            (Scheduler.round_robin(), random_feasible_profile(g, seed + 2)),
            (Scheduler.uniform_random(seed + 3), random_feasible_profile(g, seed + 4)),
        ]
        finals = []
        for sched, w0 in combos:
            trace = run_brd(g, w0, BrdConfig(scheduler=sched, tol=tol))
            if not trace.converged:
                violations.append((seed, sched.kind, "no convergence"))
            finals.append(trace.steps[-1].centralities)
        for a in range(4):
            for b in range(a + 1, 4):
                gap = float(np.max(np.abs(finals[a] - finals[b])))
                if gap > 1e-7:
                    violations.append((seed, a, b, gap))
    elapsed = time.perf_counter() - t0
    _report(4, "equilibrium uniqueness across schedules/initials", elapsed, violations,
            "25 instances x 4 combos pairwise within 1e-7")
    assert elapsed < 30.0


def test_c05_modified_brd_finite_termination():
    t0 = time.perf_counter()
    tol = 1e-10
    violations = []
    step_counts = []
    for seed in range(1, 101):
        n = 2 + (seed % 9)  # n <= 10
        g = generate_random_instance(n, 0.2 + 0.75 * (seed % 7) / 7, seed % 2 == 1, (0.1, 0.85), seed)
        w0 = AllocationProfile.zeros(n) if seed % 2 else random_feasible_profile(g, seed + 11)
        trace = run_brd(g, w0, BrdConfig(mode="modified", tol=tol))
        step_counts.append(trace.total_steps)
        if not trace.converged:
            violations.append((seed, "did not terminate"))
        if not is_nash(g, trace.terminal, tol=tol).is_nash:
            violations.append((seed, "terminal profile not Nash"))
        for prev, step in zip(trace.steps, trace.steps[1:]):
            if not step.centralities[step.agent] > prev.centralities[step.agent]:
                violations.append((seed, step.step, "no strict increase"))
    elapsed = time.perf_counter() - t0
    _report(5, "modified BRD finite termination", elapsed, violations,
            f"100 instances, steps min/max {min(step_counts)}/{max(step_counts)}")
    assert elapsed < 10.0


def test_c06_best_response_strategy_equivalence():
    t0 = time.perf_counter()
    violations = []
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = 2 + (trial % 11)  # n <= 12
        g = generate_random_instance(n, 0.2 + 0.8 * ((trial * 13) % 50) / 50,
                                     trial % 2 == 0, (0.1, 0.85), trial)
        w = random_feasible_profile(g, trial + 10_000)
        i = int(rng.integers(n))
        a = best_response(walk_decomposition(g, w, i))
        b = best_response_oracle(g, i, w)
        if a.argmax_set != b.argmax_set:
            violations.append((trial, i, a.argmax_set, b.argmax_set))
        elif abs(a.achieved_value - b.achieved_value) > 1e-9:
            violations.append((trial, i, a.achieved_value, b.achieved_value))
    elapsed = time.perf_counter() - t0
    _report(6, "best-response strategy equivalence", elapsed, violations, "1000 triples")
    assert elapsed < 60.0


def test_c07_centrality_identities():
    t0 = time.perf_counter()
    violations = []
    depths = (2, 5, 12, 30)
    for trial in range(1000):
        n = 2 + (trial % 19)  # n <= 20
        g = generate_random_instance(n, 0.25 + 0.75 * ((trial * 7) % 40) / 40,
                                     trial % 3 == 0, (0.1, 0.85), trial + 50_000)
        w = random_feasible_profile(g, trial + 60_000)
        c = katz_solve(w)

        # interdependence identity c_i = sum_j w_ij (1 + c_j)
        if np.max(np.abs(c - w.weights @ (1.0 + c))) > 1e-10:
            violations.append((trial, "interdependence"))

        # fractional-linear equivalence and denominator positivity, per agent
        for i in range(n):
            wd = walk_decomposition(g, w, i)
            denom = 1.0 - float(wd.q @ w.weights[i])
            if denom <= 0.0:
                violations.append((trial, i, "denominator"))
            if abs(fractional_linear_centrality(w.weights[i], wd) - c[i]) > 1e-10:
                violations.append((trial, i, "fractional-linear"))

        # truncated series vs solver, entrywise tail bound
        bm = float(np.max(w.weights.sum(axis=1)))
        for depth in depths:
            gap = float(np.max(np.abs(katz_series(w, depth) - c)))
            if gap > series_tail_bound(bm, depth) + 1e-12:
                violations.append((trial, depth, "series tail"))
    elapsed = time.perf_counter() - t0
    _report(7, "centrality identities", elapsed, violations,
            "1000 profiles x {interdependence, eq-6, positivity, series}")


def test_c08_walk_decomposition_oracle():
    t0 = time.perf_counter()
    violations = []
    worst = 0.0
    for seed in range(60):
        n = 2 + (seed % 4)  # n <= 5
        g = generate_random_instance(n, 0.3 + 0.7 * (seed % 5) / 5, seed % 2 == 0,
                                     (0.1, 0.6), seed)  # B_M <= 0.6
        w = random_feasible_profile(g, seed + 7_000)
        tail = series_tail_bound(0.6, 60)  # 3.3e-14, inside the 1e-12 budget
        for i in range(n):
            p_ref, q_ref = series_pq(w.weights, i, depth=60)
            wd = walk_decomposition(g, w, i)
            for j in range(n):
                if j == i:
                    continue
                dev = max(abs(wd.p[j] - p_ref[j]), abs(wd.q[j] - q_ref[j]))
                worst = max(worst, dev)
                if dev > 1e-12:
                    violations.append((seed, i, j, dev))
        assert tail < 1e-12
    elapsed = time.perf_counter() - t0
    _report(8, "walk-decomposition vs depth-60 walk accumulation", elapsed, violations,
            f"max dev {worst:.2e}")


def test_c09_structure_theorems_at_nash():
    t0 = time.perf_counter()
    violations = []
    sink_checked = 0
    cases = []
    for seed in range(1, 101):  # 100 random self-loop instances
        n = 2 + (seed % 14)
        cases.append(generate_random_instance(n, 0.15 + 0.8 * (seed % 6) / 6, True,
                                              (0.1, 0.85), seed + 90_000))
    for seed in range(1, 51):  # 50 random undirected instances
        cases.append(undirected_game(seed, n_min=3, n_max=10, self_loops=True))

    for idx, g in enumerate(cases):
        trace = run_brd(g, AllocationProfile.zeros(g.n), BrdConfig(mode="modified"))
        if not trace.converged:
            violations.append((idx, "no NE found"))
            continue
        ne = trace.terminal
        c = katz_solve(ne)
        for check in (check_hierarchy, check_scc_uniformity, check_cycle_parity):
            result = check(g, ne, centralities=c)
            if result.status == "fail":
                violations.append((idx, result.name, result.witnesses[:2]))
        cond = scc_condensation(ne, budgets=g.budgets, centralities=c)
        top = int(np.argmax(c))
        if not next(comp for comp in cond.components if top in comp.members).is_sink:
            violations.append((idx, "max centrality outside sink component"))
        sink_checked += 1
    elapsed = time.perf_counter() - t0
    _report(9, "structure theorems at certified NE", elapsed, violations,
            f"{sink_checked} equilibria, hierarchy/scc/parity/sink")


def test_c10_contraction_property():
    t0 = time.perf_counter()
    violations = []
    rng = np.random.default_rng(99)
    for k in range(10):
        n = 3 + k
        g = generate_random_instance(n, 0.5, k % 2 == 0, (0.1, 0.9), k + 123)
        bm = g.b_max
        for _ in range(1000):
            x = rng.uniform(0.0, 10.0, n)
            y = rng.uniform(0.0, 10.0, n)
            lhs = float(np.max(np.abs(v_map(g, x) - v_map(g, y))))
            rhs = bm * float(np.max(np.abs(x - y))) + 1e-12
            if lhs > rhs:
                violations.append((k, lhs, rhs))
    elapsed = time.perf_counter() - t0
    _report(10, "v-map contraction", elapsed, violations, "10 instances x 1000 pairs")
