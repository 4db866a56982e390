import numpy as np
import pytest

from helpers import (
    CROSS_CHECK_TOL,
    complete_instance,
    edge_set,
    mixed_profile,
    random_feasible_profile,
    random_game,
    single_edge_profile,
    with_row,
)
from katzforge import (
    AllocationProfile,
    BrdConfig,
    FeasibilityError,
    generate_random_instance,
    is_nash,
    katz_solve,
    run_brd,
    walk_decomposition,
)
from katzforge.analysis import run_structure_checks
import katzforge.centrality
from katzforge.centrality import SOLVE_RESIDUAL_TOL, InForest, Resolvent, _single_edge_centralities
from oracles import (
    brute_walk_sums,
    fractional_linear_centrality,
    katz_dense,
    katz_series,
    series_pq,
    series_pq_per_length,
    series_tail_bound,
)


class TestKatzSolve:
    def test_self_loop_geometric_series(self, i1):
        # sum of 0.5^k over k >= 1
        c = katz_solve(AllocationProfile(np.array([[0.5]])))
        assert c[0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_profile_zero_centrality(self, i2):
        # +0.0, bit for bit
        assert katz_solve(AllocationProfile.zeros(2)).tobytes() == np.zeros(2).tobytes()

    def test_two_agent_hand_solution(self):
        c = katz_solve(AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]])))
        np.testing.assert_allclose(c, [5 / 7, 3 / 7], atol=1e-14)

    def test_row_sum_at_one_rejected(self):
        with pytest.raises(FeasibilityError, match="row 1"):
            katz_solve(np.array([[1.0]]))

    def test_nan_residual_rejected(self):
        # a NaN weight passes the row-sum test and evaluates to NaN, by the
        # kernel or by the LU; its NaN residual must fail the bound, not slip
        # past it
        with pytest.raises(ArithmeticError, match="centrality residual nan exceeds bound"):
            katz_solve(np.array([[np.nan]]))
        with pytest.raises(ArithmeticError, match="linear solve residual nan exceeds bound"):
            katz_solve(np.array([[np.nan, 0.1], [0.0, 0.0]]))

    def test_residual_bound_on_random_profiles(self):
        for seed in range(50):
            g = random_game(seed, n_max=20)
            w = random_feasible_profile(g, seed + 1000)
            a = w.weights
            c = katz_solve(w)
            residual = np.max(np.abs((np.eye(g.n) - a) @ c - a @ np.ones(g.n)))
            assert residual <= 1e-12 * g.n


class TestOneRoutePerShape:
    """``katz_solve`` hands a profile whose every row has at most one positive
    entry to the functional-graph kernel, which ``InForest`` evaluates with
    too, and solves any other; ``katz_dense`` keeps the LU for both."""

    @pytest.mark.parametrize("budget_hi", [0.85, 0.99, 0.999, 0.9999])
    def test_single_edge_profiles_match_dense_route(self, budget_hi):
        rng = np.random.default_rng(11)
        profiles = [
            single_edge_profile(random_game(seed, n_max=25, budget_lo=budget_hi - 0.01, budget_hi=budget_hi), seed + 40)
            for seed in range(20)
        ]
        profiles += [_single_edge_matrix(*_random_functional_graph(rng, n, budget_hi)) for n in (2, 5, 10, 40, 100) * 4]
        for w in profiles:
            a = w.weights if isinstance(w, AllocationProfile) else w
            c, want = katz_solve(w), katz_dense(w)
            assert np.max(np.abs(c - want)) <= CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
            assert c.tobytes() == InForest(a).centralities.tobytes()

    def test_failed_single_edge_check_raises_the_kernels_error(self, monkeypatch):
        monkeypatch.setattr(katzforge.centrality, "_forest_residual", lambda succ, w, c: np.ones_like(c))
        with pytest.raises(ArithmeticError, match="residual 1.0 exceeds bound after a fresh evaluation"):
            katz_solve(np.array([[0.0, 0.5], [0.25, 0.0]]))

    def test_verify_and_analyze_solve_only_multi_edge_profiles(self, solves, i3, i3_ne):
        multi = AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]]))
        for w, want in ((i3_ne, []), (AllocationProfile.zeros(2), []), (multi, [2])):
            solves.clear()
            is_nash(i3, w)
            assert solves == want
            solves.clear()
            run_structure_checks(i3, w)
            assert solves == want
        for seed in range(10):
            g = random_game(seed, n_max=20, budget_hi=0.99)
            w = single_edge_profile(g, seed + 22)
            solves.clear()
            is_nash(g, w)
            run_structure_checks(g, w)
            assert solves == []
            w = mixed_profile(g, seed + 23)
            if np.any(np.count_nonzero(w.weights, axis=1) > 1):
                solves.clear()
                is_nash(g, w)
                run_structure_checks(g, w)
                assert solves == [g.n, g.n]

    @pytest.mark.parametrize("cap", [0.999995, 0.999998])
    def test_near_one_terminals_get_a_verdict_and_a_report(self, cap):
        # n=40, density 0.3, self-loops, budgets in [cap - 10 (1 - cap), cap]:
        # a dense LU of such a terminal fails its residual bound on most games
        for seed in range(40):
            g = generate_random_instance(40, 0.3, True, (cap - 10 * (1 - cap), cap), seed)
            trace = run_brd(g, AllocationProfile.zeros(g.n), BrdConfig(mode="modified"))
            verdict = is_nash(g, trace.terminal)
            assert verdict.residual == float(np.max(np.abs(verdict.v_gaps)))
            report, cond = run_structure_checks(g, trace.terminal)
            assert report.checks and cond.components


class TestKatzSeries:
    def test_depth_three_partial_sum(self):
        c = katz_series(AllocationProfile(np.array([[0.5]])), depth=3)
        assert c[0] == pytest.approx(0.875, abs=1e-15)

    def test_depth_one_is_row_sums(self):
        w = AllocationProfile(np.array([[0.1, 0.2], [0.3, 0.0]]))
        np.testing.assert_allclose(katz_series(w, 1), [0.3, 0.3], atol=1e-15)

    def test_depth_must_be_positive(self, i1):
        with pytest.raises(ValueError):
            katz_series(AllocationProfile.zeros(1), 0)

    @pytest.mark.parametrize("depth", [1, 3, 10, 40, 80])
    def test_series_converges_to_solve_within_tail_bound(self, depth):
        w = AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]]))
        b_max = 0.5
        gap = np.max(np.abs(katz_series(w, depth) - katz_solve(w)))
        assert gap <= series_tail_bound(b_max, depth) + 1e-15


class TestWalkDecomposition:
    def test_two_agent_hand_enumeration(self, i2):
        # only walk from agent 2 hitting agent 1 is the single edge 2 -> 1
        w = AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]]))
        wd = walk_decomposition(i2, w, 0)
        assert wd.q[1] == pytest.approx(0.25, abs=1e-15)
        assert wd.p[1] == pytest.approx(0.0, abs=1e-15)
        assert wd.d[1] == pytest.approx(1.25, abs=1e-15)

    def test_isolated_focal_agent_has_zero_q(self):
        from katzforge import GameInstance, topology_from_edges

        g = GameInstance(topology_from_edges(3, [(0, 0), (1, 1), (2, 2)]), (0.5, 0.5, 0.5))
        w = AllocationProfile(np.diag([0.5, 0.5, 0.0]))
        wd = walk_decomposition(g, w, 2)
        assert wd.q[0] == 0.0 and wd.q[1] == 0.0

    def test_self_loop_walks_and_scores(self, i3):
        # walks from agent 1 avoiding agent 2: 1->1->...->1, mass 0.5/(1-0.5)=1
        w = AllocationProfile(np.array([[0.5, 0.0], [0.0, 0.0]]))
        wd = walk_decomposition(i3, w, 1)
        assert wd.p[0] == pytest.approx(1.0, abs=1e-12)
        assert wd.q[0] == pytest.approx(0.0, abs=1e-15)
        assert wd.d[0] == pytest.approx(2.0, abs=1e-12)
        assert wd.f[0] == pytest.approx(2.0, abs=1e-12)
        assert wd.f[1] == pytest.approx(4 / 3, abs=1e-12)

    def test_conventions_at_focal_agent(self, i3):
        wd = walk_decomposition(i3, AllocationProfile.zeros(2), 0)
        assert wd.q[0] == 1.0
        assert wd.d[0] == 1.0
        assert np.isnan(wd.p[0])  # undefined by the model, flagged not guessed

    def test_independent_of_own_row(self, i3):
        base = AllocationProfile(np.array([[0.0, 0.0], [0.1, 0.1]]))
        moved = AllocationProfile(np.array([[0.2, 0.3], [0.1, 0.1]]))
        a = walk_decomposition(i3, base, 0)
        b = walk_decomposition(i3, moved, 0)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.d, b.d)
        assert a.f[1] == b.f[1]

    def test_infeasible_profile_rejected(self, i2):
        w = AllocationProfile(np.array([[0.0, 0.9], [0.25, 0.0]]))
        with pytest.raises(FeasibilityError):
            walk_decomposition(i2, w, 0)

    def test_first_visit_sum_at_or_past_one_over_budget_raises(self, i2):
        # q_j B_i >= 1 for agent 1's only neighbor: no feasible profile gives it
        for q_j, denom in ((2.0, "0.0"), (3.0, "-0.5")):
            with pytest.raises(FeasibilityError, match=f"1 - q\\*B = {denom} for neighbor 2 of agent 1;"):
                katzforge.centrality._decomposition(i2, 0, np.array([1.0, q_j]), np.zeros(2))

    def test_against_literal_enumeration_and_series(self):
        # recursive path enumeration validates the per-length series, whose
        # depth-60 accumulation then validates the linear-solve route
        for seed in range(25):
            g = random_game(seed, n_min=2, n_max=4, budget_lo=0.1, budget_hi=0.55)
            w = random_feasible_profile(g, seed + 77)
            a = w.weights
            for i in range(g.n):
                brute_avoid, brute_hit = brute_walk_sums(a, i, max_len=7)
                ser_avoid, ser_hit = series_pq_per_length(a, i, max_len=7)
                np.testing.assert_allclose(brute_avoid, ser_avoid, atol=1e-13)
                np.testing.assert_allclose(brute_hit, ser_hit, atol=1e-13)

                p60, q60 = series_pq(a, i, depth=60)
                wd = walk_decomposition(g, w, i)
                tail = series_tail_bound(0.55, 60)
                for j in range(g.n):
                    if j == i:
                        continue
                    assert abs(wd.p[j] - p60[j]) <= tail + 1e-12
                    assert abs(wd.q[j] - q60[j]) <= tail + 1e-12


class TestFractionalLinear:
    def test_matches_hand_value(self, i2):
        w = AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]]))
        wd = walk_decomposition(i2, w, 0)
        got = fractional_linear_centrality(np.array([0.0, 0.5]), wd)
        assert got == pytest.approx(5 / 7, abs=1e-14)

    def test_zero_row_gives_zero(self, i2):
        wd = walk_decomposition(i2, AllocationProfile.zeros(2), 0)
        assert fractional_linear_centrality(np.zeros(2), wd) == 0.0

    def test_single_edge_on_complete_instance(self, i3):
        w = AllocationProfile(np.array([[0.5, 0.0], [0.0, 0.0]]))
        wd = walk_decomposition(i3, w, 1)
        got = fractional_linear_centrality(np.array([0.25, 0.0]), wd)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_row_outside_support_rejected(self, i2):
        wd = walk_decomposition(i2, AllocationProfile.zeros(2), 0)
        with pytest.raises(FeasibilityError, match="neighborhood"):
            fractional_linear_centrality(np.array([0.1, 0.1]), wd)

    def test_over_budget_row_rejected(self, i2):
        wd = walk_decomposition(i2, AllocationProfile.zeros(2), 0)
        with pytest.raises(FeasibilityError, match="budget"):
            fractional_linear_centrality(np.array([0.0, 0.6]), wd)


class TestCentralityIdentities:
    def test_interdependence_identity(self):
        # c_i = sum_j w_ij (1 + c_j) on random feasible profiles
        for seed in range(200):
            g = random_game(seed, n_max=20)
            w = random_feasible_profile(g, seed + 5000)
            c = katz_solve(w)
            rhs = w.weights @ (1.0 + c)
            assert np.max(np.abs(c - rhs)) <= 1e-10

    def test_denominator_positivity(self):
        for seed in range(100):
            g = random_game(seed, n_max=12)
            w = random_feasible_profile(g, seed + 9000)
            for i in range(g.n):
                wd = walk_decomposition(g, w, i)
                q = np.array(wd.q)
                q[i] = 0.0  # own row never allocates outside N_i; q_ii unused here
                if (i, i) in edge_set(g.topology):
                    q[i] = 1.0
                assert 1.0 - float(q @ w.weights[i]) > 0.0

    def test_fractional_linear_matches_solver_everywhere(self):
        for seed in range(100):
            g = random_game(seed, n_max=12)
            w = random_feasible_profile(g, seed + 1234)
            c = katz_solve(w)
            for i in range(g.n):
                wd = walk_decomposition(g, w, i)
                assert fractional_linear_centrality(w.weights[i], wd) == pytest.approx(
                    c[i], abs=1e-10
                )

    def test_monotone_in_single_weight_increase(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            g = random_game(seed, n_max=10)
            w = random_feasible_profile(g, seed + 321)
            c0 = katz_solve(w)
            candidates = [
                (i, j)
                for i, j in sorted(edge_set(g.topology))
                if w.weights[i].sum() < g.budgets[i] - 1e-9
            ]
            if not candidates:
                continue
            i, j = candidates[int(rng.integers(len(candidates)))]
            bump = min(1e-3, g.budgets[i] - w.weights[i].sum())
            row = w.weights[i].copy()
            row[j] += bump
            c1 = katz_solve(with_row(w, i, row))
            assert np.all(c1 >= c0 - 1e-12)


def _random_row(g, i, rng):
    """A feasible row for agent i: random weights on a random subset of its
    underlying out-neighbors, spending up to 99.9% of B_i."""
    nbrs = np.array(g.topology.out_neighbors(i))
    picks = nbrs[rng.random(len(nbrs)) < 0.5]
    row = np.zeros(g.n)
    if picks.size:
        raw = rng.uniform(0.05, 1.0, size=picks.size)
        row[picks] = raw * (g.budgets[i] * rng.uniform(0.5, 0.999) / raw.sum())
    return row


class TestResolvent:
    @pytest.mark.parametrize("budget_hi", [0.85, 0.99, 0.999])
    def test_decomposition_tracks_dense_route_under_row_replacements(self, budget_hi):
        rng = np.random.default_rng(7)
        for seed in range(6):
            g = random_game(seed, n_max=25, budget_lo=budget_hi - 0.01, budget_hi=budget_hi)
            w = random_feasible_profile(g, seed + 40)
            res = Resolvent(w)
            for _ in range(50):
                i = int(rng.integers(g.n))
                row = _random_row(g, i, rng)
                w = with_row(w, i, row)
                c, want = res.replace_row(i, row), katz_dense(w)
                assert np.max(np.abs(c - want)) <= CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
                a = w.weights
                assert np.max(np.abs(c - a @ c - a @ np.ones(g.n))) <= SOLVE_RESIDUAL_TOL * g.n
            assert res.rebuilds == 0
            for i in range(g.n):
                got, want = res.decomposition(g, i), walk_decomposition(g, w, i)
                assert (got.agent, got.neighbors, got.budget) == (want.agent, want.neighbors, want.budget)
                for name in ("p", "q", "d", "f"):
                    a, b = getattr(got, name), getattr(want, name)
                    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
                    scale = max(1.0, float(np.nanmax(np.abs(b))))
                    assert np.nanmax(np.abs(a - b)) <= CROSS_CHECK_TOL * scale, (seed, i, name)

    def test_corrupted_inverse_is_rebuilt(self, i3):
        w = AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]]))
        res = Resolvent(w)
        # refinement leaves a 1e-6 relative error; the denominator stays positive
        # and the residual check fails
        res._m *= 1.0 + 1e-3
        row = np.array([0.0, 0.5])
        w = with_row(w, 0, row)
        c = res.replace_row(0, row)
        assert res.rebuilds == 1
        np.testing.assert_array_equal(c, Resolvent(w).centralities)
        assert np.max(np.abs(c - katz_dense(w))) <= CROSS_CHECK_TOL
        np.testing.assert_allclose(res._m, np.linalg.inv(np.eye(2) - w.weights), rtol=1e-14)
        # an update whose denominator is not positive rebuilds too
        res._m[:] = 0.0
        res._m[0, 0] = 10.0  # 1 - delta M e_1 = 1 - 0.4 * 10 < 0
        w = with_row(w, 0, np.array([0.4, 0.0]))
        c = res.replace_row(0, np.array([0.4, 0.0]))
        assert res.rebuilds == 2
        np.testing.assert_array_equal(c, Resolvent(w).centralities)
        assert np.max(np.abs(c - katz_dense(w))) <= CROSS_CHECK_TOL
        np.testing.assert_allclose(res._m, np.linalg.inv(np.eye(2) - w.weights), rtol=1e-14)
        # the rebuilt inverse serves the next update without a rebuild
        w = with_row(w, 1, np.array([0.0, 0.25]))
        c = res.replace_row(1, np.array([0.0, 0.25]))
        assert res.rebuilds == 2
        assert np.max(np.abs(c - katz_dense(w))) <= CROSS_CHECK_TOL
        np.testing.assert_array_equal(res.weights(), w.weights)

    def test_failed_check_on_a_fresh_factorization_raises(self, monkeypatch):
        w = AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]]))
        res = Resolvent(w)
        monkeypatch.setattr(Resolvent, "_residual", lambda self, c: np.ones_like(c))
        with pytest.raises(ArithmeticError, match="residual 1.0 exceeds bound after a fresh factorization"):
            Resolvent(w)
        with pytest.raises(ArithmeticError, match="after a fresh factorization"):
            res.replace_row(0, np.array([0.0, 0.5]))
        assert res.rebuilds == 1

    def test_rows_read_back_exactly(self):
        for seed in range(10):
            g = random_game(seed, n_max=20, budget_lo=0.5, budget_hi=0.999)
            w = random_feasible_profile(g, seed + 40)
            res = Resolvent(w)
            np.testing.assert_array_equal(res.weights(), w.weights)
            for i in range(g.n):
                np.testing.assert_array_equal(res.row(i), w.weights[i])

    def test_refinement_absorbs_small_drift(self):
        # a 1e-6 relative error in M leaves about 1e-12 after one refinement step
        for seed in range(10):
            g = random_game(seed, n_max=20)
            w = random_feasible_profile(g, seed + 40)
            res = Resolvent(w)
            res._m *= 1.0 + 1e-6
            i = seed % g.n
            row = _random_row(g, i, np.random.default_rng(seed))
            w = with_row(w, i, row)
            c, want = res.replace_row(i, row), katz_dense(w)
            assert res.rebuilds == 0
            assert np.max(np.abs(c - want)) <= CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
            # the drift reaches a decomposition only through q: p is scored
            # from the certified c, so its error is q's times 1 + c_j
            for j in range(g.n):
                got, ref = res.decomposition(g, j), walk_decomposition(g, w, j)
                off = np.arange(g.n) != j
                dp, dq = np.abs(got.p - ref.p)[off], np.abs(got.q - ref.q)[off]
                assert np.all(dp <= dq * (1.0 + c[j]) + CROSS_CHECK_TOL * max(1.0, float(np.max(c))))

    def test_infeasible_profile_rejected(self):
        with pytest.raises(FeasibilityError, match="row 1"):
            Resolvent(np.array([[1.0]]))


def _assert_decompositions_match_dense_route(holder, g, w):
    for i in range(g.n):
        got, want = holder.decomposition(g, i), walk_decomposition(g, w, i)
        assert (got.agent, got.neighbors, got.budget) == (want.agent, want.neighbors, want.budget)
        for name in ("p", "q", "d", "f"):
            a, b = getattr(got, name), getattr(want, name)
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
            scale = max(1.0, float(np.nanmax(np.abs(b))))
            assert np.nanmax(np.abs(a - b)) <= CROSS_CHECK_TOL * scale, (i, name)


class TestInForest:
    @pytest.mark.parametrize("budget_hi", [0.85, 0.99, 0.999])
    def test_tracks_dense_route_under_row_replacements(self, budget_hi):
        # single-edge rows, self-loops and empty rows; a move closes and
        # opens cycles through the mover; every other move reads the mover's
        # decomposition first, as a best-response step does
        rng = np.random.default_rng(7)
        for seed in range(6):
            g = random_game(seed, n_max=25, budget_lo=budget_hi - 0.01, budget_hi=budget_hi)
            w = single_edge_profile(g, seed + 40)
            forest = InForest(w.weights)
            want = katz_dense(w)
            assert np.max(np.abs(forest.centralities - want)) <= CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
            for k in range(50):
                i = int(rng.integers(g.n))
                row = single_edge_profile(g, int(rng.integers(2**31))).weights[i]
                if k % 2:
                    forest.decomposition(g, i)
                w = with_row(w, i, row)
                c, want = forest.replace_row(i, row), katz_dense(w)
                assert c is forest.centralities
                assert np.max(np.abs(c - want)) <= CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
                a = w.weights
                assert np.max(np.abs(c - a @ c - a @ np.ones(g.n))) <= SOLVE_RESIDUAL_TOL * g.n
            assert forest.rebuilds == 0
            _assert_decompositions_match_dense_route(forest, g, w)

    def test_rows_read_back_exactly(self):
        for seed in range(10):
            g = random_game(seed, n_max=20, budget_lo=0.5, budget_hi=0.999)
            w = single_edge_profile(g, seed + 40)
            forest = InForest(w.weights)
            np.testing.assert_array_equal(forest.weights(), w.weights)
            for i in range(g.n):
                np.testing.assert_array_equal(forest.row(i), w.weights[i])

    def test_multi_edge_rows_rejected(self):
        with pytest.raises(ValueError, match="more than one positive entry"):
            InForest(np.array([[0.1, 0.2], [0.0, 0.0]]))
        forest = InForest(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="row 1 has more than one positive entry"):
            forest.replace_row(0, np.array([0.1, 0.2]))

    def test_drift_is_re_evaluated(self, monkeypatch):
        # 1 -> 2 -> 3 (self-loop), 4 (self-loop); agent 3 moves to agent 4.
        # c off by 1e-9, on agent 3's in-tree {1, 2, 3} or off it at agent 4,
        # breaks the check: c is evaluated again, counted in rebuilds, and
        # the drifted c is not written; a failed check of that evaluation
        # raises
        g = complete_instance((0.5, 0.6, 0.7, 0.8))
        w = AllocationProfile(np.array([[0, 0.5, 0, 0], [0, 0, 0.6, 0], [0, 0, 0.7, 0], [0, 0, 0, 0.8]]))
        row = np.array([0, 0, 0, 0.7])
        want = katz_dense(with_row(w, 2, row))
        for drifted in ([0, 1, 2], [3]):
            forest = InForest(w.weights)
            c = forest.centralities.copy()
            c[drifted] += 1e-9
            forest.centralities = c
            got = forest.replace_row(2, row)
            assert forest.rebuilds == 1
            assert np.max(np.abs(got - want)) <= CROSS_CHECK_TOL * max(want)
            np.testing.assert_array_equal(got, InForest(with_row(w, 2, row).weights).centralities)
            np.testing.assert_array_equal(c[drifted], InForest(w.weights).centralities[drifted] + 1e-9)
        forest = InForest(w.weights)
        forest.centralities = forest.centralities + 1e-9
        monkeypatch.setattr(katzforge.centrality, "_forest_residual", lambda succ, w, c: np.ones_like(c))
        with pytest.raises(ArithmeticError, match="residual 1.0 exceeds bound after a fresh evaluation"):
            forest.replace_row(2, row)
        assert forest.rebuilds == 1


def _single_edge_matrix(succ: list[int], w: list[float]) -> np.ndarray:
    a = np.zeros((len(succ), len(succ)))
    for u, (j, b) in enumerate(zip(succ, w)):
        if j >= 0:
            a[u, j] = b
    return a


def _random_functional_graph(rng, n: int, budget_hi: float, empty: float = 0.2):
    """Successors drawn at random, so that trees hang off cycles of every
    length (self-loops and 2-cycles included); one row in five empty."""
    succ = [-1 if rng.random() < empty else int(rng.integers(n)) for _ in range(n)]
    w = [0.0 if j < 0 else float(rng.uniform(budget_hi - 0.01, budget_hi)) for j in succ]
    return succ, w


class TestSingleEdgeCentralities:
    """The functional-graph kernel against ``katz_dense`` on the same
    matrix, within ``CROSS_CHECK_TOL`` * max(1, max c)."""

    @staticmethod
    def _assert_matches_dense(succ, w):
        c, want = _single_edge_centralities(succ, w), katz_dense(_single_edge_matrix(succ, w))
        assert isinstance(c, np.ndarray) and c.shape == (len(succ),)
        assert np.max(np.abs(c - want)) <= CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
        return c

    def test_cycles_of_each_shape(self):
        self._assert_matches_dense([0, 1, 2], [0.5, 0.9, 0.1])  # self-loops
        self._assert_matches_dense([1, 0, 3, 2], [0.5, 0.9, 0.1, 0.8])  # 2-cycles
        n = 50
        self._assert_matches_dense([(u + 1) % n for u in range(n)], np.linspace(0.5, 0.99, n).tolist())

    def test_trees_hanging_off_cycles(self):
        # 0 -> 1 <-> 2, 3 -> 0, 4 -> 0, 5 -> 5 <- 6 <- 7
        c = self._assert_matches_dense([1, 2, 1, 0, 0, 5, 5, 6], [0.3, 0.6, 0.7, 0.2, 0.9, 0.4, 0.5, 0.8])
        assert c[0] == 0.3 * (1.0 + c[1]) and c[7] == 0.8 * (1.0 + c[6])

    def test_empty_rows_and_chains_ending_in_them(self):
        c = self._assert_matches_dense([1, 2, -1, 2, -1], [0.5, 0.6, 0.0, 0.7, 0.0])
        np.testing.assert_array_equal(c, [0.5 * 1.6, 0.6, 0.0, 0.7, 0.0])
        # the zero profile gives exact +0.0
        c = _single_edge_centralities([-1] * 4, [0.0] * 4)
        assert c.tobytes() == np.zeros(4).tobytes()

    def test_single_agent(self):
        assert _single_edge_centralities([0], [0.5]).tolist() == [1.0]
        assert _single_edge_centralities([-1], [0.0]).tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("budget_hi", [0.85, 0.999, 0.9999, 0.99999])
    def test_random_functional_graphs(self, budget_hi):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 10, 40, 100) * 5:
            self._assert_matches_dense(*_random_functional_graph(rng, n, budget_hi))

    @pytest.mark.parametrize("end", [-1, 1999])
    def test_line_of_2000(self, end):
        # 0 -> 1 -> ... -> 1999, ending in an empty row or a self-loop
        n = 2000
        succ = list(range(1, n)) + [end]
        w = np.linspace(0.1, 0.9, n).tolist()
        if end < 0:
            w[-1] = 0.0
        self._assert_matches_dense(succ, w)

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(katzforge.centrality, "_forest_residual", lambda succ, w, c: np.ones_like(c))
        with pytest.raises(ArithmeticError, match="residual 1.0 exceeds bound after a fresh evaluation"):
            _single_edge_centralities([0], [0.5])
