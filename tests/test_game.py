import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REPORTED_BUDGETS,
    REPORTED_C_STAR,
    complete_instance,
    find_ne,
    random_feasible_profile,
    random_game,
    with_row,
)
from katzforge import (
    AllocationProfile,
    GameInstance,
    best_response,
    equilibrium_centralities,
    generate_random_instance,
    improvement_gaps,
    is_nash,
    katz_solve,
    topology_from_edges,
    v_map,
    walk_decomposition,
)
from oracles import (
    best_response_oracle,
    equilibrium_dense_oracle,
    unilateral_swap_check,
    v_map_dense,
    value_iteration_oracle,
)


class TestVMap:
    def test_zero_maps_to_budgets(self, i3):
        np.testing.assert_array_equal(v_map(i3, np.zeros(2)), [0.5, 0.25])

    def test_fixed_point_of_complete_two_agent(self, i3):
        np.testing.assert_allclose(v_map(i3, np.array([1.0, 0.5])), [1.0, 0.5], atol=1e-15)

    def test_restricted_neighborhoods(self, i2):
        np.testing.assert_allclose(v_map(i2, np.array([0.0, 4.0])), [2.5, 0.25], atol=1e-15)

    def test_negative_entry_rejected(self, i2):
        with pytest.raises(ValueError, match="nonnegative"):
            v_map(i2, np.array([-0.1, 0.0]))

    def test_nan_entry_rejected(self, i2):
        with pytest.raises(ValueError, match="nonnegative"):
            v_map(i2, np.array([np.nan, 0.0]))

    def test_wrong_length_rejected(self, i2):
        with pytest.raises(ValueError, match="shape"):
            v_map(i2, np.zeros(3))

    def test_agent_without_neighbors_rejected(self):
        for adj in ([(0, 1)], [(1, 0)]):
            with pytest.raises(ValueError, match="nonempty-neighborhood"):
                GameInstance(topology_from_edges(2, adj), (0.5, 0.5))

    def test_bitwise_equal_to_dense_mask_route(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            g = random_game(seed, n_max=30)
            x = rng.uniform(0.0, 10.0, size=g.n)
            x[rng.random(g.n) < 0.2] = 0.0
            np.testing.assert_array_equal(v_map(g, x), v_map_dense(g, x))


class TestEquilibriumCentralities:
    def test_single_agent(self, i1):
        cert = equilibrium_centralities(i1, tol=1e-12)
        assert cert.c_star[0] == pytest.approx(1.0, abs=1e-11)

    def test_complete_two_agent_closed_form(self, i3):
        cert = equilibrium_centralities(i3, tol=1e-12)
        np.testing.assert_allclose(cert.c_star, [1.0, 0.5], atol=1e-11)

    def test_reported_complete_instance(self):
        g = complete_instance(REPORTED_BUDGETS)
        cert = equilibrium_centralities(g, tol=1e-12)
        # reported budgets are printed rounded: 5% relative agreement
        assert np.max(np.abs(cert.c_star - REPORTED_C_STAR) / REPORTED_C_STAR) < 0.05
        assert cert.contraction_rate == 0.83

    def test_residual_and_value_iteration_agreement(self):
        tol = 1e-10
        for seed in range(40):
            g = random_game(seed, n_max=15, budget_hi=0.99)
            cert = equilibrium_centralities(g, tol=tol)
            assert cert.residual <= tol
            assert np.max(np.abs(cert.c_star - value_iteration_oracle(g, tol))) <= 2 * tol

    @pytest.mark.parametrize("b", [0.999, 0.9999])
    @pytest.mark.parametrize("n", [10, 100, 300])
    def test_near_one_budgets_closed_form(self, n, b):
        g = generate_random_instance(n, 0.5, True, (b, b), 3)
        cert = equilibrium_centralities(g)
        assert cert.residual <= cert.tol
        assert np.max(np.abs(cert.c_star - b / (1 - b))) <= 1e-10

    def test_terminates_on_two_level_near_one_budgets(self):
        # rounding ties between the two levels made a bare ">" switch rule
        # cycle forever on some of these instances
        tol = 1e-10
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 60))
            g = generate_random_instance(
                n, float(rng.uniform(0.1, 0.6)), bool(rng.random() < 0.5), (0.99, 0.99), seed
            )
            g = GameInstance(g.topology, tuple(rng.choice([0.99, 0.999], n).tolist()))
            cert = equilibrium_centralities(g, tol=tol)
            assert cert.residual <= tol

    def test_gaps_taken_once_per_call(self, monkeypatch):
        # policy rounds solve only; v(c) - c is read for the final c alone
        from katzforge import game

        calls = []
        v_map = game.v_map

        def counting(g, x):
            calls.append(1)
            return v_map(g, x)

        monkeypatch.setattr(game, "v_map", counting)
        cert = equilibrium_centralities(random_game(3, n_max=15))
        assert cert.iterations > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("b_hi", [0.85, 0.99, 0.999])
    def test_bitwise_equal_to_dense_mask_oracle(self, b_hi):
        for seed in range(80):
            _assert_same_certificate(random_game(seed, n_max=40, budget_hi=b_hi))

    def test_bitwise_equal_to_dense_mask_oracle_on_two_level_budgets(self):
        # tie order and the switch margin decide the rounds here
        for seed in range(80):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 40))
            g = generate_random_instance(
                n, float(rng.uniform(0.05, 0.8)), bool(rng.random() < 0.5), (0.99, 0.99), seed
            )
            _assert_same_certificate(
                GameInstance(g.topology, tuple(rng.choice([0.99, 0.999], n).tolist()))
            )

    @given(seed=st.integers(0, 500), b_hi=st.sampled_from([0.85, 0.99, 0.999, 0.9999]))
    @settings(max_examples=60, deadline=None)
    def test_argmax_profile_of_c_star_is_nash(self, seed, b_hi):
        g = random_game(seed, n_max=15, budget_hi=b_hi)
        c = equilibrium_centralities(g).c_star
        w = np.zeros((g.n, g.n))
        for i in range(g.n):
            nbrs = g.topology.out_neighbors(i)
            w[i, max(nbrs, key=lambda j: c[j])] = g.budgets[i]
        assert is_nash(g, AllocationProfile(w)).is_nash

    def test_residual_above_tol_raises(self):
        g = random_game(3, n_max=10)
        with pytest.raises(ArithmeticError, match="exceeds tol"):
            equilibrium_centralities(g, tol=1e-18)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, i3, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            equilibrium_centralities(i3, tol=tol)

    def test_certificate_is_fixed_point_within_tol(self):
        g = random_game(3, n_max=10)
        cert = equilibrium_centralities(g, tol=1e-11)
        assert np.max(np.abs(v_map(g, cert.c_star) - cert.c_star)) <= 1e-11

    def test_invalid_instance_rejected(self):
        from katzforge import GameInstance, topology_from_edges

        with pytest.raises(ValueError, match="budget-bound"):
            GameInstance(topology_from_edges(1, [(0, 0)]), (1.5,))


def _assert_same_certificate(g: GameInstance) -> None:
    got, want = equilibrium_centralities(g), equilibrium_dense_oracle(g)
    assert got.c_star.tobytes() == want.c_star.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


class TestBestResponse:
    def test_single_neighbor_forces_response(self, i2):
        w = AllocationProfile(np.array([[0.0, 0.0], [0.25, 0.0]]))
        br = best_response(walk_decomposition(i2, w, 0))
        assert br.argmax_set == (1,)
        np.testing.assert_array_equal(br.canonical, [0.0, 0.5])

    def test_prefers_productive_neighbor_over_self_loop(self, i3):
        w = AllocationProfile(np.array([[0.5, 0.0], [0.0, 0.0]]))
        br = best_response(walk_decomposition(i3, w, 1))
        assert br.argmax_set == (0,)
        np.testing.assert_array_equal(br.canonical, [0.25, 0.0])
        assert br.achieved_value == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_instance_ties_to_both_neighbors(self):
        # oracle-computed: both single-edge responses achieve c_1 = 1.0 exactly
        from katzforge import GameInstance, topology_from_edges

        g = GameInstance(
            topology_from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)]), (0.5, 0.5)
        )
        w = AllocationProfile(np.array([[0.0, 0.0], [0.0, 0.5]]))
        br = best_response(walk_decomposition(g, w, 0))
        oracle = best_response_oracle(g, 0, w)
        assert br.argmax_set == oracle.argmax_set == (0, 1)
        assert br.achieved_value == pytest.approx(1.0, abs=1e-12)
        assert oracle.achieved_value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(br.canonical, [0.5, 0.0])

    def test_canonical_exhausts_budget(self):
        for seed in range(50):
            g = random_game(seed)
            w = random_feasible_profile(g, seed + 42)
            for i in range(g.n):
                br = best_response(walk_decomposition(g, w, i))
                assert br.canonical.sum() == pytest.approx(g.budgets[i], abs=0)
                assert np.count_nonzero(br.canonical) == 1

    def test_oracle_agreement_on_random_triples(self):
        rng = np.random.default_rng(7)
        for seed in range(200):
            g = random_game(seed, n_max=12)
            w = random_feasible_profile(g, seed + 99)
            i = int(rng.integers(g.n))
            a = best_response(walk_decomposition(g, w, i))
            b = best_response_oracle(g, i, w)
            assert a.argmax_set == b.argmax_set
            assert a.achieved_value == pytest.approx(b.achieved_value, abs=1e-9)

    def test_tied_members_achieve_equal_value(self):
        for seed in range(60):
            g = random_game(seed, n_max=10)
            w = random_feasible_profile(g, seed)
            for i in range(g.n):
                br = best_response(walk_decomposition(g, w, i))
                for j in br.argmax_set:
                    trial = np.zeros(g.n)
                    trial[j] = g.budgets[i]
                    c = katz_solve(with_row(w, i, trial))
                    assert c[i] == pytest.approx(br.achieved_value, abs=1e-10)

    @pytest.mark.parametrize(
        "i, message",
        [
            (2, "agent 3 out of range for n=2"),
            (-1, "agent 0 out of range for n=2"),
            (True, "agent index must be an integer, got True"),
        ],
        ids=["2", "-1", "True"],
    )
    def test_bad_agent_index_rejected(self, i3, i, message):
        w = AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            walk_decomposition(i3, w, i)

    def test_numpy_integer_agent_accepted(self, i3):
        w = AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]]))
        br = best_response(walk_decomposition(i3, w, np.int64(1)))
        want = best_response(walk_decomposition(i3, w, 1))
        assert type(br.agent) is int
        assert (br.agent, br.argmax_set, br.achieved_value) == (want.agent, want.argmax_set, want.achieved_value)
        np.testing.assert_array_equal(br.canonical, want.canonical)


class TestImprovementGaps:
    @pytest.mark.parametrize(
        "instance, weights, improvers",
        [
            ("i3", [[0.0, 0.0], [0.0, 0.0]], {0, 1}),  # zero profile: everyone improves
            ("i3", [[0.5, 0.0], [0.25, 0.0]], set()),  # i3_ne: nobody improves
            ("i2", [[0.0, 0.5], [0.0, 0.0]], {1}),  # one-sided: only agent 2 (index 1)
            ("i2", [[0.0, 0.5], [0.25, 0.0]], set()),  # interior mutual best responses
        ],
        ids=["zero-profile", "nash-profile", "one-sided", "interior-mutual"],
    )
    def test_improvers_and_gaps(self, request, instance, weights, improvers):
        g = request.getfixturevalue(instance)
        w = AllocationProfile(np.array(weights))
        tol = 1e-10
        c = katz_solve(w)
        gaps = improvement_gaps(g, c)
        np.testing.assert_array_equal(c, katz_solve(w))
        assert {i for i in range(g.n) if gaps[i] > tol} == improvers
        # no improver left means every agent best-responds: |gap| <= tol
        assert (float(np.max(np.abs(gaps))) <= tol) == (not improvers)

    def test_nan_weights_rejected(self, i3):
        # no NaN gaps: the centrality solve rejects its NaN residual
        with pytest.raises(ArithmeticError, match="residual"):
            improvement_gaps(i3, katz_solve(np.array([[np.nan, 0.0], [0.25, 0.0]])))


class TestResponsePredicates:
    """Agent i has a strictly better response iff its gap exceeds tol, and
    best-responds iff |gap| <= tol; both are checked against the full-solve
    best-response oracle."""

    TOL = 1e-10

    def _improves(self, g, i, w):
        c = katz_solve(w)
        gaps = improvement_gaps(g, c)
        strict = bool(gaps[i] > self.TOL)
        assert strict == (best_response_oracle(g, i, w).achieved_value > c[i] + self.TOL)
        return strict

    def _is_best(self, g, i, w):
        c = katz_solve(w)
        gaps = improvement_gaps(g, c)
        best = bool(abs(gaps[i]) <= self.TOL)
        oracle = best_response_oracle(g, i, w).achieved_value
        assert best == (abs(oracle - c[i]) <= self.TOL)
        return best

    def test_zero_profile_everyone_improves(self, i3):
        w = AllocationProfile.zeros(2)
        assert self._improves(i3, 0, w)
        assert self._improves(i3, 1, w)
        assert not self._is_best(i3, 0, w)

    def test_nash_profile_nobody_improves(self, i3, i3_ne):
        for i in (0, 1):
            assert not self._improves(i3, i, i3_ne)
            assert self._is_best(i3, i, i3_ne)

    def test_one_sided_improvement(self, i2):
        w = AllocationProfile(np.array([[0.0, 0.5], [0.0, 0.0]]))
        assert not self._improves(i2, 0, w)
        assert self._improves(i2, 1, w)


class TestIsNash:
    def test_two_agent_cross_profile(self, i2):
        verdict = is_nash(i2, AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]])))
        assert verdict.is_nash
        assert verdict.residual <= 1e-10

    def test_zero_profile_residual_is_budget_norm(self, i3):
        verdict = is_nash(i3, AllocationProfile.zeros(2))
        assert not verdict.is_nash
        assert verdict.residual == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, i3, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            is_nash(i3, AllocationProfile.zeros(2), tol=tol)

    def test_complete_instance_nash(self, i3, i3_ne):
        verdict = is_nash(i3, i3_ne)
        assert verdict.is_nash
        np.testing.assert_allclose(katz_solve(i3_ne), [1.0, 0.5], atol=1e-12)
        assert verdict.equilibrium_gap <= 2e-10


class TestUnilateralSwap:
    def test_identity_swap(self, i3, i3_ne):
        assert unilateral_swap_check(i3, i3_ne, 0, i3_ne.weights[0].copy())

    def test_tied_swap_on_symmetric_triangle(self):
        g = complete_instance((0.4, 0.4, 0.4))
        star = AllocationProfile(np.array([[0.4, 0, 0], [0.4, 0, 0], [0.4, 0, 0]]))
        assert is_nash(g, star).is_nash
        swapped_row = np.array([0.0, 0.0, 0.4])  # agent 1 retargets agent 3
        assert unilateral_swap_check(g, star, 1, swapped_row)

    def test_convex_combination_of_tied_responses(self):
        g = complete_instance((0.4, 0.4, 0.4))
        star = AllocationProfile(np.array([[0.4, 0, 0], [0.4, 0, 0], [0.4, 0, 0]]))
        lam = 0.5
        mixed = lam * np.array([0.4, 0.0, 0.0]) + (1 - lam) * np.array([0.0, 0.0, 0.4])
        assert unilateral_swap_check(g, star, 1, mixed)

    def test_precondition_not_nash_rejected(self, i3):
        with pytest.raises(ValueError, match="not Nash"):
            unilateral_swap_check(i3, AllocationProfile.zeros(2), 0, np.zeros(2))

    def test_precondition_value_change_rejected(self, i3, i3_ne):
        with pytest.raises(ValueError, match="centrality"):
            unilateral_swap_check(i3, i3_ne, 1, np.array([0.0, 0.25]))


class TestGameInvariants:
    def test_v_dominates_centralities(self):
        for seed in range(150):
            g = random_game(seed, n_max=15)
            w = random_feasible_profile(g, seed + 31)
            c = katz_solve(w)
            assert np.min(v_map(g, c) - c) >= -1e-12

    @given(seed=st.integers(0, 500), scale=st.floats(0.0, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_contraction(self, seed, scale):
        g = random_game(seed % 40, n_max=12)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1 + scale, g.n)
        y = rng.uniform(0, 1 + scale, g.n)
        lhs = np.max(np.abs(v_map(g, x) - v_map(g, y)))
        assert lhs <= g.b_max * np.max(np.abs(x - y)) + 1e-12

    def test_best_response_never_harms_others(self):
        for seed in range(100):
            g = random_game(seed, n_max=12)
            w = random_feasible_profile(g, seed + 61)
            c0 = katz_solve(w)
            for i in range(g.n):
                br = best_response(walk_decomposition(g, w, i))
                c1 = katz_solve(with_row(w, i, br.canonical))
                assert c1[i] >= c0[i] - 1e-12
                assert np.all(c1 >= c0 - 1e-12)

    def test_positive_entries_target_post_response_argmax(self):
        for seed in range(60):
            g = random_game(seed, n_max=10)
            w = random_feasible_profile(g, seed + 13)
            for i in range(g.n):
                br = best_response(walk_decomposition(g, w, i))
                after = with_row(w, i, br.canonical)
                c = katz_solve(after)
                best = max(c[k] for k in g.topology.out_neighbors(i))
                for j in np.nonzero(br.canonical > 0)[0]:
                    assert c[j] >= best - 1e-9

    def test_nash_centralities_unique_across_profiles(self):
        tol = 1e-10
        for seed in range(25):
            g = random_game(seed, n_max=10)
            ne_a = find_ne(g, seed=1, tol=tol)
            ne_b = find_ne(g, seed=2, tol=tol)
            ca, cb = katz_solve(ne_a), katz_solve(ne_b)
            assert np.max(np.abs(ca - cb)) <= 2 * tol
            cert = equilibrium_centralities(g, tol=tol)
            assert np.max(np.abs(ca - cert.c_star)) <= 2 * tol
