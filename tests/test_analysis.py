import gc
import itertools
import re
import weakref

import networkx as nx
import numpy as np
import pytest

from helpers import (
    REPORTED_BUDGETS,
    circulant_profile,
    complete_instance,
    find_ne,
    random_feasible_profile,
    random_game,
    undirected_game,
)
from katzforge import (
    AllocationProfile,
    BrdConfig,
    GameInstance,
    check_complete_topology,
    check_cycle_parity,
    check_hierarchy,
    check_scc_uniformity,
    export_condensation_dot,
    is_nash,
    katz_solve,
    parity_classes,
    random_profile,
    run_brd,
    run_structure_checks,
    scc_condensation,
    topology_from_edges,
)
from katzforge import analysis, instance
from katzforge.analysis import _parity_two_paths
from katzforge.support import _Support
from oracles import (
    bfs_path_nx,
    check_cycle_parity_nx,
    cycle_parity_oracle,
    parity_two_paths_nx,
    same_scc_oracle,
    scc_condensation_nx,
    support_digraph_nx,
)


def self_loop_experiment():
    """Exact-budget reconstruction of the reported self-loop run: underlying
    topology from the reported support plus self-loops everywhere, and the
    reported allocation with rows nudged onto exact budget exhaustion."""
    budgets = (0.89, 0.89, 0.89, 0.17, 0.17, 0.17, 0.3, 0.3, 0.3, 0.86)
    support = {
        (0, 0): 0.18, (0, 1): 0.71,
        (1, 1): 0.10, (1, 2): 0.79,
        (2, 0): 0.82, (2, 2): 0.07,
        (3, 1): 0.09, (3, 2): 0.08,
        (4, 8): 0.17,
        (5, 1): 0.08, (5, 2): 0.09,
        (6, 2): 0.30,
        (7, 1): 0.30,
        (8, 0): 0.30,
        (9, 0): 0.62, (9, 2): 0.24,
    }
    edges = set(support) | {(i, i) for i in range(10)}
    g = GameInstance(topology_from_edges(10, edges), budgets)
    w = np.zeros((10, 10))
    for (i, j), v in support.items():
        w[i, j] = v
    return g, AllocationProfile(w)


class TestTarjan:
    """The strongly connected components of the support, as the condensation
    reports them."""

    def test_two_agent_nash_network(self, i3_ne):
        cond = scc_condensation(i3_ne)
        assert [c.members for c in cond.components] == [(0,), (1,)]
        assert cond.edges == frozenset({(1, 0)})
        assert cond.components[0].is_sink
        assert not cond.components[1].is_sink

    def test_empty_profile_gives_singletons(self):
        cond = scc_condensation(AllocationProfile.zeros(4))
        assert [c.members for c in cond.components] == [(0,), (1,), (2,), (3,)]
        assert cond.edges == frozenset()
        assert all(c.is_sink for c in cond.components)

    def test_directed_cycle_is_one_component(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 0.4
        cond = scc_condensation(AllocationProfile(w))
        assert [c.members for c in cond.components] == [(0, 1, 2)]

    def test_matches_reachability_oracle_on_random_digraphs(self):
        for seed in range(50):
            g = random_game(seed, n_max=15)
            w = random_feasible_profile(g, seed + 500)
            cond = scc_condensation(w)
            members = [list(c.members) for c in cond.components]
            assert all(m == sorted(m) for m in members)
            assert [m[0] for m in members] == sorted(m[0] for m in members)
            comp = np.empty(g.n, dtype=int)
            for k, c in enumerate(cond.components):
                comp[list(c.members)] = k
            np.testing.assert_array_equal(comp[:, None] == comp[None, :], same_scc_oracle(w.weights))
            expected_edges = {(comp[i], comp[j]) for i, j in np.argwhere(w.weights > 0) if comp[i] != comp[j]}
            assert cond.edges == expected_edges

    def test_condensation_is_acyclic(self):
        for seed in range(30):
            g = random_game(seed, n_max=12)
            w = random_feasible_profile(g, seed + 800)
            cond = scc_condensation(w)
            dag = nx.DiGraph()
            dag.add_nodes_from(range(len(cond.components)))
            dag.add_edges_from(cond.edges)
            assert nx.is_directed_acyclic_graph(dag)


class TestCompleteTopologyCheck:
    def test_two_agent_nash(self, i3, i3_ne):
        result = check_complete_topology(i3, i3_ne)
        assert result.status == "pass"
        np.testing.assert_allclose(katz_solve(i3_ne), [1.0, 0.5], atol=1e-12)

    def test_reported_instance(self):
        g = complete_instance(REPORTED_BUDGETS)
        ne = find_ne(g)
        result = check_complete_topology(g, ne)
        assert result.status == "pass"
        c = katz_solve(ne)
        ratios = c / g.budget_array
        assert np.max(ratios) - np.min(ratios) <= 1e-9

    def test_unique_max_budget_forms_star(self):
        g = complete_instance((0.9, 0.2, 0.2, 0.2))
        trace = run_brd(g, AllocationProfile.zeros(4), BrdConfig(tol=1e-10))
        assert trace.converged
        assert check_complete_topology(g, trace.terminal).status == "pass"
        cond = scc_condensation(trace.terminal)
        assert cond.components[0].members == (0,)
        assert cond.components[0].is_sink
        assert cond.edges == frozenset({(k, 0) for k in range(1, 4)})

    def test_inapplicable_without_complete_topology(self, i2):
        result = check_complete_topology(i2, AllocationProfile.zeros(2))
        assert result.status == "inapplicable"

    def test_failure_witnesses_on_non_nash(self, i3):
        result = check_complete_topology(i3, AllocationProfile.zeros(2))
        assert result.status == "fail"
        assert any(w.get("rule") == "centrality" for w in result.witnesses)

    def test_edge_to_lower_budget_is_a_witness(self, i3):
        # agent 1 spends its budget on agent 2, whose budget is not the maximum
        w = AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]]))
        result = check_complete_topology(i3, w)
        assert result.status == "fail"
        edges = [x for x in result.witnesses if x["rule"] == "target-max-budget"]
        assert edges == [{"edge": [1, 2], "rule": "target-max-budget", "target_budget": 0.25}]


class TestHierarchyCheck:
    def test_two_agent_nash(self, i3, i3_ne):
        assert check_hierarchy(i3, i3_ne).status == "pass"

    def test_random_self_loop_nash_networks(self):
        for seed in range(40):
            g = random_game(seed, n_max=12, self_loops=True)
            ne = find_ne(g, seed=seed)
            assert check_hierarchy(g, ne).status == "pass"

    def test_non_nash_profile_can_fail_with_witness(self, i3):
        w = AllocationProfile(np.array([[0.0, 0.5], [0.0, 0.25]]))
        result = check_hierarchy(i3, w)
        assert result.status == "fail"
        assert result.witnesses[0]["edge"] == [1, 2]

    def test_inapplicable_without_self_loops(self, i2):
        assert check_hierarchy(i2, AllocationProfile.zeros(2)).status == "inapplicable"


class TestSccUniformityCheck:
    def test_reported_self_loop_experiment(self):
        g, w = self_loop_experiment()
        verdict = is_nash(g, w, tol=1e-9)
        assert verdict.is_nash
        c = katz_solve(w)
        reported_c = np.array([7.82] * 3 + [1.51, 0.62, 1.51] + [2.64] * 3 + [7.57])
        assert np.max(np.abs(c - reported_c) / reported_c) < 0.05

        result = check_scc_uniformity(g, w)
        assert result.status == "pass"
        cond = scc_condensation(w, budgets=g.budgets, centralities=c)
        triangle = next(comp for comp in cond.components if len(comp.members) > 1)
        assert triangle.members == (0, 1, 2)
        assert triangle.gamma == 0.89
        assert abs(triangle.alpha - 0.89 / 0.11) < 1e-9
        assert triangle.is_sink

        assert check_hierarchy(g, w).status == "pass"

    @staticmethod
    def two_agent_scc_pointing_out():
        """Agents 1 and 2 form an SCC with equal budgets; agent 1 also points
        at agent 3, a singleton SCC."""
        g = complete_instance((0.5, 0.5, 0.25))
        w = AllocationProfile(np.array([[0.0, 0.25, 0.25], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        return g, w

    def test_alpha_propagation_witness(self):
        g, w = self.two_agent_scc_pointing_out()
        result = check_scc_uniformity(g, w, centralities=np.array([1.0, 1.0, 0.3]))
        assert result.status == "fail"
        assert result.witnesses == (
            {"scc": 0, "rule": "alpha-propagation", "target_scc": 1, "agent": 3, "alpha": 1.0, "got": 0.3},
        )

    def test_alpha_propagation_pass(self):
        g, w = self.two_agent_scc_pointing_out()
        c = np.array([1.0, 1.0, 1.0 + 5e-11])  # within tol of alpha
        assert check_scc_uniformity(g, w, centralities=c).status == "pass"

    def test_singleton_sccs_vacuous(self, i3, i3_ne):
        assert check_scc_uniformity(i3, i3_ne).status == "pass"

    def test_no_certified_ne_ever_fails(self):
        for seed in range(60):
            g = random_game(seed, n_max=10, self_loops=True)
            ne = find_ne(g, seed=seed + 1)
            assert check_scc_uniformity(g, ne).status == "pass"

    def test_inapplicable_without_self_loops(self, i2):
        assert check_scc_uniformity(i2, AllocationProfile.zeros(2)).status == "inapplicable"


class TestCycleParityCheck:
    def test_two_cycle_vacuous_classes(self):
        g = GameInstance(topology_from_edges(2, [(0, 1), (1, 0)]), (0.5, 0.25))
        w = AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]]))
        assert is_nash(g, w).is_nash
        assert check_cycle_parity(g, w).status == "pass"

    def test_triangle_uniform(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]
        g = GameInstance(topology_from_edges(3, edges), (0.5, 0.5, 0.5))
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 0.5
        profile = AllocationProfile(w)
        assert is_nash(g, profile).is_nash
        result = check_cycle_parity(g, profile)
        assert result.status == "pass"
        assert parity_classes(profile) == ((0, 1, 2),)
        assert result.details == {"classes": 1}

    def test_four_cycle_alternating_classes(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]
        g = GameInstance(topology_from_edges(4, edges), (0.3, 0.6, 0.3, 0.6))
        w = np.zeros((4, 4))
        w[0, 1], w[1, 2], w[2, 3], w[3, 0] = 0.3, 0.6, 0.3, 0.6
        profile = AllocationProfile(w)
        assert is_nash(g, profile, tol=1e-10).is_nash
        assert check_cycle_parity(g, profile).status == "pass"
        assert parity_classes(profile) == ((0, 2), (1, 3))

    def test_violating_cycle_reported(self):
        # directed 2-cycle with unequal... even classes are singletons, so use
        # an odd 3-cycle with unequal budgets on a symmetric topology (not NE)
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]
        g = GameInstance(topology_from_edges(3, edges), (0.5, 0.4, 0.5))
        w = np.zeros((3, 3))
        w[0, 1] = 0.5
        w[1, 2] = 0.4
        w[2, 0] = 0.5
        result = check_cycle_parity(g, AllocationProfile(w))
        assert result.status == "fail"
        assert result.witnesses

    def test_inapplicable_on_directed_topology(self):
        # (0, 1) present without (1, 0): not symmetric
        g = GameInstance(topology_from_edges(2, [(0, 1), (0, 0), (1, 1)]), (0.5, 0.25))
        assert check_cycle_parity(g, AllocationProfile.zeros(2)).status == "inapplicable"


class TestParityClasses:
    """The 2-path parity classes against simple-cycle enumeration."""

    @staticmethod
    def random_digraph(seed: int) -> AllocationProfile:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        return AllocationProfile(mask * rng.uniform(0.1, 1.0, (n, n)) / n)

    def test_partition_matches_unbounded_enumeration(self):
        nontrivial = 0
        for seed in range(300):
            w = self.random_digraph(seed)
            g = complete_instance((0.5,) * w.n)
            _, expected = cycle_parity_oracle(g, w, 1e-10, np.zeros(w.n), cycle_bound=w.n)
            assert parity_classes(w) == expected, seed
            nontrivial += bool(expected)
        assert nontrivial > 150

    def test_verdict_matches_enumeration_on_separated_values(self):
        # values are exactly equal or 0.3 apart, so chaining within tol
        # cannot tell a class-wide test from a per-cycle one
        verdicts = {"pass": 0, "fail": 0}
        for seed in range(150):
            rng = np.random.default_rng(seed + 7000)
            topo = undirected_game(seed, n_min=3, n_max=9).topology
            levels = 1 if rng.random() < 0.5 else 2
            budgets = tuple(0.3 * float(rng.integers(1, levels + 1)) for _ in range(topo.n))
            g = GameInstance(topo, budgets)
            w = random_feasible_profile(g, seed)
            levels = 1 if rng.random() < 0.5 else 3
            c = rng.integers(1, levels + 1, size=g.n).astype(float)
            expected, _ = cycle_parity_oracle(g, w, 1e-10, c, cycle_bound=g.n)
            result = check_cycle_parity(g, w, 1e-10, centralities=c)
            assert result.status == expected, seed
            assert (len(result.witnesses) > 0) == (expected == "fail")
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 30

    def test_witness_cycles_run_through_their_class(self):
        for n in (12, 16, 100):
            g = complete_instance((0.5,) * n)
            w = circulant_profile(g, 5, seed=n)
            result = check_cycle_parity(g, w)
            assert result.status == "fail" and result.witnesses
            for witness in result.witnesses:
                agents = witness["agents"]
                assert agents == sorted(set(agents))
                cycle = [a - 1 for a in witness["cycle"]]
                assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
                assert all(w.weights[a, b] > 0 for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                assert {cycle[0] + 1, cycle[2] + 1} <= set(agents)

    def test_functional_graph_cycles(self):
        # out-degree one, as at BRD terminals: odd cycles give one class,
        # even cycles two, and a tree feeding a cycle adds nothing
        n = 12
        w = np.zeros((n, n))
        for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 3), (8, 7)]:
            w[a, b] = 0.5
        w[9, 9] = w[10, 11] = w[11, 10] = 0.5
        assert parity_classes(AllocationProfile(w)) == ((0, 1, 2), (3, 5), (4, 6))

    @pytest.mark.parametrize("n", [1500, 1499])
    def test_long_directed_cycle(self, n):
        # longer than the default recursion limit, so only an iterative search
        # finishes: an even cycle splits into its two alternating halves, an
        # odd one is a single class
        w = np.zeros((n, n))
        w[np.arange(n), (np.arange(n) + 1) % n] = 0.5
        expected = (tuple(range(0, n, 2)), tuple(range(1, n, 2))) if n % 2 == 0 else (tuple(range(n)),)
        assert parity_classes(AllocationProfile(w)) == expected


class TestAgainstNetworkx:
    """The CSR routes against the former networkx forms, kept as oracles."""

    @staticmethod
    def random_support(seed: int) -> AllocationProfile:
        """n <= 40, sparse to dense, with random self-loops and empty rows."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 41))
        density = min(1.0, float(rng.choice([1.0, 2.0, 4.0])) / n + float(rng.uniform(0, 0.3)))
        mask = rng.random((n, n)) < density
        mask[np.diag_indices(n)] = rng.random(n) < 0.3
        mask[rng.random(n) < 0.15] = False
        return AllocationProfile(mask * rng.uniform(0.1, 1.0, (n, n)) / n)

    @staticmethod
    def functional_graph(seed: int) -> AllocationProfile:
        """At most one successor per agent, as at BRD terminals from zero."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 41))
        w = np.zeros((n, n))
        succ = rng.integers(n, size=n)
        keep = rng.random(n) < 0.9
        w[np.flatnonzero(keep), succ[keep]] = 0.5
        return AllocationProfile(w)

    @staticmethod
    def annotations(n: int, seed: int) -> tuple[tuple[float, ...], np.ndarray]:
        """Budgets and centralities on two or three levels, so that some
        components and classes are uniform and others are not."""
        rng = np.random.default_rng(seed)
        budgets = tuple(0.2 * float(rng.integers(1, 3)) for _ in range(n))
        c = rng.integers(1, int(rng.integers(1, 4)) + 1, size=n).astype(float)
        return budgets, c

    def check_routes(self, w: AllocationProfile, seed: int) -> int:
        """Assert equal condensation, classes and witnesses; return the number
        of closing 2-paths with more than one shortest back-path."""
        budgets, c = self.annotations(w.n, seed)
        assert scc_condensation(w) == scc_condensation_nx(w)
        assert scc_condensation(w, budgets, c, 1e-10) == scc_condensation_nx(w, budgets, c, 1e-10)
        g = complete_instance(budgets)
        assert check_cycle_parity(g, w, 1e-10, centralities=c) == check_cycle_parity_nx(
            g, w, 1e-10, centralities=c
        )

        support, digraph = w.support, support_digraph_nx(w)
        ours, theirs = _parity_two_paths(support), parity_two_paths_nx(digraph, w.weights)
        assert [members for members, _ in ours] == [members for members, _ in theirs]
        for (_, rows), (_, expected) in zip(ours, theirs):
            np.testing.assert_array_equal(rows, expected)

        # a witness cycle starts with a closing 2-path u -> v -> x and goes
        # back along a shortest x ~> u path avoiding v: compare those paths
        # for a sample of closing 2-paths
        rows = np.concatenate([np.empty((0, 3), dtype=int)] + [r for _, r in theirs])
        ties = 0
        for u, v, x in np.random.default_rng(seed).permutation(rows)[:6].tolist():
            view = nx.restricted_view(digraph, [v], [])
            back = support.shortest_path(x, u, avoid=v)
            assert back == bfs_path_nx(digraph, x, u, avoid=v)
            assert len(back) == len(nx.shortest_path(view, x, u))
            ties += len(list(itertools.islice(nx.all_shortest_paths(view, x, u), 2))) > 1
        return ties

    def test_random_supports(self):
        ties = sum(self.check_routes(self.random_support(seed), seed) for seed in range(300))
        assert ties > 300

    def test_functional_graphs(self):
        for seed in range(200):
            self.check_routes(self.functional_graph(seed), seed)

    def test_deep_chain_needs_no_recursion(self):
        # a 1500-agent path closed into one cycle: deeper than the default
        # recursion limit of 1000
        n = 1500
        w = np.zeros((n, n))
        w[np.arange(n), (np.arange(n) + 1) % n] = 0.1
        cond = scc_condensation(AllocationProfile(w))
        assert [c.members for c in cond.components] == [tuple(range(n))]
        w[n - 1, 0] = 0.0
        cond = scc_condensation(AllocationProfile(w))
        assert len(cond.components) == n
        assert cond.edges == frozenset((k, k + 1) for k in range(n - 1))


class TestSinkDominance:
    def test_max_centrality_sits_in_a_sink(self):
        for seed in range(40):
            g = random_game(seed, n_max=12, self_loops=True)
            ne = find_ne(g, seed=seed + 7)
            c = katz_solve(ne)
            cond = scc_condensation(ne, budgets=g.budgets, centralities=c)
            top = np.argmax(c)
            assert next(comp for comp in cond.components if top in comp.members).is_sink


class TestReportAndDot:
    def test_run_structure_checks_bundle(self, i3, i3_ne):
        report, cond = run_structure_checks(i3, i3_ne)
        names = [c.name for c in report.checks]
        assert names == ["complete-closed-form", "hierarchy", "scc-uniformity", "cycle-parity"]
        assert not report.failures
        doc = report.to_json_dict()
        assert all(c["status"] in ("pass", "fail", "inapplicable") for c in doc["checks"])

    def test_dot_export(self, i3, i3_ne):
        c = katz_solve(i3_ne)
        cond = scc_condensation(i3_ne, budgets=i3.budgets, centralities=c)
        dot = export_condensation_dot(cond)
        assert dot.startswith("digraph condensation {")
        assert "doublecircle" in dot
        assert 'label="SCC0: 1, alpha=1, gamma=0.5"' in dot
        assert "scc1 -> scc0;" in dot

    def test_dot_marks_non_uniform(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 0.3
        cond = scc_condensation(
            AllocationProfile(w), budgets=(0.5, 0.4), centralities=np.array([1.0, 2.0]),
            centrality_tol=1e-10,
        )
        dot = export_condensation_dot(cond)
        assert "alpha=non-uniform" in dot
        assert "gamma=non-uniform" in dot


class TestSizes:
    """Every structure check rejects a profile, budgets or centralities whose
    size is not the instance's."""

    CHECKS = (check_complete_topology, check_hierarchy, check_scc_uniformity, check_cycle_parity)

    def test_profile_of_another_size_rejected(self):
        g = complete_instance((0.5, 0.25))  # every check applies
        for k in (1, 3):
            w = AllocationProfile(np.full((k, k), 0.1))
            message = re.escape(f"profile is {k}x{k} but instance has n=2")
            for check in self.CHECKS:
                with pytest.raises(ValueError, match=message):
                    check(g, w)
            with pytest.raises(ValueError, match=message):
                run_structure_checks(g, w)

    def test_centralities_of_another_shape_rejected(self, i3, i3_ne):
        for c in ([1.0], [1.0, 0.5, 0.0], np.ones((2, 1))):
            message = re.escape(f"centralities has shape {np.shape(c)}, expected (2,)")
            for check in self.CHECKS:
                with pytest.raises(ValueError, match=message):
                    check(i3, i3_ne, centralities=c)
            with pytest.raises(ValueError, match=message):
                scc_condensation(i3_ne, i3.budgets, c)

    def test_non_finite_centralities_rejected(self):
        # agent 1 puts 0.9 on agent 2, agent 2 puts 0.1 on itself
        g = complete_instance((0.9, 0.1))
        w = AllocationProfile(np.array([[0.0, 0.9], [0.0, 0.1]]))
        c = katz_solve(w)
        assert c[0] > c[1] + 1e-10
        assert check_hierarchy(g, w, centralities=c).status == "fail"
        rules = [x["rule"] for x in check_complete_topology(g, w, centralities=c).witnesses]
        assert rules.count("centrality") == 2
        for bad in ([np.nan, np.nan], [1.0, np.inf], [-np.inf, 0.1]):
            message = re.escape("centralities must be finite")
            for check in self.CHECKS:
                with pytest.raises(ValueError, match=message):
                    check(g, w, centralities=np.array(bad))
            with pytest.raises(ValueError, match=message):
                scc_condensation(w, g.budgets, np.array(bad))

    def test_budgets_of_another_length_rejected(self, i3, i3_ne):
        for budgets in ((0.5,), (0.5, 0.25, 0.1)):
            with pytest.raises(ValueError, match=re.escape(f"budgets has shape ({len(budgets)},), expected (2,)")):
                scc_condensation(i3_ne, budgets, katz_solve(i3_ne))


class TestTolerance:
    """Every structure check that takes a tolerance rejects one that is not
    finite and positive: with NaN every "spread > tol" test is false, and
    the checks would pass anything."""

    CHECKS = TestSizes.CHECKS + (run_structure_checks,)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_tol_rejected(self, tol):
        g = complete_instance((0.5,) * 6)
        w = circulant_profile(g, 3, 0)
        message = re.escape(f"tol must be finite and positive, got {tol}")
        for check in self.CHECKS:
            with pytest.raises(ValueError, match=message):
                check(g, w, tol)
        with pytest.raises(ValueError, match=message):
            scc_condensation(w, g.budgets, katz_solve(w), centrality_tol=tol)


class TestSupportCache:
    """Each profile builds its support once, whatever reads it, and frees it
    with itself; no profile is ever served another profile's support."""

    CHECKS = (
        "check_complete_topology",
        "check_hierarchy",
        "check_scc_uniformity",
        "check_cycle_parity",
        "scc_condensation",
    )

    @staticmethod
    def count_supports(monkeypatch) -> list[np.ndarray]:
        """The weights whose support is built from now on, in build order."""
        built = []

        class CountingSupport(_Support):
            def __init__(self, weights):
                built.append(weights)
                super().__init__(weights)

        monkeypatch.setattr(instance, "_Support", CountingSupport)
        return built

    def test_one_support_and_each_public_check_once_per_call(self, monkeypatch):
        built = self.count_supports(monkeypatch)
        top_level, open_calls = [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if not open_calls:
                    top_level.append(name)
                open_calls.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_calls.pop()

            return wrapper

        for name in self.CHECKS:
            monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))

        g_loops, w_loops = self_loop_experiment()
        complete = complete_instance((0.5,) * 12)
        directed = GameInstance(topology_from_edges(3, [(0, 1), (1, 2), (2, 0)]), (0.5, 0.5, 0.5))
        cases = [
            (g_loops, w_loops),
            (complete, circulant_profile(complete, 5, seed=1)),
            (complete, find_ne(complete)),
            (directed, AllocationProfile(np.roll(np.eye(3), 1, axis=1) * 0.5)),
        ]
        for g, w in cases:
            built.clear()
            top_level.clear()
            run_structure_checks(g, w)
            assert len(built) == 1 and built[0] is w.weights
            assert top_level == list(self.CHECKS)

    def test_alternating_profiles_match_the_oracles(self):
        games = [undirected_game(seed) for seed in range(12)] + [complete_instance((0.5,) * 8)]
        for seed, g in enumerate(games):
            profiles = (random_profile(g, seed), find_ne(g, seed=seed))
            assert not np.array_equal(profiles[0].weights > 0, profiles[1].weights > 0)
            c = [katz_solve(w) for w in profiles]
            oracles = []
            for w, cw in zip(profiles, c):
                # checks without a networkx twin, each on a copy of w with no support built
                fresh = [
                    check(g, AllocationProfile(w.weights), 1e-10, centralities=cw)
                    for check in (check_complete_topology, check_hierarchy, check_scc_uniformity)
                ]
                oracles.append(
                    (
                        fresh,
                        check_cycle_parity_nx(g, w, 1e-10, centralities=cw),
                        scc_condensation_nx(w, g.budgets, cw, 1e-10),
                        [m for m, _ in parity_two_paths_nx(support_digraph_nx(w), w.weights)],
                    )
                )
            for k in (0, 1, 0, 1, 1, 0):
                w, cw = profiles[k], c[k]
                fresh, parity, cond, classes = oracles[k]
                assert [
                    check(g, w, 1e-10, centralities=cw)
                    for check in (check_complete_topology, check_hierarchy, check_scc_uniformity)
                ] == fresh
                assert check_cycle_parity(g, w, 1e-10, centralities=cw) == parity
                assert scc_condensation(w, g.budgets, cw, 1e-10) == cond
                assert list(parity_classes(w)) == classes
                report, condensation = run_structure_checks(g, w, 1e-10)
                assert report.checks == (*fresh, parity)
                assert condensation == cond

    def test_each_profile_builds_its_support_once(self, monkeypatch):
        built = self.count_supports(monkeypatch)
        g = complete_instance((0.5,) * 8)
        profiles = (circulant_profile(g, 3, seed=1), find_ne(g))
        for k in (0, 1, 0, 1, 1, 0):
            w = profiles[k]
            run_structure_checks(g, w)
            for check in (check_complete_topology, check_hierarchy, check_scc_uniformity, check_cycle_parity):
                check(g, w)
            scc_condensation(w)
            parity_classes(w)
        assert len(built) == 2 and all(a is w.weights for a, w in zip(built, profiles))

    def test_profile_is_freed_with_its_caller(self):
        g = complete_instance((0.5,) * 8)  # every check applies and reads the support
        calls = (
            run_structure_checks,
            check_complete_topology,
            check_hierarchy,
            check_scc_uniformity,
            check_cycle_parity,
            lambda g, w: scc_condensation(w),
            lambda g, w: parity_classes(w),
        )
        for call in calls:
            w = circulant_profile(g, 3, seed=1)
            alive = weakref.ref(w)
            call(g, w)
            del w
            gc.collect()
            assert alive() is None

    def test_shortest_path_with_no_route_raises(self):
        # 0 -> 1 -> 2 and 0 -> 2: nothing reaches 0, and 0 ~> 2 avoiding 1 is the direct edge
        w = AllocationProfile(np.array([[0.0, 0.2, 0.2], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]]))
        assert w.support.shortest_path(0, 2, avoid=1) == [0, 2]
        with pytest.raises(ValueError, match=re.escape("no path from 2 to 0 avoiding 1")):
            w.support.shortest_path(2, 0, avoid=1)
        w = AllocationProfile(np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match=re.escape("no path from 0 to 2 avoiding 1")):
            w.support.shortest_path(0, 2, avoid=1)
