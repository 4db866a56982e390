import itertools
import math

import numpy as np
import pytest

from helpers import (
    CROSS_CHECK_TOL,
    REPORTED_BUDGETS,
    REPORTED_C_STAR,
    complete_instance,
    mixed_profile,
    random_feasible_profile,
    random_game,
    single_edge_profile,
    with_row,
)
from katzforge import (
    AllocationProfile,
    BrdConfig,
    BrdStep,
    BrdTrace,
    FeasibilityError,
    Scheduler,
    equilibrium_centralities,
    best_response,
    generate_random_instance,
    improvement_gaps,
    is_nash,
    katz_solve,
    random_profile,
    run_brd,
    walk_decomposition,
    write_trace_allocations_json,
    write_trace_csv,
)
import katzforge.centrality
import katzforge.dynamics
from katzforge.centrality import InForest, Resolvent
from oracles import (
    ScheduleReference,
    brd_reference,
    write_trace_allocations_json_oracle,
    write_trace_csv_oracle,
)
from regenerate_corpus import CORPUS_DIR, game_of, read, run_case


class TestScheduler:
    def test_round_robin_cycles(self):
        state = Scheduler.round_robin().start(3)
        assert [state.pick() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_skips_to_candidates(self):
        state = Scheduler.round_robin().start(4)
        assert state.pick({2, 3}) == 2
        assert state.pick({0, 1}) == 0  # wraps past 3
        assert state.pick({3}) == 3

    def test_uniform_random_deterministic(self):
        a = Scheduler.uniform_random(5).start(6)
        b = Scheduler.uniform_random(5).start(6)
        assert [a.pick() for _ in range(20)] == [b.pick() for _ in range(20)]

    def test_uniform_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            Scheduler(kind="uniform-random")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError) as exc:
            Scheduler(kind="fifo")
        assert str(exc.value) == "unknown scheduler kind 'fifo'"

    def test_explicit_requires_a_nonempty_sequence(self):
        with pytest.raises(ValueError) as exc:
            Scheduler.explicit([])
        assert str(exc.value) == "explicit scheduler requires a nonempty sequence"

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError) as exc:
            Scheduler.uniform_random(-1)
        assert str(exc.value) == "seed must be a non-negative integer, got -1"

    def test_explicit_sequence_may_be_an_array(self):
        scheduler = Scheduler(kind="explicit", sequence=np.array([0, 1]))
        assert scheduler.sequence == (0, 1)
        assert all(type(i) is int for i in scheduler.sequence)
        with pytest.raises(ValueError, match="explicit scheduler requires a nonempty sequence"):
            Scheduler(kind="explicit", sequence=np.array([], dtype=int))

    def test_explicit_sequence_and_exhaustion(self):
        state = Scheduler.explicit([2, 0, 1]).start(3)
        assert [state.pick() for _ in range(4)] == [2, 0, 1, None]

    def test_explicit_skips_non_candidates(self):
        state = Scheduler.explicit([0, 1, 2]).start(3)
        assert state.pick({1, 2}) == 1
        assert state.pick({0}) is None  # 2 consumed, nothing left

    def test_explicit_out_of_range_rejected(self, i3, i3_ne):
        with pytest.raises(ValueError, match="out of range"):
            Scheduler.explicit([5]).start(3)
        # run_brd checks the schedule before the first step, even at a Nash start
        with pytest.raises(ValueError, match="out of range"):
            run_brd(i3, i3_ne, BrdConfig(scheduler=Scheduler.explicit([5])))

    def test_agents_and_seeds_must_be_integers(self):
        # int() would truncate 0.9 and 2.99 to agents 0 and 2, and read True as 1
        for sequence in ([0.9, 2.99], [True, 1], [0, np.float64(1.0)]):
            with pytest.raises(ValueError, match="scheduled agent must be an integer"):
                Scheduler.explicit(sequence)
        with pytest.raises(ValueError, match="scheduled agent must be an integer"):
            Scheduler(kind="explicit", sequence=(0, 1.5))
        for seed in (1.5, True, "1"):
            with pytest.raises(ValueError, match="scheduler seed must be an integer"):
                Scheduler.uniform_random(seed)
        explicit = Scheduler.explicit(np.array([2, 0], dtype=np.int32))
        assert explicit.sequence == (2, 0)
        assert all(type(i) is int for i in explicit.sequence)
        a, b = Scheduler.uniform_random(np.int64(5)).start(6), Scheduler.uniform_random(5).start(6)
        assert [a.pick() for _ in range(20)] == [b.pick() for _ in range(20)]

    def test_picks_match_reference(self):
        # n = 1..12 x three kinds x 40 schedules; each pick gets no candidate
        # set, an empty one, a random subset or a reversed list of one
        for n in range(1, 13):
            for seed in range(40):
                rng = np.random.default_rng(1000 * n + seed)
                for sched in (
                    Scheduler.round_robin(),
                    Scheduler.uniform_random(seed),
                    Scheduler.explicit(rng.integers(n, size=int(rng.integers(1, 4 * n + 1))).tolist()),
                ):
                    got, want = sched.start(n), ScheduleReference(sched, n)
                    for _ in range(4 * n + 2):
                        kind = int(rng.integers(4))
                        if kind == 0:
                            candidates = None
                        elif kind == 1:
                            candidates = []
                        else:
                            members = np.flatnonzero(rng.random(n) < rng.random()).tolist()
                            candidates = set(members) if kind == 2 else members[::-1]
                        assert got.pick(candidates) == want.pick(candidates)


class TestBrdConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            BrdConfig(max_steps=0)
        with pytest.raises(ValueError):
            BrdConfig(tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                BrdConfig(tol=tol)
        with pytest.raises(ValueError):
            BrdConfig(mode="other")

    def test_max_steps_must_be_an_integer(self, i3):
        # 2.5 used to run 2 steps, and True 1
        for max_steps in (2.5, True, 1.0, "3"):
            with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
                BrdConfig(max_steps=max_steps)
        cfg = BrdConfig(max_steps=np.int64(1), tol=1e-12)
        assert run_brd(i3, AllocationProfile.zeros(2), cfg).total_steps == 1


class TestRunBrd:
    def test_two_agent_hand_trace(self, i3):
        # first step: agent 1's self-loop scores f=2 against f=1 for the
        # empty opponent, so w_11 <- 0.5; second step: agent 2 targets agent 1
        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(tol=1e-10))
        assert trace.converged
        first = trace.steps[1]
        assert first.agent == 0
        np.testing.assert_array_equal(first.row, [0.5, 0.0])
        np.testing.assert_allclose(trace.steps[-1].centralities, [1.0, 0.5], atol=1e-10)
        np.testing.assert_allclose(katz_solve(trace.terminal), [1.0, 0.5], atol=1e-10)

    def test_nash_start_is_absorbing(self, i3, i3_ne):
        trace = run_brd(i3, i3_ne, BrdConfig(lazy=True))
        assert trace.converged
        assert trace.total_steps == 0
        np.testing.assert_array_equal(trace.terminal.weights, i3_ne.weights)

    def test_non_lazy_rewrites_preserve_centralities(self):
        g = complete_instance((0.5, 0.25, 0.25))
        # agent 2's self-loop is not a best response; the other rows are
        w0 = AllocationProfile(np.array([[0.5, 0, 0], [0.0, 0.25, 0], [0.25, 0, 0]]))
        trace = run_brd(g, w0, BrdConfig(lazy=False, tol=1e-10))
        assert trace.converged
        rewritten = [s for s in trace.steps[1:] if s.row is not None]
        assert rewritten
        cert = equilibrium_centralities(g, tol=1e-12)
        np.testing.assert_allclose(trace.steps[-1].centralities, cert.c_star, atol=1e-9)

    def test_reported_instance_uniform_random(self):
        g = complete_instance(REPORTED_BUDGETS)
        cfg = BrdConfig(scheduler=Scheduler.uniform_random(1), tol=1e-9)
        trace = run_brd(g, AllocationProfile.zeros(10), cfg)
        assert trace.converged
        c = trace.steps[-1].centralities
        assert np.max(np.abs(c - REPORTED_C_STAR) / REPORTED_C_STAR) < 0.05

    def test_step_limit_status(self, i3):
        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(max_steps=1, tol=1e-12))
        assert trace.status == "step-limit"
        assert trace.total_steps == 1

    def test_explicit_schedule_exhaustion_reports_step_limit(self, i3):
        cfg = BrdConfig(scheduler=Scheduler.explicit([0]), tol=1e-12)
        trace = run_brd(i3, AllocationProfile.zeros(2), cfg)
        assert trace.status == "step-limit"

    def test_explicit_schedule_can_converge(self, i3):
        cfg = BrdConfig(scheduler=Scheduler.explicit([0, 1]), tol=1e-10)
        trace = run_brd(i3, AllocationProfile.zeros(2), cfg)
        assert trace.converged

    def test_infeasible_start_rejected(self, i2):
        w = AllocationProfile(np.array([[0.9, 0.0], [0.0, 0.0]]))
        with pytest.raises(FeasibilityError):
            run_brd(i2, w)

    def test_monotone_centralities_and_nonnegative_residuals(self):
        for seed in range(40):
            g = random_game(seed, n_max=12)
            w0 = random_feasible_profile(g, seed + 17)
            trace = run_brd(g, w0, BrdConfig(tol=1e-8))
            hist = np.array([s.centralities for s in trace.steps])
            assert np.all(np.diff(hist, axis=0) >= -1e-12)
            assert all(s.residual >= 0 for s in trace.steps)

    def test_deterministic_for_fixed_seed(self):
        g = random_game(11, n_max=10)
        cfg = BrdConfig(scheduler=Scheduler.uniform_random(9), tol=1e-9)
        t1 = run_brd(g, AllocationProfile.zeros(g.n), cfg)
        t2 = run_brd(g, AllocationProfile.zeros(g.n), cfg)
        assert t1.total_steps == t2.total_steps
        np.testing.assert_array_equal(t1.terminal.weights, t2.terminal.weights)
        for a, b in zip(t1.steps, t2.steps):
            assert a.agent == b.agent
            np.testing.assert_array_equal(a.centralities, b.centralities)


class TestRunModifiedBrd:
    def test_two_agent_terminates_quickly(self, i3):
        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(mode="modified"))
        assert trace.converged
        assert trace.total_steps <= 4
        np.testing.assert_allclose(trace.steps[-1].centralities, [1.0, 0.5], atol=1e-10)

    def test_nash_start_returns_immediately(self, i3, i3_ne):
        trace = run_brd(i3, i3_ne, BrdConfig(mode="modified"))
        assert trace.converged
        assert trace.total_steps == 0

    def test_exact_nash_at_termination_and_strict_progress(self):
        for seed in range(60):
            g = random_game(seed, n_max=10)
            w0 = random_feasible_profile(g, seed + 3)
            tol = 1e-10
            trace = run_brd(g, w0, BrdConfig(mode="modified", tol=tol))
            assert trace.converged
            assert is_nash(g, trace.terminal, tol=tol).is_nash
            for prev, step in zip(trace.steps, trace.steps[1:]):
                assert step.centralities[step.agent] > prev.centralities[step.agent]

    def test_profiles_never_repeat(self):
        # strict per-step progress forbids revisiting any profile, which is
        # what bounds the run by the count of single-edge profiles
        for seed in range(30):
            g = random_game(seed, n_max=8)
            trace = run_brd(g, AllocationProfile.zeros(g.n), BrdConfig(mode="modified"))
            seen = {trace.steps[0].centralities.tobytes()}
            profiles = set()
            w = AllocationProfile.zeros(g.n)
            for step in trace.steps[1:]:
                w = with_row(w, step.agent, step.row)
                key = w.weights.tobytes()
                assert key not in profiles
                profiles.add(key)
            single_edge_count = math.prod(
                len(g.topology.out_neighbors(i)) for i in range(g.n)
            )
            assert trace.total_steps <= g.n + single_edge_count

    def test_move_that_does_not_raise_the_mover_is_an_error(self, i3, monkeypatch):
        # an update that hands back zero centralities, on the forest from
        # zero and on the resolvent from a start with a multi-edge row
        # (c_1 = 0.5 there); agent 1 moves first either way
        multi_edge = AllocationProfile(np.array([[0.2, 0.2], [0.0, 0.0]]))
        for holder, w0 in ((InForest, AllocationProfile.zeros(2)), (Resolvent, multi_edge)):
            with monkeypatch.context() as m:
                m.setattr(holder, "replace_row", lambda self, i, row: np.zeros(2))
                with pytest.raises(ArithmeticError, match="step 1: centrality of agent 1 did not strictly increase"):
                    run_brd(i3, w0, BrdConfig(mode="modified"))

    def test_respects_explicit_max_steps(self, i3):
        cfg = BrdConfig(mode="modified", max_steps=1, tol=1e-12)
        trace = run_brd(i3, AllocationProfile.zeros(2), cfg)
        assert trace.status == "step-limit"
        assert trace.total_steps == 1


def _assert_same_trace(got, want):
    """Agents, rows, status, step count and terminal weights bit for bit;
    centralities and residuals, which run_brd takes from its resolvent or
    in-forest and the reference from dense solves, within ``CROSS_CHECK_TOL``
    relative to max(1, max c)."""
    assert got.status == want.status
    assert got.total_steps == want.total_steps
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert (a.step, a.agent) == (b.step, b.agent)
        assert (a.row is None) == (b.row is None)
        if a.row is not None:
            np.testing.assert_array_equal(a.row, b.row)
        bound = CROSS_CHECK_TOL * max(1.0, float(np.max(b.centralities)))
        assert np.max(np.abs(a.centralities - b.centralities)) <= bound
        assert abs(a.residual - b.residual) <= bound
    np.testing.assert_array_equal(got.terminal.weights, want.terminal.weights)


def _assert_grid_matches_reference(games, mode, scheduler, step_limits):
    # zero, random, single-edge or mixed start x lazy on/off x each step limit:
    # the forest from the start, the resolvent handing over to the forest,
    # or the resolvent throughout
    for seed, g in games:
        if scheduler == "rr":
            sched = Scheduler.round_robin()
        elif scheduler == "random":
            sched = Scheduler.uniform_random(seed + 5)
        else:
            rng = np.random.default_rng(seed)
            sched = Scheduler.explicit(rng.integers(g.n, size=4 * g.n).tolist())
        starts = (
            AllocationProfile.zeros(g.n),
            random_feasible_profile(g, seed + 21),
            single_edge_profile(g, seed + 22),
            mixed_profile(g, seed + 23),
        )
        for w0 in starts:
            for lazy in (True, False):
                for max_steps in step_limits:
                    cfg = BrdConfig(scheduler=sched, max_steps=max_steps, lazy=lazy, mode=mode)
                    _assert_same_trace(run_brd(g, w0, cfg), brd_reference(g, w0, cfg))


class TestAgainstReference:
    """``run_brd`` against the dense per-step ``brd_reference``.  The
    ``test_bitwise_identical_traces*`` names keep their suite IDs; what each
    checks, through ``_assert_same_trace``, is that agents, rows, status,
    step counts and terminal weights match bit for bit, and that
    centralities and residuals match within ``CROSS_CHECK_TOL`` times
    max(1, max c)."""

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("scheduler", ["rr", "random", "explicit"])
    def test_bitwise_identical_traces(self, mode, scheduler):
        games = [(seed, random_game(seed)) for seed in range(20)]
        _assert_grid_matches_reference(games, mode, scheduler, (None, 3))

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("scheduler", ["rr", "random", "explicit"])
    def test_bitwise_identical_traces_near_one(self, mode, scheduler):
        # n from 20 to 40, budgets within 0.05 below 0.99 or 0.999
        games = [
            (seed, random_game(seed, 20, 40, budget_lo=hi - 0.05, budget_hi=hi))
            for seed, hi in zip(range(4), (0.99, 0.999) * 2)
        ]
        _assert_grid_matches_reference(games, mode, scheduler, (None,))

    @pytest.mark.parametrize("gen_seed, w0_seed", [(7004, 968797476), (104004, 2996645229)])
    def test_budgets_at_0999_match_reference(self, gen_seed, w0_seed):
        # c near 999: a c rounded at its own scale and amplified by 1 / (1 - B)
        # makes an agent already at its best response look like an improver
        g = generate_random_instance(60, 0.5, True, (0.999, 0.999), gen_seed)
        w0 = random_profile(g, w0_seed)
        cfg = BrdConfig(mode="modified")
        trace = run_brd(g, w0, cfg)
        assert trace.converged
        _assert_same_trace(trace, brd_reference(g, w0, cfg))

    def test_modified_mode_runs_modified_dynamics(self):
        g = random_game(3)
        w0 = AllocationProfile.zeros(g.n)
        tol = 1e-10
        trace = run_brd(g, w0, BrdConfig(mode="modified", tol=tol))
        _assert_same_trace(trace, brd_reference(g, w0, BrdConfig(mode="modified", tol=tol)))
        assert trace.config.mode == "modified"
        assert trace.converged
        w = w0
        for prev, step in zip(trace.steps, trace.steps[1:]):
            gaps = improvement_gaps(g, katz_solve(w))
            assert gaps[step.agent] > tol  # only improvers move
            assert step.centralities[step.agent] > prev.centralities[step.agent]
            w = with_row(w, step.agent, step.row)
        standard = run_brd(g, w0, BrdConfig(tol=tol))
        assert standard.config.mode == "standard"
        assert standard.total_steps != trace.total_steps


@pytest.fixture
def solves(monkeypatch):
    """Sizes of the systems passed to numpy.linalg.solve, in call order."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


class TestSolveCount:
    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_one_solve_per_run(self, solves, mode, lazy):
        # the resolvent build at step 0; the steps take c from its updates
        # and then from the forest's, whose checks all pass here, and solve
        # nothing
        tol = 1e-10
        for seed in range(10):
            g = random_game(seed, n_max=20, budget_hi=0.99)
            w0 = mixed_profile(g, seed + 21)
            solves.clear()
            trace = run_brd(g, w0, BrdConfig(mode=mode, lazy=lazy, tol=tol))
            responses = 0
            for prev, step in zip(trace.steps, trace.steps[1:]):
                c = prev.centralities
                gap = g.budgets[step.agent] * (
                    1 + max(c[j] for j in g.topology.out_neighbors(step.agent))
                ) - c[step.agent]
                responses += not (lazy and gap <= tol)
            assert responses > 0
            assert solves == [g.n]

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_no_solve_from_zero_or_a_single_edge_start(self, solves, mode, lazy, i3, i3_ne):
        # the forest holds every such run, and evaluates step 0's c itself
        cfg = BrdConfig(mode=mode, lazy=lazy, tol=1e-10)
        for seed in range(10):
            g = random_game(seed, n_max=20, budget_hi=0.99)
            assert run_brd(g, AllocationProfile.zeros(g.n), cfg).total_steps > 0
            assert run_brd(g, single_edge_profile(g, seed + 22), cfg).total_steps > 0
        assert run_brd(i3, i3_ne, cfg).total_steps == 0
        assert solves == []

    def test_nash_start_solves_once(self, solves):
        # a Nash profile with a multi-edge row: the tied neighbors share it
        g = complete_instance((0.5, 0.5))
        trace = run_brd(g, AllocationProfile(np.full((2, 2), 0.25)), BrdConfig(lazy=False))
        assert trace.total_steps == 0
        assert solves == [2]

    def test_equilibrium_makes_no_solve_and_no_n_by_n_array(self, solves):
        import tracemalloc

        n = 1000
        g = generate_random_instance(n, 0.02, True, (0.1, 0.9), 1)
        g.topology.neighbor_index  # built with the topology, not by the call
        tracemalloc.start()
        try:
            cert = equilibrium_centralities(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.iterations > 1
        assert solves == []
        assert peak < n * n  # an n x n float array takes 8 n^2 bytes

    def test_dense_best_response_factors_once(self, solves, i3):
        best_response(walk_decomposition(i3, AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]])), 0))
        assert solves == [2]


class TestPublicRoute:
    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_steps_call_the_public_functions(self, monkeypatch, mode, lazy):
        # each best-response step reads its move with the public best_response
        # and its gaps with the public improvement_gaps; step 0 takes gaps too
        movers, gap_calls = [], []

        def counting_best_response(wd):
            movers.append(wd.agent)
            return best_response(wd)

        def counting_gaps(g, c):
            gap_calls.append(c)
            return improvement_gaps(g, c)

        monkeypatch.setattr(katzforge.dynamics, "best_response", counting_best_response)
        monkeypatch.setattr(katzforge.dynamics, "improvement_gaps", counting_gaps)
        tol = 1e-10
        for seed in range(6):
            g = random_game(seed, n_max=15, budget_hi=0.99)
            w0 = random_feasible_profile(g, seed + 21)
            movers.clear()
            gap_calls.clear()
            trace = run_brd(g, w0, BrdConfig(mode=mode, lazy=lazy, tol=tol))
            responses = [
                step.agent
                for prev, step in zip(trace.steps, trace.steps[1:])
                if not (lazy and improvement_gaps(g, prev.centralities)[step.agent] <= tol)
            ]
            assert responses
            assert movers == responses
            assert len(gap_calls) == 1 + len(responses)


class TestResidualFallback:
    def test_failed_residual_check_refactors(self, monkeypatch):
        # an inverse perturbed beyond what one refinement step repairs gives
        # a c whose residual fails the check: the step must refactor the
        # inverse and record the refactored resolvent's certified c
        built = []
        init = Resolvent.__init__

        def corrupted(self, w):
            init(self, w)
            self._m *= 1.0 + 1e-3
            built.append(self)

        monkeypatch.setattr(Resolvent, "__init__", corrupted)
        for seed in range(10):
            g = random_game(seed, n_max=15)
            w0 = random_feasible_profile(g, seed + 21)
            built.clear()
            trace = run_brd(g, w0, BrdConfig(mode="modified"))
            first = trace.steps[1]  # every modified-mode step is a move
            [resolvent] = built
            assert resolvent.rebuilds == 1
            w = with_row(w0, first.agent, first.row)
            fresh = Resolvent.__new__(Resolvent)
            init(fresh, w)
            np.testing.assert_array_equal(first.centralities, fresh.centralities)
            want = katz_solve(w)
            bound = CROSS_CHECK_TOL * max(1.0, float(np.max(want)))
            assert np.max(np.abs(first.centralities - want)) <= bound
            assert first.residual == float(np.max(np.abs(improvement_gaps(g, first.centralities))))
            assert trace.converged

    def test_failed_check_after_refactor_raises(self, monkeypatch):
        # from the first update on, every residual is 1 whatever c is: the
        # update's check fails and refactors M, and the check on the fresh
        # factorization raises
        residual, replace_row = Resolvent._residual, Resolvent.replace_row
        armed = []

        def arming(self, i, row):
            armed.append(i)
            return replace_row(self, i, row)

        monkeypatch.setattr(Resolvent, "replace_row", arming)
        monkeypatch.setattr(
            Resolvent, "_residual", lambda self, c: np.ones_like(c) if armed else residual(self, c)
        )
        g = random_game(2)
        with pytest.raises(ArithmeticError, match="exceeds bound after a fresh factorization"):
            run_brd(g, random_feasible_profile(g, 23), BrdConfig(mode="modified"))
        assert len(armed) == 1

    def test_failed_forest_check_is_re_evaluated(self, monkeypatch, solves):
        # every in-tree update starts from c off by 1e-9: each move must
        # evaluate c again, count it, and record that evaluation's c, with
        # no solve
        forests = []
        init, replace_row = InForest.__init__, InForest.replace_row

        def recording(self, a):
            init(self, a)
            forests.append(self)

        def perturbed(self, i, row):
            self.centralities = self.centralities + 1e-9
            return replace_row(self, i, row)

        monkeypatch.setattr(InForest, "__init__", recording)
        monkeypatch.setattr(InForest, "replace_row", perturbed)
        for seed in range(10):
            g = random_game(seed, n_max=15)
            forests.clear()
            w = AllocationProfile.zeros(g.n)
            trace = run_brd(g, w, BrdConfig(mode="modified"))
            assert trace.converged
            forest = forests[0]
            assert forest.rebuilds == trace.total_steps > 0
            for step in trace.steps[1:]:
                w = with_row(w, step.agent, step.row)
                np.testing.assert_array_equal(step.centralities, InForest(w.weights).centralities)
                assert step.residual == float(np.max(np.abs(improvement_gaps(g, step.centralities))))
        assert solves == []

    def test_failed_check_after_re_evaluation_raises(self, monkeypatch):
        # from the first move on the forest, every residual is 1: the forest's
        # check fails, and so does the check of its fresh evaluation
        armed = []
        replace_row = InForest.replace_row
        residual = katzforge.centrality._forest_residual

        def arming(self, i, row):
            armed.append(i)
            return replace_row(self, i, row)

        monkeypatch.setattr(InForest, "replace_row", arming)
        monkeypatch.setattr(
            katzforge.centrality, "_forest_residual", lambda succ, w, c: np.ones_like(c) if armed else residual(succ, w, c)
        )
        g = random_game(2)
        for w0 in (AllocationProfile.zeros(g.n), single_edge_profile(g, 24)):
            armed.clear()
            with pytest.raises(ArithmeticError, match="residual 1.0 exceeds bound after a fresh evaluation"):
                run_brd(g, w0, BrdConfig(mode="modified"))
            assert len(armed) == 1

    def test_near_one_drift_is_re_evaluated(self, monkeypatch, solves):
        # near budgets of 1 the in-tree update's rounding alone breaks the
        # bound once on this run; the fresh evaluation mends it, with no solve
        forests = []
        init = InForest.__init__

        def recording(self, a):
            init(self, a)
            forests.append(self)

        monkeypatch.setattr(InForest, "__init__", recording)
        g = generate_random_instance(40, 0.3, True, (0.999995 - 1e-6, 0.999995), 11)
        trace = run_brd(g, AllocationProfile.zeros(g.n), BrdConfig(mode="modified"))
        assert trace.converged
        assert [f.rebuilds for f in forests] == [1]
        assert solves == []


class TestHandover:
    def test_forest_takes_over_when_the_last_multi_edge_row_goes(self, monkeypatch):
        # every move goes into the resolvent up to the one that replaces the
        # last multi-edge row of w0, and into the forest after it
        moves = []
        for cls in (InForest, Resolvent):
            monkeypatch.setattr(
                cls, "replace_row", lambda self, i, row, f=cls.replace_row, cls=cls: moves.append(cls) or f(self, i, row)
            )
        switched = 0
        for seed in range(20):
            g = random_game(seed, n_max=15)
            for w0 in (mixed_profile(g, seed + 23), random_feasible_profile(g, seed + 21), AllocationProfile.zeros(g.n)):
                multi_edge = set(np.flatnonzero(np.count_nonzero(w0.weights, axis=1) > 1).tolist())
                moves.clear()
                trace = run_brd(g, w0, BrdConfig(mode="modified"))
                agents = [s.agent for s in trace.steps[1:]]
                if multi_edge and multi_edge <= set(agents):
                    last = max(agents.index(i) for i in multi_edge)
                    switched += last + 1 < len(agents)
                else:
                    last = len(agents) - 1 if multi_edge else -1
                assert moves == [Resolvent] * (last + 1) + [InForest] * (len(agents) - last - 1)
        assert switched > 0


class TestWeightMatrix:
    """Moves go into the resolvent's profile; records and the terminal
    profile never share memory with it or with each other."""

    @staticmethod
    def _runs():
        for seed in range(6):
            g = random_game(seed, n_max=15, budget_hi=0.99)
            w0 = random_feasible_profile(g, seed + 21)
            for mode in ("standard", "modified"):
                for lazy in (True, False):
                    yield g, w0, BrdConfig(mode=mode, lazy=lazy)

    def test_one_profile_per_run(self, monkeypatch):
        built = []
        post_init = AllocationProfile.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(AllocationProfile, "__post_init__", counting)
        steps = 0
        for g, w0, cfg in self._runs():
            built.clear()
            trace = run_brd(g, w0, cfg)
            assert built == [trace.terminal]
            steps += trace.total_steps
        assert steps > 0

    def test_records_are_read_only_and_unshared(self):
        for g, w0, cfg in self._runs():
            before = w0.weights.copy()
            trace = run_brd(g, w0, cfg)
            np.testing.assert_array_equal(w0.weights, before)
            rows = [s.row for s in trace.steps[1:]]
            for s in trace.steps:
                assert not s.centralities.flags.writeable
            for k, row in enumerate(rows):
                assert not row.flags.writeable
                assert not np.shares_memory(row, trace.terminal.weights)
                assert not any(np.shares_memory(row, other) for other in rows[k + 1:])


class TestSelectAgents:
    """Modified BRD schedules only agents with a strictly better response: the
    first movers over many schedules are exactly the agents with gap > tol."""

    @staticmethod
    def _first_movers(g, w, tol=1e-10):
        schedulers = [Scheduler.round_robin()] + [Scheduler.uniform_random(s) for s in range(20)]
        movers = set()
        for sched in schedulers:
            trace = run_brd(g, w, BrdConfig(scheduler=sched, mode="modified", tol=tol, max_steps=1))
            if trace.total_steps:
                movers.add(trace.steps[1].agent)
            else:
                assert trace.converged
        gaps = improvement_gaps(g, katz_solve(w))
        assert movers == {i for i in range(g.n) if gaps[i] > tol}
        return movers

    def test_zero_profile_selects_everyone(self, i3):
        assert self._first_movers(i3, AllocationProfile.zeros(2)) == {0, 1}

    def test_nash_profile_selects_nobody(self, i3, i3_ne):
        assert self._first_movers(i3, i3_ne) == set()

    def test_partial_profile(self, i2):
        w = AllocationProfile(np.array([[0.0, 0.5], [0.0, 0.0]]))
        assert self._first_movers(i2, w) == {1}


class TestScheduleIndependence:
    def test_terminal_centralities_agree_across_schedules(self):
        tol = 1e-9
        for seed in range(10):
            g = random_game(seed, n_max=10)
            runs = [
                run_brd(g, AllocationProfile.zeros(g.n), BrdConfig(tol=tol)),
                run_brd(
                    g,
                    AllocationProfile.zeros(g.n),
                    BrdConfig(scheduler=Scheduler.uniform_random(seed + 1), tol=tol),
                ),
                run_brd(g, random_feasible_profile(g, seed), BrdConfig(tol=tol)),
            ]
            assert all(t.converged for t in runs)
            finals = [t.steps[-1].centralities for t in runs]
            for c in finals[1:]:
                assert np.max(np.abs(c - finals[0])) <= 10 * tol


class TestTraceArtifacts:
    def test_csv_format(self, i3, tmp_path):
        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(tol=1e-10))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, meta={"seed": 9, "tol": 1e-10})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# seed=9")
        assert lines[1] == "step,agent,residual,c_1,c_2"
        first_row = lines[2].split(",")
        assert first_row[0] == "0" and first_row[1] == ""  # initial record
        step_row = lines[3].split(",")
        assert step_row[1] == "1"  # agents are 1-based in artifacts
        # 17 significant digits round-trip
        assert float(lines[-1].split(",")[3]) == trace.steps[-1].centralities[0]

    def test_csv_exact_bytes(self, i3, tmp_path):
        # meta line ends in "\n", the header and data rows in "\r\n"
        w0 = AllocationProfile(np.array([[0.1, 0.2], [0.05, 0.1]]))
        trace = run_brd(i3, w0, BrdConfig(tol=1e-10))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, meta={"seed": 9, "tol": 1e-10})
        assert path.read_bytes() == (
            b"# seed=9 tol=1e-10\n"
            b"step,agent,residual,c_1,c_2\r\n"
            b"0,,0.31249999999999994,0.37500000000000006,0.18750000000000003\r\n"
            b"1,1,0.27777777777777773,1,0.22222222222222227\r\n"
            b"2,2,0,1,0.5\r\n"
        )

    @pytest.mark.parametrize(
        "meta",
        [{"w0": "file:a\nb.json"}, {"scheduler": "seq:1,2\r"}, {"a\nb": 1}, {"w0": "file:a\x0bb"}, {"w0": "file:a\u2028b"}],
    )
    def test_csv_meta_with_line_break_is_rejected(self, i3, tmp_path, meta):
        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(tol=1e-10))
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="contains a line break"):
            write_trace_csv(trace, path, meta=meta)
        assert not path.exists()

    def test_csv_without_meta_has_single_header(self, i3, tmp_path):
        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(tol=1e-10))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[0] == "step,agent,residual,c_1,c_2"

    def test_allocations_json(self, i3, tmp_path):
        import json

        trace = run_brd(i3, AllocationProfile.zeros(2), BrdConfig(tol=1e-10))
        path = tmp_path / "trace.alloc.json"
        write_trace_allocations_json(trace, path, meta={"seed": 9})
        doc = json.loads(path.read_text())
        assert doc["status"] == "converged"
        assert doc["steps"][0]["agent"] is None
        assert doc["steps"][1]["agent"] == 1
        np.testing.assert_array_equal(doc["terminal_weights"], trace.terminal.weights)

    @pytest.mark.parametrize("meta", [{"seed": 9, "tol": 1e-10}, None])
    def test_allocations_json_exact_bytes(self, i3, tmp_path, meta):
        # agent 2 never moves, so its 17-digit initial row is the terminal one
        w0 = AllocationProfile(np.array([[0.1, 0.2], [0.05, 1 / 30]]))
        cfg = BrdConfig(scheduler=Scheduler.explicit([0]), max_steps=1, tol=1e-10)
        trace = run_brd(i3, w0, cfg)
        path = tmp_path / "trace.alloc.json"
        write_trace_allocations_json(trace, path, meta=meta)
        meta_text = b'{\n    "seed": 9,\n    "tol": 1e-10\n  }' if meta else b"{}"
        assert path.read_bytes() == (
            b'{\n  "meta": ' + meta_text + b',\n'
            b'  "status": "step-limit",\n  "total_steps": 1,\n  "steps": [\n'
            b'    {\n      "step": 0,\n      "agent": null,\n      "row": null\n    },\n'
            b'    {\n      "step": 1,\n      "agent": 1,\n      "row": [\n'
            b"        0.5,\n        0.0\n      ]\n    }\n  ],\n"
            b'  "terminal_weights": [\n    [\n      0.5,\n      0.0\n    ],\n'
            b"    [\n      0.05,\n      0.03333333333333333\n    ]\n  ]\n}\n"
        )


def _hand_trace(records, terminal) -> BrdTrace:
    """A trace of the given (agent, row, centralities, residual) records."""
    steps = tuple(
        BrdStep(k, agent, None if row is None else np.array(row, dtype=float), np.array(c, dtype=float), residual)
        for k, (agent, row, c, residual) in enumerate(records)
    )
    return BrdTrace(steps, AllocationProfile(np.array(terminal, dtype=float)), "step-limit", BrdConfig())


HAND_TRACES = {
    # -0.0 next to 0.0 in c, in rows and in the terminal weights
    "signed-zeros": _hand_trace(
        [
            (None, None, [0.0, -0.0, 1.5], 0.25),
            (0, [-0.0, 0.5, 0.0], [-0.0, 0.0, 1.5], 0.125),
            (2, [0.0, -0.0, 0.75], [-0.0, -0.0, 1.5], 0.0),
        ],
        [[-0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, -0.0, 0.75]],
    ),
    # an entry moves away and comes back, another repeats, then all change
    "repeat-and-return": _hand_trace(
        [
            (None, None, [1 / 3, 2.0, 1e-300], 1.0),
            (1, [0.1, 0.0, 0.2], [0.1, 2.0, 1e-300], 0.5),
            (0, [0.0, 0.3, 0.0], [1 / 3, 2.0, 1e-300], 0.5),
            (0, [0.0, 0.3, 0.0], [1 / 3, 2.0, 1e-300], 0.5),
            (2, [1e-17, 0.0, 0.0], [2.0, 1 / 3, 5e-324], 0.0),
        ],
        [[0.0, 0.3, 0.0], [0.1, 0.0, 0.2], [1e-17, 0.0, 0.0]],
    ),
    # CSV records where every entry changed are written whole; the partial
    # ones after them take their cells from the whole row
    "whole-then-partial": _hand_trace(
        [
            (None, None, [1.0, 2.0, 3.0], 1.0),
            (0, [0.0, 0.5, 0.0], [1.0, 2.5, 3.0], 0.5),
            (1, [0.25, 0.0, 0.0], [-0.0, 0.1, 1e-300], 0.25),
            (2, [0.0, 0.0, 0.0], [-0.0, 0.1, 1e-300], 0.25),
            (0, [0.0, 0.0, 0.125], [0.0, 0.1, 7.0], 0.0),
            (1, [0.5, 0.0, 0.0], [1 / 3, 2 / 3, 1.0], 0.0),
            (2, [0.0, 0.25, 0.0], [1 / 3, 2 / 3, 1.5], 0.0),
        ],
        [[0.0, 0.0, 0.125], [0.5, 0.0, 0.0], [0.0, 0.25, 0.0]],
    ),
    "n1": _hand_trace([(None, None, [0.0], 0.5), (0, [0.5], [1.0], 0.0), (0, [0.5], [1.0], 0.0)], [[0.5]]),
    "step0-only": _hand_trace([(None, None, [0.5, 0.25], 0.0)], [[0.0, 0.5], [0.25, 0.0]]),
}


class TestWritersMatchOracles:
    """Both trace writers format only what changed or is nonzero; the oracles
    format every float, and the bytes must be the same."""

    @staticmethod
    def _assert_same_bytes(trace, tmp_path, meta):
        for write, oracle, suffix in (
            (write_trace_csv, write_trace_csv_oracle, ".csv"),
            (write_trace_allocations_json, write_trace_allocations_json_oracle, ".alloc.json"),
        ):
            got, want = tmp_path / f"got{suffix}", tmp_path / f"want{suffix}"
            write(trace, got, meta)
            oracle(trace, want, meta)
            assert got.read_bytes() == want.read_bytes(), suffix

    @pytest.mark.parametrize("meta", [{"seed": 3, "w0": "random"}, None])
    @pytest.mark.parametrize("name", HAND_TRACES)
    def test_hand_built_traces(self, name, meta, tmp_path):
        self._assert_same_bytes(HAND_TRACES[name], tmp_path, meta)

    @pytest.mark.parametrize("name", sorted(p.name.removesuffix(".json.xz") for p in CORPUS_DIR.glob("*.json.xz")))
    def test_corpus_games(self, name, tmp_path):
        doc = read(CORPUS_DIR / f"{name}.json.xz")
        g = game_of(doc)
        for mode, w0 in itertools.product(("standard", "modified"), ("zero", "random")):
            trace = run_case(g, doc, {"mode": mode, "scheduler": "rr", "lazy": True, "w0": w0})
            self._assert_same_bytes(trace, tmp_path, {"mode": mode, "w0": w0})
