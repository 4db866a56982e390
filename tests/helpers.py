"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from katzforge import (
    AllocationProfile,
    BrdConfig,
    GameInstance,
    Scheduler,
    generate_random_instance,
    run_brd,
    topology_from_edges,
)

# Agreement bound between independent computation routes, relative to
# max(1, max |value|): the dense and resolvent routes, or run_brd and the
# brd_reference oracle.
CROSS_CHECK_TOL = 1e-10

# The paper's reported complete-topology example: its budgets and the
# equilibrium centralities it reports, to two decimals.
REPORTED_BUDGETS = (0.2, 0.2, 0.2, 0.83, 0.83, 0.83, 0.69, 0.69, 0.69, 0.17)
REPORTED_C_STAR = np.array([1.15] * 3 + [4.77] * 3 + [3.98] * 3 + [0.98])


def edge_set(topology) -> set[tuple[int, int]]:
    """The topology's 0-based edges (i, j), read from its row-major keys."""
    return {divmod(k, topology.n) for k in topology.keys.tolist()}


def with_row(w: AllocationProfile, i: int, row) -> AllocationProfile:
    """``w`` with agent i's row replaced by ``row``."""
    a = np.array(w.weights)
    a[i, :] = row
    return AllocationProfile(a)


def complete_instance(budgets, self_loops: bool = True) -> GameInstance:
    n = len(budgets)
    adj = [(i, j) for i in range(n) for j in range(n) if self_loops or i != j]
    return GameInstance(topology_from_edges(n, adj), tuple(budgets))


def random_game(
    seed: int,
    n_min: int = 2,
    n_max: int = 12,
    budget_lo: float = 0.1,
    budget_hi: float = 0.85,
    self_loops: bool | None = None,
    density: float | None = None,
) -> GameInstance:
    """Varied random instance: seeded n, density and self-loop choice."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    if density is None:
        density = float(rng.uniform(0.2, 1.0))
    if self_loops is None:
        self_loops = bool(rng.random() < 0.5)
    return generate_random_instance(
        n, density, self_loops, (budget_lo, budget_hi), int(rng.integers(2**31))
    )


def undirected_game(
    seed: int,
    n_min: int = 3,
    n_max: int = 10,
    budget_lo: float = 0.1,
    budget_hi: float = 0.85,
    self_loops: bool = True,
) -> GameInstance:
    """Random symmetric underlying topology (optionally with all self-loops)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    density = float(rng.uniform(0.2, 0.9))
    adj: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj.add((i, j))
                adj.add((j, i))
    if self_loops:
        adj.update((i, i) for i in range(n))
    for i in range(n):
        if not any(e[0] == i for e in adj):
            j = int(rng.integers(n - 1))
            j = j if j < i else j + 1
            adj.add((i, j))
            adj.add((j, i))
    budgets = tuple(float(b) for b in rng.uniform(budget_lo, budget_hi, size=n))
    return GameInstance(topology_from_edges(n, adj), budgets)


def find_ne(g: GameInstance, seed: int = 0, tol: float = 1e-10) -> AllocationProfile:
    """Certified Nash profile via the finitely terminating modified dynamics."""
    cfg = BrdConfig(scheduler=Scheduler.uniform_random(seed), tol=tol, mode="modified")
    trace = run_brd(g, AllocationProfile.zeros(g.n), cfg)
    assert trace.converged, f"modified BRD failed to terminate on {g}"
    return trace.terminal


def random_feasible_profile(g: GameInstance, seed: int) -> AllocationProfile:
    """Random profile exercising interior (non-single-edge) rows too."""
    rng = np.random.default_rng(seed)
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = g.topology.out_neighbors(i)
        mask = rng.random(len(nbrs)) < 0.7
        picks = [j for j, keep in zip(nbrs, mask) if keep]
        if not picks:
            continue
        raw = rng.uniform(0.05, 1.0, size=len(picks))
        target = g.budgets[i] * float(rng.uniform(0.1, 0.999))
        w[i, picks] = raw * (target / raw.sum())
    return AllocationProfile(w)


def single_edge_profile(g: GameInstance, seed: int) -> AllocationProfile:
    """Random profile in which every row is single-edge or, one in five,
    empty: 10-99.9% of B_i on one random underlying out-neighbor."""
    rng = np.random.default_rng(seed)
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = g.topology.out_neighbors(i)
        if rng.random() < 0.8:
            w[i, nbrs[int(rng.integers(len(nbrs)))]] = g.budgets[i] * float(rng.uniform(0.1, 0.999))
    return AllocationProfile(w)


def mixed_profile(g: GameInstance, seed: int) -> AllocationProfile:
    """``single_edge_profile``'s rows, with every other agent's row from
    ``random_feasible_profile``, which spreads it over several neighbors
    where the agent has them."""
    w = np.array(single_edge_profile(g, seed).weights)
    w[::2] = random_feasible_profile(g, seed).weights[::2]
    return AllocationProfile(w)


def circulant_profile(g: GameInstance, degree: int, seed: int) -> AllocationProfile:
    """Dense non-Nash profile on a complete topology: row i is positive on
    agents i, i+1, ..., i+degree-1 (mod n) and spends 20-95% of B_i."""
    rng = np.random.default_rng(seed)
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        cols = [(i + s) % g.n for s in range(degree)]
        raw = rng.uniform(0.1, 1.0, size=degree)
        w[i, cols] = raw / raw.sum() * g.budgets[i] * rng.uniform(0.2, 0.95)
    return AllocationProfile(w)
