"""Structural verification of equilibrium networks: closed form on complete
topologies, hierarchy, SCC uniformity, condensation reporting, cycle parity.

Checks carry a three-way status: each structural claim is only asserted
under its hypotheses, so a check whose precondition fails reports
"inapplicable" rather than pass or fail.

Cycle parity covers every simple cycle of the support in polynomial time:
it never lists cycles, it tests the parity classes that their 2-paths
induce.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .centrality import katz_solve
from .game import DEFAULT_TOL, require_tol
from .instance import BUDGET_EQ_TOL, AllocationProfile, GameInstance

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


def _sweep(adjacent: list[list[int]], roots: Iterable[int]) -> list[tuple[int, ...]]:
    """Components grown from ``roots`` in turn: each root not yet taken takes
    every untaken agent it reaches through ``adjacent``.  Members sorted,
    components in the order of their roots."""
    taken = [False] * len(adjacent)
    found = []
    for root in roots:
        if taken[root]:
            continue
        taken[root] = True
        members = [root]
        for v in members:  # the list grows while it is read
            for u in adjacent[v]:
                if not taken[u]:
                    taken[u] = True
                    members.append(u)
        found.append(tuple(sorted(members)))
    return found


class _Support:
    """Positive-weight digraph of ``w`` as CSR arrays, its adjacency lists and
    its strongly connected components (Kosaraju's), each built on first use.
    Edges come row-major, so every agent's successors and predecessors ascend."""

    def __init__(self, w: AllocationProfile):
        self.weights = w.weights
        self.rows, self.cols = np.nonzero(w.weights > 0)

    def _lists(self, keys: np.ndarray, values: np.ndarray) -> list[list[int]]:
        # keys ascend, values ascend within each key
        offsets = np.searchsorted(keys, np.arange(len(self.weights) + 1)).tolist()
        flat = values.tolist()
        return [flat[a:b] for a, b in zip(offsets, offsets[1:])]

    @cached_property
    def succ(self) -> list[list[int]]:
        return self._lists(self.rows, self.cols)

    @cached_property
    def pred(self) -> list[list[int]]:
        order = np.argsort(self.cols, kind="stable")
        return self._lists(self.cols[order], self.rows[order])

    @cached_property
    def sccs(self) -> list[tuple[int, ...]]:
        """Strongly connected components, members sorted, ordered by smallest
        member: Kosaraju's two passes in O(n + m), a depth-first finish order
        over ``succ``, then a sweep over ``pred``, latest finished first."""
        succ = self.succ
        seen = [False] * len(succ)
        finished = []
        for root in range(len(succ)):
            if seen[root]:
                continue
            seen[root] = True
            path = [(root, iter(succ[root]))]
            while path:
                v, targets = path[-1]
                for u in targets:
                    if not seen[u]:  # descend; v's remaining targets wait
                        seen[u] = True
                        path.append((u, iter(succ[u])))
                        break
                else:  # v is finished
                    path.pop()
                    finished.append(v)
        return sorted(_sweep(self.pred, reversed(finished)))  # disjoint: by smallest member

    @cached_property
    def labels(self) -> np.ndarray:
        """labels[v] is the position of v's component in ``sccs``."""
        labels = np.empty(len(self.weights), dtype=np.intp)
        for k, members in enumerate(self.sccs):
            labels[list(members)] = k
        return labels

    def shortest_path(self, source: int, target: int, avoid: int) -> list[int]:
        """A shortest source ~> target path (source != target) that never
        enters ``avoid``, by breadth-first search from ``source``: successors
        are read in ascending order, each agent keeps the first agent that
        reached it, and the search stops when it reaches ``target``.  That
        is the path of networkx's ``bfs_predecessors`` on the support with
        its edges inserted row-major, which the tests pin it to."""
        reached_from = {source: None}
        fringe = [source]
        for a in fringe:  # the list grows while it is read
            for b in self.succ[a]:
                if b == avoid or b in reached_from:
                    continue
                reached_from[b] = a
                if b == target:
                    path = [b]
                    while reached_from[path[-1]] is not None:
                        path.append(reached_from[path[-1]])
                    return path[::-1]
                fringe.append(b)
        raise ValueError(f"no path from {source} to {target} avoiding {avoid}")


@lru_cache(maxsize=1)
def _support(w: AllocationProfile) -> _Support:
    """The support of ``w``, kept for the profile last asked about, so the
    checks of one ``run_structure_checks`` call build it once.  Profiles
    compare by identity and are read-only, and the cache holds its profile,
    so an entry can never be served for another profile."""
    return _Support(w)


@dataclass(frozen=True)
class SccComponent:
    members: tuple[int, ...]
    is_sink: bool
    alpha: float | None = None  # common centrality when annotated and uniform
    gamma: float | None = None  # common budget when annotated and uniform
    centrality_uniform: bool | None = None
    budget_uniform: bool | None = None


@dataclass(frozen=True)
class CondensationGraph:
    components: tuple[SccComponent, ...]
    edges: frozenset[tuple[int, int]]


def _require_sizes(
    n: int,
    w: AllocationProfile,
    budgets: tuple[float, ...] | None = None,
    centralities: np.ndarray | None = None,
) -> None:
    """Raise ValueError unless ``w`` is n x n and ``budgets`` and
    ``centralities``, when given, hold one value per agent.  Budget
    feasibility of ``w`` is not required: over-budget supports are analysed."""
    if w.n != n:
        raise ValueError(f"profile is {w.n}x{w.n} but instance has n={n}")
    for label, values in (("budgets", budgets), ("centralities", centralities)):
        if values is not None and np.shape(values) != (n,):
            raise ValueError(f"{label} has shape {np.shape(values)}, expected ({n},)")


def scc_condensation(
    w: AllocationProfile,
    budgets: tuple[float, ...] | None = None,
    centralities: np.ndarray | None = None,
    centrality_tol: float = DEFAULT_TOL,
) -> CondensationGraph:
    """Condensation of the positive-weight digraph of ``w``; when budgets and
    centralities are supplied, components are annotated with their common
    values (or flagged non-uniform).  Members come back sorted and components
    ordered by smallest member, so the numbering is deterministic."""
    require_tol(centrality_tol)
    _require_sizes(w.n, w, budgets, centralities)
    support = _support(w)
    # component edges and sinks in one pass over the support's edges
    tail, head = support.labels[support.rows], support.labels[support.cols]
    cross = tail != head
    has_out = np.zeros(len(support.sccs), dtype=bool)
    has_out[tail[cross]] = True

    components = []
    for k, comp in enumerate(support.sccs):
        alpha = gamma = None
        c_uniform = b_uniform = None
        if centralities is not None:
            vals = [float(centralities[v]) for v in comp]
            c_uniform = max(vals) - min(vals) <= centrality_tol
            alpha = float(np.mean(vals)) if c_uniform else None
        if budgets is not None:
            vals = [budgets[v] for v in comp]
            b_uniform = max(vals) - min(vals) <= BUDGET_EQ_TOL
            gamma = vals[0] if b_uniform else None
        components.append(
            SccComponent(
                members=comp,
                is_sink=not has_out[k],
                alpha=alpha,
                gamma=gamma,
                centrality_uniform=c_uniform,
                budget_uniform=b_uniform,
            )
        )
    edges = frozenset(zip(tail[cross].tolist(), head[cross].tolist()))
    return CondensationGraph(components=tuple(components), edges=edges)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    witnesses: tuple = ()
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "details": self.details,
        }


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    def to_json_dict(self) -> dict:
        return {"checks": [c.to_json_dict() for c in self.checks]}


def _centralities(w: AllocationProfile, centralities: np.ndarray | None) -> np.ndarray:
    return katz_solve(w) if centralities is None else np.asarray(centralities, dtype=float)


def check_complete_topology(
    g: GameInstance,
    w: AllocationProfile,
    tol: float = DEFAULT_TOL,
    centralities: np.ndarray | None = None,
) -> CheckResult:
    """On a complete underlying topology, a Nash profile must have
    c_i = B_i / (1 - B_M), exhaust every budget, and aim every positive edge
    at a maximum-budget agent."""
    name = "complete-closed-form"
    require_tol(tol)
    _require_sizes(g.n, w, centralities=centralities)
    if not g.topology.is_complete():
        return CheckResult(name, INAPPLICABLE, details={"reason": "topology not complete"})
    c = _centralities(w, centralities)
    bm = g.b_max
    expected = g.budget_array / (1.0 - bm)
    witnesses = []
    for i in range(g.n):
        if abs(c[i] - expected[i]) > tol:
            witnesses.append(
                {"agent": i + 1, "rule": "centrality", "got": float(c[i]), "want": float(expected[i])}
            )
    row_sums = w.weights.sum(axis=1)
    for i in range(g.n):
        if abs(row_sums[i] - g.budgets[i]) > BUDGET_EQ_TOL:
            witnesses.append(
                {"agent": i + 1, "rule": "budget-exhaustion", "got": float(row_sums[i])}
            )
    support = _support(w)
    for i, j in zip(support.rows.tolist(), support.cols.tolist()):
        if abs(g.budgets[j] - bm) > BUDGET_EQ_TOL:
            witnesses.append(
                {"edge": [i + 1, j + 1], "rule": "target-max-budget", "target_budget": g.budgets[j]}
            )
    status = PASS if not witnesses else FAIL
    return CheckResult(name, status, tuple(witnesses), details={"b_max": bm})


def check_hierarchy(
    g: GameInstance,
    w: AllocationProfile,
    tol: float = DEFAULT_TOL,
    centralities: np.ndarray | None = None,
) -> CheckResult:
    """With self-loops available everywhere, Nash agents only point at
    neighbors whose centrality is at least their own."""
    name = "hierarchy"
    require_tol(tol)
    _require_sizes(g.n, w, centralities=centralities)
    if not g.topology.has_all_self_loops():
        return CheckResult(name, INAPPLICABLE, details={"reason": "not all agents have self-loops"})
    c = _centralities(w, centralities)
    support = _support(w)
    witnesses = tuple(
        {"edge": [i + 1, j + 1], "c_source": float(c[i]), "c_target": float(c[j])}
        for i, j in zip(support.rows.tolist(), support.cols.tolist())
        if c[i] > c[j] + tol
    )
    return CheckResult(name, PASS if not witnesses else FAIL, witnesses)


def check_scc_uniformity(
    g: GameInstance,
    w: AllocationProfile,
    tol: float = DEFAULT_TOL,
    centralities: np.ndarray | None = None,
) -> CheckResult:
    """Members of one SCC of a Nash network share budget and centrality; an
    SCC of size >= 2 also forces its common centrality onto any SCC it points at."""
    name = "scc-uniformity"
    require_tol(tol)
    _require_sizes(g.n, w, centralities=centralities)
    if not g.topology.has_all_self_loops():
        return CheckResult(name, INAPPLICABLE, details={"reason": "not all agents have self-loops"})
    c = _centralities(w, centralities)
    cond = scc_condensation(w, g.budgets, c, tol)
    witnesses = []
    for k, comp in enumerate(cond.components):
        if comp.centrality_uniform is False:
            witnesses.append({"scc": k, "rule": "centrality-uniform", "agents": [v + 1 for v in comp.members]})
        if comp.budget_uniform is False:
            witnesses.append({"scc": k, "rule": "budget-uniform", "agents": [v + 1 for v in comp.members]})
    for a, b in sorted(cond.edges):
        src = cond.components[a]
        if len(src.members) < 2 or src.alpha is None:
            continue
        for v in cond.components[b].members:
            if abs(float(c[v]) - src.alpha) > tol:
                witnesses.append(
                    {
                        "scc": a,
                        "rule": "alpha-propagation",
                        "target_scc": b,
                        "agent": v + 1,
                        "alpha": src.alpha,
                        "got": float(c[v]),
                    }
                )
    return CheckResult(name, PASS if not witnesses else FAIL, tuple(witnesses))


def _closing_two_paths(a: np.ndarray) -> np.ndarray:
    """Rows (u, v, w) of local indices into the strongly connected adjacency
    ``a`` (no self-loops): every ordered pair u != w with u -> v -> w such that
    w reaches u without v, i.e. every pair two steps apart on a simple cycle,
    with v the smallest middle agent that closes one.  Rows sorted by (u, w)."""
    m = len(a)
    step = a.astype(np.float32)
    mid = np.full((m, m), -1)
    for v in range(m):
        pred, succ = np.flatnonzero(a[:, v]), np.flatnonzero(a[v])
        if len(pred) == 1 or len(succ) == 1:
            # a shortest path from a successor back to a predecessor cannot
            # pass v: it would enter v from its only predecessor, or leave it
            # to its only successor, so it would revisit an agent
            closes = np.ones((len(succ), len(pred)), dtype=bool)
        else:
            # breadth-first from all of v's successors at once, never entering v
            reach = np.zeros((len(succ), m), dtype=bool)
            reach[np.arange(len(succ)), succ] = True
            frontier = reach
            while frontier.any():
                frontier = (frontier.astype(np.float32) @ step > 0) & ~reach
                frontier[:, v] = False
                reach |= frontier
            closes = reach[:, pred]
        wk, uk = np.nonzero(closes)
        u, w = pred[uk], succ[wk]
        new = (u != w) & (mid[u, w] < 0)
        mid[u[new], w[new]] = v
    u, w = np.nonzero(mid >= 0)
    return np.column_stack([u, mid[u, w], w])


def _parity_two_paths(support: _Support) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Parity classes of the ``support`` digraph with their closing 2-paths.

    Every simple cycle x_1 -> ... -> x_L -> x_1 of length L >= 3 ties x_k to
    x_{k+2}, and those ties are exactly its 2-paths; conversely a 2-path
    u -> v -> w (u != w) lies on a simple cycle iff w reaches u without v.
    Classes are the connected components of these ties, found by ``_sweep``,
    so an odd cycle puts all its agents in one class and an even cycle its
    two alternating halves; a class may join several cycles.  The work is
    done per strongly connected component of m agents: each agent v runs one
    breadth-first pass from all its successors at once, one dense
    (outdeg v) x m x m product per level, and skips it when it has a single
    predecessor or successor, so a plain cycle costs O(m).  Returns the
    classes of two or more agents, members sorted and classes ordered by
    smallest member, each with its 2-paths as rows (u, v, w) of 0-based
    agents."""
    n = len(support.weights)
    rows = [np.empty((0, 3), dtype=int)]
    for comp in support.sccs:
        if len(comp) < 3:  # two agents close only u -> v -> u, no pair u != w
            continue
        idx = np.array(comp)
        a = support.weights[np.ix_(idx, idx)] > 0
        np.fill_diagonal(a, False)
        rows.append(idx[_closing_two_paths(a)])
    rows = np.concatenate(rows)
    ties: list[list[int]] = [[] for _ in range(n)]
    for u, x in rows[:, [0, 2]].tolist():
        ties[u].append(x)
        ties[x].append(u)
    # roots ascend, so the classes come ordered by smallest member
    classes = [members for members in _sweep(ties, range(n)) if len(members) > 1]
    label = np.full(n, -1)
    for k, members in enumerate(classes):
        label[list(members)] = k
    row_labels = label[rows[:, 0]]
    return [(members, rows[row_labels == k]) for k, members in enumerate(classes)]


def parity_classes(w: AllocationProfile) -> tuple[tuple[int, ...], ...]:
    """Parity classes (0-based, two or more agents each) of the support of
    ``w``: the partition the cycle-parity check tests for uniformity."""
    return tuple(members for members, _ in _parity_two_paths(_support(w)))


def check_cycle_parity(
    g: GameInstance,
    w: AllocationProfile,
    tol: float = DEFAULT_TOL,
    centralities: np.ndarray | None = None,
) -> CheckResult:
    """On an undirected underlying topology, odd cycles of a Nash network are
    budget- and centrality-uniform and even cycles are uniform on each of the
    two alternating classes.  Every simple cycle is covered, in polynomial
    time: each parity class (see ``parity_classes``) must have a budget
    spread within ``BUDGET_EQ_TOL`` and a centrality spread within ``tol``.
    A failing class gives one witness with its rule, its members and a simple
    cycle: the class's worst 2-path u -> v -> x, closed by the shortest
    x ~> u path avoiding v that a breadth-first search from x, reading
    successors in ascending order, reaches first."""
    name = "cycle-parity"
    require_tol(tol)
    _require_sizes(g.n, w, centralities=centralities)
    if not g.topology.is_symmetric():
        return CheckResult(name, INAPPLICABLE, details={"reason": "underlying topology not symmetric"})
    c = _centralities(w, centralities)
    support = _support(w)
    classes = _parity_two_paths(support)
    witnesses = []
    for members, rows in classes:
        for rule, values, bound in (
            ("budget-uniform", g.budget_array, BUDGET_EQ_TOL),
            ("centrality-uniform", c, tol),
        ):
            vals = values[list(members)]
            if vals.max() - vals.min() > bound:
                u, v, x = rows[np.argmax(np.abs(values[rows[:, 0]] - values[rows[:, 2]]))].tolist()
                # the worst 2-path, closed by a shortest x ~> u path avoiding v
                back = support.shortest_path(x, u, avoid=v)
                witnesses.append(
                    {
                        "rule": rule,
                        "agents": [a + 1 for a in members],
                        "cycle": [a + 1 for a in [u, v] + back[:-1]],
                    }
                )
                break
    return CheckResult(
        name,
        PASS if not witnesses else FAIL,
        tuple(witnesses),
        details={"classes": len(classes)},
    )


def run_structure_checks(
    g: GameInstance,
    w: AllocationProfile,
    tol: float = DEFAULT_TOL,
) -> tuple[StructureReport, CondensationGraph]:
    """All applicable checks on one profile, sharing a single centrality solve
    and, through the support cache, one support digraph with its strongly
    connected components."""
    require_tol(tol)
    _require_sizes(g.n, w)
    c = katz_solve(w)
    checks = (
        check_complete_topology(g, w, tol, centralities=c),
        check_hierarchy(g, w, tol, centralities=c),
        check_scc_uniformity(g, w, tol, centralities=c),
        check_cycle_parity(g, w, tol, centralities=c),
    )
    return StructureReport(checks), scc_condensation(w, g.budgets, c, tol)


def export_condensation_dot(cond: CondensationGraph) -> str:
    """Graphviz DOT for the condensation; sink components are double-circled."""
    lines = ["digraph condensation {"]
    for k, comp in enumerate(cond.components):
        agents = ",".join(str(v + 1) for v in comp.members)
        label = f"SCC{k}: {agents}"
        if comp.alpha is not None:
            label += f", alpha={comp.alpha:.6g}"
        elif comp.centrality_uniform is False:
            label += ", alpha=non-uniform"
        if comp.gamma is not None:
            label += f", gamma={comp.gamma:.6g}"
        elif comp.budget_uniform is False:
            label += ", gamma=non-uniform"
        shape = "doublecircle" if comp.is_sink else "ellipse"
        lines.append(f'  scc{k} [label="{label}", shape={shape}];')
    for a, b in sorted(cond.edges):
        lines.append(f"  scc{a} -> scc{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
