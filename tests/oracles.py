"""Independent oracles used to freeze expected values.

These deliberately avoid the routes used by the package: walk masses are
obtained by literal path enumeration (exponential, small cases) and by
per-length series accumulation (any depth), Katz centralities by the
truncated walk series, an agent's centrality as the fractional-linear
function (d . row) / (1 - q . row) of its own row, best responses by one
full solve per single-edge allocation, c* by value iteration rather than
policy iteration, strongly connected components by transitive closure, and
cycle-parity classes by enumerating simple cycles, so results can be checked
against genuinely different computations.  The ``*_nx`` routines are the
structure checks' former networkx forms (SCCs, condensation and parity
classes), which the CSR routes must match exactly; ``bfs_path_nx`` takes a
witness back-path from networkx's breadth-first tree (``bfs_predecessors``)
on the support with its edges inserted row-major, which
``_Support.shortest_path`` must match exactly.  ``v_map_dense`` and
``equilibrium_dense_oracle`` keep the dense-mask forms of the v map and of
policy iteration, which the CSR routes must match bitwise, and
``brd_reference`` keeps the dense two-loop form of the dynamics (one loop
per mode), whose agents, rows and terminal weights ``run_brd`` must
reproduce bitwise.  ``ScheduleReference`` keeps
the per-kind branches of the agent scheduler, whose picks
``Scheduler.start(n)`` must reproduce exactly.  ``write_trace_csv_oracle``
and ``write_trace_allocations_json_oracle`` format every float of every
record, and the package's trace writers, which format only the entries that
changed or are nonzero, must write the same bytes.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np

from helpers import edge_set, with_row
from katzforge import (
    AllocationProfile,
    BestResponseResult,
    BrdConfig,
    BrdTrace,
    EquilibriumCertificate,
    FeasibilityError,
    GameInstance,
    WalkDecomposition,
    best_response,
    is_nash,
    katz_solve,
    v_map,
    walk_decomposition,
)
from katzforge.analysis import (
    FAIL,
    INAPPLICABLE,
    PASS,
    CheckResult,
    CondensationGraph,
    SccComponent,
    _centralities,
    _closing_two_paths,
)
from katzforge.centrality import _single_edge_centralities
from katzforge.dynamics import (
    CONVERGED,
    ROUND_ROBIN,
    STEP_LIMIT,
    STEP_LIMIT_FACTOR,
    UNIFORM_RANDOM,
    Scheduler,
    _record,
)
from katzforge.game import DEFAULT_TOL, SWITCH_MARGIN_ULPS, TIE_REL_TOL, improvement_gaps
from katzforge.instance import BUDGET_EQ_TOL, _philox, require_feasible


def katz_series(w: AllocationProfile | np.ndarray, depth: int) -> np.ndarray:
    """Truncated walk series sum_{k=1..depth} A^k 1, the independent oracle
    for ``katz_solve``.  Per-entry truncation error is at most
    B_M^(depth+1) / (1 - B_M) where B_M bounds the row sums."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    a = w.weights if isinstance(w, AllocationProfile) else np.asarray(w, dtype=float)
    term = a @ np.ones(a.shape[0])
    acc = term.copy()
    for _ in range(depth - 1):
        term = a @ term
        acc += term
    return acc


def fractional_linear_centrality(row: np.ndarray, wd: WalkDecomposition) -> float:
    """Centrality of the focal agent i of ``wd`` as a fractional-linear
    function of its own row: (sum_j d[j] w_ij) / (1 - sum_j q[j] w_ij).

    Agrees with ``katz_solve`` entrywise to ``CROSS_CHECK_TOL`` on feasible
    profiles.
    """
    row = np.asarray(row, dtype=float)
    if row.shape != wd.q.shape:
        raise ValueError(f"row has shape {row.shape}, expected {wd.q.shape}")
    if np.any(row < 0):
        raise ValueError("row must be nonnegative")
    support = set(np.nonzero(row > 0)[0].tolist())
    if not support <= set(wd.neighbors):
        raise FeasibilityError("row allocates outside the underlying neighborhood")
    if row.sum() > wd.budget:
        raise FeasibilityError(f"row sum {row.sum()} exceeds budget {wd.budget}")

    denom = 1.0 - float(wd.q @ row)
    if denom <= 0:
        raise FeasibilityError(f"fractional-linear denominator {denom} is not positive")
    return float(wd.d @ row) / denom


def support_mask(g: GameInstance) -> np.ndarray:
    """Dense n x n boolean mask of the underlying topology, built from its
    edge set."""
    mask = np.zeros((g.n, g.n), dtype=bool)
    for i, j in edge_set(g.topology):
        mask[i, j] = True
    return mask


def is_feasible_dense(g: GameInstance, w: AllocationProfile) -> bool:
    """Support and budget test through the dense mask, the reference for
    ``is_feasible``."""
    off_support = (w.weights > 0) & ~support_mask(g)
    return not off_support.any() and bool(np.all(w.weights.sum(axis=1) <= g.budget_array))


def v_map_dense(g: GameInstance, x: np.ndarray) -> np.ndarray:
    """v_i(x) = B_i (1 + max_{j in N_i} x_j) through the dense n x n support
    mask; max is exact, so ``v_map`` must agree bitwise."""
    best = np.where(support_mask(g), x[np.newaxis, :], -np.inf).max(axis=1)
    if np.any(np.isneginf(best)):
        raise ValueError("an agent has no underlying out-neighbors")
    return g.budget_array * (1.0 + best)


def equilibrium_dense_oracle(g: GameInstance, tol: float = DEFAULT_TOL) -> EquilibriumCertificate:
    """Policy iteration with the neighbor argmax taken over an n x n score
    matrix masked by the dense support, each policy evaluated by the same
    kernel; ``equilibrium_centralities`` must match its c*, round count and
    residual bitwise."""
    support = support_mask(g)
    agents = np.arange(g.n)
    succ = support.argmax(axis=1)  # any start will do: first neighbor
    rounds = 0
    while True:
        c = _single_edge_centralities(succ.tolist(), g.budgets)
        gaps = improvement_gaps(g, c)
        rounds += 1
        scores = np.where(support, c, -np.inf)
        best = scores.argmax(axis=1)
        margin = SWITCH_MARGIN_ULPS * np.finfo(float).eps * c.max()
        switch = scores[agents, best] > c[succ] + margin
        if not switch.any():
            break
        succ = np.where(switch, best, succ)

    residual = float(np.max(np.abs(gaps)))
    if residual > tol:
        raise ArithmeticError(f"equilibrium residual {residual} exceeds tol {tol}")
    return EquilibriumCertificate(
        c_star=c, iterations=rounds, residual=residual, contraction_rate=g.b_max, tol=tol
    )


def best_response_oracle(
    g: GameInstance, i: int, w: AllocationProfile, tie_tol: float = TIE_REL_TOL
) -> BestResponseResult:
    """Independent best-response route: evaluate every single-edge allocation
    B_i e_j by a full centrality solve and take the argmax (ties within
    ``tie_tol`` relative, as ``best_response`` breaks them)."""
    require_feasible(g, w)
    values: list[tuple[int, float]] = []
    for j in g.topology.out_neighbors(i):
        trial = np.zeros(g.n)
        trial[j] = g.budgets[i]
        values.append((j, float(katz_solve(with_row(w, i, trial))[i])))
    top = max(v for _, v in values)
    argmax_set = tuple(sorted(j for j, v in values if v >= top * (1.0 - tie_tol)))
    j_star = argmax_set[0]
    canonical = np.zeros(g.n)
    canonical[j_star] = g.budgets[i]
    achieved = dict(values)[j_star]
    return BestResponseResult(
        agent=i, argmax_set=argmax_set, canonical=canonical, achieved_value=achieved
    )


def unilateral_swap_check(
    g: GameInstance,
    w_star: AllocationProfile,
    i: int,
    x_row: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Swap agent i's row of a Nash profile for another best response and
    re-certify; the result must remain Nash.

    Preconditions (verified): ``w_star`` is Nash and the alternative row
    achieves the same centrality for i.
    """
    base = is_nash(g, w_star, tol)
    if not base.is_nash:
        raise ValueError(f"precondition failed: w_star is not Nash (residual {base.residual})")
    swapped = with_row(w_star, i, x_row)
    require_feasible(g, swapped)
    c_before = katz_solve(w_star)
    c_after = katz_solve(swapped)
    if abs(c_after[i] - c_before[i]) > tol:
        raise ValueError(
            "precondition failed: alternative row changes agent "
            f"{i + 1}'s centrality by {abs(c_after[i] - c_before[i])}"
        )
    return is_nash(g, swapped, tol).is_nash


class ScheduleReference:
    """The scheduler with one branch per kind: a stateful per-run selector.
    ``pick(candidates)`` restricts the draw to the given agents; round-robin
    scans forward, explicit sequences skip non-candidates, uniform-random
    draws uniformly among them."""

    def __init__(self, scheduler: Scheduler, n: int):
        self._kind = scheduler.kind
        self._n = n
        self._cursor = 0
        self._sequence = scheduler.sequence
        if self._kind == UNIFORM_RANDOM:
            self._rng = _philox(scheduler.seed)
        if self._sequence is not None:
            for i in self._sequence:
                if not 0 <= i < n:
                    raise ValueError(f"scheduled agent {i} out of range for n={n}")

    def pick(self, candidates=None) -> int | None:
        if self._kind == ROUND_ROBIN:
            allowed = None if candidates is None else set(candidates)
            for _ in range(self._n):
                i = self._cursor % self._n
                self._cursor += 1
                if allowed is None or i in allowed:
                    return i
            return None
        if self._kind == UNIFORM_RANDOM:
            pool = list(range(self._n)) if candidates is None else sorted(candidates)
            if not pool:
                return None
            return pool[int(self._rng.integers(len(pool)))]
        allowed = None if candidates is None else set(candidates)
        while self._cursor < len(self._sequence):
            i = self._sequence[self._cursor]
            self._cursor += 1
            if allowed is None or i in allowed:
                return i
        return None


def brd_reference(g: GameInstance, w0: AllocationProfile, cfg: BrdConfig) -> BrdTrace:
    """The dynamics as two separate dense loops, dispatched on ``cfg.mode``."""
    if cfg.mode == "modified":
        return _modified_brd_reference(g, w0, cfg)
    return _standard_brd_reference(g, w0, cfg)


def _standard_brd_reference(g: GameInstance, w0: AllocationProfile, cfg: BrdConfig) -> BrdTrace:
    require_feasible(g, w0)

    w = w0
    c = katz_solve(w)
    gaps = v_map(g, c) - c
    residual = float(np.max(np.abs(gaps)))
    steps = [_record(0, None, None, c, residual)]
    if residual <= cfg.tol:
        return BrdTrace(tuple(steps), w, CONVERGED, cfg)

    limit = cfg.max_steps if cfg.max_steps is not None else STEP_LIMIT_FACTOR * g.n
    state = cfg.scheduler.start(g.n)
    status = STEP_LIMIT
    for k in range(1, limit + 1):
        i = state.pick()
        if i is None:  # explicit schedule exhausted
            break
        if cfg.lazy and gaps[i] <= cfg.tol:
            row = w.weights[i].copy()
        else:
            br = best_response(walk_decomposition(g, w, i))
            row = br.canonical
            w = with_row(w, i, row)
            c = katz_solve(w)
            gaps = v_map(g, c) - c
            residual = float(np.max(np.abs(gaps)))
        steps.append(_record(k, i, row, c, residual))
        if residual <= cfg.tol:
            status = CONVERGED
            break
    return BrdTrace(tuple(steps), w, status, cfg)


def _modified_brd_reference(g: GameInstance, w0: AllocationProfile, cfg: BrdConfig) -> BrdTrace:
    require_feasible(g, w0)

    w = w0
    c = katz_solve(w)
    gaps = v_map(g, c) - c
    residual = float(np.max(np.abs(gaps)))
    steps = [_record(0, None, None, c, residual)]
    improvers = [i for i in range(g.n) if gaps[i] > cfg.tol]
    if not improvers:
        return BrdTrace(tuple(steps), w, CONVERGED, cfg)

    state = cfg.scheduler.start(g.n)
    status = CONVERGED
    k = 0
    while improvers:
        if cfg.max_steps is not None and k >= cfg.max_steps:
            status = STEP_LIMIT
            break
        i = state.pick(improvers)
        if i is None:  # explicit schedule exhausted
            status = STEP_LIMIT
            break
        k += 1
        br = best_response(walk_decomposition(g, w, i))
        w = with_row(w, i, br.canonical)
        c_next = katz_solve(w)
        if not c_next[i] > c[i]:
            raise ArithmeticError(
                f"step {k}: centrality of agent {i + 1} did not strictly increase"
            )
        c = c_next
        gaps = v_map(g, c) - c
        residual = float(np.max(np.abs(gaps)))
        steps.append(_record(k, i, br.canonical, c, residual))
        improvers = [j for j in range(g.n) if gaps[j] > cfg.tol]
    return BrdTrace(tuple(steps), w, status, cfg)


def write_trace_csv_oracle(trace: BrdTrace, path, meta: dict | None = None) -> None:
    """``write_trace_csv`` formatting every float of every record."""
    n = trace.n
    row_format = "%d,%s" + ",%.17g" * (n + 1) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        header = ["step", "agent", "residual"] + [f"c_{j + 1}" for j in range(n)]
        fh.write(",".join(header) + "\r\n")
        for s in trace.steps:
            agent = "" if s.agent is None else s.agent + 1
            fh.write(row_format % (s.step, agent, s.residual, *s.centralities.tolist()))


def _json_floats_oracle(values: list[float], depth: int) -> str:
    pad = " " * (depth + 2)
    return "[\n" + pad + (",\n" + pad).join(map(repr, values)) + "\n" + " " * depth + "]"


def write_trace_allocations_json_oracle(trace: BrdTrace, path, meta: dict | None = None) -> None:
    """``write_trace_allocations_json`` applying ``repr`` to every weight."""
    head = {"meta": meta or {}, "status": trace.status, "total_steps": trace.total_steps}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "steps": [\n')
        sep = ""
        for s in trace.steps:
            agent = "null" if s.agent is None else s.agent + 1
            row = "null" if s.row is None else _json_floats_oracle(s.row.tolist(), 6)
            fh.write(f'{sep}    {{\n      "step": {s.step},\n      "agent": {agent},\n      "row": {row}\n    }}')
            sep = ",\n"
        rows = ",\n".join("    " + _json_floats_oracle(r, 4) for r in trace.terminal.weights.tolist())
        fh.write(f'\n  ],\n  "terminal_weights": [\n{rows}\n  ]\n}}\n')


def brute_walk_sums(a: np.ndarray, i: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Literal enumeration of every walk up to ``max_len`` edges.

    Returns (S_avoid, S_hit) with shape (n, max_len): S_avoid[j, m-1] sums
    length-m walks from j that never touch i, S_hit[j, m-1] sums length-m
    walks from j whose only visit to i is the terminal node.
    """
    n = a.shape[0]
    s_avoid = np.zeros((n, max_len))
    s_hit = np.zeros((n, max_len))

    def rec(j0: int, v: int, length: int, weight: float) -> None:
        if length == max_len:
            return
        for u in range(n):
            wgt = weight * a[v, u]
            if wgt == 0.0:
                continue
            if u == i:
                s_hit[j0, length] += wgt
            else:
                s_avoid[j0, length] += wgt
                rec(j0, u, length + 1, wgt)

    for j0 in range(n):
        if j0 != i:
            rec(j0, j0, 0, 1.0)
    return s_avoid, s_hit


def series_pq(a: np.ndarray, i: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """p and q for focal agent i by accumulating the deleted-graph walk series
    to ``depth`` (per-entry tail below B_M^(depth+1) / (1 - B_M))."""
    n = a.shape[0]
    a0 = np.array(a)
    a0[i, :] = 0.0
    a0[:, i] = 0.0
    col = np.array(a[:, i])
    col[i] = 0.0

    p = np.zeros(n)
    q = np.zeros(n)
    vec_p = a0 @ np.ones(n)  # length-1 walks avoiding i
    vec_q = col.copy()  # length-1 walks ending at i
    for _ in range(depth):
        p += vec_p
        q += vec_q
        vec_p = a0 @ vec_p
        vec_q = a0 @ vec_q
    return p, q


def series_pq_per_length(a: np.ndarray, i: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-length variant of ``series_pq`` matching ``brute_walk_sums`` shapes."""
    n = a.shape[0]
    a0 = np.array(a)
    a0[i, :] = 0.0
    a0[:, i] = 0.0
    col = np.array(a[:, i])
    col[i] = 0.0

    s_avoid = np.zeros((n, max_len))
    s_hit = np.zeros((n, max_len))
    vec_p = a0 @ np.ones(n)
    vec_q = col.copy()
    for m in range(max_len):
        s_avoid[:, m] = vec_p
        s_hit[:, m] = vec_q
        vec_p = a0 @ vec_p
        vec_q = a0 @ vec_q
    return s_avoid, s_hit


def series_tail_bound(b_max: float, depth: int) -> float:
    return b_max ** (depth + 1) / (1.0 - b_max)


def value_iteration_oracle(g: GameInstance, tol: float) -> np.ndarray:
    """c* within ``tol`` by iterating x <- v(x) from 0 until the a-posteriori
    contraction bound ||x - c*|| <= B_M/(1-B_M) * ||step|| drops below tol.

    The stopping threshold falls below one ulp of c* as B_M nears 1, so keep
    B_M <= 0.99; the iteration cap turns a stall into a failure, not a hang.
    """
    bm = g.b_max
    threshold = tol * (1 - bm) / bm
    cap = max(1, math.ceil(math.log(threshold) / math.log(bm)) + 1) + 8
    x = np.zeros(g.n)
    for _ in range(cap + 1):
        x_next = v_map(g, x)
        assert np.all(x_next >= x)  # monotone from below: v is monotone, x starts at 0
        step = float(np.max(np.abs(x_next - x)))
        x = x_next
        if step <= threshold:
            return x
    raise ArithmeticError("value iteration exceeded its a-priori bound")


def same_scc_oracle(a: np.ndarray) -> np.ndarray:
    """Boolean matrix: i and j share a strongly connected component of the
    digraph with edges a > 0 iff each reaches the other (transitive closure
    by repeated squaring of the reflexive reachability matrix)."""
    reach = (a > 0) | np.eye(a.shape[0], dtype=bool)
    while True:
        closed = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if np.array_equal(closed, reach):
            return reach & reach.T
        reach = closed


def cycle_parity_oracle(
    g: GameInstance,
    w: AllocationProfile,
    tol: float,
    c: np.ndarray,
    cycle_bound: int,
) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Cycle parity by listing every simple cycle of the support up to
    ``cycle_bound`` agents (exponential): an odd cycle must be budget- and
    centrality-uniform, an even one on each alternating half.  Returns the
    per-cycle verdict ("pass"/"fail") and the classes of two or more agents
    that the cycles' ties join, members sorted, ordered by smallest member."""
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(w.n))
    digraph.add_edges_from(np.argwhere(w.weights > 0).tolist())
    parent = list(range(w.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    status = "pass"
    for cycle in nx.simple_cycles(digraph, length_bound=cycle_bound):
        halves = [cycle] if len(cycle) % 2 else [cycle[0::2], cycle[1::2]]
        for members in halves:
            buds = [g.budgets[v] for v in members]
            cents = [float(c[v]) for v in members]
            if max(buds) - min(buds) > BUDGET_EQ_TOL or max(cents) - min(cents) > tol:
                status = "fail"
            for v in members[1:]:
                parent[find(v)] = find(members[0])
    groups: dict[int, list[int]] = {}
    for v in range(w.n):
        groups.setdefault(find(v), []).append(v)
    return status, tuple(sorted(tuple(m) for m in groups.values() if len(m) > 1))


def support_digraph_nx(w: AllocationProfile) -> nx.DiGraph:
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(w.n))
    digraph.add_edges_from(np.argwhere(w.weights > 0).tolist())
    return digraph


def bfs_path_nx(support: nx.DiGraph, source: int, target: int, avoid: int) -> list[int]:
    """The source ~> target path (source != target) of networkx's
    breadth-first tree from ``source`` on ``support`` without ``avoid``:
    each agent's parent is the first agent that reached it."""
    parent = dict(nx.bfs_predecessors(nx.restricted_view(support, [avoid], []), source))
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def scc_condensation_nx(
    w: AllocationProfile,
    budgets: tuple[float, ...] | None = None,
    centralities: np.ndarray | None = None,
    centrality_tol: float = DEFAULT_TOL,
) -> CondensationGraph:
    """Condensation of the positive-weight digraph of ``w``; when budgets and
    centralities are supplied, components are annotated with their common
    values (or flagged non-uniform).  Members come back sorted and components
    ordered by smallest member, so the numbering is deterministic."""
    # disjoint sorted lists compare by their first (smallest) member
    support = support_digraph_nx(w)
    raw = sorted(sorted(comp) for comp in nx.strongly_connected_components(support))
    dag = nx.condensation(support, scc=raw)  # node k is component raw[k]

    components = []
    for k, comp in enumerate(raw):
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
                members=tuple(comp),
                is_sink=dag.out_degree(k) == 0,
                alpha=alpha,
                gamma=gamma,
                centrality_uniform=c_uniform,
                budget_uniform=b_uniform,
            )
        )
    return CondensationGraph(components=tuple(components), edges=frozenset(dag.edges))


def parity_two_paths_nx(support: nx.DiGraph, weights: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Parity classes of the ``support`` digraph of ``weights`` with their
    closing 2-paths.

    Every simple cycle x_1 -> ... -> x_L -> x_1 of length L >= 3 ties x_k to
    x_{k+2}, and those ties are exactly its 2-paths; conversely a 2-path
    u -> v -> w (u != w) lies on a simple cycle iff w reaches u without v.
    Classes are the connected components of these ties, so an odd cycle puts
    all its agents in one class and an even cycle its two alternating halves;
    a class may join several cycles.  The work is done per strongly connected
    component of m agents: each agent v runs one breadth-first pass from all
    its successors at once, one dense (outdeg v) x m x m product per level,
    and skips it when it has a single predecessor or successor, so a plain
    cycle costs O(m).  Returns the classes of two or more agents, members
    sorted and classes ordered by smallest member, each with its 2-paths as
    rows (u, v, w) of 0-based agents."""
    ties = nx.Graph()
    rows = [np.empty((0, 3), dtype=int)]
    for comp in nx.strongly_connected_components(support):
        if len(comp) < 3:  # two agents close only u -> v -> u, no pair u != w
            continue
        idx = np.array(sorted(comp))
        a = weights[np.ix_(idx, idx)] > 0
        np.fill_diagonal(a, False)
        rows.append(idx[_closing_two_paths(a)])
        ties.add_edges_from(rows[-1][:, [0, 2]].tolist())
    rows = np.concatenate(rows)
    classes = sorted(tuple(sorted(comp)) for comp in nx.connected_components(ties))
    return [(members, rows[np.isin(rows[:, 0], members)]) for members in classes]


def check_cycle_parity_nx(
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
    if not g.topology.is_symmetric():
        return CheckResult(name, INAPPLICABLE, details={"reason": "underlying topology not symmetric"})
    c = _centralities(w, centralities)
    support = support_digraph_nx(w)
    classes = parity_two_paths_nx(support, w.weights)
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
                back = bfs_path_nx(support, x, u, avoid=v)
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
