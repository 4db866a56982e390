"""Katz centralities and the walk-decomposition quantities behind best responses.

Centrality vectors are plain float ndarrays of length n.  Every dense solve
is a residual-checked LU with partial pivoting; I - A is strictly row
diagonally dominant for any substochastic A, so the systems are well
conditioned at desk scale.  ``katz_solve`` factors I - A once per call.
One formula reads an agent's walk decomposition off its first-visit sums q
and the Katz centralities c of A.  ``walk_decomposition`` gets both from one
solve with agent i's row zeroed.  Two classes hold a profile that changes
one row at a time together with its certified c, and read decompositions
off it in O(n):

- ``Resolvent`` holds any profile with M = (I - A)^-1, which gives q as
  column i of M over m_ii.  It keeps M across row changes by O(n^2)
  Sherman-Morrison updates, and certifies c when it is built and after each
  update: M 1 - 1 after one step of iterative refinement, once its residual
  passes the bound ``katz_solve`` checks.  A failed check refactors M and
  certifies again.
- ``InForest`` holds a profile in which every row has at most one positive
  entry, a functional graph, with no n x n matrix.  q lives on agent i's
  in-tree, and a row change updates c on the mover's in-tree alone; each
  update passes the same residual check, in O(n), or the O(n) kernel
  ``_single_edge_centralities`` evaluates c again.

Best-response dynamics keep their profile in one of them and take every
record's targets and centralities from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import (
    AllocationProfile,
    FeasibilityError,
    GameInstance,
    _is_index_type,
    require_feasible,
)

# Residual bound for centralities and dense solves, scaled by n at the check site.
SOLVE_RESIDUAL_TOL = 1e-12


def _weights(w: AllocationProfile | np.ndarray) -> np.ndarray:
    if isinstance(w, AllocationProfile):
        return w.weights
    return np.asarray(w, dtype=float)


def _require_substochastic(a: np.ndarray) -> None:
    sums = a.sum(axis=1)
    if np.any(sums >= 1):
        bad = int(np.argmax(sums))
        raise FeasibilityError(
            f"row {bad + 1} has weight sum {sums[bad]} >= 1; walk series diverges"
        )


def _within_bound(r: np.ndarray) -> bool:
    """Whether the residual ``r`` of an n-row system is within
    ``SOLVE_RESIDUAL_TOL * n``."""
    return np.max(np.abs(r)) <= SOLVE_RESIDUAL_TOL * len(r)  # NaN fails too


def _solve_checked(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.linalg.solve(m, b)
    r = m @ x - b
    if not _within_bound(r):
        raise ArithmeticError(f"linear solve residual {np.max(np.abs(r))} exceeds bound")
    return x


def katz_solve(w: AllocationProfile | np.ndarray) -> np.ndarray:
    """Katz centralities of the network induced by ``w``: the solution of
    (I - A) c = A 1, i.e. the sum of all discounted walks from each agent.

    Requires all row sums < 1; the solve residual is verified against
    ``SOLVE_RESIDUAL_TOL * n``.
    """
    a = _weights(w)
    _require_substochastic(a)
    n = a.shape[0]
    return _solve_checked(np.eye(n) - a, a @ np.ones(n))


@dataclass(frozen=True)
class WalkDecomposition:
    """Per-agent decomposition of opponents' walk mass around a focal agent i.

    For each j:  p[j] sums walks from j that never reach i, q[j] sums walks
    from j that reach i exactly once and terminate there, d[j] = p[j] + q[j] + 1.
    Conventions q[i] = d[i] = 1; p[i] is not defined by the model and is
    stored as NaN so accidental reads are loud.  f[j] = d[j] / (1 - q[j] B_i)
    is defined for underlying out-neighbors j and is NaN elsewhere.
    All fields depend only on the opponents' rows.
    """

    agent: int
    p: np.ndarray
    q: np.ndarray
    d: np.ndarray
    f: np.ndarray
    neighbors: tuple[int, ...]
    budget: float


def _decomposition(g: GameInstance, i: int, q: np.ndarray, c: np.ndarray) -> WalkDecomposition:
    """Focal agent ``i``'s decomposition from its first-visit sums ``q``,
    which it takes over, and the centralities ``c`` of A, scoring its
    out-neighbors.

    Walks from j that reach i factor as a first visit times a walk from i:
    the first visits sum to q_j (column i of (I - A)^-1 over its entry at i),
    so p = c - q (1 + c_i).  Entries at i are then set by the conventions.
    """
    p = c - q * (1.0 + c[i])
    d = p + q + 1.0
    q[i] = 1.0
    d[i] = 1.0
    p[i] = np.nan

    b_i = g.budgets[i]
    nbrs = g.topology.out_neighbors(i)
    f = np.full(g.n, np.nan)
    for j in nbrs:
        denom = 1.0 - q[j] * b_i
        if denom <= 0:
            raise FeasibilityError(
                f"1 - q*B = {denom} for neighbor {j + 1} of agent {i + 1}; "
                "profile breaches the feasible region"
            )
        f[j] = d[j] / denom

    for arr in (p, q, d, f):
        arr.setflags(write=False)
    return WalkDecomposition(agent=i, p=p, q=q, d=d, f=f, neighbors=nbrs, budget=b_i)


def _require_agent(n: int, i: int) -> int:
    """``i`` as an int, or ValueError unless it is an integer (not a bool)
    in range(n); the message names the agent 1-based."""
    if not _is_index_type(type(i)):
        raise ValueError(f"agent index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise ValueError(f"agent {i + 1} out of range for n={n}")
    return int(i)


def walk_decomposition(g: GameInstance, w: AllocationProfile, i: int) -> WalkDecomposition:
    """Compute p, q, d, f for focal agent ``i`` by one solve with two
    right-hand sides, e_i and A 1: column i of (I - A)^-1 and c(A).

    A is A(w) with row i zeroed, so the result is independent of agent i's
    own row by construction.  ``game.best_response`` reads agent i's best
    response off it.
    """
    i = _require_agent(g.n, i)
    require_feasible(g, w)
    n = g.n
    a = np.array(w.weights)
    a[i] = 0.0
    x = _solve_checked(np.eye(n) - a, np.column_stack((np.arange(n) == i, a @ np.ones(n))))
    return _decomposition(g, i, x[:, 0] / x[i, 0], x[:, 1])


def _on_grid(x: np.ndarray, e: int) -> np.ndarray:
    """``x`` rounded to multiples of 2^(e - 26): at most 26 significant bits
    where |x| < 2^e, so that such values times 26-bit weights are exact."""
    scale = np.ldexp(1.0, 26 - e)
    y = x * scale
    np.round(y, out=y)
    y /= scale
    return y


def _residual(c: np.ndarray, hi, lo, a_1: np.ndarray) -> np.ndarray:
    """(I - A) c - A 1 for A = A_hi + A_lo, with A_hi on the grid of 2^-26,
    ``hi`` and ``lo`` the products x -> A_hi x and x -> A_lo x, and ``a_1``
    the row sums A 1: A_hi c_hi is exact (see ``Resolvent``)."""
    e = int(np.frexp(max(1.0, float(np.max(np.abs(c)))))[1])  # |c| < 2^e
    c_hi = _on_grid(c, e)
    small = hi(c - c_hi) + lo(c) + a_1
    return (c - hi(c_hi)) - small


def _forest_residual(succ: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(I - A) c - A 1 as ``Resolvent`` computes it, gathered in O(n), for
    weight ``w[u]`` on successor ``succ[u]`` (-1 and 0: an empty row)."""
    w_hi = _on_grid(w, 0)
    return _residual(c, lambda x: w_hi * x[succ], lambda x: (w - w_hi) * x[succ], w)


def _single_edge_centralities(succ: list[int], w: list[float]) -> np.ndarray:
    """Certified Katz centralities of the profile with weight ``w[u]`` on the
    successor ``succ[u]`` of each agent u (-1 and 0: an empty row), in O(n)
    Python arithmetic, on a line too: c_{i_1} = (sum_k prod_{m <= k} w_{i_m})
    / (1 - prod_m w_{i_m}) on each cycle i_1 -> ... -> i_L -> i_1, and
    c_u = w_u (1 + c_succ(u)) back from there or from an empty row, where
    c = 0.  ArithmeticError unless c passes ``_forest_residual``'s check."""
    n = len(succ)
    c = [0.0] * (n + 1)  # c[-1] = 0 past an empty row
    place = [-1] * n + [n]  # -1 unseen, n done or past an empty row, else the place on the path
    for start in range(n):
        path, u = [], start
        while place[u] < 0:
            place[u] = len(path)
            path.append(u)
            u = succ[u]
        k = place[u]  # below n: the path closed the cycle at u = i_1
        for v in path:
            place[v] = n
        if k < n:
            total, prod = 0.0, 1.0
            for v in path[k:]:
                prod *= w[v]
                total += prod
            c[u] = total / (1.0 - prod)
        for part in (path[k + 1:], path[:k]):  # the cycle past i_1, and the path up to u
            x = c[u]
            for v in reversed(part):
                x = c[v] = w[v] * (1.0 + x)
    c = np.array(c[:n])
    r = _forest_residual(np.array(succ, dtype=np.intp), np.array(w, dtype=float), c)
    if not _within_bound(r):
        raise ArithmeticError(f"centrality residual {np.max(np.abs(r))} exceeds bound after a fresh evaluation")
    return c


class Resolvent:
    """A profile A that changes one row at a time, with M = (I - A)^-1.

    Built by one residual-checked dense solve.  ``centralities`` holds the
    certified Katz centralities of the current profile: c = M 1 - 1 after
    one step of iterative refinement, accepted only when max |c - A c - A 1|
    is within ``SOLVE_RESIDUAL_TOL * n``, the bound ``katz_solve`` checks.
    Decompositions read it with column i of M.  ``replace_row`` applies the
    Sherman-Morrison update for a changed row and certifies again.  A
    non-positive update denominator or a failed check refactors M from
    scratch, counted in ``rebuilds``, and certifies once more; a check that
    fails right after a fresh factorization raises ArithmeticError.

    Near budgets of 1, M 1 - 1 is off by up to 1 / (1 - B_M) times the
    rounding of M, and so is a refinement whose residual is rounded at the
    scale of c: at B = 0.999 both reach the size of an improvement-gap
    tolerance.  So ``_residual`` rounds only terms of order 2^-26 max c and
    A 1.  A is kept only as A_hi + A_lo, exactly, with A_hi on the grid of
    2^-26, and A_hi times c rounded to 26 bits is a sum of products on one
    grid, which double precision holds exactly in any summation order.
    ``row`` and ``weights`` read A back as A_hi + A_lo, which is A.
    """

    def __init__(self, w: AllocationProfile | np.ndarray):
        a = np.array(_weights(w))
        _require_substochastic(a)
        self.rebuilds = 0
        self._a_1 = a.sum(axis=1)
        self._a_hi = _on_grid(a, 0)  # entries below 1
        a -= self._a_hi
        self._a_lo = a
        self._factor()
        self.centralities = self._certified(fresh=True)

    def _factor(self) -> None:
        n = len(self._a_1)
        self._m = _solve_checked(np.eye(n) - self.weights(), np.eye(n))

    def _residual(self, c: np.ndarray) -> np.ndarray:
        """(I - A) c - A 1, with A_hi c_hi exact (see the class docstring)."""
        return _residual(c, self._a_hi.__matmul__, self._a_lo.__matmul__, self._a_1)

    def _certified(self, fresh: bool) -> np.ndarray:
        """M 1 - 1 after one step of iterative refinement, once its residual
        passes the check; on a failure, ``fresh`` says whether M was just
        factored (raise) or may have drifted (refactor and check again)."""
        c = self._m.sum(axis=1) - 1.0
        c -= self._m @ self._residual(c)
        r = self._residual(c)
        if _within_bound(r):
            return c
        if fresh:
            raise ArithmeticError(
                f"centrality residual {np.max(np.abs(r))} exceeds bound after a fresh factorization"
            )
        self.rebuilds += 1
        self._factor()
        return self._certified(fresh=True)

    def row(self, i: int) -> np.ndarray:
        """A new array holding row ``i`` of A."""
        return self._a_hi[i] + self._a_lo[i]

    def weights(self) -> np.ndarray:
        """A new array holding A."""
        return self._a_hi + self._a_lo

    def decomposition(self, g: GameInstance, i: int) -> WalkDecomposition:
        """The walk decomposition of focal agent ``i`` in O(n)."""
        return _decomposition(g, i, self._m[:, i] / self._m[i, i], self.centralities)

    def replace_row(self, i: int, row: np.ndarray) -> np.ndarray:
        """Set row ``i`` of A to ``row`` and return the new ``centralities``,
        in O(n^2) unless M has to be refactored."""
        delta = row - self.row(i)
        self._a_hi[i] = _on_grid(row, 0)
        self._a_lo[i] = row - self._a_hi[i]
        self._a_1[i] = row.sum()
        delta_m = delta @ self._m
        denom = 1.0 - delta_m[i]
        if denom > 0:
            self._m += np.multiply.outer(self._m[:, i] / denom, delta_m)
        else:
            self.rebuilds += 1
            self._factor()
        self.centralities = self._certified(fresh=not denom > 0)
        return self.centralities


class InForest:
    """A profile in which every row has at most one positive entry, a
    functional graph: a successor and a weight per row (successor -1 for an
    empty row), each agent's set of predecessors, and the certified c.

    The walks that reach agent i run through i's in-tree, the agents whose
    path of successors reaches i before it leaves i again: q_u is the
    product of the weights on u's path to i, q_i = 1, and q = 0 off the
    tree.  ``decomposition`` walks the tree through the predecessor sets.
    ``replace_row`` moves i to a new successor j with weight w: by
    Sherman-Morrison read on the forest, c_i' = w d_j / (1 - q_j w), and
    each c_u on the tree moves by q_u (c_i' - c_i).  A c that fails the
    check of ``_forest_residual`` (near budgets of 1 the rounding of q_u
    times a large c_i' - c_i alone can) is evaluated again by
    ``_single_edge_centralities``, counted in ``rebuilds``."""

    def __init__(self, a: np.ndarray):
        """The profile ``a``, as an n x n array; c is evaluated from it."""
        rows, cols = np.nonzero(a)  # rows ascend
        if np.any(rows[1:] == rows[:-1]):
            raise ValueError("a row of the profile has more than one positive entry")
        n = len(a)
        self._succ = np.full(n, -1)
        self._succ[rows] = cols
        self._w = np.zeros(n)
        self._w[rows] = a[rows, cols]
        self._preds = [set() for _ in range(n)]
        for u, s in zip(rows.tolist(), cols.tolist()):
            self._preds[s].add(u)
        self.centralities = _single_edge_centralities(self._succ.tolist(), self._w.tolist())
        self.rebuilds = 0
        self._walk = None  # (i, its in-tree), kept by decomposition for one _in_tree call

    def _in_tree(self, i: int) -> tuple:
        """q, and i's in-tree breadth first from i.  The walk
        ``decomposition`` kept is taken once: rows change only after it."""
        walk, self._walk = self._walk, None
        if walk is not None and walk[0] == i:
            return walk[1]
        succ, w = self._succ, self._w
        nodes = [i]
        for v in nodes:  # breadth first, so that a successor's q comes first
            nodes.extend(u for u in self._preds[v] if u != i)
        q = np.zeros(len(succ))
        q[i] = 1.0
        for u in nodes[1:]:
            q[u] = w[u] * q[succ[u]]
        return q, np.array(nodes)

    def row(self, i: int) -> np.ndarray:
        """A new array holding row ``i`` of A."""
        row = np.zeros(len(self._succ))
        row[self._succ[i]] = self._w[i]  # an empty row's 0 lands at -1
        return row

    def weights(self) -> np.ndarray:
        """A new n x n array holding A."""
        n = len(self._succ)
        a = np.zeros((n, n))
        a[np.arange(n), self._succ] = self._w  # an empty row's 0 lands at column -1
        return a

    def decomposition(self, g: GameInstance, i: int) -> WalkDecomposition:
        """The walk decomposition of focal agent ``i``, in O(n) plus a walk
        of its in-tree."""
        tree = self._in_tree(i)
        self._walk = (i, tree)  # for the replace_row that usually follows
        return _decomposition(g, i, tree[0].copy(), self.centralities)

    def replace_row(self, i: int, row: np.ndarray) -> np.ndarray:
        """Set row ``i`` of A to ``row``, which has at most one positive
        entry, and return the new ``centralities``, in O(n) plus a walk of
        i's in-tree."""
        targets = np.flatnonzero(row)
        if len(targets) > 1:
            raise ValueError(f"row {i + 1} has more than one positive entry")
        q, nodes = self._in_tree(i)
        c = self.centralities.copy()
        j, w, c_i = -1, 0.0, 0.0
        if len(targets):
            j = int(targets[0])
            w = float(row[j])
            # d_j and q_j as _decomposition computes them
            d_j = 1.0 if j == i else c[j] - q[j] * (1.0 + c[i]) + q[j] + 1.0
            c_i = d_j * w / (1.0 - q[j] * w)
        c[nodes] += q[nodes] * (c_i - c[i])
        c[i] = c_i
        if self._succ[i] >= 0:
            self._preds[self._succ[i]].discard(i)
        if j >= 0:
            self._preds[j].add(i)
        self._succ[i], self._w[i] = j, w
        if not _within_bound(_forest_residual(self._succ, self._w, c)):
            self.rebuilds += 1
            c = _single_edge_centralities(self._succ.tolist(), self._w.tolist())
        self.centralities = c
        return c
