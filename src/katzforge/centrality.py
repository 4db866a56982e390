"""Katz centralities and the walk-decomposition quantities behind best responses.

Centrality vectors are plain float ndarrays of length n.  Every dense solve
is a residual-checked LU with partial pivoting; I - A is strictly row
diagonally dominant for any substochastic A, so the systems are well
conditioned at desk scale.  ``katz_solve`` factors I - A once per call.
One formula reads an agent's walk decomposition off column i of
M = (I - A)^-1 and the Katz centralities c of A.  ``walk_decomposition``
gets both from one solve with agent i's row zeroed.  ``Resolvent`` holds a
profile that changes one row at a time together with its M, which it keeps
across row changes by O(n^2) Sherman-Morrison updates, and its c, which it
certifies when it is built and after each update: M 1 - 1 after one step of
iterative refinement, once its residual passes the bound ``katz_solve``
checks.  A failed check refactors M and certifies again.  Decompositions
read the certified c, in O(n).  Best-response dynamics keep their profile in
it and take every record's targets and centralities from it.
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


def _solve_checked(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.linalg.solve(m, b)
    residual = np.max(np.abs(m @ x - b))
    if not residual <= SOLVE_RESIDUAL_TOL * m.shape[0]:  # NaN fails too
        raise ArithmeticError(f"linear solve residual {residual} exceeds bound")
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


def _decomposition(g: GameInstance, i: int, m_i: np.ndarray, c: np.ndarray) -> WalkDecomposition:
    """Focal agent ``i``'s decomposition from column i of a resolvent
    (I - A)^-1 and the centralities ``c`` of A, scoring its out-neighbors.

    Walks from j that reach i factor as a first visit times a walk from i:
    the first visits sum to q = m_i / m_ii, so p = c - q (1 + c_i).  Entries
    at i are then set by the conventions.
    """
    q = m_i / m_i[i]
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
    return _decomposition(g, i, x[:, 0], x[:, 1])


def _on_grid(x: np.ndarray, e: int) -> np.ndarray:
    """``x`` rounded to multiples of 2^(e - 26): at most 26 significant bits
    where |x| < 2^e, so that such values times 26-bit weights are exact."""
    scale = np.ldexp(1.0, 26 - e)
    y = x * scale
    np.round(y, out=y)
    y /= scale
    return y


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
        e = int(np.frexp(max(1.0, float(np.max(np.abs(c)))))[1])  # |c| < 2^e
        c_hi = _on_grid(c, e)
        small = self._a_hi @ (c - c_hi) + self._a_lo @ c + self._a_1
        return (c - self._a_hi @ c_hi) - small

    def _certified(self, fresh: bool) -> np.ndarray:
        """M 1 - 1 after one step of iterative refinement, once its residual
        passes the check; on a failure, ``fresh`` says whether M was just
        factored (raise) or may have drifted (refactor and check again)."""
        c = self._m.sum(axis=1) - 1.0
        c -= self._m @ self._residual(c)
        residual = np.max(np.abs(self._residual(c)))
        if residual <= SOLVE_RESIDUAL_TOL * len(c):  # NaN fails too
            return c
        if fresh:
            raise ArithmeticError(
                f"centrality residual {residual} exceeds bound after a fresh factorization"
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
        return _decomposition(g, i, self._m[:, i], self.centralities)

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
