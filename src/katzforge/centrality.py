"""Katz centralities and the walk-decomposition quantities behind best responses.

Centrality vectors are plain float ndarrays of length n.  Every solve is a
residual-checked dense LU with partial pivoting; I - A is strictly row
diagonally dominant for any substochastic A, so the systems are well
conditioned at desk scale.  ``katz_solve`` factors I - A once per call and
``walk_decomposition`` factors the deleted-graph matrix once.  ``Resolvent``
keeps M = (I - A)^-1 across single-row changes by Sherman-Morrison updates
and reads any agent's walk decomposition off M in O(n); best-response
dynamics use it to pick targets, while every recorded centrality still comes
from ``katz_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import AllocationProfile, FeasibilityError, GameInstance, require_feasible

# Residual bound for the dense solves, scaled by n at the check site.
SOLVE_RESIDUAL_TOL = 1e-12
# Agreement bound between independent computation routes.
CROSS_CHECK_TOL = 1e-10


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


def _decomposition(g: GameInstance, i: int, p: np.ndarray, q: np.ndarray) -> WalkDecomposition:
    """Assemble the decomposition of focal agent ``i`` from p and q (entries
    at i are overwritten by the conventions), scoring i's underlying
    out-neighbors."""
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


def walk_decomposition(g: GameInstance, w: AllocationProfile, i: int) -> WalkDecomposition:
    """Compute p, q, d, f for focal agent ``i`` via one solve on the deleted
    graph, with p and q as its two right-hand sides.

    Row i and column i of A(w) are zeroed before solving, so the result is
    independent of agent i's own row by construction.
    """
    require_feasible(g, w)
    a = w.weights
    n = a.shape[0]

    a0 = np.array(a)
    a0[i, :] = 0.0
    a0[:, i] = 0.0
    col_i = np.array(a[:, i])
    col_i[i] = 0.0

    x = _solve_checked(np.eye(n) - a0, np.column_stack((a0 @ np.ones(n), col_i)))
    p, q = np.array(x.T)
    return _decomposition(g, i, p, q)


class Resolvent:
    """M = (I - A)^-1 for a profile that changes one row at a time.

    Built by one residual-checked dense solve; ``replace_row`` applies the
    Sherman-Morrison update for a changed row and cross-checks the result
    against freshly solved centralities, refactoring from scratch when the
    check or the update's denominator fails.  ``rebuilds`` counts those
    refactorizations.
    """

    def __init__(self, w: AllocationProfile | np.ndarray):
        self._a = np.array(_weights(w))
        self.rebuilds = 0
        self._build()

    def _build(self) -> None:
        _require_substochastic(self._a)
        n = self._a.shape[0]
        self._m = _solve_checked(np.eye(n) - self._a, np.eye(n))
        self._s = self._m.sum(axis=1)

    def decomposition(self, g: GameInstance, i: int) -> WalkDecomposition:
        """The walk decomposition of focal agent ``i`` in O(n).

        Walks from j to i factor as a first visit times returns to i, so
        q = M[:, i] / M_ii.  Deleting i leaves the Schur complement, whose
        row sums give p + 1 = s - M[:, i] s_i / M_ii with s = M 1.
        """
        m_i = self._m[:, i]
        q = m_i / m_i[i]
        p = self._s - m_i * (self._s[i] / m_i[i]) - 1.0
        return _decomposition(g, i, p, q)

    def replace_row(self, i: int, row: np.ndarray, c: np.ndarray) -> None:
        """Set row ``i`` of A to ``row``; ``c`` are the Katz centralities of
        the new profile, solved independently, against which M 1 - 1 is
        checked to ``CROSS_CHECK_TOL`` relative to max(1, max c)."""
        delta = row - self._a[i]
        self._a[i] = row
        m_i = self._m[:, i]
        delta_m = delta @ self._m
        denom = 1.0 - delta_m[i]
        if denom > 0:
            self._m += np.multiply.outer(m_i / denom, delta_m)
            self._s = self._m.sum(axis=1)
            drift = np.max(np.abs(self._s - 1.0 - c))
            if drift <= CROSS_CHECK_TOL * max(1.0, float(np.max(c))):
                return
        self.rebuilds += 1
        self._build()
