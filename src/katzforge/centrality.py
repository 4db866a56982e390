"""Katz centralities and the walk-decomposition quantities behind best responses.

Centrality vectors are plain float ndarrays of length n.  All solves are
dense LU with partial pivoting; I - A is strictly row diagonally dominant
for any substochastic A, so the systems are well conditioned at desk scale.
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
    if residual > SOLVE_RESIDUAL_TOL * m.shape[0]:
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


def walk_decomposition(g: GameInstance, w: AllocationProfile, i: int) -> WalkDecomposition:
    """Compute p, q, d, f for focal agent ``i`` via solves on the deleted graph.

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

    m = np.eye(n) - a0
    p = _solve_checked(m, a0 @ np.ones(n))
    q = _solve_checked(m, col_i)
    d = p + q + 1.0
    q[i] = 1.0
    d[i] = 1.0
    p[i] = np.nan

    b_i = g.budgets[i]
    nbrs = g.topology.out_neighbors(i)
    f = np.full(n, np.nan)
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


def fractional_linear_centrality(i: int, row: np.ndarray, wd: WalkDecomposition) -> float:
    """Centrality of agent i as a fractional-linear function of its own row:
    (sum_j d[j] w_ij) / (1 - sum_j q[j] w_ij).

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
