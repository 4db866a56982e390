"""Best responses, the contraction map over centralities, and Nash certification.

The map v_i(x) = B_i (1 + max_{j in N_i} x_j) is a sup-norm contraction with
rate B_M = max_i B_i; its unique fixed point c* is the centrality vector of
every Nash profile, which is what certification checks against.  Both
per-profile operations take what the caller already holds: ``best_response``
a walk decomposition, and ``improvement_gaps`` the centralities c(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import WalkDecomposition, _single_edge_centralities, katz_solve
from .instance import AllocationProfile, GameInstance, require_feasible

DEFAULT_TOL = 1e-10
# Relative tolerance for treating best-response scores as tied.
TIE_REL_TOL = 1e-10
# Policy iteration switches an agent's successor only for a gain above this
# many units of roundoff of max(c); with a bare ">", rounding ties can make
# agents switch back and forth forever.
SWITCH_MARGIN_ULPS = 4


def require_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a finite positive number; NaN would
    make every "gap > tol" comparison false and stop any run at once."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def v_map(g: GameInstance, x: np.ndarray) -> np.ndarray:
    """v_i(x) = B_i (1 + max of x over agent i's underlying out-neighbors)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({g.n},)")
    if not np.all(x >= 0):  # NaN fails too
        raise ValueError("x must be nonnegative")
    cols, offsets = g.topology.neighbor_index
    best = np.maximum.reduceat(x[cols], offsets[:-1])
    return g.budget_array * (1.0 + best)


def improvement_gaps(g: GameInstance, c: np.ndarray) -> np.ndarray:
    """The improvement gaps v(c) - c of centralities ``c``.

    With c = c(w), agent i has a strictly better response iff its gap exceeds
    the tolerance, and w is Nash iff every |gap| is within it.
    """
    return v_map(g, c) - c


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Unique equilibrium centralities c* with the fixed-point evidence.

    ``iterations`` counts policy-evaluation rounds; ``residual`` is the
    checked max |v(c*) - c*|.
    """

    c_star: np.ndarray
    iterations: int
    residual: float
    contraction_rate: float
    tol: float

    def __post_init__(self):
        self.c_star.setflags(write=False)

    def to_json_dict(self) -> dict:
        return {
            "c_star": [float(v) for v in self.c_star],
            "iterations": self.iterations,
            "residual": self.residual,
            "contraction_rate": self.contraction_rate,
        }


def equilibrium_centralities(g: GameInstance, tol: float = DEFAULT_TOL) -> EquilibriumCertificate:
    """Exact c* by Howard policy iteration.

    c* is the value of the decision problem in which agent i picks one
    successor j, earns B_i and is discounted by B_i.  A policy puts B_i on one
    successor per agent; its value is that single-edge profile's Katz
    centrality, evaluated in O(n) by ``centrality._single_edge_centralities``.
    Each round, every agent whose best underlying neighbor beats its
    successor by more than a rounding margin switches to the smallest-index
    argmax.  The result is checked: its residual max |v(c) - c| must be
    within ``tol``, else ArithmeticError.
    """
    require_tol(tol)
    cols, offsets = g.topology.neighbor_index
    starts = offsets[:-1]
    succ = cols[starts]  # any start will do: first neighbor
    rounds = 0
    while True:
        c = _single_edge_centralities(succ.tolist(), g.budgets)
        rounds += 1
        scores = c[cols]
        top = np.maximum.reduceat(scores, starts)
        # cols ascend in each run, so the first maximal entry is the smallest-index argmax
        at_top = np.flatnonzero(scores == np.repeat(top, np.diff(offsets)))
        best = cols[at_top[np.searchsorted(at_top, starts)]]
        margin = SWITCH_MARGIN_ULPS * np.finfo(float).eps * c.max()
        switch = top > c[succ] + margin
        if not switch.any():
            break
        succ = np.where(switch, best, succ)

    residual = float(np.max(np.abs(improvement_gaps(g, c))))
    if residual > tol:
        raise ArithmeticError(f"equilibrium residual {residual} exceeds tol {tol}")
    return EquilibriumCertificate(
        c_star=c, iterations=rounds, residual=residual, contraction_rate=g.b_max, tol=tol
    )


@dataclass(frozen=True)
class BestResponseResult:
    """Argmax neighbors, the canonical single-edge response, and its value.

    ``canonical`` puts the whole budget on the smallest-index argmax neighbor;
    every member of ``argmax_set`` attains the same centrality up to ties.
    """

    agent: int
    argmax_set: tuple[int, ...]
    canonical: np.ndarray
    achieved_value: float

    def __post_init__(self):
        self.canonical.setflags(write=False)


def best_response(wd: WalkDecomposition) -> BestResponseResult:
    """Exact best response of the focal agent of ``wd`` against the opponents'
    rows: ``best_response(walk_decomposition(g, w, i))`` for agent i of ``w``.

    Maximizes the score f[j] = d[j] / (1 - q[j] B_i) over underlying
    out-neighbors; putting the whole budget on any maximizer is optimal, and
    the achieved centrality is B_i * f[j].
    """
    scores = [(j, float(wd.f[j])) for j in wd.neighbors]
    top = max(v for _, v in scores)
    # neighbors ascend, so the tied set does too
    argmax_set = tuple(j for j, v in scores if v >= top * (1.0 - TIE_REL_TOL))
    j_star = argmax_set[0]
    b = wd.budget
    canonical = np.zeros(wd.q.shape)
    canonical[j_star] = b
    # the fractional-linear value (d . row) / (1 - q . row) of the canonical
    # row; its denominator was checked positive with the decomposition
    achieved = float(wd.d[j_star] * b / (1.0 - wd.q[j_star] * b))
    return BestResponseResult(
        agent=wd.agent, argmax_set=argmax_set, canonical=canonical, achieved_value=achieved
    )


@dataclass(frozen=True)
class NashVerdict:
    """Residual test v(c(w)) = c(w) plus the gap to the certified c*."""

    is_nash: bool
    residual: float
    v_gaps: np.ndarray
    equilibrium_gap: float
    tol: float

    def __post_init__(self):
        self.v_gaps.setflags(write=False)

    def to_json_dict(self) -> dict:
        return {
            "is_nash": self.is_nash,
            "residual": self.residual,
            "v_gaps": [float(v) for v in self.v_gaps],
            "equilibrium_gap": self.equilibrium_gap,
            "tol": self.tol,
        }


def is_nash(g: GameInstance, w: AllocationProfile, tol: float = DEFAULT_TOL) -> NashVerdict:
    """Certify Nash membership: w is Nash iff the v-residual of c(w) vanishes.

    Also reports the sup-distance from c(w) to the unique equilibrium
    centralities c*.
    """
    require_tol(tol)
    require_feasible(g, w)
    c = katz_solve(w)
    gaps = improvement_gaps(g, c)
    residual = float(np.max(np.abs(gaps)))
    cert = equilibrium_centralities(g, tol=tol)
    eq_gap = float(np.max(np.abs(c - cert.c_star)))
    return NashVerdict(
        is_nash=residual <= tol, residual=residual, v_gaps=gaps, equilibrium_gap=eq_gap, tol=tol
    )
