"""Best responses, the contraction map over centralities, and Nash certification.

The map v_i(x) = B_i (1 + max_{j in N_i} x_j) is a sup-norm contraction with
rate B_M = max_i B_i; its unique fixed point c* is the centrality vector of
every Nash profile, which is what certification checks against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import fractional_linear_centrality, katz_solve, walk_decomposition
from .instance import (
    AllocationProfile,
    GameInstance,
    require_feasible,
    require_valid,
)

DEFAULT_TOL = 1e-10
# Relative tolerance for treating best-response scores as tied.
TIE_REL_TOL = 1e-10
# Policy iteration switches an agent's successor only for a gain above this
# many units of roundoff of max(c); with a bare ">", rounding ties can make
# agents switch back and forth forever.
SWITCH_MARGIN_ULPS = 4


def v_map(g: GameInstance, x: np.ndarray) -> np.ndarray:
    """v_i(x) = B_i (1 + max of x over agent i's underlying out-neighbors)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({g.n},)")
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    best = np.where(g.topology.support_mask, x[np.newaxis, :], -np.inf).max(axis=1)
    if np.any(np.isneginf(best)):
        raise ValueError("an agent has no underlying out-neighbors")
    return g.budget_array * (1.0 + best)


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
    centrality.  Each round, every agent whose best underlying neighbor beats
    its successor by more than a rounding margin switches to the
    smallest-index argmax.  The result is checked: its residual
    max |v(c) - c| must be within ``tol``, else ArithmeticError.
    """
    require_valid(g)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    support = g.topology.support_mask
    agents = np.arange(g.n)
    succ = support.argmax(axis=1)  # any start will do: first neighbor
    rounds = 0
    while True:
        policy = np.zeros((g.n, g.n))
        policy[agents, succ] = g.budget_array
        c = katz_solve(policy)
        rounds += 1
        scores = np.where(support, c, -np.inf)
        best = scores.argmax(axis=1)
        margin = SWITCH_MARGIN_ULPS * np.finfo(float).eps * c.max()
        switch = scores[agents, best] > c[succ] + margin
        if not switch.any():
            break
        succ = np.where(switch, best, succ)

    residual = float(np.max(np.abs(v_map(g, c) - c)))
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


def _tied_argmax(candidates: list[tuple[int, float]], rel_tol: float) -> tuple[int, ...]:
    top = max(v for _, v in candidates)
    return tuple(sorted(j for j, v in candidates if v >= top * (1.0 - rel_tol)))


def best_response(
    g: GameInstance, i: int, w: AllocationProfile, tie_tol: float = TIE_REL_TOL
) -> BestResponseResult:
    """Exact best response of agent i against the opponents' rows in ``w``.

    Maximizes the score f[j] = d[j] / (1 - q[j] B_i) over underlying
    out-neighbors; putting the whole budget on any maximizer is optimal, and
    the achieved centrality is B_i * f[j].  Agent i's own row is ignored.
    """
    wd = walk_decomposition(g, w, i)
    scores = [(j, float(wd.f[j])) for j in wd.neighbors]
    argmax_set = _tied_argmax(scores, tie_tol)
    j_star = argmax_set[0]
    canonical = np.zeros(g.n)
    canonical[j_star] = g.budgets[i]
    achieved = fractional_linear_centrality(i, canonical, wd)
    return BestResponseResult(
        agent=i, argmax_set=argmax_set, canonical=canonical, achieved_value=achieved
    )


def best_response_oracle(
    g: GameInstance, i: int, w: AllocationProfile, tie_tol: float = TIE_REL_TOL
) -> BestResponseResult:
    """Independent best-response route: evaluate every single-edge allocation
    B_i e_j by a full centrality solve and take the argmax."""
    require_feasible(g, w)
    values: list[tuple[int, float]] = []
    for j in g.topology.out_neighbors(i):
        trial = np.zeros(g.n)
        trial[j] = g.budgets[i]
        values.append((j, float(katz_solve(w.with_row(i, trial))[i])))
    argmax_set = _tied_argmax(values, tie_tol)
    j_star = argmax_set[0]
    canonical = np.zeros(g.n)
    canonical[j_star] = g.budgets[i]
    achieved = dict(values)[j_star]
    return BestResponseResult(
        agent=i, argmax_set=argmax_set, canonical=canonical, achieved_value=achieved
    )


def strict_better_response_exists(
    g: GameInstance, i: int, w: AllocationProfile, tol: float = DEFAULT_TOL
) -> bool:
    """True iff agent i can strictly raise its centrality, i.e. v_i(c(w))
    exceeds c_i(w) beyond ``tol``."""
    require_feasible(g, w)
    c = katz_solve(w)
    return bool(v_map(g, c)[i] > c[i] + tol)


def is_best_response(
    g: GameInstance, i: int, w: AllocationProfile, tol: float = DEFAULT_TOL
) -> bool:
    require_feasible(g, w)
    c = katz_solve(w)
    return bool(abs(c[i] - v_map(g, c)[i]) <= tol)


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
    require_feasible(g, w)
    c = katz_solve(w)
    gaps = v_map(g, c) - c
    residual = float(np.max(np.abs(gaps)))
    cert = equilibrium_centralities(g, tol=tol)
    eq_gap = float(np.max(np.abs(c - cert.c_star)))
    return NashVerdict(
        is_nash=residual <= tol, residual=residual, v_gaps=gaps, equilibrium_gap=eq_gap, tol=tol
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
    swapped = w_star.with_row(i, x_row)
    require_feasible(g, swapped)
    c_before = katz_solve(w_star)
    c_after = katz_solve(swapped)
    if abs(c_after[i] - c_before[i]) > tol:
        raise ValueError(
            "precondition failed: alternative row changes agent "
            f"{i + 1}'s centrality by {abs(c_after[i] - c_before[i])}"
        )
    return is_nash(g, swapped, tol).is_nash
