"""Output checks for the benchmark's CLI ops.

Every check tests a property of the game that holds for any correct output,
never agreement with an earlier output of the program.  Each returns None
when the output passes, or a one-line description of the problem.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_EPS = float(np.finfo(float).eps)


def _slack(x: np.ndarray) -> float:
    """Rounding allowance for sums of values of the magnitude of ``x``."""
    return 8 * _EPS * max(1.0, float(np.max(np.abs(x))))


class Instance:
    """The parts of an instance file the checks need (agents 0-based)."""

    def __init__(self, path: Path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        self.n = doc["n"]
        self.budgets = np.array([float(b) for b in doc["budgets"]])
        self.b_max = float(self.budgets.max())
        self.support = np.zeros((self.n, self.n), dtype=bool)
        for i, j in doc["edges"]:
            self.support[i - 1, j - 1] = True
        self.complete = bool(self.support.all())

    def closed_form(self) -> np.ndarray:
        """Upper bound B_i/(1-B_M) on c*; c* itself on a complete topology."""
        return self.budgets / (1.0 - self.b_max)

    def rounding(self) -> float:
        """Forward rounding error of centralities computed by iterating or
        inverting a map that contracts at rate B_M: a few unit roundoffs of
        the largest value, amplified by 1/(1-B_M)."""
        return 4 * _EPS * float(self.closed_form().max()) / (1.0 - self.b_max)


def check_instance(inst: Instance, n: int, budgets: str) -> str | None:
    lo, hi = (float(v) for v in budgets.split(":"))
    if inst.n != n:
        return f"instance has n={inst.n}, asked for {n}"
    if inst.budgets.min() < lo or inst.budgets.max() > hi:
        return f"budgets outside {budgets}"
    if not inst.support.diagonal().all():
        return "a self-loop is missing"
    return None


def check_certificate(inst: Instance, doc: dict, tol: float) -> str | None:
    """Residual within tol; B_i <= c*_i <= B_i/(1-B_M); closed form when complete."""
    c = np.array(doc["c_star"], dtype=float)
    upper = inst.closed_form()
    slack = inst.rounding()
    if not doc["residual"] <= tol:
        return f"certificate residual {doc['residual']} exceeds tol {tol}"
    if np.any(c < inst.budgets - slack) or np.any(c > upper + slack):
        return "c* outside [B_i, B_i/(1-B_M)]"
    if inst.complete:
        gap = float(np.max(np.abs(c - upper)))
        if gap > tol + slack:
            return f"c* is {gap} from the closed form B_i/(1-B_M) on a complete topology"
    return None


def check_trace(
    inst: Instance, csv_path: Path, tol: float, c_ref: np.ndarray | None, ref_tol: float
) -> str | None:
    """Converged with terminal residual r <= tol, and, since v contracts at
    rate B_M, the terminal centralities lie within r/(1-B_M) of c*
    (``c_ref`` is c* up to ``ref_tol``, or None when no certified c* exists)."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if "status=converged" not in lines[0].split():
        return f"{csv_path.name}: run did not converge: {lines[0]}"
    last = lines[-1].split(",")
    residual = float(last[2])
    c = np.array(last[3:], dtype=float)
    if not residual <= tol:
        return f"{csv_path.name}: terminal residual {residual} exceeds tol {tol}"
    if c_ref is not None:
        gap = float(np.max(np.abs(c - c_ref)))
        bound = residual / (1.0 - inst.b_max) + ref_tol + inst.rounding()
        if gap > bound:
            return f"{csv_path.name}: terminal is {gap} from c*, contraction bound {bound}"
    return None


def terminal_weights(inst: Instance, alloc_path: Path) -> tuple[list, str | None]:
    """Terminal profile from a `run --full-trace` allocation file, and whether
    it is feasible (nonnegative, inside the topology, within budget)."""
    text = alloc_path.read_text(encoding="utf-8")
    # only the last field is needed; skip parsing every step's row
    tail = text[text.rindex('"terminal_weights"') :]
    weights = json.loads("{" + tail)["terminal_weights"]
    w = np.array(weights, dtype=float)
    if np.any(w < 0) or np.any((w > 0) & ~inst.support):
        return weights, f"{alloc_path.name}: terminal allocates outside the topology"
    if np.any(w.sum(axis=1) > inst.budgets + _slack(inst.budgets)):
        return weights, f"{alloc_path.name}: terminal exceeds a budget"
    return weights, None


def check_verdict(inst: Instance, doc: dict, nash: bool, tol: float) -> str | None:
    """BRD terminals are Nash, within r/(1-B_M) + tol of c*.  Allocations whose
    rows leave budget unspent are not: v_i(c) > c_i for every such agent."""
    if doc["verdict"] is not nash:
        return f"verdict {doc['verdict']}, expected {nash}"
    if nash:
        bound = doc["residual"] / (1.0 - inst.b_max) + tol + inst.rounding()
        if not doc["equilibrium_gap"] <= bound:
            return f"equilibrium gap {doc['equilibrium_gap']} exceeds {bound}"
    elif not min(doc["v_gaps"]) > tol:
        return "an agent with unspent budget shows no improvement gap"
    return None


def check_report(inst: Instance, doc: dict, dot: str, nash: bool) -> str | None:
    """Nash profiles fail no structure check.  On a complete topology a profile
    that leaves every budget unspent fails the closed form on every agent.
    The condensation partitions the agents and the DOT file draws each SCC."""
    status = {c["name"]: c for c in doc["checks"]}
    if nash:
        failed = [name for name, c in status.items() if c["status"] == "fail"]
        if failed:
            return f"structure checks failed on a Nash profile: {failed}"
    else:
        closed = status["complete-closed-form"]
        unspent = {
            w["agent"] for w in closed["witnesses"] if w.get("rule") == "budget-exhaustion"
        }
        if closed["status"] != "fail" or unspent != set(range(1, inst.n + 1)):
            return "closed-form check missed agents with unspent budget"
    comps = doc["condensation"]["components"]
    members = sorted(a for comp in comps for a in comp["agents"])
    if members != list(range(1, inst.n + 1)):
        return "condensation does not partition the agents"
    nodes = [line for line in dot.splitlines() if "[label=" in line]
    if not dot.startswith("digraph condensation {") or len(nodes) != len(comps):
        return "DOT file does not match the condensation"
    return None
