"""Best-response dynamics, schedulers, and trace recording.

One loop, ``run_brd``, runs both processes; ``BrdConfig.mode`` picks which.
Standard BRD lets the scheduled agent best-respond; the finite-time modified
variant schedules only agents with a strict better response and requires
each move to raise the mover's centrality.  Both stop on the improvement gaps
v(c(w)) - c(w) of the current profile, never on profile stability: profiles
may keep moving between tied best responses while the centralities are
already at the fixed point.

A move is written in place into one weight matrix, and a best-response step
makes one dense solve: ``katz_solve`` for the recorded centralities and gaps.
The mover's target is read off a ``Resolvent`` that is built at the first
best-response step and updated by one rank-one change per move; only the
target comes from it.  The terminal ``AllocationProfile`` is built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .centrality import Resolvent
from .game import DEFAULT_TOL, _best_response, improvement_gaps, require_tol
from .instance import AllocationProfile, GameInstance, _philox, require_feasible

# Default step limit for standard BRD, per agent (convergence is asymptotic).
STEP_LIMIT_FACTOR = 500

ROUND_ROBIN = "round-robin"
UNIFORM_RANDOM = "uniform-random"
EXPLICIT = "explicit"

CONVERGED = "converged"
STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class Scheduler:
    """Agent-selection rule: round-robin, seeded uniform-random, or an
    explicit sequence (which carries no update-infinitely-often guarantee)."""

    kind: str
    seed: int | None = None
    sequence: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in (ROUND_ROBIN, UNIFORM_RANDOM, EXPLICIT):
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.kind == UNIFORM_RANDOM and self.seed is None:
            raise ValueError("uniform-random scheduler requires a seed")
        if self.kind == EXPLICIT and not self.sequence:
            raise ValueError("explicit scheduler requires a nonempty sequence")

    @classmethod
    def round_robin(cls) -> Scheduler:
        return cls(kind=ROUND_ROBIN)

    @classmethod
    def uniform_random(cls, seed: int) -> Scheduler:
        return cls(kind=UNIFORM_RANDOM, seed=seed)

    @classmethod
    def explicit(cls, sequence: Sequence[int]) -> Scheduler:
        return cls(kind=EXPLICIT, sequence=tuple(int(i) for i in sequence))

    def start(self, n: int) -> _ScheduleState:
        return _ScheduleState(self, n)


class _ScheduleState:
    """Stateful per-run selector.  ``pick(candidates)`` restricts the draw to
    the given agents; round-robin scans forward, explicit sequences skip
    non-candidates, uniform-random draws uniformly among them."""

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

    def pick(self, candidates: Sequence[int] | None = None) -> int | None:
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


@dataclass(frozen=True)
class BrdConfig:
    scheduler: Scheduler = field(default_factory=Scheduler.round_robin)
    max_steps: int | None = None  # None: 500*n for standard, unbounded for modified
    tol: float = DEFAULT_TOL
    lazy: bool = True  # skip rewriting a row that is already a best response
    mode: str = "standard"

    def __post_init__(self):
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        require_tol(self.tol)
        if self.mode not in ("standard", "modified"):
            raise ValueError(f"mode must be 'standard' or 'modified', got {self.mode!r}")


@dataclass(frozen=True)
class BrdStep:
    """One recorded state: the step-0 record carries the initial profile
    (agent and row are None); later records carry the acting agent's row."""

    step: int
    agent: int | None
    row: np.ndarray | None
    centralities: np.ndarray
    residual: float


@dataclass(frozen=True)
class BrdTrace:
    steps: tuple[BrdStep, ...]
    terminal: AllocationProfile
    status: str
    total_steps: int
    config: BrdConfig

    @property
    def n(self) -> int:
        return self.terminal.n

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _record(step: int, agent: int | None, row: np.ndarray | None, c: np.ndarray, residual: float) -> BrdStep:
    """Keeps ``c`` and ``row``, which nothing else may hold, and marks them read-only."""
    for arr in (c, row):
        if arr is not None:
            arr.setflags(write=False)
    return BrdStep(step=step, agent=agent, row=row, centralities=c, residual=residual)


def run_brd(g: GameInstance, w0: AllocationProfile, cfg: BrdConfig | None = None) -> BrdTrace:
    """Best-response dynamics in ``cfg.mode``.

    Standard: the scheduled agent replaces its row with the canonical best
    response (kept as-is in lazy mode when already best); the run converges
    when the v-residual drops to ``cfg.tol`` and stops at 500*n steps unless
    ``cfg.max_steps`` says otherwise.  Modified: only agents whose improvement
    gap exceeds ``cfg.tol`` are scheduled, and each move must strictly raise
    the mover's centrality (else ArithmeticError), so the run converges, with
    no gap above ``cfg.tol``, in finitely many steps; it has no default limit.
    """
    cfg = cfg or BrdConfig()
    require_feasible(g, w0)
    modified = cfg.mode == "modified"
    limit = cfg.max_steps
    if limit is None and not modified:
        limit = STEP_LIMIT_FACTOR * g.n

    a = np.array(w0.weights)  # row i takes agent i's moves in place
    c, gaps = improvement_gaps(g, a)
    residual = float(np.max(np.abs(gaps)))
    steps = [_record(0, None, None, c, residual)]
    state = cfg.scheduler.start(g.n)
    resolvent = None  # built at the first best-response step
    k = 0
    while True:
        improvers = np.flatnonzero(gaps > cfg.tol).tolist() if modified else None
        if (not improvers) if modified else residual <= cfg.tol:
            status = CONVERGED
            break
        if limit is not None and k >= limit:
            status = STEP_LIMIT
            break
        i = state.pick(improvers)
        if i is None:  # explicit schedule exhausted
            status = STEP_LIMIT
            break
        k += 1
        if cfg.lazy and gaps[i] <= cfg.tol:  # never true for a modified-mode improver
            row = a[i].copy()
        else:
            if resolvent is None:
                resolvent = Resolvent(a)  # a copy: its updates are taken against it
            row = _best_response(resolvent.decomposition(g, i)).canonical
            a[i] = row
            c_prev = c
            c, gaps = improvement_gaps(g, a)
            resolvent.replace_row(i, row, c)
            residual = float(np.max(np.abs(gaps)))
            if modified and not c[i] > c_prev[i]:
                raise ArithmeticError(
                    f"step {k}: centrality of agent {i + 1} did not strictly increase"
                )
        steps.append(_record(k, i, row, c, residual))
    return BrdTrace(tuple(steps), AllocationProfile(a), status, k, cfg)


# --- trace artifacts --------------------------------------------------------
#
# CSV: one optional '#'-prefixed metadata comment ending in "\n", one header
# row (step,agent,residual,c_1..c_n), floats at 17 significant digits, agents
# 1-based, blank agent on the step-0 record; header and data rows end in
# "\r\n".  No field ever needs quoting.


def write_trace_csv(trace: BrdTrace, path, meta: dict | None = None) -> None:
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


def _json_floats(values: list[float], depth: int) -> str:
    """A non-empty float list laid out as ``json.dump(indent=2)`` lays it out
    at ``depth`` spaces; ``repr`` is the encoder's own float format."""
    pad = " " * (depth + 2)
    return "[\n" + pad + (",\n" + pad).join(map(repr, values)) + "\n" + " " * depth + "]"


def write_trace_allocations_json(trace: BrdTrace, path, meta: dict | None = None) -> None:
    """Sibling document to the CSV with the per-step allocation rows: the
    bytes ``json.dump(doc, indent=2)`` writes, with the rows streamed out."""
    import json

    head = {"meta": meta or {}, "status": trace.status, "total_steps": trace.total_steps}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "steps": [\n')
        sep = ""
        for s in trace.steps:
            agent = "null" if s.agent is None else s.agent + 1
            row = "null" if s.row is None else _json_floats(s.row.tolist(), 6)
            fh.write(f'{sep}    {{\n      "step": {s.step},\n      "agent": {agent},\n      "row": {row}\n    }}')
            sep = ",\n"
        rows = ",\n".join("    " + _json_floats(r, 4) for r in trace.terminal.weights.tolist())
        fh.write(f'\n  ],\n  "terminal_weights": [\n{rows}\n  ]\n}}\n')
