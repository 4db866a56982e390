"""Best-response dynamics, schedulers, and trace recording.

One loop, ``run_brd``, runs both processes; ``BrdConfig.mode`` picks which.
Standard BRD lets the scheduled agent best-respond; the finite-time modified
variant schedules only agents with a strict better response and requires
each move to raise the mover's centrality.  Both stop on the improvement gaps
v(c(w)) - c(w) of the current profile, never on profile stability: profiles
may keep moving between tied best responses while the centralities are
already at the fixed point.

The run keeps one copy of its profile, in one of two holders from
``centrality``, and takes every mover's target, a lazy step's row and the
terminal weights from it; the terminal ``AllocationProfile`` is built once.
Each move writes a single-edge row, so after an agent's first move its row
is single-edge.  While w0 still has a row with several positive entries,
the profile lives in a ``Resolvent``: one dense solve, then an O(n^2)
rank-one update per move.  When a move replaces the last such row, or from
the start if there is none, it lives in an ``InForest``: c is evaluated on
the functional graph in O(n), and a step walks the mover's in-tree and
updates c on it, with no n x n matrix and no solve.  Every recorded c is
certified by a residual check; a failed check is mended by a fresh
evaluation or factorization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .centrality import InForest, Resolvent
from .game import DEFAULT_TOL, best_response, improvement_gaps, require_tol
from .instance import AllocationProfile, GameInstance, _is_index_type, _philox, _require_seed, require_feasible

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
        if self.kind == UNIFORM_RANDOM:
            if self.seed is None:
                raise ValueError("uniform-random scheduler requires a seed")
            if not _is_index_type(type(self.seed)):
                raise ValueError(f"scheduler seed must be an integer, got {self.seed!r}")
            _require_seed(self.seed)
        if self.kind == EXPLICIT:
            sequence = () if self.sequence is None else tuple(self.sequence)  # an array has no truth value
            if not sequence:
                raise ValueError("explicit scheduler requires a nonempty sequence")
            for i in sequence:
                if not _is_index_type(type(i)):
                    raise ValueError(f"scheduled agent must be an integer, got {i!r}")
            object.__setattr__(self, "sequence", tuple(map(int, sequence)))

    @classmethod
    def round_robin(cls) -> Scheduler:
        return cls(kind=ROUND_ROBIN)

    @classmethod
    def uniform_random(cls, seed: int) -> Scheduler:
        return cls(kind=UNIFORM_RANDOM, seed=seed)

    @classmethod
    def explicit(cls, sequence: Sequence[int]) -> Scheduler:
        return cls(kind=EXPLICIT, sequence=tuple(sequence))

    def start(self, n: int) -> _ScheduleState:
        return _ScheduleState(self, n)


class _ScheduleState:
    """Stateful per-run selector.  ``pick(candidates)`` restricts the draw to
    the given agents.  Round-robin and explicit schedules scan one agent order
    forward past non-candidates: the endless cycle 0, 1, ..., n-1, at most one
    lap per pick, or the explicit sequence, once.  Uniform-random draws
    uniformly among the candidates."""

    def __init__(self, scheduler: Scheduler, n: int):
        self._n = n
        self._order = None  # uniform-random draws from the candidates instead
        if scheduler.kind == UNIFORM_RANDOM:
            self._rng = _philox(scheduler.seed)
        elif scheduler.kind == ROUND_ROBIN:
            self._order, self._lap = itertools.cycle(range(n)), n
        else:
            for i in scheduler.sequence:
                if not 0 <= i < n:
                    raise ValueError(f"scheduled agent {i} out of range for n={n}")
            self._order, self._lap = iter(scheduler.sequence), len(scheduler.sequence)

    def pick(self, candidates: Sequence[int] | None = None) -> int | None:
        if self._order is None:
            pool = list(range(self._n)) if candidates is None else sorted(candidates)
            if not pool:
                return None
            return pool[int(self._rng.integers(len(pool)))]
        allowed = range(self._n) if candidates is None else set(candidates)
        return next((i for i in itertools.islice(self._order, self._lap) if i in allowed), None)


@dataclass(frozen=True)
class BrdConfig:
    scheduler: Scheduler = field(default_factory=Scheduler.round_robin)
    max_steps: int | None = None  # None: 500*n for standard, unbounded for modified
    tol: float = DEFAULT_TOL
    lazy: bool = True  # skip rewriting a row that is already a best response
    mode: str = "standard"

    def __post_init__(self):
        if self.max_steps is not None and not (_is_index_type(type(self.max_steps)) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
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
    config: BrdConfig

    @property
    def total_steps(self) -> int:
        return self.steps[-1].step

    @property
    def n(self) -> int:
        return self.terminal.n

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _record(step: int, agent: int | None, row: np.ndarray | None, c: np.ndarray, residual: float) -> BrdStep:
    """Keeps ``c`` and ``row`` and marks them read-only; nothing that also
    holds them writes to them."""
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

    The profile is held as the module docstring says: a run solves only
    while w0 has a multi-edge row.  Every record's centralities, step 0's
    included, pass a residual check; ArithmeticError if they cannot.
    """
    cfg = cfg or BrdConfig()
    require_feasible(g, w0)
    modified = cfg.mode == "modified"
    limit = cfg.max_steps
    if limit is None and not modified:
        limit = STEP_LIMIT_FACTOR * g.n

    # the rows with several positive entries; a move writes a single-edge row
    multi_edge = set(np.flatnonzero(np.count_nonzero(w0.weights, axis=1) > 1).tolist())
    profile = Resolvent(w0) if multi_edge else InForest(w0.weights)  # every move goes in by replace_row
    c = profile.centralities
    gaps = improvement_gaps(g, c)
    residual = float(np.max(np.abs(gaps)))
    steps = [_record(0, None, None, c, residual)]
    state = cfg.scheduler.start(g.n)
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
            row = profile.row(i)
        else:
            row = best_response(profile.decomposition(g, i)).canonical
            c_prev = c
            c = profile.replace_row(i, row)
            if modified and not c[i] > c_prev[i]:
                raise ArithmeticError(
                    f"step {k}: centrality of agent {i + 1} did not strictly increase"
                )
            if i in multi_edge:
                multi_edge.discard(i)
                if not multi_edge:  # the last multi-edge row is gone, and M with it
                    profile = InForest(profile.weights())
                    c = profile.centralities
            gaps = improvement_gaps(g, c)
            residual = float(np.max(np.abs(gaps)))
        steps.append(_record(k, i, row, c, residual))
    return BrdTrace(tuple(steps), AllocationProfile(profile.weights()), status, cfg)


# --- trace artifacts --------------------------------------------------------
#
# CSV: one optional '#'-prefixed metadata comment ending in "\n", one header
# row (step,agent,residual,c_1..c_n), floats at 17 significant digits, agents
# 1-based, blank agent on the step-0 record; header and data rows end in
# "\r\n".  No field ever needs quoting.
#
# Both writers format only what a record adds.  The CSV formats again only
# the c_j whose bit pattern changed since the previous record (so -0.0 and
# 0.0 stay apart); a record where every c_j changed is formatted whole, in
# one call, which is cheaper than cell by cell.  The JSON writes a zero-bit
# weight as the constant "0.0".


def write_trace_csv(trace: BrdTrace, path, meta: dict | None = None) -> None:
    """The trace as CSV, one row per record, after a ``# key=value ...`` line
    for ``meta``.  A key or value with a line boundary in it, any that
    ``str.splitlines`` splits on, would end that line early for a reader that
    splits the file that way, so it raises ValueError before ``path`` is
    opened."""
    for key, value in (meta or {}).items():
        if f"{key}={value}".splitlines() != [f"{key}={value}"]:
            raise ValueError(f"trace metadata {key}={value!r} contains a line break")
    n = trace.n
    row_format = "%d,%s" + ",%.17g" * (n + 1) + "\r\n"
    bits = None  # the previous record's c, as bit patterns
    cells = None  # its c_j cells, once a record has not been written whole
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        header = ["step", "agent", "residual"] + [f"c_{j + 1}" for j in range(n)]
        fh.write(",".join(header) + "\r\n")
        for s in trace.steps:
            c = s.centralities
            agent = "" if s.agent is None else s.agent + 1
            changed = np.arange(n) if bits is None else np.flatnonzero(c.view(np.int64) != bits)
            bits = c.view(np.int64)
            if len(changed) == n:
                line = row_format % (s.step, agent, s.residual, *c.tolist())
                cells = None
            else:
                if cells is None:
                    cells = line[:-2].split(",")[3:]
                for j, v in zip(changed.tolist(), c[changed].tolist()):
                    cells[j] = "%.17g" % v
                line = "%d,%s,%.17g," % (s.step, agent, s.residual) + ",".join(cells) + "\r\n"
            fh.write(line)


def _json_floats(values: np.ndarray, depth: int) -> str:
    """A non-empty float vector laid out as ``json.dump(indent=2)`` lays it
    out at ``depth`` spaces; ``repr`` is the encoder's own float format, and
    it is "0.0" for every zero-bit entry."""
    cells = ["0.0"] * len(values)
    nonzero = np.flatnonzero(values.view(np.int64))
    for j, v in zip(nonzero.tolist(), values[nonzero].tolist()):
        cells[j] = repr(v)
    pad = " " * (depth + 2)
    return "[\n" + pad + (",\n" + pad).join(cells) + "\n" + " " * depth + "]"


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
            row = "null" if s.row is None else _json_floats(s.row, 6)
            fh.write(f'{sep}    {{\n      "step": {s.step},\n      "agent": {agent},\n      "row": {row}\n    }}')
            sep = ",\n"
        rows = ",\n".join("    " + _json_floats(r, 4) for r in trace.terminal.weights)
        fh.write(f'\n  ],\n  "terminal_weights": [\n{rows}\n  ]\n}}\n')
