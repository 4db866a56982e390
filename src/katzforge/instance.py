"""Game instances: underlying topology, budgets, allocation profiles, and file I/O.

Agent indices are 1-based in documents and CLI output, 0-based everywhere in
the Python API; the parser/serializer is the only place that converts.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

# Budgets are inputs and compared within this (max-budget classification,
# structure checks); computed centralities use the game-level tolerance.
BUDGET_EQ_TOL = 1e-12


class KatzforgeError(Exception):
    """Base class for errors raised by this package."""


class ParseError(KatzforgeError, ValueError):
    """Malformed instance or allocation document."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class FeasibilityError(KatzforgeError, ValueError):
    """An allocation violates the support or budget constraints."""


def _philox(seed: int) -> np.random.Generator:
    # Counter-based 64-bit generator: bit-reproducible across platforms.
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class UnderlyingTopology:
    """Unweighted digraph constraining who may allocate to whom.

    ``adj`` holds ordered pairs (i, j), 0-based, self-pairs permitted; it is
    the canonical value (equality, hashing, repr).  Neighborhood reads and
    serialization go through ``neighbor_index``, built with it: agent i's
    out-neighbors are ``cols[offsets[i]:offsets[i + 1]]``, ascending.
    """

    n: int
    adj: frozenset[tuple[int, int]]
    neighbor_index: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, adj = self.n, frozenset(self.adj)  # the same object when already a frozenset
        if n < 1:
            raise ValueError(f"agent count must be positive, got {n}")
        if set(map(len, adj)) - {2}:
            bad = next(e for e in adj if len(e) != 2)
            raise ValueError(f"edge {bad!r} is not a pair")
        endpoint_types = set(map(type, itertools.chain.from_iterable(adj)))
        if not all(_is_index_type(t) for t in endpoint_types):
            bad = next(e for e in adj if not all(_is_index_type(type(v)) for v in e))
            raise ValueError(f"edge {bad!r} has a non-integer endpoint")
        try:
            flat = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.intp, count=2 * len(adj))
            in_range = not flat.size or (0 <= flat.min() and flat.max() < n)
        except OverflowError:  # beyond intp
            in_range = False
        if not in_range:
            i, j = next(e for e in adj if not (0 <= e[0] < n and 0 <= e[1] < n))
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if endpoint_types - {int}:  # e.g. numpy integers: store Python ints
            adj = frozenset(zip(flat[0::2].tolist(), flat[1::2].tolist()))
        keys = np.sort(flat[0::2] * n + flat[1::2])  # row-major order
        cols = keys % n
        offsets = np.searchsorted(keys, np.arange(n + 1) * n)
        for arr in (cols, offsets):
            arr.setflags(write=False)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "neighbor_index", (cols, offsets))

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Agent i's underlying out-neighbors, ascending."""
        cols, offsets = self.neighbor_index
        return tuple(cols[offsets[i] : offsets[i + 1]].tolist())

    def has_all_self_loops(self) -> bool:
        return all((i, i) in self.adj for i in range(self.n))

    def is_complete(self) -> bool:
        """Every ordered pair present, self-pairs included."""
        return len(self.adj) == self.n * self.n

    def is_symmetric(self) -> bool:
        cols, offsets = self.neighbor_index
        rows = np.repeat(np.arange(self.n), np.diff(offsets))
        return bool(np.array_equal(rows * self.n + cols, np.sort(cols * self.n + rows)))


def _is_index_type(t: type) -> bool:
    # Python and numpy integers; bool is an int subclass but not an agent index
    return issubclass(t, numbers.Integral) and not issubclass(t, bool)


@dataclass(frozen=True)
class GameInstance:
    """Underlying topology plus per-agent resource budgets.

    Construction enforces the game's standing rules, so an invalid game
    cannot be built: every agent has at least one underlying out-neighbor,
    and every budget lies strictly inside (0, 1), so the induced walk series
    always converges.  Violations raise one ValueError that names them all.
    """

    topology: UnderlyingTopology
    budgets: tuple[float, ...]
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        if len(self.budgets) != self.topology.n:
            raise ValueError(
                f"got {len(self.budgets)} budgets for n={self.topology.n} agents"
            )
        _, offsets = self.topology.neighbor_index
        violations = [
            f"agent {i + 1}: empty out-neighborhood in underlying topology (nonempty-neighborhood rule)"
            for i in np.flatnonzero(np.diff(offsets) == 0).tolist()
        ]
        violations += [
            f"agent {i + 1}: budget {b!r} outside (0, 1) (budget-bound rule)"
            for i, b in enumerate(self.budgets)
            if not 0 < b < 1  # NaN fails too
        ]
        if violations:
            raise ValueError("invalid instance: " + "; ".join(violations))

    @property
    def n(self) -> int:
        return self.topology.n

    @cached_property
    def budget_array(self) -> np.ndarray:
        arr = np.array(self.budgets, dtype=float)
        arr.setflags(write=False)
        return arr

    @property
    def b_max(self) -> float:
        return max(self.budgets)


@dataclass(frozen=True, eq=False)
class AllocationProfile:
    """Strategy profile: nonnegative n-by-n weight matrix, row i owned by agent i."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def zeros(cls, n: int) -> AllocationProfile:
        return cls(np.zeros((n, n)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def is_feasible(g: GameInstance, w: AllocationProfile) -> bool:
    """True iff every row obeys the support and budget constraints."""
    if w.n != g.n:
        raise ValueError(f"profile is {w.n}x{w.n} but instance has n={g.n}")
    cols, offsets = g.topology.neighbor_index
    rows = np.repeat(np.arange(g.n), np.diff(offsets))
    positive = w.weights > 0
    if np.count_nonzero(positive) != np.count_nonzero(positive[rows, cols]):
        return False
    return bool(np.all(w.weights.sum(axis=1) <= g.budget_array))


def require_feasible(g: GameInstance, w: AllocationProfile) -> None:
    if not is_feasible(g, w):
        raise FeasibilityError("allocation profile violates support or budget constraints")


# --- documents -------------------------------------------------------------
#
# Instance document:   {"n": int, "edges": [[i, j], ...], "budgets": [...],
#                       "name": optional string}  (agents 1-based)
# Allocation document: {"weights": [[row], ...]} dense n-by-n
# Unknown fields are rejected in both.

_INSTANCE_FIELDS = {"n", "edges", "budgets", "name"}


def _int_or_float(digits: str) -> int | float:
    try:
        return int(digits)
    except ValueError:  # beyond the int-string digit limit
        return float(digits)


def _load_json(text: str, what: str, parse_int=int) -> dict:
    try:
        doc = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    except ValueError:
        # an integer beyond the int-string digit limit: read it as the float
        # literal of its value, like an integer beyond float range
        doc = json.loads(text, parse_int=_int_or_float)
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    return doc


def _parse_budget(value, idx: int) -> float:
    # Exact decimal strings are accepted so equal budgets stay exactly equal.
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParseError("must be a number or decimal string", field=f"budgets[{idx}]")
    try:
        return float(value)
    except ValueError:
        raise ParseError("not a decimal number", field=f"budgets[{idx}]") from None
    except OverflowError:  # an integer beyond float range is infinite, as its float literal is
        return math.inf if value > 0 else -math.inf


def parse_instance(text: str) -> GameInstance:
    """Parse and validate an instance document; rejects SA violations."""
    doc = _load_json(text, "instance")
    unknown = set(doc) - _INSTANCE_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    for required in ("n", "edges", "budgets"):
        if required not in doc:
            raise ParseError("missing required field", field=required)

    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("must be a positive integer", field="n")

    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ParseError("must be a list of [i, j] pairs", field="edges")
    adj: set[tuple[int, int]] = set()
    for k, e in enumerate(edges):
        # JSON yields exact types: this rejects bools and floats
        if not isinstance(e, list) or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise ParseError("must be a pair of integers", field=f"edges[{k}]")
        i, j = e
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"agent index out of range 1..{n}", field=f"edges[{k}]")
        pair = (i - 1, j - 1)
        if pair in adj:
            raise ParseError(f"duplicate edge [{i}, {j}]", field=f"edges[{k}]")
        adj.add(pair)

    budgets_doc = doc["budgets"]
    if not isinstance(budgets_doc, list) or len(budgets_doc) != n:
        raise ParseError(f"must be a list of length n={n}", field="budgets")
    budgets = tuple(_parse_budget(v, k) for k, v in enumerate(budgets_doc))
    for k, b in enumerate(budgets):
        if not np.isfinite(b) or b <= 0:
            raise ParseError("must be positive and finite", field=f"budgets[{k}]")

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("must be a string", field="name")

    topology = UnderlyingTopology(n, frozenset(adj))
    try:
        return GameInstance(topology, budgets, name=name)
    except ValueError as exc:  # the standing rules
        raise ParseError(str(exc)) from exc


def serialize_instance(g: GameInstance) -> str:
    """Canonical serialization: sorted edges, fixed key order, 1-based agents."""
    cols, offsets = g.topology.neighbor_index  # row-major, so already sorted
    rows = np.repeat(np.arange(1, g.n + 1), np.diff(offsets))
    pairs = np.column_stack((rows, cols + 1)).ravel().tolist()
    edges = ", ".join(["[{}, {}]"] * len(cols)).format(*pairs)
    lines = [
        "{",
        f'  "n": {g.n},',
        f'  "edges": [{edges}],',
        f'  "budgets": {json.dumps(list(g.budgets))}' + ("," if g.name is not None else ""),
    ]
    if g.name is not None:
        lines.append(f'  "name": {json.dumps(g.name)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_allocation(text: str, n: int) -> AllocationProfile:
    doc = _load_json(text, "allocation", parse_int=float)  # so 10**400 reads as inf, like 1e400
    unknown = set(doc) - {"weights"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    if "weights" not in doc:
        raise ParseError("missing required field", field="weights")
    rows = doc["weights"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"must be a list of n={n} rows", field="weights")
    for k, row in enumerate(rows):
        # JSON numbers only: no bools, strings or nulls
        if not isinstance(row, list) or len(row) != n or not set(map(type, row)) <= {float}:
            raise ParseError(f"must be a list of n={n} numbers", field=f"weights[{k}]")
    try:
        return AllocationProfile(np.array(rows, dtype=float))
    except ValueError as exc:
        raise ParseError(str(exc), field="weights") from exc


def serialize_allocation(w: AllocationProfile) -> str:
    return json.dumps({"weights": [list(map(float, row)) for row in w.weights]}, indent=2) + "\n"


def generate_random_instance(
    n: int,
    edge_density: float,
    self_loops: bool,
    budget_range: tuple[float, float],
    seed: int,
) -> GameInstance:
    """Seeded random instance generator.

    Each ordered non-self pair is kept with probability ``edge_density``;
    ``self_loops`` adds (i, i) for every agent.  Rows left empty get one
    uniformly chosen out-edge so every agent can allocate.  Budgets are
    uniform in ``budget_range``, which must sit inside (0, 1).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= edge_density <= 1:
        raise ValueError(f"edge_density must be in [0, 1], got {edge_density}")
    lo, hi = budget_range
    if not (0 < lo <= hi < 1):
        raise ValueError(f"budget_range must sit inside (0, 1), got {budget_range}")

    rng = _philox(seed)
    support = np.zeros((n, n), dtype=bool)
    support[~np.eye(n, dtype=bool)] = rng.random(n * (n - 1)) < edge_density  # row-major
    if self_loops:
        np.fill_diagonal(support, True)
    for i in np.flatnonzero(~support.any(axis=1)).tolist():
        if n == 1:
            support[0, 0] = True
        else:
            # uniform over the n-1 non-self targets
            j = int(rng.integers(n - 1))
            support[i, j if j < i else j + 1] = True

    budgets = tuple(float(b) for b in rng.uniform(lo, hi, size=n))
    rows, cols = np.nonzero(support)
    return GameInstance(UnderlyingTopology(n, frozenset(zip(rows.tolist(), cols.tolist()))), budgets)


def random_profile(g: GameInstance, seed: int) -> AllocationProfile:
    """Seeded random feasible profile: random support inside each agent's
    neighborhood, rows scaled to a random fraction of the budget."""
    rng = _philox(seed)
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = g.topology.out_neighbors(i)
        picks = [j for j in nbrs if rng.random() < 0.5]
        if not picks:
            continue
        raw = rng.uniform(0.1, 1.0, size=len(picks))
        target = g.budgets[i] * rng.uniform(0.2, 0.95)
        w[i, picks] = raw * (target / raw.sum())
    return AllocationProfile(w)


def instance_digest(g: GameInstance) -> str:
    """SHA-256 of the canonical serialization, used in artifact headers."""
    import hashlib

    return hashlib.sha256(serialize_instance(g).encode("utf-8")).hexdigest()


def topology_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> UnderlyingTopology:
    """Convenience constructor from 0-based edge pairs."""
    return UnderlyingTopology(n, frozenset(edges))
