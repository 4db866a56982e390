"""The conformance corpus: what ``run_brd`` and the structure checks give on
a fixed set of games.

Each file under ``tests/corpus/`` holds one game, its random start profile
and schedules, and the trace of every run in the grid both modes x
round-robin/uniform-random/explicit schedules x lazy on/off x zero/random
start.  ``tests/test_corpus.py`` reruns the grid and compares in two classes:

- exact: agents, rows, status, step counts and terminal weights;
- within ``CROSS_CHECK_TOL`` * max(1, max c) of the stored record:
  centralities and residuals.

Each file under ``tests/corpus/structure/`` holds, for the game of that name
with n <= 16, its equilibrium centralities c* with their iteration count
and, for each profile of ``structure_profiles``, the ``run_structure_checks``
report, the condensation and the parity classes.  The test compares
c* and every float of a report or condensation within ``CROSS_CHECK_TOL``
* max(1, max c) (c* or the profile's Katz centralities), and everything
else exactly: iteration counts, statuses, rules, witness agents, edges and
cycles, SCCs, sinks, condensation edges and parity classes.

Agents and columns are 0-based; rows and weights are stored as (j, weight)
pairs of their positive entries.  Each run stores its status and step
count and, for each other field, an index into that field's list of
distinct values, which runs share.  A record's centralities are stored as the entries that moved
by more than ``DEAD_BAND`` * max(1, max c) since the value last stored for
them, so a decoded value is within that of the run's own.

Regenerate from the repository root with

    PYTHONPATH=src python tests/regenerate_corpus.py

It prints every stored value that would move (game, run or profile, field,
old -> new) before it rewrites the files.  A deliberate change of contract
regenerates the corpus in the same change and names the values that moved;
a failing comparison is never by itself a reason to regenerate.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from helpers import circulant_profile
from katzforge import (
    AllocationProfile,
    BrdConfig,
    GameInstance,
    Scheduler,
    equilibrium_centralities,
    generate_random_instance,
    parity_classes,
    parse_instance,
    random_profile,
    run_brd,
    run_structure_checks,
    serialize_instance,
    topology_from_edges,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
STRUCTURE_DIR = CORPUS_DIR / "structure"

# 1000 times below CROSS_CHECK_TOL (tests/helpers.py)
DEAD_BAND = 1e-13

GRID = [
    {"mode": mode, "scheduler": scheduler, "lazy": lazy, "w0": w0}
    for mode in ("standard", "modified")
    for scheduler in ("rr", "random", "explicit")
    for lazy in (True, False)
    for w0 in ("zero", "random")
]


def _symmetric_game() -> GameInstance:
    # a 7-cycle with two chords, both directions, no self-loops
    pairs = [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (2, 5)]
    edges = pairs + [(j, i) for i, j in pairs]
    return GameInstance(topology_from_edges(7, edges), (0.3, 0.8, 0.55, 0.9, 0.2, 0.65, 0.4))


def _games() -> dict[str, tuple[GameInstance, AllocationProfile]]:
    """Each corpus game and its random start profile."""
    reported = (0.2, 0.2, 0.2, 0.83, 0.83, 0.83, 0.69, 0.69, 0.69, 0.17)
    complete = [(i, j) for i in range(10) for j in range(10)]
    games = {
        "random": generate_random_instance(8, 0.4, False, (0.1, 0.9), 11),
        "complete": GameInstance(topology_from_edges(10, complete), reported),
        "self-loops": generate_random_instance(9, 0.3, True, (0.5, 0.95), 12),
        "symmetric": _symmetric_game(),
        "two-level": GameInstance(
            generate_random_instance(6, 0.6, False, (0.5, 0.5), 13).topology,
            (0.99, 0.999, 0.99, 0.999, 0.99, 0.999),
        ),
        "n1": GameInstance(topology_from_edges(1, [(0, 0)]), (0.5,)),
    }
    starts = {name: random_profile(g, 100 + k) for k, (name, g) in enumerate(games.items())}
    # the two near-1 games of TestAgainstReference.test_budgets_at_0999_match_reference
    for gen_seed, w0_seed in ((7004, 968797476), (104004, 2996645229)):
        name = f"near1-{gen_seed}"
        games[name] = generate_random_instance(60, 0.5, True, (0.999, 0.999), gen_seed)
        starts[name] = random_profile(games[name], w0_seed)
    return {name: (g, starts[name]) for name, g in games.items()}


def _pairs(row: np.ndarray) -> list[list]:
    return [[j, float(row[j])] for j in np.flatnonzero(row).tolist()]


def _dense(pairs: list[list], n: int) -> np.ndarray:
    row = np.zeros(n)
    for j, x in pairs:
        row[j] = x
    return row


def game_of(doc: dict) -> GameInstance:
    return parse_instance(json.dumps(doc["instance"]))


def run_case(g: GameInstance, doc: dict, case: dict):
    """The trace of one grid entry ``case`` on the corpus game ``doc``."""
    if case["scheduler"] == "rr":
        scheduler = Scheduler.round_robin()
    elif case["scheduler"] == "random":
        scheduler = Scheduler.uniform_random(doc["scheduler_seed"])
    else:
        scheduler = Scheduler.explicit(doc["sequence"])
    if case["w0"] == "zero":
        w0 = AllocationProfile.zeros(g.n)
    else:
        w0 = AllocationProfile(np.array([_dense(pairs, g.n) for pairs in doc["w0"]]))
    return run_brd(g, w0, BrdConfig(scheduler=scheduler, lazy=case["lazy"], mode=case["mode"]))


POOLED = ("agents", "rows", "residuals", "centralities", "terminal")


def encode(trace) -> dict:
    stored = None
    centralities = []
    for s in trace.steps:
        c = s.centralities
        if stored is None:
            moved = np.arange(len(c))
            stored = c.copy()
        else:
            moved = np.flatnonzero(np.abs(c - stored) > DEAD_BAND * max(1.0, float(np.max(c))))
            stored[moved] = c[moved]
        centralities.append([[j, float(c[j])] for j in moved.tolist()])
    return {
        "status": trace.status,
        "total_steps": trace.total_steps,
        "agents": [s.agent for s in trace.steps],
        "rows": [None if s.row is None else _pairs(s.row) for s in trace.steps],
        "residuals": [s.residual for s in trace.steps],
        "centralities": centralities,
        "terminal": [_pairs(row) for row in trace.terminal.weights],
    }


def decode(doc: dict, run: dict) -> dict:
    """The stored trace of ``run``, with rows, terminal weights and
    centralities as dense arrays."""
    n = doc["instance"]["n"]
    stored = {field: doc[field][run[field]] for field in POOLED}
    c = np.zeros(n)
    centralities = []
    for moved in stored["centralities"]:
        for j, x in moved:
            c[j] = x
        centralities.append(c.copy())
    return {
        "status": run["status"],
        "total_steps": run["total_steps"],
        "agents": stored["agents"],
        "rows": [None if r is None else _dense(r, n) for r in stored["rows"]],
        "residuals": stored["residuals"],
        "centralities": centralities,
        "terminal": np.array([_dense(r, n) for r in stored["terminal"]]),
    }


def case_name(case: dict) -> str:
    lazy = "lazy" if case["lazy"] else "eager"
    return f"{case['mode']}/{case['scheduler']}/{lazy}/w0={case['w0']}"


def _generate(g: GameInstance, w0: AllocationProfile, seed: int) -> dict:
    doc = {
        "instance": json.loads(serialize_instance(g)),
        "w0": [_pairs(row) for row in w0.weights],
        "scheduler_seed": seed,
        "sequence": np.random.default_rng(seed).integers(g.n, size=4 * g.n).tolist(),
        "runs": [],
        **{field: [] for field in POOLED},
    }
    for case in GRID:
        run = {**case, **encode(run_case(g, doc, case))}
        for field in POOLED:
            pool = doc[field]
            if run[field] not in pool:
                pool.append(run[field])
            run[field] = pool.index(run[field])
        doc["runs"].append(run)
    return doc


def _moves(old: dict, new: dict) -> list[str]:
    """Every stored value of ``old`` that differs in ``new``, one line each."""
    lines = []
    old_runs = {case_name(r): decode(old, r) for r in old["runs"]}
    for r in new["runs"]:
        name = case_name(r)
        if name not in old_runs:
            lines.append(f"{name}: new run")
            continue
        a, b = old_runs[name], decode(new, r)
        for field in ("status", "total_steps"):
            if a[field] != b[field]:
                lines.append(f"{name} {field}: {a[field]!r} -> {b[field]!r}")
        for field in ("agents", "rows", "residuals", "centralities"):
            if len(a[field]) != len(b[field]):
                lines.append(f"{name} {field}: {len(a[field])} -> {len(b[field])} records")
            for k, (x, y) in enumerate(zip(a[field], b[field])):
                if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
                    lines += [
                        f"{name} {field}[{k}][{j}]: {x[j]!r} -> {y[j]!r}"
                        for j in np.flatnonzero(x != y).tolist()
                    ]
                elif x is not y and x != y:
                    lines.append(f"{name} {field}[{k}]: {x!r} -> {y!r}")
        for i, j in np.argwhere(a["terminal"] != b["terminal"]).tolist():
            lines.append(f"{name} terminal[{i}][{j}]: {a['terminal'][i, j]!r} -> {b['terminal'][i, j]!r}")
    return lines


def _write(doc: dict, path: Path) -> None:
    """Compact JSON with one top-level field, run or pooled value per line."""
    parts = []
    for key, value in doc.items():
        if key == "runs" or key in POOLED:
            items = ",\n".join(json.dumps(v, separators=(",", ":")) for v in value)
            parts.append(f'"{key}":[\n{items}]')
        else:
            parts.append(f'"{key}":{json.dumps(value, separators=(",", ":"))}')
    path.write_text("{\n" + ",\n".join(parts) + "}\n", encoding="utf-8")


def structure_profiles(g: GameInstance, doc: dict) -> dict[str, AllocationProfile]:
    """The profiles the structure slice analyses on the corpus game ``doc``:
    its stored modified round-robin lazy zero-start terminal, its stored
    random start profile and, on a symmetric topology,
    ``circulant_profile(g, 5, 1)``."""
    case = {"mode": "modified", "scheduler": "rr", "lazy": True, "w0": "zero"}
    run = next(r for r in doc["runs"] if {k: r[k] for k in case} == case)
    profiles = {
        "terminal": AllocationProfile(decode(doc, run)["terminal"]),
        "random": AllocationProfile(np.array([_dense(pairs, g.n) for pairs in doc["w0"]])),
    }
    if g.topology.is_symmetric():
        profiles["circulant"] = circulant_profile(g, 5, 1)
    return profiles


def structure_record(g: GameInstance, w: AllocationProfile) -> dict:
    """What the structure slice stores for the profile ``w`` of ``g``, as
    JSON values: 0-based SCCs and classes, 1-based report agents."""
    report, cond = run_structure_checks(g, w)
    return json.loads(
        json.dumps(
            {
                **report.to_json_dict(),
                "condensation": {
                    "components": [asdict(comp) for comp in cond.components],
                    "edges": sorted(cond.edges),
                },
                "parity_classes": parity_classes(w),
            }
        )
    )


def structure_doc(g: GameInstance, doc: dict) -> dict:
    cert = equilibrium_centralities(g)
    return {
        "c_star": cert.c_star.tolist(),
        "iterations": cert.iterations,
        "profiles": {name: structure_record(g, w) for name, w in structure_profiles(g, doc).items()},
    }


def mismatches(old, new, bound: float, where: str = "") -> list[str]:
    """Every value of the JSON tree ``old`` that ``new`` does not match, one
    line each: floats within ``bound``, everything else exactly."""
    if isinstance(old, float) and isinstance(new, float):
        return [] if abs(old - new) <= bound else [f"{where}: {old!r} -> {new!r}"]
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [line for key in old for line in mismatches(old[key], new[key], bound, f"{where}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for k, (x, y) in enumerate(zip(old, new)) for line in mismatches(x, y, bound, f"{where}[{k}]")]
    return [] if type(old) is type(new) and old == new else [f"{where}: {old!r} -> {new!r}"]


def main() -> None:
    CORPUS_DIR.mkdir(exist_ok=True)
    STRUCTURE_DIR.mkdir(exist_ok=True)
    for k, (name, (g, w0)) in enumerate(_games().items()):
        path = CORPUS_DIR / f"{name}.json"
        doc = _generate(g, w0, 200 + k)
        if path.exists():
            for line in _moves(json.loads(path.read_text(encoding="utf-8")), doc):
                print(f"{name} {line}")
        else:
            print(f"{name}: new game")
        _write(doc, path)
        if g.n > 16:
            continue
        path = STRUCTURE_DIR / f"{name}.json"
        structure = structure_doc(g, doc)
        if path.exists():
            for line in mismatches(json.loads(path.read_text(encoding="utf-8")), structure, 0.0):
                print(f"{name} structure{line}")
        else:
            print(f"{name}: new structure record")
        path.write_text(json.dumps(structure, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
