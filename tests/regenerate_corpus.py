"""The conformance corpus: what ``run_brd``, the structure checks and the
CLI give on a fixed set of games.

Each corpus file is one JSON document compressed with ``lzma``; read one
with ``python -c "import lzma, sys; print(lzma.open(sys.argv[1], 'rt').read())" FILE``.

Each file ``tests/corpus/<game>.json.xz`` holds one game, its random start
profile and schedules, and under ``runs``, keyed by ``case_name``, the record
of every run in the grid both modes x round-robin/uniform-random/explicit
schedules x lazy on/off x zero/random start: status, step count, and per
record the agent, row, residual and every centrality.  ``tests/test_corpus.py``
reruns the grid and compares in two classes:

- exact: agents, rows, status, step counts and terminal weights, and the
  centralities and residuals of runs from zero, which the in-forest route
  computes without BLAS;
- within ``CROSS_CHECK_TOL`` * max(1, max c) of the stored record: the
  centralities and residuals of runs from the random start.

Each file under ``tests/corpus/structure/`` holds, for the game of that name
with n <= 16, its equilibrium centralities c* with their iteration count
and, for each profile of ``structure_profiles``, the ``run_structure_checks``
report, the condensation and the parity classes.  The test compares
c* and every float of a report or condensation within ``CROSS_CHECK_TOL``
* max(1, max c) (c* or the profile's Katz centralities), and everything
else exactly: iteration counts, statuses, rules, witness agents, edges and
cycles, SCCs, sinks, condensation edges and parity classes.

``tests/corpus/cli/cli.json.xz`` holds, for each game with n <= 16 and
each mode, the exit code of ``katzforge run --mode MODE --w0 zero
--full-trace`` and the lines of the ``.alloc.json`` it writes, and the exit
code and instance file of ``katzforge gen`` for each of ``GEN_ARGS``.  The
test compares all of them exactly.

In the run slice, agents and columns are 0-based, and rows and weights are
stored as (j, weight) pairs of their positive entries.

Regenerate from the repository root with

    PYTHONPATH=src python tests/regenerate_corpus.py

It prints every stored value that moves (file, then the value's path in
the document: old -> new) and rewrites only the files whose content moved.
A deliberate change of contract regenerates the corpus in the same change
and names the values that moved; a failing comparison is never by itself a
reason to regenerate.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import sys
import tempfile
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
from katzforge.cli import main as cli_main

CORPUS_DIR = Path(__file__).parent / "corpus"
STRUCTURE_DIR = CORPUS_DIR / "structure"
CLI_PATH = CORPUS_DIR / "cli" / "cli.json.xz"

# three fixed argument sets of ``katzforge gen``, one with --self-loops
GEN_ARGS = (
    "--n 5 --seed 1",
    "--n 8 --density 0.4 --self-loops --budgets 0.5:0.95 --seed 2",
    "--n 12 --density 0.25 --budgets 0.2:0.6 --seed 3",
)

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


def _profile(rows: list[list[list]], n: int) -> AllocationProfile:
    """The profile whose rows are stored as (j, weight) pairs."""
    w = np.zeros((n, n))
    for i, pairs in enumerate(rows):
        for j, x in pairs:
            w[i, j] = x
    return AllocationProfile(w)


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
        w0 = _profile(doc["w0"], g.n)
    return run_brd(g, w0, BrdConfig(scheduler=scheduler, lazy=case["lazy"], mode=case["mode"]))


def run_record(trace) -> dict:
    """What the run slice stores for ``trace``, as JSON values."""
    return {
        "status": trace.status,
        "total_steps": trace.total_steps,
        "agents": [s.agent for s in trace.steps],
        "rows": [None if s.row is None else _pairs(s.row) for s in trace.steps],
        "residuals": [float(s.residual) for s in trace.steps],
        "centralities": [s.centralities.tolist() for s in trace.steps],
        "terminal": [_pairs(row) for row in trace.terminal.weights],
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
    }
    doc["runs"] = {case_name(case): run_record(run_case(g, doc, case)) for case in GRID}
    return doc


def structure_profiles(g: GameInstance, doc: dict) -> dict[str, AllocationProfile]:
    """The profiles the structure slice analyses on the corpus game ``doc``:
    its stored modified round-robin lazy zero-start terminal, its stored
    random start profile and, on a symmetric topology,
    ``circulant_profile(g, 5, 1)``."""
    profiles = {
        "terminal": _profile(doc["runs"]["modified/rr/lazy/w0=zero"]["terminal"], g.n),
        "random": _profile(doc["w0"], g.n),
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


def _cli(args: list[str], out: Path) -> dict:
    """The exit code of ``katzforge`` on ``args``, run in process, and the
    lines of the file ``out`` it writes, exactly as written."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    return {"exit_code": code, "lines": out.read_bytes().decode("utf-8").splitlines(keepends=True)}


def cli_doc(games: dict[str, GameInstance]) -> dict:
    """What the CLI slice stores: the instance file each ``gen`` of
    ``GEN_ARGS`` writes and, for each of ``games`` and mode, the
    ``.alloc.json`` that ``run --w0 zero --full-trace`` writes, each with its
    exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = {"gen": {}, "run": {}}
        for k, args in enumerate(GEN_ARGS):
            out = tmp / f"gen{k}.json"
            doc["gen"][args] = _cli(["gen", *args.split(), "-o", str(out)], out)
        for name, g in games.items():
            instance = tmp / f"{name}.json"
            instance.write_text(serialize_instance(g), encoding="utf-8")
            doc["run"][name] = {}
            for mode in ("standard", "modified"):
                csv = tmp / f"{name}-{mode}.csv"
                args = ["run", str(instance), "--mode", mode, "--w0", "zero", "--full-trace", "-o", str(csv)]
                doc["run"][name][mode] = _cli(args, csv.with_suffix(".alloc.json"))
    return doc


def mismatches(old, new, bound: float, where: str = "") -> list[str]:
    """Every value of the JSON tree ``old`` that ``new`` does not match, one
    line each: floats within ``bound``, everything else exactly.  Lists of
    different lengths get one line with both lengths, and then their common
    prefix is compared."""
    if isinstance(old, float) and isinstance(new, float):
        return [] if abs(old - new) <= bound else [f"{where}: {old!r} -> {new!r}"]
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [line for key in old for line in mismatches(old[key], new[key], bound, f"{where}.{key}")]
    if isinstance(old, list) and isinstance(new, list):
        lines = [] if len(old) == len(new) else [f"{where}: length {len(old)} -> {len(new)}"]
        pairs = enumerate(zip(old, new))
        return lines + [line for k, (x, y) in pairs for line in mismatches(x, y, bound, f"{where}[{k}]")]
    return [] if type(old) is type(new) and old == new else [f"{where}: {old!r} -> {new!r}"]


def read(path: Path) -> dict:
    return json.loads(lzma.decompress(path.read_bytes()))


def _store(doc: dict, path: Path) -> None:
    """Write ``doc`` to ``path`` unless the file holds it already, after
    printing every stored value that moves.  Comparing the JSON text, not
    the compressed bytes, keeps a file whose content did not move as it is
    whichever liblzma wrote it."""
    text = json.dumps(doc, separators=(",", ":"))
    name = path.relative_to(CORPUS_DIR)
    if not path.exists():
        print(f"{name}: new file")
    else:
        old = lzma.decompress(path.read_bytes()).decode("utf-8")
        if old == text:
            return
        for line in mismatches(json.loads(old), json.loads(text), 0.0):
            print(f"{name} {line.lstrip('.')}")
    path.write_bytes(lzma.compress(text.encode("utf-8")))


def main() -> None:
    STRUCTURE_DIR.mkdir(parents=True, exist_ok=True)
    CLI_PATH.parent.mkdir(exist_ok=True)
    small = {}
    for k, (name, (g, w0)) in enumerate(_games().items()):
        doc = _generate(g, w0, 200 + k)
        _store(doc, CORPUS_DIR / f"{name}.json.xz")
        if g.n <= 16:
            _store(structure_doc(g, doc), STRUCTURE_DIR / f"{name}.json.xz")
            small[name] = g
    _store(cli_doc(small), CLI_PATH)


if __name__ == "__main__":
    sys.exit(main())
