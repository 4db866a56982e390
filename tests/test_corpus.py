"""``run_brd``, the structure checks and the CLI against the stored
conformance corpus (see regenerate_corpus.py): floats within
``CROSS_CHECK_TOL`` * max(1, max c) of the stored values, except the
centralities and residuals of runs from zero, and everything else
exactly."""

import numpy as np
import pytest

from helpers import CROSS_CHECK_TOL
from katzforge import equilibrium_centralities, katz_solve
from regenerate_corpus import (
    CLI_PATH,
    CORPUS_DIR,
    GRID,
    STRUCTURE_DIR,
    case_name,
    cli_doc,
    game_of,
    mismatches,
    read,
    run_case,
    run_record,
    structure_profiles,
    structure_record,
)

GAMES = sorted(path.name.removesuffix(".json.xz") for path in CORPUS_DIR.glob("*.json.xz"))
STRUCTURE_GAMES = sorted(path.name.removesuffix(".json.xz") for path in STRUCTURE_DIR.glob("*.json.xz"))


def test_corpus_is_small():
    assert (len(GAMES), len(STRUCTURE_GAMES)) == (8, 6)
    assert sum(path.stat().st_size for path in CORPUS_DIR.rglob("*.json.xz")) <= 1_000_000


@pytest.mark.parametrize("name", GAMES)
def test_runs_match_corpus(name):
    doc = read(CORPUS_DIR / f"{name}.json.xz")
    g = game_of(doc)
    assert list(doc["runs"]) == [case_name(case) for case in GRID]
    for case in GRID:
        where = case_name(case)
        got, want = run_record(run_case(g, doc, case)), doc["runs"][where]
        for field in ("status", "total_steps", "agents", "rows", "terminal"):
            assert got[field] == want[field], (where, field)
        if case["w0"] == "zero":
            # the in-forest route from step 0 calls no BLAS, so its bits do
            # not depend on the BLAS thread count
            for field in ("centralities", "residuals"):
                assert got[field] == want[field], (where, field)
            continue
        # one bound per step; equal agents mean equal step counts
        want_c = np.array(want["centralities"])
        bound = CROSS_CHECK_TOL * np.maximum(1.0, want_c.max(axis=1))
        off = np.abs(np.array(got["centralities"]) - want_c).max(axis=1) > bound
        off |= np.abs(np.subtract(got["residuals"], want["residuals"])) > bound
        assert not off.any(), (where, np.flatnonzero(off))


@pytest.mark.parametrize("name", STRUCTURE_GAMES)
def test_structure_checks_match_corpus(name):
    doc, want = read(CORPUS_DIR / f"{name}.json.xz"), read(STRUCTURE_DIR / f"{name}.json.xz")
    g = game_of(doc)
    cert = equilibrium_centralities(g)
    assert cert.iterations == want["iterations"]
    bound = CROSS_CHECK_TOL * max(1.0, float(np.max(cert.c_star)))
    assert mismatches(want["c_star"], cert.c_star.tolist(), bound, "c_star") == []
    profiles = structure_profiles(g, doc)
    assert list(profiles) == list(want["profiles"])
    for label, w in profiles.items():
        bound = CROSS_CHECK_TOL * max(1.0, float(np.max(katz_solve(w))))
        assert mismatches(want["profiles"][label], structure_record(g, w), bound, label) == []


def test_cli_matches_corpus():
    want = read(CLI_PATH)
    assert sorted(want["run"]) == STRUCTURE_GAMES
    games = {name: game_of(read(CORPUS_DIR / f"{name}.json.xz")) for name in want["run"]}
    assert mismatches(want, cli_doc(games), 0.0) == []


def test_mismatches_reports_lengths_and_common_prefix():
    old = {"c": [1.0, 2.0, 3.0], "agents": [0, 1]}
    new = {"c": [1.0, 2.5], "agents": [0, 1, 1]}
    assert mismatches(old, new, 0.1) == [
        ".c: length 3 -> 2",
        ".c[1]: 2.0 -> 2.5",
        ".agents: length 2 -> 3",
    ]
