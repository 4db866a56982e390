"""``run_brd`` and the structure checks against the stored conformance corpus
(see regenerate_corpus.py)."""

import json

import numpy as np
import pytest

from helpers import CROSS_CHECK_TOL
from katzforge import equilibrium_centralities, katz_solve
from regenerate_corpus import (
    CORPUS_DIR,
    GRID,
    STRUCTURE_DIR,
    case_name,
    decode,
    game_of,
    mismatches,
    run_case,
    structure_profiles,
    structure_record,
)

GAMES = sorted(path.stem for path in CORPUS_DIR.glob("*.json"))
STRUCTURE_GAMES = sorted(path.stem for path in STRUCTURE_DIR.glob("*.json"))


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_corpus_is_small():
    assert (len(GAMES), len(STRUCTURE_GAMES)) == (8, 6)
    assert sum(path.stat().st_size for path in CORPUS_DIR.rglob("*.json")) <= 1_000_000


@pytest.mark.parametrize("name", GAMES)
def test_runs_match_corpus(name):
    doc = _read(CORPUS_DIR / f"{name}.json")
    g = game_of(doc)
    assert [{k: run[k] for k in GRID[0]} for run in doc["runs"]] == GRID
    for run in doc["runs"]:
        trace, want, where = run_case(g, doc, run), decode(doc, run), case_name(run)
        assert (trace.status, trace.total_steps) == (want["status"], want["total_steps"]), where
        assert [s.agent for s in trace.steps] == want["agents"], where
        np.testing.assert_array_equal(trace.terminal.weights, want["terminal"], err_msg=where)
        for s, row, c, residual in zip(trace.steps, want["rows"], want["centralities"], want["residuals"]):
            assert (s.row is None) == (row is None), (where, s.step)
            if row is not None:
                np.testing.assert_array_equal(s.row, row, err_msg=f"{where} step {s.step}")
            bound = CROSS_CHECK_TOL * max(1.0, float(np.max(c)))
            assert np.max(np.abs(s.centralities - c)) <= bound, (where, s.step)
            assert abs(s.residual - residual) <= bound, (where, s.step)


@pytest.mark.parametrize("name", STRUCTURE_GAMES)
def test_structure_checks_match_corpus(name):
    doc, want = _read(CORPUS_DIR / f"{name}.json"), _read(STRUCTURE_DIR / f"{name}.json")
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
