"""``run_brd`` against the stored conformance corpus (see regenerate_corpus.py)."""

import json

import numpy as np
import pytest

from helpers import CROSS_CHECK_TOL
from regenerate_corpus import CORPUS_DIR, GRID, case_name, decode, game_of, run_case

GAMES = sorted(path.stem for path in CORPUS_DIR.glob("*.json"))


def test_corpus_is_small():
    assert len(GAMES) == 8
    assert sum((CORPUS_DIR / f"{name}.json").stat().st_size for name in GAMES) <= 1_000_000


@pytest.mark.parametrize("name", GAMES)
def test_runs_match_corpus(name):
    doc = json.loads((CORPUS_DIR / f"{name}.json").read_text(encoding="utf-8"))
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
