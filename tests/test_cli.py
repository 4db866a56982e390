import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import katzforge
from helpers import circulant_profile, complete_instance
import katzforge.centrality
from katzforge import (
    AllocationProfile,
    equilibrium_centralities,
    parse_instance,
    serialize_allocation,
    serialize_instance,
)
from katzforge.centrality import Resolvent
from katzforge.cli import main

I3_DOC = '{"n": 2, "edges": [[1, 1], [1, 2], [2, 1], [2, 2]], "budgets": [0.5, 0.25]}\n'


@pytest.fixture
def i3_file(tmp_path):
    p = tmp_path / "i3.json"
    p.write_text(I3_DOC)
    return p


@pytest.fixture
def i3_ne_file(tmp_path):
    p = tmp_path / "ne.json"
    p.write_text(serialize_allocation(AllocationProfile(np.array([[0.5, 0.0], [0.25, 0.0]]))))
    return p


class TestGen:
    def test_writes_instance_and_summary(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["gen", "--n", "10", "--density", "1.0", "--budgets", "0.1:0.9",
                     "--seed", "3", "-o", str(out)])
        assert code == 0
        assert "n=10" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["n"] == 10
        assert len(doc["edges"]) == 90  # complete digraph without self-loops

    def test_self_loops_flag(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen", "--n", "5", "--density", "0.3", "--self-loops",
                     "--seed", "5", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all([i, i] in doc["edges"] for i in range(1, 6))

    def test_byte_identical_for_same_flags(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["gen", "--n", "8", "--density", "0.5", "--seed", "11"]
        assert main(flags + ["-o", str(a)]) == 0
        assert main(flags + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_budget_spec_is_usage_error(self, tmp_path):
        assert main(["gen", "--n", "3", "--budgets", "nope", "-o", str(tmp_path / "x")]) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--n", "3", "--seed", "-1", "-o", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.endswith("Error: Invalid value for '--seed': -1 is not in the range x>=0.\n")
        assert not (tmp_path / "x").exists()


class TestEquilibrium:
    def test_two_agent_certificate(self, i3_file, capsys):
        assert main(["equilibrium", str(i3_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["c_star"], [1.0, 0.5], atol=1e-9)
        assert doc["contraction_rate"] == 0.5
        assert doc["meta"]["tool"] == "katzforge"
        assert "instance_sha256" in doc["meta"]

    def test_reported_instance_matches_reported_vector(self, tmp_path):
        budgets = (0.2, 0.2, 0.2, 0.83, 0.83, 0.83, 0.69, 0.69, 0.69, 0.17)
        inst = tmp_path / "reported.json"
        inst.write_text(serialize_instance(complete_instance(budgets)))
        out = tmp_path / "cert.json"
        assert main(["equilibrium", str(inst), "-o", str(out)]) == 0
        c = np.array(json.loads(out.read_text())["c_star"])
        reported = np.array([1.15] * 3 + [4.77] * 3 + [3.98] * 3 + [0.98])
        assert np.max(np.abs(c - reported) / reported) < 0.05

    def test_missing_file_is_usage_error(self):
        assert main(["equilibrium", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("b", ["0.999", "0.9999"])
    def test_near_one_budgets_certified(self, tmp_path, b):
        inst, out = tmp_path / "g.json", tmp_path / "cert.json"
        assert main(["gen", "--n", "300", "--density", "0.5", "--self-loops",
                     "--budgets", f"{b}:{b}", "--seed", "3", "-o", str(inst)]) == 0
        assert main(["equilibrium", str(inst), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {"c_star", "iterations", "residual", "contraction_rate"} <= set(doc)
        assert doc["residual"] <= doc["meta"]["tol"]
        b = float(b)
        assert np.max(np.abs(np.array(doc["c_star"]) - b / (1 - b))) <= 1e-10

    def test_residual_above_tol_is_clear_error(self, tmp_path, capsys):
        # the first generated instance whose c* has a positive residual,
        # with a tol below it
        inst = tmp_path / "g.json"
        for seed in range(1, 11):
            assert main(["gen", "--n", "10", "--seed", str(seed), "-o", str(inst)]) == 0
            residual = equilibrium_centralities(parse_instance(inst.read_text())).residual
            if residual > 0:
                break
        capsys.readouterr()
        assert main(["equilibrium", str(inst), "--tol", repr(residual / 2)]) == 1
        assert "error: equilibrium residual" in capsys.readouterr().err


class TestRun:
    def test_modified_mode_converges(self, i3_file, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["run", str(i3_file), "--mode", "modified", "--w0", "zero",
                     "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "# tool=katzforge version=0.1.0 instance_sha256="
            "83acbfb93d4ea11c3b13eae640846d77dcdf18090cf296a1265e67cd175e6a1e"
            " seed=0 tol=1e-10 scheduler=rr mode=modified w0=zero lazy=True status=converged"
        )
        assert lines[1] == "step,agent,residual,c_1,c_2"
        assert len(lines) - 2 <= 5  # initial record + at most 4 steps

    def test_step_limit_exit_code(self, i3_file, tmp_path):
        code = main(["run", str(i3_file), "--scheduler", "rr", "--max-steps", "1",
                     "-o", str(tmp_path / "t.csv")])
        assert code == 2

    def test_seeded_runs_are_byte_identical(self, i3_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["run", str(i3_file), "--scheduler", "random", "--seed", "9",
                         "--w0", "random", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_full_trace_writes_sibling_json(self, i3_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["run", str(i3_file), "--full-trace", "-o", str(out)]) == 0
        doc = json.loads((tmp_path / "t.alloc.json").read_text())
        assert doc["status"] == "converged"
        assert doc["terminal_weights"]

    def test_infeasible_w0_file_exits_3(self, i3_file, tmp_path):
        w0 = tmp_path / "w0.json"
        w0.write_text(serialize_allocation(AllocationProfile(np.array([[0.9, 0.0], [0.0, 0.0]]))))
        code = main(["run", str(i3_file), "--w0", f"file:{w0}", "-o", str(tmp_path / "t.csv")])
        assert code == 3

    def test_failed_centrality_check_exits_1(self, i3_file, tmp_path, capsys, monkeypatch):
        # every residual check fails: from zero, the check of the forest's
        # evaluation of step 0; from a w0 with a multi-edge row, the check
        # on the resolvent factored from it
        monkeypatch.setattr(Resolvent, "_residual", lambda self, c: np.ones_like(c))
        monkeypatch.setattr(katzforge.centrality, "_forest_residual", lambda succ, w, c: np.ones_like(c))
        w0 = tmp_path / "w0.json"
        w0.write_text(serialize_allocation(AllocationProfile(np.array([[0.2, 0.2], [0.0, 0.0]]))))
        for start, after in (([], "evaluation"), (["--w0", f"file:{w0}"], "factorization")):
            code = main(["run", str(i3_file), *start, "-o", str(tmp_path / "t.csv")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: centrality residual 1.0 exceeds bound after a fresh {after}\n"
            )
            assert not (tmp_path / "t.csv").exists()

    def test_w0_from_file(self, i3_file, i3_ne_file, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["run", str(i3_file), "--w0", f"file:{i3_ne_file}", "-o", str(out)])
        assert code == 0
        assert "status=converged" in out.read_text().splitlines()[0]

    def test_batch_seeds(self, i3_file, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["run", str(i3_file), "--scheduler", "random", "--w0", "random",
                     "--seeds", "1:3", "-o", str(out)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("t-seed*.csv"))
        assert files == ["t-seed1.csv", "t-seed2.csv", "t-seed3.csv"]

    def test_batch_jobs_matches_sequential(self, i3_file, tmp_path):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        seq_dir.mkdir()
        par_dir.mkdir()
        base = ["run", str(i3_file), "--scheduler", "random", "--w0", "random", "--seeds", "1:4"]
        assert main(base + ["-o", str(seq_dir / "t.csv")]) == 0
        assert main(base + ["--jobs", "4", "-o", str(par_dir / "t.csv")]) == 0
        for k in range(1, 5):
            assert (seq_dir / f"t-seed{k}.csv").read_bytes() == (par_dir / f"t-seed{k}.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seeds", "5:3"],  # empty range
            ["--seeds", "1.7:2.2"],  # not integers
            ["--seeds", "1:2:3"],
            ["--seeds", "1:2", "--jobs", "-3"],
            ["--seeds", "1:2", "--jobs", "0"],
        ],
        ids=["seeds-descending", "seeds-float", "seeds-three-parts", "jobs-negative", "jobs-zero"],
    )
    def test_malformed_batch_arguments_are_usage_errors(self, i3_file, tmp_path, flags):
        assert main(["run", str(i3_file), *flags, "-o", str(tmp_path / "t.csv")]) == 1
        assert not list(tmp_path.glob("t*.csv"))

    def test_unknown_scheduler_is_usage_error(self, i3_file, tmp_path):
        assert main(["run", str(i3_file), "--scheduler", "bogus", "-o", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--w0", "bogus"], "unknown --w0 'bogus'; expected zero, random, or file:PATH"),
            (["--scheduler", "seq:1,x"], "bad explicit schedule 'seq:1,x'; expected seq:1,2,3"),
            (["--seed", "-1"], "Invalid value for '--seed': -1 is not in the range x>=0."),
            (["--seeds", "-2:-1"], "--seeds needs non-negative seeds, got '-2:-1'"),
        ],
        ids=["w0", "explicit-schedule", "seed-negative", "seeds-negative"],
    )
    def test_bad_option_value_is_usage_error(self, i3_file, tmp_path, capsys, flags, message):
        assert main(["run", str(i3_file), *flags, "-o", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err.endswith(f"Error: {message}\n")
        assert not list(tmp_path.glob("t*.csv"))

    @pytest.mark.parametrize("flag", ["--w0", "--scheduler"])
    def test_line_break_in_trace_header_is_error(self, i3_file, i3_ne_file, tmp_path, capsys, flag):
        if flag == "--w0":
            w0 = tmp_path / "a\nb.json"
            w0.write_bytes(i3_ne_file.read_bytes())
            value = f"file:{w0}"
        else:
            value = "seq:1,2\n"
        assert main(["run", str(i3_file), flag, value, "-o", str(tmp_path / "t.csv")]) == 1
        assert "contains a line break" in capsys.readouterr().err
        assert not list(tmp_path.glob("t*.csv"))

    def test_explicit_schedule(self, i3_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["run", str(i3_file), "--scheduler", "seq:1,2", "-o", str(out)]) == 0

    @pytest.mark.parametrize("agent", ["0", "3", "-1"])
    def test_explicit_schedule_names_agent_as_typed(self, i3_file, tmp_path, capsys, agent):
        argv = ["run", str(i3_file), "--scheduler", f"seq:1,{agent}", "-o", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert f"scheduled agent {agent} out of range 1..2" in capsys.readouterr().err
        assert not list(tmp_path.glob("t*.csv"))


class TestVerify:
    def test_nash_profile(self, i3_file, i3_ne_file, capsys):
        assert main(["verify", str(i3_file), str(i3_ne_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True
        assert doc["residual"] <= 1e-10
        assert len(doc["v_gaps"]) == 2

    def test_zero_profile_is_not_nash(self, i3_file, tmp_path, capsys):
        zero = tmp_path / "zero.json"
        zero.write_text(serialize_allocation(AllocationProfile.zeros(2)))
        assert main(["verify", str(i3_file), str(zero)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False
        # with -o the verdict goes to the file and stdout gets one summary line
        out = tmp_path / "verdict.json"
        assert main(["verify", str(i3_file), str(zero), "-o", str(out)]) == 0
        assert capsys.readouterr().out == "verdict=False residual=5.000e-01 v_gaps=[5.000e-01 2.500e-01]\n"
        assert json.loads(out.read_text()) == doc

    def test_support_violation_is_infeasible(self, tmp_path, capsys):
        inst = tmp_path / "i2.json"
        inst.write_text('{"n": 2, "edges": [[1, 2], [2, 1]], "budgets": [0.5, 0.25]}')
        alloc = tmp_path / "w.json"
        alloc.write_text(serialize_allocation(AllocationProfile(np.array([[0.1, 0.0], [0.0, 0.0]]))))
        assert main(["verify", str(inst), str(alloc)]) == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"

    def test_env_var_tolerance_and_flag_precedence(self, i3_file, tmp_path, capsys, monkeypatch):
        zero = tmp_path / "zero.json"
        zero.write_text(serialize_allocation(AllocationProfile.zeros(2)))
        # residual of the zero profile is max(B) = 0.5 < 1.0
        monkeypatch.setenv("KATZFORGE_TOL", "1.0")
        assert main(["verify", str(i3_file), str(zero)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True
        # flag beats the environment
        assert main(["verify", str(i3_file), str(zero), "--tol", "1e-10"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is False

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_boolean_weight_is_parse_error(self, i3_file, tmp_path, capsys, command):
        alloc = tmp_path / "w.json"
        alloc.write_text('{"weights": [[0, 0.5], [true, 0]]}')
        assert main([command, str(i3_file), str(alloc)]) == 1
        captured = capsys.readouterr()
        assert "error: weights[1]: must be a list of n=2 numbers" in captured.err
        assert captured.out == ""


class TestHugeIntegers:
    """A JSON integer beyond float range gets the error of the equal float literal."""

    HUGE = "1" + "0" * 400

    def test_budget(self, tmp_path, capsys):
        errors = []
        for value in (self.HUGE, "1e400"):
            inst = tmp_path / "g.json"
            inst.write_text(f'{{"n": 2, "edges": [[1, 2], [2, 1]], "budgets": [0.5, {value}]}}')
            assert main(["equilibrium", str(inst)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == "error: budgets[1]: must be positive and finite\n"

    def test_budget_beyond_int_digit_limit(self, tmp_path, capsys):
        errors = []
        for value in ("1" + "0" * 5000, "1e5000"):
            inst = tmp_path / "g.json"
            inst.write_text(f'{{"n": 2, "edges": [[1, 2], [2, 1]], "budgets": [0.5, {value}]}}')
            assert main(["equilibrium", str(inst)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == "error: budgets[1]: must be positive and finite\n"

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_weight(self, i3_file, tmp_path, capsys, command):
        errors = []
        for value in (self.HUGE, "1e400"):
            alloc = tmp_path / "w.json"
            alloc.write_text(f'{{"weights": [[0, 0.5], [{value}, 0]]}}')
            assert main([command, str(i3_file), str(alloc)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == "error: weights: weights must be finite\n"


class TestAnalyze:
    def test_complete_topology_report_and_dot(self, i3_file, i3_ne_file, tmp_path):
        out = tmp_path / "report.json"
        dot = tmp_path / "cond.dot"
        assert main(["analyze", str(i3_file), str(i3_ne_file), "-o", str(out),
                     "--dot", str(dot)]) == 0
        doc = json.loads(out.read_text())
        by_name = {c["name"]: c["status"] for c in doc["checks"]}
        assert by_name["complete-closed-form"] == "pass"
        assert by_name["hierarchy"] == "pass"
        assert by_name["scc-uniformity"] == "pass"
        assert by_name["cycle-parity"] == "pass"
        assert doc["condensation"]["components"][0]["sink"] is True
        assert "doublecircle" in dot.read_text()

    def test_undirected_three_cycle(self, tmp_path, capsys):
        inst = tmp_path / "tri.json"
        inst.write_text(
            '{"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [3, 2], [3, 1], [1, 3]],'
            ' "budgets": [0.5, 0.5, 0.5]}'
        )
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 0.5
        alloc = tmp_path / "w.json"
        alloc.write_text(serialize_allocation(AllocationProfile(w)))
        assert main(["analyze", str(inst), str(alloc)]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {c["name"]: c["status"] for c in doc["checks"]}
        assert by_name["cycle-parity"] == "pass"
        assert by_name["complete-closed-form"] == "inapplicable"

    def test_infeasible_allocation_exits_3(self, i3_file, tmp_path):
        alloc = tmp_path / "w.json"
        alloc.write_text(serialize_allocation(AllocationProfile(np.array([[0.9, 0.0], [0.0, 0.0]]))))
        assert main(["analyze", str(i3_file), str(alloc)]) == 3

    @staticmethod
    def dense_files(tmp_path, n):
        """Complete topology, budgets 0.5, and a 5-per-row circulant profile."""
        g = complete_instance((0.5,) * n)
        inst, alloc = tmp_path / f"k{n}.json", tmp_path / f"k{n}-w.json"
        inst.write_text(serialize_instance(g))
        alloc.write_text(serialize_allocation(circulant_profile(g, 5, seed=n)))
        return inst, alloc

    def test_dense_n16_finishes_with_class_witnesses(self, tmp_path):
        # listing simple cycles up to length 12 did not finish here in 120 s
        inst, alloc = self.dense_files(tmp_path, 16)
        out = tmp_path / "report.json"
        assert main(["analyze", str(inst), str(alloc), "-o", str(out)]) == 0
        parity = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["cycle-parity"]
        assert parity["status"] == "fail" and parity["witnesses"]
        weights = np.array(json.loads(alloc.read_text())["weights"])
        for witness in parity["witnesses"]:
            cycle = [a - 1 for a in witness["cycle"]]
            assert len(set(cycle)) == len(cycle) >= 3
            assert all(weights[a, b] > 0 for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            assert {cycle[0] + 1, cycle[2] + 1} <= set(witness["agents"])

    def test_cycle_bound_option_is_gone(self, tmp_path):
        inst, alloc = self.dense_files(tmp_path, 6)
        assert main(["analyze", str(inst), str(alloc), "--cycle-bound", "5"]) == 1

    def test_report_bytes_independent_of_hash_seed(self, tmp_path):
        inst, alloc = self.dense_files(tmp_path, 12)
        src = str(Path(katzforge.__file__).resolve().parents[1])
        reports = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"report-{hash_seed}.json"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            code = "import sys; from katzforge.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run(
                [sys.executable, "-c", code, "analyze", str(inst), str(alloc), "-o", str(out)],
                env=env, check=True, timeout=120,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_flag_must_be_finite_and_positive(self, i3_file, tmp_path, capsys, tol):
        assert main(["equilibrium", str(i3_file), "--tol", tol]) == 1
        assert main(["run", str(i3_file), "--mode", "modified", "--tol", tol,
                     "-o", str(tmp_path / "t.csv")]) == 1
        assert "tol must be finite and positive" in capsys.readouterr().err
        assert not list(tmp_path.glob("t*.csv"))

    def test_env_var_must_be_finite_and_positive(self, i3_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KATZFORGE_TOL", "nan")
        assert main(["run", str(i3_file), "--mode", "modified", "-o", str(tmp_path / "t.csv")]) == 1
        assert "tol must be finite and positive, got nan" in capsys.readouterr().err
        assert not list(tmp_path.glob("t*.csv"))

    def test_env_var_empty_is_unset_and_non_number_is_usage_error(self, i3_file, capsys, monkeypatch):
        monkeypatch.setenv("KATZFORGE_TOL", "")
        assert main(["equilibrium", str(i3_file)]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["tol"] == 1e-10
        monkeypatch.setenv("KATZFORGE_TOL", "abc")
        assert main(["equilibrium", str(i3_file)]) == 1
        assert "'abc'" in capsys.readouterr().err


class TestUsage:
    def test_no_command_shows_usage(self):
        assert main([]) in (0, 1)  # click prints help; never crashes

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "katzforge" in capsys.readouterr().out

    def test_malformed_instance_is_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["equilibrium", str(bad)]) == 1

    @pytest.mark.parametrize("command", ["equilibrium", "run", "verify", "analyze"])
    def test_invalid_instance_line(self, tmp_path, capsys, command):
        inst = tmp_path / "g.json"
        inst.write_text('{"n": 2, "edges": [[1, 2]], "budgets": [1.0, 0.5]}')
        alloc = tmp_path / "w.json"
        alloc.write_text(serialize_allocation(AllocationProfile.zeros(2)))
        extra = {"run": ["-o", str(tmp_path / "t.csv")], "verify": [str(alloc)], "analyze": [str(alloc)]}
        assert main([command, str(inst), *extra.get(command, [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid instance: agent 2: empty out-neighborhood in underlying topology "
            "(nonempty-neighborhood rule); agent 1: budget 1.0 outside (0, 1) (budget-bound rule)\n"
        )


# Runs in a fresh interpreter from the working directory, so every artifact,
# and the output naming it, is the same whatever the directory.
PIPELINE = """
import json, sys
from pathlib import Path
from katzforge import AllocationProfile, serialize_allocation
from katzforge.cli import main

codes = [
    main(["gen", "--n", "12", "--density", "0.4", "--self-loops", "--seed", "5", "-o", "g.json"]),
    main(["equilibrium", "g.json", "-o", "cert.json"]),
    main(["run", "g.json", "--mode", "modified", "--w0", "random", "--full-trace", "-o", "t.csv"]),
]
terminal = json.loads(Path("t.alloc.json").read_text())["terminal_weights"]
Path("ne.json").write_text(serialize_allocation(AllocationProfile(terminal)))
codes += [
    main(["verify", "g.json", "ne.json", "-o", "verdict.json"]),
    main(["analyze", "g.json", "ne.json", "-o", "report.json", "--dot", "cond.dot"]),
]
# validation must not depend on assert statements
Path("negative.json").write_text('{"weights": ' + json.dumps([[-0.1] * 12] * 12) + "}")
Path("over.json").write_text(serialize_allocation(AllocationProfile([[0.99] * 12] * 12)))
codes += [main(["verify", "g.json", "negative.json"]), main(["verify", "g.json", "over.json"])]
print("optimize", sys.flags.optimize, "codes", codes)
"""


def test_pipeline_under_python_optimize(tmp_path):
    src = str(Path(katzforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = {}
    for flags in ((), ("-O",)):
        cwd = tmp_path / ("optimized" if flags else "plain")
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, *flags, "-c", PIPELINE],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        *output, summary = done.stdout.splitlines()
        assert summary == f"optimize {len(flags)} codes [0, 0, 0, 0, 0, 1, 3]"
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        runs[flags] = (output, done.stderr, files)
    plain, optimized = runs[()], runs[("-O",)]
    assert set(plain[2]) == {
        "g.json", "cert.json", "t.csv", "t.alloc.json", "ne.json", "verdict.json",
        "report.json", "cond.dot", "negative.json", "over.json",
    }
    assert "error: weights: weights must be nonnegative" in plain[1]
    assert plain == optimized


# Imports the package and the CLI, analyses a cyclic non-Nash profile in the
# same process, then prints the exit code, the cycle-parity witnesses and
# whether networkx was loaded along the way.
ANALYZE_IMPORTS = """
import json, sys
from pathlib import Path
import katzforge, katzforge.cli

code = katzforge.cli.main(["analyze", "g.json", "w.json", "-o", "report.json"])
parity = json.loads(Path("report.json").read_text())["checks"][3]
print(code, parity["status"], [w["cycle"] for w in parity["witnesses"]], "networkx" in sys.modules)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_analyze_imports_no_networkx(tmp_path, flags):
    # a directed triangle with unequal budgets on a symmetric topology
    edges = [[1, 2], [2, 1], [2, 3], [3, 2], [3, 1], [1, 3]]
    (tmp_path / "g.json").write_text(json.dumps({"n": 3, "edges": edges, "budgets": [0.5, 0.4, 0.5]}))
    w = np.zeros((3, 3))
    w[0, 1], w[1, 2], w[2, 0] = 0.5, 0.4, 0.5
    (tmp_path / "w.json").write_text(serialize_allocation(AllocationProfile(w)))
    src = str(Path(katzforge.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *flags, "-c", ANALYZE_IMPORTS],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 fail [[2, 3, 1]] False\n"
