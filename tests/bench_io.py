"""In-process timings of katzforge's artifact I/O and BRD runs: a parent tree
against a change.

Loads two source trees of the package side by side (as ``kf_parent`` and
``kf_change``) and times, alternating which side goes first in each repeat:

- both trace writers on the six traces of perfbench's ``brd-near1`` workload
  at seed 1 (the same instances, run seed and w0 as its ``run`` commands),
  on modified round-robin runs from zero at n=500 (density 0.05) and n=1000
  (density 0.02) and from random w0 on complete n=200 and n=500 instances,
  and on hand-built n=200 and n=500 traces where every centrality and every
  weight is new at every record, the case where formatting only what changed
  saves nothing;
- ``parse_instance`` on an n=200 instance of density 0.1 and on complete
  n=60 and n=1000 instances, and ``generate_random_instance`` making them;
- ``random_profile`` on the six ``brd-near1`` seed-1 instances;
- ``run_brd``, modified round-robin, on the ``brd-near1`` runs, on the runs
  from zero that the writers get, from zero on a directed line of n=1000
  with self-loops and budgets rising from 0.1 to 0.9 along it (every
  in-tree grows to the whole line), and from a nonzero single-edge w0 on
  the n=500 instance;
- ``equilibrium_centralities`` on the n=1000 instance of those runs and on
  the same kind of line at n=2000;
- ``katz_solve`` on two single-edge profiles, the terminal of the n=1000
  run from zero and the equilibrium policy of the n=2000 line, and on a
  multi-edge ``random_profile`` of the n=500 instance, whose centralities
  must be identical on both sides.

The writers' traces are built once, with the change's ``run_brd``; only the
timed call differs between the sides.  The ``random_profile`` and ``run_brd``
cases build each side's inputs with that side's package.  Each writer case
also reports the share of c_j entries whose bits did not change since the
previous record and the share of zero-bit weights, which is what the writers
skip.  Every pair of outputs must be identical: the same file bytes, the same
instance, the same weights; two ``katz_solve`` results on a single-edge
profile must agree within ``CROSS_CHECK_TOL`` relative to max(1, max c)
(NaN fails); two ``run_brd`` traces must have the same
status, agents, rows and terminal weights, bit for bit, and the largest
difference of a record's centralities or residual, relative to
max(1, max c), must be within ``CROSS_CHECK_TOL`` (NaN fails) and is
reported; two certificates must have the same ``iterations``, and c* the
same bound.  The outputs are compared in an untimed first
call of each side.  One sample is one wall-clock call over all
the inputs of its case, with no output of another sample still alive.
BLAS runs on one thread.  Prints one JSON document (or writes it to
``--out``):

    python tests/bench_io.py --parent /path/to/parent/src [--change src] [--repeats 11] [--out timings.json]

pytest does not collect this file; it is not a test.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse
import importlib
import importlib.util
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# perfbench's brd-near1 workload: (n, density, budget range) per instance,
# gen seed 1000 + k and run seed 1500 at workload seed 1, self-loops on
BRD_NEAR1 = [(200, 0.1, (0.1, 0.9))] * 3 + [(60, 1.0, (0.99, 0.99)), (60, 0.5, (0.999, 0.999)), (60, 0.5, (0.998, 0.999))]
RUN_SEED = 1500
# the agreement bound between computation routes, as in tests/helpers.py
CROSS_CHECK_TOL = 1e-10


def load(src: Path, name: str):
    """The package under ``src`` imported as the top-level package ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "katzforge" / "__init__.py", submodule_search_locations=[str(src / "katzforge")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def near1_instances(kf) -> list:
    return [kf.generate_random_instance(n, d, True, b, 1000 + k) for k, (n, d, b) in enumerate(BRD_NEAR1)]


def w0_seed(kf) -> int:
    # the CLI's w0 seed for a run seed
    return importlib.import_module(f"{kf.__name__}.cli")._derived_seeds(RUN_SEED, 2)[1]


# BRD inputs, a list of (game, w0) pairs each: the brd-near1 instances from
# the CLI's w0, and one instance from zero or, complete, from random_profile(g, 1)
def near1_starts(kf) -> list:
    return [(g, kf.random_profile(g, w0_seed(kf))) for g in near1_instances(kf)]


def zero_start(kf, n: int, density: float) -> list:
    g = kf.generate_random_instance(n, density, True, (0.1, 0.9), 1)
    return [(g, kf.AllocationProfile.zeros(n))]


def complete_random_start(kf, n: int) -> list:
    g = kf.generate_random_instance(n, 1.0, True, (0.1, 0.9), 1)
    return [(g, kf.random_profile(g, 1))]


def modified_runs(kf, starts: list) -> list:
    """Modified round-robin BRD from each start."""
    return [kf.run_brd(g, w0, kf.BrdConfig(mode="modified")) for g, w0 in starts]


def line_start(kf, n: int) -> list:
    """A directed line 0 -> 1 -> ... -> n-1 with self-loops and budgets
    rising along it, from zero."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i) for i in range(n)]
    g = kf.GameInstance(kf.topology_from_edges(n, edges), tuple(np.linspace(0.1, 0.9, n).tolist()))
    return [(g, kf.AllocationProfile.zeros(n))]


def line_policy(kf, n: int) -> np.ndarray:
    """The equilibrium policy of ``line_start``'s line: B_i on the
    out-neighbor, i or i + 1, with the larger c*."""
    g = line_start(kf, n)[0][0]
    c = kf.equilibrium_centralities(g).c_star
    w = np.zeros((n, n))
    for i in range(n):
        w[i, max(g.topology.out_neighbors(i), key=lambda j: c[j])] = g.budgets[i]
    return w


def single_edge_start(kf, n: int, density: float) -> list:
    """Half of each budget on the agent's first underlying out-neighbor."""
    g = kf.generate_random_instance(n, density, True, (0.1, 0.9), 1)
    w0 = np.zeros((n, n))
    for i in range(n):
        w0[i, g.topology.out_neighbors(i)[0]] = 0.5 * g.budgets[i]
    return [(g, kf.AllocationProfile(w0))]


def trace_deviation(a, b) -> float | None:
    """None unless the traces have the same status, agents, rows and
    terminal weights, bit for bit; else the largest difference of a record's
    centralities or residual, relative to max(1, max c) of ``b``'s record."""
    if a.status != b.status or len(a.steps) != len(b.steps):
        return None
    if a.terminal.weights.tobytes() != b.terminal.weights.tobytes():
        return None
    offs = [0.0]
    for x, y in zip(a.steps, b.steps):
        rows = [None if s.row is None else s.row.tobytes() for s in (x, y)]
        if x.agent != y.agent or rows[0] != rows[1]:
            return None
        scale = max(1.0, float(np.max(y.centralities)))
        offs.append(np.max(np.abs(np.append(x.centralities - y.centralities, x.residual - y.residual))) / scale)
    return float(np.max(offs))  # NaN if any difference is NaN


def identical(same: bool) -> float | None:
    return 0.0 if same else None


def all_moving_trace(kf, n: int, records: int):
    """Every centrality, every row weight and every terminal weight nonzero
    and new at every record."""
    rng = np.random.default_rng(n)
    steps = [kf.BrdStep(0, None, None, rng.uniform(1, 2, n), 1.0)]
    for k in range(1, records):
        steps.append(kf.BrdStep(k, k % n, rng.uniform(0.1, 1, n) / n, rng.uniform(1, 2, n), 1 / k))
    terminal = kf.AllocationProfile(rng.uniform(0.1, 1, (n, n)) / n)
    return kf.BrdTrace(tuple(steps), terminal, "step-limit", kf.BrdConfig(mode="modified"))


def skipped_shares(runs: list) -> dict:
    """The share of c_j entries with the same bits as at the previous record,
    and of zero-bit weights in the step rows and terminal rows."""
    same = after_first = zero = weights = 0
    for t in runs:
        bits = [s.centralities.view(np.int64) for s in t.steps]
        same += sum(int(np.count_nonzero(a == b)) for a, b in zip(bits, bits[1:]))
        after_first += (len(bits) - 1) * t.n
        rows = [s.row for s in t.steps if s.row is not None] + [t.terminal.weights]
        zero += sum(int(np.count_nonzero(r.view(np.int64) == 0)) for r in rows)
        weights += sum(r.size for r in rows)
    return {"unchanged_c_share": round(same / after_first, 4), "zero_weight_share": round(zero / weights, 4)}


def cases(parent, change, work: Path) -> dict:
    """name -> (what, {side: call}, compare): each call returns its outputs,
    and ``compare(a, b)`` is None when the two sides' outputs disagree, else
    the largest relative difference of their floats, 0.0 when identical.
    ``run_brd`` outputs disagree also when that difference is above
    ``CROSS_CHECK_TOL`` or NaN."""
    meta = {"seed": RUN_SEED, "mode": "modified", "w0": "random"}
    brd = {
        "brd-near1-seed1": near1_starts,
        "zero-n500-d0.05": lambda kf: zero_start(kf, 500, 0.05),
        "zero-n1000-d0.02": lambda kf: zero_start(kf, 1000, 0.02),
    }
    traces = {key: modified_runs(change, starts(change)) for key, starts in brd.items()} | {
        "complete-random-n200": modified_runs(change, complete_random_start(change, 200)),
        "complete-random-n500": modified_runs(change, complete_random_start(change, 500)),
        "all-moving-n200": [all_moving_trace(change, 200, 263)],
        "all-moving-n500": [all_moving_trace(change, 500, 689)],
    }

    def writer(kf, fn_name: str, suffix: str, key: str):
        def call():
            paths = [work / f"{kf.__name__}-{key}-{k}{suffix}" for k in range(len(traces[key]))]
            for trace, path in zip(traces[key], paths):
                getattr(kf, fn_name)(trace, path, meta)
            return paths
        return call

    def same_files(a, b):
        return identical(all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b)))

    out = {}
    for key, runs in traces.items():
        steps = sum(t.total_steps + 1 for t in runs)
        shares = skipped_shares(runs)
        for fn_name, suffix in (("write_trace_csv", ".csv"), ("write_trace_allocations_json", ".alloc.json")):
            what = (f"{fn_name} on {len(runs)} trace(s), {steps} records in all; c_j unchanged since the "
                    f"previous record: {shares['unchanged_c_share']}, zero-bit weights: {shares['zero_weight_share']}")
            calls = {side: writer(kf, fn_name, suffix, key) for side, kf in (("parent", parent), ("change", change))}
            out[f"{fn_name}/{key}"] = (what, calls, same_files)

    sizes = {"n200-d0.1": (200, 0.1), "complete-n60": (60, 1.0), "complete-n1000": (1000, 1.0)}

    def same_instances(a, b):
        return identical(a.budgets == b.budgets and all(
            np.array_equal(x, y) for x, y in zip(a.topology.neighbor_index, b.topology.neighbor_index)
        ))

    for key, (n, density) in sizes.items():
        text = change.serialize_instance(change.generate_random_instance(n, density, True, (0.1, 0.9), 1))
        calls = {side: (lambda kf=kf, text=text: kf.parse_instance(text)) for side, kf in (("parent", parent), ("change", change))}
        out[f"parse_instance/{key}"] = (f"parse_instance on {len(text)} bytes", calls, same_instances)
        calls = {
            side: (lambda kf=kf, n=n, density=density: kf.generate_random_instance(n, density, True, (0.1, 0.9), 1))
            for side, kf in (("parent", parent), ("change", change))
        }
        out[f"generate_random_instance/{key}"] = (f"generate_random_instance({n}, {density}, self-loops, seed 1)", calls, same_instances)

    games = {side: near1_instances(kf) for side, kf in (("parent", parent), ("change", change))}
    seeds = {side: w0_seed(kf) for side, kf in (("parent", parent), ("change", change))}
    calls = {
        side: (lambda kf=kf, side=side: [kf.random_profile(g, seeds[side]).weights for g in games[side]])
        for side, kf in (("parent", parent), ("change", change))
    }
    out["random_profile/brd-near1-seed1"] = (
        "random_profile on the six brd-near1 seed-1 instances, with the CLI's w0 seed for run seed 1500",
        calls,
        lambda a, b: identical(all(x.tobytes() == y.tobytes() for x, y in zip(a, b))),
    )

    def same_decisions(a, b):
        deviations = list(map(trace_deviation, a, b))
        if None in deviations:
            return None
        worst = float(np.max(deviations))
        return worst if worst <= CROSS_CHECK_TOL else None  # NaN fails too

    brd |= {"line-n1000": lambda kf: line_start(kf, 1000), "single-edge-n500-d0.05": lambda kf: single_edge_start(kf, 500, 0.05)}
    for key, starts in brd.items():
        inputs = {side: starts(kf) for side, kf in (("parent", parent), ("change", change))}
        calls = {
            side: (lambda kf=kf, starts=inputs[side]: modified_runs(kf, starts))
            for side, kf in (("parent", parent), ("change", change))
        }
        out[f"run_brd/{key}"] = (
            f"run_brd, modified round-robin, on {len(inputs['change'])} (game, w0) pair(s)",
            calls,
            same_decisions,
        )

    def same_centralities(a, b):
        worst = float(np.max(np.abs(a - b))) / max(1.0, float(np.max(b)))
        return worst if worst <= CROSS_CHECK_TOL else None  # NaN fails too

    def same_certificate(a, b):
        return same_centralities(a.c_star, b.c_star) if a.iterations == b.iterations else None

    equilibria = {"n1000-d0.02": lambda kf: zero_start(kf, 1000, 0.02), "line-n2000": lambda kf: line_start(kf, 2000)}
    for key, starts in equilibria.items():
        calls = {
            side: (lambda kf=kf, g=starts(kf)[0][0]: kf.equilibrium_centralities(g))
            for side, kf in (("parent", parent), ("change", change))
        }
        out[f"equilibrium_centralities/{key}"] = ("equilibrium_centralities, default tol", calls, same_certificate)

    g500 = zero_start(change, 500, 0.05)[0][0]
    profiles = {
        "zero-n1000-d0.02-terminal": (
            "the terminal of the modified run from zero at n=1000",
            traces["zero-n1000-d0.02"][0].terminal.weights,
            same_centralities,
        ),
        "line-n2000-policy": ("the equilibrium policy of the n=2000 line", line_policy(change, 2000), same_centralities),
        "random-n500-d0.05": (
            "random_profile(g, 1) of the n=500 instance, multi-edge",
            change.random_profile(g500, 1).weights,
            lambda a, b: identical(a.tobytes() == b.tobytes()),
        ),
    }
    for key, (what, a, compare) in profiles.items():
        calls = {side: (lambda kf=kf, a=a: kf.katz_solve(a)) for side, kf in (("parent", parent), ("change", change))}
        out[f"katz_solve/{key}"] = (f"katz_solve on {what}", calls, compare)
    return out


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5), "runs_s": [round(r, 5) for r in runs]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="src directory of the parent tree")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="src directory of the change (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=11, help="samples per side and case")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    parent, change = load(args.parent.resolve(), "kf_parent"), load(args.change.resolve(), "kf_change")
    result = {
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}, OPENBLAS_NUM_THREADS=1",
        "repeats": args.repeats,
        "order": "parent first in even repeats, change first in odd ones",
        "cases": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, (what, calls, compare) in cases(parent, change, Path(tmp)).items():
            deviation = compare(calls["parent"](), calls["change"]())
            if deviation is None:
                raise SystemExit(
                    f"{name}: the parent's and the change's outputs differ "
                    f"(for run_brd: a decision, or a float by more than {CROSS_CHECK_TOL} or NaN; "
                    "for equilibrium_centralities: iterations, or c* by as much; for katz_solve: "
                    "c by as much, or any bit of it on the multi-edge profile)"
                )
            times = {"parent": [], "change": []}
            for r in range(args.repeats):
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    start = time.perf_counter()
                    output = calls[side]()
                    times[side].append(time.perf_counter() - start)
                    del output  # freed untimed, and not alive during the next call
            parent_s, change_s = summary(times["parent"]), summary(times["change"])
            wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
            result["cases"][name] = {
                "what": what,
                "max_relative_float_difference": deviation,
                "parent": parent_s,
                "change": change_s,
                "change_faster_in": f"{wins} of {args.repeats}",
            }
            print(f"{name}: parent {parent_s['median_s']:.4f} s, change {change_s['median_s']:.4f} s", file=sys.stderr)
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
