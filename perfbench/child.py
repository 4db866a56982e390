"""One iteration of a workload's CLI pipeline, in a fresh interpreter.

run.py starts this script once per iteration, with the package sources on
PYTHONPATH, the BLAS thread count pinned and an empty working directory.
Commands are issued one at a time through ``katzforge.cli.main`` with their
terminal output captured in memory.  The script prints one JSON line: wall
time per stage, peak RSS, op outcomes and, in a traced iteration, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

TOL = 1e-10  # the CLI's default tolerance; no op passes --tol


class Pipeline:
    """Issues CLI commands, times them per stage and keeps their outcomes."""

    def __init__(self, cli_main, tracer, expected_message: str):
        self.cli_main = cli_main
        self.tracer = tracer
        self.expected_message = expected_message
        self.stage_s: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.expected_failures = 0
        self.failures: list[str] = []

    def op(self, stage: str, argv: list[str], may_fail: bool = False) -> bool:
        """Run one command and add its wall time to ``stage``.  True when it
        exited 0, so that the caller goes on to check its output."""
        span = self.tracer.command(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), span:
            try:
                code, error = self.cli_main(argv), None
            except Exception as exc:  # cli.main lets ArithmeticError (and any bug) escape
                code, error = None, exc
        self.stage_s[stage] += time.perf_counter() - start
        self.attempted += 1
        if error is None and code == 0:
            return True
        if may_fail and isinstance(error, ArithmeticError) and str(error) == self.expected_message:
            self.expected_failures += 1
        elif error is not None:
            what = traceback.format_exception_only(type(error), error)[-1].strip()
            self.failures.append(f"{' '.join(argv)}: raised {what}")
        else:
            self.failures.append(f"{' '.join(argv)}: exit code {code}: {captured.getvalue()[-300:]}")
        return False

    def check(self, argv: list[str], *problems: str | None) -> None:
        """Count the op as failed when any of its output checks failed."""
        found = [p for p in problems if p]
        if found:
            self.failures.append(f"{' '.join(argv)}: {found[0]}")


def probe_allocation(inst, degree: int, seed: int) -> list[list[float]]:
    """Non-Nash allocation: row i is positive on agents i..i+degree-1 (mod n)
    and spends a random 20-95% of B_i.  The support is fixed, so the number
    of cycles analyze enumerates does not depend on the seed."""
    import numpy as np

    if not inst.complete:
        raise ValueError("probe allocations need a complete topology")
    rng = np.random.default_rng(seed)
    w = np.zeros((inst.n, inst.n))
    for i in range(inst.n):
        cols = [(i + s) % inst.n for s in range(degree)]
        raw = rng.uniform(0.1, 1.0, size=degree)
        w[i, cols] = raw / raw.sum() * inst.budgets[i] * rng.uniform(0.2, 0.95)
    return w.tolist()


def write_json(path: str, doc) -> None:
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def batch_trace_files(out: str, first: int, count: int) -> list[Path]:
    """The traces `run --seeds first:first+count-1 -o out` writes."""
    stem = Path(out).stem
    return [Path(f"{stem}-seed{s}.csv") for s in range(first, first + count)]


def pipeline(pipe: Pipeline, wl, seed: int, spawned: float, batch: bool) -> tuple[float, dict]:
    """Run the workload's commands stage by stage, checking every output.
    Returns the peak RSS after the pipeline and, with ``batch``, the wall time
    of the first instance's run command as a batch at --jobs 1 and 2."""
    import numpy as np

    import checks

    base = seed * 1000  # gen seeds base+k, run seeds from base+500, probes base+900+k
    specs = wl.instances
    gens = [
        [
            "gen", "--n", str(spec.n), "--density", str(spec.density), "--self-loops",
            "--budgets", spec.budgets, "--seed", str(base + k), "-o", f"inst{k}.json",
        ]
        for k, spec in enumerate(specs)
    ]
    made = [pipe.op("setup", argv) for argv in gens]
    pipe.stage_s["setup"] = time.monotonic() - spawned
    if not all(made):
        raise SystemExit(f"gen failed, nothing to measure: {pipe.failures}")
    insts = [checks.Instance(Path(f"inst{k}.json")) for k in range(len(specs))]
    for argv, inst, spec in zip(gens, insts, specs):
        pipe.check(argv, checks.check_instance(inst, spec.n, spec.budgets))

    # c* to compare terminals with: exact on complete topologies, else certified
    c_ref = {k: (inst.closed_form(), 0.0) for k, inst in enumerate(insts) if inst.complete}
    for k, (inst, spec) in enumerate(zip(insts, specs)):
        argv = ["equilibrium", f"inst{k}.json", "-o", f"cert{k}.json"]
        if pipe.op("equilibrium", argv, may_fail=spec.near_one):
            doc = read_json(f"cert{k}.json")
            problem = checks.check_certificate(inst, doc, TOL)
            pipe.check(argv, problem)
            if problem is None and k not in c_ref:
                c_ref[k] = (np.array(doc["c_star"]), TOL)

    def check_run(k: int, argv: list[str], files: list[Path]) -> list[str]:
        """Check every trace of one run op; returns the terminal allocation files."""
        ref, ref_tol = c_ref.get(k, (None, 0.0))
        problems, terminals = [], []
        for csv in files:
            problems.append(checks.check_trace(insts[k], csv, TOL, ref, ref_tol))
            weights, problem = checks.terminal_weights(insts[k], csv.with_suffix(".alloc.json"))
            problems.append(problem)
            terminals.append(f"term-{csv.stem}.json")
            write_json(terminals[-1], {"weights": weights})
        pipe.check(argv, *problems)
        return terminals

    allocs: list[tuple[int, str, bool]] = []  # instance, allocation file, is Nash
    first = base + 500
    for k in range(len(specs)):
        out = f"trace{k}.csv"
        argv = ["run", f"inst{k}.json", *wl.run_args, "--seed", str(first), "-o", out]
        if pipe.op("run", argv):
            terms = check_run(k, argv, [Path(out)])
            allocs += [(k, t, True) for t in terms]
    if wl.probe_degree:
        for k, inst in enumerate(insts):
            write_json(f"probe{k}.json", {"weights": probe_allocation(inst, wl.probe_degree, base + 900 + k)})
            allocs.append((k, f"probe{k}.json", False))

    for k, alloc, nash in allocs:
        argv = ["verify", f"inst{k}.json", alloc, "-o", f"verdict-{alloc}"]
        if pipe.op("verify", argv, may_fail=specs[k].near_one):
            pipe.check(argv, checks.check_verdict(insts[k], read_json(f"verdict-{alloc}"), nash, TOL))

    for k, alloc, nash in allocs:
        dot = f"cond-{alloc}.dot"
        argv = ["analyze", f"inst{k}.json", alloc, "-o", f"report-{alloc}", "--dot", dot]
        if pipe.op("analyze", argv):
            report = read_json(f"report-{alloc}")
            pipe.check(argv, checks.check_report(insts[k], report, Path(dot).read_text(), nash))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    batch_s = {}
    if batch:
        # the first instance's run command as a batch of two seeds, at
        # --jobs 1 and --jobs 2
        count, first = 2, base + 700
        for jobs in (1, 2):
            out = f"batch{jobs}.csv"
            seeds = ["--seeds", f"{first}:{first + count - 1}", "--jobs", str(jobs)]
            argv = ["run", "inst0.json", *wl.run_args, *seeds, "-o", out]
            if pipe.op(f"batch{jobs}", argv):
                check_run(0, argv, batch_trace_files(out, first, count))
            batch_s[jobs] = pipe.stage_s[f"batch{jobs}"]
    return peak_rss_mb, batch_s


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the recorded spans here")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from katzforge.cli import main as cli_main

    import_s = time.perf_counter() - start

    import tracing
    import workloads

    wl = workloads.workloads(args.smoke)[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    pipe = Pipeline(cli_main, tracer, workloads.EXPECTED_FAILURE_MESSAGE)
    peak_rss_mb, batch_s = pipeline(pipe, wl, args.seed, args.spawned, bool(args.batch))

    stages = {f"{s}_s": pipe.stage_s[s] for s in workloads.STAGES}
    result = {
        **stages,
        "pipeline_s": sum(stages.values()),
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "attempted": pipe.attempted,
        "expected_failures": pipe.expected_failures,
        "failures": pipe.failures,
        "batch_s": batch_s,
        "versions": versions(),
    }
    if tracer is not None:
        result["layers"] = {**tracing.summarize(tracer), "cli.import_s": import_s}
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
