"""Benchmark of the katzforge CLI pipeline: gen -> equilibrium -> run -> verify -> analyze.

Run from the root of a checkout:

    python3 perfbench/run.py --workload brd-near1 --seed 1 --seconds 60 --trace 0

The caller is a closed loop: one researcher's script issuing CLI commands one
at a time, each waiting for the previous one.  Every pipeline iteration runs
in a fresh interpreter (perfbench/child.py), so set-up is paid every time.
The run repeats iterations for about --seconds seconds and reports medians.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
alternates untraced and traced iterations and prints the per-layer metrics
from the traced ones, the tracing overhead, and the first instance's run
command timed as a batch at --jobs 1 and --jobs 2.  --workload all runs every
workload in turn; --smoke shrinks every workload to a few agents.

Every op's output is checked (perfbench/checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed (ops that
failed other than the recorded expected failures, see workloads.py) and the
metrics.  A run record with versions, core count, BLAS threads and every
iteration's numbers goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, STAGE_TIMES
from workloads import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_THREADS = 1  # pinned, so that --jobs 2 uses no more threads than cores
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_ITERATIONS = {0: 3, 1: 2}  # per run; trace 1 counts untraced+traced pairs


class BenchmarkError(RuntimeError):
    pass


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark reads nothing outside its checkout); None when not a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Spawns pipeline iterations of one workload and keeps their results."""

    def __init__(self, args, workload: str, work: Path):
        self.args = args
        self.workload = workload
        self.work = work
        self.env = child_env()
        self.count = 0
        self.hard_deadline = time.monotonic() + RUN_LIMIT_S

    def iterate(self, trace: bool, batch: bool = False, spans: Path | None = None) -> dict:
        self.count += 1
        cwd = self.work / f"it{self.count}"
        cwd.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.args.seed),
            "--trace", str(int(trace)), "--batch", str(int(batch)),
        ]
        if self.args.smoke:
            cmd.append("--smoke")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before the minimum number of iterations")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned", repr(spawned)],
                cwd=cwd, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"iteration {self.count} did not finish within {timeout:.0f} s")
        shutil.rmtree(cwd)
        if proc.returncode != 0:
            raise BenchmarkError(f"iteration {self.count} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def measure(args, workload: str, work: Path) -> tuple[list[dict], list[dict]]:
    """Closed loop of iterations for about --seconds seconds.  Returns the
    untraced and the traced iterations."""
    runner = Runner(args, workload, work)
    spans = work.parent / f"spans-{workload}-seed{args.seed}.json"
    deadline = time.monotonic() + args.seconds
    untraced, traced, durations = [], [], []
    while True:
        start = time.monotonic()
        untraced.append(runner.iterate(trace=False, batch=bool(args.trace)))
        if args.trace:
            traced.append(runner.iterate(trace=True, spans=spans))
        durations.append(time.monotonic() - start)
        enough = len(durations) >= MIN_ITERATIONS[args.trace]
        if enough and time.monotonic() + statistics.median(durations) > deadline:
            return untraced, traced


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def layer_samples(untraced: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    """Per-iteration values of the per-layer metrics measured directly."""
    samples = {name: [it["layers"][name] for it in traced] for name in traced[0]["layers"]}
    for jobs in (1, 2):
        samples[f"cli.batch.jobs{jobs}_s"] = [it["batch_s"][str(jobs)] for it in untraced]
    for key, command in STAGE_TIMES.items():
        samples[f"cli.{command}.s"] = [it[key] for it in untraced]
    return samples


def summarize(args, workload: str, untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Print the metrics with units and spreads; return the result and the run record."""
    every = untraced + traced
    attempted = sum(it["attempted"] for it in every)
    failures = [f for it in every for f in it["failures"]]
    expected = sum(it["expected_failures"] for it in every)
    ops_failed_frac = (len(failures) + expected) / attempted

    if args.trace:
        samples = layer_samples(untraced, traced)
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["cli.batch.jobs_speedup"] = values["cli.batch.jobs1_s"] / values["cli.batch.jobs2_s"]
        values["cli.ops_failed_frac"] = ops_failed_frac
        pipeline = [statistics.median(it["pipeline_s"] for it in runs) for runs in (traced, untraced)]
        values["trace.overhead_frac"] = pipeline[0] / pipeline[1] - 1.0
        table = PER_LAYER
    else:
        samples = {name: [it[name] for it in untraced] for name in (*END_TO_END, *STAGE_TIMES)}
        values = {name: statistics.median(v) for name, v in samples.items()}
        table = END_TO_END

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        **every[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "ops_failed_frac": ops_failed_frac,
        "expected_failures": expected,
        "result": result,
        "untraced_iterations": untraced,
        "traced_iterations": traced,
    }

    print(
        f"{workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced"
        f"{f' + {len(traced)} traced' if traced else ''} iterations; "
        f"python {record['python']}, numpy {record['numpy']}, {record['blas']['name']} "
        f"{record['blas']['version']}, {record['nproc']} cores, BLAS threads {BLAS_THREADS}, "
        f"git {record['git_sha'] or 'unknown'}"
    )
    for name, (unit, _) in table.items():
        spread = _spread(samples[name]) if name in samples else "derived"
        print(f"  {name:36s} {values[name]:<14.6g} {unit:6s} {spread}")
    if not args.trace:
        for name in STAGE_TIMES:
            print(f"  {name:36s} {values[name]:<14.6g} {'s':6s} {_spread(samples[name])} (not gated)")
    print(
        f"  {'ops_failed_frac':36s} {ops_failed_frac:<14.6g} {'ratio':6s} "
        f"{len(failures) + expected} of {attempted} ops attempted failed, "
        f"{expected} of them the recorded expected failures"
    )
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    return result, record


def run_one(args, workload: str) -> dict:
    out = ROOT / ".bench_work"
    work = out / f"{workload}-seed{args.seed}-{os.getpid()}"
    try:
        untraced, traced = measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, record = summarize(args, workload, untraced, traced)
    path = out / f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    names = list(workloads())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "katzforge" / "cli.py").is_file():
        print(f"error: no katzforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            print(json.dumps(run_one(args, args.workload)))
            return 0
        results = {name: run_one(args, name) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
