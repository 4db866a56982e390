"""Command-line entry point: gen / equilibrium / run / verify / analyze.

Exit codes: 0 success or converged, 2 step limit reached, 3 infeasible
input, 1 usage, I/O or numerical-check error.  Tolerance precedence: --tol
flag, then the KATZFORGE_TOL environment variable, then 1e-10.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from . import __version__
from .analysis import export_condensation_dot, run_structure_checks
from .dynamics import (
    STEP_LIMIT,
    BrdConfig,
    Scheduler,
    run_brd,
    write_trace_allocations_json,
    write_trace_csv,
)
from .game import DEFAULT_TOL, equilibrium_centralities, is_nash, require_tol
from .instance import (
    AllocationProfile,
    FeasibilityError,
    GameInstance,
    generate_random_instance,
    instance_digest,
    is_feasible,
    parse_allocation,
    parse_instance,
    random_profile,
    serialize_instance,
)

TOL_ENV_VAR = "KATZFORGE_TOL"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STEP_LIMIT = 2
EXIT_INFEASIBLE = 3


def _check_tol(ctx: click.Context, param: click.Parameter, tol: float) -> float:
    try:
        require_tol(tol)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    return tol


_tol_option = click.option(
    "--tol", type=float, default=DEFAULT_TOL, envvar=TOL_ENV_VAR, callback=_check_tol,
    help=f"Tolerance (default {DEFAULT_TOL}, env {TOL_ENV_VAR}).",
)


def _meta(g: GameInstance, seed: int | None, tol: float, **extra) -> dict:
    """Reproducibility header: tool, version, instance digest, seed, tol,
    then ``extra`` in the order given."""
    return {
        "tool": "katzforge",
        "version": __version__,
        "instance_sha256": instance_digest(g),
        "seed": seed,
        "tol": tol,
        **extra,
    }


def _read_instance(path: str) -> GameInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _read_feasible_profile(instance: str, allocation: str, tol: float, out: str | None) -> tuple[GameInstance, AllocationProfile]:
    """Read an instance and an allocation for it; an infeasible allocation
    gets the "infeasible" verdict and exit code 3."""
    g = _read_instance(instance)
    w = parse_allocation(Path(allocation).read_text(encoding="utf-8"), g.n)
    if not is_feasible(g, w):
        _emit_json({"meta": _meta(g, seed=None, tol=tol), "verdict": "infeasible"}, out)
        sys.exit(EXIT_INFEASIBLE)
    return g, w


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _parse_pair(spec: str, what: str) -> tuple[float, float]:
    try:
        lo, hi = spec.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise click.UsageError(f"{what} must look like LO:HI, got {spec!r}")


def _parse_seeds(spec: str) -> range:
    try:
        lo, hi = (int(s) for s in spec.split(":"))
    except ValueError:
        raise click.UsageError(f"--seeds must look like LO:HI with integers, got {spec!r}")
    if lo > hi:
        raise click.UsageError(f"--seeds LO:HI needs LO <= HI, got {spec!r}")
    if lo < 0:
        raise click.UsageError(f"--seeds needs non-negative seeds, got {spec!r}")
    return range(lo, hi + 1)


def _parse_scheduler(spec: str, seed: int, n: int) -> Scheduler:
    if spec == "rr":
        return Scheduler.round_robin()
    if spec == "random":
        return Scheduler.uniform_random(seed)
    if spec.startswith("seq:"):
        try:
            agents = [int(s) for s in spec[4:].split(",")]
        except ValueError:
            raise click.UsageError(f"bad explicit schedule {spec!r}; expected seq:1,2,3")
        for agent in agents:
            if not 1 <= agent <= n:
                raise click.UsageError(f"scheduled agent {agent} out of range 1..{n}")
        return Scheduler.explicit([agent - 1 for agent in agents])
    raise click.UsageError(f"unknown scheduler {spec!r}; expected rr, random, or seq:...")


def _derived_seeds(seed: int, k: int) -> list[int]:
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(k)]


@click.group()
@click.version_option(version=__version__, prog_name="katzforge")
def cli() -> None:
    """Budget-constrained Katz-centrality network formation toolkit."""


@cli.command()
@click.option("--n", type=int, required=True, help="Agent count.")
@click.option("--density", type=float, default=1.0, show_default=True, help="Edge probability for ordered non-self pairs.")
@click.option("--self-loops", is_flag=True, help="Add a self-loop for every agent.")
@click.option("--budgets", "budget_spec", default="0.1:0.9", show_default=True, help="Budget range LO:HI inside (0, 1).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True, help="Instance file to write.")
def gen(n: int, density: float, self_loops: bool, budget_spec: str, seed: int, out: str) -> None:
    """Generate a random instance (deterministic for a fixed seed)."""
    lo, hi = _parse_pair(budget_spec, "--budgets")
    g = generate_random_instance(n, density, self_loops, (lo, hi), seed)
    # the instance schema rejects unknown fields, so the reproducibility
    # header for this artifact lives in the name field
    stamp = (
        f"katzforge-{__version__} gen seed={seed} n={n} density={density} "
        f"self_loops={self_loops} budgets={budget_spec}"
    )
    g = GameInstance(g.topology, g.budgets, name=stamp)
    Path(out).write_text(serialize_instance(g), encoding="utf-8")
    click.echo(
        f"wrote {out}: n={g.n} edges={len(g.topology.neighbor_index[0])} "
        f"budgets=[{min(g.budgets):.4g}, {max(g.budgets):.4g}] seed={seed}"
    )


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@_tol_option
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None, help="Certificate file (stdout if omitted).")
def equilibrium(instance: str, tol: float, out: str | None) -> None:
    """Compute the unique equilibrium centralities c* with a certificate."""
    g = _read_instance(instance)
    cert = equilibrium_centralities(g, tol=tol)
    doc = {"meta": _meta(g, seed=None, tol=tol), **cert.to_json_dict()}
    _emit_json(doc, out)


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["standard", "modified"]), default="standard", show_default=True)
@click.option("--scheduler", "scheduler_spec", default="rr", show_default=True, help="rr, random, or seq:1,2,3 (agents 1-based).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Seed for the scheduler and random initial profiles.")
@click.option("--w0", "w0_spec", default="zero", show_default=True, help="Initial profile: zero, random, or file:PATH.")
@click.option("--max-steps", type=int, default=None, help="Step limit (default 500*n for standard mode).")
@_tol_option
@click.option("--lazy/--no-lazy", default=True, show_default=True, help="Skip rewriting rows that already best-respond.")
@click.option("--full-trace", is_flag=True, help="Also write per-step allocation rows to a sibling .alloc.json file.")
@click.option("--seeds", "seeds_spec", default=None, help="Batch mode: run integer seeds LO:HI inclusive (0 <= LO <= HI), one trace per seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel workers in batch mode.")
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True, help="Trace CSV path (batch mode appends -seedN).")
def run(
    instance: str,
    mode: str,
    scheduler_spec: str,
    seed: int,
    w0_spec: str,
    max_steps: int | None,
    tol: float,
    lazy: bool,
    full_trace: bool,
    seeds_spec: str | None,
    jobs: int,
    out: str,
) -> None:
    """Run best-response dynamics and record the trace."""
    g = _read_instance(instance)
    if w0_spec == "zero":
        start = lambda w0_seed: AllocationProfile.zeros(g.n)
    elif w0_spec == "random":
        start = lambda w0_seed: random_profile(g, w0_seed)
    elif w0_spec.startswith("file:"):  # read once for every seed
        w0_file = parse_allocation(Path(w0_spec[5:]).read_text(encoding="utf-8"), g.n)
        start = lambda w0_seed: w0_file
    else:
        raise click.UsageError(f"unknown --w0 {w0_spec!r}; expected zero, random, or file:PATH")

    def one_run(run_seed: int, out_path: Path) -> str:
        sched_seed, w0_seed = _derived_seeds(run_seed, 2)
        scheduler = _parse_scheduler(scheduler_spec, sched_seed, g.n)
        w0 = start(w0_seed)
        cfg = BrdConfig(scheduler=scheduler, max_steps=max_steps, tol=tol, lazy=lazy, mode=mode)
        trace = run_brd(g, w0, cfg)
        meta = _meta(
            g,
            seed=run_seed,
            tol=tol,
            scheduler=scheduler_spec,
            mode=mode,
            w0=w0_spec,
            lazy=lazy,
            status=trace.status,
        )
        write_trace_csv(trace, out_path, meta)
        if full_trace:
            write_trace_allocations_json(trace, out_path.with_suffix(".alloc.json"), meta)
        click.echo(f"wrote {out_path}: status={trace.status} steps={trace.total_steps}")
        return trace.status

    try:
        if seeds_spec is None:
            statuses = [one_run(seed, Path(out))]
        else:
            base = Path(out)
            seed_list = list(_parse_seeds(seeds_spec))
            paths = [base.with_name(f"{base.stem}-seed{s}{base.suffix}") for s in seed_list]
            if jobs > 1:
                from concurrent.futures import ThreadPoolExecutor  # not imported by default commands
                with ThreadPoolExecutor(max_workers=jobs) as pool:
                    statuses = list(pool.map(one_run, seed_list, paths))
            else:
                statuses = [one_run(s, p) for s, p in zip(seed_list, paths)]
    except FeasibilityError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    if any(s == STEP_LIMIT for s in statuses):
        sys.exit(EXIT_STEP_LIMIT)


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.argument("allocation", type=click.Path(exists=True, dir_okay=False))
@_tol_option
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None, help="Verdict file (stdout if omitted).")
def verify(instance: str, allocation: str, tol: float, out: str | None) -> None:
    """Certify whether an allocation profile is a Nash equilibrium."""
    g, w = _read_feasible_profile(instance, allocation, tol, out)
    verdict = is_nash(g, w, tol=tol)
    doc = {"meta": _meta(g, seed=None, tol=tol), "verdict": verdict.is_nash, **verdict.to_json_dict()}
    _emit_json(doc, out)
    if out:
        gaps = " ".join(format(v, ".3e") for v in verdict.v_gaps)
        click.echo(f"verdict={verdict.is_nash} residual={verdict.residual:.3e} v_gaps=[{gaps}]")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.argument("allocation", type=click.Path(exists=True, dir_okay=False))
@_tol_option
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None, help="Report file (stdout if omitted).")
@click.option("--dot", "dot_out", type=click.Path(dir_okay=False), default=None, help="Write the condensation as DOT.")
def analyze(instance: str, allocation: str, tol: float, out: str | None, dot_out: str | None) -> None:
    """Run the structure checks and export the condensation graph."""
    g, w = _read_feasible_profile(instance, allocation, tol, out)
    report, cond = run_structure_checks(g, w, tol=tol)
    doc = {
        "meta": _meta(g, seed=None, tol=tol),
        **report.to_json_dict(),
        "condensation": {
            "components": [
                {
                    "agents": [v + 1 for v in comp.members],
                    "sink": comp.is_sink,
                    "alpha": comp.alpha,
                    "gamma": comp.gamma,
                }
                for comp in cond.components
            ],
            "edges": [list(e) for e in sorted(cond.edges)],
        },
    }
    _emit_json(doc, out)
    if dot_out:
        Path(dot_out).write_text(export_condensation_dot(cond), encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI, mapping errors onto the documented exit codes."""
    try:
        cli.main(args=list(argv) if argv is not None else None, standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    except click.ClickException as exc:
        exc.show()
        return EXIT_ERROR
    except click.Abort:
        return EXIT_ERROR
    except (OSError, ValueError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ERROR
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
