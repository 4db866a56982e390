"""The benchmark's workloads: fixed recipes of katzforge CLI commands.

A workload fixes which commands run and on what sizes; the workload seed only
picks the instance and allocation files the commands receive.  Why each
workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("setup", "equilibrium", "run", "verify", "analyze")

# Known defect at the time the benchmark was written: on budgets at or near
# 0.999 the fixed-point iteration overruns its cap and raises this error
# from `equilibrium`, and from `verify`, which recomputes c*.  Such an op is
# counted in ops_failed_frac but does not make the run incorrect; any other
# failure does.
EXPECTED_FAILURE_MESSAGE = "fixed-point iteration exceeded its a-priori bound"


@dataclass(frozen=True)
class InstanceSpec:
    """Arguments of one `katzforge gen` command (self-loops always on)."""

    n: int
    density: float
    budgets: str  # LO:HI for --budgets
    near_one: bool = False  # equilibrium/verify may hit the expected failure above


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[InstanceSpec, ...]
    run_args: tuple[str, ...]  # `run` flags besides input, seed and output
    # >0: per instance, one seeded non-Nash allocation whose row i is positive
    # on agents i, i+1, ..., i+probe_degree-1 (mod n); verified and analysed
    # next to the BRD terminals
    probe_degree: int = 0


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """Full-size workloads, or tiny ones that exercise the same paths fast."""

    def size(full: int, tiny: int) -> int:
        return tiny if smoke else full

    brd = ("--mode", "modified", "--w0", "random", "--full-trace")
    sparse = InstanceSpec(size(200, 16), 0.1, "0.1:0.9")
    near_one = (
        InstanceSpec(size(60, 6), 1.0, "0.99:0.99"),
        InstanceSpec(size(60, 6), 0.5, "0.999:0.999", near_one=True),
        InstanceSpec(size(60, 6), 0.5, "0.998:0.999", near_one=True),
    )
    return {
        w.name: w
        for w in (
            Workload("brd-near1", (sparse,) * size(3, 1) + near_one, brd),
            Workload(
                "analyze-dense",
                (InstanceSpec(size(12, 6), 1.0, "0.5:0.5"),),
                brd,
                probe_degree=size(5, 3),
            ),
        )
    }
