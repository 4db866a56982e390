"""Names, units and direction of the metrics the benchmark prints (kept
equal to BENCHMARK.json, which test_smoke.py checks)."""

# Timings are medians over the pipeline iterations of one run; every
# iteration is a fresh interpreter.  These are the gated metrics; the
# timings are seconds long on every workload, so that host noise stays
# within their bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),  # interpreter start + import katzforge.cli + gen commands
    "pipeline_s": ("s", "lower"),  # setup plus every stage below: the time to an analysed answer
    "peak_rss_mb": ("MB", "lower"),
}

# Wall time of each stage's commands, untraced.  Printed with --trace 0 but
# not gated: on a workload built for another stage some of them take a few
# milliseconds, far below the resolution of a shared host.  With --trace 1
# they are the per-layer metrics cli.<stage>.s.
STAGE_TIMES = {
    "equilibrium_s": "equilibrium",
    "run_s": "run",  # including the trace files written
    "verify_s": "verify",
    "analyze_s": "analyze",  # including the DOT file written
}

# From the traced run; the prefix before the first dot is the layer
# (a module of src/katzforge).
PER_LAYER = {
    "centrality.linalg_solve.calls": ("count", "lower"),
    "centrality.linalg_solve.s": ("s", "lower"),
    "centrality.solve_flops": ("flop", "lower"),  # computed: 2/3 n^3 per LU
    "centrality.katz_solve.calls": ("count", "lower"),
    "centrality.katz_solve.s": ("s", "lower"),
    "centrality.walk_decomposition.calls": ("count", "lower"),
    "centrality.walk_decomposition.s": ("s", "lower"),
    "centrality.self_s": ("s", "lower"),
    "dynamics.brd.s": ("s", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.step_s": ("s", "lower"),
    "dynamics.useful_step_frac": ("ratio", "higher"),
    "dynamics.trace_write.s": ("s", "lower"),
    "dynamics.trace_bytes": ("bytes", "lower"),
    "dynamics.self_s": ("s", "lower"),
    "game.v_map.calls": ("count", "lower"),
    "game.v_map.s": ("s", "lower"),
    "game.equilibrium.calls": ("count", "lower"),
    "game.equilibrium.s": ("s", "lower"),
    "game.equilibrium.iterations": ("count", "lower"),
    "game.is_nash.calls": ("count", "lower"),
    "game.is_nash.s": ("s", "lower"),
    "game.best_response.calls": ("count", "lower"),
    "game.best_response.s": ("s", "lower"),
    "game.self_s": ("s", "lower"),
    "analysis.structure_checks.s": ("s", "lower"),
    "analysis.cycle_parity.s": ("s", "lower"),
    "analysis.cycles_examined": ("count", "lower"),
    "analysis.condensation.s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "instance.parse.calls": ("count", "lower"),
    "instance.parse.s": ("s", "lower"),
    "instance.feasibility.calls": ("count", "lower"),
    "instance.feasibility.s": ("s", "lower"),
    "instance.generate.s": ("s", "lower"),
    "instance.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.gen.self_s": ("s", "lower"),
    "cli.equilibrium.self_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.verify.self_s": ("s", "lower"),
    "cli.analyze.self_s": ("s", "lower"),
    "cli.equilibrium.s": ("s", "lower"),
    "cli.run.s": ("s", "lower"),
    "cli.verify.s": ("s", "lower"),
    "cli.analyze.s": ("s", "lower"),
    "cli.batch.jobs1_s": ("s", "lower"),
    "cli.batch.jobs2_s": ("s", "lower"),
    "cli.batch.jobs_speedup": ("ratio", "higher"),
    "cli.ops_failed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
