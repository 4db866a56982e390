"""Span tracing of the katzforge package from outside it.

``install`` replaces every public function of the library modules, in every
module namespace that refers to it (``katz_solve`` is looked up in
centrality, game, dynamics and analysis, for instance), with a wrapper that
records a span: name, start, end and the span that was open when it was
called.  ``numpy.linalg.solve`` is wrapped too.  Spans stay in memory;
``summarize`` turns them into per-layer metrics and ``write`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LIBRARY_LAYERS = ("instance", "centrality", "game", "dynamics", "analysis")
LAYERS = LIBRARY_LAYERS + ("cli",)

# per-layer metric -> the spans it adds up (outermost calls only, so a
# require_feasible that calls is_feasible counts once)
GROUPS = {
    "centrality.linalg_solve": ("centrality.linalg_solve",),
    "centrality.katz_solve": ("centrality.katz_solve",),
    "centrality.walk_decomposition": ("centrality.walk_decomposition",),
    "dynamics.brd": ("dynamics.run_brd", "dynamics.run_modified_brd"),
    "dynamics.trace_write": ("dynamics.write_trace_csv", "dynamics.write_trace_allocations_json"),
    "game.v_map": ("game.v_map",),
    "game.equilibrium": ("game.equilibrium_centralities",),
    "game.is_nash": ("game.is_nash",),
    "game.best_response": ("game.best_response",),
    "analysis.structure_checks": ("analysis.run_structure_checks",),
    "analysis.cycle_parity": ("analysis.check_cycle_parity",),
    "analysis.condensation": ("analysis.scc_condensation",),
    "instance.parse": ("instance.parse_instance", "instance.parse_allocation"),
    "instance.feasibility": ("instance.is_feasible", "instance.require_feasible"),
    "instance.generate": ("instance.generate_random_instance", "instance.random_profile"),
}


def _solve_flops(args, result) -> float:
    n = args[0].shape[-1]
    return 2.0 * n**3 / 3.0  # one LU factorization; computed, not counted


# span name -> (counter, value read from the call's arguments and result)
HOOKS = {
    "centrality.linalg_solve": ("centrality.solve_flops", _solve_flops),
    "dynamics.run_brd": ("dynamics.steps", lambda args, r: r.total_steps),
    "dynamics.run_modified_brd": ("dynamics.steps", lambda args, r: r.total_steps),
    "dynamics.write_trace_csv": ("dynamics.trace_bytes", lambda args, r: os.path.getsize(args[1])),
    "dynamics.write_trace_allocations_json": (
        "dynamics.trace_bytes",
        lambda args, r: os.path.getsize(args[1]),
    ),
    "game.equilibrium_centralities": ("game.equilibrium.iterations", lambda args, r: r.iterations),
    "analysis.check_cycle_parity": (
        "analysis.cycles_examined",
        lambda args, r: r.details.get("cycles_examined", 0),
    ),
}


class Tracer:
    """In-memory span recorder; safe to use from the CLI's worker threads."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        # counter -> values; list.append is atomic, so worker threads need no lock
        self.counters: dict[str, list[float]] = {name: [] for name, _ in HOOKS.values()}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: int | None = None  # open command span, parent of pool-thread spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def command(self, name: str):
        """Top-level span around one CLI command."""
        sid = next(self._ids)
        self._command = sid
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._command = None
            self.spans.append((sid, name, start, end, None))

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        perf_counter = time.perf_counter
        spans, counters = self.spans, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._command
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if hook is not None:
                counters[hook[0]].append(hook[1](args, result))
            return result

        return traced

    def write(self, path: Path) -> None:
        fields = ("id", "name", "start", "end", "parent")
        doc = {"fields": fields, "spans": self.spans, "counters": self.counters}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Route every lookup of a public library function through ``tracer``."""
    import numpy

    package = importlib.import_module("katzforge")
    modules = {layer: importlib.import_module(f"katzforge.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer in LIBRARY_LAYERS:
        mod = modules[layer]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[fn] = tracer.wrap(f"{layer}.{name}", fn)
    for namespace in (package, *modules.values()):
        for name, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(namespace, name, wrapped[value])
    numpy.linalg.solve = tracer.wrap("centrality.linalg_solve", numpy.linalg.solve)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: calls and seconds per group, self time per layer
    and per CLI command (duration minus the time its child spans cover),
    and the counters read from results."""
    by_id = {s[0]: s for s in tracer.spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in tracer.spans:
        if parent is not None:
            children[parent].append((start, end))

    def ancestors(span):
        parent = span[4]
        while parent is not None and parent in by_id:
            span = by_id[parent]
            yield span[1]
            parent = span[4]

    out: dict[str, float] = {}
    for group, names in GROUPS.items():
        outer = [s for s in tracer.spans if s[1] in names and not set(names) & set(ancestors(s))]
        out[f"{group}.calls"] = len(outer)
        out[f"{group}.s"] = sum(s[3] - s[2] for s in outer)

    self_s: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in tracer.spans:
        own = end - start - _covered(children.get(sid, []), start, end)
        self_s[name.split(".")[0]] += own
        if name.startswith("cli."):
            self_s[name] += own
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    for command in ("gen", "equilibrium", "run", "verify", "analyze"):
        out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]

    for name, values in tracer.counters.items():
        out[name] = sum(values)
    steps = out["dynamics.steps"]
    responses = sum(
        1
        for s in tracer.spans
        if s[1] == "game.best_response" and set(GROUPS["dynamics.brd"]) & set(ancestors(s))
    )
    out["dynamics.step_s"] = out["dynamics.brd.s"] / steps if steps else 0.0
    out["dynamics.useful_step_frac"] = responses / steps if steps else 0.0
    return out
