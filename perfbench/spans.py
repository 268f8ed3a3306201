"""Timing spans recorded from outside the library.

``Tracer.install`` replaces public functions of the ``hybridosc`` modules
with wrappers that record one span per call into a module from outside it.
A call made from inside the same module (for example ``cq.thermal_limit``
calling ``cq.hybrid_equal_time``) belongs to the caller's span and records
nothing of its own, so every span is a crossing of a module boundary.
Spans stay in memory until ``write`` saves them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _n_steps(cfg) -> int:
    return max(1, int(round(cfg.t_final / cfg.dt)))


# (module, attribute path, work counter).  The counter maps a call's
# positional arguments and result to the units of work it did; the layer
# metrics divide busy time by them.
TRACED = (
    ("model", "assemble_drift_noise", None),
    ("stability", "routh_hurwitz", None),
    ("steadystate", "solve_lyapunov", None),
    ("steadystate", "closed_form_covariances", None),
    ("steadystate", "evolve_moments", None),
    ("sde", "simulate_ensemble", lambda a, r: {
        "traj_steps": a[1].n_trajectories * _n_steps(a[1]), "outputs": len(r.times)}),
    ("sde", "sample_trajectory", lambda a, r: {"steps": _n_steps(a[1])}),
    ("sde", "EnsembleStats.write_csv", lambda a, r: {"rows": len(a[0].times) + 1}),
    ("spectral", "find_poles", None),
    ("spectral", "perturbative_poles", None),
    ("spectral", "exact_equal_time", None),
    ("spectral", "correlators_exact", lambda a, r: {"points": len(r.times)}),
    ("spectral", "greens", None),
    ("cq", "thermal_limit", None),
    ("cq", "hybrid_equal_time", None),
    ("cq", "occupation_number", None),
    ("cq", "occupation_from_keldysh", None),
    ("cli", "main", None),
)

# names that another module imported with ``from ... import``; the CLI calls
# these through its own namespace, so they are wrapped there too
ALIASES = (("cli", "assemble_drift_noise", "model.assemble_drift_noise"),)


class Span:
    __slots__ = ("id", "parent", "root", "name", "module", "start", "end", "error", "counts")

    def __init__(self, span_id, parent, root, name, module):
        self.id = span_id
        self.parent = parent
        self.root = root
        self.name = name
        self.module = module
        self.start = 0
        self.end = 0
        self.error = None
        self.counts = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    def install(self, package: str) -> None:
        """Wrap every function in ``TRACED`` (and its aliases) in the modules of ``package``."""
        wrappers = {}
        for module_name, path, counter in TRACED:
            owner = importlib.import_module(f"{package}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{module_name}.{path}"
            wrappers[name] = self._wrap(getattr(owner, attr), name, module_name, counter)
            self._patch(owner, attr, wrappers[name])
        for module_name, attr, target in ALIASES:
            self._patch(importlib.import_module(f"{package}.{module_name}"), attr, wrappers[target])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _open(self, name: str, module: str) -> Span | None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.module == module:
            return None
        span_id = next(self._ids)
        if parent is None:
            span = Span(span_id, None, span_id, name, module)
        else:
            span = Span(span_id, parent.id, parent.root, name, module)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one sweep point."""
        span = self._open(name, "bench")
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    def _wrap(self, fn, name, module, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, module)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the time its child spans cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.ns
        return {span.id: span.ns - child_ns[span.id] for span in self.spans}

    def write(self, path) -> None:
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "root": s.root, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "self_ns": own[s.id],
                    "error": s.error, "counts": s.counts,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-function busy time, call counts and cost per unit of work."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            by_name[span.name].append(span)

        def p50_us(name):
            spans = by_name[name]
            return statistics.median(s.ns for s in spans) / 1e3 if spans else 0.0

        def per_unit(name, unit):
            spans = by_name[name]
            units = sum(s.counts[unit] for s in spans if s.counts)
            return sum(s.ns for s in spans) / units if units else 0.0

        own = self.self_ns()
        main = by_name["cli.main"]
        ensemble = by_name["sde.simulate_ensemble"]
        out = {
            "sde.simulate_ensemble.ns_per_traj_step": per_unit("sde.simulate_ensemble", "traj_steps"),
            "sde.simulate_ensemble.busy_s": sum(s.ns for s in ensemble) / 1e9,
            "sde.outputs_recorded": float(sum(s.counts["outputs"] for s in ensemble if s.counts)),
            "sde.write_csv.us_per_row": per_unit("sde.EnsembleStats.write_csv", "rows") / 1e3,
            "sde.sample_trajectory.ns_per_step": per_unit("sde.sample_trajectory", "steps"),
            "spectral.correlators_exact.ns_per_point": per_unit("spectral.correlators_exact", "points"),
            "cli.main.self_ms": statistics.median(own[s.id] for s in main) / 1e6 if main else 0.0,
            "cli.main.calls": float(len(main)),
            "stability.routh_hurwitz.calls": float(len(by_name["stability.routh_hurwitz"])),
            "model.assemble_drift_noise.calls": float(len(by_name["model.assemble_drift_noise"])),
            "trace.spans": float(len(self.spans)),
        }
        for name in (
            "stability.routh_hurwitz", "steadystate.solve_lyapunov",
            "steadystate.closed_form_covariances", "spectral.exact_equal_time",
            "spectral.find_poles", "spectral.greens", "cq.thermal_limit",
            "cq.hybrid_equal_time", "model.assemble_drift_noise",
        ):
            out[f"{name}.us_p50"] = p50_us(name)
        return out
