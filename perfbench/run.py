#!/usr/bin/env python3
"""Benchmark of the hybridosc library and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run builds the workload's inputs from the seed, repeats the workload's
iteration until ``--seconds`` have passed (at least once), checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment record and every metric by name with its unit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that alternates untraced and traced iterations: the traced ones record a
span around every call into a ``hybridosc`` module (see spans.py), and the
run reports the per-layer metrics and the tracing overhead.

BENCHMARK.json lists the workloads that are run by default; analysis_sweep
(see workloads.py) runs only when named.

``--smoke`` runs every workload at a tiny size in both modes, checks that
every metric appears with its unit and that a corrupted reference fails
every correctness gate, and exits 0 only if all of that holds.

Results, span files and scratch outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import Tracer
from workloads import ROOT, SRC, WORKLOADS, CliSession, Record, child_env, no_span

OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120.0
MODULES = ("model", "stability", "steadystate", "sde", "spectral", "cq", "cli")
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# What the end-to-end metrics count depends on the workload:
#   work_per_s   trajectory-steps per second of wall time in the ensemble
#                calls (the whole `simulate` subprocess on cli_session);
#                parameter points per second on analysis_sweep
#   call_ms_p50  median wall time of the workload's repeated call: a
#                simulate_ensemble call, a quick-subcommand subprocess, one
#                sweep point
#   peak_rss_mb  peak resident memory of the process doing the work (the
#                largest CLI subprocess on cli_session)
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "sde.simulate_ensemble.ns_per_traj_step": "ns",
    "sde.simulate_ensemble.busy_s": "s",
    "sde.outputs_recorded": "count",
    "sde.write_csv.us_per_row": "us",
    "sde.sample_trajectory.ns_per_step": "ns",
    "sde.worst_moment_se": "SE",
    "stability.routh_hurwitz.us_p50": "us",
    "stability.routh_hurwitz.calls": "count",
    "steadystate.solve_lyapunov.us_p50": "us",
    "steadystate.closed_form_covariances.us_p50": "us",
    "steadystate.closed_vs_lyapunov.margin": "ratio",
    "spectral.correlators_exact.ns_per_point": "ns",
    "spectral.exact_equal_time.us_p50": "us",
    "spectral.find_poles.us_p50": "us",
    "spectral.find_poles.refused": "count",
    "spectral.greens.us_p50": "us",
    "spectral.equal_time_vs_lyapunov.margin": "ratio",
    "cq.thermal_limit.us_p50": "us",
    "cq.hybrid_equal_time.us_p50": "us",
    "model.assemble_drift_noise.us_p50": "us",
    "model.assemble_drift_noise.calls": "count",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.main.calls": "count",
    **{f"{m}.failed": "count" for m in MODULES},
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "bench.call_ms_p99": "ms",
}


def _git_commit() -> str | None:
    git = ROOT / ".git"
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


def environment(workload, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hybridosc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "kernel_sizes": workload.sizes,
    }


def _timed_setup(name: str, seed: int, workdir, small: bool):
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir, small)
    return workload, time.perf_counter() - start


def _probe(cmd: list[str]) -> float:
    """Run a child that prints a time in seconds as its last line."""
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def measure(workload, rec: Record, seconds: float, trace: bool) -> tuple[dict, Tracer | None]:
    """Repeat the workload's iteration until ``seconds`` have passed.

    With ``trace`` the iterations alternate untraced and traced, and the
    result holds the per-layer metrics and the tracer with its spans.
    """
    deadline = time.perf_counter() + seconds
    if not trace:
        while True:
            workload.iterate(rec)
            if time.perf_counter() >= deadline:
                return {}, None
    tracer = Tracer()
    tracer.install("hybridosc")  # imports every module before anything is timed
    tracer.uninstall()
    if isinstance(workload, CliSession):
        workload.inprocess = True
    plain_s, traced_s = [], []
    while True:
        start = time.perf_counter()
        workload.iterate(rec)
        plain_s.append(time.perf_counter() - start)
        tracer.install("hybridosc")
        rec.span = tracer.span
        try:
            start = time.perf_counter()
            workload.iterate(rec)
            traced_s.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
            rec.span = no_span
        if time.perf_counter() >= deadline:
            break
    layer = tracer.layer_metrics()
    layer["bench.call_ms_p99"] = _p99(rec.calls_ms)
    layer["trace.overhead_frac"] = min(traced_s) / min(plain_s) - 1.0
    layer["sde.worst_moment_se"] = rec.gates.get("sde.worst_moment_se", [0.0])[0]
    for name in ("steadystate.closed_vs_lyapunov", "spectral.equal_time_vs_lyapunov"):
        worst, bound, _ = rec.gates.get(name, [0.0, 1.0, 0])
        layer[f"{name}.margin"] = worst / bound
    layer["spectral.find_poles.refused"] = float(rec.refused["spectral.find_poles"])
    for module in MODULES:
        layer[f"{module}.failed"] = float(rec.failed[module])
    layer["failed_frac"] = (rec.n_failed + sum(rec.refused.values())) / max(1, rec.attempted)
    layer["cli.import_ms"] = 0.0
    if isinstance(workload, CliSession):
        cmd = [sys.executable, "-c", "import time; t = time.perf_counter(); import hybridosc.cli; "
               "print(time.perf_counter() - t)"]
        layer["cli.import_ms"] = 1e3 * statistics.median(_probe(cmd) for _ in range(IMPORT_PROBES))
    return layer, tracer


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
        probes: int = SETUP_PROBES) -> tuple[dict, Record, dict]:
    """One benchmark run; returns (result line, record, detail for the result file)."""
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, own_setup = _timed_setup(name, seed, workdir, small)
        probe_cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                     "--workload", name, "--seed", str(seed)] + (["--small"] if small else [])
        setup_s = [own_setup] + [_probe(probe_cmd) for _ in range(probes)]
        rec = Record()
        layer, tracer = measure(workload, rec, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {k: {"value": float(layer[k]), "unit": u} for k, u in PER_LAYER.items()}
    else:
        rss = rec.child_rss_mb if isinstance(workload, CliSession) else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup_s),
            "work_per_s": rec.work / rec.work_s if rec.work_s else 0.0,
            "call_ms_p50": statistics.median(rec.calls_ms) if rec.calls_ms else 0.0,
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": rec.n_failed == 0,
        "attempted": rec.attempted,
        "failed": rec.n_failed,
        "metrics": metrics,
    }
    detail = {
        "environment": environment(workload, seed),
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setup_s,
        "calls_timed": len(rec.calls_ms),
        "work": rec.work,
        "work_s": rec.work_s,
        "refused": dict(rec.refused),
        "errors": dict(rec.errors),
        "gates": {k: {"worst": v[0], "bound": v[1], "failures": v[2]} for k, v in rec.gates.items()},
        "failure_notes": rec.notes,
        "result": result,
    }
    if not small:
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
        if tracer is not None:
            tracer.write(OUT / f"spans-{stem}.jsonl")
    return result, rec, detail


def smoke() -> int:
    """Tiny runs of every workload; checks metric names, units and every gate."""
    problems = []
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != table:
                problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} vs {table}")
        unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
        if unknown:
            problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for name in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            result, rec, _ = run(name, seed=1, seconds=0.0, trace=trace, small=True, probes=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != table:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} differ from the table")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} trace={trace}: non-finite metric")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: gates failed: {rec.notes}")
        workdir = OUT / f"work-smoke-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = WORKLOADS[name](1, workdir, True)
            clean, corrupted = Record(), Record()
            workload.iterate(clean)
            workload.corrupt()
            workload.iterate(corrupted)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        missed = [g for g in clean.gates if corrupted.gates.get(g, [0, 0, 0])[2] == 0]
        if clean.n_failed or missed:
            problems.append(f"{name}: clean gates failed {clean.notes}; not failed when corrupted: {missed}")
        else:
            print(f"smoke {name}: {len(clean.gates)} gates, all fail on corrupted references")
    for problem in problems:
        print("problem:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hybridosc" / "__init__.py").is_file():
        print(f"error: no hybridosc package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HYBRID_OSC_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(_timed_setup(args.workload, args.seed, OUT / "probe", args.small)[1])
        return 0

    result, _, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# environment " + json.dumps(detail["environment"]))
    print(f"# attempted {result['attempted']} failed {result['failed']} "
          f"refused {sum(detail['refused'].values())} {json.dumps(detail['refused'])}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
