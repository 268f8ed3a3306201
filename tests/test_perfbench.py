"""The benchmark still runs: its span tracer finds every function it wraps, and its
smoke run passes every gate."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.spans import Tracer

    tracer = Tracer()
    try:
        tracer.install("hybridosc")  # AttributeError for a deleted or renamed name
    finally:
        tracer.uninstall()


def test_traced_cli_replay_records_each_layer(monkeypatch, tmp_path):
    # a subcommand imports its modules when it runs; it must still call them
    # through the module objects that the tracer patches
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.spans import Tracer

    from hybridosc import cli

    tracer = Tracer()
    tracer.install("hybridosc")
    try:
        for command in ("stability", "steadystate", "cq"):
            assert cli.main([command, "-o", str(tmp_path / f"{command}.json")]) == 0
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "stability.routh_hurwitz", "model.assemble_drift_noise", "cq.thermal_limit"} <= names


def test_benchmark_smoke_passes():
    # every workload at a tiny size, traced and untraced: metric names and units match
    # BENCHMARK.json, every gate passes, and every gate fails on corrupted references
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"
