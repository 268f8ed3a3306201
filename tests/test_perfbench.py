"""The benchmark's span tracer still finds every function it wraps."""

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
