"""The package namespace is lazy, each quick subcommand loads only the modules it runs, and
no exported type's == raises."""

import copy
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridosc

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("cq", "errors", "model", "sde", "spectral", "stability", "steadystate")


def _loaded_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` with ``argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code + "\nprint(*sys.modules)", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_bare_import_loads_no_submodule():
    loaded = _loaded_after("import sys, hybridosc")
    assert "hybridosc" in loaded
    assert not {m for m in loaded if m.startswith("hybridosc.")}


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["stability"], "stability"),
        (["steadystate"], "steadystate"),
        (["poles", "--perturbative", "2"], "spectral"),
        (["correlators", "--lambda", "0.5"], "spectral"),
        (["cq", "--D", "1", "--lambda", "0.1"], "cq"),
    ],
    ids=["stability", "steadystate", "poles", "correlators", "cq"],
)
def test_quick_subcommand_loads_only_what_it_runs(argv, runs, tmp_path):
    code = "import sys\nfrom hybridosc.cli import main\nif main(sys.argv[1:]): sys.exit('subcommand failed')"
    loaded = _loaded_after(code, *argv, "-o", str(tmp_path / "out"))
    assert f"hybridosc.{runs}" in loaded
    never = {"hybridosc.sde", "hybridosc.verify", "concurrent.futures"}
    unused = {"hybridosc.cq", "hybridosc.spectral"} - {f"hybridosc.{runs}"}
    assert not (never | unused) & loaded


def test_sde_loads_the_thread_pool_only_to_draw_ahead():
    # concurrent.futures (and the logging it imports) loads when a call draws ahead,
    # not with the module nor for a strided call that draws inline
    code = (
        "import sys\nfrom hybridosc import SystemParams, assemble_drift_noise, sde\n"
        "dn = assemble_drift_noise(SystemParams.natural_units(0.4))\n"
        "sde.simulate_ensemble(dn, sde.SimConfig(dt=1e-2, t_final=1.0, n_trajectories=100))"
    )
    loaded = _loaded_after(code)
    assert "hybridosc.sde" in loaded
    assert not {"concurrent.futures", "logging"} & loaded


def test_every_public_name_is_its_modules_object():
    assert hybridosc.__all__ == sorted(set(hybridosc.__all__))
    modules = [importlib.import_module(f"hybridosc.{m}") for m in SUBMODULES]
    for name in hybridosc.__all__:
        owners = [vars(m)[name] for m in modules if name in vars(m)]
        assert owners, name
        assert all(getattr(hybridosc, name) is obj for obj in owners), name


def test_namespace_imports_dir_and_errors():
    namespace: dict = {}
    exec("from hybridosc import *", namespace)
    assert set(hybridosc.__all__) <= namespace.keys()
    from hybridosc import stability

    assert stability is importlib.import_module("hybridosc.stability")
    assert hybridosc.spectral is importlib.import_module("hybridosc.spectral")
    assert set(hybridosc.__all__) | set(SUBMODULES) <= set(dir(hybridosc))
    with pytest.raises(AttributeError, match="no_such_name"):
        hybridosc.no_such_name
    assert hybridosc.__version__ == "0.1.0"


def _one_of_each_dataclass() -> dict:
    """An instance of every exported dataclass, by name."""
    import numpy as np

    from hybridosc import (
        CQParams, SimConfig, SystemParams, assemble_drift_noise, correlators_exact, find_poles,
        greens, hybrid_correlators, routh_hurwitz, sde, solve_lyapunov, thermal_limit,
    )

    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(dt=0.1, t_final=0.3, n_trajectories=3, initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn))
    cq = CQParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.3)
    return {
        "CQParams": cq, "HybridCorrelators": hybrid_correlators(cq, np.linspace(0.0, 1.0, 3)),
        "ThermalReport": thermal_limit(cq), "DriftNoise": dn, "OscillatorParams": params.osc1,
        "SystemParams": params, "EnsembleStats": sde.simulate_ensemble(dn, cfg), "SimConfig": cfg,
        "CorrelatorTable": correlators_exact(params, np.linspace(0.0, 1.0, 3)),
        "GreensFrequency": greens(params, 0.5), "PoleSet": find_poles(params),
        "StabilityReport": routh_hurwitz(params),
    }


def test_no_dataclass_equality_raises():
    # a dataclass that holds arrays compares by identity: a generated == would
    # compare its arrays and raise on their ambiguous truth value.  The rest
    # compare by value, a DriftNoise by its parameters
    by_value = {"CQParams", "DriftNoise", "OscillatorParams", "SystemParams", "ThermalReport"}
    instances = _one_of_each_dataclass()
    exported = {name for name in hybridosc.__all__ if dataclasses.is_dataclass(getattr(hybridosc, name))}
    assert instances.keys() == exported
    for name, x in instances.items():
        twin = copy.deepcopy(x)
        assert x == x and x in [x], name
        assert (twin == x) is (x in [twin]) is (name in by_value), name
