"""Coupled stochastic oscillators: steady states, correlators, CQ mapping.

A numerical library and CLI for a pair of harmonically coupled oscillators,
one damped and stochastically driven, treated as a 4-dimensional
Ornstein-Uhlenbeck process.  Provides stability certificates, stationary
covariances by three independent routes, frequency-domain Green's functions
with residue-based time-domain correlators, small-coupling expansions,
mutual-information diagnostics, and the classical-quantum layer built on the
exact harmonic mapping.
"""

import importlib

__version__ = "0.1.0"

# every public name, listed once under the module that defines it.  A name is
# imported from its module on first access (PEP 562), so ``import hybridosc``
# loads no submodule and a caller pays only for the modules it uses.
_EXPORTS = {
    "cq": (
        "CQParams", "HybridCorrelators", "Occupation", "ThermalReport", "gibbs_covariances",
        "hybrid_correlators", "hybrid_equal_time", "map_to_classical",
        "occupation_exact", "occupation_from_keldysh", "occupation_number", "thermal_limit",
    ),
    "errors": (
        "ClassificationFailure", "CouplingZero", "DegeneratePoles", "HybridOscError",
        "NotStable", "NumericalOverflow", "OverdampedUnsupported", "PerfectCorrelation",
        "PoleOnAxis", "SingularSystem", "TradeoffViolation",
    ),
    "model": (
        "STATE_ORDER", "DriftNoise", "OscillatorParams", "SystemParams",
        "assemble_drift_noise", "characteristic_polynomial",
    ),
    "sde": (
        "EnsembleStats", "SimConfig", "energy_drift", "moment_screen", "sample_trajectory",
        "scheme_moments", "simulate_ensemble", "total_energy",
    ),
    "spectral": (
        "CorrelatorTable", "GreensFrequency", "PoleSet", "correlation_coefficient",
        "correlators_exact", "correlators_small_lambda", "exact_equal_time", "find_poles",
        "greens", "greens_inverse", "mutual_information", "perturbative_poles", "sigma_ratio",
    ),
    "stability": ("StabilityReport", "routh_hurwitz"),
    "steadystate": (
        "closed_form_covariances", "evolve_moments", "lyapunov_residual", "solve_lyapunov",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
