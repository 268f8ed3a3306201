"""Command-line front end: configuration, orchestration, CSV/JSON emission.

Subcommands: simulate, stability, steadystate, correlators, poles, cq,
verify.  Parameters come from a single JSON config document (--config) with
individual flags overriding file values.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import cq as cq_mod
from . import sde, spectral, stability, steadystate
from .errors import HybridOscError
from .model import SystemParams, assemble_drift_noise, characteristic_polynomial

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

_DEFAULT_PARAMS = {
    "m1": 1.0, "k1": 1.0, "alpha": 1.0, "D1": 1.0,
    "m2": 1.0, "k2": 1.0, "D2": 1.0, "lambda": 0.05,
}
_DEFAULT_SIM = {
    "dt": 1e-3, "t_final": 10.0, "n_trajectories": 1000, "seed": 0,
    "output_stride": None, "initial": "zero",
}
_DEFAULT_CQ = {
    "D": 1.0, "alpha": 1.0, "lambda": 0.05,
    "mC": 1.0, "mQ": 1.0, "kC": 1.0, "kQ": 1.0,
}


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return data


def _merged(defaults: dict, config: dict, args: argparse.Namespace, keys) -> dict:
    """defaults < config file < explicit CLI flags."""
    out = dict(defaults)
    for key in keys:
        if key in config:
            out[key] = config[key]
    for key in keys:
        flag = getattr(args, key.replace("lambda", "lam"), None)
        if flag is not None:
            out[key] = flag
    return out


def _system_params(args: argparse.Namespace, config: dict) -> SystemParams:
    values = _merged(_DEFAULT_PARAMS, config, args, _DEFAULT_PARAMS.keys())
    try:
        return SystemParams.from_dict(values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad system parameters: {exc}") from exc


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        directory = os.path.dirname(os.path.abspath(path))
        if directory and not os.path.isdir(directory):
            raise ConfigError(f"output directory does not exist: {directory}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, complex):
            return {"re": o.real, "im": o.imag}
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.bool_):
            return bool(o)
        raise TypeError(f"not JSON serialisable: {type(o)}")

    return json.dumps(obj, indent=2, default=default) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_stability(args, config) -> int:
    params = _system_params(args, config)
    report = stability.routh_hurwitz(params)
    _emit(_json_dump(report.to_dict()), args.output)
    return EXIT_OK


def _cmd_steadystate(args, config) -> int:
    params = _system_params(args, config)
    dn = assemble_drift_noise(params)
    closed = steadystate.closed_form_covariances(params)
    solved = steadystate.solve_lyapunov(dn)
    scale = max(1.0, float(np.max(np.abs(solved))))
    discrepancy = float(np.max(np.abs(closed - solved))) / scale
    _emit(
        _json_dump(
            {
                "closed_form": closed,
                "lyapunov": solved,
                "max_relative_discrepancy": discrepancy,
                "state_order": list(dn.state_order),
            }
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_simulate(args, config) -> int:
    params = _system_params(args, config)
    sim = _merged(_DEFAULT_SIM, config, args, _DEFAULT_SIM.keys())
    dn = assemble_drift_noise(params)

    initial = sim.get("initial", "zero")
    kwargs: dict = {}
    if initial == "zero":
        kwargs["initial_state"] = np.zeros(4)
    elif initial == "stationary":
        cov = steadystate.solve_lyapunov(dn)
        kwargs["initial_mean"] = np.zeros(4)
        kwargs["initial_cov"] = cov
    elif isinstance(initial, dict) and "state" in initial:
        kwargs["initial_state"] = np.asarray(initial["state"], dtype=float)
    elif isinstance(initial, dict) and "mean" in initial and "cov" in initial:
        kwargs["initial_mean"] = np.asarray(initial["mean"], dtype=float)
        kwargs["initial_cov"] = np.asarray(initial["cov"], dtype=float)
    else:
        raise ConfigError("initial must be 'zero', 'stationary', {'state': [...]}, or {'mean','cov'}")

    try:
        cfg = sde.SimConfig(
            dt=float(sim["dt"]),
            t_final=float(sim["t_final"]),
            n_trajectories=int(sim["n_trajectories"]),
            seed=int(sim["seed"]),
            output_stride=sim["output_stride"] and int(sim["output_stride"]),
            **kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulation settings: {exc}") from exc

    try:
        stats = sde.simulate_ensemble(dn, cfg, threads=args.threads)
    except ValueError as exc:
        raise ConfigError(f"bad simulation settings: {exc}") from exc
    buf = io.StringIO()
    stats.write_csv(buf)
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


def _cmd_poles(args, config) -> int:
    params = _system_params(args, config)
    poles = spectral.find_poles(params)
    payload = poles.to_dict()
    if args.perturbative:
        pert = spectral.perturbative_poles(params, order=args.perturbative)
        payload["perturbative"] = pert.to_dict()
        payload["perturbative"]["max_error"] = float(
            max(abs(pert.omega1 - poles.omega1), abs(pert.omega2 - poles.omega2))
        )
    _emit(_json_dump(payload), args.output)
    return EXIT_OK


def _cmd_correlators(args, config) -> int:
    params = _system_params(args, config)
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    t = np.linspace(-args.t_max, args.t_max, args.points)
    method = args.method
    if method == "auto":
        try:
            table = spectral.correlators_exact(params, t)
        except HybridOscError:
            table = spectral.correlators_small_lambda(params, t)
    elif method == "exact":
        table = spectral.correlators_exact(params, t)
    else:
        table = spectral.correlators_small_lambda(params, t)

    lines = ["t,pair,value,method"]
    for name in table.PAIR_COLUMNS:
        column = getattr(table, name)
        for tk, value in zip(table.times, column):
            lines.append(f"{tk:.17g},{name},{value:.17g},{table.method}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_cq(args, config) -> int:
    values = _merged(_DEFAULT_CQ, config, args, _DEFAULT_CQ.keys())
    try:
        hybrid = cq_mod.CQParams(
            classical_mass=float(values["mC"]),
            classical_spring=float(values["kC"]),
            damping=float(values["alpha"]),
            diffusion=float(values["D"]),
            quantum_mass=float(values["mQ"]),
            quantum_spring=float(values["kQ"]),
            coupling=float(values["lambda"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad CQ parameters: {exc}") from exc
    occ = cq_mod.occupation_number(hybrid)
    report = cq_mod.thermal_limit(hybrid)
    _emit(
        _json_dump(
            {
                "T_C": occ.temperature,
                "N": occ.n,
                "N_keldysh_route": cq_mod.occupation_from_keldysh(hybrid),
                "equal_time": report.equal_time,
                "gibbs_deviation": report.max_deviation_gibbs,
            }
        ),
        args.output,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_checks(params: SystemParams, seed: int, mc_trajectories: int, tol_scale: float):
    """Run the full cross-check suite; yields (name, value, bound, passed)."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, float, bool]] = []

    def add(name: str, value: float, bound: float):
        checks.append((name, float(value), float(bound), bool(value <= bound * tol_scale)))

    # stability: algebraic certificate vs dense spectrum
    disagreements = 0
    for _ in range(2000):
        draw = SystemParams.from_dict(
            {
                "m1": rng.uniform(0.2, 5), "k1": rng.uniform(0.2, 5),
                "alpha": rng.uniform(0.2, 5), "D1": rng.uniform(0, 2),
                "m2": rng.uniform(0.2, 5), "k2": rng.uniform(0.2, 5),
                "D2": rng.uniform(0, 2), "lambda": rng.uniform(0.05, 5),
            }
        )
        report = stability.routh_hurwitz(draw)
        if report.routh_hurwitz_pass != (report.min_real_part > 1e-12):
            if abs(report.min_real_part) > 1e-9:
                disagreements += 1
    add("stability_certificate_agreement", disagreements, 0)

    # characteristic polynomial roots == drift eigenvalues
    roots = np.sort_complex(np.roots(characteristic_polynomial(params)))
    eigs = np.sort_complex(np.linalg.eigvals(assemble_drift_noise(params).theta))
    add("charpoly_vs_eigenvalues", np.max(np.abs(roots - eigs)), 1e-9)

    # Lyapunov triangle on the configured system
    dn = assemble_drift_noise(params)
    solved = steadystate.solve_lyapunov(dn)
    closed = steadystate.closed_form_covariances(params)
    scale = float(np.max(np.abs(solved)))
    add("closed_form_vs_lyapunov", np.max(np.abs(closed - solved)) / scale, 1e-8)
    min_rate = float(np.min(np.linalg.eigvals(dn.theta).real))
    t_relax = 15.0 / min_rate
    _, covs = steadystate.evolve_moments(
        dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, t_relax]),
        max_step=0.8 / float(np.max(np.abs(np.linalg.eigvals(dn.theta)))),
    )
    add("moment_flow_vs_lyapunov", np.max(np.abs(covs[-1] - solved)) / scale, 1e-8)

    # spectral: closed form vs numeric inversion, poles, equal-time match
    worst = 0.0
    for _ in range(25):
        w = rng.uniform(-4, 4)
        closed_g = spectral.greens(params, w).matrix
        inverted = np.linalg.inv(spectral.greens_inverse(params, w))
        worst = max(worst, float(np.max(np.abs(closed_g - inverted)) / np.max(np.abs(inverted))))
    add("greens_vs_numeric_inverse", worst, 1e-10)

    poles = spectral.find_poles(params)
    coeffs = spectral.response_denominator_coefficients(params)
    conj_residual = float(
        np.max(np.abs(np.polyval(np.conj(coeffs), np.conj(poles.upper_roots))))
    )
    add("pole_reflection_structure", conj_residual / max(1.0, abs(coeffs[0])), 1e-9)

    eq = spectral.exact_equal_time(params)
    add(
        "residue_equal_time_vs_lyapunov",
        max(
            abs(eq["g11_0"] - solved[0, 0]),
            abs(eq["g22_0"] - solved[2, 2]),
            abs(eq["g12_0"] - solved[0, 2]),
            abs(eq["q1p2"] - solved[0, 3]),
            abs(eq["q2p1"] - solved[2, 1]),
        )
        / scale,
        1e-8,
    )

    # perturbative pole error must shrink like the cube of the coupling
    errs = []
    lams = np.array([0.01, 0.02, 0.04])
    base = params.to_dict()
    for lam in lams:
        base["lambda"] = lam
        p_small = SystemParams.from_dict(base)
        exact = spectral.find_poles(p_small)
        pert = spectral.perturbative_poles(p_small, order=2)
        errs.append(abs(exact.omega1 - pert.omega1) + abs(exact.omega2 - pert.omega2))
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    add("perturbative_cubic_scaling", abs(slope - 3.0), 0.2)

    # small-coupling closed forms against the exact residue values
    base["lambda"] = 0.01
    p_small = SystemParams.from_dict(base)
    t_probe = np.linspace(0.0, 5.0 / max(params.osc1.damping_rate, 1e-3), 7)
    exact_tab = spectral.correlators_exact(p_small, t_probe)
    small_tab = spectral.correlators_small_lambda(p_small, t_probe)
    add(
        "small_lambda_g22",
        np.max(np.abs(exact_tab.g22 - small_tab.g22)) / np.max(np.abs(exact_tab.g22)),
        0.05,
    )
    zero_tab = spectral.correlators_small_lambda(p_small, np.array([0.0]))
    ratio = spectral.sigma_ratio(p_small)
    add(
        "sigma_ratio_consistency",
        abs(ratio - np.sqrt(zero_tab.g11[0] / zero_tab.g22[0])),
        1e-12,
    )
    info = spectral.mutual_information(p_small, (2, 2), np.pi / 2 / p_small.osc2.frequency)
    add("mutual_information_zero", abs(info), 1e-12)

    # Monte Carlo against the Lyapunov covariance, stationary start
    cfg = sde.SimConfig(
        dt=1e-3,
        t_final=5.0,
        n_trajectories=mc_trajectories,
        seed=seed,
        initial_mean=np.zeros(4),
        initial_cov=solved,
    )
    stats = sde.simulate_ensemble(dn, cfg)
    dev = np.abs(stats.cov[-1] - solved)
    bands = 3.0 * stats.cov_stderr[-1]
    add("monte_carlo_vs_lyapunov_sigmas", float(np.max(dev / bands)), 1.0)
    drift = sde.energy_drift(params, stats.cov[-1])
    drift_band = 3.0 * (params.osc1.damping / params.osc1.mass**2) * stats.cov_stderr[-1][1, 1]
    add("energy_drift_zero", abs(drift), drift_band)
    t_a, path_a = sde.sample_trajectory(dn, cfg, 0)
    _, path_b = sde.sample_trajectory(dn, cfg, 0)
    add("trajectory_determinism", float(np.max(np.abs(path_a - path_b))), 0.0)
    del t_a

    # CQ layer
    hybrid = cq_mod.CQParams(
        classical_mass=1.0, classical_spring=1.0, damping=1.0, diffusion=1.0,
        quantum_mass=1.0, quantum_spring=1.0, coupling=params.coupling or 0.05,
    )
    # diffusion tuned so T_C = D/(2 alpha) equals omega/2 exactly
    critical = cq_mod.CQParams(
        classical_mass=1.0, classical_spring=1.0, damping=1.0,
        diffusion=1.0, quantum_mass=1.0, quantum_spring=1.0, coupling=0.05,
    )
    occ = cq_mod.occupation_number(critical)
    add("occupation_minimum", abs(occ.n - 0.5), 1e-12)
    sweep = [
        cq_mod.occupation_number(
            cq_mod.CQParams(
                classical_mass=1.0, classical_spring=1.0, damping=1.0,
                diffusion=2.0 * t_c, quantum_mass=1.0, quantum_spring=1.0, coupling=0.05,
            )
        ).n
        for t_c in np.geomspace(0.05, 20, 25)
    ]
    add("occupation_floor", 0.5 - min(sweep), 0.0)
    mapped = cq_mod.map_to_classical(hybrid)
    hybrid_cov = cq_mod.hybrid_equal_time(hybrid)
    lyap = steadystate.solve_lyapunov(assemble_drift_noise(mapped))
    h_scale = float(np.max(np.abs(lyap)))
    add(
        "hybrid_equal_time_vs_lyapunov",
        max(abs(hybrid_cov[k] - lyap[idx]) for k, idx in cq_mod.EQUAL_TIME_SLOTS.items()) / h_scale,
        1e-9,
    )
    tiny = cq_mod.CQParams(
        classical_mass=1.0, classical_spring=1.0, damping=1.0, diffusion=1.0,
        quantum_mass=1.0, quantum_spring=1.0, coupling=1e-8,
    )
    table = cq_mod.hybrid_correlators(tiny, np.linspace(-3, 3, 7))
    finite = np.isfinite(table.keldysh).all() and np.isfinite(table.classical).all()
    add("hybrid_correlators_finite_at_zero_coupling", 0.0 if finite else 1.0, 0.0)
    devs = [
        cq_mod.thermal_limit(
            cq_mod.CQParams(
                classical_mass=1.0, classical_spring=1.0, damping=1.0, diffusion=d,
                quantum_mass=1.0, quantum_spring=1.0, coupling=0.1,
            )
        ).max_deviation_gibbs
        for d in (10.0, 100.0, 1000.0, 10000.0)
    ]
    add("thermal_deviation_monotone", 0.0 if all(np.diff(devs) < 0) else 1.0, 0.0)
    add("thermal_deviation_high_diffusion", devs[-1], 1e-2)

    return checks


def _cmd_verify(args, config) -> int:
    params = _system_params(args, config)
    checks = _verify_checks(
        params,
        seed=args.seed if args.seed is not None else 0,
        mc_trajectories=args.mc_trajectories,
        tol_scale=args.tol_scale,
    )
    report = {
        "parameters": params.to_dict(),
        "checks": [
            {"name": n, "value": v, "bound": b, "passed": p} for n, v, b, p in checks
        ],
        "passed": all(p for _, _, _, p in checks),
    }
    for name, value, bound, passed in checks:
        sys.stderr.write(
            f"[{'PASS' if passed else 'FAIL'}] {name}: {value:.6g} (bound {bound:.6g})\n"
        )
    _emit(_json_dump(report), args.output)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m1", type=float, default=None)
    parser.add_argument("--k1", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--D1", type=float, default=None)
    parser.add_argument("--m2", type=float, default=None)
    parser.add_argument("--k2", type=float, default=None)
    parser.add_argument("--D2", type=float, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-osc",
        description="Coupled stochastic oscillators: steady states, correlators, CQ layer.",
    )
    parser.add_argument("--config", default=None, help="JSON config document")
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    # the same options are accepted after the subcommand; SUPPRESS keeps them
    # from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("-o", "--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("stability", help="stability certificate as JSON", parents=[common])
    _add_param_flags(p)

    p = sub.add_parser("steadystate", help="stationary covariances by both routes", parents=[common])
    _add_param_flags(p)

    p = sub.add_parser("simulate", help="ensemble statistics CSV", parents=[common])
    _add_param_flags(p)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", dest="t_final", type=float, default=None)
    p.add_argument("--n-trajectories", dest="n_trajectories", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-stride", dest="output_stride", type=int, default=None)
    p.add_argument(
        "--initial", default=None, help="'zero' or 'stationary' (JSON config allows state/mean+cov)"
    )
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("poles", help="independent pole pair as JSON", parents=[common])
    _add_param_flags(p)
    p.add_argument("--perturbative", type=int, choices=(1, 2), default=None)

    p = sub.add_parser("correlators", help="two-point functions as CSV", parents=[common])
    _add_param_flags(p)
    p.add_argument("--t-max", dest="t_max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--method", choices=("auto", "exact", "small-lambda"), default="auto")

    p = sub.add_parser("cq", help="hybrid layer summary as JSON", parents=[common])
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mC", type=float, default=None)
    p.add_argument("--mQ", type=float, default=None)
    p.add_argument("--kC", type=float, default=None)
    p.add_argument("--kQ", type=float, default=None)

    p = sub.add_parser("verify", help="run the full cross-check suite", parents=[common])
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-trajectories", dest="mc_trajectories", type=int, default=2000)
    p.add_argument(
        "--tol-scale",
        dest="tol_scale",
        type=float,
        default=1.0,
        help="multiply every bound (strictness control; <1 tightens)",
    )

    return parser


_COMMANDS = {
    "stability": _cmd_stability,
    "steadystate": _cmd_steadystate,
    "simulate": _cmd_simulate,
    "poles": _cmd_poles,
    "correlators": _cmd_correlators,
    "cq": _cmd_cq,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.mode](args, config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except HybridOscError as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
