"""Command-line front end: configuration, orchestration, CSV/JSON emission.

Subcommands: simulate, stability, steadystate, correlators, poles, cq,
verify.  Parameters come from a single JSON config document (--config) with
individual flags overriding file values.  Exit codes come from ``main``
alone: 0 success; 2 rejected input (a ``ValueError``, ``TypeError`` or
``OSError`` from any flag, config value or file, or output path, or a
``MemoryError`` from a request too large to hold), with one
``config error:`` line; 3 numerical refusal (``HybridOscError``,
``LinAlgError`` or an ``ArithmeticError`` such as a float overflow); 4
verification failure.  Each subcommand imports the library modules it runs
when it runs, so a start loads no others.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import HybridOscError
from .model import SystemParams, assemble_drift_noise

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


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config document must be a JSON object")
    return data


def _merged(defaults: dict, config: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit CLI flags."""
    out = dict(defaults)
    for key in defaults:
        if key in config:
            out[key] = config[key]
        if getattr(args, key) is not None:
            out[key] = getattr(args, key)
    return out


def _system_params(args: argparse.Namespace, config: dict) -> SystemParams:
    return SystemParams.from_dict(_merged(_DEFAULT_PARAMS, config, args))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
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
    from . import stability

    params = _system_params(args, config)
    report = stability.routh_hurwitz(params)
    _emit(_json_dump(report.to_dict()), args.output)
    return EXIT_OK


def _cmd_steadystate(args, config) -> int:
    from . import steadystate

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
    from . import sde, steadystate

    params = _system_params(args, config)
    sim = _merged(_DEFAULT_SIM, config, args)
    dn = assemble_drift_noise(params)

    initial = sim.get("initial", "zero")
    kwargs: dict = {}
    if initial == "zero":
        kwargs["initial_state"] = np.zeros(4)
    elif initial == "stationary":
        kwargs["initial_mean"] = np.zeros(4)
        kwargs["initial_cov"] = steadystate.closed_form_covariances(params)
    elif isinstance(initial, dict) and "state" in initial:
        kwargs["initial_state"] = np.asarray(initial["state"], dtype=float)
    elif isinstance(initial, dict) and "mean" in initial and "cov" in initial:
        kwargs["initial_mean"] = np.asarray(initial["mean"], dtype=float)
        kwargs["initial_cov"] = np.asarray(initial["cov"], dtype=float)
    else:
        raise ValueError("initial must be 'zero', 'stationary', {'state': [...]}, or {'mean','cov'}")

    cfg = sde.SimConfig(
        dt=float(sim["dt"]),
        t_final=float(sim["t_final"]),
        n_trajectories=int(sim["n_trajectories"]),
        seed=int(sim["seed"]),
        output_stride=sim["output_stride"] and int(sim["output_stride"]),
        **kwargs,
    )
    stats = sde.simulate_ensemble(dn, cfg)
    # streamed a block of rows at a time: a failed write leaves a partial file
    if args.output is None:
        stats.write_csv(sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            stats.write_csv(fh)
    return EXIT_OK


def _cmd_poles(args, config) -> int:
    from . import spectral

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
    from . import spectral

    params = _system_params(args, config)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not np.isfinite(args.t_max):
        raise ValueError(f"--t-max must be finite, got {args.t_max}")
    t = np.linspace(-args.t_max, args.t_max, args.points)
    # the leading-order table only on request: where the residues refuse, it is outside its regime
    if args.method == "small-lambda":
        table = spectral.correlators_small_lambda(params, t)
    else:
        table = spectral.correlators_exact(params, t)

    lines = ["t,pair,value,method"]
    for name in table.PAIR_COLUMNS:
        column = getattr(table, name)
        for tk, value in zip(table.times, column):
            lines.append(f"{tk:.17g},{name},{value:.17g},{table.method}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_cq(args, config) -> int:
    from . import cq

    values = _merged(_DEFAULT_CQ, config, args)
    hybrid = cq.CQParams(
        classical_mass=float(values["mC"]),
        classical_spring=float(values["kC"]),
        damping=float(values["alpha"]),
        diffusion=float(values["D"]),
        quantum_mass=float(values["mQ"]),
        quantum_spring=float(values["kQ"]),
        coupling=float(values["lambda"]),
    )
    occ = cq.occupation_number(hybrid)
    report = cq.thermal_limit(hybrid)
    _emit(
        _json_dump(
            {
                "T_C": occ.temperature,
                "N": occ.n,
                "N_exact": cq.occupation_exact(hybrid),
                "equal_time": report.equal_time,
                "gibbs_deviation": report.max_deviation_gibbs,
            }
        ),
        args.output,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, config) -> int:
    from . import verify

    params = _system_params(args, config)
    checks = verify.run_checks(
        params,
        seed=int(_merged({"seed": 0}, config, args)["seed"]),
        mc_trajectories=args.mc_trajectories,
        tol_scale=args.tol_scale,
    )
    report = {
        "parameters": params.to_dict(),
        "checks": [check._asdict() for check in checks],
        # a skipped row neither passes nor fails
        "passed": all(check.passed for check in checks if check.skipped is None),
    }
    for name, value, bound, passed, skipped in checks:
        if skipped is not None:
            sys.stderr.write(f"[SKIP] {name}: {skipped}\n")
        else:
            sys.stderr.write(
                f"[{'PASS' if passed else 'FAIL'}] {name}: {value:.6g} (bound {bound:.6g})\n"
            )
    _emit(_json_dump(report), args.output)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


# flag types other than float; "initial" is an untyped string (a config may give an object)
_FLAG_TYPES = {"n_trajectories": int, "seed": int, "output_stride": int, "initial": None}
_FLAG_HELP = {"initial": "'zero' or 'stationary' (JSON config allows state/mean+cov)"}


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """One ``--<key>`` flag (underscores as dashes) per key of ``defaults``; unset is None."""
    for key in defaults:
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=_FLAG_TYPES.get(key, float),
            default=None, help=_FLAG_HELP.get(key),
        )


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
    _add_flags(p, _DEFAULT_PARAMS)

    p = sub.add_parser("steadystate", help="stationary covariances by both routes", parents=[common])
    _add_flags(p, _DEFAULT_PARAMS)

    p = sub.add_parser("simulate", help="ensemble statistics CSV", parents=[common])
    _add_flags(p, _DEFAULT_PARAMS)
    _add_flags(p, _DEFAULT_SIM)

    p = sub.add_parser("poles", help="independent pole pair as JSON", parents=[common])
    _add_flags(p, _DEFAULT_PARAMS)
    p.add_argument("--perturbative", type=int, choices=(1, 2), default=None)

    p = sub.add_parser("correlators", help="two-point functions as CSV", parents=[common])
    _add_flags(p, _DEFAULT_PARAMS)
    p.add_argument("--t-max", dest="t_max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--method", choices=("exact", "small-lambda"), default="exact")

    p = sub.add_parser("cq", help="hybrid layer summary as JSON", parents=[common])
    _add_flags(p, _DEFAULT_CQ)

    p = sub.add_parser("verify", help="run the full cross-check suite", parents=[common])
    _add_flags(p, _DEFAULT_PARAMS)
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
    except (HybridOscError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so it goes first
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except BrokenPipeError:  # an OSError subclass: the reader went away
        return EXIT_OK
    except (OSError, ValueError, TypeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:  # the request's size is the rejected input
        sys.stderr.write(f"config error: request does not fit in memory: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
