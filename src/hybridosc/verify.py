"""The cross-check suite behind ``hybrid-osc verify``: each check reports the
disagreement of two independent routes to one quantity against a fixed bound.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import cq as cq_mod
from . import sde, spectral, stability, steadystate
from .errors import ClassificationFailure, OverdampedUnsupported
from .model import DriftNoise, SystemParams, assemble_drift_noise


class Check(NamedTuple):
    """One row of the report; ``passed`` is ``value <= bound * tol_scale``.

    A row whose route cannot apply to the system is skipped: ``skipped`` gives
    the reason, and ``value`` and ``passed`` are None, neither pass nor fail.
    """

    name: str
    value: float | None
    bound: float
    passed: bool | None
    skipped: str | None = None


def monte_carlo_rows(dn: DriftNoise, solved: np.ndarray, seed: int, n_trajectories: int):
    """Run an ensemble from the Lyapunov covariance ``solved``; return three rows'
    (name, value, bound).

    The ensemble follows the scheme's own law, whose mean and covariance
    at the end :func:`sde.scheme_moments` composes from the one-step pair alone.
    ``monte_carlo_mean`` and ``monte_carlo_cov`` are -log10 p of the final
    sample mean (chi-squared, 4 degrees of freedom) and sample covariance
    (chi-squared, 10) against that law (:func:`sde.moment_screen`); a bound of
    3 is a false-alarm level of 1e-3 each, which holds from about 200
    trajectories (:func:`run_checks` refuses fewer).
    ``scheme_bias_vs_lyapunov`` is deterministic: the scheme's covariance less
    ``solved``, entry by entry in standard errors at this trajectory count,
    sqrt((S_ii S_jj + S_ij^2) / (n - 1)) with S = ``solved``, worst entry
    against 1, so the step's bias stays within the screens' reach.
    """
    cfg = sde.SimConfig(
        dt=1e-3, t_final=5.0, n_trajectories=n_trajectories, seed=seed,
        initial_mean=np.zeros(4), initial_cov=solved,
    )
    stats = sde.simulate_ensemble(dn, cfg)
    mean, cov = sde.scheme_moments(dn, cfg.dt, cfg.n_steps, cfg.initial_mean, solved)
    mean_screen, cov_screen = sde.moment_screen(stats, -1, mean, cov)  # -log10 p each
    diag = np.diag(solved)
    se = np.sqrt((np.outer(diag, diag) + solved**2) / (n_trajectories - 1))
    return [
        ("monte_carlo_mean", mean_screen, 3.0),
        ("monte_carlo_cov", cov_screen, 3.0),
        ("scheme_bias_vs_lyapunov", np.max(np.abs(cov - solved) / se), 1.0),
    ]


def run_checks(
    params: SystemParams, seed: int, mc_trajectories: int, tol_scale: float
) -> list[Check]:
    """Run every check on ``params`` in a fixed order; ``seed`` drives the 25
    Green's-function frequencies and the Monte Carlo run of ``mc_trajectories``
    trajectories (at least 200, where the Monte Carlo rows' false-alarm level
    holds), and ``tol_scale`` multiplies every bound.  A row is skipped where its
    route cannot apply: the CQ rows at D1 = 0, where the configured system maps
    to no hybrid pair; the leading-order g22 and sigma ratio at D2 = 0, where
    that g22 is identically 0; and a row whose route refuses the system with
    ``OverdampedUnsupported`` (the small-coupling forms) or
    ``ClassificationFailure`` (:func:`spectral.find_poles`), with the refusal
    as the reason."""
    # below 200 trajectories the covariance screen's tail is heavier than its 1e-3 level
    if mc_trajectories < 200:
        raise ValueError(f"mc_trajectories must be >= 200, got {mc_trajectories}")
    if not 0 < tol_scale < np.inf:  # NaN fails every row, a negative scale passes zero bounds
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale}")
    rng = np.random.default_rng(seed)
    checks: list[Check] = []

    def add(name: str, value: float, bound: float):
        checks.append(Check(name, float(value), float(bound), bool(value <= bound * tol_scale)))

    def skip(name: str, bound: float, reason: str):
        checks.append(Check(name, None, float(bound), None, reason))

    def attempt(name: str, bound: float, refusal: type, route):
        """Add the row ``route()`` gives, or skip it where the route raises ``refusal``."""
        try:
            value = route()
        except refusal as exc:
            skip(name, bound, f"{type(exc).__name__}: {exc}")
        else:
            add(name, value, bound)

    # stability: the algebraic certificate against the dense spectrum it certifies, one eigensolve
    eigs, mismatch = stability.spectrum_mismatch(params)
    add("charpoly_vs_eigenvalues", mismatch, stability.SPECTRUM_TOL)
    min_real = float(np.min(eigs.real))
    # how far min Re eig lies on the side that the verdict rules out
    wrong_side = -min_real if stability._hurwitz_criteria(params)[1] else min_real
    add("certificate_vs_spectrum", max(wrong_side, 0.0), 1e-9)

    # Lyapunov triangle on the configured system
    dn = assemble_drift_noise(params)
    solved = steadystate.solve_lyapunov(dn)
    closed = steadystate.closed_form_covariances(params)
    scale = float(np.max(np.abs(solved)))
    add("closed_form_vs_lyapunov", np.max(np.abs(closed - solved)) / scale, 1e-8)
    t_relax = 15.0 / min_real
    _, covs = steadystate.evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, t_relax]))
    add("moment_flow_vs_lyapunov", np.max(np.abs(covs[-1] - solved)) / scale, 1e-8)

    # spectral: closed form vs numeric inversion, poles, equal-time match
    worst = 0.0
    for _ in range(25):
        w = rng.uniform(-4, 4)
        closed_g = spectral.greens(params, w).matrix
        inverted = np.linalg.inv(spectral.greens_inverse(params, w))
        worst = max(worst, float(np.max(np.abs(closed_g - inverted)) / np.max(np.abs(inverted))))
    add("greens_vs_numeric_inverse", worst, 1e-10)

    def reflection():
        poles = spectral.find_poles(params)
        coeffs = spectral.response_denominator_coefficients(params)
        conj_residual = np.max(np.abs(np.polyval(np.conj(coeffs), np.conj(poles.upper_roots))))
        return float(conj_residual) / max(1.0, abs(coeffs[0]))

    attempt("pole_reflection_structure", 1e-9, ClassificationFailure, reflection)

    eq = spectral.exact_equal_time(params)
    slots = {"g11_0": (0, 0), "g22_0": (2, 2), "g12_0": (0, 2), "q1p2": (0, 3), "q2p1": (2, 1)}
    residue_dev = max(abs(eq[k] - solved[idx]) for k, idx in slots.items())
    add("residue_equal_time_vs_lyapunov", residue_dev / scale, 1e-8)

    # perturbative pole error must shrink like the cube of the coupling
    lams = np.array([0.01, 0.02, 0.04])

    def cubic_scaling():
        errs = []
        for lam in lams:
            p_small = replace(params, coupling=lam)
            # first: it refuses the overdamped regime, where find_poles raises another error
            pert = spectral.perturbative_poles(p_small, order=2)
            exact = spectral.find_poles(p_small)
            errs.append(abs(exact.omega1 - pert.omega1) + abs(exact.omega2 - pert.omega2))
        slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
        return abs(slope - 3.0)

    attempt("perturbative_cubic_scaling", 0.2, OverdampedUnsupported, cubic_scaling)

    # small-coupling closed forms against the exact residue values
    p_small = replace(params, coupling=0.01)
    t_probe = np.linspace(0.0, 5.0 / max(params.osc1.damping_rate, 1e-3), 7)

    def g22():
        exact_tab = spectral.correlators_exact(p_small, t_probe)
        small_tab = spectral.correlators_small_lambda(p_small, t_probe)
        return np.max(np.abs(exact_tab.g22 - small_tab.g22)) / np.max(np.abs(exact_tab.g22))

    def sigma_ratio():
        small_eq = spectral.exact_equal_time(p_small)
        residue_ratio = np.sqrt(small_eq["g11_0"] / small_eq["g22_0"])
        return abs(spectral.sigma_ratio(p_small) - residue_ratio) / residue_ratio

    if params.osc2.diffusion == 0.0:
        reason = "no leading-order g22 at D2 = 0: it leaves out the D1 term and is identically 0"
        skip("small_lambda_g22", 0.05, reason)
        skip("sigma_ratio_vs_residue", 0.05, reason)
    else:
        attempt("small_lambda_g22", 0.05, OverdampedUnsupported, g22)
        attempt("sigma_ratio_vs_residue", 0.05, OverdampedUnsupported, sigma_ratio)

    # Monte Carlo against the scheme's own moments, stationary start
    for row in monte_carlo_rows(dn, solved, seed, mc_trajectories):
        add(*row)

    # CQ layer: the configured pair as a hybrid one, oscillator 2 the quantum oscillator
    cq_rows = ("hybrid_equal_time_vs_lyapunov", "occupation_exact_vs_lyapunov")
    o1, o2 = params.osc1, params.osc2
    if o1.diffusion == 0.0:
        for name in cq_rows:
            skip(name, 1e-9, "no CQ pair at D1 = 0: the trade-off 4 D1 D0 >= 1 cannot be met")
    else:
        pair = cq_mod.CQParams(
            classical_mass=o1.mass, classical_spring=o1.spring_constant, damping=o1.damping,
            diffusion=o1.diffusion, quantum_mass=o2.mass, quantum_spring=o2.spring_constant,
            coupling=params.coupling,
        )
        lyap = steadystate.solve_lyapunov(assemble_drift_noise(cq_mod.map_to_classical(pair)))
        hybrid_cov = cq_mod.hybrid_equal_time(pair)
        worst = max(abs(hybrid_cov[k] - lyap[idx]) for k, idx in cq_mod.EQUAL_TIME_SLOTS.items())
        add(cq_rows[0], worst / np.max(np.abs(lyap)), 1e-9)
        # nu, the symplectic eigenvalue of the Lyapunov (Q, P) block
        nu = np.sqrt(lyap[2, 2] * lyap[3, 3] - lyap[2, 3] ** 2)
        add(cq_rows[1], abs(cq_mod.occupation_exact(pair) + 0.5 - nu) / nu, 1e-9)

    return checks
