"""Acceptance gate: every criterion prints one pass/fail line with its measurements.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criterion integrates 10^4 trajectories over 10^5 steps, one move per output
gap, in well under a second; every criterion takes seconds at most.
"""

import time

import numpy as np
import pytest

from hybridosc import (
    SimConfig,
    SystemParams,
    assemble_drift_noise,
    closed_form_covariances,
    correlators_exact,
    correlators_small_lambda,
    energy_drift,
    exact_equal_time,
    find_poles,
    hybrid_correlators,
    hybrid_equal_time,
    map_to_classical,
    mutual_information,
    occupation_number,
    perturbative_poles,
    routh_hurwitz,
    sigma_ratio,
    simulate_ensemble,
    solve_lyapunov,
    thermal_limit,
)
from hybridosc import sde
from hybridosc.cq import EQUAL_TIME_SLOTS, CQParams
from hybridosc.steadystate import evolve_covariances_batch

from conftest import (
    draw_stable,
    gibbs_covariance_oracle,
    make_params,
    quadrature_inverse_transform,
)

FIG1 = SystemParams.natural_units(0.05)  # m* = 1, omega* = gamma1 = 1, lambda = 0.05, D1 = D2 = 1


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[ACCEPTANCE {number:2d}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 1. stability theorem


def test_criterion_1_stability_certificate():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    n_draws = 10_000
    disagreements = 0
    for _ in range(n_draws):
        rep = routh_hurwitz(draw_stable(rng, log_uniform=True))
        if rep.routh_hurwitz_pass != (rep.min_real_part > 1e-12):
            if abs(rep.min_real_part) >= 1e-9:
                disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 10.0
    report(1, ok, f"{n_draws} log-uniform draws, {disagreements} disagreements outside 1e-9 band", elapsed)
    assert disagreements == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Lyapunov triangle


def test_criterion_2_lyapunov_triangle():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    n_draws = 1000
    worst_closed = 0.0
    thetas, qs, targets, horizons = [], [], [], []
    for _ in range(n_draws):
        params = make_params(
            rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25),
            rng.uniform(0.1, 2.0), rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25),
            rng.uniform(0.1, 2.0), rng.uniform(0.6, 1.5),
        )
        dn = assemble_drift_noise(params)
        solved = solve_lyapunov(dn)
        closed = closed_form_covariances(params)
        scale = np.max(np.abs(solved))
        worst_closed = max(worst_closed, np.max(np.abs(closed - solved)) / scale)
        eigs = np.linalg.eigvals(dn.theta)
        thetas.append(dn.theta)
        qs.append(dn.diffusion_matrix)
        targets.append(solved)
        horizons.append(12.0 / float(np.min(eigs.real)))
    finals = evolve_covariances_batch(np.array(thetas), np.array(qs), np.array(horizons))
    worst_evolved = max(
        float(np.max(np.abs(final - target)) / np.max(np.abs(target)))
        for final, target in zip(finals, np.array(targets))
    )
    elapsed = time.monotonic() - start
    ok = worst_closed <= 1e-8 and worst_evolved <= 1e-8 and elapsed < 10.0
    report(
        2, ok,
        f"{n_draws} draws: closed-vs-solve {worst_closed:.2e}, flow-vs-solve {worst_evolved:.2e} "
        "(tol 1e-8)",
        elapsed,
    )
    assert worst_closed <= 1e-8
    assert worst_evolved <= 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3 & 10a. Monte Carlo against the stationary solution (shared run)


@pytest.fixture(scope="module")
def monte_carlo_run():
    dn = assemble_drift_noise(FIG1)
    target = solve_lyapunov(dn)
    cfg = SimConfig(
        dt=5e-4, t_final=50.0, n_trajectories=10_000, seed=31415,
        initial_mean=np.zeros(4), initial_cov=target, output_stride=5000,
    )
    start = time.monotonic()
    stats = simulate_ensemble(dn, cfg)
    return stats, cfg, target, time.monotonic() - start


def test_criterion_3_monte_carlo(monte_carlo_run):
    # the ensemble follows the scheme's own law, whose final mean and
    # covariance sde.scheme_moments gives; sde.moment_screen's -log10 p of the
    # sample mean and covariance against it, bound 3 each, is a 1e-3
    # false-alarm level per screen.  The scheme's covariance stays within the
    # step's stated bias, (gamma1 dt)^2 / 12 relative, of the stationary
    # solution, whose Var(p1) is 1 in natural units
    stats, cfg, target, elapsed = monte_carlo_run
    dn = assemble_drift_noise(FIG1)
    mean, scheme = sde.scheme_moments(dn, cfg.dt, cfg.n_steps, cfg.initial_mean, target)
    mean_screen, cov_screen = sde.moment_screen(stats, -1, mean, scheme)
    bias = float(np.max(np.abs(scheme - target)) / np.max(np.abs(target)))
    step_bias = (FIG1.osc1.damping_rate * cfg.dt) ** 2 / 12
    ok = max(mean_screen, cov_screen) < 3.0 and bias <= step_bias and elapsed < 300.0
    report(
        3, ok,
        f"10^4 trajectories to t=50: -log10 p of the mean {mean_screen:.2f} and covariance "
        f"{cov_screen:.2f} against the scheme's law (bound 3 each); scheme vs Lyapunov "
        f"{bias:.2g} relative (step bias {step_bias:.2g}, stationary start)",
        elapsed,
    )
    assert mean_screen < 3.0
    assert cov_screen < 3.0
    assert bias <= step_bias
    assert target[1, 1] == pytest.approx(1.0, rel=1e-12)
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. spectral consistency


def test_criterion_4_spectral_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    n_draws = 100
    worst_equal_time = 0.0
    worst_quadrature = 0.0
    t_probe = np.linspace(-20.0, 20.0, 9)
    for k in range(n_draws):
        params = make_params(
            rng.uniform(0.75, 1.3), rng.uniform(0.75, 1.3), rng.uniform(0.5, 1.5),
            rng.uniform(0.2, 2.0), rng.uniform(0.75, 1.3), rng.uniform(0.75, 1.3),
            rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.5),
        )
        cov = solve_lyapunov(assemble_drift_noise(params))
        eq = exact_equal_time(params)
        scale = np.max(np.abs(cov))
        worst_equal_time = max(
            worst_equal_time,
            abs(eq["g11_0"] - cov[0, 0]) / scale,
            abs(eq["g22_0"] - cov[2, 2]) / scale,
            abs(eq["g12_0"] - cov[0, 2]) / scale,
            abs(eq["q1p2"] - cov[0, 3]) / scale,
            abs(eq["q2p1"] - cov[2, 1]) / scale,
        )
        if k < 40:  # quadrature oracle on a subset, it dominates the runtime
            table = correlators_exact(params, t_probe)
            for name in ("g11", "g22", "g12", "response_11", "response_22", "response_21"):
                numeric = quadrature_inverse_transform(params, name, t_probe)
                if name.startswith("response"):
                    numeric = numeric.copy()
                    numeric[t_probe >= 0] = 0.0
                exact = getattr(table, name)
                amp = max(float(np.max(np.abs(exact))), 1e-12)
                worst_quadrature = max(
                    worst_quadrature, float(np.max(np.abs(numeric.real - exact))) / amp
                )
    elapsed = time.monotonic() - start
    ok = worst_equal_time <= 1e-8 and worst_quadrature <= 1e-6 and elapsed < 60.0
    report(
        4, ok,
        f"{n_draws} draws: equal-time vs Lyapunov {worst_equal_time:.2e} (tol 1e-8), "
        f"quadrature vs residues {worst_quadrature:.2e} (tol 1e-6, |t|<=20)",
        elapsed,
    )
    assert worst_equal_time <= 1e-8
    assert worst_quadrature <= 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. perturbation order


def test_criterion_5_perturbation_order():
    start = time.monotonic()
    lams = np.geomspace(0.01, 0.1, 6)
    errors = []
    for lam in lams:
        params = SystemParams.natural_units(float(lam))
        exact = find_poles(params)
        pert = perturbative_poles(params, order=2)
        errors.append(abs(exact.omega1 - pert.omega1) + abs(exact.omega2 - pert.omega2))
    slope = float(np.polyfit(np.log(lams), np.log(errors), 1)[0])

    params = SystemParams.natural_units(0.05)
    d_gamma2 = perturbative_poles(params, order=2).omega2.imag
    exact_shift = find_poles(params).omega2.imag
    shift_err = abs(d_gamma2 - exact_shift)
    elapsed = time.monotonic() - start
    ok = (
        abs(slope - 3.0) <= 0.2
        and abs(d_gamma2 - 1.25e-3) <= 1e-15
        and shift_err < 0.05**3
    )
    report(
        5, ok,
        f"error slope {slope:.3f} (3.0 +- 0.2); identical-case damping shift "
        f"{d_gamma2:.6g} vs exact {exact_shift:.6g} (diff {shift_err:.2e} < lam^3)",
        elapsed,
    )
    assert abs(slope - 3.0) <= 0.2
    assert d_gamma2 == pytest.approx(1.25e-3, abs=1e-15)
    assert shift_err < 0.05**3
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 6. small-coupling correlators


def test_criterion_6_small_lambda():
    start = time.monotonic()
    params = SystemParams.natural_units(0.01)
    predicted = correlators_small_lambda(params, np.array([0.0])).g22[0]
    assert predicted == pytest.approx(1.0 / (2 * 0.01**2))  # D2 gamma1 / (2 lam^2)
    exact = correlators_exact(params, np.array([0.0])).g22[0]
    rel = abs(predicted - exact) / abs(exact)

    ratio = sigma_ratio(params)
    zero = correlators_small_lambda(params, np.array([0.0]))
    consistency = abs(ratio - np.sqrt(zero.g11[0] / zero.g22[0]))
    elapsed = time.monotonic() - start
    ok = rel <= 0.05 and consistency <= 1e-12
    report(
        6, ok,
        f"g22(0) small-lambda vs exact: {rel:.3%} (tol 5%); "
        f"sigma-ratio consistency {consistency:.2e} (tol 1e-12)",
        elapsed,
    )
    assert rel <= 0.05
    assert consistency <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 7. CQ layer


def test_criterion_7_cq_layer():
    start = time.monotonic()

    def cq_at(t_c, coupling=0.05):
        return CQParams(
            classical_mass=1.0, classical_spring=1.0, damping=1.0,
            diffusion=2.0 * t_c, quantum_mass=1.0, quantum_spring=1.0,
            coupling=coupling,
        )

    n_critical = occupation_number(cq_at(0.5)).n
    sweep = [occupation_number(cq_at(t)).n for t in np.geomspace(0.02, 50.0, 120)]
    floor_ok = min(sweep) >= 0.5 - 1e-12

    rng = np.random.default_rng(707)
    worst_map = 0.0
    for _ in range(25):
        cq = CQParams(
            classical_mass=rng.uniform(0.5, 2), classical_spring=rng.uniform(0.5, 2),
            damping=rng.uniform(0.3, 2), diffusion=rng.uniform(0.3, 2),
            quantum_mass=rng.uniform(0.5, 2), quantum_spring=rng.uniform(0.5, 2),
            coupling=rng.uniform(0.05, 1.0),
        )
        moments = hybrid_equal_time(cq)
        cov = solve_lyapunov(assemble_drift_noise(map_to_classical(cq)))
        scale = np.max(np.abs(cov))
        worst_map = max(
            worst_map,
            max(abs(moments[k] - cov[idx]) for k, idx in EQUAL_TIME_SLOTS.items()) / scale,
        )

    tiny = cq_at(0.5, coupling=1e-8)
    table = hybrid_correlators(tiny, np.linspace(-5, 5, 11))
    finite = bool(
        np.isfinite(table.classical).all()
        and np.isfinite(table.keldysh).all()
        and np.isfinite(table.retarded.imag).all()
    )
    elapsed = time.monotonic() - start
    ok = n_critical == 0.5 and floor_ok and worst_map <= 1e-9 and finite
    report(
        7, ok,
        f"N(T_C=omega/2) = {n_critical}; sweep floor {min(sweep):.6f} >= 0.5; "
        f"equal-time vs Lyapunov {worst_map:.2e} (tol 1e-9); printed forms finite at lam=1e-8: {finite}",
        elapsed,
    )
    assert n_critical == 0.5
    assert floor_ok
    assert worst_map <= 1e-9
    assert finite
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 8. thermal limit


def test_criterion_8_thermal_limit():
    start = time.monotonic()
    diffusions = [10.0, 100.0, 1000.0, 10000.0]
    deviations = []
    for d in diffusions:
        cq = CQParams(
            classical_mass=1.0, classical_spring=1.0, damping=1.0, diffusion=d,
            quantum_mass=1.0, quantum_spring=1.0, coupling=0.1,
        )
        mapped = map_to_classical(cq)
        moments = hybrid_equal_time(cq)
        gibbs = gibbs_covariance_oracle(mapped, cq.effective_temperature)
        # slot (i, j) is normalised by sqrt(G_ii G_jj)
        dev = max(
            abs(moments[k] - gibbs[i, j]) / np.sqrt(gibbs[i, i] * gibbs[j, j])
            for k, (i, j) in EQUAL_TIME_SLOTS.items()
        )
        deviations.append(float(dev))
        # the library's own report must agree with the independent oracle
        assert thermal_limit(cq).max_deviation_gibbs == pytest.approx(dev, rel=1e-9)
    monotone = all(np.diff(deviations) < 0)
    power = float(np.polyfit(np.log(diffusions), np.log(deviations), 1)[0])
    elapsed = time.monotonic() - start
    ok = monotone and deviations[-1] < 1e-2
    report(
        8, ok,
        f"Gibbs deviation over D={diffusions}: {['%.2e' % d for d in deviations]}, "
        f"monotone={monotone}, final {deviations[-1]:.2e} < 1e-2, decay power {power:.2f}",
        elapsed,
    )
    assert monotone
    assert deviations[-1] < 1e-2
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 9. mutual information


def test_criterion_9_mutual_information():
    start = time.monotonic()
    params = FIG1
    zeros_t = (np.pi / 2 + np.pi * np.arange(6))  # omega* = 1
    info_at_zeros = np.abs(mutual_information(params, (2, 2), zeros_t))
    worst_zero = float(np.max(info_at_zeros))

    g1 = params.osc1.damping_rate
    t = 16.0 / g1 + np.linspace(0.0, 4 * np.pi, 240)
    info = mutual_information(params, (1, 1), t)
    envelope = -0.5 * np.log1p(-np.cos(t) ** 2 / (1 + 1.0) ** 2)
    mask = envelope > 0.02 * envelope.max()
    worst_env = float(np.max(np.abs(info[mask] - envelope[mask]) / envelope[mask]))
    elapsed = time.monotonic() - start
    ok = worst_zero <= 1e-12 and worst_env < 0.01
    report(
        9, ok,
        f"I22 at quarter periods <= {worst_zero:.2e} (tol 1e-12); "
        f"late-time I11 envelope deviation {worst_env:.3%} (tol 1%, t > 10/gamma1)",
        elapsed,
    )
    assert worst_zero <= 1e-12
    assert worst_env < 0.01
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 10. energy balance


def test_criterion_10_energy_balance(monte_carlo_run):
    stats = monte_carlo_run[0]
    start = time.monotonic()
    drift = energy_drift(FIG1, stats.cov[-1])
    o1 = FIG1.osc1
    drift_band = 3.0 * (o1.damping / o1.mass**2) * stats.cov_stderr[-1][1, 1]
    drift_ok = abs(drift) <= drift_band

    # undamped, uncoupled, driven oscillator 2: mean energy grows linearly
    undamped = make_params(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
    dn = assemble_drift_noise(undamped)
    cfg = SimConfig(dt=1e-3, t_final=20.0, n_trajectories=4000, seed=271828)
    run = simulate_ensemble(dn, cfg)
    mid = len(run.times) // 2
    span = run.times[-1] - run.times[mid]
    slope = (run.energy_mean[-1] - run.energy_mean[mid]) / span
    # the two means come from the same trajectories: the slope's standard error is that
    # of each trajectory's energy gain from t_mid to t_end, pooled over the run's chunks
    plan = sde._plan(dn, cfg)
    ends = (mid, len(plan.steps) - 1)
    chunks = [
        range(lo, min(lo + sde.CHUNK_TRAJECTORIES, cfg.n_trajectories))
        for lo in range(0, cfg.n_trajectories, sde.CHUNK_TRAJECTORIES)
    ]
    gains = []
    with sde._noise(cfg.seed, chunks, plan) as fills:
        for chunk in chunks:
            energy = {}
            for k0, group in sde._steps(cfg, chunk, plan, fills):
                for k in ends:
                    if k0 <= k < k0 + len(group):
                        energy[k] = sde.total_energy(undamped, group[k - k0])
            gains.append(energy[ends[1]] - energy[ends[0]])
    gains = np.concatenate(gains)
    assert np.mean(gains) == pytest.approx(slope * span, rel=1e-9)
    slope_se = np.std(gains, ddof=1) / np.sqrt(len(gains)) / span
    expected = undamped.osc2.diffusion / (2 * undamped.osc2.mass)
    slope_ok = abs(slope - expected) <= 3.0 * slope_se
    elapsed = time.monotonic() - start
    ok = drift_ok and slope_ok
    report(
        10, ok,
        f"stationary energy drift {drift:+.4f} within 3 SE band {drift_band:.4f}; "
        f"undamped growth slope {slope:.4f} vs D2/(2 m2) = {expected} "
        f"(3 SE = {3 * slope_se:.4f})",
        elapsed,
    )
    assert drift_ok
    assert slope_ok
    assert elapsed < 60.0
