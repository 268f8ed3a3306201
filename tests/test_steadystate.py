import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

from hybridosc import (
    CouplingZero,
    NotStable,
    SingularSystem,
    SystemParams,
    assemble_drift_noise,
    closed_form_covariances,
    evolve_moments,
    find_poles,
    lyapunov_residual,
    routh_hurwitz,
    solve_lyapunov,
)

from conftest import make_params, stable_params


def test_single_damped_oscillator_block():
    # decoupled, noiseless second oscillator: the damped block must reproduce
    # the classic (D1/2 gamma1) diag(1/(m1 k1), 1) stationary covariance
    params = make_params(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    dn = assemble_drift_noise(params)
    theta = dn.theta[:2, :2]
    q = dn.diffusion_matrix[:2, :2]
    cov = solve_continuous_lyapunov(theta, q)  # independent route for the 2x2 block
    np.testing.assert_allclose(cov, np.diag([0.5, 0.5]), atol=1e-12)


def test_momentum_variance_reference_value():
    params = SystemParams.natural_units(0.05)
    cov = solve_lyapunov(assemble_drift_noise(params))
    assert cov[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_closed_form_matches_solver_at_reference_point():
    params = SystemParams.natural_units(0.05)
    solved = solve_lyapunov(assemble_drift_noise(params))
    closed = closed_form_covariances(params)
    scale = np.max(np.abs(solved))
    assert np.max(np.abs(solved - closed)) <= 1e-9 * scale


@settings(max_examples=150, deadline=None)
@given(params=stable_params)
def test_closed_form_matches_solver(params):
    dn = assemble_drift_noise(params)
    solved = solve_lyapunov(dn)
    closed = closed_form_covariances(params)
    scale = max(np.max(np.abs(solved)), 1e-30)
    assert np.max(np.abs(solved - closed)) <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(params=stable_params)
def test_solver_agrees_with_scipy(params):
    dn = assemble_drift_noise(params)
    ours = solve_lyapunov(dn)
    theirs = solve_continuous_lyapunov(dn.theta, dn.diffusion_matrix)
    scale = max(np.max(np.abs(theirs)), 1e-30)
    assert np.max(np.abs(ours - theirs)) <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(params=stable_params)
def test_residual_and_psd(params):
    dn = assemble_drift_noise(params)
    cov = solve_lyapunov(dn)
    q = dn.diffusion_matrix
    assert lyapunov_residual(dn.theta, cov, q) <= 1e-10 * max(np.max(np.abs(q)), 1e-30)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10 * max(1.0, np.max(np.abs(cov)))


def test_zero_noise_gives_zero_covariance():
    params = make_params(1.0, 1.0, 0.7, 0.0, 1.0, 1.0, 0.0, 0.4)
    cov = solve_lyapunov(assemble_drift_noise(params))
    np.testing.assert_allclose(cov, 0.0, atol=1e-15)


def test_momentum_coupling_entries_scale_with_d2():
    params = make_params(1.4, 1.0, 0.8, 1.0, 0.7, 1.2, 0.0, 0.5)
    cov = closed_form_covariances(params)
    assert cov[1, 3] == 0.0  # p1 p2
    assert cov[0, 3] == 0.0  # q1 p2
    assert cov[2, 1] == 0.0  # q2 p1


def test_cross_entries_reference_values():
    params = SystemParams.natural_units(0.05)
    cov = closed_form_covariances(params)
    assert cov[0, 3] == pytest.approx(-1.0 / (2 * 0.05))
    assert cov[2, 1] == pytest.approx(+1.0 / (2 * 0.05))
    assert cov[0, 1] == 0.0 and cov[2, 3] == 0.0


def test_position_cross_covariance_with_d2_zero():
    # with D2 = 0 only the first diffusion source contributes and the printed
    # expression collapses to lam D1 / (2 g1 m1 m2 (w2^2 lam/m1 + w1^2(w2^2+lam/m2)))
    m1, m2, lam, d1 = 1.3, 0.8, 0.25, 1.7
    params = make_params(m1, 1.1, 0.9, d1, m2, 0.7, 0.0, lam)
    cov = closed_form_covariances(params)
    w1s, w2s = 1.1 / m1, 0.7 / m2
    den = w2s * lam / m1 + w1s * (w2s + lam / m2)
    g1 = 0.9 / m1
    expected = (lam / m1) * d1 / (2 * g1 * m1 * m2 * den)
    assert cov[0, 2] == pytest.approx(expected, rel=1e-12)


def test_identical_oscillators_cross_covariance_keeps_both_noises():
    # at equal masses and frequencies E[q1 q2] is proportional to D1 + D2;
    # the second noise source does NOT drop out of the printed expression
    base = dict(m1=1.0, k1=1.0, alpha=1.0, m2=1.0, k2=1.0, lam=0.3)
    both = closed_form_covariances(make_params(base["m1"], base["k1"], base["alpha"], 1.0,
                                               base["m2"], base["k2"], 1.0, base["lam"]))
    d1_only = closed_form_covariances(make_params(base["m1"], base["k1"], base["alpha"], 2.0,
                                                  base["m2"], base["k2"], 0.0, base["lam"]))
    assert both[0, 2] == pytest.approx(d1_only[0, 2], rel=1e-12)


def test_coupling_zero_raises():
    with pytest.raises(CouplingZero):
        closed_form_covariances(make_params(1, 1, 1, 1, 1, 1, 1, 0.0))


def test_unstable_system_raises():
    with pytest.raises(NotStable):
        solve_lyapunov(assemble_drift_noise(make_params(1, 1, 0.0, 1, 1, 1, 1, 0.5)))
    with pytest.raises(NotStable):
        closed_form_covariances(make_params(1, 1, 0.0, 1, 1, 1, 1, 0.5))


_edge_params = st.builds(
    make_params,
    m1=st.floats(0.3, 3.0),
    k1=st.sampled_from([0.0]) | st.floats(0.3, 3.0),
    alpha=st.sampled_from([0.0]) | st.floats(0.05, 2.5),
    d1=st.floats(0.0, 2.0),
    m2=st.floats(0.3, 3.0),
    k2=st.sampled_from([0.0]) | st.floats(0.3, 3.0),
    d2=st.floats(0.0, 2.0),
    # log-uniform down to where (lam/m2)^2 underflows to 0
    lam=st.floats(-170.0, 0.5).map(lambda e: 10.0**e),
)


def _refuses_not_stable(route) -> bool:
    try:
        route()
    except NotStable:
        return True
    except (SingularSystem, ArithmeticError):
        # the certificate passed but the float range gave out (lam near 1e-160)
        pass
    return False


@settings(max_examples=300, deadline=None)
@example(params=make_params(1, 1, 1, 1, 1, 1, 1, 1e-170))
@given(params=_edge_params)
def test_certificate_alone_decides_existence(params):
    refused = not routh_hurwitz(params).routh_hurwitz_pass
    assert _refuses_not_stable(lambda: closed_form_covariances(params)) == refused
    assert _refuses_not_stable(lambda: solve_lyapunov(assemble_drift_noise(params))) == refused


def test_nonfinite_solve_is_singular():
    # the solve overflows: refused before any overflow warning reaches the caller
    k1_zero = make_params(1, 0, 1, 1, 1.5, 1, 1, 9e-155)
    for params in (k1_zero, make_params(1, 1, 1, 1, 1, 1, 1, 1e-160)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem):
                solve_lyapunov(assemble_drift_noise(params))


# stationary variances near 3e6: the residual is 9e-10 against |Q| = 1.34
LARGE_VARIANCE = make_params(
    2.7096276413765787, 2.473316485833507, 0.7578931292223429, 1.22,
    0.4493127682945618, 2.815011130400565, 1.34, 0.005656065624521977,
)


def test_residual_bound_scales_with_the_solution():
    cov = solve_lyapunov(assemble_drift_noise(LARGE_VARIANCE))
    closed = closed_form_covariances(LARGE_VARIANCE)
    assert np.max(np.abs(cov - closed)) <= 1e-12 * np.max(np.abs(cov))


def test_subnormal_noise_is_solved():
    # residual and bound both underflow to the smallest subnormal
    params = make_params(1.0, 1.0, 1.0, 5e-324, 1.0, 1.0, 0.0, 1.0)
    assert np.max(np.abs(solve_lyapunov(assemble_drift_noise(params)))) <= 1e-320


def test_ill_conditioned_solve_is_refused():
    # at coupling 3e-7 the backward error is 1e-18, yet the solve misses the
    # closed form by 3.5e-4 relative: the condition number (~1e15) says so
    params = make_params(2.516, 2.615, 1.232, 1.571, 0.592, 1.809, 1.714, 3e-7)
    closed_form_covariances(params)
    with pytest.raises(SingularSystem, match="Lyapunov solve not accurate"):
        solve_lyapunov(assemble_drift_noise(params))
    # a well-conditioned system at a smaller coupling is solved to rounding
    tiny = SystemParams.natural_units(1e-7)
    cov = solve_lyapunov(assemble_drift_noise(tiny))
    assert np.max(np.abs(cov - closed_form_covariances(tiny))) <= 1e-12 * np.max(np.abs(cov))


@pytest.mark.parametrize("params", [SystemParams.natural_units(0.05), LARGE_VARIANCE])
def test_residual_guard_refuses_a_perturbed_solve(params, monkeypatch):
    # offset the symmetric pair C[0, 2] = C[2, 0] by 1e-6 max|C| (vec indices 2 and 8)
    solve = np.linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        step = 1e-6 * np.max(np.abs(x))
        x[[2, 8]] += step
        return x

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(SingularSystem, match="Lyapunov solve not accurate"):
        solve_lyapunov(assemble_drift_noise(params))


def test_residual_guard_refuses_an_overflowing_residual(monkeypatch):
    # C[0, 1] = C[1, 0] = 8.7e307 is finite, but both the residual and the
    # bound's 2 |theta| |C| overflow to inf; inf <= inf must not pass
    solve = np.linalg.solve

    def huge(a, b):
        x = solve(a, b)
        x[[1, 4]] = 8.7e307
        return x

    monkeypatch.setattr(np.linalg, "solve", huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="residual inf"):
            solve_lyapunov(assemble_drift_noise(SystemParams.natural_units(0.05)))


@pytest.mark.parametrize(
    "params",
    [make_params(1, 1, 1, 1, 0.3, 1, 1, 1e-162), SystemParams.natural_units(1e-158)],
    ids=["coupling_squared_zero", "infinite_entries"],
)
def test_closed_form_overflow_names_the_coupling(params):
    with pytest.raises(OverflowError, match=f"coupling {params.coupling:.3g}"):
        closed_form_covariances(params)


def test_evolve_moments_stationary_fixed_point():
    params = SystemParams.natural_units(0.4)
    dn = assemble_drift_noise(params)
    cov = solve_lyapunov(dn)
    t_grid = np.linspace(0.0, 100.0, 6)
    means, covs = evolve_moments(dn, cov, np.zeros(4), t_grid)
    assert np.max(np.abs(covs[-1] - cov)) <= 1e-9 * np.max(np.abs(cov))
    assert np.max(np.abs(means)) <= 1e-12


def test_evolve_moments_converges_from_zero():
    params = SystemParams.natural_units(0.5)
    dn = assemble_drift_noise(params)
    target = solve_lyapunov(dn)
    min_rate = float(np.min(np.linalg.eigvals(dn.theta).real))
    t_end = 20.0 / min_rate
    _, covs = evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, t_end]))
    assert np.max(np.abs(covs[-1] - target)) <= 1e-8 * np.max(np.abs(target))


def test_evolve_moments_decay_rate_matches_slowest_mode():
    # deviation from the fixed point dies at twice the slowest eigenvalue rate;
    # sample stroboscopically at the slow pole's period to suppress the
    # oscillating component of the envelope
    params = SystemParams.natural_units(0.05)
    dn = assemble_drift_noise(params)
    target = solve_lyapunov(dn)
    poles = find_poles(params)
    rate = poles.omega2.imag  # slowest mode: min Re theta
    period = np.pi / poles.omega2.real
    n_periods = max(1, int(round(150.0 / period)))
    t_grid = 1000.0 + np.arange(5) * n_periods * period
    t_grid = np.concatenate([[0.0], t_grid])
    _, covs = evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), t_grid, max_step=0.4)
    dev = np.log(np.abs(covs[1:, 2, 2] - target[2, 2]))
    slope = np.polyfit(t_grid[1:], dev, 1)[0]
    assert slope == pytest.approx(-2.0 * rate, rel=0.05)


def test_evolve_moments_mean_decay():
    params = SystemParams.natural_units(0.5)
    dn = assemble_drift_noise(params)
    mean0 = np.array([1.0, 0.0, -0.5, 0.2])
    means, _ = evolve_moments(dn, np.zeros((4, 4)), mean0, np.array([0.0, 1.0]), max_step=1e-3)
    from scipy.linalg import expm

    expected = expm(-dn.theta * 1.0) @ mean0
    np.testing.assert_allclose(means[-1], expected, atol=1e-10)


def test_momentum_variance_identity_all_routes():
    params = make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45)
    o1, o2 = params.osc1, params.osc2
    expected = (o1.diffusion + o1.mass / o2.mass * o2.diffusion) / (2 * o1.damping_rate)
    assert closed_form_covariances(params)[1, 1] == pytest.approx(expected, rel=1e-12)
    assert solve_lyapunov(assemble_drift_noise(params))[1, 1] == pytest.approx(expected, rel=1e-10)


def test_batch_of_one_equals_evolve_moments_bitwise():
    # both routes step the covariance with the same RK4 kernel
    from hybridosc.steadystate import evolve_covariances_batch

    params = make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45)
    dn = assemble_drift_noise(params)
    cov0 = np.diag([0.3, 0.1, 0.2, 0.4])
    t_end, max_step = 7.3, 0.05
    _, covs = evolve_moments(dn, cov0, np.zeros(4), np.array([0.0, t_end]), max_step=max_step)
    n_steps = int(np.ceil(t_end / max_step))
    batch = evolve_covariances_batch(
        dn.theta[None], dn.diffusion_matrix[None], np.array([t_end]), n_steps, cov0[None]
    )
    assert np.array_equal(batch[0], covs[-1])


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 64, 1000])
def test_flow_composes_explicit_rk4_steps(n_steps):
    # the flow composes steps by the binary digits of n_steps; the reference takes them one by one
    dn = assemble_drift_noise(make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45))
    theta, q = dn.theta, dn.diffusion_matrix
    h = 1 / 32  # a power of two, so the span n_steps * h splits into exactly n_steps steps
    mean, cov = np.array([1.0, 0.0, -0.5, 0.2]), np.diag([0.3, 0.1, 0.2, 0.4])
    means, covs = evolve_moments(dn, cov, mean, np.array([0.0, n_steps * h]), max_step=h)

    def rk4(rhs, x):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    for _ in range(n_steps):
        mean = rk4(lambda m: -theta @ m, mean)
        cov = rk4(lambda c: -theta @ c - c @ theta.T + q, cov)
    assert np.max(np.abs(means[-1] - mean)) <= 1e-13 * np.max(np.abs(mean))
    assert np.max(np.abs(covs[-1] - cov)) <= 1e-13 * np.max(np.abs(cov))


@pytest.mark.parametrize("lam", [1e-3, 1e-4])
def test_evolve_moments_reaches_closed_form_at_tiny_coupling(lam):
    # relaxing takes ~lam^-2 steps; composing them keeps the run short and within the 1e-8 tolerance
    params = SystemParams.natural_units(lam)
    dn = assemble_drift_noise(params)
    t_relax = 15.0 / float(np.min(np.linalg.eigvals(dn.theta).real))
    _, covs = evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, t_relax]))
    target = closed_form_covariances(params)
    assert np.max(np.abs(covs[-1] - target)) <= 1e-8 * np.max(np.abs(target))


def test_solve_lyapunov_certificate_is_arithmetic_only(monkeypatch):
    params = make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45)
    dn = assemble_drift_noise(params)
    expected = solve_lyapunov(dn)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verdict must not need a spectrum")

    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(np, "roots", forbidden)
    assert np.array_equal(solve_lyapunov(dn), expected)
    with pytest.raises(NotStable):
        solve_lyapunov(assemble_drift_noise(make_params(1, 1, 1, 1, 1, 1, 1, 0.0)))
