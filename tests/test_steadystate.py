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


@pytest.mark.parametrize("t_grid", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_evolve_moments_refuses_non_finite_times(t_grid):
    dn = assemble_drift_noise(SystemParams.natural_units(0.05))
    with pytest.raises(ValueError, match="finite"):
        evolve_moments(dn, np.eye(4), np.zeros(4), np.array(t_grid))


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
    _, covs = evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), t_grid)
    dev = np.log(np.abs(covs[1:, 2, 2] - target[2, 2]))
    slope = np.polyfit(t_grid[1:], dev, 1)[0]
    assert slope == pytest.approx(-2.0 * rate, rel=0.05)


def test_evolve_moments_mean_decay():
    params = SystemParams.natural_units(0.5)
    dn = assemble_drift_noise(params)
    mean0 = np.array([1.0, 0.0, -0.5, 0.2])
    means, _ = evolve_moments(dn, np.zeros((4, 4)), mean0, np.array([0.0, 1.0]))
    from scipy.linalg import expm

    expected = expm(-dn.theta * 1.0) @ mean0
    np.testing.assert_allclose(means[-1], expected, atol=1e-13)


def test_momentum_variance_identity_all_routes():
    params = make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45)
    o1, o2 = params.osc1, params.osc2
    expected = (o1.diffusion + o1.mass / o2.mass * o2.diffusion) / (2 * o1.damping_rate)
    assert closed_form_covariances(params)[1, 1] == pytest.approx(expected, rel=1e-12)
    assert solve_lyapunov(assemble_drift_noise(params))[1, 1] == pytest.approx(expected, rel=1e-10)


def test_batch_of_one_equals_evolve_moments_bitwise():
    # both routes step the covariance with the same exponential of the augmented generator
    from hybridosc.steadystate import evolve_covariances_batch

    params = make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45)
    dn = assemble_drift_noise(params)
    cov0 = np.diag([0.3, 0.1, 0.2, 0.4])
    t_end = 7.3
    _, covs = evolve_moments(dn, cov0, np.zeros(4), np.array([0.0, t_end]))
    batch = evolve_covariances_batch(
        dn.theta[None], dn.diffusion_matrix[None], np.array([t_end]), cov0[None]
    )
    assert np.array_equal(batch[0], covs[-1])


def _augmented_flow(dn, span):
    # scipy's exponential of the 17x17 generator span [[G, vec Q], [0, 0]] of
    # (vec C, 1), G = -(theta (x) I + I (x) theta)
    from scipy.linalg import expm

    eye = np.eye(4)
    gen = np.zeros((17, 17))
    gen[:16, :16] = -(np.kron(dn.theta, eye) + np.kron(eye, dn.theta))
    gen[:16, 16] = dn.diffusion_matrix.ravel()
    return expm(span * gen)


def test_flow_matches_scipy_expm_on_a_non_uniform_grid():
    # from a nonzero mean and start covariance, spans from 1e-3 to 40 are each
    # one exact step: span by span, the covariance against the exponential of
    # the augmented generator and the mean against expm(-theta h), relative to
    # the span's start, since scipy's 4x4 expm itself is off by up to 8e-14 of
    # its unit scale at these spans (against 40-digit arithmetic; the flow's
    # series by 2e-15)
    from scipy.linalg import expm

    dn = assemble_drift_noise(make_params(1.2, 0.9, 0.7, 1.3, 0.8, 1.1, 0.6, 0.45))
    t_grid = np.array([0.0, 1e-3, 0.25, 0.3, 2.0, 7.5, 47.5])
    means, covs = evolve_moments(dn, np.diag([0.3, 0.1, 0.2, 0.4]), np.array([1.0, 0.0, -0.5, 0.2]), t_grid)
    for k, span in enumerate(np.diff(t_grid), 1):
        mean = expm(-dn.theta * span) @ means[k - 1]
        cov = (_augmented_flow(dn, span) @ np.append(covs[k - 1].ravel(), 1.0))[:16].reshape(4, 4)
        assert np.max(np.abs(means[k] - mean)) <= 1e-13 * np.max(np.abs(means[k - 1]))
        assert np.max(np.abs(covs[k] - cov)) <= 1e-13 * np.max(np.abs(cov))


def test_free_particles_spread_as_the_closed_form():
    # k = alpha = lam = 0: theta is nilpotent and its scale is zero, so the
    # flow's series ends after a few terms.  From rest, q = int_0^t p and
    # p = sqrt(D) W_t give Var q = D t^3 / 3, Cov(q, p) = D t^2 / 2 and
    # Var p = D t for each unit-mass particle
    d1, d2, t = 1.3, 0.7, 1e3
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, d1, 1.0, 0.0, d2, 0.0))
    _, covs = evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, t]))
    expected = np.zeros((4, 4))
    for i, d in ((0, d1), (2, d2)):
        expected[i : i + 2, i : i + 2] = d * np.array([[t**3 / 3, t**2 / 2], [t**2 / 2, t]])
    np.testing.assert_allclose(covs[-1], expected, rtol=1e-13, atol=0)


def test_stacked_expm1_matches_scipy_slice_by_slice():
    # one scaling for the whole stack, set by its largest norm: each slice is
    # still e^A - I, here for slices whose norms differ by six decades, in a
    # 4x4 stack and a 17x17 one.  The strongly damped slice, e^A near 0, is not
    # the first: scaled for the first slice alone, it would be off by 1.8e-8
    from scipy.linalg import expm

    from hybridosc.steadystate import _expm1

    rng = np.random.default_rng(5)
    for n in (4, 17):
        stack = rng.standard_normal((4, n, n)) * np.array([1e-5, 1e-2, 0.3, 3.0])[:, None, None]
        stack[2] -= 20 * np.eye(n)
        got = _expm1(stack)
        for a, d in zip(stack, got):
            want = expm(a) - np.eye(n)
            assert np.max(np.abs(d - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("lam", [1e-3, 1e-4])
def test_evolve_moments_reaches_closed_form_at_tiny_coupling(lam):
    # relaxing takes a span of ~lam^-2, one step of the exact flow, within the 1e-8 tolerance
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
