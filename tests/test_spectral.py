from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridosc import (
    ClassificationFailure,
    CorrelatorTable,
    CouplingZero,
    DegeneratePoles,
    NotStable,
    OverdampedUnsupported,
    PerfectCorrelation,
    PoleOnAxis,
    SystemParams,
    assemble_drift_noise,
    characteristic_polynomial,
    closed_form_covariances,
    correlation_coefficient,
    correlators_exact,
    correlators_small_lambda,
    exact_equal_time,
    find_poles,
    greens,
    greens_inverse,
    mutual_information,
    perturbative_poles,
    sigma_ratio,
    solve_lyapunov,
    spectral,
)

from conftest import make_params, quadrature_inverse_transform, spectral_params


# ---------------------------------------------------------------------------
# frequency domain


def test_kernel_entries_at_zero_frequency():
    params = make_params(1.0, 0.8, 0.6, 1.0, 1.0, 1.2, 1.0, 0.3)
    m = greens_inverse(params, 0.0)
    assert m[0, 1] == pytest.approx(-(0.8 + 0.3))
    assert m[1, 0] == pytest.approx(-(0.8 + 0.3))
    assert m[1, 1] == -1.0
    assert m[3, 3] == -1.0
    assert m[0, 3] == m[1, 2] == 0.3


def test_kernel_block_diagonal_at_zero_coupling():
    params = make_params(1.0, 0.8, 0.6, 1.0, 1.0, 1.2, 1.0, 0.0)
    m = greens_inverse(params, 0.7)
    assert np.all(m[:2, 2:] == 0.0)
    assert np.all(m[2:, :2] == 0.0)


def test_decoupled_static_position_spectrum():
    # at zero coupling and zero frequency the damped oscillator's position
    # spectral density collapses to D1/k1^2
    params = make_params(1.0, 0.8, 0.6, 1.3, 1.0, 1.2, 1.0, 0.0)
    g = greens(params, 0.0)
    assert g.g11 == pytest.approx(1.3 / 0.8**2)
    assert g.g12 == 0.0


def test_resonance_peak_value():
    params = SystemParams.natural_units(0.05)
    g = greens(params, 1.0)
    lam, d1, d2, g1, w = 0.05, 1.0, 1.0, 1.0, 1.0
    abs_d_sq = lam**2  # |denominator|^2 at the bare resonance
    dominant = (d2 * g1**2 * w**2 + lam**2 * d1) / abs_d_sq
    assert g.g22.real == pytest.approx(dominant, rel=2 * lam**2)
    assert abs(g.g22.imag) < 1e-12 * abs(g.g22.real)


@settings(max_examples=150, deadline=None)
@given(params=spectral_params, omega=st.floats(-5.0, 5.0))
def test_closed_form_equals_numeric_inverse(params, omega):
    closed = greens(params, omega).matrix
    inverted = np.linalg.inv(greens_inverse(params, omega))
    scale = np.max(np.abs(inverted))
    assert np.max(np.abs(closed - inverted)) <= 1e-10 * scale


def test_greens_names_read_their_slots():
    g = greens(make_params(1.2, 0.9, 0.7, 1.0, 0.8, 1.3, 0.6, 0.5), 0.8)
    for name, slot in spectral._SLOTS.items():
        assert getattr(g, name) == complex(g.matrix[slot])
    with pytest.raises(AttributeError):
        g.g33


def test_pole_on_axis_at_zero_coupling():
    params = make_params(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(PoleOnAxis):
        greens(params, 1.0)  # bare resonance of the undamped factor


# ---------------------------------------------------------------------------
# poles


def test_poles_approach_uncoupled_limits():
    g1, w1, w2 = 0.8, 1.1, 0.9
    s1 = np.sqrt(w1**2 - g1**2 / 4)
    previous = np.inf
    for lam in (4e-3, 2e-3, 1e-3):
        params = make_params(1.0, w1**2, g1, 1.0, 1.0, w2**2, 1.0, lam)
        poles = find_poles(params)
        gap = abs(poles.omega1 - complex(s1, g1 / 2)) + abs(poles.omega2 - w2)
        assert gap < 2.0 * lam  # linear-in-coupling approach to the bare poles
        assert gap < previous
        previous = gap


def test_pole_quartic_matches_characteristic_polynomial():
    params = make_params(1.2, 0.9, 0.7, 1.0, 0.8, 1.3, 1.0, 0.5)
    poles = find_poles(params)
    theta_roots = np.sort_complex(np.roots(characteristic_polynomial(params)))
    np.testing.assert_allclose(
        np.sort_complex(1j * theta_roots), np.sort_complex(poles.upper_roots), atol=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(params=spectral_params)
def test_pole_reflection_structure(params):
    poles = find_poles(params)
    assert poles.omega1.real > 0 and poles.omega1.imag > 0
    assert poles.omega2.real > 0 and poles.omega2.imag > 0
    roots = poles.upper_roots
    # the set is closed under w -> -conj(w)
    mirrored = np.sort_complex(-np.conj(roots))
    np.testing.assert_allclose(np.sort_complex(roots), mirrored, atol=1e-8)
    # conjugates solve the coefficient-conjugated quartic
    from hybridosc.spectral import response_denominator_coefficients

    coeffs = np.conj(response_denominator_coefficients(params))
    residuals = np.abs(np.polyval(coeffs, np.conj(roots)))
    assert np.max(residuals) <= 1e-9 * max(1.0, np.max(np.abs(roots)) ** 4)


# an unlike pair; at strong coupling the constant term k1 k2 + (k1 + k2) lam of
# D(w) loses digits when formed as (k1 + lam)(k2 + lam) - lam^2
_STRONG = dict(m1=1.3, k1=0.7, alpha=0.9, d1=1.0, m2=0.6, k2=1.1, d2=1.0)


def test_denominator_constant_term_is_exact_at_strong_coupling():
    from hybridosc.spectral import response_denominator_coefficients

    params = make_params(**_STRONG, lam=1e6)
    c0 = response_denominator_coefficients(params)[-1]
    k1, k2, lam = (Fraction(x) for x in (0.7, 1.1, 1e6))
    exact = k1 * k2 + (k1 + k2) * lam
    assert c0.imag == 0.0
    assert abs(Fraction(c0.real) - exact) <= Fraction(1e-15) * exact


def test_find_poles_rejects_zero_coupling():
    with pytest.raises((ClassificationFailure, DegeneratePoles)):
        find_poles(make_params(1, 1, 1, 1, 1, 1, 1, 0.0))


def test_exact_path_refuses_tiny_coupling():
    with pytest.raises(DegeneratePoles):
        correlators_exact(SystemParams.natural_units(1e-5), np.linspace(-1, 1, 5))


def test_perturbative_reference_corrections():
    params = SystemParams.natural_units(0.05)
    poles = perturbative_poles(params, order=2)
    assert poles.omega2.imag == pytest.approx(0.00125, abs=1e-15)
    assert poles.omega1.imag == pytest.approx(0.5 - 0.00125, abs=1e-15)
    first = perturbative_poles(params, order=1)
    assert first.omega2 == pytest.approx(1.0 + 0.025)  # real shift lam/(2 m w)
    assert first.omega1.imag == pytest.approx(0.5)
    assert first.omega2.imag == 0.0


def test_perturbative_matches_exact_imaginary_shift():
    params = SystemParams.natural_units(0.05)
    exact = find_poles(params)
    pert = perturbative_poles(params, order=2)
    # agreement to the next order in the coupling
    assert abs(exact.omega2.imag - pert.omega2.imag) < 0.05**3


def test_perturbative_cubic_error_scaling():
    errors = []
    lams = np.array([0.01, 0.02, 0.04])
    for lam in lams:
        params = make_params(1.1, 1.3, 0.8, 1.0, 0.9, 0.8, 1.0, lam)
        exact = find_poles(params)
        pert = perturbative_poles(params, order=2)
        errors.append(abs(exact.omega1 - pert.omega1) + abs(exact.omega2 - pert.omega2))
    slope = np.polyfit(np.log(lams), np.log(errors), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.2)


def test_perturbative_rejects_overdamped():
    with pytest.raises(OverdampedUnsupported):
        perturbative_poles(make_params(1.0, 0.04, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05))


def test_exact_residues_survive_overdamped():
    params = make_params(1.0, 0.04, 1.0, 1.0, 1.0, 1.0, 1.0, 0.3)
    table = correlators_exact(params, np.array([0.0]))
    cov = solve_lyapunov(assemble_drift_noise(params))
    assert table.g11[0] == pytest.approx(cov[0, 0], rel=1e-8)
    assert table.g22[0] == pytest.approx(cov[2, 2], rel=1e-8)


# ---------------------------------------------------------------------------
# time domain: exact residues


@settings(max_examples=60, deadline=None)
@given(params=spectral_params)
def test_equal_time_matches_lyapunov(params):
    cov = solve_lyapunov(assemble_drift_noise(params))
    eq = exact_equal_time(params)
    scale = np.max(np.abs(cov))
    assert abs(eq["g11_0"] - cov[0, 0]) <= 1e-8 * scale
    assert abs(eq["g22_0"] - cov[2, 2]) <= 1e-8 * scale
    assert abs(eq["g12_0"] - cov[0, 2]) <= 1e-8 * scale
    assert abs(eq["q1p2"] - cov[0, 3]) <= 1e-8 * scale
    assert abs(eq["q2p1"] - cov[2, 1]) <= 1e-8 * scale


@pytest.mark.parametrize("lam", [1e4, 1e6])
def test_equal_time_matches_closed_form_at_strong_coupling(lam):
    params = make_params(**_STRONG, lam=lam)
    eq = exact_equal_time(params)
    closed = closed_form_covariances(params)
    assert eq["g11_0"] == pytest.approx(closed[0, 0], rel=1e-13, abs=0.0)
    assert eq["g22_0"] == pytest.approx(closed[2, 2], rel=1e-13, abs=0.0)


def test_autocorrelations_even_and_real():
    params = make_params(1.1, 0.9, 0.7, 1.2, 0.8, 1.2, 0.9, 0.6)
    t = np.linspace(-12.0, 12.0, 49)
    table = correlators_exact(params, t)
    np.testing.assert_allclose(table.g11, table.g11[::-1], atol=1e-10)
    np.testing.assert_allclose(table.g22, table.g22[::-1], atol=1e-10)
    assert table.g11.dtype == float and table.g22.dtype == float


def test_cross_correlator_time_reflection():
    params = make_params(1.1, 0.9, 0.7, 1.2, 0.8, 1.2, 0.9, 0.6)
    t = np.linspace(-12.0, 12.0, 49)
    table = correlators_exact(params, t)
    np.testing.assert_allclose(table.g12, table.g21[::-1], atol=1e-10)


def test_cross_correlator_is_not_symmetric():
    # the leading oscillation of g12 is odd in t; an even sin|t| continuation
    # would carry the wrong slope sign at t = 0+, fixed by E[q1 p2] < 0
    params = SystemParams.natural_units(0.05)
    t = np.linspace(-6.0, 6.0, 25)
    table = correlators_exact(params, t)
    asym = np.max(np.abs(table.g12 - table.g21))
    assert asym > 0.5 * np.max(np.abs(table.g12))
    cov = solve_lyapunov(assemble_drift_noise(params))
    h = 1e-5
    steps = correlators_exact(params, np.array([0.0, h]))
    slope = (steps.g12[1] - steps.g12[0]) / h
    assert slope == pytest.approx(cov[0, 3] / params.osc2.mass, rel=1e-3)


def test_response_support_and_shape():
    params = make_params(1.3, 1.1, 0.9, 1.0, 0.8, 1.2, 1.0, 0.4)
    t = np.linspace(-8.0, 8.0, 33)
    table = correlators_exact(params, t)
    for name in ("response_11", "response_22", "response_21"):
        values = getattr(table, name)
        assert np.all(values[t >= 0] == 0.0)
        assert np.any(values[t < 0] != 0.0) or name == "response_21"


def test_response_matches_uncoupled_formula_at_small_coupling():
    m1, k1, al = 1.2, 1.1, 0.8
    params = make_params(m1, k1, al, 1.0, 0.9, 0.7, 1.0, 1e-3)
    t = np.linspace(-6.0, -0.5, 12)
    table = correlators_exact(params, t)
    g1 = al / m1
    s1 = np.sqrt(k1 / m1 - g1**2 / 4)
    expected = (1 / m1) * np.exp(g1 * t / 2) * np.sin(s1 * t) / s1
    np.testing.assert_allclose(table.response_11, expected, rtol=0, atol=5e-3)


def test_correlators_decay_at_pole_rate():
    params = make_params(1.1, 0.9, 0.7, 1.2, 0.8, 1.2, 0.9, 0.6)
    poles = find_poles(params)
    rate = min(poles.omega1.imag, poles.omega2.imag)
    t_far = np.array([40.0 / rate])
    table = correlators_exact(params, t_far)
    zero = correlators_exact(params, np.array([0.0]))
    assert abs(table.g11[0]) < 1e-10 * abs(zero.g11[0])
    assert abs(table.g22[0]) < 1e-10 * abs(zero.g22[0])


def test_quadrature_oracle_matches_residues():
    params = make_params(1.1, 0.9, 0.7, 1.2, 0.8, 1.2, 0.9, 0.6)
    t = np.linspace(-20.0, 20.0, 17)
    table = correlators_exact(params, t)
    for name in ("g11", "g22", "g12", "response_11", "response_22", "response_21"):
        numeric = quadrature_inverse_transform(params, name, t)
        if name.startswith("response"):
            numeric = numeric.copy()
            numeric[t >= 0] = 0.0
        exact = getattr(table, name)
        scale = max(np.max(np.abs(exact)), 1e-12)
        assert np.max(np.abs(numeric.real - exact)) <= 1e-6 * scale, name
        assert np.max(np.abs(numeric.imag)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# small-coupling forms


def test_small_lambda_identical_reference_values():
    params = SystemParams.natural_units(0.05)
    zero = correlators_small_lambda(params, np.array([0.0]))
    assert zero.g12[0] == 0.0
    assert zero.g22[0] == pytest.approx(1.0 * 1.0 / (2 * 0.05**2))


def test_small_lambda_matches_exact_identical():
    params = SystemParams.natural_units(0.01)
    t = np.linspace(-5.0, 5.0, 21)
    exact = correlators_exact(params, t)
    approx = correlators_small_lambda(params, t)
    for name in ("g11", "g22", "g12"):
        a, b = getattr(exact, name), getattr(approx, name)
        assert np.max(np.abs(a - b)) <= 0.05 * np.max(np.abs(a)), name


def test_small_lambda_matches_exact_general():
    params = make_params(1.3, 1.8, 0.9, 0.8, 0.7, 0.6, 1.1, 0.01)
    t = np.linspace(-4.0, 4.0, 17)
    exact = correlators_exact(params, t)
    approx = correlators_small_lambda(params, t)
    for name in ("g11", "g22", "g12", "g21"):
        a, b = getattr(exact, name), getattr(approx, name)
        assert np.max(np.abs(a - b)) <= 0.06 * np.max(np.abs(a)), name


def test_long_time_autocorrelation_dominated_by_undamped_partner():
    # once the damped oscillator's own memory is gone its autocorrelation
    # rings at the partner's frequency with amplitude D2/(2 g1 w^2 m^2)
    params = SystemParams.natural_units(0.01, d1=1.0, d2=0.7)
    rate = params.osc1.damping_rate
    ring = find_poles(params).omega2.real
    cycles = int(np.ceil(20.0 / rate * ring / (2 * np.pi)))
    t_peak = np.array([2 * np.pi * cycles / ring])  # a cosine maximum past 20/g1
    exact = correlators_exact(params, t_peak)
    amplitude = 0.7 / (2 * rate * 1.0 * 1.0)
    assert exact.g11[0] == pytest.approx(amplitude, rel=0.05)


def test_small_lambda_errors():
    with pytest.raises(CouplingZero):
        correlators_small_lambda(SystemParams.natural_units(0.0), np.array([0.0]))
    with pytest.raises(OverdampedUnsupported):
        correlators_small_lambda(
            make_params(1.0, 0.04, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05), np.array([0.0])
        )
    with pytest.raises(NotStable):  # w2 = 0, refused like perturbative_poles
        correlators_small_lambda(
            make_params(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.05), np.array([0.0])
        )


@pytest.mark.parametrize(
    "params, refusal",
    [
        (make_params(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.05), NotStable),
        (make_params(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.05), NotStable),
        (make_params(1.0, 0.04, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05), OverdampedUnsupported),
    ],
    ids=["alpha_0", "k2_0", "k1_0.04"],
)
def test_small_coupling_routes_share_one_regime_gate(params, refusal):
    with pytest.raises(refusal):
        perturbative_poles(params)
    with pytest.raises(refusal):
        correlators_small_lambda(params, np.array([0.0]))


def test_sigma_ratio_reference_and_consistency():
    params = SystemParams.natural_units(0.05)
    ratio = sigma_ratio(params)
    assert ratio == pytest.approx(0.05 * np.sqrt(2.0), rel=1e-12)
    zero = correlators_small_lambda(params, np.array([0.0]))
    assert ratio == pytest.approx(np.sqrt(zero.g11[0] / zero.g22[0]), abs=1e-12)


def test_sigma_ratio_no_first_noise():
    params = SystemParams.natural_units(0.08, d1=0.0, d2=1.0)
    assert sigma_ratio(params) == pytest.approx(0.08, rel=1e-12)


def test_sigma_ratio_carries_frequency_factor():
    # doubling the common frequency halves the ratio; required for the
    # ratio to stay consistent with the correlator table
    lam = 0.05
    base = SystemParams.natural_units(lam)
    scaled = make_params(1.0, 4.0, 1.0, 1.0, 1.0, 4.0, 1.0, lam)
    assert sigma_ratio(scaled) == pytest.approx(sigma_ratio(base) / 2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# mutual information


# the natural units and two systems off them, as the `hybrid-osc verify` flags
# `--m1 2 --k2 0.5` and `--alpha 0.3`
@pytest.mark.parametrize(
    "m1, alpha, k2", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (1.0, 0.3, 1.0)],
    ids=["natural_units", "m1_2_k2_half", "alpha_0.3"],
)
def test_information_zero_at_quarter_period(m1, alpha, k2):
    params = make_params(m1, 1.0, alpha, 1.0, 1.0, k2, 1.0, 0.05)
    w2 = params.osc2.frequency
    assert mutual_information(params, (2, 2), np.pi / 2 / w2) == pytest.approx(0.0, abs=1e-12)
    r = correlation_coefficient(params, (2, 2), np.array([0.3, 1.1]))
    np.testing.assert_allclose(r, np.cos(w2 * np.array([0.3, 1.1])), rtol=1e-12)


def test_information_diverges_at_equal_times():
    params = SystemParams.natural_units(0.05)
    with pytest.raises(PerfectCorrelation):
        mutual_information(params, (2, 2), 0.0)


def test_information_long_time_envelope():
    params = SystemParams.natural_units(0.05, d1=1.0, d2=1.0)
    g1 = 1.0
    t = 16.0 / g1 + np.linspace(0.0, 4 * np.pi, 160)
    info = mutual_information(params, (1, 1), t)
    envelope = -0.5 * np.log1p(-np.cos(t) ** 2 / (1 + 1.0) ** 2)
    peak = envelope.max()
    mask = envelope > 0.02 * peak
    rel = np.abs(info[mask] - envelope[mask]) / envelope[mask]
    assert np.max(rel) < 0.01


def test_information_approaches_deterministic_limit():
    # as D1/D2 -> 0 oscillator 1 is driven purely through the spring and the
    # same-time-lag information of both oscillators coincides
    params = SystemParams.natural_units(0.05, d1=1e-6, d2=1.0)
    t = np.linspace(0.3, 2.8, 7)
    i11 = mutual_information(params, (1, 1), t)
    i22 = mutual_information(params, (2, 2), t)
    np.testing.assert_allclose(i11, i22, rtol=1e-3, atol=1e-6)


def test_cross_information_phase_shifted_in_deterministic_limit():
    # the cross pair reaches the same envelope a quarter period out of phase:
    # the two synchronised oscillators hold a fixed 90-degree phase offset
    params = SystemParams.natural_units(0.05, d1=1e-6, d2=1.0)
    t = np.linspace(0.3, 2.8, 7)
    i12 = mutual_information(params, (1, 2), t)
    i22_shifted = mutual_information(params, (2, 2), t - np.pi / 2)
    np.testing.assert_allclose(i12, i22_shifted, rtol=1e-3, atol=1e-6)


def test_exact_route_agrees_with_small_lambda():
    params = SystemParams.natural_units(0.02)
    t = np.array([0.4, 1.7, 3.0])
    approx = correlation_coefficient(params, (2, 2), t)
    exact = correlation_coefficient(params, (2, 2), t, exact=True)
    np.testing.assert_allclose(approx, exact, atol=0.02)
    # information itself compared at a mid-range correlation, away from the
    # log divergence (|r| -> 1) and the zeros where relative error is unstable
    assert mutual_information(params, (2, 2), 0.9, exact=True) == pytest.approx(
        mutual_information(params, (2, 2), 0.9), rel=0.06
    )


@pytest.mark.parametrize("exact", [False, True])
def test_correlation_coefficient_evaluates_its_route_once(exact, monkeypatch):
    params = SystemParams.natural_units(0.05)
    t = np.array([-2.5, 0.0, 0.4, 1.7, 3.0])
    route = correlators_exact if exact else correlators_small_lambda
    # the two-call form: the table on t, and its own evaluation at t = 0 to normalise
    table, zero = route(params, t), route(params, np.zeros(1))
    two_calls = table.g12 / np.sqrt(zero.g11[0] * zero.g22[0])

    calls = []

    def counted(params, t_grid):
        calls.append(t_grid)
        return route(params, t_grid)

    monkeypatch.setattr(spectral, route.__name__, counted)
    r = correlation_coefficient(params, (1, 2), t, exact=exact)
    assert len(calls) == 1
    assert r.tobytes() == two_calls.tobytes()
    assert correlation_coefficient(params, (1, 2), 0.4, exact=exact) == two_calls[2]


@settings(max_examples=60, deadline=None)
@given(params=spectral_params)
def test_equal_time_equals_correlators_at_zero(params):
    # both are the same residue sum at t = 0, so they agree bit for bit
    eq = exact_equal_time(params)
    table = correlators_exact(params, np.array([0.0]))
    for name in ("g11", "g22", "g12", "g21"):
        assert eq[name + "_0"] == getattr(table, name)[0]


def test_one_residue_transform_and_one_quartic_per_pole_set(monkeypatch):
    params = SystemParams.natural_units(0.05)
    counts = {"_residue_transform": 0, "response_denominator_coefficients": 0}

    def spy(name):
        real = getattr(spectral, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(spectral, name, counted)

    for name in counts:
        spy(name)
    exact_equal_time(params)
    assert counts == {"_residue_transform": 1, "response_denominator_coefficients": 1}
    counts.update(dict.fromkeys(counts, 0))
    correlators_exact(params, np.linspace(-3.0, 3.0, 7))
    assert counts == {"_residue_transform": 2, "response_denominator_coefficients": 1}


@pytest.mark.parametrize("upper_only", [False, True])
def test_stacked_residue_transform_equals_its_rows(upper_only):
    # the poles of D alone (responses) or of |D|^2 (correlations)
    roots_up, roots_all, lead4, lead8, _ = spectral._stable_poles(
        SystemParams.natural_units(0.3), "test"
    )
    roots, lead = (roots_up, lead4) if upper_only else (roots_all, lead8)
    rng = np.random.default_rng(3)
    nums = rng.normal(size=(5, len(roots))) + 1j * rng.normal(size=(5, len(roots)))
    t = np.array([-4.0, -0.5, 0.0, 0.25, 3.0])
    stacked = spectral._residue_transform(nums, roots, lead, t)
    assert stacked.shape == (5, len(t))
    for num, row in zip(nums, stacked):
        assert spectral._residue_transform(num[None], roots, lead, t)[0].tobytes() == row.tobytes()


@pytest.mark.parametrize("route", [correlators_exact, correlators_small_lambda])
@pytest.mark.parametrize("times", [[np.nan, 1.0], [np.inf], [-np.inf, 0.0]])
def test_correlator_tables_refuse_non_finite_times(route, times):
    with pytest.raises(ValueError, match="finite"):
        route(SystemParams.natural_units(0.05), np.array(times))


@pytest.mark.parametrize("route", [correlators_exact, correlators_small_lambda])
def test_correlator_tables_on_an_empty_grid(route):
    table = route(SystemParams.natural_units(0.05), [])
    assert table.times.shape == (0,)
    for name in CorrelatorTable.PAIR_COLUMNS:
        assert getattr(table, name).shape == (0,)
