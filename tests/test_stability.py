import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridosc import characteristic_polynomial, routh_hurwitz, stability
from hybridosc.errors import SingularSystem
from hybridosc.stability import _hurwitz_criteria, spectrum_mismatch

from conftest import draw_stable, make_params, stable_params


def test_coupled_damped_always_passes():
    report = routh_hurwitz(make_params(1.7, 0.4, 0.9, 1.0, 0.6, 2.2, 1.0, 0.8))
    assert report.routh_hurwitz_pass
    assert report.min_real_part > 0
    assert report.reason is None


def test_zero_coupling_is_marginal():
    # the undamped block keeps purely imaginary eigenvalues +-i w2
    params = make_params(1.0, 1.0, 1.0, 1.0, 1.0, 2.25, 1.0, 0.0)
    report = routh_hurwitz(params)
    assert not report.routh_hurwitz_pass
    assert report.reason == "marginal"
    w2 = 1.5
    on_axis = [z for z in report.eigenvalues if abs(z.real) < 1e-12]
    assert sorted(z.imag for z in on_axis) == pytest.approx([-w2, w2])


def test_zero_damping_is_marginal():
    report = routh_hurwitz(make_params(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5))
    assert not report.routh_hurwitz_pass
    assert report.reason == "marginal"
    assert report.criteria_detail["coeff_theta3"] == 0.0


def test_zero_coupling_damped_block_eigenvalues():
    g1, w1 = 1.0, 0.4  # overdamped: gamma^2 > 4 w1^2
    params = make_params(1.0, w1**2, g1, 1.0, 1.0, 1.0, 1.0, 0.0)
    report = routh_hurwitz(params)
    assert not report.routh_hurwitz_pass
    expected = {
        g1 / 2 + 0.5 * np.sqrt(g1**2 - 4 * w1**2),
        g1 / 2 - 0.5 * np.sqrt(g1**2 - 4 * w1**2),
    }
    real_eigs = sorted(z.real for z in report.eigenvalues if abs(z.imag) < 1e-12)
    assert real_eigs == pytest.approx(sorted(expected))


def test_springless_pair_is_marginal():
    # kappa = 0 is legal at the type level; the certificate (not the types)
    # rules it out: the centre of mass is free, giving a zero eigenvalue
    report = routh_hurwitz(make_params(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.5))
    assert not report.routh_hurwitz_pass
    assert report.criteria_detail["coeff_theta0"] == 0.0
    # frequencies strictly positive restores the guarantee
    assert routh_hurwitz(make_params(1.0, 1e-4, 1.0, 1.0, 1.0, 1e-4, 1.0, 0.5)).routh_hurwitz_pass


def test_critically_damped_double_root_tolerated():
    # gamma^2 = 4 w1^2 exactly: the quartic has a double root, which the
    # eigensolver resolves only to sqrt(eps); the certificate must still
    # evaluate rather than reject its own cross-check
    report = routh_hurwitz(make_params(1.0, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0))
    assert not report.routh_hurwitz_pass
    assert report.reason == "marginal"


def test_defective_marginal_spectrum_is_marginal():
    # no springs and no damping: a defective double zero eigenvalue, split by
    # rounding into a real pair of size ~sqrt(eps), beside +-i sqrt(2)
    report = routh_hurwitz(make_params(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0))
    assert not report.routh_hurwitz_pass
    assert report.reason == "marginal"


def test_spectrum_cross_check_survives(monkeypatch):
    params = make_params(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05)
    _, mismatch = spectrum_mismatch(params)
    assert mismatch < 1e-12
    true_quartic = stability.characteristic_polynomial

    def wrong_quartic(p):
        coeffs = true_quartic(p).copy()
        coeffs[2] *= 1.0 + 1e-7
        return coeffs

    monkeypatch.setattr(stability, "characteristic_polynomial", wrong_quartic)
    with pytest.raises(SingularSystem):
        routh_hurwitz(params)


def test_certificate_uses_one_eigensolve(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a)
        return eigvals(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("no companion-matrix roots")

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(np, "roots", forbidden)
    routh_hurwitz(make_params(1.7, 0.4, 0.9, 1.0, 0.6, 2.2, 1.0, 0.8))
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(params=stable_params)
def test_certificate_matches_spectrum(params):
    report = routh_hurwitz(params)
    spectral_stable = report.min_real_part > 1e-12
    if report.routh_hurwitz_pass != spectral_stable:
        # disagreements are only allowed inside the marginal band
        assert abs(report.min_real_part) < 1e-9


def test_certificate_agrees_over_log_uniform_draws():
    rng = np.random.default_rng(7)
    for _ in range(500):
        report = routh_hurwitz(draw_stable(rng, log_uniform=True))
        assert report.routh_hurwitz_pass == (report.min_real_part > 1e-12) or (
            abs(report.min_real_part) < 1e-9
        )


def test_report_serialises():
    payload = routh_hurwitz(make_params(1, 1, 1, 1, 1, 1, 1, 0.05)).to_dict()
    assert payload["routh_hurwitz_pass"] is True
    assert len(payload["eigenvalues"]) == 4
    assert set(payload["criteria_detail"]) == {
        "coeff_theta3",
        "coeff_theta2",
        "coeff_theta1",
        "coeff_theta0",
        "reduced_1",
        "reduced_2",
    }


_edge_params = st.builds(
    make_params,
    m1=st.floats(0.3, 3.0),
    k1=st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.3, 3.0),
    alpha=st.sampled_from([0.0]) | st.floats(0.05, 2.5),
    d1=st.floats(0.0, 2.0),
    m2=st.floats(0.3, 3.0),
    k2=st.sampled_from([0.0]) | st.floats(0.3, 3.0),
    d2=st.floats(0.0, 2.0),
    lam=st.sampled_from([0.0]) | st.floats(0.01, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(params=_edge_params)
def test_reduced_conditions_are_the_hurwitz_minor(params):
    # for P(-theta) = theta^4 + a3 theta^3 + a2 theta^2 + a1 theta + a0 the
    # Hurwitz minor a3 a2 a1 - a1^2 - a3^2 a0 equals gamma1^2 lam^2 / (m1 m2)
    _, c3, a2, c1, a0 = characteristic_polynomial(params)
    a3, a1 = -c3, -c1
    minor = a3 * a2 * a1 - a1**2 - a3**2 * a0
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    exact = o1.damping_rate**2 * lam**2 / (o1.mass * o2.mass)
    assert minor == pytest.approx(exact, rel=1e-9, abs=1e-12 * a3 * a2 * a1)

    criteria, passed = _hurwitz_criteria(params)
    assert criteria["reduced_1"] > 0 or (o2.frequency == 0 and lam == 0)
    coefficients_positive = min(a3, a2, a1, a0) > 0
    assert passed == (coefficients_positive and exact > 0)
