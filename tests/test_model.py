import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from hybridosc import (
    OscillatorParams,
    SystemParams,
    assemble_drift_noise,
    characteristic_polynomial,
)
from hybridosc.model import DriftNoise

from conftest import make_params, stable_params


def test_drift_entries_at_reference_point():
    params = SystemParams.natural_units(0.05)
    dn = assemble_drift_noise(params)
    assert dn.theta[1, 0] == pytest.approx(1.05)
    assert dn.theta[1, 1] == pytest.approx(1.0)
    assert dn.theta[3, 0] == pytest.approx(-0.05)
    assert dn.state_order == ("q1", "p1", "q2", "p2")


def test_zero_coupling_block_diagonal():
    params = make_params(1.3, 0.7, 0.4, 1.0, 0.8, 1.1, 0.5, 0.0)
    theta = assemble_drift_noise(params).theta
    assert np.all(theta[:2, 2:] == 0.0)
    assert np.all(theta[2:, :2] == 0.0)


def test_zero_diffusion_gives_zero_noise():
    params = make_params(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.3)
    dn = assemble_drift_noise(params)
    assert np.all(dn.diffusion_matrix == 0.0)


def test_noise_product_is_exact_diagonal():
    params = make_params(2.0, 1.0, 0.5, 1.7, 0.5, 2.0, 0.3, 0.2)
    dn = assemble_drift_noise(params)
    assert np.array_equal(dn.diffusion_matrix, np.diag([0.0, 1.7, 0.0, 0.3]))


def test_characteristic_polynomial_reference_values():
    params = SystemParams.natural_units(0.05)
    coeffs = characteristic_polynomial(params)
    np.testing.assert_allclose(coeffs, [1.0, -1.0, 2.1, -1.05, 1.1], rtol=0, atol=1e-15)


def test_characteristic_polynomial_undamped_uncoupled_is_even():
    params = make_params(1.0, 2.25, 0.0, 0.0, 1.0, 0.25, 0.0, 0.0)
    coeffs = characteristic_polynomial(params)
    np.testing.assert_allclose(coeffs, [1.0, 0.0, 2.25 + 0.25, 0.0, 2.25 * 0.25], atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(params=stable_params)
@example(params=make_params(0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))  # near-double root pair
def test_polynomial_roots_are_drift_eigenvalues(params):
    # compared in coefficient space: near-double roots are resolved only to sqrt(eps),
    # their coefficients to working precision; coefficient k is scaled by e_k(|eigs|) >= |c_k|
    eigs = np.linalg.eigvals(assemble_drift_noise(params).theta)
    scale = np.maximum(1.0, np.poly(-np.abs(eigs)))
    assert np.max(np.abs(np.poly(eigs) - characteristic_polynomial(params)) / scale) <= 1e-9


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OscillatorParams(mass=0.0, spring_constant=1.0)
    with pytest.raises(ValueError):
        OscillatorParams(mass=1.0, spring_constant=-1.0)
    with pytest.raises(ValueError):
        OscillatorParams(mass=float("nan"), spring_constant=1.0)
    with pytest.raises(ValueError):
        make_params(1, 1, 1, 1, 1, 1, 1, -0.1)
    with pytest.raises(ValueError):
        SystemParams(
            osc1=OscillatorParams(1, 1, 1, 1),
            osc2=OscillatorParams(1, 1, damping=0.5),
            coupling=0.1,
        )


def test_drift_noise_requires_its_parameters():
    dn = assemble_drift_noise(SystemParams.natural_units(0.4))
    with pytest.raises(TypeError, match="SystemParams"):
        DriftNoise(theta=dn.theta, params=None)
    with pytest.raises(TypeError):
        DriftNoise(theta=dn.theta)


def test_json_round_trip(tmp_path):
    params = make_params(1.5, 0.8, 0.6, 1.2, 0.9, 1.3, 0.4, 0.07)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params.to_dict()))
    loaded = SystemParams.from_json(path)
    assert loaded == params


def test_from_dict_reports_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        SystemParams.from_dict({"m1": 1.0})
