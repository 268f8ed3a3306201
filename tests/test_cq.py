import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridosc import (
    CQParams,
    CouplingZero,
    SystemParams,
    TradeoffViolation,
    assemble_drift_noise,
    closed_form_covariances,
    correlators_exact,
    gibbs_covariances,
    hybrid_correlators,
    hybrid_equal_time,
    map_to_classical,
    occupation_exact,
    occupation_from_keldysh,
    occupation_number,
    routh_hurwitz,
    solve_lyapunov,
    thermal_limit,
)

from conftest import gibbs_covariance_oracle


def natural_cq(coupling=0.05, diffusion=1.0, damping=1.0, **lopsided):
    return CQParams(**{
        "classical_mass": 1.0,
        "classical_spring": 1.0,
        "damping": damping,
        "diffusion": diffusion,
        "quantum_mass": 1.0,
        "quantum_spring": 1.0,
        "coupling": coupling,
        **lopsided,
    })


# pairs of unlike oscillators, each one parameter off the identical pair
LOPSIDED = ({"quantum_mass": 2.0}, {"quantum_spring": 2.0}, {"classical_mass": 2.0})


# ---------------------------------------------------------------------------
# trade-off and mapping


def test_tradeoff_saturated_by_default():
    cq = natural_cq(diffusion=0.7)
    assert 4.0 * cq.diffusion * cq.decoherence_rate == pytest.approx(1.0, abs=1e-15)


def test_coupling_without_diffusion_rejected():
    with pytest.raises(TradeoffViolation):
        CQParams(
            classical_mass=1, classical_spring=1, damping=1, diffusion=0.0,
            quantum_mass=1, quantum_spring=1, coupling=0.1,
        )


def test_mapping_reference_values():
    mapped = map_to_classical(natural_cq(coupling=0.1, diffusion=1.0))
    assert mapped.osc2.diffusion == pytest.approx(0.0025)
    assert mapped.osc1.diffusion == 1.0
    assert mapped.osc2.damping == 0.0
    assert mapped.coupling == 0.1


def test_mapping_zero_coupling_zero_decoherence():
    mapped = map_to_classical(natural_cq(coupling=0.0))
    assert mapped.osc2.diffusion == 0.0


def test_mapped_system_is_stable():
    mapped = map_to_classical(natural_cq(coupling=0.3))
    assert routh_hurwitz(mapped).routh_hurwitz_pass


# ---------------------------------------------------------------------------
# occupation number


def test_occupation_minimum_at_critical_temperature():
    # T_C = D/(2 alpha) = omega/2 at D = 1, alpha = 1, omega = 1
    occ = occupation_number(natural_cq(diffusion=1.0))
    assert occ.temperature == pytest.approx(0.5)
    assert occ.n == pytest.approx(0.5, abs=1e-15)


def test_occupation_floor_over_temperature_sweep():
    values = [
        occupation_number(natural_cq(diffusion=2.0 * t_c)).n
        for t_c in np.geomspace(0.01, 100.0, 200)
    ]
    assert min(values) >= 0.5 - 1e-12


def test_occupation_thermalises_at_high_temperature():
    t_c = 200.0
    occ = occupation_number(natural_cq(diffusion=2.0 * t_c))
    assert abs(occ.n - t_c) / t_c <= 1.0 / (2 * t_c) + 1e-12


def test_occupation_diverges_at_low_temperature():
    t_c = 1e-4
    occ = occupation_number(natural_cq(diffusion=2.0 * t_c))
    assert occ.n == pytest.approx(1.0 / (4 * t_c), rel=1e-3)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(
    masses_springs=st.tuples(*[st.floats(0.3, 3.0)] * 4),
    damping=st.floats(0.1, 2.0),
    diffusion=_log_uniform(1e-3, 10.0),
    coupling=_log_uniform(1e-3, 1.0),
)
def test_uncertainty_relation_holds_at_saturation(masses_springs, damping, diffusion, coupling):
    # the trade-off saturated, D0 = 1/(4 D), keeps the quantum oscillator's
    # stationary state physical: its symplectic eigenvalue nu is at least 1/2
    # (nu - 1/2 = N_exact >= 0), the uncertainty relation in Williamson form.
    # The smallest nu over 2000 random pairs of this box was 0.5004
    m_c, k_c, m_q, k_q = masses_springs
    cq = CQParams(
        classical_mass=m_c, classical_spring=k_c, damping=damping, diffusion=diffusion,
        quantum_mass=m_q, quantum_spring=k_q, coupling=coupling,
    )
    assert occupation_exact(cq) >= 0


def test_induced_diffusion_is_what_keeps_the_uncertainty_relation():
    # the unit pair at D = 1, lam = 0.1: nu = 0.611 with the induced diffusion
    # D2 = lam^2 / (4 D) of map_to_classical, and 0.479 < 1/2 without it (the
    # classical pair with D2 = 0); 1469 of 2000 random pairs of the box above
    # fall below 1/2 that way
    cq = natural_cq(coupling=0.1, diffusion=1.0)
    assert occupation_exact(cq) + 0.5 == pytest.approx(0.611, abs=1e-3)
    pair = map_to_classical(cq)
    undriven = dataclasses.replace(pair.osc2, diffusion=0.0)
    bare = closed_form_covariances(dataclasses.replace(pair, osc2=undriven))
    nu = math.sqrt(bare[2, 2] * bare[3, 3])
    assert nu == pytest.approx(0.479, abs=1e-3)
    assert nu < 0.5


def test_keldysh_route_documented_discrepancy():
    # the equal-time propagator of the mapped dynamics carries 1/4 of the
    # closed formula's decoherence term; at the reference point the two
    # routes give 0.125 vs 0.5, and the mapped route can reach zero
    assert occupation_from_keldysh(natural_cq(diffusion=1.0)) == pytest.approx(0.125)
    sweep = [
        occupation_from_keldysh(natural_cq(diffusion=2.0 * t_c))
        for t_c in np.geomspace(0.01, 10.0, 300)
    ]
    assert min(sweep) == pytest.approx(0.0, abs=1e-4)


def test_occupation_from_keldysh_holds_for_unlike_oscillators():
    # m_Q omega_Q <<QQ>> - 1/2 from the closed form; the identical-oscillator
    # amplitude read 0.129 against 0.626 at m_Q = 2
    for lopsided in LOPSIDED:
        cq = natural_cq(coupling=0.01, damping=0.7, **lopsided)
        exact = cq.quantum_mass * cq.quantum_frequency * hybrid_equal_time(cq)["QQ"] - 0.5
        assert abs(occupation_from_keldysh(cq) - exact) <= 0.02, lopsided


@pytest.mark.parametrize("coupling", [0.0, 1e-170], ids=["zero", "square_underflows"])
def test_keldysh_routes_refuse_zero_coupling(coupling):
    with pytest.raises(CouplingZero):
        hybrid_correlators(natural_cq(coupling=coupling), np.array([0.0]))
    with pytest.raises(CouplingZero):
        occupation_from_keldysh(natural_cq(coupling=coupling))


def test_published_occupation_assumes_four_times_saturated_d0():
    # N = nu - 1/2 with nu the symplectic eigenvalue of the mapped (Q, P)
    # covariance; m = omega = alpha = 1, so D = 2 T_C
    lam = 0.01

    def mapped_occupation(d, d0):
        mapped = SystemParams.natural_units(lam, d1=d, d2=d0 * lam**2)
        cov = solve_lyapunov(assemble_drift_noise(mapped))
        return np.sqrt(cov[2, 2] * cov[3, 3] - cov[2, 3] ** 2) - 0.5

    for t_c in (0.25, 0.5, 1.0):
        cq = natural_cq(coupling=lam, diffusion=2.0 * t_c)
        d = cq.diffusion
        published = occupation_number(cq).n
        saturated = mapped_occupation(d, 1.0 / (4.0 * d))
        assert abs(published - mapped_occupation(d, 1.0 / d)) <= 0.01
        assert abs(occupation_from_keldysh(cq) - saturated) <= 0.01
        assert abs(occupation_exact(cq) - saturated) <= 1e-9
        if t_c < 1.0:
            assert abs(published - saturated) >= 0.3


# ---------------------------------------------------------------------------
# correlators


def test_hybrid_correlator_reference_equal_time():
    table = hybrid_correlators(natural_cq(), np.array([0.0]))
    assert table.keldysh[0] == pytest.approx(0.625)


def test_hybrid_correlators_finite_at_vanishing_coupling():
    table = hybrid_correlators(natural_cq(coupling=1e-8), np.linspace(-4, 4, 9))
    for field in (table.classical, table.keldysh, table.classical_response):
        assert np.all(np.isfinite(field))
    assert np.all(np.isfinite(table.retarded.real)) and np.all(np.isfinite(table.retarded.imag))


def test_hybrid_correlators_coupling_independent_at_leading_order():
    t = np.linspace(-3, 3, 7)
    a = hybrid_correlators(natural_cq(coupling=1e-6), t)
    b = hybrid_correlators(natural_cq(coupling=0.05), t)
    np.testing.assert_allclose(a.keldysh, b.keldysh, rtol=1e-12)


def test_retarded_entry_imaginary_with_negative_time_support():
    t = np.linspace(-5, 5, 21)
    table = hybrid_correlators(natural_cq(), t)
    assert np.all(table.retarded[t >= 0] == 0)
    assert np.max(np.abs(table.retarded.real)) == 0.0
    expected = -np.sin(t[t < 0])  # -(i/(m w)) sin(w t) at m = w = 1
    np.testing.assert_allclose(table.retarded[t < 0].imag, expected, rtol=1e-12)


def test_hybrid_correlators_match_mapped_exact_route():
    t = np.linspace(-4, 4, 17)
    for lopsided in ({}, *LOPSIDED):
        cq = natural_cq(coupling=0.01, **lopsided)
        printed = hybrid_correlators(cq, t)
        exact = correlators_exact(map_to_classical(cq), t)
        assert np.max(np.abs(printed.keldysh - exact.g22)) <= 0.05 * np.max(np.abs(exact.g22))
        assert np.max(np.abs(printed.classical - exact.g11)) <= 0.05 * np.max(np.abs(exact.g11))


# ---------------------------------------------------------------------------
# equal-time moments and the thermal limit


def test_equal_time_reference_cross_moments():
    moments = hybrid_equal_time(natural_cq(coupling=0.1, diffusion=1.0))
    assert moments["Pq"] == pytest.approx(-0.0125)
    assert moments["pQ"] == pytest.approx(+0.0125)


def test_equal_time_mass_ratio():
    cq = CQParams(
        classical_mass=2.0, classical_spring=2.0, damping=1.0, diffusion=1.0,
        quantum_mass=0.5, quantum_spring=0.5, coupling=0.1,
    )
    moments = hybrid_equal_time(cq)
    assert moments["pQ"] == pytest.approx(-moments["Pq"] * 4.0)


def test_equal_time_matches_lyapunov_route():
    rng = np.random.default_rng(3)
    slots = {"qq": (0, 0), "pp": (1, 1), "QQ": (2, 2), "PP": (3, 3),
             "qQ": (0, 2), "Pq": (0, 3), "pQ": (2, 1), "pP": (1, 3)}
    for _ in range(40):
        cq = CQParams(
            classical_mass=rng.uniform(0.5, 2), classical_spring=rng.uniform(0.5, 2),
            damping=rng.uniform(0.3, 2), diffusion=rng.uniform(0.3, 2),
            quantum_mass=rng.uniform(0.5, 2), quantum_spring=rng.uniform(0.5, 2),
            coupling=rng.uniform(0.05, 1.0),
        )
        moments = hybrid_equal_time(cq)
        cov = solve_lyapunov(assemble_drift_noise(map_to_classical(cq)))
        scale = np.max(np.abs(cov))
        for name, idx in slots.items():
            assert abs(moments[name] - cov[idx]) <= 1e-9 * scale


def test_equal_time_zero_coupling_raises():
    with pytest.raises(CouplingZero):
        hybrid_equal_time(natural_cq(coupling=0.0))


def test_zero_diffusion_without_coupling_maps_to_undriven_pair():
    # D = 0 is valid when uncoupled: the saturated D0 = 1/(4D) is infinite,
    # but the induced diffusion D0 lam^2 is 0 at lam = 0
    cq = natural_cq(coupling=0.0, diffusion=0.0)
    assert cq.decoherence_rate == np.inf
    mapped = map_to_classical(cq)
    assert mapped.osc1.diffusion == 0.0
    assert mapped.osc2.diffusion == 0.0
    with pytest.raises(CouplingZero):
        hybrid_equal_time(cq)
    with pytest.raises(CouplingZero):
        thermal_limit(cq)


def test_gibbs_covariances_match_block_oracle():
    cq = natural_cq(coupling=0.3, diffusion=4.0)
    mapped = map_to_classical(cq)
    ours = gibbs_covariances(mapped, cq.effective_temperature)
    oracle = gibbs_covariance_oracle(mapped, cq.effective_temperature)
    np.testing.assert_allclose(ours, oracle, rtol=1e-12)


def test_effective_temperature_definition():
    cq = natural_cq(diffusion=2.0, damping=1.0)
    assert cq.effective_temperature == pytest.approx(1.0)


def test_thermal_deviation_decreases_with_diffusion():
    devs = [
        thermal_limit(natural_cq(coupling=0.1, diffusion=d)).max_deviation_gibbs
        for d in (10.0, 100.0, 1000.0, 10000.0)
    ]
    assert all(np.diff(devs) < 0)
    assert devs[-1] < 1e-2
    # normalised deviations shrink like 1/D^2
    slope = np.polyfit(np.log([10.0, 100.0, 1000.0, 10000.0]), np.log(devs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.3)


def test_equipartition_at_high_diffusion():
    cq = natural_cq(coupling=0.1, diffusion=1e4)
    moments = hybrid_equal_time(cq)
    assert moments["PP"] / cq.quantum_mass == pytest.approx(
        moments["pp"] / cq.classical_mass, rel=1e-4
    )


def test_gibbs_covariances_invert_the_energy_weight_matrix():
    from hybridosc.model import energy_weight_matrix

    params = map_to_classical(natural_cq(coupling=0.3, diffusion=2.0))
    np.testing.assert_array_equal(
        gibbs_covariances(params, 1.7), 1.7 * np.linalg.inv(energy_weight_matrix(params))
    )
