"""Hybrid classical-quantum layer built on the classical solver stack.

A classical oscillator (mass m_C, stiffness k_C, friction alpha, diffusion D)
couples through a position-position spring to a quantum oscillator
(m_Q, k_Q).  Consistency of the hybrid dynamics demands both classical
diffusion and quantum decoherence, with rates bounded by 4 D D0 >= 1; this
module saturates the bound, D0 = 1/(4 D), the minimal-decoherence choice.

For quadratic potentials the hybrid evolution of all symmetrised moments
maps exactly onto the two-oscillator classical stochastic system of
:mod:`hybridosc.model` under

    q2 -> Q+ (average branch),  q2~ -> i Q- (difference branch),
    D1 -> D,                    D2 -> D0 lam^2 = lam^2 / (4 D).

Everything downstream (stability, stationary covariances, spectral
correlators) then applies verbatim to the hybrid observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import TradeoffViolation
from .model import OscillatorParams, SystemParams, energy_weight_matrix
from .steadystate import closed_form_covariances


@dataclass(frozen=True)
class CQParams:
    """Parameters of the hybrid pair, trade-off saturated: D0 = 1/(4 D).

    The mapped classical pair checks each field; nonzero coupling needs D > 0.
    """

    classical_mass: float
    classical_spring: float
    damping: float
    diffusion: float
    quantum_mass: float
    quantum_spring: float
    coupling: float

    def __post_init__(self) -> None:
        for field in fields(self):
            object.__setattr__(self, field.name, float(getattr(self, field.name)))
        # the checks of the mapped types; D0 lam^2 is left to map_to_classical
        _classical_pair(self, induced_diffusion=0.0)
        if self.coupling > 0 and self.diffusion == 0.0:
            raise TradeoffViolation(
                "nonzero coupling requires classical diffusion (the trade-off bound "
                "cannot be met at D = 0)"
            )

    @property
    def decoherence_rate(self) -> float:
        """D0 = 1/(4 D), the saturated trade-off (inf at D = 0)."""
        if self.diffusion == 0.0:
            return math.inf
        return 1.0 / (4.0 * self.diffusion)

    @property
    def quantum_frequency(self) -> float:
        return math.sqrt(self.quantum_spring / self.quantum_mass)

    @property
    def effective_temperature(self) -> float:
        """T_C = D / (2 alpha), the Einstein-relation temperature of the bath."""
        if self.damping == 0.0:
            return math.inf
        return self.diffusion / (2.0 * self.damping)


def _classical_pair(cq: CQParams, induced_diffusion: float) -> SystemParams:
    return SystemParams(
        osc1=OscillatorParams(
            mass=cq.classical_mass,
            spring_constant=cq.classical_spring,
            damping=cq.damping,
            diffusion=cq.diffusion,
        ),
        osc2=OscillatorParams(
            mass=cq.quantum_mass,
            spring_constant=cq.quantum_spring,
            damping=0.0,
            diffusion=induced_diffusion,
        ),
        coupling=cq.coupling,
    )


def map_to_classical(cq: CQParams) -> SystemParams:
    """The equivalent classical pair for symmetrised hybrid observables.

    Oscillator 1 is the classical one unchanged; oscillator 2 represents the
    quantum average branch, undamped, with induced diffusion D2 = D0 *
    coupling^2 (OverflowError if that leaves the float range).  At zero
    coupling it vanishes: decoupled, the quantum oscillator has no decoherence.
    """
    induced = cq.decoherence_rate * cq.coupling**2 if cq.coupling else 0.0
    if not math.isfinite(induced):
        raise OverflowError(
            f"induced diffusion lam^2/(4 D) overflows at D = {cq.diffusion}, lam = {cq.coupling}"
        )
    return _classical_pair(cq, induced)


class Occupation(NamedTuple):
    n: float
    temperature: float


def occupation_number(cq: CQParams) -> Occupation:
    """Stationary excitation number of the quantum oscillator.

    Identical-oscillator, leading-order closed form in the effective
    temperature T_C = D/(2 alpha):

        N = (omega/(2 T_C) + 2 T_C/omega - 1) / 2.

    N is minimised at T_C = omega/2 where N = 1/2.  For T_C >> omega,
    N ~ T_C/omega (thermalisation to the classical temperature).  This
    published formula is the leading order of the mapped dynamics at
    D0 = 1/D, four times the saturated rate of this module; at D0 = 1/(4 D)
    the dynamics give :func:`occupation_exact`.
    """
    w = cq.quantum_frequency
    if w == 0.0:
        raise ValueError("occupation number requires a confining quantum spring")
    t_c = cq.effective_temperature
    if not math.isfinite(t_c):
        raise ValueError("occupation number requires nonzero damping")
    if t_c <= 0:
        raise ValueError("effective temperature must be positive")
    n = 0.5 * (w / (2.0 * t_c) + 2.0 * t_c / w - 1.0)
    return Occupation(n=float(n), temperature=float(t_c))


def occupation_from_keldysh(cq: CQParams) -> float:
    """N = m_Q omega_Q <<Q+ Q+>>(0) - 1/2 from the ``keldysh`` of :func:`hybrid_correlators`.

    The leading order of :func:`occupation_exact`, for any pair; with identical
    oscillators its minimum is 0 at T_C = omega/4.  :func:`occupation_number` is
    the same order at D0 = 1/D, which quadruples the decoherence term omega/(2 T_C).
    """
    keldysh = hybrid_correlators(cq, np.zeros(1)).keldysh[0]
    return float(cq.quantum_mass * cq.quantum_frequency * keldysh - 0.5)


def occupation_exact(cq: CQParams) -> float:
    """Exact excitation number nu - 1/2 (hbar = 1; CouplingZero at lam = 0).

    nu = sqrt(<<QQ>> <<PP>>) is the symplectic eigenvalue of the (Q, P) block of
    :func:`hybrid_equal_time` (Williamson 1936); <<QP>> is 0 in the closed form.
    """
    moments = hybrid_equal_time(cq)
    return math.sqrt(moments["QQ"] * moments["PP"]) - 0.5


@dataclass(frozen=True, eq=False)
class HybridCorrelators:
    """Leading-order hybrid two-point functions on a time grid.

    ``keldysh`` is <<Q+(0) Q+(t)>> (the statistical propagator), ``classical``
    is <<q(0) q(t)>>, ``classical_response`` is <<q(0) q~(t)>> (real,
    supported on t <= 0) and ``retarded`` is <<Q+(0) Q-(t)>> (imaginary,
    supported on t <= 0).  <<Q- Q->> vanishes identically and is not stored.
    """

    times: np.ndarray
    classical: np.ndarray
    keldysh: np.ndarray
    classical_response: np.ndarray
    retarded: np.ndarray


def hybrid_correlators(cq: CQParams, t_grid: np.ndarray) -> HybridCorrelators:
    """The small-coupling table of :func:`map_to_classical`'s pair, relabelled.

    For any pair, :func:`hybridosc.spectral.correlators_small_lambda` gives
    ``classical`` = g11, ``classical_response`` = response_11, ``retarded`` =
    -i response_22 and ``keldysh`` = g22 + D/(2 g1 m_C m_Q w_Q^2) cos(w_Q t).
    For identical oscillators (m = m_C = m_Q, common omega, s = sqrt(omega^2 -
    gamma1^2/4)) these are the paper's leading order:

        <<q(0)q(t)>>   = D/(2 g1 w^2 m^2) e^{-g1|t|/2} (cos s|t| + g1/(2s) sin s|t|)
        <<Q+(0)Q+(t)>> = (g1/(8D) + D/(2 g1 w^2 m^2)) cos(w|t|)
        <<q(0)q~(t)>>  = (1/m) e^{g1 t/2} sin(s t)/s * theta(-t)
        <<Q+(0)Q-(t)>> = -(i/(m w)) sin(w t) * theta(-t)

    with ``classical`` also carrying the table's O(lam^2) lam^2/(8 D g1 m^2 w^2) cos(w t).
    The induced decoherence scales as lam^2, cancelling the lam^-2 growth of the
    classical analogue, so the entries stay finite as lam -> 0; the table's
    refusals apply, CouplingZero where lam^2 = 0 among them.
    """
    from . import spectral  # here, not at the top: `hybrid-osc cq` loads no spectral

    pair = map_to_classical(cq)
    table = spectral.correlators_small_lambda(pair, t_grid)
    o1, o2 = pair.osc1, pair.osc2
    # the D1 part of E[Q+^2], O(lam^2) relative to g22 at fixed D2 and so left out of the
    # table, leads at the mapped D2 = lam^2/(4 D)
    d1_term = o1.diffusion / (2 * o1.damping_rate * o1.mass * o2.mass * o2.frequency**2)
    return HybridCorrelators(
        times=table.times,
        classical=table.g11,
        keldysh=table.g22 + d1_term * np.cos(o2.frequency * table.times),
        classical_response=table.response_11,
        retarded=-1j * table.response_22,
    )


# hybrid moment name -> (row, column) of the mapped classical covariance
EQUAL_TIME_SLOTS = {
    "qq": (0, 0), "pp": (1, 1), "QQ": (2, 2), "PP": (3, 3),
    "qQ": (0, 2), "Pq": (0, 3), "pQ": (2, 1), "pP": (1, 3),
}


def hybrid_equal_time(cq: CQParams) -> dict[str, float]:
    """All non-zero equal-time second moments of the hybrid state.

    These are the closed-form stationary covariances of the mapped classical
    pair with D1 -> D and D2 -> lam^2/(4D), relabelled with hybrid variable
    names: lowercase q, p for the classical oscillator, uppercase Q, P for
    the quantum one.  Notable entries:

        <<P q>> = -lam/(8 D),    <<p Q>> = +(lam/(8 D)) (m_C/m_Q),

    equal and opposite up to the mass ratio; both vanish in equilibrium, so
    they are the fingerprint of the non-equilibrium stationary state.

    Raises
    ------
    CouplingZero
        At lam = 0 (the closed forms carry 1/lam factors).
    """
    cov = closed_form_covariances(map_to_classical(cq))
    return {name: float(cov[idx]) for name, idx in EQUAL_TIME_SLOTS.items()}


def gibbs_covariances(params: SystemParams, temperature: float) -> np.ndarray:
    """Equal-time covariances of the classical Gibbs state exp(-H/T).

    H is the full quadratic Hamiltonian including the coupling spring, so
    this is a 4x4 Gaussian moment computation: C = T * W^{-1} with W the
    energy weight matrix.  Positions and momenta decouple; momenta are
    diagonal with m_i T.
    """
    if temperature <= 0 or not math.isfinite(temperature):
        raise ValueError("temperature must be positive and finite")
    return temperature * np.linalg.inv(energy_weight_matrix(params))


@dataclass(frozen=True)
class ThermalReport:
    """Hybrid stationary moments compared against the Gibbs state at T_C.

    Deviations are normalised like correlations: |hybrid - gibbs| divided by
    the geometric mean of the corresponding Gibbs variances, which keeps the
    q-p cross moments (zero in equilibrium) comparable with the rest.
    """

    temperature: float
    equal_time: dict
    gibbs: dict
    deviation_by_moment: dict
    max_deviation_gibbs: float


def thermal_limit(cq: CQParams) -> ThermalReport:
    """Quantify how close the stationary hybrid state is to thermal.

    At large D (T_C >> omega) all moments converge to the Gibbs values at
    beta = 1/T_C, with the non-equilibrium q-p cross moments dying off as
    1/D; the normalised deviations shrink like 1/D^2.
    """
    t_c = cq.effective_temperature
    exact = hybrid_equal_time(cq)
    gibbs_cov = gibbs_covariances(map_to_classical(cq), t_c)
    gibbs = {name: float(gibbs_cov[idx]) for name, idx in EQUAL_TIME_SLOTS.items()}
    deviation = {
        name: abs(exact[name] - gibbs[name]) / math.sqrt(gibbs_cov[i, i] * gibbs_cov[j, j])
        for name, (i, j) in EQUAL_TIME_SLOTS.items()
    }
    return ThermalReport(
        temperature=float(t_c),
        equal_time=exact,
        gibbs=gibbs,
        deviation_by_moment=deviation,
        max_deviation_gibbs=max(deviation.values()),
    )
