"""Parameter types and drift/noise assembly for the coupled oscillator pair.

The model is two harmonic oscillators joined by a spring of stiffness
``coupling``; oscillator 1 is damped and stochastically driven, oscillator 2
is undamped (it may still be driven).  Written in first-order form the state
is the 4-vector z = (q1, p1, q2, p2) and the dynamics is the linear SDE

    dz = -theta @ z dt + sigma @ dW,      sigma = diag(0, sqrt(D1), 0, sqrt(D2)),

an Ornstein-Uhlenbeck process.  Every module in this package uses the
(q1, p1, q2, p2) state ordering; nothing else is supported.

Units are SI throughout: masses in kg, spring constants in N/m, damping in
kg/s.  The diffusion coefficients multiply delta-correlated unit-variance
white noise forces, which puts them in N^2 s (inferred from the white-noise
normalisation; only ratios of the D's enter dimensionless predictions).
Derived frequencies and damping rates are in 1/s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

STATE_ORDER = ("q1", "p1", "q2", "p2")

_PARAM_KEYS = ("m1", "k1", "alpha", "D1", "m2", "k2", "D2", "lambda")


def _require_finite(name: str, value: float) -> float:
    """``value`` as a finite float, -0.0 read as 0.0: equal parameters give the same bits."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value + 0.0


@dataclass(frozen=True)
class OscillatorParams:
    """Physical parameters of a single oscillator.

    Parameters
    ----------
    mass:
        Mass m > 0 (kg).
    spring_constant:
        Stiffness kappa >= 0 (N/m).
    damping:
        Friction coefficient alpha >= 0 (kg/s).
    diffusion:
        White-noise strength D >= 0 (N^2 s).
    """

    mass: float
    spring_constant: float
    damping: float = 0.0
    diffusion: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mass", "spring_constant", "damping", "diffusion"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        for name in ("spring_constant", "damping", "diffusion"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def frequency(self) -> float:
        """Natural angular frequency sqrt(kappa/m) in 1/s."""
        return math.sqrt(self.spring_constant / self.mass)

    @property
    def damping_rate(self) -> float:
        """Momentum relaxation rate alpha/m in 1/s."""
        return self.damping / self.mass


@dataclass(frozen=True)
class SystemParams:
    """The coupled pair: a damped oscillator 1, an undamped oscillator 2.

    The interaction potential is coupling * (q1 - q2)^2 / 2, so the spring
    only couples positions.  Oscillator 2 must carry zero damping; that
    asymmetry is the whole point of the model.
    """

    osc1: OscillatorParams
    osc2: OscillatorParams
    coupling: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupling", _require_finite("coupling", self.coupling))
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.osc2.damping != 0.0:
            raise ValueError("oscillator 2 must be undamped (osc2.damping == 0)")

    @classmethod
    def natural_units(
        cls,
        coupling: float,
        d1: float = 1.0,
        d2: float = 1.0,
        damping_rate: float = 1.0,
    ) -> "SystemParams":
        """Identical oscillators with m = 1 kg and omega = 1/s.

        This is the parameter point used by every worked example in this
        package's tests; ``damping_rate`` sets gamma1 = alpha/m1.
        """
        return cls(
            osc1=OscillatorParams(1.0, 1.0, damping=damping_rate, diffusion=d1),
            osc2=OscillatorParams(1.0, 1.0, damping=0.0, diffusion=d2),
            coupling=coupling,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        """Build from the flat key-value layout used by config files.

        Expected keys: m1, k1, alpha, D1, m2, k2, D2, lambda.
        """
        missing = [k for k in _PARAM_KEYS if k not in data]
        if missing:
            raise ValueError(f"missing parameter keys: {missing}")
        m1, k1, alpha, d1, m2, k2, d2, lam = (data[k] for k in _PARAM_KEYS)
        return cls(OscillatorParams(m1, k1, alpha, d1), OscillatorParams(m2, k2, 0.0, d2), lam)

    @classmethod
    def from_json(cls, path) -> "SystemParams":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        o1, o2 = self.osc1, self.osc2
        values = (o1.mass, o1.spring_constant, o1.damping, o1.diffusion,
                  o2.mass, o2.spring_constant, o2.diffusion, self.coupling)
        return dict(zip(_PARAM_KEYS, values))


@dataclass(frozen=True)
class DriftNoise:
    """Drift matrix theta of the OU form, built from the parameters behind it.

    ``theta`` follows the sign convention dz = -theta z dt + sigma dW, so a
    stable system has eigenvalues of theta with positive real parts.  It
    encodes q1' = p1/m1, p1' = -(k1+lam) q1 - (alpha/m1) p1 + lam q2 and the
    mirrored equations for the undamped oscillator, and is read-only.
    ``params``, the :class:`SystemParams` theta comes from, is the one source
    of the noise strengths, the stability certificate and the energy, and the
    object's value: two of equal ``params`` are equal and hash alike.
    """

    params: SystemParams
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    state_order = STATE_ORDER

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise TypeError(f"params must be SystemParams, got {type(self.params).__name__}")
        o1, o2, lam = self.params.osc1, self.params.osc2, self.params.coupling
        theta = np.array(
            [
                [0.0, -1.0 / o1.mass, 0.0, 0.0],
                [o1.spring_constant + lam, o1.damping / o1.mass, -lam, 0.0],
                [0.0, 0.0, 0.0, -1.0 / o2.mass],
                [-lam, 0.0, o2.spring_constant + lam, 0.0],
            ]
        )
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite: k + lambda or 1/m leaves the float range")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def diffusion_matrix(self) -> np.ndarray:
        """sigma @ sigma.T = diag(0, D1, 0, D2), read from the parameters (no sqrt round trip)."""
        return np.diag([0.0, self.params.osc1.diffusion, 0.0, self.params.osc2.diffusion])


def assemble_drift_noise(params: SystemParams) -> DriftNoise:
    """The coupled pair's :class:`DriftNoise`; the noise strengths are read from ``params``
    where they are used."""
    return DriftNoise(params)


def characteristic_polynomial(params: SystemParams) -> np.ndarray:
    """Monic quartic whose roots are the eigenvalues of the drift matrix.

    Returns the five coefficients [1, c3, c2, c1, c0] of
    theta^4 + c3 theta^3 + c2 theta^2 + c1 theta + c0 with

        c3 = -gamma1
        c2 = w1^2 + w2^2 + lam/m1 + lam/m2
        c1 = -gamma1 (w2^2 + lam/m2)
        c0 = w1^2 w2^2 + w2^2 lam/m1 + w1^2 lam/m2.
    """
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    g1 = o1.damping_rate
    w1s = o1.frequency**2
    w2s = o2.frequency**2
    l1 = lam / o1.mass
    l2 = lam / o2.mass
    return np.array(
        [
            1.0,
            -g1,
            w1s + w2s + l1 + l2,
            -g1 * (w2s + l2),
            w1s * w2s + w2s * l1 + w1s * l2,
        ]
    )


def energy_weight_matrix(params: SystemParams) -> np.ndarray:
    """W such that the total energy is z^T W z / 2 in (q1, p1, q2, p2) order."""
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    return np.array(
        [
            [o1.spring_constant + lam, 0.0, -lam, 0.0],
            [0.0, 1.0 / o1.mass, 0.0, 0.0],
            [-lam, 0.0, o2.spring_constant + lam, 0.0],
            [0.0, 0.0, 0.0, 1.0 / o2.mass],
        ]
    )
