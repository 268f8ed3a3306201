"""Steady-state existence certificates for the coupled pair.

An OU process has a (Gaussian) stationary state iff every eigenvalue of the
drift matrix has strictly positive real part.  For this model the
characteristic quartic is simple enough that the Routh-Hurwitz conditions
collapse to coefficient positivity plus two reduced inequalities, and the
certificate can be evaluated without touching an eigensolver; the Lyapunov
solve uses only that verdict.  :func:`routh_hurwitz` also runs one dense
eigensolve and cross-checks it against the quartic coefficient by coefficient
(:func:`spectrum_mismatch`), so its report carries both the algebraic verdict
and the spectrum it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystem
from .model import SystemParams, assemble_drift_noise, characteristic_polynomial

# agreement demanded between the quartic and the dense eigenvalues' coefficients
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Outcome of the stability certification.

    ``criteria_detail`` maps each algebraic condition to its value; the
    certificate passes iff every value is strictly positive.  ``reason`` is
    "marginal" when the system sits on the stability boundary (zero coupling
    or zero damping), else None.
    """

    eigenvalues: np.ndarray
    min_real_part: float
    routh_hurwitz_pass: bool
    criteria_detail: dict = field(default_factory=dict)
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "min_real_part": self.min_real_part,
            "routh_hurwitz_pass": self.routh_hurwitz_pass,
            "criteria_detail": dict(self.criteria_detail),
            "reason": self.reason,
        }


def _sorted_complex(values: np.ndarray) -> np.ndarray:
    # rounding the real part orders a pair split only by rounding noise by imaginary part
    return np.asarray(sorted(values, key=lambda z: (round(z.real, 12), z.imag)))


def _hurwitz_criteria(params: SystemParams) -> tuple[dict[str, float], bool]:
    """The six criteria and the verdict (all > 0), without an eigensolver."""
    _, c3, c2, c1, c0 = characteristic_polynomial(params)
    l2 = params.coupling / params.osc2.mass
    criteria = {
        # coefficients of P(-theta): all must be positive for Hurwitz stability
        "coeff_theta3": float(-c3),
        "coeff_theta2": float(c2),
        "coeff_theta1": float(-c1),
        "coeff_theta0": float(c0),
        "reduced_1": (params.osc2.frequency**2 + l2) ** 2 + l2**2,
        "reduced_2": l2**2,
    }
    return criteria, all(v > 0.0 for v in criteria.values())


def spectrum_mismatch(params: SystemParams) -> tuple[np.ndarray, float]:
    """Sorted drift eigenvalues and their disagreement with the quartic.

    The coefficients of prod(x - lambda_i) from one eigensolve are compared
    with :func:`characteristic_polynomial`, coefficient k scaled by
    max(1, e_k(|lambda|)) (e_k: k-th elementary symmetric polynomial, which
    bounds |c_k|).  No roots are paired, so repeated and defective
    eigenvalues, resolved only to sqrt(eps), still match to working precision.
    """
    eigs = _sorted_complex(np.linalg.eigvals(assemble_drift_noise(params).theta))
    scale = np.maximum(1.0, np.poly(-np.abs(eigs)))
    diff = np.abs(np.poly(eigs) - characteristic_polynomial(params))
    return eigs, float(np.max(diff / scale))


def routh_hurwitz(params: SystemParams) -> StabilityReport:
    """Certify existence of the steady state.

    The conditions are evaluated on the sign-flipped quartic theta^4 +
    a3 theta^3 + a2 theta^2 + a1 theta + a0 (whose roots must have negative
    real parts): positivity of a3..a0, plus the two reduced conditions

        (w2^2 + lam/m2)^2 + (lam/m2)^2 > 0   and   (lam/m2)^2 > 0.

    The second implies the first.  Given coefficient positivity the pair is
    equivalent to the Hurwitz minor a3 a2 a1 - a1^2 - a3^2 a0, which for this
    quartic is exactly gamma1^2 lam^2 / (m1 m2), being > 0.

    All are strict; zero coupling or zero damping therefore reports
    ``pass=False`` with reason "marginal" rather than raising, because those
    limits are physically meaningful elsewhere in the package.
    """
    criteria, passed = _hurwitz_criteria(params)

    eigs, mismatch = spectrum_mismatch(params)
    if mismatch > SPECTRUM_TOL:
        raise SingularSystem(
            f"characteristic quartic and dense eigenvalues disagree by {mismatch:.3e}"
        )

    return StabilityReport(
        eigenvalues=eigs,
        min_real_part=float(np.min(eigs.real)),
        routh_hurwitz_pass=passed,
        criteria_detail=criteria,
        reason=None if passed else "marginal",
    )
