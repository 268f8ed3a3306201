"""Steady-state existence certificates for the coupled pair.

An OU process has a (Gaussian) stationary state iff every eigenvalue of the
drift matrix has strictly positive real part.  For this model the
characteristic quartic is simple enough that the Routh-Hurwitz conditions
collapse to coefficient positivity plus two reduced inequalities, and the
certificate can be evaluated without touching an eigensolver; the Lyapunov
solve uses only that verdict.  :func:`routh_hurwitz` also cross-checks a dense
eigenvalue computation against the quartic roots, so its report carries both
the algebraic verdict and the spectrum it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystem
from .model import SystemParams, assemble_drift_noise, characteristic_polynomial

# agreement demanded between companion-matrix roots and the dense eigensolver
_EIG_XCHECK_RTOL = 1e-9


@dataclass(frozen=True)
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

    dn = assemble_drift_noise(params)
    eigs = _sorted_complex(np.linalg.eigvals(dn.theta))
    roots = _sorted_complex(np.roots(characteristic_polynomial(params)))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    mismatch = float(np.max(np.abs(eigs - roots)))
    # repeated roots are only determined to sqrt(eps); widen the cross-check
    # tolerance when the spectrum is nearly degenerate
    sep = min(
        abs(eigs[i] - eigs[j]) for i in range(4) for j in range(i + 1, 4)
    )
    sqrt_eps = float(np.sqrt(np.finfo(float).eps))
    tol = _EIG_XCHECK_RTOL * scale + 16.0 * sqrt_eps * scale * min(
        1.0, sqrt_eps * scale / max(sep, 1e-300)
    )
    if mismatch > tol:
        raise SingularSystem(
            f"companion-matrix roots and dense eigenvalues disagree by {mismatch:.3e}"
        )

    return StabilityReport(
        eigenvalues=eigs,
        min_real_part=float(np.min(eigs.real)),
        routh_hurwitz_pass=passed,
        criteria_detail=criteria,
        reason=None if passed else "marginal",
    )
