"""Frequency-domain two-point functions, poles, residue transforms.

Stationary correlation and response functions of the coupled pair, obtained
by inverting the Gaussian kernel of the doubled-field (response-variable)
representation of the dynamics.  Fields are ordered (q1, q1~, q2, q2~) where
the tilde marks the response variable of each oscillator.

Conventions (fixed once; every formula below is stated in these):

* Fourier transform pair  G(t) = (1/2pi) \\int G(w) e^{-iwt} dw.
* With A(w)  = m1 w^2 - i alpha w - k1 - lam,
       A*(w) = m1 w^2 + i alpha w - k1 - lam   (coefficient conjugate),
       B(w)  = m2 w^2 - k2 - lam,
  the response denominator is  D(w) = A(w) B(w) - lam^2.  For a stable
  system all four roots of D lie strictly in the upper half plane and equal
  i times the drift-matrix eigenvalues; its coefficient conjugate D*(w) has
  the reflected roots in the lower half plane, and |D(w)|^2 = D(w) D*(w) on
  the real axis.
* Consequently response functions, which carry 1/D(w), are supported on
  t <= 0: a response-variable insertion correlates only with observations
  made after it.
* Correlation entries carry 1/|D(w)|^2 and decay in both time directions.
* D(w) = m1 m2 P(-iw), with P the drift's characteristic quartic; its
  coefficients are read from :func:`hybridosc.model.characteristic_polynomial`.
* One function of A, A*, B gives the seven numerators over D or |D|^2; the
  closed form evaluates it at a real w and the residue sums at the poles.

The four upper roots come in the reflection pattern {W1, W2, -W1*, -W2*};
W1 and W2 are the two independent generators in the open first quadrant
(W1 the more strongly damped one, continuously connected to the damped
oscillator's pole; W2 to the undamped oscillator's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationFailure,
    CouplingZero,
    DegeneratePoles,
    NotStable,
    OverdampedUnsupported,
    PerfectCorrelation,
    PoleOnAxis,
)
from .model import SystemParams, characteristic_polynomial

FIELD_ORDER = ("q1", "q1_tilde", "q2", "q2_tilde")

_NEWTON_ROUNDS = 2
_AXIS_TOL = 1e-9          # relative: treat |Re root| below this as "on the imaginary axis"
_SEPARATION_TOL = 1e-8    # relative minimum pole separation for residue arithmetic
_IMAG_LEAK_TOL = 1e-8     # tolerated imaginary leakage in provably real outputs


# ---------------------------------------------------------------------------
# frequency-domain kernel and its inverse


def _abc(params: SystemParams, w):
    """Factor values A(w), A*(w), B(w) at a real or complex scalar or array."""
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    a = o1.mass * w**2 - 1j * o1.damping * w - o1.spring_constant - lam
    a_conj = o1.mass * w**2 + 1j * o1.damping * w - o1.spring_constant - lam
    b = o2.mass * w**2 - o2.spring_constant - lam
    return a, a_conj, b


def greens_inverse(params: SystemParams, omega: float) -> np.ndarray:
    """The 4x4 frequency-domain kernel whose inverse is the Green's function.

    Entry layout in (q1, q1~, q2, q2~) order: the (q, q~) slots hold the
    deterministic operators A*(w) / A(w) / B(w), the (q~, q~) slots the noise
    strengths -D1 / -D2, and the coupling sits on the q/q~ cross blocks.
    """
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    a, a_conj, b = _abc(params, complex(omega))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = a_conj
    m[0, 3] = lam
    m[1, 0] = a
    m[1, 1] = -o1.diffusion
    m[1, 2] = lam
    m[2, 1] = lam
    m[2, 3] = b
    m[3, 0] = lam
    m[3, 2] = b
    m[3, 3] = -o2.diffusion
    return m


_SLOTS = {  # (row, col) of each two-point function in the (q1, q1~, q2, q2~) matrix
    "g11": (0, 0), "g22": (2, 2), "g12": (0, 2), "g21": (2, 0),
    "response_11": (0, 1), "response_22": (2, 3), "response_21": (2, 1),
}


@dataclass(frozen=True)
class GreensFrequency:
    """Closed-form Green's function at one real frequency; ``g11`` ... ``response_21``
    read their ``_SLOTS`` entries of ``matrix``."""

    omega: float
    matrix: np.ndarray

    field_order = FIELD_ORDER

    def __getattr__(self, name: str) -> complex:
        if name not in _SLOTS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return complex(self.matrix[_SLOTS[name]])


def _numerators(params: SystemParams, a, a_conj, b) -> tuple:
    """The seven numerators in ``_SLOTS`` order (g over |D|^2, responses over D) at A, A*, B."""
    lam = params.coupling
    d1, d2 = params.osc1.diffusion, params.osc2.diffusion
    return (
        d1 * b**2 + lam**2 * d2,
        d2 * a * a_conj + lam**2 * d1,
        -lam * (d1 * b + d2 * a_conj),
        -lam * (d1 * b + d2 * a),
        b,
        a,
        0.0 * b - lam,
    )


def greens(params: SystemParams, omega: float) -> GreensFrequency:
    """Closed-form components of the inverse kernel at real ``omega``.

    Equal to the numerical inverse of :func:`greens_inverse` to full
    precision; assembled from the factor functions by the numerators that the
    residue sums evaluate at the poles (:func:`_numerators`):

        G_q1q1 = (D1 B^2 + lam^2 D2) / |D|^2
        G_q2q2 = (D2 A A* + lam^2 D1) / |D|^2
        G_q1q2 = -lam (D1 B + D2 A*) / |D|^2       (conjugate in slot q2,q1)
        G_q1q1~ = B / D,   G_q2q2~ = A / D,   G_q2q1~ = G_q1q2~ = -lam / D

    with the remaining non-zero slots fixed by coefficient conjugation and
    the response-variable diagonal identically zero.

    Raises
    ------
    PoleOnAxis
        If |D(omega)| vanishes at the requested real frequency relative to
        the size of its constituent terms (reachable only at zero coupling,
        where the undamped factor has real zeros).
    """
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    a, a_conj, b = _abc(params, complex(omega))
    den_up = a * b - lam**2
    den_lo = a_conj * b - lam**2
    # magnitude of the constituent terms, immune to cancellation inside A or B
    w = abs(float(omega))
    a_size = o1.mass * w**2 + o1.damping * w + o1.spring_constant + lam
    b_size = o2.mass * w**2 + o2.spring_constant + lam
    scale = a_size * b_size + lam**2
    if abs(den_up) <= 1e-12 * scale:
        raise PoleOnAxis(f"denominator vanishes at omega = {omega}")
    dd = den_up * den_lo

    m = np.zeros((4, 4), dtype=complex)
    for name, value in zip(_SLOTS, _numerators(params, a, a_conj, b)):
        m[_SLOTS[name]] = value / (dd if name.startswith("g") else den_up)
    # lower response slots: the coefficient conjugates of the upper ones
    m[1, 0] = b / den_lo
    m[3, 2] = a_conj / den_lo
    m[1, 2] = m[3, 0] = -lam / den_lo
    m[0, 3] = m[2, 1]
    return GreensFrequency(omega=float(omega), matrix=m)


# ---------------------------------------------------------------------------
# poles


def response_denominator_coefficients(params: SystemParams) -> np.ndarray:
    """Descending coefficients of D(w) = A(w) B(w) - lam^2 = m1 m2 P(-iw) (quartic in w)."""
    m1m2 = params.osc1.mass * params.osc2.mass
    return m1m2 * characteristic_polynomial(params) * 1j ** np.arange(5)


def _upper_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the response denominator from its ``coeffs``, Newton-polished, sorted by real part."""
    roots = np.roots(coeffs)
    deriv = coeffs[:-1] * np.arange(len(coeffs) - 1, 0, -1)
    for _ in range(_NEWTON_ROUNDS):
        slope = np.polyval(deriv, roots)
        ok = np.abs(slope) > 0
        roots = np.where(ok, roots - np.polyval(coeffs, roots) / np.where(ok, slope, 1.0), roots)
    return roots[np.argsort(roots.real)]


@dataclass(frozen=True)
class PoleSet:
    """The two independent first-quadrant poles and the full upper-plane set.

    ``omega1``/``omega2`` are the generators: omega1 carries the larger
    imaginary part (the heavily damped branch), omega2 the smaller (the
    branch whose damping is coupling-induced).  ``upper_roots`` holds all
    four roots {W1, W2, -W1*, -W2*} of the response denominator.
    """

    omega1: complex
    omega2: complex
    upper_roots: np.ndarray

    def to_dict(self) -> dict:
        return {
            "omega1": {"re": self.omega1.real, "im": self.omega1.imag},
            "omega2": {"re": self.omega2.real, "im": self.omega2.imag},
            "upper_roots": [[z.real, z.imag] for z in self.upper_roots],
        }


def _root_scale(roots: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(roots))))


def _check_separation(roots: np.ndarray, context: str) -> None:
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.diag(np.full(len(roots), np.inf))
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, j] < _SEPARATION_TOL * _root_scale(roots):
        raise DegeneratePoles(f"{context}: poles {roots[i]:.6g} and {roots[j]:.6g} nearly coincide")


def find_poles(params: SystemParams) -> PoleSet:
    """Locate the independent first-quadrant pole pair.

    Roots are found as companion-matrix eigenvalues of the denominator
    quartic and polished with Newton steps.  The returned pair satisfies the
    reflection structure: together with -conj(pair) it exhausts the quartic's
    roots, and the coefficient-conjugated quartic has exactly the complex
    conjugates as roots.

    Raises
    ------
    DegeneratePoles
        If two roots coincide within tolerance (near-critical damping, or
        couplings so small the undamped branch degenerates).
    ClassificationFailure
        If there are not exactly two roots in the open first quadrant with
        matching mirrors (e.g. zero coupling, or the deeply overdamped
        regime where roots sit on the imaginary axis).
    """
    roots = _upper_roots(response_denominator_coefficients(params))
    _check_separation(roots, "find_poles")
    scale = _root_scale(roots)
    if np.any(roots.imag <= _AXIS_TOL * scale):
        raise ClassificationFailure(
            "denominator roots do not all lie in the upper half plane; "
            "the system is not strictly stable"
        )
    first_quadrant = [z for z in roots if z.real > _AXIS_TOL * scale]
    if len(first_quadrant) != 2:
        raise ClassificationFailure(
            f"expected 2 first-quadrant poles, found {len(first_quadrant)}"
        )
    mirrors = [z for z in roots if z.real <= _AXIS_TOL * scale]
    for z in first_quadrant:
        if min(abs(w - (-np.conj(z))) for w in mirrors) > 1e-6 * scale:
            raise ClassificationFailure(f"pole {z:.6g} has no mirror partner")
    first_quadrant.sort(key=lambda z: -z.imag)
    return PoleSet(
        omega1=complex(first_quadrant[0]),
        omega2=complex(first_quadrant[1]),
        upper_roots=roots,
    )


def _small_coupling(params: SystemParams, what: str):
    """(g1, w1^2, w2^2, w2, s1, R) of the small-coupling forms named ``what``, behind their
    one gate: NotStable for g1 = 0 or w2 = 0, then OverdampedUnsupported for w1 <= g1/2."""
    o1, o2 = params.osc1, params.osc2
    g1 = o1.damping_rate
    w1s, w2s = o1.frequency**2, o2.frequency**2
    if g1 == 0.0 or w2s == 0.0:
        raise NotStable(f"{what} require w2 > 0 and damping on oscillator 1")
    if w1s <= g1**2 / 4:
        raise OverdampedUnsupported(f"{what} require the underdamped regime (w1 > gamma1/2)")
    s1 = np.sqrt(w1s - g1**2 / 4)
    return g1, w1s, w2s, o2.frequency, s1, (w1s - w2s) ** 2 + g1**2 * w2s


def perturbative_poles(params: SystemParams, order: int = 2) -> PoleSet:
    """Small-coupling expansion of the pole pair.

    At ``order=1`` the poles shift only along the real axis:

        W1 = sqrt(w1^2 - g1^2/4) + i g1/2 + lam/(2 m1 sqrt(w1^2 - g1^2/4))
        W2 = w2 + lam/(2 m2 w2)

    At ``order=2`` the real shifts gain their quadratic corrections and the
    imaginary parts move for the first time, by

        dgamma1 = -lam^2 g1 / (2 m1 m2 R),   dgamma2 = +lam^2 g1 / (2 m1 m2 R),

    with R = (w1^2 - w2^2)^2 + g1^2 w2^2.  The expansion is meaningful when
    lam^2/(m1 m2) << w1 w2 g1^2 and requires the underdamped regime.

    Raises
    ------
    NotStable, OverdampedUnsupported
        As :func:`_small_coupling` (no damping or w2 = 0; then w1 <= g1/2).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    g1, w1s, w2s, w2, s1, big_r = _small_coupling(params, "small-coupling poles")
    m1, m2, lam = params.osc1.mass, params.osc2.mass, params.coupling

    d_w1 = lam / (2 * m1 * s1)
    d_w2 = lam / (2 * m2 * w2)
    d_g1 = 0.0
    d_g2 = 0.0
    if order >= 2:
        d_w1 *= 1 + (lam / (m2 * big_r)) * (
            w1s - w2s - g1**2 / 2
            - (m2 / (4 * m1)) * (g1**2 * w2s + (w1s - w2s) ** 2) / (w1s - g1**2 / 4)
        )
        d_w2 *= 1 - (lam / (m1 * big_r)) * ((m1 / (4 * m2)) * big_r / w2s + w1s - w2s)
        d_g1 = -(lam**2) * g1 / (2 * m1 * m2 * big_r)
        d_g2 = +(lam**2) * g1 / (2 * m1 * m2 * big_r)

    omega1 = complex(s1 + d_w1, g1 / 2 + d_g1)
    omega2 = complex(w2 + d_w2, d_g2)
    upper = np.array([omega1, omega2, -np.conj(omega1), -np.conj(omega2)])
    return PoleSet(omega1=omega1, omega2=omega2, upper_roots=upper[np.argsort(upper.real)])


# ---------------------------------------------------------------------------
# time-domain correlators


@dataclass(frozen=True)
class CorrelatorTable:
    """Sampled unequal-time two-point functions.

    ``g11``, ``g22`` are position autocorrelations E[q_i(s) q_i(s+t)];
    ``g12`` is E[q1(s) q2(s+t)] and ``g21`` its time reflection.  The
    response entries pair a position with the other (or own) oscillator's
    response variable and are supported on t <= 0.
    """

    times: np.ndarray
    g11: np.ndarray
    g22: np.ndarray
    g12: np.ndarray
    g21: np.ndarray
    response_11: np.ndarray
    response_22: np.ndarray
    response_21: np.ndarray
    method: str

    PAIR_COLUMNS = tuple(_SLOTS)


def _stable_poles(params: SystemParams, context: str):
    """Roots of D and |D|^2, leads, numerator rows at the |D|^2 roots; or DegeneratePoles/PoleOnAxis."""
    coeffs = response_denominator_coefficients(params)
    roots_up = _upper_roots(coeffs)
    if np.any(roots_up.imag <= 0.0):
        raise PoleOnAxis(f"{context}: requires a strictly stable system (all poles off axis)")
    roots_all = np.concatenate([roots_up, np.conj(roots_up)])
    _check_separation(roots_all, context)
    nums = np.array(_numerators(params, *_abc(params, roots_all)))
    return roots_up, roots_all, coeffs[0], coeffs[0] * np.conj(coeffs[0]), nums


def _residue_transform(nums: np.ndarray, roots: np.ndarray, lead: complex, t: np.ndarray) -> np.ndarray:
    """Inverse transforms of N_r(w) / (lead * prod (w - roots)) by residues; nums[r] = N_r(roots).

    ``nums`` stacks one numerator per row, and row r of the (rows, *t.shape)
    result is its transform; the pole differences, residue coefficients and
    both phase matrices are formed once for all rows.  Upper-half poles are
    collected for t < 0 (contour closed above, +2pi i), lower-half poles for
    t >= 0.  Simple poles assumed; the residue at p_k is
    N(p_k) / (lead * prod_{j != k} (p_k - p_j)).
    """
    diffs = roots[:, None] - roots[None, :]
    np.fill_diagonal(diffs, 1.0)
    coeff = nums / (lead * np.prod(diffs, axis=1))
    upper = roots.imag > 0
    out = np.zeros((len(nums), *t.shape), dtype=complex)
    for side, poles, factor in ((t < 0, upper, 1j), (t >= 0, ~upper, -1j)):
        phases = np.exp(-1j * np.outer(t[side], roots[poles]))
        out[:, side] = [(phases * row).sum(axis=1) for row in factor * coeff[:, poles]]
    return out


def _real_part(values: np.ndarray, context: str) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    leak = float(np.max(np.abs(values.imag), initial=0.0))
    if leak > _IMAG_LEAK_TOL * scale:
        raise DegeneratePoles(f"{context}: imaginary leakage {leak:.3e} signals unreliable residues")
    return np.array(values.real)


def _times(t_grid) -> np.ndarray:
    """``t_grid`` as a float array; ValueError on a non-finite time."""
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("correlator times must be finite")
    return t


def correlators_exact(params: SystemParams, t_grid: np.ndarray) -> CorrelatorTable:
    """Exact residue-sum correlators on ``t_grid``.

    Valid whenever all poles are simple and strictly off the real axis;
    this includes the overdamped regime.  Near-degenerate poles (couplings
    below roughly 1e-4 in natural units, where the undamped branch and its
    reflection collide across the axis) are refused because their residues
    cancel to all available precision; use the small-coupling forms there.
    Both tables raise ValueError on a non-finite time (:func:`_times`).
    """
    t_grid = _times(t_grid)
    roots_up, roots_all, lead4, lead8, nums = _stable_poles(params, "correlators_exact")
    # responses have the poles of 1/D, which roots_all starts with; all are
    # upper, so their transform vanishes for t >= 0
    raw = [*_residue_transform(nums[:4], roots_all, lead8, t_grid),
           *_residue_transform(nums[4:, :4], roots_up, lead4, t_grid)]
    values = {name: _real_part(row, name) for name, row in zip(_SLOTS, raw)}
    return CorrelatorTable(times=t_grid, method="exact-residue", **values)


def exact_equal_time(params: SystemParams) -> dict[str, float]:
    """Equal-time values and first derivatives of the exact correlators.

    Besides the three position covariances this exposes the one-sided time
    derivatives that map onto the position-momentum covariances:
    m2 * d/dt g12(0+) = E[q1 p2] and m1 * d/dt g21(0+) = E[q2 p1].
    All eight come from one residue transform at t = 0 (the t >= 0 branch) of
    the four g numerators and their slopes -i w N, and each is its real part,
    taken without the imaginary-leakage refusal of :func:`correlators_exact`.
    """
    _, roots_all, _, lead8, nums = _stable_poles(params, "exact_equal_time")
    g = nums[:4]
    values = _residue_transform(np.vstack([g, -1j * roots_all * g]), roots_all, lead8, np.zeros(1))

    out: dict[str, float] = {}
    for name, value, slope in zip(_SLOTS, values[:4, 0].real, values[4:, 0].real):
        out[f"{name}_0"], out[f"d{name}_dt0"] = float(value), float(slope)
    out["q1p2"] = params.osc2.mass * out["dg12_dt0"]
    out["q2p1"] = params.osc1.mass * out["dg21_dt0"]
    return out


def correlators_small_lambda(params: SystemParams, t_grid: np.ndarray) -> CorrelatorTable:
    """Leading small-coupling closed forms of the correlators.

    General parameters (s1 = sqrt(w1^2 - g1^2/4), R = (w1^2-w2^2)^2 + g1^2 w2^2):

        g11(t) = D1/(2 g1 m1^2 w1^2) e^{-g1|t|/2} (cos s1|t| + g1/(2 s1) sin s1|t|)
                 + D2/(2 g1 m1 m2 w2^2) cos(w2 t)
        g22(t) = D2 m1 R / (2 g1 w2^2 m2 lam^2) cos(w2 t)
        g12(t) = D2/(2 m2 w2 lam) (-sin(w2 t) - (w2^2-w1^2)/(g1 w2) cos(w2 t))
        g21(t) = g12(-t)
        response_11(t) = (1/m1) e^{g1 t/2} sin(s1 t)/s1 * theta(-t)
        response_22(t) = (1/(m2 w2)) sin(w2 t) * theta(-t)
        response_21(t) = O(lam), reported as zero.

    The cross correlator deserves a note: its even part is a smooth cosine
    but its leading oscillation is odd in t, fixed by the exact stationary
    value E[q1 p2] = -D2/(2 lam) < 0.  An even sin(w2|t|) continuation would
    produce a slope of the wrong sign for t > 0 (verified against the exact
    residue transform); consequently g12 != g21, the two being time
    reflections of one another.  Regime: D2 >> lam^2 D1 / (m1^2 R); g22 omits
    the D1/(2 g1 m1 m2 w2^2) that leads at D2 = O(lam^2), all of g22 at D2 = 0.
    The regime is stated, not enforced: :func:`hybridosc.cq.hybrid_correlators`
    reads this table at D2 = lam^2/(4 D) and adds that term itself.
    """
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    if lam**2 == 0.0:  # g22 divides by lam^2, which underflows below about 1e-162
        raise CouplingZero("small-coupling correlators are singular at zero coupling")
    g1, w1s, w2s, w2, s1, big_r = _small_coupling(params, "small-coupling correlators")
    m1, m2, d1, d2 = o1.mass, o2.mass, o1.diffusion, o2.diffusion

    t = _times(t_grid)
    at = np.abs(t)
    damped = np.exp(-g1 * at / 2) * (np.cos(s1 * at) + g1 / (2 * s1) * np.sin(s1 * at))
    g11 = d1 / (2 * g1 * m1**2 * w1s) * damped + d2 / (2 * g1 * m1 * m2 * w2s) * np.cos(w2 * t)
    g22 = d2 * m1 * big_r / (2 * g1 * w2s * m2 * lam**2) * np.cos(w2 * t)
    skew = (w2s - w1s) / (g1 * w2)
    g12 = d2 / (2 * m2 * w2 * lam) * (-np.sin(w2 * t) - skew * np.cos(w2 * t))
    g21 = d2 / (2 * m2 * w2 * lam) * (+np.sin(w2 * t) - skew * np.cos(w2 * t))
    support = t < 0
    resp11 = np.where(support, (1 / m1) * np.exp(g1 * t / 2) * np.sin(s1 * t) / s1, 0.0)
    resp22 = np.where(support, (1 / (m2 * w2)) * np.sin(w2 * t), 0.0)
    return CorrelatorTable(
        times=t,
        g11=g11,
        g22=g22,
        g12=g12,
        g21=g21,
        response_11=resp11,
        response_22=resp22,
        response_21=np.zeros_like(t),
        method="small-lambda",
    )


def sigma_ratio(params: SystemParams) -> float:
    """Ratio of the rms displacement of oscillator 1 to oscillator 2.

    Computed as sqrt(g11(0)/g22(0)) from the small-coupling forms; for
    identical oscillators this reduces to

        sigma1/sigma2 = lam sqrt(1 + D1/D2) / (gamma1 omega m),

    linear in the coupling.  (The 1/omega factor is required for the ratio
    to be dimensionless and for consistency with the correlator table; in
    the natural units m = omega = 1 it is invisible.)  Regime as for the
    forms: D2 >> lam^2 D1 / (m1^2 R).
    """
    o2 = params.osc2
    if o2.diffusion == 0.0:
        raise ValueError("sigma_ratio undefined for D2 = 0 (oscillator 2 has no spread)")
    table = correlators_small_lambda(params, np.array([0.0]))
    return float(np.sqrt(table.g11[0] / table.g22[0]))


_PAIR_FIELDS = {(1, 1): "g11", (2, 2): "g22", (1, 2): "g12", (2, 1): "g21"}


def correlation_coefficient(
    params: SystemParams, pair: tuple[int, int], t, exact: bool = False
):
    """Normalised correlation r_ij(t) = C_ij(t) / sqrt(C_ii(0) C_jj(0))."""
    if pair not in _PAIR_FIELDS:
        raise ValueError(f"pair must be one of {sorted(_PAIR_FIELDS)}")
    t_arr = np.asarray(t, dtype=float)
    compute = correlators_exact if exact else correlators_small_lambda
    table = compute(params, np.concatenate([[0.0], t_arr.ravel()]))  # t = 0 normalises
    i, j = pair
    c_ii = getattr(table, _PAIR_FIELDS[(i, i)])[0]
    c_jj = getattr(table, _PAIR_FIELDS[(j, j)])[0]
    r = (getattr(table, _PAIR_FIELDS[pair])[1:] / np.sqrt(c_ii * c_jj)).reshape(t_arr.shape)
    return r if t_arr.ndim else float(r)


def mutual_information(
    params: SystemParams, pair: tuple[int, int], t, exact: bool = False
):
    """Gaussian mutual information I_ij(t) = -log(1 - r_ij(t)^2) / 2 in nats.

    Uses the small-coupling correlators by default; pass ``exact=True`` to
    normalise with the exact residue transform instead.

    Raises
    ------
    PerfectCorrelation
        If |r| >= 1 - 1e-12 anywhere on ``t`` (e.g. the same-oscillator pair
        at t = 0, where the information diverges).
    """
    r = np.atleast_1d(correlation_coefficient(params, pair, t, exact=exact))
    if np.any(np.abs(r) >= 1 - 1e-12):
        raise PerfectCorrelation(f"|r| reaches 1 for pair {pair}")
    info = -0.5 * np.log1p(-(r**2))
    return info if np.ndim(t) else float(info[0])
