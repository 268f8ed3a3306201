"""Stationary second moments: direct solve, closed forms, and moment flow.

Three independent routes to the same object:

* :func:`solve_lyapunov` solves theta C + C theta^T = sigma sigma^T by
  vectorisation (a 16x16 Kronecker linear system; at 4x4 this is exact and
  dependency-free).
* :func:`closed_form_covariances` evaluates the analytic solution of that
  equation for this model, entry by entry.
* :func:`evolve_moments` follows the moment ODEs
  dC/dt = -theta C - C theta^T + sigma sigma^T, dmu/dt = -theta mu
  by their exact flow, whose late-time limit is the same for stable systems.
  Each span is one matrix exponential (:func:`_expm1`, which the ensemble
  step of :mod:`hybridosc.sde` shares), taken in O(log2 span) doublings
  however slow the relaxation (coupling range of the 1e-8 tolerance:
  :func:`evolve_moments`).

Agreement of the three routes is the backbone of the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CouplingZero, NotStable, SingularSystem
from .model import DriftNoise, SystemParams
from .stability import _hurwitz_criteria

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
RESIDUAL_RTOL = 1e-10
# the cross-route tolerance of `verify` and acceptance criterion 2
FORWARD_RTOL = 1e-8


def validate_covariance(cov: np.ndarray) -> np.ndarray:
    """Check symmetry and positive semi-definiteness (report-only, no projection)."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError("covariance must be 4x4")
    scale = max(1.0, float(np.max(np.abs(cov))))
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > SYMMETRY_TOL * scale:
        raise SingularSystem(f"covariance asymmetric by {asym:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if eigs.min() < -PSD_TOL * scale:
        raise SingularSystem(f"covariance indefinite: min eigenvalue {eigs.min():.3e}")
    return cov


def lyapunov_residual(theta: np.ndarray, cov: np.ndarray, diffusion: np.ndarray) -> float:
    """Max-norm of theta C + C theta^T - Q."""
    return float(np.max(np.abs(theta @ cov + cov @ theta.T - diffusion)))


def solve_lyapunov(dn: DriftNoise) -> np.ndarray:
    """Stationary covariance from the Lyapunov equation.

    Raises
    ------
    NotStable
        If the steady state does not exist: the stability certificate of
        ``dn.params`` (:func:`hybridosc.stability.routh_hurwitz`) fails.
    SingularSystem
        If the linear solve is rank-deficient or leaves the float range, or
        its backward error |theta C + C theta^T - Q| / (2 |theta| |C| + |Q|)
        exceeds ``RESIDUAL_RTOL`` or, times the condition number (a bound on
        the relative error of C), ``FORWARD_RTOL``.
    """
    if not _hurwitz_criteria(dn.params)[1]:
        raise NotStable("no steady state: stability certificate fails (marginal)")

    theta = dn.theta
    q = dn.diffusion_matrix
    eye = np.eye(4)
    # vec convention: (A @ X @ B.T).ravel() == kron(A, B) @ X.ravel()
    kron = np.kron(theta, eye) + np.kron(eye, theta)
    try:
        cov = np.linalg.solve(kron, q.ravel()).reshape(4, 4)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Lyapunov solve failed: {exc}") from exc
    # the certificate makes theta invertible, so an inf or NaN in cov makes resid inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        cov = 0.5 * (cov + cov.T)
        resid = lyapunov_residual(theta, cov, q)
        scale = 2 * np.max(np.abs(theta)) * np.max(np.abs(cov)) + np.max(np.abs(q))
        scale = max(scale, np.finfo(float).tiny)  # subnormal noise underflows both sides
        # near-singular at tiny coupling, where a small backward error no longer means an accurate C
        cond = np.linalg.cond(kron, np.inf)
        accurate = resid <= RESIDUAL_RTOL * scale and cond * resid <= FORWARD_RTOL * scale
    if not (np.isfinite(resid) and accurate):
        raise SingularSystem(f"Lyapunov solve not accurate: residual {resid:.3e}, "
                             f"2|theta||C| + |Q| = {scale:.3e}, condition number {cond:.3e}")
    return validate_covariance(cov)


def closed_form_covariances(params: SystemParams) -> np.ndarray:
    """The analytic stationary covariance, evaluated entry by entry.

    Requires coupling > 0 (several entries carry 1/coupling factors, so zero
    coupling raises :class:`CouplingZero`) and a steady state, decided as in
    :func:`solve_lyapunov` by the stability certificate alone.  A coupling
    so small that an entry leaves the float range raises ``OverflowError``.

    The ten independent entries, with g1 = alpha/m1, w_i the bare
    frequencies, l_i = coupling/m_i and den = w2^2 l1 + w1^2 (w2^2 + l2):

        E[p1^2] = (D1 + (m1/m2) D2) / (2 g1)
        E[p2^2] = [D2 (1 + (m1 m2/lam^2) ((w1^2-w2^2+l1-l2)^2
                   + g1^2 (w2^2+l2))) + (m2/m1) D1] / (2 g1)
        E[q1^2] = [D1 (l2+w2^2) + (m1/m2) D2 (l1+w1^2)] / (2 g1 m1^2 den)
        E[q2^2] = [(m2/m1) D1 (w1^2+l1) + D2 (m1 m2/lam^2) ((w1^2+l1)^3
                   + (w1^2 (w2^2+l2) + w2^2 l1)
                     (w2^2 - 2 w1^2 + l2 - 2 l1 + g1^2))] / (2 g1 m2^2 den)
        E[p1 p2] = (D2 m1 / (2 g1 lam)) (w1^2 - w2^2 + l1 - l2)
        E[q1 p2] = -D2 / (2 lam)
        E[q2 p1] = (D2 / (2 lam)) (m1/m2)
        E[q1 q2] = [D1 l1 + D2 (m1/lam) ((w1^2+l1)^2 - w2^2 l1
                   - w1^2 (w2^2+l2))] / (2 g1 m1 m2 den)
        E[q1 p1] = E[q2 p2] = 0.
    """
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    if lam == 0.0:
        raise CouplingZero("closed-form covariances are singular at zero coupling")
    if not _hurwitz_criteria(params)[1]:
        raise NotStable("no steady state: stability certificate fails (marginal)")
    g1 = o1.damping_rate
    m1, m2 = o1.mass, o2.mass
    d1, d2 = o1.diffusion, o2.diffusion
    w1s = o1.frequency**2
    w2s = o2.frequency**2
    l1 = lam / m1
    l2 = lam / m2
    den = w2s * l1 + w1s * (w2s + l2)

    try:
        p1p1 = (d1 + (m1 / m2) * d2) / (2 * g1)
        p2p2 = (
            d2 * (1 + (m1 * m2 / lam**2) * ((w1s - w2s + l1 - l2) ** 2 + g1**2 * (w2s + l2)))
            + (m2 / m1) * d1
        ) / (2 * g1)
        q1q1 = (d1 * (l2 + w2s) + (m1 / m2) * d2 * (l1 + w1s)) / (2 * g1 * m1**2 * den)
        q2q2 = (
            (m2 / m1) * d1 * (w1s + l1)
            + d2
            * (m1 * m2 / lam**2)
            * ((w1s + l1) ** 3 + (w1s * (w2s + l2) + w2s * l1) * (w2s - 2 * w1s + l2 - 2 * l1 + g1**2))
        ) / (2 * g1 * m2**2 * den)
        p1p2 = (d2 / (2 * g1)) * (m1 / lam) * (w1s - w2s + l1 - l2)
        q1p2 = -d2 / (2 * lam)
        q2p1 = (d2 / (2 * lam)) * (m1 / m2)
        q1q2 = (
            d1 * l1 + d2 * (m1 / lam) * ((w1s + l1) ** 2 - w2s * l1 - w1s * (w2s + l2))
        ) / (2 * g1 * m1 * m2 * den)

        cov = np.array([
            [q1q1, 0.0, q1q2, q1p2],
            [0.0, p1p1, q2p1, p1p2],
            [q1q2, q2p1, q2q2, 0.0],
            [q1p2, p1p2, 0.0, p2p2],
        ])
        finite = np.isfinite(cov).all()
    except ArithmeticError:  # lam**2 underflows to 0, or a power overflows
        finite = False
    if not finite:
        raise OverflowError(f"closed-form covariances leave the float range at coupling {lam:.3g}")
    return cov


def _expm1(a: np.ndarray) -> np.ndarray:
    """e^a - I of a square matrix ``a``, or of each matrix of a stack (..., n, n) (NaN if ``a``
    is not finite), kept off 1 for small a: the Taylor series at x = a / 2^s, 1-norm at most
    1/2 (one s for the whole stack, set by its largest norm), summed until a term leaves every
    sum unchanged, then s doublings d <- 2d + d^2.  A nilpotent ``a`` (a^2 = 0) comes back
    exactly."""
    norm = np.abs(a).sum(axis=-2).max()
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    s = max(0, math.frexp(norm)[1] + 1)  # 2^s >= 2 norm
    x = np.ldexp(a, -s)
    d, term, k = x, x, 2
    while not (d + (term := term @ x / k) == d).all():
        d, k = d + term, k + 1
    for _ in range(s):
        d = 2 * d + d @ d
    return d


def evolve_moments(dn: DriftNoise, cov0: np.ndarray, mean0: np.ndarray, t_grid: np.ndarray):
    """The first and second moments on ``t_grid`` by the exact flow of their ODEs.

    Each span h between grid points moves the mean by m <- m + (e^{-theta h} - I) m
    and the covariance by :func:`evolve_covariances_batch` as a batch of one, both
    through :func:`_expm1`, so a span of any length is one exact step up to
    rounding.  Rounding grows with the series' doublings, about log2 of the span
    times the fastest rate: run from zero to 15 / min Re(eig) in natural units,
    the covariance is within 1e-8 of the closed form for 1e-4 <= lam <= 1e4.

    Returns
    -------
    (means, covs):
        Arrays of shape (n, 4) and (n, 4, 4) sampled at ``t_grid``.
    """
    theta, q = dn.theta, dn.diffusion_matrix[None]
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0) or not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite and strictly increasing, with at least one point")
    covs = [validate_covariance(np.array(cov0, dtype=float))]
    means = [np.array(mean0, dtype=float).reshape(4)]
    for span in np.diff(t_grid):
        means.append(means[-1] + _expm1(-theta * span) @ means[-1])
        covs.append(evolve_covariances_batch(theta[None], q, [span], covs[-1][None])[0])
    return np.array(means), np.array(covs)


def evolve_covariances_batch(
    thetas: np.ndarray,
    diffusions: np.ndarray,
    t_final: np.ndarray,
    cov0: np.ndarray | None = None,
) -> np.ndarray:
    """The exact flow of dC/dt = -theta C - C theta^T + Q over a batch, symmetrised at the end.

    Each system b goes from ``cov0[b]`` (zero if omitted) to its own
    ``t_final[b]`` = t in one affine map of vec C, vec C <- vec C + d vec C + b,
    read off one :func:`_expm1` of the stack of augmented generators
    t [[G, vec Q], [0, 0]], G = -(theta (x) I + I (x) theta): d = e^{G t} - I and
    b = t phi1(G t) vec Q, phi1(x) = (e^x - 1) / x.  Used by sweep studies and
    the acceptance checks; :func:`evolve_moments` evolves its covariance as a
    batch of one.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0]
    eye = np.eye(4)
    # vec convention: (A @ X @ B.T).ravel() == kron(A, B) @ X.ravel()
    gen = np.einsum("nik,jl->nijkl", thetas, eye) + np.einsum("ik,njl->nijkl", eye, thetas)
    aug = np.zeros((n, 17, 17))
    aug[:, :16, :16] = -gen.reshape(n, 16, 16)
    aug[:, :16, 16] = np.asarray(diffusions, dtype=float).reshape(n, 16)
    flow = _expm1(np.asarray(t_final, dtype=float).reshape(n, 1, 1) * aug)
    vec0 = np.zeros((n, 16, 1)) if cov0 is None else np.asarray(cov0, dtype=float).reshape(n, 16, 1)
    cov = (vec0 + (flow[:, :16, :16] @ vec0 + flow[:, :16, 16:])).reshape(n, 4, 4)
    return 0.5 * (cov + np.swapaxes(cov, 1, 2))
