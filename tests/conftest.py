"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from hybridosc import OscillatorParams, SystemParams
from hybridosc.spectral import response_denominator_coefficients


def make_params(m1, k1, alpha, d1, m2, k2, d2, lam) -> SystemParams:
    return SystemParams(
        osc1=OscillatorParams(mass=m1, spring_constant=k1, damping=alpha, diffusion=d1),
        osc2=OscillatorParams(mass=m2, spring_constant=k2, damping=0.0, diffusion=d2),
        coupling=lam,
    )


def _bounded(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# moderate, well-conditioned parameter ranges for property tests
stable_params = st.builds(
    make_params,
    m1=_bounded(0.3, 3.0),
    k1=_bounded(0.3, 3.0),
    alpha=_bounded(0.2, 2.5),
    d1=_bounded(0.0, 2.0),
    m2=_bounded(0.3, 3.0),
    k2=_bounded(0.3, 3.0),
    d2=_bounded(0.0, 2.0),
    lam=_bounded(0.05, 3.0),
)

# tighter ranges where the small-coupling machinery is well separated
spectral_params = st.builds(
    make_params,
    m1=_bounded(0.7, 1.4),
    k1=_bounded(0.7, 1.4),
    alpha=_bounded(0.5, 1.5),
    d1=_bounded(0.1, 2.0),
    m2=_bounded(0.7, 1.4),
    k2=_bounded(0.7, 1.4),
    d2=_bounded(0.1, 2.0),
    lam=_bounded(0.3, 1.5),
)


def draw_stable(rng: np.random.Generator, log_uniform: bool = False) -> SystemParams:
    """Random stable-regime parameters (coupling and damping strictly positive)."""
    if log_uniform:
        def u(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        return make_params(
            u(0.1, 10), u(0.1, 10), u(0.1, 10), rng.uniform(0, 2),
            u(0.1, 10), u(0.1, 10), rng.uniform(0, 2), u(0.01, 10),
        )
    return make_params(
        rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.3, 2), rng.uniform(0.1, 2),
        rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.1, 2), rng.uniform(0.3, 1.5),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# quadrature oracle: pole-aware composite Gauss-Legendre inverse transform


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _component_values(params: SystemParams, name: str, w: np.ndarray) -> np.ndarray:
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    d1, d2 = o1.diffusion, o2.diffusion
    a = o1.mass * w**2 - 1j * o1.damping * w - o1.spring_constant - lam
    a_conj = np.conj(a)
    b = o2.mass * w**2 - o2.spring_constant - lam
    den_up = a * b - lam**2
    dd = den_up * (a_conj * b - lam**2)
    table = {
        "g11": (d1 * b**2 + lam**2 * d2) / dd,
        "g22": (d2 * a * a_conj + lam**2 * d1) / dd,
        "g12": -lam * (d1 * b + d2 * a_conj) / dd,
        "g21": -lam * (d1 * b + d2 * a) / dd,
        "response_11": b / den_up,
        "response_22": a / den_up,
        "response_21": -lam / den_up,
    }
    return table[name]


def _panel_edges(params: SystemParams, w_max: float, coarse: float = 0.5) -> np.ndarray:
    coeffs = response_denominator_coefficients(params)
    roots = np.roots(coeffs)
    edges = set(np.arange(-w_max, w_max + coarse / 2, coarse))
    for sign in (1.0, -1.0):
        for r in roots:
            centre = sign * r.real
            gap = abs(r.imag)
            offset = gap
            edges.add(centre)
            while offset < 3.0:
                edges.add(centre - offset)
                edges.add(centre + offset)
                offset *= 2.0
    edges = np.array(sorted(e for e in edges if -w_max <= e <= w_max))
    return edges


def quadrature_inverse_transform(params: SystemParams, name: str, t: np.ndarray) -> np.ndarray:
    """Independent inverse Fourier transform (1/2pi) int f(w) e^{-iwt} dw.

    Composite 16-node Gauss-Legendre panels refined geometrically around
    every pole's real part.  Response components fall off only like 1/w^2,
    so their leading asymptote c/(w^2+1) is subtracted and added back via
    its known transform c e^{-|t|}/2.
    """
    t = np.asarray(t, dtype=float)
    tail_coeff = 0.0
    w_max = 250.0
    if name == "response_11":
        tail_coeff = 1.0 / params.osc1.mass
        w_max = 1000.0
    elif name == "response_22":
        tail_coeff = 1.0 / params.osc2.mass
        w_max = 1000.0

    edges = _panel_edges(params, w_max)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    values = _component_values(params, name, nodes)
    if tail_coeff:
        values = values - tail_coeff / (nodes**2 + 1.0)
    kernel = np.exp(-1j * np.outer(t, nodes))
    out = kernel @ (weights * values) / (2 * np.pi)
    if tail_coeff:
        out = out + tail_coeff * np.exp(-np.abs(t)) / 2.0
    return out


def gibbs_covariance_oracle(params: SystemParams, temperature: float) -> np.ndarray:
    """Closed-form Gaussian moments of exp(-H/T), via explicit 2x2 block inversion."""
    o1, o2, lam = params.osc1, params.osc2, params.coupling
    k1l = o1.spring_constant + lam
    k2l = o2.spring_constant + lam
    det = k1l * k2l - lam**2
    cov = np.zeros((4, 4))
    cov[0, 0] = temperature * k2l / det
    cov[2, 2] = temperature * k1l / det
    cov[0, 2] = cov[2, 0] = temperature * lam / det
    cov[1, 1] = o1.mass * temperature
    cov[3, 3] = o2.mass * temperature
    return cov
