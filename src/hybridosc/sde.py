"""Euler-Maruyama ensemble integration with streaming moment statistics.

The scheme is the plain forward step

    z <- z A + sqrt(dt) (0, sqrt(D1) eta1, 0, sqrt(D2) eta2),   A = I - theta^T dt,

with z a row vector and eta ~ N(0, I) iid, which is weakly first order and
entirely adequate for additive noise (and, for additive noise, the
Ito/Stratonovich distinction is moot).

Between outputs the step is a linear Gaussian recursion, so a gap of L
steps from one output to the next is one move, exact in law:

    z <- z A^L + zeta F_L,   F_L^T F_L = S_L = sum_{k<L} (amp A^k)^T (amp A^k),

with amp the two driven rows of the noise amplitude and zeta ~ N(0, I).  A
one-step gap is the forward step (F_1 = amp); a longer one has F_L a square
root of S_L.  A^L and vec S_L compose by squaring, once per gap length, so
strided runs keep the forward scheme's dt bias and dt * max|eigenvalue|
ceiling but not its per-step samples.  S_L grows like the square of A^L: an
unstable run is reported at the first output whose gap map overflows, which
can be earlier than its states would.

The gaps are stepped in batches: consecutive gaps of one length whose noise
sits in one fill of the noise buffer get their terms zeta F_L from one
product, written straight into the output slots they fill, and each slot then
adds the previous state times A^L in place.  Addition commutes, so the states
are those of the gap-by-gap move bit for bit, wherever a batch ends.

Reproducibility model: chunk ``c`` of ``CHUNK_TRAJECTORIES`` trajectories
(c * CHUNK_TRAJECTORIES onward) reads one counter-based stream,
``Philox(key=seed).jumped(c)``, gap-major: an (n, 4) block of normals for a
Gaussian start, then per gap in output order an (n, 2) block for a one-step
gap, (eta1, eta2) for (p1, p2), or an (n, 4) block for a longer one; row j
belongs to the chunk's trajectory j.  So the output steps and
``CHUNK_TRAJECTORIES`` fix the samples and the rounding (the rows stepped
together and the merge order); ``BLOCK_STEPS`` and ``GROUP_OUTPUTS`` bound
memory only.  Each chunk returns its moments as arrays over all output
steps, merged with Chan's pairwise update in fixed chunk order, so results
are bitwise identical for any number of workers (one per usable CPU).
"""

from __future__ import annotations

import functools
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow, SingularSystem
from .model import DriftNoise, SystemParams, energy_weight_matrix
from .steadystate import _affine_power, validate_covariance

# trajectories per chunk, each with one noise stream: part of the reproducibility contract
CHUNK_TRAJECTORIES = 1024
# steps of an every-step run drawn at once (2 * BLOCK_STEPS normals per trajectory):
# bounds memory only, results do not depend on it
BLOCK_STEPS = 1024
# outputs reduced at once: bounds memory only, results do not depend on it
GROUP_OUTPUTS = 16

DT_WARN_FACTOR = 0.1
DT_ERROR_FACTOR = 1.0


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class SimConfig:
    """Ensemble integration settings.

    ``initial_state`` fixes a deterministic initial condition; alternatively
    supply ``initial_mean`` and ``initial_cov`` to draw each trajectory's
    start from a Gaussian.  ``output_stride`` records every k-th step
    (the initial and final steps are always recorded).
    """

    dt: float
    t_final: float
    n_trajectories: int
    seed: int = 0
    initial_state: np.ndarray | None = None
    initial_mean: np.ndarray | None = None
    initial_cov: np.ndarray | None = None
    output_stride: int | None = None

    def __post_init__(self) -> None:
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.t_final > 0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be positive and finite")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        gaussian = self.initial_mean is not None or self.initial_cov is not None
        if gaussian and self.initial_state is not None:
            raise ValueError("give either initial_state or an initial Gaussian, not both")
        if gaussian and (self.initial_mean is None or self.initial_cov is None):
            raise ValueError("initial Gaussian needs both initial_mean and initial_cov")
        if self.output_stride is not None and self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        for name, shape in (("initial_state", (4,)), ("initial_mean", (4,)), ("initial_cov", (4, 4))):
            value = getattr(self, name)
            if value is not None and not (np.shape(value) == shape and np.isfinite(value).all()):
                raise ValueError(f"{name} must be a finite array of shape {shape}")
        if self.initial_cov is not None:
            try:
                validate_covariance(self.initial_cov)
            except SingularSystem as exc:
                raise ValueError(f"initial_cov: {exc}") from None

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def resolved_stride(self) -> int:
        if self.output_stride is not None:
            return self.output_stride
        return max(1, self.n_steps // 400)


@dataclass
class EnsembleStats:
    """Per-time ensemble moments with standard errors.

    ``cov`` holds unbiased sample covariances; their standard errors use the
    Gaussian sampling formula Var(C_ij) = (C_ii C_jj + C_ij^2)/(n-1), exact
    for this process.  ``energy_mean`` is the sample mean of the total
    mechanical energy (kinetic + both springs + coupling spring).
    """

    times: np.ndarray
    mean: np.ndarray
    mean_stderr: np.ndarray
    cov: np.ndarray
    cov_stderr: np.ndarray
    energy_mean: np.ndarray
    energy_stderr: np.ndarray
    n_trajectories: int

    _CSV_MOMENTS = (
        ("var_q1", 0, 0), ("var_p1", 1, 1), ("var_q2", 2, 2), ("var_p2", 3, 3),
        ("cov_q1p1", 0, 1), ("cov_q1q2", 0, 2), ("cov_q1p2", 0, 3),
        ("cov_p1q2", 1, 2), ("cov_p1p2", 1, 3), ("cov_q2p2", 2, 3),
    )

    def csv_header(self) -> list[str]:
        cols = ["t", "mean_q1", "mean_p1", "mean_q2", "mean_p2"]
        cols += [name for name, _, _ in self._CSV_MOMENTS]
        cols += ["energy"]
        cols += [f"{c}_stderr" for c in cols[1:]]
        return cols

    def write_csv(self, stream) -> None:
        _, i, j = zip(*self._CSV_MOMENTS)
        table = np.column_stack([
            self.times, self.mean, self.cov[:, i, j], self.energy_mean,
            self.mean_stderr, self.cov_stderr[:, i, j], self.energy_stderr,
        ])
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"  # as f"{v:.17g}", in one format call
        stream.write(",".join(self.csv_header()) + "\n")
        stream.write((row * len(table)) % tuple(table.ravel().tolist()))


def _energy(states: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return 0.5 * (((states @ weight) * states) @ np.ones(4))


def total_energy(params: SystemParams, states: np.ndarray) -> np.ndarray:
    """Total mechanical energy for states of shape (..., 4)."""
    return _energy(np.asarray(states, dtype=float), energy_weight_matrix(params))


def energy_drift(params: SystemParams, cov: np.ndarray) -> float:
    """Mean rate of change of the total energy in a state with covariance ``cov``.

    Ito's lemma applied to the energy gives
    -(alpha/m1^2) Var(p1) + D1/(2 m1) + D2/(2 m2); the drift vanishes exactly
    when Var(p1) = (D1 + (m1/m2) D2)/(2 gamma1).
    """
    o1, o2 = params.osc1, params.osc2
    cov = np.asarray(cov, dtype=float)
    return float(
        -(o1.damping / o1.mass**2) * cov[1, 1]
        + o1.diffusion / (2 * o1.mass)
        + o2.diffusion / (2 * o2.mass)
    )


def _check_step_size(dn: DriftNoise, cfg: SimConfig) -> None:
    scale = float(np.max(np.abs(np.linalg.eigvals(dn.theta))))
    if scale == 0.0:
        return
    product = cfg.dt * scale
    if product > DT_ERROR_FACTOR:
        raise ValueError(
            f"dt * max|eigenvalue| = {product:.3g} > {DT_ERROR_FACTOR}; the forward scheme is unstable"
        )
    if product > DT_WARN_FACTOR:
        warnings.warn(
            f"dt * max|eigenvalue| = {product:.3g} exceeds {DT_WARN_FACTOR}; "
            "expect visible discretisation bias",
            stacklevel=3,
        )


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """PSD square root tolerant of semidefinite covariances."""
    vals, vecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _output_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _finite(states: np.ndarray, indices: range, times: np.ndarray) -> np.ndarray:
    """``states`` (g, n, 4) at output ``times``; name the earliest output's first bad trajectory."""
    if not np.isfinite(states).all():
        out, row = np.argwhere(~np.isfinite(states).all(axis=-1))[0]
        raise NumericalOverflow(f"trajectory {indices[row]} overflowed near t = {times[out]:.6g}")
    return states


def _gap_map(drift: np.ndarray, amp: np.ndarray, length: int):
    """(A^L, F_L) of a gap of ``length`` steps, A = I + ``drift``; all-NaN F_L if S_L overflows.

    vec S follows S <- A^T S A + amp^T amp from 0: d = A^T (x) A^T - I, built
    from E = A^T - I so that slow decays are not rounded off against 1.
    """
    eye = np.eye(4)
    if length == 1:
        return eye + drift, amp
    power = _affine_power(drift, np.zeros((4, 4)), eye, length)
    # vec convention: (A @ X @ B.T).ravel() == kron(A, B) @ X.ravel()
    d = np.kron(drift.T, eye) + np.kron(eye, drift.T) + np.kron(drift.T, drift.T)
    cov = _affine_power(d, (amp.T @ amp).ravel(), np.zeros(16), length).reshape(4, 4)
    return power, _gaussian_factor(cov).T if np.isfinite(cov).all() else np.full((4, 4), np.nan)


def _gap_maps(dn: DriftNoise, cfg: SimConfig, output_steps: np.ndarray) -> dict:
    """{L: :func:`_gap_map` of L} for each distinct gap length L between ``output_steps``."""
    drift = -(dn.theta * cfg.dt).T
    amp = np.sqrt(dn.diffusion_matrix[1::2]) * np.sqrt(cfg.dt)  # the driven rows p1, p2 of sigma
    with np.errstate(over="ignore", invalid="ignore"):
        return {gap: _gap_map(drift, amp, gap) for gap in set(np.diff(output_steps).tolist())}


def _noise_layout(cfg: SimConfig, output_steps: np.ndarray):
    """Gap lengths, where each gap's normals end per trajectory, and a fill's width per trajectory."""
    gaps = np.diff(output_steps)
    ends = (4 if cfg.initial_mean is not None else 0) + np.cumsum(np.where(gaps == 1, 2, 4))
    # room for the start and one gap, never more than a trajectory uses
    return gaps, ends, int(min(max(2 * BLOCK_STEPS, 8), ends[-1]))


def _draws(seed: int, chunk: int, n: int, ends: np.ndarray, noise: np.ndarray):
    """Fill ``noise`` with normals n * lo .. n * hi - 1 of chunk ``chunk``'s stream; yield (lo, hi).

    The stream, ``Philox(key=seed).jumped(chunk)``, is gap-major: the block
    of a gap whose normals end at ``end`` (per trajectory, see
    :func:`_noise_layout`) with k of them is the (n, k) array at n * (end - k),
    row j for the chunk's trajectory j.  A fill holds whole gaps, at most
    ``len(noise) // n`` normals per trajectory, and is one call, which
    releases the interpreter lock.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(int(seed) % (1 << 64))).jumped(chunk))
    lo = 0
    while lo < ends[-1]:
        hi = int(ends[np.searchsorted(ends, lo + len(noise) // n, "right") - 1])
        rng.standard_normal(n * (hi - lo), out=noise[: n * (hi - lo)])
        yield lo, hi
        lo = hi


def _steps(cfg: SimConfig, indices: range, output_steps: np.ndarray, maps: dict, buf=None):
    """Step chunk ``indices`` together, one row each, noise in ``buf``; yield (k0, states) per group.

    ``states`` (g, n, 4) holds outputs k0 .. k0 + g - 1, g <= GROUP_OUTPUTS, and the next group
    overwrites it.  Each gap is one move of its map in ``maps`` (:func:`_gap_maps`), taken in
    batches: a run of m consecutive gaps of one length whose noise lies in the current fill and
    that fit in the group's free slots gets its noise terms from one product into those slots,
    then each slot adds the previous state times A^L in turn.  Addition commutes, so every state
    is z A^L + zeta F_L bit for bit, and ``BLOCK_STEPS`` and ``GROUP_OUTPUTS`` bound memory
    only.  Rows that overflow are left to the caller's :func:`_finite`."""
    gaps, ends, width = _noise_layout(cfg, output_steps)
    n = len(indices)
    noise = np.empty(n * width) if buf is None else buf[: n * width]
    draws = _draws(cfg.seed, indices.start // CHUNK_TRAJECTORIES, n, ends, noise)
    lo, hi = next(draws)
    gaps, ends = gaps.tolist(), ends.tolist()

    if cfg.initial_state is not None:
        z = np.tile(np.asarray(cfg.initial_state, dtype=float).reshape(1, 4), (n, 1))
    elif cfg.initial_mean is not None:
        factor = _gaussian_factor(cfg.initial_cov)
        z = np.asarray(cfg.initial_mean, dtype=float) + noise[: 4 * n].reshape(n, 4) @ factor.T
    else:
        z = np.zeros((n, 4))

    group = np.empty((min(GROUP_OUTPUTS, len(output_steps)), n, 4))
    group[0] = z
    k0, g, i = 0, 1, 0  # group[:g] holds outputs k0 .. k0 + g - 1; gap i comes next
    with np.errstate(over="ignore", invalid="ignore"):
        while i < len(gaps):
            if ends[i] > hi:
                lo, hi = next(draws)
            if g == len(group):
                yield k0, group
                z = z.copy()  # its slot takes the next batch
                k0, g = k0 + g, 0
            length = gaps[i]
            m = 1
            while g + m < len(group) and i + m < len(gaps) and gaps[i + m] == length and ends[i + m] <= hi:
                m += 1
            power, factor = maps[length]
            start = n * (ends[i] - lo - len(factor))
            block = noise[start : start + m * n * len(factor)].reshape(m, n, -1)
            np.matmul(block, factor, out=group[g : g + m])
            for slot in group[g : g + m]:
                slot += z @ power
                z = slot
            g, i = g + m, i + m
        yield k0, group[:g]


def _run_chunk(
    cfg: SimConfig, output_steps: np.ndarray, maps: dict, weight: np.ndarray, indices: range, buf
):
    """One block of trajectories' (count, mean, m2, e_mean, e_m2) at every output step."""
    n_out = len(output_steps)
    times = output_steps * cfg.dt
    mean, m2 = np.empty((n_out, 4)), np.empty((n_out, 4, 4))
    e_mean, e_m2 = np.empty(n_out), np.empty(n_out)
    ones = np.ones(len(indices))
    for k0, states in _steps(cfg, indices, output_steps, maps, buf):
        _finite(states, indices, times[k0:])
        out = slice(k0, k0 + len(states))
        mean[out] = (ones @ states) / len(indices)
        centred = states - mean[out, None]
        m2[out] = centred.transpose(0, 2, 1) @ centred
        energies = _energy(states, weight)
        # not ones @ energies: one (g, n) gemv rounds differently for different group sizes
        e_mean[out] = energies.mean(axis=1)
        e_m2[out] = ((energies - e_mean[out, None]) ** 2).sum(axis=1)
    return len(indices), mean, m2, e_mean, e_m2


def _merge(a: tuple, b: tuple) -> tuple:
    """Chan's pairwise update of two chunks' moments, at every output step at once."""
    n_a, mean_a, m2_a, e_mean_a, e_m2_a = a
    n_b, mean_b, m2_b, e_mean_b, e_m2_b = b
    total = n_a + n_b
    delta = mean_b - mean_a
    e_delta = e_mean_b - e_mean_a
    return (
        total,
        mean_a + delta * (n_b / total),
        m2_a + m2_b + delta[:, :, None] * delta[:, None, :] * (n_a * n_b / total),
        e_mean_a + e_delta * (n_b / total),
        e_m2_a + e_m2_b + e_delta**2 * (n_a * n_b / total),
    )


def _in_chunk_order(pool: ThreadPoolExecutor, run, chunks: list, window: int):
    """Yield ``run(chunk)`` in chunk order with at most ``window`` chunks in flight."""
    pending: deque = deque()
    for chunk in chunks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(run, chunk))
    while pending:
        yield pending.popleft().result()


def simulate_ensemble(dn: DriftNoise, cfg: SimConfig) -> EnsembleStats:
    """Integrate an ensemble and return streaming moment statistics.

    Trajectories are partitioned into fixed-size chunks; chunks run on a
    thread pool with one worker per usable CPU (at most one per chunk) and
    are merged in chunk order as they arrive, so the result does not depend
    on the worker count and at most one unmerged chunk result per worker is
    held at a time.  Memory grows with the worker count, never with the
    ensemble size.
    """
    _check_step_size(dn, cfg)
    output_steps = _output_steps(cfg.n_steps, cfg.resolved_stride())
    weight = energy_weight_matrix(dn.params)

    chunks = [
        range(lo, min(lo + CHUNK_TRAJECTORIES, cfg.n_trajectories))
        for lo in range(0, cfg.n_trajectories, CHUNK_TRAJECTORIES)
    ]
    maps = _gap_maps(dn, cfg, output_steps)
    n_workers = min(_usable_cpus(), len(chunks))
    # chunk i starts after chunk i - n_workers has finished (_in_chunk_order), so the two
    # share a noise buffer; blocks freed per chunk can stay resident in the allocator
    width = _noise_layout(cfg, output_steps)[2]
    buffers = [np.empty(len(chunks[0]) * width) for _ in range(n_workers)]
    jobs = [(idx, buffers[i % n_workers]) for i, idx in enumerate(chunks)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        run = functools.partial(_run_chunk, cfg, output_steps, maps, weight)
        results = _in_chunk_order(pool, lambda job: run(*job), jobs, n_workers)
        n, mean, m2, e_mean, e_m2 = functools.reduce(_merge, results)

    # a one-trajectory ensemble has m2 == 0 exactly: 0/0 leaves NaN spreads
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = m2 / (n - 1)
        diag = np.einsum("kii->ki", cov)
        cov_stderr = np.sqrt((diag[:, :, None] * diag[:, None, :] + cov**2) / (n - 1))
        mean_stderr = np.sqrt(np.clip(diag, 0.0, None) / n)
        energy_stderr = np.sqrt(np.clip(e_m2 / (n - 1), 0.0, None) / n)

    return EnsembleStats(
        times=output_steps * cfg.dt, mean=mean, mean_stderr=mean_stderr, cov=cov,
        cov_stderr=cov_stderr, energy_mean=e_mean, energy_stderr=energy_stderr, n_trajectories=n,
    )


def sample_trajectory(dn: DriftNoise, cfg: SimConfig, index: int):
    """Integrate the single trajectory ``index`` of the ensemble.

    Returns (times, states) sampled at the output stride.  The chunk that
    holds ``index`` is stepped as in :func:`simulate_ensemble`, one move per
    gap between outputs, and its row is returned, so the path is bitwise
    identical to ensemble member ``index`` for any chunk size.  The cost is
    O(min(n_trajectories, CHUNK_TRAJECTORIES) x outputs), not O(steps); an
    overflow is reported only when this row overflows.
    """
    _check_step_size(dn, cfg)
    if not 0 <= index < cfg.n_trajectories:
        raise ValueError(f"index {index} outside [0, {cfg.n_trajectories})")
    output_steps = _output_steps(cfg.n_steps, cfg.resolved_stride())
    times = output_steps * cfg.dt
    lo = index - index % CHUNK_TRAJECTORIES
    chunk, row = range(lo, min(lo + CHUNK_TRAJECTORIES, cfg.n_trajectories)), index - lo
    states = np.empty((len(output_steps), 4))
    for k0, group in _steps(cfg, chunk, output_steps, _gap_maps(dn, cfg, output_steps)):
        path = group[:, row : row + 1]
        states[k0 : k0 + len(group)] = _finite(path, chunk[row : row + 1], times[k0:])[:, 0]
    return times, states
