"""Ensemble integration by the drift's exact flow, with streaming moment statistics.

One step of dt is

    z <- z A + sqrt(dt) (eta1, eta2) amp B,   A = e^{-theta^T dt},  B = e^{-theta^T dt / 2},

with z a row vector, amp the two driven rows (p1, p2) of the noise amplitude
and eta ~ N(0, I) iid: the drift's exact flow with the step's two normals
applied at its midpoint, an exponential integrator (Hochbruck & Ostermann
2010, Acta Numerica 19:209) at the cost of a forward Euler step.  The flow
contracts at every dt on a stable system and keeps the energy of an
undamped, undriven one, so any dt > 0 runs.  The midpoint rule leaves a bias
of about (gamma1 dt)^2 / 12 on the stationary covariance, relative to its
scale (8.3e-8 at dt = 1e-3 with gamma1 = 1, at any coupling).

Between outputs the step is a linear Gaussian recursion, so a gap of L
steps from one output to the next is one move, exact in law:

    z <- z A^L + zeta F_L,   F_L^T F_L = S_L = sum_{k<L} (F_1 A^k)^T (F_1 A^k),

with F_1 = sqrt(dt) amp B and zeta ~ N(0, I).  A one-step gap is the step
itself; a longer one has F_L a square root of S_L.  The pair (A^L, S_L)
composes by 4x4 doubling, once per gap length, so strided runs keep the
step's law, bias included, but not its per-step samples.  A run whose gap
map overflows is reported at the first output that map moves to.

The gaps are stepped in batches: consecutive gaps of one length whose noise
sits in one fill of the noise buffer get their terms zeta F_L from one
product, written straight into the output slots they fill, and each slot then
adds the previous state times A^L in place.  Addition commutes, so the states
are those of the gap-by-gap move bit for bit, wherever a batch ends.  An
output group is held component-major, (g, 4, n), so that the per-output
reductions run along the trajectories.

Reproducibility model: chunk ``c`` of ``CHUNK_TRAJECTORIES`` trajectories
(c * CHUNK_TRAJECTORIES onward) reads one stream, ``SFC64`` seeded by
``SeedSequence(seed mod 2**64, spawn_key=(c,))`` (the c-th child of the
seed's sequence), gap-major: an (n, 4) block of normals for a Gaussian
start, then per gap in output order an (n, 2) block for a one-step gap,
(eta1, eta2) for (p1, p2), or an (n, 4) block for a longer one; row j
belongs to the chunk's trajectory j.  So the output steps and
``CHUNK_TRAJECTORIES`` fix the samples and the rounding (the rows stepped
together and the merge order); ``FILL_NORMALS`` and ``GROUP_OUTPUTS`` bound
memory only.  One thread steps the chunks in order, and each chunk's moments,
arrays over all output steps, are merged into the running total with Chan's
pairwise update as it finishes.  Each call lays out its outputs and fills
once (:func:`_plan`); the step, the gap maps and the start's square root
depend only on the system and the step, and are built once per process and
kept by value (:func:`_memo`).  Each call draws through one noise source
(:func:`_noise`): where a second CPU is usable, the call takes more than one
fill and a fill holds at least ``AHEAD_NORMALS`` normals, one helper thread
draws the next fill into the other of two fill buffers meanwhile, for
:func:`simulate_ensemble` and :func:`sample_trajectory` alike; the results
are bitwise identical with it or without it.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalOverflow, SingularSystem
from .model import DriftNoise, SystemParams, energy_weight_matrix
from .steadystate import _expm1, validate_covariance

# trajectories per chunk, each with one noise stream: part of the reproducibility contract
CHUNK_TRAJECTORIES = 1024
# normals of a chunk drawn at once, 2 MiB, the size of an L2 cache: 128 every-step steps of a
# full chunk, more of a smaller one.  Bounds memory only, results do not depend on it.  The
# every-step CLI run of 2048 x 8000 peaks at 43.5, 44.1, 46.1, 50.0, 58.0 and 74.0 MiB at 32,
# 64, 128, 256, 512 and 1024 steps per fill, while its simulate_ensemble call takes
# 0.57-0.61 s at each (2 CPUs; BENCH_em_memory.json)
FILL_NORMALS = 1 << 18
# outputs reduced at once: bounds memory only, results do not depend on it
GROUP_OUTPUTS = 16
# CSV rows formatted and written at once (about 2 MB of Python floats and text at 1024):
# bounds memory only, the bytes do not depend on it
CSV_ROWS = 1024
# fills of fewer normals are drawn inline: handing one to a helper thread costs more than
# it saves (2 CPUs: 12,288 normals 16% slower than inline, 36,864 8% faster, 135,168 28%
# faster; BENCH_em_sfc64.json).  Speed only: results do not depend on it
AHEAD_NORMALS = 1 << 15
# set-up results each memo of :func:`_memo` keeps, the most recently used: a step, a gap
# map or a start factor of a few 4x4 arrays each.  Speed only: results do not depend on it
_MEMO_SIZE = 32


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
        if not np.isfinite(self.t_final / self.dt):
            raise ValueError(
                f"t_final / dt must be a finite step count, got t_final = {self.t_final!r}"
                f" and dt = {self.dt!r}"
            )
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
    mechanical energy E = z^T W z / 2 (kinetic + both springs + coupling
    spring), formed from the moments as tr(W m2) / (2n) + m^T W m / 2 with m2
    the sum of centred outer products.  ``energy_stderr`` uses the Gaussian
    sampling formula too: Var(E) = tr(W C W C) / 2 + m^T W C W m, over n.
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
        """Write the header, then one row per output time, ``CSV_ROWS`` rows at a time."""
        _, i, j = zip(*self._CSV_MOMENTS)
        header = self.csv_header()
        row = ",".join(["%.17g"] * len(header)) + "\n"  # as f"{v:.17g}", in one format call
        stream.write(",".join(header) + "\n")
        for lo in range(0, len(self.times), CSV_ROWS):
            out = slice(lo, lo + CSV_ROWS)
            table = np.column_stack([
                self.times[out], self.mean[out], self.cov[out, i, j], self.energy_mean[out],
                self.mean_stderr[out], self.cov_stderr[out, i, j], self.energy_stderr[out],
            ])
            stream.write((row * len(table)) % tuple(table.ravel().tolist()))


def total_energy(params: SystemParams, states: np.ndarray) -> np.ndarray:
    """Total mechanical energy z^T W z / 2 for states z of shape (..., 4)."""
    states = np.asarray(states, dtype=float)
    # (z W) . z: a component that W gives no weight adds 0 even where it is huge, not 0 * inf
    return 0.5 * np.einsum("...i,...i->...", states @ energy_weight_matrix(params), states)[()]


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


def _affine_power(d, b, x, n: int) -> np.ndarray:
    """``x`` after ``n`` maps x <- x + d x + b, squared as (d, b) <- (2d + d^2, 2b + d b);
    carrying d rather than I + d keeps slow decays from rounding to 1."""
    while n > 0:
        if n & 1:
            x = x + (d @ x + b)
        n >>= 1
        if n:
            d, b = 2 * d + d @ d, 2 * b + d @ b
    return x


def scheme_moments(dn: DriftNoise, dt: float, n_steps: int, mean: np.ndarray, cov: np.ndarray):
    """The scheme's exact (mean, covariance) ``n_steps`` steps on from (``mean``, ``cov``).

    In column form a step maps m <- (I + e) m and C <- (I + e) C (I + e)^T +
    F_1^T F_1, with e = e^{-theta dt} - I and F_1 the step of
    :func:`_base_step`, so the scheme's dt bias is kept.  The n maps compose
    by squaring (:func:`_affine_power`) on m and on vec C, whose map less the
    identity is e (x) e + e (x) I + I (x) e.  This shares the one-step pair
    with the gap maps the ensemble moves by, but not their doubling; the test
    suite checks that pair against scipy's expm.
    """
    drift, factor = _base_step(dn, dt)
    step, eye = drift.T, np.eye(4)
    # vec convention: (A @ X @ B.T).ravel() == kron(A, B) @ X.ravel()
    d_cov = np.kron(step, step) + np.kron(step, eye) + np.kron(eye, step)
    mean = _affine_power(step, np.zeros(4), np.asarray(mean, dtype=float), n_steps)
    vec = _affine_power(d_cov, (factor.T @ factor).ravel(), np.ravel(cov).astype(float), n_steps)
    cov = vec.reshape(4, 4)
    return mean, 0.5 * (cov + cov.T)


def _chi2_tail(x: float, dof: int) -> float:
    """-log10 P(X > x), X chi-squared with an even number ``dof`` of degrees of freedom.

    P = e^{-h} sum_{j < dof/2} h^j / j!, h = x/2, summed in logs, so the value
    stays finite where P underflows."""
    half = max(x, 0.0) / 2  # rounding can leave a positive definite form slightly negative
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 logs to -inf; NaN stays NaN
        logs = np.cumsum(np.log(half / np.arange(1, dof // 2)))  # log(h^j / j!), j >= 1
        return float(half - np.logaddexp.reduce(logs, initial=0.0)) / math.log(10)


def moment_screen(stats: EnsembleStats, k: int, mean: np.ndarray, cov: np.ndarray):
    """-log10 p of output ``k``'s sample mean and sample covariance against the law N(mean, cov).

    With d the sample mean less ``mean``, n d^T C^-1 d is chi-squared with 4
    degrees of freedom.  With d the ten distinct entries of the sample
    covariance less ``cov``, (n - 1) d^T G^-1 d, G_(ij),(kl) = C_ik C_jl +
    C_il C_jk from Isserlis' theorem, is chi-squared with 10 degrees of freedom
    as n grows (Anderson, An Introduction to Multivariate Statistical
    Analysis, ch. 7).  A bound of 3 on either value is a false-alarm level of
    1e-3 per screen.  The mean's law is exact for Gaussian states at any n.
    The covariance statistic's tail is heavier than chi-squared at small n,
    and its level holds from about n = 200 trajectories: one step from the
    Lyapunov state at lam = 0.4 it fired on 24, 13, 8, 4 and 3 of 2000 seeds
    at n = 20, 50, 100, 200 and 500, where 2 are expected.  ``mean`` and
    ``cov`` are the law the states follow, such as :func:`scheme_moments`.
    """
    n = stats.n_trajectories
    delta = stats.mean[k] - mean
    i, j = np.triu_indices(4)
    spread = stats.cov[k][i, j] - cov[i, j]
    gamma = cov[np.ix_(i, i)] * cov[np.ix_(j, j)] + cov[np.ix_(i, j)] * cov[np.ix_(j, i)]
    return (
        _chi2_tail(n * delta @ np.linalg.solve(cov, delta), 4),
        _chi2_tail((n - 1) * spread @ np.linalg.solve(gamma, spread), 10),
    )


class _Args:
    """A call's arguments, hashed and compared by ``key``, their values: never by identity."""

    __slots__ = ("args", "key")

    def __init__(self, args: tuple, key: tuple) -> None:
        self.args, self.key = args, key

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return self.key == other.key


def _memo(key):
    """Memoise a set-up function by ``key(*args)``, the bytes and numbers it reads, in an LRU of
    ``_MEMO_SIZE`` results (``cache_info``, ``cache_clear``); the arrays it returns are
    read-only, so no caller can change what a later call gets."""

    def wrap(build):
        @functools.lru_cache(maxsize=_MEMO_SIZE)
        def cached(call: _Args):
            out, call.args = build(*call.args), None  # the key alone stays in the memo
            for array in out if isinstance(out, tuple) else (out,):
                array.setflags(write=False)
            return out

        @functools.wraps(build)
        def memoised(*args):
            return cached(_Args(args, key(*args)))

        memoised.cache_info, memoised.cache_clear = cached.cache_info, cached.cache_clear
        return memoised

    return wrap


@_memo(lambda cov: (np.shape(cov), np.asarray(cov, dtype=float).tobytes()))
def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """PSD square root tolerant of semidefinite covariances; memoised by the covariance's bytes."""
    vals, vecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _finite(states: np.ndarray, indices: range, times: np.ndarray) -> np.ndarray:
    """``states`` (g, n, 4) at output ``times``; name the earliest output's first bad trajectory."""
    if not np.isfinite(states).all():
        out, row = np.argwhere(~np.isfinite(states).all(axis=-1))[0]
        raise NumericalOverflow(f"trajectory {indices[row]} overflowed near t = {times[out]:.6g}")
    return states


@_memo(lambda dn, dt: (dn.theta.tobytes(), dn.diffusion_matrix.tobytes(), float(dt).hex()))
def _base_step(dn: DriftNoise, dt: float):
    """(d, F_1) of one step, d = A - I and F_1 = sqrt(dt) amp B, from the half step h = B - I
    taken once: d = 2h + h^2 and F_1 = sqrt(dt) amp (I + h), a dense 2x4 factor.  Memoised
    (:func:`_memo`) by the bytes of theta and of diag(0, D1, 0, D2) and by dt, so the gap maps
    and :func:`scheme_moments` of one system and step share one :func:`_expm1`."""
    half = _expm1(-0.5 * dt * dn.theta.T)
    amp = np.sqrt(dn.diffusion_matrix[1::2]) * np.sqrt(dt)  # the driven rows p1, p2 of sigma
    return 2 * half + half @ half, amp + amp @ half


@_memo(lambda drift, factor, length: (drift.tobytes(), factor.shape, factor.tobytes(), length))
def _gap_map(drift: np.ndarray, factor: np.ndarray, length: int):
    """(A^L, F_L) of a gap of ``length`` steps from the step's (A - I, F_1); NaN F_L if S_L overflows.

    The pair (A^m, S_m) composes over the binary digits of L: doubling takes
    (A, S) to (A^2, S + A^T S A), and a digit adds S_m <- S_m + (A^m)^T S A^m.
    The square is carried as d = A - I, d <- 2d + d^2, so that slow decays
    are not rounded off against 1.  Memoised (:func:`_memo`) by the bytes of
    (A - I, F_1) and by L, so each gap length of a system and step is composed
    once per process.
    """
    eye = np.eye(4)
    if length == 1:
        return eye + drift, factor.copy()  # the caller's array is not made read-only
    d, s = drift, factor.T @ factor  # A - I and S over 2^j steps
    power, cov = eye, np.zeros((4, 4))  # A^m and S_m over the digits taken
    while length:
        if length & 1:
            cov = cov + power.T @ s @ power
            power = power + d @ power
        length >>= 1
        if length:
            s = s + (eye + d).T @ s @ (eye + d)
            d = 2 * d + d @ d
    return power, _gaussian_factor(cov).T if np.isfinite(cov).all() else np.full((4, 4), np.nan)


class _Plan(NamedTuple):
    """What every chunk of one call shares: the output steps and times, the map of each
    distinct gap length (:func:`_gap_map`), the gap lengths between outputs, where each gap's
    normals end per trajectory, a fill's width per trajectory and the start's square root."""

    steps: np.ndarray
    times: np.ndarray
    maps: dict
    gaps: list
    ends: list
    width: int
    start: np.ndarray | None


def _plan(dn: DriftNoise, cfg: SimConfig) -> _Plan:
    """The call's plan.  The steps, times, gaps, ends and width are laid out per call, so no
    two calls share ``times``; the step, the maps and the start's square root come read-only
    from the memos of :func:`_base_step`, :func:`_gap_map` and :func:`_gaussian_factor`,
    keyed by value, so each is built once per system and step while it stays in its memo."""
    steps = np.arange(0, cfg.n_steps + 1, cfg.resolved_stride())
    if steps[-1] != cfg.n_steps:
        steps = np.append(steps, cfg.n_steps)
    gaps = np.diff(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        drift, factor = _base_step(dn, cfg.dt)
        maps = {gap: _gap_map(drift, factor, gap) for gap in set(gaps.tolist())}
    ends = (4 if cfg.initial_mean is not None else 0) + np.cumsum(np.where(gaps == 1, 2, 4))
    # FILL_NORMALS over the first (largest) chunk's rows, room for the start and one gap
    # at least, never more than a trajectory uses
    width = int(min(max(FILL_NORMALS // min(cfg.n_trajectories, CHUNK_TRAJECTORIES), 8), ends[-1]))
    start = None if cfg.initial_mean is None else _gaussian_factor(cfg.initial_cov)
    return _Plan(steps, steps * cfg.dt, maps, gaps.tolist(), ends.tolist(), width, start)


@contextlib.contextmanager
def _noise(seed: int, chunks, plan: _Plan):
    """Enter to get an iterator of (lo, hi, noise) per fill of each chunk (a range of
    trajectories, from any iterable of them) in turn; ``noise`` holds the fill's normals.

    The stream of chunk c, ``SFC64(SeedSequence(seed mod 2**64, spawn_key=(c,)))``,
    is gap-major: the block of a gap whose normals end at ``end`` (per
    trajectory, in ``plan.ends``) with k of them is the (n, k) array at
    n * (end - k), row j for the chunk's trajectory j.  A fill holds the
    whole gaps in normals lo .. hi - 1 per trajectory, at most ``plan.width``
    of them, and is one call, which releases the interpreter lock; ``noise``
    stays valid until the next fill is asked for.  Where the chunks take
    more than one fill, the largest (the first chunk's) holds at least
    ``AHEAD_NORMALS`` normals and a second CPU is usable, one helper thread
    draws the next fill into the other of two buffers while the caller
    works on this one; otherwise each fill is drawn when asked for, into
    one buffer.  The helper thread has ended when the ``with`` block is
    left, by return or by raise.
    """

    def draw(rng, n, lo, hi, noise):
        noise = noise[: n * (hi - lo)]
        rng.standard_normal(len(noise), out=noise)
        return lo, hi, noise

    def jobs():
        entropy = int(seed) % (1 << 64)
        for chunk in chunks:
            stream = np.random.SeedSequence(entropy, spawn_key=(chunk.start // CHUNK_TRAJECTORIES,))
            rng = np.random.Generator(np.random.SFC64(stream))
            lo = 0
            while lo < ends[-1]:
                hi = ends[bisect.bisect_right(ends, lo + width) - 1]
                yield rng, len(chunk), lo, hi
                lo = hi

    def ahead(pool, buffers):
        todo = jobs()
        pending = pool.submit(draw, *next(todo), buffers[0])
        for k, job in enumerate(todo, 1):
            # the caller asks for fill k - 1, so it is done with fill k - 2 in buffers[k % 2]
            current, pending = pending, pool.submit(draw, *job, buffers[k % 2])
            yield current.result()
        yield pending.result()

    chunks = iter(chunks)
    head = list(itertools.islice(chunks, 2))  # the first (largest) chunk, and whether one follows
    chunks = itertools.chain(head, chunks)
    ends, width = plan.ends, plan.width
    fill = len(head[0]) * width  # normals in the largest fill
    several = len(head) > 1 or width < ends[-1]  # a call of one fill has nothing to draw ahead
    if not (several and fill >= AHEAD_NORMALS and _usable_cpus() > 1):
        buffer = np.empty(fill)
        yield (draw(*job, buffer) for job in jobs())
        return
    from concurrent.futures import ThreadPoolExecutor  # loads logging: a few ms of every start

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield ahead(pool, np.empty((2, fill)))


def _steps(cfg: SimConfig, indices: range, plan: _Plan, fills):
    """Step chunk ``indices`` together, one row each; yield (k0, states) per group.

    ``states`` (g, n, 4) holds outputs k0 .. k0 + g - 1, g <= GROUP_OUTPUTS, as a view of a
    component-major (g, 4, n) array that the next group overwrites.  ``fills`` is an iterator
    of :func:`_noise` whose next fills are the chunk's.  Each gap is one move of its map in
    ``plan.maps``, taken in batches: a run of m consecutive gaps of one length whose
    noise lies in the current fill and that fit in the group's free slots gets its noise terms
    from one product into those slots, then each slot adds A^L times the previous state in
    turn.  Addition commutes, so every state is z A^L + zeta F_L bit for bit, and
    ``FILL_NORMALS`` and ``GROUP_OUTPUTS`` bound memory only.  Rows that overflow are left to
    the caller."""
    gaps, ends, maps = plan.gaps, plan.ends, plan.maps
    n = len(indices)
    lo, hi, noise = next(fills)

    group = np.empty((min(GROUP_OUTPUTS, len(plan.steps)), 4, n))
    rows = group.transpose(0, 2, 1)
    if cfg.initial_state is not None:
        rows[0] = np.asarray(cfg.initial_state, dtype=float)
    elif plan.start is not None:
        rows[0] = np.asarray(cfg.initial_mean, dtype=float) + noise[: 4 * n].reshape(n, 4) @ plan.start.T
    else:
        group[0] = 0.0
    z = group[0]
    k0, g, i = 0, 1, 0  # group[:g] holds outputs k0 .. k0 + g - 1; gap i comes next
    with np.errstate(over="ignore", invalid="ignore"):
        while i < len(gaps):
            if ends[i] > hi:
                lo, hi, noise = next(fills)
            if g == len(group):
                yield k0, rows
                z = z.copy()  # its slot takes the next batch
                k0, g = k0 + g, 0
            length = gaps[i]
            m = 1
            while g + m < len(group) and i + m < len(gaps) and gaps[i + m] == length and ends[i + m] <= hi:
                m += 1
            power, factor = maps[length]
            first = n * (ends[i] - lo - len(factor))
            block = noise[first : first + m * n * len(factor)].reshape(m, n, -1)
            np.matmul(factor.T, block.transpose(0, 2, 1), out=group[g : g + m])
            for slot in group[g : g + m]:
                slot += power.T @ z
                z = slot
            g, i = g + m, i + m
        yield k0, rows[:g]


def _run_chunk(cfg: SimConfig, plan: _Plan, fills, indices: range):
    """One block of trajectories' (count, mean, m2) at every output step, m2 the sum of
    centred outer products.

    A non-finite state makes its output's sum non-finite, so only a group
    with a non-finite sum is searched (:func:`_finite`) for the first bad
    output and trajectory; sums that overflow from finite states are left to
    the caller."""
    n, n_out = len(indices), len(plan.steps)
    mean, m2 = np.empty((n_out, 4)), np.empty((n_out, 4, 4))
    ones = np.ones(n)
    centred = np.empty((min(GROUP_OUTPUTS, n_out), 4, n))
    for k0, rows in _steps(cfg, indices, plan, fills):
        g = len(rows)
        out = slice(k0, k0 + g)
        states = rows.transpose(0, 2, 1)  # (g, 4, n), contiguous
        sums = states @ ones
        if not np.isfinite(sums).all():
            _finite(rows, indices, plan.times[k0:])
        mean[out] = sums / n
        np.subtract(states, mean[out, :, None], out=centred[:g])
        m2[out] = centred[:g] @ centred[:g].transpose(0, 2, 1)
    return n, mean, m2


def _merge(a: tuple, b: tuple) -> tuple:
    """Chan's pairwise update of two chunks' (count, mean, m2), at every output step at once.

    The sums are taken in place into ``a``'s arrays, with ``b``'s as scratch,
    by the same operations in the same order as the plain expressions
    mean_a + delta (n_b / total) and m2_a + m2_b + delta delta^T (n_a n_b / total)."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    total = n_a + n_b
    delta = np.subtract(mean_b, mean_a, out=mean_b)
    m2_a += m2_b
    spread = np.multiply(delta[:, :, None], delta[:, None, :], out=m2_b)
    spread *= n_a * n_b / total
    m2_a += spread
    delta *= n_b / total
    mean_a += delta
    return total, mean_a, m2_a


def _finite_moments(times: np.ndarray, moments: tuple) -> None:
    """Name the first output time at which one of ``moments`` (arrays over the outputs) is not finite."""
    bad = [~np.isfinite(a).reshape(len(times), -1).all(axis=1) for a in moments if not np.isfinite(a).all()]
    if bad:
        k = np.argmax(np.logical_or.reduce(bad))
        raise NumericalOverflow(f"ensemble moments overflowed near t = {times[k]:.6g}")


def _chunks(n: int):
    """The trajectories of each chunk of an ensemble of ``n``, made as they are asked for, so
    that the bookkeeping stays the same size at any ensemble size."""
    return (range(lo, min(lo + CHUNK_TRAJECTORIES, n)) for lo in range(0, n, CHUNK_TRAJECTORIES))


def simulate_ensemble(dn: DriftNoise, cfg: SimConfig) -> EnsembleStats:
    """Integrate an ensemble and return streaming moment statistics.

    Trajectories are partitioned into fixed-size chunks.  The calling thread
    steps and records every chunk in chunk order and merges each one as it
    finishes.  Where more than one CPU is usable (the process's affinity
    mask), the call takes more than one fill of noise and a fill holds at
    least ``AHEAD_NORMALS`` normals, one helper thread draws the next fill,
    chunk after chunk, into the other of two fill buffers while the caller
    steps the current one (:func:`_noise`, as for :func:`sample_trajectory`);
    otherwise each fill is drawn when it is needed, into one buffer.  Below
    that size handing a fill to the helper costs more than it saves, so a
    strided call of a few outputs (a dozen normals per trajectory) draws
    inline and an every-step call draws ahead.  Drawing
    releases the interpreter lock, while the many small products of stepping
    would contend for it, so the design uses at most two threads and does
    not scale to more cores.  The results are bitwise identical either way,
    and memory is at most two fill buffers and one chunk's results besides
    the running total, never growing with the ensemble size; the merge and
    the final spreads are computed in place.  A chunk's moments are its
    count, mean and sum of centred outer products; the energy's mean and
    standard error come from the merged ones (:class:`EnsembleStats`), with
    no per-trajectory energy.  The helper thread has ended when this
    function returns or raises.

    Raises :class:`NumericalOverflow` naming the trajectory and output time
    where a state first leaves the float range, or, where every state is
    finite, the first output time at which a moment (a sum or centred
    product, merged or final, or the energy's mean or standard error formed
    from them) does; a one-trajectory ensemble's NaN spreads are not an
    overflow.
    """
    plan = _plan(dn, cfg)
    # a sum of finite states can leave the float range: that is checked once, at the end
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with _noise(cfg.seed, _chunks(cfg.n_trajectories), plan) as fills:
            run = functools.partial(_run_chunk, cfg, plan, fills)
            n, mean, m2 = functools.reduce(_merge, map(run, _chunks(cfg.n_trajectories)))

        # the mean energy tr(W m2) / (2n) + m W m / 2, taken before m2 becomes cov: a
        # one-trajectory ensemble's m2 is 0, its cov NaN.  m W is formed first, so that a
        # component W gives no weight (a free particle's q) adds 0, not 0 * inf
        weight = energy_weight_matrix(dn.params)
        mw = mean @ weight
        energy_mean = np.einsum("ij,kji->k", weight, m2) / (2 * n)
        energy_mean += 0.5 * np.einsum("ki,ki->k", mw, mean)
        # in place, as m2 / (n - 1) and sqrt((C_ii C_jj + C_ij^2) / (n - 1)); a one-trajectory
        # ensemble has m2 == 0 exactly: 0/0 leaves NaN spreads
        cov = np.divide(m2, n - 1, out=m2)
        diag = np.einsum("kii->ki", cov)
        cov_stderr = np.multiply(diag[:, :, None], diag[:, None, :])
        cov_stderr += cov**2
        cov_stderr /= n - 1
        np.sqrt(cov_stderr, out=cov_stderr)
        mean_stderr = np.sqrt(np.clip(diag, 0.0, None) / n)
        # Var(z^T W z / 2) = tr(W C W C) / 2 + m W C W m for z ~ N(m, C)
        wc = weight @ cov
        energy_var = 0.5 * np.einsum("kij,kji->k", wc, wc) + np.einsum("ki,kij,kj->k", mw, cov, mw)
        energy_stderr = np.sqrt(np.clip(energy_var, 0.0, None) / n)

    spreads = (cov, cov_stderr, mean_stderr, energy_stderr) if n > 1 else ()
    _finite_moments(plan.times, (mean, energy_mean, *spreads))
    return EnsembleStats(
        times=plan.times, mean=mean, mean_stderr=mean_stderr, cov=cov,
        cov_stderr=cov_stderr, energy_mean=energy_mean, energy_stderr=energy_stderr, n_trajectories=n,
    )


def sample_trajectory(dn: DriftNoise, cfg: SimConfig, index: int):
    """Integrate the single trajectory ``index`` of the ensemble.

    Returns (times, states) sampled at the output stride.  The chunk that
    holds ``index`` is stepped as in :func:`simulate_ensemble`, one move per
    gap between outputs, and its row is returned, so the path is bitwise
    identical to ensemble member ``index`` for any chunk size.  Its noise is
    drawn by the ensemble's rule: a chunk of more than one fill of at least
    ``AHEAD_NORMALS`` normals draws the next fill on a helper thread where a
    second CPU is usable, and that thread has ended when this function
    returns or raises.  The cost is O(min(n_trajectories,
    CHUNK_TRAJECTORIES) x outputs), not O(steps); an overflow is reported
    only when this row overflows.
    """
    if not 0 <= index < cfg.n_trajectories:
        raise ValueError(f"index {index} outside [0, {cfg.n_trajectories})")
    plan = _plan(dn, cfg)
    lo = index - index % CHUNK_TRAJECTORIES
    chunk, row = range(lo, min(lo + CHUNK_TRAJECTORIES, cfg.n_trajectories)), index - lo
    states = np.empty((len(plan.steps), 4))
    with _noise(cfg.seed, [chunk], plan) as fills:
        for k0, group in _steps(cfg, chunk, plan, fills):
            path = group[:, row : row + 1]
            states[k0 : k0 + len(group)] = _finite(path, chunk[row : row + 1], plan.times[k0:])[:, 0]
    return plan.times, states
