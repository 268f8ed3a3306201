import math
import warnings

import numpy as np
import pytest

from hybridosc import (
    NumericalOverflow,
    SimConfig,
    SystemParams,
    assemble_drift_noise,
    energy_drift,
    sample_trajectory,
    simulate_ensemble,
    solve_lyapunov,
    total_energy,
)

from conftest import make_params


def test_noise_stream_partition_invariance():
    # the kernel's fills, one call each into a flat buffer, must concatenate to
    # one draw of the chunk's stream whatever the fill width; the integrator's
    # reproducibility contract rests on this property.  A start and gaps of 4,
    # 4, 2, 4 and 2 normals per trajectory, for a chunk of 3 trajectories:
    # each fill holds whole gaps.  Chunk 2's stream is SFC64 seeded by the
    # third child of the seed's SeedSequence, for seeds up to 2**64 - 1
    from hybridosc import sde

    n, chunk, ends = 3, 2, [4, 8, 12, 14, 18, 20]
    rows = range(chunk * sde.CHUNK_TRAJECTORIES, chunk * sde.CHUNK_TRAJECTORIES + n)
    for seed in (42, 0, 2**63 + 5, 2**64 - 1):
        child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
        want = np.random.Generator(np.random.SFC64(child)).standard_normal(n * 20)
        assert np.array_equal(_chunk_stream(seed, chunk).standard_normal(n * 20), want)
        for width, want_fills in (
            (4, [(0, 4), (4, 8), (8, 12), (12, 14), (14, 18), (18, 20)]),
            (8, [(0, 8), (8, 14), (14, 20)]),
            (10, [(0, 8), (8, 18), (18, 20)]),
            (20, [(0, 20)]),
        ):
            plan = sde._Plan(
                steps=None, times=None, maps=None, gaps=None, ends=ends, width=width, start=None,
            )
            got, fills = [], []
            with sde._noise(seed, [rows], plan) as draws:
                for lo, hi, fill in draws:
                    fills.append((lo, hi))
                    got.append(fill.copy())
            assert fills == want_fills, seed
            assert np.array_equal(np.concatenate(got), want), seed


def _chunk_stream(seed, chunk=0):
    stream = np.random.SeedSequence(seed % 2**64, spawn_key=(chunk,))
    return np.random.Generator(np.random.SFC64(stream))


def test_stream_contract_two_normals_per_step(monkeypatch):
    # free particles from rest: p1 and p2 are the running sums of the chunk
    # stream's normals, one (n, 2) block per step, row j for the chunk's
    # trajectory j, column 0 for p1 and column 1 for p2.  In chunks of 1024
    # trajectory 5 is row 5 of chunk 0; in chunks of 3 it is row 2 of chunk 1,
    # whose blocks have 3 rows.  Of 3 * 2**64 trajectories in chunks of 3 the
    # last is row 2 of chunk 2**64 - 1, an index a cast through float loses.
    # sqrt(D dt) is a power of two, so scaling the running sum equals summing
    # the scaled steps bitwise
    from hybridosc import sde

    d1, d2, dt, n_steps, seed = 4.0, 0.25, 1.0 / 64, 50, 13
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, d1, 1.0, 0.0, d2, 0.0))
    for chunk_size, n_traj, chunk, rows, row in (
        (1024, 8, 0, 8, 5), (3, 8, 1, 3, 2), (3, 3 * 2**64, 2**64 - 1, 3, 2),
    ):
        monkeypatch.setattr(sde, "CHUNK_TRAJECTORIES", chunk_size)
        cfg = SimConfig(
            dt=dt, t_final=n_steps * dt, n_trajectories=n_traj, seed=seed,
            initial_state=np.zeros(4), output_stride=1,
        )
        _, path = sample_trajectory(dn, cfg, chunk * chunk_size + row)
        eta = _chunk_stream(seed, chunk).standard_normal((n_steps, rows, 2))[:, row]
        assert np.array_equal(path[1:, 1], np.sqrt(d1 * dt) * np.cumsum(eta[:, 0]))
        assert np.array_equal(path[1:, 3], np.sqrt(d2 * dt) * np.cumsum(eta[:, 1]))
        assert np.all(path[0] == 0.0)


def test_same_seed_same_statistics():
    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(dt=1e-2, t_final=2.0, n_trajectories=64, seed=5)
    s1 = simulate_ensemble(dn, cfg)
    s2 = simulate_ensemble(dn, cfg)
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.cov, s2.cov)


_STATS_ARRAYS = ("times", "mean", "mean_stderr", "cov", "cov_stderr", "energy_mean", "energy_stderr")


def _count_threads_at_merges(monkeypatch):
    # the number of running threads each time a finished chunk is merged
    import threading

    from hybridosc import sde

    seen, merge = [], sde._merge

    def counting(*args):
        seen.append(threading.active_count())
        return merge(*args)

    monkeypatch.setattr(sde, "_merge", counting)
    return seen


@pytest.mark.parametrize("block_steps", [None, 7], ids=["default", "7"])
def test_thread_count_does_not_change_results(monkeypatch, block_steps):
    # 2100 trajectories make three chunks, the last one partial.  Every-step
    # fills of 200 normals per trajectory are drawn ahead; fills of 7 steps,
    # 14 normals, are drawn ahead only with AHEAD_NORMALS lowered to 0, and
    # then each chunk takes 15 fills, so the helper thread hands over fills
    # drawn ahead within a chunk and from one chunk to the next.  At most one
    # helper thread runs during the call and none is left after it
    import sys
    import threading

    from hybridosc import sde

    if block_steps is not None:
        monkeypatch.setattr(sde, "FILL_NORMALS", 2 * block_steps * sde.CHUNK_TRAJECTORIES)
        monkeypatch.setattr(sde, "AHEAD_NORMALS", 0)
    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(dt=1e-2, t_final=1.0, n_trajectories=2100, seed=5)
    before = threading.active_count()
    seen = _count_threads_at_merges(monkeypatch)
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
    serial = simulate_ensemble(dn, cfg)
    assert set(seen) == {before}
    seen.clear()
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock between the threads often
    try:
        threaded = simulate_ensemble(dn, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert max(seen) == before + 1
    assert threading.active_count() == before
    for name in _STATS_ARRAYS:
        assert np.array_equal(getattr(serial, name), getattr(threaded, name)), name


def test_short_strided_call_draws_inline(monkeypatch):
    # the shape of the stationary benchmark call: 5000 trajectories in five
    # chunks, 4096 steps at stride 2048 from a stationary start, so a fill is
    # the start and two gaps, 12 normals for each of 1024 trajectories, below
    # AHEAD_NORMALS.  With two CPUs no helper thread starts, and the results
    # equal those with every fill drawn ahead bit for bit
    import threading

    from hybridosc import sde

    dn = assemble_drift_noise(SystemParams.natural_units(0.05))
    cfg = SimConfig(
        dt=5e-4, t_final=4096 * 5e-4, n_trajectories=5000, seed=3,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=2048,
    )
    assert 12 * sde.CHUNK_TRAJECTORIES < sde.AHEAD_NORMALS
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    seen = _count_threads_at_merges(monkeypatch)
    inline = simulate_ensemble(dn, cfg)
    assert seen == [before] * 4
    seen.clear()
    monkeypatch.setattr(sde, "AHEAD_NORMALS", 0)
    ahead = simulate_ensemble(dn, cfg)
    assert seen == [before + 1] * 4
    assert threading.active_count() == before
    for name in _STATS_ARRAYS:
        assert np.array_equal(getattr(inline, name), getattr(ahead, name)), name


def test_noise_block_length_does_not_change_results(monkeypatch):
    # 1100 trajectories make two chunks; 100 steps in blocks of 7 end in a
    # partial block of 2
    from hybridosc import sde

    dn = assemble_drift_noise(SystemParams.natural_units(0.3))
    cfg = SimConfig(
        dt=1e-2, t_final=1.0, n_trajectories=1100, seed=6,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=3,
    )
    default = simulate_ensemble(dn, cfg)
    monkeypatch.setattr(sde, "FILL_NORMALS", 14 * sde.CHUNK_TRAJECTORIES)
    blocked = simulate_ensemble(dn, cfg)
    for name in _STATS_ARRAYS:
        assert np.array_equal(getattr(default, name), getattr(blocked, name)), name


def test_group_size_does_not_change_results(monkeypatch):
    # 101 every-step outputs in groups of 3 end in a partial group of 2
    from hybridosc import sde

    dn = assemble_drift_noise(SystemParams.natural_units(0.3))
    cfg = SimConfig(
        dt=1e-2, t_final=1.0, n_trajectories=1100, seed=6,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=1,
    )
    default = simulate_ensemble(dn, cfg)
    monkeypatch.setattr(sde, "GROUP_OUTPUTS", 3)
    grouped = simulate_ensemble(dn, cfg)
    for name in _STATS_ARRAYS:
        assert np.array_equal(getattr(default, name), getattr(grouped, name)), name


@pytest.mark.parametrize("cpus", [1, 2])
def test_overflow_report_does_not_depend_on_group_size(monkeypatch, cpus):
    # free particles move exactly q <- q + p dt, so momenta of about 1e150
    # drawn from the start's Gaussian take the positions out of the float
    # range at outputs set by each trajectory's momentum: trajectory 5 near
    # step 2246, far past the first group, then trajectories 4 and 0 within a
    # few hundred steps (the sums over trajectories leave it earlier, with
    # every state finite).  So the report must take the first bad output,
    # then its first bad trajectory, as the per-gap loop on the same stream
    # finds them, with no RuntimeWarning.  With two CPUs, AHEAD_NORMALS
    # lowered to 0 and fills of 6 x 256 normals (the run takes 24 of them)
    # the helper thread drawing ahead must have ended when the error is raised
    import threading

    from hybridosc import sde

    monkeypatch.setattr(sde, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sde, "AHEAD_NORMALS", 0)
    monkeypatch.setattr(sde, "FILL_NORMALS", 6 * 256)
    runaway, cfg = _runaway_free_particles()
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(_per_gap_scheme(runaway, cfg, range(6))).all(axis=-1)
    step, row = np.argwhere(bad)[0]
    assert step > 2000 and row > 0
    messages = []
    for group in (1, 3, 16):
        monkeypatch.setattr(sde, "GROUP_OUTPUTS", group)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow) as caught:
                simulate_ensemble(runaway, cfg)
        assert threading.active_count() == before
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0] == f"trajectory {row} overflowed near t = {step * cfg.dt:.6g}"


def _runaway_free_particles():
    # free particles whose momenta of about 1e150 take the positions out of the float range
    # within 3000 every-step outputs: trajectory 5 near step 2246
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0))
    cfg = SimConfig(
        dt=5e154, t_final=3000 * 5e154, n_trajectories=6, seed=7,
        initial_mean=np.zeros(4), initial_cov=np.diag([1e-6, 1e300, 1e-6, 1e300]), output_stride=1,
    )
    return dn, cfg


def _count_threads_in_steps(monkeypatch):
    # the number of running threads each time a chunk's stepping yields a group
    import threading

    from hybridosc import sde

    seen, steps = [], sde._steps

    def counting(*args):
        for group in steps(*args):
            seen.append(threading.active_count())
            yield group

    monkeypatch.setattr(sde, "_steps", counting)
    return seen


def test_sample_trajectory_draws_ahead_as_the_ensemble_does(monkeypatch):
    # one every-step chunk of 40 trajectories, 700 steps in fills of 100: with
    # AHEAD_NORMALS lowered to 0 and two CPUs the chunk takes seven fills, so
    # sample_trajectory draws the next one on a helper thread, as
    # simulate_ensemble would, and the path is the member's of the per-gap
    # loop and the one drawn inline bit for bit.  No helper thread is left
    # after it returns
    import threading

    from hybridosc import sde

    monkeypatch.setattr(sde, "FILL_NORMALS", 200 * 40)
    monkeypatch.setattr(sde, "AHEAD_NORMALS", 0)
    dn = assemble_drift_noise(SystemParams.natural_units(0.3, d1=1.5, d2=0.7))
    cfg = SimConfig(
        dt=1e-2, t_final=7.0, n_trajectories=40, seed=21,
        initial_state=np.array([1.0, -0.5, 0.3, 0.8]), output_stride=1,
    )
    before = threading.active_count()
    seen = _count_threads_in_steps(monkeypatch)
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
    _, inline = sample_trajectory(dn, cfg, 17)
    assert set(seen) == {before}
    seen.clear()
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    _, ahead = sample_trajectory(dn, cfg, 17)
    assert set(seen) == {before + 1}
    assert threading.active_count() == before
    assert np.array_equal(ahead, inline)
    assert np.array_equal(ahead, _per_gap_scheme(dn, cfg, range(cfg.n_trajectories))[:, 17])


def test_sample_trajectory_helper_has_ended_when_it_raises(monkeypatch):
    # the runaway free particles in 24 fills of 6 x 256 normals drawn ahead:
    # trajectory 5's path overflows at the output the per-gap loop finds, and
    # the helper thread has ended when the error is raised
    import threading

    from hybridosc import sde

    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sde, "AHEAD_NORMALS", 0)
    monkeypatch.setattr(sde, "FILL_NORMALS", 6 * 256)
    runaway, cfg = _runaway_free_particles()
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(_per_gap_scheme(runaway, cfg, range(6))[:, 5]).all(axis=-1)
    step = np.argmax(bad)
    assert step > 2000
    before = threading.active_count()
    seen = _count_threads_in_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow) as caught:
            sample_trajectory(runaway, cfg, 5)
    assert set(seen) == {before + 1}
    assert threading.active_count() == before
    assert str(caught.value) == f"trajectory 5 overflowed near t = {step * cfg.dt:.6g}"


def _per_gap_scheme(dn, cfg, indices):
    # the scheme one gap between outputs at a time, z <- z A^L + zeta F_L with the
    # maps of sde._plan, on the chunk's stream: an (n, 4) block for a Gaussian
    # start, then an (n, k) block per gap.  At stride 1 every gap is one step,
    # z <- z A + eta F_1 with eta the (n, 2) block for the driven rows
    from hybridosc import sde

    assert indices.start % sde.CHUNK_TRAJECTORIES == 0 and len(indices) <= sde.CHUNK_TRAJECTORIES
    n = len(indices)
    rng = _chunk_stream(cfg.seed, indices.start // sde.CHUNK_TRAJECTORIES)
    if cfg.initial_mean is not None:
        z = cfg.initial_mean + rng.standard_normal((n, 4)) @ sde._gaussian_factor(cfg.initial_cov).T
    else:
        z = np.tile(np.asarray(cfg.initial_state, dtype=float), (n, 1))
    plan = sde._plan(dn, cfg)
    path = [z]
    for length in plan.gaps:
        power, factor = plan.maps[length]
        z = z @ power + rng.standard_normal((n, len(factor))) @ factor
        path.append(z)
    return np.array(path)


def _close(got, want, rtol):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("group", [1, 3, 16])
def test_composed_pieces_match_per_step_loop(monkeypatch, group):
    # every gap between outputs is one step, so the kernel takes the step
    # itself and must follow the per-step loop sample by sample; 700
    # steps in 100-step noise blocks take seven fills of the chunk's stream, so
    # batches of steps end at fill ends as well as at group ends.  Longer gaps
    # are exact in law only (test_gap_map_matches_per_step_recursion and the
    # tests after it)
    from hybridosc import sde

    monkeypatch.setattr(sde, "FILL_NORMALS", 200 * 40)
    monkeypatch.setattr(sde, "GROUP_OUTPUTS", group)
    params = SystemParams.natural_units(0.3, d1=1.5, d2=0.7)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(
        dt=1e-2, t_final=7.0, n_trajectories=40, seed=21,
        initial_state=np.array([1.0, -0.5, 0.3, 0.8]), output_stride=1,
    )
    ref = _per_gap_scheme(dn, cfg, range(cfg.n_trajectories))
    assert len(ref) == 701

    stats = simulate_ensemble(dn, cfg)
    assert _close(stats.mean, ref.mean(axis=1), 1e-13)
    assert _close(stats.cov, np.array([np.cov(z, rowvar=False) for z in ref]), 1e-13)
    assert _close(stats.energy_mean, total_energy(params, ref).mean(axis=1), 1e-13)
    _, path = sample_trajectory(dn, cfg, 17)
    assert np.array_equal(path, ref[:, 17])


@pytest.mark.parametrize("group", [1, 3, 16])
def test_strided_paths_match_per_gap_loop(monkeypatch, group):
    # outputs every 10 steps over 101 steps: ten (n, 4) blocks, then a one-step
    # gap's (n, 2) block in the same fill.  Fills of 14 normals per trajectory
    # hold at most three gaps, so batches of gaps end at fill ends, at the
    # change of gap length and at group ends; each state must still be
    # z A^L + zeta F_L of the per-gap loop bit for bit
    from hybridosc import sde

    monkeypatch.setattr(sde, "FILL_NORMALS", 14 * 40)
    monkeypatch.setattr(sde, "GROUP_OUTPUTS", group)
    dn = assemble_drift_noise(SystemParams.natural_units(0.3, d1=1.5, d2=0.7))
    cfg = SimConfig(
        dt=1e-2, t_final=1.01, n_trajectories=40, seed=22,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=10,
    )
    plan = sde._plan(dn, cfg)
    assert plan.gaps == [10] * 10 + [1]
    ref = _per_gap_scheme(dn, cfg, range(cfg.n_trajectories))

    got, chunk = np.empty_like(ref), range(cfg.n_trajectories)
    with sde._noise(cfg.seed, [chunk], plan) as fills:
        for k0, states in sde._steps(cfg, chunk, plan, fills):
            got[k0 : k0 + len(states)] = states
    assert np.array_equal(got, ref)
    _, path = sample_trajectory(dn, cfg, 17)
    assert np.array_equal(path, ref[:, 17])


@pytest.mark.parametrize("length", [1, 2, 3, 64, 2048, 5000])
@pytest.mark.parametrize(
    "params",
    [SystemParams.natural_units(lam, d1=1.5, d2=0.7) for lam in (1e-3, 0.05, 1.0)]
    # only p2 driven and no coupling: S_L has rank 2
    + [make_params(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.7, 0.0)],
    ids=["lam1e-3", "lam0.05", "lam1", "rank2"],
)
def test_gap_map_matches_per_step_recursion(params, length):
    # A^L and S_L = sum_k (F_1 A^k)^T (F_1 A^k), the covariance of L steps'
    # noise, against the step applied L times, at the dt of the acceptance
    # Monte Carlo
    power, cov, got_power, factor = _gap_map_and_loop(params, 5e-4, length)
    assert len(factor) == (2 if length == 1 else 4)
    assert _close(got_power, power, 1e-13)
    assert _close(factor.T @ factor, cov, 1e-12)


def _scipy_step(dn, dt):
    # the step's pair from scipy's expm, independent of the library's series:
    # A = e^{-theta^T dt} and F_1 = sqrt(dt) amp e^{-theta^T dt / 2}
    from scipy.linalg import expm

    amp = np.sqrt(dn.diffusion_matrix[1::2] * dt)
    return expm(-(dn.theta * dt).T), amp @ expm(-(dn.theta * dt / 2).T)


def _gap_map_and_loop(params, dt, length):
    from hybridosc import sde

    dn = assemble_drift_noise(params)
    step_t, amp = _scipy_step(dn, dt)
    power, cov = np.eye(4), np.zeros((4, 4))
    for _ in range(length):
        cov += (amp @ power).T @ (amp @ power)
        power = power @ step_t
    return (power, cov, *sde._gap_map(step_t - np.eye(4), amp, length))


def test_gap_map_rounding_is_absolute_on_long_decays():
    # A^L composes as x <- x + d x, so its rounding is about eps at the scale
    # of I.  Over 5000 steps of dt = 1e-2 at lam = 1, A^L has decayed to about
    # 3e-5, and that error is about 1e-12 of it (the per-step loop: 1e-14);
    # a state moved by A^L is off by eps |z|, far below the gap's noise
    power, cov, got_power, factor = _gap_map_and_loop(SystemParams.natural_units(1.0), 1e-2, 5000)
    assert np.max(np.abs(power)) < 1e-4
    assert np.max(np.abs(got_power - power)) <= 1e-15
    assert _close(factor.T @ factor, cov, 1e-12)


def test_stream_contract_four_normals_per_longer_gap():
    # free particles from a Gaussian start over 2L + 1 steps at stride L: the
    # start takes the chunk stream's first (n, 4) block, each L-step gap the
    # next (times F_L, a square root of S_L) and the final one-step gap an
    # (n, 2) block times F_1, trajectory j reading row j of each.
    # For a free particle q <- q + dt p, and the noise sqrt(D dt) eta enters p
    # at the step's midpoint, so that k steps before the gap's end it has
    # moved q by (k + 1/2) dt times itself: S_L is the sum over k < L,
    # D dt [[dt^2 (L^3/3 - L/12), dt L^2 / 2], [dt L^2 / 2, L]]
    from hybridosc import sde

    diffusion, dt, length, seed, index = (4.0, 0.25), 1.0 / 64, 50, 13, 5
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, diffusion[0], 1.0, 0.0, diffusion[1], 0.0))
    cov0 = np.array([[1.0, 0.3, 0.0, 0.1], [0.3, 2.0, 0.2, 0.0], [0.0, 0.2, 0.5, 0.0], [0.1, 0.0, 0.0, 1.5]])
    cfg = SimConfig(
        dt=dt, t_final=(2 * length + 1) * dt, n_trajectories=8, seed=seed,
        initial_mean=np.zeros(4), initial_cov=cov0, output_stride=length,
    )
    _, path = sample_trajectory(dn, cfg, index)

    plan = sde._plan(dn, cfg)
    assert plan.steps.tolist() == [0, length, 2 * length, 2 * length + 1]
    power, factor = plan.maps[length]
    step, amp = plan.maps[1]
    n = length
    block = np.array([[dt**2 * (n**3 / 3 - n / 12), dt * n**2 / 2], [dt * n**2 / 2, n]])
    exact = np.zeros((4, 4))
    for k, d in enumerate(diffusion):
        exact[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = d * dt * block
    assert _close(factor.T @ factor, exact, 1e-12)
    assert _close(power, np.kron(np.eye(2), [[1.0, 0.0], [n * dt, 1.0]]), 1e-15)

    rng = _chunk_stream(seed)
    zeta = [rng.standard_normal((8, k))[index] for k in (4, 4, 4, 2)]
    want = [zeta[0] @ sde._gaussian_factor(cov0).T]
    want.append(want[-1] @ power + zeta[1] @ factor)
    want.append(want[-1] @ power + zeta[2] @ factor)
    want.append(want[-1] @ step + zeta[3] @ amp)
    assert _close(path, np.array(want), 1e-14)
    # the one step: A moves q by dt p, F_1 adds sqrt(D dt) eta to p and half a step of it to q
    s1, s2 = np.sqrt(np.array(diffusion) * dt)
    assert np.array_equal(step, np.eye(4) + np.kron(np.eye(2), [[0.0, 0.0], [dt, 0.0]]))
    assert np.array_equal(amp, [[s1 * dt / 2, s1, 0.0, 0.0], [0.0, 0.0, s2 * dt / 2, s2]])


# False-alarm level of each Monte Carlo screen below: a correct sampler fails
# one screen on one in a thousand seeds.  sde.moment_screen returns -log10 p
SCREEN_LEVEL = 1e-3
SCREEN_BOUND = -math.log10(SCREEN_LEVEL)


def _scheme_moments(dn, cfg, mean, cov):
    # the scheme's own mean and covariance at each output, step by step from
    # (mean, cov) with scipy's pair: m <- m A, C <- A^T C A + F_1^T F_1, dt bias kept
    from hybridosc import sde

    step_t, amp = _scipy_step(dn, cfg.dt)
    outputs = set(sde._plan(dn, cfg).steps.tolist())
    means, covs = [], []
    for k in range(cfg.n_steps + 1):
        if k:
            mean, cov = mean @ step_t, step_t.T @ cov @ step_t + amp.T @ amp
        if k in outputs:
            means.append(mean)
            covs.append(cov)
    return np.array(means), np.array(covs)


def _strided_cold_start():
    # a cold start at dt = 0.05, outputs every 50 steps
    dn = assemble_drift_noise(SystemParams.natural_units(1.0))
    cfg = SimConfig(
        dt=0.05, t_final=40.0, n_trajectories=4000, seed=17,
        initial_state=np.array([1.0, 0.0, -0.5, 0.5]), output_stride=50,
    )
    return dn, cfg, cfg.initial_state, np.zeros((4, 4))


def _verify_stationary_start():
    # the run of verify's Monte Carlo rows at lam = 1e-3: 5000 steps from Lyapunov
    dn = assemble_drift_noise(SystemParams.natural_units(1e-3))
    cov = solve_lyapunov(dn)
    cfg = SimConfig(
        dt=1e-3, t_final=5.0, n_trajectories=200, initial_mean=np.zeros(4), initial_cov=cov,
    )
    return dn, cfg, cfg.initial_mean, cov


@pytest.mark.parametrize("case", [_strided_cold_start, _verify_stationary_start],
                         ids=["strided_cold_start", "verify_stationary_start"])
def test_scheme_moments_match_per_step_loop(case):
    # the library's composed moments, built from theta, Q and dt, against the
    # per-step oracle at every output step
    from hybridosc import sde

    dn, cfg, mean0, cov0 = case()
    means, covs = _scheme_moments(dn, cfg, mean0, cov0)
    steps = sde._plan(dn, cfg).steps
    assert len(steps) == len(covs)
    for step, mean, cov in zip(steps.tolist(), means, covs):
        got_mean, got_cov = sde.scheme_moments(dn, cfg.dt, step, mean0, cov0)
        assert _close(got_mean, mean, 1e-12)
        assert _close(got_cov, cov, 1e-12)


def test_chi2_tail_stays_finite_where_the_tail_underflows():
    # -log10 of e^-h, e^-h (1 + h) and e^-h sum_{j<5} h^j / j! (2, 4 and 10
    # degrees of freedom, h = x/2); at x = 5000 the tails themselves underflow to 0
    from hybridosc import sde

    for x in (0.0, 3.0, 40.0, 5000.0):
        h = x / 2
        series = sum(h**j / math.factorial(j) for j in range(5))
        for dof, log_sum in ((2, 0.0), (4, math.log1p(h)), (10, math.log(series))):
            assert sde._chi2_tail(x, dof) == pytest.approx((h - log_sum) / math.log(10), rel=1e-13)


def test_strided_ensemble_follows_the_scheme_covariance():
    # the ensemble follows the scheme's own moments (its dt bias kept), whose
    # covariance at the end is within the step's stated bias, (gamma1 dt)^2 /
    # 12 = 2.1e-4 here, of the Lyapunov solution of the continuous process
    # (it reads 1.0e-4)
    from hybridosc import sde

    dn, cfg, mean0, cov0 = _strided_cold_start()
    stats = simulate_ensemble(dn, cfg)
    steps = sde._plan(dn, cfg).steps
    assert len(steps) == len(stats.times) == 17
    for k in (1, -1):
        mean, cov = sde.scheme_moments(dn, cfg.dt, steps[k], mean0, cov0)
        assert max(sde.moment_screen(stats, k, mean, cov)) < SCREEN_BOUND
    assert _close(cov, solve_lyapunov(dn), cfg.dt**2 / 12)


def test_covariance_screen_level_holds_from_200_trajectories():
    # one step from the Lyapunov state at lam = 0.4, 1000 seeds of 200
    # trajectories: the covariance screen's p < 0.1, 1e-2 and 1e-3 rates sit at
    # their levels (100, 10 and 1 expected; outside 70-130, above 22 and above
    # 5 are each a tail of 0.3% or less), so it is neither too strict nor too
    # lenient.  Below about 200 trajectories the chi-squared tail is too
    # light: 20 trajectories fire 12 times as often as the level says
    from hybridosc import sde

    dn = assemble_drift_noise(SystemParams.natural_units(0.4))
    cov = solve_lyapunov(dn)
    start = dict(dt=1e-3, t_final=1e-3, n_trajectories=200, initial_mean=np.zeros(4), initial_cov=cov)
    mean, scheme = sde.scheme_moments(dn, 1e-3, 1, np.zeros(4), cov)
    values = np.array([
        sde.moment_screen(simulate_ensemble(dn, SimConfig(seed=seed, **start)), -1, mean, scheme)[1]
        for seed in range(1000)
    ])
    assert 70 <= np.sum(values > 1) <= 130
    assert np.sum(values > 2) <= 22
    assert np.sum(values > SCREEN_BOUND) <= 5


def test_energy_is_the_quadratic_form():
    rng = np.random.default_rng(4)
    params = make_params(1.3, 0.8, 0.5, 0.0, 0.7, 1.9, 0.0, 0.45)
    w = np.array(
        [[0.8 + 0.45, 0.0, -0.45, 0.0], [0.0, 1 / 1.3, 0.0, 0.0],
         [-0.45, 0.0, 1.9 + 0.45, 0.0], [0.0, 0.0, 0.0, 1 / 0.7]]
    )
    states = rng.standard_normal((3, 5, 4))
    explicit = np.empty((3, 5))
    for g in range(3):
        for n in range(5):
            z = states[g, n]
            explicit[g, n] = 0.5 * sum(z[i] * w[i, j] * z[j] for i in range(4) for j in range(4))
    np.testing.assert_allclose(total_energy(params, states), explicit, rtol=1e-14)
    np.testing.assert_allclose(total_energy(params, states[1]), explicit[1], rtol=1e-14)
    assert total_energy(params, states[1, 2]) == pytest.approx(explicit[1, 2], rel=1e-14)


def _pooled_states(dn, cfg):
    # every trajectory's state at every output, (outputs, trajectories, 4), stepped chunk by
    # chunk as the ensemble steps them
    from hybridosc import sde

    plan = sde._plan(dn, cfg)
    pooled = np.empty((len(plan.steps), cfg.n_trajectories, 4))
    chunks = [
        range(lo, min(lo + sde.CHUNK_TRAJECTORIES, cfg.n_trajectories))
        for lo in range(0, cfg.n_trajectories, sde.CHUNK_TRAJECTORIES)
    ]
    with sde._noise(cfg.seed, chunks, plan) as fills:
        for chunk in chunks:
            for k0, group in sde._steps(cfg, chunk, plan, fills):
                pooled[k0 : k0 + len(group), chunk.start : chunk.stop] = group
    return pooled


def test_merged_chunks_equal_pooled_moments():
    # 2100 trajectories make three chunks, the last one partial; the merged
    # moments must equal plain sample statistics of all trajectories at once,
    # and the energy's standard error the Gaussian formula on them,
    # Var(z^T W z / 2) = tr(W C W C) / 2 + m W C W m
    from hybridosc.model import energy_weight_matrix

    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(
        dt=1e-2, t_final=1.0, n_trajectories=2100, seed=8,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=10,
    )
    stats = simulate_ensemble(dn, cfg)
    w = energy_weight_matrix(params)
    for k, z in enumerate(_pooled_states(dn, cfg)):
        m, c = z.mean(axis=0), np.cov(z, rowvar=False)
        np.testing.assert_allclose(stats.mean[k], m, rtol=1e-12)
        np.testing.assert_allclose(stats.cov[k], c, rtol=1e-12)
        np.testing.assert_allclose(stats.energy_mean[k], total_energy(params, z).mean(), rtol=1e-12)
        var = 0.5 * np.trace(w @ c @ w @ c) + m @ w @ c @ w @ m
        np.testing.assert_allclose(stats.energy_stderr[k], np.sqrt(var / len(z)), rtol=1e-12)


@pytest.mark.parametrize("start", ["gaussian", "fixed"])
def test_energy_stderr_matches_the_spread_of_trajectory_energies(start):
    # the Gaussian formula against the empirical standard error of the 2100
    # trajectories' energies at every output: sampling noise is a few percent,
    # while a dropped 1/2 on the trace term or a dropped mean term is far more.
    # The fixed start moves off a non-zero mean, where the m W C W m term dominates
    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    initial = (
        dict(initial_mean=np.array([0.5, 0.0, -0.4, 0.2]), initial_cov=solve_lyapunov(dn))
        if start == "gaussian" else dict(initial_state=np.array([1.0, -0.5, 0.3, 0.8]))
    )
    cfg = SimConfig(dt=1e-2, t_final=1.0, n_trajectories=2100, seed=8, output_stride=10, **initial)
    stats = simulate_ensemble(dn, cfg)
    energies = total_energy(params, _pooled_states(dn, cfg))
    empirical = energies.std(axis=1, ddof=1) / math.sqrt(cfg.n_trajectories)
    first = 0
    if start == "fixed":  # every trajectory has the same energy at t = 0: no spread to compare
        assert stats.energy_stderr[0] < 1e-12 * stats.energy_mean[0]
        first = 1
    np.testing.assert_allclose(stats.energy_stderr[first:], empirical[first:], rtol=0.1)


def test_one_trajectory_ensemble_has_nan_spreads():
    dn = assemble_drift_noise(SystemParams.natural_units(0.3))
    stats = simulate_ensemble(dn, SimConfig(dt=1e-2, t_final=0.5, n_trajectories=1, seed=2))
    for name in ("cov", "cov_stderr", "mean_stderr", "energy_stderr"):
        assert np.isnan(getattr(stats, name)).all(), name
    assert np.isfinite(stats.mean).all()
    assert np.isfinite(stats.energy_mean).all()


def test_sample_trajectory_deterministic_and_matches_ensemble_member():
    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(dt=1e-2, t_final=2.0, n_trajectories=1, seed=11, output_stride=10)
    t1, path1 = sample_trajectory(dn, cfg, 0)
    t2, path2 = sample_trajectory(dn, cfg, 0)
    assert np.array_equal(path1, path2)
    stats = simulate_ensemble(dn, cfg)
    np.testing.assert_array_equal(stats.mean, path1)
    np.testing.assert_array_equal(stats.times, t1)


def test_zero_noise_zero_drift_constant_series():
    # free particles at rest: the drift is nilpotent (zero spectrum) and nothing moves
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    cfg = SimConfig(
        dt=1e-2, t_final=1.0, n_trajectories=1, seed=0,
        initial_state=np.array([0.3, 0.0, 0.1, 0.0]),
    )
    _, path = sample_trajectory(dn, cfg, 0)
    assert np.all(path == path[0])


def test_deterministic_conservative_energy_constant():
    # no noise, no damping, no coupling: the initial displacement oscillates
    # under the exact flow, so the energy moves only by rounding (1.8e-14,
    # 3.5e-14 of it, over the 2000 steps)
    params = make_params(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
    dn = assemble_drift_noise(params)
    dt = 1e-3
    n_steps = 2000
    cfg = SimConfig(
        dt=dt, t_final=n_steps * dt, n_trajectories=1, seed=0,
        initial_state=np.array([1.0, 0.0, 0.0, 0.0]), output_stride=1,
    )
    _, path = sample_trajectory(dn, cfg, 0)
    energies = total_energy(params, path)
    assert np.max(np.abs(energies - energies[0])) <= n_steps * np.finfo(float).eps * energies[0]


def test_stationary_ensemble_matches_lyapunov():
    # from the Lyapunov solution the ensemble follows the scheme's own
    # covariance, which moves off it only by the step's bias, (gamma1 dt)^2 /
    # 12 = 2.1e-6 here (it reads 1.0e-6)
    from hybridosc import sde

    params = SystemParams.natural_units(1.0)
    dn = assemble_drift_noise(params)
    cov = solve_lyapunov(dn)
    cfg = SimConfig(
        dt=5e-3, t_final=40.0, n_trajectories=4000, seed=3,
        initial_mean=np.zeros(4), initial_cov=cov,
    )
    stats = simulate_ensemble(dn, cfg)
    mean, scheme = sde.scheme_moments(dn, cfg.dt, cfg.n_steps, np.zeros(4), cov)
    assert _close(scheme, cov, cfg.dt**2 / 12)
    assert max(sde.moment_screen(stats, -1, mean, scheme)) < SCREEN_BOUND


def test_cold_start_relaxes_to_lyapunov():
    # strong coupling so the slowest mode relaxes quickly
    from hybridosc import sde

    params = SystemParams.natural_units(1.0)
    dn = assemble_drift_noise(params)
    cov = solve_lyapunov(dn)
    min_rate = float(np.min(np.linalg.eigvals(dn.theta).real))
    cfg = SimConfig(dt=5e-3, t_final=15.0 / min_rate, n_trajectories=6000, seed=9)
    stats = simulate_ensemble(dn, cfg)
    # the scheme's own covariance at the end is within the step's bias,
    # (gamma1 dt)^2 / 12, of Lyapunov (it reads 1.0e-6), where the energy drift
    # vanishes; the ensemble is screened against it
    mean, scheme = sde.scheme_moments(dn, cfg.dt, cfg.n_steps, np.zeros(4), np.zeros((4, 4)))
    assert _close(scheme, cov, cfg.dt**2 / 12)
    assert abs(energy_drift(params, cov)) < 1e-12
    assert max(sde.moment_screen(stats, -1, mean, scheme)) < SCREEN_BOUND
    # the drift is linear in Var(p1), whose sample value has variance 2 Var(p1)^2 / (n - 1)
    drift = energy_drift(params, stats.cov[-1]) - energy_drift(params, scheme)
    rate = params.osc1.damping / params.osc1.mass**2
    se = rate * scheme[1, 1] * math.sqrt(2 / (cfg.n_trajectories - 1))
    assert math.erfc(abs(drift / se) / math.sqrt(2)) > SCREEN_LEVEL


def test_energy_drift_formula():
    params = make_params(1.3, 1.0, 0.9, 1.2, 0.7, 1.1, 0.8, 0.4)
    o1, o2 = params.osc1, params.osc2
    # at the stationary momentum variance the drift vanishes identically
    var_p1 = (o1.diffusion + o1.mass / o2.mass * o2.diffusion) / (2 * o1.damping_rate)
    cov = np.diag([0.0, var_p1, 0.0, 0.0])
    assert energy_drift(params, cov) == pytest.approx(0.0, abs=1e-14)
    # without damping the drift is the bare heating rate, always positive
    undamped = make_params(1.3, 1.0, 0.0, 1.2, 0.7, 1.1, 0.8, 0.4)
    assert energy_drift(undamped, cov) == pytest.approx(
        1.2 / (2 * 1.3) + 0.8 / (2 * 0.7)
    )
    # pure dissipation: no noise, momentum spread decays
    quiet = make_params(1.3, 1.0, 0.9, 0.0, 0.7, 1.1, 0.0, 0.4)
    assert energy_drift(quiet, np.diag([0.0, 1.0, 0.0, 0.0])) < 0


@pytest.mark.parametrize("dt", [0.2, 2.0])
def test_any_step_size_runs(dt):
    # the flow contracts at every dt on a stable system, so a step far past
    # forward Euler's limit runs with no warning and finite moments
    dn = assemble_drift_noise(SystemParams.natural_units(0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = simulate_ensemble(dn, SimConfig(dt=dt, t_final=2 * dt, n_trajectories=4, seed=0))
    for name in _STATS_ARRAYS:
        assert np.isfinite(getattr(stats, name)).all(), name


def test_expm1_is_exact_for_free_particles():
    # free particles have a nilpotent drift, theta^2 = 0, so the step is
    # d = e^{-theta^T dt} - I = -theta^T dt bit for bit, at any scale of dt
    from hybridosc import sde, steadystate

    dn = assemble_drift_noise(make_params(3.0, 0.0, 0.0, 1.0, 0.7, 0.0, 1.0, 0.0))
    for dt in (1e-3, 0.9, 1e153):
        drift = -(dn.theta * dt).T
        assert np.array_equal(steadystate._expm1(drift), drift)
        assert np.array_equal(sde._base_step(dn, dt)[0], drift)


@pytest.mark.parametrize("dt", [5e-4, 0.1, 10.0])
@pytest.mark.parametrize("lam", [1e-3, 0.05, 1.0])
def test_base_step_matches_scipy_expm(lam, dt):
    # the pair every gap map and scheme_moments start from, (e^{-theta^T dt} - I,
    # sqrt(dt) amp e^{-theta^T dt / 2}), against scipy's expm
    from hybridosc import sde

    dn = assemble_drift_noise(SystemParams.natural_units(lam, d1=1.5, d2=0.7))
    step_t, factor = _scipy_step(dn, dt)
    drift, got = sde._base_step(dn, dt)
    assert _close(drift, step_t - np.eye(4), 1e-11)
    assert _close(got, factor, 1e-11)


@pytest.mark.parametrize(
    "lam, gamma1, dt, measured",
    [(0.05, 1.0, 1e-3, 8.3e-8), (0.3, 1.0, 1e-2, 8.3e-6), (2.0, 1.0, 1e-3, 8.3e-8),
     (1e-3, 1.0, 1e-3, 1.1e-7), (0.3, 3.0, 1e-3, 7.5e-7)],
)
def test_stationary_bias_of_the_step(lam, gamma1, dt, measured):
    # the chain's stationary covariance, C = A^T C A + F_1^T F_1 on the
    # library's pair (scipy's discrete Lyapunov solver), against the closed
    # form S, worst entry over sqrt(S_ii S_jj): about (gamma1 dt)^2 / 12, and
    # at most 2e-7 at dt = 1e-3 and gamma1 = 1 for every coupling
    from scipy.linalg import solve_discrete_lyapunov

    from hybridosc import closed_form_covariances, sde

    params = SystemParams.natural_units(lam, damping_rate=gamma1)
    drift, factor = sde._base_step(assemble_drift_noise(params), dt)
    chain = solve_discrete_lyapunov((np.eye(4) + drift).T, factor.T @ factor)
    exact = closed_form_covariances(params)
    bias = np.max(np.abs(chain - exact) / np.sqrt(np.outer(np.diag(exact), np.diag(exact))))
    assert measured / 2 <= bias <= 2 * measured
    if dt == 1e-3 and gamma1 == 1.0:
        assert bias <= 2e-7


def test_weak_coupling_long_run_matches_the_moment_flow():
    # lam = 0.01 at dt = 1e-3 from rest to t = 20000, where forward Euler's
    # chain diverged (var_q2 4.45e10): the scheme's covariance after 2e7
    # steps is that of the exact moment flow (var_q2 4310.78) within 1e-9
    # (it reads 1.9e-11)
    from hybridosc import evolve_moments, sde

    dn = assemble_drift_noise(SystemParams.natural_units(0.01))
    _, scheme = sde.scheme_moments(dn, 1e-3, 20_000_000, np.zeros(4), np.zeros((4, 4)))
    _, flow = evolve_moments(dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, 20000.0]))
    assert _close(scheme, flow[-1], 1e-9)


def test_overflow_detected():
    # a free particle moves exactly q <- q + p dt: from p1 = 1e305 at dt = 0.9,
    # q1 passes the largest float (1.798e308) at step 1998, t = 1798.2; the
    # unit noise is far below the last bit of p1
    runaway = assemble_drift_noise(make_params(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0))
    cfg = SimConfig(
        dt=0.9, t_final=3000.0, n_trajectories=1, seed=0,
        initial_state=np.array([0.0, 1e305, 0.0, 0.0]), output_stride=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match="^trajectory 0 overflowed near t = 1798.2$"):
            sample_trajectory(runaway, cfg, 0)


def test_sums_that_overflow_from_finite_states_raise():
    # free particles at rest at q1 = 1e308, q2 = -1e308: every state stays
    # finite, while the sum over the two trajectories of each output
    # overflows, so the ensemble's moments leave the float range from t = 0.
    # That is an overflow, reported at its first output with no
    # RuntimeWarning; the single path stays finite and is returned
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    cfg = SimConfig(
        dt=1e-2, t_final=0.2, n_trajectories=2, seed=0,
        initial_state=np.array([1e308, 0.0, -1e308, 0.0]), output_stride=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match="^ensemble moments overflowed near t = 0$"):
            simulate_ensemble(dn, cfg)
    _, path = sample_trajectory(dn, cfg, 1)
    assert np.all(path == cfg.initial_state)


def test_moments_that_overflow_late_name_their_first_output():
    # two identical free particles whose q1 moves from 6e307 by 1e307 per
    # step (p1 = 1e154, dt = 1e153; the energy p1^2 / 2 stays finite): the
    # states stay finite to the end, while the sum of the two q1 leaves the
    # float range at the third step
    dn = assemble_drift_noise(make_params(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    cfg = SimConfig(
        dt=1e153, t_final=1e154, n_trajectories=2, seed=0,
        initial_state=np.array([6e307, 1e154, 0.0, 0.0]), output_stride=1,
    )
    with pytest.raises(NumericalOverflow, match="^ensemble moments overflowed near t = 3e[+]153$"):
        simulate_ensemble(dn, cfg)
    _, path = sample_trajectory(dn, cfg, 0)
    assert np.isfinite(path).all()


def test_overflowing_gap_map_is_reported_at_its_output():
    # a free particle's position variance grows like D T^3 / 3: at D2 = 1e300
    # the 5000-step gap's noise covariance (T = 2500) leaves the float range
    # in q2, while the states it would move, about its square root, stay
    # finite.  The report is NumericalOverflow at the first output, with no
    # linear-algebra error and no RuntimeWarning on the way
    runaway = assemble_drift_noise(make_params(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1e300, 0.0))
    cfg = SimConfig(
        dt=0.5, t_final=10000.0, n_trajectories=3, seed=7,
        initial_state=np.zeros(4), output_stride=5000,
    )
    assert 1e300 * 2500.0**3 / 3 > np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match="^trajectory 0 overflowed near t = 2500$"):
            simulate_ensemble(runaway, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=-1.0, t_final=1.0, n_trajectories=1)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-2, t_final=1.0, n_trajectories=0)
    with pytest.raises(ValueError):
        SimConfig(
            dt=1e-2, t_final=1.0, n_trajectories=1,
            initial_state=np.zeros(4), initial_mean=np.zeros(4), initial_cov=np.eye(4),
        )
    with pytest.raises(ValueError):
        SimConfig(dt=1e-2, t_final=1.0, n_trajectories=1, initial_mean=np.zeros(4))
    indefinite_asymmetric = np.eye(4)
    indefinite_asymmetric[0, 0] = -1.0
    indefinite_asymmetric[1, 2] = 5.0
    nan_cov = np.eye(4)
    nan_cov[2, 2] = np.nan
    slightly_asymmetric = np.eye(4)
    slightly_asymmetric[0, 3] = 1e-6
    bad_initial = [
        {"initial_state": np.array([np.nan, 0.0, 0.0, 0.0])},
        {"initial_state": np.zeros(3)},
        {"initial_state": np.zeros((1, 4))},
        {"initial_mean": np.array([0.0, np.inf, 0.0, 0.0]), "initial_cov": np.eye(4)},
        {"initial_mean": np.zeros(5), "initial_cov": np.eye(4)},
        {"initial_mean": np.zeros(4), "initial_cov": np.eye(3)},
        {"initial_mean": np.zeros(4), "initial_cov": nan_cov},
        {"initial_mean": np.zeros(4), "initial_cov": indefinite_asymmetric},
        {"initial_mean": np.zeros(4), "initial_cov": np.diag([1.0, 1.0, -1e-3, 1.0])},
        {"initial_mean": np.zeros(4), "initial_cov": slightly_asymmetric},
    ]
    for initial in bad_initial:
        with pytest.raises(ValueError):
            SimConfig(dt=1e-2, t_final=1.0, n_trajectories=1, **initial)
    # the Lyapunov solution is a valid starting covariance
    dn = assemble_drift_noise(SystemParams.natural_units(0.05))
    SimConfig(
        dt=1e-2, t_final=1.0, n_trajectories=1,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn),
    )


def test_trajectory_amplitude_consistent_with_spectral_band():
    # late-time rms of the undamped oscillator's displacement should sit in a
    # broad band around the stationary spread sqrt(Var q2)
    from hybridosc import correlators_small_lambda

    params = SystemParams.natural_units(0.05)
    dn = assemble_drift_noise(params)
    cov = solve_lyapunov(dn)
    cfg = SimConfig(
        dt=5e-4, t_final=50.0, n_trajectories=4, seed=12,
        initial_mean=np.zeros(4), initial_cov=cov, output_stride=20,
    )
    _, path = sample_trajectory(dn, cfg, 2)
    predicted = np.sqrt(correlators_small_lambda(params, np.array([0.0])).g22[0])
    rms = np.sqrt(np.mean(path[len(path) // 2 :, 2] ** 2))
    assert 0.05 * predicted < rms < 5.0 * predicted


def test_csv_output_shape(tmp_path):
    import io

    params = SystemParams.natural_units(0.3)
    dn = assemble_drift_noise(params)
    stats = simulate_ensemble(dn, SimConfig(dt=1e-2, t_final=0.5, n_trajectories=16, seed=1))
    buf = io.StringIO()
    stats.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "var_q1" in header and "cov_q1q2" in header and "energy" in header
    assert "var_q1_stderr" in header and "energy_stderr" in header
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_csv_values_are_written_as_17_significant_digits():
    # the rows are formatted in one call; every value must read as the
    # per-value f"{v:.17g}" in header order, special values included
    import io

    from hybridosc import sde

    values = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310, 1.0 / 3, -2.5e300, 7.0], 93)
    values[::7] = np.random.default_rng(1).standard_normal(len(values[::7]))
    n = 3
    stats = sde.EnsembleStats(
        times=values[:n], mean=values[n : 5 * n].reshape(n, 4),
        mean_stderr=values[5 * n : 9 * n].reshape(n, 4),
        cov=np.resize(values[::-1], (n, 4, 4)), cov_stderr=np.resize(values[1:], (n, 4, 4)),
        energy_mean=values[-n:], energy_stderr=values[-2 * n : -n], n_trajectories=5,
    )
    moments = [(i, j) for _, i, j in stats._CSV_MOMENTS]
    columns = [stats.times, *stats.mean.T, *(stats.cov[:, i, j] for i, j in moments), stats.energy_mean,
               *stats.mean_stderr.T, *(stats.cov_stderr[:, i, j] for i, j in moments), stats.energy_stderr]
    rows = np.column_stack(columns).tolist()
    want = ",".join(stats.csv_header()) + "\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows)
    buf = io.StringIO()
    stats.write_csv(buf)
    assert buf.getvalue() == want
    assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= set(want.replace("\n", ",").split(","))


def _random_stats(n_out, seed=1):
    from hybridosc import sde

    values = np.random.default_rng(seed).standard_normal((n_out, 42))
    return sde.EnsembleStats(
        times=values[:, 0], mean=values[:, 1:5], mean_stderr=values[:, 5:9],
        cov=values[:, 10:26].reshape(n_out, 4, 4), cov_stderr=values[:, 26:42].reshape(n_out, 4, 4),
        energy_mean=values[:, 9], energy_stderr=values[:, 41], n_trajectories=5,
    )


def test_csv_bytes_do_not_depend_on_rows_per_block(monkeypatch):
    # the rows are written CSV_ROWS at a time; 2 blocks and 5 rows of the
    # default size, in blocks of 1 and 7 as well, must give the same bytes
    import io

    from hybridosc import sde

    default = sde.CSV_ROWS
    stats = _random_stats(2 * default + 5)
    written = []
    for rows in (default, 1, 7):
        monkeypatch.setattr(sde, "CSV_ROWS", rows)
        buf = io.StringIO()
        stats.write_csv(buf)
        written.append(buf.getvalue())
    assert written[0].count("\n") == 2 * default + 6
    assert written[1] == written[0] and written[2] == written[0]


def test_csv_memory_does_not_grow_with_the_rows():
    # one block of rows is formatted at a time, about 2 MB at CSV_ROWS =
    # 1024: 6149 rows peak below 4 MB (13 MB when the whole table was
    # formatted at once, 107 MB at 50k rows)
    import os
    import tracemalloc

    from hybridosc import sde

    stats = _random_stats(6 * sde.CSV_ROWS + 5)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            stats.write_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4e6


def test_every_step_ensemble_memory_is_bounded(monkeypatch):
    # 2048 x 8000 every-step from rest with the next fill drawn ahead: two
    # fills of 2 MiB, each chunk's moments (1.4 MB) and the running total,
    # and the output group; the traced peak is about 9.5 MB (about 39 MB
    # with fills of 1024 steps and out-of-place moment arithmetic)
    import tracemalloc

    from hybridosc import sde

    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    dn = assemble_drift_noise(SystemParams.natural_units(0.05))
    cfg = SimConfig(
        dt=5e-4, t_final=4.0, n_trajectories=2048, seed=4, initial_state=np.zeros(4), output_stride=1,
    )
    tracemalloc.start()
    try:
        stats = simulate_ensemble(dn, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stats.times) == 8001
    assert peak < 16e6


def test_sample_trajectory_matches_member_of_multi_trajectory_chunk(monkeypatch):
    # the single path steps its whole chunk, so it is its row of the shared
    # kernel bit for bit; chunks of 128 put index 211 in the second of three
    from hybridosc import sde

    monkeypatch.setattr(sde, "CHUNK_TRAJECTORIES", 128)
    params = SystemParams.natural_units(0.05)
    dn = assemble_drift_noise(params)
    cfg = SimConfig(
        dt=1e-2, t_final=20.0, n_trajectories=300, seed=4,
        initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=25,
    )
    plan = sde._plan(dn, cfg)
    index = 211
    member = np.empty((len(plan.steps), 4))
    with sde._noise(cfg.seed, [range(128, 256)], plan) as fills:
        for k0, group in sde._steps(cfg, range(128, 256), plan, fills):
            member[k0 : k0 + len(group)] = group[:, index - 128]
    _, path = sample_trajectory(dn, cfg, index)
    assert np.array_equal(path, member)


def test_step_count_that_overflows_is_a_value_error():
    # t_final / dt = inf has no step count; the message names both values.  A
    # finite count, however large, still runs: a strided 1e300-step run is 401 moves
    with pytest.raises(ValueError, match=r"finite step count, got t_final = 1e\+300 and dt = 1e-300$"):
        SimConfig(dt=1e-300, t_final=1e300, n_trajectories=2)
    assert SimConfig(dt=1e-150, t_final=1e150, n_trajectories=2).n_steps > 10**299


def test_chunk_bookkeeping_does_not_grow_with_the_ensemble(monkeypatch):
    # 10**8 trajectories are 97,657 chunks, made one at a time: stopped after
    # the second chunk, the traced peak is a few kB (about 15 MB when the
    # range of every chunk was listed before stepping)
    import tracemalloc

    from hybridosc import sde

    class Stop(Exception):
        pass

    seen = []

    def stop_at_the_second(cfg, plan, fills, indices):
        seen.append(indices)
        if len(seen) == 2:
            raise Stop
        return len(indices), None, None

    monkeypatch.setattr(sde, "_run_chunk", stop_at_the_second)
    dn = assemble_drift_noise(SystemParams.natural_units(0.05))
    cfg = SimConfig(dt=1e-3, t_final=2e-3, n_trajectories=10**8, initial_state=np.zeros(4), output_stride=1)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            simulate_ensemble(dn, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [range(0, 1024), range(1024, 2048)]
    assert peak < 1e6


def _memos():
    from hybridosc import sde

    return sde._base_step, sde._gap_map, sde._gaussian_factor


def _memo_configs():
    # a strided Gaussian start, a strided fixed start with a remainder gap (300,
    # 300, 300, 100) and an every-step run, each over more than one chunk
    dn = assemble_drift_noise(SystemParams.natural_units(0.05, d1=1.5, d2=0.7))
    return dn, [
        dict(dt=5e-4, t_final=4096 * 5e-4, n_trajectories=1500,
             initial_mean=np.zeros(4), initial_cov=solve_lyapunov(dn), output_stride=2048),
        dict(dt=1e-3, t_final=1.0, n_trajectories=1100, initial_state=np.ones(4), output_stride=300),
        dict(dt=1e-3, t_final=0.05, n_trajectories=1030, initial_state=np.zeros(4), output_stride=1),
    ]


def _every_output(dn, cfg):
    # every array an ensemble, a path and the scheme's moments return, as bytes
    from dataclasses import fields

    from hybridosc import sde

    stats = simulate_ensemble(dn, cfg)
    arrays = [getattr(stats, f.name) for f in fields(stats) if f.name != "n_trajectories"]
    arrays += sample_trajectory(dn, cfg, cfg.n_trajectories - 3)
    arrays += sde.scheme_moments(dn, cfg.dt, cfg.n_steps, np.ones(4), np.eye(4))
    return [(a.shape, a.tobytes()) for a in arrays]


def test_memoised_set_up_gives_the_same_bits_warm_as_cold():
    # the memos are keyed by value, so a warm call, at the same seed or another,
    # returns exactly what a call that builds every map afresh returns
    from hybridosc import sde

    dn, configs = _memo_configs()
    for kwargs in configs:
        for memo in _memos():
            memo.cache_clear()
        cold = _every_output(dn, SimConfig(seed=3, **kwargs))
        hits = sde._gap_map.cache_info().hits
        assert _every_output(dn, SimConfig(seed=3, **kwargs)) == cold
        assert sde._gap_map.cache_info().hits > hits
        warm = _every_output(dn, SimConfig(seed=8, **kwargs))
        for memo in _memos():
            memo.cache_clear()
        assert _every_output(dn, SimConfig(seed=8, **kwargs)) == warm
        assert warm != cold


def test_memoised_set_up_is_read_only():
    # a caller cannot write into a cached map, and writing into a returned
    # ensemble cannot reach the next call: its times are laid out per call
    from hybridosc import sde

    dn, configs = _memo_configs()
    cfg = SimConfig(seed=5, **configs[0])
    plan = sde._plan(dn, cfg)
    cached = [*sde._base_step(dn, cfg.dt), plan.start, *(a for pair in plan.maps.values() for a in pair)]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    want = _every_output(dn, cfg)
    stats = simulate_ensemble(dn, cfg)
    for array in (stats.times, stats.mean, stats.cov, stats.energy_mean):
        array[...] = 7.0
    assert _every_output(dn, cfg) == want
    # the one-step map copies the factor it is given rather than flagging it
    factor = np.ones((2, 4))
    assert sde._gap_map(np.zeros((4, 4)), factor, 1)[1] is not factor
    assert factor.flags.writeable


def test_memos_stay_at_their_bound():
    # more distinct steps than the bound: each memo keeps the most recent ones
    from hybridosc import sde

    dn = assemble_drift_noise(SystemParams.natural_units(0.05))
    cov = solve_lyapunov(dn)
    for k in range(sde._MEMO_SIZE + 5):
        dt = 1e-3 * (1 + k / 64)
        sde._plan(dn, SimConfig(
            dt=dt, t_final=10 * dt, n_trajectories=2, initial_mean=np.zeros(4), initial_cov=cov + k * np.eye(4),
        ))
    assert [memo.cache_info().currsize for memo in _memos()] == [sde._MEMO_SIZE] * 3
