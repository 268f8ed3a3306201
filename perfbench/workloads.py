"""The benchmark's workloads: inputs from a seed, one iteration, correctness gates.

Each workload builds its inputs in ``__init__``.  That is the set-up that
``setup_s`` times, and it includes the first import of ``hybridosc``.
``iterate`` does one unit of the repeated work and checks its outputs.  The
library sees only the generated inputs (parameter draws, ``SimConfig.seed``,
the CLI ``--seed``) and runs with its default thread count: no ``threads=``
is passed and ``HYBRID_OSC_THREADS`` is removed from the environment.

Every gate compares an output with an expected value held in ``self.expect``
(or, for the sweep, with the Lyapunov solution scaled by
``self.reference_scale``), so the self-test can corrupt the references and
watch each gate fail.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DT = 5e-4
FIG1_COUPLING = 0.05
# the benchmark's own Monte Carlo gate; acceptance criterion 3 uses 3 SE, the
# wider band keeps a change to the noise stream from failing by chance
SE_GATE = 4.0
ROUTE_TOL = 1e-8
QUICK_ROUNDS = 3
CALL_TIMEOUT_S = 150.0

STATE = ("q1", "p1", "q2", "p2")
PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _moment_name(i: int, j: int) -> str:
    return f"var_{STATE[i]}" if i == j else f"cov_{STATE[i]}{STATE[j]}"


# the 31 documented columns of `hybrid-osc simulate`
_CSV_VALUES = ["t", *(f"mean_{s}" for s in STATE), *(_moment_name(i, j) for i, j in PAIRS), "energy"]
CSV_COLUMNS = _CSV_VALUES + [f"{c}_stderr" for c in _CSV_VALUES[1:]]

# residue equal-time values and the Lyapunov slots they must match (as in `verify`)
EQUAL_TIME_SLOTS = {"g11_0": (0, 0), "g22_0": (2, 2), "g12_0": (0, 2), "q1p2": (0, 3), "q2p1": (2, 1)}


def child_env() -> dict[str, str]:
    """Environment for a child Python: the sources on its path, default thread count."""
    env = {k: v for k, v in os.environ.items() if k != "HYBRID_OSC_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def kernel_sizes(n_traj: int, n_steps: int, n_outputs: int) -> dict:
    """Work sizes of one ensemble call, computed from the library's fixed decomposition."""
    from hybridosc import sde

    chunk = getattr(sde, "CHUNK_TRAJECTORIES", 1024)
    block = getattr(sde, "BLOCK_STEPS", 2048)
    return {
        "traj_steps": n_traj * n_steps,
        "outputs": n_outputs,
        "chunks": -(-n_traj // chunk),
        "partial_chunk_trajectories": n_traj % chunk,
        "noise_block_bytes_computed": min(block, n_steps) * min(chunk, n_traj) * 4 * 8,
    }


def no_span(name: str):
    return nullcontext()


class Record:
    """What one run attempted, timed and checked."""

    def __init__(self) -> None:
        self.span = no_span  # replaced by Tracer.span during traced iterations
        self.work = 0.0                    # units of work done by the timed work calls
        self.work_s = 0.0                  # their wall time
        self.calls_ms: list[float] = []    # wall time of each repeated call
        self.child_rss_mb = 0.0            # peak RSS of any CLI subprocess
        self.attempted = 0
        self.failed: Counter = Counter()   # module -> failed operations
        self.refused: Counter = Counter()  # "module.function" -> documented refusals
        self.errors: Counter = Counter()   # "module.ExceptionType" -> count
        self.gates: dict[str, list] = {}   # gate -> [worst value, bound, failures]
        self.notes: list[str] = []
        self._raised: list = []

    def timed(self, seconds: float, work: float = 0.0, call: bool = True) -> None:
        """A call took ``seconds`` of wall time and did ``work`` units of work."""
        if work:
            self.work += work
            self.work_s += seconds
        if call:
            self.calls_ms.append(seconds * 1e3)

    def call(self, module: str, fn, *args):
        """Attempt one library call; returns (result, exception)."""
        self.attempted += 1
        try:
            return fn(*args), None
        except Exception as exc:  # counted and classified by settle(); the run goes on
            self.errors[f"{module}.{type(exc).__name__}"] += 1
            self._raised.append((module, f"{module}.{fn.__name__}", exc, args))
            return None, exc

    def settle(self, documented=lambda key, exc, args: False) -> None:
        """Count each exception since the last settle as a refusal or a failure."""
        for module, key, exc, args in self._raised:
            if documented(key, exc, args):
                self.refused[key] += 1
            else:
                self.fail(module, f"{key}: {type(exc).__name__}: {exc}")
        self._raised.clear()

    def fail(self, module: str, message: str) -> None:
        self.failed[module] += 1
        if len(self.notes) < 20:
            self.notes.append(message)

    def gate(self, name: str, module: str, value: float, bound: float) -> bool:
        """One correctness check: passes iff value <= bound (NaN fails)."""
        self.attempted += 1
        entry = self.gates.setdefault(name, [0.0, bound, 0])
        value = float(value)
        entry[0] = max(entry[0], value) if value == value else math.inf
        if value <= bound:
            return True
        entry[2] += 1
        self.fail(module, f"gate {name}: {value:.6g} > {bound:.3g}")
        return False

    def same(self, name: str, module: str, observed, expected) -> bool:
        return self.gate(name, module, 0.0 if observed == expected else 1.0, 0.0)

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


class EnsembleStationary:
    """``simulate_ensemble`` at the FIG1 point from a stationary start, plus one sample path.

    Why: acceptance criterion 3 (10^4 trajectories x 10^5 steps) at about
    1/50 of its trajectory-steps: 5000 trajectories x 4096 steps (two noise
    blocks, dt = 5e-4), so that a run repeats the call a dozen times.
    Almost all the time goes to drawing noise and updating the state and
    almost none to recording (output stride 2048, so 3 outputs).  5000
    trajectories make 5 chunks of 1024, one partial, so the default thread
    count and the balance of work between threads show.  The noise block
    (2048 steps x 1024 trajectories x 4 normals, ~67 MB per live chunk)
    shows in memory.
    """

    name = "ensemble_stationary"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        import numpy as np
        from hybridosc import model, sde, steadystate

        rng = random.Random(seed)
        n_traj, n_steps, stride = (1100, 400, 200) if small else (5000, 4096, 2048)
        self.dn = model.assemble_drift_noise(model.SystemParams.natural_units(FIG1_COUPLING))
        self.reference = steadystate.solve_lyapunov(self.dn)
        self.cfg = sde.SimConfig(
            dt=DT, t_final=n_steps * DT, n_trajectories=n_traj, seed=rng.getrandbits(63),
            initial_mean=np.zeros(4), initial_cov=self.reference, output_stride=stride,
        )
        self.path_index = rng.randrange(n_traj)
        n_outputs = len(range(0, n_steps + 1, stride)) + (n_steps % stride != 0)
        self.expect = {"path_outputs": n_outputs}
        self.work = n_traj * n_steps
        self.sizes = kernel_sizes(n_traj, n_steps, n_outputs)

    def iterate(self, rec: Record) -> None:
        import numpy as np
        from hybridosc import sde

        with rec.span("bench.ensemble"):
            start = time.perf_counter()
            stats, exc = rec.call("sde", sde.simulate_ensemble, self.dn, self.cfg)
            elapsed = time.perf_counter() - start
            path, _ = rec.call("sde", sde.sample_trajectory, self.dn, self.cfg, self.path_index)
        rec.settle()
        if exc is None:
            rec.timed(elapsed, work=self.work)
            cov, se = stats.cov[-1], stats.cov_stderr[-1]
            worst = max(abs(cov[i, j] - self.reference[i, j]) / se[i, j] for i, j in PAIRS)
            rec.gate("sde.worst_moment_se", "sde", worst, SE_GATE)
        if path is not None:
            _, states = path
            rec.same("sde.sample_trajectory", "sde", (len(states), bool(np.isfinite(states).all())),
                     (self.expect["path_outputs"], True))

    def corrupt(self) -> None:
        self.reference = self.reference * 1.5
        self.expect["path_outputs"] += 1


class CliSession:
    """``hybrid-osc`` subprocesses: one every-step ``simulate``, then rounds of quick subcommands.

    Why: this uses the same ``sde`` layer as ``ensemble_stationary`` in
    another way.  It records every step (8001 outputs x 2 chunks of Welford
    accumulators), starts from zero and writes a ~5 MB CSV, so recording,
    merging, memory and CSV output dominate, not noise drawing.  The quick
    subcommands each do under 3 ms of work, so their time is almost all cold
    start: interpreter, numpy and package import, and argparse.  This is the
    workload where CLI start-up and output work show.

    ``python -m hybridosc.cli`` with ``PYTHONPATH=src`` is the ``hybrid-osc``
    entry point.  The traced run sets ``inprocess`` and replays the same
    argv through ``hybridosc.cli.main``.
    """

    name = "cli_session"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        import numpy as np
        from hybridosc import model, steadystate

        rng = random.Random(seed)
        n_traj, t_final = (300, 0.05) if small else (2048, 4.0)
        n_steps = max(1, round(t_final / DT))
        self.workdir = workdir
        self.inprocess = False
        self.out = {n: workdir / f"{n}.{ext}" for n, ext in (
            ("simulate", "csv"), ("stability", "json"), ("steadystate", "json"),
            ("poles", "json"), ("correlators", "csv"), ("cq", "json"))}
        self.simulate = [
            "simulate", "--lambda", "0.05", "--dt", repr(DT), "--t-final", repr(t_final),
            "--n-trajectories", str(n_traj), "--initial", "zero", "--output-stride", "1",
            "--seed", str(rng.getrandbits(31)), "-o", str(self.out["simulate"]),
        ]
        self.quick = [
            (name, [*argv, "-o", str(self.out[name])]) for name, argv in (
                ("stability", ["stability"]),
                ("steadystate", ["steadystate"]),
                ("poles", ["poles", "--perturbative", "2"]),
                ("correlators", ["correlators", "--lambda", "0.5"]),
                ("cq", ["cq", "--D", "1", "--lambda", "0.1"]),
            )
        ]
        dn = model.assemble_drift_noise(model.SystemParams.natural_units(FIG1_COUPLING))
        means, covs = steadystate.evolve_moments(
            dn, np.zeros((4, 4)), np.zeros(4), np.array([0.0, n_steps * DT])
        )
        self.expect = {
            "exit": 0, "csv_columns": list(CSV_COLUMNS), "csv_rows": n_steps + 1,
            "mean": means[-1], "cov": covs[-1], "discrepancy": 0.0,
            "correlator_rows": 7 * 201, "correlator_method": "exact-residue",
        }
        self.work = n_traj * n_steps
        self.sizes = kernel_sizes(n_traj, n_steps, n_steps + 1)

    def _run(self, rec: Record, argv: list[str], output: Path) -> tuple[int, float]:
        if output.exists():
            output.unlink()
        rec.attempted += 1
        with rec.span("bench.cli_call"):
            start = time.perf_counter()
            code = self._main(argv) if self.inprocess else self._subprocess(rec, argv)
            elapsed = time.perf_counter() - start
        rec.same(f"cli.{argv[0]}.exit_code", "cli", code, self.expect["exit"])
        return code, elapsed

    @staticmethod
    def _main(argv: list[str]) -> int:
        import hybridosc.cli

        try:
            return hybridosc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv by exiting
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback, which ends a subprocess with exit code 1
            return 1

    def _subprocess(self, rec: Record, argv: list[str]) -> int:
        cmd = [sys.executable, "-m", "hybridosc.cli", *argv]
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec.child_rss_mb = max(rec.child_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode

    def iterate(self, rec: Record) -> None:
        code, elapsed = self._run(rec, self.simulate, self.out["simulate"])
        if code == 0:
            rec.timed(elapsed, work=self.work, call=False)
            self._check(rec, "sde", self._check_simulate)
        for _ in range(QUICK_ROUNDS):
            for name, argv in self.quick:
                code, elapsed = self._run(rec, argv, self.out[name])
                if code == 0:
                    rec.timed(elapsed)
                    if name == "steadystate":
                        self._check(rec, "steadystate", self._check_steadystate)
                    elif name == "correlators":
                        self._check(rec, "spectral", self._check_correlators)

    @staticmethod
    def _check(rec: Record, module: str, check) -> None:
        try:
            check(rec)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            rec.fail(module, f"unreadable CLI output: {type(exc).__name__}: {exc}")

    def _check_simulate(self, rec: Record) -> None:
        lines = self.out["simulate"].read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rec.same("sde.csv_columns", "sde", header, self.expect["csv_columns"])
        rec.same("sde.csv_rows", "sde", len(lines) - 1, self.expect["csv_rows"])
        last = dict(zip(header, map(float, lines[-1].split(","))))
        devs = [
            abs(last[f"mean_{s}"] - self.expect["mean"][k]) / last[f"mean_{s}_stderr"]
            for k, s in enumerate(STATE)
        ] + [
            abs(last[_moment_name(i, j)] - self.expect["cov"][i, j]) / last[f"{_moment_name(i, j)}_stderr"]
            for i, j in PAIRS
        ]
        rec.gate("sde.worst_moment_se", "sde", max(devs), SE_GATE)

    def _check_steadystate(self, rec: Record) -> None:
        report = json.loads(self.out["steadystate"].read_text(encoding="utf-8"))
        deviation = abs(report["max_relative_discrepancy"] - self.expect["discrepancy"])
        rec.gate("steadystate.closed_vs_lyapunov", "steadystate", deviation, ROUTE_TOL)

    def _check_correlators(self, rec: Record) -> None:
        rows = self.out["correlators"].read_text(encoding="utf-8").splitlines()[1:]
        rec.same("spectral.correlator_rows", "spectral", len(rows), self.expect["correlator_rows"])
        methods = {row.rsplit(",", 1)[1] for row in rows}
        rec.same("spectral.correlator_method", "spectral", methods, {self.expect["correlator_method"]})

    def corrupt(self) -> None:
        self.expect.update(
            exit=1, csv_columns=self.expect["csv_columns"][::-1], csv_rows=self.expect["csv_rows"] + 1,
            mean=self.expect["mean"] + 1.0, cov=self.expect["cov"] * 1.5, discrepancy=1.0,
            correlator_rows=self.expect["correlator_rows"] + 1, correlator_method="small-lambda",
        )


class AnalysisSweep:
    """Seeded parameter points through every deterministic analysis route.

    Why: this covers every deterministic route (assembly, certificate,
    Lyapunov solve and closed forms, poles, residue correlators, Green's
    functions, CQ map).  It does no ``sde`` work and no
    CLI start-up, so it is the bypass workload for both ensemble
    optimisations.  The coupling range mixes weak coupling (nearly degenerate
    poles) with strong coupling, and the damping range includes overdamped
    points, because the code behaves differently in those regimes.  Each
    layer is called separately, so one refusal skips no other call.
    """

    name = "analysis_sweep"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        import numpy as np
        from hybridosc import cq, model

        rng = random.Random(seed)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        self.points = []
        for _ in range(20 if small else 2000):
            v = {
                "m1": rng.uniform(0.5, 2), "k1": rng.uniform(0.5, 2), "alpha": rng.uniform(0.3, 2),
                "D1": rng.uniform(0.1, 2), "m2": rng.uniform(0.5, 2), "k2": rng.uniform(0.5, 2),
                "D2": rng.uniform(0.1, 2), "lambda": log_uniform(0.01, 1.5),
            }
            hybrid = cq.CQParams(
                classical_mass=v["m1"], classical_spring=v["k1"], damping=v["alpha"],
                diffusion=log_uniform(1, 100), quantum_mass=v["m2"], quantum_spring=v["k2"],
                coupling=v["lambda"],
            )
            omegas = [rng.uniform(-4, 4) for _ in range(3)]
            self.points.append((model.SystemParams.from_dict(v), hybrid, omegas))
        self.t_grid = np.linspace(-20, 20, 201)
        self.reference_scale = 1.0
        self.sizes = {"points": len(self.points), "correlator_points": len(self.t_grid), "traj_steps": 0}

    @staticmethod
    def documented(key: str, exc: Exception, args) -> bool:
        """find_poles refuses by design when a drift eigenvalue is real (overdamped draw)."""
        import numpy as np
        from hybridosc import errors, model

        if key != "spectral.find_poles" or not isinstance(exc, errors.ClassificationFailure):
            return False
        eigs = np.roots(model.characteristic_polynomial(args[0]))
        return bool(np.min(np.abs(eigs.imag)) <= 1e-6 * np.max(np.abs(eigs)))

    def iterate(self, rec: Record) -> None:
        import numpy as np
        from hybridosc import cq, model, spectral, stability, steadystate

        for params, hybrid, omegas in self.points:
            start = time.perf_counter()
            with rec.span("bench.point"):
                dn, _ = rec.call("model", model.assemble_drift_noise, params)
                rec.call("stability", stability.routh_hurwitz, params)
                solved, _ = rec.call("steadystate", steadystate.solve_lyapunov, dn)
                closed, _ = rec.call("steadystate", steadystate.closed_form_covariances, params)
                rec.call("spectral", spectral.find_poles, params)
                equal_time, _ = rec.call("spectral", spectral.exact_equal_time, params)
                rec.call("spectral", spectral.correlators_exact, params, self.t_grid)
                for omega in omegas:
                    rec.call("spectral", spectral.greens, params, omega)
                rec.call("cq", cq.thermal_limit, hybrid)
                rec.call("cq", cq.hybrid_equal_time, hybrid)
            elapsed = time.perf_counter() - start
            rec.timed(elapsed, work=1.0)
            rec.settle(self.documented)
            if solved is None:
                continue
            reference = solved * self.reference_scale
            scale = float(np.max(np.abs(reference)))
            if closed is not None:
                rec.gate("steadystate.closed_vs_lyapunov", "steadystate",
                         np.max(np.abs(closed - reference)) / scale, ROUTE_TOL)
            if equal_time is not None:
                worst = max(abs(equal_time[k] - reference[ij]) for k, ij in EQUAL_TIME_SLOTS.items())
                rec.gate("spectral.equal_time_vs_lyapunov", "spectral", worst / scale, ROUTE_TOL)

    def corrupt(self) -> None:
        self.reference_scale = 1.5


# analysis_sweep runs by name but is left out of BENCHMARK.json: its
# interpreter-bound points slow by up to 1.7x while the host is busy, and
# over ten runs its spread reached 0.2-0.3 of the median, beyond any
# regression bound the benchmark may set (0.25).
WORKLOADS = {w.name: w for w in (EnsembleStationary, CliSession, AnalysisSweep)}
