import argparse
import json
import math

import pytest

from hybridosc import spectral, stability, verify
from hybridosc.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFY, build_parser, main
from hybridosc.model import SystemParams


def run_cli(args):
    return main(args)


def test_stability_json_marginal(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["-o", str(out), "stability", "--lambda", "0"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["routh_hurwitz_pass"] is False
    assert payload["reason"] == "marginal"


def test_stability_stdout(capsys):
    code = run_cli(["stability", "--lambda", "0.05"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["routh_hurwitz_pass"] is True


def test_steadystate_reports_both_routes(tmp_path):
    out = tmp_path / "ss.json"
    code = run_cli(["-o", str(out), "steadystate", "--lambda", "0.05"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["max_relative_discrepancy"] < 1e-9
    assert payload["lyapunov"][1][1] == pytest.approx(1.0)


def test_steadystate_zero_coupling_numerical_failure(tmp_path):
    code = run_cli(["-o", str(tmp_path / "x.json"), "steadystate", "--lambda", "0"])
    assert code == EXIT_NUMERICAL


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambda": 0.0, "D1": 2.0}))
    out = tmp_path / "report.json"
    # flag overrides the config's marginal coupling
    code = run_cli(["--config", str(config), "-o", str(out), "stability", "--lambda", "0.4"])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["routh_hurwitz_pass"] is True


def test_verify_reads_the_config_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    argv = ["verify", "--lambda", "0.4", "--mc-trajectories", "200"]
    assert run_cli(["--config", str(config), "-o", str(tmp_path / "c.json"), *argv]) == EXIT_OK
    assert run_cli(["-o", str(tmp_path / "f.json"), *argv, "--seed", "1"]) == EXIT_OK
    assert run_cli(["-o", str(tmp_path / "d.json"), *argv]) == EXIT_OK
    from_config = (tmp_path / "c.json").read_text()
    assert from_config == (tmp_path / "f.json").read_text()
    assert from_config != (tmp_path / "d.json").read_text()


def test_missing_config_file_is_config_error(tmp_path):
    assert run_cli(["--config", str(tmp_path / "nope.json"), "stability"]) == EXIT_CONFIG


def test_malformed_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["--config", str(bad), "stability"]) == EXIT_CONFIG


def test_bad_parameter_value_is_config_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m1": -1.0}))
    assert run_cli(["--config", str(config), "stability"]) == EXIT_CONFIG


def test_simulate_deterministic_csv(tmp_path):
    args = [
        "simulate", "--lambda", "0.3", "--dt", "0.01", "--t-final", "1.0",
        "--n-trajectories", "32", "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["-o", str(a)] + args) == EXIT_OK
    assert run_cli(["-o", str(b)] + args) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "mean_q1", "mean_p1", "mean_q2", "mean_p2"]


def test_simulate_stationary_initial(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli([
        "-o", str(out), "simulate", "--lambda", "0.5", "--dt", "0.01",
        "--t-final", "0.5", "--n-trajectories", "64", "--seed", "1",
        "--initial", "stationary",
    ])
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) > 2


def test_simulate_stationary_start_is_the_closed_form(tmp_path, capsys):
    # at lambda = 1e-8 the Lyapunov solve is refused (condition number 6e16) while the
    # closed form is a valid covariance; at zero coupling there is no stationary start
    argv = ["simulate", "--dt", "0.01", "--t-final", "0.1", "--n-trajectories", "8",
            "--initial", "stationary"]
    assert run_cli(["-o", str(tmp_path / "s.csv"), *argv, "--lambda", "1e-8"]) == EXIT_OK
    assert run_cli(["-o", str(tmp_path / "z.csv"), *argv, "--lambda", "0"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: CouplingZero")


# a stable system with stationary variances near 3e6: the Lyapunov residual is
# 9e-10 against |Q| = 1.34, yet the solve is exact to rounding
_LARGE_VARIANCE_SYSTEM = [
    "--m1", "2.7096276413765787", "--k1", "2.473316485833507", "--alpha", "0.7578931292223429",
    "--D1", "1.22", "--m2", "0.4493127682945618", "--k2", "2.815011130400565", "--D2", "1.34",
    "--lambda", "0.005656065624521977",
]


def test_large_variance_system_is_solved(tmp_path):
    out = tmp_path / "ss.json"
    assert run_cli(["-o", str(out), "steadystate", *_LARGE_VARIANCE_SYSTEM]) == EXIT_OK
    assert json.loads(out.read_text())["max_relative_discrepancy"] <= 1e-8
    code = run_cli([
        "-o", str(tmp_path / "s.csv"), "simulate", *_LARGE_VARIANCE_SYSTEM, "--dt", "0.01",
        "--t-final", "0.1", "--n-trajectories", "8", "--initial", "stationary",
    ])
    assert code == EXIT_OK


def test_poles_json(tmp_path):
    out = tmp_path / "poles.json"
    code = run_cli(["-o", str(out), "poles", "--lambda", "0.05", "--perturbative", "2"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["omega1"]["im"] > payload["omega2"]["im"] > 0
    assert payload["perturbative"]["omega2"]["im"] == pytest.approx(0.00125)
    assert payload["perturbative"]["max_error"] < 1e-4


def test_poles_zero_coupling_numerical_failure():
    assert run_cli(["poles", "--lambda", "0"]) == EXIT_NUMERICAL


def test_correlators_csv_schema(tmp_path):
    out = tmp_path / "corr.csv"
    code = run_cli([
        "-o", str(out), "correlators", "--lambda", "0.5",
        "--t-max", "5", "--points", "11", "--method", "exact",
    ])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,pair,value,method"
    pairs = {line.split(",")[1] for line in lines[1:]}
    assert pairs == {"g11", "g22", "g12", "g21", "response_11", "response_22", "response_21"}
    assert all(line.split(",")[3] == "exact-residue" for line in lines[1:])


def test_correlators_small_lambda_on_request(tmp_path):
    out = tmp_path / "corr.csv"
    code = run_cli([
        "-o", str(out), "correlators", "--lambda", "1e-6",
        "--t-max", "2", "--points", "5", "--method", "small-lambda",
    ])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,pair,value,method"
    assert len(lines) == 1 + 7 * 5
    assert all(line.split(",")[3] == "small-lambda" for line in lines[1:])


def test_cq_json(tmp_path):
    out = tmp_path / "cq.json"
    code = run_cli([
        "-o", str(out), "cq", "--D", "1.0", "--alpha", "1.0", "--lambda", "0.1",
        "--mC", "1.0", "--mQ", "1.0", "--kC", "1.0", "--kQ", "1.0",
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["T_C"] == pytest.approx(0.5)
    assert payload["N"] == pytest.approx(0.5)
    assert payload["equal_time"]["Pq"] == pytest.approx(-0.0125)
    assert "gibbs_deviation" in payload
    moments = payload["equal_time"]
    assert payload["N_exact"] == pytest.approx((moments["QQ"] * moments["PP"]) ** 0.5 - 0.5)
    assert "N_keldysh_route" not in payload


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli([
        "-o", str(out), "verify", "--lambda", "0.4", "--seed", "1",
        "--mc-trajectories", "400",
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"certificate_vs_spectrum", "closed_form_vs_lyapunov", "perturbative_cubic_scaling",
            "monte_carlo_cov", "scheme_bias_vs_lyapunov", "occupation_exact_vs_lyapunov"} <= names


_VERIFY_ROWS = (
    "charpoly_vs_eigenvalues", "certificate_vs_spectrum", "closed_form_vs_lyapunov",
    "moment_flow_vs_lyapunov", "greens_vs_numeric_inverse", "pole_reflection_structure",
    "residue_equal_time_vs_lyapunov", "perturbative_cubic_scaling", "small_lambda_g22",
    "sigma_ratio_vs_residue", "monte_carlo_mean", "monte_carlo_cov", "scheme_bias_vs_lyapunov",
    "hybrid_equal_time_vs_lyapunov", "occupation_exact_vs_lyapunov",
)


def test_verify_skips_no_row_at_the_defaults(tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli(["-o", str(out), "verify"]) == EXIT_OK
    checks = json.loads(out.read_text())["checks"]
    assert tuple(c["name"] for c in checks) == _VERIFY_ROWS
    assert all(c["skipped"] is None and c["passed"] is True for c in checks)


def test_verify_skips_the_cq_rows_without_classical_diffusion(tmp_path, capsys):
    # D1 = 0 maps to no CQ pair; a skipped row neither passes nor fails
    out = tmp_path / "verify.json"
    assert run_cli(["-o", str(out), "verify", "--D1", "0", "--mc-trajectories", "200"]) == EXIT_OK
    payload = json.loads(out.read_text())
    rows = {c["name"]: c for c in payload["checks"]}
    assert tuple(rows) == _VERIFY_ROWS
    skipped = {name: row for name, row in rows.items() if row["skipped"] is not None}
    assert tuple(skipped) == ("hybrid_equal_time_vs_lyapunov", "occupation_exact_vs_lyapunov")
    err = capsys.readouterr().err
    for name, row in skipped.items():
        assert "D1 = 0" in row["skipped"]
        assert row["value"] is None and row["passed"] is None
        assert f"[SKIP] {name}: {row['skipped']}\n" in err
    assert all(row["passed"] for name, row in rows.items() if name not in skipped)
    assert payload["passed"] is True


# the rows verify skips where their routes cannot apply, each with a word of its reason
_VERIFY_SKIPS = {
    "defaults": ([], {}),
    "no_classical_diffusion": (["--D1", "0"], dict.fromkeys(
        ("hybrid_equal_time_vs_lyapunov", "occupation_exact_vs_lyapunov"), "D1 = 0")),
    # the leading-order g22 leaves out the D1 term, and is identically 0 at D2 = 0
    "undriven_oscillator_2": (["--D2", "0"], dict.fromkeys(
        ("small_lambda_g22", "sigma_ratio_vs_residue"), "D2 = 0")),
    # w1 = 0 < gamma1 / 2: the small-coupling forms refuse, and find_poles finds one pole
    "overdamped": (["--alpha", "3", "--k1", "0"], {
        "pole_reflection_structure": "ClassificationFailure: ",
        "perturbative_cubic_scaling": "OverdampedUnsupported: ",
        "small_lambda_g22": "OverdampedUnsupported: ",
        "sigma_ratio_vs_residue": "OverdampedUnsupported: ",
    }),
}


@pytest.mark.parametrize("argv, skips", _VERIFY_SKIPS.values(), ids=_VERIFY_SKIPS.keys())
def test_verify_skips_the_rows_whose_route_cannot_apply(argv, skips, tmp_path):
    # a skipped row neither passes nor fails; every other row passes, so the command exits 0
    out = tmp_path / "verify.json"
    assert run_cli(["-o", str(out), "verify", *argv]) == EXIT_OK
    rows = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert tuple(rows) == _VERIFY_ROWS
    assert {name for name, row in rows.items() if row["skipped"] is not None} == set(skips)
    for name, word in skips.items():
        assert word in rows[name]["skipped"]
        assert rows[name]["value"] is None and rows[name]["passed"] is None
    assert all(row["passed"] for name, row in rows.items() if name not in skips)


def test_verify_passes_at_tiny_coupling(tmp_path):
    # the moment-flow row relaxes over a span of 3e7 here, one exact step of the flow;
    # the Monte Carlo rows fail one seed in about 300 (the rate test below)
    out = tmp_path / "verify.json"
    code = run_cli(["-o", str(out), "verify", "--lambda", "1e-3", "--mc-trajectories", "200"])
    payload = json.loads(out.read_text())
    rows = {c["name"]: c for c in payload["checks"]}
    assert tuple(rows) == _VERIFY_ROWS
    assert all(row["passed"] for row in rows.values())
    assert payload["passed"] is True
    assert code == EXIT_OK


def _tiny_coupling_rows(seeds):
    from hybridosc import assemble_drift_noise, solve_lyapunov

    dn = assemble_drift_noise(SystemParams.natural_units(1e-3))
    solved = solve_lyapunov(dn)
    # per seed, {name: (value, bound)} of the Monte Carlo rows at 200 trajectories
    return [
        {name: (value, bound) for name, value, bound in verify.monte_carlo_rows(dn, solved, seed, 200)}
        for seed in seeds
    ]


def test_verify_monte_carlo_rows_fail_at_most_one_seed_in_forty():
    # `verify --lambda 1e-3 --mc-trajectories 200` over seeds 0-39: two screens at
    # a 1e-3 false-alarm level each and a deterministic bias row, so a correct
    # sampler fails one seed or more here with probability about 8%, two or more
    # about 0.3%; it failed 1 of seeds 0-299 (seed 248)
    rows = _tiny_coupling_rows(range(40))
    failed = sum(any(not value <= bound for value, bound in seed.values()) for seed in rows)
    assert failed <= 1


def test_verify_monte_carlo_cov_catches_a_transposed_gap_factor(monkeypatch):
    # F_L^T in place of F_L moves the samples' covariance off the scheme's law,
    # which scheme_moments builds from theta, Q and dt without the gap maps.  A
    # warm-up call fills the set-up memos first: they sit under _gap_map's name,
    # so the patched map is still the one each call's plan reads
    from hybridosc import sde

    _tiny_coupling_rows(range(1))
    gap_map = sde._gap_map

    def transposed(*args):
        power, factor = gap_map(*args)
        return power, factor.T

    monkeypatch.setattr(sde, "_gap_map", transposed)
    for rows in _tiny_coupling_rows(range(10)):
        value, bound = rows["monte_carlo_cov"]
        assert value > bound


def test_verify_failure_exit_code(tmp_path):
    # an absurdly tightened tolerance scale must trip the failure exit code
    code = run_cli([
        "-o", str(tmp_path / "v.json"), "verify", "--lambda", "0.4", "--seed", "1",
        "--mc-trajectories", "200", "--tol-scale", "1e-12",
    ])
    assert code == EXIT_VERIFY


def test_output_directory_must_exist(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    assert run_cli(["-o", str(missing), "stability"]) == EXIT_CONFIG


def _single_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1


def test_stability_defective_marginal_spectrum(capsys):
    code = run_cli(["stability", "--k1", "0", "--k2", "0", "--alpha", "0", "--lambda", "1"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["routh_hurwitz_pass"] is False
    assert payload["reason"] == "marginal"


# every rejected input leaves through exit 2 with one stderr line; "TMP" is the
# test's temporary directory
_REJECTED_INPUTS = {
    "cq_zero_damping": ["cq", "--alpha", "0"],
    "cq_zero_quantum_spring": ["cq", "--kQ", "0"],
    "cq_zero_temperature": ["cq", "--D", "0", "--lambda", "0"],
    "verify_zero_trajectories": ["verify", "--mc-trajectories", "0"],
    "verify_one_trajectory": ["verify", "--mc-trajectories", "1"],
    "verify_below_the_screen_floor": ["verify", "--mc-trajectories", "199"],
    "verify_nan_tol_scale": ["verify", "--tol-scale", "nan"],
    "verify_negative_tol_scale": ["verify", "--tol-scale", "-1"],
    "verify_zero_tol_scale": ["verify", "--tol-scale", "0"],
    "output_is_directory": ["-o", "TMP", "stability"],
    "zero_correlator_points": ["-o", "TMP/c.csv", "correlators", "--points", "0"],
    "nan_correlator_t_max": ["correlators", "--t-max", "nan"],
    # t_final / dt overflows to inf: no step count
    "overflowing_step_count": ["simulate", "--dt", "1e-300", "--t-final", "1e300"],
    # 1e16 elements exceed any 64-bit address space, so the allocation fails at once
    "oversized_correlator_grid": ["-o", "TMP/c.csv", "correlators", "--points", "10000000000000000"],
    "oversized_simulate_outputs": ["-o", "TMP/s.csv", "simulate", "--dt", "1e-12", "--t-final", "1e4",
                                   "--output-stride", "1", "--n-trajectories", "2"],
}


@pytest.mark.parametrize("argv", _REJECTED_INPUTS.values(), ids=_REJECTED_INPUTS.keys())
def test_rejected_input_is_config_error(argv, tmp_path, capsys):
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    assert run_cli(argv) == EXIT_CONFIG
    _single_config_error(capsys)


# inputs the library refuses numerically: exit 3 with one stderr line
_NUMERICAL_REFUSALS = {
    "small_lambda_undriven_w2": ["correlators", "--method", "small-lambda", "--k2", "0"],
    # the CQ map at D = 1, lam = 1e-4: the residues refuse (degenerate poles), and the
    # default method reports that rather than the leading-order table outside its regime
    "exact_correlators_degenerate_poles": ["correlators", "--lambda", "1e-4", "--D2", "2.5e-9"],
    "float_overflow": ["stability", "--lambda", "1e308", "--k1", "1e308"],
    # both routes leave the float range; the closed form, run first, refuses
    "lyapunov_overflow_k1_zero": ["steadystate", "--k1", "0", "--m2", "1.5", "--lambda", "9e-155"],
    "lyapunov_overflow": ["steadystate", "--lambda", "1e-160"],
    "closed_form_overflow": ["steadystate", "--lambda", "1e-158"],
    # lam^2 underflows to 0 but (lam/m2)^2 does not: the certificate passes
    "closed_form_coupling_squared_zero": ["steadystate", "--m2", "0.3", "--lambda", "1e-162"],
    # (lam/m2)^2 underflows to 0: the certificate fails, both routes refuse
    "coupling_squared_underflow": ["steadystate", "--lambda", "1e-170"],
    "cq_induced_diffusion_overflow": ["cq", "--D", "1e-320"],
    # free particles at D2 = 1e300: the 5000-step gap's noise covariance, about
    # D2 T^3 / 3 in q2 at T = 2500, overflows while the states would stay finite
    "gap_noise_overflow": ["simulate", "--k1", "0", "--k2", "0", "--alpha", "0", "--lambda", "0",
                           "--D2", "1e300", "--dt", "0.5", "--t-final", "10000",
                           "--output-stride", "5000", "--n-trajectories", "2"],
}


@pytest.mark.parametrize("argv", _NUMERICAL_REFUSALS.values(), ids=_NUMERICAL_REFUSALS.keys())
def test_numerical_refusal_exits_3(argv, capsys, recwarn):
    assert run_cli(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert err.count("\n") == 1
    # a warning would be a second stderr line outside the test harness
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize(
    "key, cause",
    [
        ("coupling_squared_underflow", "NotStable: no steady state"),
        ("closed_form_overflow", "OverflowError: closed-form covariances leave the float range"
         " at coupling 1e-158"),
        ("closed_form_coupling_squared_zero", "OverflowError: closed-form covariances leave the"
         " float range at coupling 1e-162"),
        ("cq_induced_diffusion_overflow", "OverflowError: induced diffusion lam^2/(4 D) overflows"),
        ("gap_noise_overflow", "NumericalOverflow: trajectory 0 overflowed near t = 2500\n"),
    ],
)
def test_numerical_refusal_names_its_cause(key, cause, capsys):
    assert run_cli(_NUMERICAL_REFUSALS[key]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(f"numerical failure: {cause}")


def _simulate_without_warnings(tmp_path, argv):
    # run simulate with warnings as errors; return its exit code and the CSV's last row
    import warnings

    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["-o", str(out), "simulate", *argv])
    lines = out.read_text().splitlines()
    return code, dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))


def test_simulate_runs_at_any_step_size(tmp_path):
    # dt = 2 is past forward Euler's stability limit; the exact flow runs
    code, last = _simulate_without_warnings(
        tmp_path, ["--dt", "2", "--t-final", "4", "--n-trajectories", "4"])
    assert code == EXIT_OK
    assert last["t"] == 4.0 and all(map(math.isfinite, last.values()))


def test_weak_coupling_long_run_exits_0(tmp_path):
    # lam = 0.01 to t = 20000 at the default dt = 1e-3, where forward Euler's
    # chain diverged (var_q2 4.4e10 against the moment flow's 4310.78)
    code, last = _simulate_without_warnings(tmp_path, [
        "--lambda", "0.01", "--t-final", "20000", "--n-trajectories", "200",
        "--output-stride", "5000000",
    ])
    assert code == EXIT_OK
    assert last["t"] == 20000.0 and all(map(math.isfinite, last.values()))


def test_moments_that_leave_the_float_range_exit_3_without_a_csv(tmp_path, capsys, recwarn):
    # every state finite, the sums over trajectories of q1 = 1e308 are not
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"initial": {"state": [1e308, 0, -1e308, 0]}}))
    out = tmp_path / "s.csv"
    code = run_cli([
        "--config", str(config), "-o", str(out), "simulate", "--lambda", "0.5", "--dt", "0.01",
        "--t-final", "0.02", "--n-trajectories", "2", "--output-stride", "1",
    ])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: NumericalOverflow: ensemble moments overflowed near t = 0\n"
    assert not out.exists()
    assert [str(w.message) for w in recwarn] == []


def test_simulate_stdout_matches_output_file(tmp_path, capsys, monkeypatch):
    # the CSV is streamed a block of rows at a time, to the file or to stdout;
    # 101 rows in blocks of 7 end in a partial block
    from hybridosc import sde

    monkeypatch.setattr(sde, "CSV_ROWS", 7)
    args = ["simulate", "--lambda", "0.3", "--dt", "0.01", "--t-final", "1.0",
            "--n-trajectories", "8", "--seed", "3", "--output-stride", "1"]
    out = tmp_path / "s.csv"
    assert run_cli(["-o", str(out), *args]) == EXIT_OK
    capsys.readouterr()
    assert run_cli(args) == EXIT_OK
    written = out.read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == written
    assert written.count(b"\n") == 102


@pytest.mark.parametrize(
    "initial",
    [
        {"mean": [0, 0, 0, 0], "cov": [[-1, 0, 0, 0], [0, 1, 5, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        {"state": [float("nan"), 0, 0, 0]},
    ],
    ids=["indefinite_asymmetric_cov", "nan_state"],
)
def test_bad_initial_condition_is_config_error(initial, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"initial": initial}))
    code = run_cli([
        "--config", str(config), "-o", str(tmp_path / "s.csv"), "simulate",
        "--dt", "0.01", "--t-final", "0.1", "--n-trajectories", "4",
    ])
    assert code == EXIT_CONFIG
    _single_config_error(capsys)


def test_sigma_ratio_check_sees_a_wrong_ratio(monkeypatch):
    sigma_ratio = spectral.sigma_ratio
    monkeypatch.setattr(spectral, "sigma_ratio", lambda params: 1.1 * sigma_ratio(params))
    params = SystemParams.natural_units(0.4)
    rows = verify.run_checks(params, seed=1, mc_trajectories=200, tol_scale=1.0)
    checks = {check.name: check for check in rows}
    assert not checks["sigma_ratio_vs_residue"].passed
    assert checks["small_lambda_g22"].passed


def test_cross_checks_see_a_wrong_numerator(monkeypatch):
    # the closed form and the residue sums share one numerator function, so a
    # wrong g22 numerator must show up against both independent routes
    numerators = spectral._numerators

    def skewed(*args):
        values = list(numerators(*args))
        g22 = list(spectral._SLOTS).index("g22")
        values[g22] = values[g22] * (1 + 1e-6)
        return values

    monkeypatch.setattr(spectral, "_numerators", skewed)
    params = SystemParams.natural_units(0.4)
    rows = verify.run_checks(params, seed=1, mc_trajectories=200, tol_scale=1.0)
    checks = {check.name: check for check in rows}
    assert not checks["greens_vs_numeric_inverse"].passed
    assert not checks["residue_equal_time_vs_lyapunov"].passed


def test_quartic_mismatch_fails_its_row_without_raising(monkeypatch, tmp_path):
    # the certificate row reuses the eigenvalues of the charpoly row, so a
    # quartic that disagrees with the spectrum fails that row and no other
    quartic = stability.characteristic_polynomial

    def off_c0(params):
        coeffs = quartic(params).copy()
        coeffs[-1] += 1e-6
        return coeffs

    monkeypatch.setattr(stability, "characteristic_polynomial", off_c0)
    params = SystemParams.natural_units(0.4)
    rows = verify.run_checks(params, seed=1, mc_trajectories=200, tol_scale=1.0)
    assert [check.name for check in rows if check.passed is False] == ["charpoly_vs_eigenvalues"]
    argv = ["-o", str(tmp_path / "v.json"), "verify", "--lambda", "0.4", "--seed", "1"]
    assert run_cli(argv) == EXIT_VERIFY


_PARAM_FLAGS = {
    "--m1": float, "--k1": float, "--alpha": float, "--D1": float,
    "--m2": float, "--k2": float, "--D2": float, "--lambda": float,
}
_COMMON_FLAGS = {"-h": None, "--help": None, "--config": None, "-o": None, "--output": None}
_FLAG_SURFACE = {
    "stability": {**_COMMON_FLAGS, **_PARAM_FLAGS},
    "steadystate": {**_COMMON_FLAGS, **_PARAM_FLAGS},
    "simulate": {
        **_COMMON_FLAGS, **_PARAM_FLAGS,
        "--dt": float, "--t-final": float, "--n-trajectories": int, "--seed": int,
        "--output-stride": int, "--initial": None,
    },
    "poles": {**_COMMON_FLAGS, **_PARAM_FLAGS, "--perturbative": int},
    "correlators": {
        **_COMMON_FLAGS, **_PARAM_FLAGS, "--t-max": float, "--points": int, "--method": None,
    },
    "cq": {
        **_COMMON_FLAGS, "--D": float, "--alpha": float, "--lambda": float,
        "--mC": float, "--mQ": float, "--kC": float, "--kQ": float,
    },
    "verify": {
        **_COMMON_FLAGS, **_PARAM_FLAGS,
        "--seed": int, "--mc-trajectories": int, "--tol-scale": float,
    },
}


def test_flag_surface_is_pinned():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert subparsers.choices.keys() == _FLAG_SURFACE.keys()
    for name, sub in subparsers.choices.items():
        surface = {opt: action.type for action in sub._actions for opt in action.option_strings}
        assert surface == _FLAG_SURFACE[name], name
