"""Suite runner and CLI behavior: config validation, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from frame_rigidity.errors import ConfigError
from frame_rigidity.suites import (
    MAX_TOL,
    SuiteConfig,
    _Property,
    _run_property,
    list_suites,
    run_suite,
    suite_properties,
)

ALL_SUITES = list_suites()


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "frame_rigidity", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestConfigValidation:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="nope"))

    @pytest.mark.parametrize("ambient", [1, 9, 0, -3])
    def test_ambient_range(self, ambient):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", ambient=ambient))

    @pytest.mark.parametrize(
        "suite", ["clr", "clr-bis", "pfr-perp", "pfr", "reconstruction", "falsify"]
    )
    def test_three_dimensional_suites_reject_ambient_two(self, suite):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite=suite, ambient=2, trials=1))

    @pytest.mark.parametrize("suite", ["eversion-order", "obot", "refinement", "partitions"])
    def test_plane_suites_accept_ambient_two(self, suite):
        report = run_suite(SuiteConfig(suite=suite, ambient=2, trials=5))
        assert report.passed

    def test_bad_field_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", field="quaternion"))

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", trials=0))

    def test_seed_must_fit_in_64_bits(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", seed=2**64))
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", seed=-1))

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", tol=0.0))

    @pytest.mark.parametrize("tol", [0.5, 2e-3, 1e-3, float("inf"), float("nan")])
    def test_large_or_non_finite_tol_rejected(self, tol):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", tol=tol))

    def test_largest_tol_accepted(self):
        report = run_suite(SuiteConfig(suite="pfr-perp", ambient=4, trials=20, tol=MAX_TOL))
        assert report.config["tol"] == MAX_TOL

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("ambient", [3, 5, 8])
    @pytest.mark.parametrize("suite", ["clr-bis", "obot"])
    def test_true_properties_pass_at_largest_tol(self, suite, ambient, field):
        # image line frames compound the condition caps of the frame and map
        # samplers; no accepted tolerance may call those true configurations
        # singular
        cfg = SuiteConfig(
            suite=suite, ambient=ambient, field=field, trials=60, seed=7, tol=MAX_TOL
        )
        report = run_suite(cfg)
        assert report.passed, [(p.name, p.failures) for p in report.properties]

    def test_suite_properties_listing(self):
        assert suite_properties("falsify") == (
            "breaks-linkage",
            "zero-distortion-control",
        )
        with pytest.raises(ConfigError):
            suite_properties("nope")


class TestRunSuite:
    def test_refinement_small_run_has_no_failures(self):
        report = run_suite(SuiteConfig(suite="refinement", ambient=4, trials=100, seed=7))
        assert report.passed
        assert report.total_failures == 0

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_every_suite_passes_briefly(self, suite):
        report = run_suite(SuiteConfig(suite=suite, ambient=4, trials=25, seed=11))
        assert report.passed, [p.name for p in report.properties if not p.passed]

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_reports_are_byte_deterministic(self, suite):
        cfg = SuiteConfig(suite=suite, ambient=3, trials=20, seed=5)
        first = run_suite(cfg)
        second = run_suite(cfg)
        assert first.determinism_bytes() == second.determinism_bytes()
        # wall time differs between runs yet is excluded from the hashable bytes
        assert b"wall_time_s" not in first.determinism_bytes()

    def test_different_seed_changes_report(self):
        base = run_suite(SuiteConfig(suite="clr", ambient=3, trials=20, seed=0))
        other = run_suite(SuiteConfig(suite="clr", ambient=3, trials=20, seed=1))
        assert base.determinism_bytes() != other.determinism_bytes()

    def test_report_layout(self):
        report = run_suite(SuiteConfig(suite="falsify", ambient=3, trials=30, seed=2))
        obj = json.loads(report.to_json())
        assert list(obj) == ["schema", "suite", "config", "properties", "summary"]
        assert obj["schema"] == 1
        assert obj["config"] == {
            "suite": "falsify",
            "ambient": 3,
            "field": "complex",
            "trials": 30,
            "seed": 2,
            "tol": 1e-9,
        }
        for record in obj["properties"]:
            assert list(record) == [
                "name",
                "trials",
                "failures",
                "worst_residual",
                "first_failing_trial",
                "violation_rate",
                "passed",
            ]
        assert obj["summary"]["passed"] is True

    def test_falsify_rates(self):
        report = run_suite(SuiteConfig(suite="falsify", ambient=3, trials=200, seed=0))
        by_name = {p.name: p for p in report.properties}
        assert by_name["breaks-linkage"].violation_rate >= 0.95
        # a boolean property reports 1.0 once any trial is violated
        assert by_name["breaks-linkage"].worst_residual == 1.0
        assert by_name["zero-distortion-control"].violation_rate == 0.0
        assert by_name["zero-distortion-control"].failures == 0
        assert report.passed

    def test_non_falsify_properties_have_null_rate(self):
        report = run_suite(SuiteConfig(suite="clr", ambient=3, trials=10, seed=0))
        assert all(p.violation_rate is None for p in report.properties)


def _judge(outcome, band=10.0):
    """Run a three-trial property whose every trial returns ``outcome``, at tol 1e-9."""
    prop = _Property("probe", lambda cfg, trial, rng: outcome, band=band)
    return _run_property(SuiteConfig(suite="partitions", trials=3, tol=1e-9), prop)


class TestRunProperty:
    @pytest.mark.parametrize("band", [10.0, 100.0])
    def test_residual_at_band_passes_and_next_float_fails(self, band):
        bound = band * 1e-9
        at = _judge(bound, band)
        assert at.passed and at.failures == 0 and at.worst_residual == bound
        above = _judge(np.nextafter(bound, np.inf), band)
        assert not above.passed
        assert above.failures == 3 and above.first_failing_trial == 0
        assert not _judge(float("nan"), band).passed

    @pytest.mark.parametrize("verdict", [True, False])
    def test_numpy_bool_judged_as_bool(self, verdict):
        assert _judge(np.bool_(verdict)) == _judge(verdict)
        assert _judge(verdict).worst_residual == (0.0 if verdict else 1.0)
        assert _judge(verdict).passed is verdict


class TestCli:
    def test_list_suites(self):
        proc = run_cli("--list-suites")
        assert proc.returncode == 0
        assert proc.stdout.split() == list(ALL_SUITES)

    def test_passing_run_exits_zero_and_prints_verdicts(self):
        proc = run_cli("--suite", "partitions", "--trials", "20", "--seed", "1")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 5
        assert lines[-1].startswith("suite partitions: PASS")

    def test_property_failure_exits_one(self):
        # a tolerance below float resolution turns fl-exact checks into failures
        proc = run_cli(
            "--suite", "pfr-perp", "--ambient", "3", "--trials", "5", "--tol", "1e-30"
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_config_error_exits_two(self):
        proc = run_cli("--suite", "clr", "--ambient", "2")
        assert proc.returncode == 2
        assert "ambient" in proc.stderr

    def test_missing_suite_exits_two(self):
        proc = run_cli("--trials", "5")
        assert proc.returncode == 2

    def test_report_file_round_trip(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli(
            "--suite", "refinement", "--trials", "10", "--report", str(target)
        )
        assert proc.returncode == 0
        obj = json.loads(target.read_text())
        assert list(obj) == ["schema", "suite", "config", "properties", "summary"]
        assert obj["suite"] == "refinement"

    def test_env_var_sets_tolerance(self):
        proc = run_cli(
            "--suite", "partitions", "--trials", "5",
            "--report", "/dev/stdout",
            env_extra={"FRAME_RIGIDITY_TOL": "1e-07"},
        )
        assert proc.returncode == 0
        payload = proc.stdout[proc.stdout.index("{"):]
        payload = payload[: payload.rindex("}") + 1]
        assert json.loads(payload)["config"]["tol"] == 1e-07

    def test_cli_flag_beats_env_var(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli(
            "--suite", "partitions", "--trials", "5",
            "--tol", "1e-08", "--report", str(target),
            env_extra={"FRAME_RIGIDITY_TOL": "1e-07"},
        )
        assert proc.returncode == 0
        assert json.loads(target.read_text())["config"]["tol"] == 1e-08

    @pytest.mark.parametrize("tol", ["0.5", "1e-3", "inf", "nan"])
    def test_out_of_range_tol_exits_two(self, tol):
        proc = run_cli("--suite", "pfr-perp", "--trials", "5", "--tol", tol)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: tol must be in")

    def test_out_of_range_env_tol_exits_two(self):
        proc = run_cli(
            "--suite", "pfr-perp", "--trials", "5",
            env_extra={"FRAME_RIGIDITY_TOL": "inf"},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: tol must be in")
        assert "Traceback" not in proc.stderr

    def test_bad_env_var_exits_two(self):
        proc = run_cli(
            "--suite", "partitions", "--trials", "5",
            env_extra={"FRAME_RIGIDITY_TOL": "not-a-number"},
        )
        assert proc.returncode == 2
