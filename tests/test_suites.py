"""Suite runner and CLI behavior: config validation, determinism, exit codes."""

import hashlib
import json
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

from frame_rigidity import cli, suites
from frame_rigidity.cli import _property_line
from frame_rigidity.errors import ConfigError
from frame_rigidity.report import VerificationReport
from frame_rigidity.suites import (
    MAX_TOL,
    MIN_TOL,
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

    # below MIN_TOL true properties fail, and far below it meets and
    # reconstructions raise mid-run
    @pytest.mark.parametrize(
        "tol", [0.5, 2e-3, 1e-3, float("inf"), float("nan"), 1e-13, 1e-200, 5e-324]
    )
    def test_large_or_non_finite_tol_rejected(self, tol):
        with pytest.raises(ConfigError, match="tol must be in"):
            run_suite(SuiteConfig(suite="partitions", tol=tol))

    @pytest.mark.parametrize("name", ["ambient", "trials", "seed"])
    def test_bool_counts_rejected(self, name):
        # True passed as 1, and the report echoed "trials": true
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", **{name: True}))

    @pytest.mark.parametrize("tol", [np.float32(1e-9), Decimal("1e-9")])
    def test_tol_must_be_a_float(self, tol):
        # these passed the range check and then broke the report's JSON
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="partitions", trials=2, tol=tol))

    def test_numpy_float64_tol_accepted(self):
        report = run_suite(SuiteConfig(suite="partitions", trials=2, tol=np.float64(1e-9)))
        assert json.loads(report.to_json())["config"]["tol"] == 1e-9

    def test_largest_tol_accepted(self):
        report = run_suite(SuiteConfig(suite="pfr-perp", ambient=4, trials=20, tol=MAX_TOL))
        assert report.config["tol"] == MAX_TOL

    def test_smallest_tol_accepted(self):
        report = run_suite(SuiteConfig(suite="pfr-perp", ambient=4, trials=20, tol=MIN_TOL))
        assert report.config["tol"] == MIN_TOL

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("ambient", [3, 5, 8])
    @pytest.mark.parametrize("suite", ["obot", "reconstruction"])
    def test_true_properties_pass_at_smallest_tol(self, suite, ambient, field):
        # at 1e-14 roundoff fails true obot properties from n = 5; the smallest
        # accepted tolerance must keep every true property passing
        cfg = SuiteConfig(
            suite=suite, ambient=ambient, field=field, trials=40, seed=9, tol=MIN_TOL
        )
        report = run_suite(cfg)
        assert report.passed, [(p.name, p.failures) for p in report.properties]

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
    prop = _Property("probe", lambda cfg, trials, rngs: [outcome] * len(trials), band=band)
    return _run_property(SuiteConfig(suite="partitions", trials=3, tol=1e-9), prop)


# sha256 of determinism_bytes for every suite at ambient 4, seed 3, 12
# trials, on one numpy and LAPACK build: a change to any stream, sampler or
# report byte shows up here; a deliberate one (a new stream layout) updates
# these digests with it
REPORT_DIGESTS = {
    ("clr", "real"): "c3b2d0f90d5f3c07a628eb5f3f792471992bd12113cb0bdf4fa8de0c4528d4bd",
    ("clr", "complex"): "fbaf7512c3e1413268f305b9f3a768024c6a7ea30852f026ffd613a93631c01e",
    ("clr-bis", "real"): "4540b658db659a45ed43737dc32288e583fdabbfd01312c546b6f97ab5d5635d",
    ("clr-bis", "complex"): "43f5ee2b52f9cc7168a16d77e7cb4a59edf436418b69284ca8ee5aa0c1fe4e55",
    ("pfr-perp", "real"): "6a51f82ce0111626b7fcb0e976f5bcfd5396a69979b07d752d016827eecc9c63",
    ("pfr-perp", "complex"): "e7a433889c0848c5bedb2e7709358d332842c7e050540bcd8ced4123509fb0e9",
    ("pfr", "real"): "c025a5ee858f646ca98c130c54dbb76a29a6ca6a1c1b0d47a9f9abaaee9685b6",
    ("pfr", "complex"): "66715171de2b24133cb23fe0d584705b62cc8ead2ce79d37aaa7f01e00a73d9d",
    ("eversion-order", "real"): "a04111a82deb8b1ecfd12722317b87a4a318cacad8174e9c44bb8420db06bc42",
    ("eversion-order", "complex"): "7d8e6f0e9563d63d250417f9163c019aec9f065e48a8bf1e76c39aa717ba484a",
    ("obot", "real"): "07697e370d6f32c270efb865d93421a4721b644a622e805286297a31c797b1d2",
    ("obot", "complex"): "ce411323d566682b477c04ac949bc3de3d368b4ccc7dd22eae18f1beedc7eb1a",
    ("refinement", "real"): "9784d20b9497c8101f00fee2f9a87c1d988bc756405be0f266390cad828c8143",
    ("refinement", "complex"): "7be243ea4c10d678dd9f696c758a313a54302272d8b17fcfb05209d103d0d800",
    ("partitions", "real"): "25a05e5a37ad1899a9b4a0c466996a57a5f0603f8bdc2b1de87350d377c736d9",
    ("partitions", "complex"): "6e58af3686b61276c45587b315a66b7d7612ef35b85bc885729465fe1c973657",
    ("reconstruction", "real"): "3934f5ec347a63f2e6ca198ecf3bd3559db97611d5b7eda2ab86c89cc96aa7d5",
    ("reconstruction", "complex"): "916425eeb9f5a02db6d8ebd4177f7adcee6e9cc344edc9c2470be56357a82bdc",
    ("falsify", "real"): "5852cca8e7ed5277620cda16d8528e2a373d4f4081f80680cd72216ca1fa534d",
    ("falsify", "complex"): "3611c017173080cbb5d66bc8b0484973cbefc3ba18c90083973fdc3ab1161843",
}


@pytest.mark.parametrize("suite, field", list(REPORT_DIGESTS))
def test_report_bytes_are_pinned(suite, field):
    report = run_suite(SuiteConfig(suite=suite, ambient=4, field=field, trials=12, seed=3))
    assert hashlib.sha256(report.determinism_bytes()).hexdigest() == REPORT_DIGESTS[suite, field]


def test_every_suite_has_pinned_report_bytes():
    assert {suite for suite, _ in REPORT_DIGESTS} == set(ALL_SUITES)


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

    def test_nan_residual_reaches_the_report(self):
        # max(worst, nan) keeps worst, which hid a NaN trial behind a clean one
        prop = _Property(
            "probe", lambda cfg, trials, rngs: [float("nan") if t == 1 else 1e-12 for t in trials]
        )
        cfg = SuiteConfig(suite="pfr", ambient=4, field="real", trials=3, seed=0)
        result = _run_property(cfg, prop)
        assert result.failures == 1 and result.first_failing_trial == 1
        assert np.isnan(result.worst_residual)
        report = VerificationReport("pfr", cfg.echo(), [result])
        assert '"worst_residual": NaN' in report.to_json()
        assert "worst_residual=nan" in _property_line(result.to_record())

    @pytest.mark.parametrize("verdict", [True, False])
    def test_numpy_bool_judged_as_bool(self, verdict):
        assert _judge(np.bool_(verdict)) == _judge(verdict)
        assert _judge(verdict).worst_residual == (0.0 if verdict else 1.0)
        assert _judge(verdict).passed is verdict


def _without_wall_time(stdout: str, report_path) -> tuple:
    """A run's stdout and report with their wall times taken out."""
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
        del report["summary"]["wall_time_s"]
        report_path.unlink()
    return re.sub(r", [0-9.]+s\)$", ", s)", stdout, flags=re.M), report


class TestCli:
    def test_back_to_back_calls_match_separate_processes(self, tmp_path, capsys, monkeypatch):
        # one parser serves every call in a process: no option value, default
        # or error may carry over from one call into the next
        monkeypatch.delenv("FRAME_RIGIDITY_TOL", raising=False)
        runs = [
            ["--suite", "clr", "--ambient", "3", "--trials", "6", "--seed", "2"],
            ["--suite", "pfr", "--ambient", "5", "--field", "real", "--trials", "6",
             "--seed", "4", "--tol", "1e-8"],
            ["--suite", "pfr", "--trials", "many"],
            ["--suite", "clr", "--ambient", "2"],
            ["--suite", "clr", "--ambient", "3", "--trials", "6", "--seed", "2"],
        ]
        codes = []
        for k, argv in enumerate(runs):
            target = tmp_path / f"report-{k}.json"
            argv = argv + ["--report", str(target)]
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own error exit
                code = exc.code
            out, err = capsys.readouterr()
            here = (code, err, *_without_wall_time(out, target))
            proc = run_cli(*argv)
            alone = (proc.returncode, proc.stderr, *_without_wall_time(proc.stdout, target))
            assert here == alone, argv
            codes.append(code)
        assert codes == [0, 0, 2, 2, 0]

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

    def test_property_failure_exits_one(self, monkeypatch, capsys):
        failing = _Property("always-violated", lambda cfg, trials, rngs: [False] * len(trials))
        monkeypatch.setitem(suites._REGISTRY, "partitions", (failing,))
        assert cli.main(["--suite", "partitions", "--trials", "5"]) == 1
        assert "FAIL always-violated" in capsys.readouterr().out

    def test_asymmetric_obot_verdict_is_a_violated_trial(self, monkeypatch, tmp_path, capsys):
        # a splitting verdict that differs by direction fails its trial rather
        # than ending the run in a traceback
        def asymmetric(a, b, shapes_a, shapes_b, tol):
            return np.ones(len(a), dtype=bool), np.zeros(len(a), dtype=bool)

        monkeypatch.setattr(suites, "bigobot_stack", asymmetric)
        target = tmp_path / "report.json"
        argv = ["--suite", "obot", "--ambient", "3", "--trials", "6", "--report", str(target)]
        assert cli.main(argv) == 1
        reflexive = next(
            p for p in json.loads(target.read_text())["properties"] if p["name"] == "reflexive"
        )
        assert reflexive["failures"] == 6 and reflexive["first_failing_trial"] == 0
        assert "FAIL reflexive" in capsys.readouterr().out

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

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_report_exits_two(self, where, tmp_path):
        target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        proc = run_cli("--suite", "partitions", "--trials", "3", "--report", str(target))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: cannot write report to")
        assert "Traceback" not in proc.stderr

    def test_unwritable_report_refused_before_any_trial(self, tmp_path, monkeypatch):
        def no_run(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_run)
        code = cli.main(["--suite", "partitions", "--report", str(tmp_path)])
        assert code == 2

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

    @pytest.mark.parametrize("tol", ["0.5", "1e-3", "inf", "nan", "1e-13", "1e-200", "5e-324"])
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

    @pytest.mark.parametrize("suite", ["obot", "reconstruction"])
    def test_tiny_env_tol_exits_two(self, suite, monkeypatch, capsys):
        # run with a tolerance this small, these suites raise mid-run
        monkeypatch.setenv("FRAME_RIGIDITY_TOL", "1e-200")
        assert cli.main(["--suite", suite, "--ambient", "3", "--trials", "5"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: tol must be in")

    def test_bad_env_var_exits_two(self):
        proc = run_cli(
            "--suite", "partitions", "--trials", "5",
            env_extra={"FRAME_RIGIDITY_TOL": "not-a-number"},
        )
        assert proc.returncode == 2
