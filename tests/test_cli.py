import builtins
import csv
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bfokit
from bfokit.cli import build_parser, main
from bfokit.config import REQUIRED, SCHEMA, load_config
from bfokit.fixtures import bundled_config_path

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FORWARD = Path(__file__).parent / "golden_forward"
GOLDEN_FILES = [
    "adjusted_bfo_power_outage.csv",
    "adjusted_bfo_other_cause.csv",
    "descent_rates_power_outage.csv",
    "descent_rates_other_cause.csv",
    "descent_rates_combined.csv",
    "acceleration.json",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out.strip() else None, err


CONFIG = str(bundled_config_path())


class TestDescentBounds:
    def test_golden_tables_byte_identical(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "descent-bounds", "--config", CONFIG,
            "--hypothesis", "both", "--out-dir", str(tmp_path),
        )
        assert code == 0
        for name in GOLDEN_FILES:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_summary_payload(self, capsys):
        code, payload, _ = run_json(capsys, "descent-bounds", "--config", CONFIG)
        assert code == 0
        assert payload["combined_outer_fpm"]["2014-03-08T00:19:29Z"] == [2900.0, 14800.0]
        assert payload["combined_outer_fpm"]["2014-03-08T00:19:37Z"] == [13800.0, 25300.0]
        assert payload["acceleration"]["fpm_per_s"] == pytest.approx(1337.5)
        assert payload["acceleration"]["g"] == pytest.approx(0.68, abs=0.03)

    def test_single_hypothesis(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "descent-bounds", "--config", CONFIG,
            "--hypothesis", "2", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "combined_outer_fpm" not in payload
        assert not (tmp_path / "descent_rates_power_outage.csv").exists()
        assert (tmp_path / "descent_rates_other_cause.csv").read_bytes() == (
            GOLDEN / "descent_rates_other_cause.csv"
        ).read_bytes()

    def test_pretty_format_uses_thousands_separators(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "descent-bounds", "--config", CONFIG,
            "--out-dir", str(tmp_path), "--format", "pretty",
        )
        assert code == 0
        text = (tmp_path / "descent_rates_combined.csv").read_text()
        assert "14,800" in text and "25,300" in text

    def test_pretty_tables_parse_as_csv(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "descent-bounds", "--config", CONFIG,
            "--out-dir", str(tmp_path), "--format", "pretty",
        )
        assert code == 0
        for name in (n for n in GOLDEN_FILES if n.endswith(".csv")):
            with open(tmp_path / name, newline="") as f:
                header, *rows = csv.reader(f)
            assert all(len(row) == len(header) for row in rows), name
            with open(GOLDEN / name, newline="") as f:
                golden = list(csv.reader(f))
            assert [header] + [[c.replace(",", "") for c in row] for row in rows] == golden, name

    @pytest.mark.parametrize("argv", [
        ["descent-bounds"],
        ["logon-drift"],
        ["trend", "--extrapolate", "00:19:29Z", "--extrapolate", "2014-03-09T00:00:00Z"],  # a warning on stderr
        ["track-sweep", "--speed-kts", "450,500"],
        ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"],
        ["predict-bfo", "--time", "00:11Z", "--lat", "0", "--lon", "0", "--speed-kts", "inf"],  # exit 3
    ], ids=lambda argv: argv[0])
    def test_pretty_prints_what_text_prints(self, capsys, argv):
        text, pretty = (run(capsys, *argv, "--config", CONFIG, "--format", fmt) for fmt in ("text", "pretty"))
        assert pretty == text

    def test_exact_sensitivity_flag(self, capsys):
        code, payload, _ = run_json(
            capsys, "descent-bounds", "--config", CONFIG, "--exact-sensitivity"
        )
        assert code == 0
        assert 1.70 <= payload["sensitivity_hz_per_100fpm"] <= 1.80
        assert payload["sensitivity_hz_per_100fpm"] != 1.7


class TestForwardModelGolden:
    """The forward model's outputs, byte for byte: ``tests/golden_forward``
    holds what ``predict-bfo``, ``calibrate-bias``, ``track-sweep``,
    ``descent-bounds --exact-sensitivity``, ``trend --extrapolate 00:19:29Z``
    and ``logon-drift`` wrote on the bundled config, as CI's ``diff -r``
    checks them too."""

    def test_stdout_json_byte_identical(self, capsys):
        for name, argv in [
            ("predict_bfo.json", ["predict-bfo", "--time", "00:11Z", "--lat", "-38.67", "--lon", "85.11",
                                  "--alt", "10668", "--speed-kts", "450", "--track-deg", "185"]),
            ("calibrate_bias.json", ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"]),
            ("descent_bounds_exact.json", ["descent-bounds", "--exact-sensitivity"]),
            ("trend.json", ["trend", "--extrapolate", "00:19:29Z"]),
            ("logon_drift.json", ["logon-drift"]),
        ]:
            code, out, err = run(capsys, *argv, "--config", CONFIG, "--format", "json")
            assert (code, err) == (0, "")
            assert out == (GOLDEN_FORWARD / name).read_text(encoding="utf-8"), name

    def test_trend_and_bias_goldens_hold_under_a_compensated_sum(self, capsys, monkeypatch):
        # Python 3.12 made the builtin sum of floats compensated (Neumaier), so no output may rest on its order
        def neumaier(values, start=0):
            total, compensation = float(start), 0.0
            for x in values:
                t = total + x
                compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + compensation

        assert neumaier([0.1] * 10) == 1.0 != builtins.sum([0.1] * 10)
        monkeypatch.setattr(builtins, "sum", neumaier)
        for name, argv in [
            ("trend.json", ["trend", "--extrapolate", "00:19:29Z"]),
            ("calibrate_bias.json", ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"]),
        ]:
            code, out, err = run(capsys, *argv, "--config", CONFIG, "--format", "json")
            assert (code, err) == (0, "")
            assert out == (GOLDEN_FORWARD / name).read_text(encoding="utf-8"), name

    def test_track_sweep_curves_byte_identical(self, capsys, tmp_path):
        code, _, _ = run(capsys, "track-sweep", "--config", CONFIG, "--speed-kts", "450,500", "--out-dir", str(tmp_path))
        assert code == 0
        curves = sorted(p.name for p in tmp_path.iterdir())
        assert curves == ["track_sweep_450kts.csv", "track_sweep_500kts.csv"]
        for name in curves:
            assert (tmp_path / name).read_bytes() == (GOLDEN_FORWARD / name).read_bytes(), name


class TestTrackSweep:
    def test_defaults_reproduce_south_minimum(self, capsys):
        code, payload, _ = run_json(capsys, "track-sweep", "--config", CONFIG)
        assert code == 0
        south = payload["curves"]["450kts"]["south_offset_hz"]
        assert south == pytest.approx(6.0, abs=2.0)

    def test_curve_csv_schema(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "track-sweep", "--config", CONFIG,
            "--speed-kts", "450,500", "--out-dir", str(tmp_path),
        )
        assert code == 0
        for key in ("450kts", "500kts"):
            lines = (tmp_path / f"track_sweep_{key}.csv").read_text().splitlines()
            header = next(l for l in lines if not l.startswith("#"))
            assert header == "track_deg,bfo_error_hz"

    def test_peak_to_peak_ratio(self, capsys):
        code, payload, _ = run_json(
            capsys, "track-sweep", "--config", CONFIG, "--speed-kts", "450,500"
        )
        ratio = payload["curves"]["500kts"]["peak_to_peak_hz"] / payload["curves"]["450kts"]["peak_to_peak_hz"]
        assert 0.85 <= ratio <= 1.15

    BAD_SPEEDS = {
        "abc": "is not a comma-separated list of speeds",
        "450,,500": "is not a comma-separated list of speeds",
        # two speeds that name one curve, which would be computed twice and written once
        "450,450.0000001": "names the curve 450kts more than once",
        "450,450": "names the curve 450kts more than once",
    }

    @pytest.mark.parametrize("speeds", list(BAD_SPEEDS))
    def test_bad_speed_list_is_a_usage_error(self, capsys, tmp_path, speeds):
        out_dir = tmp_path / "curves"
        with pytest.raises(SystemExit) as info:
            main(["track-sweep", "--config", CONFIG, "--speed-kts", speeds, "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert info.value.code == 1
        assert f"argument --speed-kts: {speeds!r} {self.BAD_SPEEDS[speeds]}" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--step-deg", "nan", "step_deg"),
        ("--step-deg", "inf", "step_deg"),
        ("--measured-bfo", "nan", "measured_bfo_hz"),
        ("--measured-bfo", "inf", "measured_bfo_hz"),
        ("--speed-kts", "nan", "ground_speed_mps"),
        ("--speed-kts", "inf", "ground_speed_mps"),
    ])
    def test_non_finite_input_is_a_domain_error(self, capsys, flag, value, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, out, err = run(capsys, "track-sweep", "--config", CONFIG, flag, value)
        assert (code, out) == (3, "")
        assert f"domain error: {name} {value} is not finite" in err

    # only steps refused before any array is built: never run a sweep this fine
    @pytest.mark.parametrize("step", ["1e-300", "5e-324"])
    def test_too_fine_step_is_a_domain_error(self, capsys, step):
        code, out, err = run(capsys, "track-sweep", "--config", CONFIG, "--step-deg", step)
        assert (code, out) == (3, "")
        assert err.startswith(f"bfokit: domain error: step_deg {step} gives more than 360,001 points")

    # the first curve is computed before the second is refused, and neither is written
    @pytest.mark.parametrize("speeds, message", [
        ("450,-5", "ground speed must be >= 0"),
        ("450,inf", "ground_speed_mps inf is not finite"),
    ])
    def test_a_refused_sweep_writes_no_file(self, capsys, tmp_path, speeds, message):
        out_dir = tmp_path / "curves"
        code, out, err = run(capsys, "track-sweep", "--config", CONFIG, "--speed-kts", speeds, "--out-dir", str(out_dir))
        assert (code, out, err) == (3, "", f"bfokit: domain error: {message}\n")
        assert not out_dir.exists()


class TestTrend:
    def test_extrapolation(self, capsys):
        code, payload, _ = run_json(
            capsys, "trend", "--config", CONFIG, "--extrapolate", "00:19:29Z"
        )
        assert code == 0
        value = payload["extrapolations"]["2014-03-08T00:19:29Z"]
        assert 252.0 <= value <= 256.0

    def test_far_extrapolation_warns_like_the_other_cli_warnings(self, capsys):
        far = ["--extrapolate", "2014-03-09T00:00:00Z", "--extrapolate", "00:19:29Z",
               "--extrapolate", "2014-03-10T00:00:00Z"]
        code, payload, err = run_json(capsys, "trend", "--config", CONFIG, *far)
        assert code == 0
        assert sorted(payload["extrapolations"]) == [
            "2014-03-08T00:19:29Z", "2014-03-09T00:00:00Z", "2014-03-10T00:00:00Z"]
        assert err == (
            "bfokit: warning: extrapolating 23.8 h beyond the fit window\n"
            "bfokit: warning: extrapolating 47.8 h beyond the fit window\n"
        )

    def test_explicit_window(self, capsys):
        code, payload, _ = run_json(
            capsys, "trend", "--config", CONFIG, "--window", "19:41Z..00:11Z"
        )
        assert code == 0
        assert payload["window_utc"] == ["2014-03-07T19:41:00Z", "2014-03-08T00:11:00Z"]


class TestOtherCommands:
    def test_logon_drift(self, capsys):
        code, payload, _ = run_json(capsys, "logon-drift", "--config", CONFIG)
        assert code == 0
        assert payload == {
            "logon_minus_settled_hz": [17.0, 136.0],
            "ack_minus_settled_hz": [17.0, 130.0],
            "ack_below_logon_hz": [0.0, 6.0],
        }

    def test_calibrate_bias_recovers_config_bias(self, capsys, analysis_config):
        code, payload, _ = run_json(
            capsys, "calibrate-bias", "--config", CONFIG,
            "--tarmac-window", "15:55Z..16:15Z",
        )
        assert code == 0
        assert payload["measurements_used"] == 3
        assert payload["bias_hz"] == pytest.approx(analysis_config.bias_hz, abs=0.5)

    def test_predict_bfo_static_world(self, capsys, tmp_path):
        config = _static_world_config(tmp_path)
        code, payload, _ = run_json(
            capsys, "predict-bfo", "--config", str(config),
            "--time", "2014-03-07T12:00:00Z", "--lat", "0", "--lon", "64.5",
        )
        assert code == 0
        assert payload["predicted_bfo_hz"] == 0.0
        for key in ("uplink_doppler_hz", "downlink_doppler_hz", "aes_compensation_hz",
                    "sat_plus_afc_hz", "bias_hz"):
            assert payload[key] == 0.0

    @pytest.mark.parametrize("fmt, stdout", [
        ("text",
         "time_utc: 2014-03-08T00:11:00Z\n"
         "predicted_bfo_hz: 257.8900258067498\n"
         "uplink_doppler_hz: -796.5250299225427\n"
         "downlink_doppler_hz: 23.14134212989469\n"
         "aes_compensation_hz: 783.2468844715687\n"
         "sat_plus_afc_hz: 14.3855\n"
         "bias_hz: 233.64132912782904\n"),
        ("json",
         '{\n'
         '  "aes_compensation_hz": 783.2468844715687,\n'
         '  "bias_hz": 233.64132912782904,\n'
         '  "downlink_doppler_hz": 23.14134212989469,\n'
         '  "predicted_bfo_hz": 257.8900258067498,\n'
         '  "sat_plus_afc_hz": 14.3855,\n'
         '  "time_utc": "2014-03-08T00:11:00Z",\n'
         '  "uplink_doppler_hz": -796.5250299225427\n'
         '}\n'),
    ])
    def test_predict_bfo_stdout_is_pinned(self, capsys, fmt, stdout):
        # The term order, names and every digit of BfoTerms as printed.
        code, out, err = run(
            capsys, "predict-bfo", "--config", CONFIG, "--time", "00:11Z", "--lat", "-38.67",
            "--lon", "85.11", "--alt", "10668", "--speed-kts", "450", "--track-deg", "185", "--format", fmt,
        )
        assert (code, out, err) == (0, stdout, "")

    @pytest.mark.parametrize("flag, value, message", [
        ("--speed-kts", "nan", "ground_speed_mps nan is not finite"),
        ("--speed-kts", "inf", "ground_speed_mps inf is not finite"),
        ("--vrate-fpm", "inf", "vertical_rate_mps inf is not finite"),
        ("--vrate-fpm", "-inf", "vertical_rate_mps -inf is not finite"),
        # only a finite track is reduced into [0, 360), so the error names the angle given
        ("--track-deg", "inf", "track angle inf outside [0, 360)"),
        ("--track-deg", "-inf", "track angle -inf outside [0, 360)"),
        ("--track-deg", "nan", "track angle nan outside [0, 360)"),
    ])
    def test_predict_bfo_names_a_non_finite_speed_or_rate(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "predict-bfo", "--config", CONFIG,
            "--time", "00:11Z", "--lat", "-38.67", "--lon", "85.11", f"{flag}={value}",
        )
        assert (code, out) == (3, "")
        assert err == f"bfokit: domain error: {message}\n"

    def test_predict_bfo_reduces_a_finite_track_into_a_turn(self, capsys):
        argv = ["predict-bfo", "--config", CONFIG, "--time", "00:11Z", "--lat", "-38.67", "--lon", "85.11",
                "--speed-kts", "450", "--format", "json"]
        assert run(capsys, *argv, "--track-deg=-10") == run(capsys, *argv, "--track-deg", "350")

    @pytest.mark.parametrize("argv, flag", [
        (["trend", "--window", "19:41Z"], "--window"),
        (["calibrate-bias", "--tarmac-window", "15:55Z.."], "--tarmac-window"),
    ])
    def test_window_without_an_end_is_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--config", CONFIG)
        assert (code, out) == (2, "")
        assert err == f"bfokit: parse/config error: {flag} must look like START..END\n"

    @pytest.mark.parametrize("argv, flag", [
        (["trend", "--window", "00:11Z..19:41Z"], "--window"),
        (["calibrate-bias", "--tarmac-window", "16:15Z..15:55Z"], "--tarmac-window"),
    ])
    def test_window_ending_before_its_start_is_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--config", CONFIG)
        assert (code, out) == (2, "")
        assert err == f"bfokit: parse/config error: {flag} out of order\n"

    # an empty window holds no fit and no calibration: refused as it is parsed, as the config's fit_window is
    @pytest.mark.parametrize("argv, flag", [
        (["trend", "--window", "00:11Z..00:11Z"], "--window"),
        (["calibrate-bias", "--tarmac-window", "15:55Z..15:55:00Z"], "--tarmac-window"),
    ])
    def test_window_of_equal_bounds_is_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--config", CONFIG)
        assert (code, out) == (2, "")
        assert err == f"bfokit: parse/config error: {flag} out of order\n"

    @pytest.mark.parametrize("argv, flag", [
        (["trend", "--window", "19:41..00:11Z"], "--window"),
        (["calibrate-bias", "--tarmac-window", "15:55Z..16:75Z"], "--tarmac-window"),
        (["predict-bfo", "--time", "19:41", "--lat", "0", "--lon", "85"], "--time"),
        (["track-sweep", "--time", "00:61Z"], "--time"),
        (["trend", "--extrapolate", "00:19:29Z", "--extrapolate", "25:00Z"], "--extrapolate"),
    ])
    def test_window_time_that_does_not_parse_is_exit_2_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--config", CONFIG)
        assert (code, out) == (2, "")
        assert err.startswith(f"bfokit: parse/config error: {flag}: ")

    @pytest.mark.parametrize("argv", [
        ["predict-bfo", "--time", "00:11Z", "--lat", "0", "--lon", "85"],
        ["track-sweep"], ["trend"], ["logon-drift"], ["descent-bounds"],
        ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"],
    ])
    def test_config_is_loaded_once_per_call(self, capsys, monkeypatch, argv):
        import bfokit.cli
        from bfokit.config import load_config

        calls = []
        monkeypatch.setattr(bfokit.cli, "load_config", lambda path: calls.append(path) or load_config(path))
        code, _, _ = run(capsys, *argv, "--config", CONFIG)
        assert code == 0 and calls == [CONFIG]

    def test_env_var_supplies_config(self, capsys, monkeypatch):
        monkeypatch.setenv("BFOKIT_CONFIG", CONFIG)
        code, payload, _ = run_json(capsys, "logon-drift")
        assert code == 0
        assert payload["ack_below_logon_hz"] == [0.0, 6.0]


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys, tmp_path):
        outputs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            code, out, _ = run(
                capsys, "descent-bounds", "--config", CONFIG,
                "--out-dir", str(d), "--format", "json",
            )
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            outputs.append((out, files))
        assert outputs[0] == outputs[1]


class TestOutputFiles:
    """A subcommand returns its ``--out-dir`` files as writers; only ``main`` makes the directory and writes."""

    @pytest.mark.parametrize(("argv", "names"), [
        (["descent-bounds"], GOLDEN_FILES),
        (["track-sweep", "--speed-kts", "450,500"], ["track_sweep_450kts.csv", "track_sweep_500kts.csv"]),
    ])
    def test_a_subcommand_writes_nothing_itself(self, tmp_path, argv, names):
        out_dir = tmp_path / "out"
        args = build_parser().parse_args([*argv, "--config", CONFIG, "--out-dir", str(out_dir)])
        _, files = args.run(load_config(args.config), args)
        assert not out_dir.exists()
        assert sorted(files) == sorted(out_dir / name for name in names)


class TestErrorHandling:
    def test_missing_config_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("BFOKIT_CONFIG", raising=False)
        code, out, err = run(capsys, "logon-drift")
        assert code == 2

    def test_nonexistent_config_is_exit_2(self, capsys):
        code, out, err = run(capsys, "logon-drift", "--config", "/nonexistent.json")
        assert code == 2
        assert "config" in err

    def test_domain_error_is_exit_3(self, capsys):
        # trend window with no measurements inside
        code, out, err = run(
            capsys, "trend", "--config", CONFIG, "--window",
            "2013-01-01T00:00:00Z..2013-01-01T01:00:00Z",
        )
        assert code == 3
        # a time flag that parses but lies outside the ephemeris
        code, out, err = run(capsys, "predict-bfo", "--config", CONFIG, "--time", "05:00Z", "--lat", "0", "--lon", "85")
        assert (code, out) == (3, "")
        assert err.startswith("bfokit: domain error: time ")

    def test_usage_error_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["predict-bfo", "--config", CONFIG])  # missing required flags
        assert info.value.code == 1

    def test_json_error_payload(self, capsys):
        code, out, err = run(
            capsys, "logon-drift", "--config", "/nonexistent.json", "--format", "json"
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["kind"] == "parse/config"

    def test_stdout_closed_before_the_result_is_exit_1_without_a_traceback(self):
        # Each child gets a pipe whose read end is closed before it starts, so every write fails.
        env = {**os.environ, "PYTHONPATH": str(Path(bfokit.__file__).parent.parent)}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            children = {
                fmt: subprocess.Popen(
                    [sys.executable, "-c", "import sys; from bfokit.cli import main; sys.exit(main())",
                     "descent-bounds", "--config", CONFIG, "--format", fmt],
                    stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                )
                for fmt in ("text", "json", "pretty")
            }
        finally:
            os.close(write_end)
        outcomes = {fmt: (child.communicate()[1], child.returncode) for fmt, child in children.items()}
        assert outcomes == dict.fromkeys(children, ("", 1))

    @pytest.mark.parametrize("command", ["logon-drift", "descent-bounds"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_full_stdout_is_exit_2_with_one_error_line(self, command, fmt):
        env = {**os.environ, "PYTHONPATH": str(Path(bfokit.__file__).parent.parent)}
        with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
            child = subprocess.run(
                [sys.executable, "-c", "import sys; from bfokit.cli import main; sys.exit(main())",
                 command, "--config", CONFIG, "--format", fmt],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        message = "stdout: [Errno 28] No space left on device"
        assert child.returncode == 2
        if fmt == "json":
            assert json.loads(child.stderr) == {"error": {"kind": "parse/config", "message": message}}
        else:
            assert child.stderr == f"bfokit: parse/config error: {message}\n"

def _static_world_config(tmp_path):
    """A minimal config: satellite frozen at the nominal slot, zero
    corrections, zero bias."""
    from bfokit.ingest import write_correction_csv, write_ephemeris_csv, write_log_csv
    from bfokit.satellite import CorrectionTable, EphemerisTable, NominalSlot, nominal_satellite_position

    t0 = 1394150400.0  # 2014-03-07T00:00:00Z
    t1 = t0 + 2 * 86400.0
    p = tuple(nominal_satellite_position(NominalSlot()))
    write_ephemeris_csv(
        tmp_path / "eph.csv",
        EphemerisTable([t0, t1], [p, p], [[0, 0, 0], [0, 0, 0]]),
    )
    write_correction_csv(tmp_path / "corr.csv", CorrectionTable([t0, t1], [0.0, 0.0]))
    write_log_csv(tmp_path / "log.csv", [])
    (tmp_path / "logons.csv").write_text(
        "seq_id,time_utc,msg_type,bfo_hz,ber,cn0_dbhz,comp_mode\n"
    )
    config = {
        "reference_date": "2014-03-07",
        "log_csv": "log.csv",
        "ephemeris_csv": "eph.csv",
        "correction_csv": "corr.csv",
        "logon_sequence_csv": "logons.csv",
        "arc_crossing": {"lat": -38.67, "lon": 85.11},
        "fit_window": ["19:41Z", "00:11Z"],
        "bias_hz": 0.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


DROP = object()  # an edit that deletes its key


def _config_with(tmp_path, edits):
    """A copy of the bundled config with absolute file paths, after setting
    each dotted key path in ``edits`` to its value, or deleting it when the
    value is ``DROP``. The key path ``""`` replaces the whole document."""
    raw = json.loads(bundled_config_path().read_text())
    for name in ("log_csv", "ephemeris_csv", "correction_csv", "logon_sequence_csv", "logon_meta_json"):
        raw[name] = str(bundled_config_path().parent / raw[name])
    for key, value in edits.items():
        if not key:
            raw = value
            continue
        *parents, leaf = key.split(".")
        node = raw
        for name in parents:
            node = node[name]
        if value is DROP:
            del node[leaf]
        else:
            node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _optional_keys(table, prefix=""):
    """The dotted path of every optional key of a config schema, nested ones included."""
    for key, (reader, default) in table.items():
        if default is not REQUIRED:
            yield prefix + key
        if isinstance(reader, dict):
            yield from _optional_keys(reader, f"{prefix}{key}.")


def _edited_fixtures(tmp_path, edit_lines, name="mh370_bfo_log.csv"):
    """A copy of the bundled fixtures whose file ``name`` (the burst log by
    default) has its lines passed through ``edit_lines``."""
    d = tmp_path / "fixtures"
    shutil.copytree(bundled_config_path().parent, d)
    edited = d / name
    edited.write_text("\n".join(edit_lines(edited.read_text().splitlines())) + "\n")
    return d / "mh370_analysis.json", edited


class TestFinalLogonPair:
    def test_request_hours_before_the_ack_is_exit_3(self, capsys, tmp_path):
        def edit(lines):
            lines = [l for l in lines if not l.startswith("2014-03-08T00:19:29Z")]
            return lines + ["2014-03-07T16:00:00Z,R,logon_request,150,,0,41.7,"]

        config, _ = _edited_fixtures(tmp_path, edit)
        code, out, err = run(capsys, "descent-bounds", "--config", str(config))
        assert code == 3
        assert "2014-03-07T16:00:00Z" in err and "acceleration" not in out

    def test_ack_without_an_earlier_request_is_exit_3(self, capsys, tmp_path):
        def edit(lines):
            return [l.replace("logon_request", "data") for l in lines]

        config, _ = _edited_fixtures(tmp_path, edit)
        code, out, err = run(capsys, "descent-bounds", "--config", str(config))
        assert code == 3

    def test_last_ack_pairs_with_the_request_just_before_it(self, capsys, tmp_path):
        def edit(lines):  # a later, unanswered request must not be picked
            return lines + ["2014-03-08T00:30:00Z,R,logon_request,150,,0,41.7,"]

        config, _ = _edited_fixtures(tmp_path, edit)
        code, payload, _ = run_json(capsys, "descent-bounds", "--config", str(config))
        assert code == 0
        assert payload["recorded"]["logon"] == {"time_utc": "2014-03-08T00:19:29Z", "bfo_hz": 182.0}
        assert payload["acceleration"]["fpm_per_s"] == pytest.approx(1337.5)


def _set_bfos(bfos):
    """A line edit that sets the BFO cell, the fourth in both the burst log
    and the log-on CSV, of each line that starts with a key of ``bfos``."""

    def edit(lines):
        for i, line in enumerate(lines):
            for prefix, bfo in bfos.items():
                if line.startswith(prefix):
                    cells = line.split(",")
                    cells[3] = bfo
                    lines[i] = ",".join(cells)
        return lines

    return edit


TARMAC = ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"]


class TestNonFiniteResult:
    """Finite but huge BFOs whose result would hold NaN or an infinity are
    exit 3, naming the key of the first such number."""

    CASES = {
        "trend of two huge BFOs": (
            "mh370_bfo_log.csv", {"2014-03-07T19:41": "1.5e308", "2014-03-07T20:41": "1.5e308"}, ["trend"],
            "slope_hz_per_hour is not finite",
        ),
        "trend residuals overflow": (
            "mh370_bfo_log.csv", {"2014-03-07T21:41": "1.5e308"}, ["trend"], "trend residuals overflow",
        ),
        "tarmac bias": (
            "mh370_bfo_log.csv", {"2014-03-07T16:00": "1.5e308", "2014-03-07T16:05": "1.5e308"}, TARMAC,
            "bias_hz is not finite",
        ),
        "log-on drift": (
            "logon_sequences.csv", {"1,2014-02-23T23:57:00Z": "1.5e308", "1,2014-02-23T23:57:08Z": "-1.5e308"},
            ["logon-drift"], "logon_minus_settled_hz[1] is not finite",
        ),
    }

    @pytest.mark.parametrize(("name", "bfos", "argv", "message"), CASES.values(), ids=CASES.keys())
    def test_non_finite_result_is_exit_3(self, capsys, tmp_path, name, bfos, argv, message):
        config, _ = _edited_fixtures(tmp_path, _set_bfos(bfos), name)
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (3, "")
        assert err == f"bfokit: domain error: {message}\n"


class TestLogonSidecar:
    """A malformed log-on sidecar is a parse error (exit 2) naming the file."""

    CASES = {
        "outage not a list": '{"1": {"outage_minutes": 5}}',
        "outage of one number": '{"1": {"outage_minutes": [1]}}',
        "outage not finite": '{"1": {"outage_minutes": [1, NaN]}}',
        "outage of bools": '{"1": {"outage_minutes": [true, 2]}}',
        "outage out of order": '{"3": {"outage_minutes": [95, 35]}}',
        "sequence not an object": '{"1": 3}',
        "top level a list": "[1]",
        "bad JSON": '{"1": {"notes": "unterminated}',
        "settled_proxy a string": '{"1": {"settled_proxy": "no"}}',
        "notes not a string": '{"1": {"notes": 7}}',
        "unknown key": '{"1": {"settled-proxy": true}}',
        "ids naming no sequence": '{"8": {"outage_minutes": [1, 2]}, " 1": {"settled_proxy": true}}',
    }

    @pytest.mark.parametrize("command", ["logon-drift", "descent-bounds"])
    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_bad_sidecar_is_exit_2(self, capsys, tmp_path, command, text):
        config, _ = _edited_fixtures(tmp_path, lambda lines: lines)
        sidecar = config.parent / "logon_sequences_meta.json"
        sidecar.write_text(text)
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 2 and out == ""
        assert err.startswith(f"bfokit: parse/config error: {sidecar}: ")

    def test_settled_proxy_string_is_named(self, capsys, tmp_path):
        config, _ = _edited_fixtures(tmp_path, lambda lines: lines)
        (config.parent / "logon_sequences_meta.json").write_text('{"1": {"settled_proxy": "no"}}')
        code, _, err = run(capsys, "logon-drift", "--config", str(config))
        assert code == 2
        assert err.rstrip().endswith("sequence 1: settled_proxy must be true or false, got 'no'")

    def test_outage_out_of_order_is_named(self, capsys, tmp_path):
        config, _ = _edited_fixtures(tmp_path, lambda lines: lines)
        sidecar = config.parent / "logon_sequences_meta.json"
        sidecar.write_text(TestLogonSidecar.CASES["outage out of order"])
        code, _, err = run(capsys, "logon-drift", "--config", str(config))
        assert code == 2
        assert err == (f"bfokit: parse/config error: {sidecar}: sequence 3: outage_minutes must be a list of two "
                       "finite numbers, the lower first, got [95, 35]\n")

    def test_ids_naming_no_sequence_are_named(self, capsys, tmp_path):
        config, _ = _edited_fixtures(tmp_path, lambda lines: lines)
        (config.parent / "logon_sequences_meta.json").write_text(TestLogonSidecar.CASES["ids naming no sequence"])
        code, _, err = run(capsys, "descent-bounds", "--config", str(config))
        assert code == 2
        assert err.rstrip().endswith("logon_sequences.csv: '8', ' 1'")


class TestLogonCsv:
    """A log-on sequence that its rows leave invalid is a parse error (exit 2) naming the CSV and the sequence."""

    CASES = {
        "starts with its acknowledgment": (
            lambda lines: [l for l in lines if not l.startswith("1,2014-02-23T23:57:00Z,logon_request,")],
            "log-on 1: first message must be a log-on request",
        ),
        "rows out of time order": (
            lambda lines: [l.replace("1,2014-02-23T23:57:50Z,", "1,2014-02-23T23:57:30Z,") for l in lines],
            "log-on 1: measurements not time-ordered",
        ),
    }

    @pytest.mark.parametrize("command", ["logon-drift", "descent-bounds"])
    @pytest.mark.parametrize(("edit", "message"), CASES.values(), ids=CASES.keys())
    def test_bad_sequence_is_exit_2_naming_the_file(self, capsys, tmp_path, command, edit, message):
        config, logons = _edited_fixtures(tmp_path, edit, "logon_sequences.csv")
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"bfokit: parse/config error: {logons}: {message}\n"


class TestRejectedRows:
    def test_trend_warns_once_per_rejected_row(self, capsys, tmp_path):
        def edit(lines):
            return [l.replace(",R,interrogation,141,", ",X,interrogation,141,") for l in lines]

        config, log = _edited_fixtures(tmp_path, edit)
        code, payload, err = run_json(capsys, "trend", "--config", str(config))
        assert code == 0
        assert err.splitlines() == [
            f"bfokit: warning: {log}: rejected line 9: channel: 'X' is not a valid Channel"
        ]

    def test_clean_log_prints_no_warning(self, capsys):
        code, _, err = run(capsys, "trend", "--config", CONFIG)
        assert code == 0 and err == ""


class TestRefusedPaths:
    """A path the system will not read or write as asked is exit 2 with one
    line on stderr, in text or JSON, and never a traceback. A file key that
    names a directory is a case of ``TestConfigText``."""

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "a_file"
        path.write_text("")
        return path

    def refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("bfokit: parse/config error: ")
        return err

    def test_config_naming_a_directory(self, capsys, tmp_path):
        assert str(tmp_path) in self.refused(capsys, "logon-drift", "--config", str(tmp_path))

    def test_config_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(bundled_config_path().read_bytes().replace(b"mh370_bfo_log", b"mh370_bfo_log\xff"))
        err = self.refused(capsys, "logon-drift", "--config", str(path))
        assert err.startswith(f"bfokit: parse/config error: config file {path} is not valid JSON: 'utf-8' codec")

    def test_descent_out_dir_naming_a_file(self, capsys, a_file):
        assert str(a_file) in self.refused(capsys, "descent-bounds", "--config", CONFIG, "--out-dir", str(a_file))
        assert a_file.read_text() == ""

    def test_sweep_out_dir_inside_a_file(self, capsys, a_file):
        err = self.refused(capsys, "track-sweep", "--config", CONFIG, "--out-dir", str(a_file / "x"))
        assert str(a_file / "x") in err

    def test_output_path_naming_a_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        (out_dir / "acceleration.json").mkdir(parents=True)
        err = self.refused(capsys, "descent-bounds", "--config", CONFIG, "--out-dir", str(out_dir))
        assert err == f"bfokit: parse/config error: [Errno 21] Is a directory: '{out_dir / 'acceleration.json'}'\n"
        # the five tables before it are whole, and no temporary file is left beside them
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(GOLDEN_FILES)
        for name in GOLDEN_FILES[:-1]:
            assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_output_path_that_is_a_symlink_is_replaced(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "descent_rates_combined.csv").symlink_to("/dev/full")  # writing through it would fail
        code, _, err = run(capsys, "descent-bounds", "--config", CONFIG, "--out-dir", str(out_dir))
        assert (code, err) == (0, "")
        assert not (out_dir / "descent_rates_combined.csv").is_symlink()
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(GOLDEN_FILES)
        for name in GOLDEN_FILES:
            assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_json_error_payload(self, capsys, a_file):
        code, out, err = run(capsys, "descent-bounds", "--config", CONFIG, "--out-dir", str(a_file), "--format", "json")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "parse/config" and str(a_file) in error["message"]


class TestConfigDefaults:
    """A config of only the required keys and the log-on sidecar: every
    optional key takes the default the paper's tables rest on."""

    OMITTED = dict.fromkeys(
        ("channel", "nominal_slot", "noise_bounds", "expected_bfo", "bias_hz", "tarmac",
         "sensitivity_hz_per_100fpm", "arc_crossing.alt"),
        DROP,
    )

    def test_omitted_keys_load_the_defaults(self, tmp_path):
        from bfokit.geodesy import GeodeticPosition
        from bfokit.satellite import NominalSlot
        from bfokit.stats import NoiseBounds

        cfg = load_config(_config_with(tmp_path, self.OMITTED))
        assert cfg.expected_south_hz == 260.0
        assert cfg.expected_north_hz == 280.0
        assert cfg.sensitivity_hz_per_100fpm == 1.7
        assert cfg.slot == NominalSlot() and cfg.slot.longitude_deg == 64.5
        assert (cfg.slot.latitude_deg, cfg.slot.radius_m) == (0.0, 42164169.0)
        assert cfg.noise == NoiseBounds(-28.0, 18.0)
        assert (cfg.noise.lower_hz, cfg.noise.upper_hz) == (-28.0, 18.0)
        assert (cfg.channel.uplink_hz, cfg.channel.downlink_hz) == (1646.6525e6, 3615.0e6)
        assert cfg.channel.ges_position == GeodeticPosition(-31.8044, 115.8872, 22.0)
        assert cfg.arc_crossing == GeodeticPosition(-38.67, 85.11, 0.0)
        assert (cfg.bias_hz, cfg.tarmac) == (0.0, None)

    @pytest.mark.parametrize("key", list(_optional_keys(SCHEMA)))
    def test_a_null_optional_key_reads_as_left_out(self, tmp_path, key):
        *parents, leaf = key.split(".")
        node = json.loads(bundled_config_path().read_text())
        for name in parents:
            node = node[name]
        (tmp_path / "null").mkdir()
        (tmp_path / "omitted").mkdir()
        null = load_config(_config_with(tmp_path / "null", {key: None}))
        assert null == load_config(_config_with(tmp_path / "omitted", {key: DROP} if leaf in node else {}))

    def test_descent_bounds_write_the_golden_tables(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "descent-bounds", "--config", str(_config_with(tmp_path, self.OMITTED)),
                         "--out-dir", str(out))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN_FILES)
        for name in GOLDEN_FILES:
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_readme_key_table_is_the_schema(self):
        def rows(table, prefix=""):
            for key, (reader, default) in table.items():
                if default is REQUIRED:
                    yield f"`{prefix}{key}`", "required", ""
                else:
                    yield f"`{prefix}{key}`", "optional", "none" if default is None else f"`{json.dumps(default)}`"
                if isinstance(reader, dict):
                    yield from rows(reader, f"{prefix}{key}.")

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split("| config key | required | default |\n| --- | --- | --- |\n")[1]
        lines = itertools.takewhile(lambda line: line.startswith("|"), after.splitlines())
        assert [tuple(cell.strip() for cell in line.strip("|").split("|")) for line in lines] == list(rows(SCHEMA))


class TestConfigNumbers:
    """A config number that is not a finite JSON number is exit 2 naming its key."""

    CASES = [
        ("south NaN", "expected_bfo.south_hz", float("nan")),
        ("upper NaN", "noise_bounds.upper_hz", float("nan")),
        ("sensitivity NaN", "sensitivity_hz_per_100fpm", float("nan")),
        ("uplink NaN", "channel.uplink_hz", float("nan")),
        ("slot longitude Infinity", "nominal_slot.longitude_deg", float("inf")),
        ("south Infinity", "expected_bfo.south_hz", float("inf")),
        ("bias true", "bias_hz", True),
        ("bias string", "bias_hz", "abc"),
        ("latitude bool", "arc_crossing.lat", True),
    ]

    @pytest.mark.parametrize(("key", "value"), [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_bad_number_is_exit_2(self, capsys, tmp_path, key, value):
        path = _config_with(tmp_path, {key: value})
        code, out, err = run(capsys, "descent-bounds", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"bfokit: parse/config error: {key}: ") and "is not a finite number" in err


class TestOverflowingConfig:
    """Finite config numbers whose descent rate overflows are exit 3, not a traceback."""

    CASES = {
        "subnormal sensitivity": {"sensitivity_hz_per_100fpm": 5e-324},
        "huge expected BFO": {"expected_bfo.south_hz": 1e308},
        "huge noise bounds": {"noise_bounds.lower_hz": -1e308, "noise_bounds.upper_hz": 1e308},
    }

    @pytest.mark.parametrize("edits", CASES.values(), ids=CASES.keys())
    def test_non_finite_descent_rate_is_exit_3(self, capsys, tmp_path, edits):
        path = _config_with(tmp_path, edits)
        code, out, err = run(capsys, "descent-bounds", "--config", str(path), "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert err == "bfokit: domain error: descent rate is not finite\n"
        assert not (tmp_path / "out").exists()

    def test_huge_expected_bfos_give_a_finite_acceleration(self, capsys, tmp_path):
        # the outer bounds of each row sum past the largest float
        path = _config_with(tmp_path, {"expected_bfo.south_hz": 1.8e306, "expected_bfo.north_hz": 1.8e306})
        code, payload, _ = run_json(capsys, "descent-bounds", "--config", str(path))
        assert code == 0
        assert payload["acceleration"] == {"fpm_per_s": 0.0, "mps2": 0.0, "g": 0.0}


class TestConfigText:
    """A config text value that is not a JSON string, a fit_window that is
    not a list of two, a window time past year 9999, a key the config does
    not know, a missing required key and every other fault of the config is
    exit 2 with one line naming the key or the value, and no traceback. In
    a message, {config} stands for the config file and {dir} for its folder."""

    CASES = [
        ("window of numbers", "fit_window", [1, 2], "fit_window[0]: 1 is not a string"),
        ("window string", "fit_window", "ab", "fit_window: 'ab' is not a list of two times"),
        ("window of three", "fit_window", ["19:41Z", "00:11Z", "00:12Z"],
         "fit_window: ['19:41Z', '00:11Z', '00:12Z'] is not a list of two times"),
        ("second window time", "fit_window", ["19:41Z", None], "fit_window[1]: None is not a string"),
        ("log path number", "log_csv", 5, "log_csv: 5 is not a string"),
        ("sidecar path list", "logon_meta_json", ["a.json"], "logon_meta_json: ['a.json'] is not a string"),
        ("reference date number", "reference_date", 5, "reference_date: 5 is not a string"),
        ("misspelled bias", "bias_Hz", 233.64132912782904, "bias_Hz: unknown config key"),
        ("misspelled south", "expected_bfo.south_Hz", 260.0, "expected_bfo.south_Hz: unknown config key"),
        ("unknown ges key", "channel.ges.height", 22.0, "channel.ges.height: unknown config key"),
        ("no reference date", "reference_date", DROP, "config is missing 'reference_date'"),
        ("no arc crossing", "arc_crossing", DROP, "config is missing 'arc_crossing'"),
        ("noise bounds without upper", "noise_bounds.upper_hz", DROP, "config is missing 'noise_bounds.upper_hz'"),
        ("arc crossing without lat", "arc_crossing.lat", DROP, "config is missing 'arc_crossing.lat'"),
        ("no fit window", "fit_window", DROP, "config is missing 'fit_window'"),
        ("top level a list", "", [1], "config file {config} is not a JSON object"),
        ("top level null", "", None, "config file {config} is not a JSON object"),
        ("top level a number", "", 5, "config file {config} is not a JSON object"),
        ("top level a string", "", "abc", "config file {config} is not a JSON object"),
        ("nonexistent log", "log_csv", "nope.csv", "log_csv: file {dir}/nope.csv does not exist"),
        ("log path a directory", "log_csv", ".", "log_csv: {dir} is not a regular file"),
        ("null log path", "log_csv", None, "config is missing 'log_csv'"),
        ("null reference date", "reference_date", None, "config is missing 'reference_date'"),
        ("null arc crossing", "arc_crossing", None, "config is missing 'arc_crossing'"),
        ("null arc crossing lat", "arc_crossing.lat", None, "config is missing 'arc_crossing.lat'"),
        ("null noise bound", "noise_bounds.lower_hz", None, "config is missing 'noise_bounds.lower_hz'"),
        ("null fit window", "fit_window", None, "config is missing 'fit_window'"),
        ("channel a number", "channel", 5, "channel: 5 is not an object"),
        ("ges a number", "channel.ges", 5, "channel.ges: 5 is not an object"),
        ("noise bounds a number", "noise_bounds", 5, "noise_bounds: 5 is not an object"),
        ("tarmac a number", "tarmac", 5, "tarmac: 5 is not an object"),
        ("latitude out of range", "arc_crossing.lat", 91, "bad arc_crossing position: latitude 91.0 outside [-90, 90]"),
        ("noise bounds out of order", "noise_bounds", {"lower_hz": 20, "upper_hz": 10},
         "config file {config}: noise bounds out of order"),
        ("zero uplink", "channel.uplink_hz", 0, "config file {config}: carrier frequencies must be positive"),
        ("reference date month 13", "reference_date", "2014-13-01",
         "reference_date: '2014-13-01' is not a date: month must be in 1..12"),
        ("reference date without dashes", "reference_date", "20140307",
         "reference_date: '20140307' is not a YYYY-MM-DD date"),
        ("reference date as a week", "reference_date", "2014-W10-5",
         "reference_date: '2014-W10-5' is not a YYYY-MM-DD date"),
        ("window out of order", "fit_window", ["00:11Z", "19:41Z"], "fit_window out of order"),
        ("window of equal bounds", "fit_window", ["00:11Z", "00:11:00Z"], "fit_window out of order"),
        ("window time without its Z", "fit_window", ["19:41", "00:11Z"],
         "fit_window: timestamp '19:41' must be UTC ('Z' suffix)"),
    ]

    @pytest.mark.parametrize(("key", "value", "message"), [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_non_string_is_exit_2(self, capsys, tmp_path, key, value, message):
        path = _config_with(tmp_path, {key: value})
        code, out, err = run(capsys, "descent-bounds", "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"bfokit: parse/config error: {message.format(config=path, dir=tmp_path)}\n"

    def test_morning_time_after_the_last_reference_date_is_exit_2(self, capsys, tmp_path):
        # the fit window's 00:11Z falls in year 10000
        path = _config_with(tmp_path, {"reference_date": "9999-12-31"})
        code, out, err = run(capsys, "descent-bounds", "--config", str(path))
        assert code == 2 and out == ""
        assert "timestamp '00:11Z' is past the last writable microsecond of year 9999" in err
