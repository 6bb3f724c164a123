import argparse
import contextlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import djensemble
from djensemble import cli, protocol
from djensemble.cli import MAX_SHOTS, main
from djensemble.manybody import full_simulate_naive
from djensemble.protocol import MODES, run_protocol
from djensemble.qstate import sample_shots


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestRunCommand:
    def test_single_function_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--function", "f3", "--mode", "paper", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["schema"] == "djensemble-report/1"
        entry = report["results"][0]
        assert entry["distribution"]["01"] == pytest.approx(1.0)
        assert entry["classification"] == "balanced"
        assert entry["function_pair"] == ["f3", "f4"]
        assert "f3" in capsys.readouterr().out

    def test_all_functions_pattern_map(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--function", "all", "--mode", "paper", "--out", str(out)]) == 0
        report = read_report(out)
        patterns = {e["function"]: e["top_pattern"] for e in report["results"]}
        assert patterns == {
            "f1": "11", "f2": "11", "f3": "01", "f4": "01",
            "f5": "10", "f6": "10", "f7": "00", "f8": "00",
        }
        assert all(e["deterministic"] for e in report["results"])

    def test_exact_constant(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--function", "f1", "--mode", "exact", "--out", str(out)]) == 0
        entry = read_report(out)["results"][0]
        assert entry["distribution"]["11"] == pytest.approx(1.0)
        assert entry["classification"] == "constant"
        assert entry["ensemble_evolution_calls"] == 0

    def test_oracle_cross_check(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "run", "--function", "f3", "--mode", "exact",
            "--n-atoms-oracle", "3", "--out", str(out),
        ])
        assert code == 0
        oracle = read_report(out)["results"][0]["oracle"]
        assert oracle["comparable"]
        assert oracle["max_difference_vs_run"] < 1e-10

    @pytest.fixture
    def paper_oracle_entry(self, tmp_path):
        # the oracle replays the exact unitary, so it and a paper-mode run differ
        out = tmp_path / "report.json"
        argv = ["run", "--function", "f3", "--mode", "paper", "--n-atoms-oracle", "3", "--out", str(out)]
        assert main(argv) == 0
        return read_report(out)["results"][0]

    def test_paper_mode_oracle_is_not_comparable(self, paper_oracle_entry):
        assert paper_oracle_entry["oracle"]["comparable"] is False

    def test_oracle_difference_is_the_largest_over_the_patterns(self, paper_oracle_entry):
        run, oracle = paper_oracle_entry["distribution"], paper_oracle_entry["oracle"]
        gaps = [abs(oracle["distribution"][k] - run[k]) for k in run]
        # 0.75 here; a minimum would read 0.25
        assert len(gaps) == 4 and min(gaps) < max(gaps)
        assert oracle["max_difference_vs_run"] == max(gaps)

    def test_unknown_function_exits_2(self, capsys):
        assert main(["run", "--function", "f9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_mode_exits_2(self, capsys):
        assert main(["run", "--function", "f1", "--mode", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --mode: invalid choice: 'bogus'") and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [
        ["--n-atoms-oracle", "13"],
        ["--n-atoms-oracle", "0"],
        ["--shots", "10", "--seed", "-1"],
        ["--shots", "-5"],
        ["--shots=-1e5"],
    ])
    def test_bad_input_exits_2(self, extra, capsys):
        assert main(["run", "--function", "f3", "--mode", "exact"] + extra) == 2
        err = capsys.readouterr().err
        # the last option given is the bad one, and the error names it
        named = extra[-2] if len(extra) > 1 else extra[0].split("=")[0]
        assert err.startswith(f"error: argument {named}: ") and err.count("\n") == 1

    def test_report_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        main(["run", "--function", "all", "--mode", "paper", "--shots", "50", "--out", str(out)])
        report = read_report(out)
        assert json.loads(json.dumps(report)) == report

    def test_zero_shot_run_consumes_no_randomness(self, monkeypatch):
        from djensemble import cli

        def poisoned(*args, **kwargs):
            raise AssertionError("sampling must not run for shots=0")

        monkeypatch.setattr(cli, "sample_shots", poisoned)
        assert main(["run", "--function", "all", "--mode", "paper"]) == 0


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "polarizer claim audit" in names
        audit = next(c for c in report["checks"] if c["name"] == "polarizer claim audit")
        assert audit["expected_inconsistent"] and audit["passed"]
        assert "not unitary" in audit["detail"]
        assert "PASS" in capsys.readouterr().out
        # a measured deviation is written as a JSON float, a count of shots included
        deviations = [c["deviation"] for c in report["checks"] if c["deviation"] is not None]
        assert deviations and all(type(d) is float for d in deviations)

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        from djensemble import cli
        from djensemble.checks import CheckResult

        def broken():
            return [CheckResult("synthetic failure", False, 1.0, "forced by the test")]

        monkeypatch.setattr(cli, "run_all_checks", broken)
        assert main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_that_raises_is_a_fail_line_and_a_written_report(self, monkeypatch, tmp_path, capsys):
        from djensemble import checks

        def check_dicke_vs_naive():
            raise ValueError("state must be normalized but <psi|psi> = 1.0002")

        monkeypatch.setattr(checks, "ALL_CHECKS", (check_dicke_vs_naive, checks.check_sampling))
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        fail = [line for line in captured.out.splitlines() if "  FAIL" in line]
        assert len(fail) == 1 and fail[0].startswith("symmetric-sector vs unreduced protocol  FAIL")
        assert "raised ValueError: state must be normalized" in fail[0]
        report = read_report(out)
        assert set(report) == {"schema", "version", "command", "request", "checks", "all_passed"}
        assert not report["all_passed"]
        assert [c["passed"] for c in report["checks"]] == [False, True]
        assert report["checks"][0]["name"] == "symmetric-sector vs unreduced protocol"
        assert report["checks"][0]["deviation"] is None

    def test_a_check_that_raises_and_one_that_fails_print_one_name(self, monkeypatch, tmp_path, capsys):
        """A fault that makes the Dicke run raise, as a band that is not
        normalized does, and one that only moves its amplitudes are both
        reported under the check's table name, on the console and in --out."""
        from djensemble import manybody

        def raising(*args):
            raise ValueError("state must be normalized but <psi|psi> = 1.0002")

        extract = manybody.dicke_amplitudes_from_naive
        names = []
        for name, fault in (("full_simulate_dicke", raising),
                            ("dicke_amplitudes_from_naive", lambda state, n: -extract(state, n))):
            with monkeypatch.context() as patch:
                patch.setattr(manybody, name, fault)
                out = tmp_path / f"{name}.json"
                assert main(["verify", "--out", str(out)]) == 1
            fail = [line for line in capsys.readouterr().out.splitlines() if "  FAIL" in line]
            assert len(fail) == 1
            failed = [c for c in read_report(out)["checks"] if not c["passed"]]
            assert len(failed) == 1 and fail[0].split("  FAIL")[0].rstrip() == failed[0]["name"]
            names.append(failed[0]["name"])
        assert names == ["symmetric-sector vs unreduced protocol"] * 2


class TestReportRoundTrips:
    def test_every_command_report_round_trips(self, tmp_path):
        spec = tmp_path / "medium.json"
        spec.write_text(json.dumps({
            "length_m": 200e-6, "n_atoms": 100000, "coupling_rad_s": 2.91e8,
        }))
        invocations = [
            ["run", "--function", "f5", "--mode", "exact", "--shots", "20"],
            ["verify"],
            ["params", "--medium", str(spec)],
            ["sample", "--function", "f2", "--mode", "paper", "--shots", "30"],
            ["trace", "--function", "f8", "--mode", "paper"],
        ]
        for i, argv in enumerate(invocations):
            out = tmp_path / f"report{i}.json"
            assert main(argv + ["--out", str(out)]) in (0,)
            report = read_report(out)
            assert report["schema"] == "djensemble-report/1"
            assert json.loads(json.dumps(report)) == report


# one invocation per subcommand
EVERY_COMMAND = [
    ["run", "--function", "f3", "--mode", "exact"],
    ["verify"],
    ["params", "--medium", "rb-mot"],
    ["sample", "--function", "f3", "--mode", "exact", "--shots", "10"],
    ["trace", "--function", "f3", "--mode", "exact"],
]
COMMAND_IDS = [argv[0] for argv in EVERY_COMMAND]


class TestOutOption:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=COMMAND_IDS)
    @pytest.mark.parametrize("where", ["directory", "missing-parent", "file-as-parent"])
    def test_unwritable_path_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, argv, where):
        from djensemble import cli

        def no_work(*args, **kwargs):
            raise AssertionError("--out must be checked before any work")

        for name in ("run_all_checks", "run_protocol", "required_detuning"):
            monkeypatch.setattr(cli, name, no_work)
        (tmp_path / "plain.txt").write_text("x")
        out = {
            "directory": tmp_path,
            "missing-parent": tmp_path / "missing" / "report.json",
            "file-as-parent": tmp_path / "plain.txt" / "report.json",
        }[where]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: argument --out: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=COMMAND_IDS)
    def test_empty_value_names_no_file(self, capsys, argv):
        # Path("") is ".", a directory: the refusal must name the empty value instead
        assert main(argv + ["--out", ""]) == 2
        assert capsys.readouterr() == ("", "error: argument --out: an empty value names no file\n")

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=COMMAND_IDS)
    def test_write_failure_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        from pathlib import Path

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "write_text", refuse)
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write --out {str(tmp_path / 'report.json')!r}: Permission denied\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="this system has no /dev/full")
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=COMMAND_IDS)
    def test_failed_write_leaves_stdout_empty(self, capsys, argv):
        # /dev/full passes the --out directory rules and only the write fails,
        # after the work: no console line may be printed before it
        assert main(argv + ["--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write --out '/dev/full': ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_nan_never_reaches_a_report(self, tmp_path, capsys, value):
        from djensemble.cli import _emit

        out = tmp_path / "report.json"
        # a list inside a dict, the shape of `distribution` and `amplitudes`
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"results": [{"amplitudes": [0.5, value]}]}, str(out), ["f1: a console line"])
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestReportLayout:
    def test_report_is_one_compact_line(self, tmp_path, monkeypatch):
        # an indent, or json.dump, would leave CPython's C encoder for the pure-Python one
        import json.encoder

        if json.encoder.c_make_encoder is None:
            pytest.skip("this Python has no C JSON encoder")

        def pure_python_encoder(*args):
            raise AssertionError("a report must be encoded by json.dumps in C, with no indent")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        invocations = [
            [command, "--function", "all", "--mode", mode] + (["--shots", "100"] if command == "sample" else [])
            for command in ("run", "trace", "sample") for mode in MODES
        ] + [["verify"], ["params", "--medium", "cs-cell"]]
        for i, argv in enumerate(invocations):
            out = tmp_path / f"report{i}.json"
            assert main(argv + ["--out", str(out)]) == 0, argv
            text = out.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), allow_nan=False) + "\n", argv
            assert text.count("\n") == 1, argv

    def test_key_order(self, tmp_path):
        envelope = ["schema", "version", "command", "request", "results"]
        run_keys = [
            "function", "table", "true_classification", "mode", "distribution", "top_pattern",
            "top_probability", "deterministic", "post_selection_probability",
            "ensemble_evolution_calls", "classification", "function_pair", "counts", "oracle",
        ]
        sample_keys = [
            "function", "mode", "shots", "seed", "coincidences", "counts",
            "empirical_classification_rate",
        ]
        trace_keys = ["function", "mode", "post_selection_probability", "states"]
        invocations = [
            (["run", "--function", "f3", "--shots", "20", "--n-atoms-oracle", "3"], run_keys),
            (["sample", "--function", "f3", "--shots", "30"], sample_keys),
            (["trace", "--function", "f3"], trace_keys),
        ]
        for i, (argv, entry_keys) in enumerate(invocations):
            out = tmp_path / f"report{i}.json"
            assert main(argv + ["--out", str(out)]) == 0
            report = read_report(out)
            assert list(report) == envelope
            assert list(report["results"][0]) == entry_keys
        out = tmp_path / "params.json"
        assert main(["params", "--medium", "cs-cell", "--out", str(out)]) == 0
        report = read_report(out)
        assert list(report) == envelope[:4] + ["medium", "feasibility", "evolution_angle"]
        assert list(report["medium"]) == ["length_m", "n_atoms", "coupling_rad_s", "relaxation_s"]
        assert list(report["feasibility"]) == [
            "transit_time_s", "lambda_rad_s", "detuning_rad_s", "detuning_cyclic_hz",
            "detuning_over_coupling", "decoherence_margin", "dispersive_ok", "decoherence_ok", "notes",
        ]


class TestParamsCommand:
    def test_cesium_preset(self, tmp_path):
        out = tmp_path / "params.json"
        assert main(["params", "--medium", "cs-cell", "--out", str(out)]) == 0
        feas = read_report(out)["feasibility"]
        assert abs(feas["detuning_over_coupling"] - 12.35) <= 0.05

    def test_rubidium_preset(self, tmp_path):
        out = tmp_path / "params.json"
        assert main(["params", "--medium", "rb-mot", "--out", str(out)]) == 0
        feas = read_report(out)["feasibility"]
        assert 9.0 <= feas["detuning_over_coupling"] <= 9.5

    def test_medium_file(self, tmp_path):
        spec = tmp_path / "medium.json"
        spec.write_text(json.dumps({
            "length_m": 200e-6, "n_atoms": 100000,
            "coupling_rad_s": 2.91e8, "relaxation_s": 1e-6,
        }))
        out = tmp_path / "params.json"
        assert main(["params", "--medium", str(spec), "--out", str(out)]) == 0
        assert abs(read_report(out)["feasibility"]["detuning_over_coupling"] - 12.35) <= 0.05

    def test_integer_values_are_reported_as_floats(self, tmp_path):
        spec = tmp_path / "medium.json"
        spec.write_text('{"length_m": 1, "n_atoms": 100000, "coupling_rad_s": 291000000, "relaxation_s": 1}')
        out = tmp_path / "params.json"
        assert main(["params", "--medium", str(spec), "--out", str(out)]) == 0
        text = out.read_text()
        assert '"length_m": 1.0,' in text and '"coupling_rad_s": 291000000.0,' in text
        assert '"n_atoms": 100000,' in text and '"relaxation_s": 1.0}' in text

    def test_zero_length_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "medium.json"
        spec.write_text(json.dumps({
            "length_m": 0.0, "n_atoms": 100000, "coupling_rad_s": 2.91e8,
        }))
        assert main(["params", "--medium", str(spec)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("length_m", "NaN"), ("relaxation_s", "Infinity")])
    def test_non_finite_spec_exits_2(self, tmp_path, capsys, key, value):
        fields = {"length_m": "200e-6", "n_atoms": "100000", "coupling_rad_s": "2.91e8", key: value}
        spec = tmp_path / "medium.json"
        spec.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert main(["params", "--medium", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("fields", [
        {"coupling_rad_s": "1e200"},
        {"coupling_rad_s": "1e-200"},
        {"n_atoms": "1.7"},
        {"n_atoms": "true"},
    ])
    def test_out_of_range_spec_exits_2(self, tmp_path, capsys, fields):
        fields = {"length_m": "200e-6", "n_atoms": "100000", "coupling_rad_s": "2.91e8", **fields}
        spec = tmp_path / "medium.json"
        spec.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert main(["params", "--medium", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_integral_float_atom_count_accepted(self, tmp_path):
        spec = tmp_path / "medium.json"
        spec.write_text('{"length_m": 200e-6, "n_atoms": 1e5, "coupling_rad_s": 2.91e8}')
        out = tmp_path / "params.json"
        assert main(["params", "--medium", str(spec), "--out", str(out)]) == 0
        assert read_report(out)["medium"]["n_atoms"] == 100000

    @pytest.mark.parametrize("text, named", [
        ('{"n_atoms": 100000, "coupling_rad_s": 2.91e8}', "'length_m' must be a number, it is missing"),
        ('{"length_m": "2e-4", "n_atoms": 100000, "coupling_rad_s": 2.91e8}', "length_m must be a real number, got '2e-4'"),
        ('{"length_m": 2e-4, "n_atoms": [1], "coupling_rad_s": 2.91e8}', "n_atoms must be a real number, got [1]"),
        ('{"length_m": 2e-4, "n_atoms": 100000, "coupling_rad_s": 2.91e8, "relaxation_s": null}',
         "relaxation_s must be a real number, got None"),
        ('{"length_m": 2e-4, "n_atoms": 100000, "coupling_rad_s": 2.91e8, "relaxation_s": true}',
         "relaxation_s must be a real number, got True"),
        ("[200e-6, 100000, 2.91e8]", "must be a JSON object"),
        ("length_m = 200e-6", "is not JSON"),
    ])
    def test_bad_medium_file_is_named(self, tmp_path, capsys, text, named):
        spec = tmp_path / "medium.json"
        spec.write_text(text)
        assert main(["params", "--medium", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: medium file {str(spec)!r}") and err.count("\n") == 1
        assert named in err

    def test_atom_count_past_the_float_range_is_named(self, tmp_path, capsys):
        spec = tmp_path / "medium.json"
        spec.write_text('{"length_m": 200e-6, "n_atoms": 1' + "0" * 399 + ', "coupling_rad_s": 2.91e8}')
        assert main(["params", "--medium", str(spec)]) == 2
        assert capsys.readouterr().err == (
            f"error: medium file {str(spec)!r}: "
            "n_atoms must be at most 1.798e+308 in magnitude, the largest float\n"
        )

    @pytest.mark.parametrize("key, value, message", [
        ("length_m", "1" + "0" * 399, "length_m must be at most 1.798e+308 in magnitude, the largest float"),
        ("coupling_rad_s", "1e400", "coupling_rad_s must be finite, got inf"),
    ], ids=["length_m", "coupling_rad_s"])
    def test_out_of_range_value_is_named_by_its_key(self, tmp_path, capsys, key, value, message):
        fields = {"length_m": "200e-6", "n_atoms": "100000", "coupling_rad_s": "2.91e8", key: value}
        spec = tmp_path / "medium.json"
        spec.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert main(["params", "--medium", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: medium file {str(spec)!r}: {message}\n"

    @pytest.mark.parametrize("extra", [{"lenght_m": 5}, {"lenght_m": 5, "coupling": 1.0}, {"n_atom": 10}])
    def test_unknown_key_is_named(self, tmp_path, capsys, extra):
        # a misspelt key was ignored, and the preset's default or another key used in its place
        spec = tmp_path / "medium.json"
        spec.write_text(json.dumps({"length_m": 2e-4, "n_atoms": 100000, "coupling_rad_s": 2.91e8, **extra}))
        assert main(["params", "--medium", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: medium file {str(spec)!r}: unknown key {next(iter(extra))!r}\n"

    @pytest.mark.parametrize("text,key", [
        ('{"length_m": 2e-4, "length_m": 3e-4, "n_atoms": 100000, "coupling_rad_s": 2.91e8}', "length_m"),
        ('{"length_m": 2e-4, "n_atoms": 100000, "coupling_rad_s": 2.91e8, "n_atoms": 100000}', "n_atoms"),
    ], ids=["different-value", "same-value"])
    def test_repeated_key_is_named(self, tmp_path, capsys, text, key):
        # json.loads kept the last value, so the run silently used 3e-4
        spec = tmp_path / "medium.json"
        spec.write_text(text)
        assert main(["params", "--medium", str(spec)]) == 2
        assert capsys.readouterr() == ("", f"error: medium file {str(spec)!r}: repeated key {key!r}\n")

    def test_margin_past_the_float_range_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "medium.json"
        spec.write_text('{"length_m": 1e-10, "n_atoms": 100000, "coupling_rad_s": 2.91e8, "relaxation_s": 1e300}')
        assert main(["params", "--medium", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: medium parameters put the detuning or a derived quantity out of floating-point range\n"
        )

    def test_angle_past_the_float_range_exits_2(self, tmp_path, capsys):
        # every feasibility number is finite, but lambda * N * T rounds to inf
        spec, out = tmp_path / "medium.json", tmp_path / "params.json"
        spec.write_text('{"length_m": 1e-300, "n_atoms": 100000, "coupling_rad_s": 2.91e8}')
        assert main(["params", "--medium", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: medium parameters put the angle lambda * n_atoms * transit time out of floating-point range\n"
        )
        assert not out.exists()

    def test_underflowing_transit_time_is_named(self, tmp_path, capsys):
        spec = tmp_path / "medium.json"
        spec.write_text('{"length_m": 5e-324, "n_atoms": 100000, "coupling_rad_s": 2.91e8}')
        assert main(["params", "--medium", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: length_m 5e-324 is so small that the transit time underflows to 0\n"
        )

    @pytest.mark.parametrize("name, data, message", [
        ("deep.json", b"[" * 100_000, "is not JSON: maximum recursion depth exceeded"),
        ("deep.json", b'{"length_m": ' + b"[" * 1000 + b"]" * 1000 + b"}",
         "is not JSON: maximum recursion depth exceeded"),
        ("latin1.json", '{"note": "café"}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["nested-array", "nested-value", "latin-1"])
    def test_unparsable_medium_file_is_named(self, tmp_path, capsys, name, data, message):
        # nesting past the recursion limit, or bytes that are not UTF-8, is a bad file like any other
        spec = tmp_path / name
        spec.write_bytes(data)
        assert main(["params", "--medium", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and repr(str(spec)) in captured.err and message in captured.err

    def test_directory_medium_exits_2(self, tmp_path, capsys):
        assert main(["params", "--medium", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_medium_exits_2(self):
        assert main(["params", "--medium", "does-not-exist"]) == 2


class TestSampleCommand:
    def test_deterministic_function_counts(self, tmp_path):
        out = tmp_path / "sample.json"
        code = main([
            "sample", "--function", "f7", "--mode", "paper",
            "--shots", "200", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        entry = read_report(out)["results"][0]
        assert entry["coincidences"] == {"HD1+HD2": 200}
        assert entry["empirical_classification_rate"] == pytest.approx(1.0)

    def test_constant_function_clicks_vertical(self, tmp_path):
        out = tmp_path / "sample.json"
        main(["sample", "--function", "f1", "--mode", "paper",
              "--shots", "100", "--seed", "4", "--out", str(out)])
        entry = read_report(out)["results"][0]
        assert entry["coincidences"] == {"VD1+VD2": 100}

    def test_same_seed_is_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["sample", "--function", "f3", "--mode", "exact", "--shots", "500", "--seed", "11"]
        main(args + ["--out", str(out_a)])
        main(args + ["--out", str(out_b)])
        a, b = read_report(out_a), read_report(out_b)
        assert a["results"] == b["results"]

    def test_zero_shots_rejected(self, capsys):
        assert main(["sample", "--function", "f3", "--shots", "0"]) == 2
        assert "shots" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["sample", "--function", "f3", "--shots", "10", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err


class TestGoldenCounts:
    """Counts pinned from the binary-search sampler; any sampler change that moves one fails here."""

    BALANCED_EXACT = {"00": 24975, "01": 25052, "10": 24973, "11": 25000}
    SAMPLE_PAPER = {"f1": "11", "f2": "11", "f3": "01", "f4": "01", "f5": "10", "f6": "10", "f7": "00", "f8": "00"}

    def _counts(self, tmp_path, argv):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        return {e["function"]: e["counts"] for e in read_report(out)["results"]}

    def test_sample_exact(self, tmp_path):
        counts = self._counts(tmp_path, ["sample", "--function", "all", "--mode", "exact",
                                         "--shots", "100000", "--seed", "7"])
        expected = {fid: {"11": 100000} for fid in ("f1", "f2")}
        expected.update({f"f{i}": self.BALANCED_EXACT for i in range(3, 9)})
        assert counts == expected

    def test_sample_paper(self, tmp_path):
        counts = self._counts(tmp_path, ["sample", "--function", "all", "--mode", "paper",
                                         "--shots", "100000", "--seed", "7"])
        assert counts == {fid: {pattern: 100000} for fid, pattern in self.SAMPLE_PAPER.items()}

    def test_run_exact_with_shots(self, tmp_path):
        counts = self._counts(tmp_path, ["run", "--function", "all", "--mode", "exact",
                                         "--shots", "1000", "--seed", "3"])
        constant = {"00": 0, "01": 0, "10": 0, "11": 1000}
        balanced = {"00": 278, "01": 214, "10": 274, "11": 234}
        assert counts == {f"f{i}": constant if i <= 2 else balanced for i in range(1, 9)}


class TestOneDrawPerCommand:
    """A command replays each distinct oracle once and draws the seed's stream once for all its
    functions, and each entry is its own command's."""

    SAMPLED = ["--shots", "1000", "--seed", "5"]
    # f and its complement share an oracle: f1, f2 and the three balanced pairs
    DISTINCT_ORACLES = 5

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("argv", [
        ["sample", *SAMPLED],
        ["run", *SAMPLED],
        ["trace"],
        ["run", "--n-atoms-oracle", "5"],
    ], ids=["sample", "run", "trace", "run-oracle"])
    def test_each_entry_equals_its_own_command(self, tmp_path, capsys, argv, mode):
        def results(function):
            out = tmp_path / f"{function}.json"
            assert main([*argv, "--function", function, "--mode", mode, "--out", str(out)]) == 0
            return read_report(out)["results"]

        every = results("all")
        assert [e["function"] for e in every] == [f"f{i}" for i in range(1, 9)]
        for e in every:
            assert results(e["function"]) == [e]

    @pytest.mark.parametrize("command", ["sample", "run"])
    def test_one_sampler_call_for_every_function(self, monkeypatch, capsys, command):
        calls = []

        def counted(dists, shots, seed):
            calls.append(len(dists))
            return sample_shots(dists, shots, seed)

        monkeypatch.setattr(cli, "sample_shots", counted)
        assert main([command, *self.SAMPLED, "--function", "all"]) == 0
        assert calls == [self.DISTINCT_ORACLES]

    # each group is replayed by its first member
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("function, replayed", [("all", ["f1", "f2", "f3", "f5", "f7"]), ("f4", ["f4"])],
                             ids=["all", "f4"])
    @pytest.mark.parametrize("argv", [["sample", *SAMPLED], ["run"], ["trace"]], ids=["sample", "run", "trace"])
    def test_one_replay_per_distinct_oracle(self, monkeypatch, capsys, argv, function, replayed, mode):
        calls = []

        def counted(f, *args, **kwargs):
            calls.append(f.id)
            return run_protocol(f, *args, **kwargs)

        monkeypatch.setattr(cli, "run_protocol", counted)
        assert main([*argv, "--function", function, "--mode", mode]) == 0
        assert calls == replayed

    @pytest.mark.parametrize("mode", MODES)
    def test_each_distinct_step_applied_once(self, monkeypatch, capsys, mode):
        # replayed from scratch, f1, f2, f3, f5 and f7 embed 35 gates and take 3 medium
        # steps; each resumes from the prefix it shares with the one before: 5 + 3 + 5 + 4 + 4
        calls = []

        def counted(kind, fn):
            def call(*args):
                calls.append(kind)
                return fn(*args)

            return call

        for name, kind in (("embed_single", "gate"), ("u_eff_exact", "medium"), ("u_eff_paper", "medium")):
            monkeypatch.setattr(protocol, name, counted(kind, getattr(protocol, name)))
        assert main(["run", "--function", "all", "--mode", mode]) == 0
        assert (calls.count("gate"), calls.count("medium")) == (21, 1)

    def test_one_unreduced_replay_per_distinct_oracle(self, monkeypatch, capsys):
        calls = []

        def counted(n_atoms, *args):
            calls.append(n_atoms)
            return full_simulate_naive(n_atoms, *args)

        monkeypatch.setattr(cli, "full_simulate_naive", counted)
        assert main(["run", "--function", "all", "--mode", "exact", "--n-atoms-oracle", "5"]) == 0
        assert calls == [5] * self.DISTINCT_ORACLES


class TestShotsOption:
    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("text, shots", [("1e5", 100_000), ("2.5e3", 2_500), ("300.0", 300)])
    def test_integral_value_accepted(self, tmp_path, command, text, shots):
        out = tmp_path / "report.json"
        argv = [command, "--function", "f1", "--mode", "paper", "--seed", "7", "--out", str(out)]
        assert main(argv + ["--shots", text]) == 0
        entry = read_report(out)["results"][0]
        assert entry["counts"]["11"] == shots
        assert sum(entry["counts"].values()) == shots
        assert read_report(out)["request"]["shots"] == shots

    @pytest.mark.parametrize("command", ["run", "sample"])
    def test_float_spelling_gives_the_int_report(self, tmp_path, command):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [command, "--function", "all", "--mode", "exact", "--seed", "3"]
        assert main(argv + ["--shots", "1e3", "--out", str(out_a)]) == 0
        assert main(argv + ["--shots", "1000", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("text", [str(MAX_SHOTS + 1), "1e12"])
    def test_more_than_max_shots_exits_2_before_sampling(self, monkeypatch, capsys, command, text):
        def poisoned(*args, **kwargs):
            raise AssertionError("no shot may be drawn beyond MAX_SHOTS")

        monkeypatch.setattr(cli, "sample_shots", poisoned)
        assert main([command, "--function", "f3", "--shots", text]) == 2
        err = capsys.readouterr().err
        assert err == f"error: argument --shots: must be at most {MAX_SHOTS}, got {text!r}\n"

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("text", ["1.5", "1e-3", "nan", "inf", "-inf", "1e400", "ten", ""])
    def test_non_integral_value_exits_2(self, capsys, command, text):
        assert main([command, "--function", "f1", f"--shots={text}"]) == 2
        assert capsys.readouterr() == ("", f"error: argument --shots: invalid int value: {text!r}\n")


class TestTraceCommand:
    def test_trace_dumps_all_states(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--function", "f3", "--mode", "paper", "--out", str(out)]) == 0
        entry = read_report(out)["results"][0]
        names = [s["state"] for s in entry["states"]]
        assert names == ["psi0", "psi1", "psi1_prime", "psi1_double_prime", "psi2", "psi3"]
        for state in entry["states"]:
            assert len(state["amplitudes"]) == 8
            total = sum(re * re + im * im for re, im in state["amplitudes"])
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_seed_is_not_an_option(self, capsys):
        assert main(["trace", "--function", "f1", "--seed", "1"]) == 2
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --seed 1\n")

    def test_unknown_function_exits_2(self, capsys):
        assert main(["trace", "--function", "f9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_constant_trace_omits_primes(self, tmp_path):
        out = tmp_path / "trace.json"
        main(["trace", "--function", "f1", "--mode", "exact", "--out", str(out)])
        names = [s["state"] for s in read_report(out)["results"][0]["states"]]
        assert names == ["psi0", "psi1", "psi2", "psi3"]


class TestQuietStderr:
    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["run", "--function", "all", "--mode", "paper"],
        ["sample", "--function", "all", "--mode", "paper", "--shots", "1000"],
        ["trace", "--function", "all", "--mode", "paper"],
    ], ids=["verify", "run", "sample", "trace"])
    def test_a_normal_run_writes_nothing_to_stderr(self, argv):
        # a fresh process, whose root logger has no handler that pytest put there
        src = str(Path(djensemble.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "djensemble", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout

    def test_main_leaves_the_root_logger_alone(self, monkeypatch):
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])
        assert main(["run", "--function", "f3", "--mode", "paper"]) == 0
        assert root.handlers == []


class TestParserReuse:
    def test_no_values_carry_over_between_calls(self, tmp_path, capsys):
        # main builds its parser once per process; four calls through it must
        # each see only their own argv
        def run(argv, name):
            out = tmp_path / f"{name}.json"
            assert main(argv + ["--out", str(out)]) == 0
            return read_report(out)

        bad = ["run", "--function", "f3", "--shots", "lots"]
        assert main(bad) == 2
        bad_err = capsys.readouterr().err
        assert bad_err == "error: argument --shots: invalid int value: 'lots'\n"

        good = run(["run", "--function", "f3", "--mode", "exact", "--shots", "5", "--seed", "3"], "good")
        assert good["request"] == {"function": "f3", "mode": "exact", "shots": 5, "seed": 3}
        oracle_argv = ["run", "--function", "f5", "--n-atoms-oracle", "3"]
        oracle = run(oracle_argv, "oracle")
        assert oracle["request"] == {"function": "f5", "mode": "paper", "shots": 0, "seed": 0}
        assert oracle["results"][0]["oracle"]["n_atoms"] == 3
        assert "counts" not in oracle["results"][0]
        plain_argv = ["run", "--function", "f5"]
        plain = run(plain_argv, "plain")
        assert "oracle" not in plain["results"][0]

        # a parser built afresh gives the same error and the same reports
        cli.build_parser.cache_clear()
        assert main(bad) == 2
        assert capsys.readouterr().err == bad_err
        assert run(oracle_argv, "oracle-fresh") == oracle
        assert run(plain_argv, "plain-fresh") == plain


class TestRefusals:
    """``main`` returns 2 for any command line the parser refuses, with one
    ``error:`` line that names the option and nothing on stdout; help still exits 0."""

    @pytest.mark.parametrize("argv, named", [
        (["sample", "--function", "f3"], "the following arguments are required: --shots"),
        (["run"], "the following arguments are required: --function"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["run", "--function", "f3", "--n-atoms-oracle", "x"], "argument --n-atoms-oracle: invalid int value: 'x'"),
        (["run", "--function", "f3", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["sample-without-shots", "run-without-function", "no-command", "unknown-command",
            "oracle-not-a-number", "unknown-option"])
    def test_refusal_is_one_error_line(self, capsys, argv, named):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {named}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["-h"], ["run", "--help"]], ids=["-h", "run --help"])
    def test_help_exits_0_with_the_help_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: djensemble{' run' if argv[0] == 'run' else ''} ") and err == ""


def _parser_options():
    """Each subcommand of the CLI parser with its (option, required) pairs, help left out."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(a.option_strings[0], a.required) for a in p._actions
               if not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }


def mixed(valid, invalid):
    """A valid draw three times in four, an invalid one otherwise."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


SUBCOMMAND_OPTIONS = _parser_options()
# Value tokens per option; "<dir>" and "<medium>" stand for the example's
# scratch directory and the medium file written there.
OPTION_VALUES = {
    "--function": mixed(st.sampled_from(["f1", "f3", "f6", "f8", "all"]), st.sampled_from(["f9", "F3", ""])),
    "--mode": mixed(st.sampled_from(MODES), st.just("bogus")),
    "--seed": mixed(st.integers(0, 2**64).map(str), st.sampled_from(["-1", "-3", "x", "1.5"])),
    "--shots": mixed(
        st.one_of(st.integers(1, 10**4).map(str), st.sampled_from(["1e4", "2.5e3"])),
        st.sampled_from(["0", "-10", "1.5", "-1e2", "nan", "inf", "1e12", "lots"]),
    ),
    "--n-atoms-oracle": mixed(st.integers(1, 4).map(str), st.sampled_from(["-1", "0", "13", "x"])),
    "--out": mixed(
        st.just("<dir>/report.json"), st.sampled_from(["<dir>", "<dir>/missing/report.json", ""])
    ),
    "--medium": mixed(st.sampled_from(["cs-cell", "rb-mot", "<medium>"]), st.sampled_from(["nope", "<dir>"])),
}
assert set(OPTION_VALUES) == {o for opts in SUBCOMMAND_OPTIONS.values() for o, _ in opts}

_any_json = st.one_of(
    st.floats(), st.integers(-(10**400), 10**400), st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
_VALID_MEDIUM = st.fixed_dictionaries(
    {"length_m": st.floats(1e-6, 1.0), "n_atoms": st.integers(1, 10**7),
     "coupling_rad_s": st.floats(1e3, 1e10)},
    optional={"relaxation_s": st.floats(1e-9, 1.0)},
)


def _key_named_twice(medium: dict) -> st.SearchStrategy:
    """The medium's JSON text with one of its keys written a second time, with the same value."""
    return st.sampled_from(sorted(medium)).map(
        lambda key: f"{json.dumps(medium)[:-1]}, {json.dumps(key)}: {json.dumps(medium[key])}}}"
    )


# Medium file contents, as bytes.
MEDIUM_BLOBS = mixed(
    _VALID_MEDIUM.map(lambda medium: json.dumps(medium).encode()),
    st.one_of(
        st.dictionaries(
            st.sampled_from(["length_m", "n_atoms", "coupling_rad_s", "relaxation_s", "extra"]),
            _any_json, max_size=5,
        ).map(json.dumps).map(str.encode),
        st.lists(_any_json, max_size=3).map(json.dumps).map(str.encode),
        st.sampled_from([b"", b"{", b"length_m = 2e-4", b"null"]),
        _VALID_MEDIUM.flatmap(_key_named_twice).map(str.encode),
        # nesting past the interpreter's recursion limit
        st.sampled_from([b"[" * 100_000, b'{"length_m": ' * 100_000]),
        # not UTF-8: a medium saved as UTF-16, or a 0xff byte, which UTF-8 never uses
        _VALID_MEDIUM.map(lambda medium: json.dumps(medium).encode("utf-16")),
        st.binary(max_size=8).map(lambda raw: b"\xff" + raw),
    ),
)


def _names_a_key_twice(blob: bytes) -> bool:
    """Whether ``blob`` is JSON that names some key twice in one object."""
    repeated = False

    def note(pairs):
        nonlocal repeated
        repeated |= len(dict(pairs)) < len(pairs)
        return {}

    try:
        json.loads(blob, object_pairs_hook=note)
    except (ValueError, RecursionError):
        return False
    return repeated


@st.composite
def fuzzed_argv(draw):
    """A subcommand (or a bogus one) and a shuffled subset of its options with drawn values."""
    command = draw(mixed(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)), st.just("bogus")))
    argv = [command]
    for option, required in draw(st.permutations(SUBCOMMAND_OPTIONS.get(command, []))):
        # a required option is left out one time in ten, any other one time in two
        if draw(st.integers(0, 9)) if required else draw(st.booleans()):
            argv += [option, draw(OPTION_VALUES[option])]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "--out", "-1"])))
    return argv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=fuzzed_argv(), blob=MEDIUM_BLOBS)
def test_fuzzed_argv_ends_in_a_known_exit(tmp_path_factory, argv, blob):
    """Any argv built from the parser's own options returns 0, 1 (verify only) or 2
    with one error line and nothing on stdout; nothing escapes ``main``."""
    where = tmp_path_factory.mktemp("fuzz")
    (where / "medium.json").write_bytes(blob)
    argv = [t.replace("<dir>", str(where)).replace("<medium>", str(where / "medium.json")) for t in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert out.getvalue() == "", argv
    report = where / "report.json"
    if code in (0, 1) and str(report) in argv:
        def no_constant(name):
            raise AssertionError(f"{name} in the report of {argv}")

        json.loads(report.read_text(encoding="utf-8"), parse_constant=no_constant)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blob=MEDIUM_BLOBS)
def test_any_medium_file_ends_in_a_report_or_one_error_line(tmp_path_factory, blob):
    """``params`` reads any medium file to exit 0, or to exit 2 with one error
    line; a file that names a key twice is never read as its last value."""
    medium = tmp_path_factory.mktemp("medium") / "medium.json"
    medium.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["params", "--medium", str(medium)])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert code == 2 or not _names_a_key_twice(blob)
