import json

import pytest

from djensemble.cli import main


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

    def test_unknown_function_exits_2(self, capsys):
        assert main(["run", "--function", "f9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_mode_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--function", "f1", "--mode", "bogus"])
        assert exc.value.code == 2

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
        assert err.startswith("error:") and err.count("\n") == 1

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

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        from djensemble import cli
        from djensemble.checks import CheckResult

        def broken():
            return [CheckResult("synthetic failure", False, 1.0, "forced by the test")]

        monkeypatch.setattr(cli, "run_all_checks", broken)
        assert main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out


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


class TestReportLayout:
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
    @pytest.mark.parametrize("text", ["1.5", "1e-3", "nan", "inf", "-inf", "1e400", "ten", ""])
    def test_non_integral_value_exits_2(self, capsys, command, text):
        with pytest.raises(SystemExit) as exc:
            main([command, "--function", "f1", f"--shots={text}"])
        assert exc.value.code == 2
        assert "--shots: invalid int value" in capsys.readouterr().err


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

    def test_seed_is_not_an_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--function", "f1", "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_function_exits_2(self, capsys):
        assert main(["trace", "--function", "f9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_constant_trace_omits_primes(self, tmp_path):
        out = tmp_path / "trace.json"
        main(["trace", "--function", "f1", "--mode", "exact", "--out", str(out)])
        names = [s["state"] for s in read_report(out)["results"][0]["states"]]
        assert names == ["psi0", "psi1", "psi2", "psi3"]
