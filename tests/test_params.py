import dataclasses
import json
import math

import numpy as np
import pytest

from djensemble.cli import main
from djensemble.ensemble import is_quarter_turn
from djensemble.params import (
    PRESETS,
    MediumSpec,
    ensemble_config_from_report,
    required_detuning,
    transit_time,
)
from djensemble.protocol import MODES, run_protocol, table1_functions


class TestTransitTime:
    def test_cesium_cell_length(self):
        assert transit_time(200e-6) == pytest.approx(6.67e-13, rel=0.005)

    def test_rubidium_trap_diameter(self):
        assert transit_time(0.5e-3) == pytest.approx(1.67e-12, rel=0.005)

    def test_light_second(self):
        assert transit_time(2.99792458e8) == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            transit_time(0.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf, 0, -1])
    def test_non_finite_or_non_positive_length_is_named(self, length):
        rule = "positive" if math.isfinite(length) else "finite"
        with pytest.raises(ValueError, match=f"^length_m must be {rule}, got {float(length)!r}$"):
            transit_time(length)

    def test_underflowing_transit_time_is_named(self):
        # 5e-324 m over c divides to 0.0, which no transit time may be
        with pytest.raises(ValueError, match="^length_m 5e-324 .*underflows to 0$"):
            transit_time(5e-324)


class TestRequiredDetuning:
    def test_cesium_preset_numbers(self):
        report = required_detuning(PRESETS["cs-cell"])
        assert report.detuning_over_coupling == pytest.approx(12.35, abs=0.05)
        assert report.detuning_rad_s == pytest.approx(3.59e9, rel=0.01)
        assert report.dispersive_ok

    def test_rubidium_preset_numbers(self):
        report = required_detuning(PRESETS["rb-mot"])
        assert 9.0 <= report.detuning_over_coupling <= 9.5
        assert report.dispersive_ok

    def test_cesium_decoherence_margin(self):
        report = required_detuning(PRESETS["cs-cell"])
        assert report.decoherence_margin == pytest.approx(1.5e6, rel=0.01)
        assert report.decoherence_ok

    @pytest.mark.parametrize("margin,ok", [(0.99e3, False), (1.01e3, True)])
    def test_decoherence_threshold_is_a_thousand_transit_times(self, margin, ok):
        spec = PRESETS["cs-cell"]
        spec = dataclasses.replace(spec, relaxation_s=margin * transit_time(spec.length_m))
        report = required_detuning(spec)
        assert report.decoherence_margin == pytest.approx(margin, rel=1e-12)
        assert report.decoherence_ok is ok

    def test_detuning_scales_quadratically_in_coupling(self):
        rng = np.random.default_rng(17)
        base = MediumSpec(1e-4, 1000, 1e6)
        base_report = required_detuning(base)
        for s in rng.uniform(0.5, 3.0, size=10):
            scaled = MediumSpec(1e-4, 1000, s * 1e6)
            report = required_detuning(scaled)
            assert report.detuning_rad_s == pytest.approx(s**2 * base_report.detuning_rad_s, rel=1e-12)

    def test_marginal_media_are_flagged(self):
        # tiny ensemble: detuning collapses below the dispersive threshold
        report = required_detuning(MediumSpec(1e-6, 10, 1e6))
        assert not report.dispersive_ok
        assert report.notes

    def test_report_serializes(self):
        payload = dataclasses.asdict(required_detuning(PRESETS["cs-cell"]))
        assert payload["detuning_cyclic_hz"] == pytest.approx(payload["detuning_rad_s"] / (2 * math.pi))

    def test_real_fields_are_stored_as_floats(self):
        spec = MediumSpec(length_m=1, n_atoms=10, coupling_rad_s=2, relaxation_s=3)
        assert [type(v) for v in dataclasses.astuple(spec)] == [float, int, float, float]
        assert dataclasses.astuple(spec) == (1.0, 10, 2.0, 3.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MediumSpec(0.0, 10, 1e6)
        with pytest.raises(ValueError):
            MediumSpec(1e-4, 10, -1e6)
        with pytest.raises(ValueError, match="finite"):
            MediumSpec(math.nan, 10, 1e6)
        with pytest.raises(ValueError, match="finite"):
            MediumSpec(1e-4, 10, 1e6, relaxation_s=math.inf)
        with pytest.raises(ValueError, match="integer"):
            MediumSpec(1e-4, 1.7, 1e6)
        with pytest.raises(ValueError, match="^n_atoms must be a real number, got True$"):
            MediumSpec(1e-4, True, 1e6)
        # past the float range: a ValueError naming the field, not a bare OverflowError
        with pytest.raises(ValueError, match="n_atoms must be at most"):
            MediumSpec(1e-4, 10**400, 1e6)
        with pytest.raises(ValueError, match=r"^n_atoms must be at most 1\.798e\+308 in magnitude, the largest float$"):
            MediumSpec(1e-4, -(10**400), 1e6)
        # each bad field is named
        with pytest.raises(ValueError, match="^coupling_rad_s must be finite, got inf$"):
            MediumSpec(1e-4, 10, math.inf)
        with pytest.raises(ValueError, match="floating-point range"):
            required_detuning(MediumSpec(1e-4, 10, 1e200))
        with pytest.raises(ValueError, match="floating-point range"):
            required_detuning(MediumSpec(1e-4, 10, 1e-200))

    def test_margin_past_the_float_range_is_named(self):
        # no step overflows with an exception: relaxation / transit time rounds to inf
        spec = MediumSpec(length_m=1e-10, n_atoms=100000, coupling_rad_s=2.91e8, relaxation_s=1e300)
        with pytest.raises(ValueError, match="^medium parameters put the detuning or a derived quantity "
                                             "out of floating-point range$"):
            required_detuning(spec)

    @pytest.mark.parametrize(
        "field,value",
        [("length_m", "2e-4"), ("length_m", None), ("n_atoms", "10"), ("coupling_rad_s", 2.91e8 + 0j),
         ("relaxation_s", [1e-6]), ("length_m", True), ("coupling_rad_s", True), ("relaxation_s", False)],
        ids=["string", "none", "string-count", "complex", "list", "bool-length", "bool-coupling", "bool-relaxation"],
    )
    def test_non_number_is_named(self, field, value):
        values = {"length_m": 2e-4, "n_atoms": 10, "coupling_rad_s": 2.91e8, "relaxation_s": 1e-6, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
            MediumSpec(**values)


class TestRoundTrip:
    """``ensemble_config_from_report`` is the medium angle theta = lambda * N * T that the protocol takes."""

    @pytest.mark.parametrize("preset", ["cs-cell", "rb-mot"])
    def test_quarter_turn_round_trip(self, preset):
        spec = PRESETS[preset]
        report = required_detuning(spec)
        theta = ensemble_config_from_report(spec, report)
        assert theta == report.lambda_rad_s * spec.n_atoms * report.transit_time_s
        assert is_quarter_turn(theta)

    def test_cesium_cell_is_exactly_the_quarter_turn(self):
        spec = PRESETS["cs-cell"]
        assert ensemble_config_from_report(spec, required_detuning(spec)) == math.pi / 2

    def test_rubidium_trap_is_within_two_ulp_of_the_quarter_turn(self):
        # it reads 1.5707963267948968, one ulp above pi/2
        spec = PRESETS["rb-mot"]
        theta = ensemble_config_from_report(spec, required_detuning(spec))
        assert abs(theta - math.pi / 2) <= 2 * math.ulp(math.pi / 2)

    @pytest.mark.parametrize("preset", ["cs-cell", "rb-mot"])
    def test_params_report_angle_is_the_protocols(self, preset, tmp_path):
        out = tmp_path / "params.json"
        assert main(["params", "--medium", preset, "--out", str(out)]) == 0
        spec = PRESETS[preset]
        theta = ensemble_config_from_report(spec, required_detuning(spec))
        assert json.loads(out.read_text())["evolution_angle"] == theta

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("preset", ["cs-cell", "rb-mot"])
    def test_protocol_at_the_preset_angle_matches_the_quarter_turn(self, preset, mode):
        spec = PRESETS[preset]
        theta = ensemble_config_from_report(spec, required_detuning(spec))
        for f in table1_functions():
            expected = run_protocol(f, mode, math.pi / 2).distribution()
            assert run_protocol(f, mode, theta).distribution() == pytest.approx(expected, rel=0, abs=1e-12)

    def test_angle_past_the_float_range_is_named(self):
        # a transit time near underflow: the report's numbers are finite, but
        # lambda * N rounds to inf
        spec = MediumSpec(length_m=1e-300, n_atoms=100000, coupling_rad_s=2.91e8)
        report = required_detuning(spec)
        with pytest.raises(ValueError, match="^medium parameters put the angle lambda \\* n_atoms \\* transit time "
                                             "out of floating-point range$"):
            ensemble_config_from_report(spec, report)
