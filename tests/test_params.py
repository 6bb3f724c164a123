import math

import numpy as np
import pytest

from djensemble.params import (
    PRESETS,
    MediumSpec,
    ensemble_config_from_report,
    required_detuning,
    transit_time,
)


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


class TestRequiredDetuning:
    def test_cesium_preset_numbers(self):
        report = required_detuning(PRESETS["cs-cell"])
        assert report.ratio == pytest.approx(12.35, abs=0.05)
        assert report.detuning == pytest.approx(3.59e9, rel=0.01)
        assert report.dispersive_ok

    def test_rubidium_preset_numbers(self):
        report = required_detuning(PRESETS["rb-mot"])
        assert 9.0 <= report.ratio <= 9.5
        assert report.dispersive_ok

    def test_cesium_decoherence_margin(self):
        report = required_detuning(PRESETS["cs-cell"])
        assert report.decoherence_margin == pytest.approx(1.5e6, rel=0.01)
        assert report.decoherence_ok

    def test_detuning_scales_quadratically_in_coupling(self):
        rng = np.random.default_rng(17)
        base = MediumSpec(1e-4, 1000, 1e6)
        base_report = required_detuning(base)
        for s in rng.uniform(0.5, 3.0, size=10):
            scaled = MediumSpec(1e-4, 1000, s * 1e6)
            report = required_detuning(scaled)
            assert report.detuning == pytest.approx(s**2 * base_report.detuning, rel=1e-12)

    def test_marginal_media_are_flagged(self):
        # tiny ensemble: detuning collapses below the dispersive threshold
        report = required_detuning(MediumSpec(1e-6, 10, 1e6))
        assert not report.dispersive_ok
        assert report.notes

    def test_report_serializes(self):
        payload = required_detuning(PRESETS["cs-cell"]).as_dict()
        assert payload["detuning_cyclic_hz"] == pytest.approx(payload["detuning_rad_s"] / (2 * math.pi))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MediumSpec(0.0, 10, 1e6)
        with pytest.raises(ValueError):
            MediumSpec(1e-4, 10, -1e6)
        with pytest.raises(ValueError, match="finite"):
            MediumSpec(math.nan, 10, 1e6)
        with pytest.raises(ValueError, match="finite"):
            MediumSpec(1e-4, 10, 1e6, relaxation_time=math.inf)
        with pytest.raises(ValueError, match="integer"):
            MediumSpec(1e-4, 1.7, 1e6)
        with pytest.raises(ValueError, match="integer"):
            MediumSpec(1e-4, True, 1e6)
        with pytest.raises(ValueError, match="floating-point range"):
            required_detuning(MediumSpec(1e-4, 10, 1e200))
        with pytest.raises(ValueError, match="floating-point range"):
            required_detuning(MediumSpec(1e-4, 10, 1e-200))


class TestRoundTrip:
    @pytest.mark.parametrize("preset", ["cs-cell", "rb-mot"])
    def test_quarter_turn_round_trip(self, preset):
        spec = PRESETS[preset]
        report = required_detuning(spec)
        config = ensemble_config_from_report(spec, report)
        assert config.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert config.lambda_value == pytest.approx(report.lambda_value, rel=1e-12)
