"""Serialization tests: Measurement <-> dict must be an exact round-trip."""

import json

import pytest

from repro.engine import measurement_from_dict, measurement_to_dict
from repro.engine.serialize import EncodedOptions
from repro.launcher import LauncherOptions


class TestMeasurementRoundTrip:
    def test_exact_round_trip(self, launcher, movaps_u8, fast_options):
        m = launcher.run(movaps_u8, fast_options)
        assert measurement_from_dict(measurement_to_dict(m)) == m

    def test_survives_json(self, launcher, movaps_u8, fast_options):
        """The cache stores JSON text; floats must come back bit-exact."""
        m = launcher.run(movaps_u8, fast_options)
        over_the_wire = json.loads(json.dumps(measurement_to_dict(m)))
        assert measurement_from_dict(over_the_wire) == m

    def test_unknown_field_rejected(self, launcher, movaps_u8, fast_options):
        data = measurement_to_dict(launcher.run(movaps_u8, fast_options))
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown measurement fields"):
            measurement_from_dict(data)

    def test_forked_measurement_round_trips(self, launcher, movaps_u8, fast_options):
        result = launcher.run_forked(movaps_u8, fast_options.with_(n_cores=2))
        for m in result.per_core:
            assert measurement_from_dict(measurement_to_dict(m)) == m


def _options_dict(options: LauncherOptions) -> dict:
    return json.loads(EncodedOptions(options).json())


class TestOptionsEncoding:
    def test_json_safe(self):
        options = LauncherOptions(alignments=(0, 64), frequency_ghz=2.67)
        data = _options_dict(options)
        assert data["alignments"] == [0, 64]
        assert data["frequency_ghz"] == 2.67

    def test_covers_every_field(self):
        """Every field serializes — except adaptive knobs at defaults.

        The encoding feeds ``options_digest`` (job ids, derived noise
        seeds); knobs added after the format froze stay out of it until
        changed, so pre-existing caches and fixed-count output bytes
        survive the feature's introduction.
        """
        import dataclasses

        adaptive = {"rciw_target", "min_experiments", "max_experiments", "batch_size"}
        data = _options_dict(LauncherOptions())
        assert set(data) == {
            f.name for f in dataclasses.fields(LauncherOptions)
        } - adaptive

    def test_adaptive_fields_serialize_when_changed(self):
        data = _options_dict(LauncherOptions(rciw_target=0.02, max_experiments=128))
        assert data["rciw_target"] == 0.02
        assert data["max_experiments"] == 128
        assert "min_experiments" not in data  # still at its default
