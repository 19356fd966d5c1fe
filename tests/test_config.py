import json

import pytest

from entspread.config import (
    SCHEMA_VERSION,
    ConfigError,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
)


def base_config(**overrides):
    raw = {
        "schema_version": SCHEMA_VERSION,
        "chain": {
            "num_sites": 101,
            "gamma": 1.0,
            "disorder": {
                "mode": "jz_coupling",
                "half_width": 5,
                "low": 0.0,
                "high": 2.5,
            },
        },
        "times": {"t_start": 0.0, "t_end": 10.0, "num_samples": 11},
        "ensemble": {"num_realizations": 2, "base_seed": 99},
        "outputs": {"directory": "runs/test", "formats": ["csv", "json"]},
    }
    raw.update(overrides)
    return raw


class TestSchema:
    def test_round_trip(self):
        config = config_from_dict(base_config())
        assert config.chain.num_sites == 101
        assert config.chain.disorder.seed == 99  # seed comes from ensemble.base_seed
        assert config.times.grid().shape == (11,)
        again = config_from_dict(config_to_dict(config))
        assert again == config

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo"):
            config_from_dict(base_config(typo=1))

    def test_unknown_nested_key_has_path(self):
        raw = base_config()
        raw["chain"]["disorder"]["sneaky"] = 1
        with pytest.raises(ConfigError, match="config.chain.disorder"):
            config_from_dict(raw)

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(base_config(schema_version=2))

    def test_missing_required(self):
        raw = base_config()
        del raw["times"]
        with pytest.raises(ConfigError, match="missing required"):
            config_from_dict(raw)

    def test_time_grid_validation(self):
        raw = base_config()
        raw["times"] = {"t_start": 5.0, "t_end": 1.0, "num_samples": 10}
        with pytest.raises(ConfigError, match="config.times.t_end"):
            config_from_dict(raw)
        raw["times"] = {"t_start": 0.0, "t_end": 1.0, "num_samples": 10, "spacing": "log"}
        with pytest.raises(ConfigError, match="log spacing"):
            config_from_dict(raw)

    def test_single_sample_at_fixed_time(self):
        raw = base_config()
        raw["times"] = {"t_start": 0.0, "t_end": 0.0, "num_samples": 1}
        config = config_from_dict(raw)
        assert config.times.grid().tolist() == [0.0]

    def test_type_errors_carry_field(self):
        raw = base_config()
        raw["chain"]["num_sites"] = "many"
        with pytest.raises(ConfigError, match="config.chain.num_sites"):
            config_from_dict(raw)

    def test_emission_key_rejected_as_unknown(self):
        # no command reads an emission model from a config, so the key is gone
        with pytest.raises(ConfigError, match="unknown keys.*emission"):
            config_from_dict(base_config(emission={"beta": 0.3, "tau": 2.0}))

    def test_output_formats_validated(self):
        raw = base_config()
        raw["outputs"]["formats"] = ["xml"]
        with pytest.raises(ConfigError, match="config.outputs.formats"):
            config_from_dict(raw)
        # series CSVs are always written, so a list without "csv" would misstate the outputs
        raw["outputs"]["formats"] = ["json"]
        with pytest.raises(ConfigError, match="config.outputs.formats: must include 'csv'"):
            config_from_dict(raw)

    def test_even_chain_rejected_with_path(self):
        raw = base_config()
        raw["chain"]["num_sites"] = 100
        with pytest.raises(ConfigError, match="config.chain"):
            config_from_dict(raw)


class TestLoadAndDigest:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        config = load_config(path)
        assert config.ensemble.num_realizations == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"schema_version\": 1,\n}\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_digest_stable_and_realization_sensitive(self):
        config = config_from_dict(base_config())
        assert config_digest(config) == config_digest(config)
        assert config_digest(config, 0) != config_digest(config, 1)
        assert len(config_digest(config)) == 12
