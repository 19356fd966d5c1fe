import json
import math
from pathlib import Path

import numpy as np
import pytest

from entspread.chain import ChainSpec
from entspread.config import (
    SCHEMA_VERSION,
    ConfigError,
    EnsembleSpec,
    ExperimentConfig,
    OutputSpec,
    TimesSpec,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_log_grid_has_exact_ends_and_one_ratio(self):
        grid = TimesSpec(t_start=0.01, t_end=100.0, num_samples=41, spacing="log").grid()
        assert len(grid) == 41 and grid[0] == 0.01 and grid[-1] == 100.0
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, 10.0 ** 0.1, rtol=1e-13, atol=0.0)

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

    def test_integer_beyond_float_range_rejected(self):
        raw = base_config()
        raw["chain"]["gamma"] = 10**400
        with pytest.raises(ConfigError, match="config.chain.gamma: expected a number within float range"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "block, key, value",
        [("chain", "gamma", math.nan), ("chain", "gamma", math.inf), ("disorder", "low", -math.inf),
         ("disorder", "high", math.inf), ("disorder", "low", math.nan)],
    )
    def test_non_finite_chain_values_rejected(self, block, key, value):
        raw = base_config()
        target = raw["chain"] if block == "chain" else raw["chain"]["disorder"]
        target[key] = value
        with pytest.raises(ConfigError, match=r"^config\.chain\."):
            config_from_dict(raw)

    def test_disorder_range_of_infinite_width_rejected(self):
        # both ends finite, but Generator.uniform overflowed on high - low at simulate time
        raw = base_config()
        raw["chain"]["disorder"].update(low=-1e308, high=1e308)
        with pytest.raises(ConfigError, match=r"^config\.chain\.disorder\.high: need low <= high and a finite width"):
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


class TestSpecsInCode:
    """The spec dataclasses are the schema: specs built in code obey the parser's rules."""

    @pytest.mark.parametrize(
        "args",
        [
            (5.0, 1.0, 0),  # no samples
            (5.0, 1.0, 10),  # t_end before t_start
            (1.0, 1.0, 10),  # empty span for several samples
            (-1.0, 1.0, 10),
            (math.nan, 1.0, 10),
            (0.0, math.nan, 10),
            (0.0, math.inf, 10),
            (0.0, 1.0, 10, "log"),
            (1.0, 2.0, 10, "cubic"),
            (0.0, 1000.0, 1),  # one sample away from t_start
        ],
    )
    def test_bad_times_rejected(self, args):
        with pytest.raises(ConfigError):
            TimesSpec(*args)

    @pytest.mark.parametrize("args", [(0, 1), (1, -3), (1, 2**64)])
    def test_bad_ensemble_rejected(self, args):
        with pytest.raises(ConfigError):
            EnsembleSpec(*args)

    @pytest.mark.parametrize("formats", [("xml",), ("json",), (), ("csv", "xml")])
    def test_bad_output_formats_rejected(self, formats):
        with pytest.raises(ConfigError, match="formats"):
            OutputSpec(formats=formats)

    def test_base_seed_range_names_the_ensemble(self):
        raw = base_config(ensemble={"num_realizations": 1, "base_seed": 2**64})
        with pytest.raises(ConfigError, match=r"^config\.ensemble\.base_seed: "):
            config_from_dict(raw)
        raw["ensemble"]["base_seed"] = 2**64 - 1
        assert config_from_dict(raw).chain.disorder.seed == 2**64 - 1

    def test_spec_errors_carry_the_field_path(self):
        raw = base_config()
        raw["chain"]["disorder"]["half_width"] = -1
        with pytest.raises(ConfigError, match=r"^config\.chain\.disorder\.half_width: must be >= 0"):
            config_from_dict(raw)

    def test_minimal_config_takes_the_dataclass_defaults(self):
        raw = {
            "schema_version": SCHEMA_VERSION,
            "chain": {"num_sites": 11},
            "times": {"t_start": 0, "t_end": 2, "num_samples": 3},
        }
        expected = ExperimentConfig(chain=ChainSpec(num_sites=11), times=TimesSpec(0.0, 2.0, 3))
        assert config_from_dict(raw) == expected

    def test_seed_is_not_a_key(self):
        raw = base_config()
        raw["chain"]["disorder"]["seed"] = 5
        with pytest.raises(ConfigError, match="config.chain.disorder: unknown keys.*seed"):
            config_from_dict(raw)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_committed_configs_round_trip(self, name):
        config = load_config(CONFIGS / name)
        assert config_from_dict(config_to_dict(config)) == config


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

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("fig1_desk.json", "0e6146bd6cce"),
            ("fig1_full.json", "1e316ebf4904"),
            ("ordered_analytic.json", "8c5f14cd611f"),
        ],
    )
    def test_committed_config_digests_pinned(self, name, digest):
        # the digests name the committed runs in their manifests and CSV spec_digests
        assert config_digest(load_config(CONFIGS / name)) == digest

    def test_digest_stable_and_realization_sensitive(self):
        config = config_from_dict(base_config())
        assert config_digest(config) == config_digest(config)
        assert config_digest(config, 0) != config_digest(config, 1)
        assert len(config_digest(config)) == 12
