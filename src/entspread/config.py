"""Experiment configuration: versioned JSON schema with fail-fast validation.

Unknown keys are rejected at every level so typos never silently fall back to
defaults.  Validation errors carry the dotted field path for the CLI to echo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .chain import DIAG_SIGNS, DISORDER_MODES, ChainSpec, DisorderSpec

SCHEMA_VERSION = 1
SPACINGS = ("linear", "log")
OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration; `where` is the dotted path of the offending field."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class TimesSpec:
    t_start: float
    t_end: float
    num_samples: int
    spacing: str = "linear"

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.t_start, self.t_end, self.num_samples)
        return np.linspace(self.t_start, self.t_end, self.num_samples)


@dataclass(frozen=True)
class EnsembleSpec:
    num_realizations: int = 1
    base_seed: int = 0


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "runs/out"
    formats: tuple[str, ...] = OUTPUT_FORMATS


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainSpec
    times: TimesSpec
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    outputs: OutputSpec = field(default_factory=OutputSpec)
    description: str = ""


def _require_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(where, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(where, f"unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(where, f"missing required keys {missing}")


def _number(obj: dict, where: str, key: str, default=None) -> float:
    value = obj.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _integer(obj: dict, where: str, key: str, default=None) -> int:
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}", f"expected an integer, got {value!r}")
    return value


def _string(obj: dict, where: str, key: str, default=None) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key}", f"expected a string, got {value!r}")
    return value


def _parse_disorder(obj: dict, where: str, seed: int) -> DisorderSpec:
    _require_keys(obj, where, (), ("mode", "half_width", "low", "high", "diag_sign"))
    mode = _string(obj, where, "mode", "jz_coupling")
    if mode not in DISORDER_MODES:
        raise ConfigError(f"{where}.mode", f"expected one of {DISORDER_MODES}, got {mode!r}")
    diag_sign = _string(obj, where, "diag_sign", "plus")
    if diag_sign not in DIAG_SIGNS:
        raise ConfigError(f"{where}.diag_sign", f"expected one of {DIAG_SIGNS}, got {diag_sign!r}")
    try:
        return DisorderSpec(
            mode=mode,
            half_width=_integer(obj, where, "half_width", 0),
            low=_number(obj, where, "low", 0.0),
            high=_number(obj, where, "high", 0.0),
            seed=seed,
            diag_sign=diag_sign,
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_chain(obj: dict, where: str, seed: int) -> ChainSpec:
    _require_keys(obj, where, ("num_sites",), ("gamma", "disorder"))
    disorder = _parse_disorder(obj.get("disorder", {}), f"{where}.disorder", seed)
    try:
        return ChainSpec(
            num_sites=_integer(obj, where, "num_sites"),
            gamma=_number(obj, where, "gamma", 1.0),
            disorder=disorder,
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_times(obj: dict, where: str) -> TimesSpec:
    _require_keys(obj, where, ("t_start", "t_end", "num_samples"), ("spacing",))
    t_start = _number(obj, where, "t_start")
    t_end = _number(obj, where, "t_end")
    num_samples = _integer(obj, where, "num_samples")
    spacing = _string(obj, where, "spacing", "linear")
    if spacing not in SPACINGS:
        raise ConfigError(f"{where}.spacing", f"expected one of {SPACINGS}, got {spacing!r}")
    if t_start < 0.0:
        raise ConfigError(f"{where}.t_start", f"must be >= 0, got {t_start}")
    if num_samples < 1:
        raise ConfigError(f"{where}.num_samples", f"must be >= 1, got {num_samples}")
    if num_samples == 1:
        if t_end < t_start:
            raise ConfigError(f"{where}.t_end", f"must be >= t_start, got {t_end} < {t_start}")
    elif t_end <= t_start:
        raise ConfigError(f"{where}.t_end", f"must be > t_start, got {t_end} <= {t_start}")
    if spacing == "log" and t_start <= 0.0:
        raise ConfigError(f"{where}.t_start", "log spacing requires t_start > 0")
    return TimesSpec(t_start=t_start, t_end=t_end, num_samples=num_samples, spacing=spacing)


def _parse_ensemble(obj: dict, where: str) -> EnsembleSpec:
    _require_keys(obj, where, (), ("num_realizations", "base_seed"))
    num = _integer(obj, where, "num_realizations", 1)
    seed = _integer(obj, where, "base_seed", 0)
    if num < 1:
        raise ConfigError(f"{where}.num_realizations", f"must be >= 1, got {num}")
    if seed < 0:
        raise ConfigError(f"{where}.base_seed", f"must be >= 0, got {seed}")
    return EnsembleSpec(num_realizations=num, base_seed=seed)


def _parse_outputs(obj: dict, where: str) -> OutputSpec:
    _require_keys(obj, where, (), ("directory", "formats"))
    directory = _string(obj, where, "directory", "runs/out")
    formats = obj.get("formats", list(OUTPUT_FORMATS))
    if not isinstance(formats, list) or not formats:
        raise ConfigError(f"{where}.formats", f"expected a non-empty list, got {formats!r}")
    for fmt in formats:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(f"{where}.formats", f"expected entries from {OUTPUT_FORMATS}, got {fmt!r}")
    if "csv" not in formats:
        raise ConfigError(f"{where}.formats", "must include 'csv': series CSVs are always written")
    return OutputSpec(directory=directory, formats=tuple(formats))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a raw config dict; note the disorder seed comes from ensemble.base_seed."""
    _require_keys(
        raw,
        "config",
        ("schema_version", "chain", "times"),
        ("ensemble", "outputs", "description"),
    )
    version = raw["schema_version"]
    if version != SCHEMA_VERSION:
        raise ConfigError("config.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    ensemble = _parse_ensemble(raw.get("ensemble", {}), "config.ensemble")
    chain = _parse_chain(raw["chain"], "config.chain", seed=ensemble.base_seed)
    times = _parse_times(raw["times"], "config.times")
    outputs = _parse_outputs(raw.get("outputs", {}), "config.outputs")
    description = _string(raw, "config", "description", "")
    return ExperimentConfig(
        chain=chain,
        times=times,
        ensemble=ensemble,
        outputs=outputs,
        description=description,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical dict form (round-trips through config_from_dict).

    The disorder seed is left out, because it comes from ensemble.base_seed.
    """
    out = {"schema_version": SCHEMA_VERSION, **asdict(config)}
    del out["chain"]["disorder"]["seed"]
    out["outputs"]["formats"] = list(config.outputs.formats)
    if not config.description:
        del out["description"]
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(raw)


def config_digest(config: ExperimentConfig, realization_index: int | None = None) -> str:
    """Short stable identifier of a config (and optionally one realization)."""
    payload = config_to_dict(config)
    if realization_index is not None:
        payload["realization_index"] = realization_index
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
