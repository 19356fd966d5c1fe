"""Experiment configuration: versioned JSON schema with fail-fast validation.

The spec dataclasses are the schema.  Their fields name the keys, their
defaults fill omitted keys, their annotations fix the JSON types, and their
`__post_init__` checks hold for specs built in code as well.  Unknown keys are
rejected at every level so typos never silently fall back to defaults.
Validation errors carry the dotted field path for the CLI to echo.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import cache
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .chain import SEED_LIMIT, ChainSpec, ConfigError

SCHEMA_VERSION = 1
SPACINGS = ("linear", "log")
OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class TimesSpec:
    t_start: float
    t_end: float
    num_samples: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.spacing not in SPACINGS:
            raise ConfigError("spacing", f"expected one of {SPACINGS}, got {self.spacing!r}")
        if not self.t_start >= 0.0:
            raise ConfigError("t_start", f"must be >= 0, got {self.t_start}")
        if self.num_samples < 1:
            raise ConfigError("num_samples", f"must be >= 1, got {self.num_samples}")
        if self.num_samples == 1 and self.t_end != self.t_start:
            raise ConfigError("t_end", f"one sample needs t_end == t_start, got {self.t_end} != {self.t_start}")
        if self.num_samples > 1 and not self.t_end > self.t_start:
            raise ConfigError("t_end", f"must be > t_start, got {self.t_end} <= {self.t_start}")
        if not math.isfinite(self.t_end):
            raise ConfigError("t_end", f"must be finite, got {self.t_end}")
        if self.spacing == "log" and self.t_start <= 0.0:
            raise ConfigError("t_start", "log spacing requires t_start > 0")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.t_start, self.t_end, self.num_samples)
        return np.linspace(self.t_start, self.t_end, self.num_samples)


@dataclass(frozen=True)
class EnsembleSpec:
    num_realizations: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if self.num_realizations < 1:
            raise ConfigError("num_realizations", f"must be >= 1, got {self.num_realizations}")
        if not 0 <= self.base_seed < SEED_LIMIT:
            raise ConfigError("base_seed", f"must lie in [0, 2**64), got {self.base_seed}")


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "runs/out"
    formats: tuple[str, ...] = OUTPUT_FORMATS

    def __post_init__(self):
        for fmt in self.formats:
            if fmt not in OUTPUT_FORMATS:
                raise ConfigError("formats", f"expected entries from {OUTPUT_FORMATS}, got {fmt!r}")
        if "csv" not in self.formats:
            raise ConfigError("formats", "must include 'csv': series CSVs are always written")


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainSpec
    times: TimesSpec
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    outputs: OutputSpec = field(default_factory=OutputSpec)
    description: str = ""


# Accepted JSON types and their name in errors, per scalar annotation.
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


_type_hints = cache(get_type_hints)  # resolving string annotations is slow


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(where, f"expected an object, got {type(raw).__name__}")
    return raw


def _value(hint, raw, where: str):
    """One field's JSON value, checked against and converted to its annotation."""
    if is_dataclass(hint):
        return _parse(hint, raw, where)
    if hint == tuple[str, ...]:
        if isinstance(raw, list) and all(isinstance(item, str) for item in raw):
            return tuple(raw)
        raise ConfigError(where, f"expected a list of strings, got {raw!r}")
    accepted, noun = _SCALARS[hint]
    if not isinstance(raw, accepted) or isinstance(raw, bool):
        raise ConfigError(where, f"expected {noun}, got {raw!r}")
    try:
        return hint(raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(where, f"expected {noun} within float range") from None


def _parse(spec: type, raw, where: str):
    """Build `spec` from a JSON object whose keys are its fields.

    Omitted keys take the field defaults; fields marked `derived` are not keys.
    """
    raw = _object(raw, where)
    keys = [f for f in fields(spec) if not f.metadata.get("derived")]
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(where, f"unknown keys {sorted(unknown)}")
    required = [f.name for f in keys if f.default is MISSING and f.default_factory is MISSING]
    missing = [name for name in required if name not in raw]
    if missing:
        raise ConfigError(where, f"missing required keys {missing}")
    hints = _type_hints(spec)
    values = {name: _value(hints[name], value, f"{where}.{name}") for name, value in raw.items()}
    try:
        return spec(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc.where}", exc.message) from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a raw config dict; note the disorder seed comes from ensemble.base_seed."""
    body = dict(_object(raw, "config"))
    if "schema_version" not in body:
        raise ConfigError("config", "missing required keys ['schema_version']")
    version = body.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("config.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    config = _parse(ExperimentConfig, body, "config")
    disorder = replace(config.chain.disorder, seed=config.ensemble.base_seed)
    return replace(config, chain=replace(config.chain, disorder=disorder))


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
