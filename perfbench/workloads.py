"""Seeded workload inputs and the untraced passes that run them.

Each workload turns the benchmark seed into one experiment config (a plain
JSON dict), which is all the program receives.  A pass drives the package's
own pipeline functions exactly as a user would and returns what they
produced; checking the outputs is left to `checks`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entspread.cli import run_analytic, run_fit, run_simulate, run_sweep, run_verify

# ensemble.base_seed of configs/fig1_desk.json: at this seed desk_serial is
# realization 0 of the committed desk ensemble.
DEFAULT_SEED = 20260810

WORKLOADS = ("desk_serial", "budget_sweep", "ordered_pipeline")

DESK_SITES = 8001
# Smallest chain that reflection_budget_exceeded admits for t_end = 1000 and
# a 101-site core: 2*1000 + 101 <= (4223 - 1)/2 - 10.
SWEEP_SITES = 4223
SWEEP_REALIZATIONS = 2
SWEEP_JOBS = 2
DESK_CORE = {"mode": "jz_coupling", "half_width": 50, "low": 0.0, "high": 2.5, "diag_sign": "plus"}
DESK_TIMES = {"t_start": 0.0, "t_end": 1000.0, "num_samples": 4001, "spacing": "linear"}

FIT_WINDOW_DISORDERED = (200.0, 1000.0)  # run_sweep's default t_end/5 : t_end
FIT_WINDOW_ORDERED = (100.0, 500.0)  # criterion 08


def make_config(workload: str, seed: int) -> dict:
    """Raw experiment config for one workload; a pure function of the seed."""
    if workload == "desk_serial":
        chain = {"num_sites": DESK_SITES, "gamma": 1.0, "disorder": dict(DESK_CORE)}
        times, ensemble = dict(DESK_TIMES), {"num_realizations": 1, "base_seed": seed}
    elif workload == "budget_sweep":
        chain = {"num_sites": SWEEP_SITES, "gamma": 1.0, "disorder": dict(DESK_CORE)}
        times = dict(DESK_TIMES)
        ensemble = {"num_realizations": SWEEP_REALIZATIONS, "base_seed": seed}
    elif workload == "ordered_pipeline":
        # An ordered chain draws no disorder, so the seed shifts the grid
        # [0.25, 1000] by up to a quarter time unit instead; the work is unchanged.
        t_start = 0.25 * (1.0 + float(np.random.default_rng(seed).uniform()))
        chain = {"num_sites": DESK_SITES, "gamma": 1.0}
        times = {"t_start": t_start, "t_end": t_start + 999.75, "num_samples": 4001, "spacing": "linear"}
        ensemble = {"num_realizations": 1, "base_seed": seed}
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return {
        "schema_version": 1,
        "description": f"perfbench {workload} seed {seed}",
        "chain": chain,
        "times": times,
        "ensemble": ensemble,
        "outputs": {"directory": "unused", "formats": ["csv", "json"]},
    }


def write_config(workload: str, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.json"
    path.write_text(json.dumps(make_config(workload, seed), indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class PassOutput:
    """What one pass produced, for the checks and the cli-layer metrics."""

    out_dir: Path
    csv_paths: dict[int, Path]  # by realization index
    manifest: dict | None
    aggregate: dict | None = None
    verify: dict | None = None
    exponents: dict[int, float] = field(default_factory=dict)


def _csv_paths(out_dir: Path, manifest: dict) -> dict[int, Path]:
    return {r["index"]: out_dir / r["csv"] for r in manifest["realizations"]}


def run_pass(workload: str, config, out_dir: Path) -> PassOutput:
    """One untraced pass through the package's pipeline functions."""
    if workload == "desk_serial":
        manifest = run_simulate(config, out_dir, jobs=1)
        return PassOutput(out_dir, _csv_paths(out_dir, manifest), manifest)
    if workload == "budget_sweep":
        aggregate = run_sweep(config, out_dir, window=FIT_WINDOW_DISORDERED, jobs=SWEEP_JOBS)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return PassOutput(
            out_dir,
            _csv_paths(out_dir, manifest),
            manifest,
            aggregate=aggregate,
            exponents={e["index"]: e["exponent"] for e in aggregate["realizations"]},
        )
    manifest = run_analytic(config, out_dir)
    csv = out_dir / manifest["realizations"][0]["csv"]
    verify = run_verify(csv_path=csv)
    fit = run_fit([csv], FIT_WINDOW_ORDERED)
    return PassOutput(
        out_dir,
        {0: csv},
        manifest,
        verify=verify,
        exponents={0: fit["realizations"][0]["exponent"]},
    )
