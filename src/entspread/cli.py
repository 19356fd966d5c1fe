"""Command-line front end: simulate | analytic | fit | verify | sweep.

Every command is a deterministic function of its config and input files;
series CSVs from reruns are byte-identical.  Heavy work lives in plain
functions so tests can drive them directly, with thin click wrappers mapping
failures to exit codes (2 for config problems, 1 for failed checks or a
boundary-budget violation).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import statistics
import time as _time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    AVERAGE_WINDOW_DEFAULT,
    MomentSeries,
    fit_power_law,
    local_exponent,
    time_average,
    verify_bounds,
)
from .analytic import asymptotes_ordered, w_bounds_ordered
from .bessel import bessel_row, bessel_rows
from .chain import build_hamiltonian
from .config import (
    ConfigError,
    ExperimentConfig,
    config_digest,
    config_to_dict,
    load_config,
)
from .observables import MomentSample, moment_m
from .propagator import evolve_series, reflection_budget_exceeded
from .seriesio import (
    ANALYTIC_EXTRA_COLUMNS,
    read_series_csv,
    write_json,
    write_series_csv,
)

_ANALYTIC_CHUNK = 256

EARLY_WINDOW_START = 1.0


class BoundaryBudgetError(RuntimeError):
    """Requested evolution would let the wavefront reach the chain boundary."""


def _with_seed(config: ExperimentConfig, seed_override: int | None) -> ExperimentConfig:
    if seed_override is None:
        return config
    raw = config_to_dict(config)
    raw["ensemble"]["base_seed"] = seed_override
    from .config import config_from_dict

    return config_from_dict(raw)


def _check_budget(config: ExperimentConfig, allow_reflections: bool) -> None:
    n = config.chain.num_sites
    t_max = config.times.t_end
    half_width = config.chain.disorder.half_width
    gamma = abs(config.chain.gamma)
    if reflection_budget_exceeded(n, t_max, half_width, gamma) and not allow_reflections:
        raise BoundaryBudgetError(
            f"boundary budget violated: 2*gamma*t_end + region = "
            f"{2 * gamma * t_max + 2 * half_width + 1:g} "
            f"exceeds (N-1)/2 - 10 = {(n - 1) / 2 - 10:g}; enlarge the chain, shorten t_end, "
            "or pass --allow-reflections"
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_realization(config: ExperimentConfig, realization_index: int) -> MomentSeries:
    """Numeric moment series for one disorder realization."""
    h = build_hamiltonian(config.chain, realization_index)
    times = config.times.grid()
    half_width = config.chain.disorder.half_width
    samples = []
    for state in evolve_series(h, config.chain.origin, times, half_width):
        samples.append(moment_m(state, half_width))
    return MomentSeries(
        samples=tuple(samples),
        spec_digest=config_digest(config, realization_index),
    )


def analytic_series(config: ExperimentConfig) -> tuple[MomentSeries, dict[str, np.ndarray]]:
    """Closed-form ordered-chain moment series plus bound/asymptote columns.

    The time grid is processed in chunks of comparable argument so the
    batched recurrence stays efficient across widely different truncation
    radii.
    """
    if not config.chain.disorder.is_ordered:
        raise ConfigError("config.chain.disorder", "analytic mode requires an ordered chain")
    times = config.times.grid()
    samples: list[MomentSample] = []
    for lo in range(0, len(times), _ANALYTIC_CHUNK):
        chunk = times[lo : lo + _ANALYTIC_CHUNK]
        order_max = math.ceil(2.0 * float(chunk[-1])) + 60
        rows = bessel_rows(order_max, 2.0 * chunk)
        absrows = np.abs(rows)
        x2 = np.arange(order_max + 1, dtype=float) ** 2
        w_col = 2.0 * (absrows[:, 1:] @ x2[1:])
        alpha0_col = absrows[:, 0]
        # probability on the full chain: J_0^2 + 2 sum_k J_k^2
        norm_col = rows[:, 0] ** 2 + 2.0 * np.sum(rows[:, 1:] ** 2, axis=1)
        for k, t in enumerate(chunk):
            w = float(w_col[k])
            a0 = float(alpha0_col[k])
            m = 2.0 * a0 * w
            samples.append(
                MomentSample(
                    time=float(t),
                    m=m,
                    w=w,
                    alpha0_abs=a0,
                    m_o=m,
                    m_d=0.0,
                    norm_error=abs(1.0 - float(norm_col[k])),
                )
            )
    series = MomentSeries(samples=tuple(samples), spec_digest=config_digest(config))
    lower = np.array([w_bounds_ordered(t)[0] for t in times])
    upper = np.array([w_bounds_ordered(t)[1] for t in times])
    asym = np.array([asymptotes_ordered(t) if t > 0 else (0.0, 0.0) for t in times])
    extras = dict(zip(ANALYTIC_EXTRA_COLUMNS, (lower, upper, asym[:, 0], asym[:, 1])))
    return series, extras


def _realization_csv_path(out_dir: Path, index: int) -> Path:
    return out_dir / f"series_r{index:04d}.csv"


def _simulate_worker(raw_config: dict, realization_index: int, out_dir: str) -> dict:
    """Process-pool entry: simulate one realization and write its CSV slot."""
    from .config import config_from_dict

    config = config_from_dict(raw_config)
    started = _time.perf_counter()
    series = simulate_realization(config, realization_index)
    path = _realization_csv_path(Path(out_dir), realization_index)
    write_series_csv(path, series)
    return {
        "index": realization_index,
        "csv": path.name,
        "sha256": _sha256(path),
        "spec_digest": series.spec_digest,
        "wall_time_s": round(_time.perf_counter() - started, 3),
    }


def run_simulate(
    config: ExperimentConfig,
    out_dir: str | Path,
    allow_reflections: bool = False,
    seed_override: int | None = None,
    jobs: int = 1,
) -> dict:
    """Simulate every realization in the ensemble; returns the manifest."""
    config = _with_seed(config, seed_override)
    _check_budget(config, allow_reflections)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = config_to_dict(config)
    indices = list(range(config.ensemble.num_realizations))
    started = _time.perf_counter()
    if jobs > 1 and len(indices) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                idx: pool.submit(_simulate_worker, raw, idx, str(out_dir)) for idx in indices
            }
            # Slots are keyed by realization index, never by completion order.
            records = [futures[idx].result() for idx in indices]
    else:
        records = [_simulate_worker(raw, idx, str(out_dir)) for idx in indices]
    manifest = {
        "schema_version": 1,
        "command": "simulate",
        "package_version": __version__,
        "config": raw,
        "config_digest": config_digest(config),
        "realizations": records,
        "total_wall_time_s": round(_time.perf_counter() - started, 3),
    }
    if "json" in config.outputs.formats:
        write_json(out_dir / "manifest.json", manifest)
    return manifest


def run_analytic(
    config: ExperimentConfig, out_dir: str | Path, seed_override: int | None = None
) -> dict:
    """Write the analytic ordered-chain series; returns the manifest."""
    config = _with_seed(config, seed_override)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _time.perf_counter()
    series, extras = analytic_series(config)
    path = out_dir / "series_analytic.csv"
    write_series_csv(path, series, extras)
    manifest = {
        "schema_version": 1,
        "command": "analytic",
        "package_version": __version__,
        "config": config_to_dict(config),
        "config_digest": config_digest(config),
        "realizations": [
            {
                "index": None,
                "csv": path.name,
                "sha256": _sha256(path),
                "spec_digest": series.spec_digest,
                "wall_time_s": round(_time.perf_counter() - started, 3),
            }
        ],
        "total_wall_time_s": round(_time.perf_counter() - started, 3),
    }
    if "json" in config.outputs.formats:
        write_json(out_dir / "manifest.json", manifest)
    return manifest


def fit_series(
    series: MomentSeries,
    window: tuple[float, float],
    field_name: str = "m",
    average_window: float = AVERAGE_WINDOW_DEFAULT,
) -> dict:
    """Average, fit and scan one series; returns the per-realization report entry.

    average_window = 0 skips the smoothing pass (useful for data that is
    already smooth, where the window's curvature bias would dominate).
    """
    averaged = time_average(series, average_window) if average_window > 0 else series
    fit = fit_power_law(averaged, field_name, window)
    local = local_exponent(averaged, field_name)
    early = local[(local[:, 0] >= EARLY_WINDOW_START) & (local[:, 0] < window[0])]
    return {
        "field": field_name,
        "window": [fit.window[0], fit.window[1]],
        "average_window": average_window,
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "rms_residual": fit.rms_residual,
        "early_window": [EARLY_WINDOW_START, window[0]],
        "early_max_local_exponent": float(np.max(early[:, 1])) if len(early) else None,
    }


def run_fit(
    csv_paths: list[str | Path],
    window: tuple[float, float],
    field_name: str = "m",
    average_window: float = AVERAGE_WINDOW_DEFAULT,
) -> dict:
    """Fit every input series and aggregate ensemble exponent statistics."""
    entries = []
    for path in csv_paths:
        series = read_series_csv(path)
        entry = {"source": str(path)}
        entry.update(fit_series(series, window, field_name, average_window))
        entries.append(entry)
    exponents = [e["exponent"] for e in entries]
    report = {
        "schema_version": 1,
        "command": "fit",
        "package_version": __version__,
        "realizations": entries,
        "ensemble": {
            "count": len(exponents),
            "median_exponent": float(statistics.median(exponents)),
            "iqr_exponent": float(
                np.percentile(exponents, 75) - np.percentile(exponents, 25)
            ),
        },
    }
    return report


def _bessel_identity_checks() -> list[dict]:
    """Spot checks of the two moment identities behind the ordered-chain bounds."""
    checks = []
    for a in (2.0, 20.0, 100.0):
        row = bessel_row(int(2 * a) + 1, a).values
        worst = 0.0
        for x in range(1, int(2 * a) + 1):
            lhs = x * row[x]
            rhs = 0.5 * a * (row[x - 1] + row[x + 1])
            worst = max(worst, abs(lhs - rhs))
        checks.append(
            {"name": "recurrence_moment", "a": a, "error": worst, "tol": 1e-10, "ok": worst <= 1e-10}
        )
    # one-sided even-order sum: sum_{k>=1} (2k)^2 J_2k(a) = a^2 / 2
    for a, k_max in ((2.0, 42), (50.0, 140), (100.0, 140)):
        row = bessel_row(2 * k_max, a).values
        total = sum((2 * k) ** 2 * row[2 * k] for k in range(1, k_max + 1))
        err = abs(total - a * a / 2.0)
        checks.append(
            {"name": "even_order_sum", "a": a, "error": err, "tol": 1e-6, "ok": err <= 1e-6}
        )
    return checks


def run_verify(
    config: ExperimentConfig | None = None,
    csv_path: str | Path | None = None,
    unitarity_tol: float = 1e-8,
) -> dict:
    """Bound checks on an ordered series, identity spot checks, unitarity audit."""
    if (config is None) == (csv_path is None):
        raise ValueError("provide exactly one of config or csv_path")
    if config is not None:
        if not config.chain.disorder.is_ordered:
            raise ConfigError("config.chain.disorder", "bound verification requires an ordered chain")
        series, _ = analytic_series(config)
        source = "analytic:" + config_digest(config)
    else:
        series = read_series_csv(csv_path)
        source = str(csv_path)

    bounds = verify_bounds(series)
    max_norm_error = float(np.max(series.column("norm_error"))) if len(series) else 0.0
    identities = _bessel_identity_checks()
    report = {
        "schema_version": 1,
        "command": "verify",
        "package_version": __version__,
        "source": source,
        "bounds": {
            "samples": len(bounds.checks),
            "lower_failures": bounds.lower_failures,
            "upper_checked": bounds.upper_checked,
            "upper_failures": bounds.upper_failures,
        },
        "bessel_identities": identities,
        "unitarity": {
            "max_norm_error": max_norm_error,
            "tol": unitarity_tol,
            "ok": max_norm_error <= unitarity_tol,
        },
    }
    report["passed"] = bool(
        bounds.passed and all(c["ok"] for c in identities) and report["unitarity"]["ok"]
    )
    return report


def run_sweep(
    config: ExperimentConfig,
    out_dir: str | Path,
    window: tuple[float, float] | None = None,
    field_name: str = "m",
    average_window: float = AVERAGE_WINDOW_DEFAULT,
    jobs: int = 1,
    allow_reflections: bool = False,
    seed_override: int | None = None,
) -> dict:
    """Simulate the ensemble, fit every realization, aggregate exponent statistics.

    Individual realization failures are recorded and do not stop the sweep.
    """
    config = _with_seed(config, seed_override)
    _check_budget(config, allow_reflections)
    out_dir = Path(out_dir)
    manifest = run_simulate(config, out_dir, allow_reflections=True, jobs=jobs)
    if window is None:
        window = (config.times.t_end / 5.0, config.times.t_end)

    entries = []
    failures = []
    for record in manifest["realizations"]:
        path = out_dir / record["csv"]
        try:
            series = read_series_csv(path)
            entry = {"index": record["index"], "source": record["csv"]}
            entry.update(fit_series(series, window, field_name, average_window))
            entries.append(entry)
        except (ValueError, OSError) as exc:
            failures.append({"index": record["index"], "error": str(exc)})

    exponents = [e["exponent"] for e in entries]
    aggregate = {
        "schema_version": 1,
        "command": "sweep",
        "package_version": __version__,
        "config_digest": manifest["config_digest"],
        "window": [window[0], window[1]],
        "average_window": average_window,
        "field": field_name,
        "realizations": entries,
        "failures": failures,
        "ensemble": {
            "count": len(exponents),
            "median_exponent": float(statistics.median(exponents)) if exponents else None,
            "iqr_exponent": (
                float(np.percentile(exponents, 75) - np.percentile(exponents, 25))
                if exponents
                else None
            ),
        },
    }
    if "json" in config.outputs.formats:
        write_json(out_dir / "aggregate.json", aggregate)
    return aggregate


# ---------------------------------------------------------------------------
# click wrappers


def _parse_window(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise click.UsageError(f"--window expects LO:HI, got {text!r}") from None


def _load(config_path: str) -> ExperimentConfig:
    try:
        return load_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2) from exc


@click.group()
@click.version_option(version=__version__)
def main():
    """Entanglement spreading in single-excitation spin chains."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, help="Output directory (default from config).")
@click.option("--allow-reflections", is_flag=True, default=False)
@click.option("--jobs", default=1, show_default=True, help="Parallel realizations.")
@click.option("--seed", "seed_override", default=None, type=int, help="Override ensemble.base_seed.")
def simulate(config_path, out_dir, allow_reflections, jobs, seed_override):
    """Numerically evolve the configured chain and write moment CSVs."""
    config = _load(config_path)
    out = out_dir or config.outputs.directory
    try:
        manifest = run_simulate(config, out, allow_reflections, seed_override, jobs)
    except BoundaryBudgetError as exc:
        click.echo(str(exc), err=True)
        raise SystemExit(1) from exc
    click.echo(
        f"simulate: {len(manifest['realizations'])} realization(s) -> {out} "
        f"({manifest['total_wall_time_s']:.1f} s)"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None)
@click.option("--seed", "seed_override", default=None, type=int)
def analytic(config_path, out_dir, seed_override):
    """Write the closed-form ordered-chain series with bound columns."""
    config = _load(config_path)
    out = out_dir or config.outputs.directory
    try:
        manifest = run_analytic(config, out, seed_override)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2) from exc
    click.echo(f"analytic: wrote {manifest['realizations'][0]['csv']} in {out}")


@main.command()
@click.argument("csv_paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--window", required=True, help="Fit window LO:HI in time units.")
@click.option("--field", "field_name", default="m", type=click.Choice(["m", "w"]), show_default=True)
@click.option("--avg-window", default=AVERAGE_WINDOW_DEFAULT, show_default=True)
@click.option("--out", "report_path", default=None, help="Report JSON path (default stdout).")
def fit(csv_paths, window, field_name, avg_window, report_path):
    """Fit power-law exponents to one or more series CSVs."""
    parsed = _parse_window(window)
    try:
        report = run_fit(list(csv_paths), parsed, field_name, avg_window)
    except ValueError as exc:
        click.echo(f"fit error: {exc}", err=True)
        raise SystemExit(2) from exc
    if report_path:
        write_json(report_path, report)
        click.echo(f"fit: report -> {report_path}")
    else:
        import json as _json

        click.echo(_json.dumps(report, indent=2, sort_keys=True))
    click.echo(
        f"fit: median exponent {report['ensemble']['median_exponent']:.4f} "
        f"over {report['ensemble']['count']} series"
    )


@main.command()
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--csv", "csv_path", default=None, type=click.Path(exists=True))
@click.option("--out", "report_path", default=None)
def verify(config_path, csv_path, report_path):
    """Check ordered-chain bounds, Bessel identities and unitarity."""
    if (config_path is None) == (csv_path is None):
        click.echo("verify error: provide exactly one of --config or --csv", err=True)
        raise SystemExit(2)
    try:
        config = _load(config_path) if config_path else None
        report = run_verify(config=config, csv_path=csv_path)
    except (ConfigError, ValueError) as exc:
        click.echo(f"verify error: {exc}", err=True)
        raise SystemExit(2) from exc
    if report_path:
        write_json(report_path, report)
    status = "PASS" if report["passed"] else "FAIL"
    click.echo(
        f"verify: {status} (bounds {report['bounds']['lower_failures']}+"
        f"{report['bounds']['upper_failures']} failures, unitarity "
        f"{report['unitarity']['max_norm_error']:.2e})"
    )
    if not report["passed"]:
        raise SystemExit(1)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None)
@click.option("--window", default=None, help="Fit window LO:HI (default t_end/5 : t_end).")
@click.option("--field", "field_name", default="m", type=click.Choice(["m", "w"]), show_default=True)
@click.option("--avg-window", default=AVERAGE_WINDOW_DEFAULT, show_default=True)
@click.option("--jobs", default=1, show_default=True)
@click.option("--allow-reflections", is_flag=True, default=False)
@click.option("--seed", "seed_override", default=None, type=int)
def sweep(config_path, out_dir, window, field_name, avg_window, jobs, allow_reflections, seed_override):
    """Run the disorder ensemble end to end and aggregate exponents."""
    config = _load(config_path)
    out = out_dir or config.outputs.directory
    try:
        aggregate = run_sweep(
            config,
            out,
            window=_parse_window(window),
            field_name=field_name,
            average_window=avg_window,
            jobs=jobs,
            allow_reflections=allow_reflections,
            seed_override=seed_override,
        )
    except BoundaryBudgetError as exc:
        click.echo(str(exc), err=True)
        raise SystemExit(1) from exc
    med = aggregate["ensemble"]["median_exponent"]
    click.echo(
        f"sweep: {aggregate['ensemble']['count']} fit(s), median exponent "
        f"{med if med is None else f'{med:.4f}'}, {len(aggregate['failures'])} failure(s)"
    )


if __name__ == "__main__":
    main()
