"""Command-line front end: simulate | analytic | fit | verify | sweep.

Every command is a deterministic function of its config and input files;
series CSVs from reruns are byte-identical.  Heavy work lives in plain
functions of a loaded config, which tests drive directly; the commands apply
`--seed` first.  The click group maps their exceptions to exit codes in one
place, `EXIT_CODES`: 2 for config or input problems, and for a path that
cannot be read or written (an `OSError`, whose message names the path); 1 for
a boundary-budget violation.  `verify` also exits 1 when a check fails, and
`simulate` when a realization failed; the others are still written.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import statistics
import time as _time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    AVERAGE_WINDOW_DEFAULT,
    FIT_FIELDS,
    MomentSeries,
    fit_power_law,
    local_exponent,
    time_average,
    verify_bounds,
)
from .analytic import asymptotes_ordered, w_bounds_ordered
from .bessel import _RING_BUILT, _RING_PATH, bessel_row, bessel_rows, order_sums, tail_order
from .chain import build_hamiltonian
from .config import (
    ConfigError,
    ExperimentConfig,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .observables import MOMENT_COLUMNS, moment_rows
from .propagator import EDGE_SITES, evolve_blocks, reflection_budget_violation
from .seriesio import (
    ANALYTIC_EXTRA_COLUMNS,
    read_series_csv,
    write_json,
    write_series_csv,
)

_ANALYTIC_CHUNK = 256

EARLY_WINDOW_START = 1.0

# Largest |1 - norm| that `verify` accepts in a series.
UNITARITY_TOL = 1e-8


class BoundaryBudgetError(RuntimeError):
    """Requested evolution would let the wavefront reach the chain boundary."""


def _check_budget(config: ExperimentConfig, allow_reflections: bool) -> None:
    chain = config.chain
    violation = reflection_budget_violation(
        chain.num_sites, config.times.t_end, chain.disorder.half_width, chain.gamma
    )
    if violation and not allow_reflections:
        raise BoundaryBudgetError(
            f"{violation}; enlarge the chain, shorten t_end, or pass --allow-reflections"
        )


def _header(command: str) -> dict:
    return {"schema_version": 1, "command": command, "package_version": __version__}


def _record(index: int | None, path: Path, spec_digest: str, started: float) -> dict:
    """Manifest entry of one written series CSV."""
    return {
        "index": index,
        "csv": path.name,
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "spec_digest": spec_digest,
        "wall_time_s": round(_time.perf_counter() - started, 3),
    }


def _failure(index: int, exc: Exception) -> dict:
    """The `failures` entry of a realization that raised `exc`."""
    return {"index": index, "error": f"{type(exc).__name__}: {exc}"}


def _manifest(
    command: str, config: ExperimentConfig, out_dir: Path, records: list[dict], started: float,
    **extra,
) -> dict:
    """The run manifest of `simulate` or `analytic`, with `extra` keys, also written as manifest.json.

    `library` names the compiled passes' shared library, keyed by their
    source, flags and machine, and says whether this process built it or
    found it in the cache.
    """
    manifest = {
        **_header(command),
        "config": config_to_dict(config),
        "config_digest": config_digest(config),
        "library": {"file": _RING_PATH.name, "built": _RING_BUILT},
        "realizations": records,
        **extra,
        "total_wall_time_s": round(_time.perf_counter() - started, 3),
    }
    if "json" in config.outputs.formats:
        write_json(out_dir / "manifest.json", manifest)
    return manifest


def _ensemble(exponents: list[float]) -> dict:
    """Median and interquartile range of fitted exponents; None when nothing was fitted.

    The quartiles interpolate linearly, as np.percentile's default does,
    but through `statistics`: np.percentile imports numpy.ma on first use,
    about 10 ms of a fresh process's fit.
    """
    if not exponents:
        return {"count": 0, "median_exponent": None, "iqr_exponent": None}
    lower = upper = 0.0
    if len(exponents) > 1:
        lower, _, upper = statistics.quantiles(exponents, n=4, method="inclusive")
    return {
        "count": len(exponents),
        "median_exponent": float(statistics.median(exponents)),
        "iqr_exponent": float(upper - lower),
    }


def simulate_realization(
    config: ExperimentConfig, realization_index: int
) -> tuple[MomentSeries, dict]:
    """Numeric moment series of one disorder realization, and the work it took.

    Each block is reduced straight to its moment rows.  The work counts are
    the propagator's: blocks (the one that holds t = 0 too), matvecs (the sum
    of the block orders K), site-updates (K times the block's window width)
    and the smallest and largest K.  max_edge_amplitude is the largest |a|
    on the EDGE_SITES sites at either chain end over all samples, 0.0 where
    no block's support reaches them: how close the run came to reflecting.
    propagate_s and observe_s are the seconds spent making the blocks and
    reducing them.
    """
    h = build_hamiltonian(config.chain, realization_index)
    origin, half_width = config.chain.origin, config.chain.disorder.half_width
    tables, orders, site_updates, edge, propagate_s, observe_s = [], [], 0, 0.0, 0.0, 0.0
    clock = _time.perf_counter()
    for block in evolve_blocks(h, origin, config.times.grid(), half_width):
        made = _time.perf_counter()
        propagate_s += made - clock
        tables.append(moment_rows(block, origin, half_width))
        orders.append(block.order)
        site_updates += block.order * block.window
        if block.start < EDGE_SITES or block.start + block.width > h.num_sites - EDGE_SITES:
            sites = np.arange(block.start, block.start + block.width)
            near = (sites < EDGE_SITES) | (sites >= h.num_sites - EDGE_SITES)
            edge = max(edge, float(np.max(np.abs(block.amplitudes[:, near]), initial=0.0)))
        clock = _time.perf_counter()
        observe_s += clock - made
    digest = config_digest(config, realization_index)
    series = MomentSeries.from_table(np.concatenate(tables), digest)
    stats = {
        "blocks": len(orders),
        "matvecs": sum(orders),
        "site_updates": site_updates,
        "min_block_order": min(orders),
        "max_block_order": max(orders),
        "max_norm_error": float(np.max(series.column("norm_error"))),
        "final_support_width": block.width,
        "max_edge_amplitude": edge,
        "propagate_s": round(propagate_s, 3),
        "observe_s": round(observe_s, 3),
    }
    return series, stats


def analytic_series(config: ExperimentConfig) -> tuple[MomentSeries, dict[str, np.ndarray]]:
    """Closed-form ordered-chain moment series plus bound/asymptote columns.

    The closed form is the |gamma| = 1 chain, whose amplitudes are J_x(2t);
    any other hopping is rejected rather than silently mis-scaled.  The time
    grid is processed in chunks of `_ANALYTIC_CHUNK` times.  Each chunk's
    rows share one truncation order and one Miller start order, sized for
    its last time, so early times do not pay for late ones.  One chunk for
    the whole desk grid would need rows of about 66 MB, and its shared start
    order would move the last bits of the early rows.  The sums over the
    orders, w split at the core edge and sum_k J_k^2 of the norm, are one
    compiled pass per chunk (`bessel.order_sums`): pairwise sums of a fixed
    order, so the CSV's bytes depend on no BLAS kernel and no CPU dispatch.
    """
    if not config.chain.disorder.is_ordered:
        raise ConfigError("config.chain.disorder", "the closed form needs an ordered chain")
    gamma = config.chain.gamma
    if abs(gamma) != 1.0:
        raise ConfigError("config.chain.gamma", f"the closed form needs |gamma| = 1, got {gamma:g}")
    times = config.times.grid()
    core = config.chain.disorder.half_width
    chunks = []
    for lo in range(0, len(times), _ANALYTIC_CHUNK):
        chunk = times[lo : lo + _ANALYTIC_CHUNK]
        rows = bessel_rows(tail_order(2.0 * float(chunk[-1])), 2.0 * chunk)
        # The one-sided sums split at the core edge |x| = L, as simulate splits
        # m; with no core, w_inner is 0.0 and w is w_outer bit for bit.
        inner, outer, squares = order_sums(rows, core)
        w_inner, w_outer = 2.0 * inner, 2.0 * outer
        w = w_inner + w_outer
        alpha0 = np.abs(rows[:, 0])
        m = 2.0 * alpha0 * w
        # probability on the full chain: J_0^2 + 2 sum_k J_k^2
        norm_error = np.abs(1.0 - (rows[:, 0] ** 2 + 2.0 * squares))
        chunks.append(np.column_stack((chunk, m, w, alpha0, 2.0 * alpha0 * w_outer,
                                       2.0 * alpha0 * w_inner, norm_error)))
    series = MomentSeries.from_table(np.concatenate(chunks), config_digest(config))
    # The asymptotes hold for t > 0; a sample at t = 0 gets zeros.
    asym = np.zeros((2, len(times)))
    asym[:, times > 0.0] = asymptotes_ordered(times[times > 0.0])
    return series, dict(zip(ANALYTIC_EXTRA_COLUMNS, (*w_bounds_ordered(times), *asym)))


def _simulate_worker(config: ExperimentConfig, realization_index: int, out_dir: Path) -> dict:
    """Process-pool entry: simulate one realization and write its CSV slot.

    The record's stats add write_s, the seconds the CSV write took.
    """
    started = _time.perf_counter()
    series, stats = simulate_realization(config, realization_index)
    path = out_dir / f"series_r{realization_index:04d}.csv"
    writing = _time.perf_counter()
    write_series_csv(path, series)
    stats["write_s"] = round(_time.perf_counter() - writing, 3)
    return {**_record(realization_index, path, series.spec_digest, started), "stats": stats}


def run_simulate(
    config: ExperimentConfig,
    out_dir: str | Path,
    allow_reflections: bool = False,
    jobs: int = 1,
) -> dict:
    """Simulate every realization in the ensemble; returns the manifest.

    A realization that raises is recorded under the manifest's `failures`
    as {"index", "error"}, and the others are still simulated and written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _check_budget(config, allow_reflections)
    out_dir = Path(out_dir)
    indices = range(config.ensemble.num_realizations)
    started = _time.perf_counter()
    records, failures = [], []

    def settle(index: int, run, *args) -> None:
        try:
            records.append(run(*args))
        except Exception as exc:
            failures.append(_failure(index, exc))

    if jobs > 1 and len(indices) > 1:
        # The pool starts all its workers at once: no more than there is work for.
        with concurrent.futures.ProcessPoolExecutor(min(jobs, len(indices))) as pool:
            futures = [pool.submit(_simulate_worker, config, idx, out_dir) for idx in indices]
            # Slots are keyed by realization index, never by completion order.
            for idx, future in zip(indices, futures):
                settle(idx, future.result)
    else:
        for idx in indices:
            settle(idx, _simulate_worker, config, idx, out_dir)
    return _manifest("simulate", config, out_dir, records, started, failures=failures)


def run_analytic(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Write the analytic ordered-chain series; returns the manifest."""
    out_dir = Path(out_dir)
    started = _time.perf_counter()
    series, extras = analytic_series(config)
    path = out_dir / "series_analytic.csv"
    write_series_csv(path, series, extras)
    record = _record(None, path, series.spec_digest, started)
    return _manifest("analytic", config, out_dir, [record], started)


def fit_series(
    series: MomentSeries,
    window: tuple[float, float],
    field_name: str = "m",
    average_window: float = AVERAGE_WINDOW_DEFAULT,
) -> dict:
    """Average, fit and scan one series; returns the per-realization report entry.

    average_window = 0 skips the smoothing pass (useful for data that is
    already smooth, where the window's curvature bias would dominate).  The
    local exponent is taken over the samples at t > 0, as log t needs; with
    fewer than 3 of them there is none, and no early maximum is reported.
    """
    if not 0.0 <= average_window < math.inf:
        raise ValueError(f"average_window must be finite and >= 0, got {average_window}")
    averaged = time_average(series, average_window) if average_window > 0 else series
    fit = fit_power_law(averaged, field_name, window)
    positive = MomentSeries.from_table(averaged.table[averaged.times() > 0.0])
    local = local_exponent(positive, field_name) if len(positive) >= 3 else np.empty((0, 2))
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
        fit = fit_series(read_series_csv(path), window, field_name, average_window)
        entries.append({"source": str(path), **fit})
    return {
        **_header("fit"),
        "realizations": entries,
        "ensemble": _ensemble([e["exponent"] for e in entries]),
    }


def _identity_check(name: str, a: float, error: float, tol: float) -> dict:
    # error is a Python float so that "ok" is a bool that json can write
    error = float(error)
    return {"name": name, "a": a, "error": error, "tol": tol, "ok": error <= tol}


def _bessel_identity_checks() -> list[dict]:
    """Spot checks of the two moment identities behind the ordered-chain bounds."""
    checks = []
    # x J_x(a) = a/2 (J_{x-1}(a) + J_{x+1}(a)) for 1 <= x <= 2a
    for a in (2.0, 20.0, 100.0):
        row = bessel_row(int(2 * a) + 1, a)
        x = np.arange(1, len(row) - 1)
        residual = x * row[1:-1] - 0.5 * a * (row[:-2] + row[2:])
        checks.append(_identity_check("recurrence_moment", a, np.max(np.abs(residual)), 1e-10))
    # one-sided even-order sum: sum_{k>=1} (2k)^2 J_2k(a) = a^2 / 2
    for a in (2.0, 50.0, 100.0):
        row = bessel_row(tail_order(a), a)
        even = np.arange(2, len(row), 2)
        total = np.sum(even**2 * row[2::2])
        checks.append(_identity_check("even_order_sum", a, abs(total - a * a / 2.0), 1e-6))
    return checks


def run_verify(config: ExperimentConfig | None = None, csv_path: str | Path | None = None) -> dict:
    """Bound checks on an ordered series, identity spot checks, unitarity audit."""
    if (config is None) == (csv_path is None):
        raise ValueError("provide exactly one of config or csv_path")
    if config is not None:
        series, _ = analytic_series(config)
        source = "analytic:" + config_digest(config)
    else:
        series = read_series_csv(csv_path)
        source = str(csv_path)
    if len(series) == 0:
        raise ValueError(f"{source}: the series has no samples")

    bounds = verify_bounds(series)
    max_norm_error = float(np.max(series.column("norm_error")))
    identities = _bessel_identity_checks()
    report = {
        **_header("verify"),
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
            "tol": UNITARITY_TOL,
            "ok": max_norm_error <= UNITARITY_TOL,
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
) -> dict:
    """Simulate the ensemble, fit every realization, aggregate exponent statistics.

    Before it simulates, the sweep fits a flat series (every column 1.0) on
    the grid's times, which are every realization's times: a window, field or
    average that this fit refuses, every fit would.  A realization that failed
    to simulate, or whose series cannot be read or fitted, is recorded under
    `failures` and does not stop the sweep.
    """
    if window is None:
        window = (config.times.t_end / 5.0, config.times.t_end)
    flat = np.ones((config.times.num_samples, len(MOMENT_COLUMNS)))
    flat[:, 0] = config.times.grid()
    fit_series(MomentSeries.from_table(flat), window, field_name, average_window)
    manifest = run_simulate(config, out_dir, allow_reflections, jobs)
    out_dir = Path(out_dir)

    entries = []
    failures = list(manifest["failures"])
    for record in manifest["realizations"]:
        try:
            series = read_series_csv(out_dir / record["csv"])
            fit = fit_series(series, window, field_name, average_window)
        except (ValueError, OSError) as exc:
            failures.append(_failure(record["index"], exc))
        else:
            entries.append({"index": record["index"], "source": record["csv"], **fit})

    aggregate = {
        **_header("sweep"),
        "config_digest": manifest["config_digest"],
        "window": [window[0], window[1]],
        "average_window": average_window,
        "field": field_name,
        "realizations": entries,
        "failures": sorted(failures, key=lambda failure: failure["index"]),
        "ensemble": _ensemble([e["exponent"] for e in entries]),
    }
    if "json" in config.outputs.formats:
        write_json(out_dir / "aggregate.json", aggregate)
    return aggregate


# ---------------------------------------------------------------------------
# click wrappers

# The one map from pipeline exceptions to exit codes.  ConfigError is a
# ValueError, so config problems exit 2 as well; so do unusable paths.
EXIT_CODES: dict[type[Exception], int] = {ValueError: 2, OSError: 2, BoundaryBudgetError: 1}


class _Pipeline(click.Group):
    """Click group that turns a pipeline exception into a one-line message and its exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            label = "config" if isinstance(exc, ConfigError) else ctx.invoked_subcommand
            click.echo(f"{label} error: {exc}", err=True)
            ctx.exit(next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)))


def _parse_window(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise click.UsageError(f"--window expects LO:HI, got {text!r}") from None


def _with_seed(config: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    """The config with `--seed` as its ensemble.base_seed, when given."""
    if seed is None:
        return config
    raw = config_to_dict(config)
    raw["ensemble"]["base_seed"] = seed
    return config_from_dict(raw)


# Options shared by several commands, each declared once.
_CONFIG = click.Option(
    ["--config", "config_path"], required=True, type=click.Path(exists=True), help="Config JSON."
)
_OUT_DIR = click.Option(["--out", "out_dir"], help="Output directory (default from config).")
_SEED = click.Option(["--seed"], type=int, help="Override ensemble.base_seed.")
_JOBS = click.Option(["--jobs"], default=1, show_default=True, help="Parallel realizations.")
_ALLOW_REFLECTIONS = click.Option(
    ["--allow-reflections"], is_flag=True, help="Run even if the front can reach the chain ends."
)
_FIELD = click.Option(
    ["--field", "field_name"], default="m", type=click.Choice(FIT_FIELDS), show_default=True
)
_AVG_WINDOW = click.Option(["--avg-window"], default=AVERAGE_WINDOW_DEFAULT, show_default=True)


@click.group(cls=_Pipeline)
@click.version_option(version=__version__)
def main():
    """Entanglement spreading in single-excitation spin chains."""


@main.command(params=[_CONFIG, _OUT_DIR, _ALLOW_REFLECTIONS, _JOBS, _SEED])
def simulate(config_path, out_dir, allow_reflections, jobs, seed):
    """Numerically evolve the configured chain and write moment CSVs."""
    config = _with_seed(load_config(config_path), seed)
    out = out_dir or config.outputs.directory
    manifest = run_simulate(config, out, allow_reflections, jobs)
    click.echo(
        f"simulate: {len(manifest['realizations'])} realization(s) -> {out} "
        f"({manifest['total_wall_time_s']:.1f} s)"
    )
    for failure in manifest["failures"]:
        click.echo(f"simulate error: realization {failure['index']}: {failure['error']}", err=True)
    if manifest["failures"]:
        raise SystemExit(1)


@main.command(params=[_CONFIG, _OUT_DIR, _SEED])
def analytic(config_path, out_dir, seed):
    """Write the closed-form ordered-chain series with bound columns."""
    config = _with_seed(load_config(config_path), seed)
    out = out_dir or config.outputs.directory
    manifest = run_analytic(config, out)
    click.echo(f"analytic: wrote {manifest['realizations'][0]['csv']} in {out}")


@main.command(params=[_FIELD, _AVG_WINDOW])
@click.argument("csv_paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--window", required=True, help="Fit window LO:HI in time units.")
@click.option("--out", "report_path", default=None, help="Report JSON path (default stdout).")
def fit(csv_paths, window, field_name, avg_window, report_path):
    """Fit power-law exponents to one or more series CSVs."""
    report = run_fit(list(csv_paths), _parse_window(window), field_name, avg_window)
    if report_path:
        write_json(report_path, report)
        click.echo(f"fit: report -> {report_path}")
    else:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
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
    config = load_config(config_path) if config_path else None
    report = run_verify(config=config, csv_path=csv_path)
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


@main.command(params=[_CONFIG, _OUT_DIR, _FIELD, _AVG_WINDOW, _JOBS, _ALLOW_REFLECTIONS, _SEED])
@click.option("--window", help="Fit window LO:HI (default t_end/5 : t_end).")
def sweep(config_path, out_dir, window, field_name, avg_window, jobs, allow_reflections, seed):
    """Run the disorder ensemble end to end and aggregate exponents."""
    config = _with_seed(load_config(config_path), seed)
    out = out_dir or config.outputs.directory
    aggregate = run_sweep(
        config,
        out,
        window=_parse_window(window),
        field_name=field_name,
        average_window=avg_window,
        jobs=jobs,
        allow_reflections=allow_reflections,
    )
    med = aggregate["ensemble"]["median_exponent"]
    click.echo(
        f"sweep: {aggregate['ensemble']['count']} fit(s), median exponent "
        f"{med if med is None else f'{med:.4f}'}, {len(aggregate['failures'])} failure(s)"
    )


if __name__ == "__main__":
    main()
