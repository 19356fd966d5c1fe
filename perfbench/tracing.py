"""Traced passes: the same pipelines driven layer by layer, with a span per call.

Spans are recorded from here, around calls into each module's public
functions; no file of the package is changed.  Two layers are reached only
from inside another function, so their module attributes are wrapped for the
duration of a traced pass: `bessel_row` as `entspread.propagator` sees it
(inside `evolve_chebyshev`) and `bessel_rows` as `entspread.cli` sees it
(inside `analytic_series`).

A span is (id, name, start, end, parent id, pass id, pid).  Spans stay in
memory and are written out once, when the run ends.  A layer is the part of
a span name before the first dot.
"""

from __future__ import annotations

import concurrent.futures
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import entspread.cli
import entspread.propagator
from entspread.analysis import MomentSeries, fit_power_law, local_exponent, time_average, verify_bounds
from entspread.chain import build_hamiltonian, spectral_bounds
from entspread.cli import analytic_series
from entspread.config import config_digest, config_from_dict
from entspread.observables import moment_m
from entspread.propagator import chebyshev_order, evolve_series
from entspread.seriesio import read_series_csv, write_series_csv
from workloads import FIT_WINDOW_DISORDERED, FIT_WINDOW_ORDERED, SWEEP_JOBS, PassOutput

UNITARITY_TOL = 1e-8  # run_verify's default


class Tracer:
    """In-memory span recorder; nested spans take the innermost open span as parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = None
        self._open: list[int] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                  "pass": self.pass_id, "pid": self._pid}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def wrapped_bessel(tracer: Tracer):
    prop, cli = entspread.propagator, entspread.cli
    saved = prop.bessel_row, cli.bessel_rows
    prop.bessel_row = tracer.wrap(saved[0], "bessel.row")
    cli.bessel_rows = tracer.wrap(saved[1], "bessel.rows")
    try:
        yield
    finally:
        prop.bessel_row, cli.bessel_rows = saved


def simulate_traced(tracer: Tracer, config, index: int, out_dir: Path) -> Path:
    """simulate_realization plus its CSV write, one span per layer call."""
    with tracer.span("chain.build"):
        h = build_hamiltonian(config.chain, index)
    times = config.times.grid()
    half_width = config.chain.disorder.half_width
    states = evolve_series(h, config.chain.origin, times, half_width)
    samples = []
    for _ in range(len(times)):
        with tracer.span("propagator.step"):
            state = next(states)
        with tracer.span("observables.moment"):
            samples.append(moment_m(state, half_width))
    series = MomentSeries(samples=tuple(samples), spec_digest=config_digest(config, index))
    path = out_dir / f"series_r{index:04d}.csv"
    with tracer.span("seriesio.write"):
        write_series_csv(path, series)
    return path


def work_counts(config, index: int) -> tuple[int, int]:
    """Computed (matvecs, site-updates) of one realization: sum over steps of K(b, gap) [x sites]."""
    h = build_hamiltonian(config.chain, index)
    emin, emax = spectral_bounds(h)
    b = 0.5 * (emax - emin)
    times = config.times.grid()
    gaps = np.diff(np.concatenate(([0.0], times)))
    matvecs = sum(chebyshev_order(b, float(g)) for g in gaps if g != 0.0)
    return matvecs, matvecs * h.num_sites


def sweep_worker(raw_config: dict, index: int, out_dir: str, pass_id) -> tuple[Path, list[dict]]:
    """Process-pool entry of the traced sweep; returns the CSV path and the worker's spans."""
    tracer = Tracer()
    tracer.pass_id = pass_id
    config = config_from_dict(raw_config)
    with wrapped_bessel(tracer):
        path = simulate_traced(tracer, config, index, Path(out_dir))
    return path, tracer.spans


def _fit_traced(tracer: Tracer, path: Path, window) -> float:
    with tracer.span("seriesio.read"):
        series = read_series_csv(path)
    with tracer.span("analysis.average"):
        averaged = time_average(series)
    with tracer.span("analysis.fit"):
        fit = fit_power_law(averaged, "m", window)
        local_exponent(averaged, "m")
    return fit.exponent


def traced_pass(workload: str, config, raw_config: dict, out_dir: Path, tracer: Tracer) -> PassOutput:
    """One pass of a workload through the public layer functions, traced."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "desk_serial":
        with wrapped_bessel(tracer):
            path = simulate_traced(tracer, config, 0, out_dir)
        return PassOutput(out_dir, {0: path}, None)
    if workload == "budget_sweep":
        n = config.ensemble.num_realizations
        # Same pool start method as run_sweep, so both pay the same worker start-up.
        with tracer.span("cli.pool"):
            with concurrent.futures.ProcessPoolExecutor(max_workers=SWEEP_JOBS) as pool:
                futures = [pool.submit(sweep_worker, raw_config, i, str(out_dir), tracer.pass_id) for i in range(n)]
                results = [f.result() for f in futures]
        paths = {}
        for index, (path, spans) in enumerate(results):
            tracer.spans.extend(spans)
            paths[index] = path
        exponents = {i: _fit_traced(tracer, p, FIT_WINDOW_DISORDERED) for i, p in paths.items()}
        aggregate = {"failures": [], "ensemble": {"count": len(exponents)}}
        return PassOutput(out_dir, paths, None, aggregate=aggregate, exponents=exponents)
    with wrapped_bessel(tracer):
        with tracer.span("analytic.series"):
            series, extras = analytic_series(config)
    path = out_dir / "series_analytic.csv"
    with tracer.span("seriesio.write"):
        write_series_csv(path, series, extras)
    with tracer.span("seriesio.read"):
        series = read_series_csv(path)
    with tracer.span("analysis.verify"):
        bounds = verify_bounds(series)
    max_norm_error = float(np.max(series.column("norm_error")))
    verify = {
        "passed": bounds.passed and max_norm_error <= UNITARITY_TOL,
        "bounds": {"samples": len(bounds.checks), "lower_failures": bounds.lower_failures,
                   "upper_failures": bounds.upper_failures, "max_norm_error": max_norm_error},
    }
    exponent = _fit_traced(tracer, path, FIT_WINDOW_ORDERED)
    return PassOutput(out_dir, {0: path}, None, verify=verify, exponents={0: exponent})


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile_ms(durations, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span (keyed by list position): duration minus the time its direct children cover."""
    position = {(s["pid"], s["id"]): k for k, s in enumerate(spans)}
    own = {k: s["end"] - s["start"] for k, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None:
            own[position[(s["pid"], s["parent"])]] -= s["end"] - s["start"]
    return own


def layer_metrics(
    spans: list[dict],
    traced_walls: dict,
    untraced_walls: list[float],
    work: dict,
    last_untraced: PassOutput,
    last_untraced_wall: float,
    jobs: int,
) -> dict[str, float]:
    """Every per-layer metric, as medians over the traced passes; 0 where a layer did not run."""
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])

    per_pass = []
    main_pid = os.getpid()
    for pass_id, wall in traced_walls.items():
        total, self_total, calls = {}, {}, {}
        roots = 0.0
        for k, s in enumerate(spans):
            if s["pass"] != pass_id:
                continue
            dur = s["end"] - s["start"]
            total[s["name"]] = total.get(s["name"], 0.0) + dur
            self_total[s["name"]] = self_total.get(s["name"], 0.0) + own[k]
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            if s["parent"] is None and s["pid"] == main_pid:
                roots += dur
        step_s = total.get("propagator.step", 0.0)
        per_pass.append({
            "propagator.self_s": self_total.get("propagator.step", 0.0),
            "propagator.share": step_s / (wall * jobs),
            "propagator.site_updates_per_us": work["site_updates"] / (step_s * 1e6) if step_s else 0.0,
            "bessel.row_calls": calls.get("bessel.row", 0),
            "bessel.rows_s": total.get("bessel.rows", 0.0),
            "observables.self_s": self_total.get("observables.moment", 0.0),
            "analytic.series_s": self_total.get("analytic.series", 0.0),
            "analysis.average_s": total.get("analysis.average", 0.0),
            "analysis.fit_s": total.get("analysis.fit", 0.0),
            "analysis.verify_s": total.get("analysis.verify", 0.0),
            "seriesio.write_s": total.get("seriesio.write", 0.0),
            "seriesio.read_s": total.get("seriesio.read", 0.0),
            "trace.overhead_s": wall - _median(untraced_walls),
            "trace.unattributed_share": (wall - roots) / wall,
        })
    metrics = {name: _median([p[name] for p in per_pass]) for name in per_pass[0]}

    records = last_untraced.manifest["realizations"]
    worker_walls = [r["wall_time_s"] for r in records]
    pool_wall = last_untraced.manifest["total_wall_time_s"]
    failures = len(last_untraced.aggregate["failures"]) if last_untraced.aggregate else 0
    metrics.update({
        "propagator.step_ms.p50": _percentile_ms(durations.get("propagator.step"), 50),
        "propagator.step_ms.p99": _percentile_ms(durations.get("propagator.step"), 99),
        "propagator.matvecs": work["matvecs"],
        "propagator.site_updates": work["site_updates"],
        "propagator.site_updates_per_t": work["site_updates_per_t"],
        "bessel.row_ms.p50": _percentile_ms(durations.get("bessel.row"), 50),
        "observables.moment_ms.p50": _percentile_ms(durations.get("observables.moment"), 50),
        "seriesio.bytes": work["csv_bytes"],
        "config.load_ms": _percentile_ms(durations.get("config.load"), 50),
        "chain.build_ms": _percentile_ms(durations.get("chain.build"), 50),
        "cli.pool_efficiency": sum(worker_walls) / (pool_wall * jobs) if pool_wall else 0.0,
        "cli.worker_wall_s.max": max(worker_walls),
        "cli.fit_stage_s": last_untraced_wall - pool_wall,
        "cli.failures": failures,
    })
    return metrics


def pass_work(workload: str, config, output: PassOutput) -> dict:
    """Computed work of one pass: matvecs, site-updates (also per unit simulated time), CSV rows and bytes."""
    matvecs = site_updates = 0
    if workload != "ordered_pipeline":
        for index in output.csv_paths:
            mv, su = work_counts(config, index)
            matvecs += mv
            site_updates += su
    span_t = config.times.t_end - config.times.t_start
    realizations = len(output.csv_paths)
    return {
        "matvecs": matvecs,
        "site_updates": site_updates,
        "site_updates_per_t": site_updates / (realizations * span_t),
        "csv_rows": config.times.num_samples * realizations,
        "csv_bytes": sum(p.stat().st_size for p in output.csv_paths.values()),
    }
