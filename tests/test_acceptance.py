"""Acceptance gate: every numerical target of the project in one module.

Each criterion prints one PASS/FAIL line (run with -s to see them live) and
asserts both the numerical target and its runtime budget.

Criterion 07 compares the averaged ordered moments with the two-term laws of
asymptotes_ordered: the Debye envelope sqrt(2/pi) (z^2 - x^2)^-1/4 gives
the t^2.5 term and the Airy zone at the x ~ 2t caustic the t^2 term.  The
measured worst deviations on [100, 500] are 0.28% for W and 4.1% for M, the
latter from averaging the sampled |J_0|.  Against the flat envelope
sqrt(2/(pi z)) alone the exact moments run up to 59% (W) and 63% (M) hot.

Criterion 09 is known-red and kept faithful rather than loosened.  At desk
scale the ten fitted exponents on [200, 1000] are 2.549, 2.545, 2.658,
2.472, 2.760, 2.954, 2.600, 2.647, 2.785 and 2.102; six lie in [2.2, 2.7]
where eight are needed.  The averaged |a_0| is flat (exponent within 0.08
of 0) in all ten, so the scatter is in W, not in the fit or the averaging.
On [500, 1000] every exponent is higher still (2.747, 2.793, 2.816,
2.620, 2.832, 2.979, 2.615, 2.796, 2.840, 2.473; 7 of 10 above 2.7): the
local exponent is still rising at t = 1000.  Relaxation onto t^(5/2) was
expected at longer times; one run of configs/fig1_full.json (five
realizations to t = 10000, too large for this suite) fits 2.60 to 2.94 on
both [2000, 10000] and [5000, 10000], level but still above 2.5.

Criterion 11 runs a one-site core (field epsilon at the origin, ordered
leads) through the production run_simulate path and compares the CSV's
|a_0| column with the exact single-impurity solution of
impurity_origin_amplitude, a bound state plus a band integral that shares
no code with the propagator.  The measured worst difference is 2.6e-14.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from entspread.analysis import fit_power_law, time_average, verify_bounds
from entspread.analytic import (
    asymptotes_ordered,
    impurity_origin_amplitude,
    semi_infinite_amplitude,
)
from entspread.bessel import bessel_row
from entspread.chain import Hamiltonian, derive_seed
from entspread.cli import analytic_series, fit_series, run_simulate, run_sweep
from entspread.config import SCHEMA_VERSION, config_from_dict, load_config
from entspread.propagator import basis_state, evolve_series
from entspread.seriesio import read_series_csv

from conftest import random_unit_state
from oracles import (
    bessel_j_series_oracle,
    concurrence_pair,
    evolve_diagonalization,
    reduced_density_pair,
    wootters_concurrence,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_PHASES = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({detail}; {elapsed:.1f}s < {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
    assert ok, line


def _ordered_series(t_start, t_end, num_samples):
    raw = {
        "schema_version": SCHEMA_VERSION,
        "chain": {"num_sites": 4001},
        "times": {"t_start": t_start, "t_end": t_end, "num_samples": num_samples},
    }
    series, _ = analytic_series(config_from_dict(raw))
    return series


@pytest.fixture(scope="module")
def averaged_ordered_series():
    series = _ordered_series(0.25, 520.0, 2080)
    return time_average(series, math.pi)


def test_c01_bessel_accuracy():
    started = time.perf_counter()
    worst = 0.0
    for x in np.arange(0.0, 30.5, 0.5):
        row = bessel_row(40, float(x))
        for n in range(41):
            worst = max(worst, abs(row[n] - bessel_j_series_oracle(n, float(x), 80)))
    ok = worst <= 1e-12

    worst_norm = 0.0
    worst_rec = 0.0
    for x in (2.0, 100.0, 300.0, 600.0):
        # order_max covers the stated >= argument + 40 and the wavefront
        # transition zone, which the truncated sum needs at large argument
        order_max = max(300, int(x) + 40 + math.ceil(10 * math.sqrt(x))) + 1
        row = bessel_row(order_max, x)
        worst_norm = max(worst_norm, abs(row[0] + 2.0 * row[2::2].sum() - 1.0))
        for n in range(1, min(len(row) - 1, 301)):
            scale = max(abs(row[n - 1]), abs(row[n]), abs(row[n + 1]), 1e-30)
            worst_rec = max(worst_rec, abs(row[n - 1] + row[n + 1] - 2 * n / x * row[n]) / scale)
    ok = ok and worst_norm <= 1e-12 and worst_rec <= 1e-10
    _report(
        1,
        "bessel accuracy vs series oracle + identities",
        ok,
        f"worst |miller-oracle| {worst:.1e}, norm {worst_norm:.1e}, recurrence {worst_rec:.1e}",
        time.perf_counter() - started,
        5.0,
    )


def test_c02_paper_identity_suite():
    started = time.perf_counter()
    worst_moment = 0.0
    for a in (2.0, 20.0, 100.0):
        row = bessel_row(int(2 * a) + 1, a)
        for x in range(1, int(2 * a) + 1):
            worst_moment = max(
                worst_moment, abs(x * row[x] - 0.5 * a * (row[x - 1] + row[x + 1]))
            )
    worst_sum = 0.0
    for a in (2.0, 50.0, 100.0):
        k_max = int(a) + 40
        row = bessel_row(2 * k_max, a)
        total = sum((2 * k) ** 2 * row[2 * k] for k in range(1, k_max + 1))
        worst_sum = max(worst_sum, abs(total - a * a / 2.0))
    ok = worst_moment <= 1e-10 and worst_sum <= 1e-6
    _report(
        2,
        "moment and even-order-sum identities",
        ok,
        f"worst moment {worst_moment:.1e}, worst sum {worst_sum:.1e}",
        time.perf_counter() - started,
        1.0,
    )


# The 64-site chain is the oracle's own, so its reflections are expected.
@pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
def test_c03_propagator_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(derive_seed(7, 0)))
    h = Hamiltonian(diag=rng.uniform(0.0, 2.5, 64), offdiag=np.ones(63))
    init = basis_state(64, 31)
    worst = 0.0
    for a in evolve_series(h, 31, [1.0, 5.0, 20.0]):
        b = evolve_diagonalization(h, init, a.time)
        worst = max(worst, float(np.max(np.abs(a.amplitudes - b.amplitudes))))
    _report(
        3,
        "Chebyshev vs diagonalization, 64-site disorder",
        worst <= 1e-10,
        f"max amplitude diff {worst:.1e}",
        time.perf_counter() - started,
        5.0,
    )


def test_c04_analytic_numeric_agreement():
    started = time.perf_counter()
    n, t = 4001, 100.0
    (state,) = evolve_series(Hamiltonian(np.zeros(n), np.ones(n - 1)), 2000, [t])
    radius = 2000
    row = bessel_row(radius, 2.0 * t)
    right = _PHASES[np.arange(radius + 1) % 4] * row
    expected = np.concatenate([right[1:][::-1], right])
    worst = float(np.max(np.abs(state.amplitudes - expected)))
    _report(
        4,
        "4001-site numeric vs closed form at t=100",
        worst <= 1e-8,
        f"max |numeric - closed form| {worst:.1e}",
        time.perf_counter() - started,
        30.0,
    )


def test_c05_lower_bound():
    started = time.perf_counter()
    series = _ordered_series(1.0, 200.0, 200)
    report = verify_bounds(series)
    ok = report.lower_failures == 0 and len(report.checks) == 200
    _report(
        5,
        "W >= 2 t^2 on 200 samples in [1, 200]",
        ok,
        f"{report.lower_failures} failures",
        time.perf_counter() - started,
        10.0,
    )


def test_c06_upper_bound():
    started = time.perf_counter()
    series = _ordered_series(5.0, 200.0, 200)
    report = verify_bounds(series)
    ok = report.upper_failures == 0 and report.upper_checked == 200
    _report(
        6,
        "W <= 16/sqrt(pi) t^2.5 on 200 samples in [5, 200]",
        ok,
        f"{report.upper_failures} failures",
        time.perf_counter() - started,
        10.0,
    )


def test_c07_asymptotic_coefficients(averaged_ordered_series):
    started = time.perf_counter()
    times = averaged_ordered_series.times()
    mask = (times >= 100.0) & (times <= 500.0)
    targets = np.array([asymptotes_ordered(float(t)) for t in times[mask]])
    w_ratio = averaged_ordered_series.column("w")[mask] / targets[:, 0]
    m_ratio = averaged_ordered_series.column("m")[mask] / targets[:, 1]
    w_off = float(np.max(np.abs(w_ratio - 1.0)))
    m_off = float(np.max(np.abs(m_ratio - 1.0)))
    ok = w_off <= 0.10 and m_off <= 0.10
    _report(
        7,
        "averaged W and M vs two-term Debye + Airy-caustic laws",
        ok,
        f"W off by {100 * w_off:.2f}% (mean ratio {np.mean(w_ratio):.4f}), "
        f"M off by {100 * m_off:.2f}% (mean ratio {np.mean(m_ratio):.4f})",
        time.perf_counter() - started,
        60.0,
    )


def test_c08_ordered_exponent(averaged_ordered_series):
    started = time.perf_counter()
    fit = fit_power_law(averaged_ordered_series, "m", (100.0, 500.0))
    ok = 1.9 <= fit.exponent <= 2.1
    _report(
        8,
        "ordered M(t) exponent on [100, 500]",
        ok,
        f"exponent {fit.exponent:.4f}",
        time.perf_counter() - started,
        60.0,
    )


def test_c09_desk_scale_disordered_ensemble(tmp_path):
    started = time.perf_counter()
    config = load_config(CONFIG_DIR / "fig1_desk.json")
    aggregate = run_sweep(config, tmp_path / "sweep", jobs=4)

    window = tuple(aggregate["window"])
    ordered = _ordered_series(0.25, 1000.0, 4000)
    ordered_exponent = fit_series(ordered, window)["exponent"]

    exponents = [e["exponent"] for e in aggregate["realizations"]]
    in_range = sum(1 for e in exponents if 2.2 <= e <= 2.7)
    beats_ordered = sum(1 for e in exponents if e > ordered_exponent)
    early = [
        e["early_max_local_exponent"]
        for e in aggregate["realizations"]
        if e["early_max_local_exponent"] is not None
    ]
    transient_seen = any(v > 2.5 for v in early)
    # Exponents over the later half of the window show whether the local
    # exponent is still rising or already relaxing onto t^(5/2).
    t_end = config.times.t_end
    late = [
        fit_series(read_series_csv(tmp_path / "sweep" / e["source"]), (t_end / 2, t_end))["exponent"]
        for e in aggregate["realizations"]
    ]

    ok = in_range >= 8 and beats_ordered == len(exponents) and transient_seen
    detail = (
        f"{in_range}/10 exponents in [2.2, 2.7] (need >= 8), "
        f"{beats_ordered}/10 above ordered {ordered_exponent:.3f}, "
        f"early transient > 2.5 seen: {transient_seen}; "
        f"exponents {np.round(exponents, 3).tolist()}; "
        f"on [{t_end / 2:g}, {t_end:g}] {np.round(late, 3).tolist()}"
    )
    _report(9, "desk-scale disordered ensemble", ok, detail, time.perf_counter() - started, 1800.0)


def test_c10_semi_infinite_solution():
    started = time.perf_counter()
    n = 2001
    h = Hamiltonian(np.zeros(n), np.ones(n - 1))
    worst = 0.0
    for state in evolve_series(h, 0, [5.0, 10.0, 25.0, 50.0, 75.0, 100.0]):
        t = state.time
        row = bessel_row(n + 1, 2.0 * t)
        x = np.arange(n)
        expected = _PHASES[x % 4] * (x + 1) / t * row[1 : n + 1]
        worst = max(worst, float(np.max(np.abs(state.amplitudes - expected))))
        # spot check against the scalar closed form as well
        for k in (0, 1, 17):
            assert abs(expected[k] - semi_infinite_amplitude(k, t)) <= 1e-12
    _report(
        10,
        "end-site launch vs half-chain closed form, t <= 100",
        worst <= 1e-8,
        f"max amplitude diff {worst:.1e}",
        time.perf_counter() - started,
        30.0,
    )


def test_c11_single_site_core_leak(tmp_path):
    # A one-site core of field epsilon leaking into ordered leads has the
    # exact single-impurity origin amplitude; the production propagator,
    # moment and CSV path must reproduce it to round-off.
    started = time.perf_counter()
    worst = 0.0
    for epsilon in (1.0, -0.5, 2.5):
        raw = {
            "schema_version": SCHEMA_VERSION,
            "chain": {
                "num_sites": 2101,
                "disorder": {"mode": "onsite_field", "half_width": 0, "low": epsilon, "high": epsilon},
            },
            "times": {"t_start": 0.0, "t_end": 500.0, "num_samples": 2001},
        }
        out = tmp_path / f"eps{epsilon}"
        manifest = run_simulate(config_from_dict(raw), out)
        series = read_series_csv(out / manifest["realizations"][0]["csv"])
        exact = [abs(impurity_origin_amplitude(epsilon, float(t))) for t in series.times()]
        worst = max(worst, float(np.max(np.abs(series.column("alpha0_abs") - exact))))
    _report(
        11,
        "single-site core leak vs exact closed form, t <= 500",
        worst <= 1e-12,
        f"max |a_0| diff {worst:.1e}",
        time.perf_counter() - started,
        5.0,
    )


def test_c12_concurrence_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 24))
        state = random_unit_state(rng, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        full = wootters_concurrence(reduced_density_pair(state, i, j))
        worst = max(worst, abs(full - concurrence_pair(state, i, j)))
    _report(
        12,
        "shortcut vs spin-flip eigenvalue concurrence, 1000 states",
        worst <= 1e-12,
        f"worst diff {worst:.1e}",
        time.perf_counter() - started,
        5.0,
    )
