"""Record the benchmark's committed reference values or a result file.

    python3 perfbench/record.py reference   # rewrite perfbench/reference.json from a default-seed run
    python3 perfbench/record.py results     # write perfbench/results/BENCH_<date>_<commit>.json

Run from the root of a checkout.  `results` runs every workload at the
default seed, untraced and traced, for the run length in BENCHMARK.json, and
sets the seed-commit figures the ROADMAP quotes beside the measured ones.
"""

from __future__ import annotations

import datetime
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import REFERENCE_PATH, REFERENCE_RTOL  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# (what, ROADMAP figure, unit) quoted for the seed commit.
ROADMAP_BASELINES = {
    "desk_ms_per_sample": (4.5, "ms"),
    "bessel_row_ms_k50": (0.04, "ms"),
    "moment_m_ms_8001_sites": (0.085, "ms"),
    "csv_write_ms_801_rows": (11.0, "ms"),
}
# Outside this ratio of measured to quoted, a baseline counts as not reproduced.
BASELINE_TOLERANCE = 0.2


def run(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run at the default seed: (result line, detailed report)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report_path = ROOT / ".perfbench_out" / f"{workload}-seed{DEFAULT_SEED}-trace{trace}" / "report.json"
    return result, json.loads(report_path.read_text())


def record_reference() -> None:
    reference = {"seed": DEFAULT_SEED, "rtol": REFERENCE_RTOL}
    for workload in ("desk_serial", "budget_sweep"):
        _, report = run(workload, 1, 0)
        reference[workload] = report["passes"][0]["observed_reference"]
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


def record_results() -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, report = run(workload, seconds, trace)
            runs[f"{workload}/trace{trace}"] = {
                "result": result,
                "work_per_pass": next((p["work"] for p in report["passes"] if "work" in p), None),
            }
            context = report["context"]
    desk = runs["desk_serial/trace0"]["result"]["metrics"]
    layers = runs["desk_serial/trace1"]["result"]["metrics"]
    rows = runs["desk_serial/trace0"]["work_per_pass"]["csv_rows"]
    measured = {
        "desk_ms_per_sample": desk["wall_s"]["value"] / rows * 1e3,
        "bessel_row_ms_k50": layers["bessel.row_ms.p50"]["value"],
        "moment_m_ms_8001_sites": layers["observables.moment_ms.p50"]["value"],
        "csv_write_ms_801_rows": layers["seriesio.write_s"]["value"] / rows * 801 * 1e3,
    }
    baselines = {}
    for name, (quoted, unit) in ROADMAP_BASELINES.items():
        ratio = measured[name] / quoted
        baselines[name] = {"measured": measured[name], "roadmap": quoted, "unit": unit, "ratio": ratio,
                           "reproduced": abs(ratio - 1.0) <= BASELINE_TOLERANCE}
    context.pop("workload")
    out = {
        "date": datetime.date.today().isoformat(),
        "context": context,
        "run_seconds": seconds,
        "runs": runs,
        "roadmap_baselines": baselines,
        "notes": "csv_write_ms_801_rows scales the traced 4001-row desk write to 801 rows; "
                 "bessel_row and moment_m are medians of traced calls and include one span each.",
    }
    path = HERE / "results" / f"BENCH_{out['date']}_{context['commit'][:7]}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    commands = {"reference": record_reference, "results": record_results}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(commands)}}}")
    commands[sys.argv[1]]()
