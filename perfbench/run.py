"""entspread benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload desk_serial --seed 20260810 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The seed generates the workload's config, passes repeat until
`--seconds` have elapsed, and every pass's outputs are checked.  `--trace 0`
times each pass in a fresh interpreter (at least two) and prints the
end-to-end metrics as medians over passes; `--trace 1` prints the per-layer
metrics of a separate traced run.  Earlier stdout lines are for people; the
last line is one JSON object: correct, attempted, failed, metrics.  Scratch
files, the detailed report and the spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread per process for BLAS and OpenMP, here and in pool children, so
# timings do not depend on the thread pools of the linked libraries.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
SPEC = ROOT / "BENCHMARK.json"  # names and units of every metric
SETUP_REPEATS = 7
LOAD_REPEATS = 5
# Passes 0 and 1 run in two fixed memory layouts (see pass_in_child), so every
# timed run covers both even when one desk pass outlasts --seconds.
MIN_TIMED_PASSES = 2

# A shared host switches between speeds 25% and more apart, each held for
# seconds.  A pass shorter than BRACKETED_PASS_MAX_S runs within one of them,
# so the host is probed right before and after it, and its time is scaled to
# the speed at which one probe chunk takes PROBE_REFERENCE_S (the median on a
# 2-vCPU Intel Xeon VM).  Longer passes span many switches that probes at
# their ends would not see; they are reported as timed.
BRACKETED_PASS_MAX_S = 2.0
PROBE_CHUNKS = 5
PROBE_MATVECS = 300
PROBE_REFERENCE_S = 0.0135


# Fresh interpreter: imports, config generation and load, build_hamiltonian.
SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from pathlib import Path
import entspread.cli
from entspread.chain import build_hamiltonian
from entspread.config import load_config
import workloads
config = load_config(workloads.write_config({workload!r}, {seed!r}, Path({work!r})))
build_hamiltonian(config.chain, 0)
"""


def host_probe() -> float:
    """Median time of PROBE_CHUNKS runs of a fixed kernel shaped like the propagator's
    inner loop: PROBE_MATVECS tridiagonal matvecs on 8001 complex sites."""
    import numpy as np

    rng = np.random.default_rng(0)
    psi = rng.normal(size=8001) + 1j * rng.normal(size=8001)
    diag, off = rng.normal(size=8001), rng.normal(size=8000)
    chunks = []
    for _ in range(PROBE_CHUNKS):
        started = time.perf_counter()
        for _ in range(PROBE_MATVECS):
            out = diag * psi
            out[:-1] += off * psi[1:]
            out[1:] += off * psi[:-1]
        chunks.append(time.perf_counter() - started)
    return statistics.median(chunks)


def pass_seconds(record: dict) -> float:
    """A pass's time; a short pass is scaled to the reference host speed measured around it."""
    if record["wall_s"] < BRACKETED_PASS_MAX_S and "host_slowdown" in record:
        return record["wall_s"] / record["host_slowdown"]
    return record["wall_s"]


def end_to_end_metrics(passes: list[dict], setup_s: float) -> dict[str, float]:
    ok = [p for p in passes if not p["errors"]]
    return {
        "samples_per_s": statistics.median(p["rows"] / pass_seconds(p) for p in ok) if ok else 0.0,
        "wall_s": statistics.median(pass_seconds(p) for p in (ok or passes)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": len(ok) / len(passes),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child (Linux reports KiB)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def run_context(workload: str, seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    usable = len(os.sched_getaffinity(0))
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu_model = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "nproc": os.cpu_count(), "usable_cpus": usable, "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "jobs": jobs, "oversubscribed": jobs > usable,
        "threads": {name: os.environ[name] for name in PINNED_THREADS},
        "aslr_off": layout_pinned(), "pythonhashseed": os.environ["PYTHONHASHSEED"],
    }


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median wall time of a fresh interpreter doing the set-up, over SETUP_REPEATS runs."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed,
                              work=str(work / "setup"))
    walls = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def pin_memory_layout() -> None:
    """Re-exec this process once with address-space randomization off and a fixed hash seed.

    Where the heap lands decides how the propagator's 128 KB state vectors
    alias in cache: on a 2-vCPU Xeon VM the desk chain evolved to t = 250 took
    4.1 s to 5.6 s from process to process, yet stayed within 8% inside each
    process.  With both fixed, a process's layout repeats from run to run.
    A hash seed already set is kept (pass_in_child sets one per pass), an
    unset one becomes 0.  Where personality(2) is unavailable, only the hash
    seed is fixed.
    """
    aslr_off = False
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        aslr_off = current != -1 and not current & ADDR_NO_RANDOMIZE \
            and libc.personality(current | ADDR_NO_RANDOMIZE) != -1
    hash_seed = os.environ.get("PYTHONHASHSEED", "random")
    if aslr_off or hash_seed == "random":
        env = dict(os.environ, **dict.fromkeys(PINNED_THREADS, "1"))
        env["PYTHONHASHSEED"] = "0" if hash_seed == "random" else hash_seed
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def layout_pinned() -> bool:
    if not sys.platform.startswith("linux"):
        return False
    current = ctypes.CDLL(None).personality(0xFFFFFFFF)
    return current != -1 and bool(current & ADDR_NO_RANDOMIZE)


def one_pass(index: int, label: str, run_one, checker, work: Path) -> dict:
    """Run, time and check one pass; a pass that raises is recorded as failed."""
    out_dir = work / f"pass{index:03d}"
    shutil.rmtree(out_dir, ignore_errors=True)
    record = {"pass": index, "kind": label, "rows": 0, "errors": []}
    started = time.perf_counter()
    try:
        record["output"] = run_one(out_dir)
        record["wall_s"] = time.perf_counter() - started
        record.update(checker(record["output"]))
    except Exception:  # a crashing pass is a failed pass, not a crashed benchmark
        record.setdefault("wall_s", time.perf_counter() - started)
        record["errors"] = [traceback.format_exc()]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return record


def pass_in_child(args, index: int) -> dict:
    """One timed pass in a fresh interpreter whose hash seed is the pass index.

    So each pass gets its own memory layout, the median over passes does not
    rest on one lucky or unlucky layout, and pass k has the same layout in
    every run.
    """
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--pass-index", str(index)],
        env=dict(os.environ, PYTHONHASHSEED=str(index)), cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        return {"pass": index, "kind": "untraced", "rows": 0, "wall_s": time.perf_counter() - started,
                "errors": [f"pass process exited {done.returncode}: {done.stderr[-4000:]}"]}
    return json.loads(done.stdout.splitlines()[-1])


def run_passes(run_one, until: float, passes: list[dict], at_least: int = 1) -> None:
    """Run passes, `run_one(index)` each, until the clock passes `until` and `at_least` have run."""
    first = len(passes)
    while True:
        record = run_one(len(passes))
        passes.append(record)
        for error in record["errors"]:
            print(f"pass {record['pass']} ({record['kind']}) FAILED: {error}", file=sys.stderr)
        if time.perf_counter() >= until and len(passes) - first >= at_least:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "entspread" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of an entspread checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    pin_memory_layout()
    sys.path[:0] = [str(SRC), str(HERE)]

    import checks
    import tracing
    import workloads
    from entspread.chain import build_hamiltonian
    from entspread.config import config_to_dict, load_config

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    jobs = workloads.SWEEP_JOBS if args.workload == "budget_sweep" else 1
    context = run_context(args.workload, args.seed, jobs)
    if context["oversubscribed"]:
        print(f"warning: {jobs} jobs on {context['usable_cpus']} usable CPU(s) oversubscribes", file=sys.stderr)

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def checker(output):
        errors, rows, observed = checks.check_pass(args.workload, args.seed, output)
        return {"errors": errors, "rows": rows, "observed_reference": observed,
                "work": tracing.pass_work(args.workload, config, output)}

    def untraced_one(index):
        return one_pass(index, "untraced", lambda d: workloads.run_pass(args.workload, config, d), checker, work)

    if args.pass_index is not None:
        config = load_config(workloads.write_config(args.workload, args.seed, work))
        before = host_probe()
        record = untraced_one(args.pass_index)
        record["host_slowdown"] = (before + host_probe()) / (2 * PROBE_REFERENCE_S)
        record.pop("output", None)
        print(json.dumps(record))
        return 0

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    passes: list[dict] = []
    tracer = tracing.Tracer()
    config_path = workloads.write_config(args.workload, args.seed, work)
    if args.trace:
        tracer.pass_id = "setup"
        for _ in range(LOAD_REPEATS):
            with tracer.span("config.load"):
                config = load_config(config_path)
            with tracer.span("chain.build"):
                build_hamiltonian(config.chain, 0)
    else:
        setup_s = measure_setup(args.workload, args.seed, work)
        config = load_config(config_path)
    raw = config_to_dict(config)

    report = {"context": context}
    started = time.perf_counter()
    if args.trace:
        run_passes(untraced_one, started + args.seconds / 2, passes)
        untraced = list(passes)

        def traced_one(index):
            tracer.pass_id = index
            return one_pass(index, "traced", lambda d: tracing.traced_pass(args.workload, config, raw, d, tracer),
                            checker, work)

        run_passes(traced_one, started + args.seconds, passes)
        traced = passes[len(untraced):]
        last = next((p for p in reversed(untraced) if "work" in p), None)
        if last is None or not all("work" in p for p in traced):
            metrics = dict.fromkeys(units, 0.0)
        else:
            metrics = tracing.layer_metrics(
                tracer.spans,
                {p["pass"]: p["wall_s"] for p in traced},
                [p["wall_s"] for p in untraced],
                last["work"],
                last["output"],
                last["wall_s"],
                jobs,
            )
        with (work / "spans.jsonl").open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        run_passes(lambda index: pass_in_child(args, index), started + args.seconds, passes, MIN_TIMED_PASSES)
        metrics = end_to_end_metrics(passes, setup_s)

    attempted = len(passes)
    failed = sum(1 for p in passes if p["errors"])
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} passes failed)")
    w = next((p["work"] for p in passes if "work" in p), None)
    if w is not None:
        print(f"{args.workload} work per pass: {w['matvecs']} matvecs, {w['site_updates']} site-updates "
              f"({w['site_updates_per_t']:.6g} per unit simulated time), {w['csv_rows']} CSV rows, "
              f"{w['csv_bytes']} CSV bytes (computed)")
    report.update({
        "metrics": metrics,
        "error_rate": failed / attempted,
        "passes": [{k: v for k, v in p.items() if k != "output"} for p in passes],
    })
    (work / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
