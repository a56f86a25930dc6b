"""sfbcsim benchmark: µs per trial and simulated bits/s on fixed sweep workloads.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src` directory.  The workload's scenario files are generated from the
shipped presets and the seed under `.bench_build/perfbench/`, then whole
passes over the workload's sweeps are repeated for `--seconds` seconds.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over passes, set-up time as the median of fresh-process probes).
With `--trace 1` untraced and traced passes alternate and the last line
reports the per-layer metrics of `spans.TARGETS`.  The line before it
holds the provenance: machine, source digest, seed, exact point and trial
counts, and every sample behind each median.

Every pass's CSV bytes are checked (see `workloads.csv_problem`, the
recorded digests for the default seed, agreement across passes, traced
and untraced, and n_jobs=2 against n_jobs=1).  A sweep that fails a check
counts all its points as failed and the command exits with status 1.
Without a `src/sfbcsim` package it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
# glibc returns freed heap memory to the kernel by default, so a 50-RB
# trial takes ~1000 fresh page faults whose cost depends on the host (2x
# swings between runs in a VM).  Fixed thresholds keep the freed memory
# in the process; what is timed is the simulator's own work.
GLIBC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=134217728"
PROBE_TIMEOUT_S = 60
# span names reported per wrapped function (the harness and cli entry
# points get their own metrics below)
LAYER_FUNCTIONS = [name for name, _, _ in spans.TARGETS
                   if not name.startswith(("harness.", "cli."))]


def _import_package():
    if not (SRC / "sfbcsim" / "__init__.py").is_file():
        print(f"error: no sfbcsim package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sfbcsim
    if Path(sfbcsim.__file__).resolve().parent != SRC / "sfbcsim":
        print(f"error: imported {sfbcsim.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return sfbcsim


def _setup_seconds(scenario_paths) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *map(str, scenario_paths)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def _provenance(api) -> dict:
    import numpy
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = SRC / "sfbcsim"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and p.suffix in (".py", ".cfg")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sfbcsim": api.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _sweep_wall_s(passes) -> float:
    """Workload wall time: each sweep's median over passes, summed."""
    return sum(statistics.median([p.wall_s[name] for p in passes])
               for name in passes[0].wall_s)


def _us_per_trial(passes) -> float:
    return _sweep_wall_s(passes) / passes[0].total_trials * 1e6


def _layer_metrics(traced, untraced, span_totals, n_sweeps) -> dict:
    def med(fn):
        return statistics.median([fn(busy, calls, p.total_trials)
                                  for p, (busy, calls) in zip(traced, span_totals)])

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.self_us_per_trial"] = (
            med(lambda b, c, t: b.get(name, 0.0) / t * 1e6), "us")
        metrics[f"{name}.calls_per_trial"] = (
            med(lambda b, c, t: c.get(name, 0) / t), "1/trial")
    metrics["harness.run_sweep.self_us_per_trial"] = (
        med(lambda b, c, t: b["harness.run_sweep"] / t * 1e6), "us")
    metrics["harness.useful_trial_ratio"] = (
        med(lambda b, c, t: t / c["modem.generate_bits"]), "ratio")
    metrics["harness.cpu_s_per_wall_s"] = (
        statistics.median([p.cpu_s / p.total_wall_s for p in untraced]), "s/s")
    for name in ("cli.load_config", "cli.emit_csv"):
        metrics[f"{name}.self_ms_per_sweep"] = (
            med(lambda b, c, t: b[name] / n_sweeps * 1e3), "ms")
    metrics["trace.overhead_ratio"] = (
        _us_per_trial(traced) / _us_per_trial(untraced) - 1.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if os.environ.get("GLIBC_TUNABLES") != GLIBC_TUNABLES:
        # tunables are read at interpreter start: replace this process
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]],
                  {**os.environ, "GLIBC_TUNABLES": GLIBC_TUNABLES})
    api = _import_package()
    workload = workloads.WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-seed{args.seed}"
    presets = Path(api.__file__).resolve().parent / "presets"
    scenario_paths = workloads.write_scenarios(workload, args.seed, presets, work / "cfg")
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = workloads.load_digests()

    setup = ([_setup_seconds(scenario_paths) for _ in range(SETUP_PROBES)]
             if args.trace == 0 else [])

    # warm-up: build each config's engine before timing
    for path in scenario_paths:
        config = api.load_config(path)
        api.run_trial(config, min(config.snr_db), config.seed)

    untraced, traced, span_totals = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(workloads.run_pass(api, scenario_paths, out_dir, workload.n_jobs))
        if args.trace:
            with spans.Tracer() as tracer:
                traced.append(workloads.run_pass(api, scenario_paths, out_dir,
                                                 workload.n_jobs))
            span_totals.append(spans.self_times(tracer.spans))
    measured = untraced + traced

    reference = None
    if workload.same_bytes_as is not None:
        reference = workloads.run_pass(api, scenario_paths, out_dir, n_jobs=1)
    problems = workloads.check_passes(workload, args.seed, api, scenario_paths, measured,
                                      reference, digests)
    attempted = sum(sum(p.points.values()) for p in measured)
    failed = workloads.failed_points(measured, problems)
    correct = failed == 0

    one = untraced[0]
    if args.trace == 0:
        metrics = {
            "us_per_trial": (_us_per_trial(untraced), "us"),
            "sim_bits_per_s": (sum(one.bits.values()) / _sweep_wall_s(untraced), "bits/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = _layer_metrics(traced, untraced, span_totals, len(scenario_paths))

    provenance = {
        "workload": workload.name, "seed": args.seed, "n_jobs": workload.n_jobs,
        "trace": args.trace, "seconds": args.seconds,
        "machine": _provenance(api),
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "points_per_pass": sum(one.points.values()),
        "trials_per_pass": one.total_trials,
        "bits_per_pass": sum(one.bits.values()),
        "sweeps": {name: {"points": one.points[name], "trials": one.trials[name],
                          "bits": one.bits[name], "problem": problems[name]}
                   for name in one.points},
        "failed_ratio": failed / attempted,
        "samples": {
            "untraced_sweep_wall_s": {name: [p.wall_s[name] for p in untraced]
                                      for name in one.wall_s},
            "traced_pass_wall_s": [p.total_wall_s for p in traced],
            "setup_s": setup,
        },
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
