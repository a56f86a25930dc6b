"""Benchmark workloads: scenario generation, one timed pass, output checks.

A workload is a list of sweeps.  Each sweep is a shipped preset with a
few fields overridden; the workload seed replaces the preset's `seed`.
The scenario files are written out and then driven through the public
API exactly as a user would: `load_config` -> `run_sweep` -> `emit_csv`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"
DEFAULT_SEED = 1  # the presets' own seed; digests.json holds its outputs

CSV_HEADER = "snr_db,total_bits,bit_errors,ber,n_trials,seed"
QAM_ORDERS = (4, 16, 64)
MULTIPATH_PRESETS = ("table5_rural_area", "table5_typical_urban",
                     "table5_bad_urban", "table5_hilly_terrain")


@dataclass(frozen=True)
class Sweep:
    name: str
    preset: str
    overrides: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple[Sweep, ...]
    n_jobs: int = 1
    # workload whose n_jobs=1 bytes this one must reproduce for any seed
    same_bytes_as: str | None = None


def _qam_sweeps(preset: str, **overrides) -> tuple[Sweep, ...]:
    return tuple(
        Sweep(f"{preset}_qam{m}", preset,
              tuple(sorted({**overrides, "modulation": str(m)}.items())))
        for m in QAM_ORDERS)


_FLAT = _qam_sweeps("table4_user_defined")

WORKLOADS = {
    w.name: w for w in (
        Workload("flat_estimated",
                 "Table IV matrix: tiny 6-RB grids, single tap, estimated CSI; "
                 "per-call overhead and the pilot estimator dominate",
                 _FLAT),
        Workload("multipath_perfect_wideband",
                 "four COST 207 environments at 50 RB with perfect CSI: no estimator, "
                 "per-RE arithmetic and multi-tap channel synthesis dominate",
                 sum((_qam_sweeps(p, csi="perfect", n_rb="50", bandwidth_mhz="10")
                      for p in MULTIPATH_PRESETS), ())),
        Workload("flat_estimated_jobs2",
                 "flat_estimated with n_jobs=2, the only workload that enters "
                 "the harness thread pool and its speculative waves",
                 _FLAT, n_jobs=2, same_bytes_as="flat_estimated"),
    )
}


def write_scenarios(workload: Workload, seed: int, presets_dir: Path, out_dir: Path,
                    extra: dict[str, str] | None = None) -> list[Path]:
    """Write one scenario file per sweep; `extra` overrides every sweep."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for sweep in workload.sweeps:
        overrides = {**dict(sweep.overrides), "seed": str(seed), **(extra or {})}
        seen = set()
        lines = []
        for raw in (presets_dir / f"{sweep.preset}.cfg").read_text().splitlines():
            body = raw.split("#", 1)[0]
            key = body.partition("=")[0].strip()
            if "=" in body and key in overrides:
                raw = f"{key} = {overrides[key]}"
                seen.add(key)
            lines.append(raw)
        missing = set(overrides) - seen
        if missing:
            raise ValueError(f"preset {sweep.preset} lacks fields {sorted(missing)}")
        path = out_dir / f"{sweep.name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


@dataclass
class PassResult:
    """One pass over every sweep of a workload; dicts are keyed by sweep name."""

    wall_s: dict[str, float]  # load_config + run_sweep + emit_csv
    cpu_s: float
    csv: dict[str, bytes]
    points: dict[str, int]
    errors: dict[str, int]  # points whose BerRecord carries `error`
    trials: dict[str, int]
    bits: dict[str, int]

    @property
    def total_wall_s(self) -> float:
        return sum(self.wall_s.values())

    @property
    def total_trials(self) -> int:
        return sum(self.trials.values())


def run_pass(api, scenario_paths: list[Path], out_dir: Path, n_jobs: int) -> PassResult:
    """Drive every scenario through load_config -> run_sweep -> emit_csv.

    The package functions are looked up on `api` at call time, so a tracer
    that rebinds them sees these calls.
    """
    result = PassResult({}, 0.0, {}, {}, {}, {}, {})
    cpu0 = time.process_time()
    for path in scenario_paths:
        name, csv_path = path.stem, out_dir / f"{path.stem}.csv"
        start = time.perf_counter()
        config = api.load_config(path)
        records = api.run_sweep(config, n_jobs=n_jobs)
        try:
            api.emit_csv(records, csv_path)
        except ValueError:  # every point failed: nothing to emit
            csv_path.write_bytes(b"")
        result.wall_s[name] = time.perf_counter() - start
        measured = [r for r in records if r.error is None]
        result.csv[name] = csv_path.read_bytes()
        result.points[name] = len(records)
        result.errors[name] = len(records) - len(measured)
        result.trials[name] = sum(r.n_trials for r in measured)
        result.bits[name] = sum(r.total_bits for r in measured)
    result.cpu_s = time.process_time() - cpu0
    return result


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def csv_problem(data: bytes, config) -> str | None:
    """Why the CSV bytes of one sweep are malformed, or None if they are sound.

    Checks what must hold for any seed: the frozen header, one row per SNR
    point in ascending order, the seed column, whole subframes of bits,
    at least `min_bits` per point and `ber` equal to errors / bits.
    """
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return "header or trailing newline differs"
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        try:
            if len(fields) != 6:
                raise ValueError
            rows.append((float(fields[0]), int(fields[1]), int(fields[2]),
                         float(fields[3]), int(fields[4]), int(fields[5])))
        except ValueError:
            return f"unparsable row {line!r}"
    if [r[0] for r in rows] != sorted(config.snr_db):
        return "SNR column differs from the scenario"
    per_trial = config.bits_per_trial()
    for snr, bits, errors, ber, trials, seed in rows:
        if seed != config.seed:
            return f"seed column {seed} != {config.seed}"
        if trials < 1 or bits != trials * per_trial or bits < config.min_bits:
            return f"snr {snr}: {bits} bits from {trials} trials of {per_trial}"
        if not 0 <= errors <= bits or ber != errors / bits:
            return f"snr {snr}: ber {ber} != {errors}/{bits}"
    return None


def check_passes(workload: Workload, seed: int, api, scenario_paths: list[Path],
                 passes: list[PassResult], reference: PassResult | None,
                 digests: dict[str, str]) -> dict[str, str | None]:
    """Problem per sweep name, None where every check passed.

    The first pass must be sound (`csv_problem`), every other pass (traced
    or not) must repeat its bytes, `reference` (n_jobs=1) must equal it,
    and at the default seed its SHA-256 must match `digests`.
    """
    problems = {}
    for path in scenario_paths:
        name = path.stem
        first = passes[0].csv[name]
        problem = csv_problem(first, api.load_config(path))
        if problem is None and any(p.csv[name] != first for p in passes):
            problem = "CSV bytes differ between passes (traced or untraced)"
        if problem is None and reference is not None and reference.csv[name] != first:
            problem = f"CSV bytes differ from {workload.same_bytes_as} (n_jobs=1)"
        if (problem is None and seed == DEFAULT_SEED
                and digests.get(name) != sha256(first)):
            problem = "CSV SHA-256 differs from the recorded digest"
        problems[name] = problem
    return problems


def failed_points(passes: list[PassResult], problems: dict[str, str | None]) -> int:
    """Every point of a sweep with a problem fails; elsewhere, points with `error`."""
    return sum(p.points[name] if problems[name] else p.errors[name]
               for p in passes for name in problems)
