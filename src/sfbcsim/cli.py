"""Configuration loading, sweep orchestration, and result emission.

Scenario files are flat `key = value` text (``#`` starts a comment); the
keys are the ScenarioConfig field names, plus the fixed keys of the paper's
link, which are checked and dropped.  Results are written as CSV with
the frozen column set ``snr_db,total_bits,bit_errors,ber,n_trials,seed``,
as JSON carrying the scenario metadata block, or as a self-contained SVG
plot of BER against SNR.  All three are deterministic functions of the
records.  The ``SFBCSIM_SEED`` environment variable overrides the seed in
the file; an explicit ``--seed`` flag overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import html
import json
import math
import os
import sys
from pathlib import Path

from .channel import ENVIRONMENT_NAMES, build_environment
from .grid import RB_BANDWIDTH_MHZ
from .harness import BerRecord, ScenarioConfig, SimulationError, run_sweep

FORMAT_VERSION = 3

CSV_HEADER = "snr_db,total_bits,bit_errors,ber,n_trials,seed"


class ConfigError(ValueError):
    """A scenario file failed to parse or validate."""


# one parser per ScenarioConfig field type (the annotations are strings)
_TYPE_PARSERS = {
    "tuple[float, ...]": lambda text: tuple(float(p) for p in text.replace(",", " ").split()),
    "int": int,
    "int | None": lambda text: None if text.lower() in ("auto", "none") else int(text),
    "float": float,
    "str": str,
    "str | None": str,
}

_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type]
                  for f in dataclasses.fields(ScenarioConfig)}


def _one_of(*allowed: str):
    def check(key: str, text: str, config: ScenarioConfig) -> None:
        if text.lower() not in allowed:
            raise ValueError(f"{key} must be {' or '.join(allowed)}, got {text!r}")
    return check


def _pairs_with_n_rb(key: str, text: str, config: ScenarioConfig) -> None:
    mhz = RB_BANDWIDTH_MHZ[config.n_rb]
    if not abs(float(text) - mhz) <= 1e-9:  # NaN too
        raise ValueError(f"{config.n_rb} resource blocks pair with {mhz} MHz, "
                         f"not {float(text)} MHz")


# Keys of the paper's fixed 2x2 SFBC LTE FDD downlink frame: accepted only with
# these values (case-insensitive) and not stored, as the simulation reads none
# of them.  Fading follows k_factor whatever the channel_type; n_rb sets the
# bandwidth and the FFT length, and max_bits (by default four frames) the budget.
_FIXED_KEYS = {
    "transmission_mode": _one_of("sfbc_2x2_downlink"),
    "duplex": _one_of("fdd"),
    "tdd_config": _one_of("0"),
    "structure": _one_of("frame"),
    "channel_type": _one_of("rayleigh", "rician"),
    "bandwidth_mhz": _pairs_with_n_rb,
    "fft_size": _one_of("auto"),
    "n_frames": _one_of("4"),
}


def load_config(path) -> ScenarioConfig:
    """Parse and validate one scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    try:
        content = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(content.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _FIELD_PARSERS and key not in _FIXED_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate field {key!r}")
        try:
            values[key] = _FIELD_PARSERS.get(key, str)(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from None
    if "snr_db" not in values:
        raise ConfigError(f"{path}: missing required field 'snr_db'")
    values.setdefault("name", path.stem)
    fixed = {key: values.pop(key) for key in _FIXED_KEYS if key in values}
    try:
        config = ScenarioConfig(**values)
        for key, text in fixed.items():
            _FIXED_KEYS[key](key, text, config)
    except (ValueError, OSError) as exc:  # OSError: an unreadable env_file
        raise ConfigError(f"{path}: {exc}") from None
    return config


def _format_float(value: float) -> str:
    return repr(float(value))


def emit_csv(records: list[BerRecord], path) -> None:
    """Write records with the frozen CSV schema (header row mandatory).

    Failed points carry no measurement and are skipped (the schema has no
    error column); emitting nothing but failures is an error.
    """
    if not records:
        raise ValueError("no records to emit")
    measured = [r for r in records if r.error is None]
    if not measured:
        raise ValueError("every sweep point failed, nothing to emit")
    lines = [CSV_HEADER]
    for r in measured:
        lines.append(f"{_format_float(r.snr_db)},{r.total_bits},{r.bit_errors},"
                     f"{_format_float(r.ber)},{r.n_trials},{r.seed}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_json(records: list[BerRecord], path, config: ScenarioConfig) -> None:
    """Write records plus the scenario metadata block as JSON."""
    if not records:
        raise ValueError("no records to emit")
    rows = []
    for r in records:
        row = {"snr_db": r.snr_db, "total_bits": r.total_bits,
               "bit_errors": r.bit_errors, "ber": r.ber,
               "n_trials": r.n_trials, "seed": r.seed}
        if r.error is not None:
            row["error"] = r.error
        rows.append(row)
    payload = {"format_version": FORMAT_VERSION, "records": rows,
               "scenario": {**config.metadata(), "config_hash": config.config_hash()}}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# fixed palette for plot curves
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(record_sets: list[tuple[str, list[BerRecord]]], path,
              title: str = "BER vs SNR") -> None:
    """Render semilog-y BER curves as a self-contained SVG file.

    Zero-BER points are drawn as open triangles at the measurement floor
    1/total_bits instead of entering the log-scale curve.
    """
    if not record_sets:
        raise ValueError("no record sets to plot")
    # labels and title are XML text: escape &, < and >
    title = html.escape(title, quote=False)
    record_sets = [(html.escape(label, quote=False), [r for r in recs if r.error is None])
                   for label, recs in record_sets]
    if not any(recs for _, recs in record_sets):
        raise ValueError("no measured points to plot")
    width, height = 720, 540
    left, right, top, bottom = 76, 24, 48, 64
    plot_w, plot_h = width - left - right, height - top - bottom

    snrs = [r.snr_db for _, recs in record_sets for r in recs]
    positive = [r.ber for _, recs in record_sets for r in recs if r.ber > 0]
    floors = [1.0 / r.total_bits for _, recs in record_sets for r in recs if r.ber == 0]
    x_lo, x_hi = min(snrs), max(snrs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    y_lo_exp = math.floor(math.log10(min(positive + floors))) if (positive or floors) else -6
    y_hi_exp = math.ceil(math.log10(max(positive))) if positive else 0
    y_hi_exp = max(y_hi_exp, y_lo_exp + 1)

    def sx(snr: float) -> float:
        return left + (snr - x_lo) / (x_hi - x_lo) * plot_w

    def sy(ber: float) -> float:
        e = math.log10(ber)
        return top + (y_hi_exp - e) / (y_hi_exp - y_lo_exp) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # frame and gridlines
    parts.append(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="black"/>')
    for e in range(y_lo_exp, y_hi_exp + 1):
        y = sy(10.0 ** e)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">1e{e}</text>')
    x_step = max(1, round((x_hi - x_lo) / 8))
    tick = math.ceil(x_lo / x_step) * x_step
    while tick <= x_hi:
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + plot_h}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{tick:g}</text>')
        tick += x_step
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 16}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="14">SNR (dB)</text>')
    parts.append(f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">BER</text>')

    for idx, (label, recs) in enumerate(record_sets):
        color = _COLORS[idx % len(_COLORS)]
        pts = [(sx(r.snr_db), sy(r.ber)) for r in sorted(recs, key=lambda r: r.snr_db)
               if r.ber > 0]
        if len(pts) >= 2:
            poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(f'<polyline points="{poly}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        for r in recs:
            if r.ber == 0:
                x, y = sx(r.snr_db), sy(1.0 / r.total_bits)
                parts.append(
                    f'<path d="M {x:.2f} {y + 5:.2f} L {x - 5:.2f} {y - 4:.2f} '
                    f'L {x + 5:.2f} {y - 4:.2f} Z" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>')
        ly = top + 16 + 18 * idx
        parts.append(f'<line x1="{left + plot_w - 150}" y1="{ly - 4}" '
                     f'x2="{left + plot_w - 120}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{left + plot_w - 112}" y="{ly}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfbcsim",
                     description="LTE downlink SFBC 2x2 MIMO link-level simulator")
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser("sweep", help="run a BER/SNR sweep from a scenario file")
    sweep.add_argument("config", help="scenario file (key = value lines)")
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--plot", action="store_true", help="also write an SVG plot")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="processes that share out the SNR points (at most the "
                            "usable CPUs; output bytes do not depend on it)")

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("config")

    sub.add_parser("envs", help="list radio environments and their tap tables")
    return parser


def _resolve_seed(config: ScenarioConfig, flag_seed: int | None) -> ScenarioConfig:
    seed, source = config.seed, "config"
    env_seed = os.environ.get("SFBCSIM_SEED")
    if env_seed is not None:
        try:
            seed, source = int(env_seed), "SFBCSIM_SEED"
        except ValueError:
            raise ConfigError(f"SFBCSIM_SEED must be an integer, got {env_seed!r}")
    if flag_seed is not None:
        seed, source = flag_seed, "--seed"
    try:
        return dataclasses.replace(config, seed=seed)  # rereads any env_file
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _cmd_sweep(args) -> int:
    config = _resolve_seed(load_config(args.config), args.seed)
    records = run_sweep(config, n_jobs=args.jobs)
    for r in records:
        print(f"snr={r.snr_db:g} dB  failed: {r.error}" if r.error is not None else
              f"snr={r.snr_db:g} dB  bits={r.total_bits}  errors={r.bit_errors}  "
              f"ber={r.ber:.3e}  trials={r.n_trials}")
    if all(r.error is not None for r in records):
        raise SimulationError("every sweep point failed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem
    if args.format == "csv":
        out = out_dir / f"{stem}.csv"
        emit_csv(records, out)
    else:
        out = out_dir / f"{stem}.json"
        emit_json(records, out, config)
    print(f"wrote {out}")
    if args.plot:
        svg = out_dir / f"{stem}.svg"
        emit_plot([(config.name or stem, records)], svg,
                  title=f"{config.modulation}-QAM, {config.environment}")
        print(f"wrote {svg}")
    return 0


def _cmd_validate(args) -> int:
    config = _resolve_seed(load_config(args.config), None)
    print(f"OK: {args.config} ({config.name}, modulation={config.modulation}, "
          f"environment={config.environment}, {len(config.snr_db)} SNR points)")
    return 0


def _cmd_envs() -> int:
    for name in ENVIRONMENT_NAMES:
        env = build_environment(name)
        taps = ", ".join(f"({d * 1e6:g} us, {p:g} dB)"
                         for d, p in zip(env.delays_s, env.powers_db))
        note = "  [identity channel]" if name == "awgn_only" else ""
        print(f"{name}: {taps}{note}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_envs()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
