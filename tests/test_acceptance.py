"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
Criteria are asserted at their stated tolerances; nothing is calibrated at
runtime.
"""

import math
import time
from pathlib import Path

import numpy as np

import sfbcsim as s

from qam_oracle import qam_ber_awgn

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "sfbcsim" / "presets"


def report(number, name, ok, detail=""):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return line


def accumulate(config, snr_db, min_bits, seed_offset=0):
    """Run trials of `config` at one SNR until at least min_bits."""
    total = errors = 0
    t = seed_offset
    while total < min_bits:
        bits, errs = s.run_trial(config, snr_db, t)
        total += bits
        errors += errs
        t += 1
    return total, errors


def sweep_point(snr_db, n_bits, **config):
    cfg = s.ScenarioConfig(snr_db=(float(snr_db),), min_bits=n_bits,
                           max_bits=n_bits, **config)
    [record] = s.run_sweep(cfg)
    return record


def test_criterion_1_zero_ber_sanity():
    """Perfect CSI + noise bypass over every environment whose delay fits
    the cyclic prefix, every modulation, every pairing: BER exactly 0."""
    start = time.perf_counter()
    dims = s.GridDimensions(6)
    qualifying = [name for name in ("awgn_only", "user_defined", "rural_area",
                                    "typical_urban", "bad_urban", "hilly_terrain")
                  if s.build_environment(name).max_delay_s <= dims.cp_duration_s]
    failures = []
    for env in qualifying:
        for pairing in ("adjacent", "mirror"):
            for modulation in (4, 16, 64):
                cfg = s.ScenarioConfig(snr_db=(0.0,), modulation=modulation,
                                       environment=env, pairing=pairing,
                                       csi="perfect")
                total, errors = accumulate(cfg, math.inf, 100_000)
                if errors != 0:
                    failures.append(f"{env}/{pairing}/{modulation}-QAM:"
                                    f"{errors}/{total}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    detail = (f"environments={qualifying}, {elapsed:.1f}s"
              + (f"; nonzero BER at {', '.join(failures)}" if failures else ""))
    line = report(1, "zero-BER sanity", ok, detail)
    assert ok, line


def test_criterion_2_combiner_exactness():
    """1000 random 2x2 channels, noiseless pairs: combiner error < 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1000
    h = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h00, h01 = h[:, 0, 0], h[:, 0, 1]
    h10, h11 = h[:, 1, 0], h[:, 1, 1]
    y00 = x0 * h00 + x1 * h10
    y01 = x0 * h01 + x1 * h11
    y10 = np.conj(x0) * h10 - np.conj(x1) * h00
    y11 = np.conj(x0) * h11 - np.conj(x1) * h01
    out0, out1 = s.sfbc_decode(y00, y01, y10, y11, h)
    err = max(np.max(np.abs(out0 - x0)), np.max(np.abs(out1 - x1)))
    elapsed = time.perf_counter() - start
    ok = err < 1e-10 and elapsed < 1.0
    line = report(2, "combiner exactness", ok,
                  f"max error {err:.2e}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_3_awgn_oracle():
    """SISO M-QAM over AWGN matches the closed-form Gray BER within 10 %."""
    start = time.perf_counter()
    points = {4: (7.3, 9.8), 16: (13.9, 16.5), 64: (19.8, 22.6)}
    worst = 0.0
    for order, snrs in points.items():
        const = s.QamConstellation(order)
        n_bits = 2_000_000 // const.bits_per_symbol * const.bits_per_symbol
        bits = s.generate_bits(n_bits, seed=order)
        syms = s.modulate(bits, const)
        for i, snr_db in enumerate(snrs):
            rx = s.add_awgn(syms, snr_db, 1.0, seed=1000 * order + i)
            _, ber = s.bit_errors(bits, s.demodulate(rx, const))
            theory = qam_ber_awgn(order, snr_db)
            assert 5e-4 <= theory <= 2e-2
            worst = max(worst, abs(ber - theory) / theory)
    elapsed = time.perf_counter() - start
    ok = worst < 0.10 and elapsed < 60.0
    line = report(3, "AWGN closed-form oracle", ok,
                  f"worst relative error {worst:.3f}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_qam_order_zero_ber_thresholds():
    """User-defined channel, default settings, estimated CSI: lowest SNR
    with zero errors in 1e5 bits within +-3 dB of 9/22/33 dB."""
    start = time.perf_counter()
    targets = {4: (9.0, range(4, 17)), 16: (22.0, range(14, 30)),
               64: (33.0, range(20, 40))}
    details, ok = [], True
    for modulation, (target, grid) in targets.items():
        first_zero = None
        for snr in grid:
            record = sweep_point(snr, 100_000, modulation=modulation,
                                 environment="user_defined", csi="estimated")
            if record.bit_errors == 0:
                first_zero = snr
                break
        in_band = first_zero is not None and abs(first_zero - target) <= 3.0
        ok &= in_band
        details.append(f"{modulation}-QAM first zero at {first_zero} dB vs "
                       f"{target:g}+-3 [{'in band' if in_band else 'OUT OF BAND'}]")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    line = report(4, "QAM-order zero-BER thresholds", ok,
                  "; ".join(details) + f", {elapsed:.0f}s")
    assert ok, line


def test_criterion_5_error_floor_reproduction():
    """Typical urban / bad urban / hilly terrain: BER falls up to ~20 dB
    then flattens, with BER(40) within 3x of BER(30)."""
    start = time.perf_counter()
    failures = []
    for env in ("typical_urban", "bad_urban", "hilly_terrain"):
        for modulation in (4, 16, 64):
            bers = {}
            for snr in (0, 10, 20, 30, 40):
                record = sweep_point(snr, 100_000, modulation=modulation,
                                     environment=env, csi="estimated")
                bers[snr] = record.ber
            decreasing = bers[0] > bers[10] > bers[20]
            lo, hi = sorted((bers[30], bers[40]))
            flat = lo > 0 and hi <= 3 * lo
            if not (decreasing and flat):
                failures.append(f"{env}/{modulation}-QAM {bers}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    line = report(5, "error-floor reproduction", ok,
                  f"{elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""))
    assert ok, line


def test_criterion_6_qam_ordering():
    """Wherever BER >= 1e-3, higher QAM order has higher BER (3-sigma)."""
    start = time.perf_counter()
    grid = (0, 2, 4, 6, 8, 10)
    curves = {}
    for modulation in (4, 16, 64):
        curves[modulation] = {
            snr: sweep_point(snr, 100_000, modulation=modulation,
                             environment="user_defined", csi="estimated")
            for snr in grid
        }
    failures, comparisons = [], 0
    for low, high in ((4, 16), (16, 64)):
        for snr in grid:
            a, b = curves[low][snr], curves[high][snr]
            if a.ber < 1e-3 or b.ber < 1e-3:
                continue
            comparisons += 1
            sigma = math.sqrt(a.ber * (1 - a.ber) / a.total_bits
                              + b.ber * (1 - b.ber) / b.total_bits)
            if not b.ber > a.ber - 3 * sigma:
                failures.append(f"{high} vs {low} at {snr} dB: {b.ber:.3e} "
                                f"!> {a.ber:.3e}")
    elapsed = time.perf_counter() - start
    ok = not failures and comparisons >= 6
    line = report(6, "QAM ordering", ok,
                  f"{comparisons} comparisons, {elapsed:.0f}s"
                  + ("; " + "; ".join(failures) if failures else ""))
    assert ok, line


def test_criterion_7_diversity_trend():
    """Flat Rayleigh, perfect CSI, 4-QAM: BER drops by more than 2.5
    decades between 10 and 20 dB (>= 1e7 bits per point)."""
    start = time.perf_counter()
    bers = {}
    for snr in (10.0, 20.0):
        record = sweep_point(snr, 10_000_000, modulation=4,
                             environment="user_defined", k_factor=0.0,
                             tx_corr=0.0, rx_corr=0.0, csi="perfect")
        # zero observed errors count as the measurement floor 1/total_bits
        bers[snr] = max(record.ber, 1.0 / record.total_bits)
    drop = math.log10(bers[10.0] / bers[20.0])
    elapsed = time.perf_counter() - start
    ok = drop > 2.5 and elapsed < 300.0
    line = report(7, "diversity trend", ok,
                  f"BER 10 dB {bers[10.0]:.2e} -> 20 dB {bers[20.0]:.2e}, "
                  f"drop {drop:.2f} decades, {elapsed:.0f}s")
    assert ok, line


def test_criterion_8_determinism(tmp_path):
    """Every Table V sweep twice with one worker and once with eight:
    byte-identical CSV output."""
    start = time.perf_counter()
    mismatches = []
    for preset in sorted(PRESET_DIR.glob("table5_*.cfg")):
        config = s.load_config(preset)
        outputs = []
        for run, jobs in (("a", 1), ("b", 1), ("c", 8)):
            records = s.run_sweep(config, n_jobs=jobs)
            out = tmp_path / f"{preset.stem}_{run}.csv"
            s.emit_csv(records, out)
            outputs.append(out.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatches.append(preset.stem)
    elapsed = time.perf_counter() - start
    ok = not mismatches
    line = report(8, "determinism (reruns and workers)", ok,
                  f"6 scenarios x 3 runs, {elapsed:.0f}s"
                  + ("; mismatched: " + ", ".join(mismatches) if mismatches else ""))
    assert ok, line


def test_criterion_9_structural_invariants():
    """Gray labels, constellation energy, codeword orthogonality, pilot
    duality, interpolation knots, OFDM round trip, tap normalization."""
    start = time.perf_counter()
    checks = {}

    # Gray property and unit energy
    for order in (4, 16, 64):
        const = s.QamConstellation(order)
        checks[f"energy{order}"] = abs(np.mean(np.abs(const.points) ** 2) - 1) < 1e-12
        step = 2.0 / math.sqrt(2.0 * (order - 1) / 3.0)
        gray = True
        for a in range(order):
            for b in range(a + 1, order):
                d = const.points[a] - const.points[b]
                if (abs(abs(d.real) - step) < 1e-9 and abs(d.imag) < 1e-9) or \
                   (abs(abs(d.imag) - step) < 1e-9 and abs(d.real) < 1e-9):
                    gray &= bin(a ^ b).count("1") == 1
        checks[f"gray{order}"] = gray

    # codeword orthogonality
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    codeword = np.array([[x[0], -np.conj(x[1])], [x[1], np.conj(x[0])]])
    gram = codeword @ codeword.conj().T
    checks["orthogonality"] = np.max(np.abs(
        gram - (abs(x[0]) ** 2 + abs(x[1]) ** 2) * np.eye(2))) < 1e-12

    # pilot/null duality
    pattern = s.PilotPattern(72)
    plan = s.PilotPlan(pattern, seed=1)
    grids = np.zeros((2, 72, 14), dtype=complex)
    s.insert_pilots(grids, plan)
    duality = True
    for port in (0, 1):
        for symbol, ks in pattern.pilot_positions(port):
            duality &= bool(np.all(grids[1 - port, ks, symbol] == 0))
            duality &= bool(np.allclose(np.abs(grids[port, ks, symbol]), 1.0))
    checks["pilot duality"] = duality

    # interpolator passes through its knots
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(plan.k.shape) + 1j * rng.standard_normal(plan.k.shape)
    est = s.interpolate_channel(samples, plan)
    checks["interpolation knots"] = all(
        np.max(np.abs(est[port, plan.k[port], plan.l[port]] - samples[port])) < 1e-10
        for port in (0, 1))

    # OFDM round trip
    v = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    t = s.ofdm_modulate(s.zero_pad(v, 128), 128, 10)
    checks["ofdm round trip"] = np.max(
        np.abs(s.ofdm_demodulate(t, 128, 10, 72) - v)) < 1e-10

    # tap power normalization
    checks["tap normalization"] = all(
        abs(s.build_environment(n).powers_linear.sum() - 1) < 1e-12
        for n in ("awgn_only", "user_defined", "rural_area", "typical_urban",
                  "bad_urban", "hilly_terrain"))

    elapsed = time.perf_counter() - start
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < 10.0
    line = report(9, "structural invariants", ok,
                  f"{len(checks)} checks, {elapsed:.1f}s"
                  + ("; failed: " + ", ".join(failed) if failed else ""))
    assert ok, line
