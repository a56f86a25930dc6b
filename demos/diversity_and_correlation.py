"""Diversity waterfall of the 2x2 scheme and the antenna-correlation penalty.

Over a flat Rayleigh channel (K = 0) with perfect channel knowledge the
2x2 arrangement combines four independently fading links, so the BER
curve falls off far steeper than a single-antenna link would.  Raising
the antenna cross-correlation makes the four links fade together and eats
into exactly that gain, which the three curves below show directly.

Usage: python3 demos/diversity_and_correlation.py [output_dir]
"""

import math
import sys
from pathlib import Path

from sfbcsim import ScenarioConfig, emit_csv, emit_plot, run_sweep


def main(out_dir="demos/output"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    curves = []
    for corr in (0.0, 0.5, 0.9):
        config = ScenarioConfig(
            snr_db=tuple(float(v) for v in range(0, 21, 2)),
            modulation=4, environment="user_defined", csi="perfect",
            k_factor=0.0, tx_corr=corr, rx_corr=corr,
            min_bits=100_000, max_bits=400_000,
            name=f"correlation {corr:g}")
        print(f"sweeping flat Rayleigh, correlation {corr:g} ...")
        records = run_sweep(config)
        emit_csv(records, out / f"rayleigh_corr{int(corr * 10):02d}.csv")
        curves.append((f"corr {corr:g}", records))

    for label, records in curves:
        by_snr = {r.snr_db: r.ber for r in records}
        drop = math.log10(max(by_snr[10.0], 1e-12) / max(by_snr[20.0], 1e-12))
        print(f"  {label}: BER(10 dB) = {by_snr[10.0]:.2e}, "
              f"BER(20 dB) = {by_snr[20.0]:.2e}  ({drop:.1f} decades)")

    emit_plot(curves, out / "diversity_correlation.svg",
              title="Flat Rayleigh, perfect CSI, 4-QAM: correlation penalty")
    print(f"wrote {out / 'diversity_correlation.svg'}")


if __name__ == "__main__":
    main(*sys.argv[1:])
