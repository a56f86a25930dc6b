"""BER against SNR for 4/16/64-QAM over the user-defined channel.

Runs the QAM-order comparison scenario (the table4 preset) once per
modulation with identical channel settings, then writes the three curves
to one SVG plot plus a CSV per order.  Higher orders need markedly more
SNR before the error count in 1e5 bits reaches zero; the threshold SNRs
print at the end.

Usage: python3 demos/qam_order_comparison.py [output_dir]
"""

import dataclasses
import sys
from pathlib import Path

from sfbcsim import emit_csv, emit_plot, load_config, run_sweep

PRESETS = Path(__file__).resolve().parents[1] / "src" / "sfbcsim" / "presets"


def main(out_dir="demos/output"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = load_config(PRESETS / "table4_user_defined.cfg")

    curves = []
    for order in (4, 16, 64):
        config = dataclasses.replace(base, modulation=order,
                                     name=f"{order}-QAM user-defined")
        print(f"sweeping {order}-QAM over {len(config.snr_db)} SNR points ...")
        records = run_sweep(config)
        emit_csv(records, out / f"qam{order}_user_defined.csv")
        curves.append((f"{order}-QAM", records))

        zero_points = [r.snr_db for r in records if r.bit_errors == 0]
        threshold = f"{min(zero_points):g} dB" if zero_points else "not reached"
        print(f"  first zero-error SNR ({config.max_bits} bits): {threshold}")

    emit_plot(curves, out / "qam_order_comparison.svg",
              title="SNR vs BER, 4/16/64-QAM, user-defined channel")
    print(f"wrote {out / 'qam_order_comparison.svg'}")


if __name__ == "__main__":
    main(*sys.argv[1:])
