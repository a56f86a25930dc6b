"""BER of the six radio environments under one modulation.

The flat channels (AWGN-only, user-defined) and the short rural profile
drive the error count to zero once SNR is high enough, while the three
long-delay profiles (typical urban, bad urban, hilly terrain) hit error
floors: their channels change noticeably across an SFBC pair and across
the pilot spacing, so neither the combiner assumption nor the
interpolated channel estimate keeps up no matter how clean the signal is.

Usage: python3 demos/radio_environments.py [output_dir] [modulation]
"""

import dataclasses
import sys
from pathlib import Path

from sfbcsim import build_environment, emit_csv, emit_plot, load_config, run_sweep

PRESETS = Path(__file__).resolve().parents[1] / "src" / "sfbcsim" / "presets"

ENVIRONMENTS = ("awgn_only", "user_defined", "rural_area",
                "typical_urban", "bad_urban", "hilly_terrain")


def main(out_dir="demos/output", modulation="4"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    order = int(modulation)

    curves = []
    for env in ENVIRONMENTS:
        config = dataclasses.replace(
            load_config(PRESETS / f"table5_{env}.cfg"),
            modulation=order, name=env)
        spread = build_environment(env).rms_delay_spread_s() * 1e6
        print(f"sweeping {env} (rms delay spread {spread:.2f} us) ...")
        records = run_sweep(config)
        emit_csv(records, out / f"env_{env}_{order}qam.csv")
        curves.append((env, records))
        floor = min(r.ber for r in records)
        print(f"  lowest BER reached: {floor:.2e}")

    emit_plot(curves, out / f"environments_{order}qam.svg",
              title=f"SNR vs BER, {order}-QAM, six radio environments")
    print(f"wrote {out / f'environments_{order}qam.svg'}")


if __name__ == "__main__":
    main(*sys.argv[1:])
