"""What pilot-based channel estimation costs relative to perfect knowledge.

First measures the raw estimator: root-mean-square error of the
interpolated channel estimate against the true flat channel as pilot SNR
grows.  Then compares end-to-end BER curves with estimated versus perfect
channel state information on the same scenario; the gap between the two
curves is the estimation penalty (a decibel or two for this pilot
density).

Usage: python3 demos/channel_estimation_quality.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from sfbcsim import (GridDimensions, PilotPattern, PilotPlan, ScenarioConfig,
                     add_awgn, emit_plot, estimate_channel, insert_pilots,
                     run_sweep)


def estimator_rms_vs_snr():
    dims = GridDimensions(6)
    plan = PilotPlan(PilotPattern(dims.n_subcarriers), seed=11)
    h = np.array([[1.0 + 0.2j, 0.4 - 0.6j], [-0.3 + 0.8j, 0.7 + 0.1j]])
    tx = insert_pilots(np.zeros((2, 72, 14), dtype=complex), plan)
    clean = np.einsum("mn,mkt->nkt", h, tx)
    true = np.empty((2, 2, 72, 14), dtype=complex)
    for m in (0, 1):
        for n in (0, 1):
            true[m, n] = h[m, n]

    print("pilot SNR -> channel estimate RMS error (flat 2x2 channel)")
    for snr_db in (0, 10, 20, 30):
        errs = []
        for trial in range(40):
            noisy = add_awgn(clean, float(snr_db), 1.0, seed=1000 * snr_db + trial)
            est = estimate_channel(noisy, plan)
            errs.append(np.sqrt(np.mean(np.abs(est - true) ** 2)))
        print(f"  {snr_db:3d} dB: {np.mean(errs):.4f}")


def ber_estimated_vs_perfect(out: Path):
    curves = []
    for csi in ("perfect", "estimated"):
        config = ScenarioConfig(
            snr_db=tuple(float(v) for v in range(0, 15, 2)),
            modulation=4, environment="user_defined", csi=csi,
            min_bits=100_000, max_bits=100_000, name=f"{csi} CSI")
        print(f"sweeping with {csi} CSI ...")
        curves.append((f"{csi} CSI", run_sweep(config)))
    emit_plot(curves, out / "csi_comparison.svg",
              title="4-QAM, user-defined channel: estimated vs perfect CSI")
    print(f"wrote {out / 'csi_comparison.svg'}")


def main(out_dir="demos/output"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    estimator_rms_vs_snr()
    ber_estimated_vs_perfect(out)


if __name__ == "__main__":
    main(*sys.argv[1:])
