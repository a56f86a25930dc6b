"""Print the SHA-256 of the CSV of every seed-1 preset sweep, one line each.

usage: python scripts/sweep_matrix.py SRC_DIR [--jobs N]

SRC_DIR is the `src` directory of a checkout; the `sfbcsim` package and its
presets are imported from there.  Each of the 7 presets runs at seed 1 for
every combination of 4/16/64-QAM, both pairings and both CSI modes, first at
its own 6 resource blocks, then again at 15, where a stack holds six trials,
and at 50, where it holds one (252 sweeps).  Each prints
`preset n_rb qam pairing csi sha256` of its CSV bytes.  Two checkouts that
must not change an output byte print identical lines.  `sweep_matrix.txt`
beside this script holds the lines the simulator prints today (numpy 2.4.6),
so a change that must keep every byte checks against it directly:

    python scripts/sweep_matrix.py src --jobs 2 | diff scripts/sweep_matrix.txt -

A change that means to alter output bytes regenerates that file and says why.
"""

import argparse
import dataclasses
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", type=Path, help="the src directory of a checkout")
    parser.add_argument("--jobs", type=int, default=1, help="run_sweep n_jobs (default 1)")
    args = parser.parse_args(argv)
    if not (args.src_dir / "sfbcsim").is_dir():
        parser.error(f"{args.src_dir} holds no sfbcsim package")

    sys.path.insert(0, str(args.src_dir.resolve()))
    import sfbcsim

    package = Path(sfbcsim.__file__).parent
    if package.parent != args.src_dir.resolve():
        parser.error(f"sfbcsim imported from {package}, not from {args.src_dir}")
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "sweep.csv"
        presets = sorted((package / "presets").glob("*.cfg"))
        for n_rb, preset in itertools.product((None, 15, 50), presets):
            base = sfbcsim.load_config(preset)
            if n_rb:
                base = dataclasses.replace(base, n_rb=n_rb)
            for qam, pairing, csi in itertools.product((4, 16, 64), ("adjacent", "mirror"),
                                                       ("perfect", "estimated")):
                config = dataclasses.replace(base, modulation=qam, pairing=pairing,
                                             csi=csi, seed=1)
                sfbcsim.emit_csv(sfbcsim.run_sweep(config, n_jobs=args.jobs), csv)
                digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                print(preset.stem, config.n_rb, qam, pairing, csi, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
