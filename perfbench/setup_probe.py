"""Measure set-up time of one workload in a fresh interpreter.

Usage: python3 setup_probe.py SCENARIO.cfg [SCENARIO.cfg ...]

Times `import sfbcsim` (numpy included), loading every scenario file and
the first trial of each config, which builds the per-config engine, and
prints the elapsed seconds.  The package is imported from the `src`
directory next to this benchmark.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(paths: list[str]) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sfbcsim

    for path in paths:
        config = sfbcsim.load_config(path)
        sfbcsim.run_trial(config, min(config.snr_db), config.seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
