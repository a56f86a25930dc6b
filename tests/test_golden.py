"""Golden-output gate: exact sweep results for a small fixed-seed matrix.

Every refactor of the trial chain or the sweep loop must reproduce these
rows bit for bit, with one worker and with two.  The matrix covers both
pairings, both CSI modes, the identity channel, the flat user-defined tap
and three multipath environments, one QAM order each, with SNR points that
stop on the error target and on the bit budget.  The two long-delay
environments run at 50 RB, the rest at 6 RB.  A change that alters
these rows alters the simulator's output; it must not regenerate them to
pass.
"""

import pytest

from sfbcsim.harness import ScenarioConfig, run_sweep

QAM_ORDER = {"awgn_only": 4, "user_defined": 16, "typical_urban": 64,
             "bad_urban": 16, "hilly_terrain": 4}
N_RB = {"bad_urban": 50, "hilly_terrain": 50}

# (environment, pairing, csi) -> [(snr_db, total_bits, bit_errors, n_trials)]
GOLDEN = {
    ("awgn_only", "adjacent", "perfect"):
        [(2.0, 10944, 417, 6), (10.0, 25536, 0, 14), (20.0, 25536, 0, 14)],
    ("awgn_only", "adjacent", "estimated"):
        [(2.0, 10944, 1404, 6), (10.0, 25536, 22, 14), (20.0, 25536, 0, 14)],
    ("awgn_only", "mirror", "perfect"):
        [(2.0, 10944, 374, 6), (10.0, 25536, 0, 14), (20.0, 25536, 0, 14)],
    ("awgn_only", "mirror", "estimated"):
        [(2.0, 10944, 1397, 6), (10.0, 25536, 17, 14), (20.0, 25536, 0, 14)],
    ("user_defined", "adjacent", "perfect"):
        [(2.0, 10944, 1808, 3), (10.0, 10944, 164, 3), (20.0, 25536, 0, 7)],
    ("user_defined", "adjacent", "estimated"):
        [(2.0, 10944, 2823, 3), (10.0, 10944, 674, 3), (20.0, 25536, 3, 7)],
    ("user_defined", "mirror", "perfect"):
        [(2.0, 10944, 1753, 3), (10.0, 10944, 171, 3), (20.0, 25536, 0, 7)],
    ("user_defined", "mirror", "estimated"):
        [(2.0, 10944, 2888, 3), (10.0, 10944, 682, 3), (20.0, 25536, 3, 7)],
    ("typical_urban", "adjacent", "perfect"):
        [(2.0, 10944, 3016, 2), (10.0, 10944, 1377, 2), (20.0, 10944, 247, 2)],
    ("typical_urban", "adjacent", "estimated"):
        [(2.0, 10944, 3901, 2), (10.0, 10944, 2218, 2), (20.0, 10944, 726, 2)],
    ("typical_urban", "mirror", "perfect"):
        [(2.0, 10944, 4027, 2), (10.0, 10944, 3213, 2), (20.0, 10944, 3340, 2)],
    ("typical_urban", "mirror", "estimated"):
        [(2.0, 10944, 4419, 2), (10.0, 10944, 3357, 2), (20.0, 10944, 3441, 2)],
    ("bad_urban", "adjacent", "perfect"):
        [(2.0, 30400, 6185, 1), (10.0, 30400, 2018, 1), (20.0, 30400, 521, 1)],
    ("bad_urban", "adjacent", "estimated"):
        [(2.0, 30400, 9562, 1), (10.0, 30400, 5071, 1), (20.0, 30400, 2313, 1)],
    ("bad_urban", "mirror", "perfect"):
        [(2.0, 30400, 12909, 1), (10.0, 30400, 11994, 1), (20.0, 30400, 10719, 1)],
    ("bad_urban", "mirror", "estimated"):
        [(2.0, 30400, 13318, 1), (10.0, 30400, 12245, 1), (20.0, 30400, 11050, 1)],
    ("hilly_terrain", "adjacent", "perfect"):
        [(2.0, 15200, 1129, 1), (10.0, 15200, 110, 1), (20.0, 30400, 125, 2)],
    ("hilly_terrain", "adjacent", "estimated"):
        [(2.0, 15200, 2496, 1), (10.0, 15200, 397, 1), (20.0, 15200, 148, 1)],
    ("hilly_terrain", "mirror", "perfect"):
        [(2.0, 15200, 4564, 1), (10.0, 15200, 4523, 1), (20.0, 15200, 3983, 1)],
    ("hilly_terrain", "mirror", "estimated"):
        [(2.0, 15200, 5167, 1), (10.0, 15200, 4573, 1), (20.0, 15200, 3952, 1)],
}


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("environment,pairing,csi", sorted(GOLDEN))
def test_sweep_rows_match_golden(environment, pairing, csi, n_jobs):
    cfg = ScenarioConfig(snr_db=(20.0, 2.0, 10.0), modulation=QAM_ORDER[environment],
                         n_rb=N_RB.get(environment, 6), environment=environment, pairing=pairing, csi=csi,
                         speed_kmh=60.0, min_bits=10_000, max_bits=25_000, seed=7)
    records = run_sweep(cfg, n_jobs=n_jobs)
    assert all(r.error is None for r in records)
    rows = [(r.snr_db, r.total_bits, r.bit_errors, r.n_trials) for r in records]
    assert rows == GOLDEN[(environment, pairing, csi)]
