"""Tests for scenario validation, single trials, and sweep behaviour."""

import math

import numpy as np
import pytest

from sfbcsim.grid import RB_BANDWIDTH_MHZ
from sfbcsim.harness import ScenarioConfig, derive_seed, run_sweep, run_trial
from sfbcsim.pilots import PilotPattern


def make_config(**overrides):
    defaults = dict(snr_db=(0.0,), modulation=4, environment="user_defined",
                    csi="estimated", pairing="mirror")
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_shipped_defaults_accepted(self):
        cfg = make_config()
        assert cfg.k_factor == 1000.0 and cfg.tx_corr == 0.5
        assert cfg.n_rb == 6 and cfg.dims().bandwidth_mhz == 1.4

    def test_bandwidth_pairing_enforced(self):
        # n_rb must come from the bandwidth table, and it alone sets the bandwidth
        with pytest.raises(ValueError):
            make_config(n_rb=7)
        assert make_config(n_rb=100).dims().bandwidth_mhz == 20.0

    def test_empty_snr_rejected(self):
        with pytest.raises(ValueError):
            make_config(snr_db=())

    def test_min_bits_floor(self):
        with pytest.raises(ValueError):
            make_config(min_bits=5000)

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError):
            make_config(environment="moon")

    def test_bad_pairing_and_csi_rejected(self):
        with pytest.raises(ValueError):
            make_config(pairing="serial")
        with pytest.raises(ValueError):
            make_config(csi="oracle")

    def test_default_max_bits_covers_configured_frames(self):
        cfg = make_config()
        assert cfg.effective_max_bits() == 4 * 10 * cfg.bits_per_trial()

    def test_config_hash_stable_and_sensitive(self):
        a, b = make_config(), make_config()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != make_config(seed=2).config_hash()

    def test_config_hash_covers_tap_table(self, tmp_path):
        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 0\n")
        cfg = make_config(env_file=str(taps))
        before = cfg.config_hash()
        taps.write_text("0.0 0\n0.4 -3\n")
        assert cfg.config_hash() != before
        assert cfg.metadata()["tap_powers_db"] == (0.0, -3.0)


class TestPairMaps:
    @pytest.mark.parametrize("pairing", ["adjacent", "mirror"])
    @pytest.mark.parametrize("n_rb", sorted(RB_BANDWIDTH_MHZ))
    def test_pairs_cover_each_data_re_once(self, n_rb, pairing):
        import sfbcsim.harness as h

        engine = h._engine(make_config(n_rb=n_rb, pairing=pairing))
        dims = engine.dims
        uses = np.zeros((dims.n_subcarriers, dims.n_symbols), dtype=int)
        np.add.at(uses, (engine.k0, engine.l), 1)
        np.add.at(uses, (engine.k1, engine.l), 1)
        pattern = PilotPattern(dims.n_subcarriers, dims.n_symbols)
        data = np.zeros_like(uses)
        for sym in range(dims.n_symbols):
            data[pattern.data_subcarriers(sym), sym] = 1
        assert np.array_equal(uses, data)
        for port in (0, 1):  # a pilot of one port is a null on the other
            for sym, k in pattern.pilot_positions(port):
                assert not uses[k, sym].any()
        assert np.all(np.diff(engine.l) >= 0)  # transmit order: symbol by symbol
        assert engine.symbols_per_subframe == int(data.sum())


class TestRunTrial:
    def test_noise_bypass_perfect_csi_awgn_only_is_exact(self):
        cfg = make_config(environment="awgn_only", csi="perfect")
        total = errors = 0
        t = 0
        while total < 100_000:
            bits, errs = run_trial(cfg, math.inf, t)
            total += bits
            errors += errs
            t += 1
        assert errors == 0

    def test_deep_negative_snr_near_coin_flip(self):
        cfg = make_config()
        total = errors = 0
        t = 0
        while total < 100_000:
            bits, errs = run_trial(cfg, -20.0, t)
            total += bits
            errors += errs
            t += 1
        assert 0.3 <= errors / total <= 0.5

    def test_bit_identical_repeats(self):
        cfg = make_config()
        assert run_trial(cfg, 8.0, 1234) == run_trial(cfg, 8.0, 1234)

    def test_different_seeds_differ(self):
        cfg = make_config()
        outcomes = {run_trial(cfg, 0.0, t)[1] for t in range(8)}
        assert len(outcomes) > 1

    def test_bits_per_trial_is_one_subframe(self):
        # 912 data REs per subframe (72*10 + 48*4) times bits per symbol
        for m, expected in ((4, 1824), (16, 3648), (64, 5472)):
            cfg = make_config(modulation=m)
            bits, _ = run_trial(cfg, math.inf, 0)
            assert bits == expected == cfg.bits_per_trial()


class TestRunSweep:
    def test_single_point_matches_manual_aggregation(self):
        cfg = make_config(snr_db=(2.0,))
        [record] = run_sweep(cfg)
        total = errors = 0
        for t in range(record.n_trials):
            bits, errs = run_trial(cfg, 2.0, derive_seed(cfg.seed, 1, 0, t))
            total += bits
            errors += errs
        assert (total, errors) == (record.total_bits, record.bit_errors)
        assert record.ber == errors / total
        assert record.seed == cfg.seed

    def test_records_in_snr_order(self):
        cfg = make_config(snr_db=(8.0, 0.0, 4.0))
        records = run_sweep(cfg)
        assert [r.snr_db for r in records] == [0.0, 4.0, 8.0]

    def test_monotone_up_to_mc_noise(self):
        cfg = make_config(snr_db=tuple(float(s) for s in range(0, 13, 2)))
        records = run_sweep(cfg)
        for lo, hi in zip(records, records[1:]):
            if lo.ber < 1e-2:
                assert hi.ber <= 2 * lo.ber or hi.bit_errors <= 5

    def test_stopping_rules(self):
        # at very low SNR the error target trips right after min_bits
        cfg = make_config(snr_db=(-10.0,), min_bits=10_000, max_bits=200_000)
        [record] = run_sweep(cfg)
        per_trial = cfg.bits_per_trial()
        assert record.total_bits == math.ceil(10_000 / per_trial) * per_trial
        assert record.bit_errors >= 100
        # at high SNR the point runs to max_bits
        cfg = make_config(snr_db=(30.0,), min_bits=10_000, max_bits=20_000)
        [record] = run_sweep(cfg)
        assert record.total_bits == math.ceil(20_000 / per_trial) * per_trial

    def test_worker_count_does_not_change_results(self):
        cfg = make_config(snr_db=(0.0, 6.0), max_bits=30_000)
        serial = run_sweep(cfg, n_jobs=1)
        parallel = run_sweep(cfg, n_jobs=4)
        for a, b in zip(serial, parallel):
            assert (a.snr_db, a.total_bits, a.bit_errors, a.n_trials, a.seed) == \
                   (b.snr_db, b.total_bits, b.bit_errors, b.n_trials, b.seed)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        import sfbcsim.harness as h

        pool_sizes = []

        class RecordingPool:  # runs the wave serially, starts no threads
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        serial = run_sweep(cfg, n_jobs=1)
        monkeypatch.setattr(h.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(h, "ThreadPoolExecutor", RecordingPool)
        capped = run_sweep(cfg, n_jobs=8)
        assert pool_sizes == [2]  # one pool per sweep
        for a, b in zip(serial, capped):
            assert (a.total_bits, a.bit_errors, a.n_trials) == \
                   (b.total_bits, b.bit_errors, b.n_trials)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(make_config(), n_jobs=0)

    def test_rewritten_tap_file_is_reread(self, tmp_path):
        import sfbcsim.harness as h

        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 0\n")
        cfg = make_config(env_file=str(taps), snr_db=(10.0,), max_bits=20_000)
        [flat] = run_sweep(cfg)
        taps.write_text("0.0 0\n5.0 0\n")
        [rewritten] = run_sweep(cfg)
        h._cached_engine.cache_clear()
        [fresh] = run_sweep(cfg)
        assert (rewritten.total_bits, rewritten.bit_errors) == \
               (fresh.total_bits, fresh.bit_errors)
        assert rewritten.bit_errors != flat.bit_errors

    def test_failed_point_recorded_and_sweep_continues(self, monkeypatch):
        import sfbcsim.harness as h

        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        engine = h._engine(cfg)
        original = type(engine).run

        def flaky(self, snr_db, trial_seed):
            if snr_db == 0.0:
                raise h.SimulationError("stage 'add_awgn' failed: boom")
            return original(self, snr_db, trial_seed)

        monkeypatch.setattr(type(engine), "run", flaky)
        records = run_sweep(cfg)
        assert records[0].error is not None and "add_awgn" in records[0].error
        assert records[0].total_bits == 0
        assert records[1].error is None and records[1].total_bits > 0

    def test_correlation_penalty(self):
        # high spatial correlation degrades BER at fixed SNR (3-sigma check)
        def ber_at(corr):
            cfg = make_config(k_factor=0.0, tx_corr=corr, rx_corr=corr,
                              csi="perfect", snr_db=(6.0,),
                              min_bits=150_000, max_bits=150_000)
            [r] = run_sweep(cfg)
            return r

        low, high = ber_at(0.0), ber_at(0.9)
        sigma = math.sqrt(low.ber * (1 - low.ber) / low.total_bits
                          + high.ber * (1 - high.ber) / high.total_bits)
        assert high.ber >= low.ber - 3 * sigma
        assert high.ber > low.ber


class TestEndToEndAgainstTheory:
    """On the identity channel with perfect CSI the combiner contributes an
    exact factor-2 SNR gain, so the whole chain must match the closed-form
    Gray M-QAM curve."""

    @pytest.mark.parametrize("modulation,snr_db", [(4, 4.0), (16, 11.0),
                                                   (64, 17.0)])
    def test_awgn_environment_matches_closed_form(self, modulation, snr_db):
        from qam_oracle import qam_ber_awgn

        cfg = make_config(modulation=modulation, environment="awgn_only",
                          csi="perfect", snr_db=(snr_db,),
                          min_bits=1_000_000, max_bits=1_000_000)
        [record] = run_sweep(cfg, n_jobs=2)
        theory = qam_ber_awgn(modulation, snr_db + 10 * math.log10(2.0))
        assert abs(record.ber - theory) / theory < 0.10

    def test_pairings_statistically_equivalent_on_flat_channel(self):
        bers = {}
        for pairing in ("adjacent", "mirror"):
            cfg = make_config(modulation=16, environment="awgn_only",
                              csi="perfect", pairing=pairing, snr_db=(6.0,),
                              min_bits=200_000, max_bits=200_000)
            [record] = run_sweep(cfg)
            bers[pairing] = record.ber
        assert abs(bers["adjacent"] - bers["mirror"]) < 0.1 * bers["mirror"]


class TestPerfectCsiBypass:
    @pytest.mark.parametrize("pairing", ["adjacent", "mirror"])
    @pytest.mark.parametrize("modulation", [4, 16, 64])
    def test_flat_environments_noiseless_zero_ber(self, pairing, modulation):
        for env in ("awgn_only", "user_defined"):
            cfg = make_config(environment=env, csi="perfect",
                              pairing=pairing, modulation=modulation)
            bits, errors = run_trial(cfg, math.inf, 0)
            assert errors == 0

    def test_estimated_csi_noiseless_flat_zero_ber(self):
        cfg = make_config(csi="estimated")
        bits, errors = run_trial(cfg, math.inf, 0)
        assert errors == 0
