"""Tests for scenario validation, single trials, and sweep behaviour."""

import dataclasses
import math
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trial_oracle
from sfbcsim.channel import ENVIRONMENT_NAMES
from sfbcsim.grid import RB_BANDWIDTH_MHZ
from sfbcsim.harness import (ScenarioConfig, SimulationError, derive_seed, run_sweep,
                             run_trial, seed_sequence_state, trial_states)
from sfbcsim.pilots import PilotPattern


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="sweeps fork only on POSIX")


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two usable CPUs, so a sweep forks at most one child on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


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
        # max_bits if set, else 4 frames x 10 subframes, never below min_bits; at
        # 1000 dB no trial errs, so a point runs until the budget is spent
        assert make_config().bits_per_trial() == 1824
        for overrides, n_trials in [({}, 40), ({"max_bits": 30_000}, math.ceil(30_000 / 1824)),
                                    ({"min_bits": 80_000}, math.ceil(80_000 / 1824))]:
            [record] = run_sweep(make_config(snr_db=(1000.0,), **overrides))
            assert record.bit_errors == 0 and record.n_trials == n_trials

    @pytest.mark.parametrize("field,value", [("modulation", 4.0), ("n_rb", 6.0),
                                             ("min_bits", 10_000.0), ("max_bits", 20_000.5),
                                             ("seed", 1.5)])
    def test_integer_fields_take_integers_only(self, field, value):
        with pytest.raises(TypeError):
            make_config(**{field: value})
        with pytest.raises(TypeError):
            dataclasses.replace(make_config(), **{field: value})
        # numpy integers pass, stored (and so hashed) as the int they equal
        numpy_int = make_config(**{field: np.int64(value)})
        assert type(getattr(numpy_int, field)) is int
        assert numpy_int.config_hash() == make_config(**{field: int(value)}).config_hash()

    def test_listed_snrs_match_the_tuple_form(self):
        listed = make_config(snr_db=[6.0, 0.0], max_bits=12_000)
        as_tuple = make_config(snr_db=(6.0, 0.0), max_bits=12_000)
        assert listed == as_tuple and listed.config_hash() == as_tuple.config_hash()
        assert run_sweep(listed) == run_sweep(as_tuple)
        assert run_trial(listed, 6.0, 3) == run_trial(as_tuple, 6.0, 3)
        assert listed.bits_per_trial() == as_tuple.bits_per_trial()

    @pytest.mark.parametrize("snr_db", [1000.5, -1001.0, 3085.0, -4000.0, math.nan, math.inf])
    def test_snr_beyond_the_noise_stage_rejected(self, snr_db):
        with pytest.raises(ValueError, match=r"snr_db values must lie in \[-1000, 1000\] dB"):
            make_config(snr_db=(0.0, snr_db))

    @pytest.mark.parametrize("csi", ["perfect", "estimated"])
    def test_snr_range_edges_run_clean(self, csi):
        cfg = make_config(snr_db=(-1000.0, 1000.0), csi=csi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid value on the way
            assert run_trial(cfg, 1000.0, 1) == (1824, 0)
            bits, errors = run_trial(cfg, -1000.0, 1)
        assert bits == 1824 and 800 < errors < 1024  # a coin flip, from finite samples

    def test_equal_scenarios_hash_equal(self):
        """Equal values, whatever their type or spelling, store and hash as one scenario."""
        ref = make_config(snr_db=(0.0, 2.0), environment="typical_urban", k_factor=1000.0)
        for cfg in (make_config(snr_db=(0, 2), environment="TypicalUrban", k_factor=1000),
                    make_config(snr_db=np.array([0.0, 2.0]), environment="typical-urban"),
                    make_config(snr_db=[0, 2.0], environment="typical_urban", speed_kmh=3,
                                carrier_freq_ghz=np.float64(2.7), tx_corr=0.5, rx_corr=0.5)):
            assert cfg == ref and cfg.config_hash() == ref.config_hash()
            assert all(type(s) is float for s in cfg.snr_db) and cfg.environment == "typical_urban"
        assert type(make_config(tx_corr=1, rx_corr=0).rx_corr) is float
        with pytest.raises(TypeError):
            make_config(snr_db="0")

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

        engine = h._TrialEngine(make_config(n_rb=n_rb, pairing=pairing))
        dims = engine.dims
        # flat index k * n_symbols + l: the pairs' first REs, then their second
        re0, re1 = np.split(engine.used[:engine.symbols_per_subframe], 2)
        uses = np.zeros((dims.n_subcarriers, dims.n_symbols), dtype=int)
        np.add.at(uses.reshape(-1), re0, 1)
        np.add.at(uses.reshape(-1), re1, 1)
        pattern = PilotPattern(dims.n_subcarriers)
        data = np.zeros_like(uses)
        for sym in range(dims.n_symbols):
            data[pattern.data_subcarriers(sym), sym] = 1
        assert np.array_equal(uses, data)
        for port in (0, 1):  # a pilot of one port is a null on the other
            for sym, k in pattern.pilot_positions(port):
                assert not uses[k, sym].any()
        # transmit order: symbol by symbol, both REs of a pair in one symbol
        assert np.all(np.diff(re0 % dims.n_symbols) >= 0)
        assert np.array_equal(re0 % dims.n_symbols, re1 % dims.n_symbols)
        assert engine.symbols_per_subframe == int(data.sum())
        # the estimate is read in (l, k) order, at each pair's first RE
        k, l = np.divmod(re0, dims.n_symbols)
        assert np.array_equal(engine.re0_estimate, l * dims.n_subcarriers + k)

    def test_data_on_a_pilot_re_fails_the_build(self, monkeypatch):
        """The layout refuses a pair map that puts data on a pilot or null RE,
        once per grid, naming the first symbol where it happens."""
        import sfbcsim.harness as h

        monkeypatch.setattr(PilotPattern, "data_subcarriers",
                            lambda self, symbol: np.arange(self.n_subcarriers))
        with pytest.raises(RuntimeError, match="pilot positions at symbol 0 already carry data"):
            h._TrialEngine(make_config(seed=2**40 + 11))  # a grid no other test caches


class TestStageCounts:
    """Per-trial calls of pilot and OFDM functions once the grid's layout is cached.

    Counting wrappers sit at the `sfbcsim.pilots` and `sfbcsim.harness`
    attributes, where the engine looks the functions up and where an outside
    tracer wraps them.
    """

    @pytest.mark.parametrize("csi,estimates", [("estimated", 1), ("perfect", 0)])
    def test_pilot_calls_per_trial(self, monkeypatch, csi, estimates):
        import sfbcsim.harness as h
        import sfbcsim.pilots as pilots

        cfg = make_config(csi=csi)
        h._TrialEngine(cfg)
        calls = dict.fromkeys(("pilot_values", "insert_pilots", "estimate_channel",
                               "normalize_pilots", "interpolate_channel"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(pilots, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(pilots, name, counted)
        n_trials = 3
        for t in range(n_trials):
            run_trial(cfg, 10.0, t)
        # the pilots are part of the cached transmit values, and the engine
        # estimates from its flat received vector, not from a grid
        assert calls == {"pilot_values": 0, "insert_pilots": 0, "estimate_channel": 0,
                         "normalize_pilots": estimates * n_trials,
                         "interpolate_channel": estimates * n_trials}

    @pytest.mark.parametrize("n_rb", [6, 50])
    def test_one_noise_draw_and_channel_contraction_per_stack(self, monkeypatch, n_rb):
        """However wide a stack, its noise is drawn and its channel applied by
        one call each, in a sweep as alone."""
        import sfbcsim.channel as chan
        import sfbcsim.harness as h

        cfg = make_config(n_rb=n_rb, snr_db=(0.0, 4.0, 8.0, 12.0, 16.0), max_bits=40_000)
        calls = dict.fromkeys(("run", "draw_noise", "apply_channel", "add_awgn"), 0)
        original_run = h._TrialEngine.run

        def counted_run(self, snr_db, states):
            calls["run"] += 1
            return original_run(self, snr_db, states)

        monkeypatch.setattr(h._TrialEngine, "run", counted_run)
        for name in ("draw_noise", "apply_channel", "add_awgn"):
            def counted(*args, _name=name, _fn=getattr(chan, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(chan, name, counted)
        h._TrialEngine(cfg).run([10.0, math.inf, 3.0], trial_states([3, 4, 5]))
        assert calls == {"run": 1, "draw_noise": 1, "apply_channel": 1, "add_awgn": 0}
        run_sweep(cfg)
        assert calls["draw_noise"] == calls["apply_channel"] == calls["run"] > 1
        assert calls["add_awgn"] == 0

    @pytest.mark.parametrize("csi", ["estimated", "perfect"])
    def test_no_ofdm_round_trip_per_trial(self, monkeypatch, csi):
        import sfbcsim.harness as h

        cfg = make_config(csi=csi)
        h._TrialEngine(cfg)
        calls = dict.fromkeys(("zero_pad", "ofdm_modulate", "ofdm_demodulate"), 0)
        for name in calls:  # raises if the harness no longer binds the name
            def counted(*args, _name=name, _fn=getattr(h, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(h, name, counted)
        for t in range(3):
            run_trial(cfg, 10.0, t)
        h._TrialEngine(cfg).run([10.0, math.inf, 3.0], trial_states([3, 4, 5]))
        assert calls == dict.fromkeys(calls, 0)

    def test_one_pilot_plan_per_grid(self, monkeypatch):
        """Every QAM order, CSI mode and tap table on one grid shares one pilot
        plan: one pilot_values call per port.  Another pairing, seed or n_rb
        gets its own."""
        import sfbcsim.harness as h
        import sfbcsim.pilots as pilots

        calls, original = [], pilots.pilot_values

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pilots, "pilot_values", counted)
        seed = 2**40 + 7  # no other test's seed, so nothing is cached yet
        for modulation in (4, 16, 64):
            for csi in ("estimated", "perfect"):
                run_trial(make_config(seed=seed, modulation=modulation, csi=csi), 10.0, 0)
        assert len(calls) == 2
        for change, new_plans in ((dict(pairing="adjacent"), 1), (dict(seed=seed + 1), 1),
                                  (dict(n_rb=15), 1), (dict(environment="rural_area"), 0)):
            calls.clear()
            h._TrialEngine(make_config(**{"seed": seed, **change}))
            assert len(calls) == 2 * new_plans, change


def numpy_state(entropy, key, n_words):
    return np.random.SeedSequence(entropy, spawn_key=key).generate_state(n_words, np.uint64)


class TestSeedSplitting:
    """The vectorised splitting rule against numpy's SeedSequence, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(entropy=st.integers(0, 2**200), key_len=st.integers(0, 3), data=st.data())
    def test_matches_seed_sequence(self, entropy, key_len, data):
        keys = data.draw(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=key_len,
                                           max_size=key_len), min_size=1, max_size=64))
        for n_words in (1, 4):  # a first uint64 and a PCG64 state
            got = seed_sequence_state(entropy, np.array(keys, dtype=np.uint32), n_words)
            assert np.array_equal(got, [numpy_state(entropy, tuple(k), n_words) for k in keys])

    @settings(max_examples=30, deadline=None)
    @given(entropies=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
           key=st.lists(st.integers(0, 2**32 - 1), max_size=3))
    def test_uint64_lanes_match_seed_sequence(self, entropies, key):
        for n_words in (1, 4):
            got = seed_sequence_state(np.array(entropies, dtype=np.uint64), key, n_words)
            assert np.array_equal(got, [numpy_state(e, tuple(key), n_words) for e in entropies])

    @pytest.mark.parametrize("entropy", [0, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("key", [(), (0,), (2,), (1, 0, 39), (1, 5, 2**32 - 1)])
    def test_edge_words(self, entropy, key):
        assert derive_seed(entropy, *key) == numpy_state(entropy, key, 1)[0]
        assert np.array_equal(seed_sequence_state(entropy, key, 4), numpy_state(entropy, key, 4))

    def test_trial_states_seed_the_default_generators(self):
        import sfbcsim.harness as h

        seeds = [0, 2**32, 2**64 - 1, derive_seed(1, 1, 0, 3)]
        states = trial_states(seeds)
        assert states.shape == (4, 3, 4) and states.dtype == np.uint64
        # a single trial's rows too: PCG64 reads each row's memory as it lies
        for seed, row in [*zip(seeds, states), (5, trial_states([5])[0])]:
            for j, words in enumerate(row):
                ours = np.random.Generator(np.random.PCG64(h._StoredState(words)))
                theirs = np.random.default_rng(trial_oracle.derive_seed(seed, j))
                assert ours.bit_generator.state == theirs.bit_generator.state
                assert np.array_equal(ours.standard_normal(8), theirs.standard_normal(8))
                assert np.array_equal(ours.integers(0, 2, 64), theirs.integers(0, 2, 64))

    def test_out_of_range_input_rejected(self):
        with pytest.raises(OverflowError):
            seed_sequence_state(1, [2**32])
        with pytest.raises(ValueError):
            derive_seed(-1, 0)


configs = st.builds(
    make_config, n_rb=st.sampled_from(sorted(RB_BANDWIDTH_MHZ)),
    environment=st.sampled_from(ENVIRONMENT_NAMES), pairing=st.sampled_from(["adjacent", "mirror"]),
    csi=st.sampled_from(["estimated", "perfect"]), modulation=st.sampled_from([4, 16, 64]),
    seed=st.integers(0, 2**32))
snrs = st.one_of(st.floats(-10.0, 40.0), st.just(math.inf))
trial_seeds = st.integers(0, 2**64 - 1)


class TestAgainstTrialOracle:
    """The harness must return exactly the (bits, errors) of the module-only chain."""

    @settings(max_examples=30, deadline=None)
    @given(cfg=configs, snr_db=snrs, trial_seed=trial_seeds)
    def test_run_trial_matches_oracle(self, cfg, snr_db, trial_seed):
        assert run_trial(cfg, snr_db, trial_seed) == \
            trial_oracle.run_trial(cfg, snr_db, trial_seed)

    @settings(max_examples=30, deadline=None)
    @given(cfg=configs, trials=st.lists(st.tuples(snrs, trial_seeds), min_size=1, max_size=16))
    def test_stacked_run_matches_oracle(self, cfg, trials):
        import sfbcsim.harness as h

        snr_db, seeds = zip(*trials)
        assert h._TrialEngine(cfg).run(snr_db, trial_states(seeds)) == \
            [trial_oracle.run_trial(cfg, snr, seed) for snr, seed in trials]


class TestStackWidth:
    """A stack's width follows from its resource-element budget, and its
    working set stays within a bound per trial."""

    @pytest.mark.parametrize("n_rb,width", [(6, 16), (15, 6), (25, 3), (50, 1), (75, 1),
                                            (100, 1)])
    def test_trials_per_stack(self, n_rb, width):
        import sfbcsim.harness as h

        assert h._TrialEngine(make_config(n_rb=n_rb)).width == width

    def test_wide_stack_peak_memory_per_trial(self):
        """A full 6-RB stack with estimated CSI peaks at no more traced memory a
        trial than four-trial stacks did (207 KiB) before the stacks widened."""
        import tracemalloc

        import sfbcsim.harness as h

        engine = h._TrialEngine(make_config())
        snr_db, states = [10.0] * engine.width, trial_states(range(engine.width))
        engine.run(snr_db, states)  # whatever a first run sets up stays out of the trace
        tracemalloc.start()
        try:
            engine.run(snr_db, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine.width == 16
        assert peak <= 207 * 1024 * engine.width


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

    def test_none_snr_fails_the_noise_stage(self):
        # +inf is the only noiseless SNR
        with pytest.raises(SimulationError, match="add_awgn"):
            run_trial(make_config(), None, 0)

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
    # the default seed, then master seeds of one, two, three and five 32-bit words
    @pytest.mark.parametrize("seed", [1, 0, 2**32, 2**64 + 5, 2**130 + 1])
    def test_single_point_matches_manual_aggregation(self, seed):
        cfg = make_config(snr_db=(2.0,), seed=seed)
        [record] = run_sweep(cfg)
        total = errors = 0
        for t in range(record.n_trials):  # trial seeds from numpy's SeedSequence
            bits, errs = run_trial(cfg, 2.0, trial_oracle.derive_seed(seed, 1, 0, t))
            total += bits
            errors += errs
        assert (total, errors) == (record.total_bits, record.bit_errors)
        assert record.ber == errors / total
        assert record.seed == cfg.seed

    def test_records_in_snr_order(self):
        cfg = make_config(snr_db=(8.0, 0.0, 4.0))
        records = run_sweep(cfg)
        assert [r.snr_db for r in records] == [0.0, 4.0, 8.0]
        # 0.0 and -0.0 compare equal: the ascending order keeps them as listed
        for snrs, signs in [((6.0, -0.0, 0.0), [-1.0, 1.0, 1.0]),
                            ((0.0, -0.0, 6.0), [1.0, -1.0, 1.0])]:
            records = run_sweep(make_config(snr_db=snrs, max_bits=10_000))
            assert [math.copysign(1.0, r.snr_db) for r in records] == signs

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
        assert serial == parallel

    def test_reruns_give_equal_records(self, two_cpus):
        """Records compare and hash by their measurement, not by their timing."""
        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        first, again = run_sweep(cfg), run_sweep(cfg)
        assert first == again == run_sweep(cfg, n_jobs=2)
        assert [r.wall_time for r in first] != [r.wall_time for r in again]
        assert {*first, *again} == set(first) and len(set(first)) == 2
        assert first[0] != dataclasses.replace(first[0], error="boom")

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_no_trial_runs_past_the_stop(self, monkeypatch, tmp_path, two_cpus, n_jobs):
        import sfbcsim.harness as h

        # forked children count into a shared file: appends of one line are atomic
        log = tmp_path / "stacks.txt"
        original = h._TrialEngine.run

        def counted(self, snr_db, states):
            with open(log, "a") as f:
                f.write(f"{len(states)}\n")
            return original(self, snr_db, states)

        monkeypatch.setattr(h._TrialEngine, "run", counted)
        # 12,000 bits take 7 trials of 1,824 bits: an odd count per point
        cfg = make_config(snr_db=(0.0, 6.0), min_bits=12_000, max_bits=12_000)
        records = run_sweep(cfg, n_jobs=n_jobs)
        assert [r.n_trials for r in records] == [7, 7]
        assert sum(map(int, log.read_text().split())) == sum(r.n_trials for r in records)

    def test_stages_run_once_per_stack(self, monkeypatch):
        import sfbcsim.harness as h
        import sfbcsim.modem as modem
        import sfbcsim.sfbc as sfbc

        calls = dict.fromkeys(("run", "trials", "generate_bits", "sfbc_encode"), 0)
        original_run = h._TrialEngine.run

        def counted_run(self, snr_db, states):
            calls["run"] += 1
            calls["trials"] += len(states)
            return original_run(self, snr_db, states)

        monkeypatch.setattr(h._TrialEngine, "run", counted_run)
        for module, name in ((modem, "generate_bits"), (sfbc, "sfbc_encode")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        # five 6-RB points: one stack of five a step, while all are open
        records = run_sweep(make_config(snr_db=(0.0, 2.0, 4.0, 6.0, 8.0), max_bits=12_000))
        assert calls["trials"] == sum(r.n_trials for r in records)
        assert calls["generate_bits"] == calls["trials"]
        assert calls["sfbc_encode"] == calls["run"] < calls["trials"]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(make_config(), n_jobs=0)
        with pytest.raises(TypeError):
            run_sweep(make_config(), n_jobs=2.0)

    @needs_fork
    def test_workers_capped_at_cpus_and_points(self, monkeypatch, two_cpus):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        run_sweep(make_config(snr_db=(0.0, 2.0, 4.0, 6.0), max_bits=12_000), n_jobs=64)
        assert len(forks) == 1
        run_sweep(make_config(snr_db=(0.0,), max_bits=12_000), n_jobs=64)
        assert len(forks) == 1

    def test_without_fork_runs_serially(self, monkeypatch):
        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        serial = run_sweep(cfg)
        monkeypatch.delattr(os, "fork", raising=False)
        assert run_sweep(cfg, n_jobs=2) == serial

    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds in /proc")
    @pytest.mark.parametrize("fault,message", [("child raises", "ValueError: boom"),
                                               ("child exits", "exit status 7"),
                                               ("parent raises", "boom")])
    def test_failed_share_raises_and_leaves_no_child_or_fd(self, monkeypatch, two_cpus,
                                                           fault, message):
        import sfbcsim.harness as h

        parent, original = os.getpid(), h._TrialEngine.run

        def broken(self, snr_db, states):
            in_child = os.getpid() != parent
            if fault == "child exits" and in_child:
                os._exit(7)
            if fault == "parent raises" and in_child:
                time.sleep(30)  # only a kill ends this share in time
            if in_child == fault.startswith("child"):
                raise ValueError("boom")
            return original(self, snr_db, states)

        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        h._TrialEngine(cfg)
        monkeypatch.setattr(h._TrialEngine, "run", broken)
        open_fds = len(os.listdir("/proc/self/fd"))
        start = time.perf_counter()
        with pytest.raises((RuntimeError, ValueError), match=message):
            run_sweep(cfg, n_jobs=2)
        assert time.perf_counter() - start < 15
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_rewritten_tap_file_is_reread(self, tmp_path):
        import sfbcsim.harness as h

        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 0\n")
        cfg = make_config(env_file=str(taps), snr_db=(10.0,), max_bits=20_000)
        [flat] = run_sweep(cfg)
        taps.write_text("0.0 0\n5.0 0\n")
        [rewritten] = run_sweep(cfg)
        h._layout.cache_clear()
        h.chan.phase_ramp.cache_clear()
        [fresh] = run_sweep(cfg)
        assert (rewritten.total_bits, rewritten.bit_errors) == \
               (fresh.total_bits, fresh.bit_errors)
        assert rewritten.bit_errors != flat.bit_errors

    def test_failed_point_recorded_and_sweep_continues(self, monkeypatch):
        import sfbcsim.harness as h

        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        engine = h._TrialEngine(cfg)
        original = type(engine).run
        clean = run_sweep(cfg)
        # the 0 dB point's fourth trial, spotted by its generator states
        failing = trial_states(derive_seed(cfg.seed, 1, 0, 3))

        def flaky(self, snr_db, states):
            if any(np.array_equal(row, failing) for row in states):
                raise h.SimulationError("stage 'add_awgn' failed: boom")
            return original(self, snr_db, states)

        monkeypatch.setattr(type(engine), "run", flaky)
        records = run_sweep(cfg)
        assert records[0].error is not None and "add_awgn" in records[0].error
        assert records[0].total_bits == 0 and records[0].n_trials == 3
        assert records[1].error is None and records[1].total_bits > 0
        assert records[1] == clean[1]

    def test_failed_point_in_child_share_matches_serial(self, monkeypatch, two_cpus):
        import sfbcsim.harness as h

        cfg = make_config(snr_db=(0.0, 6.0), max_bits=12_000)
        engine = h._TrialEngine(cfg)
        original = type(engine).run
        clean = run_sweep(cfg)
        # the 6 dB point's fourth trial: the second share, run by a child at n_jobs=2
        failing = trial_states(derive_seed(cfg.seed, 1, 1, 3))

        def flaky(self, snr_db, states):
            if any(np.array_equal(row, failing) for row in states):
                raise h.SimulationError("stage 'add_awgn' failed: boom")
            return original(self, snr_db, states)

        monkeypatch.setattr(type(engine), "run", flaky)
        records = run_sweep(cfg, n_jobs=2)
        assert records[1].error is not None and "add_awgn" in records[1].error
        assert records[1].total_bits == 0 and records[1].n_trials == 3
        assert records[0].error is None and records[0].total_bits > 0
        assert records[0] == clean[0]
        assert records == run_sweep(cfg, n_jobs=1)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_undefined_snr_fails_the_trial(self, snr_db):
        import sfbcsim.harness as h

        with pytest.raises(h.SimulationError, match="add_awgn"):
            run_trial(make_config(modulation=16), snr_db, 11)

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


class Abort(BaseException):
    """Raised by a patched stage; no `except Exception` in the harness catches it."""


def abort(*args, **kwargs):
    raise Abort


class TestOneThread:
    """Each process runs its trials, noise draws included, on its calling thread."""

    def test_failed_noise_draw_fails_its_point_only(self, monkeypatch, two_cpus):
        import sfbcsim.channel as chan

        original = chan.draw_noise
        # sixteen 6-RB points fill one stack; 50-RB stacks hold one trial
        for n_rb, snrs in [(6, tuple(2.0 * np.arange(16))), (50, (0.0, 6.0, 12.0))]:
            cfg = make_config(n_rb=n_rb, snr_db=snrs, max_bits=50_000)
            clean = run_sweep(cfg)
            drawers, widths = [], []

            def flaky(shape, snr_db, reference_power, seed):
                drawers.append(threading.current_thread())
                widths.append(len(snr_db))
                if 6.0 in snr_db:
                    raise ValueError("boom")
                return original(shape, snr_db, reference_power, seed)

            with monkeypatch.context() as patched:
                patched.setattr(chan, "draw_noise", flaky)
                records = run_sweep(cfg)
            assert set(drawers) == {threading.current_thread()}
            # the 6 dB point fails at its first trial; the others run as before
            k = snrs.index(6.0)
            assert records[k].error == "stage 'add_awgn' failed: boom"
            assert records[k].total_bits == 0 and records[k].n_trials == 0
            assert records[:k] + records[k + 1:] == clean[:k] + clean[k + 1:]
            if n_rb == 6:  # the failed stack, each of its trials alone, then the rest
                assert widths[:18] == [16] + [1] * 16 + [15]

    def test_any_exception_of_a_noise_draw_reaches_the_caller(self, monkeypatch, two_cpus):
        import sfbcsim.channel as chan

        monkeypatch.setattr(chan, "draw_noise", abort)
        with pytest.raises(Abort):
            run_sweep(make_config(n_rb=50, snr_db=(0.0, 6.0), max_bits=50_000))

    @pytest.mark.parametrize("n_rb,n_jobs", [(6, 1), (6, 2), (50, 1), (50, 2)])
    def test_no_sweep_starts_a_thread(self, monkeypatch, two_cpus, n_rb, n_jobs):
        """Threads alive during each stack this process runs, and after the sweep,
        whether it returns or raises; a forked share's stacks are not seen here."""
        import sfbcsim.channel as chan
        import sfbcsim.harness as h

        alive, parent, original_run = [], os.getpid(), h._TrialEngine.run

        def watched_run(self, snr_db, states):
            if os.getpid() == parent:
                alive.append(threading.active_count())
            return original_run(self, snr_db, states)

        monkeypatch.setattr(h._TrialEngine, "run", watched_run)
        cfg = make_config(n_rb=n_rb, snr_db=(0.0, 6.0, 12.0), max_bits=30_000)
        before = threading.active_count()
        run_sweep(cfg, n_jobs)
        assert alive and set(alive) == {before}
        assert threading.active_count() == before
        monkeypatch.setattr(chan, "realize_channel", abort)
        with pytest.raises(Abort):
            run_sweep(cfg, n_jobs)
        assert threading.active_count() == before


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
