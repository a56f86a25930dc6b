"""End-to-end trial execution and SNR sweeps.

One trial simulates one subframe through the whole chain: bit generation,
QAM mapping, SFBC encoding, grid assembly with pilots, OFDM synthesis,
the 2x2 fading channel, per-resource-element AWGN, channel estimation (or
the perfect-CSI bypass), SFBC combining, hard demapping and bit-error
counting.  The fading channel is spectral (one gain per link, subcarrier
and symbol), so the waveform legs couple to it through an OFDM round trip
that returns the grid up to rounding, and the noise is injected per
resource element in the frequency domain, which is also where the SNR is
defined: noise variance equals the ensemble-average received data-RE power
divided by the linear SNR.  That average is analytic (tap powers and the
Rician split are normalized so every link has unit mean energy), so the
noise level is a fixed function of the configuration and never tracks
individual fades.

Seed splitting is bit-exact and reproducible:

* pilot seed           = SeedSequence(master, spawn_key=(0,)) -> first uint64
* trial seed (i, t)    = SeedSequence(master, spawn_key=(1, i, t)) -> first uint64
  where i indexes the ascending-sorted SNR list and t the trial
* inside a trial, the bit/channel/noise streams use
  SeedSequence(trial_seed, spawn_key=(j,)) for j = 0, 1, 2

A trial's seed depends only on its point and index.  run_sweep opens one
thread pool of at most os.cpu_count() workers and runs the points one after
another.  Each point starts its trials in waves of n_jobs and reads the
results in trial order, stopping at the first trial that meets the stopping
rule, so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import channel as chan
from . import modem, pilots, sfbc
from .grid import GridDimensions, ofdm_demodulate, ofdm_modulate, zero_pad

# total transmit power is held constant versus a single antenna
ANTENNA_AMPLITUDE = 1.0 / math.sqrt(2.0)

ERROR_TARGET = 100  # bit errors after which a sweep point may stop

_PILOT_STREAM = 0
_TRIAL_STREAM = 1


class SimulationError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def derive_seed(master_seed: int, *key: int) -> int:
    """The documented splitting rule: first uint64 of a spawned SeedSequence."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameter set of one simulated scenario."""

    snr_db: tuple[float, ...]
    modulation: int = 4
    n_rb: int = 6
    fft_size: int | None = None
    n_frames: int = 4
    environment: str = "user_defined"
    env_file: str | None = None
    k_factor: float = 1000.0
    speed_kmh: float = 3.0
    carrier_freq_ghz: float = 2.7
    tx_corr: float = 0.5
    rx_corr: float = 0.5
    pairing: str = "mirror"
    csi: str = "estimated"
    min_bits: int = 10_000
    max_bits: int | None = None
    seed: int = 1
    name: str = ""

    def __post_init__(self):
        if self.modulation not in modem.QAM_ORDERS:
            raise ValueError(f"modulation must be one of {modem.QAM_ORDERS}, "
                             f"got {self.modulation}")
        if not self.snr_db:
            raise ValueError("snr_db list must not be empty")
        if any(not math.isfinite(s) for s in self.snr_db):
            raise ValueError("snr_db values must be finite")
        if self.pairing not in sfbc.PAIRINGS:
            raise ValueError(f"pairing must be one of {sfbc.PAIRINGS}")
        if self.csi not in ("perfect", "estimated"):
            raise ValueError("csi must be 'perfect' or 'estimated'")
        if self.min_bits < 10_000:
            raise ValueError(f"min_bits must be at least 10000, got {self.min_bits}")
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if self.max_bits is not None and self.max_bits < self.min_bits:
            raise ValueError("max_bits must be >= min_bits")
        # grid, environment and fading validation happens in their constructors
        self.dims()
        self.build_environment()
        self.fading()

    def dims(self) -> GridDimensions:
        return GridDimensions(self.n_rb, self.fft_size)

    def build_environment(self) -> chan.RadioEnvironment:
        if self.env_file is not None:
            if chan.canonical_name(self.environment) != "user_defined":
                raise ValueError("env_file is only valid with the user_defined environment")
            return chan.load_environment_file(self.env_file)
        return chan.build_environment(self.environment)

    def fading(self) -> chan.FadingConfig:
        return chan.FadingConfig(self.k_factor, self.speed_kmh, self.carrier_freq_ghz,
                                 self.tx_corr, self.rx_corr)

    def bits_per_trial(self) -> int:
        engine = _engine(self)
        return engine.bits_per_subframe

    def effective_max_bits(self) -> int:
        if self.max_bits is not None:
            return self.max_bits
        # default sample budget: the configured number of frames of payload
        return max(self.n_frames * 10 * self.bits_per_trial(), self.min_bits)

    def metadata(self) -> dict:
        """Every field plus the resolved tap table, which env_file alone does not fix."""
        env = self.build_environment()
        return {**asdict(self), "tap_delays_s": env.delays_s, "tap_powers_db": env.powers_db}

    def config_hash(self) -> str:
        parts = [f"{key}={value!r}" for key, value in self.metadata().items()]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BerRecord:
    """One sweep point: total bits simulated, bit errors, and their ratio.

    A point whose pipeline failed carries the diagnostic in `error` and no
    measurement; such records are kept in the sweep result but excluded
    from CSV output (the CSV schema has no error column).
    """

    snr_db: float
    total_bits: int
    bit_errors: int
    ber: float
    n_trials: int
    seed: int
    wall_time: float = 0.0
    error: str | None = None


class _TrialEngine:
    """Precomputed per-config machinery shared by all trials."""

    def __init__(self, config: ScenarioConfig, env: chan.RadioEnvironment):
        self.config = config
        self.dims = config.dims()
        self.env = env
        self.fading = config.fading()
        self.constellation = modem.QamConstellation(config.modulation)
        self.pattern = pilots.PilotPattern(self.dims.n_subcarriers, self.dims.n_symbols)
        self.pilot_seed = derive_seed(config.seed, _PILOT_STREAM)

        # every SFBC pair of the subframe in transmit order: its two absolute
        # data subcarriers and its OFDM symbol
        pairs = []
        for l in range(self.dims.n_symbols):
            dk = self.pattern.data_subcarriers(l)
            i0, i1 = sfbc.pair_indices(dk.size, config.pairing)
            pairs.append((dk[i0], dk[i1], np.full(i0.size, l)))
        self.k0, self.k1, self.l = (np.concatenate(a) for a in zip(*pairs))
        self.symbols_per_subframe = 2 * self.k0.size
        self.bits_per_subframe = self.symbols_per_subframe * self.constellation.bits_per_symbol

        # ensemble-average received data-RE power: each fading link has unit
        # mean energy (identity channel: one unit link per receive antenna)
        sum_link_energy = 2.0 if self.env.name == "awgn_only" else 4.0
        self.reference_power = ANTENNA_AMPLITUDE ** 2 * sum_link_energy / 2.0

    def run(self, snr_db: float | None, trial_seed: int) -> tuple[int, int]:
        cfg, dims, k0, k1, l = self.config, self.dims, self.k0, self.k1, self.l
        n_sc, n_sym, fft, cp = (dims.n_subcarriers, dims.n_symbols,
                                dims.fft_size, dims.cp_len)

        bits = _stage("generate_bits", modem.generate_bits,
                      self.bits_per_subframe, derive_seed(trial_seed, 0))
        symbols = _stage("modulate", modem.modulate, bits, self.constellation)

        grids = np.zeros((2, n_sc, n_sym), dtype=np.complex128)
        grids[:, k0, l], grids[:, k1, l] = _stage("sfbc_encode", sfbc.sfbc_encode,
                                                  symbols[0::2], symbols[1::2])
        _stage("insert_pilots", pilots.insert_pilots, grids, self.pattern, self.pilot_seed)
        grids *= ANTENNA_AMPLITUDE

        # per-antenna waveform, then back to the spectral domain where the
        # channel model lives.  The round trip returns the grid up to rounding
        # (about 1e-15); it stays because perfbench/spans.py traces these
        # three calls at this module's names.
        cols = _stage("zero_pad", zero_pad, np.moveaxis(grids, 1, 2), fft)
        tx_time = _stage("ofdm_modulate", ofdm_modulate, cols, fft, cp)
        tx_freq = np.moveaxis(
            _stage("ofdm_demodulate", ofdm_demodulate, tx_time, fft, cp, n_sc), 2, 1)

        realization = _stage("realize_channel", chan.realize_channel,
                             self.env, self.fading, dims, derive_seed(trial_seed, 1))
        received = _stage("apply_channel", chan.apply_channel, tx_freq, realization)

        received = _stage("add_awgn", chan.add_awgn, received, snr_db,
                          self.reference_power, derive_seed(trial_seed, 2))

        if cfg.csi == "perfect":
            h_est = realization.h * ANTENNA_AMPLITUDE
        else:
            h_est = _stage("estimate_channel", pilots.estimate_channel,
                           received, self.pattern, self.pilot_seed, dims)

        # channel taken at the pair's first subcarrier, assumed constant
        # across the pair
        h_pair = np.moveaxis(h_est[:, :, k0, l], 2, 0)
        x0, x1 = _stage("sfbc_decode", sfbc.sfbc_decode,
                        *received[:, k0, l], *received[:, k1, l], h_pair)
        decoded = sfbc.interleave_pairs(x0, x1)

        rx_bits = _stage("demodulate", modem.demodulate, decoded, self.constellation)
        errors, _ = _stage("bit_errors", modem.bit_errors, bits, rx_bits)
        return bits.size, errors


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise SimulationError(f"stage '{name}' failed: {exc}") from exc


def _engine(config: ScenarioConfig) -> _TrialEngine:
    # keyed on the tap table too: an env_file may change between calls
    return _cached_engine(config, config.build_environment())


@lru_cache(maxsize=8)
def _cached_engine(config: ScenarioConfig, env: chan.RadioEnvironment) -> _TrialEngine:
    return _TrialEngine(config, env)


def run_trial(config: ScenarioConfig, snr_db: float | None,
              trial_seed: int) -> tuple[int, int]:
    """One subframe through the full chain; returns (bits_sent, bit_errors).

    Deterministic in (config, snr_db, trial_seed); snr_db may be None or
    +inf to bypass the noise stage.
    """
    return _engine(config).run(snr_db, trial_seed)


def _run_point(engine: _TrialEngine, config: ScenarioConfig, snr_db: float,
               snr_index: int, mapper, width: int) -> BerRecord:
    max_bits = config.effective_max_bits()
    start = time.perf_counter()
    total_bits = total_errors = n_trials = 0

    def trial(t: int) -> tuple[int, int]:
        return engine.run(snr_db, derive_seed(config.seed, _TRIAL_STREAM, snr_index, t))

    # waves of `width` trials, the next started once this one is read; the
    # results are read in trial order, so the stopping decision (and hence the
    # output) does not depend on the width, and trials past the stopping point
    # are never read
    waves = (mapper(trial, range(t, t + width)) for t in itertools.count(0, width))
    try:
        for bits, errors in itertools.chain.from_iterable(waves):
            total_bits += bits
            total_errors += errors
            n_trials += 1
            if total_bits >= config.min_bits and (
                    total_errors >= ERROR_TARGET or total_bits >= max_bits):
                break
    except SimulationError as exc:
        return BerRecord(snr_db=float(snr_db), total_bits=0, bit_errors=0,
                         ber=0.0, n_trials=n_trials, seed=config.seed,
                         wall_time=time.perf_counter() - start, error=str(exc))

    return BerRecord(
        snr_db=float(snr_db),
        total_bits=total_bits,
        bit_errors=total_errors,
        ber=total_errors / total_bits,
        n_trials=n_trials,
        seed=config.seed,
        wall_time=time.perf_counter() - start,
    )


def run_sweep(config: ScenarioConfig, n_jobs: int = 1) -> list[BerRecord]:
    """BER at every configured SNR, in ascending SNR order.

    Each point runs whole-subframe trials until `max_bits` is reached or
    100 bit errors have accumulated, whichever comes first, but never
    stops below `min_bits`.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    engine = _engine(config)
    n_jobs = min(n_jobs, os.cpu_count() or 1)
    order = np.argsort(np.asarray(config.snr_db, dtype=float), kind="stable")
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        mapper = map if n_jobs == 1 else pool.map
        return [_run_point(engine, config, float(config.snr_db[i]), rank, mapper, n_jobs)
                for rank, i in enumerate(order)]
