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
individual fades.  An engine holds the per-config work: the SFBC pair map,
the pilot plan and the channel's subcarrier phase ramp.

Seed splitting is bit-exact and reproducible:

* pilot seed           = SeedSequence(master, spawn_key=(0,)) -> first uint64
* trial seed (i, t)    = SeedSequence(master, spawn_key=(1, i, t)) -> first uint64
  where i indexes the ascending-sorted SNR list and t the trial
* inside a trial, the bit/channel/noise streams use
  SeedSequence(trial_seed, spawn_key=(j,)) for j = 0, 1, 2

run_sweep deals the points out in interleaved shares (k, k + w, k + 2w, ...)
to w processes: the calling one, and w - 1 children made with os.fork that
inherit the built engine and send their points back pickled over a pipe.
A trial's seed depends on (i, t) alone, so no output byte depends on w.
Each share runs as a wavefront: step t runs trial t of every point still
open, in stacks of at most _STACK_RES resource elements (four 6-RB trials,
or one trial at 15 RB and above).  A point adds its results in trial order
and closes at the first trial that meets the stopping rule, so exactly the
serial set of trials runs.  Each trial draws its streams from its own
generators and each stacked stage treats every trial alone, so no output
byte depends on how trials are stacked.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import pickle
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import BinaryIO, NoReturn

import numpy as np

from . import channel as chan
from . import modem, pilots, sfbc
from .grid import GridDimensions, ofdm_demodulate, ofdm_modulate, zero_pad

# total transmit power is held constant versus a single antenna
ANTENNA_AMPLITUDE = 1.0 / math.sqrt(2.0)

ERROR_TARGET = 100  # bit errors after which a sweep point may stop

# resource elements per stacked call: eight 6-RB trials ran faster but cost 2 MB
_STACK_RES = 4096

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    from CSV output (the CSV schema has no error column).  `wall_time` is the
    point's share of every stack it ran in: the stack's time over its width,
    timed in whichever process ran the point.
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
        self.pilot_plan = pilots.PilotPlan(self.pattern, derive_seed(config.seed, _PILOT_STREAM))
        self.phase_ramp = chan.phase_ramp(env, self.dims)

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

    def run(self, snr_db: Sequence[float | None],
            trial_seeds: Sequence[int]) -> list[tuple[int, int]]:
        """(bits_sent, bit_errors) per trial of a stack: trial b runs at snr_db[b]
        from trial_seeds[b], and every stage but bit generation once per stack."""
        cfg, dims, k0, k1, l = self.config, self.dims, self.k0, self.k1, self.l
        n_sc, n_sym, fft, cp = (dims.n_subcarriers, dims.n_symbols,
                                dims.fft_size, dims.cp_len)
        bit_seeds, channel_seeds, noise_seeds = zip(
            *[[derive_seed(s, j) for j in range(3)] for s in trial_seeds])

        bits = np.stack([_stage("generate_bits", modem.generate_bits,
                                self.bits_per_subframe, s) for s in bit_seeds])
        symbols = _stage("modulate", modem.modulate, bits, self.constellation)

        tx = np.zeros((len(bits), 2, n_sc, n_sym), dtype=np.complex128)
        tx[..., k0, l], tx[..., k1, l] = _stage("sfbc_encode", sfbc.sfbc_encode,
                                                symbols[:, 0::2], symbols[:, 1::2])
        _stage("insert_pilots", pilots.insert_pilots, tx, self.pilot_plan)
        tx *= ANTENNA_AMPLITUDE

        # per-antenna waveform, then back to the spectral domain where the
        # channel model lives.  The round trip returns the grid up to rounding
        # (about 1e-15); it stays because perfbench/spans.py traces these
        # three calls at this module's names.
        tx = _stage("zero_pad", zero_pad, np.moveaxis(tx, -2, -1), fft)
        tx = _stage("ofdm_modulate", ofdm_modulate, tx, fft, cp)
        tx = np.moveaxis(_stage("ofdm_demodulate", ofdm_demodulate, tx, fft, cp, n_sc), -1, -2)

        realization = _stage("realize_channel", chan.realize_channel,
                             self.env, self.fading, dims, channel_seeds, self.phase_ramp)
        received = _stage("apply_channel", chan.apply_channel, tx, realization)
        del tx  # the transmit side is done: keep one stack of grids alive
        received = _stage("add_awgn", chan.add_awgn, received, snr_db,
                          self.reference_power, noise_seeds)

        # channel taken at the pair's first subcarrier, assumed constant
        # across the pair
        if cfg.csi == "perfect":
            h_pair = realization.h[..., k0, l] * ANTENNA_AMPLITUDE
        else:
            h_pair = _stage("estimate_channel", pilots.estimate_channel,
                            received, self.pilot_plan)[..., k0, l]
        x0, x1 = _stage("sfbc_decode", sfbc.sfbc_decode,
                        *np.moveaxis(received[..., k0, l], -2, 0),
                        *np.moveaxis(received[..., k1, l], -2, 0), np.moveaxis(h_pair, -1, -3))
        decoded = sfbc.interleave_pairs(x0, x1)

        rx_bits = _stage("demodulate", modem.demodulate, decoded, self.constellation)
        errors, _ = _stage("bit_errors", modem.bit_errors, bits, rx_bits.reshape(bits.shape))
        return [(bits.shape[1], e) for e in errors]


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
    +inf to bypass the noise stage.  A stack of one trial.
    """
    return _engine(config).run([snr_db], [trial_seed])[0]


def _run_stack(engine: _TrialEngine, snr_db: list[float],
               seeds: list[int]) -> list[tuple[int, int] | SimulationError]:
    """Each trial's result, or the error that failed it alone."""
    try:
        return engine.run(snr_db, seeds)
    except SimulationError as exc:
        if len(seeds) == 1:
            return [exc]
    # one failing trial must not fail the rest: rerun them one at a time
    return [_run_stack(engine, [snr], [seed])[0] for snr, seed in zip(snr_db, seeds)]


def _run_points(config: ScenarioConfig, indices: Sequence[int]) -> list[dict]:
    """The point dicts of the ascending-SNR points `indices`, run as one wavefront."""
    engine = _engine(config)
    max_bits = config.effective_max_bits()
    width = max(1, _STACK_RES // (engine.dims.n_subcarriers * engine.dims.n_symbols))
    order = np.argsort(np.asarray(config.snr_db, dtype=float), kind="stable")
    points = {i: dict(snr_db=float(config.snr_db[order[i]]), total_bits=0, bit_errors=0,
                      n_trials=0, wall_time=0.0, error=None) for i in indices}
    open_points, t = list(points), 0
    while open_points:
        for lo in range(0, len(open_points), width):
            stack = open_points[lo:lo + width]
            start = time.perf_counter()
            results = _run_stack(engine, [points[i]["snr_db"] for i in stack],
                                 [derive_seed(config.seed, _TRIAL_STREAM, i, t) for i in stack])
            share = (time.perf_counter() - start) / len(stack)
            for i, result in zip(stack, results):
                p = points[i]
                p["wall_time"] += share
                if isinstance(result, SimulationError):
                    # a failed point keeps its trial count but no measurement
                    p.update(total_bits=0, bit_errors=0, error=str(result))
                else:
                    p.update(total_bits=p["total_bits"] + result[0], n_trials=p["n_trials"] + 1,
                             bit_errors=p["bit_errors"] + result[1])
        open_points = [i for i, p in points.items() if p["error"] is None and (
            p["total_bits"] < config.min_bits
            or (p["bit_errors"] < ERROR_TARGET and p["total_bits"] < max_bits))]
        t += 1
    return list(points.values())


def _run_share(config: ScenarioConfig, indices: Sequence[int], pipe: BinaryIO) -> NoReturn:
    """A forked child's life: pickle its points, or its error's text, into the pipe.

    It leaves only by `os._exit`, so it never returns into the caller,
    flushes inherited stdio or runs exit handlers.
    """
    try:
        try:
            result = _run_points(config, indices)
        except Exception as exc:
            result = f"{type(exc).__name__}: {exc}"
        pickle.dump(result, pipe)
        pipe.close()
        os._exit(0)
    finally:
        os._exit(1)


def run_sweep(config: ScenarioConfig, n_jobs: int = 1) -> list[BerRecord]:
    """BER at every configured SNR, in ascending SNR order.

    Each point runs whole-subframe trials until `max_bits` is reached or
    100 bit errors have accumulated, whichever comes first, but never
    stops below `min_bits`.  The points are dealt out in interleaved shares
    to w = min(n_jobs, usable CPUs, points) processes: this one runs share
    0 and a forked child each other share (w = 1 without `os.fork`).  A
    child that dies or fails other than by SimulationError raises RuntimeError.
    """
    if operator.index(n_jobs) < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    _engine(config)  # built before any fork, so every share inherits it
    n = len(config.snr_db)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_jobs, cpus or 1, n) if hasattr(os, "fork") else 1
    points, pids, pipes = [None] * n, [], []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as sink:  # the parent's copy closes on leaving
                if (pid := os.fork()) == 0:
                    _run_share(config, range(k, n, workers), sink)
            pids.append(pid)
        points[0::workers] = _run_points(config, range(0, n, workers))
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        import signal  # here only: a sweep that succeeds imports nothing new
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (pid, payload, status) in enumerate(zip(pids, payloads, statuses), 1):
        result = pickle.loads(payload) if status == 0 else \
            f"exit status {os.waitstatus_to_exitcode(status)}"
        if isinstance(result, str):
            raise RuntimeError(f"sweep worker {pid} failed: {result}")
        points[k::workers] = result
    return [BerRecord(**p, seed=config.seed,
                      ber=p["bit_errors"] / p["total_bits"] if p["error"] is None else 0.0)
            for p in points]
