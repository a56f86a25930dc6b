"""End-to-end trial execution and SNR sweeps.

One trial simulates one subframe through the whole chain: bit generation,
QAM mapping, SFBC encoding, pilots, the 2x2 fading channel, per-resource-
element AWGN, channel estimation (or the perfect-CSI bypass), SFBC
combining, hard demapping and bit-error counting.  The trial path is
spectral: the channel is one gain per link, subcarrier and symbol, so an
OFDM round trip would only return the grid up to rounding
(tests/trial_oracle.py keeps it, and must agree).  It runs on one flat
vector of the REs the receiver reads: the SFBC pairs', then (estimated CSI)
each port's pilots.  The noise is drawn for the whole grid, as its stream
holds it, and taken there.  Its variance is the ensemble-average received
data-RE power over the linear SNR (+inf: no noise), an analytic average
(each link has unit mean energy, the identity channel one per receive
antenna), so the noise level never tracks individual fades.  The per-grid
work is cached once per grid dimensions, pairing and seed, whatever the QAM
order, CSI mode or tap table: the pilot plan, the used REs' flat indices
and the pilot values sent there.
A sweep's engine adds its constellation, fading and bit budget.

Seed splitting is bit-exact and reproducible:

* pilot seed           = SeedSequence(master, spawn_key=(0,)) -> first uint64
* trial seed (i, t)    = SeedSequence(master, spawn_key=(1, i, t)) -> first uint64
  where i indexes the ascending-sorted SNR list and t the trial
* inside a trial, the bit/channel/noise streams use
  default_rng(SeedSequence(trial_seed, spawn_key=(j,)) -> first uint64), j = 0, 1, 2

`seed_sequence_state` computes SeedSequence's hash in uint32 array arithmetic
on many lanes at once.  A share derives its trial seeds, their stream seeds
and each stream's PCG64 seed words in one pass per block of up to 64 trials
of every open point, and builds each trial's generators from those words.

run_sweep deals the points out in interleaved shares (k, k + w, k + 2w, ...)
to w processes: the calling one, and w - 1 children made with os.fork that
inherit the sweep's engine and send their points back pickled over a pipe.
A trial's seed depends on (i, t) alone, so no output byte depends on w.
Each share runs as a wavefront: step t runs trial t of every point still
open, in stacks of at most _STACK_RES resource elements (16 trials at 6 RB,
6 at 15 RB, 3 at 25 RB, 1 at 50 RB and above).  A point adds its results in
trial order and closes at the first trial that meets the stopping rule, so
exactly the serial set of trials runs.  Each trial draws its streams from
its own generators and each stacked stage treats every trial alone, so no
output byte depends on how trials are stacked.  Each process runs its
trials on its one calling thread.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import pickle
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import BinaryIO, NoReturn

import numpy as np

from . import channel as chan
from . import modem, pilots, sfbc
# the OFDM transforms are off the trial path, but bound here for tracers to wrap
from .grid import GridDimensions, ofdm_demodulate, ofdm_modulate, zero_pad  # noqa: F401

# total transmit power is held constant versus a single antenna
ANTENNA_AMPLITUDE = 1.0 / math.sqrt(2.0)

ERROR_TARGET = 100  # bit errors after which a sweep point may stop

MAX_SNR_DB = 1000.0  # a configured SNR's magnitude: the noise stage overflows near 3,080 dB
# a point's bit budget: every trial carries at least 1,824 bits (4-QAM, 6 RB), so a point
# seeds under 2**42 / 1824 + 64 < 2**32 trials and each trial index fits a spawn-key word
MAX_BITS = 2**42

# resource elements per stacked call: per-trial cost flattens at sixteen 6-RB trials
_STACK_RES = 16384

_PILOT_STREAM = 0
_TRIAL_STREAM = 1


class SimulationError(RuntimeError):
    """A pipeline stage or a sweep worker failed; the message names which."""


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash constants c_0..c_n, c_k = init * mult**k, as a column."""
    return np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(n + 1)],
                    dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, row r of the result under constants c_r and c_r+1."""
    value = (value ^ consts[:-1]) * consts[1:]  # uint32 arrays wrap
    return value ^ value >> np.uint32(16)


def seed_sequence_state(entropy, keys=(), n_words: int = 1) -> np.ndarray:
    """SeedSequence(entropy, spawn_key=key).generate_state(n_words, np.uint64) per lane,
    in numpy's uint32 hash arithmetic: `entropy` is one int of any size or a uint64
    array, `keys` one spawn key or many on leading axes, with entries in [0, 2**32)."""
    if not np.array_equal(keys, keys := np.asarray(keys, dtype=np.uint32)):  # none wrapped
        raise ValueError("spawn key entries must lie in [0, 2**32)")
    if np.ndim(entropy) == 0:
        if (e := operator.index(entropy)) < 0:
            raise ValueError(f"entropy must be non-negative, got {e}")
        words = [np.uint32(e >> s & 0xFFFFFFFF) for s in range(0, max(e.bit_length(), 1), 32)]
    else:
        e = np.asarray(entropy, dtype=np.uint64)
        words = [(e & 0xFFFFFFFF).astype(np.uint32), (e >> 32).astype(np.uint32)]
    lanes = np.broadcast_shapes(np.shape(words[0]), keys.shape[:-1])
    # the entropy zero-filled to the pool's four words, then the spawn key
    words += [np.uint32(0)] * (4 - len(words)) + list(np.moveaxis(keys, -1, 0))
    words = np.stack([np.broadcast_to(w, lanes).reshape(-1) for w in words])

    def mix(x, y):
        result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return result ^ result >> np.uint32(16)

    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(words))
    pool = _hashmix(words[:4], consts[:5])
    for src in range(4):  # each pool word into the other three
        others = [dst for dst in range(4) if dst != src]
        pool[others] = mix(pool[others], _hashmix(pool[src], consts[4 + 3 * src:8 + 3 * src]))
    for w, c in zip(words[4:], range(16, len(consts), 4)):  # each further word into all four
        pool = mix(pool, _hashmix(w, consts[c:c + 5]))
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * n_words)
    out = _hashmix(pool[np.arange(2 * n_words) % 4], consts).T  # (lanes, 2 * n_words)
    # word pairs read as little-endian uint64, as generate_state does; each row
    # contiguous, since PCG64 reads a row's memory as its seed words
    state = np.ascontiguousarray(out).astype("<u4", copy=False).view("<u8")
    return state.astype(np.uint64, copy=False).reshape(lanes + (n_words,))


def derive_seed(master_seed: int, *key: int) -> int:
    """The documented splitting rule: first uint64 of a spawned SeedSequence."""
    return int(seed_sequence_state(master_seed, key)[0])


def trial_states(trial_seeds) -> np.ndarray:
    """Each trial's bit, channel and noise generator states, shape (..., 3, 4):
    the PCG64 seed words of default_rng(derive_seed(trial_seed, j)), j = 0, 1, 2."""
    streams = seed_sequence_state(np.asarray(trial_seeds, dtype=np.uint64)[..., None],
                                  np.arange(3)[:, None])
    return seed_sequence_state(streams[..., 0], n_words=4)


class _StoredState(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 its four seed words, computed beforehand, as a SeedSequence would."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameter set of one simulated scenario."""

    snr_db: tuple[float, ...]
    modulation: int = 4
    n_rb: int = 6
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
        for label in ("modulation", "n_rb", "min_bits", "max_bits", "seed"):
            if (value := getattr(self, label)) is not None:  # numpy integers pass as ints
                object.__setattr__(self, label, operator.index(value))
        # stored as a tuple, in the order given: hashable, and hashed as the tuple form
        object.__setattr__(self, "snr_db", tuple(self.snr_db))
        if not self.snr_db:
            raise ValueError("snr_db list must not be empty")
        if any(not abs(s) <= MAX_SNR_DB for s in self.snr_db):  # NaN too
            raise ValueError(f"snr_db values must lie in [-{MAX_SNR_DB:g}, {MAX_SNR_DB:g}] dB")
        if self.pairing not in sfbc.PAIRINGS:
            raise ValueError(f"pairing must be one of {sfbc.PAIRINGS}")
        if self.csi not in ("perfect", "estimated"):
            raise ValueError("csi must be 'perfect' or 'estimated'")
        if not 10_000 <= self.min_bits <= MAX_BITS:
            raise ValueError(f"min_bits must lie in [10000, 2**42], got {self.min_bits}")
        if self.max_bits is not None and not self.min_bits <= self.max_bits <= MAX_BITS:
            raise ValueError("max_bits must be >= min_bits and at most 2**42")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # equal scenarios store, and so hash, equal values: the environment's canonical
        # name from here on, and the numbers as floats once validated
        object.__setattr__(self, "environment", chan.canonical_name(self.environment))
        # modulation, grid, environment and fading validation happens in their constructors
        modem.QamConstellation(self.modulation)
        self.dims()
        self.build_environment()
        self.fading()
        for label in ("k_factor", "speed_kmh", "carrier_freq_ghz", "tx_corr", "rx_corr"):
            object.__setattr__(self, label, float(getattr(self, label)))
        object.__setattr__(self, "snr_db", tuple(map(float, self.snr_db)))

    def dims(self) -> GridDimensions:
        return GridDimensions(self.n_rb)

    def build_environment(self) -> chan.RadioEnvironment:
        if self.env_file is not None:
            if self.environment != "user_defined":
                raise ValueError("env_file is only valid with the user_defined environment")
            return chan.load_environment_file(self.env_file)
        return chan.build_environment(self.environment)

    def fading(self) -> chan.FadingConfig:
        return chan.FadingConfig(self.k_factor, self.speed_kmh, self.carrier_freq_ghz,
                                 self.tx_corr, self.rx_corr)

    def bits_per_trial(self) -> int:
        return _TrialEngine(self).bits_per_subframe

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
    timed in whichever process ran the point; records compare and hash without it.
    """

    snr_db: float
    total_bits: int
    bit_errors: int
    ber: float
    n_trials: int
    seed: int
    wall_time: float = field(default=0.0, compare=False)
    error: str | None = None


@lru_cache(maxsize=16)  # the 252-sweep matrix cycles through 6 grids, a benchmark workload 1
def _layout(dims: GridDimensions, pairing: str,
            seed: int) -> tuple[pilots.PilotPlan, np.ndarray, np.ndarray]:
    """One grid's pilot plan, the flat indices of the REs a receiver reads and
    each antenna's pilot or null values at the pilots; shared, per grid,
    pairing and seed, by every QAM order, CSI mode and tap table."""
    pattern = pilots.PilotPattern(dims.n_subcarriers)
    # every SFBC pair of the subframe in transmit order: its two absolute
    # data subcarriers and its OFDM symbol
    pairs = []
    for l in range(dims.n_symbols):
        dk = pattern.data_subcarriers(l)
        i0, i1 = sfbc.pair_indices(dk.size, pairing)
        pairs.append((dk[i0], dk[i1], np.full(i0.size, l)))
    k0, k1, l = (np.concatenate(a) for a in zip(*pairs))
    plan = pilots.PilotPlan(pattern, derive_seed(seed, _PILOT_STREAM))
    # flat RE indices k * n_symbols + l: the pairs' first REs, their second, the pilots
    used = np.concatenate([k0, k1, *plan.k]) * dims.n_symbols + np.concatenate([l, l, *plan.l])
    # data first, so insert_pilots refuses any on a pilot or null RE: once per grid
    grid = np.zeros((2, dims.n_subcarriers, dims.n_symbols), dtype=np.complex128)
    grid.reshape(2, -1)[:, used[:2 * l.size]] = 1.0
    pilots.insert_pilots(grid, plan)
    return plan, used, grid[:, plan.k, plan.l].reshape(2, -1)


class _TrialEngine:
    """One config's machinery, built once per sweep and shared by all its trials."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.dims = dims = config.dims()
        self.env = config.build_environment()
        self.fading = config.fading()
        self.constellation = modem.QamConstellation(config.modulation)
        self.pilot_plan, used, pilot_tx = _layout(dims, config.pairing, config.seed)
        self.symbols_per_subframe = n_data = used.size - pilot_tx.shape[-1]
        # a trial's REs and the pilots sent there: only an estimate reads pilots
        self.used, self.pilot_tx = ((used, pilot_tx) if config.csi == "estimated"
                                    else (used[:n_data], pilot_tx[:, :0]))
        self.width = max(1, _STACK_RES // (dims.n_subcarriers * dims.n_symbols))  # per stack
        self.bits_per_subframe = self.symbols_per_subframe * self.constellation.bits_per_symbol
        # default sample budget: four frames of ten subframes of payload
        self.max_bits = (config.max_bits if config.max_bits is not None
                         else max(40 * self.bits_per_subframe, config.min_bits))

        # ensemble-average received data-RE power: per receive antenna, two fading
        # links of unit mean energy, or the identity channel's one unit link
        self.reference_power = ANTENNA_AMPLITUDE ** 2 * (1.0 if self.env.identity else 2.0)

    def run(self, snr_db: Sequence[float], states: np.ndarray) -> list[tuple[int, int]]:
        """(bits_sent, bit_errors) per trial of a stack: trial b runs at snr_db[b]
        with the generator states states[b] (see `trial_states`), and every
        stage but bit generation once per stack."""
        dims, plan, n = self.dims, self.pilot_plan, len(states)
        bit_rngs, channel_rngs, noise_rngs = zip(
            *[[np.random.Generator(np.random.PCG64(_StoredState(w))) for w in row]
              for row in states])
        # no OFDM round trip: the channel acts on the grid (see the module docstring), here
        # on the used REs taken as one subcarrier's symbols; first, while few arrays are alive
        h = _stage("realize_channel", chan.realize_channel, self.env, self.fading, dims,
                   channel_rngs)
        h = np.take(h.reshape(n, 2, 2, 1, -1), self.used, axis=-1)
        bits = np.stack([_stage("generate_bits", modem.generate_bits,
                                self.bits_per_subframe, rng) for rng in bit_rngs])
        symbols = _stage("modulate", modem.modulate, bits, self.constellation)
        # each antenna's values at the used REs: the pairs', then pilots and nulls
        tx = _stage("sfbc_encode", sfbc.sfbc_encode, symbols[:, 0::2], symbols[:, 1::2])
        del symbols
        tx = np.concatenate([*tx, np.broadcast_to(self.pilot_tx, (n,) + self.pilot_tx.shape)],
                            axis=-1)
        tx *= ANTENNA_AMPLITUDE
        received = _stage("apply_channel", chan.apply_channel, tx[..., None, :], h)[..., 0, :]
        del tx  # the transmit side is done: keep few of the stack's arrays alive
        # channel taken at the pair's first RE, assumed constant across the pair
        n_data = self.symbols_per_subframe
        if self.config.csi == "perfect":
            h_pair = h[..., 0, :n_data // 2] * ANTENNA_AMPLITUDE
        del h  # before the noise is added, where a trial would peak in memory
        # the whole grid's noise, as its stream holds it
        noise = _stage("add_awgn", chan.draw_noise, (n, 2, dims.n_subcarriers * dims.n_symbols),
                       snr_db, self.reference_power, noise_rngs)
        received += np.take(noise, self.used, axis=-1)
        del noise

        if self.config.csi == "estimated":
            samples = _stage("estimate_channel", pilots.normalize_pilots,
                             received[..., n_data:].reshape(n, 2, 2, -1), plan.values)
            # the estimate [b, receive antenna, port, k, l], read at each pair's first RE
            h_pair = _stage("estimate_channel", pilots.interpolate_channel, samples, plan)
            h_pair = np.take(h_pair.reshape(n, 2, 2, -1), self.used[:n_data // 2],
                             axis=-1).swapaxes(-3, -2)
        # y[b, receive antenna, first or second RE of the pair, pair]
        y = received[..., :n_data].reshape(n, 2, 2, -1)
        decoded = sfbc.interleave_pairs(*_stage("sfbc_decode", sfbc.sfbc_decode, y[:, 0, 0],
                                                y[:, 1, 0], y[:, 0, 1], y[:, 1, 1],
                                                np.moveaxis(h_pair, -1, -3)))
        del received, y, h_pair  # demapping reads only the decoded symbols

        rx_bits = _stage("demodulate", modem.demodulate, decoded, self.constellation)
        errors, _ = _stage("bit_errors", modem.bit_errors, bits, rx_bits.reshape(bits.shape))
        return [(bits.shape[1], e) for e in errors]


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise SimulationError(f"stage '{name}' failed: {exc}") from exc


def run_trial(config: ScenarioConfig, snr_db: float, trial_seed: int) -> tuple[int, int]:
    """One subframe through the full chain; returns (bits_sent, bit_errors).

    Deterministic in (config, snr_db, trial_seed); snr_db may be +inf to
    bypass the noise stage.  A stack of one trial.
    """
    return _TrialEngine(config).run([snr_db], trial_states([trial_seed]))[0]


def _run_stack(engine: _TrialEngine, snr_db: list[float],
               states: np.ndarray) -> list[tuple[int, int] | SimulationError]:
    """Each trial's result, or the error that failed it alone."""
    try:
        return engine.run(snr_db, states)
    except SimulationError as exc:
        if len(states) == 1:
            return [exc]
    # one failing trial must not fail the rest: rerun them one at a time
    return [_run_stack(engine, [snr], states[b:b + 1])[0] for b, snr in enumerate(snr_db)]


def _run_points(engine: _TrialEngine, indices: Sequence[int]) -> list[dict]:
    """The point dicts of the ascending-SNR points `indices`, run as one wavefront."""
    config, max_bits, width = engine.config, engine.max_bits, engine.width
    # trials seeded per pass: no more than a point can run, and at most 64
    block = min(64, -(-max_bits // engine.bits_per_subframe))
    snrs = sorted(config.snr_db)
    points = {i: dict(snr_db=snrs[i], total_bits=0, bit_errors=0, n_trials=0, wall_time=0.0,
                      error=None) for i in indices}
    open_points, t = list(points), 0
    while open_points:
        if t % block == 0:  # the next block's generator states of every open point
            keys = np.stack(np.broadcast_arrays(_TRIAL_STREAM, np.array(open_points)[:, None],
                                                np.arange(t, t + block)), axis=-1)
            table = dict(zip(open_points,
                             trial_states(seed_sequence_state(config.seed, keys)[..., 0])))
        for lo in range(0, len(open_points), width):
            stack = open_points[lo:lo + width]
            start = time.perf_counter()
            results = _run_stack(engine, [points[i]["snr_db"] for i in stack],
                                 np.stack([table[i][t % block] for i in stack]))
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


def _run_share(engine: _TrialEngine, indices: Sequence[int], pipe: BinaryIO) -> NoReturn:
    """A forked child's life: pickle its points, or its error's text, into the pipe.

    It leaves only by `os._exit`, so it never returns into the caller,
    flushes inherited stdio or runs exit handlers.
    """
    try:
        try:
            result = _run_points(engine, indices)
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
    child that dies or fails in any way raises SimulationError.
    """
    if operator.index(n_jobs) < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    engine = _TrialEngine(config)  # built before any fork, so every share inherits it
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
                    _run_share(engine, range(k, n, workers), sink)
            pids.append(pid)
        points[0::workers] = _run_points(engine, range(0, n, workers))
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        import signal  # here only: no sweep that succeeds needs it
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
            raise SimulationError(f"sweep worker {pid} failed: {result}")
        points[k::workers] = result
    return [BerRecord(**p, seed=config.seed,
                      ber=p["bit_errors"] / p["total_bits"] if p["error"] is None else 0.0)
            for p in points]
