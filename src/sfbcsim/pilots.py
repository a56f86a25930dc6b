"""Cell-specific reference signals and pilot-based channel estimation.

Pilot layout follows the LTE normal-CP convention for two antenna ports:
pilots sit in OFDM symbols 0 and 4 of each slot (0, 4, 7, 11 within a
subframe) with a frequency stride of 6.  Port 0 alternates subcarrier
offsets 0/3 across those symbols, port 1 uses the swapped offsets, and
every pilot resource element of one port is transmitted as a null on the
other port so the four MIMO links can be separated.

Pilot values are unit-amplitude QPSK (phases 45, 135, -45, -135 degrees)
drawn from a seeded generator that transmitter and receiver share.
Estimation is least-squares at the pilots followed by linear interpolation,
first across frequency then across time, with constant extrapolation
beyond the outermost pilots.

A `PilotPlan` tabulates once per grid and seed the flat (k, l) index and
value of every pilot and the interpolation weights.  Frequency weights are
sparse, two per subcarrier (a dense matrix would take megabytes at 100 RB).
Time weights stay a dense 14x4 matrix product, whose rounding the output is
pinned to: the two-term sparse form differs in the last bit.
"""

from __future__ import annotations

import numpy as np

from .grid import SYMBOLS_PER_SUBFRAME

PILOT_SYMBOLS = (0, 4, 7, 11)
_PORT_OFFSETS = {0: (0, 3, 0, 3), 1: (3, 0, 3, 0)}
PILOT_STRIDE = 6


class EstimationError(RuntimeError):
    """Channel estimation is impossible (too few pilots in a dimension)."""


class PilotPattern:
    """Pilot/null positions of both antenna ports for one normal-CP subframe.

    `k`, `l`: each pilot's subcarrier and symbol, shape (2 ports, pilots).
    """

    def __init__(self, n_subcarriers: int):
        if n_subcarriers < PILOT_STRIDE + max(max(v) for v in _PORT_OFFSETS.values()):
            raise EstimationError(
                f"{n_subcarriers} subcarriers leave fewer than 2 pilots per symbol")
        self.n_subcarriers = n_subcarriers
        per_symbol = [[np.arange(off, n_subcarriers, PILOT_STRIDE) for off in offsets]
                      for offsets in _PORT_OFFSETS.values()]
        self.k = np.array([np.concatenate(ks) for ks in per_symbol])
        self.l = np.array([np.repeat(PILOT_SYMBOLS, [k.size for k in ks]) for ks in per_symbol])

    def pilot_positions(self, port: int) -> list[tuple[int, np.ndarray]]:
        """(symbol index, pilot subcarrier indices) per pilot-bearing symbol."""
        return [(sym, self.k[port, self.l[port] == sym]) for sym in PILOT_SYMBOLS]

    def data_subcarriers(self, symbol: int) -> np.ndarray:
        """Subcarriers free for data at `symbol`: those of neither port's pilots."""
        mask = np.ones(self.n_subcarriers, dtype=bool)
        mask[self.k[self.l == symbol]] = False
        return np.nonzero(mask)[0]


def pilot_values(pattern: PilotPattern, port: int, seed: int) -> list[np.ndarray]:
    """Deterministic unit-amplitude QPSK pilot values per pilot symbol.

    Phases are 45, 135, -135 or -45 degrees.  The same (pattern, port, seed)
    always yields the same sequence, which is how the receiver regenerates
    the transmitted pilots.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(port,)))
    return [np.exp(1j * (np.pi / 4 + rng.integers(0, 4, size=ks.size) * np.pi / 2))
            for _, ks in pattern.pilot_positions(port)]


class PilotPlan:
    """One pattern's pilots under one seed: `values` holds each pilot's value,
    `interpolation` the estimate's weights (lo, w_lo, w_hi, w_time).  Per port, pilot
    symbol and subcarrier, `lo` indexes the left pilot in the flat (port, pilot)
    samples, weighted `w_lo` (`w_hi` the next pilot)."""

    def __init__(self, pattern: PilotPattern, seed: int):
        self.k, self.l = pattern.k, pattern.l
        self.values = np.array([np.concatenate(pilot_values(pattern, port, seed))
                                for port in (0, 1)])
        n_sc, n_sym = pattern.n_subcarriers, SYMBOLS_PER_SUBFRAME
        starts = np.flatnonzero(np.diff(self.l.ravel(), prepend=-1))
        seg, frac = zip(*[_linear_weights(ks, n_sc)
                          for ks in np.split(self.k.ravel(), starts[1:])])
        lo = np.reshape(np.add(seg, starts[:, None]), (2, -1, n_sc))
        frac = np.reshape(frac, lo.shape)
        seg, f = _linear_weights(PILOT_SYMBOLS, n_sym)
        w_time = np.zeros((n_sym, len(PILOT_SYMBOLS)))
        w_time[np.arange(n_sym), seg] = 1.0 - f
        w_time[np.arange(n_sym), seg + 1] = f
        self.interpolation = lo, 1.0 - frac, frac, w_time


def insert_pilots(grids: np.ndarray, plan: PilotPlan) -> np.ndarray:
    """Write the pilot values into the port grids, shape (..., 2, n_subcarriers, n_symbols).

    Pilot and null REs (a pilot of one port is a null on the other) must
    still be zero, else the mapper placed data on them.
    """
    occupied = np.any(grids[..., plan.k, plan.l], axis=tuple(range(grids.ndim - 2)))
    if np.any(occupied):
        raise RuntimeError(f"pilot positions at symbol {plan.l[occupied][0]} already "
                           "carry data; reserve pilot REs before mapping")
    grids[..., [[0], [1]], plan.k, plan.l] = plan.values
    return grids


def normalize_pilots(received_pilots: np.ndarray, known_pilots: np.ndarray) -> np.ndarray:
    """Least-squares channel samples at the pilots: received / known."""
    known_pilots = np.asarray(known_pilots)
    if np.any(known_pilots == 0):
        raise ValueError("known pilot values must be nonzero")
    return np.asarray(received_pilots) / known_pilots


def _linear_weights(knots, n_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """Left knot and right-knot weight of each target 0..n_targets-1.

    The weight is clipped to [0, 1] beyond the outermost knots, which
    extrapolates the edge value as a constant.
    """
    knots = np.asarray(knots, dtype=np.float64)
    targets = np.arange(n_targets)
    seg = np.clip(np.searchsorted(knots, targets, side="right") - 1, 0, knots.size - 2)
    frac = (targets - knots[seg]) / (knots[seg + 1] - knots[seg])
    return seg, np.clip(frac, 0.0, 1.0)


def interpolate_channel(samples: np.ndarray, plan: PilotPlan) -> np.ndarray:
    """Spread channel samples at the pilots over every resource element.

    `samples` has the shape (..., 2, pilots per port) of `plan.k`; the result
    (..., 2, n_subcarriers, n_symbols).  Interpolation runs across frequency
    first, then across time.
    """
    lo, w_lo, w_hi, w_time = plan.interpolation
    samples = np.asarray(samples)
    if samples.shape[-2:] != plan.k.shape:
        raise ValueError(f"expected samples of shape (..., {plan.k.shape}), got {samples.shape}")
    flat = samples.reshape(samples.shape[:-2] + (-1,))
    # np.take keeps the sample axes outermost, where flat[..., lo] puts lo's first
    per_symbol = w_lo * np.take(flat, lo, axis=-1) + w_hi * np.take(flat, lo + 1, axis=-1)
    return np.swapaxes(w_time @ per_symbol, -1, -2)


def estimate_channel(received_grids: np.ndarray, plan: PilotPlan) -> np.ndarray:
    """Estimate all four links from the received port grids.

    Returns an array of shape (2, 2, n_subcarriers, n_symbols) with entry
    [m, n] the estimated gain from transmit port m to receive antenna n
    (a stack of received grids adds its leading axes to both).
    The pilot/null duality is what separates the links: each port's pilots
    see silence from the other port.
    """
    samples = normalize_pilots(np.asarray(received_grids)[..., plan.k, plan.l], plan.values)
    return np.swapaxes(interpolate_channel(samples, plan), -4, -3)
