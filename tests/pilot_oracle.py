"""Dense reference implementation of pilot insertion and LS estimation.

Independent oracle for the pilot tests: the loop-per-port, loop-per-symbol
form with a full interpolation weight matrix per pilot symbol, exactly as
the estimator computed before its tables were precomputed.  The fast path
in `sfbcsim.pilots` must reproduce it bit for bit.
"""

import numpy as np

from sfbcsim.pilots import EstimationError, pilot_values


def linear_weights(knots, targets) -> np.ndarray:
    """Weight matrix of linear interpolation with constant edge extrapolation."""
    knots = np.asarray(knots, dtype=np.float64)
    if knots.size < 2:
        raise EstimationError(
            f"need at least 2 pilot positions per dimension, got {knots.size}")
    targets = np.asarray(targets, dtype=np.float64)
    w = np.zeros((targets.size, knots.size))
    seg = np.clip(np.searchsorted(knots, targets, side="right") - 1, 0, knots.size - 2)
    frac = (targets - knots[seg]) / (knots[seg + 1] - knots[seg])
    frac = np.clip(frac, 0.0, 1.0)
    rows = np.arange(targets.size)
    w[rows, seg] = 1.0 - frac
    w[rows, seg + 1] = frac
    return w


def insert_pilots(grids: np.ndarray, pattern, seed: int) -> np.ndarray:
    """Write each port's pilot values, and nulls on the other port, in place."""
    for port in (0, 1):
        values = pilot_values(pattern, port, seed)
        for (symbol, subcarriers), vals in zip(pattern.pilot_positions(port), values):
            occupied = (grids[port, subcarriers, symbol] != 0)
            occupied |= (grids[1 - port, subcarriers, symbol] != 0)
            if np.any(occupied):
                raise RuntimeError(f"pilot positions at symbol {symbol} already carry data")
            grids[port, subcarriers, symbol] = vals
            grids[1 - port, subcarriers, symbol] = 0.0
    return grids


def interpolate_channel(pilot_samples, pattern, port: int, dims) -> np.ndarray:
    """One link's (n_subcarriers, n_symbols) estimate from per-symbol samples."""
    positions = pattern.pilot_positions(port)
    all_k = np.arange(dims.n_subcarriers)
    per_symbol = np.empty((len(positions), dims.n_subcarriers), dtype=np.complex128)
    for i, ((_, subcarriers), samples) in enumerate(zip(positions, pilot_samples)):
        per_symbol[i] = linear_weights(subcarriers, all_k) @ samples
    w_time = linear_weights(np.array([s for s, _ in positions]), np.arange(dims.n_symbols))
    return (w_time @ per_symbol).T


def estimate_channel(received_grids: np.ndarray, pattern, seed: int, dims) -> np.ndarray:
    """All four links, shape (2 tx, 2 rx, n_subcarriers, n_symbols)."""
    estimate = np.empty((2, 2, dims.n_subcarriers, dims.n_symbols), dtype=np.complex128)
    for tx_port in (0, 1):
        known = pilot_values(pattern, tx_port, seed)
        positions = pattern.pilot_positions(tx_port)
        for rx in (0, 1):
            samples = [received_grids[rx, subcarriers, symbol] / vals
                       for (symbol, subcarriers), vals in zip(positions, known)]
            estimate[tx_port, rx] = interpolate_channel(samples, pattern, tx_port, dims)
    return estimate
