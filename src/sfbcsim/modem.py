"""Bit generation, square M-QAM mapping/demapping, and bit-error counting.

The modulation alphabet is Gray-coded square QAM with unit average symbol
energy, the convention used by the LTE downlink: even-indexed bits steer the
in-phase axis, odd-indexed bits the quadrature axis, and each axis uses a
reflected-Gray amplitude map so that lattice neighbours differ in exactly
one bit.
"""

from __future__ import annotations

import numpy as np

QAM_ORDERS = (4, 16, 64)


def _gray_levels(bits: np.ndarray) -> np.ndarray:
    """Reflected-Gray amplitude of each row of axis bits (last axis, big-endian).

    The map a(b) = (1-2*b0) * (2**(m-1) - a(b[1:])), with a(b0) = 1-2*b0, unrolled:
    a(b) = sum_j (-1)**j * 2**(m-1-j) * prod_{i<=j} (1-2*b_i).
    """
    m = bits.shape[-1]
    return np.cumprod(1 - 2 * bits, axis=-1) @ [(-1) ** j << (m - 1 - j) for j in range(m)]


class QamConstellation:
    """Gray-coded square M-QAM alphabet, M in {4, 16, 64}.

    ``points[label]`` is the complex point for the bit label read as a
    big-endian integer, scaled to unit average energy.
    """

    def __init__(self, order: int):
        if order not in QAM_ORDERS:
            raise ValueError(f"modulation must be one of {QAM_ORDERS}, got {order}")
        self.order = order
        k = self.bits_per_symbol = order.bit_length() - 1
        m_axis = k // 2
        # unit average energy: an unscaled lattice {+-1, +-3, ...}^2 averages 2(M-1)/3
        scale = float(np.sqrt(2.0 * (order - 1) / 3.0))
        # each label's big-endian bits, one row per label
        bits = np.arange(order)[:, None] >> np.arange(k)[::-1] & 1
        # even-indexed bits give the in-phase amplitude, odd-indexed the quadrature
        amp = _gray_levels(bits.reshape(order, m_axis, 2).swapaxes(1, 2)) / scale
        self.points = amp[:, 0] + 1j * amp[:, 1]
        # per-axis levels indexed by the axis bit label, shared by I and Q:
        # label g < 2**m_axis ends in g's own m_axis bits
        self._axis_levels = _gray_levels(bits[:2 ** m_axis, m_axis:]) / scale
        # row i * 2**m_axis + q: the bits of in-phase axis label i, quadrature q
        self._pair_bits = (bits.reshape(order, 2, m_axis).swapaxes(1, 2)
                           .reshape(order, k).astype(np.uint8))

    def __repr__(self) -> str:
        return f"QamConstellation(order={self.order})"


def generate_bits(count: int, seed: int) -> np.ndarray:
    """`count` i.i.d. uniform bits from `seed`, bit for bit those of integers(0, 2, count,
    np.uint8), whose rejection-free draw for a range of two keeps each raw byte's top bit."""
    if count <= 0:
        raise ValueError(f"bit count must be positive, got {count}")
    raw = np.random.default_rng(seed).bit_generator.random_raw(-(-count // 8))
    return raw.astype("<u8", copy=False).view(np.uint8)[:count] >> 7


def modulate(bits: np.ndarray, constellation: QamConstellation) -> np.ndarray:
    """Map a bit stream (the last axis) to complex symbols, one per bits_per_symbol bits."""
    bits = np.asarray(bits)
    k = constellation.bits_per_symbol
    if bits.shape[-1] % k != 0:
        raise ValueError(
            f"bit count {bits.shape[-1]} is not divisible by bits_per_symbol {k}")
    columns = bits.reshape(bits.shape[:-1] + (-1, k))
    labels = columns[..., 0].astype(np.intp)
    for j in range(1, k):  # big-endian label: shift in one bit column at a time
        labels <<= 1
        labels |= columns[..., j]
    return constellation.points[labels]


def demodulate(symbols: np.ndarray, constellation: QamConstellation) -> np.ndarray:
    """Hard-decision demap: nearest constellation point, ties to lowest label."""
    # one row per symbol: its in-phase and quadrature values, decided apart
    axes = np.asarray(symbols, dtype=np.complex128).ravel().view(np.float64).reshape(-1, 2)
    levels = constellation._axis_levels
    best = np.abs(axes - levels[0])
    labels = np.zeros(axes.shape, dtype=np.int8)
    for label in range(1, levels.size):
        distance = np.abs(axes - levels[label])
        # strict: a tie keeps the lower label and NaN never moves off label 0
        labels += (distance < best) * (label - labels)
        np.minimum(best, distance, out=best)
    pairs = labels[:, 0] * levels.size + labels[:, 1]
    return np.take(constellation._pair_bits, pairs, axis=0).ravel()


def bit_errors(sent: np.ndarray, received: np.ndarray) -> tuple[int | list, float | list]:
    """Hamming distance and bit error ratio of two equal-length bit streams
    (lists of them for streams stacked on leading axes, row by row)."""
    sent = np.asarray(sent)
    received = np.asarray(received)
    if sent.shape != received.shape:
        raise ValueError(
            f"shape mismatch: sent {sent.shape} bits, received {received.shape}")
    if sent.size == 0:
        raise ValueError("bit streams are empty")
    errors = np.count_nonzero(sent != received, axis=-1)
    return errors.tolist(), (errors / sent.shape[-1]).tolist()
