"""Frequency-domain Alamouti (SFBC) encoding and the linear combiner.

A pair of modulated symbols (x0, x1) occupies two subcarriers (k0, k1) of
the same OFDM symbol:

    ========  =====  ======
    antenna    k0     k1
    ========  =====  ======
    0          x0     -x1*
    1          x1     x0*
    ========  =====  ======

Two pairings are supported: ``adjacent`` takes k1 = k0 + 1 with k0 even,
``mirror`` takes k1 = k0 + N/2 (both counted among the data subcarriers of
the symbol, N = data-subcarrier count).  Either way, N must be even: a
symbol with an odd number of data subcarriers cannot be fully paired and
is rejected.  ``pair_indices`` gives the pairs of one symbol.  The encoder
and the combiner work elementwise on a flat batch of pairs, so a caller
that has mapped every pair of a subframe encodes and combines the whole
subframe in one call each.

The combiner assumes the channel constant across each pair and recovers

    x0 = (h00* y00 + h10 y10* + h01* y01 + h11 y11*) / sum |h|^2
    x1 = (h10* y00 - h00 y10* + h11* y01 - h01 y11*) / sum |h|^2

where h[m, n] is the gain from transmit antenna m to receive antenna n,
y00/y01 are the values received on antennas 0/1 at k0, and y10/y11 the
values received on antennas 0/1 at k1.
"""

from __future__ import annotations

import numpy as np

PAIRINGS = ("adjacent", "mirror")


class SfbcDecodeError(RuntimeError):
    """All four channel gains of a pair vanished (dead channel estimate)."""


def pair_indices(n_data_subcarriers: int, pairing: str) -> tuple[np.ndarray, np.ndarray]:
    """Data-subcarrier index pairs (k0, k1) for one OFDM symbol."""
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}, got {pairing!r}")
    if n_data_subcarriers <= 0 or n_data_subcarriers % 2 != 0:
        raise ValueError(
            f"data subcarrier count must be positive and even, got {n_data_subcarriers}")
    if pairing == "adjacent":
        k0 = np.arange(0, n_data_subcarriers, 2)
        return k0, k0 + 1
    half = n_data_subcarriers // 2
    k0 = np.arange(half)
    return k0, k0 + half


def sfbc_encode(x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transmit values of a batch of pairs, per antenna, at k0 and at k1.

    Returns ``(at_k0, at_k1)``, each of shape (2, n_pairs) with row m the
    values antenna m sends on that subcarrier, as in the table above.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    x1 = np.asarray(x1, dtype=np.complex128)
    if x0.shape != x1.shape:
        raise ValueError(f"pair halves differ in shape: {x0.shape} vs {x1.shape}")
    return np.stack([x0, x1]), np.stack([-np.conj(x1), np.conj(x0)])


def sfbc_decode(y00: np.ndarray, y01: np.ndarray, y10: np.ndarray, y11: np.ndarray,
                h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine one received pair (or a batch) into symbol estimates.

    ``h`` has shape (..., 2, 2) with h[..., m, n] the gain from transmit
    antenna m to receive antenna n, assumed constant across the pair.
    """
    h = np.asarray(h, dtype=np.complex128)
    h00 = h[..., 0, 0]
    h01 = h[..., 0, 1]
    h10 = h[..., 1, 0]
    h11 = h[..., 1, 1]
    denom = (np.abs(h00) ** 2 + np.abs(h10) ** 2
             + np.abs(h01) ** 2 + np.abs(h11) ** 2)
    if np.any(denom == 0):
        raise SfbcDecodeError("zero channel energy on a pair, cannot combine")
    x0 = (np.conj(h00) * y00 + h10 * np.conj(y10)
          + np.conj(h01) * y01 + h11 * np.conj(y11)) / denom
    x1 = (np.conj(h10) * y00 - h00 * np.conj(y10)
          + np.conj(h11) * y01 - h01 * np.conj(y11)) / denom
    return x0, x1


def interleave_pairs(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Inverse of the pair split: restore the source symbol order."""
    out = np.empty(x0.size + x1.size, dtype=np.complex128)
    out[0::2] = x0
    out[1::2] = x1
    return out
