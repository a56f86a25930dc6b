"""LTE downlink grid dimensioning and the OFDM modulator/demodulator.

Resource-block bookkeeping follows the standard bandwidth table (6 RB for
1.4 MHz up to 100 RB for 20 MHz, 12 subcarriers per RB, 14 symbols per
subframe with the normal cyclic prefix), and the FFT length is the smallest
power of two covering the occupied subcarriers.  The DFTs are unitary in
both directions so that frequency-domain and time-domain powers agree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SUBCARRIER_SPACING_HZ = 15e3
SYMBOLS_PER_SUBFRAME = 14  # normal cyclic prefix, 7 per slot

# channel bandwidth (MHz) for each supported resource-block count
RB_BANDWIDTH_MHZ = {6: 1.4, 15: 3.0, 25: 5.0, 50: 10.0, 75: 15.0, 100: 20.0}


def default_fft_size(n_subcarriers: int) -> int:
    """Smallest power of two that fits the occupied subcarriers."""
    return 1 << (n_subcarriers - 1).bit_length()


@dataclass(frozen=True)
class GridDimensions:
    """Frequency/time sizing of one antenna port's resource grid."""

    n_rb: int = 6

    def __post_init__(self):
        object.__setattr__(self, "n_rb", operator.index(self.n_rb))
        if self.n_rb not in RB_BANDWIDTH_MHZ:
            raise ValueError(
                f"n_rb must be one of {sorted(RB_BANDWIDTH_MHZ)}, got {self.n_rb}")

    @property
    def n_subcarriers(self) -> int:
        return 12 * self.n_rb

    @property
    def fft_size(self) -> int:
        return default_fft_size(self.n_subcarriers)

    @property
    def n_symbols(self) -> int:
        return SYMBOLS_PER_SUBFRAME

    @property
    def cp_len(self) -> int:
        # flat cyclic prefix; it sets the symbol period and bounds no tap delay
        return math.ceil(self.fft_size / SYMBOLS_PER_SUBFRAME)

    @property
    def sample_rate_hz(self) -> float:
        return self.fft_size * SUBCARRIER_SPACING_HZ

    @property
    def cp_duration_s(self) -> float:
        return self.cp_len / self.sample_rate_hz

    @property
    def bandwidth_mhz(self) -> float:
        return RB_BANDWIDTH_MHZ[self.n_rb]

    def subcarrier_freqs_hz(self) -> np.ndarray:
        """Signed baseband frequency of each occupied subcarrier (DC-centred)."""
        k = np.arange(self.n_subcarriers) - self.n_subcarriers // 2
        return k * SUBCARRIER_SPACING_HZ


def zero_pad(freq_symbols: np.ndarray, fft_size: int) -> np.ndarray:
    """Centre the occupied subcarriers on DC inside a length-fft_size vector.

    Zeros go half below and half above; an odd remainder goes above.  The
    result is in fftshift (DC-centred) order along the last axis.
    """
    freq_symbols = np.asarray(freq_symbols)
    n_sc = freq_symbols.shape[-1]
    if fft_size < n_sc:
        raise ValueError(f"fft_size {fft_size} smaller than {n_sc} subcarriers")
    lo = (fft_size - n_sc) // 2
    out = np.zeros(freq_symbols.shape[:-1] + (fft_size,), dtype=np.complex128)
    out[..., lo:lo + n_sc] = freq_symbols
    return out


def strip_padding(padded: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Inverse of zero_pad: recover the occupied subcarriers."""
    padded = np.asarray(padded)
    fft_size = padded.shape[-1]
    if fft_size < n_subcarriers:
        raise ValueError(f"vector of length {fft_size} holds no {n_subcarriers} subcarriers")
    lo = (fft_size - n_subcarriers) // 2
    return padded[..., lo:lo + n_subcarriers]


def ofdm_modulate(grid_column: np.ndarray, fft_size: int, cp_len: int) -> np.ndarray:
    """Unitary IFFT of an already zero-padded column plus cyclic prefix.

    Accepts any leading batch shape; the last axis must be fft_size.
    Output length is fft_size + cp_len per column.
    """
    grid_column = np.asarray(grid_column)
    if grid_column.shape[-1] != fft_size:
        raise ValueError(
            f"column length {grid_column.shape[-1]} does not match fft_size {fft_size}")
    time = np.fft.ifft(np.fft.ifftshift(grid_column, axes=-1), norm="ortho", axis=-1)
    return np.concatenate([time[..., fft_size - cp_len:], time], axis=-1)


def ofdm_demodulate(samples: np.ndarray, fft_size: int, cp_len: int,
                    n_subcarriers: int) -> np.ndarray:
    """Strip the cyclic prefix, apply the unitary FFT, and drop the padding."""
    samples = np.asarray(samples)
    if samples.shape[-1] != fft_size + cp_len:
        raise ValueError(
            f"expected {fft_size + cp_len} samples per symbol, got {samples.shape[-1]}")
    body = samples[..., cp_len:]
    freq = np.fft.fftshift(np.fft.fft(body, norm="ortho", axis=-1), axes=-1)
    return strip_padding(freq, n_subcarriers)
