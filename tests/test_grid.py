"""Tests for grid dimensioning, zero padding, and the OFDM transform pair."""

import numpy as np
import pytest

from sfbcsim.grid import (GridDimensions, RB_BANDWIDTH_MHZ, default_fft_size,
                          ofdm_demodulate, ofdm_modulate, strip_padding,
                          zero_pad)


def random_column(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestGridDimensions:
    def test_bandwidth_table(self):
        assert RB_BANDWIDTH_MHZ == {6: 1.4, 15: 3.0, 25: 5.0, 50: 10.0,
                                    75: 15.0, 100: 20.0}

    @pytest.mark.parametrize("n_rb,fft", [(6, 128), (15, 256), (25, 512),
                                          (50, 1024), (75, 1024), (100, 2048)])
    def test_default_fft_sizes(self, n_rb, fft):
        dims = GridDimensions(n_rb)
        assert dims.n_subcarriers == 12 * n_rb
        assert dims.fft_size == fft == default_fft_size(dims.n_subcarriers)

    def test_cp_length(self):
        assert GridDimensions(6).cp_len == 10  # ceil(128 / 14)

    def test_invalid_rb_count(self):
        with pytest.raises(ValueError):
            GridDimensions(7)
        with pytest.raises(TypeError):
            GridDimensions(6.0)
        assert GridDimensions(np.int64(6)) == GridDimensions(6)

    def test_subcarrier_freqs_centred(self):
        f = GridDimensions(6).subcarrier_freqs_hz()
        assert f[36] == 0.0
        assert f[0] == -36 * 15e3


class TestZeroPad:
    def test_centering_rule_72_in_128(self):
        v = np.ones(72, dtype=complex)
        padded = zero_pad(v, 128)
        occupied = np.nonzero(padded)[0]
        assert occupied[0] == 28 and occupied[-1] == 99 and occupied.size == 72

    def test_identity_when_sizes_match(self):
        v = random_column(16)
        assert np.array_equal(zero_pad(v, 16), v)

    def test_strip_inverts_pad(self):
        v = random_column(72, seed=5)
        assert np.array_equal(strip_padding(zero_pad(v, 128), 72), v)

    def test_odd_remainder_goes_above(self):
        padded = zero_pad(np.ones(3, dtype=complex), 8)
        assert np.array_equal(np.nonzero(padded)[0], [2, 3, 4])

    def test_too_small_fft_rejected(self):
        with pytest.raises(ValueError):
            zero_pad(np.ones(72, dtype=complex), 64)


class TestOfdmTransformPair:
    def test_impulse_gives_constant_modulus(self):
        col = np.zeros(8, dtype=complex)
        col[0] = 1.0
        time = ofdm_modulate(col, 8, 2)
        assert time.shape == (10,)
        assert np.allclose(np.abs(time), np.abs(time[0]))

    @pytest.mark.parametrize("n_rb", sorted(RB_BANDWIDTH_MHZ))
    def test_round_trip(self, n_rb):
        dims = GridDimensions(n_rb)
        v = random_column(dims.n_subcarriers, seed=n_rb)
        time = ofdm_modulate(zero_pad(v, dims.fft_size), dims.fft_size, dims.cp_len)
        back = ofdm_demodulate(time, dims.fft_size, dims.cp_len, dims.n_subcarriers)
        assert np.max(np.abs(back - v)) < 1e-10

    def test_energy_preserved_excluding_cp(self):
        dims = GridDimensions(6)
        col = zero_pad(random_column(72, seed=9), dims.fft_size)
        time = ofdm_modulate(col, dims.fft_size, dims.cp_len)
        body = time[dims.cp_len:]
        assert abs(np.sum(np.abs(body) ** 2) - np.sum(np.abs(col) ** 2)) < 1e-10

    def test_all_zero(self):
        dims = GridDimensions(6)
        time = ofdm_modulate(np.zeros(128, dtype=complex), 128, dims.cp_len)
        out = ofdm_demodulate(time, 128, dims.cp_len, 72)
        assert np.all(out == 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros(100, dtype=complex), 128, 10, 72)

    @pytest.mark.parametrize("delay", [1, 4, 10])
    def test_delay_within_cp_is_pure_phase_ramp(self, delay):
        # circular-shift DFT theorem: delay d <= cp shows up as a
        # per-subcarrier ramp exp(-2j pi f_k d / N) with no leakage
        dims = GridDimensions(6)
        v = random_column(72, seed=delay)
        time = ofdm_modulate(zero_pad(v, dims.fft_size), dims.fft_size, dims.cp_len)
        delayed = np.concatenate([np.zeros(delay, dtype=complex), time])[:time.size]
        out = ofdm_demodulate(delayed, dims.fft_size, dims.cp_len, 72)
        bins = np.arange(72) - 36
        expected = v * np.exp(-2j * np.pi * bins * delay / dims.fft_size)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_batched_columns(self):
        dims = GridDimensions(6)
        cols = np.stack([random_column(72, seed=i) for i in range(4)])
        time = ofdm_modulate(zero_pad(cols, dims.fft_size), dims.fft_size, dims.cp_len)
        back = ofdm_demodulate(time, dims.fft_size, dims.cp_len, 72)
        assert np.max(np.abs(back - cols)) < 1e-10
