"""Tests for the SFBC encoder, pairings, and the Alamouti combiner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfbcsim.sfbc import (PAIRINGS, SfbcDecodeError, interleave_pairs,
                          pair_indices, sfbc_decode, sfbc_encode)


def random_h(rng, n=1):
    return rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))


def encode_symbol(symbols, pairing):
    """Per-antenna frequency vectors of one OFDM symbol's data subcarriers."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    k0, k1 = pair_indices(symbols.size, pairing)
    ant = np.empty((2, symbols.size), dtype=np.complex128)
    ant[:, k0], ant[:, k1] = sfbc_encode(symbols[0::2], symbols[1::2])
    return ant


def received_pair(x0, x1, h):
    """Noiseless received values built from the transmit arrangement."""
    h00, h01 = h[..., 0, 0], h[..., 0, 1]
    h10, h11 = h[..., 1, 0], h[..., 1, 1]
    y00 = x0 * h00 + x1 * h10
    y01 = x0 * h01 + x1 * h11
    y10 = np.conj(x0) * h10 - np.conj(x1) * h00
    y11 = np.conj(x0) * h11 - np.conj(x1) * h01
    return y00, y01, y10, y11


class TestPairIndices:
    def test_adjacent(self):
        k0, k1 = pair_indices(8, "adjacent")
        assert np.array_equal(k0, [0, 2, 4, 6])
        assert np.array_equal(k1, [1, 3, 5, 7])

    def test_mirror(self):
        k0, k1 = pair_indices(8, "mirror")
        assert np.array_equal(k0, [0, 1, 2, 3])
        assert np.array_equal(k1, [4, 5, 6, 7])

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            pair_indices(7, "mirror")

    def test_unknown_pairing_rejected(self):
        with pytest.raises(ValueError):
            pair_indices(8, "diagonal")


class TestEncode:
    def test_mirror_reference_example(self):
        # pair (1, j) at k=0 with N=4: antenna 0 carries 1 at k0=0 and
        # -x1* = j at k1=2; antenna 1 carries j at 0 and x0* = 1 at 2
        ant0, ant1 = encode_symbol([1, 1j, 0, 0], "mirror")
        assert ant0[0] == 1 and ant0[2] == 1j
        assert ant1[0] == 1j and ant1[2] == 1

    def test_adjacent_reference_example(self):
        ant0, ant1 = encode_symbol([1, 1j], "adjacent")
        assert ant0[0] == 1 and ant0[1] == 1j
        assert ant1[0] == 1j and ant1[1] == 1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_codeword_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        codeword = np.array([[x[0], -np.conj(x[1])], [x[1], np.conj(x[0])]])
        gram = codeword @ codeword.conj().T
        target = (abs(x[0]) ** 2 + abs(x[1]) ** 2) * np.eye(2)
        assert np.max(np.abs(gram - target)) < 1e-12

    def test_pairings_carry_identical_multisets(self):
        rng = np.random.default_rng(4)
        syms = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        a0, a1 = encode_symbol(syms, "adjacent")
        m0, m1 = encode_symbol(syms, "mirror")
        assert np.allclose(np.sort_complex(a0), np.sort_complex(m0))
        assert np.allclose(np.sort_complex(a1), np.sort_complex(m1))

    def test_every_data_re_covered_once(self):
        syms = np.arange(1, 13) + 0j
        for pairing in PAIRINGS:
            ant0, ant1 = encode_symbol(syms, pairing)
            assert np.all(ant0 != 0) and np.all(ant1 != 0)

    def test_pair_energy(self):
        # total transmit energy per pair across both antennas, before the
        # harness applies the 1/sqrt(2) power split
        x = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        ant0, ant1 = sfbc_encode(x[:1], x[1:])
        total = np.sum(np.abs(ant0) ** 2 + np.abs(ant1) ** 2)
        assert abs(total - 2 * (abs(x[0]) ** 2 + abs(x[1]) ** 2)) < 1e-12

    def test_pair_values_follow_table(self):
        x0, x1 = np.array([1 + 2j, 3j]), np.array([-1 + 1j, 2 - 1j])
        at_k0, at_k1 = sfbc_encode(x0, x1)
        assert np.array_equal(at_k0, [x0, x1])
        assert np.array_equal(at_k1, [-np.conj(x1), np.conj(x0)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sfbc_encode(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


class TestDecode:
    def test_identity_channel_exact(self):
        h = np.eye(2, dtype=complex)
        x0, x1 = 0.3 - 0.7j, -1.1 + 0.2j
        y = received_pair(x0, x1, h)
        out0, out1 = sfbc_decode(*y, h)
        assert abs(out0 - x0) < 1e-12 and abs(out1 - x1) < 1e-12

    def test_random_channels_cancel_exactly(self):
        # symbolic cancellation of the cross terms, checked numerically
        rng = np.random.default_rng(11)
        n = 1000
        h = random_h(rng, n)
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = received_pair(x0, x1, h)
        out0, out1 = sfbc_decode(*y, h)
        assert np.max(np.abs(out0 - x0)) < 1e-10
        assert np.max(np.abs(out1 - x1)) < 1e-10

    def test_zero_input_gives_zero(self):
        h = random_h(np.random.default_rng(2), 1)[0]
        z = np.zeros(())
        out0, out1 = sfbc_decode(z, z, z, z, h)
        assert out0 == 0 and out1 == 0

    def test_zero_denominator_raises(self):
        with pytest.raises(SfbcDecodeError):
            sfbc_decode(1.0, 1.0, 1.0, 1.0, np.zeros((2, 2), dtype=complex))

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(17)
        syms = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        for pairing in PAIRINGS:
            k0, k1 = pair_indices(24, pairing)
            ant0, ant1 = encode_symbol(syms, pairing)
            h = random_h(rng, k0.size)
            # channel constant across each pair: apply the k0 gain to both
            rx0_k0 = ant0[k0] * h[:, 0, 0] + ant1[k0] * h[:, 1, 0]
            rx1_k0 = ant0[k0] * h[:, 0, 1] + ant1[k0] * h[:, 1, 1]
            rx0_k1 = ant0[k1] * h[:, 0, 0] + ant1[k1] * h[:, 1, 0]
            rx1_k1 = ant0[k1] * h[:, 0, 1] + ant1[k1] * h[:, 1, 1]
            out0, out1 = sfbc_decode(rx0_k0, rx1_k0, rx0_k1, rx1_k1, h)
            back = interleave_pairs(out0, out1)
            assert np.max(np.abs(back - syms)) < 1e-10

    def test_post_combining_snr(self):
        # with noise variance s2 per received value, the combined symbol
        # error power is s2 / sum|h|^2, i.e. symbol SNR = sum|h|^2 / s2
        rng = np.random.default_rng(23)
        h = random_h(rng, 1)[0]
        d = float(np.sum(np.abs(h) ** 2))
        x0, x1 = 1.0 + 0j, -1j
        y = np.array(received_pair(x0, x1, h))
        n = 200_000
        s2 = 0.1
        noise = (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))) \
            * np.sqrt(s2 / 2)
        out0, _ = sfbc_decode(y[0] + noise[0], y[1] + noise[1],
                              y[2] + noise[2], y[3] + noise[3],
                              np.broadcast_to(h, (n, 2, 2)))
        err_power = np.mean(np.abs(out0 - x0) ** 2)
        assert abs(err_power - s2 / d) / (s2 / d) < 0.02
