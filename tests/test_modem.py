"""Tests for bit generation, QAM mapping/demapping, and error counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfbcsim.modem import (QAM_ORDERS, QamConstellation, bit_errors,
                           demodulate, generate_bits, modulate)

from qam_oracle import qam_ber_awgn


@pytest.fixture(params=QAM_ORDERS)
def constellation(request):
    return QamConstellation(request.param)


class TestConstellation:
    def test_unit_average_energy(self, constellation):
        energy = np.mean(np.abs(constellation.points) ** 2)
        assert abs(energy - 1.0) < 1e-12

    def test_points_distinct_and_counted(self, constellation):
        assert len(constellation.points) == constellation.order
        assert len(np.unique(np.round(constellation.points, 12))) == constellation.order

    def test_gray_code_between_lattice_neighbours(self, constellation):
        # neighbours one lattice step apart along a single axis differ in one bit
        pts = constellation.points
        step = 2.0 / np.sqrt(2.0 * (constellation.order - 1) / 3.0)
        for a in range(constellation.order):
            for b in range(a + 1, constellation.order):
                d = pts[a] - pts[b]
                along_i = abs(abs(d.real) - step) < 1e-9 and abs(d.imag) < 1e-9
                along_q = abs(abs(d.imag) - step) < 1e-9 and abs(d.real) < 1e-9
                if along_i or along_q:
                    assert bin(a ^ b).count("1") == 1, (a, b)

    def test_16qam_lattice(self):
        c = QamConstellation(16)
        lattice = {(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)}
        scaled = {(round(p.real * np.sqrt(10)), round(p.imag * np.sqrt(10)))
                  for p in c.points}
        assert scaled == lattice

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            QamConstellation(8)


def gray_amplitude(bits):
    """The reflected Gray map one axis label at a time: (b0, b2) -> (1-2*b0) * (2 - (1-2*b2))."""
    if len(bits) == 1:
        return 1 - 2 * bits[0]
    return (1 - 2 * bits[0]) * (2 ** (len(bits) - 1) - gray_amplitude(bits[1:]))


class TestConstellationTables:
    """The tables bit for bit (signs of zero included) against a per-label construction."""

    def test_tables_match_per_label_construction(self, constellation):
        order, k = constellation.order, constellation.bits_per_symbol
        m_axis = k // 2
        scale = np.sqrt(2.0 * (order - 1) / 3.0)
        points = np.empty(order, dtype=np.complex128)
        for label in range(order):
            bits = [(label >> (k - 1 - i)) & 1 for i in range(k)]
            points[label] = (gray_amplitude(bits[0::2]) + 1j * gray_amplitude(bits[1::2])) / scale
        levels = np.array([gray_amplitude([(g >> (m_axis - 1 - i)) & 1 for i in range(m_axis)])
                           for g in range(2 ** m_axis)], dtype=np.float64) / scale
        pair_bits = np.empty((order, k), dtype=np.uint8)
        i_lab, q_lab = np.divmod(np.arange(order), 2 ** m_axis)
        for b in range(m_axis):
            pair_bits[:, 2 * b] = (i_lab >> (m_axis - 1 - b)) & 1
            pair_bits[:, 2 * b + 1] = (q_lab >> (m_axis - 1 - b)) & 1
        for ours, theirs in ((constellation.points, points),
                             (constellation._axis_levels, levels)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
        assert constellation._pair_bits.dtype == np.uint8
        assert np.array_equal(constellation._pair_bits, pair_bits)


class TestGenerateBits:
    def test_deterministic(self):
        assert np.array_equal(generate_bits(8, seed=1), generate_bits(8, seed=1))

    def test_domain_and_length(self):
        bits = generate_bits(4, seed=7)
        assert bits.shape == (4,)
        assert set(np.unique(bits)) <= {0, 1}

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_ones_fraction(self, seed):
        # binomial 5-sigma bound at 1e6 draws
        bits = generate_bits(10**6, seed=seed)
        assert 0.495 <= bits.mean() <= 0.505

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            generate_bits(0, seed=1)

    @given(seed=st.integers(0, 2**128), count=st.integers(1, 6000))
    @settings(max_examples=200, deadline=None)
    def test_matches_integers(self, seed, count):
        """The raw-word form draws numpy's own uniform bits, counts short of a
        whole word included, from an int seed as from a fresh generator."""
        expected = np.random.default_rng(seed).integers(0, 2, size=count, dtype=np.uint8)
        for source in (seed, np.random.default_rng(seed)):
            bits = generate_bits(count, source)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, expected)


class TestModulate:
    def test_qpsk_reference_point(self):
        c = QamConstellation(4)
        sym = modulate(np.array([0, 0]), c)
        assert abs(sym[0] - (1 + 1j) / np.sqrt(2)) < 1e-12
        assert abs(abs(sym[0]) ** 2 - 1.0) < 1e-12

    def test_empirical_energy(self):
        c = QamConstellation(4)
        syms = modulate(generate_bits(10**6, seed=3), c)
        assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 0.01

    def test_indivisible_length_rejected(self, constellation):
        k = constellation.bits_per_symbol
        with pytest.raises(ValueError):
            modulate(np.zeros(k + 1, dtype=np.uint8), constellation)


class TestDemodulate:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        for order in QAM_ORDERS:
            c = QamConstellation(order)
            bits = generate_bits(60, seed=seed)
            assert np.array_equal(demodulate(modulate(bits, c), c), bits)

    def test_nearest_neighbour(self):
        c = QamConstellation(4)
        assert np.array_equal(demodulate(np.array([0.9 + 0.9j]), c), [0, 0])

    def test_tie_breaks_to_lowest_label(self):
        # the origin is equidistant from the innermost points; the lowest
        # bit label among them must win (for 4-QAM that is label 0, i.e. 00)
        for order in QAM_ORDERS:
            c = QamConstellation(order)
            distances = np.round(np.abs(c.points), 12)
            lowest = int(np.argmin(distances))  # first minimum = lowest label
            expected = [(lowest >> (c.bits_per_symbol - 1 - i)) & 1
                        for i in range(c.bits_per_symbol)]
            assert np.array_equal(demodulate(np.array([0 + 0j]), c), expected)
        assert np.array_equal(demodulate(np.array([0 + 0j]), QamConstellation(4)),
                              [0, 0])


def reference_demodulate(symbols, c):
    """The per-axis argmin demapper: the exact reference for `demodulate`.

    Each axis takes the first minimum of |value - level| over the levels in
    axis-label order, so ties go to the lowest label and NaN to label 0.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    k = c.bits_per_symbol
    m = k // 2
    # the in-phase level of axis label g: the point whose even bits spell g
    levels = np.array([c.points[sum(((g >> (m - 1 - i)) & 1) << (k - 1 - 2 * i)
                                    for i in range(m))].real for g in range(2 ** m)])
    i_lab = np.argmin(np.abs(symbols.real[:, None] - levels[None, :]), axis=1)
    q_lab = np.argmin(np.abs(symbols.imag[:, None] - levels[None, :]), axis=1)
    bits = np.empty((symbols.size, k), dtype=np.uint8)
    for b in range(m):
        bits[:, 2 * b] = (i_lab >> (m - 1 - b)) & 1
        bits[:, 2 * b + 1] = (q_lab >> (m - 1 - b)) & 1
    return bits.ravel()


class TestDemodulateAgainstReference:
    """`demodulate` must equal the per-axis argmin demapper bit for bit."""

    def test_noisy_symbols(self, constellation):
        rng = np.random.default_rng(constellation.order)
        sent = modulate(generate_bits(3000 * constellation.bits_per_symbol, seed=4),
                        constellation)
        for sigma in (0.05, 0.3, 3.0):
            noisy = sent + sigma * (rng.standard_normal(sent.size)
                                    + 1j * rng.standard_normal(sent.size))
            assert np.array_equal(demodulate(noisy, constellation),
                                  reference_demodulate(noisy, constellation))

    def test_every_midpoint_on_both_axes(self, constellation):
        levels = np.unique(constellation.points.real)
        mids = [(a + b) / 2 for i, a in enumerate(levels) for b in levels[i + 1:]]
        axis = np.concatenate([levels, mids])
        symbols = (axis[:, None] + 1j * axis[None, :]).ravel()
        assert np.array_equal(demodulate(symbols, constellation),
                              reference_demodulate(symbols, constellation))

    def test_signed_zeros_infinities_and_nan(self, constellation):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5])
        symbols = np.empty((special.size, special.size), dtype=np.complex128)
        symbols.real, symbols.imag = special[:, None], special[None, :]
        assert np.array_equal(demodulate(symbols, constellation),
                              reference_demodulate(symbols, constellation))


class TestBitErrors:
    def test_identical(self):
        assert bit_errors(np.ones(10, int), np.ones(10, int)) == (0, 0.0)

    def test_complementary(self):
        a = np.zeros(100, int)
        assert bit_errors(a, 1 - a) == (100, 1.0)

    def test_quarter(self):
        assert bit_errors(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 1])) == (1, 0.25)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bit_errors(np.zeros(3, int), np.zeros(4, int))


class TestAwgnOracle:
    """SISO hard-decision BER against the closed-form Gray M-QAM expression."""

    # SNR points where theory predicts roughly 1e-2 .. 1e-3
    POINTS = {4: (7.3, 9.8), 16: (13.9, 16.5), 64: (19.8, 22.6)}

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_matches_theory_within_ten_percent(self, order):
        c = QamConstellation(order)
        n_bits = 2_000_000 // c.bits_per_symbol * c.bits_per_symbol
        bits = generate_bits(n_bits, seed=order)
        syms = modulate(bits, c)
        rng = np.random.default_rng(order + 1000)
        for snr_db in self.POINTS[order]:
            sigma2 = 10.0 ** (-snr_db / 10.0)
            noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=(syms.size, 2))
            rx = syms + noise[:, 0] + 1j * noise[:, 1]
            _, ber = bit_errors(bits, demodulate(rx, c))
            theory = qam_ber_awgn(order, snr_db)
            assert theory >= 1e-3 / 2, "test point drifted out of range"
            assert abs(ber - theory) / theory < 0.10, (order, snr_db, ber, theory)
