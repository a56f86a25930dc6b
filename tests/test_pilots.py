"""Tests for the pilot pattern, normalization, and channel interpolation."""

import numpy as np
import pytest

import pilot_oracle
from sfbcsim.grid import RB_BANDWIDTH_MHZ, GridDimensions
from sfbcsim.pilots import (EstimationError, PILOT_SYMBOLS, PilotPattern,
                            PilotPlan, estimate_channel, insert_pilots,
                            interpolate_channel, normalize_pilots,
                            pilot_values)


@pytest.fixture
def dims():
    return GridDimensions(6)


@pytest.fixture
def pattern(dims):
    return PilotPattern(dims.n_subcarriers)


@pytest.fixture
def plan(pattern):
    return PilotPlan(pattern, seed=0)


class TestPattern:
    def test_pilot_symbols_and_stride(self, pattern):
        for port in (0, 1):
            for symbol, subcarriers in pattern.pilot_positions(port):
                assert symbol in PILOT_SYMBOLS
                assert np.all(np.diff(subcarriers) == 6)
                assert len(subcarriers) == 12

    def test_offsets_alternate_and_swap(self, pattern):
        first0 = [ks[0] for _, ks in pattern.pilot_positions(0)]
        first1 = [ks[0] for _, ks in pattern.pilot_positions(1)]
        assert first0 == [0, 3, 0, 3]
        assert first1 == [3, 0, 3, 0]

    def test_port_sets_disjoint(self, pattern):
        for (sym0, k0), (sym1, k1) in zip(pattern.pilot_positions(0),
                                          pattern.pilot_positions(1)):
            assert sym0 == sym1
            assert not set(k0.tolist()) & set(k1.tolist())

    def test_data_subcarriers_even_and_complementary(self, pattern):
        for symbol in range(14):
            data = pattern.data_subcarriers(symbol)
            reserved = pattern.reserved_subcarriers(symbol)
            assert len(data) % 2 == 0
            assert len(data) + len(reserved) == 72
            assert len(data) == (48 if symbol in PILOT_SYMBOLS else 72)

    def test_too_few_subcarriers_rejected(self):
        with pytest.raises(EstimationError):
            PilotPattern(8)

    def test_symbol_count_fixed_by_the_subframe(self):
        with pytest.raises(TypeError):
            PilotPattern(72, 14)


class TestPilotValues:
    def test_unit_amplitude_and_quadrant_phases(self, pattern):
        allowed = {45.0, 135.0, -45.0, -135.0}
        for port in (0, 1):
            for vals in pilot_values(pattern, port, seed=5):
                assert np.allclose(np.abs(vals), 1.0)
                degrees = np.round(np.degrees(np.angle(vals)), 6)
                assert set(degrees.tolist()) <= allowed

    def test_deterministic(self, pattern):
        a = pilot_values(pattern, 0, seed=9)
        b = pilot_values(pattern, 0, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_ports_differ(self, pattern):
        a = pilot_values(pattern, 0, seed=9)
        b = pilot_values(pattern, 1, seed=9)
        assert not all(np.array_equal(x, y) for x, y in zip(a, b))


class TestInsertPilots:
    def test_nulls_on_other_port(self, pattern):
        grids = np.zeros((2, 72, 14), dtype=complex)
        insert_pilots(grids, PilotPlan(pattern, seed=3))
        for port in (0, 1):
            for symbol, subcarriers in pattern.pilot_positions(port):
                assert np.allclose(np.abs(grids[port, subcarriers, symbol]), 1.0)
                assert np.all(grids[1 - port, subcarriers, symbol] == 0)

    def test_collision_with_data_rejected(self, pattern):
        grids = np.zeros((2, 72, 14), dtype=complex)
        grids[0, 0, 0] = 1.0  # symbol 0, subcarrier 0 is a port-0 pilot RE
        with pytest.raises(RuntimeError):
            insert_pilots(grids, PilotPlan(pattern, seed=3))

    def test_data_positions_untouched(self, pattern):
        grids = np.zeros((2, 72, 14), dtype=complex)
        data = pattern.data_subcarriers(0)
        grids[0, data, 0] = 2.0
        insert_pilots(grids, PilotPlan(pattern, seed=3))
        assert np.all(grids[0, data, 0] == 2.0)


class TestNormalizePilots:
    def test_exact_identity(self):
        known = np.exp(1j * np.pi / 4) * np.ones(8)
        assert np.allclose(normalize_pilots(known, known), 1.0)

    def test_flat_complex_gain(self):
        known = np.exp(1j * np.pi / 4) * np.ones(8)
        h = 2.0 * np.exp(1j * np.pi / 3)
        assert np.allclose(normalize_pilots(h * known, known), h)

    def test_zero_known_rejected(self):
        with pytest.raises(ValueError):
            normalize_pilots(np.ones(3), np.array([1.0, 0.0, 1.0]))

    def test_noisy_mean_within_clt_bound(self):
        rng = np.random.default_rng(8)
        n = 10_000
        sigma = 0.1
        known = np.exp(1j * (np.pi / 4 + rng.integers(0, 4, n) * np.pi / 2))
        h = 0.8 - 0.3j
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * sigma / np.sqrt(2)
        samples = normalize_pilots(h * known + noise, known)
        assert abs(samples.mean() - h) < 3 * sigma / np.sqrt(n)


class TestInterpolateChannel:
    def _samples(self, plan, fn):
        return fn(plan.k.astype(float), plan.l.astype(float))

    def test_flat_channel_exact_everywhere(self, plan):
        c = 1.3 - 0.4j
        samples = self._samples(plan, lambda k, t: np.full(k.shape, c))
        est = interpolate_channel(samples, plan)
        assert est.shape == (2, 72, 14)
        assert np.max(np.abs(est - c)) < 1e-12

    def test_linear_in_frequency_exact_between_outer_pilots(self, pattern, plan):
        slope = 0.02 - 0.01j
        samples = self._samples(plan, lambda k, t: slope * k)
        est = interpolate_channel(samples, plan)
        for port in (0, 1):
            for symbol, subcarriers in pattern.pilot_positions(port):
                lo, hi = subcarriers[0], subcarriers[-1]
                k = np.arange(lo, hi + 1)
                assert np.max(np.abs(est[port, k, symbol] - slope * k)) < 1e-12

    def test_passes_through_knots(self, plan):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(plan.k.shape) + 1j * rng.standard_normal(plan.k.shape)
        est = interpolate_channel(samples, plan)
        for port in (0, 1):
            at_knots = est[port, plan.k[port], plan.l[port]]
            assert np.max(np.abs(at_knots - samples[port])) < 1e-10

    def test_affine_in_time_exact_between_pilot_symbols(self, plan):
        base, rate = 0.5 + 0.1j, 0.03 + 0.02j
        samples = self._samples(plan, lambda k, t: base + rate * t)
        est = interpolate_channel(samples, plan)
        for symbol in range(PILOT_SYMBOLS[0], PILOT_SYMBOLS[-1] + 1):
            expected = base + rate * symbol
            assert np.max(np.abs(est[:, :, symbol] - expected)) < 1e-12
        # constant extrapolation beyond the last pilot symbol
        assert np.allclose(est[:, :, 13], base + rate * PILOT_SYMBOLS[-1])

    def test_sample_count_mismatch_rejected(self, plan):
        samples = np.ones((2, plan.k.shape[1] - 12))
        with pytest.raises(ValueError):
            interpolate_channel(samples, plan)


class TestEstimateChannel:
    def _pilot_only_grids(self, plan):
        grids = np.zeros((2, 72, 14), dtype=complex)
        return insert_pilots(grids, plan)

    def test_static_flat_2x2_recovered(self, pattern):
        plan = PilotPlan(pattern, seed=21)
        tx = self._pilot_only_grids(plan)
        h = np.array([[1.2 - 0.3j, 0.4 + 0.9j], [-0.7 + 0.2j, 0.5 - 1.1j]])
        rx = np.einsum("mn,mkt->nkt", h, tx)
        est = estimate_channel(rx, plan)
        for m in (0, 1):
            for n in (0, 1):
                assert np.max(np.abs(est[m, n] - h[m, n])) < 1e-10

    def test_estimate_error_decreases_with_pilot_snr(self, pattern):
        plan = PilotPlan(pattern, seed=4)
        tx = self._pilot_only_grids(plan)
        h = np.array([[1.0, 0.3 + 0.4j], [0.2 - 0.5j, 0.9j]])
        clean = np.einsum("mn,mkt->nkt", h, tx)
        true = np.empty((2, 2, 72, 14), dtype=complex)
        for m in (0, 1):
            for n in (0, 1):
                true[m, n] = h[m, n]
        rng = np.random.default_rng(99)
        rms = []
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            sigma2 = 10 ** (-snr_db / 10)
            errs = []
            for _ in range(30):
                noise = (rng.standard_normal(clean.shape)
                         + 1j * rng.standard_normal(clean.shape)) * np.sqrt(sigma2 / 2)
                est = estimate_channel(clean + noise, plan)
                errs.append(np.sqrt(np.mean(np.abs(est - true) ** 2)))
            rms.append(np.mean(errs))
        assert rms[0] > rms[1] > rms[2] > rms[3]


class TestAgainstDenseOracle:
    """The table-driven path reproduces the dense loop form bit for bit."""

    @pytest.mark.parametrize("n_rb", sorted(RB_BANDWIDTH_MHZ))
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    def test_insert_and_estimate_equal_oracle(self, n_rb, seed):
        dims = GridDimensions(n_rb)
        pattern = PilotPattern(dims.n_subcarriers)
        plan = PilotPlan(pattern, seed)
        shape = (2, dims.n_subcarriers, dims.n_symbols)
        rng = np.random.default_rng([n_rb, seed % 2**32])

        # pilots into grids whose data REs already carry symbols
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        free = np.ones(shape, dtype=bool)
        for port in (0, 1):
            for symbol, subcarriers in pattern.pilot_positions(port):
                free[:, subcarriers, symbol] = False
        data[~free] = 0.0
        expected = pilot_oracle.insert_pilots(data.copy(), pattern, seed)
        assert np.array_equal(insert_pilots(data.copy(), plan), expected)

        for _ in range(3):
            received = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(
                estimate_channel(received, plan),
                pilot_oracle.estimate_channel(received, pattern, seed, dims))
