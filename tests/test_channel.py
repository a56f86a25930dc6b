"""Tests for the radio environments, fading realization, and AWGN stage."""

import math

import numpy as np
import pytest

from sfbcsim.channel import (ENVIRONMENT_NAMES, FadingConfig,
                             add_awgn, apply_channel, build_environment,
                             load_environment_file, phase_ramp, realize_channel)
from sfbcsim.grid import GridDimensions


def reference_h(env, fading, dims, seeds):
    """Stacked channel gains drawn in the reference order, one generator per seed:
    every Jakes theta, then every phi, then every psi, each its own uniform call,
    then (K > 0) the line-of-sight phase and angle as two scalar draws."""
    n, n_taps = 32, len(env.delays_s)
    if env.name == "awgn_only":
        h = np.zeros((len(seeds), 2, 2, dims.n_subcarriers, dims.n_symbols), dtype=complex)
        h[:, [0, 1], [0, 1]] = 1.0
        return h
    rngs = [np.random.default_rng(s) for s in seeds]
    times = np.arange(dims.n_symbols) * ((dims.fft_size + dims.cp_len) / dims.sample_rate_hz)
    f_d = fading.max_doppler_hz
    shape = (2, 2, n_taps)
    theta, phi, psi = (np.stack([rng.uniform(-np.pi, np.pi, size=shape + tail) for rng in rngs])
                       for tail in ((1,), (n, 1), (n, 1)))
    alpha = (2 * np.pi * np.arange(1, n + 1) - np.pi + theta) / (4 * n)
    omega = 2 * np.pi * f_d * times
    scatter = (np.cos(omega * np.cos(alpha)[..., None] + phi).sum(axis=-2)
               + 1j * np.cos(omega * np.sin(alpha)[..., None] + psi).sum(axis=-2))
    scatter = 1.0 / math.sqrt(n) * scatter

    def corr_sqrt(rho):
        c = 0.5 * (math.sqrt(1.0 + rho) + math.sqrt(1.0 - rho))
        s = 0.5 * (math.sqrt(1.0 + rho) - math.sqrt(1.0 - rho))
        return np.array([[c, s], [s, c]])

    scatter = np.einsum("ma,...abit,nb->...mnit", corr_sqrt(fading.tx_corr), scatter,
                        corr_sqrt(fading.rx_corr))
    k = fading.k_factor
    if k > 0:
        los = np.array([(rng.uniform(-np.pi, np.pi), math.cos(rng.uniform(-np.pi, np.pi)))
                        for rng in rngs])
        los = np.exp(1j * (2 * np.pi * f_d * los[:, 1:] * times + los[:, :1]))[:, None, None, :]
        scatter[..., 0, :] = (math.sqrt(k / (k + 1.0)) * los
                              + math.sqrt(1.0 / (k + 1.0)) * scatter[..., 0, :])
    return phase_ramp(env, dims) @ (scatter * np.sqrt(env.powers_linear)[:, None])


@pytest.fixture
def dims():
    return GridDimensions(6)


class TestEnvironments:
    def test_known_names(self):
        assert set(ENVIRONMENT_NAMES) == {"awgn_only", "user_defined", "rural_area",
                                          "typical_urban", "bad_urban", "hilly_terrain"}

    def test_awgn_only_single_tap(self):
        env = build_environment("AwgnOnly")
        assert env.delays_s == (0.0,) and env.powers_db == (0.0,)

    def test_typical_urban_six_taps_normalized(self):
        env = build_environment("typical_urban")
        assert len(env.delays_s) == 6
        assert abs(env.powers_linear.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("name", ENVIRONMENT_NAMES)
    def test_unit_power_all_profiles(self, name):
        assert abs(build_environment(name).powers_linear.sum() - 1.0) < 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_environment("underwater")

    def test_rms_delay_spread_ordering(self):
        spread = {n: build_environment(n).rms_delay_spread_s()
                  for n in ENVIRONMENT_NAMES}
        assert (spread["hilly_terrain"] > spread["bad_urban"]
                > spread["typical_urban"] > spread["rural_area"]
                > spread["user_defined"] == spread["awgn_only"] == 0.0)

    def test_load_environment_file(self, tmp_path):
        f = tmp_path / "taps.txt"
        f.write_text("# delay_us power_db\n0.0 0\n1.0, -3\n")
        env = load_environment_file(f)
        assert env.name == "user_defined"
        assert env.delays_s == (0.0, 1e-6)
        assert abs(env.powers_linear.sum() - 1.0) < 1e-12

    def test_load_environment_file_skips_byte_order_mark(self, tmp_path):
        f = tmp_path / "taps.txt"
        f.write_text("\ufeff0.0 0\n1.0 -3\n", encoding="utf-8")
        assert load_environment_file(f).delays_s == (0.0, 1e-6)

    def test_load_environment_file_rejects_garbage(self, tmp_path):
        f = tmp_path / "taps.txt"
        f.write_text("0.0 0 extra\n")
        with pytest.raises(ValueError):
            load_environment_file(f)

    # the last three are finite in dB but underflow or overflow in linear scale
    @pytest.mark.parametrize("text", ["0.0 0\n1.0 nan\n", "0.0 0\ninf -3\n", "0.0 -inf\n",
                                      "0.0 -4000\n", "0.0 4000\n", "0.0 4000\n1.0 0\n"])
    def test_load_environment_file_rejects_non_finite(self, tmp_path, text):
        f = tmp_path / "taps.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            load_environment_file(f)


class TestFadingConfig:
    def test_doppler_from_speed_and_carrier(self):
        fading = FadingConfig(speed_kmh=3.0, carrier_freq_ghz=2.7)
        assert abs(fading.max_doppler_hz - 7.5) < 0.01

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            FadingConfig(k_factor=-1.0)

    # the last two are finite but overflow the Doppler shift
    @pytest.mark.parametrize("field,value", [("speed_kmh", -3.0), ("carrier_freq_ghz", -2.7),
                                             ("carrier_freq_ghz", 0.0), ("speed_kmh", 1e308),
                                             ("carrier_freq_ghz", 1e300)])
    def test_out_of_range_mobility_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FadingConfig(**{field: value})

    def test_static_channel_accepted(self):
        assert FadingConfig(speed_kmh=0.0).max_doppler_hz == 0.0

    @pytest.mark.parametrize("field", ["k_factor", "speed_kmh", "carrier_freq_ghz"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FadingConfig(**{field: value})

    def test_invalid_corr_rejected(self):
        with pytest.raises(ValueError):
            FadingConfig(tx_corr=1.5)


class TestRealizeChannel:
    def test_phase_ramp_shared_and_read_only(self, dims):
        ramp = phase_ramp(build_environment("typical_urban"), dims)
        assert phase_ramp(build_environment("typical_urban"), GridDimensions(6)) is ramp
        with pytest.raises(ValueError, match="read-only"):
            ramp[0, 0] = 0.0

    def test_awgn_only_is_identity(self, dims):
        h = realize_channel(build_environment("awgn_only"), FadingConfig(),
                            dims, seed=1)
        assert np.all(h[0, 0] == 1.0) and np.all(h[1, 1] == 1.0)
        assert np.all(h[0, 1] == 0.0) and np.all(h[1, 0] == 0.0)

    @pytest.mark.parametrize("name", ["awgn_only", "hilly_terrain"])
    @pytest.mark.parametrize("k_factor", [0.0, 10.0])
    def test_stack_draws_each_realization_as_if_alone(self, dims, name, k_factor):
        env, fading = build_environment(name), FadingConfig(k_factor=k_factor)
        stacked = realize_channel(env, fading, dims, seed=[7, 8, 9])
        assert stacked.shape == (3, 2, 2, dims.n_subcarriers, dims.n_symbols)
        for b, seed in enumerate([7, 8, 9]):
            assert np.array_equal(stacked[b], realize_channel(env, fading, dims, seed))

    # no preset sets k = 0, and the trial oracle calls realize_channel itself:
    # this pins the order in which each generator's numbers are used
    @pytest.mark.parametrize("name", ENVIRONMENT_NAMES)
    @pytest.mark.parametrize("k_factor", [0.0, 3.0, 1000.0])
    @pytest.mark.parametrize("n_rb", [6, 50])
    @pytest.mark.parametrize("seeds", [[11], [7, 2**40 + 3, 0]])
    def test_draws_follow_the_reference_order(self, name, k_factor, n_rb, seeds):
        env, grid = build_environment(name), GridDimensions(n_rb)
        fading = FadingConfig(k_factor=k_factor, speed_kmh=60.0)
        expected = reference_h(env, fading, grid, seeds)
        assert np.array_equal(realize_channel(env, fading, grid, seeds), expected)
        if len(seeds) == 1:
            assert np.array_equal(realize_channel(env, fading, grid, seeds[0]), expected[0])

    def test_deterministic_in_seed(self, dims):
        env = build_environment("typical_urban")
        a = realize_channel(env, FadingConfig(), dims, seed=7)
        b = realize_channel(env, FadingConfig(), dims, seed=7)
        c = realize_channel(env, FadingConfig(), dims, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rician_limit_collapses_to_los(self, dims):
        env = build_environment("user_defined")
        fading = FadingConfig(k_factor=1e9, tx_corr=0.0, rx_corr=0.0)
        h = realize_channel(env, fading, dims, seed=3)
        assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-3

    def test_k1000_quasi_deterministic(self, dims):
        env = build_environment("user_defined")
        mags = []
        for seed in range(200):
            h = realize_channel(env, FadingConfig(k_factor=1000.0), dims, seed)
            mags.append(np.abs(h[:, :, 0, 0]).ravel())
        assert np.std(np.concatenate(mags)) < 0.05

    def test_rayleigh_moments_k0(self, dims):
        # 1e5 |H| draws across seeds and links: mean power within 2 % of 1,
        # fourth-moment ratio near the Rayleigh value of 2
        env = build_environment("user_defined")
        fading = FadingConfig(k_factor=0.0, tx_corr=0.0, rx_corr=0.0)
        tiny = GridDimensions(6)
        samples = []
        for seed in range(25_000):
            h = realize_channel(env, fading, tiny, seed)
            samples.append(h[:, :, 0, 0].ravel())
        h = np.concatenate(samples)
        assert h.size == 100_000
        p2 = np.mean(np.abs(h) ** 2)
        p4 = np.mean(np.abs(h) ** 4)
        assert abs(p2 - 1.0) < 0.02
        assert abs(p4 / p2**2 - 2.0) < 0.06

    def test_kronecker_correlations(self, dims):
        env = build_environment("user_defined")
        fading = FadingConfig(k_factor=0.0, tx_corr=0.7, rx_corr=0.2)
        h00, h10, h01 = [], [], []
        for seed in range(1500):
            h = realize_channel(env, fading, dims, seed)
            h00.append(h[0, 0, 0, 0])
            h10.append(h[1, 0, 0, 0])  # other transmit antenna, same receive
            h01.append(h[0, 1, 0, 0])  # same transmit antenna, other receive
        h00, h10, h01 = map(np.asarray, (h00, h10, h01))

        def corr(a, b):
            return np.mean(a * np.conj(b)) / np.sqrt(np.mean(np.abs(a) ** 2)
                                                     * np.mean(np.abs(b) ** 2))
        assert abs(corr(h00, h10) - 0.7) < 0.05
        assert abs(corr(h00, h01) - 0.2) < 0.05

    def test_equal_half_correlations(self, dims):
        # the shipped default: both correlations 0.5
        env = build_environment("user_defined")
        fading = FadingConfig(k_factor=0.0, tx_corr=0.5, rx_corr=0.5)
        a, b = [], []
        for seed in range(1500):
            h = realize_channel(env, fading, dims, seed)
            a.append(h[0, 0, 0, 0])
            b.append(h[0, 1, 0, 0])
        a, b = np.asarray(a), np.asarray(b)
        rho = np.mean(a * np.conj(b)) / np.sqrt(np.mean(np.abs(a) ** 2)
                                                * np.mean(np.abs(b) ** 2))
        assert abs(rho - 0.5) < 0.05

    def test_frequency_selectivity_present_for_multipath(self, dims):
        env = build_environment("typical_urban")
        h = realize_channel(env, FadingConfig(k_factor=0.0), dims, seed=2)
        spread = np.std(np.abs(h[0, 0, :, 0]))
        assert spread > 0.05

    def test_jakes_temporal_autocorrelation(self, dims):
        # lag-1 autocorrelation of the fading process must follow the Jakes
        # law J0(2 pi f_d tau); checked at a Doppler high enough to resolve
        from scipy.special import j0

        fading = FadingConfig(k_factor=0.0, speed_kmh=1300.0,
                              tx_corr=0.0, rx_corr=0.0)
        env = build_environment("user_defined")
        symbol_t = (dims.fft_size + dims.cp_len) / dims.sample_rate_hz
        acc = []
        for seed in range(1200):
            h = realize_channel(env, fading, dims, seed)[0, 0, 0, :]
            acc.append(np.mean(h[1:] * np.conj(h[:-1])) / np.mean(np.abs(h) ** 2))
        empirical = np.mean(acc)
        theory = j0(2 * np.pi * fading.max_doppler_hz * symbol_t)
        assert abs(empirical.real - theory) < 0.04
        assert abs(empirical.imag) < 0.04

    def test_mobility_increases_time_variation(self, dims):
        env = build_environment("user_defined")
        slow = realize_channel(env, FadingConfig(k_factor=0.0, speed_kmh=3.0),
                               dims, seed=5)
        fast = realize_channel(env, FadingConfig(k_factor=0.0, speed_kmh=300.0),
                               dims, seed=5)
        var_slow = np.mean(np.abs(np.diff(slow[0, 0, 0, :])))
        var_fast = np.mean(np.abs(np.diff(fast[0, 0, 0, :])))
        assert var_fast > 10 * var_slow


class TestApplyChannel:
    def test_identity_pass_through(self, dims):
        h = realize_channel(build_environment("awgn_only"), FadingConfig(),
                            dims, seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 72, 14)) + 1j * rng.standard_normal((2, 72, 14))
        assert np.allclose(apply_channel(x, h), x)

    def test_single_link_scaling(self, dims):
        h = realize_channel(build_environment("awgn_only"), FadingConfig(),
                            dims, seed=1)
        h[0, 0] = 2.0
        h[1, 1] = 0.0
        x = np.zeros((2, 72, 14), dtype=complex)
        x[0, 10, 3] = 1.0 + 1.0j
        y = apply_channel(x, h)
        assert y[0, 10, 3] == 2.0 + 2.0j
        assert np.all(y[1] == 0)

    def test_superposition(self, dims):
        env = build_environment("typical_urban")
        h = realize_channel(env, FadingConfig(), dims, seed=9)
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((2, 72, 14)) + 1j * rng.standard_normal((2, 72, 14))
        x2 = rng.standard_normal((2, 72, 14)) + 1j * rng.standard_normal((2, 72, 14))
        lhs = apply_channel(x1 + x2, h)
        rhs = apply_channel(x1, h) + apply_channel(x2, h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch_rejected(self, dims):
        h = realize_channel(build_environment("awgn_only"), FadingConfig(),
                            dims, seed=1)
        with pytest.raises(ValueError):
            apply_channel(np.zeros((2, 10, 14), dtype=complex), h)


class TestAddAwgn:
    def test_infinite_snr_bypass(self):
        x = np.ones((4, 4), dtype=complex)
        assert np.array_equal(add_awgn(x, np.inf, 1.0, seed=0), x)
        assert np.array_equal(add_awgn(x, None, 1.0, seed=0), x)

    def test_noise_variance(self):
        noise = add_awgn(np.zeros(10**6, dtype=complex), 0.0, 1.0, seed=5)
        assert abs(np.mean(np.abs(noise) ** 2) - 1.0) < 0.01

    def test_snr_scales_variance(self):
        noise = add_awgn(np.zeros(10**6, dtype=complex), 10.0, 1.0, seed=5)
        assert abs(np.mean(np.abs(noise) ** 2) - 0.1) < 0.001

    def test_deterministic(self):
        x = np.ones(100, dtype=complex)
        assert np.array_equal(add_awgn(x, 3.0, 1.0, seed=2),
                              add_awgn(x, 3.0, 1.0, seed=2))

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_undefined_snr_rejected(self, snr_db):
        with pytest.raises(ValueError):
            add_awgn(np.ones(4, dtype=complex), snr_db, 1.0, seed=1)

    def test_stack_draws_each_signal_as_if_alone(self):
        x = np.arange(12, dtype=complex).reshape(3, 4)
        snrs, seeds = [3.0, None, -2.0], [5, 6, 7]
        stacked = add_awgn(x, snrs, 1.0, seeds)
        for b in range(3):
            assert np.array_equal(stacked[b], add_awgn(x[b], snrs[b], 1.0, seeds[b]))

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.ones(4, dtype=complex), 0.0, 0.0, seed=1)

    def test_stack_matches_the_normal_stream(self):
        # a noisy row is x + normal(scale=sqrt(var/2)) drawn as (real, imag)
        # pairs from the row's own generator, bit for bit
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 2, 72, 14)) + 1j * rng.standard_normal((5, 2, 72, 14))
        snrs, seeds, power = [3.0, None, -2.5, math.inf, 17.0], [11, 12, 13, 14, 15], 0.75
        stacked = add_awgn(x, snrs, power, seeds)
        for b, (snr, seed) in enumerate(zip(snrs, seeds)):
            if snr is None or snr == math.inf:
                assert np.array_equal(stacked[b], x[b])
                continue
            scale = math.sqrt(power / 10.0 ** (snr / 10.0) / 2.0)
            draws = np.random.default_rng(seed).normal(scale=scale, size=x[b].shape + (2,))
            assert np.array_equal(stacked[b], x[b] + draws.view(np.complex128)[..., 0])
