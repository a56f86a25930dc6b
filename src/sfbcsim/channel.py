"""2x2 MIMO multipath fading channel and the AWGN stage.

The six radio environments are tapped-delay-line profiles; the named
multipath ones use the COST 207 reduced tap settings with powers
normalized to unit total.  Fading is Rician per tap zero (line-of-sight
share set by the K factor) over Rayleigh scatter with a Jakes Doppler
spectrum, spatially correlated across the four links via the Kronecker
model.  A realization is an array generated directly in the frequency
domain, one complex gain per link, subcarrier and OFDM symbol, and applied
as y = Hx + n per resource element.  No inter-symbol interference is modelled,
even where a tap outlasts the cyclic prefix (5.2 us at 6 RB, while bad_urban
and hilly_terrain reach 6.6 and 17.2 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridDimensions

SPEED_OF_LIGHT = 299_792_458.0

# tap tables: (delays in microseconds, relative powers in dB)
_ENVIRONMENTS = {
    "awgn_only": ((0.0,), (0.0,)),
    "user_defined": ((0.0,), (0.0,)),
    "rural_area": ((0.0, 0.2, 0.4, 0.6), (0.0, -2.0, -10.0, -20.0)),
    "typical_urban": ((0.0, 0.2, 0.5, 1.6, 2.3, 5.0),
                      (-3.0, 0.0, -2.0, -6.0, -8.0, -10.0)),
    "bad_urban": ((0.0, 0.3, 1.0, 1.6, 5.0, 6.6),
                  (-2.5, 0.0, -3.0, -5.0, -2.0, -4.0)),
    "hilly_terrain": ((0.0, 0.1, 0.3, 0.5, 15.0, 17.2),
                      (0.0, -1.5, -4.5, -7.5, -8.0, -17.7)),
}

ENVIRONMENT_NAMES = tuple(_ENVIRONMENTS)

_N_SINUSOIDS = 32  # sum-of-sinusoids order for the Jakes spectrum


@dataclass(frozen=True)
class RadioEnvironment:
    """Named tapped-delay-line profile."""

    name: str
    delays_s: tuple[float, ...]
    powers_db: tuple[float, ...]

    def __post_init__(self):
        if len(self.delays_s) != len(self.powers_db) or not self.delays_s:
            raise ValueError("tap delays and powers must be non-empty and equal length")
        if not np.all(np.isfinite(self.delays_s + self.powers_db)):
            raise ValueError("tap delays and powers must be finite")
        if any(d < 0 for d in self.delays_s):
            raise ValueError("tap delays must be non-negative")
        if list(self.delays_s) != sorted(self.delays_s):
            raise ValueError("tap delays must be sorted")
        # finite dB powers can still overflow or underflow in linear scale
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.powers_linear)):
                raise ValueError("tap powers must be finite once normalized to linear "
                                 f"scale, got {self.powers_db} dB")

    @property
    def powers_linear(self) -> np.ndarray:
        """Tap powers normalized so their linear sum is 1."""
        p = 10.0 ** (np.asarray(self.powers_db) / 10.0)
        return p / p.sum()

    @property
    def max_delay_s(self) -> float:
        return self.delays_s[-1]

    def rms_delay_spread_s(self) -> float:
        p = self.powers_linear
        d = np.asarray(self.delays_s)
        mean = float(p @ d)
        return float(math.sqrt(max(p @ d**2 - mean**2, 0.0)))


def canonical_name(name: str) -> str:
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0 and name[i - 1].islower():
            out.append("_")
        out.append(ch.lower())
    return "".join(out).replace("-", "_").replace(" ", "_")


def build_environment(name: str) -> RadioEnvironment:
    """Look up a named environment (case/camel insensitive)."""
    key = canonical_name(name)
    if key not in _ENVIRONMENTS:
        raise ValueError(
            f"unknown radio environment {name!r}; known: {', '.join(ENVIRONMENT_NAMES)}")
    delays_us, powers_db = _ENVIRONMENTS[key]
    return RadioEnvironment(key, tuple(d * 1e-6 for d in delays_us), powers_db)


def load_environment_file(path) -> RadioEnvironment:
    """Read a user-defined tap table: one `delay_us power_db` pair per line."""
    delays, powers = [], []
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'delay_us power_db'")
            delays.append(float(parts[0]) * 1e-6)
            powers.append(float(parts[1]))
    if not delays:
        raise ValueError(f"{path}: no tap entries found")
    order = np.argsort(delays)
    return RadioEnvironment("user_defined",
                            tuple(delays[i] for i in order),
                            tuple(powers[i] for i in order))


@dataclass(frozen=True)
class FadingConfig:
    """Fading knobs: Rician K, mobility, carrier and antenna correlations."""

    k_factor: float = 1000.0
    speed_kmh: float = 3.0
    carrier_freq_ghz: float = 2.7
    tx_corr: float = 0.5
    rx_corr: float = 0.5

    def __post_init__(self):
        for label in ("k_factor", "speed_kmh", "carrier_freq_ghz"):
            if not math.isfinite(getattr(self, label)):
                raise ValueError(f"{label} must be finite, got {getattr(self, label)}")
        for label in ("k_factor", "speed_kmh"):  # a speed of 0 is a static channel
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0, got {getattr(self, label)}")
        if self.carrier_freq_ghz <= 0:
            raise ValueError(f"carrier_freq_ghz must be > 0, got {self.carrier_freq_ghz}")
        for label, value in (("tx_corr", self.tx_corr), ("rx_corr", self.rx_corr)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1], got {value}")
        if not math.isfinite(2 * math.pi * self.max_doppler_hz):  # then every phase is finite
            raise ValueError("speed_kmh and carrier_freq_ghz give an infinite Doppler shift")

    @property
    def max_doppler_hz(self) -> float:
        return (self.speed_kmh / 3.6) * self.carrier_freq_ghz * 1e9 / SPEED_OF_LIGHT


def _corr_sqrt(rho: float) -> np.ndarray:
    # Hermitian square root of [[1, rho], [rho, 1]] for real rho in [0, 1]
    c = 0.5 * (math.sqrt(1.0 + rho) + math.sqrt(1.0 - rho))
    s = 0.5 * (math.sqrt(1.0 + rho) - math.sqrt(1.0 - rho))
    return np.array([[c, s], [s, c]])


def _jakes_process(angles: np.ndarray, shape: tuple[int, ...],
                   f_d: float, times: np.ndarray) -> np.ndarray:
    """Unit-power complex scatter with a Jakes spectrum at max Doppler f_d.

    Sum-of-sinusoids construction; `shape` indexes independent processes.
    Each row of `angles` holds one stack item's uniform phases: every
    process's theta, then every phi, then every psi.  The returned array has
    shape `(len(angles),) + shape + (len(times),)`.
    """
    n, size = _N_SINUSOIDS, math.prod(shape)
    theta, phi, psi = np.split(angles, [size, size * (n + 1)], axis=-1)
    theta = theta.reshape((-1,) + shape + (1,))
    phi, psi = (a.reshape((-1,) + shape + (n, 1)) for a in (phi, psi))
    alpha = (2 * np.pi * np.arange(1, n + 1) - np.pi + theta) / (4 * n)
    omega = 2 * np.pi * f_d * times  # (n_t,)
    arg_i = omega * np.cos(alpha)[..., None] + phi
    arg_q = omega * np.sin(alpha)[..., None] + psi
    scale = 1.0 / math.sqrt(n)
    return scale * (np.cos(arg_i).sum(axis=-2) + 1j * np.cos(arg_q).sum(axis=-2))


@lru_cache(maxsize=16)  # the 252-sweep matrix: 5 tap tables (awgn_only has none) x 3 grids
def phase_ramp(env: RadioEnvironment, dims: GridDimensions) -> np.ndarray:
    """e^{-j2πfτ_i} per subcarrier and tap, shape (n_subcarriers, taps); read-only, shared."""
    ramp = np.exp(-2j * np.pi * np.outer(dims.subcarrier_freqs_hz(), np.asarray(env.delays_s)))
    ramp.flags.writeable = False
    return ramp


def realize_channel(env: RadioEnvironment, fading: FadingConfig,
                    dims: GridDimensions, seed) -> np.ndarray:
    """Draw one deterministic channel realization for a subframe: the per-link
    complex gains h, shape (2 tx, 2 rx, n_subcarriers, n_symbols).

    Per tap, the four links carry correlated Rayleigh scatter with a Jakes
    Doppler spectrum; the line-of-sight share of the K factor rides on tap
    zero only, identical on every link.  Taps are then collapsed onto the
    subcarriers through the delay-response sum H(f) = sum_i g_i e^{-j2πfτ_i}.
    The AwgnOnly environment is the identity channel.
    A sequence of seeds (or Generators) stacks one realization per seed on a
    leading axis, each drawn from its own generator exactly as if alone.
    """
    if np.ndim(seed) == 0:
        return realize_channel(env, fading, dims, [seed])[0]
    n_sc, n_sym = dims.n_subcarriers, dims.n_symbols
    if env.name == "awgn_only":
        h = np.zeros((len(seed), 2, 2, n_sc, n_sym), dtype=np.complex128)
        h[:, [0, 1], [0, 1]] = 1.0
        return h

    n_taps = len(env.delays_s)
    symbol_duration = (dims.fft_size + dims.cp_len) / dims.sample_rate_hz
    times = np.arange(n_sym) * symbol_duration
    f_d = fading.max_doppler_hz
    k = fading.k_factor

    # per generator, one call: the Jakes phases, then (K > 0) the line-of-sight
    # phase and its angle of arrival; uniform maps each double alike, however split
    n_jakes = 4 * n_taps * (1 + 2 * _N_SINUSOIDS)
    angles = np.stack([np.random.default_rng(s).uniform(-np.pi, np.pi, n_jakes + 2 * (k > 0))
                       for s in seed])
    scatter = _jakes_process(angles[:, :n_jakes], (2, 2, n_taps), f_d, times)
    r_tx = _corr_sqrt(fading.tx_corr)
    r_rx = _corr_sqrt(fading.rx_corr)
    scatter = np.einsum("ma,...abit,nb->...mnit", r_tx, scatter, r_rx)  # (seeds, 2, 2, taps, t)

    if k > 0:
        cos_aoa = np.array([math.cos(a) for a in angles[:, -1]])[:, None]  # libm, as recorded
        los = np.exp(1j * (2 * np.pi * f_d * cos_aoa * times + angles[:, -2:-1]))[:, None, None]
        scatter[..., 0, :] = (math.sqrt(k / (k + 1.0)) * los
                              + math.sqrt(1.0 / (k + 1.0)) * scatter[..., 0, :])

    taps = scatter * np.sqrt(env.powers_linear)[:, None]
    return phase_ramp(env, dims) @ taps  # (seeds, 2, 2, k, t)


def apply_channel(tx_grids: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Noiseless received grids: y_n[k, t] = sum_m h[m, n, k, t] x_m[k, t], per stack item."""
    tx_grids = np.asarray(tx_grids)
    expected = h.shape[:-4] + (2,) + h.shape[-2:]
    if tx_grids.shape != expected:
        raise ValueError(
            f"tx grids shape {tx_grids.shape} does not match the gains' {expected}")
    return np.einsum("...mnkt,...mkt->...nkt", h, tx_grids)


def draw_noise(shape, snr_db, reference_power: float, seed) -> np.ndarray:
    """add_awgn's noise for a stack of signals of `shape` (stack, ...), in a new array."""
    if reference_power <= 0:
        raise ValueError(f"reference power must be positive, got {reference_power}")
    if not len(snr_db) == len(seed) == shape[0]:
        raise ValueError(f"{len(snr_db)} SNRs and {len(seed)} seeds for {shape[0]} signals")
    noise = np.empty(tuple(shape) + (2,))
    for b, (snr, s) in enumerate(zip(snr_db, seed)):
        if snr is None or snr == math.inf:
            noise[b] = 0.0
            continue
        if not snr > -math.inf:
            raise ValueError(f"snr_db must be finite, +inf or None, got {snr}")
        variance = reference_power / 10.0 ** (snr / 10.0)
        np.random.default_rng(s).standard_normal(out=noise[b])
        noise[b] *= math.sqrt(variance / 2.0)  # normal(scale=...) bit for bit: 0 + scale * z
    return noise.view(np.complex128)[..., 0]  # each pair of draws: real, imaginary


def add_awgn(signal: np.ndarray, snr_db, reference_power: float, seed) -> np.ndarray:
    """Add circular complex Gaussian noise at the given per-element SNR.

    The noise variance per element is reference_power / 10^(snr_db/10);
    snr_db of None or +inf bypasses the noise entirely, NaN and -inf are
    rejected.  Sequences of SNRs and seeds stack signals on the leading
    axis of `signal`, each drawing its own noise as if alone.
    """
    if np.ndim(seed) == 0:
        return add_awgn(np.asarray(signal)[None], [snr_db], reference_power, [seed])[0]
    out = draw_noise(np.shape(signal), snr_db, reference_power, seed)
    out += signal
    return out
