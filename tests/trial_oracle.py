"""Reference trial: one subframe through the public module functions.

Independent oracle for the harness tests: the literal one-trial chain, built
from the modules alone (no engine, no cached tables), exactly as the harness
ran it before trials were stacked.  The engine must return the same
(bits_sent, bit_errors) as `run_trial` here for every trial, whatever stack
it runs the trial in.  The oracle keeps the OFDM round trip that the engine
leaves out, so that match also shows that leaving it out changes no decision.
"""

import numpy as np

from sfbcsim import channel, modem, pilots, sfbc
from sfbcsim.grid import ofdm_demodulate, ofdm_modulate, zero_pad
from sfbcsim.harness import ANTENNA_AMPLITUDE


def derive_seed(master_seed: int, *key: int) -> int:
    """The documented splitting rule, taken from numpy's SeedSequence itself."""
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1, np.uint64)[0])


def run_trial(cfg, snr_db, trial_seed: int) -> tuple[int, int]:
    """(bits_sent, bit_errors) of one trial of `cfg`, a ScenarioConfig."""
    dims, env, fading = cfg.dims(), cfg.build_environment(), cfg.fading()
    n_sc, n_sym, fft, cp = dims.n_subcarriers, dims.n_symbols, dims.fft_size, dims.cp_len
    constellation = modem.QamConstellation(cfg.modulation)
    pattern = pilots.PilotPattern(n_sc)
    plan = pilots.PilotPlan(pattern, derive_seed(cfg.seed, 0))

    # every SFBC pair of the subframe in transmit order, symbol by symbol
    k0, k1, l = [], [], []
    for sym in range(n_sym):
        dk = pattern.data_subcarriers(sym)
        i0, i1 = sfbc.pair_indices(dk.size, cfg.pairing)
        k0.append(dk[i0])
        k1.append(dk[i1])
        l.append(np.full(i0.size, sym))
    k0, k1, l = np.concatenate(k0), np.concatenate(k1), np.concatenate(l)

    n_bits = 2 * k0.size * constellation.bits_per_symbol
    bits = modem.generate_bits(n_bits, derive_seed(trial_seed, 0))
    symbols = modem.modulate(bits, constellation)
    grids = np.zeros((2, n_sc, n_sym), dtype=np.complex128)
    grids[:, k0, l], grids[:, k1, l] = sfbc.sfbc_encode(symbols[0::2], symbols[1::2])
    pilots.insert_pilots(grids, plan)
    grids *= ANTENNA_AMPLITUDE

    tx_time = ofdm_modulate(zero_pad(np.moveaxis(grids, 1, 2), fft), fft, cp)
    tx_freq = np.moveaxis(ofdm_demodulate(tx_time, fft, cp, n_sc), 2, 1)
    h = channel.realize_channel(env, fading, dims, derive_seed(trial_seed, 1))
    received = channel.apply_channel(tx_freq, h)
    # ensemble-average received data-RE power: unit-energy links
    reference_power = ANTENNA_AMPLITUDE ** 2 * (2.0 if env.name == "awgn_only" else 4.0) / 2.0
    received = channel.add_awgn(received, snr_db, reference_power, derive_seed(trial_seed, 2))

    if cfg.csi == "perfect":
        h_est = h * ANTENNA_AMPLITUDE
    else:
        h_est = pilots.estimate_channel(received, plan)
    h_pair = np.moveaxis(h_est[:, :, k0, l], 2, 0)
    x0, x1 = sfbc.sfbc_decode(*received[:, k0, l], *received[:, k1, l], h_pair)
    rx_bits = modem.demodulate(sfbc.interleave_pairs(x0, x1), constellation)
    errors, _ = modem.bit_errors(bits, rx_bits)
    return bits.size, errors
