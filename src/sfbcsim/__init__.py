"""Link-level simulator for an LTE downlink SFBC 2x2 MIMO transceiver.

The package measures uncoded bit error rates of the full
encode/channel/decode chain (M-QAM over OFDM with frequency-domain
Alamouti coding, pilot-based channel estimation, and a correlated Rician
multipath channel) as a function of SNR across modulation orders and
radio environments.
"""

from .channel import (FadingConfig, RadioEnvironment, add_awgn, apply_channel,
                      build_environment, load_environment_file, realize_channel)
from .cli import ConfigError, emit_csv, emit_json, emit_plot, load_config, main
from .grid import (GridDimensions, ofdm_demodulate, ofdm_modulate,
                   strip_padding, zero_pad)
from .harness import (BerRecord, ScenarioConfig, SimulationError, run_sweep,
                      run_trial)
from .modem import (QamConstellation, bit_errors, demodulate, generate_bits,
                    modulate)
from .pilots import (EstimationError, PilotPattern, PilotPlan, estimate_channel,
                     insert_pilots, interpolate_channel, normalize_pilots,
                     pilot_values)
from .sfbc import (SfbcDecodeError, pair_indices, sfbc_decode, sfbc_encode)

__version__ = "0.1.0"

__all__ = [
    "BerRecord", "ConfigError", "EstimationError", "FadingConfig", "GridDimensions",
    "PilotPattern", "PilotPlan", "QamConstellation", "RadioEnvironment",
    "ScenarioConfig", "SfbcDecodeError", "SimulationError", "add_awgn", "apply_channel",
    "bit_errors", "build_environment", "demodulate", "emit_csv", "emit_json",
    "emit_plot", "estimate_channel", "generate_bits", "insert_pilots",
    "interpolate_channel", "load_config", "load_environment_file", "main", "modulate",
    "normalize_pilots", "ofdm_demodulate", "ofdm_modulate", "pair_indices",
    "pilot_values", "realize_channel", "run_sweep", "run_trial", "sfbc_decode",
    "sfbc_encode", "strip_padding", "zero_pad",
]
