"""Waveform-level, hardware-aware simulator for sub-THz radio stripes.

CP-OFDM signals travel from a central unit through measurement-
parameterized fiber/coupler/amplifier cascades to an active radio unit,
across a per-subcarrier wireless channel, and back; stage taps and
end-to-end metrics (NMSE, SNDR, EVM, BER) are exported for reproducible
impairment and RU-selection studies.
"""

__version__ = "0.1.0"

from .waveform import (ResourceGrid, SubcarrierGrid, TimeWaveform,
                       build_resource_grid, demap_qam, map_qam, ofdm_modulate)
from .touchstone import (FrequencyResponse, ImpulseResponse, TwoPortNetwork,
                         interpolate_s21, parse_touchstone, read_touchstone,
                         to_impulse_response)
from .components import (AmplifierParams, DacParams, IqParams,
                         LinearElementParams, Oscillator, OscillatorParams,
                         amplifier_process, combine, dac_process,
                         iq_modem_process, linear_element_process,
                         noise_power, oscillator_phasor, pa_nonlinearity,
                         split)
from .channel import (ChannelRealization, TdlParams, add_thermal_noise,
                      apply_channel, free_space_gain, los_channel,
                      rayleigh_channel, tap_powers, tdl_channel)
from .config import (ComponentBank, EnvironmentConfig, WaveformConfig,
                     load_components, load_environment, load_waveform,
                     validate_cross)
from .dataset import (CfrDataset, CfrDatasetReader, DatasetHeader, UeMetadata,
                      generate_synthetic, read_dataset, write_dataset)
from .metrics import (MetricReport, am_am_extract, ber, equalize,
                      estimate_channel, nmse)
from .stripe import (CalibrationResult, LinkResult, StripeTopology,
                     build_stripe, calibrate_gains, make_grid,
                     propagate_downlink, propagate_uplink, run_link)

__all__ = [name for name in dir() if not name.startswith("_")]
