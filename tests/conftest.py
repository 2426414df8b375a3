"""Shared fixtures: synthetic Touchstone files and config trees."""

from __future__ import annotations

import json
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from stripesim.config import (AntennaConfig, ComponentBank, EnvironmentConfig,
                              StripeLayout, StripeNode, SubThzConfig,
                              WaveformConfig)


def s2p_from_taps(taps, fc: float, sample_rate: float, n_points: int,
                  span: float | None = None, fmt: str = "RI") -> str:
    """Render an .s2p whose S21 is the transfer function of an FIR.

    ``S21(f) = sum_l h[l] exp(-j 2 pi f l / fs)`` sampled on ``n_points``
    spanning ``span`` (default: the full sample-rate band) around fc.
    Useful because the impulse response on a matching grid is exactly the
    given taps, so frequency/time equivalence is testable to precision.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    span = sample_rate if span is None else span
    freqs = fc + np.linspace(-span / 2, span / 2, n_points)
    ell = np.arange(taps.size)
    s21 = (taps[None, :] * np.exp(-2j * np.pi * freqs[:, None] * ell / sample_rate)).sum(axis=1)
    lines = ["! synthetic FIR network", "# Hz S RI R 50"]
    for f, s in zip(freqs, s21):
        lines.append(f"{float(f)!r} 0 0 {float(s.real)!r} {float(s.imag)!r} 0 0 0 0")
    return "\n".join(lines) + "\n"


def flat_s2p(value: complex = 1.0, f_lo: float = 100e9, f_hi: float = 200e9,
             n_points: int = 11) -> str:
    lines = ["# Hz S RI R 50"]
    for f in np.linspace(f_lo, f_hi, n_points):
        lines.append(f"{float(f)!r} 0 0 {complex(value).real!r} {complex(value).imag!r} 0 0 0 0")
    return "\n".join(lines) + "\n"


def edit_metadata(directory: Path, edit):
    """Apply ``edit`` to a dataset's parsed metadata.json, write it back
    and record its new CRC in the manifest, so only the edit is wrong."""
    meta = json.loads((directory / "metadata.json").read_text())
    edit(meta)
    blob = json.dumps(meta).encode()
    (directory / "metadata.json").write_bytes(blob)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["files"]["metadata.json"] = {"crc32": zlib.crc32(blob), "size": len(blob)}
    (directory / "manifest.json").write_text(json.dumps(manifest))


@pytest.fixture
def small_env() -> EnvironmentConfig:
    """1 stripe, 5 RUs spaced 0.5 m, one UE, Q=256 grid."""
    nodes = tuple([StripeNode("central_unit", (0.1, 3.0, 2.8))]
                  + [StripeNode("radio_unit", (0.6 + 0.5 * i, 3.0, 2.8))
                     for i in range(5)])
    return EnvironmentConfig(
        room=(10.0, 6.0, 3.0),
        stripe_config=StripeLayout(n_stripes=1, n_rus=5, inter_ru_spacing=0.5),
        radio_stripes=(nodes,),
        ue_positions=((3.0, 2.0, 1.5),),
        central_unit_fiber_length=2.0,
        sub_thz=SubThzConfig(fc=157.75e9, bw=3e9, num_subcarriers=256),
        antenna=AntennaConfig(n_antennas=1),
    )


@pytest.fixture
def small_wf() -> WaveformConfig:
    return WaveformConfig(n_ofdm_symbols=4, qam_order=16, oversampling_factor=2,
                          cp_length=16, pilot_spacing=8, pilot_mode="scattered",
                          tx_power=0.0)


@pytest.fixture
def ideal_bank() -> ComponentBank:
    return ComponentBank()


ENV_YAML = textwrap.dedent("""\
    room: {x: 10.0, y: 6.0, z: 3.0}
    stripe_config:
      N_stripes: 1
      N_RUs: 3
      inter_RU_spacing: 0.5
      inter_stripe_spacing: 1.0
      orientation: x
    radio_stripes:
      - - {kind: central_unit, position: [0.1, 3.0, 2.8]}
        - {kind: radio_unit, position: [0.6, 3.0, 2.8]}
        - {kind: radio_unit, position: [1.1, 3.0, 2.8]}
        - {kind: radio_unit, position: [1.6, 3.0, 2.8]}
    ue_positions:
      - [3.0, 2.0, 1.5]
      - [5.0, 4.0, 1.5]
    sub_thz: {fc: 157.75e9, bw: 3.0e9, num_subcarriers: 256}
    antenna: {N_antennas: 1, polarization: single, pattern: isotropic}
    central_unit_fiber_length: 2.0
""")

LAST_RU = "    - {kind: radio_unit, position: [1.6, 3.0, 2.8]}\n"

# (old, new) edits of ENV_YAML that add a second stripe, its CU 1.0 m
# (inter_stripe_spacing) from the first one's
TWO_STRIPES = [("N_stripes: 1", "N_stripes: 2"), (LAST_RU, LAST_RU + (
    "  - - {kind: central_unit, position: [0.1, 4.0, 2.8]}\n"
    "    - {kind: radio_unit, position: [0.6, 4.0, 2.8]}\n"
    "    - {kind: radio_unit, position: [1.1, 4.0, 2.8]}\n"
    "    - {kind: radio_unit, position: [1.6, 4.0, 2.8]}\n"))]

WF_YAML = textwrap.dedent("""\
    waveform_type: cp-ofdm
    n_ofdm_symbols: 4
    qam_order: 16
    oversampling_factor: 2
    cp_length: 16
    pilot_spacing: 8
    pilot_mode: scattered
    tx_power: 0.0
""")

COMP_YAML = textwrap.dedent("""\
    boost_amplifier: {model: ideal, gain_db: 0.0}
    antenna_amplifier: {model: ideal, gain_db: 0.0}
    fiber: {model: ideal}
    coupler: {model: ideal}
    dac: {model: ideal}
    oscillator: {model: ideal}
    iq_modem: {gain_mismatch: 1.0, phase_mismatch: 0.0, dc_offset: [0.0, 0.0]}
    calibration: {target_power: 0.0, max_gain: 30.0}
""")


@pytest.fixture
def config_tree(tmp_path: Path) -> dict:
    """Write the three YAML files and return their paths."""
    paths = {
        "env": tmp_path / "environment.yaml",
        "waveform": tmp_path / "waveform.yaml",
        "components": tmp_path / "components.yaml",
    }
    paths["env"].write_text(ENV_YAML)
    paths["waveform"].write_text(WF_YAML)
    paths["components"].write_text(COMP_YAML)
    return paths
