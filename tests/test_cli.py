"""CLI surface: exit codes, CSV outputs, determinism, manifests."""

import argparse
import concurrent.futures
import csv
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from stripesim import config
from stripesim.channel import ChannelRealization
from stripesim.cli import _export_channel, _export_taps, _fmt, build_parser, main
from stripesim.touchstone import MAX_DB
from stripesim.waveform import SubcarrierGrid

from stripesim.errors import AntennaCountMismatch, InterSymbolInterferenceRisk

from conftest import (COMP_YAML, ENV_YAML, LAST_RU, TWO_STRIPES, WF_YAML, edit_metadata,
                      flat_s2p, s2p_from_taps)

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "docs" / "examples"


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def _base_flags(config_tree):
    return ["--env", config_tree["env"], "--waveform", config_tree["waveform"],
            "--components", config_tree["components"]]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_ideal_chain_ber_zero(config_tree, tmp_path):
    out = tmp_path / "out"
    code = _run("run", *_base_flags(config_tree), "--channel", "los",
                "--ru", "1", "--seed", "3", "--out", out)
    assert code == 0
    rows = _read_csv(out / "metrics.csv")
    assert rows[0] == ["stripe_id", "ru_id", "ue_id", "seed", "direction",
                       "nmse_db", "sndr_db", "evm_percent", "ber", "n_bits"]
    record = dict(zip(rows[0], rows[1]))
    assert record["ber"] == "0.0"
    assert float(record["nmse_db"]) < -60.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"]["seed"] == 3
    assert "metrics.csv" in manifest["outputs"]


def test_run_deterministic_bytes(config_tree, tmp_path):
    args = ["run", *_base_flags(config_tree), "--channel", "los",
            "--ru", "2", "--seed", "9"]
    assert _run(*args, "--out", tmp_path / "a") == 0
    assert _run(*args, "--out", tmp_path / "b") == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_run_missing_env_exits_config(config_tree, tmp_path):
    code = _run("run", "--env", tmp_path / "nope.yaml",
                "--waveform", config_tree["waveform"],
                "--components", config_tree["components"],
                "--ru", "0", "--out", tmp_path / "o")
    assert code == 2


def test_run_bad_ru_exits_config(config_tree, tmp_path):
    code = _run("run", *_base_flags(config_tree), "--ru", "99",
                "--out", tmp_path / "o")
    assert code == 2  # configuration error: RU out of range


def _gen_dataset(config_tree, out) -> str:
    """A one-antenna LoS dataset of the test scenario's two UEs."""
    assert _run("gen-channels", "--env", config_tree["env"], "--model", "los",
                "--n-tx", "1", "--n-rx", "1", "--out", out) == 0
    return f"dataset:{out}"


_AMP = "boost_amplifier: {model: ideal, gain_db: 0.0}"
_IQ = "dc_offset: [0.0, 0.0]"
_CAL = "calibration: {target_power: 0.0, max_gain: 30.0}"
# a flat S21 of 0.5 from 100 to 200 GHz, one row per 10 GHz: the run's band
# (157.75 GHz, 6 GHz wide with oversampling) interpolates between the
# 150, 160 and 170 GHz rows
_S2P = flat_s2p(0.5)
_BAD_S2P = {
    "s2p-s21-nan-outside-the-band": _S2P.replace("140000000000.0 0 0 0.5",
                                                 "140000000000.0 0 0 nan"),
    "s2p-s21-nan-in-the-band": _S2P.replace("160000000000.0 0 0 0.5",
                                            "160000000000.0 0 0 nan"),
    "s2p-db-magnitude-overflows": _S2P.replace("RI", "DB").replace(
        "140000000000.0 0 0 0.5", "140000000000.0 0 0 1e308"),
    "s2p-frequency-not-finite": _S2P.replace("200000000000.0", "inf"),
    "s2p-not-utf8": _S2P.encode().replace(b" 0.5 ", b" 0.\xff ", 1),
    "s2p-s21-magnitude-beyond-max-db": _S2P.replace("100000000000.0 0 0 0.5",
                                                    "100000000000.0 0 0 1e308"),
    **{f"s2p-reference-impedance-{name}": _S2P.replace("R 50", f"R {value}")
       for name, value in (("nan", "nan"), ("negative", "-1"), ("zero", "0"),
                           ("beyond-max-db", "1e308"), ("infinite", "inf"))},
}


# one metadata.json field each, set to a value outside its domain
_BAD_METADATA = {
    "n-rx-negative": lambda m: m["header"].update(n_rx=-1),
    "n-stripes-a-bool": lambda m: m["header"].update(n_stripes=True),
    "subcarriers-a-fraction": lambda m: m["header"].update(num_subcarriers=64.5),
    "fc-zero": lambda m: m["header"].update(fc=0.0),
    "bw-not-finite": lambda m: m["header"].update(bw=float("inf")),
    "ue-x-not-finite": lambda m: m["ues"][0].update(x=float("nan")),
    "ue-id-a-fraction": lambda m: m["ues"][0].update(id=0.5),
    "ue-id-negative": lambda m: m["ues"][0].update(id=-1),
    "ue-ids-duplicate": lambda m: m["ues"][1].update(id=m["ues"][0]["id"]),
    "ue-grid-i-a-bool": lambda m: m["ues"][0].update(grid_i=True, grid_j=0),
    "ue-grid-j-a-fraction": lambda m: m["ues"][0].update(grid_i=0, grid_j=0.5),
    "ue-grid-i-negative": lambda m: m["ues"][0].update(grid_i=-1, grid_j=0),
    "ue-grid-i-alone": lambda m: m["ues"][0].update(grid_i=0),
    "ue-grid-j-alone": lambda m: m["ues"][0].update(grid_j=0),
}


@pytest.mark.parametrize("command, flags, config_edit, files, expected", [
    pytest.param("run", ["--ru", "1"],
                 (_AMP, _AMP[:-1] + ", poly_coeffs: [abc]}"), None, 2,
                 id="poly-coeffs-not-numbers"),
    pytest.param("run", ["--ru", "1"],
                 (_AMP, _AMP[:-1] + ", poly_coeffs: 3}"), None, 2,
                 id="poly-coeffs-not-a-list"),
    pytest.param("run", ["--ru", "1"], (_IQ, "dc_offset: abc"), None, 2,
                 id="dc-offset-not-a-number"),
    pytest.param("run", ["--ru", "1"],
                 (_AMP, _AMP[:-1] + ", poly_coeffs: [.nan]}"), None, 2,
                 id="poly-coeffs-not-finite"),
    pytest.param("run", ["--ru", "1"], (_IQ, "dc_offset: .inf"), None, 2,
                 id="dc-offset-not-finite"),
    pytest.param("run", ["--ru", "1"], (_IQ, "dc_offset: true"), None, 2,
                 id="dc-offset-a-bool"),
    pytest.param("run", ["--ru", "1"], (_AMP, _AMP.replace("ideal", "ideal, mode: tanh")),
                 None, 2, id="amplifier-model-and-mode"),
    pytest.param("run", ["--ru", "1"], (_AMP, _AMP[:-1] + ", nf_db: -1, bandwidth: 3.0e9}"),
                 None, 2, id="amplifier-nf-db-negative"),
    pytest.param("run", ["--ru", "1"],
                 (_AMP, _AMP[:-1] + ", nf_db: 6, bandwidth: 3.0e9, temperature: -1}"),
                 None, 2, id="amplifier-temperature-negative"),
    pytest.param("run", ["--ru", "1"],
                 (_CAL, _CAL + "\nreceiver: {nf_db: 7.0, temperature: 0}"), None, 2,
                 id="receiver-temperature-zero"),
    pytest.param("run", ["--ru", "1"], (_AMP, _AMP.replace("0.0", "1e30")), None, 2,
                 id="amplifier-gain-db-overflows"),
    pytest.param("run", ["--ru", "1"], ("coupler: {model: ideal}",
                                        "coupler: {model: fixed_damping, loss_db: -1e308}"),
                 None, 2, id="coupler-loss-db-overflows"),
    pytest.param("run", ["--ru", "1"], ("tx_power: 0.0", "tx_power: 1e30"), None, 2,
                 id="tx-power-overflows"),
    pytest.param("run", ["--ru", "1"], (_CAL, _CAL + "\nreceiver: {nf_db: 1e30}"), None, 2,
                 id="receiver-nf-db-overflows"),
    pytest.param("calibrate", [], (_CAL, _CAL.replace("30.0", "1e30")), None, 2,
                 id="calibration-max-gain-overflows"),
    pytest.param("run", ["--ru", "1"],
                 ("dac: {model: ideal}", "dac: {model: quantize, bits: 1e30}"), None, 2,
                 id="dac-bits-beyond-a-float"),
    pytest.param("run", ["--ru", "1"], ("n_ofdm_symbols: 4", "n_ofdm_symbols: 1e30"),
                 None, 2, id="symbol-count-too-large"),
    pytest.param("run", ["--ru", "1"],
                 ("oversampling_factor: 2", f"oversampling_factor: {2 ** 70}"), None, 2,
                 id="oversampling-too-large"),
    *[pytest.param(command, flags, ("N_antennas: 1", "N_antennas: 1e9"), None, 2,
                   id=f"{command}-antenna-count-too-large")
      for command, flags in (("run", ["--ru", "1"]), ("sweep-ru", []), ("calibrate", []))],
    pytest.param("run", ["--ru", "1", "--channel", "tdl:abc"], None, None, 2,
                 id="channel-tdl-beta-not-a-number"),
    pytest.param("run", ["--ru", "1", "--channel", "tdl:0.5:x"], None, None, 2,
                 id="channel-tdl-taps-not-an-integer"),
    pytest.param("run", ["--ru", "1", "--channel", "tdl:0.5:0"], None, None, 2,
                 id="channel-tdl-taps-zero"),
    pytest.param("run", ["--ru", "1", "--channel", "tdl:nan"], None, None, 2,
                 id="channel-tdl-beta-not-finite"),
    pytest.param("run", ["--ru", "1", "--channel", "tdl:0.5:100000"], None, None, 2,
                 id="channel-tdl-taps-beyond-the-grid"),
    pytest.param("run", ["--ru", "1", "--ue", "5"], None, None, 2,
                 id="run-ue-out-of-range"),
    *[pytest.param("calibrate", [flag, value], None, None, 2,
                   id=f"calibrate{flag}-{value}")
      for flag in ("--target-dbm", "--max-gain") for value in ("1e30", "inf", "nan")],
    *[pytest.param("gen-channels", ["--model", "tdl", *flags], None, None, 2,
                   id=f"gen-channels{flags[0]}-{flags[1]}")
      for flags in (["--beta", "-1"], ["--beta", "nan"], ["--beta", "inf"],
                    ["--taps-l", "100000"])],
    pytest.param("gen-channels", ["--n-tx", "100000", "--n-rx", "100000"], None, None, 2,
                 id="gen-channels-tensor-too-large"),
    *[pytest.param("gen-channels", ["--model", "los", *flags], None, None, 2,
                   id=f"gen-channels-los-{flags[0][2:]}")
      for flags in (["--beta", "7"], ["--taps-l", "3"])],
    *[pytest.param("run", ["--ru", "1"], (old, new), None, 2, id=name)
      for name, old, new in (
          ("amplifier-sat-amplitude-zero", _AMP, "boost_amplifier: {model: tanh, "
           "sat_amplitude: 0}"),
          ("amplifier-bandwidth-negative", _AMP, _AMP[:-1] + ", nf_db: 6, bandwidth: -1}"),
          ("dac-clip-amplitude-zero", "dac: {model: ideal}",
           "dac: {model: quantize, clip_amplitude: 0}"),
          ("dac-clip-amplitude-beyond-max-db", "dac: {model: ideal}",
           "dac: {model: quantize, clip_amplitude: 1e308}"),
          ("oscillator-innovation-std-negative", "oscillator: {model: ideal}",
           "oscillator: {model: wiener, innovation_std: -1}"),
          ("oscillator-ar-rho-above-one", "oscillator: {model: ideal}",
           "oscillator: {model: ar1, ar_rho: 2}"),
          ("iq-gain-mismatch-zero", "gain_mismatch: 1.0", "gain_mismatch: 0"),
          ("sub-thz-bw-beyond-twice-fc", "bw: 3.0e9", "bw: 1e30"),
          ("sub-thz-fc-beyond-a-petahertz", "fc: 157.75e9", "fc: 1e308"))],
    pytest.param("run", ["--ru", "1"], ("N_RUs: 3", "N_RUs: 4"), None, 2,
                 id="stripe-config-n-rus-disagrees"),
    pytest.param("run", ["--ru", "1"], ("N_stripes: 1", "N_stripes: 2"), None, 2,
                 id="stripe-config-n-stripes-disagrees"),
    pytest.param("run", ["--ru", "1"], ("pattern: isotropic", "pattern: tr38901"),
                 None, 2, id="antenna-pattern-not-applied"),
    pytest.param("run", ["--ru", "1"], ("orientation: x", "orientation: y"), None, 2,
                 id="stripe-config-orientation-disagrees"),
    pytest.param("run", ["--ru", "1"], ("orientation: x", "orientation: w"), None, 2,
                 id="stripe-config-orientation-unknown"),
    pytest.param("run", ["--ru", "1"], ("polarization: single", "polarization: dual"),
                 None, 2, id="antenna-polarization-not-applied"),
    pytest.param("run", ["--ru", "1"], ("inter_RU_spacing: 0.5", "inter_RU_spacing: 0.6"),
                 None, 2, id="stripe-config-inter-ru-spacing-disagrees"),
    pytest.param("run", ["--ru", "1"],
                 [*TWO_STRIPES, ("inter_stripe_spacing: 1.0", "inter_stripe_spacing: 1.5")],
                 None, 2, id="stripe-config-inter-stripe-spacing-disagrees"),
    pytest.param("run", ["--ru", "1"],
                 ("orientation: x", "orientation: x\n  start_position: [0.7, 3.0, 2.8]"),
                 None, 2, id="stripe-config-start-position-disagrees"),
    pytest.param("run", ["--ru", "1"],
                 ("orientation: x", "orientation: x\n  end_position: [1.5, 3.0, 2.8]"),
                 None, 2, id="stripe-config-end-position-disagrees"),
    pytest.param("run", ["--ru", "1"], ("room: {x: 10.0", "room: [10.0"), None, 2,
                 id="environment-yaml-malformed"),
    pytest.param("run", ["--ru", "1"], (_AMP, _AMP[:-1]), None, 2,
                 id="components-yaml-malformed"),
    pytest.param("run", ["--ru", "1", "--ue", "7", "--channel", "{ds}"],
                 None, None, 2, id="run-unknown-dataset-ue"),
    pytest.param("sweep-ru", ["--ue", "7", "--channel", "{ds}"],
                 None, None, 2, id="sweep-unknown-dataset-ue"),
    pytest.param("run", ["--ru", "1", "--channel", "{ds}"], None,
                 {"cfr/manifest.json": "{not json"}, 3, id="corrupt-dataset-manifest"),
    pytest.param("run", ["--ru", "1", "--channel", "{ds}"], None,
                 {"cfr/manifest.json": "[]"}, 3, id="dataset-manifest-not-an-object"),
    pytest.param("run", ["--ru", "1", "--channel", "{ds}"], None,
                 {"cfr/manifest.json": '{"files": {"metadata.json": {}}}'}, 3,
                 id="dataset-manifest-without-crc"),
    pytest.param("run", ["--ru", "1", "--channel", "{ds}"], None,
                 {"cfr/manifest.json": '{"files": {}}', "cfr/metadata.json": '{"ues": []}'},
                 3, id="dataset-metadata-without-header"),
    *[pytest.param("run", ["--ru", "1", "--channel", "{ds}"], None, {"cfr": edit}, 3,
                   id=f"dataset-metadata-{name}") for name, edit in _BAD_METADATA.items()],
    pytest.param("run", ["--ru", "1"], None,
                 {"environment.yaml": ENV_YAML.encode() + b"# \xff\n"}, 2,
                 id="env-yaml-not-utf8"),
    *[pytest.param(command, flags, ("fiber: {model: ideal}",
                                    "fiber: {model: s2p_filter, file: bad.s2p}"),
                   {"bad.s2p": text}, 2, id=f"{command}-{name}")
      for command, flags in (("run", ["--ru", "1"]), ("calibrate", []), ("inspect-s2p", []))
      for name, text in _BAD_S2P.items()],
])
def test_bad_input_exits_typed(config_tree, tmp_path, capsys, command, flags,
                               config_edit, files, expected):
    """Malformed inputs end as typed errors, never as 'internal error'.
    ``files`` are written relative to the config directory after the
    dataset is made, or edit the metadata of the dataset they name;
    inspect-s2p reads its ``bad.s2p``."""
    if config_edit is not None:
        edits = config_edit if isinstance(config_edit, list) else [config_edit]
        key, text = next((key, text) for key, text in (
            ("env", ENV_YAML), ("waveform", WF_YAML), ("components", COMP_YAML))
            if edits[0][0] in text)
        for old, new in edits:
            assert old in text, old
            text = text.replace(old, new)
        config_tree[key].write_text(text)
    if "{ds}" in flags:
        channel = _gen_dataset(config_tree, tmp_path / "cfr")
        flags = [channel if f == "{ds}" else f for f in flags]
    for name, text in (files or {}).items():
        if callable(text):
            edit_metadata(tmp_path / name, text)
        else:
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    configs = {"gen-channels": ["--env", config_tree["env"]],
               "inspect-s2p": ["--file", tmp_path / "bad.s2p"]}.get(
                   command, _base_flags(config_tree))
    capsys.readouterr()
    code = _run(command, *configs, *flags, "--out", tmp_path / "o")
    assert code == expected
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("gen-channels", ["--n-rx", "-1"]),
    ("gen-channels", ["--n-tx", "0"]),
    ("gen-channels", ["--taps-l", "0"]),
    ("sweep-ru", ["--jobs", "0"]),
    ("sweep-ru", ["--jobs", "-2"]),
], ids=["n-rx-negative", "n-tx-zero", "taps-l-zero", "jobs-zero", "jobs-negative"])
def test_counts_below_one_exit_config(config_tree, tmp_path, capsys, command, flags):
    """A count flag below 1 is a configuration error, and nothing is written."""
    configs = (["--env", config_tree["env"]] if command == "gen-channels"
               else _base_flags(config_tree))
    capsys.readouterr()
    assert _run(command, *configs, *flags, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "must be >= 1" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags", [("run", ["--ru", "3"]), ("sweep-ru", [])],
                         ids=["run", "sweep-ru"])
def test_dataset_without_the_ru_exits_config(config_tree, tmp_path, capsys, command,
                                             flags):
    """A dataset of three RUs on a four-RU stripe cannot serve RU 3."""
    channel = _gen_dataset(config_tree, tmp_path / "cfr")
    config_tree["env"].write_text(ENV_YAML.replace("N_RUs: 3", "N_RUs: 4").replace(
        LAST_RU, LAST_RU + LAST_RU.replace("1.6", "2.1")))
    capsys.readouterr()
    code = _run(command, *_base_flags(config_tree), "--channel", channel, *flags,
                "--out", tmp_path / "o")
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


def test_dataset_overriding_the_antenna_count_warns(config_tree, tmp_path):
    """A 4 x 4 dataset on the one-antenna test scenario runs with four RU
    antennas, and says so."""
    assert _run("gen-channels", "--env", config_tree["env"], "--model", "los",
                "--n-tx", "4", "--n-rx", "4", "--out", tmp_path / "cfr") == 0
    with pytest.warns(AntennaCountMismatch, match="AntennaCountMismatch: .*n_tx=4"):
        code = _run("run", *_base_flags(config_tree), "--channel",
                    f"dataset:{tmp_path / 'cfr'}", "--ru", "1", "--out", tmp_path / "o")
    assert code == 0


def test_time_domain_taps_beyond_the_cp_warn(config_tree, tmp_path):
    """A time-domain fiber keeping 64 taps against a 32-sample CP runs, and
    says that symbols may interfere."""
    configs = config_tree["components"].parent
    (configs / "fiber.s2p").write_text(
        s2p_from_taps([0.8, 0.15j, 0.05], 157.75e9, 6e9, n_points=512))
    config_tree["components"].write_text(COMP_YAML.replace(
        "fiber: {model: ideal}", "fiber: {model: s2p_filter, file: fiber.s2p, "
        "domain: time, taps: 64}"))
    with pytest.warns(InterSymbolInterferenceRisk,
                      match="InterSymbolInterferenceRisk: fiber: .*64 taps"):
        code = _run("run", *_base_flags(config_tree), "--channel", "identity",
                    "--ru", "1", "--out", tmp_path / "o")
    assert code == 0


@pytest.mark.parametrize("command", ["run", "calibrate"])
@pytest.mark.parametrize("group_velocity, cu_fiber", [
    ("0", "2.0"), ("-2e8", "2.0"), ("1e-300", "2.0"), ("1e-3", "2.0"), ("2.0e8", "1e308")])
def test_time_domain_fiber_delays_exit_config(config_tree, tmp_path, capsys, command,
                                              group_velocity, cu_fiber):
    """A time-domain fiber's delays are checked before any walk: a group
    velocity of 0 or less, or segment delays that no array could hold, are
    configuration errors."""
    configs = config_tree["components"].parent
    (configs / "fiber.s2p").write_text(
        s2p_from_taps([0.8, 0.15j, 0.05], 157.75e9, 6e9, n_points=512))
    config_tree["components"].write_text(COMP_YAML.replace(
        "fiber: {model: ideal}", "fiber: {model: s2p_filter, file: fiber.s2p, "
        f"domain: time, taps: 8, group_velocity: {group_velocity}}}"))
    config_tree["env"].write_text(ENV_YAML.replace(
        "central_unit_fiber_length: 2.0", f"central_unit_fiber_length: {cu_fiber}"))
    flags = ["--ru", "1"] if command == "run" else []
    capsys.readouterr()
    assert _run(command, *_base_flags(config_tree), *flags, "--out", tmp_path / "o") == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, output", [
    ("run", ["--ru", "1"], "metrics.csv"),
    ("sweep-ru", ["--direction", "dl"], "heatmap.csv")])
def test_non_finite_metric_exits_runtime_before_writing(config_tree, tmp_path, capsys,
                                                        monkeypatch, command, flags,
                                                        output):
    """A link whose metrics are not finite is a runtime error (exit 3) and
    writes no row. The config bound that refuses the value is lifted here,
    so the link itself overflows: a 1e308 clip level of the CU DAC."""
    monkeypatch.setitem(config._COMPONENT_KEYS["dac"], "clip_amplitude",
                        ("clip_amplitude", config._as_float))
    config_tree["components"].write_text(COMP_YAML.replace(
        "dac: {model: ideal}", "dac: {model: quantize, clip_amplitude: 1e308}"))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = _run(command, *_base_flags(config_tree), *flags, "--out", tmp_path / "o")
    assert code == 3
    assert "stripesim: error: the estimate is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / output).exists()


def test_dataset_run_without_sub_thz(config_tree, tmp_path):
    """With no sub_thz block the dataset supplies the grid: the run is the
    one whose environment gives the same grid."""
    channel = _gen_dataset(config_tree, tmp_path / "cfr")
    args = ["run", "--waveform", config_tree["waveform"], "--components",
            config_tree["components"], "--channel", channel, "--ru", "2", "--seed", "4"]
    assert _run(*args, "--env", config_tree["env"], "--out", tmp_path / "with") == 0
    sub_thz = "sub_thz: {fc: 157.75e9, bw: 3.0e9, num_subcarriers: 256}\n"
    assert sub_thz in ENV_YAML
    bare = tmp_path / "bare.yaml"
    bare.write_text(ENV_YAML.replace(sub_thz, ""))
    assert _run(*args, "--env", bare, "--out", tmp_path / "without") == 0
    assert ((tmp_path / "with" / "metrics.csv").read_bytes()
            == (tmp_path / "without" / "metrics.csv").read_bytes())


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only; the CLI must start without it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, stripesim.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_run_taps_export(config_tree, tmp_path):
    """Every stage's taps, and one am_am.csv column pair per amplifier
    stage in walk order, in either direction."""
    for direction, amplifiers in (("dl", ["cu_pa", "ru0_booster", "ru1_antenna_amp0"]),
                                  ("ul", ["ru1_antenna_amp0", "ru0_booster", "cu_rx_amp"])):
        out = tmp_path / direction
        code = _run("run", *_base_flags(config_tree), "--channel", "los",
                    "--ru", "1", "--direction", direction, "--taps", "--out", out)
        assert code == 0
        tap_files = sorted((out / "taps").glob("*.csv"))
        assert tap_files
        rows = _read_csv(tap_files[0])
        assert rows[0] == ["index", "re", "im"]
        labels = [f.stem.split("_", 1)[1] for f in tap_files]
        assert [label for label in labels if label in amplifiers] == amplifiers
        am = _read_csv(out / "am_am.csv")
        assert am[0] == [f"{axis}stage{i}" for i in range(len(amplifiers)) for axis in "xy"]


def test_channel_dump_matches_the_loop_reference(tmp_path):
    """channel.csv lists h[q, rx, tx] in row-major order, each value at
    full precision, as the per-entry loop it replaced wrote it."""
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    _export_channel(tmp_path, ChannelRealization(h=h, grid=SubcarrierGrid(1e11, 1e9, 4)))
    loop = [["q", "rx", "tx", "re", "im"]] + [
        [str(q), str(k), str(m), repr(float(h[q, k, m].real)), repr(float(h[q, k, m].imag))]
        for q in range(4) for k in range(3) for m in range(2)]
    assert _read_csv(tmp_path / "channel.csv") == loop


def _subparser_options(command) -> dict:
    """The options of ``command``'s subparser, by destination."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[command]._actions}


def _csv_bytes(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}


@pytest.mark.parametrize("command, flags", [
    ("run", ["--ru", "1", "--channel", "rayleigh", "--seed", "17", "--taps",
             "--calibrate", "--dump-channel"]),
    ("sweep-ru", ["--direction", "dl", "--seed", "5"]),
    ("calibrate", ["--seed", "2"]),
    ("calibrate", ["--target-dbm", "0.5", "--seed", "2"]),
], ids=["run", "sweep-ru", "calibrate", "calibrate-target-dbm"])
def test_replay_from_manifest(config_tree, tmp_path, command, flags):
    """A manifest's flags hold every option of its command but the config
    paths and --out, and with its config paths they rebuild a command line
    that writes every CSV again byte for byte."""
    out = tmp_path / "first"
    assert _run(command, *_base_flags(config_tree), *flags, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    options = _subparser_options(command)
    assert set(manifest["flags"]) == {"command", *options} - {
        "help", "env", "waveform", "components", "out"}
    assert manifest["flags"]["command"] == command
    argv = [command]
    for name, path in manifest["config_paths"].items():
        argv += [options[name].option_strings[0], path]
    for name, value in manifest["flags"].items():
        option = options.get(name)
        if option is None or value is None or value is False:
            continue
        argv += option.option_strings[:1] + ([] if option.nargs == 0 else [value])
    replay = tmp_path / "replay"
    assert _run(*argv, "--out", replay) == 0
    first = _csv_bytes(out)
    assert first and first == _csv_bytes(replay)


# ---------------------------------------------------------------------------
# sweep-ru
# ---------------------------------------------------------------------------

def test_sweep_rows_and_columns(config_tree, tmp_path):
    out = tmp_path / "sweep"
    code = _run("sweep-ru", *_base_flags(config_tree), "--channel", "los",
                "--seed", "1", "--out", out)
    assert code == 0
    rows = _read_csv(out / "heatmap.csv")
    assert rows[0] == ["ru_id", "stripe_id", "nmse_cu", "sndr_cu", "ber"]
    assert len(rows) == 1 + 3  # one stripe x three RUs


@pytest.mark.parametrize("direction, edits", [
    ("ul", []), ("dl", []), ("ul", TWO_STRIPES), ("dl", TWO_STRIPES)],
    ids=["ul", "dl", "ul-two-stripes", "dl-two-stripes"])
def test_sweep_parallel_matches_serial(direction, edits, config_tree, tmp_path):
    """Serial and pooled sweeps write the same bytes, one row per cell in
    (stripe, RU) order."""
    text = ENV_YAML
    for old, new in edits:
        text = text.replace(old, new)
    config_tree["env"].write_text(text)
    args = ["sweep-ru", *_base_flags(config_tree), "--channel", "los",
            "--seed", "5", "--direction", direction]
    assert _run(*args, "--out", tmp_path / "serial") == 0
    assert _run(*args, "--jobs", "2", "--out", tmp_path / "par") == 0
    assert ((tmp_path / "serial" / "heatmap.csv").read_bytes()
            == (tmp_path / "par" / "heatmap.csv").read_bytes())
    cells = [(int(row[1]), int(row[0]))
             for row in _read_csv(tmp_path / "par" / "heatmap.csv")[1:]]
    n_stripes = 2 if edits else 1
    assert cells == [(s, r) for s in range(n_stripes) for r in range(3)]


def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch):
    """--jobs beyond the example's 10 cells sizes the pool at 10, and the
    heatmap keeps the bytes of --jobs 1. The pool is a stand-in that maps
    in this process: a real one would start every worker it was asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    args = ["sweep-ru", "--env", EXAMPLES / "environment.yaml",
            "--waveform", EXAMPLES / "waveform.yaml",
            "--components", EXAMPLES / "components.yaml", "--seed", "3"]
    assert _run(*args, "--jobs", "1", "--out", tmp_path / "serial") == 0
    assert _run(*args, "--jobs", "1000", "--out", tmp_path / "pool") == 0
    assert sizes == [10]
    assert ((tmp_path / "serial" / "heatmap.csv").read_bytes()
            == (tmp_path / "pool" / "heatmap.csv").read_bytes())
    manifest = json.loads((tmp_path / "pool" / "manifest.json").read_text())
    assert manifest["flags"]["jobs"] == 1000


def test_sweep_dataset_parallel_matches_serial(config_tree, tmp_path):
    channel = _gen_dataset(config_tree, tmp_path / "cfr")
    args = ["sweep-ru", *_base_flags(config_tree), "--channel", channel,
            "--ue", "1", "--seed", "2"]
    assert _run(*args, "--out", tmp_path / "serial") == 0
    assert _run(*args, "--jobs", "2", "--out", tmp_path / "par") == 0
    assert ((tmp_path / "serial" / "heatmap.csv").read_bytes()
            == (tmp_path / "par" / "heatmap.csv").read_bytes())


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_lossless_and_lossy(config_tree, tmp_path):
    out = tmp_path / "cal"
    code = _run("calibrate", *_base_flags(config_tree),
                "--target-dbm", "0.0", "--out", out)
    assert code == 0
    rows = _read_csv(out / "gains.csv")
    assert rows[0] == ["stripe_id", "ru_id", "gain_db", "clipped"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert abs(float(row[2])) < 1e-6
        assert row[3] == "false"

    lossy = config_tree["components"].parent / "lossy.yaml"
    lossy.write_text(COMP_YAML.replace(
        "fiber: {model: ideal}", "fiber: {model: fixed_damping, loss_db: 10.0}"))
    out2 = tmp_path / "cal2"
    code = _run("calibrate", "--env", config_tree["env"],
                "--waveform", config_tree["waveform"], "--components", lossy,
                "--target-dbm", "-10.0", "--out", out2)
    assert code == 0
    for row in _read_csv(out2 / "gains.csv")[1:]:
        assert abs(float(row[2]) - 10.0) < 0.01


def test_calibrate_clipped_flag(config_tree, tmp_path):
    heavy = config_tree["components"].parent / "heavy.yaml"
    heavy.write_text(COMP_YAML.replace(
        "fiber: {model: ideal}", "fiber: {model: fixed_damping, loss_db: 30.0}"))
    out = tmp_path / "cal3"
    with pytest.warns(UserWarning):
        code = _run("calibrate", "--env", config_tree["env"],
                    "--waveform", config_tree["waveform"], "--components", heavy,
                    "--target-dbm", "0.0", "--max-gain", "20.0", "--out", out)
    assert code == 0
    rows = _read_csv(out / "gains.csv")[1:]
    assert all(row[3] == "true" for row in rows)
    assert all(abs(float(row[2]) - 20.0) < 1e-9 for row in rows)


def test_tap_dump_matches_the_cell_by_cell_reference(tmp_path):
    """Each tap file lists index, re and im as the cell-by-cell `_fmt`
    loop it replaced wrote them: -0.0, inf and NaN included."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x[:4] = [complex(-0.0, 0.0), complex(np.inf, -np.inf), complex(np.nan, 1e-300), 1e300]
    assert _export_taps(tmp_path, [("cu_dac", x, x)]) == ["taps/00_cu_dac.csv"]
    loop = [["index", "re", "im"]] + [[_fmt(i), _fmt(z.real), _fmt(z.imag)]
                                      for i, z in enumerate(x)]
    assert _read_csv(tmp_path / "taps" / "00_cu_dac.csv") == loop


@pytest.mark.parametrize("level", ["verbose", "10"])
def test_unknown_log_level_exits_config(tmp_path, capsys, monkeypatch, level):
    """A STRIPESIM_LOG that names no log level is a configuration error
    naming the variable, not a traceback; a known one in any case runs."""
    s2p = tmp_path / "flat.s2p"
    s2p.write_text(flat_s2p(1.0))
    monkeypatch.setenv("STRIPESIM_LOG", level)
    assert _run("inspect-s2p", "--file", s2p, "--out", tmp_path / "o.csv") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"STRIPESIM_LOG={level!r}" in err
    assert not (tmp_path / "o.csv").exists()
    monkeypatch.setenv("STRIPESIM_LOG", "warning")
    assert _run("inspect-s2p", "--file", s2p, "--out", tmp_path / "o.csv") == 0


@pytest.mark.parametrize("command, flags, made, out, named", [
    pytest.param("run", ["--ru", "1"], None, "file/x", "file/x", id="run-under-a-file"),
    pytest.param("sweep-ru", [], None, "file/x", "file/x", id="sweep-ru-under-a-file"),
    pytest.param("calibrate", [], None, "file/x", "file/x", id="calibrate-under-a-file"),
    pytest.param("gen-channels", [], None, "file/x", "file/x", id="gen-channels-under-a-file"),
    pytest.param("inspect-s2p", [], None, "file/x.csv", "file", id="inspect-s2p-under-a-file"),
    pytest.param("inspect-s2p", [], "o.csv", "o.csv", "o.csv", id="inspect-s2p-onto-a-directory"),
    pytest.param("run", ["--ru", "1"], "o/metrics.csv", "o", "o/metrics.csv",
                 id="run-metrics-csv-is-a-directory"),
    pytest.param("run", ["--ru", "1"], "o/manifest.json.tmp", "o", "o/manifest.json",
                 id="run-manifest-tmp-is-a-directory"),
])
def test_unusable_out_exits_runtime(config_tree, tmp_path, capsys, command, flags, made,
                                    out, named):
    """An --out that cannot be made or written is an IoError naming the
    path it could not make or write (exit 3), never an internal error."""
    (tmp_path / "file").write_text("")
    if made is not None:
        (tmp_path / made).mkdir(parents=True)
    s2p = tmp_path / "flat.s2p"
    s2p.write_text(flat_s2p(1.0))
    configs = {"gen-channels": ["--env", config_tree["env"]],
               "inspect-s2p": ["--file", s2p]}.get(command, _base_flags(config_tree))
    capsys.readouterr()
    assert _run(command, *configs, *flags, "--out", tmp_path / out) == 3
    err = capsys.readouterr().err
    assert err.startswith("stripesim: error: cannot ") and f"{tmp_path / named}:" in err
    assert "internal error" not in err


# ---------------------------------------------------------------------------
# inspect-s2p
# ---------------------------------------------------------------------------

def test_inspect_flat_network(tmp_path):
    s2p = tmp_path / "flat.s2p"
    s2p.write_text(flat_s2p(1.0))
    out = tmp_path / "flat.csv"
    assert _run("inspect-s2p", "--file", s2p, "--out", out) == 0
    rows = _read_csv(out)
    assert rows[0] == ["frequency_hz", "magnitude_db", "phase_deg"]
    for row in rows[1:]:
        assert abs(float(row[1])) < 1e-12


def test_inspect_db_round_trip(tmp_path):
    """DB-format magnitudes round-trip exactly under the default (power)."""
    s2p = tmp_path / "db.s2p"
    s2p.write_text("# Hz S DB R 50\n"
                   "1e9 0 0 -6.5 10.0 0 0 0 0\n"
                   "2e9 0 0 -12.25 -40.0 0 0 0 0\n")
    out = tmp_path / "db.csv"
    assert _run("inspect-s2p", "--file", s2p, "--magnitude", "power",
                "--out", out) == 0
    rows = _read_csv(out)
    assert abs(float(rows[1][1]) - (-6.5)) < 1e-9
    assert abs(float(rows[2][1]) - (-12.25)) < 1e-9
    assert abs(float(rows[1][2]) - 10.0) < 1e-9
    # voltage interpretation: the 10*log10 pipeline sees |S21| -> half the dB
    out2 = tmp_path / "db2.csv"
    assert _run("inspect-s2p", "--file", s2p, "--magnitude", "voltage",
                "--out", out2) == 0
    assert abs(float(_read_csv(out2)[1][1]) - (-3.25)) < 1e-9


@pytest.mark.parametrize("magnitude, exponent", [("power", 2), ("voltage", 1)])
def test_inspect_zero_s21_reads_the_db_floor(tmp_path, magnitude, exponent):
    """An S21 of exactly 0 reads -MAX_DB dB (half that as voltage), with no
    numpy warning; a value above the floor keeps the bytes of its log."""
    s2p = tmp_path / "zero.s2p"
    s2p.write_text("# Hz S RI R 50\n"
                   "1e9 0 0 0 0 0 0 0 0\n"
                   "2e9 0 0 0.5 0.25 0 0 0 0\n")
    out = tmp_path / "zero.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("inspect-s2p", "--file", s2p, "--magnitude", magnitude,
                    "--out", out) == 0
    rows = _read_csv(out)
    assert float(rows[1][1]) == -MAX_DB * exponent / 2
    assert rows[2][1] == repr(float(10.0 * np.log10(np.abs(0.5 + 0.25j) ** exponent)))


def test_inspect_malformed_exits_config(tmp_path):
    bad = tmp_path / "bad.s2p"
    bad.write_text("# GHz S RI R 50\n1.0 2.0\n")
    assert _run("inspect-s2p", "--file", bad, "--out", tmp_path / "o.csv") == 2


# ---------------------------------------------------------------------------
# gen-channels
# ---------------------------------------------------------------------------

def test_gen_channels_then_run(config_tree, tmp_path):
    ds_dir = tmp_path / "cfr"
    assert _run("gen-channels", "--env", config_tree["env"], "--model", "los",
                "--n-tx", "1", "--n-rx", "1", "--out", ds_dir) == 0
    assert (ds_dir / "manifest.json").is_file()
    out = tmp_path / "run"
    code = _run("run", *_base_flags(config_tree),
                "--channel", f"dataset:{ds_dir}", "--ru", "1", "--out", out)
    assert code == 0
    record = dict(zip(*_read_csv(out / "metrics.csv")))
    assert record["ber"] == "0.0"


def test_gen_channels_reproducible(config_tree, tmp_path):
    for name in ("a", "b"):
        assert _run("gen-channels", "--env", config_tree["env"],
                    "--model", "tdl", "--beta", "0.5", "--taps-l", "4",
                    "--seed", "7", "--n-tx", "1", "--n-rx", "1",
                    "--out", tmp_path / name) == 0
    for f in ("ue_0.cfr", "ue_1.cfr"):
        assert ((tmp_path / "a" / f).read_bytes()
                == (tmp_path / "b" / f).read_bytes())


def test_gen_channels_los_on_a_grid_narrower_than_the_tdl_taps(config_tree, tmp_path):
    """The LoS model draws no taps, so a grid of fewer subcarriers than the
    tdl default of 8 taps still makes a LoS dataset."""
    config_tree["env"].write_text(ENV_YAML.replace("num_subcarriers: 256",
                                                   "num_subcarriers: 4"))
    assert _run("gen-channels", "--env", config_tree["env"], "--n-tx", "1",
                "--n-rx", "1", "--out", tmp_path / "cfr") == 0


def test_gen_channels_bad_model(config_tree, tmp_path):
    assert _run("gen-channels", "--env", config_tree["env"],
                "--model", "raytrace", "--out", tmp_path / "x") == 2


# ---------------------------------------------------------------------------
# README and CI
# ---------------------------------------------------------------------------

def _readme_block(readme: str, section: str) -> str:
    """The first indented code block under the README's ``## section``."""
    lines = readme.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    end = next((i for i in range(start, len(lines))
                if lines[i] and not lines[i].startswith("    ")), len(lines))
    return textwrap.dedent("\n".join(lines[start:end])).strip("\n") + "\n"


def test_ci_runs_every_readme_command():
    """The "README commands" step of the CI workflow runs each line of
    README's Commands block, its comment stripped, and the In Python
    snippet as README gives it."""
    readme = (ROOT / "README.md").read_text()
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    step = next(step for job in workflow["jobs"].values() for step in job["steps"]
                if step.get("name") == "README commands")
    ci_lines = step["run"].splitlines()
    commands = [line.split("#", 1)[0].rstrip()
                for line in _readme_block(readme, "Commands").splitlines()]
    assert len(commands) >= 8
    assert [c for c in commands if c not in ci_lines] == []
    snippet = _readme_block(readme, "In Python")
    assert snippet.startswith("python - <<EOF\n") and snippet in step["run"]
