"""YAML loading, schema/geometry validation, cross-checks, round trips."""

import re
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
import yaml

from stripesim.components import (AmplifierParams, DacParams, IqParams,
                                  OscillatorParams)
from stripesim.config import (_ANTENNA_KEYS, _COMPONENT_KEYS, _LAYOUT_KEYS,
                              _NODE_KEYS, _SUB_THZ_KEYS, _WAVEFORM_KEYS, AntennaConfig,
                              CalibrationConfig, ComponentBank, LinearElementSpec,
                              ReceiverConfig, StripeLayout, StripeNode, SubThzConfig,
                              WaveformConfig,
                              _load_yaml, _read, _Section, _snapshot, components_to_dict,
                              environment_to_dict, load_components, load_environment,
                              load_waveform, validate_cross, waveform_to_dict)
from stripesim.dataset import DatasetHeader
from stripesim.errors import (ConfigError, GeometryError, InterSymbolInterferenceRisk,
                              ParseError, SchemaError, TouchstoneError,
                              UnknownKeyWarning, UnsupportedModel)

from conftest import COMP_YAML, ENV_YAML, TWO_STRIPES, WF_YAML, flat_s2p


# a sub-10 GHz access-point block, as shared configs give it: no block of
# the simulator reads it, so it loads as an unknown key
SUB10_YAML = "sub10GHz:\n  fc: 3.5e9\n  ap_positions: [[1.0, 1.0, 2.9]]\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def test_load_environment_paper_grid(tmp_path):
    with pytest.warns(UnknownKeyWarning, match=r"ignoring unknown keys \['sub10GHz'\]$"):
        env = load_environment(_write(tmp_path, "env.yaml", ENV_YAML + SUB10_YAML))
    assert env.room == (10.0, 6.0, 3.0)
    assert env.n_stripes == 1
    assert len(env.radio_stripes[0]) == 4  # CU + 3 RUs
    assert env.sub_thz.fc == 157.75e9
    assert env.sub_thz.bw == 3.0e9
    assert env.sub_thz.num_subcarriers == 256
    assert env.central_unit_fiber_length == 2.0
    assert env.stripe_config.n_rus == 3  # paper-style N_RUs key accepted
    # retained as an unknown key, never used
    assert env.extras == {"sub10GHz": {"fc": "3.5e9", "ap_positions": [[1.0, 1.0, 2.9]]}}


def test_environment_paper_dimension_example(tmp_path):
    """10x6x3 room, 10 RUs spaced 0.5 m, fc 157.75 GHz, Q=4096."""
    nodes = [{"kind": "central_unit", "position": [0.1, 3.0, 2.8]}]
    nodes += [{"kind": "radio_unit", "position": [0.6 + 0.5 * i, 3.0, 2.8]}
              for i in range(10)]
    doc = {
        "room": {"x": 10, "y": 6, "z": 3},
        "stripe_config": {"n_stripes": 1, "n_rus": 10, "inter_ru_spacing": 0.5},
        "radio_stripes": [nodes],
        "ue_positions": [[5.0, 3.0, 1.5]],
        "sub_thz": {"fc": 157.75e9, "bw": 3.0e9, "num_subcarriers": 4096},
        "central_unit_fiber_length": 1.0,
    }
    env = load_environment(_write(tmp_path, "env.yaml", yaml.safe_dump(doc)))
    assert len(env.radio_stripes[0]) == 11
    assert env.sub_thz.num_subcarriers == 4096


def test_stripe_config_agreeing_with_the_nodes_loads(tmp_path):
    """start/end positions on stripe 0's first/last RU and the CU gap as
    inter_stripe_spacing load, and survive a round trip."""
    text = ENV_YAML.replace("orientation: x", "orientation: x\n  start_position: "
                            "[0.6, 3.0, 2.8]\n  end_position: [1.6, 3.0, 2.8]")
    for old, new in TWO_STRIPES:
        text = text.replace(old, new)
    env = load_environment(_write(tmp_path, "env.yaml", text))
    assert env.n_stripes == 2
    assert env.stripe_config.start_position == (0.6, 3.0, 2.8)
    dumped = yaml.safe_dump(environment_to_dict(env))
    assert load_environment(_write(tmp_path, "env2.yaml", dumped)) == env


def test_stripe_config_spacing_not_given_is_none(tmp_path):
    text = "\n".join(line for line in ENV_YAML.splitlines()
                     if "spacing" not in line)
    env = load_environment(_write(tmp_path, "env.yaml", text))
    assert env.stripe_config.inter_ru_spacing is None
    assert env.stripe_config.inter_stripe_spacing is None
    assert "inter_ru_spacing" not in environment_to_dict(env)["stripe_config"]


@pytest.mark.parametrize("omitted", ["N_RUs: 3", "N_stripes: 1", "orientation: x"])
def test_stripe_config_key_not_given_is_none(omitted, tmp_path):
    """An omitted count or orientation is not checked (it used to be
    checked against 1 or x), and a snapshot leaves it out."""
    text = "\n".join(line for line in ENV_YAML.splitlines() if omitted not in line)
    env = load_environment(_write(tmp_path, "env.yaml", text))
    key = {"N_RUs: 3": "n_rus", "N_stripes: 1": "n_stripes",
           "orientation: x": "orientation"}[omitted]
    assert getattr(env.stripe_config, key) is None
    dumped = environment_to_dict(env)
    assert key not in dumped["stripe_config"]
    assert load_environment(_write(tmp_path, "env2.yaml", yaml.safe_dump(dumped))) == env


def test_stripe_config_orientation_not_given_allows_any_axis(tmp_path):
    # the test stripe turned to run along y, with no orientation key
    text = ENV_YAML.replace("  orientation: x\n", "")
    for x in ("0.6", "1.1", "1.6"):
        text = text.replace(f"[{x}, 3.0, 2.8]", f"[0.1, {float(x) + 2.9:.1f}, 2.8]")
    env = load_environment(_write(tmp_path, "env.yaml", text))
    assert [n.position[1] for n in env.radio_stripes[0]] == [3.0, 3.5, 4.0, 4.5]


def test_stripe_must_start_with_cu(tmp_path):
    bad = ENV_YAML.replace("- - {kind: central_unit, position: [0.1, 3.0, 2.8]}",
                           "- - {kind: radio_unit, position: [0.1, 3.0, 2.8]}")
    with pytest.raises(GeometryError):
        load_environment(_write(tmp_path, "env.yaml", bad))


def test_second_cu_rejected(tmp_path):
    bad = ENV_YAML.replace("- {kind: radio_unit, position: [1.6, 3.0, 2.8]}",
                           "- {kind: central_unit, position: [1.6, 3.0, 2.8]}")
    with pytest.raises(GeometryError):
        load_environment(_write(tmp_path, "env.yaml", bad))


def test_ue_outside_room(tmp_path):
    bad = ENV_YAML.replace("- [3.0, 2.0, 1.5]", "- [12.0, 0.0, 1.0]")
    with pytest.raises(GeometryError):
        load_environment(_write(tmp_path, "env.yaml", bad))


def test_node_outside_room(tmp_path):
    bad = ENV_YAML.replace("{kind: radio_unit, position: [1.6, 3.0, 2.8]}",
                           "{kind: radio_unit, position: [1.6, 3.0, 3.8]}")
    with pytest.raises(GeometryError):
        load_environment(_write(tmp_path, "env.yaml", bad))


def test_unknown_keys_warn_but_load(tmp_path):
    doc = ENV_YAML + "rt_only_metadata: {solver: something}\n"
    with pytest.warns(UnknownKeyWarning):
        env = load_environment(_write(tmp_path, "env.yaml", doc))
    assert env.room == (10.0, 6.0, 3.0)
    # retained-and-ignored: the key survives a serialize/load cycle
    assert env.extras == {"rt_only_metadata": {"solver": "something"}}
    redumped = yaml.safe_dump(environment_to_dict(env))
    with pytest.warns(UnknownKeyWarning):
        again = load_environment(_write(tmp_path, "env_rt.yaml", redumped))
    assert again == env


@pytest.mark.parametrize("old, new, path", [
    ("room: {x: 10.0, y: 6.0, z: 3.0}", "room: {x: 10.0, y: 6.0, z: 3.0, w: 99}", "room"),
    ("position: [1.6, 3.0, 2.8]", "position: {x: 1.6, y: 3.0, z: 2.8, w: 99}",
     "radio_stripes[0][3].position"),
    ("orientation: x", "orientation: x\n  start_position: {x: 0.6, y: 3.0, z: 2.8, w: 99}",
     "stripe_config.start_position"),
    ("- [3.0, 2.0, 1.5]", "- {x: 3.0, y: 2.0, z: 1.5, w: 99}", "ue_positions[0]"),
], ids=["room", "node-position", "start-position", "ue-position"])
def test_xyz_mapping_warns_about_an_extra_key(tmp_path, old, new, path):
    """An {x, y, z} mapping with a key besides its axes loads with the
    unknown-key warning every other block gives, and the point it read."""
    assert old in ENV_YAML
    doc = ENV_YAML.replace(old, new)
    with pytest.warns(UnknownKeyWarning,
                      match=rf"^{re.escape(path)}: ignoring unknown keys \['w'\]$"):
        env = load_environment(_write(tmp_path, "env.yaml", doc))
    assert env == load_environment(_write(tmp_path, "xyz.yaml", doc.replace(", w: 99", "")))


def test_coupler_group_velocity_is_an_unknown_key(tmp_path):
    """Only a fiber segment delays: a coupler's group_velocity loads with an
    unknown-key warning and is neither read nor written to a snapshot."""
    doc = COMP_YAML.replace("coupler: {model: ideal}",
                            "coupler: {model: ideal, group_velocity: 1.5e8}")
    with pytest.warns(UnknownKeyWarning,
                      match=r"^coupler: ignoring unknown keys \['group_velocity'\]$"):
        bank = load_components(_write(tmp_path, "comp.yaml", doc))
    assert bank.coupler == LinearElementSpec()
    assert "group_velocity" not in components_to_dict(bank)["coupler"]
    assert _COMPONENT_KEYS["coupler"] == {key: entry for key, entry in
                                          _COMPONENT_KEYS["fiber"].items()
                                          if key != "group_velocity"}


def test_sub10ghz_never_influences_simulation(tmp_path):
    """Two configs differing only in the sub-10 GHz block, an unknown key
    each warns about and keeps in ``extras``, run identically."""
    import numpy as np
    from stripesim.stripe import run_link
    from stripesim.config import WaveformConfig, ComponentBank

    doc_a = ENV_YAML + SUB10_YAML
    doc_b = doc_a.replace("fc: 3.5e9", "fc: 6.0e9")
    envs = []
    for name, doc in (("a.yaml", doc_a), ("b.yaml", doc_b)):
        with pytest.warns(UnknownKeyWarning, match=r"\['sub10GHz'\]$"):
            envs.append(load_environment(_write(tmp_path, name, doc)))
    env_a, env_b = envs
    assert env_a.extras["sub10GHz"]["fc"] == "3.5e9"  # YAML 1.1 reads a string
    assert env_b.extras["sub10GHz"]["fc"] == "6.0e9"
    assert replace(env_a, extras={}) == replace(env_b, extras={})
    wf = WaveformConfig(n_ofdm_symbols=2, qam_order=4, oversampling_factor=1,
                        cp_length=8, pilot_spacing=8, pilot_mode="scattered")
    ra = run_link(env_a, wf, ComponentBank(), "los", 0, 0, 1, seed=4)
    rb = run_link(env_b, wf, ComponentBank(), "los", 0, 0, 1, seed=4)
    np.testing.assert_array_equal(ra.rx_symbols, rb.rx_symbols)


def test_malformed_yaml(tmp_path):
    with pytest.raises(ParseError):
        load_environment(_write(tmp_path, "env.yaml", "room: [1, 2\n"))
    with pytest.raises(ParseError):
        load_environment(tmp_path / "missing.yaml")


def test_undecodable_yaml_is_a_parse_error(tmp_path):
    """A byte that is not UTF-8, here in a comment, is a ParseError naming
    the file, not a bare UnicodeDecodeError."""
    path = tmp_path / "env.yaml"
    path.write_bytes(ENV_YAML.encode() + b"# \xff\n")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        _load_yaml(path)
    with pytest.raises(ParseError):
        load_environment(path)


EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
YAML_TEXTS = {**{p.name: p.read_text() for p in sorted(EXAMPLES.glob("*.yaml"))},
              "conftest-env": ENV_YAML, "conftest-waveform": WF_YAML,
              "conftest-components": COMP_YAML}


@pytest.mark.parametrize("name", YAML_TEXTS)
def test_c_and_python_yaml_loaders_agree(tmp_path, name):
    """The libyaml parser, used when PyYAML has it, reads what SafeLoader reads."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    text = YAML_TEXTS[name]
    want = yaml.load(text, yaml.SafeLoader)
    got = yaml.load(text, yaml.CSafeLoader)
    assert got == want and repr(got) == repr(want)  # repr also tells 1 from 1.0
    assert repr(_load_yaml(_write(tmp_path, "c.yaml", text))) == repr(want)


def test_example_configs_load_without_a_warning():
    """The shipped example gives no key its block leaves unread, and its
    configs agree with each other."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        env = load_environment(EXAMPLES / "environment.yaml")
        wf = load_waveform(EXAMPLES / "waveform.yaml")
        bank = load_components(EXAMPLES / "components.yaml")
        validate_cross(env, wf, bank)


def test_non_power_of_two_subcarriers(tmp_path):
    bad = ENV_YAML.replace("num_subcarriers: 256", "num_subcarriers: 1000")
    with pytest.raises(SchemaError):
        load_environment(_write(tmp_path, "env.yaml", bad))


# ---------------------------------------------------------------------------
# Waveform
# ---------------------------------------------------------------------------

def test_load_waveform_valid(tmp_path):
    wf = load_waveform(_write(tmp_path, "wf.yaml", WF_YAML))
    assert wf.waveform_type == "cp-ofdm"
    assert wf.n_ofdm_symbols == 4
    assert wf.qam_order == 16
    assert wf.pilot_mode == "scattered"


def test_waveform_type_unsupported(tmp_path):
    bad = WF_YAML.replace("cp-ofdm", "dft-s-ofdm")
    with pytest.raises(UnsupportedModel):
        load_waveform(_write(tmp_path, "wf.yaml", bad))


def test_qam_order_not_power_of_four(tmp_path):
    bad = WF_YAML.replace("qam_order: 16", "qam_order: 8")
    with pytest.raises(SchemaError):
        load_waveform(_write(tmp_path, "wf.yaml", bad))


def test_cp_length_equal_q_rejected(tmp_path):
    bad = WF_YAML.replace("cp_length: 16", "cp_length: 256") + "num_subcarriers: 256\n"
    with pytest.raises(SchemaError):
        load_waveform(_write(tmp_path, "wf.yaml", bad))


def test_pilot_spacing_must_divide(tmp_path):
    bad = WF_YAML.replace("pilot_spacing: 8", "pilot_spacing: 7") + "num_subcarriers: 256\n"
    with pytest.raises(SchemaError):
        load_waveform(_write(tmp_path, "wf.yaml", bad))


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

def test_load_components_defaults_ideal(tmp_path):
    bank = load_components(_write(tmp_path, "comp.yaml", COMP_YAML))
    assert bank.boost_amplifier.mode == "ideal"
    assert bank.fiber.model == "ideal"
    assert bank.dac.mode == "ideal"
    assert bank.receiver.nf_db is None


def test_load_components_s2p_eager_parse(tmp_path):
    (tmp_path / "coupler.s2p").write_text(flat_s2p(0.7))
    doc = COMP_YAML.replace(
        "coupler: {model: ideal}",
        "coupler: {model: s2p_filter, file: coupler.s2p, domain: frequency}")
    bank = load_components(_write(tmp_path, "comp.yaml", doc))
    assert bank.coupler.network is not None
    assert bank.coupler.network.s21[0] == 0.7


def test_load_components_fixed_damping(tmp_path):
    doc = COMP_YAML.replace("fiber: {model: ideal}",
                            "fiber: {model: fixed_damping, loss_db: 6.0}")
    bank = load_components(_write(tmp_path, "comp.yaml", doc))
    assert bank.fiber.model == "fixed_damping"
    assert bank.fiber.loss_db == 6.0


def test_missing_s2p_file(tmp_path):
    doc = COMP_YAML.replace(
        "coupler: {model: ideal}",
        "coupler: {model: s2p_filter, file: nope.s2p, domain: frequency}")
    with pytest.raises(TouchstoneError) as err:
        load_components(_write(tmp_path, "comp.yaml", doc))
    assert err.value.kind == TouchstoneError.FILE_NOT_FOUND


def test_amplifier_full_block(tmp_path):
    doc = COMP_YAML.replace(
        "boost_amplifier: {model: ideal, gain_db: 0.0}",
        "boost_amplifier: {model: tanh, gain_db: 12.0, sat_amplitude: 0.5, "
        "nf_db: 7.0, bandwidth: 3.0e9}")
    bank = load_components(_write(tmp_path, "comp.yaml", doc))
    amp = bank.boost_amplifier
    assert amp.mode == "tanh"
    assert amp.gain_db == 12.0
    assert amp.sat_amplitude == 0.5
    assert amp.nf_db == 7.0


def test_polynomial_coefficients_parsed(tmp_path):
    doc = COMP_YAML.replace(
        "antenna_amplifier: {model: ideal, gain_db: 0.0}",
        "antenna_amplifier: {model: polynomial, poly_coeffs: [[1.0, 0.0], [-0.1, 0.05]]}")
    bank = load_components(_write(tmp_path, "comp.yaml", doc))
    assert bank.antenna_amplifier.poly_coeffs == (1.0 + 0j, -0.1 + 0.05j)


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------

def _loaded(tmp_path):
    env = load_environment(_write(tmp_path, "env.yaml", ENV_YAML))
    wf = load_waveform(_write(tmp_path, "wf.yaml", WF_YAML))
    bank = load_components(_write(tmp_path, "comp.yaml", COMP_YAML))
    return env, wf, bank


def _header(q=256, fc=157.75e9, bw=3.0e9):
    return DatasetHeader(n_stripes=1, n_rus=3, n_rx=1, n_tx=1,
                         num_subcarriers=q, fc=fc, bw=bw)


def test_validate_cross_clean(tmp_path):
    env, wf, bank = _loaded(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_cross(env, wf, bank, _header()) is None


def test_validate_cross_grid_mismatch(tmp_path):
    env, wf, bank = _loaded(tmp_path)
    with pytest.raises(ConfigError, match="^GridMismatch: environment num_subcarriers=256 "
                                          "but dataset num_subcarriers=2048$"):
        validate_cross(env, wf, bank, _header(q=2048))


def test_validate_cross_isi_warning(tmp_path):
    (tmp_path / "fiber.s2p").write_text(flat_s2p(0.5))
    doc = COMP_YAML.replace(
        "fiber: {model: ideal}",
        "fiber: {model: s2p_filter, file: fiber.s2p, domain: time, taps: 128}")
    env = load_environment(_write(tmp_path, "env.yaml", ENV_YAML))
    wf = load_waveform(_write(tmp_path, "wf.yaml", WF_YAML))  # cp 16 * os 2 = 32
    bank = load_components(_write(tmp_path, "comp.yaml", doc))
    with pytest.warns(InterSymbolInterferenceRisk,
                      match="^InterSymbolInterferenceRisk: fiber: cyclic prefix spans "
                            "32 samples but the impulse response keeps 128 taps$"):
        validate_cross(env, wf, bank)


def test_validate_cross_pure(tmp_path):
    """The same inputs give the same error, which names every problem in
    order, joined by '; '."""
    env, wf, bank = _loaded(tmp_path)
    wf = replace(wf, num_subcarriers=128, pilot_spacing=24)
    messages = []
    for _ in range(2):
        with pytest.raises(ConfigError) as err:
            validate_cross(env, wf, bank, _header(fc=1.0e11))
        messages.append(str(err.value))
    assert messages[0] == messages[1] == (
        "GridMismatch: environment fc=157750000000.0 but dataset fc=100000000000.0; "
        "GridMismatch: waveform num_subcarriers=128 differs from grid 256; "
        "WaveformGrid: pilot_spacing (24) must divide the subcarrier count (256)")


# ---------------------------------------------------------------------------
# Serialization round trip
# ---------------------------------------------------------------------------

def test_environment_round_trip(tmp_path):
    env = load_environment(_write(tmp_path, "env.yaml", ENV_YAML))
    dumped = yaml.safe_dump(environment_to_dict(env))
    env2 = load_environment(_write(tmp_path, "env2.yaml", dumped))
    # everything interpreted must round-trip exactly
    assert env2.room == env.room
    assert env2.radio_stripes == env.radio_stripes
    assert env2.ue_positions == env.ue_positions
    assert env2.sub_thz == env.sub_thz
    assert env2.stripe_config == env.stripe_config
    assert env2.antenna == env.antenna


def test_waveform_round_trip(tmp_path):
    wf = load_waveform(_write(tmp_path, "wf.yaml", WF_YAML))
    dumped = yaml.safe_dump(waveform_to_dict(wf))
    assert load_waveform(_write(tmp_path, "wf2.yaml", dumped)) == wf


def test_components_round_trip(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnknownKeyWarning)
        bank = load_components(_write(tmp_path, "comp.yaml", COMP_YAML))
        dumped = yaml.safe_dump(components_to_dict(bank))
        bank2 = load_components(_write(tmp_path, "comp2.yaml", dumped))
    assert bank2 == bank


# ---------------------------------------------------------------------------
# Key tables
# ---------------------------------------------------------------------------

KEY_TABLES = {StripeNode: _NODE_KEYS, StripeLayout: _LAYOUT_KEYS,
              SubThzConfig: _SUB_THZ_KEYS, AntennaConfig: _ANTENNA_KEYS,
              WaveformConfig: _WAVEFORM_KEYS,
              # a coupler's table is the fiber's without group_velocity
              **{part.default_factory: _COMPONENT_KEYS[part.name]
                 for part in fields(ComponentBank) if part.name != "coupler"}}

# every field of each section record, set away from its default
AWAY_FROM_DEFAULT = {
    StripeNode: dict(kind="radio_unit", position=(1.0, 2.0, 2.5)),
    StripeLayout: dict(n_stripes=2, n_rus=5, inter_ru_spacing=0.25,
                       inter_stripe_spacing=1.5, start_position=(1.0, 2.0, 2.5),
                       end_position=(3.0, 2.0, 2.5), orientation="y"),
    SubThzConfig: dict(fc=1.0e11, bw=2.0e9, num_subcarriers=512),
    AntennaConfig: dict(n_antennas=4),
    WaveformConfig: dict(n_ofdm_symbols=3, qam_order=64, oversampling_factor=2,
                         cp_length=4, pilot_spacing=4, pilot_mode="block",
                         tx_power=-3.5, num_subcarriers=64),
    AmplifierParams: dict(gain_db=10.5, mode="polynomial", sat_amplitude=0.7,
                          poly_coeffs=(1.0 + 0j, -0.1 + 0.05j), nf_db=5.0,
                          bandwidth=1e9, temperature=300.0),
    LinearElementSpec: dict(model="fixed_damping", loss_db=3.0, file="x.s2p",
                            domain="time", n_taps=64, group_velocity=2.1e8),
    DacParams: dict(mode="quantize", bits=8, clip_amplitude=0.8),
    OscillatorParams: dict(mode="ar1", cfo_hz=1e3, ar_rho=0.9, innovation_std=0.01,
                           initial_phase=0.3),
    IqParams: dict(gain_mismatch=1.1, phase_mismatch=0.05, dc_offset=0.01 - 0.02j),
    CalibrationConfig: dict(target_power_dbm=-5.0, max_gain_db=20.0),
    ReceiverConfig: dict(nf_db=7.0, temperature=300.0),
}
# the only value these accept is their default
ONLY_DEFAULT = {(AntennaConfig, "polarization"), (AntennaConfig, "pattern"),
                (WaveformConfig, "waveform_type")}
DERIVED = {(LinearElementSpec, "network")}  # read from the file key


@pytest.mark.parametrize("record", KEY_TABLES, ids=lambda r: r.__name__)
def test_key_table_covers_and_round_trips_its_record(record):
    """Each record field has a key, and a record with every field away from
    its default reloads equal from its snapshot."""
    table, values = KEY_TABLES[record], AWAY_FROM_DEFAULT[record]
    keyed = {name for name, _parse in table.values()}
    for f in fields(record):
        assert f.name in keyed or (record, f.name) in DERIVED, f.name
        assert f.name in values or (record, f.name) in ONLY_DEFAULT | DERIVED, f.name
        assert f.name not in values or f.default is MISSING or values[f.name] != f.default
    original = record(**values)
    dumped = yaml.safe_dump(_snapshot(original, table))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnknownKeyWarning)
        reloaded = record(**_read(_Section(yaml.safe_load(dumped), "section"), table))
    assert reloaded == original


def test_model_and_mode_together_rejected(tmp_path):
    doc = COMP_YAML.replace("boost_amplifier: {model: ideal,",
                            "boost_amplifier: {model: ideal, mode: tanh,")
    with pytest.raises(SchemaError, match="boost_amplifier: give 'model' or 'mode'"):
        load_components(_write(tmp_path, "comp.yaml", doc))
    alias = COMP_YAML.replace("dac: {model: ideal}", "dac: {mode: quantize, bits: 6}")
    assert load_components(_write(tmp_path, "alias.yaml", alias)).dac.mode == "quantize"
