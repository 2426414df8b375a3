"""Table-driven fuzz of the inputs: every key of every key table gets
every value of a fixed list of bad values, one key at a time, and the CLI
must either run to finite metrics or refuse the input as a configuration
error (exit 2). An exit 3 or an "internal error" is a finding.

The input files are fuzzed alike. Every field of a CFR1 dataset's
metadata.json gets the same values, with the manifest CRC recomputed so
only the value is wrong; a damaged dataset may also end as a runtime
error (exit 3), but never as an "internal error". The fiber's Touchstone
file gets them as text, one token at a time: each field of the option
line and each token of two data lines, through `run` and `inspect-s2p`.

The config cases come from the key tables themselves, so a new key is
covered without editing this file; a metadata field the list below
lacks fails a check until it is added. The
scenario is tiny (Q=64, 2 symbols, 2 RUs) so that the whole fuzz takes a
few seconds.
"""

import copy
import csv
import json
import math
import shutil
import warnings

import pytest
import yaml

from stripesim.cli import main
from stripesim.config import (_ANTENNA_KEYS, _COMPONENT_KEYS, _LAYOUT_KEYS,
                              _SUB_THZ_KEYS, _WAVEFORM_KEYS)

from conftest import edit_metadata, s2p_from_taps

BAD_VALUES = {"-1": -1, "0": 0, "0.5": 0.5, "1e30": 1e30, "1e308": 1e308,
              "-1e308": -1e308, "2**70": 2 ** 70, "nan": math.nan, "abc": "abc",
              "[]": [], "null": None, "true": True}

ENVIRONMENT = {
    "room": {"x": 10.0, "y": 6.0, "z": 3.0},
    "stripe_config": {"n_stripes": 1, "n_rus": 2, "inter_ru_spacing": 0.5,
                      "inter_stripe_spacing": 1.0, "start_position": [0.6, 3.0, 2.8],
                      "end_position": [1.1, 3.0, 2.8], "orientation": "x"},
    "radio_stripes": [[{"kind": "central_unit", "position": [0.1, 3.0, 2.8]},
                       {"kind": "radio_unit", "position": [0.6, 3.0, 2.8]},
                       {"kind": "radio_unit", "position": [1.1, 3.0, 2.8]}]],
    "ue_positions": [[3.0, 2.0, 1.5]],
    "sub_thz": {"fc": 157.75e9, "bw": 3.0e9, "num_subcarriers": 64},
    "antenna": {"n_antennas": 2, "polarization": "single", "pattern": "isotropic"},
    "central_unit_fiber_length": 2.0,
}

WAVEFORM = {"waveform_type": "cp-ofdm", "n_ofdm_symbols": 2, "qam_order": 16,
            "oversampling_factor": 2, "cp_length": 8, "pilot_spacing": 4,
            "pilot_mode": "scattered", "tx_power": 0.0, "num_subcarriers": 64}

_AMPLIFIER = {"model": "tanh", "gain_db": 3.0, "sat_amplitude": 2.0,
              "poly_coeffs": [[1.0, 0.0], [-0.1, 0.05]], "nf_db": 6.0,
              "bandwidth": 3.0e9, "temperature": 290.0}
COMPONENTS = {
    "boost_amplifier": _AMPLIFIER,
    "antenna_amplifier": {**_AMPLIFIER, "model": "polynomial"},
    "fiber": {"model": "s2p_filter", "loss_db": 0.0, "file": "fiber.s2p",
              "domain": "frequency", "taps": 8, "group_velocity": 2.0e8},
    "coupler": {"model": "fixed_damping", "loss_db": 3.0, "file": None,
                "domain": "frequency", "taps": 8},
    "dac": {"model": "quantize", "bits": 10, "clip_amplitude": 2.0},
    "oscillator": {"model": "ar1", "cfo_hz": 1.0e6, "ar_rho": 0.99,
                   "innovation_std": 0.01, "initial_phase": 0.1},
    "iq_modem": {"gain_mismatch": 1.05, "phase_mismatch": 0.02,
                 "dc_offset": [0.001, -0.002]},
    "calibration": {"target_power": 0.0, "max_gain": 30.0},
    "receiver": {"nf_db": 7.0, "temperature": 290.0},
}
CONFIGS = {"environment": ENVIRONMENT, "waveform": WAVEFORM, "components": COMPONENTS}


def _keys():
    """(file, block or None, key, key table) of every key the tables name."""
    yield from (("environment", block, key, table)
                for block, table in (("stripe_config", _LAYOUT_KEYS),
                                     ("sub_thz", _SUB_THZ_KEYS),
                                     ("antenna", _ANTENNA_KEYS))
                for key in table)
    yield "environment", None, "central_unit_fiber_length", None
    yield from (("waveform", None, key, _WAVEFORM_KEYS) for key in _WAVEFORM_KEYS)
    for block, table in _COMPONENT_KEYS.items():
        yield from (("components", block, key, table) for key in table)


KEYS = list(_keys())
# the fiber keys again, on a time-domain fiber
TIME_DOMAIN = [k for k in KEYS if k[1] == "fiber" and k[2] != "domain"]


def _mutated(doc: dict, block, key: str, table, value) -> dict:
    """``doc`` with ``key`` set to ``value``; a key naming the same record
    field (the model/mode alias) is dropped first."""
    section = doc if block is None else doc[block]
    if table is not None:
        for other, (name, _parse) in table.items():
            if name == table[key][0]:
                section.pop(other, None)
    section[key] = value
    return doc


def _write(path, doc: dict):
    path.write_text(yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper)))
    return path


FIBER_S2P = s2p_from_taps([0.8, 0.15j, 0.05], 157.75e9, 6e9, n_points=129)


def _run(tmp_path, capsys, configs: dict, label: str, channel: str = "los",
         fiber_s2p: str = FIBER_S2P) -> tuple:
    """(exit code, stderr, metrics or None) of a calibrated downlink run on
    ``configs``; a config that is not the fixture's is written under
    ``label``."""
    (tmp_path / "fiber.s2p").write_text(fiber_s2p)
    paths = {}
    for name, doc in configs.items():
        paths[name] = tmp_path / f"{name}.yaml"
        if doc is not CONFIGS[name]:
            paths[name] = _write(tmp_path / f"{name}-{label}.yaml", doc)
        elif not paths[name].exists():
            _write(paths[name], doc)
    out = tmp_path / "out" / label
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run", "--env", str(paths["environment"]),
                     "--waveform", str(paths["waveform"]),
                     "--components", str(paths["components"]), "--channel", channel,
                     "--ru", "1", "--calibrate", "--out", str(out)])
    metrics = None
    if code == 0:
        with open(out / "metrics.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        metrics = [float(row[m]) for m in ("nmse_db", "sndr_db", "evm_percent", "ber")]
    return code, capsys.readouterr().err, metrics


def _configs(fiber_domain: str) -> dict:
    """The fixture's configs: the fixture itself but for a time-domain fiber."""
    if fiber_domain == "frequency":
        return dict(CONFIGS)
    components = copy.deepcopy(COMPONENTS)
    components["fiber"]["domain"] = fiber_domain
    return {**CONFIGS, "components": components}


def _finding(code: int, err: str, values, typed: tuple = (2,)) -> str | None:
    """What went wrong in one case, or None: exit 0 with non-finite output
    ``values``, an exit that is neither 0 nor in ``typed``, or an
    "internal error"."""
    if code == 0 and not all(math.isfinite(v) for v in values):
        return f"exit 0 with {values}"
    if code not in (0, *typed) or "internal error" in err:
        return f"exit {code}: {err.strip()}"
    return None


def _fuzz(tmp_path, capsys, key_spec, fiber_domain: str) -> list[str]:
    """Run every bad value of one key; the cases that went wrong."""
    file, block, key, table = key_spec
    found = []
    for label, value in BAD_VALUES.items():
        configs = _configs(fiber_domain)
        configs[file] = _mutated(copy.deepcopy(configs[file]), block, key, table, value)
        finding = _finding(*_run(tmp_path, capsys, configs, label))
        if finding:
            found.append(f"{label}: {finding}")
    return found


@pytest.mark.parametrize("fiber_domain", ["frequency", "time"])
def test_unmutated_fixture_runs_finite(fiber_domain, tmp_path, capsys):
    """Without a mutation the fixture runs, so an exit 2 above is the
    mutated key's doing."""
    code, err, metrics = _run(tmp_path, capsys, _configs(fiber_domain), "plain")
    assert code == 0, err
    assert all(math.isfinite(m) for m in metrics)


def _id(key_spec) -> str:
    file, block, key, _table = key_spec
    return ".".join(filter(None, (file, block, key)))


@pytest.mark.parametrize("key_spec", KEYS, ids=_id)
def test_bad_value_exits_typed_or_runs_finite(key_spec, tmp_path, capsys):
    assert _fuzz(tmp_path, capsys, key_spec, "frequency") == []


@pytest.mark.parametrize("key_spec", TIME_DOMAIN, ids=_id)
def test_bad_value_on_a_time_domain_fiber(key_spec, tmp_path, capsys):
    assert _fuzz(tmp_path, capsys, key_spec, "time") == []


# ---------------------------------------------------------------------------
# Input files: CFR1 metadata and Touchstone tokens
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A LoS dataset of the fixture's stripe, its UE with a grid index."""
    root = tmp_path_factory.mktemp("cfr")
    _write(root / "environment.yaml", ENVIRONMENT)
    assert main(["gen-channels", "--env", str(root / "environment.yaml"), "--model", "los",
                 "--n-tx", "2", "--n-rx", "1", "--out", str(root / "base")]) == 0
    edit_metadata(root / "base", lambda m: m["ues"][0].update(grid_i=0, grid_j=0))
    return root / "base"


# (section, key) of every field of a metadata.json
METADATA_FIELDS = ([("header", key) for key in ("n_stripes", "n_rus", "n_rx", "n_tx",
                                                "num_subcarriers", "fc", "bw")]
                   + [("ues", key) for key in ("id", "x", "y", "z", "grid_i", "grid_j")])


def test_fuzzed_metadata_fields_are_every_field(dataset):
    meta = json.loads((dataset / "metadata.json").read_text())
    assert set(METADATA_FIELDS) == ({("header", key) for key in meta["header"]}
                                    | {("ues", key) for key in meta["ues"][0]})


@pytest.mark.parametrize("field", METADATA_FIELDS, ids=".".join)
def test_bad_metadata_field_exits_typed_or_runs_finite(field, dataset, tmp_path, capsys):
    section, key = field
    found = []
    for label, value in BAD_VALUES.items():
        copy_dir = shutil.copytree(dataset, tmp_path / f"cfr-{label}")
        edit_metadata(copy_dir, lambda m: (m["header"] if section == "header"
                                           else m["ues"][0]).update({key: value}))
        finding = _finding(*_run(tmp_path, capsys, CONFIGS, label,
                                 channel=f"dataset:{copy_dir}"), typed=(2, 3))
        if finding:
            found.append(f"{label}: {finding}")
    assert found == []


def test_unmutated_dataset_runs_finite(dataset, tmp_path, capsys):
    code, err, metrics = _run(tmp_path, capsys, CONFIGS, "plain",
                              channel=f"dataset:{dataset}")
    assert code == 0, err
    assert all(math.isfinite(m) for m in metrics)


_S2P_LINES = FIBER_S2P.splitlines()
_OPTION = next(i for i, line in enumerate(_S2P_LINES) if line.startswith("#"))
# each field of the option line, and each token of the first and the
# middle data line
TOKENS = ([(_OPTION, t) for t in range(1, len(_S2P_LINES[_OPTION].split()))]
          + [(line, t) for line in (_OPTION + 1, (_OPTION + len(_S2P_LINES)) // 2)
             for t in range(9)])


def _inspect(tmp_path, capsys, text: str) -> tuple:
    """(exit code, stderr, every number written or None) of `inspect-s2p`
    on ``text``."""
    (tmp_path / "bad.s2p").write_text(text)
    out = tmp_path / "s21.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["inspect-s2p", "--file", str(tmp_path / "bad.s2p"), "--out", str(out)])
    values = None
    if code == 0:
        with open(out, newline="") as fh:
            values = [float(v) for row in csv.DictReader(fh) for v in row.values()]
    return code, capsys.readouterr().err, values


@pytest.mark.parametrize("token", TOKENS, ids=lambda t: f"line{t[0]}-token{t[1]}")
def test_bad_touchstone_token_exits_typed_or_runs_finite(token, tmp_path, capsys):
    line, at = token
    found = []
    for label, value in BAD_VALUES.items():
        lines = list(_S2P_LINES)
        tokens = lines[line].split()
        tokens[at] = str(value)
        lines[line] = " ".join(tokens)
        text = "\n".join(lines) + "\n"
        for command, outcome in (("run", _run(tmp_path, capsys, CONFIGS, label,
                                              fiber_s2p=text)),
                                 ("inspect-s2p", _inspect(tmp_path, capsys, text))):
            finding = _finding(*outcome)
            if finding:
                found.append(f"{label} ({command}): {finding}")
    assert found == []
