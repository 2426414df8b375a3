"""Load, validate and cross-check the three YAML configuration files.

The scenario is split across environment.yaml (geometry, node locations,
grid metadata), waveform.yaml (CP-OFDM numerology) and components.yaml
(hardware models and their measurement files). Loading produces immutable
records; powers arrive in dBm and gains in dB at the config surface and
are converted to linear exactly once, inside the component processors.

Keys are matched case-insensitively (N_RUs and n_rus are the same key).
Each flat section is declared once, as a table from YAML key to record
field and parser. Loading parses only the keys a file gives, so each
default lives only in its record, and the manifest snapshot writes the
same keys back. Unknown keys at the environment's top level are warned
about and retained (``extras``), so configs carrying ray-tracer-only
metadata load cleanly; unknown keys anywhere else are warned about and
dropped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .components import (AMPLIFIER_MODES, LINEAR_MODELS, AmplifierParams,
                         DacParams, IqParams, OscillatorParams)
from .errors import (AntennaCountMismatch, ConfigError, GeometryError,
                     InterSymbolInterferenceRisk, ParseError, SchemaError,
                     UnknownKeyWarning, UnsupportedModel, UnsupportedMode)
from .touchstone import MAX_DB, TwoPortNetwork, read_touchstone
from .waveform import _is_power_of_two

QAM_ORDERS = (4, 16, 64, 256)
PILOT_MODES = ("scattered", "block")
STRIPE_AXES = ("x", "y", "z")  # stripe_config.orientation


# ---------------------------------------------------------------------------
# Key-normalized dict access
# ---------------------------------------------------------------------------

class _Section:
    """Case-insensitive view of one mapping with consumption tracking."""

    def __init__(self, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}: expected a mapping, got {type(raw).__name__}")
        self.path = path
        self.prefix = f"{path}."  # starts a key's path in error messages
        self._raw = raw
        self._by_lower = {}
        for key in raw:
            low = str(key).lower()
            if low in self._by_lower:
                raise SchemaError(f"{path}: duplicate key {key!r}")
            self._by_lower[low] = key
        self._used: set[str] = set()

    def has(self, key: str) -> bool:
        return key.lower() in self._by_lower

    def get(self, key: str, default=None):
        low = key.lower()
        if low not in self._by_lower:
            return default
        self._used.add(low)
        return self._raw[self._by_lower[low]]

    def require(self, key: str):
        if not self.has(key):
            raise SchemaError(f"{self.path}: missing required key {key!r}")
        return self.get(key)

    def warn_unknown(self) -> dict:
        """Warn about unconsumed keys; return them for retention."""
        extra = [orig for low, orig in self._by_lower.items() if low not in self._used]
        if extra:
            warnings.warn(f"{self.path}: ignoring unknown keys {extra}",
                          UnknownKeyWarning, stacklevel=3)
        return {k: self._raw[k] for k in extra}


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except ValueError:
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    if not np.isfinite(out):
        raise SchemaError(f"{path}: value must be finite")
    return out


def _as_complex(value, path: str) -> complex:
    """A number, a complex literal such as "1+2j", or an [re, im] pair; each
    part finite, and no bool."""
    if isinstance(value, str):
        try:
            value = complex(value)
        except ValueError:
            raise SchemaError(f"{path}: expected a number or [re, im], got {value!r}") from None
        value = (value.real, value.imag)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], path), _as_float(value[1], path))
    return complex(_as_float(value, path))


def _as_complex_list(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{path}: expected a list, got {value!r}")
    return tuple(_as_complex(c, f"{path}[{i}]") for i, c in enumerate(value))


def _as_int(value, path: str) -> int:
    out = _as_float(value, path)
    if out != int(out):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return int(out)


def _within(low: float, high: float = np.inf, *, strict: bool = False, parse=_as_float):
    """Parser of a number that ``parse`` reads and that lies in [low, high]
    ((low, high] when strict)."""
    def check(value, path: str):
        out = parse(value, path)
        if out < low or (strict and out == low):
            raise SchemaError(f"{path} must be {'>' if strict else '>='} {low:g}")
        if out > high:
            raise SchemaError(f"{path} must be <= {high:g}")
        return out
    return check


_as_count = _within(1, parse=_as_int)


# A dB value, and an amplitude's power, is held to `touchstone.MAX_DB`. No
# frequency lies beyond a petahertz (ultraviolet light), nor a temperature
# beyond 1e6 K: the noise powers and phases made from one far beyond them
# overflow.
_DECIBELS = _within(-MAX_DB, MAX_DB)
MAX_HZ = 1e15
_AMPLITUDE = _within(0.0, 10.0 ** (MAX_DB / 20.0), strict=True)
_HERTZ = _within(0.0, MAX_HZ, strict=True)
_KELVIN = _within(0.0, 1e6, strict=True)
# The most complex samples one array of a link, or one UE's channel tensor,
# may hold (4 GiB at 16 bytes each). A link holds a few arrays the length
# of its waveform and a few the size of its (Q, antennas, symbols) grid.
MAX_LINK_SAMPLES = 1 << 28
# Every level (index + 1/2) of a quantizer of up to 52 bits is exact in
# a float64.
MAX_DAC_BITS = 52


def _as_name(value, path: str) -> str:
    return str(value).lower()


def _choice(*options, error=SchemaError):
    """Parser of a case-insensitive name that must be one of ``options``."""
    def parse(value, path: str) -> str:
        name = str(value).lower()
        if name not in options:
            raise error(f"{path} {name!r}: expected one of {', '.join(options)}")
        return name
    return parse


def _or_none(parse):
    """``parse``, except that a YAML null stays None."""
    return lambda value, path: None if value is None else parse(value, path)


def _as_xyz(value, path: str) -> tuple[float, float, float]:
    if isinstance(value, dict):
        sec = _Section(value, path)
        xyz = tuple(_as_float(sec.require(axis), f"{path}.{axis}") for axis in "xyz")
        sec.warn_unknown()
        return xyz
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return tuple(_as_float(v, path) for v in value)
    raise SchemaError(f"{path}: expected [x, y, z] or {{x, y, z}}")


def _top(path) -> _Section:
    """The top level of a YAML file, whose keys' paths are their bare names."""
    top = _Section(_load_yaml(path), str(path))
    top.prefix = ""
    return top


def _load_yaml(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"config file not found: {p}")
    try:  # given bytes, PyYAML reports undecodable text as a YAMLError too
        raw = yaml.load(p.read_bytes(), getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{p}: top level must be a mapping")
    return raw


# ---------------------------------------------------------------------------
# Key tables: yaml key -> (record field, parser), one per flat section
# ---------------------------------------------------------------------------

def _read(sec: _Section, table: dict, required=()) -> dict:
    """The record fields that ``sec`` gives, parsed; every other field keeps
    its record's default. Warns about keys not in ``table``. Two keys that
    name one field (``model`` and ``mode``) may not both be given."""
    for key in required:
        sec.require(key)
    out, given = {}, {}
    for key, (name, parse) in table.items():
        if sec.has(key):
            if name in given:
                raise SchemaError(f"{sec.path}: give {given[name]!r} or {key!r}, not both")
            given[name] = key
            out[name] = parse(sec.get(key), sec.prefix + key)
    sec.warn_unknown()
    return out


def _plain(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _snapshot(record, table: dict) -> dict:
    """Every field of ``record`` under its first key in ``table``: None is
    left out, a tuple is written as a list, a complex value as [re, im]."""
    out, seen = {}, set()
    for key, (name, _parse) in table.items():
        value = getattr(record, name)
        if name not in seen and value is not None:
            out[key] = _plain(value)
        seen.add(name)
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripeNode:
    kind: str
    position: tuple


_NODE_KEYS = {"kind": ("kind", _choice("central_unit", "radio_unit")),
              "position": ("position", _as_xyz)}


@dataclass(frozen=True)
class StripeLayout:
    """The stripe_config block; None marks a key the config does not give."""

    n_stripes: int | None = None
    n_rus: int | None = None
    inter_ru_spacing: float | None = None
    inter_stripe_spacing: float | None = None
    start_position: tuple | None = None
    end_position: tuple | None = None
    orientation: str | None = None


_LAYOUT_KEYS = {
    "n_stripes": ("n_stripes", _as_int), "n_rus": ("n_rus", _as_count),
    "inter_ru_spacing": ("inter_ru_spacing", _as_float),
    "inter_stripe_spacing": ("inter_stripe_spacing", _as_float),
    "start_position": ("start_position", _as_xyz),
    "end_position": ("end_position", _as_xyz),
    "orientation": ("orientation", _choice(*STRIPE_AXES)),
}


@dataclass(frozen=True)
class SubThzConfig:
    fc: float
    bw: float
    num_subcarriers: int


_SUB_THZ_KEYS = {"fc": ("fc", _HERTZ), "bw": ("bw", _HERTZ),
                 "num_subcarriers": ("num_subcarriers", _as_int)}


@dataclass(frozen=True)
class AntennaConfig:
    n_antennas: int = 1
    polarization: str = "single"
    pattern: str = "isotropic"


# the channel models assume isotropic single-polarized elements, so any
# other pattern or polarization would be accepted and then ignored
_ANTENNA_KEYS = {
    "n_antennas": ("n_antennas", _as_count),
    "polarization": ("polarization", _choice("single", error=UnsupportedModel)),
    "pattern": ("pattern", _choice("isotropic", error=UnsupportedModel)),
}


@dataclass(frozen=True)
class EnvironmentConfig:
    room: tuple
    stripe_config: StripeLayout
    radio_stripes: tuple
    ue_positions: tuple
    central_unit_fiber_length: float
    sub_thz: SubThzConfig | None = None
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    extras: dict = field(default_factory=dict)  # unknown keys, retained

    @property
    def n_stripes(self) -> int:
        return len(self.radio_stripes)

    def stripe_nodes(self, stripe_id: int) -> tuple:
        if not 0 <= stripe_id < self.n_stripes:
            raise SchemaError(f"stripe_id {stripe_id} out of range [0, {self.n_stripes})")
        return self.radio_stripes[stripe_id]


def _inside_room(position, room) -> bool:
    return all(0.0 <= p <= limit for p, limit in zip(position, room))


def _check_distance(key: str, want, a, b, what: str):
    """GeometryError unless points ``a`` and ``b`` lie ``want`` m apart (to
    1e-6 m); no check when ``want`` is None, for a stripe_config key not given."""
    gap = None if want is None else float(np.linalg.norm(np.subtract(a, b)))
    if gap is not None and abs(gap - want) > 1e-6:
        raise GeometryError(f"stripe_config.{key} disagrees with radio_stripes: "
                            f"{what} are {gap:.6g} m apart, not {want:.6g} m")


def load_environment(path) -> EnvironmentConfig:
    """Load and geometry-check environment.yaml."""
    top = _top(path)
    room = _as_xyz(top.require("room"), "room")
    if any(r <= 0 for r in room):
        raise SchemaError("room extents must be positive")

    # a key the block does not give stays None and unchecked
    layout = StripeLayout(**_read(_Section(top.get("stripe_config", {}), "stripe_config"),
                                  _LAYOUT_KEYS))

    stripes = []
    raw_stripes = top.require("radio_stripes")
    if not isinstance(raw_stripes, list) or not raw_stripes:
        raise SchemaError("radio_stripes must be a non-empty list of stripes")
    for si, raw_stripe in enumerate(raw_stripes):
        if not isinstance(raw_stripe, list) or len(raw_stripe) < 2:
            raise SchemaError(f"radio_stripes[{si}] must list a CU followed by >= 1 RU")
        nodes = tuple(StripeNode(**_read(_Section(n, f"radio_stripes[{si}][{ni}]"), _NODE_KEYS,
                                         required=("kind", "position")))
                      for ni, n in enumerate(raw_stripe))
        if nodes[0].kind != "central_unit":
            raise GeometryError(f"radio_stripes[{si}]: first node must be the central unit")
        if any(n.kind != "radio_unit" for n in nodes[1:]):
            raise GeometryError(f"radio_stripes[{si}]: only the first node may be a central unit")
        for ni, node in enumerate(nodes):
            if not _inside_room(node.position, room):
                raise GeometryError(
                    f"radio_stripes[{si}][{ni}] at {node.position} lies outside the room {room}")
        stripes.append(nodes)
    if layout.n_stripes not in (None, len(stripes)):
        raise GeometryError(f"stripe_config.n_stripes is {layout.n_stripes} but "
                            f"radio_stripes lists {len(stripes)} stripes")
    for si, nodes in enumerate(stripes):
        if layout.n_rus not in (None, len(nodes) - 1):
            raise GeometryError(f"stripe_config.n_rus is {layout.n_rus} but "
                                f"radio_stripes[{si}] has {len(nodes) - 1} RUs")
        # the axis along which the stripe's nodes spread the most
        spans = [max(n.position[k] for n in nodes) - min(n.position[k] for n in nodes)
                 for k in range(3)]
        if (layout.orientation is not None
                and spans[STRIPE_AXES.index(layout.orientation)] < max(spans)):
            raise GeometryError(
                f"stripe_config.orientation is {layout.orientation} but radio_stripes"
                f"[{si}] runs along {STRIPE_AXES[spans.index(max(spans))]}")
        for ni in range(1, len(nodes) - 1):  # neighbouring RUs ni, ni + 1
            _check_distance("inter_ru_spacing", layout.inter_ru_spacing,
                            nodes[ni].position, nodes[ni + 1].position,
                            f"radio_stripes[{si}][{ni}] and [{ni + 1}]")
        if si:
            _check_distance("inter_stripe_spacing", layout.inter_stripe_spacing,
                            stripes[si - 1][0].position, nodes[0].position,
                            f"the CUs of radio_stripes[{si - 1}] and [{si}]")
    for key, ni in (("start_position", 1), ("end_position", -1)):  # stripe 0's RUs
        at = getattr(layout, key)
        _check_distance(key, None if at is None else 0.0, at, stripes[0][ni].position,
                        f"{key} {at} and radio_stripes[0][{ni % len(stripes[0])}]")

    ue_positions = []
    for ui, raw_ue in enumerate(top.require("ue_positions")):
        pos = _as_xyz(raw_ue, f"ue_positions[{ui}]")
        if not _inside_room(pos, room):
            raise GeometryError(f"ue_positions[{ui}] at {pos} lies outside the room {room}")
        ue_positions.append(pos)

    sub_thz = None
    if top.has("sub_thz"):
        sub_thz = SubThzConfig(**_read(_Section(top.get("sub_thz"), "sub_thz"), _SUB_THZ_KEYS,
                                       required=("fc", "bw", "num_subcarriers")))
        if sub_thz.bw >= 2 * sub_thz.fc:  # the lowest subcarrier sits at fc - bw/2
            raise SchemaError("sub_thz.bw must be less than twice sub_thz.fc")
        if not _is_power_of_two(sub_thz.num_subcarriers):
            raise SchemaError("sub_thz.num_subcarriers must be a power of two")

    antenna = AntennaConfig(**_read(_Section(top.get("antenna", {}), "antenna"),
                                    _ANTENNA_KEYS))

    cu_fiber = _as_float(top.require("central_unit_fiber_length"),
                         "central_unit_fiber_length")
    if cu_fiber <= 0:
        raise SchemaError("central_unit_fiber_length must be positive")

    extras = top.warn_unknown()
    return EnvironmentConfig(room=room, stripe_config=layout,
                             radio_stripes=tuple(stripes),
                             ue_positions=tuple(ue_positions),
                             central_unit_fiber_length=cu_fiber,
                             sub_thz=sub_thz, antenna=antenna,
                             extras=extras)


# ---------------------------------------------------------------------------
# Waveform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveformConfig:
    waveform_type: str = "cp-ofdm"
    n_ofdm_symbols: int = 14
    qam_order: int = 16
    oversampling_factor: int = 1
    cp_length: int = 0  # critical-rate samples
    pilot_spacing: int = 8
    pilot_mode: str = "scattered"
    tx_power: float = 0.0  # dBm
    num_subcarriers: int | None = None  # optional duplicate of the env grid


def _as_waveform_type(value, path: str) -> str:
    """Only CP-OFDM is implemented; cp_ofdm names it too."""
    return _choice("cp-ofdm", error=UnsupportedModel)(str(value).replace("_", "-"), path)


_WAVEFORM_KEYS = {
    "waveform_type": ("waveform_type", _as_waveform_type),
    "n_ofdm_symbols": ("n_ofdm_symbols", _as_count), "qam_order": ("qam_order", _as_int),
    "oversampling_factor": ("oversampling_factor", _as_count),
    "cp_length": ("cp_length", _as_int), "pilot_spacing": ("pilot_spacing", _as_count),
    "pilot_mode": ("pilot_mode", _choice(*PILOT_MODES)), "tx_power": ("tx_power", _DECIBELS),
    "num_subcarriers": ("num_subcarriers", _as_int),
}


def load_waveform(path) -> WaveformConfig:
    """Load and schema-check waveform.yaml."""
    top = _top(path)
    cfg = WaveformConfig(**_read(top, _WAVEFORM_KEYS,
                                 required=("waveform_type", "n_ofdm_symbols", "qam_order")))
    if cfg.qam_order not in QAM_ORDERS:
        raise SchemaError(f"qam_order must be one of {QAM_ORDERS} (a power of 4)")
    if cfg.cp_length < 0:
        raise SchemaError("cp_length must be >= 0")
    if cfg.num_subcarriers is not None:
        problems = _check_against_grid(cfg, cfg.num_subcarriers)
        if problems:
            raise SchemaError("; ".join(problems))
    return cfg


def _check_against_grid(wf: WaveformConfig, num_subcarriers: int) -> list[str]:
    problems = []
    if wf.cp_length >= num_subcarriers:
        problems.append(f"cp_length ({wf.cp_length}) must be smaller than the "
                        f"subcarrier count ({num_subcarriers})")
    if wf.pilot_mode == "scattered" and num_subcarriers % wf.pilot_spacing != 0:
        problems.append(f"pilot_spacing ({wf.pilot_spacing}) must divide the "
                        f"subcarrier count ({num_subcarriers})")
    return problems


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearElementSpec:
    """Config-level fiber/coupler description with the parsed network.

    The network is interpolated onto the run's subcarrier grid when the
    stripe is built; parsing happens eagerly so file errors surface at
    load time. Only the fiber block sets ``group_velocity``: a coupler
    never delays.
    """

    model: str = "ideal"
    loss_db: float = 0.0
    file: str | None = None
    network: TwoPortNetwork | None = None
    domain: str = "frequency"
    n_taps: int = 256
    group_velocity: float = 2e8


@dataclass(frozen=True)
class CalibrationConfig:
    target_power_dbm: float = 0.0
    max_gain_db: float = 30.0


@dataclass(frozen=True)
class ReceiverConfig:
    """Over-the-air receive noise floor; nf_db None disables it."""

    nf_db: float | None = None
    temperature: float = 290.0


@dataclass(frozen=True)
class ComponentBank:
    boost_amplifier: AmplifierParams = field(default_factory=AmplifierParams)
    antenna_amplifier: AmplifierParams = field(default_factory=AmplifierParams)
    fiber: LinearElementSpec = field(default_factory=LinearElementSpec)
    coupler: LinearElementSpec = field(default_factory=LinearElementSpec)
    dac: DacParams = field(default_factory=DacParams)
    oscillator: OscillatorParams = field(default_factory=OscillatorParams)
    iq_modem: IqParams = field(default_factory=IqParams)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)


_AMPLIFIER_MODE = _choice(*AMPLIFIER_MODES, error=UnsupportedModel)
_AMPLIFIER_KEYS = {
    "model": ("mode", _AMPLIFIER_MODE), "mode": ("mode", _AMPLIFIER_MODE),
    "gain_db": ("gain_db", _DECIBELS),
    "sat_amplitude": ("sat_amplitude", _AMPLITUDE),
    "poly_coeffs": ("poly_coeffs", _as_complex_list),
    # a noise figure below 0 dB or a temperature of 0 K or less makes
    # the added noise power negative
    "nf_db": ("nf_db", _within(0.0, MAX_DB)),
    "bandwidth": ("bandwidth", _within(0.0, MAX_HZ)), "temperature": ("temperature", _KELVIN)}
_LINEAR_KEYS = {
    "model": ("model", _choice(*LINEAR_MODELS, error=UnsupportedModel)),
    "loss_db": ("loss_db", _DECIBELS),
    "file": ("file", _or_none(lambda value, _path: str(value))),
    "domain": ("domain", _choice("frequency", "time", error=UnsupportedMode)),
    "taps": ("n_taps", _as_count)}

# one key table per ComponentBank block; mode is an alias of model, and a
# snapshot writes model. A key a block's mode leaves unused (an ideal
# amplifier's sat_amplitude, a frequency-domain fiber's taps and
# group_velocity) is still accepted and checked.
_COMPONENT_KEYS = {
    "boost_amplifier": _AMPLIFIER_KEYS,
    "antenna_amplifier": _AMPLIFIER_KEYS,
    # only a fiber segment delays, so only the fiber has a group velocity
    "fiber": {**_LINEAR_KEYS, "group_velocity": ("group_velocity", _within(0.0, strict=True))},
    "coupler": _LINEAR_KEYS,
    "dac": {
        "model": ("mode", _as_name), "mode": ("mode", _as_name),
        "bits": ("bits", _within(1, MAX_DAC_BITS, parse=_as_int)),
        "clip_amplitude": ("clip_amplitude", _AMPLITUDE)},
    "oscillator": {
        "model": ("mode", _as_name), "mode": ("mode", _as_name),
        "cfo_hz": ("cfo_hz", _as_float), "ar_rho": ("ar_rho", _within(0.0, 1.0, strict=True)),
        # a larger step per sample leaves the phase no less uniform
        "innovation_std": ("innovation_std", _within(0.0, 2.0 * np.pi)),
        "initial_phase": ("initial_phase", _as_float)},
    "iq_modem": {
        "gain_mismatch": ("gain_mismatch", _within(0.0, strict=True)),
        "phase_mismatch": ("phase_mismatch", _as_float),
        "dc_offset": ("dc_offset", _as_complex)},
    "calibration": {"target_power": ("target_power_dbm", _DECIBELS),
                    "max_gain": ("max_gain_db", _DECIBELS)},
    "receiver": {"nf_db": ("nf_db", _or_none(_DECIBELS)),
                 "temperature": ("temperature", _KELVIN)},
}


def load_components(path) -> ComponentBank:
    """Load components.yaml; .s2p paths resolve relative to the file."""
    p = Path(path)
    top = _top(p)
    parts = {}
    for part in fields(ComponentBank):
        record = part.default_factory  # the block's record type
        sec = _Section(top.get(part.name, {}), part.name)
        kwargs = _read(sec, _COMPONENT_KEYS[part.name])
        if record is DacParams and "bits" in kwargs:
            kwargs.setdefault("mode", "quantize")  # bits given means quantize
        if record is LinearElementSpec and kwargs.get("model") == "s2p_filter":
            if kwargs.get("file") is None:
                raise SchemaError(f"{sec.path}: s2p_filter requires a 'file' key")
            kwargs["network"] = read_touchstone(p.parent / kwargs["file"])
        parts[part.name] = record(**kwargs)
    top.warn_unknown()
    return ComponentBank(**parts)


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------

def validate_cross(env: EnvironmentConfig, wf: WaveformConfig,
                   comp: ComponentBank, dataset_header=None):
    """Check the three configs against each other and against
    ``dataset_header`` (optional, a dataset's grid and antenna counts).

    Raises one `ConfigError` naming every problem as "Code: message",
    joined by "; ". Warns `InterSymbolInterferenceRisk` when a time-domain
    element keeps more taps than the cyclic prefix spans, and
    `AntennaCountMismatch` when the dataset's n_tx overrides the
    configured RU antenna count.
    """
    errors = []
    if env.sub_thz is None and dataset_header is None:
        errors.append("MissingGrid: environment carries no sub_thz block and no "
                      "dataset supplies a grid")

    q = None
    if env.sub_thz is not None:
        q = env.sub_thz.num_subcarriers
        if dataset_header is not None:
            for name in ("num_subcarriers", "fc", "bw"):
                env_v, ds_v = getattr(env.sub_thz, name), getattr(dataset_header, name)
                if env_v != ds_v:
                    errors.append(f"GridMismatch: environment {name}={env_v} but "
                                  f"dataset {name}={ds_v}")
    elif dataset_header is not None:
        q = dataset_header.num_subcarriers

    if wf.num_subcarriers is not None and q is not None and wf.num_subcarriers != q:
        errors.append(f"GridMismatch: waveform num_subcarriers={wf.num_subcarriers} "
                      f"differs from grid {q}")
    if q is not None:
        errors += [f"WaveformGrid: {problem}" for problem in _check_against_grid(wf, q)]
    if errors:
        raise ConfigError("; ".join(errors))

    cp_span = wf.cp_length * wf.oversampling_factor
    for name, element in (("fiber", comp.fiber), ("coupler", comp.coupler)):
        if element.model == "s2p_filter" and element.domain == "time" \
                and cp_span < element.n_taps:
            warnings.warn(f"InterSymbolInterferenceRisk: {name}: cyclic prefix spans "
                          f"{cp_span} samples but the impulse response keeps "
                          f"{element.n_taps} taps", InterSymbolInterferenceRisk,
                          stacklevel=2)
    if dataset_header is not None and env.antenna.n_antennas != dataset_header.n_tx:
        warnings.warn(f"AntennaCountMismatch: environment configures "
                      f"{env.antenna.n_antennas} RU antennas but the dataset stores "
                      f"n_tx={dataset_header.n_tx}", AntennaCountMismatch, stacklevel=2)


# ---------------------------------------------------------------------------
# Serialization (round-trip and manifest snapshots)
# ---------------------------------------------------------------------------

def environment_to_dict(env: EnvironmentConfig) -> dict:
    return {
        "room": {"x": env.room[0], "y": env.room[1], "z": env.room[2]},
        # only the keys the config gave: an omitted one stays unchecked
        "stripe_config": _snapshot(env.stripe_config, _LAYOUT_KEYS),
        "radio_stripes": [[_snapshot(n, _NODE_KEYS) for n in stripe]
                          for stripe in env.radio_stripes],
        "ue_positions": [list(p) for p in env.ue_positions],
        **({"sub_thz": _snapshot(env.sub_thz, _SUB_THZ_KEYS)} if env.sub_thz else {}),
        "antenna": _snapshot(env.antenna, _ANTENNA_KEYS),
        "central_unit_fiber_length": env.central_unit_fiber_length,
        **env.extras,
    }


def waveform_to_dict(wf: WaveformConfig) -> dict:
    return _snapshot(wf, _WAVEFORM_KEYS)


def components_to_dict(bank: ComponentBank) -> dict:
    return {part.name: _snapshot(getattr(bank, part.name), _COMPONENT_KEYS[part.name])
            for part in fields(bank)}
