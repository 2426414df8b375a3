"""Load, validate and cross-check the three YAML configuration files.

The scenario is split across environment.yaml (geometry, node locations,
grid metadata), waveform.yaml (CP-OFDM numerology) and components.yaml
(hardware models and their measurement files). Loading produces immutable
records; powers arrive in dBm and gains in dB at the config surface and
are converted to linear exactly once, inside the component processors.

Keys are matched case-insensitively (N_RUs and n_rus are the same key)
and unknown keys are retained-and-ignored with a warning so configs
carrying ray-tracer-only metadata load cleanly. The sub-10 GHz block is
parsed but never influences the simulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .components import (AMPLIFIER_MODES, LINEAR_MODELS, AmplifierParams,
                         DacParams, IqParams, OscillatorParams)
from .errors import (GeometryError, ParseError, SchemaError,
                     UnknownKeyWarning, UnsupportedModel, UnsupportedMode)
from .touchstone import TwoPortNetwork, read_touchstone
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
    """A number, a complex literal such as "1+2j", or an [re, im] pair."""
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
        return complex(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: expected a number or [re, im], got {value!r}") from None


def _as_int(value, path: str) -> int:
    out = _as_float(value, path)
    if out != int(out):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return int(out)


def _as_xyz(value, path: str) -> tuple[float, float, float]:
    if isinstance(value, dict):
        sec = _Section(value, path)
        return tuple(_as_float(sec.require(axis), f"{path}.{axis}") for axis in "xyz")
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return tuple(_as_float(v, path) for v in value)
    raise SchemaError(f"{path}: expected [x, y, z] or {{x, y, z}}")


def _load_yaml(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"config file not found: {p}")
    try:
        raw = yaml.load(p.read_text(), getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{p}: top level must be a mapping")
    return raw


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripeNode:
    kind: str
    position: tuple


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


@dataclass(frozen=True)
class SubThzConfig:
    fc: float
    bw: float
    num_subcarriers: int


@dataclass(frozen=True)
class AntennaConfig:
    n_antennas: int = 1
    polarization: str = "single"
    pattern: str = "isotropic"


@dataclass(frozen=True)
class EnvironmentConfig:
    room: tuple
    stripe_config: StripeLayout
    radio_stripes: tuple
    ue_positions: tuple
    central_unit_fiber_length: float
    sub_thz: SubThzConfig | None = None
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    sub10ghz: dict = field(default_factory=dict)  # parsed, never used
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


def _parse_node(value, path: str) -> StripeNode:
    sec = _Section(value, path)
    kind = str(sec.require("kind")).lower()
    if kind not in ("central_unit", "radio_unit"):
        raise SchemaError(f"{path}: node kind must be central_unit or radio_unit")
    position = _as_xyz(sec.require("position"), f"{path}.position")
    sec.warn_unknown()
    return StripeNode(kind=kind, position=position)


def load_environment(path) -> EnvironmentConfig:
    """Load and geometry-check environment.yaml."""
    top = _Section(_load_yaml(path), str(path))
    room = _as_xyz(top.require("room"), "room")
    if any(r <= 0 for r in room):
        raise SchemaError("room extents must be positive")

    layout = StripeLayout()
    if top.has("stripe_config"):
        sec = _Section(top.get("stripe_config"), "stripe_config")

        def optional(key, parse):
            return parse(sec.get(key), f"stripe_config.{key}") if sec.has(key) else None

        layout = StripeLayout(
            n_stripes=optional("n_stripes", _as_int),
            n_rus=optional("n_rus", _as_int),
            inter_ru_spacing=optional("inter_ru_spacing", _as_float),
            inter_stripe_spacing=optional("inter_stripe_spacing", _as_float),
            start_position=optional("start_position", _as_xyz),
            end_position=optional("end_position", _as_xyz),
            orientation=optional("orientation", lambda v, _path: str(v).lower()),
        )
        sec.warn_unknown()
        if layout.orientation not in (None, *STRIPE_AXES):
            raise SchemaError(f"stripe_config.orientation {layout.orientation!r}: "
                              f"expected one of x, y, z")
    if layout.n_rus is not None and layout.n_rus < 1:
        raise SchemaError("stripe_config.n_rus must be >= 1")

    stripes = []
    raw_stripes = top.require("radio_stripes")
    if not isinstance(raw_stripes, list) or not raw_stripes:
        raise SchemaError("radio_stripes must be a non-empty list of stripes")
    for si, raw_stripe in enumerate(raw_stripes):
        if not isinstance(raw_stripe, list) or len(raw_stripe) < 2:
            raise SchemaError(f"radio_stripes[{si}] must list a CU followed by >= 1 RU")
        nodes = tuple(_parse_node(n, f"radio_stripes[{si}][{ni}]")
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
    if top.has("stripe_config"):
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
        sec = _Section(top.get("sub_thz"), "sub_thz")
        sub_thz = SubThzConfig(
            fc=_as_float(sec.require("fc"), "sub_thz.fc"),
            bw=_as_float(sec.require("bw"), "sub_thz.bw"),
            num_subcarriers=_as_int(sec.require("num_subcarriers"),
                                    "sub_thz.num_subcarriers"),
        )
        sec.warn_unknown()
        if sub_thz.fc <= 0 or sub_thz.bw <= 0:
            raise SchemaError("sub_thz.fc and sub_thz.bw must be positive")
        if not _is_power_of_two(sub_thz.num_subcarriers):
            raise SchemaError("sub_thz.num_subcarriers must be a power of two")

    antenna = AntennaConfig()
    if top.has("antenna"):
        sec = _Section(top.get("antenna"), "antenna")
        antenna = AntennaConfig(
            n_antennas=_as_int(sec.get("n_antennas", 1), "antenna.n_antennas"),
            polarization=str(sec.get("polarization", "single")),
            pattern=str(sec.get("pattern", "isotropic")).lower(),
        )
        sec.warn_unknown()
        if antenna.n_antennas < 1:
            raise SchemaError("antenna.n_antennas must be >= 1")
        if antenna.polarization.lower() != "single":
            raise UnsupportedModel(f"antenna polarization {antenna.polarization!r}: "
                                   f"only single is supported")
        if antenna.pattern != "isotropic":
            # the channel models assume isotropic elements, so any other
            # pattern would be accepted and then ignored
            raise UnsupportedModel(f"antenna pattern {antenna.pattern!r}: "
                                   f"only isotropic is supported")

    cu_fiber = _as_float(top.require("central_unit_fiber_length"),
                         "central_unit_fiber_length")
    if cu_fiber <= 0:
        raise SchemaError("central_unit_fiber_length must be positive")

    sub10 = top.get("sub10ghz", {}) or {}
    extras = top.warn_unknown()
    return EnvironmentConfig(room=room, stripe_config=layout,
                             radio_stripes=tuple(stripes),
                             ue_positions=tuple(ue_positions),
                             central_unit_fiber_length=cu_fiber,
                             sub_thz=sub_thz, antenna=antenna, sub10ghz=sub10,
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


def load_waveform(path) -> WaveformConfig:
    """Load and schema-check waveform.yaml."""
    top = _Section(_load_yaml(path), str(path))
    wtype = str(top.require("waveform_type")).lower().replace("_", "-")
    if wtype != "cp-ofdm":
        raise UnsupportedModel(f"waveform_type {wtype!r} (only cp-ofdm is implemented)")
    cfg = WaveformConfig(
        waveform_type=wtype,
        n_ofdm_symbols=_as_int(top.require("n_ofdm_symbols"), "n_ofdm_symbols"),
        qam_order=_as_int(top.require("qam_order"), "qam_order"),
        oversampling_factor=_as_int(top.get("oversampling_factor", 1),
                                    "oversampling_factor"),
        cp_length=_as_int(top.get("cp_length", 0), "cp_length"),
        pilot_spacing=_as_int(top.get("pilot_spacing", 8), "pilot_spacing"),
        pilot_mode=str(top.get("pilot_mode", "scattered")).lower(),
        tx_power=_as_float(top.get("tx_power", 0.0), "tx_power"),
        num_subcarriers=(_as_int(top.get("num_subcarriers"), "num_subcarriers")
                         if top.has("num_subcarriers") else None),
    )
    top.warn_unknown()
    if cfg.n_ofdm_symbols < 1:
        raise SchemaError("n_ofdm_symbols must be >= 1")
    if cfg.qam_order not in QAM_ORDERS:
        raise SchemaError(f"qam_order must be one of {QAM_ORDERS} (a power of 4)")
    if cfg.oversampling_factor < 1:
        raise SchemaError("oversampling_factor must be >= 1")
    if cfg.cp_length < 0:
        raise SchemaError("cp_length must be >= 0")
    if cfg.pilot_mode not in PILOT_MODES:
        raise SchemaError(f"pilot_mode must be one of {PILOT_MODES}")
    if cfg.pilot_spacing < 1:
        raise SchemaError("pilot_spacing must be >= 1")
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
    load time.
    """

    model: str = "ideal"
    loss_db: float = 0.0
    file: str | None = None
    network: TwoPortNetwork | None = None
    domain: str = "frequency"
    n_taps: int = 256
    length_m: float = 0.0
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


def _parse_amplifier(sec: _Section) -> AmplifierParams:
    mode = str(sec.get("model", sec.get("mode", "ideal"))).lower()
    if mode not in AMPLIFIER_MODES:
        raise UnsupportedModel(f"{sec.path}: amplifier model {mode!r}")
    coeffs = sec.get("poly_coeffs", [])
    if not isinstance(coeffs, (list, tuple)):
        raise SchemaError(f"{sec.path}.poly_coeffs: expected a list, got {coeffs!r}")
    parsed_coeffs = [_as_complex(c, f"{sec.path}.poly_coeffs[{i}]")
                     for i, c in enumerate(coeffs)]
    params = AmplifierParams(
        gain_db=_as_float(sec.get("gain_db", 0.0), f"{sec.path}.gain_db"),
        mode=mode,
        sat_amplitude=_as_float(sec.get("sat_amplitude", 1.0),
                                f"{sec.path}.sat_amplitude"),
        poly_coeffs=tuple(parsed_coeffs),
        nf_db=_as_float(sec.get("nf_db", 0.0), f"{sec.path}.nf_db"),
        bandwidth=_as_float(sec.get("bandwidth", 0.0), f"{sec.path}.bandwidth"),
        temperature=_as_float(sec.get("temperature", 290.0), f"{sec.path}.temperature"),
    )
    sec.warn_unknown()
    return params


def _parse_linear_element(sec: _Section, base_dir: Path) -> LinearElementSpec:
    model = str(sec.get("model", "ideal")).lower()
    if model not in LINEAR_MODELS:
        raise UnsupportedModel(f"{sec.path}: linear element model {model!r}")
    file_rel = sec.get("file")
    network = None
    if model == "s2p_filter":
        if file_rel is None:
            raise SchemaError(f"{sec.path}: s2p_filter requires a 'file' key")
        network = read_touchstone(base_dir / str(file_rel))
    domain = str(sec.get("domain", "frequency")).lower()
    if domain not in ("frequency", "time"):
        raise UnsupportedMode(f"{sec.path}: application domain {domain!r}")
    spec = LinearElementSpec(
        model=model,
        loss_db=_as_float(sec.get("loss_db", 0.0), f"{sec.path}.loss_db"),
        file=str(file_rel) if file_rel is not None else None,
        network=network,
        domain=domain,
        n_taps=_as_int(sec.get("taps", 256), f"{sec.path}.taps"),
        length_m=_as_float(sec.get("length_m", 0.0), f"{sec.path}.length_m"),
        group_velocity=_as_float(sec.get("group_velocity", 2e8),
                                 f"{sec.path}.group_velocity"),
    )
    sec.warn_unknown()
    if spec.n_taps < 1:
        raise SchemaError(f"{sec.path}: taps must be >= 1")
    return spec


def load_components(path) -> ComponentBank:
    """Load components.yaml; .s2p paths resolve relative to the file."""
    p = Path(path)
    top = _Section(_load_yaml(p), str(p))
    base = p.parent
    kwargs = {}
    if top.has("boost_amplifier"):
        kwargs["boost_amplifier"] = _parse_amplifier(
            _Section(top.get("boost_amplifier"), "boost_amplifier"))
    if top.has("antenna_amplifier"):
        kwargs["antenna_amplifier"] = _parse_amplifier(
            _Section(top.get("antenna_amplifier"), "antenna_amplifier"))
    if top.has("fiber"):
        kwargs["fiber"] = _parse_linear_element(_Section(top.get("fiber"), "fiber"), base)
    if top.has("coupler"):
        kwargs["coupler"] = _parse_linear_element(_Section(top.get("coupler"), "coupler"), base)
    if top.has("dac"):
        sec = _Section(top.get("dac"), "dac")
        mode = str(sec.get("model", sec.get("mode", "quantize" if sec.has("bits") else "ideal"))).lower()
        kwargs["dac"] = DacParams(
            mode=mode,
            bits=_as_int(sec.get("bits", 12), "dac.bits"),
            clip_amplitude=_as_float(sec.get("clip_amplitude", 1.0), "dac.clip_amplitude"),
        )
        sec.warn_unknown()
    if top.has("oscillator"):
        sec = _Section(top.get("oscillator"), "oscillator")
        kwargs["oscillator"] = OscillatorParams(
            mode=str(sec.get("model", sec.get("mode", "ideal"))).lower(),
            cfo_hz=_as_float(sec.get("cfo_hz", 0.0), "oscillator.cfo_hz"),
            ar_rho=_as_float(sec.get("ar_rho", 1.0), "oscillator.ar_rho"),
            innovation_std=_as_float(sec.get("innovation_std", 0.0),
                                     "oscillator.innovation_std"),
            initial_phase=_as_float(sec.get("initial_phase", 0.0),
                                    "oscillator.initial_phase"),
        )
        sec.warn_unknown()
    if top.has("iq_modem"):
        sec = _Section(top.get("iq_modem"), "iq_modem")
        dc = _as_complex(sec.get("dc_offset", 0.0), "iq_modem.dc_offset")
        kwargs["iq_modem"] = IqParams(
            gain_mismatch=_as_float(sec.get("gain_mismatch", 1.0),
                                    "iq_modem.gain_mismatch"),
            phase_mismatch=_as_float(sec.get("phase_mismatch", 0.0),
                                     "iq_modem.phase_mismatch"),
            dc_offset=dc,
        )
        sec.warn_unknown()
    if top.has("calibration"):
        sec = _Section(top.get("calibration"), "calibration")
        kwargs["calibration"] = CalibrationConfig(
            target_power_dbm=_as_float(sec.get("target_power", 0.0),
                                       "calibration.target_power"),
            max_gain_db=_as_float(sec.get("max_gain", 30.0), "calibration.max_gain"),
        )
        sec.warn_unknown()
    if top.has("receiver"):
        sec = _Section(top.get("receiver"), "receiver")
        nf = sec.get("nf_db")
        kwargs["receiver"] = ReceiverConfig(
            nf_db=None if nf is None else _as_float(nf, "receiver.nf_db"),
            temperature=_as_float(sec.get("temperature", 290.0),
                                  "receiver.temperature"),
        )
        sec.warn_unknown()
    top.warn_unknown()
    return ComponentBank(**kwargs)


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple
    warnings: tuple

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_cross(env: EnvironmentConfig, wf: WaveformConfig,
                   comp: ComponentBank, dataset_header=None) -> ValidationReport:
    """Cross-file consistency report; hard errors block simulation.

    ``dataset_header`` (optional) is compared against the environment grid
    (Q, fc, bw). Pure function of its inputs.
    """
    errors: list[ValidationIssue] = []
    warns: list[ValidationIssue] = []

    if env.sub_thz is None and dataset_header is None:
        errors.append(ValidationIssue(
            "MissingGrid",
            "environment carries no sub_thz block and no dataset supplies a grid"))

    q = None
    if env.sub_thz is not None:
        q = env.sub_thz.num_subcarriers
        if dataset_header is not None:
            for attr, name in (("num_subcarriers", "num_subcarriers"),
                               ("fc", "fc"), ("bw", "bw")):
                env_v = getattr(env.sub_thz, attr)
                ds_v = getattr(dataset_header, name)
                if env_v != ds_v:
                    errors.append(ValidationIssue(
                        "GridMismatch",
                        f"environment {name}={env_v} but dataset {name}={ds_v}"))
    elif dataset_header is not None:
        q = dataset_header.num_subcarriers

    if wf.num_subcarriers is not None and q is not None and wf.num_subcarriers != q:
        errors.append(ValidationIssue(
            "GridMismatch",
            f"waveform num_subcarriers={wf.num_subcarriers} differs from grid {q}"))

    if q is not None:
        for problem in _check_against_grid(wf, q):
            errors.append(ValidationIssue("WaveformGrid", problem))
        cp_span = wf.cp_length * wf.oversampling_factor
        for name, element in (("fiber", comp.fiber), ("coupler", comp.coupler)):
            if element.model == "s2p_filter" and element.domain == "time":
                if cp_span < element.n_taps:
                    warns.append(ValidationIssue(
                        "InterSymbolInterferenceRisk",
                        f"{name}: cyclic prefix spans {cp_span} samples but the "
                        f"impulse response keeps {element.n_taps} taps"))

    if dataset_header is not None and env.antenna.n_antennas != dataset_header.n_tx:
        warns.append(ValidationIssue(
            "AntennaCountMismatch",
            f"environment configures {env.antenna.n_antennas} RU antennas but the "
            f"dataset stores n_tx={dataset_header.n_tx}"))

    return ValidationReport(errors=tuple(errors), warnings=tuple(warns))


# ---------------------------------------------------------------------------
# Serialization (round-trip and manifest snapshots)
# ---------------------------------------------------------------------------

def environment_to_dict(env: EnvironmentConfig) -> dict:
    return {
        "room": {"x": env.room[0], "y": env.room[1], "z": env.room[2]},
        # only the keys the config gave: an omitted one stays unchecked
        "stripe_config": {
            key: list(value) if isinstance(value, tuple) else value
            for key in ("n_stripes", "n_rus", "inter_ru_spacing", "inter_stripe_spacing",
                        "start_position", "end_position", "orientation")
            if (value := getattr(env.stripe_config, key)) is not None},
        "radio_stripes": [
            [{"kind": n.kind, "position": list(n.position)} for n in stripe]
            for stripe in env.radio_stripes
        ],
        "ue_positions": [list(p) for p in env.ue_positions],
        **({"sub_thz": {"fc": env.sub_thz.fc, "bw": env.sub_thz.bw,
                        "num_subcarriers": env.sub_thz.num_subcarriers}}
           if env.sub_thz else {}),
        "antenna": {"n_antennas": env.antenna.n_antennas,
                    "polarization": env.antenna.polarization,
                    "pattern": env.antenna.pattern},
        "central_unit_fiber_length": env.central_unit_fiber_length,
        **({"sub10ghz": env.sub10ghz} if env.sub10ghz else {}),
        **env.extras,
    }


def waveform_to_dict(wf: WaveformConfig) -> dict:
    out = {
        "waveform_type": wf.waveform_type,
        "n_ofdm_symbols": wf.n_ofdm_symbols,
        "qam_order": wf.qam_order,
        "oversampling_factor": wf.oversampling_factor,
        "cp_length": wf.cp_length,
        "pilot_spacing": wf.pilot_spacing,
        "pilot_mode": wf.pilot_mode,
        "tx_power": wf.tx_power,
    }
    if wf.num_subcarriers is not None:
        out["num_subcarriers"] = wf.num_subcarriers
    return out


def _amplifier_to_dict(a: AmplifierParams) -> dict:
    out = {"model": a.mode, "gain_db": a.gain_db, "nf_db": a.nf_db,
           "bandwidth": a.bandwidth, "temperature": a.temperature}
    if a.mode in ("tanh", "atan", "soft_limiter"):
        out["sat_amplitude"] = a.sat_amplitude
    if a.mode == "polynomial":
        out["poly_coeffs"] = [[c.real, c.imag] for c in a.poly_coeffs]
    return out


def _element_to_dict(e: LinearElementSpec) -> dict:
    out = {"model": e.model, "domain": e.domain}
    if e.model == "fixed_damping":
        out["loss_db"] = e.loss_db
    if e.model == "s2p_filter":
        out.update(file=e.file, taps=e.n_taps)
    if e.length_m:
        out["length_m"] = e.length_m
    if e.group_velocity != 2e8:
        out["group_velocity"] = e.group_velocity
    return out


def components_to_dict(bank: ComponentBank) -> dict:
    return {
        "boost_amplifier": _amplifier_to_dict(bank.boost_amplifier),
        "antenna_amplifier": _amplifier_to_dict(bank.antenna_amplifier),
        "fiber": _element_to_dict(bank.fiber),
        "coupler": _element_to_dict(bank.coupler),
        "dac": {"model": bank.dac.mode, "bits": bank.dac.bits,
                "clip_amplitude": bank.dac.clip_amplitude},
        "oscillator": {"model": bank.oscillator.mode,
                       "cfo_hz": bank.oscillator.cfo_hz,
                       "ar_rho": bank.oscillator.ar_rho,
                       "innovation_std": bank.oscillator.innovation_std,
                       "initial_phase": bank.oscillator.initial_phase},
        "iq_modem": {"gain_mismatch": bank.iq_modem.gain_mismatch,
                     "phase_mismatch": bank.iq_modem.phase_mismatch,
                     "dc_offset": [bank.iq_modem.dc_offset.real,
                                   bank.iq_modem.dc_offset.imag]},
        "calibration": {"target_power": bank.calibration.target_power_dbm,
                        "max_gain": bank.calibration.max_gain_db},
        "receiver": {"nf_db": bank.receiver.nf_db,
                     "temperature": bank.receiver.temperature},
    }
