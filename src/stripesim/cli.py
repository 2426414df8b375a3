"""Command-line front end.

Subcommands: ``run`` (single link), ``sweep-ru`` (RU-activation heatmap),
``calibrate`` (booster gains), ``inspect-s2p`` (S-parameter CSV export)
and ``gen-channels`` (synthetic CFR1 dataset). All outputs are CSV/JSON.
``run``, ``sweep-ru`` and ``calibrate`` end by writing manifest.json
atomically: the resolved configs, the tool version and, as its flags,
the parsed arguments, so any run can be re-executed exactly.

Exit codes: 0 success, 2 configuration error, 3 runtime error; an output
that cannot be made or written is a runtime error (`IoError`). The log
level comes from the STRIPESIM_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, streams
from .channel import TdlParams
from .config import (_DECIBELS, components_to_dict, environment_to_dict,
                     load_components, load_environment, load_waveform,
                     validate_cross, waveform_to_dict)
from .dataset import generate_synthetic, read_dataset, write_dataset
from .errors import ConfigError, DomainError, IoError, StripeSimError
from .metrics import am_am_extract
from .stripe import _AMPLIFIER_LABEL, build_stripe, calibrate_gains, make_grid, run_link
from .touchstone import MAX_DB, read_touchstone
from .waveform import SubcarrierGrid

log = logging.getLogger("stripesim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fmt(value) -> str:
    """Full round-trip precision for CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextmanager
def _writing(path: Path):
    """Any `OSError` raised in the block, which writes ``path``, as an
    `IoError` naming it."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _make_dir(path: Path) -> Path:
    """``path``, made a directory with any missing parents."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc
    return path


def _write_rows(path: Path, header: list[str], rows):
    """A CSV of ``rows`` as they are: a Python int or float prints as
    `_fmt` would print it."""
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv(path: Path, header: list[str], rows):
    _write_rows(path, header, ([_fmt(v) for v in row] for row in rows))


def _load_configs(args):
    env = load_environment(args.env)
    wf = load_waveform(args.waveform)
    bank = load_components(args.components)
    return env, wf, bank


def _check_counts(args, *names):
    """ConfigError unless each named count flag that was given is at least 1."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _tdl_params(num_subcarriers: int | None, **values) -> TdlParams:
    """TdlParams of CLI values, an omitted one at its default. ConfigError
    unless beta is finite and >= 0 and the tap count lies in 1 ..
    ``num_subcarriers`` (unbounded when None)."""
    try:
        params = TdlParams(**values)
    except DomainError as exc:
        raise ConfigError(f"tdl channel: {exc}") from None
    if num_subcarriers is not None and params.n_taps > num_subcarriers:
        raise ConfigError(f"tdl channel: {params.n_taps} taps exceed the grid's "
                          f"{num_subcarriers} subcarriers")
    return params


# every channel source `--channel` accepts
_CHANNEL_HELP = "los | rayleigh | identity | tdl[:beta[:taps]] | dataset:DIR"


def _resolve_channel_arg(spec: str, env):
    """The channel source ``spec`` names, one of `_CHANNEL_HELP`."""
    if spec.startswith("dataset:"):
        return read_dataset(spec.split(":", 1)[1])
    if spec == "tdl" or spec.startswith("tdl:"):
        parts = spec.split(":")[1:]
        try:
            values = {name: kind(text) for (name, kind), text
                      in zip((("beta", float), ("n_taps", int)), parts)}
        except ValueError:
            values = None
        if values is None or len(parts) > 2:
            raise ConfigError(f"channel {spec!r}: expected tdl[:beta[:taps]] with a "
                              f"number beta and an integer taps")
        return ("tdl", _tdl_params(env.sub_thz and env.sub_thz.num_subcarriers, **values))
    if spec in ("los", "rayleigh", "identity"):
        return spec
    raise ConfigError(f"unknown channel source {spec!r}")


_CONFIG_FLAGS = ("env", "waveform", "components")


def _finish_manifest(args, configs, outputs: list[str], started: float, **resolved):
    """Write manifest.json into ``args.out``, atomically, as a command's last
    step. Its flags are the parsed arguments but the config paths and
    ``--out``; ``resolved`` replaces a flag by the value the command used."""
    env, wf, bank = configs
    flags = {name: value for name, value in vars(args).items()
             if name not in (*_CONFIG_FLAGS, "out", "func")}
    manifest = {
        "tool": "stripesim",
        "version": __version__,
        "config_paths": {name: str(Path(getattr(args, name)).resolve())
                         for name in _CONFIG_FLAGS},
        "configs": {"environment": environment_to_dict(env),
                    "waveform": waveform_to_dict(wf),
                    "components": components_to_dict(bank)},
        "flags": {**flags, **resolved},
        "outputs": outputs,
        "duration_s": time.monotonic() - started,
    }
    path = Path(args.out) / "manifest.json"
    tmp = path.with_name("manifest.json.tmp")
    with _writing(path):
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        tmp.replace(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _metrics_row(result) -> list:
    r = result.metrics
    return [result.stripe_id, result.active_ru, result.ue_index, result.seed,
            result.direction, r.nmse_db, r.sndr_db, r.evm_percent, r.ber, r.n_bits]


_METRICS_HEADER = ["stripe_id", "ru_id", "ue_id", "seed", "direction",
                   "nmse_db", "sndr_db", "evm_percent", "ber", "n_bits"]


def cmd_run(args) -> int:
    started = time.monotonic()
    env, wf, bank = _load_configs(args)
    channel = _resolve_channel_arg(args.channel, env)
    out_dir = _make_dir(Path(args.out))
    result = run_link(env, wf, bank, channel, ue_index=args.ue,
                      stripe_id=args.stripe, active_ru=args.ru,
                      direction=args.direction, seed=args.seed,
                      calibrate=args.calibrate, record_taps=args.taps)
    _write_csv(out_dir / "metrics.csv", _METRICS_HEADER, [_metrics_row(result)])
    outputs = ["metrics.csv"]
    if args.taps:
        outputs += _export_taps(out_dir, result.stage_taps)
    if args.dump_channel:
        outputs.append(_export_channel(out_dir, result.channel))
    _finish_manifest(args, (env, wf, bank), outputs, started)
    log.info("run finished: nmse=%.2f dB ber=%.3g", result.metrics.nmse_db,
             result.metrics.ber)
    return EXIT_OK


def _export_taps(out_dir: Path, stage_taps) -> list[str]:
    """Per-stage waveform dumps plus the stage-wise AM/AM table."""
    outputs = []
    _make_dir(out_dir / "taps")
    for order, (label, _x_in, x_out) in enumerate(stage_taps):
        name = f"taps/{order:02d}_{label}.csv"
        _write_rows(out_dir / name, ["index", "re", "im"],
                    zip(range(x_out.size), x_out.real.tolist(), x_out.imag.tolist()))
        outputs.append(name)
    amp_stages = [t for t in stage_taps if _AMPLIFIER_LABEL.fullmatch(t[0])]
    if amp_stages:
        pairs = am_am_extract(amp_stages)
        n = min(len(x) for _, x, _ in pairs)
        header, columns = [], []
        for idx, (_label, x, y) in enumerate(pairs):
            header += [f"xstage{idx}", f"ystage{idx}"]
            columns += [x[:n], y[:n]]
        rows = np.column_stack(columns)
        _write_csv(out_dir / "am_am.csv", header, (row.tolist() for row in rows))
        outputs.append("am_am.csv")
    return outputs


def _export_channel(out_dir: Path, realization) -> str:
    h = realization.h
    index = np.indices(h.shape).reshape(3, -1).tolist()  # (q, rx, tx), row-major
    _write_rows(out_dir / "channel.csv", ["q", "rx", "tx", "re", "im"],
                zip(*index, h.real.ravel().tolist(), h.imag.ravel().tolist()))
    return "channel.csv"


# ---------------------------------------------------------------------------
# sweep-ru
# ---------------------------------------------------------------------------

_HEATMAP_HEADER = ["ru_id", "stripe_id", "nmse_cu", "sndr_cu", "ber"]


def _sweep_cell(inputs, cell) -> tuple:
    """One (stripe, ru) cell of the sweep whose (env, waveform, components,
    channel source) are ``inputs``; module-level so worker processes can
    import it."""
    env, wf, bank, channel = inputs
    ue, stripe_id, ru_id, direction, master_seed = cell
    cell_seed = streams.derive_seed(master_seed, stripe_id, ru_id)
    result = run_link(env, wf, bank, channel, ue_index=ue, stripe_id=stripe_id,
                      active_ru=ru_id, direction=direction, seed=cell_seed)
    return (ru_id, stripe_id, result.metrics.nmse_db, result.metrics.sndr_db,
            result.metrics.ber)


def cmd_sweep_ru(args) -> int:
    started = time.monotonic()
    _check_counts(args, "jobs")
    env, wf, bank = _load_configs(args)
    channel = _resolve_channel_arg(args.channel, env)
    out_dir = _make_dir(Path(args.out))
    cells = [(args.ue, stripe_id, ru_id, args.direction, args.seed)
             for stripe_id, stripe in enumerate(env.radio_stripes)
             for ru_id in range(len(stripe) - 1)]
    run_cell = functools.partial(_sweep_cell, (env, wf, bank, channel))
    if args.jobs > 1:
        # imported here: it adds ~13 ms to every start of the CLI
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once: no more than there are cells
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(cells))) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = list(map(run_cell, cells))
    # both maps keep the cells' (stripe_id, ru_id) order
    _write_csv(out_dir / "heatmap.csv", _HEATMAP_HEADER, [list(r) for r in rows])
    _finish_manifest(args, (env, wf, bank), ["heatmap.csv"], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    started = time.monotonic()
    env, wf, bank = _load_configs(args)
    validate_cross(env, wf, bank)
    grid = make_grid(env, wf)
    target = bank.calibration.target_power_dbm if args.target_dbm is None \
        else _DECIBELS(args.target_dbm, "--target-dbm")
    max_gain = bank.calibration.max_gain_db if args.max_gain is None \
        else _DECIBELS(args.max_gain, "--max-gain")
    out_dir = _make_dir(Path(args.out))
    rows = []
    for stripe_id in range(env.n_stripes):
        topology = build_stripe(env, bank, stripe_id, grid, wf)
        result = calibrate_gains(topology, target, max_gain, seed=args.seed)
        for ru_id, (gain, clipped) in enumerate(zip(result.gains_db, result.clipped)):
            rows.append([stripe_id, ru_id, gain, clipped])
    _write_csv(out_dir / "gains.csv",
               ["stripe_id", "ru_id", "gain_db", "clipped"], rows)
    _finish_manifest(args, (env, wf, bank), ["gains.csv"], started,
                     target_dbm=target, max_gain=max_gain)
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect-s2p
# ---------------------------------------------------------------------------

def cmd_inspect_s2p(args) -> int:
    net = read_touchstone(args.file)
    # downstream plots apply 10*log10 to a linear "magnitude" column; the
    # flag picks whether that column holds |S21|^2 (power, exact dB) or
    # |S21| (voltage, as some measurement exports store it); either is
    # held to the floor of every dB value, -MAX_DB dB, so a zero has a log
    if args.magnitude == "power":
        mag_db = 10.0 * np.log10(np.maximum(np.abs(net.s21) ** 2, 10.0 ** (-MAX_DB / 10.0)))
    else:
        mag_db = 10.0 * np.log10(np.maximum(np.abs(net.s21), 10.0 ** (-MAX_DB / 20.0)))
    phase = np.degrees(np.angle(net.s21))
    rows = [[f, m, p] for f, m, p in zip(net.freqs, mag_db, phase)]
    out = Path(args.out)
    _make_dir(out.parent)
    _write_csv(out, ["frequency_hz", "magnitude_db", "phase_deg"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-channels
# ---------------------------------------------------------------------------

def cmd_gen_channels(args) -> int:
    _check_counts(args, "n_tx", "n_rx", "taps_l")
    for flag, value in (("--beta", args.beta), ("--taps-l", args.taps_l)):
        if value is not None and args.model != "tdl":
            raise ConfigError(f"{flag} applies only to --model tdl, not {args.model}")
    env = load_environment(args.env)
    if env.sub_thz is None:
        raise ConfigError("environment carries no sub_thz grid block")
    grid = SubcarrierGrid(env.sub_thz.fc, env.sub_thz.bw,
                          env.sub_thz.num_subcarriers, 1)
    params = None
    if args.model == "tdl":
        tdl = {"beta": args.beta, "n_taps": args.taps_l}
        params = _tdl_params(grid.num_subcarriers,
                             **{name: value for name, value in tdl.items() if value is not None})
    dataset = generate_synthetic(env, grid, model=args.model, seed=args.seed,
                                 tdl_params=params, n_tx=args.n_tx,
                                 n_rx=args.n_rx)
    write_dataset(dataset, args.out)
    log.info("wrote %d UE channel files to %s", len(dataset.ues), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripesim",
        description="Hardware-aware sub-THz radio-stripe link simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_configs(p):
        p.add_argument("--env", required=True, help="environment.yaml")
        p.add_argument("--waveform", required=True, help="waveform.yaml")
        p.add_argument("--components", required=True, help="components.yaml")

    p_run = sub.add_parser("run", help="single end-to-end link")
    add_configs(p_run)
    p_run.add_argument("--channel", default="los", help=_CHANNEL_HELP)
    p_run.add_argument("--ue", type=int, default=0)
    p_run.add_argument("--stripe", type=int, default=0)
    p_run.add_argument("--ru", type=int, required=True)
    p_run.add_argument("--direction", choices=("dl", "ul"), default="dl")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--taps", action="store_true", help="export stage taps")
    p_run.add_argument("--calibrate", action="store_true",
                       help="run booster gain calibration first")
    p_run.add_argument("--dump-channel", action="store_true")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-ru", help="activate every RU in turn")
    add_configs(p_sweep)
    p_sweep.add_argument("--channel", default="los", help=_CHANNEL_HELP)
    p_sweep.add_argument("--ue", type=int, default=0, help="UE index of every cell")
    p_sweep.add_argument("--direction", choices=("dl", "ul"), default="ul",
                         help="link direction of every cell")
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="master seed; each (stripe, RU) cell derives its own")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes; the heatmap is the same for any count")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep_ru)

    p_cal = sub.add_parser("calibrate", help="booster gain calibration")
    add_configs(p_cal)
    p_cal.add_argument("--target-dbm", type=float, default=None)
    p_cal.add_argument("--max-gain", type=float, default=None)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_s2p = sub.add_parser("inspect-s2p", help="dump S21 as CSV")
    p_s2p.add_argument("--file", required=True)
    p_s2p.add_argument("--magnitude", choices=("power", "voltage"),
                       default="power",
                       help="what magnitude_db holds: power writes 10 log10|S21|^2, "
                            "the power gain in dB; voltage writes 10 log10|S21|, half "
                            "of that")
    p_s2p.add_argument("--out", required=True)
    p_s2p.set_defaults(func=cmd_inspect_s2p)

    p_gen = sub.add_parser("gen-channels", help="synthesize a CFR1 dataset")
    p_gen.add_argument("--env", required=True)
    p_gen.add_argument("--model", default="los", help="los | tdl")
    p_gen.add_argument("--beta", type=float, help="tdl only; default 0.5")
    p_gen.add_argument("--taps-l", type=int, help="tdl only; default 8 taps")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n-tx", type=int, default=4)
    p_gen.add_argument("--n-rx", type=int, default=4)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_channels)
    return parser


def _log_level() -> int:
    """The level STRIPESIM_LOG names (WARNING when unset)."""
    name = os.environ.get("STRIPESIM_LOG", "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError(f"STRIPESIM_LOG={name!r} is not a log level; use one of "
                          f"DEBUG, INFO, WARNING, ERROR or CRITICAL")
    return level


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        logging.basicConfig(level=_log_level(), format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except ConfigError as exc:
        print(f"stripesim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StripeSimError as exc:
        print(f"stripesim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("unhandled failure")
        print(f"stripesim: internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
