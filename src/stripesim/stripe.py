"""Stripe assembly, booster gain calibration, and end-to-end propagation.

Downlink: the CU chain (DAC -> IQ/oscillator -> PA) feeds the first fiber
segment; every RU before the active one boosts in-line (input coupler ->
booster -> output coupler); the active RU splits across its antenna
branches, phase shifts, amplifies per branch and radiates. The wireless
hop applies the per-subcarrier channel in the resource-grid domain and
adds the receiver noise floor. Uplink mirrors the chain back to the CU.
`_walk_stages`, the single description of a walk, lists its stages in
order; `_run_stages` runs every such list, and each element of
calibration's trunk, whose boosters calibration meters itself. A linear
walk (``propagate_downlink(..., linear_only=True)``) is that same walk on
the stripe's ideal-hardware twin (`_ideal_twin`): its bank swapped for an
ideal DAC, IQ mixer and oscillator and noiseless ideal amplifiers at the
same gains, so no stage has a second mode. `build_stripe` turns each
fiber segment's length into a delay in samples once, and every walk,
linear walks and calibration included, prepends it in the same way and
counts it in the chain's ``offset``.

Exactly one RU is active per run. Every component draws from its own
random stream keyed by (seed, stripe, node, tag), so results are
independent of evaluation order; (configs, seed) fully determine every
output bit. The same keying is why a link may make all its Gaussian
draws ahead of the stages that add them, on one helper thread: a draw
depends on its stream and its shape, never on the signal.

Buffers. One rule: a walk fills each input it is given once into a bare
sample array, and every stage then writes its output over its input. A
`TimeWaveform` is met only at the walk's public edges, where
`_check_rate` holds each input to the stripe grid. The arrays live in
the calling thread's workspace (`_workspace`): the walk's input
is the trunk, each later uplink branch the branch, and the noise ring
of two rows is there too (`_NoiseAhead`: a draw's rows come back as
soon as its noise is added), so a warm link holds four waveform-sized
workspace arrays. A workspace keeps one array per name, for the last
shape asked for, and the next walk on the thread overwrites it. One
fill step, `_fill`, writes each input into its array: it copies a
caller's waveform in, or synthesizes a (Q, S) symbol grid there, which
is how `run_link` makes each uplink branch without a waveform of its
own. A delay or a time-domain convolution makes a fresh array, which
is the walk's as well; a frequency-domain filter transforms each symbol
in place, so no stage keeps a scratch spectrum. Whatever leaves a walk
is a copy by default: each downlink branch and the uplink output, so
no later walk touches them or any `LinkResult` array, and the arrays a
walk is given are never written; `run_link` instead demodulates each
straight from the walk's array (the walks' ``consume``). Recording
taps changes no buffer: `_run_stages` copies each stage's input and
output as it goes.
Calibration walks its own fresh reference and touches no workspace
array. A link holds each large array only while a stage reads it: the
downlink lets its input go once it is copied, and the uplink takes each
branch only when its antenna amplifier needs it. A waveform the link
drops right after demodulation (each downlink branch, the uplink's UE
transmit waveform and the walk's CU output) is demodulated in place
(`extract_symbols(..., in_place=True)`), so it costs no spectrum. The
downlink's air hop writes its (Q, n_rx, S) grid over the branch grids'
own buffer when 1 < n_rx <= n_tx (`apply_channel(..., out=)`), so the
link makes no second grid; with one receive antenna, or more receive
than transmit antennas, it makes a fresh one.
A workspace also keeps the record of the thread's last downlink
`run_link` (`_TrunkRecord`): the trunk after the active RU's input
coupler, which is the workspace's trunk unless a stage made a fresh
array, and the link's calibration. The next downlink link without taps,
with the same config objects, grid, stripe, seed and calibrate flag and
an RU at or beyond the record's, resumes it: it reuses the calibration,
makes no transmit waveform and runs only the stages after that coupler,
as `_plan_walk` lists them once, so its bits are those of a walk from
the start. `_start_walk` drops the record once, after its argument
checks and before the walk writes anything.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import components as comp
from . import streams
from .channel import (ChannelRealization, add_awgn, add_thermal_noise,
                      apply_channel, bulk_delay, identity_channel, model_channel,
                      timing_advance)
from .config import (MAX_LINK_SAMPLES, ComponentBank, EnvironmentConfig,
                     LinearElementSpec, WaveformConfig, validate_cross)
from .dataset import CfrDatasetReader, array_geometry
from .errors import (CalibrationInfeasible, ConfigError, GridMismatch, LengthError,
                     TruncationWarning)
from .metrics import MetricReport, estimate_channel, report
from .touchstone import interpolate_s21, to_impulse_response
from .waveform import (ResourceGrid, SubcarrierGrid, TimeWaveform, _power_scale,
                       build_resource_grid, extract_symbols, map_qam,
                       ofdm_modulate, pilot_mask, pilot_sequence,
                       synthesize_symbols)

CU_NODE = 0  # node ids within a stripe: CU = 0, RU i = i + 1


def make_grid(env: EnvironmentConfig, wf: WaveformConfig,
              dataset_header=None) -> SubcarrierGrid:
    """Subcarrier grid from the environment (or dataset) plus oversampling.

    Raises `ConfigError` when a link on this grid would make an array of
    more than `MAX_LINK_SAMPLES`, before any walk is planned.
    """
    if env.sub_thz is not None:
        fc, bw, q = env.sub_thz.fc, env.sub_thz.bw, env.sub_thz.num_subcarriers
    elif dataset_header is not None:
        fc, bw, q = dataset_header.fc, dataset_header.bw, dataset_header.num_subcarriers
    else:
        raise ConfigError("no sub_thz block in the environment and no dataset grid")
    n_elements = (env.antenna.n_antennas if dataset_header is None
                  else max(dataset_header.n_tx, dataset_header.n_rx))
    s = wf.n_ofdm_symbols
    # not `build_stripe`'s bound twice: a waveform this long overflows its float delay sums
    for what, size in (("subcarriers x antennas x symbols", q * n_elements * s),
                       ("waveform samples", s * (q + wf.cp_length) * wf.oversampling_factor)):
        if size > MAX_LINK_SAMPLES:
            raise ConfigError(f"a link would hold {size} {what}, more than the "
                              f"{MAX_LINK_SAMPLES} one array may hold")
    return SubcarrierGrid(fc=fc, bw=bw, num_subcarriers=q,
                          oversampling=wf.oversampling_factor)


def _prepare_element(spec: LinearElementSpec, grid: SubcarrierGrid,
                     name: str) -> comp.LinearElementParams:
    """Materialize the config's element block ``name`` onto the run's
    oversampled band."""
    if spec.model != "s2p_filter":
        return comp.LinearElementParams(model=spec.model, loss_db=spec.loss_db,
                                        domain=spec.domain)
    expanded = grid.expanded()
    fr = interpolate_s21(spec.network, expanded)
    response = impulse = None
    if spec.domain == "frequency":
        response = fr
    else:
        impulse = to_impulse_response(fr, min(spec.n_taps, expanded.num_subcarriers))
        if impulse.captured_energy < 0.99:
            full = to_impulse_response(fr, expanded.num_subcarriers).h
            energy = np.cumsum(np.abs(full) ** 2)
            need = int(np.searchsorted(energy, 0.99 * energy[-1])) + 1
            warnings.warn(
                f"{name}.taps: {impulse.n_taps} taps keep only "
                f"{impulse.captured_energy:.4f} of the response energy; 0.99 "
                f"needs {need} of {expanded.num_subcarriers}", TruncationWarning, stacklevel=2)
    return comp.LinearElementParams(model="s2p_filter", loss_db=spec.loss_db,
                                    domain=spec.domain, response=response,
                                    impulse=impulse)


@dataclass(frozen=True)
class StripeTopology:
    """One stripe with prepared component templates.

    ``fiber_delays[i]`` is the delay in samples of the segment feeding
    RU i (segment 0 is the CU fiber): its length over the fiber's group
    velocity at the grid's sample rate where the fiber convolves, else 0.
    ``booster_gains_db`` overrides the configured booster gain when
    calibration ran.
    """

    stripe_id: int
    fiber_delays: tuple
    grid: SubcarrierGrid
    wf: WaveformConfig
    bank: ComponentBank
    fiber: comp.LinearElementParams
    coupler: comp.LinearElementParams
    n_antennas: int
    booster_gains_db: tuple | None = None

    @property
    def n_rus(self) -> int:
        return len(self.fiber_delays)

    def booster_params(self, ru_index: int) -> comp.AmplifierParams:
        params = self.bank.boost_amplifier
        if self.booster_gains_db is not None:
            params = replace(params, gain_db=self.booster_gains_db[ru_index])
        return params

    def with_gains(self, gains_db) -> "StripeTopology":
        return replace(self, booster_gains_db=tuple(gains_db))


def build_stripe(env: EnvironmentConfig, bank: ComponentBank, stripe_id: int,
                 grid: SubcarrierGrid, wf: WaveformConfig) -> StripeTopology:
    """Assemble the stripe: fiber segment delays, component templates."""
    _cu, *rus = env.stripe_nodes(stripe_id)
    lengths = [env.central_unit_fiber_length]
    for prev, nxt in zip(rus[:-1], rus[1:]):
        seg = float(np.linalg.norm(np.asarray(nxt.position) - np.asarray(prev.position)))
        if seg <= 0:
            raise ConfigError(f"stripe {stripe_id}: coincident RU positions")
        lengths.append(seg)
    delays = [0.0] * len(lengths)
    if _convolves(bank.fiber):
        delays = [length / bank.fiber.group_velocity * grid.sample_rate for length in lengths]
    # each fiber segment a walk crosses prepends its delay
    size = wf.n_ofdm_symbols * (grid.n_fft + wf.cp_length * grid.oversampling) + sum(delays)
    if size > MAX_LINK_SAMPLES:
        raise ConfigError(f"with its fiber delays a link would hold {size:.4g} waveform "
                          f"samples, more than the {MAX_LINK_SAMPLES} one array may hold")
    return StripeTopology(
        stripe_id=stripe_id,
        fiber_delays=tuple(map(round, delays)),
        grid=grid, wf=wf, bank=bank,
        fiber=_prepare_element(bank.fiber, grid, "fiber"),
        coupler=_prepare_element(bank.coupler, grid, "coupler"),
        n_antennas=env.antenna.n_antennas,
    )


# ---------------------------------------------------------------------------
# Chain propagation machinery
# ---------------------------------------------------------------------------

class _Workspace(threading.local):
    """Arrays that walks overwrite link after link; each name keeps only
    the array of the last shape asked for. ``record`` is the thread's
    `_TrunkRecord`, or None once a walk has dropped it. Each thread sees
    its own workspace, made on its first use: links on one thread run one
    at a time, so they can share it; links on other threads never see it."""

    def __init__(self):
        self._arrays = {}
        self.record = None

    def get(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


_workspace = _Workspace()


@dataclass
class _TrunkRecord:
    """A downlink link's walk as `run_link` keeps it on the thread's
    workspace, for the next link there to resume.

    ``key`` is the link's (env, wf_cfg, bank, grid, stripe_id, seed,
    calibrate) and ``calibration`` its result. Once the walk has run its
    trunk, ``x`` holds the samples after stage ``ru{depth}_coupler_in``
    and ``offset`` the delay they carry; in a walk that neither delays nor
    convolves ``x`` is the workspace's own trunk, so keeping it costs no
    memory.
    """

    key: tuple
    calibration: CalibrationResult | None
    depth: int = -1
    x: np.ndarray | None = None
    offset: int = 0


def _resumable(key: tuple, active_ru: int) -> _TrunkRecord | None:
    """The thread's record if a downlink link of ``key`` to RU ``active_ru``
    may resume it: the same configs (the same objects), grid, stripe, seed
    and calibrate flag, walked to this RU or short of it. Up to there that
    walk ran the stages this one would, on the same input and streams."""
    record = _workspace.record
    if (record is not None and record.depth <= active_ru
            and all(a is b for a, b in zip(key[:3], record.key[:3]))
            and key[3:] == record.key[3:]):
        return record
    return None


@dataclass
class _Chain:
    """Mutable propagation state: samples, accumulated delay, noise.

    ``x`` is the walk's sample array at the current stage. A stage method
    writes its output over its input array, which is the walk's own (see
    Buffers above), and returns it; an element that delays or convolves
    returns a fresh array. `_run_stages` stores each output as ``x``.
    """

    x: np.ndarray
    cp_samples: int
    n_fft: int
    offset: int = 0  # samples the walk's elements prepended
    noise: _NoiseAhead | None = None  # set for every walk; calibration runs no amplifier

    def element(self, x: np.ndarray, params: comp.LinearElementParams,
                delay: int) -> np.ndarray:
        """The element's output, behind ``delay`` prepended zero samples."""
        if params.model == "fixed_damping":
            out = np.multiply(x, params.amplitude, out=x)
        elif params.model == "s2p_filter" and params.domain == "frequency":
            out = self._fd_filter(x, params.fft_response)
        else:
            out = comp.linear_element_process(x, params)
        if delay:
            out = np.concatenate([np.zeros(delay, dtype=np.complex128), out])
            self.offset += delay
        return out

    def _fd_filter(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Per-symbol circular filtering of ``x`` in place with the
        FFT-ordered response ``h``; the CP is rebuilt from the filtered
        tail so the stream stays a valid CP-OFDM signal."""
        cp = self.cp_samples
        frame = self.n_fft + cp
        n_sym = (x.size - self.offset) // frame
        if n_sym == 0:
            return x
        seg = x[self.offset:self.offset + n_sym * frame].reshape(n_sym, frame)
        body = seg[:, cp:]
        np.fft.fft(body, axis=1, out=body)
        body *= h
        np.fft.ifft(body, axis=1, out=body)
        if cp:
            seg[:, :cp] = seg[:, -cp:]
        return x

    def amplifier(self, x: np.ndarray, params: comp.AmplifierParams,
                  rng: np.random.Generator) -> np.ndarray:
        return comp.amplifier_process(x, params, self.noise.source(rng), out=x)

    def dac(self, x: np.ndarray, params: comp.DacParams) -> np.ndarray:
        return comp.dac_process(x, params, out=x)

    def iq_mix(self, x: np.ndarray, params: comp.IqParams, osc: comp.Oscillator,
               downmix: bool = False) -> np.ndarray:
        # an ideal oscillator's track is all zeros: one phase stands for it
        phases = 0.0 if osc.params.mode == "ideal" else osc.phases(x.size)
        if downmix:
            phases = -phases
        return comp.iq_modem_process(x, params, phases, out=x)


class _Drawn(comp._DrawnNoise):
    """The noise one stage draws, made ahead on the helper thread; stands
    in for the stage's generator in `comp.amplifier_process` and
    `comp.add_complex_noise`. ``z`` is the drawn array, or the pair of
    its two halves when they sit in two ring rows. `_NoiseAhead.source`
    waits for the draw before it hands it out. The stage calls `spent`
    once it has added the noise, and `spent` calls ``release`` once: from
    then on the ring may draw over the draw's rows."""

    def __init__(self, size: tuple, future, z, release):
        self._size = size
        self._future = future
        self._z = z
        self._release = release

    def spent(self):
        release, self._release = self._release, None
        if release is not None:
            release()

    def wait(self):
        self._future.result()

    def standard_normal(self, size):
        if size != self._size:
            raise LengthError(f"noise was drawn ahead for shape {self._size}, "
                              f"the stage asks for {size}")
        return self._z


def _draw_into(rng: np.random.Generator, rows: list):
    """Fill ``rows`` in turn from ``rng``: the numbers of one draw of
    their stacked shape."""
    for row in rows:
        rng.standard_normal(out=row)


class _NoiseAhead:
    """Draws a link's Gaussian noise ahead of the stages that add it.

    ``draws`` lists (rng, shape) of every draw in the order the link
    consumes them, and ``stages`` the walk's stages that `_plan_walk`
    sized them from; the walk runs those very stages, so each owns the
    generator its draw names. One helper thread makes the draws in order
    into a ring of ``AHEAD + 1`` = 2 workspace rows. A waveform draw,
    shaped (2, length), fills one row; the over-the-air draw, shaped (2,)
    + a resource grid, fills one row with each half, so the ring needs
    at least two rows. The lookahead counts rows: the rows of the draw in
    use and of the draws made ahead of it are at most ``AHEAD + 1``. A
    draw is in use from `source` until its stage has added its noise
    (`_Drawn.spent`), so a row is drawn into again only once its numbers
    are dead, and no stage reads a draw as scratch. Each stage adds its
    draw before the next one asks for its own, so the rows come back in
    the order they were drawn into. While a stage adds one waveform draw,
    the helper makes the next, and it starts on the one after as soon as
    the add is done; each row more would cost a waveform buffer.
    `Generator.standard_normal` releases the GIL, and the helper runs
    nothing else. The thread lives only inside the ``with`` block, so
    none outlives a link (sweep workers are forked between links), and
    leaving the block waits for a draw in progress, so no row is written
    after.
    """

    AHEAD = 1

    def __init__(self, draws: list, stages=None):
        self.stages = stages
        self._draws = draws
        self._rows = []  # the ring rows each draw fills
        self._next = 0  # index of the next draw to submit
        self._queued = deque()
        self._held = 0  # ring rows of the draw in use and the queued ones
        self._pool = None

    def __enter__(self) -> "_NoiseAhead":
        if self._draws:
            self._rows = self._assign_rows(_workspace)
            self._pool = ThreadPoolExecutor(max_workers=1)
            self._fill()
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def _assign_rows(self, ws: _Workspace) -> list:
        """The arrays each draw is made into, ring row after ring row: one
        row for a waveform draw, one per half for the over-the-air draw."""
        parts = [[shape] if len(shape) == 2 else [shape[1:]] * 2
                 for _rng, shape in self._draws]
        n_rows = sum(len(part) for part in parts)
        width = max(math.prod(shape) for part in parts for shape in part)
        ring = ws.get("noise_ring", (min(n_rows, self.AHEAD + 1), width), np.float64)
        row = itertools.count()
        return [[ring[next(row) % len(ring), :math.prod(shape)].reshape(shape)
                 for shape in part] for part in parts]

    def _fill(self):
        """Submit the next draws while their rows fit in the ring."""
        while self._next < len(self._draws):
            rows = self._rows[self._next]
            if self._held + len(rows) > self.AHEAD + 1:
                return
            rng, shape = self._draws[self._next]
            future = self._pool.submit(_draw_into, rng, rows)
            z = rows[0] if len(rows) == 1 else tuple(rows)
            release = functools.partial(self._hand_back, len(rows))
            self._queued.append((rng, _Drawn(shape, future, z, release)))
            self._held += len(rows)
            self._next += 1

    def _hand_back(self, n_rows: int):
        """Free the ``n_rows`` rows of a draw whose noise is added, and
        submit the draws that now fit in the ring."""
        self._held -= n_rows
        self._fill()

    def source(self, rng: np.random.Generator):
        """The draw made ahead for the stage that owns ``rng``, once it is
        made, or ``rng`` itself when no draw was planned for it (a
        noiseless amplifier)."""
        if not self._queued or self._queued[0][0] is not rng:
            return rng
        _rng, drawn = self._queued.popleft()
        drawn.wait()
        return drawn


def _convolves(params) -> bool:
    """Whether the element (its `LinearElementParams` or its config) filters
    in the time domain: the one element whose output sample depends on
    earlier symbols, and that delays."""
    return params.model == "s2p_filter" and params.domain == "time"


def _trunk(top: StripeTopology, n_boosted: int, stream) -> list:
    """The trunk in downlink order, up to the fiber that feeds RU
    ``n_boosted`` (if the stripe has that RU): each RU before it sits in
    line as input coupler, booster and output coupler. ``stream(node,
    tag)`` gives each booster its random stream; each fiber carries its
    segment's delay, and a coupler none."""
    stages = []
    for i in range(min(n_boosted + 1, top.n_rus)):
        stages.append((f"fiber{i}", top.fiber, top.fiber_delays[i]))
        if i < n_boosted:
            stages += [(f"ru{i}_coupler_in", top.coupler, 0),
                       (f"ru{i}_booster", top.booster_params(i), stream(i + 1, "booster")),
                       (f"ru{i}_coupler_out", top.coupler, 0)]
    return stages


# the label of every amplifier stage a walk runs, in either direction
_AMPLIFIER_LABEL = re.compile(r"cu_pa|cu_rx_amp|ru\d+_booster|ru\d+_antenna_amp\d+")


def _walk_stages(top: StripeTopology, active_ru: int, stream, direction: str) -> list:
    """Every stage of one walk, in walk order: the one description of what
    a walk runs. A stage is (label, params, arg); ``arg`` is an element's
    delay in samples, an amplifier's random stream, the IQ mixer's
    (oscillator, downmix) or None, and ``stream(node, tag)`` gives each
    component its stream. The antenna amplifiers run one per branch: last
    on downlink, after the split, and first on uplink, before the sum."""
    bank = top.bank
    dl = direction == "dl"
    osc = comp.Oscillator(bank.oscillator, top.grid.sample_rate,
                          stream(CU_NODE, "oscillator" if dl else "oscillator_rx"))
    # the active RU's coupler joins the trunk to its antennas
    trunk = _trunk(top, active_ru, stream) + [
        (f"ru{active_ru}_coupler_{'in' if dl else 'out'}", top.coupler, 0)]
    antennas = [(f"ru{active_ru}_antenna_amp{b}", bank.antenna_amplifier,
                 stream(active_ru + 1, f"antenna_amp{b}")) for b in range(top.n_antennas)]
    if dl:
        return [("cu_dac", bank.dac, None), ("cu_iq", bank.iq_modem, (osc, False)),
                ("cu_pa", bank.boost_amplifier, stream(CU_NODE, "pa")), *trunk, *antennas]
    return [*antennas, *trunk[::-1], ("cu_rx_iq", bank.iq_modem, (osc, True)),
            ("cu_rx_amp", bank.boost_amplifier, stream(CU_NODE, "lna"))]


def _run_stages(chain: _Chain, stages, taps: list | None = None):
    """Apply ``stages`` to ``chain`` in order: the one runner of every walk.
    With a ``taps`` list, each stage also appends (label, input, output)
    as copies, so a recorded array keeps its value; within one call, an
    input is the copy of the output before it."""
    x_in = None
    for label, params, arg in stages:
        x = chain.x
        if taps is not None and x_in is None:
            x_in = x.copy()
        if isinstance(params, comp.LinearElementParams):
            out = chain.element(x, params, arg)
        elif isinstance(params, comp.AmplifierParams):
            out = chain.amplifier(x, params, arg)
        elif isinstance(params, comp.DacParams):
            out = chain.dac(x, params)
        else:  # the IQ mixer
            out = chain.iq_mix(x, params, *arg)
        chain.x = out
        if taps is not None:
            taps.append((label, x_in, out.copy()))
            x_in = taps[-1][2]


def _noise_draws(stages, length: int) -> list:
    """(rng, shape) of every noisy amplifier in ``stages``, in walk order,
    sized by the waveform length each one sees."""
    draws = []
    for _label, params, arg in stages:
        if isinstance(params, comp.LinearElementParams):
            length += arg  # the delay the element prepends
        elif isinstance(params, comp.AmplifierParams) and comp.noise_power(
                params.nf_db, params.bandwidth, params.temperature) > 0.0:
            draws.append((arg, (2, length)))
    return draws


def _plan_walk(top: StripeTopology, active_ru: int, seed: int, direction: str,
               length: int, resume: _TrunkRecord | None = None) -> tuple:
    """(stages, draws) of one walk on ``length`` input samples, or of a
    downlink walk resumed from ``resume`` on its samples: the only list of
    the walk's stages, cut after ``resume``'s ``ru{depth}_coupler_in``,
    and the noise draws of those stages, from their own generators. On
    a calibrated ``top`` the boosters carry the calibrated gains."""
    stages = _walk_stages(top, active_ru,
                          functools.partial(streams.stream, seed, top.stripe_id), direction)
    if resume is not None:
        label = f"ru{resume.depth}_coupler_in"
        stages = stages[1 + next(i for i, stage in enumerate(stages) if stage[0] == label):]
        length = resume.x.size
    return stages, _noise_draws(stages, length)


def _check_rate(top: StripeTopology, x):
    """GridMismatch unless waveform ``x`` is sampled at the stripe grid's
    rate; a symbol grid is synthesized at that rate."""
    if isinstance(x, TimeWaveform) and x.sample_rate != top.grid.sample_rate:
        raise GridMismatch(f"input sampled at {x.sample_rate} Hz, the stripe "
                           f"grid at {top.grid.sample_rate} Hz")


def _fill(top: StripeTopology, name: str, x) -> np.ndarray:
    """The thread's workspace array ``name``, filled with walk input ``x``:
    a copy of a waveform's samples, or a (Q, S) symbol grid synthesized
    straight into it."""
    _check_rate(top, x)
    if isinstance(x, TimeWaveform):
        out = _workspace.get(name, x.samples.shape)
        np.copyto(out, x.samples)
        return out
    if x.ndim != 2 or x.shape[0] != top.grid.num_subcarriers:
        raise LengthError(f"a symbol grid must be (Q, S) with Q = "
                          f"{top.grid.num_subcarriers}, got shape {x.shape}")
    cp = top.wf.cp_length
    size = x.shape[1] * (top.grid.n_fft + cp * top.grid.oversampling)
    return synthesize_symbols(x, top.grid, cp, out=_workspace.get(name, (size,)))


def _start_walk(top: StripeTopology, inputs, active_ru: int, beam_phases,
                seed: int, direction: str, noise: _NoiseAhead | None,
                resume: _TrunkRecord | None = None):
    """Check a walk's arguments, then drop the thread's trunk record,
    which the walk may write over; return its phases, chain and noise
    stream: ``noise`` itself, or one planned for the walk (`_plan_walk`).
    ``inputs`` are the inputs the walk has in hand; its chain starts on
    the first, filled into the workspace's trunk (`_fill`), or on the
    samples of the trunk it resumes."""
    if not 0 <= active_ru < top.n_rus:
        raise ConfigError(f"active_ru {active_ru} out of range [0, {top.n_rus})")
    for x in inputs:
        _check_rate(top, x)
    beam_phases = np.asarray(beam_phases, dtype=np.float64)
    if beam_phases.size != top.n_antennas:
        raise LengthError("one beam phase per antenna branch required")
    _workspace.record = None
    chain = _Chain(x=_fill(top, "trunk", inputs[0]) if resume is None else resume.x,
                   cp_samples=top.wf.cp_length * top.grid.oversampling,
                   n_fft=top.grid.n_fft,
                   offset=0 if resume is None else resume.offset)
    if noise is not None:
        return beam_phases, chain, nullcontext(noise)
    stages, draws = _plan_walk(top, active_ru, seed, direction, chain.x.size, resume)
    return beam_phases, chain, _NoiseAhead(draws, stages)


def _ideal_twin(top: StripeTopology) -> StripeTopology:
    """The same stripe with a noiseless, ideal-hardware bank: an ideal DAC,
    IQ mixer and oscillator, and each amplifier ideal at its gain, so a
    calibrated stripe's booster gains carry over (`booster_params`)."""
    bank = top.bank
    return replace(top, bank=replace(
        bank, dac=comp.DacParams(), iq_modem=comp.IqParams(), oscillator=comp.OscillatorParams(),
        boost_amplifier=comp.AmplifierParams(gain_db=bank.boost_amplifier.gain_db),
        antenna_amplifier=comp.AmplifierParams(gain_db=bank.antenna_amplifier.gain_db)))


def propagate_downlink(top: StripeTopology, wf_in: TimeWaveform, active_ru: int,
                       beam_phases, seed: int, record_taps: bool = False,
                       linear_only: bool = False, *, noise: _NoiseAhead | None = None,
                       consume=None, trunk_record: _TrunkRecord | None = None):
    """CU chain -> trunk -> active-RU front end; returns what ``consume``
    made of each antenna branch's air waveform, together with the tap
    list and the accumulated delay.

    The branches are made one at a time. ``consume(b, branch, offset)``
    gets the samples of branch ``b`` as soon as its antenna amplifier
    returns, in an array the next branch overwrites, and ``offset`` is the
    delay the walk prepended; by default it returns a copy as a
    `TimeWaveform` at the grid rate. ``noise`` is the running noise
    stream of the link the walk belongs to, with the stages planned for
    it (see `run_link`); without it the walk plans its own.
    ``linear_only`` walks the stripe's ideal-hardware twin (`_ideal_twin`):
    the same stages and delays, with every gain and no noise, DAC
    quantization, IQ imbalance or phase noise; it plans its own stages, so
    it takes no ``noise``. ``trunk_record`` is that link's `_TrunkRecord`:
    the walk resumes one that holds a walk, in place of ``wf_in`` (then
    None), and keeps its own walk in it as the thread's record.
    """
    if linear_only and noise is not None:
        raise ConfigError("a linear walk plans its own stages; it takes no noise stream")
    top = _ideal_twin(top) if linear_only else top
    record = trunk_record
    resume = record if record is not None and record.x is not None else None
    beam_phases, chain, noise = _start_walk(top, [] if resume else [wf_in], active_ru,
                                            beam_phases, seed, "dl", noise, resume)
    del wf_in  # the chain holds its copy
    if consume is None:  # a copy at the grid rate
        consume = lambda b, branch, offset: TimeWaveform(branch.copy(), top.grid.sample_rate)
    taps = [] if record_taps else None
    with noise as chain.noise:
        stages = chain.noise.stages
        n_shared = len(stages) - top.n_antennas
        _run_stages(chain, stages[:n_shared], taps)
        if record is not None:
            record.depth, record.x, record.offset = active_ru, chain.x, chain.offset
            _workspace.record = record
        shared = chain.x
        scale = 1.0 / np.sqrt(top.n_antennas)  # the factor of `comp.split`
        out = []
        for b, (stage, theta) in enumerate(zip(stages[n_shared:], beam_phases)):
            # split, rotate and amplify the branch in one workspace array
            x = np.multiply(shared, scale, out=_workspace.get("branch", shared.shape))
            comp.rotate(x, theta, out=x)
            sub = replace(chain, x=x)
            _run_stages(sub, [stage], taps)
            out.append(consume(b, sub.x, chain.offset))
    return out, tuple(taps or ()), chain.offset


def propagate_uplink(top: StripeTopology, branch_waveforms, active_ru: int,
                     beam_phases, seed: int, record_taps: bool = False, *,
                     noise: _NoiseAhead | None = None, consume=None):
    """Active-RU receive front end -> trunk in reverse -> CU receive chain;
    returns what ``consume`` made of the CU output, together with the tap
    list and the accumulated delay.

    ``branch_waveforms`` are the per-antenna signals right after the
    wireless hop, in any iterable, each a `TimeWaveform` or a (Q, S) grid
    of symbols: the walk takes each one only when its antenna amplifier
    needs it, fills it straight into the array it walks (`_fill`: it
    copies a waveform's samples in and synthesizes a grid there) and holds
    none after, so a generator lets the caller make each branch only then.
    Couplers swap roles relative to downlink. ``consume(x, offset)`` gets
    the CU output in the walk's own array, which the next walk on the
    thread overwrites, and the delay the walk prepended; by default it
    returns a copy as a `TimeWaveform` at the grid rate. ``noise`` is as
    in `propagate_downlink`.
    """
    in_hand = (branch_waveforms if isinstance(branch_waveforms, (list, tuple))
               else None)
    branches = iter(branch_waveforms)
    first = next(branches, None)
    wrong_count = LengthError(f"the walk needs one waveform per antenna branch "
                              f"(n_antennas = {top.n_antennas})")
    if first is None or (in_hand is not None and len(in_hand) != top.n_antennas):
        raise wrong_count
    beam_phases, chain, noise = _start_walk(
        top, in_hand or [first], active_ru, beam_phases, seed, "ul", noise)
    del in_hand, first  # the chain holds its copy of the first branch
    taps = [] if record_taps else None
    with noise as chain.noise:
        stages = chain.noise.stages
        for b, (stage, theta) in enumerate(zip(stages, beam_phases)):
            # amplify, rotate and sum the branches: the first in the trunk,
            # where the sum builds up, each later one filled into the branch
            if b == 0:
                sub = chain
            else:
                branch = next(branches, None)
                if branch is None:
                    raise wrong_count
                sub = replace(chain, x=_fill(top, "branch", branch))
                del branch  # the walk works on its own array
            _run_stages(sub, [stage], taps)
            y = comp.rotate(sub.x, theta, out=sub.x)
            if b:
                np.add(chain.x, y, out=chain.x)
        if next(branches, None) is not None:
            raise wrong_count
        _run_stages(chain, stages[top.n_antennas:], taps)
    if consume is None:  # a copy at the grid rate
        consume = lambda x, offset: TimeWaveform(x.copy(), top.grid.sample_rate)
    return consume(chain.x, chain.offset), tuple(taps or ()), chain.offset


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    gains_db: tuple
    clipped: tuple
    output_powers_dbm: tuple


def _dbm(power_watts: float) -> float:
    return 10.0 * np.log10(power_watts / 1e-3)


def calibrate_gains(top: StripeTopology, target_power_dbm: float,
                    max_gain_db: float, seed: int = 0) -> CalibrationResult:
    """Front-to-back booster gain assignment in linear measurement mode.

    A flat QPSK reference at the target power is injected into the first
    fiber segment; at every booster input the passband mean power is
    measured on the second of the reference's two OFDM symbols, past any
    time-domain filter's transient, and the gain is set to
    min(target/P, max_gain). Each fiber and coupler runs through
    `_run_stages`; calibration itself stands in for each booster. Gains
    clipped at max_gain raise a `CalibrationInfeasible` warning but
    calibration completes.
    """
    grid, wf = top.grid, top.wf
    # the whole trunk, each booster's stream unused: calibration meters it
    trunk = _trunk(top, top.n_rus, lambda node, tag: None)
    ref_bits = streams.stream(seed, "calibration-reference").integers(
        0, 2, 2 * grid.num_subcarriers * 2)
    symbols = map_qam(ref_bits, 4).reshape(grid.num_subcarriers, 2)
    target_w = 10.0 ** ((target_power_dbm - 30.0) / 10.0)
    max_gain = 10.0 ** (max_gain_db / 10.0)
    gains, clipped, p_out = [], [], []

    # the reference is the walk's own, so every stage writes over it
    chain = _Chain(x=synthesize_symbols(symbols, grid, wf.cp_length),
                   cp_samples=wf.cp_length * grid.oversampling,
                   n_fft=grid.n_fft)

    def _passband_power() -> float:
        # mean power over the last symbol's bins: past the delays, any
        # filter transient and free of cyclic-prefix duplication bias
        bins = extract_symbols(chain.x[chain.offset:], grid, wf.cp_length, 2)
        return float(np.mean(np.abs(bins[:, -1]) ** 2))

    def scale(gain: float):
        np.multiply(chain.x, np.sqrt(gain), out=chain.x)

    # normalize so the measured passband power of the injected reference
    # is exactly the target (injection and measurement share one meter)
    scale(target_w / _passband_power())

    for stage in trunk:
        if not isinstance(stage[1], comp.AmplifierParams):
            _run_stages(chain, [stage])
            continue
        # a booster: its gain set from the power metered at its input
        power_in = _passband_power()
        gain = target_w / power_in
        clipped.append(gain > max_gain)
        gain = min(gain, max_gain)
        scale(gain)
        gains.append(10.0 * np.log10(gain))
        p_out.append(_dbm(power_in * gain))
    result = CalibrationResult(gains_db=tuple(gains), clipped=tuple(clipped),
                               output_powers_dbm=tuple(p_out))
    _warn_clipped(result, max_gain_db, stacklevel=3)
    return result


def _warn_clipped(result: CalibrationResult, max_gain_db: float, stacklevel: int):
    """The `CalibrationInfeasible` warning of a calibration that clipped."""
    if any(result.clipped):
        bad = [i for i, c in enumerate(result.clipped) if c]
        warnings.warn(f"boosters {bad} clipped at max_gain={max_gain_db} dB; "
                      f"target power unreachable", CalibrationInfeasible,
                      stacklevel=stacklevel)


# ---------------------------------------------------------------------------
# End-to-end link
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkResult:
    """Everything one end-to-end run produced."""

    tx_grid: ResourceGrid
    rx_symbols: np.ndarray
    h_estimate: np.ndarray
    metrics: MetricReport
    stage_taps: tuple
    channel: ChannelRealization
    direction: str
    stripe_id: int
    active_ru: int
    ue_index: int
    seed: int
    calibration: CalibrationResult | None = None
    delay_samples: int = 0


def resolve_channel(env: EnvironmentConfig, grid: SubcarrierGrid, source,
                    ue_index: int, stripe_id: int, active_ru: int, seed: int,
                    n_tx: int, n_rx: int) -> ChannelRealization:
    """Turn a channel-source spec into a realization for one link.

    Accepts 'los', 'rayleigh', 'identity', 'tdl' (or ('tdl', TdlParams))
    or a dataset reader. Model geometry uses the same array helper as the
    synthetic dataset generator, so dataset and model paths agree.
    """
    if isinstance(source, CfrDatasetReader):
        return source.get_channel(ue_index, stripe_id, active_ru)
    model, tdl_params = source if isinstance(source, tuple) else (source, None)
    base = SubcarrierGrid(grid.fc, grid.bw, grid.num_subcarriers, 1)
    if model == "identity":
        return identity_channel(base, n_tx)
    tx, rx = array_geometry(env, base, stripe_id, active_ru, env.ue_positions[ue_index],
                            n_tx=n_tx, n_rx=n_rx)
    return model_channel(base, model, tx, rx,
                         (seed, "channel", ue_index, stripe_id, active_ru), tdl_params)


def default_beam_phases(channel: ChannelRealization) -> np.ndarray:
    """Conjugate-matched steering at the center subcarrier, for either
    direction.

    Aligns the per-branch phases of the effective (combined over the UE
    side) channel so the over-the-air or combined sum adds coherently.
    """
    q0 = channel.h.shape[0] // 2
    effective = channel.h[q0].sum(axis=0)  # sum over UE elements -> per RU branch
    return -np.angle(effective)


def _ota_noise(y: np.ndarray, bank: ComponentBank, grid: SubcarrierGrid,
               rng, ota_snr_db: float | None) -> np.ndarray:
    """The over-the-air hop's receiver noise, added over ``y``."""
    if ota_snr_db is not None:
        return add_awgn(y, ota_snr_db, rng, out=y)
    if bank.receiver.nf_db is not None:
        return add_thermal_noise(y, grid.bw, bank.receiver.nf_db, rng,
                                 bank.receiver.temperature, out=y)
    return y


def _transmit_waveform(tx_grid: ResourceGrid, grid: SubcarrierGrid,
                       wf_cfg: WaveformConfig) -> TimeWaveform:
    """The modulated transmit grid, its fresh array scaled in place to the
    configured dBm power."""
    tx_wf = ofdm_modulate(tx_grid, grid, wf_cfg.cp_length)
    np.multiply(tx_wf.samples, _power_scale(tx_wf, wf_cfg.tx_power), out=tx_wf.samples)
    return tx_wf


def run_link(env: EnvironmentConfig, wf_cfg: WaveformConfig, bank: ComponentBank,
             channel_source, ue_index: int, stripe_id: int, active_ru: int,
             direction: str = "dl", seed: int = 0, *,
             calibrate: bool = False, record_taps: bool = False,
             ota_snr_db: float | None = None, ue_antennas: int = 1,
             beam_phases=None) -> LinkResult:
    """One end-to-end link: bits -> waveform -> stripe -> air -> metrics.

    Fully deterministic in (configs, seed). ``ota_snr_db`` overrides the
    receiver noise figure with a direct SNR injection (test fixtures).
    """
    if direction not in ("dl", "ul"):
        raise ConfigError(f"direction must be 'dl' or 'ul', got {direction!r}")
    from_dataset = isinstance(channel_source, CfrDatasetReader)
    dataset_header = channel_source.header if from_dataset else None
    validate_cross(env, wf_cfg, bank, dataset_header)
    n_rus = len(env.stripe_nodes(stripe_id)) - 1
    if not 0 <= active_ru < n_rus:
        raise ConfigError(f"active_ru {active_ru} out of range [0, {n_rus})")
    if from_dataset:
        if ue_index not in {ue.ue_id for ue in channel_source.ues}:
            raise ConfigError(f"ue_index {ue_index} is not a UE of the dataset")
        if stripe_id >= dataset_header.n_stripes or active_ru >= dataset_header.n_rus:
            raise ConfigError(
                f"the dataset covers {dataset_header.n_stripes} stripe(s) of "
                f"{dataset_header.n_rus} RU(s), not stripe {stripe_id} RU {active_ru}")
    elif not 0 <= ue_index < len(env.ue_positions):
        raise ConfigError(f"ue_index {ue_index} out of range")

    grid = make_grid(env, wf_cfg, dataset_header)
    n_tx = env.antenna.n_antennas
    n_rx = ue_antennas
    if from_dataset:
        n_tx, n_rx = dataset_header.n_tx, dataset_header.n_rx
    elif channel_source == "identity":
        n_rx = n_tx

    topology = build_stripe(env, bank, stripe_id, grid, wf_cfg)
    if topology.n_antennas != n_tx:
        topology = replace(topology, n_antennas=n_tx)

    # a downlink link without taps may resume the last walk on this thread
    key = (env, wf_cfg, bank, grid, stripe_id, seed, calibrate)
    resume = _resumable(key, active_ru) if direction == "dl" and not record_taps else None
    calibration = None
    if calibrate:
        if resume is None:
            calibration = calibrate_gains(topology, bank.calibration.target_power_dbm,
                                          bank.calibration.max_gain_db, seed=seed)
        else:  # the record's, with the warning calibrating gave
            calibration = resume.calibration
            _warn_clipped(calibration, bank.calibration.max_gain_db, stacklevel=2)
        topology = topology.with_gains(calibration.gains_db)

    # One noise stream for the whole link: every Gaussian draw, in the order
    # the link consumes them, drawn ahead while the channel and transmit
    # waveform are prepared, and the stages of the walk that consumes them.
    s = wf_cfg.n_ofdm_symbols
    n_samples = s * (grid.n_fft + wf_cfg.cp_length * grid.oversampling)
    stages, draws = _plan_walk(topology, active_ru, seed, direction, n_samples, resume)
    ota_rng = streams.stream(seed, "ota-noise")
    if ota_snr_db is not None or bank.receiver.nf_db is not None:
        ota = (ota_rng, (2, grid.num_subcarriers, n_rx if direction == "dl" else n_tx, s))
        draws = draws + [ota] if direction == "dl" else [ota] + draws

    with _NoiseAhead(draws, stages) as noise:
        realization = resolve_channel(env, grid, channel_source, ue_index,
                                      stripe_id, active_ru, seed, n_tx, n_rx)
        if beam_phases is None:
            beam_phases = default_beam_phases(realization)

        mask = pilot_mask(wf_cfg.pilot_mode, wf_cfg.pilot_spacing,
                          grid.num_subcarriers, wf_cfg.n_ofdm_symbols)
        m = int(np.log2(wf_cfg.qam_order))
        n_bits = int(np.count_nonzero(~mask)) * m
        tx_grid = build_resource_grid(streams.stream(seed, "data-bits").integers(0, 2, n_bits),
                                      wf_cfg, grid, seed)

        # each waveform- or grid-sized array is dropped once used, so the
        # arrays made after it reuse its memory instead of fresh pages
        if direction == "dl":
            branch_grids = None

            def to_grid(b: int, branch: np.ndarray, offset: int):
                nonlocal branch_grids
                if b == 0:  # the trunk has let the transmit waveform go
                    branch_grids = np.empty((grid.num_subcarriers, n_tx, s),
                                            dtype=np.complex128)
                extract_symbols(branch[offset:offset + n_samples], grid, wf_cfg.cp_length,
                                s, out=branch_grids[:, b, :], in_place=True)

            # the walk alone holds the transmit waveform, and drops it once
            # it has copied it into the trunk; a resumed walk needs none
            _, taps, offset = propagate_downlink(
                topology, None if resume else _transmit_waveform(tx_grid, grid, wf_cfg),
                active_ru, beam_phases, seed, record_taps, noise=noise, consume=to_grid,
                trunk_record=resume or _TrunkRecord(key, calibration))
            # (Q, n_rx, S), written over the branch grids' buffer if it fits;
            # a one-antenna air grid is fresh, since it is no larger than the
            # combined grid and the buffer would live on through combining
            q = grid.num_subcarriers
            air = (branch_grids.reshape(-1)[:q * n_rx * s].reshape(q, n_rx, s)
                   if 1 < n_rx <= n_tx else None)
            air = apply_channel(branch_grids, realization, out=air)
            del branch_grids
            air = _ota_noise(air, bank, grid, noise.source(ota_rng), ota_snr_db)
            rx_symbols = air.sum(axis=1)  # coherent UE combining
            del air
        else:
            # the UE's grid on each of its elements, at 1/sqrt(n_rx) amplitude
            ue_elems = np.empty((grid.num_subcarriers, n_rx, s), dtype=np.complex128)
            ue_grid = extract_symbols(_transmit_waveform(tx_grid, grid, wf_cfg).samples,
                                      grid, wf_cfg.cp_length, s, out=ue_elems[:, 0, :],
                                      in_place=True)
            ue_grid /= np.sqrt(n_rx)
            ue_elems[:, 1:, :] = ue_grid[:, None, :]
            up = realization.transposed()  # (Q, n_tx_ru, n_rx_ue)
            at_ru = apply_channel(ue_elems, up)  # (Q, n_tx_ru, S)
            del ue_elems, ue_grid
            at_ru = _ota_noise(at_ru, bank, grid, noise.source(ota_rng), ota_snr_db)
            # each branch's grid, at_ru[:, b, :], in turn; the iterator lets
            # at_ru go once the walk asks for the item after the last branch
            branches = iter(at_ru.transpose(1, 0, 2))
            del at_ru
            # demodulated straight from the walk's array, which the next
            # walk on the thread overwrites anyway
            rx_symbols, taps, offset = propagate_uplink(
                topology, branches, active_ru, beam_phases, seed, record_taps,
                noise=noise, consume=lambda x, offset: extract_symbols(
                    x[offset:offset + n_samples], grid, wf_cfg.cp_length, s,
                    in_place=True))

    # receiver timing sync: rotate the channel's bulk delay off the grid
    rx_symbols = timing_advance(rx_symbols, realization.grid,
                                bulk_delay(realization))
    h_hat = estimate_channel(rx_symbols, mask,
                             pilot_sequence(seed, int(np.count_nonzero(mask))))
    link_metrics = report(tx_grid, rx_symbols, h_hat)
    return LinkResult(tx_grid=tx_grid, rx_symbols=rx_symbols, h_estimate=h_hat,
                      metrics=link_metrics, stage_taps=taps, channel=realization,
                      direction=direction, stripe_id=stripe_id,
                      active_ru=active_ru, ue_index=ue_index, seed=seed,
                      calibration=calibration, delay_samples=offset)
