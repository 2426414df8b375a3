"""Hardware impairment bank: amplifiers, DAC, oscillator, IQ modem,
fiber/coupler application, splitter/combiner, phase shifters.

Amplifiers follow ``y = G * f_nl(x + w)`` with input-referred Gaussian
noise ``w`` sized from the noise figure and bandwidth, and ``f_nl`` a
memoryless nonlinearity chosen per mode. Linear elements (fiber, coupler)
apply either per-subcarrier in the frequency domain or by convolution in
the time domain. Stateful pieces (oscillator phase) live in small classes;
everything else is a function of its inputs, complex sample arrays in
and out. The waveform stages write their result into a fresh array or
into the ``out`` array they are given, which may be their own input: that
is how a stripe walk reuses buffers. Without ``out`` no input is ever
changed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, GridMismatch, LengthError, UnsupportedMode
from .touchstone import FrequencyResponse, ImpulseResponse

BOLTZMANN = 1.380649e-23  # J/K

AMPLIFIER_MODES = ("ideal", "tanh", "atan", "polynomial", "soft_limiter")
OSCILLATOR_MODES = ("ideal", "cfo", "wiener", "ar1")
LINEAR_MODELS = ("ideal", "fixed_damping", "s2p_filter")


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplifierParams:
    """Gain, nonlinearity mode and noise description of one amplifier.

    ``poly_coeffs[i]`` is the coefficient of the odd order ``2*i + 1``.
    """

    gain_db: float = 0.0
    mode: str = "ideal"
    sat_amplitude: float = 1.0
    poly_coeffs: tuple = ()
    nf_db: float = 0.0
    bandwidth: float = 0.0
    temperature: float = 290.0

    def __post_init__(self):
        if self.mode not in AMPLIFIER_MODES:
            raise UnsupportedMode(f"amplifier mode {self.mode!r}")
        if self.mode in ("tanh", "atan", "soft_limiter") and self.sat_amplitude <= 0:
            raise DomainError("sat_amplitude must be positive")
        object.__setattr__(self, "poly_coeffs",
                           tuple(complex(c) for c in self.poly_coeffs))

    @property
    def gain_linear(self) -> float:
        return 10.0 ** (self.gain_db / 20.0)


@dataclass(frozen=True)
class DacParams:
    """Clipping + mid-rise uniform quantization, per I/Q rail."""

    mode: str = "ideal"  # ideal -> exact pass-through
    bits: int = 12
    clip_amplitude: float = 1.0

    def __post_init__(self):
        if self.mode not in ("ideal", "quantize"):
            raise UnsupportedMode(f"dac mode {self.mode!r}")
        if self.mode == "quantize":
            if self.bits < 1:
                raise DomainError("bits must be >= 1")
            if self.clip_amplitude <= 0:
                raise DomainError("clip_amplitude must be positive")


@dataclass(frozen=True)
class OscillatorParams:
    mode: str = "ideal"
    cfo_hz: float = 0.0
    ar_rho: float = 1.0
    innovation_std: float = 0.0  # rad per sample
    initial_phase: float = 0.0

    def __post_init__(self):
        if self.mode not in OSCILLATOR_MODES:
            raise UnsupportedMode(f"oscillator mode {self.mode!r}")
        if self.mode == "ar1" and not 0.0 < self.ar_rho <= 1.0:
            raise DomainError("ar_rho must lie in (0, 1]")
        if self.innovation_std < 0:
            raise DomainError("innovation_std must be >= 0")


@dataclass(frozen=True)
class IqParams:
    """Static IQ imbalance (gain g, phase phi) plus DC offset."""

    gain_mismatch: float = 1.0
    phase_mismatch: float = 0.0  # rad
    dc_offset: complex = 0.0

    def __post_init__(self):
        if self.gain_mismatch <= 0:
            raise DomainError("gain_mismatch must be positive")
        object.__setattr__(self, "dc_offset", complex(self.dc_offset))

    @property
    def alpha(self) -> complex:
        return (1.0 + self.gain_mismatch * np.exp(1j * self.phase_mismatch)) / 2.0

    @property
    def beta(self) -> complex:
        return (1.0 - self.gain_mismatch * np.exp(1j * self.phase_mismatch)) / 2.0


@dataclass(frozen=True)
class LinearElementParams:
    """Runtime form of a fiber/coupler: model plus prepared responses.

    For ``s2p_filter`` exactly one of ``response`` (frequency-domain
    application) or ``impulse`` (time-domain convolution) is prepared,
    selected by ``domain``.
    """

    model: str = "ideal"
    loss_db: float = 0.0
    domain: str = "frequency"
    response: FrequencyResponse | None = None
    impulse: ImpulseResponse | None = None
    # ``response.h`` in FFT bin order for per-symbol filtering, always
    # derived from ``response`` (never set by the caller)
    fft_response: np.ndarray | None = field(init=False, default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.model not in LINEAR_MODELS:
            raise UnsupportedMode(f"linear element model {self.model!r}")
        if self.domain not in ("frequency", "time"):
            raise UnsupportedMode(f"application domain {self.domain!r}")
        if self.model == "s2p_filter":
            if self.domain == "frequency" and self.response is None:
                raise GridMismatch("frequency-domain element needs a prepared response")
            if self.domain == "time" and self.impulse is None:
                raise GridMismatch("time-domain element needs a prepared impulse response")
        if self.response is not None:
            object.__setattr__(self, "fft_response", np.fft.ifftshift(self.response.h))

    @property
    def amplitude(self) -> float:
        """Amplitude factor of a fixed-damping element."""
        return 10.0 ** (-self.loss_db / 20.0)


# ---------------------------------------------------------------------------
# Amplifier
# ---------------------------------------------------------------------------

def noise_power(nf_db: float, bandwidth: float, temperature: float = 290.0) -> float:
    """Input-referred added noise power kT*B*(F - 1) in watts."""
    if bandwidth < 0:
        raise DomainError("bandwidth must be >= 0")
    if nf_db < 0:  # F < 1 would take noise away: a negative power
        raise DomainError("nf_db must be >= 0")
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    return BOLTZMANN * temperature * bandwidth * (10.0 ** (nf_db / 10.0) - 1.0)


def pa_nonlinearity(x, mode: str, params: AmplifierParams) -> np.ndarray:
    """Memoryless nonlinearity; phase preserving except for complex
    polynomial coefficients (which model AM/PM)."""
    x = np.asarray(x, dtype=np.complex128)
    if mode == "ideal":
        return x
    if mode == "polynomial":
        out = np.zeros_like(x)
        r2 = np.abs(x) ** 2
        power = np.ones_like(r2)
        for c in params.poly_coeffs:
            out = out + c * x * power
            power = power * r2
        return out
    a = params.sat_amplitude
    r = np.abs(x)
    safe = np.where(r > 0, r, 1.0)
    unit = np.where(r > 0, x / safe, 0.0)
    if mode == "tanh":
        return a * np.tanh(r / a) * unit
    if mode == "atan":
        return a * (2.0 / np.pi) * np.arctan((np.pi / 2.0) * r / a) * unit
    if mode == "soft_limiter":
        return np.where(r <= a, x, a * unit)
    raise UnsupportedMode(f"amplifier mode {mode!r}")


class _DrawnNoise:
    """Gaussian numbers drawn before the stage that adds them, standing in
    for the stage's generator in `amplifier_process` and
    `add_complex_noise`: ``standard_normal(size)`` returns them, and
    `_noise_into` calls `spent` once it has added them. No stage reads
    them after that, so their arrays are free for the next draw."""

    def standard_normal(self, size):
        raise NotImplementedError

    def spent(self):
        raise NotImplementedError


def _noise_into(samples: np.ndarray, sigma: float, rng: np.random.Generator,
                out: np.ndarray):
    """Write ``samples + sigma * (a + 1j*b)`` into ``out``.

    One ``(2,) + shape`` draw yields the same numbers, in the same order,
    as drawing ``a`` and then ``b``; a `_DrawnNoise` ``rng`` may return
    the two halves as a pair of arrays, and gets them back, spent, as
    soon as they are added.
    """
    z = rng.standard_normal((2,) + samples.shape)
    for half in z:
        half *= sigma
    np.add(samples.real, z[0], out=out.real)
    np.add(samples.imag, z[1], out=out.imag)
    if isinstance(rng, _DrawnNoise):
        rng.spent()


def add_complex_noise(samples: np.ndarray, sigma: float,
                      rng: np.random.Generator, *, out=None) -> np.ndarray:
    """``samples + sigma * (a + 1j*b)``, with ``a`` and ``b`` standard
    normal arrays shaped like ``samples``, written into ``out`` (which may
    be ``samples`` itself) or, by default, into a fresh array."""
    if out is None:
        out = np.empty(samples.shape, dtype=np.complex128)
    _noise_into(samples, sigma, rng, out)
    return out


TANH_BLOCK = 16384  # samples per block of `_tanh_in_place`


def _tanh_in_place(x: np.ndarray, sat_amplitude: float):
    """``a * tanh(|x| / a) * x / |x|`` written over ``x``, block by block
    on two block-sized real scratch arrays, rounding as `pa_nonlinearity`
    does: numpy divides a complex by a real ``|x|`` by multiplying with
    ``1 / |x|``. The two agree bit for bit on inputs free of negative
    zeros, which every noisy input is."""
    flat = x.reshape(-1)  # a copy only when x is not contiguous
    r_block = np.empty(min(flat.size, TANH_BLOCK))
    inv_block = np.empty_like(r_block)
    for start in range(0, flat.size, TANH_BLOCK):
        v = flat[start:start + TANH_BLOCK]
        r, inv = r_block[:v.size], inv_block[:v.size]
        np.abs(v, out=r)
        inv.fill(0.0)
        np.divide(1.0, r, out=inv, where=r > 0)
        v *= inv
        r /= sat_amplitude
        np.tanh(r, out=r)
        r *= sat_amplitude
        v *= r
    if not np.may_share_memory(flat, x):
        x[...] = flat.reshape(x.shape)


class Blocks(NamedTuple):
    """A waveform of ``size`` samples that exists one block at a time:
    iterating ``blocks`` yields (part, block), the slice of the waveform
    a block holds and an array of its samples. A stage writes its output
    over each block before it asks for the next, so the iterator can pass
    that output on."""

    size: int
    blocks: Iterator


class _DrawnPart(_DrawnNoise):
    """The halves of one block's slice of a stage's noise draw, standing
    in for the stage's generator on that block; the stage hands the whole
    draw back itself, after its last block."""

    def __init__(self, halves: tuple):
        self._halves = halves

    def standard_normal(self, size):
        return self._halves

    def spent(self):
        pass


def amplifier_process(x: np.ndarray | Blocks, params: AmplifierParams,
                      rng: np.random.Generator, *, out=None) -> np.ndarray | None:
    """y = G * f_nl(x + w); w is circularly-symmetric Gaussian with total
    power from `noise_power`, injected before the nonlinearity.

    ``rng`` may be a `_DrawnNoise`, so the stripe walk can hand in noise
    drawn ahead of time; the nonlinearity reads no draw. The result is
    written into ``out`` (which may be ``x`` itself) or, by default, into
    a fresh array; ``x`` is never changed unless it is ``out``.

    ``x`` may also be `Blocks`: the stage then draws the noise of the whole
    waveform at once, as for an array, writes each block's output over the
    block with that block's slice of the draw, and returns None. Every
    step works sample by sample, so the bits are those of the whole
    waveform at once.
    """
    if not isinstance(x, Blocks):
        return _amplify(x, params, rng,
                        np.empty(x.shape, dtype=np.complex128) if out is None else out)
    z = None
    if noise_power(params.nf_db, params.bandwidth, params.temperature) > 0.0:
        z = rng.standard_normal((2, x.size))
    for part, block in x.blocks:
        _amplify(block, params,
                 rng if z is None else _DrawnPart(tuple(half[part] for half in z)), block)
    if isinstance(rng, _DrawnNoise):
        rng.spent()
    return None


def _amplify(x: np.ndarray, params: AmplifierParams, rng, out: np.ndarray) -> np.ndarray:
    """`amplifier_process` of array ``x``, written into ``out``."""
    pn = noise_power(params.nf_db, params.bandwidth, params.temperature)
    if pn == 0.0:
        # a noiseless input may hold negative zeros: keep the division
        return np.multiply(params.gain_linear,
                           pa_nonlinearity(x, params.mode, params), out=out)
    _noise_into(x, np.sqrt(pn / 2.0), rng, out)
    if params.mode not in ("ideal", "tanh"):
        return np.multiply(params.gain_linear,
                           pa_nonlinearity(out, params.mode, params), out=out)
    if params.mode == "tanh":
        _tanh_in_place(out, params.sat_amplitude)
    out *= params.gain_linear
    return out


# ---------------------------------------------------------------------------
# DAC
# ---------------------------------------------------------------------------

def _quantize_rail(v: np.ndarray, clip: float, bits: int, out: np.ndarray):
    """Quantized ``v`` written into ``out`` (which may be ``v`` itself)."""
    delta = 2.0 * clip / (1 << bits)
    np.divide(v, delta, out=out)
    np.floor(out, out=out)
    np.clip(out, -(1 << (bits - 1)), (1 << (bits - 1)) - 1, out=out)
    out += 0.5
    out *= delta


def dac_process(x: np.ndarray, params: DacParams, *, out=None) -> np.ndarray:
    """Per-rail clip to [-clip, +clip] and mid-rise uniform quantization,
    written into ``out`` (which may be ``x`` itself) or, by default, a
    fresh array. The ideal DAC returns ``x`` unchanged."""
    if params.mode == "ideal":
        return x
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    # a quantized level is never zero, so on inputs free of NaNs writing
    # the rails equals the complex sum re + 1j*im bit for bit
    _quantize_rail(x.real, params.clip_amplitude, params.bits, out.real)
    _quantize_rail(x.imag, params.clip_amplitude, params.bits, out.imag)
    return out


# ---------------------------------------------------------------------------
# Oscillator
# ---------------------------------------------------------------------------

class Oscillator:
    """Local-oscillator phase track with state across calls.

    Successive `phases` calls continue the trajectory (sample counter for
    CFO, previous phase for the AR/Wiener recursions), so phase is
    continuous between OFDM symbols. One instance per simulation run.
    The random modes require ``rng``: the caller's stream sets the track.
    """

    def __init__(self, params: OscillatorParams, sample_rate: float,
                 rng: np.random.Generator | None = None):
        if rng is None and params.mode in ("wiener", "ar1"):
            raise DomainError(f"a {params.mode} oscillator needs a random generator")
        self.params = params
        self.sample_rate = sample_rate
        self.rng = rng
        self._n0 = 0
        self._phi_prev = params.initial_phase

    def phases(self, n: int) -> np.ndarray:
        if n < 1:
            raise LengthError("need at least one sample")
        p = self.params
        if p.mode == "ideal":
            return np.zeros(n)
        if p.mode == "cfo":
            k = self._n0 + np.arange(n)
            self._n0 += n
            return p.initial_phase + 2.0 * np.pi * p.cfo_hz * k / self.sample_rate
        rho = 1.0 if p.mode == "wiener" else p.ar_rho
        u = p.innovation_std * self.rng.standard_normal(n)
        if rho == 1.0:
            phi = self._phi_prev + np.cumsum(u)
        else:
            # phi[k] = u[k] + rho * phi[k-1] in plain Python: scipy's lfilter
            # would put a ~1 s scipy.signal import on every CLI start
            phi = np.fromiter(
                itertools.accumulate(u.tolist(), lambda prev, x: x + rho * prev,
                                     initial=self._phi_prev),
                np.float64, n + 1)[1:]
        self._phi_prev = float(phi[-1])
        return phi


def oscillator_phasor(n: int, params: OscillatorParams, sample_rate: float,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """One-shot phase sequence (fresh oscillator instance)."""
    return Oscillator(params, sample_rate, rng).phases(n)


# ---------------------------------------------------------------------------
# IQ modem
# ---------------------------------------------------------------------------

def iq_modem_process(x: np.ndarray, params: IqParams,
                     phases: np.ndarray, *, out=None) -> np.ndarray:
    """y = (alpha*x + beta*conj(x)) * e^{j*phi} + dc, written into ``out``
    (which may be ``x`` itself) or, by default, a fresh array.

    ``phases`` is the oscillator's phase per sample, or one phase for
    every sample. alpha = (1 + g e^{j phi_mis})/2 and beta = (1 - g
    e^{j phi_mis})/2, so ideal parameters are the exact identity, and
    with one zero phase they make no pass over an ``x`` that is ``out``.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim and phases.size != x.size:
        raise LengthError("phasor length must equal the waveform length")
    a, b = params.alpha, params.beta
    image = b * np.conj(x) if b != 0 else None  # before out overwrites x
    # alpha = 1 + 0j is the identity, which a multiply would break: it
    # turns a -0 real part under a negative imaginary part into +0
    if a != 1:
        mixed = np.multiply(a, x, out=out)
    elif out is None:
        mixed = x.astype(np.complex128)
    else:
        mixed = out
        if out is not x:
            np.copyto(out, x)
    if image is not None:
        mixed += image
    if np.any(phases):
        mixed *= np.exp(1j * phases)
    if params.dc_offset != 0:
        mixed += params.dc_offset
    return mixed


# ---------------------------------------------------------------------------
# Linear elements (fiber / coupler)
# ---------------------------------------------------------------------------

def linear_element_process(x: np.ndarray, params: LinearElementParams) -> np.ndarray:
    """Apply a fiber/coupler to per-subcarrier data or time samples.

    Frequency domain expects an array whose first axis matches the
    element's prepared response (Hadamard product per OFDM symbol); time
    domain, 1-D samples (linear convolution, cut to the input's length).
    A fiber segment's propagation delay is not applied here: the stripe
    fixes it per segment and the walk prepends it.
    """
    if params.model == "ideal":
        return x
    if params.model == "fixed_damping":
        return np.asarray(x) * params.amplitude
    # s2p_filter
    if params.domain == "frequency":
        data = np.asarray(x, dtype=np.complex128)
        h = params.response.h
        if data.shape[0] != h.size:
            raise GridMismatch(f"data has {data.shape[0]} subcarriers, response {h.size}")
        return data * h.reshape((-1,) + (1,) * (data.ndim - 1))
    return np.convolve(x, params.impulse.h)[:len(x)]


# ---------------------------------------------------------------------------
# Splitter / combiner / phase shifter
# ---------------------------------------------------------------------------

def split(x: np.ndarray, n: int) -> list[np.ndarray]:
    """n branches, each attenuated by 1/sqrt(n) (power conserving)."""
    if n < 1:
        raise DomainError("branch count must be >= 1")
    scale = 1.0 / np.sqrt(n)
    return [x * scale for _ in range(n)]


def combine(branches: list[np.ndarray]) -> np.ndarray:
    """Coherent elementwise sum of equally long branches."""
    if not branches:
        raise LengthError("need at least one branch")
    if any(b.size != branches[0].size for b in branches):
        raise LengthError("branches must share the same length")
    return np.sum(branches, axis=0)


def rotate(samples: np.ndarray, theta: float, *, out=None) -> np.ndarray:
    """``samples * e^{j*theta}``, written into ``out`` (which may be
    ``samples`` itself) or, by default, into a fresh array."""
    return np.multiply(samples, np.exp(1j * theta), out=out)
