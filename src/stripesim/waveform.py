"""CP-OFDM baseband generation and demodulation.

Covers QAM mapping, pilot insertion, the oversampled IFFT/FFT pair,
cyclic prefix handling, and power scaling. Waveforms are complex baseband
sample vectors; resource grids are Q x S arrays (subcarrier x OFDM symbol).

Conventions
-----------
* Subcarrier q sits at absolute frequency ``f_q = fc + (q - Q/2) * df``
  with ``df = bw / Q``; q = Q/2 is DC.
* Oversampling is frequency-domain zero padding: the Q occupied bins are
  centered in a ``Q*os``-point spectrum, so the band limitation is exact.
* The modulator is scaled so the mean time-sample power equals the mean
  resource-grid power; absolute power is then set once by `_power_scale`.
* ``cp_length`` is counted in critical-rate samples and multiplied by the
  oversampling factor internally, keeping configs os-independent.

Scratch and exactness
---------------------
* The OFDM pair keeps no scratch spectrum. Synthesis puts the bins
  straight into FFT order in the frame bodies of its result, a fresh
  array or the caller's ``out``, and transforms them there, in place.
  Extraction transforms into one spectrum it makes per call and never
  writes its input, unless the caller gives up the samples with
  ``in_place=True``: it then transforms each frame body where it lies,
  so a waveform dropped right after demodulation costs no spectrum.
  All of these replace shift-and-copy steps with the same bits: numpy
  >= 2 transforms with ``out=`` aliasing its input and rounds as it
  does out of place.
* The mapper looks each symbol up in a per-order table built by the
  mapping arithmetic; the demapper slices each axis on its own and
  returns exactly the bits of a full minimum-distance search, falling
  back to that search where rounding could make the two differ. It
  works through the symbols in blocks of `_DEMAP_BLOCK`, so its float
  temporaries stay block-sized; every step acts on each symbol alone,
  so the blocks change no bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, LengthError, ZeroSignal
from . import streams


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SubcarrierGrid:
    """Frequency axis of the simulation.

    Parameters
    ----------
    fc : float
        Carrier frequency in Hz.
    bw : float
        Occupied bandwidth in Hz.
    num_subcarriers : int
        Number of subcarriers Q (power of two).
    oversampling : int
        Integer oversampling factor; the simulation rate is ``bw * os``.
    """

    fc: float
    bw: float
    num_subcarriers: int
    oversampling: int = 1

    def __post_init__(self):
        if not _is_power_of_two(self.num_subcarriers):
            raise ConfigError(f"num_subcarriers must be a power of two, got {self.num_subcarriers}")
        if self.oversampling < 1 or int(self.oversampling) != self.oversampling:
            raise ConfigError(f"oversampling must be an integer >= 1, got {self.oversampling}")
        if self.bw <= 0 or self.fc <= 0:
            raise ConfigError("fc and bw must be positive")

    @property
    def delta_f(self) -> float:
        return self.bw / self.num_subcarriers

    @property
    def sample_rate(self) -> float:
        return self.bw * self.oversampling

    @property
    def n_fft(self) -> int:
        return self.num_subcarriers * self.oversampling

    def frequencies(self) -> np.ndarray:
        """Absolute subcarrier frequencies f_q, ascending, length Q."""
        q = np.arange(self.num_subcarriers)
        return self.fc + (q - self.num_subcarriers // 2) * self.delta_f

    def expanded(self) -> "SubcarrierGrid":
        """Critical-rate view of the full oversampled band.

        Same fc and bin spacing, but ``Q*os`` bins spanning ``bw*os``; used
        to evaluate component responses across the whole simulated band.
        """
        return SubcarrierGrid(self.fc, self.bw * self.oversampling,
                              self.n_fft, 1)


@dataclass(frozen=True)
class TimeWaveform:
    """Complex baseband sample sequence with its sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))

    @property
    def power(self) -> float:
        """Mean |x|^2 over all samples."""
        p = np.abs(self.samples)
        return float(np.mean(np.square(p, out=p)))

    def with_samples(self, samples: np.ndarray) -> "TimeWaveform":
        return replace(self, samples=samples)


@dataclass(frozen=True)
class ResourceGrid:
    """A transmit grid: the Q x S symbol array, its pilot mask and pilot
    values, and the data bits mapped at ``qam_order`` into the other
    positions. `build_resource_grid` makes one."""

    symbols: np.ndarray
    pilot_mask: np.ndarray
    pilot_values: np.ndarray
    data_bits: np.ndarray
    qam_order: int

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.complex128))
        if self.symbols.ndim != 2:
            raise LengthError("resource grid symbols must be a Q x S array")
        mask = np.asarray(self.pilot_mask, dtype=bool)
        if mask.shape != self.symbols.shape:
            raise LengthError("pilot mask shape must match symbols")
        object.__setattr__(self, "pilot_mask", mask)

    @property
    def data_mask(self) -> np.ndarray:
        return ~self.pilot_mask


# ---------------------------------------------------------------------------
# QAM mapping
# ---------------------------------------------------------------------------

def _bits_per_symbol(order: int) -> int:
    m = int(np.log2(order))
    if 2 ** m != order or m % 2 != 0:
        raise ConfigError(f"QAM order must be a power of 4, got {order}")
    return m


def _word_bits(order: int) -> np.ndarray:
    """(M, m) int8 bits of every word, most significant bit first."""
    m = _bits_per_symbol(order)
    words = np.arange(order)
    return ((words[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.int8)


@functools.cache
def _qam_table(order: int) -> np.ndarray:
    """All M constellation points indexed by the integer bit word, from
    the slicer's Gray table; read-only, shared by every call."""
    gray = _slicer_tables(order)[0]
    n_levels = gray.size
    level = np.empty_like(gray)
    level[gray] = (n_levels - 1) - 2 * np.arange(n_levels)  # each Gray word's PAM level
    # a word's first half selects the I level, its second half the Q level
    words = np.arange(order)
    norm = np.sqrt(2.0 * (order - 1) / 3.0)
    table = (level[words // n_levels] + 1j * level[words % n_levels]) / norm
    table.flags.writeable = False
    return table


def map_qam(bits, order: int) -> np.ndarray:
    """Gray-mapped square QAM symbols with unit average energy.

    The bit word for each symbol is split in half: the first half selects
    the I level, the second half the Q level. Levels are Gray coded with
    the all-zero word on the most positive amplitude, and the constellation
    is normalized by sqrt(2*(M-1)/3) so E|s|^2 = 1.
    """
    m = _bits_per_symbol(order)
    word = np.min_scalar_type(order - 1)
    bits = np.asarray(bits, dtype=word).ravel()
    if bits.size % m != 0:
        raise LengthError(f"bit count {bits.size} not divisible by {m}")
    words = bits.reshape(-1, m) @ (1 << np.arange(m - 1, -1, -1)).astype(word)
    return _qam_table(order)[words]


@functools.cache
def _slicer_tables(order: int) -> tuple:
    """(Gray word of each level index, (M, m) bits of each word); read-only."""
    k = np.arange(1 << (_bits_per_symbol(order) // 2))
    tables = k ^ (k >> 1), _word_bits(order)
    for table in tables:
        table.flags.writeable = False
    return tables


def _nearest_points(symbols: np.ndarray, order: int) -> np.ndarray:
    """Index of the nearest constellation point by full search; ties go
    to the smallest index."""
    points = _qam_table(order)
    idx = np.empty(symbols.size, dtype=np.intp)
    # chunked full search keeps the tie-break exact without a big matrix;
    # a 1 MB block of distances stays in cache and adds little to the peak
    chunk = max(1, (1 << 16) // order)
    for start in range(0, symbols.size, chunk):
        block = symbols[start:start + chunk]
        d2 = np.abs(block[:, None] - points[None, :]) ** 2
        idx[start:start + block.size] = np.argmin(d2, axis=1)
    return idx


# relative distance to a decision threshold below which rounding in the
# full search could pick another point than the per-axis slicer; the
# search's own rounding is below 1e-14 of the same scale
_SLICE_MARGIN = 1e-12

# symbols demapped per block, which bounds each of the demapper's float
# temporaries at 64 KiB however many symbols a link carries
_DEMAP_BLOCK = 1 << 13


def demap_qam(symbols, order: int) -> np.ndarray:
    """Hard-decision demapping (minimum Euclidean distance).

    Ties on a decision boundary resolve to the smallest constellation
    index, i.e. the smallest bit word.

    Each axis is sliced on its own: in level units t = v*norm the levels
    are the odd integers, level index k = clip(rint(((L-1) - t)/2)). A
    symbol within about 1e-12*(t_I^2 + t_Q^2 + L^2) of a threshold, or not
    finite, goes through the full search instead, so the bits equal the
    full search's on every input. The symbols go through in blocks of
    `_DEMAP_BLOCK`.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    bits = _slicer_tables(order)[1]
    out = np.empty((symbols.size, bits.shape[1]), dtype=bits.dtype)
    for start in range(0, symbols.size, _DEMAP_BLOCK):
        block = symbols[start:start + _DEMAP_BLOCK]
        out[start:start + block.size] = bits[_slice_block(block, order)]
    return out.ravel()


def _slice_block(symbols: np.ndarray, order: int) -> np.ndarray:
    """The constellation index of each of ``symbols``, as `demap_qam`
    describes."""
    gray, bits = _slicer_tables(order)
    n_levels = gray.size
    norm = np.sqrt(2.0 * (order - 1) / 3.0)
    with np.errstate(invalid="ignore", over="ignore"):
        t_i = symbols.real * norm
        t_q = symbols.imag * norm
        margin = np.multiply(t_i, t_i)
        margin += np.square(t_q)
        margin += n_levels * n_levels
        margin *= _SLICE_MARGIN
        safe = np.ones(symbols.size, dtype=bool)
        levels = []
        for t in (t_i, t_q):
            # r: position in level-index units, thresholds at half-integers
            r = np.subtract(n_levels - 1, t, out=t)
            r *= 0.5
            k = np.rint(r)
            r -= k
            np.abs(r, out=r)
            np.subtract(0.5, r, out=r)  # distance to the nearest threshold
            safe &= r > margin  # False for NaN
            levels.append(np.clip(k, 0, n_levels - 1, out=k))
    k_i, k_q = levels
    unsafe = np.flatnonzero(~safe)  # almost always empty
    k_i[unsafe] = k_q[unsafe] = 0  # a NaN level casts to no index
    idx = gray[k_i.astype(np.intp)]
    idx <<= bits.shape[1] // 2
    idx |= gray[k_q.astype(np.intp)]
    idx[unsafe] = _nearest_points(symbols[unsafe], order)
    return idx


# ---------------------------------------------------------------------------
# Pilots and resource grid assembly
# ---------------------------------------------------------------------------

def pilot_mask(mode: str, spacing: int, n_subcarriers: int, n_symbols: int) -> np.ndarray:
    """Boolean Q x S pilot location mask for the given pilot mode."""
    mask = np.zeros((n_subcarriers, n_symbols), dtype=bool)
    if mode == "scattered":
        mask[::spacing, :] = True
    elif mode == "block":
        mask[:, 0] = True
    else:
        raise ConfigError(f"unknown pilot mode {mode!r}")
    return mask


def pilot_sequence(seed: int, count: int) -> np.ndarray:
    """Deterministic unit-energy QPSK pilot values from a seeded PRBS.

    Transmitter and receiver call this independently with the same seed.
    """
    rng = streams.stream(seed, "pilot-prbs")
    bits = rng.integers(0, 2, size=2 * count)
    return map_qam(bits, 4)


def build_resource_grid(bits, wf_cfg, grid: SubcarrierGrid, seed: int) -> ResourceGrid:
    """Fill a Q x S grid with pilots and Gray-mapped data symbols.

    ``wf_cfg`` provides n_ofdm_symbols, qam_order, pilot_spacing and
    pilot_mode. Bits beyond the data capacity are ignored; too few raise
    ConfigError.
    """
    bits = np.asarray(bits, dtype=np.int8).ravel()
    q, s = grid.num_subcarriers, wf_cfg.n_ofdm_symbols
    mask = pilot_mask(wf_cfg.pilot_mode, wf_cfg.pilot_spacing, q, s)
    if wf_cfg.pilot_mode == "scattered" and q % wf_cfg.pilot_spacing != 0:
        raise ConfigError("pilot_spacing must divide the subcarrier count")
    m = _bits_per_symbol(wf_cfg.qam_order)
    n_data = int(np.count_nonzero(~mask))
    needed = n_data * m
    if bits.size < needed:
        raise ConfigError(f"need {needed} bits to fill {n_data} data positions, got {bits.size}")
    used = bits[:needed]
    symbols = np.zeros((q, s), dtype=np.complex128)
    pilots = pilot_sequence(seed, int(np.count_nonzero(mask)))
    symbols[mask] = pilots
    symbols[~mask] = map_qam(used, wf_cfg.qam_order)
    return ResourceGrid(symbols=symbols, pilot_mask=mask, pilot_values=pilots,
                        data_bits=used, qam_order=wf_cfg.qam_order)


# ---------------------------------------------------------------------------
# OFDM modulation
# ---------------------------------------------------------------------------

def synthesize_symbols(symbols: np.ndarray, grid: SubcarrierGrid, cp_length: int, *,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Time samples for a Q x S symbol array (CP included), no power scaling.

    The bins go straight into FFT order in the body of each frame of the
    result (centered bin i at (i - Q/2) mod n_fft, guard bins zero), which
    is then inverse-transformed in place. The result is fresh, or ``out``
    when given: a contiguous complex array of S frames' samples.
    """
    n = grid.n_fft
    cp = cp_length * grid.oversampling
    if cp >= n:
        raise ConfigError(f"cyclic prefix ({cp}) must be shorter than the FFT ({n})")
    if cp < 0:
        raise ConfigError("cp_length must be >= 0")
    q, s = symbols.shape
    half = q // 2
    if out is None:
        out = np.empty(s * (n + cp), dtype=np.complex128)
    elif out.size != s * (n + cp) or not out.flags.c_contiguous:
        raise LengthError(f"out must be a contiguous array of {s * (n + cp)} samples")
    frames = out.reshape(s, n + cp)
    body = frames[:, cp:]
    body[:, :q - half] = symbols[half:].T
    body[:, q - half:n - half] = 0.0
    body[:, n - half:] = symbols[:half].T
    np.fft.ifft(body, axis=1, out=body)
    body *= n / np.sqrt(grid.num_subcarriers)
    frames[:, :cp] = body[:, n - cp:]
    return out


def extract_symbols(samples: np.ndarray, grid: SubcarrierGrid, cp_length: int,
                    n_symbols: int, *, out: np.ndarray | None = None,
                    in_place: bool = False) -> np.ndarray:
    """Inverse of `synthesize_symbols`: Q x S symbol array from samples.

    The result is a fresh transposed C-order array, or ``out`` (Q x S)
    when given. By default the spectrum is made per call, so ``samples``
    is never written; with ``in_place`` each frame body of ``samples`` is
    transformed where it lies, for a caller that drops the samples after.
    """
    n = grid.n_fft
    q = grid.num_subcarriers
    cp = cp_length * grid.oversampling
    frame = n + cp
    expected = n_symbols * frame
    if samples.size != expected:
        raise LengthError(f"waveform has {samples.size} samples, expected {expected}")
    body = samples.reshape(n_symbols, frame)[:, cp:]
    spec = np.fft.fft(body, axis=1, out=body if in_place else None)
    if out is None:
        out = np.empty((n_symbols, q), dtype=np.complex128).T
    half = q // 2
    scale = n / np.sqrt(q)
    np.divide(spec[:, n - half:], scale, out=out[:half].T)
    np.divide(spec[:, :q - half], scale, out=out[half:].T)
    return out


def ofdm_modulate(rg: ResourceGrid, grid: SubcarrierGrid, cp_length: int) -> TimeWaveform:
    """CP-OFDM waveform for a resource grid.

    Per symbol: the Q entries are centered in a ``Q*os`` spectrum, inverse
    transformed, scaled so mean sample power equals mean grid power, and
    the last ``cp_length*os`` samples are prepended as the cyclic prefix.
    """
    samples = synthesize_symbols(rg.symbols, grid, cp_length)
    return TimeWaveform(samples=samples, sample_rate=grid.sample_rate)


def _power_scale(wf: TimeWaveform, p_dbm: float) -> float:
    """The amplitude factor that brings mean |x|^2 to the dBm target."""
    current = wf.power
    if current == 0.0:
        raise ZeroSignal("cannot set the power of an all-zero waveform")
    target = 10.0 ** ((p_dbm - 30.0) / 10.0)
    return np.sqrt(target / current)
