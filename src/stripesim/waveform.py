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
  resource-grid power; absolute power is then set once by `set_power`.
* ``cp_length`` is counted in critical-rate samples and multiplied by the
  oversampling factor internally, keeping configs os-independent.
"""

from __future__ import annotations

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
        return float(np.mean(np.abs(self.samples) ** 2))

    def with_samples(self, samples: np.ndarray) -> "TimeWaveform":
        return replace(self, samples=samples)


@dataclass(frozen=True)
class ResourceGrid:
    """Q x S symbol array plus pilot bookkeeping.

    Received grids carry only ``symbols``; transmit grids also hold the
    pilot mask/values and the originating data bits.
    """

    symbols: np.ndarray
    pilot_mask: np.ndarray | None = None
    pilot_values: np.ndarray | None = None
    data_bits: np.ndarray | None = None
    qam_order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.complex128))
        if self.symbols.ndim != 2:
            raise LengthError("resource grid symbols must be a Q x S array")
        if self.pilot_mask is not None:
            mask = np.asarray(self.pilot_mask, dtype=bool)
            if mask.shape != self.symbols.shape:
                raise LengthError("pilot mask shape must match symbols")
            object.__setattr__(self, "pilot_mask", mask)

    @property
    def n_subcarriers(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.symbols.shape[1]

    @property
    def data_mask(self) -> np.ndarray:
        if self.pilot_mask is None:
            raise ConfigError("grid carries no pilot layout")
        return ~self.pilot_mask


# ---------------------------------------------------------------------------
# QAM mapping
# ---------------------------------------------------------------------------

def _bits_per_symbol(order: int) -> int:
    m = int(np.log2(order))
    if 2 ** m != order or m % 2 != 0:
        raise ConfigError(f"QAM order must be a power of 4, got {order}")
    return m


def _gray_decode(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < 64:
        b ^= b >> shift
        shift *= 2
    return b


def _axis_levels(bits: np.ndarray, bits_per_axis: int) -> np.ndarray:
    """Map per-axis bit words to PAM levels; all-zero bits -> most positive."""
    weights = 1 << np.arange(bits_per_axis - 1, -1, -1)
    words = bits.astype(np.int64) @ weights
    n_levels = 1 << bits_per_axis
    return (n_levels - 1) - 2 * _gray_decode(words)


def map_qam(bits, order: int) -> np.ndarray:
    """Gray-mapped square QAM symbols with unit average energy.

    The bit word for each symbol is split in half: the first half selects
    the I level, the second half the Q level. Levels are Gray coded with
    the all-zero word on the most positive amplitude, and the constellation
    is normalized by sqrt(2*(M-1)/3) so E|s|^2 = 1.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    m = _bits_per_symbol(order)
    if bits.size % m != 0:
        raise LengthError(f"bit count {bits.size} not divisible by {m}")
    words = bits.reshape(-1, m)
    half = m // 2
    i_lv = _axis_levels(words[:, :half], half)
    q_lv = _axis_levels(words[:, half:], half)
    norm = np.sqrt(2.0 * (order - 1) / 3.0)
    return (i_lv + 1j * q_lv) / norm


def constellation(order: int) -> np.ndarray:
    """All M constellation points indexed by the integer bit word."""
    m = _bits_per_symbol(order)
    words = np.arange(order)
    bits = (words[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    return map_qam(bits.ravel(), order)


def demap_qam(symbols, order: int) -> np.ndarray:
    """Hard-decision demapping (minimum Euclidean distance).

    Ties on a decision boundary resolve to the smallest constellation
    index, i.e. the smallest bit word.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    m = _bits_per_symbol(order)
    points = constellation(order)
    idx = np.empty(symbols.size, dtype=np.int64)
    # chunked full search keeps the tie-break exact without a big matrix;
    # a 1 MB block of distances stays in cache and adds little to the peak
    chunk = max(1, (1 << 16) // order)
    for start in range(0, symbols.size, chunk):
        block = symbols[start:start + chunk]
        d2 = np.abs(block[:, None] - points[None, :]) ** 2
        idx[start:start + block.size] = np.argmin(d2, axis=1)
    bits = (idx[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    return bits.ravel().astype(np.int8)


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

def _embed_centered(symbols: np.ndarray, n_fft: int) -> np.ndarray:
    """Place Q bins centered into (S, n_fft) zero-padded spectra."""
    q, s = symbols.shape
    spec = np.zeros((s, n_fft), dtype=np.complex128)
    lo = n_fft // 2 - q // 2
    spec[:, lo:lo + q] = symbols.T
    return spec


def synthesize_symbols(symbols: np.ndarray, grid: SubcarrierGrid, cp_length: int) -> np.ndarray:
    """Time samples for a Q x S symbol array (CP included), no power scaling."""
    n = grid.n_fft
    cp = cp_length * grid.oversampling
    if cp >= n:
        raise ConfigError(f"cyclic prefix ({cp}) must be shorter than the FFT ({n})")
    if cp < 0:
        raise ConfigError("cp_length must be >= 0")
    spec = np.fft.ifftshift(_embed_centered(symbols, n), axes=1)
    body = np.fft.ifft(spec, axis=1) * (n / np.sqrt(grid.num_subcarriers))
    if cp:
        body = np.concatenate([body[:, -cp:], body], axis=1)
    return body.reshape(-1)


def extract_symbols(samples: np.ndarray, grid: SubcarrierGrid, cp_length: int,
                    n_symbols: int) -> np.ndarray:
    """Inverse of `synthesize_symbols`: Q x S symbol array from samples."""
    n = grid.n_fft
    cp = cp_length * grid.oversampling
    frame = n + cp
    expected = n_symbols * frame
    if samples.size != expected:
        raise LengthError(f"waveform has {samples.size} samples, expected {expected}")
    body = samples.reshape(n_symbols, frame)[:, cp:]
    spec = np.fft.fftshift(np.fft.fft(body, axis=1), axes=1)
    lo = n // 2 - grid.num_subcarriers // 2
    return (spec[:, lo:lo + grid.num_subcarriers] / (n / np.sqrt(grid.num_subcarriers))).T


def ofdm_modulate(rg: ResourceGrid, grid: SubcarrierGrid, cp_length: int) -> TimeWaveform:
    """CP-OFDM waveform for a resource grid.

    Per symbol: the Q entries are centered in a ``Q*os`` spectrum, inverse
    transformed, scaled so mean sample power equals mean grid power, and
    the last ``cp_length*os`` samples are prepended as the cyclic prefix.
    """
    samples = synthesize_symbols(rg.symbols, grid, cp_length)
    return TimeWaveform(samples=samples, sample_rate=grid.sample_rate)


def set_power(wf: TimeWaveform, p_dbm: float) -> TimeWaveform:
    """Scale so mean |x|^2 equals the dBm target (1-ohm reference)."""
    current = wf.power
    if current == 0.0:
        raise ZeroSignal("cannot set the power of an all-zero waveform")
    target = 10.0 ** ((p_dbm - 30.0) / 10.0)
    return wf.with_samples(wf.samples * np.sqrt(target / current))
