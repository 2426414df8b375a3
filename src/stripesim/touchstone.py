"""Two-port Touchstone (.s2p) parsing and S21 grid conversion.

Only Touchstone 1.x two-port files are handled: '!' comments, one '#'
option line, data rows of frequency + 8 reals ordered S11 S21 S12 S22.
Noise-parameter rows after the S data are skipped with a warning.

The S21 trace turns into a `FrequencyResponse` by linear interpolation of
the real and imaginary parts onto a `SubcarrierGrid`, and into a
discrete-time `ImpulseResponse` by a baseband-centered inverse DFT.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyNetwork, ExtrapolationWarning, LengthError, TouchstoneError
from .waveform import SubcarrierGrid

# A gain, loss, noise figure, power (dBm) or S-parameter beyond this many dB
# is no hardware value, and 10 ** (x / 10) of one far beyond it overflows.
MAX_DB = 300.0

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("ri", "ma", "db")


@dataclass(frozen=True)
class TwoPortNetwork:
    """Measured two-port S-parameters on an ascending frequency axis."""

    freqs: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    ref_impedance: float = 50.0
    source_format: str = "RI"

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=np.float64))
        for name in ("s11", "s21", "s12", "s22"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
            if getattr(self, name).shape != self.freqs.shape:
                raise TouchstoneError(TouchstoneError.BAD_ROW_ARITY,
                                      f"{name} length differs from frequency axis")

    @property
    def n_points(self) -> int:
        return self.freqs.size


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex response sampled on the subcarriers of a grid."""

    grid: SubcarrierGrid
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.size != self.grid.num_subcarriers:
            raise TouchstoneError(TouchstoneError.BAD_ROW_ARITY,
                                  "response length must equal the subcarrier count")
        if not np.all(np.isfinite(h)):
            raise EmptyNetwork("frequency response contains non-finite values")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class ImpulseResponse:
    """Discrete-time taps plus the fraction of energy kept by truncation."""

    h: np.ndarray
    sample_rate: float
    captured_energy: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.complex128))

    @property
    def n_taps(self) -> int:
        return self.h.size


def _convert_pair(a: np.ndarray, b: np.ndarray, fmt: str) -> np.ndarray:
    if fmt == "ri":
        return a + 1j * b
    if fmt == "ma":
        return a * np.exp(1j * np.deg2rad(b))
    if fmt == "db":
        return 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
    raise TouchstoneError(TouchstoneError.UNKNOWN_FORMAT, f"format {fmt!r}")


def _parse_option_line(line: str) -> tuple[float, str, float]:
    """Return (freq scale, format, reference impedance) from a '#' line."""
    tokens = line[1:].lower().split()
    scale, fmt, r = 1e9, "ma", 50.0  # Touchstone defaults
    expect_r = False
    for tok in tokens:
        if expect_r:
            try:
                r = float(tok)
            except ValueError:
                raise TouchstoneError(TouchstoneError.UNKNOWN_FORMAT,
                                      f"bad reference impedance {tok!r}")
            # a finite R > 0, at most MAX_DB dB above one ohm
            if not 0.0 < r <= 10.0 ** (MAX_DB / 20.0):
                raise TouchstoneError(TouchstoneError.UNKNOWN_FORMAT,
                                      f"reference impedance {tok!r} is not a finite R > 0 "
                                      f"of at most {10.0 ** (MAX_DB / 20.0):g} ohm")
            expect_r = False
        elif tok in _FREQ_UNITS:
            scale = _FREQ_UNITS[tok]
        elif tok in _FORMATS:
            fmt = tok
        elif tok == "r":
            expect_r = True
        elif tok == "s":
            pass
        elif tok in ("y", "z", "h", "g"):
            raise TouchstoneError(TouchstoneError.UNKNOWN_FORMAT,
                                  f"only S-parameters are supported, got {tok.upper()!r}")
        else:
            raise TouchstoneError(TouchstoneError.UNKNOWN_FORMAT,
                                  f"unrecognized option token {tok!r}")
    return scale, fmt, r


def parse_touchstone(text: str) -> TwoPortNetwork:
    """Parse Touchstone 1.x two-port text into linear complex S-parameters.

    Raises
    ------
    TouchstoneError
        With kind MissingOptionLine, BadRowArity, NonMonotonicFrequency,
        UnknownFormat, NonFiniteValue (a frequency or S-parameter that is
        not finite once scaled and converted, as a DB entry of 1e308 is) or
        MagnitudeTooLarge (an S-parameter above `MAX_DB` dB, as an RI
        entry of 1e308 is).
    """
    option = None
    rows: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if option is None:
                option = _parse_option_line(line)
            continue
        if option is None:
            raise TouchstoneError(TouchstoneError.MISSING_OPTION_LINE,
                                  "data encountered before the '#' option line")
        tokens = line.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise TouchstoneError(TouchstoneError.BAD_ROW_ARITY,
                                  f"non-numeric data row: {line!r}")
        if len(values) != 9:
            if rows:
                # trailing noise-parameter section; not modeled
                warnings.warn("ignoring noise-parameter rows after S data",
                              UserWarning, stacklevel=2)
                break
            raise TouchstoneError(TouchstoneError.BAD_ROW_ARITY,
                                  f"expected 9 values per row, got {len(values)}")
        rows.append(values)
    if option is None:
        raise TouchstoneError(TouchstoneError.MISSING_OPTION_LINE,
                              "file contains no '#' option line")
    if not rows:
        raise TouchstoneError(TouchstoneError.BAD_ROW_ARITY, "file contains no data rows")
    scale, fmt, r = option
    data = np.asarray(rows, dtype=np.float64)
    with np.errstate(all="ignore"):  # an overflow is caught just below
        freqs = data[:, 0] * scale
        params = [_convert_pair(data[:, 1 + 2 * i], data[:, 2 + 2 * i], fmt)
                  for i in range(4)]
    bad = ~np.isfinite(freqs) | ~np.all(np.isfinite(params), axis=0)
    if np.any(bad):
        raise TouchstoneError(TouchstoneError.NON_FINITE_VALUE,
                              f"data row {int(np.argmax(bad)) + 1} holds a non-finite "
                              f"frequency or S-parameter")
    with np.errstate(over="ignore"):  # |1e308 + 1e308j| is inf, and too large
        large = np.any(np.abs(params) > 10.0 ** (MAX_DB / 20.0), axis=0)
    if np.any(large):
        raise TouchstoneError(TouchstoneError.MAGNITUDE_TOO_LARGE,
                              f"data row {int(np.argmax(large)) + 1} holds an S-parameter "
                              f"above {MAX_DB:g} dB")
    if np.any(np.diff(freqs) <= 0):
        raise TouchstoneError(TouchstoneError.NON_MONOTONIC_FREQUENCY,
                              "frequencies must be strictly increasing")
    return TwoPortNetwork(freqs=freqs, s11=params[0], s21=params[1],
                          s12=params[2], s22=params[3],
                          ref_impedance=r, source_format=fmt.upper())


def read_touchstone(path) -> TwoPortNetwork:
    """Parse an .s2p file from disk; a missing or undecodable file is a
    `TouchstoneError` naming it."""
    p = Path(path)
    if not p.is_file():
        raise TouchstoneError(TouchstoneError.FILE_NOT_FOUND, str(p))
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise TouchstoneError(TouchstoneError.UNDECODABLE_TEXT, f"{p}: {exc}") from None
    return parse_touchstone(text)


def interpolate_s21(net: TwoPortNetwork, grid: SubcarrierGrid) -> FrequencyResponse:
    """S21 linearly interpolated (Re/Im separately) onto the grid.

    Grid frequencies outside the measured span clamp to the endpoint value
    and emit a single `ExtrapolationWarning`.
    """
    if net.n_points == 0:
        raise EmptyNetwork("network has no frequency points")
    f = grid.frequencies()
    if f[0] < net.freqs[0] or f[-1] > net.freqs[-1]:
        warnings.warn(
            f"grid [{f[0]:.4g}, {f[-1]:.4g}] Hz extends beyond the measured span "
            f"[{net.freqs[0]:.4g}, {net.freqs[-1]:.4g}] Hz; clamping to endpoints",
            ExtrapolationWarning, stacklevel=2)
    re = np.interp(f, net.freqs, net.s21.real)
    im = np.interp(f, net.freqs, net.s21.imag)
    return FrequencyResponse(grid=grid, h=re + 1j * im)


def to_impulse_response(fr: FrequencyResponse, n_taps: int = 256) -> ImpulseResponse:
    """Baseband impulse response of a grid-sampled frequency response.

    The response is reordered so bin q = Q/2 becomes DC, inverse
    transformed with a Q-point IDFT, and truncated to the first ``n_taps``
    taps. ``captured_energy`` reports the retained energy fraction so the
    truncation stays auditable.
    """
    q = fr.grid.num_subcarriers
    if not 1 <= n_taps <= q:
        raise LengthError(f"tap count must lie in [1, {q}], got {n_taps}")
    full = np.fft.ifft(np.fft.ifftshift(fr.h))
    taps = full[:n_taps]
    total = float(np.sum(np.abs(full) ** 2))
    kept = float(np.sum(np.abs(taps) ** 2))
    fraction = 1.0 if total == 0.0 else kept / total
    return ImpulseResponse(h=taps, sample_rate=fr.grid.sample_rate,
                           captured_energy=fraction)


def response_to_spectrum(ir: ImpulseResponse, num_subcarriers: int) -> np.ndarray:
    """Grid-ordered spectrum of zero-padded taps (inverse of the IDFT above)."""
    if ir.n_taps > num_subcarriers:
        raise LengthError(f"{ir.n_taps} taps exceed the requested {num_subcarriers}-point DFT")
    padded = np.zeros(num_subcarriers, dtype=np.complex128)
    padded[:ir.n_taps] = ir.h
    return np.fft.fftshift(np.fft.fft(padded))
