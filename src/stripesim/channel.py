"""Per-subcarrier wireless MIMO channel models and application.

All models produce a Q x Nrx x Ntx tensor H with ``H[q][k, m]`` the
coefficient from transmit element m to receive element k at subcarrier q,
decomposed into a free-space power gain between isotropic elements and
a unit-mean-square small-scale term:

* line of sight - deterministic unit-magnitude phase rotation,
* uncorrelated Rayleigh - i.i.d. CN(0, 1) across (q, m, k),
* tapped delay line - L taps with exponentially decaying powers
  e^{-beta*l}, normalized to unit total power, zero-padded and taken to
  the frequency domain with a Q-point DFT.

Application is an independent matrix product per subcarrier:
``y[q] = H[q] x[q]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .components import BOLTZMANN, add_complex_noise
from .errors import ConfigError, DimensionError, DomainError
from .waveform import SubcarrierGrid

SPEED_OF_LIGHT = 299_792_458.0  # m/s
BULK_DELAY_STEPS = 64  # `bulk_delay` resolution: steps per 1/bw
AIR_BLOCK = 512  # subcarriers per block of an `apply_channel` over its input


@dataclass(frozen=True)
class ChannelRealization:
    """One frozen channel draw: the Q x Nrx x Ntx complex tensor ``h`` on
    ``grid``, whatever model or dataset made it."""

    h: np.ndarray
    grid: SubcarrierGrid

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 3:
            raise DimensionError("channel tensor must be Q x Nrx x Ntx")
        if h.shape[0] != self.grid.num_subcarriers:
            raise DimensionError("channel tensor first axis must equal Q")
        if not np.all(np.isfinite(h)):
            raise DomainError("channel tensor contains non-finite entries")
        object.__setattr__(self, "h", h)

    def transposed(self) -> "ChannelRealization":
        """Reverse-link view (reciprocity): swaps the antenna axes."""
        return ChannelRealization(h=np.transpose(self.h, (0, 2, 1)), grid=self.grid)


@dataclass(frozen=True)
class TdlParams:
    """Tap count and per-tap exponential decay rate."""

    n_taps: int = 8
    beta: float = 0.5

    def __post_init__(self):
        if self.n_taps < 1:
            raise DomainError("n_taps must be >= 1")
        if not 0 <= self.beta < np.inf:
            raise DomainError("beta must be finite and >= 0")


# ---------------------------------------------------------------------------
# Large-scale factors
# ---------------------------------------------------------------------------

def free_space_gain(distance, frequency):
    """Free-space power path gain (c / (4 pi f d))^2."""
    d = np.asarray(distance, dtype=np.float64)
    f = np.asarray(frequency, dtype=np.float64)
    if np.any(d <= 0):
        raise DomainError("distance must be positive")
    if np.any(f <= 0):
        raise DomainError("frequency must be positive")
    out = (SPEED_OF_LIGHT / (4.0 * np.pi * f * d)) ** 2
    return float(out) if out.ndim == 0 else out


def ula_positions(center, axis, n_elements: int, wavelength: float) -> np.ndarray:
    """Half-wavelength-spaced linear array centered on ``center``."""
    center = np.asarray(center, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise DomainError("array axis must be nonzero")
    axis = axis / norm
    offsets = (np.arange(n_elements) - (n_elements - 1) / 2.0) * wavelength / 2.0
    return center[None, :] + offsets[:, None] * axis[None, :]


# ---------------------------------------------------------------------------
# Channel models
# ---------------------------------------------------------------------------

def _pairwise_distances(tx_positions: np.ndarray, rx_positions: np.ndarray) -> np.ndarray:
    diff = tx_positions[:, None, :] - rx_positions[None, :, :]
    return np.linalg.norm(diff, axis=-1)  # (n_tx, n_rx)


def los_channel(grid: SubcarrierGrid, tx_positions, rx_positions) -> ChannelRealization:
    """Deterministic line-of-sight channel between isotropic elements.

    ``h[q, k, m] = sqrt(b_fs(d_mk, f_q)) * e^{-j 2 pi f_q d_mk / c}``
    with per-pair element distances.
    """
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=np.float64))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=np.float64))
    d = _pairwise_distances(tx, rx)
    if np.any(d == 0):
        raise DomainError("transmit and receive elements must not coincide")
    f = grid.frequencies()[:, None, None]
    amp = np.sqrt(free_space_gain(d[None, :, :], f))
    phase = np.exp(-2j * np.pi * f * d[None, :, :] / SPEED_OF_LIGHT)
    h_qmk = amp * phase  # (Q, n_tx, n_rx)
    return ChannelRealization(h=np.transpose(h_qmk, (0, 2, 1)), grid=grid)


def _large_scale(grid: SubcarrierGrid, distance) -> np.ndarray:
    """Per-subcarrier amplitude factor for stochastic models (centroid
    distance); 1.0 when no distance is given."""
    if distance is None:
        return np.ones(grid.num_subcarriers)
    return np.sqrt(free_space_gain(float(distance), grid.frequencies()))


def rayleigh_channel(grid: SubcarrierGrid, n_tx: int, n_rx: int,
                     rng: np.random.Generator,
                     distance: float | None = None) -> ChannelRealization:
    """Uncorrelated Rayleigh fading: CN(0, 1) i.i.d. across (q, m, k)."""
    q = grid.num_subcarriers
    g = (rng.standard_normal((q, n_rx, n_tx))
         + 1j * rng.standard_normal((q, n_rx, n_tx))) / np.sqrt(2.0)
    h = g * _large_scale(grid, distance)[:, None, None]
    return ChannelRealization(h=h, grid=grid)


def tap_powers(n_taps: int, beta: float) -> np.ndarray:
    """Normalized exponential power-delay profile e^{-beta*l}, sum = 1."""
    if n_taps < 1:
        raise DomainError("n_taps must be >= 1")
    if beta < 0:
        raise DomainError("beta must be >= 0")
    raw = np.exp(-beta * np.arange(n_taps))
    return raw / raw.sum()


def tdl_channel(grid: SubcarrierGrid, params: TdlParams, n_tx: int, n_rx: int,
                rng: np.random.Generator,
                distance: float | None = None) -> ChannelRealization:
    """Rayleigh tapped-delay-line channel.

    Per antenna pair: L i.i.d. CN(0,1) taps scaled by sqrt of the
    normalized exponential profile, zero-padded to Q and taken through a
    Q-point DFT. High beta concentrates power in the first tap, i.e.
    flatter channels.
    """
    q = grid.num_subcarriers
    if params.n_taps > q:
        raise DomainError(f"tap count {params.n_taps} exceeds {q} subcarriers")
    lam = tap_powers(params.n_taps, params.beta)
    taps = (rng.standard_normal((n_rx, n_tx, params.n_taps))
            + 1j * rng.standard_normal((n_rx, n_tx, params.n_taps))) / np.sqrt(2.0)
    taps = taps * np.sqrt(lam)[None, None, :]
    g_f = np.fft.fft(taps, n=q, axis=-1)  # zero-pads to Q
    h = np.transpose(g_f, (2, 0, 1)) * _large_scale(grid, distance)[:, None, None]
    return ChannelRealization(h=h, grid=grid)


def identity_channel(grid: SubcarrierGrid, n: int = 1) -> ChannelRealization:
    """Unit diagonal channel on every subcarrier (loopback fixture)."""
    h = np.broadcast_to(np.eye(n, dtype=np.complex128),
                        (grid.num_subcarriers, n, n)).copy()
    return ChannelRealization(h=h, grid=grid)


def model_channel(grid: SubcarrierGrid, model: str, tx_positions, rx_positions,
                  stream_key: tuple, tdl_params: TdlParams | None = None) -> ChannelRealization:
    """The 'los', 'rayleigh' or 'tdl' realization between two element
    arrays, the same for a model run and the synthetic dataset. A random
    model draws from ``streams.stream(*stream_key)`` and takes its
    large-scale gain at the distance between the arrays' centroids."""
    if model == "los":
        return los_channel(grid, tx_positions, rx_positions)
    if model not in ("rayleigh", "tdl"):
        raise ConfigError(f"unknown channel model {model!r}")
    rng = streams.stream(*stream_key)
    centroid = float(np.linalg.norm(np.mean(tx_positions, axis=0)
                                    - np.mean(rx_positions, axis=0)))
    n_tx, n_rx = len(tx_positions), len(rx_positions)
    if model == "rayleigh":
        return rayleigh_channel(grid, n_tx, n_rx, rng, distance=centroid)
    return tdl_channel(grid, tdl_params or TdlParams(), n_tx, n_rx, rng, distance=centroid)


# ---------------------------------------------------------------------------
# Application and receiver noise
# ---------------------------------------------------------------------------

def apply_channel(x: np.ndarray, realization: ChannelRealization, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """y[q] = H[q] x[q] independently per subcarrier.

    ``x`` is (Q, Ntx) or (Q, Ntx, S); the result replaces the antenna axis
    with Nrx. No inter-carrier mixing. The result is written into ``out``,
    which may be ``x`` itself, or, by default, a fresh array. An ``out``
    that shares memory with ``x`` must be C-ordered from ``x``'s first
    element, as ``x`` is, with Nrx <= Ntx (the leading part of ``x``'s
    buffer, reshaped): each block of `AIR_BLOCK` subcarriers is then
    contracted through a small temporary and overwrites only input rows
    already read. Every path gives the same bits.
    """
    x = np.asarray(x, dtype=np.complex128)
    h = realization.h
    if x.ndim not in (2, 3) or x.shape[0] != h.shape[0] or x.shape[1] != h.shape[2]:
        raise DimensionError(
            f"input shape {x.shape} incompatible with channel {h.shape}")
    spec = "qkm,qm->qk" if x.ndim == 2 else "qkm,qms->qks"
    shape = (h.shape[0], h.shape[1], *x.shape[2:])
    if out is not None and out.shape != shape:
        raise DimensionError(f"out has shape {out.shape}, the result {shape}")
    if out is None or not np.shares_memory(out, x):
        return np.einsum(spec, h, x, out=out)
    if not (out.ctypes.data == x.ctypes.data and out.flags.c_contiguous
            and x.flags.c_contiguous and h.shape[1] <= h.shape[2]):
        raise DimensionError("an out that shares memory with x must be the "
                             "leading part of x's C-ordered buffer, with Nrx <= Ntx")
    tmp = np.empty((min(AIR_BLOCK, shape[0]), *shape[1:]), dtype=np.complex128)
    for q0 in range(0, shape[0], AIR_BLOCK):
        q1 = min(q0 + AIR_BLOCK, shape[0])
        out[q0:q1] = np.einsum(spec, h[q0:q1], x[q0:q1], out=tmp[:q1 - q0])
    return out


def bulk_delay(realization: ChannelRealization) -> float:
    """Bulk group delay of a realization, for receiver timing sync.

    The average phase step between adjacent subcarriers (summed over all
    antenna pairs) gives the dominant propagation delay; the result is
    quantized to ``1/(BULK_DELAY_STEPS * bw)``, 1/64 of a sample at the
    channel's bandwidth, so float32-stored and freshly computed
    realizations of the same channel sync identically.
    """
    h = realization.h
    corr = np.sum(h[1:] * np.conj(h[:-1]))
    if corr == 0:
        return 0.0
    df = realization.grid.delta_f
    tau = -float(np.angle(corr)) / (2.0 * np.pi * df)
    step = 1.0 / (BULK_DELAY_STEPS * realization.grid.bw)
    return round(tau / step) * step


def timing_advance(symbols: np.ndarray, grid: SubcarrierGrid,
                   tau: float) -> np.ndarray:
    """Undo a bulk delay: per-subcarrier rotation e^{+j 2 pi (q - Q/2) df tau}.

    Removes the steep phase ramp a propagation delay leaves on the
    received grid so pilot interpolation can track the residual channel.
    """
    if tau == 0.0:
        return symbols
    q = np.arange(grid.num_subcarriers) - grid.num_subcarriers // 2
    ramp = np.exp(2j * np.pi * q * grid.delta_f * tau)
    return symbols * ramp.reshape((-1,) + (1,) * (symbols.ndim - 1))


def thermal_noise_power(bandwidth: float, nf_db: float,
                        temperature: float = 290.0) -> float:
    """Receiver noise floor kT*B*F in watts."""
    if bandwidth <= 0:
        raise DomainError("bandwidth must be positive")
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    return BOLTZMANN * temperature * bandwidth * 10.0 ** (nf_db / 10.0)


def add_thermal_noise(y: np.ndarray, bandwidth: float, nf_db: float,
                      rng: np.random.Generator,
                      temperature: float = 290.0, *, out=None) -> np.ndarray:
    """Add the receiver noise floor to per-subcarrier data.

    Grid entries are in mean-sample-power units, so the full in-band
    thermal power kT*B*F appears as the per-bin complex-Gaussian variance;
    bins and antennas receive independent draws. The result goes into
    ``out`` (which may be ``y`` itself) or, by default, a fresh array.
    """
    y = np.asarray(y, dtype=np.complex128)
    var = thermal_noise_power(bandwidth, nf_db, temperature)
    return add_complex_noise(y, np.sqrt(var / 2.0), rng, out=out)


def add_awgn(y: np.ndarray, snr_db: float, rng: np.random.Generator, *,
             out=None) -> np.ndarray:
    """Add complex Gaussian noise at a target SNR relative to ``y``'s mean
    power, into ``out`` as `add_thermal_noise` does."""
    y = np.asarray(y, dtype=np.complex128)
    var = float(np.mean(np.abs(y) ** 2)) * 10.0 ** (-snr_db / 10.0)
    return add_complex_noise(y, np.sqrt(var / 2.0), rng, out=out)
