"""Channel estimation, equalization and the quantitative link metrics.

NMSE is defined on equalized data symbols against the transmitted ones,
so it bundles noise, distortion and estimation error; SNDR is its exact
reciprocal and EVM its square root in percent. BER is the uncoded
hard-decision bit error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NoPilots
from .waveform import ResourceGrid, demap_qam

NMSE_FLOOR_DB = -200.0
ERASURE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class MetricReport:
    nmse_db: float
    sndr_db: float
    evm_percent: float
    ber: float
    n_bits: int
    # always None; kept until the bench reference digests, which hash this
    # record's field list, are next re-recorded
    error_spectrum: np.ndarray | None = None


def estimate_channel(rx_symbols: np.ndarray, pilot_mask: np.ndarray,
                     pilot_values: np.ndarray) -> np.ndarray:
    """Least-squares per-subcarrier estimate of the effective channel.

    ``rx_symbols`` is the Q x S received grid (after combining). Pilot
    ratios Y/X are averaged over the symbols carrying a pilot on each
    subcarrier, then linearly interpolated across subcarriers; endpoints
    extrapolate by the nearest value. The channel is assumed static over
    the frame.
    """
    rx = np.asarray(rx_symbols, dtype=np.complex128)
    mask = np.asarray(pilot_mask, dtype=bool)
    if rx.shape != mask.shape:
        raise DimensionError("pilot mask shape must match the received grid")
    if not mask.any():
        raise NoPilots("pilot mask selects no resource elements")
    q = rx.shape[0]
    counts = mask.sum(axis=1)
    pilot_rows = np.nonzero(counts)[0]
    ratios = np.zeros(q, dtype=np.complex128)
    # the ratios Y/X at the pilots, zero elsewhere, in a C-ordered grid: its
    # row sums must not follow the order of a transposed ``rx``
    per_re = np.zeros(rx.shape, dtype=np.complex128)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_re[mask] = rx[mask] / np.asarray(pilot_values, dtype=np.complex128).ravel()
    ratios[pilot_rows] = per_re.sum(axis=1)[pilot_rows] / counts[pilot_rows]
    if pilot_rows.size == q:
        return ratios
    rows = np.arange(q)
    h_re = np.interp(rows, pilot_rows, ratios[pilot_rows].real)
    h_im = np.interp(rows, pilot_rows, ratios[pilot_rows].imag)
    return h_re + 1j * h_im


def equalize(rx_symbols: np.ndarray, h_hat: np.ndarray,
             data_mask: np.ndarray) -> np.ndarray:
    """Zero-forcing equalization on data positions.

    Subcarriers whose estimate is below the erasure threshold yield 0
    (deterministic erasure; the demapper then emits the index-0 word, a
    coin-flip against random data).
    """
    rx = np.asarray(rx_symbols, dtype=np.complex128)
    h = np.asarray(h_hat, dtype=np.complex128).reshape(-1, 1)
    if h.shape[0] != rx.shape[0]:
        raise DimensionError("estimate length must equal the subcarrier count")
    erased = np.abs(h) < ERASURE_THRESHOLD
    safe = np.where(erased, 1.0, h)
    # only the data positions, in the row-major order of a boolean index
    q, s = np.nonzero(np.asarray(data_mask, dtype=bool))
    return np.where(erased[q, 0], 0.0, rx[q, s] / safe[q, 0])


def nmse(reference: np.ndarray, estimate: np.ndarray) -> float:
    """10*log10(sum |est - ref|^2 / sum |ref|^2), floored at -200 dB;
    `DomainError` when that ratio is not finite, so no link reports a NaN
    or infinite metric."""
    ref = np.asarray(reference, dtype=np.complex128).ravel()
    est = np.asarray(estimate, dtype=np.complex128).ravel()
    if ref.shape != est.shape:
        raise DimensionError("reference and estimate must have equal length")
    denom = float(np.sum(np.abs(ref) ** 2))
    if denom == 0.0:
        raise DimensionError("reference signal is all-zero")
    ratio = float(np.sum(np.abs(est - ref) ** 2)) / denom
    if not np.isfinite(ratio):
        raise DomainError("the estimate is not finite, so its NMSE is undefined")
    if ratio < 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return 10.0 * np.log10(ratio)


def evm_percent_from_nmse(nmse_db: float) -> float:
    return 100.0 * 10.0 ** (nmse_db / 20.0)


def ber(bits_tx, bits_rx) -> float:
    """Hamming distance over length."""
    tx = np.asarray(bits_tx).ravel()
    rx = np.asarray(bits_rx).ravel()
    if tx.shape != rx.shape:
        raise DimensionError("bit vectors must have equal length")
    if tx.size == 0:
        raise DimensionError("bit vectors are empty")
    return float(np.count_nonzero(tx != rx)) / tx.size


def report(tx_grid: ResourceGrid, rx_symbols: np.ndarray,
           h_hat: np.ndarray) -> MetricReport:
    """Equalize, demap and assemble the metric bundle for one link run."""
    data_mask = tx_grid.data_mask
    s_hat = equalize(rx_symbols, h_hat, data_mask)
    s_ref = tx_grid.symbols[data_mask]
    nmse_db = nmse(s_ref, s_hat)
    bits_rx = demap_qam(s_hat, tx_grid.qam_order)
    bit_errors = ber(tx_grid.data_bits, bits_rx)
    return MetricReport(nmse_db=nmse_db, sndr_db=-nmse_db,
                        evm_percent=evm_percent_from_nmse(nmse_db),
                        ber=bit_errors, n_bits=int(tx_grid.data_bits.size))


# ---------------------------------------------------------------------------
# AM/AM extraction from stage taps
# ---------------------------------------------------------------------------

def am_am_extract(stage_taps):
    """(|input|, |output|) sample pairs per tapped stage.

    ``stage_taps`` is an iterable of (label, input samples, output
    samples); pairs are truncated to the common length. Returns a list of
    (label, x, y) in tap order.
    """
    out = []
    for label, x_in, x_out in stage_taps:
        n = min(len(x_in), len(x_out))
        out.append((label, np.abs(np.asarray(x_in)[:n]), np.abs(np.asarray(x_out)[:n])))
    return out
