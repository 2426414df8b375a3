"""Channel estimation, equalization, NMSE/SNDR/EVM/BER, AM/AM taps."""

import numpy as np
import pytest

from stripesim.channel import TdlParams, tdl_channel
from stripesim.components import AmplifierParams, amplifier_process, noise_power
from stripesim.errors import DimensionError, NoPilots
from stripesim.metrics import (am_am_extract, ber, equalize, estimate_channel,
                               evm_percent_from_nmse, nmse, report)
from stripesim.waveform import (SubcarrierGrid, TimeWaveform,
                                build_resource_grid, pilot_mask)
from stripesim.config import WaveformConfig


# ---------------------------------------------------------------------------
# Channel estimation
# ---------------------------------------------------------------------------

def _pilot_setup(q=32, s=3, spacing=4, seed=1):
    mask = pilot_mask("scattered", spacing, q, s)
    rng = np.random.default_rng(seed)
    values = np.exp(2j * np.pi * rng.random(int(mask.sum())))
    return mask, values


def test_estimate_flat_channel_exact():
    mask, values = _pilot_setup()
    h_true = 0.7 - 0.3j
    rx = np.zeros(mask.shape, complex)
    rx[mask] = h_true * values
    h_hat = estimate_channel(rx, mask, values)
    np.testing.assert_allclose(h_hat, h_true, rtol=1e-12)


def test_estimate_linear_channel_exact_between_pilots():
    q, s = 32, 2
    mask, values = _pilot_setup(q=q, s=s)
    h_true = (np.linspace(0.5, 2.0, q) + 1j * np.linspace(-1.0, 1.0, q))
    full = np.zeros((q, s), complex)
    full[mask] = (h_true[:, None] * np.ones((q, s)))[mask] * values
    h_hat = estimate_channel(full, mask, values)
    # linear interpolation recovers a channel linear in q exactly,
    # including the nearest-value extrapolation beyond the last pilot row
    last_pilot = 28
    np.testing.assert_allclose(h_hat[:last_pilot + 1], h_true[:last_pilot + 1],
                               rtol=1e-12)
    np.testing.assert_allclose(h_hat[last_pilot:], h_true[last_pilot],
                               rtol=1e-12)


def test_estimate_block_mode_direct():
    q, s = 16, 3
    mask = pilot_mask("block", 4, q, s)
    rng = np.random.default_rng(3)
    values = np.exp(2j * np.pi * rng.random(q))
    h_true = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    rx = np.zeros((q, s), complex)
    rx[:, 0] = h_true * values
    h_hat = estimate_channel(rx, mask, values)
    np.testing.assert_allclose(h_hat, h_true, rtol=1e-12)


def test_estimate_denser_pilots_beat_sparse_on_tdl():
    """Estimation MSE at spacing 8 exceeds spacing 2 on a selective channel."""
    q, s = 256, 4
    grid = SubcarrierGrid(157.75e9, 3e9, q, 1)
    rng = np.random.default_rng(7)
    mse = {}
    for spacing in (2, 8):
        errs = []
        for trial in range(20):
            h = tdl_channel(grid, TdlParams(n_taps=16, beta=0.3), 1, 1,
                            np.random.default_rng(100 + trial)).h[:, 0, 0]
            mask = pilot_mask("scattered", spacing, q, s)
            values = np.exp(2j * np.pi * rng.random(int(mask.sum())))
            rx = np.zeros((q, s), complex)
            full = np.zeros((q, s), complex)
            full[mask] = values
            rx[mask] = (h[:, None] * full)[mask]
            noise = (rng.standard_normal((q, s)) + 1j * rng.standard_normal((q, s)))
            rx = rx + 0.01 * noise * mask
            h_hat = estimate_channel(rx, mask, values)
            errs.append(np.mean(np.abs(h_hat - h) ** 2))
        mse[spacing] = np.mean(errs)
    assert mse[8] > mse[2]


def test_estimate_no_pilots():
    with pytest.raises(NoPilots):
        estimate_channel(np.zeros((4, 2), complex), np.zeros((4, 2), bool), [])


# ---------------------------------------------------------------------------
# Equalization
# ---------------------------------------------------------------------------

def test_equalize_exact_inverse():
    rng = np.random.default_rng(5)
    q, s = 16, 2
    sym = rng.standard_normal((q, s)) + 1j * rng.standard_normal((q, s))
    h = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    rx = sym * h[:, None]
    data_mask = np.ones((q, s), bool)
    got = equalize(rx, h, data_mask)
    np.testing.assert_allclose(got, sym.ravel(), rtol=1e-12)


def test_equalize_unity_channel_passes_noise():
    rng = np.random.default_rng(6)
    s = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    n = 0.1 * (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1)))
    got = equalize(s + n, np.ones(8), np.ones((8, 1), bool))
    np.testing.assert_allclose(got - s.ravel(), n.ravel(), atol=1e-14)


def test_equalize_erasure_deterministic():
    rx = np.ones((4, 1), complex)
    h = np.array([1.0, 0.0, 1e-14, 2.0])
    got = equalize(rx, h, np.ones((4, 1), bool))
    assert got[1] == 0.0 and got[2] == 0.0  # below threshold -> erased
    assert got[0] == 1.0 and got[3] == 0.5


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def test_nmse_values():
    s = np.ones(100, complex)
    assert nmse(s, s) == -200.0
    assert abs(nmse(s, np.zeros(100))) < 1e-12  # 0 dB
    e = np.full(100, 0.1 + 0j)
    assert abs(nmse(s, s + e) - (-20.0)) < 1e-9


def test_nmse_scale_invariance():
    rng = np.random.default_rng(8)
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    e = 0.01 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    a = nmse(s, s + e)
    c = 3.7 * np.exp(1j * 0.3)
    b = nmse(c * s, c * (s + e))
    assert abs(a - b) < 1e-10


def test_sndr_and_evm_identities():
    nm = -23.5
    assert evm_percent_from_nmse(nm) == pytest.approx(100 * 10 ** (nm / 20))
    evm = evm_percent_from_nmse(nm)
    assert abs((evm ** 2 / 1e4) - 10 ** (nm / 10)) < 1e-15


def test_ber_basic():
    assert ber([0, 1, 0, 1], [0, 1, 0, 1]) == 0.0
    assert ber([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0
    assert ber([0, 0, 0, 0], [0, 0, 0, 1]) == 0.25
    with pytest.raises(DimensionError):
        ber([0, 1], [0, 1, 1])


def test_ber_estimator_unbiased():
    """Sample mean over 100 seeds converges to the true flip rate."""
    p, n = 0.01, 100_000
    rates = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        tx = rng.integers(0, 2, n)
        flips = rng.random(n) < p
        rates.append(ber(tx, tx ^ flips))
    mean = np.mean(rates)
    sigma = np.sqrt(p * (1 - p) / n / 100)
    assert abs(mean - p) < 3 * sigma


def test_report_bundle():
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    wf = WaveformConfig(n_ofdm_symbols=2, qam_order=4, cp_length=4,
                        pilot_spacing=8, pilot_mode="scattered")
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, 2 * 32 * 2)
    rg = build_resource_grid(bits, wf, grid, seed=3)
    rep = report(rg, rg.symbols.copy(), np.ones(32))
    assert rep.ber == 0.0
    assert rep.nmse_db == -200.0
    assert rep.sndr_db == 200.0
    assert rep.n_bits == rg.data_bits.size


# ---------------------------------------------------------------------------
# AM/AM extraction
# ---------------------------------------------------------------------------

def test_am_am_ideal_stage_on_line():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    taps = [("stage", x, 3.0 * x)]
    [(label, xs, ys)] = am_am_extract(taps)
    assert label == "stage"
    np.testing.assert_allclose(ys, 3.0 * xs, rtol=1e-12)


def test_am_am_soft_limiter_capped():
    rng = np.random.default_rng(11)
    x = TimeWaveform(2.0 * (rng.standard_normal(4096)
                            + 1j * rng.standard_normal(4096)), 1e9)
    p = AmplifierParams(gain_db=6.0, mode="soft_limiter", sat_amplitude=1.0)
    y = amplifier_process(x.samples, p, np.random.default_rng(0))
    [(_, xs, ys)] = am_am_extract([("pa", x.samples, y)])
    assert ys.max() <= p.gain_linear * 1.0 + 1e-9


def test_am_am_noisy_stage_scatter():
    """Vertical scatter approx sqrt(G^2 sigma^2 / 2) per quadrature."""
    n = 200_000
    drive = 50.0  # |x| >> sigma so the tangential component dominates
    x = TimeWaveform(np.full(n, drive + 0j), 3e9)
    p = AmplifierParams(gain_db=6.0, nf_db=10.0, bandwidth=3e9)
    y = amplifier_process(x.samples, p, np.random.default_rng(12))
    [(_, xs, ys)] = am_am_extract([("amp", x.samples, y)])
    resid = ys - np.mean(ys)
    sigma_w2 = noise_power(10.0, 3e9)
    expected = np.sqrt(p.gain_linear ** 2 * sigma_w2 / 2)
    assert abs(np.std(resid) / expected - 1.0) < 0.02

