"""Channel models: free-space gain, LoS/Rayleigh/TDL, noise and sync."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripesim import channel
from stripesim.channel import (ChannelRealization, SPEED_OF_LIGHT, TdlParams,
                               add_awgn, add_thermal_noise, apply_channel,
                               bulk_delay, free_space_gain, identity_channel,
                               los_channel, rayleigh_channel, tap_powers,
                               tdl_channel, thermal_noise_power, timing_advance)
from stripesim.errors import DimensionError, DomainError
from stripesim.waveform import SubcarrierGrid


def _grid(q=256, fc=157.75e9, bw=3e9):
    return SubcarrierGrid(fc, bw, q, 1)


# ---------------------------------------------------------------------------
# Free-space gain
# ---------------------------------------------------------------------------

def test_free_space_gain_unity_distance():
    f = 157.75e9
    d = SPEED_OF_LIGHT / (4 * np.pi * f)
    assert abs(free_space_gain(d, f) - 1.0) < 1e-12


def test_free_space_gain_spot_value_high_precision():
    """1 m at 157.75 GHz against an mpmath oracle."""
    mpmath.mp.dps = 40
    c = mpmath.mpf("299792458")
    f = mpmath.mpf("157.75e9")
    oracle = (c / (4 * mpmath.pi * f)) ** 2
    got = free_space_gain(1.0, 157.75e9)
    assert abs(got / float(oracle) - 1.0) < 1e-12
    got_db = 10 * np.log10(got)
    oracle_db = float(10 * mpmath.log10(oracle))
    assert abs(got_db - oracle_db) < 1e-9
    assert abs(got_db - (-76.40)) < 0.01


def test_free_space_gain_inverse_square():
    assert abs(free_space_gain(2.0, 1e11) / free_space_gain(1.0, 1e11) - 0.25) < 1e-12


def test_free_space_gain_domain():
    with pytest.raises(DomainError):
        free_space_gain(0.0, 1e9)
    with pytest.raises(DomainError):
        free_space_gain(-1.0, 1e9)


# ---------------------------------------------------------------------------
# LoS
# ---------------------------------------------------------------------------

def test_los_magnitude_is_sqrt_beta():
    grid = _grid(q=64)
    tx = [(0.0, 0.0, 1.0)]
    rx = [(2.0, 1.0, 1.5)]
    real = los_channel(grid, tx, rx)
    d = np.linalg.norm(np.array(rx[0]) - np.array(tx[0]))
    expected = np.sqrt(free_space_gain(d, grid.frequencies()))
    np.testing.assert_allclose(np.abs(real.h[:, 0, 0]), expected, rtol=1e-14)


def test_los_full_cycle_phase():
    grid = _grid(q=16)
    q_probe = 5
    f_q = grid.frequencies()[q_probe]
    d = 1000 * SPEED_OF_LIGHT / f_q  # integer number of cycles
    real = los_channel(grid, [(0.0, 0.0, 0.0)], [(d, 0.0, 0.0)])
    phase = real.h[q_probe, 0, 0] / abs(real.h[q_probe, 0, 0])
    assert abs(phase - 1.0) < 1e-6


def test_los_magnitude_smooth_monotone_in_frequency():
    grid = _grid(q=4096)
    real = los_channel(grid, [(0.0, 0.0, 0.0)], [(2.0, 0.0, 0.0)])
    mags = np.abs(real.h[:, 0, 0])
    assert np.all(np.diff(mags) < 0)  # |h| ~ 1/f_q strictly decreasing


def test_los_coincident_positions():
    with pytest.raises(DomainError):
        los_channel(_grid(q=16), [(1.0, 1.0, 1.0)], [(1.0, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# Rayleigh
# ---------------------------------------------------------------------------

def test_rayleigh_unit_variance_zero_mean():
    grid = SubcarrierGrid(157.75e9, 3e9, 65536, 1)
    rng = np.random.default_rng(100)
    real = rayleigh_channel(grid, 4, 4, rng)
    g = real.h.ravel()  # > 1e6 draws
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01
    assert abs(np.mean(g)) < 3 / np.sqrt(g.size)


def test_rayleigh_independent_across_subcarriers():
    grid = SubcarrierGrid(157.75e9, 3e9, 1 << 20, 1)
    rng = np.random.default_rng(101)
    g = rayleigh_channel(grid, 1, 1, rng).h[:, 0, 0]
    lag1 = np.abs(np.mean(g[1:] * np.conj(g[:-1])))
    assert lag1 < 0.01


def test_rayleigh_large_scale_from_distance():
    grid = _grid(q=1024)
    rng = np.random.default_rng(102)
    d = 3.0
    real = rayleigh_channel(grid, 2, 2, rng, distance=d)
    scale = np.sqrt(free_space_gain(d, grid.fc))
    spread = np.mean(np.abs(real.h) ** 2)
    assert abs(spread / scale ** 2 - 1.0) < 0.1


# ---------------------------------------------------------------------------
# TDL
# ---------------------------------------------------------------------------

def test_tap_powers_spot_values():
    lam = tap_powers(3, 1.0)
    raw = np.exp(-1.0 * np.arange(3))
    np.testing.assert_allclose(lam, raw / raw.sum(), rtol=1e-15)
    np.testing.assert_allclose(lam, [0.66524, 0.24473, 0.09003], atol=5e-5)


def test_tap_powers_uniform_and_single():
    np.testing.assert_allclose(tap_powers(5, 0.0), np.full(5, 0.2))
    np.testing.assert_array_equal(tap_powers(1, 3.0), [1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 64), st.floats(0.0, 10.0))
def test_tap_powers_always_normalized(n, beta):
    assert abs(tap_powers(n, beta).sum() - 1.0) < 1e-12


def test_tdl_single_tap_is_flat():
    grid = _grid(q=128)
    real = tdl_channel(grid, TdlParams(n_taps=1, beta=0.0), 1, 1,
                       np.random.default_rng(7))
    g = real.h[:, 0, 0]
    np.testing.assert_allclose(g, g[0], rtol=1e-12)


def test_tdl_tap_power_profile_monte_carlo():
    """Empirical per-tap powers and per-subcarrier unit energy."""
    n_real = 20_000
    params = TdlParams(n_taps=8, beta=0.5)
    lam = tap_powers(8, 0.5)
    rng = np.random.default_rng(9)
    grid = _grid(q=64)
    taps_acc = np.zeros(8)
    sub_acc = np.zeros(64)
    for _ in range(n_real // 100):
        real = tdl_channel(grid, params, 10, 10, rng)  # 100 pairs per call
        g_t = np.fft.ifft(np.transpose(real.h, (1, 2, 0)), axis=-1)[:, :, :8]
        taps_acc += np.sum(np.abs(g_t) ** 2, axis=(0, 1))
        sub_acc += np.sum(np.abs(real.h) ** 2, axis=(1, 2))
    taps_acc /= n_real
    sub_acc /= n_real
    np.testing.assert_allclose(taps_acc, lam, rtol=0.02)
    np.testing.assert_allclose(sub_acc, 1.0, rtol=0.02)


def test_tdl_beta_controls_flatness():
    grid = _grid(q=256)
    spreads = []
    for beta in (0.0, 1.0, 4.0):
        rng = np.random.default_rng(11)
        acc = 0.0
        for _ in range(1000 // 50):
            real = tdl_channel(grid, TdlParams(n_taps=8, beta=beta), 50, 1, rng)
            mags = np.abs(real.h[:, 0, :])
            acc += np.mean(np.var(mags, axis=0))
        spreads.append(acc)
    assert spreads[0] > spreads[1] > spreads[2]


def test_tdl_too_many_taps():
    with pytest.raises(DomainError):
        tdl_channel(_grid(q=16), TdlParams(n_taps=17), 1, 1,
                    np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Application + noise
# ---------------------------------------------------------------------------

def test_apply_channel_identity():
    grid = _grid(q=32)
    x = np.arange(64, dtype=complex).reshape(32, 2)
    y = apply_channel(x, identity_channel(grid, 2))
    np.testing.assert_array_equal(y, x)


def test_apply_channel_scalar():
    grid = _grid(q=8)
    h = (np.arange(8, dtype=complex) + 1.0).reshape(8, 1, 1)
    real = ChannelRealization(h=h, grid=grid)
    x = np.ones((8, 1), complex)
    y = apply_channel(x, real)
    np.testing.assert_allclose(y[:, 0], h[:, 0, 0])


def test_apply_channel_against_triple_loop_oracle():
    rng = np.random.default_rng(13)
    grid = SubcarrierGrid(1e9, 1e8, 4, 1)
    h = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    real = ChannelRealization(h=h, grid=grid)
    got = apply_channel(x, real)
    oracle = np.zeros((4, 2), complex)
    for q in range(4):
        for k in range(2):
            for m in range(2):
                oracle[q, k] += h[q, k, m] * x[q, m]
    np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_apply_channel_linearity():
    rng = np.random.default_rng(14)
    grid = _grid(q=16)
    real = rayleigh_channel(grid, 2, 3, rng)
    x1 = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    x2 = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    a, b = 2.0 - 1j, -0.3 + 0.7j
    lhs = apply_channel(a * x1 + b * x2, real)
    rhs = a * apply_channel(x1, real) + b * apply_channel(x2, real)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_channel_dimension_error():
    grid = _grid(q=16)
    with pytest.raises(DimensionError):
        apply_channel(np.ones((16, 3), complex), identity_channel(grid, 2))
    with pytest.raises(DimensionError):
        apply_channel(np.ones((8, 2), complex), identity_channel(grid, 2))


@pytest.mark.parametrize("block", [48, None])
@pytest.mark.parametrize("n_rx, n_tx", [(2, 4), (4, 4), (4, 2)])
@pytest.mark.parametrize("n_sym", [5, None])
def test_apply_channel_into_out_keeps_every_bit(n_rx, n_tx, n_sym, block, monkeypatch):
    """Into a separate ``out`` (x untouched) and, for n_rx <= n_tx, over
    x's own buffer block by block, Q=128 not a multiple of a 48-bin block
    and short of the default one: the bits of a fresh result."""
    if block is not None:
        monkeypatch.setattr(channel, "AIR_BLOCK", block)
    rng = np.random.default_rng(21)
    real = rayleigh_channel(_grid(q=128), n_tx, n_rx, rng)
    shape = (128, n_tx) if n_sym is None else (128, n_tx, n_sym)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = apply_channel(x, real)
    kept = x.copy()
    out = np.empty_like(want)
    assert apply_channel(x, real, out=out) is out
    assert out.tobytes() == want.tobytes() and x.tobytes() == kept.tobytes()
    if n_rx <= n_tx:
        over = x.reshape(-1)[:want.size].reshape(want.shape)
        assert apply_channel(x, real, out=over) is over
        assert over.tobytes() == want.tobytes()


def test_apply_channel_refuses_an_out_that_would_overwrite_unread_input():
    rng = np.random.default_rng(22)
    grid = _grid(q=16)
    buf = np.zeros(16 * 4 * 3, complex)
    with pytest.raises(DimensionError):  # n_rx > n_tx: a block outruns its input
        apply_channel(buf[:16 * 2 * 3].reshape(16, 2, 3),
                      rayleigh_channel(grid, 2, 4, rng), out=buf.reshape(16, 4, 3))
    x = buf.reshape(16, 4, 3)
    with pytest.raises(DimensionError):  # starts past x's first element
        apply_channel(x, rayleigh_channel(grid, 4, 2, rng),
                      out=buf[3:3 + 16 * 2 * 3].reshape(16, 2, 3))
    with pytest.raises(DimensionError):  # not the result's shape
        apply_channel(x, rayleigh_channel(grid, 4, 2, rng), out=np.empty((16, 4, 3), complex))


def test_thermal_noise_nf_floor():
    y = np.ones((64, 1), complex)
    out = add_thermal_noise(y, 3e9, -1000.0, np.random.default_rng(1))
    assert np.max(np.abs(out - y)) < 1e-50  # F -> 0: effectively noiseless
    assert thermal_noise_power(3e9, 0.0) == pytest.approx(1.380649e-23 * 290 * 3e9)


@pytest.mark.parametrize("temperature", [0.0, -1.0])
def test_thermal_noise_rejects_a_temperature_of_zero_or_less(temperature):
    """Below 0 K the floor kT*B*F is a negative variance, which gives NaN
    samples; 0 K is refused as the config loader refuses it."""
    with pytest.raises(DomainError):
        thermal_noise_power(3e9, 7.0, temperature)
    with pytest.raises(DomainError):
        add_thermal_noise(np.ones((64, 1), complex), 3e9, 7.0,
                          np.random.default_rng(1), temperature=temperature)


def test_awgn_measured_snr():
    rng = np.random.default_rng(15)
    y = np.exp(2j * np.pi * rng.random((4096, 8)))
    noisy = add_awgn(y, 20.0, rng)
    snr = 10 * np.log10(np.mean(np.abs(y) ** 2) / np.mean(np.abs(noisy - y) ** 2))
    assert abs(snr - 20.0) < 0.2


def _noisy_reference(y, var, rng):
    """Receiver noise as first written: two draws, then one sum."""
    sigma = np.sqrt(var / 2.0)
    return y + sigma * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))


def test_receiver_noise_bits_match_reference():
    """The fused noise pass changes no bit on a (Q, n_ant, S) grid."""
    gen = np.random.default_rng(17)
    y = gen.standard_normal((64, 4, 6)) + 1j * gen.standard_normal((64, 4, 6))
    y[::5] = 0.0
    var = thermal_noise_power(3e9, 7.0)
    got = add_thermal_noise(y, 3e9, 7.0, np.random.default_rng(3))
    assert got.tobytes() == _noisy_reference(y, var, np.random.default_rng(3)).tobytes()
    var = np.mean(np.abs(y) ** 2) * 10.0 ** (-12.0 / 10.0)
    got = add_awgn(y, 12.0, np.random.default_rng(4))
    assert got.tobytes() == _noisy_reference(y, var, np.random.default_rng(4)).tobytes()


def test_noise_uncorrelated_across_bins():
    rng = np.random.default_rng(16)
    y = np.zeros((1 << 18, 1), complex)
    noisy = add_thermal_noise(y, 1e9, 10.0, rng)
    n = noisy[:, 0]
    lag1 = np.abs(np.mean(n[1:] * np.conj(n[:-1]))) / np.mean(np.abs(n) ** 2)
    assert lag1 < 0.01


# ---------------------------------------------------------------------------
# Timing sync helpers
# ---------------------------------------------------------------------------

def test_bulk_delay_recovers_los_delay():
    grid = _grid(q=256)
    d = 2.5
    real = los_channel(grid, [(0.0, 0.0, 0.0)], [(d, 0.0, 0.0)])
    tau = bulk_delay(real)
    assert abs(tau - d / SPEED_OF_LIGHT) < 1.0 / (64 * grid.bw)


def test_timing_advance_flattens_ramp():
    grid = _grid(q=256)
    real = los_channel(grid, [(0.0, 0.0, 0.0)], [(2.5, 0.0, 0.0)])
    h = real.h[:, 0, 0].reshape(-1, 1)
    flat = timing_advance(h, grid, bulk_delay(real))[:, 0]
    steps = np.angle(flat[1:] * np.conj(flat[:-1]))
    assert np.max(np.abs(steps)) < 2 * np.pi * grid.delta_f / (64 * grid.bw) + 1e-9


def test_bulk_delay_zero_for_identity():
    assert bulk_delay(identity_channel(_grid(q=64), 2)) == 0.0
