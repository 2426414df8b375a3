"""QAM mapping, pilot layout, OFDM round trips and power scaling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from stripesim.errors import ConfigError, LengthError, ZeroSignal
from stripesim.waveform import (SubcarrierGrid, TimeWaveform, _power_scale,
                                _qam_table, build_resource_grid, demap_qam,
                                extract_symbols, map_qam, ofdm_modulate,
                                pilot_mask, pilot_sequence, synthesize_symbols)
from stripesim.config import WaveformConfig


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def test_grid_frequencies_centered():
    grid = SubcarrierGrid(157.75e9, 3e9, 4096, 2)
    f = grid.frequencies()
    assert f.size == 4096
    assert f[2048] == 157.75e9  # q = Q/2 is the carrier
    assert abs(grid.delta_f - 3e9 / 4096) < 1e-6
    assert grid.sample_rate == 6e9
    assert grid.n_fft == 8192
    np.testing.assert_allclose(np.diff(f), grid.delta_f)


def test_grid_validation():
    with pytest.raises(ConfigError):
        SubcarrierGrid(157.75e9, 3e9, 1000, 1)  # not a power of two
    with pytest.raises(ConfigError):
        SubcarrierGrid(157.75e9, 3e9, 256, 0)
    with pytest.raises(ConfigError):
        SubcarrierGrid(157.75e9, -3e9, 256, 1)


def test_grid_expanded_keeps_bin_spacing():
    grid = SubcarrierGrid(157.75e9, 3e9, 256, 4)
    big = grid.expanded()
    assert big.num_subcarriers == 1024
    assert big.oversampling == 1
    assert abs(big.delta_f - grid.delta_f) < 1e-9
    # central bins of the expanded axis coincide with the base axis
    lo = big.num_subcarriers // 2 - grid.num_subcarriers // 2
    np.testing.assert_allclose(big.frequencies()[lo:lo + 256], grid.frequencies(),
                               rtol=0, atol=1e-3)


# ---------------------------------------------------------------------------
# QAM
# ---------------------------------------------------------------------------

def test_qpsk_mapping_convention():
    np.testing.assert_allclose(map_qam([0, 0], 4), [(1 + 1j) / np.sqrt(2)])
    np.testing.assert_allclose(map_qam([1, 1], 4), [(-1 - 1j) / np.sqrt(2)])


def test_qpsk_constellation_unit_power():
    pts = map_qam([0, 0, 0, 1, 1, 0, 1, 1], 4)
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12


def test_16qam_all_zero_word():
    np.testing.assert_allclose(map_qam([0, 0, 0, 0], 16),
                               [(3 + 3j) / np.sqrt(10)])


def test_16qam_gray_table_oracle():
    """Enumerate the 16-point table: unit energy and per-axis Gray steps."""
    pts = _qam_table(16)
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12
    scaled = pts * np.sqrt(10)
    levels = sorted(set(np.round(scaled.real)))
    assert levels == [-3, -1, 1, 3]
    # Gray property on the I axis: adjacent amplitude levels differ by one bit
    by_level = {}
    for word in range(16):
        by_level.setdefault(int(np.round(scaled[word].real)), set()).add(word >> 2)
    order = [3, 1, -1, -3]
    for a, b in zip(order[:-1], order[1:]):
        (wa,), (wb,) = by_level[a], by_level[b]
        assert bin(wa ^ wb).count("1") == 1


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_constellation_unit_energy_exhaustive(order):
    pts = _qam_table(order)
    assert pts.size == order
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.binary(min_size=6, max_size=48))
def test_demap_inverts_map(order_idx, raw):
    order = (4, 16, 64, 256)[order_idx]
    m = int(np.log2(order))
    bits = np.frombuffer(raw, dtype=np.uint8) % 2
    bits = bits[:bits.size // m * m]
    if bits.size == 0:
        return
    assert np.array_equal(demap_qam(map_qam(bits, order), order), bits)


def test_demap_tie_break_smallest_index():
    # the origin is equidistant from every QPSK point -> word 00
    assert np.array_equal(demap_qam([0.0 + 0.0j], 4), [0, 0])
    # midpoint between +3 and +1 levels on both axes (16-QAM)
    mid = (2.0 + 2.0j) / np.sqrt(10)
    assert np.array_equal(demap_qam([mid], 16), [0, 0, 0, 0])


def test_demap_length_error():
    with pytest.raises(LengthError):
        map_qam([0, 1, 0], 4)


def test_qpsk_ber_against_qfunction():
    """Hard-decision QPSK over AWGN matches Q(sqrt(Es/N0))."""
    rng = np.random.default_rng(11)
    n_sym = 500_000
    bits = rng.integers(0, 2, 2 * n_sym)
    s = map_qam(bits, 4)
    es_n0_db = 8.0
    sigma = np.sqrt(10 ** (-es_n0_db / 10) / 2)
    y = s + sigma * (rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym))
    errors = np.count_nonzero(demap_qam(y, 4) != bits)
    p = qfunc(np.sqrt(10 ** (es_n0_db / 10)))
    expected = 2 * n_sym * p
    assert abs(errors - expected) <= 3 * np.sqrt(expected * (1 - p))


# ---------------------------------------------------------------------------
# Pilots / resource grid
# ---------------------------------------------------------------------------

def _wf(**kw):
    base = dict(n_ofdm_symbols=2, qam_order=4, oversampling_factor=1,
                cp_length=2, pilot_spacing=4, pilot_mode="scattered",
                tx_power=0.0)
    base.update(kw)
    return WaveformConfig(**base)


def test_scattered_pilot_mask():
    mask = pilot_mask("scattered", 4, 8, 2)
    assert mask.shape == (8, 2)
    assert np.array_equal(np.nonzero(mask[:, 0])[0], [0, 4])
    assert np.array_equal(mask[:, 0], mask[:, 1])


def test_block_pilot_mask():
    mask = pilot_mask("block", 4, 8, 3)
    assert mask[:, 0].all()
    assert not mask[:, 1:].any()


def test_pilot_sequence_deterministic():
    a = pilot_sequence(42, 64)
    b = pilot_sequence(42, 64)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(np.abs(a) - 1.0) < 1e-12)
    assert not np.array_equal(a, pilot_sequence(43, 64))


def test_build_resource_grid_layout():
    grid = SubcarrierGrid(157.75e9, 3e9, 8, 1)
    wf = _wf()
    n_data = 8 * 2 - 2 * 2
    bits = np.zeros(n_data * 2, dtype=np.int8)
    rg = build_resource_grid(bits, wf, grid, seed=5)
    assert rg.pilot_mask.sum() == 4
    assert rg.data_bits.size == n_data * 2
    # occupied everywhere, unit-ish power per entry
    assert np.all(np.abs(rg.symbols) > 0)


def test_build_resource_grid_insufficient_bits():
    grid = SubcarrierGrid(157.75e9, 3e9, 8, 1)
    with pytest.raises(ConfigError):
        build_resource_grid([0, 1], _wf(), grid, seed=5)


# ---------------------------------------------------------------------------
# OFDM modulate / demodulate
# ---------------------------------------------------------------------------

def _random_grid(rng, q, s, order=16):
    m = int(np.log2(order))
    bits = rng.integers(0, 2, q * s * m)
    return map_qam(bits, order).reshape(q, s)


def test_single_dc_subcarrier_constant_envelope():
    grid = SubcarrierGrid(157.75e9, 3e9, 64, 2)
    sym = np.zeros((64, 1), complex)
    sym[32, 0] = 1.0  # q = Q/2 -> DC
    x = synthesize_symbols(sym, grid, 0)
    assert np.std(np.abs(x)) < 1e-15
    assert np.max(np.abs(np.diff(x))) < 1e-15  # zero frequency: constant


def test_cp_equals_tail():
    rng = np.random.default_rng(7)
    grid = SubcarrierGrid(157.75e9, 3e9, 64, 2)
    sym = _random_grid(rng, 64, 3)
    cp = 8 * grid.oversampling
    x = synthesize_symbols(sym, grid, 8)
    frame = grid.n_fft + cp
    for s in range(3):
        seg = x[s * frame:(s + 1) * frame]
        np.testing.assert_array_equal(seg[:cp], seg[-cp:])


@pytest.mark.parametrize("q", [64, 256, 1024, 4096])
@pytest.mark.parametrize("os", [1, 2, 4])
def test_round_trip_identity(q, os):
    rng = np.random.default_rng(q + os)
    grid = SubcarrierGrid(157.75e9, 3e9, q, os)
    sym = _random_grid(rng, q, 2)
    back = extract_symbols(synthesize_symbols(sym, grid, q // 16), grid, q // 16, 2)
    assert np.max(np.abs(back - sym)) < 1e-10


def test_oversampling_invariance():
    rng = np.random.default_rng(9)
    sym = _random_grid(rng, 128, 2)
    outs = []
    for os in (1, 2, 4):
        grid = SubcarrierGrid(157.75e9, 3e9, 128, os)
        x = synthesize_symbols(sym, grid, 8)
        assert x.size == 2 * (128 + 8) * os
        outs.append(extract_symbols(x, grid, 8, 2))
    np.testing.assert_allclose(outs[1], outs[0], atol=1e-12)
    np.testing.assert_allclose(outs[2], outs[0], atol=1e-12)


def test_cyclic_delay_phase_ramp():
    """A cyclic shift of each symbol body appears as e^{-j2pi(q-Q/2)d/N}."""
    rng = np.random.default_rng(13)
    q, os, cp, d = 64, 2, 8, 5
    grid = SubcarrierGrid(157.75e9, 3e9, q, os)
    sym = _random_grid(rng, q, 2)
    x = synthesize_symbols(sym, grid, cp)
    n, cpn = grid.n_fft, cp * os
    frame = n + cpn
    shifted = x.copy()
    for s in range(2):
        body = np.roll(x[s * frame + cpn:(s + 1) * frame], d)
        shifted[s * frame + cpn:(s + 1) * frame] = body
        shifted[s * frame:s * frame + cpn] = body[-cpn:]
    back = extract_symbols(shifted, grid, cp, 2)
    ramp = np.exp(-2j * np.pi * (np.arange(q) - q // 2) * d / n)
    np.testing.assert_allclose(back / sym, np.tile(ramp[:, None], (1, 2)),
                               atol=1e-10)


def test_demodulate_length_error():
    grid = SubcarrierGrid(157.75e9, 3e9, 64, 1)
    wf = TimeWaveform(np.ones(100), grid.sample_rate)
    with pytest.raises(LengthError):
        extract_symbols(wf.samples, grid, 8, 2)


def test_modulate_demodulate_objects():
    rng = np.random.default_rng(17)
    grid = SubcarrierGrid(157.75e9, 3e9, 64, 1)
    wf_cfg = _wf(n_ofdm_symbols=3, pilot_spacing=8)
    bits = rng.integers(0, 2, 64 * 3 * 2)
    rg = build_resource_grid(bits, wf_cfg, grid, seed=1)
    wf = ofdm_modulate(rg, grid, wf_cfg.cp_length)
    back = extract_symbols(wf.samples, grid, wf_cfg.cp_length, 3)
    assert np.max(np.abs(back - rg.symbols)) < 1e-10


# ---------------------------------------------------------------------------
# Power scaling
# ---------------------------------------------------------------------------

def _set_power(wf: TimeWaveform, p_dbm: float) -> TimeWaveform:
    """Scale so mean |x|^2 equals the dBm target, as the link does."""
    return wf.with_samples(wf.samples * _power_scale(wf, p_dbm))


def test_set_power_dbm():
    wf = TimeWaveform(np.ones(1000, complex) * (1 + 1j), 1e9)
    assert abs(_set_power(wf, 0.0).power - 1e-3) < 1e-15
    assert abs(_set_power(wf, 30.0).power - 1.0) < 1e-12


def test_set_power_idempotent():
    rng = np.random.default_rng(23)
    wf = TimeWaveform(rng.standard_normal(512) + 1j * rng.standard_normal(512), 1e9)
    once = _set_power(wf, -10.0)
    twice = _set_power(once, -10.0)
    np.testing.assert_allclose(twice.samples, once.samples, rtol=1e-14)


def test_set_power_zero_signal():
    with pytest.raises(ZeroSignal):
        _power_scale(TimeWaveform(np.zeros(8), 1e9), 0.0)
