"""Hardware impairment bank: amplifiers, DAC, oscillator, IQ, elements."""

import dataclasses

import numpy as np
import pytest

from stripesim.channel import ChannelRealization
from stripesim.components import (TANH_BLOCK, AmplifierParams, DacParams,
                                  IqParams, LinearElementParams, Oscillator,
                                  OscillatorParams, amplifier_process,
                                  combine, dac_process, iq_modem_process,
                                  linear_element_process, noise_power,
                                  oscillator_phasor, pa_nonlinearity, rotate,
                                  split)
from stripesim.errors import (DomainError, GridMismatch, LengthError,
                              UnsupportedMode)
from stripesim.stripe import default_beam_phases
from stripesim.touchstone import (FrequencyResponse, interpolate_s21,
                                  parse_touchstone, to_impulse_response)
from stripesim.waveform import (SubcarrierGrid, extract_symbols, map_qam,
                                synthesize_symbols)

from conftest import s2p_from_taps


def _wave(samples):
    return np.asarray(samples, dtype=complex)


# ---------------------------------------------------------------------------
# Noise power
# ---------------------------------------------------------------------------

def test_noise_power_zero_nf():
    assert noise_power(0.0, 3e9) == 0.0


def test_noise_power_spot_value():
    # independent evaluation: k*T*B*(10 - 1) at 290 K, 3 GHz
    expected = 1.380649e-23 * 290.0 * 3e9 * 9.0
    got = noise_power(10.0, 3e9, 290.0)
    assert got == expected
    assert abs(got - 1.0810481e-10) < 1e-14
    assert abs(10 * np.log10(got / 1e-3) - (-69.6615)) < 1e-3


def test_noise_power_linear_in_bandwidth():
    assert noise_power(10.0, 2e9) == 2 * noise_power(10.0, 1e9)


@pytest.mark.parametrize("nf_db, temperature", [(-3.0, 290.0), (10.0, 0.0), (10.0, -1.0)])
def test_noise_power_rejects_a_negative_power(nf_db, temperature):
    """A noise figure under 0 dB or a temperature under 0 K makes the added
    noise power negative, and the amplifier's samples NaN; 0 K is refused
    as the config loader refuses it."""
    with pytest.raises(DomainError):
        noise_power(nf_db, 3e9, temperature)
    params = AmplifierParams(nf_db=nf_db, bandwidth=3e9, temperature=temperature)
    with pytest.raises(DomainError):
        amplifier_process(np.ones(4, complex), params, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

def _amp(**kw):
    return AmplifierParams(**kw)


def test_soft_limiter_below_saturation_exact():
    x = 0.5 * np.exp(1j * np.pi / 4)
    p = _amp(mode="soft_limiter", sat_amplitude=1.0)
    assert pa_nonlinearity(np.array([x]), "soft_limiter", p)[0] == x


def test_soft_limiter_clips_phase_preserving():
    x = 3.0 * np.exp(1j * np.pi / 4)
    p = _amp(mode="soft_limiter", sat_amplitude=1.0)
    y = pa_nonlinearity(np.array([x]), "soft_limiter", p)[0]
    assert abs(y - np.exp(1j * np.pi / 4)) < 1e-15


def test_tanh_asymptote_and_small_signal():
    p = _amp(mode="tanh", sat_amplitude=1.0)
    big = pa_nonlinearity(np.array([1e6 + 0j]), "tanh", p)[0]
    assert abs(abs(big) - 1.0) < 1e-12
    small = pa_nonlinearity(np.array([1e-6 + 0j]), "tanh", p)[0]
    assert abs(small - 1e-6) < 1e-15


def test_atan_asymptote_and_small_signal():
    p = _amp(mode="atan", sat_amplitude=2.0)
    big = pa_nonlinearity(np.array([1e9 + 0j]), "atan", p)[0]
    assert abs(abs(big) - 2.0) < 1e-6
    small = pa_nonlinearity(np.array([1e-6 + 0j]), "atan", p)[0]
    assert abs(small - 1e-6) < 1e-18


def test_polynomial_evaluation():
    p = _amp(mode="polynomial", poly_coeffs=(1.0, -0.1))
    y = pa_nonlinearity(np.array([1.0 + 0j]), "polynomial", p)[0]
    assert abs(y - 0.9) < 1e-15
    small = pa_nonlinearity(np.array([1e-4 + 0j]), "polynomial", p)[0]
    assert abs(small - 1e-4) < 1e-11  # small-signal regime ~ a1*x


def test_phase_preservation_all_saturating_modes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    for mode in ("tanh", "atan", "soft_limiter"):
        p = _amp(mode=mode, sat_amplitude=0.7)
        y = pa_nonlinearity(x, mode, p)
        np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)


def test_magnitude_monotonicity():
    r = np.linspace(0, 5, 400)
    for mode in ("tanh", "atan", "soft_limiter"):
        p = _amp(mode=mode, sat_amplitude=1.0)
        mags = np.abs(pa_nonlinearity(r.astype(complex), mode, p))
        assert np.all(np.diff(mags) >= -1e-12)


def test_unsupported_mode():
    with pytest.raises(UnsupportedMode):
        pa_nonlinearity(np.ones(2, complex), "rapp", _amp())
    with pytest.raises(UnsupportedMode):
        AmplifierParams(mode="volterra")


# ---------------------------------------------------------------------------
# Amplifier process
# ---------------------------------------------------------------------------

def test_amplifier_ideal_pure_gain():
    rng = np.random.default_rng(0)
    x = _wave(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    p = _amp(gain_db=20 * np.log10(2.0))
    y = amplifier_process(x, p, np.random.default_rng(0))
    np.testing.assert_allclose(y, 2.0 * x, atol=1e-12)


def test_amplifier_noise_power_on_zero_input():
    p = _amp(gain_db=6.0, nf_db=10.0, bandwidth=3e9)
    x = _wave(np.zeros(1_000_000))
    y = amplifier_process(x, p, np.random.default_rng(42))
    expected = p.gain_linear ** 2 * noise_power(10.0, 3e9)
    assert abs(np.mean(np.abs(y) ** 2) / expected - 1.0) < 0.02


def test_amplifier_reproducible():
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    x = _wave(np.ones(256))
    p = _amp(mode="tanh", nf_db=8.0, bandwidth=1e9)
    ya = amplifier_process(x, p, rng_a)
    yb = amplifier_process(x, p, rng_b)
    np.testing.assert_array_equal(ya, yb)


def _amplifier_reference(x, params, rng):
    """The amplifier as first written: two draws, then the nonlinearity."""
    samples = x
    pn = noise_power(params.nf_db, params.bandwidth, params.temperature)
    if pn > 0.0:
        sigma = np.sqrt(pn / 2.0)
        samples = x + sigma * (rng.standard_normal(x.size)
                               + 1j * rng.standard_normal(x.size))
    return params.gain_linear * pa_nonlinearity(samples, params.mode, params)


@pytest.mark.parametrize("mode", ["ideal", "tanh", "atan", "polynomial",
                                  "soft_limiter"])
@pytest.mark.parametrize("nf_db", [0.0, 10.0])
def test_amplifier_bits_match_reference(mode, nf_db):
    """The fused noise pass and in-place nonlinearity change no output bit,
    at any drive level and on exact-zero samples (the r == 0 branch), on
    less than one tanh block and on several blocks with a partial one."""
    p = _amp(gain_db=15.0, mode=mode, sat_amplitude=0.5, nf_db=nf_db,
             bandwidth=3e9, poly_coeffs=(1.0, -0.1 + 0.02j))
    block = TANH_BLOCK
    cases = [(seed, 4096) for seed in range(5)]
    cases += [(5, n) for n in (1, block - 1, block + 1, 3 * block + 5)]
    for seed, n in cases:
        for amplitude in (0.01, 0.5, 100.0):
            gen = np.random.default_rng(seed)
            x = amplitude * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
            x[::7] = 0.0
            want = _amplifier_reference(x, p, np.random.default_rng(seed + 50))
            got = amplifier_process(_wave(x), p, np.random.default_rng(seed + 50))
            assert got.tobytes() == want.tobytes()
    # written over a strided view of its input, which no block can span
    x = _wave(np.random.default_rng(6).standard_normal(2 * block + 6))
    want = _amplifier_reference(x[::2], p, np.random.default_rng(56))
    got = amplifier_process(x[::2], p, np.random.default_rng(56), out=x[::2])
    assert got.tobytes() == x[::2].tobytes() == want.tobytes()


def test_one_stacked_draw_equals_two_draws():
    for shape in ((1000,), (16, 4, 3)):
        a = np.random.default_rng(5)
        two = np.stack([a.standard_normal(shape), a.standard_normal(shape)])
        one = np.random.default_rng(5).standard_normal((2,) + shape)
        assert one.tobytes() == two.tobytes()


def test_amplifier_amam_saturating_family():
    """AM/AM cloud of a driven soft limiter: monotone and capped at G*A."""
    rng = np.random.default_rng(3)
    x = _wave((rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * 0.8)
    p = _amp(gain_db=6.0, mode="soft_limiter", sat_amplitude=1.0,
             nf_db=5.0, bandwidth=3e9)
    y = amplifier_process(x, p, np.random.default_rng(1))
    r_in, r_out = np.abs(x), np.abs(y)
    assert r_out.max() <= p.gain_linear * 1.0 + 1e-6
    order = np.argsort(r_in)
    smooth = np.convolve(r_out[order], np.ones(500) / 500, mode="valid")
    assert np.all(np.diff(smooth) > -5e-3)  # monotone up to noise jitter


# ---------------------------------------------------------------------------
# DAC
# ---------------------------------------------------------------------------

def test_dac_ideal_passthrough():
    x = _wave(np.linspace(-2, 2, 32) + 1j)
    y = dac_process(x, DacParams(mode="ideal"))
    np.testing.assert_array_equal(y, x)


def test_dac_sqnr_uniform_input():
    rng = np.random.default_rng(5)
    n = 1_000_000
    samples = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    x = _wave(samples)
    y = dac_process(x, DacParams(mode="quantize", bits=8, clip_amplitude=1.0))
    err = y - x
    sqnr_db = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(err) ** 2))
    assert abs(sqnr_db - 48.16) < 0.3


def test_dac_saturation_cap():
    p = DacParams(mode="quantize", bits=4, clip_amplitude=1.0)
    delta = 2.0 / 16
    x = _wave(np.array([5.0 - 7.0j, -3.0 + 2.5j]))
    y = dac_process(x, p)
    cap = 1.0 - delta / 2
    assert np.max(np.abs(y.real)) <= cap + 1e-15
    assert np.max(np.abs(y.imag)) <= cap + 1e-15
    assert abs(y[0].real - cap) < 1e-15
    assert abs(y[0].imag + cap) < 1e-15


def test_dac_inband_error_bound():
    rng = np.random.default_rng(6)
    p = DacParams(mode="quantize", bits=16, clip_amplitude=1.0)
    delta = 2.0 / 2 ** 16
    samples = rng.uniform(-0.99, 0.99, 5000) + 1j * rng.uniform(-0.99, 0.99, 5000)
    y = dac_process(_wave(samples), p)
    assert np.max(np.abs(y.real - samples.real)) <= delta / 2 + 1e-12
    assert np.max(np.abs(y.imag - samples.imag)) <= delta / 2 + 1e-12


# ---------------------------------------------------------------------------
# Oscillator
# ---------------------------------------------------------------------------

def test_oscillator_ideal():
    phases = oscillator_phasor(64, OscillatorParams(), 1e9)
    assert np.all(phases == 0)


def test_oscillator_cfo_ramp_and_state():
    p = OscillatorParams(mode="cfo", cfo_hz=1e6, initial_phase=0.5)
    fs = 1e9
    osc = Oscillator(p, fs)
    a = osc.phases(100)
    b = osc.phases(50)
    joined = oscillator_phasor(150, p, fs)
    np.testing.assert_allclose(np.concatenate([a, b]), joined, rtol=1e-12)
    np.testing.assert_allclose(a, 0.5 + 2 * np.pi * 1e6 * np.arange(100) / fs)


def test_wiener_random_walk_variance():
    """Increments over windows of k samples have variance k*sigma^2."""
    sigma = 0.01
    k, n_windows = 100, 10_000
    p = OscillatorParams(mode="wiener", innovation_std=sigma)
    osc = Oscillator(p, 1e9, np.random.default_rng(8))
    phi = osc.phases(k * n_windows)
    steps = np.diff(np.concatenate([[0.0], phi[k - 1::k]]))
    assert abs(np.var(steps) / (k * sigma ** 2) - 1.0) < 0.05


def test_ar1_matches_loop_oracle():
    p = OscillatorParams(mode="ar1", ar_rho=0.95, innovation_std=0.1,
                         initial_phase=0.3)
    osc = Oscillator(p, 1e9, np.random.default_rng(9))
    got = osc.phases(200)
    u = 0.1 * np.random.default_rng(9).standard_normal(200)
    phi, prev = [], 0.3
    for k in range(200):
        prev = 0.95 * prev + u[k]
        phi.append(prev)
    np.testing.assert_allclose(got, phi, rtol=1e-10, atol=1e-12)


def test_ar1_bits_match_loop_across_calls():
    """A 122,752-sample AR(1) path split over two calls equals, bit for bit,
    the recursion phi[k] = u[k] + rho * phi[k-1] started at initial_phase."""
    n, first = 122_752, 50_000
    p = OscillatorParams(mode="ar1", ar_rho=0.999, innovation_std=0.01,
                         initial_phase=0.25)
    osc = Oscillator(p, 1e9, np.random.default_rng(11))
    got = np.concatenate([osc.phases(first), osc.phases(n - first)])
    u = 0.01 * np.random.default_rng(11).standard_normal(n)
    expected, prev = np.empty(n), 0.25
    for k in range(n):
        prev = u[k] + 0.999 * prev
        expected[k] = prev
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("mode", ["wiener", "ar1"])
def test_random_oscillator_needs_a_generator(mode):
    """A random phase track is set by the caller's stream: without one the
    oscillator refuses, rather than drawing unseeded numbers."""
    p = OscillatorParams(mode=mode, ar_rho=0.9, innovation_std=0.01)
    with pytest.raises(DomainError):
        Oscillator(p, 1e9)
    with pytest.raises(DomainError):
        oscillator_phasor(8, p, 1e9)


def test_oscillator_state_continuity_ar1():
    p = OscillatorParams(mode="ar1", ar_rho=0.9, innovation_std=0.05)
    osc_a = Oscillator(p, 1e9, np.random.default_rng(10))
    both = np.concatenate([osc_a.phases(64), osc_a.phases(64)])
    osc_b = Oscillator(p, 1e9, np.random.default_rng(10))
    np.testing.assert_allclose(both, osc_b.phases(128), rtol=1e-12)


def test_cfo_one_bin_shift():
    """CFO of one subcarrier spacing moves a tone to the adjacent bin."""
    q, os, cp = 64, 2, 8
    grid = SubcarrierGrid(157.75e9, 3e9, q, os)
    sym = np.zeros((q, 1), complex)
    sym[20, 0] = 1.0
    x = synthesize_symbols(sym, grid, cp)
    phases = oscillator_phasor(x.size, OscillatorParams(mode="cfo", cfo_hz=grid.delta_f),
                               grid.sample_rate)
    shifted = x * np.exp(1j * phases)
    back = extract_symbols(shifted, grid, cp, 1)
    power = np.abs(back[:, 0]) ** 2
    assert power[21] > 0.99
    others = np.delete(power, 21)
    assert 10 * np.log10(others.max() / power[21]) < -40


# ---------------------------------------------------------------------------
# IQ modem
# ---------------------------------------------------------------------------

def test_iq_ideal_identity():
    rng = np.random.default_rng(12)
    x = _wave(rng.standard_normal(128) + 1j * rng.standard_normal(128))
    y = iq_modem_process(x, IqParams(), np.zeros(128))
    np.testing.assert_array_equal(y, x)
    assert y is not x
    y = iq_modem_process(x.real, IqParams(), 0.0)  # a real input mixes to complex
    assert y.dtype == np.complex128 and y.tobytes() == x.real.astype(complex).tobytes()


def test_iq_image_rejection_ratio():
    # oracle: for g=1, IRR = |alpha/beta|^2 = cot^2(phi/2) -> 35.1616 dB at 2 deg
    params = IqParams(gain_mismatch=1.0, phase_mismatch=np.deg2rad(2.0))
    irr_db = 20 * np.log10(abs(params.alpha) / abs(params.beta))
    expected = 20 * np.log10(1 / np.tan(np.deg2rad(1.0)))
    assert abs(irr_db - expected) < 1e-9
    assert abs(irr_db - 35.1616) < 5e-3


def test_iq_image_tone_measurement():
    """Image-tone power below the wanted tone by IRR."""
    n = 4096
    k = 37
    tone = np.exp(2j * np.pi * k * np.arange(n) / n)
    params = IqParams(gain_mismatch=1.0, phase_mismatch=np.deg2rad(2.0))
    y = iq_modem_process(_wave(tone), params, np.zeros(n))
    spec = np.fft.fft(y) / n
    irr_db = 20 * np.log10(abs(spec[k]) / abs(spec[-k]))
    assert abs(irr_db - 35.1616) < 0.05


def test_iq_dc_offset_on_zero_input():
    y = iq_modem_process(_wave(np.zeros(16)), IqParams(dc_offset=0.1),
                         np.zeros(16))
    np.testing.assert_allclose(y, 0.1)


def test_iq_length_error():
    with pytest.raises(LengthError):
        iq_modem_process(_wave(np.zeros(8)), IqParams(), np.zeros(4))


# ---------------------------------------------------------------------------
# Linear elements
# ---------------------------------------------------------------------------

def test_fixed_damping_power_scale():
    p = LinearElementParams(model="fixed_damping", loss_db=7.0)
    x = _wave(np.ones(100))
    y = linear_element_process(x, p)
    assert abs(np.mean(np.abs(y) ** 2) / np.mean(np.abs(x) ** 2) - 10 ** -0.7) < 1e-12


def test_frequency_response_identity():
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    fr = FrequencyResponse(grid=grid, h=np.ones(32))
    p = LinearElementParams(model="s2p_filter", domain="frequency", response=fr)
    data = np.arange(32, dtype=complex).reshape(32, 1)
    np.testing.assert_array_equal(linear_element_process(data, p), data)


def test_fft_ordered_response_follows_the_response():
    """The FFT-ordered response is derived, never carried over: replacing
    the response (or any other field) re-derives it."""
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    p = LinearElementParams(model="s2p_filter", domain="frequency",
                            response=FrequencyResponse(grid=grid, h=np.arange(32.0)))
    np.testing.assert_array_equal(p.fft_response, np.fft.ifftshift(np.arange(32.0)))
    other = FrequencyResponse(grid=grid, h=np.arange(32.0) * 1j)
    q = dataclasses.replace(p, response=other, loss_db=5.0)
    np.testing.assert_array_equal(q.fft_response, np.fft.ifftshift(other.h))
    with pytest.raises(TypeError):
        LinearElementParams(model="s2p_filter", response=other, fft_response=np.ones(32))
    with pytest.raises(ValueError):
        dataclasses.replace(p, fft_response=np.ones(32))


def test_frequency_response_grid_mismatch():
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    fr = FrequencyResponse(grid=grid, h=np.ones(32))
    p = LinearElementParams(model="s2p_filter", domain="frequency", response=fr)
    with pytest.raises(GridMismatch):
        linear_element_process(np.ones((16, 1), complex), p)


def test_time_domain_convolution():
    """The element convolves and keeps the input's length; the segment
    delay is the walk's (`tests/test_stripe.py`)."""
    taps = np.array([0.5, 0.25], complex)
    ir = to_impulse_response(
        FrequencyResponse(grid=SubcarrierGrid(1e9, 1e9, 4, 1), h=np.ones(4)), 1)
    ir = ir.__class__(h=taps, sample_rate=3e9)
    p = LinearElementParams(model="s2p_filter", domain="time", impulse=ir)
    x = _wave(np.array([1.0, 0.0, 0.0, 0.0]))
    y = linear_element_process(x, p)
    np.testing.assert_allclose(y, [0.5, 0.25, 0, 0])


def test_fd_td_equivalence_on_ofdm_signal():
    """Same s2p applied per-subcarrier and by convolution: NMSE < -60 dB."""
    rng = np.random.default_rng(21)
    q, os, cp = 256, 2, 16
    grid = SubcarrierGrid(157.75e9, 2e9, q, os)
    taps = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) * 0.3
    net = parse_touchstone(s2p_from_taps(taps, grid.fc, grid.sample_rate,
                                         n_points=grid.n_fft))
    sym = map_qam(rng.integers(0, 2, q * 2 * 4), 16).reshape(q, 2)
    x = synthesize_symbols(sym, grid, cp)

    # frequency path: strict Q-length Hadamard on the resource grid
    fr = interpolate_s21(net, grid)
    fd_elem = LinearElementParams(model="s2p_filter", domain="frequency",
                                  response=fr)
    y_fd = linear_element_process(sym, fd_elem)

    # time path: convolution at the simulation rate
    expanded = interpolate_s21(net, grid.expanded())
    ir = to_impulse_response(expanded, cp * os)
    td_elem = LinearElementParams(model="s2p_filter", domain="time", impulse=ir)
    y_td_wave = linear_element_process(x, td_elem)
    y_td = extract_symbols(y_td_wave, grid, cp, 2)

    nmse = (np.sum(np.abs(y_td - y_fd) ** 2) / np.sum(np.abs(y_fd) ** 2))
    assert 10 * np.log10(nmse) < -60.0


# ---------------------------------------------------------------------------
# Splitter / combiner / phase shifter
# ---------------------------------------------------------------------------

def test_split_identity_and_power():
    rng = np.random.default_rng(14)
    x = _wave(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert np.array_equal(split(x, 1)[0], x)
    branches = split(x, 4)
    np.testing.assert_allclose(branches[0], x / 2)
    total = sum(np.mean(np.abs(b) ** 2) for b in branches)
    assert abs(total - np.mean(np.abs(x) ** 2)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_combine_split_round_trip(n):
    rng = np.random.default_rng(15)
    x = _wave(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    y = combine(split(x, n))
    np.testing.assert_allclose(y, np.sqrt(n) * x, rtol=1e-14)


def test_combine_antiphase_cancels():
    x = _wave(np.ones(16))
    a, b = split(x, 2)
    out = combine([a, rotate(b, np.pi)])
    assert np.max(np.abs(out)) < 1e-15


def test_default_beam_phases_align_branches():
    """The default steering adds the four RU branches coherently at Q/2:
    |sum_b h_b e^{j theta_b}| = sum_b |h_b|, h_b summed over the UE side."""
    rng = np.random.default_rng(16)
    q, n_rx, n_tx = 16, 2, 4
    h = rng.standard_normal((q, n_rx, n_tx)) + 1j * rng.standard_normal((q, n_rx, n_tx))
    theta = default_beam_phases(
        ChannelRealization(h=h, grid=SubcarrierGrid(157.75e9, 3e9, q)))
    h_b = h[q // 2].sum(axis=0)
    np.testing.assert_allclose(np.abs(np.sum(h_b * np.exp(1j * theta))),
                               np.sum(np.abs(h_b)), rtol=1e-12)


def test_phase_shift_identity_and_length():
    x = _wave(np.ones(8))
    with pytest.raises(LengthError):
        combine([x, _wave(np.ones(4))])
    with pytest.raises(DomainError):
        split(x, 0)
