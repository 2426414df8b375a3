"""Stripe assembly, calibration, downlink/uplink propagation, run_link."""

import dataclasses
import random
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from stripesim import components, stripe
from stripesim.components import AmplifierParams, DacParams
from stripesim.config import (AntennaConfig, CalibrationConfig, ComponentBank,
                              EnvironmentConfig, LinearElementSpec, ReceiverConfig,
                              StripeLayout, StripeNode, SubThzConfig, WaveformConfig,
                              load_components, load_environment, load_waveform)
from stripesim.dataset import generate_synthetic, read_dataset, write_dataset
from stripesim.errors import (CalibrationInfeasible, ConfigError, DomainError,
                              GridMismatch, LengthError, TruncationWarning)
from stripesim.stripe import (build_stripe, calibrate_gains, make_grid,
                              propagate_downlink, propagate_uplink, run_link)
from stripesim.touchstone import parse_touchstone
from stripesim.waveform import (SubcarrierGrid, TimeWaveform, _power_scale,
                                synthesize_symbols)

from conftest import s2p_from_taps

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _env(n_rus=5, spacing=0.5, n_antennas=1, q=256, ue=(3.0, 2.0, 1.5),
         bw=3e9):
    nodes = tuple([StripeNode("central_unit", (0.1, 3.0, 2.8))] +
                  [StripeNode("radio_unit", (0.6 + spacing * i, 3.0, 2.8))
                   for i in range(n_rus)])
    return EnvironmentConfig(
        room=(10.0, 6.0, 3.0),
        stripe_config=StripeLayout(n_stripes=1, n_rus=n_rus,
                                   inter_ru_spacing=spacing),
        radio_stripes=(nodes,), ue_positions=(ue,),
        central_unit_fiber_length=2.0,
        sub_thz=SubThzConfig(fc=157.75e9, bw=bw, num_subcarriers=q),
        antenna=AntennaConfig(n_antennas=n_antennas))


def _wf(**kw):
    base = dict(n_ofdm_symbols=4, qam_order=16, oversampling_factor=2,
                cp_length=16, pilot_spacing=8, pilot_mode="scattered",
                tx_power=0.0)
    base.update(kw)
    return WaveformConfig(**base)


def _bank(**kw):
    return dataclasses.replace(ComponentBank(), **kw)


def _damped_bank(loss_db=10.0, booster=None):
    return _bank(
        fiber=LinearElementSpec(model="fixed_damping", loss_db=loss_db),
        boost_amplifier=booster or AmplifierParams())


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

def _s2p_fiber(grid, domain: str, taps=(0.8, 0.15j, 0.05)) -> LinearElementSpec:
    """An s2p fiber at 2e8 m/s with one S21 point on every bin of ``grid``."""
    network = parse_touchstone(s2p_from_taps(list(taps), grid.fc, grid.sample_rate,
                                             n_points=grid.n_fft + 1))
    return LinearElementSpec(model="s2p_filter", network=network, domain=domain,
                             n_taps=8, group_velocity=2e8)


def test_build_stripe_segments():
    """Each segment's delay is its length (the CU fiber's 2.0 m, then the
    0.5 m RU spacing) at 2e8 m/s and the grid's 6 GS/s where the fiber
    convolves, and 0 where it filters per subcarrier."""
    env = _env(n_rus=3, spacing=0.5)
    grid = make_grid(env, _wf())
    delays = {}
    for domain in ("time", "frequency"):
        bank = _bank(fiber=_s2p_fiber(grid, domain))
        top = build_stripe(env, bank, 0, grid, _wf())
        assert top.n_rus == 3
        delays[domain] = top.fiber_delays
    fs = grid.sample_rate
    assert delays["time"] == (round(2.0 / 2e8 * fs), round(0.5 / 2e8 * fs),
                              round(0.5 / 2e8 * fs)) == (60, 15, 15)
    assert delays["frequency"] == (0, 0, 0)


@pytest.mark.parametrize("block", ["fiber", "coupler"])
def test_truncation_warning_names_the_key_and_the_taps_needed(block):
    """The example's fiber response, convolved in the time domain on 256 of
    its 8192 taps: the warning names the block's taps key and how many
    taps keep 0.99 of the energy."""
    env = load_environment(EXAMPLES / "environment.yaml")
    wf = load_waveform(EXAMPLES / "waveform.yaml")
    bank = load_components(EXAMPLES / "components.yaml")
    element = dataclasses.replace(bank.fiber, domain="time")
    bank = dataclasses.replace(bank, **{block: element})
    with pytest.warns(TruncationWarning, match=f"{block}.taps") as record:
        build_stripe(env, bank, 0, make_grid(env, wf), wf)
    assert [str(w.message) for w in record] == [
        f"{block}.taps: 256 taps keep only 0.9809 of the response energy; "
        "0.99 needs 8190 of 8192"]


def test_build_stripe_bad_id():
    env = _env()
    grid = make_grid(env, _wf())
    with pytest.raises(ConfigError):
        build_stripe(env, ComponentBank(), 5, grid, _wf())


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def test_calibration_lossless_zero_gain():
    env = _env(n_rus=4)
    wf = _wf()
    grid = make_grid(env, wf)
    top = build_stripe(env, ComponentBank(), 0, grid, wf)
    result = calibrate_gains(top, target_power_dbm=0.0, max_gain_db=30.0)
    np.testing.assert_allclose(result.gains_db, 0.0, atol=1e-9)
    assert not any(result.clipped)


def test_calibration_ten_db_per_stage():
    """10 dB loss per stage -> every booster gain 10.00 dB, output on target."""
    env = _env(n_rus=5)
    wf = _wf()
    grid = make_grid(env, wf)
    top = build_stripe(env, _damped_bank(loss_db=10.0), 0, grid, wf)
    result = calibrate_gains(top, target_power_dbm=-10.0, max_gain_db=20.0)
    np.testing.assert_allclose(result.gains_db, 10.0, atol=0.01)
    np.testing.assert_allclose(result.output_powers_dbm, -10.0, atol=0.1)
    assert not any(result.clipped)


def test_calibration_clipping_warns():
    env = _env(n_rus=3)
    wf = _wf()
    grid = make_grid(env, wf)
    top = build_stripe(env, _damped_bank(loss_db=30.0), 0, grid, wf)
    with pytest.warns(CalibrationInfeasible):
        result = calibrate_gains(top, target_power_dbm=0.0, max_gain_db=20.0)
    assert all(result.clipped)
    np.testing.assert_allclose(result.gains_db, 20.0, atol=1e-9)


def test_calibration_analytic_loss_budget():
    """Mixed coupler+fiber losses: gains match the analytic budget."""
    bank = _bank(
        fiber=LinearElementSpec(model="fixed_damping", loss_db=6.0),
        coupler=LinearElementSpec(model="fixed_damping", loss_db=2.0))
    env = _env(n_rus=3)
    wf = _wf()
    grid = make_grid(env, wf)
    top = build_stripe(env, bank, 0, grid, wf)
    result = calibrate_gains(top, target_power_dbm=0.0, max_gain_db=30.0)
    # stage 0: fiber 6 + in-coupler 2 = 8 dB; later: out 2 + fiber 6 + in 2 = 10
    np.testing.assert_allclose(result.gains_db, [8.0, 10.0, 10.0], atol=0.01)


def test_calibration_time_domain_fiber_matches_frequency_domain():
    """Calibration meters a delaying time-domain fiber past its delays, so
    its gains equal those of the same fiber filtered per subcarrier."""
    env = _env(n_rus=4)
    wf = _wf()
    grid = make_grid(env, wf)
    gains = {}
    for domain in ("time", "frequency"):
        bank = _bank(fiber=_s2p_fiber(grid, domain))
        top = build_stripe(env, bank, 0, grid, wf)
        gains[domain] = calibrate_gains(top, target_power_dbm=0.0, max_gain_db=30.0).gains_db
    np.testing.assert_allclose(gains["time"], gains["frequency"], rtol=0, atol=1e-6)


def _s21_cascade(top, target_power_dbm, max_gain_db):
    """The calibration the trunk's S21 cascade implies, in closed form.

    Every QPSK bin of the reference carries the target power, and an
    element scales the power on occupied bin q by its |S21(q)|^2. So booster
    i meets the mean P of the bins' powers a, sets g = min(target/P,
    max_gain), puts out P*g, and the next booster meets a*g*|C|^2|F|^2|C|^2
    (output coupler, fiber, input coupler)."""
    grid = top.grid
    q = grid.num_subcarriers
    bins = (np.arange(q) - q // 2) % grid.n_fft

    def power_response(element):
        if element.model == "ideal":
            return 1.0
        if element.model == "fixed_damping":
            return element.amplitude ** 2
        h = (element.fft_response if element.domain == "frequency"
             else np.fft.fft(element.impulse.h, grid.n_fft))
        return np.abs(h[bins]) ** 2

    fiber, coupler = power_response(top.fiber), power_response(top.coupler)
    target = 10.0 ** ((target_power_dbm - 30.0) / 10.0)
    max_gain = 10.0 ** (max_gain_db / 10.0)
    a = target * fiber * coupler
    gains, clipped, p_out = [], [], []
    for _ in range(top.n_rus):
        power = float(np.mean(a))
        gain = min(target / power, max_gain)
        gains.append(10.0 * np.log10(gain))
        clipped.append(target / power > max_gain)
        p_out.append(10.0 * np.log10(power * gain / 1e-3))
        a = a * gain * coupler * fiber * coupler
    return gains, clipped, p_out


def _assert_cascade(got, want):
    """``got``, a `CalibrationResult`, has the gains and output powers of
    `_s21_cascade`'s ``want`` to 1e-9 dB, and its clip flags exactly."""
    gains, clipped, p_out = want
    np.testing.assert_allclose(got.gains_db, gains, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got.output_powers_dbm, p_out, rtol=0, atol=1e-9)
    assert list(got.clipped) == clipped


def _calibration_cases():
    """(stripe, target dBm, max gain dB) of each trunk kind that filters
    each symbol alone: ideal, fixed-damping and s2p elements, and a
    stripe whose boosters clip."""
    env, wf = _env(n_rus=4), _wf()
    grid = make_grid(env, wf)
    network = parse_touchstone(s2p_from_taps([0.8, 0.15j, 0.05], grid.fc,
                                             grid.sample_rate, n_points=grid.n_fft + 1))
    s2p = LinearElementSpec(model="s2p_filter", network=network, domain="frequency")
    example = [load_environment(EXAMPLES / "environment.yaml"),
               load_waveform(EXAMPLES / "waveform.yaml"),
               load_components(EXAMPLES / "components.yaml")]
    return {
        "example": (build_stripe(example[0], example[2], 0,
                                 make_grid(example[0], example[1]), example[1]),
                    example[2].calibration.target_power_dbm,
                    example[2].calibration.max_gain_db),
        "fixed-damping-fiber": (build_stripe(env, _damped_bank(loss_db=7.0), 0, grid, wf),
                                -10.0, 20.0),
        "s2p-coupler": (build_stripe(env, _bank(coupler=s2p), 0, grid, wf), 0.0, 30.0),
        "clipping": (build_stripe(env, _damped_bank(loss_db=13.0), 0, grid, wf), 0.0, 12.0),
    }


@pytest.mark.parametrize("case", ["example", "fixed-damping-fiber", "s2p-coupler",
                                  "clipping"])
def test_calibration_matches_the_s21_cascade(case):
    """On every seed, calibration gives the gains, clip flags and powers of
    the closed-form S21 cascade of its trunk."""
    top, target, max_gain = _calibration_cases()[case]
    want = _s21_cascade(top, target, max_gain)
    for seed in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationInfeasible)
            got = calibrate_gains(top, target, max_gain, seed=seed)
        _assert_cascade(got, want)
    assert any(want[1]) == (case == "clipping")
    if case == "example":  # each RU's loss budget: fiber, then two couplers
        np.testing.assert_allclose(got.gains_db[:3], [10.874, 17.867, 17.860], atol=5e-4)


def test_time_domain_trunk_calibration_matches_the_s21_cascade(monkeypatch):
    """A time-domain element spills each symbol into the next, so such a
    trunk is metered on the second symbol of a two-symbol reference, past
    the spill, where the filter acts on each bin as the S21 of its taps."""
    env, wf = _env(n_rus=4), _wf()
    grid = make_grid(env, wf)
    network = parse_touchstone(s2p_from_taps([0.8, 0.15j, 0.05], grid.fc,
                                             grid.sample_rate, n_points=grid.n_fft + 1))
    for part in ("fiber", "coupler"):
        bank = _bank(**{part: LinearElementSpec(model="s2p_filter", network=network,
                                                domain="time", n_taps=8)})
        top = build_stripe(env, bank, 0, grid, wf)
        want = _s21_cascade(top, 0.0, 30.0)
        widths = []
        synthesize = stripe.synthesize_symbols
        monkeypatch.setattr(stripe, "synthesize_symbols", lambda symbols, *args: (
            widths.append(symbols.shape[1]), synthesize(symbols, *args))[1])
        for seed in range(20):
            _assert_cascade(calibrate_gains(top, 0.0, 30.0, seed=seed), want)
        assert widths == [2] * 20
        monkeypatch.undo()


def test_calibration_past_the_cp_meters_the_second_symbol():
    """A time-domain fiber with 20% of its energy in a tap past the cyclic
    prefix spills each symbol into the next. On the reference's second
    symbol that spill comes from the first, so over 20 seeds the mean gains
    stay within 0.03 dB of the S21 cascade (0.007 dB here); the first
    symbol's spill comes from the zeros before the reference, and metering
    it reads gains up to 0.15 dB high."""
    env, wf = _env(n_rus=4), _wf()
    grid = make_grid(env, wf)
    taps = np.zeros(65, complex)
    taps[0], taps[64] = 0.8, 0.4
    network = parse_touchstone(s2p_from_taps(list(taps), grid.fc, grid.sample_rate,
                                             n_points=grid.n_fft + 1))
    top = build_stripe(env, _bank(fiber=LinearElementSpec(
        model="s2p_filter", network=network, domain="time", n_taps=taps.size,
        group_velocity=2e8)), 0, grid, wf)
    h = top.fiber.impulse.h
    cp_span = wf.cp_length * grid.oversampling
    assert np.sum(np.abs(h[cp_span:]) ** 2) >= 0.1 * np.sum(np.abs(h) ** 2)
    gains = [calibrate_gains(top, 0.0, 30.0, seed=seed).gains_db for seed in range(20)]
    np.testing.assert_allclose(np.mean(gains, axis=0), _s21_cascade(top, 0.0, 30.0)[0],
                               rtol=0, atol=0.03)


# ---------------------------------------------------------------------------
# Propagation basics
# ---------------------------------------------------------------------------

def test_downlink_ideal_is_transparent():
    env = _env(n_rus=3)
    wf = _wf(n_ofdm_symbols=2)
    grid = make_grid(env, wf)
    top = build_stripe(env, ComponentBank(), 0, grid, wf)
    rng = np.random.default_rng(0)
    x = TimeWaveform(rng.standard_normal(2 * (grid.n_fft + 32))
                     + 1j * rng.standard_normal(2 * (grid.n_fft + 32)),
                     grid.sample_rate)
    branches, taps, offset = propagate_downlink(top, x, 2, [0.0], seed=1)
    assert offset == 0
    assert len(branches) == 1
    np.testing.assert_allclose(branches[0].samples, x.samples, atol=1e-12)


def test_downlink_deeper_ru_lower_power():
    """Lossy fiber, no calibration: deeper active RU receives less power."""
    env = _env(n_rus=5)
    wf = _wf(n_ofdm_symbols=2)
    grid = make_grid(env, wf)
    top = build_stripe(env, _damped_bank(loss_db=6.0), 0, grid, wf)
    rng = np.random.default_rng(1)
    x = TimeWaveform(rng.standard_normal(2 * (grid.n_fft + 32))
                     + 1j * rng.standard_normal(2 * (grid.n_fft + 32)), grid.sample_rate)
    x = x.with_samples(x.samples * _power_scale(x, 0.0))
    powers = []
    for ru in (1, 4):
        branches, _, _ = propagate_downlink(top, x, ru, [0.0], seed=1)
        powers.append(branches[0].power)
    assert powers[1] < powers[0]
    # 3 extra hops of 6 dB fiber loss each (couplers ideal, boosters 0 dB)
    assert abs(10 * np.log10(powers[0] / powers[1]) - 18.0) < 0.5


@pytest.mark.parametrize("direction, labels", [
    ("dl", ["cu_dac", "cu_iq", "cu_pa",
            "fiber0", "ru0_coupler_in", "ru0_booster", "ru0_coupler_out",
            "fiber1", "ru1_coupler_in", "ru1_booster", "ru1_coupler_out",
            "fiber2", "ru2_coupler_in", "ru2_antenna_amp0", "ru2_antenna_amp1"]),
    ("ul", ["ru2_antenna_amp0", "ru2_antenna_amp1", "ru2_coupler_out", "fiber2",
            "ru1_coupler_out", "ru1_booster", "ru1_coupler_in", "fiber1",
            "ru0_coupler_out", "ru0_booster", "ru0_coupler_in", "fiber0",
            "cu_rx_iq", "cu_rx_amp"]),
    ("dl", ["cu_dac", "cu_iq", "cu_pa",
            "fiber0", "ru0_coupler_in", "ru0_booster", "ru0_coupler_out",
            "fiber1", "ru1_coupler_in", "ru1_antenna_amp0"]),
])
def test_walk_tap_labels(direction, labels):
    """Every stage of a walk, in order, at the RU its antenna amplifiers
    name, of a stripe two RUs longer, with one antenna per amplifier."""
    antennas = [label for label in labels if "_antenna_amp" in label]
    ru = int(antennas[0].split("_")[0][2:])
    env = _env(n_rus=ru + 2, n_antennas=len(antennas))
    wf = _wf(n_ofdm_symbols=2)
    grid = make_grid(env, wf)
    top = build_stripe(env, ComponentBank(), 0, grid, wf)
    x = TimeWaveform(np.ones(2 * (grid.n_fft + 32), complex), grid.sample_rate)
    phases = [0.0] * len(antennas)
    if direction == "dl":
        _, taps, _ = propagate_downlink(top, x, ru, phases, seed=1, record_taps=True)
    else:
        _, taps, _ = propagate_uplink(top, [x] * len(antennas), ru, phases, seed=1,
                                      record_taps=True)
    assert [t[0] for t in taps] == labels


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_amplifier_label_names_exactly_the_amplifier_stages(direction):
    """`_AMPLIFIER_LABEL`, which picks the AM/AM stages of a tap export,
    matches the label of every stage whose params are an amplifier's, and
    no other."""
    env = _env(n_rus=4, n_antennas=2)
    wf = _wf(n_ofdm_symbols=2)
    grid = make_grid(env, wf)
    top = build_stripe(env, ComponentBank(), 0, grid, wf)
    stages = stripe._walk_stages(top, 2, lambda node, tag: None, direction)
    assert ([bool(stripe._AMPLIFIER_LABEL.fullmatch(label)) for label, _, _ in stages]
            == [isinstance(params, AmplifierParams) for _, params, _ in stages])
    assert sum(isinstance(params, AmplifierParams) for _, params, _ in stages) == 5


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------

def test_run_link_loopback_dl_ul():
    env = _env(n_rus=3)
    wf = _wf()
    bank = ComponentBank()
    for direction in ("dl", "ul"):
        res = run_link(env, wf, bank, "identity", 0, 0, 1,
                       direction=direction, seed=3)
        assert res.metrics.ber == 0.0
        assert res.metrics.nmse_db <= -100.0


def test_run_link_deterministic():
    env = _env(n_rus=3, n_antennas=2)
    wf = _wf()
    bank = _bank(boost_amplifier=AmplifierParams(
        gain_db=3.0, mode="tanh", sat_amplitude=1.0, nf_db=6.0, bandwidth=3e9))
    a = run_link(env, wf, bank, "los", 0, 0, 2, direction="ul", seed=11)
    b = run_link(env, wf, bank, "los", 0, 0, 2, direction="ul", seed=11)
    np.testing.assert_array_equal(a.rx_symbols, b.rx_symbols)
    assert a.metrics == b.metrics
    c = run_link(env, wf, bank, "los", 0, 0, 2, direction="ul", seed=12)
    assert not np.array_equal(a.rx_symbols, c.rx_symbols)


def test_run_link_awgn_snr_tracks_target():
    env = _env(n_rus=2)
    wf = _wf(n_ofdm_symbols=40, qam_order=4, oversampling_factor=1)
    res = run_link(env, wf, ComponentBank(), "identity", 0, 0, 0,
                   direction="dl", seed=5, ota_snr_db=25.0)
    assert abs(res.metrics.sndr_db - 25.0) < 0.4


def test_run_link_matched_beams_beat_zero_phases():
    env = _env(n_rus=3, n_antennas=4)
    wf = _wf()
    bank = ComponentBank()
    matched = run_link(env, wf, bank, "los", 0, 0, 1, direction="ul", seed=7,
                       ota_snr_db=15.0)
    zeroed = run_link(env, wf, bank, "los", 0, 0, 1, direction="ul", seed=7,
                      ota_snr_db=15.0, beam_phases=np.zeros(4))
    p_matched = np.mean(np.abs(matched.rx_symbols) ** 2)
    p_zeroed = np.mean(np.abs(zeroed.rx_symbols) ** 2)
    assert p_matched >= p_zeroed


def test_passive_path_reciprocity():
    """Fixed-damping trunk: UL and DL net gains agree exactly."""
    env = _env(n_rus=4)
    wf = _wf()
    bank = _bank(
        fiber=LinearElementSpec(model="fixed_damping", loss_db=4.0),
        coupler=LinearElementSpec(model="fixed_damping", loss_db=1.5))
    dl = run_link(env, wf, bank, "identity", 0, 0, 2, direction="dl", seed=9)
    ul = run_link(env, wf, bank, "identity", 0, 0, 2, direction="ul", seed=9)
    g_dl = np.mean(np.abs(dl.rx_symbols) ** 2) / np.mean(np.abs(dl.tx_grid.symbols) ** 2)
    g_ul = np.mean(np.abs(ul.rx_symbols) ** 2) / np.mean(np.abs(ul.tx_grid.symbols) ** 2)
    assert abs(10 * np.log10(g_dl / g_ul)) < 1e-9


def test_time_domain_fiber_delay_tracked_and_transparent():
    """s2p fiber applied by convolution: delay reported, link still clean."""
    taps = np.zeros(4, complex)
    taps[0] = 1.0
    env = _env(n_rus=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    grid_probe = make_grid(env, wf)
    text = s2p_from_taps(taps, grid_probe.fc, grid_probe.sample_rate,
                         n_points=grid_probe.n_fft)
    bank = _bank(fiber=LinearElementSpec(
        model="s2p_filter", network=parse_touchstone(text), domain="time",
        n_taps=8, group_velocity=2e8))
    res = run_link(env, wf, bank, "identity", 0, 0, 1, direction="dl", seed=13)
    # two segments of 2.0 m and 0.5 m at 2e8 m/s and 6 GS/s
    assert res.delay_samples == round(2.0 / 2e8 * 6e9) + round(0.5 / 2e8 * 6e9)
    assert res.metrics.nmse_db <= -100.0
    assert res.metrics.ber == 0.0


@pytest.mark.parametrize("linear_only", [False, True])
def test_walk_prepends_the_segment_delay(linear_only):
    """On a time-domain fiber a walk to RU 0 gives the CU fiber's delay as
    zero samples, then the fiber's convolution of its input, in linear
    walks too; the walk reports that delay as its offset."""
    env = _env(n_rus=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    grid = make_grid(env, wf)
    top = build_stripe(env, _bank(fiber=_s2p_fiber(grid, "time")), 0, grid, wf)
    rng = np.random.default_rng(5)
    n = 2 * (grid.n_fft + 8 * grid.oversampling)
    x = TimeWaveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), grid.sample_rate)
    (branch,), _taps, offset = propagate_downlink(top, x, 0, [0.0], seed=3,
                                                  linear_only=linear_only)
    delay = round(2.0 / 2e8 * grid.sample_rate)
    assert offset == top.fiber_delays[0] == delay
    assert branch.samples.size == delay + n
    assert np.all(branch.samples[:delay] == 0)
    np.testing.assert_allclose(branch.samples[delay:],
                               np.convolve(x.samples, top.fiber.impulse.h)[:n],
                               rtol=1e-12, atol=0)


def _noisy_time_domain_bank(env, wf):
    """Noisy tanh boosters and antenna amps on a delaying time-domain fiber,
    so the waveform grows along the walk."""
    grid_probe = make_grid(env, wf)
    text = s2p_from_taps([0.9, 0.1], grid_probe.fc, grid_probe.sample_rate,
                         n_points=grid_probe.n_fft)
    return _bank(
        fiber=LinearElementSpec(model="s2p_filter", network=parse_touchstone(text),
                                domain="time", n_taps=8, group_velocity=2e8),
        boost_amplifier=AmplifierParams(gain_db=3.0, mode="tanh", sat_amplitude=2.0,
                                        nf_db=8.0, bandwidth=3e9),
        antenna_amplifier=AmplifierParams(gain_db=2.0, nf_db=6.0, bandwidth=3e9))


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_noisy_time_domain_walk_draws_ahead_exactly(direction, monkeypatch):
    """Noise drawn one stage ahead follows the growing waveform length and
    equals the noise drawn inline, bit for bit."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    bank = _noisy_time_domain_bank(env, wf)
    threads = threading.active_count()
    first = run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=21)
    again = run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=21)
    # CU fiber 2.0 m, then three 0.5 m segments, at 2e8 m/s and 6 GS/s
    assert first.delay_samples == round(2.0 / 2e8 * 6e9) + 3 * round(0.5 / 2e8 * 6e9)
    assert again.rx_symbols.tobytes() == first.rx_symbols.tobytes()
    assert threading.active_count() == threads  # no helper outlives a walk
    monkeypatch.setattr(stripe, "_noise_draws", lambda *args: [])
    inline = run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=21)
    assert inline.rx_symbols.tobytes() == first.rx_symbols.tobytes()
    assert inline.metrics == first.metrics


def test_linear_walk_reports_the_noisy_walks_offset():
    """A linear walk on a time-domain stripe delays as the noisy walk does:
    the same offset, the sum of the crossed segments' delays."""
    env = _env(n_rus=4, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _noisy_time_domain_bank(env, wf), 0, make_grid(env, wf), wf)
    x = TimeWaveform(np.ones(2 * (top.grid.n_fft + 16), complex), top.grid.sample_rate)
    offsets = [propagate_downlink(top, x, 3, [0.0], seed=4, linear_only=linear_only)[2]
               for linear_only in (False, True)]
    assert offsets[0] == offsets[1] == sum(top.fiber_delays) == 60 + 3 * 15


def test_linear_walk_is_the_walk_of_an_ideal_bank():
    """A linear walk of an impaired, calibrated stripe is, bit for bit, the
    walk of the same stripe built with ideal hardware at the same gains:
    the calibrated booster gains carry over, and every DAC, IQ, oscillator
    and amplifier impairment is gone."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    grid = make_grid(env, wf)
    impaired = dataclasses.replace(
        _noisy_time_domain_bank(env, wf),
        dac=DacParams(mode="quantize", bits=4, clip_amplitude=0.5),
        iq_modem=components.IqParams(gain_mismatch=1.2, phase_mismatch=0.1, dc_offset=0.01),
        oscillator=components.OscillatorParams(mode="wiener", innovation_std=0.05))
    ideal = _bank(fiber=impaired.fiber,
                  boost_amplifier=AmplifierParams(gain_db=impaired.boost_amplifier.gain_db),
                  antenna_amplifier=AmplifierParams(
                      gain_db=impaired.antenna_amplifier.gain_db))
    gains = (1.5, -2.0, 4.0, 0.5)
    rng = np.random.default_rng(8)
    n = 2 * (grid.n_fft + 8 * grid.oversampling)
    x = TimeWaveform(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                     grid.sample_rate)
    walks = [propagate_downlink(build_stripe(env, bank, 0, grid, wf).with_gains(gains), x, 3,
                                [0.0, 1.0], seed=4, record_taps=True, linear_only=linear)
             for bank, linear in ((impaired, True), (ideal, False))]
    (branches, taps, offset), (want_branches, want_taps, want_offset) = walks
    assert offset == want_offset
    assert [b.samples.tobytes() for b in branches] == [
        b.samples.tobytes() for b in want_branches]
    assert [(label, a.tobytes(), b.tobytes()) for label, a, b in taps] == [
        (label, a.tobytes(), b.tobytes()) for label, a, b in want_taps]
    noisy = propagate_downlink(build_stripe(env, impaired, 0, grid, wf).with_gains(gains), x,
                               3, [0.0, 1.0], seed=4)[0]
    assert noisy[0].samples.tobytes() != branches[0].samples.tobytes()


def test_linear_walk_takes_no_noise_stream():
    """A linear walk plans its own noiseless stages; a link's noise stream,
    planned for the impaired stages, is refused rather than walked."""
    env = _env(n_rus=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _bank(), 0, make_grid(env, wf), wf)
    x = TimeWaveform(np.ones(2 * (top.grid.n_fft + 16), complex), top.grid.sample_rate)
    with pytest.raises(ConfigError, match="no noise stream"):
        propagate_downlink(top, x, 1, [0.0], seed=4, linear_only=True,
                           noise=stripe._NoiseAhead([]))


@pytest.mark.parametrize("downmix", [False, True])
def test_ideal_mixer_keeps_every_byte_and_allocates_nothing(downmix):
    """An ideal IQ mixer on an ideal oscillator hands the walk back its own
    array with the input's bytes, negative zeros included, and makes no
    waveform-sized array: no zero phase track and no multiply by 1 + 0j."""
    n = 1 << 16
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[::5] = complex(-0.0, -1.0)  # 1 + 0j times this has a +0 real part
    x.imag[1::7] = -0.0
    want = x.tobytes()
    chain = stripe._Chain(x=x, cp_samples=0, n_fft=64)
    osc = components.Oscillator(components.OscillatorParams(), 1e9)
    out, peak = _traced_peak(lambda: chain.iq_mix(x, components.IqParams(), osc, downmix))
    assert out is x and out.tobytes() == want
    assert peak < x.nbytes // 100


def test_noise_drawn_for_the_wrong_length_raises(monkeypatch):
    """A planned length that the walk does not reach is an error, never a
    silent second draw."""
    env = _env(n_rus=3, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _noisy_time_domain_bank(env, wf), 0, make_grid(env, wf), wf)
    x = TimeWaveform(np.ones(512, complex), top.grid.sample_rate)
    plan = stripe._noise_draws
    monkeypatch.setattr(stripe, "_noise_draws",
                        lambda stages, length: plan(stages, length - 1))
    threads = threading.active_count()
    with pytest.raises(LengthError):
        propagate_downlink(top, x, 2, [0.0], seed=1)
    assert threading.active_count() == threads


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_walk_input_off_the_grid_rate_raises(direction, monkeypatch):
    """An input sampled at another rate than the stripe grid (here the
    second uplink branch) is a GridMismatch before any noise is planned."""
    env = _env(n_rus=3, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _noisy_time_domain_bank(env, wf), 0, make_grid(env, wf), wf)
    on, off = (TimeWaveform(np.ones(512, complex), rate)
               for rate in (top.grid.sample_rate, 2 * top.grid.sample_rate))

    def no_plan(*args):
        raise AssertionError("noise was planned")

    monkeypatch.setattr(stripe, "_noise_draws", no_plan)
    with pytest.raises(GridMismatch):
        if direction == "dl":
            propagate_downlink(top, off, 2, [0.0, 0.0], seed=1)
        else:
            propagate_uplink(top, [on, off], 2, [0.0, 0.0], seed=1)


def test_noiseless_walks_start_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(stripe, "ThreadPoolExecutor", no_pool)
    env = _env(n_rus=3)
    bank = _bank(boost_amplifier=AmplifierParams(mode="tanh", sat_amplitude=2.0))
    for direction in ("dl", "ul"):
        run_link(env, _wf(), bank, "los", 0, 0, 2, direction=direction, seed=3,
                 calibrate=True)
    # a whole link with every noise source off: amplifiers, receiver and
    # over-the-air; turning the over-the-air noise on does start the helper
    assert bank.receiver.nf_db is None
    for direction in ("dl", "ul"):
        run_link(env, _wf(), bank, "identity", 0, 0, 2, direction=direction, seed=3)
        with pytest.raises(AssertionError, match="helper thread"):
            run_link(env, _wf(), bank, "identity", 0, 0, 2, direction=direction,
                     seed=3, ota_snr_db=20.0)


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_negative_booster_noise_power_raises_before_any_thread(direction, monkeypatch):
    """A booster built in Python with a noise figure under 0 dB fails the
    link's plan with `DomainError`, before a helper thread starts and
    before any sample turns NaN."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(stripe, "ThreadPoolExecutor", no_pool)
    bank = _bank(boost_amplifier=AmplifierParams(nf_db=-3.0, bandwidth=3e9))
    with pytest.raises(DomainError):
        run_link(_env(n_rus=3), _wf(), bank, "los", 0, 0, 2, direction=direction, seed=3)


def test_concurrent_links_match_serial():
    """Links on several threads, each with its own helper, give the serial
    results; more threads than cores and a short switch interval."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    bank = _noisy_time_domain_bank(env, wf)
    seeds = [31, 32, 33, 34]

    def link(seed):
        return run_link(env, wf, bank, "los", 0, 0, 3, direction="ul" if seed % 2 else "dl",
                        seed=seed).rx_symbols.tobytes()

    serial = {seed: link(seed) for seed in seeds}
    results, errors = {}, []

    def work(seed):
        try:
            for _ in range(3):
                results.setdefault(seed, set()).add(link(seed))
        except Exception as exc:  # reported below, with the seed
            errors.append((seed, exc))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors, errors
    assert results == {seed: {serial[seed]} for seed in seeds}


def test_fd_fiber_matches_fixed_damping_reference():
    """A flat -6 dB s2p fiber equals a 6 dB fixed damping, both domains."""
    env = _env(n_rus=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    grid_probe = make_grid(env, wf)
    scale = 10 ** (-6.0 / 20.0)
    text = s2p_from_taps([scale], grid_probe.fc, grid_probe.sample_rate,
                         n_points=grid_probe.n_fft)
    ref = run_link(env, wf, _bank(fiber=LinearElementSpec(
        model="fixed_damping", loss_db=6.0)), "identity", 0, 0, 1, seed=2)
    for domain in ("frequency", "time"):
        bank = _bank(fiber=LinearElementSpec(
            model="s2p_filter", network=parse_touchstone(text), domain=domain,
            n_taps=8))
        got = run_link(env, wf, bank, "identity", 0, 0, 1, seed=2)
        np.testing.assert_allclose(got.rx_symbols, ref.rx_symbols, atol=1e-8)


def test_run_link_with_calibration_restores_power():
    env = _env(n_rus=4)
    wf = _wf()
    bank = dataclasses.replace(_damped_bank(loss_db=10.0),
                               calibration=dataclasses.replace(
                                   ComponentBank().calibration,
                                   target_power_dbm=0.0, max_gain_db=20.0))
    res = run_link(env, wf, bank, "identity", 0, 0, 3, direction="dl", seed=1,
                   calibrate=True)
    assert res.calibration is not None
    np.testing.assert_allclose(res.calibration.gains_db, 10.0, atol=0.01)
    assert res.metrics.ber == 0.0


def test_cross_path_dataset_equals_model(tmp_path):
    """Synthetic LoS dataset lookup equals the direct model, same seed."""
    env = _env(n_rus=3, n_antennas=2, q=128)
    wf = _wf()
    grid = SubcarrierGrid(env.sub_thz.fc, env.sub_thz.bw, 128, 1)
    ds = generate_synthetic(env, grid, model="los", n_tx=2, n_rx=1)
    write_dataset(ds, tmp_path)
    reader = read_dataset(tmp_path)
    bank = ComponentBank()
    via_model = run_link(env, wf, bank, "los", 0, 0, 1, direction="dl", seed=21)
    via_data = run_link(env, wf, bank, reader, 0, 0, 1, direction="dl", seed=21)
    num = np.sum(np.abs(via_data.rx_symbols - via_model.rx_symbols) ** 2)
    den = np.sum(np.abs(via_model.rx_symbols) ** 2)
    assert 10 * np.log10(num / den) < -120.0


def test_run_link_rejects_bad_direction_and_grid():
    env = _env(n_rus=2)
    with pytest.raises(ConfigError):
        run_link(env, _wf(), ComponentBank(), "identity", 0, 0, 0,
                 direction="sideways", seed=0)
    env_no_grid = dataclasses.replace(env, sub_thz=None)
    with pytest.raises(ConfigError):
        run_link(env_no_grid, _wf(), ComponentBank(), "identity", 0, 0, 0,
                 seed=0)


def test_stagewise_compression_and_scatter_growth():
    """Cascaded driven boosters: AM/AM clouds against the common stripe
    input show deepening compression and growing scatter stage over stage."""
    env = _env(n_rus=6)
    wf = _wf(n_ofdm_symbols=4, tx_power=27.0, oversampling_factor=2)
    booster = AmplifierParams(gain_db=2.0, mode="tanh", sat_amplitude=1.0,
                              nf_db=30.0, bandwidth=3e9)
    bank = _bank(boost_amplifier=booster)
    res = run_link(env, wf, bank, "identity", 0, 0, 5, direction="dl",
                   seed=17, record_taps=True)
    stages = [(lbl, xi, xo) for lbl, xi, xo in res.stage_taps
              if "booster" in lbl]
    assert len(stages) == 5
    x0 = np.abs(stages[0][1])  # drive axis shared by all stage clouds
    small = x0 < np.quantile(x0, 0.05)
    big = x0 > np.quantile(x0, 0.95)
    edges = np.quantile(x0, np.linspace(0, 1, 21))
    which = np.clip(np.searchsorted(edges, x0) - 1, 0, 19)
    comp, scatter = [], []
    for _, _, x_out in stages:
        y = np.abs(x_out)
        slope = np.mean(y[small]) / np.mean(x0[small])
        comp.append(np.mean(y[big]) / (slope * np.mean(x0[big])))
        scatter.append(np.sqrt(np.mean([np.var(y[which == b])
                                        for b in range(20)])))
    assert all(b < a for a, b in zip(comp[:-1], comp[1:]))
    assert all(b > a for a, b in zip(scatter[:-1], scatter[1:]))


# ---------------------------------------------------------------------------
# Reused buffers: what a walk may overwrite, and what leaves a link
# ---------------------------------------------------------------------------

def _workspace_bank(env, wf):
    """Every stage kind that works in the walk's buffers: a quantizing DAC,
    a frequency-domain s2p fiber, fixed-damping couplers, noisy tanh
    boosters and noisy antenna amplifiers, plus receiver noise."""
    grid_probe = make_grid(env, wf)
    text = s2p_from_taps([0.8, 0.15j, 0.05], grid_probe.fc, grid_probe.sample_rate,
                         n_points=grid_probe.n_fft)
    return _bank(
        fiber=LinearElementSpec(model="s2p_filter", network=parse_touchstone(text),
                                domain="frequency"),
        coupler=LinearElementSpec(model="fixed_damping", loss_db=3.0),
        boost_amplifier=AmplifierParams(gain_db=4.0, mode="tanh", sat_amplitude=2.0,
                                        nf_db=8.0, bandwidth=3e9),
        antenna_amplifier=AmplifierParams(gain_db=2.0, nf_db=6.0, bandwidth=3e9),
        dac=DacParams(mode="quantize", bits=10, clip_amplitude=1.0),
        receiver=ReceiverConfig(nf_db=7.0))


def _link_bytes(res) -> list:
    """Every array a LinkResult carries, as bytes."""
    arrays = [res.rx_symbols, res.h_estimate, res.tx_grid.symbols]
    for _label, x_in, x_out in res.stage_taps:
        arrays += [x_in, x_out]
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("direction, record_taps, make_bank", [
    pytest.param(direction, record_taps, bank, id=f"{direction}-{record_taps}{suffix}")
    for suffix, bank in (("", _workspace_bank), ("-time_domain", _noisy_time_domain_bank))
    for direction in ("dl", "ul") for record_taps in (False, True)])
def test_walks_leave_their_inputs_unchanged(direction, record_taps, make_bank):
    """Neither the waveforms a walk is given nor the ones it returned
    change, also where a delaying, convolving fiber makes fresh arrays
    mid-walk."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, make_bank(env, wf), 0, make_grid(env, wf), wf)
    rng = np.random.default_rng(5)
    n = 2 * (top.grid.n_fft + 8 * top.grid.oversampling)
    inputs = [TimeWaveform(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                           top.grid.sample_rate) for _ in range(2)]
    before = [x.samples.tobytes() for x in inputs]
    if direction == "dl":
        out, taps, _ = propagate_downlink(top, inputs[0], 3, [0.3, -0.2], seed=4,
                                          record_taps=record_taps)
    else:
        out, taps, _ = propagate_uplink(top, inputs, 3, [0.3, -0.2], seed=4,
                                        record_taps=record_taps)
        out = [out]
    assert [x.samples.tobytes() for x in inputs] == before
    assert bool(taps) == record_taps
    kept = [o.samples.tobytes() for o in out]
    propagate_downlink(top, inputs[1], 3, [0.0, 0.0], seed=5)
    propagate_uplink(top, inputs, 3, [0.0, 0.0], seed=5)
    assert [o.samples.tobytes() for o in out] == kept


@pytest.mark.parametrize("record_taps", [False, True])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_link_results_survive_later_links(direction, record_taps):
    """No array of a LinkResult, and no waveform a walk returns, is a buffer
    a later link on the same thread overwrites: not the received grid, the
    taps, the downlink branch waveforms or the uplink output."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    bank = _workspace_bank(env, wf)
    res = run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=8,
                   calibrate=True, record_taps=record_taps)
    top = build_stripe(env, bank, 0, make_grid(env, wf), wf)
    rng = np.random.default_rng(8)
    n = 2 * (top.grid.n_fft + 8 * top.grid.oversampling)
    x = TimeWaveform(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                     top.grid.sample_rate)
    if direction == "dl":
        walked = propagate_downlink(top, x, 3, [0.3, -0.2], seed=8,
                                    record_taps=record_taps)[0]
    else:
        walked = [propagate_uplink(top, [x, x], 3, [0.3, -0.2], seed=8,
                                   record_taps=record_taps)[0]]
    kept = _link_bytes(res) + [w.samples.tobytes() for w in walked]
    assert bool(res.stage_taps) == record_taps
    for other in ("dl", "ul"):
        run_link(env, wf, bank, "los", 0, 0, 3, direction=other, seed=9,
                 calibrate=True, record_taps=record_taps)
    assert _link_bytes(res) + [w.samples.tobytes() for w in walked] == kept


def _fields(record) -> dict:
    """A record's fields, each array as its bytes."""
    return {f.name: (v.tobytes() if isinstance(v, np.ndarray) else v)
            for f in dataclasses.fields(record) for v in [getattr(record, f.name)]}


@pytest.mark.parametrize("domain", ["frequency", "time"])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_taps_change_no_output_bit(direction, domain):
    """A link that records taps returns every bit of one that does not:
    the taps are copies, and the walk runs in the same buffers."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    bank = _workspace_bank(env, wf)
    bank = dataclasses.replace(bank, fiber=dataclasses.replace(
        bank.fiber, domain=domain, n_taps=8))
    plain, tapped = (run_link(env, wf, bank, "los", 0, 0, 3, direction=direction,
                              seed=8, calibrate=True, record_taps=record_taps)
                     for record_taps in (False, True))
    assert tapped.stage_taps and not plain.stage_taps
    assert tapped.rx_symbols.tobytes() == plain.rx_symbols.tobytes()
    assert tapped.h_estimate.tobytes() == plain.h_estimate.tobytes()
    assert _fields(tapped.metrics) == _fields(plain.metrics)
    assert tapped.delay_samples == plain.delay_samples
    assert (tapped.delay_samples > 0) == (domain == "time")
    assert tapped.calibration == plain.calibration


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_failed_link_leaves_no_thread_and_no_trace(direction, monkeypatch):
    """A link that raises mid-walk stops its helper, and the next link on
    the same thread is bit-identical to one run before the failure."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    bank = _workspace_bank(env, wf)
    reference = _link_bytes(run_link(env, wf, bank, "los", 0, 0, 3,
                                     direction=direction, seed=2, calibrate=True))
    plan = stripe._noise_draws
    monkeypatch.setattr(stripe, "_noise_draws",
                        lambda stages, length: plan(stages, length - 1))
    threads = threading.active_count()
    with pytest.raises(LengthError):
        run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=2,
                 calibrate=True)
    assert threading.active_count() == threads
    monkeypatch.undo()
    again = run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=2,
                     calibrate=True)
    assert _link_bytes(again) == reference


@pytest.mark.parametrize("drop", ["ota", "all"])
@pytest.mark.parametrize("noise", ["thermal", "awgn"])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_noise_drawn_ahead_matches_inline(direction, noise, drop, tmp_path,
                                          monkeypatch):
    """The link-wide stream, over-the-air draw included, gives the bits of
    drawing inline, on a 4x4 dataset grid."""
    env = _env(n_rus=3, n_antennas=4, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    grid = SubcarrierGrid(env.sub_thz.fc, env.sub_thz.bw, 128, 1)
    write_dataset(generate_synthetic(env, grid, model="tdl", seed=3, n_tx=4, n_rx=4),
                  tmp_path)
    bank = _workspace_bank(env, wf)
    snr = 18.0 if noise == "awgn" else None

    def link(bank):
        return run_link(env, wf, bank, read_dataset(tmp_path), 0, 0, 2,
                        direction=direction, seed=12, ota_snr_db=snr)

    ahead = link(bank)
    real = stripe._NoiseAhead
    keep = (lambda shape: len(shape) == 2) if drop == "ota" else (lambda shape: False)
    monkeypatch.setattr(stripe, "_NoiseAhead", lambda draws, stages=None: real(
        [d for d in draws if keep(d[1])], stages))
    # an equal bank of another object: the downlink walks its whole trunk
    # again rather than resume the one drawn ahead
    inline = link(dataclasses.replace(bank))
    assert inline.rx_symbols.tobytes() == ahead.rx_symbols.tobytes()
    assert inline.metrics == ahead.metrics


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_noise_drawn_ahead_matches_inline_at_example_scale(direction, monkeypatch):
    """On the example scenario at RU 9, where each waveform draw takes
    milliseconds, the link drawn ahead through the two-row ring gives the
    bytes of the link drawn inline: the helper draws over no row before
    the stage that owns it has added its noise."""
    env = load_environment(EXAMPLES / "environment.yaml")
    wf = load_waveform(EXAMPLES / "waveform.yaml")
    bank = load_components(EXAMPLES / "components.yaml")

    def link(bank):
        return run_link(env, wf, bank, "los", 0, 0, 9, direction=direction, seed=8)

    ahead = link(bank)
    real = stripe._NoiseAhead
    monkeypatch.setattr(stripe, "_NoiseAhead", lambda draws, stages=None: real([], stages))
    # an equal bank of another object, so the downlink does not resume
    inline = link(dataclasses.replace(bank))
    assert _link_bytes(inline) == _link_bytes(ahead)
    assert inline.metrics == ahead.metrics


def test_half_row_draws_equal_one_stacked_draw():
    """The over-the-air draw's two halves, drawn in turn into two ring rows,
    hold the numbers of one (2, ...) draw from the same generator."""
    shape = (128, 4, 3)
    one = np.random.default_rng(9).standard_normal((2,) + shape)
    ring = np.full((3, 2000), np.nan)
    rows = [ring[2, :1536].reshape(shape), ring[0, :1536].reshape(shape)]
    stripe._draw_into(np.random.default_rng(9), rows)
    assert np.stack(rows).tobytes() == one.tobytes()


def test_noise_ring_never_draws_over_a_draw_in_use():
    """Waveform draws and two-row grid draws through the two-row ring: each
    draw is made ahead and keeps its numbers from `source` until it is
    spent, however far the helper has drawn, and spending it lets the
    helper draw the next ones."""
    grid = (2, 64, 4, 3)  # two rows of 768
    shapes = [(2, 300), grid, (2, 380), (2, 300), grid, grid, (2, 384), (2, 100),
              grid, (2, 350), (2, 384), (2, 384), grid]
    draws = [(np.random.default_rng(seed), shape) for seed, shape in enumerate(shapes)]
    with stripe._NoiseAhead(draws) as noise:
        assert stripe._workspace._arrays["noise_ring"].shape == (2, 768)
        for seed, (rng, shape) in enumerate(draws):
            drawn = noise.source(rng)
            assert isinstance(drawn, stripe._Drawn)  # made ahead, not inline
            z = drawn.standard_normal(shape)
            for _rng, ahead in noise._queued:
                ahead.wait()  # wait for every draw made ahead
            assert np.stack(z).tobytes() == np.random.default_rng(seed).standard_normal(
                shape).tobytes()
            drawn.spent()


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_each_draw_is_made_before_its_stage_reads_it(direction, monkeypatch):
    """`_NoiseAhead.source` hands a stage its draw only once the helper has
    made it, so no stage waits inside `standard_normal`: the wait falls in
    the walk's own time, not in an amplifier's or in the receiver noise's."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    planned, done = [], []
    real = stripe._NoiseAhead
    monkeypatch.setattr(stripe, "_NoiseAhead", lambda draws, stages=None: (
        planned.append(len(draws)), real(draws, stages))[1])
    read = stripe._Drawn.standard_normal

    def standard_normal(self, size):
        done.append(self._future.done())
        return read(self, size)

    monkeypatch.setattr(stripe._Drawn, "standard_normal", standard_normal)
    run_link(env, wf, _workspace_bank(env, wf), "los", 0, 0, 3, direction=direction,
             seed=4)
    assert len(done) == sum(planned) > 0
    assert all(done)


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_over_the_air_draw_shares_the_noise_ring(direction):
    """On the example with four antennas at each end, the over-the-air draw
    leaves no array of its own in the thread's workspace, and the ring is
    no larger than the ring of waveform draws and that array together."""
    env = load_environment(EXAMPLES / "environment.yaml")
    wf = load_waveform(EXAMPLES / "waveform.yaml")
    bank = load_components(EXAMPLES / "components.yaml")
    grid = make_grid(env, wf)
    run_link(env, wf, bank, "los", 0, 0, 9, direction=direction, seed=6, ue_antennas=4)
    arrays = stripe._workspace._arrays
    n_samples = wf.n_ofdm_symbols * (grid.n_fft + wf.cp_length * grid.oversampling)
    grid_draw = 2 * grid.num_subcarriers * 4 * wf.n_ofdm_symbols
    assert "noise_grid" not in arrays
    assert not [name for name, a in arrays.items() if a.size == grid_draw]
    old_ring = (stripe._NoiseAhead.AHEAD + 1) * 2 * n_samples
    assert arrays["noise_ring"].nbytes <= (old_ring + grid_draw) * 8


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_warm_link_keeps_only_walk_arrays_in_the_workspace(direction):
    """Calibration and the OFDM pair keep no scratch: after warm links on
    a fresh thread, with a frequency-domain s2p fiber, the thread's
    workspace holds the walk's trunk, branch and noise ring only."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    bank = _workspace_bank(env, wf)
    names = []

    def links():
        for seed in (1, 2):
            run_link(env, wf, bank, "los", 0, 0, 3, direction=direction, seed=seed,
                     calibrate=True)
        names.extend(stripe._workspace._arrays)

    thread = threading.Thread(target=links)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert sorted(names) == ["branch", "noise_ring", "trunk"]


def _fresh(x: TimeWaveform, refs: list) -> TimeWaveform:
    samples = x.samples.copy()
    refs.append(weakref.ref(samples))
    return TimeWaveform(samples, x.sample_rate)


def test_uplink_takes_each_branch_from_any_iterable():
    """A generator of branches gives the bits of a list, and the walk lets
    each branch go before it asks for the next. Too few or too many
    branches are a LengthError, one off the grid rate a GridMismatch, and
    none leaves a helper thread behind."""
    env = _env(n_rus=3, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _workspace_bank(env, wf), 0, make_grid(env, wf), wf)
    rng = np.random.default_rng(3)
    n = 2 * (top.grid.n_fft + 8 * top.grid.oversampling)
    xs = [TimeWaveform(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                       top.grid.sample_rate) for _ in range(3)]
    refs = []

    def branches():
        for x in xs[:2]:
            assert all(r() is None for r in refs)  # every earlier branch is gone
            yield _fresh(x, refs)
        assert all(r() is None for r in refs)

    want = propagate_uplink(top, xs[:2], 2, [0.3, -0.2], seed=4)[0]
    got = propagate_uplink(top, branches(), 2, [0.3, -0.2], seed=4)[0]
    assert got.samples.tobytes() == want.samples.tobytes()
    assert len(refs) == 2
    threads = threading.active_count()
    for bad in (xs[:1], xs, []):
        with pytest.raises(LengthError):
            propagate_uplink(top, iter(bad), 2, [0.3, -0.2], seed=4)
    off = TimeWaveform(xs[1].samples, 2 * top.grid.sample_rate)
    with pytest.raises(GridMismatch):
        propagate_uplink(top, iter([xs[0], off]), 2, [0.3, -0.2], seed=4)
    assert threading.active_count() == threads


def test_uplink_fills_symbol_grids_as_their_waveforms():
    """Branches given as (Q, S) symbol grids, synthesized straight into the
    walk's arrays, give the bits of their synthesized waveforms; a grid
    of another subcarrier count is a LengthError."""
    env = _env(n_rus=3, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _workspace_bank(env, wf), 0, make_grid(env, wf), wf)
    rng = np.random.default_rng(7)
    grids = [rng.standard_normal((128, 2)) + 1j * rng.standard_normal((128, 2))
             for _ in range(2)]
    waveforms = [TimeWaveform(synthesize_symbols(g, top.grid, 8), top.grid.sample_rate)
                 for g in grids]
    want = propagate_uplink(top, waveforms, 2, [0.3, -0.2], seed=4)[0]
    for given in (grids, iter(grids), [waveforms[0], grids[1]]):
        got = propagate_uplink(top, given, 2, [0.3, -0.2], seed=4)[0]
        assert got.samples.tobytes() == want.samples.tobytes()
    with pytest.raises(LengthError):
        propagate_uplink(top, [grids[0], grids[1][:64]], 2, [0.3, -0.2], seed=4)


def test_downlink_hands_each_branch_to_its_consumer():
    """Each branch reaches the consumer when its amplifier returns, in the
    one array every branch is made in, with the walk's delay; the default
    consumer's copies hold the same bits."""
    env = _env(n_rus=4, n_antennas=3, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _noisy_time_domain_bank(env, wf), 0, make_grid(env, wf), wf)
    rng = np.random.default_rng(6)
    n = 2 * (top.grid.n_fft + 8 * top.grid.oversampling)
    x = TimeWaveform(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                     top.grid.sample_rate)
    seen = []

    def consume(b, branch, offset):
        seen.append((branch.__array_interface__["data"][0],
                     branch.tobytes(), offset))
        return b

    phases = [0.3, -0.2, 0.1]
    got, _, offset = propagate_downlink(top, x, 3, phases, seed=4, consume=consume)
    want, _, want_offset = propagate_downlink(top, x, 3, phases, seed=4)
    assert got == [0, 1, 2]
    assert [s[1] for s in seen] == [w.samples.tobytes() for w in want]
    assert len({s[0] for s in seen}) == 1
    assert {s[2] for s in seen} == {offset} == {want_offset} and offset > 0


def test_uplink_hands_its_output_to_its_consumer():
    """The CU output reaches the consumer once, in the walk's own array
    (the thread's trunk, for a walk that does not delay), with the walk's
    delay; the default consumer's copy holds the same bits."""
    env = _env(n_rus=4, n_antennas=2, q=128)
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    top = build_stripe(env, _workspace_bank(env, wf), 0, make_grid(env, wf), wf)
    rng = np.random.default_rng(7)
    grids = [rng.standard_normal((128, 2)) + 1j * rng.standard_normal((128, 2))
             for _ in range(2)]
    seen = []

    def consume(x, offset):
        trunk = stripe._workspace._arrays["trunk"]
        seen.append((np.shares_memory(x, trunk), x.tobytes(), offset))
        return "consumed"

    got, _, offset = propagate_uplink(top, grids, 2, [0.3, -0.2], seed=4, consume=consume)
    want, _, want_offset = propagate_uplink(top, grids, 2, [0.3, -0.2], seed=4)
    assert got == "consumed"
    assert seen == [(True, want.samples.tobytes(), want_offset)] and offset == want_offset


def _held_bytes(obj, seen) -> int:
    """Bytes of the arrays reachable from a LinkResult, each base once."""
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_held_bytes(getattr(obj, f.name), seen)
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(_held_bytes(x, seen) for x in obj)
    return 0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


# Bounds in waveform buffers, from the example scenario: a warm link peaks
# 2.02 buffers above what its result holds in either direction, and a
# one-antenna walk 0.01 (downlink) and 0.08 (uplink) above its output. A
# stage that allocates its output afresh adds about one buffer to the
# walk. An uplink that synthesizes each branch into a fresh waveform and
# copies it in breaks the uplink bound (2.62), a downlink that
# demodulates its branches through a fresh spectrum breaks the downlink
# bound (2.62), and a demapper that works on all symbols at once breaks
# both (2.79). Besides, the thread's workspace holds 4 buffers: trunk,
# branch and the 2-row noise ring.
_LINK_BUFFERS = {"dl": 2.2, "ul": 2.2}
_WALK_BUFFERS = 0.25
_WORKSPACE_BUFFERS = 4


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_warm_link_allocates_few_waveform_buffers(direction):
    env = load_environment(EXAMPLES / "environment.yaml")
    wf = load_waveform(EXAMPLES / "waveform.yaml")
    bank = load_components(EXAMPLES / "components.yaml")
    grid = make_grid(env, wf)
    buffer = wf.n_ofdm_symbols * (grid.n_fft + wf.cp_length * grid.oversampling) * 16

    def link(seed):
        return run_link(env, wf, bank, "los", 0, 0, 9, direction=direction, seed=seed)

    # warm: the thread's workspace now holds this shape; the measured link
    # has another seed, so it walks from the start
    link(5)
    res, peak = _traced_peak(lambda: link(6))
    assert (peak - _held_bytes(res, set())) / buffer < _LINK_BUFFERS[direction]
    workspace = stripe._workspace._arrays.values()
    assert sum(a.nbytes for a in workspace) == _WORKSPACE_BUFFERS * buffer

    # the walk alone, on one antenna branch, allocates only what it returns
    top = dataclasses.replace(build_stripe(env, bank, 0, grid, wf), n_antennas=1)
    rng = np.random.default_rng(1)
    n = buffer // 16
    x = TimeWaveform(1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                     grid.sample_rate)
    if direction == "dl":
        def walk():
            return propagate_downlink(top, x, 9, [0.0], seed=6)[0][0]
    else:
        def walk():
            return propagate_uplink(top, [x], 9, [0.0], seed=6)[0]
    walk()
    out, peak = _traced_peak(walk)
    assert (peak - out.samples.nbytes) / buffer < _WALK_BUFFERS


@pytest.mark.parametrize("n_rx", [4, 2])
def test_warm_dataset_downlink_makes_no_second_air_grid(n_rx, tmp_path):
    """The air hop of a 4 x n_rx dataset link writes over the branch grids'
    buffer, so a warm downlink peaks below 4.8 (Q, S) symbol grids above
    what its result holds, on the example scenario: 4.3 with n_rx 4 or 2,
    set by that buffer (n_tx grids) and the combined grid. A fresh air
    grid reads 7.3 and 5.3 instead, n_rx - 1 grids more."""
    env = load_environment(EXAMPLES / "environment.yaml")
    wf = load_waveform(EXAMPLES / "waveform.yaml")
    bank = load_components(EXAMPLES / "components.yaml")
    sub = env.sub_thz
    grid = SubcarrierGrid(sub.fc, sub.bw, sub.num_subcarriers, 1)
    write_dataset(generate_synthetic(env, grid, model="tdl", seed=3, n_tx=4, n_rx=n_rx),
                  tmp_path)
    reader = read_dataset(tmp_path)
    symbol_grid = sub.num_subcarriers * wf.n_ofdm_symbols * 16

    def link(seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationInfeasible)
            return run_link(env, wf, bank, reader, 0, 0, 9, seed=seed, calibrate=True)

    link(5)  # warm; the measured link has another seed, so it walks from the start
    res, peak = _traced_peak(lambda: link(6))
    assert (peak - _held_bytes(res, set())) / symbol_grid < 4.8


def test_dataset_link_holds_only_its_channel_slice(tmp_path):
    """A dataset link's channel owns its (stripe, RU) block, not the UE file."""
    env = _env(n_rus=3, n_antennas=2, q=128)
    grid = SubcarrierGrid(env.sub_thz.fc, env.sub_thz.bw, 128, 1)
    write_dataset(generate_synthetic(env, grid, model="tdl", seed=3, n_tx=2, n_rx=2),
                  tmp_path)
    res = run_link(env, _wf(), ComponentBank(), read_dataset(tmp_path), 0, 0, 1, seed=5)
    assert _held_bytes(res.channel, set()) == 2 * 2 * 128 * 16


def test_dataset_link_memory_does_not_grow_with_the_stripe(tmp_path):
    """A warm 4 x 4 dataset link (Q=64) peaks the same on a 64-RU stripe as
    on a 4-RU one: the reader streams the UE file and keeps one (stripe,
    RU) block. Reading the whole UE file peaks 5.9 times higher on 64 RUs."""
    def peak(n_rus):
        env = _env(n_rus=n_rus, spacing=0.1, n_antennas=4, q=64)
        grid = SubcarrierGrid(env.sub_thz.fc, env.sub_thz.bw, 64, 1)
        out = tmp_path / f"rus{n_rus}"
        write_dataset(generate_synthetic(env, grid, model="tdl", seed=3, n_tx=4, n_rx=4),
                      out)
        reader = read_dataset(out)

        def link(seed):
            return run_link(env, _wf(), ComponentBank(), reader, 0, 0, 1, seed=seed)

        link(5)  # warm
        return _traced_peak(lambda: link(6))[1]

    short, long = peak(4), peak(64)
    assert abs(long - short) < 0.05 * short


# ---------------------------------------------------------------------------
# Resumed downlink walks: what a link reuses of the last one on its thread
# ---------------------------------------------------------------------------

def _resume_configs(domain: str = "frequency"):
    """Four RUs, two antennas, two UEs; every stage kind that writes in
    place (frequency), or a delaying, convolving fiber (time)."""
    env = dataclasses.replace(_env(n_rus=4, n_antennas=2, q=128),
                              ue_positions=((3.0, 2.0, 1.5), (5.0, 4.0, 1.5)))
    wf = _wf(n_ofdm_symbols=2, cp_length=8)
    make_bank = _workspace_bank if domain == "frequency" else _noisy_time_domain_bank
    return env, wf, make_bank(env, wf)


def _link(env, wf, bank, direction, ru, ue, seed, calibrate, record_taps=False):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CalibrationInfeasible)
        return run_link(env, wf, bank, "los", ue, 0, ru, direction=direction, seed=seed,
                        calibrate=calibrate, record_taps=record_taps)


def _on_fresh_thread(fn):
    """``fn()`` run alone on a thread of its own, with a fresh workspace."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and out
    return out[0]


def _raising_after_the_write(real):
    """An `amplifier_process` that writes its output, then raises."""
    def amplifier_process(x, params, rng, *, out=None):
        real(x, params, rng, out=out)
        raise RuntimeError("injected after the stage wrote")
    return amplifier_process


def _count_calls(monkeypatch, *names) -> dict:
    """Calls from here on of the named functions `run_link` calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(stripe, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(stripe, name, counted)
    return calls


@pytest.mark.parametrize("calibrate", [False, True])
def test_each_walk_lists_its_stages_once(calibrate, monkeypatch):
    """A direct walk lists its stages once, and so does a link: one that
    walks a downlink from the start, one that resumes it deeper, and an
    uplink link."""
    env, wf, bank = _resume_configs()
    top = build_stripe(env, bank, 0, make_grid(env, wf), wf)
    x = TimeWaveform(np.ones(2 * (top.grid.n_fft + 8 * top.grid.oversampling), complex),
                     top.grid.sample_rate)
    calls = _count_calls(monkeypatch, "_walk_stages", "_transmit_waveform")
    steps = {"walk_dl": lambda: propagate_downlink(top, x, 2, [0.3, -0.2], seed=4),
             "walk_ul": lambda: propagate_uplink(top, [x, x], 2, [0.3, -0.2], seed=4),
             "dl_fresh": lambda: _link(env, wf, bank, "dl", 1, 0, 4, calibrate),
             "dl_resumed": lambda: _link(env, wf, bank, "dl", 2, 1, 4, calibrate),
             "ul": lambda: _link(env, wf, bank, "ul", 2, 0, 4, calibrate)}
    seen = {}
    for name, step in steps.items():  # the direct walks drop any record first
        before = dict(calls)
        step()
        seen[name] = tuple(calls[key] - before[key] for key in calls)
    # (stage lists, transmit waveforms); the resumed link makes no waveform
    assert seen == {"walk_dl": (1, 0), "walk_ul": (1, 0), "dl_fresh": (1, 1),
                    "dl_resumed": (1, 0), "ul": (1, 1)}


def _link_sequence(seed: int, n_steps: int) -> list:
    """Steps of one thread: links ("dl" or "ul", RU, UE, seed, calibrate,
    taps), direct walks ("walk_dl", "walk_ul", RU, seed) and downlink
    links made to raise after a stage wrote ("fault", RU, UE, seed,
    calibrate). The RU rises, falls or repeats; the link seed and the
    calibrate flag change now and then, so most downlink links can resume."""
    rng = random.Random(seed)
    ru, link_seed, calibrate, steps = 0, 4, True, []
    for _ in range(n_steps):
        ru = min(3, max(0, ru + rng.choice((-3, -1, 0, 1, 1, 2))))
        if rng.random() < 0.1:
            link_seed = 9 - link_seed  # 4 <-> 5
        if rng.random() < 0.1:
            calibrate = not calibrate
        kind = rng.choice(("dl",) * 8 + ("ul", "walk_dl", "walk_ul", "fault", "fault"))
        ue = rng.randrange(2)
        if kind in ("dl", "ul"):
            steps.append((kind, ru, ue, link_seed, calibrate, rng.random() < 0.1))
        elif kind == "fault":
            steps.append((kind, ru, ue, link_seed, calibrate))
        else:
            steps.append((kind, ru, link_seed))
    return steps


@pytest.mark.parametrize("domain", ["frequency", "time"])
def test_links_on_one_thread_match_links_run_alone(domain, monkeypatch):
    """Every link of a mixed sequence on one thread returns the bits of the
    same link run alone on a fresh thread: downlink links that resume the
    walk before them, at the same RU or deeper, links that walk from the
    start, uplink links, direct walks over the workspace's trunk, links
    that record taps, and links that fail after a stage wrote."""
    env, wf, bank = _resume_configs(domain)
    top = build_stripe(env, bank, 0, make_grid(env, wf), wf)
    n = 2 * (top.grid.n_fft + 8 * top.grid.oversampling)
    x = TimeWaveform(0.1 * np.exp(2j * np.pi * np.arange(n) / 7.0), top.grid.sample_rate)
    resumed = []
    real_resumable = stripe._resumable

    def resumable(key, active_ru):
        record = real_resumable(key, active_ru)
        resumed.append(None if record is None else (record.depth, active_ru))
        return record

    monkeypatch.setattr(stripe, "_resumable", resumable)
    alone = {}
    faults_resumed = 0
    for step in _link_sequence(28, 56):
        kind, ru, *rest = step
        if kind == "walk_dl":
            propagate_downlink(top, x, ru, [0.3, -0.2], seed=rest[-1])
        elif kind == "walk_ul":
            propagate_uplink(top, [x, x], ru, [0.3, -0.2], seed=rest[-1])
        elif kind == "fault":
            with monkeypatch.context() as m:
                m.setattr(components, "amplifier_process",
                          _raising_after_the_write(components.amplifier_process))
                with pytest.raises(RuntimeError, match="injected"):
                    _link(env, wf, bank, "dl", ru, *rest)
            faults_resumed += resumed[-1] is not None and resumed[-1][0] < ru
        else:
            if step not in alone:
                alone[step] = _on_fresh_thread(lambda: _link_bytes(_link(env, wf, bank, *step)))
            assert _link_bytes(_link(env, wf, bank, *step)) == alone[step], step
    # the sequence resumed at the same RU and deeper, and failed mid-trunk
    # in resumed walks
    assert sum(r is not None and r[0] == r[1] for r in resumed) >= 4
    assert sum(r is not None and r[0] < r[1] for r in resumed) >= 4
    assert faults_resumed >= 2


def test_resumed_link_failing_mid_trunk_leaves_no_trace(monkeypatch):
    """A resumed walk that raises after a trunk stage wrote over the kept
    trunk leaves no record, so the next link walks from the start and
    returns the bits of a fresh one."""
    env, wf, bank = _resume_configs()
    want = _on_fresh_thread(lambda: _link_bytes(_link(env, wf, bank, "dl", 3, 0, 4, True)))
    _link(env, wf, bank, "dl", 1, 0, 4, True)
    with monkeypatch.context() as m:
        calls = _count_calls(m, "_transmit_waveform")
        m.setattr(components, "amplifier_process",
                  _raising_after_the_write(components.amplifier_process))
        with pytest.raises(RuntimeError, match="injected"):
            _link(env, wf, bank, "dl", 3, 0, 4, True)
        assert calls["_transmit_waveform"] == 0  # the failed link resumed
    assert stripe._workspace.record is None
    assert _link_bytes(_link(env, wf, bank, "dl", 3, 0, 4, True)) == want


def test_links_with_taps_never_resume(monkeypatch):
    """A link that records taps walks from the start, however well the
    record matches it, and keeps a tap of every stage."""
    env, wf, bank = _resume_configs()
    want = _on_fresh_thread(lambda: _link_bytes(
        _link(env, wf, bank, "dl", 2, 1, 4, True, record_taps=True)))
    _link(env, wf, bank, "dl", 2, 0, 4, True)
    calls = _count_calls(monkeypatch, "_transmit_waveform", "calibrate_gains")
    tapped = _link(env, wf, bank, "dl", 2, 1, 4, True, record_taps=True)
    assert calls == {"_transmit_waveform": 1, "calibrate_gains": 1}
    assert tapped.stage_taps[0][0] == "cu_dac"
    assert _link_bytes(tapped) == want


def test_an_equal_bank_of_another_object_misses(monkeypatch):
    """The record matches configs by identity: the same bank resumes, an
    equal copy of it walks from the start, with the same bits."""
    env, wf = _env(n_rus=3), _wf()
    bank = _bank(boost_amplifier=AmplifierParams(gain_db=3.0, mode="tanh", sat_amplitude=2.0,
                                                 nf_db=8.0, bandwidth=3e9))
    twin = dataclasses.replace(bank)
    assert twin == bank and twin is not bank
    first = _link(env, wf, bank, "dl", 1, 0, 6, True)
    calls = _count_calls(monkeypatch, "_transmit_waveform", "calibrate_gains")
    same = _link(env, wf, bank, "dl", 1, 0, 6, True)
    assert calls == {"_transmit_waveform": 0, "calibrate_gains": 0}
    other = _link(env, wf, twin, "dl", 1, 0, 6, True)
    assert calls == {"_transmit_waveform": 1, "calibrate_gains": 1}
    assert _link_bytes(first) == _link_bytes(same) == _link_bytes(other)


def test_a_reused_calibration_warns_again(monkeypatch):
    """A link that reuses a clipped calibration warns as calibrating did."""
    env, wf = _env(n_rus=3), _wf()
    bank = dataclasses.replace(_damped_bank(loss_db=30.0),
                               calibration=CalibrationConfig(max_gain_db=20.0))
    calls = _count_calls(monkeypatch, "calibrate_gains")
    results = []
    for ru in (1, 2, 2):
        with pytest.warns(CalibrationInfeasible, match=r"boosters \[0, 1, 2\] clipped"):
            results.append(run_link(env, wf, bank, "los", 0, 0, ru, seed=3, calibrate=True))
    assert calls["calibrate_gains"] == 1
    assert len({r.calibration for r in results}) == 1
