"""Touchstone parser and S21 grid-conversion tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripesim.errors import EmptyNetwork, ExtrapolationWarning, LengthError, TouchstoneError
from stripesim.touchstone import (FrequencyResponse, interpolate_s21,
                                  parse_touchstone, read_touchstone,
                                  response_to_spectrum, to_impulse_response)
from stripesim.waveform import SubcarrierGrid

from conftest import flat_s2p, s2p_from_taps


def test_parse_ri_basic():
    text = "# GHz S RI R 50\n1.0  0 0  0.5 0  0 0  0 0\n"
    net = parse_touchstone(text)
    assert net.freqs[0] == 1e9
    assert net.s21[0] == 0.5 + 0j
    assert net.ref_impedance == 50.0
    assert net.source_format == "RI"


def test_parse_db_magnitude():
    text = "# MHz S DB R 50\n100  0 0  -6.0206 0  0 0  0 0\n"
    net = parse_touchstone(text)
    # oracle: 10^(-6.0206/20), evaluated independently
    expected = 10.0 ** (-6.0206 / 20.0)
    assert abs(net.s21[0].real - expected) < 1e-12
    assert net.s21[0].imag == 0.0
    assert abs(abs(net.s21[0]) - 0.4999999) < 1e-6


def test_parse_ma_conversion():
    text = "# Hz S MA R 50\n1e9  1 0  0.5 90  1 0  1 0\n"
    net = parse_touchstone(text)
    assert abs(net.s21[0] - 0.5j) < 1e-12


def test_decreasing_frequency_rejected():
    text = "# GHz S RI R 50\n2.0 0 0 1 0 0 0 0 0\n1.0 0 0 1 0 0 0 0 0\n"
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone(text)
    assert err.value.kind == TouchstoneError.NON_MONOTONIC_FREQUENCY


@pytest.mark.parametrize("text", [
    "# GHz S RI R 50\n1.0 0 0 nan 0 0 0 0 0\n",
    "# GHz S RI R 50\n1.0 0 0 1 0 0 0 0 inf\n",
    "# GHz S DB R 50\n1.0 0 0 1e308 0 0 0 0 0\n",  # 10^(1e308/20) overflows
    "# GHz S RI R 50\n1.0 0 0 1 0 0 0 0 0\n1e308 0 0 1 0 0 0 0 0\n",  # 1e317 Hz
    "# GHz S RI R 50\nnan 0 0 1 0 0 0 0 0\n"])
def test_non_finite_value_rejected(text):
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone(text)
    assert err.value.kind == TouchstoneError.NON_FINITE_VALUE


@pytest.mark.parametrize("text", [
    "# GHz S RI R 50\n1.0 0 0 1e308 0 0 0 0 0\n",  # finite, yet |S21| is 6160 dB
    "# GHz S MA R 50\n1.0 0 0 1e16 0 0 0 0 0\n",  # 320 dB
    "# GHz S DB R 50\n1.0 0 0 0 0 0 0 301 0\n"])
def test_magnitude_beyond_max_db_rejected(text):
    """An S-parameter above MAX_DB is a typed error, as a config gain is."""
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone(text)
    assert err.value.kind == TouchstoneError.MAGNITUDE_TOO_LARGE
    parse_touchstone(text.replace("1e308", "1e15").replace("1e16", "1e15")
                     .replace("301", "300"))  # at the bound it parses


def test_missing_option_line():
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("1.0 0 0 1 0 0 0 0 0\n")
    assert err.value.kind == TouchstoneError.MISSING_OPTION_LINE
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("! only comments\n")
    assert err.value.kind == TouchstoneError.MISSING_OPTION_LINE


def test_bad_row_arity():
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("# GHz S RI R 50\n1.0 0 0 1 0\n")
    assert err.value.kind == TouchstoneError.BAD_ROW_ARITY


def test_unknown_format():
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone("# GHz S XX R 50\n1.0 0 0 1 0 0 0 0 0\n")
    assert err.value.kind == TouchstoneError.UNKNOWN_FORMAT
    with pytest.raises(TouchstoneError):
        parse_touchstone("# GHz Z RI R 50\n1.0 0 0 1 0 0 0 0 0\n")


def test_option_line_defaults():
    # bare option line falls back to GHz / S / MA / 50 ohms
    net = parse_touchstone("#\n1.0  1 0  0.5 0  1 0  1 0\n")
    assert net.freqs[0] == 1e9
    assert net.s21[0] == 0.5
    assert net.ref_impedance == 50.0


def test_comment_and_blank_interleaving():
    plain = "# GHz S RI R 50\n1.0 0 0 0.5 0 0 0 0 0\n2.0 0 0 0.25 0 0 0 0 0\n"
    noisy = ("! header\n\n# GHz S RI R 50\n! mid comment\n\n"
             "1.0 0 0 0.5 0 0 0 0 0   ! trailing\n\n! another\n"
             "2.0 0 0 0.25 0 0 0 0 0\n")
    a, b = parse_touchstone(plain), parse_touchstone(noisy)
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.s21, b.s21)


def test_noise_section_ignored_with_warning():
    text = ("# GHz S RI R 50\n"
            "1.0 0 0 0.5 0 0 0 0 0\n"
            "2.0 0 0 0.25 0 0 0 0 0\n"
            "1.5 2.0 0.5 30 0.4\n"  # noise-parameter row (5 columns)
            "1.8 2.0 0.5 30 0.4\n")
    with pytest.warns(UserWarning, match="noise-parameter"):
        net = parse_touchstone(text)
    assert net.n_points == 2


def test_file_not_found(tmp_path):
    with pytest.raises(TouchstoneError) as err:
        read_touchstone(tmp_path / "missing.s2p")
    assert err.value.kind == TouchstoneError.FILE_NOT_FOUND


def test_undecodable_file_names_itself(tmp_path):
    """A byte that is not UTF-8 in a data row is a TouchstoneError naming
    the file, not a bare UnicodeDecodeError."""
    path = tmp_path / "bad.s2p"
    path.write_bytes(flat_s2p(0.5).encode().replace(b" 0.5 ", b" 0.\xff ", 1))
    with pytest.raises(TouchstoneError) as err:
        read_touchstone(path)
    assert err.value.kind == TouchstoneError.UNDECODABLE_TEXT
    assert str(path) in str(err.value)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.floats(1e-3, 10.0), st.floats(-180.0, 180.0)),
    min_size=1, max_size=8))
def test_ri_ma_db_equivalence(polar):
    """The same network rendered in RI, MA and DB parses identically."""
    freqs = 1e9 * (1.0 + np.arange(len(polar)))
    mags = np.array([m for m, _ in polar])
    angs = np.array([a for _, a in polar])
    vals = mags * np.exp(1j * np.deg2rad(angs))

    def render(fmt):
        lines = [f"# Hz S {fmt} R 50"]
        for f, v, m, a in zip(freqs, vals, mags, angs):
            if fmt == "RI":
                fields = [v.real, v.imag] * 4
            elif fmt == "MA":
                fields = [m, a] * 4
            else:
                fields = [20 * np.log10(m), a] * 4
            lines.append(" ".join([repr(float(f))] + [repr(float(x)) for x in fields]))
        return "\n".join(lines)

    nets = [parse_touchstone(render(fmt)) for fmt in ("RI", "MA", "DB")]
    for net in nets[1:]:
        np.testing.assert_allclose(net.s21, nets[0].s21, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(net.s11, nets[0].s11, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _grid(q=64, fc=157.75e9, bw=3e9):
    return SubcarrierGrid(fc, bw, q, 1)


def test_interpolate_constant_network():
    net = parse_touchstone(flat_s2p(1.0))
    fr = interpolate_s21(net, _grid())
    np.testing.assert_allclose(fr.h, 1.0, atol=1e-15)


def test_interpolate_midpoint():
    text = ("# Hz S RI R 50\n"
            "150e9 0 0 1 0 0 0 0 0\n"
            "160e9 0 0 0 0 0 0 0 0\n")
    net = parse_touchstone(text)
    grid = SubcarrierGrid(155e9, 2e9, 2, 1)  # f_q = {154, 155} GHz
    fr = interpolate_s21(net, grid)
    assert abs(fr.h[1] - 0.5) < 1e-12  # 155 GHz sits midway
    assert abs(fr.h[0] - 0.6) < 1e-12  # 154 GHz -> 60 % of the span


def test_interpolate_matches_measured_points_exactly():
    rng = np.random.default_rng(1)
    grid = _grid(q=16)
    freqs = grid.frequencies()
    vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lines = ["# Hz S RI R 50"] + [
        f"{float(f)!r} 0 0 {float(v.real)!r} {float(v.imag)!r} 0 0 0 0" for f, v in zip(freqs, vals)]
    net = parse_touchstone("\n".join(lines))
    fr = interpolate_s21(net, grid)
    np.testing.assert_array_equal(fr.h, vals)


def test_interpolate_clamps_and_warns():
    net = parse_touchstone(flat_s2p(0.5, f_lo=157e9, f_hi=158e9))
    grid = _grid()  # spans 156.25..159.24 GHz, beyond the measurement
    with pytest.warns(ExtrapolationWarning):
        fr = interpolate_s21(net, grid)
    np.testing.assert_allclose(fr.h, 0.5)


def test_interpolate_empty_network():
    net = parse_touchstone(flat_s2p(1.0))
    empty = net.__class__(freqs=np.array([]), s11=np.array([]), s21=np.array([]),
                          s12=np.array([]), s22=np.array([]))
    with pytest.raises(EmptyNetwork):
        interpolate_s21(empty, _grid())


# ---------------------------------------------------------------------------
# Impulse responses
# ---------------------------------------------------------------------------

def test_impulse_of_flat_response_is_unit_impulse():
    grid = _grid(q=128)
    ir = to_impulse_response(FrequencyResponse(grid=grid, h=np.ones(128)), 128)
    expected = np.zeros(128, complex)
    expected[0] = 1.0
    np.testing.assert_allclose(ir.h, expected, atol=1e-14)
    assert ir.sample_rate == grid.bw


@pytest.mark.parametrize("delay", [0, 1, 7, 31])
def test_impulse_shift_theorem(delay):
    grid = _grid(q=64)
    h = np.exp(-2j * np.pi * np.arange(64) * delay / 64)
    ir = to_impulse_response(FrequencyResponse(grid=grid, h=h), 64)
    mags = np.abs(ir.h)
    assert np.argmax(mags) == delay
    assert abs(mags[delay] - 1.0) < 1e-12
    assert np.all(np.delete(mags, delay) < 1e-12)


def test_round_trip_at_full_length():
    rng = np.random.default_rng(3)
    grid = _grid(q=256)
    h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    fr = FrequencyResponse(grid=grid, h=h)
    ir = to_impulse_response(fr, 256)
    back = response_to_spectrum(ir, 256)
    assert np.max(np.abs(back - h)) < 1e-10
    assert abs(ir.captured_energy - 1.0) < 1e-12


def test_truncation_energy_fraction():
    """A short-FIR network keeps nearly all energy in a few taps."""
    rng = np.random.default_rng(4)
    taps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    grid = SubcarrierGrid(157.75e9, 3e9, 1024, 1)
    text = s2p_from_taps(taps, grid.fc, grid.bw, n_points=1024, span=grid.bw)
    fr = interpolate_s21(parse_touchstone(text), grid)
    ir64 = to_impulse_response(fr, 64)
    assert ir64.captured_energy >= 0.999
    full = to_impulse_response(fr, 1024)
    kept = np.sum(np.abs(full.h[:64]) ** 2) / np.sum(np.abs(full.h) ** 2)
    assert abs(ir64.captured_energy - kept) < 1e-12


def test_tap_count_bounds():
    fr = FrequencyResponse(grid=_grid(q=16), h=np.ones(16))
    with pytest.raises(LengthError):
        to_impulse_response(fr, 0)
    with pytest.raises(LengthError):
        to_impulse_response(fr, 17)
    with pytest.raises(LengthError, match="16 taps exceed the requested 8-point DFT"):
        response_to_spectrum(to_impulse_response(fr, 16), 8)
