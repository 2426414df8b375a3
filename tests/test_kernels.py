"""The kernels against the implementations they replaced, bit for bit:
the table QAM mapper, the per-axis slicer, the copy-free OFDM pair and
the in-place fiber filter. The reference copies below are the
straightforward versions (an arithmetic mapper, a full minimum-distance
search, shift-and-copy and out-of-place transforms); a kernel that
differs from them in one bit fails here. The in-place transforms rely on
numpy's ``out=`` aliasing its input, which `pyproject.toml`'s numpy floor
names.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripesim import waveform
from stripesim.stripe import _Chain
from stripesim.waveform import (SubcarrierGrid, _nearest_points, _word_bits, demap_qam,
                                extract_symbols, map_qam, synthesize_symbols)

ORDERS = (4, 16, 64, 256)


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

def _ref_gray_decode(g):
    b = g.copy()
    shift = 1
    while shift < 64:
        b ^= b >> shift
        shift *= 2
    return b


def _ref_axis_levels(bits, bits_per_axis):
    weights = 1 << np.arange(bits_per_axis - 1, -1, -1)
    words = bits.astype(np.int64) @ weights
    return ((1 << bits_per_axis) - 1) - 2 * _ref_gray_decode(words)


def _ref_map_qam(bits, order):
    bits = np.asarray(bits, dtype=np.int64).ravel()
    m = int(np.log2(order))
    words = bits.reshape(-1, m)
    half = m // 2
    i_lv = _ref_axis_levels(words[:, :half], half)
    q_lv = _ref_axis_levels(words[:, half:], half)
    return (i_lv + 1j * q_lv) / np.sqrt(2.0 * (order - 1) / 3.0)


def _all_words(order):
    m = int(np.log2(order))
    return (np.arange(order)[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1


def _ref_demap_qam(symbols, order):
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    m = int(np.log2(order))
    points = _ref_map_qam(_all_words(order).ravel(), order)
    d2 = np.abs(symbols[:, None] - points[None, :]) ** 2
    idx = np.argmin(d2, axis=1)
    return (((idx[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1)
            .ravel().astype(np.int8))


def _ref_synthesize(symbols, grid, cp_length):
    n = grid.n_fft
    cp = cp_length * grid.oversampling
    q, s = symbols.shape
    spec = np.zeros((s, n), dtype=np.complex128)
    lo = n // 2 - q // 2
    spec[:, lo:lo + q] = symbols.T
    body = np.fft.ifft(np.fft.ifftshift(spec, axes=1), axis=1) * (
        n / np.sqrt(grid.num_subcarriers))
    if cp:
        body = np.concatenate([body[:, -cp:], body], axis=1)
    return body.reshape(-1)


def _ref_extract(samples, grid, cp_length, n_symbols):
    n = grid.n_fft
    cp = cp_length * grid.oversampling
    body = samples.reshape(n_symbols, n + cp)[:, cp:]
    spec = np.fft.fftshift(np.fft.fft(body, axis=1), axes=1)
    lo = n // 2 - grid.num_subcarriers // 2
    return (spec[:, lo:lo + grid.num_subcarriers] / (n / np.sqrt(grid.num_subcarriers))).T


def _ref_fd_filter(x, h, n_fft, cp, offset):
    """Each whole frame after ``offset`` filtered out of place, its CP
    rebuilt from the filtered tail; the rest of ``x`` as it was."""
    frame = n_fft + cp
    n_sym = (x.size - offset) // frame
    out = x.copy()
    seg = out[offset:offset + n_sym * frame].reshape(n_sym, frame)
    body = np.fft.ifft(np.fft.fft(x[offset:offset + n_sym * frame].reshape(
        n_sym, frame)[:, cp:], axis=1) * h, axis=1)
    seg[:, cp:] = body
    if cp:
        seg[:, :cp] = body[:, n_fft - cp:]
    return out


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Mapper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", ORDERS)
def test_map_qam_matches_the_arithmetic_on_every_word(order):
    words = _all_words(order)
    assert _same_bits(map_qam(words.ravel(), order), _ref_map_qam(words.ravel(), order))
    # a long stream of every word, from a list and from int8 bits
    rng = np.random.default_rng(order)
    bits = words[rng.permutation(np.repeat(np.arange(order), 3))].ravel()
    assert _same_bits(map_qam(bits.astype(np.int8), order), _ref_map_qam(bits, order))
    assert _same_bits(map_qam(bits.tolist(), order), _ref_map_qam(bits, order))


# ---------------------------------------------------------------------------
# Demapper
# ---------------------------------------------------------------------------

def _thresholds(order) -> np.ndarray:
    """Every decision threshold of one axis, and the outer edges, in
    unnormalized symbol units."""
    n_levels = int(np.sqrt(order))
    norm = np.sqrt(2.0 * (order - 1) / 3.0)
    return np.arange(-n_levels, n_levels + 1, 2) / norm


def _ulps_around(x, k):
    """x and its k nearest floats on either side."""
    out = [x]
    up = down = x
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@pytest.mark.parametrize("order", ORDERS)
def test_demap_matches_the_full_search_at_every_threshold(order):
    """Each threshold and the floats 1-2 ulp around it, on either axis,
    against random and threshold values on the other axis."""
    axis = _ulps_around(_thresholds(order), 2)
    rng = np.random.default_rng(order)
    other = np.concatenate([axis, rng.uniform(-1.5, 1.5, axis.size)])
    u, w = np.meshgrid(axis, other)
    x = np.concatenate([(u + 1j * w).ravel(), (w + 1j * u).ravel()])
    assert _same_bits(demap_qam(x, order), _ref_demap_qam(x, order))


@pytest.mark.parametrize("order", ORDERS)
def test_demap_matches_the_full_search_over_snr(order):
    rng = np.random.default_rng(100 + order)
    m = int(np.log2(order))
    for snr_db in range(-30, 41, 10):
        s = map_qam(rng.integers(0, 2, 3000 * m), order)
        sigma = np.sqrt(10 ** (-snr_db / 10) / 2)
        y = s + sigma * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
        assert _same_bits(demap_qam(y, order), _ref_demap_qam(y, order)), snr_db
    # noiseless points and their 1e6-scaled outliers
    s = map_qam(_all_words(order).ravel(), order)
    assert _same_bits(demap_qam(s, order), _ref_demap_qam(s, order))
    assert _same_bits(demap_qam(s * 1e6, order), _ref_demap_qam(s * 1e6, order))


_coordinate = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # -0.0, 1e300, NaN, +-inf
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e6]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORDERS),
       st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 16), st.integers(-2, 2), _coordinate),
                max_size=8))
def test_demap_matches_the_full_search_on_any_input(order, pairs, near):
    """Arbitrary coordinates, plus points 1-2 ulp from a threshold."""
    values = [complex(u, w) for u, w in pairs]
    edges = _thresholds(order)
    for i, ulps, other in near:
        t = edges[i % edges.size]
        for _ in range(abs(ulps)):
            t = np.nextafter(t, np.inf if ulps > 0 else -np.inf)
        values += [complex(t, other), complex(other, t)]
    x = np.array(values, dtype=np.complex128)
    with np.errstate(all="ignore"):  # the full search overflows on 1e300
        assert _same_bits(demap_qam(x, order), _ref_demap_qam(x, order))


@pytest.mark.parametrize("order", ORDERS)
def test_blockwise_demap_matches_the_full_search_across_blocks(order):
    """A vector of several demap blocks, with NaN, inf and on-threshold
    symbols on either side of every block edge, gets the bits of one full
    search (`_nearest_points`) over the whole vector."""
    block = waveform._DEMAP_BLOCK
    n = 3 * block + 5
    rng = np.random.default_rng(order + 7)
    m = int(np.log2(order))
    x = map_qam(rng.integers(0, 2, n * m), order) + 0.2 * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    t = _thresholds(order)
    special = [complex(np.nan, 0.1), complex(t[1], t[2]), complex(np.inf, -0.3),
               complex(0.2, t[-2]), complex(-np.inf, np.inf), complex(t[0], np.nan)]
    for edge in (0, block, 2 * block, 3 * block, n):
        for k, z in enumerate(special):
            i = edge - 3 + k
            if 0 <= i < n:
                x[i] = z
    with np.errstate(all="ignore"):
        want = _word_bits(order)[_nearest_points(x, order)].ravel()
    assert _same_bits(demap_qam(x, order), want)


# ---------------------------------------------------------------------------
# OFDM pair
# ---------------------------------------------------------------------------

def _grid(q, os):
    return SubcarrierGrid(157.75e9, 3e9, q, os)


@pytest.mark.parametrize("q", [1, 2, 64])
@pytest.mark.parametrize("os", [1, 2, 3])
@pytest.mark.parametrize("with_cp", [False, True])
def test_ofdm_pair_matches_the_shift_and_copy_transforms(q, os, with_cp):
    rng = np.random.default_rng(q * 10 + os + with_cp)
    grid, s = _grid(q, os), 3
    cp = min(5, q - 1) if with_cp else 0  # shorter than the FFT
    # a branch of a (Q, branches, S) array, as the uplink passes it
    at_ru = rng.standard_normal((q, 4, s)) + 1j * rng.standard_normal((q, 4, s))
    x = synthesize_symbols(at_ru[:, 2, :], grid, cp)
    assert _same_bits(x, _ref_synthesize(at_ru[:, 2, :], grid, cp))

    noisy = x + 1e-3 * rng.standard_normal(x.size)
    before = noisy.tobytes()
    ref = _ref_extract(noisy, grid, cp, s)
    got = extract_symbols(noisy, grid, cp, s)
    assert _same_bits(got, ref)
    assert got.strides == ref.strides  # the estimator's sums follow the layout
    # into a branch slice of a (Q, branches, S) array, as the downlink does
    out = np.zeros((q, 4, s), dtype=np.complex128)
    assert extract_symbols(noisy, grid, cp, s, out=out[:, 1, :]) is not None
    assert _same_bits(out[:, 1, :].copy(), ref.copy())
    assert not out[:, [0, 2, 3], :].any()
    # calibration meters the reference it walks on, and criterion 11 reads
    # a waveform again after extracting from it
    assert noisy.tobytes() == before


@pytest.mark.parametrize("os", [1, 2, 3])
@pytest.mark.parametrize("cp", [0, 5])
def test_in_place_extraction_gives_the_default_calls_bits(os, cp):
    """Extraction that transforms the frame bodies where they lie returns
    the default call's bits, fresh or into ``out``, also from a slice of a
    longer array, as a link demodulates past its walk's delay; the default
    call never writes its input. Synthesis into a given array gives the
    bits of a fresh one."""
    rng = np.random.default_rng(40 + 10 * os + cp)
    grid, s = _grid(64, os), 3
    sym = rng.standard_normal((64, s)) + 1j * rng.standard_normal((64, s))
    x = synthesize_symbols(sym, grid, cp)
    into = np.full(x.size, np.nan, dtype=np.complex128)
    assert synthesize_symbols(sym, grid, cp, out=into) is into
    assert _same_bits(into, x)

    noisy = x + 1e-3 * rng.standard_normal(x.size)
    before = noisy.tobytes()
    want = extract_symbols(noisy, grid, cp, s)
    assert noisy.tobytes() == before
    got = extract_symbols(noisy.copy(), grid, cp, s, in_place=True)
    assert _same_bits(got, want) and got.strides == want.strides
    out = np.zeros((64, 2, s), dtype=np.complex128)
    extract_symbols(noisy.copy(), grid, cp, s, out=out[:, 1, :], in_place=True)
    assert _same_bits(out[:, 1, :].copy(), want.copy())
    padded = np.concatenate([np.zeros(7, dtype=np.complex128), noisy, np.ones(3) + 0j])
    got = extract_symbols(padded[7:7 + noisy.size], grid, cp, s, in_place=True)
    assert _same_bits(got, want)
    assert padded[7:7 + noisy.size].tobytes() != before  # it did transform there
    assert not padded[:7].any() and (padded[-3:] == 1).all()


def test_back_to_back_shapes_leak_no_stale_bins():
    """A fresh result may take the memory of an array just freed, every
    bin of it filled: a call after one of the same or another shape must
    still zero its guard bins."""
    rng = np.random.default_rng(5)
    calls = [(64, 1, 0, 3), (32, 2, 4, 3), (64, 1, 0, 3), (16, 4, 2, 3), (8, 2, 1, 5),
             (32, 2, 4, 3), (16, 2, 0, 2), (32, 1, 0, 2)]
    for q, os, cp, s in calls:
        grid = _grid(q, os)
        # an extraction of noise first fills every bin of the spectrum
        n = s * (grid.n_fft + cp * os)
        extract_symbols(rng.standard_normal(n) + 0j, grid, cp, s)
        sym = rng.standard_normal((q, s)) + 1j * rng.standard_normal((q, s))
        x = synthesize_symbols(sym, grid, cp)
        assert _same_bits(x, _ref_synthesize(sym, grid, cp)), (q, os, cp, s)
        assert _same_bits(extract_symbols(x, grid, cp, s), _ref_extract(x, grid, cp, s))


# ---------------------------------------------------------------------------
# Fiber filter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_fft, cp, n_sym, offset, tail", [
    (64, 0, 3, 0, 0), (64, 8, 3, 0, 0), (128, 16, 2, 5, 0), (64, 8, 2, 3, 7),
    (32, 4, 1, 0, 35), (8, 7, 4, 1, 2), (64, 8, 0, 2, 40)])
def test_fd_filter_in_place_matches_out_of_place(n_fft, cp, n_sym, offset, tail):
    """The filter transforms each symbol body in the walk's array, with
    the bits of transforming a copy: behind a delay, and before a
    convolution's tail too, which it leaves as it was."""
    rng = np.random.default_rng(n_fft + cp + n_sym + offset + tail)
    size = offset + n_sym * (n_fft + cp) + tail
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    h = rng.standard_normal(n_fft) + 1j * rng.standard_normal(n_fft)
    want = _ref_fd_filter(x, h, n_fft, cp, offset)
    chain = _Chain(x=x, cp_samples=cp, n_fft=n_fft, offset=offset)
    got = chain._fd_filter(x, h)
    assert got is x
    assert _same_bits(got, want)
