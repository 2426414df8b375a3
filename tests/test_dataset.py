"""CFR1 dataset codec, lazy reader, synthetic generation."""

import dataclasses
import hashlib
import json
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripesim.channel import los_channel
from stripesim.config import load_environment
from stripesim.dataset import (CfrDataset, DatasetHeader, HEADER_BYTES,
                               UeMetadata, array_geometry, generate_synthetic,
                               read_dataset, write_dataset)
from stripesim.errors import ChecksumError, FormatError
from stripesim.waveform import SubcarrierGrid

from conftest import ENV_YAML, TWO_STRIPES


def _make_dataset(rng, n_ue=2, n_stripes=1, n_rus=2, n_rx=2, n_tx=2, q=8):
    header = DatasetHeader(n_stripes=n_stripes, n_rus=n_rus, n_rx=n_rx,
                           n_tx=n_tx, num_subcarriers=q, fc=157.75e9, bw=3e9)
    ues = tuple(UeMetadata(ue_id=i, position=(float(i), 0.5, 1.0))
                for i in range(n_ue))
    channels = {}
    for ue in ues:
        t = (rng.standard_normal(header.tensor_shape)
             + 1j * rng.standard_normal(header.tensor_shape))
        channels[ue.ue_id] = t.astype(np.complex64).astype(np.complex128)
    return CfrDataset(header=header, ues=ues, channels=channels)


def test_header_byte_layout():
    assert HEADER_BYTES == 40  # magic + 5 u32 + 2 f64


def test_channel_file_size(tmp_path):
    """1 UE, 1 stripe, 1 RU, 4x4, Q=8: payload is 1*1*4*4*8 complex64."""
    rng = np.random.default_rng(0)
    ds = _make_dataset(rng, n_ue=1, n_rus=1, n_rx=4, n_tx=4, q=8)
    write_dataset(ds, tmp_path)
    blob = (tmp_path / "ue_0.cfr").read_bytes()
    assert blob[:4] == b"CFR1"
    assert len(blob) == HEADER_BYTES + 1 * 1 * 4 * 4 * 8 * 8


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    ds = _make_dataset(rng)
    # a UE grid index is a pair of integers >= 0, kept as written
    ds = dataclasses.replace(ds, ues=(dataclasses.replace(ds.ues[0], grid_index=(3, 0)),
                                      *ds.ues[1:]))
    write_dataset(ds, tmp_path)
    back = read_dataset(tmp_path).to_memory()
    assert back.header == ds.header
    assert back.ues == ds.ues
    for ue in ds.ues:
        np.testing.assert_array_equal(back.channels[ue.ue_id],
                                      ds.channels[ue.ue_id])


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2), st.integers(0, 3))
def test_round_trip_property(n_stripes, n_rus, n_rx, n_tx, seed):
    import tempfile
    rng = np.random.default_rng(seed)
    ds = _make_dataset(rng, n_ue=1, n_stripes=n_stripes, n_rus=n_rus,
                       n_rx=n_rx, n_tx=n_tx, q=4)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ds, tmp)
        back = read_dataset(tmp).to_memory()
    np.testing.assert_array_equal(back.channels[0], ds.channels[0])


def test_empty_ue_list(tmp_path):
    header = DatasetHeader(1, 1, 1, 1, 8, 157.75e9, 3e9)
    ds = CfrDataset(header=header, ues=(), channels={})
    manifest = write_dataset(ds, tmp_path)
    assert "metadata.json" in manifest["files"]
    reader = read_dataset(tmp_path)
    assert reader.ues == ()


@pytest.mark.parametrize("damage", ["missing", "shape"])
def test_writer_refuses_a_bad_ue_tensor_before_its_file(damage, tmp_path):
    """A UE without a tensor, or with one of another shape than the
    header's, is a FormatError naming the UE; the UEs before it are
    written, its file is not, and no manifest makes the dataset readable."""
    ds = _make_dataset(np.random.default_rng(9), n_ue=3)
    channels = dict(ds.channels)
    if damage == "missing":
        del channels[1]
    else:
        channels[1] = channels[1][:, :, :, :, :4]
    with pytest.raises(FormatError, match="UE 1"):
        write_dataset(dataclasses.replace(ds, channels=channels), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metadata.json", "ue_0.cfr"]


def test_corrupted_magic(tmp_path):
    rng = np.random.default_rng(2)
    write_dataset(_make_dataset(rng, n_ue=1), tmp_path)
    path = tmp_path / "ue_0.cfr"
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    # rewrite manifest so the checksum check passes and magic is reached
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["files"]["ue_0.cfr"]["crc32"] = zlib.crc32(bytes(blob))
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    reader = read_dataset(tmp_path)
    with pytest.raises(FormatError):
        reader.get_channel(0, 0, 0)


def test_checksum_error(tmp_path):
    rng = np.random.default_rng(3)
    write_dataset(_make_dataset(rng, n_ue=1), tmp_path)
    path = tmp_path / "ue_0.cfr"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    reader = read_dataset(tmp_path)
    with pytest.raises(ChecksumError):
        reader.get_channel(0, 0, 0)


def test_dimension_overflow(tmp_path):
    import struct
    blob = b"CFR1" + struct.pack("<5I2d", 2 ** 31, 2 ** 31, 64, 64, 4096,
                                 157.75e9, 3e9) + b"\x00" * 16
    (tmp_path / "ue_0.cfr").write_bytes(blob)
    meta = {"header": {"n_stripes": 1, "n_rus": 1, "n_rx": 1, "n_tx": 1,
                       "num_subcarriers": 8, "fc": 157.75e9, "bw": 3e9},
            "ues": [{"id": 0, "x": 0.0, "y": 0.0, "z": 0.0}]}
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "CFR1", "files": {}}))
    reader = read_dataset(tmp_path)
    with pytest.raises(FormatError):
        reader.get_channel(0, 0, 0)


def _write_lone_ue_file(tmp_path, dims, payload_bytes):
    """A one-UE dataset whose metadata and file header both carry ``dims``
    (n_stripes, n_rus, n_rx, n_tx, Q), with ``payload_bytes`` zero bytes
    after the header and a manifest holding the file's true CRC."""
    import struct
    blob = b"CFR1" + struct.pack("<5I2d", *dims, 157.75e9, 3e9) + b"\x00" * payload_bytes
    (tmp_path / "ue_0.cfr").write_bytes(blob)
    meta = {"header": dict(zip(("n_stripes", "n_rus", "n_rx", "n_tx", "num_subcarriers"),
                               dims), fc=157.75e9, bw=3e9),
            "ues": [{"id": 0, "x": 0.0, "y": 0.0, "z": 0.0}]}
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    files = {"ue_0.cfr": {"crc32": zlib.crc32(blob)}}
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "CFR1", "files": files}))
    return blob


def _read(reader, read):
    return reader.get_channel(0, 0, 0) if read == "get_channel" else reader.to_memory()


@pytest.mark.parametrize("read", ["get_channel", "to_memory"])
@pytest.mark.parametrize("dims", [(1, 1, 2 ** 20, 2 ** 20, 4096),
                                  (2 ** 31, 2 ** 31, 1, 1, 1)])
def test_overflowing_dimensions_in_metadata_and_header_fail_the_check(dims, read,
                                                                      tmp_path):
    """Metadata and header agree, so only the dimension bound stops a
    lookup from asking for petabytes."""
    _write_lone_ue_file(tmp_path, dims, 16)
    with pytest.raises(FormatError, match="dimension overflow"):
        _read(read_dataset(tmp_path), read)


@pytest.mark.parametrize("read", ["get_channel", "to_memory"])
def test_a_truncated_file_sizes_nothing(read, tmp_path):
    """A header that matches metadata sizing 8 MiB per block, on a file of
    56 bytes: the size check fails before any block is made."""
    dims = (1, 4, 16, 16, 4096)
    blob = _write_lone_ue_file(tmp_path, dims, 16)
    reader = read_dataset(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"file is {len(blob)} bytes"):
            _read(reader, read)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_lazy_reads_touch_only_requested_files(tmp_path):
    rng = np.random.default_rng(4)
    write_dataset(_make_dataset(rng, n_ue=3), tmp_path)
    # remove an unrelated UE file; reading UE 0 must not notice
    (tmp_path / "ue_2.cfr").unlink()
    reader = read_dataset(tmp_path)
    h = reader.get_channel(0, 0, 0)
    assert h.h.shape == (8, 2, 2)
    with pytest.raises(Exception):
        reader.get_channel(2, 0, 0)


def test_repeatable_reads(tmp_path):
    rng = np.random.default_rng(5)
    write_dataset(_make_dataset(rng, n_ue=1), tmp_path)
    reader = read_dataset(tmp_path)
    a = reader.get_channel(0, 0, 1)
    b = reader.get_channel(0, 0, 1)
    np.testing.assert_array_equal(a.h, b.h)


def test_get_channel_index_errors(tmp_path):
    rng = np.random.default_rng(6)
    write_dataset(_make_dataset(rng, n_ue=1, n_rus=2), tmp_path)
    reader = read_dataset(tmp_path)
    with pytest.raises(IndexError):
        reader.get_channel(0, 0, 2)  # ru_id == n_rus
    with pytest.raises(IndexError):
        reader.get_channel(0, 1, 0)
    with pytest.raises(IndexError):
        reader.get_channel(9, 0, 0)


def _full_decode(path):
    """Whole UE file to complex128, as the reader decoded it before slicing."""
    blob = path.read_bytes()
    shape = tuple(np.frombuffer(blob, dtype="<u4", count=5, offset=4))
    flat = np.frombuffer(blob, dtype="<c8", offset=HEADER_BYTES)
    return flat.reshape(shape).astype(np.complex128)


def test_every_slice_equals_the_full_decode(tmp_path):
    rng = np.random.default_rng(7)
    write_dataset(_make_dataset(rng, n_ue=2, n_stripes=2, n_rus=3, n_rx=2, n_tx=3),
                  tmp_path)
    reader = read_dataset(tmp_path)
    for ue in (0, 1):
        tensor = _full_decode(tmp_path / f"ue_{ue}.cfr")
        for s in range(2):
            for r in range(3):
                want = np.transpose(tensor[s, r], (2, 0, 1))
                got = reader.get_channel(ue, s, r).h
                assert got.dtype == want.dtype and got.shape == want.shape == (8, 2, 3)
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()


def test_damage_outside_the_slice_still_fails_the_checksum(tmp_path):
    rng = np.random.default_rng(8)
    write_dataset(_make_dataset(rng, n_ue=1, n_stripes=2, n_rus=3, n_rx=2, n_tx=3),
                  tmp_path)
    path = tmp_path / "ue_0.cfr"
    blob = bytearray(path.read_bytes())
    block_bytes = 2 * 3 * 8 * 8
    blob[HEADER_BYTES + 4 * block_bytes + 5] ^= 0x01  # stripe 1, RU 1
    path.write_bytes(bytes(blob))
    reader = read_dataset(tmp_path)
    with pytest.raises(ChecksumError):
        reader.get_channel(0, 0, 0)


def test_damage_in_the_header_fails_the_checksum(tmp_path):
    rng = np.random.default_rng(11)
    write_dataset(_make_dataset(rng, n_ue=1), tmp_path)
    path = tmp_path / "ue_0.cfr"
    blob = bytearray(path.read_bytes())
    blob[HEADER_BYTES - 1] ^= 0x01  # the last byte of bw
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        read_dataset(tmp_path).get_channel(0, 0, 0)


@pytest.mark.parametrize("read", ["get_channel", "to_memory"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_a_file_one_byte_off_fails_the_size_check(extra, read, tmp_path):
    rng = np.random.default_rng(9)
    write_dataset(_make_dataset(rng, n_ue=1, n_stripes=2, n_rus=3), tmp_path)
    path = tmp_path / "ue_0.cfr"
    blob = path.read_bytes()
    blob = blob[:-1] if extra < 0 else blob + b"\x00"
    path.write_bytes(blob)
    # recompute the checksum, so the size check is reached
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["files"]["ue_0.cfr"]["crc32"] = zlib.crc32(blob)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    reader = read_dataset(tmp_path)
    expected = len(blob) - extra
    with pytest.raises(FormatError, match=f"file is {len(blob)} bytes, expected {expected}"):
        reader.get_channel(0, 1, 2) if read == "get_channel" else reader.to_memory()


def test_concurrent_lookups_equal_serial_ones(tmp_path):
    """Four threads share one reader; each UE file spans several reads."""
    rng = np.random.default_rng(10)
    write_dataset(_make_dataset(rng, n_ue=2, n_stripes=2, n_rus=3, n_rx=4, n_tx=4,
                                q=256), tmp_path)
    assert (tmp_path / "ue_0.cfr").stat().st_size > 3 * 65536
    reader = read_dataset(tmp_path)
    keys = [(ue, s, r) for ue in (0, 1) for s in range(2) for r in range(3)]
    serial = [reader.get_channel(*key).h for key in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between reads of one lookup
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda key: reader.get_channel(*key).h, keys * 4))
    finally:
        sys.setswitchinterval(interval)
    for i, h in enumerate(threaded):
        want = serial[i % len(keys)]
        assert h.strides == want.strides and h.tobytes() == want.tobytes()


def test_a_lookup_in_the_example_dataset_keeps_one_block(tmp_path):
    """A lookup in a 4 x 4 dataset of the example (10 RUs, Q=4096, 5.24 MB
    per UE file) peaks at 1.56 MiB: the 0.5 MiB complex64 block, its
    1 MiB complex128 copy and one 64 KiB read buffer. Reading the whole
    file peaks at 6.0 MiB."""
    examples = Path(__file__).resolve().parents[1] / "docs" / "examples"
    env = load_environment(examples / "environment.yaml")
    sub = env.sub_thz
    grid = SubcarrierGrid(sub.fc, sub.bw, sub.num_subcarriers, 1)
    write_dataset(generate_synthetic(env, grid, model="tdl", seed=3, n_tx=4, n_rx=4),
                  tmp_path)
    reader = read_dataset(tmp_path)
    reader.get_channel(0, 0, 5)  # first-call caches
    tracemalloc.start()
    try:
        channel = reader.get_channel(0, 0, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert channel.h.shape == (sub.num_subcarriers, 4, 4)
    assert peak < 1.6 * 2 ** 20


# SHA-256 of every file write_dataset writes for _golden_dataset(),
# recorded before the writer streamed its blocks (numpy 2.4, x86-64).
WRITER_DIGESTS = {
    "metadata.json":
        "f4468bc0ab683d222a815d1ed57eee0d8858ba130de528bc42d2a4d7e4ce8eda",
    "ue_0.cfr":
        "eaf44fe1ad300426e9296cf951c5fa66e8c43a4145938414fc7ae55522e18ae6",
    "ue_1.cfr":
        "d304e89dfb4eed90d7928580a9d1580f6bb469d19dd98bc0456c22516e8f7011",
    "manifest.json":
        "b9b0998f060a3039c52d99a43045a33f9b12dd3f261f2a07180f36117b46d2af",
}


def _golden_dataset(tmp_path):
    """2 UEs, 2 stripes of 3 RUs, 2 x 2 antennas, Q=32, TDL seed 5."""
    text = ENV_YAML
    for old, new in TWO_STRIPES:
        text = text.replace(old, new)
    (tmp_path / "env.yaml").write_text(text)
    env = load_environment(tmp_path / "env.yaml")
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    return generate_synthetic(env, grid, model="tdl", seed=5, n_tx=2, n_rx=2)


def test_writer_files_match_recorded_digests(tmp_path):
    out = tmp_path / "ds"
    manifest = write_dataset(_golden_dataset(tmp_path), out)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == WRITER_DIGESTS
    assert json.loads((out / "manifest.json").read_text()) == manifest
    for name, entry in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert entry == {"crc32": zlib.crc32(blob), "size": len(blob)}


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def test_synthetic_los_matches_direct_calls(small_env):
    grid = SubcarrierGrid(157.75e9, 3e9, 64, 1)
    ds = generate_synthetic(small_env, grid, model="los", n_tx=4, n_rx=4)
    assert ds.header.n_tx == ds.header.n_rx == 4  # default array pair
    tx, rx = array_geometry(small_env, grid, 0, 2, small_env.ue_positions[0], 4, 4)
    direct = los_channel(grid, tx, rx)
    stored = np.transpose(ds.channels[0][0, 2], (2, 0, 1))
    np.testing.assert_array_equal(stored, direct.h)


def test_synthetic_deterministic(small_env, tmp_path):
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    a = generate_synthetic(small_env, grid, model="tdl", seed=9, n_tx=2, n_rx=2)
    b = generate_synthetic(small_env, grid, model="tdl", seed=9, n_tx=2, n_rx=2)
    np.testing.assert_array_equal(a.channels[0], b.channels[0])
    c = generate_synthetic(small_env, grid, model="tdl", seed=10, n_tx=2, n_rx=2)
    assert not np.array_equal(a.channels[0], c.channels[0])


def test_synthetic_tensors_are_built_on_each_read(small_env):
    grid = SubcarrierGrid(157.75e9, 3e9, 32, 1)
    ds = generate_synthetic(small_env, grid, model="tdl", seed=9, n_tx=2, n_rx=2)
    first, second = ds.channels[0], ds.channels[0]
    assert first is not second
    np.testing.assert_array_equal(first, second)
    assert list(ds.channels) == [0] and len(ds.channels) == 1
    with pytest.raises(KeyError):
        ds.channels[1]
    with pytest.raises(TypeError):
        ds.channels[0] = first


def test_writing_a_synthetic_dataset_holds_one_ue_tensor(small_env, tmp_path):
    """Generating and writing 4 UEs peaks below 2.5 UE tensors: one tensor
    and the temporaries of one (stripe, RU) evaluation (~0.8 of a tensor
    with 5 RUs). Holding every UE's tensor at once reads 4.9."""
    env = dataclasses.replace(small_env, ue_positions=tuple(
        (1.0 + i, 2.0, 1.5) for i in range(4)))
    grid = SubcarrierGrid(157.75e9, 3e9, 256, 1)

    def write(out):
        write_dataset(generate_synthetic(env, grid, model="los", n_tx=4, n_rx=4), out)

    write(tmp_path / "warm")  # imports and first-call caches
    tracemalloc.start()
    try:
        write(tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensor = 5 * 4 * 4 * 256 * 16  # one UE: 5 RUs of 4 x 4 x Q complex128
    assert peak < 2.5 * tensor
    assert (tmp_path / "ds" / "ue_3.cfr").read_bytes() == (
        tmp_path / "warm" / "ue_3.cfr").read_bytes()


def test_synthetic_round_trip_float32(small_env, tmp_path):
    grid = SubcarrierGrid(157.75e9, 3e9, 64, 1)
    ds = generate_synthetic(small_env, grid, model="los", n_tx=2, n_rx=1)
    write_dataset(ds, tmp_path)
    reader = read_dataset(tmp_path)
    got = reader.get_channel(0, 0, 1).h
    tx, rx = array_geometry(small_env, grid, 0, 1, small_env.ue_positions[0], 2, 1)
    exact = los_channel(grid, tx, rx).h
    # float32 storage: ~1e-7 relative rounding
    np.testing.assert_allclose(got, exact, rtol=2e-7, atol=0)
