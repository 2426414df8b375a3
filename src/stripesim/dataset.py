"""Precomputed per-UE channel-frequency-response datasets (CFR1 format).

A dataset directory holds
* ``metadata.json`` - header (dimensions and grid) plus the UE table,
* ``ue_<id>.cfr``   - one binary channel file per UE,
* ``manifest.json`` - file list with CRC32 checksums.

Channel file layout (little endian, normative):
``"CFR1"`` magic (4 bytes), then u32 n_stripes, n_rus, n_rx, n_tx, Q,
then f64 fc, bw (40 header bytes total), then float32 interleaved
(re, im) pairs in row-major order stripe -> ru -> rx -> tx -> q.

Storage is float32 (matching typical ray-tracing export precision);
in-memory tensors are complex128. Readers load metadata eagerly. A channel
lookup reads its UE file once, front to back, through one 64 KiB buffer:
every byte goes into the file's CRC32, and only the bytes of the requested
(stripe, RU) block are copied out, so a lookup's memory does not grow with
the file. A missing file fails first; the other checks run once the
whole file has been read, in a fixed order: CRC, magic, header length,
dimensions, file size, then the header against the metadata. The block
is made only once the first read's header passes them at the file's size
on disk, so no lookup allocates more than its file holds.
A synthetic dataset builds each UE's tensor when it is read, one UE at a
time, and `write_dataset` holds one UE's tensor at a time, so writing one
takes the memory of one UE whatever the UE count.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .channel import (ChannelRealization, SPEED_OF_LIGHT, TdlParams, model_channel,
                      ula_positions)
from .config import (_HERTZ, MAX_LINK_SAMPLES, EnvironmentConfig, _as_count, _as_float,
                     _as_int, _within)
from .errors import (ChecksumError, ConfigError, FormatError, IoError, SchemaError,
                     UnsupportedModel)
from .waveform import SubcarrierGrid

MAGIC = b"CFR1"
_HEADER = struct.Struct("<5I2d")  # n_stripes, n_rus, n_rx, n_tx, Q, fc, bw
HEADER_BYTES = len(MAGIC) + _HEADER.size
_MAX_ELEMENTS = 1 << 34  # refuse absurd dimension products early
_CHUNK_BYTES = 1 << 16  # one read of a dataset file
_COUNTS = ("n_stripes", "n_rus", "n_rx", "n_tx", "num_subcarriers")
_UE_ID = _within(0, parse=_as_int)


@dataclass(frozen=True)
class DatasetHeader:
    n_stripes: int
    n_rus: int
    n_rx: int
    n_tx: int
    num_subcarriers: int
    fc: float
    bw: float

    @property
    def tensor_shape(self) -> tuple:
        return (self.n_stripes, self.n_rus, self.n_rx, self.n_tx,
                self.num_subcarriers)

    def grid(self) -> SubcarrierGrid:
        return SubcarrierGrid(self.fc, self.bw, self.num_subcarriers)


@dataclass(frozen=True)
class UeMetadata:
    ue_id: int
    position: tuple
    grid_index: tuple | None = None


@dataclass(frozen=True)
class CfrDataset:
    """Dataset: header, UE table, and one tensor per UE.

    ``channels`` maps each ue_id to its complex tensor of
    ``header.tensor_shape``: a dict, or for a synthetic dataset a
    read-only mapping that builds the tensor on each read and keeps none.
    `write_dataset` checks each UE's tensor as it writes it.
    """

    header: DatasetHeader
    ues: tuple
    channels: Mapping  # ue_id -> complex ndarray of header.tensor_shape

    def __post_init__(self):
        ids = [ue.ue_id for ue in self.ues]
        if len(ids) != len(set(ids)):
            raise FormatError("ue_id values must be unique")


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------

def _check_channel_file(head: bytes, size: int, path: str) -> DatasetHeader:
    """Checked header of a channel file of ``size`` bytes that begins with
    ``head`` (its first `HEADER_BYTES` bytes, or all of a shorter file)."""
    if head[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {bytes(head[:4])!r}")
    if size < HEADER_BYTES or len(head) < HEADER_BYTES:
        raise FormatError(f"{path}: truncated header")
    header = _unpack_header(head)
    n_elements = math.prod(header.tensor_shape)
    if n_elements <= 0 or n_elements > _MAX_ELEMENTS:
        raise FormatError(f"{path}: dimension overflow {header.tensor_shape}")
    expected = HEADER_BYTES + 8 * n_elements
    if size != expected:
        raise FormatError(f"{path}: file is {size} bytes, expected {expected}")
    return header


def _unpack_header(head: bytes) -> DatasetHeader:
    fields = _HEADER.unpack_from(head, len(MAGIC))
    return DatasetHeader(*fields[:5], fc=fields[5], bw=fields[6])


def _ue_to_json(ue: UeMetadata) -> dict:
    out = {"id": ue.ue_id, "x": ue.position[0], "y": ue.position[1],
           "z": ue.position[2]}
    if ue.grid_index is not None:
        out["grid_i"], out["grid_j"] = ue.grid_index
    return out


def _ue_from_json(raw: dict, path: str) -> UeMetadata:
    grid_index = None
    if "grid_i" in raw or "grid_j" in raw:  # a lone one is a missing key
        grid_index = tuple(_UE_ID(raw[key], f"{path}.{key}") for key in ("grid_i", "grid_j"))
    return UeMetadata(ue_id=_UE_ID(raw["id"], f"{path}.id"),
                      position=tuple(_as_float(raw[axis], f"{path}.{axis}")
                                     for axis in "xyz"),
                      grid_index=grid_index)


def write_dataset(dataset: CfrDataset, directory) -> dict:
    """Write metadata, per-UE channel files and the checksum manifest.

    Reads one UE's tensor at a time and drops it before the next. Raises
    `FormatError` naming the UE, before its file is opened, when
    ``dataset.channels`` has no tensor for it or one of another shape than
    the header's; ``manifest.json`` is written last, so a dataset that
    failed partway has none. Returns the manifest mapping (also written to
    ``manifest.json``).
    """
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create dataset directory {out}: {exc}") from exc
    h = dataset.header
    metadata = {
        "header": {"n_stripes": h.n_stripes, "n_rus": h.n_rus, "n_rx": h.n_rx,
                   "n_tx": h.n_tx, "num_subcarriers": h.num_subcarriers,
                   "fc": h.fc, "bw": h.bw},
        "ues": [_ue_to_json(ue) for ue in dataset.ues],
    }
    files: dict[str, dict] = {}

    def _emit(name: str, chunks):  # with a running CRC and byte count
        crc = size = 0
        try:
            with open(out / name, "wb") as f:
                for chunk in map(memoryview, chunks):
                    f.write(chunk)
                    crc, size = zlib.crc32(chunk, crc), size + chunk.nbytes
        except OSError as exc:
            raise IoError(f"cannot write {out / name}: {exc}") from exc
        files[name] = {"crc32": crc, "size": size}

    _emit("metadata.json", [json.dumps(metadata, indent=1).encode()])
    head = MAGIC + _HEADER.pack(h.n_stripes, h.n_rus, h.n_rx, h.n_tx,
                                h.num_subcarriers, h.fc, h.bw)
    for ue in dataset.ues:  # the header, then one complex64 block per (stripe, RU)
        tensor = dataset.channels.get(ue.ue_id)
        if tensor is None:
            raise FormatError(f"UE {ue.ue_id}: no channel tensor")
        if np.shape(tensor) != h.tensor_shape:
            raise FormatError(f"UE {ue.ue_id}: tensor shape {np.shape(tensor)} does not "
                              f"match header {h.tensor_shape}")
        _emit(f"ue_{ue.ue_id}.cfr", chain([head], (
            np.ascontiguousarray(tensor[i], dtype="<c8")
            for i in np.ndindex(h.n_stripes, h.n_rus))))
        del tensor  # before the next UE's tensor is made
    manifest = {"format": "CFR1", "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


class CfrDatasetReader:
    """Lazy dataset handle: metadata eager, channel tensors on demand.

    Read-only after open and caches no channel; each read makes its own
    buffer, so concurrent lookups are safe. A lookup streams its whole UE
    file through the CRC and keeps only its (stripe, RU) block.
    """

    def __init__(self, directory):
        self._dir = Path(directory)
        manifest_path = self._dir / "manifest.json"
        if not manifest_path.is_file():
            raise IoError(f"no manifest.json in {self._dir}")
        # malformed JSON, missing keys, wrong value types and values out of
        # their domain surface as these five; each means the dataset's files
        # are damaged
        malformed = (AttributeError, KeyError, TypeError, ValueError, SchemaError)
        try:
            manifest = json.loads(manifest_path.read_text())
            self._crcs = {name: int(entry["crc32"])
                          for name, entry in manifest.get("files", {}).items()}
        except malformed as exc:
            raise FormatError(f"{manifest_path}: malformed manifest ({exc!r})") from None
        meta_blob = bytearray()
        for chunk in self._chunks("metadata.json"):
            meta_blob += chunk
        try:
            meta = json.loads(meta_blob.decode())
            raw_h = meta["header"]
            self.header = DatasetHeader(
                **{key: _as_count(raw_h[key], f"header.{key}") for key in _COUNTS},
                fc=_HERTZ(raw_h["fc"], "header.fc"), bw=_HERTZ(raw_h["bw"], "header.bw"))
            self.ues = tuple(_ue_from_json(u, f"ues[{i}]") for i, u in enumerate(meta["ues"]))
        except malformed as exc:
            raise FormatError(f"{self._dir / 'metadata.json'}: malformed metadata "
                              f"({exc!r})") from None
        self._by_id = {ue.ue_id: ue for ue in self.ues}
        if len(self._by_id) != len(self.ues):
            raise FormatError(f"{self._dir / 'metadata.json'}: ue_id values must be unique")

    def _read_checked(self, f, buf: bytearray) -> memoryview:
        """The next chunk of the open file ``f``, read into ``buf``: the
        filled part of it, empty at the end of the file. Every read of a
        dataset file goes through here, and `_chunks` folds every chunk
        into the file's CRC."""
        return memoryview(buf)[:f.readinto(buf)]

    def _chunks(self, name: str):
        """Yield the file ``name`` front to back, each chunk a view of one
        buffer that the next chunk overwrites; raises `ChecksumError` after
        the last chunk when the file's CRC32 disagrees with the manifest."""
        path = self._dir / name
        if not path.is_file():
            raise IoError(f"dataset file missing: {path}")
        buf = bytearray(_CHUNK_BYTES)
        crc = 0
        with open(path, "rb", buffering=0) as f:
            while chunk := self._read_checked(f, buf):
                crc = zlib.crc32(chunk, crc)
                yield chunk
        expected = self._crcs.get(name)
        if expected is not None and crc != expected:
            raise ChecksumError(f"{path}: CRC32 mismatch")

    def _read_blocks(self, ue_id: int, first: int, count: int) -> np.ndarray:
        """(stripe, RU) blocks ``first`` to ``first + count`` (row-major
        block order) of a UE file, checked, as a fresh complex64
        ``(count, n_rx, n_tx, Q)`` array.

        The array is made only once the file's own header, its dimensions
        and its size on disk all pass `_check_channel_file` and the header
        equals the metadata's, so it is never larger than the file and a
        damaged file sizes nothing. The checks then run again on the bytes
        read, after the CRC, to raise in their fixed order.
        """
        if ue_id not in self._by_id:
            raise IndexError(f"unknown ue_id {ue_id}")
        name = f"ue_{ue_id}.cfr"
        h = self.header
        shape = (count, h.n_rx, h.n_tx, h.num_subcarriers)
        start = HEADER_BYTES + 8 * math.prod(shape[1:]) * first
        stop = start + 8 * math.prod(shape)
        head, kept, size = b"", None, 0
        for chunk in self._chunks(name):
            if not size:  # the first read holds the whole header
                head = bytes(chunk[:HEADER_BYTES])
                if self._fits(head, name, h):
                    kept = np.empty(shape, dtype="<c8")
                    dest = memoryview(kept).cast("B")
            lo, hi = max(start, size), min(stop, size + len(chunk))
            if kept is not None and lo < hi:
                dest[lo - start:hi - start] = chunk[lo - size:hi - size]
            size += len(chunk)
        if _check_channel_file(head, size, name) != h:
            raise FormatError(f"{name} header disagrees with metadata")
        return kept

    def _fits(self, head: bytes, name: str, header: DatasetHeader) -> bool:
        """Whether a file ``name`` that begins with ``head`` passes
        `_check_channel_file` at its size on disk and carries ``header``."""
        try:
            size = (self._dir / name).stat().st_size
            return _check_channel_file(head, size, name) == header
        except (FormatError, OSError):
            return False

    def get_channel(self, ue_id: int, stripe_id: int, ru_id: int) -> ChannelRealization:
        """H tensor (Q x n_rx x n_tx) for one stripe/RU pair: a view of a
        fresh complex128 (n_rx, n_tx, Q) block. The UE file is read once
        through a 64 KiB buffer and every byte of it CRC-checked; only the
        block's bytes are kept."""
        if not 0 <= stripe_id < self.header.n_stripes:
            raise IndexError(f"stripe_id {stripe_id} out of range")
        if not 0 <= ru_id < self.header.n_rus:
            raise IndexError(f"ru_id {ru_id} out of range")
        block = self._read_blocks(ue_id, stripe_id * self.header.n_rus + ru_id, 1)[0]
        return ChannelRealization(h=np.transpose(block.astype(np.complex128), (2, 0, 1)),
                                  grid=self.header.grid())

    def to_memory(self) -> CfrDataset:
        h = self.header
        channels = {ue.ue_id: self._read_blocks(ue.ue_id, 0, h.n_stripes * h.n_rus)
                    .reshape(h.tensor_shape).astype(np.complex128) for ue in self.ues}
        return CfrDataset(header=h, ues=self.ues, channels=channels)


def read_dataset(directory) -> CfrDatasetReader:
    """Open a dataset directory with lazy per-UE loading."""
    return CfrDatasetReader(directory)


# ---------------------------------------------------------------------------
# Synthetic generation (stand-in for ray-traced exports)
# ---------------------------------------------------------------------------

def stripe_axis(nodes) -> np.ndarray:
    """Unit vector along a stripe, from its node positions."""
    positions = np.asarray([n.position for n in nodes], dtype=np.float64)
    direction = positions[-1] - positions[0]
    norm = np.linalg.norm(direction)
    if norm == 0:
        return np.array([1.0, 0.0, 0.0])
    return direction / norm


def array_geometry(env: EnvironmentConfig, grid: SubcarrierGrid, stripe_id: int,
                   ru_id: int, ue_position, n_tx: int, n_rx: int):
    """Element positions for one (stripe, RU, UE) triple.

    RU arrays run along the stripe axis, UE arrays along x; both are
    half-wavelength linear arrays centered on the node/UE position. The
    same helper feeds both the synthetic generator and on-the-fly model
    runs so the two paths agree exactly.
    """
    nodes = env.stripe_nodes(stripe_id)
    rus = nodes[1:]
    if not 0 <= ru_id < len(rus):
        raise IndexError(f"ru_id {ru_id} out of range [0, {len(rus)})")
    wavelength = SPEED_OF_LIGHT / grid.fc
    axis = stripe_axis(nodes)
    tx = ula_positions(rus[ru_id].position, axis, n_tx, wavelength)
    rx = ula_positions(ue_position, (1.0, 0.0, 0.0), n_rx, wavelength)
    return tx, rx


class _BuiltOnRead(Mapping):
    """Read-only mapping of ``keys`` whose every read returns ``build(key)``
    afresh: equal reads give equal values, and the mapping keeps none."""

    def __init__(self, keys, build):
        self._keys = keys
        self._build = build

    def __getitem__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        return self._build(key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def generate_synthetic(env: EnvironmentConfig, grid: SubcarrierGrid,
                       model: str = "los", seed: int = 0,
                       tdl_params: TdlParams | None = None,
                       n_tx: int = 4, n_rx: int = 4) -> CfrDataset:
    """Synthesize a CFR1 dataset from the lightweight channel models.

    Evaluates the chosen model for every (UE, stripe, RU) triple with
    half-wavelength arrays at both ends (4 x 4 by default). The tensors
    are built on read, one UE at a time: ``channels[ue_id]`` evaluates
    that UE's triples afresh, and the dataset holds no tensor.
    Deterministic in ``seed``; the LoS model matches direct `los_channel`
    calls exactly. Raises `ConfigError` before allocating when one UE's
    tensor would hold more than `MAX_LINK_SAMPLES` entries.
    """
    if model not in ("los", "tdl"):
        raise UnsupportedModel(f"synthetic dataset model {model!r}")
    n_stripes = env.n_stripes
    n_rus = min(len(stripe) - 1 for stripe in env.radio_stripes)
    q = grid.num_subcarriers
    ues = tuple(UeMetadata(ue_id=i, position=pos)
                for i, pos in enumerate(env.ue_positions))
    header = DatasetHeader(n_stripes=n_stripes, n_rus=n_rus, n_rx=n_rx,
                           n_tx=n_tx, num_subcarriers=q, fc=grid.fc, bw=grid.bw)
    if math.prod(header.tensor_shape) > MAX_LINK_SAMPLES:
        raise ConfigError(f"a UE's channel tensor {header.tensor_shape} would hold more "
                          f"than the {MAX_LINK_SAMPLES} entries one array may hold")
    positions = {ue.ue_id: ue.position for ue in ues}

    def build(ue_id: int) -> np.ndarray:
        tensor = np.empty(header.tensor_shape, dtype=np.complex128)
        for s in range(n_stripes):
            for r in range(n_rus):
                tx, rx = array_geometry(env, grid, s, r, positions[ue_id], n_tx, n_rx)
                real = model_channel(grid, model, tx, rx,
                                     (seed, "synthetic-tdl", ue_id, s, r), tdl_params)
                tensor[s, r] = np.transpose(real.h, (1, 2, 0))  # (n_rx, n_tx, Q)
        return tensor

    return CfrDataset(header=header, ues=ues, channels=_BuiltOnRead(positions, build))
