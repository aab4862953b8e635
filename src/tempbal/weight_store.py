"""Binary snapshot format for per-layer network weights.

A snapshot stores the weight tensors of a model at one training instant so
that spectral analysis can run without any training-framework dependency.

File layout (".wsnp", all integers little-endian):

    magic      4 bytes  "WSNP" (57 53 4E 50)
    version    u32      currently 1
    epoch      u32
    layer_cnt  u32
    per layer:
        name_len   u32
        name       UTF-8 bytes
        ndims      u32      2 (dense) or 4 (conv, out/in/kh/kw order)
        dims       u64 each
        values     product(dims) f64, row-major

Values are 64-bit IEEE-754 so a write/read cycle is bit-exact. In memory a
LayerTensor holds its values in their own shape: only the file is flat.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .errors import DataError

MAGIC = b"WSNP"
VERSION = 1


class SnapshotError(DataError):
    """Base class for snapshot format errors."""


class SnapshotMagicError(SnapshotError):
    """Stream does not start with the WSNP magic bytes."""


class SnapshotTruncatedError(SnapshotError):
    """Stream ended before the declared payload was complete."""


class SnapshotStructureError(SnapshotError):
    """Structurally invalid snapshot: bad dims, counts, or layer names."""


class SnapshotIOError(SnapshotError):
    """Underlying sink/source failure; carries the byte offset reached."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class LayerTensor:
    """One named weight tensor, a C-contiguous float64 array of 2-D dense or 4-D conv (out, in, kh, kw) shape."""

    name: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.name:
            raise SnapshotStructureError("layer name must be nonempty")
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim not in (2, 4):
            raise SnapshotStructureError(f"layer {self.name!r}: values must be 2-D or 4-D, got {vals.ndim}-D")
        if 0 in vals.shape:
            raise SnapshotStructureError(f"layer {self.name!r}: zero dimension in {vals.shape}")
        object.__setattr__(self, "values", vals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerTensor):
            return NotImplemented
        return (
            self.name == other.name
            and self.values.shape == other.values.shape
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self):
        return hash((self.name, self.values.shape))


@dataclass(frozen=True)
class WeightSnapshot:
    """Ordered collection of layer tensors at one epoch."""

    epoch: int
    layers: tuple[LayerTensor, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.epoch < 0:
            raise SnapshotStructureError(f"epoch must be nonnegative, got {self.epoch}")
        if not self.layers:
            raise SnapshotStructureError("snapshot must contain at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise SnapshotStructureError("layer names must be unique within a snapshot")

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]


def write_snapshot(snapshot: WeightSnapshot, dest: BinaryIO) -> int:
    """Serialize a snapshot to a byte sink. Returns the number of bytes written.

    Writing is a pure function of the snapshot: the same snapshot always
    produces the same bytes.
    """
    chunks = [MAGIC, struct.pack("<III", VERSION, snapshot.epoch, len(snapshot.layers))]
    for layer in snapshot.layers:
        name_bytes = layer.name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", layer.values.ndim))
        chunks.append(struct.pack(f"<{layer.values.ndim}Q", *layer.values.shape))
        chunks.append(layer.values.astype("<f8", copy=False).tobytes())
    written = 0
    for chunk in chunks:
        try:
            dest.write(chunk)
        except OSError as exc:
            raise SnapshotIOError(f"write failed: {exc}", written) from exc
        written += len(chunk)
    return written


class _Reader:
    """Tracks the byte offset so truncation errors can name it."""

    def __init__(self, source: BinaryIO):
        self.source = source
        self.offset = 0
        self.size = None  # bytes from the start to the end of a seekable source
        if source.seekable():
            start = source.tell()
            self.size = source.seek(0, io.SEEK_END) - start
            source.seek(start)

    def read(self, count: int, context: str) -> bytes:
        # a seekable source is asked for no more than it holds, so an over-declared size allocates nothing
        wanted = count if self.size is None else min(count, self.size - self.offset)
        try:
            data = self.source.read(wanted)
        except OSError as exc:
            raise SnapshotIOError(f"read failed: {exc}", self.offset) from exc
        except (OverflowError, MemoryError) as exc:  # a source that cannot seek, or a layer beyond memory
            raise SnapshotError(f"{context}: cannot buffer {count} bytes ({type(exc).__name__})") from exc
        if data is None or len(data) < count:
            raise SnapshotTruncatedError(
                f"truncated {context}: wanted {count} bytes at offset {self.offset}, "
                f"got {0 if data is None else len(data)}"
            )
        self.offset += count
        return data

    def u32(self, context: str) -> int:
        return struct.unpack("<I", self.read(4, context))[0]


def read_snapshot(source: BinaryIO) -> WeightSnapshot:
    """Parse a snapshot stream written by write_snapshot (its exact inverse).

    Layer values are read-only views of the bytes read, shaped by the dims (copied only on a big-endian host).
    """
    r = _Reader(source)
    magic = r.read(4, "reading magic")
    if magic != MAGIC:
        raise SnapshotMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32("reading version")
    if version != VERSION:
        raise SnapshotStructureError(f"unsupported version {version}")
    epoch = r.u32("reading epoch")
    layer_count = r.u32("reading layer count")

    layers = []
    for idx in range(layer_count):
        ctx = f"at layer {idx}"
        name_len = r.u32(ctx)
        raw_name = r.read(name_len, ctx)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotStructureError(f"layer {idx}: name is not valid UTF-8") from exc
        ndims = r.u32(ctx)
        # before the dims are read: on a source that cannot seek, a huge ndims would buffer 8 * ndims bytes
        if ndims not in (2, 4):
            raise SnapshotStructureError(f"layer {idx} ({name!r}): ndims must be 2 or 4, got {ndims}")
        dims = struct.unpack(f"<{ndims}Q", r.read(8 * ndims, ctx))
        payload = r.read(8 * math.prod(dims), f"at layer {idx} ({name!r})")
        try:
            layers.append(LayerTensor(name, np.frombuffer(payload, dtype="<f8").reshape(dims)))
        except (SnapshotStructureError, ValueError) as exc:  # ValueError: numpy refuses a dim past its index range
            raise SnapshotStructureError(f"layer {idx}: {exc}") from exc

    return WeightSnapshot(epoch=epoch, layers=tuple(layers))


def save_snapshot(snapshot: WeightSnapshot, path: str) -> int:
    try:
        with open(path, "wb") as fh:
            return write_snapshot(snapshot, fh)
    except OSError as exc:
        raise SnapshotIOError(f"cannot write {path!r}: {exc}", 0) from exc


def load_snapshot(path: str) -> WeightSnapshot:
    try:
        with open(path, "rb") as fh:
            return read_snapshot(fh)
    except OSError as exc:
        raise SnapshotIOError(f"cannot read {path!r}: {exc}", 0) from exc
