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
load_snapshot checks a file's whole layer table, seeking over the values,
and gives a snapshot whose layers are the entries of that table: each
StoredLayer reads its values from the file at each access and keeps none,
so a caller walking the layers holds one at a time. read_snapshot buffers a
stream whole, checks it with the same walk, and gives LayerTensors that view
that one buffer. Each layer gives its flattened rows in blocks (row_blocks):
an array is one block, and a stored layer reads its blocks into one reused
buffer, its one route from file to array, so a tall layer's Gram matrix can
be summed without the layer ever in memory.
"""

from __future__ import annotations

import io
import math
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import BinaryIO, Protocol

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


class Layer(Protocol):
    """What esd.gram reads of a layer: a LayerTensor, a StoredLayer, or an rmt_lab.PLSpectrumSpec."""

    @property
    def name(self) -> str: ...

    @property
    def shape(self) -> tuple[int, int]: ...

    def row_blocks(self, rows: int) -> Iterable[np.ndarray]: ...


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

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of its flattened rows: a conv (out, in, kh, kw) tensor has out rows of in*kh*kw values."""
        return self.values.shape[0], math.prod(self.values.shape[1:])

    def row_blocks(self, rows: int) -> tuple[np.ndarray]:
        """Its flattened rows as one block, a view, whatever rows asks: an array in memory is summed whole."""
        return (self.values.reshape(self.shape),)


@dataclass(frozen=True)
class WeightSnapshot:
    """Ordered collection of layer tensors at one epoch; a loaded file's are its StoredLayer entries."""

    epoch: int
    layers: tuple[LayerTensor | StoredLayer, ...]  # any iterable is stored as a tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.epoch < 0:
            raise SnapshotStructureError(f"epoch must be nonnegative, got {self.epoch}")
        if not self.layers:
            raise SnapshotStructureError("snapshot must contain at least one layer")
        names = self.layer_names()
        if len(set(names)) != len(names):
            raise SnapshotStructureError("layer names must be unique within a snapshot")

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]


def write_snapshot(snapshot: WeightSnapshot, dest: BinaryIO) -> int:
    """Serialize a snapshot to a byte sink, each piece as it is encoded. Returns the number of bytes written.

    Writing is a pure function of the snapshot: the same snapshot always produces the same bytes. A layer's
    values are written from its own array, and a loaded snapshot's layers are read one at a time.
    """
    written = 0

    def write(piece: bytes | np.ndarray) -> None:
        nonlocal written
        try:
            dest.write(piece)
        except OSError as exc:
            raise SnapshotIOError(f"write failed: {exc}", written) from exc
        written += memoryview(piece).nbytes

    write(MAGIC + struct.pack("<III", VERSION, snapshot.epoch, len(snapshot.layers)))
    for layer in snapshot.layers:
        name_bytes = layer.name.encode("utf-8")
        write(struct.pack("<I", len(name_bytes)) + name_bytes)
        values = layer.values  # a stored layer reads its file at each access
        write(struct.pack(f"<I{values.ndim}Q", values.ndim, *values.shape))
        write(values.astype("<f8", copy=False))
        del values  # before the next layer is read
    return written


class _Reader:
    """Walks a seekable source, tracking the byte offset so truncation errors can name it."""

    def __init__(self, source: BinaryIO):
        self.source = source
        self.offset = source.tell()  # its position in the source
        self.size = source.seek(0, io.SEEK_END)
        source.seek(self.offset)

    def read(self, count: int, context: str) -> bytes:
        # the source is asked for no more than it holds, so an over-declared size allocates nothing
        wanted = max(0, min(count, self.size - self.offset))  # < 0: the file shrank
        try:
            data = self.source.read(wanted)
        except OSError as exc:
            raise SnapshotIOError(f"read failed: {exc}", self.offset) from exc
        self._advance(count, len(data), context)
        return data

    def readinto(self, buffer: np.ndarray, context: str) -> None:
        """Fill buffer from the source, which must hold that many bytes."""
        try:
            got = self.source.readinto(buffer)
        except OSError as exc:
            raise SnapshotIOError(f"read failed: {exc}", self.offset) from exc
        self._advance(buffer.nbytes, got or 0, context)

    def _advance(self, count: int, got: int, context: str) -> None:
        if got < count:
            raise SnapshotTruncatedError(
                f"truncated {context}: wanted {count} bytes at offset {self.offset}, got {got}"
            )
        self.offset += count

    def skip(self, count: int, context: str) -> None:
        """Seek over count bytes, which the source must hold."""
        if count > self.size - self.offset:
            raise SnapshotTruncatedError(f"truncated {context}: {count} bytes declared, {self.size - self.offset} left")
        self.offset = self.source.seek(count, io.SEEK_CUR)

    def u32(self, context: str) -> int:
        return struct.unpack("<I", self.read(4, context))[0]


def _parse(r: _Reader) -> tuple[int, list[tuple[str, tuple[int, ...], int]]]:
    """The epoch and, per layer, its (name, dims, offset of its values), all checked, seeking over the values."""
    magic = r.read(4, "reading magic")
    if magic != MAGIC:
        raise SnapshotMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32("reading version")
    if version != VERSION:
        raise SnapshotStructureError(f"unsupported version {version}")
    epoch = r.u32("reading epoch")
    layer_count = r.u32("reading layer count")

    table = []
    for idx in range(layer_count):
        ctx = f"at layer {idx}"
        name_len = r.u32(ctx)
        raw_name = r.read(name_len, ctx)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotStructureError(f"layer {idx}: name is not valid UTF-8") from exc
        ndims = r.u32(ctx)
        if ndims not in (2, 4):
            raise SnapshotStructureError(f"layer {idx} ({name!r}): ndims must be 2 or 4, got {ndims}")
        dims = struct.unpack(f"<{ndims}Q", r.read(8 * ndims, ctx))
        # LayerTensor's checks, made before the values are read; with no zero dim, no file holds one numpy cannot index
        if not name or 0 in dims:
            raise SnapshotStructureError(f"layer {idx} ({name!r}): needs a nonempty name and no zero dimension, got {dims}")
        table.append((name, dims, r.offset))
        r.skip(8 * math.prod(dims), f"at layer {idx} ({name!r})")
    return epoch, table


def read_snapshot(source: BinaryIO) -> WeightSnapshot:
    """Parse a snapshot stream written by write_snapshot (its exact inverse); it need not be seekable.

    The stream is read whole into one buffer and checked with load_snapshot's walk of the layer table. Layer
    values are read-only views of that buffer, shaped by the dims (copied only on a big-endian host).
    """
    try:
        data = source.read(-1)
    except OSError as exc:
        raise SnapshotIOError(f"read failed: {exc}", 0) from exc
    except MemoryError as exc:
        raise SnapshotError("cannot buffer the stream (MemoryError)") from exc
    epoch, table = _parse(_Reader(io.BytesIO(data)))
    layers = (LayerTensor(name, np.frombuffer(data, "<f8", math.prod(dims), at).reshape(dims)) for name, dims, at in table)
    return WeightSnapshot(epoch, layers)


@dataclass(frozen=True)
class StoredLayer:
    """Layer idx of a snapshot file, found by load_snapshot's check of the layer table; values reads it at each access."""

    path: str
    idx: int
    name: str
    dims: tuple[int, ...]
    offset: int  # of its values

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of its flattened rows: a conv (out, in, kh, kw) tensor has out rows of in*kh*kw values."""
        return self.dims[0], math.prod(self.dims[1:])

    @property
    def values(self) -> np.ndarray:
        """The whole layer in its own shape, read-only: row_blocks' one block of every row, read at each access."""
        (block,) = self.row_blocks(self.dims[0])
        block.flags.writeable = False
        return block.reshape(self.dims)

    def row_blocks(self, rows: int) -> Iterator[np.ndarray]:
        """Its flattened rows, `rows` at a time (the last block may hold fewer), each read into one reused buffer.

        A block is overwritten by the next, so use each before asking for the next.
        """
        total, cols = self.shape
        buffer = np.empty(min(rows, total) * cols, dtype="<f8")
        with open(self.path, "rb") as fh:  # a file gone since the load raises its OSError here
            fh.seek(self.offset)
            r = _Reader(fh)
            for start in range(0, total, rows):
                block = buffer[: min(rows, total - start) * cols]
                r.readinto(block, f"at layer {self.idx} ({self.name!r})")
                yield block.reshape(-1, cols)


def save_snapshot(snapshot: WeightSnapshot, path: str) -> int:
    try:
        with open(path, "wb") as fh:
            return write_snapshot(snapshot, fh)
    except OSError as exc:
        raise SnapshotIOError(f"cannot write {path!r}: {exc}", 0) from exc


def load_snapshot(path: str) -> WeightSnapshot:
    """Check a file's header and whole layer table as read_snapshot does; each layer is a StoredLayer of that table.

    A caller that walks the layers holds one layer's values at a time; values are read-only views. A pipe is read whole.
    """
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                return read_snapshot(fh)
            epoch, table = _parse(_Reader(fh))
    except OSError as exc:
        raise SnapshotIOError(f"cannot read {path!r}: {exc}", 0) from exc
    return WeightSnapshot(epoch=epoch, layers=(StoredLayer(path, idx, *entry) for idx, entry in enumerate(table)))
