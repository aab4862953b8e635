"""Snapshot sources that fail: streams and files whose reads raise, paths that cannot be written, and sizes
declared beyond what a source holds. Each case runs through a public entry of tempbal.weight_store."""

import errno
import io
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_snapshot
from tempbal import weight_store
from tempbal.weight_store import (
    MAGIC,
    LayerTensor,
    SnapshotError,
    SnapshotIOError,
    SnapshotStructureError,
    SnapshotTruncatedError,
    WeightSnapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
    write_snapshot,
)


def snapshot_bytes(snapshot: WeightSnapshot) -> bytes:
    buf = io.BytesIO()
    write_snapshot(snapshot, buf)
    return buf.getvalue()


class _RaisingStream:
    """A stream that cannot seek and whose read raises exc."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def read(self, count: int) -> bytes:
        raise self.exc

    def seekable(self) -> bool:
        return False


def failing_open(fail_at: int):
    """An open() for weight_store whose files raise EIO on any read that reaches byte fail_at, as a bad disk would."""

    class FailingFile(io.FileIO):
        def _check(self, count: int) -> None:
            if self.tell() + count > fail_at:
                raise OSError(errno.EIO, "Input/output error")

        def read(self, size: int = -1) -> bytes:
            self._check(size)
            return super().read(size)

        def readinto(self, buffer) -> int:
            self._check(memoryview(buffer).nbytes)
            return super().readinto(buffer)

    return lambda path, mode="r": FailingFile(path, mode)


def test_a_stream_whose_read_fails_is_a_snapshot_io_error():
    with pytest.raises(SnapshotIOError, match="read failed: .*Input/output error") as info:
        read_snapshot(_RaisingStream(OSError(errno.EIO, "Input/output error")))
    assert info.value.offset == 0


def test_a_stream_too_large_to_buffer_is_a_snapshot_error():
    with pytest.raises(SnapshotError, match="cannot buffer the stream"):
        read_snapshot(_RaisingStream(MemoryError()))


def test_a_stream_is_read_from_where_it_stands():
    snap = random_snapshot(np.random.default_rng(20))
    stream = io.BytesIO(b"prefix" + snapshot_bytes(snap))
    stream.seek(len(b"prefix"))
    assert read_snapshot(stream) == snap


def test_read_layers_view_one_buffer():
    layers = (LayerTensor("a", np.arange(6.0).reshape(2, 3)), LayerTensor("b", -np.arange(16.0).reshape(2, 2, 2, 2)))
    snap = WeightSnapshot(epoch=5, layers=layers)
    back = read_snapshot(io.BytesIO(snapshot_bytes(snap)))
    assert back == snap
    buffers = [layer.values.base.base for layer in back.layers]  # the reshape's base is the frombuffer view
    assert all(isinstance(buffer, bytes) for buffer in buffers) and buffers[0] is buffers[1]


def test_a_file_whose_read_fails_during_the_load_names_the_offset(tmp_path, monkeypatch):
    path = str(tmp_path / "snap.wsnp")
    save_snapshot(random_snapshot(np.random.default_rng(21)), path)
    # the header is 16 bytes and the first name length 4: the read of the first name is the one that fails
    monkeypatch.setattr(weight_store, "open", failing_open(20), raising=False)
    with pytest.raises(SnapshotIOError, match="read failed: .*Input/output error") as info:
        load_snapshot(path)
    assert info.value.offset == 20


def test_a_stored_layer_whose_read_fails_names_its_offset(tmp_path, monkeypatch):
    path = str(tmp_path / "snap.wsnp")
    rng = np.random.default_rng(22)
    layers = tuple(LayerTensor(f"l{i}", rng.normal(size=(4, 3))) for i in range(2))
    save_snapshot(WeightSnapshot(epoch=0, layers=layers), path)
    loaded = load_snapshot(path)
    monkeypatch.setattr(weight_store, "open", failing_open(loaded.layers[1].offset), raising=False)
    assert np.array_equal(loaded.layers[0].values, layers[0].values)
    with pytest.raises(SnapshotIOError, match="read failed") as info:
        loaded.layers[1].values
    assert info.value.offset == loaded.layers[1].offset


def test_saving_to_a_path_that_cannot_be_written_is_a_snapshot_io_error(tmp_path):
    snap = WeightSnapshot(epoch=0, layers=(LayerTensor("fc", np.ones((2, 2))),))
    with pytest.raises(SnapshotIOError, match="cannot write .*missing"):
        save_snapshot(snap, str(tmp_path / "missing" / "snap.wsnp"))


def test_layer_tensor_equality_and_hash():
    tensor = LayerTensor("fc", np.arange(4.0).reshape(2, 2))
    twin = LayerTensor("fc", np.arange(4.0).reshape(2, 2))
    assert tensor != "fc" and not tensor == 1
    assert tensor == twin and hash(tensor) == hash(twin) and len({tensor, twin}) == 1


@pytest.mark.parametrize("source", ["file", "stream"])
def test_an_over_declared_name_allocates_nothing(tmp_path, source):
    # a name length of 256 MiB in a file of 84 bytes: the read is clamped to what the source holds
    raw = MAGIC + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 2**28) + b"x" * 64
    path = tmp_path / "name.wsnp"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotTruncatedError, match="at layer 0: wanted 268435456 bytes"):
            load_snapshot(str(path)) if source == "file" else read_snapshot(io.BytesIO(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("source", ["file", "stream", "pipe"])
def test_bytes_after_the_last_layer_are_refused(tmp_path, source):
    raw = snapshot_bytes(WeightSnapshot(0, [LayerTensor("fc", np.arange(6.0).reshape(2, 3))]))
    tail = raw + b"\x00" * 16
    path = tmp_path / "tail.wsnp"
    writer = threading.Thread(target=path.write_bytes, args=(tail,), daemon=True)
    if source == "pipe":  # load_snapshot reads a pipe whole, as read_snapshot reads a stream
        os.mkfifo(path)
        writer.start()
    else:
        path.write_bytes(tail)
    with pytest.raises(SnapshotStructureError, match=f"16 bytes after the last layer, at offset {len(raw)}"):
        read_snapshot(io.BytesIO(tail)) if source == "stream" else load_snapshot(str(path))
    if source == "pipe":
        writer.join(timeout=10)
        assert not writer.is_alive()
