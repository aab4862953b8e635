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
    SnapshotMagicError,
    SnapshotStructureError,
    SnapshotTruncatedError,
    WeightSnapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
    write_snapshot,
)


class _Unseekable:
    def __init__(self, raw: bytes):
        self._buf = io.BytesIO(raw)

    def read(self, count: int) -> bytes:
        return self._buf.read(count)

    def seekable(self) -> bool:
        return False


def roundtrip(snapshot: WeightSnapshot) -> WeightSnapshot:
    buf = io.BytesIO()
    write_snapshot(snapshot, buf)
    buf.seek(0)
    return read_snapshot(buf)


def snapshot_bytes(snapshot: WeightSnapshot) -> bytes:
    buf = io.BytesIO()
    write_snapshot(snapshot, buf)
    return buf.getvalue()


def test_zero_tensor_roundtrip():
    snap = WeightSnapshot(epoch=0, layers=(LayerTensor("fc", np.zeros((2, 3))),))
    raw = snapshot_bytes(snap)
    # header: magic + version/epoch/count, then name, ndims, dims, 6 zero f64
    assert raw[:4] == MAGIC
    assert raw[-48:] == b"\x00" * 48
    assert roundtrip(snap) == snap


def test_two_layer_roundtrip():
    rng = np.random.default_rng(0)
    snap = WeightSnapshot(
        epoch=17,
        layers=(
            LayerTensor("conv", rng.normal(size=(4, 2, 3, 3))),
            LayerTensor("fc", rng.normal(size=(10, 72))),
        ),
    )
    back = roundtrip(snap)
    assert back == snap
    assert back.epoch == 17
    assert back.layer_names() == ["conv", "fc"]


def test_randomized_roundtrip_identity():
    rng = np.random.default_rng(42)
    for _ in range(300):
        snap = random_snapshot(rng)
        assert roundtrip(snap) == snap


def test_write_is_deterministic():
    rng = np.random.default_rng(7)
    snap = random_snapshot(rng)
    assert snapshot_bytes(snap) == snapshot_bytes(snap)


def test_roundtrip_preserves_bits_exactly():
    # values that stress the f64 encoding, including signed zero and denormals
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1 + 2**-52, np.pi])
    snap = WeightSnapshot(epoch=1, layers=(LayerTensor("bits", values.reshape(2, 4)),))
    back = roundtrip(snap)
    assert back.layers[0].values.tobytes() == values.tobytes()


def test_bad_magic():
    with pytest.raises(SnapshotMagicError):
        read_snapshot(io.BytesIO(b"NOPE" + b"\x00" * 64))


def test_truncated_mid_values_names_layer():
    rng = np.random.default_rng(1)
    snap = WeightSnapshot(
        epoch=0,
        layers=(
            LayerTensor("a", rng.normal(size=(2, 2))),
            LayerTensor("b", rng.normal(size=(3, 3))),
        ),
    )
    raw = snapshot_bytes(snap)
    with pytest.raises(SnapshotTruncatedError, match="layer 1"):
        read_snapshot(io.BytesIO(raw[:-20]))


def test_truncated_header():
    with pytest.raises(SnapshotTruncatedError):
        read_snapshot(io.BytesIO(MAGIC + struct.pack("<I", 1)))


def test_zero_layer_count_rejected():
    raw = MAGIC + struct.pack("<III", 1, 0, 0)
    with pytest.raises(SnapshotStructureError):
        read_snapshot(io.BytesIO(raw))


def test_bad_ndims_rejected():
    raw = MAGIC + struct.pack("<III", 1, 0, 1)
    raw += struct.pack("<I", 1) + b"x" + struct.pack("<I", 3)
    raw += struct.pack("<3Q", 2, 2, 2) + b"\x00" * 64
    with pytest.raises(SnapshotStructureError, match="ndims"):
        read_snapshot(io.BytesIO(raw))
    # checked before the dims are read: 0xFFFFFFFF dims are 8 * (2**32 - 1) bytes to ask of a source that cannot seek
    raw = MAGIC + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 1) + b"x" + struct.pack("<I", 0xFFFFFFFF)
    with pytest.raises(SnapshotStructureError, match="ndims"):
        read_snapshot(_Unseekable(raw))


def test_zero_dimension_rejected():
    raw = MAGIC + struct.pack("<III", 1, 0, 1)
    raw += struct.pack("<I", 1) + b"x" + struct.pack("<I", 2)
    raw += struct.pack("<2Q", 0, 4)
    with pytest.raises(SnapshotStructureError, match="zero dimension"):
        read_snapshot(io.BytesIO(raw))
    # a payload of 0 bytes beside a dim that numpy cannot index
    raw = raw[:-16] + struct.pack("<2Q", 0, 2**64 - 1)
    with pytest.raises(SnapshotStructureError, match="layer 0"):
        read_snapshot(io.BytesIO(raw))


def test_format_is_pinned_byte_for_byte():
    # little-endian counts and dims, conv dims in out/in/kh/kw order, values little-endian row-major
    dense = np.arange(15.0).reshape(3, 5)
    conv = np.arange(24.0).reshape(2, 3, 2, 2)
    expected = MAGIC + struct.pack("<III", 1, 9, 2)
    expected += struct.pack("<I", 5) + b"dense" + struct.pack("<I2Q", 2, 3, 5) + struct.pack("<15d", *range(15))
    expected += struct.pack("<I", 4) + b"conv" + struct.pack("<I4Q", 4, 2, 3, 2, 2) + struct.pack("<24d", *range(24))
    snap = WeightSnapshot(epoch=9, layers=(LayerTensor("dense", dense), LayerTensor("conv", conv)))
    assert snapshot_bytes(snap) == expected
    back = read_snapshot(io.BytesIO(expected))
    assert back.epoch == 9 and back.layer_names() == ["dense", "conv"]
    assert np.array_equal(back.layers[0].values, dense) and back.layers[0].values.shape == (3, 5)
    assert np.array_equal(back.layers[1].values, conv) and back.layers[1].values.shape == (2, 3, 2, 2)


def test_non_utf8_name_rejected():
    raw = MAGIC + struct.pack("<III", 1, 0, 1)
    raw += struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 2)
    raw += struct.pack("<2Q", 1, 1) + struct.pack("<d", 1.0)
    with pytest.raises(SnapshotStructureError, match="UTF-8"):
        read_snapshot(io.BytesIO(raw))


def test_unsupported_version_rejected():
    raw = MAGIC + struct.pack("<III", 9, 0, 1)
    with pytest.raises(SnapshotStructureError, match="version"):
        read_snapshot(io.BytesIO(raw))


def test_constructor_invariants():
    with pytest.raises(SnapshotStructureError):
        LayerTensor("", np.zeros((2, 2)))
    with pytest.raises(SnapshotStructureError, match="1-D"):
        LayerTensor("x", np.zeros(5))
    with pytest.raises(SnapshotStructureError, match="3-D"):
        LayerTensor("x", np.zeros((2, 2, 2)))
    with pytest.raises(SnapshotStructureError, match="zero dimension"):
        LayerTensor("x", np.zeros((2, 0, 3, 3)))
    with pytest.raises(SnapshotStructureError):
        WeightSnapshot(epoch=0, layers=())
    tensor = LayerTensor("dup", np.zeros((1, 1)))
    with pytest.raises(SnapshotStructureError):
        WeightSnapshot(epoch=0, layers=(tensor, tensor))
    with pytest.raises(SnapshotStructureError):
        WeightSnapshot(epoch=-1, layers=(tensor,))


def test_unicode_layer_names_roundtrip():
    snap = WeightSnapshot(
        epoch=2, layers=(LayerTensor("блок.0/conv→1", np.array([[1.5, -2.5]])),)
    )
    assert roundtrip(snap) == snap


@pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63, 2), (2**20, 2**20)])
def test_over_declared_layer_size_is_a_snapshot_error(dims):
    raw = MAGIC + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 1) + b"x" + struct.pack("<I", 2)
    raw += struct.pack("<2Q", *dims) + b"\x00" * 16
    with pytest.raises(SnapshotTruncatedError, match="layer 0 \\('x'\\)"):
        read_snapshot(io.BytesIO(raw))
    # a stream that cannot seek: the read itself is refused, still a snapshot error
    with pytest.raises(SnapshotError, match="layer 0 \\('x'\\)"):
        read_snapshot(_Unseekable(raw))


def test_read_values_are_read_only_views():
    snap = roundtrip(random_snapshot(np.random.default_rng(3)))
    # a copy would be writeable
    assert not any(layer.values.flags.writeable for layer in snap.layers)


# ---------------------------------------------------------------------------
# load_snapshot: the layer table first, each layer read when asked for


def saved(tmp_path, snapshot: WeightSnapshot) -> str:
    path = str(tmp_path / "snap.wsnp")
    save_snapshot(snapshot, path)
    return path


def tensor(layer) -> LayerTensor:
    """A stored layer's name and values as a LayerTensor, which == compares by name, shape and bytes."""
    return LayerTensor(layer.name, layer.values)


def test_loaded_layers_are_reiterable_read_only_and_equal_to_a_read(tmp_path):
    rng = np.random.default_rng(11)
    for _ in range(20):
        path = saved(tmp_path, random_snapshot(rng))
        with open(path, "rb") as fh:
            read = read_snapshot(fh)
        loaded = load_snapshot(path)
        assert loaded.epoch == read.epoch and len(loaded.layers) == len(read.layers)
        for _pass in range(2):
            layers = [tensor(layer) for layer in loaded.layers]
            assert layers == list(read.layers)
            assert [layer.values.shape for layer in layers] == [layer.values.shape for layer in read.layers]
            assert not any(layer.values.flags.writeable for layer in layers)
        assert tensor(loaded.layers[-1]) == read.layers[-1]


def test_loaded_len_and_names_read_no_values(tmp_path):
    path = saved(tmp_path, random_snapshot(np.random.default_rng(12)))
    with open(path, "rb") as fh:
        names = read_snapshot(fh).layer_names()
    loaded = load_snapshot(path)
    os.remove(path)  # only a read of the values can notice
    assert len(loaded.layers) == len(names) and loaded.layer_names() == names
    assert [layer.name for layer in list(loaded.layers)] == names
    with pytest.raises(FileNotFoundError):
        [layer.values for layer in loaded.layers]


@pytest.mark.parametrize("keep, first_short", [(0.99, 2), (0.5, 1), (0.0, 0)])
def test_file_truncated_after_load_is_a_truncation_error(tmp_path, keep, first_short):
    rng = np.random.default_rng(13)
    layers = tuple(LayerTensor(f"l{i}", rng.normal(size=(8, 8))) for i in range(3))
    path = saved(tmp_path, WeightSnapshot(epoch=0, layers=layers))
    loaded = load_snapshot(path)
    with open(path, "r+b") as fh:
        fh.truncate(int(os.path.getsize(path) * keep))
    for idx in range(first_short):
        assert tensor(loaded.layers[idx]) == layers[idx]
        assert len(list(loaded.layers[idx].row_blocks(3))) == 3
    with pytest.raises(SnapshotTruncatedError, match=f"layer {first_short} \\('l{first_short}'\\)"):
        [layer.values for layer in loaded.layers]
    # the same file cut short during a block read: at keep 0.99 only the last block of layer 2 is short
    with pytest.raises(SnapshotTruncatedError, match=f"layer {first_short} \\('l{first_short}'\\)"):
        for _block in loaded.layers[first_short].row_blocks(3):
            pass


def test_row_blocks_read_the_flattened_rows_into_one_buffer(tmp_path):
    values = np.random.default_rng(15).normal(size=(11, 2, 2, 1))
    path = saved(tmp_path, WeightSnapshot(epoch=0, layers=(LayerTensor("conv", values),)))
    stored = load_snapshot(path).layers[0]
    assert stored.shape == (11, 4)
    blocks = [(block.copy(), block.base) for block in stored.row_blocks(4)]
    assert [block.shape for block, _base in blocks] == [(4, 4), (4, 4), (3, 4)]
    assert np.array_equal(np.vstack([block for block, _base in blocks]), values.reshape(11, 4))
    assert len({id(base) for _block, base in blocks}) == 1


def test_writing_a_loaded_snapshot_reads_each_layer_once_and_gives_the_same_bytes(tmp_path, monkeypatch):
    snap = random_snapshot(np.random.default_rng(16), max_layers=6)
    path = saved(tmp_path, snap)
    row_blocks, reads = weight_store.StoredLayer.row_blocks, []

    def spy(layer, rows):
        reads.append(layer.idx)
        return row_blocks(layer, rows)

    monkeypatch.setattr(weight_store.StoredLayer, "row_blocks", spy)
    copy = str(tmp_path / "copy.wsnp")
    save_snapshot(load_snapshot(path), copy)
    assert reads == list(range(len(snap.layers)))
    with open(path, "rb") as want, open(copy, "rb") as got:
        assert got.read() == want.read()


class _FailingSink(io.BytesIO):
    """Raises OSError on its write number fail_at (counted from 0), after keeping the bytes of the writes before it."""

    def __init__(self, fail_at: int):
        super().__init__()
        self.fail_at, self.writes = fail_at, 0

    def write(self, piece) -> int:
        if self.writes == self.fail_at:
            raise OSError("no space left")
        self.writes += 1
        return super().write(piece)


def test_a_failed_write_gives_the_offset_of_the_bytes_written_before_it():
    rng = np.random.default_rng(17)
    layers = (LayerTensor("fc", rng.normal(size=(3, 5))), LayerTensor("conv", rng.normal(size=(2, 3, 2, 2))))
    snap = WeightSnapshot(epoch=4, layers=layers)
    whole = snapshot_bytes(snap)
    complete = _FailingSink(fail_at=-1)
    assert write_snapshot(snap, complete) == len(whole)
    assert complete.writes >= 2 * len(snap.layers) + 1  # each layer's values are a write of their own
    for k in range(complete.writes):
        sink = _FailingSink(fail_at=k)
        with pytest.raises(SnapshotIOError, match="no space left") as info:
            write_snapshot(snap, sink)
        written = sink.getvalue()
        assert info.value.offset == len(written), k
        assert whole.startswith(written), k


def test_saving_a_loaded_snapshot_holds_one_layer_at_a_time(tmp_path):
    rng = np.random.default_rng(18)
    layer_bytes = 512 * 1024 * 8
    layers = [LayerTensor(f"fc{i}", rng.normal(size=(512, 1024))) for i in range(3)]  # three equal 4 MiB layers
    path = saved(tmp_path, WeightSnapshot(epoch=2, layers=layers))
    del layers
    loaded, copy = load_snapshot(path), tmp_path / "copy.wsnp"
    tracemalloc.start()
    try:
        save_snapshot(loaded, str(copy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * layer_bytes, peak / layer_bytes
    with open(path, "rb") as want:
        assert copy.read_bytes() == want.read()


def test_load_of_a_pipe_reads_it_whole(tmp_path):
    snap = random_snapshot(np.random.default_rng(14))
    fifo = tmp_path / "snap.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(snapshot_bytes(snap)), daemon=True)
    writer.start()
    loaded = load_snapshot(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert loaded == snap and isinstance(loaded.layers, tuple)
