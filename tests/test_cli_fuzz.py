"""Fuzz the CLI: every argv and config value ends in an exit code, never an exception.

Values stay small (integers in [-3, 64], a fixed set of matrix sizes) so
no example allocates more than a few MB.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tempbal.cli import CONFIG_KEYS, main
from tempbal.weight_store import LayerTensor, WeightSnapshot, save_snapshot, write_snapshot

FUZZ = settings(max_examples=100)

BASE_CONFIG = {"total_epochs": "1", "samples": "40", "dim": "6", "hidden": "8", "timing": "off"}

TEXT_VALUES = (
    "", "0.5", "-0.5", "1e9", "nan", "inf", "-inf", "abc", "true", "no",
    "ks", "fixfinger", "lars", "step", "sqrt", "log2", "global_only",
    "spectral_norm", "alpha_weighted", "tanh", "xavier", "csv", "off",
    "8,4", "4,-1", "2x1x2x2", "1x2x3", "1x0x2", "x",
)
VALUES = st.one_of(st.integers(-3, 64).map(str), st.sampled_from(TEXT_VALUES))


def run_main(argv: list[str]) -> int:
    """main's exit code; a failing run must say why in one 'error:' line, and a numpy warning fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message
    return code


@FUZZ
@given(st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS)), VALUES, min_size=1, max_size=2))
def test_train_config_fuzz(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        values = {**BASE_CONFIG, **overrides}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        run_main(["train", "--config", str(cfg), "--out-dir", tmp])


@FUZZ
@given(
    st.sampled_from(("median", "ks", "fixfinger", "mean")),
    st.integers(-3, 64),
    st.booleans(),
)
def test_analyze_argv_fuzz(policy, bins, exists):
    rng = np.random.default_rng(0)
    snap = WeightSnapshot(
        epoch=0,
        layers=(
            LayerTensor("dense", rng.normal(size=(12, 8))),
            LayerTensor("conv", rng.normal(size=(4, 2, 3, 3))),
            LayerTensor("dead", np.zeros((5, 5))),
            # every singular value 3: its eigenvalues differ by roundoff, and its log10 span
            # has no room for distinct histogram edges
            LayerTensor("flat", 3.0 * np.linalg.qr(rng.normal(size=(12, 8)))[0].T),
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.wsnp"
        if exists:
            save_snapshot(snap, str(path))
        code = run_main(["analyze", str(path), "--policy", policy, "--bins", str(bins), "--out-dir", tmp])
    if exists and policy != "mean" and bins >= 2:
        assert code == 0


@FUZZ
@given(
    st.sampled_from(("8", "16", "8,16", "8:16:8", "64", "4", "0", "-3", "64.7", "nan", "", "a")),
    st.sampled_from(("0.5", "1.5", "0.5:3.0:1.25", "3.0", "1e-320", "1e6", "0", "-1", "inf", "nan", "", "a,b", "3:1:1")),
    st.integers(-3, 64),
)
def test_rmt_argv_fuzz(q, s, seed):
    with tempfile.TemporaryDirectory() as tmp:
        run_main(["rmt", "--q", q, "--s", s, "--seed", str(seed), "--out", str(Path(tmp) / "t.csv")])


# ---------------------------------------------------------------------------
# damaged .wsnp bytes


def _damage_target() -> tuple[bytes, list[int], list[int]]:
    """A 2.6 KB three-layer file (tall, conv, wide) with the offsets of its header bytes and of its values."""
    rng = np.random.default_rng(3)
    layers = (
        LayerTensor("tall", rng.normal(size=(30, 6))),  # streamed in row blocks
        LayerTensor("conv", rng.normal(size=(4, 2, 3, 3))),
        LayerTensor("wide", rng.normal(size=(5, 12))),
    )
    buf = io.BytesIO()
    write_snapshot(WeightSnapshot(epoch=1, layers=layers), buf)
    header, values = list(range(16)), []
    pos = 16
    for layer in layers:
        size = 4 + len(layer.name.encode()) + 4 + 8 * layer.values.ndim
        header += range(pos, pos + size)
        values += range(pos + size, pos + size + 8 * layer.values.size, 8)
        pos += size + 8 * layer.values.size
    raw = buf.getvalue()
    assert pos == len(raw)
    return raw, header, values


RAW, HEADER_BYTES, VALUE_OFFSETS = _damage_target()


def _overwrite(edits) -> bytes:
    raw = bytearray(RAW)
    for offset, value in edits:
        raw[offset : offset + len(value)] = value
    return bytes(raw)


DAMAGE = st.one_of(
    st.integers(0, len(RAW) - 1).map(lambda cut: RAW[:cut]),
    st.lists(st.tuples(st.sampled_from(HEADER_BYTES), st.binary(min_size=1, max_size=1)), min_size=1, max_size=3).map(
        _overwrite
    ),
    st.tuples(
        st.sampled_from(VALUE_OFFSETS), st.sampled_from((np.nan, np.inf, 1e200, -0.0)).map(lambda v: struct.pack("<d", v))
    ).map(lambda edit: _overwrite([edit])),
)


@settings(max_examples=200)
@given(DAMAGE, st.sampled_from(("median", "ks", "fixfinger")))
def test_analyze_of_damaged_bytes_exits_0_or_2(raw, policy):
    # no errstate here: a numpy warning fails the run, as a traceback would
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.wsnp"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path), "--policy", policy, "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
