"""Fuzz the CLI: every argv and config value ends in an exit code, never an exception.

Values stay small (integers in [-3, 64], a fixed set of matrix sizes) so
no example allocates more than a few MB; the only large sizes lie past
numpy's index range, where no array is allocated at all.
"""

import contextlib
import io
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
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


def run_main(argv: list[str], says: str = "") -> int:
    """main's exit code; a failing run must say why in one 'error:' line holding `says`, and a numpy warning fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert says in message, message
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


# ---------------------------------------------------------------------------
# bytes that are not UTF-8, fields past the csv module's limit, sizes past numpy's index range

# each is invalid UTF-8 wherever it lands in ASCII text
NOT_UTF8 = st.sampled_from((b"\xff", b"\xe9", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"))


def _insert(raw: bytes, at: int, inserted: bytes) -> bytes:
    at %= len(raw) + 1
    return raw[:at] + inserted + raw[at:]


def _train_exit(tmp: str, config: bytes, csv_text: bytes | None = None, says: str = "") -> int:
    if csv_text is not None:
        (Path(tmp) / "data.csv").write_bytes(csv_text)
        config += f"csv_path = {Path(tmp) / 'data.csv'}\n".encode()
    cfg = Path(tmp) / "run.cfg"
    cfg.write_bytes(config)
    return run_main(["train", "--config", str(cfg), "--out-dir", tmp], says)


BASE_CONFIG_BYTES = "".join(f"{k} = {v}\n" for k, v in BASE_CONFIG.items()).encode()
SMALL_CSV = ("x0,x1,label\n" + "".join(f"{i % 7}.5,{i % 3},{'ab'[i % 2]}\n" for i in range(20))).encode()


@settings(max_examples=50)
@given(st.integers(0, 10_000), NOT_UTF8)
def test_config_that_is_not_utf8_exits_1(at, inserted):
    with tempfile.TemporaryDirectory() as tmp:
        assert _train_exit(tmp, _insert(BASE_CONFIG_BYTES, at, inserted)) == 1


@settings(max_examples=50)
@given(st.integers(0, 10_000), NOT_UTF8)
def test_csv_that_is_not_utf8_exits_2(at, inserted):
    with tempfile.TemporaryDirectory() as tmp:
        assert _train_exit(tmp, BASE_CONFIG_BYTES, _insert(SMALL_CSV, at, inserted)) == 2


@pytest.mark.parametrize("row", [0, 1, 20], ids=["header", "first_row", "last_row"])
def test_csv_field_past_the_csv_module_limit_exits_2(row):
    lines = SMALL_CSV.split(b"\n")
    lines[row] = b"1" * 131_073 + lines[row]  # the csv module reads at most 131 072 characters a field
    with tempfile.TemporaryDirectory() as tmp:
        assert _train_exit(tmp, BASE_CONFIG_BYTES, b"\n".join(lines)) == 2


# above numpy's index range, so no array of them is ever allocated, lazily or not
PAST_INDEX_RANGE = st.sampled_from((2**62, 10**23, 10**30)).map(str)


@settings(max_examples=30)
@given(
    st.dictionaries(
        st.sampled_from(("samples", "dim", "classes", "hidden")), PAST_INDEX_RANGE, min_size=1, max_size=3
    )
)
def test_sizes_past_numpys_index_range_exit_1(sizes):
    values = {**BASE_CONFIG, **sizes}
    # more classes than samples is refused before anything is allocated
    refused_first = int(values.get("classes", 2)) > int(values["samples"])
    says = "each class needs at least one sample" if refused_first else "cannot allocate"
    config = "".join(f"{k} = {v}\n" for k, v in values.items()).encode()
    with tempfile.TemporaryDirectory() as tmp:
        assert _train_exit(tmp, config, says=says) == 1


# Python's own UTF-8 mode and locale coercion off, so text files default to the C locale's ASCII
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _cli_under_ascii_locale(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"]
    encoding = subprocess.run(probe, capture_output=True, text=True, env=env, timeout=60).stdout.strip()
    assert encoding.lower().replace("-", "") != "utf8", "the C locale must not be UTF-8 for this test to mean anything"
    return subprocess.run([sys.executable, "-m", "tempbal.cli", *argv], capture_output=True, env=env, timeout=120)


def test_analyze_writes_utf8_under_an_ascii_locale(tmp_path):
    layer = LayerTensor("café", np.random.default_rng(0).normal(size=(6, 9)))
    save_snapshot(WeightSnapshot(epoch=0, layers=(layer,)), str(tmp_path / "cafe.wsnp"))
    done = _cli_under_ascii_locale(["analyze", str(tmp_path / "cafe.wsnp"), "--out-dir", str(tmp_path / "out")])
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    metrics = (tmp_path / "out" / "metrics.csv").read_bytes().decode("utf-8").splitlines()
    assert len(metrics) == 2 and metrics[1].startswith("café,6,9,")
    esd_rows = (tmp_path / "out" / "esd.csv").read_bytes().decode("utf-8").splitlines()[1:]
    assert len(esd_rows) == 100 and all(row.startswith("café,") for row in esd_rows)
    assert sum(int(row.rsplit(",", 1)[1]) for row in esd_rows) == 6


def test_train_reads_a_utf8_csv_under_an_ascii_locale(tmp_path):
    rows = "".join(f"{i % 7}.5,{i % 3},{'é' if i % 2 else 'e'}\n" for i in range(20))
    (tmp_path / "data.csv").write_bytes(("x0,x1,label\n" + rows).encode("utf-8"))
    config = BASE_CONFIG_BYTES + f"csv_path = {tmp_path / 'data.csv'}\n".encode()
    (tmp_path / "run.cfg").write_bytes(config)
    done = _cli_under_ascii_locale(["train", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "telemetry.csv").is_file()
