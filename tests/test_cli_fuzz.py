"""Fuzz the CLI: every argv and config value ends in an exit code, never an exception.

Values stay small (integers in [-3, 64], a fixed set of matrix sizes) so
no example allocates more than a few MB.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tempbal.cli import CONFIG_KEYS, main
from tempbal.weight_store import LayerTensor, WeightSnapshot, save_snapshot

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
    """main's exit code; a failing run must say why in one 'error:' line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
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
