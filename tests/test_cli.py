import contextlib
import csv
import inspect
import io
import os
import struct
import subprocess
import sys
import tempfile
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_snapshot
from tempbal.cli import CONFIG_KEYS, _parse_grid, main, parse_config
from tempbal.errors import ConfigError
from tempbal.esd import compute_esd
from tempbal.htsr import POLICY_VARIANTS
from tempbal.rmt_lab import PLSpectrumSpec, synth_pl_matrix
from tempbal.train_engine import run_training
from tempbal.weight_store import MAGIC, LayerTensor, SnapshotError, WeightSnapshot, load_snapshot, save_snapshot


@pytest.fixture()
def snapshot_path(tmp_path):
    mat = synth_pl_matrix(PLSpectrumSpec(size=64, decay=1.0, seed=5))
    rng = np.random.default_rng(1)
    snap = WeightSnapshot(
        epoch=3,
        layers=(
            LayerTensor("pl64", mat.values),
            LayerTensor("wide", rng.normal(size=(72, 10))),
            LayerTensor("dead", np.zeros((6, 8))),
        ),
    )
    path = tmp_path / "model.wsnp"
    save_snapshot(snap, str(path))
    return path


def train_config(tmp_path, **overrides):
    values = {
        "eta0": "0.1",
        "total_epochs": "4",
        "samples": "240",
        "hidden": "16,8",
        "separation": "6.0",
        "timing": "off",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return path


# ---------------------------------------------------------------------------
# analyze


def esd_groups(out: Path) -> list[tuple[str, list[tuple[float, float, int]]]]:
    """esd.csv of an analyze run: each run of rows with one layer cell, as (layer, [(left, right, count), ...])."""
    with open(out / "esd.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["layer", "log10_lambda_left", "log10_lambda_right", "count"]
        return [
            (layer, [(float(left), float(right), int(count)) for _, left, right, count in rows])
            for layer, rows in groupby(reader, key=lambda row: row[0])
        ]


def test_analyze_writes_metrics_and_histograms(snapshot_path, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", str(snapshot_path), "--out-dir", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("layer,n,m,k,lambda_min,alpha_hill")
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["pl64"].endswith("ok")
    assert rows["dead"].endswith("degenerate: 'dead': all eigenvalues are zero")
    # pl64 has decay 1.0, so the fitted exponent sits near 2
    alpha = float(rows["pl64"].split(",")[5])
    assert alpha == pytest.approx(2.0, rel=0.1)
    # orientation recorded: the 72x10 layer analyzes as 10 x 72
    assert rows["wide"].split(",")[1:3] == ["10", "72"]
    assert sorted(p.name for p in out.iterdir()) == ["esd.csv", "metrics.csv"]
    hists = dict(esd_groups(out))
    assert list(hists) == ["pl64", "wide"]  # the zero layer has no positive eigenvalue to bin
    assert [sum(count for *_, count in rows) for rows in hists.values()] == [64, 10]


def test_analyze_ks_names_a_layer_with_no_candidate_k(tmp_path):
    # rank 2 leaves ks two nonzero eigenvalues and so no candidate k; the reason names the layer, as every other does
    rng = np.random.default_rng(2)
    path = tmp_path / "rank2.wsnp"
    layers = (LayerTensor("rank2", rng.normal(size=(8, 2)) @ rng.normal(size=(2, 12))),)
    save_snapshot(WeightSnapshot(epoch=0, layers=layers), str(path))
    assert main(["analyze", str(path), "--policy", "ks", "--out-dir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert rows[1] == "rank2,8,12,,,,,,degenerate: 'rank2': no candidate k admits a power-law fit"


def test_analyze_reports_a_layer_with_a_non_finite_weight_degenerate(snapshot_path, tmp_path):
    # a tall layer read in blocks, with an infinite weight in its ragged last one, put between the file's layers
    bad = np.random.default_rng(3).normal(size=(2 * 9 + 4, 9))
    bad[-1, 2] = np.inf
    layers = [LayerTensor(layer.name, layer.values) for layer in load_snapshot(str(snapshot_path)).layers]
    layers.insert(1, LayerTensor("bad", bad))
    bad_path = tmp_path / "bad.wsnp"
    save_snapshot(WeightSnapshot(epoch=3, layers=layers), str(bad_path))
    assert main(["analyze", str(snapshot_path), "--out-dir", str(tmp_path / "clean")]) == 0
    assert main(["analyze", str(bad_path), "--out-dir", str(tmp_path / "bad")]) == 0
    clean = (tmp_path / "clean" / "metrics.csv").read_text().splitlines()
    rows = (tmp_path / "bad" / "metrics.csv").read_text().splitlines()
    # the reason holds a comma, so its cell is quoted
    assert rows.pop(2) == "bad,9,22,,,,,,\"degenerate: 'bad': W has a non-finite entry, or W W^T overflows float64\""
    assert rows == clean
    assert (tmp_path / "bad" / "esd.csv").read_bytes() == (tmp_path / "clean" / "esd.csv").read_bytes()


def test_analyze_deterministic_bytes(snapshot_path, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["analyze", str(snapshot_path), "--out-dir", str(out1)])
    main(["analyze", str(snapshot_path), "--out-dir", str(out2)])
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "esd.csv").read_bytes() == (out2 / "esd.csv").read_bytes()


def test_analyze_missing_file_exit_2(tmp_path):
    assert main(["analyze", str(tmp_path / "missing.wsnp")]) == 2


def test_analyze_corrupt_file_exit_2(tmp_path):
    bad = tmp_path / "bad.wsnp"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["analyze", str(bad)]) == 2


def test_analyze_truncated_file_exit_2(snapshot_path, tmp_path):
    raw = snapshot_path.read_bytes()
    cut = tmp_path / "cut.wsnp"
    cut.write_bytes(raw[: len(raw) // 2])
    assert main(["analyze", str(cut)]) == 2


def test_unwritable_output_exit_2(tmp_path, snapshot_path, capsys):
    # an output that cannot be written is an I/O error, like an input that cannot be read
    missing = tmp_path / "missing" / "t.csv"
    assert_usage_error(["rmt", "--q", "64", "--s", "1.0", "--out", str(missing)], capsys, code=2)
    regular = tmp_path / "regular"
    regular.write_text("")
    assert_usage_error(["analyze", str(snapshot_path), "--out-dir", str(regular)], capsys, code=2)


def test_analyze_zero_layer_snapshot_exit_2(tmp_path):
    import struct

    from tempbal.weight_store import MAGIC

    empty = tmp_path / "empty.wsnp"
    empty.write_bytes(MAGIC + struct.pack("<III", 1, 0, 0))
    assert main(["analyze", str(empty)]) == 2


def test_analyze_policy_flags(snapshot_path, tmp_path):
    out = tmp_path / "ks"
    assert main(["analyze", str(snapshot_path), "--policy", "ks", "--out-dir", str(out)]) == 0
    assert main(
        ["analyze", str(snapshot_path), "--policy", "fixfinger", "--bins", "50", "--out-dir", str(tmp_path / "ff")]
    ) == 0


# ---------------------------------------------------------------------------
# train


def test_train_runs_and_writes_outputs(tmp_path, capsys):
    cfg = train_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--seed", "3"]) == 0
    captured = capsys.readouterr().out
    assert "final eval accuracy" in captured
    assert "analysis overhead" in captured
    telemetry = (out / "telemetry.csv").read_text().splitlines()
    assert telemetry[0].startswith("epoch,layer,alpha_hill")
    assert (out / "final.wsnp").exists()


def test_train_global_only_constant_lr_per_epoch(tmp_path):
    cfg = train_config(tmp_path, assignment="global_only")
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out-dir", str(out)])
    rows = [line.split(",") for line in (out / "telemetry.csv").read_text().splitlines()[1:]]
    by_epoch = {}
    for row in rows:
        if row[1] == "_epoch_":
            continue
        by_epoch.setdefault(row[0], set()).add(row[4])
    for epoch, lrs in by_epoch.items():
        assert len(lrs) == 1, f"epoch {epoch} has multiple learning rates {lrs}"


def test_train_tempbalance_range(tmp_path):
    from tempbal.scheduler import cal_rate

    cfg = train_config(tmp_path, s1=0.5, s2=1.5)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out-dir", str(out)])
    rows = [line.split(",") for line in (out / "telemetry.csv").read_text().splitlines()[1:]]
    for row in rows:
        if row[1] == "_epoch_":
            continue
        eta_t = cal_rate(0.1, int(row[0]), 4)
        lr = float(row[4])
        assert 0.5 * eta_t - 1e-15 <= lr <= 1.5 * eta_t + 1e-15


def _out_of_place_sgd_step(params, grads, velocity, optim, lr_map):
    """The SGD update with fresh buffer and parameter arrays at every step, the in-place one's reference."""
    for name, w in params.items():
        buf = optim.momentum * velocity[name] + grads[name] + optim.weight_decay * w
        velocity[name] = buf
        params[name] = w - lr_map[name] * buf
    return params, velocity


def test_train_in_place_sgd_gives_the_out_of_place_bytes(tmp_path, monkeypatch):
    from tempbal import train_engine

    # the benchmark's train_refresh config: 16 refreshes, momentum and weight decay on every step
    bench = dict(dim=128, hidden="256,256,128", classes=10, samples=2560, update_interval_iters=5, seed=601)
    outputs = []
    for step in (train_engine.sgd_step, _out_of_place_sgd_step):
        monkeypatch.setattr(train_engine, "sgd_step", step)
        out = tmp_path / step.__name__
        assert main(["train", "--config", str(train_config(tmp_path, **bench)), "--out-dir", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("telemetry.csv", "final.wsnp")])
    assert outputs[0] == outputs[1]


def test_train_snr_on_nearly_equal_top_singular_values_exit_0(tmp_path):
    # seed 777 grows a dense1 whose top two singular values nearly coincide,
    # where a power iteration stalls at a residual of 3e-8 * sigma
    bench = dict(dim=128, hidden="256,256,128", classes=10, samples=2560, update_interval_iters=5)
    cfg = train_config(tmp_path, **bench, s1=0.5, s2=1.5, policy="median", lambda_sr=0.001, seed=777)
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "snr")]) == 0


@st.composite
def small_train_configs(draw):
    """Overrides of train_config (timing = off) for a small run: widths, assignment, policy, conv stem or not, SNR or not."""
    cfg = {
        "total_epochs": "2",
        "samples": "80",
        "batch_size": str(draw(st.integers(8, 32))),
        "update_interval_iters": str(draw(st.integers(1, 4))),
        "hidden": ",".join(map(str, draw(st.lists(st.integers(4, 12), min_size=1, max_size=3)))),
        "assignment": draw(st.sampled_from(("tempbalance", "sqrt", "log2", "step", "lars", "global_only"))),
        "policy": draw(st.sampled_from(("median", "ks", "fixfinger"))),
        "lambda_sr": draw(st.sampled_from(("0", "0.001"))),
        "seed": str(draw(st.integers(0, 2**32 - 1))),
    }
    if draw(st.booleans()):
        cfg.update(conv_stem="3x1x3x3", conv_input="1x6x6", dim="36")
    else:
        cfg["dim"] = str(draw(st.integers(2, 12)))
    return cfg


@settings(max_examples=40)
@given(small_train_configs())
def test_train_repeat_runs_are_byte_identical(cfg):
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis runs every example in one tmp_path
        path = train_config(Path(tmp), **cfg)
        outputs = []
        for run in ("a", "b"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train", "--config", str(path), "--out-dir", str(Path(tmp) / run)]) == 0
            outputs.append([(Path(tmp) / run / f).read_bytes() for f in ("telemetry.csv", "final.wsnp")])
    assert outputs[0] == outputs[1]


def test_train_unknown_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("foo = 1\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "unknown key foo" in capsys.readouterr().err


def test_train_malformed_line_exit_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eta0 0.1\n")
    assert main(["train", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("eta0 = 0.1\n# the rate again\neta0 = 0.2\n", "bad.cfg:3: key eta0 already set on line 1"),
        # csv_path alone picks the data source
        ("dataset = csv\n", "unknown key dataset"),
        ("foo = 1\n", "bad.cfg:1: unknown key foo"),
        ("total_epochs = 4\neta0 = x\n", "bad.cfg:2: key eta0: expected number, got 'x'"),
        ("exclude_first_last = maybe\n", "bad.cfg:1: key exclude_first_last: expected boolean, got 'maybe'"),
        ("total_epochs = 2\nepochs = 3\n", "epochs must be in [0, total_epochs=2], got 3"),
    ],
    ids=["repeated", "dataset", "unknown", "value", "boolean", "epochs"],
)
def test_train_key_refused_exit_1(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["train", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_train_divergence_exit_3(tmp_path, capsys):
    cfg = train_config(tmp_path, eta0="1e9", assignment="global_only")
    rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
    assert rc == 3
    assert "epoch" in capsys.readouterr().err


def run_cli(argv):
    """python -m tempbal.cli in a fresh interpreter, under numpy's default error state and warning filters."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "tempbal.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


# the bench's train_refresh config, whose lars run diverges at eta0 = 0.1
TRAIN_REFRESH_LARS = dict(
    dim=128, hidden="256,256,128", classes=10, samples=2560, update_interval_iters=5, seed=7, assignment="lars"
)


@pytest.mark.parametrize(
    "overrides",
    [dict(eta0="1e9", assignment="global_only"), TRAIN_REFRESH_LARS, dict(eta0="100", assignment="lars")],
    ids=["global_only", "lars", "lars_finite_loss"],
)
def test_diverging_train_writes_only_its_error_line(tmp_path, overrides):
    # numpy's overflow warnings on the way to the non-finite loss stay silent; at eta0 = 100 the
    # loss stays finite, but the weights reach 1e183 and the eval pass overflows its logits
    cfg = train_config(tmp_path, **overrides)
    proc = run_cli(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: training diverged") and proc.stderr.count("\n") == 1, proc.stderr


def test_train_log2_with_a_metric_value_below_one_writes_only_its_error_line(tmp_path):
    # in epoch 1, alpha_weighted reads 1.052 for dense1 and 0.944 for dense2: logs of opposite sign,
    # which would give dense1 a negative rate
    cfg = train_config(
        tmp_path, dim=20, hidden="128,64,32", classes=4, samples=400, separation=4.0, total_epochs=2,
        update_interval_iters=3, init="xavier", policy="fixfinger", assignment="log2", metric="alpha_weighted", seed=1,
    )
    proc = run_cli(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
    assert proc.returncode == 3
    assert proc.stderr == "error: log2 assignment requires metric values above 1\n", proc.stderr


def test_train_missing_config_exit_1(tmp_path):
    assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 1


# each first large array is over a PiB, so numpy refuses it before touching memory:
# the dataset (1.4 PiB), the first dense layer (1.1 PiB), the class means (5.7 PiB)
@pytest.mark.parametrize(
    "sizes",
    [dict(samples=10_000_000_000_000), dict(hidden=4_000_000_000, dim=40_000, samples=10), dict(dim=400_000_000_000_000)],
    ids=["samples", "hidden", "dim"],
)
def test_train_sizes_beyond_memory_exit_1(tmp_path, capsys, sizes):
    cfg = train_config(tmp_path, **sizes)
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "big")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_config_comments_and_defaults(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# full-line comment\neta0 = 0.2  # trailing comment\n\n")
    values = parse_config(str(cfg))
    assert values["eta0"] == 0.2
    assert values["policy"] == "median"


def test_config_defaults_of_run_training_keys_are_its_own():
    params = inspect.signature(run_training).parameters
    shared = [key for key in CONFIG_KEYS if key in params and params[key].default is not inspect.Parameter.empty]
    assert {"epochs", "lambda_sr", "seed"} <= set(shared)
    for key in shared:
        assert CONFIG_KEYS[key].default == params[key].default, key


def test_analyze_unknown_policy_exit_1_before_the_snapshot_is_read(tmp_path, capsys):
    # LambdaMinPolicy is the one check of --policy; a missing file read first would exit 2
    err = assert_usage_error(["analyze", str(tmp_path / "missing.wsnp"), "--policy", "mean"], capsys)
    assert "'mean'" in err


def test_analyze_help_lists_the_policy_variants(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "|".join(POLICY_VARIANTS) in capsys.readouterr().out


def test_config_bad_value_reports_key(tmp_path):
    cfg = train_config(tmp_path, eta0="fast")
    with pytest.raises(ConfigError, match="eta0"):
        parse_config(str(cfg))


def test_train_help_lists_every_key_with_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    shown = {}
    for line in capsys.readouterr().out.splitlines():
        fields = line.split()
        if len(fields) >= 2:
            shown[fields[0]] = fields[1]
    for key, spec in CONFIG_KEYS.items():
        assert key in shown, key
        if spec.default in (None, "", ()):
            assert shown[key] == "(none)", key
        else:
            assert spec.parse(shown[key]) == spec.default, key


def test_train_csv_dataset_read_once(tmp_path, monkeypatch):
    import tempbal.train_engine as engine

    data = tmp_path / "data.csv"
    rows = ["a,b,label"] + [f"{i % 2 * 3 + 0.1 * i},{i % 2},{'yes' if i % 2 else 'no'}" for i in range(40)]
    data.write_text("\n".join(rows) + "\n")
    reads = []
    load_csv = engine._load_csv
    monkeypatch.setattr(engine, "_load_csv", lambda spec: reads.append(spec.path) or load_csv(spec))
    cfg = train_config(tmp_path, csv_path=data, total_epochs=1, hidden=4)
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    assert reads == [str(data)]


def assert_usage_error(argv, capsys, code=1):
    """main exits with code and a one-line error message, not a traceback."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_policy_bins_below_two_exit_1(tmp_path, snapshot_path, capsys):
    assert_usage_error(["train", "--config", str(train_config(tmp_path, policy_bins=1))], capsys)
    assert_usage_error(["analyze", str(snapshot_path), "--bins", "1", "--out-dir", str(tmp_path)], capsys)


def test_optimizer_out_of_range_exit_1(tmp_path, capsys):
    for key, value in (("batch_size", 0), ("momentum", -0.5), ("momentum", 1.0), ("weight_decay", -1e-4)):
        cfg = train_config(tmp_path, **{key: value})
        assert_usage_error(["train", "--config", str(cfg)], capsys)


def test_conv_input_without_a_conv_stem_exit_1(tmp_path, capsys):
    # a dense model would train on dim = 6 and never read the 1x8x8 input shape
    cfg = train_config(tmp_path, dim=6, hidden=8, classes=3, samples=60, total_epochs=1, conv_input="1x8x8")
    err = assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], capsys)
    assert "conv_input" in err and "conv_stem" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "stem, message",
    [
        (dict(dim=60), "conv_input 1x8x8 holds 64 features but the input has 60"),
        (dict(conv_stem="2x3x3x3"), "conv block 0 expects 3 input channels, previous stage has 1"),
        (dict(conv_stem="2x1x3x3,4x1x3x3"), "conv block 1 expects 1 input channels, previous stage has 2"),
        (dict(conv_stem="2x1x9x3"), "conv block 0 kernel (9x3) larger than its input"),
        (dict(conv_stem="2x1x3x3,2x2x7x7"), "conv block 1 kernel (7x7) larger than its input"),
        (dict(conv_stem="0x1x3x3"), "conv block 0 sizes must be positive"),
        (dict(conv_input="-1x-8x8"), "conv_input sizes must be positive, got (-1, -8, 8)"),
    ],
    ids=["volume", "channels", "channels_second_block", "kernel", "kernel_second_block", "size", "input_size"],
)
def test_conv_stem_that_cannot_read_its_input_exit_1(tmp_path, capsys, stem, message):
    cfg = train_config(
        tmp_path, **{"dim": 64, "conv_stem": "2x1x3x3", "conv_input": "1x8x8", "classes": 3, "total_epochs": 1, **stem}
    )
    err = assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], capsys)
    assert message in err
    assert not (tmp_path / "run").exists()


def test_conv_stem_reads_the_csv_features(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b,c,d,label\n" + "".join(f"{i % 3},{i % 2},{i % 5},{i % 7},{i % 2}\n" for i in range(40)))

    def config(conv_input):
        stem = dict(conv_stem="3x1x2x2", conv_input=conv_input)
        return str(train_config(tmp_path, csv_path=data, hidden=4, total_epochs=1, **stem))

    err = assert_usage_error(["train", "--config", config("1x3x3")], capsys)
    assert "conv_input 1x3x3 holds 9 features but the input has 4" in err
    assert main(["train", "--config", config("1x2x2"), "--out-dir", str(tmp_path / "run")]) == 0
    shapes = {layer.name: layer.values.shape for layer in load_snapshot(str(tmp_path / "run" / "final.wsnp")).layers}
    assert shapes == {"conv0": (3, 1, 2, 2), "dense0": (4, 3), "dense1": (2, 4)}


def test_train_split_leaving_an_empty_set_exit_2(tmp_path, capsys):
    cfg = train_config(tmp_path, samples=2, split=0.4)
    err = assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], capsys, code=2)
    assert "train set of 0 rows" in err


def test_negative_lambda_sr_exit_1(tmp_path, capsys):
    cfg = train_config(tmp_path, lambda_sr=-0.1)
    err = assert_usage_error(["train", "--config", str(cfg)], capsys)
    assert "lambda_sr must be finite and nonnegative, got -0.1" in err


def test_rate_range_must_contain_the_global_rate_exit_1(tmp_path, capsys):
    # excluded and fallback layers ride eta_t, so [s1, s2] must hold 1
    for s1, s2 in ((2.0, 3.0), (0.2, 0.8)):
        cfg = train_config(tmp_path, s1=s1, s2=s2)
        assert "0 < s1 <= 1 <= s2" in assert_usage_error(["train", "--config", str(cfg)], capsys)


def test_float_keys_reject_non_finite_exit_1(tmp_path, capsys):
    for key, value in (("eta0", "nan"), ("weight_decay", "nan"), ("s2", "inf"), ("lambda_sr", "-inf")):
        cfg = train_config(tmp_path, **{key: value})
        assert f"key {key}" in assert_usage_error(["train", "--config", str(cfg)], capsys)


def test_empty_conv_stem_trains_a_dense_model(tmp_path):
    cfg = train_config(tmp_path, conv_stem="", total_epochs=1)
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    assert load_snapshot(str(tmp_path / "run" / "final.wsnp")).layer_names() == ["dense0", "dense1", "dense2"]


def test_unknown_metric_exit_1(tmp_path, capsys):
    cfg = train_config(tmp_path, metric="alpha_mean")
    err = assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], capsys)
    assert "unknown metric 'alpha_mean'" in err
    assert not (tmp_path / "run").exists()


def test_csv_path_that_cannot_be_opened_exit_2(tmp_path, capsys):
    cfg = train_config(tmp_path, csv_path=tmp_path / "missing.csv", total_epochs=1)
    err = assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], capsys, code=2)
    assert "cannot open dataset" in err and "missing.csv" in err
    assert not (tmp_path / "run").exists()


def test_negative_seed_exit_1(tmp_path, capsys):
    assert_usage_error(["train", "--config", str(train_config(tmp_path, seed=-1))], capsys)
    assert_usage_error(["train", "--config", str(train_config(tmp_path)), "--seed", "-1"], capsys)
    assert_usage_error(["rmt", "--q", "16", "--s", "1.0", "--seed", "-1"], capsys)


def test_csv_non_finite_feature_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rows = ["a,b,label"] + [f"{i % 2 * 3.0},{i % 2},{i % 2}" for i in range(40)]
    rows[7] = "nan,1,1"
    rows[12] = "0,inf,0"
    data.write_text("\n".join(rows) + "\n")
    cfg = train_config(tmp_path, csv_path=data, total_epochs=1, hidden=4)
    assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], capsys, code=2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("label\na\nb\n", "no feature columns"),
        ("a,b,label\n1,2,x\n3,y\n", "row 2 has 2 fields, expected 3"),
        ("a,b,label\n", "no data rows"),
        ("a,label\n1,x\n2,x\n", "need at least 2 classes, got 1"),
    ],
)
def test_csv_defect_exit_2(tmp_path, capsys, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    cfg = train_config(tmp_path, csv_path=data, total_epochs=1, hidden=4)
    assert message in assert_usage_error(["train", "--config", str(cfg)], capsys, code=2)


def test_csv_split_out_of_range_exit_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,label\n" + "".join(f"{i},{i % 2}\n" for i in range(10)))
    cfg = train_config(tmp_path, csv_path=data, split=1.5)
    assert "split must be in (0, 1), got 1.5" in assert_usage_error(["train", "--config", str(cfg)], capsys)


def test_a_config_with_a_leading_bom_trains_the_same(tmp_path, capsys):
    cfg = train_config(tmp_path, total_epochs=1, hidden=4)
    plain = cfg.read_bytes()
    finals = []
    for run, text in (("plain", plain), ("bom", b"\xef\xbb\xbf" + plain)):
        cfg.write_bytes(text)
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / run)]) == 0
        finals.append((tmp_path / run / "final.wsnp").read_bytes())
    assert finals[0] == finals[1]
    cfg.write_bytes(b"\xef\xbb\xbf\xff" + plain)
    assert_usage_error(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "bad")], capsys)


# ---------------------------------------------------------------------------
# rmt


def test_rmt_single_cell(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["rmt", "--q", "128", "--s", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Q,s,alpha_hill,alpha_pred,rel_err"
    q, s, alpha, pred, rel = lines[1].split(",")
    assert (q, s) == ("128", "1")
    assert float(rel) <= 0.15


def test_rmt_gate_failure_exit_3_names_the_worst_cell_and_writes_the_table(tmp_path, capsys, monkeypatch):
    from tempbal import cli

    monkeypatch.setattr(cli, "RMT_REL_ERR_TOL", 0.0)
    out = tmp_path / "table.csv"
    err = assert_usage_error(["rmt", "--q", "64", "--s", "1.0,2.0", "--out", str(out)], capsys, code=3)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    worst = max(rows, key=lambda row: float(row["rel_err"]))
    assert f"2 sweep cells exceed rel_err tolerance 0.0 (worst: Q=64 s={worst['s']} rel_err=" in err


def test_rmt_decay_past_roundoff_floor_exit_1(tmp_path, capsys):
    # at Q=1024 the median threshold 513^-s drops under 1024*eps past s = 4.665
    for s in ("5", "0.5:6:0.5"):
        err = assert_usage_error(["rmt", "--q", "1024", "--s", s], capsys)
        assert "need s < 4.665" in err
    # just inside the limit at Q=64 (9.119) the cell is still fitted
    out = tmp_path / "table.csv"
    assert main(["rmt", "--q", "64", "--s", "9", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("64,9,")


def test_rmt_accuracy_improves_with_size(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["rmt", "--q", "16,256", "--s", "0.5:3.0:0.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    small = [float(r[4]) for r in rows if r[0] == "16"]
    large = [float(r[4]) for r in rows if r[0] == "256"]
    assert np.mean(large) < np.mean(small)


def test_rmt_stdout_without_out(capsys):
    assert main(["rmt", "--q", "64", "--s", "1.0"]) == 0
    assert capsys.readouterr().out.startswith("Q,s,alpha_hill")


def test_rmt_empty_grid_exit_1(capsys):
    assert main(["rmt", "--q", "64", "--s", ""]) == 1
    assert main(["rmt", "--q", "", "--s", "1.0"]) == 1


def test_rmt_bad_range_exit_1(capsys):
    assert_usage_error(["rmt", "--q", "64", "--s", "3.0:1.0:0.5"], capsys)
    assert_usage_error(["rmt", "--q", "64", "--s", "a,b"], capsys)
    for q, s in (("64", "0.5:3.0"), ("64", "0.5:3.0:0.5:1"), ("16:64", "1.0"), ("64", "0.5::0.5")):
        assert "range must be start:stop:step" in assert_usage_error(["rmt", "--q", q, "--s", s], capsys)


def test_usage_error_exit_1():
    assert main(["frobnicate"]) == 1
    assert main(["train"]) == 1  # missing --config


def test_rmt_sizes_and_decays_out_of_range_exit_1(capsys):
    for q, s in (("4", "1.0"), ("0", "1.0"), ("-3", "1.0"), ("16", "0"), ("16", "0.5,0")):
        assert_usage_error(["rmt", "--q", q, "--s", s], capsys)


def test_rmt_non_finite_or_fractional_grid_exit_1(capsys):
    for q, s in (("64.7", "1.0"), ("nan", "1.0"), ("16", "inf"), ("16", "0.5:inf:0.5"), ("16", "nan:1:0.5")):
        assert_usage_error(["rmt", "--q", q, "--s", s], capsys)


def test_rmt_range_grid_capped():
    # 25 001 values: past the cap, rejected before any list is built
    with pytest.raises(ConfigError):
        _parse_grid("0.5:3.0:1e-4", "s")
    assert len(_parse_grid("0.5:3.0:1e-3", "s")) == 2501


def test_rmt_huge_range_exit_1(capsys):
    assert "0:1e9:1e-3" in assert_usage_error(["rmt", "--q", "64", "--s", "0:1e9:1e-3"], capsys)
    assert_usage_error(["rmt", "--q", "64", "--s", "0:1e300:1e-300"], capsys)


def test_rmt_size_above_limit_exit_1(capsys):
    # rejected before any matrix is allocated: an 8193 x 8193 cell would hold about 2.5 GiB
    for q in ("8193", "10000000000"):
        assert "[8, 8192]" in assert_usage_error(["rmt", "--q", q, "--s", "0.5"], capsys)


def test_rmt_checks_every_cell_before_computing_any(capsys, monkeypatch):
    from tempbal import rmt_lab

    built, frames = [], []
    synth, frame = rmt_lab.synth_pl_matrix, rmt_lab.random_frame
    monkeypatch.setattr(rmt_lab, "synth_pl_matrix", lambda spec, *args: built.append(spec) or synth(spec, *args))
    monkeypatch.setattr(rmt_lab, "random_frame", lambda size, seed: frames.append(size) or frame(size, seed))
    assert_usage_error(["rmt", "--q", "1024,8193", "--s", "0.5,1.5,3.0"], capsys)
    assert_usage_error(["rmt", "--q", "64,1024", "--s", "0.5,6.0"], capsys)
    assert built == []
    assert frames == []


def test_rmt_grid_of_commas_only_exit_1(capsys):
    # ',' parses to no value at all; rmt_lab's plan of the sweep rejects the empty grid
    assert "q grid must be nonempty" in assert_usage_error(["rmt", "--q", ",", "--s", "1.0"], capsys)
    assert "s grid must be nonempty" in assert_usage_error(["rmt", "--q", "64", "--s", ","], capsys)


def test_rmt_plans_each_size_once(monkeypatch, capsys):
    from tempbal import cli, rmt_lab

    planned = []
    plan = rmt_lab.sweep_specs

    def spy(size, *args, **kwargs):
        planned.append(size)
        return plan(size, *args, **kwargs)

    monkeypatch.setattr(rmt_lab, "sweep_specs", spy)
    monkeypatch.setattr(cli, "sweep_specs", spy, raising=False)
    assert main(["rmt", "--q", "64,128", "--s", "1.0"]) == 0
    assert planned == [64, 128]


def test_rmt_row_does_not_depend_on_the_rest_of_the_grid(tmp_path):
    rows = []
    for grid in ("2.0", "0.5,2.0", "2.0,0.5"):
        out = tmp_path / "table.csv"
        assert main(["rmt", "--q", "256", "--s", grid, "--seed", "3", "--out", str(out)]) == 0
        rows.append(next(line for line in out.read_text().splitlines() if line.startswith("256,2,")))
    assert rows[0] == rows[1] == rows[2]


def test_histogram_bins_above_limit_exit_1(tmp_path, snapshot_path, capsys):
    assert_usage_error(["train", "--config", str(train_config(tmp_path, policy_bins=10001))], capsys)
    assert_usage_error(["analyze", str(snapshot_path), "--bins", "10001", "--out-dir", str(tmp_path)], capsys)


# ---------------------------------------------------------------------------
# layer names in CSV cells


def named_snapshot(tmp_path, names):
    rng = np.random.default_rng(2)
    layers = tuple(LayerTensor(name, rng.normal(size=(6, 9))) for name in names)
    path = tmp_path / "named.wsnp"
    save_snapshot(WeightSnapshot(epoch=0, layers=layers), str(path))
    return path


def test_analyze_names_with_commas_and_quotes_read_back(tmp_path):
    names = ["fc,1", 'q"x', "plain"]
    out = tmp_path / "out"
    assert main(["analyze", str(named_snapshot(tmp_path, names)), "--out-dir", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["layer"] for row in rows] == names
    for row in rows:
        assert len(row) == 9 and None not in row.values(), row
        assert row["status"] == "ok" and row["n"] == "6"
    assert [layer for layer, _ in esd_groups(out)] == names


def assert_histograms_kept_apart(tmp_path, names):
    """analyze names no file after a layer: each layer's histogram is its own run of esd.csv rows, name intact."""
    out = tmp_path / "out"
    assert main(["analyze", str(named_snapshot(tmp_path, names)), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["esd.csv", "metrics.csv"]
    groups = esd_groups(out)
    assert [layer for layer, _ in groups] == names
    for _, rows in groups:
        assert len(rows) == 100 and sum(count for *_, count in rows) == 6


def test_analyze_histogram_file_names_do_not_collide(tmp_path):
    assert_histograms_kept_apart(tmp_path, ["a/b", "a b", "a_b"])  # a path separator, a space, an underscore


def test_analyze_long_layer_name_gets_a_bounded_histogram_file(tmp_path):
    assert_histograms_kept_apart(tmp_path, ["слой_" * 12])  # 108 UTF-8 bytes


def test_analyze_long_names_sharing_a_prefix_get_distinct_files(tmp_path):
    assert_histograms_kept_apart(tmp_path, ["x" * 300 + "a", "x" * 300 + "b", "short"])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeroed=st.sets(st.integers(0, 3)))
def test_esd_table_bins_every_positive_eigenvalue_of_each_layer(seed, zeroed):
    snap = random_snapshot(np.random.default_rng(seed))
    layers = tuple(
        LayerTensor(layer.name, np.zeros_like(layer.values)) if i in zeroed else layer
        for i, layer in enumerate(snap.layers)
    )
    positives = {layer.name: int(np.count_nonzero(compute_esd(layer).eigenvalues > 0)) for layer in layers}
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis runs every example in one tmp_path
        path = Path(tmp) / "random.wsnp"
        save_snapshot(WeightSnapshot(epoch=snap.epoch, layers=layers), str(path))
        for policy in POLICY_VARIANTS:
            out = Path(tmp) / policy
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", str(path), "--policy", policy, "--out-dir", str(out)]) == 0
            groups = esd_groups(out)
            # rows exactly for the layers with lambda_max > 0, in snapshot order, each layer in one run of rows
            assert [layer for layer, _ in groups] == [layer.name for layer in layers if positives[layer.name]]
            for layer, rows in groups:
                assert sum(count for *_, count in rows) == positives[layer]
                edges = [left for left, _, _ in rows] + [rows[-1][1]]
                assert all(a < b for a, b in zip(edges, edges[1:]))
                assert all(right == left for (_, right, _), (left, _, _) in zip(rows, rows[1:]))


# ---------------------------------------------------------------------------
# snapshot headers that declare more than the file holds


@pytest.mark.parametrize(
    "dims", [(2**32, 2**32), (2**63, 2), (2**20, 2**20)], ids=["product-wraps", "overflow", "8-TiB"]
)
def test_analyze_over_declared_layer_exit_2(tmp_path, capsys, dims):
    path = tmp_path / "big.wsnp"
    header = MAGIC + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 1) + b"x" + struct.pack("<I", 2)
    path.write_bytes(header + struct.pack("<2Q", *dims) + b"\x00" * 16)
    err = assert_usage_error(["analyze", str(path), "--out-dir", str(tmp_path)], capsys, code=2)
    assert "layer 0 ('x')" in err


def packed_snapshot(*layers) -> bytes:
    """Hand-packed .wsnp bytes, so a file can break rules the writer keeps: each layer is (name, ndims, dims, payload)."""
    raw = MAGIC + struct.pack("<III", 1, 0, len(layers))
    for name, ndims, dims, payload in layers:
        raw += struct.pack("<I", len(name)) + name + struct.pack(f"<I{len(dims)}Q", ndims, *dims) + payload
    return raw


GOOD_LAYERS = [(b"a", 2, (3, 4), np.arange(12.0).tobytes()), (b"b", 2, (4, 2), np.arange(8.0).tobytes())]


@pytest.mark.parametrize(
    "last",
    [
        (b"c", 2, (2, 3), b"\x00" * 40),  # the payload ends 8 bytes short
        (b"a", 2, (2, 3), b"\x00" * 48),  # a duplicate name
        (b"c", 3, (2, 2, 2), b"\x00" * 64),  # ndims 3
        (b"c", 2, (2**20, 2**20), b"\x00" * 16),  # 8 TiB declared
    ],
    ids=["truncated-payload", "duplicate-name", "bad-ndims", "over-declared"],
)
def test_analyze_of_a_file_bad_in_its_last_layer_writes_nothing(tmp_path, capsys, last):
    good = tmp_path / "good.wsnp"
    good.write_bytes(packed_snapshot(*GOOD_LAYERS))
    assert main(["analyze", str(good), "--out-dir", str(tmp_path / "good")]) == 0
    path = tmp_path / "bad.wsnp"
    path.write_bytes(packed_snapshot(*GOOD_LAYERS, last))
    with pytest.raises(SnapshotError):  # the whole layer table is checked before any layer is read
        load_snapshot(str(path))
    out = tmp_path / "out"
    assert_usage_error(["analyze", str(path), "--out-dir", str(out)], capsys, code=2)
    assert not out.exists()


def test_analyze_of_a_file_with_bytes_after_its_last_layer_exit_2(tmp_path, capsys):
    path = tmp_path / "tail.wsnp"
    path.write_bytes(packed_snapshot(GOOD_LAYERS[0]) + b"\x00" * 16)
    out = tmp_path / "out"
    err = assert_usage_error(["analyze", str(path), "--out-dir", str(out)], capsys, code=2)
    assert "16 bytes after the last layer" in err and not out.exists()
