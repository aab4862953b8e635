import dataclasses
import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempbal import train_engine
from tempbal.errors import ConfigError, DataError
from tempbal.esd import orient
from tempbal.htsr import LambdaMinPolicy
from tempbal.rmt_lab import PLSpectrumSpec, verify_s_alpha
from tempbal.scheduler import ScheduleConfig, ScheduleDecision, cal_rate, schedule_epoch
from tempbal.train_engine import (
    ACTIVATIONS,
    CsvDataSpec,
    CsvParseError,
    Dataset,
    DivergenceError,
    GaussianMixtureSpec,
    ModelSpec,
    OptimState,
    TELEMETRY_HEADER,
    TelemetryRow,
    accuracy,
    init_params,
    loss_and_grads,
    make_dataset,
    predict,
    run_training,
    sgd_step,
    snr_grad_term,
    write_table,
)
from tempbal.weight_store import LayerTensor, write_snapshot

# ---------------------------------------------------------------------------
# SGD


def test_vanilla_sgd_step():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    optim = OptimState(momentum=0.0, weight_decay=0.0)
    sgd_step(params, grads, {"w": np.zeros(1)}, optim, {"w": 0.1})
    assert params["w"][0] == pytest.approx(0.8, abs=1e-15)


def test_zero_gradient_scales_buffer():
    params = {"w": np.array([1.0])}
    velocity = {"w": np.array([2.0])}
    sgd_step(params, {"w": np.array([0.0])}, velocity, OptimState(momentum=0.9, weight_decay=0.0), {"w": 0.0})
    assert velocity["w"][0] == pytest.approx(1.8, abs=1e-15)
    assert params["w"][0] == 1.0


def test_two_step_momentum_oracle():
    # v1 = 1, w1 = -0.1; v2 = 0.9 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
    params = {"w": np.array([0.0])}
    velocity = {"w": np.zeros(1)}
    optim = OptimState(momentum=0.9, weight_decay=0.0)
    for _ in range(2):
        sgd_step(params, {"w": np.array([1.0])}, velocity, optim, {"w": 0.1})
    assert params["w"][0] == pytest.approx(-0.29, abs=1e-15)
    assert velocity["w"][0] == pytest.approx(1.9, abs=1e-15)


def test_per_layer_lr_honored_exactly():
    rng = np.random.default_rng(0)
    params = {"a.w": rng.normal(size=(3, 4)), "b.w": rng.normal(size=(2, 3))}
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    before = {k: v.copy() for k, v in params.items()}
    optim = OptimState(momentum=0.0, weight_decay=0.0)
    lrs = {"a.w": 0.05, "b.w": 0.2}
    sgd_step(params, grads, {k: np.zeros_like(v) for k, v in params.items()}, optim, lrs)
    for name in params:
        assert np.array_equal(params[name], before[name] - lrs[name] * grads[name])


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, {"w": np.zeros(3)}, OptimState(), {"w": 0.1})


def test_sgd_missing_lr():
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(3)}, {"w": np.zeros(3)}, {"w": np.zeros(3)}, OptimState(), {})


# ---------------------------------------------------------------------------
# spectral norm regularizer


def test_snr_diagonal_gradient():
    w = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    inc = snr_grad_term(LayerTensor("diag", w), 0.01)
    expected = np.zeros((2, 3))
    expected[0, 0] = 0.01 * 3.0
    assert np.allclose(inc, expected, atol=1e-9)


def test_snr_zero_coefficient():
    w = np.ones((4, 6))
    inc = snr_grad_term(LayerTensor("w", w), 0.0)
    assert inc.shape == (4, 6)
    assert not inc.any()


def test_snr_transposed_layer_gets_transposed_increment():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(10, 4))  # tall: orientation transposes
    layer = LayerTensor("tall", w)
    assert orient(layer) == (4, 10)
    inc = snr_grad_term(layer, 0.5)
    assert inc.shape == (10, 4)
    assert np.allclose(inc, snr_grad_term(LayerTensor("wide", w.T), 0.5).T, rtol=1e-12, atol=0)


def test_snr_finite_difference():
    rng = np.random.default_rng(2)
    lam_sr = 0.01
    for trial in range(3):
        w = rng.normal(size=(6, 10))
        inc = snr_grad_term(LayerTensor("w", w), lam_sr, tol=1e-11)

        def penalty(mat):
            return 0.5 * lam_sr * np.linalg.svd(mat, compute_uv=False)[0] ** 2

        h = 1e-6
        for _ in range(8):
            i, j = rng.integers(0, 6), rng.integers(0, 10)
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd = (penalty(wp) - penalty(wm)) / (2 * h)
            assert fd == pytest.approx(inc[i, j], rel=1e-4, abs=1e-10)


# ---------------------------------------------------------------------------
# datasets


def test_separable_gaussian_linear_model_perfect():
    spec = GaussianMixtureSpec(classes=2, dim=10, samples=400, spread=0.0, separation=4.0)
    data = make_dataset(spec, seed=0)
    # zero spread: every point sits on its class mean, so a least-squares
    # linear classifier separates the eval split perfectly
    x = np.hstack([data.x_train, np.ones((len(data.x_train), 1))])
    onehot = np.eye(2)[data.y_train]
    coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    x_eval = np.hstack([data.x_eval, np.ones((len(data.x_eval), 1))])
    pred = np.argmax(x_eval @ coef, axis=1)
    assert np.mean(pred == data.y_eval) == 1.0


def test_dataset_determinism():
    spec = GaussianMixtureSpec(classes=3, dim=6, samples=120)
    a = make_dataset(spec, seed=9)
    b = make_dataset(spec, seed=9)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_eval, b.y_eval)
    batches_a = [xb for xb, _ in a.batches(epoch=2, batch_size=32, seed=9)]
    batches_b = [xb for xb, _ in b.batches(epoch=2, batch_size=32, seed=9)]
    for xa, xb in zip(batches_a, batches_b):
        assert np.array_equal(xa, xb)


def test_dataset_epoch_shuffles_differ():
    spec = GaussianMixtureSpec(classes=2, dim=4, samples=64)
    data = make_dataset(spec, seed=1)
    e0 = np.concatenate([y for _, y in data.batches(0, 16, 1)])
    e1 = np.concatenate([y for _, y in data.batches(1, 16, 1)])
    assert not np.array_equal(e0, e1)


def _list_and_concatenate_dataset(spec: GaussianMixtureSpec, seed: int):
    """The per-class list construction make_dataset replaced, kept as its reference."""
    rng = np.random.default_rng([seed, 11])
    means = rng.normal(size=(spec.classes, spec.dim))
    means *= spec.separation / np.linalg.norm(means, axis=1, keepdims=True)
    counts = np.full(spec.classes, spec.samples // spec.classes)
    counts[: spec.samples % spec.classes] += 1
    xs, ys = [], []
    for cls in range(spec.classes):
        xs.append(means[cls] + spec.spread * rng.normal(size=(counts[cls], spec.dim)))
        ys.append(np.full(counts[cls], cls, dtype=np.int64))
    x, y = np.concatenate(xs), np.concatenate(ys)
    order = rng.permutation(len(x))
    return x[order], y[order]


@pytest.mark.parametrize(
    "spec, seed",
    [
        (GaussianMixtureSpec(), 0),
        (GaussianMixtureSpec(classes=7, dim=5, samples=1003, spread=0.3, separation=2.5, split=0.7), 41),
        (GaussianMixtureSpec(classes=10, dim=128, samples=2560, separation=6.0), 611),
        (GaussianMixtureSpec(classes=3, dim=4, samples=3, spread=0.0, split=0.5), 2),
    ],
)
def test_make_dataset_gives_the_list_and_concatenate_bytes(spec, seed):
    data = make_dataset(spec, seed)
    x, y = _list_and_concatenate_dataset(spec, seed)
    n_train = int(len(x) * spec.split)
    for got, want in ((data.x_train, x[:n_train]), (data.x_eval, x[n_train:])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for got, want in ((data.y_train, y[:n_train]), (data.y_eval, y[n_train:])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_csv_dataset(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n0.0,1.0,a\n1.0,0.0,b\n0.1,0.9,a\n0.9,0.1,b\n1,1,a\n")
    data = make_dataset(CsvDataSpec(path=str(path), label_column="label", split=0.8), seed=0)
    assert data.n_classes == 2
    assert data.dim == 2
    assert len(data.x_train) + len(data.x_eval) == 5


@pytest.mark.parametrize(
    "text",
    ["a,label\n1,x\n2,y\n3,x\n4,y\n\n", "a,label\n1,x\n2,y\n\n3,x\n4,y\n", "\na,label\n1,x\n2,y\n3,x\n\n\n4,y"],
    ids=["trailing", "middle", "leading_and_runs"],
)
def test_csv_blank_lines_are_skipped(tmp_path, text):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("a,label\n1,x\n2,y\n3,x\n4,y\n")
    blank.write_text(text)
    want, got = (make_dataset(CsvDataSpec(path=str(path), split=0.5), seed=3) for path in (plain, blank))
    for field in ("x_train", "y_train", "x_eval", "y_eval", "n_classes"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_csv_blank_lines_leave_row_numbers_and_the_empty_file_rule(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,a\n\nx,b\n")  # the second data row is on line 4
    with pytest.raises(CsvParseError, match="non-numeric feature at row 2"):
        make_dataset(CsvDataSpec(path=str(path)), seed=0)
    path.write_text("\n\n\n")
    with pytest.raises(CsvParseError, match="empty file"):
        make_dataset(CsvDataSpec(path=str(path)), seed=0)


@st.composite
def csv_files(draw):
    """A CSV with a text label column, blank lines, any line end and `,` or `, ` between fields.

    Returns (rows -> bytes, the rows, features, labels).
    """
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=2, max_size=4, unique=True))
    extra = draw(st.lists(st.sampled_from(names), max_size=8))
    labels = draw(st.permutations(names + extra))  # each name at least once
    finite = st.floats(allow_nan=False, allow_infinity=False)
    features = [draw(st.lists(finite, min_size=width, max_size=width)) for _ in labels]
    label_at = draw(st.integers(0, width))
    header = [f"f{i}" for i in range(width)]
    header.insert(label_at, "label")
    rows = [header]
    for values, label in zip(features, labels):
        rows.append(list(map(repr, values)))
        rows[-1].insert(label_at, label)
    # blank lines before each row and after the last
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(rows) + 1, max_size=len(rows) + 1))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    sep = draw(st.sampled_from([",", ", "]))

    def raw(rows):
        lines = [line for before, row in zip(blanks, rows) for line in [""] * before + [sep.join(row)]]
        return (bom + "".join(line + end for line in lines + [""] * blanks[-1])).encode("utf-8")

    return raw, rows, features, labels


@settings(max_examples=80)
@given(csv_files(), st.data())
def test_load_csv_reads_every_written_value(tmp_path_factory, generated, data):
    raw, rows, features, labels = generated
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(raw(rows))
    x, y = train_engine._load_csv(CsvDataSpec(path=str(path)))
    assert x.tolist() == features
    assert y.tolist() == [sorted(set(labels)).index(label) for label in labels]
    # a row one field short is named by its data-row number, blank lines not counted
    short = data.draw(st.integers(1, len(rows) - 1))
    path.write_bytes(raw([*rows[:short], rows[short][:-1], *rows[short + 1:]]))
    with pytest.raises(CsvParseError, match=f"row {short} has {len(rows[0]) - 1} fields, expected {len(rows[0])}"):
        train_engine._load_csv(CsvDataSpec(path=str(path)))


def test_hand_built_dataset_checks_its_splits():
    x, y = np.zeros((4, 3)), np.array([0, 1, 0, 1])
    splits = {
        "train set of 0 rows and 0 labels": (x[:0], y[:0], x, y),
        "eval set of 0 rows and 0 labels": (x, y, x[:0], y[:0]),
        "train set of 4 rows and 3 labels": (x, y[:3], x, y),
        "eval set of 3 rows and 4 labels": (x, y, x[:3], y),
    }
    for message, (x_train, y_train, x_eval, y_eval) in splits.items():
        with pytest.raises(DataError, match=message):
            Dataset(x_train, y_train, x_eval, y_eval, n_classes=2)
    data = Dataset(x[:1], y[:1], x[1:], y[1:], n_classes=2)
    assert (len(data.x_train), len(data.x_eval)) == (1, 3)


def test_hand_built_dataset_checks_its_rows_and_labels():
    x, y = np.zeros((4, 3)), np.array([0, 1, 0, 1])
    labels = r"labels must be a 1-D array of integers in \[0, 2\)"
    one_nan, one_inf = x.copy(), x.copy()
    one_nan[2, 1], one_inf[3, 0] = np.nan, -np.inf
    splits = [
        (r"train set of shape \(4,\)", (np.zeros(4), y, x, y)),  # was an IndexError in Dataset.dim
        (r"eval set of shape \(4, 2\)", (x, y, np.zeros((4, 2)), y)),
        (r"eval set of shape \(4, 3, 1\)", (x, y, x[..., None], y)),
        ("train " + labels, (x, np.array([0, 1, 0, 5]), x, y)),  # was an IndexError in _softmax_ce
        ("eval " + labels, (x, y, x, np.array([0, -1, 0, 1]))),
        ("train " + labels, (x, y.astype(float), x, y)),
        ("eval " + labels, (x, y, x, y[:, None])),
        # a NaN let through would end as a DivergenceError (exit 3), blaming the run for its data
        ("train set holds a non-finite", (one_nan, y, x, y)),
        ("eval set holds a non-finite", (x, y, one_inf, y)),
        ("train set holds a non-finite or non-numeric feature", (x.astype(str), y, x, y)),
    ]
    for message, (x_train, y_train, x_eval, y_eval) in splits:
        with pytest.raises(DataError, match=message):
            Dataset(x_train, y_train, x_eval, y_eval, n_classes=2)
    data = Dataset(x, y.astype(np.uint8), x[:1], y[:1], n_classes=2)
    assert data.dim == 3


def test_csv_missing_label_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,a\n2.0,\n3.0,b\n")
    with pytest.raises(CsvParseError, match="row 2"):
        make_dataset(CsvDataSpec(path=str(path), label_column="label"), seed=0)


def test_csv_non_numeric_feature(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,a\nx,b\n")
    with pytest.raises(CsvParseError, match="row 2"):
        make_dataset(CsvDataSpec(path=str(path), label_column="label"), seed=0)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(CsvParseError, match="label"):
        make_dataset(CsvDataSpec(path=str(path), label_column="label"), seed=0)


def test_gaussian_spec_validation():
    with pytest.raises(ConfigError):
        GaussianMixtureSpec(classes=1)
    with pytest.raises(ConfigError):
        GaussianMixtureSpec(classes=3, samples=2)
    with pytest.raises(ConfigError):
        GaussianMixtureSpec(split=1.0)
    for sizes in (dict(spread=-0.5), dict(separation=-1.0)):
        with pytest.raises(ConfigError, match="spread and separation must be finite and nonnegative"):
            GaussianMixtureSpec(**sizes)


def test_optim_state_validation():
    with pytest.raises(ConfigError):
        OptimState(batch_size=0)
    with pytest.raises(ConfigError):
        OptimState(momentum=-0.5)
    with pytest.raises(ConfigError):
        OptimState(weight_decay=float("nan"))


def test_optim_state_is_frozen():
    optim = OptimState()
    for name in ("momentum", "weight_decay", "batch_size"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(optim, name, getattr(optim, name))
    assert [f.name for f in dataclasses.fields(OptimState)] == ["momentum", "weight_decay", "batch_size"]


def test_csv_non_finite_feature_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("f0,label\n1.0,a\nnan,b\n")
    with pytest.raises(CsvParseError, match="row 2"):
        make_dataset(CsvDataSpec(path=str(path)), seed=0)


# ---------------------------------------------------------------------------
# gradients


def relu_pattern(params, spec, x):
    """Which hidden activations are positive: a ReLU net is smooth wherever this stays fixed."""
    cache = train_engine._forward(params, spec, x)[1]
    # each layer's activation but the logits: every conv block's, then each hidden dense layer's
    return [out > 0 for _, _, out in cache[:-1]]


def grad_check(spec: ModelSpec, init_seed: int, seed: int, coords: int = 16, rel_tol: float = 1e-4):
    rng = np.random.default_rng(seed)
    params = init_params(spec, init_seed)
    x = rng.normal(size=(8, spec.widths[0]))
    y = rng.integers(0, spec.widths[-1], size=8)
    _, grads = loss_and_grads(params, spec, x, y)
    h = 1e-5
    checked = 0
    while checked < coords:
        name = list(params)[int(rng.integers(0, len(params)))]
        flat = params[name].reshape(-1)
        i = int(rng.integers(0, flat.size))
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = loss_and_grads(params, spec, x, y)
        pattern_p = relu_pattern(params, spec, x)
        flat[i] = orig - h
        lm, _ = loss_and_grads(params, spec, x, y)
        pattern_m = relu_pattern(params, spec, x)
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        an = grads[name].reshape(-1)[i]
        if max(abs(fd), abs(an)) < 1e-8:
            continue  # skip numerically dead coordinates
        if spec.activation == "relu" and any(np.any(p != m) for p, m in zip(pattern_p, pattern_m)):
            continue  # the step crosses a ReLU kink, where the loss has no derivative
        assert an == pytest.approx(fd, rel=rel_tol), f"{name}[{i}]"
        checked += 1


def test_dense_tanh_gradients():
    grad_check(ModelSpec(widths=(6, 8, 4, 3), activation="tanh"), init_seed=0, seed=10)


def test_dense_relu_gradients():
    grad_check(ModelSpec(widths=(6, 8, 4, 3), activation="relu"), init_seed=1, seed=11)


def test_conv_stem_gradients():
    spec = ModelSpec(
        widths=(16, 6, 3),
        activation="tanh",
        conv_stem=((2, 1, 3, 3),),
        conv_input=(1, 4, 4),
    )
    grad_check(spec, init_seed=2, seed=12)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_backward_scatters_patch_gradients_for_every_conv_block_but_the_first(monkeypatch, blocks):
    # the first layer's input gradient feeds nothing, so conv0's patch gradients are never laid back onto x
    calls = []
    col2im = train_engine._col2im
    monkeypatch.setattr(train_engine, "_col2im", lambda *args: calls.append(args[1]) or col2im(*args))
    stem = ((2, 1, 2, 2),) + ((2, 2, 2, 2),) * (blocks - 1)
    spec = ModelSpec(widths=(64, 4, 3), conv_stem=stem, conv_input=(1, 8, 8))
    x = np.random.default_rng(0).normal(size=(5, 64))
    loss_and_grads(init_params(spec, 1), spec, x, np.arange(5) % 3)
    assert len(calls) == len(spec.conv_stem) - 1
    assert all(shape[1:] != (1, 8, 8) for shape in calls)


def test_weight_shapes_name_and_order_every_layer():
    spec = ModelSpec(widths=(36, 5, 3), conv_stem=((4, 1, 3, 3), (2, 4, 3, 3)), conv_input=(1, 6, 6))
    shapes = {"conv0": (4, 1, 3, 3), "conv1": (2, 4, 3, 3), "dense0": (5, 8), "dense1": (3, 5)}
    assert spec.layers == tuple(shapes.items())
    params = init_params(spec, 0)
    assert list(params) == [f"{name}.{kind}" for name in shapes for kind in "wb"]
    assert all(params[f"{name}.w"].shape == shape for name, shape in shapes.items())


def test_training_reads_the_layer_table_its_spec_built(monkeypatch):
    # the stem is walked once, when the spec is built: a run reads spec.layers and builds no spec of its own
    kwargs = dict(widths=(36, 5, 3), conv_stem=((4, 1, 3, 3), (2, 4, 3, 3)), conv_input=(1, 6, 6))
    spec = ModelSpec(**kwargs)
    walks = []
    post_init = ModelSpec.__post_init__
    monkeypatch.setattr(ModelSpec, "__post_init__", lambda self: walks.append(self) or post_init(self))
    data = GaussianMixtureSpec(classes=3, dim=36, samples=60)
    sched = ScheduleConfig(eta0=0.05, total_epochs=2, update_interval_iters=2)
    optim = OptimState(batch_size=16)
    telem, final = run_training(spec, data, sched, LambdaMinPolicy(), lambda_sr=0.01, seed=3, optim=optim)
    assert walks == []
    assert [(layer.name, layer.values.shape) for layer in final.layers] == list(spec.layers)
    assert {row.layer for row in telem.rows} == {name for name, _ in spec.layers} | {"_epoch_"}
    twin = ModelSpec(**kwargs)
    assert len(walks) == 1 and walks[0] is twin  # the spy sees a walk
    object.__setattr__(twin, "layers", ())
    assert twin == spec and hash(twin) == hash(spec) and "layers" not in repr(spec)


@st.composite
def random_models(draw):
    """A small model and its init seed: random dense widths, relu or tanh, and a 1-2 block conv stem or none."""
    activation = draw(st.sampled_from(("relu", "tanh")))
    seed = draw(st.integers(0, 2**32 - 1))
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    classes = draw(st.integers(2, 4))
    blocks = draw(st.integers(0, 2))
    if not blocks:
        return ModelSpec(widths=(draw(st.integers(1, 8)), *hidden, classes), activation=activation), seed
    conv_input = (draw(st.integers(1, 2)), draw(st.integers(3, 5)), draw(st.integers(3, 5)))
    c, h, w = conv_input
    stem = []
    for _ in range(blocks):
        block = (draw(st.integers(1, 3)), c, draw(st.integers(1, min(3, h))), draw(st.integers(1, min(3, w))))
        stem.append(block)
        c, h, w = block[0], h - block[2] + 1, w - block[3] + 1
    return ModelSpec(
        widths=(math.prod(conv_input), *hidden, classes), activation=activation,
        conv_stem=tuple(stem), conv_input=conv_input,
    ), seed


@settings(max_examples=60)
@given(random_models(), st.integers(0, 2**32 - 1))
def test_gradients_match_central_differences_on_random_models(model, seed):
    spec, init_seed = model
    grad_check(spec, init_seed, seed, coords=8)


# A reference forward and backward pass, written plainly: each hidden layer caches its pre-activation z next to
# its activation, the bias is added into a new array, and relu's derivative is a float copy of the mask z > 0.
# loss_and_grads, which keeps only what backward reads and works in place, must match it bit for bit.


def reference_act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def reference_act_grad(z, a, kind):
    return (z > 0).astype(np.float64) if kind == "relu" else 1.0 - a * a


def reference_forward(params, spec, x):
    cache = {"conv": [], "dense": []}
    a = x
    if spec.conv_stem:
        c, h, w = spec.conv_input
        a = a.reshape(-1, c, h, w)
        for idx, (out, cin, kh, kw) in enumerate(spec.conv_stem):
            wmat = params[f"conv{idx}.w"].reshape(out, cin * kh * kw)
            cols = train_engine._im2col(a, kh, kw)
            hp, wp = a.shape[2] - kh + 1, a.shape[3] - kw + 1
            z = (cols @ wmat.T + params[f"conv{idx}.b"]).reshape(a.shape[0], hp, wp, out)
            z = z.transpose(0, 3, 1, 2)
            act = reference_act(z, spec.activation)
            cache["conv"].append((a.shape, cols, z, act))
            a = act
        a = a.reshape(a.shape[0], -1)
    n_dense = len(spec.widths) - 1
    for idx in range(n_dense):
        w = params[f"dense{idx}.w"]
        z = a @ w.T + params[f"dense{idx}.b"]
        if idx < n_dense - 1:
            act = reference_act(z, spec.activation)
        else:
            act = z
        cache["dense"].append((a, z, act))
        a = act
    return a, cache


def reference_loss_and_grads(params, spec, x, y):
    logits, cache = reference_forward(params, spec, x)
    loss, delta = train_engine._softmax_ce(logits, y)
    grads = {}
    n_dense = len(spec.widths) - 1
    for idx in range(n_dense - 1, -1, -1):
        a_in, z, act = cache["dense"][idx]
        if idx < n_dense - 1:
            delta = delta * reference_act_grad(z, act, spec.activation)
        grads[f"dense{idx}.w"] = delta.T @ a_in
        grads[f"dense{idx}.b"] = delta.sum(axis=0)
        if idx > 0 or spec.conv_stem:
            delta = delta @ params[f"dense{idx}.w"]
    if spec.conv_stem:
        delta = delta.reshape(cache["conv"][-1][3].shape)
        for idx in range(len(spec.conv_stem) - 1, -1, -1):
            out, cin, kh, kw = spec.conv_stem[idx]
            x_shape, cols, z, act = cache["conv"][idx]
            delta = delta * reference_act_grad(z, act, spec.activation)
            dflat = delta.transpose(0, 2, 3, 1).reshape(-1, out)
            grads[f"conv{idx}.w"] = (dflat.T @ cols).reshape(out, cin, kh, kw)
            grads[f"conv{idx}.b"] = dflat.sum(axis=0)
            wmat = params[f"conv{idx}.w"].reshape(out, cin * kh * kw)
            delta = train_engine._col2im(dflat @ wmat, x_shape, kh, kw)
    return loss, grads


@settings(max_examples=60)
@given(random_models(), st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_loss_and_grads_are_the_reference_bytes(model, seed, rows):
    spec, init_seed = model
    rng = np.random.default_rng(seed)
    params = init_params(spec, init_seed)
    for name in params:
        if name.endswith(".b"):  # init leaves every bias 0, which would hide how it is added
            params[name] = rng.normal(size=params[name].shape)
    x = rng.normal(size=(rows, spec.widths[0]))
    y = rng.integers(0, spec.widths[-1], size=rows)
    loss, grads = loss_and_grads(params, spec, x, y)
    want_loss, want = reference_loss_and_grads(params, spec, x, y)
    assert loss == want_loss
    assert sorted(grads) == sorted(want) == sorted(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape and np.array_equal(g, want[name]), name


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_loss_and_grads_holds_one_activation_per_hidden_layer(activation):
    # the train_refresh model at batch 128: besides the gradients, the forward pass holds each hidden layer's
    # activation once, and backward holds a few deltas and derivative temporaries of one layer's size; a cached
    # pre-activation, a float relu mask or a bias-add temporary adds most of another set of activations
    spec = ModelSpec(widths=(128, 256, 256, 128, 10), activation=activation)
    params = init_params(spec, 0)
    rng = np.random.default_rng(0)
    batch = 128
    x, y = rng.normal(size=(batch, 128)), rng.integers(0, 10, size=batch)
    loss_and_grads(params, spec, x, y)  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        loss_and_grads(params, spec, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.nbytes for p in params.values())
    activations = batch * sum(spec.widths[1:-1]) * 8
    assert (peak - grad_bytes) / activations < 2.2


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(widths=(4, 2))
    with pytest.raises(ConfigError, match="conv_input"):
        ModelSpec(widths=(4, 2, 2), conv_input=(1, 2, 2))  # no stem would read it
    with pytest.raises(ConfigError):
        ModelSpec(widths=(4, 2, 2), activation="gelu")
    with pytest.raises(ConfigError):
        ModelSpec(widths=(4, 2, 2), conv_stem=((2, 1, 3, 3),))
    with pytest.raises(ConfigError, match="unknown init scheme 'lecun'"):
        ModelSpec(widths=(4, 2, 2), init="lecun")
    # widths[0] is the input's features, which a stem reads as conv_input: 1x4x4 holds 16, not the 8 it flattens to
    with pytest.raises(ConfigError, match="conv_input 1x4x4 holds 16 features but the input has 8"):
        ModelSpec(widths=(8, 2, 2), conv_stem=((2, 1, 3, 3),), conv_input=(1, 4, 4))
    stem_errors = {
        ((2, 2, 3, 3),): "conv block 0 expects 2 input channels, previous stage has 1",
        ((2, 1, 3, 3), (2, 1, 1, 1)): "conv block 1 expects 1 input channels, previous stage has 2",
        ((2, 1, 5, 1),): r"conv block 0 kernel \(5x1\) larger than its input",  # 4 - 5 + 1 = 0 rows left
        ((2, 1, 1, 5),): r"conv block 0 kernel \(1x5\) larger than its input",
        ((2, 1, 3, 3), (2, 2, 3, 3)): r"conv block 1 kernel \(3x3\) larger than its input",
    }
    for stem, message in stem_errors.items():
        with pytest.raises(ConfigError, match=message):
            ModelSpec(widths=(16, 2, 2), conv_stem=stem, conv_input=(1, 4, 4))


def test_conv_input_sizes_must_be_positive():
    # -1 x -8 x 8 holds the 64 features of widths[0], so only a rule on the sizes themselves names the fault
    for conv_input in ((-1, -8, 8), (1, 0, 8), (1, 8, -8)):
        with pytest.raises(ConfigError, match="conv_input sizes must be positive"):
            ModelSpec(widths=(64, 4, 2), conv_stem=((2, 1, 3, 3),), conv_input=conv_input)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ScheduleConfig(eta0=NAN, total_epochs=1), id="eta0-nan"),
        pytest.param(lambda: ScheduleConfig(eta0=INF, total_epochs=1), id="eta0-inf"),
        pytest.param(lambda: ScheduleConfig(eta0=0.1, total_epochs=1, s2=INF), id="s2-inf"),
        pytest.param(lambda: GaussianMixtureSpec(spread=NAN), id="spread-nan"),
        pytest.param(lambda: GaussianMixtureSpec(separation=INF), id="separation-inf"),
        pytest.param(lambda: OptimState(weight_decay=INF), id="weight_decay-inf"),
        pytest.param(
            lambda: run_training(
                ModelSpec(widths=(4, 3, 2)), GaussianMixtureSpec(dim=4, samples=8), ScheduleConfig(0.1, 1),
                LambdaMinPolicy(), lambda_sr=NAN,
            ),
            id="lambda_sr-nan",
        ),
        pytest.param(lambda: PLSpectrumSpec(size=8, decay=NAN), id="decay-nan"),
        pytest.param(lambda: PLSpectrumSpec(size=8, decay=1.0, lambda1=NAN), id="lambda1-nan"),
        pytest.param(lambda: verify_s_alpha([64], [NAN]), id="sweep-s-nan"),
    ],
)
def test_range_checks_refuse_non_finite_values(build):
    # each rule is written so that NaN, which fails every comparison, and inf fall outside it
    with pytest.raises(ConfigError):
        build()


def _train_epochs(epochs):
    model, data = ModelSpec(widths=(4, 3, 2)), GaussianMixtureSpec(dim=4, samples=8)
    telemetry, _ = run_training(model, data, ScheduleConfig(0.1, 3), LambdaMinPolicy(), epochs=epochs)
    return len(telemetry.epoch_rows())


@pytest.mark.parametrize(
    "build, read",
    [
        pytest.param(lambda v: LambdaMinPolicy("fixfinger", v), lambda p: p.histogram_bins, id="histogram_bins"),
        pytest.param(lambda v: OptimState(batch_size=v), lambda o: o.batch_size, id="batch_size"),
        pytest.param(lambda v: ScheduleConfig(0.1, total_epochs=v), lambda c: c.total_epochs, id="total_epochs"),
        pytest.param(lambda v: ScheduleConfig(0.1, 4, start_epoch=v), lambda c: c.start_epoch, id="start_epoch"),
        pytest.param(
            lambda v: ScheduleConfig(0.1, 4, update_interval_iters=v), lambda c: c.update_interval_iters,
            id="update_interval_iters",
        ),
        pytest.param(lambda v: GaussianMixtureSpec(classes=v), lambda g: g.classes, id="classes"),
        pytest.param(lambda v: GaussianMixtureSpec(dim=v), lambda g: g.dim, id="dim"),
        pytest.param(lambda v: GaussianMixtureSpec(samples=v), lambda g: g.samples, id="samples"),
        pytest.param(_train_epochs, lambda epochs_run: epochs_run, id="epochs"),
    ],
)
def test_integer_fields_take_whole_numbers_only(build, read):
    # a fraction is a ConfigError, not numpy's TypeError deep in a run; a whole float reads as its int
    with pytest.raises(ConfigError, match="must be an integer, got 2.5"):
        build(2.5)
    value = read(build(2.0))
    assert value == 2 and type(value) is int


def test_model_spec_sizes_are_integers():
    with pytest.raises(ConfigError, match="width must be an integer, got 8.5"):
        ModelSpec(widths=(8.5, 4, 2))
    with pytest.raises(ConfigError, match="conv block size must be an integer, got 2.5"):
        ModelSpec(widths=(16, 4, 2), conv_stem=((2.5, 1, 3, 3),), conv_input=(1, 4, 4))
    with pytest.raises(ConfigError, match="conv_input size must be an integer, got 4.5"):
        ModelSpec(widths=(16, 4, 2), conv_stem=((2, 1, 3, 3),), conv_input=(1, 4.5, 4))
    spec = ModelSpec(widths=(16.0, 4, np.int64(2)), conv_stem=((2.0, 1, 3, 3),), conv_input=(1.0, 4, 4))
    assert spec == ModelSpec(widths=(16, 4, 2), conv_stem=((2, 1, 3, 3),), conv_input=(1, 4, 4))
    values = [*spec.widths, *spec.conv_stem[0], *spec.conv_input]
    assert all(type(v) is int for v in values)


# ---------------------------------------------------------------------------
# evaluation


CONV_SPEC = ModelSpec(widths=(25, 12, 4), conv_stem=((2, 1, 3, 3),), conv_input=(1, 5, 5))


@pytest.mark.parametrize(
    "spec, init_seed", [(ModelSpec(widths=(6, 16, 8, 5)), 4), (CONV_SPEC, 3)], ids=["dense", "conv"]
)
@pytest.mark.parametrize("rows, batch_size", [(301, 64), (301, 1), (64, 64), (40, 128)])
def test_chunked_predict_is_the_whole_set_argmax(spec, init_seed, rows, batch_size):
    params = init_params(spec, init_seed)
    x = np.random.default_rng(rows).normal(size=(rows, spec.widths[0]))
    whole = np.argmax(train_engine._forward(params, spec, x)[0], axis=1)
    assert np.array_equal(predict(params, spec, x, batch_size), whole)


def test_accuracy_memory_tracks_the_batch_not_the_eval_set():
    spec = ModelSpec(widths=(64, 256, 256, 10))
    params = init_params(spec, 0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8192, 64)), rng.integers(0, 10, size=8192)
    batch_size = 128
    # 12 activations of one chunk at the widest layer: about 3 MiB; the
    # whole-set forward pass with its backward cache peaks at about 65 MiB
    bound = 12 * batch_size * max(spec.widths) * 8
    tracemalloc.start()
    try:
        acc = accuracy(params, spec, x, y, batch_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc == np.mean(np.argmax(train_engine._forward(params, spec, x)[0], axis=1) == y)
    assert peak < bound


# ---------------------------------------------------------------------------
# full runs


def quick_setup(assignment="tempbalance", **sched_kw):
    model = ModelSpec(widths=(12, 16, 12, 8, 2))
    data = GaussianMixtureSpec(classes=2, dim=12, samples=300, separation=6.0)
    sched = ScheduleConfig(eta0=0.1, total_epochs=8, assignment=assignment, **sched_kw)
    return model, data, sched


def test_zero_epochs_is_noop():
    model, data, sched = quick_setup()
    telem, final = run_training(model, data, sched, LambdaMinPolicy(), epochs=0, seed=0)
    assert telem.rows == []
    init = init_params(model, 0)
    for layer in final.layers:
        assert np.array_equal(layer.values, init[f"{layer.name}.w"])


def test_one_seed_draws_the_initial_weights_and_the_batch_order(monkeypatch):
    # the data is built once, so only the run's seed can tell the runs apart
    model = ModelSpec(widths=(12, 16, 12, 8, 2))
    data = make_dataset(GaussianMixtureSpec(classes=2, dim=12, samples=300, separation=6.0), 0)
    sched = ScheduleConfig(eta0=0.1, total_epochs=2)

    def final_bytes(seed, epochs=2):
        _, final = run_training(model, data, sched, LambdaMinPolicy(), epochs=epochs, seed=seed)
        buf = io.BytesIO()
        write_snapshot(final, buf)
        return buf.getvalue()

    assert final_bytes(1) == final_bytes(1) != final_bytes(2)
    assert final_bytes(1, epochs=0) != final_bytes(2, epochs=0)  # the initial weights
    init = train_engine.init_params
    monkeypatch.setattr(train_engine, "init_params", lambda spec, seed: init(spec, 0))
    assert final_bytes(1, epochs=1) != final_bytes(2, epochs=1)  # the batch order, from one init


def test_identical_until_first_boundary():
    model, data, sched = quick_setup()
    _, snap_global = run_training(
        model, data, ScheduleConfig(eta0=0.1, total_epochs=8, assignment="global_only"),
        LambdaMinPolicy(), epochs=1, seed=5,
    )
    _, snap_tb = run_training(
        model, data, ScheduleConfig(eta0=0.1, total_epochs=8, start_epoch=4),
        LambdaMinPolicy(), epochs=1, seed=5,
    )
    # layer-wise rates only engage at start_epoch: epoch 0 runs are identical
    assert snap_global == snap_tb


def test_range_invariant_over_run():
    model, data, sched = quick_setup()
    telem, _ = run_training(model, data, sched, LambdaMinPolicy(), epochs=8, seed=1)
    for row in telem.rows:
        if row.layer == "_epoch_":
            continue
        eta_t = cal_rate(0.1, row.epoch, 8)
        assert 0.5 * eta_t - 1e-15 <= row.lr <= 1.5 * eta_t + 1e-15


def test_divergence_guard():
    model = ModelSpec(widths=(12, 16, 12, 8, 2))
    data = GaussianMixtureSpec(classes=2, dim=12, samples=300, separation=6.0)
    sched = ScheduleConfig(eta0=1e9, total_epochs=8, assignment="global_only")
    with pytest.raises(DivergenceError) as info:
        run_training(model, data, sched, LambdaMinPolicy(), epochs=8, seed=1)
    assert info.value.epoch >= 0


def test_lars_run_completes():
    model, data, sched = quick_setup(assignment="lars")
    telem, _ = run_training(model, data, sched, LambdaMinPolicy(), epochs=3, seed=2)
    assert len(telem.epoch_rows()) == 3


def test_snr_run_completes():
    model, data, sched = quick_setup(assignment="global_only")
    telem, _ = run_training(model, data, sched, LambdaMinPolicy(), lambda_sr=0.01, epochs=3, seed=2)
    assert len(telem.epoch_rows()) == 3
    assert telem.epoch_rows()[-1].eval_acc > 0.9


def test_analysis_time_counts_snr_penalty(monkeypatch):
    calls = []

    def slow_snr_grad_term(*args, **kwargs):
        calls.append(1)
        time.sleep(0.005)
        return snr_grad_term(*args, **kwargs)

    monkeypatch.setattr(train_engine, "snr_grad_term", slow_snr_grad_term)
    model, data, sched = quick_setup(assignment="global_only")
    telem, _ = run_training(model, data, sched, LambdaMinPolicy(), lambda_sr=0.01, epochs=1, seed=2)
    assert calls
    assert telem.total_analysis_sec() >= 0.005 * len(calls)


def test_param_lr_map_gives_weights_their_layer_rate_and_biases_eta_t():
    decision = ScheduleDecision(epoch=0, eta_t=0.1, per_layer={"conv0": 0.05, "dense0": 0.15}, alphas_used={})
    params = {name: np.zeros(1) for name in ("conv0.w", "conv0.b", "dense0.w", "dense0.b", "dense1.w")}
    assert train_engine._param_lr_map(decision, params) == {
        "conv0.w": 0.05, "conv0.b": 0.1, "dense0.w": 0.15, "dense0.b": 0.1, "dense1.w": 0.1,
    }


def spy_on_refreshes(monkeypatch):
    """Record every schedule refresh and SGD step of the runs that follow.

    A refresh is (epoch, steps taken before it, grad_norms it was given,
    decision); a step is (lr_map, weight gradient norms by layer).
    """
    refreshes, steps = [], []

    def spy_schedule(config, snapshot, policy, grad_norms=None):
        decision = schedule_epoch(config, snapshot, policy, grad_norms=grad_norms)
        refreshes.append((snapshot.epoch, len(steps), grad_norms, decision))
        return decision

    def spy_sgd(params, grads, velocity, optim, lr_map):
        norms = {name[:-2]: float(np.linalg.norm(g)) for name, g in grads.items() if name.endswith(".w")}
        steps.append((dict(lr_map), norms))
        sgd_step(params, grads, velocity, optim, lr_map)

    monkeypatch.setattr(train_engine, "schedule_epoch", spy_schedule)
    monkeypatch.setattr(train_engine, "sgd_step", spy_sgd)
    return refreshes, steps


def test_schedule_refreshes_every_interval_and_each_step_uses_the_latest(monkeypatch):
    # sqrt over all four layers: each refresh's rates follow the weights continuously
    model, data, sched = quick_setup(assignment="sqrt", exclude_first_last=False, update_interval_iters=3)
    iters = len(range(0, len(make_dataset(data, 7).x_train), 32))  # batches of 32 per epoch
    assert iters % 3 != 0 and iters > 3
    refreshes, steps = spy_on_refreshes(monkeypatch)
    run_training(model, data, sched, LambdaMinPolicy(), epochs=2, seed=7, optim=OptimState(batch_size=32))
    expected = [(t, t * iters + j) for t in range(2) for j in range(0, iters, 3)]
    assert [(t, step) for t, step, _, _ in refreshes] == expected
    assert len(steps) == 2 * iters
    for i, (lr_map, _) in enumerate(steps):
        latest = [decision for _, step, _, decision in refreshes if step <= i][-1]
        assert lr_map == train_engine._param_lr_map(latest, lr_map), i
    rates = [decision.per_layer for *_, decision in refreshes]
    assert all(a != b for a, b in zip(rates, rates[1:]))  # so a stale map cannot pass for the latest


def test_refresh_and_final_snapshots_view_the_live_weights(monkeypatch):
    snapshots, live = [], []

    def spy_schedule(config, snapshot, policy, grad_norms=None):
        snapshots.append(snapshot)
        return schedule_epoch(config, snapshot, policy, grad_norms=grad_norms)

    def spy_sgd(params, grads, velocity, optim, lr_map):
        live.append(params)
        sgd_step(params, grads, velocity, optim, lr_map)

    monkeypatch.setattr(train_engine, "schedule_epoch", spy_schedule)
    monkeypatch.setattr(train_engine, "sgd_step", spy_sgd)
    model, data, sched = quick_setup(update_interval_iters=3)
    _, final = run_training(model, data, sched, LambdaMinPolicy(), epochs=2, seed=7, optim=OptimState(batch_size=32))
    params = live[0]
    assert len(snapshots) > 2 and all(p is params for p in live)
    for snap in [*snapshots, final]:
        for layer in snap.layers:
            assert np.shares_memory(layer.values, params[f"{layer.name}.w"]), (snap.epoch, layer.name)


def test_lars_refresh_reads_the_gradient_norms_of_the_step_before(monkeypatch):
    model, data, sched = quick_setup(assignment="lars", update_interval_iters=3)
    sched = dataclasses.replace(sched, eta0=0.01)  # trust ratios at eta0 = 0.1 diverge within 2 epochs
    refreshes, steps = spy_on_refreshes(monkeypatch)
    run_training(model, data, sched, LambdaMinPolicy(), epochs=2, seed=7, optim=OptimState(batch_size=32))
    assert refreshes[0][2] is None  # no gradient observed yet
    assert len(refreshes) > 4
    for _, step, grad_norms, _ in refreshes[1:]:
        assert grad_norms == steps[step - 1][1], step


def test_sub_epoch_update_interval():
    model, data, sched = quick_setup(update_interval_iters=1)
    telem, _ = run_training(model, data, sched, LambdaMinPolicy(), epochs=2, seed=3)
    assert len(telem.epoch_rows()) == 2


def test_telemetry_csv_layout():
    model, data, sched = quick_setup()
    telem, _ = run_training(model, data, sched, LambdaMinPolicy(), epochs=2, seed=4)
    buf = io.StringIO()
    telem.write_csv(buf, timing=False)
    lines = buf.getvalue().splitlines()
    assert lines[0] == TELEMETRY_HEADER
    # 4 weight layers + 1 summary row per epoch
    assert len(lines) == 1 + 2 * 5
    layer_row = lines[1].split(",")
    assert layer_row[6] == "" and layer_row[7] == ""  # loss/acc empty on layer rows
    epoch_row = lines[5].split(",")
    assert epoch_row[1] == "_epoch_"
    assert epoch_row[8] == "0.0" and epoch_row[9] == "0.0"  # timing zeroed


def test_telemetry_determinism_bytes():
    model, data, sched = quick_setup()

    def run_bytes():
        telem, _ = run_training(model, data, sched, LambdaMinPolicy(), epochs=3, seed=6)
        buf = io.StringIO()
        telem.write_csv(buf, timing=False)
        return buf.getvalue().encode()

    assert run_bytes() == run_bytes()


def test_runs_sharing_an_optim_state_each_start_from_zero_momentum():
    model, data, sched = quick_setup()

    def run_bytes(optim):
        telem, final = run_training(model, data, sched, LambdaMinPolicy(), epochs=3, seed=6, optim=optim)
        csv_text, wsnp = io.StringIO(), io.BytesIO()
        telem.write_csv(csv_text, timing=False)
        write_snapshot(final, wsnp)
        return csv_text.getvalue(), wsnp.getvalue()

    shared = OptimState(batch_size=32)
    first, second = run_bytes(shared), run_bytes(shared)
    assert first == second == run_bytes(OptimState(batch_size=32))


def test_model_dataset_mismatch():
    model = ModelSpec(widths=(10, 8, 2))
    data = GaussianMixtureSpec(classes=2, dim=12, samples=100)
    sched = ScheduleConfig(eta0=0.1, total_epochs=4)
    with pytest.raises(ConfigError):
        run_training(model, data, sched, LambdaMinPolicy(), epochs=1, seed=0)
    model = ModelSpec(widths=(12, 8, 3))
    with pytest.raises(ConfigError, match="dataset has 2 classes but model outputs 3"):
        run_training(model, data, sched, LambdaMinPolicy(), epochs=1, seed=0)


def test_conv_block_sizes_must_be_positive():
    for block in ((2, 1, 0, 3), (2, 1, -3, 3), (0, 1, 3, 3), (2, 0, 3, 3), (2, 1, 3, -1)):
        with pytest.raises(ConfigError, match="conv block 0 sizes must be positive"):
            ModelSpec(widths=(16, 4, 2), conv_stem=(block,), conv_input=(1, 4, 4))


def test_telemetry_header_is_the_row_fields():
    assert TELEMETRY_HEADER == ",".join(f.name for f in dataclasses.fields(TelemetryRow))


def test_write_table_cell_rule():
    buf = io.StringIO()
    write_table(buf, "a,b,c,d,e,f", [(None, np.float32(0.1), np.float64(2.5), 1e-300, np.int64(3), 'x,"y"')])
    assert buf.getvalue() == 'a,b,c,d,e,f\n,0.10000000149011612,2.5,1e-300,3,"x,""y"""\n'
