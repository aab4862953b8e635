import dataclasses
import io
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempbal import train_engine
from tempbal.errors import ConfigError
from tempbal.esd import orient
from tempbal.htsr import LambdaMinPolicy
from tempbal.scheduler import ScheduleConfig, ScheduleDecision, cal_rate, schedule_epoch
from tempbal.train_engine import (
    CsvDataSpec,
    CsvParseError,
    DivergenceError,
    GaussianMixtureSpec,
    ModelSpec,
    OptimState,
    TELEMETRY_HEADER,
    TelemetryRow,
    accuracy,
    conv_output_shape,
    init_params,
    loss_and_grads,
    make_dataset,
    predict,
    run_training,
    sgd_step,
    snr_grad_term,
    write_table,
)
from tempbal.weight_store import LayerTensor

# ---------------------------------------------------------------------------
# SGD


def test_vanilla_sgd_step():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    optim = OptimState(momentum=0.0, weight_decay=0.0)
    sgd_step(params, grads, optim, {"w": 0.1})
    assert params["w"][0] == pytest.approx(0.8, abs=1e-15)


def test_zero_gradient_scales_buffer():
    params = {"w": np.array([1.0])}
    optim = OptimState(momentum=0.9, weight_decay=0.0)
    optim.buffers["w"] = np.array([2.0])
    sgd_step(params, {"w": np.array([0.0])}, optim, {"w": 0.0})
    assert optim.buffers["w"][0] == pytest.approx(1.8, abs=1e-15)
    assert params["w"][0] == 1.0


def test_two_step_momentum_oracle():
    # v1 = 1, w1 = -0.1; v2 = 0.9 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
    params = {"w": np.array([0.0])}
    optim = OptimState(momentum=0.9, weight_decay=0.0)
    for _ in range(2):
        sgd_step(params, {"w": np.array([1.0])}, optim, {"w": 0.1})
    assert params["w"][0] == pytest.approx(-0.29, abs=1e-15)


def test_per_layer_lr_honored_exactly():
    rng = np.random.default_rng(0)
    params = {"a.w": rng.normal(size=(3, 4)), "b.w": rng.normal(size=(2, 3))}
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    before = {k: v.copy() for k, v in params.items()}
    optim = OptimState(momentum=0.0, weight_decay=0.0)
    lrs = {"a.w": 0.05, "b.w": 0.2}
    sgd_step(params, grads, optim, lrs)
    for name in params:
        assert np.array_equal(params[name], before[name] - lrs[name] * grads[name])


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, OptimState(), {"w": 0.1})


def test_sgd_missing_lr():
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(3)}, {"w": np.zeros(3)}, OptimState(), {})


# ---------------------------------------------------------------------------
# spectral norm regularizer


def test_snr_diagonal_gradient():
    w = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    inc = snr_grad_term(orient(LayerTensor("diag", w)), 0.01)
    expected = np.zeros((2, 3))
    expected[0, 0] = 0.01 * 3.0
    assert np.allclose(inc, expected, atol=1e-9)


def test_snr_zero_coefficient():
    w = np.ones((4, 6))
    inc = snr_grad_term(orient(LayerTensor("w", w)), 0.0)
    assert inc.shape == (4, 6)
    assert not inc.any()


def test_snr_transposed_layer_gets_transposed_increment():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(10, 4))  # tall: orientation transposes
    oriented = orient(LayerTensor("tall", w))
    assert oriented.transposed
    inc = snr_grad_term(oriented, 0.5)
    assert inc.shape == (10, 4)


def test_snr_finite_difference():
    rng = np.random.default_rng(2)
    lam_sr = 0.01
    for trial in range(3):
        w = rng.normal(size=(6, 10))
        inc = snr_grad_term(orient(LayerTensor("w", w)), lam_sr, tol=1e-11)

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
    batches_a = [xb for xb, _ in a.batches(epoch=2, batch_size=32)]
    batches_b = [xb for xb, _ in b.batches(epoch=2, batch_size=32)]
    for xa, xb in zip(batches_a, batches_b):
        assert np.array_equal(xa, xb)


def test_dataset_epoch_shuffles_differ():
    spec = GaussianMixtureSpec(classes=2, dim=4, samples=64)
    data = make_dataset(spec, seed=1)
    e0 = np.concatenate([y for _, y in data.batches(0, 16)])
    e1 = np.concatenate([y for _, y in data.batches(1, 16)])
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


def test_optim_state_validation():
    with pytest.raises(ConfigError):
        OptimState(batch_size=0)
    with pytest.raises(ConfigError):
        OptimState(momentum=-0.5)
    with pytest.raises(ConfigError):
        OptimState(weight_decay=float("nan"))


def test_csv_non_finite_feature_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("f0,label\n1.0,a\nnan,b\n")
    with pytest.raises(CsvParseError, match="row 2"):
        make_dataset(CsvDataSpec(path=str(path)), seed=0)


# ---------------------------------------------------------------------------
# gradients


def relu_pattern(params, spec, x):
    """Which pre-activations are positive: a ReLU net is smooth wherever this stays fixed."""
    cache = train_engine._forward(params, spec, x)[1]
    return [entry[2] > 0 for entry in cache["conv"]] + [entry[1] > 0 for entry in cache["dense"][:-1]]


def grad_check(spec: ModelSpec, seed: int, coords: int = 16, rel_tol: float = 1e-4):
    rng = np.random.default_rng(seed)
    params = init_params(spec)
    x = rng.normal(size=(8, spec.input_dim))
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
    grad_check(ModelSpec(widths=(6, 8, 4, 3), activation="tanh", seed=0), seed=10)


def test_dense_relu_gradients():
    grad_check(ModelSpec(widths=(6, 8, 4, 3), activation="relu", seed=1), seed=11)


def test_conv_stem_gradients():
    spec = ModelSpec(
        widths=(8, 6, 3),
        activation="tanh",
        seed=2,
        conv_stem=((2, 1, 3, 3),),
        conv_input=(1, 4, 4),
    )
    grad_check(spec, seed=12)


@st.composite
def random_models(draw):
    """A small model: random dense widths, relu or tanh, and a 1-2 block conv stem or none."""
    activation = draw(st.sampled_from(("relu", "tanh")))
    seed = draw(st.integers(0, 2**32 - 1))
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    classes = draw(st.integers(2, 4))
    blocks = draw(st.integers(0, 2))
    if not blocks:
        return ModelSpec(widths=(draw(st.integers(1, 8)), *hidden, classes), activation=activation, seed=seed)
    conv_input = (draw(st.integers(1, 2)), draw(st.integers(3, 5)), draw(st.integers(3, 5)))
    c, h, w = conv_input
    stem = []
    for _ in range(blocks):
        block = (draw(st.integers(1, 3)), c, draw(st.integers(1, min(3, h))), draw(st.integers(1, min(3, w))))
        stem.append(block)
        c, h, w = block[0], h - block[2] + 1, w - block[3] + 1
    return ModelSpec(
        widths=(c * h * w, *hidden, classes), activation=activation, seed=seed,
        conv_stem=tuple(stem), conv_input=conv_input,
    )


@settings(max_examples=60)
@given(random_models(), st.integers(0, 2**32 - 1))
def test_gradients_match_central_differences_on_random_models(spec, seed):
    grad_check(spec, seed, coords=8)


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(widths=(4, 2))
    with pytest.raises(ConfigError):
        ModelSpec(widths=(4, 2, 2), activation="gelu")
    with pytest.raises(ConfigError):
        ModelSpec(widths=(4, 2, 2), conv_stem=((2, 1, 3, 3),))
    with pytest.raises(ConfigError):
        # conv output is 2*2*2=8, not 4
        ModelSpec(widths=(4, 2, 2), conv_stem=((2, 1, 3, 3),), conv_input=(1, 4, 4))


# ---------------------------------------------------------------------------
# evaluation


CONV_SPEC = ModelSpec(widths=(18, 12, 4), seed=3, conv_stem=((2, 1, 3, 3),), conv_input=(1, 5, 5))


@pytest.mark.parametrize("spec", [ModelSpec(widths=(6, 16, 8, 5), seed=4), CONV_SPEC], ids=["dense", "conv"])
@pytest.mark.parametrize("rows, batch_size", [(301, 64), (301, 1), (64, 64), (40, 128)])
def test_chunked_predict_is_the_whole_set_argmax(spec, rows, batch_size):
    params = init_params(spec)
    x = np.random.default_rng(rows).normal(size=(rows, spec.input_dim))
    whole = np.argmax(train_engine._forward(params, spec, x)[0], axis=1)
    assert np.array_equal(predict(params, spec, x, batch_size), whole)


def test_accuracy_memory_tracks_the_batch_not_the_eval_set():
    spec = ModelSpec(widths=(64, 256, 256, 10), seed=0)
    params = init_params(spec)
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
    model = ModelSpec(widths=(12, 16, 12, 8, 2), seed=0)
    data = GaussianMixtureSpec(classes=2, dim=12, samples=300, separation=6.0)
    sched = ScheduleConfig(eta0=0.1, total_epochs=8, assignment=assignment, **sched_kw)
    return model, data, sched


def test_zero_epochs_is_noop():
    model, data, sched = quick_setup()
    telem, final = run_training(model, data, sched, LambdaMinPolicy(), epochs=0, seed=0)
    assert telem.rows == []
    init = init_params(model)
    for layer in final.layers:
        assert np.array_equal(layer.values, init[f"{layer.name}.w"])


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard():
    model = ModelSpec(widths=(12, 16, 12, 8, 2), seed=0)
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

    def spy_schedule(config, t, snapshot, policy, grad_norms=None):
        decision = schedule_epoch(config, t, snapshot, policy, grad_norms=grad_norms)
        refreshes.append((t, len(steps), grad_norms, decision))
        return decision

    def spy_sgd(params, grads, optim, lr_map):
        norms = {name[:-2]: float(np.linalg.norm(g)) for name, g in grads.items() if name.endswith(".w")}
        steps.append((dict(lr_map), norms))
        sgd_step(params, grads, optim, lr_map)

    monkeypatch.setattr(train_engine, "schedule_epoch", spy_schedule)
    monkeypatch.setattr(train_engine, "sgd_step", spy_sgd)
    return refreshes, steps


def test_schedule_refreshes_every_interval_and_each_step_uses_the_latest(monkeypatch):
    # sqrt over all four layers: each refresh's rates follow the weights continuously
    model, data, sched = quick_setup(assignment="sqrt", exclude_first_last=False, update_interval_iters=3)
    iters = make_dataset(data, 7).iters_per_epoch(32)
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


def test_model_dataset_mismatch():
    model = ModelSpec(widths=(10, 8, 2), seed=0)
    data = GaussianMixtureSpec(classes=2, dim=12, samples=100)
    sched = ScheduleConfig(eta0=0.1, total_epochs=4)
    with pytest.raises(ConfigError):
        run_training(model, data, sched, LambdaMinPolicy(), epochs=1, seed=0)


def test_conv_block_sizes_must_be_positive():
    for block in ((2, 1, 0, 3), (2, 1, -3, 3), (0, 1, 3, 3)):
        with pytest.raises(ConfigError):
            conv_output_shape((block,), (1, 4, 4))


def test_telemetry_header_is_the_row_fields():
    assert TELEMETRY_HEADER == ",".join(f.name for f in dataclasses.fields(TelemetryRow))


def test_write_table_cell_rule():
    buf = io.StringIO()
    write_table(buf, "a,b,c,d,e,f", [(None, np.float32(0.1), np.float64(2.5), 1e-300, np.int64(3), 'x,"y"')])
    assert buf.getvalue() == 'a,b,c,d,e,f\n,0.10000000149011612,2.5,1e-300,3,"x,""y"""\n'
