import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempbal.errors import ConfigError
from tempbal.htsr import LambdaMinPolicy
from tempbal.scheduler import (
    LARS_EPS,
    AssignmentError,
    ScheduleConfig,
    assign_lars,
    assign_rates,
    cal_rate,
    schedule_epoch,
)
from tempbal.weight_store import LayerTensor, WeightSnapshot, load_snapshot, save_snapshot

# ---------------------------------------------------------------------------
# cosine annealing


def test_cal_endpoints_exact():
    assert cal_rate(0.1, 0, 200) == 0.1
    assert cal_rate(0.1, 100, 200) == pytest.approx(0.05, rel=1e-15)
    assert cal_rate(0.1, 200, 200) == 0.0


def test_cal_monotone_decreasing():
    rates = [cal_rate(0.1, t, 50) for t in range(51)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_cal_validation():
    with pytest.raises(ConfigError):
        cal_rate(0.1, 0, 0)
    with pytest.raises(ValueError):
        cal_rate(0.1, 31, 30)


# ---------------------------------------------------------------------------
# linear map


def test_tempbalance_endpoints_and_midpoint():
    out = assign_rates(0.1, {"A": 2.0, "B": 3.0, "C": 4.0}, "tempbalance", 0.5, 1.5)
    assert out["A"] == pytest.approx(0.05, abs=1e-15)
    assert out["B"] == pytest.approx(0.10, abs=1e-15)
    assert out["C"] == pytest.approx(0.15, abs=1e-15)


def test_tempbalance_scale_free_exact():
    metrics = {"A": 2.0, "B": 3.0, "C": 4.0}
    base = assign_rates(0.1, metrics, "tempbalance", 0.5, 1.5)
    for c in (10.0, 0.001, 2.0**17, 2.0**-13):
        scaled = assign_rates(0.1, {k: c * v for k, v in metrics.items()}, "tempbalance", 0.5, 1.5)
        # powers of two scale exactly; decimal factors cancel here because the
        # example values are exact anchors of the map
        for name in metrics:
            assert scaled[name] == pytest.approx(base[name], rel=1e-12)


def test_tempbalance_all_equal_midpoint():
    out = assign_rates(0.1, {"A": 3.0, "B": 3.0}, "tempbalance", 0.5, 1.5)
    assert out == {"A": 0.1, "B": 0.1}


def test_tempbalance_range_and_rank_order():
    rng = np.random.default_rng(1)
    for _ in range(100):
        names = [f"l{i}" for i in range(int(rng.integers(2, 10)))]
        metrics = {n: float(rng.uniform(1.0, 9.0)) for n in names}
        eta = float(rng.uniform(0.01, 1.0))
        out = assign_rates(eta, metrics, "tempbalance", 0.5, 1.5)
        assert all(0.5 * eta <= lr <= 1.5 * eta for lr in out.values())
        ranked = sorted(names, key=lambda n: metrics[n])
        lrs = [out[n] for n in ranked]
        assert all(a <= b for a, b in zip(lrs, lrs[1:]))


def test_tempbalance_inf_sentinel_maps_to_max():
    out = assign_rates(0.1, {"A": 2.0, "B": math.inf, "C": 4.0}, "tempbalance", 0.5, 1.5)
    assert out["B"] == out["C"] == pytest.approx(0.15, abs=1e-15)
    assert out["A"] == pytest.approx(0.05, abs=1e-15)


def test_tempbalance_all_inf_treated_equal():
    out = assign_rates(0.2, {"A": math.inf, "B": math.inf}, "tempbalance", 0.5, 1.5)
    assert out == {"A": 0.2, "B": 0.2}


def test_tempbalance_rejects_empty_and_nan():
    with pytest.raises(AssignmentError):
        assign_rates(0.1, {}, "tempbalance", 0.5, 1.5)
    with pytest.raises(AssignmentError):
        assign_rates(0.1, {"A": math.nan, "B": 1.0}, "tempbalance", 0.5, 1.5)


# ---------------------------------------------------------------------------
# alternative assignments


def test_sqrt_variant():
    out = assign_rates(0.1, {"A": 1.0, "B": 4.0}, "sqrt", 0.5, 1.5)
    # roots 1 and 2, mean 1.5
    assert out["A"] == pytest.approx(0.1 / 1.5, abs=1e-12)
    assert out["B"] == pytest.approx(0.2 / 1.5, abs=1e-12)


def test_log2_variant():
    out = assign_rates(0.1, {"A": 2.0, "B": 4.0}, "log2", 0.5, 1.5)
    # logs proportional to 1 and 2, mean 1.5
    assert out["A"] == pytest.approx(0.1 / 1.5, abs=1e-12)
    assert out["B"] == pytest.approx(0.2 / 1.5, abs=1e-12)


def test_log2_base_invariance():
    metrics = {"A": 2.0, "B": 5.0, "C": 11.0}
    ours = assign_rates(0.1, metrics, "log2", 0.5, 1.5)

    def with_log(fn):
        logs = {k: fn(v) for k, v in metrics.items()}
        mean = sum(logs.values()) / len(logs)
        return {k: 0.1 * lg / mean for k, lg in logs.items()}

    # scaling every log by an exact power of two (change of base to
    # b = e^(2^-j)) must reproduce the assignment bit for bit
    exact = with_log(lambda v: math.log(v) * 4.0)
    for name in metrics:
        assert ours[name] == exact[name]
    base2 = with_log(math.log2)
    for name in metrics:
        assert ours[name] == pytest.approx(base2[name], rel=1e-12)


def test_log2_degenerate_denominator():
    # logs of 2 and 1/2 cancel exactly; 1/2 is below 1, so it is rejected before any log is taken
    with pytest.raises(AssignmentError):
        assign_rates(0.1, {"A": 2.0, "B": 0.5}, "log2", 0.5, 1.5)
    # +inf sentinels alone read as 1, whose log is 0
    with pytest.raises(AssignmentError, match="above 1"):
        assign_rates(0.1, {"A": math.inf, "B": math.inf}, "log2", 0.5, 1.5)


def test_sqrt_log_require_positive():
    with pytest.raises(AssignmentError):
        assign_rates(0.1, {"A": -1.0}, "sqrt", 0.5, 1.5)
    with pytest.raises(AssignmentError):
        assign_rates(0.1, {"A": 0.0}, "log2", 0.5, 1.5)


def test_sqrt_rejects_a_zero_metric_value():
    # alpha_weighted = alpha * log10(lambda_max) is 0 on a layer whose lambda_max is 1; a rate of 0 would freeze it
    with pytest.raises(AssignmentError, match="positive"):
        assign_rates(0.1, {"A": 0.0, "B": 4.0}, "sqrt", 0.5, 1.5)


@pytest.mark.parametrize("assignment", ["lars", "global_only", "linear"])
def test_assign_rates_rejects_an_assignment_it_does_not_compute(assignment):
    # even for one layer, which every metric-driven assignment would give the midpoint
    with pytest.raises(ConfigError, match="unknown assignment"):
        assign_rates(0.1, {"A": 2.0}, assignment, 0.5, 1.5)


def test_step_variant_ranks():
    out = assign_rates(0.1, {"A": 3.0, "B": 1.0, "C": 2.0}, "step", 0.5, 1.5)
    assert out["B"] == pytest.approx(0.05, abs=1e-15)
    assert out["C"] == pytest.approx(0.10, abs=1e-15)
    assert out["A"] == pytest.approx(0.15, abs=1e-15)


def test_step_ties_break_by_layer_order():
    out = assign_rates(0.1, {"first": 2.0, "second": 2.0}, "step", 0.5, 1.5)
    assert out["first"] == pytest.approx(0.05, abs=1e-15)
    assert out["second"] == pytest.approx(0.15, abs=1e-15)


def test_step_ranks_inf_sentinel_above_its_stand_in():
    # the flat layer's +inf stands in as 3.0 and comes first, yet ranks last
    out = assign_rates(0.1, {"flat": math.inf, "A": 1.0, "B": 3.0}, "step", 0.5, 1.5)
    assert out == {"A": 0.05, "B": 0.1, "flat": pytest.approx(0.15, abs=1e-15)}


def test_step_top_rank_stays_inside_the_range():
    # eta_t * (s1 + 3 * ((s2 - s1) / 3)) rounds to one ulp above s2 * eta_t here
    s1, s2, eta_t = 0.5604763915302339, 1.576842428862421, 0.4129550530466246
    out = assign_rates(eta_t, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}, "step", s1, s2)
    assert out["d"] == s2 * eta_t
    assert all(s1 * eta_t <= lr <= s2 * eta_t for lr in out.values())


def test_step_single_layer_midpoint():
    out = assign_rates(0.1, {"only": 7.0}, "step", 0.5, 1.5)
    assert out["only"] == pytest.approx(0.1, abs=1e-15)


@st.composite
def metric_maps_above_one(draw):
    """Metric maps with every value above 1, at least one of them finite, and up to two +inf sentinels."""
    finite = draw(st.lists(st.floats(min_value=1.0, max_value=1e300, exclude_min=True), min_size=1, max_size=8))
    values = draw(st.permutations(finite + [math.inf] * draw(st.integers(0, 2))))
    return {f"l{i}": v for i, v in enumerate(values)}


@settings(max_examples=200)
@given(metric_maps_above_one(), st.floats(min_value=1e-6, max_value=10.0))
@example({f"l{i}": float(v) for i, v in enumerate(np.random.default_rng(2).uniform(1.5, 9.0, 6))}, 0.1)
def test_variant_rates_are_positive_and_ordered_like_their_metrics(metrics, eta_t):
    ranked = sorted(metrics, key=lambda name: metrics[name])
    for variant in ("sqrt", "log2", "step"):
        out = assign_rates(eta_t, metrics, variant, 0.5, 1.5)
        lrs = [out[name] for name in ranked]
        assert lrs[0] > 0 and all(a <= b for a, b in zip(lrs, lrs[1:])), (variant, lrs)


@settings(max_examples=200)
@given(
    metric_maps_above_one(),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0, max_value=10.0),
)
@example({"a": 1.0, "b": 2.0}, 0.1, 0.7, 2.9)  # tempbalance's unclamped top rate: 0.29000000000000004
def test_bounded_assignments_keep_every_rate_inside_s1_s2_eta_t(metrics, eta_t, s1, s2):
    for variant in ("tempbalance", "step"):
        out = assign_rates(eta_t, metrics, variant, s1, s2)
        assert all(s1 * eta_t <= lr <= s2 * eta_t for lr in out.values()), (variant, out)


@settings(max_examples=100)
@given(metric_maps_above_one(), st.floats(max_value=1.0, allow_nan=False, allow_infinity=False))
@example({"b": 4.0}, 0.5)  # log 0.5 < 0 < log 4 would give "low" a rate of -0.2
def test_log2_rejects_any_metric_value_at_or_below_one(metrics, low):
    with pytest.raises(AssignmentError, match="above 1"):
        assign_rates(0.1, {**metrics, "low": low}, "log2", 0.5, 1.5)


# ---------------------------------------------------------------------------
# LARS trust ratio


def test_lars_ratio():
    out = assign_lars(0.1, {"A": 2.0}, {"A": 1.0})
    assert out["A"] == pytest.approx(0.1 * 2 / (1 + LARS_EPS), rel=1e-12)


def test_lars_zero_weight_rides_global():
    out = assign_lars(0.1, {"A": 0.0}, {"A": 5.0})
    assert out["A"] == 0.1


def test_lars_eps_floor():
    out = assign_lars(0.1, {"A": 1.0}, {"A": 0.0})
    assert out["A"] == pytest.approx(0.1 / LARS_EPS, rel=1e-12)


# ---------------------------------------------------------------------------
# schedule_epoch


def make_snapshot(seed=0, n_layers=4, epoch=0):
    rng = np.random.default_rng(seed)
    layers = tuple(
        LayerTensor(f"fc{i}", rng.normal(size=(16, 24))) for i in range(n_layers)
    )
    return WeightSnapshot(epoch=epoch, layers=layers)


def config(**kw):
    base = dict(eta0=0.1, total_epochs=10)
    base.update(kw)
    return ScheduleConfig(**base)


def test_global_only_assigns_eta_t():
    snap = make_snapshot(epoch=2)
    decision = schedule_epoch(config(assignment="global_only"), snap, LambdaMinPolicy())
    eta = cal_rate(0.1, 2, 10)
    assert decision.eta_t == eta
    assert all(lr == eta for lr in decision.per_layer.values())
    assert decision.alphas_used == {}


def test_start_epoch_defers_to_global():
    snap = make_snapshot()
    decision = schedule_epoch(config(start_epoch=2), snap, LambdaMinPolicy())
    assert all(lr == decision.eta_t for lr in decision.per_layer.values())
    assert decision.alphas_used == {}
    engaged = schedule_epoch(config(start_epoch=2), dataclasses.replace(snap, epoch=2), LambdaMinPolicy())
    assert engaged.alphas_used


def test_schedule_respects_range_and_order():
    snap = make_snapshot(seed=3, epoch=1)
    cfg = config(exclude_first_last=False)
    decision = schedule_epoch(cfg, snap, LambdaMinPolicy())
    eta = decision.eta_t
    assert set(decision.per_layer) == set(snap.layer_names())
    for lr in decision.per_layer.values():
        assert 0.5 * eta - 1e-15 <= lr <= 1.5 * eta + 1e-15
    alphas = decision.alphas_used
    ranked = sorted(alphas, key=lambda n: alphas[n])
    lrs = [decision.per_layer[n] for n in ranked]
    assert all(a <= b for a, b in zip(lrs, lrs[1:]))


def test_exclude_first_last_ride_global():
    snap = make_snapshot(seed=4, epoch=1)
    decision = schedule_epoch(config(), snap, LambdaMinPolicy())
    names = snap.layer_names()
    assert decision.per_layer[names[0]] == decision.eta_t
    assert decision.per_layer[names[-1]] == decision.eta_t
    assert names[0] not in decision.alphas_used
    assert names[1] in decision.alphas_used


def test_degenerate_layer_falls_back_flagged():
    rng = np.random.default_rng(5)
    layers = (
        LayerTensor("ok1", rng.normal(size=(16, 24))),
        LayerTensor("dead", np.zeros((8, 12))),
        LayerTensor("ok2", rng.normal(size=(16, 24))),
        LayerTensor("ok3", rng.normal(size=(16, 24))),
    )
    snap = WeightSnapshot(epoch=0, layers=layers)
    decision = schedule_epoch(config(exclude_first_last=False), snap, LambdaMinPolicy())
    assert "dead" in decision.fallback_layers
    assert decision.per_layer["dead"] == decision.eta_t
    assert "dead" not in decision.alphas_used


def test_lars_assignment_through_schedule():
    snap = make_snapshot(seed=6, n_layers=3)
    cfg = config(assignment="lars")
    first = schedule_epoch(cfg, snap, LambdaMinPolicy(), grad_norms=None)
    assert all(lr == first.eta_t for lr in first.per_layer.values())
    norms = {name: 2.0 for name in snap.layer_names()}
    later = schedule_epoch(cfg, snap, LambdaMinPolicy(), grad_norms=norms)
    for name, layer in zip(snap.layer_names(), snap.layers):
        w_norm = float(np.linalg.norm(layer.values))
        assert later.per_layer[name] == pytest.approx(later.eta_t * w_norm / (2.0 + 1e-9), rel=1e-12)


@pytest.mark.parametrize("where, value", [("weight", math.nan), ("grad", math.nan), ("grad", math.inf)])
def test_lars_refuses_a_non_finite_norm(where, value):
    rng = np.random.default_rng(6)
    layers = [rng.normal(size=(16, 24)) for _ in range(3)]
    grad_norms = {"l0": 1.0, "l1": 1.0, "l2": 1.0}
    if where == "weight":
        layers[1][3, 5] = value
    else:
        grad_norms["l1"] = value
    snap = WeightSnapshot(epoch=0, layers=tuple(LayerTensor(f"l{i}", w) for i, w in enumerate(layers)))
    with pytest.raises(AssignmentError, match="'l1'"):
        schedule_epoch(config(assignment="lars"), snap, LambdaMinPolicy(), grad_norms=grad_norms)


def test_schedule_epoch_validates_t():
    with pytest.raises(ValueError):
        schedule_epoch(config(), make_snapshot(epoch=10), LambdaMinPolicy())


def test_schedule_epoch_schedules_the_snapshots_epoch(tmp_path):
    cfg = config(start_epoch=3)
    for e in range(cfg.total_epochs):
        decision = schedule_epoch(cfg, make_snapshot(epoch=e), LambdaMinPolicy())
        assert decision.epoch == e
        assert decision.eta_t == cal_rate(cfg.eta0, e, cfg.total_epochs)
        assert bool(decision.alphas_used) == (e >= cfg.start_epoch)
    # a checkpoint read back is scheduled at the epoch stored in its file
    save_snapshot(make_snapshot(epoch=7), str(tmp_path / "ckpt.wsnp"))
    assert schedule_epoch(cfg, load_snapshot(str(tmp_path / "ckpt.wsnp")), LambdaMinPolicy()).epoch == 7
    with pytest.raises(ValueError, match="snapshot epoch must be below total_epochs=10, got 10"):
        schedule_epoch(cfg, make_snapshot(epoch=cfg.total_epochs), LambdaMinPolicy())


def test_config_validation():
    with pytest.raises(ConfigError):
        ScheduleConfig(eta0=0.0, total_epochs=10)
    with pytest.raises(ConfigError):
        ScheduleConfig(eta0=0.1, total_epochs=10, s1=2.0, s2=1.0)
    with pytest.raises(ConfigError):
        ScheduleConfig(eta0=0.1, total_epochs=10, assignment="nope")
    with pytest.raises(ConfigError):
        ScheduleConfig(eta0=0.1, total_epochs=10, start_epoch=10)
    with pytest.raises(ConfigError):
        ScheduleConfig(eta0=0.1, total_epochs=10, update_interval_iters=0)


@st.composite
def scalable_snapshots(draw):
    """3 to 5 small layers, each Gaussian, Student-t (heavy-tailed), rank-deficient, all-zero, 4-D conv or flat.

    A flat layer has all its singular values equal, so its eigenvalues differ
    only by roundoff.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for i in range(draw(st.integers(3, 5))):
        n, m = draw(st.integers(4, 32)), draw(st.integers(4, 32))
        kind = draw(st.sampled_from(("gaussian", "student_t", "rank", "zero", "conv", "flat")))
        if kind == "gaussian":
            w = rng.normal(size=(n, m))
        elif kind == "student_t":
            w = rng.standard_t(draw(st.sampled_from((1.5, 2.5, 4.0))), size=(n, m))
        elif kind == "rank":
            r = draw(st.integers(1, min(n, m) - 1))
            w = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
        elif kind == "zero":
            w = np.zeros((n, m))
        elif kind == "flat":
            q, _ = np.linalg.qr(rng.normal(size=(max(n, m), min(n, m))))
            w = q.T if n <= m else q
        else:
            w = rng.normal(size=(n, draw(st.integers(1, 3)), 3, 3))
        layers.append(LayerTensor(f"{kind}{i}", w))
    return WeightSnapshot(epoch=0, layers=tuple(layers))


@settings(max_examples=150)
@given(
    scalable_snapshots(),
    st.floats(1e-3, 1e3),
    st.sampled_from(("tempbalance", "step")),
    st.sampled_from(("median", "ks", "fixfinger")),
    st.booleans(),
)
def test_schedule_is_invariant_to_weight_scale(snap, c, assignment, variant, exclude_first_last):
    cfg = config(assignment=assignment, metric="alpha_hill", exclude_first_last=exclude_first_last)
    policy = LambdaMinPolicy(variant=variant)
    snap = dataclasses.replace(snap, epoch=3)
    scaled = WeightSnapshot(
        epoch=3, layers=tuple(LayerTensor(layer.name, c * layer.values) for layer in snap.layers)
    )
    base, other = (schedule_epoch(cfg, s, policy) for s in (snap, scaled))
    assert other.fallback_layers == base.fallback_layers
    assert {r.name: r.metrics.k for r in other.analyses if r.metrics} == {
        r.name: r.metrics.k for r in base.analyses if r.metrics
    }
    alphas, scaled_alphas = base.alphas_used, other.alphas_used
    assert scaled_alphas.keys() == alphas.keys()
    for name, alpha in alphas.items():
        assert scaled_alphas[name] == pytest.approx(alpha, rel=1e-11)  # eigensolve roundoff only
    if assignment == "step":
        assert other.per_layer == base.per_layer  # the ranking alone sets each rate
        return
    # the linear map divides by the alpha span, so a rate moves by up to
    # 4 * drift / span of the rate range; no more than the alphas' roundoff explains.
    # A flat layer's +inf rides the largest finite alpha, so only finite ones count
    finite = {n: a for n, a in alphas.items() if math.isfinite(a)}
    span = max(finite.values(), default=0.0) - min(finite.values(), default=0.0)
    drift = max((abs(scaled_alphas[n] - a) for n, a in finite.items()), default=0.0)
    moved = 4 * base.eta_t * (cfg.s2 - cfg.s1) * drift / span if span else 0.0
    for name, lr in base.per_layer.items():
        assert abs(other.per_layer[name] - lr) <= moved + 4 * np.finfo(float).eps * lr


@settings(max_examples=150)
@given(
    scalable_snapshots(),
    st.integers(0, 9),
    st.sampled_from(("tempbalance", "step")),
    st.sampled_from(("median", "ks", "fixfinger")),
    st.sampled_from(("alpha_hill", "spectral_norm", "alpha_weighted")),
    st.booleans(),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(1.0, 3.0),
)
def test_schedule_decisions_keep_range_fallback_and_metric_order(
    snap, t, assignment, variant, metric, exclude_first_last, s1, s2
):
    cfg = config(assignment=assignment, metric=metric, exclude_first_last=exclude_first_last, s1=s1, s2=s2)
    decision = schedule_epoch(cfg, dataclasses.replace(snap, epoch=t), LambdaMinPolicy(variant=variant))
    eta_t = decision.eta_t
    assert eta_t == cal_rate(cfg.eta0, t, cfg.total_epochs)
    assert decision.per_layer.keys() == set(snap.layer_names())
    for lr in decision.per_layer.values():
        assert cfg.s1 * eta_t <= lr <= cfg.s2 * eta_t
    assigned = decision.alphas_used
    for name, lr in decision.per_layer.items():
        if name not in assigned:  # fell back or excluded
            assert lr == eta_t, name
    for a, b in ((a, b) for a in assigned for b in assigned if assigned[a] < assigned[b]):
        assert decision.per_layer[a] <= decision.per_layer[b], (a, b)
