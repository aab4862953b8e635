"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import io
import math
import time

import numpy as np
import pytest

from conftest import random_snapshot
from tempbal.cli import main
from tempbal.esd import ESD, compute_esd
from tempbal.htsr import LambdaMinPolicy, analyze_snapshot, hill_alpha
from tempbal.rmt_lab import spike_experiment, verify_s_alpha
from tempbal.scheduler import ScheduleConfig, assign_rates, cal_rate
from tempbal.train_engine import (
    GaussianMixtureSpec,
    ModelSpec,
    init_params,
    loss_and_grads,
    run_training,
    snr_grad_term,
)
from tempbal.weight_store import (
    LayerTensor,
    SnapshotMagicError,
    SnapshotStructureError,
    SnapshotTruncatedError,
    read_snapshot,
    write_snapshot,
)


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {text}")


def esd_of(lam: np.ndarray) -> ESD:
    return ESD(eigenvalues=lam, source_name="acc")


# ---------------------------------------------------------------------------


def test_criterion_1_hill_estimator_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240001)

    def oracle(lam: np.ndarray, k: int) -> float:
        # direct transcription of the estimator on 1-based ascending indexing
        n = lam.size
        terms = [math.log(lam[(n - i + 1) - 1] / lam[(n - k) - 1]) for i in range(1, k + 1)]
        total = math.fsum(terms)
        return math.inf if total == 0.0 else 1.0 + k / total

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(8, 513))
        lam = np.sort(rng.uniform(0.5, 100.0, size=n))
        k = n // 2
        got = hill_alpha(esd_of(lam), k)
        want = oracle(lam, k)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12

    e = math.e
    special = hill_alpha(esd_of(np.array([1.0, e, e * e, e**3])), 2)
    assert abs(special - 5.0 / 3.0) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"hill estimator matches direct oracle on 1000 spectra "
              f"(worst abs err {worst:.2e}), e-case = 5/3, {elapsed:.2f}s")


def test_criterion_2_scale_freeness():
    started = time.perf_counter()
    rng = np.random.default_rng(20240002)
    s1, s2, eta = 0.5, 1.5, 0.1
    worst_rel = 0.0
    for _ in range(1000):
        names = [f"l{i}" for i in range(int(rng.integers(2, 12)))]
        metrics = {n: float(rng.uniform(1.0, 30.0)) for n in names}
        base = assign_rates(eta, metrics, "tempbalance", s1, s2)

        # exactly representable scale factors spanning (1e-6, 1e6): the
        # assignment must be bit-identical
        c_exact = 2.0 ** int(rng.integers(-19, 20))
        scaled = assign_rates(eta, {n: c_exact * v for n, v in metrics.items()}, "tempbalance", s1, s2)
        assert scaled == base

        # arbitrary scale factors round the inputs themselves; the map stays
        # equal to within a couple of ulps
        c_any = float(10.0 ** rng.uniform(-6, 6))
        scaled_any = assign_rates(eta, {n: c_any * v for n, v in metrics.items()}, "tempbalance", s1, s2)
        for n in names:
            rel = abs(scaled_any[n] - base[n]) / max(abs(base[n]), 1e-300)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-11

        # range and rank order
        assert all(s1 * eta <= lr <= s2 * eta for lr in base.values())
        ranked = sorted(names, key=lambda n: metrics[n])
        lrs = [base[n] for n in ranked]
        assert all(a <= b for a, b in zip(lrs, lrs[1:]))

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    report(2, f"linear map scale-free on 1000 maps (exact under binary scaling, "
              f"worst rel {worst_rel:.1e} under decimal), range and order hold, {elapsed:.2f}s")


def test_criterion_3_cal_endpoints():
    rng = np.random.default_rng(20240003)
    for _ in range(100):
        eta0 = float(rng.uniform(1e-4, 10.0))
        total = 2 * int(rng.integers(1, 500))
        assert cal_rate(eta0, 0, total) == eta0
        assert cal_rate(eta0, total, total) == 0.0
        mid = cal_rate(eta0, total // 2, total)
        assert abs(mid - eta0 / 2) <= 1e-15 * eta0
    report(3, "cosine schedule hits eta0, eta0/2 and 0 at t = 0, T/2, T for 100 random (eta0, T)")


def test_criterion_4_s_alpha_relation():
    started = time.perf_counter()
    grid = [0.5 + 0.25 * i for i in range(11)]  # 0.5 .. 3.0
    rows_large = verify_s_alpha([1024], grid, seed=0)
    for row in rows_large:
        assert row.rel_err <= 0.15, f"s={row.decay}: rel err {row.rel_err}"
    rows_small = verify_s_alpha([64], grid, seed=0)
    mean_large = float(np.mean([r.rel_err for r in rows_large]))
    mean_small = float(np.mean([r.rel_err for r in rows_small]))
    assert mean_large < mean_small
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, f"alpha tracks 1 + 1/s on Q=1024 (max rel err "
              f"{max(r.rel_err for r in rows_large):.4f}), mean err {mean_large:.4f} < "
              f"{mean_small:.4f} at Q=64, {elapsed:.1f}s")


def test_criterion_5_power_iteration_and_snr():
    rng = np.random.default_rng(20240005)
    lam_sr = 0.01
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 129))
        m = int(rng.integers(2, 129))
        w = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-2, 3)
        layer = LayerTensor("acc", w)
        # the increment is lam_sr * sigma * u v^T, so its norm is lam_sr * sigma
        sigma = float(np.linalg.norm(snr_grad_term(layer, lam_sr))) / lam_sr
        top = math.sqrt(compute_esd(layer).lambda_max)
        rel = abs(sigma - top) / top
        worst = max(worst, rel)
        assert rel <= 1e-6

    h = 1e-6
    for trial in range(10):
        w = rng.normal(size=(int(rng.integers(4, 12)), int(rng.integers(4, 12))))
        inc = snr_grad_term(LayerTensor("snr", w), lam_sr, tol=1e-11)
        assert inc.shape == w.shape

        def penalty(mat):
            return 0.5 * lam_sr * np.linalg.svd(mat, compute_uv=False)[0] ** 2

        for _ in range(6):
            i = int(rng.integers(0, w.shape[0]))
            j = int(rng.integers(0, w.shape[1]))
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd = (penalty(wp) - penalty(wm)) / (2 * h)
            assert inc[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    report(5, f"the penalty's top singular value matches the ESD's on 200 matrices (worst rel {worst:.1e}); "
              f"penalty gradient passes central differences on 10 matrices")


def test_criterion_6_gradient_correctness():
    # 107 parameters: well under the tiny-model bound of 200
    for seed in range(5):
        spec = ModelSpec(widths=(6, 8, 4, 3), activation="relu", seed=seed)
        rng = np.random.default_rng(1000 + seed)
        params = init_params(spec)
        x = rng.normal(size=(16, 6))
        y = rng.integers(0, 3, size=16)
        _, grads = loss_and_grads(params, spec, x, y)
        names = sorted(params)
        h = 1e-5
        checked = 0
        while checked < 32:
            name = names[int(rng.integers(0, len(names)))]
            flat = params[name].reshape(-1)
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grads(params, spec, x, y)
            flat[i] = orig - h
            lm, _ = loss_and_grads(params, spec, x, y)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[name].reshape(-1)[i]
            if max(abs(fd), abs(an)) < 1e-8:
                continue  # coordinate has no influence on this batch
            assert an == pytest.approx(fd, rel=1e-4), f"seed {seed}, {name}[{i}]"
            checked += 1
    report(6, "analytic gradients match central finite differences (32 coords x 5 seeds, rel 1e-4)")


def _e2e_pieces(assignment: str, start_epoch: int = 0):
    model = ModelSpec(widths=(20, 32, 24, 16, 2), seed=0)
    data = GaussianMixtureSpec(classes=2, dim=20, samples=1200, separation=6.0)
    sched = ScheduleConfig(
        eta0=0.1, total_epochs=30, s1=0.5, s2=1.5, assignment=assignment, start_epoch=start_epoch
    )
    return model, data, sched


def _telemetry_lines(telemetry) -> list[str]:
    buf = io.StringIO()
    telemetry.write_csv(buf, timing=False)
    return buf.getvalue().splitlines()


def test_criterion_7_end_to_end_range_and_late_start():
    started = time.perf_counter()
    model, data, sched = _e2e_pieces("tempbalance")
    policy = LambdaMinPolicy(variant="median")
    telemetry, _ = run_training(model, data, sched, policy, epochs=30, seed=7)

    final_acc = telemetry.epoch_rows()[-1].eval_acc
    assert final_acc >= 0.95
    for row in telemetry.rows:
        if row.layer == "_epoch_":
            continue
        eta_t = cal_rate(0.1, row.epoch, 30)
        assert 0.5 * eta_t - 1e-15 <= row.lr <= 1.5 * eta_t + 1e-15

    model_l, data_l, sched_late = _e2e_pieces("tempbalance", start_epoch=5)
    late, _ = run_training(model_l, data_l, sched_late, policy, epochs=30, seed=7)
    model_g, data_g, sched_glob = _e2e_pieces("global_only")
    glob, _ = run_training(model_g, data_g, sched_glob, policy, epochs=30, seed=7)

    lines_late = _telemetry_lines(late)
    lines_glob = _telemetry_lines(glob)
    # 5 epochs x (4 layer rows + 1 summary) after the header
    prefix = 1 + 5 * 5
    assert lines_late[:prefix] == lines_glob[:prefix]
    assert lines_late[prefix:] != lines_glob[prefix:]

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(7, f"30-epoch run reaches {final_acc:.3f} eval accuracy, all rates in "
              f"[0.5, 1.5] x eta_t, late start matches the global baseline through epoch 4, "
              f"{elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "eta0 = 0.1\ntotal_epochs = 6\nsamples = 400\nhidden = 16,8\n"
        "separation = 6.0\ntiming = off\nseed = 9\n"
    )
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        outs.append(out)
    telem_a = (outs[0] / "telemetry.csv").read_bytes()
    telem_b = (outs[1] / "telemetry.csv").read_bytes()
    assert telem_a == telem_b
    assert (outs[0] / "final.wsnp").read_bytes() == (outs[1] / "final.wsnp").read_bytes()

    snap_path = outs[0] / "final.wsnp"
    a1, a2 = tmp_path / "a1", tmp_path / "a2"
    assert main(["analyze", str(snap_path), "--out-dir", str(a1)]) == 0
    assert main(["analyze", str(snap_path), "--out-dir", str(a2)]) == 0
    assert (a1 / "metrics.csv").read_bytes() == (a2 / "metrics.csv").read_bytes()
    for hist in sorted(a1.glob("esd_*.csv")):
        assert hist.read_bytes() == (a2 / hist.name).read_bytes()
    report(8, "repeat train and analyze runs produce byte-identical outputs")


def test_criterion_9_format_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(20240009)
    for _ in range(1000):
        snap = random_snapshot(rng)
        buf = io.BytesIO()
        write_snapshot(snap, buf)
        buf.seek(0)
        assert read_snapshot(buf) == snap

    with pytest.raises(SnapshotMagicError):
        read_snapshot(io.BytesIO(b"XXXX" + b"\x00" * 32))
    good = io.BytesIO()
    write_snapshot(random_snapshot(rng), good)
    with pytest.raises(SnapshotTruncatedError):
        read_snapshot(io.BytesIO(good.getvalue()[:-4]))
    with pytest.raises(SnapshotStructureError):
        LayerTensor("bad", np.zeros((2, 3, 1)))

    bad = tmp_path / "bad.wsnp"
    bad.write_bytes(b"not a snapshot at all")
    assert main(["analyze", str(bad)]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert main(["rmt", "--q", "64", "--s", ""]) == 1
    report(9, "1000 random snapshots round-trip exactly; malformed inputs map to "
              "the documented error classes and exit codes")


def test_criterion_10_spike_detection():
    n = 256
    rng = np.random.default_rng(0)
    bulk = LayerTensor("bulk", rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, n)))

    none = spike_experiment(bulk, 0.0, seed=1000)
    assert not none.spike_detected
    assert np.array_equal(none.esd_before.eigenvalues, none.esd_after.eigenvalues)

    strong = spike_experiment(bulk, 10.0, seed=1000)
    assert strong.spike_detected

    tops = [
        spike_experiment(bulk, s, seed=1000).esd_after.lambda_max
        for s in np.linspace(0.0, 10.0, 10)
    ]
    assert all(a <= b for a, b in zip(tops, tops[1:]))
    report(10, f"rank-1 spike detected at scale 10 (top/second = "
               f"{strong.esd_after.eigenvalues[-1] / strong.esd_after.eigenvalues[-2]:.1f}), "
               f"absent at 0, top eigenvalue monotone over the sweep")


def _final_alpha_spread(assignment: str, seed: int) -> float:
    """Population std of the final alpha_hill over the layers the schedule assigns (all but the first and last)."""
    model = ModelSpec(widths=(32, 64, 64, 64, 64, 10), seed=seed)
    data = GaussianMixtureSpec(classes=10, dim=32, samples=1280, separation=3.0)
    sched = ScheduleConfig(eta0=0.1, total_epochs=6, update_interval_iters=5, assignment=assignment)
    policy = LambdaMinPolicy(variant="median")
    _, final = run_training(model, data, sched, policy, seed=seed)
    rows = analyze_snapshot(final, policy)[1:-1]
    return float(np.std([row.metrics.alpha_hill for row in rows]))


def test_criterion_11_tempbalance_narrows_the_alpha_spread():
    # the paper's mechanism: more rate to layers of larger alpha, less to those of smaller alpha, so the
    # scheduled layers' alphas end closer together than under one global rate; accuracy is not gated
    started = time.perf_counter()
    seeds = range(8)
    spreads = {a: [_final_alpha_spread(a, seed) for seed in seeds] for a in ("global_only", "tempbalance")}
    means = {a: float(np.mean(v)) for a, v in spreads.items()}
    assert means["tempbalance"] <= 0.75 * means["global_only"], spreads
    elapsed = time.perf_counter() - started
    report(11, f"mean final alpha spread of the scheduled layers over seeds 0-7: tempbalance "
               f"{means['tempbalance']:.4f} <= 0.75 x global_only {means['global_only']:.4f}, {elapsed:.2f}s")
