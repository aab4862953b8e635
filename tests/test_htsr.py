import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempbal.errors import NumericalError
from tempbal.esd import ESD, compute_esd, roundoff_floor
from tempbal.htsr import (
    DegenerateSpectrumError,
    DegenerateThresholdError,
    LambdaMinPolicy,
    analyze_snapshot,
    hill_alpha,
    layer_metrics,
    log10_histogram,
    select_k,
)
from tempbal import htsr
from tempbal.train_engine import ConvergenceError, snr_grad_term
from tempbal.weight_store import (
    LayerTensor,
    StoredLayer,
    WeightSnapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
)


def esd_of(values) -> ESD:
    lam = np.asarray(values, dtype=np.float64)
    return ESD(eigenvalues=lam, source_name="test")


# ---------------------------------------------------------------------------
# hill_alpha


def test_hill_exponential_spectrum():
    e = math.e
    esd = esd_of([1.0, e, e**2, e**3])
    # log terms are ln(e^3/e)=2 and ln(e^2/e)=1
    assert hill_alpha(esd, 2) == pytest.approx(1 + 2 / 3, abs=1e-12)


def test_hill_powers_of_two():
    esd = esd_of([1.0, 2.0, 4.0, 8.0])
    assert hill_alpha(esd, 2) == pytest.approx(1 + 2 / (3 * math.log(2)), abs=1e-12)


def test_hill_flat_tail_returns_inf():
    assert hill_alpha(esd_of([5.0, 5.0, 5.0, 5.0]), 2) == math.inf


def test_hill_scale_invariance_exact():
    rng = np.random.default_rng(0)
    lam = np.sort(rng.uniform(0.1, 50.0, size=32))
    for c in (2.0, 0.5, 256.0):
        # scaling by powers of two is exact in floating point
        assert hill_alpha(esd_of(c * lam), 16) == hill_alpha(esd_of(lam), 16)


def test_hill_k_bounds():
    esd = esd_of([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        hill_alpha(esd, 0)
    with pytest.raises(ValueError):
        hill_alpha(esd, 4)


def test_hill_zero_threshold():
    esd = esd_of([0.0, 0.0, 1.0, 2.0])
    with pytest.raises(DegenerateThresholdError):
        hill_alpha(esd, 2)


# ---------------------------------------------------------------------------
# select_k


def test_median_policy():
    esd = esd_of(np.arange(1.0, 11.0))
    assert select_k(esd, LambdaMinPolicy(variant="median")) == 5


def test_median_policy_odd():
    esd = esd_of(np.arange(1.0, 10.0))
    assert select_k(esd, LambdaMinPolicy(variant="median")) == 4


def test_select_k_needs_four_eigenvalues():
    with pytest.raises(DegenerateSpectrumError, match="need at least 4 eigenvalues, got 3"):
        select_k(esd_of([1.0, 2.0, 3.0]), LambdaMinPolicy())


def test_select_k_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        select_k(esd_of(np.zeros(8)), LambdaMinPolicy())


def test_ks_recovers_tail_threshold():
    # exact quantile samples of a power-law tail (alpha=2.5, lambda_min=1)
    # above a uniform bulk in (0, 1): the KS-optimal threshold should land
    # within one order of magnitude of 1.0
    n_tail = 512
    q = (np.arange(1, n_tail + 1) - 0.5) / n_tail
    tail = (1 - q) ** (1 / (1 - 2.5))
    bulk = np.random.default_rng(42).uniform(0.0, 1.0, 512)
    lam = np.sort(np.concatenate([bulk, tail]))
    esd = esd_of(lam)
    k = select_k(esd, LambdaMinPolicy(variant="ks"))
    threshold = lam[lam.size - k - 1]
    assert 0.1 <= threshold <= 10.0
    assert hill_alpha(esd, k) == pytest.approx(2.5, rel=0.1)


def test_ks_distance_in_unit_interval():
    # every candidate's KS distance is a sup-norm of CDF differences
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(0.01, 100.0, 64))
    n = lam.size
    for k in range(2, n):
        alpha = hill_alpha(esd_of(lam), k)
        tail = lam[n - k:]
        model = 1 - (tail / lam[n - k - 1]) ** (1 - alpha)
        emp = np.arange(1, k + 1) / k
        d = np.max(np.abs(emp - model))
        assert 0.0 <= d <= 1.0


def test_fixfinger_counts_tail_above_peak():
    # sharp bulk exactly at 0.1 (the histogram's left edge) plus 50 values
    # spread above 1.0; the tail count equals the values above the peak
    rng = np.random.default_rng(9)
    bulk = np.full(450, 0.1)
    tail = np.exp(rng.uniform(np.log(1.0), np.log(30.0), 50))
    lam = np.sort(np.concatenate([bulk, tail]))
    k = select_k(esd_of(lam), LambdaMinPolicy(variant="fixfinger"))
    assert 45 <= k <= 55


def test_fixfinger_clamps_into_range():
    lam = np.full(16, 3.0)
    k = select_k(esd_of(lam), LambdaMinPolicy(variant="fixfinger"))
    assert 2 <= k <= 15


def test_fixfinger_clamps_a_lone_spike_up_to_two():
    # the peak bin holds the flat bulk at its left edge, so only the spike lies above it: a count of 1
    lam = np.array([1.0] * 39 + [100.0])
    assert select_k(esd_of(lam), LambdaMinPolicy(variant="fixfinger", histogram_bins=10)) == 2


def test_ks_ties_break_toward_the_largest_k_across_candidate_blocks():
    # every candidate of a flat spectrum is at distance 1; n = 200 spans four blocks of KS_CANDIDATES
    for n in (40, 200):
        assert select_k(esd_of(np.ones(n)), LambdaMinPolicy(variant="ks")) == n - 1


def test_policy_validation():
    with pytest.raises(ValueError):
        LambdaMinPolicy(variant="nope")
    with pytest.raises(ValueError):
        LambdaMinPolicy(variant="fixfinger", histogram_bins=1)


# ---------------------------------------------------------------------------
# layer_metrics


def test_layer_metrics_powers_of_two():
    esd = esd_of([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    met = layer_metrics(esd, LambdaMinPolicy(variant="median"))
    # k=4: log terms sum to (4+3+2+1) ln 2 = 10 ln 2
    assert met.k == 4
    assert met.alpha_hill == pytest.approx(1 + 4 / (10 * math.log(2)), abs=1e-12)
    assert met.spectral_norm == 128.0
    assert met.lambda_min == 8.0
    assert met.alpha_weighted == pytest.approx(met.alpha_hill * math.log10(128.0), abs=1e-12)


def test_layer_metrics_zero_matrix_degenerate():
    esd = compute_esd(LayerTensor("zero", np.zeros((6, 8))))
    with pytest.raises(DegenerateSpectrumError):
        layer_metrics(esd, LambdaMinPolicy())


def test_spectral_norm_is_top_esd_eigenvalue():
    esd = compute_esd(LayerTensor("diag", np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))
    # need >= 4 eigenvalues for select_k, so check the field directly
    assert esd.lambda_max == pytest.approx(9.0, abs=1e-12)


def test_layer_metrics_flat_tail_sentinel():
    met = layer_metrics(esd_of(np.full(8, 2.0)), LambdaMinPolicy())
    assert met.alpha_hill == math.inf
    assert met.alpha_weighted == math.inf


# ---------------------------------------------------------------------------
# top singular pair: snr_grad_term's increment lambda_sr * sigma * u v^T,
# from the Gram eigensolve


def check_top_pair(layer, sigma_1, rel, tol=1e-9, lambda_sr=0.1):
    """Check that snr_grad_term's increment is lambda_sr * sigma_1 * u v^T for a top pair (u, v) within tol.

    ||inc||_F = lambda_sr * sigma and <inc, W> = lambda_sr * sigma^2 pin the
    pair with no sign convention. With p = inc / lambda_sr = sigma u v^T,
    W p^T - p p^T = sigma (W v - sigma u) u^T and p^T W - p^T p =
    sigma v (W^T u - sigma v)^T carry the two pair residuals.
    """
    inc = snr_grad_term(layer, lambda_sr, tol=tol)
    assert inc.shape == layer.values.shape
    w, inc = layer.values.reshape(layer.shape), inc.reshape(layer.shape)
    sigma = float(np.linalg.norm(inc)) / lambda_sr
    assert sigma == pytest.approx(sigma_1, rel=rel)
    assert float(np.vdot(inc, w)) == pytest.approx(lambda_sr * sigma_1**2, rel=rel)
    p = inc / lambda_sr
    assert np.linalg.norm(w @ p.T - p @ p.T) <= tol * sigma**2
    assert np.linalg.norm(p.T @ w - p.T @ p) <= tol * sigma**2


def top_singular_value(w):
    return float(np.linalg.svd(w, compute_uv=False)[0])


def test_snr_pair_diagonal():
    w = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    check_top_pair(LayerTensor("diag", w), 3.0, rel=1e-12)


def test_snr_pair_zero_matrix():
    inc = snr_grad_term(LayerTensor("zero", np.zeros((2, 5))), 0.1)
    assert inc.shape == (2, 5) and not inc.any()


def test_snr_pair_matches_svd():
    rng = np.random.default_rng(100)
    for _ in range(25):
        w = rng.normal(size=(int(rng.integers(2, 50)), int(rng.integers(2, 50))))
        check_top_pair(LayerTensor("w", w), top_singular_value(w), rel=1e-12)


def test_snr_pair_squared_matches_esd():
    rng = np.random.default_rng(101)
    layer = LayerTensor("w", rng.normal(size=(50, 30)))
    check_top_pair(layer, math.sqrt(compute_esd(layer).lambda_max), rel=1e-12)


def test_snr_pair_tol_below_its_residual_raises_convergence_error():
    rng = np.random.default_rng(102)
    layer = LayerTensor("w", rng.normal(size=(12, 20)))
    w = layer.values
    u = np.linalg.eigh(w @ w.T)[1][:, -1]  # the pair snr_grad_term forms, step by step
    sigma = float(np.linalg.norm(w.T @ u))
    residual = float(np.linalg.norm(w @ (w.T @ u / sigma) - sigma * u))
    assert residual > 0
    snr_grad_term(layer, 0.1, tol=2 * residual / sigma)
    with pytest.raises(ConvergenceError) as info:
        snr_grad_term(layer, 0.1, tol=residual / sigma / 2)
    assert info.value.residual == residual


def test_snr_pair_deterministic():
    layer = LayerTensor("w", np.random.default_rng(102).normal(size=(12, 20)))
    assert np.array_equal(snr_grad_term(layer, 0.1), snr_grad_term(layer, 0.1))


# columns sum to zero, so the all-ones vector is in the left null space
ZERO_COLUMN_SUMS = np.array([[1.0, -1.0, 2.0], [-1.0, 1.0, -2.0]])


def test_snr_pair_zero_column_sums():
    check_top_pair(LayerTensor("w", ZERO_COLUMN_SUMS), math.sqrt(12.0), rel=1e-12)


def test_snr_gradient_zero_column_sums():
    inc = snr_grad_term(LayerTensor("w", ZERO_COLUMN_SUMS), 0.1)
    # lambda_sr * sigma * u v^T with unit u, v has norm lambda_sr * sigma
    assert np.linalg.norm(inc) == pytest.approx(0.1 * math.sqrt(12.0), rel=1e-9)


def test_snr_pair_column_centred_default_budget():
    w = np.random.default_rng(0).normal(size=(8, 16))
    w -= w.mean(axis=0)
    check_top_pair(LayerTensor("centred", w), top_singular_value(w), rel=1e-12)


@st.composite
def structured_layers(draw):
    """A layer: plain, column-centred, rank-r, or a 4-D conv tensor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    structure = draw(st.sampled_from(("plain", "centred", "rank", "conv")))
    if structure == "conv":
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cin = draw(st.integers(2, 40 // (kh * kw)))
        return LayerTensor(structure, rng.normal(size=(n, cin, kh, kw)))
    w = rng.normal(size=(n, m))
    if structure == "centred":
        w -= w.mean(axis=0)
    elif structure == "rank":
        r = draw(st.integers(1, min(n, m)))
        w = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
    return LayerTensor(structure, w)


@settings(max_examples=200)
@given(structured_layers())
def test_snr_pair_property(layer):
    check_top_pair(layer, top_singular_value(layer.values.reshape(layer.shape)), rel=1e-12)


# ---------------------------------------------------------------------------
# snapshot analysis


def make_snapshot():
    rng = np.random.default_rng(55)
    return WeightSnapshot(
        epoch=0,
        layers=(
            LayerTensor("a", rng.normal(size=(16, 24))),
            LayerTensor("dead", np.zeros((6, 8))),
            LayerTensor("c", rng.normal(size=(4, 2, 3, 3))),
        ),
    )


def test_analyze_snapshot_captures_degenerate_layers():
    rows = analyze_snapshot(make_snapshot(), LambdaMinPolicy())
    by_name = {r.name: r for r in rows}
    assert [r.name for r in rows] == ["a", "dead", "c"]
    assert by_name["a"].metrics is not None
    assert by_name["dead"].metrics is None
    assert by_name["dead"].error
    assert by_name["c"].n == 4 and by_name["c"].m == 18


def test_only_a_numerical_failure_makes_a_layer_fall_back(monkeypatch):
    # a layer with fewer than 4 eigenvalues is degenerate, with the reason select_k gives
    thin = WeightSnapshot(epoch=0, layers=(LayerTensor("thin", np.ones((3, 8))),))
    (row,) = analyze_snapshot(thin, LambdaMinPolicy())
    assert row.metrics is None and row.error == "'thin': need at least 4 eigenvalues, got 3"

    def raise_(exc):
        def compute_esd(layer):
            raise exc
        return compute_esd

    # LAPACK's failure to converge is numerical: the layer falls back
    monkeypatch.setattr(htsr, "compute_esd", raise_(np.linalg.LinAlgError("Eigenvalues did not converge")))
    rows = analyze_snapshot(make_snapshot(), LambdaMinPolicy())
    assert all(row.metrics is None and row.error == "Eigenvalues did not converge" for row in rows)
    # any other ValueError is a defect, which must not pass for a degenerate layer
    monkeypatch.setattr(htsr, "compute_esd", raise_(ValueError("operands could not be broadcast together")))
    with pytest.raises(ValueError, match="operands could not be broadcast together"):
        analyze_snapshot(make_snapshot(), LambdaMinPolicy())


def test_analyze_snapshot_of_a_loaded_file_holds_one_layer_at_a_time(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    shapes = {"fc0": (24, 40), "tall": (40, 24), "conv": (6, 2, 3, 3), "fc3": (24, 40)}
    snap = WeightSnapshot(epoch=0, layers=tuple(LayerTensor(name, rng.normal(size=dims)) for name, dims in shapes.items()))
    path = tmp_path / "four.wsnp"
    save_snapshot(snap, str(path))
    expected = analyze_snapshot(snap, LambdaMinPolicy())
    buffers, solves = {}, []
    row_blocks, eigvalsh = StoredLayer.row_blocks, np.linalg.eigvalsh

    def read(layer, rows):
        for block in row_blocks(layer, rows):
            buffers.setdefault(layer.name, weakref.ref(block.base))
            yield block

    def solve(gram):
        # every layer so far, this one too, was read through row_blocks and freed before this eigensolve
        assert len(buffers) == len(solves) + 1 and all(ref() is None for ref in buffers.values())
        solves.append(gram.shape)
        return eigvalsh(gram)

    monkeypatch.setattr(StoredLayer, "row_blocks", read)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    rows = analyze_snapshot(load_snapshot(str(path)), LambdaMinPolicy())
    assert solves == [(24, 24), (24, 24), (6, 6), (24, 24)]
    assert [(row.name, row.n, row.m) for row in rows] == [(row.name, row.n, row.m) for row in expected]
    for got, want in zip(rows, expected):
        lam = want.esd.eigenvalues
        assert got.metrics.k == want.metrics.k
        # a wide layer is one block, as in memory; the tall one's sum runs in blocks
        assert got.esd.eigenvalues.tobytes() == lam.tobytes() or got.name == "tall"
        assert np.max(np.abs(got.esd.eigenvalues - lam)) <= 4 * roundoff_floor(want.n) * lam[-1]


def eager_and_streamed(tmp_path, snap, variant):
    """analyze_snapshot of snap read whole (read_snapshot) and loaded from a file (load_snapshot)."""
    path = tmp_path / "snap.wsnp"
    save_snapshot(snap, str(path))
    policy = LambdaMinPolicy(variant=variant)
    with open(path, "rb") as fh:
        eager = analyze_snapshot(read_snapshot(fh), policy)
    return eager, analyze_snapshot(load_snapshot(str(path)), policy)


@pytest.mark.parametrize("variant", ["median", "ks", "fixfinger"])
def test_a_tall_stored_layer_streams_to_the_eager_spectrum(tmp_path, variant):
    rng = np.random.default_rng(21)
    n = 24
    # 3n + 5 rows: three full blocks and a short one; the conv has 80 > 4*3*3 rows
    tall = rng.standard_t(3.0, size=(3 * n + 5, n))
    conv = rng.standard_t(3.0, size=(80, 4, 3, 3))
    snap = WeightSnapshot(epoch=0, layers=(LayerTensor("tall", tall), LayerTensor("conv", conv)))
    eager, streamed = eager_and_streamed(tmp_path, snap, variant)
    assert [(row.name, row.n, row.m) for row in streamed] == [("tall", n, 3 * n + 5), ("conv", 36, 80)]
    for want, got in zip(eager, streamed):
        lam = want.esd.eigenvalues
        tol = 4 * roundoff_floor(want.n) * lam[-1]
        assert np.max(np.abs(got.esd.eigenvalues - lam)) <= tol, want.name
        assert got.metrics.k == want.metrics.k, want.name
        assert got.metrics.alpha_hill == pytest.approx(want.metrics.alpha_hill, rel=1e-12), want.name


def test_a_tall_stored_layer_with_a_nonfinite_last_block_is_degenerate_as_in_memory(tmp_path):
    tall = np.random.default_rng(22).normal(size=(3 * 8 + 5, 8))
    tall[-1, 3] = np.nan
    snap = WeightSnapshot(epoch=0, layers=(LayerTensor("tall", tall),))
    eager, streamed = eager_and_streamed(tmp_path, snap, "median")
    assert streamed == eager
    assert streamed[0].metrics is None and "non-finite entries" in streamed[0].error


def test_analyze_memory_follows_the_gram_of_a_tall_stored_layer(tmp_path):
    n = 256  # two strips of the Gram (GRAM_STRIP = 128)
    layer = LayerTensor("tall", np.random.default_rng(23).normal(size=(16 * n, n)))
    path = tmp_path / "tall.wsnp"
    save_snapshot(WeightSnapshot(epoch=0, layers=(layer,)), str(path))
    expected = analyze_snapshot(WeightSnapshot(epoch=0, layers=(layer,)), LambdaMinPolicy(variant="ks"))
    del layer
    tracemalloc.start()
    try:
        rows = analyze_snapshot(load_snapshot(str(path)), LambdaMinPolicy(variant="ks"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the layer is 16 n^2 doubles; the Gram and a block of n rows are n^2 each, and one strip's product
    # 128 n: 2.5 n^2
    assert peak < 2.75 * n * n * 8, peak / (n * n * 8)
    assert rows[0].metrics.k == expected[0].metrics.k


# ---------------------------------------------------------------------------
# rank-deficient layers


def rank2_layer():
    rng = np.random.default_rng(16)
    return rng.normal(size=(6, 2)) @ rng.normal(size=(2, 10))


def test_rank_deficient_median_threshold_is_degenerate():
    # median k = 3 puts lambda_(n-k) in the 4-dimensional null space
    esd = compute_esd(LayerTensor("rank2", rank2_layer()))
    with pytest.raises(DegenerateThresholdError):
        layer_metrics(esd, LambdaMinPolicy(variant="median"))
    snapshot = WeightSnapshot(epoch=0, layers=(LayerTensor("rank2", rank2_layer()),))
    (row,) = analyze_snapshot(snapshot, LambdaMinPolicy(variant="median"))
    assert row.metrics is None
    assert "tail threshold" in row.error


# rank 6 of 16 with a prescribed spectrum whose histogram peak (the two 2s)
# sits inside the nonzero part, above the smallest nonzero eigenvalue 1
RANK6_SPECTRUM = np.array([1.0, 2.0, 2.0, 5.0, 5.0, 20.0])


def test_rank_deficient_fixfinger_threshold_off_null_space():
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(16, 6)))
    v, _ = np.linalg.qr(rng.normal(size=(24, 6)))
    w = (u * np.sqrt(RANK6_SPECTRUM)) @ v.T
    met = layer_metrics(compute_esd(LayerTensor("rank6", w)), LambdaMinPolicy(variant="fixfinger"))
    assert met.k == 5
    assert met.lambda_min >= RANK6_SPECTRUM.min() * (1 - 1e-12)


def test_rank_deficient_fixfinger_peak_in_first_bin():
    # rank 5 of 16: the peak is the first log10 bin, whose left edge is the
    # smallest positive eigenvalue; it is not above itself, so k = r - 1 = 4
    # whichever way log10 and back would round it
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(16, 5)) @ rng.normal(size=(5, 24))
        met = layer_metrics(compute_esd(LayerTensor("rank5", w)), LambdaMinPolicy(variant="fixfinger"))
        assert met.k == 4, seed
        assert met.lambda_min > 0


# ---------------------------------------------------------------------------
# flat spectra: every singular value equal, so the eigenvalues differ by roundoff


def flat_layer(n, m, seed=0):
    """n x m with every singular value 3: 3 Q^T with Q's columns orthonormal."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(max(n, m), min(n, m))))
    return 3.0 * (q.T if n <= m else q)


@pytest.mark.parametrize("c", [1e-3, 0.1, 1 / 3, 1.0, 7.3, 1e3])
def test_flat_layer_reads_flat_at_every_scale(c):
    # at c = 1/3 the eigenvalues sit near 1, where their log10 span has room for distinct edges
    esd = compute_esd(LayerTensor("flat", c * flat_layer(8, 12)))
    for variant, k in (("median", 4), ("ks", 7), ("fixfinger", 7)):
        met = layer_metrics(esd, LambdaMinPolicy(variant=variant))
        assert (met.k, met.alpha_hill) == (k, math.inf), variant


def test_flat_tail_bound_admits_the_roundoff_of_a_flat_layer_and_no_more_than_three_times_it():
    # FLAT_TAIL_ROUNDOFFS is calibrated on layers whose singular values are all equal. This one's
    # worst k-value log-sum is 2.47 k n eps (n = 6, k = 5): every k must read flat, and a
    # one-value tail of three times that ratio must be fit
    n = 6
    lam = compute_esd(LayerTensor("flat", flat_layer(n, 197, seed=55))).eigenvalues
    assert all(hill_alpha(esd_of(lam), k) == math.inf for k in range(1, n))
    worst = max(np.sum(np.log(lam[n - k:] / lam[n - k - 1])) / (k * roundoff_floor(n)) for k in range(1, n))
    spike = math.exp(3 * worst * roundoff_floor(n))
    assert math.isfinite(hill_alpha(esd_of([1.0] * (n - 1) + [spike]), 1))


def test_log10_histogram_bins_a_flat_or_narrow_span_like_a_zero_span():
    eps = np.finfo(float).eps
    cases = (
        (np.full(6, 2.0), (2, 7, 100, 10_000)),  # a zero span
        (1.0 + 2 * eps * np.arange(6), (2, 7, 100, 10_000)),  # flat to roundoff
        (1e300 * (1.0 + 1e-13 * np.arange(6)), (10_000,)),  # no room for 10 000 edges
    )
    for lam, all_bins in cases:
        for bins in all_bins:
            counts, edges = log10_histogram(lam, bins)
            assert counts[bins // 2] == 6 and counts.sum() == 6
            assert edges[-1] - edges[0] == pytest.approx(1.0)
            assert edges[bins // 2] < np.log10(lam[0]) and np.log10(lam[-1]) < edges[bins // 2 + 1]


def test_log10_histogram_of_a_spread_spectrum_is_numpys():
    lam = np.concatenate([np.zeros(3), np.sort(np.random.default_rng(4).pareto(2.0, 40)) + 1e-3])
    for bins in (2, 10, 100):
        counts, edges = log10_histogram(lam, bins)
        want_counts, want_edges = np.histogram(np.log10(lam[3:]), bins=bins)
        assert np.array_equal(counts, want_counts) and np.array_equal(edges, want_edges)


@st.composite
def scalable_spectra(draw):
    """The ESD of a small Student-t (heavy-tailed), rank-deficient or flat layer."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(4, 32))
    m = draw(st.integers(n, 48))
    kind = draw(st.sampled_from(("student_t", "rank", "flat")))
    if kind == "student_t":
        w = rng.standard_t(draw(st.sampled_from((1.5, 2.5, 4.0))), size=(n, m))
    elif kind == "rank":
        r = draw(st.integers(1, n - 1))
        w = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
    else:
        w = flat_layer(n, m, seed)
    return compute_esd(LayerTensor(kind, w))


def outcome(fn, *args):
    """fn(*args), or the type of the NumericalError it raises."""
    try:
        return fn(*args)
    except NumericalError as exc:
        return type(exc)


def ks_by_loop(lam):
    """The KS selection as one loop over k, each log-sum taken on its own: the reference for htsr's blocks."""
    n = lam.size
    best_k, best_d = None, math.inf
    log_lam = np.log(lam, out=np.full(n, -math.inf), where=lam > 0)
    for k in range(2, n):
        threshold = lam[n - k - 1]
        if threshold <= 0.0:
            continue
        tail_logs = log_lam[n - k:] - math.log(threshold)
        log_sum = float(tail_logs.sum())
        if log_sum <= htsr.FLAT_TAIL_ROUNDOFFS * k * roundoff_floor(n):
            d = 1.0
        else:
            alpha = 1.0 + k / log_sum
            model = 1.0 - np.exp((1.0 - alpha) * tail_logs)
            d = float(np.max(np.abs(np.arange(1, k + 1) / k - model)))
        if d <= best_d:
            best_k, best_d = k, d
    if best_k is None:
        raise DegenerateSpectrumError("no candidate")
    return best_k


@settings(max_examples=300)
@given(scalable_spectra(), st.floats(1e-3, 1e3))
def test_ks_selection_matches_the_per_k_loop(esd, c):
    # the log-sums differ from the loop's in the last bits, which must not flip a k
    for lam in (esd.eigenvalues, c * esd.eigenvalues):
        assert outcome(htsr._select_k_ks, lam) == outcome(ks_by_loop, lam)


def test_ks_selection_matches_the_per_k_loop_across_candidate_blocks():
    # n = 300 spans five blocks of KS_CANDIDATES
    rng = np.random.default_rng(31)
    for w in (rng.standard_t(2.5, size=(300, 420)), rng.normal(size=(300, 40)) @ rng.normal(size=(40, 420))):
        lam = compute_esd(LayerTensor("w", w)).eigenvalues
        assert htsr._select_k_ks(lam) == ks_by_loop(lam)


@settings(max_examples=300)
@given(scalable_spectra(), st.floats(1e-3, 1e3))
def test_hill_alpha_and_select_k_are_invariant_to_eigenvalue_scale(esd, c):
    scaled = ESD(eigenvalues=c * esd.eigenvalues, source_name=esd.source_name)
    for variant in ("median", "ks"):
        policy = LambdaMinPolicy(variant=variant)
        k = outcome(select_k, esd, policy)
        assert outcome(select_k, scaled, policy) == k, variant
        if not isinstance(k, int):
            continue  # a rank-1 spectrum leaves ks no candidate at either scale
        alpha, scaled_alpha = outcome(hill_alpha, esd, k), outcome(hill_alpha, scaled, k)
        if isinstance(alpha, float) and math.isfinite(alpha):
            assert scaled_alpha == pytest.approx(alpha, rel=1e-12), variant
        else:
            assert scaled_alpha == alpha, variant  # +inf, or the same error
        if esd.source_name == "flat":
            assert alpha == math.inf


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40), m=st.integers(40, 80), zeros=st.integers(1, 19),
    df=st.sampled_from((1.5, 2.5, 4.0)), variant=st.sampled_from(("ks", "fixfinger")),
)
@example(seed=1, n=40, m=40, zeros=19, df=1.5, variant="ks")  # turns tall: 59 x 40
@example(seed=2, n=35, m=41, zeros=10, df=4.0, variant="fixfinger")
def test_zero_rows_move_no_fit_under_ks_or_fixfinger(seed, n, m, zeros, df, variant):
    # a zero row adds a zero eigenvalue (or, once the layer turns tall, leaves W^T W as it was), and the
    # ks and fixfinger thresholds read only the positive ones; median is left out: its k = n // 2 counts
    # the zeros, the rank-deficient threshold that ROADMAP item 5 fixes
    w = np.random.default_rng(seed).standard_t(df, size=(n, m))
    padded = np.vstack([w, np.zeros((zeros, m))])
    policy = LambdaMinPolicy(variant=variant)
    fit, padded_fit = (layer_metrics(compute_esd(LayerTensor("w", v)), policy) for v in (w, padded))
    assert padded_fit.k == fit.k
    assert padded_fit.alpha_hill == pytest.approx(fit.alpha_hill, rel=1e-12, abs=0)
