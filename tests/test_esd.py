import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempbal import cli, esd, train_engine
from tempbal.errors import NumericalError
from tempbal.esd import GRAM_STRIP, ESD, NonFiniteMatrixError, compute_esd, gram, matrix, orient, roundoff_floor
from tempbal.htsr import POLICY_VARIANTS, LambdaMinPolicy, layer_metrics
from tempbal.rmt_lab import PLSpectrumSpec, synth_pl_matrix
from tempbal.train_engine import snr_grad_term
from tempbal.weight_store import LayerTensor, WeightSnapshot, load_snapshot, save_snapshot

EPS = np.finfo(np.float64).eps


def test_orient_already_wide():
    layer = LayerTensor("fc", np.zeros((10, 72)))
    assert orient(layer) == (10, 72)
    assert gram(layer).shape == (10, 10)


def test_orient_transposes_tall():
    w = np.arange(720.0).reshape(72, 10)
    layer = LayerTensor("fc", w)
    assert orient(layer) == (10, 72)
    assert np.array_equal(matrix(layer.values), w.T)
    assert np.array_equal(gram(layer), w.T @ w)


def test_orient_opens_nothing_and_compute_esd_reads_the_file(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(4)
    layers = tuple(
        LayerTensor(name, rng.normal(size=shape))
        for name, shape in (("tall", (72, 10)), ("wide", (10, 72)), ("conv", (4, 2, 3, 3)))
    )
    path = str(tmp_path / "three.wsnp")
    save_snapshot(WeightSnapshot(epoch=0, layers=layers), path)
    stored = load_snapshot(path).layers
    for layer, in_memory in zip(stored, layers):
        assert gram(layer).shape == gram(in_memory).shape == (min(layer.shape),) * 2
        assert np.allclose(compute_esd(layer).eigenvalues, compute_esd(in_memory).eigenvalues, rtol=1e-13, atol=0)
    os.remove(path)  # only a read of the values can notice
    for layer, in_memory in zip(stored, layers):
        assert orient(layer) == orient(in_memory)
    assert [orient(layer) for layer in layers] == [(10, 72), (10, 72), (4, 18)]
    with pytest.raises(FileNotFoundError):
        compute_esd(stored[1])

    def load_then_remove(name):
        snap = load_snapshot(name)
        os.remove(name)
        return snap

    save_snapshot(WeightSnapshot(epoch=0, layers=layers), path)
    monkeypatch.setattr(cli, "load_snapshot", load_then_remove)
    assert cli.main(["analyze", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_orient_conv_reshape_matches_index_oracle():
    rng = np.random.default_rng(3)
    tensor = rng.normal(size=(4, 2, 3, 3))
    layer = LayerTensor("conv", tensor)
    assert orient(layer) == (4, 18)

    # oracle: place each tensor element by explicit row-major index arithmetic
    oracle = np.zeros((4, 18))
    for o in range(4):
        for c in range(2):
            for ki in range(3):
                for kj in range(3):
                    oracle[o, c * 9 + ki * 3 + kj] = tensor[o, c, ki, kj]
    assert np.array_equal(matrix(layer.values), oracle)
    assert np.array_equal(gram(layer), oracle @ oracle.T)

    lam = compute_esd(layer).eigenvalues
    lam_oracle = np.sort(np.linalg.eigvalsh(oracle @ oracle.T))
    assert np.allclose(lam, np.maximum(lam_oracle, 0.0), rtol=1e-9, atol=1e-12)


@settings(max_examples=100)
@given(st.one_of(st.tuples(st.integers(1, 8), st.integers(1, 8)), st.tuples(*[st.integers(1, 4)] * 4)))
@example((5, 2)).via("tall")
@example((2, 5)).via("wide")
@example((3, 3)).via("square")
@example((9, 2, 1, 1)).via("tall conv")
@example((2, 1, 2, 2)).via("wide conv")
def test_orient_property(shape):
    layer = LayerTensor("w", np.arange(float(np.prod(shape))).reshape(shape))
    n, m = orient(layer)
    flat = layer.values.reshape(shape[0], -1)
    tall = flat.shape[0] > flat.shape[1]
    assert n <= m and n == min(flat.shape)
    assert np.array_equal(matrix(layer.values), flat.T if tall else flat)
    assert matrix(layer.values).shape == (n, m)
    assert np.shares_memory(matrix(layer.values), layer.values)
    assert np.array_equal(gram(layer), flat.T @ flat if tall else flat @ flat.T)


def test_diagonal_esd():
    mat = LayerTensor("diag", np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    lam = compute_esd(mat).eigenvalues
    assert np.allclose(lam, [1.0, 9.0], rtol=0, atol=1e-12)


def test_zero_matrix_esd():
    lam = compute_esd(LayerTensor("zero", np.zeros((2, 5)))).eigenvalues
    assert np.array_equal(lam, [0.0, 0.0])


def test_eigenvalue_exactly_at_the_floor_reads_zero():
    # W W^T = diag(1, 2^-50, 1/4, 1/16): 2^-50 is exactly roundoff_floor(4) * lambda_max
    w = np.diag([1.0, 2.0**-25, 0.5, 0.25]) @ np.eye(4, 6)
    lam = compute_esd(LayerTensor("edge", w)).eigenvalues
    assert 2.0**-50 == roundoff_floor(4)
    assert np.array_equal(lam, [0.0, 0.0625, 0.25, 1.0])


def test_gram_oracle_random():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(8, 12))
    lam = compute_esd(LayerTensor("w", w)).eigenvalues
    oracle = np.sort(np.linalg.eigvalsh(w @ w.T))
    assert np.all(np.abs(lam - oracle) <= 1e-9 * np.maximum(np.abs(oracle), 1e-30))


def test_scale_equivariance():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(6, 9))
    c = 3.7
    lam = compute_esd(LayerTensor("w", w)).eigenvalues
    lam_scaled = compute_esd(LayerTensor("cw", c * w)).eigenvalues
    assert np.allclose(lam_scaled, c * c * lam, rtol=1e-9)


def test_orientation_invariance():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(5, 14))
    lam = compute_esd(LayerTensor("w", w)).eigenvalues
    lam_t = compute_esd(LayerTensor("wt", w.T)).eigenvalues
    assert np.allclose(lam, lam_t, rtol=1e-9)


def test_sum_identity_frobenius():
    rng = np.random.default_rng(14)
    for _ in range(20):
        w = rng.normal(size=(int(rng.integers(2, 20)), int(rng.integers(20, 40))))
        lam = compute_esd(LayerTensor("w", w)).eigenvalues
        assert np.isclose(lam.sum(), np.linalg.norm(w) ** 2, rtol=1e-9)


def test_non_finite_rejected():
    w = np.ones((3, 4))
    w[1, 2] = np.nan
    with pytest.raises(NonFiniteMatrixError):
        compute_esd(LayerTensor("bad", w))


def test_esd_ascending_and_nonnegative():
    rng = np.random.default_rng(15)
    esd = compute_esd(LayerTensor("w", rng.normal(size=(20, 30))))
    lam = esd.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] >= 0
    assert esd.lambda_max == lam[-1]


@pytest.mark.parametrize(
    "lam, what",
    [
        (np.ones((2, 2)), "must be 1-D"),
        (np.array([2.0, 1.0]), "ascending"),
        (np.array([-1.0, 1.0]), "nonnegative"),
        (np.array([np.nan, 1.0, 2.0, 3.0, 4.0]), "finite"),
        (np.array([1.0, 2.0, 3.0, 4.0, np.inf]), "finite"),
    ],
)
def test_esd_rejects_eigenvalues_out_of_form(lam, what):
    with pytest.raises(ValueError, match=what):
        ESD(eigenvalues=lam, source_name="bad")


# ---------------------------------------------------------------------------
# the Gram summed strip by strip


def strip_edge_shape(kind: str, n: int) -> tuple[int, ...]:
    """A raw shape whose W is n x m; stored, it is read in one block of n rows, in three, or in two and a ragged one."""
    return {
        "wide": (n, 2 * n + 3),  # one block
        "tall": (3 * n, n),  # three blocks of n rows
        "tall ragged": (2 * n + n // 2 + 1, n),  # a short last block
        "conv": (n, n // 9 + 1, 3, 3),  # wide once flattened: one block
        "conv tall": (2 * n + 1, n, 1, 1),  # two blocks and a ragged row
    }[kind]


@pytest.mark.parametrize("n", (1, GRAM_STRIP - 1, GRAM_STRIP, GRAM_STRIP + 1, 2 * GRAM_STRIP + 3))
@pytest.mark.parametrize("kind", ("wide", "tall", "tall ragged", "conv", "conv tall"))
def test_gram_strips_sum_to_the_one_block_product(tmp_path, kind, n):
    rng = np.random.default_rng(n)
    layer = LayerTensor(kind, rng.standard_t(3.0, size=strip_edge_shape(kind, n)))
    flat = layer.values.reshape(layer.values.shape[0], -1)
    expected = flat.T @ flat if flat.shape[0] > flat.shape[1] else flat @ flat.T
    path = str(tmp_path / "layer.wsnp")
    save_snapshot(WeightSnapshot(epoch=0, layers=(layer,)), path)
    (stored_layer,) = load_snapshot(path).layers
    in_memory, stored = gram(layer), gram(stored_layer)
    tol = 4 * n * EPS * np.max(np.abs(expected))
    for product in (in_memory, stored):
        assert product.shape == (n, n)
        assert np.max(np.abs(np.tril(product - expected))) <= tol  # the lower triangle is all gram fills
    assert np.max(np.abs(np.tril(stored - in_memory))) <= tol


def test_gram_of_a_tall_stored_layer_holds_one_strip_besides_the_gram_and_a_block(tmp_path):
    n = 4 * GRAM_STRIP
    path = str(tmp_path / "tall.wsnp")
    save_snapshot(WeightSnapshot(epoch=0, layers=(LayerTensor("tall", np.ones((16 * n, n))),)), path)
    (layer,) = load_snapshot(path).layers
    tracemalloc.start()
    try:
        product = gram(layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.tril(product), np.tril(np.full((n, n), 16.0 * n)))
    # the Gram and a block of n rows are n^2 doubles each, one strip's product GRAM_STRIP * n: 2.25 n^2 here;
    # a second n x n product would make it 3
    assert peak < 2.5 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("shape", [(300, GRAM_STRIP + 1), (GRAM_STRIP + 1, 300), (40, 9), (6, 4, 3, 3)])
def test_the_eigensolvers_read_only_the_lower_triangle_of_the_gram(monkeypatch, shape):
    layer = LayerTensor("w", np.random.default_rng(sum(shape)).standard_t(3.0, size=shape))
    lam, inc = compute_esd(layer).eigenvalues, snr_grad_term(layer, 0.01)

    def nan_above_the_diagonal(layer):
        product = gram(layer)
        product[np.triu_indices_from(product, k=1)] = np.nan
        return product

    monkeypatch.setattr(esd, "gram", nan_above_the_diagonal)
    monkeypatch.setattr(train_engine, "gram", nan_above_the_diagonal)
    assert np.array_equal(compute_esd(layer).eigenvalues, lam)
    assert np.array_equal(snr_grad_term(layer, 0.01), inc)


# ---------------------------------------------------------------------------
# the Gram route against the SVD


def svd_eigenvalues(w):
    """Ascending squared singular values: the Gram spectrum without forming W W^T."""
    sv = np.linalg.svd(w, compute_uv=False)
    return (sv * sv)[::-1]


def test_rank_deficient_esd_has_exact_zeros():
    rng = np.random.default_rng(16)
    w = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 10))
    for raw in (w, w.T):
        lam = compute_esd(LayerTensor("rank2", raw)).eigenvalues
        # the 4 null-space eigenvalues are exact zeros, not roundoff
        assert np.count_nonzero(lam == 0.0) == 4
        assert np.allclose(lam[4:], svd_eigenvalues(w)[4:], rtol=1e-12)


def test_wide_rank_deficient_esd_has_exact_zeros():
    # the Gram product sums m = 4608 terms per entry, yet its null-space
    # roundoff stays under the n * eps * lambda_max floor
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 4608))
        lam = compute_esd(LayerTensor("wide", w)).eigenvalues
        assert np.count_nonzero(lam == 0.0) == 6
        assert np.allclose(lam[6:], svd_eigenvalues(w)[6:], rtol=1e-12)


def test_esd_of_extreme_scales():
    w = np.random.default_rng(0).normal(size=(8, 12))
    unit = compute_esd(LayerTensor("unit", w)).eigenvalues
    # 1e-150: eigenvalues near 1e-299, still normal floats
    tiny = compute_esd(LayerTensor("tiny", w * 1e-150)).eigenvalues
    assert np.allclose(tiny * 1e300, unit, rtol=1e-12)
    # 1e160: the eigenvalues themselves pass float64's range
    with pytest.raises(NumericalError, match="overflows float64"):
        compute_esd(LayerTensor("huge", w * 1e160))


@st.composite
def gram_layers(draw):
    """A raw layer with n >= 4 after orientation, wide or tall: plain, column-centred, rank-r, zero or 4-D conv."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    structure = draw(st.sampled_from(("plain", "centred", "rank", "zero", "conv")))
    if structure == "conv":
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cin = draw(st.integers(-(-4 // (kh * kw)), 40 // (kh * kw)))
        return rng.normal(size=(rows, cin, kh, kw))
    w = rng.normal(size=(rows, cols))
    if structure == "centred":
        w -= w.mean(axis=0)
    elif structure == "rank":
        r = draw(st.integers(1, min(rows, cols)))
        w = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
    elif structure == "zero":
        w[:] = 0.0
    return w


@settings(max_examples=200)
@given(gram_layers())
def test_gram_route_matches_svd_property(raw):
    layer = LayerTensor("w", raw)
    lam = compute_esd(layer).eigenvalues
    svd = svd_eigenvalues(matrix(layer.values))
    # the Gram route is off by a few eps * lambda_max, and its floor zeroes
    # eigenvalues up to n * eps * lambda_max
    assert np.all(np.abs(lam - svd) <= 4 * orient(layer)[0] * EPS * svd[-1])
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] >= 0


@pytest.mark.parametrize("size", (256, 1024))
def test_gram_route_matches_svd_on_prescribed_spectra(size):
    for decay in (0.5, 1.5, 3.0):
        mat = synth_pl_matrix(PLSpectrumSpec(size=size, decay=decay, seed=size))
        gram = compute_esd(mat)
        svd = ESD(eigenvalues=svd_eigenvalues(mat.values), source_name="svd")
        for variant in POLICY_VARIANTS:
            policy = LambdaMinPolicy(variant=variant)
            got, want = layer_metrics(gram, policy), layer_metrics(svd, policy)
            assert got.k == want.k, (decay, variant)
            assert got.alpha_hill == pytest.approx(want.alpha_hill, rel=1e-6), (decay, variant)
