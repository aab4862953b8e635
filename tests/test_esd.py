import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempbal.errors import NumericalError
from tempbal.esd import ESD, NonFiniteMatrixError, compute_esd, orient, roundoff_floor
from tempbal.htsr import POLICY_VARIANTS, LambdaMinPolicy, layer_metrics
from tempbal.rmt_lab import PLSpectrumSpec, synth_pl_matrix
from tempbal.weight_store import LayerTensor, WeightSnapshot, load_snapshot, save_snapshot

EPS = np.finfo(np.float64).eps


def test_orient_already_wide():
    layer = LayerTensor("fc", np.zeros((10, 72)))
    mat = orient(layer)
    assert (mat.n, mat.m, mat.transposed) == (10, 72, False)


def test_orient_transposes_tall():
    layer = LayerTensor("fc", np.arange(720.0).reshape(72, 10))
    mat = orient(layer)
    assert (mat.n, mat.m, mat.transposed) == (10, 72, True)
    assert np.array_equal(mat.values, np.arange(720.0).reshape(72, 10).T)


def test_orient_leaves_a_tall_stored_layer_in_its_file_and_reads_a_wide_one(tmp_path):
    tall, wide = np.arange(720.0).reshape(72, 10), np.arange(720.0).reshape(10, 72)
    path = str(tmp_path / "two.wsnp")
    save_snapshot(WeightSnapshot(epoch=0, layers=(LayerTensor("tall", tall), LayerTensor("wide", wide))), path)
    stored = load_snapshot(path).layers
    mat = orient(stored[0])
    assert mat.rows is stored[0] and (mat.n, mat.m, mat.transposed) == (10, 72, True)
    assert np.array_equal(mat.values, tall.T)  # read whole only when asked for
    mat = orient(stored[1])
    assert isinstance(mat.rows, np.ndarray) and np.array_equal(mat.values, wide) and not mat.transposed


def test_orient_conv_reshape_matches_index_oracle():
    rng = np.random.default_rng(3)
    tensor = rng.normal(size=(4, 2, 3, 3))
    layer = LayerTensor("conv", tensor)
    mat = orient(layer)
    assert (mat.n, mat.m) == (4, 18)

    # oracle: place each tensor element by explicit row-major index arithmetic
    oracle = np.zeros((4, 18))
    for o in range(4):
        for c in range(2):
            for ki in range(3):
                for kj in range(3):
                    oracle[o, c * 9 + ki * 3 + kj] = tensor[o, c, ki, kj]
    assert np.array_equal(mat.values, oracle)

    lam = compute_esd(mat).eigenvalues
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
    mat = orient(layer)
    flat = layer.values.reshape(shape[0], -1)
    assert mat.n <= mat.m
    assert mat.transposed == (flat.shape[0] > flat.shape[1])
    assert np.array_equal(mat.values, flat.T if mat.transposed else flat)
    assert np.shares_memory(mat.values, layer.values)


def test_diagonal_esd():
    mat = orient(LayerTensor("diag", np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))
    lam = compute_esd(mat).eigenvalues
    assert np.allclose(lam, [1.0, 9.0], rtol=0, atol=1e-12)


def test_zero_matrix_esd():
    lam = compute_esd(orient(LayerTensor("zero", np.zeros((2, 5))))).eigenvalues
    assert np.array_equal(lam, [0.0, 0.0])


def test_eigenvalue_exactly_at_the_floor_reads_zero():
    # W W^T = diag(1, 2^-50, 1/4, 1/16): 2^-50 is exactly roundoff_floor(4) * lambda_max
    w = np.diag([1.0, 2.0**-25, 0.5, 0.25]) @ np.eye(4, 6)
    lam = compute_esd(orient(LayerTensor("edge", w))).eigenvalues
    assert 2.0**-50 == roundoff_floor(4)
    assert np.array_equal(lam, [0.0, 0.0625, 0.25, 1.0])


def test_gram_oracle_random():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(8, 12))
    lam = compute_esd(orient(LayerTensor("w", w))).eigenvalues
    oracle = np.sort(np.linalg.eigvalsh(w @ w.T))
    assert np.all(np.abs(lam - oracle) <= 1e-9 * np.maximum(np.abs(oracle), 1e-30))


def test_scale_equivariance():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(6, 9))
    c = 3.7
    lam = compute_esd(orient(LayerTensor("w", w))).eigenvalues
    lam_scaled = compute_esd(orient(LayerTensor("cw", c * w))).eigenvalues
    assert np.allclose(lam_scaled, c * c * lam, rtol=1e-9)


def test_orientation_invariance():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(5, 14))
    lam = compute_esd(orient(LayerTensor("w", w))).eigenvalues
    lam_t = compute_esd(orient(LayerTensor("wt", w.T))).eigenvalues
    assert np.allclose(lam, lam_t, rtol=1e-9)


def test_sum_identity_frobenius():
    rng = np.random.default_rng(14)
    for _ in range(20):
        w = rng.normal(size=(int(rng.integers(2, 20)), int(rng.integers(20, 40))))
        lam = compute_esd(orient(LayerTensor("w", w))).eigenvalues
        assert np.isclose(lam.sum(), np.linalg.norm(w) ** 2, rtol=1e-9)


def test_non_finite_rejected():
    w = np.ones((3, 4))
    w[1, 2] = np.nan
    with pytest.raises(NonFiniteMatrixError):
        compute_esd(orient(LayerTensor("bad", w)))


def test_esd_ascending_and_nonnegative():
    rng = np.random.default_rng(15)
    esd = compute_esd(orient(LayerTensor("w", rng.normal(size=(20, 30)))))
    lam = esd.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] >= 0
    assert esd.lambda_max == lam[-1]


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
        lam = compute_esd(orient(LayerTensor("rank2", raw))).eigenvalues
        # the 4 null-space eigenvalues are exact zeros, not roundoff
        assert np.count_nonzero(lam == 0.0) == 4
        assert np.allclose(lam[4:], svd_eigenvalues(w)[4:], rtol=1e-12)


def test_wide_rank_deficient_esd_has_exact_zeros():
    # the Gram product sums m = 4608 terms per entry, yet its null-space
    # roundoff stays under the n * eps * lambda_max floor
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 4608))
        lam = compute_esd(orient(LayerTensor("wide", w))).eigenvalues
        assert np.count_nonzero(lam == 0.0) == 6
        assert np.allclose(lam[6:], svd_eigenvalues(w)[6:], rtol=1e-12)


def test_esd_of_extreme_scales():
    w = np.random.default_rng(0).normal(size=(8, 12))
    unit = compute_esd(orient(LayerTensor("unit", w))).eigenvalues
    # 1e-150: eigenvalues near 1e-299, still normal floats
    tiny = compute_esd(orient(LayerTensor("tiny", w * 1e-150))).eigenvalues
    assert np.allclose(tiny * 1e300, unit, rtol=1e-12)
    # 1e160: the eigenvalues themselves pass float64's range
    with pytest.raises(NumericalError, match="overflows float64"):
        compute_esd(orient(LayerTensor("huge", w * 1e160)))


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
    mat = orient(LayerTensor("w", raw))
    lam = compute_esd(mat).eigenvalues
    svd = svd_eigenvalues(mat.values)
    # the Gram route is off by a few eps * lambda_max, and its floor zeroes
    # eigenvalues up to n * eps * lambda_max
    assert np.all(np.abs(lam - svd) <= 4 * mat.n * EPS * svd[-1])
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
