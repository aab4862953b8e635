import numpy as np
import pytest

from tempbal.esd import compute_esd, orient_array
from tempbal.htsr import LambdaMinPolicy, layer_metrics
from tempbal.errors import ConfigError
from tempbal.esd import ESD
from tempbal.rmt_lab import (
    PLSpectrumSpec,
    SpikeResult,
    max_decay,
    pl_eigenvalues,
    spike_experiment,
    synth_pl_matrix,
    verify_s_alpha,
)


def test_flat_spectrum():
    spec = PLSpectrumSpec(size=8, decay=0.0, lambda1=1.0, seed=0)
    lam = compute_esd(synth_pl_matrix(spec)).eigenvalues
    assert np.allclose(lam, 1.0, rtol=1e-10)


def test_spectrum_roundtrip_harmonic():
    spec = PLSpectrumSpec(size=16, decay=1.0, lambda1=1.0, seed=1)
    lam = compute_esd(synth_pl_matrix(spec)).eigenvalues
    expected = np.sort(1.0 / np.arange(1, 17))
    assert np.allclose(lam, expected, rtol=1e-8)


def test_spectrum_roundtrip_random_specs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec = PLSpectrumSpec(
            size=int(rng.integers(8, 80)),
            decay=float(rng.uniform(0.0, 3.0)),
            lambda1=float(10.0 ** rng.uniform(-2, 2)),
            seed=int(rng.integers(0, 1000)),
        )
        lam = compute_esd(synth_pl_matrix(spec)).eigenvalues
        expected = np.sort(pl_eigenvalues(spec))
        assert np.allclose(lam, expected, rtol=1e-8)


def test_synth_deterministic():
    spec = PLSpectrumSpec(size=32, decay=1.5, seed=7)
    a = synth_pl_matrix(spec)
    b = synth_pl_matrix(spec)
    assert np.array_equal(a.values, b.values)


def test_synth_matrix_is_orthogonally_mixed():
    # the matrix should not be diagonal: the Haar frames spread the spectrum
    spec = PLSpectrumSpec(size=16, decay=1.0, seed=3)
    w = synth_pl_matrix(spec).values
    off_diag = w - np.diag(np.diag(w))
    assert np.linalg.norm(off_diag) > 0.1


def test_spec_validation():
    with pytest.raises(ValueError):
        PLSpectrumSpec(size=4, decay=1.0)
    with pytest.raises(ValueError):
        PLSpectrumSpec(size=8, decay=-0.5)
    with pytest.raises(ValueError):
        PLSpectrumSpec(size=8, decay=1.0, lambda1=0.0)


def test_hill_scale_invariance_on_synthetic_spectra():
    base = PLSpectrumSpec(size=64, decay=1.0, lambda1=1.0, seed=4)
    scaled = PLSpectrumSpec(size=64, decay=1.0, lambda1=4.0, seed=4)
    policy = LambdaMinPolicy(variant="median")
    a = layer_metrics(compute_esd(synth_pl_matrix(base)), policy).alpha_hill
    b = layer_metrics(compute_esd(synth_pl_matrix(scaled)), policy).alpha_hill
    # lambda1 scales every eigenvalue; the exponent only moves by roundoff
    assert a == pytest.approx(b, rel=1e-9)


def test_verify_s_alpha_small_grid():
    rows = verify_s_alpha(128, [0.5, 1.0, 2.0], seed=0)
    assert [r.decay for r in rows] == [0.5, 1.0, 2.0]
    for row in rows:
        assert row.alpha_pred == pytest.approx(1 + 1 / row.decay, abs=1e-12)
        assert row.rel_err < 0.05
    # s=1 sits near the alpha=2 boundary
    assert rows[1].alpha_hill == pytest.approx(2.0, rel=0.05)


def test_verify_s_alpha_improves_with_size():
    grid = [0.5, 1.0, 2.0, 3.0]
    small = np.mean([r.rel_err for r in verify_s_alpha(16, grid, seed=0)])
    large = np.mean([r.rel_err for r in verify_s_alpha(256, grid, seed=0)])
    assert large < small


def test_verify_s_alpha_rejects_bad_grid():
    with pytest.raises(ValueError):
        verify_s_alpha(64, [])
    with pytest.raises(ValueError):
        verify_s_alpha(64, [0.0])


def gaussian_bulk(n=256, seed=0):
    rng = np.random.default_rng(seed)
    return orient_array(rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, n)), "bulk")


def test_spike_zero_scale_is_identity():
    result = spike_experiment(gaussian_bulk(), 0.0, seed=1000)
    assert np.array_equal(result.esd_before.eigenvalues, result.esd_after.eigenvalues)
    assert not result.spike_detected


def test_spike_detected_at_scale_ten():
    result = spike_experiment(gaussian_bulk(), 10.0, seed=1000)
    assert result.spike_detected
    lam = result.esd_after.eigenvalues
    assert lam[-1] > 3.0 * lam[-2]
    # the ejected eigenvalue carries the spike energy ~ scale^2
    assert lam[-1] == pytest.approx(100.0, rel=0.25)


def test_spike_top_eigenvalue_monotone():
    bulk = gaussian_bulk()
    tops = [
        spike_experiment(bulk, s, seed=1000).esd_after.lambda_max
        for s in np.linspace(0.0, 10.0, 10)
    ]
    assert all(a <= b for a, b in zip(tops, tops[1:]))


def test_spike_rejects_negative_scale():
    with pytest.raises(ValueError):
        spike_experiment(gaussian_bulk(), -1.0)


def test_spike_result_type():
    result = spike_experiment(gaussian_bulk(64, seed=2), 5.0, seed=3)
    assert isinstance(result, SpikeResult)
    assert result.esd_before.n == 64


def test_max_decay_keeps_the_median_threshold_resolvable():
    # the supremum puts the median threshold exactly on the floor
    for size in (8, 64, 1024):
        assert (size // 2 + 1) ** -max_decay(size) == pytest.approx(size * np.finfo(float).eps, rel=1e-12)
    with pytest.raises(ConfigError, match="roundoff floor"):
        verify_s_alpha(256, [1.0, max_decay(256) + 0.01])


def test_verify_s_alpha_near_max_decay_matches_svd():
    # inside the limit the Gram route loses digits on the small threshold,
    # but stays far below the fit's own error against 1 + 1/s
    size, s = 256, 6.0
    mat = synth_pl_matrix(PLSpectrumSpec(size=size, decay=s, seed=1))
    sv = np.linalg.svd(mat.values, compute_uv=False)
    svd = ESD(eigenvalues=(sv * sv)[::-1], source_name="svd", n=size, m=size)
    policy = LambdaMinPolicy(variant="median")
    got = layer_metrics(compute_esd(mat), policy).alpha_hill
    want = layer_metrics(svd, policy).alpha_hill
    assert got == pytest.approx(want, rel=1e-5)
    assert abs(want - (1 + 1 / s)) > 100 * abs(got - want)


def test_verify_s_alpha_pinned_values():
    # alpha_hill of the sweep as computed when the synthesis drew both
    # singular frames: dropping the right frame moves only roundoff
    pinned = {
        1024: [3.011942920284619, 1.6706476400948704, 1.3353238200488073],
        64: [3.1101023367383673, 1.7033674455794574, 1.3516837227897762],
    }
    for size, alphas in pinned.items():
        rows = verify_s_alpha(size, [0.5, 1.5, 3.0], seed=0)
        assert [r.alpha_hill for r in rows] == pytest.approx(alphas, rel=1e-10, abs=0)
