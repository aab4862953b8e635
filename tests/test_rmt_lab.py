import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempbal import esd, rmt_lab
from tempbal.cli import RMT_REL_ERR_TOL
from tempbal.esd import compute_esd, roundoff_floor
from tempbal.htsr import LambdaMinPolicy, layer_metrics
from tempbal.errors import ConfigError
from tempbal.esd import ESD
from tempbal.rmt_lab import (
    PLSpectrumSpec,
    SpikeResult,
    max_decay,
    pl_eigenvalues,
    random_frame,
    spike_experiment,
    sweep_specs,
    synth_pl_matrix,
    verify_s_alpha,
)
from tempbal.weight_store import LayerTensor


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
    # the matrix should not be diagonal: the shuffled DCT frame spreads each eigenvalue over the rows
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
    rows = verify_s_alpha([128], [0.5, 1.0, 2.0], seed=0)
    assert [r.decay for r in rows] == [0.5, 1.0, 2.0]
    for row in rows:
        assert row.alpha_pred == pytest.approx(1 + 1 / row.decay, abs=1e-12)
        assert row.rel_err < 0.05
    # s=1 sits near the alpha=2 boundary
    assert rows[1].alpha_hill == pytest.approx(2.0, rel=0.05)


def test_verify_s_alpha_improves_with_size():
    grid = [0.5, 1.0, 2.0, 3.0]
    small = np.mean([r.rel_err for r in verify_s_alpha([16], grid, seed=0)])
    large = np.mean([r.rel_err for r in verify_s_alpha([256], grid, seed=0)])
    assert large < small


def test_verify_s_alpha_rejects_bad_grid():
    with pytest.raises(ValueError):
        verify_s_alpha([64], [])
    with pytest.raises(ValueError):
        verify_s_alpha([64], [0.0])


def test_verify_s_alpha_rejects_an_empty_size_list():
    with pytest.raises(ConfigError, match="q grid must be nonempty"):
        verify_s_alpha([], [1.0])


def test_verify_s_alpha_checks_a_negative_size_before_seeding_it():
    # SeedSequence([seed, size]) would raise numpy's own ValueError on a negative size
    with pytest.raises(ConfigError, match=r"size must be in \[8, 8192\], got -3"):
        verify_s_alpha([-3], [1.0])


def test_a_size_is_a_whole_number():
    # 8.5 used to reach SeedSequence([seed, size]) and raise numpy's bare TypeError
    for bad in (lambda: PLSpectrumSpec(8.5, 1.0), lambda: verify_s_alpha([8.5], [1.0])):
        with pytest.raises(ConfigError, match="size must be an integer, got 8.5"):
            bad()
    assert type(PLSpectrumSpec(64.0, 1.0).size) is int
    assert verify_s_alpha([64.0], [1.0]) == verify_s_alpha([64], [1.0])


def gaussian_bulk(n=256, seed=0):
    rng = np.random.default_rng(seed)
    return LayerTensor("bulk", rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, n)))


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


def test_spike_of_a_tall_bulk_matches_its_transpose():
    # a tall bulk's W is its transpose, so a draws n = 48 entries and b m = 80 either way
    w = np.random.default_rng(4).normal(0.0, 1.0 / np.sqrt(80), size=(80, 48))
    for scale in (0.0, 0.5, 10.0):
        tall = spike_experiment(LayerTensor("tall", w), scale, seed=9)
        wide = spike_experiment(LayerTensor("wide", w.T), scale, seed=9)
        assert tall.esd_before.n == 48
        assert np.array_equal(tall.esd_before.eigenvalues, wide.esd_before.eigenvalues)
        assert np.array_equal(tall.esd_after.eigenvalues, wide.esd_after.eigenvalues)
        assert tall.spike_detected == wide.spike_detected == (scale == 10.0)


def test_spike_of_a_one_row_bulk_is_never_detected():
    # one eigenvalue: no second one to stand apart from
    result = spike_experiment(LayerTensor("row", np.random.default_rng(2).normal(size=(1, 12))), 10.0, seed=1)
    assert result.esd_after.n == 1 and not result.spike_detected


def test_spike_on_a_zero_bulk_is_detected():
    # the second eigenvalue is 0, so any nonzero top one stands apart
    result = spike_experiment(LayerTensor("zero", np.zeros((6, 9))), 0.5, seed=1)
    lam = result.esd_after.eigenvalues
    assert lam[-2] == 0.0 and lam[-1] == pytest.approx(0.25)
    assert result.spike_detected


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
        verify_s_alpha([256], [1.0, max_decay(256) + 0.01])


def test_verify_s_alpha_near_max_decay_matches_svd():
    # inside the limit the Gram route loses digits on the small threshold,
    # but stays far below the fit's own error against 1 + 1/s
    size, s = 256, 6.0
    mat = synth_pl_matrix(PLSpectrumSpec(size=size, decay=s, seed=1))
    sv = np.linalg.svd(mat.values, compute_uv=False)
    svd = ESD(eigenvalues=(sv * sv)[::-1], source_name="svd")
    policy = LambdaMinPolicy(variant="median")
    got = layer_metrics(compute_esd(mat), policy).alpha_hill
    want = layer_metrics(svd, policy).alpha_hill
    assert got == pytest.approx(want, rel=1e-5)
    assert abs(want - (1 + 1 / s)) > 100 * abs(got - want)


def test_verify_s_alpha_pinned_values():
    # alpha_hill of the sweep as computed when the synthesis drew both
    # singular frames from a seeded QR: dropping the right frame, and the
    # DCT left frame that each cell builds from its size's seed, move only
    # roundoff
    pinned = {
        1024: [3.011942920284619, 1.6706476400948704, 1.3353238200488073],
        64: [3.1101023367383673, 1.7033674455794574, 1.3516837227897762],
    }
    for size, alphas in pinned.items():
        rows = verify_s_alpha([size], [0.5, 1.5, 3.0], seed=0)
        assert [r.alpha_hill for r in rows] == pytest.approx(alphas, rel=1e-10, abs=0)


@settings(max_examples=60)
@given(st.floats(0.5, 3.0), st.sampled_from((64, 128)), st.integers(0, 2**32 - 1))
def test_alpha_tracks_one_plus_one_over_s_off_the_grid(s, size, seed):
    # criterion 4 checks grid points only; the gate must hold between them too
    (row,) = verify_s_alpha([size], [s], seed)
    assert row.rel_err <= RMT_REL_ERR_TOL


# ---------------------------------------------------------------------------
# the cells of a size


def test_a_spec_is_a_layer_named_by_its_size_and_decay():
    spec = PLSpectrumSpec(size=64, decay=1.5, seed=2)
    assert (spec.name, spec.shape) == ("pl_q64_s1.5", (64, 64))
    assert synth_pl_matrix(spec).name == spec.name


def test_sweep_specs_gives_the_cells_of_a_size_one_seed():
    specs = sweep_specs(64, [0.5, 1.5, 3.0], seed=4)
    assert len({spec.seed for spec in specs}) == 1
    assert sweep_specs(64, [3.0], seed=4)[0] == specs[2]
    assert sweep_specs(32, [3.0], seed=4)[0].seed != specs[0].seed
    assert sweep_specs(64, [3.0], seed=5)[0].seed != specs[0].seed


def test_each_cell_is_the_matrix_its_spec_gives_alone(monkeypatch):
    cells = []

    def record(spec):
        cells.append((spec, synth_pl_matrix(spec)))
        return cells[-1][1]

    monkeypatch.setattr(rmt_lab, "synth_pl_matrix", record)
    verify_s_alpha([48], [0.5, 1.5, 3.0], seed=2)
    assert [spec.decay for spec, _ in cells] == [0.5, 1.5, 3.0]
    for spec, mat in cells:
        assert mat.values.tobytes() == synth_pl_matrix(spec).values.tobytes()


def test_a_row_depends_only_on_seed_size_and_s():
    rows = [
        next(row for row in verify_s_alpha([256], grid, seed=3) if row.decay == 2.0)
        for grid in ([2.0], [0.5, 2.0], [2.0, 0.5])
    ]
    assert rows[0] == rows[1] == rows[2]


def test_sweep_memory_peaks_at_two_and_a_half_matrices():
    size = 512
    verify_s_alpha([size], [0.5, 1.5, 3.0])  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        verify_s_alpha([size], [0.5, 1.5, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured at 2.36 Q x Q arrays, in a cell's gram: the Gram, allocated before
    # W is read, and W as its frame is built, 64 rows of phases at a time (at
    # Q = 2048, 2.13, in gram's sum of W into the Gram a strip at a time). The
    # eigensolve holds W W^T and LAPACK's copy, which tracemalloc does not see.
    # With a frame shared by the cells of a size, held as well, it was 3.13
    assert peak <= 2.5 * size * size * 8


def test_a_cells_eigensolve_holds_no_w(monkeypatch):
    # the cell's W is built when gram reads it and freed when gram returns, so
    # each eigvalsh starts with the Gram alone traced: 1.00 Q x Q arrays, where
    # a W built before compute_esd and held through it reads 2.00
    size = 512
    entries = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        entries.append(tracemalloc.get_traced_memory()[0])
        return eigvalsh(a, *args, **kwargs)

    verify_s_alpha([size], [0.5, 1.5, 3.0])  # first calls allocate caches of their own
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    tracemalloc.start()
    try:
        verify_s_alpha([size], [0.5, 1.5, 3.0])
    finally:
        tracemalloc.stop()
    assert len(entries) == 3
    assert max(entries) <= 1.25 * size * size * 8


@settings(max_examples=30, deadline=None)
@given(size=st.integers(8, 300), decay=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
@example(size=8, decay=0.0, seed=0)
@example(size=300, decay=3.0, seed=1)
def test_a_cell_gives_the_esd_of_its_matrix(size, decay, seed):
    spec = PLSpectrumSpec(size=size, decay=decay, seed=seed)
    on_read = compute_esd(spec)
    eager = compute_esd(synth_pl_matrix(spec))
    assert np.array_equal(on_read.eigenvalues, eager.eigenvalues)
    assert on_read.source_name == eager.source_name


# ---------------------------------------------------------------------------
# the frame: a shuffled, sign-flipped DCT-II basis

EPS = np.finfo(np.float64).eps
# U^T U accumulated in long double, so the bound is on the frame and not on the
# float64 summation (which, over the DCT's equal-magnitude first column, alone
# reaches 34.5 eps at Q = 295). The QR factor of a seeded Gaussian, the frame
# this one replaced, reached 7.0 eps on sizes 8-300, seeds 0-2 (at Q = 253);
# the DCT frame 2.3 eps (at Q = 93)
QR_FRAME_ORTHOGONALITY = 7.0 * EPS
extended = pytest.mark.skipif(
    np.finfo(np.longdouble).precision <= np.finfo(np.float64).precision,
    reason="needs a long double wider than float64",
)


@extended
@settings(max_examples=40)
@given(size=st.integers(8, 300), seed=st.integers(0, 2**32 - 1), decay=st.floats(0.0, 3.0))
@example(size=8, seed=0, decay=3.0)
@example(size=9, seed=1, decay=0.0)
@example(size=251, seed=2, decay=1.0)  # prime
@example(size=253, seed=1, decay=3.0)  # the QR frame's worst size
@example(size=300, seed=3, decay=2.0)
def test_frame_is_orthogonal_and_round_trips_the_spectrum(size, seed, decay):
    frame = random_frame(size, seed)
    exact = frame.astype(np.longdouble)
    assert np.abs(exact.T @ exact - np.eye(size)).max() <= QR_FRAME_ORTHOGONALITY
    spec = PLSpectrumSpec(size=size, decay=decay, seed=seed)
    lam = compute_esd(synth_pl_matrix(spec)).eigenvalues
    np.testing.assert_allclose(lam, np.sort(pl_eigenvalues(spec)), rtol=1e-8, atol=4 * roundoff_floor(size))


def per_row_frame(size, seed):
    """random_frame as first written: one gather per row, each phase reduced mod 4Q, signs in the table."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(size)
    flips = rng.integers(0, 2, size=size)
    step = np.pi / (2 * size)
    t = np.arange(size + 1)
    quarter = np.where(2 * t <= size, np.cos(t * step), np.sin((size - t) * step))
    half = np.concatenate([quarter, -quarter[-2::-1]])
    table = np.concatenate([half, half[-2:0:-1]]) * np.sqrt(2.0 / size)
    signed = np.stack([table, -table])
    cols = np.arange(size)
    frame = np.empty((size, size))
    for row, j, flip in zip(frame, order, flips):
        np.take(signed[flip], (2 * j + 1) * cols % (4 * size), out=row)
    frame[:, 0] *= np.sqrt(0.5)
    return frame


@pytest.mark.parametrize("size", [8, 97, 253, 1024])
def test_frame_is_the_per_row_build_byte_for_byte(size):
    # 97 and 253 are no multiple of the row block (253 = 11 * 23; 97 is prime)
    for seed in (0, 7):
        assert random_frame(size, seed).tobytes() == per_row_frame(size, seed).tobytes()


@extended
def test_frame_is_the_dct_basis_to_two_ulps():
    # recover each row's DCT row and sign, then compare entries against the
    # basis computed in long double; with the phase (2j+1)k taken as a float
    # and never reduced, entries of Q = 1024 are off by 1.5e-14, 2200 such ulps
    size = 1024
    frame = random_frame(size, seed=5)
    phase = np.arange(1, 2 * size, 2)[:, None] * np.arange(size) % (4 * size)
    pi = np.longdouble("3.141592653589793238462643383279502884")
    basis = np.sqrt(np.longdouble(2) / size) * np.cos(phase * pi / (2 * size))
    basis[:, 0] /= np.sqrt(np.longdouble(2))
    match = frame @ basis.astype(np.float64).T  # a signed permutation matrix
    order = np.abs(match).argmax(axis=1)
    assert sorted(order) == list(range(size))
    signs = np.sign(match[np.arange(size), order])
    err = np.abs(frame - signs[:, None] * basis[order]).astype(np.float64)
    assert err.max() <= 2 * np.spacing(np.sqrt(2 / size))
    assert not np.array_equal(order, np.arange(size)) and (signs < 0).any() and (signs > 0).any()


def test_frame_build_holds_at_most_two_matrices():
    size = 512
    random_frame(size, 0)  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        random_frame(size, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the frame itself and a few Q-vectors: 1.04 Q x Q arrays
    assert peak <= 2 * size * size * 8


def test_a_float32_gram_moves_the_pinned_alpha(monkeypatch):
    # the 0.15 gate alone does not catch a lossy ESD route: with W W^T formed
    # in float32 the Q = 1024, s = 3 cell's rel_err only rises from 0.0015 to
    # about 0.025. Its alpha moves by 2.3e-2 relative, so the values pinned at
    # 1e-10 in test_verify_s_alpha_pinned_values are what guard precision
    exact = verify_s_alpha([1024], [3.0])[0]

    def float32_gram(mat):
        w = mat.values.astype(np.float32)
        return (w @ w.T).astype(np.float64)

    monkeypatch.setattr(esd, "gram", float32_gram)
    lossy = verify_s_alpha([1024], [3.0])[0]
    assert lossy.rel_err < RMT_REL_ERR_TOL
    assert abs(lossy.alpha_hill - exact.alpha_hill) > 1e-3 * exact.alpha_hill
