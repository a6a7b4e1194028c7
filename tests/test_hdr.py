"""Camera response recovery and HDR merge on the hdr-bracket preset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt import hdr
from hybridrt.images import read_pfm


@pytest.fixture(scope="module")
def bracket(hdr_dir):
    return hdr.load_bracket(str(hdr_dir / "bracket.json"))


# -- reference: the full Debevec-Malik system with one log-exposure column
# per usable sample, solved densely.


def _reference_recover_crf(bracket, lam=50.0, n_samples=200):
    j_count = len(bracket.images)
    h, w = bracket.images[0].shape[:2]
    xs, ys = hdr._sample_grid(w, h, n_samples)
    ln_t = np.log(np.array(bracket.exposure_times))
    g = np.empty((256, 3))
    for c in range(3):
        z_all = np.stack([im[ys, xs, c] for im in bracket.images]).astype(np.int64)
        usable = hdr.hat_weights(z_all).sum(axis=0) > 0
        z_all = z_all[:, usable]
        pc = int(usable.sum())
        rows = pc * j_count + 254 + 1
        cols = 256 + pc
        a = np.zeros((rows, cols))
        b = np.zeros(rows)
        r = 0
        for j in range(j_count):
            z = z_all[j]
            wgt = hdr.hat_weights(z)
            rr = np.arange(r, r + pc)
            a[rr, z] = wgt
            a[rr, 256 + np.arange(pc)] = -wgt
            b[rr] = wgt * ln_t[j]
            r += pc
        zmid = np.arange(1, 255)
        wz = lam * hdr.hat_weights(zmid)
        rr = np.arange(r, r + 254)
        a[rr, zmid - 1] = wz
        a[rr, zmid] = -2.0 * wz
        a[rr, zmid + 1] = wz
        r += 254
        a[r, 128] = 1.0
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < cols:
            raise hdr.HdrError(f"rank-deficient reference system (rank {rank} of {cols})")
        gc = hdr._monotone_projection(sol[:256])
        g[:, c] = gc - gc[128]
    return g


@pytest.mark.parametrize("lam, n_samples", [(50.0, 200), (5.0, 200), (500.0, 400)])
def test_projected_solve_matches_full_system(bracket, lam, n_samples):
    crf = hdr.recover_crf(bracket, lam=lam, n_samples=n_samples)
    assert np.abs(crf.g - _reference_recover_crf(bracket, lam, n_samples)).max() <= 1e-10


def _bracket_from_palette(rng, n_tuples, rail_frac, h=16, w=16, n_images=5):
    """A bracket whose pixels draw their code tuples from n_tuples random
    tuples per channel with unequal odds, or each its own for n_tuples=0.
    A rail_frac share of the codes is 0 or 255, and a tuple's codes rise
    with exposure time, as a camera's do."""
    def tuples(shape):
        shape = shape + (n_images,)
        z = np.where(rng.random(shape) < rail_frac, rng.choice([0, 255], shape),
                     rng.integers(0, 256, shape))
        return np.sort(z, axis=-1)
    if n_tuples == 0:
        stack = tuples((h, w, 3))
    else:
        pick = rng.choice(n_tuples, size=(h, w, 3), p=rng.dirichlet(np.ones(n_tuples)))
        stack = tuples((n_tuples, 3))[pick, np.arange(3)]
    times = np.cumsum(rng.uniform(0.01, 2.0, n_images))
    return hdr.ExposureBracket(list(np.moveaxis(stack, -1, 0).astype(np.uint8)), list(times))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tuples=st.sampled_from([0, 1, 2, 3, 5, 8, 16]),
       rail_frac=st.floats(0.0, 0.6), lam=st.sampled_from([0.0, 5.0, 50.0, 500.0]))
def test_tuple_reduction_matches_full_system(seed, n_tuples, rail_frac, lam):
    # Repeated tuples are merged with sqrt(count) weights and rail rows are
    # dropped; the answer is still that of one row block per sample. Both
    # solves are backward stable, so they agree to rounding relative to the
    # table's scale; a few tuples leave g to the prior, and |g| reaches tens.
    bracket = _bracket_from_palette(np.random.default_rng(seed), n_tuples, rail_frac)
    try:
        ref = _reference_recover_crf(bracket, lam)
    except hdr.HdrError:
        with pytest.raises(hdr.HdrError, match="rank-deficient|too few usable"):
            hdr.recover_crf(bracket, lam=lam)
        return
    try:
        got = hdr.recover_crf(bracket, lam=lam).g
    except hdr.HdrError as e:
        # The reference does not apply the sample-count guard.
        assert "too few usable" in str(e)
        return
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_solve_has_one_row_per_live_code_of_each_distinct_tuple(bracket, monkeypatch):
    # The preset's 225 samples hold few distinct tuples: each channel's
    # system is their nonzero-weight codes plus 254 smoothness rows and the
    # gauge, not the dense 225 x 5 + 255 = 1,380 rows.
    shapes = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        shapes.append(a.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    hdr.recover_crf(bracket)
    h, w = bracket.images[0].shape[:2]
    xs, ys = hdr._sample_grid(w, h, 200)
    assert len(xs) * len(bracket.images) + 255 == 1380
    want = []
    for c in range(3):
        z_all = np.stack([im[ys, xs, c] for im in bracket.images], axis=1)
        wgt = hdr.hat_weights(np.unique(z_all[hdr.hat_weights(z_all).sum(axis=1) > 0], axis=0))
        want.append((int(np.count_nonzero(wgt)) + 255, 256))
    assert shapes == want
    assert all(rows <= 80 + 255 for rows, _ in shapes)


def test_one_tuple_without_smoothness_is_rank_deficient():
    # Every usable sample is one tuple: its merged block has rank at most
    # images - 1, so without the prior the rank test must still refuse.
    codes = [np.full((16, 16, 3), z, dtype=np.uint8) for z in (10, 40, 90, 160, 230)]
    bracket = hdr.ExposureBracket(codes, [0.1, 0.2, 0.4, 0.8, 1.6])
    with pytest.raises(hdr.HdrError, match="rank-deficient"):
        hdr.recover_crf(bracket, lam=0.0)


@pytest.mark.parametrize("w, h", [(128, 96), (7, 300), (1, 1)])
def test_huge_sample_counts_sample_every_pixel_once(w, h):
    # From n = max(w, h)**2 on, the lattice holds every pixel. Its
    # ceil(sqrt(n)) points per axis used to be laid out before rounding to
    # pixels: 23 GiB for n = 2**63.
    every = np.meshgrid(np.arange(w), np.arange(h))
    for n in (max(w, h) ** 2, 2**63, 10**30):
        xs, ys = hdr._sample_grid(w, h, n)
        assert np.array_equal(xs, every[0].ravel()) and np.array_equal(ys, every[1].ravel())


def test_zero_smoothness_is_rank_deficient(bracket):
    # Codes no sample hits leave their g column empty without the prior.
    with pytest.raises(hdr.HdrError, match="rank-deficient"):
        hdr.recover_crf(bracket, lam=0.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"lam": float("nan")}, "smoothness"), ({"lam": float("inf")}, "smoothness"),
    ({"lam": -1.0}, "smoothness"), ({"n_samples": 0}, "n_samples"),
    ({"n_samples": -4}, "n_samples"),
])
def test_bad_solve_options_raise(bracket, kwargs, match):
    with pytest.raises(hdr.HdrError, match=match):
        hdr.recover_crf(bracket, **kwargs)


def test_recovered_crf_is_monotone_with_gauge(bracket):
    g = hdr.recover_crf(bracket).g
    assert np.all(np.isfinite(g))
    assert np.all(np.diff(g, axis=0) >= 0.0)
    assert np.all(g[128] == 0.0)


def test_merge_matches_ground_truth_up_to_one_scale(bracket, hdr_dir):
    # The gauge g(128) = 0 fixes radiance only up to one global scale; the
    # merged/true ratio must be that scale nearly everywhere.
    merged = hdr.merge_hdr(bracket, hdr.recover_crf(bracket)).pixels
    gt = read_pfm(str(hdr_dir / "hdr_gt.pfm")).pixels
    ratio = merged[gt > 0] / gt[gt > 0]
    p5, p95 = np.percentile(ratio, [5, 95])
    assert 4.475 <= p5 and p95 < 4.585


def _reference_merge_hdr(bracket, crf):
    """merge_hdr with its fallback found per exposure: the code farthest
    from saturation, the first of a tie, and zero radiance where it is 0."""
    h, w = bracket.images[0].shape[:2]
    ln_t = np.log(np.array(bracket.exposure_times))
    num = np.zeros((h, w, 3))
    den = np.zeros((h, w, 3))
    best_dev = np.full((h, w, 3), np.inf)
    fallback_ln = np.zeros((h, w, 3))
    fallback_zero = np.zeros((h, w, 3), dtype=bool)
    chan = np.arange(3)
    for j, im in enumerate(bracket.images):
        z = im.astype(np.int64)
        wgt = hdr.hat_weights(z)
        est = crf.g[z, chan] - ln_t[j]
        num += wgt * est
        den += wgt
        dev = np.abs(z - 127.5)
        take = dev < best_dev
        best_dev = np.where(take, dev, best_dev)
        fallback_ln = np.where(take, est, fallback_ln)
        fallback_zero = np.where(take, z == 0, fallback_zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_e = num / den
    fall = den == 0.0
    e = np.exp(np.where(fall, fallback_ln, ln_e))
    return np.where(fall & fallback_zero, 0.0, e)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_images=st.integers(3, 5),
       rail_frac=st.floats(0.0, 1.0))
def test_merge_equals_reference_on_rail_heavy_brackets(seed, n_images, rail_frac):
    # A rail_frac share of the codes is 0 or 255 and the rest are random;
    # a pixel channel on a rail in every exposure takes the fallback.
    rng = np.random.default_rng(seed)
    shape = (n_images, 6, 7, 3)
    codes = np.where(rng.random(shape) < rail_frac, rng.choice([0, 255], shape),
                     rng.integers(0, 256, shape))
    times = np.cumsum(rng.uniform(0.01, 2.0, n_images))
    bracket = hdr.ExposureBracket(list(codes.astype(np.uint8)), list(times))
    crf = hdr.CrfTable(np.sort(rng.normal(0.0, 3.0, (256, 3)), axis=0))
    got = hdr.merge_hdr(bracket, crf).pixels
    assert got.tobytes() == _reference_merge_hdr(bracket, crf).tobytes()
