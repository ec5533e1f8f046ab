"""Dataset model, synthetic generator, on-disk round trips, z-scoring,
and stratified splitting."""

import json
import math

import numpy as np
import pytest

import compnet as cn
from compnet import (ConfigError, DataError, Dataset, FormatError, Normalizer,
                     Sample, ShapeError, SynthSpec, from_array,
                     generate_synthetic, load_dataset, render_template,
                     save_dataset, split, zscore_apply, zscore_fit)


def make_sample(i=0, label=0, shape=(1, 4, 4), n_features=3, seed=0):
    rng = np.random.default_rng((seed, i))
    return Sample(id=f"s{i}", image=from_array(rng.normal(size=shape)),
                  features=from_array(rng.normal(size=n_features)), label=label)


def make_dataset(n=4, shape=(1, 4, 4), n_features=3, n_classes=2):
    samples = [make_sample(i, label=i % n_classes, shape=shape,
                           n_features=n_features) for i in range(n)]
    return Dataset(samples, shape, n_features, n_classes)


# ---------------------------------------------------------------------------
# containers

def test_dataset_stacks_and_caches():
    ds = make_dataset(5)
    assert ds.images().shape == (5, 1, 4, 4)
    assert ds.features().shape == (5, 3)
    assert np.array_equal(ds.labels(), [0, 1, 0, 1, 0])
    assert ds.images() is ds.images()


def test_dataset_rejects_shape_and_label_mismatches():
    good = make_sample(0)
    with pytest.raises(ShapeError):
        Dataset([good], (1, 5, 5), 3, 2)
    with pytest.raises(ShapeError):
        Dataset([good], (1, 4, 4), 7, 2)
    with pytest.raises(DataError):
        Dataset([make_sample(0, label=2)], (1, 4, 4), 3, 2)


def test_sample_rejects_non_finite():
    with pytest.raises(DataError):
        Sample(id="bad", image=from_array(np.full((1, 2, 2), np.nan)),
               features=from_array(np.zeros(2)), label=0)


def test_subset_preserves_order_and_metadata():
    ds = make_dataset(6)
    sub = ds.subset([4, 1])
    assert sub.ids() == ["s4", "s1"]
    assert sub.n_features == ds.n_features


# ---------------------------------------------------------------------------
# templates

def test_templates_are_binary_amplitude_one():
    for k in (0, 1):
        t = render_template(k, (1, 32, 32))
        assert t.shape == (1, 32, 32)
        assert set(np.unique(t)) <= {0.0, 1.0}
        assert t.any()


def test_templates_differ_and_cover_channels():
    disc = render_template(0, (2, 16, 16))
    cross = render_template(1, (2, 16, 16))
    assert not np.array_equal(disc, cross)
    assert np.array_equal(disc[0], disc[1])


def test_template_unknown_class():
    with pytest.raises(ConfigError):
        render_template(2, (1, 8, 8))


# ---------------------------------------------------------------------------
# generator

def test_generator_is_seed_deterministic():
    spec = SynthSpec(n_samples=20, image_shape=(1, 12, 12), seed=3)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.images(), b.images())
    assert np.array_equal(a.features(), b.features())
    assert np.array_equal(a.labels(), b.labels())
    assert a.ids() == b.ids()
    c = generate_synthetic(SynthSpec(n_samples=20, image_shape=(1, 12, 12),
                                     seed=4))
    assert not np.array_equal(a.images(), c.images())


def test_noise_free_fully_reliable_data_is_separable():
    spec = SynthSpec(n_samples=30, image_shape=(1, 12, 12), pixel_noise=0.0,
                     image_reliability=1.0, feature_reliability=1.0, seed=2)
    ds = generate_synthetic(spec)
    templates = [render_template(k, spec.image_shape) for k in (0, 1)]
    informative = ds.features()[:, :spec.n_informative]
    for img, feats, label in zip(ds.images(), informative, ds.labels()):
        # image alone: the noise-free image is exactly the class template
        assert np.array_equal(img, templates[label])
        # features alone: every informative feature mean is signed by class
        assert (np.sign(feats.mean()) > 0) == (label == 1)


def test_generator_validation():
    with pytest.raises(ConfigError):
        SynthSpec(n_samples=0)
    with pytest.raises(ConfigError):
        SynthSpec(n_samples=4, n_classes=3)
    with pytest.raises(ConfigError):
        SynthSpec(n_samples=4, image_reliability=0.5)
    with pytest.raises(ConfigError):
        SynthSpec(n_samples=4, n_informative=20)


def _agreement_llr(t, reliability):
    """Log odds of the label given evidence log odds t and flip reliability."""
    r = reliability
    return (np.logaddexp(np.log(r) + t, np.log1p(-r))
            - np.logaddexp(np.log1p(-r) + t, np.log(r)))


def test_generator_information_content_by_monte_carlo():
    """Each modality alone supports ~80% accuracy; together they beat either.

    Estimated from the generative process itself (labels, agreement bits,
    Gaussian noise), independent of any model or training code.
    """
    spec = SynthSpec(n_samples=1)  # defaults: the benchmark generator settings
    rng = np.random.default_rng(123)
    n = 200_000

    delta = (render_template(1, spec.image_shape)
             - render_template(0, spec.image_shape))
    m = float((delta ** 2).sum()) / (2.0 * spec.pixel_noise ** 2)

    y = rng.random(n) < 0.5
    img_agrees = rng.random(n) < spec.image_reliability
    img_bit = y == img_agrees  # bit == y where the evidence agrees
    # Log odds of the image evidence bit given the pixels, reduced to its
    # exact 1-D sufficient statistic: N(+-m, 2m) depending on the bit.
    t_img = np.where(img_bit, m, -m) + math.sqrt(2.0 * m) * rng.normal(size=n)
    llr_img = _agreement_llr(t_img, spec.image_reliability)

    feat_agrees = rng.random(n) < spec.feature_reliability
    feat_bit = y == feat_agrees
    sign = np.where(feat_bit, 1.0, -1.0)
    feats = sign[:, None] + rng.normal(size=(n, spec.n_informative))
    t_feat = 2.0 * feats.sum(axis=1)  # per-feature log odds 2x, summed
    llr_feat = _agreement_llr(t_feat, spec.feature_reliability)

    acc_img = np.mean((llr_img > 0) == y)
    acc_feat = np.mean((llr_feat > 0) == y)
    acc_both = np.mean((llr_img + llr_feat > 0) == y)

    # Closed-form single-modality accuracies for cross-checking the MC.
    def analytic(mean, var, reliability):
        p_bit = 0.5 * math.erfc(-mean / math.sqrt(2.0 * var))
        return reliability * p_bit + (1 - reliability) * (1 - p_bit)

    assert abs(acc_img - analytic(m, 2.0 * m, spec.image_reliability)) < 4e-3
    k = spec.n_informative
    assert abs(acc_feat - analytic(2.0 * k, 4.0 * k,
                                   spec.feature_reliability)) < 4e-3
    assert 0.74 <= acc_img <= 0.86
    assert 0.74 <= acc_feat <= 0.86
    # Fusing helps, but modestly: when the two evidence bits conflict the
    # posterior sits near a tie, so the gain over the stronger modality is
    # small while the gain over the weaker one is solid.
    assert acc_both > max(acc_img, acc_feat)
    assert acc_both >= min(acc_img, acc_feat) + 0.02


def test_generated_class_balance_is_roughly_even():
    ds = generate_synthetic(SynthSpec(n_samples=400, image_shape=(1, 12, 12),
                                      seed=6))
    counts = np.bincount(ds.labels(), minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) < 80


# ---------------------------------------------------------------------------
# save / load

def test_save_creates_expected_files(tmp_path):
    ds = make_dataset(3)
    manifest = save_dataset(ds, tmp_path / "d")
    root = manifest.parent
    for name in ("manifest.json", "images.bin", "features.csv", "labels.csv"):
        assert (root / name).exists()
    meta = json.loads((root / "manifest.json").read_text())
    assert meta["n_samples"] == 3


def test_save_load_round_trip_is_bit_exact(tmp_path):
    ds = generate_synthetic(SynthSpec(n_samples=12, image_shape=(1, 12, 12),
                                      seed=9))
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert np.array_equal(ds.images(), back.images())
    assert np.array_equal(ds.features(), back.features())
    assert np.array_equal(ds.labels(), back.labels())
    assert ds.ids() == back.ids()
    assert back.provenance["kind"] == "synthetic"


def test_save_rewrites_identical_bytes(tmp_path):
    ds = generate_synthetic(SynthSpec(n_samples=5, image_shape=(1, 12, 12),
                                      seed=1))
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    for name in ("manifest.json", "images.bin", "features.csv", "labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_save_into_non_directory_raises_os_error(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    with pytest.raises(OSError):
        save_dataset(make_dataset(2), blocker / "sub")


def test_load_detects_truncated_images(tmp_path):
    ds = make_dataset(3)
    root = save_dataset(ds, tmp_path / "d").parent
    payload = (root / "images.bin").read_bytes()
    (root / "images.bin").write_bytes(payload[:-8])
    with pytest.raises(FormatError):
        load_dataset(root)


def test_load_rejects_out_of_range_label(tmp_path):
    ds = make_dataset(3)
    root = save_dataset(ds, tmp_path / "d").parent
    lines = (root / "labels.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",2"
    (root / "labels.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        load_dataset(root)


def test_load_rejects_manifest_files_without_images(tmp_path):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["files"]["images"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_dataset(root)


def test_load_missing_manifest_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path / "nope")


# ---------------------------------------------------------------------------
# z-scoring

def test_zscore_hand_example():
    samples = [Sample(id=f"z{i}", image=from_array(np.zeros((1, 2, 2))),
                      features=from_array(np.array([v, 5.0])), label=0)
               for i, v in enumerate([1.0, 2.0, 3.0])]
    ds = Dataset(samples, (1, 2, 2), 2, 2)
    norm = zscore_fit(ds)
    assert norm.mean[0] == 2.0
    assert abs(norm.std[0] - math.sqrt(2.0 / 3.0)) <= 1e-15
    out = zscore_apply(norm, ds).features()
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
    assert np.max(np.abs(out[:, 0] - expected)) <= 1e-12
    # constant column is masked, not divided by ~0
    assert np.array_equal(out[:, 1], np.zeros(3))


def test_zscore_self_normalization():
    ds = make_dataset(50, n_features=4)
    out = zscore_apply(zscore_fit(ds), ds).features()
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(out.std(axis=0) - 1.0)) <= 1e-9


def test_zscore_uses_only_fit_statistics():
    train = make_dataset(20)
    shifted = Dataset([Sample(id=s.id, image=s.image,
                              features=from_array(s.features.data + 10.0),
                              label=s.label) for s in train.samples],
                      train.image_shape, train.n_features, train.n_classes)
    norm_train = zscore_fit(train)
    both = Dataset(train.samples + shifted.samples, train.image_shape,
                   train.n_features, train.n_classes)
    norm_both = zscore_fit(both)
    assert not np.array_equal(norm_train.mean, norm_both.mean)
    out = zscore_apply(norm_train, shifted).features()
    assert out.mean() > 1.0  # shifted data stays shifted under train stats


def test_normalizer_round_trips_through_dict():
    norm = zscore_fit(make_dataset(10))
    back = Normalizer.from_dict(norm.to_dict())
    assert np.array_equal(norm.mean, back.mean)
    assert np.array_equal(norm.std, back.std)
    assert np.array_equal(norm.constant_mask, back.constant_mask)


def test_normalizer_from_a_json_list_is_a_format_error():
    with pytest.raises(FormatError):
        Normalizer.from_dict([0.0, 1.0])


# ---------------------------------------------------------------------------
# splitting

def _balanced_dataset(n):
    return Dataset([make_sample(i, label=i % 2) for i in range(n)],
                   (1, 4, 4), 3, 2)


def test_split_stratified_counts():
    ds = _balanced_dataset(100)
    train, test = split(ds, 0.75, seed=0, stratified=True)
    assert len(train) == 75 and len(test) == 25
    for side, total in ((train, 75), (test, 25)):
        counts = np.bincount(side.labels(), minlength=2)
        # both classes within half a sample of an even share of the side
        assert abs(int(counts[0]) - total / 2) <= 0.5
        assert abs(int(counts[1]) - total / 2) <= 0.5


def test_split_is_seed_deterministic_and_disjoint():
    ds = _balanced_dataset(40)
    a_train, a_test = split(ds, 0.6, seed=5, stratified=True)
    b_train, b_test = split(ds, 0.6, seed=5, stratified=True)
    assert a_train.ids() == b_train.ids()
    assert a_test.ids() == b_test.ids()
    assert set(a_train.ids()) | set(a_test.ids()) == set(ds.ids())
    assert not set(a_train.ids()) & set(a_test.ids())
    c_train, _ = split(ds, 0.6, seed=6, stratified=True)
    assert c_train.ids() != a_train.ids()


def test_split_proportions_within_one_count():
    ds = Dataset([make_sample(i, label=0 if i < 94 else 1) for i in range(200)],
                 (1, 4, 4), 3, 2)
    train, test = split(ds, 0.75, seed=1, stratified=True)
    assert len(train) == 150
    counts = np.bincount(train.labels(), minlength=2)
    assert abs(int(counts[0]) - 0.75 * 94) <= 1
    assert abs(int(counts[1]) - 0.75 * 106) <= 1
    assert len(test) == 50


def test_split_unstratified_still_partitions():
    ds = _balanced_dataset(30)
    train, test = split(ds, 0.5, seed=2, stratified=False)
    assert len(train) == 15 and len(test) == 15
    assert set(train.ids()) | set(test.ids()) == set(ds.ids())


def test_split_rejects_degenerate_fractions():
    ds = _balanced_dataset(10)
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises((ConfigError, DataError)):
            split(ds, frac, seed=0, stratified=True)
