"""Dataset model, synthetic generator, on-disk round trips, z-scoring,
and stratified splitting."""

import ast
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compnet as cn
from compnet import (ConfigError, DataError, Dataset, FormatError, Normalizer,
                     ShapeError, SynthSpec, generate_synthetic, load_dataset,
                     render_template, save_dataset, split, zscore_apply,
                     zscore_fit)
from compnet.cli import main
from compnet.data import read_json_object, write_atomic
from conftest import CSV_CELLS, MALFORMED_NORMALIZERS


def make_dataset(n=4, shape=(1, 4, 4), n_features=3, n_classes=2, labels=None):
    """Row ``i`` is ``s{i}``: an image, then features, drawn from ``default_rng((0, i))``.

    Labels cycle through the classes unless given.
    """
    rngs = [np.random.default_rng((0, i)) for i in range(n)]
    images = np.array([rng.normal(size=shape) for rng in rngs])
    features = np.array([rng.normal(size=n_features) for rng in rngs])
    labels = np.arange(n) % n_classes if labels is None else np.array(labels)
    return Dataset([f"s{i}" for i in range(n)], images, features, labels, n_classes)


# ---------------------------------------------------------------------------
# containers

def test_dataset_stacks_and_caches():
    ds = make_dataset(5)
    assert ds.images.shape == (5, 1, 4, 4)
    assert ds.features.shape == (5, 3)
    assert np.array_equal(ds.labels, [0, 1, 0, 1, 0])
    assert ds.images is ds.images


def test_dataset_rejects_shape_and_label_mismatches():
    ds = make_dataset(3)
    ids, images, features, labels = ds.ids, ds.images, ds.features, ds.labels
    with pytest.raises(ShapeError):
        Dataset(ids, images[0], features, labels, 2)  # image column not [n, C, H, W]
    with pytest.raises(ShapeError):
        Dataset(ids, images, features[:, 0], labels, 2)  # features not [n, N]
    with pytest.raises(DataError, match="sample s1: label 2"):
        Dataset(ids, images, features, np.array([0, 2, 1]), 2)


@pytest.mark.parametrize("column", ["ids", "images", "features", "labels"])
def test_dataset_rejects_columns_of_different_lengths(column):
    ds = make_dataset(3)
    columns = {"ids": ds.ids, "images": ds.images, "features": ds.features,
               "labels": ds.labels}
    columns[column] = columns[column][:2]
    with pytest.raises(ShapeError, match="columns disagree"):
        Dataset(n_classes=2, **columns)


def test_sample_rejects_non_finite():
    images = np.zeros((2, 1, 2, 2))
    images[1, 0, 1, 0] = np.nan
    with pytest.raises(DataError, match="sample bad: non-finite"):
        Dataset(["ok", "bad"], images, np.zeros((2, 2)), np.array([0, 1]), 2)


def test_the_finite_check_warns_of_nothing_when_a_column_sum_is_not_finite():
    big = np.array([[1e308], [1e308]])  # finite values whose sum overflows
    ds = Dataset(["a", "b"], np.zeros((2, 1, 2, 2)), big, np.array([0, 1]), 2)
    assert ds.features.tolist() == big.tolist()
    opposite = np.array([[np.inf], [-np.inf]])  # a sum of NaN
    with pytest.raises(DataError, match="sample a: non-finite"):
        Dataset(["a", "b"], np.zeros((2, 1, 2, 2)), opposite, np.array([0, 1]), 2)


def test_batches_follow_order_and_keep_the_short_last_batch():
    ds = make_dataset(5)
    order = np.array([3, 0, 4, 1, 2])
    got = list(ds.batches(2, order))
    assert [len(labels) for _, _, labels in got] == [2, 2, 1]
    for (images, features, labels), rows in zip(got, ([3, 0], [4, 1], [2])):
        assert np.array_equal(images, ds.images[rows])
        assert np.array_equal(features, ds.features[rows])
        assert np.array_equal(labels, ds.labels[rows])
    in_order = list(ds.batches(3))
    assert [labels.tolist() for _, _, labels in in_order] == [[0, 1, 0], [1, 0]]
    assert np.array_equal(in_order[1][0], ds.images[3:])


def test_subset_preserves_order_and_metadata():
    ds = make_dataset(6)
    sub = ds.subset([4, 1])
    assert sub.ids == ("s4", "s1")
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
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.ids == b.ids
    c = generate_synthetic(SynthSpec(n_samples=20, image_shape=(1, 12, 12),
                                     seed=4))
    assert not np.array_equal(a.images, c.images)


def test_noise_free_fully_reliable_data_is_separable():
    spec = SynthSpec(n_samples=30, image_shape=(1, 12, 12), pixel_noise=0.0,
                     image_reliability=1.0, feature_reliability=1.0, seed=2)
    ds = generate_synthetic(spec)
    templates = [render_template(k, spec.image_shape) for k in (0, 1)]
    informative = ds.features[:, :spec.n_informative]
    for img, feats, label in zip(ds.images, informative, ds.labels):
        # image alone: the noise-free image is exactly the class template
        assert np.array_equal(img, templates[label])
        # features alone: every informative feature mean is signed by class
        assert (np.sign(feats.mean()) > 0) == (label == 1)


def test_every_noise_free_image_is_one_of_the_two_templates():
    # Past one chunk of templates, with evidence that disagrees with some labels.
    spec = SynthSpec(n_samples=cn.data._GENERATE_CHUNK + 7, image_shape=(2, 8, 8),
                     pixel_noise=0.0, image_reliability=0.6, seed=5)
    ds = generate_synthetic(spec)
    templates = np.stack([render_template(k, spec.image_shape) for k in (0, 1)])
    matches = (ds.images[:, None] == templates).all(axis=(2, 3, 4))
    assert matches.sum(axis=1).tolist() == [1] * len(ds)
    assert 0 < matches[:, 0].sum() < len(ds)


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
    counts = np.bincount(ds.labels, minlength=2)
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
    assert np.array_equal(ds.images, back.images)
    assert np.array_equal(ds.features, back.features)
    assert np.array_equal(ds.labels, back.labels)
    assert ds.ids == back.ids
    assert back.provenance["kind"] == "synthetic"


def test_save_rewrites_identical_bytes(tmp_path):
    ds = generate_synthetic(SynthSpec(n_samples=5, image_shape=(1, 12, 12),
                                      seed=1))
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    for name in ("manifest.json", "images.bin", "features.csv", "labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_save_dataset_holds_little_beside_the_dataset_and_writes_each_line(tmp_path):
    # The tables are written a block of rows at a time: no file's whole text,
    # nor a list of all its lines, is held.
    n = 16000
    ds = Dataset([f"s{i}" for i in range(n)], np.zeros((n, 1, 1, 1)),
                 np.random.default_rng(0).normal(size=(n, 16)), np.arange(n) % 2, 2)
    tracemalloc.start()
    try:
        root = save_dataset(ds, tmp_path / "d").parent
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, peak
    # the lines the whole-file writer joined, past many block boundaries
    rows = [",".join(map(repr, row)) for row in ds.features.tolist()]
    assert (root / "features.csv").read_text(encoding="utf-8") == "".join(
        f"{sid},{cells}\n" for sid, cells in zip(
            ["id", *ds.ids], [",".join(f"f{j}" for j in range(16)), *rows]))
    assert (root / "labels.csv").read_text(encoding="utf-8") == "id,label\n" + "".join(
        f"{sid},{y}\n" for sid, y in zip(ds.ids, ds.labels.tolist()))


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
    with pytest.raises(FormatError, match="label 2 outside"):
        load_dataset(root)


def test_load_rejects_manifest_files_without_images(tmp_path):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["files"]["images"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_dataset(root)


def test_load_missing_manifest_raises_format_error(tmp_path):
    with pytest.raises(FormatError, match="^manifest not found: "):
        load_dataset(tmp_path / "nope")


@pytest.mark.parametrize("edit", [
    {"n_features": "x"},
    {"image_shape": 5},
    {"image_shape": [4, 4]},
    {"files": {"images": 5, "features": "features.csv", "labels": "labels.csv"}},
    {"provenance": 5},
    {"n_samples": 3.5},
    {"n_samples": "3"},
    {"n_classes": 2.9},
    {"n_classes": True},
    {"image_shape": [1, 4.5, 4]},
    {"format_version": 1.0},
    {"image_shape": [1, 4, 4 + 2 ** 62]},  # 16 pixels per sample if the product wraps
    {"files": {"images": "images.bin", "features": "../d/features.csv",
               "labels": "labels.csv"}},
    {"files": {"images": "images.bin", "features": "features.csv", "labels": ".."}},
], ids=["n_features-text", "image_shape-number", "image_shape-2d", "files-number",
        "provenance-number", "n_samples-fractional", "n_samples-text",
        "n_classes-fractional", "n_classes-bool", "image_shape-fractional",
        "format_version-float", "image_shape-overflow", "files-path", "files-parent"])
def test_load_rejects_malformed_manifest_fields(tmp_path, edit):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    manifest = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(json.dumps({**manifest, **edit}))
    with pytest.raises(FormatError):
        load_dataset(root)


def test_write_atomic_removes_its_temporary_when_the_write_fails(tmp_path):
    # importance into a directory covers a failed rename
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(target, object())  # not bytes-like
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert target.read_bytes() == b"old"


def test_concurrent_writers_of_one_path_each_leave_it_whole(tmp_path):
    # Two commands can write one artifact at once, as eval --split test and
    # eval --split train write the metrics.json beside one checkpoint.
    target = tmp_path / "metrics.json"
    payloads = [bytes([c]) * (1 << 16) for c in b"ab"]
    with open(tmp_path / "reference", "wb"):  # the mode an ordinary write gives
        pass
    for _ in range(100):
        pids = []
        for payload in payloads:
            pid = os.fork()
            if pid == 0:  # the child writes in chunks, so the two writes overlap
                code = 1
                try:
                    write_atomic(target, iter([payload[i:i + 1024]
                                               for i in range(0, len(payload), 1024)]))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        assert [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids] == [0, 0]
        assert target.read_bytes() in payloads
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json", "reference"]
    assert target.stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_load_rejects_a_manifest_that_is_not_an_object(tmp_path):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    (root / "manifest.json").write_text("5\n")
    with pytest.raises(FormatError):
        load_dataset(root)


def test_load_rejects_a_partial_trailing_pixel(tmp_path):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    with open(root / "images.bin", "ab") as fh:
        fh.write(b"\0\0\0")
    with pytest.raises(FormatError):
        load_dataset(root)


def test_load_of_a_zero_sample_directory_is_an_empty_dataset(tmp_path):
    empty = Dataset([], np.empty((0, 1, 4, 4)), np.empty((0, 3)),
                    np.empty(0, dtype=np.int64), 2)
    root = save_dataset(empty, tmp_path / "d").parent
    assert (root / "images.bin").read_bytes() == b""
    assert (root / "features.csv").read_text() == "id,f0,f1,f2\n"
    assert (root / "labels.csv").read_text() == "id,label\n"
    back = load_dataset(root)
    assert len(back) == 0 and back.ids == ()
    assert back.images.shape == (0, 1, 4, 4)
    assert back.features.shape == (0, 3) and back.labels.shape == (0,)


def test_a_zero_sample_manifest_past_numpys_dimension_limit_is_a_format_error(
        tmp_path, capsys):
    empty = Dataset([], np.empty((0, 1, 4, 4)), np.empty((0, 3)),
                    np.empty(0, dtype=np.int64), 2)
    manifest = save_dataset(empty, tmp_path / "d")
    meta = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**meta, "image_shape": [1, 10**30, 1]}), encoding="utf-8")
    with pytest.raises(FormatError, match="image_shape"):
        load_dataset(manifest)
    capsys.readouterr()
    assert main(["train", "--data", str(manifest.parent), "--model", "compnet",
                 "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("file", ["features.csv", "labels.csv"])
def test_a_body_line_under_a_zero_sample_manifest_is_a_format_error(
        tmp_path, monkeypatch, file):
    empty = Dataset([], np.empty((0, 1, 4, 4)), np.empty((0, 3)),
                    np.empty(0, dtype=np.int64), 2)
    root = save_dataset(empty, tmp_path / "d").parent
    with open(root / file, "a", encoding="utf-8") as fh:
        fh.write("s0,0\n")
    for block in CSV_BLOCKS:
        monkeypatch.setattr(cn.data, "_CSV_BLOCK", block)
        with pytest.raises(FormatError, match=f"^{file}: 1 rows, manifest says 0$"):
            load_dataset(root)


def test_a_dataset_without_designed_features_is_refused_before_anything_is_written(
        tmp_path, capsys):
    # Its table would have the header "id," and rows "s0,", which no load takes.
    ds = make_dataset(3, n_features=0)
    with pytest.raises(ConfigError, match="^n_features must be >= 1, got 0$"):
        save_dataset(ds, tmp_path / "d")
    assert not (tmp_path / "d").exists()
    manifest = save_dataset(make_dataset(3), tmp_path / "d")
    meta = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**meta, "n_features": 0}), encoding="utf-8")
    with pytest.raises(FormatError, match="n_features must be >= 1, got 0"):
        load_dataset(manifest)
    capsys.readouterr()
    assert main(["train", "--data", str(manifest.parent), "--model", "compnet",
                 "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_a_loaded_dataset_survives_a_rewrite_of_its_directory(tmp_path):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    ds = load_dataset(root)
    loaded = ds.images.tobytes()
    other = generate_synthetic(SynthSpec(n_samples=5, image_shape=(1, 6, 6), seed=3))
    save_dataset(other, root)
    assert ds.images.tobytes() == loaded
    assert load_dataset(root).images.tobytes() == other.images.tobytes() != loaded
    with pytest.raises(ValueError):
        ds.images[0, 0, 0, 0] = 1.0


def _edit_csv_cell(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    if value is None:
        del cells[col]
    else:
        cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("file, col, value", [
    ("features.csv", 2, "abc"),    # non-numeric feature cell
    ("features.csv", 2, ""),       # empty feature cell
    ("features.csv", 3, None),     # features row with too few fields
    ("features.csv", 2, "1e999"),  # feature cells that parse to no finite double
    ("features.csv", 2, "9" * 5000),
    ("features.csv", 2, "inf"),
    ("features.csv", 2, "nan"),
    ("labels.csv", 1, "1.5"),      # non-integer label
    ("labels.csv", 1, None),       # labels row without a label
], ids=["feature-text", "feature-empty", "feature-short-row", "feature-overflow",
        "feature-5000-digits", "feature-inf", "feature-nan", "label-float",
        "label-missing"])
def test_load_rejects_malformed_csv_cells(tmp_path, file, col, value):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    _edit_csv_cell(root / file, 2, col, value)
    with pytest.raises(FormatError):
        load_dataset(root)


# ---------------------------------------------------------------------------
# reading the tables: NumPy's parser under the plain-line rule

@pytest.mark.parametrize("file, col, value, message", [
    ("features.csv", 2, "abc", "feats.csv: non-numeric value: "),
    ("labels.csv", 0, "zzz", "labs.csv sample ids do not match feats.csv"),
    ("labels.csv", 1, "1.5", "labs.csv: label is not a 64-bit integer: "),
], ids=["feature-text", "label-id", "label-float"])
def test_a_table_error_names_the_file_the_manifest_names(tmp_path, file, col, value, message):
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    _edit_csv_cell(root / file, 2, col, value)
    manifest = json.loads((root / "manifest.json").read_text())
    names = {"features": "feats.csv", "labels": "labs.csv"}
    for key, name in names.items():
        (root / manifest["files"][key]).rename(root / name)
    manifest["files"].update(names)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="^" + re.escape(message)):
        load_dataset(root)


def _load_outcome(root):
    """What ``load_dataset`` gives: the columns, or the error's class and message."""
    try:
        ds = load_dataset(root)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.ids, ds.features.tobytes(), ds.labels.tolist()


@pytest.mark.parametrize("label", ["+1", " 1", "01", "-0", str(2 ** 63 - 1), str(-2 ** 63)])
def test_an_int64_label_loads_without_the_per_cell_reader(tmp_path, label):
    # NumPy's parser takes these as int() does; a Dataset would refuse the last two.
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    _edit_csv_cell(root / "labels.csv", 2, 1, label)
    with cn.data.open_input(root / "labels.csv", "labels file") as fh:
        labels = cn.data._read_labels(fh, "labels.csv", ["s0", "s1", "s2"], "features.csv")
    assert labels.dtype == np.int64 and labels.tolist() == [0, int(label), 0]


def _table_dataset(tmp_path, n=4000):
    """A saved ``n`` x 16 dataset of 1-pixel images, and its directory."""
    ds = Dataset([f"s{i}" for i in range(n)], np.zeros((n, 1, 1, 1)),
                 np.random.default_rng(0).normal(size=(n, 16)), np.arange(n) % 2, 2)
    return ds, save_dataset(ds, tmp_path / "d").parent


def _traced_read_tables(root):
    """``read_tables`` of the dataset at ``root``, and the bytes of Python
    allocations it holds and the peak it reached, as tracemalloc counts them."""
    mapped = cn.data.map_images(root)
    tracemalloc.start()
    try:
        tables = cn.data.read_tables(mapped)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tables, held, peak


def test_read_tables_holds_little_beside_the_tables_it_returns(tmp_path):
    # Both files are read a block of lines at a time: no file's text, and no
    # list of all its lines or rows, lives beside the growing tables.
    ds, root = _table_dataset(tmp_path)
    tables, held, peak = _traced_read_tables(root)
    assert tables.features.tobytes() == ds.features.tobytes()
    assert peak <= 1.5 * held, (peak, held)


def test_a_crlf_set_is_read_a_block_at_a_time_without_the_per_cell_reader(tmp_path):
    # A line ends at "\r\n" as it does at "\n".
    ds, root = _table_dataset(tmp_path)
    for name in ("features.csv", "labels.csv"):
        (root / name).write_bytes((root / name).read_bytes().replace(b"\n", b"\r\n"))
    tables, held, peak = _traced_read_tables(root)
    assert tables.ids == ds.ids
    assert tables.features.tobytes() == ds.features.tobytes()
    assert tables.labels.tolist() == ds.labels.tolist()
    assert peak <= 1.5 * held, (peak, held)


def _set_cell(value, row=2, col=1):
    def edit(text):
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return edit


FEATURE = "features.csv: non-numeric value: "
LABEL = "labels.csv: label is not a 64-bit integer: "
IDS = "labels.csv sample ids do not match features.csv"
SAVED = None  # the file loads to the values save_dataset wrote
EDGE_CASES = {  # case -> (edit, features.csv result, labels.csv result)
    # A result is what the edited cell (sample s1's first feature, or its
    # label) loads to, SAVED, or the start of the FormatError's message.
    "underscore": (_set_cell("1_0"), FEATURE, LABEL),  # float() and int() take it
    "arabic-indic-digit": (_set_cell("\u0661"), FEATURE, LABEL),  # likewise
    "leading-space": (_set_cell(" 1.5"), 1.5, LABEL),
    "spaced-id": (_set_cell(" s1 ", col=0), IDS, IDS),
    "quoted": (_set_cell('"1.5"'), "features.csv: line 3 holds '\"'",
               "labels.csv: line 3 holds '\"'"),
    "hash": (_set_cell("#"), FEATURE, LABEL),
    "crlf": (lambda text: text.replace("\n", "\r\n"), SAVED, SAVED),
    "crlf-then-lf": (lambda text: text.replace("\n", "\r\n", 2), SAVED, SAVED),
    "crlf-no-final-newline": (lambda text: text.replace("\n", "\r\n").rstrip("\n"),
                              SAVED, SAVED),
    # a lone "\r" ends no line (classic Mac line ends)
    "cr": (lambda text: text.replace("\n", "\r"), "features.csv: line 1 holds '\\r'",
           "labels.csv: line 1 holds '\\r'"),
    "cr-crlf": (lambda text: text.replace("\n", "\r\r\n"), "features.csv: line 1 holds '\\r'",
                "labels.csv: line 1 holds '\\r'"),
    "cr-in-a-cell": (_set_cell("1\r5"), "features.csv: line 3 holds '\\r'",
                     "labels.csv: line 3 holds '\\r'"),
    "blank-body-line": (lambda text: text.replace("\n", "\n\n", 1),
                        "features.csv: line 2 has 1 fields, expected 4",
                        "labels.csv: line 2 has 1 fields, expected 2"),
    "no-final-newline": (lambda text: text.rstrip("\n"), SAVED, SAVED),
    "oversize-field": (_set_cell("1" * 131_073),  # past csv's default field size limit
                       "{root}: sample s1: non-finite values", LABEL),
    "extra-line": (lambda text: text + text.split("\n")[-2] + "\n",
                   "features.csv: 4 rows, manifest says 3",
                   "labels.csv: 4 rows, manifest says 3"),
    "trailing-blank-line": (lambda text: text + "\n", "features.csv: 4 rows, manifest says 3",
                            "labels.csv: 4 rows, manifest says 3"),
    # int() takes each of these labels, or refuses it, by rules of its own
    "plus-sign": (_set_cell("+1"), 1.0, 1),
    "leading-zero": (_set_cell("01"), 1.0, 1),
    "minus-zero": (_set_cell("-0"), -0.0, 0),
    "spaced-integer": (_set_cell(" 1"), 1.0, 1),
    "int64-max": (_set_cell("9223372036854775807"), 2.0 ** 63,
                  "{root}: sample s1: label 9223372036854775807 outside [0, 2)"),
    "int64-max-plus-one": (_set_cell("9223372036854775808"), 2.0 ** 63, LABEL),
    "twenty-digits": (_set_cell("1" * 20), float("1" * 20), LABEL),
    "empty-cell": (_set_cell(""), FEATURE, LABEL),
    # NumPy's parser skips U+001C-U+001F as white space, and its int parser
    # reads U+01FE as the digit 462
    "file-separator": (_set_cell("\x1c1"), "features.csv: line 3 holds '\\x1c'",
                       "labels.csv: line 3 holds '\\x1c'"),
    "non-ascii-letter": (_set_cell("\u01fe"), FEATURE, LABEL + "'\u01fe'"),
    "other-header": (_set_cell("x", row=0), "features.csv: expected header id,f0..f2",
                     "labels.csv: expected header id,label"),
    "empty-file": (lambda text: "", "features.csv: no header line",
                   "labels.csv: no header line"),
}


# A block of one line puts every line, the one past the n-th too, at a block's start.
CSV_BLOCKS = [1, 64, cn.data._CSV_BLOCK]


@pytest.mark.parametrize("file", ["features.csv", "labels.csv"])
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_an_edge_case_loads_as_the_per_cell_reader_loads_it(tmp_path, monkeypatch, file, case):
    ds = make_dataset(3)
    root = save_dataset(ds, tmp_path / "d").parent
    edit, *results = EDGE_CASES[case]
    expected = results[file == "labels.csv"]
    path = root / file
    path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
    features, labels = ds.features.copy(), ds.labels.tolist()
    if expected is not SAVED and not isinstance(expected, str):
        if file == "features.csv":
            features[1, 0] = expected
        else:
            labels[1] = expected
    for block in CSV_BLOCKS:
        monkeypatch.setattr(cn.data, "_CSV_BLOCK", block)
        if isinstance(expected, str):
            with pytest.raises(FormatError) as error:
                load_dataset(root)
            assert str(error.value).startswith(expected.format(root=root)), str(error.value)
        else:
            assert _load_outcome(root) == (ds.ids, features.tobytes(), labels), block


@pytest.mark.parametrize("file, prefix, cell, dtype", [
    ("features.csv", FEATURE, "1_0", "float64"), ("labels.csv", LABEL, "1.0", "int64")])
def test_both_kinds_of_table_error_name_the_same_line(tmp_path, file, prefix, cell, dtype):
    # Sample s1's cell sits on the file's third line, whether the plain-line
    # rule or NumPy's parser refuses it.
    root = save_dataset(make_dataset(3), tmp_path / "d").parent
    path = root / file
    saved = path.read_text(encoding="utf-8")
    messages = []
    for value in ('"1.5"', cell):
        path.write_bytes(_set_cell(value)(saved).encode("utf-8"))
        with pytest.raises(FormatError) as error:
            load_dataset(root)
        messages.append(str(error.value))
    assert messages == [f"{file}: line 3 holds '\"'",
                        f"{prefix}could not convert string '{cell}' to {dtype} "
                        f"at line 3, column 2."]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), cell=CSV_CELLS)
def test_a_mutated_csv_loads_as_the_per_cell_reader_loads_it(data, cell):
    # One cell of a line, or the whole line, is replaced or removed.
    with tempfile.TemporaryDirectory() as tmp:
        root = save_dataset(make_dataset(3), Path(tmp) / "d").parent
        path = root / data.draw(st.sampled_from(["features.csv", "labels.csv"]))
        lines = path.read_text(encoding="utf-8").split("\n")
        row = data.draw(st.integers(0, len(lines) - 2))
        cells = lines[row].split(",")
        what = data.draw(st.sampled_from(["cell", "drop-cell", "line", "drop-line"]))
        if what == "cell":
            cells[data.draw(st.integers(0, len(cells) - 1))] = cell
        elif what == "drop-cell":
            del cells[data.draw(st.integers(0, len(cells) - 1))]
        elif what == "line":
            cells = data.draw(st.lists(CSV_CELLS, max_size=len(cells) + 1))
        lines[row:row + 1] = [] if what == "drop-line" else [",".join(cells)]
        path.write_bytes("\n".join(lines).encode("utf-8"))
        outcomes = []
        for block in CSV_BLOCKS:
            with mock.patch.object(cn.data, "_CSV_BLOCK", block):
                outcomes.append(_load_outcome(root))
        assert outcomes[0] == outcomes[1] == outcomes[2], outcomes
        assert not isinstance(outcomes[0][0], type) or outcomes[0][0] is FormatError, outcomes


# ---------------------------------------------------------------------------
# z-scoring

def test_zscore_hand_example():
    features = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    ds = Dataset(["z0", "z1", "z2"], np.zeros((3, 1, 2, 2)), features,
                 np.zeros(3, dtype=np.int64), 2)
    norm = zscore_fit(ds)
    assert norm.mean[0] == 2.0
    assert abs(norm.std[0] - math.sqrt(2.0 / 3.0)) <= 1e-15
    out = zscore_apply(norm, ds).features
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
    assert np.max(np.abs(out[:, 0] - expected)) <= 1e-12
    # constant column is masked, not divided by ~0
    assert np.array_equal(out[:, 1], np.zeros(3))


def test_zscore_self_normalization():
    ds = make_dataset(50, n_features=4)
    out = zscore_apply(zscore_fit(ds), ds).features
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(out.std(axis=0) - 1.0)) <= 1e-9


def test_zscore_uses_only_fit_statistics():
    train = make_dataset(20)
    shifted = Dataset(train.ids, train.images, train.features + 10.0,
                      train.labels, train.n_classes)
    norm_train = zscore_fit(train)
    both = Dataset(train.ids + shifted.ids,
                   np.concatenate([train.images, shifted.images]),
                   np.concatenate([train.features, shifted.features]),
                   np.concatenate([train.labels, shifted.labels]), train.n_classes)
    norm_both = zscore_fit(both)
    assert not np.array_equal(norm_train.mean, norm_both.mean)
    out = zscore_apply(norm_train, shifted).features
    assert out.mean() > 1.0  # shifted data stays shifted under train stats


def test_zscore_apply_rejects_features_the_transform_overflows():
    ds = make_dataset(2, n_features=1)
    ds = Dataset(ds.ids, ds.images, np.array([[1e300], [0.0]]), ds.labels, 2)
    norm = Normalizer(mean=[0.0], std=[1e-11], constant_mask=[False])
    with pytest.raises(DataError, match="sample s0: non-finite values"):
        zscore_apply(norm, ds)


def test_normalizer_round_trips_through_dict():
    norm = zscore_fit(make_dataset(10))
    back = Normalizer.from_dict(norm.to_dict())
    assert np.array_equal(norm.mean, back.mean)
    assert np.array_equal(norm.std, back.std)
    assert np.array_equal(norm.constant_mask, back.constant_mask)


def test_a_malformed_normalizer_is_a_config_error():
    # A Normalizer is a config record; eval maps the error to a FormatError
    # for normalizer.json (tests/test_cli.py).
    for d in MALFORMED_NORMALIZERS:
        with pytest.raises(ConfigError):
            Normalizer.from_dict(d)


@pytest.mark.parametrize("raw", [
    b"{\xff}", b'{"n": ' + b"1" * 5000 + b"}", b"[" * 100_000, b"{", b"[1]",
    '{"a": 1}'.encode("utf-16")],
    ids=["not-utf8", "huge-integer", "deep-nesting", "truncated", "list", "utf16"])
def test_read_json_object_raises_the_given_error_for_anything_but_an_object(raw):
    with pytest.raises(FormatError):
        read_json_object(raw, "input")
    with pytest.raises(ConfigError, match="^input: "):
        read_json_object(raw, "input", ConfigError)
    assert read_json_object(b'{"a": [1]}', "input") == {"a": [1]}


def test_json_is_parsed_only_by_read_json_object():
    # Every JSON input goes through the one reader that maps every parse
    # failure to an exit code; a second json.loads would drift from it.
    calls = []
    for path in sorted(Path(cn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                    and getattr(node.value, "id", None) == "json" \
                    or isinstance(node, ast.ImportFrom) and node.module == "json":
                calls.append((path.name, owner.get(node), node.lineno))
    assert [(f, fn) for f, fn, _ in calls] == [("data.py", "read_json_object")], calls


# ---------------------------------------------------------------------------
# splitting

def test_split_stratified_counts():
    ds = make_dataset(100)
    train, test = split(ds, 0.75, seed=0, stratified=True)
    assert len(train) == 75 and len(test) == 25
    for side, total in ((train, 75), (test, 25)):
        counts = np.bincount(side.labels, minlength=2)
        # both classes within half a sample of an even share of the side
        assert abs(int(counts[0]) - total / 2) <= 0.5
        assert abs(int(counts[1]) - total / 2) <= 0.5


def test_split_is_seed_deterministic_and_disjoint():
    ds = make_dataset(40)
    a_train, a_test = split(ds, 0.6, seed=5, stratified=True)
    b_train, b_test = split(ds, 0.6, seed=5, stratified=True)
    assert a_train.ids == b_train.ids
    assert a_test.ids == b_test.ids
    assert set(a_train.ids) | set(a_test.ids) == set(ds.ids)
    assert not set(a_train.ids) & set(a_test.ids)
    c_train, _ = split(ds, 0.6, seed=6, stratified=True)
    assert c_train.ids != a_train.ids


def test_split_proportions_within_one_count():
    ds = make_dataset(200, labels=[0 if i < 94 else 1 for i in range(200)])
    train, test = split(ds, 0.75, seed=1, stratified=True)
    assert len(train) == 150
    counts = np.bincount(train.labels, minlength=2)
    assert abs(int(counts[0]) - 0.75 * 94) <= 1
    assert abs(int(counts[1]) - 0.75 * 106) <= 1
    assert len(test) == 50


def test_split_keeps_a_two_sample_class_on_both_sides_past_the_rounded_size():
    # round(0.1 * 2) is 0 train samples of class 0; one per side wins over
    # the rounded total of 10.
    ds = make_dataset(100, labels=[0] * 2 + [1] * 98)
    train, test = split(ds, 0.1, seed=0, stratified=True)
    assert (len(train), len(test)) == (11, 89)
    assert np.bincount(train.labels).tolist() == [1, 10]
    assert np.bincount(test.labels).tolist() == [1, 88]


def test_split_unstratified_still_partitions():
    ds = make_dataset(30)
    train, test = split(ds, 0.5, seed=2, stratified=False)
    assert len(train) == 15 and len(test) == 15
    assert set(train.ids) | set(test.ids) == set(ds.ids)


def test_split_rejects_degenerate_fractions():
    ds = make_dataset(10)
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises((ConfigError, DataError)):
            split(ds, frac, seed=0, stratified=True)
