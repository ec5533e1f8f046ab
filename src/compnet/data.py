"""Datasets: in-memory model, on-disk format, normalization, splitting,
and the seeded synthetic image+tabular benchmark generator.

Each sample couples an image with a designed-feature vector and a
label.  A ``Dataset`` holds them column-wise, as attributes: one
read-only array each for ``images``, ``features`` and ``labels``, plus
the tuple of sample ``ids``.  Subsetting,
normalizing, batching, generating, loading and saving all work on whole
columns.  Every dataset is validated when it is built, so its batches
are ``CheckedBatch``.

The synthetic generator plants class evidence in both modalities
independently: each modality's evidence agrees with the true label only
with a configurable reliability, so neither alone suffices and a model
that combines them can beat either single-modality model.

On-disk layout (one directory per dataset):

* ``manifest.json`` — counts, shapes, file names, provenance.
* ``images.bin``    — raw little-endian float64 pixels, sample-major.
  A loaded dataset maps it read-only for as long as the dataset lives.
* ``features.csv``  — ``id,f0..f{N-1}`` rows, floats printed exactly.
* ``labels.csv``    — ``id,label`` rows.

Loading is two steps with the same errors as one: ``map_images`` reads
the manifest and maps ``images.bin``, and ``read_tables`` reads the two
CSV files and builds the checked ``Dataset``, so a caller can start work
on the images in between (``compnet eval`` and ``compnet importance``
start the image pathway on forked children there).  ``load_dataset`` is
the two in a row.

Everything round-trips bit-exactly.  ``save_dataset`` writes each file
to a temporary name and renames it over the old one, which leaves the
inode a loaded dataset maps untouched.  Replace a dataset's files that
way: truncating ``images.bin`` in place while a process reads it can kill
that process with SIGBUS.

``features.csv``'s header line must hold ``n_features + 1`` fields; then
the file is read once as text.  When ``csv.reader`` could only
split it at its commas and ``\\n`` line ends (no quotes, ``\\r`` or NUL, no
over-long line, the expected header, ``n`` body lines of the expected
width), the ids come from splitting the lines and the features from
NumPy's C parser.  Otherwise, or when the C parser refuses a cell, and
always for ``labels.csv``, the per-cell reader (``csv.reader``, ``float``
and ``int``) runs: it defines what a file holds and raises every format error.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .autodiff import Tensor
from .config import DictConfig, require_min
from .exceptions import CompnetError, ConfigError, DataError, FormatError, ShapeError

FORMAT_VERSION = 1
_CONST_STD = 1e-12


class Dataset:
    """Immutable ordered dataset, stored as one read-only attribute per column.

    ``images`` ``[n, C, H, W]``, ``features`` ``[n, N]`` and ``labels``
    ``[n]`` line up row for row with ``ids``, a tuple of strings.  The
    dataset takes the arrays over without copying and marks them
    read-only.  Every dataset,
    a :meth:`subset` or a :func:`zscore_apply` result too, is validated
    when it is built, so its batches are :class:`CheckedBatch`, which
    models do not re-scan for non-finite values.
    """

    def __init__(self, ids: Sequence[str], images: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, n_classes: int, provenance: Mapping | None = None):
        ids = tuple(ids)
        if images.ndim != 4:
            raise ShapeError(f"image_shape must be [C,H,W], got {list(images.shape[1:])}")
        if features.ndim != 2 or labels.ndim != 1 \
                or not len(ids) == len(images) == len(features) == len(labels):
            raise ShapeError(
                f"columns disagree: {len(ids)} ids, images {list(images.shape)}, "
                f"features {list(features.shape)}, labels {list(labels.shape)}")
        if int(n_classes) < 2:
            raise DataError(f"need at least 2 classes, got {n_classes}")
        _check_finite(ids, images, features)
        bad = (labels < 0) | (labels >= n_classes)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"sample {ids[i]}: label {labels[i]} outside [0, {n_classes})")
        for column in (images, features, labels):
            column.flags.writeable = False
        self.ids, self.images, self.features, self.labels = ids, images, features, labels
        self.image_shape = images.shape[1:]
        self.n_features = features.shape[1]
        self.n_classes = int(n_classes)
        self.provenance = dict(provenance or {})

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, indices: Iterable[int], provenance_note: Mapping | None = None) -> "Dataset":
        idx = np.fromiter(indices, dtype=np.intp)
        return Dataset([self.ids[i] for i in idx], self.images[idx], self.features[idx],
                       self.labels[idx], self.n_classes,
                       {**self.provenance, **(provenance_note or {})})

    def batches(self, size: int, order: np.ndarray | None = None
                ) -> Iterator[tuple[Tensor, Tensor, np.ndarray]]:
        """``(images, features, labels)`` for consecutive runs of ``size`` rows.

        Rows come in ``order`` when given, else in dataset order; the short
        last batch is kept.
        """
        for start in range(0, len(self), size):
            rows = slice(start, start + size) if order is None else order[start:start + size]
            yield (CheckedBatch(self.images[rows]), CheckedBatch(self.features[rows]),
                   self.labels[rows])


class CheckedBatch(Tensor):
    """Rows of a ``Dataset`` column, which the dataset has checked to be finite,
    or of mapped images that the ``Dataset`` built from them checks before any
    result computed from these rows is read (``models._pathway_batches``)."""

    __slots__ = ()


def _check_finite(ids: Sequence[str], *columns: np.ndarray) -> None:
    """Raise ``DataError`` naming the first sample with a non-finite value.

    A column's sum is finite unless the column holds a NaN or an infinity
    or its finite values overflow the sum, so a valid column is read once,
    with no temporary array; the per-sample pass runs only after a
    non-finite sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is the signal
        if all(np.isfinite(column.sum()) for column in columns):
            return
    finite = np.logical_and.reduce(
        [np.isfinite(column).reshape(len(column), -1).all(axis=1) for column in columns])
    if not finite.all():
        raise DataError(f"sample {ids[int(np.argmin(finite))]}: non-finite values")


@dataclass
class Normalizer(DictConfig):
    """Per-feature centering and scaling fitted on a training split.

    Features whose population standard deviation is below 1e-12 are
    flagged constant and always map to 0.
    """
    mean: tuple[float, ...]
    std: tuple[float, ...]
    constant_mask: tuple[bool, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not len(self.mean) == len(self.std) == len(self.constant_mask):
            raise ConfigError("normalizer fields must be matching vectors")
        if min(self.std, default=0.0) < 0:
            raise ConfigError("normalizer std must be non-negative")

    def transform(self, features: np.ndarray) -> np.ndarray:
        if features.ndim != 2 or features.shape[1] != len(self.mean):
            raise ShapeError(
                f"normalizer fitted on {len(self.mean)} features, "
                f"got matrix {list(features.shape)}")
        constant = np.array(self.constant_mask, dtype=bool)
        safe_std = np.where(constant, 1.0, np.array(self.std, dtype=np.float64))
        out = (features - np.array(self.mean, dtype=np.float64)) / safe_std
        return np.where(constant, 0.0, out)


def zscore_fit(train: Dataset) -> Normalizer:
    """Fit per-feature mean and population standard deviation on ``train``."""
    feats = train.features
    with np.errstate(over="ignore", invalid="ignore"):  # finite values can overflow both
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise DataError(f"feature f{bad[0]}: mean or std over the training split is not finite")
    return Normalizer(mean=mean.tolist(), std=std.tolist(),
                      constant_mask=(std < _CONST_STD).tolist())


def zscore_apply(norm: Normalizer, ds: Dataset) -> Dataset:
    """New dataset whose features are ``(x - mean) / std`` under ``norm``.

    Images and labels come over from ``ds`` as they are.  Every dataset
    is validated when it is built, so its batches are ``CheckedBatch``
    and features the transform overflowed raise ``DataError``.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        features = norm.transform(ds.features)
    return Dataset(ds.ids, ds.images, features, ds.labels, ds.n_classes,
                   {**ds.provenance, "normalized": True})


@dataclass
class SynthSpec(DictConfig):
    """Parameters of the synthetic two-modality benchmark generator.

    ``image_reliability`` / ``feature_reliability`` are the probabilities
    that each modality's evidence agrees with the true label; both must
    exceed 0.5 so the evidence is informative.  ``pixel_noise`` is the
    Gaussian sigma added to the unit-amplitude image template.
    """
    n_samples: int
    image_shape: tuple[int, int, int] = (1, 32, 32)
    n_features: int = 16
    n_informative: int = 8
    n_classes: int = 2
    image_reliability: float = 0.8
    feature_reliability: float = 0.8
    pixel_noise: float = 5.0
    class_balance: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        require_min(self, n_samples=1, image_shape=1, seed=0)
        if not 1 <= self.n_informative <= self.n_features:
            raise ConfigError(
                f"n_informative must be in [1, {self.n_features}], got {self.n_informative}")
        if self.n_classes != 2:
            raise ConfigError(
                f"the synthetic generator renders two templates and is binary-only; "
                f"got n_classes={self.n_classes}")
        for name, r in (("image_reliability", self.image_reliability),
                        ("feature_reliability", self.feature_reliability)):
            if not 0.5 < r <= 1.0:
                raise ConfigError(f"{name} must be in (0.5, 1], got {r}")
        if self.pixel_noise < 0:
            raise ConfigError(f"pixel_noise must be >= 0, got {self.pixel_noise}")
        if self.class_balance is not None:
            if len(self.class_balance) != self.n_classes:
                raise ConfigError(
                    f"class_balance needs {self.n_classes} entries, "
                    f"got {len(self.class_balance)}")
            if min(self.class_balance) <= 0 or abs(sum(self.class_balance) - 1.0) > 1e-9:
                raise ConfigError("class_balance must be positive and sum to 1")
        # images and features, and the two templates they are drawn from
        pixels = math.prod(self.image_shape)
        n_bytes = 8 * (self.n_samples * (pixels + self.n_features) + 2 * pixels)
        if n_bytes > np.iinfo(np.intp).max:
            raise ConfigError(f"the generated arrays need {n_bytes} bytes, past NumPy's limit")


def render_template(class_index: int, image_shape: Sequence[int]) -> np.ndarray:
    """Noise-free evidence image for one class, amplitude 1.

    Class 0 is a centered filled disc; class 1 is a diagonal cross.  The
    same pattern is stamped onto every channel.
    """
    c, h, w = (int(d) for d in image_shape)
    if class_index not in (0, 1):
        raise ConfigError(f"templates exist for classes 0 and 1, got {class_index}")
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    if class_index == 0:
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        radius = min(h, w) / 4.0
        mask = (rows - cy) ** 2 + (cols - cx) ** 2 <= radius ** 2
    else:
        thickness = max(1.0, min(h, w) / 16.0)
        scale = (h - 1) / max(1, w - 1)
        main = np.abs(rows - cols * scale) <= thickness
        anti = np.abs(rows - ((h - 1) - cols * scale)) <= thickness
        mask = main | anti
    plane = mask.astype(np.float64)
    return np.broadcast_to(plane, (c, h, w)).copy()


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Draw a dataset from ``spec``; identical specs yield identical bytes.

    Per sample: a label, an image-evidence class that agrees with the
    label with probability ``image_reliability`` (its template plus
    pixel noise becomes the image), and a feature-evidence class that
    agrees with probability ``feature_reliability`` (informative features
    are Normal(+1,1) for class 1 evidence, Normal(-1,1) for class 0;
    the rest are Normal(0,1) nuisance).  Informative features occupy
    indices ``0..n_informative-1``.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    balance = spec.class_balance or tuple(1.0 / spec.n_classes
                                          for _ in range(spec.n_classes))
    labels = np.searchsorted(np.cumsum(balance), rng.random(n)).astype(np.int64)
    labels = np.minimum(labels, spec.n_classes - 1)

    img_evidence = np.where(rng.random(n) < spec.image_reliability, labels, 1 - labels)
    feat_evidence = np.where(rng.random(n) < spec.feature_reliability, labels, 1 - labels)

    templates = np.stack([render_template(k, spec.image_shape) for k in range(2)])
    images = templates[img_evidence]
    if spec.pixel_noise > 0:
        noise = rng.normal(0.0, spec.pixel_noise, size=images.shape)
        noise += images  # addition commutes, so these are the bits of images + noise
        images = noise

    features = rng.normal(0.0, 1.0, size=(n, spec.n_features))
    signs = 2.0 * feat_evidence - 1.0
    features[:, :spec.n_informative] += signs[:, None]

    width = max(6, len(str(n - 1)))
    return Dataset([f"s{i:0{width}d}" for i in range(n)], images, features, labels,
                   spec.n_classes, {"kind": "synthetic", "spec": spec.to_dict()})


def write_atomic(path: Path, payload: bytes | np.ndarray) -> None:
    """Write ``payload`` (any bytes-like object) to ``path`` through a temporary
    file, creating parent dirs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def read_json_object(raw: bytes, what, error: type[CompnetError] = FormatError) -> dict:
    """Parse ``raw`` as a UTF-8 JSON object, raising ``error`` for anything else.

    ``ValueError`` covers invalid UTF-8, invalid JSON and integers past
    Python's digit limit; ``RecursionError``, nesting too deep to parse.
    """
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: invalid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise error(f"{what}: top level must be a JSON object")
    return parsed


@dataclass
class Manifest(DictConfig):
    """``manifest.json``: a dataset directory's counts, shapes, files and provenance."""
    format_version: int
    n_samples: int
    image_shape: tuple[int, int, int]
    n_features: int
    n_classes: int
    files: dict
    name: str = "dataset"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        require_min(self, image_shape=1)
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(f"unsupported format_version {self.format_version}")
        if not all(isinstance(self.files.get(k), str) for k in ("images", "features", "labels")):
            raise ConfigError("files must name images, features and labels")


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write the dataset directory; returns the manifest path."""
    out = Path(out_dir)
    write_atomic(out / "images.bin", np.ascontiguousarray(ds.images, dtype="<f8"))

    feat_lines = ["id," + ",".join(f"f{j}" for j in range(ds.n_features))]
    # repr of a Python float is the shortest string that parses back to
    # the same 64-bit value, which is exactly the round trip we need.
    for sid, row in zip(ds.ids, ds.features):
        feat_lines.append(sid + "," + ",".join(map(repr, row.tolist())))
    write_atomic(out / "features.csv", ("\n".join(feat_lines) + "\n").encode("utf-8"))

    label_lines = ["id,label"] + [f"{sid},{y}" for sid, y in zip(ds.ids, ds.labels.tolist())]
    write_atomic(out / "labels.csv", ("\n".join(label_lines) + "\n").encode("utf-8"))

    manifest = Manifest(
        FORMAT_VERSION, len(ds), ds.image_shape, ds.n_features, ds.n_classes,
        {"images": "images.bin", "features": "features.csv", "labels": "labels.csv"},
        ds.provenance.get("name", ds.provenance.get("kind", "dataset")), ds.provenance)
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True).encode("utf-8") + b"\n"
    manifest_path = out / "manifest.json"
    write_atomic(manifest_path, payload)
    return manifest_path


def load_dataset(manifest_path) -> Dataset:
    """Read a dataset directory back; inverse of :func:`save_dataset`.

    ``manifest_path`` may be the manifest file or its directory.  Any
    inconsistency in the files is a :class:`FormatError`.  The load is
    :func:`map_images`, then :func:`read_tables`.
    """
    return read_tables(map_images(manifest_path))


class MappedImages(NamedTuple):
    """A dataset directory whose manifest is read and ``images.bin`` mapped,
    its tables not yet: the images are unchecked until :func:`read_tables`."""
    base: Path
    manifest: Manifest
    images: np.ndarray


def map_images(manifest_path) -> MappedImages:
    """Read the manifest and map ``images.bin`` read-only as ``[n, C, H, W]``.

    ``images.bin`` is mapped, not copied, and stays mapped while the
    dataset or any view of its images lives.  Replace the files by
    writing new ones and renaming them, as :func:`save_dataset` does;
    truncating ``images.bin`` in place under a running reader can end it
    with SIGBUS.  An empty ``images.bin`` cannot be mapped and loads as an
    empty array.
    """
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = Manifest.from_dict(read_json_object(path.read_bytes(), path))
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    n, image_shape = manifest.n_samples, manifest.image_shape
    expected = 8 * n * math.prod(image_shape)  # Python ints: no int64 wrap
    with open(path.parent / manifest.files["images"], "rb") as fh:
        pixels = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) \
            if os.fstat(fh.fileno()).st_size else b""
    if len(pixels) != expected:
        raise FormatError(f"images payload holds {len(pixels)} bytes, manifest implies {expected}")
    try:  # only a 0-sample set gets here with more pixels per image than NumPy can index
        images = np.frombuffer(pixels, dtype="<f8").reshape((n, *image_shape))
    except ValueError as exc:
        raise FormatError(f"{path}: manifest image_shape {list(image_shape)}: {exc}") from None
    return MappedImages(path.parent, manifest, images)


def read_tables(mapped: MappedImages) -> Dataset:
    """Read ``features.csv`` and ``labels.csv`` and build the checked dataset.

    ``labels.csv`` goes through the per-cell reader, which is the
    definition and raises the errors.  A ``features.csv`` that
    :func:`_plain_csv_lines` accepts is split without ``csv.reader`` and
    parsed by NumPy's C parser, to the same ids and bits; any other file,
    or a cell the C parser refuses, goes to the per-cell reader too.
    Building the ``Dataset`` checks the mapped pixels, so a non-finite one
    is a :class:`FormatError` here.
    """
    base, manifest, images = mapped
    n, files = manifest.n_samples, manifest.files
    ids, features = _read_features(base / files["features"], n, manifest.n_features)
    label_ids, label_rows = _read_csv_rows(base / files["labels"], ["id", "label"], n)
    if label_ids != ids:
        raise FormatError("labels.csv sample ids do not match features.csv")
    try:
        labels = np.array([int(row[0]) for row in label_rows], dtype=np.int64)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past int64
        raise FormatError(f"labels.csv: label is not a 64-bit integer: {exc}") from None
    try:
        return Dataset(ids, images, features, labels, manifest.n_classes, manifest.provenance)
    except DataError as exc:  # a class count, value or label the columns refuse
        raise FormatError(f"{base}: {exc}") from None


def _read_features(path: Path, n: int, n_features: int) -> tuple[list[str], np.ndarray]:
    """The ids and the ``[n, n_features]`` float64 matrix of ``features.csv``.

    The C parser accepts a subset of what ``float()`` accepts (not ``1_0``
    or non-ASCII digits) and rounds it to the same doubles; what it
    refuses, the per-cell reader judges.
    """
    # The expected header has n_features commas on line 1.  newline="" ends
    # that line at "\r" too, so no more than it is read; latin-1 decodes any byte.
    with open(path, encoding="latin-1", newline="") as fh:
        first = fh.readline()
    width = first.count(",") + 1 if first else 0
    if width != n_features + 1:
        raise FormatError(f"{path.name}: header has {width} fields, "
                          f"manifest n_features {n_features} needs {n_features + 1}")
    header = ["id"] + [f"f{j}" for j in range(n_features)]
    lines = _plain_csv_lines(path, header, n)
    if lines is not None:
        try:
            features = np.loadtxt(lines, delimiter=",", usecols=range(1, n_features + 1),
                                  comments=None, dtype=np.float64, ndmin=2)
            return [line.partition(",")[0] for line in lines], features
        except ValueError:  # a cell the C parser refuses: the reader below judges it
            pass
    ids, rows = _read_csv_rows(path, header, n)
    try:
        features = np.array(rows, dtype=np.float64).reshape((n, n_features))
    except ValueError as exc:
        raise FormatError(f"features.csv: non-numeric value: {exc}") from None
    return ids, features


def _plain_csv_lines(path: Path, header: list[str], n: int) -> list[str] | None:
    """The ``n`` body lines of a CSV file that ``csv.reader`` could only split at
    its commas and ``\\n`` line ends, else ``None``.

    That is a UTF-8 file with no ``"``, ``\\r`` or NUL, no line longer than
    the csv field size limit, the expected header, and exactly ``n`` body
    lines of ``len(header)`` fields each.  ``None`` leaves every judgment
    to :func:`_read_csv_rows`.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    if '"' in text or "\r" in text or "\0" in text or n < 1 or len(header) < 2:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    commas = len(header) - 1
    if len(lines) != n + 1 or lines[0] != ",".join(header) \
            or max(map(len, lines)) > csv.field_size_limit() \
            or any(line.count(",") != commas for line in lines):
        return None
    return lines[1:]


def _read_csv_rows(path: Path, header: list[str], n: int) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path.name}: not a UTF-8 CSV file: {exc}") from None
    if not rows or rows[0] != header:
        raise FormatError(f"{path.name}: expected header {','.join(header)}")
    body = rows[1:]
    if len(body) != n:
        raise FormatError(f"{path.name}: {len(body)} rows, manifest says {n}")
    for row in body:
        if len(row) != len(header):
            raise FormatError(f"{path.name}: row with {len(row)} fields, "
                              f"expected {len(header)}")
    return [row[0] for row in body], [row[1:] for row in body]


def split(ds: Dataset, train_fraction: float, seed: int,
          stratified: bool = True) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint train/test split.

    Stratified mode keeps each class's train share within one sample of
    ``round(train_fraction * class_count)``, and both sides hold every
    class.  The train size is ``round(train_fraction * n)`` unless keeping
    one sample of every class on each side adds or removes samples: a
    2-sample class and a 98-sample class split at 0.1 give 11 train
    samples, not 10.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(ds)
    if n < 2:
        raise DataError(f"cannot split a dataset of {n} samples")
    rng = np.random.default_rng(seed)
    if not stratified:
        target = min(max(int(np.floor(train_fraction * n + 0.5)), 1), n - 1)
        perm = rng.permutation(n)
        train_idx, test_idx = np.sort(perm[:target]), np.sort(perm[target:])
    else:
        labels = ds.labels
        classes = sorted(int(c) for c in np.unique(labels))
        counts = {c: int((labels == c).sum()) for c in classes}
        for c in classes:
            if counts[c] < 2:
                raise DataError(
                    f"stratified split needs >= 2 samples per class; "
                    f"class {c} has {counts[c]}")
        target = int(np.floor(train_fraction * n + 0.5))
        target = min(max(target, len(classes)), n - len(classes))
        base = {c: int(np.floor(train_fraction * counts[c])) for c in classes}
        # Hand out the remaining train slots by largest fractional part,
        # ties toward the lower class index.
        fractional = sorted(
            classes,
            key=lambda c: (-(train_fraction * counts[c] - base[c]), c))
        remainder = target - sum(base.values())
        take = dict(base)
        for c in fractional:
            if remainder <= 0:
                break
            if take[c] < counts[c] - 1:
                take[c] += 1
                remainder -= 1
        for c in classes:
            take[c] = min(max(take[c], 1), counts[c] - 1)
        perms = [np.flatnonzero(labels == c)[rng.permutation(counts[c])] for c in classes]
        train_idx = np.sort(np.concatenate([p[:take[c]] for c, p in zip(classes, perms)]))
        test_idx = np.sort(np.concatenate([p[take[c]:] for c, p in zip(classes, perms)]))
    note = {"split_seed": int(seed), "train_fraction": float(train_fraction),
            "stratified": bool(stratified)}
    train = ds.subset(train_idx, {**note, "split": "train"})
    test = ds.subset(test_idx, {**note, "split": "test"})
    return train, test
