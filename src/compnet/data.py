"""Datasets: in-memory model, on-disk format, normalization, splitting,
and the seeded synthetic image+tabular benchmark generator.

Each sample couples an image with a designed-feature vector and a
label.  A ``Dataset`` holds them column-wise, as attributes: one
read-only array each for ``images``, ``features`` and ``labels``, plus
the tuple of sample ``ids``.  Subsetting,
normalizing, batching, generating, loading and saving all work on whole
columns.  Every dataset is validated when it is built: its values are
finite, which is what a model needs of them (see ``models``).

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

Loading is three steps: ``map_images`` reads the manifest and maps
``images.bin``, ``read_tables`` reads the two CSV files into checked
``Tables``, and ``load_dataset`` joins the two into a ``Dataset``, which
checks the pixels; only ``compnet train`` and ``compnet compare`` load.
``compnet eval``, of any split, and ``compnet importance`` stop at the tables,
and their scoring pass on the mapped pixels checks every pixel in the process
that computes on it (``models._pathway_batches``), so the command's own process
reads none.  ``open_input`` opens every file the package reads, and refuses
one that is missing or not a regular file with the caller's error.

Everything round-trips bit-exactly.  ``save_dataset`` writes each file
to a temporary name and renames it over the old one, which leaves the
inode a loaded dataset maps untouched.  Replace a dataset's files that
way: truncating ``images.bin`` in place while a process reads it can kill
that process with SIGBUS.

``features.csv`` and ``labels.csv`` are each read once, 8 KB of whole lines at
a time, by NumPy's parser (``_plain_csv_lines``): a table is what
``save_dataset`` writes, as that parser reads it, and anything else is a
``FormatError`` naming the file.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import stat
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DictConfig, require_min
from .exceptions import CompnetError, ConfigError, DataError, FormatError, ShapeError

FORMAT_VERSION = 1
_CONST_STD = 1e-12
_GENERATE_CHUNK = 512  # samples whose templates generate_synthetic adds to the noise at once
_CSV_BLOCK = 1 << 13  # bytes of whole lines a fast CSV read decodes and checks at once
_SAVE_ROWS = 1 << 10  # rows of a table save_dataset formats and writes at once
_NOT_PLAIN = '"\r\0\x1c\x1d\x1e\x1f'  # characters no plain CSV line holds


class Dataset:
    """Immutable ordered dataset, stored as one read-only attribute per column.

    ``images`` ``[n, C, H, W]``, ``features`` ``[n, N]`` and ``labels``
    ``[n]`` line up row for row with ``ids``, a tuple of strings.  The
    dataset takes the arrays over without copying and marks them
    read-only.  Every dataset,
    a :meth:`subset` or a :func:`zscore_apply` result too, is validated
    when it is built, so its batches are finite.
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
        _check_rows(ids, labels, n_classes, images, features)
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
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(images, features, labels)`` arrays for consecutive runs of ``size`` rows.

        Rows come in ``order`` when given, else in dataset order; the short
        last batch is kept.  A training step makes the tensors it records.
        """
        for start in range(0, len(self), size):
            rows = slice(start, start + size) if order is None else order[start:start + size]
            yield self.images[rows], self.features[rows], self.labels[rows]


def first_non_finite_row(*columns: np.ndarray) -> int | None:
    """Index of the first row that holds a non-finite value in any of
    ``columns`` (arrays of equal length), or ``None``.

    A column's sum is finite unless the column holds a NaN or an infinity
    or its finite values overflow the sum, so a valid column is read once,
    with no temporary array; the per-row pass runs only after a
    non-finite sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is the signal
        if all(np.isfinite(column.sum()) for column in columns):
            return None
    finite = np.logical_and.reduce(
        [np.isfinite(column).reshape(len(column), -1).all(axis=1) for column in columns])
    return None if finite.all() else int(np.argmin(finite))


def _check_finite(ids: Sequence[str], *columns: np.ndarray) -> None:
    """Raise ``DataError`` naming the first sample with a non-finite value."""
    row = first_non_finite_row(*columns)
    if row is not None:
        raise DataError(f"sample {ids[row]}: non-finite values")


def _check_rows(ids: Sequence[str], labels: np.ndarray, n_classes: int,
                *columns: np.ndarray) -> None:
    """``DataError`` for fewer than two classes, else for the first sample with a
    non-finite value in ``columns``, else for the first label outside
    ``[0, n_classes)``: the checks a ``Dataset`` makes of its values, in order."""
    if int(n_classes) < 2:
        raise DataError(f"need at least 2 classes, got {n_classes}")
    _check_finite(ids, *columns)
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"sample {ids[i]}: label {labels[i]} outside [0, {n_classes})")


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


def zscore_features(norm: Normalizer, ids: Sequence[str], features: np.ndarray
                    ) -> np.ndarray:
    """``(x - mean) / std`` under ``norm`` for each row of ``features``;
    ``DataError`` naming the first of ``ids`` whose row the transform overflowed."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = norm.transform(features)
    _check_finite(ids, out)
    return out


def zscore_apply(norm: Normalizer, ds: Dataset) -> Dataset:
    """New dataset whose features are :func:`zscore_features` of ``ds``'s.

    Images and labels come over from ``ds`` as they are.
    """
    return Dataset(ds.ids, ds.images, zscore_features(norm, ds.ids, ds.features), ds.labels,
                   ds.n_classes, {**ds.provenance, "normalized": True})


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
    if spec.pixel_noise > 0:
        images = rng.normal(0.0, spec.pixel_noise, size=(n, *spec.image_shape))
    else:  # no draw, so the features' draws stay; 0.0 + template is the template
        images = np.zeros((n, *spec.image_shape))
    for s in range(0, n, _GENERATE_CHUNK):  # addition commutes: the bits of template + noise
        images[s:s + _GENERATE_CHUNK] += templates[img_evidence[s:s + _GENERATE_CHUNK]]

    features = rng.normal(0.0, 1.0, size=(n, spec.n_features))
    signs = 2.0 * feat_evidence - 1.0
    features[:, :spec.n_informative] += signs[:, None]

    width = max(6, len(str(n - 1)))
    return Dataset([f"s{i:0{width}d}" for i in range(n)], images, features, labels,
                   spec.n_classes, {"kind": "synthetic", "spec": spec.to_dict()})


def write_atomic(path: Path, payload: bytes | np.ndarray | Iterator[bytes]) -> None:
    """Write ``payload`` (any bytes-like object, or an iterator of them, written
    in turn) to ``path`` through a temporary file, creating parent dirs; if the
    write or the rename fails, the temporary file is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(payload if isinstance(payload, Iterator) else [payload])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def open_input(path, what: str, error: type[CompnetError] = FormatError) -> io.BufferedReader:
    """``path`` opened for binary reading, else ``error`` naming ``what`` if it is
    missing or not a regular file: opening a FIFO does not wait (``O_NONBLOCK``) and
    the check is on the open descriptor.  Any other ``OSError`` passes through."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    if stat.S_ISREG(os.fstat(fd).st_mode):
        return open(fd, "rb")
    os.close(fd)
    raise error(f"{what} is not a regular file: {path}")


def read_input(path, what: str, error: type[CompnetError] = FormatError) -> bytes:
    """The bytes of ``path``, read through :func:`open_input`."""
    with open_input(path, what, error) as fh:
        return fh.read()


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
        require_min(self, image_shape=1, n_features=1)
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(f"unsupported format_version {self.format_version}")
        for key in ("images", "features", "labels"):  # files of the manifest's directory
            name = self.files.get(key)
            if not isinstance(name, str) or Path(name).name != name:
                raise ConfigError(f"files must name {key} by a file name, got {name!r}")


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write the dataset directory, the tables a block of rows at a time;
    returns the manifest path.  A ``ConfigError`` from the manifest, for a
    dataset with no designed feature, comes before any file is written."""
    manifest = Manifest(
        FORMAT_VERSION, len(ds), ds.image_shape, ds.n_features, ds.n_classes,
        {"images": "images.bin", "features": "features.csv", "labels": "labels.csv"},
        ds.provenance.get("name", ds.provenance.get("kind", "dataset")), ds.provenance)
    out = Path(out_dir)
    write_atomic(out / "images.bin", np.ascontiguousarray(ds.images, dtype="<f8"))
    # repr of a Python float is the shortest string that parses back to
    # the same 64-bit value, which is exactly the round trip we need.
    write_atomic(out / "features.csv",
                 _table_blocks("id," + ",".join(f"f{j}" for j in range(ds.n_features)),
                               ds.ids, ds.features, lambda row: ",".join(map(repr, row))))
    write_atomic(out / "labels.csv", _table_blocks("id,label", ds.ids, ds.labels, str))
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True).encode("utf-8") + b"\n"
    manifest_path = out / "manifest.json"
    write_atomic(manifest_path, payload)
    return manifest_path


def _table_blocks(header: str, ids: Sequence[str], column: np.ndarray,
                  cells: Callable[[object], str]) -> Iterator[bytes]:
    """The UTF-8 lines of a CSV table: ``header``, then ``id,cells(value)`` for
    each id and row of ``column`` as a Python value, ``_SAVE_ROWS`` rows a block."""
    yield (header + "\n").encode("utf-8")
    for s in range(0, len(ids), _SAVE_ROWS):
        rows = zip(ids[s:s + _SAVE_ROWS], column[s:s + _SAVE_ROWS].tolist())
        yield "".join(f"{sid},{cells(row)}\n" for sid, row in rows).encode("utf-8")


def load_dataset(manifest_path) -> Dataset:
    """Read a dataset directory back; inverse of :func:`save_dataset`.

    ``manifest_path`` may be the manifest file or its directory.  Any
    inconsistency in the files is a :class:`FormatError`.  The load is
    :func:`map_images`, then :func:`read_tables`, then the ``Dataset`` of the
    two, which checks the pixels.
    """
    mapped = map_images(manifest_path)
    tables = read_tables(mapped)
    return _joined(mapped, *tables)


class MappedImages(NamedTuple):
    """A dataset directory whose manifest is read and ``images.bin`` mapped,
    its tables not yet: the images are unchecked (see :func:`read_tables`)."""
    base: Path
    manifest: Manifest
    images: np.ndarray


class Tables(NamedTuple):
    """A dataset's ``features.csv`` and ``labels.csv``, row for row, checked as a
    ``Dataset`` checks them: finite features, labels in ``[0, n_classes)``."""
    ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray


def _joined(mapped: MappedImages, ids: Sequence[str], features: np.ndarray,
            labels: np.ndarray) -> Dataset:
    """The ``Dataset`` of ``mapped``'s images and these columns; what it refuses
    is a :class:`FormatError` naming the dataset directory."""
    base, manifest, images = mapped
    try:
        return Dataset(ids, images, features, labels, manifest.n_classes, manifest.provenance)
    except DataError as exc:  # a class count, value or label the columns refuse
        raise FormatError(f"{base}: {exc}") from None


def map_images(manifest_path) -> MappedImages:
    """Read the manifest and map ``images.bin`` read-only as ``[n, C, H, W]``.

    ``images.bin`` is mapped, not copied, and stays mapped while the
    dataset or any view of its images lives.  Replace the files by
    writing new ones and renaming them, as :func:`save_dataset` does;
    truncating ``images.bin`` in place under a running reader can end it
    with SIGBUS.  An empty ``images.bin`` cannot be mapped and loads as an
    empty array.  Both files are opened by :func:`open_input`.
    """
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = Manifest.from_dict(read_json_object(read_input(path, "manifest"), path))
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    n, image_shape = manifest.n_samples, manifest.image_shape
    expected = 8 * n * math.prod(image_shape)  # Python ints: no int64 wrap
    with open_input(path.parent / manifest.files["images"], "images file") as fh:
        pixels = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) \
            if os.fstat(fh.fileno()).st_size else b""
    if len(pixels) != expected:
        raise FormatError(f"images payload holds {len(pixels)} bytes, manifest implies {expected}")
    try:  # only a 0-sample set gets here with more pixels per image than NumPy can index
        images = np.frombuffer(pixels, dtype="<f8").reshape((n, *image_shape))
    except ValueError as exc:
        raise FormatError(f"{path}: manifest image_shape {list(image_shape)}: {exc}") from None
    return MappedImages(path.parent, manifest, images)


def read_tables(mapped: MappedImages) -> Tables:
    """Read and check ``features.csv`` and ``labels.csv`` of a mapped dataset.

    Each file's plain lines (:func:`_plain_csv_lines`) go to NumPy's parser from
    the descriptor :func:`open_input` returns; the ids of ``labels.csv`` must be
    those of ``features.csv``, row for row.  The tables are checked as a
    ``Dataset`` checks them, and the mapped pixels are read only if that check
    fails: then the joined ``Dataset`` is built, so the error names the first
    fault as :func:`load_dataset` does, a non-finite pixel before a later row's.
    """
    base, manifest = mapped.base, mapped.manifest
    n, files = manifest.n_samples, manifest.files
    with open_input(base / files["features"], "features file") as fh:
        ids, features = _read_features(fh, files["features"], n, manifest.n_features)
    with open_input(base / files["labels"], "labels file") as fh:
        labels = _read_labels(fh, files["labels"], ids, files["features"])
    try:
        _check_rows(ids, labels, manifest.n_classes, features)
    except DataError as exc:
        _joined(mapped, ids, features, labels)  # raises the first fault, pixels included
        raise FormatError(f"{base}: {exc}") from None
    return Tables(tuple(ids), features, labels)


def _plain_csv_lines(fh: io.BufferedReader, name: str, n: int, fields: int
                     ) -> Iterator[str]:
    """The header and the ``n`` body lines of the table on ``fh``, read and checked
    ``_CSV_BLOCK`` bytes of whole lines at a time; a :class:`FormatError` naming
    ``name`` and the first line that breaks the plain-line rule.

    A line ends in ``\\n`` or ``\\r\\n``: each block's ``\\r\\n`` becomes ``\\n``
    before it is checked, and a block that ends in ``\\r`` ends the file.  A
    plain line is UTF-8 with none of ``_NOT_PLAIN``: ``"``, any other ``\\r`` and
    NUL, which no saved table holds, and the separators ``\\x1c``-``\\x1f``,
    which NumPy's parser skips as white space.  It has ``fields`` fields, and
    the file holds exactly ``n + 1`` lines, the last one's ``\\n`` optional.
    """
    count = 0
    blocks = iter(partial(fh.readlines, _CSV_BLOCK), [])
    for block in blocks:
        if count + len(block) == n + 1:  # the file must end with this block
            block += next(blocks, [])
        try:
            text = b"".join(block).decode("utf-8")
        except UnicodeDecodeError:
            raise _first_fault(name, block, count, n, fields, blocks) from None
        if "\r" in text:  # one memchr; a replace that finds nothing scans far slower
            text = text.replace("\r\n", "\n").removesuffix("\r")
        lines = text.split("\n")
        if lines[-1] == "":  # the "\n" that ends the block
            lines.pop()
        if count + len(lines) > n + 1 or any(c in text for c in _NOT_PLAIN) \
                or any(line.count(",") != fields - 1 for line in lines):
            raise _first_fault(name, block, count, n, fields, blocks)
        count += len(lines)
        yield from lines
    if count != n + 1:
        raise FormatError(f"{name}: {count - 1} rows, manifest says {n}" if count
                          else f"{name}: no header line")


def _first_fault(name: str, block: list[bytes], count: int, n: int, fields: int,
                 rest: Iterator[list[bytes]]) -> FormatError:
    """The error for the first line of ``block``, which follows ``count`` lines and
    precedes the blocks ``rest``, that breaks the rule of :func:`_plain_csv_lines`."""
    for number, raw in enumerate(block[:n + 1 - count], count + 1):
        try:
            line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError as exc:
            return FormatError(f"{name}: line {number} is not UTF-8: {exc}")
        held = [c for c in _NOT_PLAIN if c in line]
        if held:
            return FormatError(f"{name}: line {number} holds {held[0]!r}")
        if line.count(",") != fields - 1:
            return FormatError(
                f"{name}: line {number} has {line.count(',') + 1} fields, expected {fields}")
    rows = count + len(block) + sum(map(len, rest)) - 1  # lines past the n + 1st
    return FormatError(f"{name}: {rows} rows, manifest says {n}")


def _read_features(fh: io.BufferedReader, name: str, n: int, n_features: int
                   ) -> tuple[list[str], np.ndarray]:
    """The ids and the ``[n, n_features]`` float64 matrix of ``features.csv``,
    whose cells NumPy's parser reads (it refuses ``1_0`` and non-ASCII digits)."""
    ids: list[str] = []

    def body(lines: Iterator[str]) -> Iterator[str]:
        for line in lines:
            ids.append(line.partition(",")[0])
            yield line

    lines = _plain_csv_lines(fh, name, n, n_features + 1)
    # The first line has n_features commas, so the header built here is no longer.
    if next(lines) != ",".join(["id", *(f"f{j}" for j in range(n_features))]):
        raise FormatError(f"{name}: expected header id,f0..f{n_features - 1}")
    if n == 0:  # np.loadtxt warns of a file with no data
        return ids, np.empty((0, n_features))
    try:
        features = np.loadtxt(body(lines), delimiter=",", usecols=range(1, n_features + 1),
                              comments=None, dtype=np.float64, ndmin=2, max_rows=n)
    except ValueError as exc:
        raise FormatError(f"{name}: non-numeric value: {_at_line(exc)}") from None
    return ids, features


def _at_line(exc: ValueError) -> str:
    """NumPy's message for a cell it refuses, naming its body row r as line r + 2."""
    text, at, where = str(exc).rpartition(" at row ")
    row, _, column = where.partition(",")
    return f"{text} at line {int(row) + 2},{column}" if at and row.isdigit() else str(exc)


def _read_labels(fh: io.BufferedReader, name: str, ids: list[str], features_name: str
                 ) -> np.ndarray:
    """The int64 labels of ``labels.csv``, whose ids must be ``ids``, those of
    ``features_name``, row for row, and whose cells must be ASCII: NumPy's
    parser reads some letters as digits (``\\u01fe`` as 462)."""

    def body(lines: Iterator[str]) -> Iterator[str]:
        for line, sid in zip(lines, ids):
            lid, _, cell = line.partition(",")
            if lid != sid:
                raise FormatError(f"{name} sample ids do not match {features_name}")
            if not cell.isascii():
                raise FormatError(f"{name}: label is not a 64-bit integer: {cell!r}")
            yield line

    lines = _plain_csv_lines(fh, name, len(ids), 2)
    if next(lines) != "id,label":
        raise FormatError(f"{name}: expected header id,label")
    if not ids:  # np.loadtxt warns of a file with no data
        return np.empty(0, dtype=np.int64)
    try:
        return np.loadtxt(body(lines), delimiter=",", usecols=1, comments=None,
                          dtype=np.int64, ndmin=1, max_rows=len(ids))
    except ValueError as exc:
        raise FormatError(f"{name}: label is not a 64-bit integer: {_at_line(exc)}") from None


def split_rows(labels: np.ndarray, train_fraction: float, seed: int,
               stratified: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and test rows of a deterministic disjoint split of ``labels``.

    Stratified mode keeps each class's train share within one sample of
    ``round(train_fraction * class_count)``, and both sides hold every
    class.  The train size is ``round(train_fraction * n)`` unless keeping
    one sample of every class on each side adds or removes samples: a
    2-sample class and a 98-sample class split at 0.1 give 11 train
    samples, not 10.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(labels)
    if n < 2:
        raise DataError(f"cannot split a dataset of {n} samples")
    rng = np.random.default_rng(seed)
    if not stratified:
        target = min(max(int(np.floor(train_fraction * n + 0.5)), 1), n - 1)
        perm = rng.permutation(n)
        return np.sort(perm[:target]), np.sort(perm[target:])
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
    fractional = sorted(classes, key=lambda c: (-(train_fraction * counts[c] - base[c]), c))
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
    return (np.sort(np.concatenate([p[:take[c]] for c, p in zip(classes, perms)])),
            np.sort(np.concatenate([p[take[c]:] for c, p in zip(classes, perms)])))


def split(ds: Dataset, train_fraction: float, seed: int,
          stratified: bool = True) -> tuple[Dataset, Dataset]:
    """The train and the test side of ``ds`` at :func:`split_rows` of its labels."""
    train_idx, test_idx = split_rows(ds.labels, train_fraction, seed, stratified)
    note = {"split_seed": int(seed), "train_fraction": float(train_fraction),
            "stratified": bool(stratified)}
    train = ds.subset(train_idx, {**note, "split": "train"})
    test = ds.subset(test_idx, {**note, "split": "test"})
    return train, test
