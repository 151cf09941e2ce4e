"""Dataset ingestion and Boolean feature encoding.

Every loader produces a :class:`BinaryDataset`: a rectangular 0/1 feature
matrix plus integer class labels. Categorical attributes are one-hot encoded;
continuous attributes get a monotone thermometer code against quantile
thresholds computed on the training split. The MONK tasks are closed-form
rules over six small categorical attributes, so their canonical-format files
can be synthesized deterministically when no copy is on disk; the other
datasets must be provided as files.

File resolution order for the standard names: an explicit --data-dir,
the GATENET_DATA environment variable, then ./data.
"""

from __future__ import annotations

import gzip
import itertools
import os
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """A dataset file is missing, malformed, or internally inconsistent."""


@dataclass
class BinaryDataset:
    """Boolean features (samples x width, uint8) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    width: int
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.uint8)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if self.features.shape != (len(self.labels), self.width):
            raise DataError(
                f"feature matrix {self.features.shape} does not match "
                f"{len(self.labels)} labels x width {self.width}"
            )
        if self.features.size and self.features.max() > 1:
            raise DataError("features must be 0/1")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"labels must lie in [0, {self.class_count})")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# MONK: six categorical attributes with cardinalities (3, 3, 2, 3, 4, 2),
# one-hot encoded into 17 bits; the full input space has 432 assignments.

MONK_CARDINALITIES = (3, 3, 2, 3, 4, 2)
MONK_WIDTH = sum(MONK_CARDINALITIES)
_MONK_TRAIN_SIZES = {1: 124, 2: 169, 3: 122}
_MONK_NOISE_FRACTION = 0.05  # task 3 ships with ~5% mislabeled training rows


def monk_rule(task: int, attrs) -> int:
    """The target concept of each MONK task over 1-based attribute values."""
    a1, a2, a3, a4, a5, a6 = attrs
    if task == 1:
        return int(a1 == a2 or a5 == 1)
    if task == 2:
        return int(sum(v == 1 for v in (a1, a2, a3, a4, a5, a6)) == 2)
    if task == 3:
        return int((a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3))
    raise ValueError("MONK task must be 1, 2, or 3")


def _monk_space() -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(1, c + 1) for c in MONK_CARDINALITIES)))


def generate_monk_files(task: int, out_dir: str) -> tuple[str, str]:
    """Write monks-<task>.train/.test in the canonical row format, seeded.

    The test split enumerates the full 432-row space; the train split is a
    fixed-size random subset (with 5% label noise for task 3). Output is
    byte-identical across calls.
    """
    rows = _monk_space()
    rng = np.random.default_rng([3, task])
    pick = np.sort(rng.choice(len(rows), size=_MONK_TRAIN_SIZES[task], replace=False))
    flipped: set[int] = set()
    if task == 3:
        n_flip = round(_MONK_NOISE_FRACTION * len(pick))
        flipped = set(int(i) for i in rng.choice(pick, size=n_flip, replace=False))
    os.makedirs(out_dir, exist_ok=True)

    def render(i: int, noisy: bool) -> str:
        label = monk_rule(task, rows[i]) ^ (noisy and i in flipped)
        fields = " ".join(str(v) for v in rows[i])
        return f" {label} {fields} data_{i}\n"

    train_path = os.path.join(out_dir, f"monks-{task}.train")
    test_path = os.path.join(out_dir, f"monks-{task}.test")
    with open(train_path, "w") as fh:
        fh.writelines(render(int(i), noisy=True) for i in pick)
    with open(test_path, "w") as fh:
        fh.writelines(render(i, noisy=False) for i in range(len(rows)))
    return train_path, test_path


def ensure_monk_files(task: int, data_dir: str) -> tuple[str, str]:
    """Paths to the MONK split files, synthesizing them if absent."""
    train_path = os.path.join(data_dir, f"monks-{task}.train")
    test_path = os.path.join(data_dir, f"monks-{task}.test")
    if not (os.path.exists(train_path) and os.path.exists(test_path)):
        return generate_monk_files(task, data_dir)
    return train_path, test_path


def load_monk(path: str) -> BinaryDataset:
    """Parse one MONK file: rows of `label a1..a6 id`, one-hot to 17 bits."""
    offsets = np.concatenate([[0], np.cumsum(MONK_CARDINALITIES)])
    feats, labels = [], []
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"cannot read MONK file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 8:
                raise DataError(f"{path}:{lineno}: expected 8 fields, got {len(tokens)}")
            try:
                label = int(tokens[0])
                attrs = [int(t) for t in tokens[1:7]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer label or attribute") from None
            if label not in (0, 1):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            bits = np.zeros(MONK_WIDTH, dtype=np.uint8)
            for j, (v, card) in enumerate(zip(attrs, MONK_CARDINALITIES)):
                if not 1 <= v <= card:
                    raise DataError(
                        f"{path}:{lineno}: attribute {j + 1} value {v} outside [1, {card}]"
                    )
                bits[offsets[j] + v - 1] = 1
            feats.append(bits)
            labels.append(label)
    return BinaryDataset(
        features=np.array(feats, dtype=np.uint8).reshape(-1, MONK_WIDTH),
        labels=np.array(labels, dtype=np.int64),
        width=MONK_WIDTH,
        class_count=2,
    )


# ---------------------------------------------------------------------------
# Adult census: mixed categorical/continuous CSV with a canonical train/test
# split. Categorical vocabularies and quantile thresholds both come from the
# training split; rows with missing fields ('?') are dropped.

_ADULT_CONTINUOUS = {0, 2, 4, 10, 11, 12}  # age, fnlwgt, edu-num, gains, losses, hours
_ADULT_FIELDS = 15
_ADULT_QUANTILES = (0.2, 0.4, 0.6, 0.8)
_ADULT_LABELS = {"<=50K": 0, ">50K": 1}


def _parse_adult(path: str) -> tuple[list[list[str]], np.ndarray]:
    rows, labels = [], []
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"cannot read Adult file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != _ADULT_FIELDS:
                raise DataError(f"{path}:{lineno}: expected {_ADULT_FIELDS} fields, got {len(fields)}")
            label = fields[-1].rstrip(".")
            if label not in _ADULT_LABELS:
                raise DataError(f"{path}:{lineno}: unknown label {label!r}")
            if "?" in fields[:-1]:
                continue
            rows.append(fields[:-1])
            labels.append(_ADULT_LABELS[label])
    return rows, np.array(labels, dtype=np.int64)


class _TabularEncoder:
    """Per-column one-hot / quantile-thermometer encoding, fit on train rows."""

    def __init__(self, rows: list[list[str]], continuous: set[int]):
        if not rows:
            raise DataError("no usable training rows to fit the encoder")
        self.continuous = continuous
        self.columns = []
        for col in range(len(rows[0])):
            raw = [r[col] for r in rows]
            if col in continuous:
                values = np.array([float(v) for v in raw])
                thresholds = np.unique(np.quantile(values, _ADULT_QUANTILES))
                self.columns.append(("cont", thresholds))
            else:
                self.columns.append(("cat", sorted(set(raw))))
        self.width = sum(len(spec) for _, spec in self.columns)

    def encode(self, rows: list[list[str]]) -> np.ndarray:
        blocks = []
        for col, (kind, spec) in enumerate(self.columns):
            raw = [r[col] for r in rows]
            if kind == "cont":
                values = np.array([float(v) for v in raw])
                blocks.append((values[:, None] > spec).astype(np.uint8))
            else:
                cats = np.array(spec)
                blocks.append((np.array(raw)[:, None] == cats).astype(np.uint8))
        return np.concatenate(blocks, axis=1)


def load_adult(train_path: str, test_path: str) -> tuple[BinaryDataset, BinaryDataset]:
    """Load the canonical Adult split; encoding is fit on the train file."""
    train_rows, train_labels = _parse_adult(train_path)
    test_rows, test_labels = _parse_adult(test_path)
    enc = _TabularEncoder(train_rows, _ADULT_CONTINUOUS)
    train = BinaryDataset(enc.encode(train_rows), train_labels, enc.width, 2)
    test = BinaryDataset(enc.encode(test_rows), test_labels, enc.width, 2)
    return train, test


# ---------------------------------------------------------------------------
# Breast cancer (the 286-instance categorical variant): all nine attributes
# are one-hot encoded against their published domains (51 bits total), so the
# width never depends on which rows land in which split.

_BC_DOMAINS = (
    ("10-19", "20-29", "30-39", "40-49", "50-59", "60-69", "70-79", "80-89", "90-99"),
    ("lt40", "ge40", "premeno"),
    ("0-4", "5-9", "10-14", "15-19", "20-24", "25-29", "30-34", "35-39", "40-44",
     "45-49", "50-54", "55-59"),
    ("0-2", "3-5", "6-8", "9-11", "12-14", "15-17", "18-20", "21-23", "24-26",
     "27-29", "30-32", "33-35", "36-39"),
    ("yes", "no"),
    ("1", "2", "3"),
    ("left", "right"),
    ("left_up", "left_low", "right_up", "right_low", "central"),
    ("yes", "no"),
)
BREAST_CANCER_WIDTH = sum(len(d) for d in _BC_DOMAINS)
_BC_LABELS = {"no-recurrence-events": 0, "recurrence-events": 1}
_BC_TEST_FRACTION = 0.2  # of each class's rows


def load_breast_cancer(path: str, seed: int = 0) -> tuple[BinaryDataset, BinaryDataset]:
    """Load, one-hot encode, and split stratified by class, seeded."""
    feats, labels = [], []
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"cannot read breast-cancer file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 1 + len(_BC_DOMAINS):
                raise DataError(
                    f"{path}:{lineno}: expected {1 + len(_BC_DOMAINS)} fields, got {len(fields)}"
                )
            if fields[0] not in _BC_LABELS:
                raise DataError(f"{path}:{lineno}: unknown class {fields[0]!r}")
            if "?" in fields[1:]:
                continue
            bits = np.zeros(BREAST_CANCER_WIDTH, dtype=np.uint8)
            offset = 0
            for value, domain in zip(fields[1:], _BC_DOMAINS):
                if value not in domain:
                    raise DataError(f"{path}:{lineno}: value {value!r} outside its domain")
                bits[offset + domain.index(value)] = 1
                offset += len(domain)
            feats.append(bits)
            labels.append(_BC_LABELS[fields[0]])
    features = np.array(feats, dtype=np.uint8).reshape(-1, BREAST_CANCER_WIDTH)
    labels = np.array(labels, dtype=np.int64)
    rng = np.random.default_rng([4, seed])
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        perm = rng.permutation(len(members))
        test_idx.append(members[perm[: round(_BC_TEST_FRACTION * len(members))]])
    test_mask = np.zeros(len(labels), dtype=bool)
    test_mask[np.concatenate(test_idx)] = True
    train = BinaryDataset(features[~test_mask], labels[~test_mask], BREAST_CANCER_WIDTH, 2)
    test = BinaryDataset(features[test_mask], labels[test_mask], BREAST_CANCER_WIDTH, 2)
    return train, test


# ---------------------------------------------------------------------------
# MNIST: IDX image/label pairs, binarized by a pixel-intensity threshold.

_IDX_IMAGE_MAGIC = 2051
_IDX_LABEL_MAGIC = 2049
_MNIST_THRESHOLD = 0.5  # a fraction of full intensity, 255


def _read_idx(path: str, expect_magic: int) -> np.ndarray:
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read IDX file {path}: {exc}") from exc
    if len(data) < 4:
        raise DataError(f"{path}: truncated IDX header")
    magic = int.from_bytes(data[:4], "big")
    if magic != expect_magic:
        raise DataError(f"{path}: bad magic {magic}, expected {expect_magic}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(data) < header:
        raise DataError(f"{path}: truncated IDX dimension header")
    dims = [int.from_bytes(data[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    payload = np.frombuffer(data, dtype=np.uint8, offset=header)
    if payload.size != int(np.prod(dims)):
        raise DataError(f"{path}: payload holds {payload.size} bytes, dims say {dims}")
    return payload.reshape(dims)


def load_mnist(images_path: str, labels_path: str) -> BinaryDataset:
    """Binarize IDX images: bit = (pixel/255 > _MNIST_THRESHOLD); 10 classes."""
    images = _read_idx(images_path, _IDX_IMAGE_MAGIC)
    labels = _read_idx(labels_path, _IDX_LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    n, rows, cols = images.shape
    features = (images.reshape(n, rows * cols) > _MNIST_THRESHOLD * 255.0).astype(np.uint8)
    return BinaryDataset(features, labels.astype(np.int64), features.shape[1], 10)


# ---------------------------------------------------------------------------
# Name-based resolution used by the command line and the experiment scripts.

DATASET_NAMES = ("monk1", "monk2", "monk3", "adult", "breast_cancer", "mnist")


def resolve_data_dir(explicit: str | None = None) -> str:
    return explicit or os.environ.get("GATENET_DATA") or "data"


def _existing(data_dir: str, *names: str) -> str:
    for name in names:
        for candidate in (name, name + ".gz"):
            path = os.path.join(data_dir, candidate)
            if os.path.exists(path):
                return path
    raise DataError(
        f"missing dataset file: looked for {', '.join(names)} under {data_dir!r} "
        "(set --data-dir or GATENET_DATA)"
    )


def load_dataset(
    name: str, data_dir: str | None = None, seed: int = 0
) -> tuple[BinaryDataset, BinaryDataset]:
    """Load a (train, test) pair by dataset name.

    MONK files are synthesized on demand from their closed-form rules; the
    other datasets must already sit in the data directory under their
    canonical file names.
    """
    d = resolve_data_dir(data_dir)
    key = name.lower().replace("-", "_")
    if key in ("monk1", "monk2", "monk3"):
        task = int(key[-1])
        train_path, test_path = ensure_monk_files(task, d)
        return load_monk(train_path), load_monk(test_path)
    if key == "adult":
        return load_adult(_existing(d, "adult.data"), _existing(d, "adult.test"))
    if key == "breast_cancer":
        return load_breast_cancer(_existing(d, "breast-cancer.data"), seed=seed)
    if key == "mnist":
        train = load_mnist(
            _existing(d, "train-images-idx3-ubyte", "train-images.idx3-ubyte"),
            _existing(d, "train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
        )
        test = load_mnist(
            _existing(d, "t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
            _existing(d, "t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
        )
        return train, test
    raise DataError(f"unknown dataset {name!r}; known: {', '.join(DATASET_NAMES)}")
