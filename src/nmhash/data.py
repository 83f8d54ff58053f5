"""Datasets: synthetic generation, CSV loading, splits, similarity.

File format, one item per line, no header:

    label_ids,f_1,f_2,...,f_dim

where label_ids is one or more nonnegative integers joined by ';'.
Example row with two labels: ``1;4,0.25,-3.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError
from .metrics import relevance_matrix

ROLE_TRAIN = "train"
ROLE_VALIDATION = "validation"
ROLE_QUERY = "query"


@dataclass
class FeatureDataset:
    """Feature rows with label sets and a role per item.

    The train split doubles as the retrieval gallery.  Roles partition the
    items; a freshly built dataset is all-train until assign_splits.
    """

    features: np.ndarray = field(repr=False)
    labels: list[frozenset] = field(repr=False)
    roles: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError("features must be a non-empty 2-D array")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if len(self.labels) != self.n_items:
            raise ValueError("one label set per item required")
        self.labels = [frozenset(int(v) for v in s) for s in self.labels]
        if any(not s for s in self.labels):
            raise ValueError("every item needs at least one label")
        if any(v < 0 for s in self.labels for v in s):
            raise ValueError("label ids must be nonnegative")
        if any(v >= 2**63 for s in self.labels for v in s):
            raise ValueError("label ids must fit in int64")
        # widen explicitly: np.full(n, "train") would truncate "validation"
        self.roles = np.asarray(self.roles, dtype="<U10")
        if self.roles.shape != (self.n_items,):
            raise ValueError("one role per item required")
        valid = (ROLE_TRAIN, ROLE_VALIDATION, ROLE_QUERY)
        if not np.isin(self.roles, valid).all():
            raise ValueError(f"roles must be among {valid}")

    @property
    def n_items(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def indices(self, role: str) -> np.ndarray:
        return np.flatnonzero(self.roles == role)


def generate_synthetic(n_classes: int, dim: int, n_per_class: int,
                       noise_sigma: float, seed) -> FeatureDataset:
    """Gaussian class clusters: center_c ~ 3 * N(0, I), item = center + sigma * N(0, I).

    Items come out class-major (all of class 0, then class 1, ...), each
    with the single label {c}.  Fully determined by the arguments.
    """
    if n_classes < 1 or n_per_class < 1 or dim < 1:
        raise ConfigError(
            "n_classes, dim, and n_per_class must all be >= 1; got "
            f"{n_classes}, {dim}, {n_per_class}"
        )
    # written so that NaN fails the range check
    if not 0 <= noise_sigma < np.inf:
        raise ConfigError(
            f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((n_classes, dim))
    rows = []
    labels = []
    for c in range(n_classes):
        rows.append(centers[c] + noise_sigma * rng.standard_normal((n_per_class, dim)))
        labels.extend([frozenset([c])] * n_per_class)
    features = np.vstack(rows)
    return FeatureDataset(features, labels,
                          np.full(features.shape[0], ROLE_TRAIN))


def load_features(path) -> FeatureDataset:
    """Parse a feature CSV; malformed input raises DataFormatError with the line number."""
    rows = []
    labels = []
    dim = None
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\r\n")
            if not text:
                continue  # a blank line holds no item
            fields = text.split(",")
            if len(fields) < 2:
                raise DataFormatError(
                    f"line {lineno}: need label field plus features"
                )
            try:
                ids = [int(tok) for tok in fields[0].split(";")]
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: label ids must be integers, got "
                    f"{fields[0]!r}"
                ) from None
            if any(v < 0 for v in ids):
                raise DataFormatError(
                    f"line {lineno}: label ids must be nonnegative"
                )
            if max(ids) >= 2**63:
                raise DataFormatError(
                    f"line {lineno}: label id {max(ids)} does not fit in int64")
            try:
                feats = [float(tok) for tok in fields[1:]]
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: features must be numeric"
                ) from None
            if not np.isfinite(feats).all():
                raise DataFormatError(f"line {lineno}: features must be finite")
            if dim is None:
                dim = len(feats)
            elif len(feats) != dim:
                raise DataFormatError(
                    f"line {lineno}: expected {dim} features, got {len(feats)}"
                )
            rows.append(feats)
            labels.append(frozenset(ids))
    if not rows:
        raise DataFormatError("file contains no data rows")
    features = np.asarray(rows, dtype=np.float64)
    return FeatureDataset(features, labels,
                          np.full(features.shape[0], ROLE_TRAIN))


def save_features(ds: FeatureDataset, path) -> None:
    """Write the dataset in the CSV format load_features reads.

    Floats are rendered with repr (shortest round-trip form), so the same
    dataset always produces byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(ds.n_items):
            ids = ";".join(str(v) for v in sorted(ds.labels[i]))
            feats = ",".join(repr(float(v)) for v in ds.features[i])
            fh.write(f"{ids},{feats}\n")


def assign_splits(ds: FeatureDataset, n_validation: int, n_query: int,
                  seed) -> FeatureDataset:
    """Seeded shuffle, then: first n_query items -> query, next
    n_validation -> validation, rest -> train (= gallery).  Returns a new
    dataset; the input is untouched.
    """
    if n_validation < 0 or n_query < 0:
        raise ConfigError("split sizes must be >= 0")
    if n_validation + n_query >= ds.n_items:
        raise ConfigError(
            f"splits need n_validation + n_query < n_items; got "
            f"{n_validation} + {n_query} with {ds.n_items} items"
        )
    perm = np.random.default_rng(seed).permutation(ds.n_items)
    roles = np.full(ds.n_items, ROLE_TRAIN, dtype="<U10")
    roles[perm[:n_query]] = ROLE_QUERY
    roles[perm[n_query:n_query + n_validation]] = ROLE_VALIDATION
    return FeatureDataset(ds.features.copy(), list(ds.labels), roles)


def standardize(ds: FeatureDataset) -> FeatureDataset:
    """Zero-mean unit-variance per dimension, statistics from the train split.

    Constant dimensions are left centered but unscaled.  Applied to every
    split so queries live in the gallery's coordinate system.
    """
    train_idx = ds.indices(ROLE_TRAIN)
    if train_idx.size == 0:
        raise ConfigError("standardization needs a non-empty train split")
    mean = ds.features[train_idx].mean(axis=0)
    std = ds.features[train_idx].std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return FeatureDataset((ds.features - mean) / std, list(ds.labels),
                          ds.roles.copy())


def build_similarity(labels_a, labels_b) -> np.ndarray:
    """Similarity matrix over two label sequences: +1 on intersection, else -1."""
    rel = relevance_matrix(labels_a, labels_b)
    return np.where(rel, 1.0, -1.0)
