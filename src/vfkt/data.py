"""Datasets, parties, sample alignment, and the strict JSON reader.

Value types here are immutable after construction: feature matrices freeze
their numpy buffers so they can be shared between parties without copies.
``from_dict`` builds a dataclass from a JSON document; it reads configs,
LKT checkpoints and run reports alike.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .numerics import Array


class DataError(ValueError):
    """Raised for ingestion and alignment problems (bad cells, duplicate IDs, unknown IDs)."""


class ConfigError(ValueError):
    """Raised for a bad config, checkpoint or report: an unknown key, a wrong type, a bad value."""


def from_dict(cls, doc, path: str = ""):
    """Build the dataclass ``cls`` from a JSON object, strictly.

    A missing key takes the field's default; a nested dataclass field is
    built recursively, a JSON array becomes a tuple, a list or, for an
    ``Array`` field, a float array of any depth. An unknown key, a missing
    required key, a section that is not an object, or a value whose type is
    not the field's (a bool is no int, an int is a float, an array holds
    numbers only) raises ConfigError naming its dotted path (``lkt.epoch``);
    a value the section itself rejects raises it as ``<path>: <message>``
    (``lkt: epochs must be >= 1``).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {type(doc).__name__}")
    prefix = f"{path}." if path else ""
    known = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown key {prefix}{key}")
    for f in known.values():
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {prefix}{f.name}")
    hints = get_type_hints(cls)
    values = {k: _field_value(hints[k], v, prefix + k) for k, v in doc.items()}
    try:
        return cls(**values)
    except ConfigError as exc:
        if not path:
            raise
        raise ConfigError(f"{path}: {exc}") from None


def _field_value(tp, value, path: str):
    if isinstance(tp, UnionType):  # T | None
        if value is None:
            return None
        tp = next(a for a in get_args(tp) if a is not type(None))
    if is_dataclass(tp):
        return from_dict(tp, value, path)
    origin = get_origin(tp)
    if tp is Array or origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        if tp is Array:
            # one pass over the elements: astype alone would read true as 1.0
            # and "1.5" as 1.5; a ragged row stays a list element
            a = np.asarray(value, dtype=object)
            bad = set(map(type, a.flat)) - {int, float}
            if bad:
                raise ConfigError(f"{path} must hold numbers only, got "
                                  f"{min(t.__name__ for t in bad)}")
            return a.astype(float)
        items = get_args(tp)
        if origin is list or items[-1] is Ellipsis:
            items = (items[0],) * len(value)
        elif len(items) != len(value):
            raise ConfigError(f"{path} must have {len(items)} items, got {len(value)}")
        return origin(_field_value(t, v, f"{path}[{i}]")
                      for i, (t, v) in enumerate(zip(items, value)))
    # bool is an int subclass, so it is rejected outright where it is not
    # the declared type; an int stays an int in a float field, as written
    ok = isinstance(value, (int, float) if tp is float else tp)
    if not ok or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path} must be {tp.__name__}, got {type(value).__name__}")
    return value


def _freeze(a: Array) -> Array:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureMatrix:
    """Row-indexed dense feature matrix. Row order matches ``ids``."""

    ids: tuple[str, ...]
    columns: tuple[str, ...]
    values: Array

    def __post_init__(self):
        vals = _freeze(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise DataError("feature values must be 2-D")
        if len(self.ids) != vals.shape[0] or len(self.columns) != vals.shape[1]:
            raise DataError("ids/columns do not match value dimensions")
        if len(self.ids) < 1 or len(self.columns) < 1:
            raise DataError("feature matrix must be at least 1x1")
        for what, names in (("sample id", self.ids), ("column name", self.columns)):
            if len(set(names)) != len(names):
                raise DataError(f"duplicate {what} {_first_duplicate(names)!r}")
        if not np.all(np.isfinite(vals)):
            raise DataError("feature matrix contains NaN/Inf")

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def select_rows(self, row_idx) -> "FeatureMatrix":
        row_idx = np.asarray(row_idx, dtype=int)
        return FeatureMatrix(
            ids=tuple(self.ids[i] for i in row_idx),
            columns=self.columns,
            values=self.values[row_idx],
        )

    def select_columns(self, names) -> "FeatureMatrix":
        missing = [c for c in names if c not in self.columns]
        if missing:
            raise DataError(f"unknown feature columns {missing}")
        idx = [self.columns.index(c) for c in names]
        return FeatureMatrix(ids=self.ids, columns=tuple(names), values=self.values[:, idx])


@dataclass(frozen=True)
class LabelVector:
    ids: tuple[str, ...]
    labels: Array  # int64, values in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or len(self.ids) != labels.shape[0]:
            raise DataError("label vector misaligned with ids")
        if self.num_classes < 1:
            raise DataError("num_classes must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DataError("labels out of range [0, num_classes)")

    def select_rows(self, row_idx) -> "LabelVector":
        row_idx = np.asarray(row_idx, dtype=int)
        return LabelVector(
            ids=tuple(self.ids[i] for i in row_idx),
            labels=self.labels[row_idx],
            num_classes=self.num_classes,
        )


@dataclass(frozen=True)
class PartyState:
    """One hospital: its local table, its role, and (task party only) labels."""

    party_id: str
    role: str  # "task" | "data"
    features: FeatureMatrix
    labels: LabelVector | None = None

    def __post_init__(self):
        if self.role not in ("task", "data"):
            raise DataError(f"unknown party role {self.role!r}")
        if self.role == "data" and self.labels is not None:
            raise DataError("data parties must not carry labels")
        if self.labels is not None and self.labels.ids != self.features.ids:
            raise DataError("labels misaligned with features")


@dataclass(frozen=True)
class OverlapIndex:
    """Intersection of two parties' ID sets with row maps into each table.

    ``overlapping_ids`` is sorted lexicographically so every masked-matrix
    protocol sees identical row order on both sides.
    """

    overlapping_ids: tuple[str, ...]
    task_rows: Array
    data_rows: Array

    def __post_init__(self):
        for name in ("task_rows", "data_rows"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.overlapping_ids) != self.task_rows.shape[0] or \
                len(self.overlapping_ids) != self.data_rows.shape[0]:
            raise DataError("overlap row maps must be total")

    @property
    def size(self) -> int:
        return len(self.overlapping_ids)


def _first_duplicate(items) -> str:
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return ""


def load_csv(path, id_column: str, label_column: str | None = None):
    """Load a UTF-8 comma-separated table into (FeatureMatrix, LabelVector|None).

    The first row must be a header naming ``id_column`` (and ``label_column``
    if given); every other cell must parse as a real number. Labels are
    densely re-encoded to [0, k) in sorted order of the raw values.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if id_column not in header:
            raise DataError(f"{path}: missing id column {id_column!r}")
        if label_column is not None and label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        id_idx = header.index(id_column)
        label_idx = header.index(label_column) if label_column is not None else None
        feat_cols = [
            (i, name) for i, name in enumerate(header) if i != id_idx and i != label_idx
        ]
        ids: list[str] = []
        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise DataError(f"{path}:{rownum}: expected {len(header)} cells, got {len(rec)}")
            ids.append(rec[id_idx])
            if label_idx is not None:
                raw_labels.append(rec[label_idx])
            vals = []
            for i, name in feat_cols:
                try:
                    vals.append(float(rec[i]))
                except ValueError:
                    raise DataError(
                        f"{path}:{rownum}: column {name!r}: cannot parse {rec[i]!r} as a number"
                    ) from None
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate sample id {_first_duplicate(ids)!r}")
    matrix = FeatureMatrix(
        ids=tuple(ids),
        columns=tuple(name for _, name in feat_cols),
        values=np.asarray(rows, dtype=float),
    )
    labels = None
    if label_idx is not None:
        classes = sorted(set(raw_labels))
        encode = {c: k for k, c in enumerate(classes)}
        labels = LabelVector(
            ids=tuple(ids),
            labels=np.asarray([encode[c] for c in raw_labels], dtype=np.int64),
            num_classes=len(classes),
        )
    return matrix, labels


def write_csv(path, matrix: FeatureMatrix, labels: LabelVector | None = None,
              id_column: str = "id", label_column: str = "y") -> None:
    """Inverse of load_csv; floats serialized with repr for exact round trips."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [id_column, *matrix.columns]
        if labels is not None:
            header.append(label_column)
        writer.writerow(header)
        for i, sid in enumerate(matrix.ids):
            row = [sid, *(repr(float(v)) for v in matrix.values[i])]
            if labels is not None:
                row.append(str(int(labels.labels[i])))
            writer.writerow(row)


def _hash_id(sid: str) -> str:
    return hashlib.sha256(sid.encode("utf-8")).hexdigest()


def psi_intersect(task_ids, data_ids) -> OverlapIndex:
    """Simulated private set intersection over hashed IDs.

    Both lists must be non-empty and duplicate-free. The result is sorted
    lexicographically by the raw ID. An intersection of any size, empty
    included, is valid here; the pipeline rejects one of fewer than 2 rows
    later, because transfer standardizes the overlap's columns.
    """
    task_ids = list(task_ids)
    data_ids = list(data_ids)
    if not task_ids or not data_ids:
        raise DataError("psi_intersect requires non-empty id lists")
    if len(set(task_ids)) != len(task_ids):
        raise DataError(f"duplicate id on task side: {_first_duplicate(task_ids)!r}")
    if len(set(data_ids)) != len(data_ids):
        raise DataError(f"duplicate id on data side: {_first_duplicate(data_ids)!r}")
    task_hashes = {_hash_id(s): s for s in task_ids}
    data_hashes = {_hash_id(s) for s in data_ids}
    shared = sorted(task_hashes[h] for h in task_hashes.keys() & data_hashes)
    task_pos = {s: i for i, s in enumerate(task_ids)}
    data_pos = {s: i for i, s in enumerate(data_ids)}
    return OverlapIndex(
        overlapping_ids=tuple(shared),
        task_rows=np.asarray([task_pos[s] for s in shared], dtype=np.int64),
        data_rows=np.asarray([data_pos[s] for s in shared], dtype=np.int64),
    )


@dataclass(frozen=True)
class Standardization:
    mean: Array
    std: Array  # sample std (ddof=1); 1.0 where the column is constant
    constant_columns: tuple[str, ...]


def standardize_columns(values: Array):
    """Columns shifted to mean 0 and scaled to sample std 1.

    A column whose std is at most 1e-15 * max(1, |mean|) counts as constant:
    it maps to all-zeros and its std is reported as 1.0. Returns
    (values, mean, std, constant), with ``constant`` a boolean mask.
    """
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    std = values.std(axis=0, ddof=1)
    constant = std <= 1e-15 * np.maximum(1.0, np.abs(mean))
    std = np.where(constant, 1.0, std)
    out = (values - mean) / std
    out[:, constant] = 0.0
    return out, mean, std, constant


def standardize(m: FeatureMatrix):
    """Column-wise standardization to mean 0, sample std 1.

    Zero-variance columns are mapped to all-zeros and reported in
    ``constant_columns``. Idempotent within 1e-12.
    """
    if m.n_rows < 2:
        raise DataError("standardize needs at least 2 rows")
    vals, mean, std, constant = standardize_columns(m.values)
    stats = Standardization(
        mean=_freeze(mean),
        std=_freeze(std),
        constant_columns=tuple(c for c, flag in zip(m.columns, constant) if flag),
    )
    return FeatureMatrix(ids=m.ids, columns=m.columns, values=vals), stats
