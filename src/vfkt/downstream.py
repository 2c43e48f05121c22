"""Task-specific learning: classifiers, splits, and run reports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .data import LabelVector
from .numerics import Array, DenseNet, softmax_rows

CONDITIONS = ("local", "unitrans", "ablation-no-mi", "ablation-no-cl")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    few_shot_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.few_shot_fraction is not None and not 0.0 < self.few_shot_fraction <= 1.0:
            raise ValueError("few_shot_fraction must lie in (0, 1]")


def stratified_split(labels: Array, spec: SplitSpec):
    """Per-class train/test split; few-shot subsamples the training side."""
    rng = np.random.default_rng(spec.seed)
    labels = np.asarray(labels)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_train = max(1, int(round(spec.train_fraction * members.size)))
        n_train = min(n_train, members.size - 1) if members.size > 1 else n_train
        train_idx.extend(members[:n_train])
        test_idx.extend(members[n_train:])
    train_idx = np.sort(np.asarray(train_idx, dtype=int))
    test_idx = np.sort(np.asarray(test_idx, dtype=int))
    if spec.few_shot_fraction is not None:
        keep = max(2, int(round(spec.few_shot_fraction * train_idx.size)))
        train_idx = np.sort(rng.permutation(train_idx)[:keep])
    return train_idx, test_idx


@dataclass
class Classifier:
    net: DenseNet
    kind: str
    num_classes: int

    def predict(self, x: Array) -> Array:
        logits, _ = self.net.forward(np.asarray(x, dtype=float))
        return np.argmax(logits, axis=1)


def train_classifier(x: Array, y: LabelVector | Array, kind: str, seed,
                     num_classes: int | None = None, epochs: int | None = None,
                     lr: float | None = None) -> Classifier:
    """Softmax classifier trained with full-batch Adam; deterministic per seed.

    ``logistic`` is a single softmax layer; ``mlp`` adds two relu hidden
    layers of width 32.
    """
    if isinstance(y, LabelVector):
        labels = y.labels
        num_classes = y.num_classes
    else:
        labels = np.asarray(y, dtype=np.int64)
        if num_classes is None:
            num_classes = int(labels.max()) + 1
    x = np.asarray(x, dtype=float)
    if x.shape[0] != labels.shape[0]:
        raise ValueError("features and labels misaligned")
    if np.unique(labels).size < 2:
        raise ValueError("training split contains a single class")

    rng = np.random.default_rng(seed)
    if kind == "logistic":
        net = DenseNet.create([x.shape[1], num_classes], ["linear"], rng)
        epochs = 400 if epochs is None else epochs
        lr = 0.05 if lr is None else lr
    elif kind == "mlp":
        net = DenseNet.create([x.shape[1], 32, 32, num_classes],
                              ["relu", "relu", "linear"], rng)
        epochs = 300 if epochs is None else epochs
        lr = 0.01 if lr is None else lr
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")

    onehot = np.zeros((labels.size, num_classes))
    onehot[np.arange(labels.size), labels] = 1.0
    for _ in range(epochs):
        logits, cache = net.forward(x)
        probs = softmax_rows(logits)
        grads, _ = net.backward(cache, (probs - onehot) / labels.size, inputs=False)
        net.adam_step(grads, lr)
    return Classifier(net=net, kind=kind, num_classes=num_classes)


def evaluate(classifier: Classifier, x: Array, y: LabelVector | Array) -> float:
    labels = y.labels if isinstance(y, LabelVector) else np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("empty test set")
    if x.shape[0] != labels.shape[0]:
        raise ValueError("features and labels misaligned")
    return float(np.mean(classifier.predict(x) == labels))


@dataclass
class RunReport:
    condition: str
    seeds: list[int]
    accuracies: list[float]
    config_hash: str
    axis: str | None = None
    value: float | None = None
    wall_clock_s: float | None = None

    def __post_init__(self):
        if len(self.seeds) != len(self.accuracies):
            raise ValueError("one accuracy per seed required")

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    def to_json(self, include_timing: bool = False) -> str:
        # Timing is excluded by default so reruns of the same config produce
        # byte-identical report files; sweeps persist timing separately.
        doc = {
            "condition": self.condition,
            "axis": self.axis,
            "value": self.value,
            "seeds": self.seeds,
            "accuracies": self.accuracies,
            "mean": self.mean,
            "std": self.std,
            "wall_clock_s": self.wall_clock_s if include_timing else None,
            "config_hash": self.config_hash,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        doc = json.loads(text)
        return cls(condition=doc["condition"], seeds=doc["seeds"],
                   accuracies=doc["accuracies"], config_hash=doc["config_hash"],
                   axis=doc.get("axis"), value=doc.get("value"),
                   wall_clock_s=doc.get("wall_clock_s"))


def config_fingerprint(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
