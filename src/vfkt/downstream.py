"""Task-specific learning: the ``downstream`` config section, classifiers, splits, reports."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .data import ConfigError, from_dict
from .numerics import Array, DenseNet

CONDITIONS = ("local", "unitrans", "ablation-no-mi", "ablation-no-cl")


@dataclass(frozen=True)
class DownstreamParams:
    model: str = "logistic"  # logistic | mlp
    train_fraction: float = 0.8
    few_shot_fraction: float | None = None
    n_seeds: int = 10
    epochs: int | None = None  # None -> per-model default
    learning_rate: float | None = None

    def __post_init__(self):
        if self.model not in ("logistic", "mlp"):
            raise ConfigError(f"unknown downstream model {self.model!r}")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.few_shot_fraction is not None and not 0.0 < self.few_shot_fraction <= 1.0:
            raise ConfigError("few_shot_fraction must lie in (0, 1]")


def stratified_split(labels: Array, params: DownstreamParams, seed):
    """Per-class train/test split by ``params.train_fraction``; with
    ``params.few_shot_fraction`` set, the training side is subsampled, and a
    class the subsample misses gets its first row in the subsample's order."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_train = max(1, int(round(params.train_fraction * members.size)))
        n_train = min(n_train, members.size - 1) if members.size > 1 else n_train
        train_idx.extend(members[:n_train])
        test_idx.extend(members[n_train:])
    train_idx = np.sort(np.asarray(train_idx, dtype=int))
    test_idx = np.sort(np.asarray(test_idx, dtype=int))
    if params.few_shot_fraction is not None:
        keep = max(2, int(round(params.few_shot_fraction * train_idx.size)))
        perm = rng.permutation(train_idx)
        kept = perm[:keep]
        # each class the subsample misses gets its first row in ``perm``
        first = perm[np.unique(labels[perm], return_index=True)[1]]
        train_idx = np.union1d(kept, first[~np.isin(labels[first], labels[kept])])
    return train_idx, test_idx


def _softmax_grad_by_class(logits: Array, onehot: Array, out: Array) -> Array:
    """``(softmax(logits) - onehot) / n`` into ``out``, over class-major (c, n)
    arrays, bit for bit the row-wise softmax of the (n, c) transposes.

    A max is exact in any order. numpy sums each n×c row pairwise, which for
    fewer than 8 terms is the plain left-to-right fold over the c rows done
    here; from 8 classes on, the sum runs on an (n, c) copy.
    """
    c, n = logits.shape
    np.subtract(logits, functools.reduce(np.maximum, logits), out=out)
    np.exp(out, out=out)
    out /= functools.reduce(np.add, out) if c < 8 else np.ascontiguousarray(out.T).sum(axis=-1)
    out -= onehot
    out /= n
    return out


def train_classifier(x: Array, y: Array, kind: str, seed,
                     num_classes: int | None = None, epochs: int | None = None,
                     lr: float | None = None) -> DenseNet:
    """Softmax classifier trained with full-batch Adam; deterministic per seed.
    Returns the network, whose outputs are the class logits.

    ``logistic`` is a single softmax layer; ``mlp`` puts two relu hidden
    layers of width 32 in front of it. Labels must lie in ``[0, num_classes)``;
    without ``num_classes``, the largest label plus one.

    The softmax head runs class-major: each epoch copies its logits ``a @ W``
    transposed into a (c, n) array, so the bias add, the softmax gradient and
    the bias gradient (the sequential fold ``sum(axis=0)`` makes over the
    (n, c) rows, here the last column of ``np.add.accumulate``) run on c
    contiguous n-long rows instead of n rows of c. The mlp's relu layers are
    a ``DenseNet`` body with one forward and one backward per epoch. The
    trained weights are bit for bit those of the plain row-wise loop.
    """
    labels = np.asarray(y, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} outside [0, {num_classes})")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != labels.shape[0]:
        raise ValueError("features and labels misaligned")
    if np.unique(labels).size < 2:
        raise ValueError("training split contains a single class")

    rng = np.random.default_rng(seed)
    if kind == "logistic":
        body = None
        epochs = 400 if epochs is None else epochs
        lr = 0.05 if lr is None else lr
    elif kind == "mlp":
        body = DenseNet.create([x.shape[1], 32, 32], ["relu", "relu"], rng)
        epochs = 300 if epochs is None else epochs
        lr = 0.01 if lr is None else lr
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")
    # drawn after the body: the draws of one [d, 32, 32, c] net
    head = DenseNet.create([x.shape[1] if body is None else 32, num_classes], ["linear"], rng)

    n, c = labels.size, num_classes
    w, b = head.layers[0].w, head.layers[0].b
    onehot = np.zeros((c, n))
    onehot[labels, np.arange(n)] = 1.0
    z, z_t, g_t, folds = np.empty((n, c)), np.empty((c, n)), np.empty((c, n)), np.empty((c, n))
    head_grad = np.empty_like(head.params)
    grad_w, grad_b = head_grad[:-c].reshape(w.shape), head_grad[-c:]
    head_adam, ws = head.adam_state(), {}
    body_adam = None if body is None else body.adam_state()
    for _ in range(epochs):
        a, cache = (x, None) if body is None else body.forward(x, ws)
        np.matmul(a, w, out=z)
        z_t[...] = z.T
        z_t += b[:, None]
        _softmax_grad_by_class(z_t, onehot, g_t)
        np.matmul(a.T, g_t.T, out=grad_w)  # a contiguous copy of a.T rounds differently
        grad_b[:] = np.add.accumulate(g_t, axis=1, out=folds)[:, -1]
        if body is not None:
            d_a = np.ascontiguousarray(g_t.T) @ w.T
            body.adam_step(body_adam, body.backward(cache, d_a, ws, inputs=False)[0], lr)
        head.adam_step(head_adam, head_grad, lr)
    return head if body is None else DenseNet(body.layers + head.layers)


def evaluate(net: DenseNet, x: Array, y: Array) -> float:
    """Accuracy of the class with the largest logit."""
    labels = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("empty test set")
    if x.shape[0] != labels.shape[0]:
        raise ValueError("features and labels misaligned")
    return float(np.mean(np.argmax(net.forward(x)[0], axis=1) == labels))


@dataclass
class RunReport:
    condition: str
    seeds: list[int]
    accuracies: list[float]
    config_hash: str
    axis: str | None = None
    value: float | None = None

    def __post_init__(self):
        if len(self.seeds) != len(self.accuracies):
            raise ConfigError("one accuracy per seed required")

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    def to_json(self) -> str:
        # A report holds no timing, so reruns of the same config produce
        # byte-identical files; sweeps persist timing in timings.json. The
        # wall_clock_s key stays, always null, for readers of the format.
        doc = {
            "condition": self.condition,
            "axis": self.axis,
            "value": self.value,
            "seeds": self.seeds,
            "accuracies": self.accuracies,
            "mean": self.mean,
            "std": self.std,
            "wall_clock_s": None,
            "config_hash": self.config_hash,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """The report ``to_json`` wrote, read by ``from_dict``; the derived
        ``mean``, ``std`` and ``wall_clock_s`` are dropped unread."""
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc = {k: v for k, v in doc.items() if k not in ("mean", "std", "wall_clock_s")}
        return from_dict(cls, doc, "report")


def config_fingerprint(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
