"""Synthetic multi-party datasets with a shared latent factor structure.

Every sample has a joint latent vector; each party observes a noisy random
linear view of it, and the task label thresholds a linear functional of
the latent. Putting the label weight on coordinates that the data parties
expose strongly (and the task party only weakly) creates genuine transfer
signal: the task party's raw view underdetermines the label, while the
joint structure recoverable from overlapping samples does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConfigError, FeatureMatrix, LabelVector, PartyState


@dataclass(frozen=True)
class SyntheticSpec:
    n_task_samples: int = 400
    overlap_count: int = 120
    task_features: int = 8
    data_features: tuple[int, ...] = (8,)
    latent_dim: int = 6
    label_coords: int = 3  # leading latent coords carrying the label signal
    task_signal: float = 0.35  # gain of label coords in the task party's view
    noise: float = 0.3
    label_noise: float = 0.0
    redundant_hospitals: bool = False  # all data parties share one view matrix
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.overlap_count < self.n_task_samples:
            raise ConfigError("overlap_count must lie in [1, n_task_samples)")
        if not 1 <= self.label_coords <= self.latent_dim:
            raise ConfigError("label_coords must lie in [1, latent_dim]")
        if not self.data_features:
            raise ConfigError("data_features must name at least one data party")
        if self.task_features < 1 or any(f < 1 for f in self.data_features):
            raise ConfigError("feature counts must be positive")
        object.__setattr__(self, "data_features", tuple(self.data_features))


def _view_matrix(rng, latent_dim, n_features, label_coords, label_gain):
    a = rng.standard_normal((latent_dim, n_features))
    a[:label_coords, :] *= label_gain
    return a


def generate_synthetic(spec: SyntheticSpec):
    """Returns (task PartyState with labels, list of data PartyStates).

    Data parties hold exactly the overlapping samples; the task party holds
    everything. Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_task_samples
    z = rng.standard_normal((n, spec.latent_dim))

    w = np.zeros(spec.latent_dim)
    w[:spec.label_coords] = rng.standard_normal(spec.label_coords)
    w /= np.linalg.norm(w)
    score = z @ w
    if spec.label_noise > 0:
        score = score + spec.label_noise * rng.standard_normal(n)
    labels = (score > 0).astype(np.int64)

    ids = tuple(f"s{i:05d}" for i in range(n))
    overlap_rows = np.sort(rng.choice(n, size=spec.overlap_count, replace=False))
    overlap_ids = tuple(ids[i] for i in overlap_rows)

    a_task = _view_matrix(rng, spec.latent_dim, spec.task_features,
                          spec.label_coords, spec.task_signal)
    x_task = z @ a_task + spec.noise * rng.standard_normal((n, spec.task_features))
    task = PartyState(
        party_id="task",
        role="task",
        features=FeatureMatrix(
            ids=ids,
            columns=tuple(f"t{j}" for j in range(spec.task_features)),
            values=x_task,
        ),
        labels=LabelVector(ids=ids, labels=labels, num_classes=2),
    )

    data_parties = []
    shared_view = None
    for k, nf in enumerate(spec.data_features):
        if spec.redundant_hospitals:
            if shared_view is None or shared_view.shape[1] != nf:
                shared_view = _view_matrix(rng, spec.latent_dim, nf,
                                           spec.label_coords, 1.0)
            a_k = shared_view
        else:
            a_k = _view_matrix(rng, spec.latent_dim, nf, spec.label_coords, 1.0)
        noise_k = spec.noise * rng.standard_normal((spec.overlap_count, nf))
        x_k = z[overlap_rows] @ a_k + noise_k
        data_parties.append(PartyState(
            party_id=f"data-{k}",
            role="data",
            features=FeatureMatrix(
                ids=overlap_ids,
                columns=tuple(f"d{k}_{j}" for j in range(nf)),
                values=x_k,
            ),
        ))
    return task, data_parties
