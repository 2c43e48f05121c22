"""Vertical federated knowledge transfer: federated matrix factorization on
overlapping samples, cross-attention feature transfer to local samples, and
a downstream evaluation harness."""

from .data import (FeatureMatrix, LabelVector, OverlapIndex, PartyState,
                   load_csv, psi_intersect, standardize)
from .experiment import ExperimentConfig, run_experiment, sweep
from .frl import FederatedRepresentation, run_fedsvd, run_frl, run_vfedpca
from .lkt import (LktConfig, LktModel, augment, apply_to_new_samples,
                  cross_attention, lkt_finetune_contrastive, lkt_train,
                  mine_estimate)
from .synthetic import SyntheticSpec, generate_synthetic

__all__ = [
    "ExperimentConfig", "FeatureMatrix", "FederatedRepresentation",
    "LabelVector", "LktConfig", "LktModel", "OverlapIndex", "PartyState",
    "SyntheticSpec", "apply_to_new_samples", "augment", "cross_attention",
    "generate_synthetic", "lkt_finetune_contrastive", "lkt_train",
    "load_csv", "mine_estimate", "psi_intersect", "run_experiment",
    "run_fedsvd", "run_frl", "run_vfedpca", "standardize", "sweep",
]
