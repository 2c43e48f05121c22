"""Experiment orchestration: configs, the end-to-end pipeline, sweeps.

``ExperimentConfig`` gathers the config sections, each defined in the
module that reads it, and re-exports ``FrlParams``, ``DownstreamParams``
and ``ConfigError``; ``data.from_dict``, the strict JSON reader that also
reads checkpoints and reports, builds it from a JSON document. A run is
fully determined by its config: every random draw flows from the config
seed, reports carry no timing, and rerunning a config reproduces report
files byte for byte. Protocol traffic from the federated step is
recorded per run so privacy and communication contracts can be asserted
(or audited) from the trace alone.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import lkt as lkt_mod
from .bus import MessageBus
from .data import (ConfigError, DataError, FeatureMatrix, PartyState, from_dict, load_csv,
                   psi_intersect, standardize)
from .downstream import (CONDITIONS, DownstreamParams, RunReport, config_fingerprint,
                         evaluate, stratified_split, train_classifier)
from .frl import FrlParams, run_frl
from .lkt import LktConfig
from .synthetic import SyntheticSpec, generate_synthetic


@dataclass(frozen=True)
class CsvSource:
    task_path: str
    data_paths: tuple[str, ...]
    id_column: str = "id"
    label_column: str = "y"

    def __post_init__(self):
        if not self.data_paths:
            raise ConfigError("data_paths must name at least one data party")
        if self.label_column == self.id_column:
            raise ConfigError(f"label_column and id_column are both {self.id_column!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    synthetic: SyntheticSpec | None = None
    csv: CsvSource | None = None
    ol_columns: tuple[str, ...] | None = None  # cross-domain column split
    nl_columns: tuple[str, ...] | None = None
    standardize_features: bool = True
    frl: FrlParams = field(default_factory=FrlParams)
    lkt: LktConfig = field(default_factory=LktConfig)
    downstream: DownstreamParams = field(default_factory=DownstreamParams)
    conditions: tuple[str, ...] = ("local", "unitrans")
    seed: int = 0

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv is None):
            raise ConfigError("exactly one of synthetic/csv sources must be set")
        if not self.conditions:
            raise ConfigError("conditions must name at least one condition")
        for c in self.conditions:
            if c not in CONDITIONS:
                raise ConfigError(f"unknown condition {c!r}; valid: {CONDITIONS}")
        if len(set(self.conditions)) != len(self.conditions):
            raise ConfigError(f"conditions must not repeat: {list(self.conditions)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # an empty column split means no split, and serializes as null
        for name in ("ol_columns", "nl_columns"):
            object.__setattr__(self, name, tuple(getattr(self, name) or ()) or None)
        if (self.lkt.reconstruction_source == "overlap" and self.ol_columns and self.nl_columns
                and self.ol_columns != self.nl_columns):
            raise ConfigError("lkt.reconstruction_source 'overlap' needs matching column "
                              f"schemas, got ol_columns {list(self.ol_columns)} and "
                              f"nl_columns {list(self.nl_columns)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return from_dict(cls, d)

    @property
    def config_hash(self) -> str:
        return config_fingerprint(self.to_dict())


@dataclass(frozen=True)
class Dataset:
    task: PartyState
    data_parties: tuple[PartyState, ...]
    # (cfg.frl, cfg.ol_columns, cfg.nl_columns, LKT config, run seed) -> the
    # PairRun of the first pair training with those inputs, for conditions
    # that differ only after pair training to reuse (see ``_pair_models``)
    pair_models: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "data_parties", tuple(self.data_parties))
        if not self.data_parties:
            raise DataError("a dataset needs at least one data party")


def prepare_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synthetic is not None:
        task, data_parties = generate_synthetic(cfg.synthetic)
    else:
        t_feat, t_labels = load_csv(cfg.csv.task_path, cfg.csv.id_column, cfg.csv.label_column)
        task = PartyState(party_id="task", role="task", features=t_feat, labels=t_labels)
        data_parties = []
        for k, p in enumerate(cfg.csv.data_paths):
            feat, _ = load_csv(p, cfg.csv.id_column, None)
            data_parties.append(PartyState(party_id=f"data-{k}", role="data", features=feat))
    if cfg.lkt.reconstruction_source == "overlap":
        # a partition left unsplit takes every task column
        ol = cfg.ol_columns or task.features.columns
        nl = cfg.nl_columns or task.features.columns
        if ol != nl:
            raise ConfigError("lkt.reconstruction_source 'overlap' needs matching column "
                              f"schemas, got overlap columns {list(ol)} and non-overlap "
                              f"columns {list(nl)}")
    if cfg.standardize_features:
        task = replace(task, features=standardize(task.features)[0])
        data_parties = [replace(p, features=standardize(p.features)[0]) for p in data_parties]
    return Dataset(task=task, data_parties=data_parties)


@dataclass(frozen=True)
class PairRun:
    """Steps 1-2 of one seed: the pair models, the number of FRL local runs
    that came back flagged, and the bus that traced the protocol runs."""

    models: list = field(default_factory=list)
    flagged: int = 0
    bus: MessageBus = field(default_factory=MessageBus)


@dataclass(frozen=True, kw_only=True)
class PipelineResult(PairRun):
    """One seed of one condition: its pair run, with the models as the
    classifier read them, and the classifier's test accuracy."""

    accuracy: float
    augmented_columns: int


def _train_pair_models(cfg: ExperimentConfig, lkt_cfg: LktConfig, task: PartyState,
                       parties: tuple[PartyState, ...], h_t_nl: FeatureMatrix, run_seed: int,
                       first: int = 0) -> PairRun:
    """Steps 1-2 for every task/data-party pair, on a bus of their own: PSI,
    the task's overlap partition and the FRL protocol for each pair in party
    order, then one ``lkt_train`` call over all pairs, with no fine-tune (it
    stacks the pairs of one shape and keeps party order, divergences too).
    ``first`` is the index of the first of ``parties`` among all data
    parties of the run; a party's index seeds its protocol."""
    bus = MessageBus()
    h_t_ols, h_feds, flagged = [], [], 0
    for k, party in enumerate(parties, start=first):
        overlap = psi_intersect(task.features.ids, party.features.ids)
        if overlap.size < 2:
            raise DataError(
                f"{party.party_id} shares {overlap.size} sample(s) with the task party; "
                "transfer needs at least 2 overlapping samples")
        h_t_ol = task.features.select_rows(overlap.task_rows)
        if cfg.ol_columns:
            h_t_ol = h_t_ol.select_columns(list(cfg.ol_columns))
        party_matrices = {
            task.party_id: h_t_ol.values,
            party.party_id: party.features.values[overlap.data_rows],
        }
        h_fed = run_frl(bus, cfg.frl, task.party_id, party_matrices, overlap,
                        seed=run_seed * 1000 + k)
        flagged += h_fed.flagged
        h_t_ols.append(h_t_ol)
        h_feds.append(h_fed)
    # Pair models share the run-level training seed: identical data
    # hospitals then yield identical pre-fine-tune encoders, so any
    # divergence between blocks is attributable to the fine-tune phase.
    models = lkt_mod.lkt_train(h_t_ols, h_t_nl, h_feds, lkt_cfg,
                               seeds=[run_seed * 1000 + 500] * len(parties),
                               provenances=[p.party_id for p in parties])
    return PairRun(models, flagged, bus)


def _pair_models(cfg: ExperimentConfig, lkt_cfg: LktConfig, dataset: Dataset,
                 h_t_nl: FeatureMatrix, run_seed: int) -> PairRun:
    """``_train_pair_models`` over all of ``dataset``'s data parties, run once per
    set of inputs that decide its result. Every call gets the memo's run
    itself: callers copy its models before they change them."""
    key = (cfg.frl, cfg.ol_columns, cfg.nl_columns, lkt_cfg, run_seed)
    if key not in dataset.pair_models:
        dataset.pair_models[key] = _train_pair_models(cfg, lkt_cfg, dataset.task,
                                                      dataset.data_parties, h_t_nl, run_seed)
    return dataset.pair_models[key]


def _non_overlap(cfg: ExperimentConfig, task: PartyState, parties: tuple[PartyState, ...]):
    """The task party's non-overlap partition, shared by every pair: the rows
    no data party holds (the union of the overlaps removed), as (row indices,
    features restricted to ``cfg.nl_columns`` when set)."""
    shared = set().union(*(p.features.ids for p in parties))
    nl_idx = [i for i, sid in enumerate(task.features.ids) if sid not in shared]
    if not nl_idx:
        raise DataError("task party has no non-overlapping samples to augment")
    h_t_nl = task.features.select_rows(nl_idx)
    if cfg.nl_columns:
        h_t_nl = h_t_nl.select_columns(list(cfg.nl_columns))
    return nl_idx, h_t_nl


def run_pipeline_once(cfg: ExperimentConfig, condition: str, dataset: Dataset,
                      run_seed: int) -> PipelineResult:
    """One seed of one condition: PSI -> FRL -> LKT -> augment -> train -> evaluate.

    Pair training (PSI, FRL and LKT) is shared through ``dataset`` with every
    condition of the same seed that trains its pairs alike (see
    ``_pair_models``); ``ablation-no-cl`` after ``unitrans`` runs only its
    augmentation and classifier."""
    nl_idx, h_t_nl = _non_overlap(cfg, dataset.task, dataset.data_parties)
    y_nl = dataset.task.labels.select_rows(nl_idx)

    run = PairRun()
    x = h_t_nl.values
    if condition != "local":
        lkt_cfg = cfg.lkt
        if condition == "ablation-no-mi":
            lkt_cfg = replace(lkt_cfg, mi_weight=0.0)
        run = _pair_models(cfg, lkt_cfg, dataset, h_t_nl, run_seed)
        # each branch copies the shared run's models once, so the memo's stay as trained
        if condition == "ablation-no-cl":
            models = [m.copy() for m in run.models]
        else:
            models = lkt_mod.lkt_finetune_contrastive(run.models, h_t_nl, lkt_cfg,
                                                      seed=run_seed * 1000 + 999)
        run = replace(run, models=models)
        x = lkt_mod.augment(run.models, h_t_nl).matrix.values

    train_idx, test_idx = stratified_split(y_nl.labels, cfg.downstream, run_seed)
    net = train_classifier(x[train_idx], y_nl.labels[train_idx], cfg.downstream.model,
                           seed=run_seed, num_classes=y_nl.num_classes,
                           epochs=cfg.downstream.epochs, lr=cfg.downstream.learning_rate)
    acc = evaluate(net, x[test_idx], y_nl.labels[test_idx])
    return PipelineResult(accuracy=acc, augmented_columns=x.shape[1], **vars(run))


def run_condition(cfg: ExperimentConfig, condition: str, dataset: Dataset | None = None):
    """All seeds of one condition. Returns (RunReport, results per seed)."""
    if condition not in CONDITIONS:
        raise ConfigError(f"unknown condition {condition!r}")
    if dataset is None:
        dataset = prepare_dataset(cfg)
    seeds = [cfg.seed + i for i in range(cfg.downstream.n_seeds)]
    results = []
    for s in seeds:
        try:
            results.append(run_pipeline_once(cfg, condition, dataset, s))
        except Exception as exc:
            raise RuntimeError(f"pipeline failed (condition={condition}, seed={s}): {exc}") from exc
    report = RunReport(condition=condition, seeds=seeds,
                       accuracies=[r.accuracy for r in results],
                       config_hash=cfg.config_hash)
    return report, results


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Execute every configured condition; optionally persist reports,
    the message trace, and a checkpoint of the first transfer models."""
    dataset = prepare_dataset(cfg)
    reports = []
    checkpoint_models = None
    trace_records = []
    for condition in cfg.conditions:
        report, results = run_condition(cfg, condition, dataset)
        reports.append(report)
        for s, r in zip(report.seeds, results):
            for rec in r.bus.trace:
                trace_records.append({"condition": condition, "seed": s, **rec})
        if condition != "local" and checkpoint_models is None:
            checkpoint_models = results[0].models
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for report in reports:
            (out / f"report_{report.condition}.json").write_text(report.to_json())
        with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
            for rec in trace_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        (out / "config.json").write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
        if checkpoint_models is not None:
            lkt_mod.save_models(out / "models.json", checkpoint_models, cfg.config_hash)
    return reports


def add_data_hospital(models: list, cfg: ExperimentConfig, dataset: Dataset,
                      new_party: PartyState, run_seed: int):
    """Extend an existing run with one more data party.

    Runs PSI, the federated step and pair training for the new party only,
    then reruns contrastive fine-tuning over all encoders against each
    model's stored attention keys. Of the existing data parties only the
    sample ids are read, and their pair models are otherwise untouched.
    Existing encoders must have the layout ``cfg.lkt`` gives the new pair's.
    Returns (models, bus).
    """
    if new_party.role != "data":
        raise DataError(f"{new_party.party_id!r} has role {new_party.role!r}, not 'data'")
    _, h_t_nl = _non_overlap(cfg, dataset.task, (*dataset.data_parties, new_party))
    if any(m.nl_columns != h_t_nl.columns for m in models):
        raise DataError("checkpoint schema incompatible with this dataset")
    if new_party.party_id in {m.provenance for m in models}:
        raise DataError(f"{new_party.party_id!r} already has a pair model")
    lkt_mod.contrastive_temperature([cfg.lkt.temperature, *(m.temperature for m in models)])
    lkt_mod.check_encoder_layout(models, lkt_mod.encoder_layout(h_t_nl.n_cols, cfg.lkt),
                                 "the new pair's")
    new = _train_pair_models(cfg, cfg.lkt, dataset.task, (new_party,), h_t_nl, run_seed,
                             first=len(dataset.data_parties))
    all_models = lkt_mod.lkt_finetune_contrastive(models + new.models, h_t_nl, cfg.lkt,
                                                  seed=run_seed * 1000 + 999)
    return all_models, new.bus


SWEEP_AXES = ("task_features", "data_features", "overlap_count", "num_data_hospitals")


def sweep(cfg: ExperimentConfig, axis: str, values, out_dir=None):
    """One run per axis value per condition; wall clock recorded per value."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    if cfg.synthetic is None:
        raise ConfigError("sweeps require a synthetic dataset source")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ConfigError(f"sweep value {v!r} is not an integer")
    reports = []
    timings = []
    for v in values:
        v = int(v)
        spec = cfg.synthetic
        if axis == "task_features":
            spec = replace(spec, task_features=v)
        elif axis == "data_features":
            spec = replace(spec, data_features=tuple([v] * len(spec.data_features)))
        elif axis == "overlap_count":
            spec = replace(spec, overlap_count=v)
        elif axis == "num_data_hospitals":
            spec = replace(spec, data_features=tuple([spec.data_features[0]] * v))
        sub_cfg = replace(cfg, synthetic=spec)
        dataset = prepare_dataset(sub_cfg)
        t0 = time.perf_counter()
        for condition in cfg.conditions:
            report, _ = run_condition(sub_cfg, condition, dataset)
            reports.append(replace(report, axis=axis, value=v))
        timings.append({"axis": axis, "value": v,
                        "wall_clock_s": time.perf_counter() - t0})
        if out_dir is not None:
            out = Path(out_dir) / f"{axis}_{v}"
            out.mkdir(parents=True, exist_ok=True)
            for report in reports[-len(cfg.conditions):]:
                (out / f"report_{report.condition}.json").write_text(report.to_json())
    if out_dir is not None:
        Path(out_dir, "timings.json").write_text(json.dumps(timings, indent=2))
    return reports, timings


def render_reports(reports: list[RunReport], fmt: str = "md") -> str:
    """Comparison table: one row per (condition, axis value)."""
    rows = [
        {
            "condition": r.condition,
            "axis": r.axis or "",
            "value": "" if r.value is None else r.value,
            "mean": round(r.mean, 4),
            "std": round(r.std, 4),
            "seeds": len(r.seeds),
        }
        for r in reports
    ]
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        lines = ["condition,axis,value,mean,std,seeds"]
        lines += [f'{r["condition"]},{r["axis"]},{r["value"]},{r["mean"]},{r["std"]},{r["seeds"]}'
                  for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| condition | axis | value | accuracy (mean ± std) | seeds |",
                 "|---|---|---|---|---|"]
        lines += [
            f'| {r["condition"]} | {r["axis"]} | {r["value"]} | '
            f'{r["mean"]:.4f} ± {r["std"]:.4f} | {r["seeds"]} |'
            for r in rows
        ]
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")
