"""Experiment orchestration: configs, the end-to-end pipeline, sweeps.

``ExperimentConfig`` gathers the config sections, each defined in the
module that reads it, and re-exports ``FrlParams``, ``DownstreamParams``
and ``ConfigError``. A run is fully determined by its config: every random
draw flows from the config seed, reports carry no timing, and rerunning a
config reproduces report files byte for byte. Protocol traffic from the
federated step is recorded per run so privacy and communication contracts
can be asserted (or audited) from the trace alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import lkt as lkt_mod
from .bus import MessageBus
from .data import (ConfigError, DataError, FeatureMatrix, PartyState, load_csv,
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
        for c in self.conditions:
            if c not in CONDITIONS:
                raise ConfigError(f"unknown condition {c!r}; valid: {CONDITIONS}")
        # an empty column split means no split, and serializes as null
        for name in ("ol_columns", "nl_columns"):
            object.__setattr__(self, name, tuple(getattr(self, name) or ()) or None)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return from_dict(cls, d)

    @property
    def config_hash(self) -> str:
        return config_fingerprint(self.to_dict())


def from_dict(cls, doc, path: str = ""):
    """Build the config dataclass ``cls`` from a JSON object, strictly.

    A missing key takes the field's default; a nested dataclass field is
    built recursively and a list becomes a tuple for a tuple field. An
    unknown key, a missing required key, a section that is not an object, or
    a value whose type is not the field's (a bool is no int, an int is a
    float) raises ConfigError naming its dotted path (``lkt.epoch``); a
    value the section itself rejects raises it as ``<path>: <message>``
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
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        items = get_args(tp)
        if items[-1] is Ellipsis:
            items = (items[0],) * len(value)
        elif len(items) != len(value):
            raise ConfigError(f"{path} must have {len(items)} items, got {len(value)}")
        return tuple(_field_value(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    # bool is an int subclass, so it is rejected outright where it is not
    # the declared type; an int stays an int in a float field, as written
    ok = isinstance(value, (int, float) if tp is float else tp)
    if not ok or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path} must be {tp.__name__}, got {type(value).__name__}")
    return value


@dataclass
class Dataset:
    task: PartyState
    data_parties: list[PartyState]


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
    if cfg.standardize_features:
        task = PartyState(party_id=task.party_id, role="task",
                          features=standardize(task.features)[0], labels=task.labels)
        data_parties = [
            PartyState(party_id=p.party_id, role="data", features=standardize(p.features)[0])
            for p in data_parties
        ]
    return Dataset(task=task, data_parties=data_parties)


@dataclass
class PipelineResult:
    accuracy: float
    models: list
    bus: MessageBus
    augmented_columns: int
    flagged: int = 0  # FRL local runs that did not settle, over all pairs


def _train_pair_models(cfg: ExperimentConfig, lkt_cfg: LktConfig, task: PartyState,
                       parties: list[PartyState], h_t_nl: FeatureMatrix, run_seed: int,
                       bus: MessageBus, first: int = 0):
    """Steps 1-2 for every task/data-party pair: PSI, the task's overlap
    partition, the FRL protocol and LKT training. Returns the models before
    any fine-tune and the number of FRL local runs that came back flagged.
    ``first`` is the index of the first of ``parties`` among all data
    parties of the run; a party's index seeds its protocol."""
    models = []
    flagged = 0
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
        # Pair models share the run-level training seed: identical data
        # hospitals then yield identical pre-fine-tune encoders, so any
        # divergence between blocks is attributable to the fine-tune phase.
        model = lkt_mod.lkt_train(h_t_ol, h_t_nl, h_fed, lkt_cfg,
                                  seed=run_seed * 1000 + 500,
                                  provenance=party.party_id)
        models.append(model)
    return models, flagged


def _non_overlap(cfg: ExperimentConfig, task: PartyState, parties: list[PartyState]):
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
    """One seed of one condition: PSI -> FRL -> LKT -> augment -> train -> evaluate."""
    bus = MessageBus()
    nl_idx, h_t_nl = _non_overlap(cfg, dataset.task, dataset.data_parties)
    y_nl = dataset.task.labels.select_rows(nl_idx)

    models: list = []
    flagged = 0
    if condition == "local":
        x = h_t_nl.values
    else:
        lkt_cfg = cfg.lkt
        if condition == "ablation-no-mi":
            lkt_cfg = replace(lkt_cfg, mi_weight=0.0,
                              beta_mi=0.0 if lkt_cfg.beta_mi is not None else None)
        models, flagged = _train_pair_models(cfg, lkt_cfg, dataset.task, dataset.data_parties,
                                             h_t_nl, run_seed, bus)
        if condition != "ablation-no-cl" and models:
            models = lkt_mod.lkt_finetune_contrastive(models, h_t_nl, lkt_cfg,
                                                      seed=run_seed * 1000 + 999)
        x = lkt_mod.augment(models, h_t_nl).matrix.values

    train_idx, test_idx = stratified_split(y_nl.labels, cfg.downstream, run_seed)
    clf = train_classifier(x[train_idx], y_nl.labels[train_idx], cfg.downstream.model,
                           seed=run_seed, num_classes=y_nl.num_classes,
                           epochs=cfg.downstream.epochs, lr=cfg.downstream.learning_rate)
    acc = evaluate(clf, x[test_idx], y_nl.labels[test_idx])
    return PipelineResult(accuracy=acc, models=models, bus=bus,
                          augmented_columns=x.shape[1], flagged=flagged)


def run_condition(cfg: ExperimentConfig, condition: str, dataset: Dataset | None = None,
                  axis: str | None = None, value=None):
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
                       config_hash=cfg.config_hash, axis=axis, value=value)
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
        if condition != "local" and checkpoint_models is None and results[0].models:
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
    Returns (models, bus).
    """
    bus = MessageBus()
    _, h_t_nl = _non_overlap(cfg, dataset.task, dataset.data_parties + [new_party])
    if any(m.nl_columns != h_t_nl.columns for m in models):
        raise DataError("checkpoint schema incompatible with this dataset")
    new_models, _ = _train_pair_models(cfg, cfg.lkt, dataset.task, [new_party], h_t_nl,
                                       run_seed, bus, first=len(dataset.data_parties))
    all_models = lkt_mod.lkt_finetune_contrastive(models + new_models, h_t_nl, cfg.lkt,
                                                  seed=run_seed * 1000 + 999)
    return all_models, bus


SWEEP_AXES = ("task_features", "data_features", "overlap_count", "num_data_hospitals")


def sweep(cfg: ExperimentConfig, axis: str, values, out_dir=None):
    """One run per axis value per condition; wall clock recorded per value."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    if cfg.synthetic is None:
        raise ConfigError("sweeps require a synthetic dataset source")
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
            report, _ = run_condition(sub_cfg, condition, dataset, axis=axis, value=v)
            reports.append(report)
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
