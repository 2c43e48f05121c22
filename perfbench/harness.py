"""Workloads, the user-facing sequence they run, and the measurement loop.

A workload is a list of experiment configs plus the inputs of an
incremental update, all generated from the workload seed. One repetition
runs the sequence a user of vfkt runs: ``run_experiment`` for each config,
then ``add_data_hospital`` on the first transfer checkpoint, a checkpoint
save and reload, and ``apply_to_new_samples`` on unseen rows.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import vfkt.experiment as experiment
import vfkt.lkt as lkt
from vfkt.bus import MessageBus
from vfkt.data import FeatureMatrix, PartyState, psi_intersect, standardize
from vfkt.experiment import DownstreamParams, ExperimentConfig, FrlParams
from vfkt.frl import run_fedsvd
from vfkt.lkt import LktConfig
from vfkt.synthetic import SyntheticSpec, generate_synthetic

from checks import (Checks, artifact_digests, check_augmented_width, check_fedsvd_span,
                    check_identical, check_privacy, check_reports, read_trace, record_elems)
from reference import SpeedClock
from tracing import Tracer, layer_metrics

TASK_ID = "task"

# name -> unit of the end-to-end metrics printed with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "transfer_seed_s": "s",
    "local_seed_s": "s",
    "update_s": "s",
    "peak_rss_mb": "MB",
    "acc_transfer": "ratio",
    "acc_local": "ratio",
    "lift": "ratio",
    "protocol_bytes_per_seed": "B",
    "protocol_messages_per_seed": "count",
    "pass_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("bus.bytes"):
        return "B"
    if name == "trace.coverage":
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    configs: list[ExperimentConfig]
    new_party: PartyState  # the data party the incremental update adds
    new_rows: FeatureMatrix  # unseen task-schema rows for apply_to_new_samples
    consistent_inputs: bool = True  # the update's party list extends the run's

    @property
    def update_config(self) -> ExperimentConfig:
        return next(c for c in self.configs if any(x != "local" for x in c.conditions))


def make_workload(configs: list[ExperimentConfig], new_features: int,
                  new_rows: int = 64) -> Workload:
    """Derive the update inputs from the first config's synthetic spec.

    The new party is the next party the same generator would have drawn,
    so the run's own parties stay exactly as ``prepare_dataset`` builds them.
    """
    spec = configs[0].synthetic
    grown = replace(spec, data_features=spec.data_features + (new_features,))
    _, parties = generate_synthetic(grown)
    base = experiment.prepare_dataset(configs[0])
    consistent = all(np.array_equal(a.features.values, standardize(b.features)[0].values)
                     for a, b in zip(base.data_parties, parties))
    new_party = PartyState(party_id=f"data-{len(spec.data_features)}", role="data",
                           features=standardize(parties[-1].features)[0])
    fresh_task, _ = generate_synthetic(replace(spec, seed=spec.seed + 7919))
    fresh = standardize(fresh_task.features)[0]
    rows = FeatureMatrix(ids=tuple(f"new{i:05d}" for i in range(new_rows)),
                         columns=fresh.columns, values=fresh.values[:new_rows])
    return Workload(configs=configs, new_party=new_party, new_rows=rows,
                    consistent_inputs=consistent)


# Each returns (configs, feature count of the party the update adds).

def _wide_fedsvd(seed: int):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(task_features=64, n_task_samples=2000, overlap_count=80,
                                latent_dim=5, label_coords=5, task_signal=0.4,
                                data_features=(10,), noise=1.2, seed=seed),
        lkt=LktConfig(latent_dim=10, mine_hidden=(32, 32), reconstruction_source="local",
                      epochs=6, hidden_width=20, mi_weight=0.5),
        downstream=DownstreamParams(model="logistic", n_seeds=1, few_shot_fraction=0.05),
        conditions=("local", "unitrans"), seed=seed)
    return [cfg], 10


def _deep_overlap(seed: int):
    base = ExperimentConfig(
        synthetic=SyntheticSpec(task_features=16, n_task_samples=3200, overlap_count=1200,
                                latent_dim=5, label_coords=3, task_signal=0.3,
                                data_features=(10, 10), noise=1.0, seed=seed),
        lkt=LktConfig(latent_dim=5, mine_hidden=(16, 16), epochs=2, hidden_width=12),
        frl=FrlParams(method="vfedpca"),
        downstream=DownstreamParams(model="logistic", n_seeds=1),
        conditions=("local", "unitrans"), seed=seed)
    fedsvd = replace(base, frl=FrlParams(method="fedsvd"), conditions=("unitrans",))
    return [base, fedsvd], 10


def _many_hospitals(seed: int):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(task_features=16, n_task_samples=1500, overlap_count=120,
                                latent_dim=5, label_coords=3, task_signal=0.3,
                                data_features=(6,) * 5, noise=0.8,
                                redundant_hospitals=True, seed=seed),
        lkt=LktConfig(latent_dim=5, mine_hidden=(32, 32), reconstruction_source="local",
                      epochs=3, hidden_width=12, mi_weight=0.1,
                      finetune_epochs=6, finetune_lr=5e-3),
        downstream=DownstreamParams(model="logistic", n_seeds=1),
        conditions=("local", "unitrans", "ablation-no-cl"), seed=seed)
    return [cfg], 6


WORKLOADS = {
    "wide-fedsvd": _wide_fedsvd,
    "deep-overlap": _deep_overlap,
    "many-hospitals": _many_hospitals,
}


def workload_configs(name: str, seed: int) -> list[ExperimentConfig]:
    return WORKLOADS[name](seed)[0]


def build_workload(name: str, seed: int) -> Workload:
    return make_workload(*WORKLOADS[name](seed))


def warm_up() -> None:
    """First-call BLAS/LAPACK set-up, so it never lands in a timed region."""
    z = np.random.default_rng(0).standard_normal((150, 150))
    np.linalg.qr(z)
    np.linalg.svd(z[:, :40], full_matrices=False)
    z @ z


# ---------------------------------------------------------------------------
# One repetition of the user-facing sequence
# ---------------------------------------------------------------------------

@dataclass
class Repetition:
    run: tuple[float, float]  # clock readings at the start and end of the sequence
    update: tuple[float, float]  # ... and around add_data_hospital
    update_trace: list[dict]
    applied_width: int
    applied_rows: int
    models: list
    seeds: list[tuple[str, float, float]] = field(default_factory=list)  # (condition, start, end)

    @property
    def run_s(self) -> float:
        return self.run[1] - self.run[0]


def run_sequence(w: Workload, out: Path, clock=time.perf_counter) -> Repetition:
    """Names are looked up on the vfkt modules at call time, so installed
    tracing wrappers are the ones called."""
    ucfg = w.update_config
    t0 = clock()
    for i, cfg in enumerate(w.configs):
        experiment.run_experiment(cfg, out / f"cfg{i}")
    ckpt = out / f"cfg{w.configs.index(ucfg)}" / "models.json"
    models, _ = lkt.load_models(ckpt)
    dataset = experiment.prepare_dataset(ucfg)
    t1 = clock()
    models, bus = experiment.add_data_hospital(models, ucfg, dataset, w.new_party,
                                               run_seed=ucfg.seed)
    t2 = clock()
    lkt.save_models(out / "updated" / "models.json", models, ucfg.config_hash)
    models, _ = lkt.load_models(out / "updated" / "models.json")
    applied = lkt.apply_to_new_samples(models, w.new_rows)
    t3 = clock()
    return Repetition(run=(t0, t3), update=(t1, t2), update_trace=list(bus.trace),
                      applied_width=applied.matrix.n_cols, applied_rows=applied.matrix.n_rows,
                      models=models)


class SeedTimer:
    """Times each call of ``run_pipeline_once`` (one seed of one condition)
    and checks the augmented width of its result."""

    def __init__(self, checks: Checks, clock):
        self.checks = checks
        self.clock = clock
        self.records: list[tuple[str, float, float]] = []
        self._original = None

    def __enter__(self):
        original = self._original = experiment.run_pipeline_once
        clock = self.clock

        def timed(cfg, condition, dataset, run_seed):
            t0 = clock()
            result = original(cfg, condition, dataset, run_seed)
            self.records.append((condition, t0, clock()))
            raw = len(cfg.nl_columns) if cfg.nl_columns else dataset.task.features.n_cols
            check_augmented_width(self.checks, f"{condition} seed {run_seed}",
                                  result.augmented_columns, raw, result.models)
            return result

        timed.__module__ = original.__module__
        experiment.run_pipeline_once = timed
        return self

    def __exit__(self, *exc):
        experiment.run_pipeline_once = self._original
        return False


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Mean, median, minimum, the highest percentile with at least ten
    samples beyond it, and n."""
    v = sorted(values)
    n = len(v)
    out = {"mean": statistics.fmean(v), "median": statistics.median(v), "min": v[0], "n": n}
    if n >= 11:
        out[f"p{math.floor(100 * (n - 10) / n)}"] = v[n - 11]
    out["values"] = values
    return out


@dataclass
class Result:
    checks: Checks
    metrics: dict[str, float]
    samples: dict[str, dict] = field(default_factory=dict)
    accuracies: dict[str, list[float]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def _protocol_totals(out: Path, w: Workload) -> tuple[int, int, int]:
    """(bytes, messages, transfer seeds) over every config's trace.jsonl."""
    nbytes = messages = seeds = 0
    for i, cfg in enumerate(w.configs):
        records = read_trace(out / f"cfg{i}" / "trace.jsonl")
        nbytes += 8 * sum(record_elems(r["shape"]) for r in records)
        messages += len(records)
        seeds += cfg.downstream.n_seeds * sum(c != "local" for c in cfg.conditions)
    return nbytes, messages, seeds


def _check_repetition(checks: Checks, w: Workload, out: Path, rep: Repetition,
                      reference: dict | None) -> dict:
    digests = artifact_digests(out)
    if reference is not None:
        check_identical(checks, reference, digests)
    accuracies = {}
    for i, cfg in enumerate(w.configs):
        for c, accs in check_reports(checks, out / f"cfg{i}", cfg.conditions).items():
            accuracies.setdefault(c, []).extend(accs)
        check_privacy(checks, f"cfg{i}/trace.jsonl", read_trace(out / f"cfg{i}" / "trace.jsonl"),
                      TASK_ID)
    check_privacy(checks, "update trace", rep.update_trace, TASK_ID)
    check_augmented_width(checks, "apply_to_new_samples", rep.applied_width,
                          w.new_rows.n_cols, rep.models)
    checks.check("apply_to_new_samples row count", rep.applied_rows == w.new_rows.n_rows)
    return {"digests": digests, "accuracies": accuracies}


def fedsvd_oracle(checks: Checks, w: Workload) -> None:
    """Criterion-01 span check for the first pair of the first fedsvd config."""
    cfg = next(c for c in w.configs if c.frl.method == "fedsvd")
    ds = experiment.prepare_dataset(cfg)
    party = ds.data_parties[0]
    overlap = psi_intersect(ds.task.features.ids, party.features.ids)
    h_t = ds.task.features.values[overlap.task_rows]
    h_k = party.features.values[overlap.data_rows]
    rep = run_fedsvd(MessageBus(), TASK_ID, {TASK_ID: h_t, party.party_id: h_k},
                     overlap, seed=cfg.seed * 1000)
    check_fedsvd_span(checks, rep.matrix, np.hstack([h_t, h_k]))


def measure(w: Workload, seconds: float, trace: bool, work: Path) -> Result:
    """Repeat the sequence for about ``seconds``; with ``trace``, alternate
    untraced and traced repetitions so the overhead can be read off.

    Every timing is divided by the slowdown the :class:`SpeedClock` measured
    over its own interval (widened to at least ``MIN_WINDOW_S``), so it
    reads as seconds at the reference speed."""
    checks = Checks()
    checks.check("update party list does not extend the run's parties", w.consistent_inputs)
    untraced: list[Repetition] = []
    traced: list[tuple[int, Repetition]] = []
    first = None  # checked outputs of the first repetition: the reference
    start = time.perf_counter()
    with SpeedClock() as clock, SeedTimer(checks, clock.now) as timer:
        tracer = Tracer(clock.now)
        k = 0
        while True:
            use_trace = trace and k % 2 == 1
            out = work / f"rep{k}"
            n_seed_records = len(timer.records)
            try:
                if use_trace:
                    tracer.run = k
                    with tracer:
                        rep = run_sequence(w, out, clock.now)
                else:
                    rep = run_sequence(w, out, clock.now)
            except Exception:  # the program failed: report it and stop repeating
                traceback.print_exc(file=sys.stderr)
                checks.check(f"repetition {k} raised", False)
                break
            rep.seeds = timer.records[n_seed_records:]
            if use_trace:
                traced.append((k, rep))
            else:
                untraced.append(rep)
            info = _check_repetition(checks, w, out, rep, first and first["digests"])
            if first is None:
                first = info
                protocol = _protocol_totals(out, w)
            shutil.rmtree(out)
            k += 1
            done = time.perf_counter() - start + rep.run_s > seconds
            if done and untraced and (traced or not trace):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not untraced or (trace and not traced):
        raise RuntimeError("no repetition completed")
    fedsvd_oracle(checks, w)

    result = Result(checks=checks, metrics={}, accuracies=first["accuracies"])

    def calibrated(start: float, end: float) -> float:
        return (end - start) / clock.speed(start, end)

    def seed_mean(r: Repetition, local: bool) -> float:
        return statistics.fmean(calibrated(t0, t1) for c, t0, t1 in r.seeds
                                if (c == "local") == local)

    run_s = [calibrated(*r.run) for r in untraced]
    result.samples = {
        "run_s": summarize(run_s),
        "transfer_seed_s": summarize([seed_mean(r, False) for r in untraced]),
        "local_seed_s": summarize([seed_mean(r, True) for r in untraced]),
        "update_s": summarize([calibrated(*r.update) for r in untraced]),
        "wall_run_s": summarize([r.run_s for r in untraced]),
        "speed": summarize([clock.speed(*r.run) for r in untraced]),
    }
    if not trace:
        transfer = [a for c, accs in first["accuracies"].items() if c != "local" for a in accs]
        local = first["accuracies"].get("local", [])
        nbytes, messages, seeds = protocol
        m = {name: result.samples[name]["median"] for name in END_TO_END if name in result.samples}
        m.update({
            "peak_rss_mb": peak_rss_mb,
            "acc_transfer": float(np.mean(transfer)),
            "acc_local": float(np.mean(local)),
            "protocol_bytes_per_seed": nbytes / seeds,
            "protocol_messages_per_seed": messages / seeds,
            "pass_ratio": (checks.attempted - checks.failed) / checks.attempted,
        })
        m["lift"] = m["acc_transfer"] / m["acc_local"]
        result.metrics = m
    else:
        per_rep = []
        for k, rep in traced:  # layer times at the repetition's reference speed
            speed = clock.speed(*rep.run)
            lm = layer_metrics(tracer.spans, k)
            per_rep.append(({n: v / speed if n.endswith("_s") else v
                             for n, v in lm.items()}, calibrated(*rep.run)))
        names = per_rep[0][0].keys()
        m = {n: statistics.median(lm[n] for lm, _ in per_rep) for n in names}
        m["trace.coverage"] = statistics.median(lm["trace.root_s"] / t for lm, t in per_rep)
        m["trace.run_s"] = statistics.median(t for _, t in per_rep)
        m["trace.overhead_s"] = m["trace.run_s"] - statistics.median(run_s)
        m["trace.spans"] = statistics.median(
            sum(1 for s in tracer.spans if s["run"] == k) for k, _ in traced)
        del m["trace.root_s"]
        result.metrics = m
        result.spans = tracer.spans
    return result


def reported_metrics(result: Result, trace: bool, setup_runs: list[dict]) -> dict:
    """name -> (value, unit): the end-to-end set, or with ``trace`` the per-layer set."""
    if trace:
        return {n: (v, per_layer_unit(n)) for n, v in sorted(result.metrics.items())}
    result.samples["setup_s"] = summarize([s["setup_s"] for s in setup_runs])
    result.metrics["setup_s"] = result.samples["setup_s"]["median"]
    return {n: (result.metrics[n], unit) for n, unit in END_TO_END.items()}
