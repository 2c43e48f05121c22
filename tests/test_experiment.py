"""Tests for experiment configs, the end-to-end pipeline, sweeps, and the CLI."""

import hashlib
import inspect
import json
import pickle
import re
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from vfkt import lkt
from vfkt.bus import MessageBus
from vfkt.cli import main
from vfkt.data import (DataError, FeatureMatrix, OverlapIndex, PartyState, from_dict,
                       standardize, standardize_columns, write_csv)
from vfkt.experiment import (
    ConfigError,
    CsvSource,
    Dataset,
    DownstreamParams,
    ExperimentConfig,
    FrlParams,
    PairRun,
    PipelineResult,
    add_data_hospital,
    prepare_dataset,
    render_reports,
    run_condition,
    run_experiment,
    run_pipeline_once,
    sweep,
)
from vfkt.frl import run_frl
from vfkt.lkt import LktConfig
from vfkt.synthetic import SyntheticSpec, generate_synthetic


def _tiny_config(**overrides):
    base = dict(
        synthetic=SyntheticSpec(
            n_task_samples=60, overlap_count=20, task_features=4,
            data_features=(4,), latent_dim=3, label_coords=2,
            task_signal=0.5, noise=0.3, seed=0),
        lkt=LktConfig(latent_dim=2, epochs=2, hidden_width=4,
                      mine_hidden=(4, 4), batch_size=16, finetune_epochs=2),
        downstream=DownstreamParams(model="logistic", n_seeds=2, epochs=30),
        conditions=("local", "unitrans"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _csv_config():
    return ExperimentConfig(
        csv=CsvSource(task_path="t.csv", data_paths=("a.csv", "b.csv"),
                      id_column="pid"),
        ol_columns=("t0", "t1"), nl_columns=("t2", "t3"),
        lkt=LktConfig(mine_hidden=[8, 4]))


def _all_fields_config():
    """Every field of every section away from its default."""
    return ExperimentConfig(
        synthetic=SyntheticSpec(
            n_task_samples=90, overlap_count=30, task_features=5,
            data_features=(3, 4), latent_dim=4, label_coords=2, task_signal=0.6,
            noise=0.2, label_noise=0.1, redundant_hospitals=True, seed=3),
        ol_columns=("t0", "t1", "t2"), nl_columns=("t3", "t4"),
        standardize_features=False,
        frl=FrlParams(method="vfedpca", block_size=5, iter_num=50, period_num=4, rank=2),
        lkt=LktConfig(latent_dim=3, mi_weight=0.2, temperature=0.25, learning_rate=2e-3, batch_size=32, epochs=7,
                      finetune_epochs=3, finetune_lr=5e-4,
                      reconstruction_source="local", hidden_width=6,
                      mine_hidden=(8, 4), mine_activation="tanh"),
        downstream=DownstreamParams(model="mlp", train_fraction=0.7,
                                    few_shot_fraction=0.5, n_seeds=3, epochs=12,
                                    learning_rate=0.05),
        conditions=("unitrans", "ablation-no-mi"),
        seed=7,
    )


class TestSyntheticSpec:
    def test_dict_round_trip(self):
        spec = SyntheticSpec(data_features=(5, 7), redundant_hospitals=True)
        assert from_dict(SyntheticSpec, json.loads(json.dumps(asdict(spec)))) == spec

    def test_validation(self):
        with pytest.raises(ConfigError, match="overlap_count"):
            SyntheticSpec(n_task_samples=10, overlap_count=10)
        with pytest.raises(ConfigError, match="label_coords"):
            SyntheticSpec(latent_dim=3, label_coords=4)
        with pytest.raises(ConfigError, match="positive"):
            SyntheticSpec(data_features=(0,))

    @pytest.mark.parametrize("field, value, message", [
        ("noise", -0.3, "noise must be finite and >= 0, got -0.3"),
        ("noise", float("inf"), "noise must be finite and >= 0, got inf"),
        ("label_noise", -1.0, "label_noise must be finite and >= 0, got -1.0"),
        ("label_noise", float("nan"), "label_noise must be finite and >= 0, got nan"),
        ("task_signal", float("nan"), "task_signal must be finite, got nan"),
        ("task_signal", float("-inf"), "task_signal must be finite, got -inf"),
    ])
    def test_rejects_bad_noise_settings(self, field, value, message):
        # unchecked, a NaN or negative label_noise reads as no label noise,
        # and a NaN task_signal fails only later, as a DataError
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(**{field: value})

    def test_rejects_a_negative_seed(self):
        # unchecked, the generator rejected it inside prepare_dataset
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -3$"):
            SyntheticSpec(seed=-3)
        SyntheticSpec(seed=0)


class TestGenerateSynthetic:
    def test_shapes_roles_and_overlap(self):
        spec = SyntheticSpec(n_task_samples=50, overlap_count=15,
                             task_features=4, data_features=(3, 5), seed=1)
        task, parties = generate_synthetic(spec)
        assert task.role == "task"
        assert task.features.values.shape == (50, 4)
        assert task.labels.num_classes == 2
        assert len(parties) == 2
        for p, nf in zip(parties, (3, 5)):
            assert p.role == "data"
            assert p.labels is None
            assert p.features.values.shape == (15, nf)
            # data parties hold exactly overlapping samples
            assert set(p.features.ids) <= set(task.features.ids)
        assert parties[0].features.ids == parties[1].features.ids

    def test_deterministic(self):
        spec = SyntheticSpec(seed=4)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(a.features.values, b.features.values)
        np.testing.assert_array_equal(a.labels.labels, b.labels.labels)

    def test_redundant_hospitals_share_a_view(self):
        spec = SyntheticSpec(data_features=(4, 4), redundant_hospitals=True,
                             noise=0.0, seed=2)
        _, parties = generate_synthetic(spec)
        np.testing.assert_allclose(parties[0].features.values,
                                   parties[1].features.values, atol=1e-12)


class TestExperimentConfig:
    def test_dict_round_trip(self):
        cfg = _tiny_config(
            frl=FrlParams(method="vfedpca", iter_num=50, period_num=50),
            downstream=DownstreamParams(model="mlp", n_seeds=3,
                                        few_shot_fraction=0.1,
                                        epochs=25, learning_rate=0.02),
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_readme_config_example_matches_the_code(self):
        # the README's first JSON block is a whole config: every key of every
        # section, nested ones included, and no key the code does not know
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        doc = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])

        def keys(d, prefix=""):
            return {prefix + k for k in d} | {
                x for k, v in d.items() if isinstance(v, dict) for x in keys(v, f"{prefix}{k}.")}

        assert keys(doc) == keys(asdict(ExperimentConfig.from_dict(doc)))

    def test_csv_source_round_trip(self):
        cfg = ExperimentConfig(csv=CsvSource(task_path="t.csv",
                                             data_paths=("a.csv", "b.csv")))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("make", [_tiny_config, _csv_config, _all_fields_config])
    def test_json_round_trip(self, make):
        cfg = make()
        assert from_dict(ExperimentConfig, asdict(cfg)) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_missing_keys_and_sections_take_defaults(self):
        doc = {"synthetic": {"seed": 4}, "lkt": {"epochs": 3}}
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg == ExperimentConfig(synthetic=SyntheticSpec(seed=4),
                                       lkt=LktConfig(epochs=3))

    @pytest.mark.parametrize("make, edit, path", [
        (_tiny_config, {"sed": 1}, "sed"),
        (_tiny_config, {"synthetic": {"sed": 1}}, "synthetic.sed"),
        (_csv_config, {"csv": {"task_path": "t.csv", "data_path": []}}, "csv.data_path"),
        (_tiny_config, {"frl": {"iter": 5}}, "frl.iter"),
        (_tiny_config, {"lkt": {"epoch": 5}}, "lkt.epoch"),
        (_tiny_config, {"downstream": {"n_seed": 1}}, "downstream.n_seed"),
        (_tiny_config, {"frl": {"warm_start": False}}, "frl.warm_start"),
        (_tiny_config, {"lkt": {"beta_recons": 2.0}}, "lkt.beta_recons"),
    ])
    def test_unknown_key_rejected_by_dotted_path(self, make, edit, path):
        with pytest.raises(ConfigError, match=f"unknown key {path}$"):
            ExperimentConfig.from_dict({**make().to_dict(), **edit})

    def test_missing_required_key_rejected(self):
        doc = {"csv": {"data_paths": ["a.csv"]}}
        with pytest.raises(ConfigError, match="missing required key csv.task_path"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("edit, path", [
        ({"lkt": 5}, "lkt"), ({"frl": None}, "frl"), ({"synthetic": [1]}, "synthetic"),
    ])
    def test_section_must_be_an_object(self, edit, path):
        with pytest.raises(ConfigError, match=f"{path} must be an object"):
            ExperimentConfig.from_dict({**_tiny_config().to_dict(), **edit})

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError, match="config must be an object"):
            ExperimentConfig.from_dict([])

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(synthetic=SyntheticSpec(),
                             csv=CsvSource(task_path="t", data_paths=("d",)))

    def test_unknown_condition(self):
        with pytest.raises(ConfigError, match="unknown condition"):
            _tiny_config(conditions=("local", "magic"))

    def test_empty_conditions_rejected(self):
        with pytest.raises(ConfigError, match="conditions must name at least one condition"):
            _tiny_config(conditions=())
        with pytest.raises(ConfigError, match="^conditions must name at least one"):
            ExperimentConfig.from_dict({**_tiny_config().to_dict(), "conditions": []})

    def test_duplicate_condition_rejected(self):
        with pytest.raises(ConfigError, match=r"conditions must not repeat: \['local', 'unitrans', 'local'\]"):
            _tiny_config(conditions=("local", "unitrans", "local"))

    @pytest.mark.parametrize("section, bad, match", [
        ("lkt", {"reconstruction_source": "foo"}, "reconstruction_source"),
        ("lkt", {"batch_size": 1}, "batch_size"),
        ("lkt", {"temperature": 0.0}, "temperature"),
        ("lkt", {"temperature": -0.5}, "temperature"),
        ("lkt", {"epochs": 0}, "epochs"),
        ("lkt", {"mine_activation": "gelu"}, "mine_activation"),
        ("lkt", {"temperature": float("nan")}, "temperature must be finite and > 0, got nan"),
        ("lkt", {"learning_rate": float("nan")}, "learning_rate must be finite and > 0, got nan"),
        ("downstream", {"train_fraction": 0.0}, "train_fraction"),
        ("downstream", {"train_fraction": 1.0}, "train_fraction"),
        ("downstream", {"few_shot_fraction": 0.0}, "few_shot_fraction"),
        ("downstream", {"few_shot_fraction": 1.5}, "few_shot_fraction"),
        ("lkt", {"learning_rate": 0.0}, "learning_rate"),
        ("lkt", {"learning_rate": -1e-3}, "learning_rate"),
        ("lkt", {"finetune_lr": 0.0}, "finetune_lr"),
        ("lkt", {"latent_dim": 0}, "latent_dim"),
        ("lkt", {"hidden_width": 0}, "hidden_width"),
        ("lkt", {"mine_hidden": [64, 0]}, "mine_hidden"),
        ("downstream", {"learning_rate": 0.0}, "learning_rate"),
        ("downstream", {"learning_rate": -0.05}, "learning_rate"),
        ("lkt", {"finetune_epochs": -2}, "finetune_epochs"),
        ("lkt", {"mi_weight": -0.1}, "mi_weight must be finite and >= 0"),
        ("lkt", {"mi_weight": float("nan")}, "mi_weight"),
        ("lkt", {"mi_weight": float("inf")}, "mi_weight"),
        ("lkt", {"finetune_lr": float("nan")}, "finetune_lr must be finite and > 0, got nan"),
        ("downstream", {"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
        ("downstream", {"train_fraction": float("nan")}, "train_fraction"),
        ("downstream", {"few_shot_fraction": float("nan")}, "few_shot_fraction"),
        ("lkt", {"temperature": float("inf")}, "temperature must be finite and > 0, got inf"),
        ("lkt", {"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
        ("lkt", {"finetune_lr": float("inf")}, "finetune_lr must be finite and > 0"),
        ("downstream", {"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
    ])
    def test_invalid_lkt_and_downstream(self, section, bad, match):
        cls = {"lkt": LktConfig, "downstream": DownstreamParams}[section]
        with pytest.raises(ConfigError, match=match):
            cls(**bad)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({**_tiny_config().to_dict(), section: bad})

    def test_invalid_downstream(self):
        with pytest.raises(ConfigError, match="downstream model"):
            DownstreamParams(model="forest")
        with pytest.raises(ConfigError, match="n_seeds"):
            DownstreamParams(n_seeds=0)
        with pytest.raises(ConfigError, match="epochs"):
            DownstreamParams(epochs=0)

    @pytest.mark.parametrize("bad, match", [
        ({"iter_num": 0}, "iter_num"),
        ({"iter_num": -3}, "iter_num"),
        ({"period_num": 0}, "period_num"),
        ({"rank": 0}, "rank"),
        ({"rank": -1}, "rank"),
        ({"block_size": 0}, "block_size"),
    ])
    def test_invalid_frl(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            FrlParams(method="vfedpca", **bad)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({**_tiny_config().to_dict(), "frl": bad})

    @pytest.mark.parametrize("doc, message", [
        ({"synthetic": {"overlap_count": 0}},
         "synthetic: overlap_count must lie in [1, n_task_samples)"),
        ({"synthetic": {"data_features": []}},
         "synthetic: data_features must name at least one data party"),
        ({"csv": {"task_path": "t.csv", "data_paths": []}},
         "csv: data_paths must name at least one data party"),
        ({"csv": {"task_path": "t.csv", "data_paths": ["d.csv"], "id_column": "y"}},
         "csv: label_column and id_column are both 'y'"),
        ({"synthetic": {}, "frl": {"iter_num": 0}}, "frl: iter_num must be >= 1"),
        ({"synthetic": {}, "lkt": {"epochs": 0}}, "lkt: epochs must be >= 1"),
        ({"synthetic": {}, "downstream": {"epochs": 0}}, "downstream: epochs must be >= 1"),
        ({"synthetic": {"seed": -3}}, "synthetic: seed must be >= 0, got -3"),
        ({"synthetic": {}, "ol_columns": ["t0", "t1"], "nl_columns": ["t2", "t3"],
          "lkt": {"reconstruction_source": "overlap"}},
         "lkt.reconstruction_source 'overlap' needs matching column schemas, "
         "got ol_columns ['t0', 't1'] and nl_columns ['t2', 't3']"),
    ])
    def test_section_error_names_its_section(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message

    def test_rejects_a_negative_seed(self):
        # unchecked, run_condition failed in numpy's generator after the
        # first protocol message was already on the bus
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            _tiny_config(seed=-1)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            ExperimentConfig.from_dict({**_tiny_config().to_dict(), "seed": -1})
        assert _tiny_config(seed=0).seed == 0

    def test_no_data_party_rejected(self):
        with pytest.raises(ConfigError, match="at least one data party"):
            SyntheticSpec(data_features=())
        with pytest.raises(ConfigError, match="at least one data party"):
            CsvSource(task_path="t.csv", data_paths=())
        with pytest.raises(ConfigError, match="at least one data party"):
            sweep(_tiny_config(), "num_data_hospitals", [0])

    # sha256 of the config.json bytes and config_hash, pinned so that a
    # change of serialization cannot silently re-key reports and checkpoints
    @pytest.mark.parametrize("make, json_sha256, config_hash", [
        (_tiny_config,
         "e5fc5e289809421c3887ddc0ef2c99bd2ad293a9ce101fb53f83f4046cf85db6",
         "a7334a2d1cf5b1fe"),
        (_csv_config,
         "2d4e94c1ab11a36f2ca9f7a54431e16b4e4fd1a9d21c546ecf86a9f88accfcee",
         "d03c80d8234d9471"),
        (_all_fields_config,
         "a76e44ba0916b9c5a6dbb1f34fb3a4118aee8ffd997b44c5bd44ddbf76f0e2ab",
         "b894d5a18081ddc1"),
    ])
    def test_serialization_is_pinned(self, make, json_sha256, config_hash):
        cfg = make()
        text = json.dumps(cfg.to_dict(), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == json_sha256
        assert cfg.config_hash == config_hash

    # sha256 of one run_frl trace per method, one json.dumps(rec,
    # sort_keys=True) line per message, pinned so that a reordered message
    # or a changed payload cannot silently change the protocol contract
    @pytest.mark.parametrize("method, trace_sha256", [
        ("fedsvd", "4350b127d535df9c4c9e66c2d58231e3e77cf04f1376d752a5dfe8042a7cadc1"),
        ("vfedpca", "e45ecaf35d844991b9fa2c1ba6fc0f832289769a7d6cd5b5985baa426cdc7bca"),
    ])
    def test_protocol_trace_is_pinned(self, method, trace_sha256):
        rng = np.random.default_rng(0)
        overlap = OverlapIndex(overlapping_ids=tuple(f"s{i}" for i in range(6)),
                               task_rows=np.arange(6), data_rows=np.arange(6))
        parties = {"task": rng.normal(size=(6, 3)), "data-0": rng.normal(size=(6, 2)),
                   "data-1": rng.normal(size=(6, 4))}
        params = FrlParams(method=method, block_size=4, iter_num=5, period_num=2)
        bus = MessageBus()
        run_frl(bus, params, "task", parties, overlap, seed=3)
        lines = "\n".join(json.dumps(rec, sort_keys=True) for rec in bus.trace)
        assert hashlib.sha256(lines.encode()).hexdigest() == trace_sha256

    def test_lkt_section_is_frozen_and_hashable(self):
        cfg = _tiny_config()
        with pytest.raises(FrozenInstanceError):
            cfg.lkt.epochs = 0
        assert cfg.lkt.epochs == 2
        assert hash(cfg) == hash(_tiny_config())

    @pytest.mark.parametrize("bad, message", [
        ({"seed": "0"}, "seed must be int, got str"),
        ({"seed": True}, "seed must be int, got bool"),
        ({"lkt": {"epochs": "5"}}, "lkt.epochs must be int, got str"),
        ({"lkt": {"mine_hidden": 5}}, "lkt.mine_hidden must be a list, got int"),
        ({"downstream": {"n_seeds": "3"}}, "downstream.n_seeds must be int, got str"),
        ({"lkt": {"learning_rate": 10 ** 400}},
         "int too large to convert to float in lkt.learning_rate"),
        ({"lkt": {"temperature": -10 ** 400}},
         "int too large to convert to float in lkt.temperature"),
        ({"synthetic": {"noise": 10 ** 400}}, "int too large to convert to float in synthetic.noise"),
    ])
    def test_scalar_types_checked(self, tmp_path, capsys, bad, message):
        doc = {**_tiny_config().to_dict(), **bad}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == f"ConfigError: {message}"

    def test_int_accepted_for_float_field(self):
        doc = {**_tiny_config().to_dict(), "lkt": {"temperature": 1}}
        assert ExperimentConfig.from_dict(doc).lkt.temperature == 1

    def test_empty_column_split_serializes_as_unset(self):
        assert _tiny_config(ol_columns=(), nl_columns=()).config_hash == \
            _tiny_config().config_hash

    def test_hash_tracks_content(self):
        a = _tiny_config()
        b = _tiny_config(seed=1)
        assert a.config_hash == _tiny_config().config_hash
        assert a.config_hash != b.config_hash


class TestPipeline:
    def test_standardization_applied(self):
        ds = prepare_dataset(_tiny_config())
        np.testing.assert_allclose(ds.task.features.values.mean(axis=0), 0.0,
                                   atol=1e-10)

    def test_artifacts_written(self, tmp_path):
        cfg = _tiny_config()
        out = tmp_path / "run"
        reports = run_experiment(cfg, out_dir=out)
        assert [r.condition for r in reports] == ["local", "unitrans"]
        for name in ("report_local.json", "report_unitrans.json",
                     "trace.jsonl", "config.json", "models.json"):
            assert (out / name).exists(), name
        # persisted config reproduces the in-memory one
        assert ExperimentConfig.from_dict(
            json.loads((out / "config.json").read_text())) == cfg

    def test_csv_tables_run_as_the_synthetic_spec_that_wrote_them(self, tmp_path):
        cfg = _tiny_config(synthetic=replace(_tiny_config().synthetic, data_features=(4, 3)))
        task, parties = generate_synthetic(cfg.synthetic)
        write_csv(tmp_path / "task.csv", task.features, task.labels)
        for p in parties:
            write_csv(tmp_path / f"{p.party_id}.csv", p.features)
        csv_cfg = replace(cfg, synthetic=None, csv=CsvSource(
            task_path=str(tmp_path / "task.csv"),
            data_paths=tuple(str(tmp_path / f"{p.party_id}.csv") for p in parties)))
        want = run_experiment(cfg, tmp_path / "synthetic")
        got = run_experiment(csv_cfg, tmp_path / "csv")
        assert [(r.condition, r.accuracies) for r in got] == [
            (r.condition, r.accuracies) for r in want]
        assert ((tmp_path / "csv" / "trace.jsonl").read_bytes()
                == (tmp_path / "synthetic" / "trace.jsonl").read_bytes())

    def test_a_diverging_pair_names_its_condition_and_seed(self):
        cfg = _tiny_config(lkt=replace(_tiny_config().lkt, reconstruction_source="local"))
        ds = prepare_dataset(cfg)
        f = ds.task.features
        big = FeatureMatrix(ids=f.ids, columns=f.columns, values=1e200 * f.values)
        ds = Dataset(task=replace(ds.task, features=big), data_parties=ds.data_parties)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as exc:
            run_condition(cfg, "unitrans", ds)
        assert str(exc.value).startswith(
            "pipeline failed (condition=unitrans, seed=0): training diverged")
        assert isinstance(exc.value.__cause__, lkt.LktDivergenceError)

    def test_local_condition_sends_no_messages(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(_tiny_config(), out_dir=out)
        records = [json.loads(ln) for ln in
                   (out / "trace.jsonl").read_text().splitlines()]
        assert records, "federated conditions must produce traffic"
        assert all(r["condition"] != "local" for r in records)
        # only fingerprints on the wire record, never payloads
        assert set(records[0]) == {"condition", "seed", "from", "to",
                                   "kind", "shape", "checksum"}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _tiny_config()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=out1)
        run_experiment(cfg, out_dir=out2)
        for name in ("report_local.json", "report_unitrans.json",
                     "config.json", "trace.jsonl", "models.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_augmentation_widens_features(self):
        cfg = _tiny_config()
        ds = prepare_dataset(cfg)
        local = run_pipeline_once(cfg, "local", ds, run_seed=0)
        uni = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        assert local.augmented_columns == 4
        assert uni.augmented_columns == 4 + 2  # one pair, latent width 2
        assert not local.bus.trace

    def test_unknown_condition_rejected(self):
        with pytest.raises(ConfigError, match="unknown condition"):
            run_condition(_tiny_config(), "magic")

    @pytest.mark.parametrize("split", [dict(ol_columns=("t0", "t1")),
                                       dict(nl_columns=("t2", "t3"))], ids=["ol", "nl"])
    def test_one_sided_split_cannot_rebuild_the_overlap(self, monkeypatch, split):
        # the partition left unsplit takes all four task columns, which the
        # dataset knows once it is loaded: the run stops before any message
        cfg = _tiny_config(lkt=replace(_tiny_config().lkt, reconstruction_source="overlap"),
                           **split)

        def send(*args, **kwargs):
            raise AssertionError("a message was sent before the config was checked")

        monkeypatch.setattr(MessageBus, "send", send)
        every = ["t0", "t1", "t2", "t3"]
        ol, nl = split.get("ol_columns", every), split.get("nl_columns", every)
        with pytest.raises(ConfigError, match=re.escape(
                "lkt.reconstruction_source 'overlap' needs matching column schemas, got "
                f"overlap columns {list(ol)} and non-overlap columns {list(nl)}")):
            run_condition(cfg, "unitrans")
        # with local reconstruction the same split is fine
        prepare_dataset(replace(cfg, lkt=replace(cfg.lkt, reconstruction_source="local")))

    def test_overlap_of_one_row_rejected(self):
        # a one-row overlap has no column spread to standardize by
        spec = replace(_tiny_config().synthetic, overlap_count=1)
        cfg = _tiny_config(synthetic=spec, standardize_features=False)
        ds = prepare_dataset(cfg)
        party = ds.data_parties[0].party_id
        with pytest.raises(DataError, match=f"^{party} shares 1 sample"):
            run_pipeline_once(cfg, "unitrans", ds, run_seed=0)

    def test_unsettled_power_iterations_reach_the_result(self, tmp_path):
        # two local iterations cannot settle; FedSVD runs no power iteration
        cfg = _tiny_config(frl=FrlParams(method="vfedpca", iter_num=2),
                           downstream=DownstreamParams(n_seeds=1, epochs=5))
        ds = prepare_dataset(cfg)
        assert run_pipeline_once(cfg, "unitrans", ds, run_seed=0).flagged > 0
        assert run_pipeline_once(cfg, "local", ds, run_seed=0).flagged == 0
        fed = replace(cfg, frl=FrlParams(method="fedsvd"))
        assert run_pipeline_once(fed, "unitrans", ds, run_seed=0).flagged == 0
        # the count stays out of the reports
        run_experiment(cfg, out_dir=tmp_path)
        assert "flagged" not in (tmp_path / "report_unitrans.json").read_text()


class TestPairTrainingMemo:
    """Conditions of one seed that train their pairs alike share one
    training run through the dataset."""

    @staticmethod
    def _counting(monkeypatch):
        from vfkt import experiment

        calls = {"lkt_train": 0, "run_frl": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lkt, "lkt_train", counted("lkt_train", lkt.lkt_train))
        monkeypatch.setattr(experiment, "run_frl", counted("run_frl", experiment.run_frl))
        return calls

    @staticmethod
    def _cfg():
        spec = replace(_tiny_config().synthetic, data_features=(4, 3))
        return _tiny_config(synthetic=spec, lkt=replace(_tiny_config().lkt, finetune_epochs=1))

    @staticmethod
    def _encoder_bytes(model):
        return [(l.w.tobytes(), l.b.tobytes()) for l in model.enc.layers]

    def test_pair_training_travels_as_one_pair_run(self):
        from vfkt import experiment

        assert [f.name for f in fields(PairRun)] == ["models", "flagged", "bus"]
        assert "bus" not in inspect.signature(experiment._train_pair_models).parameters
        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        result = run_pipeline_once(cfg, "ablation-no-cl", ds, run_seed=0)
        (run,) = ds.pair_models.values()
        assert isinstance(run, PairRun)
        assert result.bus is run.bus and result.flagged == run.flagged
        assert len(result.models) == len(run.models) == 2

    def test_a_pair_run_survives_pickling(self):
        from vfkt import experiment

        cfg = replace(self._cfg(), frl=FrlParams(method="vfedpca", iter_num=2))
        ds = prepare_dataset(cfg)
        _, h_t_nl = experiment._non_overlap(cfg, ds.task, ds.data_parties)
        run = experiment._pair_models(cfg, cfg.lkt, ds, h_t_nl, run_seed=0)
        back = pickle.loads(pickle.dumps(run))
        assert run.flagged > 0 and back.flagged == run.flagged
        assert back.bus.trace == run.bus.trace
        for a, b in zip(run.models, back.models, strict=True):
            assert self._encoder_bytes(a) == self._encoder_bytes(b)
            assert a.keys.tobytes() == b.keys.tobytes()
        # the unpickled encoders still take an Adam step
        tuned = lkt.lkt_finetune_contrastive(back.models, h_t_nl, cfg.lkt, seed=1)
        want = lkt.lkt_finetune_contrastive(run.models, h_t_nl, cfg.lkt, seed=1)
        assert [self._encoder_bytes(m) for m in tuned] == [self._encoder_bytes(m) for m in want]

    def test_a_dataset_cannot_change_under_its_memo(self):
        ds = prepare_dataset(self._cfg())
        built = Dataset(task=ds.task, data_parties=list(ds.data_parties))
        assert isinstance(built.data_parties, tuple)
        with pytest.raises(FrozenInstanceError):
            built.data_parties = ()

    def test_a_dataset_needs_a_data_party(self):
        # with none, every condition would fall back to the raw features
        ds = prepare_dataset(self._cfg())
        with pytest.raises(DataError, match="at least one data party"):
            Dataset(task=ds.task, data_parties=())

    def test_a_result_is_its_pair_run_and_the_classifier_s_figures(self):
        own = {f.name for f in fields(PipelineResult)} - {f.name for f in fields(PairRun)}
        assert issubclass(PipelineResult, PairRun)
        assert own == {"accuracy", "augmented_columns"}

    def test_each_pair_model_is_copied_once_per_seed(self, monkeypatch):
        # the memo hands out its run itself: the fine-tune's copies, or the
        # one copy ablation-no-cl makes, are the only ones
        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        copies = []
        real_copy = lkt.LktModel.copy
        monkeypatch.setattr(lkt.LktModel, "copy", lambda m: copies.append(m) or real_copy(m))
        for condition in ("unitrans", "ablation-no-cl", "unitrans"):
            copies.clear()
            run_pipeline_once(cfg, condition, ds, run_seed=0)
            assert len(copies) == len(ds.data_parties) == 2, condition

    def test_no_cl_after_unitrans_trains_nothing(self, monkeypatch):
        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        calls = self._counting(monkeypatch)
        run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        assert calls == {"lkt_train": 1, "run_frl": 2}
        run_pipeline_once(cfg, "ablation-no-cl", ds, run_seed=0)
        assert calls == {"lkt_train": 1, "run_frl": 2}

    def test_hit_is_bit_identical_to_a_fresh_run(self):
        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        hit = run_pipeline_once(cfg, "ablation-no-cl", ds, run_seed=0)
        fresh = run_pipeline_once(cfg, "ablation-no-cl", prepare_dataset(cfg), run_seed=0)
        assert hit.accuracy == fresh.accuracy
        assert hit.flagged == fresh.flagged
        assert hit.bus.trace == fresh.bus.trace
        for a, b in zip(hit.models, fresh.models, strict=True):
            assert self._encoder_bytes(a) == self._encoder_bytes(b)
            assert a.keys.tobytes() == b.keys.tobytes()
            assert a.history == b.history

    def test_mutating_a_result_leaves_later_hits_alone(self):
        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        first = run_pipeline_once(cfg, "ablation-no-cl", ds, run_seed=0)
        want = [(self._encoder_bytes(m), m.keys.tobytes()) for m in first.models]
        for m in first.models:
            m.enc.layers[0].w[...] += 1.0
            m.keys *= 2.0
            m.history["loss"].append(1.0)
        second = run_pipeline_once(cfg, "ablation-no-cl", ds, run_seed=0)
        assert [(self._encoder_bytes(m), m.keys.tobytes()) for m in second.models] == want
        assert all(len(m.history["loss"]) == cfg.lkt.epochs for m in second.models)

    @pytest.mark.parametrize("condition, seed, edit", [
        ("ablation-no-mi", 0, {}),
        ("unitrans", 1, {}),
        ("unitrans", 0, {"frl": FrlParams(block_size=7)}),
        ("unitrans", 0, {"ol_columns": ("t0", "t1", "t2")}),
        ("unitrans", 0, {"nl_columns": ("t0", "t1", "t2")}),
    ], ids=["no-mi", "run-seed", "block-size", "ol-columns", "nl-columns"])
    def test_other_inputs_miss(self, monkeypatch, condition, seed, edit):
        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        calls = self._counting(monkeypatch)
        run_pipeline_once(replace(cfg, **edit), condition, ds, run_seed=seed)
        assert calls == {"lkt_train": 1, "run_frl": 2}

    def test_shared_training_writes_the_same_artifacts(self, tmp_path, monkeypatch):
        from vfkt import experiment

        cfg = replace(self._cfg(), conditions=("unitrans", "ablation-no-cl"))
        run_experiment(cfg, out_dir=tmp_path / "shared")
        # each condition on a dataset of its own: no training is shared
        real_run_condition = experiment.run_condition
        monkeypatch.setattr(experiment, "run_condition",
                            lambda c, cond, ds: real_run_condition(c, cond, prepare_dataset(c)))
        run_experiment(cfg, out_dir=tmp_path / "separate")
        names = sorted(p.name for p in (tmp_path / "shared").iterdir())
        assert names == ["config.json", "models.json", "report_ablation-no-cl.json",
                         "report_unitrans.json", "trace.jsonl"]
        for name in names:
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "separate" / name).read_bytes()), name


class TestStackedPairTraining:
    """A seed's pairs train in one ``lkt_train`` call, which stacks the
    pairs whose tables have one shape."""

    @staticmethod
    def _cfg():
        spec = replace(_tiny_config().synthetic, data_features=(4, 3, 4))
        return _tiny_config(synthetic=spec, conditions=("unitrans",))

    def test_pairs_of_one_shape_train_together_and_come_back_in_party_order(self, monkeypatch):
        from vfkt import experiment

        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        _, h_t_nl = experiment._non_overlap(cfg, ds.task, ds.data_parties)
        calls, stacks, real_train, real_stack = [], [], lkt.lkt_train, lkt._train_stack

        def train(*args, **kwargs):
            calls.append((args, kwargs))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(lkt, "lkt_train", train)
        monkeypatch.setattr(lkt, "_train_stack", lambda group, *args: (
            stacks.append(list(group)) or real_stack(group, *args)))
        run = experiment._train_pair_models(cfg, cfg.lkt, ds.task, ds.data_parties, h_t_nl, 0)
        assert [kw["provenances"] for _, kw in calls] == [["data-0", "data-1", "data-2"]]
        assert stacks == [[0, 2], [1]]
        assert [m.provenance for m in run.models] == ["data-0", "data-1", "data-2"]
        # each model is the one its pair trains alone
        (((h_t_ols, nl, h_feds, lkt_cfg), kw),) = calls
        for row, m in enumerate(run.models):
            (want,) = real_train([h_t_ols[row]], nl, [h_feds[row]], lkt_cfg,
                                 [kw["seeds"][row]], [m.provenance])
            assert m.enc.params.tobytes() == want.enc.params.tobytes()
            assert m.keys.tobytes() == want.keys.tobytes()
            assert m.history == want.history

    def test_one_lkt_train_call_and_its_divergence_passes_through(self, monkeypatch):
        # lkt_train orders the divergences of all pairs; the caller neither
        # groups the pairs nor reorders their errors
        from vfkt import experiment

        cfg = self._cfg()
        ds = prepare_dataset(cfg)
        _, h_t_nl = experiment._non_overlap(cfg, ds.task, ds.data_parties)
        calls, error = [], lkt.LktDivergenceError(500, 1, "data-1")

        def train(h_t_ols, h_t_nl, h_feds, config, seeds, provenances):
            calls.append(provenances)
            raise error

        monkeypatch.setattr(lkt, "lkt_train", train)
        with pytest.raises(lkt.LktDivergenceError) as exc:
            experiment._train_pair_models(cfg, cfg.lkt, ds.task, ds.data_parties, h_t_nl, 0)
        assert exc.value is error
        assert calls == [["data-0", "data-1", "data-2"]]


def _new_party(ds):
    rng = np.random.default_rng(9)
    feats = ds.data_parties[0].features
    return PartyState(
        party_id="data-new", role="data",
        features=standardize(
            type(feats)(ids=feats.ids, columns=tuple(f"n{j}" for j in range(4)),
                        values=rng.normal(size=feats.values.shape)))[0])


class TestAddDataHospital:
    def test_one_new_protocol_run_and_refinetune(self):
        cfg = _tiny_config()
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        new_party = _new_party(ds)
        models, bus = add_data_hospital(base.models, cfg, ds, new_party, run_seed=0)
        assert len(models) == len(base.models) + 1
        assert models[-1].provenance == "data-new"
        # exactly one protocol run for the one new party
        assert len(bus.messages_of_kind("frl_begin")) == 1
        # existing pair models were not retrained (same attention keys)
        assert models[0].keys.tobytes() == base.models[0].keys.tobytes()

    def test_new_pair_finetunes_against_the_representation_it_trained_on(self, monkeypatch):
        cfg = _tiny_config()
        assert cfg.frl.method == "fedsvd"  # its column signs follow the FRL seed
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        trained, pairs = [], []
        real_train, real_build = lkt.lkt_train, lkt.build_model

        def train(h_t_ols, h_t_nl, h_feds, *args, **kwargs):
            trained.extend(h_fed.matrix for h_fed in h_feds)
            return real_train(h_t_ols, h_t_nl, h_feds, *args, **kwargs)

        def build(*args, **kwargs):
            pairs.append(real_build(*args, **kwargs))  # its phi ends trained
            return pairs[-1]

        monkeypatch.setattr(lkt, "lkt_train", train)
        monkeypatch.setattr(lkt, "build_model", build)
        models, _ = add_data_hospital(base.models, cfg, ds, _new_party(ds), run_seed=0)
        assert len(trained) == len(pairs) == 1
        new = models[-1]
        np.testing.assert_array_equal(new.keys,
                                      standardize_columns(trained[0])[0] @ pairs[0].phi)

    def test_existing_hospitals_stay_offline(self, tmp_path):
        # the update reads only the ids of the existing data parties: any
        # other values under the same ids and shape give the same models
        cfg = _tiny_config(synthetic=replace(_tiny_config().synthetic, data_features=(4, 3)))
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        rng = np.random.default_rng(11)
        redrawn = Dataset(task=ds.task, data_parties=[
            PartyState(party_id=p.party_id, role="data",
                       features=replace(p.features, values=rng.normal(size=p.features.values.shape)))
            for p in ds.data_parties])
        for name, dataset in (("real", ds), ("redrawn", redrawn)):
            models, _ = add_data_hospital(base.models, cfg, dataset, _new_party(ds), run_seed=0)
            lkt.save_models(tmp_path / name / "models.json", models, cfg.config_hash)
        assert ((tmp_path / "real" / "models.json").read_bytes()
                == (tmp_path / "redrawn" / "models.json").read_bytes())

    def test_update_is_the_same_on_reloaded_models(self, tmp_path):
        # the fine-tune starts fresh Adam moments, so the models a run just
        # made and the same models read back from their checkpoint take a
        # new hospital alike, to the bit
        cfg = _tiny_config(synthetic=replace(_tiny_config().synthetic, data_features=(4, 3)))
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        lkt.save_models(tmp_path / "models.json", base.models, cfg.config_hash)
        loaded, _ = lkt.load_models(tmp_path / "models.json")
        got, _ = add_data_hospital(loaded, cfg, ds, _new_party(ds), run_seed=0)
        want, _ = add_data_hospital(base.models, cfg, ds, _new_party(ds), run_seed=0)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert [(l.w.tobytes(), l.b.tobytes()) for l in g.enc.layers] == [
                (l.w.tobytes(), l.b.tobytes()) for l in w.enc.layers]
            assert g.keys.tobytes() == w.keys.tobytes()
            assert g.history["contrastive"] == w.history["contrastive"]

    @staticmethod
    def _forbid_work(monkeypatch):
        from vfkt import experiment

        def forbidden(*args, **kwargs):
            raise AssertionError("work ran before the inputs were checked")

        for name in ("psi_intersect", "run_frl", "_train_pair_models"):
            monkeypatch.setattr(experiment, name, forbidden)
        monkeypatch.setattr(lkt, "lkt_train", forbidden)

    def test_checkpoint_under_another_temperature_rejected(self, tmp_path, monkeypatch):
        cfg = _tiny_config(synthetic=replace(_tiny_config().synthetic, data_features=(4, 3)))
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        lkt.save_models(tmp_path / "models.json", base.models, cfg.config_hash)
        loaded, _ = lkt.load_models(tmp_path / "models.json")
        hot = replace(cfg, lkt=replace(cfg.lkt, temperature=2.0))
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"temperature: \[0.5, 2.0\]"):
            add_data_hospital(loaded, hot, ds, _new_party(ds), run_seed=0)

    @pytest.mark.parametrize("edit, layout", [
        (dict(hidden_width=5), "((4, 5), 'sigmoid')"),
        (dict(latent_dim=3), "((4, 3), 'linear')"),
    ], ids=["hidden-width", "latent-width"])
    def test_checkpoint_of_another_encoder_layout_rejected(self, tmp_path, monkeypatch,
                                                          edit, layout):
        cfg = _tiny_config(synthetic=replace(_tiny_config().synthetic, data_features=(4, 3)))
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        lkt.save_models(tmp_path / "models.json", base.models, cfg.config_hash)
        loaded, _ = lkt.load_models(tmp_path / "models.json")
        other = replace(cfg, lkt=replace(cfg.lkt, **edit))
        self._forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^pair model 0 'data-0': encoder layout .* "
                                             r"differs from the new pair's .*"
                                             + re.escape(layout)):
            add_data_hospital(loaded, other, ds, _new_party(ds), run_seed=0)

    @pytest.mark.parametrize("party_id, role, match", [
        ("data-1", "data", "'data-1' already has a pair model"),
        ("data-new", "task", "'data-new' has role 'task', not 'data'"),
    ])
    def test_bad_new_party_rejected_before_any_work(self, monkeypatch, party_id, role, match):
        cfg = _tiny_config(synthetic=replace(_tiny_config().synthetic, data_features=(4, 3)))
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        party = PartyState(party_id=party_id, role=role, features=_new_party(ds).features)
        self._forbid_work(monkeypatch)
        with pytest.raises(DataError, match=match):
            add_data_hospital(base.models, cfg, ds, party, run_seed=0)

    def test_schema_change_rejected(self):
        cfg = _tiny_config()
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        base.models[0].nl_columns = ("a", "b", "c", "d")
        with pytest.raises(DataError, match="schema"):
            add_data_hospital(base.models, cfg, ds, ds.data_parties[0], run_seed=0)


class TestSweep:
    def test_axis_validation(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            sweep(_tiny_config(), "hospitals", [1])
        cfg = ExperimentConfig(csv=CsvSource(task_path="t", data_paths=("d",)))
        with pytest.raises(ConfigError, match="synthetic"):
            sweep(cfg, "task_features", [4])
        with pytest.raises(ConfigError, match="overlap_count"):
            sweep(_tiny_config(), "overlap_count", [60])

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_a_value_that_is_not_an_integer_is_rejected(self, bad):
        with pytest.raises(ConfigError, match=f"sweep value {bad!r} is not an integer"):
            sweep(_tiny_config(), "num_data_hospitals", [1, bad])

    def test_numpy_integers_are_integers(self):
        reports, timings = sweep(_tiny_config(conditions=("local",)), "num_data_hospitals",
                                 np.array([1]))
        assert [r.value for r in reports] == [1] and type(timings[0]["value"]) is int

    def test_sweep_artifacts_and_timings(self, tmp_path):
        cfg = _tiny_config(conditions=("unitrans",))
        out = tmp_path / "sweep"
        reports, timings = sweep(cfg, "num_data_hospitals", [1, 2], out_dir=out)
        assert len(reports) == 2
        assert [(r.axis, r.value) for r in reports] == [
            ("num_data_hospitals", 1), ("num_data_hospitals", 2)]
        assert [t["value"] for t in timings] == [1, 2]
        assert all(t["wall_clock_s"] > 0 for t in timings)
        for v in (1, 2):
            assert (out / f"num_data_hospitals_{v}" / "report_unitrans.json").exists()
        persisted = json.loads((out / "timings.json").read_text())
        assert [t["value"] for t in persisted] == [1, 2]


class TestRenderReports:
    def _reports(self):
        from vfkt.downstream import RunReport

        return [RunReport(condition="local", seeds=[0], accuracies=[0.5],
                          config_hash="h"),
                RunReport(condition="unitrans", seeds=[0], accuracies=[0.75],
                          config_hash="h", axis="task_features", value=8)]

    def test_markdown(self):
        text = render_reports(self._reports(), "md")
        assert text.startswith("| condition |")
        assert "| unitrans | task_features | 8 | 0.7500" in text

    def test_csv(self):
        lines = render_reports(self._reports(), "csv").strip().splitlines()
        assert lines[0] == "condition,axis,value,mean,std,seeds"
        assert lines[1].startswith("local,,,0.5")

    def test_json(self):
        rows = json.loads(render_reports(self._reports(), "json"))
        assert rows[1]["condition"] == "unitrans"

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="format"):
            render_reports([], "xml")


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_tiny_config().to_dict()))
        return path

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "local: mean=" in stdout and "unitrans: mean=" in stdout
        assert main(["report", "--in", str(out), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("condition,axis,value")

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            _tiny_config(conditions=("unitrans",)).to_dict()))
        code = main(["sweep", "--config", str(cfg_path),
                     "--axis", "num_data_hospitals", "--values", "1,2"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "num_data_hospitals=2:" in stdout

    def test_gen_synthetic(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            asdict(SyntheticSpec(n_task_samples=20, overlap_count=5,
                                 data_features=(3, 3)))))
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--spec", str(spec_path),
                     "--out", str(out)]) == 0
        assert (out / "task.csv").exists()
        assert (out / "data-0.csv").exists() and (out / "data-1.csv").exists()
        capsys.readouterr()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "not found" in err["error"]

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"synthetic": None, "csv": None}))
        assert main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "ConfigError" in err["error"]

    @pytest.mark.parametrize("command, flag, doc, path", [
        ("run", "--config", {**_tiny_config().to_dict(), "lkt": {"epoch": 5}}, "lkt.epoch"),
        ("run", "--config", {**_tiny_config().to_dict(), "synthetic": {"sed": 1}},
         "synthetic.sed"),
        ("gen-synthetic", "--spec", {"seed": 1, "sed": 1}, "sed"),
    ])
    def test_unknown_key_exits_1(self, tmp_path, capsys, command, flag, doc, path):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, flag, str(doc_path), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == f"ConfigError: unknown key {path}"
        assert not out.exists()

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["sweep", "--config", "c.json", "--axis", "bogus",
                     "--values", "1"]) == 2
        capsys.readouterr()

    def test_report_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text, message", [
        ('{"condition": "x"}', "missing required key report.seeds"),
        ('{"condition": "x", "seeds": [0], "accuracies": [true], "config_hash": "h"}',
         "report.accuracies[0] must be float, got bool"),
        ("[]", "report must be an object, got list"),
        ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["missing-seeds", "boolean-accuracy", "not-an-object", "not-json"])
    def test_report_names_the_file_it_could_not_read(self, tmp_path, capsys, text, message):
        path = tmp_path / "report_x.json"
        path.write_text(text)
        assert main(["report", "--in", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == f"ConfigError: {path}: {message}"
