"""Tests for experiment configs, the end-to-end pipeline, sweeps, and the CLI."""

import hashlib
import json
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from vfkt import lkt
from vfkt.cli import main
from vfkt.data import DataError, PartyState, standardize
from vfkt.experiment import (
    ConfigError,
    CsvSource,
    Dataset,
    DownstreamParams,
    ExperimentConfig,
    FrlParams,
    add_data_hospital,
    from_dict,
    prepare_dataset,
    render_reports,
    run_condition,
    run_experiment,
    run_pipeline_once,
    sweep,
)
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
        lkt=LktConfig(beta_recons=2.0, beta_mi=0.5, mine_hidden=[8, 4]))


def _all_fields_config():
    """Every field of every section away from its default."""
    return ExperimentConfig(
        synthetic=SyntheticSpec(
            n_task_samples=90, overlap_count=30, task_features=5,
            data_features=(3, 4), latent_dim=4, label_coords=2, task_signal=0.6,
            noise=0.2, label_noise=0.1, redundant_hospitals=True, seed=3),
        ol_columns=("t0", "t1", "t2"), nl_columns=("t3", "t4"),
        standardize_features=False,
        frl=FrlParams(method="vfedpca", block_size=5, iter_num=50, period_num=4,
                      warm_start=False, rank=2),
        lkt=LktConfig(latent_dim=3, mi_weight=0.2, beta_recons=2.0, beta_mi=0.5,
                      temperature=0.25, learning_rate=2e-3, batch_size=32, epochs=7,
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
            frl=FrlParams(method="vfedpca", iter_num=50, warm_start=False),
            downstream=DownstreamParams(model="mlp", n_seeds=3,
                                        few_shot_fraction=0.1,
                                        epochs=25, learning_rate=0.02),
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

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

    @pytest.mark.parametrize("section, bad, match", [
        ("lkt", {"reconstruction_source": "foo"}, "reconstruction_source"),
        ("lkt", {"batch_size": 1}, "batch_size"),
        ("lkt", {"temperature": 0.0}, "temperature"),
        ("lkt", {"temperature": -0.5}, "temperature"),
        ("lkt", {"epochs": 0}, "epochs"),
        ("lkt", {"mine_activation": "gelu"}, "mine_activation"),
        ("lkt", {"beta_recons": 2.0}, "together"),
        ("lkt", {"beta_mi": 0.5}, "together"),
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
        ({"synthetic": {}, "frl": {"iter_num": 0}}, "frl: iter_num must be >= 1"),
        ({"synthetic": {}, "lkt": {"epochs": 0}}, "lkt: epochs must be >= 1"),
        ({"synthetic": {}, "downstream": {"epochs": 0}}, "downstream: epochs must be >= 1"),
    ])
    def test_section_error_names_its_section(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message

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
         "7eee490f76c8f87747cf5addb29ea561e543ef8216889c634e3fe35b354851d2",
         "e1575c0cb22d0609"),
        (_csv_config,
         "c8fb932afd1db9a4d0913207f1d2f0cef2eb9d55fde7b4c4034565549270ac90",
         "9ca6f08b619d4123"),
        (_all_fields_config,
         "e58e96f00e640c55d86e8e34fb7f628faa59e30459ac9707c90ab05e063e32bc",
         "01f92d9e68999699"),
    ])
    def test_serialization_is_pinned(self, make, json_sha256, config_hash):
        cfg = make()
        text = json.dumps(cfg.to_dict(), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == json_sha256
        assert cfg.config_hash == config_hash

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
        # existing pair models were not retrained (same pre-fine-tune phi)
        np.testing.assert_array_equal(models[0].phi, base.models[0].phi)

    def test_new_pair_finetunes_against_the_representation_it_trained_on(self, monkeypatch):
        cfg = _tiny_config()
        assert cfg.frl.method == "fedsvd"  # its column signs follow the FRL seed
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        trained = []
        real_train = lkt.lkt_train

        def train(h_t_ol, h_t_nl, h_fed, *args, **kwargs):
            trained.append(h_fed.matrix)
            return real_train(h_t_ol, h_t_nl, h_fed, *args, **kwargs)

        monkeypatch.setattr(lkt, "lkt_train", train)
        models, _ = add_data_hospital(base.models, cfg, ds, _new_party(ds), run_seed=0)
        assert len(trained) == 1
        new = models[-1]
        np.testing.assert_array_equal(new.keys, lkt._column_standardize(trained[0]) @ new.phi)

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
