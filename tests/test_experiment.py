"""Tests for experiment configs, the end-to-end pipeline, sweeps, and the CLI."""

import json

import numpy as np
import pytest

from vfkt.cli import main
from vfkt.data import DataError, PartyState, standardize
from vfkt.experiment import (
    ConfigError,
    CsvSource,
    DownstreamParams,
    ExperimentConfig,
    FrlParams,
    add_data_hospital,
    prepare_dataset,
    render_reports,
    run_condition,
    run_experiment,
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


class TestSyntheticSpec:
    def test_dict_round_trip(self):
        spec = SyntheticSpec(data_features=(5, 7), redundant_hospitals=True)
        assert SyntheticSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="overlap_count"):
            SyntheticSpec(n_task_samples=10, overlap_count=10)
        with pytest.raises(ValueError, match="label_coords"):
            SyntheticSpec(latent_dim=3, label_coords=4)
        with pytest.raises(ValueError, match="positive"):
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

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(synthetic=SyntheticSpec(),
                             csv=CsvSource(task_path="t", data_paths=("d",)))

    def test_unknown_condition(self):
        with pytest.raises(ConfigError, match="unknown condition"):
            _tiny_config(conditions=("local", "magic"))

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
        from vfkt.experiment import run_pipeline_once

        ds = prepare_dataset(cfg)
        local = run_pipeline_once(cfg, "local", ds, run_seed=0)
        uni = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        assert local.augmented_columns == 4
        assert uni.augmented_columns == 4 + 2  # one pair, latent width 2
        assert not local.bus.trace

    def test_unknown_condition_rejected(self):
        with pytest.raises(ConfigError, match="unknown condition"):
            run_condition(_tiny_config(), "magic")


class TestAddDataHospital:
    def test_one_new_protocol_run_and_refinetune(self):
        cfg = _tiny_config()
        ds = prepare_dataset(cfg)
        from vfkt.experiment import run_pipeline_once

        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        rng = np.random.default_rng(9)
        new_feats = ds.data_parties[0].features
        new_party = PartyState(
            party_id="data-new", role="data",
            features=standardize(
                type(new_feats)(ids=new_feats.ids,
                                columns=tuple(f"n{j}" for j in range(4)),
                                values=rng.normal(size=new_feats.values.shape)))[0])
        models, bus = add_data_hospital(base.models, cfg, ds, new_party, run_seed=0)
        assert len(models) == len(base.models) + 1
        assert models[-1].provenance == "data-new"
        # exactly one protocol run for the one new party
        assert len(bus.messages_of_kind("frl_begin")) == 1
        # existing pair models were not retrained (same pre-fine-tune phi)
        np.testing.assert_array_equal(models[0].phi, base.models[0].phi)

    def test_schema_change_rejected(self):
        cfg = _tiny_config()
        ds = prepare_dataset(cfg)
        from vfkt.experiment import run_pipeline_once

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
            SyntheticSpec(n_task_samples=20, overlap_count=5,
                          data_features=(3, 3)).to_dict()))
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

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["sweep", "--config", "c.json", "--axis", "bogus",
                     "--values", "1"]) == 2
        capsys.readouterr()

    def test_report_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path)]) == 2
        capsys.readouterr()
