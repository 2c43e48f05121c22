"""End-to-end acceptance suite.

Each criterion is one test; each prints a single PASS/FAIL verdict line in
addition to the pytest outcome. The heavier criteria pin exact experiment
configurations so results are reproducible run to run.
"""

import json
import time

import numpy as np
import pytest

from vfkt.bus import MessageBus
from vfkt.data import FeatureMatrix, OverlapIndex, psi_intersect
from vfkt.downstream import train_classifier, evaluate
from vfkt.experiment import (
    DownstreamParams,
    ExperimentConfig,
    add_data_hospital,
    prepare_dataset,
    run_condition,
    run_experiment,
    run_pipeline_once,
    sweep,
)
from vfkt.frl import (
    EigenShare,
    fedsvd_keygen,
    fedsvd_mask,
    run_fedsvd,
    sample_gram,
    vfedpca_aggregate,
    vfedpca_local,
)
from vfkt.lkt import (
    LktConfig,
    LktModel,
    apply_to_new_samples,
    build_model,
    contrastive_loss,
    cross_attention,
    encoder_redundancy,
    lkt_finetune_contrastive,
    loss_and_grads,
    mine_estimate,
    train_mine,
)
from vfkt.numerics import DenseNet
from vfkt.synthetic import SyntheticSpec


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"CRITERION {num:02d} ({name}): {status}{suffix}")


def _overlap(n):
    return OverlapIndex(
        overlapping_ids=tuple(f"s{i:04d}" for i in range(n)),
        task_rows=np.arange(n),
        data_rows=np.arange(n),
    )


def _nl_rows(dataset):
    """The task party's non-overlapping partition (union of overlaps removed)."""
    union = set()
    for p in dataset.data_parties:
        union |= set(p.features.ids) & set(dataset.task.features.ids)
    nl_idx = [i for i, s in enumerate(dataset.task.features.ids) if s not in union]
    return dataset.task.features.select_rows(nl_idx)


def test_criterion_01_fedsvd_oracle_equivalence():
    t0 = time.perf_counter()
    max_factor_err = 0.0
    max_sv_err = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        parties = {"task": rng.normal(size=(200, 12)),
                   "data-0": rng.normal(size=(200, 8))}
        rep = run_fedsvd(MessageBus(), "task", parties, _overlap(200), seed=seed)
        raw = np.hstack([parties["task"], parties["data-0"]])
        u_ref, s_ref, _ = np.linalg.svd(raw, full_matrices=False)
        signs = np.sign(np.sum(rep.matrix * u_ref, axis=0))
        signs[signs == 0] = 1.0
        max_factor_err = max(max_factor_err,
                             float(np.linalg.norm(rep.matrix * signs - u_ref)))
        pairs = fedsvd_keygen(200, [12, 8], seed=seed)
        masked = np.hstack([fedsvd_mask(parties["task"], pairs[0]),
                            fedsvd_mask(parties["data-0"], pairs[1])])
        s_masked = np.sort(np.linalg.svd(masked, compute_uv=False))[::-1][:20]
        max_sv_err = max(max_sv_err, float(np.max(np.abs(s_masked - s_ref))))
    elapsed = time.perf_counter() - t0
    ok = max_factor_err < 1e-8 and max_sv_err < 1e-8 and elapsed < 5.0
    _verdict(1, "fedsvd oracle equivalence", ok,
             f"factor_err={max_factor_err:.2e} sv_err={max_sv_err:.2e} t={elapsed:.1f}s")
    assert max_factor_err < 1e-8
    assert max_sv_err < 1e-8
    assert elapsed < 5.0


def test_criterion_02_vfedpca_eigenpair():
    # well-separated spectrum: H = U diag(s) V^T with s = (6, 2, 1, 0.5)
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(30, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(10, 4)))
    h = u @ np.diag([6.0, 2.0, 1.0, 0.5]) @ v[:, :4].T
    init = rng.standard_normal(30)
    init /= np.linalg.norm(init)
    share = vfedpca_local(h, iters=100, init=init)
    w, vecs = np.linalg.eigh(sample_gram(h))
    angular_err = float(np.arccos(min(1.0, abs(share.vector @ vecs[:, -1]))))

    # eigenvalue-weighted aggregation: hand case (2, 3) -> weights (0.4, 0.6)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    agg = vfedpca_aggregate([EigenShare(e1, 2.0), EigenShare(e2, 3.0)])
    weights_exact = bool(np.array_equal(agg, np.array([0.4, 0.6])))
    prob_vector = agg.sum() == 1.0

    ok = angular_err < 1e-6 and weights_exact and prob_vector
    _verdict(2, "vfedpca dominant eigenpair", ok,
             f"angular_err={angular_err:.2e} weights={agg.tolist()}")
    assert angular_err < 1e-6
    assert weights_exact and prob_vector


def test_criterion_03_mine_analytic():
    t0 = time.perf_counter()
    rho = 0.8
    rng = np.random.default_rng(0)
    n = 2000
    x = rng.standard_normal(n)
    y = rho * x + np.sqrt(1 - rho**2) * rng.standard_normal(n)
    p, q = x.reshape(-1, 1), y.reshape(-1, 1)
    net = train_mine(p, q, steps=2000, seed=1)
    # average the bound over random marginal shifts to damp eval variance
    est = float(np.mean([mine_estimate(net, p, q, rng=s) for s in range(32)]))

    pi = rng.standard_normal((n, 1))
    qi = rng.standard_normal((n, 1))
    net_i = train_mine(pi, qi, steps=2000, seed=1)
    est_i = float(np.mean([mine_estimate(net_i, pi, qi, rng=s) for s in range(32)]))
    elapsed = time.perf_counter() - t0

    ok = 0.30 <= est <= 0.52 and abs(est_i) < 0.1 and elapsed < 30.0
    _verdict(3, "mine analytic check", ok,
             f"corr={est:.4f} (true 0.5108) indep={est_i:.4f} t={elapsed:.1f}s")
    assert 0.30 <= est <= 0.52
    assert abs(est_i) < 0.1
    assert elapsed < 30.0


def test_criterion_04_gradient_integrity(layer_grads):
    h = 1e-5
    failures = 0
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cfg = LktConfig(latent_dim=3, hidden_width=4, mine_hidden=(4, 4),
                        mi_weight=0.3)
        model = build_model(n_nl=4, n_rec=4, n_fed=3, config=cfg, seed=seed)
        x_nl = rng.normal(size=(4, 4))
        x_rec = rng.normal(size=(4, 4))
        h_fed = rng.normal(size=(6, 3))
        _, _, grads = loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)
        enc, dec = layer_grads(model.enc, grads["enc"]), layer_grads(model.dec, grads["dec"])
        checks = [
            (model.enc.layers[0].w, enc[0][0]),
            (model.enc.layers[2].b, enc[2][1]),
            (model.dec.layers[0].w, dec[0][0]),
            (model.dec.layers[2].b, dec[2][1]),
            (model.phi, grads["phi"]),
        ]
        for param, grad in checks:
            flat = param.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)[0]
                flat[k] = orig - h
                down = loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)[0]
                flat[k] = orig
                fd = (up - down) / (2 * h)
                an = grad.reshape(-1)[k]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                worst = max(worst, rel)
                if rel >= 1e-4:
                    failures += 1
    ok = failures == 0
    _verdict(4, "gradient integrity", ok,
             f"failures={failures} worst_rel={worst:.2e}")
    assert failures == 0


def _lift_config(task_features: int) -> ExperimentConfig:
    return ExperimentConfig(
        synthetic=SyntheticSpec(
            task_features=task_features, n_task_samples=800, overlap_count=150,
            latent_dim=5, label_coords=5, task_signal=0.4,
            data_features=(10, 10, 10), noise=1.2, seed=0),
        lkt=LktConfig(latent_dim=10, mine_hidden=(32, 32),
                      reconstruction_source="local", epochs=150,
                      hidden_width=20, mi_weight=0.5),
        downstream=DownstreamParams(model="logistic", n_seeds=10,
                                    few_shot_fraction=0.05),
        conditions=("local", "unitrans"),
        seed=0,
    )


def test_criterion_05_transfer_lift():
    t0 = time.perf_counter()
    sweep_points = (24, 48, 64)
    gaps = []
    for tf in sweep_points:
        cfg = _lift_config(tf)
        dataset = prepare_dataset(cfg)
        rep_local, _ = run_condition(cfg, "local", dataset)
        rep_uni, _ = run_condition(cfg, "unitrans", dataset)
        gaps.append(rep_uni.mean - rep_local.mean)
    elapsed = time.perf_counter() - t0
    slope = float(np.polyfit(sweep_points, gaps, 1)[0])

    lift_ok = gaps[0] >= 0.02
    # "shrinks monotonically on average": negative least-squares trend and
    # the smallest-task-view point shows the largest gap
    trend_ok = slope < 0 and gaps[0] == max(gaps)
    time_ok = elapsed < 300.0
    ok = lift_ok and trend_ok and time_ok
    _verdict(5, "transfer lift", ok,
             f"gaps={[round(g, 4) for g in gaps]} slope={slope:.2e} t={elapsed:.0f}s")
    assert lift_ok, f"lift {gaps[0]:.4f} < 0.02"
    assert trend_ok, f"gaps {gaps} do not shrink on average (slope {slope:.2e})"
    assert time_ok


def test_criterion_06_ablation_directions():
    # MI ablation: label signal sits in latent coordinates the task view
    # carries only weakly, so the MI term should earn its keep
    cfg_mi = ExperimentConfig(
        synthetic=SyntheticSpec(
            task_features=24, n_task_samples=800, overlap_count=150,
            latent_dim=5, label_coords=3, task_signal=0.3,
            data_features=(10, 10, 10), noise=1.2, seed=0),
        lkt=LktConfig(latent_dim=5, mine_hidden=(32, 32),
                      reconstruction_source="local", epochs=250,
                      hidden_width=16, mi_weight=0.5),
        downstream=DownstreamParams(model="logistic", n_seeds=10,
                                    few_shot_fraction=0.05),
        conditions=("unitrans", "ablation-no-mi"),
        seed=0,
    )
    ds_mi = prepare_dataset(cfg_mi)
    rep_uni, _ = run_condition(cfg_mi, "unitrans", ds_mi)
    rep_nomi, _ = run_condition(cfg_mi, "ablation-no-mi", ds_mi)
    mi_ok = rep_uni.mean >= rep_nomi.mean

    # contrastive ablation: 5 redundant hospitals expose the same view, so
    # without the contrastive phase the encoder blocks stay near-duplicates
    cfg_cl = ExperimentConfig(
        synthetic=SyntheticSpec(
            task_features=12, n_task_samples=400, overlap_count=120,
            latent_dim=5, label_coords=3, task_signal=0.3,
            data_features=(8, 8, 8, 8, 8), noise=0.8,
            redundant_hospitals=True, seed=0),
        lkt=LktConfig(latent_dim=5, mine_hidden=(32, 32),
                      reconstruction_source="local", epochs=60,
                      hidden_width=12, mi_weight=0.1,
                      finetune_epochs=30, finetune_lr=5e-3),
        downstream=DownstreamParams(model="logistic", n_seeds=10),
        conditions=("unitrans", "ablation-no-cl"),
        seed=0,
    )
    ds_cl = prepare_dataset(cfg_cl)
    rep_with, res_with = run_condition(cfg_cl, "unitrans", ds_cl)
    rep_without, res_without = run_condition(cfg_cl, "ablation-no-cl", ds_cl)
    h_nl = _nl_rows(ds_cl)
    red_with = [encoder_redundancy(r.models, h_nl) for r in res_with]
    red_without = [encoder_redundancy(r.models, h_nl) for r in res_without]
    decreases = sum(a < b for a, b in zip(red_with, red_without))

    cl_acc_ok = rep_with.mean >= rep_without.mean
    cl_red_ok = decreases == len(red_with)
    ok = mi_ok and cl_acc_ok and cl_red_ok
    _verdict(6, "ablation directions", ok,
             f"mi: {rep_uni.mean:.4f} vs {rep_nomi.mean:.4f}; "
             f"cl acc: {rep_with.mean:.4f} vs {rep_without.mean:.4f}; "
             f"redundancy strict decreases {decreases}/{len(red_with)}")
    assert mi_ok, f"unitrans {rep_uni.mean:.4f} < ablation-no-mi {rep_nomi.mean:.4f}"
    assert cl_acc_ok, (
        f"with-cl {rep_with.mean:.4f} < without-cl {rep_without.mean:.4f}")
    assert cl_red_ok, f"redundancy decreased in only {decreases}/{len(red_with)} seeds"


def test_criterion_07_exact_identities():
    rng = np.random.default_rng(0)
    cfg = LktConfig(latent_dim=3, hidden_width=4, mine_hidden=(4, 4))
    model = build_model(4, 4, 5, cfg, seed=0)
    x = rng.normal(size=(6, 4))
    target = cross_attention(model.enc.forward(x)[0],
                             rng.normal(size=(6, 5)), model.phi)
    # contrastive_loss reads trained pair models: the encoder and the temperature
    pair_model = LktModel(enc=model.enc, keys=target, temperature=cfg.temperature,
                          provenance="p", nl_columns=tuple("abcd"))
    cl_zero = contrastive_loss([pair_model], x, [target], 0) == 0.0

    critic = DenseNet.create([4, 3, 1], ["linear", "linear"],
                             np.random.default_rng(1))
    for layer in critic.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    mine_zero = mine_estimate(critic, rng.normal(size=(10, 2)),
                              rng.normal(size=(10, 2)), rng=0) == 0.0

    h_fed = rng.normal(size=(1, 5))  # single overlapping sample
    phi = rng.normal(size=(5, 3))
    z = cross_attention(rng.normal(size=(4, 3)), h_fed, phi)
    attn_err = float(np.max(np.abs(z - h_fed @ phi)))
    attn_ok = attn_err < 1e-12

    ok = cl_zero and mine_zero and attn_ok
    _verdict(7, "exact algebraic identities", ok,
             f"cl_zero={cl_zero} mine_zero={mine_zero} attn_err={attn_err:.1e}")
    assert cl_zero and mine_zero and attn_ok


def _small_pipeline_config(**overrides) -> ExperimentConfig:
    base = dict(
        synthetic=SyntheticSpec(
            task_features=8, n_task_samples=300, overlap_count=100,
            latent_dim=4, label_coords=2, task_signal=0.4,
            data_features=(6,), noise=0.5, seed=0),
        lkt=LktConfig(latent_dim=4, epochs=20, hidden_width=8,
                      mine_hidden=(16, 16), mi_weight=0.1),
        downstream=DownstreamParams(model="logistic", n_seeds=2),
        conditions=("local", "unitrans"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_08_scalability_shape():
    cfg = _small_pipeline_config(conditions=("unitrans",))
    values = [1, 3, 5, 7]
    _, timings = sweep(cfg, "num_data_hospitals", values)
    times = np.array([t["wall_clock_s"] for t in timings])
    xs = np.array(values, dtype=float)
    coeffs = np.polyfit(xs, times, 1)
    pred = np.polyval(coeffs, xs)
    ss_res = float(np.sum((times - pred) ** 2))
    ss_tot = float(np.sum((times - times.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    ok = r2 > 0.9
    _verdict(8, "scalability shape", ok,
             f"r2={r2:.4f} times={[round(t, 2) for t in times.tolist()]}")
    assert r2 > 0.9


def test_criterion_09_updating_contracts():
    cfg = _small_pipeline_config()
    dataset = prepare_dataset(cfg)
    base = run_pipeline_once(cfg, "unitrans", dataset, run_seed=0)
    trace_len = len(base.bus.trace)

    # applying trained encoders to unseen rows is purely local
    fresh = FeatureMatrix(
        ids=("n0", "n1", "n2"),
        columns=dataset.task.features.columns,
        values=np.random.default_rng(1).normal(size=(3, 8)))
    aug = apply_to_new_samples(base.models, fresh)
    # so is re-running the fine-tune phase against the stored attention keys
    lkt_finetune_contrastive(base.models * 2, _nl_rows(dataset), cfg.lkt, seed=0)
    local_ok = len(base.bus.trace) == trace_len and aug.matrix.n_rows == 3

    # adding one hospital runs exactly one new protocol execution
    rng = np.random.default_rng(2)
    new_party_feats = FeatureMatrix(
        ids=dataset.data_parties[0].features.ids,
        columns=tuple(f"n{j}" for j in range(6)),
        values=rng.normal(size=(100, 6)))
    from vfkt.data import PartyState

    _, bus = add_data_hospital(base.models, cfg, dataset,
                               PartyState(party_id="data-new", role="data",
                                          features=new_party_feats),
                               run_seed=0)
    begins = len(bus.messages_of_kind("frl_begin"))
    add_ok = begins == 1
    ok = local_ok and add_ok
    _verdict(9, "updating contracts", ok,
             f"local_messages_added={len(base.bus.trace) - trace_len} "
             f"frl_begins={begins}")
    assert local_ok
    assert add_ok


def test_criterion_10_determinism(tmp_path):
    cfg = _small_pipeline_config()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=out1)
    run_experiment(cfg, out_dir=out2)
    names = ["report_local.json", "report_unitrans.json",
             "config.json", "trace.jsonl", "models.json"]
    identical = {n: (out1 / n).read_bytes() == (out2 / n).read_bytes()
                 for n in names}
    ok = all(identical.values())
    _verdict(10, "determinism", ok,
             "byte-identical" if ok else f"mismatch: {[n for n, v in identical.items() if not v]}")
    assert ok
    # the persisted reports parse back to the same accuracies
    doc = json.loads((out1 / "report_unitrans.json").read_text())
    assert doc["wall_clock_s"] is None
