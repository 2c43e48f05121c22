"""Tests for pair-model training, attention, MI estimation, fine-tuning,
augmentation, and checkpoints."""

import tracemalloc

import numpy as np
import pytest

from vfkt.data import FeatureMatrix, OverlapIndex, standardize
from vfkt.frl import FederatedRepresentation
from vfkt.lkt import (
    LktConfig,
    _attention_backward,
    _attention_forward,
    _column_standardize,
    _critic_grads,
    _stack_pairs,
    apply_to_new_samples,
    augment,
    build_model,
    contrastive_loss,
    cross_attention,
    encoder_redundancy,
    lkt_finetune_contrastive,
    lkt_train,
    load_models,
    loss_and_grads,
    mine_estimate,
    save_models,
    train_mine,
)
from vfkt.numerics import DenseNet, softmax_rows


def _overlap(n):
    return OverlapIndex(
        overlapping_ids=tuple(f"o{i:03d}" for i in range(n)),
        task_rows=np.arange(n),
        data_rows=np.arange(n),
    )


def _fed(values):
    values = np.asarray(values, dtype=float)
    return FederatedRepresentation(matrix=values, method="fedsvd",
                                   overlap=_overlap(values.shape[0]))


def _feature_matrix(values, prefix="s"):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        ids=tuple(f"{prefix}{i:04d}" for i in range(values.shape[0])),
        columns=tuple(f"x{j}" for j in range(values.shape[1])),
        values=values,
    )


def _attention_weights(query, h_fed, phi):
    _, (_, _, e, inv, _) = _attention_forward(query, h_fed, phi)
    return e * inv


def _textbook_attention(query, keys, dz):
    """The readout ``softmax_rows(q @ K.T / sqrt(d)) @ K`` and its gradients
    with respect to the query and the keys, each n x m step spelled out."""
    scale = np.sqrt(keys.shape[1])
    p = softmax_rows(query @ keys.T / scale)
    d_p = dz @ keys.T
    d_scores = p * (d_p - np.sum(d_p * p, axis=1, keepdims=True))
    return p @ keys, d_scores @ keys / scale, p.T @ dz + d_scores.T @ query / scale


class TestAttention:
    def test_single_key_returns_that_key(self):
        # with one key row the softmax is exactly [1.0] regardless of query
        h_fed = np.array([[2.0, -1.0, 0.5]])
        phi = np.random.default_rng(0).normal(size=(3, 2))
        query = np.random.default_rng(1).normal(size=(4, 2))
        key = h_fed @ phi
        z = cross_attention(query, h_fed, phi)
        np.testing.assert_allclose(z, np.repeat(key, 4, axis=0), atol=1e-14)

    def test_weights_are_row_stochastic(self):
        rng = np.random.default_rng(2)
        attn = _attention_weights(rng.normal(size=(5, 3)),
                                  rng.normal(size=(7, 4)),
                                  rng.normal(size=(4, 3)))
        assert attn.shape == (5, 7)
        assert np.all(attn > 0)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)

    def test_output_in_convex_hull_of_keys(self):
        rng = np.random.default_rng(3)
        h_fed = rng.normal(size=(6, 4))
        phi = rng.normal(size=(4, 3))
        keys = h_fed @ phi
        z = cross_attention(rng.normal(size=(10, 3)), h_fed, phi)
        lo, hi = keys.min(axis=0), keys.max(axis=0)
        assert np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cross_attention(np.ones((2, 3)), np.ones((4, 5)), np.ones((5, 2)))

    @pytest.mark.parametrize("score_max", [10.0, 1e3])
    def test_matches_the_textbook_softmax(self, score_max):
        # 100 queries over 1200 keys, d=5, the query scaled so the largest
        # |score| is score_max; at 1e3 an unshifted exp would overflow
        rng = np.random.default_rng(5)
        query = rng.normal(size=(100, 5))
        h_fed = rng.normal(size=(1200, 3))
        phi = rng.normal(size=(3, 5))
        dz = rng.normal(size=(100, 5))
        keys = h_fed @ phi
        query *= score_max / (np.max(np.abs(query @ keys.T)) / np.sqrt(5))
        z, cache = _attention_forward(query, h_fed, phi)
        d_query, d_phi = _attention_backward(cache, dz, h_fed)
        z_ref, d_query_ref, d_keys_ref = _textbook_attention(query, keys, dz)
        for got, want in ((z, z_ref), (d_query, d_query_ref), (d_phi, h_fed.T @ d_keys_ref)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_softmax_runs_in_the_score_matrix(self):
        # one n x m array is the only array of that size made; the exp
        # overwrites the scores in place
        rng = np.random.default_rng(4)
        query = rng.normal(size=(2000, 5))
        h_fed = rng.normal(size=(1200, 3))
        phi = rng.normal(size=(3, 5))
        tracemalloc.start()
        try:
            cross_attention(query, h_fed, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2000 * 1200 * 8


class TestMine:
    def test_constant_critic_estimates_zero(self):
        net = DenseNet.create([4, 3, 1], ["linear", "linear"],
                              np.random.default_rng(0))
        for layer in net.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        rng = np.random.default_rng(1)
        est = mine_estimate(net, rng.normal(size=(20, 2)), rng.normal(size=(20, 2)), rng=0)
        assert est == 0.0

    def test_pairs_stack_joint_over_marginal_rows(self):
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
        expected = np.vstack([np.hstack([p, q]), np.hstack([p, np.roll(q, 2, axis=0)])])
        np.testing.assert_array_equal(_stack_pairs(p, q, 2), expected)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_critic_gradient_matches_finite_differences(self, activation):
        # the ascent step's gradient is that of the bound mine_estimate reads
        rng = np.random.default_rng(3)
        net = DenseNet.create([4, 5, 5, 1], [activation, activation, "linear"], rng)
        p, q = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        shift = int(np.random.default_rng(0).integers(1, 7))  # mine_estimate's, rng=0
        grads = _critic_grads(net, _stack_pairs(p, q, shift))
        h = 1e-6
        for layer, (dw, db) in zip(net.layers, grads, strict=True):
            for param, grad in ((layer.w, dw), (layer.b, db)):
                flat, g = param.reshape(-1), grad.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = mine_estimate(net, p, q, rng=0)
                    flat[k] = orig - h
                    down = mine_estimate(net, p, q, rng=0)
                    flat[k] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(fd - g[k]) <= 1e-6 * max(1.0, abs(fd)), (k, fd, g[k])

    def test_needs_two_samples(self):
        net = DenseNet.create([2, 1], ["linear"], np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2"):
            mine_estimate(net, np.ones((1, 1)), np.ones((1, 1)), rng=0)
        with pytest.raises(ValueError, match="row-aligned"):
            mine_estimate(net, np.ones((3, 1)), np.ones((2, 1)), rng=0)

    def test_correlated_gaussian_recovers_known_mi(self):
        # [DERIVED] oracle: for a bivariate Gaussian with correlation 0.8,
        # MI = -0.5*ln(1 - 0.8^2) = 0.5108256237659907 nats. The bound is a
        # lower bound, so accept [0.30, 0.52].
        rho = 0.8
        rng = np.random.default_rng(0)
        n = 2000
        x = rng.standard_normal(n)
        y = rho * x + np.sqrt(1 - rho**2) * rng.standard_normal(n)
        p, q = x.reshape(-1, 1), y.reshape(-1, 1)
        net = train_mine(p, q, steps=200, seed=1)
        est = float(np.mean([mine_estimate(net, p, q, rng=s) for s in range(32)]))
        assert 0.30 <= est <= 0.52

    def test_independent_gaussian_near_zero(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((2000, 1))
        q = rng.standard_normal((2000, 1))
        net = train_mine(p, q, steps=200, seed=1)
        est = float(np.mean([mine_estimate(net, p, q, rng=s) for s in range(32)]))
        assert abs(est) < 0.1


class TestLossAndGrads:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        cfg = LktConfig(latent_dim=3, hidden_width=4, mine_hidden=(4, 4),
                        mi_weight=0.3)
        model = build_model(n_nl=4, n_rec=4, n_fed=3, config=cfg, seed=seed,
                            provenance="pair-0", nl_columns=[f"x{j}" for j in range(4)],
                            recon_columns=[f"x{j}" for j in range(4)])
        x_nl = rng.normal(size=(5, 4))
        x_rec = rng.normal(size=(5, 4))
        h_fed = rng.normal(size=(6, 3))
        return model, x_nl, x_rec, h_fed

    def test_gradients_match_finite_differences(self):
        h = 1e-5
        for seed in range(10):
            model, x_nl, x_rec, h_fed = self._setup(seed)
            loss, _, grads = loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)

            def loss_at():
                return loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)[0]

            checks = [
                (model.enc.layers[0].w, grads["enc"][0][0]),
                (model.enc.layers[2].b, grads["enc"][2][1]),
                (model.dec.layers[0].w, grads["dec"][0][0]),
                (model.phi, grads["phi"]),
            ]
            for param, grad in checks:
                flat = param.reshape(-1)
                for k in range(0, flat.size, max(1, flat.size // 4)):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = loss_at()
                    flat[k] = orig - h
                    down = loss_at()
                    flat[k] = orig
                    fd = (up - down) / (2 * h)
                    an = grad.reshape(-1)[k]
                    denom = max(abs(fd), abs(an), 1e-6)
                    assert abs(fd - an) / denom < 1e-4, (seed, fd, an)

    def test_buffers_give_bit_identical_results(self):
        model, _, _, h_fed = self._setup(0)
        rng = np.random.default_rng(1)

        def leaves(grads):
            return [x for pair in grads["enc"] + grads["dec"] for x in pair] + [grads["phi"]]

        ws = {}
        for n in (5, 3, 5):  # the buffers are reshaped between batch sizes
            x_nl, x_rec = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
            loss, parts, grads = loss_and_grads(model, x_nl, x_rec, h_fed, shift=1)
            loss_ws, parts_ws, grads_ws = loss_and_grads(model, x_nl, x_rec, h_fed, shift=1, ws=ws)
            assert ws["attn"].shape == (n, h_fed.shape[0])
            assert (loss_ws, parts_ws) == (loss, parts)
            for a, b in zip(leaves(grads), leaves(grads_ws), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_loss_components_reported(self):
        model, x_nl, x_rec, h_fed = self._setup(0)
        loss, parts, _ = loss_and_grads(model, x_nl, x_rec, h_fed, shift=1)
        b0, b1 = model.weights
        assert loss == pytest.approx(b0 * parts["recons"] - b1 * parts["mi"])


class TestLktTrain:
    def test_plain_autoencoder_fits_low_rank_data(self):
        # [DERIVED] with the MI weight at zero the loss is pure
        # reconstruction; rank-3 noiseless data through a width-3 bottleneck
        # must reach near-zero mean squared error.
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 8))
        x, _ = standardize(_feature_matrix(raw))
        h_ol = _feature_matrix(x.values[:50], prefix="o")
        fed = _fed(np.linalg.svd(x.values[:50], full_matrices=False)[0][:, :3])
        cfg = LktConfig(latent_dim=3, mi_weight=0.0, epochs=1000,
                        learning_rate=5e-3, hidden_width=32,
                        reconstruction_source="local")
        model = lkt_train(h_ol, x, fed, cfg, seed=0)
        assert model.history["recons"][-1] < 0.05

    def test_mi_history_mostly_nondecreasing(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 8))
        raw += 0.1 * rng.normal(size=raw.shape)
        x, _ = standardize(_feature_matrix(raw))
        fed = _fed(np.linalg.svd(x.values[:60], full_matrices=False)[0][:, :4])
        h_ol = _feature_matrix(x.values[:60], prefix="o")
        cfg = LktConfig(latent_dim=4, mi_weight=0.5, epochs=40,
                        hidden_width=8, mine_hidden=(16, 16),
                        reconstruction_source="local")
        model = lkt_train(h_ol, x, fed, cfg, seed=0)
        mi = np.asarray(model.history["mi"])
        frac_up = float(np.mean(np.diff(mi) >= 0))
        assert frac_up >= 0.8
        assert mi[-1] > mi[0]

    def test_overlap_source_needs_matching_schema(self):
        rng = np.random.default_rng(1)
        x = _feature_matrix(rng.normal(size=(20, 4)))
        h_ol = FeatureMatrix(ids=tuple(f"o{i}" for i in range(5)),
                             columns=("a", "b"), values=rng.normal(size=(5, 2)))
        fed = _fed(rng.normal(size=(5, 3)))
        cfg = LktConfig(latent_dim=2, epochs=1, reconstruction_source="overlap")
        with pytest.raises(ValueError, match="matching column schemas"):
            lkt_train(h_ol, x, fed, cfg, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        x = _feature_matrix(rng.normal(size=(30, 4)))
        h_ol = _feature_matrix(rng.normal(size=(10, 4)), prefix="o")
        fed = _fed(rng.normal(size=(10, 3)))
        cfg = LktConfig(latent_dim=2, epochs=2, hidden_width=4, mine_hidden=(4, 4))
        m1 = lkt_train(h_ol, x, fed, cfg, seed=7)
        m2 = lkt_train(h_ol, x, fed, cfg, seed=7)
        np.testing.assert_array_equal(m1.enc.layers[0].w, m2.enc.layers[0].w)
        assert m1.history == m2.history


class TestConfig:
    def test_single_weight_mode(self):
        assert LktConfig(mi_weight=0.25).loss_weights() == (1.0, 0.25)

    def test_per_term_weights(self):
        assert LktConfig(beta_recons=2.0, beta_mi=0.5).loss_weights() == (2.0, 0.5)

    def test_betas_must_come_together(self):
        with pytest.raises(ValueError, match="together"):
            LktConfig(beta_recons=2.0).loss_weights()

    def test_default_latent_matches_input(self):
        cfg = LktConfig()
        model = build_model(n_nl=5, n_rec=5, n_fed=3, config=cfg, seed=0,
                            provenance="p", nl_columns=list("abcde"),
                            recon_columns=list("abcde"))
        assert model.latent_dim == 5
        assert model.phi.shape == (3, 5)


class TestFinetune:
    def _trained_pair(self, seed_a=0, seed_b=1):
        rng = np.random.default_rng(4)
        x = _feature_matrix(rng.normal(size=(40, 4)))
        h_ol = _feature_matrix(rng.normal(size=(10, 4)), prefix="o")
        feds = [_fed(rng.normal(size=(10, 3))), _fed(rng.normal(size=(10, 3)))]
        cfg = LktConfig(latent_dim=3, epochs=2, hidden_width=4, mine_hidden=(4, 4),
                        finetune_epochs=4, finetune_lr=1e-2)
        models = [lkt_train(h_ol, x, feds[0], cfg, seed=seed_a, provenance="pair-0"),
                  lkt_train(h_ol, x, feds[1], cfg, seed=seed_b, provenance="pair-1")]
        return models, x, feds, cfg

    def test_single_pair_loss_is_exact_zero(self):
        models, x, feds, cfg = self._trained_pair()
        t = cross_attention(models[0].enc.forward(x.values)[0],
                            feds[0].matrix, models[0].phi)
        assert contrastive_loss(models[:1], x.values, [t], 0) == 0.0

    def test_single_pair_finetune_is_a_no_op(self):
        models, x, feds, cfg = self._trained_pair()
        out = lkt_finetune_contrastive(models[:1], x, cfg, seed=0)
        assert out[0].history["contrastive"] == [0.0] * cfg.finetune_epochs
        np.testing.assert_array_equal(out[0].enc.layers[0].w,
                                      models[0].enc.layers[0].w)

    def test_inputs_left_untouched(self):
        models, x, feds, cfg = self._trained_pair()
        before = models[0].enc.layers[0].w.copy()
        lkt_finetune_contrastive(models, x, cfg, seed=0)
        np.testing.assert_array_equal(models[0].enc.layers[0].w, before)

    def test_finetune_decreases_loss_and_redundancy_of_clones(self):
        # clone seeds -> identical encoders -> redundancy 1; fine-tuning
        # against different readout targets must separate them
        models, x, feds, cfg = self._trained_pair(seed_a=0, seed_b=0)
        assert encoder_redundancy(models, x) == pytest.approx(1.0)
        out = lkt_finetune_contrastive(models, x, cfg, seed=0)
        hist = out[0].history["contrastive"]
        assert hist[-1] < hist[0]
        assert encoder_redundancy(out, x) < 1.0

    def test_keys_come_from_training_and_are_required(self):
        models, x, feds, cfg = self._trained_pair()
        for m, f in zip(models, feds):
            np.testing.assert_array_equal(m.keys, _column_standardize(f.matrix) @ m.phi)
        models[1].keys = None
        with pytest.raises(ValueError, match="'pair-1' has no attention keys"):
            lkt_finetune_contrastive(models, x, cfg, seed=0)

    def test_targets_are_read_in_batch_blocks(self):
        # 2000 rows over 1200 keys: each frozen target is read one batch of
        # rows at a time, so no 2000 x 1200 attention array is made
        rng = np.random.default_rng(6)
        x = _feature_matrix(rng.normal(size=(2000, 4)))
        cfg = LktConfig(latent_dim=3, hidden_width=4, mine_hidden=(4, 4), finetune_epochs=1)
        models = []
        for k in range(2):
            m = build_model(n_nl=4, n_rec=4, n_fed=3, config=cfg, seed=k,
                            provenance=f"pair-{k}", nl_columns=x.columns,
                            recon_columns=x.columns)
            m.keys = rng.normal(size=(1200, 3))
            models.append(m)
        tracemalloc.start()
        try:
            lkt_finetune_contrastive(models, x, cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 1200 * 8 / 4

    def test_redundancy_edge_cases(self):
        models, x, _, _ = self._trained_pair()
        assert encoder_redundancy(models[:1], x) == 0.0
        assert encoder_redundancy([models[0], models[0]], x) == pytest.approx(1.0)


class TestAugment:
    def _models(self, n_models=2):
        rng = np.random.default_rng(5)
        x = _feature_matrix(rng.normal(size=(12, 4)))
        cfg = LktConfig(latent_dim=2, hidden_width=3, mine_hidden=(3, 3))
        models = [
            build_model(4, 4, 5, cfg, seed=k, provenance=f"pair-{k}",
                        nl_columns=x.columns, recon_columns=x.columns)
            for k in range(n_models)
        ]
        return models, x

    def test_block_order_and_columns(self):
        models, x = self._models()
        aug = augment(models, x)
        assert aug.matrix.ids == x.ids
        assert aug.provenance == ("pair-0", "pair-1")
        assert aug.matrix.columns[:4] == x.columns
        assert aug.matrix.columns[4:] == (
            "pair-0:z0", "pair-0:z1", "pair-1:z0", "pair-1:z1")
        np.testing.assert_array_equal(aug.matrix.values[:, :4], x.values)
        np.testing.assert_array_equal(
            aug.matrix.values[:, 4:6], models[0].enc.forward(x.values)[0])

    def test_deterministic(self):
        models, x = self._models()
        a = augment(models, x)
        b = augment(models, x)
        np.testing.assert_array_equal(a.matrix.values, b.matrix.values)

    def test_width_mismatch(self):
        models, _ = self._models()
        bad = _feature_matrix(np.ones((3, 5)))
        with pytest.raises(ValueError, match="expects 4 columns"):
            augment(models, bad)

    def test_new_samples_schema_checked(self):
        models, x = self._models()
        renamed = FeatureMatrix(ids=("n0", "n1"), columns=("a", "b", "c", "d"),
                                values=np.ones((2, 4)))
        with pytest.raises(ValueError, match="schema mismatch"):
            apply_to_new_samples(models, renamed)

    def test_new_samples_match_augment(self):
        models, x = self._models()
        fresh = FeatureMatrix(ids=("n0", "n1"), columns=x.columns,
                              values=np.random.default_rng(6).normal(size=(2, 4)))
        out = apply_to_new_samples(models, fresh)
        np.testing.assert_array_equal(out.matrix.values,
                                      augment(models, fresh).matrix.values)


class TestCheckpoints:
    def _models(self):
        cfg = LktConfig(latent_dim=2, hidden_width=3, mine_hidden=(3, 3))
        models = [
            build_model(4, 4, 5, cfg, seed=k, provenance=f"pair-{k}",
                        nl_columns=("a", "b", "c", "d"),
                        recon_columns=("a", "b", "c", "d"))
            for k in range(2)
        ]
        for k, m in enumerate(models):
            m.keys = np.random.default_rng(10 + k).normal(size=(7, 2))
        return models

    def test_round_trip(self, tmp_path):
        models = self._models()
        path = tmp_path / "models.json"
        save_models(path, models, config_hash="abc123")
        loaded, h = load_models(path)
        assert h == "abc123"
        assert len(loaded) == 2
        x = np.random.default_rng(7).normal(size=(6, 4))
        for m, l in zip(models, loaded):
            np.testing.assert_array_equal(m.enc.forward(x)[0], l.enc.forward(x)[0])
            np.testing.assert_array_equal(m.phi, l.phi)
            np.testing.assert_array_equal(m.keys, l.keys)
            assert l.provenance == m.provenance
            assert l.nl_columns == m.nl_columns

    def test_rejects_schema_tampering(self, tmp_path):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        doc["models"][0]["nl_columns"] = ["a", "b", "c"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="encoder input width"):
            load_models(path)

    def test_rejects_unknown_version(self, tmp_path):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        doc["version"] = "v999"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_models(path)

    def test_keys_round_trip_to_the_bit(self, tmp_path):
        models = self._models()
        models[0].keys[:3] = [[1 / 3, -0.0], [5e-324, np.pi], [-1e308, 2.0 ** -52]]
        path = tmp_path / "models.json"
        save_models(path, models, config_hash="h")
        loaded, _ = load_models(path)
        for m, l in zip(models, loaded):
            assert l.keys.dtype == m.keys.dtype and l.keys.shape == m.keys.shape
            assert l.keys.tobytes() == m.keys.tobytes()

    def test_rejects_version_1(self, tmp_path):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        doc["version"] = 1
        for md in doc["models"]:
            del md["keys"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint version 1; this build reads version 2"):
            load_models(path)

    def test_model_without_keys_is_not_saved(self, tmp_path):
        models = self._models()
        models[1].keys = None
        with pytest.raises(ValueError, match="'pair-1' has no attention keys"):
            save_models(tmp_path / "models.json", models, config_hash="h")
