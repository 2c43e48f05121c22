"""Tests for pair-model training, attention, MI estimation, fine-tuning,
augmentation, and checkpoints."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vfkt import lkt
from vfkt.data import ConfigError, FeatureMatrix, OverlapIndex, standardize, standardize_columns
from vfkt.frl import FederatedRepresentation
from vfkt.lkt import (
    LktConfig,
    LktDivergenceError,
    LktModel,
    _attend,
    _attention_backward,
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


def _pair_model(k, cfg, columns, n_keys):
    """An untrained pair model: ``build_model``'s encoder over ``columns``,
    with random attention keys."""
    pair = build_model(len(columns), len(columns), 5, cfg, seed=k)
    keys = np.random.default_rng(10 + k).normal(size=(n_keys, pair.enc.output_dim))
    return LktModel(enc=pair.enc, keys=keys, temperature=cfg.temperature,
                    provenance=f"pair-{k}", nl_columns=tuple(columns))


def _train_one(h_t_ol, h_t_nl, h_fed, config, seed, provenance="pair-0"):
    """``lkt_train`` on one pair: a stack of one."""
    (model,) = lkt_train([h_t_ol], h_t_nl, [h_fed], config, [seed], [provenance])
    return model


def _reference_step(pair, x_nl, x_rec, h_fed, shift):
    """The full transfer step on one unstacked pair, the MI branch included
    at any weight: (loss, {"recons", "mi"}, grads), every product 2-D."""
    d, n = pair.enc.output_dim, x_nl.shape[0]
    e_nl, cache_nl = pair.enc.forward(x_nl)
    z, attn_cache = _attend(e_nl, h_fed @ pair.phi)
    e_rec, cache_rec = pair.enc.forward(x_rec)
    recon, cache_dec = pair.dec.forward(e_rec)
    l_rec = float(np.mean((recon - x_rec) ** 2))
    t, cache_c = pair.mine.forward(_stack_pairs(e_nl, z, shift))
    l_mi = float(np.mean(t[:n])) - float(lkt.logmeanexp(t[n:, 0]))
    dec_grads, d_e_rec = pair.dec.backward(cache_dec, 2.0 * (recon - x_rec) / recon.size)
    enc_grads_rec, _ = pair.enc.backward(cache_rec, d_e_rec, inputs=False)
    upstream = np.full_like(t, 1.0 / n)
    upstream[n:, 0] = -softmax_rows(t[n:, 0])
    _, d_c = pair.mine.backward(cache_c, -pair.mi_weight * upstream, params=False)
    d_z = d_c[:n, d:] + np.roll(d_c[n:, d:], -shift, axis=0)
    d_query, d_phi = _attention_backward(attn_cache, d_z, h_fed)
    enc_grads_nl, _ = pair.enc.backward(cache_nl, d_c[:n, :d] + d_c[n:, :d] + d_query,
                                        inputs=False)
    return l_rec - pair.mi_weight * l_mi, {"recons": l_rec, "mi": l_mi}, {
        "enc": enc_grads_rec + enc_grads_nl, "dec": dec_grads, "phi": d_phi}


def _reference_train(h_t_ol, h_t_nl, h_fed, config, seed, provenance="pair-0"):
    """The per-pair loop that ``lkt_train`` must match bit for bit, row by
    row: one pair, its networks and its batches drawn from its own seed, and
    at every weight the full step and one critic step per batch."""
    same_schema = h_t_ol.columns == h_t_nl.columns
    source = config.reconstruction_source
    if source == "auto":
        source = "overlap" if same_schema else "local"
    rec = h_t_ol if source == "overlap" else h_t_nl
    x_nl = h_t_nl.values
    fed = standardize_columns(h_fed.matrix)[0]
    pair = build_model(h_t_nl.n_cols, rec.n_cols, fed.shape[1], config, seed)
    enc_adam, dec_adam, mine_adam = (net.adam_state() for net in (pair.enc, pair.dec, pair.mine))
    phi_adam = lkt.AdamState.like(pair.phi)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    history = {"loss": [], "recons": [], "mi": []}
    for epoch in range(config.epochs):
        totals, n_batches = dict.fromkeys(history, 0.0), 0
        rec_perm = rng.permutation(rec.n_rows)
        rec_cursor = 0
        for idx in lkt._batches(x_nl.shape[0], config.batch_size, rng):
            if idx.size < 2:
                continue
            xb = x_nl[idx]
            rec_idx = rec_perm[(rec_cursor + np.arange(idx.size)) % rec.n_rows]
            rec_cursor += idx.size
            shift = int(rng.integers(1, idx.size))
            loss, parts, grads = _reference_step(pair, xb, rec.values[rec_idx], fed, shift)
            if not np.isfinite(loss):
                raise LktDivergenceError(seed, epoch)
            pair.enc.adam_step(enc_adam, grads["enc"], config.learning_rate)
            pair.dec.adam_step(dec_adam, grads["dec"], config.learning_rate)
            pair.phi = phi_adam.update(pair.phi, grads["phi"], config.learning_rate)
            e_nl, _ = pair.enc.forward(xb)
            z, _ = _attend(e_nl, fed @ pair.phi)
            pair.mine.adam_step(mine_adam, _critic_grads(pair.mine, _stack_pairs(e_nl, z, shift)),
                                config.learning_rate)
            for key, value in {"loss": loss, **parts}.items():
                totals[key] += value
            n_batches += 1
        for key, total in totals.items():
            history[key].append(total / n_batches)
    return LktModel(enc=pair.enc, keys=fed @ pair.phi, temperature=config.temperature,
                    provenance=provenance, nl_columns=h_t_nl.columns, history=history)


def _trained_pairs(monkeypatch):
    """The ``TrainingPair`` that ``build_model`` draws for each pair from here
    on; a one-pair ``lkt_train`` steps it itself, so it ends trained."""
    pairs = []
    real_build = lkt.build_model

    def build(*args, **kwargs):
        pairs.append(real_build(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(lkt, "build_model", build)
    return pairs


def _reference_finetune(models, h_t_nl, config, seed):
    """The per-model loop that ``lkt_finetune_contrastive`` must match bit
    for bit: per batch, one forward pass, one backward pass and one Adam
    step per encoder, with the 2-D cosine and softmax spelled out."""
    tau = lkt.contrastive_temperature(m.temperature for m in models)
    models = [m.copy() for m in models]
    x = h_t_nl.values
    targets = [lkt._readout(m, x, config.batch_size) for m in models]
    rng = np.random.default_rng(seed)
    adams = [m.enc.adam_state() for m in models]
    losses = []
    for _ in range(config.finetune_epochs):
        ep_loss, n_batches = 0.0, 0
        for idx in lkt._batches(x.shape[0], config.batch_size, rng):
            sims, grads_e, caches = [], [], []
            for m, t in zip(models, targets):
                e, cache = m.enc.forward(x[idx])
                z = t[idx]
                en = np.linalg.norm(e, axis=1) + 1e-12
                zn = np.linalg.norm(z, axis=1) + 1e-12
                dots = np.sum(e * z, axis=1)
                sims.append(float(np.mean(dots / (en * zn))))
                grads_e.append((z / (en * zn)[:, None]
                                - (dots / (en ** 3 * zn))[:, None] * e) / e.shape[0])
                caches.append(cache)
            p = softmax_rows(np.asarray(sims).reshape(1, -1) / tau).ravel()
            for m, adam, cache, g, p_i in zip(models, adams, caches, grads_e, p):
                grads, _ = m.enc.backward(cache, (p_i - 1.0) / tau * g, inputs=False)
                m.enc.adam_step(adam, grads, config.finetune_lr)
            ep_loss += sum(-np.log(max(p_i, 1e-300)) for p_i in p) / len(models)
            n_batches += 1
        losses.append(ep_loss / max(n_batches, 1))
    for m in models:
        m.history = {**m.history, "contrastive": list(losses)}
    return models


def _attention_weights(query, h_fed, phi):
    _, (_, _, e, inv, _) = _attend(query, h_fed @ phi)
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
        z, cache = _attend(query, h_fed @ phi)
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
    def test_critic_gradient_matches_finite_differences(self, activation, layer_grads):
        # the critic descends -DV: its gradient is minus that of the bound
        # mine_estimate reads
        rng = np.random.default_rng(3)
        net = DenseNet.create([4, 5, 5, 1], [activation, activation, "linear"], rng)
        p, q = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        shift = int(np.random.default_rng(0).integers(1, 7))  # mine_estimate's, rng=0
        critic_grad = _critic_grads(net, _stack_pairs(p, q, shift))
        assert critic_grad.shape == net.params.shape
        h = 1e-6
        for layer, (dw, db) in zip(net.layers, layer_grads(net, critic_grad), strict=True):
            for param, grad in ((layer.w, dw), (layer.b, db)):
                flat, g = param.reshape(-1), grad.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = mine_estimate(net, p, q, rng=0)
                    flat[k] = orig - h
                    down = mine_estimate(net, p, q, rng=0)
                    flat[k] = orig
                    fd = -(up - down) / (2 * h)
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
        model = build_model(n_nl=4, n_rec=4, n_fed=3, config=cfg, seed=seed)
        x_nl = rng.normal(size=(5, 4))
        x_rec = rng.normal(size=(5, 4))
        h_fed = rng.normal(size=(6, 3))
        return model, x_nl, x_rec, h_fed

    def test_gradients_match_finite_differences(self, layer_grads):
        h = 1e-5
        for seed in range(10):
            model, x_nl, x_rec, h_fed = self._setup(seed)
            loss, _, grads = loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)

            def loss_at():
                return loss_and_grads(model, x_nl, x_rec, h_fed, shift=2)[0]

            enc, dec = layer_grads(model.enc, grads["enc"]), layer_grads(model.dec, grads["dec"])
            checks = [
                (model.enc.layers[0].w, enc[0][0]),
                (model.enc.layers[2].b, enc[2][1]),
                (model.dec.layers[0].w, dec[0][0]),
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

        ws = {}
        for n in (5, 3, 5):  # the buffers are reshaped between batch sizes
            x_nl, x_rec = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
            loss, parts, grads = loss_and_grads(model, x_nl, x_rec, h_fed, shift=1)
            loss_ws, parts_ws, grads_ws = loss_and_grads(model, x_nl, x_rec, h_fed, shift=1, ws=ws)
            assert ws["attn"].shape == (n, h_fed.shape[0])
            assert (loss_ws, parts_ws) == (loss, parts)
            assert grads.keys() == grads_ws.keys() == {"enc", "dec", "phi"}
            for key, grad in grads.items():
                assert grad.tobytes() == grads_ws[key].tobytes()

    def test_loss_components_reported(self):
        model, x_nl, x_rec, h_fed = self._setup(0)
        loss, parts, _ = loss_and_grads(model, x_nl, x_rec, h_fed, shift=1)
        assert loss == pytest.approx(parts["recons"] - model.mi_weight * parts["mi"])


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
        model = _train_one(h_ol, x, fed, cfg, seed=0)
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
        model = _train_one(h_ol, x, fed, cfg, seed=0)
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
            _train_one(h_ol, x, fed, cfg, seed=0)
        # equal widths are not a matching schema: the column names must match
        renamed = FeatureMatrix(ids=h_ol.ids[:4], columns=("y0", "y1", "y2", "y3"),
                                values=rng.normal(size=(4, 4)))
        with pytest.raises(ValueError, match="matching column schemas"):
            _train_one(renamed, x, fed, cfg, seed=0)
        # ... so auto reconstructs the local rows, exactly as local does
        auto, local = (_train_one(renamed, x, fed, replace(cfg, reconstruction_source=source),
                                  seed=0) for source in ("auto", "local"))
        assert auto.enc.layout == local.enc.layout
        assert auto.enc.params.tobytes() == local.enc.params.tobytes()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        x = _feature_matrix(rng.normal(size=(30, 4)))
        h_ol = _feature_matrix(rng.normal(size=(10, 4)), prefix="o")
        fed = _fed(rng.normal(size=(10, 3)))
        cfg = LktConfig(latent_dim=2, epochs=2, hidden_width=4, mine_hidden=(4, 4))
        m1 = _train_one(h_ol, x, fed, cfg, seed=7)
        m2 = _train_one(h_ol, x, fed, cfg, seed=7)
        np.testing.assert_array_equal(m1.enc.layers[0].w, m2.enc.layers[0].w)
        assert m1.history == m2.history

    @staticmethod
    def _tables(n_rows):
        rng = np.random.default_rng(2)
        x = _feature_matrix(rng.normal(size=(n_rows, 4)))
        h_ol = _feature_matrix(rng.normal(size=(10, 4)), prefix="o")
        cfg = LktConfig(latent_dim=2, epochs=3, hidden_width=4, mine_hidden=(4, 4),
                        batch_size=10)
        return x, h_ol, _fed(rng.normal(size=(10, 3))), cfg

    def test_a_last_batch_of_one_row_is_skipped(self, monkeypatch):
        # 21 rows in batches of 10: the 1-row batch has no marginal pair
        sizes = []
        real = lkt.loss_and_grads

        def counted(pair, x_nl, *args, **kwargs):
            sizes.append(x_nl.shape[-2])
            return real(pair, x_nl, *args, **kwargs)

        monkeypatch.setattr(lkt, "loss_and_grads", counted)
        x, h_ol, fed, cfg = self._tables(21)
        model = _train_one(h_ol, x, fed, cfg, seed=0)
        assert sizes == [10, 10] * cfg.epochs
        assert {k: len(v) for k, v in model.history.items()} == dict.fromkeys(
            ("loss", "recons", "mi"), cfg.epochs)

    def test_a_single_row_gives_no_usable_batch(self):
        x, h_ol, fed, cfg = self._tables(1)
        with pytest.raises(ValueError, match="^batch size produced no usable batches$"):
            _train_one(h_ol, x, fed, cfg, seed=0)

    def test_a_diverging_loss_is_an_error(self):
        # with float errors ignored, the overflow reaches the finite-loss
        # check instead of surfacing first as a RuntimeWarning
        rng = np.random.default_rng(2)
        x = _feature_matrix(1e200 * rng.normal(size=(30, 4)))
        h_ol = _feature_matrix(rng.normal(size=(10, 4)), prefix="o")
        fed = _fed(rng.normal(size=(10, 3)))
        cfg = LktConfig(latent_dim=2, epochs=2, hidden_width=4, mine_hidden=(4, 4),
                        reconstruction_source="local")
        with np.errstate(all="ignore"), pytest.raises(LktDivergenceError) as exc:
            _train_one(h_ol, x, fed, cfg, seed=7, provenance="p")
        assert str(exc.value) == "training diverged (loss not finite) at epoch 0, seed 7"
        assert (exc.value.seed, exc.value.epoch, exc.value.provenance) == (7, 0, "p")


class TestLktStack:
    """``lkt_train`` steps K pairs as one stack, each bit for bit the pair
    that the per-pair loop trains."""

    @staticmethod
    def _pairs(k_pairs, n_rows=43, n_overlap=12, n_fed=5, big=None):
        """Shared non-overlap rows and, per pair, an overlap table of the same
        columns and a federated representation; ``big`` maps a pair to the
        overlap row set to 1e200, whose reconstruction overflows."""
        rng = np.random.default_rng(8)
        x = _feature_matrix(rng.normal(size=(n_rows, 4)))
        ols = [_feature_matrix(rng.normal(size=(n_overlap, 4)), prefix=f"o{k}_")
               for k in range(k_pairs)]
        for k, row in (big or {}).items():
            values = ols[k].values.copy()
            values[row] = 1e200
            ols[k] = replace(ols[k], values=values)
        feds = [_fed(rng.normal(size=(n_overlap, n_fed))) for _ in range(k_pairs)]
        return ols, x, feds

    @staticmethod
    def _cfg(**edit):
        return replace(LktConfig(latent_dim=3, hidden_width=5, mine_hidden=(6, 6),
                                 batch_size=10, epochs=3, mi_weight=0.4), **edit)

    @staticmethod
    def _same(got, want):
        assert got.enc.params.tobytes() == want.enc.params.tobytes()
        assert got.keys.tobytes() == want.keys.tobytes()
        assert (got.provenance, got.nl_columns) == (want.provenance, want.nl_columns)
        assert got.history == {k: v for k, v in want.history.items() if k in got.history}

    @pytest.mark.parametrize("k_pairs, source, seeds, weight", [
        (1, "local", [4], 0.4),
        (2, "local", [4, 4], 0.4),
        (5, "local", [4] * 5, 0.4),
        (2, "overlap", [4, 4], 0.4),
        (5, "overlap", [4] * 5, 0.4),
        (5, "local", [3, 9, 3, 0, 12], 0.4),
        (3, "overlap", [3, 9, 1], 0.4),
        (1, "local", [4], 0.0),
        (3, "overlap", [4, 7, 4], 0.0),
    ], ids=["K1", "K2", "K5", "K2-overlap", "K5-overlap", "K5-own-seeds",
            "K3-overlap-own-seeds", "K1-weight-0", "K3-weight-0"])
    def test_matches_the_per_pair_loop_bit_for_bit(self, k_pairs, source, seeds, weight):
        # 43 rows in batches of 10: the last batch of 3 takes a step, and the
        # 12 overlap rows are cycled through within an epoch
        ols, x, feds = self._pairs(k_pairs)
        cfg = self._cfg(reconstruction_source=source, mi_weight=weight)
        names = [f"p{k}" for k in range(k_pairs)]
        got = lkt_train(ols, x, feds, cfg, seeds, names)
        want = [_reference_train(o, x, f, cfg, s, name)
                for o, f, s, name in zip(ols, feds, seeds, names)]
        assert len(got) == k_pairs
        for g, w in zip(got, want):
            self._same(g, w)
            assert set(g.history) == ({"loss", "recons", "mi"} if weight else {"loss", "recons"})
        drawn = build_model(4, 4, 5, cfg, seeds[0])
        assert want[0].enc.params.tobytes() != drawn.enc.params.tobytes()

    def test_weight_0_runs_no_critic(self, monkeypatch):
        # the critic is drawn, so every later draw is where the full step
        # has it, but no pass runs through it and it takes no step
        ols, x, feds = self._pairs(3)
        cfg = self._cfg(mi_weight=0.0)
        pairs = _trained_pairs(monkeypatch)
        widths = []  # the output width of every net a forward pass runs through
        real_forward = DenseNet.forward
        monkeypatch.setattr(DenseNet, "forward", lambda net, *a, **k: (
            widths.append(net.output_dim) or real_forward(net, *a, **k)))
        monkeypatch.setattr(lkt, "_mine_ascent", None)
        for k_pairs in (3, 1):
            widths.clear()
            lkt_train(ols[:k_pairs], x, feds[:k_pairs], cfg, [0, 0, 1][:k_pairs])
            assert sorted(set(widths)) == [3, 4]  # the encoders and the decoders
        # a one-pair training steps its pair: the critic it drew never moved
        assert [p.mine.output_dim for p in pairs] == [1] * 4
        drawn = build_model(4, 4, 5, cfg, 0)
        assert pairs[-1].mine.params.tobytes() == drawn.mine.params.tobytes()
        assert pairs[-1].enc.params.tobytes() != drawn.enc.params.tobytes()

    def test_steps_every_pair_in_one_pass(self, monkeypatch):
        # one transfer step and one critic step per batch, each on the stack
        steps = {"loss_and_grads": [], "_mine_ascent": []}
        for name in steps:
            real = getattr(lkt, name)

            def counted(pair, *args, _real=real, _name=name, **kwargs):
                steps[_name].append(pair.enc.params.shape)
                return _real(pair, *args, **kwargs)

            monkeypatch.setattr(lkt, name, counted)
        ols, x, feds = self._pairs(4)
        cfg = self._cfg()
        lkt_train(ols, x, feds, cfg, [1] * 4)
        stacked = [(4, lkt_train(ols[:1], x, feds[:1], cfg, [1])[0].enc.params.size)] * 15
        assert steps == {"loss_and_grads": stacked + [stacked[0][1:]] * 15,
                         "_mine_ascent": stacked + [stacked[0][1:]] * 15}

    @pytest.mark.parametrize("edit", [
        dict(seeds=[0]), dict(provenances=["a", "b", "c"]), dict(h_t_ols=[]),
        dict(h_t_ols=[], h_feds=[], seeds=[], provenances=[]),
    ], ids=["one-seed-short", "one-name-too-many", "no-overlap-tables", "no-pairs"])
    def test_every_pair_needs_its_inputs(self, edit):
        ols, x, feds = self._pairs(2)
        args = dict(h_t_ols=ols, h_t_nl=x, h_feds=feds, config=self._cfg(), seeds=[0, 1],
                    provenances=["a", "b"])
        with pytest.raises(ValueError, match="one overlap table, seed and provenance per "
                                             "federated representation"):
            lkt_train(**{**args, **edit})

    def test_pairs_need_one_shape(self):
        ols, x, feds = self._pairs(2)
        narrow = _fed(np.ones((12, 4)))
        with pytest.raises(ValueError, match=r"one federated representation shape, "
                                             r"got \[\(12, 5\), \(12, 4\)\]"):
            lkt_train(ols, x, [feds[0], narrow], self._cfg(), [0, 0])
        short = _feature_matrix(np.ones((11, 4)), prefix="o")
        with pytest.raises(ValueError, match=r"one reconstruction table shape"):
            lkt_train([ols[0], short], x, feds, self._cfg(reconstruction_source="overlap"),
                      [0, 0])
        # a table the decoders do not rebuild may differ
        lkt_train([ols[0], short], x, feds, self._cfg(reconstruction_source="local"), [0, 0])

    @staticmethod
    def _divergence_epoch(ols, x, feds, cfg, k, seed):
        with np.errstate(all="ignore"):
            try:
                _reference_train(ols[k], x, feds[k], cfg, seed)
            except LktDivergenceError as exc:
                return exc.epoch
        return None

    def test_a_later_pair_that_diverges_first_yields_the_per_pair_error(self):
        # pair 2 diverges in epoch 0 and pair 1 in a later epoch: training
        # the pairs one after another stops at pair 1, and so does the stack.
        # Each epoch rebuilds 12 of the 40 overlap rows, so the epoch in
        # which a pair first reads its overflowing row follows that row.
        cfg = self._cfg(reconstruction_source="overlap", epochs=4)
        seeds = [5, 6, 7]
        _, x, feds = self._pairs(3, n_rows=12, n_overlap=40)
        first_read = {}  # (pair, epoch) -> an overflowing row that pair first reads then
        for k in (1, 2):
            for row in range(40):
                trial, _, _ = self._pairs(3, n_rows=12, n_overlap=40, big={k: row})
                epoch = self._divergence_epoch(trial, x, feds, cfg, k, seeds[k])
                first_read.setdefault((k, epoch), row)
        late = min(e for k, e in first_read if k == 1 and e)
        ols, _, _ = self._pairs(3, n_rows=12, n_overlap=40,
                                big={1: first_read[1, late], 2: first_read[2, 0]})
        assert self._divergence_epoch(ols, x, feds, cfg, 0, seeds[0]) is None
        with np.errstate(all="ignore"), pytest.raises(LktDivergenceError) as exc:
            lkt_train(ols, x, feds, cfg, seeds)
        assert (exc.value.seed, exc.value.epoch, exc.value.provenance) == (6, late, "pair-1")
        assert str(exc.value) == f"training diverged (loss not finite) at epoch {late}, seed 6"

    def test_five_pairs_peak_under_four_times_one(self):
        # many-hospitals shapes: 1380 shared rows of 16 columns, 120 overlap
        # rows, 22 federated columns; the shared table is read, not copied
        rng = np.random.default_rng(0)
        x = _feature_matrix(rng.normal(size=(1380, 16)))
        ol = _feature_matrix(rng.normal(size=(120, 16)), prefix="o")
        feds = [_fed(rng.normal(size=(120, 22))) for _ in range(5)]
        cfg = LktConfig(latent_dim=5, mine_hidden=(32, 32), reconstruction_source="local",
                        epochs=1, hidden_width=12, mi_weight=0.1)
        peaks = []
        for k in (1, 5):
            tracemalloc.start()
            try:
                lkt_train([ol] * k, x, feds[:k], cfg, [500] * k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 4 * peaks[0], peaks


class TestConfig:
    def test_single_weight_mode(self):
        # the MI weight is the loss's one weight, and a float also when set as an int
        for weight in (0.25, 1):
            pair = build_model(n_nl=2, n_rec=2, n_fed=3, config=LktConfig(mi_weight=weight),
                               seed=0)
            assert type(pair.mi_weight) is float and pair.mi_weight == weight

    def test_default_latent_matches_input(self):
        cfg = LktConfig()
        model = build_model(n_nl=5, n_rec=5, n_fed=3, config=cfg, seed=0)
        assert model.enc.output_dim == 5
        assert model.phi.shape == (3, 5)


class TestFinetune:
    def _trained_pair(self, seed_a=0, seed_b=1):
        rng = np.random.default_rng(4)
        x = _feature_matrix(rng.normal(size=(40, 4)))
        h_ol = _feature_matrix(rng.normal(size=(10, 4)), prefix="o")
        feds = [_fed(rng.normal(size=(10, 3))), _fed(rng.normal(size=(10, 3)))]
        cfg = LktConfig(latent_dim=3, epochs=2, hidden_width=4, mine_hidden=(4, 4),
                        finetune_epochs=4, finetune_lr=1e-2)
        models = [_train_one(h_ol, x, fed, cfg, seed, f"pair-{k}")
                  for k, (fed, seed) in enumerate(zip(feds, (seed_a, seed_b)))]
        return models, x, feds, cfg

    def test_single_pair_loss_is_exact_zero(self):
        models, x, feds, cfg = self._trained_pair()
        t = cross_attention(models[0].enc.forward(x.values)[0], models[0].keys, np.eye(3))
        assert contrastive_loss(models[:1], x.values, [t], 0) == 0.0

    def test_mixed_temperatures_rejected(self):
        models, x, feds, cfg = self._trained_pair()
        models[1].temperature = 0.25
        with pytest.raises(ValueError, match=r"disagree on the contrastive temperature: "
                                             r"\[0.25, 0.5\]"):
            lkt_finetune_contrastive(models, x, cfg, seed=0)
        t = [m.enc.forward(x.values)[0] for m in models]
        with pytest.raises(ValueError, match="disagree on the contrastive temperature"):
            contrastive_loss(models, x.values, t, 0)

    def test_moments_start_at_zero_whatever_stepped_the_encoders(self):
        # a fine-tune's result does not depend on an earlier fine-tune of
        # the same encoders: its output fine-tunes as its reloaded copy does
        models, x, feds, cfg = self._trained_pair()
        once = lkt_finetune_contrastive(models, x, cfg, seed=0)
        rebuilt = [LktModel(enc=m.enc.copy(), keys=m.keys.copy(),
                            temperature=m.temperature, provenance=m.provenance,
                            nl_columns=m.nl_columns) for m in once]
        a = lkt_finetune_contrastive(once, x, cfg, seed=1)
        b = lkt_finetune_contrastive(rebuilt, x, cfg, seed=1)
        for m, r in zip(a, b, strict=True):
            assert m.enc.forward(x.values)[0].tobytes() == r.enc.forward(x.values)[0].tobytes()
        assert a[0].history["contrastive"] == b[0].history["contrastive"]

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

    def test_each_model_keeps_its_own_curve(self):
        models, x, feds, cfg = self._trained_pair()
        out = lkt_finetune_contrastive(models, x, cfg, seed=0)
        assert out[0].history["contrastive"] == out[1].history["contrastive"]
        out[0].history["contrastive"].append(1.0)
        assert len(out[1].history["contrastive"]) == cfg.finetune_epochs

    def test_finetune_decreases_loss_and_redundancy_of_clones(self):
        # clone seeds -> identical encoders -> redundancy 1; fine-tuning
        # against different readout targets must separate them
        models, x, feds, cfg = self._trained_pair(seed_a=0, seed_b=0)
        assert encoder_redundancy(models, x) == pytest.approx(1.0)
        out = lkt_finetune_contrastive(models, x, cfg, seed=0)
        hist = out[0].history["contrastive"]
        assert hist[-1] < hist[0]
        assert encoder_redundancy(out, x) < 1.0

    def test_keys_come_from_training_and_are_required(self, monkeypatch):
        pairs = _trained_pairs(monkeypatch)
        models, x, feds, cfg = self._trained_pair()
        for m, f, pair in zip(models, feds, pairs, strict=True):
            assert m.enc is pair.enc
            np.testing.assert_array_equal(m.keys, standardize_columns(f.matrix)[0] @ pair.phi)
        with pytest.raises(TypeError, match="keys"):
            LktModel(enc=models[0].enc, temperature=0.5, provenance="p",
                     nl_columns=x.columns)

    def test_a_trained_model_is_its_encoder_and_keys(self):
        from dataclasses import fields

        assert [f.name for f in fields(LktModel)] == [
            "enc", "keys", "temperature", "provenance", "nl_columns", "history"]
        models, *_ = self._trained_pair()
        for m in models:
            assert set(m.history) == {"loss", "recons", "mi"}
            assert m.latent_dim == m.enc.output_dim == m.keys.shape[1] == 3

    def test_targets_are_read_in_batch_blocks(self):
        # 2000 rows over 1200 keys: each frozen target is read one batch of
        # rows at a time, so no 2000 x 1200 attention array is made
        rng = np.random.default_rng(6)
        x = _feature_matrix(rng.normal(size=(2000, 4)))
        cfg = LktConfig(latent_dim=3, hidden_width=4, mine_hidden=(4, 4), finetune_epochs=1)
        models = [_pair_model(k, cfg, x.columns, n_keys=1200) for k in range(2)]
        tracemalloc.start()
        try:
            lkt_finetune_contrastive(models, x, cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 1200 * 8 / 4

    @staticmethod
    def _untrained(k_models, n_rows, cfg):
        rng = np.random.default_rng(n_rows)
        x = _feature_matrix(rng.normal(size=(n_rows, 5)))
        return [_pair_model(k, cfg, x.columns, n_keys=9) for k in range(k_models)], x

    @pytest.mark.parametrize("k_models, repeat, n_rows", [
        (2, 1, 64), (3, 1, 64), (6, 1, 64),
        (3, 2, 64),  # repeated model objects, as an update passes them
        (4, 1, 49),  # 49 rows in batches of 16: the last batch is one row
    ], ids=["K2", "K3", "K6", "repeated", "last-batch-of-1"])
    def test_matches_the_per_model_loop_bit_for_bit(self, k_models, repeat, n_rows):
        cfg = LktConfig(latent_dim=3, hidden_width=6, batch_size=16, finetune_epochs=3,
                        finetune_lr=1e-2)
        models, x = self._untrained(k_models, n_rows, cfg)
        got = lkt_finetune_contrastive(models * repeat, x, cfg, seed=5)
        want = _reference_finetune(models * repeat, x, cfg, seed=5)
        assert len(got) == len(want) == k_models * repeat
        for g, w in zip(got, want):
            assert g.enc.params.tobytes() == w.enc.params.tobytes()
            assert g.history == w.history
        assert want[0].enc.params.tobytes() != models[0].enc.params.tobytes()

    def test_steps_no_encoder_on_its_own(self, monkeypatch):
        # one backward pass and one Adam step per batch, each on the stacked
        # net of all 5 encoders, and none on a single encoder
        shapes = {"backward": [], "adam_step": []}
        for name in shapes:
            real = getattr(DenseNet, name)

            def counted(net, *args, _real=real, _name=name, **kwargs):
                shapes[_name].append(net.params.shape)
                return _real(net, *args, **kwargs)

            monkeypatch.setattr(DenseNet, name, counted)
        cfg = LktConfig(latent_dim=3, hidden_width=6, batch_size=16, finetune_epochs=1)
        models, x = self._untrained(5, 64, cfg)
        out = lkt_finetune_contrastive(models, x, cfg, seed=0)
        stacked = [(5, models[0].enc.params.size)] * 4  # 64 rows in batches of 16
        assert shapes == {"backward": stacked, "adam_step": stacked}
        assert out[0].enc.params.tobytes() != models[0].enc.params.tobytes()

    @pytest.mark.parametrize("edit, layout", [
        (dict(hidden_width=7), "((5, 7), 'sigmoid')"),
        (dict(latent_dim=2), "((6, 2), 'linear')"),
    ], ids=["hidden-width", "latent-width"])
    def test_mixed_layouts_rejected(self, edit, layout):
        cfg = LktConfig(latent_dim=3, hidden_width=6, finetune_epochs=1)
        models, x = self._untrained(4, 20, cfg)
        for k in (2, 3):  # the first odd one is named
            models[k] = _pair_model(k, replace(cfg, **edit), x.columns, n_keys=9)
        with pytest.raises(ValueError, match=r"^pair model 2 'pair-2': encoder layout .*"
                                             + re.escape(layout) + r".* differs from model 0's"):
            lkt_finetune_contrastive(models, x, cfg, seed=0)

    def test_mixed_activations_rejected(self):
        cfg = LktConfig(latent_dim=3, hidden_width=6, finetune_epochs=1)
        models, x = self._untrained(3, 20, cfg)
        layers = models[1].enc.layers
        relu = DenseNet((replace(layers[0], activation="relu"), *layers[1:]))
        models[1] = replace(models[1], enc=relu)
        with pytest.raises(ValueError, match=r"^pair model 1 'pair-1': encoder layout "
                                             r"\(\(\(5, 6\), 'relu'\)"):
            lkt_finetune_contrastive(models, x, cfg, seed=0)

    def test_redundancy_edge_cases(self):
        models, x, _, _ = self._trained_pair()
        assert encoder_redundancy(models[:1], x) == 0.0
        assert encoder_redundancy([models[0], models[0]], x) == pytest.approx(1.0)


class TestAugment:
    def _models(self, n_models=2):
        rng = np.random.default_rng(5)
        x = _feature_matrix(rng.normal(size=(12, 4)))
        cfg = LktConfig(latent_dim=2, hidden_width=3, mine_hidden=(3, 3))
        return [_pair_model(k, cfg, x.columns, n_keys=7) for k in range(n_models)], x

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
        with pytest.raises(ValueError, match=re.escape(
                "schema mismatch for 'pair-0': expected columns ['x0', 'x1', 'x2', 'x3'], "
                "got ['x0', 'x1', 'x2', 'x3', 'x4']")):
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
        return [_pair_model(k, cfg, ("a", "b", "c", "d"), n_keys=7) for k in range(2)]

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
            assert l.history == {}  # the training curves are not kept
            np.testing.assert_array_equal(m.keys, l.keys)
            assert l.provenance == m.provenance
            assert l.nl_columns == m.nl_columns
            assert l.temperature == m.temperature

    def test_v3_keeps_the_encoder_and_keys_to_the_bit(self, tmp_path):
        models = self._models()
        models[0].enc.layers[0].w[0, :2] = [1 / 3, 5e-324]
        path = tmp_path / "models.json"
        save_models(path, models, config_hash="h")
        loaded, _ = load_models(path)
        for m, l in zip(models, loaded):
            assert l.keys.tobytes() == m.keys.tobytes()
            assert len(l.enc.layers) == len(m.enc.layers)
            for a, b in zip(m.enc.layers, l.enc.layers):
                assert (a.w.tobytes(), a.b.tobytes(), a.activation) == (
                    b.w.tobytes(), b.b.tobytes(), b.activation)
                assert (a.w.shape, a.b.shape) == (b.w.shape, b.b.shape)

    def test_v3_holds_no_training_state(self, tmp_path):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        assert doc["version"] == 3
        for md in doc["models"]:
            assert sorted(md) == ["enc", "keys", "nl_columns", "provenance", "temperature"]
            assert not {"dec", "mine", "phi"} & set(md)

    def test_rejects_version_2(self, tmp_path):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match="^unsupported checkpoint version 2; this build reads version 3$"):
            load_models(path)

    def test_loaded_models_augment_new_samples(self, tmp_path):
        models = self._models()
        path = tmp_path / "models.json"
        save_models(path, models, config_hash="h")
        loaded, _ = load_models(path)
        fresh = FeatureMatrix(ids=("n0", "n1", "n2"), columns=("a", "b", "c", "d"),
                              values=np.random.default_rng(8).normal(size=(3, 4)))
        out = apply_to_new_samples(loaded, fresh)
        np.testing.assert_array_equal(out.matrix.values,
                                      apply_to_new_samples(models, fresh).matrix.values)

    def test_loaded_models_take_a_new_hospital(self, tmp_path):
        from vfkt.data import PartyState
        from vfkt.experiment import (DownstreamParams, ExperimentConfig, add_data_hospital,
                                     prepare_dataset, run_pipeline_once)
        from vfkt.synthetic import SyntheticSpec

        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n_task_samples=60, overlap_count=20, task_features=4,
                                    data_features=(4,), latent_dim=3, label_coords=2,
                                    seed=0),
            lkt=LktConfig(latent_dim=2, epochs=2, hidden_width=4, mine_hidden=(4, 4),
                          batch_size=16, finetune_epochs=2),
            downstream=DownstreamParams(model="logistic", n_seeds=1, epochs=5))
        ds = prepare_dataset(cfg)
        base = run_pipeline_once(cfg, "unitrans", ds, run_seed=0)
        save_models(tmp_path / "models.json", base.models, cfg.config_hash)
        loaded, _ = load_models(tmp_path / "models.json")
        old = ds.data_parties[0].features
        new_party = PartyState(party_id="data-new", role="data", features=FeatureMatrix(
            ids=old.ids, columns=("n0", "n1", "n2"),
            values=np.random.default_rng(9).normal(size=(old.n_rows, 3))))
        got, bus = add_data_hospital(loaded, cfg, ds, new_party, run_seed=0)
        assert [m.provenance for m in got] == ["data-0", "data-new"]
        assert len(bus.messages_of_kind("frl_begin")) == 1
        # the update reads nothing the checkpoint drops: the in-memory
        # models give the same models
        want, _ = add_data_hospital(base.models, cfg, ds, new_party, run_seed=0)
        x = ds.task.features.values
        for g, w in zip(got, want, strict=True):
            assert g.enc.forward(x)[0].tobytes() == w.enc.forward(x)[0].tobytes()
            assert g.keys.tobytes() == w.keys.tobytes()

    def _tampered(self, tmp_path, key, value=None, delete=False):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        if delete:
            del doc["models"][1][key]
        elif key == "keys":
            doc["models"][1]["keys"][3][1] = value
        else:
            doc["models"][1][key] = value
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_a_bad_temperature(self, tmp_path, value):
        path = self._tampered(tmp_path, "temperature", value)
        with pytest.raises(ValueError, match=f"'pair-1': temperature must be finite and > 0, "
                                             f"got {value}"):
            load_models(path)

    @pytest.mark.parametrize("where, value, match", [
        ((0, "activation"), "swish", "'pair-1': unknown activation 'swish'"),
        ((1, "w", 0, 1), float("nan"), "'pair-1': network weights are not finite"),
        ((2, "b", 0), float("inf"), "'pair-1': network weights are not finite"),
    ], ids=["activation", "nan-weight", "inf-bias"])
    def test_rejects_a_bad_encoder(self, tmp_path, where, value, match):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        *outer, last = where
        target = doc["models"][1]["enc"]["layers"]
        for k in outer:
            target = target[k]
        target[last] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_models(path)

    @pytest.mark.parametrize("enc, match", [
        ({}, "missing required key enc.layers"),
        ({"layers": [{"w": [[0.0, 0.0]] * 4, "b": [0.0, 0.0]}]},
         "missing required key enc.layers[0].activation"),
        ({"layers": 5}, "enc.layers must be a list, got int"),
        ({"layers": [{"w": [[0.0, 0.0, 0.0]] * 4, "b": [0.0, 0.0], "activation": "linear"}]},
         "bias of shape (2,) for weights of shape (4, 3)"),
        ({"layers": [{"w": [0.0] * 4, "b": [0.0] * 4, "activation": "linear"}]},
         "weights of shape (4,) are not a matrix"),
    ], ids=["no-layers", "no-activation", "layers-not-a-list", "bias-length", "1-d-weights"])
    def test_rejects_a_malformed_encoder(self, tmp_path, enc, match):
        with pytest.raises(ValueError, match=re.escape(f"checkpoint model 1 'pair-1': {match}")):
            load_models(self._tampered(tmp_path, "enc", enc))

    def test_rejects_stacked_encoder_weights(self, tmp_path):
        # a one-row stacked net is a valid DenseNet, but no checkpoint's encoder
        stacked = DenseNet.stack([self._models()[1].enc])
        enc = {"layers": [{"w": l.w.tolist(), "b": l.b.tolist(), "activation": l.activation}
                          for l in stacked.layers]}
        match = re.escape("weights of shape (1, 4, 3) are not a matrix")
        with pytest.raises(ValueError, match="checkpoint model 1 'pair-1': " + match):
            load_models(self._tampered(tmp_path, "enc", enc))

    @pytest.mark.parametrize("key, value, name, message", [
        ("enc", [1], "1 'pair-1'", "enc must be an object, got list"),
        ("nl_columns", 2, "1 'pair-1'", "nl_columns must be a list, got int"),
        ("temperature", "0.5", "1 'pair-1'", "temperature must be float, got str"),
        ("provenance", 7, "1 7", "provenance must be str, got int"),
        ("temperature", True, "1 'pair-1'", "temperature must be float, got bool"),
    ], ids=["enc-not-an-object", "numeric-nl-columns", "temperature-a-string",
            "numeric-provenance", "temperature-a-boolean"])
    def test_rejects_a_value_of_the_wrong_type(self, tmp_path, key, value, name, message):
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint model {name}: {message}")):
            load_models(self._tampered(tmp_path, key, value))

    @pytest.mark.parametrize("where, what", [
        (("keys", 3), "keys"),
        (("enc", "layers", 0, "b"), "enc.layers[0].b"),
        (("enc", "layers", 1, "w", 2), "enc.layers[1].w"),
    ], ids=["keys-row", "bias", "weight-row"])
    def test_rejects_a_boolean_in_an_array(self, tmp_path, where, what):
        # a JSON boolean would otherwise be read as 1.0 or 0.0
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        *outer, last = where
        target = doc["models"][1]
        for k in outer:
            target = target[k]
        target[last] = [True, False, True][:len(target[last])]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"checkpoint model 1 'pair-1': {what} must hold numbers only, got bool") + "$"):
            load_models(path)

    def test_rejects_column_names_that_are_not_strings(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint model 1 'pair-1': nl_columns[0] must be str, got int")):
            load_models(self._tampered(tmp_path, "nl_columns", [1, 2, 3, 4]))

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: [1], "checkpoint must be an object, got list"),
        (lambda doc: {k: v for k, v in doc.items() if k != "models"},
         "missing required key checkpoint.models"),
        (lambda doc: {**doc, "models": 5},
         "checkpoint.models must be a list, got int"),
        (lambda doc: {**doc, "models": [doc["models"][0], 5]},
         "checkpoint.models[1] must be dict, got int"),
        (lambda doc: {**doc, "config_hash": 5},
         "checkpoint.config_hash must be str, got int"),
        (lambda doc: {**doc, "version": 3.0},
         "checkpoint.version must be int, got float"),
    ], ids=["document-a-list", "no-models", "models-a-number", "model-a-number",
            "numeric-config-hash", "float-version"])
    def test_rejects_a_malformed_document(self, tmp_path, edit, match):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
            load_models(path)

    @pytest.mark.parametrize("key", ["enc", "keys", "temperature", "nl_columns", "provenance"])
    def test_rejects_a_missing_key(self, tmp_path, key):
        # the model is named by its index, and by its provenance while it has one
        name = "1" if key == "provenance" else "1 'pair-1'"
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint model {name}: missing required key {key}")):
            load_models(self._tampered(tmp_path, key, delete=True))

    def test_rejects_an_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint model 1 'pair-1': unknown key history")):
            load_models(self._tampered(tmp_path, "history", {"loss": [1.0]}))

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_rejects_non_finite_keys(self, tmp_path, value):
        with pytest.raises(ValueError, match="'pair-1': keys are not finite"):
            load_models(self._tampered(tmp_path, "keys", value))

    @pytest.mark.parametrize("key", ["keys", "temperature"])
    def test_rejects_an_int_beyond_float_range(self, tmp_path, key):
        with pytest.raises(ConfigError, match=re.escape(
                "checkpoint model 1 'pair-1': int too large to convert to float")):
            load_models(self._tampered(tmp_path, key, 10 ** 400))

    def test_rejects_schema_tampering(self, tmp_path):
        import json

        path = tmp_path / "models.json"
        save_models(path, self._models(), config_hash="h")
        doc = json.loads(path.read_text())
        doc["models"][1]["nl_columns"] = ["a", "b", "c"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'pair-1': schema mismatch: encoder input width"):
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
        with pytest.raises(ValueError, match="checkpoint version 1; this build reads version 3"):
            load_models(path)
