"""Tests for splits, classifiers, evaluation, and run reports."""

import json

import numpy as np
import pytest

from vfkt.downstream import (
    DownstreamParams,
    RunReport,
    _softmax_grad_by_class,
    config_fingerprint,
    evaluate,
    stratified_split,
    train_classifier,
)
from vfkt.numerics import DenseNet, softmax_rows


def _blobs(n_per_class=40, d=4, gap=6.0, seed=0):
    """Two well-separated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(n_per_class, d))
    x1 = rng.normal(size=(n_per_class, d)) + gap
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    perm = rng.permutation(2 * n_per_class)
    return x[perm], y[perm]


class TestStratifiedSplit:
    def test_partition_and_stratification(self):
        y = np.array([0] * 30 + [1] * 10)
        train, test = stratified_split(y, DownstreamParams(train_fraction=0.8), seed=0)
        assert set(train) | set(test) == set(range(40))
        assert set(train) & set(test) == set()
        # 80% of each class lands in train
        assert np.sum(y[train] == 0) == 24
        assert np.sum(y[train] == 1) == 8

    def test_every_class_keeps_a_test_row(self):
        y = np.array([0, 0, 1, 1])
        train, test = stratified_split(y, DownstreamParams(train_fraction=0.9), seed=1)
        assert 0 in y[test] and 1 in y[test]

    def test_few_shot_subsamples_train_only(self):
        y = np.array([0] * 50 + [1] * 50)
        full_train, full_test = stratified_split(y, DownstreamParams(), seed=3)
        few_train, few_test = stratified_split(
            y, DownstreamParams(few_shot_fraction=0.1), seed=3)
        assert few_train.size == max(2, round(0.1 * full_train.size))
        np.testing.assert_array_equal(few_test, full_test)
        assert set(few_train) <= set(full_train)

    def test_full_few_shot_keeps_every_training_row(self):
        y = np.array([0] * 50 + [1] * 50)
        full = stratified_split(y, DownstreamParams(), seed=3)
        few = stratified_split(y, DownstreamParams(few_shot_fraction=1.0), seed=3)
        for a, b in zip(few, full):
            np.testing.assert_array_equal(a, b)

    def test_few_shot_keeps_every_class(self):
        y = np.array([0] * 180 + [1] * 20)
        params = DownstreamParams(few_shot_fraction=0.01)
        for seed in range(20):
            train, test = stratified_split(y, params, seed=seed)
            full_train, full_test = stratified_split(y, DownstreamParams(), seed=seed)
            assert set(y[train]) == {0, 1}
            assert set(train) <= set(full_train)
            np.testing.assert_array_equal(test, full_test)
            assert train.size in (2, 3)

    def test_few_shot_that_holds_every_class_is_unchanged(self):
        y = np.array([0] * 50 + [1] * 50)
        params = DownstreamParams(few_shot_fraction=0.1)
        for seed in range(10):
            full_train, _ = stratified_split(y, DownstreamParams(), seed=seed)
            rng = np.random.default_rng(seed)
            for _ in (0, 1):  # the per-class permutations stratified_split draws
                rng.permutation(50)
            want = np.sort(rng.permutation(full_train)[:8])
            if set(y[want]) == {0, 1}:
                np.testing.assert_array_equal(stratified_split(y, params, seed=seed)[0], want)

    def test_deterministic_per_seed(self):
        y = np.arange(60) % 3
        a = stratified_split(y, DownstreamParams(), seed=5)
        b = stratified_split(y, DownstreamParams(), seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestClassifier:
    def test_logistic_separates_blobs(self):
        x, y = _blobs()
        clf = train_classifier(x, y, kind="logistic", seed=0)
        assert evaluate(clf, x, y) >= 0.99

    def test_mlp_separates_blobs(self):
        x, y = _blobs()
        clf = train_classifier(x, y, kind="mlp", seed=0, epochs=100)
        assert evaluate(clf, x, y) >= 0.99

    def test_unknown_kind(self):
        x, y = _blobs(n_per_class=5)
        with pytest.raises(ValueError, match="unknown classifier kind"):
            train_classifier(x, y, kind="svm", seed=0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            train_classifier(np.ones((4, 2)), np.zeros(4, dtype=int),
                             kind="logistic", seed=0)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            train_classifier(np.ones((4, 2)), np.array([0, 1]),
                             kind="logistic", seed=0)

    def test_deterministic_per_seed(self):
        x, y = _blobs(n_per_class=15)
        a = train_classifier(x, y, kind="logistic", seed=9, epochs=30)
        b = train_classifier(x, y, kind="logistic", seed=9, epochs=30)
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_outside_the_classes_rejected(self, bad):
        x, y = _blobs(n_per_class=5)
        y[3] = bad
        with pytest.raises(ValueError, match=f"label {bad} outside \\[0, 2\\)"):
            train_classifier(x, y, kind="logistic", seed=0, num_classes=2)

    def test_evaluate_guards(self):
        x, y = _blobs(n_per_class=5)
        clf = train_classifier(x, y, kind="logistic", seed=0, epochs=10)
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(clf, np.empty((0, x.shape[1])), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="misaligned"):
            evaluate(clf, x, y[:-1])


def _reference_classifier(x, labels, kind, seed, num_classes, epochs):
    """The plain epoch loop that ``train_classifier`` must match bit for bit."""
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        net = DenseNet.create([x.shape[1], num_classes], ["linear"], rng)
        lr = 0.05
    else:
        net = DenseNet.create([x.shape[1], 32, 32, num_classes],
                              ["relu", "relu", "linear"], rng)
        lr = 0.01
    onehot = np.zeros((labels.size, num_classes))
    onehot[np.arange(labels.size), labels] = 1.0
    adam = net.adam_state()
    for _ in range(epochs):
        logits, cache = net.forward(x)
        probs = softmax_rows(logits)
        grads, _ = net.backward(cache, (probs - onehot) / labels.size, inputs=False)
        net.adam_step(adam, grads, lr)
    return net


class TestEpochKernel:
    @staticmethod
    def _assert_matches_the_plain_loop(kind, c, n, d):
        rng = np.random.default_rng(100 * c + n)
        x = rng.normal(size=(n, d)) * 3.0
        labels = rng.permutation(np.arange(n) % c)
        clf = train_classifier(x, labels, kind, seed=7, num_classes=c, epochs=40)
        ref = _reference_classifier(x, labels, kind, seed=7, num_classes=c, epochs=40)
        assert clf.layout == ref.layout
        for got, want in zip(clf.layers, ref.layers):
            assert got.w.tobytes() == want.w.tobytes()
            assert got.b.tobytes() == want.b.tobytes()

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("c", [2, 3, 5, 8, 9])
    @pytest.mark.parametrize("n", [2, 3, 77, 1600])
    def test_parameters_match_the_plain_loop_bit_for_bit(self, kind, c, n):
        self._assert_matches_the_plain_loop(kind, c, n, 6)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("n, d", [(1104, 16), (1104, 41), (1600, 26), (77, 64)])
    def test_benchmark_shapes_match_the_plain_loop_bit_for_bit(self, kind, n, d):
        self._assert_matches_the_plain_loop(kind, 2, n, d)

    @pytest.mark.parametrize("kind, passes", [("logistic", 0), ("mlp", 1)])
    def test_an_epoch_runs_the_head_outside_densenet(self, monkeypatch, kind, passes):
        calls = {"forward": 0, "backward": 0}

        def spy(name):
            real = getattr(DenseNet, name)

            def counted(net, *args, **kwargs):
                assert net.layout == (((6, 32), "relu"), ((32, 32), "relu"))
                calls[name] += 1
                return real(net, *args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(DenseNet, name, spy(name))
        x, y = _blobs(n_per_class=10, d=6)
        train_classifier(x, y, kind, seed=0, epochs=3)
        assert calls == {"forward": 3 * passes, "backward": 3 * passes}

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize("n", [2, 3, 77, 1600])
    def test_helper_matches_the_softmax_expression(self, c, n):
        rng = np.random.default_rng(10 * c + n)
        logits = rng.normal(size=(n, c)) * 4.0
        logits[0] += 1000.0
        logits[-1] -= 1000.0
        logits[n // 2] = 0.25  # every entry of the row tied
        logits[1, : (c + 1) // 2] = logits[1].max()  # a tie at the row max
        onehot = np.zeros((n, c))
        onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
        want = (softmax_rows(logits) - onehot) / n
        out = np.empty((c, n))
        got = _softmax_grad_by_class(np.ascontiguousarray(logits.T),
                                     np.ascontiguousarray(onehot.T), out)
        assert got is out
        assert got.T.tobytes() == want.tobytes()


class TestRunReport:
    def _report(self):
        return RunReport(condition="unitrans", seeds=[0, 1, 2],
                         accuracies=[0.8, 0.9, 1.0], config_hash="deadbeef",
                         axis="task_features", value=24.0)

    def test_mean_std(self):
        r = self._report()
        assert r.mean == pytest.approx(0.9)
        assert r.std == pytest.approx(np.std([0.8, 0.9, 1.0]))

    def test_seed_accuracy_alignment_enforced(self):
        with pytest.raises(ValueError, match="one accuracy per seed"):
            RunReport(condition="local", seeds=[0], accuracies=[], config_hash="h")

    def test_json_round_trip(self):
        r = self._report()
        assert RunReport.from_json(r.to_json()) == r
        assert json.loads(r.to_json())["wall_clock_s"] is None

    def test_reads_a_report_that_carries_a_timing(self):
        doc = json.loads(self._report().to_json())
        doc["wall_clock_s"] = 1.5
        assert RunReport.from_json(json.dumps(doc)) == self._report()

    def test_json_keys_sorted(self):
        keys = list(json.loads(r := self._report().to_json()))
        assert keys == sorted(keys)


class TestConfigFingerprint:
    def test_stable_and_order_insensitive(self):
        a = config_fingerprint({"x": 1, "y": [2, 3]})
        b = config_fingerprint({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16

    def test_sensitive_to_values(self):
        assert config_fingerprint({"x": 1}) != config_fingerprint({"x": 2})
