"""Tests for the dense linear-algebra and optimization kernels."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vfkt.numerics import (
    AdamState,
    DenseLayer,
    DenseNet,
    PowerIterationResult,
    SvdConvergenceError,
    _act,
    _act_grad,
    _buf,
    haar_blocks,
    logmeanexp,
    power_iteration,
    random_orthogonal,
    softmax_rows,
    svd,
)


# Singular values of this fixed matrix, computed once with an independent
# LAPACK-backed solver and frozen here.
FIXED_MATRIX = np.array([
    [2.0, 0.0, 1.0],
    [0.0, 3.0, 1.0],
    [1.0, 1.0, 1.0],
    [0.0, 0.0, 2.0],
])
FIXED_SINGULAR_VALUES = np.array(
    [3.681829232129506, 2.4569977304586095, 1.5515462152181927])


# The one-network dense layer loop, spelled out for 2-D weights: ``DenseNet``
# must match it bit for bit, for one net and for each row of a stacked one.

def _reference_forward(net, x, ws=None):
    cache = []
    a = np.asarray(x, dtype=float)
    for i, layer in enumerate(net.layers):
        z = np.matmul(a, layer.w, out=_buf(ws, ("z", i), (a.shape[0], layer.w.shape[1])))
        z += layer.b
        a_next = _act(layer.activation, z)
        cache.append((a, a_next))
        a = a_next
    return a, cache


def _reference_backward(net, cache, grad_output, ws=None, params=True, inputs=True):
    grads = [None] * len(net.layers)
    g = np.asarray(grad_output, dtype=float)
    for i in range(len(net.layers) - 1, -1, -1):
        a_in, a_out = cache[i]
        layer = net.layers[i]
        if layer.activation == "linear":
            gz = g
        else:
            gz = np.multiply(g, _act_grad(layer.activation, a_out),
                             out=_buf(ws, ("gz", i), g.shape))
        if params:
            grads[i] = (a_in.T @ gz, gz.sum(axis=0))
        if i > 0 or inputs:
            g = np.matmul(gz, layer.w.T, out=_buf(ws, ("g", i), a_in.shape))
    return (grads if params else None), (g if inputs else None)


def _reference_adam_step(net, state, grads, lr):
    flat = np.concatenate([np.ravel(x) for pair in grads for x in pair])
    net.params[:] = state.update(net.params, flat, lr)


def _bits(arrays):
    return [None if a is None else np.asarray(a).tobytes() for a in arrays]


def _concat_bits(grads):
    """The bytes of per-layer (dW, db) gradients concatenated in ``params`` order."""
    return b"".join(x.tobytes() for pair in grads for x in pair)


class TestSvd:
    def test_fixed_matrix_singular_values(self):
        res = svd(FIXED_MATRIX)
        np.testing.assert_allclose(res.sigma, FIXED_SINGULAR_VALUES, atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 7))
        res = svd(m)
        np.testing.assert_allclose(res.u @ np.diag(res.sigma) @ res.v.T, m,
                                   atol=1e-10)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((9, 9))
        res = svd(m)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(9), atol=1e-10)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(9), atol=1e-10)

    def test_sigma_sorted_nonnegative(self):
        rng = np.random.default_rng(2)
        res = svd(rng.standard_normal((8, 5)))
        assert np.all(res.sigma >= 0)
        assert np.all(np.diff(res.sigma) <= 1e-12)

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((10, 2))
        b = rng.standard_normal((2, 6))
        res = svd(a @ b)
        assert np.sum(res.sigma > 1e-9) == 2
        np.testing.assert_allclose(res.u @ np.diag(res.sigma) @ res.v.T, a @ b,
                                   atol=1e-9)
        # null columns are still orthonormal
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(6), atol=1e-9)

    def test_wide_matrix(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 11))
        res = svd(m)
        np.testing.assert_allclose(res.u @ np.diag(res.sigma) @ res.v.T, m,
                                   atol=1e-10)

    @pytest.mark.parametrize("shape", [(12, 7), (4, 11)])
    def test_sign_convention(self, shape):
        """The largest-magnitude entry of each u-column is positive, and v
        is flipped with it so the factorization still holds."""
        rng = np.random.default_rng(6)
        m = rng.standard_normal(shape)
        for mat in (m, -m):
            res = svd(mat)
            peaks = res.u[np.argmax(np.abs(res.u), axis=0), np.arange(res.u.shape[1])]
            assert np.all(peaks > 0)
            np.testing.assert_allclose(res.u @ np.diag(res.sigma) @ res.v.T, mat,
                                       atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 7))
        r1, r2 = svd(m.copy()), svd(m.copy())
        np.testing.assert_array_equal(r1.u, r2.u)
        np.testing.assert_array_equal(r1.sigma, r2.sigma)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_orthogonal_invariance_of_singular_values(self, seed):
        """Left/right rotation must not change the spectrum."""
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 4))
        q = random_orthogonal(6, seed=rng.integers(2**31))
        np.testing.assert_allclose(svd(q @ m).sigma, svd(m).sigma, atol=1e-8)


class TestRandomOrthogonal:
    def test_orthogonal(self):
        q = random_orthogonal(8, seed=0)
        np.testing.assert_allclose(q @ q.T, np.eye(8), atol=1e-12)

    def test_determinant_is_unit(self):
        for seed in range(5):
            q = random_orthogonal(5, seed=seed)
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10

    def test_seeded_determinism(self):
        np.testing.assert_array_equal(random_orthogonal(6, seed=3),
                                      random_orthogonal(6, seed=3))
        assert not np.array_equal(random_orthogonal(6, seed=3),
                                  random_orthogonal(6, seed=4))

    def test_nonpositive_block_size_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            haar_blocks(6, seed=0, block_size=0)
        with pytest.raises(ValueError, match="block_size"):
            haar_blocks(6, seed=0, block_size=-2)

    def test_blocks_are_successive_draws_from_one_generator(self):
        blocks = haar_blocks(10, np.random.default_rng(5), 4)
        assert [b.shape for b in blocks] == [(4, 4), (4, 4), (2, 2)]
        rng = np.random.default_rng(5)
        for b in blocks:
            np.testing.assert_array_equal(b, random_orthogonal(b.shape[0], rng))
            np.testing.assert_allclose(b @ b.T, np.eye(b.shape[0]), atol=1e-12)

    def test_one_block_when_block_size_covers_n(self):
        for block_size in (6, 7):
            (block,) = haar_blocks(6, 2, block_size)
            np.testing.assert_array_equal(block, random_orthogonal(6, seed=2))


def _start(n):
    """A fixed non-axis-aligned start vector."""
    return np.ones(n) + 1e-3 * np.arange(n)


class TestPowerIteration:
    def test_diagonal_matrix(self):
        d = np.diag([2.0, 1.0])
        res = power_iteration(lambda x: d @ x, iters=100, init=_start(2))
        assert abs(res.value - 2.0) < 1e-10
        np.testing.assert_allclose(np.abs(res.vector), [1.0, 0.0], atol=1e-8)

    def test_init_in_the_null_space_restarts(self):
        # A e2 = 0: the first round restarts from a perturbed init and adds no
        # history entry; the next product lands on e1 exactly
        d = np.diag([2.0, 0.0, 0.0])
        res = power_iteration(lambda x: d @ x, iters=30, init=np.array([0.0, 1.0, 0.0]))
        assert res.value == 2.0
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0])
        assert len(res.value_history) == 29

    def test_analytic_2x2(self):
        # [[4,1],[1,3]] has top eigenvalue (7 + sqrt(5)) / 2
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        res = power_iteration(lambda x: m @ x, iters=200, init=_start(2))
        assert abs(res.value - (7 + np.sqrt(5)) / 2) < 1e-10

    def test_unit_norm_vector(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        g = m @ m.T
        res = power_iteration(lambda x: g @ x, iters=150, init=_start(6))
        assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-10

    def test_value_history_converges(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5))
        g = m @ m.T
        res = power_iteration(lambda x: g @ x, iters=100, init=_start(5))
        assert len(res.value_history) == 100
        tail = np.array(res.value_history[-10:])
        assert np.max(np.abs(np.diff(tail))) < 1e-8

    def test_takes_iters_plus_one_products(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((9, 4))
        g = m @ m.T
        calls = []

        def op(x):
            calls.append(1)
            return g @ x

        res = power_iteration(op, iters=40, init=rng.standard_normal(9))
        assert len(calls) == 41
        assert len(res.value_history) == 40
        assert res.value == res.value_history[-1]

    def test_operator_needs_init(self):
        with pytest.raises(TypeError, match="init"):
            power_iteration(lambda x: x, iters=3)
        with pytest.raises(ValueError, match="init"):
            power_iteration(lambda x: x, iters=3, init=np.zeros(2))

    def test_slow_convergence_flagged(self):
        # nearly degenerate spectrum with too few iterations to settle
        d = np.diag([1.0, 0.999])
        res = power_iteration(lambda x: d @ x, iters=3, init=np.array([1.0, 5.0]))
        assert res.flagged

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_estimate_dominates_rayleigh_of_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5))
        g = m @ m.T
        res = power_iteration(lambda x: g @ x, iters=300, init=_start(5))
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert res.value >= float(v @ g @ v) - 1e-8


class TestStableReductions:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = softmax_rows(rng.standard_normal((4, 7)) * 50)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(np.isfinite(s))

    def test_softmax_rows_known_values(self):
        s = softmax_rows(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(s, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax_rows(x), softmax_rows(x + 1000.0),
                                   atol=1e-12)

    def test_logmeanexp_constant_input(self):
        assert abs(logmeanexp(np.full(10, 3.5)) - 3.5) < 1e-12

    def test_logmeanexp_known_values(self):
        x = np.array([0.0, np.log(3.0)])
        # log((1 + 3) / 2) = log(2)
        assert abs(logmeanexp(x) - np.log(2.0)) < 1e-12

    def test_logmeanexp_large_inputs(self):
        assert np.isfinite(logmeanexp(np.array([1000.0, 1000.5])))


class TestAdam:
    def test_first_step_magnitude(self):
        # On the first update m_hat/sqrt(v_hat) = sign(g), so the step is
        # lr * g / (|g| + eps') ~= lr * sign(g).
        state = AdamState.like(np.zeros(3))
        p = np.zeros(3)
        g = np.array([0.5, -2.0, 1e-3])
        p2 = state.update(p, g, lr=0.1)
        np.testing.assert_allclose(p2, -0.1 * np.sign(g), rtol=1e-4)

    def test_ascent_reverses_direction(self):
        s1, s2 = AdamState.like(np.zeros(2)), AdamState.like(np.zeros(2))
        g = np.array([1.0, -1.0])
        down = s1.update(np.zeros(2), g, lr=0.1)
        up = s2.update(np.zeros(2), -g, lr=0.1)
        np.testing.assert_allclose(down, -up, atol=1e-12)

    def test_minimizes_quadratic(self):
        state = AdamState.like(np.zeros(1))
        p = np.array([5.0])
        for _ in range(2000):
            p = state.update(p, 2 * (p - 1.0), lr=0.05)
        assert abs(p[0] - 1.0) < 1e-3


class TestDenseNetMatchesTheReferenceLoop:
    @pytest.mark.parametrize("ws", [False, True], ids=["fresh", "ws"])
    @pytest.mark.parametrize("n", [1, 2, 77])
    @pytest.mark.parametrize("act", ["sigmoid", "relu", "tanh", "linear"])
    def test_one_net(self, act, n, ws):
        rng = np.random.default_rng(n)
        net = DenseNet.create([5, 7, 4, 3], [act] * 3, rng)
        ref = net.copy()
        net_ws, ref_ws = ({}, {}) if ws else (None, None)
        adam, ref_adam = net.adam_state(), ref.adam_state()
        for step in range(3):
            x = rng.standard_normal((n, 5))
            out, cache = net.forward(x, net_ws)
            ref_out, ref_cache = _reference_forward(ref, x, ref_ws)
            assert _bits([out, *sum(cache, ())]) == _bits([ref_out, *sum(ref_cache, ())])
            g = rng.standard_normal(out.shape)
            for kw in ({}, {"params": False}, {"inputs": False}):
                grads, gx = net.backward(cache, g, net_ws, **kw)
                ref_grads, ref_gx = _reference_backward(ref, ref_cache, g, ref_ws, **kw)
                assert _bits([gx]) == _bits([ref_gx])
                assert (grads is None) == (ref_grads is None)
                if grads is not None:
                    assert grads.shape == net.params.shape
                    assert grads.tobytes() == _concat_bits(ref_grads)
            net.adam_step(adam, grads, lr=1e-2)
            _reference_adam_step(ref, ref_adam, ref_grads, lr=1e-2)
            assert net.params.tobytes() == ref.params.tobytes()

    @pytest.mark.parametrize("ws", [False, True], ids=["fresh", "ws"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-rows", "own-rows"])
    @pytest.mark.parametrize("n", [1, 2, 77])
    def test_each_row_of_a_stacked_net(self, n, shared, ws):
        rng = np.random.default_rng(n)
        nets = [DenseNet.create([5, 6, 4, 3, 2], ["sigmoid", "relu", "tanh", "linear"], rng)
                for _ in range(3)]
        stacked = DenseNet.stack(nets)
        assert stacked.params.shape == (3, nets[0].params.size)
        assert stacked.input_dim == 5 and stacked.output_dim == 2
        stacked_ws = {} if ws else None
        adam, ref_adams = stacked.adam_state(), [net.adam_state() for net in nets]
        for step in range(3):
            x = rng.standard_normal((n, 5) if shared else (3, n, 5))
            x = np.broadcast_to(x, (3, n, 5))
            out, cache = stacked.forward(x, stacked_ws)
            g = rng.standard_normal(out.shape)
            grads, gx = stacked.backward(cache, g, stacked_ws)
            for k, (net, ref_adam) in enumerate(zip(nets, ref_adams)):
                ref_out, ref_cache = _reference_forward(net, x[k])
                ref_grads, ref_gx = _reference_backward(net, ref_cache, g[k])
                assert _bits([out[k], gx[k]]) == _bits([ref_out, ref_gx])
                assert _bits(t[k] for pair in cache for t in pair) == _bits(sum(ref_cache, ()))
                assert grads[k].tobytes() == _concat_bits(ref_grads)
                _reference_adam_step(net, ref_adam, ref_grads, lr=1e-2)
            assert grads.shape == stacked.params.shape
            stacked.adam_step(adam, grads, lr=1e-2)
            assert _bits(stacked.params) == _bits(net.params for net in nets)

    def test_one_input_row_serves_every_net(self):
        # a (1, n, fan_in) input is every net's: the same bits as the
        # input repeated per net
        rng = np.random.default_rng(5)
        stacked = DenseNet.stack([DenseNet.create([5, 6, 2], ["sigmoid", "linear"], rng)
                                  for _ in range(3)])
        x = rng.standard_normal((1, 7, 5))
        out, cache = stacked.forward(x)
        ref_out, ref_cache = stacked.forward(np.repeat(x, 3, axis=0))
        g = rng.standard_normal(out.shape)
        grads, gx = stacked.backward(cache, g)
        ref_grads, ref_gx = stacked.backward(ref_cache, g)
        assert _bits([out, grads, gx]) == _bits([ref_out, ref_grads, ref_gx])

    def test_unstack_copies_each_row_out(self):
        rng = np.random.default_rng(6)
        nets = [DenseNet.create([3, 4, 2], ["tanh", "linear"], rng) for _ in range(3)]
        stacked = DenseNet.stack(nets)
        rows = stacked.unstack()
        assert [r.layout for r in rows] == [n.layout for n in nets]
        assert _bits(r.params for r in rows) == _bits(n.params for n in nets)
        rows[0].params[:] = 0.0  # a copy: the stack keeps its row
        assert stacked.params[0].tobytes() == nets[0].params.tobytes()

    def test_stacked_nets_share_one_layout(self):
        rng = np.random.default_rng(0)
        nets = [DenseNet.create([3, 4, 2], ["tanh", "linear"], rng) for _ in range(2)]
        nets.append(DenseNet.create([3, 4, 2], ["relu", "linear"], rng))
        with pytest.raises(ValueError, match="one layout"):
            DenseNet.stack(nets)


class TestDenseNet:
    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([4, 8, 3], ["relu", "linear"], rng)
        out, _ = net.forward(rng.standard_normal((10, 4)))
        assert out.shape == (10, 3)
        assert net.input_dim == 4 and net.output_dim == 3

    def test_linear_net_is_affine(self):
        rng = np.random.default_rng(1)
        net = DenseNet.create([3, 2], ["linear"], rng)
        x = rng.standard_normal((5, 3))
        out, _ = net.forward(x)
        np.testing.assert_allclose(out, x @ net.layers[0].w + net.layers[0].b,
                                   atol=1e-12)

    def test_backward_matches_finite_differences(self, layer_grads):
        rng = np.random.default_rng(2)
        net = DenseNet.create([3, 5, 4, 2], ["sigmoid", "tanh", "linear"], rng)
        x = rng.standard_normal((6, 3))

        def loss(n):
            out, _ = n.forward(x)
            return float(np.sum(out ** 2))

        out, cache = net.forward(x)
        grad, grad_x = net.backward(cache, 2 * out)
        grads = layer_grads(net, grad)
        h = 1e-6
        for li in (0, 2):
            w = net.layers[li].w
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                w[idx] += h
                up = loss(net)
                w[idx] -= 2 * h
                down = loss(net)
                w[idx] += h
                fd = (up - down) / (2 * h)
                assert abs(grads[li][0][idx] - fd) < 1e-4 * max(1.0, abs(fd))
        # input gradient
        x0 = x.copy()
        x0[0, 0] += h
        up, _ = net.forward(x0)
        x0[0, 0] -= 2 * h
        down, _ = net.forward(x0)
        fd = (np.sum(up ** 2) - np.sum(down ** 2)) / (2 * h)
        assert abs(grad_x[0, 0] - fd) < 1e-4 * max(1.0, abs(fd))

    def test_backward_can_skip_either_part(self):
        rng = np.random.default_rng(7)
        net = DenseNet.create([3, 5, 4, 2], ["sigmoid", "relu", "linear"], rng)
        out, cache = net.forward(rng.standard_normal((6, 3)))
        g_out = rng.standard_normal(out.shape)
        grads, grad_x = net.backward(cache, g_out)
        no_params, only_x = net.backward(cache, g_out, params=False)
        only_params, no_x = net.backward(cache, g_out, inputs=False)
        assert no_params is None and no_x is None
        assert only_x.tobytes() == grad_x.tobytes()
        assert only_params.shape == net.params.shape
        assert only_params.tobytes() == grads.tobytes()

    def test_adam_step_reduces_loss(self):
        rng = np.random.default_rng(3)
        net = DenseNet.create([2, 6, 1], ["sigmoid", "linear"], rng)
        x = rng.standard_normal((30, 2))
        y = (x[:, :1] - x[:, 1:]) * 0.5

        def mse():
            out, _ = net.forward(x)
            return float(np.mean((out - y) ** 2))

        before = mse()
        adam = net.adam_state()
        for _ in range(200):
            out, cache = net.forward(x)
            grads, _ = net.backward(cache, 2 * (out - y) / y.size)
            net.adam_step(adam, grads, lr=1e-2)
        assert mse() < before * 0.5
        assert adam.t == 200

    def test_net_holds_parameters_only(self):
        """The moments live in the caller's state: a net, and its copy,
        steps the same from fresh moments whatever stepped it before."""
        rng = np.random.default_rng(8)
        net = DenseNet.create([2, 3, 1], ["sigmoid", "linear"], rng)
        out, cache = net.forward(rng.standard_normal((5, 2)))
        grads, _ = net.backward(cache, np.ones_like(out))
        stepped = net.copy()
        stepped.adam_step(stepped.adam_state(), grads, lr=1e-2)
        assert not any(isinstance(v, AdamState) for v in vars(stepped).values())
        a, b = stepped.copy(), stepped
        for n in (a, b):
            n.adam_step(n.adam_state(), grads, lr=1e-2)
        assert [l.w.tobytes() for l in a.layers] == [l.w.tobytes() for l in b.layers]
        with pytest.raises(ValueError):  # another net's state
            net.adam_step(AdamState.like(np.zeros(3)), grads, lr=1e-2)

    def test_gradient_shape_must_be_the_params_shape(self):
        rng = np.random.default_rng(11)
        net = DenseNet.create([2, 3, 1], ["tanh", "linear"], rng)
        out, cache = net.forward(rng.standard_normal((5, 2)))
        grad, _ = net.backward(cache, np.ones_like(out))
        before = net.params.copy()
        for bad in (grad[:-1], grad[None], np.append(grad, 0.0)):
            with pytest.raises(ValueError, match="gradient shape mismatch"):
                net.adam_step(net.adam_state(), bad, lr=1e-2)
        assert net.params.tobytes() == before.tobytes()

    def test_copy_is_independent(self):
        rng = np.random.default_rng(4)
        net = DenseNet.create([2, 2], ["linear"], rng)
        dup = net.copy()
        net.layers[0].w += 1.0
        assert not np.array_equal(net.layers[0].w, dup.layers[0].w)

    def test_rebound_parameters_rejected(self):
        """Layer weights are views into the net's parameter buffer; a layer
        rebound to a new array would no longer be trained, so Adam refuses."""
        rng = np.random.default_rng(6)
        net = DenseNet.create([2, 3, 1], ["relu", "linear"], rng)
        x = rng.standard_normal((5, 2))
        out, cache = net.forward(x)
        grads, _ = net.backward(cache, np.ones_like(out))
        adam = net.adam_state()
        net.adam_step(adam, grads, lr=1e-2)
        net.layers[1].b = net.layers[1].b.copy()
        with pytest.raises(RuntimeError, match="rebound"):
            net.adam_step(adam, grads, lr=1e-2)

    def test_dict_round_trip(self):
        rng = np.random.default_rng(5)
        net = DenseNet.create([3, 4, 2], ["relu", "linear"], rng)
        restored = net.copy()
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(net.forward(x)[0], restored.forward(x)[0])

    def test_sigmoid_is_the_textbook_formula_on_each_half_line(self):
        # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, bit
        # for bit: neither overflows on its own half-line
        z = np.random.default_rng(10).normal(size=(100, 20)) * 8.0
        z[0, :6] = [0.0, -0.0, 750.0, -750.0, 1e-300, -1e-300]
        got = _act("sigmoid", z.copy())
        pos = z >= 0
        assert got[pos].tobytes() == (1.0 / (1.0 + np.exp(-z[pos]))).tobytes()
        assert got[~pos].tobytes() == (np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))).tobytes()

    def test_unknown_activation_rejected(self):
        with pytest.raises(Exception):
            DenseNet.create([2, 2], ["swish"], np.random.default_rng(0))

    @pytest.mark.parametrize("layer, match", [
        (DenseLayer(np.ones((2, 3)), np.zeros(3), "swish"), "unknown activation 'swish'"),
        (DenseLayer(np.ones((2, 3)), np.zeros(2), "linear"),
         r"bias of shape \(2,\) for weights of shape \(2, 3\)"),
        (DenseLayer(np.ones(3), np.zeros(3), "linear"), r"weights of shape \(3,\)"),
    ], ids=["activation", "bias-length", "1-d-weights"])
    def test_every_way_to_build_a_net_checks_its_layers(self, layer, match):
        with pytest.raises(ValueError, match=match):
            DenseNet([layer])

    def test_unpickled_net_steps_like_the_original(self):
        """Unpickling rebuilds the net through ``__init__``, so its layers are
        views of one parameter buffer again and Adam can step it."""
        rng = np.random.default_rng(9)
        net = DenseNet.create([3, 4, 2], ["tanh", "linear"], rng)
        x = rng.standard_normal((5, 3))
        out, cache = net.forward(x)
        grads, _ = net.backward(cache, np.ones_like(out))
        restored = pickle.loads(pickle.dumps(net))
        for n in (net, restored):
            n.adam_step(n.adam_state(), grads, lr=1e-2)
        assert restored.forward(x)[0].tobytes() == net.forward(x)[0].tobytes()
