"""Tests for the dense linear-algebra and optimization kernels."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vfkt.numerics import (
    AdamState,
    DenseNet,
    PowerIterationResult,
    SvdConvergenceError,
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

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = DenseNet.create([3, 5, 4, 2], ["sigmoid", "tanh", "linear"], rng)
        x = rng.standard_normal((6, 3))

        def loss(n):
            out, _ = n.forward(x)
            return float(np.sum(out ** 2))

        out, cache = net.forward(x)
        grads, grad_x = net.backward(cache, 2 * out)
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
        assert len(only_params) == len(grads)
        for (dw, db), (dw2, db2) in zip(grads, only_params):
            assert dw.tobytes() == dw2.tobytes() and db.tobytes() == db2.tobytes()

    def test_adam_step_reduces_loss(self):
        rng = np.random.default_rng(3)
        net = DenseNet.create([2, 6, 1], ["sigmoid", "linear"], rng)
        x = rng.standard_normal((30, 2))
        y = (x[:, :1] - x[:, 1:]) * 0.5

        def mse():
            out, _ = net.forward(x)
            return float(np.mean((out - y) ** 2))

        before = mse()
        for _ in range(200):
            out, cache = net.forward(x)
            grads, _ = net.backward(cache, 2 * (out - y) / y.size)
            net.adam_step(grads, lr=1e-2)
        assert mse() < before * 0.5

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
        net.adam_step(grads, lr=1e-2)
        net.layers[1].b = net.layers[1].b.copy()
        with pytest.raises(RuntimeError, match="rebound"):
            net.adam_step(grads, lr=1e-2)

    def test_dict_round_trip(self):
        rng = np.random.default_rng(5)
        net = DenseNet.create([3, 4, 2], ["relu", "linear"], rng)
        restored = DenseNet.from_dict(net.to_dict())
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(net.forward(x)[0], restored.forward(x)[0])

    def test_unknown_activation_rejected(self):
        with pytest.raises(Exception):
            DenseNet.create([2, 2], ["swish"], np.random.default_rng(0))
