import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranopt import qnet
from ranopt.qnet import (HIDDEN_DIM, QNetParams, apply_gradient, backward, forward,
                         forward_batch, init_params, soft_update)


def pack(p):
    return p.ravel()


def micro_params():
    # 2 inputs -> 1 hidden unit -> 2 outputs, small enough to evaluate by hand
    return QNetParams(
        w1=np.array([[3.0, -1.0]]),
        b1=np.array([0.5]),
        w2=np.array([[-1.5], [2.0]]),
        b2=np.array([0.25, -0.75]),
    )


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_params(seed=7), init_params(seed=7)
        assert np.array_equal(a.ravel(), b.ravel())

    def test_different_seed_differs(self):
        assert not np.array_equal(init_params(0).w1, init_params(1).w1)

    def test_biases_zero(self):
        p = init_params(seed=3)
        assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0)

    def test_weight_mean_near_zero(self):
        p = init_params(seed=0)
        weights = np.concatenate([p.w1.ravel(), p.w2.ravel()])
        assert abs(weights.mean()) < 0.02

    def test_shapes(self):
        p = init_params()
        assert p.dims == (58, 32, 5)


class TestForward:
    def test_zero_params_zero_output(self):
        p = init_params()
        zero = QNetParams(np.zeros_like(p.w1), np.zeros_like(p.b1),
                          np.zeros_like(p.w2), np.zeros_like(p.b2))
        q = forward(zero, np.ones(58))
        assert np.all(q == 0.0)

    def test_head_linearity(self):
        p = init_params(seed=1)
        s = np.random.default_rng(2).uniform(0, 1, 58)
        q = forward(p, s)
        doubled = QNetParams(p.w1, p.b1, 2.0 * p.w2, 2.0 * p.b2)
        assert np.allclose(forward(doubled, s), 2.0 * q)

    def test_micro_network_hand_evaluation(self):
        p = micro_params()
        # z1 = 3*2 - 1*1 + 0.5 = 5.5 -> relu 5.5
        # q = (-1.5*5.5 + 0.25, 2.0*5.5 - 0.75) = (-8.0, 10.25)
        q = forward(p, np.array([2.0, 1.0]))
        assert np.allclose(q, [-8.0, 10.25])
        # negative preactivation: z1 = 3*(-1) - 1*0 + 0.5 = -2.5 -> relu 0
        q = forward(p, np.array([-1.0, 0.0]))
        assert np.allclose(q, [0.25, -0.75])

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            forward(init_params(), np.zeros(57))

    def test_batch_matches_single(self):
        p = init_params(seed=4)
        states = np.random.default_rng(5).uniform(0, 1, size=(6, 58))
        batch = forward_batch(p, states)
        for i in range(6):
            assert np.allclose(batch[i], forward(p, states[i]))


def backward_one(p, state, action):
    """Reference: the gradient of Q(state, action) for one sample."""
    z1 = p.w1 @ state + p.b1
    gw2 = np.zeros_like(p.w2)
    gb2 = np.zeros_like(p.b2)
    gw2[action] = np.maximum(z1, 0.0)
    gb2[action] = 1.0
    dz1 = p.w2[action] * (z1 > 0.0)
    return QNetParams(w1=np.outer(dz1, state), b1=dz1, w2=gw2, b2=gb2)


def backward_loop(p, states, actions, weights):
    """Reference for the batched backward: the weighted per-sample gradients
    summed one sample at a time."""
    total = None
    for state, action, w in zip(states, actions, weights):
        g = backward_one(p, state, int(action))
        if total is None:
            total = QNetParams(w * g.w1, w * g.b1, w * g.w2, w * g.b2)
        else:
            total.w1 += w * g.w1
            total.b1 += w * g.b1
            total.w2 += w * g.w2
            total.b2 += w * g.b2
    return total


@st.composite
def batches(draw):
    """Params with some dead hidden units, and a batch with repeated actions
    and zero and negative weights."""
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = init_params(seed=draw(st.integers(0, 99)))
    p.b1[:] = rng.uniform(-0.5, 0.5, HIDDEN_DIM)
    dead = rng.permutation(HIDDEN_DIM)[:draw(st.integers(0, HIDDEN_DIM))]
    p.b1[dead] = -100.0  # far below any w1 @ s of a state in [0, 1]^58
    pool = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    actions = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    weight = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-10.0, 10.0)
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    return p, rng.uniform(0.0, 1.0, (n, 58)), actions, weights


class TestBackward:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(batch=batches())
    def test_matches_per_sample_sum(self, batch):
        p, states, actions, weights = batch
        got = pack(backward(p, states, actions, weights))
        want = pack(backward_loop(p, states, actions, weights))
        # rtol 1e-12 of each entry's magnitude: the gradient of a network of
        # |params| at |states|, whose hidden layer |w1| @ |s| + |b1| bounds the
        # rounding of z1 (gemm and gemv round it differently); an entry with
        # no terms must match exactly
        magnitude = QNetParams(*(np.abs(a) for a in (p.w1, p.b1, p.w2, p.b2)))
        scale = sum(abs(w) * pack(backward_one(magnitude, np.abs(s), a))
                    for s, a, w in zip(states, actions, weights))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_zero_state_w1_gradient_zero(self):
        p = init_params(seed=6)
        p.b1[:] = 0.3  # keep hidden units live so b1 receives gradient
        g = backward(p, np.zeros((1, 58)), [2], [1.0])
        assert np.all(g.w1 == 0.0)
        assert np.any(g.b1 != 0.0)

    def test_nonselected_outputs_zero(self):
        p = init_params(seed=8)
        g = backward(p, np.random.default_rng(0).uniform(0, 1, (1, 58)), [3], [1.0])
        for a in range(5):
            if a != 3:
                assert np.all(g.w2[a] == 0.0) and g.b2[a] == 0.0
        assert g.b2[3] == 1.0

    def test_bad_action_raises(self):
        for actions in ([5], [-1], [2.0], [[2]], [1, 2]):
            with pytest.raises(ValueError, match="actions"):
                backward(init_params(), np.zeros((1, 58)), actions, [1.0])

    def test_bad_shapes_raise(self):
        for states in (np.zeros(58), np.zeros((2, 57)), np.zeros((1, 2, 58))):
            with pytest.raises(ValueError, match="states"):
                backward(init_params(), states, [0, 0], [1.0, 1.0])
        for weights in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0):
            with pytest.raises(ValueError, match="weights"):
                backward(init_params(), np.zeros((2, 58)), [0, 1], weights)

    def test_matches_finite_differences(self):
        # spot version of the acceptance gradient check, through a batch of one
        rng = np.random.default_rng(42)
        h = 1e-5
        for trial in range(5):
            p = init_params(seed=trial)
            s = rng.uniform(0.0, 1.0, 58)
            a = int(rng.integers(0, 5))
            analytic = pack(backward(p, s[None], [a], [1.0]))
            theta = pack(p)
            numeric = np.empty_like(theta)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                numeric[i] = (forward(_unpack(tp, p), s)[a] - forward(_unpack(tm, p), s)[a]) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum.reduce(
                [np.abs(analytic), np.abs(numeric), np.full_like(numeric, 1e-6)])
            assert rel.max() < 1e-5


def _unpack(theta, like):
    i = 0
    out = []
    for arr in (like.w1, like.b1, like.w2, like.b2):
        out.append(theta[i:i + arr.size].reshape(arr.shape))
        i += arr.size
    return QNetParams(*out)


class TestApplyGradient:
    def test_zero_scale_identity(self):
        p = init_params(seed=9)
        g = backward(p, np.full((1, 58), 0.5), [1], [1.0])
        q = apply_gradient(p, g, 0.0)
        assert np.array_equal(q.ravel(), p.ravel())

    def test_grad_equal_params_doubles(self):
        p = init_params(seed=10)
        q = apply_gradient(p, p, 1.0)
        assert np.allclose(q.ravel(), 2.0 * p.ravel())

    def test_shape_mismatch_raises(self):
        p = init_params()
        bad = QNetParams(np.zeros((3, 3)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            apply_gradient(p, bad, 1.0)

    def test_sgd_step_reduces_td_error(self):
        p = micro_params()
        s = np.array([2.0, 1.0])
        target = 1.0
        for _ in range(3):
            q = forward(p, s)[0]
            td = target - q
            p = apply_gradient(p, backward(p, s[None], [0], [1.0]), 0.05 * td)
        q_before = -8.0
        q_after = forward(p, s)[0]
        assert abs(target - q_after) < abs(target - q_before)


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        t, o = init_params(seed=11), init_params(seed=12)
        out = soft_update(t, o, 1.0)
        assert np.array_equal(out.ravel(), o.ravel())

    def test_tau_zero_keeps_target(self):
        t, o = init_params(seed=13), init_params(seed=14)
        out = soft_update(t, o, 0.0)
        assert np.array_equal(out.ravel(), t.ravel())

    def test_tau_out_of_range_raises(self):
        with pytest.raises(ValueError):
            soft_update(init_params(), init_params(), 1.5)

    def test_geometric_decay_toward_frozen_online(self):
        online = init_params(seed=15)
        target = init_params(seed=16)
        tau = 0.01
        d0 = np.linalg.norm(target.ravel() - online.ravel())
        for k in (1, 10, 50):
            t = target
            for _ in range(k):
                t = soft_update(t, online, tau)
            dk = np.linalg.norm(t.ravel() - online.ravel())
            expected = (1 - tau) ** k * d0
            assert abs(dk - expected) / expected < 1e-10

    def test_affine_in_scaling(self):
        t, o = init_params(seed=17), init_params(seed=18)
        c = 3.0
        scaled = soft_update(
            QNetParams(c * t.w1, c * t.b1, c * t.w2, c * t.b2),
            QNetParams(c * o.w1, c * o.b1, c * o.w2, c * o.b2), 0.25)
        plain = soft_update(t, o, 0.25)
        assert np.allclose(scaled.ravel(), c * plain.ravel())
