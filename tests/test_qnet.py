import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranopt.qnet import (HIDDEN_DIM, N_PARAMS, apply_gradient, backward, forward,
                         forward_batch, init_params, layers, soft_update)


def net(w1, b1, w2, b2):
    """A network vector from its four arrays."""
    return np.concatenate([np.ravel(w1), b1, np.ravel(w2), b2])


def micro_params():
    # 2 inputs -> 1 hidden unit -> 2 outputs, small enough to evaluate by
    # hand: every other weight and bias is zero, so the other hidden units
    # stay at relu(0) = 0 and the other outputs at 0
    theta = np.zeros(N_PARAMS)
    w1, b1, w2, b2 = layers(theta)
    w1[0, :2] = [3.0, -1.0]
    b1[0] = 0.5
    w2[:2, 0] = [-1.5, 2.0]
    b2[:2] = [0.25, -0.75]
    return theta


def micro_state(x):
    """A 2-entry input of the micro network, zero-padded to a state."""
    return np.pad(np.asarray(x, dtype=float), (0, 56))


class TestLayout:
    def test_views_of_theta_in_order(self):
        theta = init_params(seed=5)
        parts = layers(theta)
        assert [a.shape for a in parts] == [(32, 58), (32,), (5, 32), (5,)]
        assert all(np.shares_memory(a, theta) for a in parts)
        assert np.concatenate([a.ravel() for a in parts]).tobytes() == theta.tobytes()


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_params(seed=7), init_params(seed=7)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(layers(init_params(0))[0], layers(init_params(1))[0])

    def test_biases_zero(self):
        _, b1, _, b2 = layers(init_params(seed=3))
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)

    def test_weight_mean_near_zero(self):
        w1, _, w2, _ = layers(init_params(seed=0))
        weights = np.concatenate([w1.ravel(), w2.ravel()])
        assert abs(weights.mean()) < 0.02

    def test_shapes(self):
        theta = init_params()
        assert theta.shape == (N_PARAMS,) == (32 * 58 + 32 + 5 * 32 + 5,)
        assert theta.dtype == np.float64


class TestForward:
    def test_layers_score_as_the_vector(self):
        p = init_params(seed=23)
        states = np.random.default_rng(24).uniform(0, 1, (3, 58))
        assert forward(layers(p), states).tobytes() == forward(p, states).tobytes()
        for got, want in zip(forward_batch(layers(p), states), forward_batch(p, states)):
            assert got.tobytes() == want.tobytes()
        hidden, q = forward_batch(p, states)
        for got, want in zip(backward(layers(p), states, hidden, q, [0, 4, 2], [1.0, 0.0, -1.0]),
                             backward(p, states, hidden, q, [0, 4, 2], [1.0, 0.0, -1.0])):
            assert got.tobytes() == want.tobytes()

    def test_zero_params_zero_output(self):
        q = forward(np.zeros(N_PARAMS), np.ones(58))
        assert np.all(q == 0.0)

    def test_head_linearity(self):
        p = init_params(seed=1)
        s = np.random.default_rng(2).uniform(0, 1, 58)
        q = forward(p, s)
        w1, b1, w2, b2 = layers(p)
        doubled = net(w1, b1, 2.0 * w2, 2.0 * b2)
        assert np.allclose(forward(doubled, s), 2.0 * q)

    def test_micro_network_hand_evaluation(self):
        p = micro_params()
        # z1 = 3*2 - 1*1 + 0.5 = 5.5 -> relu 5.5
        # q = (-1.5*5.5 + 0.25, 2.0*5.5 - 0.75) = (-8.0, 10.25)
        q = forward(p, micro_state([2.0, 1.0]))
        assert np.allclose(q, [-8.0, 10.25, 0.0, 0.0, 0.0])
        # negative preactivation: z1 = 3*(-1) - 1*0 + 0.5 = -2.5 -> relu 0
        q = forward(p, micro_state([-1.0, 0.0]))
        assert np.allclose(q, [0.25, -0.75, 0.0, 0.0, 0.0])

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            forward(init_params(), np.zeros(57))

    @pytest.mark.parametrize("rows", [1, 2, 7, 10, 13])
    def test_rows_are_each_state_alone_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        p = init_params(seed=rows) * rng.uniform(0.5, 4.0)
        p[-5:] = rng.normal(size=5)
        states = rng.uniform(-1.0, 2.0, size=(2, rows, 58))
        q = forward(p, states)
        assert q.shape == (2, rows, 5)
        w1, b1, w2, b2 = layers(p)
        for state, values in zip(states.reshape(-1, 58), q.reshape(-1, 5)):
            # the one-state pass: a matrix-vector product per layer
            assert values.tobytes() == forward(p, state).tobytes()
            alone = w2.dot(np.maximum(w1.dot(state) + b1, 0.0)) + b2
            assert values.tobytes() == alone.tobytes()

    def test_batch_matches_single(self):
        p = init_params(seed=4)
        states = np.random.default_rng(5).uniform(0, 1, size=(6, 58))
        hidden, batch = forward_batch(p, states)
        w1, b1, _, _ = layers(p)
        for i in range(6):
            assert np.allclose(batch[i], forward(p, states[i]))
            assert np.allclose(hidden[i], np.maximum(w1 @ states[i] + b1, 0.0))

    @pytest.mark.parametrize("rows", [1, 16, 32])
    def test_batch_out_is_written_with_the_same_bits(self, rows):
        p = init_params(seed=rows)
        states = np.random.default_rng(rows).uniform(0, 1, size=(rows, 58))
        out = np.full((rows, HIDDEN_DIM), np.nan), np.full((rows, 5), np.nan)
        got = forward_batch(layers(p), states, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in forward_batch(p, states)]


def backward_one(p, state, action):
    """Reference: the gradient of Q(state, action) for one sample, laid out as theta."""
    w1, b1, w2, b2 = layers(p)
    z1 = w1 @ state + b1
    gw2 = np.zeros_like(w2)
    gb2 = np.zeros_like(b2)
    gw2[action] = np.maximum(z1, 0.0)
    gb2[action] = 1.0
    dz1 = w2[action] * (z1 > 0.0)
    return net(np.outer(dz1, state), dz1, gw2, gb2)


def backward_loop(p, states, actions, weights):
    """Reference for the batched backward: the weighted per-sample gradients
    summed one sample at a time."""
    total = np.zeros_like(p)
    for state, action, w in zip(states, actions, weights):
        total += w * backward_one(p, state, int(action))
    return total


def q_of(p, states, actions):
    """Reference: Q(states[b], actions[b]) one sample at a time."""
    return np.array([forward(p, s)[a] for s, a in zip(states, actions)])


@st.composite
def batches(draw):
    """Params with some dead hidden units, and a batch with repeated actions,
    with targets at Q plus weights that include zero and negative ones."""
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = init_params(seed=draw(st.integers(0, 99)))
    b1 = layers(p)[1]
    b1[:] = rng.uniform(-0.5, 0.5, HIDDEN_DIM)
    dead = rng.permutation(HIDDEN_DIM)[:draw(st.integers(0, HIDDEN_DIM))]
    b1[dead] = -100.0  # far below any w1 @ s of a state in [0, 1]^58
    pool = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    actions = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    weight = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-10.0, 10.0)
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    states = rng.uniform(0.0, 1.0, (n, 58))
    return p, states, actions, forward_batch(p, states)[1][np.arange(n), actions] + weights


def unit_td(p, states, actions):
    """backward at targets one above Q, so that td is about 1."""
    hidden, q = forward_batch(p, states)
    return backward(p, states, hidden, q, actions, q[np.arange(len(states)), actions] + 1.0)


class TestBackward:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(batch=batches())
    def test_matches_per_sample_sum(self, batch):
        p, states, actions, targets = batch
        td, got = backward(p, states, *forward_batch(p, states), actions, targets)
        assert np.allclose(td, targets - q_of(p, states, actions), rtol=0.0, atol=1e-12)
        want = backward_loop(p, states, actions, td)
        # rtol 1e-12 of each entry's magnitude: the gradient of a network of
        # |params| at |states|, whose hidden layer |w1| @ |s| + |b1| bounds the
        # rounding of z1 (gemm and gemv round it differently); an entry with
        # no terms must match exactly
        magnitude = np.abs(p)
        scale = sum(abs(w) * backward_one(magnitude, np.abs(s), a)
                    for s, a, w in zip(states, actions, td))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(batch=batches(), as_layers=st.booleans())
    def test_out_is_written_with_the_same_bits(self, batch, as_layers):
        p, states, actions, targets = batch
        want = backward(p, states, *forward_batch(p, states), actions, targets)
        td, grad = np.full(len(states), np.nan), np.full(N_PARAMS, np.nan)
        out = td, (layers(grad) if as_layers else grad)
        got = backward(p, states, *forward_batch(p, states), actions, targets, out=out)
        assert got[0] is td and got[1] is out[1]
        assert td.tobytes() == want[0].tobytes() and grad.tobytes() == want[1].tobytes()

    def test_zero_state_w1_gradient_zero(self):
        p = init_params(seed=6)
        layers(p)[1][:] = 0.3  # keep hidden units live so b1 receives gradient
        gw1, gb1, _, _ = layers(unit_td(p, np.zeros((1, 58)), [2])[1])
        assert np.all(gw1 == 0.0)
        assert np.any(gb1 != 0.0)

    def test_nonselected_outputs_zero(self):
        p = init_params(seed=8)
        td, grad = unit_td(p, np.random.default_rng(0).uniform(0, 1, (1, 58)), [3])
        _, _, gw2, gb2 = layers(grad)
        for a in range(5):
            if a != 3:
                assert np.all(gw2[a] == 0.0) and gb2[a] == 0.0
        assert gb2[3] == td[0] != 0.0

    def test_bad_action_raises(self):
        for actions in ([5], [-1], [2.0], [[2]], [1, 2]):
            with pytest.raises(ValueError, match="actions"):
                backward(init_params(), np.zeros((1, 58)), np.zeros((1, 32)), np.zeros((1, 5)),
                         actions, [1.0])

    def test_bad_shapes_raise(self):
        pass_of_two = np.zeros((2, 32)), np.zeros((2, 5))
        for states in (np.zeros(58), np.zeros((2, 57)), np.zeros((1, 2, 58))):
            with pytest.raises(ValueError, match="states"):
                backward(init_params(), states, *pass_of_two, [0, 0], [1.0, 1.0])
        for targets in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0):
            with pytest.raises(ValueError, match="targets"):
                backward(init_params(), np.zeros((2, 58)), *pass_of_two, [0, 1], targets)
        # a pass of other rows, or of another layer width, is not the states' pass
        for hidden, q in ((np.zeros((3, 32)), np.zeros((3, 5))),
                          (np.zeros((2, 5)), np.zeros((2, 5))),
                          (np.zeros((2, 32)), np.zeros((2, 32)))):
            with pytest.raises(ValueError, match="pass"):
                backward(init_params(), np.zeros((2, 58)), hidden, q, [0, 1], [1.0, 1.0])

    @pytest.mark.parametrize("b2, target", [(np.inf, 1.0), (0.0, np.nan), (0.0, -np.inf)])
    def test_non_finite_td_error_raises_before_gradient(self, b2, target):
        p = init_params(seed=7)
        layers(p)[3][:] = b2
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an inf TD error times a zero weight would warn
            with pytest.raises(FloatingPointError, match="non-finite TD error"):
                states = np.full((2, 58), 0.5)
                backward(p, states, *forward_batch(p, states), [0, 1], [target, 1.0])
            grad = np.zeros(N_PARAMS)
            with pytest.raises(FloatingPointError, match="non-finite TD error"):
                backward(p, states, *forward_batch(p, states), [0, 1], [target, 1.0],
                         out=(np.empty(2), grad))
        assert not grad.any()  # refused before a gradient block was written

    def test_matches_finite_differences(self):
        # spot version of the acceptance gradient check, through a batch of one
        rng = np.random.default_rng(42)
        h = 1e-5
        for trial in range(5):
            p = init_params(seed=trial)
            s = rng.uniform(0.0, 1.0, 58)
            a = int(rng.integers(0, 5))
            td, grad = unit_td(p, s[None], [a])
            analytic = grad / td[0]
            numeric = np.empty_like(p)
            for i in range(p.size):
                tp, tm = p.copy(), p.copy()
                tp[i] += h
                tm[i] -= h
                numeric[i] = (forward(tp, s)[a] - forward(tm, s)[a]) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum.reduce(
                [np.abs(analytic), np.abs(numeric), np.full_like(numeric, 1e-6)])
            assert rel.max() < 1e-5


class TestApplyGradient:
    def test_zero_scale_identity(self):
        p = init_params(seed=9)
        _, g = unit_td(p, np.full((1, 58), 0.5), [1])
        q = apply_gradient(p, g, 0.0)
        assert np.array_equal(q, p)

    def test_grad_equal_params_doubles(self):
        p = init_params(seed=10)
        q = apply_gradient(p, p, 1.0)
        assert np.allclose(q, 2.0 * p)

    def test_shape_mismatch_raises(self):
        p = init_params()
        with pytest.raises(ValueError):
            apply_gradient(p, np.zeros(12), 1.0)

    def test_in_place_step_is_the_new_vector(self):
        p, g = init_params(seed=19), init_params(seed=20)
        want = p + 1e-3 * g
        views = layers(p)
        assert apply_gradient(p, g, 1e-3, out=p) is p
        assert p.tobytes() == want.tobytes()
        assert views[0].tobytes() == layers(want)[0].tobytes()  # the views see the step

    def test_scratch_takes_the_product(self):
        p, g = init_params(seed=23), init_params(seed=24)
        want, scratch = p + 1e-3 * g, np.empty(N_PARAMS)
        assert apply_gradient(p, g, 1e-3, out=p, scratch=scratch) is p
        assert p.tobytes() == want.tobytes()
        assert scratch.tobytes() == (1e-3 * g).tobytes()

    def test_sgd_step_reduces_td_error(self):
        p = micro_params()
        s = micro_state([2.0, 1.0])
        target = 1.0
        for _ in range(3):
            _, g = backward(p, s[None], *forward_batch(p, s[None]), [0], [target])
            p = apply_gradient(p, g, 0.05)
        q_before = -8.0
        q_after = forward(p, s)[0]
        assert abs(target - q_after) < abs(target - q_before)


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        t, o = init_params(seed=11), init_params(seed=12)
        out = soft_update(t, o, 1.0)
        assert np.array_equal(out, o)

    def test_tau_zero_keeps_target(self):
        t, o = init_params(seed=13), init_params(seed=14)
        out = soft_update(t, o, 0.0)
        assert np.array_equal(out, t)

    def test_tau_out_of_range_raises(self):
        with pytest.raises(ValueError):
            soft_update(init_params(), init_params(), 1.5)

    def test_in_place_step_is_the_new_vector(self):
        t, o = init_params(seed=21), init_params(seed=22)
        want = (1.0 - 0.01) * t + 0.01 * o
        assert soft_update(t, o, 0.01, out=t) is t
        assert t.tobytes() == want.tobytes()

    def test_scratch_takes_the_product(self):
        t, o = init_params(seed=25), init_params(seed=26)
        want, scratch = (1.0 - 0.01) * t + 0.01 * o, np.empty(N_PARAMS)
        assert soft_update(t, o, 0.01, out=t, scratch=scratch) is t
        assert t.tobytes() == want.tobytes()
        assert scratch.tobytes() == (0.01 * o).tobytes()

    def test_geometric_decay_toward_frozen_online(self):
        online = init_params(seed=15)
        target = init_params(seed=16)
        tau = 0.01
        d0 = np.linalg.norm(target - online)
        for k in (1, 10, 50):
            t = target
            for _ in range(k):
                t = soft_update(t, online, tau)
            dk = np.linalg.norm(t - online)
            expected = (1 - tau) ** k * d0
            assert abs(dk - expected) / expected < 1e-10

    def test_affine_in_scaling(self):
        t, o = init_params(seed=17), init_params(seed=18)
        c = 3.0
        scaled = soft_update(c * t, c * o, 0.25)
        plain = soft_update(t, o, 0.25)
        assert np.allclose(scaled, c * plain)
