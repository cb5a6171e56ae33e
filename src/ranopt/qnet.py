"""Dense Q-network with hand-derived gradients.

A two-layer perceptron (relu hidden layer, linear output head) maps the
58-entry KPI state vector to one action value per scheduler option.
Everything runs in float64 numpy so the analytic backward pass can be held
to finite-difference accuracy and the arrays checkpoint bit-exactly.

A network is its parameter vector theta, a float64 array of N_PARAMS
entries laid out as w1, b1, w2, b2; layers(theta) is the one place that
knows this layout. A gradient is a vector of the same layout, so an SGD step
and a Polyak step are each one vector expression and a checkpoint stores one
array per network.

The output head is linear: action values are unbounded regression targets,
so a squashing head could not represent bootstrapped targets above 1.
"""

from __future__ import annotations

import numpy as np

from .kpi import N_ACTIONS, STATE_DIM

HIDDEN_DIM = 32
_B1_AT = HIDDEN_DIM * STATE_DIM
_W2_AT = _B1_AT + HIDDEN_DIM
_B2_AT = _W2_AT + N_ACTIONS * HIDDEN_DIM
N_PARAMS = _B2_AT + N_ACTIONS


def layers(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views w1 (hidden, in), b1 (hidden,), w2 (out, hidden) and b2 (out,) of
    a network vector; writing to one writes theta."""
    return (theta[:_B1_AT].reshape(HIDDEN_DIM, STATE_DIM), theta[_B1_AT:_W2_AT],
            theta[_W2_AT:_B2_AT].reshape(N_ACTIONS, HIDDEN_DIM), theta[_B2_AT:])


def init_params(seed: int = 0) -> np.ndarray:
    """A network vector: Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (STATE_DIM + HIDDEN_DIM))
    lim2 = np.sqrt(6.0 / (HIDDEN_DIM + N_ACTIONS))
    w1 = rng.uniform(-lim1, lim1, size=HIDDEN_DIM * STATE_DIM)
    w2 = rng.uniform(-lim2, lim2, size=N_ACTIONS * HIDDEN_DIM)
    return np.concatenate([w1, np.zeros(HIDDEN_DIM), w2, np.zeros(N_ACTIONS)])


def forward(theta: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Action values for one state: w2 @ relu(w1 @ s + b1) + b2."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (STATE_DIM,):
        raise ValueError(f"state has shape {state.shape}, expected ({STATE_DIM},)")
    w1, b1, w2, b2 = layers(theta)
    return w2 @ np.maximum(w1 @ state + b1, 0.0) + b2


def forward_batch(theta: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Action values for a (batch, STATE_DIM) matrix of states."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ValueError(f"states have shape {states.shape}, expected (n, {STATE_DIM})")
    w1, b1, w2, b2 = layers(theta)
    return np.maximum(states @ w1.T + b1, 0.0) @ w2.T + b2


def backward(theta: np.ndarray, states: np.ndarray, actions: np.ndarray,
             targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TD errors of a batch and the gradient they weight, from one forward pass.

    For a (batch, STATE_DIM) matrix of states and (batch,) actions and
    targets, returns td = targets - Q(states, actions) and
    sum_b td[b] * dQ(states[b], actions[b]) / dtheta as a vector laid out as
    theta. Only the selected outputs contribute, so w2/b2 rows of actions the
    batch never took are zero. The caller scales the gradient by the
    learning rate. Raises FloatingPointError on a non-finite TD error,
    before any gradient product is formed.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ValueError(f"states have shape {states.shape}, expected (n, {STATE_DIM})")
    n = len(states)
    actions, targets = np.asarray(actions), np.asarray(targets, dtype=np.float64)
    if targets.shape != (n,):
        raise ValueError(f"targets have shape {targets.shape}, expected ({n},)")
    if (actions.shape != (n,) or actions.dtype.kind not in "iu"
            or not np.all((0 <= actions) & (actions < N_ACTIONS))):
        raise ValueError(f"actions must be {n} integers in [0, {N_ACTIONS}), got {actions}")
    w1, b1, w2, b2 = layers(theta)
    z1 = states @ w1.T + b1
    hidden = np.maximum(z1, 0.0)
    td = targets - (hidden @ w2.T + b2)[np.arange(n), actions]
    if not np.isfinite(td).all():
        raise FloatingPointError(f"non-finite TD error in {td.tolist()}")
    wa = np.zeros((n, N_ACTIONS))  # each TD error at its sample's action
    wa[np.arange(n), actions] = td
    dz1 = (wa @ w2) * (z1 > 0.0)
    return td, np.concatenate([(dz1.T @ states).ravel(), dz1.sum(axis=0),
                               (wa.T @ hidden).ravel(), wa.sum(axis=0)])


def apply_gradient(theta: np.ndarray, grad: np.ndarray, scale: float) -> np.ndarray:
    """theta + scale * grad, for a gradient vector laid out as theta."""
    return theta + scale * grad


def soft_update(target: np.ndarray, online: np.ndarray, tau: float) -> np.ndarray:
    """Polyak step: (1 - tau) * target + tau * online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return (1.0 - tau) * target + tau * online
