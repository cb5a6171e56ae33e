"""Dense Q-network with hand-derived gradients.

A two-layer perceptron (relu hidden layer, linear output head) maps the
58-entry KPI state vector to one action value per scheduler option.
Everything runs in float64 numpy so the analytic backward pass can be held
to finite-difference accuracy and the arrays checkpoint bit-exactly.

A network is one contiguous parameter vector theta, laid out as w1, b1, w2,
b2; a gradient is a vector of the same layout, so an SGD step and a Polyak
step are each one vector expression and a checkpoint stores one array per
network.

The output head is linear: action values are unbounded regression targets,
so a squashing head could not represent bootstrapped targets above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kpi import N_ACTIONS, STATE_DIM

HIDDEN_DIM = 32


@dataclass
class QNetParams:
    """One network: theta holds w1 (hidden, in), b1 (hidden,), w2 (out, hidden)
    and b2 (out,) in that order, for dims = (in, hidden, out).

    w1, b1, w2 and b2 are views of theta, made once here, so writing to one
    writes theta.
    """

    theta: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.dims = n_in, hidden, n_out = tuple(int(d) for d in self.dims)
        size = hidden * (n_in + 1) + n_out * (hidden + 1)
        if self.theta.shape != (size,) or self.theta.dtype != np.float64:
            raise ValueError(f"network parameters are {self.theta.dtype}{list(self.theta.shape)}, "
                             f"expected float64[{size}] for dims {self.dims}")
        b1_at = hidden * n_in
        w2_at = b1_at + hidden
        self.w1 = self.theta[:b1_at].reshape(hidden, n_in)
        self.b1 = self.theta[b1_at:w2_at]
        self.w2 = self.theta[w2_at:w2_at + n_out * hidden].reshape(n_out, hidden)
        self.b2 = self.theta[w2_at + n_out * hidden:]

    def copy(self) -> "QNetParams":
        return QNetParams(self.theta.copy(), self.dims)


def init_params(seed: int = 0, state_dim: int = STATE_DIM, hidden_dim: int = HIDDEN_DIM,
                n_actions: int = N_ACTIONS) -> QNetParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (state_dim + hidden_dim))
    lim2 = np.sqrt(6.0 / (hidden_dim + n_actions))
    w1 = rng.uniform(-lim1, lim1, size=hidden_dim * state_dim)
    w2 = rng.uniform(-lim2, lim2, size=n_actions * hidden_dim)
    theta = np.concatenate([w1, np.zeros(hidden_dim), w2, np.zeros(n_actions)])
    return QNetParams(theta, (state_dim, hidden_dim, n_actions))


def forward(params: QNetParams, state: np.ndarray) -> np.ndarray:
    """Action values for one state: w2 @ relu(w1 @ s + b1) + b2."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (params.dims[0],):
        raise ValueError(f"state has shape {state.shape}, expected ({params.dims[0]},)")
    hidden = np.maximum(params.w1 @ state + params.b1, 0.0)
    return params.w2 @ hidden + params.b2


def forward_batch(params: QNetParams, states: np.ndarray) -> np.ndarray:
    """Action values for a (batch, state_dim) matrix of states."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != params.dims[0]:
        raise ValueError(f"states have shape {states.shape}, expected (n, {params.dims[0]})")
    hidden = np.maximum(states @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2.T + params.b2


def backward(params: QNetParams, states: np.ndarray, actions: np.ndarray,
             targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TD errors of a batch and the gradient they weight, from one forward pass.

    For a (batch, state_dim) matrix of states and (batch,) actions and
    targets, returns td = targets - Q(states, actions) and
    sum_b td[b] * dQ(states[b], actions[b]) / dtheta as a vector laid out as
    theta. Only the selected outputs contribute, so w2/b2 rows of actions the
    batch never took are zero. The caller scales the gradient by the
    learning rate. Raises FloatingPointError on a non-finite TD error,
    before any gradient product is formed.
    """
    states = np.asarray(states, dtype=np.float64)
    n_in, _, n_actions = params.dims
    if states.ndim != 2 or states.shape[1] != n_in:
        raise ValueError(f"states have shape {states.shape}, expected (n, {n_in})")
    n = len(states)
    actions, targets = np.asarray(actions), np.asarray(targets, dtype=np.float64)
    if targets.shape != (n,):
        raise ValueError(f"targets have shape {targets.shape}, expected ({n},)")
    if (actions.shape != (n,) or actions.dtype.kind not in "iu"
            or not np.all((0 <= actions) & (actions < n_actions))):
        raise ValueError(f"actions must be {n} integers in [0, {n_actions}), got {actions}")
    z1 = states @ params.w1.T + params.b1
    hidden = np.maximum(z1, 0.0)
    td = targets - (hidden @ params.w2.T + params.b2)[np.arange(n), actions]
    if not np.isfinite(td).all():
        raise FloatingPointError(f"non-finite TD error in {td.tolist()}")
    wa = np.zeros((n, n_actions))  # each TD error at its sample's action
    wa[np.arange(n), actions] = td
    dz1 = (wa @ params.w2) * (z1 > 0.0)
    return td, np.concatenate([(dz1.T @ states).ravel(), dz1.sum(axis=0),
                               (wa.T @ hidden).ravel(), wa.sum(axis=0)])


def apply_gradient(params: QNetParams, grad: np.ndarray, scale: float) -> QNetParams:
    """params + scale * grad, for a gradient vector laid out as theta."""
    return QNetParams(params.theta + scale * grad, params.dims)


def soft_update(target: QNetParams, online: QNetParams, tau: float) -> QNetParams:
    """Polyak step: (1 - tau) * target + tau * online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return QNetParams((1.0 - tau) * target.theta + tau * online.theta, target.dims)
