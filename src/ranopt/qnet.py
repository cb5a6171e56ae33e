"""Dense Q-network with hand-derived gradients.

A two-layer perceptron (relu hidden layer, linear output head) maps the
58-entry KPI state vector to one action value per scheduler option.
Everything runs in float64 numpy so the analytic backward pass can be held
to finite-difference accuracy and the arrays checkpoint bit-exactly.

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
    """Weights of one network: w1 (hidden, in), b1 (hidden,), w2 (out, hidden), b2 (out,)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.w1.shape[1], self.w1.shape[0], self.w2.shape[0]

    def copy(self) -> "QNetParams":
        return QNetParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def ravel(self) -> np.ndarray:
        """Flatten all parameters into one vector (w1, b1, w2, b2 order)."""
        return np.concatenate([self.w1.ravel(), self.b1.ravel(), self.w2.ravel(), self.b2.ravel()])


# A gradient has the same layout as the parameters it differentiates.
Gradient = QNetParams


def init_params(seed: int = 0, state_dim: int = STATE_DIM, hidden_dim: int = HIDDEN_DIM,
                n_actions: int = N_ACTIONS) -> QNetParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (state_dim + hidden_dim))
    lim2 = np.sqrt(6.0 / (hidden_dim + n_actions))
    return QNetParams(
        w1=rng.uniform(-lim1, lim1, size=(hidden_dim, state_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-lim2, lim2, size=(n_actions, hidden_dim)),
        b2=np.zeros(n_actions),
    )


def forward(params: QNetParams, state: np.ndarray) -> np.ndarray:
    """Action values for one state: w2 @ relu(w1 @ s + b1) + b2."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (params.w1.shape[1],):
        raise ValueError(f"state has shape {state.shape}, expected ({params.w1.shape[1]},)")
    hidden = np.maximum(params.w1 @ state + params.b1, 0.0)
    return params.w2 @ hidden + params.b2


def forward_batch(params: QNetParams, states: np.ndarray) -> np.ndarray:
    """Action values for a (batch, state_dim) matrix of states."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != params.w1.shape[1]:
        raise ValueError(f"states have shape {states.shape}, expected (n, {params.w1.shape[1]})")
    hidden = np.maximum(states @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2.T + params.b2


def backward(params: QNetParams, states: np.ndarray, actions: np.ndarray,
             weights: np.ndarray) -> Gradient:
    """Weighted sum over a batch of the gradients of Q(states[b], actions[b]).

    Returns sum_b weights[b] * dQ(states[b], actions[b]) / dtheta for a
    (batch, state_dim) matrix of states and (batch,) actions and weights.
    Only the selected outputs contribute, so w2/b2 rows of actions the batch
    never took are zero. The caller passes TD errors as the weights and
    scales the result by the learning rate.
    """
    states = np.asarray(states, dtype=np.float64)
    n_in, n_actions = params.w1.shape[1], params.w2.shape[0]
    if states.ndim != 2 or states.shape[1] != n_in:
        raise ValueError(f"states have shape {states.shape}, expected (n, {n_in})")
    n = len(states)
    actions, weights = np.asarray(actions), np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({n},)")
    if (actions.shape != (n,) or actions.dtype.kind not in "iu"
            or not np.all((0 <= actions) & (actions < n_actions))):
        raise ValueError(f"actions must be {n} integers in [0, {n_actions}), got {actions}")
    z1 = states @ params.w1.T + params.b1
    wa = np.zeros((n, n_actions))  # each weight at its sample's action
    wa[np.arange(n), actions] = weights
    dz1 = (wa @ params.w2) * (z1 > 0.0)
    return QNetParams(w1=dz1.T @ states, b1=dz1.sum(axis=0),
                      w2=wa.T @ np.maximum(z1, 0.0), b2=wa.sum(axis=0))


def apply_gradient(params: QNetParams, grad: Gradient, scale: float) -> QNetParams:
    """params + scale * grad, elementwise; scale carries learning rate and TD error."""
    for name in ("w1", "b1", "w2", "b2"):
        if getattr(params, name).shape != getattr(grad, name).shape:
            raise ValueError(f"gradient {name} shape {getattr(grad, name).shape} does not match "
                             f"params {getattr(params, name).shape}")
    return QNetParams(
        w1=params.w1 + scale * grad.w1,
        b1=params.b1 + scale * grad.b1,
        w2=params.w2 + scale * grad.w2,
        b2=params.b2 + scale * grad.b2,
    )


def soft_update(target: QNetParams, online: QNetParams, tau: float) -> QNetParams:
    """Polyak step: (1 - tau) * target + tau * online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return QNetParams(
        w1=(1.0 - tau) * target.w1 + tau * online.w1,
        b1=(1.0 - tau) * target.b1 + tau * online.b1,
        w2=(1.0 - tau) * target.w2 + tau * online.w2,
        b2=(1.0 - tau) * target.b2 + tau * online.b2,
    )
