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


def _check_state(params: QNetParams, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (params.w1.shape[1],):
        raise ValueError(f"state has shape {state.shape}, expected ({params.w1.shape[1]},)")
    return state


def forward(params: QNetParams, state: np.ndarray) -> np.ndarray:
    """Action values for one state: w2 @ relu(w1 @ s + b1) + b2."""
    state = _check_state(params, state)
    hidden = np.maximum(params.w1 @ state + params.b1, 0.0)
    return params.w2 @ hidden + params.b2


def forward_batch(params: QNetParams, states: np.ndarray) -> np.ndarray:
    """Action values for a (batch, state_dim) matrix of states."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != params.w1.shape[1]:
        raise ValueError(f"states have shape {states.shape}, expected (n, {params.w1.shape[1]})")
    hidden = np.maximum(states @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2.T + params.b2


def backward(params: QNetParams, state: np.ndarray, action_index: int) -> Gradient:
    """Gradient of Q(state, action) with respect to every parameter.

    Only the selected output contributes; rows of w2/b2 for other actions are
    zero. The caller scales the result by the TD error and the learning rate.
    """
    state = _check_state(params, state)
    n_actions = params.w2.shape[0]
    if not 0 <= action_index < n_actions:
        raise ValueError(f"action_index {action_index} outside [0, {n_actions})")
    z1 = params.w1 @ state + params.b1
    hidden = np.maximum(z1, 0.0)
    gw2 = np.zeros_like(params.w2)
    gb2 = np.zeros_like(params.b2)
    gw2[action_index] = hidden
    gb2[action_index] = 1.0
    dz1 = params.w2[action_index] * (z1 > 0.0)
    return QNetParams(w1=np.outer(dz1, state), b1=dz1, w2=gw2, b2=gb2)


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
