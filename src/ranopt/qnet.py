"""Dense Q-network with hand-derived gradients.

A two-layer perceptron (relu hidden layer, linear output head) maps the
58-entry KPI state vector to one action value per scheduler option.
Everything runs in float64 numpy so the analytic backward pass can be held
to finite-difference accuracy and the arrays checkpoint bit-exactly.

A network is its parameter vector theta, a float64 array of N_PARAMS
entries laid out as w1, b1, w2, b2; layers(theta) is the one place that
knows this layout. A gradient is a vector of the same layout, so an SGD step
and a Polyak step are each one vector expression, which can write its
network in place, and a checkpoint stores one array per network. Every
function that scores a network takes its vector or the views layers(theta)
gives: a caller that scores one network many times builds them once and
keeps them valid by updating theta in place.

forward scores one state or a stack of them, each row the same bits as
alone; greedy evaluation scores its episodes' states together with it.

A learner step evaluates the online network once: forward_batch returns the
hidden activations with the action values, and backward differentiates that
pass instead of running its own, so one pass over stacked rows serves every
online value a step reads.

A learner that steps many times on batches of one shape passes its own
arrays to be written: forward_batch and backward take out=, and
apply_gradient and soft_update take scratch= for their one product besides
out=. Each checks its arguments as it does without them, and writes the same
bits into them as it would into new arrays.

The output head is linear: action values are unbounded regression targets,
so a squashing head could not represent bootstrapped targets above 1.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=16)
def row_numbers(n: int) -> np.ndarray:
    """np.arange(n), read-only, built once per n: the row numbers that
    fancy indexing pairs with a batch's columns, or a segment's offsets."""
    rows = np.arange(n)
    rows.flags.writeable = False  # shared by every call of this n
    return rows


def _layers_of(net) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layer views of a network vector, or net itself when it is such views."""
    return net if type(net) is tuple else layers(net)


def init_params(seed: int = 0) -> np.ndarray:
    """A network vector: Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (STATE_DIM + HIDDEN_DIM))
    lim2 = np.sqrt(6.0 / (HIDDEN_DIM + N_ACTIONS))
    w1 = rng.uniform(-lim1, lim1, size=HIDDEN_DIM * STATE_DIM)
    w2 = rng.uniform(-lim2, lim2, size=N_ACTIONS * HIDDEN_DIM)
    return np.concatenate([w1, np.zeros(HIDDEN_DIM), w2, np.zeros(N_ACTIONS)])


def forward(net, states: np.ndarray) -> np.ndarray:
    """Action values w2 @ relu(w1 @ s + b1) + b2 of one state, (STATE_DIM,)
    -> (N_ACTIONS,), or of each of (..., STATE_DIM) states -> (..., N_ACTIONS),
    under a network vector or its layers.

    Each state is its own matrix-vector product, so a state's values are
    the same bits alone or among others, which a matrix product over
    stacked states does not promise (see forward_batch).
    """
    states = np.ascontiguousarray(states, dtype=np.float64)  # as BLAS takes it
    if states.shape[-1:] != (STATE_DIM,):
        raise ValueError(f"states have shape {states.shape}, expected (..., {STATE_DIM})")
    w1, b1, w2, b2 = _layers_of(net)
    # one state's ndarray.dot gives matmul's bits for less call overhead
    product = np.ndarray.dot if states.ndim == 1 else _stacked_dot
    hidden = product(w1, states)
    hidden += b1
    q = product(w2, np.maximum(hidden, 0.0, out=hidden))
    q += b2
    return q


def _stacked_dot(w: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """w @ x of each of (..., k) vectors xs, one matrix-vector product each."""
    return np.matmul(w, xs[..., None])[..., 0]


def forward_batch(net, states: np.ndarray, out: tuple | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The pass of a network vector or its layers over a (batch, STATE_DIM)
    matrix of states: its hidden activations relu(states @ w1.T + b1),
    (batch, HIDDEN_DIM), and its action values, (batch, N_ACTIONS). backward
    differentiates such a pass. out, when given, is a pair of C-contiguous
    float64 arrays of those shapes, which the pass writes and returns.

    The BLAS kernel blocks its products by the batch size, so a pass over
    stacked batches rounds each row as the separate passes do only at some
    sizes.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ValueError(f"states have shape {states.shape}, expected (n, {STATE_DIM})")
    w1, b1, w2, b2 = _layers_of(net)
    hidden, q = (None, None) if out is None else out
    hidden = states.dot(w1.T, out=hidden)
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    q = hidden.dot(w2.T, out=q)
    q += b2
    return hidden, q


def backward(net, states: np.ndarray, hidden: np.ndarray, q: np.ndarray,
             actions: np.ndarray, targets: np.ndarray, out: tuple | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """TD errors of a batch and the gradient they weight, from the batch's
    forward pass: hidden and q as forward_batch(net, states) gives them, for
    a network vector theta or its layers.

    For a (batch, STATE_DIM) matrix of states and (batch,) actions and
    targets, returns td = targets - q[b, actions[b]] and
    sum_b td[b] * dQ(states[b], actions[b]) / dtheta as a new vector laid out
    as theta, each layer's block written by its product or sum. No network
    is evaluated here, so a caller that needs other action values too forms
    them in the same pass. Only the selected outputs contribute, so w2/b2
    rows of actions the batch never took are zero. The caller scales the
    gradient by the learning rate. Raises FloatingPointError on a non-finite
    TD error, before any gradient product is formed.

    out, when given, is a pair of a (batch,) float64 array for td and a
    gradient vector or its layer views, as layers gives them, which are
    written and returned as given.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ValueError(f"states have shape {states.shape}, expected (n, {STATE_DIM})")
    n = len(states)
    if np.shape(hidden) != (n, HIDDEN_DIM) or np.shape(q) != (n, N_ACTIONS):
        raise ValueError(f"a pass of hidden {np.shape(hidden)} and q {np.shape(q)} is not "
                         f"that of {n} states: expected ({n}, {HIDDEN_DIM}) and ({n}, {N_ACTIONS})")
    actions, targets = np.asarray(actions), np.asarray(targets, dtype=np.float64)
    if targets.shape != (n,):
        raise ValueError(f"targets have shape {targets.shape}, expected ({n},)")
    if (actions.shape != (n,) or actions.dtype.kind not in "iu"  # a negative one wraps in uint64
            or np.count_nonzero(actions.astype(np.uint64) >= N_ACTIONS)):
        raise ValueError(f"actions must be {n} integers in [0, {N_ACTIONS}), got {actions}")
    td, grad = (None, np.empty(N_PARAMS)) if out is None else out
    picked = row_numbers(n), actions
    td = np.subtract(targets, q[picked], out=td)
    if not np.logical_and.reduce(np.isfinite(td)):
        raise FloatingPointError(f"non-finite TD error in {td.tolist()}")
    wa = np.zeros((n, N_ACTIONS))  # each TD error at its sample's action
    wa[picked] = td
    dz1 = wa.dot(_layers_of(net)[2])
    dz1 *= hidden > 0.0  # relu's derivative: hidden > 0 exactly where its input is
    gw1, gb1, gw2, gb2 = _layers_of(grad)
    dz1.T.dot(states, out=gw1)  # the method skips np.dot's dispatch
    np.add.reduce(dz1, axis=0, out=gb1)
    wa.T.dot(hidden, out=gw2)
    np.add.reduce(wa, axis=0, out=gb2)
    return td, grad


def apply_gradient(theta: np.ndarray, grad: np.ndarray, scale: float,
                   out: np.ndarray | None = None, scratch: np.ndarray | None = None
                   ) -> np.ndarray:
    """theta + scale * grad, for a gradient vector laid out as theta; in out
    when given, which may be theta itself. scratch, when given, is a vector
    of theta's shape, not out, that takes scale * grad."""
    return np.add(theta, np.multiply(grad, scale, out=scratch), out=out)


def soft_update(target: np.ndarray, online: np.ndarray, tau: float,
                out: np.ndarray | None = None, scratch: np.ndarray | None = None
                ) -> np.ndarray:
    """Polyak step: (1 - tau) * target + tau * online; in out when given,
    which may be target itself. scratch, when given, is a vector of target's
    shape, not out, that takes tau * online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    step = np.multiply(target, 1.0 - tau, out=out)
    step += np.multiply(online, tau, out=scratch)
    return step
