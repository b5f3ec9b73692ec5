"""From-scratch multilayer perceptron: tanh on every layer (output included),
mean-squared-error loss against {0,1} one-hot targets, mini-batch gradient
descent with momentum.  Everything is plain numpy and deterministic per seed.

Training steps the first layer in the row space of the training set, as
``W0 = W0_init + C X`` with one coefficient per training row, and steps every
parameter through one flat buffer (see ``train``).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

MODEL_FORMAT = "chanident-mlp-v2"
# The most weights a network may have: 134 MB per float64 copy, 54 times the
# 312 720 of the experiment's network.
MAX_WEIGHTS = 2 ** 24


@dataclass
class MLPParams:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]  # weights[h]: (layer_sizes[h+1], layer_sizes[h])
    biases: list[np.ndarray]

    def copy(self) -> "MLPParams":
        return MLPParams(self.layer_sizes,
                         [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 2000
    batch_size: int = 32
    seed: int = 0
    # early stop: quit when the best epoch loss has not improved by
    # plateau_rel_tol (relative) for plateau_patience epochs
    plateau_patience: int = 100
    plateau_rel_tol: float = 1e-4

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if not 0 <= self.plateau_rel_tol < 1:
            raise ValueError("plateau_rel_tol must lie in [0, 1)")


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: tuple[float, ...]
    final_accuracy: float
    # 1-based epoch whose loss last beat the best by plateau_rel_tol (the
    # reference the plateau stop counts from); 0 if none did
    best_epoch: int
    stopped_on: str  # "plateau" or "epoch_limit"


def _valid_sizes(sizes) -> bool:
    """Two or more layer widths, each an int >= 1.  Not int(): the model's
    fingerprint records the sizes as given, so 16.7 or True must not quietly
    build a layer of 16 or 1."""
    return len(sizes) >= 2 and all(type(s) is int and s >= 1 for s in sizes)


def init_mlp(layer_sizes, seed: int) -> MLPParams:
    """Glorot-uniform weights (+/- sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = tuple(layer_sizes)
    if not _valid_sizes(sizes):
        raise ValueError(f"layer sizes must be >= 2 ints >= 1, got {list(sizes)}")
    count = sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))
    if count > MAX_WEIGHTS:
        raise ValueError(f"layer sizes {list(sizes)} ask for {count} weights, "
                         f"more than {MAX_WEIGHTS}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLPParams(sizes, weights, biases)


def _activations(params: MLPParams, z0: np.ndarray) -> list[np.ndarray]:
    """The outputs of every layer, given the first layer's pre-activation."""
    acts = [np.tanh(z0)]
    for w, b in zip(params.weights[1:], params.biases[1:]):
        acts.append(np.tanh(acts[-1] @ w.T + b))
    return acts


def _output(params: MLPParams, x: np.ndarray) -> np.ndarray:
    return _activations(params, x @ params.weights[0].T + params.biases[0])[-1]


def forward(params: MLPParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.layer_sizes[0],):
        raise ValueError(f"input length {x.shape} != {params.layer_sizes[0]}")
    return _output(params, x[None, :])[0]


def batch_loss(params: MLPParams, x: np.ndarray, t: np.ndarray) -> float:
    return float(np.mean((_output(params, x) - t) ** 2))


def _backprop(params: MLPParams, z0: np.ndarray, t: np.ndarray, grad_w, grad_b):
    """Backpropagation from the first layer's pre-activation ``z0``.

    Writes dloss/dW[h] of the layers h >= 1 into ``grad_w[h - 1]`` and
    dloss/dB[h] of every layer into ``grad_b[h]``, and returns the batch
    loss and delta1 = dloss/dz0.  The first layer's weight gradient is
    delta1^T x, which the caller forms from its own inputs.
    """
    acts = _activations(params, z0)
    out = acts[-1]
    err = out - t
    sq = err ** 2
    loss = float(np.add.reduce(sq, axis=None)) / sq.size  # np.mean's bits, faster
    delta = 2.0 / out.size * err * (1.0 - out ** 2)
    for h in range(len(params.weights) - 1, 0, -1):
        np.matmul(delta.T, acts[h - 1], out=grad_w[h - 1])
        np.add.reduce(delta, axis=0, out=grad_b[h])
        delta = (delta @ params.weights[h]) * (1.0 - acts[h - 1] ** 2)
    np.add.reduce(delta, axis=0, out=grad_b[0])
    return loss, delta


def _check_batch(params: MLPParams, x, t) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``t`` as 2-D float arrays, refused unless they are a
    non-empty, finite batch of inputs and targets that fits the network."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if (x.ndim != 2 or t.ndim != 2 or x.shape[1] != params.layer_sizes[0]
            or t.shape[1] != params.layer_sizes[-1]):
        raise ValueError("batch dimensions do not match the network")
    if x.shape[0] != t.shape[0]:
        raise ValueError("inputs and targets must pair up")
    if not (np.isfinite(x).all() and np.isfinite(t).all()):
        raise ValueError("inputs and targets must be finite")
    return x, t


def gradients(params: MLPParams, x: np.ndarray, t: np.ndarray):
    """Analytic gradient of the mean-over-batch-and-output MSE loss."""
    x, t = _check_batch(params, x, t)
    grad_w = [np.empty_like(w) for w in params.weights[1:]]
    grad_b = [np.empty_like(b) for b in params.biases]
    _, delta = _backprop(params, x @ params.weights[0].T + params.biases[0], t, grad_w, grad_b)
    return [delta.T @ x] + grad_w, grad_b


def train(params: MLPParams, features: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> tuple[MLPParams, TrainReport]:
    """Mini-batch gradient descent with momentum; returns fresh parameters.

    Each step computes ``v = momentum * v - learning_rate * g; p += v`` for
    every weight and bias array.  The first layer is kept in coefficient
    form, ``W0 = W0_init + C X``, with ``X`` the n x d training matrix and
    ``C`` an h1 x n coefficient matrix with its own velocity: every
    gradient delta1^T x[idx] is a combination of training rows, so the
    step on ``W0`` is the step on ``C`` with delta1^T written into the
    batch's columns ``idx`` (a batch is a slice of a permutation, so the
    columns are distinct).  The pre-activation x[idx] W0^T is then
    ``H[idx] + K[idx] C^T`` from ``H = X W0_init^T`` and the Gram matrix
    ``K = X X^T``, both computed once, and ``W0`` is formed once at the
    end.  The parameters are those of the direct form in real arithmetic;
    only the rounding differs.

    ``C``, the later weights and every bias live in one flat buffer, as do
    their velocities and gradients, so a step is four numpy calls over the
    whole buffer: the per-element arithmetic of stepping each array on its
    own, with a column of ``C`` outside ``idx`` given a zero gradient.

    A step costs O(batch * n * h1) for the first layer, against
    O(batch * d * h1) for the direct form, and holds the n x n Gram matrix
    in memory.  A training set with more rows than the input is wide
    (n > d) therefore costs more per step than the direct form would.
    """
    x, t = _check_batch(params, features, targets)
    w0_init = params.weights[0]
    h_init = x @ w0_init.T
    gram = x @ x.T
    arrays = params.weights[1:] + params.biases
    shapes = [(w0_init.shape[0], len(x))] + [a.shape for a in arrays]
    cuts = np.cumsum([math.prod(s) for s in shapes])
    flat, vel, grad = np.zeros((3, cuts[-1]))
    coef, *rest = [v.reshape(s) for v, s in zip(np.split(flat, cuts[:-1]), shapes)]
    coef_grad, *grads = [v.reshape(s) for v, s in zip(np.split(grad, cuts[:-1]), shapes)]
    flat[cuts[0]:] = np.concatenate([a.ravel() for a in arrays])
    layers = len(params.weights) - 1
    p = MLPParams(params.layer_sizes, [w0_init] + rest[:layers], rest[layers:])
    grad_w, grad_b = grads[:layers], grads[layers:]
    rng = np.random.default_rng(config.seed)
    losses = []
    best = np.inf
    best_epoch = 0
    since_best = 0
    stopped_on = "epoch_limit"
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(x))
        epoch_losses = []
        for lo in range(0, len(x), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            z0 = h_init[idx] + gram[idx] @ coef.T + p.biases[0]
            loss, delta = _backprop(p, z0, t[idx], grad_w, grad_b)
            epoch_losses.append(loss)
            if len(x) > config.batch_size:  # clear the last batch's columns
                coef_grad.fill(0.0)
            coef_grad[:, idx] = delta.T
            vel *= config.momentum
            grad *= config.learning_rate
            vel -= grad
            flat += vel
        loss = float(np.add.reduce(epoch_losses)) / len(epoch_losses)
        losses.append(loss)
        if loss < best * (1.0 - config.plateau_rel_tol):
            best = loss
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.plateau_patience:
                stopped_on = "plateau"
                break
    p = MLPParams(params.layer_sizes, [w0_init + coef @ x] + [w.copy() for w in p.weights[1:]],
                  [b.copy() for b in p.biases])
    out = _output(p, x)
    acc = float(np.mean(np.argmax(out, axis=1) == np.argmax(t, axis=1)))
    return p, TrainReport(tuple(losses), acc, best_epoch, stopped_on)


def classify(params: MLPParams, feature) -> int:
    """argmax of the network output + 1; ties resolve to the smallest label."""
    return int(np.argmax(forward(params, feature))) + 1


def complexity_count(params: MLPParams, n_training: int) -> int:
    """Training operation count: sum_h 2 M q_h q_{h+1} + 2 M q_H q_o + 2 M q_o,
    with M training samples, hidden widths q_1..q_H and output width q_o."""
    if n_training < 1:
        raise ValueError("n_training must be >= 1")
    hidden = params.layer_sizes[1:-1]
    q_o = params.layer_sizes[-1]
    m = int(n_training)
    total = sum(2 * m * a * b for a, b in zip(hidden[:-1], hidden[1:]))
    total += 2 * m * hidden[-1] * q_o if hidden else 0
    total += 2 * m * q_o
    return total


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encode(a: np.ndarray) -> str:
    """The standard base64, padded, of ``a``'s little-endian float64 bytes,
    row-major: exact, and the same parameters give the same text."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(payload, path, h: int, key: str) -> np.ndarray:
    """The float64 array of one ``_encode`` payload, refused, naming the file
    and the layer, unless it is a base64 string of whole float64 values."""
    if not isinstance(payload, str):
        raise ValueError(f"{path}: layer {h}: {key} must be a base64 string, "
                         f"got {type(payload).__name__}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{path}: layer {h}: {key} is not base64: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"{path}: layer {h}: {key} holds {len(raw)} bytes, "
                         f"not a whole number of float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def save_mlp(params: MLPParams, path, train_fingerprint: dict | None = None) -> None:
    """Versioned JSON model file; byte-stable for identical parameters.

    Each layer's weights (row-major) and biases are one ``_encode`` string.
    """
    for a in params.weights + params.biases:
        if not np.all(np.isfinite(a)):
            raise ValueError("cannot save a model with non-finite parameters")
    doc = {
        "format": MODEL_FORMAT,
        "layer_sizes": list(params.layer_sizes),
        "weights": [_encode(w) for w in params.weights],
        "biases": [_encode(b) for b in params.biases],
        "train_fingerprint": train_fingerprint or {},
    }
    text = _canonical_json(doc)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_mlp(path) -> tuple[MLPParams, dict]:
    """The parameters and training fingerprint of a ``save_mlp`` file,
    refused, naming the file, unless they fit its ``layer_sizes``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: not a JSON model file: {exc}") from None
    found = doc.get("format") if isinstance(doc, dict) else None
    if found == "chanident-mlp-v1":
        raise ValueError(f"{path}: {found} file; this version reads {MODEL_FORMAT} "
                         f"only, so retrain the model")
    if found != MODEL_FORMAT:
        raise ValueError(f"{path}: unsupported model format {found!r}")
    for key in ("layer_sizes", "weights", "biases"):
        if key not in doc:
            raise ValueError(f"{path}: model file has no {key!r}")
    sizes = doc["layer_sizes"]
    if not (isinstance(sizes, list) and _valid_sizes(sizes)):
        raise ValueError(f"{path}: layer_sizes must be a list of >= 2 ints >= 1, "
                         f"got {json.dumps(sizes)}")
    sizes = tuple(sizes)
    for key in ("weights", "biases"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{path}: {key} must be a list of per-layer strings")
        if len(doc[key]) != len(sizes) - 1:
            raise ValueError(f"{path}: {len(doc[key])} {key} arrays for the "
                             f"{len(sizes) - 1} layers of layer_sizes {list(sizes)}")
    weights, biases = [], []
    for h, (w, b, i, o) in enumerate(zip(doc["weights"], doc["biases"], sizes[:-1], sizes[1:])):
        w, b = _decode(w, path, h, "weights"), _decode(b, path, h, "biases")
        if w.shape != (o * i,) or b.shape != (o,):
            raise ValueError(f"{path}: layer {h} holds {w.size} weights and {b.size} "
                             f"biases, layer_sizes {list(sizes)} gives {o * i} and {o}")
        weights.append(w.reshape(o, i))
        biases.append(b)
    params = MLPParams(sizes, weights, biases)
    for w in weights + biases:
        if not np.all(np.isfinite(w)):
            raise ValueError(f"{path}: model file contains non-finite parameters")
    return params, doc.get("train_fingerprint", {})


def config_fingerprint(config: TrainConfig, extra: dict | None = None) -> dict:
    """Stable description of how a model was trained, embedded in the file."""
    desc = {**asdict(config), **(extra or {})}
    digest = hashlib.sha256(_canonical_json(desc).encode()).hexdigest()[:16]
    return {"config": desc, "digest": digest}
