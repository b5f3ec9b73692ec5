"""From-scratch multilayer perceptron: tanh on every layer (output included),
mean-squared-error loss against {0,1} one-hot targets, mini-batch gradient
descent with momentum.  Everything is plain numpy and deterministic per seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

MODEL_FORMAT = "chanident-mlp-v1"


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


def init_mlp(layer_sizes, seed: int) -> MLPParams:
    """Glorot-uniform weights (+/- sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = tuple(layer_sizes)
    # Not int(): the model's fingerprint records the sizes as given, so 16.7
    # or True must not quietly build a layer of 16 or 1.
    if len(sizes) < 2 or any(type(s) is not int or s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be >= 2 ints >= 1, got {list(sizes)}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLPParams(sizes, weights, biases)


def _forward_batch(params: MLPParams, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    a = x
    for w, b in zip(params.weights, params.biases):
        a = np.tanh(a @ w.T + b)
        acts.append(a)
    return acts


def forward(params: MLPParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.layer_sizes[0],):
        raise ValueError(f"input length {x.shape} != {params.layer_sizes[0]}")
    return _forward_batch(params, x[None, :])[-1][0]


def batch_loss(params: MLPParams, x: np.ndarray, t: np.ndarray) -> float:
    out = _forward_batch(params, x)[-1]
    return float(np.mean((out - t) ** 2))


def _loss_and_gradients(params: MLPParams, x: np.ndarray, t: np.ndarray,
                        grad_w: list[np.ndarray], grad_b: list[np.ndarray]) -> float:
    """Batch loss; writes dloss/dW[h] and dloss/dB[h] into the caller's
    buffers ``grad_w[h]`` and ``grad_b[h]`` (shaped like the parameters)."""
    acts = _forward_batch(params, x)
    out = acts[-1]
    loss = float(np.mean((out - t) ** 2))
    scale = 2.0 / out.size
    delta = scale * (out - t) * (1.0 - out ** 2)
    for h in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[h], out=grad_w[h])
        np.sum(delta, axis=0, out=grad_b[h])
        if h:
            delta = (delta @ params.weights[h]) * (1.0 - acts[h] ** 2)
    return loss


def gradients(params: MLPParams, x: np.ndarray, t: np.ndarray):
    """Analytic gradient of the mean-over-batch-and-output MSE loss."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if x.shape[1] != params.layer_sizes[0] or t.shape[1] != params.layer_sizes[-1]:
        raise ValueError("batch dimensions do not match the network")
    if x.shape[0] != t.shape[0]:
        raise ValueError("inputs and targets must pair up")
    dw = [np.empty_like(w) for w in params.weights]
    db = [np.empty_like(b) for b in params.biases]
    _loss_and_gradients(params, x, t, dw, db)
    return dw, db


# Elements per block of the momentum update: 256 KB of float64, so the
# block's four passes over weight, velocity and gradient stay in a 2 MB L2.
_UPDATE_BLOCK = 32 * 1024


def train(params: MLPParams, features: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> tuple[MLPParams, TrainReport]:
    """Mini-batch gradient descent with momentum; returns fresh parameters.

    Each step computes ``v = momentum * v - learning_rate * g; p += v`` for
    every weight and bias array, in place and one cache-sized block at a
    time: the same operations in the same order, so the same bits, as the
    textbook expression, without allocating arrays of weight size.
    """
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("dataset must be a non-empty 2-D feature array")
    if len(x) != len(t):
        raise ValueError("features and targets must pair up")
    p = params.copy()
    grad_w = [np.empty_like(w) for w in p.weights]
    grad_b = [np.empty_like(b) for b in p.biases]
    # (parameter, velocity, gradient) views of at most _UPDATE_BLOCK elements
    blocks = []
    for param, grad in zip(p.weights + p.biases, grad_w + grad_b):
        flat_p, flat_v, flat_g = param.reshape(-1), np.zeros(param.size), grad.reshape(-1)
        for lo in range(0, param.size, _UPDATE_BLOCK):
            blk = slice(lo, lo + _UPDATE_BLOCK)
            blocks.append((flat_p[blk], flat_v[blk], flat_g[blk]))
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
            epoch_losses.append(_loss_and_gradients(p, x[idx], t[idx], grad_w, grad_b))
            for w, v, g in blocks:
                v *= config.momentum
                g *= config.learning_rate
                v -= g
                w += v
        loss = float(np.mean(epoch_losses))
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
    out = _forward_batch(p, x)[-1]
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


def save_mlp(params: MLPParams, path, train_fingerprint: dict | None = None) -> None:
    """Versioned JSON model file; byte-stable for identical parameters."""
    for a in params.weights + params.biases:
        if not np.all(np.isfinite(a)):
            raise ValueError("cannot save a model with non-finite parameters")
    doc = {
        "format": MODEL_FORMAT,
        "layer_sizes": list(params.layer_sizes),
        "weights": [w.reshape(-1).tolist() for w in params.weights],  # row-major
        "biases": [b.tolist() for b in params.biases],
        "train_fingerprint": train_fingerprint or {},
    }
    text = _canonical_json(doc)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_mlp(path) -> tuple[MLPParams, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    sizes = tuple(int(s) for s in doc["layer_sizes"])
    weights = [np.array(w, dtype=np.float64).reshape(o, i)
               for w, i, o in zip(doc["weights"], sizes[:-1], sizes[1:])]
    biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
    params = MLPParams(sizes, weights, biases)
    for w in weights + biases:
        if not np.all(np.isfinite(w)):
            raise ValueError("model file contains non-finite parameters")
    return params, doc.get("train_fingerprint", {})


def config_fingerprint(config: TrainConfig, extra: dict | None = None) -> dict:
    """Stable description of how a model was trained, embedded in the file."""
    desc = {**asdict(config), **(extra or {})}
    digest = hashlib.sha256(_canonical_json(desc).encode()).hexdigest()[:16]
    return {"config": desc, "digest": digest}
