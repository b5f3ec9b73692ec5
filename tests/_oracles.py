"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own computation paths: the multipath
fit oracle is an exhaustive joint grid search over delay combinations with a
dense least-squares solve per combination in the frequency domain (the
package fits in the delay domain), probes are built by explicit
convolution of frozen channels, the training reference is the textbook
momentum loop that allocates every gradient and velocity afresh, the
Slepian concentrations are Rayleigh quotients against the sinc kernel by
``scipy.signal.fftconvolve`` (the package computes none: its tridiagonal
eigen-solve orders the sequences), and the 12-row feature grid is laid out
by explicit zero-padding.
"""

from itertools import combinations

import numpy as np
from scipy.signal import fftconvolve

from chanident.mlp import MLPParams, TrainReport
from chanident.mseq import MSequence
from chanident.profiles import MAX_DELAY_UNITS
from chanident.simulate import CIRMatrix, ComplexSignal, add_awgn, apply_channel


def sinc_kernel_row(length: int, half_bandwidth: float) -> np.ndarray:
    """k[d] = sin(2 pi W d) / (pi d) for d = -(N-1) .. N-1 (k[0] = 2W)."""
    d = np.arange(-(length - 1), length, dtype=np.float64)
    out = np.empty_like(d)
    nz = d != 0
    out[nz] = np.sin(2 * np.pi * half_bandwidth * d[nz]) / (np.pi * d[nz])
    out[~nz] = 2 * half_bandwidth
    return out


def fftconvolve_concentrations(sequences: np.ndarray, half_bandwidth: float) -> np.ndarray:
    """Rayleigh quotient of each row against the sinc kernel, by a full
    linear ``fftconvolve`` of the kernel with the row."""
    n = sequences.shape[1]
    kernel = sinc_kernel_row(n, half_bandwidth)
    return np.array([float(u @ fftconvolve(kernel, u)[n - 1:2 * n - 1]) for u in sequences])


def zero_padded(cir: CIRMatrix) -> CIRMatrix:
    """``cir``'s gains on delays 0 .. MAX_DELAY_UNITS - 1: the tap at delay
    unit d in row d, and all-zero rows for the delay units with no tap."""
    gains = np.zeros((MAX_DELAY_UNITS, cir.n_samples), dtype=np.complex128)
    gains[list(cir.delay_units)] = cir.gains
    return CIRMatrix(gains, tuple(range(MAX_DELAY_UNITS)))


def _centred_dft(x: np.ndarray) -> np.ndarray:
    """DFT of ``x`` with entry i at integer frequency k = i - floor(N/2)."""
    return np.fft.fftshift(np.fft.fft(x))


def steering_matrix(mseq: MSequence, delays) -> np.ndarray:
    """Column l: the centred chip spectrum delayed by ``delays[l]`` samples."""
    n = mseq.period
    k = np.arange(n) - n // 2
    m = _centred_dft(mseq.chips.astype(np.float64))
    return np.stack([m * np.exp(-2j * np.pi * d * k / n) for d in delays], axis=1)


def brute_force_paths(folded: np.ndarray, mseq: MSequence, order: int, candidates):
    """Minimise the quadratic probe-fit cost, over the centred spectrum of one
    folded probe period, by trying every delay set."""
    r = _centred_dft(folded)
    best = None
    for combo in combinations(sorted(candidates), order):
        a = steering_matrix(mseq, combo)
        amps, *_ = np.linalg.lstsq(a, r, rcond=None)
        cost = float(np.sum(np.abs(r - a @ amps) ** 2))
        if best is None or cost < best[0]:
            best = (cost, combo, amps)
    return best


def static_probe(mseq: MSequence, amplitudes, delays, periods: int = 4,
                 snr_db=None, seed: int = 0) -> ComplexSignal:
    """Repeated chips through a frozen multipath channel, plus optional noise."""
    n = periods * mseq.period
    x = ComplexSignal(np.tile(mseq.chips.astype(complex), periods))
    gains = np.repeat(np.asarray(amplitudes, dtype=complex)[:, None], n, axis=1)
    received = apply_channel(x, CIRMatrix(gains, tuple(delays)))
    return add_awgn(received, snr_db, seed=seed)


def _reference_forward_batch(params: MLPParams, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    a = x
    for w, b in zip(params.weights, params.biases):
        a = np.tanh(a @ w.T + b)
        acts.append(a)
    return acts


def _reference_loss_and_gradients(params: MLPParams, x: np.ndarray, t: np.ndarray):
    acts = _reference_forward_batch(params, x)
    out = acts[-1]
    loss = float(np.mean((out - t) ** 2))
    scale = 2.0 / out.size
    delta = scale * (out - t) * (1.0 - out ** 2)
    dw = [None] * len(params.weights)
    db = [None] * len(params.biases)
    for h in range(len(params.weights) - 1, -1, -1):
        dw[h] = delta.T @ acts[h]
        db[h] = delta.sum(axis=0)
        if h:
            delta = (delta @ params.weights[h]) * (1.0 - acts[h] ** 2)
    return loss, dw, db


def reference_train(params: MLPParams, features, targets, config):
    """Mini-batch momentum descent written as ``v = momentum * v - lr * g;
    w += v`` with fresh arrays each step, every weight array stepped
    directly.  Returns the trained parameters and their ``TrainReport``."""
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    p = params.copy()
    vel_w = [np.zeros_like(w) for w in p.weights]
    vel_b = [np.zeros_like(b) for b in p.biases]
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
            xb, tb = x[idx], t[idx]
            loss, dw, db = _reference_loss_and_gradients(p, xb, tb)
            epoch_losses.append(loss)
            for h in range(len(p.weights)):
                vel_w[h] = config.momentum * vel_w[h] - config.learning_rate * dw[h]
                vel_b[h] = config.momentum * vel_b[h] - config.learning_rate * db[h]
                p.weights[h] += vel_w[h]
                p.biases[h] += vel_b[h]
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
    out = _reference_forward_batch(p, x)[-1]
    acc = float(np.mean(np.argmax(out, axis=1) == np.argmax(t, axis=1)))
    return p, TrainReport(tuple(losses), acc, best_epoch, stopped_on)
