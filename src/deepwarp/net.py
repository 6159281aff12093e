"""Small fully-connected network (7 -> hidden -> 3) trained with Adam.

Dependency-free numpy implementation: deterministic per seed, tanh hidden
activations, linear output layer (targets are unbounded displacement fixes),
mean-squared-error loss. Inputs are standardized per feature with statistics
computed on the training set and stored alongside the weights.

Network file format (little-endian):

    magic 'DWNN' | version u32 | n_layers u32
    per layer: rows u32, cols u32, weights f64 row-major, biases f64 (rows)
    normalization stats: 7 f64 means, 7 f64 stds
    n_strings u32, then per feature name: byte length u32 + UTF-8 bytes,
    finally one more length-prefixed string holding the activation tag.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .features import FEATURE_ORDER, N_FEATURES

MAGIC = b"DWNN"
FORMAT_VERSION = 1
# Adam decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NetworkFormatError(Exception):
    """Network stream rejected (magic, version, shape, feature order, truncation)."""


class TrainingDivergedError(Exception):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, batch_index: int, lr: float):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch_index} (lr={lr}); "
            "reduce the learning rate or inspect the dataset")
        self.epoch = epoch
        self.batch_index = batch_index
        self.lr = lr


class Activation(Enum):
    TANH = "tanh"
    RELU = "relu"


@dataclass(frozen=True)
class MlpSpec:
    """Layer sizes (first 7, last 3) and activation; every network reads
    its features in ``FEATURE_ORDER``."""

    layer_sizes: tuple[int, ...]
    activation: Activation = Activation.TANH

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 3:
            raise ValueError("need at least one hidden layer")
        if any(s <= 0 for s in sizes):
            raise ValueError("layer sizes must be positive")
        if sizes[0] != N_FEATURES or sizes[-1] != 3:
            raise ValueError(f"network must map {N_FEATURES} features to 3 outputs")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def n_params(self) -> int:
        return sum((a + 1) * b for a, b in zip(self.layer_sizes, self.layer_sizes[1:]))


@dataclass
class MlpWeights:
    weights: list[np.ndarray]   # each (fan_out, fan_in)
    biases: list[np.ndarray]    # each (fan_out,)

    def copy(self) -> "MlpWeights":
        return MlpWeights([w.copy() for w in self.weights],
                          [b.copy() for b in self.biases])


def init_weights(spec: MlpSpec, seed: int) -> MlpWeights:
    """Glorot-uniform weights (plus/minus sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpWeights(weights=weights, biases=biases)


def _act(activation: Activation, z: np.ndarray) -> np.ndarray:
    if activation is Activation.TANH:
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_grad(activation: Activation, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if activation is Activation.TANH:
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def forward_batch(weights: MlpWeights, X: np.ndarray, activation: Activation) -> np.ndarray:
    """Network outputs for a batch of (standardized) feature rows.

    Feature-major: each layer is W @ Aᵀ plus the bias in place; the result
    is the transposed view of the (outputs, rows) array.
    """
    a = np.asarray(X, dtype=np.float64).T
    last = len(weights.weights) - 1
    for i, (W, b) in enumerate(zip(weights.weights, weights.biases)):
        z = W @ a
        z += b[:, None]
        a = z if i == last else _act(activation, z)
    return a.T


def forward(weights: MlpWeights, x: np.ndarray, activation: Activation) -> np.ndarray:
    return forward_batch(weights, np.asarray(x, dtype=np.float64)[None], activation)[0]


def backward(weights: MlpWeights, X: np.ndarray, Y: np.ndarray, activation: Activation):
    """Gradients of 0.5 * mean_i |f(x_i) - y_i|^2 and the loss itself."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = len(X)
    last = len(weights.weights) - 1
    acts = [X]
    zs = []
    a = X
    for i, (W, b) in enumerate(zip(weights.weights, weights.biases)):
        z = a @ W.T + b
        zs.append(z)
        a = z if i == last else _act(activation, z)
        acts.append(a)
    diff = acts[-1] - Y
    loss = 0.5 * float(np.einsum("ni,ni->", diff, diff)) / n
    grad_w = [np.empty_like(W) for W in weights.weights]
    grad_b = [np.empty_like(b) for b in weights.biases]
    delta = diff / n
    for i in range(last, -1, -1):
        grad_w[i] = delta.T @ acts[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights.weights[i]) * _act_grad(activation, zs[i - 1], acts[i])
    return MlpWeights(weights=grad_w, biases=grad_b), loss


def mse_loss(weights: MlpWeights, X: np.ndarray, Y: np.ndarray,
             activation: Activation) -> float:
    diff = forward_batch(weights, X, activation) - np.asarray(Y, dtype=np.float64)
    return 0.5 * float(np.einsum("ni,ni->", diff, diff)) / len(X)


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.001
    batch: int = 1024
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, weights: MlpWeights) -> "AdamState":
        arrays = weights.weights + weights.biases
        return cls(m=[np.zeros_like(a) for a in arrays],
                   v=[np.zeros_like(a) for a in arrays], step=0)


def adam_step(weights: MlpWeights, grads: MlpWeights, state: AdamState,
              config: AdamConfig) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    params = weights.weights + weights.biases
    gs = grads.weights + grads.biases
    for p, g, m, v in zip(params, gs, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature standardization statistics (train-set mean and std)."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureScaler":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 1e-12, std, 1.0)
        return cls(mean=mean, std=std)

    @classmethod
    def identity(cls, n: int = N_FEATURES) -> "FeatureScaler":
        return cls(mean=np.zeros(n), std=np.ones(n))

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


@dataclass
class MlpNetwork:
    """Trained network bundle: spec, weights and input standardization."""

    spec: MlpSpec
    weights: MlpWeights
    scaler: FeatureScaler

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Outputs for raw (unstandardized) feature rows."""
        return forward_batch(self.weights, self.scaler.transform(np.atleast_2d(X)),
                             self.spec.activation)


@dataclass
class TrainResult:
    network: MlpNetwork
    best_network: MlpNetwork
    history: list[tuple[float, float]] = field(default_factory=list)


def train(spec: MlpSpec, train_X: np.ndarray, train_Y: np.ndarray,
          val_X: np.ndarray, val_Y: np.ndarray,
          config: AdamConfig = AdamConfig()) -> TrainResult:
    """Seeded minibatch Adam training.

    ``history`` holds (train_mse, val_mse) for epoch 0 (before any update)
    through the final epoch; the best-validation weights are kept separately.
    """
    if len(train_X) == 0 or len(val_X) == 0:
        raise ValueError("train and validation sets must be non-empty")
    scaler = FeatureScaler.fit(np.asarray(train_X, dtype=np.float64))
    Xt = scaler.transform(train_X)
    Yt = np.asarray(train_Y, dtype=np.float64)
    Xv = scaler.transform(val_X)
    Yv = np.asarray(val_Y, dtype=np.float64)

    weights = init_weights(spec, config.seed)
    state = AdamState.zeros_like(weights)
    rng = np.random.default_rng(config.seed)
    act = spec.activation

    history = [(mse_loss(weights, Xt, Yt, act), mse_loss(weights, Xv, Yv, act))]
    best_val = history[0][1]
    best_weights = weights.copy()
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(Xt))
        for bi, start in enumerate(range(0, len(Xt), config.batch)):
            idx = perm[start:start + config.batch]
            grads, loss = backward(weights, Xt[idx], Yt[idx], act)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, bi, config.lr)
            adam_step(weights, grads, state, config)
        tr = mse_loss(weights, Xt, Yt, act)
        va = mse_loss(weights, Xv, Yv, act)
        history.append((tr, va))
        if va < best_val:
            best_val = va
            best_weights = weights.copy()
    return TrainResult(
        network=MlpNetwork(spec=spec, weights=weights, scaler=scaler),
        best_network=MlpNetwork(spec=spec, weights=best_weights, scaler=scaler),
        history=history)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# Largest single read; a declared size is never trusted for an allocation.
_READ_CHUNK = 1 << 16


def _read_exact(stream, n: int) -> bytes:
    """Read exactly ``n`` bytes of a declared size without trusting it.

    The stream is read in bounded chunks, so a hostile header cannot make the
    reader allocate more than the data that is really there.
    """
    parts, got = [], 0
    while got < n:
        part = stream.read(min(n - got, _READ_CHUNK))
        if not part:
            break
        parts.append(part)
        got += len(part)
    data = b"".join(parts)
    if len(data) != n:
        raise NetworkFormatError(f"truncated network stream (wanted {n} bytes, got {len(data)})")
    return data


def save_network(stream, network: MlpNetwork) -> None:
    w = network.weights
    stream.write(MAGIC)
    stream.write(struct.pack("<II", FORMAT_VERSION, len(w.weights)))
    for W, b in zip(w.weights, w.biases):
        rows, cols = W.shape
        stream.write(struct.pack("<II", rows, cols))
        stream.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
        stream.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    stream.write(np.ascontiguousarray(network.scaler.mean, dtype="<f8").tobytes())
    stream.write(np.ascontiguousarray(network.scaler.std, dtype="<f8").tobytes())
    names = list(FEATURE_ORDER) + [network.spec.activation.value]
    stream.write(struct.pack("<I", len(FEATURE_ORDER)))
    for name in names:
        raw = name.encode("utf-8")
        stream.write(struct.pack("<I", len(raw)))
        stream.write(raw)


def load_network(stream) -> MlpNetwork:
    if _read_exact(stream, 4) != MAGIC:
        raise NetworkFormatError("bad magic: not a network file")
    version, n_layers = struct.unpack("<II", _read_exact(stream, 8))
    if version != FORMAT_VERSION:
        raise NetworkFormatError(f"unsupported network format version {version}")
    weights, biases = [], []
    for _ in range(n_layers):
        rows, cols = struct.unpack("<II", _read_exact(stream, 8))
        W = np.frombuffer(_read_exact(stream, 8 * rows * cols), dtype="<f8")
        weights.append(W.reshape(rows, cols).copy())
        biases.append(np.frombuffer(_read_exact(stream, 8 * rows), dtype="<f8").copy())
    mean = np.frombuffer(_read_exact(stream, 8 * N_FEATURES), dtype="<f8").copy()
    std = np.frombuffer(_read_exact(stream, 8 * N_FEATURES), dtype="<f8").copy()
    (n_names,) = struct.unpack("<I", _read_exact(stream, 4))
    names = []
    for _ in range(n_names + 1):   # feature names plus the activation tag
        (ln,) = struct.unpack("<I", _read_exact(stream, 4))
        try:
            names.append(_read_exact(stream, ln).decode("utf-8"))
        except UnicodeDecodeError:
            raise NetworkFormatError("feature name is not valid UTF-8") from None
    feature_order, act_tag = tuple(names[:-1]), names[-1]

    if not weights:
        raise NetworkFormatError("network file declares no layers")
    sizes = [weights[0].shape[1]] + [W.shape[0] for W in weights]
    for i in range(1, len(weights)):
        if weights[i].shape[1] != weights[i - 1].shape[0]:
            raise NetworkFormatError(
                f"layer shape mismatch: layer {i} expects {weights[i].shape[1]} inputs, "
                f"previous layer emits {weights[i - 1].shape[0]}")
    if feature_order != FEATURE_ORDER:
        raise NetworkFormatError(
            f"feature order mismatch: file has {feature_order}, expected {FEATURE_ORDER}")
    try:
        activation = Activation(act_tag)
    except ValueError:
        raise NetworkFormatError(f"unknown activation tag {act_tag!r}") from None
    try:
        spec = MlpSpec(layer_sizes=tuple(sizes), activation=activation)
    except ValueError as exc:
        raise NetworkFormatError(f"layer shape mismatch: {exc}") from None
    return MlpNetwork(spec=spec, weights=MlpWeights(weights, biases),
                      scaler=FeatureScaler(mean=mean, std=std))


def load_network_file(path) -> MlpNetwork:
    with open(path, "rb") as f:
        return load_network(f)
