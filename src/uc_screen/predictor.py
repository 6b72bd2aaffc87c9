"""Learned cost predictor and the KNN screening baseline.

The MLP maps a load vector to a predicted commitment cost.  Inputs are
standardized and the target is scaled by training-set statistics, so the
stored model carries its own normalization and always answers in cost
units.  Architecture: input, three ReLU hidden layers (50, 30, 30), one
linear output.

The KNN baseline skips cost modelling entirely: it keeps a bound-side iff
that side was binding for at least one of the k nearest recorded loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyDataset, InsufficientData
from .screening import LoadRegion

__all__ = [
    "MlpModel",
    "Dataset",
    "TrainConfig",
    "TrainReport",
    "mlp_forward",
    "mlp_input_grad",
    "mlp_train",
    "knn_screen",
]


@dataclass(eq=False)
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]          # weights[k]: (dims[k+1], dims[k])
    biases: list[np.ndarray]           # biases[k]: (dims[k+1],)
    input_mean: np.ndarray
    input_std: np.ndarray
    output_mean: float
    output_std: float
    seed: int | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        self.layer_dims = dims
        if dims[-1] != 1:
            raise DimensionError("output layer must be scalar")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise DimensionError("one weight/bias pair per layer transition")
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
                raise DimensionError(
                    f"layer {k}: weight shape {W.shape}, bias shape {b.shape} "
                    f"do not chain {dims[k]} -> {dims[k + 1]}")
        self.input_mean = np.asarray(self.input_mean, dtype=float)
        self.input_std = np.asarray(self.input_std, dtype=float)
        if self.input_mean.shape != (dims[0],) or self.input_std.shape != (dims[0],):
            raise DimensionError("normalization stats must match input dim")
        if np.any(self.input_std <= 0) or self.output_std <= 0:
            raise DimensionError("normalization std entries must be > 0")

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    def to_json(self) -> str:
        doc = {
            "layer_dims": list(self.layer_dims),
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "input_mean": self.input_mean.tolist(),
            "input_std": self.input_std.tolist(),
            "output_mean": self.output_mean,
            "output_std": self.output_std,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        doc = json.loads(text)
        return cls(layer_dims=tuple(doc["layer_dims"]),
                   weights=[np.asarray(W, dtype=float) for W in doc["weights"]],
                   biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
                   input_mean=np.asarray(doc["input_mean"], dtype=float),
                   input_std=np.asarray(doc["input_std"], dtype=float),
                   output_mean=float(doc["output_mean"]),
                   output_std=float(doc["output_std"]),
                   seed=doc.get("seed"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(eq=False)
class Dataset:
    """Solved load samples: loads (N,n), costs (N,), binding sides (N,2m)."""

    loads: np.ndarray
    costs: np.ndarray
    binding: np.ndarray
    seed: int | None = None
    region: LoadRegion | None = None

    def __post_init__(self):
        self.loads = np.asarray(self.loads, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        self.binding = np.asarray(self.binding, dtype=bool)
        if self.loads.ndim != 2:
            raise DimensionError("loads must be (N, n)")
        n = len(self.loads)
        if self.costs.shape != (n,) or (n and self.binding.shape[0] != n):
            raise DimensionError("costs/binding length must match loads")
        if np.any(self.costs < 0):
            raise ValueError("recorded costs must be nonnegative")
        if self.region is not None:
            for i, load in enumerate(self.loads):
                if not self.region.contains(load):
                    raise ValueError(f"sample {i} lies outside the region")

    def __len__(self) -> int:
        return len(self.loads)

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for load, cost, mask in zip(self.loads, self.costs, self.binding):
                fh.write(json.dumps({"load": load.tolist(),
                                     "cost": float(cost),
                                     "binding": [bool(b) for b in mask]})
                         + "\n")

    @classmethod
    def load_jsonl(cls, path, seed: int | None = None,
                   region: LoadRegion | None = None) -> "Dataset":
        loads, costs, binding = [], [], []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                loads.append(rec["load"])
                costs.append(rec["cost"])
                binding.append(rec["binding"])
        if not loads:
            raise EmptyDataset(f"no samples in {path}")
        return cls(loads=np.asarray(loads, dtype=float),
                   costs=np.asarray(costs, dtype=float),
                   binding=np.asarray(binding, dtype=bool),
                   seed=seed, region=region)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch: int = 64
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    hidden_dims: tuple[int, ...] = (50, 30, 30)


@dataclass
class TrainReport:
    final_train_loss: float        # mean squared error, cost units
    val_relative_error: float
    epochs: int
    history: list[tuple[float, float]] = field(default_factory=list)


def _check_input(model: MlpModel, load) -> np.ndarray:
    load = np.asarray(load, dtype=float)
    if load.shape != (model.n_inputs,):
        raise DimensionError(
            f"input has shape {load.shape}, expected ({model.n_inputs},)")
    return load


def _pre_activations(weights, biases, H: np.ndarray) -> list[np.ndarray]:
    """Each layer's pre-activations for a normalized batch H (B, n).

    Every layer but the last feeds the ReLU of its pre-activation to the
    next one; the last entry is the (B, 1) normalized output.
    """
    pre: list[np.ndarray] = []
    for W, b in zip(weights, biases):
        if pre:
            H = np.maximum(pre[-1], 0.0)
        pre.append(H @ W.T + b)
    return pre


def _forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Predicted costs for X (B, n); de-normalized."""
    H = (X - model.input_mean) / model.input_std
    out = _pre_activations(model.weights, model.biases, H)[-1]
    return model.output_mean + model.output_std * out[:, 0]


def mlp_forward(model: MlpModel, load) -> float:
    """Predicted cost for one load vector."""
    load = _check_input(model, load)
    return float(_forward_batch(model, load[None, :])[0])


def _value_and_grad(model: MlpModel, X: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Predicted costs (B,) and their input gradients (B, n) for raw
    loads X (B, n), from one forward pass."""
    H = (X - model.input_mean) / model.input_std
    pre = _pre_activations(model.weights, model.biases, H)
    G = np.repeat(model.weights[-1], len(X), axis=0)
    for k in range(len(pre) - 2, -1, -1):
        G = (G * (pre[k] > 0)) @ model.weights[k]
    values = model.output_mean + model.output_std * pre[-1][:, 0]
    return values, model.output_std * G / model.input_std


def mlp_input_grad(model: MlpModel, load) -> np.ndarray:
    """Exact gradient of the predicted cost w.r.t. the raw load.

    At a ReLU kink (pre-activation exactly 0) the inactive-side
    subgradient 0 is used, matching the forward pass.
    """
    load = _check_input(model, load)
    return _value_and_grad(model, load[None, :])[1][0]


def _init_params(dims: tuple[int, ...], rng: np.random.Generator):
    weights, biases = [], []
    for k in range(len(dims) - 1):
        scale = np.sqrt(2.0 / dims[k])
        weights.append(rng.normal(0.0, scale, size=(dims[k + 1], dims[k])))
        biases.append(np.zeros(dims[k + 1]))
    return weights, biases


def _forward_backward(weights, biases, X, y):
    """Normalized-space MSE loss and parameter gradients for one batch."""
    B = len(X)
    pre = _pre_activations(weights, biases, X)
    resid = pre[-1][:, 0] - y
    loss = float(resid @ resid) / B

    dZ = (2.0 / B) * resid[:, None]
    grads_W = [None] * len(weights)
    grads_b = [None] * len(weights)
    for k in range(len(weights) - 1, -1, -1):
        layer_input = np.maximum(pre[k - 1], 0.0) if k > 0 else X
        grads_W[k] = dZ.T @ layer_input
        grads_b[k] = dZ.sum(axis=0)
        if k > 0:
            dZ = (dZ @ weights[k]) * (pre[k - 1] > 0)
    return loss, grads_W, grads_b


def mlp_train(dataset: Dataset, config: TrainConfig | None = None
              ) -> tuple[MlpModel, TrainReport]:
    """Fit the cost predictor by minibatch Adam on the squared error.

    The dataset is shuffled once by seed and split 80/20 into train and
    held-out sets; training standardizes on train-set statistics (a zero
    std is replaced by 1.0).  Early stopping restores the weights of the
    best held-out epoch once no improvement is seen for `patience` epochs.
    Deterministic for a fixed config.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    cfg = config or TrainConfig()
    rng = np.random.default_rng(cfg.seed)

    N = len(dataset)
    perm = rng.permutation(N)
    n_val = N // 5
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if n_val == 0:
        val_idx = train_idx
    X_train, y_train = dataset.loads[train_idx], dataset.costs[train_idx]
    X_val, y_val = dataset.loads[val_idx], dataset.costs[val_idx]

    in_mean = X_train.mean(axis=0)
    in_std = X_train.std(axis=0)
    # effectively-constant features get std 1 so they normalize to ~0
    # instead of blowing up on rounding noise
    in_std[in_std <= 1e-12 * (1.0 + np.abs(in_mean))] = 1.0
    out_mean = float(y_train.mean())
    out_std = float(y_train.std())
    if out_std <= 1e-12 * (1.0 + abs(out_mean)):
        out_std = 1.0

    Xn_train = (X_train - in_mean) / in_std
    yn_train = (y_train - out_mean) / out_std
    Xn_val = (X_val - in_mean) / in_std
    yn_val = (y_val - out_mean) / out_std

    dims = (dataset.loads.shape[1], *cfg.hidden_dims, 1)
    weights, biases = _init_params(dims, rng)

    # Adam state; every parameter array is updated in place, so `params`
    # and the weights/biases lists keep sharing the same arrays
    b1, b2, eps = 0.9, 0.999, 1e-8
    params = weights + biases
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    step = 0

    def val_loss() -> float:
        r = _pre_activations(weights, biases, Xn_val)[-1][:, 0] - yn_val
        return float(r @ r) / len(yn_val)

    best = (val_loss(), [W.copy() for W in weights], [b.copy() for b in biases])
    since_best = 0
    history: list[tuple[float, float]] = []
    n_train = len(X_train)
    batch = max(1, min(cfg.batch, n_train))
    epochs_run = 0

    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, batch):
            idx = order[start:start + batch]
            loss, gW, gB = _forward_backward(
                weights, biases, Xn_train[idx], yn_train[idx])
            epoch_loss += loss * len(idx)
            step += 1
            c1 = 1.0 - b1 ** step
            c2 = 1.0 - b2 ** step
            for p, g, m1, m2 in zip(params, gW + gB, moment1, moment2):
                m1 *= b1
                m1 += (1 - b1) * g
                m2 *= b2
                m2 += (1 - b2) * g ** 2
                p -= cfg.lr * (m1 / c1) / (np.sqrt(m2 / c2) + eps)
        v = val_loss()
        history.append((epoch_loss / n_train, v))
        if v < best[0] - 1e-12:
            best = (v, [W.copy() for W in weights], [b.copy() for b in biases])
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    weights, biases = best[1], best[2]
    model = MlpModel(layer_dims=dims, weights=weights, biases=biases,
                     input_mean=in_mean, input_std=in_std,
                     output_mean=out_mean, output_std=out_std, seed=cfg.seed)

    pred_train = _forward_batch(model, X_train)
    final_train = float(np.mean((pred_train - y_train) ** 2))
    pred_val = _forward_batch(model, X_val)
    rel = np.abs(pred_val - y_val) / np.maximum(np.abs(y_val), 1e-12)
    report = TrainReport(final_train_loss=final_train,
                         val_relative_error=float(rel.mean()),
                         epochs=epochs_run, history=history)
    return model, report


def knn_screen(dataset: Dataset, query, k: int) -> np.ndarray:
    """Kept-side mask (2m bools) from the k nearest recorded loads.

    A side is kept iff it is binding for at least one neighbor.  Distance
    ties are broken by sample index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) < k:
        raise InsufficientData(
            f"need at least k={k} samples, dataset has {len(dataset)}")
    query = np.asarray(query, dtype=float)
    if query.shape != (dataset.loads.shape[1],):
        raise DimensionError(
            f"query has shape {query.shape}, expected "
            f"({dataset.loads.shape[1]},)")
    dist = np.linalg.norm(dataset.loads - query, axis=1)
    nearest = np.argsort(dist, kind="stable")[:k]
    return dataset.binding[nearest].any(axis=0)
