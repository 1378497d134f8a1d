"""Multi-layer perceptron classifier (numpy forward/backward, Adam/SGD).

This is the "Neural Network" / MLP base learner of the paper. Deliberately,
no class re-weighting happens internally: the paper's point (Sections I, III)
is that batch-trained networks fail on skewed data unless the *sampling*
layer balances the classes — exactly what SPE provides.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..base import BaseEstimator, ClassifierMixin
from ..utils.arrays import stratified_indices
from ..utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)
from .activations import ACTIVATIONS, log_loss, softmax
from .optimizers import AdamOptimizer, SGDOptimizer

__all__ = ["MLPClassifier"]


class MLPClassifier(BaseEstimator, ClassifierMixin):
    """Feed-forward network with softmax output and cross-entropy loss.

    Parameters mirror the common sklearn names. ``batch_order='stratified'``
    interleaves classes across mini-batches (an optional mitigation for the
    skewed-batch failure mode the paper describes; default keeps plain
    shuffling to stay faithful to the canonical learner).
    """

    def __init__(
        self,
        hidden_layer_sizes: Tuple[int, ...] = (128,),
        activation: str = "relu",
        solver: str = "adam",
        learning_rate: float = 1e-3,
        alpha: float = 1e-4,
        batch_size: int = 64,
        max_epochs: int = 30,
        tol: float = 1e-5,
        n_iter_no_change: int = 5,
        batch_order: str = "shuffle",
        random_state=None,
    ):
        self.hidden_layer_sizes = hidden_layer_sizes
        self.activation = activation
        self.solver = solver
        self.learning_rate = learning_rate
        self.alpha = alpha
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.tol = tol
        self.n_iter_no_change = n_iter_no_change
        self.batch_order = batch_order
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def _init_params(self, layer_sizes: List[int], rng) -> None:
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            # He initialisation for ReLU, Glorot otherwise.
            if self.activation == "relu":
                scale = np.sqrt(2.0 / fan_in)
            else:
                scale = np.sqrt(2.0 / (fan_in + fan_out))
            self._weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _forward(self, X: np.ndarray):
        """Return (activations per layer, pre-activations per layer)."""
        act_fn, _ = ACTIVATIONS[self.activation]
        activations = [X]
        pre = []
        a = X
        last = len(self._weights) - 1
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            z = a @ W + b
            pre.append(z)
            a = softmax(z) if i == last else act_fn(z)
            activations.append(a)
        return activations, pre

    def _backward(self, activations, pre, y_onehot, weights):
        _, grad_fn = ACTIVATIONS[self.activation]
        n = y_onehot.shape[0]
        grads_W = [None] * len(self._weights)
        grads_b = [None] * len(self._biases)
        # Softmax + cross entropy: delta = (p - t) / n, optionally weighted.
        delta = (activations[-1] - y_onehot)
        if weights is not None:
            delta = delta * weights[:, None]
            delta /= weights.sum()
        else:
            delta /= n
        for i in range(len(self._weights) - 1, -1, -1):
            grads_W[i] = activations[i].T @ delta + self.alpha * self._weights[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self._weights[i].T) * grad_fn(pre[i - 1], activations[i])
        return grads_W, grads_b

    # ------------------------------------------------------------------ #
    def fit(self, X, y) -> "MLPClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"Unknown activation {self.activation!r}; "
                f"expected one of {sorted(ACTIVATIONS)}"
            )
        if self.solver not in ("adam", "sgd"):
            raise ValueError(f"Unknown solver {self.solver!r}")
        if self.batch_order not in ("shuffle", "stratified"):
            raise ValueError(f"Unknown batch_order {self.batch_order!r}")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n_classes = max(len(self.classes_), 2)
        y_onehot = np.zeros((len(y), n_classes))
        y_onehot[np.arange(len(y)), y_enc] = 1.0

        layer_sizes = [X.shape[1], *self.hidden_layer_sizes, n_classes]
        self._init_params(layer_sizes, rng)
        params = self._weights + self._biases
        if self.solver == "adam":
            optimizer = AdamOptimizer(params, lr=self.learning_rate)
        else:
            optimizer = SGDOptimizer(params, lr=self.learning_rate)

        n = X.shape[0]
        batch = max(1, min(self.batch_size, n))
        best_loss = np.inf
        stall = 0
        self.loss_curve_: List[float] = []
        for epoch in range(self.max_epochs):
            if self.batch_order == "stratified":
                order = stratified_indices(y_enc, rng)
            else:
                order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                activations, pre = self._forward(X[idx])
                grads_W, grads_b = self._backward(
                    activations, pre, y_onehot[idx], None
                )
                optimizer.step(grads_W + grads_b)
                epoch_loss += log_loss(activations[-1], y_onehot[idx])
                n_batches += 1
            epoch_loss /= max(n_batches, 1)
            self.loss_curve_.append(epoch_loss)
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= self.n_iter_no_change:
                    break
        self.n_epochs_ = len(self.loss_curve_)
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["_weights"])
        X = check_array(X)
        activations, _ = self._forward(X)
        proba = activations[-1]
        if len(self.classes_) == 1:
            return np.ones((X.shape[0], 1))
        return proba[:, : len(self.classes_)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`).

        The variable-length weight/bias lists become one array per layer
        (``W0..Wk`` / ``b0..bk``) with the layer count in the metadata;
        ``loss_curve_`` is a fit diagnostic and is not persisted.
        """
        check_is_fitted(self, ["_weights"])
        meta = {
            "n_features_in": int(self.n_features_in_),
            "n_layers": len(self._weights),
        }
        arrays = {"classes": np.asarray(self.classes_)}
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            arrays[f"W{i}"] = np.asarray(W, dtype=np.float64)
            arrays[f"b{i}"] = np.asarray(b, dtype=np.float64)
        return meta, arrays, {}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        n_layers = int(meta["n_layers"])
        self.classes_ = np.asarray(arrays["classes"])
        self._weights = [
            np.asarray(arrays[f"W{i}"], dtype=np.float64) for i in range(n_layers)
        ]
        self._biases = [
            np.asarray(arrays[f"b{i}"], dtype=np.float64) for i in range(n_layers)
        ]
        self.n_features_in_ = int(meta["n_features_in"])
