"""Tiny fully-connected net on numpy: ReLU hidden layers, linear logits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MlpModel:
    """weights[l] has shape (fan_in, fan_out); an empty hidden list gives
    plain softmax regression."""

    weights: list
    biases: list

    @classmethod
    def init(cls, layer_sizes: list[int], rng: np.random.Generator) -> "MlpModel":
        """Symmetric uniform init scaled by 1/sqrt(fan_in), biases zero."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(rng.uniform(-1.0, 1.0, size=(fan_in, fan_out)) / np.sqrt(fan_in))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def forward(
        self, x: np.ndarray, out: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (logits, activations); activations[l] is the input to
        layer l, kept for the backward pass.

        out, when given, is a caller-owned list of C-contiguous float64
        arrays, one of shape (rows, fan_out) per layer, that each layer
        writes its output into: a repeated forward of the same size then
        allocates nothing, and the next call overwrites what this one
        returned.  The values are bit-identical to a forward without out.
        """
        a = np.asarray(x, dtype=np.float64)
        activations = [a]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(a, w, out=None if out is None else out[l])
            z += b
            if l < self.num_layers - 1:
                a = np.maximum(z, 0.0, out=z)
                activations.append(a)
        return z, activations

    def backward(
        self, activations: list[np.ndarray], grad_logits: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Backprop a logit gradient to per-parameter gradients."""
        grads_w = [None] * self.num_layers
        grads_b = [None] * self.num_layers
        delta = grad_logits
        for l in range(self.num_layers - 1, -1, -1):
            grads_w[l] = activations[l].T @ delta
            grads_b[l] = delta.sum(axis=0)
            if l > 0:
                # ReLU mask: activations[l] is already the rectified output.
                delta = (delta @ self.weights[l].T) * (activations[l] > 0)
        return grads_w, grads_b

    def weight_sq_norm(self) -> float:
        """Sum of squared weights; biases are excluded from L2 on purpose."""
        return float(sum((w**2).sum() for w in self.weights))

    def copy(self) -> "MlpModel":
        return MlpModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def get_params(self) -> np.ndarray:
        """Flat parameter vector (for finite-difference checks)."""
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def set_params(self, flat: np.ndarray) -> None:
        pos = 0
        for arr in self.weights + self.biases:
            arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size
        if pos != flat.size:
            raise ValueError("parameter vector has the wrong length")
