"""Tiny fully-connected net on numpy: ReLU hidden layers, linear logits."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np


@dataclass
class MlpModel:
    """params holds every weight matrix in layer order, then every bias;
    weights[l], of shape (fan_in, fan_out), and biases[l] are views into it,
    rebuilt on their own params by copies and pickles.  An empty hidden list
    gives plain softmax regression."""

    layer_sizes: list
    params: np.ndarray

    def __post_init__(self):
        self.weights, self.biases = self._views(self.params)

    def __reduce__(self):
        return (MlpModel, (self.layer_sizes, self.params))

    def _views(self, flat: np.ndarray) -> tuple[list, list]:
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        ends = [0, *accumulate([*(fan_in * fan_out for fan_in, fan_out in shapes), *self.layer_sizes[1:]])]
        if not shapes or flat.shape != (ends[-1],):
            raise ValueError(f"layer sizes {self.layer_sizes} do not fit parameters of shape {flat.shape}")
        chunks = [flat[start:end] for start, end in zip(ends, ends[1:])]
        return [c.reshape(shape) for c, shape in zip(chunks, shapes)], chunks[len(shapes) :]

    @classmethod
    def init(cls, layer_sizes: list[int], rng: np.random.Generator) -> "MlpModel":
        """Symmetric uniform init scaled by 1/sqrt(fan_in), biases zero."""
        sizes = list(layer_sizes)
        model = cls(sizes, np.zeros(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))))
        for w in model.weights:
            w[...] = rng.uniform(-1.0, 1.0, size=w.shape) / np.sqrt(w.shape[0])
        return model

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
            if l < len(self.weights) - 1:
                a = np.maximum(z, 0.0, out=z)
                activations.append(a)
        return z, activations

    def backward(self, activations: list[np.ndarray], grad_logits: np.ndarray) -> np.ndarray:
        """Backprop a logit gradient to one flat gradient laid out like params."""
        grad = np.empty_like(self.params)
        grads_w, grads_b = self._views(grad)
        delta = grad_logits
        for l in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[l].T, delta, out=grads_w[l])
            delta.sum(axis=0, out=grads_b[l])
            if l > 0:
                # ReLU mask: activations[l] is already the rectified output.
                delta = (delta @ self.weights[l].T) * (activations[l] > 0)
        return grad

    def weight_sq_norm(self) -> float:
        """Sum of squared weights; biases are excluded from L2 on purpose."""
        return float(sum((w**2).sum() for w in self.weights))
