"""Plain dense layers shared by velocity fields and ratio classifiers.

Every stack has one shape: tanh hidden layers under a linear output layer,
so a layer's activation follows from its position and is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wflow import numcore as nc


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)


def init_layers(sizes, rng, zero_final=False) -> list[Layer]:
    """Stack of dense layers; hidden weights ~ U(-s, s) with s = 1/sqrt(fan_in).

    ``zero_final`` zeroes the last layer's weights and bias exactly, so the
    stack's output is identically zero regardless of input.
    """
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if i == len(sizes) - 2 and zero_final:
            w = np.zeros((fan_in, fan_out))
        else:
            s = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-s, s, size=(fan_in, fan_out))
        layers.append(Layer(w, np.zeros(fan_out)))
    return layers


def parameter_arrays(layers) -> list[np.ndarray]:
    """Canonical flat parameter order: w0, b0, w1, b1, ..."""
    out = []
    for layer in layers:
        out.append(layer.w)
        out.append(layer.b)
    return out


class BoundLayers:
    """Layer parameters wrapped as Tensors, optionally watched on a tape."""

    def __init__(self, layers, tape=None):
        self.entries = []
        for layer in layers:
            w, b = nc.Tensor(layer.w), nc.Tensor(layer.b)
            if tape is not None:
                w, b = tape.watch(w), tape.watch(b)
            self.entries.append((w, b))

    def forward(self, h: nc.Tensor) -> nc.Tensor:
        """Apply all layers in order: tanh after each but the last."""
        for w, b in self.entries[:-1]:
            h = nc.tanh(nc.affine(h, w, b))
        return nc.affine(h, *self.entries[-1])
