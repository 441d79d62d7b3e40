"""MLPs (ReLU hidden layers, linear last layer), SGD, and the
encoder/predictor composite used by the training loop."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import ContractError, Tensor, linear, relu, softmax


@dataclass
class SgdConfig:
    learning_rate: float = 0.1
    step_count: int = 100
    batch_size: int = 32

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.step_count < 1:
            raise ContractError("step_count must be >= 1")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")


def _init_layer(fan_in: int, fan_out: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    # uniform +-sqrt(6/(fan_in+fan_out)), zero bias
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-lim, lim, size=(fan_in, fan_out))
    return (Tensor(w, requires_grad=True),
            Tensor(np.zeros(fan_out), requires_grad=True))


class Mlp:
    """Fully connected net: ReLU on hidden layers, logits out of the last."""

    def __init__(self, sizes: Sequence[int],
                 rng: np.random.Generator | None = None, _layers=None):
        if _layers is not None:
            self.layers = _layers
        else:
            if len(sizes) < 2:
                raise ContractError("Mlp needs at least input and output sizes")
            if rng is None:
                raise ContractError("Mlp init requires a seeded rng")
            self.layers = [_init_layer(a, b, rng) for a, b in zip(sizes, sizes[1:])]

    @property
    def sizes(self) -> list[int]:
        return [self.layers[0][0].data.shape[0]] + [w.data.shape[1] for w, _ in self.layers]

    def params(self) -> list[Tensor]:
        return [p for pair in self.layers for p in pair]

    def logits(self, x) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(x)
        if h.data.ndim != 2:
            raise ContractError("Mlp input must be [batch, features]")
        for k, (w, b) in enumerate(self.layers):
            if h.data.shape[1] != w.data.shape[0]:
                raise ContractError(
                    f"layer {k}: input has {h.data.shape[1]} features, "
                    f"expected {w.data.shape[0]}")
            h = linear(h, w, b)
            if k < len(self.layers) - 1:
                h = relu(h)
        return h

    def copy(self, frozen: bool = False) -> "Mlp":
        layers = [(Tensor(w.data.copy(), requires_grad=not frozen),
                   Tensor(b.data.copy(), requires_grad=not frozen))
                  for w, b in self.layers]
        return Mlp([], _layers=layers)

    def stopped(self) -> "Mlp":
        """View of this net whose parameters cut the gradient graph."""
        layers = [(Tensor(w.data), Tensor(b.data)) for w, b in self.layers]
        return Mlp([], _layers=layers)


def sgd_step(params: Sequence[Tensor], learning_rate: float) -> None:
    """p <- p - lr * grad for every param; grads cleared afterwards."""
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: parameter has no gradient")
    for p in params:
        p.data -= learning_rate * p.grad
        p.grad = None


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


@dataclass
class Classifier:
    """h = predictor ∘ encoder; the encoder output is the embedding."""
    encoder: Mlp
    predictor: Mlp

    def embed(self, x) -> Tensor:
        return self.encoder.logits(x)

    def logits(self, x) -> Tensor:
        return self.predictor.logits(self.embed(x))

    def probs(self, x) -> Tensor:
        return softmax(self.logits(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x).data, axis=1)

    def params(self) -> list[Tensor]:
        return self.encoder.params() + self.predictor.params()

    def copy(self, frozen: bool = False) -> "Classifier":
        return Classifier(self.encoder.copy(frozen), self.predictor.copy(frozen))

    def stopped(self) -> "Classifier":
        return Classifier(self.encoder.stopped(), self.predictor.stopped())


@dataclass
class ArchConfig:
    """Widths for the three nets; depth is however many entries you list."""
    encoder_hidden: list[int] = field(default_factory=lambda: [64])
    embed_dim: int = 32
    predictor_hidden: list[int] = field(default_factory=list)
    disc_hidden: list[int] = field(default_factory=lambda: [32])

    def build_classifier(self, input_dim: int, n_classes: int,
                         rng: np.random.Generator) -> Classifier:
        enc = Mlp([input_dim] + list(self.encoder_hidden) + [self.embed_dim],
                  rng=rng)
        pred = Mlp([self.embed_dim] + list(self.predictor_hidden) + [n_classes],
                   rng=rng)
        return Classifier(enc, pred)

    def build_discriminator(self, t: int, rng: np.random.Generator) -> Mlp:
        return Mlp([self.embed_dim] + list(self.disc_hidden) + [t], rng=rng)
