"""MLPs (ReLU hidden layers, linear last layer), SGD, and the
encoder/predictor composite used by the training loop.  An Mlp's `logits`
is its output array; the replay and ERM steps run it as a forward that
keeps each layer's input and a backward from its logits gradient, and
while its `buffers` are set (for one domain's steps, at their row count)
those two write into them instead of into fresh arrays."""
from __future__ import annotations

import math
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Sequence

import numpy as np

from .autodiff import (ContractError, LayerBuffers, Tensor, mlp_backward,
                       mlp_forward)


@dataclass(frozen=True)
class Range:
    """The values a config field takes: `lo..hi`, or above `lo` when `above`
    is set.  Declared once, with `field`; `Ranged` and the config table read it."""
    lo: int
    hi: int | None = None
    above: bool = False

    def __str__(self) -> str:
        if self.hi is not None:
            return f"in {self.lo}..{self.hi}"
        return f"{'>' if self.above else '>='} {self.lo}"

    def check(self, name: str, value, error=ContractError) -> None:
        """Raise `error("<name> must be ..., got v")` unless each entry of
        `value` lies in range; None, an unset optional, passes."""
        for v in value if isinstance(value, (list, tuple)) else (value,):
            finite = not isinstance(v, float) or math.isfinite(v)
            if v is not None and not (
                    finite and (v > self.lo if self.above else v >= self.lo)
                    and (self.hi is None or v <= self.hi)):
                raise error(f"{name} must be {'' if finite else 'finite and '}"
                            f"{self}, got {v}")

    def field(self, default=MISSING, **kwargs) -> Field:
        return field(default=default, metadata={"range": self}, **kwargs)

    @staticmethod
    def of(holder, name: str) -> Range | None:
        """The range of field `name` of a dataclass or of an instance."""
        return {f.name: f for f in fields(holder)}[name].metadata.get("range")


class Ranged:
    """Base of the config dataclasses: construction checks each field's `Range`."""

    def __post_init__(self):
        for f in fields(self):
            if "range" in f.metadata:
                f.metadata["range"].check(f.name, getattr(self, f.name))


@dataclass
class SgdConfig(Ranged):
    learning_rate: float = Range(0, above=True).field(0.1)
    step_count: int = Range(1).field(100)
    batch_size: int = Range(1).field(32)


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
        # what forward and backward write into, from autodiff.mlp_buffers
        self.buffers: list[LayerBuffers] | None = None

    def params(self) -> list[Tensor]:
        return [p for pair in self.layers for p in pair]

    def logits(self, x) -> np.ndarray:
        return mlp_forward(x, self.layers)[-1]

    def forward(self, x) -> list[np.ndarray]:
        """The logits as the last of each layer's input: what `backward`
        reads.  With `buffers` set, the layers' outputs are
        those buffers, valid until the next forward."""
        return mlp_forward(x, self.layers, self.buffers)

    def backward(self, acts: list[np.ndarray], g: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        """Set each parameter's gradient from the gradient g on the logits
        of `forward`'s `acts`; returns the input's when `input_grad` is set.
        With `buffers` set, a parameter holding no gradient is handed its
        buffer, and the input's gradient is a buffer too, valid until the
        next backward."""
        return mlp_backward(acts, self.layers, g, input_grad, self.buffers)

    def stopped(self) -> "Mlp":
        """View of this net sharing its weights, whose parameters take no
        gradient."""
        layers = [(Tensor(w.data), Tensor(b.data)) for w, b in self.layers]
        return Mlp([], _layers=layers)


def sgd_step(params: Sequence[Tensor], learning_rate: float) -> None:
    """p <- p - lr * grad for every param, scaling each grad in place (the
    param owns it); grads cleared afterwards."""
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: parameter has no gradient")
    for p in params:
        p.grad *= learning_rate
        p.data -= p.grad
        p.grad = None


@dataclass
class Classifier:
    """h = predictor ∘ encoder; the encoder output is the embedding."""
    encoder: Mlp
    predictor: Mlp

    def embed(self, x) -> np.ndarray:
        return self.encoder.logits(x)

    def logits(self, x) -> np.ndarray:
        return self.predictor.logits(self.embed(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def params(self) -> list[Tensor]:
        return self.encoder.params() + self.predictor.params()

    def stopped(self) -> "Classifier":
        return Classifier(self.encoder.stopped(), self.predictor.stopped())


@dataclass
class ArchConfig(Ranged):
    """Widths for the three nets; depth is however many entries you list."""
    encoder_hidden: list[int] = Range(1).field(default_factory=lambda: [64])
    embed_dim: int = Range(1).field(32)
    predictor_hidden: list[int] = Range(1).field(default_factory=list)
    disc_hidden: list[int] = Range(1).field(default_factory=lambda: [32])

    def build_classifier(self, input_dim: int, n_classes: int,
                         rng: np.random.Generator) -> Classifier:
        enc = Mlp([input_dim] + list(self.encoder_hidden) + [self.embed_dim],
                  rng=rng)
        pred = Mlp([self.embed_dim] + list(self.predictor_hidden) + [n_classes],
                   rng=rng)
        return Classifier(enc, pred)

    def build_discriminator(self, t: int, rng: np.random.Generator) -> Mlp:
        return Mlp([self.embed_dim] + list(self.disc_hidden) + [t], rng=rng)
