"""MLPs (ReLU hidden layers, linear last layer), SGD, and the
encoder/predictor composite used by the training loop.  An Mlp's `logits`
is its output array; the training steps run it as a forward that keeps
each layer's input and a backward from its logits gradient, which write
into buffers while they are set (for one domain's steps)."""
from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Sequence

import numpy as np

from .autodiff import ContractError, mlp_backward, mlp_buffers, mlp_forward


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


class Mlp:
    """Fully connected net: ReLU on hidden layers, logits out of the last.
    Every weight and bias is a view of one float64 array, `flat` (layer by
    layer, the [i, o] weight, then the [o] bias).  A backward writes the
    gradient into `grad`, one array of that layout, which the next
    `sgd_step` applies and drops; until then the network refuses another
    backward.  A stopped view takes no gradient."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator | None = None,
                 _flat=None, _stopped=False):
        if len(sizes) < 2:
            raise ContractError("Mlp needs at least input and output sizes")
        if _flat is None and rng is None:
            raise ContractError("Mlp init requires a seeded rng")
        self.sizes, self.takes_grad = list(sizes), not _stopped
        self.flat = (np.zeros(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
                     if _flat is None else _flat)
        self.layers = self.views(self.flat)
        if _flat is None:  # uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases
            for w, _ in self.layers:
                lim = np.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-lim, lim, size=w.shape)
        self.grad = self.buffers = self._grad_buffer = None  # see set_buffers

    def __repr__(self) -> str:
        return f"Mlp({self.sizes})"

    # A plain deepcopy would give the copy layers of their own that no
    # longer view its `flat`, which sgd_step updates: rebuild the views.
    def __deepcopy__(self, memo) -> "Mlp":
        return Mlp(self.sizes, _flat=deepcopy(self.flat, memo), _stopped=not self.takes_grad)

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (w, b) views of `flat`, an array in this network's layout."""
        ends = np.cumsum([n for a, b in zip(self.sizes, self.sizes[1:]) for n in (a * b, b)])
        parts = np.split(flat, ends[:-1])
        return [(w.reshape(a, -1), b) for a, w, b in zip(self.sizes, parts[::2], parts[1::2])]

    def _gradient(self) -> tuple[np.ndarray, list]:
        return (grad := np.empty_like(self.flat)), self.views(grad)

    def set_buffers(self, rows: int | None) -> None:
        """Have forward and backward write into arrays built once for
        `rows` rows, the gradient into one; None drops them and any
        gradient not yet applied."""
        on = rows is not None
        self.buffers = mlp_buffers(self.layers, rows) if on else None
        self._grad_buffer = self._gradient() if on and self.takes_grad else None
        self.grad = None

    def logits(self, x) -> np.ndarray:
        return mlp_forward(x, self.layers)[-1]

    def forward(self, x) -> list[np.ndarray]:
        """The logits as the last of each layer's input: what `backward`
        reads; buffers, when set, valid until the next forward."""
        return mlp_forward(x, self.layers, self.buffers)

    def backward(self, acts: list[np.ndarray], g: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        """Set `grad` from the gradient g on the logits of `forward`'s
        `acts` (a stopped view sets none); returns the input's when
        `input_grad` is set, a buffer when set, valid until the next one."""
        if self.grad is not None:
            raise ContractError(f"{self}: backward again before sgd_step "
                                "applied its gradient")
        grad, views = self._grad_buffer or (
            self._gradient() if self.takes_grad else (None, None))
        g_in = mlp_backward(acts, self.layers, g, input_grad, views, self.buffers)
        self.grad = grad
        return g_in

    def stopped(self) -> "Mlp":
        """View of this net sharing its weights, taking no gradient."""
        return Mlp(self.sizes, _flat=self.flat, _stopped=True)


def sgd_step(params: Sequence[Mlp | tuple[np.ndarray, np.ndarray]],
             learning_rate: float) -> None:
    """values <- values - lr * grad for each network (its `flat` and the
    `grad` of its last backward, then dropped) and (values, grad) pair, as
    grad *= lr, values -= grad: elementwise, so bitwise per parameter."""
    pairs = [p if isinstance(p, tuple) else (p.flat, p.grad) for p in params]
    for p, (_, grad) in zip(params, pairs):
        if grad is None:
            raise ContractError(f"sgd_step: {p if isinstance(p, Mlp) else 'an array'} "
                                "has no gradient")
    for p, (values, grad) in zip(params, pairs):
        grad *= learning_rate
        values -= grad
        if not isinstance(p, tuple):
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

    def params(self) -> list[Mlp]:
        """The networks, as `sgd_step` takes them."""
        return [self.encoder, self.predictor]


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
