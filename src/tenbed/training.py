"""Desk-scale trainer proving the compressed layers actually fit things.

Two tasks: reproduce a target embedding table under mean squared error, or
separate labelled word pairs with a cosine contrastive loss.  Each minibatch
is one ``forward_batch`` over every word its examples read, the per-example
losses and upstreams computed for the whole batch at once, and one
``backward_batch`` that adds every word's gradient into one zeroed buffer;
the optimizer step scales that sum by the batch size and applies it in row
slices.  The batch loss is summed example by example, in example order.
Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers
from .errors import ConfigError, TrainingDivergedError
from .gradients import backward_batch
from .layers import EmbeddingLayer, forward_batch
from .gradients import backward  # noqa: F401  (unused; perfbench/tracing.py wraps these names)
from .layers import forward  # noqa: F401

SLICE_FLOATS = 32768  # floats per optimizer slice: 256 KB, cache-sized
ADAM_BETAS = (0.9, 0.98)  # decay rates of Adam's first and second moments
ADAM_EPS = 1e-8
LOSSES = {"reconstruct_table": "mse", "word_similarity": "cosine_contrastive"}


@dataclass
class TrainTask:
    kind: str  # "reconstruct_table" | "word_similarity"
    targets: np.ndarray | None = None  # (V, d) table for reconstruction
    pairs: list[tuple[int, int, int]] | None = None  # (a, b, label in {0,1})
    loss: str | None = None  # the kind's own loss (LOSSES), the only one it trains with

    def __post_init__(self):
        own = LOSSES.get(self.kind)
        if own is None:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.loss not in (None, own):
            raise ConfigError(f"{self.kind} trains with {own!r} loss, not {self.loss!r}")
        self.loss = own

    def validate(self, layer: EmbeddingLayer) -> None:
        if self.kind == "reconstruct_table":
            if self.targets is None:
                raise ConfigError("reconstruct_table needs a target table")
            expected = (layer.config.vocab_size, layer.config.embed_dim)
            if self.targets.shape != expected:
                raise ConfigError(f"target table shape {self.targets.shape} != {expected}")
        else:
            if not self.pairs:
                raise ConfigError("word_similarity needs labelled pairs")
            if any(label not in (0, 1) for _, _, label in self.pairs):
                raise ConfigError("labels must be 0 or 1")


@dataclass
class OptimizerState:
    """Plain SGD or bias-corrected adaptive moments, keyed by block name."""

    kind: str = "adam"  # "sgd" | "adam"
    lr: float = 1e-2
    step_count: int = 0
    moments_m: dict[str, np.ndarray] = field(default_factory=dict)
    moments_v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")

    def apply(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], scale: float = 1.0
    ) -> None:
        """One step along ``scale * grads``, taken in row slices of each block.

        A slice of about ``SLICE_FLOATS`` floats goes through the scale and
        every operation of the step, in place or into two slice-sized scratch
        buffers, so no temporary is as large as a block.  Every element still
        takes every operation, in the order of the whole-array formulas, so
        Adam stays dense: the moments of rows without gradient decay too.
        """
        adam = self.kind == "adam"
        if adam:
            self.step_count += 1
            b1, b2 = ADAM_BETAS
            bias1, bias2 = 1 - b1**self.step_count, 1 - b2**self.step_count
        for name, g in grads.items():
            p = params[name]
            if adam and name not in self.moments_m:
                self.moments_m[name] = np.zeros_like(g)
                self.moments_v[name] = np.zeros_like(g)
            rows = max(1, SLICE_FLOATS // g.shape[1])  # blocks are matrices
            scratch_g, scratch = np.empty((2, min(rows, len(g)), g.shape[1]))
            for lo in range(0, len(g), rows):
                hi = min(lo + rows, len(g))
                gs = np.multiply(g[lo:hi], scale, out=scratch_g[: hi - lo])
                t = scratch[: hi - lo]
                if not adam:
                    np.multiply(gs, self.lr, out=t)
                    p[lo:hi] -= t
                    continue
                m, v = self.moments_m[name][lo:hi], self.moments_v[name][lo:hi]
                m *= b1
                np.multiply(gs, 1 - b1, out=t)
                m += t
                v *= b2
                np.multiply(gs, 1 - b2, out=t)
                t *= gs
                v += t
                np.divide(m, bias1, out=t)  # m_hat
                t *= self.lr
                v_hat = np.divide(v, bias2, out=gs)
                np.sqrt(v_hat, out=v_hat)
                v_hat += ADAM_EPS
                t /= v_hat
                p[lo:hi] -= t


def _zero_grads(layer: EmbeddingLayer) -> dict[str, np.ndarray]:
    # np.zeros, unlike zeros_like, writes no page: a batch's words write a
    # few rows of a block that may be 169 MB
    return {name: np.zeros(p.shape) for name, p in layer.params.items()}


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row: a stacked matmul sums each row as a lone dot does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _cosines(ya: np.ndarray, yb: np.ndarray):
    """Row norms of both sides and the rows' cosines, NaN where a norm is zero."""
    na, nb = np.sqrt(_row_dots(ya, ya)), np.sqrt(_row_dots(yb, yb))
    with np.errstate(divide="ignore", invalid="ignore"):
        return na, nb, _row_dots(ya, yb) / (na * nb)


def _reconstruct_batch(layer, task, batch):
    """Mean squared error per example, and each example's word and upstream."""
    y = forward_batch(layer, batch)
    diff = y - task.targets[batch]
    d = y.shape[1]
    return _row_dots(diff, diff) / d, batch, (2.0 / d) * diff


def _pair_batch(layer, pairs, batch):
    """Contrastive loss on the cosine per pair, and the words and upstreams of
    the pairs with a gradient: word a then word b, in example order."""
    a, b, label = pairs[batch].T
    y = forward_batch(layer, np.concatenate([a, b]))
    ya, yb = y[: len(batch)], y[len(batch) :]
    na, nb, cos = _cosines(ya, yb)
    zero, positive = (na == 0.0) | (nb == 0.0), label == 1
    hinge = np.where(cos > 0.0, cos, 0.0)
    losses = np.where(zero, positive * 1.0, np.where(positive, 1.0 - cos, hinge))
    i = np.flatnonzero(~zero & (positive | (cos > 0.0)))
    dcos = np.where(positive[i], -1.0, 1.0)[:, None]
    ya, yb, na, nb, cos = ya[i], yb[i], na[i, None], nb[i, None], cos[i, None]
    grad_a = dcos * (yb / (na * nb) - cos * ya / (na * na))
    grad_b = dcos * (ya / (na * nb) - cos * yb / (nb * nb))
    words = np.stack([a[i], b[i]], axis=1).reshape(-1)
    return losses, words, np.stack([grad_a, grad_b], axis=1).reshape(len(words), y.shape[1])


def train(
    layer: EmbeddingLayer,
    task: TrainTask,
    opt: OptimizerState,
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
) -> list[float]:
    """Optimise the layer in place; returns the per-epoch mean loss.

    Losses are recorded before each batch's update, so an already-perfect
    model reports zero from the first epoch.  A non-finite batch loss aborts
    before that batch's update, so the parameters stay as they were.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    task.validate(layer)
    n_examples = (
        layer.config.vocab_size if task.kind == "reconstruct_table" else len(task.pairs)
    )
    pairs = np.asarray(task.pairs) if task.kind == "word_similarity" else None
    rng = np.random.default_rng(seed)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n_examples)
        epoch_loss = 0.0
        for k, start in enumerate(range(0, n_examples, batch_size)):
            batch = order[start : start + batch_size]
            with np.errstate(over="ignore", invalid="ignore"):  # the loss is checked below
                if pairs is None:
                    losses, words, upstreams = _reconstruct_batch(layer, task, batch)
                else:
                    losses, words, upstreams = _pair_batch(layer, pairs, batch)
            batch_loss = 0.0
            for loss in losses.tolist():
                batch_loss += loss
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_loss, batch=k)
            grads = _zero_grads(layer)
            backward_batch(layer, words, upstreams, grads)
            epoch_loss += batch_loss
            opt.apply(layer.params, grads, scale=1.0 / len(batch))
        epoch_loss /= n_examples
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, epoch_loss)
        history.append(epoch_loss)
    return history


def eval_similarity(layer: EmbeddingLayer, pairs: list[tuple[int, int, int]]) -> float:
    """Accuracy of thresholding the cosine at 0.5 against the pair labels.

    Pairs are embedded ``layers.BATCH_WORDS`` at a time, so no embedding array
    grows with the number of pairs.
    """
    if not pairs:
        raise ConfigError("need at least one pair")
    pairs, step = np.asarray(pairs), layers.BATCH_WORDS
    correct = 0
    for start in range(0, len(pairs), step):
        a, b, label = pairs[start : start + step].T
        y = forward_batch(layer, np.concatenate([a, b]))
        _, _, cos = _cosines(y[: len(a)], y[len(a) :])
        # a zero-norm side has cosine NaN, so it predicts 0 like any cosine <= 0.5
        correct += int(np.sum(np.where(cos > 0.5, 1, 0) == label))
    return correct / len(pairs)
