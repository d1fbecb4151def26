"""Hand-derived reverse-mode gradients for every layer's forward map.

Each forward map is a shallow fixed-shape multilinear expression, so the
adjoints are written out instead of built as a general autodiff graph.
``backward_batch`` takes a batch of word ids and one upstream row per word:
``layers.gather_batch`` gives the rows each word reads, the adjoint of one of
``forward_batch``'s three combines (a sum of products for six kinds, the TT
chain, matrix_factor's matmul) computes the gradient per slot of every word
of a chunk of ``layers.BATCH_WORDS`` at once, and each block's slot gradients
are added into a caller's gradient dict in batch order.  Truncation to the
embedding dimension is adjointed by zero-padding the upstream back to the
full product length.  When a word references the same parameter row in
several slots (repeated morphemes), its slot gradients are summed first and
the sum is added once, which is the correct total derivative.  ``backward``
and ``touched_rows`` are the same for a batch of one word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import layers
from .errors import ConfigError
from .layers import (
    EmbeddingLayer,
    MethodKind,
    _factor_layout,
    _tt_chain,
    forward,
    gather_batch,
)


@dataclass
class GradSlot:
    """Gradient buffer aligned with one named parameter block."""

    param_name: str
    grad: np.ndarray


def _pad_upstream(U: np.ndarray, full_size: int) -> np.ndarray:
    """``U``'s rows zero-padded to ``full_size``: the adjoint of truncating to their length."""
    if U.shape[1] == full_size:
        return U
    padded = np.zeros((len(U), full_size))
    padded[:, : U.shape[1]] = U
    return padded


def _product_grads(vectors: list[np.ndarray], U_full: np.ndarray) -> list[np.ndarray]:
    """Per word b, the gradients of ``<U_full[b], v1[b] x ... x vn[b]>`` w.r.t. each vk[b], n >= 2.

    Contracts each word's upstream tensor with every other vector.  One
    einsum over the batch sums each word as einsum sums it alone, except for
    a length-1 factor, whose gradient reduces every axis of the word: the
    batched einsum sums that in another order, so it goes word by word.
    """
    n, B = len(vectors), len(U_full)
    shaped = U_full.reshape((B,) + tuple(v.shape[1] for v in vectors))
    axes = list(range(1, n + 1))
    grads = []
    for k in range(n):
        # einsum's sublist form: each operand followed by its axis numbers
        if vectors[k].shape[1] > 1:
            others = [x for m in range(n) if m != k for x in (vectors[m], [0, m + 1])]
            grads.append(np.einsum(shaped, [0] + axes, *others, [0, k + 1]))
            continue
        word = [[x for m in range(n) if m != k for x in (vectors[m][b], [m + 1])] for b in range(B)]
        grads.append(np.stack([np.einsum(shaped[b], axes, *word[b], [k + 1]) for b in range(B)]))
    return grads


def _add_rows(target: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
    """Add ``grads[b, s]`` into ``target[rows[b, s]]``, word by word in batch order.

    A word that reads some row in several slots gets, in every row it reads,
    the sum of its slot gradients taken in slot order from zero, added once:
    ``target + (0 + g1 + g2)``.  Any other word adds its slot gradients as
    they are.
    """
    # first[b, s]: the first slot of word b that reads row rows[b, s]
    first = (rows[:, :, None] == rows[:, None, :]).argmax(axis=2)
    later = first != np.arange(rows.shape[1])
    repeats = np.flatnonzero(later.any(axis=1))
    if len(repeats):
        sums = grads.copy()
        sums[repeats] = 0.0
        for s in range(rows.shape[1]):
            sums[repeats, first[repeats, s]] += grads[repeats, s]
        grads = sums
    np.add.at(target, rows[~later], grads[~later])


def backward_batch(
    layer: EmbeddingLayer,
    word_ids: Sequence[int],
    upstream: np.ndarray,
    into: dict[str, np.ndarray],
) -> None:
    """Add the gradient of ``sum_b <upstream[b], forward(layer, word_ids[b])>`` into ``into``.

    ``into`` is a gradient dict of the params' shapes, ``upstream`` one
    length-d row per word.  Every id is checked first; then words are taken
    in chunks of ``layers.BATCH_WORDS`` and added in batch order, so ``into``
    ends as adding each word's ``backward`` in turn would leave it.
    """
    rows = gather_batch(layer, word_ids)
    B = len(rows[0])
    U = np.ascontiguousarray(upstream, dtype=np.float64)
    if U.shape != (B, layer.config.embed_dim):
        raise ValueError(f"upstream must have shape {(B, layer.config.embed_dim)}, got {U.shape}")
    if B == 0:
        return
    step = layers.BATCH_WORDS
    chunks = [(rows, U)] if B <= step else [
        ([ids[lo : lo + step] for ids in rows], U[lo : lo + step]) for lo in range(0, B, step)
    ]
    for rows, U in chunks:
        for target, ids, g in zip(into.values(), rows, _slot_grads(layer, rows, U)):
            _add_rows(target, ids, g)


def _slot_grads(layer: EmbeddingLayer, rows: list[np.ndarray], U: np.ndarray) -> list[np.ndarray]:
    """Per block, every word's ``(B, slots, cols)`` slot gradients: the adjoint of
    ``layers._combine`` on the row ids ``rows``, against the upstream rows ``U``."""
    cfg, B = layer.config, len(U)
    if cfg.kind is MethodKind.MATRIX_FACTOR:
        left, right = layer.params.values()
        left_rows = left[rows[0][:, 0]]
        return [np.matmul(right, U[:, :, None]).reshape(B, 1, -1),
                left_rows[:, :, None] * U[:, None, :]]

    if cfg.kind is MethodKind.TENSOR_TRAIN:
        df, n = cfg.dim_factors, cfg.order
        cores, carries = _tt_chain(layer, rows)
        grads = [None] * n
        u_mat = _pad_upstream(U, math.prod(df)).reshape(B, -1, df[n - 1])
        grads[n - 1] = np.matmul(carries[-1].transpose(0, 2, 1), u_mat)
        grad_carry = np.matmul(u_mat, cores[-1].transpose(0, 2, 1))
        for k in range(n - 2, 0, -1):
            grad_flat = grad_carry.reshape(B, -1, cores[k].shape[2])
            grads[k] = np.matmul(carries[k - 1].transpose(0, 2, 1), grad_flat)
            grad_carry = np.matmul(grad_flat, cores[k].transpose(0, 2, 1))
        grads[0] = grad_carry
        return [g.reshape(B, 1, -1) for g in grads]

    # the six kinds that sum products: only a product of two or more factors
    # reads its rows, a lone factor's gradient being the padded upstream
    params = list(layer.params.values())
    grads = [np.empty(ids.shape + p.shape[1:]) for p, ids in zip(params, rows)]
    layout = _factor_layout(cfg)
    read = {block for group in layout if len(group) > 1 for block, _, _ in group}
    gathered = {block: params[block][rows[block]] for block in read}
    targets = [[grads[block][:, slot, cols] for block, slot, cols in group] for group in layout]
    U_full = _pad_upstream(U, math.prod(t.shape[1] for t in targets[0]))
    for group, slots in zip(layout, targets):
        if len(group) == 1:
            slots[0][...] = U_full
            continue
        vectors = [gathered[block][:, slot, cols] for block, slot, cols in group]
        for target, g in zip(slots, _product_grads(vectors, U_full)):
            target[...] = g
    return grads


def backward(layer: EmbeddingLayer, word_id: int, upstream: np.ndarray) -> list[GradSlot]:
    """Gradient of ``<upstream, forward(layer, word_id)>`` per parameter block.

    Returns one dense slot per block in the block order used at build time.
    This is ``backward_batch`` on a batch of one, into a fresh zeroed dict.
    """
    grads = {n: np.zeros_like(p) for n, p in layer.params.items()}
    backward_batch(layer, [word_id], np.asarray(upstream, dtype=np.float64)[None], grads)
    return [GradSlot(name, grads[name]) for name in layer.params]


def touched_rows(layer: EmbeddingLayer, word_id: int) -> dict[str, list[int]]:
    """Rows of each parameter block that participate in one word's forward."""
    rows = gather_batch(layer, [word_id])
    return {name: np.unique(ids).tolist() for name, ids in zip(layer.params, rows)}


@dataclass
class FiniteDiffReport:
    checked: int
    max_rel_error: float
    failures: list[tuple[str, int, int, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def finite_diff_check(
    layer: EmbeddingLayer,
    word_id: int,
    epsilon: float = 1e-5,
    tolerance: float = 1e-5,
    seed: int = 0,
) -> FiniteDiffReport:
    """Compare the analytic adjoint against central differences.

    Every parameter entry touched by the word is perturbed both ways and the
    directional derivative against a random upstream is compared with the
    analytic slot value via the Jacobian-vector identity.  Exceeding the
    tolerance is recorded in the report, never raised.
    """
    if not 0 < epsilon < math.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    cfg = layer.config
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(cfg.embed_dim)
    slots = {s.param_name: s.grad for s in backward(layer, word_id, u)}

    max_rel = 0.0
    checked = 0
    failures: list[tuple[str, int, int, float, float]] = []
    for name, rows in touched_rows(layer, word_id).items():
        block = layer.params[name]
        for row in rows:
            for col in range(block.shape[1]):
                theta = block[row, col]
                hi, lo = theta + epsilon, theta - epsilon
                block[row, col] = hi
                y_hi = forward(layer, word_id)
                block[row, col] = lo
                y_lo = forward(layer, word_id)
                block[row, col] = theta
                # divide by the realised step, the exact adjoint of the
                # perturbation actually applied
                numeric = float(u @ (y_hi - y_lo)) / (hi - lo)
                analytic = float(slots[name][row, col])
                denom = max(abs(numeric), abs(analytic), 1e-3)
                rel = abs(numeric - analytic) / denom
                checked += 1
                if rel > max_rel:
                    max_rel = rel
                if rel > tolerance:
                    failures.append((name, row, col, analytic, numeric))
    return FiniteDiffReport(checked=checked, max_rel_error=max_rel, failures=failures)
