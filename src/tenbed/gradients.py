"""Hand-derived reverse-mode gradients for every layer's forward map.

Each forward map is a shallow fixed-shape multilinear expression, so the
adjoints are written out instead of built as a general autodiff graph.
``layers.gather`` gives the rows a word reads and, over a gradient dict
(a caller's batch buffer or a fresh zeroed one), views of the same rows to
add into; one adjoint per family of combine steps fills those views, and the
four tensor-product kinds share one.  Truncation to the embedding dimension
is adjointed by zero-padding the upstream vector back to the full product
length.  When a word references the same parameter row several times
(repeated morphemes), the positional contributions are summed first and the
sum is added once, which is the correct total derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .layers import (
    _MATRIX_FACTOR,
    _TENSOR_TRAIN,
    KET_KINDS,
    MORPHOLOGICAL_KINDS,
    TENSOR_PRODUCT_KINDS,
    EmbeddingLayer,
    _ket_groups,
    _tensor_train_chain,
    forward,
    gather,
)


@dataclass
class GradSlot:
    """Gradient buffer aligned with one named parameter block."""

    param_name: str
    grad: np.ndarray


def _pad_upstream(u: np.ndarray, full_size: int) -> np.ndarray:
    """``u`` zero-padded to ``full_size``: the adjoint of truncating to its length."""
    if u.size == full_size:
        return u
    padded = np.zeros(full_size)
    padded[: u.size] = u
    return padded


def _chain_grads(vectors: list[np.ndarray], u_full: np.ndarray) -> list[np.ndarray]:
    """Gradients of <u, v1 x ... x vn> w.r.t. each vk.

    Contracts the upstream tensor with every vector except the one being
    differentiated; works for heterogeneous factor lengths.
    """
    n = len(vectors)
    if n == 1:
        return [u_full.copy()]
    shaped = u_full.reshape(tuple(v.size for v in vectors))
    axes = list(range(n))
    grads = []
    for k in range(n):
        # einsum's sublist form: each operand followed by its axis numbers
        others = [x for m in axes if m != k for x in (vectors[m], [m])]
        grads.append(np.einsum(shaped, axes, *others, [k]))
    return grads


def backward(
    layer: EmbeddingLayer,
    word_id: int,
    upstream: np.ndarray,
    into: dict[str, np.ndarray] | None = None,
) -> list[GradSlot]:
    """Gradient of ``<upstream, forward(layer, word_id)>`` per parameter block.

    Returns one slot per block in the block order used at build time.  With
    ``into``, a gradient dict of the params' shapes, the word's gradient is
    added into it and the slots hold its arrays; this allocates nothing of
    a block's size, so a trainer sums a batch in one buffer.  Without it, the
    same adds go into a fresh zeroed dict, so rows the word does not read
    are exactly zero.

    A row the word reads in several slots (a pad, a repeated morpheme or a
    repeated random id) gets the sum of its slot gradients, taken in slot
    order from zero, added once: ``into + (0 + g1 + g2)``.
    """
    cfg = layer.config
    u = np.asarray(upstream, dtype=np.float64)
    if u.ndim != 1 or u.size != cfg.embed_dim:
        raise ValueError(f"upstream must have length {cfg.embed_dim}, got shape {u.shape}")
    kind = cfg.kind
    grads = into if into is not None else {n: np.zeros_like(p) for n, p in layer.params.items()}
    rows = gather(layer, layer.params, word_id)
    views = gather(layer, grads, word_id)
    repeated = _sum_repeated_slots(layer, word_id, views) if kind in MORPHOLOGICAL_KINDS else ()

    if kind in TENSOR_PRODUCT_KINDS:
        groups = _ket_groups(layer, rows)
        u_full = _pad_upstream(u, math.prod(v.size for v in groups[0]))
        for vecs, group_views in zip(groups, _ket_groups(layer, views)):
            for view, g in zip(group_views, _chain_grads(vecs, u_full)):
                view += g

    elif kind is _MATRIX_FACTOR:
        (left,), (right,) = rows
        (grad_left,), (grad_right,) = views
        grad_left += right @ u
        grad_right += np.outer(left, u)

    elif kind is _TENSOR_TRAIN:
        df, n = cfg.dim_factors, cfg.order
        cores, carries = _tensor_train_chain(layer, rows)
        g = [view for (view,) in views]
        u_mat = _pad_upstream(u, math.prod(df)).reshape(-1, df[n - 1])
        g[n - 1] += (carries[-1].T @ u_mat).ravel()
        grad_carry = u_mat @ cores[-1].T
        for k in range(n - 2, 0, -1):
            grad_flat = grad_carry.reshape(-1, cores[k].shape[1])
            g[k] += (carries[k - 1].T @ grad_flat).ravel()
            grad_carry = grad_flat @ cores[k].T
        g[0] += grad_carry.ravel()

    else:  # original, morphsum: the forward is the sum of the rows read
        for block_views in views:
            for view in block_views:
                view += u

    for targets, sums in repeated:
        for target, total in zip(targets, sums):
            target += total
    return [GradSlot(name, grads[name]) for name in layer.params]


def _sum_repeated_slots(layer: EmbeddingLayer, word_id: int, views: list[list]) -> list:
    """Rewire a word's morpheme slots to one zeroed sum row per distinct row.

    Only when some row fills several slots: ``views`` is ``gather``'s output
    over a gradient dict for a morphological kind, and the slot lists of its
    morpheme blocks are replaced in place by rows of a small zeroed array.
    Returns ``(targets, sums)`` per rewired block; once the adjoint has
    filled ``sums``, each sum row is added into its target row of the
    gradient dict.  A word whose slots read different rows costs one set.
    """
    ids = layer.index.row(word_id).tolist()
    if len(set(ids)) == len(ids):
        return []
    distinct = list(dict.fromkeys(ids))  # in first-slot order
    repeated = []
    for slots in views if layer.config.kind in KET_KINDS else views[1:]:
        sums = np.zeros((len(distinct), slots[0].size))
        targets = [slots[ids.index(m)] for m in distinct]
        slots[:] = [sums[distinct.index(m)] for m in ids]
        repeated.append((targets, sums))
    return repeated


def touched_rows(layer: EmbeddingLayer, word_id: int) -> dict[str, list[int]]:
    """Rows of each parameter block that participate in one word's forward."""
    ids = {name: range(len(p)) for name, p in layer.params.items()}
    reads = gather(layer, ids, word_id)
    return {name: np.unique(np.hstack(read)).tolist() for name, read in zip(ids, reads)}


@dataclass
class FiniteDiffReport:
    word_id: int
    epsilon: float
    tolerance: float
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
    return FiniteDiffReport(
        word_id=word_id,
        epsilon=epsilon,
        tolerance=tolerance,
        checked=checked,
        max_rel_error=max_rel,
        failures=failures,
    )
