"""Hand-derived reverse-mode gradients for every layer's forward map.

Each forward map is a shallow fixed-shape multilinear expression, so the
adjoints are written out instead of built as a general autodiff graph.
``backward_batch`` takes a batch of word ids and one upstream row per word,
in chunks of ``LayerConfig.chunk_words``.  ``_slot_grads``, the adjoint of
``layers._combine``, gives each table's slot gradients: a sum kind writes
each factor's gradient into its view of the buffers ``LayerConfig.layout``
gives, so the table buffers hold them; matrix_factor and tensor_train have
their own.  ``_add_rows`` adds them into a caller's gradient dict, keyed by
table, in batch order, one scatter per table.  Truncation to the embedding
dimension is adjointed by zero-padding the upstream.  A word that reads one row in several slots (repeated
morphemes) has its slot gradients summed first and the sum added once, the
correct total derivative.  ``backward`` and ``touched_rows`` are the same
for a batch of one word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .layers import (
    EmbeddingLayer,
    MethodKind,
    _by_core_row,
    _khatri_rao,
    _read_factors,
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


def _rank_sum_grads(factors: list[np.ndarray], U_full: np.ndarray) -> list[np.ndarray]:
    """Per word b, the ``(B, r, len_j)`` gradients of ``<U_full[b], sum_i f_0[b, i] x ... x
    f_{n-1}[b, i]>`` w.r.t. each ``factors[j]``, n >= 2.

    The product is the Khatri-Rao product ``KR`` of factors 0..n-2 contracted
    with the last over rank: the last factor's gradient is ``KR @ U``, the
    Khatri-Rao part's ``last @ U^T``, which unfolds to each earlier factor
    by stacked matmuls against the prefix before it and the factor itself.
    """
    n, (B, r) = len(factors), factors[0].shape[:2]
    prefixes = _khatri_rao(factors)
    U = U_full.reshape(B, prefixes[-1].shape[2], -1)
    grads = [None] * n
    grads[n - 1] = np.matmul(prefixes[-1], U)
    g = np.matmul(factors[-1], U.transpose(0, 2, 1))
    for j in range(n - 2, 0, -1):
        g = g.reshape(B, r, -1, factors[j].shape[2])
        grads[j] = np.matmul(prefixes[j - 1][:, :, None, :], g)[:, :, 0]
        g = np.matmul(g, factors[j][:, :, :, None])[:, :, :, 0]
    grads[0] = g
    return grads


def _add_rows(target: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
    """Add ``grads[i, b, s]`` into row ``rows[b, s]`` of block i of a table, word by
    word in batch order.

    ``target`` is the table's gradient, of its ``(count, rows, cols)`` shape or
    its ``(count * rows, cols)`` rows; every block of a table reads the same
    rows.  A word that reads some row in several slots gets, in every row it
    reads, the sum of its slot gradients taken in slot order from zero, added
    once: ``target + (0 + g1 + g2)``.  Any other word adds its slot gradients
    as they are.  A C-contiguous target is scattered into by element index
    (``(i * rows + row) * cols + col``), which adds the same elements in the
    same order as adding whole rows, on numpy's fast one-dimensional
    ``add.at`` path.
    """
    if rows.shape[1] == 1:  # one slot: no word reads a row twice
        rows, grads = rows[:, 0], grads[:, :, 0]
    else:
        # first[b, s]: the first slot of word b that reads row rows[b, s]
        first = (rows[:, :, None] == rows[:, None, :]).argmax(axis=2)
        later = first != np.arange(rows.shape[1])
        repeats = np.flatnonzero(later.any(axis=1))
        if len(repeats):
            sums = grads.copy()
            sums[:, repeats] = 0.0
            for s in range(rows.shape[1]):
                sums[:, repeats, first[repeats, s]] += grads[:, repeats, s]
            grads = sums
        rows, grads = rows[~later], grads[:, ~later]
    count, cols = len(grads), target.shape[-1]
    target = target.reshape(count, -1, cols)  # a view: at most the leading axis is split
    blocks = np.arange(count)[:, None]
    if not target.flags.c_contiguous:
        np.add.at(target, (blocks, rows), grads)
        return
    at = (blocks * target.shape[1] + rows)[:, :, None] * cols + np.arange(cols)
    np.add.at(target.reshape(-1), at.reshape(-1), grads.reshape(-1))


def backward_batch(
    layer: EmbeddingLayer,
    word_ids: Sequence[int],
    upstream: np.ndarray,
    into: dict[str, np.ndarray],
) -> list[np.ndarray]:
    """Add the gradient of ``sum_b <upstream[b], forward(layer, word_ids[b])>`` into ``into``.

    ``into`` maps each table's name to a gradient of the table's shape or of
    its ``(count * rows, cols)`` rows, in any key order; ``upstream`` is one
    length-d row per word.  Every id is checked first; then words are taken
    in chunks of ``config.chunk_words()`` and added in batch order, so
    ``into`` ends as adding each word's ``backward`` in turn would leave it.
    Returns the rows written per table, in table order: a ``(B, count *
    slots)`` array of rows ``i * rows + k`` (row k of block i), each word's
    block by block; a row may appear more than once.
    """
    rows = gather_batch(layer, word_ids)
    B = len(rows[0])
    U = np.ascontiguousarray(upstream, dtype=np.float64)
    if U.shape != (B, layer.config.embed_dim):
        raise ValueError(f"upstream must have shape {(B, layer.config.embed_dim)}, got {U.shape}")
    step = layer.config.chunk_words()
    chunks = [] if B == 0 else [(rows, U)] if B <= step else [
        ([ids[lo : lo + step] for ids in rows], U[lo : lo + step]) for lo in range(0, B, step)
    ]
    for chunk, U in chunks:
        for name, ids, g in zip(layer.tables, chunk, _slot_grads(layer, chunk, U)):
            _add_rows(into[name], ids, g)
    offsets = [t.shape[1] * np.arange(len(t))[:, None] for t in layer.tables.values()]
    return [(ids[:, None] + o).reshape(B, o.size * ids.shape[1]) for ids, o in zip(rows, offsets)]


def _slot_grads(layer: EmbeddingLayer, rows: list[np.ndarray], U: np.ndarray) -> list[np.ndarray]:
    """Per table, every word's ``(count, B, slots, cols)`` slot gradients: the adjoint
    of ``layers._combine`` on the row ids ``rows``, against the upstream rows ``U``."""
    cfg, B = layer.config, len(U)
    if cfg.kind is MethodKind.MATRIX_FACTOR:
        left, right = (t[0] for t in layer.tables.values())
        left_rows = left[rows[0][:, 0]]
        return [np.matmul(right, U[:, :, None]).reshape(1, B, 1, -1),
                (left_rows[:, :, None] * U[:, None, :])[None]]

    if cfg.kind is MethodKind.TENSOR_TRAIN:
        df, n = cfg.dim_factors, cfg.order
        r, cores = cfg.rank, [t[0] for t in layer.tables.values()]
        carries, last = _tt_chain(layer, rows)
        grads = [None] * n
        u_mat = _pad_upstream(U, math.prod(df)).reshape(B, -1, df[n - 1])
        grads[n - 1] = np.matmul(carries[-1].transpose(0, 2, 1), u_mat)
        grad_carry = np.matmul(u_mat, last.transpose(0, 2, 1))
        for k in range(n - 2, 0, -1):
            grad_flat = grad_carry.reshape(B, -1, df[k] * r)
            grads[k] = np.matmul(carries[k - 1].transpose(0, 2, 1), grad_flat)
            core = cores[k].reshape(len(cores[k]), r, -1).transpose(0, 2, 1)
            grad_carry = _by_core_row(grad_flat, core, rows[k][:, 0])
        grads[0] = grad_carry
        return [g.reshape(1, B, 1, -1) for g in grads]

    # a sum kind: each factor's gradient goes into its view of its table's buffer
    tables, factors = cfg.layout.buffers(B)
    U_full = _pad_upstream(U, cfg.product_length)
    if len(factors) == 1:  # a one-factor product's gradient is the padded upstream
        factors[0][...] = U_full[:, None]
    else:
        for f, g in zip(factors, _rank_sum_grads(_read_factors(layer, rows), U_full)):
            f[...] = g
    return [g.transpose(0, 2, 1, 3) for g in tables]


def backward(layer: EmbeddingLayer, word_id: int, upstream: np.ndarray) -> list[GradSlot]:
    """Gradient of ``<upstream, forward(layer, word_id)>`` per parameter block.

    Returns one dense slot per block in the block order used at build time,
    each a view of its table's gradient.  This is ``backward_batch`` on a
    batch of one, into fresh zeroed tables.
    """
    grads = {name: np.zeros_like(t) for name, t in layer.tables.items()}
    backward_batch(layer, [word_id], np.asarray(upstream, dtype=np.float64)[None], grads)
    return [GradSlot(name, g) for name, g in layer.block_views(grads).items()]


def touched_rows(layer: EmbeddingLayer, word_id: int) -> dict[str, list[int]]:
    """Rows of each parameter block that participate in one word's forward."""
    rows = dict(zip(layer.tables, gather_batch(layer, [word_id])))
    return {b.name: np.unique(rows[b.table]).tolist() for b in layer.config.layout.blocks}


@dataclass
class FiniteDiffReport:
    checked: int
    max_rel_error: float
    failures: list[tuple[str, int, int, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_finite_diff_steps(epsilon: float, tolerance: float) -> None:
    """Raise ``ConfigError`` unless the step and the tolerance are finite and > 0:
    against a NaN or negative tolerance every entry would pass or every one fail."""
    for name, value in (("epsilon", epsilon), ("tolerance", tolerance)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")


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
    tolerance is recorded in the report, never raised; a step or tolerance
    that is not finite and > 0 raises ``ConfigError``.
    """
    check_finite_diff_steps(epsilon, tolerance)
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
