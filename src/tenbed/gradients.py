"""Hand-derived reverse-mode gradients for every layer's forward map.

Each forward map is a shallow fixed-shape multilinear expression, so the
adjoints are written out instead of built as a general autodiff graph.
``_add_grads``, the adjoint of ``layers._combine``, adds a chunk's gradient
into a caller's gradient dict, keyed by table, from what the combine returned
for the chunk (its ``reads``: a chain's carries and its last core's rows where
a digit reads them, a sum kind's factors and Khatri-Rao prefixes), so it
computes nothing the forward computed.  Like the combine it takes a chain's
path or a sum's, as ``LayerConfig.layout`` says.  It is given two sets of rows:
the table rows the words read, and the buffer row each one's gradient goes to.
``add_batch(layer, rows, reads, U, into, to)`` walks a batch chunk by chunk of
``LayerConfig.chunk_words``, from the rows and reads ``layers.forward_record``
returned: a one-chunk batch's reads feed the adjoint, and with ``reads`` None
(a longer batch) each chunk is combined again for its reads.
``backward_batch`` takes a batch of word ids and one upstream row per word,
checks that ``into`` holds a C-contiguous float64 gradient of each table's
shape or rows, and calls ``add_batch`` with no reads and the table rows as both
sets; ``training.train`` calls it with what its forward returned and the rows
of the optimizer's buffers.  Where many words of a chunk write one table row,
the chunk's sum is taken by one matmul and added once: a chain's last core
where every word reads it whole, and each row of a chain's middle core, over
the words whose digit reads it.  Every other table gets each word's slot
gradients, added by ``_add_rows`` word by word in batch order, one scatter per
table; for a sum kind ``_slot_grads`` writes them into the buffers
``LayerConfig.layout`` gives.  The summed tables so differ from word-by-word
adds by rounding only.  Truncation to the embedding dimension is adjointed by
zero-padding the upstream.  A word that reads one row in several slots
(repeated morphemes) has its slot gradients summed first and the sum added
once, the correct total derivative.  ``backward`` and ``touched_rows`` are the
same for a batch of one word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .layers import (
    ALL,
    EmbeddingLayer,
    _combine,
    _row_groups,
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


def _rank_sum_grads(factors: list[np.ndarray], prefixes: list[np.ndarray],
                    U_full: np.ndarray) -> list[np.ndarray]:
    """Per word b, the ``(B, r, len_j)`` gradients of ``<U_full[b], sum_i f_0[b, i] x ... x
    f_{n-1}[b, i]>`` w.r.t. each ``factors[j]``, n >= 2, given the forward's Khatri-Rao
    ``prefixes`` of factors 0..k for k < n - 1.

    The product is the Khatri-Rao product ``KR`` of factors 0..n-2 contracted
    with the last over rank: the last factor's gradient is ``KR @ U``, the
    Khatri-Rao part's ``last @ U^T``, which unfolds to each earlier factor
    by stacked matmuls against the prefix before it and the factor itself.
    """
    n, (B, r) = len(factors), factors[0].shape[:2]
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


def _add_rows(target: np.ndarray, to: np.ndarray, grads: np.ndarray) -> None:
    """Add ``grads[i, b, s]``, the gradient of word b's slot s in block i of a table,
    into row ``to[b, i, s]`` of ``target``, word by word in batch order: the
    scatter for a table whose rows each word writes apart, by slot gradients of
    its own.

    ``target`` is a C-contiguous buffer of rows: a table's gradient, of its
    ``(count, rows, cols)`` shape or its ``(count * rows, cols)`` rows, with
    ``to`` the rows ``i * rows + row`` (``table_rows``), or a compact buffer
    with ``to`` its rows that hold them.  Either way two slots of a word share
    a row of ``to`` where they read one row of the table.  A word that reads
    some row in several slots gets, in every row it reads, the sum of its slot
    gradients taken in slot order from zero, added once: ``target + (0 + g1 +
    g2)``.  Any other word adds its slot gradients as they are.  The scatter is
    by element index (``to * cols + col``), which adds the same elements in the
    same order as adding whole rows, on numpy's fast one-dimensional
    ``add.at`` path.
    """
    to = to.transpose(1, 0, 2)  # (count, B, slots), as grads
    if to.shape[2] > 1:  # a word may read a row in several slots
        # first[b, s]: the first slot of word b that reads the row of its slot s
        word_rows = to[0]
        first = (word_rows[:, :, None] == word_rows[:, None, :]).argmax(axis=2)
        later = first != np.arange(to.shape[2])
        repeats = np.flatnonzero(later.any(axis=1))
        if len(repeats):  # else every slot adds, in the order a mask would keep
            sums = grads.copy()
            sums[:, repeats] = 0.0
            for s in range(to.shape[2]):
                sums[:, repeats, first[repeats, s]] += grads[:, repeats, s]
            to, grads = to[:, ~later], sums[:, ~later]
    cols = target.shape[-1]
    at = to[..., None] * cols + np.arange(cols)
    np.add.at(target.reshape(-1), at.reshape(-1), grads.reshape(-1))


def table_rows(layer: EmbeddingLayer, rows: list[np.ndarray]) -> list[np.ndarray]:
    """Per table, the ``(B, count, slots)`` rows of its ``(count * rows, cols)`` view that
    ``gather_batch``'s ``rows`` name: ``i * rows + rows[k][b, s]`` for block i."""
    return [ids[:, None] + t.shape[1] * np.arange(len(t))[:, None]
            for ids, t in zip(rows, layer.tables.values())]


def backward_batch(
    layer: EmbeddingLayer,
    word_ids: Sequence[int],
    upstream: np.ndarray,
    into: dict[str, np.ndarray],
) -> list[np.ndarray]:
    """Add the gradient of ``sum_b <upstream[b], forward(layer, word_ids[b])>`` into ``into``.

    ``into`` maps exactly the layer's table names, in any order, to C-contiguous
    float64 gradients, each of its table's ``(count, rows, cols)`` shape or of
    its ``(count * rows, cols)`` rows; anything else raises ``ValueError``
    naming the table.  ``upstream`` is one length-d row per word.  Every id,
    the upstream and ``into`` are checked before anything is written; then
    words are taken in chunks of ``config.chunk_words()`` (``add_batch``), each
    a forward that keeps its reads, then its adjoint.  ``into`` ends as adding
    each word's ``backward`` in turn would leave it, byte for byte, but for the
    tables a chunk adds as one sum (a chain's last core where every word reads
    it whole, a chain's middle cores), which match it up to rounding.
    Returns the rows written per table, in table order: a ``(B, count *
    slots)`` array of rows ``i * rows + k`` (row k of block i), each word's
    block by block; a row may appear more than once.
    """
    rows = gather_batch(layer, word_ids)
    B = len(rows[0])
    U = np.ascontiguousarray(upstream, dtype=np.float64)
    if U.shape != (B, layer.config.embed_dim):
        raise ValueError(f"upstream must have shape {(B, layer.config.embed_dim)}, got {U.shape}")
    if into.keys() != layer.tables.keys():
        raise ValueError(f"into has gradients for {list(into)}, not for the "
                         f"{layer.config.kind.value} tables {list(layer.tables)}")
    for name, t in layer.tables.items():
        g, shapes = into[name], (t.shape, (t.shape[0] * t.shape[1], t.shape[2]))
        if not (isinstance(g, np.ndarray) and g.dtype == np.float64 and g.flags.c_contiguous
                and g.shape in shapes):
            raise ValueError(f"the gradient of table {name!r} must be a C-contiguous float64 "
                             f"array of shape {shapes[0]} or {shapes[1]}, got "
                             f"{getattr(g, 'dtype', type(g).__name__)} {np.shape(g)}")
    written = table_rows(layer, rows)
    add_batch(layer, rows, None, U, into, written)
    return [ids.reshape(B, ids.shape[1] * ids.shape[2]) for ids in written]


def add_batch(layer: EmbeddingLayer, rows: list[np.ndarray], reads: list[np.ndarray] | None,
              U: np.ndarray, into: dict[str, np.ndarray], to: list[np.ndarray]) -> None:
    """Add the gradient of the words whose ``rows`` and ``reads``
    ``layers.forward_record`` returned into ``into``, in chunks of
    ``config.chunk_words()`` words: the upstream rows ``U``, and the buffer
    rows ``to`` (``table_rows``' shape) of the table rows they read.  The reads
    of a one-chunk batch feed its adjoint; with ``reads`` None each chunk is
    combined again for its reads, so a long batch holds one chunk's at a time."""
    step = layer.config.chunk_words()
    for lo in range(0, len(U), step):
        at = slice(lo, lo + step)
        chunk = [ids[at] for ids in rows]
        # passed, not bound, so a chunk's reads are freed before the next is combined
        _add_grads(layer, chunk, _combine(layer, chunk)[1] if reads is None else reads,
                   U[at], into, [ids[at] for ids in to])


def _add_grads(layer: EmbeddingLayer, rows: list[np.ndarray], reads: list[np.ndarray],
               U: np.ndarray, into: dict[str, np.ndarray], to: list[np.ndarray]) -> None:
    """Add the adjoint of ``layers._combine`` on the row ids ``rows``, given the
    ``reads`` it returned for them, against the upstream rows ``U``, into
    ``into``: the gradient of the row ``rows[k][b, s]`` reads in block i of
    table k goes to row ``to[k][b, i, s]`` of its buffer.  Nothing the forward
    computed is computed again.

    A chain (``layout.chain``) is adjointed core by core from the last, a sum
    kind by ``_slot_grads``.  A table row that many words read gets the sum
    over those words from one matmul, added once: a chain's last core where
    ``ALL`` reads it, and each row of a chain's middle core, for the words
    whose digit reads it.  Every other table gets each word's slot gradients
    by ``_add_rows``.
    """
    cfg, B = layer.config, len(U)
    layout, names = cfg.layout, list(layer.tables)
    if layout.chain:
        df, n, r = layout.chain, len(names), cfg.rank
        cores = [t[0] for t in layer.tables.values()]
        whole = layout.tables[-1].read == ALL  # every word reads the whole last core
        carries, last = reads[: n - 1], cores[-1].reshape(1, r, -1) if whole else reads[-1]
        u_mat = _pad_upstream(U, cfg.product_length).reshape(B, -1, df[-1])
        if whole:
            target = into[names[-1]].reshape(-1, df[-1])  # a view: its rows
            target[to[-1][0, 0]] += carries[-1].reshape(-1, r).T @ u_mat.reshape(-1, df[-1])
        else:
            last_grad = np.matmul(carries[-1].transpose(0, 2, 1), u_mat)
            _add_rows(into[names[-1]], to[-1], last_grad.reshape(1, B, 1, -1))
        grad_carry = np.matmul(u_mat, last.transpose(0, 2, 1))
        for k in range(n - 2, 0, -1):
            grad_flat = grad_carry.reshape(B, -1, df[k] * r)
            core = cores[k].reshape(len(cores[k]), r, -1)
            target = into[names[k]].reshape(-1, core[0].size)  # a view: its rows
            grad_carry = np.empty(grad_flat.shape[:2] + (r,))
            for row, words in _row_groups(rows[k][:, 0]):  # the grouping of _by_core_row
                grad_rows = grad_flat[words]
                target[to[k][words[0], 0, 0]] += (carries[k - 1][words].reshape(-1, r).T
                                                  @ grad_rows.reshape(-1, df[k] * r)).reshape(-1)
                grad_carry[words] = np.matmul(grad_rows, core[row].T)
        _add_rows(into[names[0]], to[0], grad_carry.reshape(1, B, 1, -1))
        return

    for name, ids, g in zip(names, to, _slot_grads(layer, reads, U)):
        _add_rows(into[name], ids, g)


def _slot_grads(layer: EmbeddingLayer, reads: list[np.ndarray], U: np.ndarray) -> list[np.ndarray]:
    """For a kind that sums tensor products, per table every word's ``(count, B,
    slots, cols)`` slot gradients, from the factors and Khatri-Rao prefixes in
    ``_combine``'s ``reads``: each factor's gradient is written into its view of
    the buffers ``LayerConfig.layout`` gives, so the table buffers hold them."""
    tables, factors = layer.config.layout.buffers(len(U))
    U_full = _pad_upstream(U, layer.config.product_length)
    if not reads:  # a one-factor product's gradient is the padded upstream
        factors[0][...] = U_full[:, None]
    else:
        n = len(factors)
        for f, g in zip(factors, _rank_sum_grads(reads[:n], reads[:1] + reads[n:], U_full)):
            f[...] = g
    return [g.transpose(0, 2, 1, 3) for g in tables]


def backward(layer: EmbeddingLayer, word_id: int, upstream: np.ndarray) -> list[GradSlot]:
    """Gradient of ``<upstream, forward(layer, word_id)>`` per parameter block.

    Returns one dense slot per block in the block order used at build time,
    each a view of its table's gradient.  This is ``backward_batch`` on a
    batch of one, into fresh zeroed tables.
    """
    grads = {name: np.zeros(t.shape) for name, t in layer.tables.items()}
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
