"""Desk-scale trainer proving the compressed layers actually fit things.

Two tasks: reproduce a target embedding table under mean squared error, or
separate labelled word pairs with a cosine contrastive loss.  A task checks
its pairs once, when it is built, into one ``(n, 3)`` integer array.  Each
minibatch is one ``forward_record`` over every word its examples read (a
pair batch in pair order, a0, b0, a1, b1, ...), which returns the words'
rows and, for a batch of one chunk, what the adjoint reads; the per-example
losses and upstreams are computed for the whole batch at once, a pair's two
upstreams as one stacked ``(2, 2) @ (2, d)`` product, and the rows and
reads are taken at the words with a gradient.  The optimizer gives each row
those words read its row in the block's gradient buffer
(``OptimizerState.take_rows``), in the row order its step reads, before
``add_batch`` scatters the batch's gradient there from those rows and
reads, with no second gather, and no second forward for a batch of one
chunk (a longer batch's chunks are combined again, so its memory stays
bounded by one chunk); the step scales that sum by the batch size and
applies it to the rows some batch has written, and only the buffer rows the
batch wrote are zeroed again, so every buffer is zero between batches.  The
batch loss is summed example by example, in example order.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDivergedError, WordLookupError
from .gradients import add_batch, table_rows
from .layers import EmbeddingLayer, forward_batch, forward_record
from .gradients import backward  # noqa: F401  (unused; perfbench/tracing.py wraps these names)
from .layers import forward  # noqa: F401

SLICE_FLOATS = 32768  # floats per optimizer slice: 256 KB, cache-sized
ADAM_BETAS = (0.9, 0.98)  # decay rates of Adam's first and second moments
ADAM_EPS = 1e-8
LOSSES = {"reconstruct_table": "mse", "word_similarity": "cosine_contrastive"}


@dataclass
class TrainTask:
    """A task ``train`` fits a layer to.  Given targets (a 2-D real array) and pairs are
    checked once, here; pairs are held as one read-only ``(n, 3)`` int array (``pair_array``)."""

    kind: str  # "reconstruct_table" | "word_similarity"
    targets: np.ndarray | None = None  # (V, d) table for reconstruction
    pairs: np.ndarray | None = None  # (a, b, label in {0,1}) per row, from any sequence of pairs
    loss: str | None = None  # the kind's own loss (LOSSES), the only one it trains with

    def __post_init__(self):
        own = LOSSES.get(self.kind)
        if own is None:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.loss not in (None, own):
            raise ConfigError(f"{self.kind} trains with {own!r} loss, not {self.loss!r}")
        self.loss = own
        t = self.targets
        is_array = isinstance(t, np.ndarray)
        if t is not None and not (is_array and t.ndim == 2 and t.dtype.kind in "iuf"):
            got = f"a {t.ndim}-D {t.dtype} array" if is_array else type(t).__name__
            raise ConfigError(f"targets must be a 2-D array of real numbers, got {got}")
        if self.pairs is not None:
            self.pairs = pair_array(self.pairs)

    def validate(self, layer: EmbeddingLayer) -> None:
        if self.kind == "reconstruct_table":
            if self.targets is None:
                raise ConfigError("reconstruct_table needs a target table")
            expected = (layer.config.vocab_size, layer.config.embed_dim)
            if self.targets.shape != expected:
                raise ConfigError(f"target table shape {self.targets.shape} != {expected}")
        elif self.pairs is None or not len(self.pairs):
            raise ConfigError("word_similarity needs labelled pairs")
        else:  # refused before any step, so a bad pair changes no table
            ids, V = self.pairs[:, :2], layer.config.vocab_size
            bad = np.flatnonzero(((ids < 0) | (ids >= V)).any(axis=1))
            if bad.size:
                raise WordLookupError(f"pair {tuple(self.pairs[bad[0]].tolist())} has a word id "
                                      f"out of range [0, {V})")


def pair_array(pairs) -> np.ndarray:
    """Labelled pairs ``(a, b, label)`` as one read-only ``(n, 3)`` intp array.

    A pair that is not three integers (a bool is not one), or whose label is
    not 0 or 1, raises ``ConfigError`` naming it; ``TrainTask.validate`` checks
    word ids against a layer.  An array is scanned as Python numbers (its
    ``tolist()``), so no value wraps.
    """
    if isinstance(pairs, np.ndarray):
        pairs = pairs.tolist()
    for pair in pairs:
        if (not isinstance(pair, (tuple, list, np.ndarray)) or len(pair) != 3
                or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                           for v in pair)):
            raise ConfigError(f"a pair must be three integers (a, b, label), got {pair!r}")
    try:
        array = np.array(pairs, dtype=np.intp).reshape(-1, 3)
    except OverflowError:
        raise ConfigError("a pair holds an integer beyond the int64 range") from None
    bad = np.flatnonzero((array[:, 2] != 0) & (array[:, 2] != 1))
    if bad.size:
        raise ConfigError(f"pair {tuple(array[bad[0]].tolist())} has label "
                          f"{array[bad[0], 2]}, not 0 or 1")
    array.flags.writeable = False
    return array


def _gathers(shape: tuple[int, int]) -> bool:
    """Whether a step may gather rows of a block: not in a block of one slice.
    Under half the rows, gathered chunks cost less than whole slices."""
    return shape[0] * shape[1] > SLICE_FLOATS


@dataclass
class OptimizerState:
    """Plain SGD or bias-corrected adaptive moments, keyed by block name (``train``
    steps each table of a layer as one block: its ``(count * rows, cols)`` rows).
    Only ``kind`` and ``lr`` are given (``OptimizerState(kind, lr)``); every
    other field is state the steps keep.

    A block's gradient comes in the row order of its state.  A block in
    ``live`` is gathered: row i of its gradient is the gradient of row
    ``live[name][i]``.  Any other block is stepped whole, from a table-shaped
    gradient.  ``take_rows`` decides, before a batch is scattered: Adam keeps
    a gathered block's moments compact, for only the rows some step has
    written, in ``(capacity, cols)`` arrays in the order the rows went live,
    beside a row-to-slot map (``slots``, -1 for a row never written); SGD
    keeps no row state: ``take_rows`` gathers a block for the next step only,
    over that step's distinct rows.  ``table_moments`` reads every block's
    moments table-shaped.

    Per block it also keeps the gradient buffer ``train`` scatters a batch
    into (``grads``, all zero between batches), in that row order: ``(capacity,
    cols)`` for an Adam block held compact, one row per distinct row for an
    SGD block gathered this step, and table-shaped for a block stepped
    whole.  Buffers and moments are ``np.zeros``, which writes no page, so a
    row no batch writes costs no memory.
    """

    kind: str = "adam"  # "sgd" | "adam"
    lr: float = 1e-2
    step_count: int = field(init=False, default=0)
    moments_m: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    moments_v: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    grads: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    live: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    slots: dict[str, np.ndarray] = field(init=False, default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")

    def _check_shape(self, name: str, shape: tuple[int, ...]) -> None:
        """Raise unless every array held for block ``name`` fits the block's ``shape``:
        a gathered block's moments and buffer its columns, the row-to-slot map
        its rows."""
        gathered = name in self.live
        for what, held in (("moments", self.moments_m.get(name)),
                           ("gradient buffer", self.grads.get(name)),
                           ("row-to-slot map", self.slots.get(name))):
            if held is None:
                continue
            if gathered and what != "row-to-slot map":  # (capacity, cols)
                fits = held.shape[1:] == shape[1:]
            else:
                fits = held.shape == shape[: held.ndim]
            if not fits:
                raise ConfigError(f"block {name!r} has shape {shape}, but the optimizer "
                                  f"holds a {what} of shape {held.shape} for it")

    def _grad_shape(self, name: str, shape: tuple[int, int]) -> tuple[int, int]:
        """The shape of block ``name``'s gradient: table-shaped, or one row per
        slot of a gathered block (Adam's slots are its moments' rows)."""
        if name not in self.live:
            return shape
        return len(self.moments_m.get(name, self.live[name])), shape[1]

    def take_rows(
        self, params: dict[str, np.ndarray], written: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Ready the next step for a batch that writes the rows ``written`` of each
        block (any shape, repeats allowed): returns the gradient buffers, which
        ``train`` keeps zero between batches, and for every written row its row
        in its block's buffer, in the shape of ``written``.

        An Adam block's new rows take slots after its live rows; its buffer and
        moments grow with them, and are table-shaped once half its rows are
        live.  An SGD block takes this step's distinct rows, or whole slices
        once those are half the block.  A block of one slice is stepped whole.
        """
        grads, to = {}, {}
        for name, ids in written.items():
            shape = params[name].shape
            self._check_shape(name, shape)
            if self.kind == "adam":
                self._go_live(name, shape, ids)
                to[name] = self.slots[name][ids] if name in self.slots else ids
            else:
                self.live.pop(name, None)
                to[name] = ids
                if _gathers(shape):
                    at, inverse = np.unique(ids, return_inverse=True)
                    if 2 * len(at) < shape[0]:
                        self.live[name], to[name] = at, inverse.reshape(ids.shape)
            grad_shape = self._grad_shape(name, shape)
            if name not in self.grads or self.grads[name].shape != grad_shape:
                self.grads[name] = np.zeros(grad_shape)  # the held one is zero: no copy
            grads[name] = self.grads[name]
        return grads, to

    def _table_shaped(self, moments: dict[str, np.ndarray], name: str) -> np.ndarray:
        """Block ``name``'s array in ``moments``, a compact one scattered into zeros."""
        held = moments[name]
        if name not in self.slots:
            return held
        live = self.live[name]
        table = np.zeros((len(self.slots[name]), held.shape[1]))
        table[live] = held[: len(live)]
        return table

    def table_moments(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Every block's first and second moments, table-shaped: a compact block's
        live rows in zeros, any other block's arrays as held."""
        return tuple({name: self._table_shaped(moments, name) for name in moments}
                     for moments in (self.moments_m, self.moments_v))

    def _go_live(self, name: str, shape: tuple[int, int], written: np.ndarray) -> None:
        """Make the rows ``written`` of an Adam block live: new rows take the slots
        after the live rows, in compact moments, or the block steps every row, in
        table-shaped moments.  Once a block steps every row it does for good: the
        share of live rows only grows."""
        if not _gathers(shape) or name in self.moments_m and name not in self.slots:
            self._step_every_row(name, shape)
            return
        if name not in self.slots:
            self.slots[name] = np.full(shape[0], -1)
            self.live[name] = np.empty(0, dtype=np.intp)
            self.moments_m[name], self.moments_v[name] = np.zeros((2, 0, shape[1]))
        slots, live = self.slots[name], self.live[name]
        new = written[slots[written] < 0]
        if not new.size:
            return
        new = np.unique(new)
        count = len(live) + len(new)
        if 2 * count >= shape[0]:
            self._step_every_row(name, shape)
            return
        slots[new] = np.arange(len(live), count)
        self.live[name] = np.concatenate([live, new])
        capacity = len(self.moments_m[name])
        if count > capacity:  # doubling: a block grows its moments a few times at most
            capacity = min(max(2 * capacity, count), shape[0] // 2)
            for moments in (self.moments_m, self.moments_v):
                grown = np.zeros((capacity, shape[1]))
                grown[: len(live)] = moments[name][: len(live)]
                moments[name] = grown

    def _step_every_row(self, name: str, shape: tuple[int, int]) -> None:
        """Hold block ``name``'s moments table-shaped from now on: zeros for a new
        block, a compact block's moments scattered once into zeros."""
        if name not in self.moments_m:
            self.moments_m[name], self.moments_v[name] = np.zeros(shape), np.zeros(shape)
        elif name in self.slots:
            for moments in (self.moments_m, self.moments_v):
                moments[name] = self._table_shaped(moments, name)
            del self.slots[name], self.live[name]

    def apply(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        scale: float = 1.0,
    ) -> None:
        """One step along ``scale * grads``, taken in row slices.

        SGD steps ``p -= lr * (scale * g)``.  Adam takes Kingma & Ba's
        reordered step (2015, end of sec. 2): with the moments
        ``m = b1 * m + ((1 - b1) * scale) * g`` and
        ``v = b2 * v + ((1 - b2) * scale**2) * g * g``, it steps
        ``p -= alpha_t * m / (sqrt(v) + eps_hat)``, where
        ``alpha_t = lr * sqrt(1 - b2**t) / (1 - b1**t)`` and
        ``eps_hat = eps * sqrt(1 - b2**t)``.  As ``sqrt(v_hat)`` is
        ``sqrt(v) / sqrt(1 - b2**t)``, that ``eps_hat`` makes this the textbook
        step ``lr * m_hat / (sqrt(v_hat) + eps)`` exactly, up to rounding,
        without dividing the moments by the bias corrections; with ``eps``
        itself in its place the step would differ.

        Each gradient is in its block's row order (see the class): a gathered
        block's has one row per slot, and only its rows ``live[name]`` are
        stepped; any other block's is table-shaped, and every row is stepped,
        Adam's moments held table-shaped from a block's first step.  Skipping
        the other rows is exact.  SGD maps a row of zero gradient to itself
        (``p - 0.0 == p``, ``-0.0`` included).  For Adam a row written once is
        live for good: with zero gradient and moments a step maps a row to
        itself (``p - alpha_t * 0 / (0 + eps_hat) = p``, as ``eps_hat > 0``),
        while a live row's moments keep decaying as in a dense step.

        A slice of about ``SLICE_FLOATS`` floats takes every operation of the
        step in place or in slice-sized scratch, in the order of the
        whole-array formulas, so no temporary is block-sized and the bytes
        are a dense step's.  A slice reads contiguous rows of the gradient and
        of the moments; only ``p[rows] -= t`` indexes by row on a gathered
        block.
        """
        for name, g in grads.items():
            shape = params[name].shape
            self._check_shape(name, shape)
            expected = self._grad_shape(name, shape)
            if g.shape != expected:
                raise ConfigError(f"block {name!r} has shape {shape}, its gradient {g.shape}, "
                                  f"not {expected}")
        adam = self.kind == "adam"
        if adam:  # the moment constants take the scale, the step size the bias corrections
            self.step_count += 1
            b1, b2 = ADAM_BETAS
            c1, c2 = (1 - b1) * scale, (1 - b2) * scale * scale
            root2 = math.sqrt(1 - b2**self.step_count)  # sqrt of v's bias correction
            alpha, eps_hat = self.lr * root2 / (1 - b1**self.step_count), ADAM_EPS * root2
        for name, g in grads.items():
            p, at = params[name], self.live.get(name)
            if adam:
                if name not in self.moments_m:
                    self._step_every_row(name, p.shape)
                moments_m, moments_v = self.moments_m[name], self.moments_v[name]
            count = len(p) if at is None else len(at)
            step = max(1, SLICE_FLOATS // p.shape[1])  # blocks are matrices
            scratch, scratch_den = np.empty((2, min(step, count), p.shape[1]))
            for lo in range(0, count, step):
                hi = min(lo + step, count)
                rows_at = slice(lo, hi) if at is None else at[lo:hi]
                gs, t = g[lo:hi], scratch[: hi - lo]
                if not adam:
                    np.multiply(gs, scale, out=t)
                    t *= self.lr
                    p[rows_at] -= t
                    continue
                m, v = moments_m[lo:hi], moments_v[lo:hi]  # the rows' moments, in place
                m *= b1
                np.multiply(gs, c1, out=t)
                m += t
                v *= b2
                np.multiply(gs, c2, out=t)
                t *= gs
                v += t
                den = np.sqrt(v, out=scratch_den[: hi - lo])
                den += eps_hat
                np.multiply(m, alpha, out=t)
                t /= den
                p[rows_at] -= t


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row: a stacked matmul sums each row as a lone dot does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _cosines(ya: np.ndarray, yb: np.ndarray):
    """Row norms of both sides and the rows' cosines, NaN where a norm is zero."""
    na, nb = np.sqrt(_row_dots(ya, ya)), np.sqrt(_row_dots(yb, yb))
    with np.errstate(divide="ignore", invalid="ignore"):
        return na, nb, _row_dots(ya, yb) / (na * nb)


def _reconstruct_batch(layer, task, batch):
    """Mean squared error per example, each example's upstream, and the batch's rows and reads."""
    y, rows, reads = forward_record(layer, batch)
    diff = y - task.targets[batch]
    d = y.shape[1]
    return _row_dots(diff, diff) / d, (2.0 / d) * diff, rows, reads


def _pair_batch(layer, pairs, batch):
    """Contrastive loss on the cosine per pair, and the upstreams, rows and reads of
    the words of the pairs with a gradient, word a then word b, in example order.

    The batch's words are embedded once, in pair order (a0, b0, a1, b1, ...), so
    the words with a gradient are the embedded words taken by position, and
    their rows and reads are taken with them (not copied when every pair has a
    gradient).
    With ``dcos`` the loss's derivative in the cosine, a pair's two upstreams
    are one stacked product ``C @ [ya; yb]`` of its ``(2, 2)`` coefficients
    ``dcos * [[-cos / na**2, 1 / (na nb)], [1 / (na nb), -cos / nb**2]]``:
    ``dcos * (yb / (na nb) - cos ya / na**2)`` and its mirror.
    """
    chosen = pairs[batch]
    positive = chosen[:, 2] == 1
    y, rows, reads = forward_record(layer, chosen[:, :2].reshape(-1))
    y2 = y.reshape(len(batch), 2, -1)
    na, nb, cos = _cosines(y2[:, 0], y2[:, 1])
    zero, above = (na == 0.0) | (nb == 0.0), cos > 0.0
    hinge = np.where(above, cos, 0.0)
    losses = np.where(zero, positive * 1.0, np.where(positive, 1.0 - cos, hinge))
    i = np.flatnonzero(~zero & (positive | above))
    if len(i) < len(batch):
        at = (2 * i[:, None] + np.arange(2)).reshape(-1)
        y2, rows = y2[i], [ids[at] for ids in rows]
        reads = None if reads is None else [a[at] for a in reads]
    coefs, na, nb, cos = np.empty((len(i), 2, 2)), na[i], nb[i], cos[i]
    np.divide(1.0, na * nb, out=coefs[:, 0, 1])
    np.divide(-cos, na * na, out=coefs[:, 0, 0])
    np.divide(-cos, nb * nb, out=coefs[:, 1, 1])
    coefs[:, 1, 0] = coefs[:, 0, 1]
    coefs[positive[i]] *= -1.0  # dcos: -1 for a positive pair, 1 for a negative one
    upstreams = np.matmul(coefs, y2).reshape(2 * len(i), y.shape[1])
    return losses, upstreams, rows, reads


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
    pairs = task.pairs if task.kind == "word_similarity" else None
    rng = np.random.default_rng(seed)
    # each table as (count * rows, cols): row i * rows + k is row k of block i
    tables = {name: t.reshape(-1, t.shape[-1]) for name, t in layer.tables.items()}
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n_examples)
        epoch_loss = 0.0
        for k, start in enumerate(range(0, n_examples, batch_size)):
            batch = order[start : start + batch_size]
            with np.errstate(over="ignore", invalid="ignore"):  # the loss is checked below
                if pairs is None:
                    losses, upstreams, rows, reads = _reconstruct_batch(layer, task, batch)
                else:
                    losses, upstreams, rows, reads = _pair_batch(layer, pairs, batch)
            batch_loss = 0.0
            for loss in losses.tolist():
                batch_loss += loss
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_loss, batch=k)
            try:
                written = dict(zip(tables, table_rows(layer, rows)))
                grads, to = opt.take_rows(tables, written)
                add_batch(layer, rows, reads, upstreams, grads, list(to.values()))
                opt.apply(tables, grads, scale=1.0 / len(batch))
            except BaseException:
                opt.grads.clear()  # a buffer left part-summed is not zero: allocate afresh
                raise
            for g, ids in zip(grads.values(), to.values()):
                # a memset beats a row scatter unless the block has many more rows
                if 4 * ids.size >= len(g):
                    g.fill(0.0)
                else:
                    g[ids] = 0.0
            epoch_loss += batch_loss
        epoch_loss /= n_examples
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, epoch_loss)
        history.append(epoch_loss)
    return history


def eval_similarity(layer: EmbeddingLayer, pairs) -> float:
    """Accuracy of thresholding the cosine at 0.5 against the pair labels.

    Pairs are checked as ``TrainTask``'s are (``pair_array``) and embedded as
    ``train`` embeds them, in pair order, ``config.chunk_words()`` pairs at a
    time, so no embedding array grows with the number of pairs.
    """
    pairs, step = pair_array(pairs), layer.config.chunk_words()
    if not len(pairs):
        raise ConfigError("need at least one pair")
    correct = 0
    for start in range(0, len(pairs), step):
        chunk = pairs[start : start + step]
        y2 = forward_batch(layer, chunk[:, :2].reshape(-1)).reshape(len(chunk), 2, -1)
        _, _, cos = _cosines(y2[:, 0], y2[:, 1])
        # a zero-norm side has cosine NaN, so it predicts 0 like any cosine <= 0.5
        correct += int(np.sum(np.where(cos > 0.5, 1, 0) == chunk[:, 2]))
    return correct / len(pairs)
