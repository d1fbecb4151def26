"""Embedding layer variants with one construct/forward interface.

Eight methods share the ``build`` / ``forward`` contract:

* ``original`` - plain lookup table, the uncompressed baseline.
* ``matrix_factor`` - low-rank product of a tall and a wide factor: two cores.
* ``tensor_train`` - chain of cores contracted along shared rank edges,
  addressing rows by mixed-radix word-id digits.
* ``word2ket`` - per-word private small vectors combined by tensor product,
  summed over ``rank`` simple tensors.
* ``word2ketxs`` - per-axis factor matrices shared across the whole table,
  addressed by mixed-radix digits.
* ``morphte`` - tensor products of morpheme vectors selected through the
  word/morpheme index, so related words share parameters.
* ``morphsum`` - surface vector plus the sum of morpheme vectors
  (morphology-aware but not compressive).
* ``word2ket_rshare`` - morphte's parameter structure with a random index,
  the control for morpheme-based sharing.

All parameters are float64 matrices initialised Xavier-uniform with bound
``sqrt(6 / (rows + cols))`` per block, drawn in block order from a generator
seeded by the config, so identical configs rebuild bit-identical layers.

An ``EmbeddingLayer`` is data: a config, the tables ``build`` or a load hands
it, a view of its table per block and, for the morphological kinds, a vocab and
an index.  Both check themselves when made: a ``LayerConfig`` (by ``replace``
too) refuses a value no layer can have, an ``EmbeddingLayer`` a table, vocab or
index at odds with its config.  A table stacks blocks of one shape that are
read at the same rows: the r rank blocks of one factor, or a lone block.
``LayerConfig.layout`` states each kind once: its tables, the row a word reads
in each, whether it reads a morpheme vocab and either a chain's dim factors or,
for a kind that sums tensor products, where factor j of product i lives.
``build``, the parts check, ``gather_batch`` and ``_combine`` derive from it;
``_combine`` contracts a chain (matrix_factor, tensor_train) or sums products.
``forward_batch`` embeds a batch through ``gather_batch`` and ``_combine``, one
read per table; ``forward`` is a batch of one.  ``_combine`` also returns what
its adjoint reads of each chunk; ``forward_batch`` drops it, and
``forward_record(layer, ids)`` returns ``(y, rows, reads)``: the batch's rows
and, for a batch of one chunk, its reads (else None), which the trainer's
backward reads instead of gathering and computing again.  All three only read
the parameters and are safe to call concurrently; training, which writes them,
needs exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, WordLookupError
from .morphology import IndexMatrix, MorphemeVocab
# unused here; perfbench/tracing.py wraps each tensor op through its name in this module
from .tensor_ops import entangled_sum, tensor_product, truncate_to  # noqa: F401


class MethodKind(str, Enum):
    ORIGINAL = "original"
    MATRIX_FACTOR = "matrix_factor"
    TENSOR_TRAIN = "tensor_train"
    WORD2KET = "word2ket"
    WORD2KETXS = "word2ketxs"
    MORPHTE = "morphte"
    MORPHSUM = "morphsum"
    WORD2KET_RSHARE = "word2ket_rshare"


MORPHOLOGICAL_KINDS = frozenset(
    {MethodKind.MORPHTE, MethodKind.MORPHSUM, MethodKind.WORD2KET_RSHARE}
)
KET_KINDS = frozenset({MethodKind.WORD2KET, MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE})
FACTORED_KINDS = frozenset({MethodKind.TENSOR_TRAIN, MethodKind.WORD2KETXS})
MAX_PRODUCT_PER_DIM = 64
# product floats combined at once: a chunk's temporaries, not a batch's, set the memory
BATCH_FLOATS = 512 * 512


def _covers(q: int, order: int, target: int) -> bool:
    """``q**order >= target``; true without the power when q >= 2 and order >= its bit length."""
    return (q >= 2 and order >= target.bit_length()) or q**order >= target


def smallest_subdim(embed_dim: int, order: int) -> int:
    """Smallest q >= 1 with q**order >= embed_dim (integer bisection, no fp roots)."""
    lo, hi = 1, 2 ** -(-embed_dim.bit_length() // order)  # hi**order > embed_dim
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _covers(mid, order, embed_dim) else (mid + 1, hi)
    return lo


@dataclass(frozen=True)
class LayerConfig:
    """Everything that determines a layer's parameter blocks.

    ``subdim`` (q) may be omitted for the tensor-product kinds, in which case
    the smallest q with ``q**order >= embed_dim`` is used.  ``vocab_factors``
    and ``dim_factors`` are the per-axis splits of the vocabulary size and
    embedding size for ``tensor_train`` / ``word2ketxs``.  A forward builds
    the whole product (``q**order`` or ``prod(dim_factors)`` floats) per word,
    so the constructor bounds it by ``MAX_PRODUCT_PER_DIM * embed_dim``.
    """

    kind: MethodKind
    vocab_size: int
    embed_dim: int
    order: int = 3
    rank: int = 1
    subdim: int | None = None
    vocab_factors: tuple[int, ...] | None = None
    dim_factors: tuple[int, ...] | None = None
    morpheme_vocab_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        """Refuse a float, bool or str in an integer field, then any value no layer can
        have, each naming it; numpy integers pass.  ``replace`` refuses alike."""
        object.__setattr__(self, "kind", MethodKind(self.kind))
        for f in fields(self)[1:]:  # every field after kind
            value = getattr(self, f.name)
            if type(value) is int or value is None and f.default is None:  # None: not given
                continue
            factors = f.name.endswith("_factors")
            for v in value if factors else (value,):
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    what = "integers" if factors else "an integer"
                    raise ConfigError(f"{f.name} must be {what}, got {v!r}")
            object.__setattr__(self, f.name, tuple(map(int, value)) if factors else int(value))
        lows = {"vocab_size": 1, "embed_dim": 1, "rank": 1, "order": 1, "seed": 0}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        limit = MAX_PRODUCT_PER_DIM * self.embed_dim
        if self.kind in KET_KINDS:
            q = self.effective_subdim()
            if q < 1:
                raise ConfigError(f"subdim must be >= 1, got {q}")
            if not _covers(q, self.order, self.embed_dim):
                raise ConfigError(f"subdim {q} with order {self.order} covers only "
                                  f"{q ** self.order} < embed_dim {self.embed_dim}")
            if _covers(q, self.order, limit + 1):
                raise ConfigError(f"{q}**{self.order} is more than {MAX_PRODUCT_PER_DIM} * "
                                  f"embed_dim = {limit}")
        if self.kind in FACTORED_KINDS:
            if self.vocab_factors is None or self.dim_factors is None:
                raise ConfigError(f"{self.kind.value} requires vocab_factors and dim_factors")
            counts = len(self.vocab_factors), len(self.dim_factors)
            if counts != (self.order, self.order):
                raise ConfigError(f"order {self.order} needs {self.order} vocab_factors and "
                                  f"dim_factors, got {counts[0]} and {counts[1]}")
            if self.order < 2:
                raise ConfigError(f"{self.kind.value} needs order >= 2")
            if any(v < 1 for v in self.vocab_factors) or any(d < 1 for d in self.dim_factors):
                raise ConfigError("factor sizes must be positive")
            for factors, size in (("vocab_factors", "vocab_size"), ("dim_factors", "embed_dim")):
                covered = math.prod(getattr(self, factors))
                if covered < getattr(self, size):
                    raise ConfigError(f"{factors} {getattr(self, factors)} cover only {covered} "
                                      f"< {size} {getattr(self, size)}")
            if math.prod(self.dim_factors) > limit:
                raise ConfigError(f"prod(dim_factors) is more than {MAX_PRODUCT_PER_DIM} * "
                                  f"embed_dim = {limit}")
        M = self.morpheme_vocab_size
        if self.kind in MORPHOLOGICAL_KINDS and M is not None and M < 1:
            raise ConfigError(f"morpheme_vocab_size must be >= 1, got {M}")

    def effective_subdim(self) -> int:
        if self.subdim is not None:
            return self.subdim
        return smallest_subdim(self.embed_dim, self.order)

    @cached_property  # read by every forward_batch: a config never changes
    def product_length(self) -> int:
        """Floats of the product a forward builds per word, before truncation to ``embed_dim``."""
        if self.kind in KET_KINDS:
            return self.effective_subdim() ** self.order
        if self.kind in FACTORED_KINDS:
            return math.prod(self.dim_factors)
        return self.embed_dim

    def chunk_words(self) -> int:
        """Words combined at once: ``BATCH_FLOATS`` product floats, and at least one word."""
        return max(1, BATCH_FLOATS // self.product_length)

    @cached_property  # read by every gather and combine
    def layout(self) -> Layout:
        return _layout(self)


# what a word reads in a block: "id" its own row, "index" its ``order`` index
# rows (one slot each), "all" every row, or an int k: digit k of its id
ID, INDEX, ALL = "id", "index", "all"


class Table(NamedTuple):
    """``count`` blocks of one shape, stacked: ``(count, rows, cols)``.  Every
    block of a table reads alike, so a word reads the same rows in each."""

    name: str  # where count > 1, "*" stands for the index of a block in its table
    shape: tuple[int, int | None, int]  # rows are None for a morpheme table of unknown size
    read: str | int


class Block(NamedTuple):
    name: str
    shape: tuple[int | None, int]
    table: str  # the name of the table it is slab ``slab`` of
    slab: int


@dataclass(frozen=True)
class Layout:
    """A kind's tables, whether it reads a morpheme vocab, and a chain's dim
    factors (``chain``) or, for a kind that sums products, ``buffers(B)``: per
    table the ``(count, slots, B, cols)`` array its rows are read into, and per
    factor j the ``(B, products, len_j)`` view of factor j of every product.
    """

    tables: tuple[Table, ...]
    vocab: bool = False
    buffers: Callable[[int], tuple[list[np.ndarray], list[np.ndarray]]] | None = None
    chain: tuple[int, ...] = ()

    @cached_property  # listed on first use: a checkpoint's config is sized from its tables first
    def blocks(self) -> tuple[Block, ...]:
        """In canonical (and serialisation) order: slab 0 of every table, then slab 1, ..."""
        return tuple(Block(t.name.replace("*", str(i)), t.shape[1:], t.name, i)
                     for i in range(max(t.shape[0] for t in self.tables))
                     for t in self.tables if i < t.shape[0])

    @property
    def index(self) -> bool:
        return any(t.read == INDEX for t in self.tables)


@lru_cache(maxsize=64)  # a layout is a function of its config: loads of one config share it
def _layout(c: LayerConfig) -> Layout:
    """Each kind's tables, the row a word reads in each, and its factor placement: the
    r rank blocks of a factor are one table, every other block a table of its own."""
    kind, V, d, n, r, M = c.kind, c.vocab_size, c.embed_dim, c.order, c.rank, c.morpheme_vocab_size
    if kind is MethodKind.MATRIX_FACTOR:  # a chain of dim factors (1, d): core 1 is one row
        return Layout((Table("factor_left", (1, V, r), ID), Table("factor_right", (1, r, d), ALL)),
                      chain=(1, d))
    if kind is MethodKind.TENSOR_TRAIN:
        # a core row is an (r, d_k, r) slice, without the outer r at either end
        return Layout(tuple(
            Table(f"tt_core_{k}", (1, v, (r if k > 0 else 1) * dk * (r if k < n - 1 else 1)), k)
            for k, (v, dk) in enumerate(zip(c.vocab_factors, c.dim_factors))
        ), chain=c.dim_factors)
    if kind is MethodKind.ORIGINAL:  # one product of one factor
        return Layout((Table("weight", (1, V, d), ID),),
                      buffers=lambda B: _stacked(B, d, [slice(1)]))
    if kind is MethodKind.MORPHSUM:  # product 0 is the surface row, product 1 + s slot s
        return Layout((Table("surface_embed", (1, V, d), ID),
                       Table("morpheme_embed", (1, M, d), INDEX)), vocab=True,
                      buffers=lambda B: _stacked(B, d, [slice(1), slice(1, n + 1)]))
    if kind is MethodKind.WORD2KETXS:  # table j holds factor j of every product i
        def xs_buffers(B):
            js = [np.empty((r, 1, B, df)) for df in c.dim_factors]
            return js, [f[:, 0].transpose(1, 0, 2) for f in js]
        return Layout(tuple(Table(f"xs_factor_*_{j}", (r, v, df), j)
                            for j, (v, df) in enumerate(zip(c.vocab_factors, c.dim_factors))),
                      buffers=xs_buffers)
    q = c.effective_subdim()
    if kind is MethodKind.WORD2KET:  # the word's row holds its r * n vectors product-major
        def word_buffers(B):
            row = np.empty((1, 1, B, r * n * q))
            return [row], list(row[0, 0].reshape(B, r, n, q).transpose(2, 0, 1, 3))
        return Layout((Table("word_factors", (1, V, r * n * q), ID),), buffers=word_buffers)

    def morpheme_buffers(B):  # morphte, word2ket_rshare: block i is product i, slot j factor j
        rows = np.empty((r, n, B, q))
        return [rows], [rows[:, j].transpose(1, 0, 2) for j in range(n)]
    return Layout((Table("morpheme_embed_*", (r, M, q), INDEX),),
                  vocab=kind is MethodKind.MORPHTE, buffers=morpheme_buffers)


def _stacked(B: int, d: int, tables: list[slice]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One-factor products of length d, table k (one block) holding the products ``tables[k]``."""
    rows = np.empty((tables[-1].stop, B, d))
    return [rows[None, s] for s in tables], [rows.transpose(1, 0, 2)]


def table_shapes(config: LayerConfig) -> dict[str, tuple[int, int, int]]:
    """Each parameter table's shape, in table order: a few, whatever the rank."""
    tables = config.layout.tables
    if any(None in t.shape for t in tables):
        raise ConfigError(f"{config.kind.value} requires morpheme_vocab_size")
    return {t.name: t.shape for t in tables}


@dataclass(frozen=True)
class EmbeddingLayer:
    """``tables`` maps each table of ``config.layout`` to its ``(count, rows, cols)``
    array, what forward, backward and the optimizer compute on; ``params`` maps
    each block, in block order, to its view of its table.  Both are read-only, so
    rebinding a block raises instead of leaving its table stale.  A table is kept
    uncopied, given as that array or as its ``(count * rows, cols)`` rows, and must
    be float64; one of more than one block must be C-contiguous, so that its rows
    are a view too.  The vocab and index must be its layout's, and fit the config."""

    config: LayerConfig
    tables: Mapping[str, np.ndarray]
    index: IndexMatrix | None = None
    vocab: MorphemeVocab | None = None
    params: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, shapes, tables = self.config.kind.value, table_shapes(self.config), {}
        if self.tables.keys() != shapes.keys():
            raise ValueError(f"{kind} has tables {list(shapes)}, not {list(self.tables)}")
        for name, (count, rows, cols) in shapes.items():
            table = self.tables[name]
            if table.shape not in ((count, rows, cols), (count * rows, cols)):
                raise ValueError(f"table {name!r} has shape {table.shape}, not {count, rows, cols}")
            if table.dtype != np.float64:
                raise ValueError(f"table {name!r} has dtype {table.dtype}, not float64")
            if count > 1 and not table.flags.c_contiguous:
                raise ValueError(f"table {name!r} of {count} blocks is not C-contiguous")
            tables[name] = table if table.ndim == 3 else table.reshape(count, rows, cols)
        _check_parts(self.config, self.vocab, self.index)
        object.__setattr__(self, "tables", MappingProxyType(tables))
        object.__setattr__(self, "params", MappingProxyType(self.block_views(tables)))

    def block_views(self, tables: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Each block's view, in block order, of ``tables``: arrays of each table's shape
        or of its ``(count * rows, cols)`` rows (row ``i * rows + k``: row k of block i)."""
        shaped = {name: tables[name].reshape(t.shape) for name, t in self.tables.items()}
        return {b.name: shaped[b.table][b.slab] for b in self.config.layout.blocks}

    def trainable_param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())


def build_rshare_index(
    vocab_size: int, morpheme_vocab_size: int, order: int, seed: int
) -> IndexMatrix:
    """Index with every cell drawn uniformly from the morpheme id range.

    No pad semantics: each word just references ``order`` random rows of the
    shared small-vector table.  The index has no names: row j is word ``w{j}``.
    """
    if vocab_size < 1 or morpheme_vocab_size < 1 or order < 1:
        raise ConfigError("vocab_size, morpheme_vocab_size and order must be positive")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, morpheme_vocab_size, size=(vocab_size, order), dtype=np.int64)
    return IndexMatrix(rows, None)


def _check_parts(config: LayerConfig, vocab: MorphemeVocab | None,
                 index: IndexMatrix | None) -> None:
    """Check that a layer has the vocab and index its layout reads, and that they fit."""
    needs = (config.layout.vocab, config.layout.index)
    if (vocab is not None, index is not None) != needs:
        raise ConfigError(f"{config.kind.value} requires {'a' if needs[0] else 'no'} morpheme "
                          f"vocab and {'an' if needs[1] else 'no'} index")
    if index is None:
        return
    M = config.morpheme_vocab_size
    if index.rows.shape != (config.vocab_size, config.order):
        raise ConfigError(f"index has shape {index.rows.shape}, the config implies "
                          f"{(config.vocab_size, config.order)}")
    if vocab is not None and vocab.size != M:
        raise ConfigError(f"morpheme_vocab_size {M} != vocab size {vocab.size}")
    if index.rows.size and (int(index.rows.min()) < 0 or int(index.rows.max()) >= M):
        raise ConfigError(f"index references morpheme ids outside [0, {M})")


def build(
    config: LayerConfig,
    vocab: MorphemeVocab | None = None,
    index: IndexMatrix | None = None,
) -> EmbeddingLayer:
    """Allocate and initialise a layer's parameter blocks.

    Morphological kinds need a vocabulary and index; the random-sharing kind
    synthesises its index from the config seed when none is supplied.  Every
    other kind drops the vocab and index it is given.
    """
    if config.layout.vocab:
        if vocab is not None and config.morpheme_vocab_size is None:
            config = replace(config, morpheme_vocab_size=vocab.size)
    elif config.layout.index:  # an index without a vocab: drawn at random when not given
        vocab = None
        table_shapes(config)  # refuses a missing morpheme_vocab_size
        if index is None:
            index = build_rshare_index(
                config.vocab_size, config.morpheme_vocab_size, config.order, config.seed
            )
    else:
        index = None
        vocab = None
    _check_parts(config, vocab, index)  # before any table is drawn

    rng = np.random.default_rng(config.seed)
    slabs: dict[str, list[np.ndarray]] = {}
    for block in config.layout.blocks:  # in block order: the slabs of the tables interleave
        bound = math.sqrt(6.0 / sum(block.shape))
        slabs.setdefault(block.table, []).append(rng.uniform(-bound, bound, size=block.shape))
    tables = {name: s[0] if len(s) == 1 else np.stack(s) for name, s in slabs.items()}
    return EmbeddingLayer(config, tables, index=index, vocab=vocab)


def gather_batch(layer: EmbeddingLayer, word_ids: Sequence[int]) -> list[np.ndarray]:
    """The parameter rows a batch of words reads: one ``(B, slots)`` array per table.

    ``rows[k][b, s]`` is the row that word b reads in its slot s of every
    block of table k (in table order), as the table's ``read`` in
    ``LayerConfig.layout`` says.  Every id is checked before any row is looked
    up.  A boolean is not a word id.
    """
    ids, V = np.asarray(word_ids), layer.config.vocab_size
    if ids.ndim != 1:
        raise ValueError(f"word ids must be a sequence, got shape {ids.shape}")
    if ids.dtype.kind not in "iu" or not isinstance(word_ids, np.ndarray):
        # numpy reads True as 1, in a bool array and beside ints in a list alike
        elements = ids.tolist() if isinstance(word_ids, np.ndarray) else word_ids
        if any(isinstance(w, (bool, np.bool_)) for w in elements):
            raise WordLookupError("word ids must be integers, got a boolean")
    if ids.dtype.kind in "iu":
        bad = ids[(ids < 0) | (ids >= V)].tolist()
    else:  # an empty list, non-integers, or Python ints beyond int64
        bad = [w for w in ids.tolist() if not isinstance(w, (int, np.integer)) or not 0 <= w < V]
    if bad:
        raise WordLookupError(f"word id {bad[0]} out of range [0, {V})")
    ids = ids.astype(np.intp, copy=False)
    return [_row_ids(layer, ids, table) for table in layer.config.layout.tables]


def _row_ids(layer: EmbeddingLayer, ids: np.ndarray, table: Table) -> np.ndarray:
    """The ``(B, slots)`` rows of ``table``'s blocks that the words ``ids`` read."""
    if table.read == ID:
        return ids[:, None]
    if table.read == INDEX:  # in F order: the slot-major read takes its transpose in place
        return np.ascontiguousarray(layer.index.rows[ids].T).T
    if table.read == ALL:
        return np.broadcast_to(np.arange(table.shape[1]), (len(ids), table.shape[1]))
    # C order: the most significant digit first
    return np.unravel_index(ids, layer.config.vocab_factors)[table.read][:, None]


def _read_factors(layer: EmbeddingLayer, rows: list[np.ndarray]) -> list[np.ndarray]:
    """Factor j of every product of a batch's words, one ``(B, products, len_j)`` view per j:
    each table's rows, for all its blocks, read by one ``take`` into the buffers its layout
    gives."""
    tables, factors = layer.config.layout.buffers(len(rows[0]))
    for t, ids, out in zip(layer.tables.values(), rows, tables):
        t.take(ids.T, axis=1, out=out, mode="clip")  # np.take's wrapper costs 1-2 us a call
    return factors


def _khatri_rao(factors: list[np.ndarray]) -> list[np.ndarray]:
    """Row-wise Khatri-Rao products of ``factors[0..k]`` for k < n - 1, per word and rank:
    ``(B, r, len_0 * ... * len_k)``, the tensor product of the rank's first k + 1 factors."""
    prefixes = [factors[0]]
    for f in factors[1:-1]:
        p = prefixes[-1]
        prefixes.append((p[:, :, :, None] * f[:, :, None, :]).reshape(p.shape[0], p.shape[1], -1))
    return prefixes


def _chain(layer: EmbeddingLayer, rows: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """A batch's chain carries, and its last core as the words read it.

    ``carries[k]``, k < n - 1, is the ``(B, d_0 ... d_k, r)`` product of cores
    0..k, each word's the lone 2-D product of its rows: core 0's gathered, the
    middle cores' read in place (``_by_core_row``).  The last core is per word,
    ``(B, r, d_{n-1})``, where a digit reads it, or ``(1, r, d_{n-1})`` by ``ALL``.
    """
    r, B, layout = layer.config.rank, len(rows[0]), layer.config.layout
    cores = [t[0] for t in layer.tables.values()]
    carry = cores[0][rows[0][:, 0]].reshape(B, -1, r)
    carries = [carry]
    for core, ids in zip(cores[1:-1], rows[1:-1]):
        carry = _by_core_row(carry, core.reshape(len(core), r, -1), ids[:, 0]).reshape(B, -1, r)
        carries.append(carry)
    last = cores[-1] if layout.tables[-1].read == ALL else cores[-1][rows[-1][:, 0]]
    return carries, last.reshape(-1, r, layout.chain[-1])


def _row_groups(ids: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each distinct row of ``ids`` with the words that read it: ``(row, words)``
    pairs in row order, each row's words in batch order."""
    order = np.argsort(ids, kind="stable")
    return [(int(ids[words[0]]), words)
            for words in np.split(order, np.flatnonzero(np.diff(ids[order])) + 1)]


def _by_core_row(x: np.ndarray, core: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``x[b] @ core[ids[b]]`` per word b, for a core viewed as ``(rows, m, k)``.

    Each distinct core row is read in place, by one matmul for all the words
    that share it: gathering a row per word copies ``m * k`` floats per word.
    """
    out = None
    for row, words in _row_groups(ids):
        y = np.matmul(x[words], core[row])
        if out is None:
            out = np.empty((len(x),) + y.shape[1:])
        out[words] = y
    return out


def forward_batch(layer: EmbeddingLayer, word_ids: Sequence[int]) -> np.ndarray:
    """Embed a batch of word ids: a ``(B, d)`` float64 array, no view of the parameters.

    One ``gather_batch`` checks every id, then ``_combine`` embeds the words
    in chunks of ``config.chunk_words()`` in batch order, which bounds the
    temporaries of a long batch.  An empty batch gives shape ``(0, d)``.
    A one-chunk batch of a one-factor kind is a view of its ``(products, B, d)``
    read buffer (4x the result for morphsum at order 3): a fresh sum is slower.
    """
    return _embed(layer, gather_batch(layer, word_ids))[0]


def forward_record(layer: EmbeddingLayer, word_ids: Sequence[int]
                   ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None]:
    """``forward_batch``, the words' rows from its one ``gather_batch``, and what the
    adjoint reads: a one-chunk batch's ``_combine`` reads, or None for a longer
    batch, which so holds one chunk's temporaries at a time."""
    rows = gather_batch(layer, word_ids)
    y, reads = _embed(layer, rows)
    return y, rows, reads


def _embed(layer: EmbeddingLayer, rows: list[np.ndarray]) -> tuple[np.ndarray, list | None]:
    """The embeddings of the words whose rows ``gather_batch`` gave and, for a batch
    of one chunk, its ``_combine``'s reads; a longer batch drops each chunk's (None)."""
    B, step = len(rows[0]), layer.config.chunk_words()
    if 0 < B <= step:
        return _combine(layer, rows)
    out = np.empty((B, layer.config.embed_dim))
    for lo in range(0, B, step):
        out[lo : lo + step] = _combine(layer, [ids[lo : lo + step] for ids in rows])[0]
    return out, None


def _combine(layer: EmbeddingLayer, rows: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ``(B, d)`` embeddings of the B >= 1 words whose row ids ``gather_batch``
    gave, and the word-major arrays the adjoint reads (``reads``).

    Each row is computed with the arithmetic, in the order, of embedding its
    word alone.  A chain (``layout.chain``) is its last carry times its last
    core (``_chain``).  A sum kind adds one-factor products in slot order,
    builds a rank-1 product by broadcasting, and otherwise contracts over rank
    by one stacked matmul, ``(B, L', r) @ (B, r, len_{n-1})`` with the row-wise
    Khatri-Rao product of factors 0..n-2 (Kolda & Bader, SIAM Review 2009).

    The reads are a chain's carries, then its last core's rows unless ``ALL``
    reads it; a sum kind's factors 0..n-1 (``_read_factors``) then Khatri-Rao
    prefixes 1..n-2 (prefix 0 is factor 0), none for a one-factor kind.
    """
    cfg = layer.config
    B, d = len(rows[0]), cfg.embed_dim
    if cfg.layout.chain:
        carries, last = _chain(layer, rows)
        full = np.matmul(carries[-1], last).reshape(B, -1)
        reads = carries if cfg.layout.tables[-1].read == ALL else carries + [last]
    else:
        factors = _read_factors(layer, rows)
        full, reads = factors[0][:, 0], []  # a view of the fresh buffers, so it may be summed into
        if len(factors) == 1:
            for i in range(1, factors[0].shape[1]):
                full = np.add(full, factors[0][:, i], out=full)
        elif factors[0].shape[1] == 1:  # rank 1: the products so far are the prefixes
            for f in factors[1:]:
                reads.append(full[:, None])
                full = (full[:, :, None] * f[:, 0, None, :]).reshape(B, -1)
            reads = factors + reads[1:]
        else:
            prefixes = _khatri_rao(factors)
            full = np.matmul(prefixes[-1].transpose(0, 2, 1), factors[-1]).reshape(B, -1)
            reads = factors + prefixes[1:]
    return (full if full.shape[1] == d else full[:, :d].copy()), reads


def forward(layer: EmbeddingLayer, word_id: int) -> np.ndarray:
    """Embed one word id: a length-d float64 vector sharing no memory with the parameters."""
    return forward_batch(layer, [word_id])[0]
