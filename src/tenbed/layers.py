"""Embedding layer variants with one construct/forward interface.

Eight methods share the ``build`` / ``forward`` contract:

* ``original`` - plain lookup table, the uncompressed baseline.
* ``matrix_factor`` - low-rank product of a tall and a wide factor.
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

An ``EmbeddingLayer`` is data: a config, its blocks and, for the
morphological kinds, a vocab and an index.  ``forward_batch`` embeds a batch
of word ids through it: ``gather_batch`` checks every id and gives the row
ids each block is read at, then one of three combines computes the words in
chunks of ``BATCH_WORDS``: six kinds sum tensor products of the rows read in
rank order (the lookup table and morphsum sum one-factor products),
tensor_train contracts a chain of cores and matrix_factor is a stacked
matmul.  ``forward`` is a batch of one.  Both only read the parameter blocks
and are safe to call concurrently; mutating parameters (training) requires
exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

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
BATCH_WORDS = 512  # words combined at once: a chunk's temporaries, not a batch's, set the memory


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
    so ``validate`` bounds it by ``MAX_PRODUCT_PER_DIM * embed_dim``.
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
        object.__setattr__(self, "kind", MethodKind(self.kind))
        if self.vocab_factors is not None:
            object.__setattr__(self, "vocab_factors", tuple(int(v) for v in self.vocab_factors))
        if self.dim_factors is not None:
            object.__setattr__(self, "dim_factors", tuple(int(v) for v in self.dim_factors))

    def validate(self) -> None:
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
                raise ConfigError(
                    f"subdim {q} with order {self.order} covers only "
                    f"{q ** self.order} < embed_dim {self.embed_dim}"
                )
            if _covers(q, self.order, limit + 1):
                raise ConfigError(f"{q}**{self.order} is more than {MAX_PRODUCT_PER_DIM} * "
                                  f"embed_dim = {limit}")
        if self.kind in FACTORED_KINDS:
            if self.vocab_factors is None or self.dim_factors is None:
                raise ConfigError(f"{self.kind.value} requires vocab_factors and dim_factors")
            if len(self.vocab_factors) != len(self.dim_factors):
                raise ConfigError("vocab_factors and dim_factors must have equal length")
            if len(self.vocab_factors) != self.order:
                raise ConfigError(
                    f"order {self.order} != number of factors {len(self.vocab_factors)}"
                )
            if self.order < 2:
                raise ConfigError(f"{self.kind.value} needs order >= 2")
            if any(v < 1 for v in self.vocab_factors) or any(d < 1 for d in self.dim_factors):
                raise ConfigError("factor sizes must be positive")
            if math.prod(self.vocab_factors) < self.vocab_size:
                raise ConfigError(
                    f"vocab_factors {self.vocab_factors} cover only "
                    f"{math.prod(self.vocab_factors)} < vocab_size {self.vocab_size}"
                )
            if math.prod(self.dim_factors) < self.embed_dim:
                raise ConfigError(
                    f"dim_factors {self.dim_factors} cover only "
                    f"{math.prod(self.dim_factors)} < embed_dim {self.embed_dim}"
                )
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


def block_shapes(config: LayerConfig) -> list[tuple[str, tuple[int, int]]]:
    """Named parameter blocks in their canonical (and serialisation) order."""
    kind = config.kind
    V, d, n, r = config.vocab_size, config.embed_dim, config.order, config.rank
    M = config.morpheme_vocab_size
    if kind in MORPHOLOGICAL_KINDS and M is None:
        raise ConfigError(f"{kind.value} requires morpheme_vocab_size")
    if kind is MethodKind.ORIGINAL:
        return [("weight", (V, d))]
    if kind is MethodKind.MATRIX_FACTOR:
        return [("factor_left", (V, r)), ("factor_right", (r, d))]
    if kind is MethodKind.WORD2KET:
        q = config.effective_subdim()
        return [("word_factors", (V, r * n * q))]
    if kind in (MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE):
        q = config.effective_subdim()
        return [(f"morpheme_embed_{i}", (M, q)) for i in range(r)]
    if kind is MethodKind.MORPHSUM:
        return [("surface_embed", (V, d)), ("morpheme_embed", (M, d))]
    if kind is MethodKind.TENSOR_TRAIN:
        # a core row is an (r, d_k, r) slice, without the outer r at either end
        return [
            (f"tt_core_{k}", (v, (r if k > 0 else 1) * dk * (r if k < n - 1 else 1)))
            for k, (v, dk) in enumerate(zip(config.vocab_factors, config.dim_factors))
        ]
    vf, df = config.vocab_factors, config.dim_factors  # word2ketxs
    return [
        (f"xs_factor_{i}_{j}", (vf[j], df[j]))
        for i in range(r)
        for j in range(len(vf))
    ]


@dataclass
class EmbeddingLayer:
    config: LayerConfig
    params: dict[str, np.ndarray]
    index: IndexMatrix | None = None
    vocab: MorphemeVocab | None = None

    def trainable_param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())


def build_rshare_index(
    vocab_size: int, morpheme_vocab_size: int, order: int, seed: int
) -> IndexMatrix:
    """Index with every cell drawn uniformly from the morpheme id range.

    No pad semantics: each word just references ``order`` random rows of the
    shared small-vector table.
    """
    if vocab_size < 1 or morpheme_vocab_size < 1 or order < 1:
        raise ConfigError("vocab_size, morpheme_vocab_size and order must be positive")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, morpheme_vocab_size, size=(vocab_size, order), dtype=np.int64)
    words = tuple(f"w{j}" for j in range(vocab_size))
    return IndexMatrix(rows, words)


def check_parts(
    config: LayerConfig, vocab: MorphemeVocab | None, index: IndexMatrix | None
) -> None:
    """Check that a layer has the vocab and index its kind reads, and that they fit.

    morphte and morphsum need both, word2ket_rshare an index, the rest neither.
    """
    kind = config.kind
    needs = (kind in (MethodKind.MORPHTE, MethodKind.MORPHSUM), kind in MORPHOLOGICAL_KINDS)
    if (vocab is not None, index is not None) != needs:
        raise ConfigError(
            f"{kind.value} requires {'a' if needs[0] else 'no'} morpheme vocab "
            f"and {'an' if needs[1] else 'no'} index"
        )
    if index is None:
        return
    M = config.morpheme_vocab_size
    if index.rows.shape != (config.vocab_size, config.order):
        raise ConfigError(
            f"index has shape {index.rows.shape}, the config implies "
            f"{(config.vocab_size, config.order)}"
        )
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
    config.validate()
    kind = config.kind

    if kind in (MethodKind.MORPHTE, MethodKind.MORPHSUM):
        if vocab is not None and config.morpheme_vocab_size is None:
            config = replace(config, morpheme_vocab_size=vocab.size)
    elif kind is MethodKind.WORD2KET_RSHARE:
        vocab = None
        if config.morpheme_vocab_size is None:
            raise ConfigError("word2ket_rshare requires morpheme_vocab_size")
        if index is None:
            index = build_rshare_index(
                config.vocab_size, config.morpheme_vocab_size, config.order, config.seed
            )
    else:
        index = None
        vocab = None
    check_parts(config, vocab, index)

    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, (rows, cols) in block_shapes(config):
        bound = math.sqrt(6.0 / (rows + cols))
        params[name] = rng.uniform(-bound, bound, size=(rows, cols))
    return EmbeddingLayer(config=config, params=params, index=index, vocab=vocab)


def gather_batch(layer: EmbeddingLayer, word_ids: Sequence[int]) -> list[np.ndarray]:
    """The parameter rows a batch of words reads: one ``(B, slots)`` array per block.

    The one place that maps word ids to rows: ``rows[k][b, s]`` is the row
    of block k (in block order) that word b reads in its slot s.  Every id
    is checked before any row is looked up.  Morpheme slots come from the
    index rows, the factored kinds' rows from the mixed-radix digits of the
    id (most significant first), and every other block's row is the id
    itself, except that matrix_factor's right factor is read whole.
    """
    cfg, ids, V = layer.config, np.asarray(word_ids), layer.config.vocab_size
    if ids.ndim != 1:
        raise ValueError(f"word ids must be a sequence, got shape {ids.shape}")
    if ids.dtype.kind in "iu":
        bad = ids[(ids < 0) | (ids >= V)].tolist()
    else:  # an empty list, non-integers, or Python ints beyond int64
        bad = [w for w in ids.tolist() if not isinstance(w, (int, np.integer)) or not 0 <= w < V]
    if bad:
        raise WordLookupError(f"word id {bad[0]} out of range [0, {V})")
    ids = ids.astype(np.intp, copy=False)
    kind, own = cfg.kind, ids[:, None]
    if kind in FACTORED_KINDS:  # C order: the most significant digit first
        digits = np.unravel_index(ids, cfg.vocab_factors)
        return [digits[k % cfg.order][:, None] for k in range(len(layer.params))]
    if kind in MORPHOLOGICAL_KINDS:
        slots = layer.index.rows[ids]
        return [slots] * cfg.rank if kind in KET_KINDS else [own, slots]
    if kind is MethodKind.MATRIX_FACTOR:
        return [own, np.broadcast_to(np.arange(cfg.rank), (len(ids), cfg.rank))]
    return [own]  # original, word2ket


def _factor_layout(cfg: LayerConfig) -> list[list[tuple[int, int, slice]]]:
    """Factor j of product i of a kind that sums products, as ``(block, slot, columns)``.

    The columns of the row ``gather_batch`` gives for that block and slot: one
    layout serves to read a word's factors and to place their gradients.
    """
    r, n, every = cfg.rank, cfg.order, slice(None)
    if cfg.kind is MethodKind.ORIGINAL:
        return [[(0, 0, every)]]
    if cfg.kind is MethodKind.MORPHSUM:  # the surface row, then each morpheme row
        return [[(0, 0, every)]] + [[(1, s, every)] for s in range(n)]
    if cfg.kind is MethodKind.WORD2KET:  # one row holds the r*n vectors
        q = cfg.effective_subdim()
        return [[(0, 0, slice(j * q, (j + 1) * q)) for j in range(i * n, (i + 1) * n)]
                for i in range(r)]
    if cfg.kind is MethodKind.WORD2KETXS:
        return [[(i * n + j, 0, every) for j in range(n)] for i in range(r)]
    return [[(i, j, every) for j in range(n)] for i in range(r)]  # morphte, rshare


def _tt_chain(layer: EmbeddingLayer, rows: list[np.ndarray]) -> tuple[list, list]:
    """A batch's TT core rows and the carries that contract them left to right.

    ``cores[k]`` is core k's row per word, shaped ``(B, d_0, r)``, ``(B, r,
    d_k * r)`` or ``(B, r, d_{n-1})`` for the first, middle and last core;
    ``carries[k]`` is the ``(B, d_0 ... d_k, r)`` product of cores 0..k, for
    k < n - 1.  Stacked matmuls compute each word as a lone 2-D product does.
    """
    r, B = layer.config.rank, len(rows[0])
    tables = [p[ids[:, 0]] for p, ids in zip(layer.params.values(), rows)]
    carry = tables[0].reshape(B, -1, r)
    cores, carries = [carry], [carry]
    for table in tables[1:-1]:
        core = table.reshape(B, r, -1)
        carry = np.matmul(carry, core).reshape(B, -1, r)
        cores.append(core)
        carries.append(carry)
    cores.append(tables[-1].reshape(B, r, -1))
    return cores, carries


def forward_batch(layer: EmbeddingLayer, word_ids: Sequence[int]) -> np.ndarray:
    """Embed a batch of word ids: a fresh ``(B, d)`` float64 array.

    One ``gather_batch`` checks every id, then ``_combine`` embeds the words
    in chunks of ``BATCH_WORDS`` in batch order, which bounds the temporaries
    of a long batch.  An empty batch gives shape ``(0, d)``.
    """
    rows = gather_batch(layer, word_ids)
    B, step = len(rows[0]), BATCH_WORDS
    if B <= step:
        return _combine(layer, rows)
    out = np.empty((B, layer.config.embed_dim))
    for lo in range(0, B, step):
        out[lo : lo + step] = _combine(layer, [ids[lo : lo + step] for ids in rows])
    return out


def _combine(layer: EmbeddingLayer, rows: list[np.ndarray]) -> np.ndarray:
    """The ``(B, d)`` embeddings of the words whose row ids ``gather_batch`` gave.

    One combine per family of kinds.  Each row is computed with the
    arithmetic, in the order, of embedding its word alone: stacked matmuls
    for matrix_factor and tensor_train; for every other kind, products of
    factors by broadcasting, summed in rank order.
    """
    cfg = layer.config
    B, d, kind = len(rows[0]), cfg.embed_dim, cfg.kind
    if B == 0:
        return np.empty((0, d))
    if kind is MethodKind.MATRIX_FACTOR:
        left, right = layer.params.values()
        return np.matmul(left[rows[0]], right).reshape(B, d)
    if kind is MethodKind.TENSOR_TRAIN:
        cores, carries = _tt_chain(layer, rows)
        full = np.matmul(carries[-1], cores[-1]).reshape(B, -1)
    else:  # slot-major: a strided (B, slots) view made morphsum's sum a fifth slower
        gathered = [p[ids.T] for p, ids in zip(layer.params.values(), rows)]
        full = None  # each product is fresh, or a view of the fresh gathered rows
        for group in _factor_layout(cfg):
            term = None
            for block, slot, cols in group:
                v = gathered[block][slot, :, cols]
                term = v if term is None else (term[:, :, None] * v[:, None, :]).reshape(B, -1)
            full = term if full is None else np.add(full, term, out=full)
    return full if full.shape[1] == d else full[:, :d].copy()


def forward(layer: EmbeddingLayer, word_id: int) -> np.ndarray:
    """Embed one word id; always returns a fresh length-d float64 vector."""
    return forward_batch(layer, [word_id])[0]
