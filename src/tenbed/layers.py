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
morphological kinds, a vocab and an index.  The module functions
``forward``/``forward_batch`` embed through it; they only read the parameter
blocks and are safe to call concurrently; mutating parameters (training)
requires exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, WordLookupError
from .morphology import IndexMatrix, MorphemeVocab
# tensor_product is not called here, but perfbench/tracing.py wraps each
# tensor op through its name in this module, so the name must stay.
from .tensor_ops import entangled_sum, tensor_product, truncate_to


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
# rank-r sums of tensor products of n rows, truncated to d
TENSOR_PRODUCT_KINDS = KET_KINDS | {MethodKind.WORD2KETXS}
# the members that per-word code tests, bound once: on Python 3.11 every
# MethodKind.X lookup costs about 0.2 us, a tenth of some forwards
_ORIGINAL, _MATRIX_FACTOR, _TENSOR_TRAIN, _WORD2KET, _WORD2KETXS = (
    MethodKind.ORIGINAL, MethodKind.MATRIX_FACTOR, MethodKind.TENSOR_TRAIN,
    MethodKind.WORD2KET, MethodKind.WORD2KETXS,
)


def smallest_subdim(embed_dim: int, order: int) -> int:
    """Smallest q with q**order >= embed_dim (integer search, no fp roots)."""
    q = max(1, int(round(embed_dim ** (1.0 / order))) - 2)
    while q**order < embed_dim:
        q += 1
    return q


@dataclass(frozen=True)
class LayerConfig:
    """Everything that determines a layer's parameter blocks.

    ``subdim`` (q) may be omitted for the tensor-product kinds, in which case
    the smallest q with ``q**order >= embed_dim`` is used.  ``vocab_factors``
    and ``dim_factors`` are the per-axis splits of the vocabulary size and
    embedding size for ``tensor_train`` / ``word2ketxs``.
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
        if self.kind in KET_KINDS:
            q = self.effective_subdim()
            if q < 1:
                raise ConfigError(f"subdim must be >= 1, got {q}")
            if q**self.order < self.embed_dim:
                raise ConfigError(
                    f"subdim {q} with order {self.order} covers only "
                    f"{q ** self.order} < embed_dim {self.embed_dim}"
                )
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


def mixed_radix_digits(value: int, radices: Sequence[int]) -> list[int]:
    """Decompose a non-negative value, most-significant digit first."""
    digits = [0] * len(radices)
    rem = value
    for k in range(len(radices) - 1, -1, -1):
        digits[k] = rem % radices[k]
        rem //= radices[k]
    if rem != 0:
        raise WordLookupError(f"value {value} out of range for radices {tuple(radices)}")
    return digits


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


def gather(layer: EmbeddingLayer, blocks: Mapping[str, Any], word_id: int) -> list[list]:
    """``blocks[name][row]`` for every row one word reads, one list per block.

    The one place that maps a word id to parameter rows.  ``blocks`` holds
    every block in block order: ``layer.params`` gives the rows, a gradient
    dict of the same shapes views to add into, ``{name: range(rows)}`` the
    row ids.  A slot id that fills several slots is read once per slot, and
    matrix_factor's right factor is read whole.
    """
    cfg = layer.config
    if not 0 <= word_id < cfg.vocab_size:
        raise WordLookupError(f"word id {word_id} out of range [0, {cfg.vocab_size})")
    kind = cfg.kind
    tables = blocks.values()
    if kind in FACTORED_KINDS:
        n = cfg.order
        digits = mixed_radix_digits(word_id, cfg.vocab_factors)
        return [[t[digits[k % n]]] for k, t in enumerate(tables)]
    if kind in MORPHOLOGICAL_KINDS:
        ids = layer.index.row(word_id).tolist()
        if kind in KET_KINDS:
            return [[t[m] for m in ids] for t in tables]
        surface, morphemes = tables
        return [[surface[word_id]], [morphemes[m] for m in ids]]
    if kind is _MATRIX_FACTOR:
        left, right = tables
        return [[left[word_id]], [right]]
    (own,) = tables  # original, word2ket
    return [[own[word_id]]]


def _ket_groups(layer: EmbeddingLayer, rows: list[list]) -> list[list[np.ndarray]]:
    """The r groups of n vectors whose entangled sum embeds a word.

    ``rows`` is ``gather``'s output over the params or a gradient dict, so
    the groups serve both to read a word's factors and to add into their
    gradients.  Within a group the vectors have one length per axis.
    """
    cfg = layer.config
    if cfg.kind is _WORD2KET:
        ((row,),) = rows
        return [list(group) for group in row.reshape(cfg.rank, cfg.order, -1)]
    if cfg.kind is _WORD2KETXS:
        n = cfg.order
        return [[row for (row,) in rows[i : i + n]] for i in range(0, len(rows), n)]
    return rows  # morphte, word2ket_rshare: block i's slot rows are group i


def _tensor_train_chain(
    layer: EmbeddingLayer, rows: list[list]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One word's TT core rows and the carries that contract them left to right.

    ``rows`` is ``gather``'s output for a tensor_train layer.  Returns
    ``(cores, carries)``: ``cores[k]`` is core k's row reshaped to
    ``(d_0, r)``, ``(r, d_k * r)`` or ``(r, d_{n-1})`` for the first, middle
    and last core, and ``carries[k]`` is the ``(d_0 ... d_k, r)`` product of
    cores 0..k, for k < n - 1.  The embedding is ``carries[-1] @ cores[-1]``.
    """
    r = layer.config.rank
    (first,), *middle, (last,) = rows
    carry = first.reshape(-1, r)
    cores, carries = [carry], [carry]
    for (row,) in middle:
        core = row.reshape(r, -1)
        carry = (carry @ core).reshape(-1, r)
        cores.append(core)
        carries.append(carry)
    cores.append(last.reshape(r, -1))
    return cores, carries


def forward(layer: EmbeddingLayer, word_id: int) -> np.ndarray:
    """Embed one word id; always returns a fresh length-d float64 vector."""
    cfg = layer.config
    if not 0 <= word_id < cfg.vocab_size:
        raise WordLookupError(f"word id {word_id} out of range [0, {cfg.vocab_size})")
    kind = cfg.kind

    if kind is _ORIGINAL:
        # gather's one row, read directly: this copy of about a microsecond
        # is the whole forward, and going through gather doubles its time
        return layer.params["weight"][word_id].copy()

    # one combine per family, told apart by the kind sets
    rows = gather(layer, layer.params, word_id)
    if kind in TENSOR_PRODUCT_KINDS:
        return truncate_to(entangled_sum(_ket_groups(layer, rows)), cfg.embed_dim)
    if kind in FACTORED_KINDS:  # tensor_train
        cores, carries = _tensor_train_chain(layer, rows)
        return truncate_to((carries[-1] @ cores[-1]).ravel(), cfg.embed_dim)
    if kind in MORPHOLOGICAL_KINDS:  # morphsum: the sum of the rows read
        (surface,), morphemes = rows
        out = surface.copy()
        for row in morphemes:
            out += row
        return out
    (left,), (right,) = rows  # matrix_factor
    return left @ right


def forward_batch(layer: EmbeddingLayer, word_ids: Sequence[int]) -> list[np.ndarray]:
    return [forward(layer, int(w)) for w in word_ids]
