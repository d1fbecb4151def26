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

``forward``/``forward_batch`` only read the parameter blocks and are safe to
call concurrently; mutating parameters (training) requires exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

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
KET_KINDS = frozenset(
    {MethodKind.WORD2KET, MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE}
)
FACTORED_KINDS = frozenset({MethodKind.TENSOR_TRAIN, MethodKind.WORD2KETXS})
# rank-r sums of tensor products of n rows, truncated to d
TENSOR_PRODUCT_KINDS = KET_KINDS | {MethodKind.WORD2KETXS}


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
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
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
        if self.kind in MORPHOLOGICAL_KINDS and self.morpheme_vocab_size is not None:
            if self.morpheme_vocab_size < 1:
                raise ConfigError(
                    f"morpheme_vocab_size must be >= 1, got {self.morpheme_vocab_size}"
                )

    def effective_subdim(self) -> int:
        if self.subdim is not None:
            return self.subdim
        return smallest_subdim(self.embed_dim, self.order)


def block_shapes(config: LayerConfig) -> list[tuple[str, tuple[int, int]]]:
    """Named parameter blocks in their canonical (and serialisation) order."""
    kind = config.kind
    V, d, n, r = config.vocab_size, config.embed_dim, config.order, config.rank
    if kind is MethodKind.ORIGINAL:
        return [("weight", (V, d))]
    if kind is MethodKind.MATRIX_FACTOR:
        return [("factor_left", (V, r)), ("factor_right", (r, d))]
    if kind is MethodKind.WORD2KET:
        q = config.effective_subdim()
        return [("word_factors", (V, r * n * q))]
    if kind in (MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE):
        q = config.effective_subdim()
        M = config.morpheme_vocab_size
        if M is None:
            raise ConfigError(f"{kind.value} requires morpheme_vocab_size")
        return [(f"morpheme_embed_{i}", (M, q)) for i in range(r)]
    if kind is MethodKind.MORPHSUM:
        M = config.morpheme_vocab_size
        if M is None:
            raise ConfigError("morphsum requires morpheme_vocab_size")
        return [("surface_embed", (V, d)), ("morpheme_embed", (M, d))]
    if kind is MethodKind.TENSOR_TRAIN:
        vf, df = config.vocab_factors, config.dim_factors
        shapes = []
        for k, (v, dk) in enumerate(zip(vf, df)):
            if k == 0:
                cols = dk * r
            elif k == len(vf) - 1:
                cols = r * dk
            else:
                cols = r * dk * r
            shapes.append((f"tt_core_{k}", (v, cols)))
        return shapes
    if kind is MethodKind.WORD2KETXS:
        vf, df = config.vocab_factors, config.dim_factors
        return [
            (f"xs_factor_{i}_{j}", (vf[j], df[j]))
            for i in range(r)
            for j in range(len(vf))
        ]
    raise ConfigError(f"unknown method kind {kind!r}")


@dataclass
class EmbeddingLayer:
    config: LayerConfig
    params: dict[str, np.ndarray]
    index: IndexMatrix | None = None
    vocab: MorphemeVocab | None = None

    def trainable_param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def forward(self, word_id: int) -> np.ndarray:
        return forward(self, word_id)

    def forward_batch(self, word_ids: Sequence[int]) -> list[np.ndarray]:
        return forward_batch(self, word_ids)


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


def check_morpheme_ids(index: IndexMatrix, morpheme_vocab_size: int | None) -> None:
    """Reject an index that references a row outside ``[0, morpheme_vocab_size)``."""
    M = morpheme_vocab_size or 0
    if index.rows.size and (int(index.rows.min()) < 0 or int(index.rows.max()) >= M):
        raise ConfigError(f"index references morpheme ids outside [0, {M})")


def build(
    config: LayerConfig,
    vocab: MorphemeVocab | None = None,
    index: IndexMatrix | None = None,
) -> EmbeddingLayer:
    """Allocate and initialise a layer's parameter blocks.

    Morphological kinds need a vocabulary and index; the random-sharing kind
    synthesises its index from the config seed when none is supplied.
    """
    config.validate()
    kind = config.kind

    if kind in (MethodKind.MORPHTE, MethodKind.MORPHSUM):
        if vocab is None or index is None:
            raise ConfigError(f"{kind.value} requires a morpheme vocab and index")
        if index.vocab_size != config.vocab_size:
            raise ConfigError(
                f"index covers {index.vocab_size} words, config says {config.vocab_size}"
            )
        if index.order != config.order:
            raise ConfigError(f"index order {index.order} != config order {config.order}")
        if config.morpheme_vocab_size is None:
            config = replace(config, morpheme_vocab_size=vocab.size)
        elif config.morpheme_vocab_size != vocab.size:
            raise ConfigError(
                f"morpheme_vocab_size {config.morpheme_vocab_size} != vocab size {vocab.size}"
            )
    elif kind is MethodKind.WORD2KET_RSHARE:
        if config.morpheme_vocab_size is None:
            raise ConfigError("word2ket_rshare requires morpheme_vocab_size")
        if index is None:
            index = build_rshare_index(
                config.vocab_size, config.morpheme_vocab_size, config.order, config.seed
            )
        if index.vocab_size != config.vocab_size or index.order != config.order:
            raise ConfigError("supplied index does not match config dimensions")
    else:
        index = None
        vocab = None

    if index is not None:
        check_morpheme_ids(index, config.morpheme_vocab_size)

    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, (rows, cols) in block_shapes(config):
        bound = math.sqrt(6.0 / (rows + cols))
        params[name] = rng.uniform(-bound, bound, size=(rows, cols))
    return EmbeddingLayer(config=config, params=params, index=index, vocab=vocab)


def _ket_groups(
    layer: EmbeddingLayer, blocks: dict[str, np.ndarray], word_id: int
) -> list[list[np.ndarray]]:
    """The r groups of n row views of ``blocks`` whose entangled sum embeds a word.

    ``blocks`` is ``layer.params`` or a gradient dict of the same shapes, so
    the views serve both to read a word's factors and to accumulate into
    their gradients.  Within a group the views have one length per axis
    (q for the ket kinds, ``dim_factors`` for word2ketxs).  A morpheme that
    fills several slots yields several views of the same row.
    """
    cfg = layer.config
    n, r = cfg.order, cfg.rank
    if cfg.kind is MethodKind.WORD2KET:
        return [list(group) for group in blocks["word_factors"][word_id].reshape(r, n, -1)]
    if cfg.kind is MethodKind.WORD2KETXS:
        digits = mixed_radix_digits(word_id, cfg.vocab_factors)
        return [[blocks[f"xs_factor_{i}_{j}"][digits[j]] for j in range(n)] for i in range(r)]
    ids = layer.index.row(word_id).tolist()
    factors = [blocks[f"morpheme_embed_{i}"] for i in range(r)]
    return [[f[m] for m in ids] for f in factors]


def _tensor_train_chain(
    layer: EmbeddingLayer, digits: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One word's TT core rows and the carries that contract them left to right.

    Returns ``(cores, carries)``: ``cores[k]`` is core k's row reshaped to
    ``(d_0, r)``, ``(r, d_k * r)`` or ``(r, d_{n-1})`` for the first, middle
    and last core, and ``carries[k]`` is the ``(d_0 ... d_k, r)`` product of
    cores 0..k, for k < n - 1.  The embedding is ``carries[-1] @ cores[-1]``.
    """
    params, r, n = layer.params, layer.config.rank, layer.config.order
    carry = params["tt_core_0"][digits[0]].reshape(-1, r)
    cores, carries = [carry], [carry]
    for k in range(1, n - 1):
        core = params[f"tt_core_{k}"][digits[k]].reshape(r, -1)
        carry = (carry @ core).reshape(-1, r)
        cores.append(core)
        carries.append(carry)
    cores.append(params[f"tt_core_{n - 1}"][digits[n - 1]].reshape(r, -1))
    return cores, carries


def forward(layer: EmbeddingLayer, word_id: int) -> np.ndarray:
    """Embed one word id; always returns a fresh length-d float64 vector."""
    cfg = layer.config
    if not 0 <= word_id < cfg.vocab_size:
        raise WordLookupError(f"word id {word_id} out of range [0, {cfg.vocab_size})")
    kind = cfg.kind

    if kind is MethodKind.ORIGINAL:
        return layer.params["weight"][word_id].copy()

    if kind is MethodKind.MATRIX_FACTOR:
        return layer.params["factor_left"][word_id] @ layer.params["factor_right"]

    if kind in TENSOR_PRODUCT_KINDS:
        groups = _ket_groups(layer, layer.params, word_id)
        return truncate_to(entangled_sum(groups), cfg.embed_dim)

    if kind is MethodKind.MORPHSUM:
        ids = layer.index.row(word_id)
        out = layer.params["surface_embed"][word_id].copy()
        morph = layer.params["morpheme_embed"]
        for m in ids:
            out += morph[m]
        return out

    if kind is MethodKind.TENSOR_TRAIN:
        cores, carries = _tensor_train_chain(layer, mixed_radix_digits(word_id, cfg.vocab_factors))
        return truncate_to((carries[-1] @ cores[-1]).ravel(), cfg.embed_dim)

    raise ConfigError(f"unknown method kind {kind!r}")


def forward_batch(layer: EmbeddingLayer, word_ids: Sequence[int]) -> list[np.ndarray]:
    return [forward(layer, int(w)) for w in word_ids]
