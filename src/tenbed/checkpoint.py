"""Binary checkpoint format for embedding layers.

Layout (all integers unsigned 64-bit little-endian):

    magic   8 bytes  b"TENBEDCK"
    version u64      currently 1
    meta    u64 length + UTF-8 JSON: every ``LayerConfig`` field (method
                     kind, shape, seed), block names in order, whether an
                     index follows, optional word list (null for an index
                     without names, whose row j is ``w{j}``) and morpheme
                     token list
    blocks  for each parameter block, in meta order:
               name u64 length + UTF-8 bytes
               rows u64, cols u64
               rows*cols float64 little-endian, row-major
    index   only if the meta says so: rows u64, cols u64, int64 LE data

Parameters round-trip bit-exactly; arrays are written from their memory, and
each block is read in place into its slab of the table handed to the layer,
in chunks of ``READ_FLOATS`` floats, each checked for finiteness while it is
in cache, so a load makes no table-sized temporary.
The loader reads forward only and checks every length against the bytes left
in its input before it reads or allocates anything, a config's blocks against
the whole input.  Fixed-size fields are read as bytes and unpacked with
``struct``.  A load reuses the config of a meta whose config values, with their
types, match one of the 64 configs the process's loads used most recently: a
repeated config costs a lookup.
It rejects, with ``CheckpointError``, unknown versions, a meta of the wrong
type, a meta, block or index at odds with the config, and trailing bytes: the
config, index and vocab are checked where ``LayerConfig`` and
``EmbeddingLayer`` are made, so a load makes the checks a build makes.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import fields

import numpy as np

from .errors import CheckpointError
from .layers import EmbeddingLayer, LayerConfig, table_shapes
from .morphology import IndexMatrix, MorphemeVocab

MAGIC = b"TENBEDCK"
FORMAT_VERSION = 1
_CONFIG_FIELDS = fields(LayerConfig)
_META_KEYS = [f.name for f in _CONFIG_FIELDS] + ["blocks", "has_index", "words", "morphemes"]
# on-disk dtypes and fixed-size fields, made once: parsing a format costs more than a small read
_F64, _I64 = np.dtype("<f8"), np.dtype("<i8")
_U64, _SHAPE = struct.Struct("<Q"), struct.Struct("<QQ")
READ_FLOATS = 32768  # floats a block is read and checked in: 256 KB, cache-sized


def _write_u64(fh, *values: int) -> None:
    fh.write(struct.pack(f"<{len(values)}Q", *values))


def _write_bytes(fh, data: bytes) -> None:
    _write_u64(fh, len(data))
    fh.write(data)


class _Reader:
    """Reads ``fh`` forward, of which ``left`` bytes remain, checking every length
    against them before anything is allocated or read."""

    def __init__(self, fh, left: int):
        self.fh, self.left = fh, left

    def _check(self, need: int, what: str) -> None:
        if need > self.left:
            raise CheckpointError(f"truncated checkpoint: {what} is {need} bytes, {self.left} left")

    def take(self, count: int, what: str) -> bytes:
        """The next ``count`` bytes."""
        self._check(count, what)
        self.left -= count
        data = self.fh.read(count)
        if len(data) != count:
            raise CheckpointError(f"checkpoint shrank while {what} was read")
        return data

    def read(self, count: int, dtype: np.dtype, what: str) -> np.ndarray:
        """The next ``count`` items of ``dtype``, read in place into a new array."""
        self._check(count * dtype.itemsize, what)
        return self.read_into(np.empty(count, dtype), what)

    def read_into(self, out: np.ndarray, what: str) -> np.ndarray:
        """The next ``out.nbytes`` bytes, read in place into the C-contiguous ``out``."""
        self._check(out.nbytes, what)
        self.left -= out.nbytes
        if self.fh.readinto(out) != out.nbytes:
            raise CheckpointError(f"checkpoint shrank while {what} was read")
        return out

    def read_finite(self, out: np.ndarray, scratch: np.ndarray, what: str) -> None:
        """``read_into`` in chunks of ``scratch.size`` items, each checked finite,
        with the bool ``scratch``, while it is in cache."""
        self._check(out.nbytes, what)  # names the whole length
        flat = out.reshape(-1)  # a view: ``out`` is C-contiguous
        for start in range(0, flat.size, scratch.size):
            chunk = self.read_into(flat[start : start + scratch.size], what)
            if not np.isfinite(chunk, out=scratch[: chunk.size]).all():
                raise CheckpointError(f"{what} contains non-finite values")

    def chunk(self, what: str) -> bytes:
        """A u64 length and that many bytes."""
        (length,) = _U64.unpack(self.take(8, f"{what} length"))
        return self.take(length, what)

    def shape(self, what: str, shape: tuple[int, int]) -> None:
        """A matrix's rows, cols header, checked against ``shape``."""
        got = _SHAPE.unpack(self.take(16, f"{what} shape"))
        if got != shape:
            raise CheckpointError(f"{what} has shape {got}, the config implies {shape}")


_CONFIGS: dict[str, LayerConfig] = {}  # the 64 most recently used, least recent first


def _config(values: list) -> LayerConfig:
    """The config of a meta's field values, reused while among the 64 most recently used:
    keyed by their repr, which holds each value's type and each factor's (2, 2.0, "2" and
    true differ)."""
    key = repr(values)
    config = _CONFIGS.pop(key, None) or LayerConfig(*values)
    _CONFIGS[key] = config
    if len(_CONFIGS) > 64:
        del _CONFIGS[next(iter(_CONFIGS))]
    return config


def save_layer(layer: EmbeddingLayer, path) -> None:
    with open(path, "wb") as fh:
        dump_layer(layer, fh)


def dump_layer(layer: EmbeddingLayer, fh) -> None:
    # json writes the str-valued kind as its value and tuples as lists
    meta = {f.name: getattr(layer.config, f.name) for f in _CONFIG_FIELDS}
    index = layer.index
    meta.update(
        blocks=list(layer.params),
        has_index=index is not None,
        words=list(index.words) if index is not None and index.named else None,
        morphemes=list(layer.vocab.tokens[:-1]) if layer.vocab is not None else None,
    )
    fh.write(MAGIC)
    _write_u64(fh, FORMAT_VERSION)
    _write_bytes(fh, json.dumps(meta, sort_keys=True).encode("utf-8"))
    for name, block in layer.params.items():
        _write_bytes(fh, name.encode("utf-8"))
        _write_u64(fh, *block.shape)
        fh.write(np.ascontiguousarray(block, dtype=_F64))
    if index is not None:
        _write_u64(fh, *index.rows.shape)
        fh.write(np.ascontiguousarray(index.rows, dtype=_I64))


def load_layer(path) -> EmbeddingLayer:
    with open(path, "rb") as fh:
        return parse_layer(fh, os.fstat(fh.fileno()).st_size)


def loads_layer(data: bytes) -> EmbeddingLayer:
    return parse_layer(io.BytesIO(data), len(data))


def parse_layer(fh, size: int) -> EmbeddingLayer:
    """The layer in ``fh``, which holds ``size`` bytes from its position on."""
    reader = _Reader(fh, size)
    magic = reader.take(min(len(MAGIC), size), "magic")
    if magic != MAGIC:
        raise CheckpointError(f"not a checkpoint file (magic {magic!r})")
    (version,) = _U64.unpack(reader.take(8, "version"))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version}, expected {FORMAT_VERSION}"
        )
    try:
        meta = json.loads(reader.chunk("metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint metadata: {exc}") from exc

    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise CheckpointError(f"checkpoint metadata lacks {', '.join(missing)}")
    if not isinstance(meta["has_index"], bool):
        raise CheckpointError(f"checkpoint has_index must be a bool, got {meta['has_index']!r}")
    for key in ("words", "morphemes"):  # a set of types: a generator costs 1.5 ms a 41k list
        if meta[key] is not None and not (
                isinstance(meta[key], list) and set(map(type, meta[key])) <= {str}):
            raise CheckpointError(f"checkpoint {key} must be null or a list of strings")
    try:
        config = _config([meta[f.name] for f in _CONFIG_FIELDS])
        tables = table_shapes(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from exc
    # sized from the tables: a rank of 10**12 is refused before its blocks are listed
    data = sum(math.prod(shape) for shape in tables.values()) * _F64.itemsize
    if data > size:
        raise CheckpointError(f"truncated checkpoint: the config's blocks are {data} bytes, "
                              f"the whole checkpoint {size}")
    names = [block.name for block in config.layout.blocks]
    if meta["blocks"] != names:
        raise CheckpointError(
            f"blocks {meta['blocks']} do not match {config.kind.value}'s {names}"
        )
    # each block is read in place into its slab of its table, one scratch for all
    tables = {name: np.empty(shape, _F64) for name, shape in tables.items()}
    scratch = np.empty(READ_FLOATS, bool)
    for block in config.layout.blocks:
        name = reader.chunk("block name").decode("utf-8", "replace")
        if name != block.name:
            raise CheckpointError(f"block order mismatch: {name!r} vs {block.name!r}")
        reader.shape(f"block {name!r}", block.shape)
        reader.read_finite(tables[block.table][block.slab], scratch, f"block {name!r}")

    index = None
    if meta["has_index"]:
        reader.shape("index", (config.vocab_size, config.order))
        ids = reader.read(config.vocab_size * config.order, _I64, "index").reshape(
            config.vocab_size, config.order)
    try:
        if meta["has_index"]:
            index = IndexMatrix(ids, meta["words"])  # null: an index without names
        vocab = None if meta["morphemes"] is None else MorphemeVocab(meta["morphemes"])
        layer = EmbeddingLayer(config, tables, index=index, vocab=vocab)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint index or vocab: {exc}") from exc
    if reader.left:
        raise CheckpointError("trailing bytes after the last block")
    return layer
