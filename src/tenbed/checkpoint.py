"""Binary checkpoint format for embedding layers.

Layout (all integers unsigned 64-bit little-endian):

    magic   8 bytes  b"TENBEDCK"
    version u64      currently 1
    meta    u64 length + UTF-8 JSON: every ``LayerConfig`` field (method
                     kind, shape, seed), block names in order, whether an
                     index follows, optional word list and morpheme token list
    blocks  for each parameter block, in meta order:
               name u64 length + UTF-8 bytes
               rows u64, cols u64
               rows*cols float64 little-endian, row-major
    index   only if the meta says so: rows u64, cols u64, int64 LE data

Parameters round-trip bit-exactly.  The loader rejects unknown versions,
a meta, block or index that disagrees with the config (through ``build``'s
own checks) and bytes after the last block.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import fields

import numpy as np

from .errors import CheckpointError
from .layers import EmbeddingLayer, LayerConfig, block_shapes, check_parts
from .morphology import IndexMatrix, MorphemeVocab

MAGIC = b"TENBEDCK"
FORMAT_VERSION = 1
_CONFIG_FIELDS = fields(LayerConfig)
_META_KEYS = [f.name for f in _CONFIG_FIELDS] + ["blocks", "has_index", "words", "morphemes"]


def _write_u64(fh, value: int) -> None:
    fh.write(struct.pack("<Q", value))


def _read_u64(fh) -> int:
    raw = fh.read(8)
    if len(raw) != 8:
        raise CheckpointError("truncated checkpoint: expected 8-byte integer")
    return struct.unpack("<Q", raw)[0]


def _write_bytes(fh, data: bytes) -> None:
    _write_u64(fh, len(data))
    fh.write(data)


def _read_bytes(fh) -> bytes:
    length = _read_u64(fh)
    data = fh.read(length)
    if len(data) != length:
        raise CheckpointError(f"truncated checkpoint: expected {length} bytes")
    return data


def save_layer(layer: EmbeddingLayer, path) -> None:
    with open(path, "wb") as fh:
        dump_layer(layer, fh)


def dump_layer(layer: EmbeddingLayer, fh) -> None:
    # json writes the str-valued kind as its value and tuples as lists
    meta = {f.name: getattr(layer.config, f.name) for f in _CONFIG_FIELDS}
    meta.update(
        blocks=list(layer.params),
        has_index=layer.index is not None,
        words=list(layer.index.words) if layer.index is not None else None,
        morphemes=list(layer.vocab.tokens[:-1]) if layer.vocab is not None else None,
    )
    fh.write(MAGIC)
    _write_u64(fh, FORMAT_VERSION)
    _write_bytes(fh, json.dumps(meta, sort_keys=True).encode("utf-8"))
    for name, block in layer.params.items():
        _write_bytes(fh, name.encode("utf-8"))
        rows, cols = block.shape
        _write_u64(fh, rows)
        _write_u64(fh, cols)
        fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
    if layer.index is not None:
        rows, cols = layer.index.rows.shape
        _write_u64(fh, rows)
        _write_u64(fh, cols)
        fh.write(np.ascontiguousarray(layer.index.rows, dtype="<i8").tobytes())


def load_layer(path) -> EmbeddingLayer:
    with open(path, "rb") as fh:
        return parse_layer(fh)


def loads_layer(data: bytes) -> EmbeddingLayer:
    return parse_layer(io.BytesIO(data))


def parse_layer(fh) -> EmbeddingLayer:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"not a checkpoint file (magic {magic!r})")
    version = _read_u64(fh)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version}, expected {FORMAT_VERSION}"
        )
    try:
        meta = json.loads(_read_bytes(fh).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint metadata: {exc}") from exc

    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise CheckpointError(f"checkpoint metadata lacks {', '.join(missing)}")
    try:
        config = LayerConfig(**{f.name: meta[f.name] for f in _CONFIG_FIELDS})
        config.validate()
        shapes = block_shapes(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from exc
    if meta["blocks"] != [name for name, _ in shapes]:
        raise CheckpointError(
            f"blocks {meta['blocks']} do not match {config.kind.value}'s "
            f"{[name for name, _ in shapes]}"
        )
    params: dict[str, np.ndarray] = {}
    for expected_name, shape in shapes:
        name = _read_bytes(fh).decode("utf-8")
        if name != expected_name:
            raise CheckpointError(f"block order mismatch: {name!r} vs {expected_name!r}")
        rows = _read_u64(fh)
        cols = _read_u64(fh)
        if (rows, cols) != shape:
            raise CheckpointError(
                f"block {name!r} has shape {(rows, cols)}, the config implies {shape}"
            )
        raw = fh.read(rows * cols * 8)
        if len(raw) != rows * cols * 8:
            raise CheckpointError(f"truncated block {name!r}")
        block = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
        if not np.all(np.isfinite(block)):
            raise CheckpointError(f"block {name!r} contains non-finite values")
        params[name] = block

    index = vocab = None
    if meta["has_index"]:
        # checked before the read, because the header sizes the allocation
        rows = _read_u64(fh)
        cols = _read_u64(fh)
        if (rows, cols) != (config.vocab_size, config.order):
            raise CheckpointError(
                f"index has shape {(rows, cols)}, the config implies "
                f"{(config.vocab_size, config.order)}"
            )
        raw = fh.read(rows * cols * 8)
        if len(raw) != rows * cols * 8:
            raise CheckpointError("truncated index block")
    try:
        if meta["has_index"]:
            ids = np.frombuffer(raw, dtype="<i8").reshape(rows, cols)
            index = IndexMatrix(ids, meta["words"] or [f"w{j}" for j in range(rows)])
        if meta["morphemes"] is not None:
            vocab = MorphemeVocab(meta["morphemes"])
        check_parts(config, vocab, index)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint index or vocab: {exc}") from exc
    if fh.read(1):
        raise CheckpointError("trailing bytes after the last block")
    return EmbeddingLayer(config=config, params=params, index=index, vocab=vocab)
