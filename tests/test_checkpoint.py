import io
import json
import struct

import numpy as np
import pytest

from conftest import ALL_KINDS, random_layer, stable_seed
from tenbed.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    dump_layer,
    load_layer,
    loads_layer,
    save_layer,
)
from tenbed.errors import CheckpointError
from tenbed.layers import LayerConfig, MethodKind, build, forward


def roundtrip_bytes(layer) -> bytes:
    buf = io.BytesIO()
    dump_layer(layer, buf)
    return buf.getvalue()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_roundtrip_bit_identical(kind, tmp_path):
    rng = np.random.default_rng(stable_seed("ckpt", kind.value))
    layer = random_layer(kind, rng)
    path = tmp_path / "layer.bin"
    save_layer(layer, path)
    loaded = load_layer(path)

    assert loaded.config == layer.config
    assert list(loaded.params) == list(layer.params)
    for name in layer.params:
        assert loaded.params[name].tobytes() == layer.params[name].tobytes()
    if layer.index is not None:
        np.testing.assert_array_equal(loaded.index.rows, layer.index.rows)
        assert loaded.index.words == layer.index.words
    for word_id in rng.integers(0, layer.config.vocab_size, size=5):
        a = forward(layer, int(word_id))
        b = forward(loaded, int(word_id))
        assert a.tobytes() == b.tobytes()


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    layer = random_layer("morphte", rng, seed=7)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_layer(layer, p1)
    save_layer(layer, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic():
    with pytest.raises(CheckpointError):
        loads_layer(b"NOTMAGIC" + b"\x00" * 64)


def test_rejects_unknown_version():
    rng = np.random.default_rng(1)
    data = bytearray(roundtrip_bytes(random_layer("original", rng)))
    assert data[: len(MAGIC)] == MAGIC
    data[len(MAGIC)] = FORMAT_VERSION + 1
    with pytest.raises(CheckpointError, match="version"):
        loads_layer(bytes(data))


def test_rejects_truncated_block():
    rng = np.random.default_rng(2)
    data = roundtrip_bytes(random_layer("original", rng))
    with pytest.raises(CheckpointError):
        loads_layer(data[:-16])


def test_rejects_non_finite_parameters():
    rng = np.random.default_rng(3)
    layer = random_layer("original", rng)
    layer.params["weight"][0, 0] = np.nan
    with pytest.raises(CheckpointError, match="non-finite"):
        loads_layer(roundtrip_bytes(layer))


def with_meta(data: bytes, **changes) -> bytes:
    """The checkpoint ``data`` with ``changes`` written into its JSON meta."""
    start = len(MAGIC) + 8
    (length,) = struct.unpack("<Q", data[start : start + 8])
    meta = json.loads(data[start + 8 : start + 8 + length])
    meta.update(changes)
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    return data[:start] + struct.pack("<Q", len(raw)) + raw + data[start + 8 + length :]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"embed_dim": 64}, "covers only 8 < embed_dim 64"),  # q=2, n=3 cannot reach d=64
        ({"vocab_size": 6}, "has shape"),
        ({"kind": "original"}, "do not match"),
    ],
    ids=["embed_dim", "vocab_size", "kind"],
)
def test_rejects_meta_that_disagrees_with_blocks(changes, message):
    cfg = LayerConfig(MethodKind.WORD2KET, vocab_size=5, embed_dim=8, order=3, rank=1, subdim=2)
    data = roundtrip_bytes(build(cfg))
    assert loads_layer(with_meta(data)).config == cfg
    with pytest.raises(CheckpointError, match=message):
        loads_layer(with_meta(data, **changes))
