import io
import json
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import ALL_KINDS, random_layer, stable_seed
from tenbed.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    READ_FLOATS,
    dump_layer,
    load_layer,
    loads_layer,
    parse_layer,
    save_layer,
)
from tenbed.cli import main
from tenbed.errors import CheckpointError
from tenbed.layers import LayerConfig, MethodKind, build, forward, forward_batch
from tenbed.morphology import IndexMatrix, MorphemeVocab


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


def long_original():
    """An ``original`` layer whose one block is two full read chunks and a partial one."""
    layer = build(LayerConfig(MethodKind.ORIGINAL, 2 * READ_FLOATS // 64 + 5, 64, seed=3))
    assert 2 * READ_FLOATS < layer.params["weight"].size < 3 * READ_FLOATS
    return layer


def test_rejects_non_finite_parameters():
    rng = np.random.default_rng(3)
    layer = random_layer("original", rng)
    layer.params["weight"][0, 0] = np.nan
    with pytest.raises(CheckpointError, match="non-finite"):
        loads_layer(roundtrip_bytes(layer))
    # at the first float of the second chunk, and at the last of the last, partial one
    for at, value in ((READ_FLOATS, np.nan), (-1, np.inf)):
        layer = long_original()
        layer.tables["weight"].reshape(-1)[at] = value
        with pytest.raises(CheckpointError, match="block 'weight' contains non-finite"):
            loads_layer(roundtrip_bytes(layer))


def test_a_block_cut_inside_its_second_chunk_is_refused_by_its_whole_length():
    """A morphsum layer whose long word names make the file outlast its blocks,
    so the cut is found at the block, which is named with its whole length."""
    V, M = 2 * READ_FLOATS // 64 + 5, 12
    rng = np.random.default_rng(stable_seed("cut", "morphsum"))
    vocab = MorphemeVocab([f"m{i}" for i in range(M - 1)])
    index = IndexMatrix(rng.integers(0, M, size=(V, 3)), [f"{j:0300d}" for j in range(V)])
    layer = build(LayerConfig(MethodKind.MORPHSUM, V, 64, order=3), vocab=vocab, index=index)
    data = roundtrip_bytes(layer)
    block = layer.params["surface_embed"].nbytes
    start = data.rindex(b"surface_embed") + len("surface_embed") + 16  # after name and shape
    left = (READ_FLOATS + 10) * 8
    message = f"truncated checkpoint: block 'surface_embed' is {block} bytes, {left} left"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        loads_layer(data[: start + left])


def test_a_load_makes_no_table_sized_temporary(tmp_path):
    """The blocks are read and checked in chunks: the traced peak of loading a
    16.8 MB table is less than one chunk above the table."""
    path = tmp_path / "original.bin"
    save_layer(build(LayerConfig(MethodKind.ORIGINAL, 32768, 64)), path)
    tracemalloc.start()
    try:
        loaded = load_layer(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - loaded.tables["weight"].nbytes < READ_FLOATS * 8


def meta_of(data: bytes) -> tuple[dict, int]:
    """The JSON meta of the checkpoint ``data`` and the offset of its end."""
    start = len(MAGIC) + 8
    (length,) = struct.unpack("<Q", data[start : start + 8])
    return json.loads(data[start + 8 : start + 8 + length]), start + 8 + length


def with_meta(data: bytes, *drop, **changes) -> bytes:
    """The checkpoint ``data`` with the ``drop`` keys deleted from its JSON
    meta and ``changes`` written into it."""
    meta, end = meta_of(data)
    for key in drop:
        del meta[key]
    meta.update(changes)
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    return data[: len(MAGIC) + 8] + struct.pack("<Q", len(raw)) + raw + data[end:]


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


@pytest.mark.parametrize("raw", [b"[1, 2]", b'"original"', b"null", b"3"])
def test_rejects_meta_that_is_not_a_json_object(raw):
    data = roundtrip_bytes(build(LayerConfig(MethodKind.ORIGINAL, 5, 3)))
    start = len(MAGIC) + 8
    (length,) = struct.unpack("<Q", data[start : start + 8])
    data = data[:start] + struct.pack("<Q", len(raw)) + raw + data[start + 8 + length :]
    with pytest.raises(CheckpointError, match="checkpoint metadata is not a JSON object"):
        loads_layer(data)


@pytest.mark.parametrize("kind", ["morphte", "word2ketxs"])
def test_a_huge_rank_is_refused_before_its_blocks_are_listed(kind):
    """A meta whose rank implies 10**12 blocks is refused at once, in bounded memory."""
    data = roundtrip_bytes(random_layer(kind, np.random.default_rng(stable_seed("rank", kind))))
    start = time.perf_counter()
    with pytest.raises(CheckpointError, match="truncated checkpoint: the config's blocks are"):
        loads_layer(with_meta(data, rank=10**12))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kind, field, bad",
    [
        ("morphte", "rank", float),
        ("morphte", "embed_dim", float),
        ("morphte", "seed", lambda v: v + 0.5),
        ("morphte", "subdim", str),
        ("morphte", "morpheme_vocab_size", float),
        ("original", "rank", lambda v: True),
        ("tensor_train", "vocab_factors", lambda v: [v[0] + 0.5, *v[1:]]),
        ("word2ketxs", "dim_factors", lambda v: [float(x) for x in v]),
    ],
    ids=["rank", "embed_dim", "seed", "subdim", "morpheme_vocab_size", "bool", "vocab_factors",
         "dim_factors"],
)
def test_rejects_meta_whose_integer_field_is_not_an_integer(kind, field, bad):
    """A float, bool or str is refused, not truncated or passed on to fail later."""
    layer = random_layer(kind, np.random.default_rng(stable_seed("integer", kind)))
    data = roundtrip_bytes(layer)
    with pytest.raises(CheckpointError, match=f"{field} must be"):
        loads_layer(with_meta(data, **{field: bad(getattr(layer.config, field))}))


META_KEYS = [
    "kind", "vocab_size", "embed_dim", "order", "rank", "subdim", "vocab_factors",
    "dim_factors", "morpheme_vocab_size", "seed", "blocks", "has_index", "words", "morphemes",
]


@pytest.mark.parametrize("key", META_KEYS)
def test_rejects_meta_without_a_key(key):
    data = roundtrip_bytes(random_layer("morphte", np.random.default_rng(4)))
    with pytest.raises(CheckpointError, match=f"lacks {key}"):
        loads_layer(with_meta(data, key))


def morphte_checkpoint():
    """A morphte checkpoint and the offset of its index block header."""
    layer = random_layer("morphte", np.random.default_rng(6))
    data = roundtrip_bytes(layer)
    return layer, data, len(data) - 16 - layer.index.rows.size * 8


def test_rejects_index_header_that_disagrees_with_config():
    layer, data, at = morphte_checkpoint()
    assert struct.unpack("<QQ", data[at : at + 16]) == layer.index.rows.shape
    bad = data[:at] + struct.pack("<Q", 2**62) + data[at + 8 :]
    with pytest.raises(CheckpointError, match="index has shape"):
        loads_layer(bad)


def original_5x8() -> tuple[bytes, int]:
    """The checkpoint of ``LayerConfig(ORIGINAL, 5, 8)`` and the offset of its block header."""
    data = roundtrip_bytes(build(LayerConfig(MethodKind.ORIGINAL, 5, 8)))
    return data, meta_of(data)[1]


def with_u64(data: bytes, at: int, value: int) -> bytes:
    return data[:at] + struct.pack("<Q", value) + data[at + 8 :]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda data, at: with_u64(data, at, 2**40),
         "truncated checkpoint: block name is 1099511627776 bytes, 342 left"),
        (lambda data, at: with_u64(data, at, 5), "block order mismatch: 'weigh' vs 'weight'"),
        (lambda data, at: data[: at + 8] + b"x" + data[at + 9 :],
         "block order mismatch: 'xeight' vs 'weight'"),
        (lambda data, at: with_u64(data, at + 14, 6),
         "block 'weight' has shape (6, 8), the config implies (5, 8)"),
        (lambda data, at: with_u64(data, at + 22, 9),
         "block 'weight' has shape (5, 9), the config implies (5, 8)"),
        (lambda data, at: data[: len(MAGIC) + 12],
         "truncated checkpoint: metadata length is 8 bytes, 4 left"),
        (lambda data, at: data[: at + 11],
         "truncated checkpoint: the config's blocks are 320 bytes, the whole checkpoint {}"),
        (lambda data, at: data[: at + 20],
         "truncated checkpoint: the config's blocks are 320 bytes, the whole checkpoint {}"),
    ],
    ids=["name-length-huge", "name-length-short", "name-byte", "rows", "cols", "cut-meta-length",
         "cut-name", "cut-shape"],
)
def test_each_header_refusal_names_what_it_read(mutate, message):
    """The refusals of a block header, and of a cut before it, word for word."""
    data, at = original_5x8()
    assert loads_layer(data).config == LayerConfig(MethodKind.ORIGINAL, 5, 8)
    bad = mutate(data, at)
    with pytest.raises(CheckpointError, match=f"^{re.escape(message.format(len(bad)))}$"):
        loads_layer(bad)


class ForwardOnly:
    """A stream with only ``read`` and ``readinto`` that refuses any byte past ``size``."""

    def __init__(self, data: bytes, size: int):
        self.stream, self.size = io.BytesIO(data), size

    def claim(self, count: int) -> None:
        assert self.stream.tell() + count <= self.size, "read past the checkpoint"

    def read(self, count: int) -> bytes:
        self.claim(count)
        return self.stream.read(count)

    def readinto(self, out) -> int:
        self.claim(memoryview(out).nbytes)
        return self.stream.readinto(out)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_load_reads_forward_and_stops_at_its_size(kind):
    """Without seek or tell, and with bytes after the checkpoint: a load reads up to
    ``size`` and no further, and its layer gives the saved layer's forwards."""
    layer = random_layer(kind, np.random.default_rng(stable_seed("forward-only", kind)))
    data = roundtrip_bytes(layer)
    stream = ForwardOnly(data + b"\xff" * 24, len(data))
    loaded = parse_layer(stream, len(data))
    assert stream.stream.tell() == len(data)
    ids = list(range(layer.config.vocab_size))
    assert forward_batch(loaded, ids).tobytes() == forward_batch(layer, ids).tobytes()


@pytest.mark.parametrize(
    "config, field, bad",
    [
        (LayerConfig(MethodKind.ORIGINAL, 5, 8, rank=2), "rank",
         [2.0, True, "2", [2], {"a": 1}]),
        (LayerConfig(MethodKind.TENSOR_TRAIN, 60, 8, order=2, rank=2, vocab_factors=(30, 2),
                     dim_factors=(2, 4)), "vocab_factors", [[30.0, 2], [True, 2], [[30], 2]]),
    ],
    ids=["rank", "vocab_factors"],
)
def test_a_loaded_config_is_reused_only_for_values_of_equal_types(config, field, bad):
    """A load after a valid one of equal values refuses a float, bool, str, list or
    dict in place of an integer as a first load does; and two loads give one config."""
    data = roundtrip_bytes(build(config))
    first = loads_layer(data)
    for value in bad:
        got = value[0] if field.endswith("_factors") else value
        what = "integers" if field.endswith("_factors") else "an integer"
        with pytest.raises(CheckpointError, match=re.escape(f"{field} must be {what}, got {got!r}")):
            loads_layer(with_meta(data, **{field: value}))
    again = loads_layer(data)
    assert first.config == again.config == config
    ids = list(range(config.vocab_size))
    assert forward_batch(first, ids).tobytes() == forward_batch(again, ids).tobytes()


def test_the_reused_configs_are_the_64_most_recently_loaded():
    from tenbed import checkpoint

    data = [roundtrip_bytes(build(LayerConfig(MethodKind.ORIGINAL, 2, 2, seed=s))) for s in range(66)]
    kept = loads_layer(data[0]).config
    for blob in data[1:]:
        loads_layer(blob)
        assert loads_layer(data[0]).config is kept  # each load of it makes it the most recent
    assert len(checkpoint._CONFIGS) == 64
    assert 1 not in {config.seed for config in checkpoint._CONFIGS.values()}  # the least recent went
    assert loads_layer(data[1]).config == LayerConfig(MethodKind.ORIGINAL, 2, 2, seed=1)


@pytest.mark.parametrize("morpheme_id", [999, -1])
def test_rejects_index_ids_outside_the_morpheme_table(morpheme_id):
    layer, data, at = morphte_checkpoint()
    bad = data[: at + 16] + struct.pack("<q", morpheme_id) + data[at + 24 :]
    with pytest.raises(CheckpointError, match="outside"):
        loads_layer(bad)


@pytest.mark.parametrize(
    "kind, changes",
    [
        ("morphte", lambda layer: {"has_index": False}),
        ("word2ket_rshare", lambda layer: {"has_index": False}),
        ("morphte", lambda layer: {"words": list(layer.index.words[:-1])}),
        ("morphte", lambda layer: {"words": []}),
        ("word2ket_rshare", lambda layer: {"words": []}),
        ("morphte", lambda layer: {"words": [layer.index.words[0]] * layer.config.vocab_size}),
        ("morphte", lambda layer: {"words": [[w] for w in layer.index.words]}),
        ("morphte", lambda layer: {"morphemes": list(layer.vocab.tokens[:1])}),
        ("morphte", lambda layer: {"morphemes": None}),
    ],
    ids=["morphte-no-index", "rshare-no-index", "words-short", "morphte-words-empty",
         "rshare-words-empty", "words-repeated",
         "words-unhashable", "one-morpheme", "morphemes-null"],
)
def test_rejects_index_or_vocab_that_build_would_refuse(kind, changes):
    layer = random_layer(kind, np.random.default_rng(stable_seed("parts", kind)))
    with pytest.raises(CheckpointError):
        loads_layer(with_meta(roundtrip_bytes(layer), **changes(layer)))


@pytest.mark.parametrize(
    "changes, message",
    [
        (lambda layer: {"words": list(range(layer.config.vocab_size))}, "words must be"),
        (lambda layer: {"words": "".join(chr(0x4E00 + j) for j in range(layer.config.vocab_size))},
         "words must be"),
        (lambda layer: {"morphemes": list(range(layer.vocab.size - 1))}, "morphemes must be"),
        (lambda layer: {"has_index": "yes"}, "has_index must be"),
        (lambda layer: {"has_index": 1}, "has_index must be"),
    ],
    ids=["words-ints", "words-str", "morphemes-ints", "has_index-str", "has_index-int"],
)
def test_rejects_meta_words_morphemes_or_has_index_of_the_wrong_type(changes, message):
    """Words and morphemes are null or lists of strings and has_index a bool: a string
    is not read as one word per character, nor an int word left to fail in ``eval``."""
    layer = random_layer("morphte", np.random.default_rng(stable_seed("meta-types", "morphte")))
    with pytest.raises(CheckpointError, match=message):
        loads_layer(with_meta(roundtrip_bytes(layer), **changes(layer)))


@pytest.mark.parametrize("kind", ["morphte", "morphsum", "word2ket_rshare"])
def test_a_loaded_index_finds_every_word(kind):
    layer = random_layer(kind, np.random.default_rng(stable_seed("row-of-word", kind)))
    loaded = loads_layer(roundtrip_bytes(layer))
    assert [loaded.index.row_of_word(w) for w in loaded.index.words] == list(
        range(layer.config.vocab_size))


@pytest.mark.parametrize("kind", ["original", "morphte"])
def test_rejects_trailing_bytes(kind):
    data = roundtrip_bytes(random_layer(kind, np.random.default_rng(5)))
    loads_layer(data)
    with pytest.raises(CheckpointError, match="trailing"):
        loads_layer(data + b"\0")


def test_a_word2ket_rshare_checkpoint_stores_no_names():
    """Its meta's words are null, and it loads as the same checkpoint with the
    explicit names ``w0 ...`` that earlier versions wrote."""
    layer = random_layer("word2ket_rshare", np.random.default_rng(stable_seed("rshare-names")))
    data = roundtrip_bytes(layer)
    assert meta_of(data)[0]["words"] is None
    V = layer.config.vocab_size
    unnamed = loads_layer(data)
    named = loads_layer(with_meta(data, words=[f"w{j}" for j in range(V)]))
    for name, table in unnamed.tables.items():
        assert table.tobytes() == named.tables[name].tobytes() == layer.tables[name].tobytes()
    np.testing.assert_array_equal(unnamed.index.rows, named.index.rows)
    assert unnamed.index.words == named.index.words == tuple(f"w{j}" for j in range(V))
    ids = list(range(V))
    assert forward_batch(unnamed, ids).tobytes() == forward_batch(named, ids).tobytes()
    assert roundtrip_bytes(unnamed) == data


def test_eval_reads_generated_and_explicit_names_alike(tmp_path):
    runner = CliRunner()
    config = tmp_path / "layer.cfg"
    config.write_text("method=word2ket_rshare\nvocab_size=30\nembed_dim=8\norder=3\nrank=2\n"
                      "q=2\nmorphemes=12\nseed=5\n", encoding="utf-8")
    unnamed, named = tmp_path / "unnamed.bin", tmp_path / "named.bin"
    res = runner.invoke(main, ["export", "--config", str(config), "--out", str(unnamed)])
    assert res.exit_code == 0, res.output
    data = unnamed.read_bytes()
    assert meta_of(data)[0]["words"] is None
    named.write_bytes(with_meta(data, words=[f"w{j}" for j in range(30)]))
    outputs = []
    for path in (unnamed, named):
        res = runner.invoke(main, ["eval", "--checkpoint", str(path), "--words", "w3,w7"])
        assert res.exit_code == 0, res.output
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]
    assert [line.split("\t")[0] for line in outputs[0].splitlines()] == ["w3", "w7"]


def field_offsets(layer, data: bytes) -> tuple[list[int], list[int]]:
    """Where ``data``, the checkpoint of ``layer``, holds a u64 length or
    shape, and the offsets of its block names' bytes."""
    at = len(MAGIC)
    (meta_length,) = struct.unpack_from("<Q", data, at + 8)
    u64s, names = [at, at + 8], []  # version, meta length
    at += 16 + meta_length
    for name, block in layer.params.items():
        u64s += [at, at + 8 + len(name), at + 16 + len(name)]  # name length, rows, cols
        names += range(at + 8, at + 8 + len(name))
        at += 24 + len(name) + block.nbytes
    u64s += [at, at + 8]  # index rows, cols
    assert at + 16 + layer.index.rows.nbytes == len(data)
    return u64s, names


@pytest.mark.parametrize("kind", ["morphte", "word2ket_rshare"])
def test_mutated_checkpoints_load_or_raise_checkpoint_error(tmp_path, kind):
    """Seeded mutations of a small checkpoint file with an index: a truncation
    at every offset, every u64 length or shape field set to 0, 2**32, 2**40 and
    2**63, and three random single-byte flips at every offset of the header,
    the meta and the block names.  Each load either returns a layer or raises
    CheckpointError; anything else, such as a MemoryError from an unchecked
    length or a UnicodeDecodeError from a name, fails."""
    layer = random_layer(kind, np.random.default_rng(stable_seed("fuzz", kind)))
    data = roundtrip_bytes(layer)
    path = tmp_path / "mutant.bin"

    def load(mutant: bytes):
        path.write_bytes(mutant)
        return load_layer(path)

    load(data)
    for end in range(len(data)):
        with pytest.raises(CheckpointError):
            load(data[:end])

    u64s, names = field_offsets(layer, data)
    mutants = [
        data[:at] + struct.pack("<Q", value) + data[at + 8 :]
        for at in u64s
        for value in (0, 2**32, 2**40, 2**63)
    ]
    rng = np.random.default_rng(stable_seed("fuzz", "flips"))
    (meta_length,) = struct.unpack_from("<Q", data, len(MAGIC) + 8)
    for at in [*range(len(MAGIC) + 16 + meta_length), *names]:
        for flip in rng.integers(1, 256, size=3):
            mutant = bytearray(data)
            mutant[at] ^= int(flip)
            mutants.append(bytes(mutant))
    loaded = 0
    for mutant in mutants:
        try:
            load(mutant)
            loaded += 1
        except CheckpointError:
            pass
    assert 0 < loaded < len(mutants)
