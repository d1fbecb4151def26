import dataclasses
import functools
import io
import itertools
import re
import time

import numpy as np
import pytest

from conftest import paper_shaped_layers, random_layer, stable_seed
from tenbed.audit import load_reference_rows
from tenbed.checkpoint import dump_layer, loads_layer
from tenbed.errors import ConfigError, WordLookupError
from tenbed.gradients import touched_rows
from tenbed.layers import (
    EmbeddingLayer,
    LayerConfig,
    MethodKind,
    build,
    build_rshare_index,
    forward,
    forward_batch,
    gather_batch,
    smallest_subdim,
)
from tenbed.morphology import MorphemeVocab, IndexMatrix, Segmentation, build_vocab_and_index
from tenbed.synthetic import make_morphology


def two_word_morphology():
    segs = [
        Segmentation("unkindly", ("un", "kind", "ly")),
        Segmentation("unkindness", ("un", "kind", "ness")),
    ]
    return build_vocab_and_index(segs, 3)


# --- independent forward oracles -----------------------------------------

def naive_kron_chain(vectors):
    lengths = [len(v) for v in vectors]
    out = np.zeros(int(np.prod(lengths)))
    for flat, digits in enumerate(itertools.product(*(range(q) for q in lengths))):
        prod = 1.0
        for v, i in zip(vectors, digits):
            prod *= float(v[i])
        out[flat] = prod
    return out


def kron_sum_row(layer, word_id):
    """A ket kind's row: ``np.kron`` of each rank's factor vectors, summed over rank."""
    cfg = layer.config
    r, n = cfg.rank, cfg.order
    if cfg.kind is MethodKind.WORD2KET:
        ranks = layer.params["word_factors"][word_id].reshape(r, n, -1)
    elif cfg.kind is MethodKind.WORD2KETXS:
        digits = np.unravel_index(word_id, cfg.vocab_factors)
        ranks = [[layer.params[f"xs_factor_{i}_{j}"][digits[j]] for j in range(n)]
                 for i in range(r)]
    else:  # morphte, word2ket_rshare
        ranks = [layer.params[f"morpheme_embed_{i}"][layer.index.rows[word_id]] for i in range(r)]
    return sum(functools.reduce(np.kron, factors) for factors in ranks)[: cfg.embed_dim]


def naive_tt_row(layer, word_id):
    """Contract the tensor-train cores with explicit loops over rank edges."""
    cfg = layer.config
    vf, df, r, n = cfg.vocab_factors, cfg.dim_factors, cfg.rank, cfg.order
    digits = np.unravel_index(word_id, vf)
    slices = []
    for k in range(n):
        row = layer.params[f"tt_core_{k}"][digits[k]]
        if k == 0:
            slices.append(row.reshape(df[0], r))
        elif k == n - 1:
            slices.append(row.reshape(r, df[k]))
        else:
            slices.append(row.reshape(r, df[k], r))
    total = int(np.prod(df))
    out = np.zeros(total)
    for flat, jdigits in enumerate(itertools.product(*(range(dk) for dk in df))):
        acc = 0.0
        for alphas in itertools.product(*(range(r) for _ in range(n - 1))):
            term = slices[0][jdigits[0], alphas[0]]
            for k in range(1, n - 1):
                term *= slices[k][alphas[k - 1], jdigits[k], alphas[k]]
            term *= slices[n - 1][alphas[n - 2], jdigits[n - 1]]
            acc += term
        out[flat] = acc
    return out[: cfg.embed_dim]


def test_mixed_radix_most_significant_first():
    """The factored kinds read core k at digit k of the word id, most significant first."""
    layer = build(LayerConfig(MethodKind.TENSOR_TRAIN, 60, 8, order=3, rank=2,
                              vocab_factors=(3, 4, 5), dim_factors=(2, 2, 2)))
    rows = gather_batch(layer, [0, 59, 23])  # 23 = 1*20 + 0*5 + 3
    assert np.hstack(rows).tolist() == [[0, 0, 0], [2, 3, 4], [1, 0, 3]]
    with pytest.raises(WordLookupError):
        gather_batch(layer, [60])


def test_smallest_subdim():
    assert smallest_subdim(512, 3) == 8
    assert smallest_subdim(513, 3) == 9
    assert smallest_subdim(64, 3) == 4
    assert smallest_subdim(5, 1) == 5
    assert smallest_subdim(1, 4) == 1


def test_smallest_subdim_is_exact_beyond_float_range():
    big = 10**401 - 1
    q = smallest_subdim(big, 3)
    assert q**3 >= big > (q - 1) ** 3
    assert smallest_subdim(10**400, 10**9) == 2
    for d in range(1, 300):
        for n in range(1, 6):
            q = smallest_subdim(d, n)
            assert q**n >= d and (q == 1 or (q - 1) ** n < d), (d, n)


def test_validate_decides_coverage_without_building_the_power():
    """A huge order is checked in microseconds, and no forward runs at it.

    Building 2**(10**8) took 0.65 s and about 40 MB."""
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="2\\*\\*100000000 is more than 64 \\* embed_dim = 640"):
        LayerConfig(MethodKind.WORD2KET, 5, 10, order=10**8, subdim=2)
    with pytest.raises(ConfigError, match="covers only 1 < embed_dim 2"):
        LayerConfig(MethodKind.WORD2KET, 5, 2, order=10**12, subdim=1)
    with pytest.raises(ConfigError, match="covers only 8 < embed_dim 9"):
        LayerConfig(MethodKind.MORPHTE, 5, 9, order=3, subdim=2)
    assert time.perf_counter() - start < 0.1


def test_validate_bounds_the_product_length():
    """A forward allocates the whole product per word: at most 64 * embed_dim."""
    too_long = [
        (MethodKind.MORPHTE, dict(order=40, subdim=2, morpheme_vocab_size=3)),
        (MethodKind.WORD2KET_RSHARE, dict(order=40, subdim=2, morpheme_vocab_size=3)),
        (MethodKind.WORD2KET, dict(order=1, subdim=9 * 64 + 1)),
        (MethodKind.WORD2KETXS, dict(order=40, vocab_factors=(1,) * 39 + (5,),
                                     dim_factors=(2,) * 40)),
        (MethodKind.TENSOR_TRAIN, dict(order=2, vocab_factors=(5, 1), dim_factors=(9, 65))),
    ]
    start = time.perf_counter()
    for kind, fields in too_long:
        with pytest.raises(ConfigError, match="is more than 64 \\* embed_dim = 576"):
            LayerConfig(kind, 5, 9, **fields)
    assert time.perf_counter() - start < 0.1
    LayerConfig(MethodKind.WORD2KET, 5, 9, order=1, subdim=9 * 64)
    LayerConfig(MethodKind.WORD2KETXS, 5, 9, order=2, vocab_factors=(5, 1),
                dim_factors=(9, 64))


def test_chunks_hold_a_fixed_number_of_product_floats(monkeypatch):
    """Words per chunk are ``BATCH_FLOATS`` over the product length, and at least one."""
    for row in load_reference_rows():
        if row.group != "summary":  # every paper config: 512 floats, 512 words
            assert (row.config.product_length, row.config.chunk_words()) == (512, 512), row
    word2ket_64x = LayerConfig(MethodKind.WORD2KET, 1000, 512, order=3, subdim=32)
    assert (word2ket_64x.product_length, word2ket_64x.chunk_words()) == (32768, 8)
    xs = LayerConfig(MethodKind.WORD2KETXS, 20, 5, order=2, vocab_factors=(4, 5),
                     dim_factors=(2, 3))
    assert (xs.product_length, xs.chunk_words()) == (6, 512 * 512 // 6)
    monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 5)
    assert xs.chunk_words() == 1


def test_original_build_and_forward():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=10, embed_dim=4, seed=3))
    assert list(layer.params) == ["weight"]
    assert layer.params["weight"].shape == (10, 4)
    np.testing.assert_array_equal(forward(layer, 7), layer.params["weight"][7])
    # returned vector is a copy
    forward(layer, 7)[0] = 99.0
    assert layer.params["weight"][7, 0] != 99.0


def test_matrix_factor_forward():
    layer = build(LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=6, embed_dim=5, rank=2, seed=1))
    a, b = layer.params["factor_left"], layer.params["factor_right"]
    np.testing.assert_allclose(forward(layer, 4), a[4] @ b, rtol=1e-15)


def test_word2ket_block_shape_matches_count():
    cfg = LayerConfig(MethodKind.WORD2KET, vocab_size=10, embed_dim=8, order=3, rank=2, subdim=2)
    layer = build(cfg)
    assert layer.params["word_factors"].shape == (10, 2 * 3 * 2)
    assert layer.trainable_param_count() == 2 * 3 * 10 * 2


def test_morphte_block_shapes():
    vocab, index = two_word_morphology()
    cfg = LayerConfig(
        MethodKind.MORPHTE, vocab_size=2, embed_dim=512, order=3, rank=7, subdim=8
    )
    layer = build(cfg, vocab=vocab, index=index)
    assert len(layer.params) == 7
    for i in range(7):
        assert layer.params[f"morpheme_embed_{i}"].shape == (vocab.size, 8)


def test_morphte_rank_one_known_product():
    vocab = MorphemeVocab(["a", "b"])
    index = IndexMatrix(np.array([[0, 1]]), ["ab"])
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=1, embed_dim=4, order=2, rank=1, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    layer.params["morpheme_embed_0"][0] = [1.0, 2.0]
    layer.params["morpheme_embed_0"][1] = [3.0, 4.0]
    np.testing.assert_array_equal(forward(layer, 0), [3.0, 4.0, 6.0, 8.0])


def test_morphte_identical_rows_identical_outputs():
    vocab = MorphemeVocab(["x", "y"])
    index = IndexMatrix(np.array([[0, 1], [0, 1]]), ["w1", "w2"])
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=2, embed_dim=4, order=2, rank=3, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    np.testing.assert_array_equal(forward(layer, 0), forward(layer, 1))


def test_morphte_full_width_no_truncation():
    vocab, index = make_morphology(num_words=5, num_morphemes=9, order=3, seed=0)
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=5, embed_dim=512, order=3, rank=2, subdim=8)
    layer = build(cfg, vocab=vocab, index=index)
    out = forward(layer, 3)
    assert out.shape == (512,)
    # q**n == d: compare against the untruncated entangled sum
    ids = index.rows[3]
    full = np.zeros(512)
    for i in range(2):
        f = layer.params[f"morpheme_embed_{i}"]
        full += naive_kron_chain([f[m] for m in ids])
    np.testing.assert_allclose(out, full, rtol=1e-12)


def test_morphsum_zero_morphemes_gives_surface():
    vocab, index = two_word_morphology()
    cfg = LayerConfig(MethodKind.MORPHSUM, vocab_size=2, embed_dim=6, order=3)
    layer = build(cfg, vocab=vocab, index=index)
    layer.params["morpheme_embed"][:] = 0.0
    np.testing.assert_array_equal(forward(layer, 1), layer.params["surface_embed"][1])


def test_morphsum_adds_each_slot_vector():
    vocab, index = two_word_morphology()
    cfg = LayerConfig(MethodKind.MORPHSUM, vocab_size=2, embed_dim=4, order=3)
    layer = build(cfg, vocab=vocab, index=index)
    ids = index.rows[0]
    expected = layer.params["surface_embed"][0] + sum(
        layer.params["morpheme_embed"][m] for m in ids
    )
    np.testing.assert_allclose(forward(layer, 0), expected, rtol=1e-15)


def test_tensor_train_forward_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        vf = tuple(int(rng.integers(2, 4)) for _ in range(n))
        df = tuple(int(rng.integers(2, 4)) for _ in range(n))
        V = int(np.prod(vf))
        d_full = int(np.prod(df))
        d = int(rng.integers(1, d_full + 1))
        cfg = LayerConfig(
            MethodKind.TENSOR_TRAIN,
            vocab_size=V,
            embed_dim=d,
            order=n,
            rank=int(rng.integers(1, 4)),
            vocab_factors=vf,
            dim_factors=df,
            seed=trial,
        )
        layer = build(cfg)
        for word_id in rng.integers(0, V, size=3):
            np.testing.assert_allclose(
                forward(layer, int(word_id)), naive_tt_row(layer, int(word_id)), rtol=1e-12
            )


def test_word2ketxs_forward_matches_kron_oracle():
    cfg = LayerConfig(
        MethodKind.WORD2KETXS,
        vocab_size=11,
        embed_dim=10,
        order=2,
        rank=3,
        vocab_factors=(3, 4),
        dim_factors=(3, 4),
        seed=5,
    )
    layer = build(cfg)
    for word_id in range(11):
        digits = np.unravel_index(word_id, (3, 4))
        expected = np.zeros(12)
        for i in range(3):
            rows = [layer.params[f"xs_factor_{i}_{j}"][digits[j]] for j in range(2)]
            expected += naive_kron_chain(rows)
        np.testing.assert_allclose(forward(layer, word_id), expected[:10], rtol=1e-12)


def test_paper_shaped_layers_match_their_oracles():
    """forward_batch at the paper's rank and order agrees with an independent
    oracle at rtol 1e-12, with an absolute floor of 1e-12 of the row's scale."""
    for layer in paper_shaped_layers():
        oracle = naive_tt_row if layer.config.kind is MethodKind.TENSOR_TRAIN else kron_sum_row
        out = forward_batch(layer, np.arange(layer.config.vocab_size))
        for word_id, row in enumerate(out):
            want = oracle(layer, word_id)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                                       err_msg=f"{layer.config} word {word_id}")


@pytest.mark.parametrize("kind", [MethodKind.WORD2KET, MethodKind.MORPHTE])
def test_rank_one_rows_are_the_bytes_of_a_kron_chain(kind, monkeypatch):
    """At rank 1 a row is its factors' tensor product, with the bytes of
    ``np.kron`` folded left to right, built by broadcasting: a rank
    contraction of one term would be a slower outer product by matmul."""
    vocab, index = make_morphology(9, 7, 3, seed=1)
    cfg = LayerConfig(kind, vocab_size=9, embed_dim=50, order=3, rank=1, subdim=4, seed=6)
    layer = build(cfg, vocab=vocab, index=index)
    words = [3, 0, 8, 3, 5]
    if kind is MethodKind.WORD2KET:
        factors = [layer.params["word_factors"][w].reshape(3, 4) for w in words]
    else:
        factors = [layer.params["morpheme_embed_0"][index.rows[w]] for w in words]
    expected = [functools.reduce(np.kron, f)[:50].tobytes() for f in factors]

    def refuse(*_, **__):
        raise AssertionError("a rank-1 forward took a matmul")

    monkeypatch.setattr(np, "matmul", refuse)
    assert [row.tobytes() for row in forward_batch(layer, words)] == expected


@pytest.mark.parametrize("kind", [MethodKind.WORD2KET, MethodKind.MORPHTE,
                                  MethodKind.WORD2KET_RSHARE])
def test_order_one_rows_are_the_bytes_of_a_rank_sum(kind):
    """At order 1 a product is one vector, so a row is its rank's vectors
    added left to right, then truncated."""
    vocab, index = make_morphology(9, 7, 1, seed=1)
    M = vocab.size if kind is MethodKind.WORD2KET_RSHARE else None
    cfg = LayerConfig(kind, vocab_size=9, embed_dim=4, order=1, rank=3, subdim=5,
                      morpheme_vocab_size=M, seed=6)
    layer = build(cfg, vocab=vocab, index=index)
    words = [3, 0, 8, 3, 5]
    if kind is MethodKind.WORD2KET:
        vectors = [layer.params["word_factors"][w].reshape(3, 5) for w in words]
    else:
        vectors = [[layer.params[f"morpheme_embed_{i}"][index.rows[w, 0]] for i in range(3)]
                   for w in words]
    expected = [(v[0] + v[1] + v[2])[:4].tobytes() for v in vectors]
    assert [row.tobytes() for row in forward_batch(layer, words)] == expected


@pytest.mark.parametrize("kind", list(MethodKind))
def test_gather_batch_gives_each_block_its_rows(kind):
    """One ``(B, slots)`` row-id array per table, in table order, each inside every block
    of its table: the rows each block is read at."""
    layer = random_layer(kind, np.random.default_rng(stable_seed("gather", kind.value)))
    words = list(range(layer.config.vocab_size))
    rows = gather_batch(layer, words)
    assert len(rows) == len(layer.config.layout.tables) == len(layer.tables)
    for ids, table in zip(rows, layer.config.layout.tables):
        assert ids.ndim == 2 and len(ids) == len(words), table.name
        for b in layer.config.layout.blocks:
            if b.table == table.name:
                assert 0 <= ids.min() and ids.max() < b.shape[0], b.name


def test_config_integer_fields_take_numpy_integers_and_refuse_anything_else():
    cfg = LayerConfig(MethodKind.TENSOR_TRAIN, np.int64(12), np.int32(4), order=np.int64(2),
                      vocab_factors=np.array([3, 4]), dim_factors=(np.int8(2), 2))
    assert cfg == LayerConfig(MethodKind.TENSOR_TRAIN, 12, 4, order=2, vocab_factors=(3, 4),
                              dim_factors=(2, 2))
    assert all(type(v) is int for v in (cfg.vocab_size, cfg.order, *cfg.vocab_factors))
    good = dict(kind=MethodKind.WORD2KETXS, vocab_size=12, embed_dim=4)
    for field, value, shown in [("rank", 2.0, "2.0"), ("seed", True, "True"),
                                ("embed_dim", "4", "'4'"), ("dim_factors", (3.5, 2), "3.5")]:
        with pytest.raises(ConfigError, match=f"^{field} must be .*, got {shown}$"):
            LayerConfig(**{**good, field: value})


def test_word2ket_rank1_reconstruction_capacity():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(1, 5))
        d = int(rng.integers(1, q**n + 1))
        cfg = LayerConfig(
            MethodKind.WORD2KET, vocab_size=4, embed_dim=d, order=n, rank=1, subdim=q, seed=trial
        )
        layer = build(cfg)
        for j in range(4):
            row = layer.params["word_factors"][j].reshape(1, n, q)
            oracle = naive_kron_chain([row[0, k] for k in range(n)])[:d]
            np.testing.assert_allclose(forward(layer, j), oracle, rtol=1e-12, atol=1e-15)


def test_morphte_sharing_localised():
    # touching one morpheme's row changes exactly the words whose index rows
    # contain that morpheme
    vocab, index = make_morphology(num_words=12, num_morphemes=6, order=3, seed=2)
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=12, embed_dim=8, order=3, rank=2, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    target = 1  # some morpheme id
    before = [forward(layer, j) for j in range(12)]
    layer.params["morpheme_embed_0"][target] += 0.5
    after = [forward(layer, j) for j in range(12)]
    for j in range(12):
        contains = target in set(int(m) for m in index.rows[j])
        changed = not np.array_equal(before[j], after[j])
        assert changed == contains


def test_morphte_rank_one_scaling_homogeneity():
    vocab, index = make_morphology(num_words=6, num_morphemes=8, order=3, seed=4)
    # pick a word with three distinct morpheme ids
    word = next(
        j for j in range(6) if len(set(int(m) for m in index.rows[j])) == 3
    )
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=6, embed_dim=8, order=3, rank=1, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    base = forward(layer, word)
    alpha = 3.5
    m = int(index.rows[word][1])
    layer.params["morpheme_embed_0"][m] *= alpha
    np.testing.assert_allclose(forward(layer, word), alpha * base, rtol=1e-12)


def test_build_deterministic_given_seed():
    vocab, index = make_morphology(num_words=7, num_morphemes=5, order=3, seed=6)
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=7, embed_dim=8, order=3, rank=2, subdim=2, seed=99)
    l1 = build(cfg, vocab=vocab, index=index)
    l2 = build(cfg, vocab=vocab, index=index)
    for name in l1.params:
        assert l1.params[name].tobytes() == l2.params[name].tobytes()
    assert forward(l1, 3).tobytes() == forward(l2, 3).tobytes()


def test_xavier_bounds_respected():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=50, embed_dim=30, seed=0))
    bound = np.sqrt(6.0 / (50 + 30))
    w = layer.params["weight"]
    assert np.all(np.abs(w) <= bound)
    assert np.max(np.abs(w)) > 0.8 * bound  # actually fills the range


def test_forward_batch_trivials():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=5, embed_dim=3, seed=0))
    assert forward_batch(layer, []).shape == (0, 3)
    a, b = forward_batch(layer, [2, 2])
    np.testing.assert_array_equal(a, b)
    outs = forward_batch(layer, [0, 1, 2])
    perm = forward_batch(layer, [2, 0, 1])
    np.testing.assert_array_equal(outs[0], perm[1])
    np.testing.assert_array_equal(outs[2], perm[0])


@pytest.mark.parametrize("kind", list(MethodKind))
def test_forward_batch_checks_every_id_first(kind):
    layer = random_layer(kind, np.random.default_rng(stable_seed("batch-range", kind.value)))
    V = layer.config.vocab_size
    for bad in (V, -1, 10**30):
        for at in (0, 2, 4):
            ids = [0, 1, 0, 1, 0]
            ids[at] = bad
            with pytest.raises(WordLookupError, match=f"word id {bad} out of range"):
                forward_batch(layer, ids)
    # numpy would read True as word 1 and False as word 0
    for ids in (np.array([True, False]), [True], [0, 1, True], np.array([0, True], dtype=object)):
        with pytest.raises(WordLookupError, match="got a boolean"):
            forward_batch(layer, ids)


@pytest.mark.parametrize("kind", list(MethodKind))
def test_forward_batch_returns_a_fresh_array(kind):
    layer = random_layer(kind, np.random.default_rng(stable_seed("batch-fresh", kind.value)))
    before = {name: p.copy() for name, p in layer.params.items()}
    for ids in ([0], [1, 0, 1]):
        out = forward_batch(layer, ids)
        assert out.dtype == np.float64 and out.shape == (len(ids), layer.config.embed_dim)
        out[...] = 7.0
        forward(layer, 0)[...] = 7.0
    for name, p in layer.params.items():
        assert p.tobytes() == before[name].tobytes(), name
    assert forward_batch(layer, []).shape == (0, layer.config.embed_dim)


def test_forward_word_id_out_of_range():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=5, embed_dim=3, seed=0))
    with pytest.raises(WordLookupError):
        forward(layer, 5)
    with pytest.raises(WordLookupError):
        forward(layer, -1)


def test_config_errors():
    with pytest.raises(ConfigError):
        build(LayerConfig(MethodKind.WORD2KET, vocab_size=4, embed_dim=9, order=3, subdim=2))
    with pytest.raises(ConfigError):
        build(LayerConfig(MethodKind.MORPHTE, vocab_size=4, embed_dim=8, order=3, subdim=2))
    with pytest.raises(ConfigError):
        build(
            LayerConfig(
                MethodKind.TENSOR_TRAIN,
                vocab_size=100,
                embed_dim=8,
                order=2,
                vocab_factors=(5, 5),
                dim_factors=(4, 2),
            )
        )
    with pytest.raises(ConfigError):
        LayerConfig(
            MethodKind.WORD2KETXS,
            vocab_size=4,
            embed_dim=8,
            order=3,
            vocab_factors=(2, 2),
            dim_factors=(4, 2),
        )


def _factored(kind=MethodKind.TENSOR_TRAIN, **fields):
    return LayerConfig(kind, **{"vocab_size": 4, "embed_dim": 4, "order": 2,
                                "vocab_factors": (2, 2), "dim_factors": (2, 2), **fields})


def _rshare(**fields):
    return LayerConfig(MethodKind.WORD2KET_RSHARE,
                       **{"vocab_size": 3, "embed_dim": 8, "order": 3, "subdim": 2, **fields})


def _ket(**fields):
    return LayerConfig(MethodKind.WORD2KET, **{"vocab_size": 4, "embed_dim": 8, **fields})


@pytest.mark.parametrize("make, message", [
    ((_ket, dict(subdim=0)), "subdim must be >= 1, got 0"),
    ((_factored, dict(order=3)), "order 3 needs 3 vocab_factors and dim_factors, got 2 and 2"),
    ((_factored, dict(dim_factors=(4, 1, 1))),
     "order 2 needs 2 vocab_factors and dim_factors, got 2 and 3"),
    ((functools.partial(_factored, MethodKind.WORD2KETXS),
      dict(order=1, vocab_factors=(4,), dim_factors=(4,))), "word2ketxs needs order >= 2"),
    ((_factored, dict(vocab_factors=(0, 4))), "factor sizes must be positive"),
    ((_factored, dict(embed_dim=5)), "dim_factors (2, 2) cover only 4 < embed_dim 5"),
    ((_rshare, dict(morpheme_vocab_size=0)), "morpheme_vocab_size must be >= 1, got 0"),
    (lambda: build(_rshare()), "word2ket_rshare requires morpheme_vocab_size"),
    (lambda: build_rshare_index(3, 0, 3, seed=0),
     "vocab_size, morpheme_vocab_size and order must be positive"),
    (lambda: build(_rshare(morpheme_vocab_size=5),
                   index=IndexMatrix(np.zeros((3, 2)), ["a", "b", "c"])),
     "index has shape (3, 2), the config implies (3, 3)"),
    (lambda: forward_batch(build(_rshare(morpheme_vocab_size=5)), [[0, 1]]),
     "word ids must be a sequence, got shape (1, 2)"),
    ((_ket, dict(vocab_size=0)), "vocab_size must be >= 1, got 0"),
    ((_ket, dict(seed=-1)), "seed must be >= 0, got -1"),
    ((_ket, dict(order=3, subdim=1)), "subdim 1 with order 3 covers only 1 < embed_dim 8"),
    ((_ket, dict(order=4, subdim=5)), "5**4 is more than 64 * embed_dim = 512"),
    ((_factored, dict(vocab_factors=None)), "tensor_train requires vocab_factors and dim_factors"),
    ((_factored, dict(vocab_size=5)), "vocab_factors (2, 2) cover only 4 < vocab_size 5"),
    ((_factored, dict(dim_factors=(16, 17))),
     "prod(dim_factors) is more than 64 * embed_dim = 256"),
], ids=["subdim=0", "factor-counts", "dim-factor-count", "order=1", "zero-factor",
        "dim-factors-short", "morpheme-vocab=0", "build-without-morpheme-vocab",
        "rshare-index-empty", "index-shape", "word-ids-2d", "vocab_size=0", "seed=-1",
        "subdim-covers-short", "product-too-long", "no-factors", "vocab-factors-short",
        "dim-product-too-long"])
def test_a_config_or_input_the_layer_cannot_use_is_refused_by_message(make, message):
    """A config case ``(make, changes)`` is refused when ``make(**changes)`` makes it and when
    ``dataclasses.replace`` makes it from the valid ``make()``."""
    if isinstance(make, tuple):
        make, changes = make
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(make(), **changes)
        make = functools.partial(make, **changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("kind, parts, message", [
    (MethodKind.MORPHTE, lambda vocab, index: dict(
        vocab=vocab, index=IndexMatrix(index.rows + vocab.size, index.words)),
     "index references morpheme ids outside [0, 5)"),
    (MethodKind.MORPHTE, lambda vocab, index: dict(vocab=vocab),
     "morphte requires a morpheme vocab and an index"),
    (MethodKind.MORPHTE, lambda vocab, index: dict(index=index),
     "morphte requires a morpheme vocab and an index"),
    (MethodKind.ORIGINAL, lambda vocab, index: dict(index=index),
     "original requires no morpheme vocab and no index"),
], ids=["index-ids-beyond-M", "morphte-no-index", "morphte-no-vocab", "original-with-index"])
def test_a_layer_made_with_parts_at_odds_with_its_config_is_refused(kind, parts, message):
    """``EmbeddingLayer`` itself refuses what ``build`` would: no forward reads clipped
    rows, and none fails later on a missing index."""
    vocab, index = two_word_morphology()
    layer = build(LayerConfig(kind, 2, 8, order=3, subdim=2, morpheme_vocab_size=vocab.size),
                  vocab=vocab, index=index)
    with pytest.raises(ConfigError, match=re.escape(message)):
        EmbeddingLayer(layer.config, dict(layer.tables), **parts(vocab, index))


def test_build_refuses_parts_at_odds_with_its_config_before_it_draws_a_table(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew a table"))
    vocab, _ = two_word_morphology()
    with pytest.raises(ConfigError, match="morphte requires a morpheme vocab and an index"):
        build(LayerConfig(MethodKind.MORPHTE, 2, 8, order=3, subdim=2), vocab=vocab)


def test_rshare_index_deterministic_and_uniform():
    a = build_rshare_index(20, 7, 3, seed=5)
    b = build_rshare_index(20, 7, 3, seed=5)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert a.rows.shape == (20, 3)

    single = build_rshare_index(10, 1, 2, seed=0)
    assert np.all(single.rows == 0)

    # chi-square against uniform over 1e5 draws
    m = 8
    big = build_rshare_index(50000, m, 2, seed=123)
    counts = np.bincount(big.rows.ravel(), minlength=m)
    n_draws = big.rows.size
    expected = n_draws / m
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = m - 1
    assert chi2 < dof + 3 * np.sqrt(2 * dof), chi2


def test_rshare_builds_and_runs_without_explicit_index():
    cfg = LayerConfig(
        MethodKind.WORD2KET_RSHARE,
        vocab_size=9,
        embed_dim=8,
        order=3,
        rank=2,
        subdim=2,
        morpheme_vocab_size=5,
        seed=7,
    )
    layer = build(cfg)
    assert layer.index is not None
    assert layer.index.rows.shape == (9, 3)
    out = forward(layer, 4)
    ids = layer.index.rows[4]
    expected = np.zeros(8)
    for i in range(2):
        expected += naive_kron_chain([layer.params[f"morpheme_embed_{i}"][m] for m in ids])
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_block_shapes_tt_boundary_vs_middle():
    cfg = LayerConfig(
        MethodKind.TENSOR_TRAIN,
        vocab_size=18 * 20 * 25,
        embed_dim=512,
        order=3,
        rank=34,
        vocab_factors=(18, 20, 25),
        dim_factors=(8, 8, 8),
    )
    shapes = {b.name: b.shape for b in cfg.layout.blocks}
    assert shapes["tt_core_0"] == (18, 8 * 34)
    assert shapes["tt_core_1"] == (20, 34 * 8 * 34)
    assert shapes["tt_core_2"] == (25, 34 * 8)


# --- tables: what is computed on ----------------------------------------------

STACKED_KINDS = [MethodKind.WORD2KETXS, MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE]


def _is_view_of_its_table(layer) -> bool:
    """Every block is exactly its slab of its table: the same memory, shape and strides."""
    tables = layer.tables
    return all(layer.params[b.name].__array_interface__ == tables[b.table][b.slab].__array_interface__
               for b in layer.config.layout.blocks)


@pytest.mark.parametrize("kind", STACKED_KINDS)
def test_every_block_is_a_view_of_its_table(kind):
    """After build, after a checkpoint load and after a layer is made from copies of
    its tables in either form, the rank blocks are slabs of one ``(count, rows, cols)``
    table."""
    rng = np.random.default_rng(stable_seed("tables", kind.value))
    layer = random_layer(kind, rng)
    while layer.config.rank < 2:
        layer = random_layer(kind, rng)
    buf = io.BytesIO()
    dump_layer(layer, buf)
    copies = {name: p.copy() for name, p in layer.params.items()}
    made = [EmbeddingLayer(layer.config, {name: form(t) for name, t in layer.tables.items()},
                           index=layer.index, vocab=layer.vocab)
            for form in (np.copy, lambda t: t.reshape(-1, t.shape[-1]).copy())]
    for each in (layer, loads_layer(buf.getvalue()), *made):
        assert len(each.tables) < len(each.params)
        for table in each.config.layout.tables:
            assert each.tables[table.name].shape == table.shape
        assert _is_view_of_its_table(each)
        for name, p in each.params.items():
            assert p.tobytes() == copies[name].tobytes(), name
    for each in made:
        assert not any(np.shares_memory(each.tables[t], layer.tables[t]) for t in layer.tables)


@pytest.mark.parametrize("form", ["table", "rows"])
@pytest.mark.parametrize("kind", list(MethodKind))
def test_a_given_table_is_kept_uncopied_and_written_through(kind, form):
    """A table given as its ``(count, rows, cols)`` array is the layer's table; given as
    its ``(count * rows, cols)`` rows it is viewed at that shape.  Tables given in any
    order are kept in table order.  A write through a block reaches the given array and
    forward."""
    layer = random_layer(kind, np.random.default_rng(stable_seed("given", kind.value)))
    given = {name: t.copy() if form == "table" else t.reshape(-1, t.shape[-1]).copy()
             for name, t in reversed(layer.tables.items())}
    made = EmbeddingLayer(layer.config, given, index=layer.index, vocab=layer.vocab)
    assert list(made.tables) == list(layer.tables)
    for name, t in given.items():
        kept = made.tables[name]
        assert kept is t if form == "table" else np.shares_memory(kept, t), name
        assert kept.shape == layer.tables[name].shape
    word = layer.config.vocab_size - 1
    before = forward(made, word)
    block = made.config.layout.blocks[0]
    made.params[block.name][touched_rows(made, word)[block.name]] += 1.0
    assert not np.array_equal(forward(made, word), before)
    assert not np.array_equal(given[block.table].reshape(-1), layer.tables[block.table].reshape(-1))


@pytest.mark.parametrize(
    "make, tables, named",
    [
        (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
         lambda layer: {"wieght": layer.params["weight"]}, "wieght"),
        (lambda: build(LayerConfig(MethodKind.MATRIX_FACTOR, 5, 3, rank=2)),
         lambda layer: {"factor_left": layer.tables["factor_left"]}, "factor_right"),
        (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
         lambda layer: {**layer.tables, "bias": np.zeros((1, 3))}, "bias"),
        (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
         lambda layer: {"weight": layer.params["weight"].T.copy()}, "'weight'"),
        (lambda: build(LayerConfig(MethodKind.MORPHTE, 2, 8, order=3, rank=2, subdim=2),
                       *two_word_morphology()),
         lambda layer: {"morpheme_embed_*": np.asfortranarray(layer.tables["morpheme_embed_*"])},
         "'morpheme_embed_*' of 2 blocks is not C-contiguous"),
        (lambda: random_layer(MethodKind.WORD2KET_RSHARE, np.random.default_rng(0)),
         lambda layer: {name: t.astype(np.float32) for name, t in layer.tables.items()},
         "has dtype float32, not float64"),
        (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
         lambda layer: {"weight": layer.tables["weight"].astype(np.int64)},
         "'weight' has dtype int64, not float64"),
    ],
    ids=["misnamed", "missing", "extra", "transposed", "stacked-not-contiguous", "float32",
         "int64"],
)
def test_a_table_the_layer_cannot_compute_on_is_refused_by_name(make, tables, named):
    """Refused when the layer is made, naming the table, not later inside a ``take``."""
    layer = make()
    with pytest.raises(ValueError, match=re.escape(named)):
        EmbeddingLayer(layer.config, tables(layer), index=layer.index, vocab=layer.vocab)


@pytest.mark.parametrize("kind", STACKED_KINDS)
def test_writing_through_a_block_changes_forward(kind):
    layer = random_layer(kind, np.random.default_rng(stable_seed("write-through", kind.value)))
    word = 0
    before = forward(layer, word)
    for name, rows in touched_rows(layer, word).items():
        layer.params[name][rows] *= 2.0
    after = forward(layer, word)
    assert not np.array_equal(before, after)
    # every product is multilinear in its factors: doubling all n of them scales it 2**n
    factors = layer.config.order
    np.testing.assert_allclose(after, before * 2.0**factors, rtol=1e-12)


@pytest.mark.parametrize("kind", STACKED_KINDS)
def test_rebinding_a_block_raises(kind):
    layer = random_layer(kind, np.random.default_rng(stable_seed("rebind", kind.value)))
    name = next(iter(layer.params))
    table = next(iter(layer.tables))
    with pytest.raises(TypeError):
        layer.params[name] = np.zeros_like(layer.params[name])
    with pytest.raises(TypeError):
        layer.tables[table] = np.zeros_like(layer.tables[table])
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.params = {}
    assert _is_view_of_its_table(layer)


class _CountingTable(np.ndarray):
    """A table that counts the ``take`` calls made on it."""

    takes = 0

    def take(self, *args, **kwargs):
        type(self).takes += 1
        return super().take(*args, **kwargs)


def test_word2ketxs_reads_one_table_per_factor_per_chunk(monkeypatch):
    """Three chunks of a rank-104, order-2 layer make 3 * 2 ``take`` calls, not 3 * 208."""
    layer = build(LayerConfig(MethodKind.WORD2KETXS, 30, 512, order=2, rank=104,
                              vocab_factors=(6, 5), dim_factors=(16, 32), seed=1))
    tables = {}
    for name, t in layer.tables.items():
        tables[name] = _CountingTable(t.shape)
        tables[name][...] = t
    counted = EmbeddingLayer(layer.config, tables)
    assert all(counted.tables[name] is t for name, t in tables.items())
    words = np.arange(24)
    monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 8 * layer.config.product_length)
    _CountingTable.takes = 0
    out = forward_batch(counted, words)
    assert _CountingTable.takes == 3 * layer.config.order
    assert out.tobytes() == forward_batch(layer, words).tobytes()
