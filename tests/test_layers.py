import itertools
import time

import numpy as np
import pytest

from conftest import random_layer, stable_seed
from tenbed.errors import ConfigError, WordLookupError
from tenbed.layers import (
    LayerConfig,
    MethodKind,
    block_shapes,
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
        LayerConfig(MethodKind.WORD2KET, 5, 10, order=10**8, subdim=2).validate()
    with pytest.raises(ConfigError, match="covers only 1 < embed_dim 2"):
        LayerConfig(MethodKind.WORD2KET, 5, 2, order=10**12, subdim=1).validate()
    with pytest.raises(ConfigError, match="covers only 8 < embed_dim 9"):
        LayerConfig(MethodKind.MORPHTE, 5, 9, order=3, subdim=2).validate()
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
            LayerConfig(kind, 5, 9, **fields).validate()
    assert time.perf_counter() - start < 0.1
    LayerConfig(MethodKind.WORD2KET, 5, 9, order=1, subdim=9 * 64).validate()
    LayerConfig(MethodKind.WORD2KETXS, 5, 9, order=2, vocab_factors=(5, 1),
                dim_factors=(9, 64)).validate()


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
        ).validate()


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
    shapes = dict(block_shapes(cfg))
    assert shapes["tt_core_0"] == (18, 8 * 34)
    assert shapes["tt_core_1"] == (20, 34 * 8 * 34)
    assert shapes["tt_core_2"] == (25, 34 * 8)
