import tracemalloc

import numpy as np
import pytest

from conftest import ALL_KINDS, random_layer, repeated_morpheme_morphology, stable_seed
from tenbed.errors import WordLookupError
from tenbed.gradients import backward, backward_batch, finite_diff_check, touched_rows
from tenbed.layers import LayerConfig, MethodKind, build, forward, forward_batch
from tenbed.morphology import IndexMatrix, MorphemeVocab


def slot_map(layer, word_id, upstream):
    return {s.param_name: s.grad for s in backward(layer, word_id, upstream)}


def test_original_grad_is_upstream_row():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=6, embed_dim=4, seed=0))
    u = np.arange(1.0, 5.0)
    g = slot_map(layer, 3, u)["weight"]
    np.testing.assert_array_equal(g[3], u)
    g[3] = 0.0
    assert np.all(g == 0.0)


def test_matrix_factor_grads_closed_form():
    layer = build(LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=5, embed_dim=4, rank=3, seed=1))
    u = np.random.default_rng(0).standard_normal(4)
    g = slot_map(layer, 2, u)
    a = layer.params["factor_left"][2]
    b = layer.params["factor_right"]
    np.testing.assert_allclose(g["factor_left"][2], b @ u, rtol=1e-14)
    np.testing.assert_allclose(g["factor_right"], np.outer(a, u), rtol=1e-14)


def test_morphte_order2_closed_form():
    # with vectors a, b and upstream reshaped to a 2x2 grid U:
    # grad_a = U b, grad_b = U^T a
    vocab = MorphemeVocab(["a", "b"])
    index = IndexMatrix(np.array([[0, 1]]), ["ab"])
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=1, embed_dim=4, order=2, rank=1, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    a = layer.params["morpheme_embed_0"][0].copy()
    b = layer.params["morpheme_embed_0"][1].copy()
    u = np.array([0.5, -1.0, 2.0, 0.25])
    U = u.reshape(2, 2)
    g = slot_map(layer, 0, u)["morpheme_embed_0"]
    np.testing.assert_allclose(g[0], U @ b, rtol=1e-14)
    np.testing.assert_allclose(g[1], U.T @ a, rtol=1e-14)


def test_repeated_morpheme_accumulates_both_positions():
    vocab = MorphemeVocab(["m"])
    index = IndexMatrix(np.array([[0, 0]]), ["mm"])
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=1, embed_dim=4, order=2, rank=1, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    v = layer.params["morpheme_embed_0"][0].copy()
    u = np.array([1.0, 2.0, -0.5, 3.0])
    U = u.reshape(2, 2)
    g = slot_map(layer, 0, u)["morpheme_embed_0"]
    np.testing.assert_allclose(g[0], U @ v + U.T @ v, rtol=1e-14)
    # and the finite-difference oracle agrees (quadratic in the shared row)
    report = finite_diff_check(layer, 0, epsilon=1e-5, tolerance=1e-5, seed=3)
    assert report.passed and report.max_rel_error < 1e-6


def test_untouched_rows_are_exactly_zero():
    rng = np.random.default_rng(17)
    for kind in ALL_KINDS:
        layer = random_layer(kind, rng)
        word_id = int(rng.integers(0, layer.config.vocab_size))
        u = rng.standard_normal(layer.config.embed_dim)
        touched = touched_rows(layer, word_id)
        for slot in backward(layer, word_id, u):
            rows = set(touched.get(slot.param_name, []))
            for row in range(slot.grad.shape[0]):
                if row not in rows:
                    assert np.all(slot.grad[row] == 0.0), (kind, slot.param_name, row)


def test_backward_linear_in_upstream():
    rng = np.random.default_rng(23)
    for kind in ALL_KINDS:
        layer = random_layer(kind, rng)
        word_id = int(rng.integers(0, layer.config.vocab_size))
        u1 = rng.standard_normal(layer.config.embed_dim)
        u2 = rng.standard_normal(layer.config.embed_dim)
        g_sum = slot_map(layer, word_id, u1 + u2)
        g1 = slot_map(layer, word_id, u1)
        g2 = slot_map(layer, word_id, u2)
        for name in g_sum:
            np.testing.assert_allclose(
                g_sum[name], g1[name] + g2[name], rtol=1e-12, atol=1e-12
            )


def test_original_finite_diff_exact():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=5, embed_dim=6, seed=2))
    report = finite_diff_check(layer, 1, epsilon=1e-5, tolerance=1e-5, seed=0)
    assert report.passed
    assert report.max_rel_error < 1e-12  # linear map: exact up to a couple ulps


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_finite_diff_every_kind(kind):
    rng = np.random.default_rng(stable_seed("fd", kind.value))
    for trial in range(5):
        layer = random_layer(kind, rng)
        word_id = int(rng.integers(0, layer.config.vocab_size))
        report = finite_diff_check(layer, word_id, epsilon=1e-5, tolerance=1e-5, seed=trial)
        assert report.passed, (kind, report.failures[:3], report.max_rel_error)
        assert report.max_rel_error < 1e-6


def test_finite_diff_morphte_spec_dims():
    vocab, index = repeated_morpheme_morphology(10, 6, 3, seed=5)
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=10, embed_dim=27, order=3, rank=2, subdim=3)
    layer = build(cfg, vocab=vocab, index=index)
    for word_id in range(10):
        report = finite_diff_check(layer, word_id, epsilon=1e-5, tolerance=1e-5, seed=word_id)
        assert report.passed
        assert report.max_rel_error < 1e-6


def test_finite_diff_tensor_train_spec_dims():
    cfg = LayerConfig(
        MethodKind.TENSOR_TRAIN,
        vocab_size=24,
        embed_dim=24,
        order=3,
        rank=2,
        vocab_factors=(2, 3, 4),
        dim_factors=(2, 3, 4),
        seed=9,
    )
    layer = build(cfg)
    for word_id in (0, 7, 23):
        report = finite_diff_check(layer, word_id, epsilon=1e-5, tolerance=1e-5, seed=word_id)
        assert report.passed
        assert report.max_rel_error < 1e-6


def test_truncated_outputs_have_correct_adjoint():
    # q**n > d exercises the zero-padding path
    cfg = LayerConfig(MethodKind.WORD2KET, vocab_size=4, embed_dim=5, order=3, rank=2, subdim=2)
    layer = build(cfg)
    report = finite_diff_check(layer, 2, epsilon=1e-5, tolerance=1e-5, seed=1)
    assert report.passed and report.max_rel_error < 1e-6
    # gradient w.r.t. coordinates past d must not leak: perturbing upstream
    # never sees them, so compare against a forward that zero-pads
    u = np.random.default_rng(2).standard_normal(5)
    g = slot_map(layer, 2, u)
    assert all(np.isfinite(x).all() for x in g.values())


def test_backward_rejects_bad_upstream():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=3, embed_dim=4, seed=0))
    with pytest.raises(ValueError):
        backward(layer, 0, np.zeros(3))


def test_finite_diff_detects_corrupted_gradient(monkeypatch):
    import tenbed.gradients as gradients

    layer = build(LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=5, embed_dim=4, rank=2, seed=3))
    real_backward = gradients.backward

    def corrupted(layer, word_id, upstream):
        slots = real_backward(layer, word_id, upstream)
        for s in slots:
            s.grad *= 1.05
        return slots

    monkeypatch.setattr(gradients, "backward", corrupted)
    report = gradients.finite_diff_check(layer, 1, epsilon=1e-5, tolerance=1e-5, seed=0)
    assert not report.passed


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_forward_reads_only_touched_rows(kind):
    """Rewriting every row outside touched_rows leaves forward byte-identical."""
    rng = np.random.default_rng(stable_seed("touched", kind.value))
    for _ in range(4):
        layer = random_layer(kind, rng)
        for word_id in range(layer.config.vocab_size):
            before = forward(layer, word_id).tobytes()
            saved = {name: p.copy() for name, p in layer.params.items()}
            touched = touched_rows(layer, word_id)
            assert list(touched) == list(layer.params)
            for name, rows in touched.items():
                untouched = np.setdiff1d(np.arange(len(saved[name])), rows)
                layer.params[name][untouched] = rng.standard_normal(
                    (len(untouched), saved[name].shape[1])
                )
            assert forward(layer, word_id).tobytes() == before, (kind, word_id)
            for name, p in saved.items():
                layer.params[name][...] = p


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_out_of_range_word_ids_raise(kind):
    layer = random_layer(kind, np.random.default_rng(stable_seed("range", kind.value)))
    V = layer.config.vocab_size
    for word_id in (-1, V):
        with pytest.raises(WordLookupError):
            touched_rows(layer, word_id)
        with pytest.raises(WordLookupError):
            backward(layer, word_id, np.ones(layer.config.embed_dim))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_backward_into_a_batch_buffer_equals_summed_dense_backwards(kind):
    """Adding words one at a time into one buffer gives the bytes of summing
    dense per-word slots.

    A row a word reads in several slots must reach the buffer as one sum,
    ``total + (0 + g1 + g2)``, not slot by slot.
    """
    rng = np.random.default_rng(stable_seed("backward-into", kind.value))
    repeating = 0
    for _ in range(4):
        layer = random_layer(kind, rng)
        V, d = layer.config.vocab_size, layer.config.embed_dim
        if layer.index is not None:
            repeating += sum(len(set(r)) < len(r) for r in layer.index.rows.tolist())
        words = rng.integers(0, V, size=2 * V)  # every batch revisits words
        upstreams = rng.standard_normal((len(words), d))
        dense = {name: np.zeros_like(p) for name, p in layer.params.items()}
        into = {name: np.zeros_like(p) for name, p in layer.params.items()}
        for word_id, u in zip(words.tolist(), upstreams):
            for slot in backward(layer, word_id, u):
                dense[slot.param_name] += slot.grad
            backward_batch(layer, [word_id], u[None], into)
        for name in layer.params:
            assert dense[name].tobytes() == into[name].tobytes(), (kind, name)
    if kind.value in ("morphte", "morphsum", "word2ket_rshare"):
        assert repeating > 0, "no word repeats a row; the case is not covered"


def _length_one_factor_layers():
    """Layers whose product has an axis of length 1: a dim factor of 1, or q=1."""
    return [
        build(LayerConfig(MethodKind.WORD2KETXS, 20, 6, order=3, rank=2,
                          vocab_factors=(3, 2, 4), dim_factors=(2, 1, 3), seed=1)),
        build(LayerConfig(MethodKind.WORD2KETXS, 12, 3, order=2, rank=3,
                          vocab_factors=(4, 3), dim_factors=(3, 1), seed=2)),
        build(LayerConfig(MethodKind.TENSOR_TRAIN, 20, 6, order=3, rank=2,
                          vocab_factors=(2, 3, 4), dim_factors=(1, 2, 3), seed=3)),
        build(LayerConfig(MethodKind.WORD2KET, 9, 1, order=2, rank=2, subdim=1, seed=4)),
    ]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_backward_batch_equals_word_by_word_backward(kind):
    """One batched backward adds the bytes of each word's backward in batch order."""
    rng = np.random.default_rng(stable_seed("backward-batch", kind.value))
    layers = [random_layer(kind, rng) for _ in range(4)]
    layers += [layer for layer in _length_one_factor_layers() if layer.config.kind is kind]
    for layer in layers:
        V, d = layer.config.vocab_size, layer.config.embed_dim
        words = rng.integers(0, V, size=3 * V)
        upstreams = rng.standard_normal((len(words), d))
        batched = {name: np.zeros_like(p) for name, p in layer.params.items()}
        backward_batch(layer, words, upstreams, batched)
        word_by_word = {name: np.zeros_like(p) for name, p in layer.params.items()}
        for word_id, u in zip(words.tolist(), upstreams):
            backward_batch(layer, [word_id], u[None], word_by_word)
        for name in layer.params:
            assert batched[name].tobytes() == word_by_word[name].tobytes(), (layer.config, name)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chunked_batches_give_the_bytes_of_one_chunk(kind, monkeypatch):
    """forward_batch and backward_batch in chunks of 3 words give the bytes of one pass."""
    rng = np.random.default_rng(stable_seed("chunks", kind.value))
    layers = [random_layer(kind, rng) for _ in range(2)]
    layers += [layer for layer in _length_one_factor_layers() if layer.config.kind is kind]
    for layer in layers:
        words = rng.integers(0, layer.config.vocab_size, size=10)
        words[9] = words[0]  # a repeat in another chunk
        upstreams = rng.standard_normal((10, layer.config.embed_dim))

        def run():
            grads = {name: np.zeros_like(p) for name, p in layer.params.items()}
            backward_batch(layer, words, upstreams, grads)
            return forward_batch(layer, words).tobytes(), [g.tobytes() for g in grads.values()]

        whole = run()
        monkeypatch.setattr("tenbed.layers.BATCH_WORDS", 3)
        assert run() == whole, layer.config
        monkeypatch.undo()


def test_chunks_bound_the_memory_of_a_long_batch(monkeypatch):
    """With 64-word chunks, 4x the words of a 64x-product layer stay under 1.5x the peak."""
    monkeypatch.setattr("tenbed.layers.BATCH_WORDS", 64)
    layer = build(LayerConfig(MethodKind.WORD2KET, 500, 512, order=3, subdim=32, seed=0))
    rng = np.random.default_rng(stable_seed("chunk-memory"))
    grads = {name: np.zeros_like(p) for name, p in layer.params.items()}
    peaks = {}
    for size in (500, 2000):
        words = rng.integers(0, 500, size=size)
        upstreams = rng.standard_normal((size, 512))
        tracemalloc.start()
        try:
            forward_batch(layer, words)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            backward_batch(layer, words, upstreams, grads)
            peaks[size] = forward_peak, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for short, long in zip(peaks[500], peaks[2000]):
        assert long < 1.5 * short, peaks


def test_backward_batch_rejects_a_mismatched_upstream():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=5, embed_dim=3, seed=0))
    grads = {"weight": np.zeros((5, 3))}
    with pytest.raises(ValueError, match="upstream must have shape"):
        backward_batch(layer, [0, 1], np.ones((3, 3)), grads)
    backward_batch(layer, [], np.ones((0, 3)), grads)
    assert not grads["weight"].any()
