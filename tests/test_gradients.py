import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ALL_KINDS,
    paper_shaped_layers,
    random_layer,
    repeated_morpheme_morphology,
    stable_seed,
)
from tenbed.audit import load_reference_rows
from tenbed.errors import ConfigError, WordLookupError
import tenbed.layers
from tenbed.gradients import (
    _add_grads,
    _add_rows,
    backward,
    backward_batch,
    finite_diff_check,
    table_rows,
    touched_rows,
)
from tenbed.layers import (EmbeddingLayer, LayerConfig, MethodKind, _combine, build, forward,
                           forward_batch, gather_batch)
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


def test_finite_diff_paper_shaped_layers():
    for layer in paper_shaped_layers():  # word2ketxs alone perturbs 4,992 entries
        report = finite_diff_check(layer, layer.config.vocab_size - 1, seed=1)
        assert report.passed, (layer.config, report.failures[:3], report.max_rel_error)
        assert report.max_rel_error < 1e-6


@pytest.mark.parametrize("name", ["epsilon", "tolerance"])
@pytest.mark.parametrize("value", [0.0, -1e-5, float("nan"), float("inf")])
def test_finite_diff_rejects_a_step_or_tolerance_that_checks_nothing(name, value):
    """A NaN tolerance would pass every entry (``rel > nan`` is False), a
    negative one fail every entry."""
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=5, embed_dim=6, seed=2))
    with pytest.raises(ConfigError, match=f"{name} must be finite and > 0"):
        finite_diff_check(layer, 1, **{name: value})


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
        into = {name: np.zeros_like(t) for name, t in layer.tables.items()}
        for word_id, u in zip(words.tolist(), upstreams):
            for slot in backward(layer, word_id, u):
                dense[slot.param_name] += slot.grad
            backward_batch(layer, [word_id], u[None], into)
        into = layer.block_views(into)
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


# backward_batch adds a batch's sum into these tables by one matmul, so their
# bytes differ from word-by-word adds by rounding; every other table's hold
SUMMED_RTOL = 1e-12  # of the table's largest magnitude


def _summed_tables(layer):
    """matrix_factor's right factor and tensor_train's middle cores."""
    names = list(layer.tables)
    return {MethodKind.MATRIX_FACTOR: names[1:], MethodKind.TENSOR_TRAIN: names[1:-1]}.get(
        layer.config.kind, [])


def assert_same_grads(layer, got, expected):
    """Bytes for every table but the summed ones, which match to ``SUMMED_RTOL``."""
    summed = _summed_tables(layer)
    for name in layer.tables:
        if name in summed:
            atol = SUMMED_RTOL * np.abs(expected[name]).max()
            np.testing.assert_allclose(got[name], expected[name], rtol=0, atol=atol,
                                       err_msg=f"{layer.config} {name}")
        else:
            assert got[name].tobytes() == expected[name].tobytes(), (layer.config, name)


def _word_by_word(layer, words, upstreams):
    grads = {name: np.zeros_like(t) for name, t in layer.tables.items()}
    for word_id, u in zip(np.asarray(words).tolist(), upstreams):
        backward_batch(layer, [word_id], u[None], grads)
    return grads


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_backward_batch_equals_word_by_word_backward(kind):
    """One batched backward adds the bytes of each word's backward in batch order,
    but for the summed tables, and one batched forward gives the bytes of each
    word's forward."""
    rng = np.random.default_rng(stable_seed("backward-batch", kind.value))
    layers = [random_layer(kind, rng) for _ in range(4)]
    layers += [layer for layer in _length_one_factor_layers() + paper_shaped_layers()
               if layer.config.kind is kind]
    for layer in layers:
        V, d = layer.config.vocab_size, layer.config.embed_dim
        words = rng.integers(0, V, size=3 * V)
        upstreams = rng.standard_normal((len(words), d))
        batched = {name: np.zeros_like(t) for name, t in layer.tables.items()}
        backward_batch(layer, words, upstreams, batched)
        rows = forward_batch(layer, words)
        for word_id, row in zip(words.tolist(), rows):
            assert row.tobytes() == forward(layer, word_id).tobytes(), (layer.config, word_id)
        assert_same_grads(layer, batched, _word_by_word(layer, words, upstreams))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chunked_batches_give_the_bytes_of_one_chunk(kind, monkeypatch):
    """forward_batch and backward_batch in chunks of 3 words give the bytes of one
    pass, but for the summed tables."""
    rng = np.random.default_rng(stable_seed("chunks", kind.value))
    layers = [random_layer(kind, rng) for _ in range(2)]
    layers += [layer for layer in _length_one_factor_layers() if layer.config.kind is kind]
    for layer in layers:
        words = rng.integers(0, layer.config.vocab_size, size=10)
        words[9] = words[0]  # a repeat in another chunk
        upstreams = rng.standard_normal((10, layer.config.embed_dim))

        def run():
            grads = {name: np.zeros_like(t) for name, t in layer.tables.items()}
            backward_batch(layer, words, upstreams, grads)
            return forward_batch(layer, words).tobytes(), grads

        whole = run()
        monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 3 * layer.config.product_length)
        assert layer.config.chunk_words() == 3
        chunked = run()
        assert chunked[0] == whole[0], layer.config
        assert_same_grads(layer, chunked[1], whole[1])
        monkeypatch.undo()


def test_chunks_split_the_rows_a_batch_sums(monkeypatch):
    """A chunk boundary inside a middle-core digit's words, and a matrix_factor
    batch of more than one chunk, still add the word-by-word sum."""
    tt = build(LayerConfig(MethodKind.TENSOR_TRAIN, 24, 24, order=3, rank=2,
                           vocab_factors=(2, 3, 4), dim_factors=(2, 3, 4), seed=5))
    mf = build(LayerConfig(MethodKind.MATRIX_FACTOR, 20, 6, rank=3, seed=5))
    rng = np.random.default_rng(stable_seed("split-sums"))
    for layer, words in ((tt, np.array([0, 4, 1, 5, 12, 8, 13])), (mf, rng.integers(0, 20, 10))):
        monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 3 * layer.config.product_length)
        assert layer.config.chunk_words() == 3 < len(words)
        if layer is tt:  # middle digit 0 (words 0, 1, 12, 13) spans all three chunks
            digits = np.unravel_index(words, (2, 3, 4))[1]
            assert {i // 3 for i in np.flatnonzero(digits == 0)} == {0, 1, 2}
        upstreams = rng.standard_normal((len(words), layer.config.embed_dim))
        grads = {name: np.zeros_like(t) for name, t in layer.tables.items()}
        backward_batch(layer, words, upstreams, grads)
        assert_same_grads(layer, grads, _word_by_word(layer, words, upstreams))
        monkeypatch.undo()


def test_chunks_bound_the_memory_of_a_long_batch(monkeypatch):
    """With 64-word chunks, 4x the words of a 64x-product layer stay under 1.5x the peak."""
    monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 64 * 32**3)
    layer = build(LayerConfig(MethodKind.WORD2KET, 500, 512, order=3, subdim=32, seed=0))
    assert layer.config.chunk_words() == 64
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


def _en_it_config(kind):
    """The en_it row of the bundled reference table at the base or 20x level."""
    return next(row.config for row in load_reference_rows() if row.config.kind is kind
                and row.dataset == "en_it" and row.level in ("base", "20x"))


@pytest.mark.parametrize("kind", [MethodKind.MATRIX_FACTOR, MethodKind.TENSOR_TRAIN])
def test_summed_tables_allocate_no_per_word_gradients(kind):
    """One 64-word backward_batch at the en_it config allocates less than the
    per-word slot gradients of its summed table would take: matrix_factor's
    (64, 25, 512) right-factor gradients (6.6 MB) and tensor_train's (64, 27,848)
    middle-core ones (14 MB), each with an element index as large beside them."""
    layer = build(_en_it_config(kind))
    rng = np.random.default_rng(stable_seed("summed-memory", kind.value))
    words = rng.zipf(1.2, 64) % layer.config.vocab_size
    upstreams = rng.standard_normal((64, layer.config.embed_dim))
    grads = {name: np.zeros_like(t) for name, t in layer.tables.items()}
    summed = layer.tables[_summed_tables(layer)[0]][0]
    # the bytes of each word's slot gradients in it: every row, or one
    per_word = 64 * 8 * (summed.size if kind is MethodKind.MATRIX_FACTOR else summed.shape[1])
    bound = 1_000_000 if kind is MethodKind.MATRIX_FACTOR else summed.nbytes
    assert bound < per_word
    tracemalloc.start()
    try:
        backward_batch(layer, words, upstreams, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("V, d, r", [(37, 9, 3), (500, 64, 1)])
def test_matrix_factor_is_a_two_core_tensor_train(V, d, r):
    """A matrix_factor layer's tables, copied into a tensor_train of vocab factors
    (V, 1) and dim factors (1, d) with the right factor as core 1's one (1, 1, r * d)
    row, embed byte for byte alike and get the same gradients: the bytes in the
    left factor / core 0, within ``SUMMED_RTOL`` in the right factor / core 1,
    which matrix_factor sums over the batch by one matmul.  In a one-word batch
    the whole right factor and one word's core-1 row have one shape, so the path
    a chain takes follows its table's read, not the batch."""
    mf = build(LayerConfig(MethodKind.MATRIX_FACTOR, V, d, rank=r, seed=7))
    left, right = mf.tables.values()
    tt = EmbeddingLayer(LayerConfig(MethodKind.TENSOR_TRAIN, V, d, order=2, rank=r,
                                    vocab_factors=(V, 1), dim_factors=(1, d)),
                        {"tt_core_0": left, "tt_core_1": right.reshape(1, 1, r * d)})
    rng = np.random.default_rng(stable_seed("mf-as-tt", V, d, r))
    for B in (1, 7, 64, 600):
        words = rng.integers(0, V, size=B)
        assert forward_batch(mf, words).tobytes() == forward_batch(tt, words).tobytes(), B
        U = rng.standard_normal((B, d))
        got = {name: np.zeros_like(t) for name, t in mf.tables.items()}
        expected = {name: np.zeros_like(t) for name, t in tt.tables.items()}
        backward_batch(mf, words, U, got)
        backward_batch(tt, words, U, expected)
        assert got["factor_left"].tobytes() == expected["tt_core_0"].tobytes(), B
        want = expected["tt_core_1"].reshape(right.shape)
        np.testing.assert_allclose(got["factor_right"], want, rtol=0,
                                   atol=SUMMED_RTOL * np.abs(want).max(), err_msg=str(B))


def test_backward_batch_rejects_a_mismatched_upstream():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=5, embed_dim=3, seed=0))
    grads = {"weight": np.zeros((5, 3))}
    with pytest.raises(ValueError, match="upstream must have shape"):
        backward_batch(layer, [0, 1], np.ones((3, 3)), grads)
    backward_batch(layer, [], np.ones((0, 3)), grads)
    assert not grads["weight"].any()


def _zeros(layer):
    return {name: np.zeros(t.shape) for name, t in layer.tables.items()}


@pytest.mark.parametrize("make, change, named", [
    (lambda: build(LayerConfig(MethodKind.MATRIX_FACTOR, 6, 5, rank=2)),
     lambda into: into.pop("factor_right"), "'factor_right'"),
    (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
     lambda into: into.update(bias=np.zeros((5, 3))), "'bias'"),
    (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
     lambda into: into.update(wieght=into.pop("weight")), "'wieght'"),
    (lambda: build(LayerConfig(MethodKind.MATRIX_FACTOR, 6, 5, rank=2)),
     lambda into: into.update(factor_right=np.zeros((1, 5, 2))), "'factor_right'"),
    (lambda: build(LayerConfig(MethodKind.TENSOR_TRAIN, 24, 24, order=3, rank=2,
                               vocab_factors=(2, 3, 4), dim_factors=(2, 3, 4))),
     lambda into: into.update(tt_core_1=np.zeros((1, 2 * 3 * 2, 3))), "'tt_core_1'"),
    (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
     lambda into: into.update(weight=np.zeros((3, 5))), "'weight'"),
    (lambda: build(LayerConfig(MethodKind.WORD2KETXS, 12, 6, order=2, rank=3,
                               vocab_factors=(3, 4), dim_factors=(2, 3))),
     lambda into: into.update({"xs_factor_*_1": into["xs_factor_*_1"].astype(np.float32)}),
     "'xs_factor_*_1'"),
    (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
     lambda into: into.update(weight=np.zeros((5, 6))[:, ::2]), "'weight'"),
    (lambda: build(LayerConfig(MethodKind.ORIGINAL, 5, 3)),
     lambda into: into.update(weight=np.asfortranarray(np.zeros((5, 3)))), "'weight'"),
], ids=["missing", "extra", "misnamed", "matrix-factor-right-transposed",
        "tt-middle-core-transposed", "original-transposed", "float32", "strided", "fortran"])
def test_backward_batch_refuses_a_gradient_it_cannot_add_into_by_name(make, change, named):
    """``into`` holds exactly the layer's tables, each a C-contiguous float64
    array of the table's shape or rows; anything else is refused naming the
    table, before any gradient is written."""
    layer = make()
    into = _zeros(layer)
    change(into)
    before = {name: g.copy() for name, g in into.items()}
    U = np.ones((3, layer.config.embed_dim))
    with pytest.raises(ValueError, match=re.escape(named)):
        backward_batch(layer, [0, 1, 2], U, into)
    assert into.keys() == before.keys()
    for name, g in into.items():
        assert g.tobytes() == before[name].tobytes(), name
    backward_batch(layer, [0, 1, 2], U, _zeros(layer))  # the layer itself is fine


def _add_rows_reference(target, rows, grads):
    """Word by word with 2-D ``np.add.at``: a word that reads a row twice adds
    its slot gradients summed from zero in slot order, any other word adds
    them as they are."""
    for word_rows, word_grads in zip(rows, grads):
        if len(set(word_rows.tolist())) == len(word_rows):
            np.add.at(target, word_rows, word_grads)
            continue
        sums = {}
        for row, g in zip(word_rows.tolist(), word_grads):
            sums[row] = sums.get(row, 0.0) + g
        np.add.at(target, list(sums), np.array(list(sums.values())))


def test_flat_index_scatter_gives_the_bytes_of_a_2d_add_at():
    rng = np.random.default_rng(stable_seed("flat-scatter"))
    cases = {
        # 12 words of 3 slots over 5 rows: repeats within and across words
        "repeats": (rng.integers(0, 5, size=(12, 3)), (5, 7)),
        # matrix_factor's right factor: every word reads every row once
        "right_factor": (np.broadcast_to(np.arange(4), (12, 4)), (4, 9)),
        "one_slot": (rng.integers(0, 6, size=(12, 1)), (6, 3)),
    }
    for name, (rows, shape) in cases.items():
        grads = rng.standard_normal(rows.shape + shape[1:])
        start = rng.standard_normal(shape)
        reference = start.copy()
        _add_rows_reference(reference, rows, grads)
        flat = start.copy()
        # a table of one block, scattered to the rows it reads
        _add_rows(flat, rows[:, None], grads[None])
        assert flat.tobytes() == reference.tobytes(), name


def test_backward_batch_returns_the_rows_it_wrote():
    vocab, index = repeated_morpheme_morphology(12, 5, 3, seed=1)
    layer = build(LayerConfig(MethodKind.MORPHSUM, 12, 4, order=3), vocab=vocab, index=index)
    grads = {name: np.zeros_like(p) for name, p in layer.params.items()}
    words = [0, 3, 3, 7]
    written = backward_batch(layer, words, np.ones((4, 4)), grads)
    assert [ids.tolist() for ids in written] == [[[0], [3], [3], [7]], index.rows[words].tolist()]
    for (name, g), ids in zip(grads.items(), written):
        unwritten = np.ones(len(g), dtype=bool)
        unwritten[ids] = False
        assert not g[unwritten].any(), name


def test_backward_batch_adds_by_name_whatever_the_key_order_of_into():
    """An ``into`` built in sorted or reversed key order gets the bytes of one in table order."""
    layer = build(LayerConfig(MethodKind.WORD2KETXS, 12, 6, order=2, rank=11,
                              vocab_factors=(3, 4), dim_factors=(2, 3)))
    U = np.random.default_rng(5).standard_normal((3, 6))
    expected = {name: np.zeros_like(t) for name, t in layer.tables.items()}
    backward_batch(layer, [0, 5, 7], U, expected)
    for names in (sorted(layer.tables), list(reversed(layer.tables))):
        into = {name: np.zeros_like(layer.tables[name]) for name in names}
        backward_batch(layer, [0, 5, 7], U, into)
        for name in layer.tables:
            assert into[name].tobytes() == expected[name].tobytes(), (names[0], name)


def _repeating_layers(kind, rng):
    """Random layers of ``kind``; for a morphological kind also one whose word 0
    reads one morpheme in every slot."""
    layers = [random_layer(kind, rng) for _ in range(3)]
    if kind in (MethodKind.MORPHTE, MethodKind.MORPHSUM):
        vocab, index = repeated_morpheme_morphology(12, 5, 3, seed=2)
        layers.append(build(LayerConfig(kind, 12, 7, order=3, rank=2, subdim=2, seed=3),
                            vocab=vocab, index=index))
    elif kind is MethodKind.WORD2KET_RSHARE:
        rows = np.random.default_rng(4).integers(0, 5, size=(12, 3))
        rows[0] = 2
        layers.append(build(LayerConfig(kind, 12, 7, order=3, rank=2, subdim=2,
                                        morpheme_vocab_size=5, seed=3),
                            index=IndexMatrix(rows, [f"w{j}" for j in range(12)])))
    return layers


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_record_fed_adjoint_gives_the_bytes_of_backward_batch(kind, monkeypatch):
    """The trainer's adjoint, ``_add_grads`` fed each chunk's rows and the reads its
    ``_combine`` returned, for every word or for words taken by position, leaves
    ``into`` as ``backward_batch`` on each chunk's taken words leaves it, byte for
    byte, summed tables included: in a batch of one chunk and of several, and
    for a word that reads one morpheme in several slots.  Against one
    ``backward_batch`` on every taken word of a batch of several chunks it
    differs in the summed tables only, by rounding.  The chunks' embeddings are
    ``forward_batch``'s bytes, and the adjoint reads no table again: it makes
    no ``_chain``, ``_read_factors`` or ``_khatri_rao`` call."""
    calls = {}
    for name in ("_chain", "_read_factors", "_khatri_rao"):
        def counted(*args, _name=name, _fn=getattr(tenbed.layers, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(tenbed.layers, name, counted)
    rng = np.random.default_rng(stable_seed("record-fed", kind.value))
    repeats = chunked = 0
    for layer in _repeating_layers(kind, rng):
        cfg = layer.config
        words = rng.integers(0, cfg.vocab_size, size=2 * cfg.vocab_size + 10)
        words[1] = 0
        if layer.index is not None:
            repeats += len(set(layer.index.rows[0].tolist())) < cfg.order
        for chunk_words in (None, 3):
            with monkeypatch.context() as patch:
                if chunk_words:
                    patch.setattr("tenbed.layers.BATCH_FLOATS", 3 * cfg.product_length)
                    assert cfg.chunk_words() == 3
                step = cfg.chunk_words()
                chunked += step < len(words)
                rows = gather_batch(layer, words)
                for half in (False, True):
                    fed, expected, whole = ({name: np.zeros_like(t) for name, t in
                                             layer.tables.items()} for _ in range(3))
                    ys, taken_words, taken_U = [], [], []
                    for lo in range(0, len(words), step):
                        chunk = [ids[lo : lo + step] for ids in rows]
                        y, reads = _combine(layer, chunk)
                        ys.append(y)
                        at = np.arange(len(y))
                        if half:
                            at = np.sort(rng.choice(at, (len(at) + 1) // 2, replace=False))
                            chunk, reads = [ids[at] for ids in chunk], [a[at] for a in reads]
                        U = rng.standard_normal((len(at), cfg.embed_dim))
                        before = dict(calls)
                        _add_grads(layer, chunk, reads, U, fed, table_rows(layer, chunk))
                        assert calls == before, (cfg, calls, before)
                        backward_batch(layer, words[lo : lo + step][at], U, expected)
                        taken_words.append(words[lo : lo + step][at])
                        taken_U.append(U)
                    assert np.concatenate(ys).tobytes() == forward_batch(layer, words).tobytes()
                    for name in layer.tables:
                        assert fed[name].tobytes() == expected[name].tobytes(), (cfg, name, half)
                    backward_batch(layer, np.concatenate(taken_words), np.concatenate(taken_U),
                                   whole)
                    assert_same_grads(layer, fed, whole)
    assert chunked >= 3
    if kind.value in ("morphte", "morphsum", "word2ket_rshare"):
        assert repeats >= 1
    if kind not in (MethodKind.ORIGINAL, MethodKind.MORPHSUM):
        assert calls, "the forward read nothing through the counted functions"
