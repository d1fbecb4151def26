import copy
import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from conftest import ALL_KINDS, random_layer, repeated_morpheme_morphology, stable_seed
from tenbed.errors import ConfigError, WordLookupError
import tenbed.layers
import tenbed.training
from tenbed.gradients import backward_batch
from tenbed.layers import EmbeddingLayer, LayerConfig, MethodKind, build, forward, forward_batch
from tenbed.synthetic import make_morphology, make_sharing_pairs, make_sharing_task
from tenbed.training import (
    ADAM_BETAS,
    ADAM_EPS,
    SLICE_FLOATS,
    OptimizerState,
    TrainTask,
    _cosines,
    _pair_batch,
    eval_similarity,
    pair_array,
    train,
)


def test_reconstructing_own_table_gives_zero_loss():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=12, embed_dim=6, seed=1))
    task = TrainTask("reconstruct_table", targets=layer.params["weight"].copy())
    history = train(layer, task, OptimizerState(kind="sgd", lr=1e-3), epochs=3, seed=0)
    assert len(history) == 3
    assert history[0] == 0.0 and history[-1] == 0.0


def test_history_deterministic_given_seed():
    def run():
        layer = build(
            LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=20, embed_dim=8, rank=3, seed=5)
        )
        targets = np.random.default_rng(7).standard_normal((20, 8))
        task = TrainTask("reconstruct_table", targets=targets)
        return train(layer, task, OptimizerState(lr=1e-2), epochs=5, batch_size=4, seed=11)

    assert run() == run()


def test_single_sgd_step_decreases_example_loss():
    rng = np.random.default_rng(31)
    checked = 0
    for kind in ALL_KINDS:
        for _ in range(3):
            layer = random_layer(kind, rng)
            V, d = layer.config.vocab_size, layer.config.embed_dim
            targets = rng.standard_normal((V, d))
            task = TrainTask("reconstruct_table", targets=targets)
            word = int(rng.integers(0, V))

            def example_loss():
                diff = forward(layer, word) - targets[word]
                return float(diff @ diff) / d

            before = example_loss()
            from tenbed.gradients import backward

            diff = forward(layer, word) - targets[word]
            slots = backward(layer, word, (2.0 / d) * diff)
            OptimizerState(kind="sgd", lr=1e-4).apply(
                layer.params, {s.param_name: s.grad for s in slots}
            )
            after = example_loss()
            assert after <= before, (kind, before, after)
            checked += 1
    assert checked >= 20


def test_adam_matches_hand_computed_scalar_trace():
    # one scalar parameter, constant gradient 1.0, three steps
    lr, b1, b2, eps = 0.1, 0.9, 0.98, 1e-8
    theta = 0.5
    m = v = 0.0
    expected = []
    for t in range(1, 4):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        expected.append(theta)

    params = {"w": np.array([[0.5]])}
    opt = OptimizerState(kind="adam", lr=lr)
    observed = []
    for _ in range(3):
        opt.apply(params, {"w": np.array([[1.0]])})
        observed.append(float(params["w"][0, 0]))
    np.testing.assert_allclose(observed, expected, rtol=1e-15)


def _whole_array_step(opt, params, grads, scale, moments):
    """The optimizer step as whole-array formulas: the reference for ``apply``.
    Adam is Kingma & Ba's reordered step, the scale folded into the moment
    constants and the bias corrections into the step size and eps."""
    b1, b2 = ADAM_BETAS
    for name, g in grads.items():
        if opt.kind == "sgd":
            params[name] -= opt.lr * (g * scale)
            continue
        t = opt.step_count
        alpha = opt.lr * math.sqrt(1 - b2**t) / (1 - b1**t)
        eps_hat = ADAM_EPS * math.sqrt(1 - b2**t)
        m, v = moments.setdefault(name, (np.zeros_like(g), np.zeros_like(g)))
        m *= b1
        m += ((1 - b1) * scale) * g
        v *= b2
        v += ((1 - b2) * scale * scale) * g * g
        params[name] -= alpha * m / (np.sqrt(v) + eps_hat)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_sliced_step_is_byte_identical_to_whole_array_formulas(kind):
    rng = np.random.default_rng(stable_seed("sliced-step", kind))
    # more than one slice with a ragged last one; a row wider than a slice;
    # a block within one slice
    shapes = {
        "tall": (3 * SLICE_FLOATS // 7 + 5, 7),
        "wide": (3, SLICE_FLOATS + 11),
        "small": (4, 3),
    }
    for name, (rows, cols) in shapes.items():
        assert (rows * cols > SLICE_FLOATS) == (name != "small")
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    reference = {name: p.copy() for name, p in params.items()}
    opt = OptimizerState(kind=kind, lr=0.03)
    moments = {}
    for _ in range(4):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        for g in grads.values():
            g[rng.random(len(g)) < 0.5] = 0.0  # rows no word read
        opt.apply(params, grads, scale=1.0 / 3)
        _whole_array_step(opt, reference, grads, 1.0 / 3, moments)
        for name in shapes:
            assert params[name].tobytes() == reference[name].tobytes(), name
            if kind == "adam":
                for held, whole in zip(opt.table_moments(), moments[name]):
                    assert held[name].tobytes() == whole.tobytes(), name


def test_reordered_adam_step_is_the_textbook_step():
    """Over 50 steps from step 1, each step is ``lr * m_hat / (sqrt(v_hat) + eps)``
    of textbook moments to 1e-12: ``eps_hat`` keeps the reordered step exact."""
    rng = np.random.default_rng(stable_seed("reordered-adam"))
    b1, b2 = ADAM_BETAS
    opt, scale = OptimizerState(kind="adam", lr=0.03), 1.0 / 3
    m = v = np.zeros((6, 5))
    for t in range(1, 51):
        g = rng.standard_normal((6, 5)) * np.array([[1.0], [1e-3], [1e-6], [1e-8], [1e-9], [0]])
        params = {"w": np.zeros((6, 5))}  # the step is then exactly -p
        opt.apply(params, {"w": g}, scale=scale)
        m = b1 * m + (1 - b1) * (scale * g)
        v = b2 * v + (1 - b2) * (scale * g) ** 2
        m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
        np.testing.assert_allclose(-params["w"], opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS),
                                   rtol=1e-12, atol=0, err_msg=f"step {t}")
    assert opt.step_count == 50


def test_training_never_mutates_index_or_vocab():
    vocab, index = make_morphology(15, 6, 3, seed=3)
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=15, embed_dim=8, order=3, rank=2, subdim=2)
    layer = build(cfg, vocab=vocab, index=index)
    rows_before = index.rows.copy()
    tokens_before = vocab.tokens
    targets = np.random.default_rng(0).standard_normal((15, 8))
    train(
        layer,
        TrainTask("reconstruct_table", targets=targets),
        OptimizerState(lr=1e-2),
        epochs=3,
        seed=0,
    )
    np.testing.assert_array_equal(index.rows, rows_before)
    assert vocab.tokens == tokens_before


def test_morphte_reconstruction_converges():
    vocab, index = make_morphology(60, 12, 3, seed=4)
    cfg = LayerConfig(
        MethodKind.MORPHTE, vocab_size=60, embed_dim=16, order=3, rank=3, subdim=3, seed=1
    )
    donor = build(
        LayerConfig(
            MethodKind.MORPHTE, vocab_size=60, embed_dim=16, order=3, rank=3, subdim=3, seed=99
        ),
        vocab=vocab,
        index=index,
    )
    targets = np.stack([forward(donor, j) for j in range(60)])
    layer = build(cfg, vocab=vocab, index=index)
    history = train(
        layer,
        TrainTask("reconstruct_table", targets=targets),
        OptimizerState(lr=0.02),
        epochs=60,
        batch_size=16,
        seed=2,
    )
    assert history[-1] < 0.1 * history[0], (history[0], history[-1])


def test_eval_similarity_identical_pairs():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=8, embed_dim=5, seed=2))
    pairs = [(j, j, 1) for j in range(8)]
    assert eval_similarity(layer, pairs) == 1.0


def test_eval_similarity_random_labels_near_chance():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=200, embed_dim=16, seed=3))
    rng = np.random.default_rng(13)
    pairs = [
        (int(a), int(b), int(label))
        for a, b, label in zip(
            rng.integers(0, 200, 1000), rng.integers(0, 200, 1000), rng.integers(0, 2, 1000)
        )
    ]
    acc = eval_similarity(layer, pairs)
    assert 0.4 <= acc <= 0.6


def test_sharing_task_pairs_are_balanced_and_disjoint():
    vocab, index, morph_sets = make_sharing_task(80, 20, 3, seed=5)
    train_pairs, eval_pairs = make_sharing_pairs(morph_sets, 100, 40, seed=6)
    assert len(train_pairs) == 100 and len(eval_pairs) == 40
    assert sum(label for _, _, label in train_pairs) == 50
    train_keys = {(min(a, b), max(a, b)) for a, b, _ in train_pairs}
    eval_keys = {(min(a, b), max(a, b)) for a, b, _ in eval_pairs}
    assert not (train_keys & eval_keys)
    for a, b, label in train_pairs + eval_pairs:
        assert label == int(bool(morph_sets[a] & morph_sets[b]))


def test_sharing_pairs_beyond_what_the_words_allow_raise():
    from tenbed.errors import ConfigError, WordLookupError

    _, _, morph_sets = make_sharing_task(5, 8, 3, seed=3)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="5 words cannot supply"):
        make_sharing_pairs(morph_sets, 1000, 400, seed=4)
    assert time.perf_counter() - start < 1.0


def test_nan_loss_aborts():
    from tenbed.errors import TrainingDivergedError

    layer = build(LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=10, embed_dim=4, rank=2, seed=0))
    targets = np.random.default_rng(1).standard_normal((10, 4))
    # absurd learning rate makes the quadratic blow up
    with pytest.raises(TrainingDivergedError):
        train(
            layer,
            TrainTask("reconstruct_table", targets=targets),
            OptimizerState(kind="sgd", lr=1e12),
            epochs=50,
            seed=0,
        )


def test_task_validation_errors():
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=4, embed_dim=3, seed=0))
    with pytest.raises(ValueError):
        train(layer, TrainTask("reconstruct_table"), OptimizerState(), epochs=1)
    with pytest.raises(ValueError):
        train(
            layer,
            TrainTask("word_similarity", pairs=[(0, 1, 2)]),
            OptimizerState(),
            epochs=1,
        )
    with pytest.raises(ValueError):
        train(
            layer,
            TrainTask("reconstruct_table", targets=np.zeros((4, 3))),
            OptimizerState(),
            epochs=0,
        )


def _tiny_original():
    return build(LayerConfig(MethodKind.ORIGINAL, vocab_size=4, embed_dim=3, seed=0))


@pytest.mark.parametrize("run, error, message", [
    (lambda layer: TrainTask("classify"), ConfigError, "unknown task kind 'classify'"),
    (lambda layer: train(layer, TrainTask("reconstruct_table", targets=np.zeros((3, 3))),
                         OptimizerState(), epochs=1), ConfigError,
     "target table shape (3, 3) != (4, 3)"),
    (lambda layer: train(layer, TrainTask("word_similarity"), OptimizerState(), epochs=1),
     ConfigError, "word_similarity needs labelled pairs"),
    (lambda layer: train(layer, TrainTask("word_similarity", pairs=[]), OptimizerState(),
                         epochs=1), ConfigError, "word_similarity needs labelled pairs"),
    (lambda layer: train(layer, TrainTask("reconstruct_table", targets=np.zeros((4, 3))),
                         OptimizerState(), epochs=1, batch_size=0), ConfigError,
     "batch_size must be >= 1, got 0"),
    (lambda layer: eval_similarity(layer, []), ConfigError, "need at least one pair"),
    # seed 0 visits the bad pair last, so a check made per batch would step three times first
    (lambda layer: train(layer, TrainTask("word_similarity",
                                          pairs=[(0, 1, 1), (2, 3, 1), (1, 2, 1), (3, 99, 1)]),
                         OptimizerState("sgd", 0.5), epochs=1, batch_size=1, seed=0),
     WordLookupError, "pair (3, 99, 1) has a word id out of range [0, 4)"),
    (lambda layer: TrainTask("reconstruct_table", targets=[[0.0] * 3] * 4), ConfigError,
     "targets must be a 2-D array of real numbers, got list"),
    (lambda layer: TrainTask("reconstruct_table", targets=np.zeros((4, 3), complex)),
     ConfigError, "targets must be a 2-D array of real numbers, got a 2-D complex128 array"),
    (lambda layer: TrainTask("reconstruct_table", targets=np.zeros(12)), ConfigError,
     "targets must be a 2-D array of real numbers, got a 1-D float64 array"),
], ids=["task-kind", "target-shape", "no-pairs", "empty-pairs", "batch_size=0", "eval-no-pairs",
        "pair-word-id", "targets-list", "targets-complex", "targets-1d"])
def test_a_task_or_call_that_cannot_train_is_refused_by_message(run, error, message):
    """Refused before any step: every table is byte-identical afterwards."""
    layer = _tiny_original()
    before = {name: t.tobytes() for name, t in layer.tables.items()}
    with pytest.raises(error, match=re.escape(message)):
        run(layer)
    assert {name: t.tobytes() for name, t in layer.tables.items()} == before


def test_an_epoch_whose_finite_batch_losses_overflow_their_sum_diverges():
    """Each batch's loss is finite, so every batch steps; their sum is not, and
    the epoch is refused, naming no batch."""
    from tenbed.errors import TrainingDivergedError

    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=2, embed_dim=1, seed=0))
    targets = np.full((2, 1), 1.2e154)  # a loss of about 1.44e308 per word
    with pytest.raises(TrainingDivergedError) as err:
        train(layer, TrainTask("reconstruct_table", targets=targets),
              OptimizerState(kind="sgd", lr=1e-3), epochs=1, batch_size=1)
    assert (err.value.epoch, err.value.batch, err.value.loss) == (0, None, math.inf)
    assert np.isfinite(layer.params["weight"]).all()


def test_optimizer_state_is_given_only_its_kind_and_rate():
    """Steps, moments, buffers and row maps are state the steps keep, never given."""
    with pytest.raises(TypeError):
        OptimizerState(moments_m={})
    with pytest.raises(TypeError):
        OptimizerState("adam", 0.01, 3)
    opt = OptimizerState("sgd", 0.5)
    assert (opt.kind, opt.lr, opt.step_count) == ("sgd", 0.5, 0)
    assert opt.moments_m == opt.moments_v == opt.grads == opt.live == opt.slots == {}
    assert OptimizerState().moments_m is not OptimizerState().moments_m


@pytest.mark.parametrize("make, message", [
    (lambda: make_sharing_task(5, 2, 3, seed=0), "need at least one morpheme per slot"),
    (lambda: make_sharing_task(10, 3, 3, seed=0),
     "morpheme pools too small for the requested word count"),
    # every word shares morpheme "m": a positive pair is there, a negative one is not
    (lambda: make_sharing_pairs([{"m"}, {"m", "a"}, {"m", "b"}], 2, 0, seed=0),
     "3 words cannot supply 2 train and 0 eval pairs"),
], ids=["pools<order", "pools-too-small", "no-negative-pair"])
def test_a_sharing_task_the_morphemes_cannot_make_is_refused(make, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        make()


def test_task_loss_defaults_to_the_kind_s_own_loss():
    assert TrainTask("reconstruct_table").loss == "mse"
    assert TrainTask("word_similarity", loss="cosine_contrastive").loss == "cosine_contrastive"
    assert TrainTask("word_similarity").loss == "cosine_contrastive"


@pytest.mark.parametrize("kind, loss", [("reconstruct_table", "cosine_contrastive"),
                                        ("word_similarity", "mse"),
                                        ("reconstruct_table", "l1")])
def test_task_rejects_a_loss_it_does_not_train_with(kind, loss):
    with pytest.raises(ConfigError, match="trains with"):
        TrainTask(kind, loss=loss)


def test_divergence_raises_before_the_batch_is_applied():
    from tenbed.errors import TrainingDivergedError

    layer = build(LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=40, embed_dim=8, rank=2, seed=0))
    targets = np.random.default_rng(0).standard_normal((40, 8))
    with pytest.raises(TrainingDivergedError, match="non-finite loss"):
        train(
            layer,
            TrainTask("reconstruct_table", targets=targets),
            OptimizerState(kind="sgd", lr=1e12),
            epochs=3,
            batch_size=4,
            seed=0,
        )
    assert all(np.all(np.isfinite(p)) for p in layer.params.values())


def test_divergence_names_the_epoch_and_batch():
    from tenbed.errors import TrainingDivergedError

    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=12, embed_dim=3, seed=0))
    targets = np.zeros((12, 3))
    targets[np.random.default_rng(0).permutation(12)[5]] = np.nan  # the 6th example
    with pytest.raises(TrainingDivergedError) as err:
        train(layer, TrainTask("reconstruct_table", targets=targets), OptimizerState(),
              epochs=1, batch_size=2, seed=0)
    assert (err.value.epoch, err.value.batch) == (0, 2)
    assert str(err.value) == "non-finite loss nan at epoch 0, batch 2; aborting"


def test_a_batch_without_gradients_steps_nothing():
    """Zero embeddings give every pair its loss and no upstream."""
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=4, embed_dim=3, seed=0))
    layer.params["weight"][...] = 0.0
    task = TrainTask("word_similarity", pairs=[(0, 1, 0), (1, 2, 1), (2, 3, 1)])
    history = train(layer, task, OptimizerState(), epochs=2, batch_size=2, seed=0)
    assert history == [2 / 3, 2 / 3]
    assert not layer.params["weight"].any()


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_live_row_step_is_byte_identical_to_the_dense_step(kind):
    """A step on the buffers ``take_rows`` gives, each written row's gradient in
    its buffer row, has the bytes of a dense step over 6 steps, rows live in an
    earlier step but not written in this one and ``-0.0`` parameters included,
    and Adam's moments, read table-shaped, are a dense Adam's."""
    rng = np.random.default_rng(stable_seed("live-rows", kind))
    # gathered chunks of several slices; a gathered row wider than a slice; a
    # block within one slice, stepped whole; a block whose live rows pass half
    # in step 4 (counting from 0), after step 0 makes room for 3 rows and step 1
    # adds 100; step 5 writes every live row of it, which SGD steps whole
    shapes = {
        "tall": (3 * SLICE_FLOATS // 7 + 5, 7),
        "wide": (20, SLICE_FLOATS + 11),
        "small": (40, 3),
        "crossing": (700, 64),
    }
    order = rng.permutation(700)
    new_rows = np.cumsum([0, 3, 100, 0, 50, 250, 10])  # live: 3, 103, 103, 153, 403, 413
    assert 2 * new_rows[4] < 700 <= 2 * new_rows[5]
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    for p in params.values():
        p[::5] = -0.0
    dense = {name: p.copy() for name, p in params.items()}
    opt, dense_opt = OptimizerState(kind=kind, lr=0.03), OptimizerState(kind=kind, lr=0.03)
    for step in range(6):
        rows = {name: rng.integers(0, shape[0], size=size) for (name, shape), size in
                zip(shapes.items(), [(4, 3), (2,), (3, 2)])}  # repeats within and across words
        fresh = order[new_rows[step] : new_rows[step + 1]]
        again = order[: 2 * step if step < 5 else new_rows[step]]
        rows["crossing"] = np.concatenate([fresh, fresh[:2], again])
        grads = {name: np.zeros(shape) for name, shape in shapes.items()}
        for name, ids in rows.items():
            grads[name][ids] = rng.standard_normal(ids.shape + shapes[name][1:])
        buffers, to = opt.take_rows(params, rows)
        for name, ids in rows.items():
            buffers[name][to[name]] = grads[name][ids]
        opt.apply(params, buffers, scale=1.0 / 3)
        for name, ids in to.items():
            buffers[name][ids] = 0.0
        dense_opt.apply(dense, grads, scale=1.0 / 3)
        for name in shapes:
            assert params[name].tobytes() == dense[name].tobytes(), (step, name)
        for held, whole in zip(opt.table_moments(), dense_opt.table_moments()):
            assert held.keys() == whole.keys()
            for name in held:
                assert held[name].tobytes() == whole[name].tobytes(), (step, name)
        gathered = {"tall", "wide"} | ({"crossing"} if step < (4 if kind == "adam" else 5) else set())
        assert opt.live.keys() == gathered, step
        for name in shapes:  # a gathered block's buffer has a row per slot, another is table-shaped
            rows_held = len(opt.moments_m[name] if kind == "adam" else opt.live[name]) \
                if name in gathered else shapes[name][0]
            assert opt.grads[name].shape == (rows_held, shapes[name][1]), (step, name)
        if kind == "adam":  # compact until half the crossing block's rows are live
            assert opt.slots.keys() == gathered
            if step in (0, 1):  # step 1's 100 new rows overflow a capacity of 3
                assert len(opt.moments_m["crossing"]) == new_rows[step + 1]
        else:  # SGD gathers this step's distinct rows
            assert all(opt.live[name].tolist() == np.unique(rows[name]).tolist()
                       for name in gathered)
    assert not dense_opt.slots and not dense_opt.live
    if kind == "sgd":  # SGD keeps no row-to-slot map and no moments
        assert not opt.slots and not opt.moments_m


def _few_pairs_layers():
    """An original table of more than one slice, and a small seeded layer per kind."""
    rng = np.random.default_rng(stable_seed("few-pairs"))
    table = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=3000, embed_dim=16, seed=2))
    return [table] + [random_layer(kind, rng) for kind in ALL_KINDS]


def test_a_row_no_batch_reads_keeps_its_bytes_and_zero_moments():
    from tenbed.layers import gather_batch

    unread_rows = 0
    for layer in _few_pairs_layers():
        start = {name: p.copy() for name, p in layer.params.items()}
        opt = OptimizerState(lr=0.05)
        train(layer, TrainTask("word_similarity", pairs=[(0, 1, 1), (1, 0, 0)]), opt,
              epochs=3, batch_size=1)
        rows = dict(zip(layer.tables, gather_batch(layer, [0, 1])))
        moments_m, moments_v = map(layer.block_views, opt.table_moments())
        for block in layer.config.layout.blocks:
            name, p, ids = block.name, layer.params[block.name], rows[block.table]
            unread = np.ones(len(p), dtype=bool)
            unread[ids] = False
            unread_rows += unread.sum()
            assert p[~unread].tobytes() != start[name][~unread].tobytes(), (layer.config, name)
            assert p[unread].tobytes() == start[name][unread].tobytes(), (layer.config, name)
            assert not moments_m[name][unread].any(), (layer.config, name)
            assert not moments_v[name][unread].any(), (layer.config, name)
    assert unread_rows > 2998  # the table's rows beyond the two words, and more


def test_train_keeps_one_zero_gradient_buffer_across_calls():
    """Every buffer is zero between calls; an Adam block held compact has a buffer
    of exactly its moments' rows, and a block stepped whole one table-shaped
    buffer, the same array from call to call."""
    compact = 0
    for layer in _few_pairs_layers():
        opt = OptimizerState(lr=0.05)
        V = layer.config.vocab_size
        whole = {}
        for call in range(3):
            pairs = [(call % V, (call + 1) % V, 1), ((call + 2) % V, call % V, 0)]
            train(layer, TrainTask("word_similarity", pairs=pairs), opt, epochs=2,
                  batch_size=1, seed=call)
            assert list(opt.grads) == list(layer.tables)
            assert not any(g.any() for g in opt.grads.values()), layer.config
            for name, g in opt.grads.items():
                if name in opt.slots:
                    assert g.shape == opt.moments_m[name].shape, (layer.config, name)
                    compact += 1
                    continue
                table = layer.tables[name]
                assert g.shape == (table.shape[0] * table.shape[1], table.shape[2])
                assert whole.setdefault(name, g) is g, (layer.config, name)
    assert compact == 3  # the 3000-row table, at every call


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_few_pairs_keep_a_gradient_buffer_of_under_one_percent_of_the_table(kind):
    """The buffer scales with the rows written, not with the table: 20 words of a
    20,000 x 64 table (10.2 MB)."""
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=20_000, embed_dim=64, seed=3))
    opt = OptimizerState(kind=kind, lr=0.05)
    pairs = [(997 * j % 20_000, (997 * j + 1) % 20_000, j % 2) for j in range(10)]
    train(layer, TrainTask("word_similarity", pairs=pairs), opt, epochs=3, batch_size=4)
    held = sum(g.nbytes for g in opt.grads.values())
    assert 0 < held < 0.01 * layer.tables["weight"].nbytes, held


def test_optimizer_rejects_a_block_of_another_shape():
    params = {"a": np.zeros((4, 3)), "w": np.zeros((10, 3))}
    opt = OptimizerState()
    opt.apply(params, {name: np.ones(p.shape) for name, p in params.items()})
    stepped = {name: p.copy() for name, p in params.items()}
    for shape in ((6, 3), (10, 4)):  # fewer rows, other columns
        other = {"a": params["a"], "w": np.zeros(shape)}
        with pytest.raises(ConfigError, match="block 'w' has shape .* moments"):
            opt.apply(other, {name: np.ones(p.shape) for name, p in other.items()})
    assert all(params[name].tobytes() == p.tobytes() for name, p in stepped.items())
    assert opt.step_count == 1  # a rejected step steps no block
    with pytest.raises(ConfigError, match="block 'w' has shape \\(10, 3\\), its gradient"):
        opt.apply(params, {"w": np.ones((6, 3))})
    sgd = OptimizerState(kind="sgd")
    sgd.take_rows({"w": np.zeros((10, 3))}, {"w": np.array([1, 2])})
    with pytest.raises(ConfigError, match="block 'w' has shape .* gradient buffer"):
        sgd.take_rows({"w": np.zeros((6, 3))}, {"w": np.array([1])})
    tall = (SLICE_FLOATS, 2)  # more than one slice, one row live: compact moments
    adam = OptimizerState()
    grads, _ = adam.take_rows({"t": np.zeros(tall)}, {"t": np.array([0])})
    adam.apply({"t": np.zeros(tall)}, grads)
    assert adam.moments_m["t"].shape == adam.grads["t"].shape == (1, 2)
    for shape, what in (((7, 2), "row-to-slot map"), ((SLICE_FLOATS, 3), "moments")):
        with pytest.raises(ConfigError, match=f"block 't' has shape .* {what}"):
            adam.take_rows({"t": np.zeros(shape)}, {"t": np.array([0])})
    # a table-shaped gradient of a block held compact is refused, not read as slots
    with pytest.raises(ConfigError, match="block 't' has shape .* its gradient .* not \\(1, 2\\)"):
        adam.apply({"t": np.zeros(tall)}, {"t": np.ones(tall)})
    assert adam.step_count == 1


def test_a_train_call_that_fails_after_backward_leaves_no_gradient_behind(monkeypatch):
    """Moments of another shape refuse a batch before anything is scattered.  A
    step that fails after backward has scattered its batch leaves no buffer
    behind, and slots that stay consistent: the calls after it step the bytes
    of an optimizer that never saw it."""
    opt = OptimizerState()
    opt.apply({"weight": np.zeros((12, 4))}, {"weight": np.ones((12, 4))})
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=12, embed_dim=3, seed=0))
    task = TrainTask("word_similarity", pairs=[(0, 1, 1)])
    with pytest.raises(ConfigError, match="block 'weight' has shape \\(12, 3\\).* moments"):
        train(layer, task, opt, epochs=1)
    assert opt.grads == {}

    # a table of more than one slice, which Adam holds compact
    config = LayerConfig(MethodKind.ORIGINAL, vocab_size=3000, embed_dim=16, seed=2)
    (layer, opt), (clean, clean_opt) = [(build(config), OptimizerState(lr=0.05)) for _ in "ab"]
    tasks = [TrainTask("word_similarity", pairs=pairs) for pairs in
             ([(0, 1, 1), (2, 3, 0)], [(4, 5, 1), (6, 0, 1)], [(5, 7, 1), (1, 8, 0)])]
    for layer_, opt_ in ((layer, opt), (clean, clean_opt)):
        train(layer_, tasks[0], opt_, epochs=1)

    def fail(*args, **kwargs):
        assert any(g.any() for g in opt.grads.values())  # backward has scattered the batch
        raise RuntimeError("interrupted")

    monkeypatch.setattr(opt, "apply", fail)
    with pytest.raises(RuntimeError, match="interrupted"):
        train(layer, tasks[1], opt, epochs=1)
    monkeypatch.undo()
    assert opt.grads == {}
    slots, live = opt.slots["weight"], opt.live["weight"]
    assert {4, 5, 6} <= set(live.tolist())  # the failed batch's rows took slots
    assert np.array_equal(slots[live], np.arange(len(live)))
    assert np.count_nonzero(slots >= 0) == len(live) <= len(opt.moments_m["weight"])
    for _ in range(2):
        train(layer, tasks[2], opt, epochs=1)
        train(clean, tasks[2], clean_opt, epochs=1)
        assert layer.tables["weight"].tobytes() == clean.tables["weight"].tobytes()
        for held, fresh in zip(opt.table_moments(), clean_opt.table_moments()):
            assert held["weight"].tobytes() == fresh["weight"].tobytes()


def _gathered_layers():
    """One layer per kind whose largest tables span several optimizer slices, so
    Adam holds them compact until half their rows are live.  morphsum's
    4096-wide rows make a 40-pair batch more than one chunk; it and morphte
    read word 0's one morpheme in all three slots."""
    vocab, index = repeated_morpheme_morphology(120, 40, 3, seed=4)
    big_vocab, big_index = repeated_morpheme_morphology(600, 500, 3, seed=5)
    K = MethodKind
    return [
        build(LayerConfig(K.ORIGINAL, 3000, 16, seed=1)),
        build(LayerConfig(K.MATRIX_FACTOR, 3000, 16, rank=12, seed=2)),
        build(LayerConfig(K.TENSOR_TRAIN, 2000, 128, order=3, rank=16,
                          vocab_factors=(10, 20, 10), dim_factors=(4, 8, 4), seed=3)),
        build(LayerConfig(K.WORD2KET, 3000, 16, order=2, rank=2, subdim=4, seed=4)),
        build(LayerConfig(K.WORD2KETXS, 4000, 512, order=2, rank=40,
                          vocab_factors=(64, 63), dim_factors=(16, 32), seed=5)),
        build(LayerConfig(K.MORPHTE, 600, 512, order=3, rank=10, subdim=8, seed=6),
              vocab=big_vocab, index=big_index),
        build(LayerConfig(K.MORPHSUM, 120, 4096, order=3, seed=7), vocab=vocab, index=index),
        build(LayerConfig(K.WORD2KET_RSHARE, 600, 64, order=3, rank=10, subdim=4,
                          morpheme_vocab_size=1000, seed=8)),
    ]


def _kept_words(layer, pairs, batch):
    """The words of the pairs of ``batch`` with a gradient, word a then word b in
    example order: both norms nonzero, and positive or of cosine > 0."""
    chosen = pairs[batch]
    na, nb, cos = _cosines(forward_batch(layer, chosen[:, 0]), forward_batch(layer, chosen[:, 1]))
    kept = (na > 0.0) & (nb > 0.0) & ((chosen[:, 2] == 1) | (cos > 0.0))
    return chosen[kept, :2].reshape(-1)


def _embedded_pair_batch(layer, pairs, batch):
    """``_pair_batch`` on the words of ``batch``'s pairs, embedded in pair order."""
    chosen = pairs[batch]
    return _pair_batch(forward_batch(layer, chosen[:, :2].reshape(-1)), chosen[:, 2])


def _dense_train_call(layer, pairs, opt, seed):
    """One epoch of ``train`` in one batch, as a dense step: the public
    ``backward_batch`` into table-shaped zeros, and every row stepped."""
    pairs = np.asarray(pairs)
    batch = np.random.default_rng(seed).permutation(len(pairs))
    words = _kept_words(layer, pairs, batch)
    upstreams = _embedded_pair_batch(layer, pairs, batch)[1]
    grads = {name: np.zeros((t.shape[0] * t.shape[1], t.shape[2]))
             for name, t in layer.tables.items()}
    backward_batch(layer, words, upstreams, grads)
    opt.apply({name: t.reshape(-1, t.shape[-1]) for name, t in layer.tables.items()},
              grads, scale=1.0 / len(batch))
    return len(words)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_train_steps_the_bytes_of_a_dense_step_fed_by_backward_batch(kind):
    """``train`` scattering into the optimizer's slots leaves every table, and
    Adam's moments read table-shaped, byte-identical to a dense-from-start
    optimizer stepped from ``backward_batch``'s table-shaped gradient, at
    every step: while blocks are compact, when a step adds more rows than a
    block's capacity, when half a block's rows go live, over batches of
    several chunks and words that read one morpheme in several slots."""
    rng = np.random.default_rng(stable_seed("dense-train", kind))
    crossed = overflowed = chunked = 0
    for layer in _gathered_layers():
        V = layer.config.vocab_size
        dense = build(layer.config, vocab=layer.vocab, index=layer.index)
        opt, dense_opt = OptimizerState(kind=kind, lr=0.03), OptimizerState(kind=kind, lr=0.03)
        for call, n in enumerate([2, 3, 40, 6, V // 2, 5]):
            words = rng.integers(0, V, size=(n, 2))
            words[0, 0] = 0  # word 0 reads one morpheme three times
            pairs = [(int(a), int(b), int(label))
                     for (a, b), label in zip(words, rng.integers(0, 2, n))]
            compact = {name: len(opt.moments_m[name]) for name in opt.slots}
            train(layer, TrainTask("word_similarity", pairs=pairs), opt, epochs=1,
                  batch_size=n, seed=call)
            chunked += _dense_train_call(dense, pairs, dense_opt, call) > layer.config.chunk_words()
            for name, t in layer.tables.items():
                assert t.tobytes() == dense.tables[name].tobytes(), (layer.config.kind, call, name)
            for held, whole in zip(opt.table_moments(), dense_opt.table_moments()):
                for name in whole:
                    assert held[name].tobytes() == whole[name].tobytes(), (call, name)
            for name, capacity in compact.items():
                crossed += name not in opt.slots
                overflowed += name in opt.slots and len(opt.moments_m[name]) > 2 * capacity
    assert chunked >= 1
    if kind == "adam":
        assert crossed >= 5 and overflowed >= 5, (crossed, overflowed)


def _parent_pair_losses(layer, pairs, batch):
    """The pair losses as first computed: words a then words b, and broadcast cosines."""
    a, b, label = pairs[batch].T
    y = forward_batch(layer, np.concatenate([a, b]))
    na, nb, cos = _cosines(y[: len(batch)], y[len(batch) :])
    zero, positive = (na == 0.0) | (nb == 0.0), label == 1
    hinge = np.where(cos > 0.0, cos, 0.0)
    return np.where(zero, positive * 1.0, np.where(positive, 1.0 - cos, hinge))


def test_pair_upstreams_are_the_closed_form_and_the_loss_s_gradient():
    """On ``original`` layers, whose rows are the embeddings, the stacked product
    gives each pair's upstreams the closed form ``dcos * (yb / (na nb) - cos ya /
    na**2)`` and its mirror to a relative 1e-15, and central differences of the
    batch's summed loss; a zero-norm pair and a negative pair of cosine <= 0 get
    none.  The losses are the bytes of the first formulation's."""
    rng = np.random.default_rng(stable_seed("pair-upstreams"))
    skipped = 0
    for trial in range(6):
        n, d = 24, int(rng.integers(2, 9))
        layer = build(LayerConfig(MethodKind.ORIGINAL, 2 * n, d, seed=trial))
        W = layer.params["weight"]
        W[...] = rng.standard_normal(W.shape)
        W[2 * int(rng.integers(0, n))] = 0.0  # a zero-norm side
        pairs = pair_array([(2 * j, 2 * j + 1, int(label))
                            for j, label in enumerate(rng.integers(0, 2, n))])
        batch = rng.permutation(n)
        losses, upstreams, _ = _embedded_pair_batch(layer, pairs, batch)
        words = _kept_words(layer, pairs, batch)
        assert losses.tobytes() == _parent_pair_losses(layer, pairs, batch).tobytes()
        kept = words.reshape(-1, 2)
        skipped += n - len(kept)
        for (a, b), (ua, ub) in zip(kept, upstreams.reshape(-1, 2, d)):
            ya, yb = W[a], W[b]
            na, nb = np.linalg.norm(ya), np.linalg.norm(yb)
            cos = ya @ yb / (na * nb)
            assert na > 0 and nb > 0 and (pairs[a // 2, 2] == 1 or cos > 0)
            dcos = -1.0 if pairs[a // 2, 2] == 1 else 1.0
            for got, want in ((ua, dcos * (yb / (na * nb) - cos * ya / (na * na))),
                              (ub, dcos * (ya / (na * nb) - cos * yb / (nb * nb)))):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (got, want)
        # central differences of the summed loss in every coordinate of every side
        # of a pair with both norms nonzero; a word with no upstream has derivative 0
        grad = dict(zip(words.tolist(), upstreams))
        h = 1e-6
        for w in range(2 * n):
            if not (W[w - w % 2].any() and W[w - w % 2 + 1].any()):
                continue
            for c in range(d):
                theta = W[w, c]
                W[w, c] = theta + h
                hi = _embedded_pair_batch(layer, pairs, batch)[0].sum()
                W[w, c] = theta - h
                lo = _embedded_pair_batch(layer, pairs, batch)[0].sum()
                W[w, c] = theta
                expected = grad[w][c] if w in grad else 0.0
                assert abs((hi - lo) / (2 * h) - expected) < 1e-6, (w, c)
    assert skipped >= 6 + 3, skipped  # one zero-norm pair a trial, and some negatives


@pytest.mark.parametrize("pairs, named", [
    ([(1, 2)], "got (1, 2)"),
    ([(0, 1, 1), (0, 1, 1.0)], "got (0, 1, 1.0)"),
    ([(0, 1, True)], "got (0, 1, True)"),
    ([(0, "1", 1)], "got (0, '1', 1)"),
    ([(0, 1, 1), 7], "got 7"),
    ([(0, 1, 1), (2, 3, 2)], "pair (2, 3, 2) has label 2"),
    (np.array([[0, 1, -1]]), "pair (0, 1, -1) has label -1"),
    ([(0, 2**70, 1)], "beyond the int64 range"),
    (np.array([[0, 2**64 - 1, 1]], dtype=np.uint64), "beyond the int64 range"),
    (np.array([[0.0, 1.0, 1.0]]), "got [0.0, 1.0, 1.0]"),
    (np.array([[0, 1, 1]], dtype=bool), "got [False, True, True]"),
])
def test_a_malformed_pair_is_refused_by_name(pairs, named):
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=4, embed_dim=3, seed=0))
    with pytest.raises(ConfigError, match=re.escape(named)):
        TrainTask("word_similarity", pairs=pairs)
    with pytest.raises(ConfigError, match=re.escape(named)):
        eval_similarity(layer, pairs)


def test_a_task_checks_and_converts_its_pairs_once(monkeypatch):
    """A task holds its pairs as one read-only ``(n, 3)`` integer array, made when
    it is built: ``train`` neither converts nor checks them again."""
    given = [(0, 1, 1), (np.int64(2), 3, 0), [4, 5, 1]]
    task = TrainTask("word_similarity", pairs=given)
    assert len(task.pairs) == 3 and task.pairs.shape == (3, 3)
    assert task.pairs.dtype == np.intp and not task.pairs.flags.writeable
    assert task.pairs.tolist() == [[0, 1, 1], [2, 3, 0], [4, 5, 1]]
    assert TrainTask("word_similarity", pairs=np.array(given)).pairs.tolist() == task.pairs.tolist()

    def refuse(*args):
        raise AssertionError("pairs checked again")

    monkeypatch.setattr(tenbed.training, "pair_array", refuse)
    layer = build(LayerConfig(MethodKind.ORIGINAL, vocab_size=6, embed_dim=3, seed=0))
    train(layer, task, OptimizerState(), epochs=2, batch_size=2)


def test_train_gathers_each_batch_s_rows_once(monkeypatch):
    """One ``gather_batch`` per batch: the backward reads the forward's record."""
    calls = []
    gather = tenbed.layers.gather_batch
    monkeypatch.setattr(tenbed.layers, "gather_batch", lambda *a: calls.append(1) or gather(*a))
    assert not hasattr(tenbed.training, "gather_batch")
    for kind in ALL_KINDS:
        layer = random_layer(kind, np.random.default_rng(stable_seed("one-gather", kind.value)))
        V = layer.config.vocab_size
        pairs = [(j % V, (3 * j + 1) % V, j % 2) for j in range(7)]
        calls.clear()
        train(layer, TrainTask("word_similarity", pairs=pairs), OptimizerState(), epochs=2,
              batch_size=3)
        assert len(calls) == 2 * 3, (kind, len(calls))
        calls.clear()
        targets = np.zeros((V, layer.config.embed_dim))
        train(layer, TrainTask("reconstruct_table", targets=targets), OptimizerState(),
              epochs=1, batch_size=4)
        assert len(calls) == -(-V // 4), (kind, len(calls))


def test_eval_similarity_keeps_the_accuracy_it_had_in_concatenated_order(monkeypatch):
    """Pairs embedded in pair order, in chunks of any size, score as when each
    chunk's a-words and then its b-words were embedded: the recorded accuracies,
    and the cosines' bytes behind them."""
    rng = np.random.default_rng(29)
    vocab, index = make_morphology(60, 12, 3, seed=7)
    layers = [build(LayerConfig(MethodKind.ORIGINAL, 60, 3, seed=11)),
              build(LayerConfig(MethodKind.MORPHTE, 60, 5, order=3, rank=2, subdim=2, seed=12),
                    vocab=vocab, index=index)]
    pairs = [(int(a), int(b), int(label)) for a, b, label in
             zip(*rng.integers(0, 60, (2, 500)), rng.integers(0, 2, 500))]
    array = pair_array(pairs)
    a, b, label = array.T
    for layer, recorded in zip(layers, (0.486, 0.496)):
        _, _, cos = _cosines(forward_batch(layer, a), forward_batch(layer, b))
        y2 = forward_batch(layer, array[:, :2].reshape(-1)).reshape(len(array), 2, -1)
        assert _cosines(y2[:, 0], y2[:, 1])[2].tobytes() == cos.tobytes()
        assert np.sum(np.where(cos > 0.5, 1, 0) == label) / len(pairs) == recorded
        assert eval_similarity(layer, pairs) == recorded
        with monkeypatch.context() as patch:
            patch.setattr("tenbed.layers.BATCH_FLOATS", 7 * layer.config.product_length)
            assert eval_similarity(layer, pairs) == recorded


def _chunked_layers():
    """One small layer per kind, of 24 words; word 0 of morphte and morphsum reads
    one morpheme in all three slots."""
    vocab, index = repeated_morpheme_morphology(24, 9, 3, seed=6)
    K = MethodKind
    return [
        build(LayerConfig(K.ORIGINAL, 24, 5, seed=1)),
        build(LayerConfig(K.MATRIX_FACTOR, 24, 6, rank=3, seed=2)),
        build(LayerConfig(K.TENSOR_TRAIN, 24, 12, order=3, rank=2, vocab_factors=(2, 3, 4),
                          dim_factors=(2, 3, 2), seed=3)),
        build(LayerConfig(K.WORD2KET, 24, 7, order=2, rank=2, subdim=3, seed=4)),
        build(LayerConfig(K.WORD2KETXS, 24, 10, order=2, rank=3, vocab_factors=(4, 6),
                          dim_factors=(3, 4), seed=5)),
        build(LayerConfig(K.MORPHTE, 24, 7, order=3, rank=2, subdim=2, seed=6),
              vocab=vocab, index=index),
        build(LayerConfig(K.MORPHSUM, 24, 6, order=3, seed=7), vocab=vocab, index=index),
        build(LayerConfig(K.WORD2KET_RSHARE, 24, 7, order=3, rank=2, subdim=2,
                          morpheme_vocab_size=9, seed=8)),
    ]


def _chunked_task(layer, task_kind):
    """A reconstruct task of random targets, or 36 random labelled pairs; at the
    layers' first parameters 5 to 12 negative pairs have no gradient, most of
    them after a batch's first two pairs."""
    rng = np.random.default_rng(stable_seed("chunked-task", layer.config.kind.value, task_kind))
    V, d = layer.config.vocab_size, layer.config.embed_dim
    if task_kind == "reconstruct_table":
        return TrainTask(task_kind, targets=rng.standard_normal((V, d)))
    return TrainTask(task_kind, pairs=[(int(a), int(b), int(label)) for a, b, label in
                                       zip(*rng.integers(0, V, (2, 36)), rng.integers(0, 2, 36))])


def _chunked_digest(layer, task_kind, opt_kind):
    """The sha256 of 3 epochs' history, the tables and Adam's moments read
    table-shaped, trained in batches of 10 examples."""
    opt = OptimizerState(kind=opt_kind, lr=0.05)
    history = train(layer, _chunked_task(layer, task_kind), opt, epochs=3, batch_size=10, seed=4)
    digest = hashlib.sha256(np.array(history).tobytes())
    for t in layer.tables.values():
        digest.update(t.tobytes())
    for moments in opt.table_moments():
        for name in sorted(moments):
            digest.update(moments[name].tobytes())
    return digest.hexdigest()[:16]


# recorded when a long batch was embedded whole, then combined again chunk by chunk
CHUNKED_DIGESTS = {
    ('reconstruct_table', 'adam'): {'matrix_factor': 'eea49b21febf5f54',
                                    'morphsum': 'bd7cd239400d5716',
                                    'morphte': 'dd42c2c2ca3bc232',
                                    'original': '07e5a041b3bcbab3',
                                    'tensor_train': '74225454c9565736',
                                    'word2ket': 'c93d964610ff4aaa',
                                    'word2ket_rshare': '63c1f209317d67a1',
                                    'word2ketxs': 'f3226310cd3542c5'},
    ('reconstruct_table', 'sgd'): {'matrix_factor': '1c473140d6629068',
                                   'morphsum': 'e103c279a7083618',
                                   'morphte': 'd3e46119f3f455cd',
                                   'original': '9daaf7da8d37f96d',
                                   'tensor_train': 'd19f1d967fdaf1f3',
                                   'word2ket': '0121f349939ca0bc',
                                   'word2ket_rshare': 'dd2bcf4b7113167b',
                                   'word2ketxs': 'b8151f4e1e1a40a0'},
    ('word_similarity', 'adam'): {'morphsum': 'd59d98cc3472c15b',
                                  'morphte': '38bcd7831ae29d3b',
                                  'original': '7f0caa23d01dd70b',
                                  'word2ket': '6a1b1a0461ebccda',
                                  'word2ket_rshare': '7ccd729058f37a33',
                                  'word2ketxs': 'b25e20ada3a5bf9e'},
    ('word_similarity', 'sgd'): {'morphsum': '69dec7b535b21ba5',
                                 'morphte': '702592c1d3e1cbe3',
                                 'original': '130ca0892f33c73e',
                                 'word2ket': '08da7f34bbfb3cdb',
                                 'word2ket_rshare': 'd8f5f7559e65f27a',
                                 'word2ketxs': '506c58212ba3681e'},
}


@pytest.mark.parametrize("task_kind, opt_kind", [
    ("reconstruct_table", "adam"), ("reconstruct_table", "sgd"),
    ("word_similarity", "adam"), ("word_similarity", "sgd"),
])
def test_batches_of_several_chunks_keep_the_bytes_they_had(task_kind, opt_kind, monkeypatch):
    """In chunks of 4 words a batch spans 3 chunks (reconstruct: 4 + 4 + 2 words)
    or 5 (pairs: 2 pairs a chunk), and every kind trains to the tables, moments
    and history it had when the batch was embedded whole and combined again for
    its adjoint, recorded as digests.  A pair batch that drops a pair may round
    the chains' summed tables otherwise (its adjoint sums each chunk's kept
    words), so only the six kinds that sum products are pinned on pairs."""
    got = {}
    for layer in _chunked_layers():
        if task_kind == "word_similarity" and layer.config.layout.chain:
            continue
        with monkeypatch.context() as patch:
            patch.setattr("tenbed.layers.BATCH_FLOATS", 4 * layer.config.product_length)
            assert layer.config.chunk_words() == 4
            got[layer.config.kind.value] = _chunked_digest(layer, task_kind, opt_kind)
    assert got == CHUNKED_DIGESTS[task_kind, opt_kind]


def test_a_divergence_in_a_later_chunk_applies_nothing(monkeypatch):
    """A NaN target in the third chunk of the second batch raises at that batch.
    The parameters, the moments read table-shaped and the step count are those
    after the first batch, and no gradient buffer is left; two later calls step
    the bytes of an optimizer that never saw the batch."""
    from tenbed.errors import TrainingDivergedError

    vocab, index = repeated_morpheme_morphology(600, 500, 3, seed=5)
    for layer in (build(LayerConfig(MethodKind.ORIGINAL, 3000, 16, seed=1)),
                  build(LayerConfig(MethodKind.MORPHTE, 600, 64, order=3, rank=2, subdim=4,
                                    seed=6), vocab=vocab, index=index)):
        V, d = layer.config.vocab_size, layer.config.embed_dim
        rng = np.random.default_rng(stable_seed("later-chunk-nan", layer.config.kind.value))
        targets = rng.standard_normal((V, d))
        opt = OptimizerState(lr=0.05)
        train(layer, TrainTask("reconstruct_table", targets=targets), opt, epochs=1,
              batch_size=V // 3)
        targets[np.random.default_rng(9).permutation(V)[12 + 9]] = np.nan  # batch 1, chunk 2
        after_first = []
        apply = OptimizerState.apply

        def kept_apply(self, *args, **kwargs):
            apply(self, *args, **kwargs)
            held = copy.deepcopy(self)
            held.grads.clear()
            after_first.append(({n: t.copy() for n, t in layer.tables.items()}, held))

        monkeypatch.setattr(OptimizerState, "apply", kept_apply)
        monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 4 * layer.config.product_length)
        with pytest.raises(TrainingDivergedError) as err:
            train(layer, TrainTask("reconstruct_table", targets=targets), opt, epochs=1,
                  batch_size=12, seed=9)
        monkeypatch.undo()
        assert (err.value.epoch, err.value.batch) == (0, 1)
        assert len(after_first) == 1 and opt.grads == {}
        tables, held = after_first[0]
        assert opt.step_count == held.step_count
        for name, t in layer.tables.items():
            assert t.tobytes() == tables[name].tobytes(), (layer.config.kind, name)
        for now, then in zip(opt.table_moments(), held.table_moments()):
            for name in then:
                assert now[name].tobytes() == then[name].tobytes(), (layer.config.kind, name)
        clean = EmbeddingLayer(layer.config, tables, index=layer.index, vocab=layer.vocab)
        task = TrainTask("reconstruct_table", targets=rng.standard_normal((V, d)))
        for call in range(2):
            train(layer, task, opt, epochs=1, batch_size=50, seed=call)
            train(clean, task, held, epochs=1, batch_size=50, seed=call)
            for name, t in layer.tables.items():
                assert t.tobytes() == clean.tables[name].tobytes(), (call, name)
            for now, then in zip(opt.table_moments(), held.table_moments()):
                for name in then:
                    assert now[name].tobytes() == then[name].tobytes(), (call, name)


def test_train_combines_each_chunk_once(monkeypatch):
    """One ``_combine`` per chunk of ``chunk_words`` words, a pair chunk of whole
    pairs: batches of one chunk, of several, and a last chunk that is short."""
    calls = []
    combine = tenbed.layers._combine
    monkeypatch.setattr(tenbed.layers, "_combine",
                        lambda layer, rows: calls.append(len(rows[0])) or combine(layer, rows))
    for layer in _chunked_layers():
        V = layer.config.vocab_size
        for chunk_words, pair_words in ((None, None), (5, 4), (1, 2)):
            with monkeypatch.context() as patch:
                if chunk_words:
                    patch.setattr("tenbed.layers.BATCH_FLOATS",
                                  chunk_words * layer.config.product_length)
                step = layer.config.chunk_words()
                for task_kind, words, each in (("reconstruct_table", 7, step),
                                               ("word_similarity", 14, pair_words or step)):
                    calls.clear()
                    train(layer, _chunked_task(layer, task_kind), OptimizerState(), epochs=1,
                          batch_size=7)
                    n = V if task_kind == "reconstruct_table" else 2 * 36
                    batches = [min(words, n - lo) for lo in range(0, n, words)]
                    assert calls == [min(each, b - lo) for b in batches
                                     for lo in range(0, b, each)], (layer.config, task_kind)


def test_train_holds_one_chunk_of_a_long_batch(monkeypatch):
    """With 64-word chunks, a reconstruct batch of 4x the words stays under 1.5x the
    peak, for a kind that sums products and for a chain."""
    for config in (LayerConfig(MethodKind.WORD2KET, 2000, 512, order=3, subdim=32, seed=0),
                   LayerConfig(MethodKind.TENSOR_TRAIN, 2000, 512, order=3, rank=32,
                               vocab_factors=(10, 20, 10), dim_factors=(8, 8, 8), seed=0)):
        layer = build(config)
        monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 64 * config.product_length)
        assert config.chunk_words() == 64
        task = TrainTask("reconstruct_table",
                         targets=np.random.default_rng(1).standard_normal((2000, 512)))
        peaks = {}
        for size in (500, 2000):
            opt = OptimizerState(kind="sgd", lr=1e-3)
            tracemalloc.start()
            try:
                train(layer, task, opt, epochs=1, batch_size=size)
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2000] < 1.5 * peaks[500], (config.kind, peaks)
