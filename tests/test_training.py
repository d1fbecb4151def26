import time

import numpy as np
import pytest

from conftest import ALL_KINDS, random_layer, stable_seed
from tenbed.errors import ConfigError
from tenbed.layers import LayerConfig, MethodKind, build, forward
from tenbed.synthetic import make_morphology, make_sharing_pairs, make_sharing_task
from tenbed.training import (
    ADAM_BETAS,
    ADAM_EPS,
    SLICE_FLOATS,
    OptimizerState,
    TrainTask,
    eval_similarity,
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
    """The optimizer step as whole-array formulas: the reference for ``apply``."""
    b1, b2 = ADAM_BETAS
    for name, g in grads.items():
        g = g * scale
        if opt.kind == "sgd":
            params[name] -= opt.lr * g
            continue
        m, v = moments.setdefault(name, (np.zeros_like(g), np.zeros_like(g)))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**opt.step_count)
        v_hat = v / (1 - b2**opt.step_count)
        params[name] -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
                assert opt.moments_m[name].tobytes() == moments[name][0].tobytes(), name
                assert opt.moments_v[name].tobytes() == moments[name][1].tobytes(), name


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
    from tenbed.errors import ConfigError

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
