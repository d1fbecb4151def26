"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Training-based criteria use hyperparameters recorded from committed
pilot runs (values noted inline); everything is deterministic per seed.
"""

import itertools
import time

import numpy as np
from click.testing import CliRunner

from conftest import (
    ALL_KINDS,
    random_config_and_context,
    random_layer,
    repeated_morpheme_morphology,
    stable_seed,
)
from tenbed.audit import count_params, reproduce_paper_tables
from tenbed.checkpoint import load_layer, save_layer
from tenbed.cli import main as cli_main
from tenbed.gradients import finite_diff_check
from tenbed.layers import LayerConfig, MethodKind, build, forward
from tenbed.morphology import PAD_TOKEN, truncate_pad
from tenbed.synthetic import (
    make_morphology,
    make_sharing_pairs,
    make_sharing_task,
)
from tenbed.tensor_ops import cumulative_tensor_product
from tenbed.training import OptimizerState, TrainTask, eval_similarity, train


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_reference_table_audit():
    """Every transcribed configuration row reproduces within +-0.005M."""
    start = time.monotonic()
    results, mismatches = reproduce_paper_tables()
    elapsed = time.monotonic() - start
    assert mismatches == [], [m.row for m in mismatches]
    assert len(results) == 70
    for res in results:
        assert abs(res.computed_millions - res.row.expected_millions) <= 0.005 + 1e-12

    # spot values: the two-dictionary morpheme config, the chained-core
    # config, and the retrieval-task morpheme config
    by_key = {(r.row.group, r.row.dataset, r.row.method, r.row.level): r for r in results}
    assert by_key[("summary", "de_en", "morphte", "21x")].audit.total == 368_832
    assert by_key[("trans1", "de_en_src", "tensor_train", "20x")].audit.total == 196_656
    assert by_key[("nli2", "wikiqa", "morphte", "main")].audit.total == 78_215

    # the audit is also wired through the CLI
    res = CliRunner().invoke(cli_main, ["audit", "--paper-tables"])
    assert res.exit_code == 0
    assert elapsed < 1.0, elapsed
    corrected = sum(1 for r in results if r.row.has_published_discrepancy)
    _report(1, f"70 rows, 0 mismatches, {corrected} documented published-cell corrections, "
               f"{elapsed:.2f}s")


def test_criterion_2_built_layer_counts_match_audit():
    """>=30 random configs per method: built count == closed form, exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    for kind in ALL_KINDS:
        for _ in range(30):
            cfg, vocab, index = random_config_and_context(kind, rng)
            layer = build(cfg, vocab=vocab, index=index)
            M = layer.vocab.size if layer.vocab is not None else cfg.morpheme_vocab_size
            audited = count_params(layer.config, morpheme_vocab_size=M)
            assert layer.trainable_param_count() == audited.trainable, (kind, cfg)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    _report(2, f"{checked} configs across 8 methods, integer equality, {elapsed:.2f}s")


def test_criterion_3_rank_one_forward_equals_naive_oracle():
    """Rank-1 tensor-product layers match the mixed-radix loop oracle."""
    def naive_chain(vectors):
        lengths = [v.size for v in vectors]
        out = np.empty(int(np.prod(lengths)))
        for flat, digits in enumerate(itertools.product(*(range(q) for q in lengths))):
            prod = 1.0
            for v, i in zip(vectors, digits):
                prod *= v[i]
            out[flat] = prod
        return out

    rng = np.random.default_rng(33)
    cases = 0
    while cases < 200:
        kind = MethodKind.WORD2KET if cases % 2 == 0 else MethodKind.MORPHTE
        n = int(rng.integers(1, 5)) if kind is MethodKind.WORD2KET else int(rng.integers(2, 5))
        q = int(rng.integers(1, 5))
        d = int(rng.integers(1, q**n + 1))
        V = int(rng.integers(2, 12))
        seed = int(rng.integers(2**31))
        if kind is MethodKind.WORD2KET:
            layer = build(LayerConfig(kind, V, d, order=n, rank=1, subdim=q, seed=seed))
        else:
            vocab, index = make_morphology(V, int(rng.integers(2, 8)), n, seed=seed % 9973)
            layer = build(
                LayerConfig(kind, V, d, order=n, rank=1, subdim=q, seed=seed),
                vocab=vocab,
                index=index,
            )
        word = int(rng.integers(0, V))
        if kind is MethodKind.WORD2KET:
            row = layer.params["word_factors"][word].reshape(1, n, q)
            vectors = [row[0, k] for k in range(n)]
        else:
            ids = layer.index.rows[word]
            vectors = [layer.params["morpheme_embed_0"][m] for m in ids]
        expected = naive_chain(vectors)[:d]
        got = forward(layer, word)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-300)
        cases += 1
    _report(3, "200 random rank-1 cases (q<=4, n<=4) match the loop oracle at 1e-12")


def test_criterion_4_gradient_checks_all_methods():
    """Central differences agree below 1e-5 for 50 words per method."""
    start = time.monotonic()
    worst = 0.0
    for kind in ALL_KINDS:
        rng = np.random.default_rng(stable_seed("acc4", kind.value))
        words_checked = 0
        while words_checked < 50:
            layer = random_layer(kind, rng)
            for _ in range(min(10, layer.config.vocab_size)):
                if words_checked >= 50:
                    break
                word = int(rng.integers(0, layer.config.vocab_size))
                report = finite_diff_check(
                    layer, word, epsilon=1e-5, tolerance=1e-5, seed=words_checked
                )
                assert report.passed, (kind, word, report.failures[:3])
                worst = max(worst, report.max_rel_error)
                words_checked += 1

    # explicit repeated-morpheme case: one word uses the same morpheme in
    # every slot
    vocab, index = repeated_morpheme_morphology(8, 5, 3, seed=77)
    assert len(set(int(m) for m in index.rows[0])) == 1
    layer = build(
        LayerConfig(MethodKind.MORPHTE, 8, 27, order=3, rank=2, subdim=3, seed=5),
        vocab=vocab,
        index=index,
    )
    report = finite_diff_check(layer, 0, epsilon=1e-5, tolerance=1e-5, seed=9)
    assert report.passed
    worst = max(worst, report.max_rel_error)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    _report(4, f"8 methods x 50 words + repeated-morpheme case, "
               f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_order3_expansion_pattern():
    """The 8-term order-3 expansion follows the mixed-radix index formula."""
    a = np.array([2.0, 3.0])
    b = np.array([5.0, 7.0])
    c = np.array([11.0, 13.0])
    out = cumulative_tensor_product([a, b, c])
    assert out.shape == (8,)
    expected_sequence = [
        a[0] * b[0] * c[0], a[0] * b[0] * c[1], a[0] * b[1] * c[0], a[0] * b[1] * c[1],
        a[1] * b[0] * c[0], a[1] * b[0] * c[1], a[1] * b[1] * c[0], a[1] * b[1] * c[1],
    ]
    np.testing.assert_array_equal(out, expected_sequence)
    for i, j, k in itertools.product(range(2), repeat=3):
        assert out[4 * i + 2 * j + k] == a[i] * b[j] * c[k]
    _report(5, "8-term expansion matches the index formula exactly")


def test_criterion_6_slot_normalisation():
    """Four morphemes collapse to three slots; one morpheme pads twice."""
    assert truncate_pad(["un", "feel", "ing", "ly"], 3) == ["un", "feel", "ingly"]
    padded = truncate_pad(["kind"], 3)
    assert padded == ["kind", PAD_TOKEN, PAD_TOKEN]
    assert padded.count(PAD_TOKEN) == 2
    _report(6, "concat branch and double-pad branch behave as specified")


def test_criterion_7_sharing_ablation_beats_random_sharing():
    """Morpheme-based sharing beats random sharing by >=5 points (median).

    Pinned from the committed pilot (adam lr=0.05, 40 epochs, batch 50, 2500
    train / 1000 eval balanced pairs, seeds 0-4): per-seed differences
    +4.7/+3.2/+14.2/+12.3/+11.6 points, median +11.6.
    """
    start = time.monotonic()
    diffs = []
    for seed in range(5):
        vocab, index, morph_sets = make_sharing_task(500, 79, 3, seed=seed)
        assert vocab.size == 80  # 79 morphemes + pad
        pairs_train, pairs_eval = make_sharing_pairs(morph_sets, 2500, 1000, seed=seed + 1)
        accuracies = {}
        for kind in (MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE):
            if kind is MethodKind.MORPHTE:
                layer = build(
                    LayerConfig(kind, 500, 64, order=3, rank=2, subdim=4, seed=seed + 2),
                    vocab=vocab,
                    index=index,
                )
            else:
                layer = build(
                    LayerConfig(
                        kind, 500, 64, order=3, rank=2, subdim=4,
                        morpheme_vocab_size=vocab.size, seed=seed + 2,
                    )
                )
            task = TrainTask("word_similarity", pairs=pairs_train, loss="cosine_contrastive")
            train(layer, task, OptimizerState(lr=0.05), epochs=40, batch_size=50, seed=seed + 3)
            accuracies[kind] = eval_similarity(layer, pairs_eval)
        diffs.append(accuracies[MethodKind.MORPHTE] - accuracies[MethodKind.WORD2KET_RSHARE])
    elapsed = time.monotonic() - start
    median_diff = float(np.median(diffs))
    assert median_diff >= 0.05, diffs
    assert elapsed < 300.0, elapsed
    _report(7, f"median held-out advantage {median_diff * 100:+.1f} points over 5 seeds "
               f"(per-seed {[f'{d * 100:+.1f}' for d in diffs]}), {elapsed:.0f}s")


def test_criterion_8_reconstruction_trainability():
    """A 200-word morpheme layer fits a rank-compatible target table.

    Pinned from the committed pilot (adam lr=0.02, batch 32): initial mse
    6.9e-4, final 1.9e-6 after 200 epochs, ratio 0.003.
    """
    start = time.monotonic()
    vocab, index = make_morphology(200, 40, 3, seed=100)
    donor = build(
        LayerConfig(MethodKind.MORPHTE, 200, 64, order=3, rank=4, subdim=4, seed=101),
        vocab=vocab,
        index=index,
    )
    targets = np.stack([forward(donor, j) for j in range(200)])

    def run():
        layer = build(
            LayerConfig(MethodKind.MORPHTE, 200, 64, order=3, rank=4, subdim=4, seed=7),
            vocab=vocab,
            index=index,
        )
        return train(
            layer,
            TrainTask("reconstruct_table", targets=targets),
            OptimizerState(lr=0.02),
            epochs=200,
            batch_size=32,
            seed=8,
        )

    history = run()
    assert len(history) == 200
    assert history[-1] < 0.1 * history[0], (history[0], history[-1])
    assert run() == history  # deterministic per seed
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    _report(8, f"mse {history[0]:.2e} -> {history[-1]:.2e} "
               f"(ratio {history[-1] / history[0]:.4f}), deterministic, {elapsed:.0f}s")


def test_criterion_9_checkpoint_roundtrip_every_method(tmp_path):
    """Export -> load -> forward is bit-identical for every method kind."""
    for kind in ALL_KINDS:
        rng = np.random.default_rng(stable_seed("acc9", kind.value))
        layer = random_layer(kind, rng)
        path = tmp_path / f"{kind.value}.bin"
        save_layer(layer, path)
        loaded = load_layer(path)
        for word in range(layer.config.vocab_size):
            assert forward(layer, word).tobytes() == forward(loaded, word).tobytes()
    _report(9, "bit-identical forward outputs across all 8 methods")
