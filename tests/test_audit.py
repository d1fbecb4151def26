from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_KINDS, random_config_and_context
from tenbed.audit import (
    count_params,
    count_params_morphlstm,
    load_reference_rows,
    reproduce_paper_tables,
    savings_ratio_vs_word2ket,
)
from tenbed.errors import ConfigError
from tenbed.layers import LayerConfig, MethodKind, build


def test_original_unit_case():
    row = count_params(LayerConfig(MethodKind.ORIGINAL, vocab_size=1, embed_dim=1))
    assert row.trainable == 1 and row.constant == 0
    assert row.ratio == 1


def test_original_ratio_is_exactly_one():
    for V, d in [(3, 7), (100, 512), (12333, 512)]:
        row = count_params(LayerConfig(MethodKind.ORIGINAL, vocab_size=V, embed_dim=d))
        assert row.ratio == Fraction(1)


def test_morphte_de_en_counts():
    cfg = LayerConfig(
        MethodKind.MORPHTE, vocab_size=15480, embed_dim=512, order=3, rank=7, subdim=8,
        morpheme_vocab_size=5757,
    )
    row = count_params(cfg)
    assert row.trainable == 322_392
    assert row.constant == 46_440
    assert row.total == 368_832
    assert round(row.ratio) == 21


def test_word2ket_de_source_count():
    cfg = LayerConfig(MethodKind.WORD2KET, vocab_size=8848, embed_dim=512, order=3, rank=1, subdim=8)
    assert count_params(cfg).trainable == 212_352


def test_tensor_train_de_source_count():
    cfg = LayerConfig(
        MethodKind.TENSOR_TRAIN,
        vocab_size=8848,
        embed_dim=512,
        order=3,
        rank=34,
        vocab_factors=(18, 20, 25),
        dim_factors=(8, 8, 8),
    )
    assert count_params(cfg).trainable == 18 * 8 * 34 + 20 * 8 * 34**2 + 25 * 8 * 34 == 196_656


def test_wikiqa_morphte_count():
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=12333, embed_dim=512, order=3, rank=1, subdim=8,
                      morpheme_vocab_size=5152)
    row = count_params(cfg)
    assert row.trainable == 41_216
    assert row.total == 78_215


def test_snli_matrix_factor_count():
    cfg = LayerConfig(MethodKind.MATRIX_FACTOR, vocab_size=16936, embed_dim=512, rank=13)
    assert count_params(cfg).trainable == 226_824


def test_en_ru_word2ketxs_count():
    cfg = LayerConfig(
        MethodKind.WORD2KETXS,
        vocab_size=42000,
        embed_dim=512,
        order=2,
        rank=53,
        vocab_factors=(205, 205),
        dim_factors=(16, 32),
    )
    assert count_params(cfg).trainable == 53 * (205 * 16 + 205 * 32) == 521_520


def test_morphsum_and_morphlstm_formulas():
    cfg = LayerConfig(MethodKind.MORPHSUM, vocab_size=100, embed_dim=16, order=3,
                      morpheme_vocab_size=40)
    row = count_params(cfg)
    assert row.trainable == (100 + 40) * 16 and row.constant == 0
    lstm = count_params_morphlstm(100, 16, 40)
    assert lstm.trainable == 40 * 16 + 8 * 16 * 16


def test_missing_morpheme_vocab_size_is_config_error():
    cfg = LayerConfig(MethodKind.MORPHTE, vocab_size=10, embed_dim=8, order=3, subdim=2)
    with pytest.raises(ConfigError):
        count_params(cfg)
    with pytest.raises(ConfigError, match="morphsum audit requires the morpheme vocabulary size"):
        count_params(LayerConfig(MethodKind.MORPHSUM, vocab_size=10, embed_dim=8, order=3))


def test_savings_ratio_examples():
    assert savings_ratio_vs_word2ket(15480, 5757, 3) == Fraction(3 * 15480, 5757)
    assert float(savings_ratio_vs_word2ket(15480, 5757, 3)) == pytest.approx(8.07, abs=0.005)
    assert savings_ratio_vs_word2ket(7, 7, 2) == 2
    # vocabulary-to-morpheme ratio exceeds 2.5 on the de_en pair
    assert Fraction(15480, 5757) > Fraction(5, 2)


@pytest.mark.parametrize("args", [(0, 5, 3), (7, 0, 3), (7, 5, 0), (-1, 5, 3)])
def test_savings_ratio_refuses_a_non_positive_argument(args):
    with pytest.raises(ValueError, match="all arguments must be positive"):
        savings_ratio_vs_word2ket(*args)


def test_reference_rows_load():
    rows = load_reference_rows()
    assert len(rows) == 70
    groups = {r.group for r in rows}
    assert groups == {"trans1", "trans2", "nli1", "nli2", "summary"}
    flagged = [r for r in rows if r.has_published_discrepancy]
    assert len(flagged) == 5
    assert all(r.note != "-" for r in flagged)


def test_reproduce_paper_tables_zero_mismatches():
    results, mismatches = reproduce_paper_tables()
    assert len(results) == 70
    assert mismatches == []


def test_reproduce_paper_tables_all_within_tolerance():
    results, _ = reproduce_paper_tables()
    for res in results:
        assert abs(res.computed_millions - res.row.expected_millions) <= 0.005 + 1e-12, res.row


def test_built_layers_match_closed_form_counts():
    rng = np.random.default_rng(123)
    for kind in ALL_KINDS:
        for _ in range(12):
            cfg, vocab, index = random_config_and_context(kind, rng)
            layer = build(cfg, vocab=vocab, index=index)
            audited = count_params(layer.config)
            assert layer.trainable_param_count() == audited.trainable, (kind, cfg)


def test_every_reference_config_builds_to_audited_count():
    # full-size structural morphology: token names and uniform index rows are
    # enough, the count only depends on shapes
    from tenbed.layers import build_rshare_index
    from tenbed.morphology import MorphemeVocab

    for ref in load_reference_rows():
        cfg = ref.config
        vocab = index = None
        if cfg.kind is MethodKind.MORPHTE:
            vocab = MorphemeVocab([f"m{i}" for i in range(cfg.morpheme_vocab_size - 1)])
            index = build_rshare_index(cfg.vocab_size, vocab.size, cfg.order, seed=1)
        layer = build(cfg, vocab=vocab, index=index)
        audited = count_params(cfg)
        assert layer.trainable_param_count() == audited.trainable, ref
