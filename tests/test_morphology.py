import collections

import numpy as np
import pytest

from tenbed.errors import ConfigError, DuplicateWordError, SegmentationParseError, WordLookupError
from tenbed.morphology import (
    PAD_TOKEN,
    IndexMatrix,
    Segmentation,
    build_vocab_and_index,
    load_segmentations,
    load_vocab_dir,
    morpheme_stats,
    random_seg,
    truncate_pad,
    write_vocab_dir,
)


def write_seg_file(tmp_path, text, name="segs.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_segmentations_basic(tmp_path):
    p = write_seg_file(
        tmp_path,
        "unkindly\tun kind ly\n"
        "# a comment line\n"
        "cook\tcook\n"
        "\n"
        "unkindness\tun kind ness\n",
    )
    segs = load_segmentations(p)
    assert [s.word for s in segs] == ["unkindly", "cook", "unkindness"]
    assert segs[0].morphemes == ("un", "kind", "ly")
    assert segs[1].morphemes == ("cook",)


def test_load_segmentations_malformed_line_carries_number(tmp_path):
    p = write_seg_file(tmp_path, "good\tg ood\nbadline\n")
    with pytest.raises(SegmentationParseError) as exc:
        load_segmentations(p)
    assert exc.value.line_no == 2


def test_load_segmentations_duplicate_word(tmp_path):
    p = write_seg_file(tmp_path, "w\ta b\nw\tc d\n")
    with pytest.raises(DuplicateWordError):
        load_segmentations(p)


def test_truncate_pad_concat_branch():
    assert truncate_pad(["un", "feel", "ing", "ly"], 3) == ["un", "feel", "ingly"]


def test_truncate_pad_pad_branch():
    assert truncate_pad(["kind"], 3) == ["kind", PAD_TOKEN, PAD_TOKEN]


def test_truncate_pad_exact_length():
    assert truncate_pad(["a", "b", "c"], 3) == ["a", "b", "c"]


def test_truncate_pad_rejects_empty():
    with pytest.raises(ValueError):
        truncate_pad([], 3)


def test_build_vocab_and_index_sharing():
    segs = [
        Segmentation("unkindly", ("un", "kind", "ly")),
        Segmentation("unkindness", ("un", "kind", "ness")),
    ]
    vocab, index = build_vocab_and_index(segs, 3)
    # un, kind, ly, ness + pad
    assert vocab.size == 5
    assert vocab.pad_id == 4
    r0, r1 = index.rows
    assert r0[0] == r1[0]  # "un" shared
    assert r0[1] == r1[1]  # "kind" shared
    assert r0[2] != r1[2]
    assert index.row_of_word("unkindness") == 1


def test_build_vocab_single_word_padding():
    vocab, index = build_vocab_and_index([Segmentation("m", ("m1",))], 2)
    assert vocab.size == 2
    np.testing.assert_array_equal(index.rows[0], [vocab.id_of("m1"), vocab.pad_id])


@pytest.mark.parametrize("morphemes, n", [
    (("un", PAD_TOKEN, "ly"), 3),
    ((PAD_TOKEN,), 2),
    (("x", "<pa", "d>"), 2),  # the tail joined by truncation spells the pad
], ids=["middle", "alone", "joined-tail"])
def test_a_real_slot_spelled_like_the_pad_is_refused(morphemes, n):
    with pytest.raises(ConfigError, match=r"word 'w': '<pad>' is reserved"):
        build_vocab_and_index([Segmentation("ok", ("a",)), Segmentation("w", morphemes)], n)


def test_morpheme_vocab_builds_its_id_map_on_first_lookup():
    vocab, _ = build_vocab_and_index([Segmentation("w", ("a", "b"))], 3)
    assert "_id_of" not in vocab.__dict__
    assert (vocab.id_of("b"), vocab.id_of(PAD_TOKEN)) == (1, 2)
    with pytest.raises(WordLookupError, match="unknown morpheme 'c'"):
        vocab.id_of("c")


def test_vocab_size_counts_file_morphemes_plus_pad(tmp_path):
    p = write_seg_file(
        tmp_path,
        "walked\twalk ed\nwalking\twalk ing\ntalked\ttalk ed\nuntalkative\tun talk ative ly\n",
    )
    segs = load_segmentations(p)
    vocab, _ = build_vocab_and_index(segs, 3)
    post = set()
    for s in segs:
        post.update(m for m in truncate_pad(list(s.morphemes), 3) if m != PAD_TOKEN)
    assert vocab.size == len(post) + 1


def test_index_roundtrip_decodes_to_truncate_pad():
    segs = [
        Segmentation("unfeelingly", ("un", "feel", "ing", "ly")),
        Segmentation("cook", ("cook",)),
        Segmentation("unkind", ("un", "kind")),
    ]
    vocab, index = build_vocab_and_index(segs, 3)
    for j, seg in enumerate(segs):
        decoded = [vocab.tokens[i] for i in index.rows[j]]
        assert decoded == truncate_pad(list(seg.morphemes), 3)


def test_vocab_dir_roundtrip(tmp_path):
    segs = [
        Segmentation("unfeelingly", ("un", "feel", "ing", "ly")),
        Segmentation("cook", ("cook",)),
        Segmentation("unkind", ("un", "kind")),
    ]
    vocab, index = build_vocab_and_index(segs, 3)
    write_vocab_dir(vocab, index, tmp_path)
    loaded_vocab, loaded_index = load_vocab_dir(tmp_path)
    assert loaded_vocab.tokens == vocab.tokens
    np.testing.assert_array_equal(loaded_index.rows, index.rows)
    assert loaded_index.words == index.words


def test_index_rows_are_read_only():
    vocab, index = build_vocab_and_index([Segmentation("ab", ("a", "b"))], 2)
    with pytest.raises(ValueError):
        index.rows[0, 0] = 1


def test_index_lookup_errors():
    _, index = build_vocab_and_index([Segmentation("ab", ("a", "b"))], 2)
    with pytest.raises(WordLookupError):
        index.row_of_word("missing")


def test_an_index_without_names_calls_row_j_wj():
    index = IndexMatrix(np.arange(8).reshape(4, 2), None)
    assert not index.named and index.vocab_size == 4
    assert index.words == ("w0", "w1", "w2", "w3")
    assert [index.row_of_word(f"w{j}") for j in range(4)] == [0, 1, 2, 3]
    with pytest.raises(WordLookupError):
        index.row_of_word("w4")
    named = IndexMatrix(np.arange(8).reshape(4, 2), ["w0", "w1", "w2", "w3"])
    assert named.named and named.words == index.words
    with pytest.raises(DuplicateWordError, match="duplicate word 'w1'"):
        IndexMatrix(np.arange(8).reshape(4, 2), ["w0", "w1", "w1", "w3"])


def test_random_seg_short_words_kept_whole():
    assert random_seg("cat", 0).morphemes == ("cat",)
    assert random_seg("ab", 0).morphemes == ("ab",)


def test_random_seg_deterministic():
    assert random_seg("abcdefgh", 42) == random_seg("abcdefgh", 42)


def test_random_seg_four_letter_outcomes_uniform():
    # "abcd" has three possible gap pairs; over many seeds each should land
    # near 1/3
    counts = collections.Counter(random_seg("abcd", seed).morphemes for seed in range(3000))
    assert set(counts) == {("a", "b", "cd"), ("a", "bc", "d"), ("ab", "c", "d")}
    for outcome, cnt in counts.items():
        assert 880 <= cnt <= 1120, (outcome, cnt)


def test_random_seg_concat_property():
    rng = np.random.default_rng(9)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for trial in range(1000):
        length = int(rng.integers(1, 15))
        word = "".join(letters[i] for i in rng.integers(0, 26, size=length))
        seg = random_seg(word, trial)
        assert "".join(seg.morphemes) == word
        if length > 3:
            assert len(seg.morphemes) == 3
            assert all(seg.morphemes)


def test_morpheme_stats_counts():
    segs = [
        Segmentation("one", ("one",)),
        Segmentation("twofold", ("two", "fold")),
    ]
    (row,) = morpheme_stats(segs, [None])
    assert (row.n1, row.n2, row.n3, row.n4, row.n_gt4) == (1, 1, 0, 0, 0)
    assert row.vocab_size == 3


def test_morpheme_stats_cap_one_collapses_to_whole_words():
    segs = [
        Segmentation("walked", ("walk", "ed")),
        Segmentation("talked", ("talk", "ed")),
        Segmentation("cook", ("cook",)),
    ]
    (row,) = morpheme_stats(segs, [1])
    assert row.label == "mor_1"
    assert (row.n1, row.n2) == (3, 0)
    # every word collapses to one concatenated string; all distinct here
    assert row.vocab_size == 3


def test_morpheme_stats_cap_counts_truncated_words():
    segs = [Segmentation("unfeelingly", ("un", "feel", "ing", "ly"))]
    (row,) = morpheme_stats(segs, [3])
    assert row.n3 == 1 and row.n4 == 0


def test_morpheme_stats_vocab_shrinks_with_cap():
    segs = [
        Segmentation("unfeelingly", ("un", "feel", "ing", "ly")),
        Segmentation("unkindly", ("un", "kind", "ly")),
    ]
    rows = morpheme_stats(segs, [None, 3, 2, 1])
    assert [r.label for r in rows] == ["mor_inf", "mor_3", "mor_2", "mor_1"]
    assert rows[0].vocab_size == 5  # un feel ing ly kind
    assert rows[1].vocab_size == 5  # un feel ingly kind ly
    assert rows[2].vocab_size == 3  # un feelingly kindly
    assert rows[3].vocab_size == 2


def test_vocab_bound_after_truncation():
    segs = [
        Segmentation("unfeelingly", ("un", "feel", "ing", "ly")),
        Segmentation("unkindly", ("un", "kind", "ly")),
        Segmentation("cook", ("cook",)),
    ]
    vocab, _ = build_vocab_and_index(segs, 3)
    raw = {m for s in segs for m in s.morphemes}
    tails = {"".join(s.morphemes[2:]) for s in segs if len(s.morphemes) > 3}
    assert vocab.size <= len(raw) + 1 + len(tails)
