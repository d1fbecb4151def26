"""The synthetic sharing task, drawn in bulk, against one draw at a time.

``make_sharing_task`` draws its candidate tuples as whole arrays; the loops
below draw them one scalar at a time and build the vocabulary word by word, and
every output must be equal.  The bulk draw relies on numpy's bounded int64
generator taking one ``next_uint32`` per draw below ``2**32`` for a scalar
bound and for an array of bounds alike, which is checked directly.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from tenbed.errors import ConfigError
from tenbed.morphology import (
    PAD_TOKEN,
    IndexMatrix,
    MorphemeVocab,
    Segmentation,
    build_vocab_and_index,
    truncate_pad,
)
from tenbed.synthetic import make_segmentations, make_sharing_pairs, make_sharing_task

TOO_SMALL = "morpheme pools too small for the requested word count"


def scalar_sharing_segs(num_words, num_morphemes, order, seed):
    """The sharing task's words, one scalar draw per slot (the loop it replaced)."""
    rng = np.random.default_rng(seed)
    base, extra = divmod(num_morphemes, order)
    pools, start = [], 0
    for k in range(order):
        size = base + (1 if k < extra else 0)
        pools.append([f"s{k}m{start + i}" for i in range(size)])
        start += size
    segs, seen, attempts = [], set(), 0
    while len(segs) < num_words:
        attempts += 1
        if attempts > 100 * num_words:
            raise ConfigError(TOO_SMALL)
        morphs = tuple(pool[int(rng.integers(0, len(pool)))] for pool in pools)
        if morphs in seen:
            continue
        seen.add(morphs)
        segs.append(Segmentation(f"w{len(segs)}_" + "-".join(morphs), morphs))
    return segs


def loop_vocab_and_index(segs, n):
    """``build_vocab_and_index`` one slot at a time (the loop it replaced)."""
    order, seen, slot_lists = [], set(), []
    for seg in segs:
        slots = truncate_pad(seg.morphemes, n)
        slot_lists.append(slots)
        for m in slots:
            if m != PAD_TOKEN and m not in seen:
                seen.add(m)
                order.append(m)
    vocab = MorphemeVocab(order)
    rows = np.empty((len(segs), n), dtype=np.int64)
    for j, slots in enumerate(slot_lists):
        rows[j] = [vocab.id_of(m) for m in slots]
    return vocab, IndexMatrix(rows, [seg.word for seg in segs])


def assert_same_task(got, segs, order):
    vocab, index = loop_vocab_and_index(segs, order)
    assert got[0].tokens == vocab.tokens
    np.testing.assert_array_equal(got[1].rows, index.rows)
    assert got[1].words == index.words
    assert got[2] == [set(seg.morphemes) for seg in segs]


@pytest.mark.parametrize("num_words, num_morphemes, order, seed", [
    (1, 1, 1, 0),
    (1, 7, 3, 2),
    (40, 90, 1, 1),        # order 1: a word is one pool entry
    (9, 9, 1, 4),          # order 1, every entry taken
    (80, 20, 3, 5),
    (500, 79, 3, 11),      # the criterion 7 task
    (26, 9, 3, 7),         # one short of the 27 distinct tuples
    (27, 9, 3, 8),         # every distinct tuple
    (55, 15, 2, 3),        # pools of 8 and 7: one short of 56
    (200, 31, 4, 9),       # pools of 8, 8, 8 and 7
])
def test_the_bulk_draw_gives_the_scalar_loop_s_task(num_words, num_morphemes, order, seed):
    segs = scalar_sharing_segs(num_words, num_morphemes, order, seed)
    assert_same_task(make_sharing_task(num_words, num_morphemes, order, seed), segs, order)


def digest(vocab, index, morph_sets):
    h = hashlib.sha256()
    for part in (vocab.tokens, index.words, [" ".join(sorted(s)) for s in morph_sets]):
        h.update("\n".join(part).encode() + b"\0")
    h.update(index.rows.astype("<i8").tobytes())
    return h.hexdigest()


def test_the_en_it_scale_task_is_the_one_drawn_one_scalar_at_a_time():
    # recorded from the scalar loop: 41,280 words over 10,817 morphemes, seed 3
    assert digest(*make_sharing_task(41280, 10817, 3, seed=3)) == (
        "55bebd8caa5005d013e7dd9ed6109a30f9250fe2222152d98fa29e2e1a89e81f")


@pytest.mark.parametrize("bounds", [
    [2**31 + 1],           # Lemire's rejection fires for about half the draws
    [3606, 3606, 3605],
    [1, 2, 2**32 - 1, 5],
])
def test_an_array_of_bounds_reads_the_stream_of_one_scalar_draw_at_a_time(bounds):
    count = 4000
    bulk, chunked, scalar = (np.random.default_rng(17) for _ in range(3))
    highs = np.tile(np.array(bounds, dtype=np.int64), count)
    drawn = bulk.integers(0, highs)
    split = len(highs) // 3
    parts = np.concatenate([chunked.integers(0, highs[:split]), chunked.integers(0, highs[split:])])
    one_by_one = [scalar.integers(0, int(b)) for b in highs]
    np.testing.assert_array_equal(drawn, one_by_one)
    np.testing.assert_array_equal(parts, one_by_one)
    assert bulk.bit_generator.state == chunked.bit_generator.state == scalar.bit_generator.state


def test_more_words_than_distinct_tuples_are_refused_before_any_draw(monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for args in [(5000, 30, 3), (41280, 60, 3), (28, 9, 3), (10, 3, 3), (57, 15, 2)]:
        with pytest.raises(ConfigError, match=re.escape(TOO_SMALL)):
            make_sharing_task(*args, seed=0)


class OneTupleRng:
    """Draws only zeros, so the candidates hold one distinct tuple; counts them."""

    def __init__(self, order):
        self.order, self.drawn = order, 0

    def integers(self, low, high):
        self.drawn += np.size(high) // self.order
        return np.zeros(np.shape(high), dtype=np.int64)


@pytest.mark.parametrize("num_words", [2, 7, 64])
def test_the_attempt_cap_refuses_after_a_hundred_candidates_per_word(monkeypatch, num_words):
    fake = OneTupleRng(3)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: fake)
    with pytest.raises(ConfigError, match=re.escape(TOO_SMALL)):
        make_sharing_task(num_words, 30, 3, seed=0)
    assert fake.drawn == 100 * num_words


@pytest.mark.parametrize("bad, message", [
    (0, "need at least one word, got 0"),
    (-3, "need at least one word, got -3"),
])
def test_a_task_of_no_words_is_refused(bad, message):
    with pytest.raises(ConfigError, match=message):
        make_sharing_task(bad, 30, 3, seed=0)


@pytest.mark.parametrize("num_words, num_morphemes, gen_order, n, seed", [
    (300, 40, 3, 3, 1),    # pads only
    (300, 40, 5, 3, 2),    # pads and joined tails
    (200, 12, 4, 1, 3),    # every word joined into one slot
    (1, 5, 2, 4, 4),
])
def test_one_pass_vocab_and_index_equals_the_slot_loop(num_words, num_morphemes, gen_order, n,
                                                       seed):
    segs = make_segmentations(num_words, num_morphemes, gen_order, seed)
    vocab, index = build_vocab_and_index(segs, n)
    ref_vocab, ref_index = loop_vocab_and_index(segs, n)
    assert vocab.tokens == ref_vocab.tokens
    np.testing.assert_array_equal(index.rows, ref_index.rows)
    assert index.words == ref_index.words


def test_sharing_pairs_are_those_drawn_from_sets_sorted_up_front():
    # recorded when every word's set was sorted before the first draw
    _, _, sets = make_sharing_task(2000, 90, 3, seed=1)
    train, held = make_sharing_pairs(sets, 1000, 400, seed=2)
    assert hashlib.sha256(repr((train, held)).encode()).hexdigest() == (
        "49c519bb8af9e84a8031647bef0385d222b9d920d4cecd80fcf9b6437df607cc")
