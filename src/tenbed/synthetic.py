"""Deterministic synthetic morphologies and desk-scale tasks.

Real corpora are ingested through segmentation files; everything here exists
so the trainer, the gradient checker, and the test suite can exercise the
morphological layers without external data.  All generators are pure
functions of their seed.  ``make_sharing_task`` takes its draws in bulk from
the same stream that one draw at a time would read, so a seed gives the same
task either way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .morphology import IndexMatrix, MorphemeVocab, Segmentation, build_vocab_and_index


def make_segmentations(
    num_words: int, num_morphemes: int, order: int, seed: int
) -> list[Segmentation]:
    """Random words over a synthetic morpheme pool ``m0..m{num_morphemes-1}``.

    Word j is a sequence of morphemes with length drawn uniformly in
    ``[1, order]``, so some words exercise the pad branch.
    """
    rng = np.random.default_rng(seed)
    pool = [f"m{i}" for i in range(num_morphemes)]
    segs: list[Segmentation] = []
    for j in range(num_words):
        length = int(rng.integers(1, order + 1))
        morphs = tuple(pool[i] for i in rng.integers(0, num_morphemes, size=length))
        # word names are unique by index; sequences may repeat across words
        segs.append(Segmentation(f"w{j}_" + "-".join(morphs), morphs))
    return segs


def make_morphology(
    num_words: int, num_morphemes: int, order: int, seed: int
) -> tuple[MorphemeVocab, IndexMatrix]:
    """Synthetic vocabulary and index for layer construction."""
    return build_vocab_and_index(make_segmentations(num_words, num_morphemes, order, seed), order)


def make_sharing_task(
    num_words: int,
    num_morphemes: int,
    order: int,
    seed: int,
) -> tuple[MorphemeVocab, IndexMatrix, list[set[str]]]:
    """Morphology plus each word's true morpheme set, for similarity labels.

    The pool is split into one sub-pool per slot (prefixes, roots, suffixes
    style), so a shared morpheme always occupies the same slot in both words.
    Word j is the j-th distinct candidate tuple, a candidate being one draw
    per slot in slot order.  Candidates are drawn in bulk, one bound per
    element, which takes exactly the stream of one scalar draw at a time; a
    request that the first ``100 * num_words`` candidates cannot meet is
    refused, and one with more words than distinct tuples before any draw.
    """
    if num_words < 1:
        raise ConfigError(f"need at least one word, got {num_words}")
    if num_morphemes < order:
        raise ConfigError("need at least one morpheme per slot")
    base, extra = divmod(num_morphemes, order)
    sizes = np.array([base + (1 if k < extra else 0) for k in range(order)], dtype=np.int64)
    too_small = "morpheme pools too small for the requested word count"
    if num_words > math.prod(sizes.tolist()):
        raise ConfigError(too_small)
    rng = np.random.default_rng(seed)

    def draw(count: int) -> np.ndarray:
        # drawing past the last accepted tuple is harmless: the stream is local
        return rng.integers(0, np.tile(sizes, count)).reshape(count, order)

    cap = 100 * num_words
    draws = draw(num_words)
    first = _first_rows(draws)
    while len(first) < num_words:
        if len(draws) == cap:
            raise ConfigError(too_small)
        draws = np.concatenate([draws, draw(min(len(draws), cap - len(draws)))])
        first = _first_rows(draws)
    slot_of = np.repeat(np.arange(order), sizes).tolist()
    names = np.array([f"s{k}m{g}" for g, k in enumerate(slot_of)], dtype=object)
    picked = draws[first[:num_words]] + (np.cumsum(sizes) - sizes)
    morphs = list(map(tuple, names[picked].tolist()))
    segs = list(map(Segmentation, [f"w{j}_" + "-".join(m) for j, m in enumerate(morphs)], morphs))
    vocab, index = build_vocab_and_index(segs, order)
    return vocab, index, list(map(set, morphs))


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending positions of each distinct row's first occurrence in ``rows``."""
    at = np.lexsort(rows.T)  # stable: equal rows keep their draw order
    ordered = rows[at]
    new = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    return np.sort(at[new])


def make_sharing_pairs(
    morph_sets: list[set[str]],
    num_train: int,
    num_eval: int,
    seed: int,
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Balanced labelled pairs: label 1 iff the two words share a morpheme.

    Train and eval sets are disjoint as unordered pairs.
    """
    rng = np.random.default_rng(seed)
    n_words = len(morph_sets)
    # each list names its words in ascending order, whatever the set order
    by_morpheme: dict[str, list[int]] = {}
    for j, ms in enumerate(morph_sets):
        for m in ms:
            by_morpheme.setdefault(m, []).append(j)

    used: set[tuple[int, int]] = set()

    # the attempt cap consumes no draws, so satisfiable requests are unchanged
    attempts = range(100 * n_words)
    too_few = f"{n_words} words cannot supply {num_train} train and {num_eval} eval pairs"

    def draw_positive():
        for _ in attempts:
            a = int(rng.integers(0, n_words))
            # sorted, so the morpheme drawn does not depend on set iteration order
            m = sorted(morph_sets[a])[int(rng.integers(0, len(morph_sets[a])))]
            peers = by_morpheme[m]
            b = peers[int(rng.integers(0, len(peers)))]
            key = (min(a, b), max(a, b))
            if a != b and key not in used:
                used.add(key)
                return (a, b, 1)
        raise ConfigError(too_few)

    def draw_negative():
        for _ in attempts:
            a, b = (int(x) for x in rng.integers(0, n_words, size=2))
            key = (min(a, b), max(a, b))
            if a != b and key not in used and not (morph_sets[a] & morph_sets[b]):
                used.add(key)
                return (a, b, 0)
        raise ConfigError(too_few)

    def draw_block(total):
        pairs = [draw_positive() for _ in range(total // 2)]
        pairs += [draw_negative() for _ in range(total - total // 2)]
        perm = rng.permutation(len(pairs))
        return [pairs[i] for i in perm]

    return draw_block(num_train), draw_block(num_eval)
