"""Deterministic synthetic morphologies and desk-scale tasks.

Real corpora are ingested through segmentation files; everything here exists
so the trainer, the gradient checker, and the test suite can exercise the
morphological layers without external data.  All generators are pure
functions of their seed.
"""

from __future__ import annotations

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
    """
    if num_morphemes < order:
        raise ConfigError("need at least one morpheme per slot")
    rng = np.random.default_rng(seed)
    base, extra = divmod(num_morphemes, order)
    pools: list[list[str]] = []
    start = 0
    for k in range(order):
        size = base + (1 if k < extra else 0)
        pools.append([f"s{k}m{start + i}" for i in range(size)])
        start += size
    segs: list[Segmentation] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    while len(segs) < num_words:
        attempts += 1
        if attempts > 100 * num_words:
            raise ConfigError("morpheme pools too small for the requested word count")
        morphs = tuple(pool[int(rng.integers(0, len(pool)))] for pool in pools)
        if morphs in seen:
            continue
        seen.add(morphs)
        segs.append(Segmentation(f"w{len(segs)}_" + "-".join(morphs), morphs))
    vocab, index = build_vocab_and_index(segs, order)
    morph_sets = [set(s.morphemes) for s in segs]
    return vocab, index, morph_sets


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
    # sorted views keep sampling independent of set iteration order
    ordered_sets = [sorted(ms) for ms in morph_sets]
    by_morpheme: dict[str, list[int]] = {}
    for j, ms in enumerate(ordered_sets):
        for m in ms:
            by_morpheme.setdefault(m, []).append(j)

    used: set[tuple[int, int]] = set()

    # the attempt cap consumes no draws, so satisfiable requests are unchanged
    attempts = range(100 * n_words)
    too_few = f"{n_words} words cannot supply {num_train} train and {num_eval} eval pairs"

    def draw_positive():
        for _ in attempts:
            a = int(rng.integers(0, n_words))
            m = ordered_sets[a][int(rng.integers(0, len(ordered_sets[a])))]
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
