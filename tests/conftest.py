"""Shared helpers: random small layer configs for every method kind."""

import zlib

import numpy as np

from tenbed.layers import LayerConfig, MethodKind, build
from tenbed.morphology import Segmentation, build_vocab_and_index
from tenbed.synthetic import make_morphology, make_segmentations

ALL_KINDS = list(MethodKind)


def stable_seed(*parts) -> int:
    """Process-independent seed from string parts (hash() is salted)."""
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


def random_config_and_context(kind, rng, seed=None):
    """A small random valid config plus vocab/index where the kind needs them."""
    if seed is None:
        seed = int(rng.integers(0, 2**31))
    kind = MethodKind(kind)
    vocab = index = None

    if kind is MethodKind.ORIGINAL:
        cfg = LayerConfig(kind, int(rng.integers(2, 30)), int(rng.integers(2, 20)), seed=seed)
    elif kind is MethodKind.MATRIX_FACTOR:
        cfg = LayerConfig(
            kind,
            int(rng.integers(2, 30)),
            int(rng.integers(2, 20)),
            rank=int(rng.integers(1, 5)),
            seed=seed,
        )
    elif kind is MethodKind.WORD2KET:
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 5))
        d = int(rng.integers(1, q**n + 1))
        cfg = LayerConfig(
            kind,
            int(rng.integers(2, 20)),
            d,
            order=n,
            rank=int(rng.integers(1, 4)),
            subdim=q,
            seed=seed,
        )
    elif kind in (MethodKind.MORPHTE, MethodKind.MORPHSUM, MethodKind.WORD2KET_RSHARE):
        n = int(rng.integers(2, 4))
        V = int(rng.integers(4, 20))
        n_morph = int(rng.integers(3, 9))
        if kind is MethodKind.MORPHSUM:
            d = int(rng.integers(2, 16))
            cfg = LayerConfig(kind, V, d, order=n, seed=seed)
        else:
            q = int(rng.integers(2, 5))
            d = int(rng.integers(1, q**n + 1))
            cfg = LayerConfig(
                kind, V, d, order=n, rank=int(rng.integers(1, 4)), subdim=q, seed=seed
            )
        if kind is MethodKind.WORD2KET_RSHARE:
            cfg = LayerConfig(
                kind,
                cfg.vocab_size,
                cfg.embed_dim,
                order=cfg.order,
                rank=cfg.rank,
                subdim=cfg.subdim,
                morpheme_vocab_size=n_morph + 1,
                seed=seed,
            )
        else:
            vocab, index = make_morphology(V, n_morph, n, seed=seed % 1000)
    else:  # tensor_train / word2ketxs
        n = int(rng.integers(2, 4))
        vf = tuple(int(rng.integers(2, 5)) for _ in range(n))
        df = tuple(int(rng.integers(2, 5)) for _ in range(n))
        V = int(rng.integers(2, int(np.prod(vf)) + 1))
        d = int(rng.integers(1, int(np.prod(df)) + 1))
        cfg = LayerConfig(
            kind,
            V,
            d,
            order=n,
            rank=int(rng.integers(1, 4)),
            vocab_factors=vf,
            dim_factors=df,
            seed=seed,
        )
    return cfg, vocab, index


def repeated_morpheme_morphology(num_words, num_morphemes, order, seed):
    """``make_morphology``'s draw with the first word reading one morpheme in every
    slot: the case where a word's gradients for one row must be summed first."""
    segs = make_segmentations(num_words, num_morphemes, order, seed)
    segs[0] = Segmentation(segs[0].word, (segs[0].morphemes[0],) * order)
    return build_vocab_and_index(segs, order)


def random_layer(kind, rng, seed=None):
    cfg, vocab, index = random_config_and_context(kind, rng, seed=seed)
    return build(cfg, vocab=vocab, index=index)
