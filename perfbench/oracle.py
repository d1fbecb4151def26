"""Independent reference computations the benchmark checks tenbed against.

The oracle derives each word's embedding straight from ``layer.params`` with
``np.kron``/``np.einsum``, and which parameter rows that embedding reads, from
the layer's config alone.  It shares no code with ``tenbed.layers`` or
``tenbed.gradients`` beyond reading the config, params and index.
"""

from __future__ import annotations

import string
from functools import reduce

import numpy as np

import tenbed.gradients
import tenbed.layers

FORWARD_RTOL = 1e-12
GRADCHECK_EPS = 1e-5
GRADCHECK_RTOL = 1e-6


def _digits(cfg, word_id: int) -> tuple[int, ...]:
    return tuple(int(x) for x in np.unravel_index(word_id, cfg.vocab_factors))


def _kron_all(vectors) -> np.ndarray:
    return reduce(np.kron, vectors)


def rows_read(layer, word_id: int) -> dict[str, np.ndarray]:
    """Block name -> the sorted rows of that block one word's embedding reads."""
    cfg = layer.config
    kind = cfg.kind.value
    word = np.array([word_id])
    if kind == "original":
        return {"weight": word}
    if kind == "matrix_factor":
        return {"factor_left": word, "factor_right": np.arange(cfg.rank)}
    if kind == "word2ket":
        return {"word_factors": word}
    if kind in ("morphte", "word2ket_rshare"):
        ids = np.unique(layer.index.rows[word_id])
        return {f"morpheme_embed_{i}": ids for i in range(cfg.rank)}
    if kind == "morphsum":
        return {"surface_embed": word, "morpheme_embed": np.unique(layer.index.rows[word_id])}
    digits = _digits(cfg, word_id)
    if kind == "tensor_train":
        return {f"tt_core_{k}": np.array([digits[k]]) for k in range(cfg.order)}
    if kind == "word2ketxs":
        return {
            f"xs_factor_{i}_{j}": np.array([digits[j]])
            for i in range(cfg.rank)
            for j in range(cfg.order)
        }
    raise ValueError(f"no oracle for kind {kind!r}")


def _tensor_train(cfg, params, word_id: int) -> np.ndarray:
    digits, r, df, n = _digits(cfg, word_id), cfg.rank, cfg.dim_factors, cfg.order
    cores = [params["tt_core_0"][digits[0]].reshape(df[0], r)]
    cores += [params[f"tt_core_{k}"][digits[k]].reshape(r, df[k], r) for k in range(1, n - 1)]
    cores.append(params[f"tt_core_{n - 1}"][digits[n - 1]].reshape(r, df[n - 1]))
    # core k carries output axis out[k]; rank edges are the letters after them
    out, edge = string.ascii_lowercase[:n], string.ascii_uppercase[: n - 1]
    terms = [out[0] + edge[0]]
    terms += [edge[k - 1] + out[k] + edge[k] for k in range(1, n - 1)]
    terms.append(edge[n - 2] + out[n - 1])
    return np.einsum(",".join(terms) + "->" + out, *cores).ravel()


def oracle_forward(layer, word_id: int) -> np.ndarray:
    cfg, params = layer.config, layer.params
    kind, r, n = cfg.kind.value, cfg.rank, cfg.order
    if kind == "original":
        return params["weight"][word_id].copy()
    if kind == "matrix_factor":
        return np.einsum("r,rd->d", params["factor_left"][word_id], params["factor_right"])
    if kind == "morphsum":
        ids = layer.index.rows[word_id]
        return params["surface_embed"][word_id] + params["morpheme_embed"][ids].sum(axis=0)
    if kind == "tensor_train":
        full = _tensor_train(cfg, params, word_id)
    elif kind == "word2ket":
        row = params["word_factors"][word_id].reshape(r, n, -1)
        full = sum(_kron_all(row[i]) for i in range(r))
    elif kind in ("morphte", "word2ket_rshare"):
        ids = layer.index.rows[word_id]
        full = sum(_kron_all(params[f"morpheme_embed_{i}"][ids]) for i in range(r))
    elif kind == "word2ketxs":
        digits = _digits(cfg, word_id)
        full = sum(
            _kron_all([params[f"xs_factor_{i}_{j}"][digits[j]] for j in range(n)])
            for i in range(r)
        )
    else:
        raise ValueError(f"no oracle for kind {kind!r}")
    return full[: cfg.embed_dim]


def forward_matches(layer, word_id: int, got: np.ndarray) -> bool:
    """``got`` equals the oracle embedding of ``word_id`` to rtol 1e-12.

    The absolute floor is 1e-12 of the vector's largest entry, so entries
    that cancel to almost zero are compared at the vector's own scale.
    """
    want = oracle_forward(layer, word_id)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    atol = FORWARD_RTOL * float(np.max(np.abs(want), initial=0.0))
    return bool(np.allclose(got, want, rtol=FORWARD_RTOL, atol=atol))


def gradient_matches(layer, word_id: int, rng: np.random.Generator) -> bool:
    """Central difference of ``<u, forward>`` along a random direction.

    The direction spans every row the word reads; ``backward`` must return
    zeros everywhere else.  Parameters are restored bit-exactly afterwards.
    """
    cfg, params = layer.config, layer.params
    u = rng.standard_normal(cfg.embed_dim)
    grads = {s.param_name: s.grad for s in tenbed.gradients.backward(layer, word_id, u)}
    if list(grads) != list(params):
        return False
    read = rows_read(layer, word_id)
    for name, g in grads.items():
        if g.shape != params[name].shape:
            return False
        inside = np.count_nonzero(g[read[name]]) if name in read else 0
        if np.count_nonzero(g) != inside:
            return False
    directions = {name: rng.standard_normal((len(rows), params[name].shape[1]))
                  for name, rows in read.items()}
    analytic = sum(float(np.sum(grads[name][rows] * directions[name]))
                   for name, rows in read.items())
    saved = {name: params[name][rows].copy() for name, rows in read.items()}

    def along(step: float) -> float:
        for name, rows in read.items():
            params[name][rows] = saved[name] + step * directions[name]
        return float(u @ tenbed.layers.forward(layer, word_id))

    try:
        numeric = (along(GRADCHECK_EPS) - along(-GRADCHECK_EPS)) / (2 * GRADCHECK_EPS)
    finally:
        for name, rows in read.items():
            params[name][rows] = saved[name]
    return abs(numeric - analytic) <= GRADCHECK_RTOL * max(1.0, abs(analytic))


def _bits(block: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(block).view(np.int64)


def roundtrip_matches(before, after, word_ids) -> bool:
    """A loaded layer is bit-identical to the saved one: params and outputs."""
    if list(before.params) != list(after.params) or before.config != after.config:
        return False
    for name, block in before.params.items():
        loaded = after.params[name]
        if loaded.dtype != block.dtype or not np.array_equal(_bits(loaded), _bits(block)):
            return False
    if (before.index is None) != (after.index is None):
        return False
    if before.index is not None and not np.array_equal(before.index.rows, after.index.rows):
        return False
    return all(
        tenbed.layers.forward(before, int(w)).tobytes()
        == tenbed.layers.forward(after, int(w)).tobytes()
        for w in word_ids
    )
