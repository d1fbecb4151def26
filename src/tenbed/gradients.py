"""Hand-derived reverse-mode gradients for every layer's forward map.

Each forward map is a shallow fixed-shape multilinear expression, so the
adjoints are written out instead of built as a general autodiff graph; the
four tensor-product kinds share one, over the row views of ``_ket_groups``.
Truncation to the embedding dimension is adjointed by zero-padding the
upstream vector back to the full product length.  When a word references the
same parameter row several times (repeated morphemes), the positional
contributions are summed, which is the correct total derivative.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, WordLookupError
from .layers import (
    TENSOR_PRODUCT_KINDS,
    EmbeddingLayer,
    MethodKind,
    _ket_groups,
    _tensor_train_chain,
    mixed_radix_digits,
)

_AXIS_LETTERS = string.ascii_lowercase


@dataclass
class GradSlot:
    """Gradient buffer aligned with one named parameter block."""

    param_name: str
    grad: np.ndarray


def _pad_upstream(upstream: np.ndarray, full_size: int) -> np.ndarray:
    u = np.asarray(upstream, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"upstream must be 1-D, got shape {u.shape}")
    if u.size == full_size:
        return u
    if u.size > full_size:
        raise ValueError(f"upstream length {u.size} exceeds product size {full_size}")
    padded = np.zeros(full_size)
    padded[: u.size] = u
    return padded


def _chain_grads(vectors: list[np.ndarray], u_full: np.ndarray) -> list[np.ndarray]:
    """Gradients of <u, v1 x ... x vn> w.r.t. each vk.

    Contracts the upstream tensor with every vector except the one being
    differentiated; works for heterogeneous factor lengths.
    """
    n = len(vectors)
    if n == 1:
        return [u_full.copy()]
    letters = _AXIS_LETTERS[:n]
    shaped = u_full.reshape(tuple(v.size for v in vectors))
    grads = []
    for k in range(n):
        others = [vectors[m] for m in range(n) if m != k]
        spec = (
            letters
            + ","
            + ",".join(letters[m] for m in range(n) if m != k)
            + "->"
            + letters[k]
        )
        grads.append(np.einsum(spec, shaped, *others))
    return grads


def backward(layer: EmbeddingLayer, word_id: int, upstream: np.ndarray) -> list[GradSlot]:
    """Gradient of ``<upstream, forward(layer, word_id)>`` per parameter block.

    Returns one slot per block in the block order used at build time; rows
    not referenced by the word are exactly zero.
    """
    cfg = layer.config
    u = np.asarray(upstream, dtype=np.float64)
    if u.ndim != 1 or u.size != cfg.embed_dim:
        raise ValueError(f"upstream must have length {cfg.embed_dim}, got shape {u.shape}")
    if not 0 <= word_id < cfg.vocab_size:
        raise WordLookupError(f"word id {word_id} out of range [0, {cfg.vocab_size})")
    kind = cfg.kind
    grads = {name: np.zeros_like(p) for name, p in layer.params.items()}

    if kind is MethodKind.ORIGINAL:
        grads["weight"][word_id] = u

    elif kind is MethodKind.MATRIX_FACTOR:
        a = layer.params["factor_left"][word_id]
        b = layer.params["factor_right"]
        grads["factor_left"][word_id] = b @ u
        grads["factor_right"] += np.outer(a, u)

    elif kind in TENSOR_PRODUCT_KINDS:
        groups = _ket_groups(layer, layer.params, word_id)
        u_full = _pad_upstream(u, math.prod(v.size for v in groups[0]))
        for vecs, views in zip(groups, _ket_groups(layer, grads, word_id)):
            for view, g in zip(views, _chain_grads(vecs, u_full)):
                view += g  # a repeated morpheme's views share a row and accumulate

    elif kind is MethodKind.MORPHSUM:
        ids = layer.index.row(word_id)
        grads["surface_embed"][word_id] = u
        g = grads["morpheme_embed"]
        for m in ids:
            g[m] += u

    elif kind is MethodKind.TENSOR_TRAIN:
        _tensor_train_backward(layer, word_id, u, grads)

    else:
        raise ConfigError(f"unknown method kind {kind!r}")

    return [GradSlot(name, grads[name]) for name in layer.params]


def _tensor_train_backward(layer, word_id, u, grads):
    cfg = layer.config
    digits = mixed_radix_digits(word_id, cfg.vocab_factors)
    df, n = cfg.dim_factors, cfg.order
    u_full = _pad_upstream(u, math.prod(df))
    cores, carries = _tensor_train_chain(layer, digits)

    u_mat = u_full.reshape(-1, df[n - 1])
    grads[f"tt_core_{n - 1}"][digits[n - 1]] += (carries[-1].T @ u_mat).ravel()
    grad_carry = u_mat @ cores[-1].T
    for k in range(n - 2, 0, -1):
        grad_flat = grad_carry.reshape(-1, cores[k].shape[1])
        grads[f"tt_core_{k}"][digits[k]] += (carries[k - 1].T @ grad_flat).ravel()
        grad_carry = grad_flat @ cores[k].T
    grads["tt_core_0"][digits[0]] += grad_carry.ravel()


def touched_rows(layer: EmbeddingLayer, word_id: int) -> dict[str, list[int]]:
    """Rows of each parameter block that participate in one word's forward."""
    cfg = layer.config
    kind = cfg.kind
    if kind is MethodKind.ORIGINAL:
        return {"weight": [word_id]}
    if kind is MethodKind.MATRIX_FACTOR:
        return {"factor_left": [word_id], "factor_right": list(range(cfg.rank))}
    if kind is MethodKind.WORD2KET:
        return {"word_factors": [word_id]}
    if kind in (MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE):
        ids = sorted({int(m) for m in layer.index.row(word_id)})
        return {f"morpheme_embed_{i}": ids for i in range(cfg.rank)}
    if kind is MethodKind.MORPHSUM:
        ids = sorted({int(m) for m in layer.index.row(word_id)})
        return {"surface_embed": [word_id], "morpheme_embed": ids}
    if kind is MethodKind.TENSOR_TRAIN:
        digits = mixed_radix_digits(word_id, cfg.vocab_factors)
        return {f"tt_core_{k}": [digits[k]] for k in range(cfg.order)}
    if kind is MethodKind.WORD2KETXS:
        digits = mixed_radix_digits(word_id, cfg.vocab_factors)
        return {
            f"xs_factor_{i}_{j}": [digits[j]]
            for i in range(cfg.rank)
            for j in range(cfg.order)
        }
    raise ConfigError(f"unknown method kind {kind!r}")


@dataclass
class FiniteDiffReport:
    word_id: int
    epsilon: float
    tolerance: float
    checked: int
    max_rel_error: float
    failures: list[tuple[str, int, int, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def finite_diff_check(
    layer: EmbeddingLayer,
    word_id: int,
    epsilon: float = 1e-5,
    tolerance: float = 1e-5,
    seed: int = 0,
) -> FiniteDiffReport:
    """Compare the analytic adjoint against central differences.

    Every parameter entry touched by the word is perturbed both ways and the
    directional derivative against a random upstream is compared with the
    analytic slot value via the Jacobian-vector identity.  Exceeding the
    tolerance is recorded in the report, never raised.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    cfg = layer.config
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(cfg.embed_dim)
    slots = {s.param_name: s.grad for s in backward(layer, word_id, u)}

    max_rel = 0.0
    checked = 0
    failures: list[tuple[str, int, int, float, float]] = []
    for name, rows in touched_rows(layer, word_id).items():
        block = layer.params[name]
        for row in rows:
            for col in range(block.shape[1]):
                theta = block[row, col]
                hi, lo = theta + epsilon, theta - epsilon
                block[row, col] = hi
                y_hi = layer.forward(word_id)
                block[row, col] = lo
                y_lo = layer.forward(word_id)
                block[row, col] = theta
                # divide by the realised step, the exact adjoint of the
                # perturbation actually applied
                numeric = float(u @ (y_hi - y_lo)) / (hi - lo)
                analytic = float(slots[name][row, col])
                denom = max(abs(numeric), abs(analytic), 1e-3)
                rel = abs(numeric - analytic) / denom
                checked += 1
                if rel > max_rel:
                    max_rel = rel
                if rel > tolerance:
                    failures.append((name, row, col, analytic, numeric))
    return FiniteDiffReport(
        word_id=word_id,
        epsilon=epsilon,
        tolerance=tolerance,
        checked=checked,
        max_rel_error=max_rel,
        failures=failures,
    )
