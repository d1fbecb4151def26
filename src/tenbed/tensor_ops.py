"""Flat tensor-product primitives every embedding layer is built from.

All vectors are 1-D float64 arrays and all products are returned in flattened
form: the product of a g-vector and an h-vector is a gh-vector whose entry at
``j*h + k`` is ``a[j] * b[k]``.  Chaining products therefore indexes the
result in mixed radix with the leftmost factor most significant.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ConfigError

Vector = np.ndarray


def _check_vector(v, name: str = "vector") -> Vector:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def tensor_product(a, b) -> Vector:
    """Flattened tensor product of two vectors.

    Returns the length ``len(a)*len(b)`` vector with ``out[j*h + k] ==
    a[j]*b[k]``.  Non-commutative: swapping the arguments permutes the output.
    """
    a = _check_vector(a, "left operand")
    b = _check_vector(b, "right operand")
    return np.outer(a, b).ravel()


def cumulative_tensor_product(vectors: Sequence) -> Vector:
    """Left-fold of :func:`tensor_product` over ``n`` equal-length vectors.

    For vectors of length q the result has length ``q**n`` and its entry at
    the mixed-radix index ``(i1, ..., in)`` equals ``prod_j vectors[j][i_j]``.
    """
    vs = [_check_vector(v, f"vectors[{i}]") for i, v in enumerate(vectors)]
    if not vs:
        raise ValueError("need at least one vector")
    q = vs[0].size
    for i, v in enumerate(vs):
        if v.size != q:
            raise ValueError(f"vectors[{i}] has length {v.size}, expected {q}")
    return reduce(tensor_product, vs)


def entangled_sum(groups: Sequence[Sequence]) -> Vector:
    """Sum of left-folded tensor products, one per group.

    ``groups`` holds r groups of n vectors; the result is the elementwise sum
    of the r simple tensors.  Vector lengths may differ within a group (one
    length per axis, as in per-axis factor matrices) as long as every group
    yields the same product length.  Rank-1 input with equal lengths reduces
    to :func:`cumulative_tensor_product`.
    """
    if len(groups) == 0:
        raise ValueError("need at least one group")
    n = len(groups[0])
    if n == 0:
        raise ValueError("need at least one vector per group")
    out = None
    for g, group in enumerate(groups):
        if len(group) != n:
            raise ValueError(f"group {g} has {len(group)} vectors, expected {n}")
        term = reduce(tensor_product, group) if n > 1 else _check_vector(group[0])
        if out is not None and term.size != out.size:
            raise ValueError(f"group {g} produces length {term.size}, expected {out.size}")
        out = term if out is None else out + term
    return out


def truncate_to(v, d: int) -> Vector:
    """Keep the first ``d`` coordinates of ``v``.

    The generating layer must be configured so the produced vector is at
    least d long; a shorter input is a configuration error, not a value
    error.
    """
    v = _check_vector(v)
    if d < 1:
        raise ValueError(f"target length must be positive, got {d}")
    if v.size < d:
        raise ConfigError(
            f"cannot truncate a length-{v.size} vector to {d}; "
            f"increase the per-factor size so the product covers the target dimension"
        )
    return v[:d].copy()
