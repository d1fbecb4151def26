import itertools

import numpy as np
import pytest

from tenbed.errors import ConfigError
from tenbed.tensor_ops import (
    cumulative_tensor_product,
    entangled_sum,
    tensor_product,
    truncate_to,
)


# --- independent oracles -------------------------------------------------
# Naive index-formula evaluations, kept separate from the implementation on
# purpose: they loop over every output coordinate.

def naive_tensor_product(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    out = np.empty(a.size * b.size)
    for j in range(a.size):
        for k in range(b.size):
            out[j * b.size + k] = a[j] * b[k]
    return out


def naive_cumulative(vectors):
    vectors = [np.asarray(v, float) for v in vectors]
    lengths = [v.size for v in vectors]
    out = np.empty(int(np.prod(lengths)))
    for flat, digits in enumerate(itertools.product(*(range(q) for q in lengths))):
        prod = 1.0
        for v, i in zip(vectors, digits):
            prod *= v[i]
        out[flat] = prod
    return out


def test_tensor_product_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(rng.integers(1, 6))
        b = rng.standard_normal(rng.integers(1, 6))
        np.testing.assert_array_equal(tensor_product(a, b), naive_tensor_product(a, b))


def test_tensor_product_two_by_three_layout():
    a1, a2 = 2.0, 3.0
    b1, b2, b3 = 5.0, 7.0, 11.0
    out = tensor_product([a1, a2], [b1, b2, b3])
    np.testing.assert_array_equal(
        out, [a1 * b1, a1 * b2, a1 * b3, a2 * b1, a2 * b2, a2 * b3]
    )


def test_tensor_product_scalar_identity():
    np.testing.assert_array_equal(tensor_product([1.0], [4.0, 5.0, 6.0]), [4.0, 5.0, 6.0])


def test_tensor_product_frozen_values():
    # direct evaluation of the defining formula on [2,3] x [5,7]
    np.testing.assert_array_equal(tensor_product([2.0, 3.0], [5.0, 7.0]), [10.0, 14.0, 15.0, 21.0])


def test_tensor_product_rejects_empty():
    with pytest.raises(ValueError):
        tensor_product([], [1.0])
    with pytest.raises(ValueError):
        tensor_product([1.0], [])


def test_cumulative_product_order3_expansion():
    # full 8-term expansion for three 2-vectors; values chosen so every
    # product of one entry per factor is distinct
    a = np.array([2.0, 3.0])
    b = np.array([5.0, 7.0])
    c = np.array([11.0, 13.0])
    out = cumulative_tensor_product([a, b, c])
    expected = [
        a[0] * b[0] * c[0],
        a[0] * b[0] * c[1],
        a[0] * b[1] * c[0],
        a[0] * b[1] * c[1],
        a[1] * b[0] * c[0],
        a[1] * b[0] * c[1],
        a[1] * b[1] * c[0],
        a[1] * b[1] * c[1],
    ]
    np.testing.assert_array_equal(out, expected)
    # index-formula form: out[4i + 2j + k] == a[i] b[j] c[k]
    for i, j, k in itertools.product(range(2), repeat=3):
        assert out[4 * i + 2 * j + k] == a[i] * b[j] * c[k]


def test_cumulative_product_single_vector_is_identity():
    v = np.array([1.5, -2.0, 0.25])
    np.testing.assert_array_equal(cumulative_tensor_product([v]), v)


def test_cumulative_product_spot_index_against_triple_loop():
    rng = np.random.default_rng(7)
    vs = [rng.standard_normal(3) for _ in range(3)]
    out = cumulative_tensor_product(vs)
    i, j, k = 2, 0, 1
    assert out[i * 9 + j * 3 + k] == pytest.approx(vs[0][i] * vs[1][j] * vs[2][k], rel=1e-15)
    np.testing.assert_allclose(out, naive_cumulative(vs), rtol=1e-13)


def test_cumulative_product_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        cumulative_tensor_product([[1.0, 2.0], [1.0, 2.0, 3.0]])


def test_entangled_sum_rank1_equals_cumulative():
    rng = np.random.default_rng(1)
    group = [rng.standard_normal(3) for _ in range(2)]
    np.testing.assert_array_equal(entangled_sum([group]), cumulative_tensor_product(group))


def test_entangled_sum_zero_group_is_additive_identity():
    rng = np.random.default_rng(2)
    g1 = [rng.standard_normal(2) for _ in range(3)]
    g2 = [np.zeros(2) for _ in range(3)]
    np.testing.assert_array_equal(entangled_sum([g1, g2]), cumulative_tensor_product(g1))


def test_entangled_sum_rank2_against_oracle():
    g1 = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    g2 = [np.array([5.0, 6.0]), np.array([7.0, 8.0])]
    expected = naive_tensor_product(g1[0], g1[1]) + naive_tensor_product(g2[0], g2[1])
    np.testing.assert_array_equal(entangled_sum([g1, g2]), expected)


def test_entangled_sum_rejects_ragged_groups():
    g1 = [np.ones(2), np.ones(2)]
    g2 = [np.ones(2)]
    with pytest.raises(ValueError):
        entangled_sum([g1, g2])
    g3 = [np.ones(3), np.ones(3)]
    with pytest.raises(ValueError):
        entangled_sum([g1, g3])


def test_entangled_sum_per_axis_lengths_against_oracle():
    # lengths may differ within a group as long as every group's product is 24 long
    rng = np.random.default_rng(7)
    groups = [[rng.standard_normal(q) for q in (2, 3, 4)] for _ in range(3)]
    expected = sum(naive_cumulative(group) for group in groups)
    np.testing.assert_array_equal(entangled_sum(groups), expected)
    with pytest.raises(ValueError):
        entangled_sum([groups[0], [np.ones(2), np.ones(3), np.ones(5)]])


def test_truncate_to():
    v = np.arange(8, dtype=float)
    np.testing.assert_array_equal(truncate_to(v, 8), v)
    np.testing.assert_array_equal(truncate_to(v, 5), v[:5])
    with pytest.raises(ConfigError):
        truncate_to(v, 9)


def test_truncate_exact_power_is_noop():
    # q=8, n=3 covers d=512 exactly
    v = np.random.default_rng(3).standard_normal(8 ** 3)
    np.testing.assert_array_equal(truncate_to(v, 512), v)


# --- algebraic properties -------------------------------------------------

def test_bilinearity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, a2 = rng.standard_normal(4), rng.standard_normal(4)
        b = rng.standard_normal(5)
        alpha, beta = rng.standard_normal(2)
        left = tensor_product(alpha * a + beta * a2, b)
        right = alpha * tensor_product(a, b) + beta * tensor_product(a2, b)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)
        # and in the second argument
        left = tensor_product(b, alpha * a + beta * a2)
        right = alpha * tensor_product(b, a) + beta * tensor_product(b, a2)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)


def test_non_commutativity_witness():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0, 5.0])
    ab = tensor_product(a, b)
    ba = tensor_product(b, a)
    assert not np.array_equal(ab, ba)
    # the two orders agree exactly after transposing the index grid
    np.testing.assert_array_equal(ab.reshape(2, 3), ba.reshape(3, 2).T)


def test_norm_multiplicativity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal(rng.integers(1, 7))
        b = rng.standard_normal(rng.integers(1, 7))
        lhs = np.linalg.norm(tensor_product(a, b))
        rhs = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-300)


def test_fold_direction_agrees_with_index_formula():
    # left fold == right fold == mixed-radix oracle, for random small shapes
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(1, 5))
        vs = [rng.standard_normal(q) for _ in range(n)]
        left = cumulative_tensor_product(vs)
        right = vs[0]
        for v in vs[1:]:
            right = tensor_product(right, v)
        # explicit right-assocated fold
        folded = vs[-1]
        for v in reversed(vs[:-1]):
            folded = tensor_product(v, folded)
        oracle = naive_cumulative(vs)
        np.testing.assert_allclose(left, oracle, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(folded, oracle, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(left, right)
