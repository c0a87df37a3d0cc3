from fractions import Fraction as F
from math import factorial

import pytest

from hurwitz_tau.errors import UsageError
from hurwitz_tau.partitions import (
    _conjugates,
    as_partition,
    colength,
    contents,
    enumerate_partitions,
    format_partition,
    hook_product,
    parse_partition,
    weight,
    z_of,
)
from det_reference import leibniz_det


def pentagonal_partition_count(n: int) -> int:
    """Euler's pentagonal-number recurrence, independent of the enumerator."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def test_enumeration_counts_match_recurrence():
    for n in range(41):
        assert len(enumerate_partitions(n)) == pentagonal_partition_count(n)


def test_enumeration_order_and_basics():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert len(enumerate_partitions(6)) == 11
    # reverse-lexicographic: every partition sorts after its successor
    for n in range(1, 26):
        parts = enumerate_partitions(n)
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))
        assert parts[0] == (n,)
        assert all(weight(p) == n for p in parts)
    with pytest.raises(UsageError):
        enumerate_partitions(-1)


def test_z_of():
    assert z_of((2,)) == 2
    assert z_of((1, 1, 1)) == 6
    assert z_of((3, 1, 1)) == 6
    assert z_of(()) == 1


def test_colength():
    assert colength((1, 1, 1, 1)) == 0
    assert colength((4,)) == 3
    assert colength((2, 1)) == 1


def test_hook_product():
    assert hook_product((1,)) == 1
    assert hook_product((2, 1)) == 3
    assert hook_product((2, 2)) == 12
    assert hook_product(()) == 1


def _inverse_factorial(m: int) -> F:
    return F(1, factorial(m)) if m >= 0 else F(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_hook_product_against_factorial_determinant(n):
    # h(lam) equals the inverse of det(1/(lam_i - i + j)!)
    for lam in enumerate_partitions(n):
        ell = len(lam)
        rows = [
            [_inverse_factorial(lam[i] - (i + 1) + (j + 1)) for j in range(ell)]
            for i in range(ell)
        ]
        assert leibniz_det(rows) == F(1, hook_product(lam))


def test_contents():
    assert contents((1,)) == [0]
    assert sorted(contents((2, 1))) == [-1, 0, 1]
    assert contents((3,)) == [0, 1, 2]
    assert contents(()) == []


@pytest.mark.parametrize("n", range(11))
def test_conjugate_index(n):
    # lambda' has the transposed cells, so the negated contents;
    # conjugation is an involution
    parts = enumerate_partitions(n)
    conj = _conjugates(n)
    for lam, k in zip(parts, conj):
        cells = {(i, j) for i, row in enumerate(lam) for j in range(row)}
        assert {(i, j) for i, row in enumerate(parts[k]) for j in range(row)} == {
            (j, i) for i, j in cells}
        assert sorted(contents(parts[k])) == sorted(-c for c in contents(lam))
        assert conj[k] == parts.index(lam)
    assert conj[0] == len(parts) - 1  # (n) and (1^n)


@pytest.mark.parametrize("n", range(9))
def test_dimension_identity(n):
    # sum over lam of dim(lam)^2 = n!, with dim = n!/h(lam)
    total = sum(
        F(factorial(n), hook_product(lam)) ** 2 for lam in enumerate_partitions(n)
    )
    assert total == factorial(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_class_sizes_sum_to_group_order(n):
    assert sum(factorial(n) // z_of(mu) for mu in enumerate_partitions(n)) == factorial(n)


def test_partition_strings():
    assert format_partition((3, 1, 1)) == "[3,1,1]"
    assert format_partition(()) == "[]"
    assert parse_partition("[3,1,1]") == (3, 1, 1)
    assert parse_partition("[]") == ()
    assert parse_partition("[1,3,1]") == (3, 1, 1)  # canonicalized
    with pytest.raises(UsageError):
        parse_partition("3,1")
    with pytest.raises(UsageError):
        parse_partition("[3,0]")
    with pytest.raises(UsageError):
        as_partition([2, -1])
