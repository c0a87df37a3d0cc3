from fractions import Fraction as F
from math import factorial, prod
from operator import mul

import pytest

from hurwitz_tau import characters
from hurwitz_tau.characters import (
    _strip_moves,
    character,
    character_oracle,
    character_table,
    schur_in_powersums,
)
from hurwitz_tau.errors import ScaleGuardError, UsageError
from hurwitz_tau.partitions import enumerate_partitions, hook_product, z_of
from det_reference import bialternant


def test_trivial_and_sign_representations():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert character((n,), mu) == 1
    assert character((1, 1, 1), (2, 1)) == -1  # sign of a transposition


def test_dimension_column():
    # chi_lam(1^n) = n!/h(lam)
    assert character((2, 1), (1, 1, 1)) == 2
    for n in range(1, 9):
        ones = (1,) * n
        for lam in enumerate_partitions(n):
            assert character(lam, ones) == factorial(n) // hook_product(lam)


def test_weight_mismatch_rejected():
    with pytest.raises(UsageError):
        character((2,), (1, 1, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_orthogonality(n):
    rows = character_table(n)
    parts = enumerate_partitions(n)
    assert [mu for mu, _, _ in rows] == parts
    assert [z for _, _, z in rows] == [z_of(mu) for mu in parts]
    for i, lam in enumerate(parts):
        for j, lam2 in enumerate(parts):
            acc = sum(F(chi[i] * chi[j], z) for _, chi, z in rows)
            assert acc == (1 if lam == lam2 else 0)
    for mu, chi_mu, z in rows:
        # each row lists chi_lam(mu) with lam in enumeration order
        assert chi_mu == tuple(character(lam, mu) for lam in parts)
        assert chi_mu is characters._character(mu)  # the cached column, not a copy
        for nu, chi_nu, _ in rows:
            acc = sum(a * b for a, b in zip(chi_mu, chi_nu))
            assert acc == (z if mu == nu else 0)


@pytest.mark.parametrize("n", range(9, 13))
def test_integer_orthogonality(n):
    # rows: sum_lam chi_lam(mu) chi_lam(nu) = z_mu [mu = nu]; columns:
    # sum_mu chi_lam(mu) chi_lam2(mu) n!/z_mu = n! [lam = lam2]
    rows = character_table(n)
    N = factorial(n)
    for i, (mu, chi_mu, z) in enumerate(rows):
        for nu, chi_nu, _ in rows[i:]:
            assert sum(map(mul, chi_mu, chi_nu)) == (z if mu == nu else 0)
    columns = list(zip(*(chi for _, chi, _ in rows)))
    classes = [N // z for _, _, z in rows]
    for i, a in enumerate(columns):
        for j in range(i, len(columns)):
            acc = sum(c * x * y for c, x, y in zip(classes, a, columns[j]))
            assert acc == (N if i == j else 0)


def _strip_removals(lam, r):
    """The border strips of size r of lam by beta sets: (smaller, sign) each."""
    L = len(lam)
    beta = {lam[i] + L - 1 - i for i in range(L)}
    moves = set()
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (L - 1 - i) for i, x in enumerate(new_beta))
        moves.add((tuple(p for p in new_lam if p > 0), -1 if height % 2 else 1))
    return moves


@pytest.mark.parametrize("n", range(1, 13))
def test_strip_moves_are_the_beta_set_removals(n):
    parts = enumerate_partitions(n)
    for r in range(1, n + 1):
        smaller = enumerate_partitions(n - r)
        table = _strip_moves(n, r)
        assert len(table) == len(parts)
        for lam, moves in zip(parts, table):
            got = {(smaller[i], sign) for i, sign in moves}
            assert len(got) == len(moves)
            assert got == _strip_removals(lam, r), (lam, r)


def test_character_cache_holds_one_column_per_class_suffix():
    characters._character.cache_clear()
    character_table(14)
    # every cached class is a partition of some m <= 14
    assert characters._character.cache_info().currsize <= sum(
        len(enumerate_partitions(m)) for m in range(15))


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_agrees_exhaustively(n):
    for lam in enumerate_partitions(n):
        for mu in enumerate_partitions(n):
            assert character(lam, mu) == character_oracle(lam, mu), (lam, mu)


def test_oracle_examples_and_guard():
    assert character_oracle((2, 1), (3,)) == -1
    assert character_oracle((4,), (2, 1, 1)) == 1
    with pytest.raises(ScaleGuardError):
        character_oracle((7,), (7,))


def test_schur_in_powersums():
    assert schur_in_powersums((1,)) == {(1,): F(1)}
    assert schur_in_powersums((2,)) == {(2,): F(1, 2), (1, 1): F(1, 2)}
    assert schur_in_powersums((1, 1)) == {(2,): F(-1, 2), (1, 1): F(1, 2)}
    # every |lam| <= 6 against the bialternant at m = 1..3 rational points
    points = (F(1, 2), F(-1, 3), F(2, 5))
    for n in range(7):
        for lam in enumerate_partitions(n):
            expansion = schur_in_powersums(lam)
            for m in (1, 2, 3):
                xs = points[:m]
                via_powersums = sum(
                    c * prod(sum(x ** part for x in xs) for part in mu)
                    for mu, c in expansion.items()
                )
                assert via_powersums == bialternant(lam, xs), (lam, m)
