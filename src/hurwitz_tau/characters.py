"""Irreducible symmetric-group characters and the Schur/power-sum transition.

The workhorse is recursive border-strip removal (Murnaghan-Nakayama),
integer-exact and memoized.  An independent bialternant oracle recomputes
small characters from scratch so the recursion never has to be trusted
on its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from operator import mul

from .errors import ScaleGuardError, UsageError
from .partitions import (
    Partition,
    as_partition,
    colength,
    cycle_type,
    enumerate_partitions,
    weight,
    z_of,
)

_ORACLE_MAX = 6


def _beta_set(lam: Partition) -> tuple[int, ...]:
    # first-column hook lengths lam_i + (L-1-i); strictly decreasing
    L = len(lam)
    return tuple(lam[i] + L - 1 - i for i in range(L))


@cache
def _strip_removals(lam: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """(smaller_partition, (-1)^height) for each border strip of size r.

    Removing a strip of size r moves one beta number down by r onto a free
    slot; the strip height is the number of beta numbers jumped over.
    """
    beta = set(_beta_set(lam))
    L = len(lam)
    moves = []
    for b in sorted(beta, reverse=True):
        nb = b - r
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (L - 1 - i) for i, x in enumerate(new_beta))
        moves.append((tuple(p for p in new_lam if p > 0), -1 if height % 2 else 1))
    return tuple(moves)


@cache
def _character(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    return sum(sign * _character(smaller, mu[1:])
               for smaller, sign in _strip_removals(lam, mu[0]))


def character(lam, mu) -> int:
    """Character of the irreducible representation ``lam`` on class ``mu``."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if weight(lam) != weight(mu):
        raise UsageError(
            f"character needs |lam| == |mu|, got {weight(lam)} != {weight(mu)}",
            code="weight-mismatch",
        )
    return _character(lam, mu)


def character_table(n: int) -> list[tuple[Partition, list[int], int]]:
    """Character table of S_n, read as the transition s_lam = sum_mu
    chi_lam(mu)/z_mu p_mu in ints: (mu, [chi_lam(mu) for each lam], z_mu)
    per mu, both in enumeration order."""
    parts = enumerate_partitions(n)
    return [(mu, [_character(lam, mu) for lam in parts], z_of(mu)) for mu in parts]


def powersum_numerators(ints: list[int], rows) -> list[int]:
    """sum_lam ints[lam] chi_lam(mu) per row of :func:`character_table`: with
    Schur coefficients ints / L, the p_mu coefficient is this over L z_mu."""
    return [sum(map(mul, ints, row)) for _, row, _ in rows]


def schur_in_powersums(lam) -> dict[Partition, Fraction]:
    """Expansion coefficients of the Schur function over power-sum products.

    s_lam = sum_mu chi_lam(mu)/z_mu * p_mu, summed over |mu| = |lam|.
    """
    lam = as_partition(lam)
    rows = character_table(weight(lam))
    k = [mu for mu, _, _ in rows].index(lam)
    return {mu: Fraction(row[k], z) for mu, row, z in rows}


def _perm_sign(perm: tuple[int, ...]) -> int:
    return -1 if colength(cycle_type(perm)) % 2 else 1


@cache
def _oracle_row(mu: Partition) -> dict[Partition, int]:
    """All characters chi_lam(mu) at once, from first principles.

    Expand p_mu(x_1..x_n) * det(x_i^(n-j)) into monomials; the coefficient
    of x^(lam + delta) with delta = (n-1, ..., 0) is chi_lam(mu).  Nothing
    here shares code with the border-strip recursion.
    """
    n = weight(mu)
    delta = tuple(range(n - 1, -1, -1))
    poly: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(n)):
        exps = tuple(delta[perm[i]] for i in range(n))
        poly[exps] = poly.get(exps, 0) + _perm_sign(perm)
    for r in mu:
        nxt: dict[tuple[int, ...], int] = {}
        for exps, c in poly.items():
            for i in range(n):
                bumped = exps[:i] + (exps[i] + r,) + exps[i + 1:]
                nxt[bumped] = nxt.get(bumped, 0) + c
        poly = nxt
    row = {}
    for lam in enumerate_partitions(n):
        target = tuple(
            (lam[i] if i < len(lam) else 0) + delta[i] for i in range(n)
        )
        row[lam] = poly.get(target, 0)
    return row


def character_oracle(lam, mu) -> int:
    """Independent recomputation of chi_lam(mu); refuses weights above 6."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if weight(lam) != weight(mu):
        raise UsageError(
            f"character oracle needs |lam| == |mu|, got {weight(lam)} != {weight(mu)}",
            code="weight-mismatch",
        )
    if weight(lam) > _ORACLE_MAX:
        raise ScaleGuardError(
            f"character oracle is capped at weight {_ORACLE_MAX}, got {weight(lam)}"
        )
    return _oracle_row(mu)[lam]
