"""Irreducible symmetric-group characters and the Schur/power-sum transition.

The workhorse is recursive border-strip removal (Murnaghan-Nakayama),
integer-exact and memoized one class column at a time.  An independent
bialternant oracle recomputes small characters from scratch so the
recursion never has to be trusted on its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations

from .errors import ScaleGuardError, UsageError
from .partitions import (
    Partition,
    _centralizers,
    as_partition,
    colength,
    cycle_type,
    enumerate_partitions,
    weight,
)

_ORACLE_MAX = 6


@cache
def _strip_moves(n: int, r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(index among the partitions of n - r, (-1)^height) for each border
    strip of size r, per partition of n in enumeration order.

    The beta numbers lam_i + n - 1 - i of lam padded with zeros to n parts
    are the bits of one int.
    Removing a strip moves a bead down r onto a free slot; the strip
    height is the number of beads it jumps.
    """
    def beads(lam):
        return sum((1 << p + n - 1 - i for i, p in enumerate(lam)), (1 << n - len(lam)) - 1)

    def moves(b):
        free = b >> r & ~b  # bit j: slot j is free and slot j + r holds a bead
        while free:
            j = (free & -free).bit_length() - 1
            jumped = (b >> j + 1) & ((1 << r - 1) - 1)
            yield index[b ^ (1 << j | 1 << j + r)], -1 if jumped.bit_count() & 1 else 1
            free &= free - 1

    index = {beads(mu): i for i, mu in enumerate(enumerate_partitions(n - r))}
    return tuple(tuple(moves(beads(lam))) for lam in enumerate_partitions(n))


@cache
def _character(mu: Partition) -> tuple[int, ...]:
    """chi_lam(mu) for every partition lam of |mu|, in enumeration order:
    strip mu[0] off every lam and read the column of mu[1:]."""
    if not mu:
        return (1,)
    rest = _character(mu[1:])
    return tuple(sum([sign * rest[i] for i, sign in moves])
                 for moves in _strip_moves(weight(mu), mu[0]))


def character(lam, mu) -> int:
    """Character of the irreducible representation ``lam`` on class ``mu``;
    one value builds and caches the whole column of mu and of each suffix
    mu[i:], p(|mu[i:]|) ints each: 28629 ints for mu = (1^30)."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if weight(lam) != weight(mu):
        raise UsageError(
            f"character needs |lam| == |mu|, got {weight(lam)} != {weight(mu)}",
            code="weight-mismatch",
        )
    return _character(mu)[enumerate_partitions(weight(mu)).index(lam)]


def character_table(n: int) -> list[tuple[Partition, tuple[int, ...], int]]:
    """Character table of S_n, read as the transition s_lam = sum_mu
    chi_lam(mu)/z_mu p_mu in ints: (mu, chi, z_mu) per mu, in enumeration
    order, where chi is the cached column tuple (chi_lam(mu) for each lam, in
    enumeration order) itself, not a copy."""
    return [(mu, _character(mu), z)
            for mu, z in zip(enumerate_partitions(n), _centralizers(n))]


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
