"""Classical (possibly disconnected) Hurwitz numbers.

Two independent routes: the character-sum formula over irreducible
representations, and a brute-force count of permutation tuples whose
ordered product is the identity.  They must agree exactly, which is the
package's first acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import permutations, product
from math import factorial, prod
from operator import mul

from .characters import _character
from .errors import ScaleGuardError, UsageError
from .partitions import (
    Partition,
    as_partition,
    colength,
    cycle_type,
    identity_cycle_type,
    weight,
    z_of,
)

_ORACLE_MAX_N = 5
_ORACLE_MAX_K = 4


@dataclass(frozen=True)
class ProfileTuple:
    """Sheet count N plus ramification profiles, each a partition of N."""

    N: int
    profiles: tuple[Partition, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "profiles", tuple(as_partition(p) for p in self.profiles)
        )
        for p in self.profiles:
            if weight(p) != self.N:
                raise UsageError(
                    f"profile {p} has weight {weight(p)}, expected {self.N}",
                    code="profile-weight-mismatch",
                )

    @property
    def d(self) -> int:
        """Total colength, the branching defect in Riemann-Hurwitz."""
        return sum(colength(p) for p in self.profiles)


@lru_cache(maxsize=4096)
def _head(N: int, head: tuple[Partition, ...]) -> tuple[tuple[int, ...], int]:
    """Head vector v[lam] = h(lam)^len(head) prod_(p in head) chi_lam(p), per
    partition lam of N in enumeration order, and z_head = prod z_p; kept for
    the 4096 most recently used (N, head).

    The hook product is h(lam) = N!/dim(lam), with dim(lam) = chi_lam(1^N)
    read from the cached character column.
    """
    nfact = factorial(N)
    cols = [_character(p) for p in head]
    v = tuple(prod(chis, start=(nfact // dim) ** len(head))
              for dim, *chis in zip(_character(identity_cycle_type(N)), *cols))
    return v, prod(z_of(p) for p in head)


def _closing(a: Partition, b: Partition) -> tuple[list[int], int]:
    """chi_lam(a) chi_lam(b) per partition lam, and z_a z_b."""
    return list(map(mul, _character(a), _character(b))), z_of(a) * z_of(b)


def _close(N: int, head: tuple[Partition, ...], closing) -> Fraction:
    """H(head, a, b) = sum_lam v[lam] chi_lam(a) chi_lam(b) / (z_head z_a z_b),
    with ``closing = _closing(a, b)``."""
    v, z = _head(N, head)
    column, z_ab = closing
    return Fraction(sum(map(mul, v, column)), z * z_ab)


def hurwitz_number(pt: ProfileTuple) -> Fraction:
    """Character-sum evaluation, closed by the last two profiles (a, b):

        H(p_1..p_k) = sum_lam v[lam] chi_lam(a) chi_lam(b) / (z_head z_a z_b),

    with the head vector v[lam] = h(lam)^(k-2) prod_(p in head) chi_lam(p)
    over head = (p_1..p_(k-2)), cached per (N, head).  k = 1 closes with the
    identity class, since H(mu) = H(mu, 1^N).

    Counts all factorizations of the identity, i.e. possibly disconnected
    covers, exactly what the generating series produce.  The characters are
    integers, so the sum runs over ints with the z's cleared.
    """
    k = len(pt.profiles)
    if k < 1:
        raise UsageError("need at least one ramification profile", code="empty-profiles")
    profiles = pt.profiles if k >= 2 else pt.profiles + (identity_cycle_type(pt.N),)
    return _close(pt.N, profiles[:-2], _closing(*profiles[-2:]))


def riemann_hurwitz(pt: ProfileTuple) -> tuple[int, Fraction]:
    """Euler characteristic 2N - d and genus (2 - chi)/2, exact.

    The genus may be a non-integer rational; that signals there is no
    connected cover with these profiles.
    """
    chi = 2 * pt.N - pt.d
    return chi, Fraction(2 - chi, 2)


# -- permutation machinery for the oracle ----------------------------------

def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p[q[i]]."""
    return tuple(map(p.__getitem__, q))


@cache
def conjugacy_classes(n: int) -> dict[Partition, frozenset[tuple[int, ...]]]:
    """All of S_n bucketed by cycle type."""
    buckets: dict[Partition, list] = {}
    for p in permutations(range(n)):
        buckets.setdefault(cycle_type(p), []).append(p)
    return {ct: frozenset(ps) for ct, ps in buckets.items()}


def hurwitz_oracle(pt: ProfileTuple) -> Fraction:
    """Count tuples (s_1, ..., s_k), s_i in class mu^(i), with product id, over N!.

    The first factor is fixed to one sigma of its class C_1 and the count is
    multiplied by |C_1|: conjugating by g with g sigma g^-1 = sigma' maps
    the tuples that start with sigma one-to-one onto those that start with
    sigma', and keeps every factor in its class.  The last factor is forced
    to be the inverse of the partial product, so only classes 2..k-1 are
    enumerated; k = 1 closes with the identity class, as H(mu) = H(mu, 1^N).
    Reads no character.  Refuses to run past N = 5 or k = 4.
    """
    k = len(pt.profiles)
    if k < 1:
        raise UsageError("need at least one ramification profile", code="empty-profiles")
    if pt.N > _ORACLE_MAX_N or k > _ORACLE_MAX_K:
        raise ScaleGuardError(
            f"factorization oracle is capped at N <= {_ORACLE_MAX_N}, "
            f"k <= {_ORACLE_MAX_K}; got N={pt.N}, k={k}"
        )
    profiles = pt.profiles if k >= 2 else pt.profiles + (identity_cycle_type(pt.N),)
    classes = conjugacy_classes(pt.N)
    first, last = classes[profiles[0]], classes[profiles[-1]]
    sigma = next(iter(first))
    count = 0
    for choice in product(*(classes[p] for p in profiles[1:-1])):
        prod_perm = sigma
        for s in choice:
            prod_perm = compose(prod_perm, s)
        # s_k = inverse(product), and an inverse lies in the same class
        if prod_perm in last:
            count += 1
    return Fraction(count * len(first), factorial(pt.N))
