"""Classical (possibly disconnected) Hurwitz numbers.

Two independent routes: the character-sum formula over irreducible
representations, and a brute-force count of permutation tuples whose
ordered product is the identity.  They must agree exactly, which is the
package's first acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import factorial, prod

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


def hurwitz_number(pt: ProfileTuple) -> Fraction:
    """Character-sum evaluation: sum_lam h(lam)^(k-2) prod_j chi/z.

    Counts all factorizations of the identity, i.e. possibly disconnected
    covers, exactly what the generating series produce.  The characters are
    integers, so the sum runs over ints with the z's cleared.  The hook
    product is h(lam) = N!/dim(lam), with dim(lam) = chi_lam(1^N) read from
    the cached character column; for k = 1, 1/h(lam) = dim(lam)/N!.
    """
    k = len(pt.profiles)
    if k < 1:
        raise UsageError("need at least one ramification profile", code="empty-profiles")
    nfact = factorial(pt.N)
    scale = 1 if k >= 2 else nfact
    total = 0
    for dim, *chis in zip(_character(identity_cycle_type(pt.N)), *map(_character, pt.profiles)):
        total += prod(chis, start=(nfact // dim) ** (k - 2) if k >= 2 else dim)
    return Fraction(total, scale * prod(z_of(p) for p in pt.profiles))


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

    The last factor is forced to be the inverse of the partial product, so
    only the first k-1 classes are enumerated.  Refuses to run past N = 5
    or k = 4.
    """
    k = len(pt.profiles)
    if k < 1:
        raise UsageError("need at least one ramification profile", code="empty-profiles")
    if pt.N > _ORACLE_MAX_N or k > _ORACLE_MAX_K:
        raise ScaleGuardError(
            f"factorization oracle is capped at N <= {_ORACLE_MAX_N}, "
            f"k <= {_ORACLE_MAX_K}; got N={pt.N}, k={k}"
        )
    classes = conjugacy_classes(pt.N)
    lead = [classes.get(p, ()) for p in pt.profiles[:-1]]
    last = classes.get(pt.profiles[-1], frozenset())
    count = 0
    for choice in product(*lead):
        # the empty choice (k = 1) is the identity
        prod_perm = choice[0] if choice else tuple(range(pt.N))
        for s in choice[1:]:
            prod_perm = compose(prod_perm, s)
        # s_k = inverse(product), and an inverse lies in the same class
        if prod_perm in last:
            count += 1
    return Fraction(count, factorial(pt.N))
