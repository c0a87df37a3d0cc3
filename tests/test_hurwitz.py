from fractions import Fraction as F
from itertools import permutations, product
from math import factorial

import pytest

from hurwitz_tau.errors import ScaleGuardError, UsageError
from hurwitz_tau.hurwitz import (
    ProfileTuple,
    compose,
    conjugacy_classes,
    hurwitz_number,
    hurwitz_oracle,
    riemann_hurwitz,
)
from hurwitz_tau.characters import _perm_sign, character
from hurwitz_tau.partitions import cycle_type, enumerate_partitions, hook_product, z_of


def test_pinned_values():
    assert hurwitz_number(ProfileTuple(2, ((2,), (2,)))) == F(1, 2)
    assert hurwitz_number(ProfileTuple(2, ((1, 1),))) == F(1, 2)
    assert hurwitz_number(ProfileTuple(2, ((2,), (2,), (2,)))) == 0
    assert hurwitz_number(ProfileTuple(3, ((3,), (3,)))) == F(1, 3)


def test_oracle_pinned_values():
    assert hurwitz_oracle(ProfileTuple(3, ((2, 1), (2, 1)))) == F(1, 2)
    assert hurwitz_oracle(ProfileTuple(3, ((3,), (3,)))) == F(1, 3)
    assert hurwitz_oracle(ProfileTuple(2, ((2,), (2,)))) == F(1, 2)


def test_profile_validation():
    with pytest.raises(UsageError):
        ProfileTuple(3, ((2,),))
    with pytest.raises(UsageError):
        hurwitz_number(ProfileTuple(2, ()))
    with pytest.raises(ScaleGuardError):
        hurwitz_oracle(ProfileTuple(6, ((6,),)))
    with pytest.raises(ScaleGuardError):
        hurwitz_oracle(ProfileTuple(2, ((2,),) * 5))


def test_riemann_hurwitz():
    assert riemann_hurwitz(ProfileTuple(2, ((2,), (2,)))) == (2, F(0))
    pt = ProfileTuple(3, ((3,), (3,), (2, 1)))
    assert pt.d == 5
    assert riemann_hurwitz(pt) == (1, F(1, 2))  # non-integer genus
    assert riemann_hurwitz(ProfileTuple(1, ())) == (2, F(0))


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5])
def test_character_sum_equals_oracle(N):
    parts = enumerate_partitions(N)
    for k in (1, 2, 3):
        for profs in product(parts, repeat=k):
            pt = ProfileTuple(N, profs)
            assert hurwitz_number(pt) == hurwitz_oracle(pt), profs


@pytest.mark.parametrize("profiles, calls", [
    # the first factor is fixed: one compose per member of the middle class
    (((3, 2), (3, 1, 1), (2, 2, 1)), 20),
    (((3, 2), (2, 2, 1)), 0),  # the fixed first factor is the product
])
def test_oracle_composes_only_the_chosen_permutations(monkeypatch, profiles, calls):
    import hurwitz_tau.hurwitz as hz

    count = 0

    def counted(p, q):
        nonlocal count
        count += 1
        return compose(p, q)

    monkeypatch.setattr(hz, "compose", counted)
    pt = ProfileTuple(5, profiles)
    assert hurwitz_oracle(pt) == hurwitz_number(pt)
    assert count == calls


def enumerated_counts(N, k):
    """Tuples of k permutations of N points with product the identity,
    counted by their tuple of cycle types: every tuple of S_N^k, no factor
    fixed, nothing from the package."""
    def cycle_lengths(p):
        seen, sizes = set(), []
        for i in range(N):
            size = 0
            while i not in seen:
                seen.add(i)
                i = p[i]
                size += 1
            if size:
                sizes.append(size)
        return tuple(sorted(sizes, reverse=True))

    perms = list(permutations(range(N)))
    types = {p: cycle_lengths(p) for p in perms}
    ident = tuple(range(N))
    counts = {}
    for tup in product(perms, repeat=k):
        prod_perm = ident
        for s in tup:
            prod_perm = tuple(prod_perm[i] for i in s)
        if prod_perm == ident:
            key = tuple(types[s] for s in tup)
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_oracle_equals_full_enumeration(N):
    parts = enumerate_partitions(N)
    for k in (1, 2, 3):
        counts = enumerated_counts(N, k)
        for profs in product(parts, repeat=k):
            want = F(counts.get(profs, 0), factorial(N))
            assert hurwitz_oracle(ProfileTuple(N, profs)) == want, profs


def test_profile_order_invariance():
    profs = ((3, 1), (2, 2), (2, 1, 1))
    base = hurwitz_number(ProfileTuple(4, profs))
    from itertools import permutations

    for perm in permutations(profs):
        assert hurwitz_number(ProfileTuple(4, perm)) == base


def test_parity_vanishing():
    # sign of a class mu is (-1)^colength; if the product of signs is not +1
    # there are no factorizations of the identity.  The weights module
    # answers odd totals by this rule alone, so both routes are kept here.
    from hurwitz_tau.partitions import colength

    for N in (2, 3, 4, 5):
        parts = enumerate_partitions(N)
        for k in (1, 2, 3):
            for profs in product(parts, repeat=k):
                if sum(colength(p) for p in profs) % 2 == 1:
                    pt = ProfileTuple(N, profs)
                    assert hurwitz_oracle(pt) == 0
                    assert hurwitz_number(pt) == 0


def test_permutation_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert cycle_type(p) == (3,)
    assert cycle_type(tuple(range(4))) == (1, 1, 1, 1)
    classes = conjugacy_classes(4)
    assert sum(len(v) for v in classes.values()) == 24
    assert len(classes[(2, 1, 1)]) == 6
    # the bialternant oracle's sign, from the cycle type, against inversions
    for n in range(8):
        for p in permutations(range(n)):
            inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            assert _perm_sign(p) == (-1) ** inversions, p


def fraction_character_sum(pt):
    """The character sum in Fractions term by term, h^(k-2) prod chi/z."""
    k = len(pt.profiles)
    total = F(0)
    for lam in enumerate_partitions(pt.N):
        term = F(hook_product(lam)) ** (k - 2)
        for p in pt.profiles:
            term *= F(character(lam, p), z_of(p))
        total += term
    return total


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_integer_character_sum_matches_fraction_sum(N):
    parts = enumerate_partitions(N)
    # k = 4 reads h(lam)^2, the first power of the hook product above one
    for k in (1, 2, 3, 4) if N <= 4 else (1, 2, 3):
        for profs in product(parts, repeat=k):
            pt = ProfileTuple(N, profs)
            assert hurwitz_number(pt) == fraction_character_sum(pt), profs
