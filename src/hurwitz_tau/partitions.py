"""Integer partitions and the scalar invariants attached to them.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the partition of 0.  Enumeration order is reverse
lexicographic starting from the one-row partition, fixed so every table
in the package is byte-reproducible.
"""

from __future__ import annotations

import sys
from functools import cache
from math import factorial

from .errors import UsageError

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Canonicalize any iterable of positive ints into a sorted tuple."""
    mu = tuple(sorted((int(p) for p in parts), reverse=True))
    if mu and mu[-1] <= 0:
        raise UsageError("partition parts must be positive integers",
                         code="bad-partition")
    return mu


def weight(mu: Partition) -> int:
    return sum(mu)


def colength(mu: Partition) -> int:
    """|mu| - l(mu), the defect a branch point with this profile contributes."""
    return sum(mu) - len(mu)


def identity_cycle_type(n: int) -> Partition:
    """Cycle type (1^n) of the identity permutation."""
    return (1,) * n


def cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle lengths of a permutation of 0..n-1, given by its images."""
    seen = [False] * len(perm)
    sizes = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, size = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def z_of(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type ``mu``.

    z_mu = prod_i i^{m_i} m_i! where m_i is the multiplicity of part i;
    the conjugacy class has n!/z_mu elements.
    """
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part ** m * factorial(m)
    return z


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths; dim(lam) = n!/hook_product(lam)."""
    # conj[j] is the length of column j
    conj = [sum(p > j for p in lam) for j in range(max(lam, default=0))]
    h = 1
    for i, row in enumerate(lam):
        for j in range(row):
            h *= row - j + conj[j] - i - 1
    return h


def contents(lam: Partition) -> list[int]:
    """Multiset {j - i} over cells (i, j) of the diagram, row by row."""
    return [j - i for i in range(len(lam)) for j in range(lam[i])]


@cache
def _partitions(n: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    # largest part first, from n down, then the rest in their own order;
    # n - first runs upwards, so each smaller n is cached before it is needed
    return tuple((first,) + rest for first in range(n, 0, -1)
                 for rest in _partitions(n - first) if not rest or rest[0] <= first)


@cache
def _conjugates(n: int) -> tuple[int, ...]:
    """Index of the conjugate of each partition of n, both in enumeration
    order; a self-conjugate partition holds its own index."""
    shapes = _partitions(n)
    index = {lam: i for i, lam in enumerate(shapes)}
    return tuple(index[tuple(sum(p > j for p in lam) for j in range(max(lam, default=0)))]
                 for lam in shapes)


@cache
def _centralizers(n: int) -> tuple[int, ...]:
    """z_mu of each partition of n, in enumeration order."""
    return tuple(z_of(mu) for mu in _partitions(n))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise UsageError("cannot enumerate partitions of a negative integer",
                         code="bad-partition")
    return list(_partitions(n))


def partitions_up_to(max_weight: int, max_parts: int):
    """Partitions of weight <= max_weight with <= max_parts parts, by weight;
    each comes after itself less the last cell of its last row."""
    for w in range(max_weight + 1):
        for lam in _partitions(w):
            if len(lam) <= max_parts:
                yield lam


def format_partition(mu: Partition) -> str:
    return "[" + ",".join(str(p) for p in mu) + "]"


def parse_partition(text: str) -> Partition:
    """Parse ``"[3,1,1]"`` (or ``"[]"``); errors point at the offending character."""

    def fail(pos: int, why: str):
        raise UsageError(
            f"bad partition {text!r}: {why} at position {pos}", code="bad-partition"
        )

    s = text.strip()
    if not s.startswith("["):
        fail(0, "expected '['")
    if not s.endswith("]"):
        fail(len(s), "expected ']'")
    body = s[1:-1].strip()
    if not body:
        return ()
    parts = []
    pos = 1
    limit = sys.get_int_max_str_digits()
    for piece in body.split(","):
        item = piece.strip()
        if item.isdecimal() and 0 < limit < len(item):
            # int() refuses a run past the interpreter's int-from-str limit
            fail(pos, f"more than {limit} digits")
        if not item.isdecimal() or int(item) <= 0:
            fail(pos, f"expected a positive integer, got {piece.strip()!r}")
        parts.append(int(item))
        pos += len(piece) + 1
    return as_partition(parts)
