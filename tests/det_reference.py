"""Determinants and Schur values straight from their definitions.

The tests check the package's elimination, Schur expansions and hook
products against these; they import only the standard library, so they
share no code with what they check.
"""

from fractions import Fraction as F
from itertools import permutations
from math import prod


def leibniz_det(matrix):
    """sum over permutations of sign * prod m[i][perm[i]]."""
    total = F(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod((matrix[i][c] for i, c in enumerate(perm)), start=F(1))
    return total


def bialternant(lam, xs):
    """s_lam(xs) = det(x_i^(lam_j + m - j)) / det(x_i^(m - j)); 0 if l(lam) > m."""
    m = len(xs)
    if len(lam) > m:
        return F(0)
    parts = lam + (0,) * (m - len(lam))
    return (leibniz_det([[x ** (parts[j] + m - 1 - j) for j in range(m)] for x in xs])
            / leibniz_det([[x ** (m - 1 - j) for j in range(m)] for x in xs]))
