"""Weight generating functions and weighted Hurwitz numbers.

A weight generating function assigns a rational weight to every tuple of
branch-point profiles.  Supported families: ratios
prod (1 + c_l z) / prod (1 - d_m z), of which finite products (no d) and
the trivial function G = 1 (no c, no d) are special cases, and the quantum
exponential prod_{i>=0} (1 - q^i z)^{-1}.  Weighted Hurwitz numbers combine
these weights with the classical character-sum counts:

    H^d_G(mu, nu) = sum_P arr(P) W(P) H(P, mu, nu),

over the multisets P of non-identity profiles of total colength d.  W(P)
reads only the sorted colengths of P, so it is weighed once per
(c, d, q, colengths) for every N and d.  H(P, mu, nu) closes the head
vector of P, v[lam] = h(lam)^|P| prod_(p in P) chi_lam(p), with the query:
sum_lam v[lam] chi_lam(mu) chi_lam(nu) / (z_P z_mu z_nu).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import groupby
from math import factorial

from .errors import SingularParameterError, UsageError
from .hurwitz import _close, _closing
from .partitions import (
    Partition,
    as_partition,
    colength,
    enumerate_partitions,
    weight,
)


@dataclass(frozen=True)
class WeightGen:
    """Descriptor for a weight generating function; parameters stored exactly."""

    kind: str
    c: tuple[Fraction, ...] = ()
    d: tuple[Fraction, ...] = ()
    q: Fraction | None = None
    M: int | None = None  # quantum product truncation, read where G takes a number

    @classmethod
    def trivial(cls) -> "WeightGen":
        return cls("trivial")

    @classmethod
    def finite_product(cls, c) -> "WeightGen":
        return cls("finite_product", c=tuple(Fraction(x) for x in c))

    @classmethod
    def rational(cls, c, d) -> "WeightGen":
        dd = tuple(Fraction(x) for x in d)
        if any(x == 0 for x in dd):
            raise UsageError("rational weight function needs nonzero d parameters",
                             code="bad-weight-params")
        return cls("rational", c=tuple(Fraction(x) for x in c), d=dd)

    @classmethod
    def quantum(cls, q, M: int | None = None) -> "WeightGen":
        qq = Fraction(q)
        if qq == 0 or abs(qq) >= 1:
            raise UsageError("quantum parameter must satisfy 0 < |q| < 1",
                             code="bad-weight-params")
        return cls("quantum", q=qq, M=M)

    def describe(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        if self.kind == "quantum":
            return f"quantum(q={self.q})" if self.M is None else f"quantum(q={self.q}, M={self.M})"
        cs = ",".join(str(x) for x in self.c)
        ds = ",".join(str(x) for x in self.d)
        return f"{self.kind}(c=[{cs}], d=[{ds}])"


def g_coeffs(G: WeightGen, J: int) -> tuple[Fraction, ...]:
    """Taylor coefficients (g_0 = 1, g_1, ..., g_J) of the generating function."""
    if J < 0:
        raise UsageError("coefficient count must be >= 0", code="bad-order")
    if G.q is None:
        g = [Fraction(1)] + [Fraction(0)] * J
        # times 1 + c z top down, over 1 - d z bottom up: g[n - 1] is old, then new
        for cl in G.c:
            for n in range(J, 0, -1):
                g[n] += cl * g[n - 1]
        for dm in G.d:
            for n in range(1, J + 1):
                g[n] += dm * g[n - 1]
        return tuple(g)
    # quantum: coefficients 1/(q;q)_n
    out = [Fraction(1)]
    poch = Fraction(1)
    qpow = Fraction(1)
    for n in range(1, J + 1):
        qpow *= G.q
        poch *= 1 - qpow
        if poch == 0:
            raise SingularParameterError(
                f"q-Pochhammer (q;q)_{n} vanishes at q={G.q}",
                code="singular-quantum",
            )
        out.append(Fraction(1) / poch)
    return tuple(out)


def eval_weight_gen(G: WeightGen, x: Fraction) -> Fraction:
    """Exact value G(x); the quantum product, truncated at index ``G.M``,
    is the ratio G_M with no c and d = (1, q, ..., q^M)."""
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    poles = [(dm.numerator, dm.denominator) for dm in G.d]
    if G.q is not None:
        if G.M is None:
            raise UsageError(
                "quantum weight function needs a product truncation M for evaluation",
                code="quantum-needs-truncation",
            )
        if G.M < 0:
            raise UsageError(f"quantum product truncation M must be >= 0, got {G.M}",
                             code="bad-truncation")
        a, b = G.q.numerator, G.q.denominator
        e, f = 1, 1
        for _ in range(G.M + 1):  # (a^i, b^i), one multiplication a step
            poles.append((e, f))
            e, f = e * a, f * b
    # with c = r/s, 1 + c x = (s v + r u) / (s v); with d = e/f (q^i for G_M),
    # 1 / (1 - d x) = f v / (f v - e u): both products on ints, reduced once
    num = den = 1
    for cl in G.c:
        num *= cl.denominator * v + cl.numerator * u
        den *= cl.denominator * v
    for i, (e, f) in enumerate(poles):
        factor = f * v - e * u
        if factor == 0:
            raise SingularParameterError(
                f"pole of weight generating function: 1 - ({G.d[i]})*({x}) = 0"
                if G.q is None else f"pole of quantum weight function: 1 - q^{i}*({x}) = 0",
                code="weight-gen-pole",
            )
        num *= f * v
        den *= factor
    return Fraction(num, den)


def _weight_sum(colengths, power_sum) -> Fraction:
    """(1/k!) times F(e_1..e_k), F the injective-map sum over the k colengths.

    With power_sum(m) = sum_i c_i^m, F(e_1..e_k) is the sum over injective
    maps i from the profiles to the c parameters of prod_j c_(i_j)^(e_j),
    i.e. the strict-chain weight factor.  Mapping the smallest colength e
    anywhere and taking away the maps that hit an index already used by
    the rest R gives F(e, R) = P(e) F(R) - sum_j F(R with e added to R_j),
    memoised on sorted colength tuples.
    """
    exps = tuple(sorted(colengths))
    if not exps:
        raise UsageError("weight factor needs at least one profile",
                         code="empty-profiles")
    power_sum = cache(power_sum)

    @cache
    def injective(es: tuple[int, ...]):
        if not es:
            return 1
        e, rest = es[0], es[1:]
        total = power_sum(e) * injective(rest)
        for j in range(len(rest)):
            total -= injective(tuple(sorted(rest[:j] + (rest[j] + e,) + rest[j + 1:])))
        return total

    return Fraction(injective(exps), factorial(len(exps)))


def rational_weight_factor(c, d, profiles) -> Fraction:
    """Weight of a profile tuple for G = prod (1 + c_l z) / prod (1 - d_m z).

    The sum over injective maps from the profiles into the c parameters and
    the dual d parameters, with power sums P(m) = sum c_l^m - sum (-d_m)^m;
    so it equals the sum over splits of the profiles of the strict factor
    of the c's times the dual factor of the d's.
    """
    c = tuple(Fraction(x) for x in c)
    d = tuple(Fraction(x) for x in d)
    return _weight_sum([colength(as_partition(p)) for p in profiles],
                       lambda m: sum(x ** m for x in c) - sum((-x) ** m for x in d))


def weight_factor(c, profiles) -> Fraction:
    """Symmetrized strictly-increasing index sum over the c parameters.

    (1/k!) sum over permutations and strict index chains of the monomial
    with exponents given by the profile colengths, i.e. m_lambda(c)
    |Aut lambda| / k!; vanishes when the parameter list is shorter than the
    number of profiles.
    """
    return rational_weight_factor(c, (), profiles)


def weight_factor_tilde(c, profiles) -> Fraction:
    """Dual weight factor: non-strict index chains with the alternating sign.

    The involution omega (p_m -> (-1)^(m-1) p_m) of the strict factor: the
    sign (-1)^(d+k) and the non-strict chains both come out of the flipped
    power sums.
    """
    return rational_weight_factor((), c, profiles)


def quantum_weight_factor(q, profiles) -> Fraction:
    """Closed form of the dual weight factor for the quantum exponential.

    The dual factor at c_i = q^i, i >= 0, whose power sums are 1/(1 - q^m);
    equals (-1)^(d-k)/k! times the sum over orderings of
    prod_j 1/(1 - q^(partial colength sum)).
    """
    q = Fraction(q)

    def power_sum(m: int) -> Fraction:
        den = 1 - q ** m
        if den == 0:
            raise SingularParameterError(
                f"quantum weight factor: 1 - q^{m} vanishes at q={q}",
                code="singular-quantum",
            )
        return (-1) ** (m - 1) / den

    return _weight_sum([colength(as_partition(p)) for p in profiles], power_sum)


def _arrangements(multiset: tuple[Partition, ...]) -> int:
    """Distinct orderings of a weakly sorted tuple of partitions."""
    n = factorial(len(multiset))
    for _, grp in groupby(multiset):
        n //= factorial(len(tuple(grp)))
    return n


def profile_multisets(N: int, total_colength: int) -> list[tuple[tuple[Partition, ...], int]]:
    """Multisets of non-identity profiles of N with the given total colength.

    Returns (profiles, arrangements) pairs; summing ``arrangements`` copies
    of each multiset reproduces the sum over ordered profile tuples.
    """
    options = [p for p in enumerate_partitions(N) if colength(p) >= 1]
    out: list[tuple[tuple[Partition, ...], int]] = []

    def extend(idx: int, remaining: int, chosen: list[Partition]):
        if remaining == 0:
            if chosen:
                ms = tuple(chosen)
                out.append((ms, _arrangements(ms)))
            return
        for i in range(idx, len(options)):
            cl = colength(options[i])
            if cl <= remaining:
                chosen.append(options[i])
                extend(i, remaining - cl, chosen)
                chosen.pop()

    extend(0, total_colength, [])
    return out


@dataclass(frozen=True)
class WeightedTerm:
    """One multiset's contribution to a weighted Hurwitz number.

    The profiles are ``mu_block``; ``nu_block`` is always empty."""

    mu_block: tuple[Partition, ...]
    nu_block: tuple[Partition, ...]
    arrangements: int
    factor: Fraction
    base: Fraction

    @property
    def value(self) -> Fraction:
        return self.arrangements * self.factor * self.base


def _checked_query(d: int, mu, nu) -> tuple[Partition, Partition, bool]:
    """Normalised (mu, nu) of the query H^d_G(mu, nu) and whether it is odd.

    Every input the count is not defined on raises here, whatever its parity.
    When the total colength d + colength(mu) + colength(nu) is odd, the signs
    (-1)^colength of every configuration's classes multiply to -1, so no
    product of permutations from them is the identity and the count is 0.
    """
    mu = as_partition(mu)
    nu = as_partition(nu)
    if weight(mu) != weight(nu):
        raise UsageError(
            f"weighted Hurwitz number needs |mu| == |nu|, got {weight(mu)} != {weight(nu)}",
            code="weight-mismatch",
        )
    if d < 0:
        raise UsageError("total weighted colength d must be >= 0", code="bad-degree")
    return mu, nu, (d + colength(mu) + colength(nu)) % 2 == 1


@lru_cache(maxsize=1024)
def _weight(c, dual, q, colengths: tuple[int, ...]) -> Fraction:
    """W of every profile multiset with these sorted colengths, for the
    parameters (c, d, q) the factors read; kept for the 1024 most recently
    used (c, d, q, colengths).

    The factors read only the colengths, so each is handed one cycle per
    colength.  G differing only in M or kind share an entry.  A factor
    swapped in after a count needs ``_weight.cache_clear()``.
    """
    profiles = tuple((e + 1,) for e in colengths)
    return (quantum_weight_factor(q, profiles) if q is not None
            else rational_weight_factor(c, dual, profiles))


@lru_cache(maxsize=256)
def _configurations(N: int, d: int) -> tuple[tuple, tuple]:
    """``profile_multisets(N, d)`` for every G, kept for the 256 most recently
    used (N, d): the distinct sorted colength multisets, and per multiset
    (profiles, arrangements, index of its colengths among them)."""
    keys: dict[tuple[int, ...], int] = {}
    configs = []
    for profiles, arr in profile_multisets(N, d):
        key = tuple(sorted(colength(p) for p in profiles))
        configs.append((profiles, arr, keys.setdefault(key, len(keys))))
    return tuple(keys), tuple(configs)


def weighted_hurwitz_terms(G: WeightGen, d: int, mu, nu) -> list[WeightedTerm]:
    """All contributing profile configurations for H^d_G(mu, nu), one per
    multiset of profiles of total colength d with a nonzero weight.

    The multisets come from ``_configurations`` (256 (N, d)), their weights
    from ``_weight`` (1024 (c, d, q, colengths)).  Each base count closes
    the configuration's cached head vector with (mu, nu); at an odd total
    colength it is 0 by parity and is not summed.
    """
    mu, nu, odd = _checked_query(d, mu, nu)
    N = weight(mu)
    closing = None if odd else _closing(mu, nu)

    def count(profiles) -> Fraction:
        return Fraction(0) if odd else _close(N, profiles, closing)

    if d == 0:
        return [WeightedTerm((), (), 1, Fraction(1), count(()))]

    keys, configs = _configurations(N, d)
    ws = [_weight(G.c, G.d, G.q, key) for key in keys]
    return [WeightedTerm(profiles, (), arr, ws[i], count(profiles))
            for profiles, arr, i in configs if ws[i]]


def weighted_hurwitz(G: WeightGen, d: int, mu, nu) -> Fraction:
    """Weighted Hurwitz number H^d_G(mu, nu), exact.

    d = 0 degenerates to the unweighted two-point count delta_{mu,nu}/z_mu;
    every family, quantum included, is defined on every (mu, nu) with
    |mu| = |nu|.  An odd total colength returns 0 once the inputs are checked.
    """
    if _checked_query(d, mu, nu)[2]:
        return Fraction(0)
    return sum((t.value for t in weighted_hurwitz_terms(G, d, mu, nu)), Fraction(0))
