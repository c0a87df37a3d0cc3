"""Generating series whose power-sum coefficients are weighted Hurwitz numbers.

The diagonal double Schur series with content-product coefficients is kept
as a truncated formal object in beta: a table mapping (mu, nu, beta-power)
to exact rational coefficients.  Extracting an entry and comparing with the
direct weighted count in :mod:`.weights` is the package's central dual-path
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import BetaSeries
from .characters import _character
from .errors import SingularParameterError, UsageError
from .partitions import (
    Partition,
    as_partition,
    contents,
    enumerate_partitions,
    hook_product,
    weight,
    z_of,
)
from .weights import WeightGen, eval_weight_gen, g_coeffs


@cache
def _content_series(G: WeightGen, content: int, D: int) -> BetaSeries:
    # built from Taylor coefficients, never by evaluating G at a number,
    # so the quantum family stays exact at the formal level
    gs = g_coeffs(G, D)
    return BetaSeries([gs[m] * content ** m for m in range(D + 1)])


def r_lambda(G: WeightGen, lam, D: int) -> BetaSeries:
    """Content product prod_{cells} G(content * beta) as a beta-series of order D."""
    series = BetaSeries.one(D)
    for c in contents(as_partition(lam)):
        series = series * _content_series(G, c, D)
    return series


@cache
def rho(G: WeightGen, j: int, beta: Fraction, M: int | None = None) -> Fraction:
    """Exact value of the normalization constant rho_j at numeric beta.

    rho_j = beta^j prod_{i=1..j} G(i beta) for j >= 0 (rho_0 = 1) and
    rho_{-j} = beta^{-j} prod_{i=1..j-1} G(-i beta)^{-1}; the quantum
    family needs a product truncation ``M``.
    """
    beta = Fraction(beta)
    if beta == 0:
        raise UsageError("beta must be nonzero", code="bad-beta")
    if j >= 0:
        val = beta ** j
        for i in range(1, j + 1):
            try:
                val *= eval_weight_gen(G, i * beta, M)
            except SingularParameterError as exc:
                raise SingularParameterError(
                    f"rho_{j} undefined: G({i}*beta) is singular ({exc})",
                    code="singular-rho",
                ) from exc
        return val
    val = beta ** j
    for i in range(1, -j):
        g = eval_weight_gen(G, -i * beta, M)
        if g == 0:
            raise SingularParameterError(
                f"rho_{j} undefined: G(-{i}*beta) = 0 at beta={beta}",
                code="singular-rho",
            )
        val /= g
    return val


def rho_formal(G: WeightGen, j: int, D: int) -> tuple[int, BetaSeries]:
    """Formal rho_j split as (beta-exponent, unit-constant beta-series)."""
    series = BetaSeries.one(D)
    if j >= 0:
        for i in range(1, j + 1):
            series = series * _content_series(G, i, D)
    else:
        for i in range(1, -j):
            series = series * _content_series(G, -i, D).inv()
    return j, series


@dataclass(frozen=True)
class TauTable:
    """Coefficients of the double power-sum expansion.

    coeffs[(mu, nu, e)] is the coefficient of beta^e p_mu(t) p_nu(s); the
    entry at e = |mu| + d is the weighted Hurwitz number H^d(mu, nu).
    Zero entries are not stored.
    """

    gen: WeightGen
    order: int
    nmax: int
    coeffs: dict

    def entry(self, mu: Partition, nu: Partition, e: int) -> Fraction:
        return self.coeffs.get((mu, nu, e), Fraction(0))


def tau_double_table(G: WeightGen, D: int, Nmax: int) -> TauTable:
    """Expand the double Schur series through weight Nmax and beta-order D."""
    if D < 0 or Nmax < 0:
        raise UsageError("orders must be >= 0", code="bad-order")
    coeffs: dict = {}
    for n in range(Nmax + 1):
        parts = enumerate_partitions(n)
        r = {lam: r_lambda(G, lam, D) for lam in parts}
        chi = {(lam, mu): _character(lam, mu) for lam in parts for mu in parts}
        z = {mu: z_of(mu) for mu in parts}
        for mu in parts:
            for nu in parts:
                zz = z[mu] * z[nu]
                for e in range(n, n + D + 1):
                    total = Fraction(0)
                    for lam in parts:
                        c = r[lam].coeff(e - n)
                        if c:
                            total += c * chi[(lam, mu)] * chi[(lam, nu)]
                    if total:
                        coeffs[(mu, nu, e)] = total / zz
    return TauTable(G, D, Nmax, coeffs)


def extract_H(table: TauTable, d: int, mu, nu) -> Fraction:
    """Weighted Hurwitz number read off the series table at beta^(|mu|+d)."""
    mu = as_partition(mu)
    nu = as_partition(nu)
    if weight(mu) != weight(nu):
        raise UsageError(
            f"table lookup needs |mu| == |nu|, got {weight(mu)} != {weight(nu)}",
            code="weight-mismatch",
        )
    if weight(mu) > table.nmax:
        raise UsageError(
            f"|mu| = {weight(mu)} exceeds table Nmax = {table.nmax}",
            code="out-of-range",
        )
    if not 0 <= d <= table.order:
        raise UsageError(
            f"degree d = {d} outside table order {table.order}",
            code="out-of-range",
        )
    return table.entry(mu, nu, weight(mu) + d)


def tau_single_table(G: WeightGen, D: int, Nmax: int) -> dict[tuple[Partition, int], Fraction]:
    """Coefficients of the single power-sum expansion.

    entry (mu, d) is the weighted single Hurwitz number H^d(mu), i.e. the
    double number with the second profile frozen to the identity type.
    """
    if D < 0 or Nmax < 0:
        raise UsageError("orders must be >= 0", code="bad-order")
    out: dict[tuple[Partition, int], Fraction] = {}
    for n in range(Nmax + 1):
        parts = enumerate_partitions(n)
        r = {lam: r_lambda(G, lam, D) for lam in parts}
        h = {lam: hook_product(lam) for lam in parts}
        for mu in parts:
            zm = z_of(mu)
            for d in range(D + 1):
                total = Fraction(0)
                for lam in parts:
                    c = r[lam].coeff(d)
                    if c:
                        total += Fraction(c * _character(lam, mu), h[lam])
                out[(mu, d)] = total / zm
    return out


def tau_eval_at_matrix(G: WeightGen, beta, X, Nmax: int) -> Fraction:
    """Evaluate the single series on the trace invariants of diag(X), exactly.

    Sums h(lam)^{-1} r_lam(beta) s_lam over |lam| <= Nmax with Schur values
    computed from power sums p_j = sum x_i^j.  The quantum family has no
    exact numeric content product and is rejected.
    """
    if G.kind == "quantum":
        raise UsageError(
            "exact series evaluation is not defined for the quantum family",
            code="quantum-unsupported",
        )
    beta = Fraction(beta)
    xs = [Fraction(x) for x in X]
    power = {j: sum(x ** j for x in xs) for j in range(1, Nmax + 1)}
    total = Fraction(1)  # empty diagram contributes 1
    for n in range(1, Nmax + 1):
        for lam in enumerate_partitions(n):
            r = Fraction(1)
            for c in contents(lam):
                r *= eval_weight_gen(G, c * beta)
            if r == 0:
                continue
            s = Fraction(0)
            for mu in enumerate_partitions(n):
                pm = Fraction(1)
                for part in mu:
                    pm *= power[part]
                if pm:
                    s += Fraction(_character(lam, mu), z_of(mu)) * pm
            total += r * s / hook_product(lam)
    return total
