"""Generating series whose power-sum coefficients are weighted Hurwitz numbers.

The diagonal double Schur series with content-product coefficients is kept
as a truncated formal object in beta: a table mapping (mu, nu, beta-power)
to exact rational coefficients.  Extracting an entry and comparing with the
direct weighted count in :mod:`.weights` is the package's central dual-path
check.

The tables are character sums over an integer content-product ladder
(:func:`_integer_ladder`), taken once for every beta-degree on rows packed
into single ints (:func:`_packed_ladder`) and split back by :func:`_unpack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import mul

from .algebra import BetaSeries
from .characters import character_table, powersum_numerators
from .errors import SingularParameterError, UsageError
from .partitions import (
    Partition,
    as_partition,
    contents,
    hook_product,
    partitions_up_to,
    weight,
)
from .weights import WeightGen, eval_weight_gen, g_coeffs


def r_lambda(G: WeightGen, lam, D: int) -> BetaSeries:
    """Content product prod_{cells} G(content * beta) as a beta-series of order D."""
    # each cell's factor is built from Taylor coefficients, never by evaluating
    # G at a number, so the quantum family stays exact at the formal level
    gs = g_coeffs(G, D)
    series = BetaSeries.one(D)
    for c in contents(as_partition(lam)):
        series = series * BetaSeries([g * c ** m for m, g in enumerate(gs)])
    return series


def _content_products(extend, one, shapes) -> dict:
    """Content product of every lambda in shapes, one cell at a time; () gives ``one``.

    lambda's product is ``extend(prev, c)``: prev is the product of lambda
    without the last cell of its last row, c = lambda_l - l that cell's
    content, so shapes must list the smaller diagram first.
    """
    r = {}
    for lam in shapes:
        if not lam:
            r[lam] = one
            continue
        parent = lam[:-1] + ((lam[-1] - 1,) if lam[-1] > 1 else ())
        r[lam] = extend(r[parent], lam[-1] - len(lam))
    return r


def _numeric_content_products(G: WeightGen, beta: Fraction, shapes) -> dict:
    """prod_{cells} G(content * beta) of every lambda in shapes, at a number beta;
    G is evaluated here, not read from the (G, beta) table the rho ladder uses."""
    return _content_products(lambda v, c: v * eval_weight_gen(G, c * beta), Fraction(1), shapes)


def _integer_ladder(G: WeightGen, D: int, Nmax: int) -> tuple[dict, list[int]]:
    """Content products of every |lambda| <= Nmax as ints over one
    denominator per beta-degree: r_lambda(G, lambda, D).coeffs[d] equals
    A[lambda][d] / B[d].

    With b_m the denominator of g_m, B_0 = 1 and B_d = lcm_m b_m B_{d-m},
    the lcm over partitions of d of the products of their b_m.  So B_i B_m
    divides B_{i+m}, and a product moves to degree i + m with the integer
    factor B_{i+m} / (B_i B_m).
    """
    gs = g_coeffs(G, D)
    B = [1]
    for d in range(1, D + 1):
        B.append(lcm(*(gs[m].denominator * B[d - m] for m in range(1, d + 1))))
    g = [gm.numerator * (B[m] // gm.denominator) for m, gm in enumerate(gs)]
    steps: dict[int, list[list[int]]] = {}

    def extend(A: list[int], c: int) -> list[int]:
        if c not in steps:
            # steps[c][i][m] carries A[i] to degree i + m
            steps[c] = [[g[m] * c ** m * (B[i + m] // (B[i] * B[m])) for m in range(D + 1 - i)]
                        for i in range(D + 1)]
        C = [0] * (D + 1)
        for i, (a, row) in enumerate(zip(A, steps[c])):
            if a:
                for k, f in enumerate(row, i):
                    C[k] += a * f
        return C

    return _content_products(extend, [1] + [0] * D, partitions_up_to(Nmax)), B


def _cleared(values) -> tuple[list[int], int]:
    """Integers a_i and one denominator L with values[i] = a_i / L."""
    L = lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def _pack(row: list[int], S: int) -> int:
    """sum_d row[d] 2^(S d): the ints of row as S-bit slots of one int
    (Kronecker substitution); :func:`_unpack` is its inverse."""
    P = 0
    for a in reversed(row):
        P = (P << S) + a
    return P


def _packed_ladder(ladder: list[list[int]], n: int) -> tuple[list[int], int]:
    """Rows a_0..a_D, one per lambda of weight n, each packed by
    :func:`_pack`, and their slot width S.

    A character sum of packed rows packs the sums of each degree, and
    :func:`_unpack` splits it while every sum is below 2^(S-1) in size.
    S = bitlen(max|a|) + bitlen(n!) + 2 keeps every sum below 2^(S-2): by
    column orthogonality, sum_lam chi_lam(mu)^2 = z_mu, so Cauchy-Schwarz gives
        |sum_lam a_lam chi_lam(mu) chi_lam(nu)| <= max|a| sqrt(z_mu z_nu) <= max|a| n!,
        |sum_lam a_lam chi_lam(mu)| <= max|a| sqrt(p(n) z_mu) <= max|a| n!,
    since z_mu and the number p(n) of lambdas are at most n!.
    """
    top = max(abs(a) for row in ladder for a in row)
    S = top.bit_length() + factorial(n).bit_length() + 2
    return [_pack(row, S) for row in ladder], S


def _unpack(P: int, S: int, count: int) -> list[int]:
    """The signed digits t_0..t_{count-1} of P = sum_d t_d 2^(S d), each in
    [-2^(S-1), 2^(S-1)).

    Reads P's base-2^S digits (two's complement when P < 0) from the
    bottom; a digit in the upper half is negative and carries one up.
    """
    mask, half = (1 << S) - 1, 1 << (S - 1)
    digits, carry = [], 0
    for shift in range(0, S * count, S):
        t = (P >> shift & mask) + carry
        carry = t >= half
        digits.append(t - (carry << S))
    return digits


@dataclass
class _Ladder:
    """What is known so far at one (G, beta), grown in place: the one store
    of rho values, read by :func:`rho` and by every route of
    :mod:`.analytic`.

    g[i] holds G(i beta), filled by :meth:`g_at` from :func:`eval_weight_gen`
    once: the one table of G values that the rho ladder and the symbol form
    of the spectral check both read.  pos holds rho_0, rho_1, ...; neg holds
    rho_{-1}, rho_{-2}, ...; both are grown from that table by :meth:`rho`.
    w holds the weight row w_j = beta^(1-j) / j!, grown by
    :meth:`weight_row`; it does not depend on k.  phi[k] holds the
    coefficients w_j rho_{j-k} of phi_k found so far, grown by
    :func:`.analytic.phi_k`.
    """

    G: WeightGen
    beta: Fraction
    pos: list[Fraction]
    neg: list[Fraction]
    w: list[Fraction]
    phi: dict[int, list[Fraction]] = field(default_factory=dict)
    g: dict[int, Fraction] = field(default_factory=dict)

    def g_at(self, i: int) -> Fraction:
        """G(i beta), evaluated on first use and kept."""
        g = self.g.get(i)
        if g is None:
            g = self.g[i] = eval_weight_gen(self.G, i * self.beta)
        return g

    def _step(self, i: int, j: int) -> Fraction:
        """G(i beta) for the step toward rho_j; a pole of G is named with j."""
        try:
            return self.g_at(i)
        except SingularParameterError as exc:
            raise SingularParameterError(
                f"rho_{j} undefined: G({i}*beta) is singular ({exc})",
                code="singular-rho",
            ) from exc

    def rho(self, j: int) -> Fraction:
        """rho_j = beta^j prod_{i=1..j} G(i beta) for j >= 0 (rho_0 = 1) and
        rho_{-j} = beta^{-j} prod_{i=1..j-1} G(-i beta)^{-1}.

        Each value extends the one next to it on its side of the ladder by a
        single G value from the table, and stays; a singular G value stops
        that side and raises, naming j.
        """
        beta = self.beta
        if j >= 0:
            ladder = self.pos
            while len(ladder) <= j:
                ladder.append(ladder[-1] * (beta * self._step(len(ladder), j)))
            return ladder[j]
        ladder = self.neg
        while len(ladder) < -j:
            # ladder[i - 1] is rho_{-i}; the next value divides by G(-i beta)
            i = len(ladder)
            g = self._step(-i, j)
            if g == 0:
                raise SingularParameterError(
                    f"rho_{j} undefined: G(-{i}*beta) = 0 at beta={beta}",
                    code="singular-rho",
                )
            ladder.append(ladder[-1] / (beta * g))
        return ladder[-j - 1]

    def weight_row(self, J: int) -> list[Fraction]:
        """The row w_0 .. w_J (or longer): w_0 = beta, w_(j+1) = w_j / (beta (j+1)),
        extended only as far as a longer series asks."""
        w = self.w
        while len(w) <= J:
            w.append(w[-1] / (self.beta * len(w)))
        return w


@cache
def _rho_ladder(G: WeightGen, beta: Fraction) -> _Ladder:
    """The one record of G values, rho values, weight row and phi prefixes at
    (G, beta); code that patches :func:`eval_weight_gen` clears this cache."""
    if beta == 0:
        raise UsageError("beta must be nonzero", code="bad-beta")
    return _Ladder(G, beta, [Fraction(1)], [1 / beta], [beta])


@cache
def rho(G: WeightGen, j: int, beta: Fraction) -> Fraction:
    """Exact value of the normalization constant rho_j at numeric beta,
    read from the (G, beta) record (:meth:`_Ladder.rho`); the quantum
    family needs a product truncation ``G.M``.  The package reads the
    record itself; this cache is kept for the benchmark tracer, which
    reads ``rho.cache_info()``."""
    return _rho_ladder(G, Fraction(beta)).rho(j)


def rho_formal(G: WeightGen, j: int, D: int) -> tuple[int, BetaSeries]:
    """Formal rho_j split as (beta-exponent, unit-constant beta-series):
    the content product of the row (j + 1), or the inverse of the column (1^-j)."""
    if j >= 0:
        return j, r_lambda(G, (j + 1,), D)
    return j, r_lambda(G, (1,) * -j, D).inv()


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
    """Expand the double Schur series through weight Nmax and beta-order D.

    Entry (mu, nu, n + d) is sum_lam A_lam[d] chi_lam(mu) chi_lam(nu) over
    B_d z_mu z_nu, with A and B from :func:`_integer_ladder`.  The sum is
    taken once for every degree, on ints packed by :func:`_packed_ladder`,
    and once for each unordered pair: the entry at (nu, mu) is the same
    Fraction object.
    """
    if D < 0 or Nmax < 0:
        raise UsageError("orders must be >= 0", code="bad-order")
    A, B = _integer_ladder(G, D, Nmax)
    coeffs: dict = {}
    for n in range(Nmax + 1):
        rows = character_table(n)
        packed, S = _packed_ladder([A[lam] for lam, _, _ in rows], n)
        upper = []  # upper[j][k - j]: the nonzero (n + d, entry) of rows j <= k
        for j, (mu, chi, zm) in enumerate(rows):
            later = rows[j:]
            weighted = list(map(mul, packed, chi))
            upper.append([
                [(n + d, Fraction(t, L * zm * zn))
                 for d, (t, L) in enumerate(zip(_unpack(total, S, D + 1), B)) if t]
                for (_, _, zn), total in zip(later, powersum_numerators(weighted, later))
            ])
            for k, (nu, _, _) in enumerate(rows):
                for e, v in (upper[k][j - k] if k < j else upper[j][k - j]):
                    coeffs[(mu, nu, e)] = v
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
    A, B = _integer_ladder(G, D, Nmax)
    out: dict[tuple[Partition, int], Fraction] = {}
    for n in range(Nmax + 1):
        rows = character_table(n)
        h = [hook_product(lam) for lam, _, _ in rows]
        H = lcm(*h)
        # entry (mu, d) = sum_lam A_lam[d] (H / h_lam) chi_lam(mu) / (B_d H z_mu)
        packed, S = _packed_ladder([[a * (H // hl) for a in A[lam]]
                                    for (lam, _, _), hl in zip(rows, h)], n)
        for (mu, _, zm), total in zip(rows, powersum_numerators(packed, rows)):
            for d, (t, L) in enumerate(zip(_unpack(total, S, D + 1), B)):
                out[(mu, d)] = Fraction(t, L * H * zm)
    return out


def tau_eval_at_matrix(G: WeightGen, beta, X, Nmax: int) -> Fraction:
    """Evaluate the single series on the trace invariants of diag(X), exactly.

    Sums h(lam)^{-1} r_lam(beta) s_lam over |lam| <= Nmax with Schur values
    computed from power sums p_j = sum x_i^j.
    """
    beta = Fraction(beta)
    xs = [Fraction(x) for x in X]
    power = {j: sum(x ** j for x in xs) for j in range(1, Nmax + 1)}
    r = _numeric_content_products(G, beta, partitions_up_to(Nmax))
    total = Fraction(1)  # empty diagram contributes 1
    for n in range(1, Nmax + 1):
        rows = character_table(n)
        # sum_mu p_mu(X) sum_lam b_lam chi_lam(mu) / (L z_mu), b / L = r / h
        b, L = _cleared([r[lam] / hook_product(lam) for lam, _, _ in rows])
        for (mu, _, zm), k in zip(rows, powersum_numerators(b, rows)):
            if k:
                total += Fraction(k, L * zm) * prod(power[part] for part in mu)
    return total
