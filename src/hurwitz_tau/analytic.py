"""Adapted basis series, operator identities, and determinant representations.

The basis element of index k is the Laurent-type series

    phi_k(x) = beta * x^(1-k) * sum_j rho_{j-k} (x/beta)^j / j!

at a fixed exact beta.  It satisfies a first-order recursion in k under the
Euler operator and an eigenvalue equation whose symbol is the weight
generating function; the generating series evaluated on trace invariants of
an n x n diagonal matrix is a ratio of determinants built from phi_1..phi_n.
Everything here is exact rational arithmetic; for rational weight functions
the positive rho ladder eventually walks into a pole of G, so checks report
the largest order they could reach.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

from .errors import (
    SingularInputError,
    SingularParameterError,
    UsageError,
)
from .partitions import hook_product, partitions_up_to
from .tau_series import _cleared, _Ladder, _numeric_content_products, _rho_ladder
from .weights import WeightGen


@dataclass(frozen=True)
class PhiSeries:
    """Truncated basis series: coeffs[j] multiplies x**(lead_exp + j)."""

    k: int
    beta: Fraction
    lead_exp: int
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> Fraction:
        return self.coeffs[j]

    def power_coeff(self, m: int) -> Fraction:
        j = m - self.lead_exp
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)


def phi_k(G: WeightGen, beta, k: int, J: int) -> PhiSeries:
    """Basis series of index k with coefficients through series order J.

    Coefficient j is w_j rho_{j-k}, with w_j = beta^(1-j) / j!, attached
    to x^(1-k+j).  Raises a singular-parameter error if any required rho
    value hits a vanishing G(-i beta) or a pole of G.  The coefficients are
    kept with the rho ladder in the (G, beta) record, so a longer series
    only extends them; w and rho are read from that record, w from its one
    weight row, shared by every k.
    """
    if k < 1:
        raise UsageError("basis index k must be >= 1", code="bad-index")
    if J < 0:
        raise UsageError("series order must be >= 0", code="bad-order")
    beta = Fraction(beta)
    record = _rho_ladder(G, beta)
    coeffs = record.phi.setdefault(k, [])
    if len(coeffs) <= J:
        w = record.weight_row(J)
        for j in range(len(coeffs), J + 1):
            coeffs.append(w[j] * record.rho(j - k))
    return PhiSeries(k, beta, 1 - k, tuple(coeffs[:J + 1]))


def max_regular_order(G: WeightGen, beta, k: int, J: int,
                      M: int | None = None) -> tuple[int, str | None]:
    """Largest series order <= J with all rho_{j-k} computable.

    Returns (order, reason); reason is None when the full window is regular.
    A singularity among the negative-index rho values (j < k) makes the
    series unconstructible and is re-raised.  The record grows each side of
    the ladder up to the first singular index, so the two ends of the
    window decide it, and a reason names the first singular index.
    """
    G = G if M is None else replace(G, M=M)  # perfbench passes M positionally
    if J < 0:
        return J, None
    record = _rho_ladder(G, Fraction(beta))
    # rho_{-k} first, as phi_k is built: it grows the whole negative side
    record.rho(-k)
    try:
        record.rho(J - k)
    except SingularParameterError:
        i = len(record.pos)
        try:
            record.rho(i)
        except SingularParameterError as exc:
            return i + k - 1, str(exc)
        raise
    return J, None


def euler_apply(p: PhiSeries) -> PhiSeries:
    """Euler operator x d/dx: multiply the x^m coefficient by m."""
    return PhiSeries(
        p.k,
        p.beta,
        p.lead_exp,
        tuple((p.lead_exp + j) * c for j, c in enumerate(p.coeffs)),
    )


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a termwise identity check on one basis series."""

    identity: str
    k: int
    beta: Fraction
    requested_order: int
    checked_order: int
    cap_reason: str | None
    max_abs_residual: Fraction
    ode_checked: bool = False

    @property
    def capped(self) -> bool:
        return self.checked_order < self.requested_order

    @property
    def ok(self) -> bool:
        return self.max_abs_residual == 0


def _identity_report(identity: str, k: int, beta: Fraction, J: int, checked: int,
                     reason: str | None, residuals: list[Fraction],
                     ode_checked: bool = False) -> IdentityReport:
    # the reason is reported only for a window that actually stops short of J
    return IdentityReport(
        identity, k, beta, J, checked, reason if checked < J else None,
        max((abs(r) for r in residuals if r), default=Fraction(0)), ode_checked,
    )


def _residual(a: Fraction, fn: int, fd: int, b: Fraction, m: int = 1) -> Fraction:
    """a f - m b with f = fn/fd, decided by one exact integer quotient: a
    residual is almost always 0, and forming it as a Fraction costs two gcds
    on big operands.

    With b = N/D reduced, a f = m b iff N divides na fn and
    (na fn // N) D = m da fd, since gcd(N, D) = 1; when N = 0, iff na fn = 0.
    Neither step needs fn/fd reduced.  The quotient is small, so this is one
    divmod and two big-by-small products.
    """
    nf = a.numerator * fn
    N = b.numerator
    if N == 0:
        equal = nf == 0
    else:
        q, r = divmod(nf, N)
        equal = r == 0 and q * b.denominator == m * a.denominator * fd
    return Fraction(0) if equal else a * Fraction(fn, fd) - m * b


def recursion_residuals(phi_km1: PhiSeries, phi_kk: PhiSeries) -> list[Fraction]:
    """Coefficients of beta (D + k - 1) phi_k - phi_{k-1} on shared powers.

    D acts on x^m as m, so the left side's x^m coefficient is
    beta (m + k - 1) c_m.  Each is decided by ``_residual`` with
    f = beta (m + k - 1), taken from beta's numerator and denominator as it
    stands, on the two series' own coefficients.
    """
    k = phi_kk.k
    u, v = phi_kk.beta.numerator, phi_kk.beta.denominator
    top = min(phi_kk.lead_exp + phi_kk.order, phi_km1.lead_exp + phi_km1.order)
    return [_residual(phi_kk.power_coeff(m), u * (m + k - 1), v, phi_km1.power_coeff(m))
            for m in range(phi_kk.lead_exp, top + 1)]


def check_recursion(G: WeightGen, beta, k: int, J: int,
                    M: int | None = None) -> IdentityReport:
    """Verify beta (D + k - 1) phi_k = phi_{k-1} termwise.

    Checks every coefficient both truncated series can supply; when the rho
    ladder hits a singular value the comparison stops at the last regular
    order and the report says so.  Both sides of the x^m coefficient read
    the same rho_{m-1}: the residual there is rho_{m-1} (beta j w_j - w_{j-1})
    with j = m + k - 1 and w the weight row of :func:`phi_k`, zero iff
    beta j w_j = w_{j-1} where rho_{m-1} != 0.  So this checks the weight
    row and the index shift, not rho itself.
    """
    if k < 2:
        raise UsageError("recursion check needs k >= 2 so both indices are >= 1",
                         code="bad-index")
    G = G if M is None else replace(G, M=M)  # perfbench passes M positionally
    beta = Fraction(beta)
    jk, reason_k = max_regular_order(G, beta, k, J)
    jkm1, reason_km1 = max_regular_order(G, beta, k - 1, J)
    cur = phi_k(G, beta, k, jk)
    prev = phi_k(G, beta, k - 1, jkm1)
    return _identity_report("recursion", k, beta, J, min(jk, jkm1 + 1),
                            reason_k or reason_km1, recursion_residuals(prev, cur))


def spectral_residuals(p: PhiSeries, G: WeightGen) -> list[Fraction]:
    """Coefficients of (x G(beta D) - D - (k-1)) phi_k, one per power of x.

    The coefficient of x^s is a_{s-1} G(beta (s-1)) - (s + k - 1) a_s,
    decided by ``_residual`` with f = G(beta (s-1)) and m = s + k - 1.
    Each G(i beta) is read from the (G, beta) record's table, the one the
    rho ladder grows from, and never derived from the rho values.  Raises
    if G must be evaluated at one of its poles.
    """
    k, beta = p.k, p.beta
    record = _rho_ladder(G, beta)
    out = [-(p.lead_exp + k - 1) * p.coeff(0)]
    for j in range(1, p.order + 1):
        s = p.lead_exp + j
        g = record.g_at(s - 1)
        out.append(_residual(p.coeff(j - 1), g.numerator, g.denominator, p.coeff(j), s + k - 1))
    return out


def _kappa(G: WeightGen, beta: Fraction) -> Fraction:
    val = Fraction(1)
    for cl in G.c:
        val *= beta * cl
    for dm in G.d:
        val /= beta * dm
    return -val if len(G.d) % 2 else val


def ode_residuals(p: PhiSeries, G: WeightGen) -> list[Fraction]:
    """Cleared-denominator form of the eigenvalue equation, termwise.

    -kappa x prod_l (D + 1/(beta c_l)) phi
      + (D + k - 1) prod_m (D - 1 - 1/(beta d_m)) phi  =  0,
    valid for ratio-type weight functions with nonzero c parameters; unlike
    the raw symbol form it never divides by a vanishing factor of G.  Both
    sides of each coefficient are compared as integers over one common
    denominator; only a nonzero residual becomes a Fraction.
    """
    if G.q is not None:
        raise UsageError("cleared ODE form exists for ratio-type weight functions",
                         code="bad-weight-kind")
    if any(cl == 0 for cl in G.c):
        raise SingularParameterError(
            "cleared ODE form needs nonzero c parameters", code="singular-ode"
        )
    k, beta = p.k, p.beta
    kappa = _kappa(G, beta)
    # the factors are s - 1 - 1/(beta d_m) = s - U_m/Du and
    # s - 1 + 1/(beta c_l) = s + V_l/Dv, each family over one denominator
    U, Du = _cleared([1 + 1 / (beta * dm) for dm in G.d])
    V, Dv = _cleared([1 / (beta * cl) - 1 for cl in G.c])
    Dd, Dc = Du ** len(U), Dv ** len(V)
    # second = (s+k-1) a_j prod (s - U_m/Du) and first = kappa a_{j-1} prod (s + V_l/Dv),
    # both times D = Dd Dc den(kappa) den(a_j) den(a_{j-1}), are ints
    out = []
    prev = Fraction(0)  # a_{-1}: the x^(lead_exp) coefficient has no first term
    for j, a in enumerate(p.coeffs):
        s = p.lead_exp + j
        second = (s + k - 1) * Dc * kappa.denominator
        for Um in U:
            second *= s * Du - Um
        first = kappa.numerator * Dd
        for Vl in V:
            first *= s * Dv + Vl
        second *= a.numerator * prev.denominator
        first *= prev.numerator * a.denominator
        out.append(Fraction(0) if second == first else Fraction(
            second - first, Dd * Dc * kappa.denominator * a.denominator * prev.denominator))
        prev = a
    return out


def check_spectral(G: WeightGen, beta, k: int, J: int,
                   M: int | None = None) -> IdentityReport:
    """Verify (x G(beta D) - D) phi_k = (k-1) phi_k termwise.

    For ratio-type G with nonzero c parameters the cleared-denominator ODE
    form is verified as well on the same window.  The symbol form holds
    exactly when rho_m = beta G(m beta) rho_{m-1}, which restates the rule
    the ladder grows by; only the cleared ODE form, whose factors are built
    from the parameters of G, checks rho from outside the ladder.
    """
    if k < 1:
        raise UsageError("basis index k must be >= 1", code="bad-index")
    G = G if M is None else replace(G, M=M)  # perfbench passes M positionally
    beta = Fraction(beta)
    jk, reason = max_regular_order(G, beta, k, J)
    p = phi_k(G, beta, k, jk)
    residuals = spectral_residuals(p, G)
    ode_checked = G.q is None and all(cl != 0 for cl in G.c)
    if ode_checked:
        residuals += ode_residuals(p, G)
    return _identity_report("spectral", k, beta, J, jk, reason, residuals, ode_checked)


# -- determinant representations -------------------------------------------

def vandermonde(xs) -> Fraction:
    """prod_{i<j} (x_i - x_j); zero signals coincident points."""
    xs = [Fraction(x) for x in xs]
    val = Fraction(1)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            val *= xs[i] - xs[j]
    return val


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square int matrix by fraction-free (Bareiss)
    elimination; every division is exact.  The rows are overwritten."""
    n = len(rows)
    sign, prev = 1, 1
    for p in range(n - 1):
        if rows[p][p] == 0:
            for i in range(p + 1, n):
                if rows[i][p] != 0:
                    rows[p], rows[i] = rows[i], rows[p]
                    sign = -sign
                    break
            else:
                return 0
        pivot, tail = rows[p][p], rows[p][p + 1:]
        # columns <= p of the rows below are never read again
        for row in rows[p + 1:]:
            f = row[p]
            row[p + 1:] = [(a * pivot - f * b) // prev for a, b in zip(row[p + 1:], tail)]
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def exact_det(matrix) -> Fraction:
    """Determinant, exact: each row is cleared to ints over the lcm of its
    denominators, and the int determinant is divided by their product."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise UsageError("determinant needs a square matrix", code="bad-matrix")
    scale = 1
    for i, row in enumerate(rows):
        rows[i], L = _cleared(row)
        scale *= L
    return Fraction(_int_det(rows), scale)


def det_rep_calibration(n: int) -> int:
    """Beta exponent correcting the literal determinant prefactor, -1 per row.

    Determined once by exact Schur-coefficient comparison against the direct
    series (see calibrate_det_exponent): the literal ratio-of-determinants
    formula carries one surplus factor of beta per basis index, so the
    corrected prefactor divides by beta * rho_{-i} for i = 1..n.  The
    literal coefficient of s_lambda is
        prod_j rho_{lambda_j - j} / rho_{-j} * beta^(...) * det[1 / (lambda_j - j + i)!]
    (see _literal_minors), so the comparison sets the ladder's row products
    against the content products r_lambda / h_lambda.
    """
    return -n


@dataclass(frozen=True)
class DetRepValue:
    value: Fraction
    beta_exponent: int


def _det_inputs(X, J):
    xs = [Fraction(x) for x in X]
    n = len(xs)
    if n == 0:
        raise UsageError("need at least one evaluation point", code="bad-matrix")
    if len(set(xs)) != n:
        raise SingularInputError("evaluation points must be distinct")
    if any(x == 0 for x in xs):
        raise SingularInputError("evaluation points must be nonzero")
    if J < n:
        raise UsageError(f"series order {J} too small for n = {n}", code="bad-order")
    return xs, n


def _rho_prefactor(record: _Ladder, n: int) -> Fraction:
    """1 / prod_{i=1..n} rho_{-i} from the (G, beta) record, shared by every
    determinant form."""
    pref = Fraction(1)
    for i in range(1, n + 1):
        pref /= record.rho(-i)
    return pref


def _det_form(G: WeightGen, beta: Fraction, xs: list[Fraction], rows,
              scale: Fraction) -> DetRepValue:
    """beta^e scale prod_j x_j^(n-1) det[row(x_j)] / (Delta(x) prod_i rho_{-i})
    with the calibrated exponent e; the rows are built by the caller first.

    Each x^(n-1) row(x) is a polynomial of top degree J; cleared to C/L, at
    x = u/v it is the int sum_m C_m u^m v^(J-m) over L v^J, so the
    determinant is one int determinant over prod_i L_i prod_j v_j^J.
    """
    n = len(xs)
    J = rows[0].lead_exp + rows[0].order + n - 1
    # u^m v^(J-m) for m = 0..J at each point, shared by every row
    powers = [[x.numerator ** m * x.denominator ** (J - m) for m in range(J + 1)]
              for x in xs]
    matrix, den = [], prod(x.denominator for x in xs) ** J
    for p in rows:
        C, L = _cleared(p.coeffs)
        den *= L
        low = p.lead_exp + n - 1
        matrix.append([sum(c * hom[m] for m, c in enumerate(C, low)) for hom in powers])
    pref = scale * _rho_prefactor(_rho_ladder(G, beta), n) / vandermonde(xs)
    e = det_rep_calibration(n)
    return DetRepValue(beta ** e * pref * Fraction(_int_det(matrix), den), e)


def tau_det_rep(G: WeightGen, beta, X, J: int) -> DetRepValue:
    """Ratio-of-determinants evaluation of the generating series at diag(X).

    Rows are phi_1 .. phi_n truncated to the shared top power 1 - n + J so
    the Wronskian form built from the same data matches exactly.  The
    calibrated beta exponent is applied and reported.
    """
    beta = Fraction(beta)
    xs, n = _det_inputs(X, J)
    phis = [phi_k(G, beta, i, J - n + i) for i in range(1, n + 1)]
    return _det_form(G, beta, xs, phis, Fraction(1))


def tau_wronskian(G: WeightGen, beta, X, J: int) -> DetRepValue:
    """Eulerian Wronskian evaluation; equals tau_det_rep exactly.

    Rows are D^(i-1) phi_n at the same truncation.  The prefactor carries
    (-beta)^(n(n-1)/2), the sign being forced by the row reversal in the
    reduction from phi_1..phi_n to Euler derivatives of phi_n.
    """
    beta = Fraction(beta)
    xs, n = _det_inputs(X, J)
    rows = [phi_k(G, beta, n, J)]
    for _ in range(n - 1):
        rows.append(euler_apply(rows[-1]))
    # row reduction from phi_i to euler-derivatives of phi_n reverses the
    # row order; the reversal permutation has sign (-1)^(n(n-1)/2)
    return _det_form(G, beta, xs, rows, (-beta) ** (n * (n - 1) // 2))


# -- Schur-basis comparison ------------------------------------------------
#
# For the dual-path acceptance check the evaluation points are kept formal.
# By Cauchy-Binet, det[x_j^(n-1) phi_i(x_j)] / Vandermonde(x) has one n x n
# minor of the phi coefficient array as its coefficient on each Schur
# function s_lambda; the direct series has r_lambda(beta) / h_lambda there.
# Both routes return {lambda: coefficient} over partitions with at most n
# parts, so they compare coefficient by coefficient.

def _literal_minors(G: WeightGen, beta, n: int, J: int, max_deg: int | None = None) -> dict:
    """Schur coefficients of the literal (beta^0) determinant formula.

    The coefficient of s_lambda is det[c_i(lambda_j + n - 1 - j)] over the
    rho_{-i} prefactor, c_i(m) being the x^m coefficient of x^(n-1) phi_i;
    every |lambda| <= 1 - n + J is exact.  With ``max_deg`` only the
    minors of |lambda| <= max_deg are taken; the rows are still built to J.

    Column c of the array carries the one factor rho_{c-n}: its entry in
    row i is beta^(1-j) rho_{c-n} / j! with j = c - n + i.  So, with
    i, j = 1..n, the coefficient of s_lambda is
        prod_j rho_{lambda_j - j} / rho_{-j} * beta^(...) * det[1 / (lambda_j - j + i)!],
    and each minor is taken on the small ints left once the column factors
    are divided out, with its columns' rho multiplied back in.
    """
    beta = Fraction(beta)
    if n < 1:
        raise UsageError("need n >= 1", code="bad-matrix")
    if J < n:
        raise UsageError(f"series order {J} too small for n = {n}", code="bad-order")
    phis = [phi_k(G, beta, i, J - n + i) for i in range(1, n + 1)]
    record = _rho_ladder(G, beta)
    pref = _rho_prefactor(record, n)
    top = 1 - n + J if max_deg is None else min(max_deg, 1 - n + J)
    # rho_{c-n} of each column c the minors read, which phi_n has already
    # taken; a zero column is all zeros and stays undivided
    rhos = [record.rho(c - n) or Fraction(1) for c in range(top + n)]
    # one row per phi_i: its coefficients of x^(1-n) .. x^top, the powers the
    # minors read, each over its column's rho; x^m sits in column m + n - 1
    rows, scale = [], pref.denominator
    for p in phis:
        ints, L = _cleared([p.power_coeff(c + 1 - n) / r for c, r in enumerate(rhos)])
        rows.append(ints)
        scale *= L
    out = {}
    for lam in partitions_up_to(top, n):
        parts = lam + (0,) * (n - len(lam))
        cols = [parts[j] - j + n - 1 for j in range(n)]
        minor = _int_det([[row[c] for c in cols] for row in rows])
        if minor:
            out[lam] = Fraction(pref.numerator * minor * prod(rhos[c].numerator for c in cols),
                                scale * prod(rhos[c].denominator for c in cols))
    return out


def tau_det_polynomial(G: WeightGen, beta, n: int, J: int) -> dict:
    """Determinant route with formal evaluation points, in the Schur basis.

    Returns {lambda: coefficient of s_lambda} for |lambda| <= 1 - n + J,
    exact, with the calibrated beta exponent applied.
    """
    minors = _literal_minors(G, beta, n, J)
    scale = Fraction(beta) ** det_rep_calibration(n)
    return {lam: scale * v for lam, v in minors.items()}


def tau_direct_polynomial(G: WeightGen, beta, n: int, max_deg: int) -> dict:
    """Direct series in the Schur basis: r_lambda(beta) / h_lambda.

    Covers partitions with at most n parts and |lambda| <= max_deg, so G is
    never evaluated at a content that only longer diagrams have.
    """
    r = _numeric_content_products(G, Fraction(beta), partitions_up_to(max_deg, n))
    return {lam: v / hook_product(lam) for lam, v in r.items() if v}


def calibrate_det_exponent(G: WeightGen, beta, n: int, J: int, compare_deg: int) -> int:
    """Beta exponent making the literal determinant formula match the series.

    Compares the two Schur-basis routes on every coefficient of degree
    <= compare_deg and returns the unique exponent; raises if no pure power
    of beta reconciles them.  The literal side is
        prod_j rho_{lambda_j - j} / rho_{-j} * beta^(...) * det[1 / (lambda_j - j + i)!],
    the direct side r_lambda(beta) / h_lambda: the ladder's row products
    against the content products.  The ladder reads G from its (G, beta)
    table and the content products evaluate it on their own, but both
    through eval_weight_gen, so an error there is not caught here.
    """
    beta = Fraction(beta)
    if abs(beta) == 1:
        raise UsageError(
            "calibration cannot separate beta powers at |beta| = 1",
            code="bad-beta",
        )
    if compare_deg > 1 - n + J:
        raise UsageError(
            f"comparison degree {compare_deg} exceeds the guaranteed degree {1 - n + J}",
            code="bad-order",
        )
    # the constant term is read even when compare_deg < 0
    literal = _literal_minors(G, beta, n, J, max(compare_deg, 0))
    direct = tau_direct_polynomial(G, beta, n, max(compare_deg, 0))
    const = ()
    base = literal.get(const)
    if not base:
        raise SingularParameterError(
            "literal determinant formula has vanishing constant term",
            code="calibration-failed",
        )
    ratio = direct[const] / base
    exponent = None
    for e in range(-8 * n - 8, 8 * n + 9):
        if beta ** e == ratio:
            exponent = e
            break
    if exponent is None:
        raise SingularParameterError(
            f"no integer beta exponent matches the constant-term ratio {ratio}",
            code="calibration-failed",
        )
    scale = beta ** exponent
    keys = {k for k in literal if sum(k) <= compare_deg}
    keys |= {k for k in direct if sum(k) <= compare_deg}
    for key in keys:
        if scale * literal.get(key, Fraction(0)) != direct.get(key, Fraction(0)):
            raise SingularParameterError(
                f"calibration is not a pure beta power: mismatch at {key}",
                code="calibration-failed",
            )
    return exponent
