"""The three workload passes and the checks that verify their answers.

A pass times each request (one CLI invocation, or a whole batch of
public calls) and then checks every answer by an independent second
route.  Program
functions are looked up on their module at call time, so the tracer's
wrappers are used when installed.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial
from time import perf_counter

import hurwitz_tau as ht
from hurwitz_tau import cli

import inputs as inp


class Pass:
    """Request latencies and verification counts of one workload pass.

    An operation fails when its two routes disagree, an identity residual
    is nonzero, or a call raises anything but a documented singular case;
    a singular case or a shortened window is counted as capped instead.
    """

    MAX_NOTES = 10

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.capped = 0
        self.notes: list[str] = []

    @contextmanager
    def request(self):
        """Time one request: what a user asks for in one go."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.latencies.append(perf_counter() - t0)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(what)

    def error(self, what: str, exc: BaseException):
        msg = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.check(False, f"{what}: {msg}")

    def cap(self):
        self.attempted += 1
        self.capped += 1


def is_documented_singular(exc: BaseException) -> bool:
    """A pole or vanishing factor of G, as the CLI suites report with SKIP.

    A failed calibration is a disagreement between two routes, not a pole.
    """
    return (isinstance(exc, ht.SingularParameterError)
            and exc.code != "calibration-failed")


def weight_gen(fam: inp.Family) -> ht.WeightGen:
    if fam.kind == "trivial":
        return ht.WeightGen.trivial()
    if fam.kind == "finite":
        return ht.WeightGen.finite_product(fam.c)
    if fam.kind == "rational":
        return ht.WeightGen.rational(fam.c, fam.d)
    return ht.WeightGen.quantum(fam.q)


def z_mu(mu) -> int:
    """Centralizer order prod i^m_i m_i!, computed here, not by the package."""
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part ** m * factorial(m)
    return z


def hook_product(lam) -> int:
    """Product of hook lengths, computed here, not by the package."""
    h = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in lam[i + 1:] if r > j)
            h *= arm + leg + 1
    return h


# -- tables -----------------------------------------------------------------

def run_tables(data: inp.TablesInput, p: Pass):
    built = []
    with p.request():  # the whole bulk build is one request
        for fam in data.families:
            G = weight_gen(fam)
            try:
                T = ht.tau_double_table(G, inp.TABLE_ORDER, inp.TABLE_NMAX)
                S = ht.tau_single_table(G, inp.TABLE_ORDER, inp.TABLE_NMAX)
            except Exception as exc:
                p.error(f"tables {fam}", exc)
                continue
            built.append((fam, G, T, S))
    for fam, G, T, S in built:
        check_tables(fam, G, T, S, p)


def check_tables(fam, G, T, S, p: Pass):
    for (mu, nu, e), v in T.coeffs.items():
        p.check(T.entry(nu, mu, e) == v, f"{fam}: table not symmetric at {mu},{nu},{e}")
    for n in range(inp.TABLE_NMAX + 1):
        parts = inp.partitions_of(n)
        ident = (1,) * n
        for mu in parts:
            for nu in parts:
                want = Fraction(1, z_mu(mu)) if mu == nu else Fraction(0)
                p.check(T.entry(mu, nu, n) == want, f"{fam}: d=0 entry {mu},{nu}")
            for d in range(inp.TABLE_ORDER + 1):
                p.check(S[(mu, d)] == T.entry(mu, ident, n + d),
                        f"{fam}: single != double at {mu},(1^{n}),{d}")
        if n > inp.TABLE_CHECK_NMAX:
            continue
        for mu in parts:
            for nu in ([ident] if G.kind == "quantum" else parts):
                for d in range(inp.TABLE_CHECK_D + 1):
                    try:
                        ok = ht.weighted_hurwitz(G, d, mu, nu) == ht.extract_H(T, d, mu, nu)
                    except Exception as exc:
                        p.error(f"{fam}: direct count {mu},{nu},{d}", exc)
                        continue
                    p.check(ok, f"{fam}: direct count != series at {mu},{nu},{d}")


# -- queries ----------------------------------------------------------------

def run_queries(data: inp.QueriesInput, p: Pass):
    answers = []
    for q in data.queries:
        out, err = io.StringIO(), io.StringIO()
        with p.request():
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.run(list(q.argv))
            except (Exception, SystemExit) as exc:
                # the CLI promises a result or a structured error, never this
                rc = exc
        answers.append((q, rc, out.getvalue()))
    gens = [weight_gen(f) for f in data.families]
    tables = [ht.tau_double_table(G, inp.QUERY_TABLE_ORDER, inp.QUERY_TABLE_NMAX)
              for G in gens]
    seen_tables: dict[int, str] = {}
    for q, rc, text in answers:
        what = " ".join(q.argv)
        if rc != 0:
            if isinstance(rc, BaseException):
                p.error(what, rc)
            else:
                p.check(False, f"{what}: exit {rc}")
            continue
        try:
            if q.kind == "weighted":
                ok = check_weighted(q, text, tables[q.family])
            elif q.kind == "hurwitz":
                obj = json.loads(text)
                ok = Fraction(obj["H"]) == Fraction(obj["oracle"])
            elif q.kind == "phi":
                ok = check_phi(q, text, data.families[q.family], gens[q.family])
            else:
                n = q.meta[0]
                ok = seen_tables[n] == text if n in seen_tables else check_chartable(n, text)
                seen_tables.setdefault(n, text)
        except Exception as exc:
            p.error(what, exc)
            continue
        p.check(ok, what)


def check_weighted(q: inp.Query, text: str, table) -> bool:
    d, mu, nu = q.meta
    obj = json.loads(text)
    return (obj["d"] == d and tuple(obj["mu"]) == mu and tuple(obj["nu"]) == nu
            and Fraction(obj["H"]) == ht.extract_H(table, d, mu, nu))


def g_value(fam: inp.Family, x: Fraction) -> Fraction:
    """G(x) of a trivial, finite or rational family, evaluated here, not by
    the package."""
    val = Fraction(1)
    for c in fam.c:
        val *= 1 + c * x
    for d in fam.d:
        val /= 1 - d * x
    return val


def check_phi(q: inp.Query, text: str, fam: inp.Family, G) -> bool:
    """The printed series has the right leading coefficient and satisfies
    the spectral equation termwise, which fixes every later coefficient.

    The leading coefficient is beta * rho_{-k} = beta^(1-k) / prod_{i<k} G(-i beta).
    """
    k, beta = q.meta
    obj = json.loads(text)
    coeffs = tuple(Fraction(c) for c in obj["coeffs"])
    if obj["lead_exp"] != 1 - k or len(coeffs) != inp.PHI_ORDER + 1:
        return False
    lead = beta ** (1 - k)
    for i in range(1, k):
        lead /= g_value(fam, -i * beta)
    if coeffs[0] != lead:
        return False
    series = ht.PhiSeries(k, beta, 1 - k, coeffs)
    return all(r == 0 for r in ht.analytic.spectral_residuals(series, G))


def _parse_partition(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("[]").split(",") if x)


def check_chartable(n: int, text: str) -> bool:
    """Hook-length dimensions and row orthogonality of the printed table."""
    header, *body = csv.reader(io.StringIO(text))
    classes = [_parse_partition(c) for c in header[1:]]
    rows = {_parse_partition(cells[0]): [int(x) for x in cells[1:]] for cells in body}
    parts = inp.partitions_of(n)
    if sorted(classes) != sorted(parts) or sorted(rows) != sorted(parts):
        return False
    nfact = factorial(n)
    ident = classes.index((1,) * n)
    if any(row[ident] != nfact // hook_product(lam) for lam, row in rows.items()):
        return False
    weights = [nfact // z_mu(mu) for mu in classes]
    vectors = list(rows.values())
    for a, row in enumerate(vectors):
        weighted = list(map(operator.mul, weights, row))
        for b in range(a, len(vectors)):
            dot = sum(map(operator.mul, weighted, vectors[b]))
            if dot != (nfact if a == b else 0):
                return False
    return True


# -- determinants -----------------------------------------------------------

def run_determinants(data: inp.DeterminantsInput, p: Pass):
    an = ht.analytic
    dets, reports = [], []
    with p.request():  # the whole batch is one request
        for fam, beta, ns in data.det_cases:
            G = weight_gen(fam)
            for n in ns:
                J = inp.DET_J if n < 4 else inp.DET_N4_J
                what = f"{fam} beta={beta} n={n} J={J}"
                try:
                    e = an.calibrate_det_exponent(
                        G, beta, n, J, compare_deg=min(inp.DET_COMPARE_DEG, 1 - n + J))
                    det = an.tau_det_rep(G, beta, data.points[:n], J)
                    wr = an.tau_wronskian(G, beta, data.points[:n], J)
                except Exception as exc:
                    if is_documented_singular(exc):
                        p.cap()
                    else:
                        p.error(what, exc)
                    continue
                dets.append((what, n, e, det, wr))
        for fam, beta, M in data.checks:
            G = weight_gen(fam)
            for k in inp.CHECK_K:
                for name, check in (("recursion", an.check_recursion),
                                    ("spectral", an.check_spectral)):
                    what = f"{name} {fam} beta={beta} k={k}"
                    try:
                        reports.append((what, check(G, beta, k, inp.CHECK_ORDER, M)))
                    except Exception as exc:
                        if is_documented_singular(exc):
                            p.cap()
                        else:
                            p.error(what, exc)
    for what, n, e, det, wr in dets:
        p.check(e == an.det_rep_calibration(n), f"{what}: calibrated exponent {e}")
        p.check(det.value == wr.value, f"{what}: determinant != Wronskian")
    for what, rep in reports:
        p.check(rep.ok, f"{what}: residual {rep.max_abs_residual}")
        if rep.capped:
            p.capped += 1


RUNNERS = {
    "tables": run_tables,
    "queries": run_queries,
    "determinants": run_determinants,
}
