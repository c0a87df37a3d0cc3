"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.  Criteria 7 and 8 run their identity on the full grid at series
order 24.  Where the grid meets a pole or a zero of the weight generating
function, the order-24 window does not exist; each grid point is then held
to the window or the singularity that the closed form in ``rho_windows``
predicts (see the package README for the analysis), and the PASS/FAIL line
names every such point.
"""

import re
import time
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from hurwitz_tau.analytic import (
    calibrate_det_exponent,
    check_recursion,
    check_spectral,
    phi_k,
    recursion_residuals,
    spectral_residuals,
    tau_det_polynomial,
    tau_det_rep,
    tau_direct_polynomial,
    tau_wronskian,
)
from hurwitz_tau.errors import SingularParameterError
from hurwitz_tau.hurwitz import ProfileTuple, hurwitz_number, hurwitz_oracle
from hurwitz_tau.partitions import (
    enumerate_partitions,
    identity_cycle_type,
    weight,
    z_of,
)
from hurwitz_tau.tau_series import extract_H, tau_double_table, tau_single_table
from hurwitz_tau.weights import (
    WeightGen,
    profile_multisets,
    quantum_weight_factor,
    weight_factor_tilde,
    weighted_hurwitz,
)
from rho_windows import predicted_window

G_RATIONAL = WeightGen.rational([F(1)], [F(1, 3)])
G_QUANTUM = WeightGen.quantum(F(1, 2))
G_TRIVIAL = WeightGen.trivial()
BETAS = (F(1, 3), F(1, 5), F(1, 7))
# outcomes on the criteria 7/8 grid at order 24 (see the README analysis)
GRID_SPLIT = {"full": 18, "capped": 8, "singular": 4}


def report(idx: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_character_sum_vs_factorization_oracle():
    start = time.time()
    mismatches = []
    cases = 0
    for N in (2, 3, 4, 5):
        parts = enumerate_partitions(N)
        for k in (1, 2, 3):
            for profs in product(parts, repeat=k):
                pt = ProfileTuple(N, profs)
                cases += 1
                if hurwitz_number(pt) != hurwitz_oracle(pt):
                    mismatches.append(profs)
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 600
    report(1, ok, f"{cases} profile tuples over N in 2..5, "
                  f"{len(mismatches)} mismatches, {elapsed:.1f}s")
    assert not mismatches, f"oracle disagreements: {mismatches[:5]}"
    assert elapsed < 600, f"sweep took {elapsed:.0f}s, budget is 600s"


def test_criterion_2_pinned_exact_values():
    pinned = [
        (ProfileTuple(2, ((2,), (2,))), F(1, 2)),
        (ProfileTuple(2, ((1, 1),)), F(1, 2)),
        (ProfileTuple(2, ((2,), (2,), (2,))), F(0)),
        (ProfileTuple(3, ((3,), (3,))), F(1, 3)),
    ]
    bad = [
        (pt.profiles, got, want)
        for pt, want in pinned
        for got in [hurwitz_number(pt)]
        if got != want or hurwitz_oracle(pt) != want
    ]
    report(2, not bad, f"{len(pinned)} pinned values, both computation routes")
    assert not bad, bad


def test_criterion_3_series_coefficients_equal_weighted_counts():
    start = time.time()
    cases = 0
    bad = []
    for G in (G_RATIONAL, G_QUANTUM):
        table = tau_double_table(G, 3, 4)
        for n in range(5):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    for d in range(4):
                        cases += 1
                        if extract_H(table, d, mu, nu) != weighted_hurwitz(G, d, mu, nu):
                            bad.append((G.kind, d, mu, nu))
    elapsed = time.time() - start
    ok = not bad and cases >= 200 and elapsed < 300
    report(3, ok, f"{cases} (mu, nu, d) cases across both weight families, "
                  f"{len(bad)} mismatches, {elapsed:.1f}s")
    assert not bad, bad[:5]
    assert cases >= 200
    assert elapsed < 300


def test_criterion_4_base_coefficients_are_orthogonality():
    bad = []
    for G in (G_RATIONAL, G_QUANTUM):
        table = tau_double_table(G, 0, 5)
        for n in range(6):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    expected = F(1, z_of(mu)) if mu == nu else F(0)
                    if extract_H(table, 0, mu, nu) != expected:
                        bad.append((G.kind, mu, nu))
    report(4, not bad, "d=0 entries equal delta_(mu,nu)/z_mu, |mu| <= 5, both families")
    assert not bad, bad[:5]


def test_criterion_5_single_series_specialization():
    bad = []
    for G in (G_RATIONAL, G_QUANTUM):
        single = tau_single_table(G, 3, 4)
        table = tau_double_table(G, 3, 4)
        for (mu, d), v in single.items():
            if v != extract_H(table, d, mu, identity_cycle_type(weight(mu))):
                bad.append((G.kind, mu, d))
    report(5, not bad, "single-series entries match the double table at (1^N)")
    assert not bad, bad[:5]


def test_criterion_6_quantum_closed_form_vs_truncated():
    q = F(1, 2)
    trunc = [q ** i for i in range(61)]
    bound = F(1, 2 ** 40)
    worst = F(0)
    cases = 0
    for N in (1, 2, 3, 4):
        for d in range(1, 5):
            for profiles, _ in profile_multisets(N, d):
                gap = abs(
                    quantum_weight_factor(q, profiles)
                    - weight_factor_tilde(trunc, profiles)
                )
                worst = max(worst, gap)
                cases += 1
    ok = worst < bound
    report(6, ok, f"{cases} profile tuples, worst gap {float(worst):.3e} < 2^-40")
    assert ok, f"worst gap {worst} >= 2^-40"


def _grid_coverage(identity_check, order: int):
    """Run an identity check over the stated grid against the predicted windows.

    Every point must give exactly zero residuals on the window the closed
    form predicts: the full ``order``, a window capped by a pole of G, or an
    unconstructible phi_k.  Returns the count of each predicted outcome, one
    line per point that a singularity limits, and one line per point that
    departs from its prediction.
    """
    counts = {"full": 0, "capped": 0, "singular": 0}
    limited = []
    wrong = []
    for G, gname in ((G_TRIVIAL, "trivial"), (G_RATIONAL, "rational c=(1) d=(1/3)")):
        for beta in BETAS:
            for k in range(2, 7):
                where = f"{gname} beta={beta} k={k}"
                want = predicted_window(G, beta, k, order)
                counts[want.outcome] += 1
                try:
                    rep = identity_check(G, beta, k, order)
                except SingularParameterError as exc:
                    factor = f"G(-{want.index}*beta) = 0"
                    if want.outcome != "singular":
                        wrong.append(f"{where}: raised {exc.code} ({exc}), "
                                     f"predicted order {want.order}")
                    elif exc.code != "singular-rho" or factor not in str(exc):
                        wrong.append(f"{where}: raised {exc.code} ({exc}), "
                                     f"predicted singular-rho naming {factor}")
                    else:
                        limited.append(f"{where}: unconstructible, {factor}")
                    continue
                if want.outcome == "singular":
                    wrong.append(f"{where}: ran to order {rep.checked_order}, "
                                 f"predicted unconstructible (G(-{want.index}*beta) = 0)")
                    continue
                if not rep.ok:
                    wrong.append(f"{where}: nonzero residual, "
                                 f"max |r| = {rep.max_abs_residual}")
                if rep.requested_order != order or rep.checked_order != want.order:
                    wrong.append(f"{where}: checked orders 0..{rep.checked_order} "
                                 f"of {rep.requested_order}, predicted 0..{want.order}")
                if want.outcome == "full":
                    if rep.capped or rep.cap_reason is not None:
                        wrong.append(f"{where}: capped ({rep.cap_reason}), predicted full")
                    continue
                if not rep.capped or not re.search(rf"\brho_{want.index}\b",
                                                   rep.cap_reason or ""):
                    wrong.append(f"{where}: capped={rep.capped} ({rep.cap_reason}), "
                                 f"predicted a cap at rho_{want.index}")
                limited.append(f"{where}: orders 0..{rep.checked_order}, "
                                f"pole at rho_{want.index}")
    return counts, limited, wrong


def _check_grid(idx: int, identity_check, prefix: str = "", control_ok: bool = True):
    counts, limited, wrong = _grid_coverage(identity_check, 24)
    split_ok = counts == GRID_SPLIT
    ok = control_ok and split_ok and not wrong
    detail = (
        f"{prefix}residuals exactly zero on every predicted window: "
        f"{counts['full']} grid points reach order 24, {counts['capped']} are "
        f"capped by the pole of G at z=3 (rho ladder ends at index 3/beta), "
        f"{counts['singular']} are unconstructible (G(-i beta)=0 at i=1/beta); "
        f"{len(wrong)} departures from the prediction\n  " + "\n  ".join(limited)
    )
    report(idx, ok, detail)
    assert not wrong, "grid points off their predicted window:\n  " + "\n  ".join(wrong)
    assert split_ok, f"predicted split {counts}, the analysis gives {GRID_SPLIT}"


def test_criterion_7_recursion_identity_through_order_24():
    _check_grid(7, check_recursion)


def test_criterion_8_spectral_identity_through_order_24():
    # negative control first: a perturbed coefficient must break the identity
    p = phi_k(G_RATIONAL, F(1, 7), 3, 12)
    bad = replace(p, coeffs=p.coeffs[:6] + (p.coeff(6) + F(1, 2 ** 50),) + p.coeffs[7:])
    control_fails = any(r != 0 for r in spectral_residuals(bad, G_RATIONAL))
    p2 = phi_k(G_RATIONAL, F(1, 7), 2, 12)
    bad2 = replace(p2, coeffs=p2.coeffs[:5] + (p2.coeff(5) * F(999, 1000),) + p2.coeffs[6:])
    control_fails = control_fails and any(
        r != 0 for r in recursion_residuals(phi_k(G_RATIONAL, F(1, 7), 1, 12), bad2)
    )
    _check_grid(8, check_spectral, f"negative control rejected: {control_fails}; ",
                control_ok=control_fails)
    assert control_fails, "perturbed series was not detected"


def test_criterion_9_determinantal_representation():
    beta = F(1, 7)
    J = 14
    xs = [F(1, 100), F(1, 200), F(1, 300)]
    exponents = []
    for n in (1, 2, 3):
        deg = min(7, 1 - n + J)
        e = calibrate_det_exponent(G_RATIONAL, beta, n, J, compare_deg=deg)
        exponents.append(e)
        det_poly = tau_det_polynomial(G_RATIONAL, beta, n, J)
        direct = tau_direct_polynomial(G_RATIONAL, beta, n, deg)
        keys = {k for k in det_poly if sum(k) <= deg}
        keys |= {k for k in direct if sum(k) <= deg}
        for key in keys:
            assert det_poly.get(key, F(0)) == direct.get(key, F(0)), (n, key)
        det = tau_det_rep(G_RATIONAL, beta, xs[:n], J)
        wrons = tau_wronskian(G_RATIONAL, beta, xs[:n], J)
        assert det.value == wrons.value, f"Wronskian mismatch at n={n}"
    # one calibration rule across n: a constant exponent per basis index
    per_row = {e / n for n, e in zip((1, 2, 3), exponents)}
    ok = exponents == [-1, -2, -3] and per_row == {-1}
    report(9, ok, f"calibrated exponents {exponents} (constant -1 per row index); "
                  f"coefficients match through the guaranteed degree; "
                  f"Wronskian = determinant exactly for n = 1, 2, 3")
    assert ok


def test_criterion_10_trivial_weight_closed_form():
    bad = []
    beta = F(1, 5)
    for k in range(1, 7):
        p = phi_k(G_TRIVIAL, beta, k, 30)
        for j in range(31):
            expected = beta ** (1 - k) / _factorial(j)
            if p.coeff(j) != expected:
                bad.append((k, j))
    report(10, not bad, "phi_k coefficients equal beta^(1-k)/j! for j <= 30, k <= 6")
    assert not bad, bad[:5]


def _factorial(j: int) -> int:
    out = 1
    for i in range(2, j + 1):
        out *= i
    return out
