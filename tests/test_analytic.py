import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau import analytic, cli, tau_series
from hurwitz_tau.analytic import (
    calibrate_det_exponent,
    check_recursion,
    check_spectral,
    det_rep_calibration,
    euler_apply,
    exact_det,
    max_regular_order,
    ode_residuals,
    phi_k,
    recursion_residuals,
    spectral_residuals,
    tau_det_polynomial,
    tau_det_rep,
    tau_direct_polynomial,
    tau_wronskian,
    vandermonde,
)
from hurwitz_tau.errors import SingularInputError, SingularParameterError, UsageError
from hurwitz_tau.tau_series import rho, tau_eval_at_matrix
from hurwitz_tau.weights import WeightGen, eval_weight_gen
from rho_windows import predicted_window

GT = WeightGen.trivial()
G1 = WeightGen.rational([1], [])
GR = WeightGen.rational([1], [F(1, 3)])
GQ = WeightGen.quantum(F(1, 2))


def test_phi_trivial_closed_form():
    for k in (1, 2, 6):
        for beta in (F(1, 3), F(2, 7)):
            p = phi_k(GT, beta, k, 30)
            assert p.lead_exp == 1 - k
            for j in range(31):
                assert p.coeff(j) == beta ** (1 - k) / factorial(j)


def test_phi_constant_term_is_one_for_k1():
    for G in (GT, G1, GR):
        assert phi_k(G, F(1, 5), 1, 5).coeff(0) == 1


def test_phi_example_coefficient():
    # G = 1 + z, beta = 1, k = 1: coefficient of x^2 is rho_1 / 2 = G(1)/2 = 1
    p = phi_k(G1, 1, 1, 4)
    assert p.coeff(2) == 1


def test_phi_validation():
    with pytest.raises(UsageError):
        phi_k(G1, F(1, 3), 0, 5)
    with pytest.raises(UsageError):
        phi_k(GQ, F(1, 9), 1, 5)  # quantum needs M
    p = phi_k(replace(GQ, M=40), F(1, 9), 1, 5)
    assert p.coeff(0) == 1


def test_euler_apply():
    p = phi_k(GT, F(1, 2), 2, 4)  # lead exponent -1
    d = euler_apply(p)
    assert d.power_coeff(-1) == -p.power_coeff(-1)
    assert d.power_coeff(0) == 0
    assert d.power_coeff(3) == 3 * p.power_coeff(3)


@pytest.mark.parametrize("G", [GT, G1, GR])
@pytest.mark.parametrize("beta", [F(1, 5), F(1, 7)])
def test_recursion_identity(G, beta):
    for k in (2, 3, 4):
        rep = check_recursion(G, beta, k, 20)
        assert rep.ok
        # 16/17/18 for GR at beta = 1/5 (pole of G at rho_15), else 20
        want = predicted_window(G, beta, k, 20)
        assert rep.checked_order == want.order
        assert rep.capped == (want.outcome == "capped")


def test_recursion_identity_negative_control():
    p2 = phi_k(G1, F(1, 3), 2, 10)
    p1 = phi_k(G1, F(1, 3), 1, 10)
    assert all(r == 0 for r in recursion_residuals(p1, p2))
    byte_flip = replace(p2, coeffs=p2.coeffs[:4] + (p2.coeff(4) + F(1, 10 ** 9),) + p2.coeffs[5:])
    assert any(r != 0 for r in recursion_residuals(p1, byte_flip))


@pytest.mark.parametrize("G", [GT, G1, GR])
def test_spectral_identity(G):
    for k in (1, 2, 5):
        rep = check_spectral(G, F(1, 7), k, 18)
        assert rep.ok
        assert rep.ode_checked


def test_spectral_negative_control():
    p = phi_k(GR, F(1, 7), 3, 12)
    assert all(r == 0 for r in spectral_residuals(p, GR))
    assert all(r == 0 for r in ode_residuals(p, GR))
    bad = replace(p, coeffs=p.coeffs[:5] + (p.coeff(5) * F(1000001, 1000000),) + p.coeffs[6:])
    assert any(r != 0 for r in spectral_residuals(bad, GR))
    assert any(r != 0 for r in ode_residuals(bad, GR))


@pytest.fixture
def cold_ladder():
    """Empty rho ladders and phi prefixes before and after the test."""
    tau_series._rho_ladder.cache_clear()
    tau_series.rho.cache_clear()
    yield
    tau_series._rho_ladder.cache_clear()
    tau_series.rho.cache_clear()


def test_spectral_catches_one_wrong_rho(cold_ladder, monkeypatch):
    # rho_3 off by 2^-50 as phi_k reads it: the symbol form compares it with
    # G(3 beta) rho_2 and must fail; the recursion line reads rho_3 on both
    # sides, so it cannot see it (check_recursion's docstring)
    real = tau_series._Ladder.rho
    monkeypatch.setattr(tau_series._Ladder, "rho",
                        lambda self, j: real(self, j) * (1 + F(1, 2 ** 50) * (j == 3)))
    for k in (2, 3, 4):
        assert not check_spectral(GR, F(1, 8), k, 24).ok
        assert check_recursion(GR, F(1, 8), k, 24).ok


def test_spectral_catches_one_wrong_rho_quantum(cold_ladder, monkeypatch):
    # the same fault on quantum G_40: its coefficients reach ~20k bits, so the
    # symbol form's exact decision must still see a 2^-50 error in rho_3
    G = replace(GQ, M=40)
    real = tau_series._Ladder.rho
    monkeypatch.setattr(tau_series._Ladder, "rho",
                        lambda self, j: real(self, j) * (1 + F(1, 2 ** 50) * (j == 3)))
    for k in (2, 3, 4):
        assert not check_spectral(G, F(1, 23), k, 24).ok
        assert check_recursion(G, F(1, 23), k, 24).ok


def test_symbol_evaluates_g_once_per_point(cold_ladder, monkeypatch):
    # the rho ladder and the symbol form read G(i beta) from one table in the
    # (G, beta) record, so k = 1..6 at order 24 evaluate each point once, not
    # once per side, k and coefficient
    calls = []
    real = tau_series.eval_weight_gen
    monkeypatch.setattr(tau_series, "eval_weight_gen",
                        lambda G, x: calls.append(x) or real(G, x))
    for k in range(1, 7):
        assert check_spectral(GR, F(1, 8), k, 24).ok
    # s - 1 runs over -5..23 for k = 1..6; the ladder's i over -5..-1, 1..23
    assert len(calls) == len(set(calls)) == 29


def test_ladder_cache_clear_alone_keeps_the_determinant_route(cold_ladder):
    # a new record under rho's still-warm cache: the literal minors read
    # their column factors from the record, which grows them again
    assert calibrate_det_exponent(GR, F(1, 7), 3, 12, 5) == -3
    tau_series._rho_ladder.cache_clear()
    assert calibrate_det_exponent(GR, F(1, 7), 3, 12, 5) == -3
    # and the converse: rho's cache cleared alone under a warm record leaves
    # every route as it was, and no route of the package fills it again
    routes = [lambda: calibrate_det_exponent(GR, F(1, 7), 3, 12, 5),
              lambda: tau_det_polynomial(GR, F(1, 7), 3, 12),
              lambda: tau_det_rep(GR, F(1, 7), [F(1, 2), F(1, 3), F(2, 5)], 12),
              lambda: tau_wronskian(GR, F(1, 7), [F(1, 2), F(1, 3), F(2, 5)], 12),
              lambda: [check_spectral(GR, F(1, 7), k, 24) for k in (1, 2, 3)],
              lambda: [check_recursion(GR, F(1, 7), k, 24) for k in (2, 3)]]
    rho(GR, 2, F(1, 7))
    warm = [route() for route in routes]
    tau_series.rho.cache_clear()
    assert [route() for route in routes] == warm
    assert tau_series.rho.cache_info().currsize == 0


def test_ladder_cache_clear_is_the_whole_patch_rule(cold_ladder, monkeypatch):
    # G(2 beta) off by 2^-50 after a warm ladder, and only _rho_ladder
    # cleared: phi_k reads rho from the new record, grown from the same
    # table the symbol form reads, so the symbol form (which restates the
    # ladder's own rule) still holds
    G, beta = replace(GQ, M=40), F(1, 23)
    for k in (2, 3):
        assert check_spectral(G, beta, k, 20).ok
    real = tau_series.eval_weight_gen
    monkeypatch.setattr(tau_series, "eval_weight_gen",
                        lambda G, x: real(G, x) * (1 + F(1, 2 ** 50) * (x == 2 * beta)))
    tau_series._rho_ladder.cache_clear()
    assert [check_spectral(G, beta, k, 20).ok for k in (2, 3)] == [True, True]


def phi_by_per_k_stepping(G, beta, k, J):
    """phi_k's coefficients with the weight stepped for this k alone, as
    each k once did: w = beta^(1-j) / j!, divided by beta (j + 1) after
    coefficient j.  A singular rho gives its message instead."""
    w, out = beta, []  # beta^(1-0) / 0!
    try:
        for j in range(J + 1):
            out.append(w * rho(G, j - k, beta))
            w /= beta * (j + 1)
    except SingularParameterError as exc:
        return str(exc)
    return tuple(out)


PHI_GROWTH_ORDERS = {
    "k down": [(k, 14) for k in range(6, 0, -1)],
    "short J then long J": [(k, J) for J in (3, 14) for k in range(1, 7)],
    "interleaved": [(1, 2), (4, 9), (2, 14), (6, 5), (1, 14), (3, 7), (6, 14), (2, 3),
                    (4, 14), (3, 14), (5, 8), (5, 14)],
}


@pytest.mark.parametrize("G", [GT, GR, WeightGen.finite_product([1, F(1, 2), F(-1, 3)]),
                               WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]),
                               replace(GQ, M=40)], ids=lambda G: G.describe())
def test_phi_weight_row_matches_per_k_stepping(G, cold_ladder):
    # every phi_k reads w_j from the one weight row of its (G, beta) record;
    # whatever order the series grow in, each must equal its own stepping
    regular = 0
    for beta in (F(1, 7), F(-1, 5), F(2, 11), F(1, 23)):
        for steps in PHI_GROWTH_ORDERS.values():
            tau_series._rho_ladder.cache_clear()
            tau_series.rho.cache_clear()
            for k, J in steps:
                try:
                    got = phi_k(G, beta, k, J).coeffs
                except SingularParameterError as exc:
                    got = str(exc)
                assert got == phi_by_per_k_stepping(G, beta, k, J), (beta, k, J)
                regular += type(got) is tuple
    # of the 4 x 30 series, G_40 cannot build the 32 that meet its poles at
    # i beta = 1 or 2 (beta = 1/7, 2/11) or phi_6 at beta = -1/5
    assert regular == (120 if G.q is None else 88)


@pytest.mark.parametrize("i, failing", [(2, (1, 2, 3)), (-1, (2, 3))])
@pytest.mark.parametrize("argv", [
    ["--gen", "quantum", "--q", "1/2", "--m", "40", "--beta", "1/23"],
    ["--gen", "rational", "--c", "1", "--d=1/3", "--beta", "1/8"],
], ids=["quantum", "rational"])
def test_one_wrong_table_entry_fails_the_determinant_lines(argv, i, failing, cold_ladder,
                                                           monkeypatch, capsys):
    # G(i beta) off by 2^-50 in the (G, beta) table: the literal minors read
    # it through rho, while the direct content products evaluate G on their
    # own, so the calibration must fail; a fault in eval_weight_gen itself
    # reaches both sides and is not caught here
    real = tau_series._Ladder.g_at

    def g_at(self, j):
        return real(self, j) * (1 + F(1, 2 ** 50) * (j == i))

    monkeypatch.setattr(tau_series._Ladder, "g_at", g_at)
    code = cli.run(["verify", "--suite", "analytic", "--kmax", "4", "--order", "12", *argv])
    out = capsys.readouterr().out
    assert code == 1
    fails = [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("FAIL determinant")]
    assert fails == [f"FAIL determinant representation n={n}" for n in failing]


def test_kappa_example():
    # c=(1), d=(1/2), beta=1: kappa = (-1)^1 * (1*1)/(1*(1/2)) = -2
    from hurwitz_tau.analytic import _kappa

    assert _kappa(WeightGen.rational([1], [F(1, 2)]), F(1)) == -2


def test_quantum_identities_on_truncated_product():
    # the M-truncated quantum product is itself an exact rational weight
    # object, so the identities hold exactly within the regular window
    rep = check_recursion(replace(GQ, M=50), F(1, 9), 3, 12)
    assert rep.ok
    rep = check_spectral(replace(GQ, M=50), F(1, 9), 2, 12)
    assert rep.ok


@pytest.mark.parametrize("q", [F(1, 2), F(-1, 2)])
def test_truncation_argument_equals_truncation_on_g(q):
    # max_regular_order, check_recursion and check_spectral still take M
    # positionally; it must act exactly as the truncation stored on G
    G, GM = WeightGen.quantum(q), WeightGen.quantum(q, 40)
    beta = F(1, 23)
    for k in (1, 2, 5):
        assert max_regular_order(G, beta, k, 24, 40) == max_regular_order(GM, beta, k, 24)
        assert check_spectral(G, beta, k, 24, 40) == check_spectral(GM, beta, k, 24)
        if k > 1:
            assert check_recursion(G, beta, k, 24, 40) == check_recursion(GM, beta, k, 24)


def test_quantum_without_truncation_is_refused():
    calls = [lambda: phi_k(GQ, F(1, 23), 2, 8),
             lambda: tau_det_rep(GQ, F(1, 23), [F(1, 10)], 8),
             lambda: calibrate_det_exponent(GQ, F(1, 23), 2, 8, compare_deg=3),
             lambda: tau_eval_at_matrix(GQ, F(1, 23), [F(1, 10)], 4)]
    for call in calls:
        with pytest.raises(UsageError) as err:
            call()
        assert err.value.code == "quantum-needs-truncation"


def test_window_capping_matches_pole_location():
    # G = (1+z)/(1 - z/3) has a pole at z = 3, reached by rho at i = 3/beta
    order, reason = max_regular_order(GR, F(1, 3), 2, 25)
    assert order == 10 and "rho_9" in reason
    rep = check_recursion(GR, F(1, 3), 2, 25)
    assert rep.ok and rep.capped and rep.checked_order == 10
    # negative side: G(-i beta) = 0 at i = 1/beta makes phi_k unconstructible
    with pytest.raises(SingularParameterError):
        check_recursion(GR, F(1, 3), 4, 10)


def _outcome(call):
    try:
        return call()
    except (SingularParameterError, UsageError) as exc:
        return type(exc), exc.code, str(exc)


# (G, beta): two ladders regular through order 24; a pole of G capping the
# window at rho_21 (3/beta) and at rho_23 (quantum, 1/beta); and at beta = 1/3
# both G(-3 beta) = 0 and a pole at rho_9
MEMO_CASES = [(GT, F(1, 8)), (WeightGen.finite_product([1, F(1, 2), F(-1, 3)]), F(-1, 8)),
              (GR, F(1, 7)), (GR, F(1, 3)), (replace(GQ, M=40), F(1, 23))]


@pytest.mark.parametrize("G, beta", MEMO_CASES,
                         ids=[f"{G.describe()}-{beta}" for G, beta in MEMO_CASES])
def test_phi_prefix_memo_warm_equals_cold(G, beta, cold_ladder):
    # phi_k and max_regular_order give the same values, or the same error
    # class, code and message, on an empty ladder and after a longer or a
    # shorter call at the same (G, beta)
    def both(k, J):
        return (_outcome(lambda: phi_k(G, beta, k, J)),
                _outcome(lambda: max_regular_order(G, beta, k, J)))

    outcomes = set()
    for k in range(1, 7):
        for J in (0, 5, 24):
            tau_series._rho_ladder.cache_clear()
            tau_series.rho.cache_clear()
            cold = both(k, J)
            for earlier in (J + 6, J // 2):
                tau_series._rho_ladder.cache_clear()
                tau_series.rho.cache_clear()
                both(k, earlier)
                assert both(k, J) == cold, (k, J, earlier)
            if G.kind == "quantum":
                # the pole at 1/beta = 23 caps phi_1 at order 23
                want = "capped" if (k, J) == (1, 24) else "full"
            elif beta < 0:
                want = "full"
            else:
                want = predicted_window(G, beta, k, J).outcome
            mro = cold[1]
            got = ("singular" if mro[0] is SingularParameterError else
                   "capped" if mro[1] is not None else "full")
            assert got == want, (k, J)
            # phi_k to J raises unless the whole window is regular
            assert isinstance(cold[0], tuple) == (got != "full")
            outcomes.add(got)
    if beta == F(1, 3):
        assert outcomes == {"full", "capped", "singular"}


@pytest.mark.parametrize("G, beta, k, calls", [
    (GT, F(1, 8), 3, 2),  # regular: rho_{-k} and rho_{J-k}
    (replace(GQ, M=40), F(1, 23), 1, 3),  # capped: and the first singular index
])
def test_warm_window_asks_rho_at_its_ends(G, beta, k, calls, cold_ladder, monkeypatch):
    cold = max_regular_order(G, beta, k, 24)
    real, asked = tau_series._Ladder.rho, []

    def counted(self, j):
        asked.append(j)
        return real(self, j)

    monkeypatch.setattr(tau_series._Ladder, "rho", counted)
    assert max_regular_order(G, beta, k, 24) == cold
    assert len(asked) == calls, asked


def test_phi_memo_keeps_no_perturbation(cold_ladder, monkeypatch):
    # the memo hands out tuples: a phi_k patched to perturb its output, and
    # the determinant routes built on it, leave the kept prefixes as they are
    want = [phi_k(GR, F(1, 7), k, 12) for k in (1, 2, 3)]
    real = analytic.phi_k

    def perturbed(G, beta, k, J):
        p = real(G, beta, k, J)
        return replace(p, coeffs=(p.coeff(0) + 1,) + p.coeffs[1:])

    monkeypatch.setattr(analytic, "phi_k", perturbed)
    tau_det_polynomial(GR, F(1, 7), 3, 12)
    assert perturbed(GR, F(1, 7), 2, 12) != want[1]
    monkeypatch.undo()
    assert [phi_k(GR, F(1, 7), k, 12) for k in (1, 2, 3)] == want
    assert [phi_k(GR, F(1, 7), k, 5).coeffs for k in (1, 2, 3)] == [p.coeffs[:6] for p in want]


def test_vandermonde():
    assert vandermonde([F(5)]) == 1
    assert vandermonde([2, 1]) == 1
    assert vandermonde([3, 1, 0]) == 6
    assert vandermonde([1, 1, 2]) == 0


def test_exact_det():
    assert exact_det([[F(1, 2), F(1)], [F(1, 3), F(1)]]) == F(1, 6)
    assert exact_det([[0, 1], [1, 0]]) == -1
    assert exact_det([[1, 2], [2, 4]]) == 0
    assert exact_det([]) == 1
    # needs a pivot swap
    assert exact_det([[0, 1, 2], [1, 0, 1], [2, 1, 0]]) == 4
    with pytest.raises(UsageError):
        exact_det([[1, 2]])


def leibniz_det(matrix):
    """sum over permutations of sign * prod m[i][perm[i]]."""
    total = F(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod((matrix[i][c] for i, c in enumerate(perm)), start=F(1))
    return total


def test_exact_det_against_leibniz():
    rng = random.Random(20)

    def entry(bits=8):
        return F(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))

    cases = []
    for n in range(6):
        cases += [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(4)]
        # integer and mostly-zero entries
        cases.append([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        cases.append([[rng.choice((F(0), F(0), entry())) for _ in range(n)] for _ in range(n)])
    for n in range(2, 6):
        m = [[entry() for _ in range(n)] for _ in range(n)]
        # singular: one row a combination of two others, or a zero column
        m_dep = m[:-1] + [[a - 3 * b for a, b in zip(m[0], m[1])]]
        m_col = [row[:-1] + [F(0)] for row in m]
        # zero first pivot: the elimination must swap rows
        m_swap = [[F(0)] + m[0][1:]] + m[1:]
        cases += [m_dep, m_col, m_swap]
    # 10k-bit entries of both signs: fractions, and ints where the oracle is quick
    for n in (2, 3):
        cases.append([[F(rng.choice((1, -1)) * rng.getrandbits(10_000), rng.getrandbits(10_000) | 1)
                       for _ in range(n)] for _ in range(n)])
    cases.append([[F(rng.getrandbits(10_000) - rng.getrandbits(10_000)) for _ in range(5)]
                  for _ in range(5)])
    zeros = 0
    for m in cases:
        want = leibniz_det(m)
        zeros += want == 0
        assert exact_det(m) == want
        assert exact_det([[int(x) if x.denominator == 1 else x for x in row] for row in m]) == want
    assert zeros >= 12  # the singular cases really are singular
    with pytest.raises(UsageError) as err:
        exact_det([[1, 2], [3]])
    assert err.value.code == "bad-matrix"


def test_det_rep_input_validation():
    with pytest.raises(SingularInputError):
        tau_det_rep(G1, F(1, 7), [F(1, 2), F(1, 2)], 8)
    with pytest.raises(SingularInputError):
        tau_det_rep(G1, F(1, 7), [F(0)], 8)
    with pytest.raises(UsageError):
        tau_det_rep(G1, F(1, 7), [F(1, 2), F(1, 3), F(1, 4)], 2)


def test_det_rep_n1_equals_direct_series():
    # phi_1 is itself the one-variable series: same truncation, same value;
    # for the quantum family both routes evaluate the same truncated G_M
    cases = [(G, F(1, 7)) for G in (GT, G1, GR)]
    cases += [(replace(GQ, M=M), F(1, 23)) for M in (0, 12, 40)]
    for G, beta in cases:
        v = tau_det_rep(G, beta, [F(1, 10)], 8)
        assert v.value == tau_eval_at_matrix(G, beta, [F(1, 10)], 8)
        assert v.beta_exponent == -1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_calibration_exponent(n):
    for G in (GT, G1, GR):
        e = calibrate_det_exponent(G, F(1, 7), n, 12, compare_deg=min(6, 13 - n))
        assert e == det_rep_calibration(n) == -n


@pytest.mark.parametrize("G, beta", [(GR, F(1, 7)), (replace(GQ, M=12), F(1, 23))],
                         ids=["rational", "quantum"])
def test_calibration_below_degree_zero(G, beta):
    # a negative comparison degree compares the constant term alone, so the
    # exponent is the one found at degree 0
    for n in (1, 2, 3):
        for deg in (-3, -1, 0):
            assert calibrate_det_exponent(G, beta, n, 12, compare_deg=deg) == -n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_polynomial_matches_direct_series(n):
    J = 12
    deg = min(6, 1 - n + J)
    for G in (GT, G1, GR):
        det_poly = tau_det_polynomial(G, F(1, 7), n, J)
        direct = tau_direct_polynomial(G, F(1, 7), n, deg)
        keys = {k for k in det_poly if sum(k) <= deg}
        keys |= {k for k in direct if sum(k) <= deg}
        for key in keys:
            assert det_poly.get(key, F(0)) == direct.get(key, F(0)), key


def test_direct_polynomial_covers_only_its_shapes():
    # the pole of G at z = -3/5 is content -3 at beta = 1/5, which only
    # diagrams with four or more rows have
    G = WeightGen.rational([1], [F(-5, 3)])
    direct = tau_direct_polynomial(G, F(1, 5), 2, 6)
    assert max(len(lam) for lam in direct) == 2 and (3, 3) in direct
    for call in (lambda: tau_direct_polynomial(G, F(1, 5), 4, 6),
                 lambda: tau_eval_at_matrix(G, F(1, 5), [F(1, 2), F(1, 3)], 6)):
        with pytest.raises(SingularParameterError) as err:
            call()
        assert err.value.code == "weight-gen-pole"


def test_calibration_negative_control(monkeypatch):
    # phi_1's x^2 coefficient off by 2^-50: at n = 2 it enters the Schur
    # coefficients of (2), (2,1), (2,2) but not the constant term, so the
    # exponent is still found and the degree <= 6 comparison must fail
    real = analytic.phi_k

    def perturbed(G, beta, k, J):
        p = real(G, beta, k, J)
        if k != 1:
            return p
        return replace(p, coeffs=p.coeffs[:2] + (p.coeff(2) + F(1, 2 ** 50),) + p.coeffs[3:])

    monkeypatch.setattr(analytic, "phi_k", perturbed)
    det_poly = tau_det_polynomial(GR, F(1, 7), 2, 12)
    direct = tau_direct_polynomial(GR, F(1, 7), 2, 6)
    assert det_poly[()] == direct[()]
    assert det_poly[(2,)] != direct[(2,)]
    with pytest.raises(SingularParameterError) as err:
        calibrate_det_exponent(GR, F(1, 7), 2, 12, compare_deg=6)
    assert err.value.code == "calibration-failed"


def test_shared_prefactor_negative_control(monkeypatch):
    # both determinant forms divide by the one prod_i rho_{-i}, so a wrong
    # prefactor leaves them equal; the calibration compares against the direct
    # series, which never calls rho, and must catch it
    real = analytic._rho_prefactor
    monkeypatch.setattr(analytic, "_rho_prefactor", lambda *args: 2 * real(*args))
    xs = [F(1, 100), F(1, 200)]
    assert tau_det_rep(GR, F(1, 7), xs, 12).value == tau_wronskian(GR, F(1, 7), xs, 12).value
    with pytest.raises(SingularParameterError) as err:
        calibrate_det_exponent(GR, F(1, 7), 2, 12, compare_deg=6)
    assert err.value.code == "calibration-failed"


def horner(p, x):
    """The series p at x != 0 by a Fraction Horner loop."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc * x ** p.lead_exp


def det_form_by_horner(G, beta, xs, rows, scale):
    """beta^-n scale prod x^(n-1) det[row(x_j)] / (Delta(x) prod rho_{-i}), each
    entry a Fraction evaluated by Horner."""
    n = len(xs)
    det = exact_det([[horner(p, x) for x in xs] for p in rows])
    pref = scale * prod(x ** (n - 1) for x in xs) / prod(rho(G, -i, beta) for i in range(1, n + 1))
    return beta ** -n * pref * det / vandermonde(xs)


DET_CASES = [(GR, F(1, 7)), (WeightGen.finite_product([1, F(1, 2), F(-1, 3)]), F(-1, 5)),
             (WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]), F(2, 13)),
             (replace(GQ, M=60), F(1, 9))]


@pytest.mark.parametrize("G, beta", DET_CASES,
                         ids=lambda v: v.describe() if isinstance(v, WeightGen) else str(v))
def test_det_forms_equal_horner_reference(G, beta):
    # the determinant forms evaluate each row as one int at x = u/v; they must
    # equal the Fraction evaluation at points of mixed signs and denominators
    xs = [F(1, 101), F(-1, 103), F(2, 107), F(-3, 109)]
    for n in range(1, 5):
        for J in sorted({n, n + 3, 8}):
            phis = [phi_k(G, beta, i, J - n + i) for i in range(1, n + 1)]
            got = tau_det_rep(G, beta, xs[:n], J)
            assert got.value == det_form_by_horner(G, beta, xs[:n], phis, 1)
            assert got.beta_exponent == -n
            rows = [phi_k(G, beta, n, J)]
            for _ in range(n - 1):
                rows.append(euler_apply(rows[-1]))
            want = det_form_by_horner(G, beta, xs[:n], rows, (-beta) ** (n * (n - 1) // 2))
            assert tau_wronskian(G, beta, xs[:n], J).value == want == got.value


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wronskian_equals_det_rep(n):
    xs = [F(1, 100), F(1, 200), F(1, 300)][:n]
    for G in (GT, G1, GR):
        a = tau_det_rep(G, F(1, 7), xs, 12)
        b = tau_wronskian(G, F(1, 7), xs, 12)
        assert a.value == b.value
        assert a.beta_exponent == b.beta_exponent == -n
    # the quantum ladder is regular only below i = 1/beta (pole of the
    # quantum exponential at z = 1), so stay inside that window
    a = tau_det_rep(replace(GQ, M=60), F(1, 9), xs, 8)
    b = tau_wronskian(replace(GQ, M=60), F(1, 9), xs, 8)
    assert a.value == b.value


def test_quantum_det_rep_truncation_stability():
    # raising the product truncation moves the value by less than 1e-9
    xs = [F(1, 50), F(1, 70)]
    a = tau_det_rep(replace(GQ, M=60), F(1, 9), xs, 10).value
    b = tau_det_rep(replace(GQ, M=90), F(1, 9), xs, 10).value
    assert abs(a - b) < F(1, 10 ** 9)


def test_wronskian_sign_beyond_small_sizes():
    # the reduction sign is (-1)^(n(n-1)/2): +1 at n=4, -1 at n=5
    xs = [F(1, 100), F(1, 200), F(1, 300), F(1, 400), F(1, 500)]
    for n, J in ((4, 12), (5, 14)):
        a = tau_det_rep(G1, F(1, 7), xs[:n], J)
        b = tau_wronskian(G1, F(1, 7), xs[:n], J)
        assert a.value == b.value


def test_calibration_with_two_parameter_rational():
    G = WeightGen.rational([F(1), F(1, 2)], [F(1, 4)])
    assert calibrate_det_exponent(G, F(1, 11), 2, 12, compare_deg=6) == -2


def test_identities_at_non_unit_fraction_beta():
    G = WeightGen.rational([F(-2, 3)], [F(1, 7)])
    for k in (2, 5):
        assert check_recursion(G, F(2, 13), k, 18).ok
        assert check_spectral(G, F(2, 13), k, 18).ok


def recursion_by_subtraction(prev, cur):
    """beta (D + k - 1) phi_k - phi_{k-1}, through euler_apply and a full subtraction."""
    lhs = euler_apply(cur)
    top = min(cur.lead_exp + cur.order, prev.lead_exp + prev.order)
    return [cur.beta * (lhs.power_coeff(m) + (cur.k - 1) * cur.power_coeff(m))
            - prev.power_coeff(m) for m in range(cur.lead_exp, top + 1)]


def spectral_by_subtraction(p, G):
    out = []
    for j in range(p.order + 1):
        s = p.lead_exp + j
        val = -(s + p.k - 1) * p.coeff(j)
        if j > 0:
            val += p.coeff(j - 1) * eval_weight_gen(G, p.beta * (s - 1))
        out.append(val)
    return out


def ode_by_subtraction(p, G):
    kappa = analytic._kappa(G, p.beta)
    out = []
    for j in range(p.order + 1):
        s = p.lead_exp + j
        val = (s + p.k - 1) * p.coeff(j)
        for dm in G.d:
            val *= s - 1 - 1 / (p.beta * dm)
        if j > 0:
            first = -kappa * p.coeff(j - 1)
            for cl in G.c:
                first *= s - 1 + 1 / (p.beta * cl)
            val += first
        out.append(val)
    return out


@pytest.mark.parametrize("G, beta, M", [
    (GR, F(1, 8), None), (WeightGen.quantum(F(-1, 2)), F(1, 23), 40),
    (WeightGen.finite_product([-1, F(-1, 2), F(1, 3)]), F(-1, 8), None),
    # two u and two v: the cleared ODE puts each pair over one denominator
    (WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]), F(2, 13), None)])
def test_compare_first_residuals_equal_subtraction(G, beta, M):
    # residuals are decided before they are subtracted; the lists must equal
    # the plain differences, on valid series and on series with one coefficient off
    G = replace(G, M=M)
    eps = F(1, 2 ** 50)
    nonzero = 0
    for k in range(1, 7):
        p = phi_k(G, beta, k, max_regular_order(G, beta, k, 24)[0])
        variants = [p] + [replace(p, coeffs=p.coeffs[:j] + (p.coeff(j) + eps,) + p.coeffs[j + 1:])
                          for j in (0, 1, p.order // 2, p.order)]
        for v in variants:
            got = spectral_residuals(v, G)
            assert got == spectral_by_subtraction(v, G)
            assert all(type(r) is F for r in got)
            nonzero += any(got)
            if M is None:
                got = ode_residuals(v, G)
                assert got == ode_by_subtraction(v, G)
                assert all(type(r) is F for r in got)
        if k == 1:
            continue
        prev = phi_k(G, beta, k - 1, max_regular_order(G, beta, k - 1, 24)[0])
        bad_prev = replace(prev, coeffs=prev.coeffs[:2] + (prev.coeff(2) - eps,) + prev.coeffs[3:])
        for a, b in [(prev, v) for v in variants] + [(bad_prev, p)]:
            got = recursion_residuals(a, b)
            assert got == recursion_by_subtraction(a, b)
            assert all(type(r) is F for r in got)
            nonzero += any(got)
    assert nonzero > 40  # the perturbed series really do show residuals


@pytest.mark.parametrize("a, f, b, m", [
    (F(3, 7), F(0), F(0), 1),            # N = 0 and a f = 0
    (F(3, 7), F(2, 5), F(0), 4),         # N = 0 and a f != 0
    (F(0), F(5, 3), F(1, 9), 1),         # a = 0 against N != 0
    (F(-5, 2), F(0), F(0), 1),           # f = 0: the first recursion coefficient
    (F(-5, 2), F(0), F(7, 3), 1),
    (F(2, 3), F(3, 4), F(5, 11), 0),     # m = 0
    (F(0), F(3, 4), F(5, 11), 0),
    (F(2, 3), F(3, 4), F(-1, 6), -3),    # negative m, equal
    (F(2, 3), F(3, 4), F(1, 6), -3),
    (F(-7), F(1), F(3), -3),             # negative operands: q D = m da fd, r != 0
    (F(5), F(1), F(2), 2),               # the same with r > 0
    (F(-4, 9), F(-3, 2), F(2, 3), 1),    # negative operands, equal
    (F(1, 3), F(2), F(2, 5), 1),         # N | na fn, but the denominators differ
    (F(1, 3), F(2), F(2, 3), 1),
])
def test_residual_is_the_plain_difference(a, f, b, m):
    got = analytic._residual(a, f.numerator, f.denominator, b, m)
    assert type(got) is F and got == a * f - m * b


@settings(max_examples=300, deadline=None)
@given(a=st.fractions(max_denominator=10 ** 6), f=st.fractions(max_denominator=10 ** 3),
       m=st.integers(-5, 5), b=st.fractions(max_denominator=10 ** 6), equal=st.booleans(),
       s=st.integers(1, 12))
def test_residual_property(a, f, m, b, equal, s):
    if equal and m:
        b = a * f / m  # the case every valid series hits
    # f as s fn / (s fd): the recursion passes beta (m + k - 1) unreduced
    got = analytic._residual(a, s * f.numerator, s * f.denominator, b, m)
    assert type(got) is F and got == a * f - m * b


BOUNDED_GENS = [GT, WeightGen.finite_product([1, F(1, 2), F(-1, 3)]), GR,
                WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]), replace(GQ, M=40)]


@pytest.mark.parametrize("G", BOUNDED_GENS, ids=lambda G: G.describe())
def test_bounded_literal_minors_are_the_restricted_dict(G):
    # calibration takes only the minors it compares; with a degree bound d
    # the dict is the full one cut to |lambda| <= d, and errors are unchanged
    cases = 0
    for beta in (F(1, 7), F(-1, 5), F(2, 11)):
        for n in range(1, 5):
            for J in sorted({n, n + 3, 8, 14}):
                try:
                    full = list(analytic._literal_minors(G, beta, n, J).items())
                except SingularParameterError as exc:
                    full = exc
                for d in range(-1, J - n + 3):
                    cases += 1
                    if isinstance(full, Exception):
                        with pytest.raises(SingularParameterError) as err:
                            analytic._literal_minors(G, beta, n, J, d)
                        assert (err.value.code, str(err.value)) == (full.code, str(full))
                        continue
                    got = list(analytic._literal_minors(G, beta, n, J, d).items())
                    assert got == [(lam, v) for lam, v in full if sum(lam) <= d]
    assert cases == 432


def literal_minors_by_last_column(G, beta, n, J, max_deg=None):
    """Schur minors of the unfactored phi coefficient array: each minor's
    rows are cleared to ints through its last column, then one int determinant."""
    phis = [phi_k(G, beta, i, J - n + i) for i in range(1, n + 1)]
    pref = F(1)
    for i in range(1, n + 1):
        pref /= rho(G, -i, beta)
    top = 1 - n + J if max_deg is None else min(max_deg, 1 - n + J)
    coeffs = [[p.power_coeff(m) for m in range(1 - n, top + 1)] for p in phis]
    cleared, out = {}, {}
    for lam in analytic.partitions_up_to(top, n):
        parts = lam + (0,) * (n - len(lam))
        cols = [parts[j] - j + n - 1 for j in range(n)]
        if cols[0] not in cleared:
            rows, scale = [], pref.denominator
            for row in coeffs:
                ints, L = tau_series._cleared(row[:cols[0] + 1])
                rows.append(ints)
                scale *= L
            cleared[cols[0]] = rows, scale
        rows, scale = cleared[cols[0]]
        minor = analytic._int_det([[row[c] for c in cols] for row in rows])
        if minor:
            out[lam] = F(pref.numerator * minor, scale)
    return out


@pytest.mark.parametrize("G, betas, zero_from", [
    (GR, (F(1, 7), F(2, 11)), None),
    (WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]), (F(1, 7), F(2, 11)), None),
    # G(5 beta) = 0 and G(3 beta) = 0: the columns from rho_5 and rho_3 on are zero
    (WeightGen.finite_product([1, F(1, 2), F(-1, 3)]), (F(-1, 5),), 5),
    (WeightGen.finite_product([-1]), (F(1, 3),), 3),
    (replace(GQ, M=40), (F(1, 23), F(2, 47)), None),
], ids=lambda v: v.describe() if isinstance(v, WeightGen) else None)
def test_factored_minors_match_last_column_clearing(G, betas, zero_from):
    # the minors taken on the array with each column's rho divided out equal
    # the minors of the unfactored array, value for value and key for key
    for beta in betas:
        if zero_from is not None:
            assert rho(G, zero_from - 1, beta) != 0 and rho(G, zero_from, beta) == 0
        for n in range(1, 5):
            for J in sorted({n, 8, 14}):
                for d in (None, 0, 1, 2, 3):
                    got = analytic._literal_minors(G, beta, n, J, d)
                    want = literal_minors_by_last_column(G, beta, n, J, d)
                    assert list(got.items()) == list(want.items()), (beta, n, J, d)
