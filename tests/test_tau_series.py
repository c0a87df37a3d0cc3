from fractions import Fraction as F

import pytest

from hurwitz_tau.algebra import BetaSeries
from hurwitz_tau.errors import SingularParameterError, UsageError
from hurwitz_tau.partitions import enumerate_partitions, identity_cycle_type, length, z_of
from hurwitz_tau.tau_series import (
    extract_H,
    r_lambda,
    rho,
    rho_formal,
    tau_double_table,
    tau_eval_at_matrix,
    tau_single_table,
)
from hurwitz_tau.weights import WeightGen, eval_weight_gen, weighted_hurwitz

G1 = WeightGen.rational([1], [])          # 1 + z
GR = WeightGen.rational([1], [F(1, 3)])
GQ = WeightGen.quantum(F(1, 2))


def test_r_lambda_examples():
    assert r_lambda(G1, (), 3) == BetaSeries.one(3)
    assert r_lambda(G1, (1,), 3) == BetaSeries.one(3)
    assert r_lambda(G1, (2,), 2) == BetaSeries([1, 1], order=2)
    # constant term of every content product is 1
    for lam in enumerate_partitions(4):
        for G in (G1, GR, GQ):
            assert r_lambda(G, lam, 3).coeff(0) == 1


def test_rho_values():
    assert rho(G1, 0, F(1, 2)) == 1
    assert rho(G1, -1, F(1, 2)) == 2  # beta^(-1), empty product
    assert rho(G1, 2, F(1, 2)) == F(3, 4)
    with pytest.raises(UsageError):
        rho(G1, 1, 0)


def test_rho_recurrence_identity():
    # G(j beta) = rho_j / (beta rho_{j-1}) for j >= 1, numerically and formally
    beta = F(1, 5)
    for G in (G1, GR):
        for j in range(1, 8):
            lhs = eval_weight_gen(G, j * beta)
            assert lhs == rho(G, j, beta) / (beta * rho(G, j - 1, beta))
    for G in (G1, GR, GQ):
        for j in range(1, 6):
            ej, sj = rho_formal(G, j, 6)
            ejm1, sjm1 = rho_formal(G, j - 1, 6)
            from hurwitz_tau.tau_series import _content_series

            assert ej - ejm1 == 1
            assert sj == sjm1 * _content_series(G, j, 6)


def test_rho_singular_negative_names_offending_factor():
    # G(-i beta) = 0 at i = 3 for beta = 1/3, c = (1)
    with pytest.raises(SingularParameterError) as err:
        rho(G1, -4, F(1, 3))
    assert "G(-3*beta)" in str(err.value)


def test_rho_formal_matches_numeric_when_regular():
    beta = F(1, 7)
    for G in (G1, GR):
        for j in range(-3, 4):
            exp, series = rho_formal(G, j, 12)
            # the formal series is a truncation of an entire rational function
            # of beta only for finite products; compare through the numeric
            # route for the pole-free G1 where degree 12 is exact
            if G is G1 and j >= 0:
                assert beta ** exp * series.eval(beta) == rho(G, j, beta)


def test_double_table_orthogonality_row():
    for G in (G1, GR, GQ, WeightGen.trivial()):
        table = tau_double_table(G, 2, 4)
        for n in range(5):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    expected = F(1, z_of(mu)) if mu == nu else F(0)
                    assert table.entry(mu, nu, n) == expected


def test_double_table_pinned_entry():
    table = tau_double_table(G1, 1, 2)
    assert table.entry((2,), (1, 1), 3) == F(1, 2)


def test_trivial_table_vanishes_beyond_base():
    table = tau_double_table(WeightGen.trivial(), 3, 4)
    assert all(e == sum(mu) for (mu, nu, e) in table.coeffs)


def test_extract_H_bounds():
    table = tau_double_table(G1, 2, 3)
    with pytest.raises(UsageError):
        extract_H(table, 3, (2,), (2,))
    with pytest.raises(UsageError):
        extract_H(table, 1, (4,), (4,))
    with pytest.raises(UsageError):
        extract_H(table, 1, (2,), (1, 1, 1))


def test_diagonal_symmetry():
    table = tau_double_table(GR, 3, 4)
    for (mu, nu, e), v in table.coeffs.items():
        assert table.entry(nu, mu, e) == v


def test_table_storage_invariant():
    table = tau_double_table(GR, 3, 4)
    for (mu, nu, e), v in table.coeffs.items():
        assert v != 0
        assert sum(mu) == sum(nu) <= table.nmax
        assert sum(mu) <= e <= sum(mu) + table.order


def test_dual_path_against_weights():
    for G in (G1, GR, GQ, WeightGen.trivial()):
        table = tau_double_table(G, 3, 4)
        for n in range(5):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    if G.kind == "quantum" and nu != identity_cycle_type(n):
                        continue
                    for d in range(4):
                        assert extract_H(table, d, mu, nu) == weighted_hurwitz(
                            G, d, mu, nu
                        ), (G.kind, d, mu, nu)


def test_dual_path_adversarial_parameters():
    # multi-parameter ratios, negative parameters and negative q probe the
    # symmetrization conventions harder than single-parameter families
    gens = [
        WeightGen.rational([F(1), F(1, 2)], [F(1, 4), F(-1, 5)]),
        WeightGen.finite_product([F(1), F(-1), F(2, 5)]),
        WeightGen.quantum(F(-1, 3)),
    ]
    for G in gens:
        table = tau_double_table(G, 3, 3)
        for n in range(4):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    if G.kind == "quantum" and nu != identity_cycle_type(n):
                        continue
                    for d in range(4):
                        assert extract_H(table, d, mu, nu) == weighted_hurwitz(
                            G, d, mu, nu
                        ), (G.describe(), d, mu, nu)


def test_single_table_examples():
    single = tau_single_table(WeightGen.trivial(), 2, 3)
    assert single[((1, 1), 0)] == F(1, 2)
    assert all(v == 0 for (mu, d), v in single.items() if d >= 1)
    # one unweighted branch point: H(mu) = sum_lam chi_lam(mu) / (h(lam) z_mu)
    from hurwitz_tau.characters import character
    from hurwitz_tau.partitions import hook_product

    for mu in enumerate_partitions(3):
        expected = sum(
            F(character(lam, mu), hook_product(lam)) for lam in enumerate_partitions(3)
        ) / z_of(mu)
        assert single[(mu, 0)] == expected


def test_single_equals_double_at_identity_profile():
    for G in (G1, GR, GQ):
        single = tau_single_table(G, 3, 4)
        table = tau_double_table(G, 3, 4)
        for (mu, d), v in single.items():
            assert v == extract_H(table, d, mu, identity_cycle_type(sum(mu)))


def test_genus_bookkeeping_connected_cases():
    # entries produced by a single connected-type profile at N <= 3:
    # 2 - 2g = l(mu) + l(nu) - d must give an integer g
    cases = [
        (GR, 0, (3,), (3,)),      # g = 0: two full cycles
        (GR, 1, (3,), (2, 1)),    # g = 0
        (GR, 2, (3,), (3,)),      # g = 1 when d = 2
        (GR, 2, (2, 1), (1, 1, 1)),
    ]
    table = tau_double_table(GR, 3, 3)
    for G, d, mu, nu in cases:
        value = extract_H(table, d, mu, nu)
        if value != 0:
            two_minus_2g = length(mu) + length(nu) - d
            assert two_minus_2g <= 2
            assert (2 - two_minus_2g) % 2 == 0


def test_tau_eval_at_matrix():
    assert tau_eval_at_matrix(G1, F(1, 2), [0, 0], 4) == 1
    # trivial G, one variable: truncated exponential
    x = F(1, 3)
    expected = sum(x ** m / F([1, 1, 2, 6, 24][m]) for m in range(5))
    assert tau_eval_at_matrix(WeightGen.trivial(), F(1, 2), [x], 4) == expected
    # G = 1 + z at beta = 1: geometric-looking series 1 + x + x^2 + x^3
    x = F(1, 10)
    assert tau_eval_at_matrix(G1, 1, [x], 3) == 1 + x + x ** 2 + x ** 3
    with pytest.raises(UsageError):
        tau_eval_at_matrix(GQ, F(1, 2), [x], 3)
