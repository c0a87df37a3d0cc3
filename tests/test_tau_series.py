from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau import cli, tau_series
from hurwitz_tau.algebra import BetaSeries
from hurwitz_tau.characters import character
from hurwitz_tau.cli import run
from hurwitz_tau.errors import SingularParameterError, UsageError
from hurwitz_tau.partitions import (
    colength,
    enumerate_partitions,
    hook_product,
    identity_cycle_type,
    z_of,
)
from hurwitz_tau.tau_series import (
    _ZERO,
    _entries,
    _integer_ladder,
    _pack,
    _packed_ladder,
    _representatives,
    extract_H,
    r_lambda,
    rho,
    rho_formal,
    tau_double_table,
    tau_eval_at_matrix,
    tau_single_table,
)
from hurwitz_tau.weights import WeightGen, eval_weight_gen, g_coeffs, weighted_hurwitz

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


def _rho_by_products(G, j, beta):
    # rho_j = beta^j prod_{i<=j} G(i beta), rho_{-j} = beta^{-j} / prod_{i<j} G(-i beta)
    value = beta ** j
    for i in range(1, j + 1):
        value *= eval_weight_gen(G, i * beta)
    for i in range(1, -j):
        value /= eval_weight_gen(G, -i * beta)
    return value


def test_rho_recurrence_identity():
    # numerically against the written-out products, formally by one factor
    for G in (G1, GR, WeightGen.quantum(F(1, 2), 12)):
        # asked upwards at beta = 1/11, downwards at beta = 2/9
        for beta, js in ((F(1, 11), range(-8, 9)), (F(2, 9), range(8, -9, -1))):
            for j in js:
                assert rho(G, j, beta) == _rho_by_products(G, j, beta), (G.kind, j)
    for G in (G1, GR, GQ):
        gs = g_coeffs(G, 6)
        for j in range(1, 6):
            ej, sj = rho_formal(G, j, 6)
            ejm1, sjm1 = rho_formal(G, j - 1, 6)
            assert ej - ejm1 == 1
            # the factor G(j beta) from its Taylor coefficients
            assert sj == sjm1 * BetaSeries([g * j ** m for m, g in enumerate(gs)])


def test_rho_singular_negative_names_offending_factor():
    # G(-i beta) = 0 at i = 3 for beta = 1/3, c = (1)
    with pytest.raises(SingularParameterError) as err:
        rho(G1, -4, F(1, 3))
    assert "G(-3*beta)" in str(err.value)


def test_rho_ladder_errors_name_requested_index():
    # G = (1 + z)/(1 - z/3) has its pole at 9*beta for beta = 1/3, and
    # G(-3*beta) = 0; every index past them names itself and the same factor
    beta = F(1, 3)
    for j in (12, 10, 9):
        with pytest.raises(SingularParameterError) as err:
            rho(GR, j, beta)
        assert err.value.code == "singular-rho"
        assert str(err.value).startswith(f"rho_{j} undefined: G(9*beta) is singular")
    assert rho(GR, 8, beta) == _rho_by_products(GR, 8, beta)
    for j in (-6, -4):
        with pytest.raises(SingularParameterError) as err:
            rho(GR, j, beta)
        assert str(err.value) == f"rho_{j} undefined: G(-3*beta) = 0 at beta=1/3"
    assert rho(GR, -3, beta) == _rho_by_products(GR, -3, beta)
    # a pole on the negative side is wrapped as on the positive one: G =
    # (1 + z)/(1 + 3z) has its pole at -1*beta for beta = 1/3
    G = WeightGen.rational([1], [-3])
    for j in (-4, -3, -2):
        with pytest.raises(SingularParameterError) as err:
            rho(G, j, beta)
        assert err.value.code == "singular-rho"
        assert str(err.value) == (f"rho_{j} undefined: G(-1*beta) is singular (pole of weight "
                                  "generating function: 1 - (-3)*(-1/3) = 0)")
    assert rho(G, -1, beta) == 3


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
            two_minus_2g = len(mu) + len(nu) - d
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
    # the quantum product is evaluated only at a truncation M
    with pytest.raises(UsageError) as err:
        tau_eval_at_matrix(GQ, F(1, 2), [x], 3)
    assert err.value.code == "quantum-needs-truncation"
    # a negative order is refused, as by both tables
    with pytest.raises(UsageError) as err:
        tau_eval_at_matrix(G1, F(1, 2), [x], -1)
    assert err.value.code == "bad-order"


# -- integer table kernels ---------------------------------------------------

KERNEL_GENS = (
    WeightGen.trivial(),
    WeightGen.finite_product([F(1), F(1, 2), F(-1, 3)]),
    GR,
    GQ,
    WeightGen.rational([-1], [F(-1, 3)]),  # GR reflected, z -> -z
    # the integer ladder's step factor B_{i+m} / (B_i B_m) is not always 1
    # for these three; B_2 / B_1^2 = 3 at q = -7/10
    WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]),
    WeightGen.quantum(F(-1, 2)),
    WeightGen.quantum(F(-7, 10)),
)


def _fraction_double_table(G, D, Nmax):
    # the Fraction triple sum over lambda, entry by entry
    coeffs = {}
    for n in range(Nmax + 1):
        parts = enumerate_partitions(n)
        r = {lam: r_lambda(G, lam, D) for lam in parts}
        chi = {(lam, mu): character(lam, mu) for lam in parts for mu in parts}
        for mu in parts:
            for nu in parts:
                for e in range(n, n + D + 1):
                    total = F(0)
                    for lam in parts:
                        total += r[lam].coeff(e - n) * chi[lam, mu] * chi[lam, nu]
                    if total:
                        coeffs[(mu, nu, e)] = total / (z_of(mu) * z_of(nu))
    return coeffs


def _fraction_single_table(G, D, Nmax):
    out = {}
    for n in range(Nmax + 1):
        parts = enumerate_partitions(n)
        r = {lam: r_lambda(G, lam, D) for lam in parts}
        chi = {(lam, mu): character(lam, mu) for lam in parts for mu in parts}
        for mu in parts:
            for d in range(D + 1):
                total = F(0)
                for lam in parts:
                    total += F(r[lam].coeff(d) * chi[lam, mu], hook_product(lam))
                out[(mu, d)] = total / z_of(mu)
    return out


def _assert_kernels_match_fraction_sum(G, D, Nmax):
    # the double table by key, each (nu, mu, e) entry the very object at
    # (mu, nu, e); the single table with its insertion order: mu, then d
    coeffs = tau_double_table(G, D, Nmax).coeffs
    assert coeffs == _fraction_double_table(G, D, Nmax)
    for (mu, nu, e), v in coeffs.items():
        assert coeffs[(nu, mu, e)] is v
    single = tau_single_table(G, D, Nmax)
    assert list(single.items()) == list(_fraction_single_table(G, D, Nmax).items())


@pytest.mark.parametrize("G", KERNEL_GENS, ids=lambda G: G.describe())
def test_integer_kernels_match_fraction_sum(G):
    _assert_kernels_match_fraction_sum(G, 5, 6)


# wide signed digits: the ladder rows of c = (-7/3, 5/2), d = (9/11) and of
# q = -7/10 change sign, and at |lambda| = 8 their character sums take 8 of
# the 16 bits the n! term adds to the slot width (the trivial G, above, 15);
# the last three are the families the tables benchmark builds, at its D = 8
WIDE_CASES = [
    (WeightGen.rational([F(-7, 3), F(5, 2)], [F(9, 11)]), 6),
    (WeightGen.quantum(F(-7, 10)), 6),
    (WeightGen.rational([-1], [F(-1, 3)]), 8),
    (WeightGen.quantum(F(-1, 2)), 8),
    (WeightGen.finite_product([F(-1), F(-1, 2), F(1, 3)]), 8),
]


@pytest.mark.parametrize("G, D", WIDE_CASES, ids=[G.describe() for G, _ in WIDE_CASES])
def test_packed_kernels_match_fraction_sum_on_wide_digits(G, D):
    _assert_kernels_match_fraction_sum(G, D, 8)


# the conjugate-pair layout: at D = 0 the odd half of every row is empty,
# and weights 1..7 hold the self-conjugate diagrams (1), (2,1), (2,2),
# (3,1,1), (3,2,1) and (4,1,1,1), each its own representative
LAYOUT_GENS = (
    WeightGen.trivial(),
    WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]),
    WeightGen.quantum(F(-7, 10)),
)


@pytest.mark.parametrize("D", (0, 1, 3))
@pytest.mark.parametrize("G", LAYOUT_GENS, ids=lambda G: G.describe())
def test_conjugate_halves_match_fraction_sum(G, D):
    _assert_kernels_match_fraction_sum(G, D, 7)


@pytest.mark.parametrize("G", KERNEL_GENS[1:], ids=lambda G: G.describe())
def test_tables_keep_parity_rule(G):
    # d + colength(mu) + colength(nu) odd: no double-table entry, and the
    # shared zero in the single table, whose nu is (1^n), of colength 0
    coeffs = tau_double_table(G, 5, 6).coeffs
    parities = {(e - sum(mu) + colength(mu) + colength(nu)) % 2 for mu, nu, e in coeffs}
    assert parities == {0}
    assert {(e - sum(mu)) % 2 for mu, _, e in coeffs} == {0, 1}
    for (mu, d), v in tau_single_table(G, 5, 6).items():
        if (d + colength(mu)) % 2:
            assert v is _ZERO, (mu, d)


def test_pack_unpack_round_trip():
    for S in (3, 4, 17, 64, 65):
        edge = (1 << (S - 2)) - 1
        rows = [
            [edge, -edge, edge, -edge],
            [-edge, 0, 0, edge, 0, -edge],   # zero digits between nonzero ones
            [1, 0, -1],                      # negative top digit
            [0, 0, -edge],
            [-(1 << (S - 1)), (1 << (S - 1)) - 1, -1],  # the ends of the digit range
            [0],
        ]
        for row in rows:
            # exactly the nonzero digits, each with its own e and over L = 1
            degs = [(10 + d, 1) for d in range(len(row))]
            expected = [(10 + d, t) for d, t in enumerate(row) if t]
            assert _entries(_pack(row, S), S, degs, 1) == expected, (S, row)
    # a character sum of packed rows splits into the sums of each degree
    rows = [[5, -3, 0], [-7, 0, 2], [1, 1, -1]]
    packed, S = _packed_ladder(rows, 3)
    assert S == 3 + 3 + 2
    chi = [2, -1, 3]
    total = sum(P * c for P, c in zip(packed, chi))
    sums = [sum(r[d] * c for r, c in zip(rows, chi)) for d in range(3)]
    assert sums == [20, -3, -5]
    degs = [(3, 1), (4, 2), (5, 4)]
    assert _entries(total, S, degs, 3) == [(3, F(20, 3)), (4, F(-3, 6)), (5, F(-5, 12))]
    # an empty half (the odd degrees at D = 0) packs to 0 and reads no entry
    packed, S = _packed_ladder([[], []], 3)
    assert packed == [0, 0] and S == 0 + 3 + 2
    assert _entries(0, S, [], 1) == []


def _g_coeffs_by_series(G, J):
    # prod (1 + c z) times the inverse of prod (1 - d z), as truncated series
    num = BetaSeries.one(J)
    for cl in G.c:
        num = num * BetaSeries([1, cl], order=J)
    den = BetaSeries.one(J)
    for dm in G.d:
        den = den * BetaSeries([1, -dm], order=J)
    return (num * den.inv()).coeffs


@pytest.mark.parametrize("G", [G for G in KERNEL_GENS if G.q is None],
                         ids=lambda G: G.describe())
def test_ratio_g_coeffs_match_series_product(G):
    for J in range(17):
        assert repr(g_coeffs(G, J)) == repr(_g_coeffs_by_series(G, J)), J


def _conjugate(lam):
    return tuple(sum(p > j for p in lam) for j in range(max(lam, default=0)))


def _is_representative(lam):
    # the first of {lam, lam'} in enumeration order, which is decreasing
    # lexicographic order
    return lam >= _conjugate(lam)


def test_representative_parents_are_representatives():
    # the ladder builds each representative's row from its parent's, the
    # diagram less the last cell of its last row
    for n in range(1, 16):
        parts = enumerate_partitions(n)
        reps = [lam for lam in parts if _is_representative(lam)]
        assert [parts[i] for i in _representatives(n)] == reps
        for lam in reps:
            parent = lam[:-1] + ((lam[-1] - 1,) if lam[-1] > 1 else ())
            assert _is_representative(parent), lam


def test_content_product_ladder_matches_r_lambda():
    # one row per representative, and none for the other diagram of a pair
    expected = [lam for n in range(9) for lam in enumerate_partitions(n)
                if _is_representative(lam)]
    for G in KERNEL_GENS:
        A, B = _integer_ladder(g_coeffs(G, 8), 8)
        for i in range(9):
            for j in range(9 - i):
                assert B[i + j] % (B[i] * B[j]) == 0, (G.describe(), i, j)
        assert list(A) == expected
        for lam in expected:
            assert ([F(a, b) for a, b in zip(A[lam], B)]
                    == list(r_lambda(G, lam, 8).coeffs)), (G.describe(), lam)


@pytest.fixture
def table_ladder_cold():
    """The test starts with no table record, and leaves none behind."""
    tau_series._table_ladder.cache_clear()
    yield
    tau_series._table_ladder.cache_clear()


@pytest.fixture
def ladder_builds(monkeypatch, table_ladder_cold):
    """The (gs, Nmax) of every ladder the test builds, in order."""
    calls = []
    build = tau_series._integer_ladder

    def counted(gs, Nmax):
        calls.append((gs, Nmax))
        return build(gs, Nmax)

    monkeypatch.setattr(tau_series, "_integer_ladder", counted)
    return calls


def test_both_tables_share_one_ladder(ladder_builds):
    tau_double_table(GR, 4, 5)
    tau_single_table(GR, 4, 5)
    assert ladder_builds == [(g_coeffs(GR, 4), 5)]
    # a different G, D or Nmax builds its own ladder, in either call order
    for G, D, Nmax in ((G1, 4, 5), (GR, 3, 5), (GR, 4, 6)):
        tau_single_table(G, D, Nmax)
        tau_double_table(G, D, Nmax)
        assert ladder_builds[-1] == (g_coeffs(G, D), Nmax)
    # an equal G is the same key
    tau_double_table(WeightGen.rational([1], [F(1, 3)]), 4, 6)
    assert len(ladder_builds) == 4


@pytest.mark.parametrize("first, second", [
    (WeightGen.quantum(F(-1, 2), 40), WeightGen.quantum(F(-1, 2))),
    (WeightGen.finite_product([1, F(-2, 3)]), WeightGen.rational([1, F(-2, 3)], ())),
], ids=lambda G: G.describe())
def test_equal_taylor_coefficients_share_one_ladder(ladder_builds, first, second):
    # the tables read G only through g_0..g_D, so two descriptors of one
    # series share a record, and each table equals its own cold build
    assert first != second and g_coeffs(first, 5) == g_coeffs(second, 5)
    double = tau_double_table(first, 5, 6).coeffs
    single = tau_single_table(second, 5, 6)
    assert len(ladder_builds) == 1
    tau_series._table_ladder.cache_clear()
    assert tau_double_table(second, 5, 6).coeffs == double
    tau_series._table_ladder.cache_clear()
    assert list(tau_single_table(first, 5, 6).items()) == list(single.items())


@pytest.mark.parametrize("G", LAYOUT_GENS, ids=lambda G: G.describe())
def test_tables_from_the_shared_record_equal_cold_builds(G, table_ladder_cold):
    def cold(build):
        tau_series._table_ladder.cache_clear()
        return build(G, 5, 6)

    double, single = cold(tau_double_table).coeffs, cold(tau_single_table)
    # in each order the first table builds the record and the second reads it
    coeffs = cold(tau_double_table).coeffs
    orders = [(coeffs, tau_single_table(G, 5, 6))]
    s = cold(tau_single_table)
    orders.append((tau_double_table(G, 5, 6).coeffs, s))
    for coeffs, s in orders:
        assert coeffs == double
        for (mu, nu, e), v in coeffs.items():
            assert coeffs[(nu, mu, e)] is v
        assert list(s.items()) == list(single.items())


def test_tables_build_no_series_products(monkeypatch, table_ladder_cold):
    # the ladder and g_coeffs run without series products
    def refuse(self, other):
        raise AssertionError("BetaSeries product in a table build")

    monkeypatch.setattr(BetaSeries, "__mul__", refuse)
    tau_double_table(GR, 4, 6)
    tau_single_table(GR, 4, 6)


def test_verify_tau_negative_control(monkeypatch, capsys):
    argv = ["verify", "--suite", "tau", "--gen", "rational", "--c", "1",
            "--d", "1/3", "--nmax", "3", "--order", "3"]
    name = "series coefficients = direct weighted counts"
    assert run(argv) == 0
    assert f"PASS {name}" in capsys.readouterr().out

    def shifted(G, D):
        # g_1, which every content factor of the tables' ladder reads, moves by 2^-50
        gs = list(g_coeffs(G, D))
        gs[1] += F(1, 2 ** 50)
        return tuple(gs)

    # the run above left its record, keyed on the real coefficients
    monkeypatch.setattr(tau_series, "g_coeffs", shifted)
    assert run(argv) == 1
    assert f"FAIL {name}" in capsys.readouterr().out


def test_verify_tau_mirrored_half_negative_control(monkeypatch, capsys):
    # the table gives (nu, mu) the entry of (mu, nu), so its symmetry holds by
    # construction; a wrong lower-half entry shows in the comparison with the
    # direct counts, which reads every ordered pair
    argv = ["verify", "--suite", "tau", "--gen", "rational", "--c", "1",
            "--d", "1/3", "--nmax", "3", "--order", "3"]
    key = ((1, 1, 1), (2, 1), 4)  # (1,1,1) comes after (2,1)
    assert enumerate_partitions(3).index(key[0]) > enumerate_partitions(3).index(key[1])
    build = tau_series.tau_double_table

    def perturbed(G, D, Nmax):
        table = build(G, D, Nmax)
        table.coeffs[key] += F(1, 2 ** 50)
        return table

    monkeypatch.setattr(cli, "tau_double_table", perturbed)
    assert run(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("FAIL series coefficients = direct weighted counts: "
                        "60 (mu, nu, d) cases, |mu| <= 3, d <= 3")
    assert lines[-2:] == ["FAIL table is symmetric in (mu, nu)", "FAILURES: 2"]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                min_size=1, max_size=3))
def test_finite_product_table_equals_weighted_counts(c):
    G = WeightGen.finite_product(c)
    table = tau_double_table(G, 3, 4)
    for n in range(5):
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                for d in range(4):
                    assert extract_H(table, d, mu, nu) == weighted_hurwitz(G, d, mu, nu)
