import pickle
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, permutations, product
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau import weights
from hurwitz_tau.errors import SingularParameterError, UsageError
from hurwitz_tau.hurwitz import ProfileTuple, hurwitz_number, hurwitz_oracle
from hurwitz_tau.partitions import colength, enumerate_partitions, z_of
from hurwitz_tau.tau_series import _rho_ladder, extract_H, tau_double_table
from hurwitz_tau.weights import (
    WeightGen,
    eval_weight_gen,
    g_coeffs,
    profile_multisets,
    quantum_weight_factor,
    rational_weight_factor,
    weight_factor,
    weight_factor_tilde,
    weighted_hurwitz,
    weighted_hurwitz_terms,
)


def test_weight_gen_validation():
    with pytest.raises(UsageError):
        WeightGen.quantum(1)
    with pytest.raises(UsageError):
        WeightGen.quantum(0)
    with pytest.raises(UsageError):
        WeightGen.rational([1], [0])


def test_g_coeffs_examples():
    assert g_coeffs(WeightGen.rational([1], []), 4) == (1, 1, 0, 0, 0)
    q = WeightGen.quantum(F(1, 2))
    assert g_coeffs(q, 2)[1:] == (F(2), F(8, 3))
    geo = g_coeffs(WeightGen.rational([], [F(1, 2)]), 3)
    assert geo == (1, F(1, 2), F(1, 4), F(1, 8))
    assert g_coeffs(WeightGen.trivial(), 3) == (1, 0, 0, 0)


def test_eval_weight_gen():
    G = WeightGen.rational([1], [F(1, 3)])
    assert eval_weight_gen(G, F(1, 2)) == F(3, 2) / F(5, 6)
    with pytest.raises(SingularParameterError):
        eval_weight_gen(G, 3)
    q = WeightGen.quantum(F(1, 2))
    with pytest.raises(UsageError):
        eval_weight_gen(q, F(1, 4))  # needs M
    assert eval_weight_gen(replace(q, M=0), F(1, 2)) == 2
    with pytest.raises(SingularParameterError):
        eval_weight_gen(replace(q, M=3), 2)  # 1 - q*2 = 0
    with pytest.raises(UsageError) as exc:
        eval_weight_gen(replace(q, M=-1), F(1, 4))  # an empty product is not G
    assert exc.value.code == "bad-truncation"


def quantum_product_by_fractions(q, x, M):
    """prod_{i<=M} 1 / (1 - q^i x), one Fraction operation at a time;
    returns the first i whose factor vanishes instead of raising."""
    val, qpow = F(1), F(1)
    for i in range(M + 1):
        den = 1 - qpow * x
        if den == 0:
            return i
        val /= den
        qpow *= q
    return val


def test_describe_names_the_truncation():
    assert WeightGen.quantum(F(1, 2)).describe() == "quantum(q=1/2)"
    assert WeightGen.quantum(F(1, 2), 40).describe() == "quantum(q=1/2, M=40)"
    assert WeightGen.quantum(F(-7, 10), 0).describe() == "quantum(q=-7/10, M=0)"


def test_equal_weight_gens_share_one_record():
    # equal G built apart hash equal, so they share one (G, beta) record and
    # every other cache keyed on G; a pickle round-trip keeps G and its hash
    G = WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)])
    H = WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)])
    assert G is not H and G == H and hash(G) == hash(H)
    assert _rho_ladder(G, F(1, 7)) is _rho_ladder(H, F(1, 7))
    loaded = pickle.loads(pickle.dumps(G))
    assert loaded == G and hash(loaded) == hash(G)


def test_quantum_eval_matches_fraction_loop():
    # the integer product must give the same value, and at a pole the same
    # error naming the same first vanishing factor; G_M is the ratio with
    # d = (1, q, ..., q^M)
    xs = [F(i, 23) for i in range(-30, 31)] + [F(3, 7), F(-5, 11), F(2), F(4), F(8)]
    evaluated = poles = 0
    for q in (F(1, 2), F(-1, 2), F(2, 3), F(-7, 10), F(9, 10)):
        for M in (0, 1, 5, 12, 40):
            G = WeightGen.quantum(q, M)
            ratio = WeightGen.rational((), [q ** i for i in range(M + 1)])
            for x in xs:
                want = quantum_product_by_fractions(q, x, M)
                evaluated += 1
                if isinstance(want, F):
                    got = eval_weight_gen(G, x)
                    assert type(got) is F and got == want, (q, M, x)
                    assert got == eval_weight_gen(ratio, x), (q, M, x)
                    continue
                poles += 1
                with pytest.raises(SingularParameterError) as exc:
                    eval_weight_gen(G, x)
                assert exc.value.code == "weight-gen-pole"
                assert str(exc.value) == f"pole of quantum weight function: 1 - q^{want}*({x}) = 0"
    assert (evaluated, poles) == (1650, 38)


def ratio_by_fractions(c, d, x):
    """prod (1 + c_l x) / prod (1 - d_m x), one Fraction operation at a time;
    returns the first d_m whose factor vanishes instead of raising."""
    val = F(1)
    for cl in c:
        val *= 1 + cl * x
    for dm in d:
        if 1 - dm * x == 0:
            return ("pole", dm)
        val /= 1 - dm * x
    return val


def test_ratio_eval_matches_fraction_loop():
    # the integer numerator and denominator must give the same value, and at
    # a pole the same error naming the same first vanishing factor
    families = [WeightGen.trivial(), WeightGen.finite_product([1, F(1, 2), F(-1, 3)]),
                WeightGen.rational([1], [F(1, 3)]),
                WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)])]
    evaluated = poles = 0
    for G in families:
        for m in range(-30, 31):
            x = F(m, 7)
            want = ratio_by_fractions(G.c, G.d, x)
            evaluated += 1
            if isinstance(want, F):
                got = eval_weight_gen(G, x)
                assert type(got) is F and got == want, (G, x)
                continue
            poles += 1
            with pytest.raises(SingularParameterError) as exc:
                eval_weight_gen(G, x)
            assert exc.value.code == "weight-gen-pole"
            assert str(exc.value) == ("pole of weight generating function: "
                                      f"1 - ({want[1]})*({x}) = 0")
    # x = 3 is the pole of 1/(1 - x/3) in both rational families
    assert (evaluated, poles) == (244, 2)
    with pytest.raises(SingularParameterError) as exc:
        eval_weight_gen(WeightGen.rational([F(2, 3)], [F(1, 3), F(3, 11)]), F(11, 3))
    assert str(exc.value) == "pole of weight generating function: 1 - (3/11)*(11/3) = 0"


def test_trivial_and_finite_products_are_ratios_without_d():
    # G = 1 is the ratio with no c and no d, a finite product the one with no d
    empty = [WeightGen.trivial(), WeightGen.finite_product([]), WeightGen.rational([], [])]
    xs = [F(0), F(1), F(-1, 2), F(7, 3)]
    for G in empty:
        assert g_coeffs(G, 10) == (1,) + (0,) * 10
        assert [eval_weight_gen(G, x) for x in xs] == [1] * len(xs)
    for c in ([], [1], [F(2, 3)], [1, F(-1, 2)]):
        fin, rat = WeightGen.finite_product(c), WeightGen.rational(c, [])
        assert g_coeffs(fin, 10) == g_coeffs(rat, 10)
        assert [eval_weight_gen(fin, x) for x in xs] == [eval_weight_gen(rat, x) for x in xs]
        for d in range(5):
            for N in range(1, 5):
                for mu in enumerate_partitions(N):
                    for nu in enumerate_partitions(N):
                        assert (weighted_hurwitz_terms(fin, d, mu, nu)
                                == weighted_hurwitz_terms(rat, d, mu, nu)), (c, d, mu, nu)


# -- brute-force references for the symmetrized index sums ------------------

def brute_weight_factor(c, profiles):
    exps = [colength(p) for p in profiles]
    k = len(exps)
    total = F(0)
    for sigma in permutations(range(k)):
        for idx in combinations(range(len(c)), k):
            term = F(1)
            for j in range(k):
                term *= c[idx[sigma[j]]] ** exps[j]
            total += term
    return total / factorial(k)


def brute_weight_factor_tilde(c, profiles):
    exps = [colength(p) for p in profiles]
    k = len(exps)
    total = F(0)
    for sigma in permutations(range(k)):
        for idx in combinations_with_replacement(range(len(c)), k):
            term = F(1)
            for j in range(k):
                term *= c[idx[sigma[j]]] ** exps[j]
            total += term
    sign = -1 if (sum(exps) + k) % 2 else 1
    return sign * total / factorial(k)


def brute_quantum_weight_factor(q, profiles):
    """(-1)^(d-k)/k! sum over orderings of prod_j 1/(1 - q^(prefix colength sum))."""
    exps = [colength(p) for p in profiles]
    k = len(exps)
    total = F(0)
    for order in permutations(exps):
        term = F(1)
        for t in range(1, k + 1):
            term /= 1 - q ** sum(order[:t])
        total += term
    sign = -1 if (sum(exps) - k) % 2 else 1
    return sign * total / factorial(k)


SMALL_PROFILES = [((2,),), ((3,),), ((2,), (2,)), ((3,), (2, 1)), ((2, 1), (2, 1), (2, 1))]
# colengths 1, 2, 2, 3: distinct and repeated block sums
MIXED_4 = ((2, 1, 1), (3, 1), (2, 2), (4,))


@pytest.mark.parametrize("profiles", SMALL_PROFILES + [MIXED_4])
def test_weight_factor_matches_brute_force(profiles):
    cs = [F(1), F(1, 2), F(-2, 3), F(3)]
    for m in range(1, len(cs) + 1):
        c = cs[:m]
        assert weight_factor(c, profiles) == brute_weight_factor(c, profiles)
        assert weight_factor_tilde(c, profiles) == brute_weight_factor_tilde(c, profiles)


def test_weight_factor_examples():
    # k=1 collapses to a power sum in the parameters
    assert weight_factor([F(1, 2), F(1, 3)], [(3,)]) == F(1, 4) + F(1, 9)
    assert weight_factor([1, 1], [(2,), (2,)]) == 1
    assert weight_factor([1], [(2,), (2,)]) == 0  # fewer parameters than profiles
    assert weight_factor_tilde([F(5)], [(2,)]) == 5  # sign (+1) * c_1
    assert weight_factor_tilde([1], [(2,), (2,)]) == 1
    q, M = F(1, 2), 10
    geom = weight_factor_tilde([q ** i for i in range(M + 1)], [(2,)])
    assert geom == (1 - q ** (M + 1)) / (1 - q)


def test_weight_factor_symmetry_in_parameters():
    cs = (F(1), F(1, 2), F(2, 3))
    profiles = ((3,), (2, 1))
    base = weight_factor(cs, profiles)
    base_t = weight_factor_tilde(cs, profiles)
    for perm in permutations(cs):
        assert weight_factor(perm, profiles) == base
        assert weight_factor_tilde(perm, profiles) == base_t


def test_quantum_weight_factor_examples():
    q = F(1, 2)
    assert quantum_weight_factor(q, [(2,)]) == 2          # d=1, k=1
    assert quantum_weight_factor(q, [(3,)]) == F(-4, 3)   # d=2, k=1
    # closed form vs the truncated dual factor with c_i = q^i
    trunc = [q ** i for i in range(61)]
    for profiles in SMALL_PROFILES:
        gap = abs(
            quantum_weight_factor(q, profiles) - weight_factor_tilde(trunc, profiles)
        )
        assert gap < F(1, 2 ** 40)


@pytest.mark.parametrize("q", [F(1, 2), F(-1, 3), F(2, 3)])
def test_quantum_weight_factor_matches_brute_force(q):
    for profiles in SMALL_PROFILES + [MIXED_4]:
        assert quantum_weight_factor(q, profiles) == brute_quantum_weight_factor(q, profiles)


def test_quantum_weight_factor_singular():
    # q = -1: 1 - q^m vanishes for every even m; the prefix sums of all
    # orderings are all sub-multiset sums, so an even one anywhere raises
    assert quantum_weight_factor(F(-1), ((2,),)) == F(1, 2)
    assert quantum_weight_factor(F(-1), ((4,),)) == F(1, 2)
    for profiles in (((3,),), ((2,), (2,)), ((2,), (4,)), MIXED_4):
        with pytest.raises(SingularParameterError) as err:
            quantum_weight_factor(F(-1), profiles)
        assert err.value.code == "singular-quantum"


def set_partition_weight_sum(profiles, power_sum):
    """(1/k!) sum over set partitions pi of the profile colengths of
    prod_{B in pi} (-1)^(|B|-1) (|B|-1)! power_sum(colength sum of B): the
    Moebius-inversion form of the injective-map sum, block of the first
    remaining colength first, memoised on the sorted remaining colengths."""
    exps = tuple(sorted(colength(p) for p in profiles))

    @cache
    def over(rest):
        if not rest:
            return 1
        others = rest[1:]
        total = 0
        for size in range(len(others) + 1):
            coeff = (-1) ** size * factorial(size)
            for chosen in combinations(range(len(others)), size):
                left = tuple(e for i, e in enumerate(others) if i not in chosen)
                total += power_sum(sum(rest) - sum(left)) * (coeff * over(left))
        return total

    return F(over(exps), factorial(len(exps)))


def test_weight_recursion_is_the_set_partition_sum():
    c, d, q = (F(1), F(-1, 2)), (F(1, 3),), F(1, 2)
    cases = [
        (lambda ps: weight_factor(c, ps), lambda m: sum(x ** m for x in c)),
        (lambda ps: rational_weight_factor(c, d, ps),
         lambda m: sum(x ** m for x in c) - sum((-x) ** m for x in d)),
        (lambda ps: quantum_weight_factor(q, ps), lambda m: (-1) ** (m - 1) / (1 - q ** m)),
    ]
    multisets = [ps for N in range(1, 7) for deg in range(1, 8)
                 for ps, _ in profile_multisets(N, deg)]
    assert len(multisets) == 295
    for factor, power_sum in cases:
        for ps in multisets:
            assert factor(ps) == set_partition_weight_sum(ps, power_sum), ps


def test_quantum_weight_factor_at_minus_one_raises_on_even_sub_sums():
    # 1 - q^m vanishes at q = -1 exactly for even m; the factor needs P(m)
    # for every sub-multiset sum m of the colengths
    for k in range(1, 6):
        for exps in combinations_with_replacement(range(1, 6), k):
            even = any(sum(sub) % 2 == 0 for r in range(1, k + 1)
                       for sub in combinations(exps, r))
            profiles = [(e + 1,) for e in exps]
            if even:
                with pytest.raises(SingularParameterError) as err:
                    quantum_weight_factor(F(-1), profiles)
                assert err.value.code == "singular-quantum"
            else:
                assert quantum_weight_factor(F(-1), profiles) == F(1, 2), exps


def test_weight_factors_with_eight_profiles():
    # eight colength-1 profiles: the strict factor is e_8, the dual one h_8,
    # and the quantum one h_8(1, q, q^2, ...) = 1/(q;q)_8
    profiles = [(2,)] * 8
    c = [F(1), F(1, 2), F(-2, 3), F(3), F(-1), F(5, 7), F(1, 4), F(-3, 2), F(2)]
    e8 = sum((prod(idx) for idx in combinations(c, 8)), F(0))
    h8 = sum((prod(idx) for idx in combinations_with_replacement(c, 8)), F(0))
    assert weight_factor(c, profiles) == e8
    assert weight_factor_tilde(c, profiles) == h8
    for q in (F(1, 2), F(-1, 3), F(2, 3)):
        assert quantum_weight_factor(q, profiles) == g_coeffs(WeightGen.quantum(q), 8)[8]


def split_weight(c, d, mu_profs, nu_profs):
    """The c-block strict factor times the d-block dual factor; empty block = 1."""
    first = weight_factor(c, mu_profs) if mu_profs else F(1)
    second = weight_factor_tilde(d, nu_profs) if nu_profs else F(1)
    return first * second


def test_rational_weight_factor():
    c, d = [F(1)], [F(1, 2)]
    assert rational_weight_factor(c, (), ((2,), (2,))) == weight_factor(c, ((2,), (2,)))
    assert rational_weight_factor((), d, ((2,),)) == F(1, 2)
    # two colength-1 profiles: both to c (0, one c), both to d, or one each
    both = ((2,), (2,))
    assert rational_weight_factor(c, d, both) == (
        split_weight(c, d, both, ()) + split_weight(c, d, (), both)
        + split_weight(c, d, ((2,),), ((2,),))) == 0 + F(1, 4) + F(1, 2)
    with pytest.raises(UsageError):
        rational_weight_factor(c, d, ())


def split_sum(c, d, profiles):
    """Sum over sub-multisets A of the profiles, B the rest, of arr(A) arr(B)
    times the split weight; arr counts distinct orderings."""
    k = len(profiles)
    splits = set()
    for size in range(k + 1):
        for idx in combinations(range(k), size):
            a = tuple(profiles[i] for i in idx)
            b = tuple(profiles[i] for i in range(k) if i not in idx)
            splits.add((a, b))
    return sum((len(set(permutations(a))) * len(set(permutations(b)))
                * split_weight(c, d, a, b) for a, b in splits), F(0))


params = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=25, deadline=None)
@given(c=st.lists(params, max_size=3),
       d=st.lists(params.filter(bool), min_size=1, max_size=3))
def test_rational_weight_is_the_split_sum(c, d):
    for N in range(1, 5):
        for deg in range(1, 5):
            for profiles, arr in profile_multisets(N, deg):
                assert arr * rational_weight_factor(c, d, profiles) == split_sum(
                    c, d, profiles), (c, d, profiles)


def test_profile_multisets():
    # N=3, total colength 2: {(3)} and {(2,1), (2,1)}
    got = profile_multisets(3, 2)
    assert ((3,),) in [p for p, _ in got]
    assert (((2, 1), (2, 1))) in [p for p, _ in got]
    assert all(arr == 1 for _, arr in got)
    mixed = dict(profile_multisets(3, 3))
    assert mixed[((3,), (2, 1))] == 2  # two orderings
    assert profile_multisets(3, 0) == []


def ordered_reference_weighted(G, d, mu, nu):
    """Sum over fully ordered profile tuples, no multiset shortcuts."""
    N = sum(mu)
    options = [p for p in enumerate_partitions(N) if colength(p) >= 1]
    total = F(0)
    for k in range(1, d + 1):
        for profs in product(options, repeat=k):
            if sum(colength(p) for p in profs) != d:
                continue
            if G.kind == "quantum":
                w = quantum_weight_factor(G.q, profs)
            else:
                w = weight_factor(G.c, profs)
            if w:
                total += w * hurwitz_number(ProfileTuple(N, profs + (mu, nu)))
    return total


def ordered_reference_weighted_rational(G, d, mu, nu):
    N = sum(mu)
    options = [p for p in enumerate_partitions(N) if colength(p) >= 1]
    total = F(0)
    for k in range(0, d + 1):
        for el in range(0, d + 1 - k):
            if k + el == 0:
                continue
            for mu_profs in product(options, repeat=k):
                for nu_profs in product(options, repeat=el):
                    cl = sum(colength(p) for p in mu_profs) + sum(
                        colength(p) for p in nu_profs
                    )
                    if cl != d:
                        continue
                    w = split_weight(G.c, G.d, mu_profs, nu_profs)
                    if w:
                        total += w * hurwitz_number(
                            ProfileTuple(N, mu_profs + nu_profs + (mu, nu))
                        )
    return total


def test_multiset_sum_equals_ordered_reference():
    G = WeightGen.finite_product([F(1), F(1, 3)])
    for d in (1, 2, 3):
        for mu in enumerate_partitions(3):
            for nu in enumerate_partitions(3):
                assert weighted_hurwitz(G, d, mu, nu) == ordered_reference_weighted(
                    G, d, mu, nu
                )
    Gq = WeightGen.quantum(F(1, 2))
    for d in (1, 2, 3):
        for mu in enumerate_partitions(3):
            for nu in enumerate_partitions(3):
                assert weighted_hurwitz(Gq, d, mu, nu) == ordered_reference_weighted(
                    Gq, d, mu, nu
                )
    Gr = WeightGen.rational([F(1)], [F(1, 3)])
    for d in (1, 2):
        for mu in enumerate_partitions(3):
            for nu in enumerate_partitions(3):
                assert weighted_hurwitz(
                    Gr, d, mu, nu
                ) == ordered_reference_weighted_rational(Gr, d, mu, nu)


def test_weighted_hurwitz_examples():
    G = WeightGen.finite_product([F(1)])
    for n in range(5):
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                expected = F(1, z_of(mu)) if mu == nu else F(0)
                assert weighted_hurwitz(G, 0, mu, nu) == expected
    assert weighted_hurwitz(G, 1, (2,), (1, 1)) == F(1, 2)
    assert weighted_hurwitz(G, 1, (2,), (2,)) == 0


def test_weighted_count_record():
    G = WeightGen.finite_product([F(1)])
    # profiles are normalized, so (1, 2) is the class of (2, 1)
    assert weighted_hurwitz(G, 0, (2, 1), (1, 2)) == F(1, z_of((2, 1)))


def test_generating_functions_are_one_at_zero():
    for G in (
        WeightGen.trivial(),
        WeightGen.finite_product([F(2), F(-1, 3)]),
        WeightGen.rational([F(1)], [F(1, 3)]),
        WeightGen.quantum(F(1, 2), 10),
    ):
        assert g_coeffs(G, 5)[0] == 1
        assert eval_weight_gen(G, 0) == 1


def test_weighted_hurwitz_symmetry():
    G = WeightGen.rational([F(1)], [F(1, 3)])
    for d in (1, 2, 3):
        for mu in enumerate_partitions(4):
            for nu in enumerate_partitions(4):
                assert weighted_hurwitz(G, d, mu, nu) == weighted_hurwitz(G, d, nu, mu)


# (G, d, mu, nu, error code): each total colength d + colength(mu) +
# colength(nu) is listed at both parities, so the checks must come before
# the parity zero
USAGE_ERRORS = [
    (WeightGen.finite_product([1]), 1, (2,), (3,), "weight-mismatch"),        # even
    (WeightGen.finite_product([1]), 0, (2,), (3,), "weight-mismatch"),        # odd
    (WeightGen.rational([1], [F(1, 3)]), 2, (2,), (1, 1, 1), "weight-mismatch"),  # odd
    (WeightGen.finite_product([1]), -1, (2,), (2,), "bad-degree"),            # odd
    (WeightGen.finite_product([1]), -2, (2,), (2,), "bad-degree"),            # even
    (WeightGen.trivial(), -2, (2,), (1, 1), "bad-degree"),                    # odd
]


def test_weighted_hurwitz_usage_errors():
    for G, d, mu, nu, code in USAGE_ERRORS:
        for fn in (weighted_hurwitz, weighted_hurwitz_terms):
            with pytest.raises(UsageError) as err:
                fn(G, d, mu, nu)
            assert err.value.code == code, (G, d, mu, nu)
    # d = 0 is the unweighted two-point count for every family
    assert weighted_hurwitz(WeightGen.quantum(F(1, 2)), 0, (2, 1), (2, 1)) == F(1, 2)


def test_weighted_quantum_double_numbers_equal_table():
    # the quantum family has double numbers like every other G: a query with
    # nu != (1^N) is the double-series entry, at an odd total too
    G = WeightGen.quantum(F(1, 2))
    table = tau_double_table(G, 2, 3)
    for d, mu, nu in ((1, (2,), (2,)), (2, (3,), (2, 1)), (1, (3,), (2, 1))):
        want = extract_H(table, d, mu, nu)
        assert weighted_hurwitz(G, d, mu, nu) == want
        assert sum(t.value for t in weighted_hurwitz_terms(G, d, mu, nu)) == want
    assert extract_H(table, 1, (3,), (2, 1)) != 0


def _odd_total_queries(nmax, dmax):
    for N in range(1, nmax + 1):
        parts = enumerate_partitions(N)
        for mu in parts:
            for nu in parts:
                for d in range(dmax + 1):
                    if (d + colength(mu) + colength(nu)) % 2:
                        yield d, mu, nu


FAMILIES = [
    WeightGen.trivial(),
    WeightGen.finite_product([F(1), F(-1, 2)]),
    WeightGen.rational([F(1)], [F(1, 3)]),
    WeightGen.quantum(F(1, 2)),
]
FAMILY_IDS = ["trivial", "finite", "rational", "quantum"]


@pytest.mark.parametrize("G", FAMILIES, ids=FAMILY_IDS)
def test_odd_total_is_zero_by_the_character_sum(G):
    # the package answers odd totals without the character sum; here every
    # configuration's count is summed in full and must cancel to 0
    nmax, dmax = 4, 5
    table = tau_double_table(G, dmax, nmax)
    queries = list(_odd_total_queries(nmax, dmax))
    assert len(queries) > 20
    configs = 0
    for d, mu, nu in queries:
        total = F(0)
        for t in weighted_hurwitz_terms(G, d, mu, nu):
            assert t.base == 0
            profiles = t.mu_block + t.nu_block + (mu, nu)
            total += t.arrangements * t.factor * hurwitz_number(
                ProfileTuple(sum(mu), profiles))
            configs += 1
        assert total == 0, (d, mu, nu)
        assert weighted_hurwitz(G, d, mu, nu) == 0 == extract_H(table, d, mu, nu)
    assert configs > 0


def weighed_by_hand(G, N, d):
    """(profiles, arrangements, W) of every profile multiset, each W taken
    from the factor functions here; d = 0 is the one empty configuration."""
    if d == 0:
        return [((), 1, F(1))]
    if G.kind == "quantum":
        return [(ps, arr, quantum_weight_factor(G.q, ps))
                for ps, arr in profile_multisets(N, d)]
    return [(ps, arr, rational_weight_factor(G.c, G.d, ps))
            for ps, arr in profile_multisets(N, d)]


def configuration_sum(configs, mu, nu):
    """Sum of arrangements x W x character sum over the weighed configurations."""
    return sum((arr * w * hurwitz_number(ProfileTuple(sum(mu), ps + (mu, nu)))
                for ps, arr, w in configs), F(0))


def test_weighed_list_warm_equals_cold():
    # a second pass after cache_clear(), in reverse order, weighs each
    # colength multiset afresh from a different query; both passes must give
    # the configuration sum, which takes its weights from the factors directly
    queries = [(G, d, mu, nu) for G in FAMILIES for N in range(1, 7)
               for d in range(6) for mu in enumerate_partitions(N)
               for nu in enumerate_partitions(N)]

    def answers(qs):
        return {q: (weighted_hurwitz(*q), weighted_hurwitz_terms(*q)) for q in qs}

    weights._weight.cache_clear()
    first = answers(queries)
    weights._weight.cache_clear()
    second = answers(reversed(queries))
    assert first == second
    by_hand = {}
    nonzero = 0
    for (G, d, mu, nu), (value, terms) in first.items():
        shape = (G, sum(mu), d)
        if shape not in by_hand:
            by_hand[shape] = weighed_by_hand(*shape)
        want = configuration_sum(by_hand[shape], mu, nu)
        assert value == sum((t.value for t in terms), F(0)) == want, (G, d, mu, nu)
        nonzero += value != 0
    assert len(queries) == 4 * 209 * 6 and nonzero > 1000


def test_weighed_list_cache_is_bounded():
    info = weights._weight.cache_info
    # each G weighs three colength multisets: (1,) at N = 2, d = 1, and
    # (2,) and (1, 1) at N = 3, d = 2
    gens = [WeightGen.finite_product([F(1, k)]) for k in range(1, info().maxsize // 3 + 2)]
    shapes = [(G, N, d) for G in gens for N, d in ((2, 1), (3, 2))]
    assert 3 * len(gens) > info().maxsize

    queries = [(G, N, d, mu, nu) for G, N, d in shapes
               for mu in enumerate_partitions(N) for nu in enumerate_partitions(N)]

    def answers():
        return [weighted_hurwitz(G, d, mu, nu) for G, N, d, mu, nu in queries]

    weights._weight.cache_clear()
    first = answers()
    assert info().currsize <= info().maxsize
    # every weight was evicted before its second use and is weighed again
    assert answers() == first
    assert info().currsize <= info().maxsize
    assert info().misses == 2 * 3 * len(gens)
    assert first == [configuration_sum(weighed_by_hand(G, N, d), mu, nu)
                     for G, N, d, mu, nu in queries]


def test_weighed_list_is_keyed_on_the_weights():
    # a quantum G with and without M, and a finite product and the ratio
    # with no d, have the same weight factors and share their cached weights:
    # two records, each of the colength multisets (2,) and (1, 1) of N = 3, d = 2
    gens = [WeightGen.quantum(F(1, 2)), WeightGen.quantum(F(1, 2), M=40),
            WeightGen.finite_product([1]), WeightGen.rational([1], [])]
    weights._weight.cache_clear()
    values = [weighted_hurwitz(G, 2, (2, 1), (2, 1)) for G in gens]
    info = weights._weight.cache_info()
    assert (info.misses, info.currsize) == (2 * 2, 2 * 2)
    assert values[0] == values[1] and values[2] == values[3]
    assert [G.describe() for G in gens] == [
        "quantum(q=1/2)", "quantum(q=1/2, M=40)",
        "finite_product(c=[1], d=[])", "rational(c=[1], d=[])"]


ORACLE_FAMILIES = [
    WeightGen.trivial(),
    WeightGen.rational([F(2, 3), F(-5, 7)], [F(1, 3), F(3, 11)]),
    WeightGen.quantum(F(1, 2)),
]


@pytest.mark.parametrize("G", ORACLE_FAMILIES, ids=["trivial", "rational", "quantum"])
def test_weighted_terms_equal_the_oracle(G):
    # each base closes a cached head vector with (mu, nu); the oracle
    # composes permutations and reads no character.  At most two profiles,
    # so the oracle's k = |P| + 2 stays within its cap of 4
    checked = 0
    for N in range(1, 5):
        parts = enumerate_partitions(N)
        for d in range(4):
            for mu in parts:
                for nu in parts:
                    for t in weighted_hurwitz_terms(G, d, mu, nu):
                        if len(t.mu_block) > 2:
                            continue
                        pt = ProfileTuple(N, t.mu_block + (mu, nu))
                        assert t.base == hurwitz_oracle(pt), (d, mu, nu, t.mu_block)
                        checked += 1
    # G = 1 weighs no profile, so only the d = 0 configurations are counted
    assert checked == (39 if G.kind == "trivial" else 258)
