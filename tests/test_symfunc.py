import threading
from math import factorial, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from qutrit_invariants import symfunc
from qutrit_invariants.counting import count_lsl, count_lu_pure
from qutrit_invariants.symfunc import (
    S,
    SchurExpr,
    _border_strips,
    _p_to_schur,
    _poly_to_schur,
    _schur_term_to_p,
    as_partition,
    character,
    format_expr,
    hall_norm,
    kronecker,
    outer,
    parse_expr,
    partitions,
    plethysm,
    plethysm_class,
    plethysm_series,
    plethysms,
    product_power_plethysm,
    sun_modify,
)

from bruteforce import _partitions as oracle_partitions, oracle_char, oracle_kron, oracle_outer, \
    oracle_plethysm, zclass as oracle_zclass
from skew_reference import skew


def expr_from(d):
    return SchurExpr(d)


# ---------------------------------------------------------------------------
# characters

def test_character_tables_small():
    assert [character((3,), r) for r in [(1, 1, 1), (2, 1), (3,)]] == [1, 1, 1]
    assert [character((2, 1), r) for r in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]
    assert [character((1, 1, 1), r) for r in [(1, 1, 1), (2, 1), (3,)]] == [1, -1, 1]
    assert [character((2, 2), r)
            for r in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]] == [2, 0, 2, -1, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_characters_match_bruteforce(n):
    for lam in partitions(n):
        for rho in partitions(n):
            assert character(lam, rho) == oracle_char(lam, rho)


@pytest.mark.parametrize("n", range(15))
def test_two_row_characters_obey_the_murnaghan_nakayama_recurrence(n):
    # the subset-sum closed form of the shapes of at most two rows against the
    # recurrence it replaces: with character((), ()) == 1 below, this is
    # Murnaghan-Nakayama by induction on the length of rho
    assert character((), ()) == 1
    for lam in partitions(n, 2):
        for rho in partitions(n) if n else ():  # n = 0 is the base case
            assert character(lam, rho) == sum(
                (-1) ** h * character(mu, rho[1:]) for mu, h in _border_strips(lam, rho[0])
            ), (lam, rho)
    for lam in partitions(n):  # a character of S_n, of any length, is 0 at another weight
        for m in range(15):
            if m != n:
                assert all(character(lam, rho) == 0 for rho in partitions(m)), (lam, m)


def _conjugate(lam):
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0))


def _hook_product(lam):
    cols = _conjugate(lam)
    return prod(x - j + cols[j] - i - 1 for i, x in enumerate(lam) for j in range(x))


@pytest.mark.parametrize("n", range(13))
def test_characters_satisfy_identities_free_of_murnaghan_nakayama(n):
    # the count tables read characters of S_n up to n = 12; the checks enumerate
    # partitions with the brute-force generator and use no border strip
    shapes = list(oracle_partitions(n))
    table = {lam: [character(lam, rho) for rho in shapes] for lam in shapes}
    order = factorial(n)
    sizes = [order // oracle_zclass(rho) for rho in shapes]  # class sizes n!/z_rho
    for lam in shapes:
        # hook-length formula at the identity class (1^n), the last cycle type
        assert table[lam][-1] * _hook_product(lam) == order, lam
        # tensoring with the sign character conjugates the shape
        assert table[_conjugate(lam)] == [(-1) ** (n - len(rho)) * chi
                                          for rho, chi in zip(shapes, table[lam])], lam
        for mu in shapes:  # rows: sum_rho |C_rho| chi^lam chi^mu = n! delta
            assert sum(map(mul, sizes, map(mul, table[lam], table[mu]))) == \
                (order if lam == mu else 0), (lam, mu)
    for a, rho in enumerate(shapes):  # columns: sum_lam chi^lam_rho chi^lam_sigma = z_rho delta
        for b, sigma in enumerate(shapes):
            assert sum(row[a] * row[b] for row in table.values()) == \
                (oracle_zclass(rho) if a == b else 0), (rho, sigma)


@pytest.mark.parametrize("n", range(-2, 15))
def test_partitions_match_the_recursive_generator(n):
    for cap in [None, *range(-1, n + 2)]:
        want = tuple(lam for lam in oracle_partitions(n) if cap is None or len(lam) <= cap)
        assert partitions(n, cap) == want, cap
        if n < 0:  # no partition of a negative weight
            assert partitions(n, cap) == (), cap


# ---------------------------------------------------------------------------
# outer product and skew

def test_pieri_base_case():
    assert S(1) * S(1) == S(2) + S(1, 1)


def test_outer_21_times_1():
    # pinned against the brute-force monomial expansion oracle
    assert oracle_outer((2, 1), (1,)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    assert S(2, 1) * S(1) == S(3, 1) + S(2, 2) + S(2, 1, 1)


def test_outer_empty_annihilates():
    assert SchurExpr() * S(3, 1) == SchurExpr()


@pytest.mark.parametrize("lam,mu", [
    ((2, 1), (2, 1)), ((2,), (2, 2)), ((3,), (2, 1)), ((1, 1), (1, 1, 1)),
])
def test_outer_matches_bruteforce(lam, mu):
    assert outer(S(*lam), S(*mu)).terms == oracle_outer(lam, mu)


def test_skew_by_empty_is_identity():
    assert skew(S(4, 2), S()) == S(4, 2)


def test_skew_21_by_1():
    # transpose oracle: coefficient of {2,1} in {1}*{nu}
    assert skew(S(2, 1), S(1)) == S(2) + S(1, 1)


def test_skew_heavier_partition_empty():
    assert skew(S(2), S(2, 1)) == SchurExpr()
    assert skew(S(1), S(2)) == SchurExpr()


def test_skew_consistent_with_outer():
    lam, mu = (3, 2, 1), (2, 1)
    expanded = skew(S(*lam), S(*mu))
    for nu in partitions(3):
        assert expanded.coefficient(nu) == outer(S(*mu), S(*nu)).coefficient(lam)


# ---------------------------------------------------------------------------
# inner (symmetric-group) product

def test_kronecker_sign_times_sign():
    for n in (2, 3, 4, 5):
        ones = (1,) * n
        assert kronecker(S(*ones), S(*ones)) == S(n)


def test_kronecker_standard_square():
    assert kronecker(S(2, 1), S(2, 1)) == S(3) + S(2, 1) + S(1, 1, 1)


def test_kronecker_trivial_times_sign():
    assert kronecker(S(2), S(1, 1)) == S(1, 1)


def test_kronecker_weight_mismatch_annihilates():
    assert kronecker(S(2), S(1)) == SchurExpr()


def test_kronecker_weight_bound():
    with pytest.raises(ValueError):
        kronecker(S(*([1] * 15)), S(*([1] * 15)))


@pytest.mark.parametrize("lam,mu", [
    ((3, 1), (2, 2)), ((2, 2), (2, 2)), ((3, 2), (3, 1, 1)), ((4, 1), (3, 2)),
])
def test_kronecker_matches_bruteforce(lam, mu):
    assert kronecker(S(*lam), S(*mu)).terms == oracle_kron(lam, mu)


def test_kronecker_associative():
    for a, b, c in [((2, 1), (2, 1), (1, 1, 1)), ((2, 2), (3, 1), (2, 1, 1))]:
        x, y, z = S(*a), S(*b), S(*c)
        assert kronecker(kronecker(x, y), z) == kronecker(x, kronecker(y, z))


def test_kronecker_of_mixed_weights_is_the_sum_of_per_weight_products():
    # terms of unequal weight annihilate, so only the equal-weight pairs add up
    a, b = S(2) + 3 * S(2, 1), S(1, 1) + S(3) - S(2, 1)
    per_weight = kronecker(S(2), S(1, 1)) + 3 * kronecker(S(2, 1), S(3) - S(2, 1))
    assert kronecker(a, b) == per_weight
    assert kronecker(S(2) + S(2, 1), S(1, 1) + S(3)) == S(1, 1) + S(2, 1)


# ---------------------------------------------------------------------------
# plethysm

def test_plethysm_symmetric_square():
    assert plethysm(S(2), S(2)) == S(4) + S(2, 2)


def test_plethysm_identity_both_ways():
    x = 2 * S(3, 1) + S(2)
    assert plethysm(S(1), x) == x
    for lam in [(3,), (2, 1), (1, 1, 1)]:
        assert plethysm(S(*lam), S(1)) == S(*lam)


def test_plethysm_cube_of_cube():
    assert plethysm(S(3), S(3)) == (S(9) + S(7, 2) + S(6, 3)
                                    + S(5, 2, 2) + S(4, 4, 1))


@pytest.mark.parametrize("lam,mu", [
    ((2,), (2,)), ((1, 1), (2,)), ((2,), (1, 1)), ((3,), (2,)),
    ((2,), (3,)), ((2, 1), (2,)), ((2,), (2, 1)), ((1, 1), (2, 1)),
])
def test_plethysm_matches_bruteforce(lam, mu):
    assert plethysm(S(*lam), S(*mu)).terms == oracle_plethysm(lam, mu)


def test_plethysm_weight_bound():
    with pytest.raises(ValueError):
        plethysm(S(5), S(3))
    # the capped route refuses the same weights, one outer function of many too
    with pytest.raises(ValueError):
        plethysm(S(5), S(3), 3)
    with pytest.raises(ValueError):
        plethysms([S(2), S(5)], S(3), 3)


def test_product_power_distributes():
    a, b = S(2, 1), S(2, 1)
    parts = product_power_plethysm(a, b, 2)
    assert sorted(sigma for sigma, _, _ in parts) == [(1, 1), (2,)]
    for sigma, left, right in parts:
        assert left == plethysm(S(*sigma), a)
        assert right == plethysm(S(*sigma), b)
    with pytest.raises(ValueError):
        product_power_plethysm(a, b, 7)


# ---------------------------------------------------------------------------
# The one bound on symmetric-group data: every entry point that reads S_n
# tables accepts weight 14 and refuses 15 with a ValueError naming it.

def even_partitions(n, max_len=None):
    # h_m[h_2] is the sum of the {lam} of weight 2m with even parts (Macdonald, I.8)
    return SchurExpr({lam: 1 for lam in partitions(n, max_len) if all(x % 2 == 0 for x in lam)})


BOUND_ROWS = {
    "kronecker": (lambda: kronecker(S(14), S(*[1] * 14)) == S(*[1] * 14),
                  lambda: kronecker(S(15), S(15))),
    "plethysm": (lambda: plethysm(S(7), S(2)) == even_partitions(14),
                 lambda: plethysm(S(5), S(3))),
    "plethysms": (lambda: plethysms([S(7)], S(2), 3) == [even_partitions(14, 3)],
                  lambda: plethysms([S(5)], S(3), 3)),
    "plethysm_series": (lambda: plethysm_series(2, 14) == sum(
                            map(even_partitions, range(0, 15, 2)), SchurExpr()),
                        lambda: plethysm_series(3, 15)),
    "product_power_plethysm": (
        lambda: product_power_plethysm(S(7), S(1), 2) == [
            ((2,), plethysm(S(2), S(7)), S(2)), ((1, 1), plethysm(S(1, 1), S(7)), S(1, 1))],
        lambda: product_power_plethysm(S(5), S(1), 3)),
    "count_lu_pure": (lambda: count_lu_pure(2, 2, 14) == 1,
                      lambda: count_lu_pure(2, 2, 15)),
}


@pytest.mark.parametrize("accept, refuse", BOUND_ROWS.values(), ids=BOUND_ROWS)
def test_one_weight_bound_accepts_14_and_refuses_15(accept, refuse):
    assert symfunc.WEIGHT_LIMIT == 14
    assert accept()
    with pytest.raises(ValueError, match=r"\b14\b"):
        refuse()


def test_product_power_refuses_a_large_n_before_enumerating_its_partitions(monkeypatch):
    # sigma = (n) goes first, so partitions(10**6) is never built
    monkeypatch.setattr(symfunc, "partitions", None)
    with pytest.raises(ValueError, match=r"\b14\b"):
        product_power_plethysm(S(2, 1), S(2, 1), 10 ** 6)


# ---------------------------------------------------------------------------
# SU(N) restriction and the symmetrized-power series

def test_sun_modify_column_rules():
    assert sun_modify(S(2, 1, 1), 3) == S(1)
    assert sun_modify(S(1, 1, 1, 1), 3) == SchurExpr()
    assert sun_modify(S(1, 1, 1), 3) == S()
    assert sun_modify(S(3, 2), 2) == S(1)
    assert sun_modify(S(3, 2, 2), 3) == S(1)
    assert sun_modify(S(4, 2) + S(3, 2, 2), 3) == S(4, 2) + S(1)


def test_sun_modify_golden_plethysms():
    adj = S(2, 1)
    assert sun_modify(plethysm(S(3), adj), 3) == parse_expr(
        "{0} + {3} + {2,1} + {4,2} + {3,3} + {6,3}")
    assert sun_modify(plethysm(adj, adj), 3) == parse_expr(
        "{3} + 3{2,1} + {5,1} + 2{4,2} + {3,3} + {5,4}")
    assert sun_modify(plethysm(S(1, 1, 1), adj), 3) == parse_expr(
        "{0} + {3} + {2,1} + {4,2} + {3,3}")


def test_series_truncations():
    assert plethysm_series(2, 4) == parse_expr("{0} + {2} + {4} + {2,2}")
    assert plethysm_series(3, 6) == parse_expr("{0} + {3} + {6} + {4,2}")
    with pytest.raises(ValueError, match="k must be an integer"):
        plethysm_series(2.0, 6.0)
    w12 = {lam: c for lam, c in plethysm_series(3, 12).terms.items() if sum(lam) == 12}
    assert len(w12) == 12
    assert set(w12.values()) == {1}
    with pytest.raises(ValueError):
        plethysm_series(3, 15)


@pytest.mark.parametrize("k", range(1, 7))
def test_series_is_the_unit_plus_the_symmetrized_powers(k):
    total = S()  # the running sum over n that the one linear plethysm replaces
    for w in range(symfunc.WEIGHT_LIMIT + 1):
        if w and w % k == 0:
            total = total + plethysm(S(w // k), S(k))
        assert plethysm_series(k, w) == total, w


@pytest.mark.parametrize("k", [0, -1])
def test_series_refuses_non_positive_k_promptly(k):
    # {0} is the unit, so the series would never pass max_weight
    raised = []

    def call():
        try:
            plethysm_series(k, 6)
        except ValueError as exc:
            raised.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), f"plethysm_series({k}, 6) did not return"
    assert raised


@pytest.mark.parametrize("build", [
    lambda: as_partition((2.5, 1.9)),
    lambda: S(2.7),
    lambda: SchurExpr({(3.2,): 2}),
], ids=["as_partition", "S", "SchurExpr"])
def test_non_integer_parts_are_refused(build):
    with pytest.raises(ValueError, match="partition part must be an integer"):
        build()


@pytest.mark.parametrize("value", [float("inf"), float("nan"), None], ids=["inf", "nan", "None"])
@pytest.mark.parametrize("build", [
    lambda v: as_partition((v,)),
    lambda v: SchurExpr({(1,): v}),
    lambda v: v * S(1),
], ids=["part", "coefficient", "scalar"])
def test_values_that_are_no_integer_are_refused_with_value_error(build, value):
    # int() raises OverflowError on inf and TypeError on None: both are
    # turned into the module's own ValueError
    with pytest.raises(ValueError, match="integer"):
        build(value)


def test_integral_float_parts_are_refused():
    # one integer rule for every argument: an integral float is no integer
    with pytest.raises(ValueError, match="partition part must be an integer"):
        as_partition((3.0, 1, 0))


def test_as_partition_refuses_increasing_parts():
    with pytest.raises(ValueError, match="weakly decreasing"):
        as_partition((1, 2))


# ---------------------------------------------------------------------------
# text form

@pytest.mark.parametrize("text,message", [("{1} {2}", "missing sign"),
                                          ("{1} + x", "cannot parse")])
def test_parse_expr_refuses_what_is_no_expression(text, message):
    with pytest.raises(ValueError, match=message):
        parse_expr(text)


def test_parse_format_round_trip_examples():
    e = 3 * S(4, 2) + S(2, 2, 1)
    assert format_expr(e) == "{2,2,1} + 3{4,2}"
    assert parse_expr(format_expr(e)) == e
    assert parse_expr("{0}") == S()
    assert format_expr(SchurExpr()) == "0"
    assert parse_expr("0") == SchurExpr()
    assert parse_expr("-2{1} + {3,1}") == -2 * S(1) + S(3, 1)


# ---------------------------------------------------------------------------
# property-based checks

small_partition = st.lists(
    st.integers(min_value=1, max_value=4), min_size=0, max_size=3
).map(lambda xs: tuple(sorted(xs, reverse=True)))

small_expr = st.dictionaries(
    small_partition, st.integers(min_value=-3, max_value=3), max_size=3
).map(expr_from)


@settings(max_examples=40, deadline=None)
@given(small_partition, small_partition)
def test_outer_commutes(lam, mu):
    assert outer(S(*lam), S(*mu)) == outer(S(*mu), S(*lam))


@settings(max_examples=25, deadline=None)
@given(small_partition, small_partition, small_partition)
def test_outer_associates(lam, mu, nu):
    a, b, c = S(*lam), S(*mu), S(*nu)
    assert outer(outer(a, b), c) == outer(a, outer(b, c))


@settings(max_examples=40, deadline=None)
@given(small_partition)
def test_outer_weight_adds_and_coeffs_nonnegative(lam):
    prod = outer(S(*lam), S(2, 1))
    for nu, c in prod.terms.items():
        assert sum(nu) == sum(lam) + 3
        assert c > 0


@settings(max_examples=30, deadline=None)
@given(small_partition, small_partition)
def test_kronecker_commutes_and_identity(lam, mu):
    assert kronecker(S(*lam), S(*mu)) == kronecker(S(*mu), S(*lam))
    n = sum(lam)
    if n:
        assert kronecker(S(n), S(*lam)) == S(*lam)


@settings(max_examples=25, deadline=None)
@given(small_partition, small_partition)
def test_plethysm_weight_multiplies(lam, mu):
    assume(sum(lam) * sum(mu) <= 14)
    result = plethysm(S(*lam), S(*mu))
    if lam and mu:
        for nu, c in result.terms.items():
            assert sum(nu) == sum(lam) * sum(mu)
            assert c > 0


@settings(max_examples=40, deadline=None)
@given(small_expr)
def test_parse_format_round_trip(e):
    assert parse_expr(format_expr(e)) == e


# ---------------------------------------------------------------------------
# exhaustive cross-validation at weight <= 6 against the monomial oracle

def test_outer_exhaustive_weight_6():
    for total in range(1, 7):
        for wa in range(0, total + 1):
            for lam in partitions(wa):
                for mu in partitions(total - wa):
                    assert outer(S(*lam), S(*mu)).terms == oracle_outer(lam, mu), \
                        (lam, mu)


def _check_kronecker_weight_6(kron):
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                assert kron(S(*lam), S(*mu)).terms == oracle_kron(lam, mu), \
                    (lam, mu)


def test_kronecker_exhaustive_weight_6():
    _check_kronecker_weight_6(kronecker)


def test_kronecker_oracle_catches_one_wrong_coefficient():
    # g((3,2,1), (3,2,1), (3,2,1)) = 5; report 4 for that one pair only
    def faulty(a, b):
        out = kronecker(a, b)
        if a.terms == b.terms == {(3, 2, 1): 1}:
            out = out + SchurExpr({(3, 2, 1): -1})
        return out

    assert kronecker(S(3, 2, 1), S(3, 2, 1)).terms[(3, 2, 1)] == 5
    with pytest.raises(AssertionError, match=r"\(3, 2, 1\)"):
        _check_kronecker_weight_6(faulty)


def test_plethysm_exhaustive_weight_6():
    for wa in range(1, 7):
        for wb in range(1, 7):
            if wa * wb > 6:
                continue
            for lam in partitions(wa):
                for mu in partitions(wb):
                    assert plethysm(S(*lam), S(*mu)).terms == \
                        oracle_plethysm(lam, mu), (lam, mu)


# ---------------------------------------------------------------------------
# power-sum plumbing in integer class-function form

def two_sort_border_strips(lam, k):
    """Reference: strip removal by sorting the beta-numbers twice."""
    n = len(lam)
    beta = [lam[i] + (n - 1 - i) for i in range(n)]
    present = set(beta)
    for b in beta:
        nb = b - k
        if nb < 0 or nb in present:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((c for c in beta if c != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        mu = tuple(newbeta[j] - (n - 1 - j) for j in range(n))
        yield tuple(x for x in mu if x > 0), height


def test_border_strips_match_the_two_sort_reference():
    for n in range(11):
        for lam in partitions(n):
            for k in range(1, n + 2):
                assert sorted(_border_strips(lam, k)) == \
                    sorted(two_sort_border_strips(lam, k)), (lam, k)


def test_schur_terms_are_integer_characters():
    for n in range(9):
        for lam in partitions(n):
            p = _schur_term_to_p(lam)
            assert all(type(x) is int for x in p.values())
            assert p == {rho: character(lam, rho) for rho in partitions(n)
                         if character(lam, rho)}


def test_p_to_schur_refuses_what_is_not_a_virtual_character():
    # {(1, 1): 2} is p_1^2 = {2} + {1,1}; half of it has no integer expansion
    assert _p_to_schur({(1, 1): 2}) == S(2) + S(1, 1)
    with pytest.raises(ArithmeticError):
        _p_to_schur({(1, 1): 1})
    with pytest.raises(ArithmeticError):
        _p_to_schur({(1, 1): 2}, 2)


def test_hall_norm_is_the_sum_of_squared_schur_coefficients():
    # the qutrit SLOCC rows S(m)[S(3)] and the graded powers S(sigma)[{2,1}]
    cases = [(S(m), S(3)) for m in range(5)] + [
        (S(*sigma), S(2, 1)) for s in range(5) for sigma in partitions(s)]
    for a, b in cases:
        p, order, _ = plethysm_class(a, b)
        assert hall_norm(p, order) == sum(c * c for c in plethysm(a, b).terms.values()), (a, b)
    # 1 + p_1^2 = {0} + {2} + {1,1}: homogeneous parts are orthogonal
    assert hall_norm({(): 1, (1, 1): 2}) == 3


def test_hall_norm_refuses_what_is_not_a_virtual_character():
    # the indicator of the identity class of S_3 is p_1^3 / 6, of norm 1/6
    with pytest.raises(ArithmeticError):
        hall_norm({(1, 1, 1): 1})
    # ({2} + {1,1}) / 2 has norm 1/2
    with pytest.raises(ArithmeticError):
        hall_norm({(1, 1): 2}, 2)


def test_plethysm_of_mixed_weights_is_the_sum_of_homogeneous_parts():
    b1, b2 = S(1), S(2) - S(1, 1)
    b = b1 + b2
    # linear in the outer argument: each weight of it is its own denominator
    a = S(2) + 2 * S(1, 1) - S(3)
    assert plethysm(a, b) == plethysm(S(2), b) + 2 * plethysm(S(1, 1), b) - plethysm(S(3), b)
    # s_lam[b1 + b2] = sum over mu of s_mu[b1] s_{lam/mu}[b2]
    for n in range(1, 4):
        for lam in partitions(n):
            split = SchurExpr()
            for m in range(n + 1):
                for mu in partitions(m):
                    split = split + plethysm(S(*mu), b1) * plethysm(skew(S(*lam), S(*mu)), b2)
            assert plethysm(S(*lam), b) == split, lam


# every plethysm the exact digest pins, and virtual and mixed-weight arguments
ROW_BOUND_CASES = [
    (S(*lam), S(*mu)) for inner in range(1, 4) for outer in range(1, 5)
    for lam in partitions(outer) for mu in partitions(inner)
] + [
    (S(2), S(2) - S(1, 1)), (S(3), S(2, 1) - S(3)), (S(2, 2), S(1, 1) - S(2)),
    (S(2, 1), S(1) + S(2)), (S(4), S(1) + S(2, 1)), (S(3), S() + S(2, 1)),
    (S(2) - S(1, 1), S(2, 1)), (S(3) + S(1), S(1, 1)),
]


def test_plethysm_computes_only_the_rows_it_can_have(monkeypatch):
    # the expansion over every partition has no term longer than the bound
    # L = max |mu| over a times max len(nu) over b, and equals the bounded one
    bounds = []

    def unbounded(p, scale=1, max_len=None):
        bounds.append(max_len)
        return _p_to_schur(p, scale)

    for a, b in ROW_BOUND_CASES:
        bound = max(map(sum, a.terms)) * max(map(len, b.terms))
        with monkeypatch.context() as m:
            m.setattr(symfunc, "_p_to_schur", unbounded)
            full = plethysm(a, b)
        assert bounds.pop() == bound
        assert full and all(len(lam) <= bound for lam in full.terms), (a, b)
        assert plethysm(a, b) == full, (a, b)


def test_capped_plethysm_is_the_class_expansion_on_at_most_that_many_rows():
    # every cap up to past the row bound, and the polynomial route of
    # plethysms at every cap it reads: the uncapped expansion truncated
    for a, b in ROW_BOUND_CASES:
        full = plethysm(a, b)
        bound = max(map(sum, a.terms)) * max(map(len, b.terms))
        for cap in range(bound + 2):
            truncated = {lam: c for lam, c in full.terms.items() if len(lam) <= cap}
            assert plethysm(a, b, cap).terms == truncated, (a, b, cap)
            if cap <= 5:
                assert plethysms([a], b, cap)[0].terms == truncated, (a, b, cap)


def test_plethysms_refuse_more_than_five_rows():
    assert plethysms([S(2)], S(1), 5) == [S(2)]
    for cap in (6, 12):
        with pytest.raises(ValueError, match="plethysm reads any number"):
            plethysms([S(2)], S(1), cap)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from([lam for n in range(5) for lam in partitions(n)]),
                       st.integers(min_value=-2, max_value=2), max_size=3),
       st.dictionaries(st.sampled_from([lam for n in range(4) for lam in partitions(n)]),
                       st.integers(min_value=-2, max_value=2), max_size=3),
       st.integers(min_value=0, max_value=5))
def test_plethysms_equal_the_class_route(a, b, cap):
    # virtual and mixed-weight a of weight <= 4 and b of weight <= 3
    a, b = SchurExpr(a), SchurExpr(b)
    assert plethysms([a], b, cap) == [plethysm(a, b, cap)], (a, b, cap)


def test_plethysms_share_one_inner_function():
    outers = [S(*sigma) for s in range(5) for sigma in partitions(s)] + [S(2) - S(1, 1)]
    for b in (S(2, 1), S(1) + S(2), S() + S(2, 1) - S(3)):
        assert plethysms(outers, b, 3) == [plethysm(a, b, 3) for a in outers], b
    assert plethysms([], S(2, 1), 3) == []


def _counted(monkeypatch, name):
    """Count the calls of ``symfunc.<name>`` into the returned list."""
    calls, fn = [], getattr(symfunc, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(symfunc, name, counted)
    return calls


def _prefix_products(rhos):
    """The products a table that builds each prefix of a cycle type once
    makes for the cycle types ``rhos``: one per prefix of two or more parts."""
    return len({rho[:i] for rho in rhos for i in range(2, len(rho) + 1)})


def test_count_lsl_builds_each_power_sum_product_once(monkeypatch):
    # the count lsl --dim 3 --max 12 table takes the class function of
    # S(m)[{3}] for m <= 4, one table each over every rho of weight m
    calls = _counted(monkeypatch, "_p_mul")
    assert [count_lsl(3, n).count for n in range(13)] == [1, 0, 0, 1, 0, 0, 2, 0, 0, 5, 0, 0, 12]
    assert len(calls) == sum(_prefix_products(partitions(m)) for m in range(5)) == 11


def test_plethysms_build_each_power_sum_product_once(monkeypatch):
    # one table of p_rho(x_1..x_L) over the rho where b's character is
    # nonzero, then one of p_rho[b] over the rho of every outer weight
    calls = _counted(monkeypatch, "_poly_mul")
    plethysms([S(*sigma) for s in range(5) for sigma in partitions(s)], S(2, 1), 3)
    inner = [rho for rho in partitions(3) if character((2, 1), rho)]
    outer = [rho for s in range(5) for rho in partitions(s)]
    assert len(calls) == _prefix_products(inner) + _prefix_products(outer) == 9


def test_poly_to_schur_refuses_what_is_not_a_virtual_character():
    # in two variables packed in base 6, x^(v1, v2) is the int 6 v1 + v2:
    # m_2 = x1^2 + x2^2 = p_2 = {2} - {1,1}; m_{1,1} = x1 x2 = {1,1}, and half
    # of it is no virtual character
    assert _poly_to_schur({12: 1, 2: 1}, 1, 2, 6) == S(2) - S(1, 1)
    assert _poly_to_schur({7: 2}, 2, 2, 6) == S(1, 1)
    with pytest.raises(ArithmeticError, match=r"\(1, 1\)"):
        _poly_to_schur({7: 1}, 2, 2, 6)
