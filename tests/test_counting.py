from collections import Counter
from dataclasses import asdict, fields
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from qutrit_invariants import counting, symfunc
from qutrit_invariants.cli import main
from qutrit_invariants.counting import (
    ADJOINT,
    GRADED_COLUMNS,
    CountReport,
    count_graded_quartics,
    count_lsl,
    count_lu_mixed,
    count_lu_pure,
    graded_table,
)
from qutrit_invariants.symfunc import (
    S,
    SchurExpr,
    character,
    class_sum,
    partitions,
    plethysm,
    sun_modify,
    zclass,
)

from bruteforce import _partitions as oracle_partitions, oracle_kron, zclass as oracle_zclass


def expand_rational_series(numerator, den_factors, order):
    """Integer power-series expansion of num / prod (1 - z^p)^m."""
    series = list(numerator[:order + 1]) + [0] * (order + 1 - len(numerator))

    def mul(a, b):
        out = [0] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[:order + 1 - i]):
                    out[i + j] += x * y
        return out

    for p, m in den_factors:
        geometric = [1 if i % p == 0 else 0 for i in range(order + 1)]
        for _ in range(m):
            series = mul(series, geometric)
    return series


def test_lu_pure_divisibility():
    assert count_lu_pure(4, 2, 3) == 0
    assert count_lu_pure(4, 2, 5) == 0
    assert count_lu_pure(2, 3, 4) == 0


def test_lu_pure_four_qubit_series():
    values = [count_lu_pure(4, 2, n) for n in range(0, 13, 2)]
    assert values == [1, 1, 3, 4, 7, 9, 14]


def test_lu_pure_bounds():
    with pytest.raises(ValueError):
        count_lu_pure(5, 2, 4)
    with pytest.raises(ValueError):
        count_lu_pure(4, 2, 13)
    for K in (0, -1):
        with pytest.raises(ValueError):
            count_lu_pure(K, 2, 4)
    with pytest.raises(ValueError):
        count_lu_pure(2, 3, -3)


@pytest.mark.parametrize("count, args", [
    (count_lu_pure, (2.5, 2, 4)), (count_lu_pure, (4, 2.0, 4)), (count_lu_pure, (4, 2, 4.0)),
    (count_lu_pure, (True, 2, 4)),
    (count_lu_mixed, (3, 2.0)), (count_lu_mixed, (3.0, 2)), (count_lu_mixed, (3, True)),
    (count_lsl, (2, 4.0)), (count_lsl, (3, 6.0)), (count_lsl, (3, False)),
    (count_graded_quartics, (0, 0, 2.0)), (count_graded_quartics, (True, 0, 3)),
])
def test_counts_refuse_arguments_that_are_not_ints(count, args, monkeypatch):
    # refused before any work: no symmetric-function routine is called
    def no_work(*_):
        raise AssertionError("the count ran before checking its arguments")
    for name in ("character", "class_sum", "hall_norm", "partitions", "plethysm",
                 "plethysm_class", "plethysms", "sun_modify"):
        monkeypatch.setattr(counting, name, no_work)
    with pytest.raises(ValueError, match=r"\b[KDnpqs] must be an integer"):
        count(*args)


def fraction_class_sum(n, fn):
    return sum((Fraction(fn(rho), zclass(rho)) for rho in partitions(n)), Fraction(0))


def test_class_sum_matches_the_rational_sum_of_both_counts():
    for n in range(1, 9):
        for K in (1, 2, 3, 4):
            for D in (2, 3):
                if n % D:
                    continue
                tau = (n // D,) * D
                fn = lambda rho: character(tau, rho) ** K  # noqa: E731
                assert class_sum(n, fn) == fraction_class_sum(n, fn)
        for D in (2, 3):
            for sigma in partitions(n, max_len=D):
                for tau in partitions(n, max_len=D * D):
                    fn = lambda rho: character(sigma, rho) ** 2 * character(tau, rho)  # noqa: E731
                    assert class_sum(n, fn) == fraction_class_sum(n, fn)


def test_zclass_is_the_centralizer_order_in_any_order_of_parts():
    for n in range(11):
        # the class sizes n!/z partition S_n
        assert sum(factorial(n) // zclass(rho) for rho in partitions(n)) == factorial(n)
        for rho in partitions(n):
            assert zclass(rho) == oracle_zclass(rho), rho
    for rho in ((1, 2, 1, 3, 2, 1), (2, 2, 2, 1), ()):
        assert {zclass(p) for p in permutations(rho)} == {oracle_zclass(rho)}


def test_class_sum_refuses_a_non_integer_average():
    # the indicator of the identity class of S_3 averages to 1/6
    with pytest.raises(ArithmeticError):
        class_sum(3, lambda rho: 1 if rho == (1, 1, 1) else 0)
    assert class_sum(3, lambda rho: 1) == 1


def test_lu_mixed_qutrit_series():
    assert [count_lu_mixed(3, n) for n in range(6)] == [1, 1, 4, 11, 34, 108]


def test_lu_mixed_qubit_series_matches_rational_form():
    # the two-qubit mixed series has the known closed rational form; its
    # expansion is an independent oracle for the character counts
    numerator = [0] * 16
    for k, c in [(0, 1), (4, 1), (5, 1), (6, 3), (7, 2), (8, 2), (9, 3),
                 (10, 1), (11, 1), (15, 1)]:
        numerator[k] = c
    expected = expand_rational_series(
        numerator, [(1, 1), (2, 3), (3, 2), (4, 3), (6, 1)], 8)
    assert [count_lu_mixed(2, n) for n in range(9)] == expected
    assert expected[:3] == [1, 1, 4]


def test_lu_mixed_is_the_sum_of_squared_oracle_multiplicities():
    # mult_tau = sum of g(sigma, sigma, tau) over sigma with at most D rows,
    # from the brute-force Kronecker coefficients; no tau with a nonzero
    # multiplicity has more than D^2 rows
    for D, top in ((2, 6), (3, 5)):
        for n in range(top + 1):
            mult = Counter()
            for sigma in oracle_partitions(n):
                if len(sigma) <= D:
                    mult.update(oracle_kron(sigma, sigma))
            assert count_lu_mixed(D, n) == sum(m * m for m in mult.values()), (D, n)
            assert all(len(tau) <= D * D for tau, m in mult.items() if m), (D, n)


def test_lu_mixed_bounds():
    with pytest.raises(ValueError):
        count_lu_mixed(3, 6)
    with pytest.raises(ValueError):
        count_lu_mixed(2, 9)
    with pytest.raises(ValueError):
        count_lu_mixed(4, 2)


def test_graded_quartics_row():
    counts = [count_graded_quartics(*g) for g in GRADED_COLUMNS]
    assert counts == [0, 0, 2, 2, 2, 2, 2, 1, 1, 0, 0, 5]


def test_graded_quartics_examples():
    assert count_graded_quartics(1, 0, 3) == 2
    assert count_graded_quartics(0, 0, 4) == 5
    assert count_graded_quartics(3, 0, 1) == 0


def test_graded_total_is_seventeen():
    assert sum(count_graded_quartics(*g) for g in GRADED_COLUMNS) == 17


def test_graded_lower_degrees():
    assert count_graded_quartics(2, 0, 0) == 1
    assert count_graded_quartics(0, 0, 2) == 1
    assert count_graded_quartics(1, 1, 1) == 1
    assert count_graded_quartics(0, 0, 3) == 2
    assert count_graded_quartics(1, 0, 0) == 0


def test_graded_bounds():
    with pytest.raises(ValueError):
        count_graded_quartics(3, 2, 0)


def test_su3_conjugate():
    # graded_table pairs equal irreducibles of two powers: that is their
    # singlet count only if each power is its own contragredient
    def conjugate(expr):  # SU(3)-reduced characters: (a, b) -> (a, a - b)
        pairs = [((lam + (0, 0))[:2], c) for lam, c in expr.terms.items()]
        return SchurExpr([((a, a - b), c) for (a, b), c in pairs])

    assert conjugate(S(2, 1)) == S(2, 1)          # adjoint self-dual
    assert conjugate(S(1)) == S(1, 1)             # defining <-> dual
    assert conjugate(S(4, 2)) == S(4, 2)
    assert conjugate(S(3)) == S(3, 3)
    sigmas = [sigma for s in range(5) for sigma in partitions(s)]
    assert len(sigmas) == 12
    for sigma in sigmas:
        power = sun_modify(plethysm(S(*sigma), ADJOINT, 3), 3)
        assert power and all(len(lam) <= 2 for lam in power.terms)
        assert conjugate(power) == power, sigma


def test_lsl_qubit_series():
    values = [count_lsl(2, n) for n in range(0, 13)]
    assert [v.count for v in values[::2]] == [1, 1, 3, 4, 7, 9, 14]
    assert all(v.count == 0 for v in values[1::2])
    assert not any(v.conjecture for v in values)


def test_lsl_qutrit_series_is_conjecture():
    reports = {n: count_lsl(3, n) for n in (0, 3, 6, 9, 12)}
    assert [reports[n].count for n in (0, 3, 6, 9, 12)] == [1, 1, 2, 5, 12]
    assert all(r.conjecture for r in reports.values())
    for n in (1, 2, 4, 5, 7, 8, 10, 11):
        assert count_lsl(3, n).count == 0


def test_lsl_bounds():
    with pytest.raises(ValueError):
        count_lsl(2, 14)
    with pytest.raises(ValueError):
        count_lsl(3, 15)
    with pytest.raises(ValueError):
        count_lsl(4, 3)


def test_report_shape():
    rep = count_lsl(3, 9)
    d = rep.as_dict()
    assert d["degree"] == 9 and d["count"] == 5 and d["conjecture"]


@pytest.mark.parametrize("family, D, n", [("lsl", 3, 9), ("lsl", 3, 4), ("lsl", 2, 6),
                                          ("lu", 3, 4)])
def test_report_dict_is_dataclasses_asdict(family, D, n):
    # every field, in field order: the JSON rows of count are these dicts
    rep = (count_lsl(D, n) if family == "lsl" else
           CountReport(n, count_lu_mixed(D, n), "character inner squares"))
    d, want = rep.as_dict(), asdict(rep)
    assert d == want and list(d) == list(want) == [f.name for f in fields(CountReport)]
    d["count"] = -1  # a copy: the report itself is unchanged
    assert asdict(rep) == want


def _cached(module):
    return {name for name, obj in vars(module).items() if hasattr(obj, "cache_clear")}


def test_the_count_tables_keep_only_the_memo_tables_a_cold_pass_clears():
    # a count starts cold once these four are cleared, as in a fresh process
    assert _cached(symfunc) == {"character", "_lr_product", "_schur_term_to_p", "partitions"}
    assert {name for name in _cached(counting)
            if getattr(counting, name) is not getattr(symfunc, name, None)} == set()


def _record_calls(monkeypatch, calls, name, *modules):
    """Route ``name`` in each of ``modules`` through a wrapper that appends
    (name, args) to ``calls``."""
    real = getattr(modules[0], name)

    def recorded(*args):
        calls.append((name, args))
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, recorded)


def test_a_table_computes_each_plethysm_once(monkeypatch, capsys):
    calls = []
    for name in ("plethysm", "plethysms", "sun_modify"):
        _record_calls(monkeypatch, calls, name, symfunc, counting)

    def powers(name):
        return sorted(repr(a) for called, args in calls if called == name
                      for a in (args[0] if name == "plethysms" else [args[0]]))

    # one symmetrized power of the adjoint per distinct sigma, all of them in
    # one capped expansion that shares p_rho[{2,1}], each reduced once: the
    # one-row (p), (q) and every sigma of weight s <= 4
    assert main(["count", "graded"]) == 0
    every = sorted(repr(S(*sigma)) for s in range(5) for sigma in partitions(s))
    assert len(every) == 12 and powers("plethysms") == every
    assert [args[1:] for called, args in calls if called == "plethysms"] == [(ADJOINT, 3)]
    assert not powers("plethysm") and len(powers("sun_modify")) == 12
    calls.clear()
    # (0, 0, 4) and the (0, 0, 2) it subtracts: sigma of weight 0, 2 and 4
    assert main(["count", "graded", "--pqs", "004"]) == 0
    assert powers("plethysms") == sorted(repr(S(*sigma)) for s in (0, 2, 4)
                                         for sigma in partitions(s))
    assert len(powers("plethysms")) == len(powers("sun_modify")) == 8
    calls.clear()
    _record_calls(monkeypatch, calls, "plethysm_class", symfunc, counting)
    _record_calls(monkeypatch, calls, "_p_to_schur", symfunc)
    assert main(["count", "lsl", "--dim", "3", "--max", "12"]) == 0
    # only the class function of the weight-3m term S(m)[S(3)] of the
    # series, once per m, and no Schur expansion
    assert calls == [("plethysm_class", (S(m), S(3))) for m in range(5)]


def test_cold_tables_evaluate_only_the_characters_they_keep(monkeypatch, capsys):
    # the qutrit SLOCC rows need characters of the one-row factors of
    # S(m)[S(3)] only, and the graded powers none longer than sigma's 4 rows;
    # expanding S(4)[S(3)] and S(sigma)[{2,1}] in full would reach 4 and 8 rows.
    # The mixed lu rows need the sigma with at most D rows only; a sum over
    # tau would reach 4 rows at D = 2 and 5 at D = 3
    calls = []
    _record_calls(monkeypatch, calls, "character", symfunc, counting)
    for argv, rows in ((["lsl", "--dim", "3", "--max", "12"], 1), (["graded"], 4),
                       (["lu", "--dim", "2", "--max", "8"], 2),
                       (["lu", "--dim", "3", "--max", "5"], 3)):
        for table in vars(symfunc).values():
            if hasattr(table, "cache_clear"):
                table.cache_clear()
        calls.clear()
        assert main(["count", *argv]) == 0
        assert max(len(args[0]) for _, args in calls) == rows, argv


def test_graded_powers_on_three_rows_match_the_full_expansion():
    for s in range(5):
        for sigma in partitions(s):
            full = plethysm(S(*sigma), ADJOINT)
            rows3 = plethysm(S(*sigma), ADJOINT, 3)
            assert rows3.terms == {lam: c for lam, c in full.terms.items() if len(lam) <= 3}
            assert sun_modify(rows3, 3) == sun_modify(full, 3), sigma


def test_cold_tables_stay_cold(monkeypatch, capsys):
    # a cache that outlived a table would let the second run skip work
    for table in vars(symfunc).values():
        if hasattr(table, "cache_clear"):
            table.cache_clear()
    calls = []
    for name in ("plethysm", "plethysms", "plethysm_class", "sun_modify"):
        _record_calls(monkeypatch, calls, name, symfunc, counting)
    runs = []
    for _ in range(2):
        calls.clear()
        for argv in (["graded"], ["lsl", "--dim", "3", "--max", "12"]):
            assert main(["count", *argv]) == 0
        runs.append(sorted(map(repr, calls)))
    names = {name for name, _ in calls}
    assert runs[0] == runs[1] and {"plethysms", "plethysm_class", "sun_modify"} <= names


def test_a_cold_graded_table_evaluates_no_character_past_weight_4(monkeypatch, capsys):
    # the powers are read off polynomials in 3 variables, which need the
    # characters of sigma (S_4 at most) and of the adjoint (S_3) only; the
    # class expansion of {1,1,1,1}[{2,1}] would evaluate characters of S_12
    for table in vars(symfunc).values():
        if hasattr(table, "cache_clear"):
            table.cache_clear()
    calls = []
    _record_calls(monkeypatch, calls, "character", symfunc, counting)
    assert main(["count", "graded"]) == 0
    assert calls and max(sum(args[0]) for _, args in calls) == 4


def test_graded_table_of_any_columns_matches_the_full_table():
    full = dict(zip(GRADED_COLUMNS, graded_table(GRADED_COLUMNS)))
    for c in GRADED_COLUMNS:
        assert graded_table([c]) == [full[c]]
    for c1, c2 in combinations(GRADED_COLUMNS, 2):
        assert graded_table([c1, c2]) == [full[c1], full[c2]]
