"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none are deferred.
"""

import time

import numpy as np

from qutrit_invariants.counting import (
    GRADED_COLUMNS,
    count_graded_quartics,
    count_lsl,
    count_lu_mixed,
)
from qutrit_invariants.lsl_qutrit import (
    build_algebra,
    cubic_expansion_residual,
    cubic_invariant,
    dtilde_preservation_residual,
    induce_map,
    sextic_invariant,
)
from qutrit_invariants.lu_invariants import (
    QUARTIC_LABELS,
    all_invariants,
    independence_test,
    low_degree_invariants,
)
from qutrit_invariants.monotones import (
    run_trials,
    scalar_inequality_scan,
    wrong_exponent_counterexample,
)
from qutrit_invariants.qubit import (
    dependence_jacobian_rank,
    expansion_residuals,
    q_invariants,
)
from qutrit_invariants.states import (
    apply_local,
    random_local_sl,
    random_local_unitary,
    random_state,
)
from qutrit_invariants.symfunc import S, parse_expr, plethysm, sun_modify


def check(num, ok, detail):
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lu_mixed_counts():
    t0 = time.perf_counter()
    counts = [count_lu_mixed(3, n) for n in range(6)]
    elapsed = time.perf_counter() - t0
    ok = counts == [1, 1, 4, 11, 34, 108] and elapsed < 10.0
    check(1, ok, f"qutrit LU counts {counts} in {elapsed:.2f}s")


def test_criterion_02_graded_quartic_counts():
    counts = [count_graded_quartics(*g) for g in GRADED_COLUMNS]
    ok = counts == [0, 0, 2, 2, 2, 2, 2, 1, 1, 0, 0, 5]
    check(2, ok, f"graded quartic counts {counts}")


def test_criterion_03_qutrit_lsl_counts():
    reports = [count_lsl(3, n) for n in (0, 3, 6, 9, 12)]
    counts = [r.count for r in reports]
    ok = counts == [1, 1, 2, 5, 12] and all(r.conjecture for r in reports)
    check(3, ok, f"qutrit LSL counts {counts}, all flagged CONJECTURE")


def test_criterion_04_qubit_lsl_counts():
    counts = [count_lsl(2, n).count for n in range(0, 13, 2)]
    ok = counts == [1, 1, 3, 4, 7, 9, 14]
    check(4, ok, f"qubit LSL counts {counts}")


def test_criterion_05_plethysm_goldens():
    adj = S(2, 1)
    got = {
        "cube": sun_modify(plethysm(S(3), adj), 3),
        "adj": sun_modify(plethysm(adj, adj), 3),
        "alt": sun_modify(plethysm(S(1, 1, 1), adj), 3),
    }
    want = {
        "cube": parse_expr("{0} + {3} + {2,1} + {4,2} + {3,3} + {6,3}"),
        "adj": parse_expr("{3} + 3{2,1} + {5,1} + 2{4,2} + {3,3} + {5,4}"),
        "alt": parse_expr("{0} + {3} + {2,1} + {4,2} + {3,3}"),
    }
    ok = got == want
    check(5, ok, "symmetrized powers of the octet match the SU(3) listings")


def test_criterion_06_cubic_expansion_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        c = random_state(3, 3, rng).coords
        worst = max(worst, cubic_expansion_residual(c, cubic_invariant(c.ext),
                                                    low_degree_invariants(c)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    check(6, ok, f"max expansion residual {worst:.2e} over 1000 states "
                 f"in {elapsed:.1f}s")


def test_criterion_07_lsl_invariance():
    rng = np.random.default_rng(707)
    st = random_state(3, 3, rng)
    c3 = cubic_invariant(st.coords.ext)
    c6 = sextic_invariant(st.coords.ext)
    worst = 0.0
    for _ in range(100):
        mA = induce_map(random_local_sl(3, rng))
        mB = induce_map(random_local_sl(3, rng))
        ext = mA @ st.coords.ext @ mB.T
        worst = max(worst,
                    abs(cubic_invariant(ext) - c3) / abs(c3),
                    abs(sextic_invariant(ext) - c6) / abs(c6))
    ok = worst <= 1e-8
    check(7, ok, f"max C3/C6 drift {worst:.2e} over 100 local SL maps")


def test_criterion_08_monotone_suite():
    report = run_trials("C3", 10_000, seed=808)
    scan = scalar_inequality_scan(100, samples=100_000, seed=808)
    control = wrong_exponent_counterexample()
    ok = (report["min_margin"] >= -1e-9
          and not report["violations"]
          and scan["max_violation"] <= 1e-12
          and control["raw_margin"] < -1e-9
          and control["proper_margin"] >= -1e-9)
    check(8, ok, f"min margin {report['min_margin']:.2e} over 10^4 trials, "
                 f"scan max {scan['max_violation']:.2e}, "
                 f"wrong-exponent control margin {control['raw_margin']:.2e}")


def test_criterion_09_algebra_certificate():
    gen, cert = build_algebra(seed=909, trials=20)
    group_level = max(
        dtilde_preservation_residual(induce_map(random_local_sl(3, s)))
        for s in range(909, 929))
    ok = (cert["span_dimension"] == 16
          and cert["linearized_preservation_residual"] <= 1e-12
          and cert["commutator_residual_9x9"] <= 1e-12
          and cert["commutator_residual_3x3"] <= 1e-12
          and cert["triality_kernel_residual"] <= 1e-12
          and group_level <= 1e-10)
    check(9, ok, f"span 16, linearized residual "
                 f"{cert['linearized_preservation_residual']:.1e}, commutators "
                 f"{cert['commutator_residual_9x9']:.1e}, triality "
                 f"{cert['triality_kernel_residual']:.1e}")


def test_criterion_10_qubit_identities():
    rng = np.random.default_rng(1010)
    worst = {"Q2": 0.0, "Q4": 0.0, "Q4t_eps": 0.0}
    for _ in range(1000):
        c = random_state(2, 2, rng).coords
        res = expansion_residuals(c, q_invariants(c.ext))
        for k in worst:
            worst[k] = max(worst[k], res[k])
    ranks = [dependence_jacobian_rank(random_state(2, 2, rng).coords)
             for _ in range(10)]
    ok = max(worst.values()) <= 1e-10 and all(r == 4 for r in ranks)
    check(10, ok, f"qubit expansion residuals {max(worst.values()):.2e}, "
                  f"dependence ranks {sorted(set(ranks))}")


def test_criterion_11_lu_invariance_and_rank():
    rng = np.random.default_rng(1111)
    st = random_state(3, 3, rng)
    base = all_invariants(st.coords)
    worst = 0.0
    for _ in range(100):
        U = random_local_unitary(3, rng)
        V = random_local_unitary(3, rng)
        moved = all_invariants(apply_local(st, U, V, renormalize=False).coords)
        for k, v in base.items():
            worst = max(worst, abs(moved[k] - v) / max(abs(v), abs(moved[k]), 1e-300))
    states = [random_state(3, 3, rng) for _ in range(50)]
    rep = independence_test(states, QUARTIC_LABELS, jacobian_points=1)
    ok = worst <= 1e-10 and rep["value_rank"] == 17 and rep["jacobian_rank"] == 17
    check(11, ok, f"max drift {worst:.2e} over 100 local unitaries, "
                  f"quartic rank {rep['jacobian_rank']}")
