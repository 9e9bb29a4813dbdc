"""One integer rule for every count, degree, dimension and seed argument.

``checks.integer`` is the package's one integer check.  The table below
walks every exported function that takes an integer or a seed (plus the
module functions that take one) through the same bad values: each must
raise ValueError naming the argument, and a numpy integer must give what
the equal Python int gives.  The constructors of the dataclass records
(``BipartiteState``, ``StateCoords``, ``StructureTensors``,
``CountReport``) are not walked: the package builds them from values that
these functions have checked, as ``BipartiteState.from_rho`` does.
"""

import dataclasses
import inspect
from typing import Callable, NamedTuple

import numpy as np
import pytest

import qutrit_invariants
from qutrit_invariants import counting
from qutrit_invariants.checks import integer
from qutrit_invariants.counting import (count_graded_quartics, count_lsl, count_lu_mixed,
                                        count_lu_pure)
from qutrit_invariants.lsl_qutrit import build_algebra
from qutrit_invariants.lu_invariants import independence_test
from qutrit_invariants.monotones import run_trials, sample_measurement, scalar_inequality_scan
from qutrit_invariants.numdiff import poly_jacobian
from qutrit_invariants.qubit import trace_invariants
from qutrit_invariants.states import (BipartiteState, ginibre, random_local_sl,
                                      random_local_unitary, random_state, to_coords,
                                      trial_seed_words)
from qutrit_invariants.symfunc import (S, SchurExpr, as_partition, partitions, plethysm,
                                       plethysm_series, product_power_plethysm, sun_modify)
from qutrit_invariants.tensors import build_structure_tensors

# 2.0 is the integral float that the one rule refuses too
BAD = {"True": True, "2.0": 2.0, "2.5": 2.5, "nan": float("nan"), "inf": float("inf"),
       "None": None, "-1": -1}

STATES = [random_state(3, 3, seed) for seed in range(6)]
RHO = STATES[0].rho
EXT22 = random_state(2, 2, 0).coords.ext


class Row(NamedTuple):
    fn: Callable
    param: str      # the parameter, as the signature names it
    good: int       # a value the call accepts
    call: Callable  # the call with ``value`` in that parameter
    named: str      # how the refusal names the argument
    bounded: bool = True    # -1 is refused
    optional: bool = False  # None means "not given" and is accepted


TABLE = [
    Row(count_lu_pure, "K", 2, lambda v: count_lu_pure(v, 3, 3), "K"),
    Row(count_lu_pure, "D", 3, lambda v: count_lu_pure(2, v, 3), "D"),
    Row(count_lu_pure, "n", 3, lambda v: count_lu_pure(2, 3, v), "n"),
    Row(count_lu_mixed, "D", 3, lambda v: count_lu_mixed(v, 4), "D"),
    Row(count_lu_mixed, "n", 4, lambda v: count_lu_mixed(3, v), "n"),
    Row(count_lsl, "D", 3, lambda v: count_lsl(v, 6), "D"),
    Row(count_lsl, "n", 6, lambda v: count_lsl(3, v), "n"),
    Row(count_graded_quartics, "p", 1, lambda v: count_graded_quartics(v, 1, 2), "p"),
    Row(count_graded_quartics, "q", 1, lambda v: count_graded_quartics(1, v, 2), "q"),
    Row(count_graded_quartics, "s", 2, lambda v: count_graded_quartics(1, 1, v), "s"),
    Row(build_algebra, "seed", 3, lambda v: build_algebra(v, 1), "seed"),
    Row(build_algebra, "trials", 1, lambda v: build_algebra(3, v), "trials"),
    Row(independence_test, "jacobian_points", 1,
        lambda v: independence_test(STATES, ["K200"], v), "jacobian_points"),
    Row(run_trials, "trials", 2, lambda v: run_trials("C3", v, 5), "trials"),
    Row(run_trials, "seed", 5, lambda v: run_trials("C3", 2, v), "seed"),
    Row(run_trials, "workers", 1, lambda v: run_trials("C3", 2, 5, workers=v), "workers"),
    Row(sample_measurement, "dim", 3, lambda v: sample_measurement(v, 5), "dim"),
    Row(sample_measurement, "seed", 5, lambda v: sample_measurement(3, v), "seed"),
    Row(scalar_inequality_scan, "resolution", 10,
        lambda v: scalar_inequality_scan(v, samples=10), "resolution"),
    Row(scalar_inequality_scan, "samples", 10,
        lambda v: scalar_inequality_scan(10, samples=v), "samples"),
    Row(scalar_inequality_scan, "seed", 4,
        lambda v: scalar_inequality_scan(10, samples=10, seed=v), "seed"),
    Row(random_local_sl, "dim", 3, lambda v: random_local_sl(v, 5), "dim"),
    Row(random_local_sl, "seed", 5, lambda v: random_local_sl(3, v), "seed"),
    Row(random_local_unitary, "dim", 3, lambda v: random_local_unitary(v, 5), "dim"),
    Row(random_local_unitary, "seed", 5, lambda v: random_local_unitary(3, v), "seed"),
    Row(random_state, "dimA", 3, lambda v: random_state(v, 2, 5), "dimA"),
    Row(random_state, "dimB", 2, lambda v: random_state(3, v, 5), "dimB"),
    Row(random_state, "seed", 5, lambda v: random_state(3, 2, v), "seed"),
    Row(random_state, "size", 2, lambda v: random_state(3, 2, 5, size=v), "size",
        optional=True),
    Row(trial_seed_words, "seed", 5, lambda v: trial_seed_words(v, 0, 3), "seed"),
    Row(trial_seed_words, "start", 2, lambda v: trial_seed_words(5, v, 3), "start"),
    Row(trial_seed_words, "stop", 3, lambda v: trial_seed_words(5, 2, v), "stop"),
    Row(to_coords, "dimA", 3, lambda v: to_coords(RHO, v, 3), "dimA"),
    Row(to_coords, "dimB", 3, lambda v: to_coords(RHO, 3, v), "dimB"),
    Row(BipartiteState.from_rho, "dimA", 3, lambda v: BipartiteState.from_rho(RHO, v, 3), "dimA"),
    Row(BipartiteState.from_rho, "dimB", 3, lambda v: BipartiteState.from_rho(RHO, 3, v), "dimB"),
    Row(build_structure_tensors, "dim", 3, lambda v: build_structure_tensors(v), "dim"),
    Row(partitions, "n", 6, lambda v: partitions(v), "n", bounded=False),
    Row(S, "parts", 2, lambda v: S(v, 1), "partition part"),
    Row(SchurExpr, "terms", 2, lambda v: SchurExpr({(v, 1): 1}), "partition part"),
    Row(SchurExpr, "coefficient", 2, lambda v: SchurExpr({(2, 1): v}), "coefficient",
        bounded=False),
    Row(SchurExpr, "scalar", 2, lambda v: S(2, 1) * v, "scalar", bounded=False),
    Row(SchurExpr, "weight", 3, lambda v: (S(2, 1) + S(2)).weight_part(v), "weight"),
    Row(as_partition, "parts", 2, lambda v: as_partition((v, 1)), "partition part"),
    Row(plethysm, "max_len", 2, lambda v: plethysm(S(2), S(2), v), "max_len",
        optional=True),
    Row(plethysm_series, "k", 2, lambda v: plethysm_series(v, 6), "k"),
    Row(plethysm_series, "max_weight", 6, lambda v: plethysm_series(2, v), "max_weight"),
    Row(product_power_plethysm, "n", 2, lambda v: product_power_plethysm(S(1), S(2), v), "n"),
    Row(sun_modify, "N", 3, lambda v: sun_modify(S(2, 1) + S(1, 1, 1), v), "N"),
    Row(trace_invariants, "ks", 2, lambda v: trace_invariants(EXT22, [1, v]), "trace power k"),
    Row(ginibre, "dim", 3, lambda v: ginibre(np.random.default_rng(0), v), "dim"),
    Row(ginibre, "size", 2, lambda v: ginibre(np.random.default_rng(0), 3, size=v), "size",
        optional=True),
    Row(poly_jacobian, "degree", 2,
        lambda v: poly_jacobian(lambda x: x ** 2, np.ones(2), v, np.eye(2)), "degree"),
]

ROW_IDS = [f"{row.fn.__name__}-{row.param}" for row in TABLE]

# the parameter names that take an integer or a seed, wherever they appear
INTEGER_PARAMS = {"K", "D", "n", "N", "p", "q", "s", "k", "ks", "dim", "dimA", "dimB", "size",
                  "seed", "start", "stop", "trials", "workers", "samples", "resolution",
                  "jacobian_points", "max_len", "max_weight", "parts", "degree"}


def same(a, b):
    """Equal values of equal types, through dataclasses, containers and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    return type(a) is type(b) and a == b


def cases():
    for row, row_id in zip(TABLE, ROW_IDS):
        for name, value in BAD.items():
            if (name == "-1" and not row.bounded) or (name == "None" and row.optional):
                continue
            yield pytest.param(row, value, id=f"{row_id}-{name}")


@pytest.mark.parametrize("row, value", cases())
def test_bad_integers_raise_value_error_naming_the_argument(row, value):
    with pytest.raises(ValueError) as info:
        row.call(value)
    if value != -1:  # a bound may be checked by a range of the function's own
        assert row.named in str(info.value)


@pytest.mark.parametrize("row, value", [c for c in cases()
                                         if c.values[0].fn.__module__ == counting.__name__])
def test_counts_refuse_before_any_symmetric_function_work(row, value, monkeypatch):
    def no_work(*_):
        raise AssertionError("the count ran before checking its arguments")
    for name in ("character", "class_sum", "hall_norm", "partitions", "plethysm",
                 "plethysm_class", "sun_modify"):
        monkeypatch.setattr(counting, name, no_work)
    with pytest.raises(ValueError):
        row.call(value)


@pytest.mark.parametrize("row", TABLE, ids=ROW_IDS)
def test_numpy_integers_give_what_ints_give(row):
    assert same(row.call(np.int64(row.good)), row.call(row.good))


def test_the_table_covers_every_exported_integer_parameter():
    covered = {(row.fn, row.param) for row in TABLE}
    for name, fn in vars(qutrit_invariants).items():
        if inspect.isfunction(fn):
            wanted = INTEGER_PARAMS.intersection(inspect.signature(fn).parameters)
            assert {(fn, param) for param in wanted} <= covered, name


@pytest.mark.parametrize("draw", [
    lambda seed: random_state(3, 3, seed), lambda seed: random_local_sl(3, seed),
    lambda seed: random_local_unitary(3, seed), lambda seed: sample_measurement(3, seed),
], ids=["random_state", "random_local_sl", "random_local_unitary", "sample_measurement"])
def test_a_generator_passes_for_a_seed(draw):
    assert same(draw(np.random.default_rng(7)), draw(7))


@pytest.mark.parametrize("value", [0, 7, -3, 2 ** 70, np.int64(7), np.int32(-3), np.uint8(7)])
def test_integers_pass_as_ints(value):
    assert integer(value, "x") == value and type(integer(value, "x")) is int


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 2.5, np.float64(2.0),
                                   float("nan"), float("inf"), None, "3", [3], 2 + 0j],
                         ids=repr)
def test_everything_else_is_refused(value):
    with pytest.raises(ValueError, match="x must be an integer"):
        integer(value, "x")


@pytest.mark.parametrize("table, value", [(build_structure_tensors, 3), (partitions, 6)],
                         ids=["build_structure_tensors", "partitions"])
def test_a_numpy_integer_shares_the_cache_entry_of_the_int(table, value):
    # the integer goes through the one check before the lookup, so a numpy
    # integer finds the entry of the equal int and adds none
    first = table(value)
    entries = table.cache_info().currsize
    assert table(np.int64(value)) is first and table(np.uint8(value)) is first
    assert table.cache_info().currsize == entries


def test_a_bound_is_inclusive():
    assert integer(1, "x", 1) == 1
    with pytest.raises(ValueError, match="x must be at least 1, got 0"):
        integer(0, "x", 1)
