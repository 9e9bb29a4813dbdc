import math
import tracemalloc

import numpy as np
import pytest

from qutrit_invariants import contract as contract_module
from qutrit_invariants import lu_invariants
from qutrit_invariants.contract import STACK
from qutrit_invariants.lu_invariants import (
    ALL_QUARTIC_LABELS,
    GRADINGS,
    LABELS,
    LOW_DEGREE_LABELS,
    QUARTIC_LABELS,
    all_blocks,
    _embedded,
    _label_values,
    all_invariants,
    independence_test,
    low_degree_invariants,
)
from qutrit_invariants.numdiff import poly_jacobian
from qutrit_invariants.states import (
    OVERSAMPLE,
    BipartiteState,
    StateCoords,
    apply_local,
    random_local_unitary,
    random_state,
)

RNG = np.random.default_rng(5)
STATES = [random_state(3, 3, RNG) for _ in range(40)]


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_maximally_mixed_all_zero():
    mm = BipartiteState.from_rho(np.eye(9) / 9, 3, 3)
    vals = all_invariants(mm.coords)
    assert vals["K000"] == 1.0
    assert max(abs(v) for k, v in vals.items() if k != "K000") < 1e-14


def test_label_sets_consistent():
    vals = all_invariants(STATES[0].coords)
    assert set(vals) == set(GRADINGS)
    assert set(LOW_DEGREE_LABELS + ALL_QUARTIC_LABELS) == set(GRADINGS)
    assert len(QUARTIC_LABELS) == 17


def test_rejects_wrong_dimension():
    st = random_state(2, 2, 0)
    with pytest.raises(ValueError):
        low_degree_invariants(st.coords)
    with pytest.raises(ValueError):
        all_invariants(st.coords)


def test_lu_invariants_refuse_other_dimensions():
    for dims in ((2, 2), (2, 3), (3, 2)):
        st = random_state(*dims, 0)
        message = rf"two qutrits \(3, 3\), got dimensions \({dims[0]}, {dims[1]}\)"
        for call in (lambda: low_degree_invariants(st.coords),
                     lambda: all_invariants(st.coords),
                     lambda: independence_test([st] * 6, ["K200"], jacobian_points=0)):
            with pytest.raises(ValueError, match=message):
                call()


def test_product_state_factorization():
    # for product states the correlation block is 9 r (x) rbar, so the
    # mixed cubic reduces to 9 K200 K020
    rng = np.random.default_rng(17)
    for _ in range(5):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rA = G @ G.conj().T
        rA /= np.trace(rA).real
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rB = G @ G.conj().T
        rB /= np.trace(rB).real
        st = BipartiteState.from_rho(np.kron(rA, rB), 3, 3)
        c = st.coords
        assert np.abs(c.R - 9.0 * np.outer(c.r, c.rbar)).max() < 1e-13
        v = all_invariants(c)
        assert rel(v["K111"], 9.0 * v["K200"] * v["K020"]) < 1e-10


def test_unitary_invariance_all_labels():
    # 100 fresh (state, U, V) triples
    rng = np.random.default_rng(23)
    for _ in range(100):
        st = random_state(3, 3, rng)
        base = all_invariants(st.coords)
        U = random_local_unitary(3, rng)
        V = random_local_unitary(3, rng)
        moved = all_invariants(apply_local(st, U, V, renormalize=False).coords)
        for k in base:
            assert rel(moved[k], base[k]) < 1e-10, k


def test_exact_multigrading():
    c = STATES[1].coords
    base = all_blocks(c.r, c.rbar, c.R)
    t, u, v = 1.7, 0.6, 2.3
    scaled = all_blocks(t * c.r, u * c.rbar, v * c.R)
    for k, (p, q, s) in GRADINGS.items():
        assert rel(scaled[k], t ** p * u ** q * v ** s * base[k]) < 1e-12, k


def test_disconnected_two_cycle_matches_k002():
    # the two-cycle trace of the embedded correlation tensor is 4 K002; its
    # square is the disconnected companion of the connected pure-R quartics
    c = STATES[2].coords
    T = _embedded(c.R)
    two_cycle = np.einsum('ipjq,jqip->', T, T)
    assert rel(two_cycle.real, 4.0 * all_invariants(c)["K002"]) < 1e-12
    assert abs(two_cycle.imag) <= 1e-12 * abs(two_cycle)


def test_pure_r_chain_relation():
    # measured linear relation among the single-bar-cycle chains; the
    # crossed pattern K004_x22 stays outside this relation and supplies the
    # fifth independent direction
    for st in STATES[:10]:
        v = all_invariants(st.coords)
        lhs = v["K004_32"]
        rhs = (v["K004_33"] - v["K004_24"] - v["K004_42"] + 2 * v["K004_22"]) / 4.0
        assert abs(lhs - rhs) < 1e-15


def test_product_state_pure_r_quartics_factor():
    # on product states the embedded chain patterns reduce to products of
    # single-system contractions of each factor's coordinate vector
    rng = np.random.default_rng(31)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rA = G @ G.conj().T
    rA /= np.trace(rA).real
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rB = G @ G.conj().T
    rB /= np.trace(rB).real
    st = BipartiteState.from_rho(np.kron(rA, rB), 3, 3)
    v = all_invariants(st.coords)

    a = rA - np.trace(rA) / 3 * np.eye(3)   # traceless parts
    b = rB - np.trace(rB) / 3 * np.eye(3)
    # the embedded tensor factorizes as a (x) b, so each chain becomes a
    # product of a plain-side and a bar-side trace word
    tr = lambda m, k: np.trace(np.linalg.matrix_power(m, k)).real
    assert rel(v["K004_42"], tr(a, 4) * tr(b, 4)) < 1e-9
    assert rel(v["K004_22"], tr(a, 2) ** 2 * tr(b, 4)) < 1e-9
    assert rel(v["K004_x22"], tr(a, 4) * tr(b, 2) ** 2) < 1e-9


def test_grading_ranks_match_counts():
    groups = {
        (1, 0, 3): (["K103", "K103p"], 2),
        (0, 1, 3): (["K013", "K013p"], 2),
        (2, 0, 2): (["K202a", "K202b"], 2),
        (0, 2, 2): (["K022a", "K022b"], 2),
        (1, 1, 2): (["K112d", "K112f"], 2),
        (1, 2, 1): (["K121"], 1),
        (2, 1, 1): (["K211"], 1),
        (0, 0, 4): (["K004_33", "K004_24", "K004_42", "K004_22", "K004_x22"], 5),
    }
    for grading, (labels, expected) in groups.items():
        rep = independence_test(STATES, labels, jacobian_points=0)
        assert rep["value_rank"] == expected, grading


def test_quadratic_cubic_jacobian_rank():
    labels = [l for l in LOW_DEGREE_LABELS if l != "K000"]
    rep = independence_test(STATES, labels, jacobian_points=2)
    assert rep["jacobian_rank"] == 10


def test_constant_invariant_adds_nothing_to_the_jacobian_rank():
    # K000 is the constant 1: its stencil row is rounding noise (norm about
    # 6e-16), which the rank counts as a zero row, not as a direction
    rep = independence_test(STATES, LOW_DEGREE_LABELS, jacobian_points=3)
    assert rep["jacobian_ranks"] == [10, 10, 10]
    assert independence_test(STATES, LABELS, jacobian_points=1)["jacobian_rank"] == 27


def test_quartic_jacobian_rank_17():
    rep = independence_test(STATES, QUARTIC_LABELS, jacobian_points=1)
    assert rep["value_rank"] == 17
    assert rep["jacobian_rank"] == 17


def test_duplicate_labels_leave_rank_unchanged():
    rep = independence_test(STATES, ["K200", "K020"], jacobian_points=0)
    rep2 = independence_test(STATES, ["K200", "K200", "K020"], jacobian_points=0)
    assert rep["value_rank"] == rep2["value_rank"] == 2


def test_sample_size_guard():
    with pytest.raises(ValueError):
        independence_test(STATES[:5], QUARTIC_LABELS)
    with pytest.raises(ValueError):
        independence_test(STATES, ["K_nonexistent"])


def test_independence_test_refuses_an_empty_label_list():
    with pytest.raises(ValueError, match="empty list"):
        independence_test(STATES, [])


def test_ranks_never_exceed_combinatorial_counts():
    from qutrit_invariants.counting import (
        GRADED_COLUMNS,
        count_graded_quartics,
        count_lu_mixed,
    )

    h2, h3 = count_lu_mixed(3, 2), count_lu_mixed(3, 3)
    connected_quadratics = h2 - 1    # drop the squared trace
    connected_cubics = h3 - h2       # drop trace times degree-2 invariants
    labels = [l for l in LOW_DEGREE_LABELS if l != "K000"]
    rep = independence_test(STATES, labels, jacobian_points=1)
    assert rep["jacobian_rank"] <= connected_quadratics + connected_cubics
    quartic_count = sum(count_graded_quartics(*g) for g in GRADED_COLUMNS)
    rep = independence_test(STATES, QUARTIC_LABELS, jacobian_points=0)
    assert rep["value_rank"] <= quartic_count


def test_stacked_blocks_match_per_state_loop():
    states = STATES[:30]
    ext = np.stack([st.coords.ext for st in states])
    stacked = all_blocks(ext[:, 1:, 0], ext[:, 0, 1:], ext[:, 1:, 1:])
    assert set(stacked) == set(GRADINGS)
    for i, st in enumerate(states):
        single = all_invariants(st.coords)
        for k, v in single.items():
            assert stacked[k].shape == (30,)
            assert rel(stacked[k][i], v) < 1e-12, k


def _stack_coords(batch):
    """Coordinates of the first states as a stack of this shape, or of the
    first state alone for the empty shape."""
    if not batch:
        return STATES[0].coords
    return StateCoords(3, 3, np.stack([st.coords.ext for st in STATES[:batch[0]]]))


# One label of each grading, the rank checks' two label sets and all 29.
LABEL_SETS = {
    "one_per_grading": [next(l for l in LABELS if GRADINGS[l] == g)
                        for g in dict.fromkeys(GRADINGS.values())],
    "quartic": QUARTIC_LABELS,
    "low_degree": [l for l in LOW_DEGREE_LABELS if l != "K000"],
    "all": list(LABELS),
}


@pytest.mark.parametrize("labels", LABEL_SETS.values(), ids=LABEL_SETS.keys())
@pytest.mark.parametrize("batch", [(), (1,), (32,)], ids=str)
def test_label_values_bit_equal_the_columns_of_all_blocks(batch, labels):
    # a table of only the asked labels runs the same products as the full
    # table, on the same contiguous copies of the blocks
    c = _stack_coords(batch)
    full = all_blocks(*(np.ascontiguousarray(b) for b in (c.r, c.rbar, c.R)))
    got = _label_values(labels, c)
    assert got.shape == batch + (len(labels),)
    assert np.array_equal(got, np.stack([full[l] for l in labels], axis=-1))


@pytest.mark.parametrize("batch", [(), (1,), (32,)], ids=str)
def test_each_block_function_runs_one_program(batch, monkeypatch):
    # each block function runs its labels as one compiled program, in
    # which a step that several labels share runs once
    programs = []

    def recorded(terms, **operands):
        shapes = tuple(v.shape for v in operands.values())
        programs.append(len(contract_module._table(terms, shapes, tuple(operands))[0]))
        return contract_module.contract_all(terms, **operands)

    monkeypatch.setattr(lu_invariants, "contract_all", recorded)
    c = _stack_coords(batch)
    for fn, steps in ((all_blocks, 75), (lu_invariants.low_degree_blocks, 25),
                      (lu_invariants.quartic_blocks, 56)):
        programs.clear()
        fn(c.r, c.rbar, c.R)
        assert programs == [steps], fn.__name__


def test_all_blocks_drops_each_shared_product_after_its_last_use():
    # K003f's f.R product, which K013p reuses, is made just before K013p:
    # held through the quartic rows between them, it raised the traced peak
    # of one warm call on 32 states from about 535 kB to 665 kB
    c = _stack_coords((32,))
    blocks = (c.r, c.rbar, c.R)
    all_blocks(*blocks)  # compiles the program
    tracemalloc.start()
    try:
        all_blocks(*blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 560_000, f"peak {peak / 1e3:.0f} kB"


def test_single_state_values_are_floats():
    vals = all_invariants(STATES[3].coords)
    assert all(type(v) is float for v in vals.values())


def test_poly_jacobian_exact_on_batched_polynomial():
    # 20 coordinates at degree 4: 80 stencil points, more than one block
    a = np.linspace(-1.0, 1.0, 20)

    def fn(x):
        return np.stack([np.sum(x * x, axis=-1),
                         x[:, 0] * x[:, 1] * x[:, 2] * x[:, 3],
                         (x @ a) ** 3], axis=-1)

    x0 = np.random.default_rng(9).standard_normal(20)
    expected = np.zeros((3, 20))
    expected[0] = 2 * x0
    expected[1, :4] = [x0[1] * x0[2] * x0[3], x0[0] * x0[2] * x0[3],
                       x0[0] * x0[1] * x0[3], x0[0] * x0[1] * x0[2]]
    expected[2] = 3 * (x0 @ a) ** 2 * a
    jac = poly_jacobian(fn, x0, 4, np.eye(20))
    assert np.abs(jac - expected).max() < 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("degree", [0, 9])
def test_poly_jacobian_rejects_unsupported_degree(degree):
    with pytest.raises(ValueError, match="between 1 and 8"):
        poly_jacobian(lambda x: x, np.zeros(3), degree, np.eye(3))


def test_independence_test_block_calls_do_not_grow_with_labels(monkeypatch):
    calls = {}

    def counted(name):
        fn = getattr(lu_invariants, name)

        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(lu_invariants, "_blocks", counted("_blocks"))
    for labels in (QUARTIC_LABELS[:2], QUARTIC_LABELS):
        calls.clear()
        independence_test(STATES, labels, jacobian_points=1)
        # one call for the values matrix and one per stencil block of 4
        # points along each of the len(labels) + OVERSAMPLE sketch
        # directions: every block evaluates all labels at once
        m = len(labels) + OVERSAMPLE
        assert calls == {"_blocks": 1 + math.ceil(4 * m / STACK)}, labels


def test_independence_test_sketch_finds_the_k004_32_relation():
    # the sketched Jacobian of all eighteen connected quartics still has
    # rank 17: the dependent K004_32 adds no direction
    rep = independence_test(STATES, ALL_QUARTIC_LABELS, jacobian_points=2)
    assert rep["jacobian_ranks"] == [17, 17]


@pytest.mark.parametrize("points", [-1, -24])
def test_independence_test_rejects_negative_jacobian_points(points):
    with pytest.raises(ValueError, match="jacobian_points must be at least 0"):
        independence_test(STATES, QUARTIC_LABELS, jacobian_points=points)


@pytest.mark.parametrize("points", [16, 40])
def test_independence_test_refuses_more_jacobian_points_than_states(points):
    # 15 states gave 15 Jacobian ranks for any larger count
    with pytest.raises(ValueError, match="jacobian_points must be at most the 15 states"):
        independence_test(STATES[:15], ["K200", "K020"], jacobian_points=points)
    rep = independence_test(STATES[:15], ["K200", "K020"], jacobian_points=15)
    assert len(rep["jacobian_ranks"]) == 15


# The hand-written gradings that the labels now carry, kept as the reference
# for the derived tables.
HAND_WRITTEN_GRADINGS = {
    "K000": (0, 0, 0),
    "K200": (2, 0, 0), "K020": (0, 2, 0), "K002": (0, 0, 2),
    "K300": (3, 0, 0), "K030": (0, 3, 0), "K111": (1, 1, 1),
    "K102": (1, 0, 2), "K012": (0, 1, 2),
    "K003d": (0, 0, 3),
    "K103": (1, 0, 3), "K103p": (1, 0, 3),
    "K013": (0, 1, 3), "K003f": (0, 0, 3), "K013p": (0, 1, 3),
    "K202a": (2, 0, 2), "K202b": (2, 0, 2),
    "K022a": (0, 2, 2), "K022b": (0, 2, 2),
    "K112d": (1, 1, 2), "K112f": (1, 1, 2),
    "K121": (1, 2, 1), "K211": (2, 1, 1),
    "K004_33": (0, 0, 4), "K004_24": (0, 0, 4), "K004_42": (0, 0, 4),
    "K004_22": (0, 0, 4), "K004_32": (0, 0, 4), "K004_x22": (0, 0, 4),
}


def test_label_tables_are_derived_from_the_labels():
    assert list(GRADINGS.items()) == list(HAND_WRITTEN_GRADINGS.items())
    assert LOW_DEGREE_LABELS == ["K000", "K200", "K020", "K002", "K300", "K030",
                                 "K111", "K102", "K012", "K003d", "K003f"]
    assert QUARTIC_LABELS == ["K103", "K103p", "K013", "K013p", "K202a", "K202b",
                              "K022a", "K022b", "K112d", "K112f", "K121", "K211",
                              "K004_33", "K004_24", "K004_42", "K004_22", "K004_x22"]
    assert set(ALL_QUARTIC_LABELS) == set(QUARTIC_LABELS) | {"K004_32"}
