"""The compiled contraction plans of ``contract`` against ``np.einsum``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_invariants
from qutrit_invariants import contract as contract_module
from qutrit_invariants import lu_invariants, states
from qutrit_invariants.contract import contract, contract_all

SOURCES = sorted(Path(qutrit_invariants.__file__).parent.glob("*.py"))
# every subscript string written in the package
SPECS = sorted({spec for path in SOURCES
                for spec in re.findall(r"'([A-Za-z.,]+->[A-Za-z.]*)'", path.read_text())})
SIZES = (2, 3, 4)


def operands(spec, batch, rng, complex_batched=False, sizes=SIZES):
    """Random operands of ``spec``: batched terms get ``batch`` in front, and
    each index gets one of ``sizes`` by its letter."""
    ops = []
    for term in spec.split("->")[0].split(","):
        shape = tuple(sizes[ord(c) % 3] for c in term.lstrip("."))
        if term.startswith("..."):
            shape = batch + shape
        x = rng.standard_normal(shape)
        if complex_batched and term.startswith("..."):
            x = x + 1j * rng.standard_normal(shape)
        ops.append(x)
    return ops


def assert_matches_einsum(spec, ops):
    got = contract(spec, *ops)
    want = np.einsum(spec, *ops, optimize=False)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max(initial=0)))


def test_specs_are_found():
    assert len(SPECS) >= 40
    assert "...ipjq,...kqlr,...jris,...lskp->..." in SPECS


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("batch", [(), (64,), (0,), (3, 5)], ids=["one", "64", "empty", "3x5"])
def test_plan_matches_einsum(spec, batch):
    rng = np.random.default_rng(SPECS.index(spec))
    assert_matches_einsum(spec, operands(spec, batch, rng))


@pytest.mark.parametrize("spec", SPECS)
def test_plan_matches_einsum_complex(spec):
    # complex batched operands against real structure tensors, as the
    # K004 chains and the coordinate maps use
    rng = np.random.default_rng(1)
    assert_matches_einsum(spec, operands(spec, (7,), rng, complex_batched=True))


def test_mixed_batched_and_unbatched_operands():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((8, 8, 8))
    r = rng.standard_normal((8,))          # a '...' term without batch axes
    R = rng.standard_normal((10, 8, 8))
    rbar = rng.standard_normal((10, 8))
    spec = 'abc,...a,...bd,...cd->...'
    assert_matches_einsum(spec, [d, r, R, R])
    assert_matches_einsum('...a,...ab,...b->...', [r, R, rbar])


def test_non_contiguous_views():
    rng = np.random.default_rng(3)
    ext = rng.standard_normal((16, 9, 9))
    r, rbar, R = ext[:, 1:, 0], ext[:, 0, 1:], ext[:, 1:, 1:]
    d = rng.standard_normal((8, 8, 8))
    assert not r.flags.c_contiguous
    assert_matches_einsum('abc,...a,...bd,...cd->...', [d, r, R, R])
    assert_matches_einsum('...a,...ab,...b->...', [r, R.swapaxes(-1, -2), rbar])
    assert_matches_einsum('abc,...ab,...dc,...d->...', [d, R @ R, R.swapaxes(-1, -2), r])


@pytest.mark.parametrize("spec", SPECS)
def test_bits_equal_einsum_along_the_same_order(spec):
    # the steps make numpy's own matrix products along the cached order,
    # batch 5 falling among the index sizes of the intermediates
    rng = np.random.default_rng(SPECS.index(spec))
    for sizes in [(2, 3, 4), (3, 8, 9)]:
        planned = operands(spec, (contract_module.PLAN_BATCH,), rng, sizes=sizes)
        path = np.einsum_path(spec, *planned, optimize=("greedy", sys.maxsize))[0]
        for batch in [(), (5,), (64,)]:
            for complex_batched in (False, True):
                ops = operands(spec, batch, rng, complex_batched, sizes)
                assert np.array_equal(contract(spec, *ops), np.einsum(spec, *ops, optimize=path))


def _einsum_path(spec, sizes):
    """numpy's greedy order of ``spec``, searched at the batch it is planned for."""
    planned = operands(spec, (contract_module.PLAN_BATCH,), np.random.default_rng(0), sizes=sizes)
    return np.einsum_path(spec, *planned, optimize=("greedy", sys.maxsize))[0]


def _thresholds(spec, sizes):
    """The index sizes that a one-sided batch is placed among."""
    ops = operands(spec, (), np.random.default_rng(0), sizes=sizes)
    steps, _ = contract_module._plan(spec, tuple(op.shape for op in ops))
    return {t for step in steps for t in step[-2] + step[-1]}


@pytest.mark.parametrize("spec", SPECS)
def test_bits_equal_einsum_around_the_batch_placements(spec):
    # one-sided batches just below, at and above every size they are placed
    # among, and the sizes around the planned batch
    rng = np.random.default_rng(SPECS.index(spec))
    sizes = (3, 8, 9)
    path = _einsum_path(spec, sizes)
    batches = {1, 2, 7, 8, 9, 63, 64, 65, 100}
    batches |= {n + d for n in _thresholds(spec, sizes) for d in (-1, 0, 1)}
    for n in sorted(batches):
        ops = operands(spec, (n,), rng, sizes=sizes)
        assert np.array_equal(contract(spec, *ops), np.einsum(spec, *ops, optimize=path)), n


@pytest.mark.parametrize("spec", [spec for spec in SPECS if "..." in spec])
def test_bits_equal_einsum_with_two_batch_axes(spec):
    # two leading batch axes: fused into the rows or columns of one operand
    # at a one-sided step, a stack of products at a two-sided one
    rng = np.random.default_rng(SPECS.index(spec))
    sizes = (3, 8, 9)
    path = _einsum_path(spec, sizes)
    for batch in [(3, 5), (8, 9), (1, 70)]:
        for complex_batched in (False, True):
            ops = operands(spec, batch, rng, complex_batched, sizes)
            assert np.array_equal(contract(spec, *ops), np.einsum(spec, *ops, optimize=path))


def test_specs_have_one_and_two_sided_steps():
    # the batched steps above include both kinds: a stack reshaped to
    # (..., l, k) against one, and a fused (rows, k) matrix
    kinds = set()
    for spec in SPECS:
        ops = operands(spec, (3, 5), np.random.default_rng(0))
        steps, _ = contract_module._compiled(spec, tuple(op.shape for op in ops))
        kinds |= {(len(sa) > 2, len(sb) > 2) for _, _, _, sa, _, sb, *_ in steps}
    assert {(True, True), (False, False)} <= kinds


def test_alternating_batch_sizes_compile_each_placement():
    # a placement compiled for one batch size is never run at another
    rng = np.random.default_rng(9)
    spec = 'abc,...a,...bd,...cd->...'
    sizes = (3, 8, 9)
    path = _einsum_path(spec, sizes)
    small, large = (operands(spec, (n,), rng, sizes=sizes) for n in (7, 65))
    first = [contract(spec, *ops) for ops in (small, large)]
    for _ in range(3):
        for ops, want in zip((small, large), first):
            got = contract(spec, *ops)
            assert np.array_equal(got, want)
            assert np.array_equal(got, np.einsum(spec, *ops, optimize=path))


def test_compiled_calls_are_bounded():
    # the compiled tables are the one cache of compiled calls; a one-term
    # call is the table of its subscript string
    assert contract_module._table.cache_info().maxsize == contract_module.COMPILED_CALLS
    assert not hasattr(contract_module._compiled, "cache_info")


# The six K004 chains of the invariant table, all over the embedded T.
CHAINS = tuple(row for row in lu_invariants._TERMS if row[0].startswith("K004"))

# A table over several named operands, its terms on strided or contiguous
# blocks: the second K200 repeats the first, and no other step is shared.
LOW_DEGREE_TABLE = (
    ("K200", '...a,...a->...', ("r", "r")),
    ("K002", '...ab,...ab->...', ("R", "R")),
    ("K111", '...a,...ab,...b->...', ("r", "R", "rbar")),
    ("K102", 'abc,...a,...bd,...cd->...', ("d", "r", "R", "R")),
    ("K003d", 'abc,xyz,...ax,...by,...cz->...', ("d", "d", "R", "R", "R")),
    ("K200 again", '...a,...a->...', ("r", "r")),
)


def _table_operands(batch, contiguous):
    """The embedded T and the blocks r, rbar, R of ``batch`` random states,
    as the ext views or as contiguous copies."""
    ext = states.random_state(3, 3, np.random.default_rng(batch), size=batch).coords.ext
    blocks = {"r": ext[:, 1:, 0], "rbar": ext[:, 0, 1:], "R": ext[:, 1:, 1:]}
    if contiguous:
        blocks = {k: np.ascontiguousarray(v) for k, v in blocks.items()}
    d = np.random.default_rng(0).random((8, 8, 8))
    return {"T": lu_invariants._embedded(blocks["R"]), "d": d, **blocks}


@pytest.mark.parametrize("contiguous", [True, False], ids=["copies", "ext_views"])
@pytest.mark.parametrize("batch", [0, 1, 15, 32, 64])
def test_table_terms_bit_equal_contract_and_einsum(batch, contiguous):
    # einsum is compared on the contiguous copies only: on the ext views at
    # a batch of one, contract's last product (a strided r against a row)
    # already rounds differently from np.einsum, table or not
    ops = _table_operands(batch, contiguous)
    if batch and not contiguous:
        assert not ops["r"].flags.c_contiguous
    for table, sizes in ((CHAINS, (3, 3, 3)), (LOW_DEGREE_TABLE, (8, 8, 8))):
        names = {n for _, _, term in table for n in term}
        got = contract_all(table, **{n: ops[n] for n in sorted(names)})
        assert list(got) == [label for label, _, _ in table]
        for label, spec, term in table:
            args = [ops[n] for n in term]
            assert got[label].dtype == contract(spec, *args).dtype
            assert np.array_equal(got[label], contract(spec, *args)), label
            if contiguous:
                want = np.einsum(spec, *args, optimize=_einsum_path(spec, sizes))
                assert np.array_equal(got[label], want), label


def test_table_terms_bit_equal_contract_with_two_batch_axes():
    ops = _table_operands(15, False)
    R = np.stack([ops["R"], ops["R"][::-1]])
    T = lu_invariants._embedded(R)
    got = contract_all(CHAINS, T=T)
    for label, spec, _ in CHAINS:
        assert np.array_equal(got[label], contract(spec, T, T, T, T)), label


def test_chain_table_shares_its_pair_products():
    # the six K004 chains compile to 18 steps, 12 of them pair products of
    # T with T; the table keeps the 5 distinct ones and the 6 final products
    for batch in [(), (1,), (32,)]:
        shapes = (batch + (3, 3, 3, 3),)
        per_term = sum(len(contract_module._compiled(spec, shapes * 4)[0])
                       for _, spec, _ in CHAINS)
        steps, outputs = contract_module._table(CHAINS, shapes, ("T",))
        assert (per_term, len(steps)) == (18, 11)
        assert sum(step[:2] == (0, 0) for step in steps) == 5
        assert len({r for r, _ in outputs}) == 6


def test_table_drops_each_intermediate_at_its_last_use():
    # a register is dropped at the step that last reads it, unless it is an
    # operand or a term's result; a result that a later term reads is kept
    table = LOW_DEGREE_TABLE + (("K200 K002", '...a,...a,...bc,...bc->...', ("r", "r", "R", "R")),)
    names = ("r", "rbar", "R", "d")
    ops = _table_operands(5, True)
    steps, outputs = contract_module._table(table, tuple(ops[n].shape for n in names), names)
    results = {r for r, _ in outputs}
    last = {r: n for n, step in enumerate(steps) for r in step[:2]}
    for n, step in enumerate(steps):
        assert set(step[-1]) == {r for r in step[:2] if r >= len(names) and r not in results
                                 and last[r] == n}
    assert results & set(last), "no result is read by a later step"
    got = contract_all(table, **{n: ops[n] for n in names})
    for label, spec, term in table:
        assert np.array_equal(got[label], contract(spec, *(ops[n] for n in term))), label


def test_one_path_search_per_spec_and_shapes(monkeypatch):
    calls = []
    einsum_path = np.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum_path(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counting)
    contract_module._plan.cache_clear()
    contract_module._table.cache_clear()
    spec = 'abc,...a,...b,...C,...cC->...'
    rng = np.random.default_rng(5)
    d = rng.standard_normal((6, 7, 5))
    x, y, z = (rng.standard_normal((200, n)) for n in (6, 7, 9))
    R = rng.standard_normal((200, 5, 9))
    contract(spec, d, x[:64], y[:64], z[:64], R[:64])
    assert calls == [spec]
    contract(spec, d, x[:64], y[:64], z[:64], R[:64])
    assert calls == [spec]
    # a new batch size, or none, reuses the plan
    for n in (1, 3, 200):
        contract(spec, d, x[:n], y[:n], z[:n], R[:n])
    contract(spec, d, x[0], y[0], z[0], R[0])
    assert calls == [spec]


@pytest.mark.parametrize("spec", [
    'aab,b->a',          # repeated index inside one term
    'ab,bc->a',          # index of one term summed away
    'ab,bc,bd->acd',     # index shared by three terms
    '...ab,ab->',        # batch axes summed away
    '...ab->...ab',      # one operand
])
def test_unsupported_specs_raise(spec):
    rng = np.random.default_rng(6)
    ops = operands(spec, (4,), rng)
    with pytest.raises(ValueError, match="does not support"):
        contract(spec, *ops)


def _calls(name):
    """(module, enclosing function) of every call of an attribute ``name``
    (``np.<name>(...)``) in the package sources."""
    found = []
    for path in SOURCES:
        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name):
                found.append((path.stem, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)
        visit(ast.parse(path.read_text()), None)
    return found


def test_one_contraction_layer():
    # every contraction goes through contract; the independent reference
    # that the tests compare C6 against lives in tests/
    assert [c for c in _calls("einsum") if c[0] != "contract"] == []
    assert _calls("tensordot") == [] and _calls("moveaxis") == []


# Minor page faults per warm call of a stacked kernel, counted in a fresh
# interpreter: stacks of 64 (x 3) matrices faulted 788 pages per cubic call
# and about 200-500 per quartic certificate; slices of STACK fault none.
FAULTS_PER_CALL = """
import resource, sys
import numpy as np
from qutrit_invariants import lsl_qutrit, lu_invariants, states

rng = np.random.default_rng(3)
if sys.argv[1] == "cubic":
    ext = states.random_state(3, 3, rng, size=192).coords.ext.reshape(64, 3, 9, 9)
    call = lambda: lsl_qutrit.cubic_invariant(ext)
else:
    qutrits = [states.random_state(3, 3, rng) for _ in range(22)]
    call = lambda: lu_invariants.independence_test(qutrits, lu_invariants.QUARTIC_LABELS,
                                                    jacobian_points=1)
for _ in range(3):
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the fault counts are those of glibc malloc on Linux")
@pytest.mark.parametrize("kernel", ["cubic", "quartic"])
def test_stacked_kernels_fault_no_fresh_pages_when_warm(kernel):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL, kernel], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert float(out) <= 50, f"{float(out)} minor faults per warm {kernel} call"
