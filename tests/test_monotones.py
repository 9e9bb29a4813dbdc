import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest

from qutrit_invariants import monotones, qubit
from qutrit_invariants.monotones import (
    MONOTONE_FUNCTIONALS,
    SINGULAR_EPS,
    TRIAL_BLOCK,
    _margins,
    _run_block,
    apply_measurement,
    assemble_measurement,
    concavity_trial,
    control_margins,
    monotone_functional,
    run_trials,
    sample_measurement,
    scalar_inequality_scan,
    wrong_exponent_counterexample,
)
from qutrit_invariants.qubit import q_invariants
from qutrit_invariants.states import BipartiteState, ginibre, random_state, special_unitary


def test_completeness_by_construction():
    for dim in (2, 3):
        pairs = [sample_measurement(dim, seed) for seed in range(10)]
        for pair in pairs:
            assert pair.completeness_residual() < 1e-12
        stacked = assemble_measurement(*(np.stack([getattr(p, f) for p in pairs])
                                         for f in ("U1", "U2", "V", "singular_values")))
        assert stacked.E1.shape == (10, dim, dim)
        assert stacked.completeness_residual() < 1e-12


def test_decomposition_reconstructs():
    pair = sample_measurement(3, 0)
    D1 = np.diag(pair.singular_values)
    D2 = np.diag(np.sqrt(1 - pair.singular_values ** 2))
    assert np.abs(pair.U1 @ D1 @ pair.V - pair.E1).max() < 1e-14
    assert np.abs(pair.U2 @ D2 @ pair.V - pair.E2).max() < 1e-14


def test_deterministic_replay():
    p1, p2 = sample_measurement(3, 77), sample_measurement(3, 77)
    assert np.array_equal(p1.E1, p2.E1) and np.array_equal(p1.E2, p2.E2)


def test_symmetric_point_probabilities():
    # equal singular values 1/sqrt(2) split the maximally mixed state evenly
    inv_sq2 = 1.0 / np.sqrt(2.0)
    pair = assemble_measurement(np.eye(3), np.eye(3), np.eye(3),
                                np.array([inv_sq2] * 3))
    mm = BipartiteState.from_rho(np.eye(9) / 9, 3, 3)
    (pa, _), (pb, _) = apply_measurement(mm, pair, "A")
    assert abs(pa - 0.5) < 1e-12 and abs(pb - 0.5) < 1e-12


def test_probabilities_sum_to_one_and_states_physical():
    rng = np.random.default_rng(5)
    st = random_state(3, 3, rng)
    pair = sample_measurement(3, rng)
    branches = apply_measurement(st, pair, "A")
    assert abs(sum(p for p, _ in branches) - 1.0) < 1e-12
    for p, branch in branches:
        eigs = np.linalg.eigvalsh(branch.rho)
        assert eigs.min() > -1e-12
        assert abs(np.trace(branch.rho).real - 1) < 1e-12


def test_maximally_mixed_branch_probabilities():
    mm = BipartiteState.from_rho(np.eye(9) / 9, 3, 3)
    pair = sample_measurement(3, 3)
    (p1, _), (p2, _) = apply_measurement(mm, pair, "A")
    assert abs(p1 - np.trace(pair.E1.conj().T @ pair.E1).real / 3) < 1e-12
    assert abs(p2 - np.trace(pair.E2.conj().T @ pair.E2).real / 3) < 1e-12


def test_identity_measurement_limit():
    ident = assemble_measurement(np.eye(3), np.eye(3), np.eye(3),
                                 np.array([1.0, 1.0, 1.0]))
    st = random_state(3, 3, 9)
    (p1, s1), (p2, s2) = apply_measurement(st, ident, "A")
    assert abs(p1 - 1.0) < 1e-12
    assert np.abs(s1.rho - st.rho).max() < 1e-12
    assert p2 < 1e-14 and s2 is None
    _, fn = monotone_functional("C3")
    margin, reason = concavity_trial(st, ident, fn)
    assert margin is None and "degenerate" in reason


def test_unitary_pair_branches_equivalent():
    # both operators proportional to the same unitary reproduce the state
    U = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3))
                     + 1j * np.random.default_rng(1).standard_normal((3, 3)))[0]
    inv_sq2 = 1.0 / np.sqrt(2.0)
    pair = assemble_measurement(U, U, np.eye(3), np.array([inv_sq2] * 3))
    st = random_state(3, 3, 10)
    for p, branch in apply_measurement(st, pair, "A"):
        assert abs(p - 0.5) < 1e-12
        ev1 = np.sort(np.linalg.eigvalsh(branch.rho))
        ev2 = np.sort(np.linalg.eigvalsh(st.rho))
        assert np.abs(ev1 - ev2).max() < 1e-12


def test_monotone_trials_qutrit():
    rep = run_trials("C3", 300, seed=123)
    assert rep["min_margin"] >= -1e-9
    assert not rep["violations"]
    rep6 = run_trials("C6", 150, seed=124)
    assert rep6["min_margin"] >= -1e-9


def test_monotone_trials_qubit():
    for name in ("Q2", "Q4", "Q4t", "Q6"):
        rep = run_trials(name, 150, seed=7)
        assert rep["min_margin"] >= -1e-9, name
        assert not rep["violations"]


def test_trials_reproducible_and_worker_independent():
    a = run_trials("C3", 60, seed=5)
    b = run_trials("C3", 60, seed=5)
    assert a == b
    c = run_trials("C3", 60, seed=5, workers=2)
    assert a == c
    # three blocks, the last one partly filled, shared out between processes
    ref = run_trials("C3", 150, seed=5)
    for workers in (2, 3):
        assert run_trials("C3", 150, seed=5, workers=workers) == ref


@pytest.mark.parametrize("trials", [1, 64, 65, 129, 400])
@pytest.mark.parametrize("name", ["C3", "Q4t"])
def test_trials_shared_between_processes_match_one_worker(name, trials):
    # 1 and 64 trials start no child, at 65 a child takes one short block,
    # and 129 and 400 trials split unevenly
    ref = run_trials(name, trials, seed=11)
    for workers in (2, 3):
        assert run_trials(name, trials, seed=11, workers=workers) == ref
    assert multiprocessing.active_children() == []


# A patched block kernel reaches the children only when they are forked.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="children do not inherit the patched kernel")


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 60 s instead of hanging the suite,
    and stop the children it leaves, which the interpreter would wait for."""
    def expire(signum, frame):
        # not TimeoutError: an OSError inside os.waitpid is swallowed by join
        pytest.fail("run_trials did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for child in multiprocessing.active_children():
            child.kill()
            child.join()


def _patch_blocks(monkeypatch, in_child):
    """Replace the block kernel with ``in_child(job)`` for every block but the
    first, which the calling process computes."""
    run_block = monotones._run_block
    monkeypatch.setattr(monotones, "_run_block", lambda job: run_block(job)
                        if job[2] < TRIAL_BLOCK else in_child(job))


@needs_fork
def test_child_block_error_is_raised_in_the_parent(monkeypatch, deadline):
    def fail(job):
        raise ZeroDivisionError(f"block at {job[2]}")

    _patch_blocks(monkeypatch, fail)
    with pytest.raises(ZeroDivisionError, match="block at 64"):
        run_trials("C3", 2 * TRIAL_BLOCK, seed=1, workers=2)
    assert multiprocessing.active_children() == []


@needs_fork
def test_child_that_exits_without_sending_is_an_error(monkeypatch, deadline):
    _patch_blocks(monkeypatch, lambda job: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_trials("Q4t", 3 * TRIAL_BLOCK, seed=1, workers=3)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_child_blocked_on_a_full_pipe_neither_hangs_nor_outlives_the_run(monkeypatch, deadline):
    # 800 kB of margins fill the pipe before the parent reads them
    _patch_blocks(monkeypatch, lambda job: np.zeros(10 ** 5))
    assert run_trials("C3", 2 * TRIAL_BLOCK, seed=1, workers=2)["min_margin"] is not None
    assert multiprocessing.active_children() == []

    # and when the parent's own share fails, the child's result is never read
    def interrupted(job):
        if job[2] < TRIAL_BLOCK:
            raise KeyboardInterrupt
        return np.zeros(10 ** 5)

    monkeypatch.setattr(monotones, "_run_block", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_trials("C3", 2 * TRIAL_BLOCK, seed=1, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", sorted(MONOTONE_FUNCTIONALS))
def test_block_margins_match_per_trial_concavity(name):
    dim, fn = monotone_functional(name)
    seed, start, stop = 17, 5, 45
    block = _run_block((name, seed, start, stop))
    assert block.shape == (stop - start,)
    for k, i in enumerate(range(start, stop)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        state = random_state(dim, dim, rng)
        pair = sample_measurement(dim, rng)
        side = "A" if rng.uniform() < 0.5 else "B"
        margin, _ = concavity_trial(state, pair, fn, side)
        assert abs(block[k] - margin) <= 1e-12, (name, i)


@pytest.mark.parametrize("name", sorted(MONOTONE_FUNCTIONALS))
def test_block_draws_are_the_per_trial_draws(name, monkeypatch):
    # a full block, and the partial final block of 400 trials at two seeds:
    # the block draws, for each trial, bit for bit what random_state,
    # sample_measurement and the side choice draw from the trial's own
    # generator
    dim, _ = monotone_functional(name)
    seen = {}

    def capture(state, pair, on_a, functional):
        seen.update(state=state, pair=pair, on_a=on_a)
        return np.zeros(len(on_a))

    monkeypatch.setattr(monotones, "_margins", capture)
    for seed, start, stop in [(9, 64, 128), (9, 384, 400), (2 ** 63, 384, 400)]:
        _run_block((name, seed, start, stop))
        assert len(seen["on_a"]) == stop - start
        for k, i in enumerate(range(start, stop)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            state = random_state(dim, dim, rng)
            pair = sample_measurement(dim, rng)
            assert seen["on_a"][k] == (rng.uniform() < 0.5)
            assert seen["state"].rho[k].tobytes() == state.rho.tobytes(), (seed, i)
            for field in ("U1", "U2", "V", "singular_values", "E1", "E2"):
                assert (getattr(seen["pair"], field)[k].tobytes()
                        == getattr(pair, field).tobytes()), (seed, i, field)


@pytest.mark.parametrize("dim", [2, 3])
def test_sample_measurement_draws_uniform_singular_values(dim):
    # the unitaries' Gaussian matrices, then the singular values as
    # uniform(SINGULAR_EPS, 1 - SINGULAR_EPS) draws them
    for seed in range(20):
        rng = np.random.default_rng(seed)
        U = special_unitary(ginibre(rng, dim, size=3))
        sv = rng.uniform(SINGULAR_EPS, 1.0 - SINGULAR_EPS, size=dim)
        pair = sample_measurement(dim, seed)
        assert pair.singular_values.tobytes() == sv.tobytes()
        assert pair.U1.tobytes() == U[0].tobytes() and pair.V.tobytes() == U[2].tobytes()


QUBIT_ROOTS = {"Q2": 2, "Q4": 4, "Q4t": 4, "Q6": 6}


@pytest.mark.parametrize("name", sorted(QUBIT_ROOTS))
def test_qubit_functionals_are_the_q_invariants_roots(name):
    _, fn = monotone_functional(name)
    stack = random_state(2, 2, 31, size=64).coords.ext
    for ext in (stack, stack[17]):
        ref = np.abs(q_invariants(ext)[name]) ** (1.0 / QUBIT_ROOTS[name])
        assert np.asarray(fn(ext)).tobytes() == np.asarray(ref).tobytes()


def test_qubit_functionals_evaluate_only_their_own_invariant(monkeypatch):
    # no functional goes through q_invariants or the epsilon contraction
    def refuse(*args, **kwargs):
        raise AssertionError("a value the functional does not need was computed")

    monkeypatch.setattr(qubit, "q_invariants", refuse)
    monkeypatch.setattr(qubit, "contract", refuse)
    ext = random_state(2, 2, 8, size=3).coords.ext
    for name in QUBIT_ROOTS:
        assert monotone_functional(name)[1](ext).shape == (3,)


def test_block_kernel_skips_degenerate_pair():
    # the first operator annihilates |0>, so measuring |00><00| on side A
    # has a zero-probability branch; the maximally mixed state has none
    product = np.zeros((9, 9), dtype=complex)
    product[0, 0] = 1.0
    states = BipartiteState.from_rho(np.stack([product, np.eye(9) / 9]), 3, 3)
    eye = np.stack([np.eye(3)] * 2)
    pairs = assemble_measurement(eye, eye, eye, np.array([[0.0, 1.0, 1.0]] * 2))
    _, fn = monotone_functional("C3")
    margins = _margins(states, pairs, np.array([True, True]), fn)
    assert np.isnan(margins[0]) and np.isfinite(margins[1])
    single = assemble_measurement(np.eye(3), np.eye(3), np.eye(3),
                                  np.array([0.0, 1.0, 1.0]))
    assert concavity_trial(states[0], single, fn, "A")[0] is None
    assert abs(concavity_trial(states[1], single, fn, "A")[0] - margins[1]) < 1e-15


def test_run_trials_rejects_vacuous_arguments():
    with pytest.raises(ValueError):
        run_trials("C3", 0, seed=1)
    with pytest.raises(ValueError):
        run_trials("C3", 10, seed=1, workers=0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: run_trials("C3", 3, 0, tol=float("nan")), id="tol-nan"),
    pytest.param(lambda: run_trials("C3", 3, 0, tol=float("inf")), id="tol-inf"),
    pytest.param(lambda: run_trials("C3", 3, 0, tol=-1e-9), id="tol-negative"),
    pytest.param(lambda: run_trials("C3", 3, 0, tol=True), id="tol-bool"),
    pytest.param(lambda: run_trials("C3", 3, 0, tol=None), id="tol-none"),
    pytest.param(lambda: run_trials("C3", 3, 0, tol="1e-9"), id="tol-string"),
    pytest.param(lambda: run_trials("C3", True, 0), id="trials-bool"),
    pytest.param(lambda: run_trials("C3", 3.0, 0), id="trials-float"),
    pytest.param(lambda: run_trials("C3", 2 * TRIAL_BLOCK, 0, workers=1.5), id="workers-float"),
    pytest.param(lambda: run_trials("C3", 3, 0, workers=True), id="workers-bool"),
    pytest.param(lambda: scalar_inequality_scan(10.5), id="resolution-float"),
    pytest.param(lambda: scalar_inequality_scan(10, samples=2.5), id="samples-float"),
    pytest.param(lambda: scalar_inequality_scan(10, samples=True), id="samples-bool"),
])
def test_sweeps_refuse_arguments_that_are_no_count_or_tolerance(call):
    with pytest.raises(ValueError):
        call()


def test_wrong_exponent_control_violates():
    control = wrong_exponent_counterexample()
    assert control["raw_margin"] < -1e-9
    assert control["proper_margin"] >= -1e-9


def test_control_margins_are_computed_once():
    control = wrong_exponent_counterexample()
    assert control_margins() == (control["raw_margin"], control["proper_margin"])
    hits = control_margins.cache_info().hits
    control_margins()
    assert control_margins.cache_info().hits == hits + 1


def test_cubic_monotone_is_homogeneity_one():
    # |C3|^(1/3) scales linearly in the unnormalized coordinates, the
    # property the concavity argument requires
    from qutrit_invariants.lsl_qutrit import cubic_invariant

    st = random_state(3, 3, 21)
    ext = st.coords.ext
    f = abs(cubic_invariant(ext)) ** (1.0 / 3.0)
    for t in (0.3, 2.0, 17.0):
        ft = abs(cubic_invariant(t * ext)) ** (1.0 / 3.0)
        assert abs(ft - t * f) / (t * f) < 1e-13


def test_unknown_functional_rejected():
    with pytest.raises(ValueError):
        monotone_functional("nope")


def test_scalar_scan():
    scan = scalar_inequality_scan(40, samples=20_000, seed=2)
    assert scan["max_violation"] <= 1e-12
    assert scan["boundary_max_violation"] <= 1e-12
    assert scan["diagonal_equality_residual"] <= 1e-12


def _full_grid_scan(resolution, samples, seed):
    """The scan as one broadcast over the whole grid: the reference for the
    slice-by-slice, once-per-resolution form."""
    def lhs(a, b, c):
        return ((a * b * c) ** (2.0 / 3.0)
                + ((1 - a * a) * (1 - b * b) * (1 - c * c)) ** (1.0 / 3.0))

    ax = np.linspace(0.0, 1.0, resolution + 2)[1:-1]
    A, B, C = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    grid_max = float((lhs(A, B, C) - 1.0).max())
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0, 1, size=(3, samples))
    random_max = float((lhs(a, b, c) - 1.0).max())
    F1, F2 = np.meshgrid(ax, ax, indexing="ij", sparse=True)
    boundary_max = float(max((lhs(np.asarray(v), F1, F2) - 1.0).max() for v in (0.0, 1.0)))
    return {
        "resolution": resolution,
        "random_samples": samples,
        "seed": seed,
        "max_violation": max(grid_max, random_max),
        "boundary_max_violation": boundary_max,
        "diagonal_equality_residual": float(np.abs(lhs(ax, ax, ax) - 1.0).max()),
    }


@pytest.mark.parametrize("resolution", [10, 40, 100])
def test_scalar_scan_equals_the_full_grid(resolution):
    # 5,000 samples end in a partial slice; 100,000 are what the CLI draws
    for seed, samples in ((0, 5_000), (7, 5_000), (808, 100_000)):
        ref = _full_grid_scan(resolution, samples, seed)
        assert scalar_inequality_scan(resolution, samples=samples, seed=seed) == ref
    # the grid part is computed once per resolution, whatever the seed
    hits = monotones._grid_scan.cache_info().hits
    again = scalar_inequality_scan(resolution, samples=5_000, seed=3)
    assert monotones._grid_scan.cache_info().hits == hits + 1
    for key in ("resolution", "boundary_max_violation", "diagonal_equality_residual"):
        assert again[key] == ref[key]


def test_scalar_scan_memory_stays_small():
    # the full grid at 97 points per axis held about 21 MB of temporaries
    monotones._grid_scan.cache_clear()
    tracemalloc.start()
    try:
        scalar_inequality_scan(97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_scalar_scan_symmetric_saturation():
    inv_sq2 = 1.0 / np.sqrt(2.0)
    lhs = (inv_sq2 ** 3) ** (2.0 / 3.0) + ((1 - 0.5) ** 3) ** (1.0 / 3.0)
    assert abs(lhs - 1.0) < 1e-15


def test_scalar_scan_resolution_guard():
    with pytest.raises(ValueError):
        scalar_inequality_scan(5)


@pytest.mark.parametrize("samples", [0, -5])
def test_scalar_scan_samples_guard(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        scalar_inequality_scan(10, samples=samples)
