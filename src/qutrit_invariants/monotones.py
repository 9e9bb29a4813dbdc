"""Two-outcome local measurements and entanglement-monotone trials.

A measurement pair (E1, E2) with E1^dag E1 + E2^dag E2 = I is sampled
through singular value decompositions sharing the right unitary, which
makes completeness exact by construction.  For a functional F built as
|invariant|^(1/degree) the concavity margin F(rho) - p1 F(rho1') -
p2 F(rho2') must be nonnegative; trials are independently seeded per
index so runs are reproducible and order-independent.  Trials run in
blocks of consecutive indices: each trial still draws from its own
generator, and the linear algebra of the whole block runs on stacks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lsl_qutrit, qubit
from .checks import integer
from .states import (TRIAL_INDICES, BipartiteState, SeedWords, _rng, complex_matrices,
                     ginibre, hs_state, kron, special_unitary, trial_seed_words)
from .states import random_state  # noqa: F401  (the benchmark traces it here)

DEGENERATE_P = 1e-14
SINGULAR_EPS = 1e-3
MARGIN_TOL = 1e-9  # a trial whose margin is below -MARGIN_TOL violates concavity

# Trials per block: enough to amortize the per-call cost of the stacked
# linear algebra, few enough that memory does not grow with the trial
# count.  A block is also the unit of work shared out between processes,
# so what a block computes never depends on the number of workers.
TRIAL_BLOCK = 64
SCAN_SLICE = 4096  # random samples per cache-sized slice of the scalar scan


@dataclass(frozen=True)
class MeasurementPair:
    """Two measurement operators with their factors; every field may carry
    the same leading batch axes (a stack of pairs)."""

    E1: np.ndarray
    E2: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    V: np.ndarray
    singular_values: np.ndarray  # entries of the first diagonal factor

    def completeness_residual(self):
        """Largest deviation of E1^dag E1 + E2^dag E2 from the identity,
        over the whole stack."""
        total = sum(E.conj().swapaxes(-1, -2) @ E for E in (self.E1, self.E2))
        return float(np.abs(total - np.eye(self.E1.shape[-1])).max())


def _pair_from_draws(Z, u):
    """The pair of the normals Z of U1, U2 and V and of uniforms u in [0, 1),
    mapped as rng.uniform(SINGULAR_EPS, 1 - SINGULAR_EPS) maps them."""
    U = special_unitary(Z)
    sv = SINGULAR_EPS + ((1.0 - SINGULAR_EPS) - SINGULAR_EPS) * u
    return assemble_measurement(U[..., 0, :, :], U[..., 1, :, :], U[..., 2, :, :], sv)


def sample_measurement(dim, seed):
    """Random two-outcome pair; singular values stay SINGULAR_EPS away from
    0 and 1, so bulk trials keep both branch probabilities away from zero
    (the singular limits are exercised separately by explicit boundary cases)."""
    if integer(dim, "dim") not in (2, 3):
        raise ValueError("local dimension must be 2 or 3")
    rng = _rng(seed)
    return _pair_from_draws(ginibre(rng, dim, size=3), rng.random(dim))


def assemble_measurement(U1, U2, V, singular_values):
    """The pair U1 diag(s) V, U2 diag(sqrt(1 - s^2)) V; the arguments may
    carry the same leading batch axes.  Raises ``ValueError`` for a
    non-finite entry or a singular value outside [0, 1]."""
    sv = np.asarray(singular_values, dtype=float)
    if not np.isfinite(sv).all() or ((sv < 0) | (sv > 1)).any():
        raise ValueError(f"singular values must be finite and in [0, 1], got {sv}")
    if not all(np.isfinite(M).all() for M in (U1, U2, V)):
        raise ValueError("measurement factors U1, U2 and V must be finite")
    c = np.sqrt(1.0 - sv ** 2)
    return MeasurementPair((U1 * sv[..., None, :]) @ V, (U2 * c[..., None, :]) @ V,
                           U1, U2, V, sv)


def _branches(state, pair, on_a):
    """Both branches of measuring a state, or each state of a stack, on side
    A where ``on_a`` holds and on side B elsewhere.

    Returns the branch probabilities (..., 2), the mask of degenerate
    branches (probability below DEGENERATE_P) and the branch states as a
    (..., 2)-stacked state, each divided by its probability unless
    degenerate.  Raises ``ValueError`` unless the pair's dimension equals
    both local dimensions.
    """
    dim, dimA, dimB = pair.E1.shape[-1], state.dimA, state.dimB
    if dimA != dim or dimB != dim:
        raise ValueError(f"a measurement pair of dimension {dim} needs a state of local "
                         f"dimensions ({dim}, {dim}), got ({dimA}, {dimB})")
    # per trial, the factors of E (x) 1 on side A and of 1 (x) E on side B
    E = np.stack([pair.E1, pair.E2], axis=-3)
    on_a, eye = np.asarray(on_a)[..., None, None, None], np.eye(dim)
    ops = kron(np.where(on_a, E, eye), np.where(on_a, eye, E))
    out = ops @ state.rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2)
    del ops  # the largest temporary: freed before the branch states are built
    p = np.trace(out, axis1=-2, axis2=-1).real
    degenerate = p < DEGENERATE_P
    out /= np.where(degenerate, 1.0, p)[..., None, None]
    return p, degenerate, BipartiteState.from_rho(out, dimA, dimB)


def _on_a(side):
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    return side == "A"


def apply_measurement(state, pair, side="A"):
    """Both measurement branches: [(p1, state1), (p2, state2)].

    The operator acts on one subsystem only.  A branch with probability
    below 1e-14 is flagged degenerate by returning None for its state.
    """
    p, degenerate, branches = _branches(state, pair, _on_a(side))
    return [(float(p[k]), None if degenerate[k] else branches[k]) for k in range(2)]


def _margins(state, pair, on_a, functional):
    """Concavity margins of a state or a stack of states, NaN for a trial
    with a degenerate branch."""
    p, degenerate, branches = _branches(state, pair, on_a)
    ext = np.concatenate([state.coords.ext[..., None, :, :], branches.coords.ext],
                         axis=-3)
    F = functional(ext)
    margin = F[..., 0] - (p * F[..., 1:]).sum(axis=-1)
    return np.where(degenerate.any(axis=-1), np.nan, margin)


def concavity_trial(state, pair, functional, side="A"):
    """Margin F(rho) - sum_i p_i F(rho_i'); None with a reason when a
    branch is degenerate."""
    margin = float(_margins(state, pair, _on_a(side), functional))
    if np.isnan(margin):
        return None, "degenerate branch probability"
    return margin, None


# ---------------------------------------------------------------------------
# Monotone functionals |invariant|^(1/degree), as (local dimension, invariant,
# degree); the invariant maps coordinate matrices (..., d^2, d^2) to values.

MONOTONE_FUNCTIONALS = {
    "C3": (3, lambda ext: lsl_qutrit.cubic_invariant(ext), 3),
    "C6": (3, lambda ext: lsl_qutrit.sextic_invariant(ext), 6),
    # deliberate wrong-exponent control, no root: homogeneity 3 instead of 1
    "C3_raw": (3, lambda ext: lsl_qutrit.cubic_invariant(ext), None),
    "Q2": (2, lambda ext: qubit.trace_invariants(ext, [1])[0], 2),
    "Q4": (2, lambda ext: qubit.trace_invariants(ext, [2])[0], 4),
    "Q4t": (2, lambda ext: qubit.determinant_invariant(ext), 4),
    "Q6": (2, lambda ext: qubit.trace_invariants(ext, [3])[0], 6),
}


def monotone_functional(name):
    """(local dimension, functional) of a `MONOTONE_FUNCTIONALS` entry."""
    try:
        dim, invariant, degree = MONOTONE_FUNCTIONALS[name]
    except KeyError:
        raise ValueError(f"unknown functional {name!r}; "
                         f"choose from {sorted(MONOTONE_FUNCTIONALS)}") from None
    if degree is None:
        return dim, invariant
    return dim, lambda ext: np.abs(invariant(ext)) ** (1.0 / degree)


def monotone_roots(values):
    """The ``abs_<I>^(1/<degree>)`` entries of an invariants report: the root of
    each value of ``values``, a dict by name, that `MONOTONE_FUNCTIONALS` roots."""
    return {f"abs_{name}^(1/{degree})": abs(values[name]) ** (1.0 / degree)
            for name, (_, _, degree) in MONOTONE_FUNCTIONALS.items()
            if name in values and degree is not None}


def trial_blocks(trials):
    """(start, stop) of each block of consecutive trial indices, one at a
    time: memory does not grow with ``trials``."""
    for start in range(0, trials, TRIAL_BLOCK):
        yield start, min(start + TRIAL_BLOCK, trials)


def _run_block(args):
    """Margins of trials start..stop-1, NaN for a skipped trial."""
    name, seed, start, stop = args
    dim, functional = monotone_functional(name)
    D, n = dim * dim, stop - start
    normals = np.empty((n, 2 * D * D + 6 * dim * dim))
    u = np.empty((n, dim + 1))
    for k, words in enumerate(trial_seed_words(seed, start, stop)):
        # each trial's own draws in the order of random_state, sample_measurement
        # and the side choice: all the normals, then the uniforms; the trial's
        # generator is that of SeedSequence((seed, start + k)), from its words
        rng = np.random.Generator(np.random.PCG64(SeedWords(words)))
        rng.standard_normal(out=normals[k])
        rng.random(out=u[k])
    G = complex_matrices(normals[:, :2 * D * D].reshape(n, 2, D, D))
    Z = complex_matrices(normals[:, 2 * D * D:].reshape(n, 3, 2, dim, dim))
    return _margins(hs_state(G, dim, dim), _pair_from_draws(Z, u[:, :dim]),
                    u[:, dim] < 0.5, functional)


def _send_margins(jobs, conn):
    """Child process: send the margins of its blocks, or the exception that
    one of them raised, through ``conn``."""
    try:
        result = [_run_block(job) for job in jobs]
    except Exception as exc:  # the parent raises it again
        result = exc
    try:
        conn.send(result)
    finally:
        conn.close()


def _map_blocks(jobs, workers):
    """The margins of each job, in order.  Block k runs in process k mod
    ``workers``: the calling process computes share 0 itself and child w
    computes share w, for w = 1 .. workers-1.  Every child is joined before
    this returns or raises, terminated first if its result was not read."""
    shares = [jobs[w::workers] for w in range(workers)]
    children, ends, received = [], [], 0
    try:
        for share in shares[1:]:
            # imported here: loading multiprocessing costs every other process
            import multiprocessing
            recv, send = multiprocessing.Pipe(duplex=False)
            ends.append(recv)
            child = multiprocessing.Process(target=_send_margins, args=(share, send))
            try:
                child.start()
            finally:
                send.close()
            children.append(child)
        results = [[_run_block(job) for job in shares[0]]]
        for child, recv in zip(children, ends):
            try:
                result = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a trial worker process exited with code "
                                   f"{child.exitcode} before sending its margins") from None
            received += 1
            if isinstance(result, BaseException):
                raise result
            results.append(result)
    finally:
        for k, child in enumerate(children):
            if k >= received:
                child.terminate()
            child.join()
        for recv in ends:
            recv.close()
    return [results[k % workers][k // workers] for k in range(len(jobs))]


def run_trials(name, trials, seed, workers=1, tol=MARGIN_TOL):
    """Monte-Carlo concavity sweep; the report is a JSON-ready dict.

    Each trial derives its own generator from (seed, index), and trials run
    in whole blocks: with W workers the calling process takes every W-th
    block and W-1 child processes take the rest, so the result is identical
    for any worker count.  Violating trials are listed with their seeds for
    reproduction.
    """
    monotone_functional(name)
    trials, workers = integer(trials, "trials", 1), integer(workers, "workers", 1)
    if trials > TRIAL_INDICES:  # refused before the job list is built
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    seed = integer(seed, "seed", 0)
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol >= 0)):
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")
    jobs = [(name, seed, start, stop) for start, stop in trial_blocks(trials)]
    margins = np.concatenate(_map_blocks(jobs, min(workers, len(jobs))))
    skipped = np.isnan(margins)
    valid = margins[~skipped]
    violations = [
        {"trial": int(i), "seed": [seed, int(i)], "margin": float(margins[i])}
        for i in np.nonzero(margins < -tol)[0]
    ]
    return {
        "functional": name,
        "trials": trials,
        "seed": seed,
        "tolerance": tol,
        "skipped_degenerate": int(skipped.sum()),
        "min_margin": float(valid.min()) if valid.size else None,
        "violations": violations,
    }


def wrong_exponent_counterexample():
    """A deliberate control showing that the cube root in the cubic
    monotone is essential.

    The state is a weakly entangled perturbation of a pure product state,
    so its one-sided reduced state is concentrated on one basis direction;
    aligning the small singular value of the measurement with that
    direction makes the branch reweighting d_i^2 / p_i^2 exceed one, which
    the raw (homogeneity-3) cubic functional cannot absorb.  Returns the
    state, the measurement and both margins: the raw margin is negative,
    the properly scaled one is not.
    """
    dim = 3
    phi = np.zeros(9, dtype=complex)
    phi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)  # |00> + |11> + |22>
    entangled = np.outer(phi, phi.conj())
    product = np.zeros((9, 9), dtype=complex)
    product[0, 0] = 1.0
    eps = 0.05
    rho = (1 - eps) * product + eps * (entangled + np.eye(9) / 9.0) / 2.0
    state = BipartiteState.from_rho(rho, dim, dim)
    pair = assemble_measurement(np.eye(3), np.eye(3), np.eye(3),
                                np.array([0.45, 0.95, 0.95]))
    raw_margin, _ = concavity_trial(state, pair, monotone_functional("C3_raw")[1])
    proper_margin, _ = concavity_trial(state, pair, monotone_functional("C3")[1])
    return {
        "state": state,
        "pair": pair,
        "raw_margin": float(raw_margin),
        "proper_margin": float(proper_margin),
    }


@lru_cache(maxsize=None)
def control_margins():
    """Raw and proper margins of the wrong-exponent control, computed once per process."""
    control = wrong_exponent_counterexample()
    return control["raw_margin"], control["proper_margin"]


def _lhs(a, b, c):
    return ((a * b * c) ** (2.0 / 3.0)
            + ((1 - a * a) * (1 - b * b) * (1 - c * c)) ** (1.0 / 3.0))


@lru_cache(maxsize=None)
def _grid_scan(resolution):
    """The seed-independent part of the scan: the largest excess over 1 on
    the interior grid and on the boundary faces, and the diagonal residual.

    The grid is evaluated one first-axis slice at a time, with the same
    elementwise operations as the full broadcast, so its temporaries hold
    resolution^2 values instead of resolution^3.
    """
    ax = np.linspace(0.0, 1.0, resolution + 2)[1:-1]
    B, C = np.meshgrid(ax, ax, indexing="ij", sparse=True)
    grid_max = max(float((_lhs(a, B, C) - 1.0).max()) for a in ax)
    # boundary collapse: at a in {0, 1} the bound degenerates to a product
    # of numbers at most 1
    boundary_max = float(max((_lhs(np.asarray(v), B, C) - 1.0).max() for v in (0.0, 1.0)))
    diagonal_residual = float(np.abs(_lhs(ax, ax, ax) - 1.0).max())
    return grid_max, boundary_max, diagonal_residual


def scalar_inequality_scan(resolution, samples=100_000, seed=0):
    """Scan of the scalar concavity bound for the cube-root monotones:
    (abc)^(2/3) + ((1-a^2)(1-b^2)(1-c^2))^(1/3) <= 1 on the open unit cube,
    with equality exactly on the diagonal a = b = c.

    Checks a uniform interior grid plus random samples, and the boundary
    faces where the bound collapses to a trivial one.  Returns the largest
    excess over 1 found anywhere (should not exceed rounding).
    """
    resolution, samples = integer(resolution, "resolution", 10), integer(samples, "samples", 1)
    seed = integer(seed, "seed", 0)
    # the grid does not depend on the seed: it is computed once per
    # resolution, and only the random samples are drawn on every call
    grid_max, boundary_max, diagonal_residual = _grid_scan(resolution)
    rng = np.random.default_rng(seed)
    abc = rng.random((3, samples))  # the numbers of uniform(0, 1)
    random_max = max(float((_lhs(*abc[:, s:s + SCAN_SLICE]) - 1.0).max())
                     for s in range(0, samples, SCAN_SLICE))
    return {
        "resolution": resolution,
        "random_samples": samples,
        "seed": seed,
        "max_violation": max(grid_max, random_max),
        "boundary_max_violation": boundary_max,
        "diagonal_equality_residual": diagonal_residual,
    }
