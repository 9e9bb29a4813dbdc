"""The four workloads: inputs made from the seed, one pass of calls, and
the checks that decide whether each operation succeeded.

Every call goes through ``qutrit_invariants.cli.main`` or a public library
function, in this process.  A pass makes the same calls every time, so
passes can be timed against each other.  The inputs are made here with the
benchmark's own generator; the package only ever sees the generated files,
states and seeds.

An operation ``failed`` when it raised, exited with an unexpected code,
wrote a report that is not strict JSON, or wrote wrong values.  It is
``wrong`` in the last case only: the run is then not ``correct``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from program import MEMO_TABLES, cli, lu_invariants, qubit, states

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
RESIDUAL_TOL = 1e-10
BANK_TAG = 13127413
BANK_SIZE = {(3, 3): 32, (2, 2): 16}


@dataclass
class Call:
    label: str
    seconds: float
    ops: int
    started: float = 0.0
    failed: int = 0
    wrong: int = 0
    output: bytes = b""  # compared between traced and untraced passes
    note: str = ""

    def fail(self, note, wrong=False, ops=None):
        n = self.ops if ops is None else ops
        self.failed = min(self.ops, self.failed + n)
        if wrong:
            self.wrong = min(self.ops, self.wrong + n)
        self.note = self.note or note


@dataclass
class Pass:
    calls: list
    info: dict = field(default_factory=dict)
    wall: float = 0.0  # whole pass, the benchmark's own checks included
    kernel_s: float = 0.0  # mean calibration kernel time during the pass
    memo: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return sum(c.seconds for c in self.calls)


def run_cli(argv):
    """One in-process CLI call with stdout and stderr captured.  An
    uncaught exception is returned, not raised, so it fails one call and
    never the run."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # any crash of the program is a failed operation
        rc, exc = None, e
    return t0, time.perf_counter() - t0, rc, err.getvalue(), exc


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens Python would accept."""
    def refuse(token):
        raise ValueError(f"non-finite token {token} in report")
    return json.loads(text, parse_constant=refuse)


def read_report(path, call, rc, exc):
    """The strict-JSON report of a CLI call that should exit 0, or None
    after recording why the call failed."""
    if exc is not None:
        call.fail(f"uncaught {type(exc).__name__}: {exc}")
        return None
    if rc != 0:
        call.fail(f"exit code {rc}")
        return None
    try:
        call.output = path.read_bytes()
        return strict_json(call.output)
    except (OSError, ValueError) as e:
        call.fail(f"unreadable report: {e}")
        return None


def check_fields(call, check, *args):
    """Run a report check; a report missing a field it should have is a
    wrong output."""
    try:
        return check(call, *args)
    except (KeyError, TypeError, IndexError, AttributeError) as e:
        call.fail(f"report lacks an expected field: {e!r}", wrong=True)
        return None


def _unlink(path):
    path.unlink(missing_ok=True)
    return path


# ---------------------------------------------------------------------------
# Input generators (independent of the package's own samplers)

def hs_state(rng, D):
    """Hilbert-Schmidt random density matrix G G^dag / Tr(G G^dag)."""
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    W = G @ G.conj().T
    return W / np.trace(W).real


def haar_unitary(rng, d):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def bank_state(dims, k):
    """State k of the fixed bank whose reports are stored in reference.json."""
    rng = np.random.default_rng(np.random.SeedSequence([BANK_TAG, dims[0], k]))
    return hs_state(rng, dims[0] * dims[1])


def bank_digest(rho):
    return hashlib.sha256(np.ascontiguousarray(rho).tobytes()).hexdigest()


def state_payload(rho, dims):
    return {"dimA": dims[0], "dimB": dims[1],
            "re": rho.real.tolist(), "im": rho.imag.tolist()}


def report_values(report):
    """The numbers of an ``invariants`` report that local unitaries leave
    unchanged, flattened to dotted keys."""
    vals = {}
    for key in ("C3", "C6", "det_rho"):
        if key in report:
            vals[key] = report[key]
    for group in ("invariants", "monotones"):
        for k, v in report.get(group, {}).items():
            vals[f"{group}.{k}"] = v
    for k in ("trace", "min_eigenvalue"):
        vals[f"physicality.{k}"] = report["physicality"][k]
    return vals


def load_reference():
    """Reference values per bank state, after checking that the bank this
    generator makes is the bank the references were computed from."""
    ref = json.loads(REFERENCE.read_text())
    out = {}
    for dims in BANK_SIZE:
        entries = ref[f"{dims[0]}x{dims[1]}"]
        for k, entry in enumerate(entries):
            if bank_digest(bank_state(dims, k)) != entry["sha256"]:
                raise RuntimeError(f"bank state {dims} #{k} differs from the one in "
                                   f"{REFERENCE.name}; the generator changed")
        out[dims] = [e["values"] for e in entries]
    return out


def values_mismatch(got, expected):
    """Keys whose value is off by more than REL_TOL relative error.  The
    minimum eigenvalue is compared against the unit trace instead, because
    eigenvalue rounding is absolute."""
    bad = []
    for key, ref in expected.items():
        val = got.get(key)
        scale = 1.0 if key == "physicality.min_eigenvalue" else abs(ref)
        if not isinstance(val, (int, float)) or not abs(val - ref) <= REL_TOL * scale:
            bad.append(key)
    return bad


# ---------------------------------------------------------------------------
# Warm-up calls: one call of each workload's flow, used both in-process
# before timing and in the fresh interpreters that measure set-up time.

def warmup(name, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    out = _unlink(workdir / "warmup.json")
    if name == "verify":
        run_cli(["verify", "monotone", "--trials", "10", "--out", str(out)])
    elif name == "invariants":
        path = workdir / "warmup-state.json"
        path.write_text(json.dumps(state_payload(bank_state((3, 3), 0), (3, 3))))
        run_cli(["invariants", str(path), "--out", str(out)])
    elif name == "rank":
        qubit.dependence_jacobian_rank(
            states.BipartiteState.from_rho(bank_state((2, 2), 0), 2, 2).coords)
        lu_invariants.all_invariants(
            states.BipartiteState.from_rho(bank_state((3, 3), 0), 3, 3).coords)
    elif name == "counts":
        clear_memo_tables()
        run_cli(["count", "lu", "--dim", "3", "--max", "5", "--out", str(out)])
    else:
        raise ValueError(f"unknown workload {name}")
    if not out.exists() and name != "rank":
        raise RuntimeError(f"warm-up call of {name} wrote no report")


def clear_memo_tables():
    for name, table in MEMO_TABLES.items():
        if name.startswith("symfunc."):
            table.cache_clear()


def memo_info():
    out = {}
    for name, table in MEMO_TABLES.items():
        info = table.cache_info()
        out[name] = {"entries": info.currsize, "hits": info.hits,
                     "misses": info.misses}
    return out


class Workload:
    via_cli = True
    calibrator = None  # set by the runner while it times untraced passes

    def between_calls(self):
        """Outside any timed call: let the calibrator sample the machine."""
        if self.calibrator is not None:
            self.calibrator.maybe()


# ---------------------------------------------------------------------------
# verify: four CLI flows of the Monte-Carlo suites per pass

class Verify(Workload):
    """Operation: one trial.  Each pass draws a fresh CLI seed from
    (workload seed, pass index); the traced pass with the same index uses
    the same seed, so their reports must be byte-identical."""

    name = "verify"
    # label, suite arguments, trials, pool workers
    FLOWS = [
        ("monotone_c3", ["monotone", "--functional", "C3"], 400, 1),
        ("monotone_c3_w2", ["monotone", "--functional", "C3"], 400, 2),
        ("monotone_q4t", ["monotone", "--functional", "Q4t"], 400, 1),
        ("expansion", ["expansion"], 200, 1),
    ]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def pass_seed(self, index):
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def inputs(self):
        return [self.pass_seed(i) for i in range(4)]

    def run_pass(self, index):
        seed = self.pass_seed(index)
        calls, skipped, attempted = [], 0, 0
        for label, suite, trials, workers in self.FLOWS:
            out = _unlink(self.workdir / f"{label}.json")
            self.between_calls()
            started, seconds, rc, _, exc = run_cli(
                ["verify", *suite, "--trials", str(trials), "--seed", str(seed),
                 "--workers", str(workers), "--out", str(out)])
            call = Call(label, seconds, trials, started)
            calls.append(call)
            report = read_report(out, call, rc, exc)
            if report is not None:
                skips = check_fields(call, self._check, report)
                if skips is not None:
                    attempted += trials
                    skipped += skips
        w1, w2 = calls[0], calls[1]
        if w1.output and w2.output and w1.output != w2.output:
            w2.fail("certificate differs between --workers 1 and 2", wrong=True)
        return Pass(calls, {"seed": seed, "monotone_trials": attempted,
                            "monotone_skipped": skipped})

    def summary(self, passes):
        """Trial rate of each flow, median over passes."""
        out = {}
        for label, _, _, _ in self.FLOWS:
            rates = [c.ops / c.seconds for p in passes for c in p.calls
                     if c.label == label and not c.failed]
            out[f"{label}_trials_per_s"] = (statistics.median(rates) if rates else 0.0,
                                            "trials/s")
        return out

    @staticmethod
    def _check(call, report):
        """The monotone suites' skipped-trial count, None for the others."""
        if report["passed"] is not True:
            call.fail("report does not say passed", wrong=True)
        trials_report = report["certificate"].get("trials_report")
        if trials_report is None:
            return None
        if trials_report["violations"]:
            call.fail("violations listed", wrong=True)
        return int(trials_report["skipped_degenerate"])


# ---------------------------------------------------------------------------
# invariants: one CLI call per generated state file

class Invariants(Workload):
    """Operation: one file.  The mix has fixed counts per pass; the seed
    picks the states, their local unitaries, the defect positions and the
    order.  Normalized states are bank states under a random local unitary,
    so their invariant values are the stored bank references."""

    name = "invariants"
    # kind, dimensions, files per pass
    MIX = [
        ("normalized", (3, 3), 70), ("normalized", (2, 2), 15),
        ("nonphysical", (3, 3), 4), ("nonphysical", (2, 2), 1),
        ("trace", (3, 3), 4), ("trace", (2, 2), 1),
        ("truncated", (3, 3), 1), ("shape", (3, 3), 1),
        ("nan", (3, 3), 1), ("posinf", (3, 3), 1), ("neginf", (2, 2), 1),
    ]

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.reference = load_reference()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        specs = [(kind, dims) for kind, dims, n in self.MIX for _ in range(n)]
        order = rng.permutation(len(specs))
        self.files = []  # (path, kind, dims, expected values or None)
        for i, j in enumerate(order):
            kind, dims = specs[j]
            text, expected = self._make(kind, dims, rng)
            path = workdir / f"state{i:03d}.json"
            path.write_text(text)
            self.files.append((path, kind, dims, expected))

    def _make(self, kind, dims, rng):
        D = dims[0] * dims[1]
        if kind == "normalized":
            k = int(rng.integers(BANK_SIZE[dims]))
            U = np.kron(haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1]))
            rho = U @ bank_state(dims, k) @ U.conj().T
            rho = (rho + rho.conj().T) / 2
            return json.dumps(state_payload(rho, dims)), self.reference[dims][k]
        if kind == "nonphysical":
            A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
            H = (A + A.conj().T) / 2
            H += (1.0 - np.trace(H).real) / D * np.eye(D)
            if np.linalg.eigvalsh(H).min() >= 0:
                raise RuntimeError("generated non-physical state is positive")
            return json.dumps(state_payload(H, dims)), None
        rho = hs_state(rng, D)
        if kind == "trace":
            rho = rho * rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.25, 3.0)])
        elif kind == "truncated":
            text = json.dumps(state_payload(rho, dims))
            return text[:int(rng.integers(len(text) // 4, 3 * len(text) // 4))], None
        elif kind == "shape":
            return json.dumps(state_payload(hs_state(rng, 4), dims)), None
        elif kind == "nan":
            i, j = rng.integers(D, size=2)
            rho[i, j] = rho[j, i] = np.nan
        elif kind == "posinf":
            rho[0, 0] = np.inf
        elif kind == "neginf":
            rho[D - 1, D - 1] = -np.inf
        return json.dumps(state_payload(rho, dims)), None

    def inputs(self):
        return [(p.name, kind, p.read_bytes()) for p, kind, _, _ in self.files]

    def run_pass(self, index):
        out = self.workdir / "report.json"
        calls = []
        for path, kind, dims, expected in self.files:
            _unlink(out)
            self.between_calls()
            started, seconds, rc, err, exc = run_cli(
                ["invariants", str(path), "--out", str(out)])
            call = Call(f"{kind}{dims[0]}{dims[1]}", seconds, 1, started)
            calls.append(call)
            check_fields(call, self._check, kind, expected, out, rc, err, exc)
        return Pass(calls)

    def summary(self, passes):
        """Report latency over the well-formed normalized files only."""
        ms = [1e3 * c.seconds for p in passes for c in p.calls
              if c.label.startswith("normalized")]
        return {"report_ms_p50": (statistics.median(ms), "ms"),
                "report_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms")}

    @staticmethod
    def _check(call, kind, expected, out, rc, err, exc):
        if kind in ("truncated", "shape", "nan", "posinf", "neginf"):
            if exc is not None:
                call.fail(f"uncaught {type(exc).__name__}: {exc}")
            elif rc != 2 or not err.strip():
                call.fail(f"exit code {rc} instead of 2 with a message")
            return
        if kind == "trace" and exc is None and rc in (2, 3):
            if not err.strip():
                call.fail(f"exit code {rc} without a message")
            return
        report = read_report(out, call, rc, exc)
        if report is None:
            return
        if kind == "nonphysical" and "state is not physical" not in report["warnings"]:
            call.fail("non-physical state not flagged", wrong=True)
        if kind != "normalized":
            return
        bad = values_mismatch(report_values(report), expected)
        if bad:
            call.fail(f"values differ from the reference: {bad[:5]}", wrong=True)
        residuals = ([report["C3_expansion_residual"]] if "C3_expansion_residual" in report
                     else list(report["expansion_residuals"].values()))
        if not max(residuals) <= RESIDUAL_TOL:
            call.fail(f"expansion residual {max(residuals):.2e}", wrong=True)


# ---------------------------------------------------------------------------
# rank: Jacobian rank certificates

class Rank(Workload):
    """Operation: one rank check (two independence tests and one qubit
    dependence rank per two-qubit state).  Each independence test takes its
    Jacobian at one state instead of the default two: that halves a pass,
    so a run holds twice as many passes and calibration samples."""

    name = "rank"
    via_cli = False
    QUBIT_STATES = 4
    JACOBIAN_POINTS = 1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self.rhos33 = [hs_state(rng, 9) for _ in range(len(lu_invariants.QUARTIC_LABELS) + 5)]
        self.rhos22 = [hs_state(rng, 4) for _ in range(self.QUBIT_STATES)]
        self.qutrits = [states.BipartiteState.from_rho(r, 3, 3) for r in self.rhos33]
        self.qubits = [states.BipartiteState.from_rho(r, 2, 2) for r in self.rhos22]
        self.low_labels = [l for l in lu_invariants.LOW_DEGREE_LABELS if l != "K000"]

    def inputs(self):
        return [r.tobytes() for r in self.rhos33 + self.rhos22]

    def _timed(self, label, fn, check):
        self.between_calls()
        t0 = time.perf_counter()
        call = Call(label, 0.0, 1, t0)
        try:
            result = fn()
        except Exception as e:  # a crash fails this check, not the run
            call.seconds = time.perf_counter() - t0
            call.fail(f"uncaught {type(e).__name__}: {e}")
            return call
        call.seconds = time.perf_counter() - t0
        call.output = json.dumps(result, sort_keys=True).encode()
        if not check(result):
            call.fail(f"unexpected ranks {result}", wrong=True)
        return call

    def run_pass(self, index):
        low_states = self.qutrits[:len(self.low_labels) + 5]
        calls = [
            self._timed("quartic", lambda: lu_invariants.independence_test(
                self.qutrits, lu_invariants.QUARTIC_LABELS,
                jacobian_points=self.JACOBIAN_POINTS),
                lambda r: r["value_rank"] == 17 and r["jacobian_rank"] == 17),
            self._timed("low_degree", lambda: lu_invariants.independence_test(
                low_states, self.low_labels, jacobian_points=self.JACOBIAN_POINTS),
                lambda r: r["jacobian_rank"] == 10),
        ]
        for st in self.qubits:
            calls.append(self._timed("qubit_dependence",
                                     lambda st=st: qubit.dependence_jacobian_rank(st.coords),
                                     lambda r: r == 4))
        return Pass(calls)

    def summary(self, passes):
        return {"rank_s": (statistics.median(p.seconds for p in passes), "s")}


# ---------------------------------------------------------------------------
# counts: exact symmetric-function tables, cold

class Counts(Workload):
    """Operation: one table row.  Every pass starts with the memo tables
    empty, as a fresh CLI process does.  The inputs are fixed; the seed is
    not used."""

    name = "counts"
    # label, CLI arguments, pinned row counts (odd or non-multiple-of-3
    # SLOCC degrees carry no invariants)
    TABLES = [
        ("lsl3", ["lsl", "--dim", "3", "--max", "12"],
         [1, 0, 0, 1, 0, 0, 2, 0, 0, 5, 0, 0, 12]),
        ("lsl2", ["lsl", "--dim", "2", "--max", "12"],
         [1, 0, 1, 0, 3, 0, 4, 0, 7, 0, 9, 0, 14]),
        ("graded", ["graded"], [0, 0, 2, 2, 2, 2, 2, 1, 1, 0, 0, 5]),
        ("lu2", ["lu", "--dim", "2", "--max", "8"], [1, 1, 4, 6, 16, 23, 52, 77, 150]),
        ("lu3", ["lu", "--dim", "3", "--max", "5"], [1, 1, 4, 11, 34, 108]),
    ]

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def inputs(self):
        return [argv for _, argv, _ in self.TABLES]

    @staticmethod
    def reset():
        clear_memo_tables()

    def run_pass(self, index):
        calls = []
        for label, argv, pinned in self.TABLES:
            out = _unlink(self.workdir / f"{label}.json")
            self.between_calls()
            started, seconds, rc, _, exc = run_cli(["count", *argv, "--out", str(out)])
            call = Call(label, seconds, len(pinned), started)
            calls.append(call)
            report = read_report(out, call, rc, exc)
            if report is not None:
                check_fields(call, self._check, report, pinned)
        return Pass(calls)

    def summary(self, passes):
        return {"counts_s": (statistics.median(p.seconds for p in passes), "s")}

    @staticmethod
    def _check(call, report, pinned):
        got = [row["count"] for row in report["rows"]]
        bad = sum(1 for i, want in enumerate(pinned) if i >= len(got) or got[i] != want)
        bad += max(0, len(got) - len(pinned))
        if bad:
            call.fail(f"rows {got} differ from {pinned}", wrong=True, ops=bad)


WORKLOADS = {cls.name: cls for cls in (Verify, Invariants, Rank, Counts)}
