"""Property-based fuzzing of state files and command-line arguments.

Whatever the input, the command line either succeeds (exit 0) with a strict
JSON report, or fails closed (exit 2 for bad input, 3 for a property
violation) with a message on stderr.  No example starts a process: trial
counts stay within one block and ``multiprocessing.Process`` is replaced by
one that refuses to start.
"""

import contextlib
import io
import json
import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qutrit_invariants import monotones
from qutrit_invariants.cli import main

# the CPUs this process may use: the bound the command line puts on --workers
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=refuse)


def _no_process(*args, **kwargs):
    raise AssertionError("a child process was started")


def run(argv, out):
    """Exit code, stdout and stderr of one command-line call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        mp.setattr(multiprocessing, "Process", _no_process)
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def assert_fails_closed(code, out, err):
    assert code in (0, 2, 3), code
    if code == 0:
        _strict(out.read_text())
    else:
        assert err.strip(), f"exit {code} without a message"
        if code == 2:
            assert not out.exists()


# ---------------------------------------------------------------------------
# state files

def _payload(dims, seed):
    D = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    return {"dimA": dims[0], "dimB": dims[1],
            "re": rho.real.tolist(), "im": rho.imag.tolist()}


junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-10, 10), st.integers(2 ** 70, 2 ** 1100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.none()),
)


def _is_matrix(value):
    return isinstance(value, list) and value and all(isinstance(r, list) and r for r in value)


@st.composite
def mutated_payload(draw):
    payload = _payload(draw(st.sampled_from([(3, 3), (2, 2)])), draw(st.integers(0, 3)))
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)  # not an object at all
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["dimA", "dimB", "re", "im"]))
        kind = draw(st.sampled_from(["replace", "entry", "boolean", "row", "drop", "wrap"]))
        if key not in payload:
            continue
        if kind == "replace":
            payload[key] = draw(st.one_of(st.integers(-3, 5), junk))
        elif kind == "drop":
            del payload[key]
        elif kind == "wrap":
            for _ in range(draw(st.integers(1, 80))):
                payload[key] = [payload[key]]
        elif _is_matrix(payload[key]):
            matrix = payload[key]
            row = matrix[draw(st.integers(0, len(matrix) - 1))]
            if kind == "entry":
                row[draw(st.integers(0, len(row) - 1))] = draw(junk)
            elif kind == "boolean":
                row[draw(st.integers(0, len(row) - 1))] = draw(st.booleans())
            elif draw(st.booleans()):
                row.pop()
            else:
                matrix.append(list(row))
    return payload


def _holds_boolean(value):
    if isinstance(value, list):
        return any(_holds_boolean(v) for v in value)
    return isinstance(value, bool)


def _boolean_payload():
    """A valid two-qutrit file but for one boolean entry."""
    payload = _payload((3, 3), 0)
    payload["re"][0][0] = True
    return payload


@FUZZ
@given(mutated_payload(), st.sampled_from(["plain", "truncated", "nested"]),
       st.integers(1, 300_000))
@example(_boolean_payload(), "plain", 1)
def test_mutated_state_files_fail_closed(payload, form, cut):
    text = json.dumps(payload)  # NaN and Infinity tokens included
    if form == "truncated":
        text = text[:cut % max(len(text), 1)]
    elif form == "nested":
        text = "[" * cut + text + "]" * cut
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "state.json", Path(tmp) / "report.json"
        path.write_text(text)
        with np.errstate(all="ignore"):
            code, _, err = run(["invariants", str(path)], out)
        assert_fails_closed(code, out, err)
        if isinstance(payload, dict) and any(_holds_boolean(payload.get(k)) for k in ("re", "im")):
            assert code == 2, "a boolean matrix entry was read as a number"


# ---------------------------------------------------------------------------
# verify and count arguments

NOT_INTEGERS = st.sampled_from(["", "x", "1.5", "nan", "10**9"])

# option -> (values it accepts, values it rejects); an argument vector takes
# accepted values everywhere except, sometimes, in one option
VERIFY_OPTIONS = {
    "suite": (st.sampled_from(["tensors", "algebra", "expansion", "monotone"]),
              st.just("bogus")),
    "--trials": (st.integers(1, monotones.TRIAL_BLOCK).map(str),
                 st.integers(-3, 0).map(str) | NOT_INTEGERS),
    "--workers": (st.integers(1, min(2, USABLE_CPUS)).map(str),
                  st.sampled_from(["0", "-1", str(10 ** 9)]) | NOT_INTEGERS),
    "--seed": (st.integers(0, 2 ** 64).map(str), st.integers(-5, -1).map(str) | NOT_INTEGERS),
    "--functional": (st.sampled_from(sorted(monotones.MONOTONE_FUNCTIONALS)), st.just("C9")),
    "--tol": (st.sampled_from(["0", "1e-300", "1e-9", "1e300"]),
              st.sampled_from(["-1", "nan", "inf", "x"])),
}
COUNT_OPTIONS = {
    "family": (st.sampled_from(["lu", "lsl", "graded"]), st.just("bogus")),
    "--dim": (st.sampled_from(["2", "3"]), st.just("4") | NOT_INTEGERS),
    "--max": (st.integers(0, 14).map(str), st.integers(-5, -1).map(str) | NOT_INTEGERS),
    "--pqs": (st.text(alphabet="01234", min_size=3, max_size=3),
              st.text(alphabet="0123456789x٣", max_size=5).filter(
                  lambda t: not (len(t) == 3 and t.isascii() and t.isdigit()))),
}
POSITIONAL = ("suite", "family")


@st.composite
def argument_vector(draw, command, options):
    bad = draw(st.sampled_from([None, None, *options]))
    argv = [command]
    for name, (good, rejected) in options.items():
        if name != bad and name not in POSITIONAL and draw(st.booleans()):
            continue  # optional, and left at its default
        value = draw(rejected if name == bad else good)
        argv += [value] if name in POSITIONAL else [name, value]
    if command == "count" and draw(st.booleans()):
        argv.append("--nonzero")
    return argv


@FUZZ
@given(st.one_of(argument_vector("verify", VERIFY_OPTIONS),
                argument_vector("count", COUNT_OPTIONS)))
def test_command_line_arguments_fail_closed(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code, _, err = run(argv, out)
        assert_fails_closed(code, out, err)
