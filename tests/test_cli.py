import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qutrit_invariants import cli, lsl_qutrit, lu_invariants, monotones, qubit
from qutrit_invariants.cli import main
from qutrit_invariants.lsl_qutrit import cubic_expansion_residual
from qutrit_invariants.states import BipartiteState, load_state, random_state, save_state

# the CPUs this process may use: the bound the command line puts on --workers
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _no_process(*args, **kwargs):
    raise AssertionError("a child process was started")


@pytest.fixture
def mm33(tmp_path):
    path = tmp_path / "mm33.json"
    save_state(BipartiteState.from_rho(np.eye(9) / 9, 3, 3), path)
    return str(path)


@pytest.fixture
def mm22(tmp_path):
    path = tmp_path / "mm22.json"
    save_state(BipartiteState.from_rho(np.eye(4) / 4, 2, 2), path)
    return str(path)


def test_invariants_maximally_mixed(mm33, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["invariants", mm33, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["C3"] - 1.0 / 324.0) < 1e-15
    assert report["physicality"]["physical"]
    assert report["invariants"]["K000"] == 1.0


def test_invariants_qubit_dispatch(mm22, tmp_path):
    out = tmp_path / "report.json"
    assert main(["invariants", mm22, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "Q2" in report["invariants"]
    assert "C3" not in report
    assert abs(report["det_rho"] - 1.0 / 256.0) < 1e-15


# the report key of each monotone, by the dimensions of the state
MONOTONE_KEYS = {
    (3, 3): {"C3": "abs_C3^(1/3)", "C6": "abs_C6^(1/6)"},
    (2, 2): {"Q2": "abs_Q2^(1/2)", "Q4": "abs_Q4^(1/4)", "Q4t": "abs_Q4t^(1/4)",
             "Q6": "abs_Q6^(1/6)"},
}


@pytest.mark.parametrize("dims", sorted(MONOTONE_KEYS))
def test_invariants_monotones_are_the_monotone_functionals(dims, tmp_path):
    path, out = tmp_path / "state.json", tmp_path / "report.json"
    save_state(random_state(*dims, 7), path)
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())["monotones"]
    ext = load_state(path).coords.ext
    assert report == {key: monotones.monotone_functional(name)[1](ext)
                      for name, key in MONOTONE_KEYS[dims].items()}


def test_invariants_nonphysical_warns(tmp_path):
    rho = np.diag([1.5] + [-0.5 / 8.0] * 8)
    path = tmp_path / "bad_state.json"
    save_state(BipartiteState.from_rho(rho, 3, 3), path)
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["warnings"]


def test_invariants_malformed_file(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"dimA": 3,')
    assert main(["invariants", str(path)]) == 2


def test_invariants_rejects_boolean_entries(tmp_path, capsys):
    # true was read as 1.0: this file reported a trace of 1.889 and exit 0
    re = (np.eye(9) / 9).tolist()
    re[0][0] = True
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps({"dimA": 3, "dimB": 3, "re": re,
                                "im": np.zeros((9, 9)).tolist()}))
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 2
    assert "JSON numbers" in capsys.readouterr().err
    assert not out.exists()


def test_invariants_wrong_dims(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({
        "dimA": 2, "dimB": 3,
        "re": np.eye(6).tolist(), "im": np.zeros((6, 6)).tolist(),
    }))
    assert main(["invariants", str(path)]) == 2


def test_count_lu_table(capsys):
    assert main(["count", "lu", "--dim", "3", "--max", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    counts = [int(line.split()[1]) for line in lines]
    assert counts == [1, 1, 4, 11, 34, 108]


def test_count_graded_single_column(capsys):
    assert main(["count", "graded", "--pqs", "004"]) == 0
    assert int(capsys.readouterr().out.split()[1]) == 5


def test_count_lsl_conjecture_flag(capsys):
    assert main(["count", "lsl", "--dim", "3", "--max", "12", "--nonzero"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    counts = [int(line.split()[1]) for line in lines]
    assert counts == [1, 1, 2, 5, 12]
    assert all("CONJECTURE" in line for line in lines)


def test_count_out_of_bounds(capsys):
    assert main(["count", "lu", "--dim", "3", "--max", "9"]) == 2


@pytest.mark.parametrize("option,value", [
    ("--trials", "5"), ("--tol", "1e-9"), ("--workers", "1"),
])
def test_verify_only_options_are_refused_elsewhere(option, value, mm33, tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in (["invariants", mm33], ["count", "lu", "--dim", "3", "--max", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value, "--out", str(out)])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()


def test_verify_expansion(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["verify", "expansion", "--trials", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["passed"]
    assert cert["certificate"]["max_cubic_expansion_residual"] <= 1e-10


def test_verify_algebra(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["verify", "algebra", "--trials", "5", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["certificate"]["span_dimension"] == 16


def test_verify_monotone_small(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["verify", "monotone", "--trials", "40", "--seed", "7",
                 "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["certificate"]["wrong_exponent_control"]["raw_margin"] < -1e-9


def test_byte_identical_reports(mm33, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["invariants", mm33, "--seed", "4", "--out", str(out1)])
    main(["invariants", mm33, "--seed", "4", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # three trial blocks, so the two-worker run does start a child
    out3, out4 = tmp_path / "c.json", tmp_path / "d.json"
    main(["verify", "monotone", "--trials", "150", "--seed", "2", "--out", str(out3)])
    workers = str(min(2, USABLE_CPUS))
    main(["verify", "monotone", "--trials", "150", "--seed", "2",
          "--workers", workers, "--out", str(out4)])
    assert out3.read_bytes() == out4.read_bytes()


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("suite", ["monotone", "expansion", "tensors", "algebra"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_vacuous_trials(suite, trials, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["verify", suite, "--trials", trials, "--out", str(out)]) == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_verify_worker_bounds_start_no_process(monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    cpus = USABLE_CPUS
    for workers in (0, -1, cpus + 1, 10 ** 9):
        assert main(["verify", "monotone", "--trials", "10",
                     "--workers", str(workers)]) == 2
        assert "--workers" in capsys.readouterr().err
    # one block of trials starts no child, whatever the worker count
    assert main(["verify", "monotone", "--trials", "10",
                 "--workers", str(min(2, cpus))]) == 0


def test_verify_monotone_refuses_trials_past_one_seed_word(monkeypatch, tmp_path, capsys):
    # refused before any child process starts or any trial runs
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    monkeypatch.setattr(monotones, "run_trials", _no_process)
    out = tmp_path / "cert.json"
    assert main(["verify", "monotone", "--trials", str(2 ** 32 + 1),
                 "--workers", str(min(2, USABLE_CPUS)), "--out", str(out)]) == 2
    assert "--trials must be at most 2**32" in capsys.readouterr().err
    assert not out.exists()


def test_worker_bound_is_the_affinity_set(monkeypatch, capsys):
    # a cpuset that lets the process use one CPU of many
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert main(["verify", "monotone", "--trials", "10", "--workers", "2"]) == 2
    assert "--workers must be 1 to 1 (CPUs this process may use)" in capsys.readouterr().err
    assert main(["verify", "monotone", "--trials", "10", "--workers", "1"]) == 0
    # without an affinity call, the CPU count bounds it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert main(["verify", "monotone", "--trials", "10", "--workers", "4"]) == 2
    assert "--workers must be 1 to 3" in capsys.readouterr().err
    assert main(["verify", "monotone", "--trials", "10", "--workers", "3"]) == 0


@pytest.mark.parametrize("trials", ["1", "4"])
def test_verify_algebra_refuses_fewer_trials_than_it_runs(trials, monkeypatch, tmp_path,
                                                           capsys):
    # the certificate needs 5 random maps: a smaller --trials would be echoed
    # beside a certificate that ran 5
    _refuse_suites(monkeypatch)
    out = tmp_path / "cert.json"
    assert main(["verify", "algebra", "--trials", trials, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--trials 5 or more" in captured.err and captured.out == ""
    assert not out.exists()


def test_verify_rejects_non_finite_tolerance(capsys):
    assert main(["verify", "expansion", "--trials", "5", "--tol", "nan"]) == 2
    assert main(["verify", "expansion", "--trials", "5", "--tol", "-1"]) == 2


def test_verify_tensors_counts_skipped_samples(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["verify", "tensors", "--trials", "50", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["skipped_near_singular"] == 0


@pytest.mark.parametrize("dims", [(3, 3), (2, 2)])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_invariants_rejects_non_finite_files(dims, bad, tmp_path, capsys):
    D = dims[0] * dims[1]
    re = (np.eye(D) / D).tolist()
    text = json.dumps({"dimA": dims[0], "dimB": dims[1], "re": re,
                       "im": np.zeros((D, D)).tolist()})
    path = tmp_path / "state.json"
    path.write_text(text.replace(str(1.0 / D), bad, 1))
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_invariants_overflowing_report_is_refused(tmp_path, capsys):
    path = tmp_path / "huge.json"
    save_state(BipartiteState.from_rho(np.eye(9) * 1e200, 3, 3), path)
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_invariants_trace_not_one_reports_null_residual(tmp_path):
    path = tmp_path / "trace2.json"
    save_state(BipartiteState.from_rho(2 * np.eye(9) / 9, 3, 3), path)
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    report = _strict(out.read_text())
    assert report["C3_expansion_residual"] is None
    assert report["warnings"] == ["state is not physical", "C3 expansion residual not "
                                  "evaluated: expansion requires a trace-normalized state"]


@pytest.mark.parametrize("dims, index", [((3, 3), 4), ((2, 2), 2)])
@pytest.mark.parametrize("value", [9e307, 1e308, -1.7e308])
def test_invariants_rejects_overflowing_diagonal(dims, index, value, tmp_path, capsys):
    # finite, but twice the entry overflows: the eigenvalue diagnostics
    # used to raise LinAlgError ("Eigenvalues did not converge")
    path = tmp_path / "huge.json"
    save_state(random_state(*dims, 0), path)
    payload = json.loads(path.read_text())
    payload["re"][index][index] = value
    path.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "overflow" in errors[0]
    assert not out.exists()


def test_invariants_evaluates_each_block_once(tmp_path, monkeypatch):
    calls = {"_blocks": 0, "_dressed": 0, "q_invariants": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(lu_invariants, "_blocks")
    counted(lsl_qutrit, "_dressed")
    counted(qubit, "q_invariants")
    path, out = tmp_path / "state.json", tmp_path / "report.json"
    save_state(random_state(3, 3, 0), path)
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    assert _strict(out.read_text())["C3_expansion_residual"] is not None
    # the K values and C3 of the report serve its expansion residual too
    assert calls == {"_blocks": 1, "_dressed": 2, "q_invariants": 0}
    save_state(random_state(2, 2, 0), path)
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    assert _strict(out.read_text())["expansion_residuals"] is not None
    # so do the Q values of a two-qubit report
    assert calls == {"_blocks": 1, "_dressed": 2, "q_invariants": 1}


def _overflow_entry_file(path):
    save_state(random_state(3, 3, 0), path)
    payload = json.loads(path.read_text())
    payload["re"][8][8] = -1.7e308
    path.write_text(json.dumps(payload))


def _overflow_report_file(path):
    save_state(BipartiteState.from_rho(np.eye(9) * 1e200, 3, 3), path)


@pytest.mark.parametrize("write", [_overflow_entry_file, _overflow_report_file],
                         ids=["entry", "report"])
def test_invariants_overflow_prints_one_error_line_and_no_warning(write, tmp_path):
    # the entry overflows while loading, the report while evaluating
    path = tmp_path / "huge.json"
    write(path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-m", "qutrit_invariants.cli", "invariants",
                          str(path)], capture_output=True, text=True, env=env)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr


@pytest.mark.parametrize("rho", [random_state(3, 3, 5).rho, np.diag([1.5] + [-0.5 / 8.0] * 8)],
                         ids=["normalized", "nonphysical"])
def test_invariants_residual_is_the_library_residual(rho, tmp_path):
    path, out = tmp_path / "state.json", tmp_path / "report.json"
    save_state(BipartiteState.from_rho(rho, 3, 3), path)
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    report = _strict(out.read_text())
    assert report["C3_expansion_residual"] == cubic_expansion_residual(load_state(path))


@pytest.mark.parametrize("trace", [0.5, 2.0])
def test_invariants_qubit_trace_not_one_reports_null_residuals(tmp_path, trace):
    path = tmp_path / "trace.json"
    save_state(BipartiteState.from_rho(trace * np.eye(4) / 4, 2, 2), path)
    out = tmp_path / "report.json"
    assert main(["invariants", str(path), "--out", str(out)]) == 0
    report = _strict(out.read_text())
    assert report["expansion_residuals"] is None
    assert any(w.startswith("expansion residuals not evaluated: ")
               and "trace-normalized" in w for w in report["warnings"])


def _refuse_work(monkeypatch):
    from qutrit_invariants import counting

    def refuse(*args):
        raise AssertionError("a table was computed")

    for name in ("count_lu_mixed", "count_lsl", "count_graded_quartics", "graded_table"):
        monkeypatch.setattr(counting, name, refuse)


@pytest.mark.parametrize("argv", [["count", "lu", "--max", "-1"],
                                  ["count", "lsl", "--max", "-3"],
                                  ["count", "graded", "--max", "-1"]])
def test_count_rejects_negative_max_before_any_work(argv, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    assert main(argv) == 2
    assert "--max" in capsys.readouterr().err


def _count_rows(monkeypatch):
    """The arguments of every row computed by the lu and lsl tables."""
    from qutrit_invariants import counting

    calls = []
    for name in ("count_lu_mixed", "count_lsl"):
        def counted(*args, real=getattr(counting, name)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(counting, name, counted)
    return calls


@pytest.mark.parametrize("argv", [["count", "lsl", "--dim", "3", "--max", "40"],
                                  ["count", "lsl", "--dim", "2", "--max", "13"],
                                  ["count", "lu", "--dim", "3", "--max", "6"],
                                  ["count", "lu", "--dim", "2", "--max", "9"]])
def test_count_rejects_unsupported_max_before_any_row(argv, monkeypatch, capsys):
    calls = _count_rows(monkeypatch)
    assert main(argv) == 2
    assert calls == []
    assert "--max must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--pqs", "004", "--dim", "2"], ["--dim", "2"],
                                  ["--max", "40"], ["--max", "4"], ["--max", "0"],
                                  ["--pqs", "004", "--max", "4"]])
def test_count_graded_refuses_dim_and_max_before_any_row(argv, monkeypatch, capsys, tmp_path):
    _refuse_work(monkeypatch)
    out = tmp_path / "graded.json"
    assert main(["count", "graded", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "count graded takes no --max and only --dim 3" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_count_graded_accepts_the_default_dim(capsys):
    assert main(["count", "graded", "--pqs", "004", "--dim", "3"]) == 0
    assert capsys.readouterr().out.split()[:2] == ["004", "5"]


def test_count_computes_every_row_up_to_the_limit(monkeypatch, capsys):
    calls = _count_rows(monkeypatch)
    assert main(["count", "lu", "--dim", "3", "--max", "5"]) == 0
    assert calls == [(3, n) for n in range(6)]


@pytest.mark.parametrize("pqs", ["0004", "04", "", "0x4", "٣٠٠", " 04"])
def test_count_rejects_pqs_that_is_not_three_digits(pqs, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    assert main(["count", "graded", "--pqs", pqs]) == 2
    assert "--pqs must be exactly three digits" in capsys.readouterr().err


def test_count_graded_refuses_a_grading_past_total_degree_4(capsys):
    # three digits, so only graded_table's own check refuses it
    assert main(["count", "graded", "--pqs", "500"]) == 2
    assert capsys.readouterr().err.strip() == "error: supported gradings have total degree <= 4"


def test_count_accepts_zero_max(capsys):
    assert main(["count", "lu", "--max", "0"]) == 0
    assert capsys.readouterr().out.split()[:2] == ["0", "1"]


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "tensors", "--trials", "5", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_violation_is_reported_on_stderr(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["verify", "expansion", "--trials", "5", "--tol", "0",
                 "--out", str(out)]) == 3
    assert "did not pass" in capsys.readouterr().err
    assert _strict(out.read_text())["passed"] is False


def test_import_loads_no_process_pool():
    # multiprocessing is imported only by a run that starts child processes
    code = ("import sys, qutrit_invariants, qutrit_invariants.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
            "'concurrent.futures.process'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def _refuse_suites(monkeypatch):
    from qutrit_invariants import cli

    def refuse(args):
        raise AssertionError("a suite was run")

    for suite in ("tensors", "algebra", "expansion", "monotone"):
        monkeypatch.setattr(cli, f"_verify_{suite}", refuse)


@pytest.mark.parametrize("argv,option", [
    (["count", "lu", "--pqs", "004"], "--pqs"),
    (["count", "lsl", "--pqs", "004"], "--pqs"),
    (["count", "lu", "--nonzero"], "--nonzero"),
    (["count", "graded", "--nonzero"], "--nonzero"),
    (["verify", "tensors", "--functional", "C3"], "--functional"),
    (["verify", "algebra", "--functional", "C6"], "--functional"),
    (["verify", "expansion", "--functional", "Q4t"], "--functional"),
    (["verify", "algebra", "--tol", "1e-300"], "--tol"),
])
def test_options_a_command_ignores_are_refused(argv, option, monkeypatch, tmp_path, capsys):
    _refuse_work(monkeypatch)
    _refuse_suites(monkeypatch)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert option in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("suite, tol", cli.VERIFY_SUITES.items())
def test_verify_tol_is_the_suite_default_or_refused_where_fixed(suite, tol, monkeypatch,
                                                              tmp_path, capsys):
    out = [tmp_path / "default.json", tmp_path / "given.json"]
    if tol is None:  # fixed bounds: --tol is refused before the suite runs
        _refuse_suites(monkeypatch)
        assert main(["verify", suite, "--trials", "5", "--tol", "1e-3",
                     "--out", str(out[0])]) == 2
        captured = capsys.readouterr()
        assert f"--tol does not apply to verify {suite}" in captured.err
        assert captured.out == "" and not out[0].exists()
        return
    argv = ["verify", suite, "--trials", "5"]
    assert main([*argv, "--out", str(out[0])]) == 0
    assert main([*argv, "--tol", repr(tol), "--out", str(out[1])]) == 0
    assert out[0].read_bytes() == out[1].read_bytes()


@pytest.mark.parametrize("suite", ["tensors", "algebra", "expansion"])
def test_verify_refuses_workers_that_a_suite_would_not_start(suite, monkeypatch, tmp_path,
                                                            capsys):
    # with CPUs to spare, the refusal is that the suite runs in one process
    _refuse_suites(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    out = tmp_path / "cert.json"
    assert main(["verify", suite, "--trials", "5", "--workers", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--workers 2 belongs to verify monotone alone" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("suite", ["tensors", "algebra", "expansion", "monotone"])
def test_workers_is_accepted_by_every_suite(suite, tmp_path):
    out = tmp_path / "cert.json"
    assert main(["verify", suite, "--trials", "5", "--workers", "1", "--out", str(out)]) == 0
    assert _strict(out.read_text())["passed"] is True


def test_verify_monotone_defaults_to_the_cubic_functional(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["verify", "monotone", "--trials", "5", "--out", str(out)]) == 0
    assert _strict(out.read_text())["certificate"]["trials_report"]["functional"] == "C3"


def test_verify_tensors_memory_does_not_grow_with_trials(tmp_path):
    out = tmp_path / "cert.json"
    # a first call fills the module caches, which later calls only read
    assert main(["verify", "tensors", "--trials", "10", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        assert main(["verify", "tensors", "--trials", "20000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def test_module_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qutrit_invariants.cli", *argv],
                              capture_output=True, text=True, env=env)

    refused = run("verify", "monotone", "--trials", "0")
    assert refused.returncode == 2
    assert "--trials" in refused.stderr
    table = run("count", "lsl", "--dim", "3", "--max", "3")
    assert table.returncode == 0
    assert [line.split()[:2] for line in table.stdout.splitlines()] == [
        ["0", "1"], ["1", "0"], ["2", "0"], ["3", "1"]]


@pytest.mark.parametrize("argv", [
    ["invariants", "STATE"],
    ["count", "lu", "--dim", "2", "--max", "2"],
    ["verify", "expansion", "--trials", "5"],
])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_is_an_input_error(argv, where, mm33, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json" if where == "missing_dir" else tmp_path
    argv = [mm33 if a == "STATE" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report to")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["count", "lsl", "--dim", "3", "--max", "12"],
    ["invariants", "STATE"],
    ["verify", "tensors", "--trials", "5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_an_input_error(argv, unbuffered, mm33):
    # the read end of the pipe is closed before the command starts: one error
    # line, no traceback and no warning from the interpreter's last flush,
    # whether the report fails at the write or at the flush after it
    argv = [mm33 if a == "STATE" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "qutrit_invariants.cli", *argv],
                             stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the report to stdout"), \
        run.stderr


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_in_process_returns_the_input_error_and_keeps_fd_1(monkeypatch, capsys):
    fd1 = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["count", "lsl", "--dim", "3", "--max", "3"]) == 2
    monkeypatch.undo()
    assert os.fstat(1) == fd1
    err = capsys.readouterr().err
    assert err == "error: cannot write the report to stdout: Broken pipe\n"
