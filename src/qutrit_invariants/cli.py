"""Batch command-line front end.

Subcommands: ``invariants`` evaluates every invariant and monotone on a
JSON state file, ``count`` prints invariant-count tables, ``verify`` runs
an identity or property suite and writes a certificate.  Output is JSON
(plus human-readable tables on stdout) and is byte-identical for identical
(subcommand, seed, input); no timestamps are emitted.

Exit codes: 0 success, 2 input error (a closed stdout included), 3 property
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import counting, lsl_qutrit, lu_invariants, monotones, qubit, states, tensors

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3

VERIFY_TOL = 1e-10         # default --tol of the tensors and expansion suites
ALGEBRA_TIGHT_TOL = 1e-12  # algebra: linearized preservation, commutators, derivatives, triality
ALGEBRA_LOOSE_TOL = 1e-10  # algebra: dtilde preservation of the maps, homomorphism
SCAN_TOL = 1e-12           # the largest violation the scalar inequality scan may show
# each verify suite and its default --tol; None where the bounds are fixed
VERIFY_SUITES = {"tensors": VERIFY_TOL, "algebra": None, "expansion": VERIFY_TOL,
                 "monotone": monotones.MARGIN_TOL}


def _error(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _emit(report, out_path, code=EXIT_OK):
    """Write the report and return ``code``; a report holding NaN or
    Infinity (from extreme input values), or one that cannot be written to
    ``out_path``, returns the input error code instead."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        return _error(f"report has a non-finite value ({exc})")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _error(f"cannot write the report to {out_path!r}: {exc.strerror or exc}")
    else:
        print(text)
    return code


# Finite entries near the float limit overflow on the way to the report;
# _emit refuses the non-finite report, so numpy's warnings would only repeat
# its one error line.
@np.errstate(over="ignore", invalid="ignore")
def cmd_invariants(args):
    try:
        state = states.load_state(args.state)
        diag = states.physicality(state)
    except (OSError, ValueError) as exc:
        return _error(exc)
    dims = (state.dimA, state.dimB)
    report = {
        "input": args.state,
        "seed": args.seed,
        "dimA": state.dimA,
        "dimB": state.dimB,
        "physicality": diag,
        "warnings": [] if diag["physical"] else ["state is not physical"],
    }
    if dims == (3, 3):
        k = lu_invariants.all_invariants(state.coords)
        report["invariants"] = k
        values = {"C3": lsl_qutrit.cubic_invariant(state.coords.ext),
                  "C6": lsl_qutrit.sextic_invariant(state.coords.ext)}
        report.update(values)
        # the residual of cubic_expansion_residual, from the values reported
        try:
            states.require_unit_trace(state.coords)
        except ValueError as exc:  # the expansion holds on unit trace only
            residual = None
            report["warnings"].append(f"C3 expansion residual not evaluated: {exc}")
        else:
            residual = abs(values["C3"] - lsl_qutrit.cubic_expansion(k))
        report["C3_expansion_residual"] = residual
    elif dims == (2, 2):
        values = qubit.q_invariants(state.coords.ext)
        report["invariants"] = values
        report["det_rho"] = float(np.linalg.det(state.rho).real)
        try:
            residuals = qubit.expansion_residuals(state.coords, values)
        except ValueError as exc:  # the expansions hold on unit trace only
            residuals = None
            report["warnings"].append(f"expansion residuals not evaluated: {exc}")
        report["expansion_residuals"] = residuals
    else:
        return _error(f"unsupported dimensions {dims}; expected (3,3) or (2,2)")
    report["monotones"] = monotones.monotone_roots(values)
    return _emit(report, args.out)


def cmd_count(args):
    if args.pqs is not None and args.family != "graded":
        return _error(f"--pqs belongs to count graded alone, not count {args.family}")
    if args.nonzero and args.family != "lsl":
        return _error(f"--nonzero belongs to count lsl alone, not count {args.family}")
    if args.max is not None and args.max < 0:
        return _error(f"--max must be at least 0, got {args.max}")
    if args.pqs is not None and not (len(args.pqs) == 3 and args.pqs.isascii()
                                     and args.pqs.isdigit()):
        return _error(f"--pqs must be exactly three digits, got {args.pqs!r}")
    if args.family == "graded" and (args.dim != 3 or args.max is not None):
        return _error("count graded takes no --max and only --dim 3: it is the "
                      "fixed table of the two-qutrit quartic gradings")
    if args.family in counting.MAX_DEGREE:
        # checked before any row, which may take seconds to compute
        limit = counting.MAX_DEGREE[args.family][args.dim]
        max_n = limit if args.max is None else args.max
        if max_n > limit:
            return _error(f"--max must be at most {limit} for the {args.family} "
                          f"table at --dim {args.dim}, got {max_n}")
    rows = []
    try:
        if args.family in counting.MAX_DEGREE:
            for n in range(max_n + 1):
                rep = (counting.count_lsl(args.dim, n) if args.family == "lsl" else
                       counting.CountReport(n, counting.count_lu_mixed(args.dim, n),
                                            "character inner squares"))
                if rep.count or n == 0 or not args.nonzero:
                    rows.append(rep.as_dict())
        elif args.family == "graded":
            columns = ([tuple(int(c) for c in args.pqs)]
                       if args.pqs else counting.GRADED_COLUMNS)
            for (p, q, s), count in zip(columns, counting.graded_table(columns)):
                rows.append({"grading": f"{p}{q}{s}", "count": count,
                             "method": "plethysm singlet pairing",
                             "conjecture": False})
    except ValueError as exc:
        return _error(exc)
    for row in rows:
        label = row.get("grading", row.get("degree"))
        flag = "  CONJECTURE" if row.get("conjecture") else ""
        print(f"{label:>8}  {row['count']:>8}  {row['method']}{flag}")
    if args.out:
        return _emit({"family": args.family, "rows": rows, "seed": args.seed}, args.out)
    return EXIT_OK


def _verify_tensors(args):
    residuals = tensors.cyclic_identity_check()
    # one generator draws the samples in blocks: memory stays flat in --trials
    rng = np.random.default_rng(args.seed)
    worst, near_singular = 0.0, 0
    for start, stop in monotones.trial_blocks(args.trials):
        G = states.ginibre(rng, 3, size=stop - start)
        cubic, det = tensors.det_from_dtilde(states.to_single_coords(states.hermitian_part(G), 3))
        regular = np.abs(det) > 1e-9
        worst = max(worst, float(np.abs(cubic[regular] / det[regular] - 1.5).max(initial=0.0)))
        near_singular += int((~regular).sum())
    residuals["cubic_determinant_ratio_deviation_from_1.5"] = worst
    ok = max(residuals.values()) <= args.tol
    return dict(residuals, skipped_near_singular=near_singular), ok


def _verify_algebra(args):
    _, cert = lsl_qutrit.build_algebra(seed=args.seed, trials=args.trials)
    tight = ("linearized_preservation_residual", "commutator_residual_9x9",
             "commutator_residual_3x3", "derivative_match_residual",
             "triality_kernel_residual")
    loose = ("dtilde_preservation_residual", "homomorphism_residual")
    ok = (cert["span_dimension"] == 16 and all(cert[k] <= ALGEBRA_TIGHT_TOL for k in tight)
          and all(cert[k] <= ALGEBRA_LOOSE_TOL for k in loose))
    return cert, ok


def _verify_expansion(args):
    # one generator draws every qutrit state, then every qubit state, in
    # blocks of consecutive states
    rng = np.random.default_rng(args.seed)
    worst3 = 0.0
    for start, stop in monotones.trial_blocks(args.trials):
        state = states.random_state(3, 3, rng, size=stop - start)
        worst3 = max(worst3, float(lsl_qutrit.cubic_expansion_residual(state).max()))
    worstq = {}
    for start, stop in monotones.trial_blocks(args.trials):
        coords = states.random_state(2, 2, rng, size=stop - start).coords
        res = qubit.expansion_residuals(coords, qubit.q_invariants(coords.ext))
        worstq = {k: max(worstq.get(k, 0.0), float(v.max())) for k, v in res.items()}
    cert = {"seed": args.seed, "trials": args.trials,
            "max_cubic_expansion_residual": worst3,
            "max_qubit_expansion_residuals": worstq}
    ok = worst3 <= args.tol and max(worstq.values()) <= args.tol
    return cert, ok


def _verify_monotone(args):
    report = monotones.run_trials(args.functional or "C3", args.trials, args.seed,
                                  workers=args.workers, tol=args.tol)
    scan = monotones.scalar_inequality_scan(100, seed=args.seed)
    raw, proper = monotones.control_margins()
    cert = {"trials_report": report, "scalar_scan": scan,
            "wrong_exponent_control": {"raw_margin": raw, "proper_margin": proper}}
    ok = (report["min_margin"] is not None
          and not report["violations"]
          and scan["max_violation"] <= SCAN_TOL
          and raw < -monotones.MARGIN_TOL and proper >= -args.tol)
    return cert, ok


def _verify_args_error(args):
    """Why the verify arguments cannot run, or None."""
    if args.trials < 1:
        return f"--trials must be at least 1, got {args.trials}"
    if args.suite == "monotone" and args.trials > states.TRIAL_INDICES:
        return f"--trials must be at most 2**32 for verify monotone, got {args.trials}"
    if args.suite == "algebra" and args.trials < lsl_qutrit.ALGEBRA_MIN_TRIALS:
        return (f"verify algebra needs --trials {lsl_qutrit.ALGEBRA_MIN_TRIALS} or more, "
                f"got {args.trials}")
    if args.seed < 0:
        return f"--seed must be non-negative, got {args.seed}"
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not 1 <= args.workers <= cpus:
        return f"--workers must be 1 to {cpus} (CPUs this process may use), got {args.workers}"
    if args.workers > 1 and args.suite != "monotone":
        return (f"--workers {args.workers} belongs to verify monotone alone; "
                f"verify {args.suite} runs in one process")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        return f"--tol must be a finite non-negative number, got {args.tol}"
    if args.tol is not None and VERIFY_SUITES[args.suite] is None:
        return f"--tol does not apply to verify {args.suite}, whose tolerances are fixed"
    if args.functional is not None and args.suite != "monotone":
        return f"--functional belongs to verify monotone alone, not verify {args.suite}"
    return None


def cmd_verify(args):
    problem = _verify_args_error(args)
    if problem:
        return _error(problem)
    if args.tol is None:
        args.tol = VERIFY_SUITES[args.suite]
    cert, ok = globals()[f"_verify_{args.suite}"](args)  # argparse allows only these
    report = {"suite": args.suite, "seed": args.seed, "trials": args.trials,
              "passed": bool(ok), "certificate": cert}
    if not ok:
        print(f"violation: the {args.suite} suite did not pass; "
              "the report holds its certificate", file=sys.stderr)
    return _emit(report, args.out, EXIT_OK if ok else EXIT_VIOLATION)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qutrit-invariants",
        description="Polynomial invariants and entanglement monotones for "
                    "mixed two-qutrit and two-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit seed echoed into the output")
        p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("invariants", help="evaluate invariants on a state file")
    p.add_argument("state", help="JSON state file")
    common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("count", help="invariant-count tables")
    p.add_argument("family", choices=[*counting.MAX_DEGREE, "graded"])
    p.add_argument("--dim", type=int, default=3, choices=[2, 3])
    p.add_argument("--max", type=int, default=None, help="maximum degree")
    p.add_argument("--pqs", help="single grading for the graded family, e.g. 004")
    p.add_argument("--nonzero", action="store_true",
                   help="suppress zero rows in the lsl table")
    common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify", help="run an identity/property suite")
    p.add_argument("suite", choices=list(VERIFY_SUITES))
    p.add_argument("--functional", choices=sorted(monotones.MONOTONE_FUNCTIONALS),
                   help="monotone functional of the monotone suite (default C3)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=None,
                   help="override the default tolerance")
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    """Run one command line and return its exit code.  A stdout whose reader
    has gone is an input error, as an unwritable ``--out`` is."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        return _error(f"cannot write the report to stdout: {exc.strerror or exc}")
    return code


def entry():
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the refused text stays buffered: on os.devnull, fd 1 takes it at the
        # interpreter's last flush, which would otherwise print a warning
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
