"""Command-line front end: compile, verify, gap, pea, count.

Exit codes: 0 success, 2 infeasible strategy or command-line usage error
(including inputs a command cannot run, reported in one line), 3
verification mismatch, 4 unresolved peaks.  All sampling flows from
--seed; identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from .bcs import _zz_phases, load_model, spectrum_to_csv
from .builders import STRATEGY_NAMES, InfeasibleStrategyError, build_uzz, strategy_from_name
from .hybrid import EntangledBusError
from .pea import (PEAConfig, UnresolvedPeaksError, estimate_gap, gap_spectrum, resolve_tau,
                  result_to_json, run_pea, substeps_for_target)
from .resources import ResourceReport, ReportRow, crossover_n, max_n_for_budget, verify_counts
from .sequence import MAX_QUBITS, count_ops, effective_unitary, load_sequence, save_sequence

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3
EXIT_UNRESOLVED = 4


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _usage_error(command: str, exc: ValueError | str) -> int:
    """Report an input the command cannot run in one line; exit code 2."""
    print(f"qubusim {command}: error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _positive(kind, below: float = math.inf):
    """argparse type: a number of the given kind in (0, below)."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < below:
            raise argparse.ArgumentTypeError(f"must lie in (0, {below:g}), got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" message reads it
    return parse


def cmd_compile(args) -> int:
    model = load_model(args.model)
    try:
        strategy = strategy_from_name(args.strategy, args.p)
    except ValueError as exc:
        return _usage_error("compile", exc)
    try:
        seq = build_uzz(model.v, strategy)
    except InfeasibleStrategyError as exc:
        print(f"infeasible strategy: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.out:
        save_sequence(seq, args.out)
    else:
        from .sequence import sequence_to_json

        _write(json.dumps(sequence_to_json(seq), sort_keys=True, indent=1) + "\n", None)
    counts = count_ops(seq)
    print(f"compiled {args.strategy}: {counts['bus']} bus operations, "
          f"{counts['local']} locals", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    model = load_model(args.model)
    try:
        seq = load_sequence(args.sequence)
    except ValueError as exc:
        print(f"FAIL: invalid sequence ({exc})")
        return EXIT_VERIFY_FAILED
    if seq.num_qubits != model.n_modes:
        print(f"FAIL: sequence acts on {seq.num_qubits} qubits, model has {model.n_modes} modes")
        return EXIT_VERIFY_FAILED
    if seq.num_qubits > MAX_QUBITS:
        return _usage_error("verify", f"sequence acts on {seq.num_qubits} qubits, "
                                      f"beyond the simulator's {MAX_QUBITS}")
    # exp(i sum_{m<l} V[m,l]/2 Z_m Z_l), the target of a compiled coupling
    target = np.diag(np.exp(1j * _zz_phases(model.v.v)))
    try:
        u = effective_unitary(seq, seq.num_qubits)
    except EntangledBusError as exc:
        print(f"FAIL: bus does not disentangle ({exc})")
        return EXIT_VERIFY_FAILED
    phase = np.trace(target.conj().T @ u)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    dev = float(np.max(np.abs(u - phase * target)))
    tol = args.tol
    status = "PASS" if dev < tol else "FAIL"
    print(f"{status}: max deviation {dev:.3e} (tolerance {tol:g})")
    return EXIT_OK if dev < tol else EXIT_VERIFY_FAILED


def cmd_gap(args) -> int:
    model = load_model(args.model)
    want_pea = args.method in ("pea", "both")
    try:
        if want_pea:
            cfg = PEAConfig(k=args.k, tau=args.tau, trotter_order=args.order,
                            shots=args.shots, seed=args.seed)
            tau = resolve_tau(model, cfg)
        spec = gap_spectrum(model)
    except ValueError as exc:
        return _usage_error("gap", exc)
    if want_pea:
        if args.substeps is not None:
            cfg.trotter_substeps = args.substeps
        else:
            try:
                cfg.trotter_substeps = substeps_for_target(model, tau, args.k, args.order)
            # ValueError: the error is not computable here; RuntimeError: no count meets it.
            except (ValueError, RuntimeError) as exc:
                return _usage_error("gap", f"{exc}; give --substeps")
    exact = float(spec.eigenvalues[1] - spec.eigenvalues[0])
    if args.spectrum_out:
        with open(args.spectrum_out, "w") as fh:
            fh.write(spectrum_to_csv(spec))
    lines = [f"exact gap: {exact!r}"]
    code = EXIT_OK
    if want_pea:
        res = run_pea(model, cfg)
        if res.gap_estimate is not None:
            lines.append(f"pea gap: {res.gap_estimate!r} +- {res.resolution_energy!r}")
            lines.append("peak phases: " + ", ".join(f"{p!r} (w={w:.4f})" for p, w in res.phases[:2]))
        else:
            try:
                estimate_gap(res)    # raises, with the reason the peaks are unresolved
            except UnresolvedPeaksError as exc:
                lines.append(f"pea gap: unresolved peaks ({exc})")
                code = EXIT_UNRESOLVED
    _write("\n".join(lines) + "\n", args.out)
    return code


def cmd_pea(args) -> int:
    model = load_model(args.model)
    try:
        cfg = PEAConfig(k=args.k, tau=args.tau, trotter_order=args.order,
                        trotter_substeps=args.substeps,
                        shots=args.shots, seed=args.seed)
        resolve_tau(model, cfg)
        gap_spectrum(model)  # the initial state superposes its lowest two levels
    except ValueError as exc:
        return _usage_error("pea", exc)
    res = run_pea(model, cfg)
    _write(json.dumps(result_to_json(res), sort_keys=True, indent=1) + "\n", args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    delta = args.delta
    try:
        max_nn = max_n_for_budget("nn", args.budget, delta)
        max_general = max_n_for_budget("general", args.budget, delta)
    except ValueError as exc:
        return _usage_error("count", exc)
    if args.verify_counts:
        report = verify_counts(seed=7 if args.seed is None else args.seed)
    else:
        report = ResourceReport()
    report.rows.append(ReportRow("crossover", n=crossover_n()))
    report.rows.append(ReportRow("maxN_nn", n=max_nn, delta=delta))
    report.rows.append(ReportRow("maxN_general", n=max_general, delta=delta))
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _write(text, args.out)
    mismatches = report.mismatches()
    if mismatches:
        print(f"{len(mismatches)} count mismatches", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubusim",
        description="Compile, verify, and cost out bus-mediated qubit circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a coupled-spin evolution to bus operations")
    c.add_argument("--model", required=True)
    c.add_argument("--strategy", default="carryover", choices=STRATEGY_NAMES)
    c.add_argument("--p", type=int, default=None, help="interaction range for fixed-range")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compile)

    v = sub.add_parser("verify", help="check a compiled sequence against its model")
    v.add_argument("--model", required=True)
    v.add_argument("--sequence", required=True)
    v.add_argument("--tol", type=_positive(float), default=1e-9)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gap", help="energy gap, exactly and/or by phase estimation")
    g.add_argument("--model", required=True)
    g.add_argument("--method", default="both", choices=["exact", "pea", "both"])
    g.add_argument("--k", type=_positive(int), default=6)
    g.add_argument("--tau", type=_positive(float), default=None)
    g.add_argument("--order", type=int, default=2, choices=[1, 2])
    g.add_argument("--substeps", type=_positive(int), default=None)
    g.add_argument("--shots", type=_positive(int), default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--spectrum-out", default=None,
                   help="also write the sector spectrum as index,eigenvalue CSV")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gap)

    p = sub.add_parser("pea", help="full phase-estimation run, JSON result")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=_positive(int), default=4)
    p.add_argument("--tau", type=_positive(float), default=None)
    p.add_argument("--order", type=int, default=2, choices=[1, 2])
    p.add_argument("--substeps", type=_positive(int), default=1)
    p.add_argument("--shots", type=_positive(int), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pea)

    n = sub.add_parser("count", help="resource tables: formulas vs compiled counts")
    n.add_argument("--verify-counts", action="store_true")
    n.add_argument("--budget", type=_positive(float), default=6e6)
    n.add_argument("--delta", type=_positive(float, below=1.0), default=2 * np.pi / 2**10)
    n.add_argument("--seed", type=int, default=None)
    n.add_argument("--format", default="csv", choices=["csv", "json"])
    n.add_argument("--out", default=None)
    n.set_defaults(func=cmd_count)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
