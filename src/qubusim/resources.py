"""Closed-form operation counts and the formula-versus-compiler audit.

Every schedule the compiler emits has an exact dense-input cost formula.
_FORMULAS is the one table of them: each kind maps to a function whose
argument names are the parameters it needs (the builders' registry names
the kind of each U_zz schedule and reads its count from here).  This module
evaluates them, composes every whole-run total from them, locates the
crossover against the reference nuclear-spin implementation, and checks
each formula against the instruction count of an actually compiled
sequence (integer equality, no tolerance).

Cost model summary (bus operations + local unitaries):

    zz schedules        2N^2-2N / N^2+N-2 / N^2-N+2 / 4N-4 / 2pN-p^2-p+2
    init step (general) I_G = 2N^2 + 3N + 4
    init step (product) 13N - 8
    init step (range p) I_L = 4pN + 5N - 2p^2 - 2p + 4
    controlled zz       2(N^2 + 7N - 8), axis form 2(N^2 + 8N - 8)
    controlled locals   8N + 4
    evolution, k anc.   P_G = (2^k - 1)(6N^2 + 64N - 40)
                        P_L = (2^k - 1)(12Np - 6p^2 - 6p + 70N - 40)
    Fourier transform   6k - 5
    totals              T = P + S * I + N_FT with S = 0.1 pi / delta
    reference machine   T_NMR = (6 / delta) N^4

The leading-order totals set 2^k = 2 pi / delta, the k that resolves the
precision delta, and drop the Fourier transform, of order log(1/delta):
T = (2 pi / delta) P(N[, p], k=1) + S * I(N[, p]).  Both terms scale as
1/delta, as T_NMR does, so the crossover does not depend on delta; it reads
the nearest-neighbour total (kind "qubus_nn"), the range-p total at p = 1.

The initialization prefactor uses the level-spacing ratio d/Delta = 0.1 as
an input constant; the plain step-count rule pi/delta is exposed separately
by the adiabatic builder.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bcs import BCSModel, CouplingMatrix, _check_integer

__all__ = [
    "CountFormula",
    "ResourceReport",
    "formula_count",
    "formula_value",
    "total_ops",
    "total_ops_precision",
    "crossover_n",
    "max_n_for_budget",
    "verify_counts",
    "LEVEL_SPACING_RATIO",
    "FORMULA_KINDS",
]

LEVEL_SPACING_RATIO = 0.1  # d / Delta, adopted as an input constant


def _check_domain(args: dict) -> None:
    for name in ("N", "p", "k"):
        if name in args:
            _check_integer(name, args[name])
    n, p, k, delta = (args.get(name) for name in ("N", "p", "k", "delta"))
    if n is not None and n < 2:
        raise ValueError("N must be at least 2")
    if p is not None and (p < 1 or (n is not None and p > n - 1)):
        raise ValueError("p must lie in [1, N-1]")
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    if delta is not None and not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


# The count table: one function per kind, whose argument names are the
# parameters that kind needs.
_FORMULAS = {
    "uzz_naive": lambda N: 2 * N**2 - 2 * N,
    "uzz_stepwise": lambda N: N**2 + N - 2,
    "uzz_carryover": lambda N: N**2 - N + 2,
    "uzz_limited": lambda N: 4 * N - 4,
    "uzz_fixed_range": lambda N, p: 2 * p * N - p**2 - p + 2,
    "init_general": lambda N: 2 * N**2 + 3 * N + 4,
    "init_limited": lambda N: 13 * N - 8,
    "init_fixed_range": lambda N, p: 4 * p * N + 5 * N - 2 * p**2 - 2 * p + 4,
    "ctrl_uzz": lambda N: 2 * (N**2 + 7 * N - 8),
    "ctrl_uzz_axis": lambda N: 2 * (N**2 + 8 * N - 8),
    "ctrl_locals": lambda N: 8 * N + 4,
    "pea_general": lambda N, k: (2**k - 1) * (6 * N**2 + 64 * N - 40),
    "pea_limited": lambda N, p, k: (2**k - 1) * (12 * N * p - 6 * p**2 - 6 * p + 70 * N - 40),
    "qft": lambda k: 6 * k - 5,
    "nmr": lambda N, delta: (6.0 / delta) * N**4,
    "qubus_nn": lambda N, delta: total_ops_precision("nn", N, delta),
    "total_general": lambda N, k, delta: total_ops("general", N, k=k, delta=delta),
    "total_limited": lambda N, p, k, delta: total_ops("limited", N, p=p, k=k, delta=delta),
    "total_general_precision": lambda N, delta: total_ops_precision("general", N, delta=delta),
    "total_limited_precision": lambda N, p, delta: total_ops_precision("limited", N, p=p, delta=delta),
}

FORMULA_KINDS = tuple(_FORMULAS)


def formula_value(kind: str, params: dict, check: bool = True):
    """The kind's formula at the parameters it names, read from params
    (other entries are ignored); the integer counts come back as ints.
    check=False skips the domain check, so that any register size (N = 1
    included) has a value."""
    if kind not in _FORMULAS:
        raise ValueError(f"unknown formula kind {kind!r}")
    formula = _FORMULAS[kind]
    args = {}
    for name in formula.__code__.co_varnames[:formula.__code__.co_argcount]:
        if params.get(name) is None:
            raise ValueError(f"formula needs parameter {name!r}")
        args[name] = params[name]
    if check:
        _check_domain(args)
    return formula(**args)


@dataclass(frozen=True)
class CountFormula:
    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValueError(f"unknown formula kind {self.kind!r}")


def formula_count(f: CountFormula) -> float:
    """Exact closed-form evaluation; integer-valued kinds return whole floats."""
    return float(formula_value(f.kind, f.params))


def _count(kind: str, **params) -> float:
    return float(formula_value(kind, params))


def init_steps(delta: float) -> float:
    """Initialization step count S = (d/Delta) pi / delta used in the totals."""
    return LEVEL_SPACING_RATIO * math.pi / delta


def _case(case: str, p: int | None) -> tuple[str, str, int | None]:
    """The whole-run case's evolution and initialization kinds and its range
    p; "nn", the nearest-neighbour chain, is the range-p case at p = 1."""
    if case == "general":
        return "pea_general", "init_general", None
    if case in ("limited", "nn"):
        return "pea_limited", "init_fixed_range", 1 if case == "nn" else p
    raise ValueError("case must be 'general', 'limited' or 'nn'")


def total_ops(case: str, n: int, k: int, delta: float, p: int | None = None) -> float:
    """Whole-run cost: controlled evolution + S initialization steps + QFT."""
    pea, init, p = _case(case, p)
    return (_count(pea, N=n, p=p, k=k) + init_steps(delta) * _count(init, N=n, p=p)
            + _count("qft", k=k))


def total_ops_precision(case: str, n: int, delta: float, p: int | None = None) -> float:
    """Leading-order total (2 pi / delta) P(k=1) + S I: total_ops at
    2^k = 2 pi / delta, without the Fourier transform."""
    pea, init, p = _case(case, p)
    return (2 * math.pi / delta * _count(pea, N=n, p=p, k=1)
            + init_steps(delta) * _count(init, N=n, p=p))


def crossover_n(delta: float = 0.01) -> int:
    """Smallest N where the nearest-neighbour bus total undercuts the
    reference machine; the precision delta cancels between the two."""
    for n in range(2, 1000):
        if _count("qubus_nn", N=n, delta=delta) < _count("nmr", N=n, delta=delta):
            return n
    raise RuntimeError("no crossover below N=1000")


def max_n_for_budget(case: str, budget: float, delta: float, p: int | None = None) -> int:
    """Largest N whose leading-order total stays within the budget.

    The total grows strictly with N, so the search doubles N until the
    total exceeds the budget, then bisects; it has no cap.  It starts at
    the smallest N the case admits, p + 1 for a range p.
    """
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    p = _case(case, p)[2]

    def fits(n: int) -> bool:
        return total_ops_precision(case, n, delta, p=p) <= budget

    lo = 2 if p is None else max(2, p + 1)
    if not fits(lo):
        raise ValueError("budget below the smallest system's cost")
    hi = 2 * lo
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # fits(lo) and not fits(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# Formula-versus-compiler audit
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    case: str
    n: int | None = None
    p: int | None = None
    k: int | None = None
    delta: float | None = None
    formula_count: float | None = None
    compiled_count: int | None = None

    @property
    def relative_gap(self) -> float | None:
        if self.formula_count is None or self.compiled_count is None:
            return None
        if self.formula_count == 0:
            return 0.0 if self.compiled_count == 0 else float("inf")
        return (self.compiled_count - self.formula_count) / self.formula_count


@dataclass
class ResourceReport:
    rows: list[ReportRow] = field(default_factory=list)

    def mismatches(self) -> list[ReportRow]:
        return [r for r in self.rows
                if r.compiled_count is not None and r.compiled_count != r.formula_count]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("case,N,p,k,delta,formula,compiled,gap\n")
        for r in self.rows:
            fields = [
                r.case,
                "" if r.n is None else str(r.n),
                "" if r.p is None else str(r.p),
                "" if r.k is None else str(r.k),
                "" if r.delta is None else f"{r.delta:.10g}",
                "" if r.formula_count is None else f"{r.formula_count:.10g}",
                "" if r.compiled_count is None else str(r.compiled_count),
                "" if r.relative_gap is None else f"{r.relative_gap:.3e}",
            ]
            out.write(",".join(fields) + "\n")
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "case": r.case, "N": r.n, "p": r.p, "k": r.k, "delta": r.delta,
                    "formula": r.formula_count, "compiled": r.compiled_count,
                    "gap": r.relative_gap,
                }
                for r in self.rows
            ],
            indent=1, sort_keys=True,
        )


def _dense_coupling(n: int, rng: np.random.Generator):
    v = rng.uniform(0.3, 1.0, size=(n, n))
    v = (v + v.T) / 2.0
    np.fill_diagonal(v, 0.0)
    return CouplingMatrix(n, v)


def _product_coupling(n: int):
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    v = np.where(dist > 0, np.array([math.exp(-d) for d in range(n)])[dist], 0.0)
    return CouplingMatrix(n, v)


def _banded_coupling(n: int, p: int, rng: np.random.Generator):
    """Uniform [0.3, 1) couplings on 1 <= l - m <= p, drawn in row-major order."""
    v = np.zeros((n, n))
    m, l = np.nonzero(np.triu(np.tri(n, k=p, dtype=bool), 1))
    v[m, l] = v[l, m] = rng.uniform(0.3, 1.0, size=m.size)
    return CouplingMatrix(n, v)


def verify_counts(n_range=range(2, 13), strategies=None,
                  k_range=range(2, 11), seed: int = 7) -> ResourceReport:
    """Compile dense instances and compare instruction counts with formulas.

    strategies defaults to every schedule (builders.STRATEGY_NAMES); the
    fixed-range rows cover every range p in [1, N-1].  Counts are integers;
    rows agree exactly or show up in mismatches().
    """
    from .builders import (_SCHEDULES, STRATEGY_NAMES, FixedRange, Limited,
                           build_qft, build_trotter_step, make_controlled,
                           make_controlled_locals, build_uzz, QftMode, strategy_from_name)
    from .sequence import count_ops

    rng = np.random.default_rng(seed)
    report = ResourceReport()

    def row(kind: str, compiled: int, n=None, p=None, k=None) -> None:
        report.rows.append(ReportRow(
            kind, n=n, p=p, k=k, compiled_count=compiled,
            formula_count=_count(kind, N=n, p=p, k=k)))

    for n in n_range:
        for name in STRATEGY_NAMES if strategies is None else strategies:
            for p in range(1, n) if name == "fixed-range" else (None,):
                strategy = strategy_from_name(name, p)
                if p is not None:
                    v = _banded_coupling(n, p, rng)
                elif name == "limited":
                    v = _product_coupling(n)
                else:
                    v = _dense_coupling(n, rng)
                row(_SCHEDULES[type(strategy)][1], count_ops(build_uzz(v, strategy))["bus"],
                    n=n, p=p)
        for kind, axis in (("ctrl_uzz", "z"), ("ctrl_uzz_axis", "x")):
            seq = make_controlled(_dense_coupling(n, rng), ancilla=0, axis=axis)
            row(kind, count_ops(seq)["total"], n=n)
        phis = rng.uniform(0.1, 1.0, size=n)
        seq = make_controlled_locals(
            [np.diag([np.exp(1j * f), np.exp(-1j * f)]) for f in phis], ancilla=0)
        row("ctrl_locals", count_ops(seq)["total"], n=n)
        # Initialization: operations of one first-order product step.
        model = BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n), _dense_coupling(n, rng))
        row("init_general", count_ops(build_trotter_step(model, 0.1, order=1))["total"], n=n)
        model = BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n), _product_coupling(n))
        step = build_trotter_step(model, 0.1, order=1, strategy=Limited())
        row("init_limited", count_ops(step)["total"], n=n)
        for p in range(1, n):
            model = BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n), _banded_coupling(n, p, rng))
            step = build_trotter_step(model, 0.1, order=1, strategy=FixedRange(p))
            row("init_fixed_range", count_ops(step)["total"], n=n, p=p)
    for k in k_range:
        row("qft", count_ops(build_qft(k, QftMode(measurement_ready=True)))["total"], k=k)
    # Controlled evolution totals for a small instance, per ancilla count.
    n = 3
    for k in (1, 2, 3):
        model = BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n), _dense_coupling(n, rng))
        step = build_trotter_step(model, 0.05, order=2, controlled=0)
        row("pea_general", count_ops(step)["total"] * (2**k - 1), n=n, k=k)
        model = BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n), _banded_coupling(n, 1, rng))
        step = build_trotter_step(model, 0.05, order=2, controlled=0)
        row("pea_limited", count_ops(step)["total"] * (2**k - 1), n=n, p=1, k=k)
    return report
