"""Span recorder for the traced benchmark run.

The traced run wraps the functions that one qubusim layer calls in another
(see TARGETS).  A wrapper replaces every binding of the original function
object in the loaded ``qubusim`` modules, so it sees calls made through a
``from .x import f`` name, through a function-local import and from inside
the defining module alike.  Each call records a span: name, start, end and
the id of the enclosing span.  Spans are kept in memory, in flat arrays, and
written once at the end.

Self time is a span's duration minus the time covered by its child spans.
Calls, times and counters are reported per traced round (layer_metrics), so
they can be compared across commits and hosts.
Counters (branch counts, emitted displacements, ...) are read from call
arguments and results by hooks that run outside every span: a virtual clock
that stops while a hook runs keeps their cost out of all span times.
Branch counts are read through ``qubusim.hybrid.to_debug_json``, never from
``HybridState`` fields, so an internal change of representation does not
break the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# ---------------------------------------------------------------------------
# Hooks: counters read from the arguments and result of one call.
# ---------------------------------------------------------------------------


def _branch_count(state) -> int:
    from qubusim.hybrid import to_debug_json

    return len(to_debug_json(state)["branches"])


def _hook_effective_unitary(tr, parent, args, kwargs, result):
    seq = args[0] if args else kwargs["seq"]
    cols = 2 ** seq.num_qubits
    tr.add("sequence.effective_unitary.columns", cols)
    tr.add("sequence.effective_unitary.instr_columns", cols * len(seq.instructions))


def _hook_apply(kind):
    def hook(tr, parent, args, kwargs, result):
        b_in = _branch_count(args[0])
        b_out = _branch_count(result)
        tr.add("hybrid.branch_steps", b_in)
        tr.peak("hybrid.peak_branches", b_out)
        if kind == "local":
            tr.add("hybrid.local_branches_in", b_in)
            tr.add("hybrid.local_branches_out", b_out)
    return hook


def _hook_norm(tr, parent, args, kwargs, result):
    b = _branch_count(args[0])
    tr.add("hybrid.overlap_pairs", b * b)
    tr.peak("hybrid.peak_branches", b)


def _hook_uzz(tr, parent, args, kwargs, result):
    # Only the zz schedules the benchmark operation compiles directly, whose
    # closed-form counts are bus counts; nested builder calls and compiles
    # inside other layers (pea, resources) are not counted.
    if parent == DIRECT:
        from qubusim.sequence import Displace

        tr.add("builders.bus_ops_emitted",
               sum(1 for ins in result.instructions if isinstance(ins, Displace)))


def _hook_verify_counts(tr, parent, args, kwargs, result):
    tr.add("resources.verify_counts.rows", len(result.rows))
    tr.add("resources.verify_counts.mismatches", len(result.mismatches()))


# Span name of one benchmark operation (see run.run_op).
DIRECT = "op"


def _compile_label(base: str, by_strategy: bool = False):
    """Span label of a builder: `base[.<strategy>]` for a compile the
    operation makes itself, `base.nested` for one made inside another span
    (verify_counts, make_controlled, build_pea, ...).  So the per-strategy
    times cover the same compiles as builders.bus_ops_emitted."""
    def label(parent, args, kwargs) -> str:
        if parent != DIRECT:
            return base + ".nested"
        if not by_strategy:
            return base
        strategy = args[1] if len(args) > 1 else kwargs["strategy"]
        name = type(strategy).__name__
        return base + "." + "".join(
            "-" + c.lower() if c.isupper() and i else c.lower() for i, c in enumerate(name))
    return label


# (defining module, function, span label or None, modules whose binding is
#  wrapped or None for all, hook).  Simulator spans (hybrid.*) are taken only
#  as called from qubusim.sequence; IR helpers such as count_ops are not
#  spans, because every layer uses them for bookkeeping.
TARGETS = [
    ("qubusim.cli", "main", None, None, None),
    ("qubusim.pea", "run_pea", None, None, None),
    ("qubusim.pea", "build_pea", None, None, None),
    ("qubusim.pea", "substeps_for_target", None, None, None),
    ("qubusim.pea", "estimate_gap", None, None, None),
    ("qubusim.bcs", "exact_spectrum", None, None, None),
    ("qubusim.bcs", "trotter_error", None, None, None),
    ("qubusim.builders", "build_uzz", _compile_label("builders.build_uzz", True), None, _hook_uzz),
    ("qubusim.builders", "make_controlled", _compile_label("builders.make_controlled"), None, None),
    ("qubusim.builders", "build_trotter_step", None, None, None),
    ("qubusim.sequence", "execute", None, None, None),
    ("qubusim.sequence", "effective_unitary", None, None, _hook_effective_unitary),
    ("qubusim.hybrid", "apply_displacement", None, ("qubusim.sequence",), _hook_apply("disp")),
    ("qubusim.hybrid", "apply_local", None, ("qubusim.sequence",), _hook_apply("local")),
    ("qubusim.hybrid", "merge_branches", None, ("qubusim.sequence",), None),
    ("qubusim.hybrid", "norm", None, None, _hook_norm),
    ("qubusim.resources", "verify_counts", None, None, _hook_verify_counts),
]

STRATEGIES = ("naive", "stepwise", "carryover", "limited", "fixed-range")

# Per-layer metric -> (unit, source).  Sources: ("calls" | "s" | "self_s",
# span name) read from span statistics, ("prefix_calls", layer prefix),
# ("count" | "peak", counter) and ("ratio", out counter, in counter).
# Calls, times and counts are per traced round; peaks and ratios are not.
PER_ROUND = ("calls", "s", "self_s", "prefix_calls", "count")
PER_LAYER = {
    "op.s": ("s/round", ("s", "op")),
    "sequence.calls": ("count/round", ("prefix_calls", "sequence.")),
    "hybrid.calls": ("count/round", ("prefix_calls", "hybrid.")),
    "cli.main.self_s": ("s/round", ("self_s", "cli.main")),
    "sequence.effective_unitary.calls": ("count/round", ("calls", "sequence.effective_unitary")),
    "sequence.effective_unitary.s": ("s/round", ("s", "sequence.effective_unitary")),
    "sequence.effective_unitary.self_s": ("s/round", ("self_s", "sequence.effective_unitary")),
    "sequence.effective_unitary.columns":
        ("count/round", ("count", "sequence.effective_unitary.columns")),
    "sequence.effective_unitary.instr_columns":
        ("count/round", ("count", "sequence.effective_unitary.instr_columns")),
    "sequence.execute.s": ("s/round", ("s", "sequence.execute")),
    "hybrid.apply_displacement.s": ("s/round", ("s", "hybrid.apply_displacement")),
    "hybrid.apply_local.s": ("s/round", ("s", "hybrid.apply_local")),
    "hybrid.merge_branches.s": ("s/round", ("s", "hybrid.merge_branches")),
    "hybrid.norm.s": ("s/round", ("s", "hybrid.norm")),
    "hybrid.overlap_pairs": ("count/round", ("count", "hybrid.overlap_pairs")),
    "hybrid.peak_branches": ("count", ("peak", "hybrid.peak_branches")),
    "hybrid.branch_steps": ("count/round", ("count", "hybrid.branch_steps")),
    "hybrid.local_merge_ratio":
        ("ratio", ("ratio", "hybrid.local_branches_out", "hybrid.local_branches_in")),
    "bcs.exact_spectrum.calls": ("count/round", ("calls", "bcs.exact_spectrum")),
    "bcs.exact_spectrum.s": ("s/round", ("s", "bcs.exact_spectrum")),
    "bcs.trotter_error.calls": ("count/round", ("calls", "bcs.trotter_error")),
    "bcs.trotter_error.self_s": ("s/round", ("self_s", "bcs.trotter_error")),
    "pea.run_pea.self_s": ("s/round", ("self_s", "pea.run_pea")),
    "pea.build_pea.self_s": ("s/round", ("self_s", "pea.build_pea")),
    "pea.build_pea.calls": ("count/round", ("calls", "pea.build_pea")),
    "pea.substeps_for_target.self_s": ("s/round", ("self_s", "pea.substeps_for_target")),
    "pea.estimate_gap.s": ("s/round", ("s", "pea.estimate_gap")),
    **{f"builders.build_uzz.{s}.s": ("s/round", ("s", f"builders.build_uzz.{s}"))
       for s in STRATEGIES},
    "builders.make_controlled.s": ("s/round", ("s", "builders.make_controlled")),
    "builders.build_trotter_step.calls": ("count/round", ("calls", "builders.build_trotter_step")),
    "builders.build_trotter_step.s": ("s/round", ("s", "builders.build_trotter_step")),
    "builders.bus_ops_emitted": ("count/round", ("count", "builders.bus_ops_emitted")),
    "resources.verify_counts.s": ("s/round", ("s", "resources.verify_counts")),
    "resources.verify_counts.rows": ("count/round", ("count", "resources.verify_counts.rows")),
    "resources.verify_counts.mismatches":
        ("count/round", ("count", "resources.verify_counts.mismatches")),
}

# Which end-to-end metric each layer metric should move, on which workload,
# and where no change is predicted.  Later changes cite these rows by name.
# op_tail_s, sim_instr_per_s and bus_ops_per_s are figures of the detail
# record (see run.py), the others metrics with a bound in BENCHMARK.json.
LAYER_MAP = [
    {"layer": "sequence.effective_unitary.{calls,self_s,columns,instr_columns}",
     "moves": ["op_p50_s", "op_tail_s"], "on": ["pea-gap"], "no_change_on": ["compile-audit"]},
    {"layer": "hybrid.{apply_displacement,apply_local,merge_branches}.s (from sequence)",
     "moves": ["op_p50_s"], "on": ["pea-gap", "branch-sim"], "no_change_on": ["compile-audit"]},
    {"layer": "hybrid.{norm.s,overlap_pairs,peak_branches,branch_steps,local_merge_ratio}, "
              "sequence.execute.s",
     "moves": ["sim_instr_per_s", "ops_per_s", "op_tail_s", "peak_rss_mb"], "on": ["branch-sim"],
     "no_change_on": ["compile-audit"]},
    {"layer": "bcs.exact_spectrum.{calls,s}, bcs.trotter_error.{calls,self_s}",
     "moves": ["op_p50_s"], "on": ["pea-gap"], "no_change_on": ["branch-sim"]},
    {"layer": "pea.{run_pea,build_pea,substeps_for_target}.self_s, pea.build_pea.calls, "
              "pea.estimate_gap.s",
     "moves": ["op_p50_s"], "on": ["pea-gap"], "no_change_on": ["compile-audit"]},
    {"layer": "builders.build_uzz.<strategy>.s, builders.make_controlled.s, "
              "builders.build_trotter_step.{calls,s}, builders.bus_ops_emitted",
     "moves": ["bus_ops_per_s", "ops_per_s", "op_p50_s"], "on": ["compile-audit"],
     "no_change_on": ["pea-gap", "branch-sim"]},
    {"layer": "resources.verify_counts.{s,rows,mismatches}",
     "moves": ["op_tail_s"], "on": ["compile-audit"], "no_change_on": ["pea-gap"]},
    {"layer": "trace_overhead_frac", "moves": [], "on": ["pea-gap", "branch-sim", "compile-audit"],
     "no_change_on": []},
]


class Tracer:
    """In-memory span recorder with per-name call, inclusive and self time."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, list] = {}       # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []           # [span id, name, child seconds]
        self._open: dict[str, int] = {}
        self._next_id = 0
        self._hook_s = 0.0
        self._patches: list[tuple] = []

    # -- clock and counters --------------------------------------------------

    def clock(self) -> float:
        """perf_counter with the time spent in hooks taken out."""
        return time.perf_counter() - self._hook_s

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    # -- spans -----------------------------------------------------------------

    def call(self, name: str, func, args=(), kwargs=None, hook=None):
        """Run func(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        start = self.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self._open[name] -= 1
            self._record(frame, parent, start, end)
        if hook is not None:
            t0 = time.perf_counter()
            hook(self, parent[1] if parent else None, args, kwargs, result)
            self._hook_s += time.perf_counter() - t0
        return result

    def _record(self, frame, parent, start, end) -> None:
        sid, name, child_s = frame
        dur = end - start
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_name.append(self._name_ids[name])
        self.span_start.append(start)
        self.span_end.append(end)
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        if self._open[name] == 0:   # outermost span of this name: no double count
            st[1] += dur
        st[2] += dur - child_s
        if parent is not None:
            parent[2] += dur

    # -- wrappers ----------------------------------------------------------------

    def _wrapper(self, label, func, hook):
        tracer = self
        fixed = label if isinstance(label, str) else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if fixed is not None:
                name = fixed
            else:
                name = label(tracer._stack[-1][1] if tracer._stack else None, args, kwargs)
            return tracer.call(name, func, args, kwargs, hook)

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded as absent."""
        self.absent = []
        for module_name, attr, label, via, hook in self.targets:
            full = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(full)
                continue
            func = getattr(module, attr, None)
            if not callable(func):
                self.absent.append(full)
                continue
            if label is None:
                label = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrapper(label, func, hook)
            if via is None:
                holders = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "qubusim" or n.startswith("qubusim."))]
            else:
                holders = [sys.modules[n] for n in via if n in sys.modules]
            patched = 0
            for holder in holders:
                if getattr(holder, attr, None) is func:
                    setattr(holder, attr, wrapper)
                    self._patches.append((holder, attr, func))
                    patched += 1
            if not patched:
                self.absent.append(full)

    def uninstall(self) -> None:
        for holder, attr, func in reversed(self._patches):
            setattr(holder, attr, func)
        self._patches = []

    # -- results -------------------------------------------------------------------

    def value(self, source) -> float:
        kind = source[0]
        if kind in ("calls", "s", "self_s"):
            st = self.stats.get(source[1], [0, 0.0, 0.0])
            return st[("calls", "s", "self_s").index(kind)]
        if kind == "prefix_calls":
            return sum(st[0] for name, st in self.stats.items() if name.startswith(source[1]))
        if kind == "count":
            return self.counters.get(source[1], 0)
        if kind == "peak":
            return self.peaks.get(source[1], 0)
        num = self.counters.get(source[1], 0)
        den = 2 * self.counters.get(source[2], 0)
        return num / den if den else 0.0

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics over `rounds` traced rounds, totals per round."""
        return {name: {"value": self.value(src) / (rounds if src[0] in PER_ROUND else 1),
                       "unit": unit}
                for name, (unit, src) in PER_LAYER.items()}

    def save(self, path) -> None:
        """Write every span (id, parent id, name, start, end) as a compressed npz."""
        import numpy as np

        np.savez_compressed(
            path,
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names),
        )
