"""qubusim benchmark: one command for every end-to-end and per-layer figure.

    python3 perfbench/run.py --workload pea-gap --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree; the package is imported from ``src/``.
Workloads (see workloads.py): ``pea-gap``, ``branch-sim``, ``compile-audit``.

One process runs a closed loop with one client: the next operation starts
when the previous one returns.  Operations come in rounds of fixed
composition, and rounds run until the timed operations add up to
``--seconds``.  Every output is checked outside the timed region; a failed
check counts in ``failed`` and does not stop the run.

Times are reported in seconds at a reference host speed.  A fixed kernel
(reference_kernel) is timed between operations, and each operation's time
is scaled by REF_KERNEL_S over the median kernel time around it.  On a
shared host the same code can run a third slower for minutes at a time;
the scaling takes that drift out (the ten-seed spreads with and without it
are recorded in CHANGES.md).  Unscaled figures are in the detail record.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics:

* ``setup_s``: import of qubusim (timed in a fresh interpreter) plus input
  generation, median of SETUP_REPS set-ups;
* ``op_p50_s``: median operation time;
* ``ops_per_s``: operations per second of operation time;
* ``peak_rss_mb``: peak resident memory of the process after the loop.

With ``--trace 1`` the loop runs the workload's TRACE_ROUNDS rounds, a fixed
number that does not depend on ``--seconds`` or on speed, each twice: once
plain and once with span wrappers installed (spans.py).  The last line
holds the per-layer metrics, per traced round, plus ``trace_overhead_frac``
(traced over plain operation time, minus one).  Span times are not scaled.

The line before the last is a detail record, also written under
``.perfbench/`` with the spans of a traced run.  It holds the environment,
the failure fraction and figures that vary from seed to seed by design, so
no bound can be set on them: ``op_tail_s`` (the highest percentile with at
least 10 samples beyond it, with that percentile and count; on branch-sim
an operation costs O(B^2) in its branch count, and the tenth-largest of a
few thousand such costs moves by tens of percent with the draw),
``gap_err_bins``, ``sim_instr_per_s`` and ``bus_ops_per_s``.

``--smoke`` runs one operation of each workload, plain and traced.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
TAIL_BEYOND = 10
REF_KERNEL_S = 1.3e-3  # reference_kernel on a quiet 2-core Xeon host at 2.1 GHz
REF_EVERY_S = 0.1      # time the kernel before an operation when this much has passed
REF_REPS = 3
REF_WINDOW_S = 5.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import qubusim; print(time.perf_counter() - t)")


def cap_blas_threads(nproc: int) -> dict:
    """Cap the BLAS thread pools of this process at nproc; call before numpy loads."""
    caps = {}
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        caps[var] = max(1, min(want, nproc))
        os.environ[var] = str(caps[var])
    return caps


def git_commit() -> str:
    """HEAD of the source tree, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():   # do not report an enclosing repository
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(nproc: int, blas: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "loadavg_at_start": loadavg,
        "blas_threads": blas,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Time `import qubusim` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def reference_kernel() -> int:
    """Fixed work of the kind qubusim does: small objects, dicts, complex scalars."""
    import numpy as np  # loaded after cap_blas_threads

    d = {}
    for i in range(1500):
        z = complex(i, 1.0) * np.exp(0.001j * i)
        d[(i, str(i))] = [z, (i, z.real)]
    return len(d)


class SpeedReference:
    """Times reference_kernel between operations to follow the host's speed.

    On a shared host the same code runs up to a third slower for minutes at
    a time.  An interval's time is scaled by REF_KERNEL_S over the median
    kernel time within REF_WINDOW_S of it, which gives seconds at the speed
    where the kernel takes REF_KERNEL_S.
    """

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < REF_EVERY_S:
            return
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.kernel_s.append(t1 - t0)
        self._last = time.perf_counter()

    def scale(self, start: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + REF_WINDOW_S)
        near = self.kernel_s[lo:hi] or self.kernel_s
        return REF_KERNEL_S / statistics.median(near)


def set_up(cls, seed: int, workdir: Path, smoke: bool, ref: SpeedReference | None = None):
    """Build the workload SETUP_REPS times (once in smoke mode).

    Returns the workload and one (start, seconds) interval per build.
    """
    runs = []
    for _ in range(1 if smoke else SETUP_REPS):
        if ref is not None:
            ref.sample(force=True)
        start = time.perf_counter()
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl = cls(seed, workdir, smoke=smoke)
        runs.append((start, t_import + time.perf_counter() - t0))
    return wl, runs


def run_op(op, r: int, tracer=None):
    """Time one operation, then check its output outside the timed region."""
    from workloads import Record

    traced = tracer is not None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
            dt = time.perf_counter() - t0
        else:
            result = tracer.call("op", op.run)
            dt = time.perf_counter() - t0
            span_s = tracer.span_end[-1] - tracer.span_start[-1]
    except Exception as exc:  # a failed operation is counted, not fatal
        return Record(r, op.kind, t0, time.perf_counter() - t0, False,
                      f"{type(exc).__name__}: {exc}", {}, traced)
    try:
        checked = op.check(result)
    except Exception:
        return Record(r, op.kind, t0, dt, False,
                      "check raised " + traceback.format_exc(limit=2), {}, traced)
    extra = checked.extra if tracer is None else {**checked.extra, "span_s": span_s}
    return Record(r, op.kind, t0, dt, checked.ok, "" if checked.ok else checked.error,
                  extra, traced)


def timed_loop(wl, seconds: float, ref: SpeedReference, tracer=None) -> list:
    """Whole rounds until the operation time reaches `seconds`.

    With a tracer the loop runs wl.TRACE_ROUNDS rounds instead, each plain
    and then traced on the same inputs, so that the per-layer figures of two
    runs cover the same operations whatever the speed of code and host.
    """
    records, busy, r = [], 0.0, 0
    while (r < wl.TRACE_ROUNDS) if tracer is not None else (busy < seconds):
        for traced in ((False, True) if tracer is not None else (False,)):
            if traced:
                tracer.install()
            try:
                for op in wl.round(r):
                    ref.sample()
                    rec = run_op(op, r, tracer if traced else None)
                    records.append(rec)
                    busy += rec.seconds
            finally:
                if traced:
                    tracer.uninstall()
        r += 1
    ref.sample(force=True)
    for rec in records:
        rec.scale = ref.scale(rec.start, rec.seconds)
    return records


def tail(values: list) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples the
    maximum is returned with the count of samples beyond it, zero.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def rate(records, seconds=lambda rec: rec.ref_seconds) -> float:
    return len(records) / sum(seconds(rec) for rec in records)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failures(records, finish_errors) -> tuple[int, list]:
    errors = [f"{rec.kind}: {rec.error}" for rec in records if not rec.ok] + finish_errors
    return sum(not rec.ok for rec in records) + len(finish_errors), errors[:5]


def measure(args, env: dict) -> tuple[dict, dict]:
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    ref = SpeedReference()
    with tempfile.TemporaryDirectory(prefix=f"work-{args.workload}-", dir=OUT) as tmp:
        wl, setup_runs = set_up(cls, args.seed, Path(tmp), smoke=False, ref=ref)
        tracer = spans.Tracer() if args.trace else None
        wall0 = time.perf_counter()
        records = timed_loop(wl, args.seconds, ref, tracer)
        wall = time.perf_counter() - wall0
        rss = peak_rss_mb()
        finish_errors = wl.finish(ROOT)
    failed, errors = failures(records, finish_errors)
    plain = [rec for rec in records if not rec.traced]
    op_s = [rec.ref_seconds for rec in plain]
    setup_s = statistics.median(dt * ref.scale(t0, dt) for t0, dt in setup_runs)
    tail_s, tail_pct, beyond = tail(op_s)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "ops": len(records), "rounds": len({rec.round for rec in records}),
        "wall_s": wall, "fail_frac": failed / len(records), "errors": errors,
        "op_tail_s": tail_s, "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
        "op_p50_s_by_kind": {k: statistics.median(rec.ref_seconds for rec in plain if rec.kind == k)
                             for k in sorted({rec.kind for rec in plain})},
        "reference": {"kernel_s": REF_KERNEL_S, "samples": len(ref.kernel_s),
                      "median_kernel_s": statistics.median(ref.kernel_s)},
        "unscaled": {"setup_s": statistics.median(dt for _, dt in setup_runs),
                     "op_p50_s": statistics.median(rec.seconds for rec in plain),
                     "ops_per_s": rate(plain, lambda rec: rec.seconds)},
        **wl.summary([rec for rec in records if rec.traced == bool(args.trace)]),
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "ops_per_s": {"value": rate(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    else:
        traced = [rec for rec in records if rec.traced]
        metrics = tracer.layer_metrics(detail["rounds"])
        metrics["trace_overhead_frac"] = {
            "value": sum(rec.extra["span_s"] * rec.scale for rec in traced if "span_s" in rec.extra)
            / sum(op_s) - 1.0, "unit": "ratio"}
        detail["trace_overhead_with_hooks_frac"] = (
            sum(rec.ref_seconds for rec in traced) / sum(op_s) - 1.0)
        detail["absent_targets"] = tracer.absent
        detail["spans"] = len(tracer.span_start)
        detail["layer_map"] = spans.LAYER_MAP
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, detail


def smoke(args, env: dict) -> tuple[dict, dict]:
    """One operation of each workload, plain and then traced."""
    import spans
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    records, finish_errors, metrics, absent = [], [], {}, set()
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-", dir=OUT) as tmp:
            wl, ((_, setup_s),) = set_up(cls, args.seed, Path(tmp), smoke=True)
            op = wl.round(0)[0]
            tracer = spans.Tracer()
            plain = run_op(op, 0)
            tracer.install()
            try:
                traced = run_op(op, 0, tracer)
            finally:
                tracer.uninstall()
            records += [plain, traced]
            finish_errors += wl.finish(ROOT)
            absent.update(tracer.absent)
            metrics[f"{name}.setup_s"] = {"value": setup_s, "unit": "s"}
            metrics[f"{name}.op_s"] = {"value": plain.seconds, "unit": "s"}
            metrics[f"{name}.spans"] = {"value": len(tracer.span_start), "unit": "count"}
    failed, errors = failures(records, finish_errors)
    detail = {"smoke": True, "seed": args.seed, "env": env, "errors": errors,
              "absent_targets": sorted(absent)}
    result = {"correct": failed == 0 and not absent, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return result, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["pea-gap", "branch-sim", "compile-audit"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one operation per workload, plain and traced")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qubusim" / "__init__.py").is_file():
        print(f"perfbench: no qubusim sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import qubusim

    if Path(qubusim.__file__).resolve().parent != (SRC / "qubusim").resolve():
        print(f"perfbench: imported qubusim from {qubusim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(nproc, blas)
    result, detail = (smoke if args.smoke else measure)(args, env)
    tag = "smoke" if args.smoke else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
