"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def test_smoke_mode_runs_every_workload_plain_and_traced():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    for name in ("pea-gap", "branch-sim", "compile-audit"):
        assert result["metrics"][f"{name}.spans"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pea-gap",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_excludes_child_spans():
    tr = spans.Tracer(targets=[])

    def parent():
        time.sleep(0.01)
        tr.call("child", time.sleep, (0.02,))

    tr.call("parent", parent)
    calls, inclusive, self_s = tr.stats["parent"]
    assert calls == 1
    assert inclusive == pytest.approx(self_s + tr.stats["child"][1], abs=1e-9)
    assert self_s < tr.stats["child"][1]
    # The child ends first; its parent id is the parent's span id.
    assert list(tr.span_id) == [1, 0] and list(tr.span_parent) == [0, -1]


def test_missing_targets_are_reported_absent():
    tr = spans.Tracer(targets=[
        ("qubusim.sequence", "no_such_function", None, None, None),
        ("qubusim.no_such_module", "f", None, None, None),
        ("qubusim.hybrid", "norm", None, ("qubusim.bcs",), None),  # bcs does not bind it
    ])
    tr.install()
    tr.uninstall()
    assert tr.absent == ["qubusim.sequence.no_such_function", "qubusim.no_such_module.f",
                         "qubusim.hybrid.norm"]


def test_wrappers_count_branches_and_are_removed():
    import qubusim.hybrid as hybrid
    import qubusim.sequence as sequence

    original = sequence.apply_local
    tr = spans.Tracer()
    tr.install()
    try:
        assert tr.absent == []
        seq = sequence.GateSequence(2, [sequence.Displace(0, 0.5),
                                        sequence.Local(1, np.eye(2)[::-1])])
        tr.call("op", lambda: hybrid.norm(sequence.execute(seq, hybrid.init_state(2, "00"))))
    finally:
        tr.uninstall()
    assert sequence.apply_local is original
    metrics = tr.layer_metrics(rounds=1)
    assert metrics["hybrid.branch_steps"]["value"] == 2
    assert metrics["hybrid.overlap_pairs"]["value"] == 1
    assert metrics["sequence.execute.s"]["value"] > 0
    assert metrics["builders.bus_ops_emitted"]["value"] == 0
    # Calls, times and counts are per round; peaks are not divided.
    halved = tr.layer_metrics(rounds=2)
    assert halved["hybrid.branch_steps"]["value"] == 1
    assert halved["sequence.execute.s"]["value"] == metrics["sequence.execute.s"]["value"] / 2
    assert halved["hybrid.peak_branches"]["value"] == metrics["hybrid.peak_branches"]["value"]


def test_nested_compiles_are_labelled_apart_from_direct_ones():
    import qubusim
    import qubusim.builders as builders

    rng = np.random.default_rng(4)
    v = np.triu(rng.uniform(0.3, 1.0, (4, 4)), 1)
    coupling = qubusim.CouplingMatrix(4, v + v.T)
    tr = spans.Tracer()
    tr.install()
    try:
        direct = tr.call("op", builders.build_uzz, (coupling, qubusim.Stepwise()))
        tr.call("op", lambda: builders.make_controlled(coupling))
        tr.call("outer", builders.build_uzz, (coupling, qubusim.Naive()))
    finally:
        tr.uninstall()
    assert tr.stats["builders.build_uzz.stepwise"][0] == 1
    assert tr.stats["builders.make_controlled"][0] == 1
    assert "builders.build_uzz.naive" not in tr.stats
    assert tr.stats["builders.build_uzz.nested"][0] >= 1
    emitted = sum(isinstance(ins, qubusim.Displace) for ins in direct.instructions)
    assert tr.counters["builders.bus_ops_emitted"] == emitted


def test_zz_phase_recovery_matches_couplings():
    import qubusim
    from workloads import displacements, zz_phases

    rng = np.random.default_rng(3)
    v = np.triu(rng.uniform(0.3, 1.0, (5, 5)), 1)
    coupling = qubusim.CouplingMatrix(5, v + v.T)
    q, beta = displacements(qubusim.build_uzz(coupling, qubusim.Carryover()))
    pair, net = zz_phases(q, beta, 5)
    assert np.max(np.abs(pair - coupling.v / 2)) < 1e-12
    assert np.max(np.abs(net)) < 1e-12
    # Reversing the schedule negates every pair phase.
    pair_rev, _ = zz_phases(q[::-1], beta[::-1], 5)
    assert np.max(np.abs(pair_rev + coupling.v / 2)) < 1e-12


def test_speed_reference_scales_by_nearby_kernel_times():
    import run

    ref = run.SpeedReference()
    ref.at = [0.0, 1.0, 100.0, 101.0]
    ref.kernel_s = [run.REF_KERNEL_S, run.REF_KERNEL_S, 2 * run.REF_KERNEL_S, 2 * run.REF_KERNEL_S]
    assert ref.scale(0.5, 0.1) == pytest.approx(1.0)
    assert ref.scale(100.2, 0.5) == pytest.approx(0.5)
