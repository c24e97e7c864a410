"""Count formulas, totals, crossover, budgets, and the compile audit."""

import math

import numpy as np
import pytest

from qubusim.resources import (
    CountFormula,
    _banded_coupling,
    _product_coupling,
    crossover_n,
    formula_count,
    max_n_for_budget,
    total_ops,
    total_ops_precision,
    verify_counts,
)

from oracles import banded_coupling, product_coupling


def count(kind, **params):
    return formula_count(CountFormula(kind, params))


def test_reference_values():
    assert count("init_general", N=10) == 234
    assert count("pea_general", N=3, k=1) == 206
    assert count("qft", k=4) == 19
    assert count("uzz_fixed_range", N=5, p=2) == 16
    assert count("uzz_fixed_range", N=6, p=1) == 12
    assert count("ctrl_uzz", N=3) == 44
    assert count("ctrl_uzz_axis", N=3) == 50
    assert count("ctrl_locals", N=3) == 28
    assert count("nmr", N=10, delta=0.01) == 6.0e6


def test_domain_validation():
    with pytest.raises(ValueError):
        count("uzz_naive", N=1)
    with pytest.raises(ValueError):
        count("uzz_fixed_range", N=5, p=5)
    with pytest.raises(ValueError):
        count("qft", k=0)
    with pytest.raises(ValueError):
        count("nmr", N=5, delta=1.5)
    with pytest.raises(ValueError):
        CountFormula("warp_drive", {})
    with pytest.raises(ValueError):
        count("pea_general", N=4)  # missing k


def test_fixed_range_full_band_equals_carryover():
    for n in range(2, 51):
        assert count("uzz_fixed_range", N=n, p=n - 1) == count("uzz_carryover", N=n)


def test_totals_composition_vs_precision_form():
    delta = 2 * np.pi / 2**10
    direct = total_ops("general", 10, k=10, delta=delta)
    approx = total_ops_precision("general", 10, delta)
    assert abs(direct - approx) / direct < 0.005


def test_limited_total_reproduces_reported_scale():
    delta = 2 * np.pi / 2**10
    t = total_ops_precision("limited", 10, delta, p=1)
    assert abs(t - 785430) / 785430 < 0.02


def test_nn_coefficient_exact_arithmetic():
    # T at p=1 collapses to (0.1 pi/delta)(1649 N - 1040): coefficient 164.9,
    # slightly above the rounded 164.7 sometimes quoted.
    delta = 0.01
    t = count("qubus_nn", N=10, delta=delta)
    assert t == pytest.approx(0.1 * math.pi / delta * (16490 - 1040))


def test_crossover_is_five_and_delta_independent():
    assert crossover_n() == 5
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        assert crossover_n(delta) == 5
        assert count("qubus_nn", N=4, delta=delta) > count("nmr", N=4, delta=delta)
        assert count("qubus_nn", N=5, delta=delta) < count("nmr", N=5, delta=delta)


def test_max_n_for_budget():
    delta = 2 * np.pi / 2**10
    assert abs(max_n_for_budget("nn", 6e6, delta) - 72) <= 1
    assert abs(max_n_for_budget("general", 6e6, delta) - 26) <= 1
    with pytest.raises(ValueError):
        max_n_for_budget("nn", 1.0, delta)


def test_monotonicity_in_parameters():
    delta = 0.01
    for kind, grid in (
        ("total_general", [dict(N=n, k=6, delta=delta) for n in range(2, 20)]),
        ("total_limited", [dict(N=n, p=1, k=6, delta=delta) for n in range(2, 20)]),
    ):
        vals = [count(kind, **g) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    vals = [count("total_general", N=8, k=k, delta=delta) for k in range(1, 12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    vals = [count("uzz_fixed_range", N=12, p=p) for p in range(1, 12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_verify_counts_no_mismatches():
    report = verify_counts(n_range=range(2, 9), k_range=range(2, 8))
    assert report.rows
    assert report.mismatches() == []


def test_report_serialization():
    report = verify_counts(n_range=range(2, 4), k_range=range(2, 4))
    csv = report.to_csv()
    assert csv.splitlines()[0] == "case,N,p,k,delta,formula,compiled,gap"
    assert "uzz_stepwise" in csv
    js = report.to_json()
    assert '"case"' in js


def test_audit_couplings_match_the_loop_generators_draw_for_draw():
    # The audit's couplings are built from arrays; the loops in oracles draw
    # one uniform per band entry in row-major order.  Equal matrices and an
    # equal next draw mean the array draw consumed the same stream.
    for n in range(1, 14):
        assert np.array_equal(_product_coupling(n).v, product_coupling(n))
        for p in range(1, n + 1):
            rng_a, rng_b = np.random.default_rng(907 + n), np.random.default_rng(907 + n)
            assert np.array_equal(_banded_coupling(n, p, rng_a).v, banded_coupling(n, p, rng_b))
            assert rng_a.uniform() == rng_b.uniform()
