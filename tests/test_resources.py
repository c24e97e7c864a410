"""Count formulas, totals, crossover, budgets, and the compile audit."""

import math
import sys

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


# The paper's hand-expanded leading-order totals, kept here as an oracle
# independent of the count table they are derived from.
def paper_general(n, delta):
    return 0.1 * math.pi / delta * (122 * n**2 + 1283 * n - 796)


def paper_limited(n, p, delta):
    return 0.1 * math.pi / delta * (244 * n * p - 122 * p**2 - 122 * p + 1405 * n - 796)


def paper_nn(n, delta):
    return 0.1 * math.pi / delta * (1649 * n - 1040)


PAPER_DELTAS = (0.5, 0.1, 0.01, 1e-3, 1e-4, 2 * math.pi / 2**6, 2 * math.pi / 2**10)


def test_leading_order_totals_reproduce_the_paper_polynomials():
    def close(derived, paper):
        return abs(derived - paper) <= 1e-12 * paper

    for delta in PAPER_DELTAS:
        for n in range(2, 201):
            assert close(total_ops_precision("general", n, delta), paper_general(n, delta))
            assert close(count("qubus_nn", N=n, delta=delta), paper_nn(n, delta))
            assert total_ops_precision("nn", n, delta) == count("qubus_nn", N=n, delta=delta)
            for p in range(1, n):
                assert close(total_ops_precision("limited", n, delta, p=p),
                             paper_limited(n, p, delta)), (n, p, delta)


def test_leading_order_total_is_the_k1_evolution_plus_initialization():
    # (2^k - 1) P(k=1) + S I at 2^k = 2 pi / delta, read entry by entry.
    delta = 2 * math.pi / 2**10
    s = 0.1 * math.pi / delta
    assert total_ops_precision("general", 7, delta) == pytest.approx(
        2**10 * count("pea_general", N=7, k=1) + s * count("init_general", N=7), rel=1e-15)
    assert total_ops_precision("limited", 7, delta, p=2) == pytest.approx(
        2**10 * count("pea_limited", N=7, p=2, k=1)
        + s * count("init_fixed_range", N=7, p=2), rel=1e-15)


def test_case_lookup():
    assert total_ops("nn", 6, k=4, delta=0.01) == total_ops("limited", 6, k=4, delta=0.01, p=1)
    # The general case has no range; a stray p is not read.
    assert total_ops("general", 6, k=4, delta=0.01, p=9) == total_ops("general", 6, k=4, delta=0.01)
    for fn in (lambda c: total_ops(c, 6, k=4, delta=0.01),
               lambda c: total_ops_precision(c, 6, 0.01),
               lambda c: max_n_for_budget(c, 1e9, 0.01)):
        with pytest.raises(ValueError, match="^case must be"):
            fn("ring")
        with pytest.raises(ValueError, match="needs parameter 'p'"):
            fn("limited")


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


def test_max_n_for_budget_is_the_largest_n_within_budget():
    # Brackets the answer with the paper's polynomials, past the old
    # N = 99,999 cap of a linear scan, up to budgets where one more mode
    # still changes the total by more than its rounding.
    for delta in (0.05, 2 * math.pi / 2**10, 1e-4):
        for budget in (3e7, 2e8, 1e12, 1e15):
            for case, cost in (("nn", lambda n: paper_nn(n, delta)),
                               ("general", lambda n: paper_general(n, delta)),
                               ("limited", lambda n: paper_limited(n, 3, delta))):
                n = max_n_for_budget(case, budget, delta, p=3)
                assert cost(n) <= budget < cost(n + 1), (case, budget, delta)
    assert max_n_for_budget("nn", 1e12, 1e-4) == 193032
    assert max_n_for_budget("nn", 1e30, 0.01) > 10**20
    assert max_n_for_budget("general", sys.float_info.max, 0.01) > 10**150


def test_max_n_for_budget_starts_at_the_smallest_admitted_n():
    delta = 0.01
    # Between the range-3 total's values at N = 2 and at N = 4, its smallest
    # admitted size: no system fits.
    budget = (paper_limited(2, 3, delta) + paper_limited(4, 3, delta)) / 2
    with pytest.raises(ValueError, match="budget below"):
        max_n_for_budget("limited", budget, delta, p=3)
    assert max_n_for_budget("limited", paper_limited(4, 3, delta) * (1 + 1e-12), delta, p=3) == 4
    with pytest.raises(ValueError, match=r"p must lie in \[1, N-1\]"):
        max_n_for_budget("limited", 1e9, delta, p=0)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf")])
def test_max_n_for_budget_rejects_a_non_finite_budget(budget):
    with pytest.raises(ValueError, match="^budget must be finite"):
        max_n_for_budget("nn", budget, 0.01)


@pytest.mark.parametrize("kind, params, name", [
    ("uzz_naive", {"N": 2.5}, "N"),
    ("uzz_naive", {"N": 4.0}, "N"),
    ("uzz_naive", {"N": True}, "N"),
    ("qft", {"k": 2.5}, "k"),
    ("qft", {"k": True}, "k"),
    ("uzz_fixed_range", {"N": 5, "p": 1.5}, "p"),
    ("nmr", {"N": 5.0, "delta": 0.01}, "N"),
])
def test_count_parameters_must_be_integers(kind, params, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        formula_count(CountFormula(kind, params))


def test_numpy_integer_parameters_are_accepted():
    assert count("uzz_fixed_range", N=np.int64(5), p=np.int32(2)) == 16
    assert count("qft", k=np.int64(4)) == 19
    assert count("nmr", N=np.int64(10), delta=np.float64(0.01)) == 6.0e6


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
