"""Schedule builders: counts against closed forms, semantics against oracles."""

import numpy as np
import pytest

from qubusim.bcs import CouplingMatrix
from qubusim.builders import (
    Carryover,
    FixedRange,
    InfeasibleStrategyError,
    Limited,
    Naive,
    NotProductFormError,
    Stepwise,
    build_uzz,
    decompose_limited,
    dense_formula_count,
)
from qubusim.sequence import count_ops, effective_unitary, execute
from qubusim.hybrid import init_state, is_bus_disentangled

from oracles import (
    banded_coupling,
    decompose_limited_reference,
    phase_aligned_distance,
    product_coupling,
    random_dense_coupling,
    zz_diagonal_target,
)

ALL_STRATEGIES = [Naive(), Stepwise(), Carryover()]


def test_dense_counts_match_formulas_n2_to_12():
    rng = np.random.default_rng(41)
    for n in range(2, 13):
        cm = CouplingMatrix(n, random_dense_coupling(n, rng))
        for strategy in ALL_STRATEGIES:
            seq = build_uzz(cm, strategy)
            assert count_ops(seq)["bus"] == dense_formula_count(strategy, n), (n, strategy)
        lim = build_uzz(CouplingMatrix(n, product_coupling(n)), Limited())
        assert count_ops(lim)["bus"] == 4 * n - 4
        for p in range(1, n):
            seq = build_uzz(CouplingMatrix(n, banded_coupling(n, p, rng)), FixedRange(p))
            assert count_ops(seq)["bus"] == 2 * p * n - p * p - p + 2, (n, p)


def test_fixed_range_full_band_equals_carryover_count():
    for n in range(2, 13):
        assert dense_formula_count(FixedRange(n - 1), n) == dense_formula_count(Carryover(), n)


def test_counts_respect_generality_lower_bound():
    for n in range(2, 13):
        bound = n * n - n
        assert dense_formula_count(Stepwise(), n) >= bound
        assert dense_formula_count(Carryover(), n) >= bound


def test_strategies_agree_with_diagonal_target():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            v = random_dense_coupling(n, rng)
            cm = CouplingMatrix(n, v)
            target = zz_diagonal_target(v)
            mats = []
            for strategy in ALL_STRATEGIES:
                u = effective_unitary(build_uzz(cm, strategy), n)
                assert phase_aligned_distance(u, target) < 1e-9, strategy
                mats.append(u)
            for other in mats[1:]:
                assert phase_aligned_distance(mats[0], other) < 1e-9


def test_bus_disentangles_after_every_builder_on_all_bases():
    rng = np.random.default_rng(47)
    n = 4
    cm = CouplingMatrix(n, random_dense_coupling(n, rng))
    for strategy in ALL_STRATEGIES:
        seq = build_uzz(cm, strategy)
        for idx in range(2**n):
            out = execute(seq, init_state(n, format(idx, f"0{n}b")))
            assert is_bus_disentangled(out, 1e-10)
            assert abs(out.branches[0].alpha) < 1e-10


def test_zero_matrix_gives_empty_sequence():
    cm = CouplingMatrix(3, np.zeros((3, 3)))
    for strategy in ALL_STRATEGIES + [Limited(), FixedRange(1)]:
        seq = build_uzz(cm, strategy)
        assert count_ops(seq)["bus"] == 0


def test_naive_skips_zero_pairs():
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = 0.4
    seq = build_uzz(CouplingMatrix(3, v), Naive())
    assert count_ops(seq)["bus"] == 4


def test_carryover_skip_rule_with_missing_coupling():
    # V[1,2] = 0: qubit 2 is skipped in qubit 1's step and covered later.
    rng = np.random.default_rng(53)
    n = 4
    v = random_dense_coupling(n, rng)
    v[1, 2] = v[2, 1] = 0.0
    cm = CouplingMatrix(n, v)
    seq = build_uzz(cm, Carryover())
    assert count_ops(seq)["bus"] <= dense_formula_count(Carryover(), n)
    u = effective_unitary(seq, n)
    assert phase_aligned_distance(u, zz_diagonal_target(v)) < 1e-9


def test_carryover_disconnected_components():
    v = np.zeros((4, 4))
    v[0, 1] = v[1, 0] = 0.7
    v[2, 3] = v[3, 2] = -0.4
    seq = build_uzz(CouplingMatrix(4, v), Carryover())
    assert count_ops(seq)["bus"] == 8
    u = effective_unitary(seq, 4)
    assert phase_aligned_distance(u, zz_diagonal_target(v)) < 1e-10


def test_carryover_chain_shape():
    v = np.ones((3, 3)) - np.eye(3)
    seq = build_uzz(CouplingMatrix(3, v), Carryover())
    qubits = seq.qubits.tolist()
    assert qubits == [0, 1, 2, 0, 2, 2, 1, 2]
    # Each step's active qubit detaches last, so the visit order is the
    # order of the qubits' last displacements.
    last = {q: i for i, q in enumerate(qubits)}
    assert sorted(last, key=last.get) == [0, 1, 2]
    # attached[i]: the qubits the bus is displaced on after displacement i.
    sums = np.cumsum(np.eye(3)[qubits] * seq.betas[:, None], axis=0)
    attached = [set(np.flatnonzero(np.abs(row) > 1e-12).tolist()) for row in sums]
    assert sum(not before for before in [set()] + attached[:-1]) == 1  # one fresh attach
    assert 1 in attached[last[0]] and 2 in attached[last[1]]  # 1 and 2 are carried
    assert not attached[-1]
    assert count_ops(seq)["bus"] == 8
    assert phase_aligned_distance(
        effective_unitary(seq, 3), zz_diagonal_target(v)) < 1e-10


def test_carryover_rebalances_only_the_chain_that_breaks_the_bound():
    # Two disjoint dense blocks, one chain each; only the x40 block breaks
    # the default bound, so each chain compiles as it does on its own.
    rng = np.random.default_rng(433)
    v = np.zeros((7, 7))
    v[:3, :3] = random_dense_coupling(3, rng)
    v[3:, 3:] = 40.0 * (np.ones((4, 4)) - np.eye(4))
    alone = []
    for block in (slice(0, 3), slice(3, 7)):
        w = np.zeros_like(v)
        w[block, block] = v[block, block]
        alone.append(build_uzz(CouplingMatrix(7, w), Carryover()))
    assert alone[0].betas[0] == 1.0 and alone[1].betas[0] != 1.0  # chain starts
    seq = build_uzz(CouplingMatrix(7, v), Carryover())
    assert seq.qubits.tolist() == alone[0].qubits.tolist() + alone[1].qubits.tolist()
    assert seq.betas.tobytes() == np.concatenate([a.betas for a in alone]).tobytes()


def test_carryover_n2_reduces_to_cphase_count():
    v = np.zeros((2, 2))
    v[0, 1] = v[1, 0] = 0.9
    assert count_ops(build_uzz(CouplingMatrix(2, v), Carryover()))["bus"] == 4


def test_decompose_limited_exponential_decay():
    for n in (3, 4, 6):
        v = product_coupling(n)
        a, b = decompose_limited(CouplingMatrix(n, v))
        for m in range(n - 1):
            for l in range(m + 1, n):
                assert abs(v[m, l] - a[m] * b[l]) < 1e-12


def test_decompose_limited_constant_matrix():
    n = 4
    v = np.full((n, n), 0.8)
    np.fill_diagonal(v, 0.0)
    a, b = decompose_limited(CouplingMatrix(n, v))
    for m in range(n - 1):
        for l in range(m + 1, n):
            assert abs(0.8 - a[m] * b[l]) < 1e-12


def test_decompose_limited_rejects_rank_violation():
    v = product_coupling(4)
    v[0, 3] = v[3, 0] = v[0, 3] * 1.5  # break one ratio
    with pytest.raises(NotProductFormError):
        decompose_limited(CouplingMatrix(4, v))


def _limited_patterns(n: int, rng):
    """Symmetric couplings around the product form V[m,l] = a[m] b[l]: dense,
    sparse, with isolated qubits, with zero upper rows, in disconnected
    components, with one entry off the product, and random sparse ones."""
    a = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
    b = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
    dense = np.outer(a, b)
    iso = np.ones(n, dtype=bool)
    iso[rng.choice(n, size=max(1, n // 4), replace=False)] = False
    zero_rows = np.ones((n, 1))
    zero_rows[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
    label = rng.integers(0, 3, n)
    off = dense.copy()
    m, l = sorted(rng.choice(n, 2, replace=False))
    off[m, l] *= 1.0 + rng.uniform(0.01, 0.5)
    uppers = [
        dense,
        np.where(rng.uniform(size=(n, n)) < 0.6, dense, 0.0),
        dense * np.outer(iso, iso),
        dense * zero_rows,
        np.where(label[:, None] == label[None, :], dense, 0.0),
        off,
        np.where(rng.uniform(size=(n, n)) < 0.15, rng.uniform(-1.0, 1.0, (n, n)), 0.0),
        product_coupling(n, decay=rng.uniform(0.1, 2.0)),
    ]
    for upper in uppers:
        upper = np.triu(upper, 1)
        yield upper + upper.T


def test_decompose_limited_matches_the_per_edge_reference_bitwise():
    rng = np.random.default_rng(2424)
    outcomes = {"ok": 0, "error": 0}
    for n in range(2, 61):
        for v in _limited_patterns(n, rng):
            try:
                want = decompose_limited_reference(v)
            except ValueError as err:
                with pytest.raises(NotProductFormError) as got:
                    decompose_limited(CouplingMatrix(n, v))
                assert str(got.value) == str(err)
                outcomes["error"] += 1
                continue
            a, b = decompose_limited(CouplingMatrix(n, v))
            assert a.tobytes() == want[0].tobytes() and b.tobytes() == want[1].tobytes()
            outcomes["ok"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_decompose_limited_rejects_constants_that_overflow():
    # b[2] = V[0,2] = 1e-200, so a[1] = V[1,2] / b[2] = 1e400 is not finite.
    v = np.zeros((3, 3))
    v[0, 1], v[0, 2], v[1, 2] = 1.0, 1e-200, 1e200
    with pytest.raises(NotProductFormError, match="overflow"):
        decompose_limited(CouplingMatrix(3, v + v.T))


def test_limited_semantics_and_supplied_constants():
    n = 5
    v = product_coupling(n, decay=0.7)
    cm = CouplingMatrix(n, v)
    seq = build_uzz(cm, Limited())
    assert count_ops(seq)["bus"] == 4 * n - 4
    assert phase_aligned_distance(
        effective_unitary(seq, n), zz_diagonal_target(v)) < 1e-9
    a, b = decompose_limited(cm)
    seq2 = build_uzz(cm, Limited(tuple(a), tuple(b)))
    assert phase_aligned_distance(
        effective_unitary(seq2, n), zz_diagonal_target(v)) < 1e-9
    with pytest.raises(NotProductFormError):
        build_uzz(cm, Limited(tuple(a * 2), tuple(b)))


def test_fixed_range_rejects_out_of_band():
    rng = np.random.default_rng(59)
    v = random_dense_coupling(4, rng)
    with pytest.raises(InfeasibleStrategyError):
        build_uzz(CouplingMatrix(4, v), FixedRange(1))
    with pytest.raises(InfeasibleStrategyError):
        build_uzz(CouplingMatrix(4, banded_coupling(4, 1, rng)), FixedRange(5))


def test_fixed_range_semantics():
    rng = np.random.default_rng(61)
    for n, p in ((4, 1), (5, 2), (5, 4)):
        v = banded_coupling(n, p, rng)
        seq = build_uzz(CouplingMatrix(n, v), FixedRange(p))
        assert phase_aligned_distance(
            effective_unitary(seq, n), zz_diagonal_target(v)) < 1e-9


def test_metadata_declares_counts():
    rng = np.random.default_rng(67)
    cm = CouplingMatrix(3, random_dense_coupling(3, rng))
    seq = build_uzz(cm, Stepwise())
    assert seq.metadata["strategy"] == "stepwise"
    assert seq.metadata["bus_ops"] == 10
    assert seq.metadata["bus_ops_dense"] == 10


def test_beta_bound_rebalances_large_couplings():
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = 90.0
    v[0, 2] = v[2, 0] = 70.0
    v[1, 2] = v[2, 1] = 80.0
    cm = CouplingMatrix(3, v)
    for strategy in ALL_STRATEGIES:
        seq = build_uzz(cm, strategy, beta_bound=8.0)
        from qubusim.sequence import Displace

        worst = max(abs(i.beta) for i in seq.instructions if isinstance(i, Displace))
        assert worst <= 8.0 + 1e-9, strategy
        assert phase_aligned_distance(
            effective_unitary(seq, 3), zz_diagonal_target(v)) < 1e-9


def test_fast_path_agrees_with_compiled_schedules():
    # the branch simulator on every basis input vs the target by sign enumeration
    rng = np.random.default_rng(271)
    n = 4
    v = random_dense_coupling(n, rng)
    idx = np.arange(2**n)
    want = np.zeros(2**n)
    for m in range(n):
        for l in range(m + 1, n):
            sm = 1 - 2 * ((idx >> (n - 1 - m)) & 1)
            sl = 1 - 2 * ((idx >> (n - 1 - l)) & 1)
            want = want + v[m, l] / 2.0 * sm * sl
    for strategy in ALL_STRATEGIES:
        seq = build_uzz(CouplingMatrix(n, v), strategy)
        for i in range(2**n):
            out = execute(seq, init_state(n, format(i, f"0{n}b")))
            assert len(out.branches) == 1
            assert abs(out.branches[0].coeff - np.exp(1j * want[i])) < 1e-10
            assert abs(out.branches[0].alpha) < 1e-10
