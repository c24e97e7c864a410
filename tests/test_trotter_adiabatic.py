"""Product-formula steps and the quasi-adiabatic initializer."""

import numpy as np
import pytest

from qubusim import builders
from qubusim.bcs import (BCSModel, CouplingMatrix, exact_evolution, exact_spectrum, product_formula,
                         trotter_error)
from qubusim.builders import (
    Carryover,
    FixedRange,
    Limited,
    Naive,
    Stepwise,
    adiabatic_steps,
    build_adiabatic_init,
    build_trotter_step,
    build_uzz,
    make_controlled_locals,
    trotter_factors,
)
from qubusim.sequence import GateSequence, _concat, _joined, count_ops, effective_unitary, sequence_to_json

from oracles import (banded_coupling, compiled_trotter_error, product_coupling,
                     random_dense_coupling)


def random_model(n, rng, r=1.0):
    return BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n),
                    CouplingMatrix(n, random_dense_coupling(n, rng)), r=r)


def test_commuting_model_is_exact_for_any_tau():
    model = BCSModel(2, 1, np.array([1.0, 2.0]), CouplingMatrix(2, np.zeros((2, 2))))
    assert trotter_error(model, 1.7, 1, order=1) < 1e-10
    assert trotter_error(model, 1.7, 1, order=2) < 1e-10


def test_single_step_error_scaling():
    rng = np.random.default_rng(127)
    model = random_model(2, rng)
    # per-step error: order 2 is O(tau^3) -> ratio ~8, order 1 O(tau^2) -> ~4
    tau = 0.05
    e2 = [trotter_error(model, t, 1, order=2) for t in (tau, tau / 2)]
    assert e2[0] / e2[1] == pytest.approx(8.0, rel=0.2)
    e1 = [trotter_error(model, t, 1, order=1) for t in (tau, tau / 2)]
    assert e1[0] / e1[1] == pytest.approx(4.0, rel=0.2)


def test_fixed_total_time_error_scaling():
    rng = np.random.default_rng(131)
    model = random_model(2, rng)
    t = 0.4
    for order, ideal, tol in ((2, 4.0, 0.8), (1, 2.0, 0.4)):
        errs = [trotter_error(model, t, s, order=order) for s in (8, 16)]
        assert errs[0] / errs[1] == pytest.approx(ideal, abs=tol)


def test_trotter_factor_layout():
    rng = np.random.default_rng(137)
    model = random_model(2, rng)
    u = effective_unitary(build_trotter_step(model, 0.1, order=2), 2)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
    assert np.linalg.norm(u - exact_evolution(model, 0.1), 2) < 1e-3
    # second order spends more operations than first
    c1 = count_ops(build_trotter_step(model, 0.1, order=1))["total"]
    c2 = count_ops(build_trotter_step(model, 0.1, order=2))["total"]
    assert c2 > c1
    with pytest.raises(ValueError):
        build_trotter_step(model, 0.1, order=3)
    with pytest.raises(ValueError):
        build_trotter_step(model, -0.1, order=2)


@pytest.mark.parametrize("n", range(2, 8))
def test_factor_product_matches_whole_step_fold(n):
    # Every factor returns the bus to rest, so the product of the folded
    # factors, each distinct one folded once, is the fold of the step,
    # global phase included.
    rng = np.random.default_rng(160 + n)
    for r, scale in ((1.0, 1.0), (0.6, 1.0), (1.0, 0.37), (0.6, 0.37)):
        model = random_model(n, rng, r=r)
        for order in (1, 2):
            for controlled in (None, 0):
                strategy = Carryover() if controlled is None else None
                args = (model, 0.3, order, controlled, strategy, scale)
                width = n if controlled is None else n + 1
                whole = effective_unitary(build_trotter_step(*args), width)
                folded = {}
                product = np.eye(2**width)
                for factor in trotter_factors(*args):
                    if id(factor) not in folded:
                        folded[id(factor)] = effective_unitary(factor, width)
                    product = folded[id(factor)] @ product
                assert np.max(np.abs(product - whole)) <= 1e-12


def test_step_is_the_concatenation_of_its_factors():
    model = random_model(3, np.random.default_rng(163), r=0.6)
    for order, layout in ((1, [0, 1, 2]), (2, [0, 1, 2, 1, 0])):
        for controlled in (None, 0):
            factors = trotter_factors(model, 0.2, order, controlled)
            distinct = list({id(f): f for f in factors}.values())
            assert [distinct.index(f) for f in factors] == layout
            step = build_trotter_step(model, 0.2, order, controlled)
            assert step.num_qubits == factors[0].num_qubits
            assert step.metadata == {"strategy": f"trotter-{order}"}
            assert sequence_to_json(step)["instructions"] == [
                item for f in factors for item in sequence_to_json(f)["instructions"]]
    # In one step, the two copies of a repeated factor share their instructions.
    step = build_trotter_step(model, 0.2, 2)
    u0 = len(trotter_factors(model, 0.2, 2)[0].instructions)
    assert all(x is y for x, y in zip(step.instructions[:u0], step.instructions[-u0:]))


def _counting_uzz(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_uzz(*args, **kwargs)

    monkeypatch.setattr(builders, "build_uzz", counted)
    return calls


@pytest.mark.parametrize("r, per_step", [(1.0, 1), (0.8, 2)])
def test_one_zz_schedule_per_coupling_scale(monkeypatch, r, per_step):
    model = random_model(4, np.random.default_rng(181), r=r)
    calls = _counting_uzz(monkeypatch)
    for strategy in (Carryover(), Stepwise()):
        factors = trotter_factors(model, 0.3, 1, strategy=strategy)
        assert len(calls) == per_step
        # At r = 1 both coupling factors are the same schedule in two bases.
        assert (factors[1].qubits is factors[2].qubits) == (per_step == 1)
        calls.clear()
    build_trotter_step(model, 0.3, 1)
    assert len(calls) == per_step
    calls.clear()
    build_adiabatic_init(model, 5, 0.3)
    assert len(calls) == 5 * per_step
    calls.clear()
    # Second order: xx at tau/2 and yy at tau never share a scale.
    build_trotter_step(model, 0.3, 2)
    assert len(calls) == 2


def _gate_bytes(seq) -> list:
    return [(cut, type(g), getattr(g, "qubit", None), g.label,
             g.u.tobytes() if hasattr(g, "u") else None) for cut, g in seq.gates]


def test_joined_sequences_equal_their_validated_form():
    model = random_model(3, np.random.default_rng(191), r=0.7)
    joined = [(build_trotter_step(model, 0.2, order, controlled),
               trotter_factors(model, 0.2, order, controlled))
              for order in (1, 2) for controlled in (None, 1)]
    adiabatic = build_adiabatic_init(model, 3, 0.2)
    joined.append((adiabatic, [build_trotter_step(model, 0.2, 1, coupling_scale=j / 3)
                               for j in (1, 2, 3)]))
    for seq, parts in joined:
        want = GateSequence._of(*_joined(parts))
        assert seq.num_qubits == want.num_qubits
        assert seq.qubits.tobytes() == want.qubits.tobytes() and seq.qubits.dtype == np.intp
        assert seq.betas.tobytes() == want.betas.tobytes() and seq.betas.dtype == complex
        assert _gate_bytes(seq) == _gate_bytes(want)
        assert count_ops(seq) == count_ops(want)
        assert not (seq.qubits.flags.writeable or seq.betas.flags.writeable)


def test_extend_keeps_the_counts():
    model = random_model(3, np.random.default_rng(193))
    seq = build_uzz(model.v, Naive())
    ops = count_ops(seq)
    wider = make_controlled_locals([np.eye(2)] * 3, ancilla=0)
    step = build_trotter_step(model, 0.2, 2)
    seq.extend(step)
    assert seq.metadata["bus_ops"] == len(seq.qubits) == ops["bus"] + len(step.qubits)
    assert count_ops(seq)["local"] == ops["local"] + count_ops(step)["local"]
    assert count_ops(seq) == count_ops(GateSequence._of(*_joined([build_uzz(model.v, Naive()),
                                                                   step])))
    for join in (lambda: seq.extend(wider), lambda: _concat([step, wider], {})):
        with pytest.raises(ValueError, match="register sizes differ"):
            join()
    assert seq.metadata["bus_ops"] == len(seq.qubits)


def test_trotter_error_rejects_exact_of_the_wrong_shape():
    rng = np.random.default_rng(167)
    model = random_model(3, rng)
    for bad in (exact_evolution(random_model(2, rng), 0.2), np.eye(8)[0]):
        with pytest.raises(ValueError, match=r"must be a \(8, 8\) matrix"):
            trotter_error(model, 0.2, 2, exact=bad)


@pytest.mark.parametrize("t, steps, order, exact, message", [
    (0.2, 2.5, 2, None, "^steps must be an integer, got 2.5$"),
    (0.2, 2.0, 2, None, "^steps must be an integer, got 2.0$"),
    (0.2, True, 2, None, "^steps must be an integer, got True$"),
    (0.2, 0, 2, None, "^need at least one step$"),
    (0.2, 2, 2, np.full((8, 8), np.nan), "^exact must be finite$"),
    (0.2, 2, 2, np.full((8, 8), np.inf), "^exact must be finite$"),
    (np.inf, 2, 2, None, "^tau must be finite$"),
    (np.nan, 2, 2, None, "^tau must be finite$"),
    (0.0, 2, 2, None, "^tau must be positive$"),
    (-0.2, 2, 2, None, "^tau must be positive$"),
    (0.2, 2, 3, None, "^order must be 1 or 2$"),
])
def test_trotter_error_rejects_bad_arguments_with_one_line(t, steps, order, exact, message):
    model = random_model(3, np.random.default_rng(173))
    with pytest.raises(ValueError, match=message):
        trotter_error(model, t, steps, order, exact=exact)


def test_product_formula_rejects_overflowing_phases_and_large_registers():
    model = BCSModel(2, 1, np.array([1e308, 1e308]), CouplingMatrix(2, np.zeros((2, 2))))
    with pytest.raises(ValueError, match="^the product formula's phases overflow$"):
        trotter_error(model, 10.0, 1)
    model = BCSModel(11, 1, np.ones(11), CouplingMatrix(11, np.zeros((11, 11))))
    with pytest.raises(ValueError, match="^product formula limited to 10 qubits$"):
        product_formula(model, 0.1)


@pytest.mark.parametrize("n", range(2, 8))
def test_product_formula_is_the_compiled_step(n):
    # The exact formula equals the folded compiled step and the block the
    # controlled step applies with its ancilla at 1, and trotter_error reads
    # the same error as the compiled pipeline did.
    rng = np.random.default_rng(300 + n)
    dim = 2**n
    for order in (1, 2):
        for r in (1.0, 0.6, 0.0):
            model = random_model(n, rng, r=r)
            for tau in (0.05, 0.4, 1.3):
                u = product_formula(model, tau, order)
                plain = effective_unitary(build_trotter_step(model, tau, order), n)
                assert np.max(np.abs(u - plain)) < 1e-12
                block = effective_unitary(
                    build_trotter_step(model, tau, order, controlled=0), n + 1)[dim:, dim:]
                assert np.max(np.abs(u - block)) < 1e-12
            exact = exact_evolution(model, 0.8)
            assert trotter_error(model, 0.8, 4, order, exact=exact) == pytest.approx(
                compiled_trotter_error(model, 0.8, 4, order, exact=exact), abs=1e-12)


def test_controlled_u0_factor_equals_the_per_qubit_diagonals_bitwise():
    model = random_model(4, np.random.default_rng(197))
    for tau in (0.05, 0.3, 1.7):
        t = tau / 2
        want = make_controlled_locals(
            [np.diag([np.exp(-0.5j * e * t), np.exp(0.5j * e * t)]) for e in model.eps], ancilla=2)
        got = trotter_factors(model, tau, 2, controlled=2)[0]
        assert got.qubits.tobytes() == want.qubits.tobytes()
        assert got.betas.tobytes() == want.betas.tobytes()
        assert _gate_bytes(got) == _gate_bytes(want)


def test_uncontrolled_step_counts_match_init_formulas():
    rng = np.random.default_rng(139)
    for n in (2, 3, 5):
        model = random_model(n, rng)
        step = build_trotter_step(model, 0.1, order=1, strategy=Carryover())
        assert count_ops(step)["total"] == 2 * n * n + 3 * n + 4
        model_l = BCSModel(n, 1, rng.uniform(0.5, 1.5, n),
                           CouplingMatrix(n, product_coupling(n)))
        step = build_trotter_step(model_l, 0.1, order=1, strategy=Limited())
        assert count_ops(step)["total"] == 13 * n - 8
        for p in range(1, n):
            model_p = BCSModel(n, 1, rng.uniform(0.5, 1.5, n),
                               CouplingMatrix(n, banded_coupling(n, p, rng)))
            step = build_trotter_step(model_p, 0.1, order=1, strategy=FixedRange(p))
            assert count_ops(step)["total"] == 4 * p * n + 5 * n - 2 * p * p - 2 * p + 4


def test_controlled_step_count_matches_evolution_formula():
    rng = np.random.default_rng(149)
    for n in (2, 3, 4):
        model = random_model(n, rng)
        step = build_trotter_step(model, 0.05, order=2, controlled=0)
        assert count_ops(step)["total"] == 6 * n * n + 64 * n - 40


def test_controlled_step_count_independent_of_strategy():
    # A controlled step always compiles through make_controlled; the
    # strategy shapes the uncontrolled step only, and a controlled step
    # refuses one rather than ignore it.
    model = random_model(4, np.random.default_rng(157))
    strategies = (Naive(), Stepwise(), Carryover())
    controlled = build_trotter_step(model, 0.05, order=2, controlled=0)
    assert count_ops(controlled)["total"] == 6 * 4 * 4 + 64 * 4 - 40
    for s in strategies:
        for build in (build_trotter_step, trotter_factors):
            with pytest.raises(ValueError, match="strategy"):
                build(model, 0.05, order=2, controlled=0, strategy=s)
    plain = {count_ops(build_trotter_step(model, 0.05, order=2, strategy=s))["total"]
             for s in strategies}
    assert len(plain) == len(strategies)
    default = build_trotter_step(model, 0.05, order=2)
    assert sequence_to_json(default) == sequence_to_json(
        build_trotter_step(model, 0.05, order=2, strategy=Carryover()))


def test_controlled_step_blocks():
    rng = np.random.default_rng(151)
    model = random_model(2, rng)
    u = effective_unitary(build_trotter_step(model, 0.08, order=2, controlled=0), 3)
    assert np.max(np.abs(u[:4, :4] - np.eye(4))) < 1e-9
    assert np.max(np.abs(u[:4, 4:])) < 1e-12
    sub = u[4:, 4:]
    uncontrolled = effective_unitary(build_trotter_step(model, 0.08, order=2), 2)
    assert np.max(np.abs(sub - uncontrolled)) < 1e-9


def test_anisotropy_parameter_enters_yy_factor():
    rng = np.random.default_rng(157)
    model = random_model(2, rng, r=0.6)
    err = np.linalg.norm(
        effective_unitary(build_trotter_step(model, 0.05, order=2), 2)
        - exact_evolution(model, 0.05), 2)
    assert err < 1e-4


def test_adiabatic_steps_rule():
    assert adiabatic_steps(0.01) == 314
    with pytest.raises(ValueError):
        adiabatic_steps(1.5)


def test_adiabatic_single_full_strength_step():
    rng = np.random.default_rng(163)
    model = random_model(2, rng)
    one = build_adiabatic_init(model, 1, 0.1)
    plain = build_trotter_step(model, 0.1, order=1)
    u1 = effective_unitary(one, 2)
    u2 = effective_unitary(plain, 2)
    assert np.max(np.abs(u1 - u2)) < 1e-12


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tau_rejected_up_front(tau):
    model = random_model(2, np.random.default_rng(169))
    with pytest.raises(ValueError, match="tau must be finite"):
        build_trotter_step(model, tau)
    with pytest.raises(ValueError, match="tau must be finite"):
        build_trotter_step(model, tau, controlled=0)
    with pytest.raises(ValueError, match="tau must be finite"):
        build_adiabatic_init(model, 3, tau)


@pytest.mark.parametrize("tau", [0.0, -0.1])
def test_non_positive_tau_keeps_its_message(tau):
    model = random_model(2, np.random.default_rng(173))
    with pytest.raises(ValueError, match="tau must be positive"):
        build_trotter_step(model, tau)
    with pytest.raises(ValueError, match="tau must be positive"):
        build_adiabatic_init(model, 3, tau)


def test_adiabatic_ops_per_step_metadata():
    rng = np.random.default_rng(167)
    model = random_model(3, rng)
    seq = build_adiabatic_init(model, 5, 0.05)
    assert seq.metadata["ops_per_step"] == 2 * 9 + 3 * 3 + 4
    assert count_ops(seq)["total"] == 5 * seq.metadata["ops_per_step"]


def test_adiabatic_prepares_low_sector_weight():
    # ramped evolution keeps the state inside the ground/first-excited span
    v = np.zeros((2, 2))
    v[0, 1] = v[1, 0] = 0.5
    model = BCSModel(2, 1, np.array([1.0, 1.0]), CouplingMatrix(2, v), r=1.0)
    spec = exact_spectrum(model, sector=1)
    span = np.zeros((4, 2), dtype=complex)
    span[spec.basis_indices, 0] = spec.eigenvectors[:, 0]
    span[spec.basis_indices, 1] = spec.eigenvectors[:, 1]
    psi0 = np.zeros(4, dtype=complex)
    psi0[int("10", 2)] = 1.0
    weights = []
    for steps in (50, 100, 200, 400):
        u = effective_unitary(build_adiabatic_init(model, steps, 0.05), 2)
        weights.append(float(np.sum(np.abs(span.conj().T @ (u @ psi0)) ** 2)))
    assert max(weights) >= 0.9
    for a, b in zip(weights, weights[1:]):
        assert b >= a - 0.02


def test_adiabatic_cosine_ramp_runs():
    rng = np.random.default_rng(173)
    model = random_model(2, rng)
    seq = build_adiabatic_init(model, 3, 0.05, ramp="cosine")
    u = effective_unitary(seq, 2)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
    with pytest.raises(ValueError):
        build_adiabatic_init(model, 3, 0.05, ramp="sigmoid")


def test_controlled_step_count_banded_matches_limited_formula():
    rng = np.random.default_rng(251)
    for n, p in ((3, 1), (4, 2), (5, 1)):
        model = BCSModel(n, 1, rng.uniform(0.5, 1.5, size=n),
                         CouplingMatrix(n, banded_coupling(n, p, rng)))
        step = build_trotter_step(model, 0.05, order=2, controlled=0)
        want = 12 * n * p - 6 * p * p - 6 * p + 70 * n - 40
        assert count_ops(step)["total"] == want, (n, p)
