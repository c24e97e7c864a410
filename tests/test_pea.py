"""Phase estimation: kernel shape, peaks, gap extraction, audit path."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubusim.bcs import BCSModel, CouplingMatrix, energy_gap, exact_evolution, exact_spectrum
from qubusim import pea
from qubusim.builders import QftMode, build_qft, build_trotter_step
from qubusim.pea import (
    AdiabaticSequence,
    PEAConfig,
    PEAResult,
    UnresolvedPeaksError,
    build_pea,
    _inverse_qft_matrix,
    estimate_gap,
    resolve_tau,
    result_to_json,
    run_pea,
    substeps_for_target,
)
from qubusim.hybrid import qubit_amplitudes, state_from_vector
from qubusim.sequence import effective_unitary, execute

from qubusim.resources import CountFormula, formula_count

from oracles import banded_coupling, compiled_trotter_error, random_dense_coupling


def pairing_model(v=0.5, eps=1.0):
    vm = np.zeros((2, 2))
    vm[0, 1] = vm[1, 0] = v
    return BCSModel(2, 1, np.array([eps, eps]), CouplingMatrix(2, vm), r=1.0)


def single_qubit_model(eps):
    return BCSModel(1, 0, np.array([eps]), CouplingMatrix(1, np.zeros((1, 1))))


def test_build_pea_layer_multiplicities():
    model = pairing_model()
    circ = build_pea(model, PEAConfig(k=3, trotter_substeps=1))
    reps = [layer.reps for layer in circ.layers if layer.name.startswith("controlled")]
    assert reps == [4, 2, 1]


def test_build_pea_single_ancilla():
    model = pairing_model()
    circ = build_pea(model, PEAConfig(k=1))
    names = [l.name for l in circ.layers]
    assert names == ["ancilla-hadamards", "controlled-step@0", "inverse-qft"]
    assert circ.counts["qft"] == 1


def test_build_pea_counts_match_evolution_formula():
    model3 = BCSModel(3, 1, np.array([1.0, 1.2, 0.8]),
                      CouplingMatrix(3, np.array([[0, .4, .5], [.4, 0, .6], [.5, .6, 0]])))
    for k in (1, 2):
        circ = build_pea(model3, PEAConfig(k=k, trotter_substeps=1))
        n = 3
        assert circ.counts["controlled_evolution"] == (2**k - 1) * (6 * n * n + 64 * n - 40)


def test_build_pea_counts_match_the_count_table():
    # Whole-run compiled counts: dense couplings hit P_G, range-p couplings
    # P_L, and the total adds the k ancilla Hadamards to evolution and QFT.
    def table(kind, **params):
        return formula_count(CountFormula(kind, params))

    rng = np.random.default_rng(29)
    for n in range(2, 9):
        eps = rng.uniform(0.5, 1.5, size=n)
        models = [(BCSModel(n, 1, eps, CouplingMatrix(n, random_dense_coupling(n, rng))),
                   "pea_general", {})]
        for p in range(1, n):
            models.append((BCSModel(n, 1, eps, CouplingMatrix(n, banded_coupling(n, p, rng))),
                           "pea_limited", {"p": p}))
        for model, kind, params in models:
            for k in range(1, 5):
                counts = build_pea(model, PEAConfig(k=k)).counts
                assert counts["controlled_evolution"] == table(kind, N=n, k=k, **params), \
                    (n, kind, params, k)
                assert counts["qft"] == table("qft", k=k)
                assert counts["total"] == counts["controlled_evolution"] + counts["qft"] + k


@pytest.mark.parametrize("kwargs, name", [
    ({"k": 2.5}, "k"),
    ({"k": True}, "k"),
    ({"k": 3, "trotter_substeps": 1.5}, "trotter_substeps"),
    ({"k": 3, "shots": 2.5}, "shots"),
])
def test_config_rejects_non_integer_counts(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        PEAConfig(**kwargs)


def test_config_accepts_numpy_integer_counts():
    cfg = PEAConfig(k=np.int64(3), trotter_substeps=np.int64(2), shots=np.int64(5), seed=1)
    res = run_pea(pairing_model(), cfg)
    assert sum(res.counts.values()) == 5


@pytest.mark.parametrize("state", [np.zeros(4), np.full(4, np.nan), np.array([1, np.inf, 0, 0])],
                         ids=["zero", "nan", "inf"])
def test_run_pea_rejects_a_zero_or_non_finite_input_state(state):
    with pytest.raises(ValueError, match="^system state must be finite and nonzero$"):
        run_pea(pairing_model(), PEAConfig(k=3), input_state=state)


def test_exactly_representable_phase_is_a_delta():
    # eigenstate |1>: E = -eps/2, phase = eps/2 * tau = 2 pi * 5/16 at tau=1
    model = single_qubit_model(2 * np.pi * 5 / 8)
    cfg = PEAConfig(k=4, tau=1.0, exact_controlled=True)
    res = run_pea(model, cfg, input_state=np.array([0.0, 1.0]))
    assert res.distribution["0101"] == pytest.approx(1.0, abs=1e-9)


def test_eigenstate_peak_mass_bound():
    # generic phase: the top bin keeps at least 4/pi^2 of the mass
    model = single_qubit_model(1.234)
    cfg = PEAConfig(k=5, tau=1.0, exact_controlled=True)
    res = run_pea(model, cfg, input_state=np.array([0.0, 1.0]))
    top = max(res.distribution.values())
    assert top > 4 / np.pi**2 - 1e-9
    # and the kernel shape |sin(2^k x)/(2^k sin x)|^2 matches exactly
    phi = 1.234 / 2 * 1.0
    k = 5
    for bits, prob in res.distribution.items():
        y = int(bits, 2)
        x = (phi - 2 * np.pi * y / 2**k) / 2
        expected = (1 / 2**k) ** 2 if abs(np.sin(x)) < 1e-15 else \
            (np.sin(2**k * x) / (2**k * np.sin(x))) ** 2
        assert prob == pytest.approx(expected, abs=1e-9)


def test_phase_error_below_one_bin_and_k_scaling():
    model = single_qubit_model(0.813)
    phi = 0.813 / 2
    for k in (4, 5, 6):
        res = run_pea(model, PEAConfig(k=k, tau=1.0, exact_controlled=True),
                      input_state=np.array([0.0, 1.0]))
        top_phase = res.phases[0][0]
        assert abs(top_phase - phi) < 2 * np.pi / 2**k


def test_superposition_gives_two_equal_peaks():
    model = pairing_model()
    res = run_pea(model, PEAConfig(k=5, exact_controlled=True))
    (p1, w1), (p2, w2) = res.phases[:2]
    assert w1 == pytest.approx(w2, abs=1e-9)
    assert w1 > 0.3


def test_gap_estimate_against_exact_diagonalization():
    model = pairing_model(v=0.5)
    cfg = PEAConfig(k=6, exact_controlled=True)
    res = run_pea(model, cfg)
    assert res.gap_estimate is not None
    assert abs(res.gap_estimate - energy_gap(model, 1)) <= res.resolution_energy


def test_estimate_gap_synthetic_two_delta():
    k, tau = 4, 0.7
    res = PEAResult(
        k=k, tau=tau,
        distribution={format(3, "04b"): 0.5, format(11, "04b"): 0.5},
        phases=[], gap_estimate=None,
        resolution_phase=2 * np.pi / 2**k,
        resolution_energy=2 * np.pi / (2**k * tau),
    )
    assert estimate_gap(res) == pytest.approx(8 * (2 * np.pi / 16) / tau)


def test_estimate_gap_unresolved_cases():
    k, tau = 4, 1.0
    base = dict(phases=[], gap_estimate=None,
                resolution_phase=2 * np.pi / 16, resolution_energy=2 * np.pi / 16)
    res = PEAResult(k=k, tau=tau, distribution={"0011": 1.0}, **base)
    with pytest.raises(UnresolvedPeaksError):
        estimate_gap(res)
    res = PEAResult(k=k, tau=tau, distribution={"0011": 0.6, "0100": 0.4}, **base)
    with pytest.raises(UnresolvedPeaksError):
        estimate_gap(res)


def test_degenerate_model_peaks_unresolved():
    model = pairing_model(v=0.0, eps=1.0)  # sector levels coincide
    res = run_pea(model, PEAConfig(k=4, exact_controlled=True))
    assert res.gap_estimate is None


def test_distribution_invariance_under_global_phase():
    model = pairing_model()
    spec = exact_spectrum(model, 1)
    vec = np.zeros(4, dtype=complex)
    vec[spec.basis_indices] = (spec.eigenvectors[:, 0] + spec.eigenvectors[:, 1]) / np.sqrt(2)
    cfg = PEAConfig(k=4, exact_controlled=True)
    r1 = run_pea(model, cfg, input_state=vec)
    r2 = run_pea(model, cfg, input_state=np.exp(0.7j) * vec)
    for b in r1.distribution:
        assert r1.distribution[b] == pytest.approx(r2.distribution[b], abs=1e-12)


def test_trotterized_gap_shift_bounded_by_trotter_error():
    from qubusim.bcs import trotter_error

    model = pairing_model()
    cfg_t = PEAConfig(k=5, trotter_order=2, trotter_substeps=1)
    cfg_e = PEAConfig(k=5, exact_controlled=True)
    rt = run_pea(model, cfg_t)
    re = run_pea(model, cfg_e)
    bound = trotter_error(model, 2**5 * rt.tau, 2**5, 2) / rt.tau
    assert abs(rt.gap_estimate - re.gap_estimate) <= bound + 1e-12


def test_full_bus_simulation_matches_matrix_path():
    # Reference: every instruction of build_pea's layers folded through the
    # coherent-state branch simulator, from the same system state.
    model = pairing_model()
    cfg = PEAConfig(k=3, trotter_substeps=1)
    spec = exact_spectrum(model, model.n_excitations)
    psi_sys = np.zeros(4, dtype=complex)
    psi_sys[spec.basis_indices] = (spec.eigenvectors[:, 0] + spec.eigenvectors[:, 1]) / np.sqrt(2)
    fast = run_pea(model, cfg, input_state=psi_sys)

    circuit = build_pea(model, cfg)
    psi0 = np.zeros((2**cfg.k, 4), dtype=complex)
    psi0[0] = psi_sys
    state = state_from_vector(psi0.reshape(-1), circuit.num_qubits)
    for layer in circuit.layers:
        for _ in range(layer.reps):
            state = execute(layer.seq, state)
    probs = np.sum(np.abs(qubit_amplitudes(state).reshape(2**cfg.k, 4)) ** 2, axis=1)
    slow = {format(y, f"0{cfg.k}b")[::-1]: p for y, p in enumerate(probs / probs.sum())}

    for b in set(fast.distribution) | set(slow):
        assert fast.distribution.get(b, 0.0) == pytest.approx(slow.get(b, 0.0), abs=1e-10)


def test_probabilities_sum_to_one():
    model = pairing_model()
    res = run_pea(model, PEAConfig(k=4, trotter_substeps=1))
    assert sum(res.distribution.values()) == pytest.approx(1.0, abs=1e-9)


def test_auto_tau_validation_and_override():
    model = pairing_model()
    with pytest.raises(ValueError):
        run_pea(model, PEAConfig(k=3, tau=100.0))
    res = run_pea(model, PEAConfig(k=3, tau=0.5, exact_controlled=True))
    assert res.tau == 0.5


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -0.5])
def test_config_rejects_non_finite_or_non_positive_tau(tau):
    with pytest.raises(ValueError):
        PEAConfig(k=3, tau=tau)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf"), 0.0, -0.5])
def test_substeps_for_target_rejects_non_finite_or_non_positive_tau(tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            substeps_for_target(pairing_model(), tau, 4)


def test_shots_sampling_deterministic():
    model = pairing_model()
    cfg = PEAConfig(k=4, exact_controlled=True, shots=200, seed=9)
    c1 = run_pea(model, cfg).counts
    c2 = run_pea(model, cfg).counts
    assert c1 == c2
    assert sum(c1.values()) == 200


def test_adiabatic_init_path():
    model = pairing_model()
    cfg = PEAConfig(k=4, exact_controlled=True,
                    init=AdiabaticSequence(steps=30, tau_init=0.05))
    res = run_pea(model, cfg)
    assert sum(res.distribution.values()) == pytest.approx(1.0, abs=1e-9)
    assert len(res.phases) >= 2


def test_substeps_for_target_converges():
    model = pairing_model()
    tau = build_pea(model, PEAConfig(k=4)).tau
    s = substeps_for_target(model, tau, 4, order=2)
    assert s >= 1
    from qubusim.bcs import trotter_error

    err = trotter_error(model, 2**4 * tau, s * 2**4, 2) / tau
    assert err < 0.25 * 2 * np.pi / (2**4 * tau)


def test_result_json_shape():
    model = pairing_model()
    res = run_pea(model, PEAConfig(k=3, exact_controlled=True, shots=10, seed=1))
    doc = result_to_json(res)
    assert set(doc) == {"k", "tau", "distribution", "phases", "gap", "resolution", "counts"}
    assert all(len(b) == 3 for b in doc["distribution"])


def register_path_distribution(model, cfg, psi_sys):
    """Reference: the outcome distribution of the full (N + k)-qubit register.

    The controlled step is the padded 2^(N+1) matrix; ancilla p applies its
    power substeps * 2^(k-1-p) to the register vector, and the inverse QFT
    acts on the ancilla axes, each operator moved onto its qubits' axes.
    """
    n, k, s = model.n_modes, cfg.k, cfg.trotter_substeps
    total, dim = n + k, 2**n
    tau = resolve_tau(model, cfg)
    if cfg.exact_controlled:
        m = np.eye(2 * dim, dtype=complex)
        m[dim:, dim:] = exact_evolution(model, tau / s)
    else:
        step = build_trotter_step(model, tau / s, order=cfg.trotter_order, controlled=0)
        m = effective_unitary(step, n + 1)

    def apply(psi, op, qubits):
        t = np.moveaxis(psi.reshape([2] * total), qubits, range(len(qubits)))
        shape = t.shape
        t = (op @ t.reshape(2 ** len(qubits), -1)).reshape(shape)
        return np.moveaxis(t, range(len(qubits)), qubits).reshape(-1)

    psi = np.kron(np.full(2**k, 2.0 ** (-k / 2)), psi_sys / np.linalg.norm(psi_sys))
    for p in range(k):
        psi = apply(psi, np.linalg.matrix_power(m, s * 2 ** (k - 1 - p)),
                    [p] + list(range(k, total)))
    qft = effective_unitary(build_qft(k, QftMode(measurement_ready=True, forward=False)), k)
    psi = apply(psi, qft, list(range(k)))
    probs = np.sum(np.abs(psi.reshape(2**k, dim)) ** 2, axis=1)
    return {format(y, f"0{k}b")[::-1]: p for y, p in enumerate(probs / probs.sum())}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 4), k=st.integers(1, 5), substeps=st.integers(1, 3),
       order=st.sampled_from([1, 2]), exact=st.booleans(), r=st.sampled_from([1.0, 0.6]),
       seed=st.integers(0, 2**32 - 1))
def test_run_pea_matches_register_path(n, k, substeps, order, exact, r, seed):
    rng = np.random.default_rng(seed)
    v = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    model = BCSModel(n, n // 2, rng.uniform(0.5, 2.0, n), CouplingMatrix(n, v + v.T), r=r)
    psi_sys = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    cfg = PEAConfig(k=k, trotter_order=order, trotter_substeps=substeps, exact_controlled=exact)
    fast = run_pea(model, cfg, input_state=psi_sys).distribution
    ref = register_path_distribution(model, cfg, psi_sys)
    for b in set(fast) | set(ref):
        assert abs(fast.get(b, 0.0) - ref.get(b, 0.0)) <= 1e-12


def test_register_wider_than_twelve_qubits_runs():
    # N + k = 13: only the controlled step (N + 1) and the inverse QFT (k)
    # bound a run, never the ancilla+system register.
    v = np.array([[0, .4, .5], [.4, 0, .6], [.5, .6, 0]])
    model = BCSModel(3, 1, np.array([1.0, 1.2, 0.8]), CouplingMatrix(3, v), r=1.0)
    res = run_pea(model, PEAConfig(k=10, exact_controlled=True))
    assert sum(res.distribution.values()) == pytest.approx(1.0, abs=1e-9)
    assert abs(res.gap_estimate - energy_gap(model, 1)) <= res.resolution_energy


def test_register_size_guard():
    big = BCSModel(11, 1, np.ones(11), CouplingMatrix(11, np.zeros((11, 11))))
    with pytest.raises(ValueError):
        build_pea(big, PEAConfig(k=2))


def test_parts_beyond_simulator_rejected_up_front(monkeypatch):
    # The controlled step needs N + 1 = 11 qubits, more than
    # effective_unitary reconstructs.
    def no_spectrum(*args, **kwargs):
        raise AssertionError("diagonalized before the size check")

    big = BCSModel(10, 1, np.ones(10), CouplingMatrix(10, np.zeros((10, 10))))
    monkeypatch.setattr(pea, "exact_spectrum", no_spectrum)
    with pytest.raises(ValueError, match="controlled step too large"):
        resolve_tau(big, PEAConfig(k=2))
    with pytest.raises(ValueError, match="controlled step too large"):
        run_pea(big, PEAConfig(k=1, exact_controlled=True))
    # The inverse QFT needs k = 11 qubits.
    one = BCSModel(1, 0, np.ones(1), CouplingMatrix(1, np.zeros((1, 1))), r=0.5)
    with pytest.raises(ValueError, match="inverse QFT too large"):
        resolve_tau(one, PEAConfig(k=11))
    monkeypatch.undo()
    fits = BCSModel(9, 1, np.ones(9), CouplingMatrix(9, np.zeros((9, 9))))
    assert resolve_tau(fits, PEAConfig(k=3)) > 0
    assert resolve_tau(one, PEAConfig(k=10)) > 0


def test_shots_with_negative_seed_rejected_at_config():
    with pytest.raises(ValueError, match="non-negative seed"):
        PEAConfig(k=3, shots=10, seed=-1)
    assert PEAConfig(k=3, seed=-1).seed == -1  # no sampling, the seed is unused


@pytest.mark.parametrize("k", range(1, 8))
def test_inverse_qft_matrix_is_cached_and_read_only(k):
    m = _inverse_qft_matrix(k)
    assert m is _inverse_qft_matrix(k)
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
    fresh = effective_unitary(build_qft(k, QftMode(measurement_ready=True, forward=False)), k)
    assert np.array_equal(m, fresh)


def test_run_pea_rejects_a_one_level_sector():
    model = single_qubit_model(1.0)
    with pytest.raises(ValueError,
                       match="^the 0-excitation sector has one level; a gap needs two$"):
        run_pea(model, PEAConfig(k=3))


@pytest.mark.parametrize("order", [0, 3])
def test_config_rejects_unknown_trotter_order(order):
    with pytest.raises(ValueError, match="^order must be 1 or 2$"):
        PEAConfig(k=3, trotter_order=order)


@pytest.mark.parametrize("block", ["top-right", "bottom-left", "identity", "unitary"])
def test_controlled_step_block_checks(block, monkeypatch):
    # Each corruption breaks exactly one of the four block checks.
    fold = pea.effective_unitary

    def corrupted(seq, n):
        m = fold(seq, n).copy()
        dim = m.shape[0] // 2
        if block == "top-right":
            m[0, dim] += 1e-8
        elif block == "bottom-left":
            m[dim, 0] += 1e-8
        elif block == "identity":
            m[:dim, :dim] *= np.exp(1e-8j)
        else:
            m[dim:, dim:] *= 1 + 1e-8
        return m

    model = pairing_model()
    cfg = PEAConfig(k=3)
    tau = resolve_tau(model, cfg)
    pea._controlled_step_matrix(model, cfg, tau)
    monkeypatch.setattr(pea, "effective_unitary", corrupted)
    with pytest.raises(RuntimeError, match="verification failed"):
        pea._controlled_step_matrix(model, cfg, tau)


def test_controlled_step_from_a_coupling_off_by_a_thousandth_fails_verification(monkeypatch):
    # The block and unitarity checks pass a controlled step compiled from
    # the wrong coupling; the comparison with the product formula does not.
    import qubusim.builders as builders

    make_controlled = builders.make_controlled

    def off(v, *args, **kwargs):
        return make_controlled(v.scaled(1.001), *args, **kwargs)

    model = BCSModel(3, 1, np.array([1.0, 1.5, 2.0]),
                     CouplingMatrix(3, np.full((3, 3), 0.5) - 0.5 * np.eye(3)))
    cfg = PEAConfig(k=3)
    tau = resolve_tau(model, cfg)
    pea._controlled_step_matrix(model, cfg, tau)
    monkeypatch.setattr(builders, "make_controlled", off)
    with pytest.raises(RuntimeError, match="verification failed"):
        pea._controlled_step_matrix(model, cfg, tau)


def test_controlled_step_with_a_mixing_ancilla_local_fails_verification(monkeypatch):
    # The fold carries the ancilla as a block only while no local gate on it
    # mixes its bit.  A small rotation on the ancilla turns that off, and
    # the off-diagonal blocks it creates fail the block checks.
    from qubusim.sequence import Local, _fuse_locals

    build = pea.build_trotter_step
    theta = 1e-3
    rx = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])

    def mutated(*args, **kwargs):
        step = build(*args, **kwargs)
        step.extend(pea.GateSequence(step.num_qubits, [Local(0, rx)]))
        return step

    model = pairing_model()
    cfg = PEAConfig(k=3)
    tau = resolve_tau(model, cfg)
    step = build_trotter_step(model, tau, order=2, controlled=0)
    assert 0 not in {q for _, q, _ in _fuse_locals(step)[0]}
    monkeypatch.setattr(pea, "build_trotter_step", mutated)
    step = pea.build_trotter_step(model, tau, order=2, controlled=0)
    assert 0 in {q for _, q, _ in _fuse_locals(step)[0]}
    with pytest.raises(RuntimeError, match="verification failed"):
        pea._controlled_step_matrix(model, cfg, tau)


def three_mode_model():
    v = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
    return BCSModel(3, 1, np.array([1.0, 1.5, 2.0]), CouplingMatrix(3, v), r=1.0)


def probed_substeps(monkeypatch, k, error=None):
    """Substep counts substeps_for_target hands to trotter_error, in order.

    error(substeps) replaces the product-formula error when given.
    """
    probes = []
    measure = pea.trotter_error

    def counted(model, t, steps, order, *, exact):
        probes.append(steps // 2**k)
        return error(steps // 2**k) if error else measure(model, t, steps, order, exact=exact)

    monkeypatch.setattr(pea, "trotter_error", counted)
    return probes


def doubling_substeps(err, target, max_substeps=256):
    """Reference: the first count of 1, 2, 4, ... whose error is below target."""
    s = 1
    while s <= max_substeps:
        if err(s) < target:
            return s
        s *= 2
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 5), k=st.integers(1, 8), order=st.sampled_from([1, 2]),
       r=st.sampled_from([1.0, 0.6]), seed=st.integers(0, 2**32 - 1))
def test_substeps_for_target_matches_doubling_search(n, k, order, r, seed):
    rng = np.random.default_rng(seed)
    v = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    model = BCSModel(n, n // 2, rng.uniform(0.5, 2.0, n), CouplingMatrix(n, v + v.T), r=r)
    tau = resolve_tau(model, PEAConfig(k=k))
    target = 0.25 * 2.0 * np.pi / (2**k * tau)
    exact = exact_evolution(model, 2**k * tau)
    errors = {}

    def err(s):
        if s not in errors:
            errors[s] = pea.trotter_error(model, 2**k * tau, s * 2**k, order, exact=exact) / tau
        return errors[s]

    ref = doubling_substeps(err, target)
    if ref is None:
        with pytest.raises(RuntimeError, match="no substep count up to 256"):
            substeps_for_target(model, tau, k, order)
        return
    s = substeps_for_target(model, tau, k, order)
    assert s == ref
    assert err(s) < target
    assert s == 1 or err(s // 2) >= target


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [1, 2])
def test_substeps_for_target_matches_the_search_on_the_compiled_error(monkeypatch, n, order):
    # The search on the exact formula's error returns what the same search
    # returns on the error of the compiled and folded step.
    rng = np.random.default_rng(400 + 10 * n + order)
    for r, k in ((1.0, 3), (0.6, 5), (1.0, 5)):
        v = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        model = BCSModel(n, n // 2, rng.uniform(0.5, 2.0, n), CouplingMatrix(n, v + v.T), r=r)
        tau = resolve_tau(model, PEAConfig(k=k))
        want = substeps_for_target(model, tau, k, order)
        with monkeypatch.context() as patch:
            patch.setattr(pea, "trotter_error", compiled_trotter_error)
            assert substeps_for_target(model, tau, k, order) == want


def test_substeps_for_target_jumps_by_the_order_and_confirms(monkeypatch):
    # Doubling probes 1, 2, 4, 8, 16; the order jump goes from 1 straight
    # to 16 and one probe at 8 confirms that 16 is the smallest.
    model = three_mode_model()
    tau = resolve_tau(model, PEAConfig(k=6))
    probes = probed_substeps(monkeypatch, 6)
    assert substeps_for_target(model, tau, 6, order=2) == 16
    assert probes == [1, 16, 8]


def test_substeps_for_target_exhaustion_probes_the_top_rung(monkeypatch):
    model = three_mode_model()
    tau = resolve_tau(model, PEAConfig(k=10))
    probes = probed_substeps(monkeypatch, 10)
    with pytest.raises(RuntimeError, match="^no substep count up to 256 meets the error target$"):
        substeps_for_target(model, tau, 10, order=1)
    assert probes == [1, 256]


@pytest.mark.parametrize("max_substeps, top", [(1, 1), (5, 4), (256, 256), (300, 256)])
def test_substeps_for_target_ladder_tops_at_a_power_of_two(monkeypatch, max_substeps, top):
    probes = probed_substeps(monkeypatch, 3, error=lambda s: np.inf if s < top else 0.0)
    assert substeps_for_target(pairing_model(), 0.5, 3, max_substeps=max_substeps) == top
    assert probes == ([1] if top == 1 else [1, top, top // 2])


def test_substeps_for_target_failure_at_the_target_still_moves_up(monkeypatch):
    # An error equal to the target fails but asks for no jump; the search
    # still climbs one rung at a time.
    k, tau = 2, 1.0
    target = 0.25 * 2.0 * np.pi / (2**k * tau)
    probes = probed_substeps(monkeypatch, k, error=lambda s: target if s < 8 else 0.0)
    assert substeps_for_target(pairing_model(), tau, k, order=1) == 8
    assert probes == [1, 2, 4, 8]


def test_substeps_for_target_jump_past_the_top_probes_the_top(monkeypatch):
    # A flat error 32 times the target asks for five rungs from 1 (to 32)
    # and five more from 32, past the top rung 256, so the top is probed.
    k, tau = 2, 1.0
    target = 0.25 * 2.0 * np.pi / (2**k * tau)
    probes = probed_substeps(monkeypatch, k, error=lambda s: 32 * target if s < 256 else 0.0)
    assert substeps_for_target(pairing_model(), tau, k, order=1) == 256
    assert probes == [1, 32, 256, 128]

@pytest.mark.parametrize("kwargs, message", [
    ({"order": 0}, "^order must be 1 or 2$"),
    ({"order": 3}, "^order must be 1 or 2$"),
    ({"k": 0}, "^need at least one ancilla$"),
    ({"fraction": float("nan")}, "^fraction must be positive and finite$"),
    ({"fraction": float("inf")}, "^fraction must be positive and finite$"),
    ({"fraction": 0.0}, "^fraction must be positive and finite$"),
    ({"fraction": -0.25}, "^fraction must be positive and finite$"),
    ({"fraction": 5e-324, "k": 10}, "^fraction too small: the error target underflows to zero$"),
    ({"max_substeps": 0}, "^max_substeps must be at least 1$"),
    ({"max_substeps": -4}, "^max_substeps must be at least 1$"),
])
def test_substeps_for_target_rejects_bad_arguments_up_front(monkeypatch, kwargs, message):
    def no_evolution(*args, **kw):
        raise AssertionError("diagonalized before the argument checks")

    monkeypatch.setattr(pea, "exact_evolution", no_evolution)
    monkeypatch.setattr(pea, "trotter_error", no_evolution)
    args = {"k": 4, **kwargs}
    with pytest.raises(ValueError, match=message):
        substeps_for_target(pairing_model(), 0.5, **args)


def test_tied_peaks_are_listed_by_outcome_index():
    # The two peaks of the symmetric two-mode model have equal weight up to
    # rounding; the one at the smaller outcome (+pi/2, outcome 16) comes first.
    model = pairing_model()
    res = run_pea(model, PEAConfig(k=6, trotter_substeps=substeps_for_target(
        model, resolve_tau(model, PEAConfig(k=6)), 6)))
    (p1, w1), (p2, w2) = res.phases[:2]
    assert (p1, p2) == (np.pi / 2, -np.pi / 2)
    assert abs(w1 - w2) <= 1e-12


def test_rank_outcomes_ties_within_1e_12():
    dist = {"00": 0.1, "01": 0.3 - 5e-13, "10": 0.3 + 4e-13, "11": 0.3 - 2e-12}
    assert [y for y, _ in pea._rank_outcomes(dist)] == [1, 2, 3, 0]


@pytest.mark.parametrize("nudge", [1e-13, -1e-13])
@pytest.mark.parametrize("first", ["0011", "0100"])
def test_estimate_gap_ranks_near_ties_as_the_phases_do(nudge, first):
    # Outcomes 3 and 4 are adjacent and tie up to rounding; 9 is third.  The
    # first peak is outcome 3, the lower of the tie, in every order and on
    # either side of the tie, so the second is 9 and the gap 10 bins.
    k, tau = 4, 1.0
    weights = {"0011": 0.4, "0100": 0.4 + nudge, "1001": 0.2}
    dist = {first: weights[first], **weights}
    res = PEAResult(k=k, tau=tau, distribution=dist, phases=[], gap_estimate=None,
                    resolution_phase=2 * np.pi / 16, resolution_energy=2 * np.pi / 16)
    assert [y for y, _ in pea._rank_outcomes(dist)] == [3, 4, 9]
    assert estimate_gap(res) == pytest.approx(10 * 2 * np.pi / 16)


def test_estimate_gap_breaks_second_peak_ties_toward_separation():
    # 5 and 12 tie for second behind 3; 12 lies 7 bins from 3, 5 only 2.
    base = dict(k=4, tau=1.0, phases=[], gap_estimate=None,
                resolution_phase=2 * np.pi / 16, resolution_energy=2 * np.pi / 16)
    for nudge in (0.0, 1e-13, -1e-13):
        dist = {"0011": 0.5, "0101": 0.25, "1100": 0.25 + nudge}
        assert estimate_gap(PEAResult(distribution=dist, **base)) == pytest.approx(
            7 * 2 * np.pi / 16)
