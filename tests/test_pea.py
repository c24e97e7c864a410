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
