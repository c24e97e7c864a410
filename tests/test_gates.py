"""Two-qubit primitives, axis conjugation, and the controlled constructions."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from qubusim.bcs import CouplingMatrix
from qubusim.builders import (
    Carryover,
    build_cnot,
    build_cphase,
    build_u0,
    build_uzz,
    conjugate_to_axis,
    make_controlled,
    make_controlled_locals,
)
from qubusim.hybrid import extract_qubit_vector, init_state, is_bus_disentangled, state_from_vector
from qubusim.sequence import count_ops, effective_unitary, execute

from oracles import (
    SX,
    SY,
    SZ,
    embed,
    haar_unitary_2,
    phase_aligned_distance,
    random_dense_coupling,
    zz_diagonal_target,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# build_cphase
# ---------------------------------------------------------------------------

def test_cphase_quarter_pi_matches_zz_exponential():
    theta = math.pi / 4
    u = effective_unitary(build_cphase(0, 1, theta), 2)
    target = sla.expm(1j * theta * np.kron(SZ, SZ))
    assert phase_aligned_distance(u, target) < 1e-10


def test_cphase_zero_angle_is_identity():
    seq = build_cphase(0, 1, 0.0)
    u = effective_unitary(seq, 2)
    assert phase_aligned_distance(u, np.eye(4)) < 1e-12
    out = execute(seq, init_state(2, "11"))
    assert abs(out.branches[0].alpha) < 1e-12


def test_cphase_generic_angle_diagonal_pattern():
    theta = 0.3
    u = effective_unitary(build_cphase(0, 1, theta), 2)
    target = np.diag(np.exp(1j * theta * np.array([1, -1, -1, 1])))
    assert phase_aligned_distance(u, target) < 1e-10


def test_cphase_rejects_equal_qubits():
    with pytest.raises(ValueError):
        build_cphase(1, 1, 0.2)


# ---------------------------------------------------------------------------
# conjugate_to_axis
# ---------------------------------------------------------------------------

def test_conjugate_cphase_to_xx_and_yy():
    theta = 0.41
    for axis, pauli in (("x", SX), ("y", SY)):
        seq = conjugate_to_axis(build_cphase(0, 1, theta), axis)
        target = sla.expm(1j * theta * np.kron(pauli, pauli))
        assert phase_aligned_distance(effective_unitary(seq, 2), target) < 1e-10


def test_conjugate_empty_sequence_is_identity_with_2n_locals():
    from qubusim.sequence import GateSequence

    seq = conjugate_to_axis(GateSequence(3, []), "x")
    assert count_ops(seq)["local"] == 6
    assert phase_aligned_distance(effective_unitary(seq, 3), np.eye(8)) < 1e-12


def test_conjugate_carryover_uzz_to_yy():
    rng = np.random.default_rng(71)
    n = 3
    v = random_dense_coupling(n, rng)
    seq = conjugate_to_axis(build_uzz(CouplingMatrix(n, v), Carryover()), "y")
    h = np.zeros((8, 8), dtype=complex)
    for m in range(n):
        for l in range(m + 1, n):
            h = h + v[m, l] / 2.0 * (embed(SY, m, n) @ embed(SY, l, n))
    assert phase_aligned_distance(effective_unitary(seq, n), sla.expm(1j * h)) < 1e-9


def test_conjugate_shares_its_basis_change_locals():
    # Local is immutable, so each (qubit, axis, direction) gate is built once.
    a, b = (conjugate_to_axis(build_cphase(0, 1, theta), "y") for theta in (0.2, 0.7))
    ends = lambda seq: seq.instructions[:2] + seq.instructions[-2:]
    assert all(x is y for x, y in zip(ends(a), ends(b)))
    assert [ins.label for ins in ends(a)] == ["to-y", "to-y", "from-y", "from-y"]
    assert np.array_equal(a.instructions[0].u, a.instructions[-2].u.conj().T)


def test_conjugate_rejects_non_diagonal_sequences():
    with pytest.raises(ValueError):
        conjugate_to_axis(build_cnot(0, 1), "x")


# ---------------------------------------------------------------------------
# build_u0
# ---------------------------------------------------------------------------

def test_u0_zero_energies():
    seq = build_u0(np.zeros(3), 0.2)
    assert count_ops(seq)["local"] == 3
    assert phase_aligned_distance(effective_unitary(seq, 3), np.eye(8)) < 1e-12


def test_u0_diagonal_phases():
    eps = np.array([1.0, 2.0])
    tau = 0.1
    u = effective_unitary(build_u0(eps, tau), 2)
    h = 0.5 * (eps[0] * embed(SZ, 0, 2) + eps[1] * embed(SZ, 1, 2))
    assert phase_aligned_distance(u, sla.expm(1j * tau * h)) < 1e-12


def test_u0_locals_equal_the_per_qubit_diagonals_bitwise():
    eps = np.random.default_rng(109).uniform(-3.0, 3.0, 7)
    for tau in (0.1, -0.37, 2.9):
        gates = build_u0(eps, tau).gates
        assert [(cut, g.qubit, g.label) for cut, g in gates] == [(0, m, "rz") for m in range(7)]
        for m, (_, g) in enumerate(gates):
            want = np.diag([np.exp(0.5j * eps[m] * tau), np.exp(-0.5j * eps[m] * tau)])
            assert g.u.tobytes() == want.tobytes()
        assert len({id(g.u) for _, g in gates}) == 7   # each Local keeps its own copy


@pytest.mark.parametrize("eps, tau, match", [
    ([1.0, 2.0], math.inf, "tau must be finite"),
    ([1.0, 2.0], math.nan, "tau must be finite"),
    ([1.0, math.nan], 0.1, "eps must be finite"),
    ([-math.inf, 2.0], 0.1, "eps must be finite"),
    ([1.0, 4.0], 1e308, "eps \\* tau overflows"),
])
def test_u0_rejects_non_finite_phases(eps, tau, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            build_u0(np.array(eps), tau)


# ---------------------------------------------------------------------------
# build_cnot
# ---------------------------------------------------------------------------

def test_cnot_counts():
    c = count_ops(build_cnot(0, 1))
    assert (c["bus"], c["local"], c["total"]) == (4, 2, 6)


def test_cnot_truth_table_up_to_input_phase():
    seq = build_cnot(0, 1)
    for bits, want in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        out = execute(seq, init_state(2, bits))
        vec = extract_qubit_vector(out)
        assert abs(abs(vec[int(want, 2)]) - 1.0) < 1e-10


def test_cnot_documented_form_and_budget_obstruction():
    # Within 4 displacements + 2 locals the output is CNOT times a phase on
    # the control (bus loops cannot generate single-Z phases); the exact
    # relation is pinned here.
    u = effective_unitary(build_cnot(0, 1), 2)
    residual = np.kron(np.diag([1.0, -1j]), np.eye(2)) @ CNOT
    assert phase_aligned_distance(u, residual) < 1e-10


def test_cnot_creates_bell_state():
    plus0 = state_from_vector(np.array([1, 0, 1, 0]) / math.sqrt(2), 2)
    out = execute(build_cnot(0, 1), plus0)
    assert is_bus_disentangled(out, 1e-10)
    vec = extract_qubit_vector(out)
    assert abs(abs(vec[0]) - 1 / math.sqrt(2)) < 1e-10
    assert abs(abs(vec[3]) - 1 / math.sqrt(2)) < 1e-10
    assert abs(vec[1]) < 1e-10 and abs(vec[2]) < 1e-10


def test_cnot_rejects_equal_indices():
    with pytest.raises(ValueError):
        build_cnot(2, 2)


# ---------------------------------------------------------------------------
# make_controlled
# ---------------------------------------------------------------------------

def controlled_target(v, axis):
    n = v.shape[0]
    pauli = {"z": SZ, "x": SX, "y": SY}[axis]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for m in range(n):
        for l in range(m + 1, n):
            h = h + v[m, l] / 2.0 * (embed(pauli, m, n) @ embed(pauli, l, n))
    dim = 2**n
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = sla.expm(1j * h)
    return out


def test_make_controlled_counts():
    rng = np.random.default_rng(73)
    v = random_dense_coupling(3, rng)
    assert count_ops(make_controlled(CouplingMatrix(3, v), 0, "z"))["total"] == 44
    assert count_ops(make_controlled(CouplingMatrix(3, v), 0, "x"))["total"] == 50
    assert count_ops(make_controlled(CouplingMatrix(3, v), 0, "y"))["total"] == 50


@pytest.mark.parametrize("axis", ["w", "X", ""])
def test_make_controlled_rejects_unknown_axis(axis, monkeypatch):
    import qubusim.builders as builders

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before the axis was checked")

    monkeypatch.setattr(builders, "_cycles", no_compile)
    with pytest.raises(ValueError, match="axis"):
        make_controlled(CouplingMatrix(2, np.array([[0.0, 0.5], [0.5, 0.0]])), 0, axis)


def test_make_controlled_is_exact_block_unitary():
    rng = np.random.default_rng(79)
    for n in (2, 3):
        v = random_dense_coupling(n, rng)
        for axis in ("z", "x", "y"):
            u = effective_unitary(make_controlled(CouplingMatrix(n, v), 0, axis), n + 1)
            assert np.max(np.abs(u - controlled_target(v, axis))) < 1e-9


def test_make_controlled_ancilla_zero_identity():
    rng = np.random.default_rng(83)
    for n in (2, 3):
        v = random_dense_coupling(n, rng)
        u = effective_unitary(make_controlled(CouplingMatrix(n, v), 0, "z"), n + 1)
        dim = 2**n
        assert np.max(np.abs(u[:dim, :dim] - np.eye(dim))) < 1e-9
        assert np.max(np.abs(u[:dim, dim:])) < 1e-12
        assert np.max(np.abs(u[dim:, :dim])) < 1e-12


def test_make_controlled_nonzero_ancilla_index():
    rng = np.random.default_rng(89)
    v = random_dense_coupling(2, rng)
    seq = make_controlled(CouplingMatrix(2, v), ancilla=2, axis="z")
    u = effective_unitary(seq, 3)
    # Ancilla is the least significant qubit here: reorder to compare.
    perm = np.zeros((8, 8))
    for a in range(2):
        for s in range(4):
            perm[a * 4 + s, s * 2 + a] = 1.0
    assert np.max(np.abs(perm @ u @ perm.T - controlled_target(v, "z"))) < 1e-9


def test_make_controlled_rejects_bad_ancilla():
    with pytest.raises(ValueError):
        make_controlled(CouplingMatrix(2, np.zeros((2, 2))), ancilla=5)


# ---------------------------------------------------------------------------
# make_controlled_locals
# ---------------------------------------------------------------------------

def controlled_locals_target(us):
    sub = us[0]
    for u in us[1:]:
        sub = np.kron(sub, u)
    dim = sub.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = sub
    return out


def test_controlled_locals_count_8n_plus_4():
    rng = np.random.default_rng(97)
    for n in (1, 2, 3):
        us = []
        for _ in range(n):
            u = haar_unitary_2(rng)
            us.append(u / np.sqrt(np.linalg.det(u)))  # unit determinant
        seq = make_controlled_locals(us, 0)
        assert count_ops(seq)["total"] == 8 * n + 4


def test_controlled_locals_identity_inputs():
    seq = make_controlled_locals([np.eye(2)] * 3, 0)
    u = effective_unitary(seq, 4)
    assert np.max(np.abs(u - np.eye(16))) < 1e-9


def test_controlled_locals_random_diagonals():
    rng = np.random.default_rng(101)
    us = [np.diag(np.exp(1j * rng.uniform(-1, 1, size=2))) for _ in range(2)]
    u = effective_unitary(make_controlled_locals(us, 0), 3)
    assert np.max(np.abs(u - controlled_locals_target(us))) < 1e-9


def test_controlled_locals_haar_inputs_exact():
    rng = np.random.default_rng(103)
    us = [haar_unitary_2(rng) for _ in range(3)]
    seq = make_controlled_locals(us, 0)
    u = effective_unitary(seq, 4)
    assert np.max(np.abs(u - controlled_locals_target(us))) < 1e-9
    # generic determinants cost one extra ancilla phase
    assert count_ops(seq)["total"] == 8 * 3 + 5


def test_controlled_locals_z_rotations_hit_budget():
    # z rotations have unit determinant: always 8N+4.
    rng = np.random.default_rng(107)
    for n in (1, 2, 4):
        us = [np.diag([np.exp(1j * f), np.exp(-1j * f)])
              for f in rng.uniform(-2, 2, size=n)]
        seq = make_controlled_locals(us, 0)
        assert count_ops(seq)["total"] == 8 * n + 4
        u = effective_unitary(seq, n + 1)
        assert np.max(np.abs(u - controlled_locals_target(us))) < 1e-9


@pytest.mark.parametrize("u, match", [
    (np.diag([2.0, 0.5]), "not unitary"),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "not unitary"),
    (np.eye(3), "must be 2x2"),
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "not unitary"),
])
def test_controlled_locals_rejects_non_unitary_inputs(u, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match) as err:
            make_controlled_locals([np.eye(2), u], ancilla=0)
    assert "\n" not in str(err.value)


def test_partial_cphase_leaves_bus_entangled():
    seq = build_cphase(0, 1, math.pi / 4)
    state = init_state(2, "01")
    from qubusim.hybrid import apply_displacement

    for ins in seq.instructions[:2]:
        state = apply_displacement(state, ins.qubit, ins.beta)
    # after half the loop the bus amplitude still depends on the basis:
    # compare against a different basis input
    other = init_state(2, "10")
    for ins in seq.instructions[:2]:
        other = apply_displacement(other, ins.qubit, ins.beta)
    assert abs(state.branches[0].alpha - other.branches[0].alpha) > 0.1


def test_cphase_fast_path_closed_form():
    # the closed loop through the branch simulator on every basis input:
    # one branch, the bus back at the origin and the phase theta s0 s1
    theta = 0.61
    seq = build_cphase(0, 1, theta)
    for bits in ("00", "01", "10", "11"):
        out = execute(seq, init_state(2, bits))
        assert len(out.branches) == 1
        br = out.branches[0]
        s0 = 1 if bits[0] == "0" else -1
        s1 = 1 if bits[1] == "0" else -1
        assert abs(br.coeff - np.exp(1j * theta * s0 * s1)) < 1e-12
        assert abs(br.alpha) < 1e-12


def _su2_split_by_eig(u):
    """_su2_split's general path (eig, then qr of the ordered eigenvectors)."""
    delta = np.angle(np.linalg.det(u)) / 2.0
    w, vecs = np.linalg.eig(u * np.exp(-1j * delta))
    order = np.argsort(-np.angle(w))
    q, _ = np.linalg.qr(vecs[:, order])
    return delta, q, float(np.angle(w[order][0]))


def test_su2_split_of_a_diagonal_skips_eig_bit_for_bit(monkeypatch):
    from qubusim.builders import _su2_split

    rng = np.random.default_rng(1414)
    phases = [rng.uniform(-np.pi, np.pi, 2) for _ in range(4000)]
    phases += [np.zeros(2), np.full(2, np.pi), np.array([np.pi, -np.pi]),
               np.array([0.3, 0.3]), np.array([-np.pi / 2, np.pi / 2])]
    us = [np.diag(np.exp(1j * p)) for p in phases] + [np.eye(2), -np.eye(2)]
    want = [_su2_split_by_eig(u) for u in us]

    def refuse(*args):
        raise AssertionError("a diagonal input needs no eig or qr")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    for u, (delta, basis, eta) in zip(us, want):
        got = _su2_split(u)
        assert np.array(got[0]).tobytes() == np.array(delta).tobytes()
        assert got[1].tobytes() == basis.tobytes()
        assert np.array(got[2]).tobytes() == np.array(eta).tobytes()
