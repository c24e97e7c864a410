"""Branch simulation against the truncated-Fock oracle."""

import numpy as np
import pytest
import scipy.linalg as sla

from qubusim.hybrid import apply_displacement, apply_local, init_state, norm
from qubusim.sequence import Displace, Local

from oracles import FockOracle, coherent_vector, fock_dim_for, haar_unitary_2


def random_sequence(rng, num_qubits, num_ops, beta_max=0.8):
    ops = []
    for _ in range(num_ops):
        q = int(rng.integers(num_qubits))
        if rng.random() < 0.6:
            mag = rng.uniform(0.0, beta_max)
            phase = rng.uniform(0.0, 2 * np.pi)
            ops.append(Displace(q, mag * np.exp(1j * phase)))
        else:
            ops.append(Local(q, haar_unitary_2(rng)))
    return ops


def run_branch(ops, num_qubits, basis):
    s = init_state(num_qubits, basis)
    max_alpha = 0.0
    for op in ops:
        if isinstance(op, Displace):
            s = apply_displacement(s, op.qubit, op.beta)
        else:
            s = apply_local(s, op.qubit, op.u)
        max_alpha = max(max_alpha, max((abs(b.alpha) for b in s.branches), default=0.0))
    return s, max_alpha


def run_fock(ops, num_qubits, basis, dim):
    sim = FockOracle(num_qubits, dim, basis)
    for op in ops:
        if isinstance(op, Displace):
            sim.apply_displacement(op.qubit, op.beta)
        else:
            sim.apply_local(op.qubit, op.u)
    return sim


def embed_branches(state, dim):
    out = np.zeros((2**state.num_qubits, dim), dtype=complex)
    for br in state.branches:
        out[int(br.basis, 2)] += br.coeff * coherent_vector(br.alpha, dim)
    return out


def check_sequence(rng, num_qubits, num_ops, tol=1e-8):
    basis = "".join(rng.choice(["0", "1"]) for _ in range(num_qubits))
    ops = random_sequence(rng, num_qubits, num_ops)
    branch_state, max_alpha = run_branch(ops, num_qubits, basis)
    assert abs(norm(branch_state) - 1.0) < 1e-10
    dim = fock_dim_for(max_alpha + 0.5)
    fock = run_fock(ops, num_qubits, basis, dim)
    # Truncation adequacy is certified inside the oracle, independently of
    # the branch data that suggested the dimension.
    assert abs(fock.norm() - 1.0) < 1e-10
    overlap = np.vdot(embed_branches(branch_state, dim), fock.state)
    assert abs(overlap - 1.0) < tol
    return branch_state, fock, dim


def test_branch_matches_fock_on_random_sequences():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        check_sequence(rng, n, int(rng.integers(5, 31)))


def test_cross_state_inner_products_match():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = 2
        b1, f1, d1 = check_sequence(rng, n, 12)
        b2, f2, d2 = check_sequence(rng, n, 12)
        dim = max(d1, d2)
        e1 = embed_branches(b1, dim)
        e2 = embed_branches(b2, dim)
        branch_ip = np.vdot(e1, e2)
        f1b = run_fock_like(f1, dim)
        f2b = run_fock_like(f2, dim)
        fock_ip = np.vdot(f1b, f2b)
        assert abs(branch_ip - fock_ip) < 1e-8


def run_fock_like(fock, dim):
    if fock.dim == dim:
        return fock.state
    out = np.zeros((fock.state.shape[0], dim), dtype=complex)
    out[:, : fock.dim] = fock.state
    return out


def test_fock_displacement_composition():
    # D(a)D(b)|0> = phase * |a+b> in the truncated basis too.
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = complex(rng.normal(), rng.normal()) * 0.5
        b = complex(rng.normal(), rng.normal()) * 0.5
        dim = fock_dim_for(abs(a) + abs(b) + 0.5)
        sim = FockOracle(1, dim, "0")
        sim.apply_displacement(0, b)
        sim.apply_displacement(0, a)
        target = coherent_vector(a + b, dim) * np.exp((a * np.conj(b) - np.conj(a) * b) / 2)
        assert np.max(np.abs(sim.state[0] - target)) < 1e-10


@pytest.mark.parametrize("dim", [24, 56, 120])
def test_fock_displacement_matches_expm(dim):
    # The oracle's displacement comes from a cached eigendecomposition; it
    # must equal the matrix exponential of the truncated generator.
    sim = FockOracle(1, dim)
    for r in (0.0, 0.3, 1.0, 1.5, 3.0):
        for theta in np.linspace(-np.pi, np.pi, 7):
            beta = r * np.exp(1j * theta)
            ref = sla.expm(beta * sim._adag - np.conj(beta) * sim._a)
            assert np.max(np.abs(sim.displacement(beta) - ref)) <= 1e-12
