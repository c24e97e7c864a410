"""Independent oracles used only by the tests.

Nothing here goes through the package's branch simulator or builders: the
Fock simulator works in a truncated number basis with exact matrix functions,
and the matrix oracles assemble targets from explicit Pauli/Fourier
definitions.  The one exception is compiled_trotter_error, which measures
the product-formula error through the compiled step on purpose.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as sla

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed(op, qubit, n):
    return kron_chain([op if q == qubit else np.eye(2) for q in range(n)])


def phase_aligned_distance(u, target):
    """max |u - e^{i phi} target| minimized over the global phase."""
    tr = np.trace(target.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.max(np.abs(u - phase * target)))


def zz_diagonal_target(v: np.ndarray) -> np.ndarray:
    """exp(i sum_{m<l} V[m,l]/2 Z_m Z_l) by direct sign enumeration."""
    n = v.shape[0]
    idx = np.arange(2**n)
    phases = np.zeros(2**n)
    for m in range(n):
        for l in range(m + 1, n):
            sm = 1 - 2 * ((idx >> (n - 1 - m)) & 1)
            sl = 1 - 2 * ((idx >> (n - 1 - l)) & 1)
            phases = phases + v[m, l] / 2.0 * sm * sl
    return np.diag(np.exp(1j * phases))


def pauli_pair_exponential(v: np.ndarray, pauli: np.ndarray) -> np.ndarray:
    """exp(i sum_{m<l} V[m,l]/2 P_m P_l) via a dense matrix exponential."""
    n = v.shape[0]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for m in range(n):
        for l in range(m + 1, n):
            h = h + v[m, l] / 2.0 * (embed(pauli, m, n) @ embed(pauli, l, n))
    return sla.expm(1j * h)


def dft_matrix(k: int) -> np.ndarray:
    dim = 2**k
    x, y = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * x * y / dim) / math.sqrt(dim)


def bit_reversal_permutation(k: int) -> np.ndarray:
    dim = 2**k
    perm = np.zeros((dim, dim))
    for x in range(dim):
        perm[int(format(x, f"0{k}b")[::-1], 2), x] = 1.0
    return perm


def random_dense_coupling(n: int, rng, low=0.3, high=1.0) -> np.ndarray:
    v = rng.uniform(low, high, size=(n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
    v = (v + v.T) / 2.0
    np.fill_diagonal(v, 0.0)
    # keep entries bounded away from zero so dense-count formulas apply
    small = np.abs(v) < low / 2
    v[small & ~np.eye(n, dtype=bool)] = low
    v = (v + v.T) / 2.0
    np.fill_diagonal(v, 0.0)
    return v


def product_coupling(n: int, decay: float = 1.0) -> np.ndarray:
    v = np.zeros((n, n))
    for m in range(n):
        for l in range(m + 1, n):
            v[m, l] = v[l, m] = math.exp(-decay * abs(m - l))
    return v


def banded_coupling(n: int, p: int, rng) -> np.ndarray:
    v = np.zeros((n, n))
    for m in range(n):
        for l in range(m + 1, min(m + p, n - 1) + 1):
            v[m, l] = v[l, m] = rng.uniform(0.3, 1.0)
    return v


def decompose_limited_reference(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row/column constants with v[m,l] = a[m] b[l] for m < l, by the
    per-edge propagation the array version in builders replaced: a dict of
    edge lists, one Python division per constant.  Raises ValueError, with
    the builder's NotProductFormError message, on the first violated pair
    (row-major, 1e-12 relative)."""
    n = v.shape[0]
    rows = v.tolist()
    a = np.zeros(n)
    b = np.zeros(n)
    assigned_a = [False] * n
    assigned_b = [False] * n
    edges: dict[int, list[int]] = {}
    for m, l in np.argwhere(np.triu(v, 1)).tolist():  # row-major
        edges.setdefault(m, []).append(l)
        edges.setdefault(~l, []).append(m)  # ~l tags column nodes
    for root in range(n - 1):
        if root not in edges or assigned_a[root]:
            continue
        a[root] = 1.0
        assigned_a[root] = True
        frontier = [root]
        while frontier:
            node = frontier.pop()
            if node >= 0:
                for l in edges.get(node, ()):
                    if not assigned_b[l]:
                        b[l] = rows[node][l] / a[node]
                        assigned_b[l] = True
                        frontier.append(~l)
            else:
                col = ~node
                for m in edges.get(node, ()):
                    if not assigned_a[m]:
                        a[m] = rows[m][col] / b[col]
                        assigned_a[m] = True
                        frontier.append(m)
    for m in range(n):
        for l in range(m + 1, n):
            want, got = v[m, l], a[m] * b[l]
            if abs(want - got) > 1e-12 * max(1.0, abs(want)):
                raise ValueError(f"couplings are not product-structured: V[{m},{l}]={want} "
                                 f"but row/column constants give {got}")
    ma, mb = np.max(np.abs(a)), np.max(np.abs(b))
    if ma > 0 and mb > 0:
        c = math.sqrt(mb / ma)
        a, b = a * c, b / c
    return a, b


def haar_unitary_2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Truncated-Fock joint simulator
# ---------------------------------------------------------------------------

def fock_dim_for(alpha_max: float, tail: float = 1e-13, minimum: int = 24) -> int:
    """Smallest dimension whose coherent-state tail mass stays below `tail`."""
    lam = alpha_max**2
    dim = minimum
    while True:
        # Poisson tail mass beyond dim-1 for mean lam, computed stably.
        log_terms = -lam + np.arange(dim, dim + 200) * math.log(max(lam, 1e-300)) \
            - np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, dim + 200))]))[dim:]
        mass = float(np.sum(np.exp(log_terms)))
        if mass < tail:
            return dim
        dim += 16


@functools.cache
def _displacement_generator_eigh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of -i (adag - a) on the first dim number states."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return np.linalg.eigh(-1j * (a.conj().T - a))


class FockOracle:
    """Joint qubit-register + truncated-Fock-bus state, evolved exactly.

    Controlled displacements act as exp(s (beta adag - conj(beta) a)) per
    sigma_z sector s = +-1; local unitaries act on the qubit tensor factor.
    Truncation adequacy is certified by the norm staying at 1.
    """

    def __init__(self, num_qubits: int, dim: int, basis: str | None = None):
        self.n = num_qubits
        self.dim = dim
        self.state = np.zeros((2**num_qubits, dim), dtype=complex)
        if basis is None:
            basis = "0" * num_qubits
        self.state[int(basis, 2), 0] = 1.0
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        self._adag = a.conj().T
        self._a = a

    @classmethod
    def from_hybrid(cls, hybrid_state, dim: int) -> "FockOracle":
        sim = cls(hybrid_state.num_qubits, dim)
        sim.state[:] = 0.0
        for br in hybrid_state.branches:
            sim.state[int(br.basis, 2)] += br.coeff * coherent_vector(br.alpha, dim)
        return sim

    def displacement(self, beta: complex) -> np.ndarray:
        """exp(beta adag - conj(beta) a) on the truncated space.

        With beta = r e^{i theta}, D(beta) = R D(r) R^dagger for the diagonal
        R = exp(i theta adag a), and D(r) = exp(i r G) = V exp(i r w) V^dagger
        from the eigendecomposition (w, V) of the Hermitian tridiagonal
        G = -i (adag - a), cached per dimension.
        """
        w, v = _displacement_generator_eigh(self.dim)
        r, theta = abs(beta), np.angle(beta)
        rot = np.exp(1j * theta * np.arange(self.dim))
        d_r = (v * np.exp(1j * r * w)) @ v.conj().T
        return rot[:, None] * d_r * rot.conj()[None, :]

    def apply_displacement(self, qubit: int, beta: complex) -> None:
        d_plus = self.displacement(beta)
        d_minus = d_plus.conj().T  # D(-beta)
        bit = (np.arange(2**self.n) >> (self.n - 1 - qubit)) & 1
        self.state[bit == 0] = self.state[bit == 0] @ d_plus.T
        self.state[bit == 1] = self.state[bit == 1] @ d_minus.T

    def apply_local(self, qubit: int, u: np.ndarray) -> None:
        t = self.state.reshape([2] * self.n + [self.dim])
        t = np.tensordot(np.asarray(u, dtype=complex), t, axes=([1], [qubit]))
        t = np.moveaxis(t, 0, qubit)
        self.state = t.reshape(2**self.n, self.dim)

    def inner(self, other: "FockOracle") -> complex:
        return complex(np.vdot(self.state, other.state))

    def norm(self) -> float:
        return float(np.linalg.norm(self.state))


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    for k in range(1, dim):
        vec[k] = vec[k - 1] * alpha / math.sqrt(k)
    return vec * math.exp(-0.5 * abs(alpha) ** 2)


def compiled_trotter_error(model, t: float, steps: int, order: int = 2, *,
                           exact: np.ndarray | None = None) -> float:
    """bcs.trotter_error measured through the compiled pipeline.

    The step comes from builders.build_trotter_step and its unitary from
    one effective_unitary fold, as trotter_error computed it before it
    evaluated the product formula exactly.
    """
    from qubusim.bcs import exact_evolution
    from qubusim.builders import build_trotter_step
    from qubusim.sequence import effective_unitary

    u_step = effective_unitary(build_trotter_step(model, t / steps, order), model.n_modes)
    u = np.linalg.matrix_power(u_step, steps)
    if exact is None:
        exact = exact_evolution(model, t)
    return float(np.linalg.norm(u - exact, 2))
