"""Exact simulation of a qubit register coupled to a continuous-variable bus.

The joint state is stored as a weighted sum of branches

    |psi> = sum_b  c_b |b> (x) |alpha_b>

where |b> is a computational basis string over the qubits and |alpha_b> is a
coherent state of the bus.  Controlled displacements D(beta * sigma_z) map
coherent states to coherent states, so this representation is closed under
the full bus gate set and the simulation is exact (no Fock truncation).

Conventions
-----------
* Qubit 0 is the most significant bit of a basis string ("10" means qubit 0
  is in |1>).
* sigma_z eigenvalue is +1 for bit '0' and -1 for bit '1'.
* A displacement D(beta) acting on |alpha> gives
  exp((beta*conj(alpha) - conj(beta)*alpha)/2) |alpha + beta>,
  i.e. the branch picks up the phase Im(beta * conj(alpha)).
* Real beta displaces the position quadrature, imaginary beta the momentum
  quadrature.  Displacements on the same quadrature commute and produce no
  phase; orthogonal quadratures generate the qubit-qubit phases.

Performance
-----------
Each branch's alpha and coeff are Python complex numbers, and no per-branch
loop (apply_displacement, apply_local, merge_branches) calls numpy: np.exp,
np.conj or an index into a 2x2 array costs 2 to 10 times its Python
equivalent on one scalar.  Numpy enters only where a whole state becomes
arrays at once (inner_product, the bus-disentanglement checks).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BranchTerm",
    "HybridState",
    "EntangledBusError",
    "init_state",
    "state_from_vector",
    "apply_displacement",
    "apply_local",
    "inner_product",
    "norm",
    "is_bus_disentangled",
    "extract_qubit_vector",
    "merge_branches",
    "coherent_overlap",
    "to_debug_json",
    "z_signs",
]

MERGE_TOL = 1e-12        # alpha equality tolerance when merging branches
COEFF_DROP_TOL = 1e-14   # branches below this weight are discarded
DISENTANGLE_TOL = 1e-9   # default tolerance for bus-disentanglement checks
_PAIR_BLOCK = 1 << 14    # branch pairs per block of inner_product's sum


class EntangledBusError(Exception):
    """Raised when an operation requires a disentangled bus and the bus is not."""


@dataclass(slots=True)
class BranchTerm:
    """One term c |basis> (x) |alpha> of a hybrid state."""

    basis: str
    alpha: complex
    coeff: complex


@dataclass
class HybridState:
    """Qubit register plus bus, as a list of coherent-state branches."""

    num_qubits: int
    branches: list[BranchTerm] = field(default_factory=list)

    def norm(self) -> float:
        return norm(self)

    def copy(self) -> "HybridState":
        return HybridState(
            self.num_qubits,
            [BranchTerm(b.basis, b.alpha, b.coeff) for b in self.branches],
        )


def init_state(n: int, basis: str) -> HybridState:
    """Product state |basis> (x) |vacuum>."""
    if n <= 0:
        raise ValueError(f"need a positive qubit count, got {n}")
    if len(basis) != n or any(c not in "01" for c in basis):
        raise ValueError(f"basis string {basis!r} does not describe {n} qubits")
    return HybridState(n, [BranchTerm(basis, 0j, 1.0 + 0j)])


def state_from_vector(vec: np.ndarray, num_qubits: int) -> HybridState:
    """Qubit state from a 2^n amplitude vector, bus in vacuum."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (2**num_qubits,):
        raise ValueError(f"expected a vector of length {2**num_qubits}")
    if not np.isfinite(vec).all():
        raise ValueError("amplitude vector has non-finite entries")
    branches = [
        BranchTerm(format(i, f"0{num_qubits}b"), 0j, complex(a))
        for i, a in enumerate(vec)
        if abs(a) > COEFF_DROP_TOL
    ]
    return HybridState(num_qubits, branches)


def coherent_overlap(a: complex, b: complex) -> complex:
    """<a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)


def z_signs(n: int) -> np.ndarray:
    """Sign table of the register, shape (2^n, n).

    s[b, q] is the sigma_z eigenvalue of qubit q on basis index b: +1.0 for
    bit 0 and -1.0 for bit 1, with qubit 0 the most significant bit.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def apply_displacement(s: HybridState, qubit: int, beta: complex) -> HybridState:
    """Controlled displacement D(beta * sigma_z) on the given qubit.

    Branches with the qubit in |0> are displaced by +beta, branches with the
    qubit in |1> by -beta; each picks up the phase Im(s*beta*conj(alpha)).
    """
    if not 0 <= qubit < s.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {s.num_qubits} qubits")
    beta = complex(beta)
    if not np.isfinite(beta.real) or not np.isfinite(beta.imag):
        raise ValueError("displacement amplitude must be finite")
    out = []
    for br in s.branches:
        d = (1 if br.basis[qubit] == "0" else -1) * beta
        phase = cmath.exp(1j * (d * br.alpha.conjugate()).imag)
        out.append(BranchTerm(br.basis, br.alpha + d, br.coeff * phase))
    return HybridState(s.num_qubits, out)


def _check_unitary(u: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """u as a complex array, checked to be a 2x2 unitary within tol.

    The test is max |u^dagger u - 1| <= tol over the entries, from the four
    entries as Python scalars: the diagonal of u^dagger u holds the column
    norms |a|^2 + |c|^2 and |b|^2 + |d|^2, the off-diagonal conj(a) b +
    conj(c) d and its conjugate.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("local unitaries must be 2x2")
    (a, b), (c, d) = u.tolist()
    norm0 = (a.real * a.real + a.imag * a.imag) + (c.real * c.real + c.imag * c.imag)
    norm1 = (b.real * b.real + b.imag * b.imag) + (d.real * d.real + d.imag * d.imag)
    off = a.conjugate() * b + c.conjugate() * d
    # Written so that NaN entries fail the check too.  Products and hypot
    # overflow to inf, where abs() of a complex raises OverflowError.
    if not (abs(norm0 - 1.0) <= tol and abs(norm1 - 1.0) <= tol
            and math.hypot(off.real, off.imag) <= tol):
        raise ValueError("matrix is not unitary within 1e-12")
    return u


def apply_local(s: HybridState, qubit: int, u: np.ndarray) -> HybridState:
    """Local 2x2 unitary on one qubit; branches split and are re-merged."""
    if not 0 <= qubit < s.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {s.num_qubits} qubits")
    u = _check_unitary(u).tolist()
    # For each old bit, the (amplitude, new bit) pairs above COEFF_DROP_TOL.
    kept = {str(old): [(u[new][old], str(new)) for new in (0, 1)
                       if abs(u[new][old]) > COEFF_DROP_TOL]
            for old in (0, 1)}
    out = []
    for br in s.branches:
        head, tail = br.basis[:qubit], br.basis[qubit + 1 :]
        for amp, new_bit in kept[br.basis[qubit]]:
            out.append(BranchTerm(head + new_bit + tail, br.alpha, br.coeff * amp))
    return merge_branches(HybridState(s.num_qubits, out), MERGE_TOL)


def inner_product(s1: HybridState, s2: HybridState) -> complex:
    """<s1|s2> using coherent overlaps between branches with equal basis.

    The branches of s2 are sorted by basis, so each branch of s1 pairs with
    one contiguous run of them.  The terms conj(c1) c2 <a1|a2> of all
    equal-basis pairs are summed in blocks of consecutive s1 branches
    holding at most _PAIR_BLOCK pairs (a branch whose run alone is longer
    is a block of its own), which bounds the scratch memory at any branch
    count.
    """
    if s1.num_qubits != s2.num_qubits:
        raise ValueError("states have different register sizes")
    # Basis strings are numbered, so any register width works; -1 marks a
    # basis of s1 that s2 lacks.
    ids: dict[str, int] = {}
    b2 = np.array([ids.setdefault(b.basis, len(ids)) for b in s2.branches], dtype=np.int64)
    b1 = np.array([ids.get(b.basis, -1) for b in s1.branches], dtype=np.int64)
    a1 = np.array([b.alpha for b in s1.branches], dtype=complex)
    c1 = np.array([b.coeff for b in s1.branches], dtype=complex)
    a2 = np.array([b.alpha for b in s2.branches], dtype=complex)
    c2 = np.array([b.coeff for b in s2.branches], dtype=complex)
    order = np.argsort(b2, kind="stable")
    b2, a2, c2 = b2[order], a2[order], c2[order]
    # Branch r of s1 pairs with branches lo[r] .. lo[r] + counts[r] - 1 of s2.
    lo = np.searchsorted(b2, b1, side="left")
    counts = np.searchsorted(b2, b1, side="right") - lo
    ends = np.cumsum(counts)
    a1c, c1c = np.conj(a1), np.conj(c1)
    w1, w2 = -0.5 * np.abs(a1) ** 2, -0.5 * np.abs(a2) ** 2
    total = 0j
    start = 0
    while start < len(b1):
        done = ends[start - 1] if start else 0  # pairs of the earlier blocks
        stop = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")), start + 1)
        k = counts[start:stop]
        offset = ends[start:stop] - k - done  # index of each row's first pair in the block
        i = np.repeat(np.arange(start, stop), k)
        j = np.arange(ends[stop - 1] - done) + np.repeat(lo[start:stop] - offset, k)
        # exp(w1 + w2 + conj(a1) a2) conj(c1) c2, in place to keep the block small.
        z = a1c[i]
        z *= a2[j]
        z += w1[i]
        z += w2[j]
        np.exp(z, out=z)
        z *= c1c[i]
        z *= c2[j]
        total += z.sum()
        start = stop
    return complex(total)


def norm(s: HybridState) -> float:
    return float(np.sqrt(max(inner_product(s, s).real, 0.0)))


def merge_branches(s: HybridState, tol: float = MERGE_TOL) -> HybridState:
    """Sum branches with equal basis and alpha within tol; drop null branches.

    Bases keep their order of first appearance.  Within a basis the terms
    are sorted by (Re alpha, Im alpha); each term joins the first cluster
    whose alpha (that of its first term) lies within tol, or else starts a
    new cluster.  Clusters are created in sorted order, so only the trailing
    ones whose Re alpha is within tol of the term's can match, and the scan
    walks back from the last cluster until Re alpha falls below that.  This
    sorted-neighbour merge meets one cluster per term unless real parts tie
    within tol, O(B log B) in the branch count B, and gives the clusters of
    a scan over all of them.
    """
    groups: dict[str, list[BranchTerm]] = {}
    for br in s.branches:
        groups.setdefault(br.basis, []).append(br)
    out = []
    for basis, terms in groups.items():
        clusters: list[BranchTerm] = []
        for t in sorted(terms, key=lambda b: (b.alpha.real, b.alpha.imag)):
            a = t.alpha
            match = None
            for c in reversed(clusters):
                if c.alpha.real < a.real - tol:
                    break
                if abs(a - c.alpha) <= tol:
                    match = c  # keep walking: the first cluster within tol wins
            if match is None:
                clusters.append(BranchTerm(basis, a, t.coeff))
            else:
                match.coeff += t.coeff
        out.extend(c for c in clusters if abs(c.coeff) > COEFF_DROP_TOL)
    return HybridState(s.num_qubits, out)


def _common_alpha(s: HybridState) -> tuple[complex, float]:
    """Weighted mean bus amplitude and the largest branch deviation from it.

    A state of zero weight (no branches, or only null ones) gives (0, 0).
    """
    weights = np.array([abs(b.coeff) ** 2 for b in s.branches])
    total = np.sum(weights)
    if total == 0:
        return 0j, 0.0
    alphas = np.array([b.alpha for b in s.branches])
    mean = complex(np.sum(weights * alphas) / total)
    dev = float(np.max(np.abs(alphas - mean)))
    return mean, dev


def is_bus_disentangled(s: HybridState, tol: float = DISENTANGLE_TOL) -> bool:
    """True iff every branch's bus amplitude lies within tol of a common value."""
    _, dev = _common_alpha(s)
    return dev <= tol


def extract_qubit_vector(s: HybridState, tol: float = DISENTANGLE_TOL) -> np.ndarray:
    """Qubit amplitudes once the bus factors out.

    The common bus factor is dropped and the global phase is fixed so the
    largest-magnitude amplitude is real positive; the result is normalized.
    Raises EntangledBusError when branch bus amplitudes disagree beyond tol,
    and ValueError when the state has zero norm.
    """
    vec = qubit_amplitudes(s, tol)
    length = np.linalg.norm(vec)
    if length == 0:
        raise ValueError("state has zero norm")
    vec = vec / length
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def qubit_amplitudes(s: HybridState, tol: float = DISENTANGLE_TOL) -> np.ndarray:
    """Raw qubit amplitudes (no phase fixing, no normalization).

    Valid only when the bus is disentangled: the joint state is then
    (sum_b c_b |b>) (x) |alpha_common> and the c_b are returned as given,
    so relative phases between basis states are preserved.
    """
    if not is_bus_disentangled(s, tol):
        raise EntangledBusError("bus is still entangled with the register")
    vec = np.zeros(2**s.num_qubits, dtype=complex)
    for br in s.branches:
        vec[int(br.basis, 2)] += br.coeff
    return vec


def to_debug_json(s: HybridState) -> dict:
    """JSON-friendly dump of a hybrid state."""
    return {
        "num_qubits": s.num_qubits,
        "branches": [
            {
                "basis": b.basis,
                "alpha": [b.alpha.real, b.alpha.imag],
                "coeff": [b.coeff.real, b.coeff.imag],
            }
            for b in s.branches
        ],
    }
