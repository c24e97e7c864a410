"""Compilation IR for bus circuits: instructions, sequences, execution.

A GateSequence is an ordered list of three instruction kinds:

* Displace(qubit, beta): one controlled displacement D(beta * sigma_z) of the
  bus, the unit of cost in every operation count.
* Local(qubit, u, label): an arbitrary 2x2 unitary on one qubit.
* Barrier(label): structural marker, carries no semantics and no cost.

The executor folds a sequence through the hybrid-state simulator.
effective_unitary reconstructs the compiled qubit unitary by folding all 2^n
basis columns through the sequence as two arrays (branch amplitude and bus
amplitude per basis state and column); it falls back to executing the
columns one at a time when a local gate hits a qubit entangled with the bus.
The bus-amplitude array stays at rest, unmaterialized, while every
displacement run closes before the next local gate, as the compiled loops
do (Sorensen and Molmer, PRA 62, 022311 (2000)): a run counts as closed when
its net displacement is within the rounding bound of its own sum, and then
costs one phase per basis state.  product_unitary multiplies the folds of
parts that each return the bus to rest, folding a repeated part once.
"""

from __future__ import annotations

import cmath
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hybrid import (
    COEFF_DROP_TOL,
    MERGE_TOL,
    EntangledBusError,
    HybridState,
    _check_unitary,
    apply_displacement,
    apply_local,
    init_state,
    merge_branches,
    qubit_amplitudes,
    z_signs,
)

__all__ = [
    "Displace",
    "Local",
    "Barrier",
    "GateSequence",
    "EntangledBusWarning",
    "count_ops",
    "execute",
    "effective_unitary",
    "product_unitary",
    "sequence_to_json",
    "sequence_from_json",
    "save_sequence",
    "load_sequence",
]

SEQUENCE_FORMAT_VERSION = 1
MAX_QUBITS = 10  # largest register effective_unitary reconstructs
_EPS = float(np.finfo(float).eps)


class EntangledBusWarning(RuntimeWarning):
    """A local unitary was applied to a qubit currently entangled with the bus."""


@dataclass(frozen=True, slots=True)
class Displace:
    qubit: int
    beta: complex


@dataclass(frozen=True, eq=False, slots=True)
class Local:
    qubit: int
    u: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "u", _check_unitary(self.u))


@dataclass(frozen=True, slots=True)
class Barrier:
    label: str = ""


Instruction = Displace | Local | Barrier


@dataclass
class GateSequence:
    """Ordered instruction list over a fixed-size register."""

    num_qubits: int
    instructions: list[Instruction] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for ins in self.instructions:
            q = getattr(ins, "qubit", None)
            if q is not None and not 0 <= q < self.num_qubits:
                raise ValueError(f"instruction qubit {q} out of range")
        declared = self.metadata.get("bus_ops")
        if declared is not None and declared != count_ops(self)["bus"]:
            raise ValueError("declared bus-operation count disagrees with instructions")

    def extend(self, other: "GateSequence") -> None:
        if other.num_qubits != self.num_qubits:
            raise ValueError("register sizes differ")
        self.instructions.extend(other.instructions)


def count_ops(seq: GateSequence) -> dict:
    """{'bus': #Displace, 'local': #Local, 'total': sum}; barriers are free."""
    bus = sum(1 for i in seq.instructions if isinstance(i, Displace))
    local = sum(1 for i in seq.instructions if isinstance(i, Local))
    return {"bus": bus, "local": local, "total": bus + local}


def _local_is_clean(state: HybridState, qubit: int, tol: float = 1e-9) -> bool:
    """True when the bus amplitude does not depend on the qubit's bit value."""
    seen: dict[str, complex] = {}
    for br in state.branches:
        key = br.basis[:qubit] + "_" + br.basis[qubit + 1 :]
        if key in seen:
            if abs(seen[key] - br.alpha) > tol:
                return False
        else:
            seen[key] = br.alpha
    return True


def execute(seq: GateSequence, state: HybridState) -> HybridState:
    """Fold a sequence through the branch simulator.

    Emits EntangledBusWarning when a local unitary hits a qubit whose bit is
    correlated with the bus amplitude (branch count can then grow); compiled
    sequences produced by the builders never do this.
    """
    if seq.num_qubits != state.num_qubits:
        raise ValueError("sequence and state register sizes differ")
    for ins in seq.instructions:
        if isinstance(ins, Displace):
            state = apply_displacement(state, ins.qubit, ins.beta)
        elif isinstance(ins, Local):
            if not _local_is_clean(state, ins.qubit):
                warnings.warn(
                    f"local unitary on qubit {ins.qubit} while entangled with the bus",
                    EntangledBusWarning,
                    stacklevel=2,
                )
            state = apply_local(state, ins.qubit, ins.u)
        # barriers are inert
    return merge_branches(state)


def effective_unitary(seq: GateSequence, n: int | None = None, tol: float = 1e-9) -> np.ndarray:
    """Compiled qubit unitary, reconstructed from all 2^n basis inputs.

    Every basis column is folded through the sequence in one array pass
    (see _fold_columns).  When a local gate hits a qubit still entangled with
    the bus, the inputs no longer map to one branch per basis state and the
    call falls back to executing the columns one at a time, which emits
    EntangledBusWarning.

    Requires the sequence to leave the bus disentangled on every basis input
    and to return it to the same amplitude for all of them, so the register
    factors out with consistent relative phases.  Limited to n <= MAX_QUBITS.
    """
    if n is None:
        n = seq.num_qubits
    if n != seq.num_qubits:
        raise ValueError("n must equal the sequence register size")
    if n <= 0:
        raise ValueError(f"need a positive qubit count, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"effective_unitary supports at most {MAX_QUBITS} qubits")
    folded = _fold_columns(seq, n)
    if folded is None:
        u, residuals = _execute_columns(seq, n, tol)
    else:
        u, alpha = folded
        residuals = _folded_residuals(u, alpha, tol)
    if np.max(np.abs(residuals - residuals[0])) > tol:
        raise EntangledBusError("residual bus amplitude depends on the input basis state")
    if np.max(np.abs(u.conj().T @ u - np.eye(2**n))) > 1e-9:
        raise EntangledBusError("reconstructed matrix is not unitary; bus leakage suspected")
    return u


def product_unitary(parts: list[GateSequence], n: int) -> np.ndarray:
    """Unitary of the parts applied in order: U_last ... U_first.

    Each distinct part (by identity) is folded once with effective_unitary,
    so a part that repeats costs one 2^n x 2^n product, not a second fold.
    This equals effective_unitary of the concatenated parts, global phase
    included, only when every part returns the bus to rest: a bus left at
    alpha would add the phase Im(delta conj(alpha)) to each later
    displacement delta.  Compiled Trotter factors close every displacement
    run, so they qualify.  The residual is not measured here: a part that
    leaves the bus displaced, such as half of a displacement loop, leaves
    a residual that depends on the input basis state, and effective_unitary
    rejects it with EntangledBusError.
    """
    if not parts:
        raise ValueError("need at least one part")
    folded: dict[int, np.ndarray] = {}
    u = None
    for part in parts:
        if id(part) not in folded:
            folded[id(part)] = effective_unitary(part, n)
        u = folded[id(part)] if u is None else folded[id(part)] @ u
    return u


def _fold_columns(seq: GateSequence, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Fold all basis columns at once: (C, A), or None if a local is entangled.

    C[b, j] is the amplitude of basis b for input column j and A[b, j] the
    bus amplitude of that branch: one branch per (b, j), which stays true
    while no local gate mixes two rows in the support with different bus
    amplitudes.  A displacement adds s_q(b) beta to A and the phase
    Im(s_q(b) beta conj(A)) to C, as apply_displacement does.  A run of
    displacements composes as D(a) D(b) = exp((a conj(b) - conj(a) b)/2)
    D(a + b), so its pairwise phases depend on the row only and the run
    touches C and A once (see _compose_run).  A local gate mixes row b with
    row b ^ q; the pair keeps the bus amplitude of its row in the support.
    Amplitudes at or below COEFF_DROP_TOL are zeroed, as merge_branches
    drops them.

    A stays at rest (None, zero on every row) while every run closes: a
    closed run leaves only its row phases, a length-2^n vector that scales
    the rows of C, and a local gate cannot meet an entangled qubit.  The
    first run still open where a local gate or the sequence end applies it
    materializes A, and from there every run updates C and A in full.  The
    A returned is zero when it never left rest.
    """
    dim = 2**n
    signs = z_signs(n)
    c = np.eye(dim, dtype=complex)
    a = None
    qubits: list[int] = []      # the pending displacement run
    betas: list[complex] = []

    for ins in seq.instructions:
        if isinstance(ins, Barrier):
            continue
        if not 0 <= ins.qubit < n:
            raise IndexError(f"qubit {ins.qubit} out of range for {n} qubits")
        if isinstance(ins, Displace):
            beta = complex(ins.beta)
            if not cmath.isfinite(beta):
                raise ValueError("displacement amplitude must be finite")
            qubits.append(ins.qubit)
            betas.append(beta)
            continue
        a = _apply_run(c, a, signs, qubits, betas)
        shift = n - 1 - ins.qubit
        # rows grouped as (higher bits, bit of the qubit, lower bits and column)
        c3 = c.reshape(dim >> (shift + 1), 2, -1)
        if a is not None:
            a3 = a.reshape(c3.shape)
            in0 = np.abs(c3[:, 0]) > COEFF_DROP_TOL
            in1 = np.abs(c3[:, 1]) > COEFF_DROP_TOL
            if np.any(in0 & in1 & (np.abs(a3[:, 0] - a3[:, 1]) > MERGE_TOL)):
                return None
            a3[:] = np.where(in0, a3[:, 0], a3[:, 1])[:, None]
        c = _check_unitary(ins.u) @ c3
        c[np.abs(c) <= COEFF_DROP_TOL] = 0
        c = c.reshape(dim, dim)
    a = _apply_run(c, a, signs, qubits, betas)
    return c, np.zeros((dim, dim), dtype=complex) if a is None else a


def _compose_run(signs: np.ndarray, qubits: list[int],
                 betas: list[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Net displacement and pairwise phase of a displacement run, per row.

    Row b of the run moves the bus by d_i = s_q(b) beta_i in turn; the net
    displacement is sum_i d_i and the phase sum_i Im(d_i conj(d_1 + ... +
    d_{i-1})).  Both sums run left to right from zero, one displacement at
    a time, as apply_displacement adds them.
    """
    dim, steps = signs.shape[0], len(betas)
    d = np.zeros((dim, steps + 1), dtype=complex)
    d[:, 1:] = signs[:, qubits] * np.array(betas)
    prefix = np.cumsum(d, axis=1)  # prefix[:, i]: net displacement of the first i
    terms = np.zeros((dim, steps + 1))
    terms[:, 1:] = (d[:, 1:] * prefix[:, :-1].conj()).imag
    return prefix[:, -1], np.cumsum(terms, axis=1)[:, -1]


def _apply_run(c: np.ndarray, a: np.ndarray | None, signs: np.ndarray,
               qubits: list[int], betas: list[complex]) -> np.ndarray | None:
    """Apply the pending run to C in place, clear it and return the new A.

    With A at rest (None) a run counts as closed when its net displacement
    on every row lies within (L - 1) (eps / 2) sum |beta|, the rounding
    bound of a sum of L displacements; it then only rotates the rows of C.
    An open run, or any run once A is materialized, adds its displacement
    to A and the phase Im(alpha conj(A)) to C.
    """
    if not betas:
        return a
    alpha, phase = _compose_run(signs, qubits, betas)
    bound = (len(betas) - 1) * (_EPS / 2) * sum(abs(b) for b in betas)
    qubits.clear()
    betas.clear()
    if a is None and np.max(np.abs(alpha)) <= bound:
        if phase.any():
            c *= np.exp(1j * phase)[:, None]
        return None
    if a is None:
        a = np.zeros(c.shape, dtype=complex)
    if alpha.any() or phase.any():
        c *= np.exp(1j * ((alpha[:, None] * a.conj()).imag + phase[:, None]))
        a += alpha[:, None]
    return a


def _folded_residuals(c: np.ndarray, a: np.ndarray, tol: float) -> np.ndarray:
    """Per-column bus amplitude, checking each column left the bus disentangled.

    The check is is_bus_disentangled's: every branch in the support lies
    within tol of the |coeff|^2-weighted mean.  The residual of a column is
    the bus amplitude of its first branch.
    """
    support = np.abs(c) > COEFF_DROP_TOL
    weights = np.where(support, np.abs(c) ** 2, 0.0)
    mean = np.sum(weights * a, axis=0) / np.sum(weights, axis=0)
    if np.max(np.where(support, np.abs(a - mean), 0.0)) > tol:
        raise EntangledBusError("bus is still entangled with the register")
    return a[np.argmax(support, axis=0), np.arange(c.shape[1])]


def _execute_columns(seq: GateSequence, n: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference path: execute each basis column through the branch simulator."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    residuals = np.zeros(dim, dtype=complex)
    for j in range(dim):
        out = execute(seq, init_state(n, format(j, f"0{n}b")))
        u[:, j] = qubit_amplitudes(out, tol)
        residuals[j] = out.branches[0].alpha if out.branches else 0j
    return u, residuals


# ---------------------------------------------------------------------------
# Sequence JSON interchange
# ---------------------------------------------------------------------------

def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def sequence_to_json(seq: GateSequence) -> dict:
    """Fixed interchange schema; counts always match the instruction list."""
    body = []
    for ins in seq.instructions:
        if isinstance(ins, Displace):
            body.append({"op": "disp", "q": ins.qubit, "beta": _complex_pair(ins.beta)})
        elif isinstance(ins, Local):
            body.append(
                {
                    "op": "local",
                    "q": ins.qubit,
                    "u": [[_complex_pair(ins.u[r, c]) for c in range(2)] for r in range(2)],
                    "label": ins.label,
                }
            )
        else:
            body.append({"op": "barrier", "label": ins.label})
    counts = count_ops(seq)
    return {
        "version": SEQUENCE_FORMAT_VERSION,
        "num_qubits": seq.num_qubits,
        "strategy": seq.metadata.get("strategy", ""),
        "instructions": body,
        "counts": {"bus": counts["bus"], "local": counts["local"]},
    }


def sequence_from_json(doc: dict) -> GateSequence:
    if doc.get("version") != SEQUENCE_FORMAT_VERSION:
        raise ValueError("unsupported sequence format version")
    instructions: list[Instruction] = []
    for item in doc["instructions"]:
        op = item["op"]
        if op == "disp":
            beta = complex(*item["beta"])
            if not np.isfinite(beta):
                raise ValueError("displacement amplitude must be finite")
            instructions.append(Displace(int(item["q"]), beta))
        elif op == "local":
            u = np.array(
                [[complex(*item["u"][r][c]) for c in range(2)] for r in range(2)]
            )
            if not np.all(np.isfinite(u)):
                raise ValueError("local gate entries must be finite")
            instructions.append(Local(int(item["q"]), u, item.get("label", "")))
        elif op == "barrier":
            instructions.append(Barrier(item.get("label", "")))
        else:
            raise ValueError(f"unknown instruction kind {op!r}")
    seq = GateSequence(int(doc["num_qubits"]), instructions, {"strategy": doc.get("strategy", "")})
    counts = count_ops(seq)
    declared = doc.get("counts", {})
    if declared and (declared.get("bus") != counts["bus"] or declared.get("local") != counts["local"]):
        raise ValueError("declared counts do not match the instruction list")
    seq.metadata["bus_ops"] = counts["bus"]
    return seq


def save_sequence(seq: GateSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_json(seq), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_sequence(path) -> GateSequence:
    with open(path) as fh:
        return sequence_from_json(json.load(fh))
