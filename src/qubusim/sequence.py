"""Compilation IR for bus circuits: instructions, sequences, execution.

A GateSequence is an ordered list of three instruction kinds:

* Displace(qubit, beta): one controlled displacement D(beta * sigma_z) of the
  bus, the unit of cost in every operation count.
* Local(qubit, u, label): an arbitrary 2x2 unitary on one qubit, kept as a
  read-only copy checked once, at construction.
* Barrier(label): structural marker, carries no semantics and no cost.

A GateSequence checks qubit ranges and amplitudes once, when constructed.

The executor folds a sequence through the hybrid-state simulator.
effective_unitary reconstructs the compiled qubit unitary by folding all 2^n
basis columns through the sequence as one array of branch amplitudes, one
branch per basis state and column.  The local gates cut the sequence into
displacement runs, and all runs are composed together from per-qubit
running sums S of the betas from the start of the sequence: the bus
amplitude of basis state b is s_b . S, and a run imprints its enclosed
areas, cross terms with the displacement left by earlier runs included, as
Z_q Z_p phases (Sorensen and Molmer, PRA 62, 022311 (2000)), read on each
basis state through the sign table.  A run costs one phase per basis state
and a local gate one 2x2 product.  A local gate on a qubit the bus is
displaced on would mix two bus amplitudes, and then effective_unitary
executes the columns one at a time instead.  product_unitary multiplies the
folds of parts that each return the bus to rest, folding a repeated part
once.
"""

from __future__ import annotations

import cmath
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

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
        u = _check_unitary(np.array(self.u, dtype=complex))  # a copy: the caller's stays writable
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


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
        n, bus = self.num_qubits, 0
        for ins in self.instructions:
            kind = type(ins)
            if kind is Displace:
                bus += 1
                if not cmath.isfinite(ins.beta):
                    raise ValueError("displacement amplitude must be finite")
            elif kind is Barrier:
                continue
            if not 0 <= ins.qubit < n:
                raise ValueError(f"instruction qubit {ins.qubit} out of range")
        declared = self.metadata.get("bus_ops")
        if declared is not None and declared != bus:
            raise ValueError("declared bus-operation count disagrees with instructions")

    def extend(self, other: "GateSequence") -> None:
        """Append other's instructions; a declared bus-operation count grows with them."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("register sizes differ")
        if self.metadata.get("bus_ops") is not None:
            self.metadata["bus_ops"] += count_ops(other)["bus"]
        self.instructions.extend(other.instructions)


def count_ops(seq: GateSequence) -> dict:
    """{'bus': #Displace, 'local': #Local, 'total': sum}; barriers are free."""
    kinds = Counter(map(type, seq.instructions))
    bus, local = kinds[Displace], kinds[Local]
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
    (see _fold_columns).  When a local gate meets a qubit the bus is
    displaced on (running beta sum above MERGE_TOL / 2), the fold declines
    and the call executes the columns one at a time through the branch
    simulator.  That path emits EntangledBusWarning only where a local gate
    truly mixes two supported branches with different bus amplitudes; a
    gate that meets one supported row per pair runs there without warning.

    Requires the sequence to leave the bus disentangled on every basis input
    and to return it to the same amplitude for all of them, so the register
    factors out with consistent relative phases; a fold that ends with the
    bus at rest meets this exactly and skips the check.  Limited to
    n <= MAX_QUBITS.
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
        residuals = _folded_residuals(u, alpha, tol) if alpha.any() else np.zeros(2**n)
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
    """Fold all basis columns at once: (C, A), or None if a local meets a displaced qubit.

    C[b, j] is the amplitude of basis b for input column j and A[b, j] the
    bus amplitude of that branch.  While every local gate meets a qubit the
    bus is not displaced on, the bus amplitude of row b is s_b . S in every
    column, with S the per-qubit sum of the betas so far: one branch per
    (b, j).  The local gates cut the sequence into displacement runs;
    _compose_runs gives the pair phases Phi and the sums S after each of
    them in one pass, and through the sign table row b of a run gains the
    phase s_b^T Phi s_b, which already holds the cross terms with the
    displacement left by earlier runs.  So a run costs one phase per basis
    state, and a local gate one 2x2 product on the rows of its qubit.

    A local gate on qubit q mixes row b with row b ^ q, whose bus amplitudes
    differ by 2 |S_q|.  When that exceeds MERGE_TOL the two branches would
    not merge, and the fold returns None; effective_unitary then executes
    the columns one at a time.  The A returned is the read-only broadcast
    of s_b . S over the columns, zero when the bus ends at rest.

    Amplitudes at or below COEFF_DROP_TOL are zeroed once, at the end, as
    merge_branches drops them.
    """
    qubits: list[int] = []
    betas: list[complex] = []
    runs: list[int] = []        # index among the non-empty runs, per displacement
    starts: list[int] = []      # per non-empty run: the local gate it precedes
    gates: list[tuple[int, np.ndarray]] = []
    for ins in seq.instructions:
        if isinstance(ins, Barrier):
            continue
        if not 0 <= ins.qubit < n:
            raise IndexError(f"qubit {ins.qubit} out of range for {n} qubits")
        if isinstance(ins, Displace):
            beta = complex(ins.beta)
            if not cmath.isfinite(beta):
                raise ValueError("displacement amplitude must be finite")
            if not starts or starts[-1] != len(gates):
                starts.append(len(gates))
            qubits.append(ins.qubit)
            betas.append(beta)
            runs.append(len(starts) - 1)
        else:
            gates.append((ins.qubit, ins.u))

    dim = 2**n
    signs, pairs = _sign_tables(n)
    if starts:
        phi, sums = _compose_runs(n, len(starts), qubits, betas, runs)
        phase = pairs @ phi.reshape(len(starts), n * n).T     # (row, run): s_b^T Phi s_b
    bus = np.zeros(n, dtype=complex)    # S at the current gate
    c = np.eye(dim, dtype=complex)
    k = 0                       # next non-empty run
    for g in range(len(gates) + 1):
        if k < len(starts) and starts[k] == g:
            c *= np.exp(1j * phase[:, k])[:, None]
            bus = sums[k]
            k += 1
        if g == len(gates):
            break
        qubit, u = gates[g]
        if abs(bus[qubit]) > MERGE_TOL / 2:
            return None
        # rows grouped as (higher bits, bit of the qubit, lower bits and column)
        c = (u @ c.reshape(dim >> (n - qubit), 2, -1)).reshape(dim, dim)
    c[np.abs(c) <= COEFF_DROP_TOL] = 0
    return c, np.broadcast_to((signs @ bus)[:, None], (dim, dim))


@cache
def _sign_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """z_signs(n) and its pair products s_q s_p, shape (2^n, n * n), read-only.

    Built once per register size, since every fold of that size reads them.
    """
    signs = z_signs(n)
    pairs = (signs[:, :, None] * signs[:, None, :]).reshape(2**n, n * n)
    signs.flags.writeable = pairs.flags.writeable = False
    return signs, pairs


def _compose_runs(n: int, n_runs: int, qubits: list[int], betas: list[complex],
                  runs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Pair phases Phi, shape (n_runs, n, n), and running sums S, (n_runs, n).

    Displacement i moves the bus by betas[i] on qubit qubits[i] in run
    runs[i], a non-decreasing index below n_runs.  S[r, q] sums the betas
    on qubit q from the start of the sequence to the end of run r, and
    Phi[r, q, p] sums Im(beta_i conj(S_p)) over run r's displacements i on
    qubit q, with S_p the sum on qubit p before i.  By D(x) D(y) =
    exp((x conj(y) - conj(x) y)/2) D(x + y), a row with signs s whose bus
    sits at s . S when run r starts gains the phase s^T Phi[r] s and ends
    at s . S[r] (Sorensen and Molmer, PRA 62, 022311 (2000)); the q = p
    terms are its row-independent part.  All of it is one prefix sum over
    the whole sequence.
    """
    q = np.array(qubits, dtype=np.intp)
    r = np.array(runs, dtype=np.intp)
    beta = np.array(betas, dtype=complex)
    steps = np.zeros((len(q) + 1, n), dtype=complex)
    steps[np.arange(1, len(q) + 1), q] = beta
    sums = np.cumsum(steps, axis=0)        # sums[i]: per-qubit sum of the first i betas
    phi = np.zeros((n_runs * n, n))
    np.add.at(phi, r * n + q, (beta[:, None] * sums[:-1].conj()).imag)
    ends = np.searchsorted(r, np.arange(1, n_runs + 1))  # one past each run's last displacement
    return phi.reshape(n_runs, n, n), sums[ends]


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
            instructions.append(Displace(int(item["q"]), complex(*item["beta"])))
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
