"""Compilation IR for bus circuits: instructions, sequences, execution.

A GateSequence is an ordered stream of three instruction kinds:

* Displace(qubit, beta): one controlled displacement D(beta * sigma_z) of the
  bus, the unit of cost in every operation count; a named tuple, so it
  equals the plain tuple (qubit, beta).
* Local(qubit, u, label): an arbitrary 2x2 unitary on one qubit, kept as a
  read-only copy checked once, at construction.
* Barrier(label): structural marker, carries no semantics and no cost.

A sequence stores the stream as arrays: the displacements in order as
read-only `qubits` and `betas`, and the other instructions as `gates`, a
tuple of (cut, Local or Barrier) with cut the number of displacements
before it.  Builders fill the arrays directly; an instruction list is
converted in one pass.  The constructor validates once, and a sequence
cannot be edited after it; one joined or wrapped from validated sequences
(a Trotter step, a basis change, extend) takes their parts unchecked.
`instructions` is a read-only tuple of the instruction objects, built when
read in one pass over the arrays (the Local and Barrier objects are the
stored ones); no library path reads it.

The executor folds a sequence through the hybrid-state simulator.
effective_unitary reconstructs the compiled qubit unitary by folding all 2^n
basis columns through the sequence as one array of branch amplitudes, one
branch per basis state and column.  The local gates on each qubit are first
fused where they commute with what lies between them, so the two or three
locals where Trotter factors meet cost one 2x2 product.  The fused locals
cut the sequence into displacement runs, and all runs are composed together
from per-qubit running sums S of the betas from the start of the sequence:
the bus amplitude of basis state b is s_b . S, and a run imprints its
enclosed areas, cross terms with the displacement left by earlier runs
included, as Z_q Z_p phases (Sorensen and Molmer, PRA 62, 022311 (2000)),
read on each basis state through the sign table.  A run costs one phase per
basis state and a local gate one 2x2 product; a qubit that meets diagonal
locals only never flips, and is carried as a block.  A non-diagonal local
on a qubit the bus is displaced on would mix two bus amplitudes, and then
effective_unitary executes the columns one at a time instead.  A whole
Trotter step is folded in one call: a part of a sequence never has to
return the bus to rest.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple

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
    "sequence_to_json",
    "sequence_from_json",
    "save_sequence",
    "load_sequence",
]

SEQUENCE_FORMAT_VERSION = 1
MAX_QUBITS = 10  # largest register effective_unitary reconstructs


class EntangledBusWarning(RuntimeWarning):
    """A local unitary was applied to a qubit currently entangled with the bus."""


class Displace(NamedTuple):
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


class GateSequence:
    """Instruction stream over a fixed-size register, stored as arrays.

    qubits (intp) and betas (complex128) hold the displacements in order;
    gates holds (cut, Local or Barrier) in order, cut counting the
    displacements before it.  GateSequence(num_qubits, instructions,
    metadata) takes a list of Displace, Local and Barrier objects, _of the
    arrays.  Both check once that every amplitude is finite, every qubit in
    the register and a declared metadata["bus_ops"] equal to len(qubits);
    _assembled, for sequences made from validated ones, checks nothing.
    """

    __slots__ = ("num_qubits", "qubits", "betas", "gates", "metadata", "_n_local")

    def __init__(self, num_qubits: int, instructions=(), metadata: dict | None = None):
        qubits, betas, gates = [], [], []
        for ins in instructions:
            if type(ins) is Displace:
                qubits.append(ins.qubit)
                betas.append(ins.beta)
            else:
                gates.append((len(qubits), ins))
        self._set(num_qubits, qubits, betas, gates, metadata)

    @classmethod
    def _of(cls, num_qubits: int, qubits, betas, gates=(), metadata: dict | None = None
            ) -> "GateSequence":
        """The sequence of these arrays (or lists): the builders' constructor."""
        seq = cls.__new__(cls)
        seq._set(num_qubits, qubits, betas, gates, metadata)
        return seq

    @classmethod
    def _assembled(cls, num_qubits: int, qubits: np.ndarray, betas: np.ndarray, gates,
                   metadata: dict, n_local: int) -> "GateSequence":
        """A sequence made from the parts of validated ones, checked no further.

        qubits and betas are intp and complex arrays, every gate lies in the
        register, n_local counts its Locals and a declared
        metadata["bus_ops"] equals len(qubits).
        """
        seq = cls.__new__(cls)
        seq._fill(num_qubits, qubits, betas, tuple(gates), metadata, n_local)
        return seq

    def _set(self, n: int, qubits, betas, gates, metadata: dict | None) -> None:
        gates = tuple(gates)
        metadata = {} if metadata is None else metadata
        q = np.asarray(qubits, dtype=np.intp)
        betas = np.asarray(betas, dtype=complex)
        if not np.isfinite(betas).all():
            raise ValueError("displacement amplitude must be finite")
        if len(q) and not (0 <= np.minimum.reduce(q) and np.maximum.reduce(q) < n):
            raise ValueError(f"instruction qubit {q[(q < 0) | (q >= n)][0]} out of range")
        n_local = 0
        for _, ins in gates:
            if type(ins) is Local:
                n_local += 1
                if not 0 <= ins.qubit < n:
                    raise ValueError(f"instruction qubit {ins.qubit} out of range")
            elif type(ins) is not Barrier:
                raise TypeError("an instruction is a Displace, a Local or a Barrier")
        if metadata.get("bus_ops") not in (None, len(q)):
            raise ValueError("declared bus-operation count disagrees with instructions")
        self._fill(n, q, betas, gates, metadata, n_local)

    def _fill(self, n: int, qubits: np.ndarray, betas: np.ndarray, gates: tuple,
              metadata: dict, n_local: int) -> None:
        self.num_qubits, self.gates, self.metadata, self._n_local = n, gates, metadata, n_local
        self.qubits, self.betas = qubits, betas
        qubits.setflags(write=False)
        betas.setflags(write=False)

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The stream as Displace, Local and Barrier objects, built on each read."""
        out: list[Instruction] = []
        for qubits, betas, ins in _stretches(self):
            out += map(tuple.__new__, repeat(Displace), zip(qubits, betas))
            if ins is not None:
                out.append(ins)
        return tuple(out)

    def extend(self, other: "GateSequence") -> None:
        """Append other's instructions; a declared bus-operation count grows with them."""
        joined = _joined([self, other])
        if self.metadata.get("bus_ops") is not None:
            self.metadata["bus_ops"] += len(other.qubits)
        self._fill(*joined, self.metadata, self._n_local + other._n_local)


def _joined(parts: list[GateSequence]) -> tuple:
    """(num_qubits, qubits, betas, gates) of the parts in order, for _of."""
    n = parts[0].num_qubits
    if any(part.num_qubits != n for part in parts):
        raise ValueError("register sizes differ")
    gates, cut = [], 0
    for part in parts:
        gates += [(cut + c, ins) for c, ins in part.gates]
        cut += len(part.qubits)
    return (n, np.concatenate([part.qubits for part in parts]),
            np.concatenate([part.betas for part in parts]), tuple(gates))


def _concat(parts: list[GateSequence], metadata: dict) -> GateSequence:
    """The parts in order as one sequence; only their register sizes are checked."""
    return GateSequence._assembled(*_joined(parts), metadata,
                                   sum(part._n_local for part in parts))


def _stretches(seq: GateSequence):
    """Per gate in order, then once more with None: the qubits and betas,
    as Python lists, of the displacements since the previous gate, and it."""
    qubits, betas = seq.qubits.tolist(), seq.betas.tolist()
    done = 0
    for cut, ins in seq.gates:
        yield qubits[done:cut], betas[done:cut], ins
        done = cut
    yield qubits[done:], betas[done:], None


def count_ops(seq: GateSequence) -> dict:
    """{'bus': #Displace, 'local': #Local, 'total': sum}; barriers are free."""
    bus, local = len(seq.qubits), seq._n_local
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
    for qubits, betas, ins in _stretches(seq):
        for qubit, beta in zip(qubits, betas):
            state = apply_displacement(state, qubit, beta)
        if type(ins) is Local:
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
    (see _fold_columns).  When a non-diagonal local gate meets a qubit the
    bus is displaced on (running beta sum above MERGE_TOL / 2), the fold
    declines and the call executes the columns one at a time through the
    branch simulator.  That path emits EntangledBusWarning only where a
    local gate truly mixes two supported branches with different bus
    amplitudes; a gate that meets one supported row per pair runs there
    without warning.

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


def _fold_columns(seq: GateSequence, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Fold all basis columns at once: (C, A), or None if a mixing local meets a displaced qubit.

    C[b, j] is the amplitude of basis b for input column j and A[b, j] the
    bus amplitude of that branch.  While every local gate that mixes rows
    meets a qubit the bus is not displaced on, the bus amplitude of row b
    is s_b . S in every column, with S the per-qubit sum of the betas so
    far: one branch per (b, j).

    One walk over the local gates fuses them (_fuse_locals): a local joins
    the previous local on its qubit, as one 2x2 product at its own place,
    when no displacement on that qubit lies between them, or when all of
    the earlier part is diagonal, since a diagonal local commutes with every
    displacement and every run phase.  A qubit that only meets diagonal
    locals never flips, so C is block diagonal in its bit: with K the set of
    such qubits, the fold carries 2^(n - |K|) columns per row (the input's
    bits outside K) and expands to 2^n x 2^n once at the end.

    The fused locals that mix rows cut the sequence into displacement runs;
    _compose_runs gives the pair phases Phi and the sums S after each of
    them in one pass, and through the sign table row b of a run gains the
    phase s_b^T Phi s_b, which already holds the cross terms with the
    displacement left by earlier runs.  So a run costs one phase per row, a
    mixing local one 2x2 product on the rows of its qubit, and the diagonal
    locals left over join the last run's phase.

    A mixing local on qubit q mixes row b with row b ^ q, whose bus
    amplitudes differ by 2 |S_q|.  When that exceeds MERGE_TOL at the fused
    local's place the two branches would not merge, and the fold returns
    None; effective_unitary then executes the columns one at a time.  The A
    returned is the read-only broadcast of s_b . S over the columns, zero
    when the bus ends at rest.

    Amplitudes at or below COEFF_DROP_TOL are zeroed once, at the end, as
    merge_branches drops them.
    """
    dim = 2**n
    signs, pairs, bits = _sign_tables(n)
    mixing, diagonal = _fuse_locals(seq)
    # Epoch e holds the displacements between the (e - 1)-th and the e-th
    # distinct cut of the mixing locals; the last epoch runs to the end.
    cuts = sorted({cut for cut, _, _ in mixing})
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, len(seq.qubits)])]
    phi, sums = _compose_runs(n, len(sizes), seq.qubits, seq.betas,
                              np.repeat(np.arange(len(sizes)), sizes))
    phase = np.exp(1j * (phi.reshape(len(sizes), n * n) @ pairs.T))    # (epoch, row)
    buses = sums.tolist()
    block = 0    # mask of the row bits of the qubits no mixing local meets
    for q in set(range(n)).difference(q for _, q, _ in mixing):
        block |= 1 << (n - 1 - q)
    rows = np.arange(dim)
    if block:
        # Column j of the fold is the input whose bits outside the block
        # are those of spread[j] and whose block bits are the row's.
        spread = np.flatnonzero((rows & block) == 0)
        c = np.zeros((dim, len(spread)), dtype=complex)
        c[rows, np.searchsorted(spread, rows & ~block)] = 1
    else:
        c = np.eye(dim, dtype=complex)
    for e, (_, at_cut) in enumerate(groupby(mixing, key=itemgetter(0))):
        if sizes[e]:
            c *= phase[e][:, None]
        for _, q, u in at_cut:
            if abs(buses[e][q]) > MERGE_TOL / 2:
                return None
            # rows grouped as (higher bits, bit of the qubit, lower bits and column)
            c = (u @ c.reshape(dim >> (n - q), 2, -1)).reshape(c.shape)
    last = phase[-1] if sizes[-1] else None
    if diagonal:
        entries = np.ones((n, 2), dtype=complex)
        for q, u in diagonal:
            entries[q] = u[0, 0], u[1, 1]
        factor = np.prod(entries[np.arange(n), bits], axis=1)
        last = factor if last is None else last * factor
    if last is not None:
        c *= last[:, None]
    c[np.abs(c) <= COEFF_DROP_TOL] = 0
    if block:
        full = np.zeros((dim, dim), dtype=complex)
        full[rows[:, None], (rows & block)[:, None] | spread] = c
        c = full
    return c, np.broadcast_to((signs @ np.array(buses[-1]))[:, None], (dim, dim))


def _fuse_locals(seq: GateSequence) -> tuple[list, list]:
    """The local gates of seq fused per qubit: (mixing, diagonal).

    A local joins the latest fused local on its qubit, as one 2x2 product
    at its own place, when that one is diagonal throughout or no
    displacement on the qubit lies between them.  mixing lists (cut, qubit,
    u), in sequence order, for the fused locals with a non-diagonal part,
    each applied after the first cut displacements.  diagonal lists
    (qubit, u) for the rest, each the last on its qubit and so commuting
    with all that follows it.
    """
    qubits = seq.qubits.tolist()
    fused: list = []     # (cut, qubit, u, mixes), None once fused into a later one
    latest: dict[int, int] = {}     # qubit -> index in fused of its latest local
    for cut, gate in seq.gates:
        if type(gate) is not Local:
            continue
        q, u = gate.qubit, gate.u
        mixes = bool(u[0, 1] or u[1, 0])
        i = latest.get(q)
        if i is not None and (not fused[i][3] or q not in qubits[fused[i][0]:cut]):
            u, mixes = u.dot(fused[i][2]), mixes or fused[i][3]
            fused[i] = None
        latest[q] = len(fused)
        fused.append((cut, q, u, mixes))
    fused = [f for f in fused if f is not None]
    return ([(cut, q, u) for cut, q, u, mixes in fused if mixes],
            [(q, u) for _, q, u, mixes in fused if not mixes])


@cache
def _sign_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z_signs(n), its pair products s_q s_p, shape (2^n, n * n), and the
    bits (0 or 1, intp) of each row, shape (2^n, n), all read-only.

    Built once per register size, since every fold of that size reads them.
    """
    signs = z_signs(n)
    pairs = (signs[:, :, None] * signs[:, None, :]).reshape(2**n, n * n)
    bits = (signs < 0).astype(np.intp)
    signs.flags.writeable = pairs.flags.writeable = bits.flags.writeable = False
    return signs, pairs, bits


def _compose_runs(n: int, n_runs: int, q: np.ndarray, beta: np.ndarray,
                  r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair phases Phi, shape (n_runs, n, n), and running sums S, (n_runs, n).

    Displacement i moves the bus by beta[i] on qubit q[i] in run r[i], a
    non-decreasing index below n_runs.  S[r, q] sums the betas
    on qubit q from the start of the sequence to the end of run r, and
    Phi[r, q, p] sums Im(beta_i conj(S_p)) over run r's displacements i on
    qubit q, with S_p the sum on qubit p before i.  By D(x) D(y) =
    exp((x conj(y) - conj(x) y)/2) D(x + y), a row with signs s whose bus
    sits at s . S when run r starts gains the phase s^T Phi[r] s and ends
    at s . S[r] (Sorensen and Molmer, PRA 62, 022311 (2000)); the q = p
    terms are its row-independent part.  All of it is one prefix sum over
    the whole sequence.
    """
    steps = np.zeros((len(q) + 1, n), dtype=complex)
    steps[np.arange(1, len(q) + 1), q] = beta
    sums = np.cumsum(steps, axis=0)        # sums[i]: per-qubit sum of the first i betas
    # Phi[r, q, p] sums displacement i's term for p at flat index (r n + q) n + p.
    phi = np.bincount(((r * n + q)[:, None] * n + np.arange(n)).ravel(),
                      (beta[:, None] * sums[:-1].conj()).imag.ravel(), n_runs * n * n)
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
    for qubits, betas, ins in _stretches(seq):
        body += [{"op": "disp", "q": q, "beta": _complex_pair(beta)}
                 for q, beta in zip(qubits, betas)]
        if type(ins) is Local:
            body.append({"op": "local", "q": ins.qubit, "label": ins.label,
                         "u": [[_complex_pair(ins.u[r, c]) for c in range(2)] for r in range(2)]})
        elif ins is not None:
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
