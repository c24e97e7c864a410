"""Phase estimation pipeline: controlled evolution, inverse QFT, gap readout.

The circuit holds k ancillas (positions 0..k-1, most significant first)
followed by the N system qubits.  The ancilla at position p controls
2^(k-1-p) copies of the compiled evolution step U = exp(-iH tau), an
inverse measurement-ready Fourier transform runs on the ancillas, and the
measured index is classically bit-reversed.  An outcome y corresponds to
the eigenphase 2 pi y / 2^k of U; with tau scaled so the spectrum of H tau
fits in (-pi, pi], signed phases recover energies without wrap ambiguity
and the distance between the two dominant peaks estimates the gap.

run_pea simulates 2^k system vectors U^y |psi>, not the (N + k)-qubit
register: the ancillas start uniform and each controlled power is diagonal
in their basis (Cleve et al., Proc. R. Soc. A 454, 339 (1998)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .bcs import BCSModel, exact_evolution, exact_spectrum, trotter_error
from .builders import (
    HADAMARD,
    QftMode,
    build_adiabatic_init,
    build_qft,
    build_trotter_step,
)
from .sequence import (MAX_QUBITS, Barrier, Displace, GateSequence, Local, count_ops,
                       effective_unitary)

__all__ = [
    "ExactSuperposition",
    "AdiabaticSequence",
    "PEAConfig",
    "PEALayer",
    "PEACircuit",
    "PEAResult",
    "UnresolvedPeaksError",
    "build_pea",
    "resolve_tau",
    "run_pea",
    "estimate_gap",
    "substeps_for_target",
    "result_to_json",
]

class UnresolvedPeaksError(Exception):
    """The outcome distribution has no two peaks separated beyond one bin."""


def _check_tau(tau: float) -> None:
    # Written so that NaN fails the check too.
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")


@dataclass(frozen=True)
class ExactSuperposition:
    """Oracle-prepared (|ground> + |first excited>)/sqrt(2) of the sector."""


@dataclass(frozen=True)
class AdiabaticSequence:
    steps: int
    tau_init: float
    ramp: str = "linear"


@dataclass
class PEAConfig:
    k: int
    tau: float | None = None          # None: auto-scale to the spectral range
    trotter_order: int = 2
    trotter_substeps: int = 1
    shots: int | None = None
    init: ExactSuperposition | AdiabaticSequence = field(default_factory=ExactSuperposition)
    exact_controlled: bool = False    # replace compiled steps by exp(-iH tau)
    seed: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one ancilla")
        if self.tau is not None:
            _check_tau(self.tau)
        if self.trotter_substeps < 1:
            raise ValueError("need at least one substep")
        if self.shots and self.seed is not None and self.seed < 0:
            raise ValueError(f"shot sampling needs a non-negative seed, got {self.seed}")


@dataclass
class PEALayer:
    name: str
    seq: GateSequence
    reps: int


@dataclass
class PEACircuit:
    num_qubits: int
    k: int
    n_sys: int
    layers: list[PEALayer]
    tau: float
    counts: dict


@dataclass
class PEAResult:
    k: int
    tau: float
    distribution: dict[str, float]
    phases: list[tuple[float, float]]     # (signed phase, weight), best first
    gap_estimate: float | None
    resolution_phase: float
    resolution_energy: float
    counts: dict[str, int] | None = None


def resolve_tau(model: BCSModel, cfg: PEAConfig) -> float:
    """Evolution time of one controlled step U = exp(-iH tau).

    cfg.tau when given, else the largest tau that keeps every eigenphase of
    U one bin inside (-pi, pi].  Diagonalizes H once.  Raises ValueError,
    before diagonalizing, when a controlled step (N + 1 qubits) or the
    inverse QFT (k qubits) is larger than effective_unitary reconstructs
    (MAX_QUBITS); run_pea needs nothing larger.  Also raises ValueError when
    a given tau wraps the spectrum.
    """
    n, k = model.n_modes, cfg.k
    for part, qubits in (("controlled step", n + 1), ("inverse QFT", k)):
        if qubits > MAX_QUBITS:
            raise ValueError(f"{part} too large to simulate ({qubits} > {MAX_QUBITS} qubits)")
    emax = float(np.max(np.abs(exact_spectrum(model).eigenvalues)))
    if cfg.tau is None:
        return 1.0 if emax == 0.0 else (1.0 - 2.0 ** (-k)) * np.pi / emax
    if emax * cfg.tau > np.pi + 1e-9:
        raise ValueError("tau too large: eigenphases of U(tau) must lie in (-pi, pi]")
    return cfg.tau


def _remap(seq: GateSequence, mapping: dict[int, int], num_qubits: int) -> GateSequence:
    ins = []
    for i in seq.instructions:
        if isinstance(i, Displace):
            ins.append(Displace(mapping[i.qubit], i.beta))
        elif isinstance(i, Local):
            ins.append(Local(mapping[i.qubit], i.u, i.label))
        else:
            ins.append(Barrier(i.label))
    return GateSequence(num_qubits, ins, dict(seq.metadata))


def build_pea(model: BCSModel, cfg: PEAConfig) -> PEACircuit:
    """Assemble the layered circuit over the full ancilla+system register."""
    n = model.n_modes
    k = cfg.k
    tau = resolve_tau(model, cfg)
    total = n + k

    layers = [PEALayer(
        "ancilla-hadamards",
        GateSequence(total, [Local(p, HADAMARD, "h") for p in range(k)]),
        1,
    )]
    step = build_trotter_step(model, tau / cfg.trotter_substeps, order=cfg.trotter_order,
                              controlled=0)
    for p in range(k):
        mapping = {0: p, **{1 + i: k + i for i in range(n)}}
        layers.append(PEALayer(
            f"controlled-step@{p}",
            _remap(step, mapping, total),
            cfg.trotter_substeps * 2 ** (k - 1 - p),
        ))
    qft = build_qft(k, QftMode(measurement_ready=True, forward=False))
    layers.append(PEALayer(
        "inverse-qft",
        _remap(qft, {q: q for q in range(k)}, total),
        1,
    ))

    step_ops = count_ops(step)["total"]
    evo_ops = step_ops * cfg.trotter_substeps * (2**k - 1)
    counts = {
        "per_controlled_step": step_ops,
        "controlled_evolution": evo_ops,
        "qft": count_ops(qft)["total"],
        "total": evo_ops + count_ops(qft)["total"] + k,
    }
    return PEACircuit(total, k, n, layers, tau, counts)


def _initial_system_state(model: BCSModel, cfg: PEAConfig) -> np.ndarray:
    n = model.n_modes
    if isinstance(cfg.init, ExactSuperposition):
        sector = model.n_excitations if abs(model.r - 1.0) < 1e-12 else None
        spec = exact_spectrum(model, sector)
        vec = np.zeros(2**n, dtype=complex)
        vec[spec.basis_indices] = (spec.eigenvectors[:, 0] + spec.eigenvectors[:, 1]) / np.sqrt(2)
        return vec
    # Quasi-adiabatic preparation from the n-excitation basis state with the
    # largest on-site energies flipped.
    order = np.argsort(-model.eps, kind="stable")
    bits = ["0"] * n
    for q in order[: model.n_excitations]:
        bits[q] = "1"
    vec = np.zeros(2**n, dtype=complex)
    vec[int("".join(bits), 2)] = 1.0
    prep = build_adiabatic_init(model, cfg.init.steps, cfg.init.tau_init, ramp=cfg.init.ramp)
    return effective_unitary(prep, n) @ vec


def _controlled_step_matrix(model: BCSModel, cfg: PEAConfig, tau: float) -> np.ndarray:
    """Verified 2^N block that one controlled step applies when its ancilla is 1.

    The whole (N + 1)-qubit step is folded; its block structure and the
    unitarity of both blocks are checked at 1e-9, and failure aborts the
    matrix substitution.  cfg.exact_controlled gives exp(-iH tau / substeps).
    """
    n = model.n_modes
    if cfg.exact_controlled:
        return exact_evolution(model, tau / cfg.trotter_substeps)
    seq = build_trotter_step(model, tau / cfg.trotter_substeps, order=cfg.trotter_order,
                             controlled=0)
    m = effective_unitary(seq, n + 1)
    dim = 2**n
    top_right = np.max(np.abs(m[:dim, dim:]))
    bottom_left = np.max(np.abs(m[dim:, :dim]))
    ident_dev = np.max(np.abs(m[:dim, :dim] - np.eye(dim)))
    sub = m[dim:, dim:]
    unit_dev = np.max(np.abs(sub.conj().T @ sub - np.eye(dim)))
    if max(top_right, bottom_left, ident_dev, unit_dev) > 1e-9:
        raise RuntimeError("controlled-step verification failed; substitution aborted")
    return sub


@cache
def _inverse_qft_matrix(k: int) -> np.ndarray:
    """Verified unitary of the inverse measurement-ready QFT on k qubits.

    Built once per k (resolve_tau admits k <= MAX_QUBITS) and returned
    read-only, since every caller shares the array.
    """
    u = effective_unitary(build_qft(k, QftMode(measurement_ready=True, forward=False)), k)
    u.flags.writeable = False
    return u


def _bit_reverse(y: int, k: int) -> int:
    return int(format(y, f"0{k}b")[::-1], 2)


def _signed_phase(y: int, k: int) -> float:
    phi = 2.0 * np.pi * y / 2**k
    return phi - 2.0 * np.pi if phi > np.pi else phi


def run_pea(model: BCSModel, cfg: PEAConfig,
            input_state: np.ndarray | None = None) -> PEAResult:
    """Return the exact outcome distribution of phase estimation.

    Row y of a (2^k, 2^N) array is u^y |psi>, with u the verified
    controlled-step block raised to the substep count: the state before the
    inverse QFT, up to normalization.  The inverse QFT is one product over
    the row index; an outcome's probability is its row's squared norm.
    build_pea gives the same circuit as layered bus sequences, for audits on
    the branch simulator.  input_state, normalized here, replaces the
    configured system preparation.  Shot sampling is seeded and optional.
    """
    n, k = model.n_modes, cfg.k
    tau = resolve_tau(model, cfg)

    psi_sys = np.asarray(input_state, dtype=complex) if input_state is not None \
        else _initial_system_state(model, cfg)
    if psi_sys.shape != (2**n,):
        raise ValueError("system state has the wrong dimension")
    psi_sys = psi_sys / np.linalg.norm(psi_sys)

    u = np.linalg.matrix_power(_controlled_step_matrix(model, cfg, tau), cfg.trotter_substeps)
    rows = np.empty((2**k, 2**n), dtype=complex)
    rows[0] = psi_sys
    for y in range(1, 2**k):
        rows[y] = u @ rows[y - 1]
    rows = _inverse_qft_matrix(k) @ rows

    probs = np.sum(np.abs(rows) ** 2, axis=1)
    probs = probs / probs.sum()
    distribution = {}
    for y_reg in range(2**k):
        y = _bit_reverse(y_reg, k)
        if probs[y_reg] > 1e-15:
            distribution[format(y, f"0{k}b")] = float(probs[y_reg])

    phases = sorted(
        ((_signed_phase(int(b, 2), k), w) for b, w in distribution.items()),
        key=lambda t: -t[1],
    )
    result = PEAResult(
        k=k,
        tau=tau,
        distribution=distribution,
        phases=phases,
        gap_estimate=None,
        resolution_phase=2.0 * np.pi / 2**k,
        resolution_energy=2.0 * np.pi / (2**k * tau),
    )
    try:
        result.gap_estimate = estimate_gap(result)
    except UnresolvedPeaksError:
        result.gap_estimate = None

    if cfg.shots:
        rng = np.random.default_rng(cfg.seed)
        keys = sorted(distribution)
        weights = np.array([distribution[b] for b in keys])
        draws = rng.choice(len(keys), size=cfg.shots, p=weights / weights.sum())
        counted = {}
        for d in draws:
            counted[keys[d]] = counted.get(keys[d], 0) + 1
        result.counts = counted
    return result


def estimate_gap(res: PEAResult) -> float:
    """Energy gap from the two dominant, resolvable outcome peaks.

    Peaks must sit more than one resolution bin apart; probability ties
    break toward larger separation.  Signed phases make the difference
    unambiguous given the validated tau scaling.  The quoted uncertainty is
    one bin, 2 pi / (2^k tau).
    """
    k, tau = res.k, res.tau
    if len(res.distribution) < 2:
        raise UnresolvedPeaksError("need two distinct outcome peaks")
    items = sorted(res.distribution.items(), key=lambda t: -t[1])
    y1 = int(items[0][0], 2)

    def bin_distance(a: int, b: int) -> int:
        d = abs(a - b) % 2**k
        return min(d, 2**k - d)

    candidates = []
    for b, w in items[1:]:
        y = int(b, 2)
        d = bin_distance(y1, y)
        if d > 1:
            candidates.append((-w, -d, y))
    if not candidates:
        raise UnresolvedPeaksError("peaks closer than the phase resolution")
    candidates.sort()
    phi1 = _signed_phase(y1, k)
    phi2 = _signed_phase(candidates[0][2], k)
    return abs(phi1 - phi2) / tau


def substeps_for_target(model: BCSModel, tau: float, k: int, order: int = 2,
                        fraction: float = 0.25, max_substeps: int = 256) -> int:
    """Smallest power-of-two substep count keeping the product-formula error
    below fraction * (energy resolution) over the full controlled evolution."""
    _check_tau(tau)
    target = fraction * 2.0 * np.pi / (2**k * tau)
    exact = exact_evolution(model, (2**k) * tau)
    s = 1
    while s <= max_substeps:
        err = trotter_error(model, (2**k) * tau, s * 2**k, order, exact=exact) / tau
        if err < target:
            return s
        s *= 2
    raise RuntimeError(f"no substep count up to {max_substeps} meets the error target")


def result_to_json(res: PEAResult) -> dict:
    return {
        "k": res.k,
        "tau": res.tau,
        "distribution": {b: res.distribution[b] for b in sorted(res.distribution)},
        "phases": [{"phase": p, "weight": w} for p, w in res.phases],
        "gap": res.gap_estimate,
        "resolution": res.resolution_energy,
        "counts": res.counts,
    }
