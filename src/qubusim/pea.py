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

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .bcs import (BCSModel, SpectrumResult, _check_integer, exact_evolution, exact_spectrum,
                  product_formula, trotter_error)
from .builders import (
    HADAMARD,
    QftMode,
    build_adiabatic_init,
    build_qft,
    build_trotter_step,
)
from .sequence import MAX_QUBITS, GateSequence, Local, count_ops, effective_unitary

__all__ = [
    "ExactSuperposition",
    "AdiabaticSequence",
    "PEAConfig",
    "PEALayer",
    "PEACircuit",
    "PEAResult",
    "UnresolvedPeaksError",
    "build_pea",
    "gap_spectrum",
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
        _check_integer("k", self.k)
        if self.k < 1:
            raise ValueError("need at least one ancilla")
        if self.tau is not None:
            _check_tau(self.tau)
        if self.trotter_order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        _check_integer("trotter_substeps", self.trotter_substeps)
        if self.trotter_substeps < 1:
            raise ValueError("need at least one substep")
        if self.shots is not None:
            _check_integer("shots", self.shots)
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


def gap_spectrum(model: BCSModel) -> SpectrumResult:
    """The levels a gap is read from: the excitation sector when r = 1, else all.

    Raises ValueError when there are fewer than two, so there is no gap.
    """
    sector = model.n_excitations if abs(model.r - 1.0) < 1e-12 else None
    spec = exact_spectrum(model, sector)
    if len(spec.eigenvalues) < 2:
        raise ValueError(f"the {model.n_excitations}-excitation sector has one level; "
                         "a gap needs two")
    return spec


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
    qubits = np.array([mapping[q] for q in range(seq.num_qubits)], dtype=np.intp)
    gates = [(cut, Local(mapping[ins.qubit], ins.u, ins.label) if type(ins) is Local else ins)
             for cut, ins in seq.gates]
    return GateSequence._of(num_qubits, qubits[seq.qubits], seq.betas, gates, dict(seq.metadata))


def build_pea(model: BCSModel, cfg: PEAConfig) -> PEACircuit:
    """Assemble the layered circuit over the full ancilla+system register.

    counts["total"] is the controlled evolution plus the QFT plus the k
    ancilla Hadamards, which resources.total_ops leaves out."""
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
        spec = gap_spectrum(model)
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

    The (N + 1)-qubit step is compiled whole (builders.build_trotter_step)
    and folded once with effective_unitary.  The fold never assumes the
    block structure: it carries the ancilla as a block only because no
    local gate on it mixes its bit.  The step's block structure and the
    unitarity of both blocks are checked at 1e-9, and the block must equal
    the exact product formula (bcs.product_formula) at tau / substeps to
    1e-12 per entry; failure aborts the matrix substitution.
    cfg.exact_controlled gives exp(-iH tau / substeps).
    """
    n = model.n_modes
    step_tau = tau / cfg.trotter_substeps
    if cfg.exact_controlled:
        return exact_evolution(model, step_tau)
    m = effective_unitary(build_trotter_step(model, step_tau, order=cfg.trotter_order,
                                             controlled=0), n + 1)
    dim = 2**n
    top_right = np.max(np.abs(m[:dim, dim:]))
    bottom_left = np.max(np.abs(m[dim:, :dim]))
    ident_dev = np.max(np.abs(m[:dim, :dim] - np.eye(dim)))
    sub = m[dim:, dim:]
    unit_dev = np.max(np.abs(sub.conj().T @ sub - np.eye(dim)))
    formula_dev = np.max(np.abs(sub - product_formula(model, step_tau, cfg.trotter_order)))
    if max(top_right, bottom_left, ident_dev, unit_dev) > 1e-9 or formula_dev > 1e-12:
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


def _tied_outcomes(distribution: dict[str, float]) -> list[list[tuple[int, float]]]:
    """(outcome, weight) pairs in groups of tied weight, heaviest group first.

    Weights within 1e-12 of the first of their run tie, and tied outcomes
    are listed by ascending index, so rounding noise cannot reorder peaks
    that are equal by symmetry.
    """
    groups: list[list[tuple[int, float]]] = []
    for y, w in sorted(((int(b, 2), w) for b, w in distribution.items()), key=lambda t: -t[1]):
        if groups and groups[-1][0][1] - w <= 1e-12:
            groups[-1].append((y, w))
        else:
            groups.append([(y, w)])
    return [sorted(group) for group in groups]


def _rank_outcomes(distribution: dict[str, float]) -> list[tuple[int, float]]:
    """(outcome, weight) pairs by descending weight, ties as _tied_outcomes breaks them."""
    return [pair for group in _tied_outcomes(distribution) for pair in group]


def run_pea(model: BCSModel, cfg: PEAConfig,
            input_state: np.ndarray | None = None) -> PEAResult:
    """Return the exact outcome distribution of phase estimation.

    Row y of a (2^k, 2^N) array is u^y |psi>, with u the verified
    controlled-step block raised to the substep count: the state before the
    inverse QFT, up to normalization.  The inverse QFT is one product over
    the row index; an outcome's probability is its row's squared norm.
    build_pea gives the same circuit as layered bus sequences, for audits on
    the branch simulator.  input_state (finite and nonzero, or ValueError),
    normalized here, replaces the configured system preparation.  Shot
    sampling is seeded and optional.
    """
    n, k = model.n_modes, cfg.k
    tau = resolve_tau(model, cfg)

    psi_sys = np.asarray(input_state, dtype=complex) if input_state is not None \
        else _initial_system_state(model, cfg)
    if psi_sys.shape != (2**n,):
        raise ValueError("system state has the wrong dimension")
    norm = np.linalg.norm(psi_sys) if np.isfinite(psi_sys).all() else 0.0
    if not norm > 0:
        raise ValueError("system state must be finite and nonzero")
    psi_sys = psi_sys / norm

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

    groups = _tied_outcomes(distribution)
    phases = [(_signed_phase(y, k), w) for group in groups for y, w in group]
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
        result.gap_estimate = _peak_gap(groups, k, tau)
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

    Outcomes are ranked as in res.phases (_tied_outcomes), so weights
    equal up to rounding rank the same way every time.  The first peak is
    the first ranked outcome; the second is the farthest outcome, then the
    lowest, of the heaviest tie group with one more than one resolution bin
    from the first.  Signed phases make the difference unambiguous given
    the validated tau scaling.  The quoted uncertainty is one bin,
    2 pi / (2^k tau).
    """
    return _peak_gap(_tied_outcomes(res.distribution), res.k, res.tau)


def _peak_gap(groups: list[list[tuple[int, float]]], k: int, tau: float) -> float:
    """estimate_gap on outcomes ranked by _tied_outcomes."""
    if sum(map(len, groups)) < 2:
        raise UnresolvedPeaksError("need two distinct outcome peaks")
    y1 = groups[0][0][0]

    def bin_distance(y: int) -> int:
        d = abs(y1 - y) % 2**k
        return min(d, 2**k - d)

    for group in groups:
        far = [y for y, _ in group if bin_distance(y) > 1]
        if far:
            y2 = max(far, key=bin_distance)
            return abs(_signed_phase(y1, k) - _signed_phase(y2, k)) / tau
    raise UnresolvedPeaksError("peaks closer than the phase resolution")


def substeps_for_target(model: BCSModel, tau: float, k: int, order: int = 2,
                        fraction: float = 0.25, max_substeps: int = 256) -> int:
    """Power-of-two substep count keeping the product-formula error below
    fraction * (energy resolution) over the full controlled evolution.

    The error of each probed count is bcs.trotter_error, the splitting
    error of the exact product formula, so the search compiles and folds
    nothing; run_pea then checks the compiled controlled step against that
    formula.  The count s is searched on the ladder 1, 2, 4, ..., up to
    max_substeps.
    The result passes (its error is below the target), and either it is 1
    or s / 2 fails, so it is the smallest passing count whenever the error
    does not grow along the ladder.  After a failure with error e the search
    jumps ceil(log2(e / target) / order) rungs (at least one), the rungs an
    error falling as s^-order needs (Childs et al., PRX 11, 011020 (2021));
    after a pass it probes the rung below; a probe outside the bracket of
    known failing and passing rungs bisects it instead.  Raises ValueError
    on bad arguments, before diagonalizing, and RuntimeError when the top
    rung fails.
    """
    _check_tau(tau)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if k < 1:
        raise ValueError("need at least one ancilla")
    if not (np.isfinite(fraction) and fraction > 0):
        raise ValueError("fraction must be positive and finite")
    if max_substeps < 1:
        raise ValueError("max_substeps must be at least 1")
    target = fraction * 2.0 * np.pi / (2**k * tau)
    if target == 0.0:
        raise ValueError("fraction too small: the error target underflows to zero")
    exact = exact_evolution(model, (2**k) * tau)
    top = max_substeps.bit_length() - 1
    lo, hi = -1, top + 1      # rungs known to fail and to pass
    j = 0
    while hi - lo > 1:
        err = trotter_error(model, (2**k) * tau, 2**j * 2**k, order, exact=exact) / tau
        if err < target:
            hi, j = j, j - 1
        else:
            lo = j
            rungs = min(top, math.log2(err / target) / order)  # err / target may overflow
            j = min(top, j + max(1, math.ceil(rungs)))
        if not lo < j < hi:
            j = (lo + hi) // 2
    if hi > top:
        raise RuntimeError(f"no substep count up to {max_substeps} meets the error target")
    return 2**hi


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
