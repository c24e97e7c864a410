"""Gate-sequence builders: every bus schedule the compiler knows how to emit.

Phase bookkeeping
-----------------
Displacements compose as D(a)D(b) = exp((a conj(b) - conj(a) b)/2) D(a+b),
so a closed loop of controlled displacements leaves the register with the
phase  sum over ordered pairs j<k of Im(beta_k s_k conj(beta_j s_j)).
For the canonical four-operation pattern

    D(a s_m), D(p s_l), D(-a s_m), D(-p s_l)

the net phase is 2 Im(p conj(a)) s_m s_l, i.e. exp(i c Z_m Z_l) with
c = 2 Im(p conj(a)); a and p must sit on orthogonal quadratures for the
phase to be nonzero.  All builders reduce to this identity.

Because the phase of a displacement loop is invariant under flipping every
sigma_z sign, bus sequences can only generate even functions of the signs
(constants and Z(x)Z couplings).  Phase corrections linear in a single Z
always require a local unitary; this shapes the CNOT gadget and the
controlled constructions below.

A builder emits the arrays a GateSequence stores, not one object per
displacement: schedules of disconnected cycles as whole arrays (_cycles),
the others from Python rows (v.v.tolist()), converted once.  Either way
each amplitude is bit for bit its scalar expression, signed zeros included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bcs import BCSModel, CouplingMatrix, _evolution_factors
from .hybrid import _check_unitary
from .resources import formula_value
from .sequence import Barrier, GateSequence, Local, _concat, count_ops

__all__ = [
    "Naive",
    "Stepwise",
    "Carryover",
    "Limited",
    "FixedRange",
    "Strategy",
    "InfeasibleStrategyError",
    "NotProductFormError",
    "STRATEGY_NAMES",
    "strategy_from_name",
    "DEFAULT_BETA_BOUND",
    "build_cphase",
    "build_uzz",
    "decompose_limited",
    "conjugate_to_axis",
    "build_u0",
    "build_cnot",
    "make_controlled",
    "make_controlled_locals",
    "trotter_factors",
    "build_trotter_step",
    "build_adiabatic_init",
    "adiabatic_steps",
    "build_qft",
    "QftMode",
    "dense_formula_count",
]

DEFAULT_BETA_BOUND = 8.0

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
# W maps Z to X (or Y) under conjugation: W Z W^dag = X / Y.
_W_AXIS = {
    "x": HADAMARD,
    "y": np.array([[1, 0], [0, 1j]], dtype=complex) @ HADAMARD,
}


class InfeasibleStrategyError(Exception):
    """The requested schedule cannot realize the given coupling matrix."""


class NotProductFormError(InfeasibleStrategyError):
    """Couplings lack the rank-one product structure the limited schedule needs."""


@dataclass(frozen=True)
class Naive:
    pass


@dataclass(frozen=True)
class Stepwise:
    pass


@dataclass(frozen=True)
class Carryover:
    pass


@dataclass(frozen=True)
class Limited:
    """Product-structured couplings V[m,l] = a[m] * b[l] on the upper triangle.

    Leave a and b unset to have them recovered from the matrix (the ratio
    consistency test is the feasibility contract)."""

    a: tuple | None = None
    b: tuple | None = None


@dataclass(frozen=True)
class FixedRange:
    p: int


Strategy = Naive | Stepwise | Carryover | Limited | FixedRange


def _partner_amps(active: complex, phase_coeffs: list[float]) -> list[complex]:
    """Partner amplitudes p with 2 Im(p conj(active)) = c, one per c.

    Each p sits on the quadrature orthogonal to the active amplitude."""
    scale = 2.0 * abs(active) ** 2
    return [1j * c * active / scale for c in phase_coeffs]


def _zrot(phi: float) -> np.ndarray:
    """diag(e^{-i phi}, e^{i phi}), the phase exp(-i phi Z)."""
    return np.diag([np.exp(-1j * phi), np.exp(1j * phi)])


# The CNOT gadget's partner amplitude per core sign.
_CORE_AMP = {sign: _partner_amps(1.0 + 0j, [sign * math.pi / 4])[0] for sign in (1, -1)}


@cache
def _gadget_locals(qubit: int, core_sign: int) -> tuple[Local, Local]:
    """The CNOT gadget's locals on one qubit, built once: its Hadamard, and
    the Hadamard with the phase correction exp(-core_sign i pi/4 Z) that
    closes it.  The gadget is CNOT(ancilla -> qubit) up to the phase
    exp(-core_sign i pi/4 (1 - Z_a)); two gadgets with opposite core signs
    cancel it, which keeps every controlled builder exact."""
    return (Local(qubit, HADAMARD, "h"),
            Local(qubit, HADAMARD @ _zrot(core_sign * math.pi / 4), "h+phase"))


def _cycles(active, x, owner, partners, p) -> tuple[np.ndarray, np.ndarray]:
    """Qubits and betas of disconnected cycles, one after another: cycle i
    attaches active[i] at the real x[i], each partner j with owner[j] == i
    (non-decreasing, at least one per cycle) at p[j], then detaches them
    all in the same order."""
    k = np.bincount(owner, minlength=len(active))
    first = np.cumsum(k) - k                       # first pair of each cycle
    start = 2 * (first + np.arange(len(active)))   # slot of each attach
    attach = start[owner] + 1 + np.arange(len(owner)) - first[owner]
    detach = attach + k[owner] + 1
    qubits = np.empty(2 * (len(owner) + len(active)), dtype=np.intp)
    betas = np.empty(len(qubits), dtype=complex)
    qubits[start] = qubits[start + k + 1] = active
    betas[start], betas[start + k + 1] = x, -np.asarray(x)
    qubits[attach] = qubits[detach] = partners
    betas[attach], betas[detach] = p, -p
    return qubits, betas


def _opens(rows: np.ndarray) -> np.ndarray:
    """True where the non-decreasing index array rows takes a new value."""
    return np.concatenate((rows[:1] >= 0, rows[1:] != rows[:-1]))


def _cycle_amps(owner: np.ndarray, c: np.ndarray, beta_bound: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Active magnitude x per cycle and partner amplitude p per pair, for
    phase coefficient c[j] on (active of cycle owner[j], partner j).

    x is 1, unless some partner (|c|/2 at x = 1) would exceed the bound;
    then x balances active against partners.  p is _partner_amps(x, [c])
    bit for bit, 0 + i c x / 2x^2 (float_power calls the libm pow of **).
    """
    first = np.flatnonzero(_opens(owner))
    worst = np.maximum.reduceat(np.abs(c), first) / 2.0
    x = np.where(worst <= beta_bound, 1.0, np.sqrt(worst))
    xp = x[owner]
    p = np.zeros(len(c), dtype=complex)
    p.imag = c * xp / (2.0 * np.float_power(xp, 2.0))
    return x, p


# ---------------------------------------------------------------------------
# Two-qubit primitives
# ---------------------------------------------------------------------------

def build_cphase(q1: int, q2: int, theta: float, num_qubits: int | None = None) -> GateSequence:
    """Four displacements realizing exp(i theta Z_q1 Z_q2).

    The first quadrature amplitude is fixed at 1, the partner carries
    theta/2, so the product constraint 2 b1 b2 = theta holds.  The bus
    returns to its initial amplitude on every branch.
    """
    if q1 == q2:
        raise ValueError("phase gate needs two distinct qubits")
    n = num_qubits if num_qubits is not None else max(q1, q2) + 1
    b1 = -1.0 + 0j
    b2, = _partner_amps(b1, [theta])
    return GateSequence._of(n, [q1, q2, q1, q2], [b1, b2, -b1, -b2],
                            metadata={"strategy": "cphase", "theta": theta})


def build_cnot(control: int, target: int, num_qubits: int | None = None) -> GateSequence:
    """CNOT gadget in 4 displacements and 2 local unitaries.

    The geometric core exp(i pi/4 Z Z) is dressed with a Hadamard before and
    a phase-corrected Hadamard after on the target.  Constraint: a loop of
    controlled displacements cannot generate phases linear in a single Z, so
    the control's phase correction is unreachable within this budget and the
    output equals CNOT times diag(1, -i) on the control.  Basis states map
    per the CNOT truth table up to a per-input phase, and entangling power
    is exact; the paired-core constructions in make_controlled cancel the
    residual and are exact.
    """
    if control == target:
        raise ValueError("control and target must differ")
    n = num_qubits if num_qubits is not None else max(control, target) + 1
    p = _CORE_AMP[1]
    h, h_corr = _gadget_locals(target, 1)
    return GateSequence._of(n, [control, target, control, target], [1.0, p, -1.0, -p],
                            [(0, h), (4, h_corr)], {"strategy": "cnot"})


# ---------------------------------------------------------------------------
# U_zz schedules
# ---------------------------------------------------------------------------

def _build_naive(v: CouplingMatrix, _strategy: Naive, beta_bound: float) -> tuple:
    """One four-displacement cycle per coupled pair, row by row."""
    m, l = np.nonzero(np.triu(v.v, 1))
    owner = np.arange(len(m))
    x, p = _cycle_amps(owner, v.v[m, l] / 2.0, beta_bound)
    return _cycles(m, x, owner, l, p)


def _build_stepwise(v: CouplingMatrix, _strategy: Stepwise, beta_bound: float) -> tuple:
    """One disconnected cycle per qubit m, covering all pairs (m, l>m)."""
    m, l = np.nonzero(np.triu(v.v, 1))
    first = _opens(m)
    owner = np.cumsum(first) - 1
    x, p = _cycle_amps(owner, v.v[m, l] / 2.0, beta_bound)
    return _cycles(m[first], x, owner, l, p)


def _carryover_chains(rows: list[list[float]]) -> list[list[tuple[int, list[int]]]]:
    """The carryover visit order: per chain, its steps (active, partners).

    A step couples the active qubit to its unvisited partners, ascending,
    and the first partner stays on the bus as the next step's active qubit.
    A chain ends at a qubit with no unvisited partner, and the next starts
    at the lowest unvisited qubit still coupled to another, which handles
    disconnected coupling graphs.  The order depends only on which
    couplings are nonzero.
    """
    unvisited = [q for q, row in enumerate(rows) if any(row)]
    chains = []
    while True:
        active = next((q for q in unvisited
                       if any(rows[q][l] for l in unvisited if l != q)), None)
        if active is None:
            return chains
        chain = []
        while active is not None:
            unvisited.remove(active)
            partners = [l for l in unvisited if rows[active][l]]
            chain.append((active, partners))
            active = partners[0] if partners else None
        chains.append(chain)


def _chain_amps(rows: list[list[float]], chain: list[tuple[int, list[int]]],
                start: float) -> list[tuple[complex, list[complex]]]:
    """Per step of a chain, the active amplitude and the partner amplitudes.

    The first active qubit attaches at start; each later one keeps the
    amplitude that realized its coupling in the step before."""
    beta, amps = complex(start), []
    for active, partners in chain:
        amps.append((beta, _partner_amps(beta, [rows[active][l] / 2.0 for l in partners])))
        beta = amps[-1][1][0] if partners else beta
    return amps


def _build_carryover(v: CouplingMatrix, _strategy: Carryover | FixedRange,
                     beta_bound: float) -> tuple:
    """Chains that leave one qubit attached to the bus between steps.

    Only a chain's start amplitude c is free, and every amplitude in it is
    proportional to c or to 1/c, alternating with the step.  A chain that
    breaks the bound at c = 1 is compiled once more, at c = sqrt(m1 / m0)
    with m0 and m1 the largest magnitudes at c = 1 of the two kinds, which
    balances them."""
    rows = v.v.tolist()
    qubits, betas = [], []
    for chain in _carryover_chains(rows):
        amps = _chain_amps(rows, chain, 1.0)
        mags = ([1.0], [])  # the magnitudes proportional to c, and to 1/c
        for depth, (_, ps) in enumerate(amps):
            mags[1 - depth % 2].extend(map(abs, ps))
        if max(map(max, mags)) > beta_bound:
            amps = _chain_amps(rows, chain, math.sqrt(max(mags[1]) / max(mags[0])))
        qubits.append(chain[0][0])
        betas.append(amps[0][0])
        for (active, partners), (beta, ps) in zip(chain, amps):
            qubits += partners + [active] + partners[1:]
            betas += ps + [-beta] + [-p for p in ps[1:]]
    return qubits, betas


def _product_miss(v: CouplingMatrix, a: np.ndarray, b: np.ndarray) -> tuple | None:
    """The first (m, l, V[m,l], a[m] b[l]), row-major over m < l, where the
    product misses the coupling by more than 1e-12 relative; else None."""
    m, l = np.triu_indices(v.n, 1)
    want = v.v[m, l]
    got = a[m] * b[l]
    miss = np.flatnonzero(np.abs(want - got) > 1e-12 * np.maximum(1.0, np.abs(want)))
    if not miss.size:
        return None
    k = miss[0]
    return int(m[k]), int(l[k]), want[k], got[k]


def decompose_limited(v: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Recover row/column constants with V[m,l] = a[m] b[l] for m < l.

    Feasibility is the ratio consistency test: V[m,l]/V[m,l'] must not
    depend on m wherever defined.  Constants are found by propagation over
    the nonzero entries and verified exactly (1e-12) on every pair,
    including required zeros.  Raises NotProductFormError on the first
    violated entry.

    The propagation walks the graph of the coupled pairs depth first from
    each coupled row not yet reached, in ascending order, which it sets to
    1.  A popped row m sets b[l] = V[m,l] / a[m] on each of its columns l
    still unset, a popped column l sets a[m] = V[m,l] / b[l] on each of
    its rows m still unset, in one array division, and pushes them in
    ascending order.  The walk stops once every coupled row and column has
    its constant.
    """
    n = v.n
    rows, cols = np.nonzero(np.triu(v.v, 1))       # the coupled pairs, row-major
    vals = v.v[rows, cols]
    by_col = np.argsort(cols, kind="stable")
    # Node m < n is row m and node n + l column l; node k's neighbours,
    # ascending, are nbr[ptr[k]:ptr[k + 1]], with the couplings in val.
    nbr = np.concatenate((n + cols, rows[by_col]))
    val = np.concatenate((vals, vals[by_col]))
    ptr = np.concatenate((np.searchsorted(rows, np.arange(n)),
                          len(rows) + np.searchsorted(cols[by_col], np.arange(n + 1))))
    coupled = np.diff(ptr) > 0
    const = np.zeros(2 * n)
    known = np.zeros(2 * n, dtype=bool)
    unset = int(np.count_nonzero(coupled))
    ptr = ptr.tolist()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for root in np.flatnonzero(coupled[:n]).tolist():
            if not unset:
                break
            if known[root]:
                continue
            const[root], known[root] = 1.0, True
            unset -= 1
            frontier = [root]
            while frontier and unset:
                node = frontier.pop()
                lo, hi = ptr[node], ptr[node + 1]
                new = ~known[nbr[lo:hi]]
                reached = nbr[lo:hi][new]
                const[reached] = val[lo:hi][new] / const[node]
                known[reached] = True
                unset -= len(reached)
                frontier += reached.tolist()
    if not np.isfinite(const).all():
        raise NotProductFormError("couplings are not product-structured: "
                                  "row/column constants overflow")
    a, b = const[:n], const[n:]
    miss = _product_miss(v, a, b)
    if miss is not None:
        m, l, want, got = miss
        raise NotProductFormError(
            f"couplings are not product-structured: V[{m},{l}]={want} "
            f"but row/column constants give {got}"
        )
    # One global rescale keeps the two constant sets comparable in size.
    ma, mb = np.max(np.abs(a)), np.max(np.abs(b))
    if ma > 0 and mb > 0:
        c = math.sqrt(mb / ma)
        a, b = a * c, b / c
    return a, b


def _build_limited(v: CouplingMatrix, strategy: Limited, _beta_bound: float) -> tuple:
    if strategy.a is not None and strategy.b is not None:
        a = np.asarray(strategy.a, dtype=float)
        b = np.asarray(strategy.b, dtype=float)
        if a.shape != (v.n,) or b.shape != (v.n,):
            raise InfeasibleStrategyError("limited constants must have one entry per qubit")
        miss = _product_miss(v, a, b)
        if miss is not None:
            raise NotProductFormError(f"supplied constants do not reproduce V[{miss[0]},{miss[1]}]")
    else:
        a, b = decompose_limited(v)
    n = v.n
    # Pair phase is 2 u_l w_m with u on position, w on momentum; target is
    # V[m,l]/2 = a[m] b[l] / 2, so u_l = b[l]/2 and w_m = a[m]/2.
    u = (b / 2.0).tolist()
    w = (a / 2.0).tolist()
    ins = ([(l, complex(u[l])) for l in range(1, n)] + [(0, 1j * w[0])]
           + [d for m in range(1, n - 1) for d in ((m, complex(-u[m])), (m, 1j * w[m]))]
           + [(n - 1, complex(-u[n - 1]))] + [(m, -1j * w[m]) for m in range(n - 1)])
    ins = [(q, beta) for q, beta in ins if beta != 0]  # zero amplitudes are skipped
    return [q for q, _ in ins], [b for _, b in ins]


def _build_fixed_range(v: CouplingMatrix, strategy: FixedRange, beta_bound: float) -> tuple:
    p = strategy.p
    if not 1 <= p <= v.n - 1:
        raise InfeasibleStrategyError(f"interaction range must lie in [1, {v.n - 1}]")
    if v.max_range() > p:
        raise InfeasibleStrategyError(
            f"couplings reach beyond range {p}; found range {v.max_range()}"
        )
    return _build_carryover(v, strategy, beta_bound)


# The schedule registry: strategy class -> (name, resources formula kind,
# builder).  Everything that knows the set of schedules reads it.
_SCHEDULES = {
    Naive: ("naive", "uzz_naive", _build_naive),
    Stepwise: ("stepwise", "uzz_stepwise", _build_stepwise),
    Carryover: ("carryover", "uzz_carryover", _build_carryover),
    Limited: ("limited", "uzz_limited", _build_limited),
    FixedRange: ("fixed-range", "uzz_fixed_range", _build_fixed_range),
}
_BY_NAME = {name: cls for cls, (name, _, _) in _SCHEDULES.items()}
STRATEGY_NAMES = tuple(_BY_NAME)


def _schedule(s: Strategy) -> tuple:
    try:
        return _SCHEDULES[type(s)]
    except KeyError:
        raise TypeError(f"unknown strategy {s!r}") from None


def strategy_from_name(name: str, p: int | None = None) -> Strategy:
    """The strategy called `name` (one of STRATEGY_NAMES); fixed-range takes
    its interaction range p, the other schedules ignore p."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown strategy {name!r}")
    if _BY_NAME[name] is FixedRange:
        if p is None:
            raise ValueError("fixed-range needs the interaction range p")
        return FixedRange(p)
    return _BY_NAME[name]()


def dense_formula_count(s: Strategy, n: int) -> int:
    """Closed-form bus-operation count for fully dense couplings: the
    resources formula of the schedule, evaluated without its domain check
    so that any register size (N = 1 included) has a value."""
    return formula_value(_schedule(s)[1], {"N": n, "p": getattr(s, "p", None)}, check=False)


def build_uzz(v: CouplingMatrix, strategy: Strategy,
              beta_bound: float = DEFAULT_BETA_BOUND) -> GateSequence:
    """Compile exp(i sum_{m<l} V[m,l]/2 Z_m Z_l) under the chosen schedule.

    Dense coupling matrices hit the closed-form bus counts exactly:
    naive 2N^2-2N, stepwise N^2+N-2, carryover N^2-N+2, limited 4N-4,
    fixed-range 2pN-p^2-p+2.  Zero couplings are skipped and only ever
    lower the count.
    """
    name, _, build = _schedule(strategy)
    qubits, betas = build(v, strategy, beta_bound)
    return GateSequence._of(v.n, qubits, betas, (), {
        "strategy": name,
        "bus_ops": len(qubits),
        "bus_ops_dense": dense_formula_count(strategy, v.n),
    })


# ---------------------------------------------------------------------------
# Basis changes and local layers
# ---------------------------------------------------------------------------

def conjugate_to_axis(seq: GateSequence, axis: str) -> GateSequence:
    """Turn a Z-diagonal sequence into its X(x)X or Y(x)Y analog.

    Adds one basis-change local per qubit on each side (2N locals); the
    inner sequence must be diagonal in the computational basis.
    """
    if axis not in _W_AXIS:
        raise ValueError("axis must be 'x' or 'y'")
    for _, ins in seq.gates:
        if type(ins) is Local and (abs(ins.u[0, 1]) >= 1e-12 or abs(ins.u[1, 0]) >= 1e-12):
            raise ValueError("sequence must implement a Z-diagonal effect")
    n = seq.num_qubits
    return GateSequence._assembled(n, seq.qubits, seq.betas,
                                   _to_axis(seq.gates, range(n), axis, len(seq.qubits)),
                                   dict(seq.metadata, axis=axis), seq._n_local + 2 * n)


def _to_axis(gates, qubits, axis: str, end: int) -> list:
    """Wrap the gates of `end` displacements in the basis change W^dag ... W
    on each qubit."""
    return ([(0, _axis_local(q, axis, True)) for q in qubits] + list(gates)
            + [(end, _axis_local(q, axis, False)) for q in qubits])


@cache
def _axis_local(qubit: int, axis: str, to_axis: bool) -> Local:
    """W^dag (to the axis) or W (back) on one qubit, built once and shared."""
    w = _W_AXIS[axis]
    return Local(qubit, w.conj().T, f"to-{axis}") if to_axis else Local(qubit, w, f"from-{axis}")


def _rz_diagonals(eps: np.ndarray, tau: float) -> np.ndarray:
    """diag(exp(i eps_m tau/2), exp(-i eps_m tau/2)) per m, shape (N, 2, 2),
    from one np.exp per diagonal entry over all of eps."""
    if not math.isfinite(0.5 * float(np.max(np.abs(eps), initial=0.0)) * abs(tau)):
        raise ValueError("eps * tau overflows")
    u = np.zeros((len(eps), 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(0.5j * eps * tau)
    u[:, 1, 1] = np.exp(-0.5j * eps * tau)
    return u


def build_u0(eps: np.ndarray, tau: float, num_qubits: int | None = None) -> GateSequence:
    """N local z-rotations realizing exp(i sum_m eps_m tau/2 Z_m)."""
    eps = np.asarray(eps, dtype=float)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if not np.isfinite(eps).all():
        raise ValueError("eps must be finite")
    n = num_qubits if num_qubits is not None else len(eps)
    return GateSequence._of(n, [], [], [(0, Local(m, u, "rz"))
                                        for m, u in enumerate(_rz_diagonals(eps, tau))],
                            {"strategy": "u0"})


# ---------------------------------------------------------------------------
# Controlled constructions
# ---------------------------------------------------------------------------

def make_controlled(v: CouplingMatrix, ancilla: int = 0, axis: str = "z",
                    beta_bound: float = DEFAULT_BETA_BOUND) -> GateSequence:
    """Controlled version of the zz (or xx/yy) evolution, one ancilla qubit.

    Each disconnected cycle (qubit m against all higher partners) is run as
    two half-angle cycles sandwiched by CNOT gadgets on the cycle's common
    qubit: with the ancilla in |0> the halves cancel, with |1> the common
    qubit is flipped between them and the halves add up.  Dense couplings
    cost 2(N^2+7N-8) operations, or 2(N^2+8N-8) with an axis transform.
    """
    if axis != "z" and axis not in _W_AXIS:
        raise ValueError("axis must be 'z', 'x' or 'y'")
    n_sys = v.n
    n = n_sys + 1
    if not 0 <= ancilla < n:
        raise ValueError(f"ancilla index {ancilla} infeasible for {n_sys} system qubits")
    sys_q = np.array([q for q in range(n) if q != ancilla])
    # Per coupled row m, four cycles: the half-angle cycle on the common
    # qubit, the CNOT gadget (the ancilla against the common qubit at x = 1),
    # the opposite half and the opposite gadget.
    m, l = np.nonzero(np.triu(v.v, 1))
    first = _opens(m)
    row = np.cumsum(first) - 1
    x, p = _cycle_amps(row, v.v[m, l] / 4.0, beta_bound)
    p_opposite = np.zeros(len(p), dtype=complex)   # the scalar rule at -c: 0 - i c x / 2x^2
    p_opposite.imag = -p.imag
    common, anc, ones = sys_q[m[first]], np.full(len(x), ancilla), np.ones(len(x))
    r = np.arange(len(x))
    owner = np.concatenate([4 * row, 4 * r + 1, 4 * row + 2, 4 * r + 3])
    order = np.argsort(owner, kind="stable")
    qubits, betas = _cycles(np.stack([common, anc, common, anc], 1).ravel(),
                            np.stack([x, ones, x, ones], 1).ravel(), owner[order],
                            np.concatenate([sys_q[l], common, sys_q[l], common])[order],
                            np.concatenate([p, _CORE_AMP[1] * ones, p_opposite,
                                            _CORE_AMP[-1] * ones])[order])
    gates, k = [], np.bincount(row, minlength=len(x))
    for mr, q, kr, end in zip(m[first].tolist(), common.tolist(), k.tolist(),
                              np.cumsum(4 * k + 12).tolist()):
        (h, h_plus), (_, h_minus) = _gadget_locals(q, 1), _gadget_locals(q, -1)
        gates += [(end - 2 * kr - 10, h), (end - 2 * kr - 6, h_plus), (end - 4, h),
                  (end, h_minus), (end, Barrier(f"cycle-{mr}"))]
    if axis != "z":
        gates = _to_axis(gates, sys_q.tolist(), axis, len(qubits))
    return GateSequence._of(n, qubits, betas, gates,
                            {"strategy": f"controlled-{axis}zz", "ancilla": ancilla})


def _su2_split(u: np.ndarray) -> tuple[float, np.ndarray, float]:
    """u = e^{i delta} B diag(e^{i eta}, e^{-i eta}) B^dag with B unitary."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    delta = np.angle(det) / 2.0
    su = u * np.exp(-1j * delta)
    if u[0, 1] == 0 and u[1, 0] == 0:
        # The eigenvalues are the diagonal; eig and qr give these bases, bit for bit.
        a0, a1 = np.angle(np.diag(su)).tolist()
        basis = (np.eye(2, dtype=complex) if a0 >= a1
                 else np.array([[0, -1], [complex(-1, -0.0), 0]]))
        return delta, basis, max(a0, a1)
    w, vecs = np.linalg.eig(su)
    # Order eigenvalues as e^{+i eta}, e^{-i eta}
    angles = np.angle(w)
    order = np.argsort(-angles)
    w, vecs = w[order], vecs[:, order]
    q, _ = np.linalg.qr(vecs)  # eigenvectors of a unitary can be orthonormalized
    eta = float(np.angle(w[0]))
    return delta, q, eta


def make_controlled_locals(us: list[np.ndarray], ancilla: int = 0) -> GateSequence:
    """Controlled tensor product of N single-qubit unitaries in 8N+4 ops.

    Uses half-power locals between two bus fan-outs (the fan-out is every
    CNOT(ancilla -> m) merged into a single 2N+2-operation cycle); the two
    fan-outs carry opposite core signs so their ancilla corrections cancel.
    When the product of determinants is not 1 a single extra ancilla phase
    is appended (8N+5 operations) to keep the controlled action exact.
    Each input must be a 2x2 unitary (within 1e-12), else ValueError.
    """
    n_sys = len(us)
    if n_sys == 0:
        raise ValueError("need at least one local unitary")
    n = n_sys + 1
    if not 0 <= ancilla < n:
        raise ValueError(f"ancilla index {ancilla} infeasible for {n_sys} system qubits")
    sys_q = [q for q in range(n) if q != ancilla]
    splits = [_su2_split(_check_unitary(u)) for u in us]

    q_corr = _zrot(-math.pi / 4)
    cycle = 2 * n_sys + 2
    ins = [(0, Local(q, HADAMARD @ _zrot(-eta / 2.0) @ basis.conj().T, "prep"))
           for q, (_, basis, eta) in zip(sys_q, splits)]
    ins += [(cycle, _gadget_locals(q, 1)[1]) for q in sys_q]
    ins += [(cycle, Local(q, HADAMARD @ _zrot(eta / 2.0), "half-power"))
            for q, (_, _, eta) in zip(sys_q, splits)]
    ins += [(2 * cycle, Local(q, basis @ HADAMARD @ q_corr, "finish"))
            for q, (_, basis, _) in zip(sys_q, splits)]
    # Two fan-out cycles, the ancilla against every system qubit at x = 1.
    a = _CORE_AMP[1]
    qubits = ([ancilla] + sys_q) * 4
    betas = ([1.0] + [a] * n_sys + [-1.0] + [-a] * n_sys
             + [1.0] + [-a] * n_sys + [-1.0] + [a] * n_sys)
    total_delta = sum(d for d, _, _ in splits)
    if abs(np.exp(1j * total_delta) - 1.0) > 1e-12:
        ins.append((2 * cycle, Local(ancilla, np.diag([1.0, np.exp(1j * total_delta)]),
                                     "det-phase")))
    return GateSequence._of(n, qubits, betas, ins,
                            {"strategy": "controlled-locals", "ancilla": ancilla})


# ---------------------------------------------------------------------------
# Trotter steps and quasi-adiabatic initialization
# ---------------------------------------------------------------------------

def trotter_factors(model: BCSModel, tau: float, order: int = 2,
                    controlled: int | None = None,
                    strategy: Strategy | None = None,
                    coupling_scale: float = 1.0,
                    beta_bound: float = DEFAULT_BETA_BOUND) -> list[GateSequence]:
    """Compiled factors of one product-formula step, in the order they apply.

    The splitting is bcs._evolution_factors, which bcs.product_formula
    evaluates exactly; second order is the symmetric
    U0(tau/2) Uxx(tau/2) Uyy(tau) Uxx(tau/2) U0(tau/2), first order the plain
    product.  Each distinct (kind, time) compiles once, and a factor that
    repeats is the same object.  Uncontrolled, the xx and yy factors are
    one zz schedule in two bases, and each distinct coupling scale compiles
    once: at r = 1 the xx and yy factors of a first-order step share theirs.
    Every factor returns the bus to rest.
    With `controlled` set to an ancilla index, the single-qubit factors go
    through make_controlled_locals and the coupling factors through
    make_controlled, on a register one qubit wider.  A controlled step
    always uses make_controlled's own schedule, so `strategy` (default
    Carryover()) shapes uncontrolled steps only, and passing both raises
    ValueError.
    coupling_scale multiplies the interaction part only (the adiabatic ramp).
    """
    if controlled is not None and strategy is not None:
        raise ValueError("a controlled step compiles through make_controlled; "
                         "strategy applies to uncontrolled steps only")
    strategy = Carryover() if strategy is None else strategy
    n = model.n_modes
    zz: dict[float, GateSequence] = {}    # the zz schedule per coupling scale

    def factor_seq(kind: str, t: float) -> GateSequence:
        if kind == "u0":
            if controlled is None:
                return build_u0(model.eps, -t, n)
            return make_controlled_locals(_rz_diagonals(model.eps, -t), ancilla=controlled)
        scale = -t * coupling_scale * (model.r if kind == "yy" else 1.0)
        axis = "x" if kind == "xx" else "y"
        if controlled is not None:
            return make_controlled(model.v.scaled(scale), ancilla=controlled, axis=axis,
                                   beta_bound=beta_bound)
        if scale not in zz:
            zz[scale] = build_uzz(model.v.scaled(scale), strategy, beta_bound)
        return conjugate_to_axis(zz[scale], axis)

    factors = _evolution_factors(tau, order)
    compiled = {factor: factor_seq(*factor) for factor in dict.fromkeys(factors)}
    return [compiled[factor] for factor in factors]


def build_trotter_step(model: BCSModel, tau: float, order: int = 2,
                       controlled: int | None = None,
                       strategy: Strategy | None = None,
                       coupling_scale: float = 1.0,
                       beta_bound: float = DEFAULT_BETA_BOUND) -> GateSequence:
    """One product-formula step for exp(-iH tau), as one sequence.

    The concatenation of trotter_factors (same arguments): a repeated factor
    appears twice but is compiled once, so its instructions are shared, and
    the factors, validated when built, are joined without checking again.
    Callers that need the step's unitary fold this sequence once with
    sequence.effective_unitary, which fuses the locals where factors meet
    (two or three on each qubit) into one 2x2 product each.
    """
    return _concat(trotter_factors(model, tau, order, controlled, strategy,
                                   coupling_scale, beta_bound),
                   {"strategy": f"trotter-{order}"})


def adiabatic_steps(delta: float) -> int:
    """Step count for a target precision: pi / delta, as an integer."""
    if not 0 < delta < 1:
        raise ValueError("precision must lie in (0, 1)")
    return int(math.pi / delta)


def build_adiabatic_init(model: BCSModel, steps: int, tau: float,
                         ramp: str = "linear",
                         strategy: Strategy = Carryover(),
                         beta_bound: float = DEFAULT_BETA_BOUND) -> GateSequence:
    """Quasi-adiabatic ramp: S first-order steps with interactions scaled by c.

    c climbs from ~0 to 1 over the schedule (linear by default, cosine
    optional).  Run slowly enough this prepares the interacting ground
    state; run deliberately fast it leaves a ground/first-excited mixture
    whose phases feed the gap estimate.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    ramps = {
        "linear": lambda s: s,
        "cosine": lambda s: 0.5 * (1.0 - math.cos(math.pi * s)),
    }
    if ramp not in ramps:
        raise ValueError(f"unknown ramp {ramp!r}")
    parts = [build_trotter_step(model, tau, order=1, strategy=strategy,
                                coupling_scale=ramps[ramp](j / steps), beta_bound=beta_bound)
             for j in range(1, steps + 1)]
    # Both ramps end at c = 1, so the last step is the unscaled step.
    return _concat(parts, {"strategy": f"adiabatic-{ramp}", "steps": steps,
                           "ops_per_step": count_ops(parts[-1])["total"]})


# ---------------------------------------------------------------------------
# Quantum Fourier transform on the bus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QftMode:
    measurement_ready: bool = True
    forward: bool = True


def build_qft(k: int, mode: QftMode = QftMode()) -> GateSequence:
    """Fourier transform on k qubits with all controlled phases bus-mediated.

    Every two-qubit rotation is a pure ZZ exponential, so the whole ladder
    runs as one sweep: qubit 0 attaches to the position quadrature, the rest
    to momentum; each later qubit detaches, takes its accumulated diagonal
    correction and a Hadamard, and re-attaches on position.  4k-4 bus
    operations total.  The rotation angles fall off exponentially with qubit
    separation, which is exactly the product structure one sweep can carry.

    measurement_ready drops the k-1 diagonal corrections that sit after the
    Hadamards (invisible to Z-basis statistics), leaving 6k-5 operations;
    the full unitary keeps them (2k-2 corrections).  Output bit order is
    reversed relative to the textbook transform; readout is re-ordered
    classically, no swap network is emitted.
    """
    if k < 1:
        raise ValueError("need at least one qubit")
    sign = 1.0 if mode.forward else -1.0
    ins = [(0, Local(0, HADAMARD, "h"))]
    if k == 1:
        return GateSequence._of(1, [], [], ins, {"strategy": "qft", "k": 1})

    def theta(i: int, j: int) -> float:
        # Angle of the ZZ exponential between qubits i < j.
        return sign * math.pi / 2.0 ** (j - i + 2)

    # Separable amplitudes: theta(i,j) = pi/4 * 2^i 2^-j; the i >= 1 columns
    # carry a minus sign because their attach happens inside the partners'
    # bus windows in the opposite pattern order.
    c = math.sqrt(math.pi) / 4.0 * 2.0 ** (-(k - 2) / 2.0)
    x = [c * 2.0**i * (1.0 if i == 0 else -1.0) for i in range(k - 1)]
    y = [sign * math.pi / (8.0 * c) * 2.0**-j for j in range(k)]

    pre_corr = [sum(theta(i, j) for i in range(j)) for j in range(k)]
    post_corr = [sum(theta(i, j) for j in range(i + 1, k)) for i in range(k - 1)]

    qubits = list(range(k)) + [0]
    betas = [complex(x[0])] + [1j * y[j] for j in range(1, k)] + [complex(-x[0])]
    for m in range(1, k):
        qubits.append(m)
        betas.append(-1j * y[m])
        ins += [(len(qubits), Local(m, _zrot(pre_corr[m]), "corr")),
                (len(qubits), Local(m, HADAMARD, "h"))]
        if m < k - 1:
            qubits.append(m)
            betas.append(complex(x[m]))
    qubits += range(1, k - 1)
    betas += [complex(-x[m]) for m in range(1, k - 1)]
    if not mode.measurement_ready:
        ins += [(len(qubits), Local(q, _zrot(post_corr[q]), "corr")) for q in range(k - 1)]
    return GateSequence._of(k, qubits, betas, ins, {
        "strategy": "qft", "k": k, "mode": "mr" if mode.measurement_ready else "full",
        "direction": "fwd" if mode.forward else "inv"})
