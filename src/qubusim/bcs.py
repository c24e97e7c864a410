"""Pairing-model Hamiltonian in qubit form, with exact-diagonalization oracles.

The model on N qubits is

    H = sum_m eps_m/2 sigma_z^m  +  sum_{m<l} V_ml/2 (sigma_x^m sigma_x^l
                                                      + r sigma_y^m sigma_y^l)

with on-site energies eps (any self-couplings already absorbed), a symmetric
coupling matrix V with zero diagonal, and an anisotropy parameter r.  At
r = 1 the total excitation number (count of |1> bits) is conserved, which
enables sector-restricted spectra.

Qubit 0 is the most significant bit of the basis index, consistently with
the rest of the package.  Time evolution is exp(-iHt).

A model holds read-only copies of its arrays and memoizes its Hamiltonian
and spectra on the instance, so one model is diagonalized once per sector
however many callers ask for its levels.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .hybrid import z_signs
from .sequence import _sign_tables

__all__ = [
    "CouplingMatrix",
    "BCSModel",
    "SpectrumResult",
    "SectorUnavailableError",
    "hamiltonian_matrix",
    "exact_spectrum",
    "energy_gap",
    "exact_evolution",
    "product_formula",
    "trotter_error",
    "sector_indices",
    "spectrum_to_csv",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

DENSE_LIMIT = 14


class SectorUnavailableError(Exception):
    """Excitation sectors only exist at r = 1, where [H, sum sigma_z] = 0."""


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric real N x N coupling matrix with zero diagonal."""

    n: int
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.n, self.n):
            raise ValueError(f"coupling matrix must be {self.n}x{self.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coupling matrix entries must be finite")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ValueError("coupling matrix must be symmetric")
        if np.max(np.abs(np.diag(v))) > 1e-12:
            raise ValueError("coupling matrix must have zero diagonal")
        object.__setattr__(self, "v", v)

    @classmethod
    def from_array(cls, v) -> "CouplingMatrix":
        v = np.asarray(v, dtype=float)
        return cls(v.shape[0], v)

    def scaled(self, factor: float) -> "CouplingMatrix":
        """factor * V.  The multiple keeps V's symmetry and zero diagonal
        (bit for bit when V has them exactly), so only finiteness is checked
        again: an infinite or NaN factor, or an overflow, raises ValueError."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.v * factor
        if not np.isfinite(v).all():
            raise ValueError("coupling matrix entries must be finite")
        out = object.__new__(CouplingMatrix)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "v", v)
        return out

    def max_range(self) -> int:
        """Largest |m - l| with a nonzero coupling (0 for an empty matrix)."""
        idx = np.nonzero(self.v)
        return int(np.max(np.abs(idx[0] - idx[1]))) if idx[0].size else 0


@dataclass(frozen=True)
class BCSModel:
    n_modes: int
    n_excitations: int
    eps: np.ndarray
    v: CouplingMatrix
    r: float = 1.0

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        if eps.shape != (self.n_modes,):
            raise ValueError("eps must have one entry per mode")
        if not np.all(np.isfinite(eps)):
            raise ValueError("eps entries must be finite")
        if self.v.n != self.n_modes:
            raise ValueError("coupling matrix size must match the mode count")
        if not 0 <= self.n_excitations <= self.n_modes:
            raise ValueError("excitation count must lie in [0, N]")
        # exact_spectrum memoizes what it reads from eps and V in _memo (not a
        # field, so it takes no part in equality, repr or dataclasses.replace);
        # private read-only copies keep a caller's later write from staling it.
        # The coupling is validated already, so only its array is replaced.
        coupling = copy.copy(self.v)
        object.__setattr__(coupling, "v", _read_only(self.v.v.copy()))
        object.__setattr__(self, "v", coupling)
        object.__setattr__(self, "eps", _read_only(eps))
        object.__setattr__(self, "_memo", {})


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sector: int | None = None
    basis_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))


def _check_integer(name: str, value) -> None:
    """One-line ValueError for a count that is not an integer (or is a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def hamiltonian_matrix(m: BCSModel) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian assembled from the register's sign table.

    Z_q is diagonal with entries s[:, q], and a coupled pair acts on a basis
    state as (X_a X_b + r Y_a Y_b)|x> = (1 - r s_a s_b)|x with bits a, b flipped>.
    """
    n = m.n_modes
    if n > DENSE_LIMIT:
        raise ValueError(f"dense Hamiltonian limited to {DENSE_LIMIT} qubits")
    s = z_signs(n)
    idx = np.arange(2**n)
    diag = np.zeros(2**n)
    for q in range(n):
        diag += 0.5 * m.eps[q] * s[:, q]
    h = np.zeros((2**n, 2**n), dtype=complex)
    h[idx, idx] = diag
    for a in range(n):
        for b in range(a + 1, n):
            if m.v.v[a, b] == 0.0:
                continue
            flipped = idx ^ (1 << (n - 1 - a)) ^ (1 << (n - 1 - b))
            # += onto the zeros: a vanishing term (r = 1) then stays +0.0
            h[flipped, idx] += 0.5 * m.v.v[a, b] * (1.0 - m.r * s[:, a] * s[:, b])
    return h


def sector_indices(n: int, excitations: int) -> np.ndarray:
    """Basis indices whose bit count equals the excitation number."""
    return np.array([i for i in range(2**n) if bin(i).count("1") == excitations])


def exact_spectrum(m: BCSModel, sector: int | None = None) -> SpectrumResult:
    """Full or excitation-sector spectrum by dense diagonalization.

    Memoized per sector on the model, with the Hamiltonian it is read from,
    and returned read-only: callers share the result.
    """
    memo = m._memo
    if ("spectrum", sector) in memo:
        return memo["spectrum", sector]
    if "hamiltonian" not in memo:
        memo["hamiltonian"] = _read_only(hamiltonian_matrix(m))
    h = memo["hamiltonian"]
    if sector is None:
        idx = np.arange(2**m.n_modes)
        w, vecs = np.linalg.eigh(h)
    else:
        if abs(m.r - 1.0) > 1e-12:
            raise SectorUnavailableError("excitation sectors require r = 1")
        idx = sector_indices(m.n_modes, sector)
        w, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
    spec = SpectrumResult(_read_only(w), _read_only(vecs), sector, _read_only(idx))
    memo["spectrum", sector] = spec
    return spec


def energy_gap(m: BCSModel, sector: int | None = None) -> float:
    """E1 - E0 of the (optionally sector-restricted) spectrum."""
    w = exact_spectrum(m, sector).eigenvalues
    if len(w) < 2:
        raise ValueError("spectrum has fewer than two levels")
    return float(w[1] - w[0])


def exact_evolution(m: BCSModel, t: float) -> np.ndarray:
    """exp(-iHt) through the full eigendecomposition (exact_spectrum)."""
    if m.n_modes > 10:
        raise ValueError("exact evolution limited to 10 qubits")
    spec = exact_spectrum(m)
    w, vecs = spec.eigenvalues, spec.eigenvectors
    return (vecs * np.exp(-1j * w * t)) @ vecs.conj().T


def _zz_phases(v: np.ndarray) -> np.ndarray:
    """sum_{m<l} V[m,l]/2 s_m s_l on every basis row: the diagonal of
    sum_{m<l} V[m,l]/2 Z_m Z_l, read from the register's pair-product table
    (both orders of a pair and the zero diagonal, so vec(V) / 4)."""
    return _sign_tables(v.shape[0])[1] @ v.ravel() / 4.0


@cache
def _walsh_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(-1)^popcount(i & j), i ^ j and 1j^popcount(i) over the basis indices.

    The first is 2^(n/2) H^(x)n; with f its product with a phase vector d
    over 2^n, H^(x)n diag(d) H^(x)n has entry f[i ^ j].  The last is the
    diagonal of S^(x)n.  Built once per register size and read-only.
    """
    bits = _sign_tables(n)[2]
    walsh = 1.0 - 2.0 * ((bits @ bits.T) & 1)
    idx = np.arange(2**n)
    xor = idx[:, None] ^ idx
    spin = np.array([1, 1j, -1, -1j])[bits.sum(axis=1) % 4]
    for a in (walsh, xor, spin):
        a.flags.writeable = False
    return walsh, xor, spin


def _evolution_factors(tau: float, order: int) -> list[tuple[str, float]]:
    """Factor list (kind, time) of one product-formula step for exp(-iH tau),
    in the order the factors apply.

    Second order is the symmetric splitting
    U0(tau/2) Uxx(tau/2) Uyy(tau) Uxx(tau/2) U0(tau/2), first order the
    plain product U0(tau) Uxx(tau) Uyy(tau).  builders.trotter_factors
    compiles this list and product_formula evaluates it, so the two share
    one splitting and its argument checks.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if order == 1:
        return [("u0", tau), ("xx", tau), ("yy", tau)]
    if order == 2:
        return [("u0", tau / 2), ("xx", tau / 2), ("yy", tau),
                ("xx", tau / 2), ("u0", tau / 2)]
    raise ValueError("order must be 1 or 2")


def product_formula(m: BCSModel, tau: float, order: int = 2) -> np.ndarray:
    """Exact 2^N x 2^N unitary of one product-formula step for exp(-iH tau).

    Evaluates the factor list builders.trotter_factors compiles, each factor
    from one phase vector: U0(t) = diag(exp(-i t sum_m eps_m/2 s_m)),
    Uxx(t) = H^(x)N diag(exp(-i t zz)) H^(x)N and
    Uyy(t) = W^(x)N diag(exp(-i t r zz)) W^(x)N^dag with W = S H, where zz
    is the diagonal of sum_{m<l} V_ml/2 Z_m Z_l.  Nothing is compiled or
    folded; the compiled step (build_trotter_step folded by
    effective_unitary) agrees with it to rounding.  Raises ValueError on
    more than 10 modes, a tau that is not finite and positive, an order
    other than 1 or 2, and phases that overflow.
    """
    n = m.n_modes
    if n > 10:
        raise ValueError("product formula limited to 10 qubits")
    factors = _evolution_factors(tau, order)
    walsh, xor, spin = _walsh_tables(n)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _sign_tables(n)[0] @ m.eps / 2.0
        zz = _zz_phases(m.v.v)

        def factor(kind: str, t: float) -> np.ndarray:
            if kind == "u0":
                return np.exp(-1j * t * energies)
            if kind == "xx":
                return (walsh @ np.exp(-1j * t * zz) / 2**n)[xor]
            f = (walsh @ np.exp(-1j * (t * m.r) * zz) / 2**n)[xor]
            return spin[:, None] * f * spin.conj()

        distinct = {key: factor(*key) for key in dict.fromkeys(factors)}
        u = np.eye(2**n, dtype=complex)
        for key in factors:
            f = distinct[key]
            u = f[:, None] * u if f.ndim == 1 else f @ u
    if not np.isfinite(u).all():
        raise ValueError("the product formula's phases overflow")
    return u


def trotter_error(m: BCSModel, t: float, steps: int, order: int = 2, *,
                  exact: np.ndarray | None = None) -> float:
    """Spectral-norm distance between `steps` product-formula steps and exp(-iHt).

    The step is product_formula(m, t / steps, order), the exact unitary of
    the factor list the builders compile, so this measures the splitting
    error and compiles and folds nothing; run_pea checks the compiled
    controlled step it runs against the same formula.  A caller comparing
    several step counts at one t may pass exact = exact_evolution(m, t) to
    skip recomputing it.  Raises ValueError on a steps that is not a
    positive integer and on an exact of the wrong shape or not finite.
    """
    if m.n_modes > 8:
        raise ValueError("trotter_error limited to 8 qubits")
    _check_integer("steps", steps)
    if steps < 1:
        raise ValueError("need at least one step")
    dim = 2**m.n_modes
    if exact is not None:
        if np.shape(exact) != (dim, dim):
            raise ValueError(f"exact must be a ({dim}, {dim}) matrix, got shape {np.shape(exact)}")
        if not np.isfinite(exact).all():
            raise ValueError("exact must be finite")
    u = np.linalg.matrix_power(product_formula(m, t / steps, order), steps)
    if exact is None:
        exact = exact_evolution(m, t)
    return float(np.linalg.norm(u - exact, 2))


# ---------------------------------------------------------------------------
# Model JSON and spectrum CSV
# ---------------------------------------------------------------------------

def spectrum_to_csv(spec: SpectrumResult) -> str:
    lines = ["index,eigenvalue"]
    lines += [f"{i},{float(w)!r}" for i, w in enumerate(spec.eigenvalues)]
    return "\n".join(lines) + "\n"


def model_to_json(m: BCSModel) -> dict:
    return {
        "N": m.n_modes,
        "n": m.n_excitations,
        "eps": [float(e) for e in m.eps],
        "V": [[float(x) for x in row] for row in m.v.v],
        "r": float(m.r),
    }


def model_from_json(doc: dict) -> BCSModel:
    n = int(doc["N"])
    return BCSModel(
        n_modes=n,
        n_excitations=int(doc["n"]),
        eps=np.array(doc["eps"], dtype=float),
        v=CouplingMatrix(n, np.array(doc["V"], dtype=float)),
        r=float(doc.get("r", 1.0)),
    )


def save_model(m: BCSModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(m), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> BCSModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
