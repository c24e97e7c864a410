"""The three benchmark workloads: inputs, operations and correctness checks.

Every input is drawn from the seed given to the constructor, which is the
benchmark's set-up step.  An operation is a zero-argument callable that makes
one call into qubusim's public entry points; its check runs afterwards,
outside the timed region.  Operations are grouped into rounds of fixed
composition, so the mix of operation sizes is the same for every seed.

Functions are looked up on their module at call time (``cli.main``,
``builders.build_uzz``, ...), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qubusim
from qubusim import bcs, builders, cli, hybrid, resources, sequence


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "Checked"]


@dataclass
class Checked:
    ok: bool
    error: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class Record:
    """One timed operation; `scale` converts its time to reference speed."""

    round: int
    kind: str
    start: float
    seconds: float
    ok: bool
    error: str
    extra: dict
    traced: bool = False
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


# ---------------------------------------------------------------------------
# pea-gap: `qubusim gap` on seeded pairing models
# ---------------------------------------------------------------------------

class PeaGap:
    """`qubusim gap --k 6` in-process on random pairing models, N = 3..5.

    r = 1 and n = N // 2.  A model is kept only when its exact sector gap is
    at least two resolution bins 2 pi / (2^k tau), with tau chosen as the CLI
    chooses it; phase estimation cannot resolve a smaller gap by
    construction.  This precondition uses the exact spectrum only, and the
    number of redraws is recorded.
    """

    name = "pea-gap"
    K = 6
    ROUND = (3, 4, 4, 5)
    POOL = 8          # models per size, used in turn
    TRACE_ROUNDS = 2  # rounds of a traced run

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.redraws = 0
        self.models: dict[int, list[tuple[str, float, float]]] = {}
        for n_modes in sorted(set(self.ROUND)):
            entries = []
            for i in range(1 if smoke else self.POOL):
                model, exact, bin_width = self._draw(rng, n_modes)
                path = workdir / f"model-N{n_modes}-{i}.json"
                bcs.save_model(model, path)
                entries.append((str(path), exact, bin_width))
            self.models[n_modes] = entries

    def _draw(self, rng, n_modes):
        while True:
            eps = rng.uniform(0.5, 2.0, n_modes)
            v = np.triu(rng.uniform(0.05, 0.5, (n_modes, n_modes)), 1)
            model = bcs.BCSModel(n_modes, n_modes // 2, eps,
                                 bcs.CouplingMatrix(n_modes, v + v.T), r=1.0)
            emax = float(np.max(np.abs(bcs.exact_spectrum(model).eigenvalues)))
            tau = (1.0 - 2.0 ** -self.K) * math.pi / emax
            bin_width = 2.0 * math.pi / (2**self.K * tau)
            exact = bcs.energy_gap(model, n_modes // 2)
            if exact >= 2.0 * bin_width:
                return model, exact, bin_width
            self.redraws += 1

    def round(self, r: int) -> list[Op]:
        ops = []
        seen: dict[int, int] = {}
        for n_modes in self.ROUND:
            j = seen.get(n_modes, 0)
            seen[n_modes] = j + 1
            models = self.models[n_modes]
            path, exact, bin_width = models[(r * self.ROUND.count(n_modes) + j) % len(models)]
            ops.append(Op(f"N{n_modes}", self._op(path), self._check(exact, bin_width)))
        return ops

    def _op(self, path):
        argv = ["gap", "--model", path, "--k", str(self.K)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        return run

    @staticmethod
    def _check(exact, bin_width):
        def check(result):
            code, text = result
            if code != 0:
                return Checked(False, f"exit code {code}")
            lines = [ln for ln in text.splitlines() if ln.startswith("pea gap:")]
            try:
                estimate = float(lines[0].split()[2])
            except (IndexError, ValueError):
                return Checked(False, "no pea gap in output")
            err_bins = abs(estimate - exact) / bin_width
            return Checked(err_bins <= 1.0, f"|pea - exact| = {err_bins:.3f} bins",
                           {"err_bins": err_bins})
        return check

    def finish(self, root: Path) -> list[str]:
        return []

    def summary(self, records) -> dict:
        errs = [rec.extra["err_bins"] for rec in records if "err_bins" in rec.extra]
        return {"gap_err_bins": sum(errs) / len(errs) if errs else None,
                "redraws": self.redraws}


# ---------------------------------------------------------------------------
# branch-sim: execute + norm on random bus sequences
# ---------------------------------------------------------------------------

def _haar_unitary_2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class BranchSim:
    """`execute` then `norm` on random sequences drawn as in acceptance
    criterion 10: n = 1..3 qubits, 5..30 instructions, each a displacement
    with |beta| <= 1 (probability 0.6) or a Haar local gate (0.4), on a
    uniformly chosen qubit; the local gates entangle with the bus.

    An operation costs O(B^2) in the branch count B, and B can double at
    every local gate, so the pool is a stratified sample of that generator
    that keeps a 30 s run steady, and the same for every seed:

    * each round holds one sequence of every (n, instructions) shape;
    * over the rounds, the local-gate counts of a shape are the quantiles of
      their binomial distribution, given to the rounds in seeded order;
    * counts above MAX_LOCALS are cut, which bounds B by 2^11 = 2048, the
      largest count criterion 10 reaches;
    * the layout (that order, and each sequence's gate positions and
      qubits), which sets B, is drawn from LAYOUT_SEED, not from the seed:
      drawn from the seed, it made ops_per_s differ between seeds by a
      quarter of its median (quartile distance, see CHANGES.md).

    The seed draws the rest as in the criterion: basis states, amplitudes
    and unitaries.
    """

    name = "branch-sim"
    SHAPES = [(n, n_ops) for n in (1, 2, 3) for n_ops in range(5, 31)]
    ROUNDS = 26       # distinct rounds in the pool, 78 sequences each
    TRACE_ROUNDS = ROUNDS  # rounds of a traced run
    P_LOCAL = 0.4
    MAX_LOCALS = 11
    LAYOUT_SEED = 10
    FOCK_SAMPLE = 8   # outputs checked against the truncated-Fock oracle

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        rng = np.random.default_rng(seed)
        layout = np.random.default_rng(self.LAYOUT_SEED)
        rounds = 1 if smoke else self.ROUNDS
        by_shape = [[self._draw(layout, rng, n, n_ops, n_local)
                     for n_local in layout.permutation(self._local_counts(n_ops, rounds))]
                    for n, n_ops in self.SHAPES]
        self.pool = [by_shape[k][r] for r in range(rounds)
                     for k in layout.permutation(len(self.SHAPES))]
        self.block = 1 if smoke else len(self.SHAPES)
        picks = rng.choice(self.block, size=min(self.FOCK_SAMPLE, self.block), replace=False)
        self.fock_outputs: dict[int, object] = {int(i): None for i in picks}
        self.fock_checked = 0
        # Local gates on bus-entangled qubits are what this workload exercises.
        warnings.simplefilter("ignore", sequence.EntangledBusWarning)

    def _local_counts(self, n_ops: int, rounds: int) -> list[int]:
        """`rounds` quantiles of Binomial(n_ops, P_LOCAL), cut at MAX_LOCALS."""
        pmf = [math.comb(n_ops, k) * self.P_LOCAL**k * (1 - self.P_LOCAL) ** (n_ops - k)
               for k in range(min(n_ops, self.MAX_LOCALS) + 1)]
        cdf = np.cumsum(pmf) / sum(pmf)
        return [int(np.searchsorted(cdf, (i + 0.5) / rounds)) for i in range(rounds)]

    @staticmethod
    def _draw(layout, rng, n: int, n_ops: int, n_local: int):
        basis = "".join(rng.choice(["0", "1"]) for _ in range(n))
        local_at = set(layout.choice(n_ops, size=n_local, replace=False).tolist())
        ins = []
        for j in range(n_ops):
            qb = int(layout.integers(n))
            if j in local_at:
                ins.append(sequence.Local(qb, _haar_unitary_2(rng)))
            else:
                mag = rng.uniform(0.0, 1.0)
                ins.append(sequence.Displace(qb, mag * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        return sequence.GateSequence(n, ins), basis

    def round(self, r: int) -> list[Op]:
        return [self._op((r * self.block + i) % len(self.pool)) for i in range(self.block)]

    def _op(self, idx: int) -> Op:
        seq, basis = self.pool[idx]

        def run():
            out = sequence.execute(seq, hybrid.init_state(seq.num_qubits, basis))
            return out, hybrid.norm(out)

        def check(result):
            out, nrm = result
            if idx in self.fock_outputs and self.fock_outputs[idx] is None:
                self.fock_outputs[idx] = out
            return Checked(abs(nrm - 1.0) <= 1e-10, f"|norm - 1| = {abs(nrm - 1.0):.3e}",
                           {"instructions": len(seq.instructions)})
        return Op(f"n{seq.num_qubits}", run, check)

    def finish(self, root: Path) -> list[str]:
        """Check sampled outputs against the truncated-Fock oracle at 1e-8."""
        sys.path.insert(0, str(root / "tests"))
        from oracles import FockOracle, coherent_vector, fock_dim_for

        errors = []
        for idx, out in sorted(self.fock_outputs.items()):
            if out is None:
                continue
            seq, basis = self.pool[idx]
            n = seq.num_qubits
            # Largest bus amplitude reached along the way sizes the Fock space.
            state, max_alpha = hybrid.init_state(n, basis), 0.0
            for ins in seq.instructions:
                if isinstance(ins, sequence.Displace):
                    state = hybrid.apply_displacement(state, ins.qubit, ins.beta)
                else:
                    state = hybrid.apply_local(state, ins.qubit, ins.u)
                max_alpha = max([max_alpha] + [abs(complex(*b["alpha"]))
                                               for b in hybrid.to_debug_json(state)["branches"]])
            dim = fock_dim_for(max_alpha + 0.5)
            fock = FockOracle(n, dim, basis)
            for ins in seq.instructions:
                if isinstance(ins, sequence.Displace):
                    fock.apply_displacement(ins.qubit, ins.beta)
                else:
                    fock.apply_local(ins.qubit, ins.u)
            embedded = np.zeros((2**n, dim), dtype=complex)
            for b in hybrid.to_debug_json(out)["branches"]:
                embedded[int(b["basis"], 2)] += complex(*b["coeff"]) * coherent_vector(
                    complex(*b["alpha"]), dim)
            overlap = np.vdot(embedded, fock.state)
            self.fock_checked += 1
            if abs(fock.norm() - 1.0) >= 1e-10:
                errors.append(f"sequence {idx}: Fock truncation inadequate")
            elif abs(overlap - 1.0) >= 1e-8:
                errors.append(f"sequence {idx}: |<branch|fock> - 1| = {abs(overlap - 1.0):.3e}")
        return errors

    def summary(self, records) -> dict:
        busy = sum(rec.ref_seconds for rec in records)
        instr = sum(rec.extra.get("instructions", 0) for rec in records)
        return {"sim_instr_per_s": instr / busy if busy else None,
                "fock_checked": self.fock_checked}


# ---------------------------------------------------------------------------
# compile-audit: schedule compiles and the count audit
# ---------------------------------------------------------------------------

def displacements(seq) -> tuple[np.ndarray, np.ndarray]:
    """Qubit indices and amplitudes of a sequence's displacements, in order."""
    disp = [ins for ins in seq.instructions if isinstance(ins, sequence.Displace)]
    q = np.fromiter((ins.qubit for ins in disp), dtype=np.intp, count=len(disp))
    beta = np.fromiter((ins.beta for ins in disp), dtype=complex, count=len(disp))
    return q, beta


def zz_phases(q: np.ndarray, beta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise ZZ phases and net displacements of a displacement list.

    By the composition rule the phase on a basis with signs s is
    sum_{j<k} s_{q_j} s_{q_k} Im(beta_k conj(beta_j)); the coefficient of
    s_a s_b (a != b) is returned in [a, b].  Work is O(displacements * n),
    in chunks so that memory stays small.
    """
    phi = np.zeros((n, n))
    running = np.zeros(n, dtype=complex)
    for s in range(0, len(q), 512):
        qc, bc = q[s:s + 512], beta[s:s + 512]
        steps = np.zeros((len(qc), n), dtype=complex)
        steps[np.arange(len(qc)), qc] = bc
        before = np.cumsum(steps, axis=0)
        before -= steps
        before += running
        running = before[-1] + steps[-1]
        contrib = (bc[:, None] * before.conj()).imag
        order = np.argsort(qc, kind="stable")
        qs = qc[order]
        starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
        phi[qs[starts]] += np.add.reduceat(contrib[order], starts, axis=0)
    pair = phi + phi.T
    np.fill_diagonal(pair, 0.0)
    return pair, running


def _formula(kind: str, **params) -> float:
    return resources.formula_count(resources.CountFormula(kind, params))


class CompileAudit:
    """One `build_uzz` per strategy plus one `make_controlled` at each of
    N = 50, 100, 200, and one `verify_counts()` pass, per round.

    Each strategy gets couplings it can compile: dense for naive, stepwise,
    carryover and make_controlled, product-form for limited, banded with
    range P for fixed-range.
    """

    name = "compile-audit"
    SIZES = (50, 100, 200)
    P = 4
    POOL = 8          # coupling draws per kind and size, used in turn
    TRACE_ROUNDS = POOL  # rounds of a traced run
    STRATEGIES = (("naive", "dense"), ("stepwise", "dense"), ("carryover", "dense"),
                  ("limited", "product"), ("fixed-range", "banded"))

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.sizes = self.SIZES[:1] if smoke else self.SIZES
        self.verified: dict[tuple, bytes] = {}   # sha256 of checked schedules
        self.couplings = {}
        for n in self.sizes:
            for i in range(self.POOL):
                dense = np.triu(rng.uniform(0.3, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)), 1)
                a, b = rng.uniform(0.3, 1.0, n), rng.uniform(0.3, 1.0, n)
                product = np.triu(np.outer(a, b), 1)
                idx = np.arange(n)
                band = (idx[None, :] - idx[:, None] >= 1) & (idx[None, :] - idx[:, None] <= self.P)
                banded = np.where(band, rng.uniform(0.3, 1.0, (n, n)), 0.0)
                for kind, upper in (("dense", dense), ("product", product), ("banded", banded)):
                    self.couplings[kind, n, i] = bcs.CouplingMatrix(n, upper + upper.T)

    @staticmethod
    def _strategy(name: str):
        return {"naive": qubusim.Naive, "stepwise": qubusim.Stepwise,
                "carryover": qubusim.Carryover, "limited": qubusim.Limited,
                "fixed-range": lambda: qubusim.FixedRange(CompileAudit.P)}[name]()

    def round(self, r: int) -> list[Op]:
        i = r % self.POOL
        ops = []
        for n in self.sizes:
            for name, kind in self.STRATEGIES:
                ops.append(self._uzz_op(name, (kind, n, i)))
            ops.append(self._controlled_op(self.couplings["dense", n, i]))
        ops.append(Op("verify_counts", lambda: resources.verify_counts(), self._check_report))
        return ops

    def _uzz_op(self, name, key) -> Op:
        coupling = self.couplings[key]
        strategy = self._strategy(name)
        n = coupling.n
        params = {"N": n, "p": self.P} if name == "fixed-range" else {"N": n}
        expected = _formula("uzz_" + name.replace("-", "_"), **params)

        def check(seq):
            counts = sequence.count_ops(seq)
            extra = {"bus_ops": counts["bus"], "formula": expected}
            if expected != int(expected) or counts["bus"] != int(expected):
                return Checked(False, f"{counts['bus']} bus operations, formula {expected}", extra)
            if counts["local"]:
                return Checked(False, "zz schedule contains local gates", extra)
            # A schedule equal to one already verified for this input is correct.
            # The phase recovery below is the costly part of the check: run on
            # every output it makes a 30 s run take about 66 s of wall time
            # instead of 43 s on a 2-core x86-64 host.
            q, beta = displacements(seq)
            digest = hashlib.sha256(q.tobytes() + beta.tobytes()).digest()
            if self.verified.get((name, key)) == digest:
                return Checked(True, extra=extra)
            pair, net = zz_phases(q, beta, n)
            dev = float(np.max(np.abs(pair - coupling.v / 2.0)))
            drift = float(np.max(np.abs(net)))
            ok = dev <= 1e-9 and drift <= 1e-9
            if ok:
                self.verified[name, key] = digest
            return Checked(ok, f"phase deviation {dev:.3e}, net displacement {drift:.3e}", extra)
        return Op(f"{name}@{n}", lambda: builders.build_uzz(coupling, strategy), check)

    def _controlled_op(self, coupling) -> Op:
        expected = _formula("ctrl_uzz", N=coupling.n)

        def check(seq):
            total = sequence.count_ops(seq)["total"]
            ok = expected == int(expected) and total == int(expected)
            return Checked(ok, f"{total} operations, formula {expected}")
        return Op(f"controlled@{coupling.n}", lambda: builders.make_controlled(coupling), check)

    @staticmethod
    def _check_report(report):
        bad = report.mismatches()
        return Checked(not bad and bool(report.rows), f"{len(bad)} count mismatches",
                       {"rows": len(report.rows)})

    def finish(self, root: Path) -> list[str]:
        return []

    def summary(self, records) -> dict:
        """Displacements per second of build_uzz time, and the closed-form
        total of the schedules compiled (bus_ops_emitted in a traced run)."""
        compiles = [rec for rec in records if "bus_ops" in rec.extra]
        busy = sum(rec.ref_seconds for rec in compiles)
        return {"bus_ops_per_s": sum(rec.extra["bus_ops"] for rec in compiles) / busy
                if busy else None,
                "closed_form_bus_ops": sum(int(rec.extra["formula"]) for rec in compiles)}


WORKLOADS = {cls.name: cls for cls in (PeaGap, BranchSim, CompileAudit)}
