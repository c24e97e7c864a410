"""Bus-operation schedules for exp(i sum V_ml/2 Z_m Z_l), from naive to tight.

Implementing every pair gate separately costs 2N^2-2N bus operations.
Batching one qubit against all its later partners per step costs N^2+N-2;
leaving one qubit attached to the bus between steps (carryover) reaches
N^2-N+2, six operations above the N^2-N lower bound for fully general
couplings.  Product-structured couplings V_ml = a_m b_l compile in 4N-4,
and interactions of range p in 2pN-p^2-p+2.
"""

import numpy as np

import qubusim as q
from qubusim.resources import CountFormula, formula_count

rng = np.random.default_rng(0)

print(f"{'N':>3} {'naive':>7} {'stepwise':>9} {'carryover':>10} "
      f"{'limited':>8} {'range p=2':>10} {'bound N^2-N':>12}")
for n in range(2, 11):
    v = rng.uniform(0.3, 1.0, (n, n))
    v = (v + v.T) / 2
    np.fill_diagonal(v, 0)
    cm = q.CouplingMatrix(n, v)
    counts = [q.count_ops(q.build_uzz(cm, s))["bus"]
              for s in (q.Naive(), q.Stepwise(), q.Carryover())]
    prod = np.zeros((n, n))
    for m in range(n):
        for l in range(m + 1, n):
            prod[m, l] = prod[l, m] = np.exp(-abs(m - l))
    lim = q.count_ops(q.build_uzz(q.CouplingMatrix(n, prod), q.Limited()))["bus"]
    if n >= 3:
        band = np.zeros((n, n))
        for m in range(n):
            for l in range(m + 1, min(m + 2, n - 1) + 1):
                band[m, l] = band[l, m] = rng.uniform(0.3, 1.0)
        rng_count = q.count_ops(q.build_uzz(q.CouplingMatrix(n, band), q.FixedRange(2)))["bus"]
    else:
        rng_count = counts[2]
    print(f"{n:>3} {counts[0]:>7} {counts[1]:>9} {counts[2]:>10} "
          f"{lim:>8} {rng_count:>10} {n*n-n:>12}")

print("\nevery count above equals its closed form, e.g. for N=10:")
for kind, params in [("uzz_naive", {"N": 10}), ("uzz_stepwise", {"N": 10}),
                     ("uzz_carryover", {"N": 10}), ("uzz_limited", {"N": 10}),
                     ("uzz_fixed_range", {"N": 10, "p": 2})]:
    print(f"  {kind:<18} -> {formula_count(CountFormula(kind, params)):.0f}")

print("\ncarryover chain for N=4 (one qubit stays on the bus between steps):")
v = rng.uniform(0.3, 1.0, (4, 4)); v = (v + v.T) / 2; np.fill_diagonal(v, 0)
seq = q.build_uzz(q.CouplingMatrix(4, v), q.Carryover())
on_bus = {}  # qubit -> the amplitude the bus is displaced by on it
for qubit, beta in zip(seq.qubits.tolist(), seq.betas.tolist()):
    total = on_bus.pop(qubit, 0) + beta
    if total:
        on_bus[qubit] = total
    held = " ".join(f"q{h}" for h in sorted(on_bus)) or "nothing"
    print(f"  {'attach' if total else 'detach'} q{qubit} ({beta:+.3f})  on the bus: {held}")
