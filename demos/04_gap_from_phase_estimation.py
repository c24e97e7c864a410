"""Measuring a pairing gap end to end: initialize, evolve, transform, read.

A two-mode pairing model with coupling V has single-excitation levels -V and
+V, so the gap is 2V = 1.0 here.  Phase estimation encodes exp(-iH tau)
eigenphases into k ancillas through controlled compiled evolution; the two
dominant outcomes after the inverse transform sit at the ground and excited
phases and their distance over tau estimates the gap to one part in 2^k.
"""

import numpy as np

import qubusim as q
from qubusim.pea import (AdiabaticSequence, ExactSuperposition, PEAConfig, resolve_tau,
                         substeps_for_target)

v = np.zeros((2, 2))
v[0, 1] = v[1, 0] = 0.5
model = q.BCSModel(2, 1, np.array([1.0, 1.0]), q.CouplingMatrix(2, v), r=1.0)
print("exact single-excitation gap:", q.energy_gap(model, sector=1))

k = 6
cfg = PEAConfig(k=k, trotter_order=2, init=ExactSuperposition())
cfg.trotter_substeps = substeps_for_target(model, resolve_tau(model, cfg), k, order=2)
circ = q.build_pea(model, cfg)
print(f"auto tau = {circ.tau:.4f}, substeps = {cfg.trotter_substeps}, "
      f"controlled-evolution operations = {circ.counts['controlled_evolution']}")

res = q.run_pea(model, cfg)
print("\ntop outcomes (phase-index bitstrings):")
for bits, p in sorted(res.distribution.items(), key=lambda t: -t[1])[:4]:
    print(f"  {bits}: {p:.4f}")
print(f"\ngap estimate: {res.gap_estimate:.4f} +- {res.resolution_energy:.4f}")

print("\nsame run with the ramped (quasi-adiabatic) initializer:")
cfg_ad = PEAConfig(k=k, trotter_order=2, trotter_substeps=cfg.trotter_substeps,
                   init=AdiabaticSequence(steps=100, tau_init=0.05))
res_ad = q.run_pea(model, cfg_ad)
print(f"gap estimate: {res_ad.gap_estimate:.4f} +- {res_ad.resolution_energy:.4f}")
