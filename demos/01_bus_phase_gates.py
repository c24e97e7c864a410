"""How a continuous-variable bus turns displacements into two-qubit phases.

A controlled displacement D(beta * sigma_z) pushes the bus through phase
space in a direction set by a qubit's Z value.  Two displacements on
orthogonal quadratures do not commute; a closed four-displacement loop
leaves the bus where it started but imprints the enclosed area as a phase
exp(i 2 b1 b2 Z_1 Z_2) on the qubits.  With 2 b1 b2 = pi/4 this is a
controlled-phase gate up to local rotations.
"""

import numpy as np

import qubusim as q

np.set_printoptions(precision=4, suppress=True, linewidth=100)

theta = np.pi / 4
seq = q.build_cphase(0, 1, theta)

print("instruction list (closed loop, four bus operations):")
for ins in seq.instructions:
    print(f"  displace qubit {ins.qubit} by beta = {ins.beta:+.4f}")

print("\nbus trajectory on each basis state:")
for bits in ("00", "01", "10", "11"):
    state = q.init_state(2, bits)
    path = [state.branches[0].alpha]
    for ins in seq.instructions:
        state = q.apply_displacement(state, ins.qubit, ins.beta)
        path.append(state.branches[0].alpha)
    phase = np.angle(state.branches[0].coeff)
    pretty = " -> ".join(f"{a:+.2f}" for a in path)
    print(f"  |{bits}>: {pretty}   accumulated phase {phase:+.4f} rad")

print("\neffective unitary (diagonal, exp(i pi/4 ZZ) pattern):")
print(np.diag(q.effective_unitary(seq, 2)))

print("\nclosed form from the composition rule (no simulation):")
# D(a) D(b) = exp((a conj(b) - conj(a) b)/2) D(a + b): each step adds
# Im(step * conj(alpha)) to the phase, where step = s_q * beta.
signs = q.hybrid.z_signs(2)
for b, bits in enumerate(("00", "01", "10", "11")):
    alpha, phase = 0j, 0.0
    for ins in seq.instructions:
        step = signs[b, ins.qubit] * ins.beta
        phase += (step * np.conj(alpha)).imag
        alpha += step
    print(f"  |{bits}>: phase {phase:+.4f}, residual bus amplitude {alpha:+.2f}")
