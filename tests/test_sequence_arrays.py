"""The array layout of a GateSequence and the instruction view read from it.

The library reads a sequence's arrays (qubits, betas, gates); callers such
as the benchmark read seq.instructions.  These tests hold the view to the
arrays on every builder, with the pinned inputs of test_schedule_pins, and
on random instruction lists.
"""

import json
from collections import Counter

import numpy as np
from hypothesis import example, given, settings, strategies as st

import qubusim.builders as builders
from qubusim.bcs import BCSModel, CouplingMatrix
from qubusim.builders import (
    STRATEGY_NAMES,
    QftMode,
    build_adiabatic_init,
    build_cnot,
    build_cphase,
    build_qft,
    build_trotter_step,
    build_u0,
    build_uzz,
    conjugate_to_axis,
    make_controlled,
    make_controlled_locals,
    trotter_factors,
)
from qubusim.sequence import (Barrier, Displace, GateSequence, Local, count_ops,
                              sequence_from_json, sequence_to_json)

from oracles import haar_unitary_2, product_coupling, random_dense_coupling
from test_schedule_pins import _sparse, _uzz_inputs


def _builder_sequences():
    rng = np.random.default_rng(1111)
    for name in STRATEGY_NAMES:
        for n in range(2, 13):
            for v, s in _uzz_inputs(name, n, rng):
                yield build_uzz(v, s)
    rng = np.random.default_rng(1212)
    for n in range(2, 9):
        dense = random_dense_coupling(n, rng)
        for v in (dense, _sparse(dense, rng), 40.0 * dense):
            for ancilla, axis in ((0, "z"), (n, "x"), (0, "y")):
                yield make_controlled(CouplingMatrix(n, v), ancilla, axis)
        yield make_controlled_locals([haar_unitary_2(rng) for _ in range(n)], ancilla=n // 2)
        yield build_cphase(0, n - 1, 0.7, n)
        yield build_cnot(n - 1, 0, n)
        yield build_u0(rng.uniform(0.5, 1.5, n), 0.3)
        yield conjugate_to_axis(build_uzz(CouplingMatrix(n, dense), builders.Carryover()), "y")
    for k in range(1, 7):
        for measurement_ready in (True, False):
            for forward in (True, False):
                yield build_qft(k, QftMode(measurement_ready, forward))
    rng = np.random.default_rng(1313)
    for n in range(2, 7):
        eps = rng.uniform(0.5, 1.5, size=n)
        for v in (random_dense_coupling(n, rng), product_coupling(n)):
            model = BCSModel(n, n // 2, eps, CouplingMatrix(n, v), r=0.8)
            for order in (1, 2):
                for controlled in (None, 0):
                    yield from trotter_factors(model, 0.3, order, controlled)
                    yield build_trotter_step(model, 0.3, order, controlled)
            yield build_adiabatic_init(model, 2, 0.2)


def check_view(seq: GateSequence) -> None:
    """The view is the arrays' stream, and every reader agrees with it."""
    view = seq.instructions
    assert isinstance(view, tuple)
    disp = [ins for ins in view if type(ins) is Displace]
    assert np.array([d.qubit for d in disp], dtype=np.intp).tobytes() == seq.qubits.tobytes()
    assert (np.array([complex(d.beta) for d in disp], dtype=complex).tobytes()
            == seq.betas.tobytes())
    cuts, done = [], 0
    for ins in view:
        if type(ins) is Displace:
            done += 1
        else:
            cuts.append(done)
    assert cuts == [cut for cut, _ in seq.gates]
    assert all(a is b for a, (_, b) in zip([i for i in view if type(i) is not Displace],
                                           seq.gates))
    kinds = Counter(map(type, view))
    assert set(kinds) <= {Displace, Local, Barrier}
    assert len(view) == kinds[Displace] + kinds[Local] + kinds[Barrier]
    assert count_ops(seq) == {"bus": kinds[Displace], "local": kinds[Local],
                              "total": kinds[Displace] + kinds[Local]}
    doc = json.dumps(sequence_to_json(seq), sort_keys=True)
    rebuilt = GateSequence(seq.num_qubits, list(view), dict(seq.metadata))
    assert json.dumps(sequence_to_json(rebuilt), sort_keys=True) == doc
    loaded = sequence_from_json(json.loads(doc))
    assert loaded.qubits.tobytes() == seq.qubits.tobytes()
    assert loaded.betas.tobytes() == seq.betas.tobytes()
    assert [cut for cut, _ in loaded.gates] == cuts


def test_builders_emit_no_displace_objects():
    assert not hasattr(builders, "Displace")


def test_view_matches_the_arrays_on_every_builder():
    seqs = list(_builder_sequences())
    assert len(seqs) > 400
    for seq in seqs:
        check_view(seq)


_label = st.text(max_size=4)
_unitary = st.integers(0, 2**32 - 1).map(lambda s: haar_unitary_2(np.random.default_rng(s)))


@st.composite
def instruction_lists(draw):
    n = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)
    return n, draw(st.lists(st.one_of(
        st.builds(Displace, qubit, st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                      allow_infinity=False)),
        st.builds(Local, qubit, _unitary, _label),
        st.builds(Barrier, _label),
    ), max_size=25))


_h = Local(0, builders.HADAMARD, "h")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=instruction_lists())
@example(case=(1, []))
@example(case=(2, [Barrier("a"), Barrier(), Barrier("b")]))
@example(case=(2, [_h, Local(1, np.eye(2)), Displace(1, 0.5j), Displace(0, -0.0)]))
@example(case=(2, [Displace(0, 1.0), Barrier(), Displace(1, complex(0.0, -0.0)), _h]))
def test_view_round_trips_random_instruction_lists(case):
    n, instructions = case
    seq = GateSequence(n, instructions, {"strategy": "random"})
    view = seq.instructions
    assert len(view) == len(instructions)
    for a, b in zip(instructions, view):
        assert type(a) is type(b)
        if type(a) is Displace:
            assert a.qubit == b.qubit
            assert np.array(complex(a.beta)).tobytes() == np.array(b.beta).tobytes()
        else:
            assert a is b
    check_view(seq)
