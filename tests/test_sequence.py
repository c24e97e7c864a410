"""IR mechanics: counting, execution diagnostics, JSON interchange."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubusim.builders import (
    HADAMARD,
    Carryover,
    FixedRange,
    Limited,
    Naive,
    QftMode,
    Stepwise,
    build_adiabatic_init,
    build_cphase,
    build_qft,
    build_trotter_step,
    build_uzz,
    make_controlled,
    make_controlled_locals,
)
from qubusim.bcs import BCSModel, CouplingMatrix
from qubusim.hybrid import EntangledBusError, init_state, qubit_amplitudes
from qubusim.sequence import (
    Barrier,
    Displace,
    EntangledBusWarning,
    GateSequence,
    Local,
    count_ops,
    effective_unitary,
    execute,
    load_sequence,
    _fold_columns,
    save_sequence,
    sequence_from_json,
    sequence_to_json,
)

from oracles import banded_coupling, haar_unitary_2, product_coupling, random_dense_coupling


def test_count_ops_ignores_barriers():
    seq = GateSequence(2, [Displace(0, 0.1), Barrier("x"), Local(1, np.eye(2)),
                           Barrier(), Displace(1, 0.2j)])
    assert count_ops(seq) == {"bus": 2, "local": 1, "total": 3}
    assert count_ops(GateSequence(1, [])) == {"bus": 0, "local": 0, "total": 0}


def test_sequence_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        GateSequence(1, [Displace(1, 0.5)])


def test_sequence_metadata_count_validation():
    with pytest.raises(ValueError):
        GateSequence(2, [Displace(0, 0.1)], {"bus_ops": 3})


def test_execute_identity_sequence():
    s = init_state(2, "10")
    out = execute(GateSequence(2, [Barrier(), Local(0, np.eye(2))]), s)
    assert out.branches[0].basis == "10"
    assert abs(out.branches[0].coeff - 1.0) < 1e-12


def test_execute_warns_on_entangled_local():
    seq = GateSequence(1, [Local(0, HADAMARD), Displace(0, 0.6), Local(0, HADAMARD)])
    with pytest.warns(EntangledBusWarning):
        execute(seq, init_state(1, "0"))


def test_compiled_sequences_execute_without_warnings(recwarn):
    rng = np.random.default_rng(211)
    cm = CouplingMatrix(3, random_dense_coupling(3, rng))
    seq = build_uzz(cm, Carryover())
    execute(seq, init_state(3, "101"))
    assert not [w for w in recwarn.list if issubclass(w.category, EntangledBusWarning)]


def test_effective_unitary_rejects_mismatched_size():
    with pytest.raises(ValueError):
        effective_unitary(build_cphase(0, 1, 0.2), 3)


def test_effective_unitary_entangled_bus_raises():
    from qubusim.hybrid import EntangledBusError

    seq = GateSequence(1, [Displace(0, 0.4)])
    with pytest.raises(EntangledBusError):
        effective_unitary(seq, 1)


def test_json_roundtrip(tmp_path):
    seq = build_cphase(0, 1, 0.37)
    seq.instructions.append(Local(1, HADAMARD, "h"))
    seq.instructions.append(Barrier("end"))
    path = tmp_path / "seq.json"
    save_sequence(seq, path)
    loaded = load_sequence(path)
    assert loaded.num_qubits == 2
    assert count_ops(loaded) == count_ops(seq)
    u1 = effective_unitary(seq, 2)
    u2 = effective_unitary(loaded, 2)
    assert np.max(np.abs(u1 - u2)) < 1e-12


@st.composite
def sequences(draw):
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1)
    label = st.text(max_size=8)
    unitary = st.integers(0, 2**32 - 1).map(lambda s: haar_unitary_2(np.random.default_rng(s)))
    instructions = draw(st.lists(st.one_of(
        st.builds(Displace, qubit, st.complex_numbers(allow_nan=False, allow_infinity=False)),
        st.builds(Local, qubit, unitary, label),
        st.builds(Barrier, label),
    ), max_size=20))
    return GateSequence(n, instructions, {"strategy": draw(label)})


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seq=sequences())
def test_json_roundtrip_property(seq):
    doc = sequence_to_json(seq)
    loaded = sequence_from_json(json.loads(json.dumps(doc)))
    assert loaded.num_qubits == seq.num_qubits
    assert loaded.metadata["strategy"] == seq.metadata["strategy"]
    assert len(loaded.instructions) == len(seq.instructions)
    for a, b in zip(seq.instructions, loaded.instructions):
        assert type(a) is type(b)
        if isinstance(a, Local):
            assert (a.qubit, a.label) == (b.qubit, b.label)
            assert np.array_equal(a.u, b.u)
        else:
            assert a == b
    assert sequence_to_json(loaded) == doc


def test_json_field_shapes():
    doc = sequence_to_json(build_cphase(0, 1, 0.5))
    assert doc["version"] == 1
    assert doc["counts"] == {"bus": 4, "local": 0}
    assert doc["instructions"][0]["op"] == "disp"
    assert isinstance(doc["instructions"][0]["beta"], list)


def test_json_count_validation_on_load():
    doc = sequence_to_json(build_cphase(0, 1, 0.5))
    doc["counts"]["bus"] = 3
    with pytest.raises(ValueError):
        sequence_from_json(doc)


def test_json_rejects_unknown_ops_and_versions():
    doc = sequence_to_json(build_cphase(0, 1, 0.5))
    doc["version"] = 2
    with pytest.raises(ValueError):
        sequence_from_json(doc)
    doc["version"] = 1
    doc["instructions"][0]["op"] = "squeeze"
    with pytest.raises(ValueError):
        sequence_from_json(doc)


# ---------------------------------------------------------------------------
# effective_unitary against a column-by-column reference
# ---------------------------------------------------------------------------

def columns_reference(seq: GateSequence) -> np.ndarray:
    """The compiled unitary from executing each basis column separately."""
    n = seq.num_qubits
    cols = [qubit_amplitudes(execute(seq, init_state(n, format(j, f"0{n}b"))))
            for j in range(2**n)]
    return np.column_stack(cols)


def _model(n: int, seed: int) -> BCSModel:
    rng = np.random.default_rng(seed)
    return BCSModel(n, n // 2, rng.uniform(0.5, 2.0, n),
                    CouplingMatrix(n, random_dense_coupling(n, rng, 0.05, 0.5)))


def _sequences():
    rng = np.random.default_rng(401)
    dense = CouplingMatrix(4, random_dense_coupling(4, rng))
    yield "uzz-naive", build_uzz(dense, Naive())
    yield "uzz-stepwise", build_uzz(dense, Stepwise())
    yield "uzz-carryover", build_uzz(dense, Carryover())
    yield "uzz-limited", build_uzz(CouplingMatrix(4, product_coupling(4)), Limited())
    yield "uzz-fixed-range", build_uzz(CouplingMatrix(5, banded_coupling(5, 2, rng)),
                                       FixedRange(2))
    v3 = CouplingMatrix(3, random_dense_coupling(3, rng))
    for axis in ("x", "y", "z"):
        yield f"controlled-{axis}", make_controlled(v3, ancilla=0, axis=axis)
    yield "controlled-locals", make_controlled_locals(
        [haar_unitary_2(rng) for _ in range(3)], ancilla=1)
    model = _model(3, 409)
    for order in (1, 2):
        yield f"trotter-o{order}", build_trotter_step(model, 0.4, order=order)
        yield f"trotter-o{order}-controlled", build_trotter_step(model, 0.4, order=order,
                                                                 controlled=0)
    yield "qft", build_qft(3)
    yield "qft-measurement-ready", build_qft(3, QftMode(measurement_ready=True, forward=False))
    yield "adiabatic-init", build_adiabatic_init(model, 3, 0.2)
    # echo: X flips the sign of each qubit's displacement while the bus is
    # displaced by that qubit alone, so the bus returns to vacuum and the
    # enclosed areas leave a ZZ phase
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    yield "echo", GateSequence(2, [Displace(0, 0.4), Displace(1, 0.3j), Local(0, x),
                                   Displace(0, 0.4), Local(1, x), Displace(1, 0.3j)])


@pytest.mark.parametrize("seq", [pytest.param(seq, id=name) for name, seq in _sequences()])
def test_effective_unitary_matches_column_reference(seq, recwarn):
    u = effective_unitary(seq)
    assert np.max(np.abs(u - columns_reference(seq))) <= 1e-12
    assert not [w for w in recwarn.list if issubclass(w.category, EntangledBusWarning)]


def test_effective_unitary_entangled_local_warns_and_raises():
    seq = GateSequence(1, [Local(0, HADAMARD), Displace(0, 0.6), Local(0, HADAMARD)])
    with pytest.warns(EntangledBusWarning), pytest.raises(EntangledBusError):
        effective_unitary(seq)


def test_effective_unitary_rejects_non_finite_beta():
    seq = build_cphase(0, 1, 0.3)
    seq.instructions.insert(2, Displace(1, complex(np.nan, 0.0)))
    with pytest.raises(ValueError, match="finite"):
        effective_unitary(seq)


def test_compiled_steps_keep_the_bus_at_rest():
    # Every displacement loop of a compiled step closes before the next
    # local gate, to rounding, so the fold never materializes the bus
    # amplitude: A comes back exactly zero.
    model = _model(4, 419)
    for order in (1, 2):
        for controlled in (None, 0):
            seq = build_trotter_step(model, 0.4, order=order, controlled=controlled)
            c, a = _fold_columns(seq, seq.num_qubits)
            assert not a.any()
            assert np.max(np.abs(c - columns_reference(seq))) <= 1e-12


def test_run_open_above_rounding_bound_takes_the_exact_path(recwarn):
    # The first loop misses closure by 1e-13 on qubit 0, far above the
    # rounding bound of its sum, so A is materialized; the local gate on
    # qubit 1 still folds (the bus does not depend on qubit 1), and the
    # later loops run through the full update of C and A.
    seq = build_cphase(0, 1, 0.3, 3)
    seq.instructions[2] = Displace(0, seq.instructions[2].beta + 1e-13)
    seq.instructions.append(Local(1, HADAMARD))
    seq.extend(build_cphase(1, 2, 0.7, 3))
    seq.instructions.append(Local(2, haar_unitary_2(np.random.default_rng(421))))
    seq.extend(build_cphase(0, 2, 0.2, 3))
    c, a = _fold_columns(seq, 3)
    assert 0.5e-13 < np.max(np.abs(a)) < 2e-13
    u = effective_unitary(seq)
    assert np.max(np.abs(u - columns_reference(seq))) <= 1e-12
    assert not [w for w in recwarn.list if issubclass(w.category, EntangledBusWarning)]


def test_non_finite_beta_raises_before_a_later_bad_qubit():
    seq = GateSequence(2, [Displace(0, complex(np.nan, 0.0)), Displace(1, 0.1)])
    with pytest.raises(ValueError, match="finite"):
        _fold_columns(seq, 1)
    seq.instructions.append(Displace(5, 0.1))
    with pytest.raises(ValueError, match="finite"):
        effective_unitary(seq)
