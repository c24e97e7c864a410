"""IR mechanics: counting, execution diagnostics, JSON interchange."""

import json
import warnings

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
    conjugate_to_axis,
    make_controlled,
    make_controlled_locals,
    trotter_factors,
)
from qubusim.bcs import BCSModel, CouplingMatrix
from qubusim.hybrid import (COEFF_DROP_TOL, MERGE_TOL, EntangledBusError, apply_displacement,
                            init_state, qubit_amplitudes, z_signs)
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
    _compose_runs,
    _fold_columns,
    _fuse_locals,
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


def test_extend_keeps_a_declared_bus_count():
    v = CouplingMatrix(3, random_dense_coupling(3, np.random.default_rng(443)))
    seq = build_uzz(v, Naive())
    seq.extend(build_uzz(v, Naive()))
    assert seq.metadata["bus_ops"] == count_ops(seq)["bus"] == 24
    assert conjugate_to_axis(seq, "x").metadata["bus_ops"] == 24
    bare = GateSequence(3, [])
    bare.extend(seq)
    assert "bus_ops" not in bare.metadata


@pytest.mark.parametrize("beta", [complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf,
                                  np.complex128(complex(1.0, np.nan))])
def test_sequence_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite"):
        GateSequence(2, [Local(1, HADAMARD), Displace(0, 0.1), Barrier(), Displace(1, beta)])


def test_local_keeps_a_read_only_copy():
    u = HADAMARD.copy()
    loc = Local(0, u)
    with pytest.raises(ValueError):
        loc.u[0, 0] = 2.0
    u[0, 0] = 2.0  # the caller's array stays writable and apart from the gate
    assert HADAMARD.flags.writeable
    assert np.array_equal(loc.u, HADAMARD)
    with pytest.raises(ValueError, match="unitary"):
        Local(0, u)


def test_fold_does_not_check_locals_again(monkeypatch):
    import qubusim.sequence as sequence

    seq = build_trotter_step(_model(3, 433), 0.3, order=2, controlled=0)
    assert count_ops(seq)["local"] > 0
    calls = []
    check = sequence._check_unitary
    monkeypatch.setattr(sequence, "_check_unitary", lambda u: calls.append(u) or check(u))
    _fold_columns(seq, seq.num_qubits)
    effective_unitary(seq)
    assert calls == []


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
    seq = GateSequence(2, [*build_cphase(0, 1, 0.37).instructions,
                           Local(1, HADAMARD, "h"), Barrier("end")])
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
    # A sequence cannot hold a NaN amplitude: the constructor rejects it,
    # and neither the instruction view nor the arrays can be edited after.
    seq = build_cphase(0, 1, 0.3)
    ins = list(seq.instructions)
    ins.insert(2, Displace(1, complex(np.nan, 0.0)))
    with pytest.raises(ValueError, match="finite"):
        GateSequence(2, ins)
    with pytest.raises(AttributeError):
        seq.instructions.insert(2, Displace(1, complex(np.nan, 0.0)))
    with pytest.raises(ValueError, match="read-only"):
        seq.betas[2] = complex(np.nan, 0.0)
    assert np.max(np.abs(effective_unitary(seq) - effective_unitary(build_cphase(0, 1, 0.3)))) == 0


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


def _library_sequences():
    rng = np.random.default_rng(447)
    for k in range(1, 11):
        for ready in (True, False):
            for forward in (True, False):
                yield f"qft-{k}-{ready}-{forward}", build_qft(k, QftMode(ready, forward))
    for n in range(2, 8):
        model = _model(n, 449 + n)
        for order in (1, 2):
            for controlled in (None, 0):
                for i, part in enumerate(trotter_factors(model, 0.4, order, controlled)):
                    yield f"trotter-{n}-{order}-{controlled}-{i}", part
    model = _model(3, 457)
    yield "adiabatic-init", build_adiabatic_init(model, 3, 0.2)
    yield "cphase", build_cphase(0, 2, 0.3, 3)
    v3 = CouplingMatrix(3, random_dense_coupling(3, rng))
    for axis in ("z", "x", "y"):
        yield f"controlled-{axis}", make_controlled(v3, ancilla=1, axis=axis)
    yield "controlled-locals", make_controlled_locals(
        [haar_unitary_2(rng) for _ in range(3)], ancilla=0)
    for n in range(2, 9):
        dense = CouplingMatrix(n, random_dense_coupling(n, rng))
        for strategy in (Naive(), Stepwise(), Carryover()):
            yield f"uzz-{n}-{type(strategy).__name__}", build_uzz(dense, strategy)
        yield f"uzz-{n}-limited", build_uzz(CouplingMatrix(n, product_coupling(n)), Limited())
        for p in range(1, n):
            yield f"uzz-{n}-fixed-range-{p}", build_uzz(
                CouplingMatrix(n, banded_coupling(n, p, rng)), FixedRange(p))


def test_library_builders_fold_in_one_regime():
    # No library builder puts a local gate on a qubit the bus is displaced
    # on, so effective_unitary never needs the column-by-column path for
    # them; the QFT leaves runs open across its Hadamards on other qubits.
    # The reference costs about 1 s per QFT at k = 7, so k = 7 is checked
    # for the inverse measurement-ready QFT only, the one run_pea folds.
    for name, seq in _library_sequences():
        assert _fold_columns(seq, seq.num_qubits) is not None, name
        k = seq.num_qubits
        if name.startswith("qft-") and (k <= 6 or name == "qft-7-True-False"):
            assert np.max(np.abs(effective_unitary(seq) - columns_reference(seq))) <= 1e-12, name


def test_run_open_above_rounding_bound_takes_the_exact_path(recwarn):
    # The first loop misses closure by 1e-13 on qubit 0, so the bus stays
    # displaced by that much on qubit 0 to the end; the local gates on
    # qubits 1 and 2 still fold (the bus does not depend on them), and the
    # later loops gain the cross phases with the leftover displacement.
    ins = list(build_cphase(0, 1, 0.3, 3).instructions)
    ins[2] = Displace(0, ins[2].beta + 1e-13)
    seq = GateSequence(3, ins + [Local(1, HADAMARD)])
    seq.extend(build_cphase(1, 2, 0.7, 3))
    seq.extend(GateSequence(3, [Local(2, haar_unitary_2(np.random.default_rng(421)))]))
    seq.extend(build_cphase(0, 2, 0.2, 3))
    c, a = _fold_columns(seq, 3)
    assert 0.5e-13 < np.max(np.abs(a)) < 2e-13
    u = effective_unitary(seq)
    assert np.max(np.abs(u - columns_reference(seq))) <= 1e-12
    assert not [w for w in recwarn.list if issubclass(w.category, EntangledBusWarning)]


def test_non_finite_beta_raises_before_a_later_bad_qubit():
    # The constructor checks the amplitudes before the qubit ranges, and a
    # sequence cannot be edited after it, so the fold never meets either.
    ins = [Displace(0, complex(np.nan, 0.0)), Displace(1, 0.1)]
    with pytest.raises(ValueError, match="finite"):
        GateSequence(1, ins)
    with pytest.raises(ValueError, match="finite"):
        GateSequence(2, ins + [Displace(5, 0.1)])
    with pytest.raises(ValueError, match="qubit 5 out of range"):
        GateSequence(2, ins[1:] + [Displace(5, 0.1)])
    seq = GateSequence(2, ins[1:])
    with pytest.raises(TypeError):
        seq.instructions[0] = ins[0]
    with pytest.raises(AttributeError):
        seq.instructions.append(Displace(5, 0.1))
    with pytest.raises(ValueError, match="read-only"):
        seq.qubits[0] = 5


def test_each_step_unitary_is_one_fold(monkeypatch):
    # The product-formula error folds nothing (it evaluates the formula
    # exactly), and the controlled-step block folds its whole compiled step
    # once: the factor folds and their 2^n x 2^n products are gone.
    import qubusim.sequence as sequence
    from qubusim import pea
    from qubusim.bcs import trotter_error

    folds = []
    fold = sequence._fold_columns
    monkeypatch.setattr(sequence, "_fold_columns",
                        lambda seq, n: folds.append(seq) or fold(seq, n))
    model = _model(3, 433)
    trotter_error(model, 0.6, 4, 2)
    assert folds == []
    pea._controlled_step_matrix(model, pea.PEAConfig(k=3), 0.3)
    assert [(seq.metadata["strategy"], seq.num_qubits) for seq in folds] == [("trotter-2", 4)]


@pytest.mark.parametrize("controlled", [None, 0])
def test_a_factor_that_leaves_the_bus_displaced_fails_the_step(controlled, monkeypatch):
    # With one fold per step there is no per-factor unitarity check; a
    # factor that stops returning the bus to rest (its last displacement
    # dropped) still fails the step's own residual check.
    import qubusim.builders as builders
    from qubusim import pea

    factors = builders.trotter_factors

    def broken(*args, **kwargs):
        parts = factors(*args, **kwargs)
        xx = parts[1]
        cut = GateSequence._of(xx.num_qubits, xx.qubits[:-1], xx.betas[:-1],
                               [(min(c, len(xx.qubits) - 1), ins) for c, ins in xx.gates])
        return [cut if part is xx else part for part in parts]

    monkeypatch.setattr(builders, "trotter_factors", broken)
    model = _model(3, 491)
    with warnings.catch_warnings(), pytest.raises(EntangledBusError):
        # the local after the dropped displacement meets a displaced qubit
        warnings.simplefilter("ignore", EntangledBusWarning)
        if controlled is None:
            effective_unitary(builders.build_trotter_step(model, 0.3, 2), 3)
        else:
            pea._controlled_step_matrix(model, pea.PEAConfig(k=3), 0.3)


def test_halves_of_a_loop_compose_to_the_loop():
    # A ZZ loop cut in half: each half leaves the bus displaced by an amount
    # that depends on the input, so neither folds to a unitary alone, but
    # the fold of the two in sequence is the loop's, bit for bit.  A fold
    # never needs a part to return the bus to rest.
    loop = build_cphase(0, 1, 0.3)
    cut = len(loop.qubits) // 2
    first = GateSequence._of(2, loop.qubits[:cut], loop.betas[:cut])
    second = GateSequence._of(2, loop.qubits[cut:], loop.betas[cut:])
    for half in (first, second):
        with pytest.raises(EntangledBusError):
            effective_unitary(half)
    joined = GateSequence(2, first.instructions + second.instructions)
    assert np.max(np.abs(effective_unitary(joined) - effective_unitary(loop))) == 0.0


# ---------------------------------------------------------------------------
# Displacement runs composed from per-qubit running sums
# ---------------------------------------------------------------------------

def prefix_composition(signs: np.ndarray, qubits: list[int], betas: list[complex]):
    """Net displacement and phase of one run, row by row from per-row prefix sums.

    Row b moves the bus by d_i = s_q(b) beta_i in turn; the phase is
    sum_i Im(d_i conj(d_1 + ... + d_{i-1})).
    """
    dim, steps = signs.shape[0], len(betas)
    d = np.zeros((dim, steps + 1), dtype=complex)
    d[:, 1:] = signs[:, qubits] * np.array(betas, dtype=complex)
    prefix = np.cumsum(d, axis=1)
    terms = (d[:, 1:] * prefix[:, :-1].conj()).imag
    return prefix[:, -1], terms.sum(axis=1)


_beta = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                                  allow_infinity=False))


@st.composite
def displacement_runs(draw):
    """A register size and up to four runs; a run may close exactly by undoing itself."""
    n = draw(st.integers(1, 8))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        run = draw(st.lists(st.tuples(st.integers(0, n - 1), _beta), max_size=10))
        if run and draw(st.booleans()):
            run += [(q, -b) for q, b in draw(st.permutations(run))]
        runs.append(run)
    return n, runs


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=displacement_runs(), data=st.data())
def test_compose_runs_matches_row_by_row_composition(case, data):
    # Both oracles run across the whole concatenated sequence: the sums S
    # and the phases count from its start, cross terms between runs included.
    n, runs = case
    signs = z_signs(n)
    q = np.array([q for run in runs for q, _ in run], dtype=np.intp)
    beta = np.array([b for run in runs for _, b in run], dtype=complex)
    r = np.repeat(np.arange(len(runs)), [len(run) for run in runs])
    phi, sums = _compose_runs(n, len(runs), q, beta, r)
    alpha = signs @ sums.T                                            # (row, run)
    phase = np.cumsum(np.einsum("bq,rqp,bp->br", signs, phi, signs), axis=1)
    rows = sorted({0, 2**n - 1, *range(0, 2**n, max(1, 2**n // 8))})
    states = {b: init_state(n, format(b, f"0{n}b")) for b in rows}
    done = 0
    for j, run in enumerate(runs):
        done += len(run)
        ref_alpha, ref_phase = prefix_composition(signs, q[:done].tolist(), beta[:done].tolist())
        assert np.max(np.abs(alpha[:, j] - ref_alpha)) <= 1e-12
        assert np.max(np.abs(phase[:, j] - ref_phase)) <= 1e-12
        for b in rows:
            for qubit, amp in run:
                states[b] = apply_displacement(states[b], qubit, amp)
            assert abs(states[b].branches[0].alpha - alpha[b, j]) <= 1e-12
            assert abs(states[b].branches[0].coeff - np.exp(1j * phase[b, j])) <= 1e-12

    # The fold reads a run through the barriers inside it.
    run = runs[0]
    instructions = []
    for qubit, amp in run:
        instructions += [Barrier()] * data.draw(st.integers(0, 2)) + [Displace(qubit, amp)]
    c, a = _fold_columns(GateSequence(n, instructions + [Barrier()]), n)
    ref_alpha, ref_phase = prefix_composition(signs, [q for q, _ in run], [b for _, b in run])
    assert np.max(np.abs(np.diag(c) - np.exp(1j * ref_phase))) <= 1e-12
    assert np.max(np.abs(np.diag(a) - ref_alpha)) <= 1e-12
    assert np.array_equal(c, np.diag(np.diag(c)))


def fold_reference(seq: GateSequence, strict: bool = True):
    """(C, A, support) from executing each basis column, or None if any column
    warns and strict is set.  The branch simulator stays exact when it warns:
    a diagonal local on a qubit the bus is displaced on splits no branch."""
    n = seq.num_qubits
    c = np.zeros((2**n, 2**n), dtype=complex)
    a = np.zeros_like(c)
    support = np.zeros(c.shape, dtype=bool)
    for j in range(2**n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = execute(seq, init_state(n, format(j, f"0{n}b")))
        if strict and any(issubclass(w.category, EntangledBusWarning) for w in caught):
            return None
        for br in out.branches:
            b = int(br.basis, 2)
            assert not support[b, j], "two bus amplitudes on one row"
            c[b, j], a[b, j], support[b, j] = br.coeff, br.alpha, True
    return c, a, support


@st.composite
def loops_then_open_run(draw):
    """Closed loops and local gates, then an open run and a few more local gates.

    A gate followed by its inverse leaves rounding residues in C, which the
    fold thresholds at the end.
    """
    n = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)
    unitary = st.integers(0, 2**32 - 1).map(lambda s: haar_unitary_2(np.random.default_rng(s)))
    ins = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["loop", "local", "undo"]))
        if kind == "loop":
            run = draw(st.lists(st.tuples(qubit, _beta), min_size=1, max_size=6))
            ins += [Displace(q, b) for q, b in run]
            ins += [Displace(q, -b) for q, b in draw(st.permutations(run))]
        elif kind == "local":
            ins.append(Local(draw(qubit), draw(unitary)))
        else:
            q, u = draw(qubit), draw(unitary)
            ins += [Local(q, u), Local(q, u.conj().T)]
    # one displacement per qubit, so no two rows' bus amplitudes nearly agree
    late = draw(st.lists(st.tuples(qubit, st.complex_numbers(min_magnitude=0.01, max_magnitude=1.0)),
                         min_size=1, max_size=n, unique_by=lambda t: t[0]))
    ins += [Displace(q, b) for q, b in late]
    ins += [Local(draw(qubit), draw(unitary)) for _ in range(draw(st.integers(0, 3)))]
    return GateSequence(n, ins)


def displaced_local(seq: GateSequence) -> bool:
    """True when a non-diagonal local gate meets a qubit whose running beta
    sum exceeds MERGE_TOL / 2: the fold's rule for declining."""
    total = [0j] * seq.num_qubits
    for ins in seq.instructions:
        if isinstance(ins, Displace):
            total[ins.qubit] += ins.beta
        elif (isinstance(ins, Local) and (ins.u[0, 1] != 0 or ins.u[1, 0] != 0)
              and abs(total[ins.qubit]) > MERGE_TOL / 2):
            return True
    return False


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seq=loops_then_open_run())
def test_fold_matches_columns_or_declines_by_its_rule(seq):
    folded, ref = _fold_columns(seq, seq.num_qubits), fold_reference(seq)
    if ref is None:
        assert folded is None
    if folded is None:
        assert displaced_local(seq)
    else:
        (c, a), (c_ref, a_ref, support) = folded, ref
        assert not np.any((c != 0) & (np.abs(c) <= COEFF_DROP_TOL))
        assert np.max(np.abs(c - c_ref)) <= 1e-12
        assert np.max(np.abs(np.where(support, a - a_ref, 0))) <= 1e-12


def test_fold_thresholds_c_once_at_the_end():
    # U then its inverse leaves rounding residues at or below COEFF_DROP_TOL
    # off the diagonal, which the fold zeroes once, at the end.  C then has
    # no entry in (0, COEFF_DROP_TOL], as the branch simulator keeps no such
    # branch.  A gate on qubit 0 after the open run mixes rows whose bus
    # amplitudes differ by 0.6, so the fold declines it, even though each
    # pair has one supported row and the branch simulator runs it cleanly.
    u = haar_unitary_2(np.random.default_rng(439))
    undo = [Local(0, u), Local(0, u.conj().T)]
    assert 0 < np.abs((u.conj().T @ u)[0, 1]) <= COEFF_DROP_TOL
    open_run = [Displace(0, 0.3), Displace(1, 0.2j), Displace(1, -0.2j)]
    for tail in ([], open_run):
        seq = GateSequence(2, undo + tail)
        c, a = _fold_columns(seq, 2)
        c_ref, a_ref, support = fold_reference(seq)
        assert np.array_equal(c != 0, support)
        assert np.max(np.abs(c - c_ref)) <= 1e-12
        assert np.max(np.abs(np.where(support, a - a_ref, 0))) <= 1e-12
        assert not a.any() if not tail else np.max(np.abs(a)) == pytest.approx(0.3)
    seq = GateSequence(2, undo + open_run + [Local(0, HADAMARD)])
    assert _fold_columns(seq, 2) is None
    assert fold_reference(seq) is not None


# ---------------------------------------------------------------------------
# Fused locals and never-flipped qubits
# ---------------------------------------------------------------------------

def _diagonal(rng) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))


@st.composite
def fusable_sequences(draw):
    """Closed loops, barriers and local gates, then maybe an open run and more locals.

    The qubits in `flat` meet diagonal locals only, so the fold carries them
    as blocks; any other local is diagonal or Haar-random.  A loop between
    two locals on one of its qubits forbids fusing them unless the earlier
    one is diagonal; a barrier never does.
    """
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    flat = draw(st.sets(qubit, max_size=n))
    seed = st.integers(0, 2**32 - 1)

    def local(q):
        rng = np.random.default_rng(draw(seed))
        if q in flat or draw(st.booleans()):
            return Local(q, _diagonal(rng))
        return Local(q, haar_unitary_2(rng))

    def loop(run):
        return ([Displace(q, b) for q, b in run]
                + [Displace(q, -b) for q, b in draw(st.permutations(run))])

    ins = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["loop", "local", "sandwich", "barrier"]))
        if kind == "loop":
            ins += loop(draw(st.lists(st.tuples(qubit, _beta), min_size=1, max_size=4)))
        elif kind == "local":
            ins.append(local(draw(qubit)))
        elif kind == "sandwich":
            # two locals on q around a loop that displaces q
            q = draw(qubit)
            run = draw(st.lists(st.tuples(qubit, _beta), max_size=3))
            ins += [local(q), *loop([(q, draw(_beta)), *run]), local(q)]
        else:
            ins.append(Barrier())
    if draw(st.booleans()):
        late = draw(st.lists(st.tuples(qubit, st.complex_numbers(min_magnitude=0.01,
                                                                 max_magnitude=1.0)),
                             min_size=1, max_size=n, unique_by=lambda t: t[0]))
        ins += [Displace(q, b) for q, b in late]
        ins += [local(draw(st.sampled_from([q for q, _ in late])))
                for _ in range(draw(st.integers(1, 3)))]
    return GateSequence(n, ins), flat


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(case=fusable_sequences())
def test_fused_fold_matches_columns_or_declines_by_its_rule(case):
    seq, flat = case
    n = seq.num_qubits
    mixing, diagonal = _fuse_locals(seq)
    assert not flat & {q for _, q, _ in mixing}
    assert len(mixing) + len(diagonal) <= count_ops(seq)["local"]
    folded = _fold_columns(seq, n)
    assert (folded is None) == displaced_local(seq)
    if folded is not None:
        (c, a), (c_ref, a_ref, support) = folded, fold_reference(seq, strict=False)
        assert not np.any((c != 0) & (np.abs(c) <= COEFF_DROP_TOL))
        assert np.max(np.abs(c - c_ref)) <= 1e-12
        assert np.max(np.abs(np.where(support, a - a_ref, 0))) <= 1e-12


def test_fuse_locals_joins_only_what_commutes():
    rng = np.random.default_rng(467)
    u, v, d = haar_unitary_2(rng), haar_unitary_2(rng), _diagonal(rng)
    loop = [Displace(0, 0.3), Displace(1, 0.4j), Displace(0, -0.3), Displace(1, -0.4j)]

    def fused(ins):
        mixing, diagonal = _fuse_locals(GateSequence(2, ins))
        return [(cut, q) for cut, q, _ in mixing], [q for q, _ in diagonal]

    # A loop on the qubit between two locals keeps them apart; one on
    # another qubit, or a barrier, does not.
    assert fused([Local(0, u), *loop, Local(0, v)]) == ([(0, 0), (4, 0)], [])
    assert fused([Local(0, u), Displace(1, 0.2), Barrier(), Local(0, v)]) == ([(1, 0)], [])
    # A diagonal local commutes with the loop, so it joins the next local
    # on its qubit; the diagonal part left at the end is the qubit's last.
    assert fused([Local(0, d), *loop, Local(0, v), Local(1, d)]) == ([(4, 0)], [1])
    assert fused([Local(0, u), *loop, Local(0, d)]) == ([(0, 0)], [0])
    mixing, _ = _fuse_locals(GateSequence(2, [Local(0, d), *loop, Local(0, v), Local(0, u)]))
    assert np.max(np.abs(mixing[0][2] - u @ v @ d)) <= 1e-15
    # A mixing local on a displaced qubit declines, a diagonal one does not.
    open_run = [Displace(0, 0.3), Displace(1, 0.4j)]
    assert _fold_columns(GateSequence(2, [*open_run, Local(0, u)]), 2) is None
    c, a = _fold_columns(GateSequence(2, [*open_run, Local(0, d), Local(1, d)]), 2)
    c_ref, a_ref, support = fold_reference(GateSequence(2, [*open_run, Local(0, d), Local(1, d)]),
                                           strict=False)
    assert np.max(np.abs(c - c_ref)) <= 1e-12 and np.array_equal(c != 0, support)


def test_block_qubits_expand_to_a_block_diagonal_unitary():
    # Qubit 1 meets diagonal locals only, so the fold carries half the
    # columns and fills the other half with zeros at the end.
    rng = np.random.default_rng(479)
    loop = [Displace(0, 0.3), Displace(1, 0.4j), Displace(2, -0.2),
            Displace(2, 0.2), Displace(1, -0.4j), Displace(0, -0.3)]
    seq = GateSequence(3, [Local(0, haar_unitary_2(rng)), Local(1, _diagonal(rng)), *loop,
                           Local(2, haar_unitary_2(rng)), *loop, Local(1, _diagonal(rng)),
                           Local(0, haar_unitary_2(rng))])
    mixing, diagonal = _fuse_locals(seq)
    assert {q for _, q, _ in mixing} == {0, 2} and [q for q, _ in diagonal] == [1]
    u = effective_unitary(seq)
    assert np.max(np.abs(u - columns_reference(seq))) <= 1e-12
    bit = (np.arange(8) >> 1) & 1
    assert not u[bit[:, None] != bit[None, :]].any()
