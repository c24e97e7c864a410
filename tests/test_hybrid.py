"""Branch-simulator unit tests: state algebra, displacements, locals."""

import math
import warnings

import numpy as np
import pytest

from qubusim.hybrid import (
    _PAIR_BLOCK,
    COEFF_DROP_TOL,
    _check_unitary,
    MERGE_TOL,
    BranchTerm,
    EntangledBusError,
    HybridState,
    apply_displacement,
    apply_local,
    coherent_overlap,
    extract_qubit_vector,
    init_state,
    inner_product,
    is_bus_disentangled,
    merge_branches,
    norm,
    state_from_vector,
    to_debug_json,
)
from qubusim.sequence import Displace, GateSequence, Local, _fold_columns

from oracles import H2, haar_unitary_2


def test_init_state_basics():
    s = init_state(2, "00")
    assert len(s.branches) == 1
    assert s.branches[0].coeff == 1.0
    assert s.branches[0].alpha == 0j

    s = init_state(1, "1")
    assert s.branches[0].basis == "1"
    assert abs(norm(s) - 1.0) < 1e-12

    s = init_state(3, "010")
    assert abs(norm(s) - 1.0) < 1e-12


def test_init_state_rejects_bad_basis():
    with pytest.raises(ValueError):
        init_state(2, "000")
    with pytest.raises(ValueError):
        init_state(2, "0x")
    with pytest.raises(ValueError):
        init_state(0, "")


def test_displacement_on_vacuum():
    s = apply_displacement(init_state(1, "0"), 0, 0.5)
    assert abs(s.branches[0].alpha - 0.5) < 1e-15
    assert abs(s.branches[0].coeff - 1.0) < 1e-15  # vacuum: no phase

    s = apply_displacement(init_state(1, "1"), 0, 0.5)
    assert abs(s.branches[0].alpha + 0.5) < 1e-15


def test_displacement_composition_rule():
    # D(a)D(b) = exp((a conj(b) - conj(a) b)/2) D(a+b) on a fixed branch,
    # checked for 1000 random pairs.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        s = init_state(1, "0")
        s = apply_displacement(s, 0, b)
        s = apply_displacement(s, 0, a)
        direct = apply_displacement(init_state(1, "0"), 0, a + b)
        scalar = np.exp((a * np.conj(b) - np.conj(a) * b) / 2.0)
        got = s.branches[0]
        want_alpha = direct.branches[0].alpha
        assert abs(got.alpha - want_alpha) < 1e-12
        assert abs(got.coeff - scalar * direct.branches[0].coeff) < 1e-12


def test_same_quadrature_displacements_accumulate_no_phase():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x1, x2 = rng.normal(size=2)
        s = init_state(1, "0")
        s = apply_displacement(s, 0, x1)
        s = apply_displacement(s, 0, x2)
        assert abs(s.branches[0].coeff.imag) < 1e-14
        assert s.branches[0].coeff.real > 0
        s = init_state(1, "1")
        s = apply_displacement(s, 0, 1j * x1)
        s = apply_displacement(s, 0, 1j * x2)
        assert abs(s.branches[0].coeff - 1.0) < 1e-14


def test_apply_local_identity_and_hadamard():
    s = init_state(2, "00")
    assert len(apply_local(s, 0, np.eye(2)).branches) == 1

    s = apply_local(init_state(1, "0"), 0, H2)
    assert len(s.branches) == 2
    assert abs(norm(s) - 1.0) < 1e-12
    # H twice returns to a single branch (cancellation removes the other)
    s = apply_local(s, 0, H2)
    assert len(s.branches) == 1
    assert s.branches[0].basis == "0"


def test_apply_local_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_local(init_state(1, "0"), 0, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_local_rejects_nan_matrix():
    with pytest.raises(ValueError):
        Local(0, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _unitarity_defect(u):
    """max |u^dagger u - 1|, the definition _check_unitary tests."""
    return np.max(np.abs(u.conj().T @ u - np.eye(2)))


def test_check_unitary_matches_numpy_definition():
    rng = np.random.default_rng(43)
    verdicts = set()
    for _ in range(300):
        u = haar_unitary_2(rng)
        assert np.array_equal(_check_unitary(u), u)
        size = 10.0 ** rng.uniform(-14, -11)
        v = u + size * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        defect = _unitarity_defect(v)
        if abs(defect - 1e-12) < 1e-14:
            continue  # within rounding of the tolerance
        accepted = defect <= 1e-12
        verdicts.add(accepted)
        if accepted:
            _check_unitary(v)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                _check_unitary(v)
    assert verdicts == {True, False}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                   complex(np.nan, 1.0), 1.5e308])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_check_unitary_rejects_non_finite_entries(entry, value):
    u = H2.copy()
    u[entry] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(u)


@pytest.mark.parametrize("shape", [(1, 1), (2,), (4,), (3, 3), (2, 2, 1), (1, 2, 2)])
def test_check_unitary_rejects_non_2x2_shapes(shape):
    with pytest.raises(ValueError, match="2x2"):
        _check_unitary(np.eye(4, dtype=complex).reshape(-1)[: math.prod(shape)].reshape(shape))


def test_local_while_bus_entangled_preserves_norm():
    s = init_state(2, "00")
    s = apply_local(s, 0, H2)
    s = apply_displacement(s, 0, 0.7)       # bus now correlated with qubit 0
    s = apply_local(s, 0, H2)                # branch count may grow
    assert abs(norm(s) - 1.0) < 1e-10
    assert not is_bus_disentangled(s, 1e-9)


def test_inner_product_coherent_overlap():
    v = init_state(1, "0")
    assert abs(inner_product(v, v) - 1.0) < 1e-14
    d = apply_displacement(v, 0, 1.0)
    # <0|alpha=1> = exp(-1/2)
    assert abs(inner_product(v, d) - math.exp(-0.5)) < 1e-14
    assert abs(coherent_overlap(0, 1) - math.exp(-0.5)) < 1e-15


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError):
        inner_product(init_state(1, "0"), init_state(2, "00"))


def test_merge_branches_sums_and_cancels():
    s = init_state(1, "0")
    s.branches.append(s.branches[0].__class__("0", 0j, 0.5 + 0j))
    s.branches[0].coeff = 0.5 + 0j
    merged = merge_branches(s)
    assert len(merged.branches) == 1
    assert abs(merged.branches[0].coeff - 1.0) < 1e-14

    s = init_state(1, "0")
    s.branches.append(s.branches[0].__class__("0", 0j, -1.0 + 0j))
    merged = merge_branches(s)
    assert merged.branches == []


def test_merge_preserves_inner_products():
    rng = np.random.default_rng(5)
    s = init_state(2, "00")
    s = apply_local(s, 0, H2)
    s = apply_displacement(s, 1, 0.3 + 0.2j)
    s = apply_local(s, 1, H2)
    probe = apply_displacement(init_state(2, "10"), 0, 0.1)
    before = inner_product(probe, s)
    after = inner_product(probe, merge_branches(s))
    assert abs(before - after) < 1e-12
    assert abs(norm(s) - norm(merge_branches(s))) < 1e-12


def test_extract_qubit_vector():
    vec = extract_qubit_vector(init_state(2, "01"))
    assert np.allclose(vec, [0, 1, 0, 0])

    entangled = apply_displacement(apply_local(init_state(1, "0"), 0, H2), 0, 1.0)
    with pytest.raises(EntangledBusError):
        extract_qubit_vector(entangled)


def test_extract_phase_convention():
    s = state_from_vector(np.array([0.6 * np.exp(0.3j), 0.8 * np.exp(0.3j)]), 1)
    vec = extract_qubit_vector(s)
    assert vec[1].imag == pytest.approx(0.0, abs=1e-12)
    assert vec[1].real > 0


def test_is_bus_disentangled_fresh_state():
    assert is_bus_disentangled(init_state(3, "010"))


def test_diagonal_fast_path_matches_branch_simulation():
    # The diagonal fast path is the displacement-run fold of
    # effective_unitary.  Open runs leave a bus amplitude that depends on the
    # input basis, so the fold's per-row phases and amplitudes are checked
    # against apply_displacement basis by basis.
    rng = np.random.default_rng(17)
    cases = [(3, 10)] * 20 + [(6, 14)] * 2
    for n, n_ops in cases:
        instrs = [Displace(int(rng.integers(n)), complex(rng.normal(), rng.normal()) * 0.4)
                  for _ in range(n_ops)]
        c, a = _fold_columns(GateSequence(n, instrs), n)
        assert np.array_equal(c, np.diag(np.diag(c)))
        alphas = []
        for idx in range(2**n):
            s = init_state(n, format(idx, f"0{n}b"))
            for ins in instrs:
                s = apply_displacement(s, ins.qubit, ins.beta)
            br = s.branches[0]
            alphas.append(br.alpha)
            assert abs(a[idx, idx] - br.alpha) < 1e-10
            assert abs(c[idx, idx] - br.coeff) < 1e-10
        assert max(abs(x - alphas[0]) for x in alphas) > 0.1


def test_diagonal_fast_path_empty_and_errors():
    c, a = _fold_columns(GateSequence(2, []), 2)
    assert np.array_equal(c, np.eye(4)) and not a.any()
    with pytest.raises(ValueError, match="finite"):
        _fold_columns(GateSequence(1, [Displace(0, complex(np.inf, 0.0))]), 1)
    seq = GateSequence(2, [Displace(1, 0.1)])
    with pytest.raises(IndexError):
        _fold_columns(seq, 1)


def test_debug_json_roundtrip_fields():
    s = apply_displacement(init_state(2, "10"), 0, 0.25 + 0.5j)
    doc = to_debug_json(s)
    assert doc["num_qubits"] == 2
    assert doc["branches"][0]["basis"] == "10"
    assert doc["branches"][0]["alpha"] == [-0.25, -0.5]


# ---------------------------------------------------------------------------
# inner_product and merge_branches against the plain loops they replace
# ---------------------------------------------------------------------------

def _inner_product_double_loop(s1, s2):
    total = 0j
    for b1 in s1.branches:
        for b2 in s2.branches:
            if b1.basis == b2.basis:
                total += np.conj(b1.coeff) * b2.coeff * coherent_overlap(b1.alpha, b2.alpha)
    return total


def _merge_all_clusters(s, tol=MERGE_TOL):
    """merge_branches as a scan of every cluster of the basis for each term."""
    groups = {}
    for br in s.branches:
        groups.setdefault(br.basis, []).append(br)
    out = []
    for basis, terms in groups.items():
        clusters = []
        for t in sorted(terms, key=lambda b: (b.alpha.real, b.alpha.imag)):
            for c in clusters:
                if abs(t.alpha - c.alpha) <= tol:
                    c.coeff += t.coeff
                    break
            else:
                clusters.append(BranchTerm(basis, t.alpha, t.coeff))
        out.extend(c for c in clusters if abs(c.coeff) > COEFF_DROP_TOL)
    return HybridState(s.num_qubits, out)


def _split(s, qubit, u):
    """The branches apply_local produces before it merges them."""
    out = []
    for br in s.branches:
        for new_bit in (0, 1):
            basis = br.basis[:qubit] + str(new_bit) + br.basis[qubit + 1:]
            out.append(BranchTerm(basis, br.alpha, br.coeff * u[new_bit, int(br.basis[qubit])]))
    return HybridState(s.num_qubits, out)


def _criterion10_run(rng, n, n_ops):
    """States along a random sequence drawn as in acceptance criterion 10,
    plus the unmerged split of every local gate."""
    s = init_state(n, "".join(rng.choice(["0", "1"]) for _ in range(n)))
    states, splits = [], []
    for _ in range(n_ops):
        qb = int(rng.integers(n))
        if rng.random() < 0.6:
            s = apply_displacement(s, qb, rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        else:
            u = haar_unitary_2(rng)
            splits.append(_split(s, qb, u))
            s = apply_local(s, qb, u)
        states.append(s)
    return states, splits


def _random_state(rng, n, bases, count, scale=1.0):
    branches = [BranchTerm(str(rng.choice(bases)), complex(*rng.normal(size=2)) * scale,
                           complex(*rng.normal(size=2)) / math.sqrt(count))
                for _ in range(count)]
    return HybridState(n, branches)


def _same_branches(got, want, coeff_tol):
    assert [(b.basis, b.alpha) for b in got.branches] == [(b.basis, b.alpha) for b in want.branches]
    for g, w in zip(got.branches, want.branches):
        assert abs(g.coeff - w.coeff) <= coeff_tol


def test_inner_product_matches_double_loop_on_entangled_states():
    rng = np.random.default_rng(1010)
    finals = {1: [], 2: [], 3: []}
    for trial in range(18):
        n = 1 + trial % 3
        states, _ = _criterion10_run(rng, n, int(rng.integers(10, 25)))
        finals[n].append(states[-1])
        for s in states[::6] + states[-1:]:
            assert abs(inner_product(s, s) - _inner_product_double_loop(s, s)) <= 1e-12
    for group in finals.values():
        for s1, s2 in zip(group, group[1:] + group[:1]):
            assert abs(inner_product(s1, s2) - _inner_product_double_loop(s1, s2)) <= 1e-12
            assert abs(inner_product(s2, s1) - _inner_product_double_loop(s2, s1)) <= 1e-12


def test_inner_product_basis_in_one_state_only():
    rng = np.random.default_rng(31)
    s1 = _random_state(rng, 2, ["00", "01"], 6)
    s2 = _random_state(rng, 2, ["10", "11"], 6)
    assert inner_product(s1, s2) == 0
    assert inner_product(s2, s1) == 0
    s3 = _random_state(rng, 2, ["01", "11"], 9)
    for a, b in ((s1, s3), (s3, s1), (s2, s3), (s3, s2)):
        assert abs(inner_product(a, b) - _inner_product_double_loop(a, b)) <= 1e-12


def test_inner_product_of_empty_state():
    empty = HybridState(2, [])
    s = apply_local(init_state(2, "01"), 1, H2)
    assert inner_product(empty, empty) == 0
    assert inner_product(empty, s) == 0
    assert inner_product(s, empty) == 0
    assert norm(empty) == 0.0


def test_inner_product_over_several_pair_blocks():
    rng = np.random.default_rng(37)
    # One basis with 3x more equal-basis pairs than a block holds, plus a
    # second basis; the blocks then split the rows of s1.
    m = 2 * int(math.isqrt(_PAIR_BLOCK))
    big = _random_state(rng, 2, ["10"], m, scale=0.5)
    big.branches += _random_state(rng, 2, ["01"], m // 4, scale=0.5).branches
    rng.shuffle(big.branches)
    other = _random_state(rng, 2, ["10", "01", "11"], m, scale=0.5)
    for s1, s2 in ((big, big), (big, other), (other, big)):
        assert abs(inner_product(s1, s2) - _inner_product_double_loop(s1, s2)) <= 1e-12
    # Branches of s1 whose run in s2 is longer than a block, alone and
    # followed by shorter ones.
    row = _random_state(rng, 1, ["1"], 1)
    rows = HybridState(1, row.branches + _random_state(rng, 1, ["0", "1"], 4).branches)
    long_run = _random_state(rng, 1, ["0", "1"], 2 * _PAIR_BLOCK + 3, scale=0.5)
    for s1, s2 in ((row, long_run), (long_run, row), (rows, long_run)):
        assert abs(inner_product(s1, s2) - _inner_product_double_loop(s1, s2)) <= 1e-12


def _near_tie_states():
    """Branch lists whose alphas tie within MERGE_TOL out of (Re, Im) order:
    a third alpha sorts between two that merge."""
    tol = MERGE_TOL
    yield HybridState(1, [BranchTerm("0", complex(0.2, 0.1), 1.0),
                          BranchTerm("0", complex(0.2 + 0.3 * tol, 5.0), 0.5j),
                          BranchTerm("0", complex(0.2 + 0.6 * tol, 0.1), -0.25)])
    # Momentum-only amplitudes whose real parts are rounding noise.
    rng = np.random.default_rng(41)
    branches = []
    for k in range(40):
        im = 0.1 * (k % 10)
        branches.append(BranchTerm(format(k % 4, "02b"), complex(rng.choice([-1e-17, 0.0, 1e-17]), im),
                                   complex(*rng.normal(size=2))))
    yield HybridState(2, branches)


def test_merge_branches_matches_all_clusters_scan():
    rng = np.random.default_rng(1011)
    inputs = list(_near_tie_states())
    for trial in range(30):
        _, splits = _criterion10_run(rng, 1 + trial % 3, int(rng.integers(5, 26)))
        inputs += splits
    for s in inputs:
        before = [(b.basis, b.alpha, b.coeff) for b in s.branches]
        got = merge_branches(s)
        _same_branches(got, _merge_all_clusters(s), 1e-14)
        assert [(b.basis, b.alpha, b.coeff) for b in s.branches] == before


def test_merge_branches_is_idempotent():
    rng = np.random.default_rng(1013)
    inputs = list(_near_tie_states())
    for trial in range(30):
        states, splits = _criterion10_run(rng, 1 + trial % 3, int(rng.integers(5, 26)))
        inputs += splits + states[-1:]
    for s in inputs:
        once = merge_branches(s)
        _same_branches(merge_branches(once), once, 0.0)
