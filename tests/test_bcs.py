"""Pairing-model assembly, spectra, sectors, evolution."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubusim.bcs import (
    BCSModel,
    CouplingMatrix,
    SectorUnavailableError,
    energy_gap,
    exact_evolution,
    exact_spectrum,
    hamiltonian_matrix,
    model_from_json,
    model_to_json,
    sector_indices,
)

from oracles import embed, random_dense_coupling, SX, SY, SZ


def two_mode_model(eps=1.0, v=0.5, r=1.0):
    vm = np.zeros((2, 2))
    vm[0, 1] = vm[1, 0] = v
    return BCSModel(2, 1, np.array([eps, eps]), CouplingMatrix(2, vm), r=r)


def test_single_mode_hamiltonian():
    m = BCSModel(1, 0, np.array([2.0]), CouplingMatrix(1, np.zeros((1, 1))))
    assert np.allclose(hamiltonian_matrix(m), np.diag([1.0, -1.0]))


def test_two_mode_spectrum_by_hand():
    # eps/2 (Z1+Z2) + V/2 (XX+YY): eigenvalues {eps, -eps, V, -V}
    m = two_mode_model(eps=1.3, v=0.4)
    w = exact_spectrum(m).eigenvalues
    assert np.allclose(np.sort(w), np.sort([1.3, -1.3, 0.4, -0.4]), atol=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.7])
def test_hamiltonian_matches_pauli_sum_oracle(r):
    # H written out term by term as the Pauli sum of the module docstring,
    # with every pair (a, b) where a + b is a multiple of 3 uncoupled
    rng = np.random.default_rng(193)
    for n in range(1, 7):
        v = random_dense_coupling(n, rng)
        for a in range(n):
            for b in range(a + 1, n):
                if (a + b) % 3 == 0:
                    v[a, b] = v[b, a] = 0.0
        eps = rng.normal(size=n)
        want = sum(eps[q] / 2 * embed(SZ, q, n) for q in range(n))
        for a in range(n):
            for b in range(a + 1, n):
                want = want + v[a, b] / 2 * (embed(SX, a, n) @ embed(SX, b, n)
                                             + r * embed(SY, a, n) @ embed(SY, b, n))
        h = hamiltonian_matrix(BCSModel(n, 0, eps, CouplingMatrix(n, v), r=r))
        assert np.max(np.abs(h - want)) <= 1e-12


def test_hermiticity_random_models():
    rng = np.random.default_rng(179)
    for n in (2, 3, 4):
        m = BCSModel(n, 1, rng.normal(size=n),
                     CouplingMatrix(n, random_dense_coupling(n, rng)),
                     r=rng.uniform(0.0, 2.0))
        h = hamiltonian_matrix(m)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_excitation_conservation_iff_isotropic():
    rng = np.random.default_rng(181)
    n = 3
    v = CouplingMatrix(n, random_dense_coupling(n, rng))
    total_z = sum(embed(SZ, q, n) for q in range(n))
    h1 = hamiltonian_matrix(BCSModel(n, 1, rng.normal(size=n), v, r=1.0))
    assert np.max(np.abs(h1 @ total_z - total_z @ h1)) < 1e-12
    h2 = hamiltonian_matrix(BCSModel(n, 1, rng.normal(size=n), v, r=0.5))
    assert np.max(np.abs(h2 @ total_z - total_z @ h2)) > 1e-6


def test_sector_spectrum_and_gap():
    m = two_mode_model(eps=1.0, v=0.5)
    spec = exact_spectrum(m, sector=1)
    assert np.allclose(spec.eigenvalues, [-0.5, 0.5], atol=1e-12)
    assert energy_gap(m, sector=1) == pytest.approx(1.0, abs=1e-12)


def test_sector_requires_isotropic_coupling():
    m = two_mode_model(r=0.7)
    with pytest.raises(SectorUnavailableError):
        exact_spectrum(m, sector=1)


def test_sector_indices():
    assert list(sector_indices(3, 1)) == [1, 2, 4]
    assert list(sector_indices(2, 0)) == [0]


def test_no_coupling_eigenvalues_are_half_sums():
    eps = np.array([0.7, 1.9, -0.4])
    m = BCSModel(3, 1, eps, CouplingMatrix(3, np.zeros((3, 3))))
    w = np.sort(exact_spectrum(m).eigenvalues)
    want = []
    for idx in range(8):
        signs = [1 - 2 * ((idx >> (2 - q)) & 1) for q in range(3)]
        want.append(0.5 * np.dot(eps, signs))
    assert np.allclose(w, np.sort(want), atol=1e-12)


def test_degenerate_gap_is_zero():
    m = two_mode_model(eps=1.0, v=0.0)
    assert energy_gap(m, sector=1) == pytest.approx(0.0, abs=1e-12)


def test_eigen_residuals():
    rng = np.random.default_rng(191)
    m = BCSModel(3, 1, rng.normal(size=3),
                 CouplingMatrix(3, random_dense_coupling(3, rng)))
    h = hamiltonian_matrix(m)
    spec = exact_spectrum(m)
    res = h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.max(np.abs(res)) < 1e-9


def test_spectrum_invariant_under_mode_permutation():
    rng = np.random.default_rng(193)
    n = 4
    eps = rng.normal(size=n)
    v = random_dense_coupling(n, rng)
    perm = rng.permutation(n)
    w1 = exact_spectrum(BCSModel(n, 1, eps, CouplingMatrix(n, v))).eigenvalues
    w2 = exact_spectrum(BCSModel(n, 1, eps[perm],
                                 CouplingMatrix(n, v[np.ix_(perm, perm)]))).eigenvalues
    assert np.allclose(np.sort(w1), np.sort(w2), atol=1e-10)


def test_gap_continuity_under_small_perturbation():
    rng = np.random.default_rng(197)
    m = two_mode_model(eps=1.0, v=0.5)
    v2 = m.v.v.copy()
    v2[0, 1] = v2[1, 0] = 0.5 + 1e-6
    m2 = BCSModel(2, 1, m.eps, CouplingMatrix(2, v2))
    assert abs(energy_gap(m, 1) - energy_gap(m2, 1)) < 1e-4


def test_exact_evolution_properties():
    rng = np.random.default_rng(199)
    m = BCSModel(2, 1, rng.normal(size=2),
                 CouplingMatrix(2, random_dense_coupling(2, rng)))
    assert np.allclose(exact_evolution(m, 0.0), np.eye(4), atol=1e-12)
    u1 = exact_evolution(m, 0.3)
    u2 = exact_evolution(m, 0.5)
    assert np.max(np.abs(u1 @ u2 - exact_evolution(m, 0.8))) < 1e-9
    # short-time series: U ~ 1 - iHt
    h = hamiltonian_matrix(m)
    t = 1e-4
    assert np.max(np.abs(exact_evolution(m, t) - (np.eye(4) - 1j * h * t))) < 5e-8


def test_model_json_roundtrip():
    m = two_mode_model(eps=1.0, v=0.5, r=0.9)
    doc = model_to_json(m)
    m2 = model_from_json(doc)
    assert m2.n_modes == 2 and m2.n_excitations == 1
    assert np.allclose(m2.eps, m.eps)
    assert np.allclose(m2.v.v, m.v.v)
    assert m2.r == pytest.approx(0.9)


@st.composite
def models(draw):
    n = draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    eps = draw(st.lists(finite, min_size=n, max_size=n))
    v = np.zeros((n, n))
    v[np.triu_indices(n, 1)] = draw(st.lists(finite, min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    return BCSModel(n, draw(st.integers(0, n)), np.array(eps), CouplingMatrix(n, v + v.T),
                    r=draw(finite))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(m=models())
def test_model_json_roundtrip_property(m):
    doc = model_to_json(m)
    m2 = model_from_json(json.loads(json.dumps(doc)))
    assert (m2.n_modes, m2.n_excitations, m2.r) == (m.n_modes, m.n_excitations, m.r)
    assert np.array_equal(m2.eps, m.eps)
    assert np.array_equal(m2.v.v, m.v.v)
    assert model_to_json(m2) == doc


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        CouplingMatrix(2, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        CouplingMatrix(2, np.array([[1.0, 0.5], [0.5, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coupling_matrix_rejects_non_finite(bad, tmp_path):
    with pytest.raises(ValueError, match="finite"):
        CouplingMatrix(2, np.array([[0.0, bad], [bad, 0.0]]))

    from qubusim.bcs import load_model

    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"N": 2, "n": 1, "eps": [1.0, 1.0], "V": [[0.0, bad], [bad, 0.0]], "r": 1.0}))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    with pytest.raises(ValueError, match="finite"):
        load_model(path)


def test_scaled_coupling_checks_finiteness_only():
    rng = np.random.default_rng(487)
    base = CouplingMatrix(5, random_dense_coupling(5, rng))
    for factor in (-0.37, 0.0, 2.5e7, -1e-300):
        out = base.scaled(factor)
        assert out.n == 5 and np.array_equal(out.v, base.v * factor)
        assert out.v.tobytes() == (base.v * factor).tobytes()
    for factor in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^coupling matrix entries must be finite$"):
            base.scaled(factor)
    huge = CouplingMatrix(2, np.array([[0.0, 1e300], [1e300, 0.0]]))
    with pytest.raises(ValueError, match="^coupling matrix entries must be finite$"):
        huge.scaled(1e10)


def test_spectrum_csv_format():
    from qubusim.bcs import exact_spectrum, spectrum_to_csv

    m = two_mode_model(eps=1.0, v=0.5)
    text = spectrum_to_csv(exact_spectrum(m, sector=1))
    lines = text.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert lines[1] == "0,-0.5"
    assert lines[2] == "1,0.5"


def test_model_keeps_read_only_copies_of_its_arrays():
    eps, v = np.array([1.0, 1.5]), np.array([[0.0, 0.5], [0.5, 0.0]])
    m = BCSModel(2, 1, eps, CouplingMatrix(2, v))
    eps[0] = v[0, 1] = v[1, 0] = 9.0
    assert m.eps[0] == 1.0 and m.v.v[0, 1] == 0.5
    for arr in (m.eps, m.v.v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0


def test_spectra_are_memoized_per_sector_and_read_only(monkeypatch):
    import qubusim.bcs as bcs

    builds = []
    build = bcs.hamiltonian_matrix
    monkeypatch.setattr(bcs, "hamiltonian_matrix", lambda m: builds.append(m) or build(m))
    m = two_mode_model()
    full, sector = exact_spectrum(m), exact_spectrum(m, 1)
    assert exact_spectrum(m) is full and exact_spectrum(m, 1) is sector
    assert len(builds) == 1
    for arr in (full.eigenvalues, full.eigenvectors, sector.basis_indices):
        assert not arr.flags.writeable
    with pytest.raises(AttributeError):
        full.eigenvalues = np.zeros(4)
    # a second instance of the same model is diagonalized afresh
    assert exact_spectrum(two_mode_model()) is not full
    assert len(builds) == 2
    # the evolution reads the memoized decomposition
    w, vecs = np.linalg.eigh(build(m))
    assert np.array_equal(exact_evolution(m, 0.3), (vecs * np.exp(-0.3j * w)) @ vecs.conj().T)
    assert len(builds) == 2


def test_one_gap_call_builds_h_once_and_diagonalizes_at_most_twice(tmp_path, monkeypatch):
    import qubusim.bcs as bcs
    from qubusim.cli import main

    builds, eighs = [], []
    build, eigh = bcs.hamiltonian_matrix, np.linalg.eigh
    monkeypatch.setattr(bcs, "hamiltonian_matrix", lambda m: builds.append(m) or build(m))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    rng = np.random.default_rng(433)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_json(
        BCSModel(4, 2, rng.uniform(0.5, 2.0, 4), CouplingMatrix(4, random_dense_coupling(4, rng))))))
    assert main(["gap", "--model", str(path), "--k", "4", "--out", str(tmp_path / "gap.txt")]) == 0
    assert len(builds) == 1
    assert eighs == [(16, 16), (6, 6)]
