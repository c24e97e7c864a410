"""Pinned outputs of every builder: sha256 of each displacement stream.

A stream is the (qubit, beta) pairs of a sequence's Displace instructions in
order, packed as little-endian int64 and complex128, so a changed bit of any
amplitude (signed zeros included) or a reordered instruction changes the
digest.  The amplitudes come from IEEE-exact arithmetic and sqrt only, so
the digests hold on any conforming platform; local matrices go through
np.exp and are checked against their targets by the unitary tests instead.
The digests were recorded from the builders before they read couplings as
Python rows; a rewrite of a builder must reproduce them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from qubusim.bcs import BCSModel, CouplingMatrix, energy_gap, exact_spectrum, save_model
from qubusim.builders import (
    STRATEGY_NAMES,
    InfeasibleStrategyError,
    Limited,
    NotProductFormError,
    QftMode,
    build_qft,
    build_uzz,
    decompose_limited,
    make_controlled,
    strategy_from_name,
    trotter_factors,
)
from qubusim.cli import main
from qubusim.resources import verify_counts
from qubusim.sequence import Displace

from oracles import banded_coupling, product_coupling, random_dense_coupling


def _stream(seqs) -> bytes:
    ds = [ins for seq in seqs for ins in seq.instructions if isinstance(ins, Displace)]
    return (np.array([d.qubit for d in ds], dtype="<i8").tobytes()
            + np.array([complex(d.beta) for d in ds], dtype="<c16").tobytes())


def _digest(seqs) -> str:
    return hashlib.sha256(_stream(seqs)).hexdigest()


def _sparse(v: np.ndarray, rng) -> np.ndarray:
    """v with about a third of its pairs zeroed (chains skip and restart)."""
    keep = np.triu(rng.uniform(size=v.shape) > 0.35, 1)
    return np.where(keep | keep.T, v, 0.0)


def _uzz_inputs(name: str, n: int, rng) -> list:
    """(coupling, strategy) pairs for one schedule at one size."""
    if name == "limited":
        return [(CouplingMatrix(n, product_coupling(n, decay)), Limited())
                for decay in (1.0, 0.4)]
    if name == "fixed-range":
        return [(CouplingMatrix(n, banded_coupling(n, p, rng)), strategy_from_name(name, p))
                for p in range(1, n)]
    dense = random_dense_coupling(n, rng)
    # x40 pushes partners past the default beta bound: rebalanced amplitudes.
    return [(CouplingMatrix(n, v), strategy_from_name(name))
            for v in (dense, _sparse(dense, rng), 40.0 * dense)]


UZZ_PINS = {
    "naive":
        "feff8b150e427c6f8a0edf457e6fc9937faa84afe1c7909281255b6ef6b666f3",
    "stepwise":
        "c0601231692fc9b7157f85c07b7c3060e4cb8ac769a1ec8fb8aa238da444390f",
    "carryover":
        "781969ef00c9b499c960e705da5aaf0ca8299604b40f1596d0373e221a59b1fa",
    "limited":
        "ec1dfb2a33be385d509508a41960fdcd13588682e6dbac10c69c06f92834969e",
    "fixed-range":
        "857b28d2d6c7361308a4bfdebefaa8da2877b8709f487674d2621157fa9e52da",
}

UZZ_N60_PINS = {
    "naive":
        "24f198c243b936166a1dd4773a12bbab2bd8ac9506b417b11fe8435c61b13144",
    "stepwise":
        "a23c9f9d5d3c2898d7aa94ad5a266251cfc3d6c8b850d63720572ea4d758440a",
    "carryover":
        "0af39c8cbad99f25fbf0856c055acf1bfcdb78c9e864ad49bd0177548ff478ff",
    "limited":
        "7a061b47a9b1a2db694019023f1d0b969b4446b1fb3ba64dd0756999c7f3ac57",
    "fixed-range":
        "8278afc2da47d2a839d37e4e5198dcbee3413e4c70f799dc6fc66bdf7e20458b",
}


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_uzz_streams_are_pinned(name):
    rng = np.random.default_rng(1111)
    seqs = [build_uzz(v, s) for n in range(2, 13) for v, s in _uzz_inputs(name, n, rng)]
    assert _digest(seqs) == UZZ_PINS[name]


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_uzz_n60_streams_are_pinned(name):
    rng = np.random.default_rng(1160)
    n = 60
    if name == "limited":
        v, s = CouplingMatrix(n, product_coupling(n, 0.1)), Limited()
    elif name == "fixed-range":
        v, s = CouplingMatrix(n, banded_coupling(n, 4, rng)), strategy_from_name(name, 4)
    else:
        v, s = CouplingMatrix(n, random_dense_coupling(n, rng)), strategy_from_name(name)
    assert _digest([build_uzz(v, s)]) == UZZ_N60_PINS[name]


# The axis adds basis-change locals only, so every axis has the same stream.
CONTROLLED_PIN = "50044f8de48d765aa15a8a12405295436f3cfa4d08edb92c81ffd526173ae52d"


@pytest.mark.parametrize("axis", ["z", "x", "y"])
def test_make_controlled_streams_are_pinned(axis):
    rng = np.random.default_rng(1212)
    seqs = []
    for n in range(2, 9):
        dense = random_dense_coupling(n, rng)
        for v in (dense, _sparse(dense, rng), 40.0 * dense):
            for ancilla in (0, n):
                seqs.append(make_controlled(CouplingMatrix(n, v), ancilla, axis))
    assert _digest(seqs) == CONTROLLED_PIN


def test_qft_streams_are_pinned():
    seqs = [build_qft(k, QftMode(measurement_ready, forward))
            for k in range(1, 7) for measurement_ready in (True, False)
            for forward in (True, False)]
    assert _digest(seqs) == (
        "b1f48ff7e672d0dc770b292699c276b1d5ea141fd0992c3ac1177dbbde812704")


TROTTER_PINS = {
    (1, None): "0cb732cba4b2fe63e50fcf7baed5a16a1b5cc6c514bd320fdd980040ddd08250",
    (1, 0): "a622585fa5c5c557cb23c90e376d8e957d9177ab96b426d53a125b022821099c",
    (2, None): "14e813351037e8864773e6feffc223ba90a64b47face11a36ad387865f00fadf",
    (2, 0): "2c21a3274d92f48400cb9c9efcf753df83e5b3af5455eb30d8f499154cf1a6de",
}


@pytest.mark.parametrize("order,controlled", list(TROTTER_PINS))
def test_trotter_factor_streams_are_pinned(order, controlled):
    rng = np.random.default_rng(1313)
    seqs = []
    for n in range(2, 7):
        eps = rng.uniform(0.5, 1.5, size=n)
        for v in (random_dense_coupling(n, rng), product_coupling(n)):
            model = BCSModel(n, n // 2, eps, CouplingMatrix(n, v), r=0.8)
            seqs += trotter_factors(model, 0.3, order, controlled)
    assert _digest(seqs) == TROTTER_PINS[order, controlled]


def test_verify_counts_csv_is_pinned():
    csv = verify_counts().to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "74feef1fa5f92f28bca10a744cb42fe8ed7a11665856c2ade09e9a7ccbff6f01")


def test_product_form_errors_name_the_first_violated_entry():
    v = product_coupling(5)
    v[1, 3] = v[3, 1] = 0.5
    v[2, 4] = v[4, 2] = 0.25
    with pytest.raises(NotProductFormError) as err:
        decompose_limited(CouplingMatrix(5, v))
    assert str(err.value) == ("couplings are not product-structured: V[1,3]=0.5 "
                              "but row/column constants give 0.1353352832366127")
    a, b = decompose_limited(CouplingMatrix(5, product_coupling(5)))
    with pytest.raises(NotProductFormError, match=r"^supplied constants do not "
                       r"reproduce V\[1,3\]$"):
        build_uzz(CouplingMatrix(5, v), Limited(tuple(a), tuple(b)))
    with pytest.raises(InfeasibleStrategyError, match="one entry per qubit"):
        build_uzz(CouplingMatrix(5, v), Limited(tuple(a[:4]), tuple(b)))


def _pea_gap_models(tmp_path):
    """One seeded pairing model per N = 3, 4, 5, drawn by the pea-gap rule.

    r = 1 and n = N // 2; a draw is kept when its exact sector gap is at
    least two resolution bins 2 pi / (2^6 tau) at the tau the CLI chooses.
    """
    rng = np.random.default_rng(2323)
    for n in (3, 4, 5):
        while True:
            eps = rng.uniform(0.5, 2.0, n)
            v = np.triu(rng.uniform(0.05, 0.5, (n, n)), 1)
            model = BCSModel(n, n // 2, eps, CouplingMatrix(n, v + v.T), r=1.0)
            emax = float(np.max(np.abs(exact_spectrum(model).eigenvalues)))
            tau = (1.0 - 2.0**-6) * np.pi / emax
            if energy_gap(model, n // 2) >= 2.0 * 2.0 * np.pi / (2**6 * tau):
                break
        path = tmp_path / f"model-{n}.json"
        save_model(model, path)
        yield str(path)


# Recorded before each Trotter step was folded in one pass.
GAP_STDOUT_PIN = "160871fcaa62b9679e3a464b91480f614b8b09cbc89211e24df82207c8a01245"


def test_gap_stdout_is_pinned(tmp_path, capsys):
    # Every printed digit of `qubusim gap` goes through the compiled Trotter
    # steps and their folds, so a fold change cannot move one unnoticed.
    out = []
    for path in _pea_gap_models(tmp_path):
        for k in (3, 6, 8):
            code = main(["gap", "--model", path, "--k", str(k)])
            out.append(f"k={k} exit={code}\n{capsys.readouterr().out}")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == GAP_STDOUT_PIN
