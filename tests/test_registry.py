"""Strategy registry: names, builders and formula kinds stay in one place."""

import numpy as np
import pytest

from qubusim.bcs import CouplingMatrix
from qubusim.builders import (
    STRATEGY_NAMES,
    FixedRange,
    _SCHEDULES,
    build_uzz,
    dense_formula_count,
    strategy_from_name,
)
from qubusim.cli import build_parser
from qubusim.resources import CountFormula, formula_count

from oracles import banded_coupling, product_coupling, random_dense_coupling


def _instance(name, n, rng):
    if name == "fixed-range":
        return banded_coupling(n, 2, rng)
    if name == "limited":
        return product_coupling(n)
    return random_dense_coupling(n, rng)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_names_round_trip_through_builder(name):
    rng = np.random.default_rng(61)
    strategy = strategy_from_name(name, p=2)
    assert _SCHEDULES[type(strategy)][0] == name
    seq = build_uzz(CouplingMatrix(5, _instance(name, 5, rng)), strategy)
    assert seq.metadata["strategy"] == name


def test_strategy_from_name_errors():
    with pytest.raises(ValueError, match="unknown strategy"):
        strategy_from_name("bogus")
    with pytest.raises(ValueError):
        strategy_from_name("fixed-range")
    assert strategy_from_name("fixed-range", 3) == FixedRange(3)


def test_dense_formula_count_reads_the_count_table():
    for n in range(2, 13):
        for p in range(1, n):
            for name in STRATEGY_NAMES:
                strategy = strategy_from_name(name, p)
                kind = _SCHEDULES[type(strategy)][1]
                expected = formula_count(CountFormula(kind, {"N": n, "p": p}))
                assert dense_formula_count(strategy, n) == expected, (name, n, p)
    # A one-qubit register has a value too: the domain check is skipped.
    assert [dense_formula_count(strategy_from_name(name), 1)
            for name in ("naive", "stepwise", "carryover", "limited")] == [0, 0, 2, 0]
    assert type(dense_formula_count(strategy_from_name("naive"), 5)) is int


def test_compile_choices_are_the_registry_names():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    strategy = next(a for a in sub.choices["compile"]._actions if a.dest == "strategy")
    assert tuple(strategy.choices) == STRATEGY_NAMES
