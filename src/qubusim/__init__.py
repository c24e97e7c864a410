"""qubusim: compile, simulate and cost out ancilla-bus qubit circuits.

A continuous-variable bus mediates every two-qubit interaction through
controlled displacements; this package provides

* an exact coherent-state branch simulator for the hybrid register
  (:mod:`qubusim.hybrid`),
* a compilation IR plus schedule builders that realize coupled-spin
  evolutions, controlled evolutions, Fourier transforms and product-formula
  steps at the known-optimal bus-operation counts (:mod:`qubusim.sequence`,
  :mod:`qubusim.builders`),
* a pairing-model Hamiltonian with dense diagonalization oracles
  (:mod:`qubusim.bcs`),
* phase estimation for energy-gap extraction (:mod:`qubusim.pea`), and
* closed-form operation-count formulas with a formula-versus-compiler audit
  (:mod:`qubusim.resources`).
"""

from .bcs import (
    BCSModel,
    CouplingMatrix,
    SectorUnavailableError,
    SpectrumResult,
    energy_gap,
    exact_evolution,
    exact_spectrum,
    hamiltonian_matrix,
    load_model,
    model_from_json,
    model_to_json,
    product_formula,
    save_model,
    sector_indices,
    spectrum_to_csv,
    trotter_error,
)
from .builders import (
    STRATEGY_NAMES,
    Carryover,
    FixedRange,
    InfeasibleStrategyError,
    Limited,
    Naive,
    NotProductFormError,
    QftMode,
    Stepwise,
    Strategy,
    adiabatic_steps,
    build_adiabatic_init,
    build_cnot,
    build_cphase,
    build_qft,
    build_trotter_step,
    build_u0,
    build_uzz,
    conjugate_to_axis,
    decompose_limited,
    dense_formula_count,
    make_controlled,
    make_controlled_locals,
    strategy_from_name,
    trotter_factors,
)
from .hybrid import (
    BranchTerm,
    EntangledBusError,
    HybridState,
    apply_displacement,
    apply_local,
    extract_qubit_vector,
    init_state,
    inner_product,
    is_bus_disentangled,
    merge_branches,
    norm,
    state_from_vector,
    to_debug_json,
)
from .pea import (
    AdiabaticSequence,
    ExactSuperposition,
    PEACircuit,
    PEAConfig,
    PEAResult,
    UnresolvedPeaksError,
    build_pea,
    estimate_gap,
    result_to_json,
    run_pea,
    substeps_for_target,
)
from .resources import (
    CountFormula,
    ResourceReport,
    crossover_n,
    formula_count,
    max_n_for_budget,
    total_ops,
    total_ops_precision,
    verify_counts,
)
from .sequence import (
    Barrier,
    Displace,
    EntangledBusWarning,
    GateSequence,
    Local,
    count_ops,
    effective_unitary,
    execute,
    load_sequence,
    save_sequence,
    sequence_from_json,
    sequence_to_json,
)

__version__ = "0.1.0"
