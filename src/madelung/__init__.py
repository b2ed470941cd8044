"""Numerical laboratory for single-particle quantum hydrodynamics.

Solves Schrodinger eigenproblems, evolves band-limited superpositions,
decomposes wavefunctions into the full local energy ledger (quantum
potential, reduced quantum potential, flow/symmetric/classical kinetic
energies), classifies soft and hard superoscillation regions, and traces
fluid streamlines, nodes, and vortices.
"""

import types

from .grids import (
    ComplexField,
    Grid1D,
    Grid2D,
    ScalarField,
    partials,
)
from .spectral import (
    EigenBasis,
    Harmonic,
    InfiniteWell,
    QuarticDoubleWell,
    SymTridiag,
    Tabulated,
    WellWithBarrier,
    build_hamiltonian,
    eigenbasis,
    load_basis,
    product_basis_2d,
    sample_potential,
    save_basis,
    snapped_barrier_width,
    solve_eigen,
)
from .states import (
    Superposition,
    WavepacketSpec,
    band_limit,
    cap_modes,
    equal_two_mode,
    evaluate,
    evaluate_at,
    evaluate_at_2d,
    gaussian_values,
    leaked_norm,
    project_field,
    project_gaussian,
    superposition,
    time_derivative,
)
from .energy import (
    EnergyDecomposition,
    SuperoscillationMask,
    classify_superoscillation,
    continuity_residual,
    decompose,
    decomposition_to_csv,
    frame_decomposition,
    frame_ledger,
    hj_residual,
    ledger,
    ledger_integrals,
    mask_area,
    masks_to_csv,
    read_frame_table,
    write_frame_table,
)
from .flow import (
    Loop2D,
    NodeEvent,
    Streamline,
    VortexProfile,
    circulation,
    cumulative_probability,
    find_nodes,
    integrate_loop_2d,
    integrate_streamline,
    loop_seeds_on_axis,
    loops_to_csv,
    node_events_to_json,
    save_node_events,
    seed_quantiles,
    streamline_bundle,
    streamlines_to_csv,
    vortex_profile,
    vortex_profile_to_csv,
)
from .scenarios import (
    SCENARIOS,
    ScenarioBundle,
    ScenarioConfig,
    SplitterGeometry,
    TuningResult,
    build_scenario,
    default_config,
    load_config,
    run_scenario,
    save_config,
    transmission,
    tune_beam_splitter,
    tuning_record,
    vortex_record,
)

__version__ = "0.1.0"

# every public class, function and constant imported above
__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and not isinstance(v, types.ModuleType))
__all__.append("__version__")
