"""swapsim: simulator and analysis toolkit for a single-photon two-qubit
polarization / spatial-momentum SWAP gate chip.

The package models the imperfect physical components of the three-gate
cascade (PC-NOT / MC-NOT / PC-NOT), compiles photonic circuits from a small
netlist language, runs the chip experiments under Poissonian shot noise and
reconstructs states and processes with linear-inversion tomography.
"""

from .qcore import (
    PureState,
    DensityMatrix,
    QuantumChannel,
    PauliBasis,
    ProcessMatrix,
    tensor,
    apply_channel,
    heralded_normalize,
    uhlmann_fidelity,
    project_to_physical,
    pauli_coefficients,
)
from .devices import (
    ComponentKind,
    ComponentSpec,
    ChipModel,
    er_to_leakage,
    pcnot_channel,
    mcnot_channel,
    waveplate_jones,
    phase_v,
    polarizer,
    mzi_projector,
    facet_channel,
    logical_frame,
    ideal_swap_unitary,
    swap_unitary,
)
from .netlist import parse, format_netlist, compile_netlist, ParseError, CompileError
from .biphoton import (
    BellLabel,
    BiphotonState,
    SpectralOverlap,
    spdc_state,
    prepare_bell,
    apply_local,
    spectral_overlap,
    hom_coincidence,
    hom_visibility,
    fiber_link,
)
from .tomography import (
    MeasurementSetting,
    CountRecord,
    TruthTable,
    ideal_truth_table,
    truth_table_fidelity,
    state_tomo_1q,
    state_tomo_2q,
    process_tomo,
    chi_from_unitary,
    process_fidelity,
    process_purity,
    fringe_fit,
)
from .config import ChipConfig, SourceConfig, ExperimentConfig, ConfigError, load_config
from .experiments import (
    Report,
    poisson_counts,
    run_truth_table,
    run_fringe_scan,
    run_hom_scan,
    run_bell_distribution,
    run_error_budget,
)

__version__ = "0.1.0"
