"""swapsim: simulator and analysis toolkit for a single-photon two-qubit
polarization / spatial-momentum SWAP gate chip.

The package models the imperfect physical components of the three-gate
cascade (PC-NOT / MC-NOT / PC-NOT), compiles photonic circuits from a small
netlist language, runs the chip experiments under Poissonian shot noise and
characterizes the gate tomographically: fidelities by linear inversion of
the counts, process matrices from the exact output states.

The namespace is lazy (PEP 562): `import swapsim` loads no submodule, and
each name of `__all__` imports its module on first access, so a process
loads only the modules it uses (`swapsim fmt` loads no numpy).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("biphoton", "cli", "config", "devices", "experiments", "netlist",
               "qcore", "tomography")

# exported name -> the submodule that defines it
_EXPORTS = {
    "QuantumChannel": "qcore",
    **dict.fromkeys(("ChipModel", "er_to_leakage", "pcnot_channel", "mcnot_channel",
                     "waveplate_jones", "phase_v", "polarizer", "mzi_projector",
                     "facet_channel", "ideal_swap_unitary", "swap_unitary"), "devices"),
    **dict.fromkeys(("parse", "format_netlist", "compile_netlist", "ParseError",
                     "CompileError"), "netlist"),
    **dict.fromkeys(("BellLabel", "SpectralOverlap", "spectral_overlap", "fiber_link"),
                    "biphoton"),
    **dict.fromkeys(("ideal_truth_table", "chi_from_unitary"), "tomography"),
    **dict.fromkeys(("ChipConfig", "SourceConfig", "ExperimentConfig", "ConfigError",
                     "load_config"), "config"),
    **dict.fromkeys(("Report", "sample_counts", "run_truth_table", "run_fringe_scan",
                     "run_hom_scan", "run_bell_distribution", "run_error_budget"),
                    "experiments"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the submodule `name`, or the one that defines the exported
    `name`, on first access; the value is then cached in the namespace."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
