"""Simulation and analysis toolkit for waveguide-integrated NV centers.

Subpackages cover the ground-state spin Hamiltonian (spin_model), ODMR
spectra (odmr), pulse-sequence dynamics and coherence fits (dynamics),
photon correlation and saturation (photon_stats), confocal maps and density
estimation (confocal), and field-sensitivity estimates (magnetometry).

Names load on first use: `import nvkit` imports no submodule, and
`nvkit.fit_g2` (or `from nvkit import fit_g2`) imports the submodule that
defines it (PEP 562). So a program pays only for the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "constants": ("D_ZFS_MHZ", "GAMMA_C13_MHZ_PER_MT", "GAMMA_E_MHZ_PER_MT"),
    "fitting": ("FitError", "FitResult", "levenberg_marquardt"),
    "noise": ("NoiseError", "NoiseSpec", "apply_noise"),
    "spin_model": (
        "FieldEnvironment", "HamiltonianMatrix", "HyperfineCoupling", "NuclearSpecies",
        "NvOrientation", "SpinModelError", "SpinOperators", "SpinSystem",
        "build_hamiltonian", "eigenlevels", "nv_orientations", "project_field",
        "resonance_frequencies_approx", "spin_operators", "transition_lines",
    ),
    "odmr": (
        "LineShapeModel", "OdmrError", "OdmrFitResult", "OdmrSpectrum", "fit_spectrum",
        "invert_shift_splitting", "load_spectrum", "save_spectrum", "synthesize_spectrum",
    ),
    "dynamics": (
        "CoherenceParams", "DecayCurve", "DecayModel", "DynamicsError", "EnvelopeFit",
        "LaserInit", "MwPulse", "PulseSequence", "Readout", "Wait",
        "extract_frequencies", "fit_decay_envelope", "load_curve", "propagate_sequence",
        "save_curve", "simulate_fid", "simulate_hahn", "simulate_rabi",
        "simulate_relaxometry",
    ),
    "photon_stats": (
        "G2Curve", "G2FitResult", "PhotonStatsError", "SaturationFit", "fit_g2",
        "fit_saturation", "g2_model", "load_g2", "load_saturation", "save_g2",
        "saturation_model", "synthesize_g2",
    ),
    "confocal": (
        "ConfocalError", "DensityEstimate", "DensityMethod", "GaussianSliceFit",
        "MapFormatError", "PLMap", "PsfModel", "enhancement_ratio", "estimate_density",
        "fit_gaussian_slice", "gaussian_uniform_ratio", "load_map", "save_map",
    ),
    "magnetometry": (
        "MagnetometryError", "SensitivityReport", "SensorParams", "sensitivity",
        "sensitivity_si",
    ),
}
# public name -> the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
