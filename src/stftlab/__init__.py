"""stftlab: a numerical laboratory for phase retrieval from spectrogram data.

Submodules load on first attribute access so that importing the package
stays cheap and the command line tool can cap BLAS thread pools before
any numerical module pulls them in.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # periodic grids and fixtures
    "Grid1D": "grids", "TFGrid": "grids", "Signal": "grids",
    "TFField": "grids", "make_grid": "grids", "tf_grid_of": "grids",
    "gaussian": "grids", "hermite": "grids", "random": "grids",
    "translate": "grids", "modulate": "grids", "DomainMask": "grids",
    # transforms and recovery
    "WindowSpec": "transforms", "parse_window": "transforms",
    "stft": "transforms", "phaseless": "transforms",
    "ambiguity": "transforms", "recover": "transforms",
    "fock_polynomial_field": "transforms",
    "window_comparison_ratio": "transforms",
    # norms and distances
    "LqNorm": "norms", "XpSigmaNorm": "norms", "SobolevNorm": "norms",
    "IntersectionNorm": "norms", "parse_norm": "norms",
    "phase_inf_distance": "norms", "frac_sobolev_norm": "norms",
    "modulus": "norms", "modulus_sobolev_ratio": "norms",
    "disjointness_witness": "norms",
    # instability construction
    "normalize_seed": "forge", "select_annulus_schedule": "forge",
    "build_bumps": "forge", "assemble_pair": "forge",
    "instability_ratio": "forge", "dichotomy_check": "forge",
    "verify_bump_bounds": "forge", "stft_instability_family": "forge",
    # domain geometry and stability constants
    "cheeger_estimate": "geometry",
    "connectivity": "geometry", "gluing_bound": "geometry",
    "poincare_constant": "geometry", "stability_certificate": "geometry",
    # persistence
    "dump_signal": "io", "dump_field": "io", "dump_mask": "io",
    "load": "io",
    # experiments
    "ExperimentManifest": "experiments", "run": "experiments",
    "default_manifest": "experiments", "experiment_ids": "experiments",
    "list_experiments": "experiments", "verify_run": "experiments",
    "write_result": "experiments",
    # deterministic sampling
    "SplitMix64": "rng",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
