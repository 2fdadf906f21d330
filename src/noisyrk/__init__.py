"""Randomized Kaczmarz for noisy linear systems.

Build consistent systems with prescribed spectra, corrupt them with
additive, multiplicative, consistency-preserving, or gap-filling noise,
solve them with randomized row projections, and evaluate the matching
convergence rates and horizons.  Experiment suites reproduce the whole
pipeline as seeded CSV datasets.

Importing the package loads no submodule and no numpy: each name below
is imported from its submodule at first access (PEP 562), so the
command-line front end can set numpy's BLAS up before numpy loads.
"""

import importlib

from ._version import __version__

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("HypothesisError", "KernelBuildError"),
        "linalg": (
            "svd", "pseudoinverse", "scaled_condition_number", "spectral_norm", "sigma_min_nonzero",
            "orthonormalize_columns", "read_matrix", "write_matrix", "read_vector", "write_vector",
        ),
        "problems": (
            "Spacing", "NoiseModel", "NoiseSpec", "SpectrumSpec", "LinearSystem", "NoisySystem",
            "generate_system", "additive_noise", "multiplicative_noise", "partial_consistent_noise",
            "preconditioner_noise", "save_system", "load_system",
        ),
        "kaczmarz": (
            "X0Mode", "RkConfig", "Trajectory", "rk_step", "make_sampler", "initial_iterates",
            "record_points", "solve", "empirical_horizon", "write_trajectory_csv",
        ),
        "bounds": (
            "BoundKind", "BoundCurve", "HorizonComparison", "bound_noiseless", "bound_rhs_noise",
            "bound_additive", "bound_multiplicative", "bound_perturbation_doubly",
            "bound_perturbation_partial", "bound_multiplicative_perturbation", "perturbed_ls_distance",
            "horizon_comparison", "iterations_to_tolerance", "evaluate_bound", "write_bound_csv",
        ),
        "experiments": (
            "ExperimentConfig", "GridPointResult", "Table2Row", "PreconditionerDemo", "TABLE2_GRID",
            "run_figure_experiment", "run_table2", "run_preconditioner_demo", "apply_paper_scale",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
