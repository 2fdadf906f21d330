"""Randomized Kaczmarz for noisy linear systems.

Build consistent systems with prescribed spectra, corrupt them with
additive, multiplicative, consistency-preserving, or gap-filling noise,
solve them with randomized row projections, and evaluate the matching
convergence rates and horizons.  Experiment suites reproduce the whole
pipeline as seeded CSV datasets.
"""

from ._version import __version__
from .bounds import (
    BoundCurve,
    BoundKind,
    HorizonComparison,
    bound_additive,
    bound_multiplicative,
    bound_multiplicative_perturbation,
    bound_noiseless,
    bound_perturbation_doubly,
    bound_perturbation_partial,
    bound_rhs_noise,
    evaluate_bound,
    horizon_comparison,
    iterations_to_tolerance,
    perturbed_ls_distance,
    write_bound_csv,
)
from .errors import HypothesisError, KernelBuildError
from .experiments import (
    ExperimentConfig,
    GridPointResult,
    PreconditionerDemo,
    TABLE2_GRID,
    Table2Row,
    apply_paper_scale,
    run_figure_experiment,
    run_preconditioner_demo,
    run_table2,
)
from .kaczmarz import (
    RkConfig,
    Trajectory,
    X0Mode,
    empirical_horizon,
    initial_iterates,
    make_sampler,
    record_points,
    rk_step,
    solve,
    write_trajectory_csv,
)
from .linalg import (
    orthonormalize_columns,
    pseudoinverse,
    read_matrix,
    read_vector,
    scaled_condition_number,
    sigma_min_nonzero,
    spectral_norm,
    svd,
    write_matrix,
    write_vector,
)
from .problems import (
    LinearSystem,
    NoiseModel,
    NoiseSpec,
    NoisySystem,
    Spacing,
    SpectrumSpec,
    additive_noise,
    generate_system,
    load_system,
    multiplicative_noise,
    partial_consistent_noise,
    preconditioner_noise,
    save_system,
)

__all__ = [
    "__version__",
    "HypothesisError",
    "KernelBuildError",
    # linalg
    "svd", "pseudoinverse", "scaled_condition_number",
    "spectral_norm", "sigma_min_nonzero",
    "orthonormalize_columns", "read_matrix", "write_matrix",
    "read_vector", "write_vector",
    # problems
    "Spacing", "NoiseModel", "NoiseSpec", "SpectrumSpec", "LinearSystem",
    "NoisySystem", "generate_system", "additive_noise", "multiplicative_noise",
    "partial_consistent_noise", "preconditioner_noise",
    "save_system", "load_system",
    # solver
    "X0Mode", "RkConfig", "Trajectory", "rk_step",
    "make_sampler", "initial_iterates", "record_points", "solve",
    "empirical_horizon", "write_trajectory_csv",
    # bounds
    "BoundKind", "BoundCurve", "HorizonComparison", "bound_noiseless",
    "bound_rhs_noise", "bound_additive", "bound_multiplicative",
    "bound_perturbation_doubly", "bound_perturbation_partial",
    "bound_multiplicative_perturbation", "perturbed_ls_distance",
    "horizon_comparison", "iterations_to_tolerance", "evaluate_bound",
    "write_bound_csv",
    # experiments
    "ExperimentConfig", "GridPointResult", "Table2Row",
    "PreconditionerDemo", "TABLE2_GRID", "run_figure_experiment",
    "run_table2", "run_preconditioner_demo", "apply_paper_scale",
]
