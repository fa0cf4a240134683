"""Pseudospectral Kawahara lab: solver, almost-conserved energies, and
dispersive-estimate audits on a periodic box."""

from .dispersion import DispersionParams, dispersive_order_audit, free_evolve, omega, resonance
from .dyadic import eta0, eta_k, project_dyadic, project_low, shell_count
from .grid import (
    Grid,
    SpectralField,
    homogeneous_seminorm,
    load_field,
    rescale_datum,
    save_field,
    sobolev_norm,
)
from .imethod import (
    EnergyReport,
    GwpConfig,
    energy_derivative_audit,
    gwp_experiment,
    lambda_k,
    modified_energies,
)
from .imultiplier import IMultiplier, apply_I
from .multipliers import EnergyMultipliers, h_v_eval, power_sum_identity_check
from .solver import (
    PetviashviliError,
    SolverConfig,
    SolverDivergenceError,
    Trajectory,
    nonlinear_rhs,
    petviashvili_wave,
    simulate,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "DispersionParams", "dispersive_order_audit", "free_evolve", "omega", "resonance",
    "eta0", "eta_k", "project_dyadic", "project_low", "shell_count",
    "Grid", "SpectralField", "homogeneous_seminorm", "load_field", "rescale_datum",
    "save_field", "sobolev_norm",
    "EnergyReport", "GwpConfig", "energy_derivative_audit",
    "gwp_experiment", "lambda_k", "modified_energies",
    "IMultiplier", "apply_I", "EnergyMultipliers", "h_v_eval", "power_sum_identity_check",
    "PetviashviliError", "SolverConfig", "SolverDivergenceError", "Trajectory",
    "nonlinear_rhs", "petviashvili_wave", "simulate", "step",
    "__version__",
]
