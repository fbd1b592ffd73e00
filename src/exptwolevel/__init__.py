"""Exact and numerical dynamics of a non-Hermitian exponential two-level model."""

__version__ = "1.0.0"

from .errors import (
    AccuracyError,
    ConfigError,
    DegeneracyError,
    DomainError,
    ExponentOverflowError,
    PoleError,
)
from .model import AxisSpec, DerivedParams, ModelParams
from .analytic import (
    AmplitudePair,
    BasisSolutions,
    PropagatorMatrix,
    amplitudes,
    basis_solutions,
    populations,
    propagator,
    transition_parameter_omega12,
)
from .oracle import IntegratorConfig, constant_h_propagator, integrate_tdse_batch
from .spectrum import (
    EnergyDecomposition,
    eigenvalues_closed_form,
    eigenvalues_direct,
    energy_decomposition,
)
from .rabi import (
    RabiParams,
    rabi_limit_convergence,
    rabi_survival_closed_form,
    rabi_survival_oracle,
)
from .sweep import Dataset, SweepConfig, emit, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
