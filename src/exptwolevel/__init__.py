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
from .model import AxisSpec, DerivedParams, IntegratorConfig, ModelParams
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
from .spectrum import (
    EnergyDecomposition,
    eigenvalues_closed_form,
    eigenvalues_direct,
    energy_decomposition,
)
from .rabi import (
    RabiParams,
    constant_h_propagator,
    rabi_limit_convergence,
    rabi_survival_closed_form,
    rabi_survival_oracle,
)
from .sweep import Dataset, SweepConfig, emit, run_sweep

# the DOP853 oracle, and with it numpy, loads on the first use of one of these
_ORACLE_NAMES = ("integrate_tdse_batch",)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_ORACLE_NAMES)
