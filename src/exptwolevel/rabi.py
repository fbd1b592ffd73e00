"""Constant-Hamiltonian (Rabi) limit of the exponential model.

When alpha*t + beta -> -infinity the exponential term vanishes and the
Hamiltonian freezes at H = (eps/2) sigma_z + (d/2) sigma_x, d = eps + i Delta.
Since H^2 = rho^2 * 1 with rho = sqrt(eps^2 + d^2) / 2, the propagator is
exp(-iHt) = cos(rho t) - i sin(rho t) H / rho, and the 1 -> 2 transfer
amplitude from the initial state (1, 0) is U21 = -i (d/2) sin(rho t) / rho.
This module provides Rabi's closed-form transfer probability (Rabi, Phys.
Rev. 51, 652 (1937)) with coupling d and detuning eps,

    P(t) = d^2 / (eps^2 + d^2) * sin^2(sqrt(eps^2 + d^2) t / 2),

evaluated literally over the complex numbers (principal square root): its
modulus is |U21|^2 at every Delta, and at Delta = 0 it is real and equals
|U21|^2.  Alongside it are an independent matrix-exponential oracle for the
same constant Hamiltonian and a convergence check quantifying how fast the
exponential model approaches this limit.  The closed form and the oracle are
kept as separate routes so that each checks the other; the 2-D interferogram
over (t, epsilon) is an `interferogram` sweep (see `sweep`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError
from .model import ModelParams
from .oracle import IntegratorConfig, constant_h_propagator, integrate_tdse_batch
from .analytic import PopulationRecord


@dataclass(frozen=True)
class RabiParams:
    epsilon: float
    Delta: float
    t: float


@dataclass(frozen=True)
class RabiSurvival:
    """Complex closed-form value of the 1 -> 2 transfer probability, with its
    reporting projections.  It is zero at t = 0."""

    value: complex
    real_part: float
    modulus: float


def _rabi_hamiltonian(epsilon: float, Delta: float) -> np.ndarray:
    om = 0.5 * epsilon
    d = 0.5 * complex(epsilon, Delta)
    return np.array([[om, d], [d, -om]], dtype=complex)


def rabi_survival_closed_form(r: RabiParams) -> RabiSurvival:
    """Literal complex evaluation of Rabi's transfer probability
    d^2 / (eps^2 + d^2) * sin^2(sqrt(eps^2 + d^2) t / 2), d = eps + i Delta.

    This is the probability of the 1 -> 2 transfer from the initial state
    (1, 0), zero at t = 0; its modulus equals the oracle's p12_mod2.
    """
    d2 = complex(r.epsilon, r.Delta) ** 2
    denom = r.epsilon ** 2 + d2
    if abs(denom) < 1e-300:
        raise DegeneracyError("degenerate frequency: eps^2 + (eps + i Delta)^2 = 0")
    freq = cmath.sqrt(denom)
    value = d2 / denom * cmath.sin(0.5 * freq * r.t) ** 2
    return RabiSurvival(value=value, real_part=value.real, modulus=abs(value))


def rabi_survival_oracle(r: RabiParams) -> PopulationRecord:
    """Constant-H propagation of the initial state (1, 0).

    The survival amplitude U11 is reported in the p22 slots (it plays the
    role the diagonal element plays elsewhere) and the transfer amplitude
    U21 in the p12 slots, under both reporting conventions.
    """
    u = constant_h_propagator(_rabi_hamiltonian(r.epsilon, r.Delta), r.t)
    surv, trans = u[0, 0], u[1, 0]
    p_surv = abs(surv) ** 2
    p_trans = abs(trans) ** 2
    return PopulationRecord(
        p12_paper=trans.real + trans.imag,
        p22_paper=surv.real + surv.imag,
        p12_mod2=p_trans,
        p22_mod2=p_surv,
        norm=p_surv + p_trans,
        t0=0.0,
        t=r.t,
    )


# exponential magnitude below which the model counts as "in the Rabi limit"
RABI_LIMIT_THRESHOLD = 1e-3
# sample times over the window of rabi_limit_convergence
CONVERGENCE_SAMPLES = 33


def rabi_limit_convergence(p: ModelParams, t_probe: float) -> float:
    """Max population deviation between the exponential model and its frozen
    limit over a two-Rabi-period window starting at t_probe.

    Requires the exponential term A e^(alpha t + beta) to be below
    RABI_LIMIT_THRESHOLD * |epsilon| at t_probe; the measured deviation
    scales linearly with that magnitude for a fixed window.
    """
    mag = abs(p.A) * math.exp(p.alpha * t_probe + p.beta)
    if p.epsilon == 0 or mag >= RABI_LIMIT_THRESHOLD * abs(p.epsilon):
        raise DomainError(
            f"exponential term magnitude {mag:.3e} is not below "
            f"{RABI_LIMIT_THRESHOLD} * |epsilon| = {RABI_LIMIT_THRESHOLD * abs(p.epsilon):.3e} "
            f"at t_probe = {t_probe}"
        )
    h = _rabi_hamiltonian(p.epsilon, p.Delta)
    rho = abs(cmath.sqrt(complex(h[0, 0]) ** 2 + complex(h[0, 1]) ** 2))
    window = 2.0 * (2.0 * math.pi / rho) if rho > 0 else 1.0
    if p.A != 0 and p.alpha > 0:
        # keep the perturbation from growing by more than 2x over the window,
        # otherwise the probe point no longer characterizes the limit
        window = min(window, math.log(2.0) / p.alpha)
    ts = np.linspace(t_probe, t_probe + window, CONVERGENCE_SAMPLES)
    samples = integrate_tdse_batch(
        [p], (1.0, 0.0), t_probe, float(ts[-1]),
        IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14), t_eval=ts,
    )
    dev = 0.0
    for tt, (sample,) in zip(ts, samples):
        u = constant_h_propagator(h, float(tt) - t_probe)
        dev = max(
            dev,
            abs(abs(sample[0]) ** 2 - abs(u[0, 0]) ** 2),
            abs(abs(sample[1]) ** 2 - abs(u[1, 0]) ** 2),
        )
    return float(dev)

