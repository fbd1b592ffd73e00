"""Constant-Hamiltonian (Rabi) limit of the exponential model.

When alpha*t + beta -> -infinity the exponential term vanishes and the
Hamiltonian freezes at H = (eps/2) sigma_z + (d/2) sigma_x, d = eps + i Delta.
Since H^2 = rho^2 * 1 with rho = sqrt(eps^2 + d^2) / 2, the propagator is
exp(-iHt) = cos(rho t) - i sin(rho t) H / rho, and the 1 -> 2 transfer
amplitude from the initial state (1, 0) is U21 = -i (d/2) sin(rho t) / rho.
This module provides Rabi's closed-form transfer probability (Rabi, Phys.
Rev. 51, 652 (1937)) with coupling d and detuning eps,

    P(t) = d^2 / (eps^2 + d^2) * sin^2(sqrt(eps^2 + d^2) t / 2),

evaluated literally over the complex numbers (principal square root) and
returned as one complex number: its modulus is |U21|^2 at every Delta, and
at Delta = 0 it is real and equals |U21|^2.  Alongside it are an independent
matrix-exponential oracle for the same constant Hamiltonian, the propagator
exp(-i H dt) of any traceless constant 2x2 H (`constant_h_propagator`; both
go through `_rotation`), and a convergence check quantifying how fast the
exponential model approaches this limit.  The closed form and the oracle are
kept as separate routes so that each checks the other; the 2-D interferogram
over (t, epsilon) is an `interferogram` sweep (see `sweep`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegeneracyError, DomainError, ExponentOverflowError
from .model import IntegratorConfig, ModelParams, require_finite
from .analytic import AmplitudePair


@dataclass(frozen=True)
class RabiParams:
    epsilon: float
    Delta: float
    t: float

    def __post_init__(self):
        require_finite(self)


def rabi_survival_closed_form(r: RabiParams) -> complex:
    """Literal complex evaluation of Rabi's transfer probability
    d^2 / (eps^2 + d^2) * sin^2(sqrt(eps^2 + d^2) t / 2), d = eps + i Delta.

    This is the probability of the 1 -> 2 transfer from the initial state
    (1, 0), zero at t = 0; a sweep reports its real part and its modulus,
    which equals the oracle's p12_mod2.
    """
    d2 = complex(r.epsilon, r.Delta) ** 2
    denom = r.epsilon ** 2 + d2
    if abs(denom) < 1e-300:
        raise DegeneracyError("degenerate frequency: eps^2 + (eps + i Delta)^2 = 0")
    w = 0.5 * cmath.sqrt(denom) * r.t
    if 2.0 * abs(w.imag) > ExponentOverflowError.LIMIT:  # sin(w)^2 grows as e^(2 |Im w|)
        raise ExponentOverflowError(2.0 * abs(w.imag))
    return d2 / denom * cmath.sin(w) ** 2


def rabi_survival_oracle(r: RabiParams) -> AmplitudePair:
    """Constant-H amplitudes at r.t of the initial state (1, 0): the transfer
    amplitude U21 as ``c1`` and the survival amplitude U11 as ``c2``, so the
    survival fills the p22 slots (the diagonal element's role elsewhere) and
    the transfer the p12 slots, under both reporting conventions.  Their
    squared moduli, the populations, must stay in the float range."""
    om, d = complex(0.5 * r.epsilon), 0.5 * complex(r.epsilon, r.Delta)
    cosw, sinc = _rotation(om, d, d, r.t, power=2)
    return AmplitudePair(-1j * sinc * d, cosw - 1j * sinc * om, r.t)


def _rotation(h00: complex, h01: complex, h10: complex, dt: float, power: int = 1) -> tuple:
    """(cos w, sin(w) / rho), w = rho dt, rho = sqrt(h00^2 + h01 h10), in Python complex
    arithmetic (an infinite entry is NaN, no warning); power |Im w| must be in exp's range."""
    rho = cmath.sqrt(h00 * h00 + h01 * h10)
    w = rho * dt
    if not cmath.isfinite(w):
        raise DomainError(f"rotation angle {w} of exp(-i H dt) is not finite (dt = {dt})")
    if power * abs(w.imag) > ExponentOverflowError.LIMIT:
        raise ExponentOverflowError(power * abs(w.imag))
    if abs(w) < 1e-6:
        # sin(w)/rho -> dt * (1 - w^2/6 + w^4/120)
        sinc = dt * (1.0 - w * w / 6.0 * (1.0 - w * w / 20.0))
        cosw = 1.0 - w * w / 2.0 * (1.0 - w * w / 12.0)
    else:
        sinc = cmath.sin(w) / rho
        cosw = cmath.cos(w)
    return cosw, sinc


def constant_h_propagator(H, dt: float):
    """exp(-i H dt) for traceless 2x2 H via the closed rho-formula, as a numpy array."""
    import numpy as np
    (h00, h01), (h10, h11) = np.asarray(H, dtype=complex).tolist()
    cosw, sinc = _rotation(h00, h01, h10, dt)
    if h00 + h11 != 0:  # the rho-formula holds only for H^2 = rho^2 * 1
        raise DomainError(f"H must be traceless, got trace {h00 + h11}")
    return np.array([[cosw - 1j * sinc * h00, -1j * sinc * h01],
                     [-1j * sinc * h10, cosw - 1j * sinc * h11]])


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
    import numpy as np
    from .oracle import integrate_tdse_batch

    w = p.alpha * t_probe + p.beta
    if w > ExponentOverflowError.LIMIT:  # far below -LIMIT, exp(w) = 0 is the limit itself
        raise ExponentOverflowError(w)
    mag = abs(p.A) * math.exp(w)
    if p.epsilon == 0 or not mag < RABI_LIMIT_THRESHOLD * abs(p.epsilon):  # NaN t_probe too
        raise DomainError(
            f"exponential term magnitude {mag:.3e} is not below "
            f"{RABI_LIMIT_THRESHOLD} * |epsilon| = {RABI_LIMIT_THRESHOLD * abs(p.epsilon):.3e} "
            f"at t_probe = {t_probe}"
        )
    om, d = 0.5 * p.epsilon, 0.5 * complex(p.epsilon, p.Delta)
    rho = abs(cmath.sqrt(complex(om) ** 2 + d ** 2))
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
        # the limit's survival |U11|^2 is p22_mod2, its transfer |U21|^2 p12_mod2
        u = rabi_survival_oracle(RabiParams(p.epsilon, p.Delta, float(tt) - t_probe))
        dev = max(dev, abs(abs(sample[0]) ** 2 - u.p22_mod2),
                  abs(abs(sample[1]) ** 2 - u.p12_mod2))
    return float(dev)

