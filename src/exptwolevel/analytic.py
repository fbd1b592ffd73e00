"""Closed-form amplitudes and propagator for the exponential two-level model.

After stripping the dynamical phase of the diagonal sweep and changing
variables to x = exp(alpha*t + beta), the lower amplitude satisfies

    x^2 psi'' + x*(a - b*x) psi' + c^2 psi = 0,

which the substitution psi = x^mu z(b*x) maps onto Kummer's equation.  Both
fundamental pairs are assembled here from the confluent hypergeometric
functions in `specfun`:

    lower component:  u1 = x^mu M(mu, gamma, b x),     v1 = x^mu U(mu, gamma, b x)
    upper component:  u2 = (i mu / c) x^mu [M + (b x / gamma) M(mu+1, gamma+1, b x)]
                      v2 = (i mu / c) x^mu [U - b x   U(mu+1, gamma+1, b x)]

The upper rows are (i/c) x d/dx of the lower rows, which is exactly the
first-order system's constraint, so each column is a genuine solution of the
coupled equations (up to the common gauge factor).  The propagator is formed
as a Wronskian ratio: the numerator matrix at time t against the closed-form
determinant at time t0, which is stable where direct 2x2 inversion of a
nearly degenerate basis would not be.  A basis that lost its accuracy to
cancellation shows in its numeric determinant at t0, which then strays from
the closed form; past BASIS_RESIDUAL_LIMIT the propagator raises.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DegeneracyError, DomainError, PoleError
from .model import DerivedParams, ModelParams, derived_params, omega_integral, x_of_t
from .specfun import _nonpositive_int, _tricomi_u, kummer_m, ln_gamma_complex

# largest |numeric/closed-form basis determinant - 1| a propagator is returned at
BASIS_RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class AmplitudePair:
    """State amplitudes (c1, c2) at time t; c1 pairs with the +detuning level."""

    c1: complex
    c2: complex
    t: float

    @property
    def norm(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


@dataclass(frozen=True)
class BasisSolutions:
    """Values of the two fundamental solution columns at one point x.

    Column 1 is (u2, u1) (regular/Kummer branch), column 2 is (v2, v1)
    (Tricomi branch); the first entry of each is the upper component.
    """

    u1: complex
    v1: complex
    u2: complex
    v2: complex


@dataclass(frozen=True)
class PropagatorMatrix:
    u11: complex
    u12: complex
    u21: complex
    u22: complex
    t: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=complex)

    def apply(self, init: AmplitudePair) -> AmplitudePair:
        return AmplitudePair(
            c1=self.u11 * init.c1 + self.u12 * init.c2,
            c2=self.u21 * init.c1 + self.u22 * init.c2,
            t=self.t,
        )


@dataclass(frozen=True)
class PopulationRecord:
    """Transition/survival populations for the excited initial state (0, 1).

    Two reporting conventions are carried side by side.  ``p12_paper`` and
    ``p22_paper`` are the literal sum Re(U_k2) + Im(U_k2) of the propagator
    matrix element -- not a modulus, so these can be negative or exceed one.
    ``p12_mod2`` and ``p22_mod2`` are the standard |U_k2|^2 probabilities.
    ``norm`` is their sum; it is not conserved when Delta != 0.
    """

    p12_paper: float
    p22_paper: float
    p12_mod2: float
    p22_mod2: float
    norm: float


def basis_solutions(d: DerivedParams, x: float) -> BasisSolutions:
    """Evaluate both fundamental solution columns at x > 0."""
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    if d.c == 0:
        raise DegeneracyError("zero coupling: the system is diagonal, no basis needed")
    mu, g, z = d.mu1, d.gamma, d.b * x
    xpow = cmath.exp(mu * math.log(x))
    # each U's connection formula takes the M already summed at its point
    m0 = kummer_m(mu, g, z)
    u0 = _tricomi_u(mu, g, z, m0)
    m1 = kummer_m(mu + 1, g + 1, z)
    u1p = _tricomi_u(mu + 1, g + 1, z, m1)
    pref = 1j * mu / d.c
    return BasisSolutions(
        u1=xpow * m0,
        v1=xpow * u0,
        u2=pref * xpow * (m0 + (z / g) * m1),
        v2=pref * xpow * (u0 - z * u1p),
    )


def gauge_factor(p: ModelParams, t0: float, t: float) -> complex:
    """exp(i * integral of the detuning from t0 to t), the stripped phase."""
    return cmath.exp(1j * omega_integral(p, t0, t))


def transition_parameter_omega12(d: DerivedParams, x: float) -> complex:
    """Closed form of the basis determinant u2*v1 - v2*u1 at the point x.

    Equal to (i/c) * Gamma(gamma)/Gamma(mu) * x^(2 mu) * (b x)^(1-gamma)
    * exp(b x); follows from the Wronskian of the Kummer/Tricomi pair.
    """
    if d.c == 0:
        raise DomainError("zero coupling: determinant formula undefined")
    if _nonpositive_int(d.mu1):
        raise PoleError(
            f"mu = {d.mu1} is a non-positive integer: basis degenerates",
            location=d.mu1,
        )
    z = d.b * x
    log_det = (
        ln_gamma_complex(d.gamma)
        - ln_gamma_complex(d.mu1)
        + 2.0 * d.mu1 * math.log(x)
        + (1.0 - d.gamma) * cmath.log(z)
        + z
    )
    return (1j / d.c) * cmath.exp(log_det)


def amplitudes(p: ModelParams, init: AmplitudePair, t: float) -> AmplitudePair:
    """Propagate the state from init.t to t using the closed-form solution."""
    return propagator(p, init.t, t).apply(init)


def propagator(p: ModelParams, t0: float, t: float) -> PropagatorMatrix:
    """Exact evolution matrix U(t, t0) with U(t0, t0) = identity."""
    return _propagator_end(*_propagator_start(p, t0), t)


def _propagator_start(p: ModelParams, t0: float) -> tuple:
    """What `propagator` needs of t0 alone: (p, t0, d, x0, basis at x0), the
    last two None at zero coupling.  A sweep over t builds it once."""
    d = derived_params(p)
    if d.c == 0:
        return p, t0, d, None, None
    x0 = x_of_t(p, t0)
    return p, t0, d, x0, basis_solutions(d, x0)


def _propagator_end(p, t0, d, x0, b0, t: float) -> PropagatorMatrix:
    """U(t, t0) from a start.  The determinant check at t0 runs after the
    basis at t, so a point that fails both raises the error of the basis at t."""
    if b0 is None:
        ph = gauge_factor(p, t0, t)
        return PropagatorMatrix(u11=1.0 / ph, u12=0.0, u21=0.0, u22=ph, t=t)
    bt = basis_solutions(d, x_of_t(p, t))
    w12 = transition_parameter_omega12(d, x0)
    if w12 == 0 or not cmath.isfinite(w12):
        raise DegeneracyError(f"basis determinant vanished at t0 = {t0}")
    residual = abs((b0.u2 * b0.v1 - b0.v2 * b0.u1) / w12 - 1)
    if not residual <= BASIS_RESIDUAL_LIMIT:  # NaN raises too
        raise AccuracyError(f"basis residual {residual:.2e} at t0 = {t0}", residual=residual)
    ph = gauge_factor(p, t0, t)
    s = ph / w12
    return PropagatorMatrix(
        u11=s * (bt.u2 * b0.v1 - bt.v2 * b0.u1),
        u12=s * (bt.v2 * b0.u2 - bt.u2 * b0.v2),
        u21=s * (bt.u1 * b0.v1 - bt.v1 * b0.u1),
        u22=s * (bt.v1 * b0.u2 - bt.u1 * b0.v2),
        t=t,
    )


def populations(p: ModelParams, t0: float, t: float) -> PopulationRecord:
    """Populations at time t for the initial state (0, 1) prepared at t0."""
    return _population_record(propagator(p, t0, t))


def _population_record(u: PropagatorMatrix) -> PopulationRecord:
    c1, c2 = u.u12, u.u22
    p12 = abs(c1) ** 2
    p22 = abs(c2) ** 2
    return PopulationRecord(
        p12_paper=c1.real + c1.imag,
        p22_paper=c2.real + c2.imag,
        p12_mod2=p12,
        p22_mod2=p22,
        norm=p12 + p22,
    )
