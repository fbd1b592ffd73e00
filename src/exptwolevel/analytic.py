"""Closed-form amplitudes and propagator for the exponential two-level model.

After stripping the dynamical phase of the diagonal sweep and changing
variables to x = exp(alpha*t + beta), the lower amplitude satisfies

    x^2 psi'' + x*(a - b*x) psi' + c^2 psi = 0,

which the substitution psi = x^mu z(b*x) maps onto Kummer's equation for
either root mu of mu^2 - (1 - a) mu + c^2 = 0.  Each root gives one
fundamental column, built from Kummer's function M of `specfun` alone:

    lower component:  x^mu M(mu, 2 mu + a, b x)
    upper component:  (i mu / c) x^mu M(mu + 1, 2 mu + a, b x)

Column 1 is taken at mu1, column 2 at mu2 = mu1 - gamma + 1; that is the pair
{M(mu, gamma, z), z^(1-gamma) M(mu-gamma+1, 2-gamma, z)} of DLMF 13.2(v), up to
a constant factor.  The upper entry is (i/c) x d/dx of the lower one, since
(z d/dz + mu) M(mu, g, z) = mu M(mu+1, g, z) (DLMF 13.3(ii)); that is exactly
the first-order system's constraint, so each column is a genuine solution of
the coupled equations (up to the common gauge factor).  The pair degenerates
where gamma is an integer: a non-positive gamma or 2 - gamma is a pole of M,
and `kummer_m` raises `PoleError` there.

The propagator is formed as a Wronskian ratio: the numerator matrix at time t
against the closed-form determinant at time t0, which is stable where direct
2x2 inversion of a nearly degenerate basis would not be.  A basis that lost
its accuracy to cancellation shows in its numeric determinant, which then
strays from the closed form; past specfun's ACCURACY_TARGET the propagator
raises, at t0 in its start (which a sweep shares across its t axis) and at t.

`AmplitudePair` is the one record of a pair of amplitudes, from the closed
form or an oracle; the populations the figures plot are its properties.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AccuracyError, DegeneracyError, DomainError
from .model import DerivedParams, ModelParams, derived_params, omega_integral, x_of_t
from .specfun import ACCURACY_TARGET, _safe_exp, kummer_m


@dataclass(frozen=True)
class AmplitudePair:
    """State amplitudes (c1, c2) at time t; c1 pairs with the +detuning level.

    Its populations come in two reporting conventions.  ``p12_paper`` and
    ``p22_paper`` are the literal Re c + Im c of c1 and c2 -- not a modulus,
    so they can be negative or exceed one.  ``p12_mod2`` and ``p22_mod2`` are
    the standard |c|^2, and ``norm`` is their sum, not conserved when Delta != 0.
    """

    c1: complex
    c2: complex
    t: float

    @property
    def p12_paper(self) -> float:
        return self.c1.real + self.c1.imag

    @property
    def p22_paper(self) -> float:
        return self.c2.real + self.c2.imag

    @property
    def p12_mod2(self) -> float:
        return abs(self.c1) ** 2

    @property
    def p22_mod2(self) -> float:
        return abs(self.c2) ** 2

    @property
    def norm(self) -> float:
        return self.p12_mod2 + self.p22_mod2


@dataclass(frozen=True)
class BasisSolutions:
    """Values of the two fundamental solution columns at one point x.

    Column 1 is (u2, u1), the Kummer column at mu1; column 2 is (v2, v1), the
    Kummer column at mu2.  The first entry of each is the upper component.
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

    def as_array(self):
        import numpy as np
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=complex)

    def apply(self, init: AmplitudePair) -> AmplitudePair:
        return AmplitudePair(
            c1=self.u11 * init.c1 + self.u12 * init.c2,
            c2=self.u21 * init.c1 + self.u22 * init.c2,
            t=self.t,
        )


def basis_solutions(d: DerivedParams, x: float) -> BasisSolutions:
    """Evaluate both fundamental solution columns at x > 0."""
    _require_positive(x)
    if d.c == 0:
        raise DegeneracyError("zero coupling: the system is diagonal, no basis needed")
    u2, u1 = _kummer_column(d, d.mu1, x)
    v2, v1 = _kummer_column(d, d.mu2, x)
    return BasisSolutions(u1=u1, v1=v1, u2=u2, v2=v2)


def _kummer_column(d: DerivedParams, mu: complex, x: float) -> tuple:
    """(upper, lower) entries of the column at the exponent mu, at x."""
    g, z = 2.0 * mu + d.a, d.b * x
    xpow = _safe_exp(mu * math.log(x))
    lower = xpow * kummer_m(mu, g, z)
    return (1j * mu / d.c) * xpow * kummer_m(mu + 1, g, z), lower


def _require_positive(x: float) -> None:
    if not 0 < x < math.inf:  # NaN fails it too
        raise DomainError(f"x must be positive and finite, got {x}")


def transition_parameter_omega12(d: DerivedParams, x: float) -> complex:
    """Closed form of the basis determinant u2*v1 - v2*u1 at the point x.

    Equal to (i/c) * (mu1 - mu2) * x^(1-a) * exp(b x), from the Wronskian
    (1-gamma) z^-gamma e^z of M(mu, gamma, z) and z^(1-gamma) M(mu2, 2-gamma, z)
    (DLMF 13.2.34); no Gamma factor enters.
    """
    _require_positive(x)
    if d.c == 0:
        raise DomainError("zero coupling: determinant formula undefined")
    return (1j / d.c) * (d.mu1 - d.mu2) * cmath.exp((1.0 - d.a) * math.log(x) + d.b * x)


def amplitudes(p: ModelParams, init: AmplitudePair, t: float) -> AmplitudePair:
    """Propagate the state from init.t to t using the closed-form solution."""
    return propagator(p, init.t, t).apply(init)


def propagator(p: ModelParams, t0: float, t: float) -> PropagatorMatrix:
    """Exact evolution matrix U(t, t0) with U(t0, t0) = identity."""
    return _propagator_end(*_propagator_start(p, t0), t)


def _propagator_start(p: ModelParams, t0: float) -> tuple:
    """What `propagator` needs of t0 alone, built once per sweep over t: (p, t0,
    d, checked basis at x0, its determinant w12), the last two None at zero coupling."""
    d = derived_params(p)
    if d.c == 0:
        return p, t0, d, None, None
    return (p, t0, d, *_checked_basis(d, x_of_t(p, t0)))


def _propagator_end(p, t0, d, b0, w12, t: float) -> PropagatorMatrix:
    """U(t, t0) from a start: the gauge phase times Wronskian-ratio products of checked bases."""
    # the stripped gauge phase exp(i * integral of the detuning from t0 to t)
    ph = cmath.exp(1j * omega_integral(p, t0, t))
    if b0 is None:
        return PropagatorMatrix(u11=1.0 / ph, u12=0.0, u21=0.0, u22=ph, t=t)
    bt = _checked_basis(d, x_of_t(p, t))[0]
    s = ph / w12
    return PropagatorMatrix(
        u11=s * (bt.u2 * b0.v1 - bt.v2 * b0.u1),
        u12=s * (bt.v2 * b0.u2 - bt.u2 * b0.v2),
        u21=s * (bt.u1 * b0.v1 - bt.v1 * b0.u1),
        u22=s * (bt.v1 * b0.u2 - bt.u1 * b0.v2),
        t=t,
    )


def _checked_basis(d: DerivedParams, x: float) -> tuple:
    """(basis, closed-form determinant w12) at x; AccuracyError where the numeric determinant
    is off w12 past ACCURACY_TARGET (good random-box rows read up to 7.3e-10)."""
    b = basis_solutions(d, x)
    w12 = transition_parameter_omega12(d, x)
    if w12 == 0 or not cmath.isfinite(w12):
        raise DegeneracyError(f"basis determinant vanished at x = {x}")
    residual = abs((b.u2 * b.v1 - b.v2 * b.u1) / w12 - 1)
    if not residual <= ACCURACY_TARGET:  # NaN raises too
        raise AccuracyError(f"basis residual {residual:.2e} at x = {x}", residual=residual)
    return b, w12


def populations(p: ModelParams, t0: float, t: float) -> AmplitudePair:
    """Amplitudes at time t of the initial state (0, 1) prepared at t0, that
    is column 2 of the propagator; the populations are its properties."""
    return _prepared_in_lower(propagator(p, t0, t))


def _prepared_in_lower(u: PropagatorMatrix) -> AmplitudePair:
    """Amplitudes at u.t of the state (0, 1) prepared at u's start: column 2 of u."""
    return AmplitudePair(u.u12, u.u22, u.t)
