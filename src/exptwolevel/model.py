"""Physical model definition: parameters, the detuning and coupling of the
Hamiltonian, the exponential variable change, and the derived
hypergeometric parameters.

Detuning O(t) = (A e^{a t + b} + eps) / 2 and coupling d = (i Delta + eps)/2
make the Hamiltonian

    H(t) = [[ O(t), d ],
            [ d,  -O(t) ]]

non-Hermitian whenever Delta != 0.  The substitution x = e^{alpha t + beta}
turns the gauge-reduced second-order equation into confluent-hypergeometric
form with parameters (a, b, c) and exponents (mu1, mu2); see `analytic`.

Unit convention: all five constants are taken in mutually consistent
frequency/time units; no internal conversion is performed.  Exponents
|alpha*t + beta| > ExponentOverflowError.LIMIT are rejected rather than
saturated so that silent infinities never reach the special functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, fields

from .errors import DomainError, ExponentOverflowError


@dataclass(frozen=True)
class AxisSpec:
    """A swept parameter axis: uniformly sampled closed interval."""

    name: str
    start: float
    stop: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("axis needs at least one sample")
        if not math.isfinite(self.stop - self.start):
            raise DomainError(f"axis {self.name} needs a finite span: {self.start}..{self.stop}")

    def values(self) -> list[float]:
        if self.samples == 1:
            return [float(self.start)]
        step = (self.stop - self.start) / (self.samples - 1)
        return [self.start + i * step for i in range(self.samples)]


@dataclass(frozen=True)
class ModelParams:
    """The five physical constants plus the time window of interest."""

    A: float
    alpha: float
    beta: float
    epsilon: float
    Delta: float
    t0: float
    t1: float

    def __post_init__(self):
        require_finite(self)
        if self.alpha == 0.0:
            raise DomainError("alpha must be nonzero (x = exp(alpha t + beta) degenerates)")
        if not self.t0 < self.t1:
            raise DomainError(f"require t0 < t1, got t0={self.t0}, t1={self.t1}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelParams":
        return cls(**{f.name: json_number(d[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class DerivedParams:
    """Confluent-hypergeometric parameter set computed from ModelParams.

    mu1 is the minus branch of (1 - a -+ sqrt((1-a)^2 - 4c^2))/2 with the
    principal square root; gamma = 2*mu1 + a.
    """

    a: complex
    b: complex
    c: complex
    mu1: complex
    mu2: complex
    gamma: complex


def require_finite(params) -> None:
    """Raise DomainError unless every field of a parameter record is finite."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def json_number(value) -> float:
    """A JSON number as float; a bool or a string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _checked_exponent(p: ModelParams, t: float) -> float:
    w = p.alpha * t + p.beta
    if math.isnan(w):  # alpha and beta are finite, so t is NaN
        raise DomainError(f"time must be a number, got t = {t}")
    if abs(w) > ExponentOverflowError.LIMIT:
        raise ExponentOverflowError(w)
    return w


def detuning(p: ModelParams, t: float) -> float:
    """O(t) = (A exp(alpha t + beta) + epsilon) / 2."""
    return 0.5 * (p.A * math.exp(_checked_exponent(p, t)) + p.epsilon)


def coupling(p: ModelParams) -> complex:
    """d = (i Delta + epsilon) / 2."""
    return 0.5 * complex(p.epsilon, p.Delta)


def x_of_t(p: ModelParams, t: float) -> float:
    """x = exp(alpha t + beta), strictly monotone with the sign of alpha."""
    return math.exp(_checked_exponent(p, t))


def t_of_x(p: ModelParams, x: float) -> float:
    """Inverse of x_of_t; requires x > 0."""
    if not x > 0.0:
        raise DomainError(f"t_of_x requires x > 0, got x={x}")
    return (math.log(x) - p.beta) / p.alpha


def derived_params(p: ModelParams) -> DerivedParams:
    a = 1.0 + 1j * p.epsilon / p.alpha
    b = -1j * p.A / p.alpha
    c = complex(p.epsilon, p.Delta) / (2.0 * p.alpha)
    root = cmath.sqrt((1.0 - a) ** 2 - 4.0 * c * c)
    mu1 = 0.5 * ((1.0 - a) - root)
    mu2 = 0.5 * ((1.0 - a) + root)
    gamma = 2.0 * mu1 + a
    return DerivedParams(a=a, b=b, c=c, mu1=mu1, mu2=mu2, gamma=gamma)


def omega_integral(p: ModelParams, ta: float, tb: float) -> float:
    """Integral of the detuning over [ta, tb]; its gauge phase
    exp(-i * omega_integral) would be NaN were it to overflow, so that raises."""
    ea = math.exp(_checked_exponent(p, ta))
    eb = math.exp(_checked_exponent(p, tb))
    w = 0.5 * p.A / p.alpha * (eb - ea) + 0.5 * p.epsilon * (tb - ta)
    if not math.isfinite(w):
        raise ExponentOverflowError(complex(0.0, w))
    return w
