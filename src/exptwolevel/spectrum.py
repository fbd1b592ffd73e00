"""Complex instantaneous eigenvalues of the non-Hermitian two-level model.

The direct route diagonalizes H(t) exactly: E = +/- sqrt(Omega^2 + delta^2)
with Omega the half detuning and delta the half coupling, formed once as
E = sqrt(Z)/2 with Z = (2 Omega)^2 + epsilon^2 - Delta^2 + 2 i epsilon Delta.
The closed-form route expresses the same spectrum through a complex mixing
angle built from the bare sweep 2*Omega and the bare coupling
(epsilon + i*Delta); the two routes differ by a constant convention factor
that is independent of time, which downstream tests pin numerically.

The real/imaginary decomposition reads the polar form 2E = |Z|^(1/2) exp(i*phi)
off that one root, phi = arg(Z)/2 = arg(E).  Z's real and imaginary parts
are formed apart, so a zero imaginary part keeps its sign and the root sits
on its side of the cut: Delta -> -Delta conjugates E, also at epsilon = 0.
Its record holds E+, E-, phi and |Z|^(1/2), and a `spectrum` sweep row reads
the real and imaginary parts of E+ and E-; the 2-D energy maps of the paper
are such sweeps (see `sweep`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError
from .model import ModelParams, detuning


@dataclass(frozen=True)
class EnergyDecomposition:
    e_plus: complex
    e_minus: complex
    phi: float
    z_mag: float


def eigenvalues_direct(p: ModelParams, t: float) -> tuple[complex, complex]:
    """Exact eigenvalues +/- sqrt(Omega^2 + delta^2) = +/- sqrt(Z)/2 of H(t)."""
    om_bar = 2.0 * detuning(p, t)
    z = complex(om_bar * om_bar + (p.epsilon * p.epsilon - p.Delta * p.Delta),
                2.0 * p.epsilon * p.Delta)
    r = 0.5 * cmath.sqrt(z)
    return r, -r


def eigenvalues_closed_form(p: ModelParams, t: float) -> tuple[complex, complex]:
    """Mixing-angle form: E = +/- delta_bar / sin(2*theta) with
    tan(2*theta) = -delta_bar / Omega_bar, using the bare sweep
    Omega_bar = 2*Omega(t) and bare coupling delta_bar = epsilon + i*Delta.
    """
    om_bar = 2.0 * detuning(p, t)
    if om_bar == 0:
        raise DomainError("closed form undefined where the detuning vanishes")
    dl_bar = complex(p.epsilon, p.Delta)
    if dl_bar == 0:
        raise DomainError("closed form undefined at zero coupling (sin 2*theta = 0)")
    theta = 0.5 * cmath.atan(-dl_bar / om_bar)
    s = cmath.sin(2.0 * theta)
    e_plus = dl_bar / s
    return e_plus, -e_plus


def energy_decomposition(p: ModelParams, t: float) -> EnergyDecomposition:
    """The exact eigenvalues with the polar form 2E+ = |Z|^(1/2) exp(i*phi)."""
    e_plus, e_minus = eigenvalues_direct(p, t)
    return EnergyDecomposition(e_plus=e_plus, e_minus=e_minus,
                               phi=cmath.phase(e_plus), z_mag=2.0 * abs(e_plus))
