"""Model definition: Hamiltonian structure, the exponential variable change,
derived hypergeometric parameters, and the detuning integral."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from exptwolevel.analytic import (
    basis_solutions,
    populations,
    propagator,
    transition_parameter_omega12,
)
from exptwolevel.errors import DomainError, ExponentOverflowError
from exptwolevel.model import (
    AxisSpec,
    ModelParams,
    coupling,
    derived_params,
    detuning,
    omega_integral,
    t_of_x,
    x_of_t,
)
from exptwolevel.rabi import RabiParams, rabi_limit_convergence, rabi_survival_closed_form
from exptwolevel.specfun import (
    kummer_m,
    kummer_m_derivative,
    ln_gamma_complex,
    tricomi_u,
    tricomi_u_derivative,
    wronskian_residual,
)
from exptwolevel.spectrum import energy_decomposition


def hamiltonian(p, t):
    """The 2x2 matrix [[O, d], [d, -O]] built from the model's detuning and coupling."""
    om, d = detuning(p, t), coupling(p)
    return np.array([[om, d], [d, -om]], dtype=complex)


P = ModelParams(A=2.0, alpha=1.0, beta=1.5, epsilon=0.5, Delta=0.5, t0=-5.0, t1=5.0)


class TestParams:
    def test_zero_alpha_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(A=1.0, alpha=0.0, beta=0.0, epsilon=0.1, Delta=0.1, t0=0.0, t1=1.0)

    def test_bad_window_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(A=1.0, alpha=1.0, beta=0.0, epsilon=0.1, Delta=0.1, t0=2.0, t1=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["A", "alpha", "beta", "epsilon", "Delta", "t0", "t1"])
    def test_non_finite_rejected(self, name, value):
        # the sweep builds each point with replace(), so a swept value is checked too
        with pytest.raises(DomainError, match=name):
            replace(P, **{name: value})

    def test_json_round_trip(self):
        q = ModelParams.from_json_dict(P.to_json_dict())
        assert q == P

    def test_axis_needs_a_sample(self):
        with pytest.raises(DomainError):
            AxisSpec("t", 0.0, 1.0, 0)

    @pytest.mark.parametrize("start, stop", [(math.nan, 1.0), (0.0, math.inf),
                                             (-math.inf, 0.0), (-1e308, 1e308)],
                             ids=["nan", "inf", "-inf", "span-overflow"])
    def test_axis_span_must_be_finite(self, start, stop):
        # a sample start + i * step would be NaN or infinite
        with pytest.raises(DomainError):
            AxisSpec("t", start, stop, 3)


DECOUPLED = replace(P, epsilon=0.0, Delta=0.0)


@pytest.mark.parametrize(
    "call",
    [lambda: propagator(P, 0.0, math.nan), lambda: propagator(P, math.nan, 1.0),
     lambda: propagator(DECOUPLED, 0.0, math.nan), lambda: populations(P, 0.0, math.nan),
     lambda: energy_decomposition(P, math.nan), lambda: x_of_t(P, math.nan),
     lambda: detuning(P, math.nan), lambda: t_of_x(P, math.nan),
     lambda: rabi_survival_closed_form(RabiParams(math.nan, 0.2, 1.0)),
     lambda: RabiParams(0.2, 0.2, math.inf),
     lambda: rabi_limit_convergence(replace(P, alpha=-1.0, beta=-20.0), math.nan),
     lambda: kummer_m(math.nan, 1.0, 0.5), lambda: kummer_m(0.5, math.nan, 0.5),
     lambda: kummer_m(0.5, 1.5, math.nan), lambda: ln_gamma_complex(math.nan),
     lambda: tricomi_u(0.5, 1.5, math.nan), lambda: tricomi_u(0.5, 1.5, math.inf),
     lambda: wronskian_residual(0.5, 1.5, math.nan),
     lambda: basis_solutions(derived_params(P), math.nan),
     lambda: transition_parameter_omega12(derived_params(P), math.nan),
     lambda: kummer_m_derivative(0, 1.3, math.nan),
     lambda: tricomi_u_derivative(0, 1.3, math.inf)],
    ids=["propagator-t", "propagator-t0", "propagator-decoupled", "populations",
         "energy_decomposition", "x_of_t", "detuning", "t_of_x", "rabi-closed-form",
         "rabi-params-inf", "rabi-limit-convergence", "kummer-mu", "kummer-gamma",
         "kummer-z", "ln-gamma", "tricomi-z", "tricomi-z-inf", "wronskian-z",
         "basis-x", "omega12-x", "kummer-derivative-mu-zero", "tricomi-derivative-mu-zero"],
)
def test_non_finite_input_raises(call):
    # a NaN time or parameter raises instead of returning NaN
    with pytest.raises(DomainError):
        call()


class TestHamiltonian:
    def test_traceless(self):
        for t in np.linspace(P.t0, P.t1, 11):
            h = hamiltonian(P, float(t))
            assert abs(h[0, 0] + h[1, 1]) == 0.0

    def test_hermitian_iff_delta_zero(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.5, Delta=0.0, t0=0.0, t1=1.0)
        h = hamiltonian(q, 0.3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-15
        h2 = hamiltonian(P, 0.3)
        assert np.max(np.abs(h2 - h2.conj().T)) > 0.1

    def test_detuning_and_coupling_halves(self):
        t = 0.7
        assert detuning(P, t) == pytest.approx(0.5 * (2.0 * math.exp(t + 1.5) + 0.5))
        assert coupling(P) == 0.5 * (0.5 + 0.5j)

    def test_exponent_overflow_rejected(self):
        q = ModelParams(A=1.0, alpha=100.0, beta=0.0, epsilon=0.1, Delta=0.1, t0=0.0, t1=10.0)
        with pytest.raises(ExponentOverflowError):
            detuning(q, 10.0)


class TestVariableChange:
    def test_round_trip(self):
        for t in np.linspace(-4.0, 4.0, 17):
            assert t_of_x(P, x_of_t(P, float(t))) == pytest.approx(float(t), abs=1e-12)

    def test_nonpositive_x_rejected(self):
        with pytest.raises(DomainError):
            t_of_x(P, 0.0)
        with pytest.raises(DomainError):
            t_of_x(P, -1.0)

    def test_negative_alpha_decreasing(self):
        q = ModelParams(A=1.0, alpha=-2.0, beta=0.0, epsilon=0.1, Delta=0.1, t0=0.0, t1=5.0)
        assert x_of_t(q, 1.0) > x_of_t(q, 2.0)


class TestDerivedParams:
    def test_vieta(self):
        # mu1, mu2 are roots of mu^2 + (a - 1) mu + c^2 = 0
        for q in (
            P,
            ModelParams(A=1.0, alpha=-3.0, beta=0.2, epsilon=1.5, Delta=-0.7, t0=0.0, t1=1.0),
        ):
            d = derived_params(q)
            assert abs(d.mu1 + d.mu2 + (d.a - 1.0)) < 1e-13
            assert abs(d.mu1 * d.mu2 - d.c * d.c) < 1e-13

    def test_gamma_relation(self):
        d = derived_params(P)
        assert abs(d.gamma - (2.0 * d.mu1 + d.a)) < 1e-15

    def test_coefficient_map(self):
        d = derived_params(P)
        assert d.a == 1.0 + 1j * P.epsilon / P.alpha
        assert d.b == -1j * P.A / P.alpha
        assert abs(d.c - (1j * P.Delta + P.epsilon) / (2.0 * P.alpha)) < 1e-16


class TestOmegaIntegral:
    def test_against_quadrature(self):
        for ta, tb in [(-3.0, 2.0), (0.0, 4.0), (1.0, -1.0)]:
            expect, _ = quad(lambda s: detuning(P, s).real, ta, tb, limit=200)
            assert omega_integral(P, ta, tb) == pytest.approx(expect, rel=1e-10)

    def test_additivity(self):
        full = omega_integral(P, -2.0, 3.0)
        split = omega_integral(P, -2.0, 0.5) + omega_integral(P, 0.5, 3.0)
        assert full == pytest.approx(split, rel=1e-13)

    def test_antisymmetry(self):
        assert omega_integral(P, 1.0, 2.0) == pytest.approx(-omega_integral(P, 2.0, 1.0))
