"""Complex eigenvalue spectrum: characteristic polynomial, the two routes,
the real/imaginary split, grid maps as spectrum sweeps, and figure 5's
allowed and forbidden zones."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from exptwolevel.errors import ConfigError, DomainError
from exptwolevel.model import AxisSpec, ModelParams, coupling, detuning
from exptwolevel.spectrum import (
    eigenvalues_closed_form,
    eigenvalues_direct,
    energy_decomposition,
)
from exptwolevel.sweep import FIGURES, SweepConfig, _figure_config, run_sweep

P = ModelParams(A=2.0, alpha=1.0, beta=0.5, epsilon=0.5, Delta=0.5, t0=-5.0, t1=5.0)


class TestDirect:
    def test_characteristic_polynomial(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            q = ModelParams(
                A=rng.uniform(0.2, 5.0),
                alpha=rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0),
                beta=rng.uniform(-2.0, 2.0),
                epsilon=rng.uniform(-2.0, 2.0),
                Delta=rng.uniform(-2.0, 2.0),
                t0=-1.0,
                t1=1.0,
            )
            t = float(rng.uniform(-1.0, 1.0))
            e_plus, e_minus = eigenvalues_direct(q, t)
            target = detuning(q, t) ** 2 + coupling(q) ** 2
            scale = max(abs(target), 1e-30)
            assert abs(e_plus * e_plus - target) / scale < 1e-12
            assert abs(e_minus + e_plus) == 0.0

    def test_matches_numpy_eig(self):
        om, d = detuning(P, 0.7), coupling(P)
        vals = np.linalg.eigvals(np.array([[om, d], [d, -om]], dtype=complex))
        e_plus, e_minus = eigenvalues_direct(P, 0.7)
        assert sorted(vals, key=lambda v: v.real) == pytest.approx(
            sorted([e_plus, e_minus], key=lambda v: v.real), abs=1e-13
        )

    def test_large_detuning_asymptote(self):
        # E+ -> Omega as the exponential dominates
        q = ModelParams(A=2.0, alpha=1.0, beta=10.0, epsilon=0.5, Delta=0.5, t0=0.0, t1=5.0)
        e_plus, _ = eigenvalues_direct(q, 5.0)
        om = detuning(q, 5.0)
        assert abs(e_plus - om) / abs(om) < 1e-6


class TestClosedForm:
    def test_ratio_constant_over_time(self):
        ratios = []
        for t in np.linspace(-4.0, 4.0, 101):
            cf, _ = eigenvalues_closed_form(P, float(t))
            dr, _ = eigenvalues_direct(P, float(t))
            ratios.append(cf / dr)
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread < 1e-10
        # the convention factor between the two routes
        assert abs(abs(ratios[0]) - 2.0) < 1e-12

    def test_zero_detuning_rejected(self):
        q = ModelParams(A=-1.0, alpha=1.0, beta=0.0, epsilon=1.0, Delta=0.5, t0=-1.0, t1=1.0)
        # A e^{alpha t} + eps = 0 at t = 0
        with pytest.raises(DomainError):
            eigenvalues_closed_form(q, 0.0)

    def test_zero_coupling_rejected(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=-1.0, t1=1.0)
        with pytest.raises(DomainError):
            eigenvalues_closed_form(q, 0.5)


class TestDecomposition:
    def test_polar_consistency(self):
        d = energy_decomposition(P, 1.2)
        assert d.e_plus.real == pytest.approx(0.5 * d.z_mag * math.cos(d.phi), rel=1e-12)
        assert d.e_plus.imag == pytest.approx(0.5 * d.z_mag * math.sin(d.phi), rel=1e-12)
        assert d.z_mag == pytest.approx(2.0 * abs(d.e_plus), rel=1e-12)

    def test_conjugation_symmetry(self):
        # Delta -> -Delta conjugates the spectrum, also on the epsilon = 0
        # edge of the forbidden zone, where Im Z is a signed zero
        for p in (P, ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.0, Delta=0.5,
                                 t0=0.0, t1=7.0)):
            d1 = energy_decomposition(p, 0.8)
            d2 = energy_decomposition(replace(p, Delta=-p.Delta), 0.8)
            assert abs(d1.e_plus - d2.e_plus.conjugate()) < 1e-12
            assert d1.phi == pytest.approx(-d2.phi, abs=1e-12)

    def test_real_when_hermitian(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.5, Delta=0.0, t0=0.0, t1=2.0)
        d = energy_decomposition(q, 1.0)
        assert d.e_plus.imag == 0.0
        assert d.phi == 0.0

    def test_angle_well_defined_at_branch(self):
        # Re(Z) = 0: the angle must still be +/- pi/4
        q = ModelParams(A=0.0, alpha=1.0, beta=0.0, epsilon=1.0, Delta=math.sqrt(2.0),
                        t0=-1.0, t1=1.0)
        d = energy_decomposition(q, 0.0)
        assert abs(abs(d.phi) - math.pi / 4) < 1e-12


def spectrum_rows(axis1, axis2) -> list:
    """Rows of a spectrum sweep over the base P, each as {column: value}."""
    ds = run_sweep(SweepConfig(P, (axis1, axis2), "spectrum"))
    return [dict(zip(ds.columns, row)) for row in ds.rows]


def decomposition_values(d) -> dict:
    return {"re_e_plus": d.e_plus.real, "im_e_plus": d.e_plus.imag, "re_e_minus": d.e_minus.real,
            "im_e_minus": d.e_minus.imag, "phi": d.phi, "z_mag": d.z_mag}


class TestMap:
    def test_row_major_layout(self):
        grid = spectrum_rows(AxisSpec("Delta", -1.0, 1.0, 3), AxisSpec("epsilon", 0.0, 2.0, 2))
        assert len(grid) == 6
        # entry 1 is (Delta=-1, epsilon=2); recompute directly
        q = ModelParams(A=2.0, alpha=1.0, beta=0.5, epsilon=2.0, Delta=-1.0, t0=-5.0, t1=5.0)
        expect = decomposition_values(energy_decomposition(q, P.t1))
        assert (grid[1]["Delta"], grid[1]["epsilon"], grid[1]["error"]) == (-1.0, 2.0, 0)
        assert {k: grid[1][k] for k in expect} == expect

    def test_time_axis(self):
        grid = spectrum_rows(AxisSpec("t", 0.0, 1.0, 2), AxisSpec("Delta", 0.0, 1.0, 2))
        expect = decomposition_values(
            energy_decomposition(ModelParams(2.0, 1.0, 0.5, 0.5, 0.0, -5.0, 5.0), 0.0)
        )
        assert {k: grid[0][k] for k in expect} == expect

    def test_polar_form_on_every_row_at_epsilon_zero(self):
        # 2 E+ = |Z|^(1/2) exp(i phi) on each row, the forbidden zone included
        base = ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=7.0)
        ds = run_sweep(SweepConfig(base, (AxisSpec("Delta", -3.0, 3.0, 121),), "spectrum"))
        for row in ds.rows:
            r = dict(zip(ds.columns, row))
            assert r["error"] == 0
            e_plus = complex(r["re_e_plus"], r["im_e_plus"])
            assert abs(2.0 * e_plus - r["z_mag"] * cmath.exp(1j * r["phi"])) < 1e-12

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError):
            spectrum_rows(AxisSpec("Delta", 0.0, 1.0, 2), AxisSpec("Delta", 0.0, 1.0, 2))

    def test_zone_structure_along_delta(self):
        # in the frozen limit, Re(Z) = 2 eps^2 - Delta^2: the real/imaginary
        # balance flips sign along a Delta scan for small eps but not once
        # eps is large enough that 2 eps^2 > max Delta^2
        base = ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=7.0)

        def signs(eps):
            out = []
            for D in np.linspace(-3.0, 3.0, 121):
                q = ModelParams(1.0, -15.0, 0.0, eps, float(D), 0.0, 7.0)
                d = energy_decomposition(q, 7.0)
                out.append(math.copysign(1.0, d.e_plus.real**2 - d.e_plus.imag**2))
            return out

        assert len(set(signs(2.0))) == 2  # mixed zones for eps <= 2
        assert len(set(signs(3.0))) == 1  # single zone for large eps


def test_allowed_and_forbidden_zones_of_figure_5():
    # the paper's allowed and forbidden zones (figure 5): Re E = 0 exactly where
    # Z = (2 Omega)^2 + eps^2 - Delta^2 + 2i eps Delta is real and negative,
    # that is eps = 0 and Delta^2 > (2 Omega)^2
    ds = run_sweep(_figure_config(5))
    forbidden = 0
    for row in ds.rows:
        r = dict(zip(ds.columns, row))
        q = replace(FIGURES[5][0], epsilon=r["epsilon"], Delta=r["Delta"])
        two_omega = 2.0 * detuning(q, q.t1)
        zone = r["epsilon"] == 0 and r["Delta"] ** 2 > two_omega**2
        assert (r["re_e_plus"] == 0 and r["re_e_minus"] == 0) == zone, r
        forbidden += zone
    assert len(ds.rows) == 121 * 81 and forbidden == 120
