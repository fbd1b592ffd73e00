"""Constant-Hamiltonian limit: closed-form survival, the independent
matrix-exponential oracle, convergence of the exponential model, the
interferogram sweep, and the short-time similarity of the model to Rabi's."""

import math

import numpy as np
import pytest

from exptwolevel.analytic import propagator
from exptwolevel.errors import ConfigError, DegeneracyError, DomainError, ExponentOverflowError
from exptwolevel.model import AxisSpec, ModelParams, coupling, detuning
from exptwolevel.rabi import (
    RabiParams,
    constant_h_propagator,
    rabi_limit_convergence,
    rabi_survival_closed_form,
    rabi_survival_oracle,
)
import exptwolevel.sweep as sweep
from exptwolevel.sweep import FIGURES, SweepConfig, run_sweep


class TestClosedForm:
    def test_zero_time(self):
        assert rabi_survival_closed_form(RabiParams(0.7, 0.3, 0.0)) == 0.0

    def test_delta_zero_reduction(self):
        # reduces to (1/2) sin^2(eps t / sqrt(2)), real
        eps = 0.9
        period = math.sqrt(2.0) * math.pi / eps
        for t in np.linspace(0.0, 3.0 * period, 97):
            got = rabi_survival_closed_form(RabiParams(eps, 0.0, float(t)))
            expect = 0.5 * math.sin(eps * float(t) / math.sqrt(2.0)) ** 2
            assert abs(got.imag) < 1e-12
            assert abs(got.real - expect) < 1e-10
            assert -1e-12 <= got.real <= 0.5 + 1e-12

    def test_delta_zero_periodicity(self):
        eps = 1.3
        period = math.sqrt(2.0) * math.pi / eps
        for t in (0.4, 1.1, 2.9):
            a = rabi_survival_closed_form(RabiParams(eps, 0.0, t))
            b = rabi_survival_closed_form(RabiParams(eps, 0.0, t + period))
            assert abs(a - b) < 1e-10

    def test_complex_for_nonzero_delta(self):
        got = rabi_survival_closed_form(RabiParams(0.5, 0.2, 3.0))
        assert abs(got.imag) > 1e-6

    def test_degenerate_frequency_rejected(self):
        with pytest.raises(DegeneracyError):
            rabi_survival_closed_form(RabiParams(0.0, 0.0, 1.0))

    def test_overflow_is_typed(self):
        # sin^2 of the angle 2500i overflows: the error names the exponent 5000
        with pytest.raises(ExponentOverflowError) as info:
            rabi_survival_closed_form(RabiParams(0.0, 5.0, 1000.0))
        assert info.value.exponent == pytest.approx(5000.0)

    def test_modulus_matches_oracle_transfer(self):
        # the closed form's modulus is |U21|^2 of the constant-H propagator
        # at every Delta, not only in the Hermitian case
        rng = np.random.default_rng(20241207)
        for _ in range(2000):
            eps, D = rng.uniform(-3.0, 3.0, size=2)
            t = rng.uniform(0.0, 10.0)
            r = RabiParams(float(eps), float(D), float(t))
            got = abs(rabi_survival_closed_form(r))
            want = rabi_survival_oracle(r).p12_mod2
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestOracle:
    def test_initial_condition(self):
        rec = rabi_survival_oracle(RabiParams(0.8, 0.3, 0.0))
        assert rec.p22_mod2 == pytest.approx(1.0)
        assert rec.p12_mod2 == pytest.approx(0.0)

    def test_overflow_is_typed(self):
        # the amplitudes grow as e^2500, past the float range (no numpy warning)
        with pytest.raises(ExponentOverflowError):
            rabi_survival_oracle(RabiParams(0.0, 5.0, 1000.0))

    def test_entries_are_the_propagators(self):
        # the oracle's amplitudes are bitwise the constant-H propagator's U21 and
        # U11, on both sides of its small-angle branch (|w| < 1e-6), and both
        # match scipy's expm to 1e-13 of the entries' scale
        from scipy.linalg import expm

        def bits(c):
            return float(c.real).hex(), float(c.imag).hex()

        rng = np.random.default_rng(7)
        ts = np.concatenate([rng.uniform(0.0, 10.0, 40), rng.uniform(0.0, 1e-7, 10)])
        for t in ts:
            eps, D = rng.uniform(-2.0, 2.0, size=2)
            r = RabiParams(float(eps), float(D), float(t))
            h = np.array([[eps / 2, (eps + 1j * D) / 2], [(eps + 1j * D) / 2, -eps / 2]])
            u = constant_h_propagator(h, r.t)
            a = rabi_survival_oracle(r)
            assert bits(a.c1) == bits(u[1, 0]) and bits(a.c2) == bits(u[0, 0])
            ref = expm(-1j * h * r.t)
            tol = 1e-13 * max(1.0, np.max(np.abs(ref)))  # entries grow as e^|Im w|
            assert max(abs(a.c1 - ref[1, 0]), abs(a.c2 - ref[0, 0])) < tol
            assert np.max(np.abs(u - ref)) < tol

    def test_delta_zero_analytic(self):
        # Hermitian case: survival = 1 - (1/2) sin^2(eps t / sqrt 2)
        eps, t = 0.7, 2.3
        rec = rabi_survival_oracle(RabiParams(eps, 0.0, t))
        expect = 1.0 - 0.5 * math.sin(eps * t / math.sqrt(2.0)) ** 2
        assert rec.p22_mod2 == pytest.approx(expect, abs=1e-12)
        assert rec.norm == pytest.approx(1.0, abs=1e-12)

    def test_delta_zero_recurrence_period(self):
        # first full recurrence of the survival at t = 2 pi / (eps sqrt 2) ... pi?
        eps = 1.0
        period = math.sqrt(2.0) * math.pi / eps
        ts = np.linspace(0.01, 2.0 * period, 4000)
        survs = [rabi_survival_oracle(RabiParams(eps, 0.0, float(t))).p22_mod2 for t in ts]
        # locate the first return to 1 after leaving it
        idx = next(i for i in range(1, len(ts)) if survs[i] > 1.0 - 1e-6 and ts[i] > 0.5)
        assert ts[idx] == pytest.approx(period, rel=1e-2)

    def test_nonzero_delta_norm_drifts(self):
        norms = [rabi_survival_oracle(RabiParams(0.8, 0.4, float(t))).norm
                 for t in np.linspace(0.2, 6.0, 30)]
        assert max(norms) > 1.0 + 1e-3 or min(norms) < 1.0 - 1e-3

    def test_known_discrepancy_with_closed_form(self):
        # the former 7/8 discrepancy is resolved: the coefficient
        # (4 eps^2 + 3 d^2) / (4 (eps^2 + d^2)) was replaced by Rabi's
        # d^2 / (eps^2 + d^2), which the constant-H dynamics obey, so at
        # resonance the closed form and the oracle transfer share depth 1/2
        eps = 0.7
        t = math.pi / (eps * math.sqrt(2.0))  # deepest point
        cf = rabi_survival_closed_form(RabiParams(eps, 0.0, float(t)))
        orc = rabi_survival_oracle(RabiParams(eps, 0.0, float(t)))
        assert cf.real == pytest.approx(0.5, abs=1e-10)
        assert orc.p12_mod2 == pytest.approx(0.5, abs=1e-10)

    def test_discrepancy_continuous_in_delta(self):
        t = 2.0
        gaps = []
        for D in np.linspace(-0.3, 0.3, 25):
            cf = rabi_survival_closed_form(RabiParams(0.7, float(D), t))
            orc = rabi_survival_oracle(RabiParams(0.7, float(D), t))
            gaps.append(abs(cf) - orc.p22_mod2)
        jumps = np.abs(np.diff(gaps))
        assert np.max(jumps) < 0.05


class TestConvergence:
    def test_exact_when_a_zero(self):
        p = ModelParams(A=0.0, alpha=1.0, beta=0.0, epsilon=1.0, Delta=0.3, t0=-5.0, t1=20.0)
        assert rabi_limit_convergence(p, 0.0) < 1e-10

    def test_threshold_violation_rejected(self):
        p = ModelParams(A=1.0, alpha=1.0, beta=0.0, epsilon=1.0, Delta=0.3, t0=-5.0, t1=20.0)
        with pytest.raises(DomainError) as exc:
            rabi_limit_convergence(p, 0.0)  # alpha t + beta = 0, magnitude 1
        assert "magnitude" in str(exc.value)

    def test_linear_scaling_two_decades(self):
        p = ModelParams(A=1.0, alpha=1.0, beta=0.0, epsilon=1.0, Delta=0.3, t0=-40.0, t1=0.0)
        mags, devs = [], []
        for k in range(3):  # magnitudes 1e-4, 1e-5, 1e-6 relative to eps
            t_probe = -math.log(1e4 * 10.0**k)
            mags.append(math.exp(t_probe))
            devs.append(rabi_limit_convergence(p, t_probe))
        slope = (math.log(devs[0]) - math.log(devs[-1])) / (
            math.log(mags[0]) - math.log(mags[-1])
        )
        assert abs(slope - 1.0) < 0.2


class TestInterferogram:
    T_AXIS = AxisSpec("t", 0.0, 6.0, 13)
    E_AXIS = AxisSpec("epsilon", -1.5, 1.5, 11)
    # Delta = 0.2; the exponential model's other parameters play no part
    BASE = ModelParams(A=0.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.2, t0=-1.0, t1=0.0)

    def grid(self, t_axis=T_AXIS, e_axis=E_AXIS) -> dict:
        """Each column of the interferogram sweep as a [t][epsilon] grid."""
        ds = run_sweep(SweepConfig(self.BASE, (t_axis, e_axis), "interferogram", oracle=True))
        n = e_axis.samples
        return {
            col: [[row[j] for row in ds.rows[i:i + n]] for i in range(0, len(ds.rows), n)]
            for j, col in enumerate(ds.columns)
        }

    def test_shapes(self):
        g = self.grid()
        assert len(g["p_real"]) == 13 and len(g["p_real"][0]) == 11
        assert len(g["p_mod2_oracle"]) == 13

    def test_reflection_symmetry_mod2(self):
        g = self.grid()
        for row in g["p_mod2_oracle"]:
            for j in range(len(row)):
                assert row[j] == pytest.approx(row[len(row) - 1 - j], abs=1e-12)

    def test_zero_time_row_trivial(self):
        g = self.grid(t_axis=AxisSpec("t", 0.0, 0.0, 1))
        assert all(v == 0.0 for v in g["p_real"][0])
        assert all(v == pytest.approx(1.0) for v in g["p_mod2_oracle"][0])

    def test_eps_zero_column_resolution_independent(self):
        coarse = self.grid(e_axis=AxisSpec("epsilon", -1.0, 1.0, 3))
        fine = self.grid(e_axis=AxisSpec("epsilon", -1.0, 1.0, 21))
        for i in range(13):
            assert coarse["p_modulus"][i][1] == fine["p_modulus"][i][10]

    def test_oracle_off_skips_oracle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep, "rabi_survival_oracle", calls.append)
        ds = run_sweep(SweepConfig(self.BASE, (self.T_AXIS, self.E_AXIS), "interferogram"))
        assert ds.columns == ["t", "epsilon", "p_real", "p_modulus", "error"]
        assert calls == []

    def test_bad_axis_names_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(self.BASE, (self.E_AXIS, self.T_AXIS), "interferogram")

    def test_slice_matches_oracle_columns(self):
        # the oracle layer is exactly rabi_survival_oracle pointwise
        g = self.grid()
        t = self.T_AXIS.values()[5]
        e = self.E_AXIS.values()[3]
        assert g["p_mod2_oracle"][5][3] == rabi_survival_oracle(RabiParams(e, 0.2, t)).p22_mod2


@pytest.mark.parametrize("n", [3, 2], ids=["figure-3", "figure-2"])
def test_short_time_rabi_similarity(n):
    # the abstract: the first Nikitin model "exhibits similarities to the Rabi
    # model in the short-time approximation".  U(t0 + tau, t0) departs from the
    # frozen-Hamiltonian exp(-i H(t0) tau) at order tau^2, with the first Magnus
    # coefficient |Omega'(t0)| / 2 (0.5 at the figure-3 base, 2.24 at figure 2's)
    p = FIGURES[n][0]
    omega, d = detuning(p, p.t0), coupling(p)
    h0 = np.array([[omega, d], [d, -omega]])
    slope = abs(p.alpha * p.A * math.exp(p.alpha * p.t0 + p.beta)) / 2.0  # Omega'(t0)
    taus = [0.2 / 2**k for k in range(5)]
    devs = [np.max(np.abs(propagator(p, p.t0, p.t0 + tau).as_array()
                          - constant_h_propagator(h0, tau))) for tau in taus]
    # each halving of tau divides the departure by ~4 ...
    assert all(3.9 < a / b < 4.2 for a, b in zip(devs, devs[1:]))
    # ... and its tau^2 coefficient tends to |Omega'(t0)| / 2
    assert devs[-1] / taus[-1] ** 2 == pytest.approx(slope / 2.0, rel=0.01)
