"""Closed-form solution: basis consistency, propagator algebra, gauge
independence, unitarity in the Hermitian sub-case, and oracle agreement."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import exptwolevel.analytic as analytic
from exptwolevel.analytic import (
    AmplitudePair,
    amplitudes,
    basis_solutions,
    populations,
    propagator,
    transition_parameter_omega12,
)
from exptwolevel.errors import (
    AccuracyError,
    DegeneracyError,
    DomainError,
    ExponentOverflowError,
    PoleError,
)
from exptwolevel.model import DerivedParams, ModelParams, derived_params, x_of_t
from exptwolevel.specfun import tricomi_u
from exptwolevel.oracle import IntegratorConfig, integrate_tdse_batch

P = ModelParams(A=2.0, alpha=1.0, beta=1.5, epsilon=0.5, Delta=0.5, t0=-5.0, t1=3.0)
P_HERM = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.2, Delta=0.0, t0=0.0, t1=5.0)
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestBasis:
    def test_lower_component_is_kummer_at_x_one(self):
        # at x = 1 the power prefactor drops out: u1(1) = M(mu, gamma, b)
        from exptwolevel.specfun import kummer_m, tricomi_u

        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.5, Delta=0.5, t0=-1.0, t1=1.0)
        d = derived_params(q)
        b = basis_solutions(d, 1.0)
        assert b.u1 == kummer_m(d.mu1, d.gamma, d.b)
        assert b.v1 == tricomi_u(d.mu1, d.gamma, d.b)

    @pytest.mark.parametrize(
        "mu, gamma, z",
        [
            (0.3 + 0.2j, 1.1 + 0.5j, 2.0 - 1.5j),  # |z| < RETRY_MIN: series only
            (0.5, 1.2, 30.0),  # U's connection misses the target; its retry is kept
            # beyond TAYLOR_RADIUS: M and U both retry their series route
            (18.918392215047565 - 100.93670063591014j, 37.83678443009513 - 116.16399890917033j,
             -47.920819464223165j),
            (0.3 + 0.2j, 2.0, 1.0 + 2.0j),  # integer gamma: U averages two offsets
        ],
        ids=["small-z", "retry-below-radius", "retry-above-radius", "integer-gamma"],
    )
    def test_shared_m_sums_bitwise(self, mu, gamma, z, monkeypatch):
        # each U reuses the M summed at its own point; the basis must equal
        # the one built from independent tricomi_u calls, bit for bit
        d = DerivedParams(a=0j, b=z / 1.5, c=0.7 - 0.2j, mu1=mu, mu2=0j, gamma=gamma)
        shared = basis_solutions(d, 1.5)
        monkeypatch.setattr(analytic, "_tricomi_u", lambda mu, g, z, m: tricomi_u(mu, g, z))
        unshared = basis_solutions(d, 1.5)
        as_bytes = lambda b: np.array([b.u1, b.v1, b.u2, b.v2]).tobytes()
        assert as_bytes(shared) == as_bytes(unshared)

    def test_determinant_matches_closed_form(self):
        d = derived_params(P)
        for t in (-4.0, -1.0, 0.0, 2.0):
            x = x_of_t(P, t)
            b = basis_solutions(d, x)
            det = b.u2 * b.v1 - b.v2 * b.u1
            w = transition_parameter_omega12(d, x)
            assert abs(det - w) / abs(w) < 1e-12

    def test_zero_coupling_rejected(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=1.0)
        with pytest.raises(DegeneracyError):
            basis_solutions(derived_params(q), 1.0)
        with pytest.raises(DomainError):
            transition_parameter_omega12(derived_params(q), 1.0)

    def test_integer_mu_rejected(self):
        # Gamma(mu) in the determinant formula has a pole at mu = -1
        with pytest.raises(PoleError):
            transition_parameter_omega12(replace(derived_params(P), mu1=-1.0), 1.0)


class TestPropagatorAlgebra:
    def test_identity_at_equal_times(self):
        u = propagator(P, -2.0, -2.0).as_array()
        assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_composition(self):
        ua = propagator(P, -3.0, 0.0).as_array()
        ub = propagator(P, 0.0, 2.0).as_array()
        uc = propagator(P, -3.0, 2.0).as_array()
        assert np.max(np.abs(ub @ ua - uc)) < 1e-11

    def test_propagator_consistent_with_amplitudes(self):
        init = AmplitudePair(0.3 + 0.1j, 0.9, -3.0)
        via_prop = propagator(P, -3.0, 1.5).apply(init)
        direct = amplitudes(P, init, 1.5)
        assert abs(via_prop.c1 - direct.c1) < 1e-10
        assert abs(via_prop.c2 - direct.c2) < 1e-10

    def test_unitary_when_hermitian(self):
        u = propagator(P_HERM, 0.0, 4.0).as_array()
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-8

    def test_decoupled_diagonal(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=2.0)
        u = propagator(q, 0.0, 1.0)
        assert u.u12 == 0.0 and u.u21 == 0.0
        assert abs(abs(u.u11) - 1.0) < 1e-14
        assert abs(u.u11 * u.u22 - 1.0) < 1e-14


class TestGaugeIndependence:
    def test_populations_equal_in_both_frames(self):
        # moduli computed from gauge-stripped amplitudes must equal the
        # populations from the full solution: the gauge factor is a pure phase
        from exptwolevel.model import omega_integral

        rec = populations(P, -3.0, 1.0)
        u = propagator(P, -3.0, 1.0)
        ph = cmath.exp(1j * omega_integral(P, -3.0, 1.0))
        assert abs(ph.imag**2 + ph.real**2 - 1.0) < 1e-12
        stripped = (u.u12 / ph, u.u22 / ph)
        assert abs(abs(stripped[0]) ** 2 - rec.p12_mod2) < 1e-12
        assert abs(abs(stripped[1]) ** 2 - rec.p22_mod2) < 1e-12


class TestOracleAgreement:
    @pytest.mark.parametrize("t", [-3.0, 0.0, 1.5, 3.0])
    def test_amplitudes_match_oracle(self, t):
        init = AmplitudePair(0.0, 1.0, P.t0)
        a = amplitudes(P, init, t)
        o = integrate_tdse_batch([P], (0.0, 1.0), init.t, t, TIGHT)[0]
        assert abs(a.c1 - o[0]) < 1e-9
        assert abs(a.c2 - o[1]) < 1e-9

    def test_negative_alpha_regime(self):
        q = ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.7, Delta=0.3, t0=0.0, t1=7.0)
        init = AmplitudePair(0.0, 1.0, 0.0)
        a = amplitudes(q, init, 7.0)
        o = integrate_tdse_batch([q], (0.0, 1.0), init.t, q.t1, TIGHT)[0]
        assert abs(a.c1 - o[0]) < 1e-9
        assert abs(a.c2 - o[1]) < 1e-9

    def test_general_initial_state(self):
        init = AmplitudePair(0.6, -0.8j, -2.0)
        a = amplitudes(P, init, 2.0)
        o = integrate_tdse_batch([P], (init.c1, init.c2), init.t, 2.0, TIGHT)[0]
        assert abs(a.c1 - o[0]) < 1e-9
        assert abs(a.c2 - o[1]) < 1e-9


class TestRandomBox:
    """|alpha| log-uniform in [0.02, 5], A in [0.5, 3], epsilon and Delta in
    [-3, 3], beta keeping alpha t + beta in [-4, 2] on [0, 1]: each
    propagator matches the oracle to 1e-6 or raises a typed error, and fewer
    than half raise."""

    @staticmethod
    def check_box(seed: int, sign: float):
        rng = np.random.default_rng(seed)
        n = 200
        alpha = sign * np.exp(rng.uniform(math.log(0.02), math.log(5.0), n))
        amp = rng.uniform(0.5, 3.0, n)
        eps, delta = rng.uniform(-3.0, 3.0, (2, n))
        beta = -4.0 + np.maximum(-alpha, 0.0) + (6.0 - abs(alpha)) * rng.uniform(size=n)
        params = [
            ModelParams(A=a, alpha=al, beta=b, epsilon=e, Delta=d, t0=0.0, t1=1.0)
            for a, al, b, e, d in zip(amp, alpha, beta, eps, delta)
        ]
        # columns of U(1, 0): initial states (1, 0) and (0, 1) in one batch
        init = np.array([(1.0, 0.0)] * n + [(0.0, 1.0)] * n, dtype=complex)
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        ref = integrate_tdse_batch(params + params, init, 0.0, 1.0, cfg)
        raised = 0
        for i, q in enumerate(params):
            try:
                u = propagator(q, 0.0, 1.0).as_array()
            except (AccuracyError, DegeneracyError, DomainError, ExponentOverflowError):
                raised += 1
                continue
            dev = max(np.max(np.abs(u[:, 0] - ref[i])), np.max(np.abs(u[:, 1] - ref[n + i])))
            assert dev < 1e-6, (q, dev)
        assert raised < n // 2

    def test_never_silently_wrong(self):
        self.check_box(1, 1.0)

    def test_never_silently_wrong_negative_alpha(self):
        # a decaying exponential: beta in [-4 + |alpha|, 2]
        self.check_box(2, -1.0)


class TestPopulations:
    def test_identity_point(self):
        rec = populations(P, -2.0, -2.0)
        assert rec.p22_mod2 == pytest.approx(1.0, abs=1e-12)
        assert rec.p12_mod2 == pytest.approx(0.0, abs=1e-12)

    def test_decoupled_no_transfer(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=3.0)
        rec = populations(q, 0.0, 2.5)
        assert rec.p12_mod2 == 0.0

    def test_norm_conserved_hermitian(self):
        rec = populations(P_HERM, 0.0, 4.0)
        assert abs(rec.norm - 1.0) < 1e-8

    def test_paper_convention_is_not_a_probability(self):
        # the literal Re + Im projection can leave [0, 1]
        vals = [populations(P, -4.0, float(t)).p22_paper for t in np.linspace(-4, 2, 40)]
        assert min(vals) < 0.0 or max(vals) > 1.0
