"""Closed-form solution: basis consistency, propagator algebra, gauge
independence, unitarity in the Hermitian sub-case, and oracle agreement."""

import cmath
import math

import numpy as np
import pytest

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
from exptwolevel.model import AxisSpec, ModelParams, derived_params, x_of_t
from exptwolevel.oracle import IntegratorConfig, integrate_tdse_batch
from exptwolevel.sweep import SweepConfig, run_sweep

P = ModelParams(A=2.0, alpha=1.0, beta=1.5, epsilon=0.5, Delta=0.5, t0=-5.0, t1=3.0)
P_HERM = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.2, Delta=0.0, t0=0.0, t1=5.0)
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestBasis:
    def test_lower_component_is_kummer_at_x_one(self):
        # at x = 1 the power prefactor drops out: u1(1) = M(mu1, gamma, b) and
        # v1(1) = M(mu2, 2 - gamma, b)
        from exptwolevel.specfun import kummer_m

        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.5, Delta=0.5, t0=-1.0, t1=1.0)
        d = derived_params(q)
        b = basis_solutions(d, 1.0)
        assert b.u1 == kummer_m(d.mu1, d.gamma, d.b)
        assert b.v1 == kummer_m(d.mu2, 2 - d.gamma, d.b)

    def test_determinant_matches_closed_form(self):
        d = derived_params(P)
        for t in (-4.0, -1.0, 0.0, 2.0):
            x = x_of_t(P, t)
            b = basis_solutions(d, x)
            det = b.u2 * b.v1 - b.v2 * b.u1
            w = transition_parameter_omega12(d, x)
            assert abs(det - w) / abs(w) < 1e-12
            assert b.w12 == w

    @pytest.mark.parametrize("t", [0.0, 5.0])
    def test_residual_past_the_target_raises(self, t):
        # the first slow-sweep row: each M is correctly rounded, yet the numeric
        # determinant is off the closed form by 7.5e-9 at x(0) and 9.7e-9 at x(5)
        q = SLOW_ROWS[0]
        with pytest.raises(AccuracyError, match="basis residual"):
            basis_solutions(derived_params(q), x_of_t(q, t))

    def test_zero_coupling_rejected(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=1.0)
        with pytest.raises(DegeneracyError):
            basis_solutions(derived_params(q), 1.0)
        with pytest.raises(DomainError):
            transition_parameter_omega12(derived_params(q), 1.0)

    def test_integer_mu_rejected(self):
        # at epsilon = 0 and Delta = 2 alpha, mu1 = gamma = -1: column 1's
        # M(mu1, gamma, .) has a pole; the determinant's closed form has none
        d = derived_params(ModelParams(2.0, 1.0, 0.0, 0.0, 2.0, 0.0, 1.0))
        assert (d.mu1, d.gamma) == (-1.0, -1.0)
        with pytest.raises(PoleError):
            basis_solutions(d, 1.0)
        assert cmath.isfinite(transition_parameter_omega12(d, 1.0))


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


def flagged_rows(params: list, t1: float = 1.0) -> int:
    """How many of params raise a typed error for U(t1, 0); every other
    propagator must match one batched oracle call to 1e-6."""
    n = len(params)
    # columns of U(t1, 0): initial states (1, 0) and (0, 1) in one batch
    init = np.array([(1.0, 0.0)] * n + [(0.0, 1.0)] * n, dtype=complex)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    ref = integrate_tdse_batch(params + params, init, 0.0, t1, cfg)
    flagged = 0
    for i, q in enumerate(params):
        try:
            u = propagator(q, 0.0, t1).as_array()
        except (AccuracyError, DegeneracyError, DomainError, ExponentOverflowError):
            flagged += 1
            continue
        dev = max(np.max(np.abs(u[:, 0] - ref[i])), np.max(np.abs(u[:, 1] - ref[n + i])))
        assert dev < 1e-6, (q, dev)  # a NaN fails it too
    return flagged


def _latin(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


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
        assert flagged_rows(params) < n // 2

    def test_never_silently_wrong(self):
        self.check_box(1, 1.0)

    def test_never_silently_wrong_negative_alpha(self):
        # a decaying exponential: beta in [-4 + |alpha|, 2]
        self.check_box(2, -1.0)

    def test_latin_hypercube_box_mostly_unflagged(self):
        # 400 points, one per stratum on each axis: at most a tenth flagged
        rng = np.random.default_rng(0)
        n = 400
        alpha = np.exp(math.log(0.02) + math.log(5.0 / 0.02) * _latin(rng, n))
        amp = 0.5 + 2.5 * _latin(rng, n)
        eps, delta = -3.0 + 6.0 * _latin(rng, n), -3.0 + 6.0 * _latin(rng, n)
        beta = -4.0 + (6.0 - alpha) * _latin(rng, n)
        params = [
            ModelParams(A=a, alpha=al, beta=b, epsilon=e, Delta=d, t0=0.0, t1=1.0)
            for a, al, b, e, d in zip(amp, alpha, beta, eps, delta)
        ]
        assert flagged_rows(params) <= n // 10


class TestDegeneratePoints:
    """At epsilon = 0, gamma = 1 - |Delta / alpha|: the pair of Kummer columns
    degenerates at |Delta| = n |alpha|, where M has a pole."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integer_gamma_raises_pole_error(self, n):
        with pytest.raises(PoleError):
            propagator(ModelParams(2.0, 1.0, 0.0, 0.0, float(n), 0.0, 1.0), 0.0, 1.0)

    def test_next_to_the_pole_matches_oracle(self):
        q = ModelParams(2.0, 1.0, 0.0, 0.0, 1.0 + 1e-6, 0.0, 1.0)
        assert flagged_rows([q]) == 0

    def test_no_bare_error_or_unflagged_nan(self):
        # around each pole, on either side and for either sign of Delta and
        # alpha: a typed error, or a propagator that matches the oracle
        params = [
            ModelParams(2.0, alpha, 0.0 if alpha > 0 else 1.0, 0.0, sign * n * abs(alpha) * (1 + h),
                        0.0, 1.0)
            for alpha in (1.0, -0.3)
            for n in (1, 2, 3)
            for h in (0.0, 1e-14, -1e-12, 1e-10, -1e-8, 1e-6)
            for sign in (1.0, -1.0)
        ]
        flagged_rows(params)


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


# slow-sweep rows once returned silently wrong, each over [0, t1]: two off the
# oracle by 4.31e-6 and 2.66e-6 with every M correctly rounded; row A by 10.9,
# from an M whose two asymptotic terms underflowed to a sum of 0; row B by
# 3.34e-6; and row C by 3.8e6, from an M at t off by 1.7e6, a Taylor sum that
# stopped in a dip of its terms (its basis at t0 is good, residual 5.7e-14)
SLOW_ROWS = [
    ModelParams(1.7445002644567762, 0.009439590200997428, 0.7731392888267123,
                -0.9025709098665589, 1.3607312619180174, 0.0, 5.0),
    ModelParams(2.7986583657634676, 0.04948462548868517, 1.9128529853418437,
                -3.0542897853700928, 4.2165553222175305, 0.0, 3.0),
    ModelParams(1.6429947655446768, 0.01121347243709101, 0.05589146713208848,
                5.880542077417344, 3.5744715415151767, 0.0, 3.0),
    ModelParams(2.9218500078794456, 0.0313276691426885, 1.3056093169482539,
                -0.5969087900879426, -4.297452367843954, 0.0, 5.0),
    ModelParams(2.093777149932855, -0.011940899949398197, 1.1910861690854286,
                0.23532964049921468, 4.985831562597117, 0.0, 5.0),
]


class TestSlowSweep:
    """Small alpha, where |mu| ~ |epsilon + i Delta| / (2 alpha) and the
    special-function arguments grow."""

    def test_box_never_silently_wrong(self):
        # |alpha| log-uniform in [0.002, 0.05] of either sign, A in [0.5, 3],
        # beta in [-4, 2], epsilon and Delta in [-6, 6], over [0, 3] for half
        # the points and [0, 5] for the rest, plus SLOW_ROWS: each propagator
        # matches the oracle to 1e-6 or raises a typed error.  The raised share
        # is printed, not asserted
        rng = np.random.default_rng(6)
        n = 100
        alpha = rng.choice((-1.0, 1.0), n) * np.exp(rng.uniform(math.log(0.002), math.log(0.05), n))
        amp, beta = rng.uniform(0.5, 3.0, n), rng.uniform(-4.0, 2.0, n)
        eps, delta = rng.uniform(-6.0, 6.0, (2, n))
        t1 = np.repeat([3.0, 5.0], n // 2)
        params = SLOW_ROWS + [ModelParams(*row, 0.0, t) for *row, t
                              in zip(amp, alpha, beta, eps, delta, t1)]
        raised = sum(flagged_rows([q for q in params if q.t1 == t], t) for t in (3.0, 5.0))
        print(f"slow-sweep box: {raised} of {len(params)} propagators raised")

    @pytest.mark.parametrize("q", [SLOW_ROWS[0], SLOW_ROWS[1], SLOW_ROWS[3]],
                             ids=["t5", "t3", "row-b"])
    def test_basis_residual_past_the_target_raises(self, q):
        # each M is correctly rounded, yet the columns lose accuracy: the
        # numeric determinant strays from the closed form by 1.9e-9 to 7.5e-9
        # at t0 and by 9.7e-9 to 2.5e-8 at t, and the propagator raises
        with pytest.raises(AccuracyError, match="basis residual"):
            propagator(q, 0.0, q.t1)

    def test_taylor_sum_past_a_dip_returns(self):
        # row C: once the sum at t runs past the dip, the basis there passes its
        # check (it read a residual of 2.1e6) and the propagator returns
        q = SLOW_ROWS[4]
        u = propagator(q, 0.0, q.t1).as_array()
        # row j of the batch is column j of the propagator
        ref = integrate_tdse_batch([q, q], [(1.0, 0.0), (0.0, 1.0)], 0.0, q.t1, TIGHT).T
        assert np.max(np.abs(u - ref)) < 1e-6

    def test_asymptotic_estimate_has_no_floor(self):
        # one M here has both asymptotic terms below 1e-300; a 1e-300 floor
        # under their sum shrank its estimate, and the propagator was off by 1.8e17
        p = ModelParams(A=2.1420765579890118, alpha=0.012765355662098403,
                        beta=0.5639524840681398, epsilon=1.3458480708626537,
                        Delta=2.4755016543218424, t0=0.0, t1=3.0)
        u = propagator(p, 0.0, 3.0).as_array()
        # row j of the batch is column j of the propagator
        ref = integrate_tdse_batch([p, p], [(1.0, 0.0), (0.0, 1.0)], 0.0, 3.0, TIGHT).T
        assert np.max(np.abs(u - ref)) < 1e-6

    def test_power_overflow_is_typed(self):
        # Re(mu1 log x0) = 899 at t0: x^mu leaves the float range
        p = ModelParams(A=1.0, alpha=0.002, beta=-2.0, epsilon=1.0, Delta=2.0, t0=0.0, t1=3.0)
        with pytest.raises(ExponentOverflowError):
            propagator(p, 0.0, 3.0)
        ds = run_sweep(SweepConfig(p, (AxisSpec("Delta", 2.0, 2.0, 1),), "populations"))
        assert ds.rows[0][-1] == 3
