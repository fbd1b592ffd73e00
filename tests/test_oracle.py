"""Numerical integrator: conservation laws, linearity, batching, agreement
with the lab-frame equation, pinned step counts and rows, and the
constant-Hamiltonian matrix exponential."""

import cmath
import hashlib
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import exptwolevel
import exptwolevel.oracle as oracle
from exptwolevel import specfun
from exptwolevel.errors import AccuracyError, DomainError
from exptwolevel.model import AxisSpec, ModelParams, omega_integral, x_of_t
from exptwolevel.oracle import (
    IntegratorConfig,
    constant_h_propagator,
    integrate_tdse_batch,
    transformed_ode_check,
)
from exptwolevel.sweep import SweepConfig, _figure_config, emit, run_sweep

P_HERM = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.5, Delta=0.0, t0=-3.0, t1=2.0)
P_FULL = ModelParams(A=2.0, alpha=1.0, beta=1.5, epsilon=0.5, Delta=0.5, t0=-5.0, t1=3.0)
# figure 5's decaying exponential, with a detuning and a coupling
P_DECAY = ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.7, Delta=0.3, t0=0.0, t1=7.0)
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
INIT = (0.0, 1.0)  # at t = -3
NAN = float("nan")


def final(p, init, t0, t1, cfg=TIGHT):
    """(c1, c2) at t1 of the trajectory through init at t0, as a batch of one."""
    return integrate_tdse_batch([p], init, t0, t1, cfg)[0]


def lab_frame(params, init, t0, t1, t_eval):
    """Samples of i dC/dt = H(t) C as it stands, dynamical phase and all, from
    the same DOP853 driver at TIGHT: the reference for the oracle, which
    integrates the interaction-picture amplitudes instead."""
    A, alpha, beta, eps, Delta = (np.array([getattr(q, f) for q in params])
                                  for f in ("A", "alpha", "beta", "epsilon", "Delta"))
    d = 0.5 * (eps + 1j * Delta)[:, None]

    def rhs(ts):
        # columns (O, -O) of the diagonal at every stage time
        om = 0.5 * (A * np.exp(alpha * ts[:, None] + beta) + eps)[..., None]
        om = np.concatenate((om, -om), axis=-1)
        return lambda i, y: -1j * (om[i] * y + d * y[:, ::-1])

    y0 = np.broadcast_to(np.asarray(init, dtype=complex), (len(params), 2)).copy()
    max_step = oracle.STEP_CAP / np.max(np.abs(alpha))
    return oracle._dop853(rhs, t0, t1, y0, TIGHT, max_step, t_eval)[0]


@pytest.fixture
def step_counts(monkeypatch):
    """(accepted, rejected) of every _dop853 run, in call order; the driver
    counts its steps, integrate_tdse_batch returns only amplitudes."""
    counts = []
    dop853 = oracle._dop853

    def counted(*args, **kwargs):
        out = dop853(*args, **kwargs)
        counts.append(out[1:])
        return out

    monkeypatch.setattr(oracle, "_dop853", counted)
    return counts


@pytest.fixture
def taylor_sums(monkeypatch):
    """Arguments of every decimal Taylor sum of M, in call order."""
    calls = []
    taylor = specfun._kummer_taylor

    def counted(*args):
        calls.append(args)
        return taylor(*args)

    monkeypatch.setattr(specfun, "_kummer_taylor", counted)
    return calls


class TestConservation:
    def test_norm_conserved_hermitian(self):
        ts = np.linspace(-3.0, 2.0, 21)
        samples = integrate_tdse_batch([P_HERM], INIT, -3.0, 2.0, TIGHT, t_eval=ts)[:, 0]
        norms = np.sum(np.abs(samples) ** 2, axis=1)
        assert max(abs(n - 1.0) for n in norms) < 1e-10

    def test_norm_not_conserved_non_hermitian(self):
        q = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.5, Delta=0.5, t0=-3.0, t1=2.0)
        c1, c2 = final(q, INIT, -3.0, 2.0)
        assert abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-3

    def test_counters(self, step_counts):
        final(P_HERM, INIT, -3.0, 2.0)
        final(P_HERM, INIT, -3.0, 2.0, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8))
        (tight_acc, tight_rej), (loose_acc, loose_rej) = step_counts
        assert tight_acc > loose_acc > 0
        assert tight_rej >= 0 and loose_rej >= 0


class TestLinearity:
    def test_superposition(self):
        a = final(P_HERM, (1.0, 0.0), -3.0, 2.0)
        b = final(P_HERM, (0.0, 1.0), -3.0, 2.0)
        mix = final(P_HERM, (0.6, 0.8j), -3.0, 2.0)
        assert abs(mix[0] - (0.6 * a[0] + 0.8j * b[0])) < 1e-10
        assert abs(mix[1] - (0.6 * a[1] + 0.8j * b[1])) < 1e-10

    def test_time_reversal(self):
        fwd = final(P_FULL, (0.0, 1.0), P_FULL.t0, P_FULL.t1)
        # integrate backward from t1 to t0: must recover the initial state
        back = final(P_FULL, fwd, P_FULL.t1, P_FULL.t0)
        assert abs(back[0]) < 1e-9
        assert abs(back[1] - 1.0) < 1e-9


class TestAccuracy:
    def test_tolerance_ladder(self):
        # loosening rel_tol by 1e3 should cost accuracy; tight run is reference
        ref = final(P_FULL, (0.0, 1.0), P_FULL.t0, P_FULL.t1)
        loose = final(
            P_FULL, (0.0, 1.0), P_FULL.t0, P_FULL.t1, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
        )
        err = max(abs(ref[0] - loose[0]), abs(ref[1] - loose[1]))
        assert 1e-13 < err < 1e-4

    def test_sample_times_exact(self):
        ts = np.array([-2.0, -0.5, 1.0])
        samples = integrate_tdse_batch(
            [P_FULL], (0.0, 1.0), P_FULL.t0, P_FULL.t1, TIGHT, t_eval=ts
        )
        assert samples.shape == (3, 1, 2)
        # the final sample time equals an independent run ending there
        short = final(P_FULL, (0.0, 1.0), P_FULL.t0, 1.0)
        assert abs(samples[2, 0, 0] - short[0]) < 1e-10
        assert abs(samples[2, 0, 1] - short[1]) < 1e-10

    def test_sample_outside_window_rejected(self):
        with pytest.raises(DomainError):
            integrate_tdse_batch([P_FULL], (0.0, 1.0), P_FULL.t0, P_FULL.t1, TIGHT, t_eval=[99.0])

    @pytest.mark.parametrize(
        "t0, t1, t_eval",
        [
            (NAN, 1.0, None),
            (0.0, NAN, None),
            (0.0, math.inf, None),
            (0.0, 1.0, [0.5, NAN, 0.8]),
            (1.0, 1.0, [2.0]),  # an empty window still checks its sample times
        ],
        ids=["nan-t0", "nan-t1", "inf-t1", "nan-sample", "empty-window-sample"],
    )
    def test_invalid_window_rejected(self, t0, t1, t_eval):
        # a typed input error, not unwritten samples or a step-size AccuracyError
        with pytest.raises(DomainError):
            integrate_tdse_batch([P_FULL], (0.0, 1.0), t0, t1, TIGHT, t_eval=t_eval)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, NAN, -math.inf], ids=["inf", "nan", "-inf"])
    def test_non_finite_tolerance_rejected(self, field, value):
        # an infinite tolerance would accept every step and a NaN one would end
        # in a step-size AccuracyError; both are input errors
        with pytest.raises(DomainError):
            IntegratorConfig(**{field: value})


class TestBatch:
    def test_batch_matches_single(self):
        deltas = [-1.0, 0.0, 0.7]
        params = [ModelParams(2.0, 1.0, 0.0, 0.2, d, 0.0, 4.0) for d in deltas]
        finals = integrate_tdse_batch(params, (0.0, 1.0), 0.0, 4.0, TIGHT)
        for q, row in zip(params, finals):
            single = final(q, (0.0, 1.0), 0.0, 4.0)
            assert abs(row[0] - single[0]) < 1e-9
            assert abs(row[1] - single[1]) < 1e-9

    def test_overflowing_point_fails_fast(self):
        # at beta = 400 the dynamical phase (~1e174 rad) cannot be resolved, so the
        # phase check names that point before the first step, and numpy's overflow
        # warnings stay silent (pytest turns them into errors)
        params = [ModelParams(2.0, 1.0, beta, 0.2, 0.5, 0.0, 1.0) for beta in (0.0, 400.0)]
        start = time.monotonic()
        with pytest.raises(AccuracyError) as exc:
            integrate_tdse_batch(params, (0.0, 1.0), 0.0, 1.0)
        assert time.monotonic() - start < 5.0
        assert exc.value.points == [1]

    def test_overflowing_stages_underflow_the_step(self):
        # a state near the float limit overflows the stages to a NaN error norm;
        # the controller must shrink the step until it underflows, not grow it
        # until the budget, with no RuntimeWarning (pytest turns them into errors)
        p = ModelParams(2.0, 1.0, 0.0, 0.2, 2.0, 0.0, 5.0)  # figure 3 at Delta = 2
        with pytest.raises(AccuracyError, match="step size underflow") as exc:
            integrate_tdse_batch([p], (0.0, 1e308), 0.0, 5.0)
        assert exc.value.points is None

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_STEPS", 10)
        p = ModelParams(2.0, 1.0, 0.0, 0.2, 0.0, 0.0, 5.0)  # figure 3 at Delta = 0
        with pytest.raises(AccuracyError, match="step budget 10 exhausted") as exc:
            integrate_tdse_batch([p], (0.0, 1.0), 0.0, 5.0)
        assert exc.value.points is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_uncoupled_point_keeps_its_phases(self):
        # at delta = 0 (epsilon = Delta = 0) every stage of a point is 0, so both of
        # its error estimates are 0 and their ratio is 0/0; the batch must still
        # step with its figure-3 neighbour, and the point only turns its phases
        free = ModelParams(2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        fig3 = ModelParams(2.0, 1.0, 0.0, 0.2, 1.0, 0.0, 5.0)
        (c1, c2), _ = integrate_tdse_batch([free, fig3], (1.0, 1.0), 0.0, 5.0)
        phi = omega_integral(free, 0.0, 5.0)
        assert abs(c1 - cmath.exp(-1j * phi)) < 1e-12
        assert abs(c2 - cmath.exp(1j * phi)) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            integrate_tdse_batch([], (0.0, 1.0), 0.0, 1.0)


class TestTableau:
    """The DOP853 coefficients, typed in as literals; a mistyped one would
    otherwise show only as extra steps."""

    def test_rows_sum_to_nodes(self):
        assert len(oracle._A) == len(oracle._C) == 13
        for row, c in zip(oracle._A, oracle._C):
            assert abs(row.sum() - c) < 1e-14

    def test_weights_integrate_polynomials_to_order_8(self):
        b, c = oracle._A[-1].real, oracle._C[:12]
        for k in range(8):
            assert abs(b @ c**k - 1 / (k + 1)) < 1e-14

    def test_error_weights_sum_to_zero(self):
        assert abs(oracle._E5.sum()) < 1e-14
        assert abs(oracle._E3.sum()) < 1e-14

    def test_import_leaves_scipy_integrate_out(self):
        # the tableau is literal: importing scipy.integrate would add about 0.3 s
        # and 25 MB to every process that imports the package
        src = str(Path(exptwolevel.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import exptwolevel; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, check=True)
        assert out.stdout.split() == ["False"]


class TestLabFrameReference:
    @pytest.mark.parametrize(
        "params, init, t0, t1, t_eval",
        [
            ([P_FULL], INIT, -5.0, 3.0, [-4.0, -1.5, 0.5, 3.0]),
            ([P_DECAY], INIT, 0.0, 2.0, [0.05, 0.4, 2.0]),
            ([P_FULL, P_DECAY], (0.6, -0.8j), 2.0, 0.0, [1.5, 0.5, 0.0]),
            ([P_HERM, P_FULL, P_DECAY] * 2, [(1.0, 0.0)] * 3 + [(0.0, 1.0)] * 3, 0.0, 1.5, [1.5]),
        ],
        ids=["alpha-positive", "alpha-negative", "backward", "mixed-initial-states"],
    )
    def test_matches_lab_frame(self, params, init, t0, t1, t_eval):
        # the phase the oracle removes and restores is formed inline from
        # (A, alpha, beta, epsilon); a wrong one breaks this agreement
        ref = lab_frame(params, init, t0, t1, t_eval)
        got = integrate_tdse_batch(params, init, t0, t1, TIGHT, t_eval=t_eval)
        assert got.shape == ref.shape == (len(t_eval), len(params), 2)
        assert np.max(np.abs(got - ref)) < 1e-9


class TestPinnedRuns:
    """Step counts and rows of the batched oracle at fixed inputs.  A change
    to the integrator's arithmetic that moves any bit shows up here; the
    figure goldens of criterion 7 cover only the single-end-time path."""

    # SHA-256 of the CSV body (lines not starting with "#") of the t-scan
    # sweep: amplitudes over t 0.2..4 (20) x Delta -1.5..1.5 (7) at the
    # figure-3 base, oracle on, so the batch is sampled at 20 end times.
    # Recorded under Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
    TSCAN_DIGEST = "87b8601592f50f60b5c1105e4fd2148a781e23e93228cbc3a9022c6420e31d15"

    def test_tscan_rows_and_steps(self, step_counts, taylor_sums):
        cfg = SweepConfig(
            _figure_config(3).base, (AxisSpec("t", 0.2, 4.0, 20), AxisSpec("Delta", -1.5, 1.5, 7)),
            "amplitudes", oracle=True,
        )
        buf = io.StringIO()
        emit(run_sweep(cfg), "csv", buf)
        body = "".join(
            line for line in buf.getvalue().splitlines(keepends=True) if not line.startswith("#")
        )
        assert hashlib.sha256(body.encode()).hexdigest() == self.TSCAN_DIGEST
        assert step_counts == [(247, 0)]
        # 7 Delta values: one t0 basis each, and a basis at each of the 14 t with
        # |z| <= TAYLOR_RADIUS; a basis is four distinct M sums
        assert len(taylor_sums) == 7 * (1 + 14) * 4

    def test_figure3_steps(self, step_counts, taylor_sums):
        run_sweep(_figure_config(3))
        assert step_counts == [(575, 0)]
        # 201 points, each with one series-route basis (at t0; |z| = 2) of four sums
        assert len(taylor_sums) == 201 * 4

    @pytest.mark.parametrize(
        "n, steps", [(2, (417, 0)), (4, (601, 0))], ids=["figure-2", "figure-4"]
    )
    def test_figure_steps(self, n, steps, step_counts):
        run_sweep(_figure_config(n))
        assert step_counts == [steps]

    def test_sweeps_share_nothing(self, taylor_sums):
        # the t0 basis is shared within one run_sweep only: a second run of the
        # same config sums every series again
        cfg = SweepConfig(
            _figure_config(3).base, (AxisSpec("t", 0.5, 2.5, 5), AxisSpec("Delta", -1.0, 1.0, 2)),
            "amplitudes",
        )
        run_sweep(cfg)
        assert len(taylor_sums) == 2 * (1 + 5) * 4
        run_sweep(cfg)
        assert len(taylor_sums) == 2 * 2 * (1 + 5) * 4


class TestConstantPropagator:
    def test_matches_scipy_expm(self):
        from scipy.linalg import expm

        h = np.array([[0.4, 0.25 + 0.15j], [0.25 + 0.15j, -0.4]])
        for dt in (0.3, 2.0, 7.5):
            u = constant_h_propagator(h, dt)
            assert np.max(np.abs(u - expm(-1j * h * dt))) < 1e-12

    @pytest.mark.parametrize(
        "h, dt",
        [
            (np.eye(2), NAN),
            (np.eye(2), math.inf),  # with no "invalid value" RuntimeWarning first
            (np.array([[NAN, 0.2], [0.2, -0.4]]), 1.0),
            (np.array([[0.4, 0.2], [NAN, -0.4]]), 1.0),
            (np.array([[math.inf, 1.0], [1.0, -math.inf]]), 1.0),  # no RuntimeWarning either
        ],
        ids=["nan-dt", "inf-dt", "nan-diagonal", "nan-coupling", "inf-diagonal"],
    )
    def test_non_finite_angle_rejected(self, h, dt):
        with pytest.raises(DomainError):
            constant_h_propagator(h, dt)

    def test_small_angle_limit(self):
        h = np.array([[1e-9, 1e-9], [1e-9, -1e-9]], dtype=complex)
        u = constant_h_propagator(h, 1e-3)
        assert np.max(np.abs(u - (np.eye(2) - 1j * h * 1e-3))) < 1e-20


class TestTransformedEquation:
    def test_positive_alpha(self):
        p = ModelParams(A=2.0, alpha=1.0, beta=1.5, epsilon=0.5, Delta=0.5, t0=-5.0, t1=3.0)
        dev = transformed_ode_check(p, x_of_t(p, -3.0), x_of_t(p, 1.0), cfg=TIGHT)
        assert dev < 1e-7

    def test_negative_alpha(self):
        p = ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.7, Delta=0.3, t0=0.0, t1=7.0)
        dev = transformed_ode_check(p, x_of_t(p, 0.0), x_of_t(p, 0.4), cfg=TIGHT)
        assert dev < 1e-7

    def test_nonpositive_x_rejected(self):
        with pytest.raises(DomainError):
            transformed_ode_check(P_FULL, -1.0, 2.0)
