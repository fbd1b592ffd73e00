"""Independent numerical reference for the dynamics.

Integrates i dC/dt = H(t) C with an embedded Dormand-Prince 4(5) pair.
Nothing here touches the hypergeometric machinery, so agreement between
this module and `analytic` is a genuine two-route check.

The integrator is hand-rolled rather than delegated so that (a) whole
parameter sweeps can be integrated as one batched state array with a shared
adaptive step (the per-figure oracle runs need hundreds of trajectories in
seconds), (b) the driver counts accepted and rejected steps, and (c)
results are bitwise deterministic for fixed inputs.  `integrate_tdse_batch`
is the one entry point for the Schroedinger equation; a single trajectory
is a batch of one.

A batch state holds a few hundred numbers, so a step costs numpy calls, not
arithmetic.  The seven stages live as rows of one (7, size) array, and each
stage input and the error estimate is one dot of a tableau row with those
rows; the exponential coefficient is evaluated at all seven stage times of a
step in one call.  The tests pin step counts and sampled rows by digest, so
a change to this arithmetic that moves any bit shows there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .model import ModelParams, derived_params, omega_integral, t_of_x

# Dormand-Prince 4(5) tableau (FSAL, 7 stages); complex _A and _ERR cast nothing per dot
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [np.array(row, dtype=complex) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = (_B5 - _B4).astype(complex)

# the step never exceeds this fraction of the exponential's e-folding time 1/|alpha|
STEP_CAP = 0.1
# safety budget of accepted plus rejected steps for one integration
MAX_STEPS = 2_000_000
# points of x at which transformed_ode_check compares the two routes
TRANSFORMED_SAMPLES = 41


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):  # NaN fails
            raise DomainError("integrator tolerances must be positive and finite")


def _dp45(rhs, t0, t1, y0, cfg: IntegratorConfig, max_step, t_eval):
    """Generic batched DP45 driver.

    ``rhs(ts)`` takes the stage times of one step and returns ``f`` with
    ``f(i, y)`` the derivative at ``ts[i]``, so coefficients that depend on
    time alone are formed once per step.  ``y0`` may have any shape; the
    error norm is the max over all entries.  Steps are shortened to land
    exactly on ``t_eval`` points (and on t1), so sampling is exact rather
    than interpolated.  Supports t1 < t0.  Returns (samples, accepted,
    rejected), samples of shape (len(t_eval),) + y0.shape.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if not math.isfinite(span):
        raise DomainError(f"integration window [{t0}, {t1}] is not finite")
    targets = sorted(((float(t), i) for i, t in enumerate(t_eval)), key=lambda p: direction * p[0])
    for tt, _ in targets:
        # written so that a NaN sample time fails it too
        if not ((tt - t0) * direction >= -1e-12 * span and (t1 - tt) * direction >= -1e-12 * span):
            raise DomainError(f"sample time {tt} outside integration window [{t0}, {t1}]")
    if span == 0.0:
        return np.broadcast_to(y0, (len(t_eval),) + np.shape(y0)).astype(complex), 0, 0
    samples = np.empty((len(targets),) + np.shape(y0), dtype=complex)
    next_target = 0

    y = np.array(y0, dtype=complex)
    t = float(t0)
    k = np.empty((7,) + y.shape, dtype=complex)
    flat = k.reshape(7, -1)  # the stages as rows: every stage sum is one dot
    k[0] = rhs(np.array([t]))(0, y)
    h = direction * min(max_step, span / 100.0, 1e-2)
    accepted = rejected = 0

    while (t1 - t) * direction > 0:
        if accepted + rejected >= MAX_STEPS:
            raise AccuracyError(
                f"step budget {MAX_STEPS} exhausted at t={t}", partial=(t, y.copy())
            )
        # do not step past the next sample time or the endpoint
        limit = targets[next_target][0] if next_target < len(targets) else t1
        # clip the trial step to land on the limit without forgetting the
        # controller's natural step size
        clipped = (t + h - limit) * direction > 0
        h_try = limit - t if clipped else h
        f = rhs(t + _C * h_try)
        for i in range(1, 7):  # row 6 of _A is _B5, so the last stage input is y5
            y5 = y + h_try * (_A[i] @ flat[:i]).reshape(y.shape)
            k[i] = f(i, y5)
        err_vec = h_try * (_ERR @ flat).reshape(y.shape)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float((np.abs(err_vec) / scale).max())
        if math.isnan(err):
            err = math.inf  # overflowed stages: reject and shrink the step the most
        if err <= 1.0:
            t, y = t + h_try, y5
            k[0] = k[6]  # FSAL
            accepted += 1
            while next_target < len(targets) and (t - targets[next_target][0]) * direction >= 0:
                samples[targets[next_target][1]] = y
                next_target += 1
        else:
            rejected += 1
        factor = min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        h_new = abs(h_try) * factor
        if clipped and err <= 1.0:
            h_new = max(h_new, abs(h))  # clipping must not throttle the controller
        h = direction * min(h_new, max_step)
        if abs(h) < 1e-15 * span:
            raise AccuracyError(f"step size underflow at t={t}", partial=(t, y.copy()))
    return samples, accepted, rejected


def integrate_tdse_batch(
    params: list[ModelParams],
    init,
    t0: float,
    t1: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    t_eval=None,
) -> np.ndarray:
    """Integrate many parameter points at once over a common window.

    ``init`` is broadcast to shape (n_points, 2).  All points share the
    adaptive step (error-controlled by the worst point), which keeps a full
    sweep's oracle run at roughly the cost of a single trajectory.
    Returns the final amplitudes, shape (n_points, 2), or with ``t_eval``
    the amplitudes at those times, shape (len(t_eval), n_points, 2).
    """
    if not params:
        raise DomainError("the oracle batch holds no parameter points")
    A = np.array([q.A for q in params])
    alpha = np.array([q.alpha for q in params])
    beta = np.array([q.beta for q in params])
    eps = np.array([q.epsilon for q in params])
    delta = 0.5 * (eps + 1j * np.array([q.Delta for q in params]))[:, None]

    def rhs(ts):
        # columns (om, -om) at every stage time: dC/dt = -i (om C + delta C[::-1])
        om = 0.5 * (A * np.exp(alpha * ts[:, None] + beta) + eps)[..., None]
        om = np.concatenate((om, -om), axis=-1)
        return lambda i, y: -1j * (om[i] * y + delta * y[:, ::-1])

    y0 = np.broadcast_to(np.asarray(init, dtype=complex), (len(params), 2)).copy()
    max_step = float(STEP_CAP / np.max(np.abs(alpha)))
    # an overflowing point makes a NaN error norm, which the controller
    # rejects until it raises AccuracyError, so numpy's warnings say nothing
    with np.errstate(over="ignore", invalid="ignore"):
        samples, _, _ = _dp45(rhs, t0, t1, y0, cfg, max_step, [t1] if t_eval is None else t_eval)
    return samples[0] if t_eval is None else samples


def constant_h_propagator(H, dt: float) -> np.ndarray:
    """exp(-i H dt) for traceless 2x2 H via the closed rho-formula."""
    H = np.asarray(H, dtype=complex)
    (h00, h01), (h10, _) = H.tolist()  # Python complex: an infinite entry is NaN, no warning
    rho = np.sqrt(h00 * h00 + h01 * h10) + 0j  # the principal root of a complex argument
    w = complex(rho) * dt  # Python arithmetic: an infinite dt gives NaN without a warning
    if not cmath.isfinite(w):
        raise DomainError(f"rotation angle {w} of exp(-i H dt) is not finite (dt = {dt})")
    if abs(w) < 1e-6:
        # sin(w)/rho -> dt * (1 - w^2/6 + w^4/120)
        sinc = dt * (1.0 - w * w / 6.0 * (1.0 - w * w / 20.0))
        cosw = 1.0 - w * w / 2.0 * (1.0 - w * w / 12.0)
    else:
        sinc = np.sin(w) / rho
        cosw = np.cos(w)
    return cosw * np.eye(2, dtype=complex) - 1j * sinc * H


def transformed_ode_check(p: ModelParams, x0: float, x1: float,
                          cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Integrate the x-variable second-order equation directly and compare
    with the gauge-mapped time-domain solution; returns the max deviation.

    Validates the variable change itself: psi(x(t)) must equal the lower
    amplitude with the dynamical phase exp(i * integral of the detuning)
    stripped, and x * dpsi/dx maps onto the upper amplitude.
    """
    if x0 <= 0 or x1 <= 0:
        raise DomainError("x must be positive on both ends")
    d = derived_params(p)
    a, b, c = d.a, d.b, d.c

    def f(x, u):
        psi, dpsi = u[0], u[1]
        return np.array(
            [dpsi, -((a - b * x) / x) * dpsi - (c * c / (x * x)) * psi], dtype=complex
        )

    # initial state C(t(x0)) = (0, 1): psi = 1, x psi' = -i c C1 = 0
    u0 = np.array([1.0, 0.0], dtype=complex)
    xs = np.linspace(x0, x1, TRANSFORMED_SAMPLES)
    samp_x, _, _ = _dp45(lambda xi: lambda i, u: f(xi[i], u), x0, x1, u0, cfg, math.inf, xs)
    ts = np.array([t_of_x(p, float(x)) for x in xs])
    t_init = float(ts[0])
    samp_t = integrate_tdse_batch([p], (0.0, 1.0), t_init, float(ts[-1]), cfg, t_eval=ts)
    dev = 0.0
    for i, (x, tt) in enumerate(zip(xs, ts)):
        phase = np.exp(1j * omega_integral(p, t_init, float(tt)))
        psi, dpsi = samp_x[i]
        c2_from_x = psi * phase
        if c != 0:
            c1_from_x = (1j / c) * x * dpsi * phase
        else:
            c1_from_x = 0.0
        c1_t, c2_t = samp_t[i, 0]
        dev = max(dev, abs(c1_from_x - c1_t), abs(c2_from_x - c2_t))
    return dev
