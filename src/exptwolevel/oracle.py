"""Independent numerical reference for the dynamics.

Integrates i dC/dt = H(t) C with an embedded Dormand-Prince 4(5) pair.
Nothing here touches the hypergeometric machinery, so agreement between
this module and `analytic` is a genuine two-route check.

The integrator is hand-rolled rather than delegated so that (a) whole
parameter sweeps can be integrated as one batched state array with a shared
adaptive step (the per-figure oracle runs need hundreds of trajectories in
seconds), (b) accepted/rejected step counts and the norm trace are exposed,
and (c) results are bitwise deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import AmplitudePair
from .errors import AccuracyError, DomainError
from .model import ModelParams, derived_params, omega_integral, t_of_x, x_of_t

# Dormand-Prince 4(5) tableau (FSAL, 7 stages)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("integrator tolerances must be positive")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")


@dataclass
class TrajectoryResult:
    final: AmplitudePair
    norm_trace: list = field(default_factory=list)
    steps_taken: int = 0
    accepted: int = 0
    rejected: int = 0
    sample_times: np.ndarray | None = None
    samples: np.ndarray | None = None  # shape (len(sample_times), 2)


def _dp45(f, t0, t1, y0, rtol, atol, max_step, max_steps, t_eval=None):
    """Generic batched DP45 driver.

    ``y0`` may have any shape; the error norm is the max over all entries.
    Steps are shortened to land exactly on ``t_eval`` points (and on t1),
    so sampling is exact rather than interpolated.  Supports t1 < t0.
    Returns (y_final, samples, accepted, rejected).
    """
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        samples = None
        if t_eval is not None:
            samples = np.broadcast_to(y0, (len(t_eval),) + np.shape(y0)).copy()
        return np.array(y0, dtype=complex), samples, 0, 0

    targets = []
    if t_eval is not None:
        targets = sorted(
            ((float(t), i) for i, t in enumerate(t_eval)),
            key=lambda p: direction * p[0],
        )
        for tt, _ in targets:
            if (tt - t0) * direction < -1e-12 * span or (t1 - tt) * direction < -1e-12 * span:
                raise DomainError(f"sample time {tt} outside integration window [{t0}, {t1}]")
    samples = (
        np.empty((len(targets),) + np.shape(y0), dtype=complex) if t_eval is not None else None
    )
    next_target = 0

    y = np.array(y0, dtype=complex)
    t = float(t0)
    k = np.empty((7,) + y.shape, dtype=complex)
    k[0] = f(t, y)
    h = direction * min(max_step, span / 100.0, 1e-2)
    accepted = rejected = 0

    while (t1 - t) * direction > 0:
        if accepted + rejected >= max_steps:
            raise AccuracyError(
                f"step budget {max_steps} exhausted at t={t}", partial=(t, y.copy())
            )
        # do not step past the next sample time or the endpoint
        limit = t1
        if samples is not None and next_target < len(targets):
            limit = targets[next_target][0]
        # clip the trial step to land on the limit without forgetting the
        # controller's natural step size
        clipped = (t + h - limit) * direction > 0
        h_try = limit - t if clipped else h
        for i in range(1, 7):
            yi = y + h_try * np.tensordot(_A[i], k[:i], axes=(0, 0))
            k[i] = f(t + _C[i] * h_try, yi)
        y5 = y + h_try * np.tensordot(_B5, k, axes=(0, 0))
        err_vec = h_try * np.tensordot(_ERR, k, axes=(0, 0))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(err_vec) / scale)) if y5.size else 0.0
        if err <= 1.0:
            t, y = t + h_try, y5
            k[0] = k[6]  # FSAL
            accepted += 1
            if samples is not None:
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
    return y, samples, accepted, rejected


def _rhs_single(p: ModelParams):
    d = 0.5 * complex(p.epsilon, p.Delta)
    half_a = 0.5 * p.A

    def f(t, y):
        om = half_a * math.exp(p.alpha * t + p.beta) + 0.5 * p.epsilon
        return np.array(
            [-1j * (om * y[0] + d * y[1]), -1j * (d * y[0] - om * y[1])], dtype=complex
        )

    return f


def integrate_tdse(
    p: ModelParams,
    init: AmplitudePair,
    cfg: IntegratorConfig = IntegratorConfig(),
    t_eval=None,
) -> TrajectoryResult:
    """Integrate the two-level Schroedinger equation from init.t to p.t1."""
    t0 = init.t
    max_step = min(cfg.max_step, 0.1 / abs(p.alpha))  # resolve the exponential sweep
    f = _rhs_single(p)
    teval = None if t_eval is None else np.asarray(t_eval, dtype=float)
    y, samples, acc, rej = _dp45(
        f,
        t0,
        p.t1,
        np.array([init.c1, init.c2], dtype=complex),
        cfg.rel_tol,
        cfg.abs_tol,
        max_step,
        cfg.max_steps,
        t_eval=teval,
    )
    result = TrajectoryResult(
        final=AmplitudePair(c1=complex(y[0]), c2=complex(y[1]), t=p.t1),
        steps_taken=acc + rej,
        accepted=acc,
        rejected=rej,
        sample_times=teval,
        samples=samples,
    )
    if samples is not None:
        result.norm_trace = [
            (float(tt), float(np.abs(s[0]) ** 2 + np.abs(s[1]) ** 2))
            for tt, s in zip(teval, samples)
        ]
    else:
        n = float(np.abs(y[0]) ** 2 + np.abs(y[1]) ** 2)
        result.norm_trace = [(float(p.t1), n)]
    return result


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
    n = len(params)
    A = np.array([q.A for q in params])
    alpha = np.array([q.alpha for q in params])
    beta = np.array([q.beta for q in params])
    eps = np.array([q.epsilon for q in params])
    delta = 0.5 * (eps + 1j * np.array([q.Delta for q in params]))

    def f(t, y):
        om = 0.5 * (A * np.exp(alpha * t + beta) + eps)
        out = np.empty_like(y)
        out[:, 0] = -1j * (om * y[:, 0] + delta * y[:, 1])
        out[:, 1] = -1j * (delta * y[:, 0] - om * y[:, 1])
        return out

    y0 = np.broadcast_to(np.asarray(init, dtype=complex), (n, 2)).copy()
    max_step = min(cfg.max_step, float(0.1 / np.max(np.abs(alpha))))
    teval = None if t_eval is None else np.asarray(t_eval, dtype=float)
    y, samples, _, _ = _dp45(
        f, t0, t1, y0, cfg.rel_tol, cfg.abs_tol, max_step, cfg.max_steps, t_eval=teval
    )
    return y if samples is None else samples


def constant_h_propagator(H, dt: float) -> np.ndarray:
    """exp(-i H dt) for traceless 2x2 H via the closed rho-formula."""
    H = np.asarray(H, dtype=complex)
    rho = np.lib.scimath.sqrt(H[0, 0] * H[0, 0] + H[0, 1] * H[1, 0]) + 0j
    w = rho * dt
    if abs(w) < 1e-6:
        # sin(w)/rho -> dt * (1 - w^2/6 + w^4/120)
        sinc = dt * (1.0 - w * w / 6.0 * (1.0 - w * w / 20.0))
        cosw = 1.0 - w * w / 2.0 * (1.0 - w * w / 12.0)
    else:
        sinc = np.sin(w) / rho
        cosw = np.cos(w)
    return cosw * np.eye(2, dtype=complex) - 1j * sinc * H


def transformed_ode_check(p: ModelParams, x0: float, x1: float, n_samples: int = 41,
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
    xs = np.linspace(x0, x1, n_samples)
    _, samp_x, _, _ = _dp45(
        f, x0, x1, u0, cfg.rel_tol, cfg.abs_tol, math.inf, cfg.max_steps, t_eval=xs
    )
    ts = np.array([t_of_x(p, float(x)) for x in xs])
    t_init = float(ts[0])
    q = ModelParams(
        A=p.A, alpha=p.alpha, beta=p.beta, epsilon=p.epsilon, Delta=p.Delta,
        t0=min(t_init, float(ts[-1])) - 1.0, t1=float(ts[-1]),
    )
    res = integrate_tdse(
        q, AmplitudePair(c1=0.0, c2=1.0, t=t_init), cfg, t_eval=ts
    )
    dev = 0.0
    for i, (x, tt) in enumerate(zip(xs, ts)):
        phase = np.exp(1j * omega_integral(p, t_init, float(tt)))
        psi, dpsi = samp_x[i]
        c2_from_x = psi * phase
        if c != 0:
            c1_from_x = (1j / c) * x * dpsi * phase
        else:
            c1_from_x = 0.0
        c1_t, c2_t = res.samples[i]
        dev = max(dev, abs(c1_from_x - c1_t), abs(c2_from_x - c2_t))
    return dev
