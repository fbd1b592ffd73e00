"""Independent numerical reference for the dynamics.

Solves i dC/dt = H(t) C with the embedded Dormand-Prince 8(5,3) pair (DOP853;
Hairer, Norsett & Wanner, Solving ODEs I, II.10) in the interaction picture:
the diagonal of H only turns the phases of C1 and C2 at the rate Omega(t),
whose integral phi(t) from the window's start is elementary.  So the
integrator follows a1 = e^{i phi} C1, a2 = e^{-i phi} C2,

    i da1/dt = delta e^{2i phi} a2,    i da2/dt = delta e^{-2i phi} a1,

and maps each sample back with C1 = e^{-i phi} a1, C2 = e^{i phi} a2; its
step follows the coupling, not the fast phase.  phi is formed here from
(A, alpha, beta, epsilon), and nothing here touches the hypergeometric
machinery or the closed form's gauge factor, so agreement between this
module and `analytic` is a genuine two-route check.  The module holds the
integrator `_dop853` and its two users, `integrate_tdse_batch` and
`transformed_ode_check`, and imports from the package only `errors` and
`model`; exp(-i H dt) of a constant H is `rabi.constant_h_propagator`.

The integrator is hand-rolled rather than delegated so that (a) whole
parameter sweeps can be integrated as one batched state array with a shared
adaptive step (the per-figure oracle runs need hundreds of trajectories in
seconds), (b) the driver counts accepted and rejected steps, and (c)
results are bitwise deterministic for fixed inputs.  `integrate_tdse_batch`
is the one entry point for the Schroedinger equation; a single trajectory
is a batch of one, and its tolerances are a `model.IntegratorConfig`.

A batch state holds a few hundred numbers, so a step costs numpy calls, not
arithmetic.  The 12 stages and the FSAL row live as rows of one (13, size)
array, read as real numbers; each stage input is one dot of a tableau row
with those rows, the 5th- and 3rd-order error estimates e5 and e3 are one
dot together, and the step's error is the largest
|h| e5^2 / sqrt(e5^2 + 0.01 e3^2) of any entry.  The coupling's phase factors
are formed at once at the 11 stage times a step adds (stage 0 is the step
before's stage 12, FSAL; stage 12 shares stage 11's time), once per row
distinct in the bits of (A, alpha, beta, epsilon), as cos and sin of 2 phi,
equal to exp(2i phi) bit for bit.  f(i, y, out) writes each stage into its
row; stage sums and inputs go to buffers made once per run.  The tests pin
step counts and sampled rows by digest, so a change to this arithmetic that
moves any bit shows there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError
from .model import IntegratorConfig, ModelParams, derived_params, omega_integral, t_of_x

# DOP853 tableau: 12 stages and the FSAL row, whose input (row 12 of _A) is the
# 8th-order solution.  _ERR holds the 5th- and 3rd-order error weights E5 and E3
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0])
_A = [np.array(row, dtype=float) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
)]
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
_ERR = np.array([_E5, _E3])
_TINY = np.finfo(float).tiny

# the step never exceeds this fraction of the exponential's e-folding time 1/|alpha|
STEP_CAP = 0.1
# safety budget of accepted plus rejected steps for one integration
MAX_STEPS = 2_000_000
# points of x at which transformed_ode_check compares the two routes
TRANSFORMED_SAMPLES = 41


def _dop853(rhs, t0, t1, y0, cfg: IntegratorConfig, max_step, t_eval):
    """Generic batched DOP853 driver.

    ``rhs(ts)`` takes stage times and returns ``f(i, y, out)``, which writes
    the derivative at ``ts[i]`` into ``out``; so coefficients of time alone
    are formed once per step: ``rhs`` gets the start time once, then the
    times of stages 1-11 of each step, and stage 12 is evaluated at ``ts[10]``.
    ``y0`` may have any shape; the error norm is the max over all entries.
    Steps are shortened to land exactly on ``t_eval`` points (and on t1), so
    sampling is exact rather than interpolated.  Supports t1 < t0.  Returns
    (samples, accepted, rejected), samples of shape (len(t_eval),) + y0.shape.
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
    k = np.empty((13,) + y.shape, dtype=complex)
    # the stages as rows of real numbers, so every stage sum is one real dot: at
    # figure batch sizes a complex dot took 0.01-2 ms on a 2-core machine, this 5 us
    flat = k.reshape(13, -1).view(float)
    rhs(np.array([t]))(0, y, k[0])
    # one stage's sum (as real numbers, then as y's increment) and input, reused
    acc = np.empty(flat.shape[1])
    dy, y8 = acc.view(complex).reshape(y.shape), np.empty_like(y)
    h = direction * min(max_step, span / 100.0, 1e-2)
    accepted = rejected = 0

    while (t1 - t) * direction > 0:
        if accepted + rejected >= MAX_STEPS:
            raise AccuracyError(f"step budget {MAX_STEPS} exhausted at t={t}")
        # do not step past the next sample time or the endpoint
        limit = targets[next_target][0] if next_target < len(targets) else t1
        # clip the trial step to land on the limit without forgetting the
        # controller's natural step size
        clipped = (t + h - limit) * direction > 0
        h_try = limit - t if clipped else h
        f = rhs(t + _C[1:12] * h_try)  # stage 0 is the last step's stage 12 (FSAL)
        for i in range(1, 13):  # row 12 of _A holds the 8th-order weights: the last input is y8
            np.matmul(_A[i], flat[:i], out=acc)
            np.add(y, np.multiply(h_try, dy, out=dy), out=y8)
            f(min(i, 11) - 1, y8, k[i])  # stage i's time is ts[i - 1], stage 12's ts[10]
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y8))
        e5, e3 = np.abs((_ERR @ flat).view(complex)) / scale.reshape(-1)
        # the floor makes an entry with e5 = e3 = 0 (delta = 0) a 0, not 0/0; NaN stays NaN
        err = abs(h_try) * float((e5 * (e5 / np.maximum(np.hypot(e5, 0.1 * e3), _TINY))).max())
        if math.isnan(err):
            err = math.inf  # overflowed stages: reject and shrink the step the most
        if err <= 1.0:
            t, y, y8 = t + h_try, y8, y
            k[0] = k[12]  # FSAL
            accepted += 1
            while next_target < len(targets) and (t - targets[next_target][0]) * direction >= 0:
                samples[targets[next_target][1]] = y
                next_target += 1
        else:
            rejected += 1
        factor = min(5.0, max(0.2, 0.9 * err ** -0.125 if err > 0 else 5.0))
        h_new = abs(h_try) * factor
        if clipped and err <= 1.0:
            h_new = max(h_new, abs(h))  # clipping must not throttle the controller
        h = direction * min(h_new, max_step)
        if abs(h) < 1e-15 * span:
            raise AccuracyError(f"step size underflow at t={t}")
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
    Raises AccuracyError before stepping when a point's phase at either end
    of the window cannot be resolved at ``cfg.rel_tol``; its ``points`` are
    the batch indices of those points, so a caller can run the rest again.
    An AccuracyError raised once stepping has started names no points.
    """
    if not params:
        raise DomainError("the oracle batch holds no parameter points")
    fields = np.array([(q.A, q.alpha, q.beta, q.epsilon, q.Delta) for q in params], dtype=float)
    minus_i_delta = -0.5j * (fields[:, 3] + 1j * fields[:, 4])
    # phi is formed once per distinct (A, alpha, beta, epsilon) bytes, so 0.0 != -0.0
    distinct = {}
    inverse = np.array([distinct.setdefault(f.tobytes(), (len(distinct), f))[0]
                        for f in fields[:, :4]])
    A, alpha, beta, eps = np.array([f for _, f in distinct.values()]).T
    y0 = np.broadcast_to(np.asarray(init, dtype=complex), (len(params), 2)).copy()
    max_step = float(STEP_CAP / np.max(np.abs(alpha)))
    times = [t1] if t_eval is None else t_eval
    # an overflowing point fails the phase check below, or makes a NaN error norm
    # that the controller rejects until AccuracyError, so numpy's warnings say nothing
    with np.errstate(over="ignore", invalid="ignore"):
        grow = A * np.exp(alpha * t0 + beta) / alpha

        def two_phi(ts):
            # 2 phi at each of ts, shape (len(ts), n_distinct); phi = integral of Omega from t0
            s = np.asarray(ts, dtype=float)[:, None] - t0
            return grow * np.expm1(alpha * s) + eps * s

        def rhs(ts):
            # columns -i delta (e^{2i phi}, e^{-2i phi}) at each stage time; a' = coupling a[::-1]
            x = two_phi(ts) + 0.0  # -0.0 to +0.0: exp(1j * -0.0) is 1 + 0j, sin(-0.0) is -0.0
            w = np.empty(x.shape, dtype=complex)
            np.cos(x, out=w.real)
            np.sin(x, out=w.imag)
            w = w[:, inverse]
            coupling = np.empty(w.shape + (2,), dtype=complex)
            np.multiply(minus_i_delta, w, out=coupling[..., 0])
            np.multiply(minus_i_delta, np.conjugate(w, out=w), out=coupling[..., 1])
            return lambda i, a, out: np.multiply(coupling[i], a[:, ::-1], out=out)

        ends = np.abs(two_phi([t0, t1])[:, inverse])
        # resolved means |phi| 2^-52 <= rel_tol; an unresolved phase would end only
        # at MAX_STEPS, and a non-finite window is _dop853's DomainError
        bad = np.flatnonzero(~np.all(ends <= 2.0**53 * cfg.rel_tol, axis=0)).tolist()
        if math.isfinite(t1 - t0) and bad:
            raise AccuracyError(f"dynamical phase up to {np.max(ends) / 2} rad on [{t0}, {t1}] "
                                f"is not resolved at rel_tol {cfg.rel_tol}", points=bad)
        samples, _, _ = _dop853(rhs, t0, t1, y0, cfg, max_step, times)
        # back to the lab frame: c1 = e^{-i phi} a1, c2 = e^{i phi} a2
        samples *= np.exp(0.5j * two_phi(times)[:, inverse, None] * [-1.0, 1.0])
    return samples[0] if t_eval is None else samples


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

    def f(x, u, out):
        psi, dpsi = u
        out[:] = dpsi, -((a - b * x) / x) * dpsi - (c * c / (x * x)) * psi

    # initial state C(t(x0)) = (0, 1): psi = 1, x psi' = -i c C1 = 0
    u0 = np.array([1.0, 0.0], dtype=complex)
    xs = np.linspace(x0, x1, TRANSFORMED_SAMPLES)
    samp_x, _, _ = _dop853(lambda xi: lambda i, u, out: f(xi[i], u, out),
                           x0, x1, u0, cfg, math.inf, xs)
    ts = np.array([t_of_x(p, float(x)) for x in xs])
    t_init = float(ts[0])
    samp_t = integrate_tdse_batch([p], (0.0, 1.0), t_init, float(ts[-1]), cfg, t_eval=ts)
    dev = 0.0
    for i, (x, tt) in enumerate(zip(xs, ts)):
        phase = np.exp(1j * omega_integral(p, t_init, float(tt)))
        psi, dpsi = samp_x[i]
        c2_from_x = psi * phase
        c1_from_x = (1j / c) * x * dpsi * phase if c != 0 else 0.0
        c1_t, c2_t = samp_t[i, 0]
        dev = max(dev, abs(c1_from_x - c1_t), abs(c2_from_x - c2_t))
    return dev
