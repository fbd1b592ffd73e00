"""Confluent hypergeometric building blocks: frozen reference values,
closed-form identities, the Wronskian property grid, the Taylor sum's
stops, and M and U against mpmath where it is installed."""

import cmath
import contextlib
import decimal
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from exptwolevel import specfun
from exptwolevel.errors import AccuracyError, DomainError, ExponentOverflowError, PoleError
from exptwolevel.analytic import propagator
from exptwolevel.model import AxisSpec, ModelParams
from exptwolevel.specfun import (
    kummer_m,
    kummer_m_derivative,
    ln_gamma_complex,
    tricomi_u,
    tricomi_u_derivative,
    wronskian_residual,
)
from exptwolevel.sweep import SweepConfig, _figure_config, run_sweep


def relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# Reference values frozen from 50-digit arbitrary-precision evaluation.
REFERENCE_M = [
    # (mu, gamma, z, value)
    (1.0, 2.0, 1.0, math.e - 1.0),
    (0.3 + 0.2j, 1.1, 0.5 - 0.4j, 1.2457725722192147 - 0.0493776037293967j),
    (0.3 + 0.2j, 1.1 + 0.5j, 35j, 0.1862975010882763 + 0.0034339580697521j),
    # |z| past TAYLOR_RADIUS where the asymptotic expansion misses the target
    # and kummer_m falls back to the Taylor sum; frozen from 60-digit evaluation
    (
        18.918392215047565 - 100.93670063591014j,
        37.83678443009513 - 116.16399890917033j,
        -47.920819464223165j,
        -0.006704281879809423 + 0.003004221159400758j,
    ),
    # Re z < 0: the Taylor sum inside the radius, the asymptotic route beyond
    # it, with no reflection to the right half plane; 60-digit evaluation
    (0.4 + 0.3j, 1.3 - 0.2j, -25 + 15j, 0.10582264522153624 - 0.19725805677954927j),
    (0.4 + 0.3j, 1.3 - 0.2j, -40 - 20j, -0.00936614831961544 - 0.2567306880388094j),
]

REFERENCE_U = [
    (0.3 + 0.2j, 1.1, 0.5 - 0.4j, 0.9950061231940401 + 0.1964986895848441j),
    # |z| <= TAYLOR_RADIUS: the connection misses the target (estimate 3e-3)
    # and the asymptotic retry is kept; 60-digit evaluation
    (0.5, 1.2, 30.0, 0.18168924984404036),
    # |z| = 51.8 and 86.0: the asymptotic route misses the target and the
    # connection's value is kept; 60-digit evaluation
    (
        7.179657211154275 + 8.251654882838622j,
        -5.757051849533972 - 0.6039822365034411j,
        -37.36017153073608 + 35.81251919538523j,
        -1.189856637480941e-05 + 4.1483245344201555e-06j,
    ),
    (
        8.71616661254517 + 8.149757574548381j,
        -5.8857577581814695 + 4.852902954427867j,
        -56.595898009972956 + 64.71204505058856j,
        -5.140894317134186e-10 + 5.075823412710521e-10j,
    ),
]

# gamma within INTEGER_BAND of an integer: U has no series route there, and the
# asymptotic route alone either meets ACCURACY_TARGET or raises AccuracyError.
# Values from 60-digit evaluation; a raising point keeps its value as a comment.
INTEGER_GAMMA_U = [
    (1.0, 1.0, 30.0, 0.032289738758980125216),  # e^30 E1(30)
    (0.2 + 1j, 1.0, 20 - 5j, -0.44312061966921827090 - 0.069095450446525204013j),
    (0.2 + 1j, 2.0, 20 - 5j, -0.43969876238321441267 - 0.090983527233283980672j),
    (1.0, 1.0, 1.0, AccuracyError),  # e E1(1) = 0.59634736232319407434
    # 0.71954618377117013435 - 0.10664161097772469501j
    (0.3 + 0.2j, 0.0, 1.5 - 0.5j, AccuracyError),
    # 0.71954621332315623891 - 0.10664159213607584175j
    (0.3 + 0.2j, 4e-7, 1.5 - 0.5j, AccuracyError),
]


class TestReferenceValues:
    @pytest.mark.parametrize("mu,g,z,expect", REFERENCE_M)
    def test_kummer_frozen(self, mu, g, z, expect):
        assert relerr(kummer_m(mu, g, z), expect) < 1e-13

    def test_tricomi_noninteger_gamma(self):
        mu, g, z, expect = REFERENCE_U[0]
        assert relerr(tricomi_u(mu, g, z), expect) < 1e-13

    def test_tricomi_asymptotic_retry_below_radius(self):
        mu, g, z, expect = REFERENCE_U[1]
        assert relerr(tricomi_u(mu, g, z), expect) < 1e-13

    @pytest.mark.parametrize("mu,g,z,expect", REFERENCE_U[2:], ids=["z52", "z86"])
    def test_tricomi_connection_retry_beyond_radius(self, mu, g, z, expect):
        assert relerr(tricomi_u(mu, g, z), expect) < 1e-13

    def test_kummer_exact_zero(self):
        # M(-1, 2, z) = 1 - z/2: the Taylor sum is exactly 0, which no relative
        # estimate can certify; the terminating asymptotic series returns it
        assert kummer_m(-1.0, 2.0, 2.0) == 0.0

    def test_kummer_left_half_plane_correctly_rounded(self):
        # the fixed-point Taylor sum rounds once, so no reflection is needed
        mu, g, z, expect = REFERENCE_M[4]
        assert kummer_m(mu, g, z) == expect

    @pytest.mark.parametrize(
        "mu,g,z,expect", INTEGER_GAMMA_U,
        ids=["e30-E1-30", "z20-g1", "z20-g2", "e-E1-1", "z1.5-g0", "z1.5-g4e-7"],
    )
    def test_tricomi_integer_gamma(self, mu, g, z, expect):
        if expect is AccuracyError:
            with pytest.raises(AccuracyError):
                tricomi_u(mu, g, z)
        else:
            assert relerr(tricomi_u(mu, g, z), expect) < specfun.ACCURACY_TARGET

    def test_ln_gamma(self):
        expect = -0.6527906442043729 - 0.9550077243425691j
        assert abs(ln_gamma_complex(0.5 + 1j) - expect) < 1e-14

    def test_derivative_frozen(self):
        mu, g = 0.3 + 0.2j, 1.1
        expect = 0.3632155681771616 + 0.2673829901578867j
        assert relerr(kummer_m_derivative(mu, g, 0.5), expect) < 1e-13
        expect_u = -0.1438989440611280 - 0.4955076628042923j
        assert relerr(tricomi_u_derivative(mu, g, 0.5 - 0.4j), expect_u) < 1e-13


class TestIdentities:
    def test_m_at_origin(self):
        assert kummer_m(0.4 + 0.1j, 0.9, 0.0) == 1.0

    def test_m_special_case_exponential(self):
        # M(g, g, z) = e^z
        for z in (0.5, -1.3, 2j, 3.0 - 4.0j):
            assert relerr(kummer_m(1.7, 1.7, z), cmath.exp(z)) < 1e-13

    def test_u_power_reduction(self):
        # U(mu, mu + 1, z) = z^(-mu)
        for mu, z in [(0.7, 2.0), (0.3 + 0.4j, 1.5 - 0.5j), (1.2, 0.3)]:
            expect = cmath.exp(-mu * cmath.log(z))
            assert relerr(tricomi_u(mu, mu + 1, z), expect) < 1e-12

    def test_gamma_recurrence(self):
        # Gamma(w + 1) = w * Gamma(w), checked through the logarithm
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            lhs = ln_gamma_complex(w + 1)
            rhs = ln_gamma_complex(w) + cmath.log(w)
            # logs may differ by 2 pi i
            diff = (lhs - rhs).imag % (2 * math.pi)
            assert abs(lhs.real - rhs.real) < 1e-12
            assert min(diff, 2 * math.pi - diff) < 1e-12

    def test_mu_zero_terminates(self):
        # U(0, gamma, z) = 1 and M(0, gamma, z) = 1, so both derivatives vanish
        for g, z in [(1.3, 2.0), (0.4 - 0.7j, 40.0 + 3.0j)]:
            assert tricomi_u(0.0, g, z) == 1.0
            assert kummer_m_derivative(0.0, g, z) == 0.0
            assert tricomi_u_derivative(0.0, g, z) == 0.0

    def test_kummer_reflection(self):
        # M(a, b, z) = e^z M(b - a, b, -z)
        mu, g = 0.4 + 0.3j, 1.3 - 0.2j
        for z in (-3.0, -1.0 + 2.0j, -10.0 - 5.0j):
            lhs = kummer_m(mu, g, z)
            rhs = cmath.exp(z) * kummer_m(g - mu, g, -z)
            assert relerr(lhs, rhs) < 1e-12


class TestDerivatives:
    def test_m_derivative_vs_finite_difference(self):
        mu, g, z = 0.6 + 0.3j, 1.4, 1.0 - 0.7j
        h = 1e-6
        fd = (kummer_m(mu, g, z + h) - kummer_m(mu, g, z - h)) / (2 * h)
        assert relerr(kummer_m_derivative(mu, g, z), fd) < 1e-6

    def test_u_derivative_vs_finite_difference(self):
        mu, g, z = 0.6 + 0.3j, 1.4, 1.0 - 0.7j
        h = 1e-6
        fd = (tricomi_u(mu, g, z + h) - tricomi_u(mu, g, z - h)) / (2 * h)
        assert relerr(tricomi_u_derivative(mu, g, z), fd) < 1e-6


class TestWronskian:
    def test_model_grid(self):
        # parameters distributed like the model's own derived parameters
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(500):
            A = rng.uniform(0.5, 3.0)
            eps = rng.uniform(-2.0, 2.0)
            Delta = rng.uniform(-2.0, 2.0)
            a = 1.0 + 1j * eps
            c = (1j * Delta + eps) / 2.0
            mu = 0.5 * ((1.0 - a) - cmath.sqrt((1.0 - a) ** 2 - 4.0 * c * c))
            g = 2.0 * mu + a
            x = rng.uniform(0.05, 50.0 / A)
            z = -1j * A * x
            if abs(z) < 1e-3 or abs(mu) < 0.05:
                continue
            worst = max(worst, wronskian_residual(mu, g, z))
        assert worst < 1e-9

    def test_generic_complex_box(self):
        # broader parameter box; intrinsic cancellation limits this to ~1e-7
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(300):
            mu = complex(rng.uniform(-0.5, 1.5), rng.uniform(-1.0, 1.0))
            g = complex(rng.uniform(-0.5, 2.0), rng.uniform(-1.0, 1.0))
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-30.0, 30.0))
            if abs(z) < 0.1 or abs(mu) < 0.3 or abs(mu - g) < 0.3:
                continue
            if min(abs(g - round(g.real)), abs(g.imag)) < 0.3:
                continue
            worst = max(worst, wronskian_residual(mu, g, z))
        assert worst < 1e-7

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            wronskian_residual(-2.0, 1.3, 1.0 + 1.0j)


def _box_arguments(n=300, seed=2024):
    """Seeded (mu, gamma, z) over the model-typical box: Re mu in [-1, 1],
    Im mu and Im gamma in [-2, 2], Re gamma in [0.2, 2], z = -iy, y in [0.1, 60]."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    g = rng.uniform(0.2, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    z = -1j * rng.uniform(0.1, 60.0, n)
    return [(complex(a), complex(b), complex(c)) for a, b, c in zip(mu, g, z)]


def _wide_box(n=300, seed=50):
    """Seeded (mu, gamma, z): Re and Im of mu and gamma in [-10, 10], and z at
    any angle with |z| log-uniform in [0.1, 500]."""
    rng = np.random.default_rng(seed)
    mu, g = (rng.uniform(-10.0, 10.0, n) + 1j * rng.uniform(-10.0, 10.0, n) for _ in "mg")
    r = 10.0 ** rng.uniform(-1.0, math.log10(500.0), n)
    z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    return [(complex(a), complex(b), complex(c)) for a, b, c in zip(mu, g, z)]


def _near_integer_gamma_box(n=400, seed=11):
    """Seeded (mu, gamma, z) of the box above with gamma = k + h near an integer
    k in {-2, ..., 3}: |h| log-uniform in [1e-12, 1e-6), h real (either sign)
    on the first half of the points and complex on the second."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    k = rng.integers(-2, 4, n)
    size = 10.0 ** rng.uniform(-12.0, -6.0, n)
    phase = np.where(np.arange(n) < n // 2, rng.choice([0.0, np.pi], n),
                     rng.uniform(-np.pi, np.pi, n))
    g = k + size * np.exp(1j * phase)
    z = -1j * rng.uniform(0.1, 60.0, n)
    return [(complex(a), complex(b), complex(c)) for a, b, c in zip(mu, g, z)]


TSCAN = SweepConfig(
    _figure_config(3).base, (AxisSpec("t", 0.2, 4.0, 20), AxisSpec("Delta", -1.5, 1.5, 7)),
    "amplitudes",
)


def _ln_gamma_box(n=3000, far=1000, seed=2025):
    """Seeded log Gamma arguments: Re z in [-6, 9] with Im z in [-10, 10], then
    with |Im z| in [10, 300], then points near poles and the |Im z| = 7 switch,
    and one far out."""
    rng = np.random.default_rng(seed)
    near = rng.uniform(-6.0, 9.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
    high = rng.uniform(-6.0, 9.0, far) + 1j * rng.choice([-1.0, 1.0], far) * rng.uniform(
        10.0, 300.0, far)
    edge = [-1 - 1e-7, -2 + 1e-9j, 1e-7, -1e-7, 0.49 + 7j, 0.49 - 7j, 1e3 + 1e3j]
    return [complex(w) for w in (*near, *high, *edge)]


def _random_box(seed):
    """The benchmark's random-box points (perfbench/workloads.py, `RandomBox`):
    4 Latin hypercube draws of 200, alpha log-uniform in [0.02, 5], A in
    [0.5, 3], epsilon and Delta in [-3, 3], alpha t + beta in [-4, 2] on [0, 1]."""
    for j in range(4):
        rng, n = np.random.default_rng([seed, j]), 200

        def latin():
            return (rng.permutation(n) + rng.uniform(size=n)) / n

        # each expression as the benchmark forms it, so the draws are equal bit for bit
        lo, hi = math.log(0.02), math.log(5.0)
        alpha = np.exp(lo + (hi - lo) * latin())
        amp, eps, delta = 0.5 + 2.5 * latin(), -3.0 + 6.0 * latin(), -3.0 + 6.0 * latin()
        beta = -4.0 + (2.0 - alpha - -4.0) * latin()
        yield from (ModelParams(*map(float, w), 0.0, 1.0)
                    for w in zip(amp, alpha, beta, eps, delta))


class TestMpmathReference:
    """M against mpmath's 1F1 at 50 digits: within 2^-52 relative wherever
    the Taylor sum runs (|z| <= TAYLOR_RADIUS, and beyond it where the
    asymptotic route misses), which only a correctly rounded sum meets,
    within ACCURACY_TARGET on the asymptotic route, or a typed error.  log Gamma
    against mpmath's loggamma, on its principal branch.  U over the box and
    near integer gamma against mpmath's hyperu: within ACCURACY_TARGET or a
    typed error."""

    @pytest.mark.parametrize(
        "cfg",
        # None: the box; then every log Gamma argument of the sweeps
        [None, *(_figure_config(n, oracle=False) for n in (2, 3, 4)), TSCAN],
        ids=["box", "figure-2", "figure-3", "figure-4", "t-scan"],
    )
    def test_ln_gamma(self, cfg, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        if cfg is None:
            points = _ln_gamma_box()
        else:
            points = []

            def recorded(z):
                points.append(z)
                return ln_gamma_complex(z)

            monkeypatch.setattr(specfun, "ln_gamma_complex", recorded)
            run_sweep(cfg)
            monkeypatch.undo()
        assert points
        for z in set(points):
            with mpmath.workdps(50):
                ref = complex(mpmath.loggamma(z))
            # an error of 2 pi in Im, off the principal branch, fails this too
            assert abs(ln_gamma_complex(z) - ref) <= 1e-14 * max(1.0, abs(ref)), z

    @pytest.mark.parametrize(
        "cfg",
        # None: the box; then the Taylor sums of sweeps: the t0 basis of each
        # figure (its t1 basis is past the radius), and the bases of t-scan
        # with |z| <= TAYLOR_RADIUS; then a seeded 120 of the M arguments past
        # the radius on which the asymptotic route misses the target on the
        # random-box seeds 1 and 2 (947), which the Taylor sum takes over
        [None, *(_figure_config(n, oracle=False) for n in (2, 3, 4)), TSCAN, "random-box"],
        ids=["box", "figure-2", "figure-3", "figure-4", "t-scan", "random-box"],
    )
    def test_kummer_m(self, cfg, taylor_sums):
        mpmath = pytest.importorskip("mpmath")
        if cfg is None:
            points = _box_arguments()
        elif cfg == "random-box":
            for q in (*_random_box(1), *_random_box(2)):
                with contextlib.suppress(AccuracyError, DomainError, ExponentOverflowError):
                    propagator(q, 0.0, 1.0)
            misses = [w for w in taylor_sums if abs(w[2]) > specfun.TAYLOR_RADIUS]
            assert len(misses) > 500
            rng = np.random.default_rng(22)
            points = [misses[i] for i in rng.choice(len(misses), 120, replace=False)]
        else:
            run_sweep(cfg)
            points = taylor_sums[:]  # the checks below sum again
        checked = 0
        for mu, g, z in points:
            try:
                got = kummer_m(mu, g, z)
            except (AccuracyError, DomainError, ExponentOverflowError):
                continue
            with mpmath.workdps(50):
                ref = complex(mpmath.hyp1f1(mu, g, z))
            # every point of a sweep is a Taylor sum, correctly rounded at any |z|
            taylor = cfg is not None or abs(z) <= specfun.TAYLOR_RADIUS
            limit = 2.0**-52 if taylor else specfun.ACCURACY_TARGET
            assert relerr(got, ref) < limit, (mu, g, z)
            checked += 1
        assert checked >= 0.9 * len(points) > 0

    def test_kummer_m_without_an_estimate_floor(self):
        # both asymptotic terms are below 1e-300 (t1 underflows to 0); a floor of
        # 1e-300 under their sum shrank the estimate to 3e-10, and M returned
        # 5.2e-16 + 3.6e-16i.  The route now misses, and the Taylor sum runs
        mpmath = pytest.importorskip("mpmath")
        mu, g, z = 85.922 - 112.203j, 172.845 - 118.975j, -306.447j
        with mpmath.workdps(50):
            ref = complex(mpmath.hyp1f1(mu, g, z))
        assert relerr(kummer_m(mu, g, z), ref) < 2.0**-52

    @pytest.mark.parametrize("f, reference, args", [
        # the asymptotic route's two terms hold factors e^-1939 and e^-748 and
        # underflow to a sum of 0, whose weighted estimate was 0; true value
        # -1.7826940134570327e-08 + 2.274405347787535e-08j
        (kummer_m, "hyp1f1", (117.74905419710642 - 617.1296678428853j,
                              236.49810839421284 - 709.841755814065j, -160.24307241270785j)),
        # the connection's two terms hold factors e^-945 and e^-806 and
        # underflow to a sum of 0; true value
        # 1.4174324884862868e-128 + 6.920814575690598e-129j
        (tricomi_u, "hyperu", (60.607378365726106 + 60.12636034232321j,
                               12.010209349038291 - 556.078661760271j, 4.826020226140308j)),
    ], ids=["m-asymptotic", "u-connection"])
    def test_underflowed_sum_of_zero_certifies_nothing(self, f, reference, args):
        # each returned 0j as exact; a route whose sum is 0 misses unless every
        # term's own estimate is 0, so the value is now right or raises
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = complex(getattr(mpmath, reference)(*args))
        try:
            got = f(*args)
        except (AccuracyError, ExponentOverflowError):
            return
        assert relerr(got, ref) < specfun.ACCURACY_TARGET

    def test_value_below_the_float_range_raises(self):
        # U(300, 1.5, 1e5 i) is about 1e-1500: the asymptotic route's power
        # z^-mu underflows to 0 with a Poincare estimate of 3.3e-18, which no
        # longer certifies the 0
        with pytest.raises((AccuracyError, ExponentOverflowError)):
            tricomi_u(300.0, 1.5, 1e5j)

    @pytest.mark.parametrize(
        "a, b, z",
        [(0.7 - 0.3j, 1.25 + 1e-300j, 3.5 - 2.25j),
         (-2.5 + 4.0j, 0.5 + 2.0**-80 * 1j, -12.0 + 7.0j),
         (3.0, 1e-30 + 1e-200j, 0.75)],
    )
    def test_taylor_negative_shift(self, a, b, z):
        # b's tiny imaginary part makes its denominator db exceed dz da, so the
        # step's power-of-two shift is negative and scales z up instead
        mpmath = pytest.importorskip("mpmath")
        (_, _, da), (_, _, db), (_, _, dz) = map(specfun._exact, (a, b, z))
        assert db > dz * da
        got, err = specfun._kummer_taylor(a, b, z)
        with mpmath.workdps(50):
            ref = complex(mpmath.hyp1f1(a, b, z))
        assert err < specfun.ACCURACY_TARGET
        assert relerr(got, ref) < 2.0**-52

    def test_tricomi_u(self):
        # the connection's estimate counts each Gamma prefactor's error: on the
        # box every returned U meets the target, the rest raise
        mpmath = pytest.importorskip("mpmath")
        points = _box_arguments()
        checked = 0
        for mu, g, z in points:
            try:
                got = tricomi_u(mu, g, z)
            except AccuracyError:
                continue
            with mpmath.workdps(50):
                ref = complex(mpmath.hyperu(mu, g, z))
            assert relerr(got, ref) < specfun.ACCURACY_TARGET, (mu, g, z)
            checked += 1
        assert checked >= 0.9 * len(points)

    def test_tricomi_u_wide_box(self):
        # either route may follow the other at any |z|: a returned U meets the
        # target, the rest raise a typed error.  One known miss: at z = -66 + 26j,
        # near the negative real axis, U's Poincare sum is off by 1.5e-9 with
        # estimate 8.6e-10, and M's asymptotic route, which the connection
        # would use, by the same
        mpmath = pytest.importorskip("mpmath")
        points = _wide_box()
        checked, missed = 0, []
        for mu, g, z in points:
            try:
                got = tricomi_u(mu, g, z)
            except (AccuracyError, ExponentOverflowError, PoleError):
                continue
            with mpmath.workdps(50):
                ref = complex(mpmath.hyperu(mu, g, z))
            if not relerr(got, ref) < specfun.ACCURACY_TARGET:
                missed.append(z)
            checked += 1
        assert missed == [-66.42380028552962 + 26.307661706829293j]
        assert checked >= 0.8 * len(points)

    @pytest.mark.xfail(strict=True, reason=(
        "U's Poincare sum near the negative real axis at |z| ~ 17 estimates "
        "7.9e-10 but is off by 1.60e-9 (ROADMAP item 7)"))
    def test_tricomi_u_known_asymptotic_miss(self):
        mpmath = pytest.importorskip("mpmath")
        mu, g, z = 0.284 - 0.201j, 1 + 1.6e-9j, -15.78 + 7.15j
        with mpmath.workdps(50):
            ref = complex(mpmath.hyperu(mu, g, z))
        assert relerr(tricomi_u(mu, g, z), ref) < specfun.ACCURACY_TARGET

    @pytest.mark.parametrize(
        "g",
        # just outside INTEGER_BAND, Gamma(gamma - 1) or Gamma(1 - gamma) sits
        # near a pole and the two terms cancel by ~1/|gamma - n|.  U was returned
        # off by 1.2e-6, 3.6e-5 and 1.6e-9 (against 60-digit mpmath) while the
        # connection's estimate passed
        [1e-5, 2e-6, 1 - 3e-6],
    )
    def test_tricomi_u_just_outside_integer_band(self, g):
        with pytest.raises(AccuracyError):
            tricomi_u(0.3 + 0.2j, g, 1.5 - 0.5j)

    def test_tricomi_u_near_integer_gamma(self):
        # every point is within INTEGER_BAND, where the connection's Gamma
        # prefactors near their poles cancel to ~1/h: U takes the asymptotic
        # route alone, and its gate passes only values that meet the target
        mpmath = pytest.importorskip("mpmath")
        points = _near_integer_gamma_box()
        checked = 0
        for mu, g, z in points:
            try:
                got = tricomi_u(mu, g, z)
            except (AccuracyError, PoleError):
                continue
            with mpmath.workdps(50):
                ref = complex(mpmath.hyperu(mu, g, z))
            assert relerr(got, ref) < specfun.ACCURACY_TARGET, (mu, g, z)
            checked += 1
        assert checked >= 0.5 * len(points)


class TestDomain:
    def test_u_at_origin_rejected(self):
        with pytest.raises(DomainError):
            tricomi_u(0.5, 1.2, 0.0)

    def test_m_gamma_pole_rejected(self):
        with pytest.raises(PoleError):
            kummer_m(0.5, -1.0, 1.0)

    def test_ln_gamma_pole_rejected(self):
        with pytest.raises(PoleError):
            ln_gamma_complex(-2.0)

    def test_exponent_overflow_raises(self):
        # the asymptotic route's e^z term is past the exponent limit at z = 800
        with pytest.raises(ExponentOverflowError):
            kummer_m(0.5, 1.5, 800.0)

    @pytest.mark.parametrize("call, expect", [
        # Gamma(b) of M's asymptotic route, e^860 and e^3885: that route's
        # overflow is a miss, and the Taylor sum returns the correctly rounded
        # value (50-digit mpmath)
        (lambda: kummer_m(0.5, 200.5, 40.0), 1.1175570538018291),
        (lambda: kummer_m(300.5, 700.2, 40j), -0.08581291983755988 - 0.7511986847721677j),
        # the Gamma prefactors of U's connection formula, where the asymptotic
        # route misses too: the connection's overflow is raised
        (lambda: tricomi_u(-300.5 + 100j, 1.5, 20j), ExponentOverflowError),
    ], ids=["m-real", "m-imaginary", "u-connection"])
    def test_gamma_prefactor_overflow_is_typed(self, call, expect):
        if expect is ExponentOverflowError:
            with pytest.raises(ExponentOverflowError):
                call()
        else:
            assert call() == expect

    @pytest.mark.parametrize("mu, g, z, expect", [
        # e^|z| near or past the float range: the asymptotic route misses
        # the target, and the Taylor sum, at 120 + 1.45|z| + ... bits, returns
        # the correctly rounded value (60-digit evaluation) or stops where its
        # terms leave the float range
        (40 + 120j, 47 + 100j, 600j, 4.126282857432753e-09 - 3.488970899841206e-09j),
        (0.5 + 200j, 1.5 - 100j, 1e4j, AccuracyError),
    ], ids=["z600", "z1e4"])
    def test_taylor_fallback_far_out_is_quick(self, mu, g, z, expect):
        start = time.perf_counter()
        if expect is AccuracyError:
            with pytest.raises(AccuracyError, match="did not converge"):
                kummer_m(mu, g, z)
        else:
            assert relerr(kummer_m(mu, g, z), expect) < 2.0**-52
        assert time.perf_counter() - start < 1.0

    def test_tricomi_missing_target_raises(self):
        # both routes miss ACCURACY_TARGET here (true value
        # -0.01135884833280571 - 0.022769411168428195j, 60 digits): the
        # connection estimates 6e-6 and the asymptotic series 2e-5
        with pytest.raises(AccuracyError) as info:
            tricomi_u(
                1.2029718292593041 + 0.7780925882868193j,
                0.4283823604538659 - 0.9812192607576353j,
                16.483657564690976 - 5.313257864431741j,
            )
        assert info.value.residual > specfun.ACCURACY_TARGET

    @pytest.mark.parametrize("mu, g, z", [
        # true value 8.270543145768901e-08 + 2.269973716062769e-08j (60 digits);
        # the connection's value is off by 2.5e-7, inside its estimate if each M
        # counted its rounding alone
        (4.689262464652028 - 1.364978224660975j, -1.3615061436044673 + 2.8723111154407945j,
         -7.792171879160267 - 46.522901601526094j),
        # true value -3.321004035328368e-05 - 0.0003438049192630863j; off by 1.5e-8
        (3.832787511905627 + 5.090570250340409j, -8.807077458929598 + 9.678620647230748j,
         -10.750309804631877 + 64.97718324287473j),
    ], ids=["z47", "z66"])
    def test_connection_counts_m_estimate(self, mu, g, z):
        # the asymptotic route misses, and the connection's terms cancel enough
        # that M's own estimate, from its asymptotic route, misses the target
        with pytest.raises(AccuracyError):
            tricomi_u(mu, g, z)

    @pytest.mark.parametrize("z", [40.0, 60.0], ids=["z40", "z60"])
    def test_nan_estimate_fails_the_target(self, z):
        # the Poincare sum overflows to a NaN estimate, so the connection is
        # tried, and it overflows: a typed error, not a returned nan
        with pytest.raises(ExponentOverflowError):
            tricomi_u(1e200, 1.5, z)

    def test_nan_estimate_keeps_the_retry(self):
        # the gate itself, with stub routes: at |z| = 40 the asymptotic route runs
        # first, and its NaN estimate gives way to the series retry's value
        def overflowed(*w):
            return complex(math.nan, math.nan), math.nan

        def exact(*w):
            return 2.0 + 0.0j, 0.0

        assert specfun._route("U", exact, overflowed, 1.0, 1.5, 40.0) == (2.0, 0.0)

    def test_raised_accuracy_error_keeps_the_retry(self):
        # a route that raises AccuracyError misses, as one that overflows does:
        # at |z| = 1 the series route runs first and the asymptotic route follows
        def unconverged(*w):
            raise AccuracyError("series did not converge")

        def exact(*w):
            return 2.0 + 0.0j, 0.0

        assert specfun._route("M", unconverged, exact, 1.0, 1.5, 1.0) == (2.0, 0.0)

    def test_taylor_sum_past_the_float_range_is_typed(self):
        # |M| rounds past the largest float: the sum names ln|M|, and its
        # neighbour, just inside the range, returns its value
        with pytest.raises(ExponentOverflowError) as info:
            kummer_m(3427.4511496932973, 0.5, 35)
        assert 709.78 < info.value.exponent < 709.79
        assert kummer_m(3427.4511496914783, 0.5, 35) == 1.797693134592405e308

    def test_taylor_nonconvergence_reports_finite_residual(self):
        # the second term is ~1e599, past the float range: the sum stops there
        with pytest.raises(AccuracyError, match="did not converge") as info:
            kummer_m(1e300, 1.5, 0.5)
        assert math.isfinite(info.value.residual)

    def test_overflowing_term_modulus_falls_back(self):
        # the finite first term (1.5e308 + 1.5e308j) has |re| + |im| >= 2^1024
        with pytest.raises(AccuracyError, match="did not converge") as info:
            kummer_m(1.5e308, 1.0, 1 + 1j)
        assert math.isfinite(info.value.residual)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_terminating_series_is_its_polynomial(self, n):
        # a = -n: term n + 1 is exactly zero, and the sum is the polynomial
        # Sum_{k<=n} (-n)_k / (b)_k z^k / k!, here formed in exact rationals
        b = Fraction(0.3)
        for z in (-35.0, -7.5, 2.0, 20.0, 35.0):
            term = total = Fraction(1)
            for k in range(n):
                term *= Fraction(z) * (k - n) / ((b + k) * (k + 1))
                total += term
            assert kummer_m(-n, float(b), z) == float(total)

    def test_switching_config_frozen(self):
        assert specfun.TAYLOR_RADIUS == 35.0
        assert specfun.MAX_ASYMPTOTIC_TERMS == 120
        assert specfun.INTEGER_BAND == 1e-6
        assert specfun.ACCURACY_TARGET == 1e-9


class TestDecimalContext:
    def test_kernel_owns_its_context(self):
        # a caller's low-precision, Inexact-trapping context neither changes
        # the values nor is changed by the Taylor kernel or the Wronskian
        mu, g, z, _ = REFERENCE_M[-1]
        expect_m, expect_w = kummer_m(mu, g, z), wronskian_residual(mu, g, z)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            ctx.clear_flags()
            assert kummer_m(mu, g, z) == expect_m
            assert wronskian_residual(mu, g, z) == expect_w
            assert decimal.getcontext() is ctx
            assert ctx.prec == 5 and ctx.traps[decimal.Inexact]
            assert not any(ctx.flags.values())
