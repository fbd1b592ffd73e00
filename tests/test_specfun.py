"""Confluent hypergeometric building blocks: frozen reference values,
closed-form identities, and the Wronskian property grid."""

import cmath
import decimal
import math

import numpy as np
import pytest

from exptwolevel import specfun
from exptwolevel.errors import AccuracyError, DomainError, ExponentOverflowError, PoleError
from exptwolevel.specfun import (
    kummer_m,
    kummer_m_derivative,
    ln_gamma_complex,
    tricomi_u,
    tricomi_u_derivative,
    wronskian_residual,
)


def relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# Reference values frozen from 50-digit arbitrary-precision evaluation.
REFERENCE_M = [
    # (mu, gamma, z, value)
    (1.0, 2.0, 1.0, math.e - 1.0),
    (0.3 + 0.2j, 1.1, 0.5 - 0.4j, 1.2457725722192147 - 0.0493776037293967j),
    (0.3 + 0.2j, 1.1 + 0.5j, 35j, 0.1862975010882763 + 0.0034339580697521j),
    # |z| in the (35, 50] band where the asymptotic expansion gives up and
    # kummer_m retries the Taylor sum; frozen from 60-digit evaluation
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
    (1.0, 1.0, 1.0, 0.5963473623231940743),  # e * E1(1)
    (0.3 + 0.2j, 1.1, 0.5 - 0.4j, 0.9950061231940401 + 0.1964986895848441j),
    # |z| in [RETRY_MIN, TAYLOR_RADIUS]: the connection misses the target
    # (estimate 3e-3) and the asymptotic retry is kept; 60-digit evaluation
    (0.5, 1.2, 30.0, 0.18168924984404036),
]


class TestReferenceValues:
    @pytest.mark.parametrize("mu,g,z,expect", REFERENCE_M)
    def test_kummer_frozen(self, mu, g, z, expect):
        assert relerr(kummer_m(mu, g, z), expect) < 1e-13

    def test_tricomi_noninteger_gamma(self):
        mu, g, z, expect = REFERENCE_U[1]
        assert relerr(tricomi_u(mu, g, z), expect) < 1e-13

    def test_tricomi_asymptotic_retry_below_radius(self):
        mu, g, z, expect = REFERENCE_U[2]
        assert relerr(tricomi_u(mu, g, z), expect) < 1e-13

    def test_kummer_left_half_plane_correctly_rounded(self):
        # the 40-digit Taylor sum rounds once, so no reflection is needed
        mu, g, z, expect = REFERENCE_M[4]
        assert kummer_m(mu, g, z) == expect

    def test_tricomi_integer_gamma(self):
        # integer gamma takes the symmetric-offset limit, accurate to ~1e-8
        mu, g, z, expect = REFERENCE_U[0]
        assert relerr(tricomi_u(mu, g, z), expect) < 1e-6

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

    @pytest.mark.parametrize("z, error", [(40.0, OverflowError), (60.0, AccuracyError)],
                             ids=["retry-band", "beyond-retry-band"])
    def test_nan_estimate_fails_the_target(self, z, error):
        # the Poincare sum overflows to a NaN estimate: inside the retry band the
        # connection is retried (and overflows), beyond it the NaN is an
        # AccuracyError, not a returned nan
        with pytest.raises(error):
            tricomi_u(1e200, 1.5, z)

    def test_nan_estimate_keeps_the_retry(self):
        # the gate itself, with stub routes: at |z| = 40 the asymptotic route runs
        # first, and its NaN estimate gives way to the series retry's value
        def overflowed(*w):
            return complex(math.nan, math.nan), math.nan

        def exact(*w):
            return 2.0 + 0.0j, 0.0

        assert specfun._route("U", exact, overflowed, 1.0, 1.5, 40.0) == 2.0

    def test_taylor_nonconvergence_reports_finite_residual(self):
        # the terms outgrow the float range; the ratio is formed in decimal
        with pytest.raises(AccuracyError, match="did not converge") as info:
            kummer_m(1e300, 1.5, 0.5)
        assert math.isfinite(info.value.residual)

    def test_switching_config_frozen(self):
        assert specfun.TAYLOR_RADIUS == 35.0
        assert specfun.RETRY_MIN == 10.0
        assert specfun.RETRY_RADIUS == 50.0
        assert specfun.MAX_TAYLOR_TERMS == 700
        assert specfun.TAYLOR_DIGITS == 40
        assert specfun.MAX_ASYMPTOTIC_TERMS == 120
        assert specfun.INTEGER_OFFSET == 1e-7
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
