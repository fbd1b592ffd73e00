"""Complex-argument confluent hypergeometric functions M and U.

One route rule serves both functions (thresholds are the constants below):

* ``|z| <= TAYLOR_RADIUS``: the series route.  M is the Taylor series
  (DLMF 13.2.2) summed in complex double, kept where its rounding bound
  (k + 4) 2^-53 Sum|term_k| is within TAYLOR_DOUBLE_TARGET of |sum|, with
  that bound as its estimate.  Where the bound fails (the ~e^{|z|}
  cancellation of large |z|, or an overflow), the sum is redone in
  TAYLOR_DIGITS-digit ``decimal`` arithmetic, estimate 0 (relative error
  ~e^{|z|} * 1e-40, below double rounding up to |z| = 50).  U is the two-M
  connection formula.
* ``|z| > TAYLOR_RADIUS``: the asymptotic route, the large-|z| Poincare
  series truncated at the smallest term.
* If the chosen route misses ACCURACY_TARGET (a NaN estimate misses it
  too) and RETRY_MIN <= |z| <= RETRY_RADIUS, the other route is tried and
  the better estimate kept.  The Taylor sum's estimate never exceeds
  TAYLOR_DOUBLE_TARGET, so M retries only above the radius.  A value that
  still misses the target raises ``AccuracyError``.  A non-finite argument
  raises ``DomainError``.

Integer second parameter of U takes, inside the radius, the average at
``gamma +/- INTEGER_OFFSET``, which cancels the O(h) term of the degenerate
limit (good to ~1e-8, not gated); beyond it, the asymptotic route alone.
The principal branch is used throughout, with the cut of U along the
negative real axis; points on the cut evaluate as the limit from above.

The Wronskian convention satisfied by this implementation is

    M U' - U M' = -Gamma(gamma)/Gamma(mu) * z^{-gamma} e^z

(the standard sign; verified empirically, see ``wronskian_residual``).
"""

from __future__ import annotations

import cmath
import math
from decimal import Context, Decimal, localcontext

from scipy.special import loggamma as _loggamma

from .errors import AccuracyError, DomainError, ExponentOverflowError, PoleError

# regime thresholds of the M/U evaluation paths
TAYLOR_RADIUS = 35.0
RETRY_MIN = 10.0
RETRY_RADIUS = 50.0
MAX_TAYLOR_TERMS = 700
TAYLOR_DIGITS = 40
TAYLOR_DOUBLE_TARGET = 1e-13
MAX_ASYMPTOTIC_TERMS = 120
INTEGER_OFFSET = 1e-7
ACCURACY_TARGET = 1e-9

_INT_TOL = 1e-12
_TAYLOR_CONTEXT = Context(prec=TAYLOR_DIGITS)
_TAYLOR_STOP = Decimal("1e-40")  # on |term|^2 / |sum|^2


def _finite(*args) -> tuple:
    """The arguments as complex numbers; DomainError unless each is finite."""
    args = tuple(map(complex, args))
    if not all(map(cmath.isfinite, args)):
        raise DomainError(f"arguments must be finite, got {args}")
    return args


def _nonpositive_int(z) -> bool:
    z = complex(z)
    if abs(z.imag) > _INT_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= _INT_TOL


def ln_gamma_complex(z) -> complex:
    """Principal branch of log Gamma(z); rejects the poles."""
    (z,) = _finite(z)
    if _nonpositive_int(z):
        raise PoleError(f"log Gamma pole at z = {z}", location=round(z.real))
    return complex(_loggamma(z))


def _rgamma(z) -> complex:
    """1/Gamma(z) off the poles; each caller skips its term at a pole."""
    return cmath.exp(-ln_gamma_complex(z))


def _safe_exp(z) -> complex:
    z = complex(z)
    if z.real > ExponentOverflowError.LIMIT:
        raise ExponentOverflowError(z)
    return cmath.exp(z)


# Taylor / asymptotic kernels ------------------------------------------------


def _kummer_taylor(a, b, z):
    """Sum_k (a)_k / (b)_k z^k / k! (DLMF 13.2.2) and its relative error
    estimate: the double sum under its rounding bound, else the decimal
    kernel's with estimate 0 (the route rule above)."""
    term = total = 1.0 + 0.0j
    mass = 1.0  # Sum |term_k|
    try:
        for k in range(MAX_TAYLOR_TERMS):
            term = term * z * (a + k) / ((b + k) * (k + 1))
            total += term
            mag = abs(term)
            mass += mag
            if mag == 0 or mag < 1e-17 * abs(total):
                bound = (k + 4) * 2.0**-53 * mass
                if bound <= TAYLOR_DOUBLE_TARGET * abs(total) < math.inf:  # NaN, inf fail
                    return total, bound / abs(total)
                break
    except OverflowError:  # abs() of a finite term past the float range
        pass
    return _kummer_taylor_decimal(a, b, z), 0.0


def _kummer_taylor_decimal(a, b, z) -> complex:
    """`_kummer_taylor`'s series in TAYLOR_DIGITS-digit decimal arithmetic.

    Complex values are (real, imag) pairs of ``Decimal``; the float inputs
    convert exactly and the sum rounds to ``complex`` once, at the end.
    """
    with localcontext(_TAYLOR_CONTEXT):
        ar, ai, br, bi = Decimal(a.real), Decimal(a.imag), Decimal(b.real), Decimal(b.imag)
        zr, zi = Decimal(z.real), Decimal(z.imag)
        tr, ti = Decimal(1), Decimal(0)
        sr, si = tr, ti
        for k in range(MAX_TAYLOR_TERMS):
            # term *= z * (a + k) / (b + k) / (k + 1)
            tr, ti = tr * zr - ti * zi, tr * zi + ti * zr
            nr = ar + k
            tr, ti = tr * nr - ti * ai, tr * ai + ti * nr
            dr = br + k
            d2 = (dr * dr + bi * bi) * (k + 1)
            tr, ti = (tr * dr + ti * bi) / d2, (ti * dr - tr * bi) / d2
            sr += tr
            si += ti
            t2 = tr * tr + ti * ti
            if t2 == 0:
                break  # terminating series (a a non-positive integer)
            if t2 < _TAYLOR_STOP * (sr * sr + si * si):
                break
        else:
            raise AccuracyError(
                f"Kummer Taylor series did not converge in {MAX_TAYLOR_TERMS} terms "
                f"for a={a}, b={b}, z={z}",
                # in decimal: the float conversions can overflow to inf / inf
                residual=float((t2 / max(sr * sr + si * si, Decimal("1e-300"))).sqrt()),
            )
    return complex(float(sr), float(si))


def _poincare_sum(p, q, zinv, max_terms):
    """Sum_k (p)_k (q)_k / k! zinv^k, truncated at the smallest term.

    Returns (sum, relative error estimate).
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    best = abs(term)
    for k in range(max_terms):
        term = term * (p + k) * (q + k) * zinv / (k + 1)
        mag = abs(term)
        if mag >= best and k > 2:
            break  # divergent tail reached; stop at the smallest term
        total += term
        best = mag
        if mag < 1e-17 * abs(total):
            break
    return total, best / max(abs(total), 1e-300)


def _kummer_asymptotic(a, b, z):
    # Exact two-U connection (avoids the Stokes-sector sign ambiguity of the
    # naive e^{+-i pi a} Poincare form, which matters for complex parameters):
    #   M = G(b)/G(b-a) e^{-s a pi i} U(a,b,z)
    #     + G(b)/G(a) e^{s(b-a) pi i} e^z U(b-a, b, e^{s pi i} z)
    # with s = -1 for Im z > 0 and s = +1 otherwise; e^{s pi i} z is then the
    # principal -z.  Each U is evaluated by its own asymptotic series, so the
    # truncation error is relative to that term alone.
    s = -1.0 if z.imag > 0 else 1.0
    t1 = 0.0 + 0.0j
    e1 = 0.0
    if not _nonpositive_int(b - a):
        u1, e1 = _tricomi_asymptotic_raw(a, b, z)
        t1 = _rgamma(b - a) * cmath.exp(-s * a * cmath.pi * 1j) * u1
    t2 = 0.0 + 0.0j
    e2 = 0.0
    if not _nonpositive_int(a):
        u2, e2 = _tricomi_asymptotic_raw(b - a, b, -z)
        t2 = _rgamma(a) * cmath.exp(s * (b - a) * cmath.pi * 1j) * _safe_exp(z) * u2
    total = t1 + t2
    err = (abs(t1) * e1 + abs(t2) * e2) / max(abs(total), 1e-300)
    return cmath.exp(ln_gamma_complex(b)) * total, err


def _tricomi_asymptotic_raw(a, b, z):
    s, err = _poincare_sum(a, a - b + 1.0, -1.0 / z, MAX_ASYMPTOTIC_TERMS)
    return _safe_exp(-a * cmath.log(z)) * s, err


def _route(name, series, asymptotic, mu, gamma, z):
    """The route rule.  Each route maps (mu, gamma, z) to (value, error
    estimate); ``series`` is None where there is no series route."""
    r = abs(z)
    first, other = (series, asymptotic) if r <= TAYLOR_RADIUS else (asymptotic, series)
    val, err = first(mu, gamma, z)
    # written so that a NaN estimate (an overflowed sum) fails the target too
    if not err <= ACCURACY_TARGET and other is not None and RETRY_MIN <= r <= RETRY_RADIUS:
        alt, alt_err = other(mu, gamma, z)
        if alt_err < err or cmath.isnan(err):
            val, err = alt, alt_err
    if not err <= ACCURACY_TARGET:
        raise AccuracyError(
            f"{name}(mu={mu}, gamma={gamma}, z={z}) reached residual {err:.2e}", residual=err
        )
    return val


# public operations ----------------------------------------------------------


def kummer_m(mu, gamma, z) -> complex:
    """Kummer's function M(mu, gamma, z) on the principal branch."""
    mu, gamma, z = _finite(mu, gamma, z)
    if _nonpositive_int(gamma):
        raise PoleError(
            f"M(mu, gamma, z) undefined: gamma = {gamma} is a non-positive integer",
            location=round(gamma.real),
        )
    return _route("M", _kummer_taylor, _kummer_asymptotic, mu, gamma, z)


def _tricomi_connection(mu, gamma, z, m=None):
    """Two-M connection value of U plus a roundoff estimate from the
    cancellation between the two terms; ``m``, if given, is M(mu, gamma, z)."""
    t1 = 0.0 + 0.0j
    if not _nonpositive_int(mu - gamma + 1.0):
        c1 = cmath.exp(ln_gamma_complex(1.0 - gamma)) * _rgamma(mu - gamma + 1.0)
        t1 = c1 * (kummer_m(mu, gamma, z) if m is None else m)
    t2 = 0.0 + 0.0j
    if not _nonpositive_int(mu):
        c2 = cmath.exp(ln_gamma_complex(gamma - 1.0)) * _rgamma(mu)
        t2 = c2 * cmath.exp((1.0 - gamma) * cmath.log(z)) * kummer_m(
            mu - gamma + 1.0, 2.0 - gamma, z
        )
    out = t1 + t2
    err = 3e-16 * (abs(t1) + abs(t2)) / max(abs(out), 1e-300)
    return out, err


def tricomi_u(mu, gamma, z) -> complex:
    """Tricomi's function U(mu, gamma, z), principal branch (cut on the
    negative real axis, evaluated there as the limit from above).

    The series route is the two-M connection formula, which cancels by
    roughly e^{Re z} * e^{pi(|Im mu| + |Im gamma|)} and estimates that loss.
    """
    return _tricomi_u(mu, gamma, z)


def _tricomi_u(mu, gamma, z, m=None):
    """`tricomi_u`, whose connection formula takes m = kummer_m(mu, gamma, z)
    from a caller that already summed it."""
    mu, gamma, z = _finite(mu, gamma, z)
    if mu == 0:
        return 1.0 + 0.0j  # terminating series, any gamma and z
    if z == 0:
        raise DomainError("U(mu, gamma, 0) not evaluated (generically singular at z = 0)")
    gr = round(gamma.real)
    int_gamma = abs(gamma.imag) <= _INT_TOL and abs(gamma.real - gr) < 10 * INTEGER_OFFSET
    if int_gamma and abs(z) <= TAYLOR_RADIUS:
        # degenerate (logarithmic) case: symmetric offset cancels the O(h) term
        h = INTEGER_OFFSET
        up, _ = _tricomi_connection(mu, complex(gr + h, gamma.imag), z)
        dn, _ = _tricomi_connection(mu, complex(gr - h, gamma.imag), z)
        return 0.5 * (up + dn)
    series = None if int_gamma else lambda *w: _tricomi_connection(*w, m)
    return _route("U", series, _tricomi_asymptotic_raw, mu, gamma, z)


def kummer_m_derivative(mu, gamma, z) -> complex:
    """dM/dz via the contiguous identity (mu/gamma) M(mu+1, gamma+1, z)."""
    mu, gamma, z = _finite(mu, gamma, z)
    if mu == 0:
        return 0.0 + 0.0j
    return (mu / gamma) * kummer_m(mu + 1.0, gamma + 1.0, z)


def tricomi_u_derivative(mu, gamma, z) -> complex:
    """dU/dz via the contiguous identity -mu U(mu+1, gamma+1, z)."""
    mu, gamma, z = _finite(mu, gamma, z)
    if mu == 0:
        return 0.0 + 0.0j
    return -mu * tricomi_u(mu + 1.0, gamma + 1.0, z)


def wronskian_residual(mu, gamma, z) -> float:
    """Relative deviation of M U' - U M' from -Gamma(gamma)/Gamma(mu) z^-gamma e^z.

    The minus sign is the convention this implementation's M and U satisfy
    (fixed empirically once; the bare identity is sometimes quoted unsigned).
    """
    mu, gamma, z = _finite(mu, gamma, z)
    if _nonpositive_int(mu):
        raise PoleError(
            f"Wronskian prefactor Gamma(mu) pole at mu = {mu}", location=round(mu.real)
        )
    m, m1 = kummer_m(mu, gamma, z), kummer_m(mu + 1.0, gamma + 1.0, z)  # each U reuses its M
    u, du = _tricomi_u(mu, gamma, z, m), -mu * _tricomi_u(mu + 1.0, gamma + 1.0, z, m1)
    dm = (mu / gamma) * m1
    # the products M*U' and U*M' exceed W by ~e^{pi |Im gamma|} on the
    # imaginary axis; form the difference in TAYLOR_DIGITS-digit decimal so
    # the residual reflects the function values, not the combination's own
    # cancellation
    with localcontext(_TAYLOR_CONTEXT):
        mr, mi, dur, dui = Decimal(m.real), Decimal(m.imag), Decimal(du.real), Decimal(du.imag)
        ur, ui, dmr, dmi = Decimal(u.real), Decimal(u.imag), Decimal(dm.real), Decimal(dm.imag)
        w_num = complex(
            float(mr * dur - mi * dui - (ur * dmr - ui * dmi)),
            float(mr * dui + mi * dur - (ur * dmi + ui * dmr)),
        )
    w_closed = -cmath.exp(
        ln_gamma_complex(gamma) - ln_gamma_complex(mu) - gamma * cmath.log(z) + z
    )
    return abs(w_num - w_closed) / abs(w_closed)
