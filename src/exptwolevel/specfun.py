"""Complex-argument confluent hypergeometric functions M and U.

One route rule serves M and U (thresholds are the constants below):

* ``|z| <= TAYLOR_RADIUS``: the series route where one exists; beyond it the
  asymptotic route.  M's series route is the Taylor series (DLMF 13.2.2),
  summed exactly in fixed point at a precision set by |z| (see
  ``_kummer_taylor``); U's is the two-M connection formula, which U lacks for
  gamma within INTEGER_BAND of an integer (as complex distance), where the
  connection's Gamma poles cancel.  The asymptotic route is the large-|z|
  Poincare series truncated at the smallest term.
* A route misses where its estimate is off ACCURACY_TARGET (a NaN estimate
  too) or where it raises: ``AccuracyError`` for a Taylor sum whose terms
  leave the float range, ``ExponentOverflowError`` for an exponential past
  ``ExponentOverflowError.LIMIT`` or an M past the float range.  A sum of 0
  certifies nothing: two terms that sum to 0 estimate 0 only where each
  term's own estimate is 0, and a 0 with a nonzero estimate misses.  After a
  miss the other route runs at any |z|.  Where both miss, the first error a
  route raised is raised, else ``AccuracyError``.

A non-finite argument raises ``DomainError``.
The principal branch is used throughout, with the cut of U along the
negative real axis; points on the cut evaluate as the limit from above.

log Gamma, for the Gamma prefactors, is Hare's principal-branch algorithm (J.
Algorithms 25, 1997), as in scipy's ``loggamma``: for Re z < 1/2 and |Im z| <= 7
the reflection formula (DLMF 5.5.3) with branch term 2 pi i floor(Re z/2 + 1/4),
else Stirling's series (DLMF 5.11.1, 8 terms) once a sum of principal logs has
shifted z to Re z >= 7 or |Im z| > 7.  A signed zero Im z picks its side of the cut.

The Wronskian convention satisfied by this implementation is

    M U' - U M' = -Gamma(gamma)/Gamma(mu) * z^{-gamma} e^z

(the standard sign; verified empirically, see ``wronskian_residual``).
"""

from __future__ import annotations

import cmath
import math

from .errors import AccuracyError, DomainError, ExponentOverflowError, PoleError

# regime thresholds of the M/U evaluation paths
TAYLOR_RADIUS = 35.0
MAX_ASYMPTOTIC_TERMS = 120
INTEGER_BAND = 1e-6
ACCURACY_TARGET = 1e-9

_INT_TOL = 1e-12
# Stirling's coefficients B_2n / (2n (2n - 1)), n = 8 down to 1 (DLMF 5.11.1)
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
             -1 / 360, 1 / 12)
_LN_PI, _LN_SQRT_2PI = 1.14472988584940017414, 0.91893853320467274178


def _finite(*args) -> tuple:
    """The arguments as complex numbers; DomainError unless each is finite."""
    args = tuple(map(complex, args))
    if not all(map(cmath.isfinite, args)):
        raise DomainError(f"arguments must be finite, got {args}")
    return args


def _nonpositive_int(z: complex) -> bool:
    return abs(z.imag) <= _INT_TOL and (r := round(z.real)) <= 0 and abs(z.real - r) <= _INT_TOL


def ln_gamma_complex(z) -> complex:
    """Principal branch of log Gamma(z); rejects the poles."""
    (z,) = _finite(z)
    if z.real >= 0.5 or abs(z.imag) > 7.0:
        return _ln_gamma_stirling(z)
    if _nonpositive_int(z):
        raise PoleError(f"log Gamma pole at z = {z}")
    # reflection: sin(pi z) = (-1)^n sin(pi (z - n)), with z - n exact
    n = round(z.real)
    x, y, sign = math.pi * (z.real - n), math.pi * z.imag, -1.0 if n % 2 else 1.0
    s = complex(sign * math.sin(x) * math.cosh(y), sign * math.cos(x) * math.sinh(y))
    branch = math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25)
    return complex(_LN_PI, branch) - cmath.log(s) - _ln_gamma_stirling(1.0 - z)


def _ln_gamma_stirling(z: complex) -> complex:
    """log Gamma(z) for Re z >= 1/2 or |Im z| > 7: Stirling's series after
    shifting z up, log Gamma(z) = log Gamma(z + k) - sum of log(z + j), j < k.
    The logs are taken of pairs of factors: Re z > 0 where z is shifted, so
    the args of two factors sum inside (-pi, pi) and no 2 pi is lost."""
    shift = 0j
    if abs(z.imag) <= 7.0:
        while z.real < 6.0:
            shift += cmath.log(z * (z + 1.0))
            z += 2.0
        if z.real < 7.0:
            shift += cmath.log(z)
            z += 1.0
    w = 1.0 / (z * z)
    c8, c7, c6, c5, c4, c3, c2, c1 = _STIRLING
    series = ((((((c8 * w + c7) * w + c6) * w + c5) * w + c4) * w + c3) * w + c2) * w + c1
    return (z - 0.5) * cmath.log(z) - z + _LN_SQRT_2PI + series / z - shift


def _safe_exp(z: complex) -> complex:
    if z.real > ExponentOverflowError.LIMIT:
        raise ExponentOverflowError(z)
    return cmath.exp(z)


# Taylor / asymptotic kernels ------------------------------------------------


def _kummer_taylor(a, b, z):
    """Sum_k (a)_k / (b)_k z^k / k! (DLMF 13.2.2) and its relative error estimate.

    Each term is a pair of ints scaled by 2^bits and rounded down once per
    step.  The sum cancels by up to ~e^|z| (log2 e = 1.443), and by at most
    2^(1024 + 1074) if it returns (terms below the float range, a sum above
    its least value), so bits = 120 + min(1.45|z| + 8 log2(1 + |a| + |b|), 2098)
    leaves 120 bits spare.  The sum stops at an exactly zero term (a
    terminating series) or at |term| <= 2^-66 |sum|, both as |re| + |im|, and
    rounds once.  Its estimate n max|t_k| 2^-bits / |sum| is the rounding of n
    steps carried up to the largest term, to first order for terms that rise
    from t_0 = 1 and then fall.  Past |a| + 2|b| + 8|z| terms they at least
    halve each step, so a sum not done bits + 1100 terms later, or whose terms
    leave the float range, raises ``AccuracyError``.

    A step multiplies by z (a + k) conj(b + k) / (|b + k|^2 (k + 1)).  With z,
    a and b each an integer over a power of two dz, da, db, that is an integer
    over 2^s m, 2^s = dz da / db and m = |db (b + k)|^2 (k + 1).  As floor(floor(x
    / 2^s) / m) = floor(x / (2^s m)), a step shifts right by s and floor-divides
    by m, which is about half as long; a negative s scales z up once instead.
    """
    bits = 120 + int(min(1.45 * abs(z) + 8.0 * math.log2(1.0 + abs(a) + abs(b)), 2098.0))
    budget = int(abs(a)) + 2 * int(abs(b)) + 8 * int(abs(z)) + bits + 1200
    (nr, ai, da), (dr, bi, db), (zr, zi, dz) = _exact(a), _exact(b), _exact(z)
    s = (dz * da).bit_length() - db.bit_length()
    zr, zi, s = (zr, zi, s) if s >= 0 else (zr << -s, zi << -s, 0)
    zi_ai, zr_ai, bi2 = zi * ai, zr * ai, bi * bi
    one, huge = 1 << bits, 1 << (bits + 1024)
    tr, ti, sr, si, peak = one, 0, one, 0, one
    for k in range(1, budget + 1):
        # term k: (nr + i ai) / da = a + k - 1 and (dr + i bi) / db = b + k - 1
        fr, fi = zr * nr - zi_ai, zr_ai + zi * nr
        fr, fi = fr * dr + fi * bi, fi * dr - fr * bi
        m = (dr * dr + bi2) * k
        tr, ti = ((tr * fr - ti * fi) >> s) // m, ((tr * fi + ti * fr) >> s) // m
        nr, dr = nr + da, dr + db
        sr += tr
        si += ti
        mag, total = abs(tr) + abs(ti), abs(sr) + abs(si)
        peak = mag if mag > peak else peak
        if mag << 66 <= total:
            # (k + 1) terms; 1.0 once max|t_k| 2^-bits reaches |sum|, where no digit is sure
            err = (k + 1) * peak / (total << bits) if peak >> bits < total else 1.0
            try:
                return complex(sr / one, si / one), err  # int / int rounds correctly
            except OverflowError:  # |M| rounds past the float range: name ln|M|
                raise ExponentOverflowError(0.5 * math.log(sr * sr + si * si) - bits * math.log(2))
        if mag >= huge:
            break  # past the float range: the fraction bits cannot resolve the sum
    raise AccuracyError(
        f"Kummer Taylor series did not converge by term {k} for a={a}, b={b}, z={z}",
        residual=mag / total if mag < total else 1.0,
    )


def _exact(w: complex) -> tuple:
    """Integers (re, im, d) with w = (re + i im) / d exactly; d a power of two."""
    (re, q), (im, s) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    d = max(q, s)
    return re * (d // q), im * (d // s), d


def _relative(err: float, value: complex) -> float:
    """err / |value|, with no floor to shrink it; at value 0, 0 for err 0, else inf."""
    return err / abs(value) if value else (0.0 if err == 0 else math.inf)


def _poincare_sum(p, q, zinv):
    """Sum_k (p)_k (q)_k / k! zinv^k, truncated at the smallest term.

    Returns (sum, relative error estimate).
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    best = abs(term)
    for k in range(MAX_ASYMPTOTIC_TERMS):
        term = term * (p + k) * (q + k) * zinv / (k + 1)
        mag = abs(term)
        if mag >= best and k > 2:
            break  # divergent tail reached; stop at the smallest term
        total += term
        best = mag
        if mag < 1e-17 * abs(total):
            break
    return total, _relative(best, total)


def _kummer_asymptotic(a, b, z):
    # Exact two-U connection (avoids the Stokes-sector sign ambiguity of the
    # naive e^{+-i pi a} Poincare form, which matters for complex parameters):
    #   M = G(b)/G(b-a) e^{-s a pi i} U(a,b,z)
    #     + G(b)/G(a) e^{s(b-a) pi i} e^z U(b-a, b, e^{s pi i} z)
    # with s = -1 for Im z > 0 and s = +1 otherwise; e^{s pi i} z is then the
    # principal -z.  Each U is evaluated by its own asymptotic series, so the
    # truncation error is relative to that term alone; a term at a pole of
    # its 1/Gamma factor is 0.
    s = -1.0 if z.imag > 0 else 1.0
    t1, e1 = 0.0 + 0.0j, 0.0
    if not _nonpositive_int(b - a):
        u1, e1 = _tricomi_asymptotic_raw(a, b, z)
        t1 = _safe_exp(-ln_gamma_complex(b - a)) * _safe_exp(-s * a * cmath.pi * 1j) * u1
    t2, e2 = 0.0 + 0.0j, 0.0
    if not _nonpositive_int(a):
        u2, e2 = _tricomi_asymptotic_raw(b - a, b, -z)
        t2 = (_safe_exp(-ln_gamma_complex(a)) * _safe_exp(s * (b - a) * cmath.pi * 1j)
              * _safe_exp(z) * u2)
    total = t1 + t2
    err = _relative(abs(t1) * e1 + abs(t2) * e2 if total else e1 + e2, total)
    return _safe_exp(ln_gamma_complex(b)) * total, err


def _tricomi_asymptotic_raw(a, b, z):
    s, err = _poincare_sum(a, a - b + 1.0, -1.0 / z)
    return _safe_exp(-a * cmath.log(z)) * s, err


def _route(name, series, asymptotic, mu, gamma, z):
    """(value, error estimate) of the first of the two routes in order that does
    not miss, by the route rule of M and U; each maps (mu, gamma, z) to the
    same, and ``series`` is None where there is no series route."""
    routes = ((series, asymptotic) if abs(z) <= TAYLOR_RADIUS and series
              else (asymptotic, series))
    best, raised = math.inf, None
    for route in filter(None, routes):
        try:
            val, err = route(mu, gamma, z)
        except (AccuracyError, ExponentOverflowError) as exc:
            raised = raised or exc
            continue
        if err <= ACCURACY_TARGET and (val or not err):  # an underflowed 0 certifies nothing
            return val, err
        best = min(best, err)
    raise raised or AccuracyError(
        f"{name}(mu={mu}, gamma={gamma}, z={z}) reached residual {best:.2e}", residual=best)


def _kummer(mu, gamma, z):
    """M's (value, error estimate), for arguments already checked."""
    return _route("M", _kummer_taylor, _kummer_asymptotic, mu, gamma, z)


# public operations ----------------------------------------------------------


def kummer_m(mu, gamma, z) -> complex:
    """Kummer's function M(mu, gamma, z) on the principal branch."""
    mu, gamma, z = _finite(mu, gamma, z)
    if _nonpositive_int(gamma):
        raise PoleError(f"M(mu, gamma, z) undefined: gamma = {gamma} is a non-positive integer")
    return _kummer(mu, gamma, z)[0]


def _tricomi_connection(mu, gamma, z):
    """Two-M connection value of U plus a roundoff estimate from the
    cancellation between the two terms.

    Each term's relative error counts M's own estimate, 3e-16 for the power
    and the products, and for each Gamma factor exp(+-log Gamma(w)) the
    rounding of log Gamma's value, 2^-53 |log Gamma(w)| (large near a pole),
    and of a computed argument w, 2^-53 |w| amplified by |psi(w)| ~
    1 / dist(w, poles).
    """
    t1, e1 = 0.0 + 0.0j, 0.0
    if not _nonpositive_int(mu - gamma + 1.0):
        w, v = 1.0 - gamma, mu - gamma + 1.0
        lw, lv = ln_gamma_complex(w), ln_gamma_complex(v)
        m, em = _kummer(mu, gamma, z)
        t1 = _safe_exp(lw) * _safe_exp(-lv) * m
        e1 = _gamma_error(w, lw) + _gamma_error(v, lv) + em
    t2, e2 = 0.0 + 0.0j, 0.0
    if not _nonpositive_int(mu):
        w = gamma - 1.0
        lw, lm = ln_gamma_complex(w), ln_gamma_complex(mu)
        m, em = _kummer(mu - gamma + 1.0, 2.0 - gamma, z)
        t2 = _safe_exp(lw) * _safe_exp(-lm) * _safe_exp((1.0 - gamma) * cmath.log(z)) * m
        e2 = _gamma_error(w, lw) + 2.0**-53 * abs(lm) + em  # mu is not rounded here
    out = t1 + t2
    return out, _relative(abs(t1) * (3e-16 + e1) + abs(t2) * (3e-16 + e2) if out else math.inf, out)


def _gamma_error(w: complex, ln_gamma: complex) -> float:
    """Relative rounding error of exp(+-ln_gamma), ln_gamma = log Gamma(w),
    for a w rounded once; see `_tricomi_connection`."""
    pole = min(0, round(w.real))
    return 2.0**-53 * (abs(ln_gamma) + abs(w) / abs(w - pole))


def tricomi_u(mu, gamma, z) -> complex:
    """Tricomi's function U(mu, gamma, z), principal branch (cut on the
    negative real axis, evaluated there as the limit from above).

    The series route is the two-M connection formula, which cancels by
    roughly e^{Re z} * e^{pi(|Im mu| + |Im gamma|)} and estimates that loss.
    """
    mu, gamma, z = _finite(mu, gamma, z)
    if mu == 0:
        return 1.0 + 0.0j  # terminating series, any gamma and z
    if z == 0:
        raise DomainError("U(mu, gamma, 0) not evaluated (generically singular at z = 0)")
    int_gamma = abs(gamma - round(gamma.real)) < INTEGER_BAND
    series = None if int_gamma else _tricomi_connection
    return _route("U", series, _tricomi_asymptotic_raw, mu, gamma, z)[0]


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
    from fractions import Fraction  # here, off the closed form's import path
    mu, gamma, z = _finite(mu, gamma, z)
    if _nonpositive_int(mu):
        raise PoleError(f"Wronskian prefactor Gamma(mu) pole at mu = {mu}")
    m, dm = kummer_m(mu, gamma, z), kummer_m_derivative(mu, gamma, z)
    u, du = tricomi_u(mu, gamma, z), tricomi_u_derivative(mu, gamma, z)
    # the products M*U' and U*M' exceed W by ~e^{pi |Im gamma|} on the
    # imaginary axis; form the difference exactly so the residual reflects
    # the function values, not the combination's own cancellation
    (mr, mi), (dur, dui), (ur, ui), (dmr, dmi) = (
        (Fraction(w.real), Fraction(w.imag)) for w in (m, du, u, dm)
    )
    w_num = complex(
        float(mr * dur - mi * dui - (ur * dmr - ui * dmi)),
        float(mr * dui + mi * dur - (ur * dmi + ui * dmr)),
    )
    w_closed = -cmath.exp(
        ln_gamma_complex(gamma) - ln_gamma_complex(mu) - gamma * cmath.log(z) + z
    )
    return abs(w_num - w_closed) / abs(w_closed)
