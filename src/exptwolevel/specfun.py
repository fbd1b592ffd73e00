"""Complex-argument confluent hypergeometric functions M and U.

Evaluation strategy (thresholds collected in :data:`SWITCHING`):

* ``Re z < 0``: the reflection M(a, b, z) = e^z M(b-a, b, -z) maps the
  argument to the right half plane, where the Taylor series does not
  alternate in its dominant real part.
* ``|z| <= SWITCHING.taylor_radius``: direct Taylor series accumulated in
  double-double arithmetic.  On the imaginary axis the series cancels by
  ~e^{|z|}; the extended accumulator keeps the result at full double
  accuracy up to the switching radius.
* ``|z| > SWITCHING.taylor_radius``: the large-|z| asymptotic expansions
  (Poincare series), truncated at the smallest term.

U is computed from the two-M connection formula for non-integer second
parameter.  Integer second parameter is handled by evaluating at
``gamma +/- SWITCHING.integer_offset`` and averaging, which cancels the
O(h) term of the degenerate limit.  The principal branch is used
throughout, with the cut of U along the negative real axis; points on the
cut evaluate as the limit from above (principal ``log``).

The Wronskian convention satisfied by this implementation is

    M U' - U M' = -Gamma(gamma)/Gamma(mu) * z^{-gamma} e^z

(the standard sign; verified empirically, see ``wronskian_residual``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from scipy.special import loggamma as _loggamma

from . import _dd
from .errors import AccuracyError, DomainError, ExponentOverflowError, PoleError


@dataclass(frozen=True)
class SwitchingConfig:
    """Regime thresholds for the M/U evaluation paths."""

    taylor_radius: float = 35.0
    max_taylor_terms: int = 700
    max_asymptotic_terms: int = 120
    integer_offset: float = 1e-7
    accuracy_target: float = 1e-9


SWITCHING = SwitchingConfig()

_INT_TOL = 1e-12


def _nonpositive_int(z) -> bool:
    z = complex(z)
    if abs(z.imag) > _INT_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= _INT_TOL


def ln_gamma_complex(z) -> complex:
    """Principal branch of log Gamma(z); rejects the poles."""
    z = complex(z)
    if _nonpositive_int(z):
        raise PoleError(f"log Gamma pole at z = {z}", location=round(z.real))
    return complex(_loggamma(z))


def _rgamma(z) -> complex:
    """1/Gamma(z), with the poles mapped to exact zero."""
    if _nonpositive_int(z):
        return 0.0 + 0.0j
    return cmath.exp(-ln_gamma_complex(z))


def _safe_exp(z) -> complex:
    z = complex(z)
    if z.real > 700.0:
        raise ExponentOverflowError(z)
    return cmath.exp(z)


# Taylor / asymptotic kernels ------------------------------------------------


def _kummer_taylor(a, b, z, cfg: SwitchingConfig) -> complex:
    """Sum_k (a)_k / (b)_k z^k / k! in double-double arithmetic."""
    term = _dd.CDD_ONE
    total = _dd.CDD_ONE
    zdd = _dd.cdd_from(z)
    for k in range(cfg.max_taylor_terms):
        num = (_dd.two_sum(a.real, float(k)), _dd.dd_from(a.imag))
        den = (_dd.two_sum(b.real, float(k)), _dd.dd_from(b.imag))
        term = _dd.cdd_mul(term, zdd)
        term = _dd.cdd_mul(term, num)
        term = _dd.cdd_div(term, den)
        kk = (float(k + 1), 0.0)
        term = (_dd.dd_div(term[0], kk), _dd.dd_div(term[1], kk))
        total = _dd.cdd_add(total, term)
        t2 = _dd.cdd_abs2(term)
        if t2 == 0.0:
            break  # terminating series (a a non-positive integer)
        if t2 < 1e-66 * _dd.cdd_abs2(total):
            break
    else:
        raise AccuracyError(
            f"Kummer Taylor series did not converge in {cfg.max_taylor_terms} terms "
            f"for a={a}, b={b}, z={z}",
            residual=(_dd.cdd_abs2(term) / max(_dd.cdd_abs2(total), 1e-300)) ** 0.5,
        )
    return _dd.cdd_to_complex(total)


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


def _kummer_asymptotic(a, b, z, cfg: SwitchingConfig) -> complex:
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
        u1, e1 = _tricomi_asymptotic_raw(a, b, z, cfg)
        t1 = _rgamma(b - a) * cmath.exp(-s * a * cmath.pi * 1j) * u1
    t2 = 0.0 + 0.0j
    e2 = 0.0
    if not _nonpositive_int(a):
        u2, e2 = _tricomi_asymptotic_raw(b - a, b, -z, cfg)
        t2 = _rgamma(a) * cmath.exp(s * (b - a) * cmath.pi * 1j) * _safe_exp(z) * u2
    total = t1 + t2
    err = (abs(t1) * e1 + abs(t2) * e2) / max(abs(total), 1e-300)
    if err > cfg.accuracy_target:
        raise AccuracyError(
            f"asymptotic expansion of M(a={a}, b={b}, z={z}) reached residual {err:.2e}",
            residual=err,
        )
    return cmath.exp(ln_gamma_complex(b)) * total


def _tricomi_asymptotic_raw(a, b, z, cfg: SwitchingConfig):
    s, err = _poincare_sum(a, a - b + 1.0, -1.0 / z, cfg.max_asymptotic_terms)
    return cmath.exp(-a * cmath.log(z)) * s, err


# public operations ----------------------------------------------------------


def kummer_m(mu, gamma, z, cfg: SwitchingConfig = SWITCHING) -> complex:
    """Kummer's function M(mu, gamma, z) on the principal branch."""
    mu, gamma, z = complex(mu), complex(gamma), complex(z)
    if _nonpositive_int(gamma):
        raise PoleError(
            f"M(mu, gamma, z) undefined: gamma = {gamma} is a non-positive integer",
            location=round(gamma.real),
        )
    if z == 0:
        return 1.0 + 0.0j
    if z.real < 0:
        # reflection keeps the series argument in the right half plane
        return _safe_exp(z) * kummer_m(gamma - mu, gamma, -z, cfg)
    if abs(z) <= cfg.taylor_radius:
        return _kummer_taylor(mu, gamma, z, cfg)
    try:
        return _kummer_asymptotic(mu, gamma, z, cfg)
    except AccuracyError:
        # band just above the switching radius with unfavourable parameters:
        # the double-double Taylor sum still carries ~e^{|z|} * 1e-32 headroom
        if abs(z) <= 50.0:
            return _kummer_taylor(mu, gamma, z, cfg)
        raise


def _tricomi_connection(mu, gamma, z, cfg: SwitchingConfig):
    """Two-M connection value of U plus a roundoff estimate from the
    cancellation between the two terms."""
    t1 = 0.0 + 0.0j
    if not _nonpositive_int(mu - gamma + 1.0):
        c1 = cmath.exp(ln_gamma_complex(1.0 - gamma)) * _rgamma(mu - gamma + 1.0)
        t1 = c1 * kummer_m(mu, gamma, z, cfg)
    t2 = 0.0 + 0.0j
    if not _nonpositive_int(mu):
        c2 = cmath.exp(ln_gamma_complex(gamma - 1.0)) * _rgamma(mu)
        t2 = c2 * cmath.exp((1.0 - gamma) * cmath.log(z)) * kummer_m(
            mu - gamma + 1.0, 2.0 - gamma, z, cfg
        )
    out = t1 + t2
    err = 3e-16 * (abs(t1) + abs(t2)) / max(abs(out), 1e-300)
    return out, err


def tricomi_u(mu, gamma, z, cfg: SwitchingConfig = SWITCHING) -> complex:
    """Tricomi's function U(mu, gamma, z), principal branch (cut on the
    negative real axis, evaluated there as the limit from above).

    The connection-formula route cancels by roughly
    e^{Re z} * e^{pi(|Im mu| + |Im gamma|)}; when that erodes the accuracy
    target and the asymptotic series estimates better, the asymptotic value
    is returned instead (adaptive regime choice).
    """
    mu, gamma, z = complex(mu), complex(gamma), complex(z)
    if mu == 0:
        return 1.0 + 0.0j  # terminating series, any gamma and z
    if z == 0:
        raise DomainError("U(mu, gamma, 0) not evaluated (generically singular at z = 0)")
    if abs(z) > cfg.taylor_radius:
        val, err = _tricomi_asymptotic_raw(mu, gamma, z, cfg)
        if err > cfg.accuracy_target and abs(z) <= 50.0 and not (
            abs(gamma.imag) <= _INT_TOL and abs(gamma.real - round(gamma.real)) <= _INT_TOL
        ):
            # band just above the switching radius: the connection route may
            # still be the more accurate of the two
            alt, alt_err = _tricomi_connection(mu, gamma, z, cfg)
            if alt_err < err:
                val, err = alt, alt_err
        if err > cfg.accuracy_target:
            raise AccuracyError(
                f"U(mu={mu}, gamma={gamma}, z={z}) reached residual {err:.2e}",
                residual=err,
            )
        return val
    gr = round(gamma.real)
    if abs(gamma.imag) <= _INT_TOL and abs(gamma.real - gr) < 10 * cfg.integer_offset:
        # degenerate (logarithmic) case: symmetric offset cancels the O(h) term
        h = cfg.integer_offset
        up, e_up = _tricomi_connection(mu, complex(gr + h, gamma.imag), z, cfg)
        dn, e_dn = _tricomi_connection(mu, complex(gr - h, gamma.imag), z, cfg)
        return 0.5 * (up + dn)
    val, err = _tricomi_connection(mu, gamma, z, cfg)
    if err > cfg.accuracy_target and abs(z) >= 10.0:
        alt, alt_err = _tricomi_asymptotic_raw(mu, gamma, z, cfg)
        if alt_err < err:
            return alt
    return val


def kummer_m_derivative(mu, gamma, z, cfg: SwitchingConfig = SWITCHING) -> complex:
    """dM/dz via the contiguous identity (mu/gamma) M(mu+1, gamma+1, z)."""
    mu, gamma = complex(mu), complex(gamma)
    if mu == 0:
        return 0.0 + 0.0j
    return (mu / gamma) * kummer_m(mu + 1.0, gamma + 1.0, z, cfg)


def tricomi_u_derivative(mu, gamma, z, cfg: SwitchingConfig = SWITCHING) -> complex:
    """dU/dz via the contiguous identity -mu U(mu+1, gamma+1, z)."""
    mu, gamma = complex(mu), complex(gamma)
    if mu == 0:
        return 0.0 + 0.0j
    return -mu * tricomi_u(mu + 1.0, gamma + 1.0, z, cfg)


def wronskian_residual(mu, gamma, z, cfg: SwitchingConfig = SWITCHING) -> float:
    """Relative deviation of M U' - U M' from -Gamma(gamma)/Gamma(mu) z^-gamma e^z.

    The minus sign is the convention this implementation's M and U satisfy
    (fixed empirically once; the bare identity is sometimes quoted unsigned).
    """
    mu, gamma, z = complex(mu), complex(gamma), complex(z)
    if _nonpositive_int(mu):
        raise PoleError(
            f"Wronskian prefactor Gamma(mu) pole at mu = {mu}", location=round(mu.real)
        )
    # the products M*U' and U*M' exceed W by ~e^{pi |Im gamma|} on the
    # imaginary axis; form the difference in double-double so the residual
    # reflects the function values, not the combination's own cancellation
    w_num = _dd.cdd_to_complex(
        _dd.cdd_sub(
            _dd.cdd_mul(
                _dd.cdd_from(kummer_m(mu, gamma, z, cfg)),
                _dd.cdd_from(tricomi_u_derivative(mu, gamma, z, cfg)),
            ),
            _dd.cdd_mul(
                _dd.cdd_from(tricomi_u(mu, gamma, z, cfg)),
                _dd.cdd_from(kummer_m_derivative(mu, gamma, z, cfg)),
            ),
        )
    )
    w_closed = -cmath.exp(
        ln_gamma_complex(gamma) - ln_gamma_complex(mu) - gamma * cmath.log(z) + z
    )
    return abs(w_num - w_closed) / abs(w_closed)
