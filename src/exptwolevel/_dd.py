"""Minimal double-double (~31 significant digits) arithmetic.

Used only inside the Taylor-series accumulation of the confluent
hypergeometric functions, where alternating complex series suffer
cancellation of up to ~e^{|z|} at moderate |z|.  This is fixed extended
precision (two doubles per component), not arbitrary precision.

Real double-doubles are (hi, lo) tuples with hi + lo the represented value
and |lo| <= ulp(hi)/2.  Complex double-doubles are ((re_hi, re_lo),
(im_hi, im_lo)) pairs.  The algorithms are the classical error-free
transformations (Knuth two-sum, Dekker split / two-prod).
"""

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_from(x):
    return (float(x), 0.0)


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_neg(x):
    return (-x[0], -x[1])

def dd_sub(x, y):
    return dd_add(x, dd_neg(y))


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


# complex double-double ------------------------------------------------------

CDD_ONE = ((1.0, 0.0), (0.0, 0.0))


def cdd_from(z):
    z = complex(z)
    return (dd_from(z.real), dd_from(z.imag))


def cdd_to_complex(z):
    return complex(z[0][0] + z[0][1], z[1][0] + z[1][1])


def cdd_add(x, y):
    return (dd_add(x[0], y[0]), dd_add(x[1], y[1]))


def cdd_sub(x, y):
    return (dd_sub(x[0], y[0]), dd_sub(x[1], y[1]))


def cdd_mul(x, y):
    re = dd_sub(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_add(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))
    return (re, im)


def cdd_div(x, y):
    den = dd_add(dd_mul(y[0], y[0]), dd_mul(y[1], y[1]))
    re = dd_add(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_sub(dd_mul(x[1], y[0]), dd_mul(x[0], y[1]))
    return (dd_div(re, den), dd_div(im, den))


def cdd_abs2(z):
    # ordinary double is fine for magnitude tests
    re = z[0][0] + z[0][1]
    im = z[1][0] + z[1][1]
    return re * re + im * im
