"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned; do not loosen them.
"""

import cmath
import hashlib
import io
import math
import time

import numpy as np
import pytest

from exptwolevel.analytic import AmplitudePair, amplitudes, populations, propagator
from exptwolevel.cli import main as cli_main
from exptwolevel.model import AxisSpec, ModelParams, coupling, detuning, x_of_t
from exptwolevel.oracle import (
    IntegratorConfig,
    integrate_tdse_batch,
    transformed_ode_check,
)
from exptwolevel.rabi import (
    RabiParams,
    rabi_limit_convergence,
    rabi_survival_closed_form,
    rabi_survival_oracle,
)
from exptwolevel.specfun import (
    kummer_m,
    kummer_m_derivative,
    tricomi_u,
    tricomi_u_derivative,
    wronskian_residual,
)
from exptwolevel.spectrum import (
    eigenvalues_closed_form,
    eigenvalues_direct,
    energy_decomposition,
)
from exptwolevel.sweep import _figure_config, emit, run_sweep

ORACLE_CFG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)

# the three 1-D figure parameter sets: (base params, swept axis)
FIGURE_SETS = {
    2: (ModelParams(2.0, 1.0, 1.5, 0.0, 0.5, 0.0, 3.0), AxisSpec("epsilon", -2.0, 2.0, 201)),
    3: (ModelParams(2.0, 1.0, 0.0, 0.2, 0.0, 0.0, 5.0), AxisSpec("Delta", -2.0, 2.0, 201)),
    4: (ModelParams(2.0, 1.0, 0.0, 0.0, 0.5, 0.0, 5.0), AxisSpec("epsilon", -2.0, 2.0, 201)),
}


# SHA-256 of each figure's emitted CSV body (every line not starting with "#"),
# recorded under Python 3.11.7 and numpy 2.4.6; the package imports no scipy.
# Other versions may round the last bits differently.
FIGURE_ROW_DIGESTS = {
    # the basis of two Kummer columns, not {M, U}: columns moved by <= 3.4e-12
    # (figure 2), 3.7e-14 (3) and 2.5e-12 (4), toward a 40-digit mpmath reference
    2: "810883a530f9f37f5f4c05d117bd658b55816b71e66cc02f8b222b61d8d00458",
    3: "85092b21acfb930b7a5dd27d76697cbcf340daa977571925de6abed0de98908d",
    4: "43ec0f586124f164f0f392ef8b5acacb3bd32d3c66cda7324a9f4c0d1223bbf5",
    5: "b7d7030538ca6cd5f01910400c1e894029034a77c6c199e2b4e4d75fac22ecdb",
    6: "b7e26590ce0e8ac993968ce0fe54c994cb6627ac9e77bc1192ef818770140e4d",
    # the constant-H oracle in cmath, not numpy: p_mod2_oracle moved on 954
    # rows by <= 1.8e-15, and stays within 1.9e-14 of scipy's expm
    7: "4dcb8b929cec62e844c9a67328f89f42758942ef6282020cbb8f84824110bf72",
}


def _rows_digest(ds) -> str:
    buf = io.StringIO()
    emit(ds, "csv", buf)
    h = hashlib.sha256()
    for line in buf.getvalue().splitlines(keepends=True):
        if not line.startswith("#"):
            h.update(line.encode())
    return h.hexdigest()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_oracle_equivalence():
    """Closed-form amplitudes match the adaptive-RK oracle on each figure set."""
    worst, slowest = 0.0, 0.0
    for n, (base, axis) in FIGURE_SETS.items():
        start = time.monotonic()
        params = []
        for v in axis.values():
            kw = base.to_json_dict()
            kw[axis.name] = v
            params.append(ModelParams.from_json_dict(kw))
        finals = integrate_tdse_batch(params, (0.0, 1.0), base.t0, base.t1, ORACLE_CFG)
        dev = 0.0
        for q, row in zip(params, finals):
            a = amplitudes(q, AmplitudePair(0.0, 1.0, q.t0), q.t1)
            dev = max(dev, abs(a.c1 - row[0]), abs(a.c2 - row[1]))
        elapsed = time.monotonic() - start
        worst = max(worst, dev)
        slowest = max(slowest, elapsed)
    ok = worst < 1e-6 and slowest < 10.0
    report(1, ok, f"max componentwise deviation {worst:.3e} (< 1e-6), "
                  f"slowest figure set {slowest:.1f}s (< 10s)")
    assert ok


def test_criterion_2_special_function_suite():
    """Wronskian 500-point grid < 1e-9 plus closed-form identities, < 5s."""
    start = time.monotonic()
    rng = np.random.default_rng(777)
    worst_w = 0.0
    count = 0
    while count < 500:
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
        worst_w = max(worst_w, wronskian_residual(mu, g, z))
        count += 1

    ident = 0.0
    for z in (0.4, 1.5 - 2.0j, -3.0 + 1.0j):
        ident = max(ident, abs(kummer_m(1.0, 2.0, z) - (cmath.exp(z) - 1.0) / z))
        mu = 0.6 + 0.2j
        ident = max(ident, abs(tricomi_u(mu, mu + 1, z + 4.0)
                               - cmath.exp(-mu * cmath.log(z + 4.0))))
    h = 1e-6
    mu, g, z = 0.6 + 0.3j, 1.4, 1.0 - 0.7j
    fd_m = (kummer_m(mu, g, z + h) - kummer_m(mu, g, z - h)) / (2 * h)
    fd_u = (tricomi_u(mu, g, z + h) - tricomi_u(mu, g, z - h)) / (2 * h)
    deriv = max(abs(kummer_m_derivative(mu, g, z) - fd_m),
                abs(tricomi_u_derivative(mu, g, z) - fd_u))
    elapsed = time.monotonic() - start
    ok = worst_w < 1e-9 and ident < 1e-12 and deriv < 1e-6 and elapsed < 5.0
    report(2, ok, f"wronskian max residual {worst_w:.3e} (< 1e-9), identities "
                  f"{ident:.2e}, derivatives {deriv:.2e}, runtime {elapsed:.1f}s (< 5s)")
    assert ok


def test_criterion_3_hermitian_physics():
    """Delta = 0: unitary propagator and conserved norm over the figure-3 grid."""
    base, axis = FIGURE_SETS[3]
    worst_u, worst_n = 0.0, 0.0
    for t in np.linspace(0.1, base.t1, 51):
        q = ModelParams(base.A, base.alpha, base.beta, base.epsilon, 0.0, base.t0, base.t1)
        u = propagator(q, q.t0, float(t)).as_array()
        worst_u = max(worst_u, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
        worst_n = max(worst_n, abs(populations(q, q.t0, float(t)).norm - 1.0))
    for eps in np.linspace(-2.0, 2.0, 51):
        if eps == 0.0:
            continue
        q = ModelParams(base.A, base.alpha, base.beta, float(eps), 0.0, base.t0, base.t1)
        u = propagator(q, q.t0, q.t1).as_array()
        worst_u = max(worst_u, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
        worst_n = max(worst_n, abs(populations(q, q.t0, q.t1).norm - 1.0))
    ok = worst_u < 1e-8 and worst_n < 1e-8
    report(3, ok, f"unitarity residual {worst_u:.3e}, norm drift {worst_n:.3e} (< 1e-8)")
    assert ok


def test_criterion_4_eigenvalue_consistency():
    """Characteristic polynomial, route ratio, conjugation, zone structure."""
    rng = np.random.default_rng(2024)
    worst_char = 0.0
    for _ in range(10_000):
        q = ModelParams(
            A=rng.uniform(0.2, 5.0),
            alpha=float(rng.choice([-1.0, 1.0])) * rng.uniform(0.2, 3.0),
            beta=rng.uniform(-2.0, 2.0),
            epsilon=rng.uniform(-2.0, 2.0),
            Delta=rng.uniform(-2.0, 2.0),
            t0=-1.0,
            t1=1.0,
        )
        t = float(rng.uniform(-1.0, 1.0))
        e_plus, _ = eigenvalues_direct(q, t)
        target = detuning(q, t) ** 2 + coupling(q) ** 2
        worst_char = max(worst_char, abs(e_plus * e_plus - target) / max(abs(target), 1e-30))

    p = ModelParams(2.0, 1.0, 0.5, 0.5, 0.5, -5.0, 5.0)
    ratios = [
        eigenvalues_closed_form(p, float(t))[0] / eigenvalues_direct(p, float(t))[0]
        for t in np.linspace(-4.0, 4.0, 101)
    ]
    spread = max(abs(r - ratios[0]) for r in ratios)

    conj = 0.0
    for D in (0.3, 1.0, 1.7):
        q1 = ModelParams(2.0, 1.0, 0.5, 0.5, D, -5.0, 5.0)
        q2 = ModelParams(2.0, 1.0, 0.5, 0.5, -D, -5.0, 5.0)
        e1, _ = eigenvalues_direct(q1, 0.8)
        e2, _ = eigenvalues_direct(q2, 0.8)
        conj = max(conj, abs(e1 - e2.conjugate()))

    def zone_mixed(eps):
        signs = set()
        for D in np.linspace(-3.0, 3.0, 121):
            q = ModelParams(1.0, -15.0, 0.0, eps, float(D), 0.0, 7.0)
            d = energy_decomposition(q, 7.0)
            signs.add(math.copysign(1.0, d.e_plus.real**2 - d.e_plus.imag**2))
        return len(signs) == 2

    zones = zone_mixed(2.0) and not zone_mixed(3.0)
    ok = worst_char < 1e-12 and spread < 1e-10 and conj < 1e-12 and zones
    report(4, ok, f"char-poly residual {worst_char:.3e} (< 1e-12), ratio spread "
                  f"{spread:.3e} (< 1e-10), conjugation {conj:.3e} (< 1e-12), "
                  f"zone structure {'ok' if zones else 'BAD'}")
    assert ok


def test_criterion_5_rabi_limit():
    """Delta=0 reduction, closed-form/oracle agreement, convergence slope.

    At Delta = 0 the closed-form transfer probability reduces to
    (1/2) sin^2(eps t / sqrt 2), the resonant depth 1/2 of the constant-H
    dynamics, and matches the oracle's transfer channel.
    """
    eps = 0.9
    period = math.sqrt(2.0) * math.pi / eps
    red = 0.0
    for t in np.linspace(0.0, 3.0 * period, 151):
        got = rabi_survival_closed_form(RabiParams(eps, 0.0, float(t)))
        expect = 0.5 * math.sin(eps * float(t) / math.sqrt(2.0)) ** 2
        red = max(red, abs(got - expect))

    # the closed form is the transfer probability, so compare it against the
    # oracle's transfer channel
    gap = 0.0
    for t in np.linspace(0.0, 3.0 * period, 151):
        cf = rabi_survival_closed_form(RabiParams(eps, 0.0, float(t)))
        orc = rabi_survival_oracle(RabiParams(eps, 0.0, float(t)))
        gap = max(gap, abs(cf.real - orc.p12_mod2))

    p = ModelParams(A=1.0, alpha=1.0, beta=0.0, epsilon=1.0, Delta=0.3, t0=-40.0, t1=0.0)
    mags, devs = [], []
    for k in range(3):
        t_probe = -math.log(1e4 * 10.0**k)
        mags.append(math.exp(t_probe))
        devs.append(rabi_limit_convergence(p, t_probe))
    slope = (math.log(devs[0]) - math.log(devs[-1])) / (math.log(mags[0]) - math.log(mags[-1]))

    ok = red < 1e-10 and gap < 1e-10 and abs(slope - 1.0) < 0.2
    report(5, ok, f"Delta=0 reduction {red:.3e} (< 1e-10), closed-form/oracle gap "
                  f"{gap:.3e} (< 1e-10), "
                  f"convergence slope {slope:.3f} (within 0.2 of 1)")
    assert ok


def test_criterion_6_transformed_equation():
    """Equation in x vs gauge-mapped integration in t, both sweep directions."""
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    p2 = ModelParams(2.0, 1.0, 1.5, 0.5, 0.5, -5.0, 3.0)
    dev_a = transformed_ode_check(p2, x_of_t(p2, -3.0), x_of_t(p2, 1.0), cfg=cfg)
    p5 = ModelParams(1.0, -15.0, 0.0, 0.7, 0.3, 0.0, 7.0)
    dev_b = transformed_ode_check(p5, x_of_t(p5, 0.0), x_of_t(p5, 0.4), cfg=cfg)
    ok = dev_a < 1e-7 and dev_b < 1e-7
    report(6, ok, f"deviation {dev_a:.3e} (alpha > 0), {dev_b:.3e} (alpha < 0) (< 1e-7)")
    assert ok


def test_criterion_7_infrastructure():
    """Selftest green, bitwise determinism, figure rows equal to their goldens,
    every figure under 60 s."""
    selftest_ok = cli_main(["selftest"]) == 0

    cfg = _figure_config(3)
    a, b = run_sweep(cfg), run_sweep(cfg)
    deterministic = a.rows == b.rows and a.columns == b.columns

    slowest = 0.0
    changed = []
    for n in (2, 3, 4, 5, 6, 7):
        start = time.monotonic()
        ds = run_sweep(_figure_config(n))
        slowest = max(slowest, time.monotonic() - start)
        if _rows_digest(ds) != FIGURE_ROW_DIGESTS[n]:
            changed.append(n)

    ok = selftest_ok and deterministic and not changed and slowest < 60.0
    report(7, ok, f"selftest {'green' if selftest_ok else 'RED'}, determinism "
                  f"{'ok' if deterministic else 'BAD'}, figure rows "
                  f"{'match goldens' if not changed else f'CHANGED for figures {changed}'}, "
                  f"slowest figure {slowest:.1f}s (< 60s)")
    assert ok
